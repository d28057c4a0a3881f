//! Prompt templates (Table III) and their structural markers.
//!
//! The same marker constants are used by the builders here and by the
//! simulated LLM's prompt reader, so template and parser cannot drift
//! apart.

/// Marker opening the neighbor section.
pub const NEIGHBOR_HEADER: &str =
    "Target paper has the following important neighbors with citation relationships";
/// Extra clause SNS adds to the neighbor header.
pub const SNS_RANKED_CLAUSE: &str = ", from most related to least related";
/// Marker opening the task section.
pub const TASK_HEADER: &str = "Task:";
/// Marker for the target block.
pub const TARGET_HEADER: &str = "Target paper:";
/// Label line prefix inside a neighbor block.
pub const CATEGORY_PREFIX: &str = "Category:";
/// Title line prefix.
pub const TITLE_PREFIX: &str = "Title:";

/// One selected neighbor as it appears in the prompt: its title and, when
/// the neighbor is labeled (ground truth or pseudo-label), its category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborEntry {
    /// Neighbor title text.
    pub title: String,
    /// Neighbor category name, if known.
    pub label: Option<String>,
}

/// Everything needed to render a node-classification prompt.
#[derive(Debug, Clone)]
pub struct NodePromptSpec<'a> {
    /// Target node title.
    pub title: &'a str,
    /// Target node abstract / description.
    pub abstract_text: &'a str,
    /// Selected neighbors (empty for vanilla zero-shot).
    pub neighbors: &'a [NeighborEntry],
    /// The label space, in display order.
    pub categories: &'a [String],
    /// Whether neighbors are similarity-ranked (SNS adds the
    /// "most related to least related" clause).
    pub ranked: bool,
}

impl NodePromptSpec<'_> {
    /// Render the full prompt per Table III.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    /// Render into a caller-owned buffer, reusing its capacity. The hot
    /// serving path renders thousands of prompts; this is the
    /// allocation-free (steady state) variant [`NodePromptSpec::render`]
    /// wraps.
    pub fn render_into(&self, s: &mut String) {
        use std::fmt::Write as _;
        s.clear();
        s.reserve(
            64 + self.title.len()
                + self.abstract_text.len()
                + self.neighbors.iter().map(|n| n.title.len() + 48).sum::<usize>()
                + self.categories.iter().map(|c| c.len() + 2).sum::<usize>(),
        );
        s.push_str(TARGET_HEADER);
        s.push_str(" Title: ");
        s.push_str(self.title);
        s.push_str("\nAbstract: ");
        s.push_str(self.abstract_text);
        s.push('\n');
        if !self.neighbors.is_empty() {
            s.push('\n');
            s.push_str(NEIGHBOR_HEADER);
            if self.ranked {
                s.push_str(SNS_RANKED_CLAUSE);
            }
            s.push_str(":\n");
            for (i, n) in self.neighbors.iter().enumerate() {
                let _ = write!(s, "{NEIGHBOR_BLOCK_PREFIX}{i}: {{{{\n{TITLE_PREFIX} ");
                s.push_str(&n.title);
                s.push('\n');
                if let Some(label) = &n.label {
                    s.push_str(CATEGORY_PREFIX);
                    s.push(' ');
                    s.push_str(label);
                    s.push('\n');
                }
                s.push_str("}}\n");
            }
        }
        s.push('\n');
        s.push_str(TASK_HEADER);
        s.push_str("\nCategories:\n[");
        for (i, c) in self.categories.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(c);
        }
        s.push_str("]\nWhich category does the target paper belong to?\nPlease output the most likely category as a Python list: Category: ['XX'].");
    }
}

/// Line prefix of each neighbor block inside the neighbor section.
pub const NEIGHBOR_BLOCK_PREFIX: &str = "Neighbor Paper";

/// Split a rendered prompt into its structural segments: the target block,
/// the neighbor-section header, each neighbor block, and the task block.
///
/// This is the segmentation `mqo_cache::PrefixStore` consumes in the
/// `prefix_sharing` experiment: it cuts at blank lines (which separate the
/// Table III sections) and additionally at every [`NEIGHBOR_BLOCK_PREFIX`]
/// line, so two prompts sharing the same leading neighbor blocks register
/// that reuse even though the blocks live inside one paragraph. Blank
/// separator lines are whitespace-only and therefore token-free: the
/// segments' token counts sum exactly to the whole prompt's.
pub fn segments(prompt: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut seg_start = 0usize;
    let mut pos = 0usize;
    for line in prompt.split_inclusive('\n') {
        let line_start = pos;
        pos += line.len();
        let body = line.trim_end_matches('\n');
        if body.is_empty() {
            if line_start > seg_start {
                out.push(&prompt[seg_start..line_start]);
            }
            seg_start = pos; // skip the blank separator itself
        } else if body.starts_with(NEIGHBOR_BLOCK_PREFIX) && line_start > seg_start {
            out.push(&prompt[seg_start..line_start]);
            seg_start = line_start;
        }
    }
    if pos > seg_start {
        out.push(&prompt[seg_start..pos]);
    }
    out.retain(|s| !s.trim().is_empty());
    out
}

/// Marker for the link-prediction task section.
pub const LINK_TASK: &str = "Does an edge exist between Paper A and Paper B?";

/// Everything needed to render a link-prediction prompt (§VI-J): the two
/// endpoint texts plus known neighbor links of each endpoint.
#[derive(Debug, Clone)]
pub struct LinkPromptSpec<'a> {
    /// First endpoint title.
    pub title_a: &'a str,
    /// First endpoint abstract.
    pub abstract_a: &'a str,
    /// Second endpoint title.
    pub title_b: &'a str,
    /// Second endpoint abstract.
    pub abstract_b: &'a str,
    /// Titles of known neighbors of A (possibly enriched by query boosting).
    pub neighbors_a: &'a [String],
    /// Titles of known neighbors of B.
    pub neighbors_b: &'a [String],
}

impl LinkPromptSpec<'_> {
    /// Render the link-prediction prompt.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("Paper A: Title: ");
        s.push_str(self.title_a);
        s.push_str("\nAbstract: ");
        s.push_str(self.abstract_a);
        s.push_str("\nPaper B: Title: ");
        s.push_str(self.title_b);
        s.push_str("\nAbstract: ");
        s.push_str(self.abstract_b);
        s.push('\n');
        if !self.neighbors_a.is_empty() {
            s.push_str("\nPaper A cites the following papers:\n");
            for t in self.neighbors_a {
                s.push_str(&format!("- {t}\n"));
            }
        }
        if !self.neighbors_b.is_empty() {
            s.push_str("\nPaper B cites the following papers:\n");
            for t in self.neighbors_b {
                s.push_str(&format!("- {t}\n"));
            }
        }
        s.push('\n');
        s.push_str(TASK_HEADER);
        s.push('\n');
        s.push_str(LINK_TASK);
        s.push_str(
            "\nPlease output the answer as a Python list: Answer: ['Yes'] or Answer: ['No'].",
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cats() -> Vec<String> {
        vec!["Database".into(), "Agents".into()]
    }

    #[test]
    fn zero_shot_prompt_has_no_neighbor_section() {
        let cats = cats();
        let p = NodePromptSpec {
            title: "t",
            abstract_text: "a",
            neighbors: &[],
            categories: &cats,
            ranked: false,
        }
        .render();
        assert!(p.contains("Target paper: Title: t"));
        assert!(!p.contains(NEIGHBOR_HEADER));
        assert!(p.contains("[Database, Agents]"));
        assert!(p.ends_with("Category: ['XX']."));
    }

    #[test]
    fn neighbor_blocks_render_with_and_without_labels() {
        let cats = cats();
        let neighbors = vec![
            NeighborEntry { title: "n0".into(), label: Some("Database".into()) },
            NeighborEntry { title: "n1".into(), label: None },
        ];
        let p = NodePromptSpec {
            title: "t",
            abstract_text: "a",
            neighbors: &neighbors,
            categories: &cats,
            ranked: false,
        }
        .render();
        assert!(p.contains("Neighbor Paper0: {{\nTitle: n0\nCategory: Database\n}}"));
        assert!(p.contains("Neighbor Paper1: {{\nTitle: n1\n}}"));
        assert!(p.contains(NEIGHBOR_HEADER));
        assert!(!p.contains(SNS_RANKED_CLAUSE));
    }

    #[test]
    fn sns_prompt_mentions_ranking() {
        let cats = cats();
        let neighbors = vec![NeighborEntry { title: "n".into(), label: None }];
        let p = NodePromptSpec {
            title: "t",
            abstract_text: "a",
            neighbors: &neighbors,
            categories: &cats,
            ranked: true,
        }
        .render();
        assert!(p.contains(SNS_RANKED_CLAUSE));
    }

    #[test]
    fn link_prompt_renders_both_endpoints_and_links() {
        let na = vec!["cited one".to_string()];
        let p = LinkPromptSpec {
            title_a: "A",
            abstract_a: "aa",
            title_b: "B",
            abstract_b: "bb",
            neighbors_a: &na,
            neighbors_b: &[],
        }
        .render();
        assert!(p.contains("Paper A: Title: A"));
        assert!(p.contains("Paper B: Title: B"));
        assert!(p.contains("- cited one"));
        assert!(p.contains(LINK_TASK));
    }

    #[test]
    fn segments_cut_at_sections_and_neighbor_blocks() {
        use mqo_token::Tokenizer;
        let cats = cats();
        let neighbors = vec![
            NeighborEntry { title: "n0".into(), label: Some("Database".into()) },
            NeighborEntry { title: "n1".into(), label: None },
        ];
        let p = NodePromptSpec {
            title: "t",
            abstract_text: "a",
            neighbors: &neighbors,
            categories: &cats,
            ranked: false,
        }
        .render();
        let segs = segments(&p);
        // Target block, neighbor header, two neighbor blocks, task block.
        assert_eq!(segs.len(), 5, "segments: {segs:#?}");
        assert!(segs[0].starts_with(TARGET_HEADER));
        assert!(segs[1].starts_with(NEIGHBOR_HEADER));
        assert!(segs[2].starts_with("Neighbor Paper0"));
        assert!(segs[3].starts_with("Neighbor Paper1"));
        assert!(segs[4].starts_with(TASK_HEADER));
        let sum: usize = segs.iter().map(|s| Tokenizer.count(s)).sum();
        assert_eq!(sum, Tokenizer.count(&p), "segmentation must not change token mass");
    }

    #[test]
    fn zero_shot_segments_are_target_and_task() {
        let cats = cats();
        let p = NodePromptSpec {
            title: "t",
            abstract_text: "a",
            neighbors: &[],
            categories: &cats,
            ranked: false,
        }
        .render();
        let segs = segments(&p);
        assert_eq!(segs.len(), 2);
        assert!(segs[1].starts_with(TASK_HEADER));
    }

    #[test]
    fn neighbor_text_tokens_dominate_prompt_cost() {
        // The paper's premise: neighbor text is the main token cost.
        use mqo_token::Tokenizer;
        let cats = cats();
        let long_title = "word ".repeat(12);
        let neighbors: Vec<NeighborEntry> =
            (0..10).map(|_| NeighborEntry { title: long_title.clone(), label: None }).collect();
        let base = NodePromptSpec {
            title: "short title",
            abstract_text: "short abstract",
            neighbors: &[],
            categories: &cats,
            ranked: false,
        }
        .render();
        let full = NodePromptSpec {
            title: "short title",
            abstract_text: "short abstract",
            neighbors: &neighbors,
            categories: &cats,
            ranked: false,
        }
        .render();
        let t = Tokenizer;
        assert!(t.count(&full) > 2 * t.count(&base));
    }
}
