//! Shared-prefix accounting: how much of each prompt a prefix-reusing
//! serving cache could skip.
//!
//! Two offline measurement tools live here (the `prefix_sharing`
//! experiment uses both; nothing on the serving path does):
//!
//! * [`common_prefix_bytes`] / [`common_prefix_tokens`] — pairwise prefix
//!   length between two rendered prompts. The token variant reports what a
//!   serving cache would actually save: tokens are the unit the KV cache
//!   stores, and a *partial* trailing subword is not reusable, so it is
//!   excluded (exact for the workspace tokenizer, not an estimate).
//! * [`PrefixStore`] — a radix-style trie over prompt *segments* (target
//!   block / neighbor blocks / task block). Observing prompts in serving
//!   order yields, per prompt, the leading tokens already present in the
//!   trie: the **realized** reuse of a radix prompt cache under that
//!   traffic, as opposed to the theoretical pairwise numbers.
//!
//! Segmenting at structural boundaries rather than characters keeps the
//! trie small and mirrors how radix serving caches (vLLM prefix caching,
//! SGLang RadixAttention) match whole cached blocks.

use mqo_token::Tokenizer;
use std::collections::HashMap;

/// Byte length of the common prefix of `a` and `b` (whole chars only, so
/// the result always lies on a UTF-8 boundary of both).
pub fn common_prefix_bytes(a: &str, b: &str) -> usize {
    let mut len = 0usize;
    for (ca, cb) in a.chars().zip(b.chars()) {
        if ca != cb {
            break;
        }
        len += ca.len_utf8();
    }
    len
}

/// Number of whole tokens shared between the tokenizations of `a` and `b`
/// at their common prefix.
///
/// This is exact for [`mqo_token::Tokenizer`]: a word is chunked into
/// 4-char subwords left to right, so every complete chunk inside the
/// common prefix tokenizes identically in both strings, while a partial
/// final chunk of a word that *continues* in either string becomes a
/// different token there and is therefore not reusable.
pub fn common_prefix_tokens(a: &str, b: &str) -> usize {
    let n = common_prefix_bytes(a, b);
    let p = &a[..n];
    let mut tokens = Tokenizer.count(p);
    let continues_word = |s: &str| s[n..].chars().next().is_some_and(|c| c.is_alphanumeric());
    let trailing_word_chars = p.chars().rev().take_while(|c| c.is_alphanumeric()).count();
    if trailing_word_chars > 0
        && trailing_word_chars % 4 != 0
        && (continues_word(a) || continues_word(b))
    {
        // The final subword chunk is partial and the word goes on: the
        // longer string tokenizes that chunk differently.
        tokens -= 1;
    }
    tokens
}

/// Split a rendered prompt into paragraph segments (blank-line separated).
///
/// Whitespace is token-free under the workspace tokenizer, so the token
/// counts of the segments sum exactly to the whole prompt's count. Callers
/// with structural knowledge of the prompt (e.g. `mqo-llm`, which knows
/// the neighbor-block markers) should segment more finely themselves and
/// use [`PrefixStore::observe_segments`].
pub fn segment_paragraphs(prompt: &str) -> Vec<&str> {
    prompt.split("\n\n").filter(|s| !s.is_empty()).collect()
}

/// What one observed prompt shared with the traffic before it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixReuse {
    /// Tokens in the leading segments already present in the store — what
    /// a radix cache would have reused for this prompt.
    pub reused_tokens: usize,
    /// Leading segments that matched.
    pub reused_segments: usize,
    /// Tokens across all of this prompt's segments.
    pub total_tokens: usize,
    /// Segments in this prompt.
    pub total_segments: usize,
}

#[derive(Default)]
struct Node {
    children: HashMap<u64, Node>,
}

/// Memoized segment token counts, keyed by segment fingerprint.
///
/// Serving traffic re-observes the same structural segments (the target
/// block of a replayed node, shared neighbor blocks, the task block on
/// every single prompt) over and over; counting is O(len) per segment,
/// so the store pays tokenization once per *distinct* segment instead of
/// once per observation. The key is the same fingerprint the trie edge
/// uses, so hits cost one hash lookup and no extra hashing.
#[derive(Default)]
struct TokenCountCache {
    counts: HashMap<u64, usize>,
    hits: u64,
    misses: u64,
}

impl TokenCountCache {
    /// Token count of `seg` whose fingerprint is `key`.
    fn count(&mut self, key: u64, seg: &str) -> usize {
        match self.counts.get(&key) {
            Some(&n) => {
                self.hits += 1;
                n
            }
            None => {
                self.misses += 1;
                let n = Tokenizer.count(seg);
                self.counts.insert(key, n);
                n
            }
        }
    }
}

/// A radix-style trie over prompt segments, accumulating realized
/// prefix-reuse statistics across the traffic it observes.
#[derive(Default)]
pub struct PrefixStore {
    root: Node,
    token_counts: TokenCountCache,
    prompts: usize,
    reused_tokens: u64,
    total_tokens: u64,
}

impl PrefixStore {
    /// Empty store.
    pub fn new() -> Self {
        PrefixStore::default()
    }

    /// Observe one prompt (paragraph segmentation) in serving order.
    pub fn observe(&mut self, prompt: &str) -> PrefixReuse {
        self.observe_segments(&segment_paragraphs(prompt))
    }

    /// Observe one prompt pre-split into structural segments: returns the
    /// reuse this prompt realized and records its segments for later
    /// traffic.
    pub fn observe_segments(&mut self, segments: &[&str]) -> PrefixReuse {
        let mut reuse = PrefixReuse { total_segments: segments.len(), ..Default::default() };
        let mut node = &mut self.root;
        let mut matching = true;
        for seg in segments {
            let key = crate::fingerprint::fingerprint("", seg).0;
            let tokens = self.token_counts.count(key, seg);
            reuse.total_tokens += tokens;
            if matching && node.children.contains_key(&key) {
                reuse.reused_tokens += tokens;
                reuse.reused_segments += 1;
            } else {
                matching = false;
            }
            node = node.children.entry(key).or_default();
        }
        self.prompts += 1;
        self.reused_tokens += reuse.reused_tokens as u64;
        self.total_tokens += reuse.total_tokens as u64;
        reuse
    }

    /// Prompts observed so far.
    pub fn prompts(&self) -> usize {
        self.prompts
    }

    /// Total leading tokens the observed traffic could have reused.
    pub fn reused_tokens(&self) -> u64 {
        self.reused_tokens
    }

    /// Total tokens across all observed prompts.
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Token-count memo effectiveness: `(hits, misses)`. A miss
    /// tokenizes the segment (O(len)); a hit is one hash lookup. Misses
    /// equal the number of distinct segments observed.
    pub fn token_count_cache_stats(&self) -> (u64, u64) {
        (self.token_counts.hits, self.token_counts.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_prefix_respects_char_boundaries() {
        assert_eq!(common_prefix_bytes("abc", "abd"), 2);
        assert_eq!(common_prefix_bytes("", "x"), 0);
        assert_eq!(common_prefix_bytes("same", "same"), 4);
        // 'é' is 2 bytes; a divergent char contributes nothing partial.
        assert_eq!(common_prefix_bytes("café", "cafè"), 3);
    }

    #[test]
    fn token_prefix_matches_shared_tokenization_exactly() {
        // Brute-force oracle: longest common prefix of the two token
        // streams, where word tokens are compared as (chunk text) values.
        fn oracle(a: &str, b: &str) -> usize {
            let ta = Tokenizer.tokenize(a);
            let tb = Tokenizer.tokenize(b);
            ta.iter().zip(&tb).take_while(|(x, y)| x == y).count()
        }
        let cases = [
            ("Title: graph databases", "Title: graph algorithms"),
            ("databases", "datab"),    // word continues in one string
            ("database", "databases"), // 8 chars = aligned chunk boundary
            ("data", "data"),          // identical
            ("a, b", "a, c"),          // punctuation boundary
            ("Target paper: Title: x\nAbstract: y", "Target paper: Title: x\nAbstract: z"),
            ("", "anything"),
            ("word", "work"), // diverge inside a chunk
        ];
        for (a, b) in cases {
            assert_eq!(common_prefix_tokens(a, b), oracle(a, b), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn token_prefix_is_symmetric() {
        let a = "Target paper: Title: graph neural networks";
        let b = "Target paper: Title: graph transformers";
        assert_eq!(common_prefix_tokens(a, b), common_prefix_tokens(b, a));
    }

    #[test]
    fn paragraph_segments_cover_the_prompt_token_exactly() {
        let prompt = "Target paper: Title: t\nAbstract: a\n\nTask:\nCategories:\n[A, B]";
        let segs = segment_paragraphs(prompt);
        assert_eq!(segs.len(), 2);
        let sum: usize = segs.iter().map(|s| Tokenizer.count(s)).sum();
        assert_eq!(sum, Tokenizer.count(prompt), "whitespace separators are token-free");
    }

    #[test]
    fn store_reuses_leading_segments_only() {
        let mut store = PrefixStore::new();
        let first = store.observe_segments(&["SYS", "task A", "body A"]);
        assert_eq!(first.reused_tokens, 0);
        assert_eq!(first.total_segments, 3);

        // Same system preamble + task header, new body: two segments reused.
        let second = store.observe_segments(&["SYS", "task A", "body B"]);
        assert_eq!(second.reused_segments, 2);
        assert_eq!(second.reused_tokens, Tokenizer.count("SYS") + Tokenizer.count("task A"));

        // Divergence at the first segment blocks deeper reuse even if a
        // later segment exists somewhere in the trie (prefix semantics).
        let third = store.observe_segments(&["OTHER", "task A", "body A"]);
        assert_eq!(third.reused_segments, 0);
        assert_eq!(third.reused_tokens, 0);

        assert_eq!(store.prompts(), 3);
        assert!(store.reused_tokens() > 0 && store.reused_tokens() < store.total_tokens());
    }

    #[test]
    fn token_counts_are_memoized_per_distinct_segment() {
        let mut store = PrefixStore::new();
        store.observe_segments(&["SYS", "task A", "body A"]);
        store.observe_segments(&["SYS", "task A", "body B"]);
        store.observe_segments(&["SYS", "task A", "body A"]);
        // 9 observations over 4 distinct segments: 4 misses, 5 hits.
        let (hits, misses) = store.token_count_cache_stats();
        assert_eq!(misses, 4, "one tokenization per distinct segment");
        assert_eq!(hits, 5, "repeat observations hit the memo");
    }

    #[test]
    fn memoized_counts_match_direct_tokenization() {
        // The memo must be invisible in the numbers: reuse accounting
        // with the cache equals what direct counting would produce.
        let mut store = PrefixStore::new();
        let segs = ["Target paper: Title: t", "Neighbor Paper0: n", "Task: classify"];
        store.observe_segments(&segs);
        let again = store.observe_segments(&segs);
        let direct: usize = segs.iter().map(|s| Tokenizer.count(s)).sum();
        assert_eq!(again.total_tokens, direct);
        assert_eq!(again.reused_tokens, direct);
        assert_eq!(store.total_tokens(), 2 * direct as u64);
    }

    #[test]
    fn identical_prompt_reuses_everything() {
        let mut store = PrefixStore::new();
        let p = "Target paper: Title: t\nAbstract: a\n\nTask:\nCategories:\n[A]";
        store.observe(p);
        let again = store.observe(p);
        assert_eq!(again.reused_tokens, again.total_tokens);
        assert_eq!(again.reused_segments, again.total_segments);
    }
}
