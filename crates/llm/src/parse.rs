//! Robust extraction of answers from LLM completions.
//!
//! Real models drift from the requested `Category: ['XX']` format: extra
//! prose, double quotes, missing brackets, trailing punctuation. The parser
//! here is what a production client would ship — bracket extraction first,
//! then a category-name scan fallback — and the simulated LLM deliberately
//! emits the same kinds of drift so the fallback paths stay exercised.

/// Extract the quoted item of the *last* Python-style list in `text`:
/// `... ['Database'] ...` → `Some("Database")`. Accepts single or double
/// quotes and tolerates whitespace.
pub fn extract_bracketed(text: &str) -> Option<&str> {
    let mut result = None;
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(open_rel) = text[i..].find('[') {
        let open = i + open_rel;
        if let Some(close_rel) = text[open..].find(']') {
            let close = open + close_rel;
            let inner = text[open + 1..close].trim();
            let inner = inner
                .strip_prefix('\'')
                .or_else(|| inner.strip_prefix('"'))
                .map(|s| s.strip_suffix('\'').or_else(|| s.strip_suffix('"')).unwrap_or(s))
                .unwrap_or(inner)
                .trim();
            if !inner.is_empty() {
                result = Some(inner);
            }
            i = close + 1;
        } else {
            break;
        }
        if i >= bytes.len() {
            break;
        }
    }
    result
}

/// Parse a category answer against a known label space.
///
/// Strategy: (1) bracket extraction + case-insensitive match against
/// `categories`; (2) scan for the category name that appears *latest* in
/// the completion (models often restate the answer last). Returns the
/// category's index.
pub fn parse_category(text: &str, categories: &[String]) -> Option<usize> {
    if let Some(inner) = extract_bracketed(text) {
        let needle = inner.trim();
        if let Some(i) = categories.iter().position(|c| c.eq_ignore_ascii_case(needle)) {
            return Some(i);
        }
    }
    // Fallback: the mention ending latest wins; ties prefer the longer
    // name, so nested names ("Beauty" inside "All Beauty") resolve to the
    // full category actually written.
    let lower = text.to_ascii_lowercase();
    let mut best: Option<(usize, usize, usize)> = None; // (end, len, index)
    for (i, c) in categories.iter().enumerate() {
        let c_lower = c.to_ascii_lowercase();
        if let Some(pos) = lower.rfind(&c_lower) {
            let key = (pos + c_lower.len(), c_lower.len());
            if best.is_none_or(|(be, bl, _)| key > (be, bl)) {
                best = Some((key.0, key.1, i));
            }
        }
    }
    best.map(|(_, _, i)| i)
}

/// Parse a yes/no answer (link prediction). Returns `Some(true)` for yes.
pub fn parse_yes_no(text: &str) -> Option<bool> {
    if let Some(inner) = extract_bracketed(text) {
        match inner.to_ascii_lowercase().as_str() {
            "yes" => return Some(true),
            "no" => return Some(false),
            _ => {}
        }
    }
    let lower = text.to_ascii_lowercase();
    let yes = lower.rfind("yes");
    let no = lower.rfind("no");
    match (yes, no) {
        (Some(y), Some(n)) => Some(y > n),
        (Some(_), None) => Some(true),
        (None, Some(_)) => Some(false),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cats() -> Vec<String> {
        vec!["Database".into(), "Agents".into(), "Theory".into()]
    }

    #[test]
    fn clean_format_parses() {
        assert_eq!(parse_category("Category: ['Agents'].", &cats()), Some(1));
    }

    #[test]
    fn double_quotes_parse() {
        assert_eq!(parse_category(r#"Category: ["Theory"]"#, &cats()), Some(2));
    }

    #[test]
    fn chatty_preamble_parses() {
        let text = "Based on the title and abstract, the target paper \
                    belongs to Category: ['Database'].";
        assert_eq!(parse_category(text, &cats()), Some(0));
    }

    #[test]
    fn last_list_wins_when_multiple() {
        let text = "The candidates are ['Agents'] but I choose ['Theory'].";
        assert_eq!(parse_category(text, &cats()), Some(2));
    }

    #[test]
    fn fallback_scans_for_name_without_brackets() {
        assert_eq!(parse_category("It is clearly a Database paper.", &cats()), Some(0));
    }

    #[test]
    fn fallback_prefers_latest_mention() {
        let text = "Could be Agents, but actually Theory fits best";
        assert_eq!(parse_category(text, &cats()), Some(2));
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(parse_category("category: ['database']", &cats()), Some(0));
        let mixed: Vec<String> = vec!["DataBase".into(), "AI Agents".into(), "theory".into()];
        assert_eq!(parse_category("Category: ['dATAbASE']", &mixed), Some(0));
        assert_eq!(parse_category("Category: ['ai AGENTS']", &mixed), Some(1));
        assert_eq!(parse_category("Category: ['Theory']", &mixed), Some(2));
    }

    #[test]
    fn garbage_returns_none() {
        assert_eq!(parse_category("I have no idea.", &cats()), None);
        assert_eq!(parse_category("", &cats()), None);
        assert_eq!(parse_category("['Chemistry']", &cats()), None);
    }

    #[test]
    fn yes_no_parses_brackets_and_prose() {
        assert_eq!(parse_yes_no("Answer: ['Yes']"), Some(true));
        assert_eq!(parse_yes_no("Answer: ['No']."), Some(false));
        assert_eq!(parse_yes_no("I believe the answer is yes."), Some(true));
        assert_eq!(parse_yes_no("no"), Some(false));
        assert_eq!(parse_yes_no("maybe"), None);
    }

    #[test]
    fn extract_bracketed_edge_cases() {
        assert_eq!(extract_bracketed("[]"), None);
        assert_eq!(extract_bracketed("[  'x' ]"), Some("x"));
        assert_eq!(extract_bracketed("no brackets"), None);
        assert_eq!(extract_bracketed("[unclosed"), None);
        assert_eq!(extract_bracketed("[a][b]"), Some("b"));
    }
}
