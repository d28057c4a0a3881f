//! Borrowed-span JSON reading for the relay paths: a document is checked
//! once, then walked as `&str` spans of the original text, so a caller
//! can read a few scalars and splice the rest into its own output
//! without building a value tree.
//!
//! The grammar is exactly the one the workspace's `serde_json::from_str`
//! accepts, quirks included: leading zeros in numbers, raw control
//! characters inside strings, `\u` escapes parsed by
//! `u32::from_str_radix`. A document [`parse`] accepts is one `from_str`
//! accepts, and the reverse; every span re-parses to the value `from_str`
//! gives for it. Duplicate object keys are all kept; [`Span::get`] picks
//! the last one, as `from_str`'s map does.
//!
//! Reading never panics and never recurses: nesting depth is tracked on
//! a bit stack, so a hostile `[[[[…` is walked in constant stack space.
//!
//! ```
//! use mqo_obs::wire;
//!
//! let doc = wire::parse(r#"{"nodes": [3, 1], "tenant": "a"}"#).unwrap();
//! let ids: Vec<u64> = doc.get("nodes").unwrap().items().unwrap()
//!     .filter_map(|n| n.as_u64())
//!     .collect();
//! assert_eq!(ids, [3, 1]);
//! assert_eq!(doc.get("tenant").unwrap().text(), r#""a""#);
//! ```

use std::borrow::Cow;
use std::fmt;

pub use crate::event::escape_json;

/// Why a document was refused, with the byte offset where reading
/// stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    at: usize,
    what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for Error {}

fn fail<T>(at: usize, what: &'static str) -> Result<T, Error> {
    Err(Error { at, what })
}

/// Check that `text` is one JSON document (surrounding whitespace
/// allowed) and return the span of its value.
pub fn parse(text: &str) -> Result<Span<'_>, Error> {
    let b = text.as_bytes();
    let start = skip_ws(b, 0);
    let end = skip_value(b, start)?;
    let rest = skip_ws(b, end);
    if rest != b.len() {
        return fail(rest, "trailing input");
    }
    Ok(Span(&text[start..end]))
}

/// One value of a document [`parse`] accepted: its exact text, with no
/// surrounding whitespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span<'a>(&'a str);

impl<'a> Span<'a> {
    /// The value's text as it appeared in the document.
    pub fn text(&self) -> &'a str {
        self.0
    }

    /// The members of an object, in document order; `None` if the value
    /// is not an object.
    pub fn members(&self) -> Option<Members<'a>> {
        self.0.starts_with('{').then_some(Members { text: self.0, pos: 1 })
    }

    /// The items of an array, in document order; `None` if the value is
    /// not an array.
    pub fn items(&self) -> Option<Items<'a>> {
        self.0.starts_with('[').then_some(Items { text: self.0, pos: 1 })
    }

    /// The value of the last member named `key`, if this is an object
    /// that has one.
    pub fn get(&self, key: &str) -> Option<Span<'a>> {
        self.members()?.filter(|(k, _)| k.is(key)).last().map(|(_, v)| v)
    }

    /// The value as `u64`: a non-negative integer written without a
    /// fraction or exponent (`serde_json::Value::as_u64`).
    pub fn as_u64(&self) -> Option<u64> {
        let t = self.0;
        let digits = t.strip_prefix('-').unwrap_or(t);
        if digits.is_empty() || !digits.bytes().all(|c| c.is_ascii_digit()) {
            return None;
        }
        match t.parse::<i64>() {
            Ok(i) => u64::try_from(i).ok(),
            Err(_) => t.parse::<u64>().ok(),
        }
    }

    /// The value as a bool, if it is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        self.0 == "null"
    }
}

/// An object member's key, as written between its quotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key<'a>(&'a str);

impl<'a> Key<'a> {
    /// The key's text between its quotes, escapes as written.
    pub fn text(&self) -> &'a str {
        self.0
    }

    /// Whether the key, escapes decoded, equals `name`.
    pub fn is(&self, name: &str) -> bool {
        if self.0.contains('\\') {
            self.decoded() == name
        } else {
            self.0 == name
        }
    }

    /// The key with its escapes decoded.
    pub fn decoded(&self) -> Cow<'a, str> {
        if !self.0.contains('\\') {
            return Cow::Borrowed(self.0);
        }
        let mut out = String::with_capacity(self.0.len());
        let mut chars = self.0.char_indices();
        while let Some((i, c)) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next().map(|(_, e)| e) {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    // The document was checked: four radix-16 bytes follow.
                    let code = self
                        .0
                        .get(i + 2..i + 6)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .unwrap_or(0xfffd);
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                Some(e) => out.push(e),
                None => {}
            }
        }
        Cow::Owned(out)
    }
}

/// Iterator over an object's `(key, value)` members.
#[derive(Debug, Clone)]
pub struct Members<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Members<'a> {
    type Item = (Key<'a>, Span<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        // The span was checked by `parse`, so the reads below cannot
        // fail; `?` only ends the walk.
        let b = self.text.as_bytes();
        let at = skip_ws(b, self.pos);
        if b.get(at) != Some(&b'"') {
            self.pos = b.len();
            return None;
        }
        let key_end = skip_string(b, at).ok()?;
        let colon = skip_ws(b, key_end);
        let start = skip_ws(b, colon + 1);
        let end = skip_value(b, start).ok()?;
        let after = skip_ws(b, end);
        self.pos = after + 1;
        Some((Key(&self.text[at + 1..key_end - 1]), Span(&self.text[start..end])))
    }
}

/// Iterator over an array's items.
#[derive(Debug, Clone)]
pub struct Items<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = Span<'a>;

    fn next(&mut self) -> Option<Span<'a>> {
        let b = self.text.as_bytes();
        let start = skip_ws(b, self.pos);
        if start >= b.len() || b[start] == b']' {
            self.pos = b.len();
            return None;
        }
        let end = skip_value(b, start).ok()?;
        self.pos = skip_ws(b, end) + 1;
        Some(Span(&self.text[start..end]))
    }
}

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while matches!(b.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// Containers open around the value being read, innermost last: one bit
/// each (1 = object), the first 64 in a word and the rest spilled.
#[derive(Default)]
struct Nesting {
    depth: usize,
    bits: u64,
    spill: Vec<bool>,
}

impl Nesting {
    fn push(&mut self, object: bool) {
        if self.depth < 64 {
            self.bits = (self.bits & !(1 << self.depth)) | (u64::from(object) << self.depth);
        } else {
            self.spill.push(object);
        }
        self.depth += 1;
    }

    /// Whether the innermost open container is an object; `None` at the
    /// top level.
    fn top(&self) -> Option<bool> {
        match self.depth {
            0 => None,
            d if d <= 64 => Some(self.bits >> (d - 1) & 1 == 1),
            _ => self.spill.last().copied(),
        }
    }

    fn pop(&mut self) {
        self.depth -= 1;
        if self.depth >= 64 {
            self.spill.pop();
        }
    }
}

/// Read one value starting exactly at `pos` (no leading whitespace) and
/// return the offset just past it.
fn skip_value(b: &[u8], mut pos: usize) -> Result<usize, Error> {
    let mut open = Nesting::default();
    loop {
        // A value starts at `pos`: a scalar ends it, an empty container
        // ends it, a non-empty one opens a level and reads its first
        // value.
        match b.get(pos) {
            Some(b'{') => {
                let inner = skip_ws(b, pos + 1);
                if b.get(inner) == Some(&b'}') {
                    pos = inner + 1;
                } else {
                    open.push(true);
                    pos = skip_key(b, inner)?;
                    continue;
                }
            }
            Some(b'[') => {
                let inner = skip_ws(b, pos + 1);
                if b.get(inner) == Some(&b']') {
                    pos = inner + 1;
                } else {
                    open.push(false);
                    pos = inner;
                    continue;
                }
            }
            Some(b'"') => pos = skip_string(b, pos)?,
            Some(b'n') => pos = skip_literal(b, pos, b"null")?,
            Some(b't') => pos = skip_literal(b, pos, b"true")?,
            Some(b'f') => pos = skip_literal(b, pos, b"false")?,
            Some(c) if *c == b'-' || c.is_ascii_digit() => pos = skip_number(b, pos)?,
            _ => return fail(pos, "unexpected input"),
        }
        // A value ended at `pos`: close containers until one continues.
        loop {
            let Some(object) = open.top() else { return Ok(pos) };
            pos = skip_ws(b, pos);
            match (b.get(pos), object) {
                (Some(b','), true) => {
                    pos = skip_key(b, skip_ws(b, pos + 1))?;
                    break;
                }
                (Some(b','), false) => {
                    pos = skip_ws(b, pos + 1);
                    break;
                }
                (Some(b'}'), true) | (Some(b']'), false) => {
                    pos += 1;
                    open.pop();
                }
                (_, true) => return fail(pos, "expected ',' or '}'"),
                (_, false) => return fail(pos, "expected ',' or ']'"),
            }
        }
    }
}

/// Read `"key" :` at `pos` and return the offset of the member's value.
fn skip_key(b: &[u8], pos: usize) -> Result<usize, Error> {
    let colon = skip_ws(b, skip_string(b, pos)?);
    if b.get(colon) != Some(&b':') {
        return fail(colon, "expected ':'");
    }
    Ok(skip_ws(b, colon + 1))
}

fn skip_literal(b: &[u8], pos: usize, word: &[u8]) -> Result<usize, Error> {
    if b[pos..].starts_with(word) {
        Ok(pos + word.len())
    } else {
        fail(pos, "invalid literal")
    }
}

fn skip_string(b: &[u8], pos: usize) -> Result<usize, Error> {
    if b.get(pos) != Some(&b'"') {
        return fail(pos, "expected '\"'");
    }
    let mut i = pos + 1;
    loop {
        // Multi-byte UTF-8 sequences never contain '"' or '\\' bytes, so
        // a bytewise search stays inside the string.
        i += b.get(i..).map_or(0, |rest| {
            rest.iter().position(|&c| c == b'"' || c == b'\\').unwrap_or(rest.len())
        });
        match b.get(i) {
            None => return fail(i, "unterminated string"),
            Some(b'"') => return Ok(i + 1),
            Some(_) => {
                match b.get(i + 1) {
                    Some(b'"' | b'\\' | b'/' | b'n' | b't' | b'r' | b'b' | b'f') => {}
                    Some(b'u') => {
                        let hex = b
                            .get(i + 2..i + 6)
                            .ok_or(Error { at: i, what: "truncated \\u escape" })?;
                        let valid = std::str::from_utf8(hex)
                            .ok()
                            .is_some_and(|h| u32::from_str_radix(h, 16).is_ok());
                        if !valid {
                            return fail(i, "bad \\u escape");
                        }
                        i += 4;
                    }
                    _ => return fail(i, "bad escape"),
                }
                i += 2;
            }
        }
    }
}

fn skip_number(b: &[u8], pos: usize) -> Result<usize, Error> {
    let mut end = pos + usize::from(b[pos] == b'-');
    let mut float = false;
    while let Some(&c) = b.get(end) {
        match c {
            b'0'..=b'9' => {}
            b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
            _ => break,
        }
        end += 1;
    }
    // The bytes are ASCII, so this cannot fail.
    let text = std::str::from_utf8(&b[pos..end]).unwrap_or("");
    let valid = (!float && (text.parse::<i64>().is_ok() || text.parse::<u64>().is_ok()))
        || text.parse::<f64>().is_ok();
    if valid {
        Ok(end)
    } else {
        fail(pos, "invalid number")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_the_original_text() {
        let doc = parse(" {\"a\" : [1, {\"b\":null}] ,\"c\":\"x\\\"y\"}\n").unwrap();
        assert_eq!(doc.text(), "{\"a\" : [1, {\"b\":null}] ,\"c\":\"x\\\"y\"}");
        let members: Vec<(String, &str)> =
            doc.members().unwrap().map(|(k, v)| (k.decoded().into_owned(), v.text())).collect();
        assert_eq!(
            members,
            [("a".to_string(), "[1, {\"b\":null}]"), ("c".to_string(), "\"x\\\"y\"")]
        );
        let items: Vec<&str> =
            doc.get("a").unwrap().items().unwrap().map(|s| s.text()).collect();
        assert_eq!(items, ["1", "{\"b\":null}"]);
        assert!(doc.get("a").unwrap().members().is_none());
        assert!(doc.items().is_none());
    }

    #[test]
    fn scalars_read_like_serde_json() {
        let u = |t: &str| parse(t).unwrap().as_u64();
        assert_eq!(u("42"), Some(42));
        assert_eq!(u("-0"), Some(0));
        assert_eq!(u("007"), Some(7));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        assert_eq!(u("-3"), None);
        assert_eq!(u("1.0"), None);
        assert_eq!(u("1e2"), None);
        assert_eq!(u("\"5\""), None);
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("1").unwrap().as_bool(), None);
        assert!(parse("null").unwrap().is_null());
    }

    #[test]
    fn last_duplicate_key_wins_and_escaped_keys_match() {
        let doc = parse(r#"{"node":1,"no\u0064e":2}"#).unwrap();
        assert_eq!(doc.get("node").unwrap().as_u64(), Some(2));
        let doc = parse(r#"{"k\"":1}"#).unwrap();
        assert!(doc.get("k\"").is_some());
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in [
            "",
            " ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
            "nul",
            "tru",
            "\"abc",
            "\"\\x\"",
            "\"\\u12\"",
            "-",
            "1.2.3",
            "1e",
            "{} {}",
            "]",
            "[}",
            "{]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        // Quirks of the workspace parser that must carry over.
        for good in ["007", "\"\\u+abc\"", "\"raw\ttab\"", "-.5", "5.", "1e+5", "truex"] {
            assert_eq!(
                parse(good).is_ok(),
                serde_json::from_str(good).is_ok(),
                "disagrees on {good:?}"
            );
        }
    }

    #[test]
    fn deep_nesting_is_walked_without_recursion() {
        let depth = 100_000;
        let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(parse(&doc).unwrap().text().len(), 2 * depth);
        let open = "[{\"a\":".repeat(depth);
        assert!(parse(&open).is_err());
    }
}
