//! The `POST /v1/classify` body grammar, read once for both sides of a
//! routed deployment: the router groups the node ids by owner and
//! forwards every other member verbatim, and a worker (`mqo serve`)
//! resolves the ids against its dataset and reads the tenant.
//!
//! A body is one JSON object with exactly one of `"node": N` or
//! `"nodes": [N, ...]` (non-empty), node ids being non-negative
//! integers; any other members (`"tenant"`, ...) are kept as written.
//! Every error is a client error (400) and reads the same on both sides.

use mqo_obs::wire::{self, Key, Span};

/// A parsed classify body, borrowing its text.
#[derive(Debug)]
pub struct ClassifyBody<'a> {
    /// The requested node ids, in request order (not yet range-checked).
    pub nodes: Vec<u64>,
    /// Every member but `node`/`nodes`, in document order, as written.
    pub rest: Vec<(Key<'a>, Span<'a>)>,
}

impl<'a> ClassifyBody<'a> {
    /// Parse `text`, or say why it is not a classify body.
    pub fn parse(text: &'a str) -> Result<Self, String> {
        let body = wire::parse(text).map_err(|e| format!("invalid JSON body: {e}"))?;
        let (mut node, mut list, mut rest) = (None, None, Vec::new());
        for (key, value) in body.members().into_iter().flatten() {
            if key.is("node") {
                node = Some(value);
            } else if key.is("nodes") {
                list = Some(value);
            } else {
                rest.push((key, value));
            }
        }
        let nodes = match (node, list) {
            (Some(n), None) => {
                vec![n.as_u64().ok_or("'node' must be a non-negative integer")?]
            }
            (None, Some(list)) => {
                let items = list.items().ok_or("'nodes' must be an array")?;
                let nodes = items
                    .map(|n| n.as_u64())
                    .collect::<Option<Vec<u64>>>()
                    .ok_or("'nodes' entries must be non-negative integers")?;
                if nodes.is_empty() {
                    return Err("'nodes' must not be empty".into());
                }
                nodes
            }
            _ => return Err("body must have exactly one of 'node' or 'nodes'".into()),
        };
        Ok(ClassifyBody { nodes, rest })
    }

    /// The value of the last other member named `key`, as a JSON object
    /// reader picks a duplicated key.
    pub fn get(&self, key: &str) -> Option<Span<'a>> {
        self.rest.iter().rev().find(|(k, _)| k.is(key)).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(text: &str) -> String {
        ClassifyBody::parse(text).unwrap_err()
    }

    #[test]
    fn single_and_batched_bodies_keep_their_other_members() {
        let b = ClassifyBody::parse(r#"{"tenant":"a","node":7}"#).unwrap();
        assert_eq!(b.nodes, [7]);
        assert_eq!(b.get("tenant").unwrap().as_str().unwrap(), "a");
        let b = ClassifyBody::parse(r#" {"nodes": [3, 1, 3], "x": {"y": 1}, "tenant": "b"} "#)
            .unwrap();
        assert_eq!(b.nodes, [3, 1, 3]);
        let rest: Vec<(&str, &str)> =
            b.rest.iter().map(|(k, v)| (k.text(), v.text())).collect();
        assert_eq!(rest, [("x", r#"{"y": 1}"#), ("tenant", r#""b""#)]);
        assert!(ClassifyBody::parse(r#"{"node":1}"#).unwrap().get("tenant").is_none());
    }

    #[test]
    fn duplicate_members_read_the_last_one() {
        let b =
            ClassifyBody::parse(r#"{"node":1,"node":2,"tenant":"a","tenant":"b"}"#).unwrap();
        assert_eq!(b.nodes, [2]);
        assert_eq!(b.get("tenant").unwrap().as_str().unwrap(), "b");
    }

    #[test]
    fn malformed_bodies_name_what_is_wrong() {
        assert!(err("{").starts_with("invalid JSON body: "), "{}", err("{"));
        assert!(err("{").contains("at byte"), "{}", err("{"));
        for (text, why) in [
            (r#"{"node":-1}"#, "'node' must be a non-negative integer"),
            (r#"{"node":"1"}"#, "'node' must be a non-negative integer"),
            (r#"{"nodes":1}"#, "'nodes' must be an array"),
            (r#"{"nodes":[]}"#, "'nodes' must not be empty"),
            (r#"{"nodes":[1,2.5]}"#, "'nodes' entries must be non-negative integers"),
            (r#"{"node":1,"nodes":[2]}"#, "body must have exactly one of 'node' or 'nodes'"),
            (r#"{"tenant":"a"}"#, "body must have exactly one of 'node' or 'nodes'"),
            ("[1]", "body must have exactly one of 'node' or 'nodes'"),
        ] {
            assert_eq!(err(text), why, "{text}");
        }
    }
}
