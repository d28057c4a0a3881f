//! Differential property test: `mqo_obs::wire` against the workspace's
//! `serde_json::from_str` on serialized random documents, intact and
//! with a character flipped, deleted or inserted, or the text truncated
//! or padded. The reader must never panic, must refuse exactly what
//! `from_str` refuses, and every span it returns must re-parse to the
//! value `from_str` gives for that member or item.

use mqo_obs::wire::{self, Span};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Number, Value};

/// Characters a mutation may write: JSON punctuation, the starts of
/// every literal and number, escapes, whitespace and multi-byte text.
const NOISE: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '\\', '/', '-', '+', '.', 'e', 'E', '0', '1', '9', 'n',
    't', 'f', 'u', 'a', 'l', 's', 'r', ' ', '\n', '\t', '\u{1}', 'é', '🙂', 'x',
];

fn random_string(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &[
        'a', 'b', 'z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{8}', '\u{1f}', 'é', '中', '🙂',
    ];
    (0..rng.gen_range(0..6)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
}

fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.gen_range(0..kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::from(rng.gen_range(0u64..100_000)),
        3 => match rng.gen_range(0..3) {
            0 => Value::Number(Number::Int(-(rng.gen_range(0i64..1_000_000)))),
            1 => Value::from(rng.gen::<u64>()),
            _ => Value::from(rng.gen::<u32>() as f64 / 1024.0 - 1e5),
        },
        4 | 5 => Value::String(random_string(rng)),
        6 => Value::Array(
            (0..rng.gen_range(0..5)).map(|_| random_value(rng, depth - 1)).collect(),
        ),
        _ => {
            let mut map = Map::new();
            for _ in 0..rng.gen_range(0..5) {
                map.insert(random_string(rng), random_value(rng, depth - 1));
            }
            Value::Object(map)
        }
    }
}

/// Serialize a random document, then damage it per `mutation`.
fn document(seed: u64, mutation: u8) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let value = random_value(&mut rng, 4);
    let text = if rng.gen_bool(0.5) {
        serde_json::to_string(&value).unwrap()
    } else {
        serde_json::to_string_pretty(&value).unwrap()
    };
    let mut chars: Vec<char> = text.chars().collect();
    // Half the damage lands next to punctuation, where grammar mistakes
    // (a trailing comma, a missing colon) hide.
    let punctuation: Vec<usize> =
        (0..chars.len()).filter(|&i| "{}[]:,\"".contains(chars[i])).collect();
    let at = if rng.gen_bool(0.5) && !punctuation.is_empty() {
        punctuation[rng.gen_range(0..punctuation.len())]
    } else {
        rng.gen_range(0..chars.len() + 1)
    };
    let noise = NOISE[rng.gen_range(0..NOISE.len())];
    match mutation {
        0 => {}
        1 if at < chars.len() => chars[at] = noise,
        2 if at < chars.len() => {
            chars.remove(at);
        }
        3 => chars.insert(at, noise),
        4 => chars.truncate(at),
        _ => {
            let pad = [" ", "\n\t", "x", "{}", "0"][rng.gen_range(0..5)];
            return if rng.gen_bool(0.5) {
                format!("{pad}{text}")
            } else {
                format!("{text}{pad}")
            };
        }
    }
    chars.into_iter().collect()
}

/// Check `span` against `expected`, the value `from_str` gave for it.
fn check(span: Span<'_>, expected: &Value) -> Result<(), String> {
    let reparsed = serde_json::from_str(span.text())
        .map_err(|e| format!("span {:?} does not re-parse: {e}", span.text()))?;
    if &reparsed != expected {
        return Err(format!(
            "span {:?} re-parses to {reparsed:?}, not {expected:?}",
            span.text()
        ));
    }
    if span.as_u64() != expected.as_u64() || span.as_bool() != expected.as_bool() {
        return Err(format!("scalar reads of {:?} disagree", span.text()));
    }
    match expected {
        Value::Array(items) => {
            let spans: Vec<Span<'_>> = span.items().ok_or("array has no items")?.collect();
            if spans.len() != items.len() {
                return Err(format!("{} items, expected {}", spans.len(), items.len()));
            }
            for (s, v) in spans.iter().zip(items) {
                check(*s, v)?;
            }
        }
        Value::Object(map) => {
            // Duplicate keys: the last member wins, as in `from_str`'s map.
            let mut last = std::collections::BTreeMap::new();
            for (k, v) in span.members().ok_or("object has no members")? {
                last.insert(k.decoded().into_owned(), v);
            }
            if !last.keys().eq(map.keys()) {
                return Err(format!("keys {:?}, expected {:?}", last.keys(), map.keys()));
            }
            for (k, v) in map {
                check(last[k], v)?;
                if span.get(k) != Some(last[k]) {
                    return Err(format!("get({k:?}) is not the last member"));
                }
            }
        }
        _ => {
            if span.items().is_some() || span.members().is_some() {
                return Err(format!("scalar {:?} iterates", span.text()));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn wire_agrees_with_from_str(seed in any::<u64>(), mutation in 0u8..6) {
        let text = document(seed, mutation);
        let theirs = serde_json::from_str(&text);
        let ours = wire::parse(&text);
        prop_assert_eq!(
            ours.is_ok(),
            theirs.is_ok(),
            "disagree on {:?}: wire {:?}, from_str {:?}", text, ours, theirs
        );
        if let (Ok(span), Ok(value)) = (ours, theirs) {
            let verdict = check(span, &value);
            prop_assert!(verdict.is_ok(), "{:?} on {:?}", verdict, text);
        }
    }
}
