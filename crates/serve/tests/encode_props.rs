//! The direct writers `mqo_core::journal::write_record` and
//! `ProcessedBatch::write_json` must write exactly the bytes
//! `serde_json::to_string` writes for the `Value` views they replace, on
//! any record: failure strings with quotes, backslashes, control
//! characters and non-ASCII text; empty record lists; empty and non-empty
//! traces and tenants.

use mqo_core::journal::{record_to_json_traced, write_record};
use mqo_core::QueryRecord;
use mqo_graph::{ClassId, NodeId};
use mqo_serve::ProcessedBatch;
use proptest::prelude::*;

/// Characters JSON escaping treats differently: quote, backslash, the
/// named escapes, other controls (`\u00XX`), DEL, and multi-byte text.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', ':', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', '\u{85}', '\u{2028}', 'é', '中', '🙂',
];

fn text(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..max)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn record() -> impl Strategy<Value = QueryRecord> {
    (
        (
            any::<u32>(),
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        (any::<usize>(), 0usize..64, 0usize..64, 0usize..64, any::<u64>()),
        (any::<bool>(), text(24)),
    )
        .prop_map(
            |(
                (node, predicted, correct, pruned, parse_failed, budget_starved),
                (neighbors_included, labeled, pseudo, remote, prompt_tokens),
                (failed, failure),
            )| QueryRecord {
                node: NodeId(node),
                predicted: ClassId(predicted),
                correct,
                neighbors_included,
                labeled_neighbors: labeled,
                pseudo_neighbors: pseudo,
                remote_neighbors: remote,
                prompt_tokens,
                pruned,
                parse_failed,
                budget_starved,
                failure: failed.then_some(failure),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_record_matches_the_value_view(rec in record(), trace in text(20)) {
        let mut out = String::from("prefix:");
        write_record(&rec, &trace, &mut out);
        let expected = serde_json::to_string(&record_to_json_traced(&rec, &trace)).unwrap();
        prop_assert_eq!(&out["prefix:".len()..], expected.as_str());
    }

    #[test]
    fn write_json_matches_the_value_view(
        records in prop::collection::vec(record(), 0..7),
        (replayed, billed_tokens, degraded) in (any::<u64>(), any::<u64>(), any::<bool>()),
        (tenant, trace) in (text(12), text(20)),
    ) {
        let batch = ProcessedBatch { records, replayed, billed_tokens, trace, degraded };
        let mut out = String::new();
        batch.write_json(&tenant, &mut out);
        prop_assert_eq!(out, serde_json::to_string(&batch.to_json(&tenant)).unwrap());
    }
}
