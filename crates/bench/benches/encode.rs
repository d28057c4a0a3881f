//! Classify response encoding: the server writes the body straight into
//! one buffer (`ProcessedBatch::write_json`); `to_json` + `to_string`
//! builds the `Value` tree first, as the server did before.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mqo_core::QueryRecord;
use mqo_graph::{ClassId, NodeId};
use mqo_serve::ProcessedBatch;

/// A served batch of `n` records shaped like serve-hot's Cora answers.
fn batch(n: u32) -> ProcessedBatch {
    let records = (0..n)
        .map(|i| QueryRecord {
            node: NodeId(1_000 + 37 * i),
            predicted: ClassId((i % 7) as u16),
            correct: i % 3 != 0,
            neighbors_included: 4,
            labeled_neighbors: (i % 3) as usize,
            pseudo_neighbors: 0,
            remote_neighbors: 0,
            prompt_tokens: if i % 4 == 0 { 0 } else { 380 + 11 * i as u64 },
            pruned: false,
            parse_failed: false,
            budget_starved: false,
            failure: None,
        })
        .collect();
    ProcessedBatch {
        records,
        replayed: 0,
        billed_tokens: 1_210,
        trace: "00f1e2d3c4b5a697".into(),
        degraded: false,
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    for n in [4u32, 6] {
        let b = batch(n);
        group.bench_function(format!("write_json_{n}_records"), |bench| {
            bench.iter(|| {
                let mut out = String::with_capacity(160 + 320 * n as usize);
                black_box(&b).write_json(black_box("default"), &mut out);
                black_box(out)
            })
        });
        group.bench_function(format!("to_json_to_string_{n}_records"), |bench| {
            bench.iter(|| {
                let v = black_box(&b).to_json(black_box("default"));
                black_box(serde_json::to_string(&v).unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode);
criterion_main!(benches);
