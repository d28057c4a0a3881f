//! Simulated-LLM latency: the per-completion cost bounds how fast the
//! experiment harness can replay the paper's 1,000-query workloads.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mqo_core::predictor::{KhopRandom, Predictor, SelectCtx};
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_llm::{LanguageModel, ModelProfile, SimLlm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_complete(c: &mut Criterion) {
    let bundle = dataset(DatasetId::Cora, Some(0.5), 1);
    let tag = &bundle.tag;
    let llm =
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35());
    let labels = LabelStore::empty(tag.num_nodes());
    let exec = Executor::new(tag, &llm, 4, 1);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let ctx = SelectCtx { tag, labels: &labels, max_neighbors: 4 };
    let mut rng = StdRng::seed_from_u64(2);
    let v = mqo_graph::NodeId(3);
    let neighbors = predictor.select_neighbors(&ctx, v, &mut rng);
    let entries: Vec<_> = neighbors.iter().map(|&n| predictor.entry_for(&ctx, n)).collect();
    let t = tag.text(v);
    let prompt = mqo_llm::NodePromptSpec {
        title: &t.title,
        abstract_text: &t.body,
        neighbors: &entries,
        categories: tag.class_names(),
        ranked: false,
    }
    .render();

    c.bench_function("simllm_complete_one_prompt", |b| {
        b.iter(|| black_box(llm.complete(black_box(&prompt)).unwrap()))
    });

    let labels = LabelStore::empty(tag.num_nodes());
    let queries: Vec<mqo_graph::NodeId> = (0..100u32).map(mqo_graph::NodeId).collect();
    let mut group = c.benchmark_group("executor");
    group.sample_size(20);
    group.bench_function("run_100_queries_1hop", |b| {
        b.iter(|| black_box(exec.run_all(&predictor, &labels, &queries, |_| false).unwrap()))
    });
    for threads in [2usize, 4] {
        group.bench_function(format!("run_100_queries_1hop_{threads}threads"), |b| {
            b.iter(|| {
                black_box(
                    Scheduler::new(&exec, SchedulePolicy::Parallel { threads })
                        .run(&predictor, Labels::Fixed(&labels), &queries, |_| false)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_complete);
criterion_main!(benches);
