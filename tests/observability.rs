//! Cross-crate integration tests for the observability layer: causal span
//! nesting (run → round → query → llm_call / retry) on real pipeline
//! runs, the Chrome trace artifact, the live metrics endpoint mid-run,
//! exact token-cost reconciliation between the ledger and the usage
//! meter, and deterministic wall times under an injected clock.

use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::predictor::KhopRandom;
use mqo_core::{Executor, LabelStore, Labels, SchedulePolicy, Scheduler};
use mqo_data::{dataset, DatasetId};
use mqo_graph::{GraphBuilder, LabeledSplit, NodeId, NodeText, SplitConfig, Tag};
use mqo_llm::{
    CachedLlm, Completion, LanguageModel, ModelProfile, RetryingLlm, ScriptedLlm, SimLlm,
    ValidatingLlm,
};
use mqo_obs::{
    http_get, serve_metrics, ChromeTraceSink, Clock, CostLedger, Event, EventSink, Fanout,
    ManualClock, MetricsSink, MonotonicClock, Recorder, SpanId, Tee, Tracer,
};
use mqo_token::UsageMeter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A 5-node fixture: clique 0–1–2 (Alpha), node 3 (Beta), query node 4
/// bridging both.
fn bridge_tag() -> Tag {
    let mut b = GraphBuilder::new(5);
    for (u, v) in [(0, 1), (0, 2), (1, 2), (4, 0), (4, 3)] {
        b.add_edge(u, v).unwrap();
    }
    let texts = (0..5)
        .map(|i| NodeText::new(format!("paper {i}"), format!("body of paper {i}")))
        .collect();
    let labels = [0u16, 0, 0, 1, 0].map(mqo_graph::ClassId).to_vec();
    Tag::new("bridge", b.build(), texts, labels, vec!["Alpha".into(), "Beta".into()]).unwrap()
}

/// Span tree collected from recorded `span_enter` events: id → (name, parent).
fn span_tree(rec: &Recorder) -> HashMap<u64, (String, u64)> {
    rec.of_kind("span_enter")
        .into_iter()
        .map(|e| match e {
            Event::SpanEnter { id, parent, name, .. } => (id, (name, parent)),
            _ => unreachable!(),
        })
        .collect()
}

/// Names on the ancestor path of `id` (the span itself excluded).
fn ancestors(tree: &HashMap<u64, (String, u64)>, id: u64) -> Vec<String> {
    let mut names = Vec::new();
    let mut cur = tree[&id].1;
    while cur != 0 {
        let (name, parent) = &tree[&cur];
        names.push(name.clone());
        cur = *parent;
    }
    names
}

/// The acceptance scenario: a deterministic SimLLM boosting run under an
/// enabled tracer yields a causally correct span tree — every query inside
/// a round inside the run, every llm_call inside a query — and the Chrome
/// export is valid trace-event JSON carrying the same structure.
#[test]
fn boosted_run_produces_a_causal_span_tree_and_a_loadable_chrome_trace() {
    let bundle = dataset(DatasetId::Cora, Some(0.3), 11);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 30 },
        &mut StdRng::seed_from_u64(5),
    )
    .unwrap();
    let llm =
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35());
    let predictor = KhopRandom::new(1, tag.num_nodes());

    let chrome_path =
        std::env::temp_dir().join(format!("mqo_obs_trace_{}.json", std::process::id()));
    let chrome = ChromeTraceSink::create(&chrome_path).unwrap();
    let recorder = Recorder::new();
    let tee = Tee::new(&recorder, &chrome);
    let tracer = Tracer::new(Arc::new(MonotonicClock));

    let exec = Executor::new(tag, &llm, 4, 11).with_sink(&tee).with_tracer(&tracer);
    let run_span = tracer.span(&tee, "run", || "test run".into(), SpanId::NONE);
    exec.set_span_scope(run_span.id());
    let mut labels = LabelStore::from_split(tag, &split);
    let report = Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut labels), split.queries(), |_| false)
    .unwrap();
    let (out, rounds) = (report.outcome, report.rounds);
    drop(run_span);
    assert!(!rounds.is_empty());

    let tree = span_tree(&recorder);
    assert_eq!(recorder.of_kind("span_exit").len(), tree.len(), "every opened span must close");
    let count = |name: &str| tree.values().filter(|(n, _)| n == name).count();
    assert_eq!(count("run"), 1);
    assert_eq!(count("round"), rounds.len());
    assert_eq!(count("query"), out.records.len(), "one query span per executed query");
    assert_eq!(count("llm_call"), out.records.len());
    for (&id, (name, parent)) in &tree {
        let up = ancestors(&tree, id);
        match name.as_str() {
            "query" => {
                assert!(up.contains(&"round".to_string()), "query {id} outside rounds: {up:?}");
                assert!(up.contains(&"run".to_string()), "query {id} outside the run");
            }
            "llm_call" => {
                assert_eq!(tree[parent].0, "query", "llm_call {id} must parent to its query");
            }
            _ => {}
        }
    }

    // The Chrome artifact parses, carries the same spans as complete
    // events, and names at least the main-thread track.
    EventSink::flush(&chrome);
    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&chrome_path).unwrap()).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let complete: Vec<_> = events.iter().filter(|e| e["ph"].as_str() == Some("X")).collect();
    assert_eq!(complete.len(), tree.len());
    for ev in &complete {
        let parent = ev["args"]["parent"].as_u64().unwrap();
        if parent != 0 {
            assert!(
                complete.iter().any(|p| p["args"]["id"].as_u64() == Some(parent)),
                "parent {parent} missing from the export"
            );
        }
    }
    assert!(events
        .iter()
        .any(|e| e["ph"].as_str() == Some("M") && e["args"]["name"].as_str() == Some("main")));
    std::fs::remove_file(&chrome_path).ok();
}

/// Retries nest inside the query they belong to: a malformed first
/// response forces one re-attempt, whose `retry` span parents to the
/// `llm_call` span of the same query.
#[test]
fn retry_spans_nest_inside_their_query() {
    let tag = bridge_tag();
    let recorder = Arc::new(Recorder::new());
    let tracer = Arc::new(Tracer::new(Arc::new(MonotonicClock)));
    let scripted = ScriptedLlm::new(vec!["garbage", "Category: ['Alpha']"]);
    let llm =
        RetryingLlm::new(ValidatingLlm::new(scripted, vec!["Alpha".into(), "Beta".into()]), 3)
            .with_sink(recorder.clone())
            .with_tracer(tracer.clone());

    let exec = Executor::new(&tag, &llm, 4, 3).with_sink(&*recorder).with_tracer(&tracer);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let labels = LabelStore::empty(tag.num_nodes());
    let mut rng = exec.query_rng(NodeId(4));
    let rec = exec.run_one(&predictor, &labels, NodeId(4), &mut rng, false).unwrap();
    assert!(!rec.parse_failed);

    let tree = span_tree(&recorder);
    let (retry_id, _) = tree
        .iter()
        .find(|(_, (name, _))| name == "retry")
        .expect("the re-attempt must open a retry span");
    let up = ancestors(&tree, *retry_id);
    assert_eq!(up.first().map(String::as_str), Some("llm_call"));
    assert!(up.contains(&"query".to_string()), "retry outside its query: {up:?}");
}

/// A model wrapper that parks the run after the first completion until the
/// test releases it — the window in which `/metrics` and `/progress` are
/// scraped mid-run.
struct GatedLlm {
    inner: ScriptedLlm,
    state: Mutex<(u32, bool)>, // (completions, released)
    cv: Condvar,
}

impl GatedLlm {
    fn new(inner: ScriptedLlm) -> Self {
        GatedLlm { inner, state: Mutex::new((0, false)), cv: Condvar::new() }
    }

    fn wait_parked(&self) {
        let mut s = self.state.lock().unwrap();
        while s.0 < 2 {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

impl LanguageModel for GatedLlm {
    fn name(&self) -> &str {
        "gated"
    }
    fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        if s.0 == 2 {
            self.cv.notify_all();
            while !s.1 {
                s = self.cv.wait(s).unwrap();
            }
        }
        drop(s);
        self.inner.complete(prompt)
    }
    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

/// While a run is parked mid-flight, `GET /metrics` serves non-zero
/// Prometheus series and `GET /progress` reflects completed work; after a
/// boosting round both reflect the round count.
#[test]
fn live_endpoint_serves_metrics_and_progress_mid_run() {
    let tag = bridge_tag();
    let llm = GatedLlm::new(ScriptedLlm::new(vec!["Category: ['Alpha']"; 16]));
    let metrics = Arc::new(MetricsSink::new());
    let server = serve_metrics("127.0.0.1:0", metrics.clone()).unwrap();
    let exec = Executor::new(&tag, &llm, 4, 7).with_sink(&*metrics);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let labels = LabelStore::empty(tag.num_nodes());
    let queries = [NodeId(0), NodeId(1), NodeId(3), NodeId(4)];

    std::thread::scope(|s| {
        let handle =
            s.spawn(|| exec.run_all(&predictor, &labels, &queries, |_| false).unwrap());
        llm.wait_parked();
        // Query 1 finished, query 2 is parked inside the model: the scrape
        // must see exactly the completed work, live.
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("mqo_queries_total 1"), "mid-run scrape: {body}");
        assert!(body.contains("mqo_prompt_tokens_total"));
        // Fleet-identification series every scrape carries: which build
        // is running, and for how long.
        assert!(body.contains("mqo_build_info{version=\""), "build info: {body}");
        assert!(
            body.contains("mqo_build_info{") && body.contains("\"} 1"),
            "build info: {body}"
        );
        assert!(body.contains("mqo_uptime_seconds "), "uptime gauge: {body}");
        let (_, progress) = http_get(server.addr(), "/progress").unwrap();
        let p: serde_json::Value = serde_json::from_str(&progress).unwrap();
        assert_eq!(p["queries"].as_u64(), Some(1), "progress mid-run: {progress}");
        assert_eq!(p["rounds_completed"].as_u64(), Some(0));
        llm.release();
        handle.join().unwrap()
    });

    // A boosting round afterwards moves the round gauges.
    let mut labels = LabelStore::empty(tag.num_nodes());
    Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut labels), &[NodeId(4)], |_| false)
    .unwrap();
    let (_, progress) = http_get(server.addr(), "/progress").unwrap();
    let p: serde_json::Value = serde_json::from_str(&progress).unwrap();
    assert!(p["rounds_completed"].as_u64().unwrap() >= 1, "after boosting: {progress}");
    assert!(p["queries"].as_u64().unwrap() >= 5);
}

/// On a clean run (no retries, no parse recoveries) the ledger reconciles
/// *exactly* with the usage meter, per round and in total — the
/// conservation identity billed == rendered − pruned − cached − starved
/// with zero unattributed tokens.
#[test]
fn cost_ledger_reconciles_exactly_with_the_meter_under_boosting() {
    let bundle = dataset(DatasetId::Cora, Some(0.3), 13);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 40 },
        &mut StdRng::seed_from_u64(9),
    )
    .unwrap();
    let sim =
        SimLlm::new(bundle.lexicon.clone(), tag.class_names().to_vec(), ModelProfile::gpt35());
    let llm = CachedLlm::new(sim, 1024);
    let ledger = Arc::new(CostLedger::new());
    let fanout = Fanout::new();
    fanout.push(Arc::new(llm.round_invalidator()));
    fanout.push(ledger.clone());
    let exec = Executor::new(tag, &llm, 4, 13).with_sink(&fanout);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let mut labels = LabelStore::from_split(tag, &split);
    let report = Scheduler::new(
        &exec,
        SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 1,
            deterministic: true,
        },
    )
    .run(&predictor, Labels::Boosting(&mut labels), split.queries(), |_| false)
    .unwrap();
    let (out, rounds) = (report.outcome, report.rounds);

    let report = ledger.report();
    assert_eq!(report.rounds.len(), rounds.len(), "one ledger row per boosting round");
    assert_eq!(report.total.queries as usize, out.records.len());
    assert!(report.total.rendered_tokens > 0);
    for (i, round) in report.rounds.iter().enumerate() {
        assert!(round.conserves(), "round {i} violates conservation: {round:?}");
    }
    let meter_billed = llm.meter().totals().prompt_tokens;
    assert_eq!(report.total.billed_tokens, meter_billed, "ledger != meter");
    assert!(report.reconciles_with(meter_billed));
    assert_eq!(report.unattributed(meter_billed), 0);
}

/// Cache serves and budget starvation land in their own ledger buckets —
/// and the identity still reconciles exactly, because neither bucket ever
/// reaches the meter.
#[test]
fn cache_serves_and_starvation_fill_their_ledger_buckets() {
    let bundle = dataset(DatasetId::Cora, Some(0.3), 17);
    let tag = &bundle.tag;
    let split = LabeledSplit::generate(
        tag,
        SplitConfig::PerClass { per_class: 20, num_queries: 30 },
        &mut StdRng::seed_from_u64(2),
    )
    .unwrap();
    let labels = LabelStore::from_split(tag, &split);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let repeated: Vec<NodeId> = split.queries().repeat(2);

    // Serving-style workload: the second pass is served from cache, so the
    // saved tokens shift from `billed` to `cache_saved`.
    {
        let sim = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let llm = CachedLlm::new(sim, 1024);
        let ledger = CostLedger::new();
        let exec = Executor::new(tag, &llm, 4, 17).with_sink(&ledger);
        exec.run_all(&predictor, &labels, &repeated, |_| false).unwrap();
        let report = ledger.report();
        assert!(report.total.cache_saved_tokens > 0, "second pass must be served");
        let meter_billed = llm.meter().totals().prompt_tokens;
        assert!(report.reconciles_with(meter_billed), "cache serves break nothing");
        assert_eq!(
            report.total.billed_tokens + report.total.cache_saved_tokens,
            report.total.rendered_tokens - report.total.pruned_saved_tokens,
        );
    }

    // A hard budget at roughly a third of the unconstrained spend starves
    // the tail; starved prompts were never sent, so the meter agrees.
    {
        let sim = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let probe = Executor::new(tag, &sim, 4, 17);
        probe.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
        let unconstrained = sim.meter().totals().prompt_tokens;

        let sim = SimLlm::new(
            bundle.lexicon.clone(),
            tag.class_names().to_vec(),
            ModelProfile::gpt35(),
        );
        let ledger = CostLedger::new();
        let exec =
            Executor::new(tag, &sim, 4, 17).with_sink(&ledger).with_budget(unconstrained / 3);
        let out = exec.run_all(&predictor, &labels, split.queries(), |_| false).unwrap();
        assert!(out.budget_starved() > 0, "the budget must bite");
        let report = ledger.report();
        assert!(report.total.starved_tokens > 0);
        assert!(report.reconciles_with(sim.meter().totals().prompt_tokens));
    }
}

/// A clock wrapper advancing a [`ManualClock`] by a fixed amount per
/// completion, making `wall_micros` exactly reproducible.
struct SteppingLlm {
    inner: ScriptedLlm,
    clock: Arc<ManualClock>,
}

impl LanguageModel for SteppingLlm {
    fn name(&self) -> &str {
        "stepping"
    }
    fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
        self.clock.advance(7);
        self.inner.complete(prompt)
    }
    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

/// With an injected [`ManualClock`] every query reports the same exact
/// wall time — timing telemetry is deterministic under test.
#[test]
fn manual_clock_makes_query_wall_times_deterministic() {
    let tag = bridge_tag();
    let clock = Arc::new(ManualClock::new());
    let llm = SteppingLlm {
        inner: ScriptedLlm::new(vec!["Category: ['Alpha']"; 8]),
        clock: clock.clone(),
    };
    let recorder = Recorder::new();
    let exec =
        Executor::new(&tag, &llm, 4, 5).with_sink(&recorder).with_clock(&*clock as &dyn Clock);
    let predictor = KhopRandom::new(1, tag.num_nodes());
    let labels = LabelStore::empty(tag.num_nodes());
    exec.run_all(&predictor, &labels, &[NodeId(0), NodeId(3), NodeId(4)], |_| false).unwrap();

    let executed = recorder.of_kind("query_executed");
    assert_eq!(executed.len(), 3);
    for e in executed {
        match e {
            Event::QueryExecuted { wall_micros, .. } => {
                assert_eq!(wall_micros, 7, "wall time is exactly the injected step")
            }
            _ => unreachable!(),
        }
    }
}
