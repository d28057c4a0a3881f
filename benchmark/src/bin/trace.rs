//! Per-layer (traced) benchmark run; see `benchmark/README.md`.
//!
//! Reuses a workload's seed and request sequence and times calls into
//! each layer's public functions from here, adding nothing to the
//! program: the serve path is replayed in-process over a loopback
//! socket (framing, decode, admission, engine, encode, write), the
//! executor and LLM client stack run under timing wrappers at the
//! `LanguageModel` seam, scheduler work is summed through an
//! `EventSink`, and routing overhead is measured against live `mqo`
//! processes. Spans stay in memory and are written at exit as a Chrome
//! trace to `<work>/trace-<workload>.json`.

use mqo_benchmark::cli::{self, USAGE};
use mqo_benchmark::e2e::{
    classify_job, get_json, start, start_cluster, Ctx, System, CLIENT_THREADS,
};
use mqo_benchmark::http::{encode_request, read_response, Client};
use mqo_benchmark::inputs;
use mqo_benchmark::load::Load;
use mqo_benchmark::procfs::{self_cpu_micros, status_kb, threads_cpu_nanos};
use mqo_benchmark::report::{provenance, publish, Outcome};
use mqo_benchmark::stats::median;
use mqo_benchmark::workload::{classify_body, picks, scan, Dataset, Kind, Scanned, Workload};
use mqo_core::boosting::{BoostConfig, DegradePolicy};
use mqo_core::{
    Executor, KhopRandom, LabelStore, Labels, QueryRecord, SchedulePolicy, Scheduler,
};
use mqo_data::{persist, DatasetBundle, DatasetId};
use mqo_fault::{FaultSchedule, FaultyLlm};
use mqo_graph::{LabeledSplit, NodeId, SplitConfig};
use mqo_llm::{
    CachedLlm, Completion, LanguageModel, LenientLlm, ModelProfile, ResilienceConfig,
    ResilientLlm, RetryingLlm, SimLlm, ValidatingLlm,
};
use mqo_obs::httpd::{HttpConnection, ReadOutcome, Request};
use mqo_obs::{
    spans_from_events, Clock, Event, EventSink, Fanout, FlightEntry, MonotonicClock, Recorder,
    Tee, Tracer, WaitClock, MONOTONIC_CLOCK,
};
use mqo_serve::{Admit, Engine, OverloadConfig, OverloadControl, ServeConfig};
use mqo_shard::{extract_shard, partition, PartitionStrategy, ShardBundle, ShardMap};
use mqo_token::{Tokenizer, UsageMeter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// The seed `mqo serve` uses when given none; the replay engine and the
/// serve-side executor use it too, so their splits match the server's.
const SERVE_SEED: u64 = 42;
/// Requests replayed per traced run (capped at the workload's own
/// request count).
const TRACE_REQUESTS: f64 = 20_000.0;
/// Prompts re-sent through the cache to time its hit path.
const HIT_PROBES: usize = 200;
/// The tenant every benchmark request runs as.
const TENANT: &str = "default";

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------------
// Spans

/// One timed interval.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder. When off, `time` runs its closure without
/// reading the clock: the untraced half of the replay.
struct Spans {
    epoch: Instant,
    on: bool,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { epoch: Instant::now(), on: true, list: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now();
        self.list.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        Some(self.list.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.list[i].end_ns = self.now();
        }
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Total self time (duration minus the part its child spans cover)
    /// per span name, in nanoseconds.
    fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.list.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.list {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.list.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Chrome trace-event format: complete events in microseconds.
    fn chrome(&self) -> Value {
        let events: Vec<Value> = self
            .list
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": s.start_ns as f64 / 1e3,
                    "dur": (s.end_ns - s.start_ns) as f64 / 1e3,
                    "args": {"id": i, "parent": s.parent, "request": s.request},
                })
            })
            .collect();
        json!({"traceEvents": events})
    }
}

// ---------------------------------------------------------------------
// Seams: a timing `LanguageModel` wrapper and an event collector.

/// Times every `complete` of the wrapped client.
struct Timed<L> {
    inner: L,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<L> Timed<L> {
    fn new(inner: L) -> Timed<L> {
        Timed { inner, calls: AtomicU64::new(0), nanos: AtomicU64::new(0) }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn micros(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e3
    }
}

impl<L: LanguageModel> LanguageModel for Timed<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> mqo_llm::Result<Completion> {
        let t = Instant::now();
        let out = self.inner.complete(prompt);
        self.nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn meter(&self) -> &UsageMeter {
        self.inner.meter()
    }
}

/// Sums `QueryExecuted` wall time. `observing` mirrors whether the
/// program's own sinks observe (serve: yes; a batch run without
/// telemetry flags: no), so the executor does the optional work it does
/// in the program.
struct Collect {
    observing: bool,
    wall_micros: AtomicU64,
}

impl EventSink for Collect {
    fn emit(&self, event: &Event) {
        if let Event::QueryExecuted { wall_micros, .. } = event {
            self.wall_micros.fetch_add(*wall_micros, Ordering::Relaxed);
        }
    }

    fn observing(&self) -> bool {
        self.observing
    }
}

type Inner = LenientLlm<RetryingLlm<ValidatingLlm<ResilientLlm<FaultyLlm<SimLlm>>>>>;

/// The client stack `mqo` builds, with a timing wrapper above the cache
/// (every lookup) and one below it (misses only).
type Stack = Timed<CachedLlm<Timed<Inner>>>;

/// Build the stack as `mqo serve` does (`sink` and tracer on every
/// layer) or as `mqo classify` does without telemetry flags (`None`).
fn build_stack(
    bundle: &DatasetBundle,
    seed: u64,
    sink: Option<&Arc<Fanout>>,
    tracer: &Arc<Tracer>,
) -> Stack {
    let wait: Arc<dyn WaitClock> = Arc::new(MonotonicClock);
    let names = bundle.tag.class_names().to_vec();
    let sim = SimLlm::new(bundle.lexicon.clone(), names.clone(), ModelProfile::gpt35());
    let mut faulty = FaultyLlm::new(sim, FaultSchedule::clean(), wait.clone());
    if let Some(s) = sink {
        faulty = faulty.with_sink(s.clone());
    }
    let cfg = ResilienceConfig { seed, ..ResilienceConfig::default() };
    let mut resilient = ResilientLlm::new(faulty, cfg, wait);
    let mut retrying;
    if let Some(s) = sink {
        resilient = resilient.with_sink(s.clone()).with_tracer(tracer.clone());
        retrying = RetryingLlm::new(ValidatingLlm::new(resilient, names), 3);
        retrying = retrying.with_sink(s.clone()).with_tracer(tracer.clone());
    } else {
        retrying = RetryingLlm::new(ValidatingLlm::new(resilient, names), 3);
    }
    let stack = Timed::new(CachedLlm::new(Timed::new(LenientLlm::new(retrying)), 4096));
    if let Some(s) = sink {
        stack.meter().attach_sink(s.clone());
    }
    stack
}

fn split_for(bundle: &DatasetBundle, queries: usize, seed: u64) -> io::Result<LabeledSplit> {
    let cfg = match bundle.spec.split {
        SplitConfig::PerClass { per_class, .. } => {
            SplitConfig::PerClass { per_class, num_queries: queries }
        }
        SplitConfig::Fraction { labeled_fraction, .. } => {
            SplitConfig::Fraction { labeled_fraction, num_queries: queries }
        }
    };
    LabeledSplit::generate(&bundle.tag, cfg, &mut StdRng::seed_from_u64(seed)).map_err(other)
}

fn rss_kb() -> io::Result<u64> {
    status_kb(None, "VmRSS")
}

fn dataset_id(d: Dataset) -> DatasetId {
    match d {
        Dataset::Cora => DatasetId::Cora,
        Dataset::Products => DatasetId::OgbnProducts,
    }
}

fn max_neighbors(d: Dataset) -> usize {
    match d {
        Dataset::Cora => 4,
        Dataset::Products => 10,
    }
}

fn clean(r: &QueryRecord) -> bool {
    r.failure.is_none() && !r.parse_failed && !r.budget_starved
}

// ---------------------------------------------------------------------
// The serve path, replayed in-process.

/// What the replay measured.
#[derive(Default)]
struct Replay {
    /// Client-side latency (write to full response) of traced and of
    /// untraced requests, microseconds.
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    /// Σ layer span time per traced request, microseconds.
    layers_us: Vec<f64>,
    queries: u64,
    failures: u64,
}

/// Decode a classify body the way the server does: JSON parse, then
/// every id through `Engine::resolve_node`.
fn decode(req: &Request, engine: &Engine) -> Result<Vec<NodeId>, String> {
    let body: Value = serde_json::from_str(req.body_utf8()).map_err(|e| e.to_string())?;
    let list = body["nodes"].as_array().ok_or("no 'nodes' array")?;
    list.iter().map(|n| engine.resolve_node(n.as_u64().ok_or("non-integer node")?)).collect()
}

/// Replay requests `0..n` of workload `w` through the serve layers over
/// a loopback socket, one at a time. Even requests are traced, odd ones
/// are not; the difference between the two halves' latencies is what
/// tracing costs.
fn replay(
    engine: &Engine,
    w: &Workload,
    seed: u64,
    n: u64,
    spans: &mut Spans,
    out: &mut Outcome,
) -> io::Result<Replay> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let mut reader = BufReader::new(client.try_clone()?);
    let mut conn = HttpConnection::new(listener.accept()?.0)?;
    let overload = OverloadControl::new(OverloadConfig::default(), 32);
    let nodes = engine.num_nodes() as u32;
    let mut r = Replay::default();
    let (mut req, mut ids, mut body, mut raw) =
        (Request::default(), Vec::new(), Vec::new(), Vec::new());
    let (mut line, mut resp, mut scanned) = (String::new(), Vec::new(), Scanned::default());
    for i in 0..n {
        picks(seed, i, w.batch, nodes, &mut ids);
        classify_body(&ids, &mut body);
        encode_request(&mut raw, "replay", "POST", "/v1/classify", &body);
        spans.on = i % 2 == 0;
        let sent = Instant::now();
        client.write_all(&raw)?;
        let root = spans.open("request", None, i);
        let started = MONOTONIC_CLOCK.now_micros();
        match spans.time("obs.httpd.read", root, i, || conn.read_request(&mut req))? {
            ReadOutcome::Request => {}
            ReadOutcome::Closed => return Err(other("replay connection closed")),
        }
        let (trace, nodes_v) =
            spans.time("serve.decode", root, i, || (engine.mint_trace(), decode(&req, engine)));
        let nodes_v = nodes_v.map_err(other)?;
        spans
            .time("serve.admit", root, i, || {
                let now = MONOTONIC_CLOCK.now_micros();
                let admitted = engine.admit(TENANT).is_ok()
                    && matches!(overload.admit(TENANT, 0, now), Admit::Ok);
                overload.note_sojourn(0, now);
                let _ = overload.brownout(now);
                admitted
            })
            .then_some(())
            .ok_or_else(|| other("replay request refused at admission"))?;
        let collector = Recorder::with_capacity(4096);
        let admitted_at = MONOTONIC_CLOCK.now_micros();
        let batch = spans.time("serve.process", root, i, || {
            let tee = Tee::new(engine.fanout(), &collector);
            let _span = engine.tracer().span(
                &tee,
                "request",
                || format!("replay {i}"),
                engine.run_scope(),
            );
            engine.process_traced(&nodes_v, TENANT, &trace, Some(&collector))
        });
        spans.time("serve.admit", root, i, || {
            overload.note_service(MONOTONIC_CLOCK.now_micros().saturating_sub(admitted_at));
            overload.release(TENANT);
            engine.count_request();
        });
        let text = spans.time("serve.encode", root, i, || {
            let mut t = serde_json::to_string(&batch.to_json(TENANT)).expect("response json");
            t.push('\n');
            t
        });
        spans.time("obs.httpd.write", root, i, || {
            conn.respond_with_headers(
                "200 OK",
                "application/json",
                &[("x-mqo-trace-id", trace.clone())],
                &text,
            )
        })?;
        spans.time("serve.finish", root, i, || {
            let latency = MONOTONIC_CLOCK.now_micros().saturating_sub(started);
            engine.observe_http("/v1/classify", TENANT, 200, latency);
            engine.slo().observe(TENANT, 200, latency);
            engine.flight().offer(FlightEntry {
                trace: trace.clone(),
                tenant: TENANT.to_string(),
                route: "/v1/classify".to_string(),
                status: 200,
                latency_micros: latency,
                started_micros: started,
                request_summary: String::new(),
                response_summary: String::new(),
                spans: spans_from_events(&collector.events()),
            });
        });
        spans.close(root);
        let (status, _) = read_response(&mut reader, &mut line, &mut resp)?;
        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
        out.check(status == 200, || format!("replay request {i}: status {status}"));
        scan(&resp, &mut scanned).map_err(other)?;
        let asked = ids.iter().map(|&v| u64::from(v));
        out.check(scanned.nodes.iter().copied().eq(asked), || {
            format!("replay request {i}: asked for {ids:?}, records name {:?}", scanned.nodes)
        });
        r.queries += ids.len() as u64;
        r.failures += scanned.failures;
        if let Some(root) = root {
            let children: u64 = spans.list[root + 1..]
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            r.layers_us.push(children as f64 / 1e3);
            r.traced_us.push(latency_us);
        } else {
            r.untraced_us.push(latency_us);
        }
    }
    spans.on = true;
    Ok(r)
}

// ---------------------------------------------------------------------
// The executor, LLM stack, cache and scheduler.

/// What the executor phase measured.
struct Exec {
    queries: u64,
    /// Σ `QueryExecuted` wall time, microseconds.
    query_wall_us: f64,
    /// Wall time of the scheduler runs, seconds.
    run_s: f64,
    threads: f64,
}

/// Run the workload's queries through `Executor` + `Scheduler` on the
/// benchmark's timing stack: FIFO per request with the serve engine's
/// seed and split for serve workloads, the batch job's boosted
/// cue-gated run (2 threads, deterministic waves) for `batch-boost`.
fn exec_phase(
    bundle: &DatasetBundle,
    w: &Workload,
    seed: u64,
    n: u64,
    batch_queries: u64,
    out: &mut Outcome,
) -> io::Result<Exec> {
    let is_batch = w.kind == Kind::Batch;
    let exec_seed = if is_batch { seed } else { SERVE_SEED };
    let collect = Arc::new(Collect { observing: !is_batch, wall_micros: AtomicU64::new(0) });
    let fanout = Arc::new(Fanout::new());
    fanout.push(collect.clone());
    let tracer = Arc::new(if is_batch {
        Tracer::disabled()
    } else {
        Tracer::new(Arc::new(MonotonicClock))
    });
    let llm = build_stack(bundle, exec_seed, (!is_batch).then_some(&fanout), &tracer);
    if is_batch {
        // `mqo classify` advances the cache epoch on every boosting round.
        fanout.push(Arc::new(llm.inner.round_invalidator()));
    }
    let exec = Executor::new(&bundle.tag, &llm, max_neighbors(w.dataset), exec_seed)
        .with_sink(&*fanout)
        .with_tracer(&tracer)
        .with_degrade();
    let predictor = KhopRandom::new(1, bundle.tag.num_nodes());

    let started = Instant::now();
    let (labels, queried, records, waves, threads) = if is_batch {
        let split = split_for(bundle, batch_queries as usize, seed)?;
        let mut labels = LabelStore::from_split(&bundle.tag, &split);
        let policy = SchedulePolicy::CueGated {
            config: BoostConfig::default(),
            policy: DegradePolicy::default(),
            threads: 2,
            deterministic: true,
        };
        let report = Scheduler::new(&exec, policy)
            .run(&predictor, Labels::Boosting(&mut labels), split.queries(), |_| false)
            .map_err(other)?;
        (labels, split.queries().to_vec(), report.outcome.records, report.rounds.len(), 2.0)
    } else {
        let split = split_for(bundle, 200, SERVE_SEED)?;
        let mut labels = LabelStore::from_split(&bundle.tag, &split);
        let (mut records, mut queried, mut ids) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..n {
            picks(seed, i, w.batch, bundle.tag.num_nodes() as u32, &mut ids);
            let nodes: Vec<NodeId> = ids.iter().map(|&v| NodeId(v)).collect();
            let report = Scheduler::new(&exec, SchedulePolicy::Fifo)
                .run(&predictor, Labels::Fixed(&labels), &nodes, |_| false)
                .map_err(other)?;
            if w.boost {
                for rec in report.outcome.records.iter().filter(|r| clean(r)) {
                    labels.add_pseudo(rec.node, rec.predicted);
                }
            }
            queried.extend(nodes);
            records.extend(report.outcome.records);
        }
        (labels, queried, records, 0, 1.0)
    };
    let run_s = started.elapsed().as_secs_f64();
    let q = records.len() as u64;
    out.check(q == queried.len() as u64, || {
        format!("executor returned {q} records for {} queries", queried.len())
    });
    let failures = records.iter().filter(|r| r.failure.is_some()).count() as u64;
    out.failed += failures;
    out.attempted += q;
    let qf = q.max(1) as f64;
    let query_wall_us = collect.wall_micros.load(Ordering::Relaxed) as f64;
    let below_cache = llm.inner.inner();
    out.metric("core.executor.self_us", "us", (query_wall_us - llm.micros()) / qf);
    out.metric(
        "llm.complete_us",
        "us",
        below_cache.micros() / below_cache.calls().max(1) as f64,
    );
    out.metric("llm.calls_per_query", "count", llm.meter().totals().requests as f64 / qf);
    let cache = llm.inner.stats();
    out.metric("cache.serve_rate", "fraction", cache.serve_rate());
    out.metric("cache.evictions_per_query", "count", cache.cache.evictions as f64 / qf);
    out.metric("core.sched.waves", "count", waves as f64);
    out.metric("core.sched.busy_share", "fraction", query_wall_us / (threads * run_s * 1e6));
    let boosted = records.iter().filter(|r| r.pseudo_neighbors > 0).count();
    out.metric("core.sched.boosted_share", "fraction", boosted as f64 / qf);

    // Render and tokenize each queried prompt once more, outside the
    // run, to time those two steps on their own.
    let (mut render_ns, mut count_ns, mut tokens) = (0u64, 0u64, 0u64);
    let mut prompts = Vec::new();
    let probe = &queried[..queried.len().min(TRACE_REQUESTS as usize)];
    for &v in probe {
        let mut rng = exec.query_rng(v);
        let t = Instant::now();
        let prompt = exec.render_for_estimate(&predictor, &labels, v, &mut rng, false);
        render_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        tokens += std::hint::black_box(Tokenizer.count(&prompt)) as u64;
        count_ns += t.elapsed().as_nanos() as u64;
        if prompts.len() < HIT_PROBES {
            prompts.push(prompt);
        }
    }
    let pn = probe.len().max(1) as f64;
    out.metric("core.executor.render_us", "us", render_ns as f64 / 1e3 / pn);
    out.metric("token.count_us", "us", count_ns as f64 / 1e3 / pn);
    out.metric("token.prompt_tokens", "tokens", tokens as f64 / pn);
    // The second `complete` of a prompt is always served by the cache.
    let mut hit_ns = 0u64;
    for p in &prompts {
        llm.inner.complete(p).map_err(other)?;
        let t = Instant::now();
        llm.inner.complete(p).map_err(other)?;
        hit_ns += t.elapsed().as_nanos() as u64;
    }
    out.metric("cache.hit_us", "us", hit_ns as f64 / 1e3 / prompts.len().max(1) as f64);
    Ok(Exec { queries: q, query_wall_us, run_s, threads })
}

// ---------------------------------------------------------------------
// Live processes: an untraced pass for the coverage baseline, and the
// router measured against direct requests to the owning workers.

/// Sum of a Prometheus counter family over all its label sets.
fn prom_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(family).is_some_and(|r| r.starts_with('{') || r.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

fn router_metrics(router: std::net::SocketAddr) -> io::Result<String> {
    let (status, body) = Client::new(router).get("/metrics")?;
    (status == 200).then_some(body).ok_or_else(|| other("router /metrics failed"))
}

/// Requests `first..first+2n` through a live cluster, alternating: even
/// ones through the router, odd ones split by `ShardMap::owner` and sent
/// straight to the owning workers one after another. Routing overhead
/// is the difference of the two medians.
fn router_probe(
    cluster: &System,
    map: &ShardMap,
    w: &Workload,
    seed: u64,
    first: u64,
    n: u64,
    out: &mut Outcome,
) -> io::Result<()> {
    let nodes = map.num_nodes();
    let mut router = Client::new(cluster.addr);
    let mut workers: Vec<Client> = cluster.workers.iter().map(|&a| Client::new(a)).collect();
    let router_pid = cluster.procs.last().expect("router process").pid();
    let (mut ids, mut body, mut scanned) = (Vec::new(), Vec::new(), Scanned::default());
    let (mut routed_us, mut direct_us) = (Vec::new(), Vec::new());
    let before = router_metrics(cluster.addr)?;
    let cpu0 = threads_cpu_nanos(router_pid)?;
    for i in 0..n {
        let index = first + 2 * i;
        picks(seed, index, w.batch, nodes, &mut ids);
        classify_body(&ids, &mut body);
        let t = Instant::now();
        let status = router.request("POST", "/v1/classify", &body)?;
        routed_us.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(status == 200, || format!("routed probe {index}: status {status}"));
        scan(&router.body, &mut scanned).map_err(other)?;
        out.check(scanned.nodes.len() == ids.len(), || format!("routed probe {index}: short"));

        picks(seed, index + 1, w.batch, nodes, &mut ids);
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for &v in &ids {
            let owner = map.owner(v);
            match groups.iter_mut().find(|(s, _)| *s == owner) {
                Some((_, g)) => g.push(v),
                None => groups.push((owner, vec![v])),
            }
        }
        let t = Instant::now();
        for (owner, group) in &groups {
            classify_body(group, &mut body);
            let status = workers[*owner as usize].request("POST", "/v1/classify", &body)?;
            out.check(status == 200, || format!("direct probe {}: status {status}", index + 1));
        }
        direct_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let router_cpu_us = threads_cpu_nanos(router_pid)?.saturating_sub(cpu0) as f64 / 1e3;
    let after = router_metrics(cluster.addr)?;
    let delta = |family: &str| prom_sum(&after, family) - prom_sum(&before, family);
    let routed_queries = (n * w.batch as u64) as f64;
    out.metric("shard.router.overhead_us", "us", median(&routed_us) - median(&direct_us));
    out.metric(
        "shard.router.fanout",
        "count",
        delta("mqo_shard_routed_requests_total") / n as f64,
    );
    out.metric("shard.router.cpu_us_per_query", "us", router_cpu_us / routed_queries);
    out.metric(
        "shard.exchange.labels_per_query",
        "count",
        delta("mqo_shard_labels_forwarded_total") / routed_queries,
    );
    out.attempted += 2 * n * w.batch as u64;
    Ok(())
}

/// Untraced closed-loop pass against a live target: median latency
/// (microseconds) and the load generator's own CPU per query.
fn live_pass(load: &mut Load, n: u64, out: &mut Outcome) -> (f64, f64) {
    let cpu0 = self_cpu_micros();
    let tally = load.drive(0..n);
    let cpu = self_cpu_micros().saturating_sub(cpu0) as f64;
    out.violations.extend(tally.violations.iter().cloned());
    out.attempted += n * load.batch as u64;
    out.failed += tally.lost_nodes + tally.failures;
    let p50_us = if tally.latencies_ms.is_empty() {
        f64::NAN
    } else {
        median(&tally.latencies_ms) * 1e3
    };
    (p50_us, cpu / (n * load.batch as u64).max(1) as f64)
}

// ---------------------------------------------------------------------

fn traced(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    std::fs::create_dir_all(ctx.work.join("run"))?;
    std::fs::create_dir_all(ctx.work.join("logs"))?;
    let measured = w.measured(seconds, ctx.size);
    let n = ((TRACE_REQUESTS * ctx.size) as u64).min(w.warmup(ctx.size) + measured).max(2);
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let file = ctx.inputs.data(w.dataset);
    let shards = ctx.inputs.shards(w.dataset);
    let spec = dataset_id(w.dataset).spec();
    let cfg = ServeConfig { boost: w.boost, ..ServeConfig::default() };

    // Set-up layers: dataset load, engine build, shard bundle load.
    let phase = spans.open("phase.setup", None, 0);
    let rss0 = rss_kb()?;
    let t = Instant::now();
    let bundle = persist::load(file, spec.clone()).map_err(other)?;
    out.metric("data.load_s", "s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let engine = Engine::new(bundle, cfg.clone()).map_err(other)?;
    out.metric("serve.engine.new_s", "s", t.elapsed().as_secs_f64());
    let rss1 = rss_kb()?;
    out.metric("serve.engine.rss_mb", "MiB", rss1.saturating_sub(rss0) as f64 / 1024.0);
    let t = Instant::now();
    let map = ShardMap::load(shards.join("shard-map.bin")).map_err(other)?;
    let sb = ShardBundle::load(shards.join("shard-0.bin"), spec.clone()).map_err(other)?;
    let sharded = Engine::new_sharded(sb, map.clone(), cfg).map_err(other)?;
    out.metric("shard.bundle.load_s", "s", t.elapsed().as_secs_f64());
    out.metric("shard.bundle.rss_mb", "MiB", rss_kb()?.saturating_sub(rss1) as f64 / 1024.0);
    drop(sharded);
    spans.close(phase);

    // The serve path.
    let phase = spans.open("phase.replay", None, 0);
    let rss_before = rss_kb()?;
    let r = replay(&engine, w, seed, n, &mut spans, &mut out)?;
    let growth = rss_kb()?.saturating_sub(rss_before) as f64 / n as f64;
    spans.close(phase);
    drop(engine);
    out.attempted += r.queries;
    out.failed += r.failures;
    let traced_requests = r.traced_us.len().max(1) as f64;
    let by_name = spans.self_ns_by_name();
    let per_request_us =
        |name: &str| by_name.get(name).copied().unwrap_or(0) as f64 / 1e3 / traced_requests;
    out.metric("obs.httpd.read_us", "us", per_request_us("obs.httpd.read"));
    out.metric("obs.httpd.write_us", "us", per_request_us("obs.httpd.write"));
    out.metric("serve.decode_us", "us", per_request_us("serve.decode"));
    out.metric("serve.admit_us", "us", per_request_us("serve.admit"));
    out.metric(
        "serve.process_us_per_query",
        "us",
        per_request_us("serve.process") / w.batch as f64,
    );
    out.metric("serve.encode_us", "us", per_request_us("serve.encode"));
    out.metric("serve.finish_us", "us", per_request_us("serve.finish"));
    out.metric("serve.rss_growth_kb_per_request", "kB", growth);

    // Executor, LLM stack, cache, scheduler; then the partitioner.
    let phase = spans.open("phase.exec", None, 0);
    let bundle = persist::load(file, spec).map_err(other)?;
    let e = exec_phase(&bundle, w, seed, n, measured, &mut out)?;
    let t = Instant::now();
    let cut = partition(bundle.tag.graph(), 2, SERVE_SEED, PartitionStrategy::EdgeCut);
    for s in 0..2 {
        std::hint::black_box(extract_shard(&bundle, &cut, s));
    }
    out.metric("shard.partition_s", "s", t.elapsed().as_secs_f64());
    drop((cut, bundle));
    spans.close(phase);

    // Live processes.
    let phase = spans.open("phase.live", None, 0);
    let n_live = (n / 2).max(1);
    let n_probe = (n / 8).max(1);
    let client_cpu = if w.kind == Kind::Batch {
        let cpu0 = self_cpu_micros();
        let job = classify_job(ctx, file, measured, seed)?;
        out.attempted += measured;
        out.metric(
            "trace.coverage",
            "fraction",
            e.query_wall_us / (e.threads * job.run_s * 1e6),
        );
        out.metric("trace.overhead_pct", "%", (e.run_s - job.run_s) / job.run_s * 100.0);
        self_cpu_micros().saturating_sub(cpu0) as f64 / measured as f64
    } else {
        let (system, _) = start(ctx, w)?;
        let nodes = get_json(system.addr, "/v1/stats")?.1["nodes"].as_u64().unwrap_or(0) as u32;
        let mut load = Load::new(system.addr, seed, w.batch, nodes, CLIENT_THREADS);
        let (live_p50_us, cpu) = live_pass(&mut load, n_live, &mut out);
        system.stop();
        out.metric("trace.coverage", "fraction", median(&r.layers_us) / live_p50_us);
        let (traced, untraced) = (median(&r.traced_us), median(&r.untraced_us));
        out.metric("trace.overhead_pct", "%", (traced - untraced) / untraced * 100.0);
        cpu
    };
    out.metric("benchmark.client.cpu_us_per_query", "us", client_cpu);
    let (cluster, _) = start_cluster(ctx, shards, w.boost)?;
    router_probe(&cluster, &map, w, seed, n_live, n_probe, &mut out)?;
    cluster.stop();
    spans.close(phase);
    out.detail(
        "trace_requests",
        json!({"replayed": n, "live": n_live, "router_probe": n_probe}),
    );
    out.detail("executor_queries", json!(e.queries));

    let path = ctx.work.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, serde_json::to_string(&spans.chrome()).expect("trace json"))?;
    eprintln!("chrome trace     : {}", path.display());
    Ok(out)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) if a.trace && a.runs.is_none() => a,
        Ok(_) => {
            eprintln!("error: this binary makes traced runs only (--trace 1), without --runs");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = match inputs::prepare(&args.mqo, &args.work, args.products_scale()) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: cannot prepare inputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = Ctx { mqo: args.mqo.clone(), work: args.work.clone(), inputs, size: args.size() };
    let mut ok = true;
    for w in &args.workloads {
        let started = SystemTime::now();
        match traced(&ctx, w, args.seed, args.seconds) {
            Ok(outcome) => {
                let prov = provenance(&ctx.mqo, args.seed, started);
                match publish(&ctx.work, w.name, true, prov, &outcome) {
                    Ok(correct) => ok &= correct,
                    Err(e) => {
                        eprintln!("error: cannot write results: {e}");
                        ok = false;
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
