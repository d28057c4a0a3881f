//! The classification engine behind the HTTP surface.
//!
//! An [`Engine`] holds one TAG and the pieces [`crate::run`] assembles
//! for every run — labeled split, predictor, neighbor cap, the
//! [`ClientStack`], the journal — then answers classification batches
//! from any number of connection handlers. Every query runs through the
//! same [`mqo_core::Executor`] as the batch CLI: same per-node RNG
//! derivation, same Eq. 2 budget enforcement, same telemetry events,
//! same journal format. That sharing is what
//! makes served responses bit-identical to a batch run of the same
//! nodes (with the order-dependent optimizations, boosting and the
//! response cache, off), and what lets a drained server resume
//! billing-free from its journal.

use crate::config::ServeConfig;
use crate::run::{self, ClientStack, StackConfig};
use crate::shard::{peak_rss_mb, OutboundLabel, ShardContext};
use crate::shed::{SHED_SATURATED, SHED_SOJOURN, SHED_TENANT_SHARE};
use crate::tenant::{TenantExhausted, TenantTable};
use mqo_core::journal::{record_to_json, write_record, RunHeader, RunJournal};
use mqo_core::predictor::Predictor;
use mqo_core::{Executor, LabelStore, Labels, QueryRecord, SchedulePolicy, Scheduler};
use mqo_data::DatasetBundle;
use mqo_graph::{ClassId, NodeId};
use mqo_llm::{CachedLlmStats, LanguageModel, ModelProfile};
use mqo_obs::splitmix64;
use mqo_obs::wire::escape_json;
use mqo_obs::{
    ChromeTraceSink, CostLedger, Counter, CounterVec, Event, EventSink, Fanout, FlightRecorder,
    HistogramVec, MetricsSink, MonotonicClock, SloConfig, SloTracker, SpanId, Tee, Tracer,
};
use mqo_shard::{ShardBundle, ShardMap};
use mqo_token::ledger::Totals;
use parking_lot::RwLock;
use serde_json::{json, Value};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Why a request was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The server is draining: no new work is admitted.
    Draining,
    /// The tenant's admission budget is exhausted.
    TenantExhausted(TenantExhausted),
}

/// Result of processing one admitted classification batch.
#[derive(Debug, Clone)]
pub struct ProcessedBatch {
    /// Per-node records, in request order — exactly the journal format.
    pub records: Vec<QueryRecord>,
    /// How many records were replayed from the journal (zero re-billing).
    pub replayed: u64,
    /// Prompt tokens recorded against the tenant for this batch.
    pub billed_tokens: u64,
    /// The request's trace id (empty when processed outside a traced
    /// request, e.g. from tests calling [`Engine::process`] directly).
    pub trace: String,
    /// Whether brown-out degraded this batch: every query ran with a
    /// pruned, neighbor-free prompt (Algorithm 1's top-τ% treatment).
    pub degraded: bool,
}

impl ProcessedBatch {
    /// Append the `POST /v1/classify` response body: byte for byte
    /// `serde_json::to_string(&self.to_json(tenant))`, written straight
    /// into `out` with each record through [`write_record`].
    pub fn write_json(&self, tenant: &str, out: &mut String) {
        let _ = write!(
            out,
            "{{\"billed_tokens\":{},\"degraded\":{},\"records\":[",
            self.billed_tokens, self.degraded
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_record(r, "", out);
        }
        let _ = write!(out, "],\"replayed\":{},\"tenant\":", self.replayed);
        escape_json(out, tenant);
        if !self.trace.is_empty() {
            out.push_str(",\"trace\":");
            escape_json(out, &self.trace);
        }
        out.push('}');
    }

    /// The response body as a [`Value`] tree, for tools and as the oracle
    /// [`write_json`](Self::write_json) is tested against; the server
    /// writes the bytes directly.
    pub fn to_json(&self, tenant: &str) -> Value {
        let mut v = json!({
            "tenant": tenant,
            "records": self.records.iter().map(record_to_json).collect::<Vec<_>>(),
            "replayed": self.replayed,
            "billed_tokens": self.billed_tokens,
            "degraded": self.degraded,
        });
        if !self.trace.is_empty() {
            if let Value::Object(o) = &mut v {
                o.insert("trace".into(), Value::String(self.trace.clone()));
            }
        }
        v
    }
}

/// The serving engine; see the module docs. Shared as `Arc<Engine>`
/// between the accept loop and the connection handlers.
pub struct Engine {
    bundle: DatasetBundle,
    predictor: Box<dyn Predictor>,
    llm: ClientStack,
    labels: RwLock<LabelStore>,
    journal: Option<RunJournal>,
    fanout: Arc<Fanout>,
    tracer: Arc<Tracer>,
    chrome: Option<Arc<ChromeTraceSink>>,
    ledger: Arc<CostLedger>,
    metrics: Arc<MetricsSink>,
    flight: FlightRecorder,
    slo: SloTracker,
    tenants: TenantTable,
    method: String,
    seed: u64,
    max_neighbors: usize,
    budget: Option<u64>,
    boost: bool,
    cache_cap: usize,
    // Monotone request counter feeding minted trace ids: the nth minted
    // id is a pure function of (seed, n), so a restarted server facing
    // the same request sequence mints the same ids and `--resume`
    // journals carry stable trace annotations.
    trace_counter: AtomicU64,
    run_scope: AtomicU64,
    draining: AtomicBool,
    drain_requested: AtomicBool,
    // Registry-backed counters double as /metrics series and /v1/stats
    // fields. Facts that an event already announces are counted once, by
    // the metrics sink; the last four fields read its series.
    requests_total: Arc<Counter>,
    queries_total: Arc<Counter>,
    rejected_tenant: Arc<Counter>,
    rejected_draining: Arc<Counter>,
    degraded_total: Arc<Counter>,
    replayed: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    shed_saturated: Arc<Counter>,
    shed_by_controller: [Arc<Counter>; 2],
    http_requests: Arc<CounterVec>,
    http_micros: Arc<HistogramVec>,
    // Present on shard workers only: identity, cluster map, and the
    // cross-shard pseudo-label outbox.
    shard: Option<ShardContext>,
    labels_received_total: Arc<Counter>,
}

impl Engine {
    /// Build the engine: labeled split, predictor, client stack,
    /// telemetry fanout, tenant table, and (optionally) the crash-safe
    /// journal — created fresh or resumed from a previous server's
    /// sealed journal, in which case already-answered nodes replay with
    /// zero re-billing.
    pub fn new(bundle: DatasetBundle, cfg: ServeConfig) -> Result<Engine, String> {
        let split = run::split(&bundle, cfg.split_queries, cfg.seed)?;
        let labels = LabelStore::from_split(&bundle.tag, &split);
        let predictor = run::make_predictor(&cfg.method, &bundle.tag)?;
        let max_neighbors = run::max_neighbors(&bundle);

        let metrics = Arc::new(MetricsSink::new());
        let ledger = Arc::new(CostLedger::new());
        let chrome = cfg
            .trace_chrome
            .as_ref()
            .map(ChromeTraceSink::create)
            .transpose()
            .map_err(|e| format!("cannot create chrome trace file: {e}"))?
            .map(Arc::new);
        // The tracer is always on while serving: every request carries a
        // span tree into the flight recorder whether or not a Chrome
        // trace file was requested (the file is the optional part).
        let tracer = Arc::new(Tracer::new(Arc::new(MonotonicClock)));
        let fanout = Arc::new(Fanout::new());
        fanout.push(metrics.clone());
        fanout.push(ledger.clone());
        if let Some(c) = &chrome {
            fanout.push(c.clone());
        }
        let llm = StackConfig {
            profile: ModelProfile::gpt35(),
            seed: cfg.seed,
            faults: cfg.faults.as_deref(),
            kill_after: None,
            retries: cfg.retries,
            budget: cfg.budget,
            cache_cap: cfg.cache_cap,
        }
        .build(&bundle, Some(fanout.clone()), &tracer)?;
        let journal = cfg
            .journal
            .as_ref()
            .map(|path| {
                // `queries: 0` fingerprints an open-ended server: the
                // request count isn't known up front, and create/resume
                // headers must agree across restarts.
                let header = RunHeader {
                    dataset: bundle.tag.name().to_string(),
                    method: cfg.method.clone(),
                    seed: cfg.seed,
                    queries: 0,
                    boost: cfg.boost,
                    budget: cfg.budget,
                };
                run::open_journal(path, &header, cfg.resume)
            })
            .transpose()?;

        let registry = metrics.registry();
        let slo = SloTracker::new(
            SloConfig {
                p99_target_micros: cfg.slo_p99_ms.map_or(0, |ms| ms.saturating_mul(1000)),
                availability: cfg.slo_availability,
            },
            Arc::new(MonotonicClock),
        )
        .with_registry(registry);
        let http_requests = registry.counter_vec(
            "mqo_server_requests_total",
            "HTTP requests answered, by route, tenant, and status",
            &["route", "tenant", "status"],
        );
        // Doubling bounds from 1µs to ~67s: requests run tens of
        // microseconds hot and seconds under injected faults.
        let http_micros = registry.histogram_vec(
            "mqo_server_request_micros",
            "server-side request latency from read to flush, by route and tenant",
            &["route", "tenant"],
            || (0..27u32).map(|i| 1u64 << i).collect(),
        );
        let counter = |name: &str, help: &str| registry.counter(name, help);
        // The metrics sink registered these series above; registration is
        // get-or-create, so fetching by name shares its counters.
        let sink_series = |name: &str| registry.counter(name, "");
        let shed = registry.counter_vec("mqo_requests_shed_total", "", &["reason"]);
        Ok(Engine {
            replayed: sink_series("mqo_queries_replayed_total"),
            deadline_expired: sink_series("mqo_deadline_expired_total"),
            shed_saturated: shed.with(&[SHED_SATURATED]),
            shed_by_controller: [shed.with(&[SHED_SOJOURN]), shed.with(&[SHED_TENANT_SHARE])],
            labels_received_total: counter(
                "mqo_shard_labels_received_total",
                "remote pseudo-labels received from the router, accepted or not",
            ),
            shard: None,
            flight: FlightRecorder::new(cfg.flight_slow, cfg.flight_errors),
            slo,
            http_requests,
            http_micros,
            trace_counter: AtomicU64::new(0),
            requests_total: counter(
                "mqo_serve_requests_total",
                "classification requests answered successfully",
            ),
            queries_total: counter(
                "mqo_serve_queries_total",
                "node queries executed or replayed by the serving engine",
            ),
            rejected_tenant: counter(
                "mqo_serve_rejected_tenant_total",
                "requests refused with 429 because the tenant budget was exhausted",
            ),
            rejected_draining: counter(
                "mqo_serve_rejected_draining_total",
                "requests refused with 503 because the server was draining",
            ),
            degraded_total: counter(
                "mqo_serve_degraded_total",
                "requests served degraded (brown-out pruned prompts)",
            ),
            tenants: TenantTable::new(cfg.tenant_budgets, cfg.default_tenant_budget),
            labels: RwLock::new(labels),
            method: cfg.method,
            seed: cfg.seed,
            max_neighbors,
            budget: cfg.budget,
            boost: cfg.boost,
            cache_cap: cfg.cache_cap,
            run_scope: AtomicU64::new(SpanId::NONE.0),
            draining: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            bundle,
            predictor,
            llm,
            journal,
            fanout,
            tracer,
            chrome,
            ledger,
            metrics,
        })
    }

    /// Build a shard worker's engine from its [`ShardBundle`] and the
    /// cluster's [`ShardMap`]: the same run assembly as [`Engine::new`]
    /// over the shard's induced subgraph, plus global↔local translation at
    /// the request boundary and the cross-shard pseudo-label outbox.
    pub fn new_sharded(
        bundle: ShardBundle,
        map: ShardMap,
        cfg: ServeConfig,
    ) -> Result<Engine, String> {
        if map.num_shards() != bundle.identity.num_shards {
            return Err(format!(
                "shard map has {} shards but the bundle was cut from {}",
                map.num_shards(),
                bundle.identity.num_shards
            ));
        }
        let ShardBundle { identity, data } = bundle;
        let mut engine = Engine::new(data, cfg)?;
        engine.shard = Some(ShardContext::new(identity, map));
        Ok(engine)
    }

    /// The shard context, when this engine is a shard worker.
    pub fn shard(&self) -> Option<&ShardContext> {
        self.shard.as_ref()
    }

    /// Read access to the label store (ground truth + pseudo + remote),
    /// for callers reasoning about cue provenance — e.g. a serving test
    /// picking a query node whose only labeled neighbors are
    /// exchange-delivered.
    pub fn labels(&self) -> parking_lot::RwLockReadGuard<'_, LabelStore> {
        self.labels.read()
    }

    /// Resolve one raw request node id to the engine's internal id
    /// space: a plain bounds check on single-node engines, a global→
    /// local translation (owned nodes only) on shard workers. Errors
    /// are client errors (400).
    pub fn resolve_node(&self, raw: u64) -> Result<NodeId, String> {
        match &self.shard {
            None => {
                let n = self.bundle.tag.num_nodes();
                if raw < n as u64 {
                    Ok(NodeId(raw as u32))
                } else {
                    Err(format!("node {raw} out of range (dataset has {n} nodes)"))
                }
            }
            Some(ctx) => {
                let global = u32::try_from(raw).map_err(|_| {
                    format!(
                        "node {raw} out of range (partition covers {} nodes)",
                        ctx.map.num_nodes()
                    )
                })?;
                match ctx.identity.local_of(global) {
                    Some(local) if ctx.identity.is_owned_local(local) => Ok(NodeId(local)),
                    _ => Err(format!(
                        "node {raw} is not owned by shard {} (route via the shard map)",
                        ctx.identity.shard_id
                    )),
                }
            }
        }
    }

    /// Rewrite a processed batch's records into global id space so the
    /// response (and the router's reassembly, which joins on `"node"`)
    /// speaks the same ids the client sent. No-op on single-node
    /// engines.
    pub fn globalize(&self, batch: &mut ProcessedBatch) {
        if let Some(ctx) = &self.shard {
            for rec in &mut batch.records {
                rec.node = NodeId(ctx.identity.global_of(rec.node.0));
            }
        }
    }

    /// Accept remote pseudo-labels `(global node, class)` forwarded by
    /// the router from other shards. Only labels for *halo* locals are
    /// ingested — an owned node's pseudo-labels are minted here, and a
    /// node absent from this shard's halo cannot cue any local prompt.
    /// Every label counts in `mqo_shard_labels_received_total`; returns
    /// how many were accepted.
    pub fn ingest_remote_labels(&self, labels: &[(u64, u16)]) -> usize {
        let Some(ctx) = &self.shard else {
            return 0;
        };
        self.labels_received_total.add(labels.len() as u64);
        let num_classes = self.bundle.tag.num_classes() as u16;
        let mut accepted = 0usize;
        {
            let mut store = self.labels.write();
            for &(global, label) in labels {
                if label >= num_classes {
                    continue;
                }
                let Ok(global) = u32::try_from(global) else {
                    continue;
                };
                if let Some(local) = ctx.identity.local_of(global) {
                    if !ctx.identity.is_owned_local(local)
                        && store.ingest_remote(NodeId(local), ClassId(label))
                    {
                        accepted += 1;
                    }
                }
            }
        }
        if accepted > 0 {
            self.fanout.emit(&Event::ShardLabelsIngested {
                shard: ctx.identity.shard_id,
                labels: accepted as u64,
            });
        }
        accepted
    }

    /// Drain the cross-shard label outbox (the [`crate::LabelExchanger`]
    /// calls this each push interval). Empty on single-node engines.
    pub fn drain_outbox(&self) -> Vec<OutboundLabel> {
        self.shard.as_ref().map(|ctx| ctx.drain()).unwrap_or_default()
    }

    /// One executor view over the engine, ready for whichever thread
    /// holds a slot permit. `sink` is the telemetry destination (the
    /// shared fanout, possibly teed with a per-request collector) and
    /// `trace` annotates journal lines and cost events.
    fn executor<'a>(&'a self, sink: &'a dyn EventSink, trace: &str) -> Executor<'a> {
        let mut exec =
            Executor::new(&self.bundle.tag, &self.llm, self.max_neighbors, self.seed)
                .with_sink(sink)
                .with_tracer(&self.tracer)
                .with_degrade()
                .with_trace(trace.to_string());
        if let Some(j) = &self.journal {
            exec = exec.with_journal(j);
        }
        if let Some(b) = self.budget {
            exec = exec.with_budget(b);
        }
        exec.set_span_scope(self.run_scope());
        exec
    }

    /// Classify `nodes` for `tenant`, via the FIFO schedule of the
    /// shared [`Scheduler`] — the same execution core as the batch CLI.
    /// Called from connection handlers holding a slot permit; journal
    /// replay short-circuits already-answered nodes, fresh queries run
    /// the full stack, and (with boosting on) successful predictions
    /// become pseudo-labels that enrich later prompts on neighboring
    /// nodes.
    pub fn process(&self, nodes: &[NodeId], tenant: &str) -> ProcessedBatch {
        self.process_traced(nodes, tenant, "", None)
    }

    /// [`process`](Self::process) under a request trace: the trace id
    /// annotates the batch's journal lines and `QueryCost` events, and an
    /// optional per-request `collector` is teed alongside the engine's
    /// shared fanout so the handler can rebuild this request's span tree
    /// for the flight recorder.
    pub fn process_traced(
        &self,
        nodes: &[NodeId],
        tenant: &str,
        trace: &str,
        collector: Option<&dyn EventSink>,
    ) -> ProcessedBatch {
        self.process_shaped(nodes, tenant, trace, collector, false)
    }

    /// [`process_traced`](Self::process_traced) with an overload shape:
    /// when `degraded` is set (brown-out), every query in the batch is
    /// force-pruned — neighbor text omitted, exactly the treatment
    /// Algorithm 1 applies to its top-τ% adequate nodes — trading
    /// accuracy for throughput instead of refusing the request.
    pub fn process_shaped(
        &self,
        nodes: &[NodeId],
        tenant: &str,
        trace: &str,
        collector: Option<&dyn EventSink>,
        degraded: bool,
    ) -> ProcessedBatch {
        match collector {
            Some(extra) => {
                let tee = Tee::new(&*self.fanout, extra);
                self.process_with(nodes, tenant, &tee, trace, degraded)
            }
            None => self.process_with(nodes, tenant, &*self.fanout, trace, degraded),
        }
    }

    fn process_with(
        &self,
        nodes: &[NodeId],
        tenant: &str,
        sink: &dyn EventSink,
        trace: &str,
        degraded: bool,
    ) -> ProcessedBatch {
        let exec = self.executor(sink, trace);
        let report = {
            let labels = self.labels.read();
            Scheduler::new(&exec, SchedulePolicy::Fifo).run(
                &*self.predictor,
                Labels::Fixed(&labels),
                nodes,
                |_| degraded,
            )
        };
        let (records, replayed, billed_tokens) = match report {
            Ok(r) => (r.outcome.records, r.replayed, r.fresh_billed_tokens),
            // The executor runs degraded, so model errors already became
            // recorded failed outcomes inside the scheduler; this arm
            // only fires on internal errors, which still must answer
            // with recorded (and journaled) outcomes, not a 500.
            Err(e) => {
                let detail = e.to_string();
                let records: Vec<QueryRecord> =
                    nodes.iter().map(|&v| exec.failed_record(v, detail.clone())).collect();
                for rec in &records {
                    exec.journal_record(rec);
                }
                (records, 0, 0)
            }
        };
        if self.boost {
            {
                let mut labels = self.labels.write();
                for rec in &records {
                    if rec.yields_pseudo_label() {
                        labels.add_pseudo(rec.node, rec.predicted);
                    }
                }
            }
            // On a shard worker, a clean prediction on a *boundary* node
            // is a pseudo-label other shards' γ₁/γ₂ readiness wants to
            // see: queue it (in global id space) for the exchanger's
            // next push to the router.
            if let Some(ctx) = &self.shard {
                let graph = self.bundle.tag.graph();
                for rec in &records {
                    if rec.yields_pseudo_label() {
                        let targets = ctx.identity.neighbor_shards(graph, &ctx.map, rec.node.0);
                        if !targets.is_empty() {
                            ctx.queue(OutboundLabel {
                                node: ctx.identity.global_of(rec.node.0),
                                label: rec.predicted.0,
                                shards: targets,
                            });
                        }
                    }
                }
            }
        }
        self.queries_total.add(records.len() as u64);
        if degraded {
            self.degraded_total.inc();
        }
        self.tenants.charge(tenant, billed_tokens);
        ProcessedBatch { records, replayed, billed_tokens, trace: trace.to_string(), degraded }
    }

    /// Mint a trace id for a request that supplied none. The nth minted
    /// id is a pure function of `(seed, n)`, so a restarted (`--resume`)
    /// server facing the same request sequence mints identical ids.
    pub fn mint_trace(&self) -> String {
        let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        let mut id = splitmix64(self.seed ^ splitmix64(n));
        if id == 0 {
            id = 0x9e37_79b9_7f4a_7c15; // the all-zero id is reserved/invalid
        }
        format!("{id:016x}")
    }

    /// Record one finished HTTP exchange in the labeled request metrics
    /// (`mqo_server_requests_total` / `mqo_server_request_micros`).
    /// `route` must be a bounded label — a known path or `"other"` — and
    /// `tenant` is `"-"` for routes with no tenant.
    pub fn observe_http(&self, route: &str, tenant: &str, status: u16, latency_micros: u64) {
        self.http_micros.with(&[route, tenant]).record(latency_micros);
        self.http_requests.with(&[route, tenant, &status.to_string()]).inc();
    }

    /// The tail-sampling flight recorder behind `/v1/debug/flight`.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The per-tenant SLO tracker behind `/v1/slo`.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Admission check for one request (draining, then tenant budget).
    /// Queue backpressure is the server's third gate. Nothing is charged
    /// on refusal.
    pub fn admit(&self, tenant: &str) -> Result<(), Rejection> {
        if self.draining() {
            self.rejected_draining.inc();
            return Err(Rejection::Draining);
        }
        self.tenants.admit(tenant).map_err(|e| {
            self.rejected_tenant.inc();
            Rejection::TenantExhausted(e)
        })
    }

    /// Count one answered request (for `/v1/stats` and `/metrics`).
    pub fn count_request(&self) {
        self.requests_total.inc();
    }

    /// The `/v1/stats` document.
    pub fn stats_json(&self, queue: Option<(usize, usize)>, workers: usize) -> String {
        let totals = self.totals();
        let cache = self.cache_stats();
        let shed: u64 = self.shed_by_controller.iter().map(|c| c.get()).sum();
        let mut stats = json!({
            "dataset": self.bundle.tag.name(),
            "nodes": self.bundle.tag.num_nodes(),
            "method": self.method,
            "seed": self.seed,
            "draining": self.draining(),
            "workers": workers,
            "requests": self.requests_total.get(),
            "queries": self.queries_total.get(),
            "replayed": self.replayed.get(),
            "rejected": {
                "queue": self.shed_saturated.get(),
                "tenant": self.rejected_tenant.get(),
                "draining": self.rejected_draining.get(),
                "shed": shed,
            },
            "overload": {
                "shed": shed,
                "deadline_expired": self.deadline_expired.get(),
                "degraded": self.degraded_total.get(),
            },
            "tokens_billed": totals.prompt_tokens,
            "requests_sent": totals.requests,
            "budget": self.budget,
            "cache": {
                "capacity": self.cache_cap,
                "hits": cache.cache.hits,
                "misses": cache.cache.misses,
                "coalesced": cache.coalesced,
                "serve_rate": cache.serve_rate(),
                "tokens_saved": cache.tokens_saved,
            },
            "pseudo_labels": self.labels.read().num_pseudo(),
            "peak_rss_mb": peak_rss_mb(),
            "flight": {
                "slow": self.flight.retained().0,
                "errors": self.flight.retained().1,
            },
            "journal": self.journal.as_ref().map(|j| json!({
                "path": j.path().display().to_string(),
                "recorded": j.recorded(),
                "replayed": j.replayed(),
                "pending_replays": j.pending_replays(),
            })),
            "tenants": self.tenants.to_json(),
        });
        if let (Some((depth, capacity)), Value::Object(map)) = (queue, &mut stats) {
            map.insert("queue".into(), json!({"depth": depth, "capacity": capacity}));
        }
        if let (Some(shard), Value::Object(map)) = (self.shard_json(), &mut stats) {
            map.insert("shard".into(), shard);
        }
        let mut body = serde_json::to_string(&stats).expect("stats serialization");
        body.push('\n');
        body
    }

    /// End-of-life reporting, called once after the server has drained
    /// its execution slots and the run span closed: emit the cache summary and flush
    /// the Chrome trace so artifacts are complete on disk.
    pub fn finish(&self) {
        self.llm.report(&*self.fanout);
        if let Some(c) = &self.chrome {
            EventSink::flush(&**c);
        }
    }

    /// Whether new work is refused (drain in progress or complete).
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Stop admitting classification work. Set by the drain sequence
    /// before the listener closes, so requests racing the drain get a
    /// clean `503` instead of a dead socket.
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether something (SIGTERM, `POST /v1/drain`) asked the lifecycle
    /// owner to drain. The flag does not drain by itself: whoever owns
    /// the [`crate::Server`] polls it and calls
    /// [`crate::Server::drain`].
    pub fn drain_requested(&self) -> bool {
        self.drain_requested.load(Ordering::SeqCst)
    }

    /// Request a drain (see [`Engine::drain_requested`]).
    pub fn request_drain(&self) {
        self.drain_requested.store(true, Ordering::SeqCst);
    }

    /// Fallback parent span for worker queries (the run span).
    pub fn run_scope(&self) -> SpanId {
        SpanId(self.run_scope.load(Ordering::Relaxed))
    }

    /// Set the fallback parent span (done once, before serving starts).
    pub fn set_run_scope(&self, scope: SpanId) {
        self.run_scope.store(scope.0, Ordering::Relaxed);
    }

    /// The span factory. Always enabled while serving: every request's
    /// span tree feeds the flight recorder, and the Chrome trace file is
    /// the optional extra.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared telemetry fanout.
    pub fn fanout(&self) -> &Fanout {
        &self.fanout
    }

    /// The live metrics sink backing `/metrics` and `/progress`.
    pub fn metrics(&self) -> &Arc<MetricsSink> {
        &self.metrics
    }

    /// The token-cost attribution ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The crash-safe journal, if one was configured.
    pub fn journal(&self) -> Option<&RunJournal> {
        self.journal.as_ref()
    }

    /// Usage-meter totals of the underlying model (global billed spend).
    pub fn totals(&self) -> Totals {
        self.llm.meter().totals()
    }

    /// Response-cache statistics.
    pub fn cache_stats(&self) -> CachedLlmStats {
        self.llm.stats()
    }

    /// Spans written to the Chrome trace so far, if tracing is on.
    pub fn chrome_span_count(&self) -> Option<usize> {
        self.chrome.as_ref().map(|c| c.span_count())
    }

    /// Dataset name.
    pub fn dataset_name(&self) -> &str {
        self.bundle.tag.name()
    }

    /// Node-id bound for request validation.
    pub fn num_nodes(&self) -> usize {
        self.bundle.tag.num_nodes()
    }

    /// The shard-identity object embedded in `/v1/healthz` and
    /// `/v1/stats` on shard workers; `None` on single-node engines.
    pub fn shard_json(&self) -> Option<Value> {
        let ctx = self.shard.as_ref()?;
        let labels = self.labels.read();
        Some(json!({
            "id": ctx.identity.shard_id,
            "num_shards": ctx.identity.num_shards,
            "owned_nodes": ctx.identity.num_owned(),
            "halo_nodes": ctx.identity.num_locals() - ctx.identity.num_owned(),
            "remote_labels": labels.num_remote(),
            "outbox_depth": ctx.outbox_depth(),
        }))
    }
}
