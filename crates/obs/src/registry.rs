//! A named-metric registry with Prometheus text exposition, and the
//! [`MetricsSink`] that keeps it live during a run.
//!
//! The [`Registry`] is the scrape surface: counters, gauges, and
//! histograms registered by name, rendered in the [Prometheus text
//! format] by [`Registry::render_prometheus`]. All primitives are the
//! lock-free atomics from [`crate::metrics`], so updating a metric on the
//! hot path never contends with a scrape.
//!
//! [Prometheus text format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/
//!
//! [`MetricsSink`] is the one fold of the event stream into run totals:
//! every [`Event`] increments its series the moment it is emitted, which
//! is what makes `GET /metrics` meaningful *while* a long boosting run
//! executes. The same series serve the compact JSON snapshot behind
//! `GET /progress`, the one-screen summary `mqo classify --trace` prints
//! (the sink's [`Display`](fmt::Display)), and the serving engine's
//! `/v1/stats` counts. Its memory is constant in the run's length.

use crate::event::Event;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::sink::EventSink;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterVec(Arc<CounterVec>),
    GaugeVec(Arc<GaugeVec>),
    HistogramVec(Arc<HistogramVec>),
}

struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A collection of named metrics, rendered for scraping. Registration is
/// get-or-create: two callers registering the same name share one metric.
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
    start: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry { entries: Mutex::new(Vec::new()), start: Instant::now() }
    }
}

fn assert_metric_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "invalid Prometheus metric name: {name:?}"
    );
}

fn assert_label_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_');
    assert!(
        head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        "invalid Prometheus label name: {name:?}"
    );
}

/// Append `v` escaped per the Prometheus exposition rules for label
/// values: backslash, double-quote, and line-feed are escaped; everything
/// else (including other control characters and unicode) passes through.
fn escape_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Append `{a="x",b="y"}` (plus an optional extra pair — the histogram
/// `le` bound) onto `out`. Writes nothing when both are empty.
fn write_label_set(
    out: &mut String,
    names: &[String],
    values: &[String],
    extra: Option<(&str, &str)>,
) {
    if names.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (n, v) in names.iter().zip(values) {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(n);
        out.push_str("=\"");
        escape_label_value(out, v);
        out.push('"');
    }
    if let Some((n, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(n);
        out.push_str("=\"");
        // `le` bounds are numeric or `+Inf`; nothing to escape.
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

/// A family of [`Counter`]s distinguished by label values. The label
/// *names* are fixed at registration; each distinct value tuple gets its
/// own child counter on first use and shares it thereafter.
///
/// Children live in a linear-scanned `Mutex<Vec>`: callers are expected to
/// keep cardinality small and bounded (routes, tenants, status classes) —
/// hot paths should cache the child `Arc` rather than re-resolve per
/// event when the labels are known up front.
pub struct CounterVec {
    label_names: Vec<String>,
    children: Mutex<Vec<(Vec<String>, Arc<Counter>)>>,
}

impl CounterVec {
    fn new(label_names: &[&str]) -> Self {
        assert!(!label_names.is_empty(), "a labeled family needs at least one label");
        label_names.iter().for_each(|n| assert_label_name(n));
        CounterVec {
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            children: Mutex::new(Vec::new()),
        }
    }

    /// Get or create the child for one label-value tuple. Panics if the
    /// tuple arity does not match the registered label names.
    pub fn with(&self, values: &[&str]) -> Arc<Counter> {
        assert_eq!(values.len(), self.label_names.len(), "label value arity mismatch");
        let mut children = self.children.lock().expect("counter vec lock");
        if let Some((_, c)) = children
            .iter()
            .find(|(v, _)| v.iter().map(String::as_str).eq(values.iter().copied()))
        {
            return c.clone();
        }
        let c = Arc::new(Counter::new());
        children.push((values.iter().map(|s| s.to_string()).collect(), c.clone()));
        c
    }

    fn snapshot(&self) -> Vec<(Vec<String>, Arc<Counter>)> {
        self.children.lock().expect("counter vec lock").clone()
    }
}

/// A family of [`Gauge`]s distinguished by label values (see
/// [`CounterVec`] for the cardinality contract).
pub struct GaugeVec {
    label_names: Vec<String>,
    children: Mutex<Vec<(Vec<String>, Arc<Gauge>)>>,
}

impl GaugeVec {
    fn new(label_names: &[&str]) -> Self {
        assert!(!label_names.is_empty(), "a labeled family needs at least one label");
        label_names.iter().for_each(|n| assert_label_name(n));
        GaugeVec {
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            children: Mutex::new(Vec::new()),
        }
    }

    /// Get or create the child for one label-value tuple.
    pub fn with(&self, values: &[&str]) -> Arc<Gauge> {
        assert_eq!(values.len(), self.label_names.len(), "label value arity mismatch");
        let mut children = self.children.lock().expect("gauge vec lock");
        if let Some((_, g)) = children
            .iter()
            .find(|(v, _)| v.iter().map(String::as_str).eq(values.iter().copied()))
        {
            return g.clone();
        }
        let g = Arc::new(Gauge::new());
        children.push((values.iter().map(|s| s.to_string()).collect(), g.clone()));
        g
    }

    fn snapshot(&self) -> Vec<(Vec<String>, Arc<Gauge>)> {
        self.children.lock().expect("gauge vec lock").clone()
    }
}

/// A family of [`Histogram`]s distinguished by label values. Every child
/// shares the bucket layout fixed at registration, so the family renders
/// as one Prometheus histogram with `le` merged into each child's label
/// set (see [`CounterVec`] for the cardinality contract).
pub struct HistogramVec {
    label_names: Vec<String>,
    bounds: Vec<u64>,
    children: Mutex<Vec<(Vec<String>, Arc<Histogram>)>>,
}

impl HistogramVec {
    fn new(label_names: &[&str], bounds: Vec<u64>) -> Self {
        assert!(!label_names.is_empty(), "a labeled family needs at least one label");
        label_names.iter().for_each(|n| assert_label_name(n));
        HistogramVec {
            label_names: label_names.iter().map(|s| s.to_string()).collect(),
            bounds,
            children: Mutex::new(Vec::new()),
        }
    }

    /// Get or create the child for one label-value tuple.
    pub fn with(&self, values: &[&str]) -> Arc<Histogram> {
        assert_eq!(values.len(), self.label_names.len(), "label value arity mismatch");
        let mut children = self.children.lock().expect("histogram vec lock");
        if let Some((_, h)) = children
            .iter()
            .find(|(v, _)| v.iter().map(String::as_str).eq(values.iter().copied()))
        {
            return h.clone();
        }
        let h = Arc::new(Histogram::new(self.bounds.clone()));
        children.push((values.iter().map(|s| s.to_string()).collect(), h.clone()));
        h
    }

    fn snapshot(&self) -> Vec<(Vec<String>, Arc<Histogram>)> {
        self.children.lock().expect("histogram vec lock").clone()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert_metric_name(name);
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.metric.clone();
        }
        let metric = make();
        entries.push(Entry { name: name.into(), help: help.into(), metric: metric.clone() });
        metric
    }

    /// Register (or fetch) a counter. Panics if `name` is already
    /// registered as a different metric type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.get_or_insert(name, help, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, help, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a histogram; `make` builds the bucket layout
    /// on first registration.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Histogram,
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, || Metric::Histogram(Arc::new(make()))) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a labeled counter family. `label_names` is
    /// fixed on first registration; children come from
    /// [`CounterVec::with`].
    pub fn counter_vec(&self, name: &str, help: &str, label_names: &[&str]) -> Arc<CounterVec> {
        match self.get_or_insert(name, help, || {
            Metric::CounterVec(Arc::new(CounterVec::new(label_names)))
        }) {
            Metric::CounterVec(c) => c,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a labeled gauge family.
    pub fn gauge_vec(&self, name: &str, help: &str, label_names: &[&str]) -> Arc<GaugeVec> {
        match self.get_or_insert(name, help, || {
            Metric::GaugeVec(Arc::new(GaugeVec::new(label_names)))
        }) {
            Metric::GaugeVec(g) => g,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Register (or fetch) a labeled histogram family; every child shares
    /// the `bounds` bucket layout fixed on first registration.
    pub fn histogram_vec(
        &self,
        name: &str,
        help: &str,
        label_names: &[&str],
        bounds: impl FnOnce() -> Vec<u64>,
    ) -> Arc<HistogramVec> {
        match self.get_or_insert(name, help, || {
            Metric::HistogramVec(Arc::new(HistogramVec::new(label_names, bounds())))
        }) {
            Metric::HistogramVec(h) => h,
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Render every metric in the Prometheus text exposition format, in
    /// registration order. Labeled families render one HELP/TYPE header
    /// and one line per child, with label values escaped per the
    /// exposition rules.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock");
        // The uptime gauge reads wall-clock-at-scrape, not at-update:
        // refresh it (when registered) before rendering.
        if let Some(e) = entries.iter().find(|e| e.name == "mqo_uptime_seconds") {
            if let Metric::Gauge(g) = &e.metric {
                g.set(self.start.elapsed().as_secs());
            }
        }
        let mut out = String::with_capacity(64 * entries.len());
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    for (le, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(out, "{}_bucket{{le=\"{le}\"}} {cumulative}", e.name);
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, h.count());
                    let _ = writeln!(out, "{}_sum {}", e.name, h.sum());
                    let _ = writeln!(out, "{}_count {}", e.name, h.count());
                }
                Metric::CounterVec(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", e.name);
                    for (values, c) in v.snapshot() {
                        out.push_str(&e.name);
                        write_label_set(&mut out, &v.label_names, &values, None);
                        let _ = writeln!(out, " {}", c.get());
                    }
                }
                Metric::GaugeVec(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", e.name);
                    for (values, g) in v.snapshot() {
                        out.push_str(&e.name);
                        write_label_set(&mut out, &v.label_names, &values, None);
                        let _ = writeln!(out, " {}", g.get());
                    }
                }
                Metric::HistogramVec(v) => {
                    let _ = writeln!(out, "# TYPE {} histogram", e.name);
                    for (values, h) in v.snapshot() {
                        for (le, cumulative) in h.cumulative_buckets() {
                            let _ = write!(out, "{}_bucket", e.name);
                            let le = le.to_string();
                            write_label_set(
                                &mut out,
                                &v.label_names,
                                &values,
                                Some(("le", &le)),
                            );
                            let _ = writeln!(out, " {cumulative}");
                        }
                        let _ = write!(out, "{}_bucket", e.name);
                        write_label_set(
                            &mut out,
                            &v.label_names,
                            &values,
                            Some(("le", "+Inf")),
                        );
                        let _ = writeln!(out, " {}", h.count());
                        let _ = write!(out, "{}_sum", e.name);
                        write_label_set(&mut out, &v.label_names, &values, None);
                        let _ = writeln!(out, " {}", h.sum());
                        let _ = write!(out, "{}_count", e.name);
                        write_label_set(&mut out, &v.label_names, &values, None);
                        let _ = writeln!(out, " {}", h.count());
                    }
                }
            }
        }
        out
    }
}

/// An [`EventSink`] that turns the event stream into live registry series
/// — attach it to the executor's fanout and scrape away.
pub struct MetricsSink {
    registry: Arc<Registry>,
    queries: Arc<Counter>,
    pruned: Arc<Counter>,
    parse_failures: Arc<Counter>,
    prompt_tokens: Arc<Counter>,
    prompt_token_hist: Arc<Histogram>,
    latency_hist: Arc<Histogram>,
    rounds: Arc<Counter>,
    current_round: Arc<Gauge>,
    pseudo_label_uses: Arc<Counter>,
    retries: Arc<Counter>,
    retries_exhausted: Arc<Counter>,
    workers: Arc<Counter>,
    budget_pressure: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_coalesced: Arc<Counter>,
    cache_tokens_saved: Arc<Counter>,
    spans: Arc<Counter>,
    cost_rendered: Arc<Counter>,
    cost_billed: Arc<Counter>,
    cost_pruned_saved: Arc<Counter>,
    cost_cache_saved: Arc<Counter>,
    cost_starved: Arc<Counter>,
    cost_failed: Arc<Counter>,
    cost_enrichment: Arc<Counter>,
    backoff_waits: Arc<Counter>,
    backoff_wait_hist: Arc<Histogram>,
    breaker_state: Arc<Gauge>,
    breaker_transitions: Arc<Counter>,
    faults_injected: Arc<Counter>,
    queries_failed: Arc<Counter>,
    workers_lost: Arc<Counter>,
    queries_replayed: Arc<Counter>,
    events_dropped: Arc<Counter>,
    requests_shed: Arc<CounterVec>,
    deadline_expired: Arc<Counter>,
    brownout_state: Arc<Gauge>,
    brownout_transitions: Arc<Counter>,
    chaos_injected: Arc<CounterVec>,
    shard_labels_pushed: Arc<Counter>,
    shard_labels_ingested: Arc<Counter>,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink::new()
    }
}

impl MetricsSink {
    /// A sink over a fresh registry.
    pub fn new() -> Self {
        MetricsSink::with_registry(Arc::new(Registry::new()))
    }

    /// A sink registering its series on `registry` (share one registry to
    /// scrape several runs from one endpoint).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let r = &registry;
        MetricsSink {
            queries: r.counter("mqo_queries_total", "Queries executed"),
            pruned: r.counter("mqo_queries_pruned_total", "Queries sent without neighbor text"),
            parse_failures: r
                .counter("mqo_parse_failures_total", "Completions that failed to parse"),
            prompt_tokens: r
                .counter("mqo_prompt_tokens_total", "Billed prompt tokens across queries"),
            prompt_token_hist: r.histogram(
                "mqo_prompt_tokens",
                "Billed prompt tokens per query",
                Histogram::token_buckets,
            ),
            latency_hist: r.histogram(
                "mqo_query_latency_micros",
                "Per-query wall time in microseconds",
                Histogram::latency_buckets,
            ),
            rounds: r.counter("mqo_rounds_total", "Boosting rounds completed"),
            current_round: r
                .gauge("mqo_current_round", "Boosting rounds completed so far (live)"),
            pseudo_label_uses: r.counter(
                "mqo_pseudo_label_uses_total",
                "Pseudo-label slots that reached prompts",
            ),
            retries: r.counter("mqo_retries_total", "Retry attempts"),
            retries_exhausted: r
                .counter("mqo_retries_exhausted_total", "Retry sequences that gave up"),
            workers: r.counter("mqo_workers_total", "Worker throughput reports"),
            budget_pressure: r
                .counter("mqo_budget_pressure_total", "Hard-budget pressure events"),
            cache_hits: r.counter("mqo_cache_hits_total", "Response-cache hits"),
            cache_misses: r.counter("mqo_cache_misses_total", "Response-cache misses"),
            cache_coalesced: r.counter(
                "mqo_cache_coalesced_total",
                "Requests coalesced onto in-flight twins",
            ),
            cache_tokens_saved: r
                .counter("mqo_cache_tokens_saved_total", "Prompt tokens never sent (cache)"),
            spans: r.counter("mqo_spans_total", "Causal spans opened"),
            cost_rendered: r
                .counter("mqo_cost_rendered_tokens_total", "Ledger: tokens rendered"),
            cost_billed: r.counter("mqo_cost_billed_tokens_total", "Ledger: tokens billed"),
            cost_pruned_saved: r.counter(
                "mqo_cost_pruned_saved_tokens_total",
                "Ledger: tokens saved by pruning/budget downgrade",
            ),
            cost_cache_saved: r.counter(
                "mqo_cost_cache_saved_tokens_total",
                "Ledger: tokens avoided by cache serve/dedup",
            ),
            cost_starved: r.counter(
                "mqo_cost_starved_tokens_total",
                "Ledger: tokens refused by the hard budget",
            ),
            cost_failed: r.counter(
                "mqo_cost_failed_tokens_total",
                "Ledger: tokens of prompts whose query terminally failed",
            ),
            cost_enrichment: r.counter(
                "mqo_cost_enrichment_tokens_total",
                "Ledger: tokens spent on pseudo-label cues",
            ),
            backoff_waits: r.counter("mqo_backoff_waits_total", "Backoff/pacing waits taken"),
            backoff_wait_hist: r.histogram(
                "mqo_backoff_wait_micros",
                "Backoff/pacing wait per occurrence in microseconds",
                || Histogram::exponential(32),
            ),
            breaker_state: r.gauge(
                "mqo_breaker_state",
                "Circuit breaker state (0=closed, 1=half_open, 2=open)",
            ),
            breaker_transitions: r
                .counter("mqo_breaker_transitions_total", "Circuit breaker state changes"),
            faults_injected: r
                .counter("mqo_faults_injected_total", "Faults injected by the chaos harness"),
            queries_failed: r
                .counter("mqo_queries_failed_total", "Queries recorded as terminally failed"),
            workers_lost: r
                .counter("mqo_workers_lost_total", "Parallel workers lost to panics"),
            queries_replayed: r.counter(
                "mqo_queries_replayed_total",
                "Queries served from the run journal on resume",
            ),
            events_dropped: r.counter(
                "mqo_events_dropped_total",
                "Telemetry events evicted from bounded recorder rings",
            ),
            requests_shed: r.counter_vec(
                "mqo_requests_shed_total",
                "Requests shed by the overload controller",
                &["reason"],
            ),
            deadline_expired: r.counter(
                "mqo_deadline_expired_total",
                "Requests whose propagated deadline expired (answered 504)",
            ),
            brownout_state: r.gauge("mqo_brownout", "Brown-out engaged (1) or not (0)"),
            brownout_transitions: r
                .counter("mqo_brownout_transitions_total", "Brown-out enter/exit transitions"),
            chaos_injected: r.counter_vec(
                "mqo_chaos_injected_total",
                "Connection-level faults injected by the network-chaos layer",
                &["action"],
            ),
            shard_labels_pushed: r.counter(
                "mqo_shard_labels_pushed_total",
                "Boundary pseudo-labels pushed to the router for exchange",
            ),
            shard_labels_ingested: r.counter(
                "mqo_shard_labels_ingested_total",
                "Remote pseudo-labels accepted into the halo label store",
            ),
            registry: {
                // Scrape-identity series: which build is up and for how
                // long. The uptime gauge is refreshed at render time.
                let build = registry.gauge_vec(
                    "mqo_build_info",
                    "Build information (value is always 1)",
                    &["version"],
                );
                build.with(&[env!("CARGO_PKG_VERSION")]).set(1);
                let _ = registry
                    .gauge("mqo_uptime_seconds", "Seconds since the metrics registry came up");
                registry
            },
        }
    }

    /// The registry this sink feeds.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Fold ring-buffer evictions into `mqo_events_dropped_total`. Callers
    /// poll [`crate::Recorder::dropped`] (once per run, or per transient
    /// collector) and add the count here.
    pub fn add_events_dropped(&self, n: u64) {
        self.events_dropped.add(n);
    }

    /// Compact machine-readable snapshot for `GET /progress`: enough to
    /// watch a long run converge without scraping the full exposition.
    pub fn progress_json(&self) -> String {
        format!(
            "{{\"queries\":{},\"rounds_completed\":{},\"current_round\":{},\
             \"billed_tokens\":{},\"rendered_tokens\":{},\"pruned_saved_tokens\":{},\
             \"cache_saved_tokens\":{},\"starved_tokens\":{},\"enrichment_tokens\":{},\
             \"failed_tokens\":{},\"retries\":{},\"parse_failures\":{},\
             \"queries_failed\":{},\"queries_replayed\":{}}}",
            self.queries.get(),
            self.rounds.get(),
            self.current_round.get(),
            self.prompt_tokens.get(),
            self.cost_rendered.get(),
            self.cost_pruned_saved.get(),
            self.cost_cache_saved.get(),
            self.cost_starved.get(),
            self.cost_enrichment.get(),
            self.cost_failed.get(),
            self.retries.get(),
            self.parse_failures.get(),
            self.queries_failed.get(),
            self.queries_replayed.get(),
        )
    }
}

/// The one-screen run summary `mqo classify --trace` prints: p50/p99
/// prompt tokens, retries, rounds, prune rate, and the resilience and
/// cost lines when they have anything to say.
impl fmt::Display for MetricsSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let queries = self.queries.get();
        let pruned = self.pruned.get();
        let tokens = &self.prompt_token_hist;
        writeln!(f, "trace summary")?;
        writeln!(f, "  queries executed   {queries:>8}")?;
        writeln!(
            f,
            "  prompt tokens      {:>8} p50   {:>8} p99   {:>10.1} mean",
            tokens.quantile(0.5),
            tokens.quantile(0.99),
            tokens.mean(),
        )?;
        writeln!(
            f,
            "  query latency (µs) {:>8} p50   {:>8} p99",
            self.latency_hist.quantile(0.5),
            self.latency_hist.quantile(0.99),
        )?;
        let prune_pct = if queries == 0 { 0.0 } else { 100.0 * pruned as f64 / queries as f64 };
        writeln!(f, "  prune rate         {prune_pct:>7.1}%   ({pruned} of {queries})")?;
        writeln!(f, "  parse failures     {:>8}", self.parse_failures.get())?;
        writeln!(
            f,
            "  retries            {:>8}   ({} exhausted)",
            self.retries.get(),
            self.retries_exhausted.get(),
        )?;
        writeln!(
            f,
            "  boosting rounds    {:>8}   ({} pseudo-label uses)",
            self.rounds.get(),
            self.pseudo_label_uses.get(),
        )?;
        let nonzero = |c: &Counter| Some(c.get()).filter(|&n| n > 0);
        if let Some(n) = nonzero(&self.workers) {
            writeln!(f, "  parallel workers   {n:>8}")?;
        }
        if let Some(n) = nonzero(&self.budget_pressure) {
            writeln!(f, "  budget pressure    {n:>8} event(s)")?;
        }
        if let Some(n) = nonzero(&self.spans) {
            writeln!(f, "  causal spans       {n:>8}")?;
        }
        let (faults, waits) = (self.faults_injected.get(), self.backoff_waits.get());
        let transitions = self.breaker_transitions.get();
        if faults + waits + transitions > 0 {
            writeln!(
                f,
                "  resilience         {faults:>8} fault(s)   {waits} backoff wait(s) ({} µs), \
                 {transitions} breaker transition(s)",
                self.backoff_wait_hist.sum(),
            )?;
        }
        let (failed, lost) = (self.queries_failed.get(), self.workers_lost.get());
        if failed + lost > 0 {
            writeln!(
                f,
                "  degraded           {failed:>8} failed query(ies), {lost} worker(s) lost"
            )?;
        }
        if let Some(n) = nonzero(&self.queries_replayed) {
            writeln!(f, "  journal replays    {n:>8}")?;
        }
        if self.cost_rendered.get() > 0 {
            writeln!(
                f,
                "  token cost         {:>8} billed = {} rendered - {} pruned - {} cached - {} \
                 starved - {} failed",
                self.cost_billed.get(),
                self.cost_rendered.get(),
                self.cost_pruned_saved.get(),
                self.cost_cache_saved.get(),
                self.cost_starved.get(),
                self.cost_failed.get(),
            )?;
            writeln!(f, "  enrichment tokens  {:>8}", self.cost_enrichment.get())?;
        }
        Ok(())
    }
}

impl EventSink for MetricsSink {
    fn emit(&self, event: &Event) {
        match event {
            Event::QueryExecuted {
                prompt_tokens, pruned, parse_failed, wall_micros, ..
            } => {
                self.queries.inc();
                self.pruned.add(u64::from(*pruned));
                self.parse_failures.add(u64::from(*parse_failed));
                self.prompt_tokens.add(*prompt_tokens);
                self.prompt_token_hist.record(*prompt_tokens);
                self.latency_hist.record(*wall_micros);
            }
            Event::WorkerThroughput { .. } => self.workers.inc(),
            Event::RoundCompleted { round, pseudo_label_uses, .. } => {
                self.rounds.inc();
                self.current_round.set_max(u64::from(*round) + 1);
                self.pseudo_label_uses.add(*pseudo_label_uses);
            }
            Event::RetryAttempt { .. } => self.retries.inc(),
            Event::RetryExhausted { .. } => self.retries_exhausted.inc(),
            Event::CacheStats { hits, misses, coalesced, tokens_saved, .. } => {
                self.cache_hits.add(*hits);
                self.cache_misses.add(*misses);
                self.cache_coalesced.add(*coalesced);
                self.cache_tokens_saved.add(*tokens_saved);
            }
            Event::BudgetPressure { .. } => self.budget_pressure.inc(),
            Event::SpanEnter { .. } => self.spans.inc(),
            Event::SpanExit { .. } => {}
            Event::BackoffWait { wait_micros, .. } => {
                self.backoff_waits.inc();
                self.backoff_wait_hist.record(*wait_micros);
            }
            Event::BreakerTransition { to, .. } => {
                self.breaker_transitions.inc();
                self.breaker_state.set(match to.as_str() {
                    "open" => 2,
                    "half_open" => 1,
                    _ => 0,
                });
            }
            Event::FaultInjected { .. } => self.faults_injected.inc(),
            Event::QueryFailed { .. } => self.queries_failed.inc(),
            Event::WorkerLost { .. } => self.workers_lost.inc(),
            Event::QueryReplayed { .. } => self.queries_replayed.inc(),
            Event::QueryCost {
                rendered_tokens,
                billed_tokens,
                pruned_saved_tokens,
                cache_saved_tokens,
                starved_tokens,
                failed_tokens,
                enrichment_tokens,
                ..
            } => {
                self.cost_rendered.add(*rendered_tokens);
                self.cost_billed.add(*billed_tokens);
                self.cost_pruned_saved.add(*pruned_saved_tokens);
                self.cost_cache_saved.add(*cache_saved_tokens);
                self.cost_starved.add(*starved_tokens);
                self.cost_failed.add(*failed_tokens);
                self.cost_enrichment.add(*enrichment_tokens);
            }
            Event::RequestShed { reason, .. } => {
                self.requests_shed.with(&[reason.as_str()]).inc();
            }
            Event::DeadlineExpired { .. } => self.deadline_expired.inc(),
            Event::BrownoutEnter { .. } => {
                self.brownout_state.set(1);
                self.brownout_transitions.inc();
            }
            Event::BrownoutExit { .. } => {
                self.brownout_state.set(0);
                self.brownout_transitions.inc();
            }
            Event::ChaosInjected { action, .. } => {
                self.chaos_injected.with(&[action.as_str()]).inc();
            }
            Event::ShardLabelsPushed { labels, .. } => self.shard_labels_pushed.add(*labels),
            Event::ShardLabelsIngested { labels, .. } => {
                self.shard_labels_ingested.add(*labels);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_exposes_all_three_types() {
        let r = Registry::new();
        let c = r.counter("mqo_test_total", "a counter");
        c.add(3);
        let g = r.gauge("mqo_test_gauge", "a gauge");
        g.set(7);
        let h = r.histogram("mqo_test_hist", "a histogram", || Histogram::linear(10, 2));
        h.record(5);
        h.record(15);
        h.record(99);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP mqo_test_total a counter"));
        assert!(text.contains("# TYPE mqo_test_total counter"));
        assert!(text.contains("mqo_test_total 3"));
        assert!(text.contains("# TYPE mqo_test_gauge gauge"));
        assert!(text.contains("mqo_test_gauge 7"));
        assert!(text.contains("mqo_test_hist_bucket{le=\"10\"} 1"));
        assert!(text.contains("mqo_test_hist_bucket{le=\"20\"} 2"));
        assert!(text.contains("mqo_test_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mqo_test_hist_sum 119"));
        assert!(text.contains("mqo_test_hist_count 3"));
    }

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("mqo_shared_total", "shared");
        let b = r.counter("mqo_shared_total", "shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same underlying counter");
        assert_eq!(
            r.render_prometheus().matches("# TYPE mqo_shared_total").count(),
            1,
            "registered once"
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_is_rejected() {
        let r = Registry::new();
        let _ = r.counter("mqo_x", "x");
        let _ = r.gauge("mqo_x", "x");
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus metric name")]
    fn bad_names_are_rejected() {
        let _ = Registry::new().counter("1bad name", "x");
    }

    #[test]
    fn labeled_families_render_one_line_per_child() {
        let r = Registry::new();
        let reqs = r.counter_vec("mqo_reqs_total", "requests", &["route", "tenant"]);
        reqs.with(&["/v1/classify", "acme"]).add(3);
        reqs.with(&["/v1/classify", "zipf"]).inc();
        reqs.with(&["/metrics", "-"]).inc();
        let burn = r.gauge_vec("mqo_burn", "burn rate", &["tenant"]);
        burn.with(&["acme"]).set(1500);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE mqo_reqs_total counter").count(), 1);
        assert!(text.contains("mqo_reqs_total{route=\"/v1/classify\",tenant=\"acme\"} 3"));
        assert!(text.contains("mqo_reqs_total{route=\"/v1/classify\",tenant=\"zipf\"} 1"));
        assert!(text.contains("mqo_reqs_total{route=\"/metrics\",tenant=\"-\"} 1"));
        assert!(text.contains("mqo_burn{tenant=\"acme\"} 1500"));
    }

    #[test]
    fn labeled_children_are_get_or_create() {
        let r = Registry::new();
        let v = r.counter_vec("mqo_shared_vec_total", "shared", &["k"]);
        v.with(&["a"]).inc();
        v.with(&["a"]).inc();
        assert_eq!(v.with(&["a"]).get(), 2, "same underlying child");
        let again = r.counter_vec("mqo_shared_vec_total", "shared", &["ignored"]);
        again.with(&["a"]).inc();
        assert_eq!(v.with(&["a"]).get(), 3, "family itself is get-or-create");
    }

    #[test]
    fn histogram_vec_merges_le_into_label_sets() {
        let r = Registry::new();
        let h = r.histogram_vec("mqo_lat", "latency", &["route"], || vec![10, 20]);
        h.with(&["/v1/classify"]).record(5);
        h.with(&["/v1/classify"]).record(15);
        h.with(&["/v1/classify"]).record(99);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE mqo_lat histogram").count(), 1);
        assert!(text.contains("mqo_lat_bucket{route=\"/v1/classify\",le=\"10\"} 1"));
        assert!(text.contains("mqo_lat_bucket{route=\"/v1/classify\",le=\"20\"} 2"));
        assert!(text.contains("mqo_lat_bucket{route=\"/v1/classify\",le=\"+Inf\"} 3"));
        assert!(text.contains("mqo_lat_sum{route=\"/v1/classify\"} 119"));
        assert!(text.contains("mqo_lat_count{route=\"/v1/classify\"} 3"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        let v = r.counter_vec("mqo_esc_total", "escapes", &["who"]);
        v.with(&["a\"b\\c\nd"]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("mqo_esc_total{who=\"a\\\"b\\\\c\\nd\"} 1"), "got: {text}");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn label_arity_mismatch_is_rejected() {
        let r = Registry::new();
        let v = r.counter_vec("mqo_arity_total", "x", &["a", "b"]);
        let _ = v.with(&["only-one"]);
    }

    #[test]
    #[should_panic(expected = "invalid Prometheus label name")]
    fn bad_label_names_are_rejected() {
        let _ = Registry::new().counter_vec("mqo_ok_total", "x", &["bad-name"]);
    }

    #[test]
    fn build_info_and_uptime_are_registered_by_the_sink() {
        let sink = MetricsSink::new();
        let text = sink.registry().render_prometheus();
        assert!(
            text.contains(&format!(
                "mqo_build_info{{version=\"{}\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "got: {text}"
        );
        assert!(text.contains("# TYPE mqo_uptime_seconds gauge"));
        assert!(text.contains("mqo_uptime_seconds "));
    }

    #[test]
    fn events_dropped_total_accumulates() {
        let sink = MetricsSink::new();
        sink.add_events_dropped(0);
        sink.add_events_dropped(7);
        assert!(sink.registry().render_prometheus().contains("mqo_events_dropped_total 7"));
    }

    #[test]
    fn sink_turns_events_into_series() {
        let sink = MetricsSink::new();
        sink.emit(&Event::QueryExecuted {
            node: 1,
            prompt_tokens: 100,
            pruned: true,
            parse_failed: false,
            wall_micros: 50,
        });
        sink.emit(&Event::RoundCompleted {
            round: 2,
            executed: 1,
            gamma1: 3,
            gamma2: 2,
            pseudo_label_uses: 4,
        });
        sink.emit(&Event::QueryCost {
            node: 1,
            rendered_tokens: 150,
            billed_tokens: 100,
            pruned_saved_tokens: 50,
            cache_saved_tokens: 0,
            starved_tokens: 0,
            failed_tokens: 0,
            enrichment_tokens: 8,
            trace: String::new(),
        });
        let text = sink.registry().render_prometheus();
        assert!(text.contains("mqo_queries_total 1"));
        assert!(text.contains("mqo_queries_pruned_total 1"));
        assert!(text.contains("mqo_prompt_tokens_total 100"));
        assert!(text.contains("mqo_rounds_total 1"));
        assert!(text.contains("mqo_current_round 3"));
        assert!(text.contains("mqo_cost_rendered_tokens_total 150"));
        assert!(text.contains("mqo_cost_pruned_saved_tokens_total 50"));
        let progress = sink.progress_json();
        assert!(progress.contains("\"queries\":1"));
        assert!(progress.contains("\"billed_tokens\":100"));
        assert!(progress.contains("\"rendered_tokens\":150"));
    }

    fn q(tokens: u64, pruned: bool) -> Event {
        Event::QueryExecuted {
            node: 0,
            prompt_tokens: tokens,
            pruned,
            parse_failed: false,
            wall_micros: 100,
        }
    }

    #[test]
    fn aggregates_the_whole_vocabulary() {
        let sink = MetricsSink::new();
        for e in [
            q(100, false),
            q(300, true),
            q(500, false),
            q(700, true),
            Event::RoundCompleted {
                round: 0,
                executed: 4,
                gamma1: 3,
                gamma2: 2,
                pseudo_label_uses: 5,
            },
            Event::RetryAttempt { attempt: 1, max_attempts: 3, error: "x".into() },
            Event::RetryExhausted { attempts: 3, error: "x".into() },
            Event::WorkerThroughput { worker: 0, queries: 4, wall_micros: 400 },
            Event::BudgetPressure { budget: 10, prompt_tokens_used: 9, denied_cost: 2 },
            Event::CacheStats {
                hits: 7,
                misses: 4,
                evictions: 1,
                stale_drops: 2,
                coalesced: 3,
                tokens_saved: 900,
            },
            Event::SpanEnter {
                id: 1,
                parent: 0,
                name: "run".into(),
                detail: String::new(),
                track: 0,
                at_micros: 0,
            },
            Event::SpanExit { id: 1, at_micros: 10 },
            Event::QueryCost {
                node: 1,
                rendered_tokens: 500,
                billed_tokens: 350,
                pruned_saved_tokens: 100,
                cache_saved_tokens: 50,
                starved_tokens: 0,
                failed_tokens: 0,
                enrichment_tokens: 6,
                trace: String::new(),
            },
            Event::BackoffWait {
                consecutive_failures: 1,
                wait_micros: 800,
                rate_limited: true,
            },
            Event::BreakerTransition {
                from: "closed".into(),
                to: "open".into(),
                consecutive_failures: 5,
            },
            Event::FaultInjected { call: 0, fault: "transient".into() },
            Event::QueryFailed { node: 3, error: "outage".into() },
            Event::WorkerLost { worker: 1, node: 4, detail: "panicked".into() },
            Event::QueryReplayed { node: 5 },
        ] {
            sink.emit(&e);
        }
        assert_eq!(sink.queries.get(), 4);
        assert_eq!(sink.pruned.get(), 2);
        assert_eq!(sink.rounds.get(), 1);
        assert_eq!(sink.pseudo_label_uses.get(), 5);
        assert_eq!(sink.retries.get(), 1);
        assert_eq!(sink.retries_exhausted.get(), 1);
        assert_eq!(sink.workers.get(), 1);
        assert_eq!(sink.budget_pressure.get(), 1);
        assert_eq!((sink.cache_hits.get(), sink.cache_misses.get()), (7, 4));
        assert_eq!(sink.cache_coalesced.get(), 3);
        assert_eq!(sink.cache_tokens_saved.get(), 900);
        assert_eq!(sink.spans.get(), 1);
        assert_eq!(sink.cost_rendered.get(), 500);
        assert_eq!(sink.cost_billed.get(), 350);
        assert_eq!(sink.cost_cache_saved.get(), 50);
        assert_eq!(sink.cost_enrichment.get(), 6);
        assert_eq!((sink.backoff_waits.get(), sink.backoff_wait_hist.sum()), (1, 800));
        assert_eq!(sink.breaker_transitions.get(), 1);
        assert_eq!(sink.faults_injected.get(), 1);
        assert_eq!(sink.queries_failed.get(), 1);
        assert_eq!(sink.workers_lost.get(), 1);
        assert_eq!(sink.queries_replayed.get(), 1);
        // p50 of {100, 300, 500, 700} resolves to 300's width-64 bucket.
        assert_eq!(sink.prompt_token_hist.quantile(0.5), 320);
        let text = sink.to_string();
        for line in [
            "prune rate            50.0%   (2 of 4)",
            "retries                   1   (1 exhausted)",
            "boosting rounds           1   (5 pseudo-label uses)",
            "parallel workers          1",
            "budget pressure           1 event(s)",
            "causal spans              1",
            "resilience                1 fault(s)   1 backoff wait(s) (800 µs), 1 breaker \
             transition(s)",
            "degraded                  1 failed query(ies), 1 worker(s) lost",
            "journal replays           1",
            "token cost              350 billed = 500 rendered - 100 pruned - 50 cached - 0 \
             starved - 0 failed",
            "enrichment tokens         6",
        ] {
            assert!(text.contains(line), "missing {line:?} in:\n{text}");
        }
    }

    #[test]
    fn display_fits_one_screen() {
        let sink = MetricsSink::new();
        sink.emit(&q(128, false));
        let text = sink.to_string();
        assert!(text.lines().count() <= 12, "summary too tall:\n{text}");
        assert!(text.contains("p50"));
        assert!(text.contains("prune rate"));
        assert!(text.contains("prompt tokens           128 p50        128 p99"), "{text}");
    }

    #[test]
    fn resilience_events_feed_their_series() {
        let sink = MetricsSink::new();
        sink.emit(&Event::BackoffWait {
            consecutive_failures: 1,
            wait_micros: 2500,
            rate_limited: false,
        });
        sink.emit(&Event::BreakerTransition {
            from: "closed".into(),
            to: "open".into(),
            consecutive_failures: 5,
        });
        sink.emit(&Event::FaultInjected { call: 3, fault: "transient".into() });
        sink.emit(&Event::QueryFailed { node: 7, error: "outage".into() });
        sink.emit(&Event::WorkerLost { worker: 0, node: 8, detail: "panicked".into() });
        sink.emit(&Event::QueryReplayed { node: 9 });
        let text = sink.registry().render_prometheus();
        assert!(text.contains("mqo_backoff_waits_total 1"));
        assert!(text.contains("mqo_backoff_wait_micros_sum 2500"));
        assert!(text.contains("mqo_breaker_state 2"));
        assert!(text.contains("mqo_breaker_transitions_total 1"));
        assert!(text.contains("mqo_faults_injected_total 1"));
        assert!(text.contains("mqo_queries_failed_total 1"));
        assert!(text.contains("mqo_workers_lost_total 1"));
        assert!(text.contains("mqo_queries_replayed_total 1"));

        sink.emit(&Event::BreakerTransition {
            from: "open".into(),
            to: "half_open".into(),
            consecutive_failures: 5,
        });
        assert!(sink.registry().render_prometheus().contains("mqo_breaker_state 1"));
        sink.emit(&Event::BreakerTransition {
            from: "half_open".into(),
            to: "closed".into(),
            consecutive_failures: 0,
        });
        assert!(sink.registry().render_prometheus().contains("mqo_breaker_state 0"));
        let progress = sink.progress_json();
        assert!(progress.contains("\"queries_failed\":1"));
        assert!(progress.contains("\"queries_replayed\":1"));
    }
}
