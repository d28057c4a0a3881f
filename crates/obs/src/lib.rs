//! Structured-event telemetry for the MQO pipeline.
//!
//! Zero dependencies by design: every other crate in the workspace can
//! depend on this one without cycles, and the no-op path costs nothing.
//!
//! The pieces:
//!
//! - [`Event`] — the closed vocabulary of things worth observing: query
//!   executions, boosting rounds, retries, worker throughput, the moment
//!   the hard token budget (Eq. 2 of the paper) starts binding, causal
//!   span enter/exit pairs, and per-query token-cost attribution.
//! - [`EventSink`] — where events go. [`NullSink`] (the default) drops
//!   them, [`Recorder`] keeps a bounded ring in memory for tests and
//!   summaries, [`FileSink`] streams JSONL to disk (conventionally under
//!   `results/logs/`), [`Tee`] fans out to two sinks, and [`Fanout`] to
//!   any number.
//! - [`Tracer`] / [`SpanGuard`] — causal spans (run → round → query →
//!   llm_call/retry) stamped by an injectable [`Clock`], exported
//!   as Chrome trace JSON by [`ChromeTraceSink`] for
//!   `chrome://tracing` / Perfetto.
//! - [`Registry`] / [`MetricsSink`] — live named counters, gauges and
//!   histograms with Prometheus text exposition, served over HTTP by
//!   [`serve_metrics`] (`GET /metrics`, `GET /progress`).
//! - [`httpd`] — the workspace's one std-only HTTP/1.1 server,
//!   [`HttpServer`]: one accept loop and one keep-alive loop under the
//!   metrics endpoint, the `mqo-serve` classification service and the
//!   `mqo-shard` router, each mounting its own handler. Its `stop`
//!   drains in one order: stop accepting, half-close live connections,
//!   join them. Plus one-shot [`http_get`] / [`http_post`] clients for
//!   tests and load generation.
//! - [`wire`] — borrowed-span JSON reading: check a document once, then
//!   walk its members and items as `&str` spans of the original text, so
//!   the router and the shard workers relay records and labels without
//!   building a value tree.
//! - [`CostLedger`] — the token-cost attribution ledger: where every
//!   prompt token went (billed, pruned, cache-saved, starved), reconciled
//!   exactly against the usage meter.
//! - [`FlightRecorder`] — tail-sampled per-request span trees: the N
//!   slowest and all recent error requests, with trace ids, for
//!   `GET /v1/debug/flight`.
//! - [`SloTracker`] — per-tenant rolling good/bad windows and error-budget
//!   burn rates against a configured latency/availability objective.
//! - [`Histogram`] / [`Counter`] / [`Gauge`] — fixed-bucket, lock-free
//!   aggregation primitives.
//! - [`Summary`] — the one-screen digest (p50/p99 prompt tokens, retry
//!   counts, rounds, prune rate) the bench harness prints for `--trace`.
//!
//! ```
//! use mqo_obs::{Event, EventSink, Recorder, Summary};
//!
//! let sink = Recorder::new();
//! sink.emit(&Event::QueryExecuted {
//!     node: 3,
//!     prompt_tokens: 412,
//!     pruned: false,
//!     parse_failed: false,
//!     wall_micros: 90,
//! });
//! let summary = Summary::from_events(&sink.events());
//! assert_eq!(summary.queries, 1);
//! ```

#![warn(missing_docs)]

mod chrome;
mod clock;
mod cost;
mod event;
mod flight;
pub mod httpd;
mod metrics;
mod registry;
mod sink;
mod slo;
mod span;
mod summary;
pub mod wire;

pub use chrome::ChromeTraceSink;
pub use clock::{Clock, ManualClock, MonotonicClock, WaitClock, MONOTONIC_CLOCK};
pub use cost::{CostLedger, CostReport, RoundCost};
pub use event::Event;
pub use flight::{spans_from_events, FlightEntry, FlightRecorder, FlightSpan};
pub use httpd::{http_get, http_post, serve_metrics, HttpServer};
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{CounterVec, GaugeVec, HistogramVec, MetricsSink, Registry};
pub use sink::{
    EventSink, Fanout, FileSink, NullSink, Recorder, Tee, NULL_SINK, RECORDER_DEFAULT_CAPACITY,
};
pub use slo::{
    SloConfig, SloReport, SloTracker, TenantSlo, WindowSlo, LONG_WINDOW_MICROS,
    SHORT_WINDOW_MICROS,
};
pub use span::{set_thread_track, thread_track, SpanGuard, SpanId, Tracer, DISABLED_TRACER};
pub use summary::Summary;
