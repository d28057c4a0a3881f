//! The HTTP surface and its lifecycle.
//!
//! ```text
//! POST /v1/classify      {"node": 3} | {"nodes":[3,4], "tenant":"acme"}
//! GET  /v1/healthz       200 ok | 503 draining
//! GET  /v1/stats         serving counters, tenants, cache, journal
//! GET  /v1/slo           per-tenant SLO windows and burn rates
//! GET  /v1/debug/flight  flight recorder: slowest + recent errors
//! GET  /metrics          Prometheus exposition (shared registry)
//! GET  /progress         compact JSON progress snapshot
//! POST /v1/drain         request a graceful drain (202)
//! ```
//!
//! ## Request tracing
//!
//! Every `/v1/classify` request runs under a 16-hex trace id: honored
//! from an `x-mqo-trace-id` header (or the trace-id field of a W3C
//! `traceparent`), minted deterministically from the engine's seed
//! otherwise. The id is echoed in the `x-mqo-trace-id` response header
//! and the response JSON, stamped on the request's span tree, and
//! annotated onto journal lines and cost-ledger events — so one grep
//! connects a client timeout to its server-side spans, its journal
//! record, and its token bill.
//!
//! Four admission gates guard `/v1/classify`, in order: draining
//! (`503`), tenant budget (`429`, nothing billed), the adaptive
//! [`OverloadControl`] (`429` with a *computed* `Retry-After` when the
//! controller is shedding or the tenant is over its fair share of the
//! wait room), and slot backpressure (`429 Retry-After`, the
//! [`SlotGate`]'s wait room is full). Admitted work executes *on the
//! connection handler's own thread* under a [`SlotPermit`]: the permit
//! bounds concurrency exactly like the old worker pool did (at most
//! `workers` batches running, at most `queue_capacity` waiting), but
//! the request never crosses a queue or a reply channel — the handler
//! calls straight into the engine's [`mqo_core::Scheduler`] FIFO path
//! and writes the response itself.
//!
//! ## Deadlines and brown-out
//!
//! An `x-mqo-deadline-ms` request header bounds the whole request: the
//! slot wait is capped at the remaining budget, the deadline is
//! re-checked at admission, and it rides a thread-local into the
//! resilient LLM client so in-flight work stops metering the moment it
//! cannot finish in time. An expired deadline answers `504` with zero
//! tokens billed, at whichever stage it died (`queue`, `admitted`,
//! `executing`).
//!
//! Under sustained pressure (shed rate + sojourn past the brown-out
//! threshold) admitted requests are served *degraded*: the paper's
//! pruned, neighbor-free prompts (Algorithm 1's top-τ% treatment
//! applied to the whole stream), flagged `"degraded": true` in the
//! response. Accuracy dips, goodput survives.
//!
//! ## Graceful drain
//!
//! The socket side is the workspace's one HTTP server,
//! [`mqo_obs::httpd::HttpServer`]; this module only mounts a handler on
//! it. [`Server::drain`] runs the shutdown sequence in dependency order:
//! mark draining (late requests get a clean `503`) → [`HttpServer::stop`]
//! (stop the accept loop and close the listener, so later connections
//! are refused outright; half-close the read side of open connections,
//! so idle keep-alive handlers wake immediately instead of stalling the
//! drain until their read timeout; join connection handlers — every
//! admitted batch finishes on its handler's thread, permits release as
//! they go, and in-flight responses still write) → seal the journal
//! (fsync) → close the run span → flush trace artifacts. Accepted work
//! always finishes; a restarted server resumes from the sealed journal
//! re-billing zero tokens.

use crate::config::ServerOptions;
use crate::engine::{Engine, Rejection};
use crate::shed::{Admit, BrownoutTransition, OverloadControl};
use crate::slots::{AcquireError, SlotGate};
use mqo_graph::NodeId;
use mqo_obs::httpd::{metrics_routes, HttpConnection, HttpServer, Request};
use mqo_obs::wire;
use mqo_obs::{
    spans_from_events, Clock, Event, EventSink, FlightEntry, FlightSpan, Recorder, SpanId, Tee,
    MONOTONIC_CLOCK,
};
use serde_json::{json, Value};
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What the drain sequence observed, for operator logs and exit status.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Node queries executed or replayed over the server's lifetime.
    pub queries: u64,
    /// Queries served from the journal without re-billing.
    pub replayed: u64,
    /// Whether a journal was sealed (fsync'd) by this drain.
    pub journal_sealed: bool,
}

/// A running classification server; see the module docs. Construct with
/// [`Server::start`], stop with [`Server::drain`] (dropping an
/// undrained server drains it too, discarding the report).
pub struct Server {
    engine: Arc<Engine>,
    http: HttpServer,
    span_close: Option<mpsc::Sender<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl Server {
    /// Open the run span, build the slot gate, and serve on
    /// `options.addr`.
    pub fn start(engine: Arc<Engine>, options: ServerOptions) -> io::Result<Server> {
        // The run span lives on a dedicated supervisor thread: it must
        // open before the first query (so query spans have a "run"
        // ancestor) and close after the last handler exits (so span
        // intervals nest), and span guards borrow engine internals —
        // a thread's stack frame is the one place that satisfies all
        // three.
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let (span_close_tx, span_close_rx) = mpsc::channel::<()>();
        let span_engine = Arc::clone(&engine);
        let supervisor =
            thread::Builder::new().name("mqo-serve-span".into()).spawn(move || {
                let span = span_engine.tracer().span(
                    span_engine.fanout(),
                    "run",
                    || format!("serve {}", span_engine.dataset_name()),
                    SpanId::NONE,
                );
                span_engine.set_run_scope(span.id());
                let _ = ready_tx.send(());
                let _ = span_close_rx.recv();
            })?;
        ready_rx.recv().map_err(|_| io::Error::other("span supervisor died before serving"))?;

        let gate = SlotGate::new(options.workers.max(1), options.queue_capacity.max(1));
        let overload =
            OverloadControl::new(options.overload.clone(), options.queue_capacity.max(1));
        let handler = {
            let engine = Arc::clone(&engine);
            move |req: &Request, conn: &mut HttpConnection| {
                // During a drain, finish this response but stop reusing
                // the connection so its thread joins promptly.
                if engine.draining() {
                    conn.set_keep_alive(false);
                }
                let started = MONOTONIC_CLOCK.now_micros();
                let status = handle_request(&engine, &gate, &overload, req, conn)?;
                // Classify observes itself (it knows the tenant);
                // everything else lands here under the tenantless label.
                if req.path != "/v1/classify" {
                    let latency = MONOTONIC_CLOCK.now_micros().saturating_sub(started);
                    engine.observe_http(route_label(&req.path), "-", status, latency);
                }
                Ok(status)
            }
        };
        let http = HttpServer::start(&options.addr, engine.metrics().registry(), handler)?;

        Ok(Server {
            engine,
            http,
            span_close: Some(span_close_tx),
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Graceful drain; see the module docs for the sequence.
    pub fn drain(mut self) -> DrainReport {
        self.drain_in_place()
    }

    fn drain_in_place(&mut self) -> DrainReport {
        // 1. Refuse new classification work with a clean 503.
        self.engine.set_draining();
        // 2. Stop accepting, half-close idle keep-alive connections, and
        //    join the connection threads. Every admitted batch runs on
        //    its handler's thread, so joining the handlers *is* draining
        //    the work — permits release as batches complete and parked
        //    waiters run to completion behind them.
        self.http.stop();
        // 3. Seal the journal: everything answered is now durable, so a
        //    restarted server replays it without re-billing a token.
        let journal_sealed = match self.engine.journal() {
            Some(j) => {
                j.seal_round(0);
                true
            }
            None => false,
        };
        // 4. Close the run span (after the last query span) and flush
        //    trace artifacts.
        self.span_close.take();
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        self.engine.finish();
        DrainReport {
            queries: self.engine.journal().map_or(0, |j| j.recorded() + j.replayed()),
            replayed: self.engine.journal().map_or(0, |j| j.replayed()),
            journal_sealed,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.supervisor.is_some() {
            self.drain_in_place();
        }
    }
}

fn json_response(conn: &mut HttpConnection, status: &str, body: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string(body).expect("response serialization");
    text.push('\n');
    conn.respond(status, "application/json", &text)
}

/// JSON response stamped with the request's trace id, both as the
/// `x-mqo-trace-id` header and as a `"trace"` field in the body.
fn traced_json(
    conn: &mut HttpConnection,
    status: &str,
    trace: &str,
    body: &Value,
) -> io::Result<()> {
    let mut body = body.clone();
    if let Value::Object(o) = &mut body {
        o.insert("trace".into(), Value::String(trace.to_string()));
    }
    let mut text = serde_json::to_string(&body).expect("response serialization");
    text.push('\n');
    conn.respond_with_headers(
        status,
        "application/json",
        &[("x-mqo-trace-id", trace.to_string())],
        &text,
    )
}

/// Bounded route label for the request metrics: known paths keep their
/// own series, everything else folds into `other`.
fn route_label(path: &str) -> &'static str {
    match path {
        "/v1/classify" => "/v1/classify",
        "/v1/healthz" => "/v1/healthz",
        "/v1/stats" => "/v1/stats",
        "/v1/slo" => "/v1/slo",
        "/v1/debug/flight" => "/v1/debug/flight",
        "/v1/drain" => "/v1/drain",
        "/v1/labels" => "/v1/labels",
        "/metrics" => "/metrics",
        "/progress" => "/progress",
        _ => "other",
    }
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The trace id a classify request runs under: a caller-supplied
/// `x-mqo-trace-id` (16 hex digits) wins, then the trace-id field of a
/// W3C `traceparent` (first 16 of its 32 hex digits), else a fresh id
/// minted deterministically from the engine's seed. The all-zero id is
/// invalid in both conventions and falls through to minting.
fn trace_for(req: &Request, engine: &Engine) -> String {
    if let Some(h) = req.header("x-mqo-trace-id") {
        let h = h.trim().to_ascii_lowercase();
        if is_hex16(&h) && h != "0000000000000000" {
            return h;
        }
    }
    if let Some(tp) = req.header("traceparent") {
        // version-traceid-parentid-flags, e.g. 00-<32 hex>-<16 hex>-01
        let mut parts = tp.trim().split('-');
        let (Some(_version), Some(trace_id)) = (parts.next(), parts.next()) else {
            return engine.mint_trace();
        };
        if trace_id.len() == 32 && trace_id.bytes().all(|b| b.is_ascii_hexdigit()) {
            let short = trace_id[..16].to_ascii_lowercase();
            if short != "0000000000000000" {
                return short;
            }
        }
    }
    engine.mint_trace()
}

/// Classify epilogue, run after the response is flushed: stamp the
/// exchange into the labeled request metrics, the tenant's SLO windows,
/// and the flight recorder. `detail` yields the entry's span tree and
/// response summary; it runs only when the recorder would keep the
/// entry, so the common request builds neither. Returns `status` for the
/// connection loop.
fn finish_classify(
    engine: &Engine,
    trace: String,
    tenant: &str,
    status: u16,
    started_micros: u64,
    request_summary: String,
    detail: impl FnOnce() -> (Vec<FlightSpan>, String),
) -> u16 {
    let latency = MONOTONIC_CLOCK.now_micros().saturating_sub(started_micros);
    engine.observe_http("/v1/classify", tenant, status, latency);
    engine.slo().observe(tenant, status, latency);
    if engine.flight().would_keep(status, latency) {
        let (spans, response_summary) = detail();
        engine.flight().offer(FlightEntry {
            trace,
            tenant: tenant.to_string(),
            route: "/v1/classify".to_string(),
            status,
            latency_micros: latency,
            started_micros,
            request_summary,
            response_summary,
            spans,
        });
    }
    status
}

/// Parse the classify request body: `{"node": N}` or `{"nodes": [..]}`,
/// optional `"tenant"`. Node ids are validated (and, on shard workers,
/// translated from global to local id space) by
/// [`Engine::resolve_node`]. Errors are client errors (400).
fn parse_classify(req: &Request, engine: &Engine) -> Result<(Vec<NodeId>, String), String> {
    let body: Value =
        serde_json::from_str(req.body_utf8()).map_err(|e| format!("invalid JSON body: {e}"))?;
    let mut raw: Vec<u64> = Vec::new();
    match (body.get("node"), body.get("nodes")) {
        (Some(n), None) => raw.push(n.as_u64().ok_or("'node' must be a non-negative integer")?),
        (None, Some(list)) => {
            let list = list.as_array().ok_or("'nodes' must be an array")?;
            if list.is_empty() {
                return Err("'nodes' must not be empty".into());
            }
            for n in list {
                raw.push(n.as_u64().ok_or("'nodes' entries must be non-negative integers")?);
            }
        }
        _ => return Err("body must have exactly one of 'node' or 'nodes'".into()),
    }
    let mut nodes = Vec::with_capacity(raw.len());
    for n in raw {
        nodes.push(engine.resolve_node(n)?);
    }
    let tenant = match body.get("tenant") {
        None => "default".to_string(),
        Some(t) => t.as_str().ok_or("'tenant' must be a string")?.to_string(),
    };
    Ok((nodes, tenant))
}

/// The absolute deadline (monotonic micros) a classify request runs
/// under, parsed from its `x-mqo-deadline-ms` header. Errors are client
/// errors (400).
fn deadline_for(req: &Request, now_micros: u64) -> Result<Option<u64>, String> {
    let Some(h) = req.header("x-mqo-deadline-ms") else {
        return Ok(None);
    };
    let ms: u64 = h.trim().parse().map_err(|_| {
        format!("invalid x-mqo-deadline-ms '{}': must be a non-negative integer", h.trim())
    })?;
    Ok(Some(now_micros.saturating_add(ms.saturating_mul(1_000))))
}

/// Refuse a classify request with `429` and a computed `Retry-After`.
/// Used for both controller sheds and slot-gate saturation; the caller
/// has already done the bookkeeping (counters, events, seat release).
#[allow(clippy::too_many_arguments)]
fn respond_shed(
    engine: &Engine,
    conn: &mut HttpConnection,
    trace: String,
    tenant: &str,
    started: u64,
    request_summary: String,
    retry_after_secs: u64,
    reason: &str,
) -> io::Result<u16> {
    let mut body = serde_json::to_string(&json!({
        "error": "saturated",
        "reason": reason,
        "tenant": tenant,
        "retry_after_secs": retry_after_secs,
        "trace": trace,
    }))
    .expect("response serialization");
    body.push('\n');
    conn.respond_with_headers(
        "429 Too Many Requests",
        "application/json",
        &[("Retry-After", retry_after_secs.to_string()), ("x-mqo-trace-id", trace.clone())],
        &body,
    )?;
    Ok(finish_classify(engine, trace, tenant, 429, started, request_summary, || {
        (Vec::new(), format!("refused: {reason}, retry after {retry_after_secs}s"))
    }))
}

/// Answer `504` for a request whose deadline expired at `stage`
/// (`queue`, `admitted`, or `executing`), announcing the expiry as an
/// event and a counter. Nothing is billed on this path: the request
/// either never reached the engine or every query in it failed cheaply.
#[allow(clippy::too_many_arguments)]
fn respond_deadline_expired(
    engine: &Engine,
    conn: &mut HttpConnection,
    trace: String,
    tenant: &str,
    started: u64,
    request_summary: String,
    stage: &str,
    waited_micros: u64,
    spans: Vec<FlightSpan>,
) -> io::Result<u16> {
    engine.count_deadline_expired();
    engine.fanout().emit(&Event::DeadlineExpired {
        trace: trace.clone(),
        stage: stage.to_string(),
        waited_micros,
    });
    traced_json(
        conn,
        "504 Gateway Timeout",
        &trace,
        &json!({
            "error": "deadline exceeded",
            "stage": stage,
            "tenant": tenant,
            "waited_micros": waited_micros,
        }),
    )?;
    Ok(finish_classify(engine, trace, tenant, 504, started, request_summary, || {
        (spans, format!("deadline exceeded at {stage} after {waited_micros}us"))
    }))
}

fn handle_classify(
    engine: &Engine,
    gate: &SlotGate,
    overload: &OverloadControl,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<u16> {
    let started = MONOTONIC_CLOCK.now_micros();
    let trace = trace_for(req, engine);
    let deadline = match deadline_for(req, started) {
        Ok(d) => d,
        Err(e) => {
            traced_json(conn, "400 Bad Request", &trace, &json!({"error": e}))?;
            return Ok(finish_classify(
                engine,
                trace,
                "-",
                400,
                started,
                "bad x-mqo-deadline-ms".into(),
                || (Vec::new(), e),
            ));
        }
    };
    let (nodes, tenant) = match parse_classify(req, engine) {
        Ok(parsed) => parsed,
        Err(e) => {
            traced_json(conn, "400 Bad Request", &trace, &json!({"error": e}))?;
            return Ok(finish_classify(
                engine,
                trace,
                "-",
                400,
                started,
                "unparseable classify body".into(),
                || (Vec::new(), e),
            ));
        }
    };
    let request_summary = format!("classify {} node(s), tenant {}", nodes.len(), tenant);
    match engine.admit(&tenant) {
        Ok(()) => {}
        Err(Rejection::Draining) => {
            traced_json(
                conn,
                "503 Service Unavailable",
                &trace,
                &json!({"error": "draining", "tenant": tenant}),
            )?;
            return Ok(finish_classify(
                engine,
                trace,
                &tenant,
                503,
                started,
                request_summary,
                || (Vec::new(), "refused: draining".into()),
            ));
        }
        Err(Rejection::TenantExhausted(t)) => {
            traced_json(
                conn,
                "429 Too Many Requests",
                &trace,
                &json!({
                    "error": "tenant budget exhausted",
                    "tenant": t.tenant,
                    "budget": t.budget,
                    "spent_tokens": t.spent_tokens,
                }),
            )?;
            return Ok(finish_classify(
                engine,
                trace,
                &tenant,
                429,
                started,
                request_summary,
                || {
                    let summary = format!(
                        "refused: {} of {} budget tokens spent",
                        t.spent_tokens, t.budget
                    );
                    (Vec::new(), summary)
                },
            ));
        }
        Err(Rejection::Saturated) => unreachable!("admit never reports slot saturation"),
    }
    // Adaptive shedding: the controller may refuse before the slot gate
    // is consulted — standing-queue sojourn or a tenant past its fair
    // share of the wait room.
    if let Admit::Shed(reason) = overload.admit(&tenant, gate.waiting(), started) {
        let retry_after = overload.retry_after_secs(gate.waiting());
        engine.count_shed();
        engine.fanout().emit(&Event::RequestShed {
            tenant: tenant.clone(),
            reason: reason.to_string(),
            retry_after_secs: retry_after,
        });
        return respond_shed(
            engine,
            conn,
            trace,
            &tenant,
            started,
            request_summary,
            retry_after,
            reason,
        );
    }
    // A fair-share seat is held from here on: every exit path below must
    // release it exactly once.
    let wait_budget =
        deadline.map(|d| Duration::from_micros(d.saturating_sub(MONOTONIC_CLOCK.now_micros())));
    let (permit, sojourn) = match gate.acquire_within(wait_budget) {
        Ok(granted) => granted,
        Err(AcquireError::Saturated) => {
            overload.release(&tenant);
            overload.note_shed(started);
            engine.count_queue_rejection();
            let retry_after = overload.retry_after_secs(gate.waiting());
            engine.fanout().emit(&Event::RequestShed {
                tenant: tenant.clone(),
                reason: "saturated".to_string(),
                retry_after_secs: retry_after,
            });
            return respond_shed(
                engine,
                conn,
                trace,
                &tenant,
                started,
                request_summary,
                retry_after,
                "saturated",
            );
        }
        Err(AcquireError::DeadlineExpired) => {
            overload.release(&tenant);
            let now = MONOTONIC_CLOCK.now_micros();
            overload.note_shed(now);
            return respond_deadline_expired(
                engine,
                conn,
                trace,
                &tenant,
                started,
                request_summary,
                "queue",
                now.saturating_sub(started),
                Vec::new(),
            );
        }
    };
    let admitted_at = MONOTONIC_CLOCK.now_micros();
    overload.note_sojourn(sojourn.as_micros() as u64, admitted_at);
    // The wait may have consumed the whole budget even though a slot
    // freed up: fail fast rather than render a prompt nobody can bill.
    if deadline.is_some_and(|d| admitted_at >= d) {
        drop(permit);
        overload.release(&tenant);
        return respond_deadline_expired(
            engine,
            conn,
            trace,
            &tenant,
            started,
            request_summary,
            "admitted",
            admitted_at.saturating_sub(started),
            Vec::new(),
        );
    }
    // Brown-out: past the pressure threshold, admitted work runs with
    // pruned neighbor-free prompts. Transitions are announced once.
    let (degraded, transition) = overload.brownout(admitted_at);
    if let Some(t) = transition {
        engine.fanout().emit(&match t {
            BrownoutTransition::Entered { pressure_milli } => {
                Event::BrownoutEnter { pressure_milli }
            }
            BrownoutTransition::Exited { pressure_milli } => {
                Event::BrownoutExit { pressure_milli }
            }
        });
    }
    // Run the batch right here, on the handler's thread, under the
    // permit's bounded telemetry track — no queue, no reply channel. A
    // per-request collector rides alongside the shared fanout so the
    // flight recorder can rebuild this request's span tree afterwards.
    // The request deadline rides a thread-local into the resilient LLM
    // client, which stops metering the moment it cannot finish in time.
    mqo_obs::set_thread_track(permit.slot() + 1);
    let collector = Recorder::with_capacity(4096);
    let mut batch = {
        let _deadline_guard = deadline.map(mqo_llm::with_request_deadline);
        let tee = Tee::new(engine.fanout(), &collector);
        let _span = engine.tracer().span(
            &tee,
            "request",
            || format!("{request_summary} [{trace}]"),
            engine.run_scope(),
        );
        engine.process_shaped(&nodes, &tenant, &trace, Some(&collector), degraded)
    };
    // Answer in the id space the client spoke: on shard workers the
    // records come back in local ids and the router joins on "node".
    engine.globalize(&mut batch);
    drop(permit);
    let done = MONOTONIC_CLOCK.now_micros();
    overload.note_service(done.saturating_sub(admitted_at));
    overload.release(&tenant);
    engine.count_request();
    engine.metrics().add_events_dropped(collector.dropped());
    // A deadline that expired mid-execution leaves a batch where every
    // query failed cheaply and nothing was billed: that is a `504`, not
    // a `200` full of fallback predictions.
    if deadline.is_some_and(|d| done >= d)
        && batch.billed_tokens == 0
        && batch.replayed == 0
        && !batch.records.is_empty()
        && batch.records.iter().all(|r| r.failed())
    {
        return respond_deadline_expired(
            engine,
            conn,
            trace,
            &tenant,
            started,
            request_summary,
            "executing",
            done.saturating_sub(started),
            spans_from_events(&collector.events()),
        );
    }
    // The body carries `"trace"` because the batch ran under `trace`.
    let mut body = String::with_capacity(160 + 320 * batch.records.len());
    batch.write_json(&tenant, &mut body);
    body.push('\n');
    conn.respond_with_headers(
        "200 OK",
        "application/json",
        &[("x-mqo-trace-id", trace.clone())],
        &body,
    )?;
    Ok(finish_classify(engine, trace, &tenant, 200, started, request_summary, || {
        let summary = format!(
            "{} record(s), {} replayed, {} tokens billed{}",
            batch.records.len(),
            batch.replayed,
            batch.billed_tokens,
            if batch.degraded { ", degraded" } else { "" }
        );
        (spans_from_events(&collector.events()), summary)
    }))
}

/// Ingest remote pseudo-labels forwarded by the router
/// (`POST /v1/labels`, body `{"labels":[{"node":G,"label":L},..]}`).
/// Only shard workers expose the route; the exchange is control-plane
/// traffic, so it bypasses the classify admission gates (it bills
/// nothing and must keep flowing while classify sheds).
fn handle_labels(engine: &Engine, req: &Request, conn: &mut HttpConnection) -> io::Result<u16> {
    if engine.shard().is_none() {
        return json_response(conn, "404 Not Found", &json!({"error": "not a shard worker"}))
            .map(|()| 404);
    }
    let body = match wire::parse(req.body_utf8()) {
        Ok(b) => b,
        Err(e) => {
            return json_response(
                conn,
                "400 Bad Request",
                &json!({"error": format!("invalid JSON body: {e}")}),
            )
            .map(|()| 400);
        }
    };
    let Some(list) = body.get("labels").and_then(|l| l.items()) else {
        return json_response(
            conn,
            "400 Bad Request",
            &json!({"error": "body must have a 'labels' array"}),
        )
        .map(|()| 400);
    };
    let mut labels = Vec::new();
    for entry in list {
        let (mut node, mut label) = (None, None);
        for (key, value) in entry.members().into_iter().flatten() {
            if key.is("node") {
                node = Some(value);
            } else if key.is("label") {
                label = Some(value);
            }
        }
        let (Some(node), Some(label)) =
            (node.and_then(|n| n.as_u64()), label.and_then(|l| l.as_u64()))
        else {
            return json_response(
                conn,
                "400 Bad Request",
                &json!({"error": "each label needs integer 'node' and 'label'"}),
            )
            .map(|()| 400);
        };
        let Ok(label) = u16::try_from(label) else {
            return json_response(
                conn,
                "400 Bad Request",
                &json!({"error": format!("label {label} out of class range")}),
            )
            .map(|()| 400);
        };
        labels.push((node, label));
    }
    let ingested = engine.ingest_remote_labels(&labels);
    json_response(conn, "200 OK", &json!({"ingested": ingested, "received": labels.len()}))
        .map(|()| 200)
}

/// Route one parsed request, write its response, and return the HTTP
/// status for the connection loop's request metrics.
fn handle_request(
    engine: &Engine,
    gate: &SlotGate,
    overload: &OverloadControl,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<u16> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/classify") => handle_classify(engine, gate, overload, req, conn),
        ("GET", "/v1/healthz") => {
            let (status_text, code) =
                if engine.draining() { ("draining", 503) } else { ("ok", 200) };
            let mut body = json!({"status": status_text});
            // A shard worker announces who it is, so the router (and an
            // operator curling a worker directly) can tell the shards
            // apart.
            if let (Some(shard), Value::Object(o)) = (engine.shard_json(), &mut body) {
                o.insert("shard".into(), shard);
            }
            let status_line = if code == 503 { "503 Service Unavailable" } else { "200 OK" };
            json_response(conn, status_line, &body).map(|()| code)
        }
        ("GET", "/v1/stats") => {
            let body = engine.stats_json(Some((gate.waiting(), gate.wait_cap())), gate.slots());
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("GET", "/v1/slo") => {
            let mut body = engine.slo().report_json();
            body.push('\n');
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("GET", "/v1/debug/flight") => {
            let mut body = engine.flight().to_json();
            body.push('\n');
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        ("POST", "/v1/labels") => handle_labels(engine, req, conn),
        ("POST", "/v1/drain") => {
            engine.request_drain();
            json_response(conn, "202 Accepted", &json!({"draining": true})).map(|()| 202)
        }
        ("GET", "/metrics" | "/progress") => metrics_routes(engine.metrics(), req, conn),
        ("POST" | "GET", _) => conn
            .respond(
                "404 Not Found",
                "text/plain",
                "try /v1/classify, /v1/healthz, /v1/stats, /v1/slo, /metrics\n",
            )
            .map(|()| 404),
        _ => conn
            .respond("405 Method Not Allowed", "text/plain", "only GET/POST\n")
            .map(|()| 405),
    }
}
