//! The consistent-front router: one std-only HTTP process that makes N
//! shard workers look like a single classify endpoint.
//!
//! Responsibilities, in order of importance:
//!
//! * **Routing.** `POST /v1/classify` bodies name nodes in *global* id
//!   space; the router groups them by [`crate::ShardMap`] ownership and
//!   writes every owning shard's sub-batch before it reads any answer,
//!   so the shards work on one batch at the same time, with no extra
//!   threads. A shard answers its sub-batch in order, so each record's
//!   bytes are spliced into the response at its request position without
//!   building a value tree. An answer whose record count, record shape or
//!   `"node"` ids disagree with the sub-batch is a `502` naming the
//!   shard. A batch that lands on one shard costs one upstream exchange.
//! * **Connections.** Each shard has a pool of idle keep-alive
//!   connections. An exchange checks one out (or dials a new one) and
//!   returns it only after a successful exchange, so concurrent requests
//!   to one shard never queue on one socket. The pool never holds more
//!   connections than the peak number of concurrent exchanges.
//! * **Health.** A shard that fails `eject_after` consecutive exchanges
//!   is ejected: classify traffic needing it gets an immediate `503`
//!   instead of a hung socket, and a background probe re-admits it on
//!   the first healthy `/v1/healthz`. Survivor shards keep answering
//!   throughout — partial cluster loss degrades, never blacks out.
//! * **Label relay.** Workers push boundary pseudo-labels to
//!   `POST /v1/labels` with the shards their off-shard neighbors live
//!   on; the router writes each target's batch straight from the pushed
//!   bytes and fans the batches out the same send-all-then-read way.
//!   Labels are advisory: a push toward an ejected shard is dropped and
//!   counted, never errored back to the worker.
//! * **Orphaned tokens.** When a batch fails, the shards that did answer
//!   `200` still billed their sub-batches. The router's `502`/`429`/`503`
//!   body says how many tokens that was (`orphaned_tokens`), and
//!   `mqo_shard_orphaned_tokens_total` sums them, so Σ worker billed =
//!   Σ billed reported to clients + the orphaned bucket.
//!
//! Everything is observable as `mqo_shard_*` Prometheus series on
//! `GET /metrics`, and `GET /v1/healthz` reports per-shard health so the
//! smoke scripts (and operators) can see a degraded cluster at a glance.

use crate::partition::ShardMap;
use mqo_obs::httpd::{http_get, HttpClient, HttpConnection, HttpServer, Request};
use mqo_obs::wire::{self, Span};
use mqo_obs::{Counter, CounterVec, GaugeVec, Registry};
use parking_lot::Mutex;
use serde_json::{json, Value};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Worker address of each shard; index is the shard id. Length must
    /// equal the map's shard count.
    pub shards: Vec<SocketAddr>,
    /// Consecutive upstream failures before a shard is ejected.
    pub eject_after: u32,
    /// How often the probe thread retries ejected shards.
    pub probe_interval: Duration,
}

impl RouterConfig {
    /// Defaults: eject after 3 consecutive failures, probe every 250ms.
    pub fn new(shards: Vec<SocketAddr>) -> RouterConfig {
        RouterConfig { shards, eject_after: 3, probe_interval: Duration::from_millis(250) }
    }
}

struct ShardState {
    addr: SocketAddr,
    /// Idle keep-alive connections to the worker. The lock is held only
    /// to push or pop one.
    idle: Mutex<Vec<HttpClient>>,
    failures: AtomicU32,
    ejected: AtomicBool,
}

struct Inner {
    map: ShardMap,
    shards: Vec<ShardState>,
    eject_after: u32,
    registry: Arc<Registry>,
    shutdown: AtomicBool,
    requests: Arc<CounterVec>,
    routed: Arc<CounterVec>,
    fanout_batches: Arc<Counter>,
    ejections: Arc<CounterVec>,
    readmissions: Arc<CounterVec>,
    ejected_gauge: Arc<GaugeVec>,
    label_pushes: Arc<Counter>,
    labels_forwarded: Arc<CounterVec>,
    labels_dropped: Arc<CounterVec>,
    upstream_errors: Arc<CounterVec>,
    orphaned_tokens: Arc<Counter>,
}

/// The running router process: a handler on the shared
/// [`HttpServer`], a health-probe thread, and per-shard pools of
/// upstream connections. Drop via [`Router::shutdown`].
pub struct Router {
    inner: Arc<Inner>,
    http: HttpServer,
    probe: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and start serving.
    ///
    /// # Panics
    /// If the shard list length disagrees with the map.
    pub fn start(addr: &str, map: ShardMap, cfg: RouterConfig) -> io::Result<Router> {
        assert_eq!(
            cfg.shards.len() as u32,
            map.num_shards(),
            "router needs one worker address per shard"
        );
        let registry = Arc::new(Registry::new());
        let requests = registry.counter_vec(
            "mqo_shard_router_requests_total",
            "Requests handled by the router, by route",
            &["route"],
        );
        let routed = registry.counter_vec(
            "mqo_shard_routed_requests_total",
            "Classify sub-batches forwarded to each shard",
            &["shard"],
        );
        let fanout_batches = registry.counter(
            "mqo_shard_fanout_batches_total",
            "Classify batches that spanned more than one shard",
        );
        let ejections = registry.counter_vec(
            "mqo_shard_ejections_total",
            "Times each shard was ejected for consecutive failures",
            &["shard"],
        );
        let readmissions = registry.counter_vec(
            "mqo_shard_readmissions_total",
            "Times each shard was re-admitted after a healthy probe",
            &["shard"],
        );
        let ejected_gauge = registry.gauge_vec(
            "mqo_shard_ejected",
            "Whether each shard is currently ejected (1) or serving (0)",
            &["shard"],
        );
        let label_pushes = registry.counter(
            "mqo_shard_label_pushes_total",
            "Label-exchange pushes received from workers",
        );
        let labels_forwarded = registry.counter_vec(
            "mqo_shard_labels_forwarded_total",
            "Pseudo-labels forwarded to each neighbor-owning shard",
            &["shard"],
        );
        let labels_dropped = registry.counter_vec(
            "mqo_shard_labels_dropped_total",
            "Pseudo-labels dropped because the target shard was unreachable",
            &["shard"],
        );
        let upstream_errors = registry.counter_vec(
            "mqo_shard_upstream_errors_total",
            "Failed exchanges with each shard worker",
            &["shard"],
        );
        let orphaned_tokens = registry.counter(
            "mqo_shard_orphaned_tokens_total",
            "Tokens billed by shards that answered a batch the router then failed",
        );
        let shards = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(s, &addr)| {
                ejected_gauge.with(&[&s.to_string()]).set(0);
                ShardState {
                    addr,
                    idle: Mutex::new(Vec::new()),
                    failures: AtomicU32::new(0),
                    ejected: AtomicBool::new(false),
                }
            })
            .collect();
        let inner = Arc::new(Inner {
            map,
            shards,
            eject_after: cfg.eject_after.max(1),
            registry,
            shutdown: AtomicBool::new(false),
            requests,
            routed,
            fanout_batches,
            ejections,
            readmissions,
            ejected_gauge,
            label_pushes,
            labels_forwarded,
            labels_dropped,
            upstream_errors,
            orphaned_tokens,
        });

        let http = HttpServer::start(addr, &inner.registry, {
            let inner = inner.clone();
            move |req, conn| inner.route(req, conn)
        })?;
        let probe = {
            let inner = inner.clone();
            let interval = cfg.probe_interval;
            thread::Builder::new().name("mqo-route-probe".into()).spawn(move || {
                while !inner.shutdown.load(Ordering::SeqCst) {
                    thread::sleep(interval);
                    inner.probe_ejected();
                }
            })?
        };
        Ok(Router { inner, http, probe: Some(probe) })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The router's metric registry (the `/metrics` content).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.inner.registry
    }

    /// Whether `shard` is currently ejected.
    pub fn is_ejected(&self, shard: u32) -> bool {
        self.inner.shards[shard as usize].ejected.load(Ordering::SeqCst)
    }

    /// Stop the HTTP server — stop accepting, half-close idle
    /// keep-alive connections, join their threads; a request already in
    /// flight finishes — then join the probe thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.http.stop();
        if let Some(h) = self.probe.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One request for one shard's worker.
struct Outbound<'a> {
    shard: u32,
    method: &'static str,
    path: &'static str,
    body: Option<&'a str>,
    trace: Option<&'a str>,
}

impl Outbound<'_> {
    fn write(&self, client: &mut HttpClient) -> io::Result<()> {
        client.send(
            self.method,
            self.path,
            self.body,
            self.trace.map(|t| ("x-mqo-trace-id", t)),
        )
    }
}

/// A shard's answer to one [`Outbound`]. Dropping it returns the
/// connection that carried it to the shard's idle pool.
struct Reply<'a> {
    state: &'a ShardState,
    /// The answer's status code; `None` when the exchange failed.
    status: Option<u16>,
    /// Set when the exchange completed; its last response is the answer.
    client: Option<HttpClient>,
}

impl Reply<'_> {
    /// The answer's body as text (lossy only where it is not UTF-8).
    fn body(&self) -> Cow<'_, str> {
        self.client.as_ref().map_or(Cow::Borrowed(""), |c| String::from_utf8_lossy(c.body()))
    }
}

impl Drop for Reply<'_> {
    fn drop(&mut self) {
        if let Some(c) = self.client.take().filter(HttpClient::is_open) {
            self.state.idle.lock().push(c);
        }
    }
}

/// One shard's `200` answer to a classify sub-batch, as spans of its body.
struct Answer<'a> {
    billed: u64,
    degraded: bool,
    replayed: bool,
    tenant: Option<Span<'a>>,
    records: Option<Span<'a>>,
}

/// Why a classify batch cannot be answered.
enum Failure<'a> {
    /// The router's own verdict on a shard's exchange: a `502`.
    Bad(u32, String),
    /// A shard refused its sub-batch (shed, draining, …): relay its
    /// status and body rather than invent one.
    Refused(&'static str, u32, &'a str),
}

impl Inner {
    /// Answer one request; returns the status sent.
    fn route(&self, req: &Request, conn: &mut HttpConnection) -> io::Result<u16> {
        let (route, (status, body)) = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/healthz") => ("/v1/healthz", self.healthz()),
            ("GET", "/v1/stats") => ("/v1/stats", ("200 OK", self.stats())),
            ("GET", "/metrics") => ("/metrics", ("200 OK", self.registry.render_prometheus())),
            ("POST", "/v1/classify") => ("/v1/classify", self.classify(req)),
            ("POST", "/v1/labels") => ("/v1/labels", self.relay_labels(req)),
            ("GET", _) | ("POST", _) => {
                ("other", ("404 Not Found", "{\"error\":\"no such route\"}".to_string()))
            }
            _ => {
                conn.respond("405 Method Not Allowed", "text/plain", "only GET/POST\n")?;
                return Ok(405);
            }
        };
        self.requests.with(&[route]).inc();
        let content_type =
            if route == "/metrics" { "text/plain; version=0.0.4" } else { "application/json" };
        conn.respond(status, content_type, &body)?;
        Ok(status[..3].parse().expect("status lines start with a code"))
    }

    fn healthz(&self) -> (&'static str, String) {
        let shards: Vec<Value> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, st)| {
                json!({
                    "shard": s,
                    "addr": st.addr.to_string(),
                    "healthy": !st.ejected.load(Ordering::SeqCst),
                })
            })
            .collect();
        let down = self.shards.iter().filter(|s| s.ejected.load(Ordering::SeqCst)).count();
        let status = if down == 0 { "ok" } else { "degraded" };
        // Degraded is still 200: the router itself is up and survivor
        // shards answer. Only a fully ejected cluster is a 503.
        let http = if down == self.shards.len() { "503 Service Unavailable" } else { "200 OK" };
        (
            http,
            jstr(&json!({
                "status": status,
                "role": "router",
                "num_shards": self.shards.len(),
                "ejected": down,
                "shards": shards,
            })),
        )
    }

    fn stats(&self) -> String {
        let reqs: Vec<Outbound<'_>> = (0..self.shards.len() as u32)
            .map(|shard| Outbound {
                shard,
                method: "GET",
                path: "/v1/stats",
                body: None,
                trace: None,
            })
            .collect();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut queries = 0u64;
        let mut requests = 0u64;
        let mut pseudo = 0u64;
        let mut peak_rss = 0u64;
        for reply in self.fan_out(&reqs) {
            let stats = match reply.status {
                Some(200) => serde_json::from_str(&reply.body()).unwrap_or(Value::Null),
                _ => Value::Null,
            };
            if let Some(o) = stats.as_object() {
                queries += o.get("queries").and_then(Value::as_u64).unwrap_or(0);
                requests += o.get("requests").and_then(Value::as_u64).unwrap_or(0);
                pseudo += o.get("pseudo_labels").and_then(Value::as_u64).unwrap_or(0);
                peak_rss =
                    peak_rss.max(o.get("peak_rss_mb").and_then(Value::as_u64).unwrap_or(0));
            }
            per_shard.push(stats);
        }
        jstr(&json!({
            "role": "router",
            "num_shards": self.shards.len(),
            "nodes": self.map.num_nodes(),
            "queries": queries,
            "requests": requests,
            "pseudo_labels": pseudo,
            "peak_rss_mb": peak_rss,
            "shards": per_shard,
        }))
    }

    /// Route a classify batch: group global node ids by owner, send every
    /// shard its sub-batch, then splice the records back in request order.
    fn classify(&self, req: &Request) -> (&'static str, String) {
        let body = match wire::parse(req.body_utf8()) {
            Ok(b) => b,
            Err(e) => return bad_request(format!("invalid JSON body: {e}")),
        };
        // Every member but the node list rides along verbatim to each shard.
        let (mut node, mut list, mut rest) = (None, None, String::new());
        for (key, value) in body.members().into_iter().flatten() {
            if key.is("node") {
                node = Some(value);
            } else if key.is("nodes") {
                list = Some(value);
            } else {
                let _ = write!(rest, "\"{}\":{},", key.text(), value.text());
            }
        }
        let nodes: Vec<u64> = match (node, list) {
            (Some(n), None) => match n.as_u64() {
                Some(n) => vec![n],
                None => return bad_request("'node' must be a non-negative integer".into()),
            },
            (None, Some(list)) => {
                let Some(items) = list.items() else {
                    return bad_request("'nodes' must be an array".into());
                };
                match items.map(|n| n.as_u64()).collect::<Option<Vec<u64>>>() {
                    Some(v) if v.is_empty() => {
                        return bad_request("'nodes' must not be empty".into())
                    }
                    Some(v) => v,
                    None => {
                        return bad_request(
                            "'nodes' entries must be non-negative integers".into(),
                        )
                    }
                }
            }
            _ => return bad_request("body must have exactly one of 'node' or 'nodes'".into()),
        };
        if let Some(&bad) = nodes.iter().find(|&&n| n >= u64::from(self.map.num_nodes())) {
            return bad_request(format!(
                "node {bad} out of range (partition covers {} nodes)",
                self.map.num_nodes()
            ));
        }

        // Group by owner, preserving first-appearance shard order, and
        // remember each request position's (group, slot): a shard answers
        // its sub-batch in order.
        let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::with_capacity(nodes.len());
        for &n in &nodes {
            let owner = self.map.owner(n as u32);
            let g = match groups.iter().position(|(s, _)| *s == owner) {
                Some(g) => g,
                None => {
                    groups.push((owner, Vec::new()));
                    groups.len() - 1
                }
            };
            slots.push((g, groups[g].1.len()));
            groups[g].1.push(n);
        }
        if groups.len() > 1 {
            self.fanout_batches.inc();
        }
        // Fail fast before any shard does work: a required shard being
        // down makes the whole batch unanswerable.
        if let Some((s, _)) =
            groups.iter().find(|(s, _)| self.shards[*s as usize].ejected.load(Ordering::SeqCst))
        {
            return (
                "503 Service Unavailable",
                error_body(&format!("shard {s} is ejected"), *s, 0),
            );
        }

        let bodies: Vec<String> = groups
            .iter()
            .map(|(_, group)| {
                let mut sub = format!("{{{rest}\"nodes\":[");
                for (i, n) in group.iter().enumerate() {
                    if i > 0 {
                        sub.push(',');
                    }
                    let _ = write!(sub, "{n}");
                }
                sub.push_str("]}");
                sub
            })
            .collect();
        let trace = req.header("x-mqo-trace-id");
        let reqs: Vec<Outbound<'_>> = groups
            .iter()
            .zip(&bodies)
            .map(|((shard, _), body)| {
                self.routed.with(&[&shard.to_string()]).inc();
                Outbound {
                    shard: *shard,
                    method: "POST",
                    path: "/v1/classify",
                    body: Some(body),
                    trace,
                }
            })
            .collect();
        let replies = self.fan_out(&reqs);
        let texts: Vec<Cow<'_, str>> = replies.iter().map(Reply::body).collect();

        // Every answer is in; the first failure in shard order decides.
        let mut records: Vec<Vec<&str>> = Vec::with_capacity(groups.len());
        let (mut billed, mut degraded, mut replayed) = (0u64, false, false);
        let mut tenant: Option<Span<'_>> = None;
        let mut failure: Option<Failure<'_>> = None;
        for (((shard, group), reply), text) in groups.iter().zip(&replies).zip(&texts) {
            let answer = match reply.status {
                Some(200) => read_answer(text),
                Some(code) => {
                    failure.get_or_insert(Failure::Refused(relayed_status(code), *shard, text));
                    continue;
                }
                None => None,
            };
            let Some(answer) = answer else {
                failure.get_or_insert(Failure::Bad(
                    *shard,
                    format!("shard {shard} failed mid-batch"),
                ));
                continue;
            };
            billed += answer.billed;
            match splice_records(answer.records, group) {
                Ok(spans) => records.push(spans),
                Err(why) => {
                    failure.get_or_insert(Failure::Bad(
                        *shard,
                        format!("shard {shard} answered a malformed batch: {why}"),
                    ));
                    continue;
                }
            }
            degraded |= answer.degraded;
            replayed |= answer.replayed;
            if tenant.is_none() {
                tenant = answer.tenant.filter(|t| !t.is_null());
            }
        }
        if let Some(failure) = failure {
            // The shards that answered 200 billed their sub-batches all
            // the same; report those tokens instead of losing them.
            self.orphaned_tokens.add(billed);
            return match failure {
                Failure::Bad(shard, msg) => {
                    ("502 Bad Gateway", error_body(&msg, shard, billed))
                }
                Failure::Refused(status, shard, body) => {
                    (status, relayed_body(body, shard, billed))
                }
            };
        }

        // Keys in the sorted order a `serde_json` object renders in.
        let mut out = String::with_capacity(texts.iter().map(|t| t.len()).sum::<usize>() + 128);
        let _ =
            write!(out, "{{\"billed_tokens\":{billed},\"degraded\":{degraded},\"records\":[");
        for (i, &(g, slot)) in slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(records[g][slot]);
        }
        let _ = write!(out, "],\"replayed\":{replayed},\"shards\":[");
        for (i, (shard, _)) in groups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{shard}");
        }
        out.push_str("],\"tenant\":");
        out.push_str(tenant.map_or("null", |t| t.text()));
        if let Some(t) = trace {
            out.push_str(",\"trace\":");
            wire::escape_json(&mut out, t);
        }
        out.push('}');
        ("200 OK", out)
    }

    /// Relay a worker's boundary pseudo-labels to the shards owning the
    /// labeled nodes' neighbors: each target's body is written straight
    /// from the pushed label fields.
    fn relay_labels(&self, req: &Request) -> (&'static str, String) {
        let body = match wire::parse(req.body_utf8()) {
            Ok(b) => b,
            Err(e) => return bad_request(format!("invalid JSON body: {e}")),
        };
        self.label_pushes.inc();
        let (mut from, mut labels) = (None, None);
        for (key, value) in body.members().into_iter().flatten() {
            if key.is("from_shard") {
                from = Some(value);
            } else if key.is("labels") {
                labels = Some(value);
            }
        }
        let from = from.and_then(|f| f.as_u64()).unwrap_or(u64::MAX);
        let Some(labels) = labels.and_then(|l| l.items()) else {
            return bad_request("body must have a 'labels' array".into());
        };
        // Regroup the per-node target lists into one payload per shard.
        let num_shards = self.shards.len();
        let mut per_target: Vec<(String, usize)> = vec![(String::new(), 0); num_shards];
        for entry in labels {
            let (mut node, mut label, mut targets) = (None, None, None);
            for (key, value) in entry.members().into_iter().flatten() {
                if key.is("node") {
                    node = Some(value);
                } else if key.is("label") {
                    label = Some(value);
                } else if key.is("shards") {
                    targets = Some(value);
                }
            }
            let (Some(node), Some(label)) =
                (node.and_then(|n| n.as_u64()), label.and_then(|l| l.as_u64()))
            else {
                return bad_request("label entries need integer 'node' and 'label'".into());
            };
            let Some(targets) = targets.and_then(|t| t.items()) else {
                return bad_request("label entries need a 'shards' array".into());
            };
            for t in targets {
                let Some(t) = t.as_u64().filter(|&t| t < num_shards as u64) else {
                    return bad_request("label target shard out of range".into());
                };
                if t != from {
                    let (payload, count) = &mut per_target[t as usize];
                    payload.push_str(if *count == 0 { "{\"labels\":[" } else { "," });
                    let _ = write!(payload, "{{\"label\":{label},\"node\":{node}}}");
                    *count += 1;
                }
            }
        }

        let mut forwarded = 0usize;
        let mut dropped = 0usize;
        for (payload, count) in &mut per_target {
            if *count > 0 {
                payload.push_str("]}");
            }
        }
        let mut reqs = Vec::new();
        for (target, (payload, count)) in per_target.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            if self.shards[target].ejected.load(Ordering::SeqCst) {
                self.labels_dropped.with(&[&target.to_string()]).add(*count as u64);
                dropped += *count;
            } else {
                reqs.push(Outbound {
                    shard: target as u32,
                    method: "POST",
                    path: "/v1/labels",
                    body: Some(payload.as_str()),
                    trace: None,
                });
            }
        }
        for (out, reply) in reqs.iter().zip(self.fan_out(&reqs)) {
            let count = per_target[out.shard as usize].1;
            let label = out.shard.to_string();
            if reply.status == Some(200) {
                self.labels_forwarded.with(&[&label]).add(count as u64);
                forwarded += count;
            } else {
                // Advisory traffic: losing it costs γ readiness some
                // remote cues, not correctness. Count and move on.
                self.labels_dropped.with(&[&label]).add(count as u64);
                dropped += count;
            }
        }
        let targets = per_target.iter().filter(|(_, count)| *count > 0).count();
        (
            "200 OK",
            jstr(&json!({"forwarded": forwarded, "dropped": dropped, "targets": targets})),
        )
    }

    /// Exchange every request with its shard at once: write them all,
    /// then read the answers in order. Every answer sent for is read
    /// before this returns, whatever an earlier one said, so a pooled
    /// connection never carries an unread answer.
    fn fan_out(&self, reqs: &[Outbound<'_>]) -> Vec<Reply<'_>> {
        let sent: Vec<(io::Result<HttpClient>, bool)> =
            reqs.iter().map(|r| self.send(r)).collect();
        reqs.iter().zip(sent).map(|(r, sent)| self.finish(r, sent)).collect()
    }

    /// Check out an idle connection to the request's shard (or dial a new
    /// one) and write the request on it; the flag says it was pooled.
    fn send(&self, req: &Outbound<'_>) -> (io::Result<HttpClient>, bool) {
        let st = &self.shards[req.shard as usize];
        let pooled = st.idle.lock().pop();
        let reused = pooled.is_some();
        let client = pooled.map_or_else(|| HttpClient::connect(st.addr), Ok);
        (client.and_then(|mut c| req.write(&mut c).map(|()| c)), reused)
    }

    /// Read the answer to a sent request, with health bookkeeping:
    /// success clears the failure streak (and re-admits an ejected shard
    /// that answered anyway); failure drops the connection and may eject.
    /// A failure on a *pooled* connection retries once on a fresh one
    /// before counting, so a worker-side idle close never surfaces as a
    /// 502 or an ejection.
    fn finish(
        &self,
        req: &Outbound<'_>,
        (sent, reused): (io::Result<HttpClient>, bool),
    ) -> Reply<'_> {
        let st = &self.shards[req.shard as usize];
        let read = |sent: io::Result<HttpClient>| {
            sent.and_then(|mut c| c.recv().map(|code| (code, c)))
        };
        let mut result = read(sent);
        // A worker may close an idle keep-alive connection at any time
        // (idle timeout, restart), and the first reuse then fails before
        // the worker ever sees the request. One fresh-connection retry
        // distinguishes a stale socket from a dead shard — requests are
        // deterministic, so replaying one is safe. A genuinely dead
        // worker refuses the reconnect and still lands in the failure
        // bookkeeping below.
        if result.is_err() && reused {
            if let Ok(mut c) = HttpClient::connect(st.addr) {
                result = read(req.write(&mut c).map(|()| c));
            }
        }
        match result {
            Ok((code, client)) => {
                st.failures.store(0, Ordering::SeqCst);
                if st.ejected.swap(false, Ordering::SeqCst) {
                    let label = req.shard.to_string();
                    self.readmissions.with(&[&label]).inc();
                    self.ejected_gauge.with(&[&label]).set(0);
                }
                Reply { state: st, status: Some(code), client: Some(client) }
            }
            Err(_) => {
                self.note_failure(req.shard);
                Reply { state: st, status: None, client: None }
            }
        }
    }

    fn note_failure(&self, shard: u32) {
        let st = &self.shards[shard as usize];
        let label = shard.to_string();
        self.upstream_errors.with(&[&label]).inc();
        let streak = st.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if streak >= self.eject_after && !st.ejected.swap(true, Ordering::SeqCst) {
            self.ejections.with(&[&label]).inc();
            self.ejected_gauge.with(&[&label]).set(1);
        }
    }

    /// Retry every ejected shard's healthz once; re-admit on success.
    fn probe_ejected(&self) {
        for (s, st) in self.shards.iter().enumerate() {
            if !st.ejected.load(Ordering::SeqCst) {
                continue;
            }
            if matches!(http_get(st.addr, "/v1/healthz"), Ok((status, _)) if status.contains("200"))
            {
                st.failures.store(0, Ordering::SeqCst);
                if st.ejected.swap(false, Ordering::SeqCst) {
                    let label = s.to_string();
                    self.readmissions.with(&[&label]).inc();
                    self.ejected_gauge.with(&[&label]).set(0);
                }
            }
        }
    }
}

/// Read a shard's `200` classify body; `None` if it is not JSON. Members
/// missing or of the wrong type read as zero/false/absent, and a repeated
/// key keeps its last value, as a parsed `serde_json` object would.
fn read_answer(text: &str) -> Option<Answer<'_>> {
    let doc = wire::parse(text).ok()?;
    let mut a =
        Answer { billed: 0, degraded: false, replayed: false, tenant: None, records: None };
    for (key, value) in doc.members().into_iter().flatten() {
        if key.is("billed_tokens") {
            a.billed = value.as_u64().unwrap_or(0);
        } else if key.is("degraded") {
            a.degraded = value.as_bool().unwrap_or(false);
        } else if key.is("replayed") {
            a.replayed = value.as_bool().unwrap_or(false);
        } else if key.is("tenant") {
            a.tenant = Some(value);
        } else if key.is("records") {
            a.records = Some(value);
        }
    }
    Some(a)
}

/// The record spans of one shard's answer, in sub-batch order. The shard
/// must answer every node it was sent, in order: anything else says why
/// not.
fn splice_records<'a>(
    records: Option<Span<'a>>,
    group: &[u64],
) -> Result<Vec<&'a str>, String> {
    let items = records.and_then(|r| r.items()).ok_or("no 'records' array")?;
    let mut spans = Vec::with_capacity(group.len());
    for (i, record) in items.enumerate() {
        let Some(&want) = group.get(i) else {
            return Err(format!("more than {} records", group.len()));
        };
        if record.members().is_none() {
            return Err(format!("record {i} is not an object"));
        }
        if record.get("node").and_then(|n| n.as_u64()) != Some(want) {
            return Err(format!("record {i} is not for node {want}"));
        }
        spans.push(record.text());
    }
    if spans.len() != group.len() {
        return Err(format!("{} records for {} nodes", spans.len(), group.len()));
    }
    Ok(spans)
}

/// The router's status for a shard's non-`200` classify answer.
fn relayed_status(code: u16) -> &'static str {
    match code {
        429 => "429 Too Many Requests",
        503 => "503 Service Unavailable",
        _ => "502 Bad Gateway",
    }
}

/// The router's own error body for a failed batch.
fn error_body(msg: &str, shard: u32, orphaned: u64) -> String {
    jstr(&json!({"error": msg, "orphaned_tokens": orphaned, "shard": shard}))
}

/// A refusing shard's body with `orphaned_tokens` spliced in front of its
/// members; a body that is not a JSON object becomes the error message.
fn relayed_body(body: &str, shard: u32, orphaned: u64) -> String {
    match wire::parse(body).ok().filter(|b| b.members().is_some()) {
        Some(object) => {
            let inner = object.text()[1..].trim_start();
            let sep = if inner.starts_with('}') { "" } else { "," };
            format!("{{\"orphaned_tokens\":{orphaned}{sep}{inner}")
        }
        None => error_body(body, shard, orphaned),
    }
}

/// Stringify a JSON value (the vendored `Value` has no `Display`).
fn jstr(v: &Value) -> String {
    serde_json::to_string(v).expect("response serialization")
}

fn bad_request(msg: String) -> (&'static str, String) {
    ("400 Bad Request", jstr(&json!({"error": msg})))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{partition, PartitionStrategy};
    use mqo_graph::GraphBuilder;
    use mqo_obs::http_post;
    use mqo_obs::httpd::ReadOutcome;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    /// A classify answer: status line and body, from the sub-batch's
    /// node ids and the parsed request.
    type Answerer = dyn Fn(&[u64], &Value) -> (&'static str, String) + Send + Sync;

    /// A scriptable fake shard worker: answers classify through its
    /// answerer (by default one record per node, echoing the node id) and
    /// keeps every label body it receives, until told to die.
    struct FakeShard {
        addr: SocketAddr,
        server: HttpServer,
        labels: Arc<Mutex<Vec<String>>>,
    }

    impl FakeShard {
        fn start(shard_id: u32) -> FakeShard {
            FakeShard::answering(shard_id, move |nodes, req| {
                ("200 OK", echo_answer(shard_id, nodes, req))
            })
        }

        fn answering(
            shard_id: u32,
            classify: impl Fn(&[u64], &Value) -> (&'static str, String) + Send + Sync + 'static,
        ) -> FakeShard {
            let classify: Box<Answerer> = Box::new(classify);
            let served = AtomicU32::new(0);
            let labels = Arc::new(Mutex::new(Vec::new()));
            let received = Arc::clone(&labels);
            let handler = move |req: &Request, conn: &mut HttpConnection| {
                let (status, body) = match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/v1/healthz") => ("200 OK", jstr(&json!({"status": "ok"}))),
                    ("GET", "/v1/stats") => {
                        let served = served.load(Ordering::SeqCst);
                        let stats = json!({
                            "queries": served, "requests": served,
                            "pseudo_labels": 0, "peak_rss_mb": 10 + shard_id,
                        });
                        ("200 OK", jstr(&stats))
                    }
                    ("POST", "/v1/labels") => {
                        received.lock().push(req.body_utf8().to_string());
                        ("200 OK", jstr(&json!({"ingested": true})))
                    }
                    ("POST", "/v1/classify") => {
                        served.fetch_add(1, Ordering::SeqCst);
                        let v: Value = serde_json::from_str(req.body_utf8()).unwrap();
                        let nodes: Vec<u64> = v["nodes"]
                            .as_array()
                            .unwrap()
                            .iter()
                            .filter_map(Value::as_u64)
                            .collect();
                        classify(&nodes, &v)
                    }
                    _ => ("404 Not Found", jstr(&json!({"error": "?"}))),
                };
                conn.respond(status, "application/json", &body).map(|()| 200)
            };
            let server = HttpServer::start("127.0.0.1:0", &Registry::new(), handler).unwrap();
            FakeShard { addr: server.addr(), server, labels }
        }

        fn kill(&mut self) {
            self.server.stop();
        }
    }

    /// The default fake answer: one record per node in order, 7 tokens.
    fn echo_answer(shard_id: u32, nodes: &[u64], req: &Value) -> String {
        let records: Vec<Value> = nodes
            .iter()
            .map(|n| json!({"node": *n, "predicted": shard_id, "correct": true}))
            .collect();
        jstr(&json!({
            "tenant": req.get("tenant").cloned().unwrap_or(json!("public")),
            "records": records,
            "replayed": false,
            "billed_tokens": 7,
            "degraded": false,
        }))
    }

    /// Lets parties on different threads wait for each other, each for at
    /// most a timeout, so a test can prove two requests were in flight at
    /// once without timing thresholds.
    #[derive(Clone, Default)]
    struct Rendezvous(Arc<(std::sync::Mutex<usize>, std::sync::Condvar)>);

    impl Rendezvous {
        /// Arrive, then wait until `n` parties have; `false` on timeout.
        fn meet(&self, n: usize, timeout: Duration) -> bool {
            let (arrived, cv) = &*self.0;
            let mut count = arrived.lock().unwrap();
            *count += 1;
            cv.notify_all();
            let (count, _) = cv.wait_timeout_while(count, timeout, |c| *c < n).unwrap();
            *count >= n
        }
    }

    /// A fake shard answering classify only once `n` classify requests
    /// (across every shard sharing `meet`) are in flight at once; a `500`
    /// if that never happens.
    fn meeting_shard(shard_id: u32, meet: &Rendezvous, n: usize) -> FakeShard {
        let meet = meet.clone();
        FakeShard::answering(shard_id, move |nodes, req| {
            if meet.meet(n, Duration::from_secs(5)) {
                ("200 OK", echo_answer(shard_id, nodes, req))
            } else {
                ("500 Internal Server Error", "{\"error\":\"no concurrent request\"}".into())
            }
        })
    }

    /// A metric's value in a Prometheus rendering (0 when absent).
    fn metric(text: &str, series: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(series).and_then(|v| v.strip_prefix(' ')))
            .map_or(0, |v| v.trim().parse().unwrap())
    }

    fn line_map(num_nodes: u32, num_shards: u32) -> ShardMap {
        let mut b = GraphBuilder::new(num_nodes as usize);
        for v in 1..num_nodes {
            b.add_edge(v - 1, v).unwrap();
        }
        partition(&b.build(), num_shards, 5, PartitionStrategy::EdgeCut)
    }

    #[test]
    fn batches_fan_out_and_reassemble_in_request_order() {
        let map = line_map(100, 2);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();

        // Nodes deliberately interleaved across the two shard ranges.
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[99, 1, 60, 2]}"#).unwrap();
        assert!(status.contains("200"), "status: {status}, body: {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let order: Vec<u64> = v["records"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["node"].as_u64().unwrap())
            .collect();
        assert_eq!(order, vec![99, 1, 60, 2], "original request order restored");
        // Each record answered by its owner (fake shards echo their id).
        let preds: Vec<u64> = v["records"]
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r["predicted"].as_u64().unwrap())
            .collect();
        assert_eq!(preds, vec![1, 0, 1, 0]);
        assert_eq!(v["billed_tokens"].as_u64(), Some(14), "billed once per consulted shard");
        assert_eq!(v["shards"].as_array().unwrap().len(), 2);

        let metrics = router.registry().render_prometheus();
        assert!(metrics.contains("mqo_shard_fanout_batches_total 1"), "{metrics}");
        router.shutdown();
    }

    #[test]
    fn dead_shard_is_ejected_survivors_answer_and_probe_readmits() {
        let map = line_map(100, 2);
        let s0 = FakeShard::start(0);
        let mut s1 = FakeShard::start(1);
        let mut cfg = RouterConfig::new(vec![s0.addr, s1.addr]);
        cfg.eject_after = 2;
        cfg.probe_interval = Duration::from_millis(30);
        let router = Router::start("127.0.0.1:0", map, cfg).unwrap();
        let addr = router.addr();

        s1.kill();
        // Requests needing the dead shard fail until the streak ejects it.
        for _ in 0..3 {
            let _ = http_post(addr, "/v1/classify", r#"{"nodes":[90]}"#);
        }
        assert!(router.is_ejected(1), "two consecutive failures must eject");
        let (status, body) = http_post(addr, "/v1/classify", r#"{"nodes":[90]}"#).unwrap();
        assert!(status.contains("503"), "ejected shard fails fast: {status} {body}");

        // Survivors keep answering, healthz says degraded.
        let (status, body) = http_post(addr, "/v1/classify", r#"{"nodes":[3]}"#).unwrap();
        assert!(status.contains("200"), "survivor must answer: {status} {body}");
        let (_, health) = http_get(addr, "/v1/healthz").unwrap();
        assert!(health.contains("\"degraded\""), "healthz: {health}");

        // Restart the worker on the same port; the probe re-admits.
        let listener = loop {
            match TcpListener::bind(s1.addr) {
                Ok(l) => break l,
                Err(_) => thread::sleep(Duration::from_millis(10)),
            }
        };
        let revived = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = HttpConnection::new(stream).unwrap();
            let mut req = Request::default();
            while let Ok(ReadOutcome::Request) = conn.read_request(&mut req) {
                let _ = conn.respond("200 OK", "application/json", "{\"status\":\"ok\"}");
                if !conn.keep_alive() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while router.is_ejected(1) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert!(!router.is_ejected(1), "healthy probe must re-admit");
        let (_, health) = http_get(addr, "/v1/healthz").unwrap();
        assert!(health.contains("\"ok\""), "healthz after re-admit: {health}");
        router.shutdown();
        revived.join().unwrap();
    }

    #[test]
    fn label_pushes_are_regrouped_per_target_shard() {
        let map = line_map(90, 3);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let s2 = FakeShard::start(2);
        let router = Router::start(
            "127.0.0.1:0",
            map,
            RouterConfig::new(vec![s0.addr, s1.addr, s2.addr]),
        )
        .unwrap();
        let labels = vec![
            json!({"node": 29, "label": 3, "shards": vec![0]}),
            json!({"node": 59, "label": 1, "shards": vec![2]}),
            json!({"node": 30, "label": 2, "shards": vec![0, 2]}),
            // A target equal to the sender is skipped, not echoed.
            json!({"node": 31, "label": 2, "shards": vec![1]}),
        ];
        let push = jstr(&json!({"from_shard": 1, "labels": labels}));
        let (status, body) = http_post(router.addr(), "/v1/labels", &push).unwrap();
        assert!(status.contains("200"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["forwarded"].as_u64(), Some(4), "two labels to shard 0, two to shard 2");
        assert_eq!(v["targets"].as_u64(), Some(2));
        let metrics = router.registry().render_prometheus();
        assert!(
            metrics.contains("mqo_shard_labels_forwarded_total{shard=\"0\"} 2"),
            "{metrics}"
        );
        assert!(
            metrics.contains("mqo_shard_labels_forwarded_total{shard=\"2\"} 2"),
            "{metrics}"
        );
        router.shutdown();
    }

    #[test]
    fn router_stats_aggregate_worker_stats() {
        let map = line_map(40, 2);
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router =
            Router::start("127.0.0.1:0", map, RouterConfig::new(vec![s0.addr, s1.addr]))
                .unwrap();
        let _ = http_post(router.addr(), "/v1/classify", r#"{"nodes":[1, 30]}"#).unwrap();
        let (status, body) = http_get(router.addr(), "/v1/stats").unwrap();
        assert!(status.contains("200"), "{status}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["num_shards"].as_u64(), Some(2));
        assert_eq!(v["nodes"].as_u64(), Some(40), "routers advertise the global node range");
        assert_eq!(v["queries"].as_u64(), Some(2));
        assert_eq!(v["peak_rss_mb"].as_u64(), Some(11), "max over workers, not sum");
        router.shutdown();
    }

    /// Shutdown half-closes idle keep-alive client connections, so a
    /// client parked between requests reads EOF at once instead of after
    /// the connection's 5s read timeout.
    #[test]
    fn shutdown_closes_an_idle_keep_alive_connection_promptly() {
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(40, 2),
            RouterConfig::new(vec![s0.addr, s1.addr]),
        )
        .unwrap();
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        // Read exactly one response, leaving the connection open.
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("200"), "status: {line}");
        let mut length = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().unwrap();
            }
        }
        reader.read_exact(&mut vec![0; length]).unwrap();

        let started = Instant::now();
        router.shutdown();
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "client read EOF only after {:?}",
            started.elapsed()
        );
        assert!(rest.is_empty(), "no bytes after the one response: {rest:?}");
    }

    /// Malformed framing earns a 400, is counted in
    /// `mqo_http_errors_total`, and leaves the router serving.
    #[test]
    fn malformed_framing_gets_400_and_is_counted() {
        let s0 = FakeShard::start(0);
        let s1 = FakeShard::start(1);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(40, 2),
            RouterConfig::new(vec![s0.addr, s1.addr]),
        )
        .unwrap();
        let mut stream = TcpStream::connect(router.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello",
            )
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.contains("400 Bad Request"), "got: {raw}");

        let (_, metrics) = http_get(router.addr(), "/metrics").unwrap();
        let errors: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("mqo_http_errors_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        assert!(errors >= 1, "framing error not counted: {metrics}");
        let (status, _) = http_get(router.addr(), "/v1/healthz").unwrap();
        assert!(status.contains("200"), "router must survive malformed framing: {status}");
        router.shutdown();
    }

    /// A shard must answer every node of its sub-batch, in order, each as
    /// an object naming its node. A short, misordered or malformed answer
    /// is a 502 naming the shard; it used to be a 200 missing records.
    #[test]
    fn a_short_or_misordered_upstream_answer_is_a_502() {
        type Mangle = fn(&mut Vec<Value>);
        let mangles: [(&str, Mangle); 3] = [
            ("drops a record", |r| {
                r.pop();
            }),
            ("swaps two records", |r| r.swap(0, 1)),
            ("answers a non-object", |r| r[1] = json!(7)),
        ];
        for (what, mangle) in mangles {
            let s0 = FakeShard::start(0);
            let s1 = FakeShard::answering(1, move |nodes, req| {
                let mut v: Value = serde_json::from_str(&echo_answer(1, nodes, req)).unwrap();
                if let Value::Object(o) = &mut v {
                    if let Some(Value::Array(records)) = o.get_mut("records") {
                        mangle(records);
                    }
                }
                ("200 OK", jstr(&v))
            });
            let router = Router::start(
                "127.0.0.1:0",
                line_map(100, 2),
                RouterConfig::new(vec![s0.addr, s1.addr]),
            )
            .unwrap();
            let (status, body) =
                http_post(router.addr(), "/v1/classify", r#"{"nodes":[1,60,2,70,3,80]}"#)
                    .unwrap();
            assert!(status.contains("502"), "shard 1 {what}: {status} {body}");
            let v: Value = serde_json::from_str(&body).unwrap();
            assert_eq!(v["shard"].as_u64(), Some(1), "{what}: {body}");
            assert!(v["error"].as_str().unwrap().contains("shard 1"), "{what}: {body}");
            assert_eq!(v["orphaned_tokens"].as_u64(), Some(14), "both shards billed: {body}");
            router.shutdown();
        }
    }

    /// Shard 0 answers, shard 1 is down: the 502 body and the orphaned
    /// counter both carry the tokens shard 0 billed.
    #[test]
    fn a_failed_batch_reports_the_tokens_answering_shards_billed() {
        let s0 = FakeShard::start(0);
        let mut s1 = FakeShard::start(1);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(100, 2),
            RouterConfig::new(vec![s0.addr, s1.addr]),
        )
        .unwrap();
        s1.kill();
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[1,99]}"#).unwrap();
        assert!(status.contains("502"), "{status} {body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["orphaned_tokens"].as_u64(), Some(7), "{body}");
        assert_eq!(v["shard"].as_u64(), Some(1), "{body}");
        let metrics = router.registry().render_prometheus();
        assert_eq!(metric(&metrics, "mqo_shard_orphaned_tokens_total"), 7, "{metrics}");
        router.shutdown();
    }

    /// Each shard holds its answer until both have their sub-batch, so a
    /// router that waits for one answer before sending the next request
    /// gets a 500 relayed as a 502 instead of a 200.
    #[test]
    fn every_sub_batch_is_sent_before_any_answer_is_read() {
        let meet = Rendezvous::default();
        let s0 = meeting_shard(0, &meet, 2);
        let s1 = meeting_shard(1, &meet, 2);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(100, 2),
            RouterConfig::new(vec![s0.addr, s1.addr]),
        )
        .unwrap();
        let (status, body) =
            http_post(router.addr(), "/v1/classify", r#"{"nodes":[1,99]}"#).unwrap();
        assert!(status.contains("200"), "{status} {body}");
        router.shutdown();
    }

    /// Two client requests for one shard are in flight at that worker at
    /// the same time: no per-shard lock serializes them.
    #[test]
    fn concurrent_requests_to_one_shard_share_no_connection() {
        let meet = Rendezvous::default();
        let s0 = meeting_shard(0, &meet, 2);
        let s1 = FakeShard::start(1);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(100, 2),
            RouterConfig::new(vec![s0.addr, s1.addr]),
        )
        .unwrap();
        let addr = router.addr();
        let clients: Vec<_> = ["[1]", "[2]"]
            .into_iter()
            .map(|nodes| {
                thread::spawn(move || {
                    http_post(addr, "/v1/classify", &format!("{{\"nodes\":{nodes}}}")).unwrap()
                })
            })
            .collect();
        for client in clients {
            let (status, body) = client.join().unwrap();
            assert!(status.contains("200"), "{status} {body}");
        }
        router.shutdown();
    }

    /// A worker that closes every connection after one answer (while
    /// announcing keep-alive) leaves only stale connections in the pool:
    /// each reuse is retried once on a fresh connection and never counts
    /// as an upstream error.
    #[test]
    fn a_stale_pooled_connection_is_retried_without_counting_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = thread::spawn(move || {
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                let mut conn = HttpConnection::new(stream).unwrap();
                let mut req = Request::default();
                assert_eq!(conn.read_request(&mut req).unwrap(), ReadOutcome::Request);
                assert!(conn.keep_alive());
                let v: Value = serde_json::from_str(req.body_utf8()).unwrap();
                let nodes: Vec<u64> =
                    v["nodes"].as_array().unwrap().iter().filter_map(Value::as_u64).collect();
                conn.respond("200 OK", "application/json", &echo_answer(0, &nodes, &v))
                    .unwrap();
            }
        });
        let s1 = FakeShard::start(1);
        let router = Router::start(
            "127.0.0.1:0",
            line_map(100, 2),
            RouterConfig::new(vec![addr, s1.addr]),
        )
        .unwrap();
        for _ in 0..3 {
            let (status, body) =
                http_post(router.addr(), "/v1/classify", r#"{"nodes":[1]}"#).unwrap();
            assert!(status.contains("200"), "{status} {body}");
        }
        worker.join().unwrap();
        let metrics = router.registry().render_prometheus();
        assert_eq!(
            metric(&metrics, "mqo_shard_upstream_errors_total{shard=\"0\"}"),
            0,
            "{metrics}"
        );
        router.shutdown();
    }

    /// The parent's reassembly, kept as the reference: parse each shard's
    /// answer into a tree, join records by node id, re-serialize.
    fn legacy_classify(nodes: &[u64], answers: &[String], trace: Option<&str>) -> String {
        let mut by_node: std::collections::HashMap<u64, Value> = Default::default();
        let (mut billed, mut degraded, mut replayed, mut tenant) =
            (0, false, false, Value::Null);
        for answer in answers {
            let parsed: Value = serde_json::from_str(answer).unwrap();
            billed += parsed.get("billed_tokens").and_then(Value::as_u64).unwrap_or(0);
            degraded |= parsed.get("degraded").and_then(Value::as_bool).unwrap_or(false);
            replayed |= parsed.get("replayed").and_then(Value::as_bool).unwrap_or(false);
            if matches!(tenant, Value::Null) {
                tenant = parsed.get("tenant").cloned().unwrap_or(Value::Null);
            }
            for r in parsed.get("records").and_then(Value::as_array).unwrap() {
                if let Some(n) = r.get("node").and_then(Value::as_u64) {
                    by_node.insert(n, r.clone());
                }
            }
        }
        let mut shards: Vec<u32> = Vec::new();
        for answer in answers {
            let v: Value = serde_json::from_str(answer).unwrap();
            shards.push(v["shard_for_test"].as_u64().unwrap() as u32);
        }
        let records: Vec<Value> =
            nodes.iter().filter_map(|n| by_node.get(n).cloned()).collect();
        let mut out = json!({
            "tenant": tenant,
            "records": records,
            "replayed": replayed,
            "billed_tokens": billed,
            "degraded": degraded,
            "shards": shards,
        });
        if let (Some(t), Value::Object(o)) = (trace, &mut out) {
            o.insert("trace".into(), Value::String(t.to_string()));
        }
        jstr(&out)
    }

    /// The parent's label regrouping, kept as the reference: one
    /// `{"labels":[..]}` body per target shard.
    fn legacy_label_bodies(
        push: &str,
        num_shards: u64,
    ) -> std::collections::BTreeMap<u32, String> {
        let body: Value = serde_json::from_str(push).unwrap();
        let from = body.get("from_shard").and_then(Value::as_u64).unwrap_or(u64::MAX);
        let mut per_target: std::collections::BTreeMap<u32, Vec<Value>> = Default::default();
        for entry in body["labels"].as_array().unwrap() {
            let node = entry["node"].as_u64().unwrap();
            let label = entry["label"].as_u64().unwrap();
            for t in entry["shards"].as_array().unwrap() {
                let t = t.as_u64().unwrap();
                assert!(t < num_shards);
                if t != from {
                    per_target
                        .entry(t as u32)
                        .or_default()
                        .push(json!({"node": node, "label": label}));
                }
            }
        }
        per_target.into_iter().map(|(t, batch)| (t, jstr(&json!({"labels": batch})))).collect()
    }

    /// A seeded random answer for a sub-batch: records with escaped
    /// strings, floats and nested values, and a random envelope. A pure
    /// function of the shard and its nodes, so the test can recompute
    /// what each fake shard said.
    fn random_answer(shard: u32, nodes: &[u64]) -> String {
        use rand::{Rng, SeedableRng};
        let seed =
            nodes.iter().fold(u64::from(shard) + 1, |h, &n| h.wrapping_mul(1_000_003) ^ n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let text = |rng: &mut rand::rngs::StdRng| -> String {
            let chars = ['a', '"', '\\', '\n', '\u{1}', 'é', '🙂', ' '];
            (0..rng.gen_range(0..6)).map(|_| chars[rng.gen_range(0..chars.len())]).collect()
        };
        let records: Vec<Value> = nodes
            .iter()
            .map(|&n| {
                json!({
                    "node": n,
                    "predicted": rng.gen_range(0u32..7),
                    "correct": rng.gen_bool(0.5),
                    "note": text(&mut rng),
                    "score": rng.gen_range(0u32..1000) as f64 / 7.0,
                    "nested": vec![Value::Null, json!({"k": text(&mut rng)})],
                    "failure": if rng.gen_bool(0.2) { json!(text(&mut rng)) } else { Value::Null },
                })
            })
            .collect();
        let tenant = if rng.gen_bool(0.3) { Value::Null } else { json!(text(&mut rng)) };
        let replayed = if rng.gen_bool(0.5) {
            json!(rng.gen_bool(0.5))
        } else {
            json!(rng.gen_range(0u64..3))
        };
        jstr(&json!({
            "tenant": tenant,
            "records": records,
            "replayed": replayed,
            "billed_tokens": rng.gen_range(0u64..100_000),
            "degraded": rng.gen_bool(0.3),
            "shard_for_test": shard,
        }))
    }

    /// Spliced responses and written label bodies are byte-identical to
    /// the parent's tree-based ones over seeded random worker answers.
    #[test]
    fn spliced_responses_and_label_bodies_match_the_tree_oracle_byte_for_byte() {
        use rand::{Rng, SeedableRng};
        let map = line_map(90, 3);
        let shards: Vec<FakeShard> = (0..3)
            .map(|s| {
                FakeShard::answering(s, move |nodes, _| ("200 OK", random_answer(s, nodes)))
            })
            .collect();
        let router = Router::start(
            "127.0.0.1:0",
            map.clone(),
            RouterConfig::new(shards.iter().map(|s| s.addr).collect()),
        )
        .unwrap();
        let mut client = HttpClient::connect(router.addr()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        for round in 0..40 {
            let mut nodes: Vec<u64> = Vec::new();
            while nodes.len() < rng.gen_range(1..9) {
                let n = rng.gen_range(0u64..90);
                if !nodes.contains(&n) {
                    nodes.push(n);
                }
            }
            let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
            for &n in &nodes {
                let owner = map.owner(n as u32);
                match groups.iter_mut().find(|(s, _)| *s == owner) {
                    Some((_, g)) => g.push(n),
                    None => groups.push((owner, vec![n])),
                }
            }
            let answers: Vec<String> =
                groups.iter().map(|(s, g)| random_answer(*s, g)).collect();
            let trace = format!("t{round}\"\\x");
            let trace = (round % 2 == 0).then_some(trace.as_str());
            let body = jstr(&json!({"nodes": nodes.clone(), "tenant": "acme"}));
            let (status, got) = match trace {
                Some(t) => {
                    client.post_with_header("/v1/classify", &body, ("x-mqo-trace-id", t))
                }
                None => client.post("/v1/classify", &body),
            }
            .unwrap();
            assert!(status.contains("200"), "{status} {got}");
            assert_eq!(
                got,
                legacy_classify(&nodes, &answers, trace),
                "round {round}: {nodes:?}"
            );

            let labels: Vec<Value> = (0..rng.gen_range(1..20))
                .map(|_| {
                    let targets: Vec<u64> = (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..3)).collect();
                    json!({"node": rng.gen_range(0u64..90), "label": rng.gen_range(0u64..7), "shards": targets})
                })
                .collect();
            let push = jstr(&json!({"from_shard": rng.gen_range(0u64..3), "labels": labels}));
            for s in &shards {
                s.labels.lock().clear();
            }
            let (status, _) = client.post("/v1/labels", &push).unwrap();
            assert!(status.contains("200"), "{status}");
            let expected = legacy_label_bodies(&push, 3);
            for (s, shard) in shards.iter().enumerate() {
                let got = shard.labels.lock().clone();
                let want: Vec<String> =
                    expected.get(&(s as u32)).cloned().into_iter().collect();
                assert_eq!(got, want, "round {round}: label body for shard {s}");
            }
        }
        drop(client);
        router.shutdown();
    }
}
