//! The consistent-front router: one std-only HTTP process that makes N
//! shard workers look like a single classify endpoint.
//!
//! Responsibilities, in order of importance:
//!
//! * **Routing.** `POST /v1/classify` bodies name nodes in *global* id
//!   space; the router groups them by [`crate::ShardMap`] ownership,
//!   forwards one sub-batch per owning shard, and reassembles the
//!   per-node records in the caller's original order. A batch that lands
//!   on one shard is forwarded whole — the common case under
//!   locality-friendly ids costs one upstream exchange.
//! * **Health.** A shard that fails `eject_after` consecutive exchanges
//!   is ejected: classify traffic needing it gets an immediate `503`
//!   instead of a hung socket, and a background probe re-admits it on
//!   the first healthy `/v1/healthz`. Survivor shards keep answering
//!   throughout — partial cluster loss degrades, never blacks out.
//! * **Label relay.** Workers push boundary pseudo-labels to
//!   `POST /v1/labels` with the shards their off-shard neighbors live
//!   on; the router fans each batch out to those workers, which ingest
//!   them as remote cues for the γ₁/γ₂ readiness rule. Labels are
//!   advisory: a push toward an ejected shard is dropped and counted,
//!   never errored back to the worker.
//!
//! Everything is observable as `mqo_shard_*` Prometheus series on
//! `GET /metrics`, and `GET /v1/healthz` reports per-shard health so the
//! smoke scripts (and operators) can see a degraded cluster at a glance.

use crate::partition::ShardMap;
use mqo_obs::httpd::{http_get, HttpClient, HttpConnection, HttpServer, Request};
use mqo_obs::{Counter, CounterVec, GaugeVec, Registry};
use parking_lot::Mutex;
use serde_json::{json, Map, Value};
use std::collections::HashMap;
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
    /// Persistent upstream connection, rebuilt after failures.
    client: Mutex<Option<HttpClient>>,
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
}

/// The running router process: a handler on the shared
/// [`HttpServer`], a health-probe thread, and per-shard upstream
/// connections. Drop via [`Router::shutdown`].
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
        let shards = cfg
            .shards
            .iter()
            .enumerate()
            .map(|(s, &addr)| {
                ejected_gauge.with(&[&s.to_string()]).set(0);
                ShardState {
                    addr,
                    client: Mutex::new(None),
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

/// Result of one upstream exchange: the status line and body, or the
/// error that killed the connection.
type Exchange = io::Result<(String, String)>;

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
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut queries = 0u64;
        let mut requests = 0u64;
        let mut pseudo = 0u64;
        let mut peak_rss = 0u64;
        for (s, _) in self.shards.iter().enumerate() {
            let stats = match self.exchange(s as u32, |c| c.get("/v1/stats")) {
                Ok((status, body)) if status.contains("200") => {
                    serde_json::from_str(&body).unwrap_or(Value::Null)
                }
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

    /// Route a classify batch: group global node ids by owner, forward
    /// per-shard sub-batches, reassemble records in request order.
    fn classify(&self, req: &Request) -> (&'static str, String) {
        let body: Value = match serde_json::from_str(req.body_utf8()) {
            Ok(v) => v,
            Err(e) => return bad_request(format!("invalid JSON body: {e}")),
        };
        let nodes: Vec<u64> = match (body.get("node"), body.get("nodes")) {
            (Some(n), None) => match n.as_u64() {
                Some(n) => vec![n],
                None => return bad_request("'node' must be a non-negative integer".into()),
            },
            (None, Some(list)) => {
                let Some(list) = list.as_array() else {
                    return bad_request("'nodes' must be an array".into());
                };
                if list.is_empty() {
                    return bad_request("'nodes' must not be empty".into());
                }
                match list.iter().map(Value::as_u64).collect::<Option<Vec<u64>>>() {
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

        // Group by owner, preserving first-appearance shard order.
        let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
        for &n in &nodes {
            let owner = self.map.owner(n as u32);
            match groups.iter_mut().find(|(s, _)| *s == owner) {
                Some((_, g)) => g.push(n),
                None => groups.push((owner, vec![n])),
            }
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
                jstr(&json!({"error": format!("shard {s} is ejected"), "shard": *s})),
            );
        }

        let template: Map<String, Value> = match body {
            Value::Object(mut o) => {
                o.remove("node");
                o.remove("nodes");
                o
            }
            _ => Map::new(),
        };
        let trace = req.header("x-mqo-trace-id").map(str::to_owned);

        let mut by_node: HashMap<u64, Value> = HashMap::with_capacity(nodes.len());
        let mut billed = 0u64;
        let mut degraded = false;
        let mut replayed = false;
        let mut tenant = Value::Null;
        for (shard, group) in &groups {
            let mut sub = template.clone();
            sub.insert("nodes".into(), json!(group.clone()));
            let sub = jstr(&Value::Object(sub));
            self.routed.with(&[&shard.to_string()]).inc();
            let result = self.exchange(*shard, |c| match &trace {
                Some(t) => c.post_with_header("/v1/classify", &sub, ("x-mqo-trace-id", t)),
                None => c.post("/v1/classify", &sub),
            });
            let parsed = match result {
                Ok((status, body)) if status.contains("200") => {
                    serde_json::from_str(&body).ok()
                }
                Ok((status, body)) => {
                    // Upstream answered but refused (shed, draining, …):
                    // relay its verdict rather than invent one.
                    let status: &'static str = if status.contains("429") {
                        "429 Too Many Requests"
                    } else if status.contains("503") {
                        "503 Service Unavailable"
                    } else {
                        "502 Bad Gateway"
                    };
                    return (status, body);
                }
                Err(_) => None,
            };
            let Some(parsed) = parsed else {
                return (
                    "502 Bad Gateway",
                    jstr(
                        &json!({"error": format!("shard {shard} failed mid-batch"), "shard": *shard}),
                    ),
                );
            };
            billed += parsed.get("billed_tokens").and_then(Value::as_u64).unwrap_or(0);
            degraded |= parsed.get("degraded").and_then(Value::as_bool).unwrap_or(false);
            replayed |= parsed.get("replayed").and_then(Value::as_bool).unwrap_or(false);
            if matches!(tenant, Value::Null) {
                tenant = parsed.get("tenant").cloned().unwrap_or(Value::Null);
            }
            if let Some(records) = parsed.get("records").and_then(Value::as_array) {
                for r in records {
                    if let Some(n) = r.get("node").and_then(Value::as_u64) {
                        by_node.insert(n, r.clone());
                    }
                }
            }
        }

        let records: Vec<Value> =
            nodes.iter().filter_map(|n| by_node.get(n).cloned()).collect();
        let mut out = json!({
            "tenant": tenant,
            "records": records,
            "replayed": replayed,
            "billed_tokens": billed,
            "degraded": degraded,
            "shards": groups.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        });
        if let (Some(t), Value::Object(o)) = (&trace, &mut out) {
            o.insert("trace".into(), Value::String(t.clone()));
        }
        ("200 OK", jstr(&out))
    }

    /// Relay a worker's boundary pseudo-labels to the shards owning the
    /// labeled nodes' neighbors.
    fn relay_labels(&self, req: &Request) -> (&'static str, String) {
        let body: Value = match serde_json::from_str(req.body_utf8()) {
            Ok(v) => v,
            Err(e) => return bad_request(format!("invalid JSON body: {e}")),
        };
        self.label_pushes.inc();
        let from = body.get("from_shard").and_then(Value::as_u64).unwrap_or(u64::MAX);
        let Some(labels) = body.get("labels").and_then(Value::as_array) else {
            return bad_request("body must have a 'labels' array".into());
        };
        // Regroup the per-node target lists into one payload per shard.
        let mut per_target: HashMap<u32, Vec<Value>> = HashMap::new();
        for entry in labels {
            let (Some(node), Some(label)) = (
                entry.get("node").and_then(Value::as_u64),
                entry.get("label").and_then(Value::as_u64),
            ) else {
                return bad_request("label entries need integer 'node' and 'label'".into());
            };
            let Some(targets) = entry.get("shards").and_then(Value::as_array) else {
                return bad_request("label entries need a 'shards' array".into());
            };
            for t in targets {
                let Some(t) = t.as_u64().filter(|&t| t < self.shards.len() as u64) else {
                    return bad_request("label target shard out of range".into());
                };
                if t != from {
                    per_target
                        .entry(t as u32)
                        .or_default()
                        .push(json!({"node": node, "label": label}));
                }
            }
        }

        let mut forwarded = 0usize;
        let mut dropped = 0usize;
        for (target, batch) in &per_target {
            let count = batch.len();
            let label = target.to_string();
            if self.shards[*target as usize].ejected.load(Ordering::SeqCst) {
                self.labels_dropped.with(&[&label]).add(count as u64);
                dropped += count;
                continue;
            }
            let payload = jstr(&json!({"labels": batch.clone()}));
            match self.exchange(*target, |c| c.post("/v1/labels", &payload)) {
                Ok((status, _)) if status.contains("200") => {
                    self.labels_forwarded.with(&[&label]).add(count as u64);
                    forwarded += count;
                }
                _ => {
                    // Advisory traffic: losing it costs γ readiness some
                    // remote cues, not correctness. Count and move on.
                    self.labels_dropped.with(&[&label]).add(count as u64);
                    dropped += count;
                }
            }
        }
        (
            "200 OK",
            jstr(
                &json!({"forwarded": forwarded, "dropped": dropped, "targets": per_target.len()}),
            ),
        )
    }

    /// One exchange with `shard`'s worker over its persistent connection,
    /// with health bookkeeping: success clears the failure streak (and
    /// re-admits an ejected shard that answered anyway); failure kills
    /// the cached connection and may eject. A failure on a *cached*
    /// connection retries once on a fresh one before counting, so a
    /// worker-side idle close never surfaces as a 502 or an ejection.
    fn exchange(&self, shard: u32, f: impl Fn(&mut HttpClient) -> Exchange) -> Exchange {
        let st = &self.shards[shard as usize];
        let mut slot = st.client.lock();
        let mut cached = true;
        if slot.is_none() {
            match HttpClient::connect(st.addr) {
                Ok(c) => {
                    *slot = Some(c);
                    cached = false;
                }
                Err(e) => {
                    drop(slot);
                    self.note_failure(shard);
                    return Err(e);
                }
            }
        }
        let mut result = f(slot.as_mut().expect("connected above"));
        // A worker may close a cached keep-alive connection at any time
        // (idle timeout, restart), and the first reuse then fails before
        // the worker ever sees the request. One fresh-connection retry
        // distinguishes a stale socket from a dead shard — requests are
        // deterministic, so replaying one is safe. A genuinely dead
        // worker refuses the reconnect and still lands in the failure
        // bookkeeping below.
        if result.is_err() && cached {
            *slot = None;
            if let Ok(c) = HttpClient::connect(st.addr) {
                *slot = Some(c);
                result = f(slot.as_mut().expect("reconnected above"));
            }
        }
        match &result {
            Ok(_) => {
                st.failures.store(0, Ordering::SeqCst);
                if st.ejected.swap(false, Ordering::SeqCst) {
                    let label = shard.to_string();
                    self.readmissions.with(&[&label]).inc();
                    self.ejected_gauge.with(&[&label]).set(0);
                }
            }
            Err(_) => {
                *slot = None;
                drop(slot);
                self.note_failure(shard);
            }
        }
        result
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

    /// A scriptable fake shard worker: answers classify with one record
    /// per node, echoing the node id, until told to die.
    struct FakeShard {
        addr: SocketAddr,
        server: HttpServer,
    }

    impl FakeShard {
        fn start(shard_id: u32) -> FakeShard {
            let served = AtomicU32::new(0);
            let handler = move |req: &Request, conn: &mut HttpConnection| {
                let body = match (req.method.as_str(), req.path.as_str()) {
                    ("GET", "/v1/healthz") => jstr(&json!({"status": "ok"})),
                    ("GET", "/v1/stats") => {
                        let served = served.load(Ordering::SeqCst);
                        jstr(&json!({
                            "queries": served, "requests": served,
                            "pseudo_labels": 0, "peak_rss_mb": 10 + shard_id,
                        }))
                    }
                    ("POST", "/v1/labels") => jstr(&json!({"ingested": true})),
                    ("POST", "/v1/classify") => {
                        served.fetch_add(1, Ordering::SeqCst);
                        let v: Value = serde_json::from_str(req.body_utf8()).unwrap();
                        let records: Vec<Value> = v["nodes"]
                            .as_array()
                            .unwrap()
                            .iter()
                            .map(|n| json!({"node": n.clone(), "predicted": shard_id, "correct": true}))
                            .collect();
                        jstr(&json!({
                            "tenant": v.get("tenant").cloned().unwrap_or(json!("public")),
                            "records": records,
                            "replayed": false,
                            "billed_tokens": 7,
                            "degraded": false,
                        }))
                    }
                    _ => jstr(&json!({"error": "?"})),
                };
                conn.respond("200 OK", "application/json", &body).map(|()| 200)
            };
            let server = HttpServer::start("127.0.0.1:0", &Registry::new(), handler).unwrap();
            FakeShard { addr: server.addr(), server }
        }

        fn kill(&mut self) {
            self.server.stop();
        }
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
}
