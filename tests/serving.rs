//! Serving end-to-end tests over loopback HTTP: bit-identical records
//! versus a batch run (under worker concurrency and overlapping client
//! node sets), tenant admission that bills nothing on refusal, queue
//! backpressure with computed `Retry-After`, deadline propagation
//! (`x-mqo-deadline-ms` → `504`, zero billing, ledger conservation),
//! brown-out degradation, slow-loris isolation, graceful drain,
//! journal-backed restart that re-bills zero tokens, and `/v1/stats`
//! counts that equal the metrics sink's series.

use mqo_core::journal::record_from_json;
use mqo_core::QueryRecord;
use mqo_data::{dataset, DatasetBundle, DatasetId};
use mqo_graph::NodeId;
use mqo_obs::httpd::HttpClient;
use mqo_obs::{http_get, http_post};
use mqo_serve::{Engine, OverloadConfig, Rejection, ServeConfig, Server, ServerOptions};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn bundle() -> DatasetBundle {
    dataset(DatasetId::Cora, Some(0.3), 42)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig { split_queries: 60, ..ServeConfig::default() }
}

fn start(engine: Arc<Engine>, workers: usize, queue_capacity: usize) -> Server {
    start_with(engine, workers, queue_capacity, OverloadConfig::default())
}

fn start_with(
    engine: Arc<Engine>,
    workers: usize,
    queue_capacity: usize,
    overload: OverloadConfig,
) -> Server {
    let options =
        ServerOptions { addr: "127.0.0.1:0".into(), workers, queue_capacity, overload };
    Server::start(engine, options).expect("bind loopback server")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mqo-serving-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// POST a classify body and parse `(status line, response JSON)`.
fn classify(addr: std::net::SocketAddr, body: &str) -> (String, serde_json::Value) {
    let (status, text) = http_post(addr, "/v1/classify", body).expect("classify round-trip");
    let value = serde_json::from_str(text.trim()).expect("classify response is JSON");
    (status, value)
}

fn records_of(response: &serde_json::Value) -> Vec<QueryRecord> {
    response
        .get("records")
        .and_then(|r| r.as_array())
        .expect("response has records")
        .iter()
        .map(|v| record_from_json(v).expect("record parses"))
        .collect()
}

/// The value of one exported series line (`name` includes any labels).
fn series(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("{name} not exported"))
}

/// GET `/v1/stats` and `/metrics`, in that order.
fn stats_and_metrics(addr: std::net::SocketAddr) -> (serde_json::Value, String) {
    let (_, text) = http_get(addr, "/v1/stats").unwrap();
    let stats = serde_json::from_str(text.trim()).expect("stats are JSON");
    let (_, metrics) = http_get(addr, "/metrics").unwrap();
    (stats, metrics)
}

fn nodes_json(nodes: &[u32]) -> String {
    let list: Vec<String> = nodes.iter().map(u32::to_string).collect();
    format!("{{\"nodes\": [{}]}}", list.join(", "))
}

/// POST and return the raw response (status line + headers + body), for
/// assertions on headers that [`http_post`] strips.
fn raw_post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: mqo\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Concurrent loopback clients with *overlapping* node sets must produce
/// exactly the records a single batch run produces — worker
/// interleaving, request order, and duplicate nodes cannot perturb them.
#[test]
fn served_records_are_bit_identical_to_a_batch_run() {
    // Caching (like boosting) is order-dependent by design — a hit
    // zeroes billed usage — so the bit-identity guarantee is stated for
    // cache-off, boost-off engines.
    let cfg = || ServeConfig { cache_cap: 0, ..serve_cfg() };
    // Batch arm: one engine, one sequential pass over the union.
    let union: Vec<NodeId> = (0..30).map(NodeId).collect();
    let batch_engine = Engine::new(bundle(), cfg()).unwrap();
    let batch = batch_engine.process(&union, "default");
    let expected: HashMap<u32, QueryRecord> =
        union.iter().map(|n| n.0).zip(batch.records.iter().cloned()).collect();

    // Serve arm: fresh engine, 4 workers, 3 clients on overlapping sets.
    let engine = Engine::new(bundle(), cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 4, 16);
    let addr = server.addr();
    let client_sets: [Vec<u32>; 3] = [(0..20).collect(), (10..30).collect(), (5..25).collect()];
    let mut clients = Vec::new();
    for set in client_sets {
        clients.push(std::thread::spawn(move || {
            let mut served: Vec<(u32, QueryRecord)> = Vec::new();
            for chunk in set.chunks(5) {
                let (status, response) = classify(addr, &nodes_json(chunk));
                assert!(status.contains("200"), "expected 200, got {status}");
                for (node, rec) in chunk.iter().zip(records_of(&response)) {
                    served.push((*node, rec));
                }
            }
            served
        }));
    }
    let mut served = Vec::new();
    for c in clients {
        served.extend(c.join().expect("client thread"));
    }
    server.drain();

    assert_eq!(served.len(), 60, "3 clients x 20 nodes each");
    for (node, rec) in &served {
        assert_eq!(
            rec, &expected[node],
            "served record for node {node} diverged from the batch run"
        );
    }
}

/// One keep-alive connection carrying a whole session of classify
/// requests produces records bit-identical to a sequential batch run —
/// connection reuse is a transport optimization, never a behavioral one.
#[test]
fn keep_alive_session_is_bit_identical_to_batch() {
    let cfg = || ServeConfig { cache_cap: 0, ..serve_cfg() };
    let union: Vec<NodeId> = (0..20).map(NodeId).collect();
    let batch_engine = Engine::new(bundle(), cfg()).unwrap();
    let batch = batch_engine.process(&union, "default");

    let engine = Engine::new(bundle(), cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    // One persistent connection for the whole session: every request
    // rides the same socket unless the server closes it (it must not).
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let mut served: Vec<QueryRecord> = Vec::new();
    for chunk in (0..20u32).collect::<Vec<_>>().chunks(4) {
        let (status, text) =
            client.post("/v1/classify", &nodes_json(chunk)).expect("keep-alive round-trip");
        assert!(status.contains("200"), "got {status}");
        let response: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
        served.extend(records_of(&response));
    }
    drop(client);
    server.drain();

    assert_eq!(served.len(), union.len());
    for (rec, expected) in served.iter().zip(&batch.records) {
        assert_eq!(rec, expected, "keep-alive session diverged from the batch run");
    }
}

/// Two requests written on one raw socket both get answered — the server
/// really does keep HTTP/1.1 connections alive rather than closing after
/// the first response.
#[test]
fn one_socket_carries_multiple_requests() {
    use std::io::{Read, Write};
    let engine = Engine::new(bundle(), serve_cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 4);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: mqo\r\n\r\n").unwrap();
    write!(stream, "GET /v1/healthz HTTP/1.1\r\nHost: mqo\r\nConnection: close\r\n\r\n")
        .unwrap();
    stream.flush().unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read both responses");
    assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 2, "got: {raw}");
    assert!(raw.contains("Connection: keep-alive"), "first response keeps alive: {raw}");
    assert!(raw.contains("Connection: close"), "second response closes: {raw}");
    server.drain();
}

/// Malformed framing — conflicting duplicate `Content-Length`, truncated
/// header blocks — earns a `400`, lands in `mqo_http_errors_total`, and
/// leaves the server fully alive for well-formed clients.
#[test]
fn malformed_framing_gets_400_and_server_stays_up() {
    use std::io::{Read, Write};
    let engine = Engine::new(bundle(), serve_cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 4);
    let addr = server.addr();

    // Request-smuggling shape: two different Content-Length framings.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello",
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("400 Bad Request"), "got: {raw}");
    assert!(raw.contains("conflicting"), "got: {raw}");

    // Truncated mid-headers: EOF before the blank line is not a request.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Le").unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("400 Bad Request"), "got: {raw}");

    // Both abuses are visible in metrics, and the server still serves.
    let mut errors_seen = 0u64;
    for _ in 0..200 {
        let (_, text) = http_get(addr, "/metrics").unwrap();
        errors_seen = text
            .lines()
            .find_map(|l| l.strip_prefix("mqo_http_errors_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if errors_seen >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(errors_seen >= 2, "framing abuse must be counted, saw {errors_seen}");
    let (status, _) = classify(addr, "{\"node\": 1}");
    assert!(status.contains("200"), "server must survive abuse, got {status}");
    server.drain();
}

/// A tenant over its admission budget gets `429` before any queue slot
/// or LLM call — global billed tokens must not move at all.
#[test]
fn exhausted_tenant_gets_429_and_bills_nothing() {
    let cfg = ServeConfig {
        tenant_budgets: HashMap::from([("broke".to_string(), 0), ("acme".to_string(), 1)]),
        ..serve_cfg()
    };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let addr = server.addr();

    // Zero budget: refused outright, nothing ever billed.
    let (status, body) = classify(addr, "{\"node\": 1, \"tenant\": \"broke\"}");
    assert!(status.contains("429"), "got {status}");
    assert_eq!(body.get("error").and_then(|e| e.as_str()), Some("tenant budget exhausted"));
    assert_eq!(engine.totals().prompt_tokens, 0, "refusal must not reach the model");

    // One-token budget: first request admitted (spend starts at 0) and
    // charged; the second finds the budget exhausted.
    let (status, response) = classify(addr, "{\"node\": 2, \"tenant\": \"acme\"}");
    assert!(status.contains("200"), "got {status}");
    let billed = response.get("billed_tokens").and_then(|b| b.as_u64()).unwrap();
    assert!(billed > 0, "a real query bills tokens");
    let before = engine.totals().prompt_tokens;

    let (status, body) = classify(addr, "{\"node\": 3, \"tenant\": \"acme\"}");
    assert!(status.contains("429"), "got {status}");
    assert_eq!(body.get("spent_tokens").and_then(|b| b.as_u64()), Some(billed));
    assert_eq!(body.get("budget").and_then(|b| b.as_u64()), Some(1));
    assert_eq!(
        engine.totals().prompt_tokens,
        before,
        "a tenant refusal must not bill a single global token"
    );
    server.drain();
}

/// With one worker and a one-slot queue, a long-running batch plus a
/// queued request saturates admission: the next request bounces with
/// `429` + `Retry-After` and is billed nothing.
#[test]
fn saturated_queue_answers_429_retry_after() {
    // Inject a 30ms latency spike into *every* LLM call (spent on the
    // real wait clock; cache off so every call reaches the injector): a
    // 5-node batch holds the single worker ~150ms, long enough to
    // observe saturation without racing the scheduler.
    let cfg = ServeConfig {
        faults: Some("latency=1.0,latency-micros=30000".into()),
        cache_cap: 0,
        ..serve_cfg()
    };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 1);
    let addr = server.addr();

    // Occupy the worker, then the single queue slot.
    let long = std::thread::spawn(move || classify(addr, &nodes_json(&[0, 1, 2, 3, 4])));
    std::thread::sleep(Duration::from_millis(20));
    let queued = std::thread::spawn(move || classify(addr, "{\"node\": 5}"));
    std::thread::sleep(Duration::from_millis(20));

    // Worker busy + queue full: probes bounce with 429 until the long
    // batch finishes. They come from a tenant with no seat in the wait
    // room, so the overload controller's fair-share check admits them and
    // the slot gate is what refuses. Probe over a raw socket so the
    // Retry-After header is visible too.
    let mut saw_saturation = false;
    while !long.is_finished() {
        let raw = raw_post(addr, "/v1/classify", "{\"node\": 6, \"tenant\": \"probe\"}");
        if raw.contains("429") {
            assert!(raw.contains("\"reason\":\"saturated\""), "got {raw}");
            // The Retry-After value is computed from observed service
            // time and queue depth — assert it parses and sits in the
            // documented [1, 30] band rather than pinning a constant.
            let retry_after: u64 = raw
                .lines()
                .find_map(|l| l.strip_prefix("Retry-After: "))
                .expect("429 must carry Retry-After")
                .trim()
                .parse()
                .expect("Retry-After is integral seconds");
            assert!(
                (1..=30).contains(&retry_after),
                "Retry-After {retry_after} outside [1, 30], got {raw}"
            );
            saw_saturation = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_saturation, "never observed queue backpressure");

    // Backpressure refused work without losing admitted work.
    let (status, _) = long.join().expect("long client");
    assert!(status.contains("200"), "long batch must complete, got {status}");
    let (status, _) = queued.join().expect("queued client");
    assert!(status.contains("200"), "queued request must complete, got {status}");
    server.drain();
}

/// Both kinds of `429` are counted once, by the metrics sink: a tenant
/// past its share of the wait room is shed by the overload controller
/// (`rejected.shed`), a fresh tenant facing the full wait room bounces
/// off the slot gate (`rejected.queue`), and `/v1/stats` reports exactly
/// the `mqo_requests_shed_total` series. The engine's old duplicate
/// series are gone from `/metrics`.
#[test]
fn refusals_in_stats_equal_their_shed_series() {
    let cfg = ServeConfig {
        faults: Some("latency=1.0,latency-micros=30000".into()),
        cache_cap: 0,
        ..serve_cfg()
    };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 1);
    let addr = server.addr();

    // Tenant a holds the worker, tenant b the single wait-room seat.
    let long = std::thread::spawn(move || {
        classify(addr, "{\"nodes\": [0, 1, 2, 3, 4], \"tenant\": \"a\"}")
    });
    std::thread::sleep(Duration::from_millis(20));
    let queued = std::thread::spawn(move || classify(addr, "{\"node\": 5, \"tenant\": \"b\"}"));
    std::thread::sleep(Duration::from_millis(20));

    let (mut saw_shed, mut saw_queue) = (false, false);
    while !(long.is_finished() || saw_shed && saw_queue) {
        for tenant in ["a", "c"] {
            let (status, body) =
                classify(addr, &format!("{{\"node\": 6, \"tenant\": \"{tenant}\"}}"));
            if status.contains("429") {
                match body.get("reason").and_then(|r| r.as_str()) {
                    Some("saturated") => saw_queue = true,
                    Some(_) => saw_shed = true,
                    None => panic!("a 429 names its reason, got {body:?}"),
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(saw_shed && saw_queue, "saw shed {saw_shed}, saw queue {saw_queue}");
    long.join().expect("long client");
    queued.join().expect("queued client");

    let (stats, metrics) = stats_and_metrics(addr);
    let by_reason = |r: &str| {
        let name = format!("mqo_requests_shed_total{{reason=\"{r}\"}}");
        series(&metrics, &name)
    };
    let shed = by_reason("sojourn") + by_reason("tenant_share");
    assert!(shed >= 1);
    assert_eq!(stats["rejected"]["shed"].as_u64(), Some(shed));
    assert_eq!(stats["overload"]["shed"].as_u64(), Some(shed));
    assert!(by_reason("saturated") >= 1);
    assert_eq!(stats["rejected"]["queue"].as_u64(), Some(by_reason("saturated")));
    for gone in [
        "mqo_serve_deadline_expired_total",
        "mqo_serve_rejected_shed_total",
        "mqo_serve_rejected_queue_total",
        "mqo_shard_remote_labels_total",
        "mqo_serve_replayed_total",
    ] {
        assert!(!metrics.contains(gone), "{gone} duplicates a metrics-sink series");
    }
    for twin in [
        "mqo_deadline_expired_total ",
        "mqo_shard_labels_ingested_total ",
        "mqo_queries_replayed_total ",
    ] {
        assert!(metrics.contains(twin), "{twin}is exported");
    }
    server.drain();
}

/// Graceful drain: work in flight at drain time completes and is
/// answered; once drained, late requests are refused at the socket.
#[test]
fn drain_completes_in_flight_work_then_refuses_connections() {
    let journal = tmp("drain.journal");
    let cfg = ServeConfig { journal: Some(journal.clone()), ..serve_cfg() };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let addr = server.addr();

    // A healthy server answers healthz and classify.
    let (status, _) = http_get(addr, "/v1/healthz").unwrap();
    assert!(status.contains("200"), "got {status}");

    // Put a large batch in flight, then drain while it runs.
    let in_flight: Vec<u32> = (0..120).collect();
    let billed = engine.totals().requests;
    let client = std::thread::spawn(move || classify(addr, &nodes_json(&in_flight)));
    // Drain once the batch's first model call has landed, so the request
    // is in flight rather than racing admission.
    let started = std::time::Instant::now();
    while engine.totals().requests == billed && started.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let report = server.drain();

    let (status, response) = client.join().expect("in-flight client");
    assert!(status.contains("200"), "in-flight work must complete, got {status}");
    assert_eq!(records_of(&response).len(), 120);
    assert!(report.journal_sealed, "drain must seal the journal");
    assert_eq!(report.queries, 120 + engine.journal().map_or(0, |j| j.replayed()));

    // The listener is gone: late requests are refused at the socket.
    let late = http_post(addr, "/v1/classify", "{\"node\": 1}");
    assert!(late.is_err(), "drained server must refuse connections, got {late:?}");
    std::fs::remove_file(&journal).ok();
}

/// While draining, admission answers `503` (and healthz reports it)
/// instead of accepting work it could not finish.
#[test]
fn draining_server_rejects_new_work_with_503() {
    let engine = Engine::new(bundle(), serve_cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 4);
    let addr = server.addr();

    // `POST /v1/drain` only *requests* a drain — the lifecycle owner
    // runs it. Until then the server still serves.
    let (status, body) = http_post(addr, "/v1/drain", "{}").unwrap();
    assert!(status.contains("202"), "got {status}");
    assert!(body.contains("\"draining\":true"), "got {body}");
    assert!(engine.drain_requested());

    // Flip the admission gate the way drain step 1 does: requests racing
    // the drain get a clean 503, not a dead socket.
    engine.set_draining();
    let (status, body) = classify(addr, "{\"node\": 1}");
    assert!(status.contains("503"), "got {status}");
    assert_eq!(body.get("error").and_then(|e| e.as_str()), Some("draining"));
    assert_eq!(engine.admit("default"), Err(Rejection::Draining));
    let (status, _) = http_get(addr, "/v1/healthz").unwrap();
    assert!(status.contains("503"), "got {status}");
    server.drain();
}

/// A drained server's sealed journal lets a restart answer the same
/// nodes with *zero* re-billing — and byte-identical records.
#[test]
fn restart_resumes_sealed_journal_and_rebills_zero_tokens() {
    let journal = tmp("resume.journal");
    std::fs::remove_file(&journal).ok();
    let nodes: Vec<u32> = (0..25).collect();

    // First life: serve, then drain (which seals the journal).
    let cfg = ServeConfig { journal: Some(journal.clone()), ..serve_cfg() };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let (status, first_response) = classify(server.addr(), &nodes_json(&nodes));
    assert!(status.contains("200"), "got {status}");
    let first_records = records_of(&first_response);
    let first_billed = engine.totals().prompt_tokens;
    assert!(first_billed > 0);
    server.drain();

    // Second life: resume the journal; the same nodes replay for free.
    let cfg = ServeConfig { journal: Some(journal.clone()), resume: true, ..serve_cfg() };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let (status, second_response) = classify(server.addr(), &nodes_json(&nodes));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        second_response.get("replayed").and_then(|r| r.as_u64()),
        Some(nodes.len() as u64),
        "every node must replay from the journal"
    );
    assert_eq!(records_of(&second_response), first_records);
    assert_eq!(
        engine.totals().prompt_tokens,
        0,
        "a resumed server re-bills zero tokens for journaled nodes"
    );
    let (stats, metrics) = stats_and_metrics(server.addr());
    assert_eq!(stats["replayed"].as_u64(), Some(nodes.len() as u64));
    assert_eq!(
        stats["replayed"].as_u64(),
        Some(series(&metrics, "mqo_queries_replayed_total")),
        "/v1/stats reads the metrics sink's series"
    );
    let report = server.drain();
    assert_eq!(report.replayed, nodes.len() as u64);
    std::fs::remove_file(&journal).ok();
}

/// `/v1/stats` and `/metrics` reflect serving activity, and malformed
/// classify bodies are client errors, not connection drops.
#[test]
fn stats_metrics_and_client_errors() {
    let engine = Engine::new(bundle(), serve_cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let addr = server.addr();

    let (status, _) = classify(addr, "{\"nodes\": [1, 2, 3]}");
    assert!(status.contains("200"), "got {status}");

    let (status, text) = http_get(addr, "/v1/stats").unwrap();
    assert!(status.contains("200"), "got {status}");
    let stats: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(stats.get("queries").and_then(|q| q.as_u64()), Some(3));
    assert_eq!(stats.get("requests").and_then(|q| q.as_u64()), Some(1));
    assert!(stats.get("nodes").and_then(|n| n.as_u64()).unwrap() > 0);
    assert!(stats.get("queue").is_some(), "live stats embed queue depth");

    let (status, text) = http_get(addr, "/metrics").unwrap();
    assert!(status.contains("200"), "got {status}");
    assert!(text.contains("mqo_serve_queries_total 3"), "got:\n{text}");

    for bad in [
        "not json",
        "{}",
        "{\"node\": 1, \"nodes\": [2]}",
        "{\"nodes\": []}",
        "{\"node\": 99999999}",
    ] {
        let (status, _) = http_post(addr, "/v1/classify", bad).unwrap();
        assert!(status.contains("400"), "body {bad:?} should 400, got {status}");
    }
    let (status, _) = http_get(addr, "/nope").unwrap();
    assert!(status.contains("404"), "got {status}");
    server.drain();
}

/// A caller-supplied trace id round-trips through the response header
/// and JSON, the flight recorder's span tree, and the journal line; W3C
/// `traceparent` is honored; requests without either get a minted
/// 16-hex id; and error responses land in the flight error ring.
#[test]
fn trace_ids_round_trip_response_flight_and_journal() {
    let journal = tmp("trace.journal");
    std::fs::remove_file(&journal).ok();
    let cfg = ServeConfig { journal: Some(journal.clone()), ..serve_cfg() };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).expect("connect");

    // Caller-supplied id (uppercase in, normalized lowercase out).
    let (status, text) = client
        .post_with_header(
            "/v1/classify",
            "{\"nodes\": [1, 2, 3]}",
            ("x-mqo-trace-id", "00F1E2D3C4B5A697"),
        )
        .expect("traced classify");
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        client.last_header("x-mqo-trace-id"),
        Some("00f1e2d3c4b5a697"),
        "response header echoes the id"
    );
    let response: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(response.get("trace").and_then(|t| t.as_str()), Some("00f1e2d3c4b5a697"));

    // W3C traceparent: first 16 hex of the 32-hex trace-id field.
    let (status, text) = client
        .post_with_header(
            "/v1/classify",
            "{\"node\": 5}",
            ("traceparent", "00-abcdef0123456789aaaaaaaaaaaaaaaa-b7ad6b7169203331-01"),
        )
        .expect("traceparent classify");
    assert!(status.contains("200"), "got {status}");
    let response: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(response.get("trace").and_then(|t| t.as_str()), Some("abcdef0123456789"));

    // No header at all: a 16-hex id is minted.
    let (status, text) = client.post("/v1/classify", "{\"node\": 6}").expect("plain classify");
    assert!(status.contains("200"), "got {status}");
    let response: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let minted = response.get("trace").and_then(|t| t.as_str()).expect("minted trace");
    assert_eq!(minted.len(), 16, "minted id {minted:?}");
    assert!(minted.bytes().all(|b| b.is_ascii_hexdigit()), "minted id {minted:?}");

    // A client error is tail-sampled into the flight error ring, with
    // its own echoed trace id.
    let (status, text) = client
        .post_with_header("/v1/classify", "not json", ("x-mqo-trace-id", "aaaabbbbccccdddd"))
        .expect("bad classify");
    assert!(status.contains("400"), "got {status}");
    let response: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(response.get("trace").and_then(|t| t.as_str()), Some("aaaabbbbccccdddd"));

    // The flight recorder retains the traced request with a causally
    // well-formed span tree: request → query → llm_call.
    let (status, text) = http_get(addr, "/v1/debug/flight").unwrap();
    assert!(status.contains("200"), "got {status}");
    let flight: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let slow = flight.get("slow").and_then(|s| s.as_array()).expect("slow ring");
    let entry = slow
        .iter()
        .find(|e| e.get("trace").and_then(|t| t.as_str()) == Some("00f1e2d3c4b5a697"))
        .expect("traced request retained in the slow ring");
    assert_eq!(entry.get("status").and_then(|s| s.as_u64()), Some(200));
    let spans = entry.get("spans").and_then(|s| s.as_array()).expect("entry spans");
    let request_id = spans
        .iter()
        .find(|s| s.get("name").and_then(|n| n.as_str()) == Some("request"))
        .and_then(|s| s.get("id").and_then(|i| i.as_u64()))
        .expect("request span");
    let query_ids: Vec<u64> = spans
        .iter()
        .filter(|s| {
            s.get("name").and_then(|n| n.as_str()) == Some("query")
                && s.get("parent").and_then(|p| p.as_u64()) == Some(request_id)
        })
        .map(|s| s.get("id").and_then(|i| i.as_u64()).unwrap())
        .collect();
    assert_eq!(query_ids.len(), 3, "one query span per node under the request span");
    let llm_calls = spans
        .iter()
        .filter(|s| s.get("name").and_then(|n| n.as_str()) == Some("llm_call"))
        .filter(|s| query_ids.contains(&s.get("parent").and_then(|p| p.as_u64()).unwrap_or(0)))
        .count();
    assert!(llm_calls >= 1, "llm_call spans hang off query spans");
    let errors = flight.get("errors").and_then(|e| e.as_array()).expect("error ring");
    let bad = errors
        .iter()
        .find(|e| e.get("trace").and_then(|t| t.as_str()) == Some("aaaabbbbccccdddd"))
        .expect("400 retained in the error ring");
    assert_eq!(bad.get("status").and_then(|s| s.as_u64()), Some(400));

    server.drain();
    let journal_text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        journal_text.contains("\"trace\":\"00f1e2d3c4b5a697\""),
        "journal lines carry the trace id"
    );
    std::fs::remove_file(&journal).ok();
}

/// `/v1/slo` tracks per-tenant windows; a clean run burns no error
/// budget and the registry exports the per-tenant series.
#[test]
fn slo_endpoint_reports_clean_burn_for_served_tenants() {
    // A 10s latency objective nothing breaches in a sim-backed test.
    let cfg = ServeConfig { slo_p99_ms: Some(10_000), ..serve_cfg() };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 2, 8);
    let addr = server.addr();

    let (status, _) = classify(addr, "{\"nodes\": [1, 2], \"tenant\": \"acme\"}");
    assert!(status.contains("200"), "got {status}");
    let (status, _) = classify(addr, "{\"node\": 3, \"tenant\": \"acme\"}");
    assert!(status.contains("200"), "got {status}");
    let (status, _) = classify(addr, "{\"node\": 4}");
    assert!(status.contains("200"), "got {status}");

    let (status, text) = http_get(addr, "/v1/slo").unwrap();
    assert!(status.contains("200"), "got {status}");
    let slo: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(slo.get("p99_target_micros").and_then(|p| p.as_u64()), Some(10_000_000));
    let tenants = slo.get("tenants").and_then(|t| t.as_array()).expect("tenants");
    let acme = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(|n| n.as_str()) == Some("acme"))
        .expect("acme tracked");
    let short = acme.get("short").expect("short window");
    assert_eq!(short.get("good").and_then(|g| g.as_u64()), Some(2), "2 acme requests");
    assert_eq!(short.get("bad").and_then(|b| b.as_u64()), Some(0));
    assert_eq!(short.get("burn_rate").and_then(|b| b.as_f64()), Some(0.0));
    assert!(
        tenants.iter().any(|t| t.get("tenant").and_then(|n| n.as_str()) == Some("default")),
        "untagged requests track under the default tenant"
    );

    let (status, text) = http_get(addr, "/metrics").unwrap();
    assert!(status.contains("200"), "got {status}");
    assert!(text.contains("mqo_slo_good_total{tenant=\"acme\"} 2"), "got:\n{text}");
    assert!(
        text.contains(
            "mqo_server_request_micros_count{route=\"/v1/classify\",tenant=\"acme\"} 2"
        ),
        "labeled request histogram, got:\n{text}"
    );
    server.drain();
}

/// A request arriving with `x-mqo-deadline-ms: 1` under a 30ms latency
/// fault cannot finish in time: the server answers `504`, the request
/// bills zero tokens, and the cost ledger still conserves — a discarded
/// late completion surfaces as unattributed spend, never as billing.
#[test]
fn expired_deadline_answers_504_bills_zero_and_conserves() {
    let cfg = ServeConfig {
        faults: Some("latency=1.0,latency-micros=30000".into()),
        cache_cap: 0,
        ..serve_cfg()
    };
    let engine = Engine::new(bundle(), cfg).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 4);
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).expect("connect");

    let (status, text) = client
        .post_with_header("/v1/classify", &nodes_json(&[1, 2, 3]), ("x-mqo-deadline-ms", "1"))
        .expect("deadlined classify");
    assert!(status.contains("504"), "got {status}: {text}");
    let body: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(body.get("error").and_then(|e| e.as_str()), Some("deadline exceeded"));
    let stage = body.get("stage").and_then(|s| s.as_str()).expect("504 names its stage");
    assert!(["queue", "admitted", "executing"].contains(&stage), "unexpected stage {stage:?}");

    // Nothing was billed, and the ledger's conservation identity holds:
    // rendered − pruned − cache-saved − starved − failed == billed for
    // every round. Tokens metered by a discarded completion show up as
    // non-negative unattributed spend, not as billing.
    let report = engine.ledger().report();
    assert_eq!(report.total.billed_tokens, 0, "an expired request bills nothing");
    assert!(report.total.conserves(), "ledger conservation broke: {report:?}");
    assert!(report.rounds.iter().all(|r| r.conserves()), "round conservation broke");
    assert!(
        report.unattributed(engine.totals().prompt_tokens) >= 0,
        "unattributed spend went negative"
    );

    // The expiry is visible in stats and metrics.
    let (_, text) = http_get(addr, "/v1/stats").unwrap();
    let stats: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let expired = stats
        .get("overload")
        .and_then(|o| o.get("deadline_expired"))
        .and_then(|d| d.as_u64())
        .expect("stats report overload.deadline_expired");
    assert!(expired >= 1, "the 504 must be counted, saw {expired}");
    let (_, text) = http_get(addr, "/metrics").unwrap();
    let metric = series(&text, "mqo_deadline_expired_total");
    assert_eq!(expired, metric, "/v1/stats reads the metrics sink's series");
    server.drain();
}

/// Two slow-loris clients trickling request bodies must not starve the
/// server: `/v1/healthz` and classify answer promptly from fresh
/// connections while the stalled sockets sit half-written.
#[test]
fn stalled_clients_leave_healthz_responsive() {
    use std::io::Write;
    let engine = Engine::new(bundle(), serve_cfg()).map(Arc::new).unwrap();
    let server = start(Arc::clone(&engine), 1, 4);
    let addr = server.addr();

    // Each stalled client promises a 400-byte body and sends 11 bytes.
    let mut stalled = Vec::new();
    for _ in 0..2 {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "POST /v1/classify HTTP/1.1\r\nHost: mqo\r\nContent-Type: application/json\r\n\
             Content-Length: 400\r\n\r\n{{\"nodes\": ["
        )
        .expect("send partial request");
        s.flush().unwrap();
        stalled.push(s);
    }
    std::thread::sleep(Duration::from_millis(50));

    // Fresh connections are served while the stalled ones hold nothing.
    let t0 = std::time::Instant::now();
    let (status, _) = http_get(addr, "/v1/healthz").expect("healthz while stalled");
    assert!(status.contains("200"), "got {status}");
    let (status, _) = classify(addr, "{\"node\": 1}");
    assert!(status.contains("200"), "got {status}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "stalled clients delayed live traffic by {:?}",
        t0.elapsed()
    );
    drop(stalled);
    server.drain();
}

/// With the brown-out thresholds floored, every admitted request runs
/// degraded: pruned neighbor-free prompts, `"degraded": true` in the
/// response, fewer billed tokens than the full-prompt run, and the
/// transition visible in stats and metrics.
#[test]
fn brownout_serves_degraded_responses_and_bills_fewer_tokens() {
    let nodes: Vec<u32> = (0..8).collect();
    // Reference arm: same nodes through a full-prompt engine.
    let full_engine =
        Engine::new(bundle(), ServeConfig { cache_cap: 0, ..serve_cfg() }).unwrap();
    full_engine.process(&nodes.iter().map(|n| NodeId(*n)).collect::<Vec<_>>(), "default");
    let full_billed = full_engine.totals().prompt_tokens;
    assert!(full_billed > 0);

    // Brown-out arm: enter at pressure 0 (always), never exit.
    let engine = Engine::new(bundle(), ServeConfig { cache_cap: 0, ..serve_cfg() })
        .map(Arc::new)
        .unwrap();
    let overload = OverloadConfig {
        brownout_enter_milli: 0,
        brownout_exit_milli: 0,
        ..Default::default()
    };
    let server = start_with(Arc::clone(&engine), 2, 8, overload);
    let addr = server.addr();

    let (status, response) = classify(addr, &nodes_json(&nodes));
    assert!(status.contains("200"), "got {status}");
    assert_eq!(
        response.get("degraded").and_then(|d| d.as_bool()),
        Some(true),
        "brown-out must flag the response degraded"
    );
    assert_eq!(records_of(&response).len(), nodes.len(), "degraded batches still answer");
    let degraded_billed = engine.totals().prompt_tokens;
    assert!(
        degraded_billed < full_billed,
        "pruned prompts must bill fewer tokens ({degraded_billed} vs {full_billed})"
    );

    let (_, text) = http_get(addr, "/v1/stats").unwrap();
    let stats: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let degraded = stats
        .get("overload")
        .and_then(|o| o.get("degraded"))
        .and_then(|d| d.as_u64())
        .expect("stats report overload.degraded");
    assert!(degraded >= 1, "degraded work must be counted, saw {degraded}");
    let (_, text) = http_get(addr, "/metrics").unwrap();
    assert!(text.contains("mqo_brownout 1"), "brown-out gauge must read 1, got:\n{text}");
    let transitions: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("mqo_brownout_transitions_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("transition counter exported");
    assert!(transitions >= 1, "the enter transition must be counted");
    server.drain();
}

/// The trace id rides the batch's `QueryCost` telemetry events, so the
/// cost of a served request is attributable from any event sink.
#[test]
fn query_cost_events_carry_the_request_trace() {
    use mqo_obs::{Event, Recorder};
    let engine = Engine::new(bundle(), serve_cfg()).unwrap();
    let collector = Recorder::new();
    let batch =
        engine.process_traced(&[NodeId(3)], "default", "deadbeefdeadbeef", Some(&collector));
    assert_eq!(batch.trace, "deadbeefdeadbeef");
    let traced_costs = collector
        .events()
        .iter()
        .filter(|e| matches!(e, Event::QueryCost { trace, .. } if trace == "deadbeefdeadbeef"))
        .count();
    assert_eq!(traced_costs, 1, "the query's cost event carries the trace id");
}
