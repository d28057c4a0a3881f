//! `loadgen` — deterministic load generator for `mqo serve`.
//!
//! ```text
//! loadgen --addr HOST:PORT | --addr-file FILE
//!         [--requests N] [--concurrency C] [--batch B] [--node-max N]
//!         [--seed S] [--tenant T] [--mode closed|open] [--rate R]
//!         [--warmup W] [--trace-id HEX] [--out FILE] [--merge-into FILE]
//!         [--drain] [--malformed]
//! ```
//!
//! Each worker thread holds one **keep-alive connection** for its whole
//! run (reconnecting if the server closes it), so the harness measures
//! request service time, not TCP setup. Two driving disciplines:
//!
//! * **closed** (default) — C workers each fire the next request the
//!   moment the previous response lands. Measures service capacity;
//!   latency excludes client-side queueing.
//! * **open** — requests depart on a fixed schedule (`--rate` per
//!   second, shared across workers) regardless of completion, and
//!   latency is measured from the *scheduled* departure so server-side
//!   queueing shows up in the tail (avoids coordinated omission).
//!   Pacing sleeps until just before each deadline and spins only the
//!   final sliver, so the waiting client does not burn a core that
//!   competes with the server under test.
//!
//! `--warmup W` sends W extra requests (request indices `0..W`) before
//! the measured window and discards their samples; all workers cross a
//! barrier between the phases, so the measured wall clock contains only
//! measured requests. Node choices derive from `(--seed, request
//! index)` — not from per-thread state — so a given seed produces the
//! same request multiset regardless of how threads race to claim work.
//! That is what lets a resumed server replay a repeated burst entirely
//! from its journal. `--node-max 0` (default) discovers the node range
//! from `GET /v1/stats`.
//!
//! Summary JSON (rps, p50/p90/p99/p99.9/max/mean ms, status counts)
//! goes to stdout and `--out`; `--merge-into` folds the serving metrics
//! into an existing stats JSON, which is how the bench baseline
//! acquires `serve_*` fields for the CI gate; `--drain` requests a
//! graceful drain once the burst completes.
//!
//! Every response's `x-mqo-trace-id` header is captured per sample, the
//! summary lists the 5 slowest requests with their trace ids (paste one
//! into `GET /v1/debug/flight` to see where the time went server-side),
//! and `--trace-id HEX` stamps a caller-supplied id on every request —
//! the smoke-test hook proving ids round-trip through the server.
//!
//! `--malformed` runs a framing-abuse probe instead of a load run: it
//! sends requests with conflicting duplicate `Content-Length` headers,
//! truncated header blocks, and header floods, expects a `400` for
//! each, and then verifies the server still answers `/v1/healthz` —
//! the smoke-test hook proving malformed framing is rejected without
//! taking the server down.
//!
//! `--overload` calibrates sustainable throughput closed-loop, then
//! offers a multiple of it (`--overload-factor`, default 5×) open-loop
//! and reports admitted-vs-offered goodput, shed rate, and the
//! degraded-response rate — self-gating on admitted p99
//! (`--slo-p99-ms`) and on every shed response carrying a well-formed
//! computed `Retry-After`. `--deadline-ms` stamps an `x-mqo-deadline-ms`
//! header on every request in any mode.
//!
//! `--router --shard-map FILE` targets a `mqo route` front instead of a
//! single worker. Node picks still derive from `(seed, request index)`
//! but range over the **whole global id space** (the shard map's node
//! count), so multi-node batches routinely straddle shard boundaries
//! and exercise the router's fan-out/reassembly path. The summary then
//! carries per-shard node-pick counts (attributed through the loaded
//! map — the same ownership function the router uses), the number of
//! batches that spanned more than one shard, and the cluster's peak
//! worker RSS scraped from the router's aggregated `/v1/stats`;
//! `--merge-into` folds `routed_serve_rps`, `routed_p99_ms`, and
//! `peak_rss_mb` into the stats JSON for the bench gate.

use mqo_bench::cli::{Args, CliError, Spec};
use mqo_obs::httpd::HttpClient;
use mqo_obs::{http_get, http_post};
use mqo_shard::ShardMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         loadgen --addr HOST:PORT | --addr-file FILE\n          \
         [--requests N] [--concurrency C] [--batch B] [--node-max N]\n          \
         [--seed S] [--tenant T] [--mode closed|open] [--rate R]\n          \
         [--warmup W] [--trace-id HEX] [--deadline-ms MS] [--out FILE]\n          \
         [--merge-into FILE] [--drain] [--malformed]\n          \
         [--overload] [--overload-factor F] [--cal-requests N] [--slo-p99-ms MS]\n          \
         [--router --shard-map FILE]"
    );
    ExitCode::from(2)
}

const FLAGS: Spec = Spec {
    positional: &[],
    switches: &["drain", "malformed", "overload", "router"],
    values: &[
        "addr",
        "addr-file",
        "requests",
        "concurrency",
        "batch",
        "node-max",
        "seed",
        "tenant",
        "mode",
        "rate",
        "warmup",
        "trace-id",
        "deadline-ms",
        "out",
        "merge-into",
        "overload-factor",
        "cal-requests",
        "slo-p99-ms",
        "shard-map",
    ],
};

/// One request's outcome, tagged with when it (nominally) departed.
struct Sample {
    latency: Duration,
    status: u16,
    /// The server's `x-mqo-trace-id` response header (empty on
    /// transport failure) — the key into `GET /v1/debug/flight`.
    trace: String,
    /// Whether the server answered under brown-out (`"degraded": true`).
    degraded: bool,
    /// The `Retry-After` header of a shed response, if any.
    retry_after: Option<u64>,
}

fn status_code(status_line: &str) -> u16 {
    status_line.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[rank.min(sorted_ms.len() - 1)]
}

/// How long before a deadline [`pace_until`] switches from sleeping to
/// spinning. Sleeps undershoot by scheduler latency (typically well under
/// this), so the spin window stays short while departures stay precise.
const SPIN_SLIVER: Duration = Duration::from_micros(200);

/// Wait until `deadline`: sleep for the bulk of the wait, spin only the
/// final sliver. (The previous pacing loop slept in 1ms polls — a
/// busy-ish wait that burned a core competing with the server under
/// test on the bench box.)
fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_SLIVER {
            std::thread::sleep(remaining - SPIN_SLIVER);
        } else {
            std::hint::spin_loop();
        }
    }
}

#[derive(Clone)]
struct Plan {
    addr: SocketAddr,
    requests: usize,
    warmup: usize,
    concurrency: usize,
    batch: usize,
    node_max: usize,
    seed: u64,
    tenant: String,
    open_loop: bool,
    rate: f64,
    /// Caller-supplied trace id stamped on every request (`--trace-id`).
    trace_id: Option<String>,
    /// Per-request deadline stamped as `x-mqo-deadline-ms`.
    deadline_ms: Option<u64>,
}

impl Plan {
    /// The one extra header a request carries: a caller-supplied trace
    /// id wins; otherwise the per-request deadline, if any.
    fn extra_header(&self) -> Option<(&str, String)> {
        if let Some(t) = &self.trace_id {
            return Some(("x-mqo-trace-id", t.clone()));
        }
        self.deadline_ms.map(|ms| ("x-mqo-deadline-ms", ms.to_string()))
    }
}

/// The nodes request `k` names. The RNG is keyed by `(seed, k)` alone
/// so the request multiset for a seed is scheduling-independent:
/// whichever thread claims request `k`, it sends the same nodes. The
/// router-mode summary recomputes these picks offline to attribute each
/// to its owning shard.
fn node_picks(k: usize, plan: &Plan) -> Vec<usize> {
    let mix = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(k as u64 + 1);
    let mut rng = StdRng::seed_from_u64(plan.seed ^ mix);
    (0..plan.batch).map(|_| rng.gen_range(0..plan.node_max)).collect()
}

/// Body for request `k` (see [`node_picks`] for determinism).
fn build_body(k: usize, plan: &Plan) -> String {
    let picks = node_picks(k, plan);
    if plan.batch == 1 {
        format!("{{\"node\": {}, \"tenant\": \"{}\"}}", picks[0], plan.tenant)
    } else {
        let nodes: Vec<String> = picks.iter().map(usize::to_string).collect();
        format!("{{\"nodes\": [{}], \"tenant\": \"{}\"}}", nodes.join(", "), plan.tenant)
    }
}

/// POST over the worker's persistent connection, returning the status
/// and the response's trace id. A transport error gets one retry — the
/// client reconnects transparently — because a keep-alive peer may close
/// an idle connection between our read of its response and our next
/// write.
fn post_classify(
    client: &mut HttpClient,
    body: &str,
    extra_header: Option<(&str, &str)>,
) -> (u16, String, bool, Option<u64>) {
    for attempt in 0..2 {
        let result = match extra_header {
            Some((name, value)) => client.post_with_header("/v1/classify", body, (name, value)),
            None => client.post("/v1/classify", body),
        };
        match result {
            Ok((status_line, resp_body)) => {
                let trace =
                    client.last_header("x-mqo-trace-id").unwrap_or_default().to_string();
                let degraded = resp_body.contains("\"degraded\":true");
                let retry_after =
                    client.last_header("retry-after").and_then(|v| v.trim().parse().ok());
                return (status_code(&status_line), trace, degraded, retry_after);
            }
            Err(_) if attempt == 0 => {}
            Err(_) => break,
        }
    }
    (0, String::new(), false, None)
}

/// Fire requests and collect measured samples. Workers hold one
/// keep-alive connection each and race to claim request indices; warmup
/// requests (indices `0..warmup`) are sent and discarded before the
/// measured window opens at a barrier. In open-loop mode measured
/// request `k` departs at `epoch + (k - warmup)/rate`.
fn drive(plan: Arc<Plan>) -> (Vec<Sample>, Duration) {
    let warm_next = Arc::new(AtomicUsize::new(0));
    let next = Arc::new(AtomicUsize::new(plan.warmup));
    // Workers + this thread: everyone meets between warmup and measure.
    let barrier = Arc::new(Barrier::new(plan.concurrency + 1));
    // The measured epoch is set by whichever thread exits the barrier
    // first; all pacing and the wall clock share it.
    let epoch: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let mut handles = Vec::new();
    for _ in 0..plan.concurrency {
        let plan = Arc::clone(&plan);
        let warm_next = Arc::clone(&warm_next);
        let next = Arc::clone(&next);
        let barrier = Arc::clone(&barrier);
        let epoch = Arc::clone(&epoch);
        handles.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(plan.addr).ok();
            let extra = plan.extra_header();
            let extra = extra.as_ref().map(|(n, v)| (*n, v.as_str()));
            let mut post = |body: &str| match &mut client {
                Some(c) => post_classify(c, body, extra),
                None => match HttpClient::connect(plan.addr) {
                    Ok(mut c) => {
                        let outcome = post_classify(&mut c, body, extra);
                        client = Some(c);
                        outcome
                    }
                    Err(_) => (0, String::new(), false, None),
                },
            };
            loop {
                let k = warm_next.fetch_add(1, Ordering::SeqCst);
                if k >= plan.warmup {
                    break;
                }
                let body = build_body(k, &plan);
                let _ = post(&body);
            }
            barrier.wait();
            let start = *epoch.get_or_init(Instant::now);
            let mut samples = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                if k >= plan.warmup + plan.requests {
                    break;
                }
                let body = build_body(k, &plan);
                let departs = if plan.open_loop {
                    let scheduled =
                        Duration::from_secs_f64((k - plan.warmup) as f64 / plan.rate);
                    pace_until(start + scheduled);
                    start + scheduled
                } else {
                    Instant::now()
                };
                let (status, trace, degraded, retry_after) = post(&body);
                samples.push(Sample {
                    latency: departs.elapsed(),
                    status,
                    trace,
                    degraded,
                    retry_after,
                });
            }
            samples
        }));
    }
    barrier.wait();
    let start = *epoch.get_or_init(Instant::now);
    let mut samples = Vec::new();
    for h in handles {
        samples.extend(h.join().expect("load thread panicked"));
    }
    (samples, start.elapsed())
}

fn discover_node_max(addr: SocketAddr) -> Result<usize, String> {
    let (status, body) = http_get(addr, "/v1/stats")
        .map_err(|e| format!("cannot reach {addr}/v1/stats: {e}"))?;
    if !status.contains("200") {
        return Err(format!("/v1/stats returned {status}"));
    }
    let stats: serde_json::Value =
        serde_json::from_str(body.trim()).map_err(|e| format!("bad stats JSON: {e}"))?;
    stats
        .get("nodes")
        .and_then(|n| n.as_u64())
        .map(|n| n as usize)
        .ok_or_else(|| "stats JSON has no \"nodes\" field".to_string())
}

/// Best-effort scrape of the router's aggregated peak worker RSS (the
/// `max` across shard workers it computes in `/v1/stats`); 0 when the
/// router or field is unavailable — the bench gate treats a genuine
/// regression, not a scrape hiccup mid-drain, as the failure.
fn discover_peak_rss(addr: SocketAddr) -> u64 {
    let Ok((status, body)) = http_get(addr, "/v1/stats") else {
        return 0;
    };
    if !status.contains("200") {
        return 0;
    }
    serde_json::from_str(body.trim())
        .ok()
        .and_then(|v: serde_json::Value| v.get("peak_rss_mb").and_then(|n| n.as_u64()))
        .unwrap_or(0)
}

/// Fold serving metrics into an existing stats JSON (e.g. a bench
/// baseline), preserving every other key. The vendored `Map` is a
/// `BTreeMap`, so output stays canonically sorted for clean diffs.
fn merge_into(path: &str, entries: &[(&str, f64)]) -> Result<(), String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut doc: serde_json::Value =
        serde_json::from_str(raw.trim()).map_err(|e| format!("bad JSON in {path}: {e}"))?;
    let serde_json::Value::Object(map) = &mut doc else {
        return Err(format!("{path} is not a JSON object"));
    };
    for &(key, value) in entries {
        map.insert(key.into(), serde_json::json!(value));
    }
    let mut out = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    out.push('\n');
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One framing-abuse probe: raw bytes on a fresh connection, optionally
/// half-closed (EOF mid-request), returning the response status (0 when
/// the server just dropped us).
fn raw_probe(addr: SocketAddr, raw: &[u8], half_close: bool) -> Result<u16, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut stream = stream;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    stream.write_all(raw).map_err(|e| format!("write: {e}"))?;
    stream.flush().map_err(|e| format!("flush: {e}"))?;
    if half_close {
        stream.shutdown(Shutdown::Write).map_err(|e| format!("shutdown: {e}"))?;
    }
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    Ok(text.lines().next().map_or(0, status_code))
}

/// The `--malformed` stage: framing-abuse probes that must each earn a
/// `400`, followed by a health check proving the server survived. Probes
/// run in-process (not shell `/dev/tcp` hacks) so smoke scripts get one
/// portable binary.
fn run_malformed(addr: SocketAddr, out: Option<&str>) -> Result<(), String> {
    let mut flood = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        flood.extend_from_slice(format!("X-Flood-{i}: value\r\n").as_bytes());
    }
    flood.extend_from_slice(b"\r\n");
    let probes: Vec<(&str, Vec<u8>, bool)> = vec![
        (
            "conflicting_content_length",
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello"
                .to_vec(),
            false,
        ),
        (
            "truncated_headers",
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Le".to_vec(),
            true,
        ),
        ("header_flood", flood, false),
    ];
    let mut results = Vec::new();
    let mut failed = false;
    for (name, raw, half_close) in probes {
        let status = raw_probe(addr, &raw, half_close)?;
        let pass = status == 400;
        failed |= !pass;
        results.push(serde_json::json!({"probe": name, "status": status, "pass": pass}));
    }
    // The point of rejecting malformed framing is that the server keeps
    // serving everyone else.
    let (health_status, _) = http_get(addr, "/v1/healthz")
        .map_err(|e| format!("server unreachable after malformed probes: {e}"))?;
    let alive = health_status.contains("200");
    failed |= !alive;
    results.push(serde_json::json!({
        "probe": "healthz_after_abuse",
        "status": status_code(&health_status),
        "pass": alive,
    }));
    // Every rejected connection must be visible in the error counter.
    // The increment happens in the handler thread after the 400 goes
    // out, so poll briefly.
    let want = 3u64;
    let mut errors_total = 0u64;
    for _ in 0..100 {
        let (_, text) = http_get(addr, "/metrics")
            .map_err(|e| format!("cannot scrape /metrics after probes: {e}"))?;
        errors_total = text
            .lines()
            .find_map(|l| l.strip_prefix("mqo_http_errors_total "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if errors_total >= want {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let counted = errors_total >= want;
    failed |= !counted;
    results.push(serde_json::json!({
        "probe": "errors_counted_in_metrics",
        "mqo_http_errors_total": errors_total,
        "pass": counted,
    }));
    let summary = serde_json::json!({"mode": "malformed", "probes": results});
    let mut text = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    text.push('\n');
    if let Some(path) = out {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{text}");
    if failed {
        return Err("malformed-request probes failed".into());
    }
    Ok(())
}

/// The `--overload` stage: drive the server well past saturation and
/// check it degrades *gracefully* instead of falling over.
///
/// Phase 1 calibrates sustainable throughput with a short closed-loop
/// run. Phase 2 offers a multiple of that rate (`--overload-factor`,
/// default 5×) open-loop, so shedding is guaranteed. The report splits
/// offered load into admitted goodput, shed (429), drained (503),
/// deadline-expired (504), and transport errors, and measures the
/// degraded-response rate among admitted requests.
///
/// Self-gating checks (non-zero exit on violation):
/// * at least one request must be admitted — shedding everything is an
///   outage, not overload control;
/// * every `429` must carry a well-formed `Retry-After` in `[1, 30]`;
/// * with `--slo-p99-ms N`, admitted p99 must stay under N — admitted
///   work must still meet its SLO *while* the excess is refused.
fn run_overload(args: &Args, plan: Plan) -> Result<(), CliError> {
    let factor: f64 = args.num_or("overload-factor", 5.0)?;
    if factor <= 1.0 {
        return Err("--overload-factor must be > 1".into());
    }
    let cal_requests: usize = args.num_or("cal-requests", 32)?;

    // Phase 1: closed-loop calibration of sustainable throughput.
    let mut cal = plan.clone();
    cal.requests = cal_requests.max(plan.concurrency);
    cal.warmup = 0;
    cal.open_loop = false;
    let (cal_samples, cal_wall) = drive(Arc::new(cal));
    let cal_ok = cal_samples.iter().filter(|s| s.status == 200).count();
    if cal_ok == 0 {
        return Err("calibration run had no successful request".into());
    }
    let sustainable = cal_ok as f64 / cal_wall.as_secs_f64().max(1e-9);
    let rate = (sustainable * factor).max(10.0);
    println!(
        "calibration     : {cal_ok} ok in {:.2}s → {sustainable:.1} rps sustainable, \
         offering {rate:.1} rps ({factor:.1}×)",
        cal_wall.as_secs_f64(),
    );

    // Phase 2: open-loop burst past saturation.
    let mut burst = plan;
    burst.open_loop = true;
    burst.rate = rate;
    let slo_p99_ms: Option<f64> = args.num("slo-p99-ms")?;
    let addr = burst.addr;
    let (samples, wall) = drive(Arc::new(burst));

    let offered = samples.len();
    let mut ok = 0usize;
    let mut degraded_ok = 0usize;
    let mut shed = 0usize;
    let mut bad_shed = 0usize;
    let mut drained = 0usize;
    let mut deadline_expired = 0usize;
    let mut errors = 0usize;
    let mut ok_ms: Vec<f64> = Vec::new();
    for s in &samples {
        match s.status {
            200 => {
                ok += 1;
                if s.degraded {
                    degraded_ok += 1;
                }
                ok_ms.push(s.latency.as_secs_f64() * 1e3);
            }
            429 => {
                shed += 1;
                if !matches!(s.retry_after, Some(r) if (1..=30).contains(&r)) {
                    bad_shed += 1;
                }
            }
            503 => drained += 1,
            504 => deadline_expired += 1,
            _ => errors += 1,
        }
    }
    ok_ms.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    let p50 = percentile(&ok_ms, 0.50);
    let p99 = percentile(&ok_ms, 0.99);
    let goodput = if wall.as_secs_f64() > 0.0 { ok as f64 / wall.as_secs_f64() } else { 0.0 };
    let shed_rate = if offered > 0 { (shed + drained) as f64 / offered as f64 } else { 0.0 };
    let degraded_rate = if ok > 0 { degraded_ok as f64 / ok as f64 } else { 0.0 };
    println!(
        "overload        : offered {offered} at {rate:.1} rps → {ok} admitted \
         ({goodput:.1} rps goodput), {shed} shed, {drained} drained, \
         {deadline_expired} past deadline, {errors} errors"
    );
    println!(
        "overload        : shed rate {:.1}%, degraded rate {:.1}%, admitted p99 {p99:.1} ms",
        100.0 * shed_rate,
        100.0 * degraded_rate,
    );

    let summary = serde_json::json!({
        "mode": "overload",
        "offered": offered,
        "offered_rate_rps": rate,
        "sustainable_rps": sustainable,
        "overload_factor": factor,
        "admitted": ok,
        "degraded": degraded_ok,
        "degraded_rate": degraded_rate,
        "shed_429": shed,
        "shed_without_valid_retry_after": bad_shed,
        "rejected_503": drained,
        "deadline_504": deadline_expired,
        "errors": errors,
        "shed_rate": shed_rate,
        "goodput_rps": goodput,
        "wall_s": wall.as_secs_f64(),
        "admitted_p50_ms": p50,
        "admitted_p99_ms": p99,
    });
    let mut text = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    text.push('\n');
    print!("{text}");
    if let Some(path) = args.get("out") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if args.has("drain") {
        let (status, _) = http_post(addr, "/v1/drain", "{}")
            .map_err(|e| format!("drain request failed: {e}"))?;
        if !status.contains("202") {
            return Err(format!("drain request refused: {status}").into());
        }
    }

    if ok == 0 {
        return Err("overload run admitted nothing — that is an outage, not shedding".into());
    }
    if bad_shed > 0 {
        return Err(format!(
            "{bad_shed} shed response(s) lacked a well-formed Retry-After in [1, 30]"
        )
        .into());
    }
    if let Some(slo) = slo_p99_ms {
        if p99 > slo {
            return Err(format!(
                "admitted p99 {p99:.1} ms breaches --slo-p99-ms {slo:.1} under overload"
            )
            .into());
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), CliError> {
    let addr_text = match (args.get("addr"), args.get("addr-file")) {
        (Some(a), _) => a.to_string(),
        (None, Some(f)) => std::fs::read_to_string(f)
            .map_err(|e| format!("cannot read {f}: {e}"))?
            .trim()
            .to_string(),
        (None, None) => return Err("need --addr or --addr-file".into()),
    };
    let addr: SocketAddr =
        addr_text.parse().map_err(|_| format!("bad address {addr_text:?}"))?;
    if args.has("malformed") {
        return run_malformed(addr, args.get("out")).map_err(CliError::from);
    }
    let requests = args.num_or("requests", 100)?;
    let warmup: usize = args.num_or("warmup", 0)?;
    let concurrency: usize = args.num_or("concurrency", 4)?;
    let batch: usize = args.num_or("batch", 1)?;
    let seed = args.num_or("seed", 42)?;
    let open_loop = match args.get("mode") {
        None | Some("closed") => false,
        Some("open") => true,
        Some(other) => {
            return Err(CliError::Usage(format!("bad --mode {other:?} (want closed|open)")))
        }
    };
    let rate: f64 = args.num_or("rate", 50.0)?;
    if open_loop && rate <= 0.0 {
        return Err("--rate must be positive in open-loop mode".into());
    }
    // Router mode: picks must range over the whole global id space so
    // batches straddle shard boundaries. The loaded map is the source of
    // truth for both the range and per-shard attribution.
    let shard_map = if args.has("router") {
        let path = args
            .get("shard-map")
            .ok_or("--router needs --shard-map FILE for per-shard attribution")?;
        Some(ShardMap::load(path).map_err(|e| format!("cannot load shard map: {e}"))?)
    } else {
        None
    };
    let node_max = match args.num_or("node-max", 0)? {
        0 => match &shard_map {
            Some(map) => map.num_nodes() as usize,
            None => discover_node_max(addr)?,
        },
        n => n,
    };
    if node_max == 0 {
        return Err("node range is empty".into());
    }
    if let Some(map) = &shard_map {
        if node_max > map.num_nodes() as usize {
            return Err(CliError::Usage(format!(
                "--node-max {node_max} exceeds the shard map's {} nodes",
                map.num_nodes()
            )));
        }
    }

    let plan = Plan {
        addr,
        requests,
        warmup,
        concurrency: concurrency.max(1),
        batch: batch.max(1),
        node_max,
        seed,
        tenant: args.get("tenant").map(String::from).unwrap_or_else(|| "default".into()),
        open_loop,
        rate,
        trace_id: args.get("trace-id").map(String::from),
        deadline_ms: args.num("deadline-ms")?,
    };
    if args.has("overload") {
        return run_overload(args, plan);
    }
    let plan = Arc::new(plan);
    let (samples, wall) = drive(Arc::clone(&plan));

    let mut ok = 0usize;
    let mut rejected = 0usize;
    let mut drained = 0usize;
    let mut errors = 0usize;
    let mut ok_ms: Vec<f64> = Vec::new();
    for s in &samples {
        match s.status {
            200 => {
                ok += 1;
                ok_ms.push(s.latency.as_secs_f64() * 1e3);
            }
            429 => rejected += 1,
            503 => drained += 1,
            _ => errors += 1,
        }
    }
    ok_ms.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
    let rps = if wall.as_secs_f64() > 0.0 { ok as f64 / wall.as_secs_f64() } else { 0.0 };
    let p50 = percentile(&ok_ms, 0.50);
    let p90 = percentile(&ok_ms, 0.90);
    let p99 = percentile(&ok_ms, 0.99);
    let p999 = percentile(&ok_ms, 0.999);
    let max = ok_ms.last().copied().unwrap_or(0.0);
    let mean =
        if ok_ms.is_empty() { 0.0 } else { ok_ms.iter().sum::<f64>() / ok_ms.len() as f64 };

    // Router-mode attribution: recompute the measured window's node
    // picks offline (they are pure functions of `(seed, k)`) and charge
    // each to its owning shard via the same map the router consults.
    let mut router_extra: Option<(Vec<u64>, usize, u64)> = None;
    if let Some(map) = &shard_map {
        let mut per_shard = vec![0u64; map.num_shards() as usize];
        let mut mixed = 0usize;
        for k in plan.warmup..plan.warmup + plan.requests {
            let mut seen: Vec<u32> = Vec::new();
            for n in node_picks(k, &plan) {
                let owner = map.owner(n as u32);
                per_shard[owner as usize] += 1;
                if !seen.contains(&owner) {
                    seen.push(owner);
                }
            }
            if seen.len() > 1 {
                mixed += 1;
            }
        }
        for (s, count) in per_shard.iter().enumerate() {
            println!("shard {s:<11}: {count} node picks");
        }
        println!("mixed batches   : {mixed} of {} spanned more than one shard", plan.requests);
        let peak_rss = discover_peak_rss(addr);
        println!("cluster peak rss: {peak_rss} MiB (max across workers)");
        router_extra = Some((per_shard, mixed, peak_rss));
    }

    // The tail, with handles: these trace ids key straight into the
    // server's GET /v1/debug/flight.
    let mut slowest: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    slowest.sort_by_key(|s| std::cmp::Reverse(s.latency));
    slowest.truncate(5);
    for s in &slowest {
        println!(
            "slow request    : {:9.3} ms  trace {}",
            s.latency.as_secs_f64() * 1e3,
            if s.trace.is_empty() { "-" } else { &s.trace },
        );
    }

    let mut summary = serde_json::json!({
        "mode": if plan.open_loop { "open" } else { "closed" },
        "requests": requests,
        "warmup": warmup,
        "concurrency": plan.concurrency,
        "batch": plan.batch,
        "seed": seed,
        "ok": ok,
        "rejected_429": rejected,
        "rejected_503": drained,
        "errors": errors,
        "wall_s": wall.as_secs_f64(),
        "serve_rps": rps,
        "serve_p50_ms": p50,
        "serve_p90_ms": p90,
        "serve_p99_ms": p99,
        "serve_p999_ms": p999,
        "serve_max_ms": max,
        "serve_mean_ms": mean,
        "slowest": slowest
            .iter()
            .map(|s| {
                serde_json::json!({
                    "trace": s.trace,
                    "ms": s.latency.as_secs_f64() * 1e3,
                })
            })
            .collect::<Vec<_>>(),
    });
    if let (Some((per_shard, mixed, peak_rss)), serde_json::Value::Object(o)) =
        (&router_extra, &mut summary)
    {
        o.insert("router".into(), serde_json::json!(true));
        o.insert("per_shard_nodes".into(), serde_json::json!(per_shard.clone()));
        o.insert("mixed_shard_requests".into(), serde_json::json!(*mixed));
        o.insert("peak_rss_mb".into(), serde_json::json!(*peak_rss));
    }
    let mut text = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
    text.push('\n');
    print!("{text}");
    if let Some(path) = args.get("out") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = args.get("merge-into") {
        match &router_extra {
            Some((_, _, peak_rss)) => merge_into(
                path,
                &[
                    ("routed_serve_rps", rps),
                    ("routed_p99_ms", p99),
                    ("peak_rss_mb", *peak_rss as f64),
                ],
            )?,
            None => merge_into(
                path,
                &[("serve_rps", rps), ("serve_p50_ms", p50), ("serve_p99_ms", p99)],
            )?,
        }
    }
    if args.has("drain") {
        // Worker connections are already closed (drive joined them), so
        // the server's handlers can join promptly once draining starts.
        let (status, _) = http_post(addr, "/v1/drain", "{}")
            .map_err(|e| format!("drain request failed: {e}"))?;
        if !status.contains("202") {
            return Err(format!("drain request refused: {status}").into());
        }
    }
    if ok == 0 {
        return Err("no request succeeded".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        return usage();
    }
    match Args::parse(&args, &FLAGS).and_then(|parsed| run(&parsed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.exit_code(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every invocation shape the smoke scripts and the README pass must
    /// still parse; anything else is refused.
    #[test]
    fn flags_parse_strictly() {
        let parse = |line: &str| {
            let words: Vec<String> = line.split_whitespace().map(String::from).collect();
            Args::parse(&words, &FLAGS)
        };
        for line in [
            "--addr-file a --requests 6000 --warmup 500 --concurrency 8 --batch 4 --seed 42 \
             --merge-into m.json --drain",
            "--addr-file a --overload --requests 1200 --concurrency 48 --batch 2 --seed 42 \
             --slo-p99-ms 10000 --out o.json --drain --overload-factor 5 --cal-requests 32",
            "--addr-file a --requests 1 --batch 24 --trace-id 00f067aa0ba902b7 --out t.json",
            "--addr-file a --malformed --out m.json",
            "--addr-file a --requests 20 --tenant throttled --deadline-ms 50 --mode open \
             --rate 100 --node-max 50",
            "--addr 127.0.0.1:9090 --router --shard-map m.bin --requests 300 --warmup 40",
        ] {
            if let Err(e) = parse(line) {
                panic!("{line:?} must parse: {e}");
            }
        }
        for line in ["--addr a --parallel 2", "--addr", "--addr a stray", "--drain yes"] {
            assert!(matches!(parse(line), Err(CliError::Usage(_))), "{line:?} must be refused");
        }
        let args = parse("--addr a --requests many").unwrap();
        assert!(matches!(args.num::<usize>("requests"), Err(CliError::Usage(_))));
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let ms = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(percentile(&ms, 0.50), 3.0);
        assert_eq!(percentile(&ms, 0.99), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn status_line_parses() {
        assert_eq!(status_code("HTTP/1.1 200 OK"), 200);
        assert_eq!(status_code("HTTP/1.1 429 Too Many Requests"), 429);
        assert_eq!(status_code("garbage"), 0);
    }

    fn plan(batch: usize, seed: u64) -> Plan {
        Plan {
            addr: "127.0.0.1:1".parse().unwrap(),
            requests: 8,
            warmup: 0,
            concurrency: 2,
            batch,
            node_max: 50,
            seed,
            tenant: "default".into(),
            open_loop: false,
            rate: 1.0,
            trace_id: None,
            deadline_ms: None,
        }
    }

    #[test]
    fn body_shape_matches_batch_flag() {
        let single = build_body(0, &plan(1, 7));
        assert!(single.contains("\"node\":"), "{single}");
        let multi = build_body(0, &plan(3, 7));
        assert!(multi.contains("\"nodes\": ["), "{multi}");
    }

    #[test]
    fn request_bodies_depend_only_on_seed_and_index() {
        let p = plan(2, 13);
        for k in 0..8 {
            assert_eq!(build_body(k, &p), build_body(k, &p));
        }
        assert_ne!(build_body(0, &p), build_body(1, &p), "indices draw distinct nodes");
        assert_ne!(build_body(0, &p), build_body(0, &plan(2, 14)), "seeds shift the stream");
    }

    #[test]
    fn pace_until_reaches_the_deadline_without_oversleeping_wildly() {
        let deadline = Instant::now() + Duration::from_millis(5);
        pace_until(deadline);
        let now = Instant::now();
        assert!(now >= deadline, "returned before the deadline");
        assert!(
            now.duration_since(deadline) < Duration::from_millis(50),
            "overslept by {:?}",
            now.duration_since(deadline)
        );
    }

    #[test]
    fn build_body_matches_node_picks() {
        // The summary's per-shard attribution replays node_picks offline;
        // it must see exactly the nodes the wire bodies named.
        let p = plan(3, 21);
        for k in 0..4 {
            let picks = node_picks(k, &p);
            let body = build_body(k, &p);
            for n in picks {
                assert!(body.contains(&n.to_string()), "{body} lacks {n}");
            }
        }
    }

    #[test]
    fn router_mode_attribution_counts_every_pick_once() {
        // A 2-shard map over 50 nodes: every pick lands on exactly one
        // shard, so the per-shard counts sum to requests × batch.
        let mut b = mqo_graph::GraphBuilder::new(50);
        for v in 1..50u32 {
            b.add_edge(v - 1, v).unwrap();
        }
        let map = mqo_shard::partition(&b.build(), 2, 9, mqo_shard::PartitionStrategy::EdgeCut);
        let p = plan(4, 33);
        let mut per_shard = [0u64; 2];
        let mut total = 0u64;
        for k in 0..p.requests {
            for n in node_picks(k, &p) {
                per_shard[map.owner(n as u32) as usize] += 1;
                total += 1;
            }
        }
        assert_eq!(per_shard.iter().sum::<u64>(), total);
        assert_eq!(total, (p.requests * p.batch) as u64);
    }

    #[test]
    fn pace_until_with_past_deadline_returns_immediately() {
        let deadline = Instant::now();
        let started = Instant::now();
        pace_until(deadline);
        assert!(started.elapsed() < Duration::from_millis(5));
    }
}
