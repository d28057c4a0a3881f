//! End-to-end runs: the real `mqo` processes, driven and measured from
//! outside. Nothing here links the repository's crates; the system is
//! reached only through its command line, its sockets and `/proc`.

use crate::http::Client;
use crate::inputs::Inputs;
use crate::load::{Load, Tally};
use crate::proc::{free_port, read_addr_file, wait_until, Proc};
use crate::procfs::{cpu_micros, status_kb};
use crate::report::Outcome;
use crate::stats::{highest_supported, median, nearest_rank};
use crate::workload::{Kind, Workload};
use serde_json::{json, Value};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up (data load, engine build) must finish within this.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Graceful stop before SIGKILL.
const STOP_GRACE: Duration = Duration::from_secs(20);
/// Every server runs with these: 2 execution slots (the benchmark is
/// sized for 2 cores) and a wait room no workload fills.
const SERVER_FLAGS: [&str; 4] = ["--workers", "2", "--queue-cap", "32"];
/// Client threads (= keep-alive connections) per load.
pub const CLIENT_THREADS: usize = 2;

/// Where a run finds its binary and inputs, and how big it is.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The `mqo` binary under test.
    pub mqo: PathBuf,
    /// Working directory for logs, address files and results.
    pub work: PathBuf,
    /// Prepared inputs.
    pub inputs: Inputs,
    /// Scale factor on every request and query count (1.0 except in the
    /// package's own smoke test).
    pub size: f64,
}

impl Ctx {
    fn file(&self, name: &str) -> PathBuf {
        self.work.join("run").join(name)
    }

    fn spawn(&self, name: &str, args: Vec<String>) -> io::Result<Proc> {
        Proc::spawn(name, &self.mqo, &args, &self.work.join("logs").join(format!("{name}.log")))
    }
}

fn s(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// `GET path` on a fresh connection, parsed as JSON.
pub fn get_json(addr: SocketAddr, path: &str) -> io::Result<(u16, Value)> {
    let (status, body) = Client::new(addr).get(path)?;
    let v = serde_json::from_str(&body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}")))?;
    Ok((status, v))
}

/// Wait for a process to write its `--addr-file`, then for `ready` to
/// accept its health document.
fn await_ready(
    proc: &mut Proc,
    addr_file: &Path,
    ready: impl Fn(&Value) -> bool,
) -> io::Result<SocketAddr> {
    let addr = wait_until(READY_TIMEOUT, "address file", || {
        proc.check_alive()?;
        Ok(read_addr_file(addr_file))
    })?;
    wait_until(READY_TIMEOUT, "healthz", || {
        proc.check_alive()?;
        Ok(match get_json(addr, "/v1/healthz") {
            Ok((200, v)) if ready(&v) => Some(()),
            _ => None,
        })
    })?;
    Ok(addr)
}

/// A running system under test: one `mqo serve`, or two shard workers
/// behind `mqo route`.
pub struct System {
    /// Every process; the one `addr` points at is last.
    pub procs: Vec<Proc>,
    /// Where the load goes.
    pub addr: SocketAddr,
    /// The processes that classify (their `/v1/stats` hold the tenant
    /// ledger), by shard id.
    pub workers: Vec<SocketAddr>,
}

impl System {
    /// Pids of every process.
    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }

    /// `/v1/stats` of every classifying process.
    pub fn stats(&self) -> io::Result<Vec<Value>> {
        self.workers.iter().map(|&a| Ok(get_json(a, "/v1/stats")?.1)).collect()
    }

    /// Stop the front first, then the workers.
    pub fn stop(self) {
        for p in self.procs.into_iter().rev() {
            p.stop(STOP_GRACE);
        }
    }
}

/// Spawn `mqo serve file` and wait until `/v1/healthz` answers 200.
/// Returns the system and the spawn-to-ready time in seconds.
pub fn start_server(ctx: &Ctx, file: &Path) -> io::Result<(System, f64)> {
    let addr_file = ctx.file("serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let mut args = strings(&["serve", &s(file), "--addr", "127.0.0.1:0"]);
    args.extend(strings(&["--addr-file", &s(&addr_file)]));
    args.extend(strings(&SERVER_FLAGS));
    let started = Instant::now();
    let mut proc = ctx.spawn("serve", args)?;
    let addr = await_ready(&mut proc, &addr_file, |_| true)?;
    let setup = started.elapsed().as_secs_f64();
    Ok((System { procs: vec![proc], addr, workers: vec![addr] }, setup))
}

/// Spawn both shard workers of `shards` (an `mqo partition` directory;
/// boosting if `boost`, pushing labels every 100 ms), then `mqo route`,
/// and wait until every worker is healthy and the router reports 2
/// shards, none ejected. Returns the system and the spawn-to-ready time
/// in seconds.
pub fn start_cluster(ctx: &Ctx, shards: &Path, boost: bool) -> io::Result<(System, f64)> {
    let map = shards.join("shard-map.bin");
    // The router's port must be known before it starts (workers push
    // labels to it), so it is probed, not assigned.
    let router_addr = format!("127.0.0.1:{}", free_port()?);
    let started = Instant::now();
    let mut procs = Vec::new();
    let mut files = Vec::new();
    for k in 0..2 {
        let addr_file = ctx.file(&format!("worker-{k}.addr"));
        let _ = std::fs::remove_file(&addr_file);
        let bundle = shards.join(format!("shard-{k}.bin"));
        let mut args = strings(&["serve", &s(&bundle), "--shard-id", &k.to_string()]);
        args.extend(strings(&["--shard-map", &s(&map), "--router", &router_addr]));
        args.extend(strings(&["--exchange-interval-ms", "100", "--addr", "127.0.0.1:0"]));
        args.extend(strings(&["--addr-file", &s(&addr_file)]));
        args.extend(strings(&SERVER_FLAGS));
        if boost {
            args.push("--boost".into());
        }
        procs.push(ctx.spawn(&format!("worker-{k}"), args)?);
        files.push(addr_file);
    }
    let mut workers = Vec::new();
    for (w, f) in procs.iter_mut().zip(&files) {
        workers.push(await_ready(w, f, |_| true)?);
    }
    let addr_file = ctx.file("router.addr");
    let _ = std::fs::remove_file(&addr_file);
    let list: Vec<String> = workers.iter().map(|a| a.to_string()).collect();
    let mut args = strings(&["route", &s(&map), "--workers", &list.join(",")]);
    args.extend(strings(&["--addr", &router_addr, "--addr-file", &s(&addr_file)]));
    let mut router = ctx.spawn("router", args)?;
    let addr = await_ready(&mut router, &addr_file, |v| {
        v["num_shards"].as_u64() == Some(2) && v["ejected"].as_u64() == Some(0)
    })?;
    let setup = started.elapsed().as_secs_f64();
    procs.push(router);
    Ok((System { procs, addr, workers }, setup))
}

/// Start the system workload `w` serves.
pub fn start(ctx: &Ctx, w: &Workload) -> io::Result<(System, f64)> {
    match w.kind {
        Kind::Routed => start_cluster(ctx, ctx.inputs.shards(w.dataset), w.boost),
        _ => start_server(ctx, ctx.inputs.data(w.dataset)),
    }
}

fn total_cpu(pids: &[u32]) -> io::Result<u64> {
    pids.iter().map(|&p| cpu_micros(p)).sum()
}

fn total_hwm_mib(pids: &[u32]) -> io::Result<f64> {
    let kb: u64 = pids.iter().map(|&p| status_kb(Some(p), "VmHWM")).sum::<io::Result<u64>>()?;
    Ok(kb as f64 / 1024.0)
}

/// One slice of the measured window.
struct Window {
    tally: Tally,
    secs: f64,
    cpu_micros: u64,
}

/// The measured window is cut into this many consecutive slices, and
/// throughput and latency are the medians of their per-slice values: a
/// burst of interference from outside the benchmark then moves at most a
/// few slices, not the result.
const WINDOWS: u64 = 20;

/// `serve-hot`, `serve-cold`, `serve-routed`: set the system up
/// `w.setups` times (the last one serves), warm up, then measure the
/// fixed request count in slices, with every response checked.
pub fn run_serve(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut setups = Vec::new();
    for _ in 1..w.setups {
        let (system, setup) = start(ctx, w)?;
        setups.push(setup);
        system.stop();
    }
    let (system, setup) = start(ctx, w)?;
    setups.push(setup);
    let nodes = get_json(system.addr, "/v1/stats")?.1["nodes"].as_u64().unwrap_or(0) as u32;
    let mut load = Load::new(system.addr, seed, w.batch, nodes, CLIENT_THREADS);
    let (warmup, measured) = (w.warmup(ctx.size), w.measured(seconds, ctx.size));
    let pids = system.pids();
    let mut all = load.drive(0..warmup);
    let mut windows = Vec::new();
    for k in 0..WINDOWS {
        let range = warmup + measured * k / WINDOWS..warmup + measured * (k + 1) / WINDOWS;
        let cpu0 = total_cpu(&pids)?;
        let t0 = Instant::now();
        let tally = load.drive(range);
        let secs = t0.elapsed().as_secs_f64();
        windows.push(Window {
            tally,
            secs,
            cpu_micros: total_cpu(&pids)?.saturating_sub(cpu0),
        });
    }
    let peak_rss_mib = total_hwm_mib(&pids)?;
    let stats = system.stats()?;
    system.stop();

    let mut out = Outcome::default();
    let mut per_window: [Vec<f64>; 4] = Default::default();
    let mut latencies = Vec::new();
    for win in &mut windows {
        let t = &mut win.tally;
        let ok_queries = (t.records - t.failures) as f64;
        t.latencies_ms.sort_by(f64::total_cmp);
        if !t.latencies_ms.is_empty() {
            per_window[0].push(ok_queries / win.secs);
            per_window[1].push(nearest_rank(&t.latencies_ms, 50.0));
            per_window[2].push(nearest_rank(&t.latencies_ms, 99.0));
            per_window[3].push(win.cpu_micros as f64 / (t.ok * w.batch as u64).max(1) as f64);
        }
        latencies.extend_from_slice(&t.latencies_ms);
    }
    let windows_cpu: Vec<u64> = windows.iter().map(|w| w.cpu_micros).collect();
    let measured_ok: u64 = windows.iter().map(|w| w.tally.ok).sum();
    for win in windows {
        all.merge(win.tally);
    }
    latencies.sort_by(f64::total_cmp);

    let sum = |key: &dyn Fn(&Value) -> Option<u64>| stats.iter().filter_map(key).sum::<u64>();
    let spent = sum(&|v| v["tenants"]["default"]["spent_tokens"].as_u64());
    out.check(all.billed == spent, || {
        format!("responses billed {} tokens but the tenant ledgers spent {spent}", all.billed)
    });
    let queries = (warmup + measured) * w.batch as u64;
    let served = sum(&|v| v["queries"].as_u64());
    out.check(served == queries, || {
        format!("servers counted {served} queries, {queries} were sent")
    });
    out.check(all.failures == 0, || format!("{} records carry a failure", all.failures));
    out.violations.extend(all.violations.iter().cloned());
    if all.violation_count > all.violations.len() as u64 {
        out.violations
            .push(format!("... {} broken response checks in all", all.violation_count));
    }
    out.attempted = queries;
    out.failed = all.lost_nodes + all.failures;

    if per_window[0].is_empty() {
        return Err(io::Error::other("no request succeeded"));
    }
    out.metric("throughput_qps", "queries/s", median(&per_window[0]));
    out.metric("latency_p50_ms", "ms", median(&per_window[1]));
    out.metric("latency_p99_ms", "ms", median(&per_window[2]));
    // CPU is read in whole clock ticks, too coarse for one slice: the
    // whole window's CPU over its queries keeps all the resolution.
    let cpu: u64 = windows_cpu.iter().sum();
    out.metric("cpu_us_per_query", "us", cpu as f64 / (measured_ok * w.batch as u64) as f64);
    let tokens = sum(&|v| v["tokens_billed"].as_u64());
    out.metric("tokens_per_query", "tokens", tokens as f64 / all.records as f64);
    out.metric("accuracy", "fraction", all.correct as f64 / all.records as f64);
    out.metric("setup_s", "s", median(&setups));
    out.metric("peak_rss_mb", "MiB", peak_rss_mib);

    let highest = highest_supported(latencies.len());
    out.detail(
        "latency",
        json!({
            "samples": latencies.len(),
            "p50_ms": nearest_rank(&latencies, 50.0),
            "p99_ms": nearest_rank(&latencies, 99.0),
            "highest_supported_percentile": highest,
            "highest_supported_ms": highest.map(|p| nearest_rank(&latencies, p)),
            "max_ms": latencies.last().copied(),
        }),
    );
    let names = ["throughput_qps", "latency_p50_ms", "latency_p99_ms", "cpu_us_per_query"];
    let slices: serde_json::Map<String, Value> =
        names.iter().zip(&per_window).map(|(n, v)| (n.to_string(), json!(v.clone()))).collect();
    out.detail("per_window", Value::Object(slices));
    out.detail("setup_samples_s", json!(setups));
    out.detail("requests", json!({"warmup": warmup, "measured": measured}));
    out.detail("server_stats", Value::Array(stats));
    Ok(out)
}

/// What one `mqo classify` job reported.
#[derive(Debug)]
pub struct Job {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// The job's own run timer (`wall_seconds` of `--stats-json`).
    pub run_s: f64,
    /// Child CPU time, microseconds.
    pub cpu_micros: u64,
    /// Child peak RSS, kB.
    pub max_rss_kb: u64,
    /// The `--stats-json` document.
    pub stats: Value,
    /// FNV-1a digest of the `--dump-records` file.
    pub digest: String,
    /// Lines in the dump (one per record).
    pub records: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Run one boosted, deterministic `mqo classify` job of `queries`.
pub fn classify_job(ctx: &Ctx, file: &Path, queries: u64, seed: u64) -> io::Result<Job> {
    let stats_file = ctx.file("classify-stats.json");
    let dump = ctx.file("classify-records.jsonl");
    let q = queries.to_string();
    let sd = seed.to_string();
    let mut args = strings(&["classify", &s(file), "--queries", &q, "--seed", &sd]);
    args.extend(strings(&["--boost", "--deterministic", "--threads", "2"]));
    args.extend(strings(&["--stats-json", &s(&stats_file), "--dump-records", &s(&dump)]));
    let started = Instant::now();
    let usage = ctx.spawn("classify", args)?.wait_usage()?;
    let wall_s = started.elapsed().as_secs_f64();
    if !usage.success {
        return Err(io::Error::other("mqo classify failed; see logs/classify.log"));
    }
    let stats: Value = serde_json::from_str(&std::fs::read_to_string(&stats_file)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("stats json: {e}")))?;
    let records = std::fs::read(&dump)?;
    Ok(Job {
        wall_s,
        run_s: stats["wall_seconds"].as_f64().unwrap_or(f64::NAN),
        cpu_micros: usage.cpu_micros,
        max_rss_kb: usage.max_rss_kb,
        digest: format!("{:016x}", fnv1a(&records)),
        records: records.iter().filter(|&&b| b == b'\n').count() as u64,
        stats,
    })
}

/// `batch-boost`: the same deterministic job `setups` times. Job latency
/// stands in for request latency (p99 is the slowest job); set-up is a
/// job's wall time minus its own run timer.
pub fn run_batch(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    let queries = w.measured(seconds, ctx.size);
    let jobs: Vec<Job> = (0..w.setups)
        .map(|_| classify_job(ctx, ctx.inputs.data(w.dataset), queries, seed))
        .collect::<io::Result<_>>()?;
    let mut out = Outcome { attempted: queries * jobs.len() as u64, ..Outcome::default() };
    let first = &jobs[0];
    for (i, j) in jobs.iter().enumerate() {
        out.check(j.digest == first.digest, || {
            format!("job {i} record digest {} differs from job 0's {}", j.digest, first.digest)
        });
        out.check(j.records == queries && j.stats["queries"].as_u64() == Some(queries), || {
            format!("job {i} returned {} records for {queries} queries", j.records)
        });
        let failed = j.stats["failed"].as_u64().unwrap_or(u64::MAX);
        out.check(failed == 0, || format!("job {i}: {failed} failed queries"));
        out.failed += failed.min(queries);
    }
    let each = |f: &dyn Fn(&Job) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let q = queries as f64;
    let mut walls_ms = each(&|j| j.wall_s * 1e3);
    walls_ms.sort_by(f64::total_cmp);
    out.metric("throughput_qps", "queries/s", median(&each(&|j| q / j.run_s)));
    out.metric("latency_p50_ms", "ms", median(&walls_ms));
    out.metric("latency_p99_ms", "ms", nearest_rank(&walls_ms, 99.0));
    out.metric("cpu_us_per_query", "us", median(&each(&|j| j.cpu_micros as f64 / q)));
    let tokens = first.stats["tokens_sent"].as_f64().unwrap_or(f64::NAN);
    out.metric("tokens_per_query", "tokens", tokens / q);
    out.metric("accuracy", "fraction", first.stats["accuracy"].as_f64().unwrap_or(f64::NAN));
    out.metric("setup_s", "s", median(&each(&|j| j.wall_s - j.run_s)));
    out.metric("peak_rss_mb", "MiB", median(&each(&|j| j.max_rss_kb as f64 / 1024.0)));
    out.detail("queries_per_job", json!(queries));
    out.detail("record_digest", json!(first.digest));
    out.detail("job_wall_s", json!(each(&|j| j.wall_s)));
    out.detail("job_run_s", json!(each(&|j| j.run_s)));
    Ok(out)
}

/// Run workload `w` once.
pub fn run(ctx: &Ctx, w: &Workload, seed: u64, seconds: f64) -> io::Result<Outcome> {
    std::fs::create_dir_all(ctx.work.join("run"))?;
    std::fs::create_dir_all(ctx.work.join("logs"))?;
    match w.kind {
        Kind::Direct | Kind::Routed => run_serve(ctx, w, seed, seconds),
        Kind::Batch => run_batch(ctx, w, seed, seconds),
    }
}
