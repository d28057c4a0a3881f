//! Run results: metrics, correctness verdict, provenance, and the one
//! JSON line the benchmark ends its output with.

use serde_json::{json, Map, Value};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, with all its digits.
    pub value: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (node classifications) attempted.
    pub attempted: u64,
    /// Operations that failed: lost to a non-200 or transport error, or
    /// answered with a failed record.
    pub failed: u64,
    /// Broken correctness checks; empty means the outputs were right.
    pub violations: Vec<String>,
    /// Measured metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Supporting numbers (sample counts, cache counters, digests, ...)
    /// written to the results file, not to the result line.
    pub details: Map<String, Value>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Record a supporting detail.
    pub fn detail(&mut self, key: &str, value: Value) {
        self.details.insert(key.to_string(), value);
    }

    /// Check `ok`, recording `what` as a violation when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Non-finite values cannot be printed as JSON numbers and make the
    /// run incorrect instead.
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        let mut finite = true;
        for m in &self.metrics {
            finite &= m.value.is_finite();
            metrics.insert(m.name.to_string(), json!({"value": m.value, "unit": m.unit}));
        }
        let line = json!({
            "correct": finite && self.violations.is_empty(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("result serialization")
    }
}

/// `git args` in the current directory, only when that directory is the
/// top of a git checkout (a plain copy of the repository that happens to
/// sit inside another repository must not report that one's commit).
fn run_git(args: &[&str]) -> Option<String> {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = std::fs::canonicalize(git(&["rev-parse", "--show-toplevel"])?).ok()?;
    (top == std::env::current_dir().ok()?.canonicalize().ok()?).then(|| git(args))?
}

/// Where and with what the numbers were measured, so no number can be
/// carried forward from another run: git commit and dirty flag (null
/// outside a git checkout), CPU count, kernel, seed, the `mqo` binary's
/// path and modification time, and the start time.
pub fn provenance(mqo: &Path, seed: u64, started: SystemTime) -> Value {
    let secs = |t: SystemTime| t.duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64());
    let mtime = std::fs::metadata(mqo).and_then(|m| m.modified()).ok().map(secs);
    json!({
        "git_commit": run_git(&["rev-parse", "HEAD"]),
        "git_dirty": run_git(&["status", "--porcelain"]).map(|s| !s.is_empty()),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .ok(),
        "seed": seed,
        "mqo_binary": mqo.display().to_string(),
        "mqo_mtime_unix": mtime,
        "started_unix": secs(started),
    })
}

/// Write the run's full record to `work/results/` and print the result
/// line last on stdout (violations go to stderr). Returns whether the
/// outputs were correct.
pub fn publish(
    work: &Path,
    workload: &str,
    trace: bool,
    provenance: Value,
    outcome: &Outcome,
) -> std::io::Result<bool> {
    let line = outcome.result_line();
    let result: Value = serde_json::from_str(&line).expect("result line is JSON");
    let dir = work.join("results");
    std::fs::create_dir_all(&dir)?;
    let seed = provenance["seed"].as_u64().unwrap_or(0);
    let path = dir.join(format!("{workload}-seed{seed}-trace{}.json", u8::from(trace)));
    let record = json!({
        "workload": workload,
        "trace": trace,
        "provenance": provenance,
        "result": result,
        "violations": outcome.violations.clone(),
        "details": Value::Object(outcome.details.clone()),
    });
    std::fs::write(&path, serde_json::to_string_pretty(&record).expect("record json") + "\n")?;
    for v in &outcome.violations {
        eprintln!("correctness violation [{workload}]: {v}");
    }
    eprintln!("results written  : {}", path.display());
    println!("{line}");
    Ok(result["correct"].as_bool() == Some(true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome { attempted: 10, failed: 1, ..Outcome::default() };
        o.metric("latency_ms", "ms", 1.2034);
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v["correct"], Value::Bool(true));
        assert_eq!(v["metrics"]["latency_ms"]["value"].as_f64(), Some(1.2034));
        assert_eq!(v["metrics"]["latency_ms"]["unit"].as_str(), Some("ms"));

        o.check(false, || "records out of order".into());
        let v: Value = serde_json::from_str(&o.result_line()).unwrap();
        assert_eq!(v["correct"], Value::Bool(false));

        let mut nan = Outcome { attempted: 1, ..Outcome::default() };
        nan.metric("x", "s", f64::NAN);
        let v: Value = serde_json::from_str(&nan.result_line()).unwrap();
        assert_eq!(v["correct"], Value::Bool(false));
    }

    #[test]
    fn provenance_names_the_binary_and_seed() {
        let p = provenance(Path::new("/nonexistent/mqo"), 7, SystemTime::now());
        assert_eq!(p["seed"].as_u64(), Some(7));
        assert_eq!(p["mqo_binary"].as_str(), Some("/nonexistent/mqo"));
        assert_eq!(p["mqo_mtime_unix"], Value::Null);
        assert!(p["nproc"].as_u64().unwrap() >= 1);
        assert!(p["started_unix"].as_f64().unwrap() > 0.0);
    }
}
