//! Runs every workload at a tiny in-code size (`--smoke`), end to end and
//! traced, against a freshly built `mqo`, and checks that each result
//! line is well formed, reports correct outputs, and names exactly the
//! metrics `BENCHMARK.json` declares, with their units.

use mqo_benchmark::spec::{self, Declared};
use mqo_benchmark::workload::WORKLOADS;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Build the system under test into a target dir of its own (the one
/// running this test is locked by the outer cargo).
fn build_mqo() -> PathBuf {
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mqo-build");
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(repo())
        .args(["build", "--release", "--offline", "--quiet", "-p", "mqo-bench", "--bin", "mqo"])
        .arg("--target-dir")
        .arg(&target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building mqo failed");
    target.join("release").join("mqo")
}

fn check_line(line: &str, declared: &[Declared], what: &str) {
    let v: Value = serde_json::from_str(line).unwrap_or_else(|e| panic!("{what}: {e}: {line}"));
    let keys: Vec<&str> = v.as_object().expect("object").keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"], "{what}");
    assert_eq!(v["correct"].as_bool(), Some(true), "{what}: {line}");
    assert!(v["attempted"].as_u64().is_some_and(|n| n >= 1), "{what}");
    assert_eq!(v["failed"].as_u64(), Some(0), "{what}");
    let metrics = v["metrics"].as_object().expect("metrics object");
    let mut names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut want: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want, "{what}: metric names");
    for m in declared {
        let got = &metrics[&m.name];
        assert_eq!(got["unit"].as_str(), Some(m.unit.as_str()), "{what}: unit of {}", m.name);
        assert!(got["value"].as_f64().is_some_and(f64::is_finite), "{what}: {}", m.name);
    }
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let declaration = repo().join("BENCHMARK.json");
    let spec = spec::load(&declaration).expect("BENCHMARK.json");
    let raw: Value =
        serde_json::from_str(&std::fs::read_to_string(&declaration).unwrap()).unwrap();
    let declared_workloads: Vec<&str> = raw["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared_workloads, names);

    let mqo = build_mqo();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for w in WORKLOADS {
        for (trace, bin, declared) in [
            ("0", env!("CARGO_BIN_EXE_mqo-benchmark"), &spec.end_to_end),
            ("1", env!("CARGO_BIN_EXE_mqo-benchmark-trace"), &spec.per_layer),
        ] {
            let what = format!("{} --trace {trace}", w.name);
            let out = Command::new(bin)
                .args(["--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", trace])
                .arg("--smoke")
                .arg("--mqo")
                .arg(&mqo)
                .arg("--work")
                .arg(&work)
                .output()
                .expect("run benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{what} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            check_line(stdout.lines().last().expect("a result line"), declared, &what);
        }
    }
}
