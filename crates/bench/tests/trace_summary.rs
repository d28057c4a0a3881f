//! `mqo classify --trace`: the one-screen summary is read from the same
//! metrics sink that backs `/metrics`, so its counts must agree with the
//! run's own stats and with the JSONL event file written beside it.

use std::process::Command;

/// The first number after `label` on the stdout line that starts with it.
fn figure(stdout: &str, label: &str) -> u64 {
    stdout
        .lines()
        .find_map(|l| l.trim_start().strip_prefix(label))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no {label:?} figure in:\n{stdout}"))
}

#[test]
fn trace_summary_agrees_with_stats_and_the_event_file() {
    let dir = std::env::temp_dir().join("mqo-trace-summary");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join(format!("{}-trace.jsonl", std::process::id()));
    let stats_file = dir.join(format!("{}-stats.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_mqo"))
        .args(["classify", "cora", "--queries", "120", "--seed", "42"])
        .args(["--boost", "--deterministic", "--threads", "2"])
        .args([
            "--trace",
            trace.to_str().unwrap(),
            "--stats-json",
            stats_file.to_str().unwrap(),
        ])
        .output()
        .expect("run mqo classify");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let events = std::fs::read_to_string(&trace).unwrap();
    let stats: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&stats_file).unwrap()).unwrap();
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&stats_file);

    let kind = |k: &str| {
        let tag = format!("{{\"type\":\"{k}\"");
        events.lines().filter(|l| l.starts_with(&tag)).count() as u64
    };
    let queries = figure(&stdout, "queries executed");
    assert_eq!(queries, 120);
    assert_eq!(Some(queries), stats["queries"].as_u64(), "summary vs --stats-json");
    assert_eq!(queries, kind("query_executed"), "summary vs query_executed lines");

    // The summary's line is "boosting rounds  N"; the run report's is
    // "boosting rounds: N".
    let rounds = figure(&stdout, "boosting rounds ");
    assert!(rounds > 0, "a boosted run completes rounds:\n{stdout}");
    assert_eq!(rounds, figure(&stdout, "boosting rounds:"), "summary vs the run report");
    assert_eq!(rounds, kind("round_completed"), "summary vs round_completed lines");

    assert!(!stdout.contains("evicted"), "no event ring, no eviction warning:\n{stdout}");
}
