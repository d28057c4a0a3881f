//! `mqo classify` and the serving engine build every run from the same
//! assembly (`mqo_serve::run`), so with the order-dependent optimizations
//! off (no response cache, no boosting) a served batch of the split's
//! query nodes must produce exactly the records the CLI dumps for the
//! same campaign, under faults, a hard budget and reduced retries too.

use mqo_core::journal::record_to_json;
use mqo_core::QueryRecord;
use mqo_data::{dataset, DatasetId};
use mqo_serve::{Engine, ServeConfig};
use std::path::PathBuf;
use std::process::Command;

const SCALE: f64 = 0.3;
const SEED: u64 = 42;
const QUERIES: usize = 60;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mqo-parity-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

/// Records in `--dump-records` form: sorted by node, one JSON line each.
fn dump(mut records: Vec<QueryRecord>) -> Vec<String> {
    records.sort_by_key(|r| (r.node.0, r.prompt_tokens));
    records.iter().map(|r| serde_json::to_string(&record_to_json(r)).unwrap()).collect()
}

/// Run `mqo classify` with `flags` and return its record dump.
fn classify(name: &str, flags: &[&str]) -> Vec<String> {
    let out = tmp(&format!("{name}.jsonl"));
    let (scale, queries, seed) = (SCALE.to_string(), QUERIES.to_string(), SEED.to_string());
    let output = Command::new(env!("CARGO_BIN_EXE_mqo"))
        .args(["classify", "cora", "--scale", &scale, "--queries", &queries, "--seed", &seed])
        .args(["--no-cache", "--dump-records", out.to_str().unwrap()])
        .args(flags)
        .output()
        .expect("run mqo classify");
    assert!(output.status.success(), "{flags:?}: {}", String::from_utf8_lossy(&output.stderr));
    let body = std::fs::read_to_string(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    body.lines().map(String::from).collect()
}

/// Serve the split's query nodes, in split order, as one batch.
fn serve(cfg: ServeConfig) -> Vec<String> {
    let bundle = dataset(DatasetId::Cora, Some(SCALE), SEED);
    let queries = mqo_serve::run::split(&bundle, QUERIES, SEED).unwrap().queries().to_vec();
    let cfg = ServeConfig { seed: SEED, split_queries: QUERIES, cache_cap: 0, ..cfg };
    let engine = Engine::new(bundle, cfg).unwrap();
    dump(engine.process(&queries, "parity").records)
}

#[test]
fn classify_records_match_served_records() {
    let base = ServeConfig::default;
    let mut clean = None;
    for (name, flags, cfg) in [
        ("clean", &[][..], base()),
        (
            "faults",
            &["--faults", "error=0.10,malformed=0.05"][..],
            ServeConfig { faults: Some("error=0.10,malformed=0.05".into()), ..base() },
        ),
        ("budget", &["--budget", "8000"][..], ServeConfig { budget: Some(8000), ..base() }),
        (
            "retries",
            &["--retries", "1", "--faults", "malformed=0.2"][..],
            ServeConfig { retries: 1, faults: Some("malformed=0.2".into()), ..base() },
        ),
        ("sns", &["--method", "sns"][..], ServeConfig { method: "sns".into(), ..base() }),
    ] {
        let cli = classify(name, flags);
        let served = serve(cfg);
        assert_eq!(cli.len(), QUERIES, "{name}: one record per query");
        let differing = cli.iter().zip(&served).filter(|(a, b)| a != b).count();
        assert!(cli == served, "{name}: {differing} of {QUERIES} records differ");
        // Each non-clean flag set must actually change the campaign, or
        // its arm would only re-check the clean one.
        match &clean {
            None => clean = Some(cli),
            Some(clean) => assert_ne!(&cli, clean, "{name}: flags had no effect"),
        }
    }
}
