//! Pins the simulated model's answers: `mqo classify --dump-records` on
//! fixed campaigns must keep writing exactly the bytes recorded here.
//!
//! The dumps carry every record's prediction, correctness and billed
//! tokens, so a change to prompt rendering, tokenization, the
//! simulated LLM's prompt reader, the record writer or the boosting
//! waves' readiness decisions that moves a single answer or count
//! changes a digest. A change that is *meant* to move
//! answers must re-record the constants and say why.

use std::path::PathBuf;
use std::process::Command;

/// 64-bit FNV-1a (plain, no finalizer) of `bytes`. The digests below are
/// pinned in this hash, so it stays FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Run `mqo classify` with `args` and return its `--dump-records` bytes.
fn dump(name: &str, args: &[&str]) -> Vec<u8> {
    let dir = std::env::temp_dir().join("mqo-records-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let out: PathBuf = dir.join(format!("{}-{name}.jsonl", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_mqo"))
        .arg("classify")
        .args(args)
        .args(["--dump-records", out.to_str().unwrap()])
        .output()
        .expect("run mqo classify");
    assert!(output.status.success(), "{name}: {}", String::from_utf8_lossy(&output.stderr));
    let body = std::fs::read(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    body
}

#[test]
fn record_dumps_match_their_recorded_digests() {
    const CORA: [&str; 5] = ["cora", "--queries", "120", "--seed", "42"];
    const BOOST: [&str; 4] = ["--boost", "--deterministic", "--threads", "2"];
    let arms: [(&str, Vec<&str>, usize, u64); 9] = [
        ("cora", CORA.to_vec(), 120, 0xc271_8df4_1ea3_f28c),
        ("cora-boost", [&CORA[..], &BOOST].concat(), 120, 0xb895_47eb_eef7_80f0),
        // The multi-hop selections: a 2-hop BFS, SNS's ring-by-ring
        // exploration and the relevance ranking, each read twice per
        // query by a boosted run (readiness pass and render).
        (
            "cora-2hop-boost",
            [&CORA[..], &["--method", "2hop"], &BOOST].concat(),
            120,
            0x6d06_88ee_e76f_c949,
        ),
        (
            "cora-sns-boost",
            [&CORA[..], &["--method", "sns"], &BOOST].concat(),
            120,
            0x8140_f1e3_8fd4_9a06,
        ),
        (
            "cora-llmrank-boost",
            [&CORA[..], &["--method", "llmrank"], &BOOST].concat(),
            120,
            0xb647_d794_73f4_9b75,
        ),
        (
            "cora-prune",
            [&CORA[..], &["--no-cache", "--prune", "0.3"]].concat(),
            120,
            0x7a80_50d3_19d8_2741,
        ),
        // M = 10 neighbors per prompt: the long-prompt path.
        (
            "products",
            vec!["ogbn-products", "--scale", "0.01", "--queries", "60", "--seed", "42"],
            60,
            0xc7a6_c437_f4d4_6c5e,
        ),
        // SNS on a realistic-degree graph with few labels: the progressive
        // exploration walks several rings before it finds M labeled nodes.
        (
            "products-sns",
            [
                &["ogbn-products", "--scale", "0.01", "--queries", "60", "--seed", "42"][..],
                &["--method", "sns"],
            ]
            .concat(),
            60,
            0x07d0_b266_8fce_0713,
        ),
        // 13 boosting rounds with relaxation on a realistic-degree graph:
        // each fold's pseudo-labels re-open many pending queries' support.
        (
            "products-boost",
            [
                &["ogbn-products", "--scale", "0.01", "--queries", "400", "--seed", "42"][..],
                &BOOST,
                &["--no-cache"],
            ]
            .concat(),
            400,
            0xc310_f51d_9f86_4ae4,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, args, records, digest) in arms {
        let body = dump(name, &args);
        assert_eq!(body.iter().filter(|&&b| b == b'\n').count(), records, "{name}: records");
        let got = fnv1a64(&body);
        if got != digest {
            wrong.push(format!("{name}: {got:#018x}, recorded {digest:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "record dumps moved:\n{}", wrong.join("\n"));
}
