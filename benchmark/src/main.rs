//! End-to-end benchmark binary; see `benchmark/README.md`.

use mqo_benchmark::cli::{self, Args, USAGE};
use mqo_benchmark::e2e::{self, Ctx};
use mqo_benchmark::inputs;
use mqo_benchmark::report::{provenance, publish, Outcome};
use mqo_benchmark::spec;
use mqo_benchmark::stats::{median, quartiles, regressed, relative_iqr, worsening};
use mqo_benchmark::workload::Workload;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::SystemTime;

/// The smallest bound calibration may suggest for a metric: run-to-run
/// noise below these cannot be told from a real change.
fn bound_floor(metric: &str) -> f64 {
    match metric {
        "peak_rss_mb" => 0.05,
        "tokens_per_query" | "accuracy" => 0.01,
        _ => 0.10,
    }
}

fn run_once(args: &Args, ctx: &Ctx, w: &Workload, seed: u64) -> Result<Outcome, String> {
    let started = SystemTime::now();
    let outcome =
        e2e::run(ctx, w, seed, args.seconds).map_err(|e| format!("{}: {e}", w.name))?;
    let correct =
        publish(&ctx.work, w.name, false, provenance(&ctx.mqo, seed, started), &outcome)
            .map_err(|e| format!("cannot write results: {e}"))?;
    if !correct {
        return Err(format!("{}: outputs failed the correctness checks", w.name));
    }
    Ok(outcome)
}

/// `--runs N`: every workload N times, round-robin so slow drift of the
/// machine spreads over all of them; then per (metric, workload) the
/// median, quartiles, relative IQR, the bound the calibration rule
/// suggests (max of the floor and twice the relative IQR), and whether
/// the medians of the even and odd runs agree within the declared bound.
fn calibrate(args: &Args, ctx: &Ctx, runs: usize) -> Result<bool, String> {
    let started = SystemTime::now();
    let spec = spec::load(Path::new("BENCHMARK.json"))?;
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for r in 0..runs {
        for (wi, w) in args.workloads.iter().enumerate() {
            let outcome = run_once(args, ctx, w, args.seed + r as u64)?;
            for (mi, m) in spec.end_to_end.iter().enumerate() {
                let v = outcome.metrics.iter().find(|x| x.name == m.name).map(|x| x.value);
                values
                    .entry((wi, mi))
                    .or_default()
                    .push(v.ok_or(format!("{} missing", m.name))?);
            }
        }
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<13} {:<17} {:>13} {:>13} {:>13} {:>8} {:>8} {:>8} {:>8}",
        "workload", "metric", "median", "q1", "q3", "rel_iqr", "suggest", "bound", "halves"
    );
    for ((wi, mi), v) in &values {
        let (w, m) = (&args.workloads[*wi], &spec.end_to_end[*mi]);
        let bound = m.bound.unwrap_or(0.0);
        let med = median(v);
        let (q1, q3) = if v.len() >= 2 { quartiles(v) } else { (med, med) };
        let rel = if v.len() >= 2 { relative_iqr(v) } else { 0.0 };
        let suggest = bound_floor(&m.name).max(2.0 * rel);
        let even: Vec<f64> = v.iter().step_by(2).copied().collect();
        let odd: Vec<f64> = v.iter().skip(1).step_by(2).copied().collect();
        let (halves, drifted) = if odd.is_empty() {
            (0.0, false)
        } else {
            let (a, b) = (median(&even), median(&odd));
            (worsening(m.better, a, b), regressed(m.better, bound, a, b))
        };
        // `setup_s` is exempt from the spread check, not from drift.
        let within = (m.name == "setup_s" || rel <= bound) && !drifted;
        ok &= within;
        println!(
            "{:<13} {:<17} {med:>13.6} {q1:>13.6} {q3:>13.6} {rel:>8.4} {suggest:>8.4} \
             {bound:>8.4} {halves:>+8.4}{}",
            w.name,
            m.name,
            if within { "" } else { "  OVER BOUND" }
        );
        rows.push(json!({
            "workload": w.name, "metric": m.name, "unit": m.unit, "values": v.clone(),
            "median": med, "q1": q1, "q3": q3, "relative_iqr": rel,
            "suggested_bound": suggest, "bound": bound, "halves_worsening": halves,
        }));
    }
    let doc = json!({
        "provenance": provenance(&ctx.mqo, args.seed, started),
        "runs": runs,
        "rows": Value::Array(rows),
    });
    let path = ctx.work.join("calibration.json");
    std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("json") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("calibration      : {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        eprintln!("error: traced runs are made by mqo-benchmark-trace (run.sh picks it)");
        return ExitCode::from(2);
    }
    let result = inputs::prepare(&args.mqo, &args.work, args.products_scale())
        .map_err(|e| format!("cannot prepare inputs: {e}"))
        .and_then(|inputs| {
            let ctx = Ctx {
                mqo: args.mqo.clone(),
                work: args.work.clone(),
                inputs,
                size: args.size(),
            };
            match args.runs {
                Some(runs) => calibrate(&args, &ctx, runs),
                None => {
                    for w in &args.workloads {
                        run_once(&args, &ctx, w, args.seed)?;
                    }
                    Ok(true)
                }
            }
        });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("calibration: some spread or median drift exceeds its bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
