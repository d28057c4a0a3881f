//! Command line shared by both benchmark binaries. Strict: an unknown
//! flag or a missing value is an error, never a silent default.

use crate::workload::{by_name, Workload, WORKLOADS};
use std::path::PathBuf;

/// Usage text.
pub const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--traced] [--runs N]
  --workload  serve-hot | serve-cold | serve-routed | batch-boost (default: all four)
  --seed      workload seed; request i of a run names the same nodes for the same seed (default 1)
  --seconds   measured work, in seconds of work on a 2-core machine (default 20)
  --trace 1   per-layer run instead of the end-to-end run (--traced is the same)
  --runs N    calibration: N runs per workload with seeds seed..seed+N-1, then the median
              and interquartile range of every (metric, workload)";

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Workload seed.
    pub seed: u64,
    /// Run length in seconds of work.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Calibration run count.
    pub runs: Option<usize>,
    /// The `mqo` binary under test.
    pub mqo: PathBuf,
    /// Directory for inputs, logs and results.
    pub work: PathBuf,
    /// Tiny sizes, for the package's own smoke test.
    pub smoke: bool,
}

/// Parse `args` (without the program name).
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        runs: None,
        mqo: PathBuf::from("target/release/mqo"),
        work: PathBuf::from("target/benchmark"),
        smoke: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workloads =
                    vec![by_name(&name).ok_or(format!("unknown workload '{name}'"))?];
            }
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => out.trace = true,
            "--runs" => {
                let n: usize = value()?.parse().map_err(|_| "bad --runs")?;
                if n == 0 {
                    return Err("--runs must be at least 1".into());
                }
                out.runs = Some(n);
            }
            "--mqo" => out.mqo = PathBuf::from(value()?),
            "--work" => out.work = PathBuf::from(value()?),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(out)
}

impl Args {
    /// Scale on request and query counts.
    pub fn size(&self) -> f64 {
        if self.smoke {
            0.02
        } else {
            1.0
        }
    }

    /// `--scale` of the generated ogbn-products graph.
    pub fn products_scale(&self) -> f64 {
        if self.smoke {
            0.005
        } else {
            0.1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn full_invocation_parses() {
        let a = parse_str("--workload serve-cold --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "serve-cold");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, true));
        assert_eq!(parse_str("").unwrap().workloads.len(), 4);
        assert!(parse_str("--traced --runs 3").unwrap().trace);
    }

    #[test]
    fn bad_input_is_an_error() {
        assert!(parse_str("--workload nope").is_err());
        assert!(parse_str("--seed").is_err());
        assert!(parse_str("--trace 2").is_err());
        assert!(parse_str("--seconds 0").is_err());
        assert!(parse_str("--runs 0").is_err());
        assert!(parse_str("--frobnicate 1").is_err());
    }
}
