//! # mqo-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`); this library
//! holds the shared scaffolding:
//!
//! * [`harness`] — standard experiment setup per dataset (generation
//!   scale, split, `M`, surrogate config, simulated model construction),
//!   with environment overrides for quick runs:
//!   - `MQO_QUERIES` — query-set size (default 1,000, the paper's setting);
//!   - `MQO_SCALE_<NAME>` — per-dataset generation scale override
//!     (e.g. `MQO_SCALE_OGBN_ARXIV=0.05`);
//!   - `MQO_FAST=1` — CI preset: 200 queries and reduced OGB scales.
//! * [`report`] — paper-vs-measured table printing and JSON artifact
//!   output under `results/`.
//! * [`cli`] — the one strict flag parser behind `mqo` and `loadgen`.
//!
//! Performance is gated by the repository benchmark (`benchmark/`, run
//! parent against change by `scripts/bench_compare.sh`), not by this
//! crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod harness;
pub mod report;
