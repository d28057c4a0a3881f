//! Benchmark of the `mqo` system: end-to-end serving, routing and batch
//! runs measured from outside the processes, plus a traced per-layer run.
//!
//! The library holds the measurement plumbing both binaries share; it
//! uses only `std` and the vendored JSON parser, never the repository's
//! crates, so the end-to-end binary keeps building whatever their APIs
//! become.

pub mod cli;
pub mod e2e;
pub mod http;
pub mod inputs;
pub mod load;
pub mod proc;
pub mod procfs;
pub mod report;
pub mod spec;
pub mod stats;
pub mod workload;
