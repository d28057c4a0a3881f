//! # mqo-serve — the online classification service
//!
//! Everything before this crate runs the paper's pipeline as a one-shot
//! batch job. This crate turns it into a long-running service: load a
//! TAG and build the client stack once, then answer classification
//! requests over std-only HTTP/1.1 — a handler mounted on the workspace's
//! one server, [`mqo_obs::httpd::HttpServer`], which also runs the
//! `mqo route` front and the `--serve-metrics` endpoint.
//!
//! The pieces:
//!
//! * [`run`] — run assembly shared with the batch CLI: dataset loading,
//!   the labeled split, predictor by method, the neighbor cap `M`, the
//!   one [`run::ClientStack`] and journal create/resume.
//! * [`Engine`] — the shared brain: dataset + the pieces [`run`]
//!   assembles, a pseudo-label store (responses can boost later requests
//!   on neighboring nodes), and per-tenant admission accounting.
//! * [`Server`] — the HTTP surface: a slot gate bounding execution
//!   concurrency in place of the old queue-and-worker-pool hand-off,
//!   with three admission gates (draining → tenant budget → slot
//!   backpressure) and a graceful drain that finishes in-flight work and
//!   seals the journal. Admitted batches run on the connection handler's
//!   thread through the engine's [`mqo_core::Scheduler`] FIFO path.
//! * [`ServeConfig`] / [`ServerOptions`] — how the engine is built and
//!   how the server schedules.
//! * [`signal`] — SIGTERM/SIGINT → drain-requested flag (the only FFI in
//!   the workspace).
//!
//! Served records are bit-identical to a batch run of the same nodes
//! (with the two order-dependent optimizations — boosting and the
//! response cache — off): queries derive their RNG from `(seed, node)`,
//! so arrival order and worker interleaving cannot perturb results, and
//! the response embeds records in the exact journal format.

#![warn(missing_docs)]

mod config;
mod engine;
pub mod run;
mod server;
pub mod shard;
pub mod shed;
pub mod signal;
mod slots;
mod tenant;

pub use config::{ServeConfig, ServerOptions};
pub use engine::{Engine, ProcessedBatch, Rejection};
pub use server::{DrainReport, Server};
pub use shard::{LabelExchanger, OutboundLabel, ShardContext};
pub use shed::{Admit, BrownoutTransition, OverloadConfig, OverloadControl};
pub use tenant::{TenantAccount, TenantExhausted, TenantTable};
