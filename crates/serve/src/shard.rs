//! Shard-worker plumbing: identity, the cross-shard pseudo-label
//! outbox, and the background exchanger that pushes it to the router.
//!
//! A sharded worker owns one partition of the graph (its
//! [`mqo_shard::ShardBundle`]) plus a read-only *halo* of off-shard
//! neighbors. Requests arrive with **global** node ids; the engine
//! translates them to local ids on the way in and back on the way out,
//! and refuses nodes it does not own (the router should never send
//! them, but a client talking to a worker directly can).
//!
//! Query boosting is the part that does not shard trivially: a
//! successful prediction on a *boundary* node (one with neighbors on
//! other shards) is a pseudo-label those shards' γ₁/γ₂ readiness rule
//! wants to see. The worker queues such predictions in the
//! [`ShardContext`] outbox; the [`LabelExchanger`] periodically drains
//! it and POSTs the batch to the router's `/v1/labels`, which forwards
//! each label to the shards owning the node's neighbors. The receiving
//! worker ingests them into its halo ([`crate::Engine`]'s label store),
//! where they enrich later prompts exactly like locally-minted
//! pseudo-labels — but are counted separately (`remote_neighbors` in
//! the records, `mqo_shard_labels_ingested_total` in the registry).
//!
//! The exchange is advisory traffic: a failed push drops the batch and
//! counts it; correctness never depends on delivery, only boost quality.

use crate::engine::Engine;
use mqo_obs::httpd::HttpClient;
use mqo_obs::{Event, EventSink};
use mqo_shard::{ShardIdentity, ShardMap};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A boundary-node pseudo-label queued for cross-shard exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundLabel {
    /// Global node id.
    pub node: u32,
    /// Predicted class.
    pub label: u16,
    /// Shards owning at least one neighbor of the node (never the
    /// minting shard itself).
    pub shards: Vec<u32>,
}

/// What makes an engine a shard worker: its identity (local↔global id
/// maps), the cluster's partition map, and the label outbox.
pub struct ShardContext {
    /// This worker's partition: which shard it is and its id maps.
    pub identity: ShardIdentity,
    /// The cluster-wide partition (who owns which node).
    pub map: ShardMap,
    outbox: Mutex<Vec<OutboundLabel>>,
}

impl ShardContext {
    /// Wrap an identity and the cluster map; an empty outbox.
    pub fn new(identity: ShardIdentity, map: ShardMap) -> ShardContext {
        ShardContext { identity, map, outbox: Mutex::new(Vec::new()) }
    }

    /// Queue one boundary pseudo-label for the next exchange push.
    pub fn queue(&self, label: OutboundLabel) {
        self.outbox.lock().push(label);
    }

    /// Take everything queued since the last drain.
    pub fn drain(&self) -> Vec<OutboundLabel> {
        std::mem::take(&mut *self.outbox.lock())
    }

    /// Labels currently waiting for the next push.
    pub fn outbox_depth(&self) -> usize {
        self.outbox.lock().len()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable. The
/// per-shard memory ceiling is the point of sharding, so workers report
/// it in `/v1/stats` and the bench gates pin it.
pub fn peak_rss_mb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb / 1024;
        }
    }
    0
}

/// Background thread pushing the worker's label outbox to the router.
///
/// Every `interval` it drains the [`ShardContext`] outbox and POSTs the
/// batch to the router's `/v1/labels` as
/// `{"from_shard": I, "labels": [{"node", "label", "shards"}, ..]}`.
/// One final drain-and-push runs at [`LabelExchanger::stop`] so short
///-lived workers still deliver. Failed pushes drop their batch (the
/// exchange is advisory) and count in
/// `mqo_shard_exchange_failures_total`.
pub struct LabelExchanger {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl LabelExchanger {
    /// Spawn the exchanger for `engine` (which must be sharded — a
    /// non-sharded engine has no outbox and the thread exits at once).
    pub fn start(
        engine: Arc<Engine>,
        router: SocketAddr,
        interval: Duration,
    ) -> LabelExchanger {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("mqo-shard-exchange".into())
            .spawn(move || {
                let registry = engine.metrics().registry();
                let pushes = registry.counter(
                    "mqo_shard_exchange_pushes_total",
                    "Label batches successfully pushed to the router",
                );
                let failures = registry.counter(
                    "mqo_shard_exchange_failures_total",
                    "Label batches dropped because the router push failed",
                );
                let Some(shard_id) = engine.shard().map(|c| c.identity.shard_id) else {
                    return;
                };
                let mut client: Option<HttpClient> = None;
                loop {
                    let stopping = stop_flag.load(Ordering::Relaxed);
                    let batch = engine.drain_outbox();
                    if !batch.is_empty() {
                        let body = push_body(shard_id, &batch);
                        if post_labels(&mut client, router, &body) {
                            pushes.inc();
                            engine.fanout().emit(&Event::ShardLabelsPushed {
                                shard: shard_id,
                                labels: batch.len() as u64,
                            });
                        } else {
                            failures.inc();
                        }
                    }
                    if stopping {
                        return;
                    }
                    thread::sleep(interval);
                }
            })
            .expect("spawn label exchanger");
        LabelExchanger { stop, handle: Some(handle) }
    }

    /// Flush once more, then stop the thread.
    pub fn stop(mut self) {
        self.stop_in_place();
    }

    fn stop_in_place(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LabelExchanger {
    fn drop(&mut self) {
        self.stop_in_place();
    }
}

/// The `/v1/labels` push body for one drained batch, keys in the sorted
/// order a `serde_json` object renders in.
fn push_body(shard_id: u32, batch: &[OutboundLabel]) -> String {
    let mut body = format!("{{\"from_shard\":{shard_id},\"labels\":[");
    for (i, l) in batch.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(body, "{{\"label\":{},\"node\":{},\"shards\":[", l.label, l.node);
        for (j, s) in l.shards.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let _ = write!(body, "{s}");
        }
        body.push_str("]}");
    }
    body.push_str("]}");
    body
}

/// POST `body` to the router's `/v1/labels` over a cached keep-alive
/// connection, (re)connecting lazily. `true` on a 2xx.
fn post_labels(client: &mut Option<HttpClient>, router: SocketAddr, body: &str) -> bool {
    if client.is_none() {
        *client = HttpClient::connect(router).ok();
    }
    let Some(c) = client.as_mut() else {
        return false;
    };
    match c.post("/v1/labels", body) {
        Ok((status, _)) if status.contains("200") => true,
        Ok(_) => false,
        Err(_) => {
            // Kill the cached connection so the next attempt redials.
            *client = None;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_drains_to_empty() {
        let map = mqo_shard::partition(
            &{
                let mut b = mqo_graph::GraphBuilder::new(4);
                b.add_edge(0, 1).unwrap();
                b.add_edge(2, 3).unwrap();
                b.build()
            },
            2,
            7,
            mqo_shard::PartitionStrategy::EdgeCut,
        );
        let ctx = ShardContext::new(ShardIdentity::new(0, 2, 2, vec![0, 1]), map);
        assert_eq!(ctx.outbox_depth(), 0);
        ctx.queue(OutboundLabel { node: 1, label: 3, shards: vec![1] });
        ctx.queue(OutboundLabel { node: 0, label: 2, shards: vec![1] });
        assert_eq!(ctx.outbox_depth(), 2);
        let drained = ctx.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].node, 1);
        assert_eq!(ctx.outbox_depth(), 0);
        assert!(ctx.drain().is_empty());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // The procfs read must not panic anywhere; on Linux it must see a
        // live process footprint.
        let mb = peak_rss_mb();
        if cfg!(target_os = "linux") {
            assert!(mb > 0, "VmHWM should be nonzero for a running test binary");
        }
    }

    #[test]
    fn push_body_is_the_wire_format() {
        let body = push_body(2, &[OutboundLabel { node: 40, label: 6, shards: vec![0, 1] }]);
        let v = serde_json::from_str(&body).unwrap();
        assert_eq!(v["from_shard"].as_u64(), Some(2));
        assert_eq!(v["labels"][0]["node"].as_u64(), Some(40));
        assert_eq!(v["labels"][0]["label"].as_u64(), Some(6));
        assert_eq!(v["labels"][0]["shards"][1].as_u64(), Some(1));
    }
}
