//! The closed-loop load generator: a few client threads, one keep-alive
//! connection each, every response checked as it lands.

use crate::http::Client;
use crate::workload::{classify_body, picks, scan, Scanned};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What one phase of load produced, summed over client threads.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests answered `200`.
    pub ok: u64,
    /// Node classifications in requests that did not come back `200`
    /// (other status or transport error).
    pub lost_nodes: u64,
    /// Records returned.
    pub records: u64,
    /// Records with `"correct": true`.
    pub correct: u64,
    /// Records with a non-null `failure`.
    pub failures: u64,
    /// Σ `billed_tokens` over `200` responses.
    pub billed: u64,
    /// Client-side latency of every `200` request, write to full
    /// response, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Broken invariants (the first few; `violation_count` counts all).
    pub violations: Vec<String>,
    /// Number of broken invariants.
    pub violation_count: u64,
}

impl Tally {
    fn violate(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < 5 {
            self.violations.push(what);
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.lost_nodes += other.lost_nodes;
        self.records += other.records;
        self.correct += other.correct;
        self.failures += other.failures;
        self.billed += other.billed;
        self.latencies_ms.extend(other.latencies_ms);
        self.violation_count += other.violation_count;
        for v in other.violations {
            if self.violations.len() < 5 {
                self.violations.push(v);
            }
        }
    }
}

/// A closed-loop load: each client thread sends its next request as
/// soon as the previous response is read, over a connection it keeps
/// for the whole load.
pub struct Load {
    /// Workload seed: request `i` names `picks(seed, i, ..)`.
    pub seed: u64,
    /// Nodes per request.
    pub batch: usize,
    /// Node-id bound of the target's graph.
    pub nodes: u32,
    clients: Vec<Client>,
}

impl Load {
    /// A load of `threads` clients against `addr`.
    pub fn new(addr: SocketAddr, seed: u64, batch: usize, nodes: u32, threads: usize) -> Load {
        Load { seed, batch, nodes, clients: (0..threads).map(|_| Client::new(addr)).collect() }
    }

    /// Send requests `range` (request indices) and check every answer:
    /// status `200`, one record per requested node, in request order.
    pub fn drive(&mut self, range: Range<u64>) -> Tally {
        let next = AtomicU64::new(range.start);
        let (seed, batch, nodes) = (self.seed, self.batch, self.nodes);
        let mut total = Tally::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|c| s.spawn(|| client_loop(c, &next, range.end, seed, batch, nodes)))
                .collect();
            for h in handles {
                total.merge(h.join().expect("load thread panicked"));
            }
        });
        total
    }
}

fn client_loop(
    client: &mut Client,
    next: &AtomicU64,
    end: u64,
    seed: u64,
    batch: usize,
    node_bound: u32,
) -> Tally {
    let mut t = Tally::default();
    let (mut nodes, mut body, mut scanned) = (Vec::new(), Vec::new(), Scanned::default());
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= end {
            return t;
        }
        picks(seed, i, batch, node_bound, &mut nodes);
        classify_body(&nodes, &mut body);
        let sent = Instant::now();
        let status = client.request("POST", "/v1/classify", &body);
        let latency = sent.elapsed();
        match status {
            Ok(200) => {}
            Ok(code) => {
                t.lost_nodes += nodes.len() as u64;
                t.violate(format!("request {i}: status {code}"));
                continue;
            }
            Err(e) => {
                t.lost_nodes += nodes.len() as u64;
                t.violate(format!("request {i}: transport error: {e}"));
                continue;
            }
        }
        t.ok += 1;
        t.latencies_ms.push(latency.as_secs_f64() * 1e3);
        if let Err(e) = scan(&client.body, &mut scanned) {
            t.violate(format!("request {i}: {e}"));
            continue;
        }
        t.records += scanned.records;
        t.correct += scanned.correct;
        t.failures += scanned.failures;
        t.billed += scanned.billed_tokens;
        let asked = nodes.iter().map(|&n| u64::from(n));
        if scanned.records != nodes.len() as u64 || !scanned.nodes.iter().copied().eq(asked) {
            t.violate(format!(
                "request {i}: asked for {nodes:?}, records name {:?}",
                scanned.nodes
            ));
        }
    }
}
