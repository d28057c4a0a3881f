//! The four workloads and the inputs they send.
//!
//! Request `i` of a run with seed `s` always names the same nodes: picks
//! are a pure function of `(s, i)`, never of thread interleaving, so a
//! seed fixes the request multiset however the client threads race.

/// The dataset a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Cora at paper size (2,708 nodes).
    Cora,
    /// ogbn-products at `--scale 0.1` (244,903 nodes).
    Products,
}

/// How a workload drives the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop HTTP load against one `mqo serve`.
    Direct,
    /// Closed-loop HTTP load against `mqo route` over two shard workers.
    Routed,
    /// Repeated `mqo classify` jobs, no HTTP.
    Batch,
}

/// One workload's fixed shape. Request counts are fixed per second of
/// `--seconds`, not by time: cache hits, billed tokens and memory depend
/// on how many distinct prompts were served, so the amount of work must
/// not depend on how fast the system under test is.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Served dataset.
    pub dataset: Dataset,
    /// Driving discipline.
    pub kind: Kind,
    /// Nodes per classify request.
    pub batch: usize,
    /// Untimed requests sent before the measured window.
    pub warmup: u64,
    /// Measured requests (serve) or queries per job (batch) per second
    /// of `--seconds`, sized so the window lasts about that long on a
    /// 2-core machine.
    pub per_second: u64,
    /// Times the system is set up in one run; `setup_s` is their median.
    pub setups: usize,
    /// Whether the workers (or the batch job) run query boosting.
    pub boost: bool,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-hot",
        dataset: Dataset::Cora,
        kind: Kind::Direct,
        batch: 4,
        warmup: 2_000,
        per_second: 15_000,
        setups: 7,
        boost: false,
    },
    Workload {
        name: "serve-cold",
        dataset: Dataset::Products,
        kind: Kind::Direct,
        batch: 4,
        warmup: 2_000,
        per_second: 3_500,
        setups: 3,
        boost: false,
    },
    Workload {
        name: "serve-routed",
        dataset: Dataset::Products,
        kind: Kind::Routed,
        batch: 6,
        warmup: 500,
        per_second: 1_200,
        setups: 3,
        boost: true,
    },
    Workload {
        name: "batch-boost",
        dataset: Dataset::Products,
        kind: Kind::Batch,
        batch: 4,
        warmup: 0,
        per_second: 2_000,
        setups: 5,
        boost: true,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Measured requests (serve) or queries per job (batch) for a run of
    /// `seconds`, scaled by `size` (1.0 outside tests).
    pub fn measured(&self, seconds: f64, size: f64) -> u64 {
        ((self.per_second as f64 * seconds * size).round() as u64).max(1)
    }

    /// Warmup requests, scaled by `size`.
    pub fn warmup(&self, size: f64) -> u64 {
        (self.warmup as f64 * size).round() as u64
    }
}

/// The 64-bit finalizer of splitmix64.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The nodes of request `index`: `batch` distinct ids below `nodes`.
pub fn picks(seed: u64, index: u64, batch: usize, nodes: u32, out: &mut Vec<u32>) {
    out.clear();
    let mut state = splitmix64(seed ^ splitmix64(index));
    while out.len() < batch.min(nodes as usize) {
        state = splitmix64(state);
        let v = (state % u64::from(nodes)) as u32;
        if !out.contains(&v) {
            out.push(v);
        }
    }
}

/// `{"nodes":[a,b,...]}` into a reused buffer.
pub fn classify_body(nodes: &[u32], out: &mut Vec<u8>) {
    use std::io::Write;
    out.clear();
    out.extend_from_slice(b"{\"nodes\":[");
    for (i, n) in nodes.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        let _ = write!(out, "{n}");
    }
    out.extend_from_slice(b"]}");
}

/// What one classify response body says, read by scanning for the keys
/// the checks need; a full JSON parse per response would cost the client
/// CPU the server under test is competing for on a 2-core machine.
#[derive(Debug, Default, PartialEq)]
pub struct Scanned {
    /// Record node ids, in response order.
    pub nodes: Vec<u64>,
    /// Records with `"correct": true`.
    pub correct: u64,
    /// Records whose `failure` is not `null`.
    pub failures: u64,
    /// Number of `correct` fields seen (one per record).
    pub records: u64,
    /// The response's `billed_tokens`.
    pub billed_tokens: u64,
}

/// Offsets just past each `"key":` (whitespace allowed around the colon).
fn values_of<'a>(body: &'a [u8], key: &'a str) -> impl Iterator<Item = &'a [u8]> + 'a {
    let pat = format!("\"{key}\"").into_bytes();
    let mut from = 0;
    std::iter::from_fn(move || {
        while let Some(off) = find(&body[from..], &pat) {
            let mut at = from + off + pat.len();
            from = at;
            while at < body.len() && body[at].is_ascii_whitespace() {
                at += 1;
            }
            if body.get(at) != Some(&b':') {
                continue;
            }
            at += 1;
            while at < body.len() && body[at].is_ascii_whitespace() {
                at += 1;
            }
            return Some(&body[at..]);
        }
        None
    })
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn leading_u64(v: &[u8]) -> Option<u64> {
    let end = v.iter().position(|b| !b.is_ascii_digit()).unwrap_or(v.len());
    std::str::from_utf8(&v[..end]).ok()?.parse().ok()
}

/// Scan a classify response body.
pub fn scan(body: &[u8], out: &mut Scanned) -> Result<(), String> {
    out.nodes.clear();
    for v in values_of(body, "node") {
        out.nodes.push(leading_u64(v).ok_or("non-integer record node")?);
    }
    out.correct = 0;
    out.records = 0;
    for v in values_of(body, "correct") {
        out.records += 1;
        if v.starts_with(b"true") {
            out.correct += 1;
        } else if !v.starts_with(b"false") {
            return Err("non-boolean 'correct'".into());
        }
    }
    out.failures =
        values_of(body, "failure").filter(|v| !v.starts_with(b"null")).count() as u64;
    out.billed_tokens = values_of(body, "billed_tokens")
        .next()
        .and_then(leading_u64)
        .ok_or("response without billed_tokens")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_are_keyed_by_seed_and_index_and_distinct() {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        picks(7, 12, 6, 1000, &mut a);
        picks(7, 12, 6, 1000, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "no duplicate node in one request");
        picks(8, 12, 6, 1000, &mut b);
        assert_ne!(a, b);
        picks(7, 13, 6, 1000, &mut b);
        assert_ne!(a, b);
        picks(1, 0, 4, 3, &mut b);
        assert_eq!(b.len(), 3, "batch capped by node count");
    }

    #[test]
    fn body_is_a_node_list() {
        let mut out = Vec::new();
        classify_body(&[3, 40, 5], &mut out);
        assert_eq!(out, b"{\"nodes\":[3,40,5]}");
    }

    #[test]
    fn scan_reads_records_in_order() {
        let body = br#"{"billed_tokens":1064,"degraded":false,"records":[
            {"correct":true,"failure":null,"node":1,"prompt_tokens":328},
            {"correct" : false, "failure" : "boom \"node\": 9", "node" : 22}],
            "tenant":"default","trace":"ab"}"#;
        let mut s = Scanned::default();
        scan(body, &mut s).unwrap();
        assert_eq!(s.nodes, vec![1, 22]);
        assert_eq!((s.records, s.correct, s.failures, s.billed_tokens), (2, 1, 1, 1064));
        assert!(scan(b"{\"records\":[]}", &mut s).is_err());
    }

    #[test]
    fn workloads_are_named_and_sized() {
        assert_eq!(by_name("serve-cold").unwrap().dataset, Dataset::Products);
        assert!(by_name("nope").is_none());
        let hot = by_name("serve-hot").unwrap();
        assert_eq!(hot.measured(10.0, 1.0), 150_000);
        assert_eq!(hot.measured(10.0, 0.0), 1);
        assert_eq!(hot.warmup(0.5), 1_000);
    }
}
