//! Sharded scale-out end-to-end tests: partitioner invariants
//! (determinism, exact edge accounting, boundary symmetry), router
//! degradation against *real* shard workers (eject on death mid-burst,
//! survivors answer, probe re-admits a restarted worker), and the
//! acceptance path for cross-shard boosting — a routed query whose
//! γ₁/γ₂ readiness is satisfied *only* by pseudo-labels that traveled
//! worker → router → worker over the label exchange.

use mqo_core::journal::record_from_json;
use mqo_core::QueryRecord;
use mqo_data::persist::ImageReader;
use mqo_data::{dataset, DatasetBundle, DatasetId};
use mqo_graph::NodeId;
use mqo_obs::{http_get, http_post};
use mqo_serve::{Engine, LabelExchanger, ServeConfig, Server, ServerOptions};
use mqo_shard::{extract_shard, partition, PartitionStrategy, Router, RouterConfig, ShardMap};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn full_bundle() -> DatasetBundle {
    dataset(DatasetId::Cora, Some(0.3), 42)
}

fn worker_cfg() -> ServeConfig {
    ServeConfig { split_queries: 60, ..ServeConfig::default() }
}

/// Extract shard `shard` of `full` under `map` and serve it on `addr`
/// (`127.0.0.1:0` picks a port; a concrete address restarts a worker in
/// place for the re-admission test).
fn start_worker(
    full: &DatasetBundle,
    map: &ShardMap,
    shard: u32,
    addr: &str,
    cfg: ServeConfig,
) -> std::io::Result<(Arc<Engine>, Server)> {
    let sb = extract_shard(full, map, shard);
    let engine =
        Engine::new_sharded(sb, map.clone(), cfg).map(Arc::new).expect("sharded engine");
    let options = ServerOptions {
        addr: addr.into(),
        workers: 2,
        queue_capacity: 16,
        ..ServerOptions::default()
    };
    let server = Server::start(Arc::clone(&engine), options)?;
    Ok((engine, server))
}

fn classify(addr: SocketAddr, body: &str) -> (String, serde_json::Value) {
    let (status, text) = http_post(addr, "/v1/classify", body).expect("classify round-trip");
    let value = serde_json::from_str(text.trim()).expect("classify response is JSON");
    (status, value)
}

fn records_of(response: &serde_json::Value) -> Vec<QueryRecord> {
    response
        .get("records")
        .and_then(|r| r.as_array())
        .expect("response has records")
        .iter()
        .map(|v| record_from_json(v).expect("record parses"))
        .collect()
}

fn nodes_json(nodes: &[u32]) -> String {
    let list: Vec<String> = nodes.iter().map(u32::to_string).collect();
    format!("{{\"nodes\": [{}]}}", list.join(", "))
}

/// Same graph + same seed must yield byte-identical shard maps (the
/// partitioner runs once at deploy time; every later run must agree on
/// ownership), and the bytes must round-trip.
#[test]
fn partition_is_deterministic_per_seed_and_roundtrips() {
    let full = full_bundle();
    let csr = full.tag.graph();
    for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::Ring] {
        let a = partition(csr, 4, 11, strategy);
        let b = partition(csr, 4, 11, strategy);
        assert_eq!(a, b, "{strategy:?} partition must be deterministic");
        let image = |map: &ShardMap| {
            map.write_to(std::io::Cursor::new(Vec::new())).unwrap().into_inner()
        };
        assert_eq!(image(&a), image(&b), "{strategy:?} serialization must be byte-identical");
        let back = ShardMap::decode(&mut ImageReader::from_slice(&image(&a)))
            .expect("shard map round-trips");
        assert_eq!(a, back);
        for v in (0..csr.num_nodes() as u32).step_by(97) {
            assert_eq!(a.owner(v), back.owner(v), "ownership survives the round-trip");
        }
    }
}

/// Every node is owned exactly once and every edge lands in exactly one
/// accounting bucket: interior to one shard, or cut (counted once in
/// `total_cut`, incident to both endpoint shards' `cut_edges`).
#[test]
fn every_edge_is_accounted_exactly_once() {
    let full = full_bundle();
    let csr = full.tag.graph();
    for strategy in [PartitionStrategy::EdgeCut, PartitionStrategy::Ring] {
        let map = partition(csr, 3, 5, strategy);
        let mut owned = 0u64;
        let mut internal = 0u64;
        let mut cut_incidence = 0u64;
        for s in 0..map.num_shards() {
            let st = map.stats(s);
            owned += u64::from(st.owned_nodes);
            internal += st.internal_edges;
            cut_incidence += st.cut_edges;
        }
        assert_eq!(owned, full.tag.num_nodes() as u64, "every node owned exactly once");
        assert_eq!(
            internal + map.total_cut(),
            full.tag.num_edges(),
            "{strategy:?}: internal + cut must partition the edge set"
        );
        assert_eq!(
            cut_incidence,
            2 * map.total_cut(),
            "each cut edge is incident to exactly its two endpoint shards"
        );
        // Recount the cut directly from the edge list.
        let direct =
            csr.edges().filter(|(u, v)| map.owner(u.0) != map.owner(v.0)).count() as u64;
        assert_eq!(direct, map.total_cut());
    }
}

/// Boundary lists are symmetric: a cut edge (u, v) puts `u` on its
/// owner's boundary and `v` on *its* owner's boundary — which is what
/// guarantees a pushed pseudo-label always has a halo copy waiting on
/// the receiving shard. And conversely: every listed boundary node
/// really has an off-shard neighbor.
#[test]
fn boundary_lists_are_symmetric_across_cut_edges() {
    let full = full_bundle();
    let csr = full.tag.graph();
    let map = partition(csr, 3, 9, PartitionStrategy::EdgeCut);
    let boundary_sets: Vec<HashSet<u32>> =
        (0..map.num_shards()).map(|s| map.boundary(s).iter().copied().collect()).collect();
    let mut cut_seen = false;
    for (u, v) in csr.edges() {
        let (su, sv) = (map.owner(u.0), map.owner(v.0));
        if su != sv {
            cut_seen = true;
            assert!(
                boundary_sets[su as usize].contains(&u.0),
                "cut edge ({}, {}): {} missing from shard {su}'s boundary",
                u.0,
                v.0,
                u.0
            );
            assert!(
                boundary_sets[sv as usize].contains(&v.0),
                "cut edge ({}, {}): {} missing from shard {sv}'s boundary",
                u.0,
                v.0,
                v.0
            );
        }
    }
    assert!(cut_seen, "a 3-way partition of Cora must cut something");
    for s in 0..map.num_shards() {
        let b = map.boundary(s);
        assert!(b.windows(2).all(|w| w[0] < w[1]), "boundary sorted and duplicate-free");
        for &u in b {
            assert_eq!(map.owner(u), s, "boundary nodes are owned nodes");
            assert!(
                csr.neighbors(NodeId(u)).iter().any(|&v| map.owner(v) != s),
                "boundary node {u} has no off-shard neighbor"
            );
        }
    }
}

/// A worker drain must not wait out the idle-read timeout of parked
/// keep-alive connections (the router keeps one per worker open at all
/// times) — drain half-closes them and finishes promptly.
#[test]
fn drain_is_prompt_with_an_idle_keep_alive_connection() {
    let full = full_bundle();
    let map = partition(full.tag.graph(), 2, 7, PartitionStrategy::EdgeCut);
    let (_e0, s0) = start_worker(&full, &map, 0, "127.0.0.1:0", worker_cfg()).unwrap();
    // Park a persistent connection the way the router does: one request,
    // then leave it idle.
    let mut client = mqo_obs::httpd::HttpClient::connect(s0.addr()).unwrap();
    let (status, _) = client.get("/v1/healthz").unwrap();
    assert!(status.contains("200"), "warm-up over the kept-alive connection: {status}");
    let started = Instant::now();
    s0.drain();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "drain stalled {:?} behind an idle keep-alive connection",
        started.elapsed()
    );
}

/// Real-worker degradation: a 2-shard cluster answers mixed batches;
/// killing one worker mid-burst ejects it (requests needing it fail
/// fast, survivors answer, healthz reports degraded); restarting it on
/// the same port lets the probe re-admit it and full service resumes.
#[test]
fn dead_worker_ejects_survivors_serve_and_restart_readmits() {
    let full = full_bundle();
    let map = partition(full.tag.graph(), 2, 7, PartitionStrategy::EdgeCut);
    let (_e0, s0) = start_worker(&full, &map, 0, "127.0.0.1:0", worker_cfg()).unwrap();
    let (_e1, s1) = start_worker(&full, &map, 1, "127.0.0.1:0", worker_cfg()).unwrap();
    let mut rcfg = RouterConfig::new(vec![s0.addr(), s1.addr()]);
    rcfg.eject_after = 2;
    rcfg.probe_interval = Duration::from_millis(25);
    let router = Router::start("127.0.0.1:0", map.clone(), rcfg).unwrap();
    let addr = router.addr();

    // Shard workers identify themselves.
    let (status, health) = http_get(s0.addr(), "/v1/healthz").unwrap();
    assert!(status.contains("200") && health.contains("\"shard\""), "worker healthz: {health}");

    // A batch straddling the ownership split reassembles in request order.
    let (lo, _) = map.owned_range(0).unwrap();
    let (hi, _) = map.owned_range(1).unwrap();
    let mixed = vec![hi, lo, hi + 1, lo + 1];
    let (status, response) = classify(addr, &nodes_json(&mixed));
    assert!(status.contains("200"), "mixed batch: {status}");
    let order: Vec<u32> = records_of(&response).iter().map(|r| r.node.0).collect();
    assert_eq!(order, mixed, "records come back in the caller's order, in global ids");
    assert_eq!(
        response.get("shards").and_then(|s| s.as_array()).map(Vec::len),
        Some(2),
        "the batch consulted both shards"
    );

    // Kill worker 1 while a burst is in flight.
    let w1_addr = s1.addr();
    let burst = {
        let mixed = mixed.clone();
        std::thread::spawn(move || {
            for _ in 0..20 {
                let _ = http_post(addr, "/v1/classify", &nodes_json(&mixed));
            }
        })
    };
    std::thread::sleep(Duration::from_millis(10));
    s1.drain();
    burst.join().unwrap();

    // The failure streak ejects shard 1; requests needing it fail fast.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !router.is_ejected(1) && Instant::now() < deadline {
        let _ = http_post(addr, "/v1/classify", &nodes_json(&[hi]));
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(router.is_ejected(1), "consecutive failures must eject the dead shard");
    let (status, body) = http_post(addr, "/v1/classify", &nodes_json(&[hi])).unwrap();
    assert!(status.contains("503"), "ejected shard fails fast: {status} {body}");

    // Survivors answer; the cluster is degraded, not dark.
    let (status, survivor) = classify(addr, &nodes_json(&[lo]));
    assert!(
        status.contains("200"),
        "survivor shard must keep answering: {status} {}",
        serde_json::to_string(&survivor).unwrap_or_default()
    );
    let (status, health) = http_get(addr, "/v1/healthz").unwrap();
    assert!(status.contains("200"), "degraded is still 200: {status}");
    assert!(health.contains("\"degraded\""), "healthz: {health}");

    // Restart worker 1 on its old port; the probe re-admits it.
    let restarted = loop {
        match start_worker(&full, &map, 1, &w1_addr.to_string(), worker_cfg()) {
            Ok(pair) => break pair,
            Err(_) if Instant::now() < deadline + Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("cannot rebind worker 1 on {w1_addr}: {e}"),
        }
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while router.is_ejected(1) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(!router.is_ejected(1), "a healthy probe must re-admit the restarted shard");
    let (status, _) = classify(addr, &nodes_json(&[hi]));
    assert!(status.contains("200"), "re-admitted shard serves again: {status}");
    let (_, health) = http_get(addr, "/v1/healthz").unwrap();
    assert!(health.contains("\"ok\""), "healthz after re-admission: {health}");
    let metrics = router.registry().render_prometheus();
    assert!(metrics.contains("mqo_shard_ejections_total{shard=\"1\"}"), "{metrics}");
    assert!(metrics.contains("mqo_shard_readmissions_total{shard=\"1\"}"), "{metrics}");

    router.shutdown();
    s0.drain();
    restarted.1.drain();
}

/// The acceptance path: boosted serving over a routed 2-shard cluster
/// where at least one query's γ₁/γ₂ readiness is satisfied *only* by
/// pseudo-labels that crossed shards — minted on shard 1, pushed to the
/// router by the exchanger, forwarded to shard 0, ingested into its
/// halo, and finally used as prompt cues by a shard-0 query whose
/// record proves it (`remote_neighbors > 0` and every labeled cue
/// remote).
#[test]
fn cross_shard_labels_satisfy_gamma_readiness_end_to_end() {
    let full = full_bundle();
    let map = partition(full.tag.graph(), 2, 7, PartitionStrategy::EdgeCut);
    let cfg = || ServeConfig { boost: true, cache_cap: 0, ..worker_cfg() };
    let (e0, s0) = start_worker(&full, &map, 0, "127.0.0.1:0", cfg()).unwrap();
    let (e1, s1) = start_worker(&full, &map, 1, "127.0.0.1:0", cfg()).unwrap();
    let router = Router::start(
        "127.0.0.1:0",
        map.clone(),
        RouterConfig::new(vec![s0.addr(), s1.addr()]),
    )
    .unwrap();
    let addr = router.addr();
    let ex0 = LabelExchanger::start(Arc::clone(&e0), addr, Duration::from_millis(20));
    let ex1 = LabelExchanger::start(Arc::clone(&e1), addr, Duration::from_millis(20));

    // One mixed batch up front so the fan-out path is exercised too.
    let (lo, _) = map.owned_range(0).unwrap();
    let (hi, _) = map.owned_range(1).unwrap();
    let (status, _) = classify(addr, &nodes_json(&[lo, hi]));
    assert!(status.contains("200"), "mixed batch: {status}");

    // Phase 1: classify shard-1 boundary nodes through the router. With
    // boosting on, clean predictions become pseudo-labels; since these
    // nodes have shard-0 neighbors, the exchanger queues and pushes them.
    let phase1: Vec<u32> = map.boundary(1).iter().copied().take(48).collect();
    assert!(phase1.len() >= 8, "shard 1 must have a real boundary, got {}", phase1.len());
    for chunk in phase1.chunks(12) {
        let (status, _) = classify(addr, &nodes_json(chunk));
        assert!(status.contains("200"), "phase-1 chunk: {status}");
    }

    // Wait for worker 0 to ingest exchanged labels into its halo.
    let deadline = Instant::now() + Duration::from_secs(10);
    while e0.labels().num_remote() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        e0.labels().num_remote() > 0,
        "cross-shard pseudo-labels never arrived at worker 0"
    );

    // Phase 2: find shard-0 owned nodes whose entire (≤ max_neighbors)
    // neighborhood carries no label except exchange-delivered ones —
    // for them, γ readiness can only come from remote cues — and query
    // until one record proves the remote label was used. Provenance is
    // re-checked immediately before each query because boosting keeps
    // minting local pseudo-labels as phase 2 itself runs.
    let sb0 = extract_shard(&full, &map, 0);
    let graph0 = sb0.data.tag.graph();
    let candidates: Vec<u32> = (0..sb0.num_owned())
        .filter(|&l| {
            let neigh = graph0.neighbors(NodeId(l));
            !neigh.is_empty() && neigh.len() <= 4
        })
        .collect();
    let mut proof: Option<QueryRecord> = None;
    for l in candidates {
        {
            let labels = e0.labels();
            let neigh = graph0.neighbors(NodeId(l));
            let clean = !labels.is_labeled(NodeId(l))
                && neigh.iter().any(|&n| labels.is_remote(NodeId(n)))
                && !neigh
                    .iter()
                    .any(|&n| labels.is_labeled(NodeId(n)) && !labels.is_remote(NodeId(n)));
            if !clean {
                continue;
            }
        }
        let global = sb0.global_of(l);
        let (status, response) = classify(addr, &nodes_json(&[global]));
        assert!(status.contains("200"), "phase-2 query: {status}");
        let rec = records_of(&response).remove(0);
        assert_eq!(rec.node.0, global, "records speak global ids through the router");
        if rec.remote_neighbors > 0 {
            assert_eq!(
                rec.labeled_neighbors, rec.remote_neighbors,
                "every labeled cue of this query must be exchange-delivered"
            );
            assert!(
                rec.pseudo_neighbors >= rec.remote_neighbors,
                "remote cues are pseudo-labels"
            );
            proof = Some(rec);
            break;
        }
    }
    let proof = proof
        .expect("no routed query had its γ readiness satisfied by cross-shard labels alone");
    assert!(proof.neighbors_included > 0, "the proving prompt carried neighbor cues");

    // The exchange is visible end to end in metrics: pushes on worker 1,
    // relay counters on the router, ingest counters on worker 0.
    let (_, w1_metrics) = http_get(s1.addr(), "/metrics").unwrap();
    let pushes: u64 = w1_metrics
        .lines()
        .find_map(|l| l.strip_prefix("mqo_shard_exchange_pushes_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("worker 1 exports exchange pushes");
    assert!(pushes >= 1, "worker 1 must have pushed at least one batch");
    let router_metrics = router.registry().render_prometheus();
    assert!(router_metrics.contains("mqo_shard_label_pushes_total"), "{router_metrics}");
    assert!(
        router_metrics.contains("mqo_shard_labels_forwarded_total{shard=\"0\"}"),
        "labels must have been forwarded to shard 0:\n{router_metrics}"
    );
    assert!(
        router_metrics.contains("mqo_shard_fanout_batches_total 1"),
        "the mixed batch must be counted:\n{router_metrics}"
    );
    let (_, w0_metrics) = http_get(s0.addr(), "/metrics").unwrap();
    let ingested: u64 = w0_metrics
        .lines()
        .find_map(|l| l.strip_prefix("mqo_shard_labels_ingested_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("worker 0 exports label ingests");
    assert!(ingested >= 1, "worker 0 must have ingested exchanged labels");

    // Worker stats surface the shard identity and remote-label count,
    // and the router aggregates them.
    let (_, text) = http_get(s0.addr(), "/v1/stats").unwrap();
    let stats: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    let shard = stats.get("shard").expect("worker stats embed the shard object");
    assert_eq!(shard.get("id").and_then(|v| v.as_u64()), Some(0));
    assert!(shard.get("remote_labels").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert!(stats.get("peak_rss_mb").and_then(|v| v.as_u64()).unwrap() > 0);
    let (_, text) = http_get(addr, "/v1/stats").unwrap();
    let rstats: serde_json::Value = serde_json::from_str(text.trim()).unwrap();
    assert_eq!(rstats.get("num_shards").and_then(|v| v.as_u64()), Some(2));
    assert!(rstats.get("peak_rss_mb").and_then(|v| v.as_u64()).unwrap() > 0);

    ex0.stop();
    ex1.stop();
    router.shutdown();
    s0.drain();
    s1.drain();
}
