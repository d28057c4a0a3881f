#!/usr/bin/env bash
# Deterministic cache-efficiency smoke, the observability artifact check,
# the overload stage, and (unless BENCH_SKIP_SHARD=1) the products-scale
# sharded-cluster stage, delegated to scripts/shard_smoke.sh.
#
#   scripts/bench_smoke.sh
#
# The first workload replays a fixed Cora query set three times through
# the simulated LLM on a 4-worker pool with the response cache on. Its
# tokens_sent, requests_sent, serve_rate and accuracy are deterministic
# (in-flight dedup guarantees one send per unique prompt regardless of
# thread interleaving), so they are checked exactly: any change means the
# cache, the prompts or the answers moved. The hit/coalesced split races
# under threads, so cache_hits is not checked.
#
# The second, boosted run exercises the observability layer end to end:
# it must produce a loadable Chrome trace with an intact causal chain and
# a cost ledger whose conservation identity holds (obs_check exits
# non-zero otherwise). Both artifacts are left under target/ for CI to
# upload.
#
# Throughput, latency and memory are not measured here: the repository
# benchmark measures them, and scripts/bench_compare.sh gates them parent
# against change.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT=target/bench_smoke_current.json
OBS_TRACE=target/obs_trace.json
OBS_COST=target/obs_cost.json
SERVE_ADDR=target/bench_serve_addr

echo "==> building release binaries"
cargo build --release -q -p mqo-bench --bin mqo --bin loadgen --bin obs_check

echo "==> smoke workload (cora x3, cached, 4 workers)"
./target/release/mqo classify cora \
  --queries 120 --repeat 3 --seed 42 --threads 4 \
  --stats-json "$CURRENT"
for want in '"tokens_sent": 46230,' '"requests_sent": 134,' \
  '"serve_rate": 0.6666666666666666,' '"accuracy": 0.75,'; do
  grep -qF "$want" "$CURRENT" || {
    echo "bench_smoke: $CURRENT does not read $want" >&2
    exit 1
  }
done

echo "==> observability workload (cora, boosted, traced + cost ledger)"
./target/release/mqo classify cora \
  --queries 60 --boost --seed 42 \
  --trace-chrome "$OBS_TRACE" --cost-json "$OBS_COST"
./target/release/obs_check "$OBS_TRACE" "$OBS_COST"

echo "==> overload workload (open-loop burst past saturation, self-gating)"
# loadgen --overload calibrates sustainable throughput, then offers 5x
# open-loop. It exits non-zero itself when admitted goodput hits zero, a
# 429 lacks a well-formed Retry-After in [1, 30], or the admitted p99
# breaches the (deliberately generous, runner-noise-proof) SLO — the
# point is that admitted work still finishes while the excess sheds.
# A 20ms latency fault on every LLM call makes saturation real: without
# it the simulated model absorbs any open-loop burst a single runner can
# generate and the shedding path never fires.
rm -f "$SERVE_ADDR"
./target/release/mqo serve cora \
  --addr 127.0.0.1:0 --addr-file "$SERVE_ADDR" --workers 4 --queue-cap 32 \
  --queries 120 --seed 42 --no-cache \
  --faults latency=1.0,latency-micros=20000 > target/bench_overload_serve.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$SERVE_ADDR" ] && break; sleep 0.1; done
[ -s "$SERVE_ADDR" ] || { echo "bench_smoke: overload server never bound" >&2; exit 1; }
# Concurrency must exceed the server's slots + wait room (4 + 32) or the
# closed client population itself caps the in-flight count and the wait
# room never fills — shedding would be untestable.
./target/release/loadgen --addr-file "$SERVE_ADDR" \
  --overload --requests 1200 --concurrency 48 --batch 2 --seed 42 \
  --slo-p99-ms 10000 --out target/bench_overload.json --drain
wait "$SERVE_PID" || { echo "bench_smoke: overload server exited non-zero" >&2; exit 1; }
grep -q '"shed_429": 0,' target/bench_overload.json && {
  echo "bench_smoke: a 5x overload burst shed nothing — controller asleep" >&2
  exit 1
}

# Products-scale sharded cluster: partition, 4 workers + router, routed
# burst, cross-shard label exchange. CI runs shard_smoke.sh as its own
# step and sets BENCH_SKIP_SHARD=1 here to avoid paying the multi-minute
# graph generation twice.
if [[ "${BENCH_SKIP_SHARD:-0}" != 1 ]]; then
  echo "==> products-scale sharded cluster (delegating to shard_smoke.sh)"
  scripts/shard_smoke.sh
fi
