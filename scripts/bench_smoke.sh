#!/usr/bin/env bash
# Deterministic cache-efficiency smoke bench + regression gate, the
# observability artifact check, the serving throughput snapshot, and
# (unless BENCH_SKIP_SHARD=1) the products-scale sharded-cluster stage,
# which delegates to scripts/shard_smoke.sh for the routed-throughput
# floor and the cluster peak-RSS ceiling.
#
#   scripts/bench_smoke.sh            # run and gate against BENCH_PR10.json
#   scripts/bench_smoke.sh --update   # run and (re)write BENCH_PR10.json
#                                     # (shard_smoke --update then folds in
#                                     # the routed fields)
#
# The gated workload replays a fixed Cora query set three times through
# the simulated LLM on a 4-worker pool with the response cache on, so
# tokens_sent and serve_rate are bit-deterministic (in-flight dedup
# guarantees one send per unique prompt regardless of thread
# interleaving). The gate fails
# when metered tokens rise or the serve rate drops by more than 5% vs the
# committed baseline — i.e. when a change quietly breaks the cache.
#
# The second, boosted run exercises the observability layer end to end:
# it must produce a loadable Chrome trace with an intact causal chain and
# a cost ledger whose conservation identity holds (obs_check exits
# non-zero otherwise). Both artifacts are left under target/ for CI to
# upload.
#
# The third stage serves the same dataset over loopback HTTP and fires a
# seeded loadgen burst over keep-alive connections with a warmup window;
# loadgen folds serve_rps / serve_p50_ms / serve_p99_ms into the stats
# snapshot, and bench_gate checks them against the baseline at
# --serve-tolerance 65 (tightened from the pre-keep-alive 90): wall-clock
# numbers still gate structure, not runner speed, but a large regression
# now fails instead of hiding inside the slack. The remaining slack
# absorbs shared-runner noise (observed run-to-run spread is roughly 2x
# on rps and p99 tails on a single-core runner), not code regressions.
# The burst is 6000 requests after a 500-request warmup: the short
# pre-PR7 burst (400) measured mostly cold-start (thread spawn, page
# faults, connection setup) and undersold steady-state by 2-3x, and a
# sub-second measured window leaves 20-30% run-to-run jitter on rps.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR10.json
CURRENT=target/bench_smoke_current.json
OBS_TRACE=target/obs_trace.json
OBS_COST=target/obs_cost.json
SERVE_ADDR=target/bench_serve_addr

echo "==> building release binaries"
cargo build --release -q -p mqo-bench --bin mqo --bin loadgen --bin bench_gate --bin obs_check

echo "==> smoke workload (cora x3, cached, 4 workers)"
./target/release/mqo classify cora \
  --queries 120 --repeat 3 --seed 42 --threads 4 \
  --stats-json "$CURRENT"

echo "==> observability workload (cora, boosted, traced + cost ledger)"
./target/release/mqo classify cora \
  --queries 60 --boost --seed 42 \
  --trace-chrome "$OBS_TRACE" --cost-json "$OBS_COST"
./target/release/obs_check "$OBS_TRACE" "$OBS_COST"

echo "==> serving workload (loopback server + seeded loadgen burst)"
rm -f "$SERVE_ADDR"
./target/release/mqo serve cora \
  --addr 127.0.0.1:0 --addr-file "$SERVE_ADDR" --workers 4 --queue-cap 32 \
  --queries 120 --seed 42 > target/bench_serve.log 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 200); do [ -s "$SERVE_ADDR" ] && break; sleep 0.1; done
[ -s "$SERVE_ADDR" ] || { echo "bench_smoke: server never bound" >&2; exit 1; }
./target/release/loadgen --addr-file "$SERVE_ADDR" \
  --requests 6000 --warmup 500 --concurrency 8 --batch 4 --seed 42 \
  --merge-into "$CURRENT" --drain > /dev/null
wait "$SERVE_PID" || { echo "bench_smoke: server exited non-zero" >&2; exit 1; }

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

if [[ "${1:-}" == "--update" ]]; then
  cp "$CURRENT" "$BASELINE"
  echo "baseline updated: $BASELINE (cache + serving fields)"
else
  ./target/release/bench_gate "$BASELINE" "$CURRENT" --serve-tolerance 65
fi

# Products-scale sharded cluster: partition, 4 workers + router, routed
# burst, cross-shard label exchange, peak-RSS ceiling + routed-rps floor.
# CI runs shard_smoke.sh as its own step and sets BENCH_SKIP_SHARD=1 here
# to avoid paying the multi-minute graph generation twice. Under
# --update the delegate folds the routed fields into the baseline the
# cp above just rewrote.
if [[ "${BENCH_SKIP_SHARD:-0}" != 1 ]]; then
  echo "==> products-scale sharded cluster (delegating to shard_smoke.sh)"
  scripts/shard_smoke.sh "${1:-}"
fi
