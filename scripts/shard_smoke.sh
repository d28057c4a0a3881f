#!/usr/bin/env bash
# 4-shard scale-out smoke: partition a products-calibrated TAG (>= 1M
# nodes at the default scale), serve it from four shard workers behind
# the consistent-hash router, drive a mixed-shard burst through the
# router, and verify the cross-shard pseudo-label exchange end to end:
#
#   * every worker reports its shard identity on /v1/healthz;
#   * the routed burst answers, with batches spanning shards and every
#     shard receiving node picks (loadgen --router attributes picks
#     per shard from the map);
#   * cross-shard label traffic is visible in Prometheus metrics on
#     both sides: the router's relay counters and the workers'
#     push/ingest counters all move, and the relay conserves labels
#     (Σ router forwarded = Σ workers received);
#   * all workers drain cleanly, and worker 0's Chrome trace + cost
#     ledger pass obs_check;
#   * cluster peak RSS (max VmHWM across workers) and routed
#     throughput gate against BENCH_PR10.json via bench_gate
#     --routed-only. The RSS ceiling is the scale-out contract — a
#     worker quietly holding the whole graph instead of its partition
#     fails it — and the routed-rps floor catches a wedged router.
#
#   scripts/shard_smoke.sh            # run and gate against BENCH_PR10.json
#   scripts/shard_smoke.sh --update   # run and fold the routed fields
#                                     # into BENCH_PR10.json (after
#                                     # bench_smoke.sh --update wrote the
#                                     # cache/serving fields)
#
# SHARD_SMOKE_SCALE overrides the graph scale for quick local runs
# (default 0.41 ~= 1.00M nodes / 25.4M edges, the products-calibrated
# floor the acceptance demands).
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=BENCH_PR10.json
SCALE="${SHARD_SMOKE_SCALE:-0.41}"
SHARDS=4
DIR=target/shard_smoke
ROUTED="$DIR/routed.json"
# The workers need the router address at startup (they push boundary
# labels to it), and the router needs the worker addresses — so the
# script picks the router port up front and binds it last. Workers
# tolerate a not-yet-listening router: pushes fail, are counted, and
# the labels stay queued for the next exchange tick.
ROUTER_ADDR="127.0.0.1:$(( (RANDOM % 20000) + 24000 ))"

rm -rf "$DIR"
mkdir -p "$DIR"

cleanup() {
  kill "${WORKER_PIDS[@]:-}" "${ROUTER_PID:-}" 2> /dev/null || true
}
trap cleanup EXIT

echo "==> building release binaries"
cargo build --release -q -p mqo-bench --bin mqo --bin loadgen --bin bench_gate --bin obs_check

echo "==> partitioning ogbn-products (scale $SCALE, seed 42) into $SHARDS shards"
./target/release/mqo partition ogbn-products --scale "$SCALE" --seed 42 \
  --shards "$SHARDS" --out-dir "$DIR" --stats-json "$DIR/partition.json" \
  | tee "$DIR/partition.txt"

echo "==> starting $SHARDS shard workers (boosted, exchange via $ROUTER_ADDR)"
WORKER_PIDS=()
for i in $(seq 0 $((SHARDS - 1))); do
  EXTRA=()
  if [[ "$i" == 0 ]]; then
    EXTRA+=(--trace-chrome "$DIR/worker0_trace.json" --cost-json "$DIR/worker0_cost.json")
  fi
  ./target/release/mqo serve "$DIR/shard-$i.bin" \
    --shard-id "$i" --shard-map "$DIR/shard-map.bin" --router "$ROUTER_ADDR" \
    --exchange-interval-ms 100 --boost --queries 400 --seed 42 \
    --addr 127.0.0.1:0 --addr-file "$DIR/worker-$i.addr" \
    --workers 2 --queue-cap 32 "${EXTRA[@]}" > "$DIR/worker-$i.log" 2>&1 &
  WORKER_PIDS+=($!)
done

WORKERS=""
for i in $(seq 0 $((SHARDS - 1))); do
  for _ in $(seq 1 600); do [ -s "$DIR/worker-$i.addr" ] && break; sleep 0.5; done
  [ -s "$DIR/worker-$i.addr" ] || {
    echo "shard_smoke: worker $i never bound (see $DIR/worker-$i.log)" >&2
    exit 1
  }
  ADDR=$(tr -d '[:space:]' < "$DIR/worker-$i.addr")
  WORKERS="${WORKERS:+$WORKERS,}$ADDR"
  # Shard identity on the worker's own healthz.
  curl -sf "http://$ADDR/v1/healthz" | grep -q "\"id\":$i" || {
    echo "shard_smoke: worker $i healthz does not carry shard id $i" >&2
    exit 1
  }
done

echo "==> starting router on $ROUTER_ADDR over workers $WORKERS"
./target/release/mqo route "$DIR/shard-map.bin" --workers "$WORKERS" \
  --addr "$ROUTER_ADDR" > "$DIR/router.log" 2>&1 &
ROUTER_PID=$!
for _ in $(seq 1 100); do
  curl -sf "http://$ROUTER_ADDR/v1/healthz" > /dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ROUTER_ADDR/v1/healthz" | grep -q "\"num_shards\":$SHARDS" || {
  echo "shard_smoke: router healthz does not report $SHARDS shards" >&2
  exit 1
}

echo "==> mixed-shard burst through the router"
# loadgen folds routed_serve_rps / routed_p99_ms / peak_rss_mb into the
# merge target: the scratch snapshot when gating, the committed baseline
# itself under --update.
echo '{}' > "$ROUTED"
MERGE_TARGET="$ROUTED"
if [[ "${1:-}" == "--update" ]]; then
  [ -f "$BASELINE" ] || echo '{}' > "$BASELINE"
  MERGE_TARGET="$BASELINE"
fi
./target/release/loadgen --addr "$ROUTER_ADDR" \
  --router --shard-map "$DIR/shard-map.bin" \
  --requests 300 --warmup 40 --concurrency 4 --batch 6 --seed 42 \
  --merge-into "$MERGE_TARGET" --out "$DIR/loadgen.json" | tee "$DIR/loadgen.txt"

grep -Eq "mixed batches   : [1-9]" "$DIR/loadgen.txt" || {
  echo "shard_smoke: no batch spanned a shard boundary — picks are not mixing" >&2
  exit 1
}
if grep -q ": 0 node picks" "$DIR/loadgen.txt"; then
  echo "shard_smoke: some shard saw zero node picks — routing is lopsided" >&2
  exit 1
fi

# Give the exchangers a couple of ticks to flush boundary labels that
# the burst's boosted queries minted, then check the exchange end to
# end in metrics: workers pushed, the router relayed, workers ingested.
sleep 2
ROUTER_METRICS=$(curl -sf "http://$ROUTER_ADDR/metrics")
echo "$ROUTER_METRICS" | grep -Eq "mqo_shard_label_pushes_total [1-9]" || {
  echo "shard_smoke: no worker pushed labels to the router" >&2
  exit 1
}
echo "$ROUTER_METRICS" | grep -Eq "mqo_shard_labels_forwarded_total\{[^}]*\} [1-9]" || {
  echo "shard_smoke: the router forwarded no cross-shard labels" >&2
  exit 1
}
INGESTED=0
for i in $(seq 0 $((SHARDS - 1))); do
  ADDR=$(tr -d '[:space:]' < "$DIR/worker-$i.addr")
  N=$(curl -sf "http://$ADDR/metrics" \
    | sed -n 's/^mqo_shard_labels_ingested_total \([0-9]*\).*/\1/p')
  INGESTED=$((INGESTED + ${N:-0}))
done
[ "$INGESTED" -gt 0 ] || {
  echo "shard_smoke: no worker ingested a remote label — exchange is dark" >&2
  exit 1
}
echo "cross-shard     : $INGESTED remote labels ingested across the cluster"
# Relay conservation: the router relays labels byte-level, so every label
# it counts as forwarded must have reached a worker's /v1/labels.
FORWARDED=$(echo "$ROUTER_METRICS" \
  | sed -n 's/^mqo_shard_labels_forwarded_total{[^}]*} \([0-9]*\).*/\1/p' \
  | awk '{ s += $1 } END { print s + 0 }')
RECEIVED=0
for i in $(seq 0 $((SHARDS - 1))); do
  ADDR=$(tr -d '[:space:]' < "$DIR/worker-$i.addr")
  N=$(curl -sf "http://$ADDR/metrics" \
    | sed -n 's/^mqo_shard_labels_received_total \([0-9]*\).*/\1/p')
  RECEIVED=$((RECEIVED + ${N:-0}))
done
[ "$RECEIVED" -eq "$FORWARDED" ] || {
  echo "shard_smoke: router forwarded $FORWARDED labels but workers received $RECEIVED" >&2
  exit 1
}
echo "relay           : $FORWARDED labels forwarded = $RECEIVED received"

echo "==> draining workers and stopping the router"
for i in $(seq 0 $((SHARDS - 1))); do
  ADDR=$(tr -d '[:space:]' < "$DIR/worker-$i.addr")
  curl -sf -X POST "http://$ADDR/v1/drain" > /dev/null
done
for pid in "${WORKER_PIDS[@]}"; do
  wait "$pid" || { echo "shard_smoke: a worker exited non-zero" >&2; exit 1; }
done
WORKER_PIDS=()
kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" || { echo "shard_smoke: router exited non-zero" >&2; exit 1; }
ROUTER_PID=""

echo "==> obs_check on worker 0's trace + cost ledger"
./target/release/obs_check "$DIR/worker0_trace.json" "$DIR/worker0_cost.json"

if [[ "${1:-}" == "--update" ]]; then
  echo "baseline updated: routed fields of $BASELINE"
else
  ./target/release/bench_gate "$BASELINE" "$ROUTED" --routed-only
fi
