#!/usr/bin/env bash
# Scheduler smoke: the event-driven execution core's two contracts, end
# to end on a real seeded workload.
#
#   1. Determinism — the same boosted Cora run through the cue-gated
#      policy twice under --deterministic (width 4, cache off so the
#      model sees every call) must dump byte-identical record files.
#      Any scheduler change that lets pool width, lock timing, or
#      completion order leak into results fails this diff. The same
#      seed at width 1 (a pool of one) must dump the same bytes as
#      width 4: the pool width is unobservable in wave mode.
#   2. Invariants under reordering — a traced deterministic wave run AND
#      a traced free-running run (out-of-order completions folding
#      pseudo-labels mid-flight) both go through obs_check: span nesting
#      with an intact run → round/wave → query → llm_call causal chain,
#      and a cost ledger whose conservation identity holds.
#
# Artifacts land under target/sched/ for CI to upload.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/sched
mkdir -p "$OUT"

echo "==> building release binaries"
cargo build --release -q -p mqo-bench --bin mqo --bin obs_check

echo "==> determinism: seeded boosted workload, cue-gated scheduler, twice"
for leg in a b; do
  ./target/release/mqo classify cora \
    --queries 120 --boost --deterministic --threads 4 --seed 42 --no-cache \
    --dump-records "$OUT/records_$leg.jsonl" > "$OUT/run_$leg.log"
done
if ! cmp "$OUT/records_a.jsonl" "$OUT/records_b.jsonl"; then
  echo "sched_smoke: FAIL — deterministic record dumps differ byte-wise" >&2
  exit 1
fi
echo "record dumps byte-identical ($(wc -l < "$OUT/records_a.jsonl") records)"

echo "==> width invariance: the same seeded run at width 1 and width 4"
./target/release/mqo classify cora \
  --queries 120 --boost --deterministic --threads 1 --seed 42 --no-cache \
  --dump-records "$OUT/records_w1.jsonl" > "$OUT/run_w1.log"
if ! cmp "$OUT/records_w1.jsonl" "$OUT/records_a.jsonl"; then
  echo "sched_smoke: FAIL — width-1 and width-4 record dumps differ byte-wise" >&2
  exit 1
fi
echo "width-1 and width-4 dumps byte-identical"

echo "==> invariants: traced deterministic wave run"
./target/release/mqo classify cora \
  --queries 60 --boost --deterministic --threads 4 --seed 42 --no-cache \
  --trace-chrome "$OUT/wave_trace.json" --cost-json "$OUT/wave_cost.json" > /dev/null
./target/release/obs_check "$OUT/wave_trace.json" "$OUT/wave_cost.json"

echo "==> invariants: traced free-running run (out-of-order completion)"
./target/release/mqo classify cora \
  --queries 60 --boost --threads 4 --seed 43 --no-cache \
  --trace-chrome "$OUT/free_trace.json" --cost-json "$OUT/free_cost.json" > /dev/null
./target/release/obs_check "$OUT/free_trace.json" "$OUT/free_cost.json"

echo "sched smoke: PASS"
