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
#      width 4: the pool width is unobservable in wave mode. The width
#      check repeats for the multi-hop selections (2-hop random and
#      SNS, which run a BFS where 1-hop reads the CSR run) and on an
#      ogbn-products slice, whose many relaxing waves re-check readiness
#      after labels land among neighbors of realistic degree.
#   2. Invariants — a traced wave run goes through obs_check: span
#      nesting with an intact run → round → query → llm_call causal
#      chain, and a cost ledger whose conservation identity holds. Its
#      --trace JSONL must hold one query_executed event per dumped
#      record.
#   3. One schedule — every boosted run goes in waves, so a traced
#      width-4 run *without* --deterministic must pass obs_check, dump
#      the same bytes and report the same rounds and readiness evals as
#      the same run with --deterministic and at width 1, and hold one
#      round span per round in its trace.
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

echo "==> width invariance of the multi-hop selections: 2-hop and SNS at width 1 and width 4"
for method in 2hop sns; do
  for width in 1 4; do
    ./target/release/mqo classify cora --method "$method" \
      --queries 120 --boost --deterministic --threads "$width" --seed 42 --no-cache \
      --dump-records "$OUT/${method}_w$width.jsonl" > "$OUT/${method}_w$width.log"
  done
  if ! cmp "$OUT/${method}_w1.jsonl" "$OUT/${method}_w4.jsonl"; then
    echo "sched_smoke: FAIL — $method width-1 and width-4 record dumps differ byte-wise" >&2
    exit 1
  fi
  echo "$method width-1 and width-4 dumps byte-identical"
done

echo "==> width invariance at products scale: many relaxing waves on a realistic-degree graph"
for width in 1 4; do
  ./target/release/mqo classify ogbn-products --scale 0.01 \
    --queries 400 --boost --deterministic --threads "$width" --seed 42 --no-cache \
    --dump-records "$OUT/products_w$width.jsonl" > "$OUT/products_w$width.log"
done
if ! cmp "$OUT/products_w1.jsonl" "$OUT/products_w4.jsonl"; then
  echo "sched_smoke: FAIL — products width-1 and width-4 record dumps differ byte-wise" >&2
  exit 1
fi
echo "products width-1 and width-4 dumps byte-identical ($(wc -l < "$OUT/products_w1.jsonl") records)"

echo "==> invariants: traced wave run"
./target/release/mqo classify cora \
  --queries 60 --boost --deterministic --threads 4 --seed 42 --no-cache \
  --trace-chrome "$OUT/wave_trace.json" --cost-json "$OUT/wave_cost.json" \
  --trace "$OUT/wave_events.jsonl" --dump-records "$OUT/wave_records.jsonl" > /dev/null
./target/release/obs_check "$OUT/wave_trace.json" "$OUT/wave_cost.json"
executed=$(grep -c '^{"type":"query_executed"' "$OUT/wave_events.jsonl" || true)
records=$(wc -l < "$OUT/wave_records.jsonl")
if [[ "$executed" -ne "$records" ]]; then
  echo "sched_smoke: FAIL — --trace holds $executed query_executed events for $records records" >&2
  exit 1
fi
echo "JSONL trace: $executed query_executed events, one per record"

echo "==> one schedule: traced width-4 run without --deterministic"
for name in default deterministic; do
  flags=(--boost --threads 4)
  if [[ "$name" == deterministic ]]; then flags+=(--deterministic); fi
  ./target/release/mqo classify cora \
    --queries 60 "${flags[@]}" --seed 43 --no-cache \
    --trace-chrome "$OUT/${name}_trace.json" --cost-json "$OUT/${name}_cost.json" \
    --dump-records "$OUT/${name}_records.jsonl" > "$OUT/${name}_run.log"
done
./target/release/mqo classify cora \
  --queries 60 --boost --threads 1 --seed 43 --no-cache \
  --dump-records "$OUT/default_w1_records.jsonl" > "$OUT/default_w1_run.log"
./target/release/obs_check "$OUT/default_trace.json" "$OUT/default_cost.json"
summary() { grep -E '^(boosting rounds|readiness evals)' "$OUT/$1_run.log"; }
for other in deterministic default_w1; do
  if ! cmp "$OUT/default_records.jsonl" "$OUT/${other}_records.jsonl" ||
    [[ "$(summary default)" != "$(summary "$other")" ]]; then
    echo "sched_smoke: FAIL — the default width-4 boosted run and $other differ" >&2
    exit 1
  fi
done
# Every wave opens a round span: a barrier-less run would show none.
rounds=$(summary default | sed -n 's/^boosting rounds: //p')
spans=$({ grep -o '"name":"round"' "$OUT/default_trace.json" || true; } | wc -l)
if [[ "$rounds" -lt 1 || "$spans" -ne "$rounds" ]]; then
  echo "sched_smoke: FAIL — $spans round spans for $rounds boosting rounds" >&2
  exit 1
fi
echo "default, --deterministic and width-1 runs byte-identical ($rounds waves, one round span each)"

echo "sched smoke: PASS"
