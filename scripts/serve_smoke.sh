#!/usr/bin/env bash
# Serving smoke: the online classification service end to end on the
# release binaries.
#
#   scripts/serve_smoke.sh
#
# Eight gated legs, all seeded:
#
#   1. A server over a generated Cora file answers a seeded loadgen
#      burst with non-zero throughput (loadgen exits non-zero if no
#      request succeeds), then drains cleanly on request — the `mqo
#      serve` process must exit 0 with the journal sealed.
#   2. The drained run's Chrome trace and cost ledger must pass
#      obs_check: every query span under the run span, intervals
#      nested, and the token-conservation identity holding.
#   3. Malformed framing (conflicting duplicate Content-Length,
#      truncated headers, a header flood) must each draw a 400, the
#      rejections must be counted in mqo_http_errors_total, and the
#      server must keep answering /v1/healthz afterwards (loadgen
#      --malformed exits non-zero otherwise).
#   4. A tenant with an undersized admission budget must see 429s —
#      and the server must keep answering other work afterwards.
#   5. A restarted server (--resume) replaying the *same* seeded burst
#      must re-bill zero tokens: everything comes from the journal.
#   6. The resumed server must also drain cleanly (exit 0).
#   7. A caller-supplied trace id must round-trip: loadgen sends it in
#      x-mqo-trace-id, reads it back from the response header, and the
#      same id must then appear in the live /v1/debug/flight ring, the
#      Chrome trace export, and the journal record. /v1/slo must report
#      burn rate <= 1 for the clean run, and the drained flight dump
#      must pass obs_check's causal span-tree validation.
#   8. A copy of the generated file under a magic an earlier build wrote
#      (`MQOTAG3`) is refused: `mqo inspect` exits 1 and tells the user
#      to regenerate it with `mqo generate`.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=target/serve
mkdir -p "$OUT"
rm -f "$OUT"/addr "$OUT"/addr2 "$OUT"/serve.jsonl

echo "==> building release binaries"
cargo build --release -q -p mqo-bench --bin mqo --bin loadgen --bin obs_check

echo "==> generating dataset"
./target/release/mqo generate cora --scale 0.5 --seed 42 --out "$OUT/cora.bin" > /dev/null

echo "==> leg 8: an image under a retired magic is refused with a regenerate hint"
cp "$OUT/cora.bin" "$OUT/retired.bin"
printf 'MQOTAG3\n' | dd of="$OUT/retired.bin" bs=8 count=1 conv=notrunc status=none
status=0
./target/release/mqo inspect "$OUT/retired.bin" > /dev/null 2> "$OUT/retired.err" || status=$?
if [ "$status" -ne 1 ] || ! grep -qF 'regenerate it with `mqo generate`' "$OUT/retired.err"; then
  echo "serve_smoke: inspect of a retired-magic image exited $status:" >&2
  cat "$OUT/retired.err" >&2
  exit 1
fi
rm -f "$OUT/retired.bin"

wait_for_file() { # path what
  for _ in $(seq 1 200); do [ -s "$1" ] && return 0; sleep 0.1; done
  echo "serve_smoke: timed out waiting for $2 ($1)" >&2
  return 1
}

echo "==> leg 1: serve + seeded burst + clean drain"
./target/release/mqo serve "$OUT/cora.bin" \
  --addr 127.0.0.1:0 --addr-file "$OUT/addr" --workers 4 --queue-cap 32 \
  --queries 120 --seed 42 \
  --tenants throttled=2000 \
  --journal "$OUT/serve.jsonl" \
  --slo-p99-ms 250 --flight-dump "$OUT/serve_flight.json" \
  --trace-chrome "$OUT/serve_trace.json" --cost-json "$OUT/serve_cost.json" \
  --stats-json "$OUT/serve_stats.json" > "$OUT/serve.log" 2>&1 &
SERVE_PID=$!
wait_for_file "$OUT/addr" "server address"

./target/release/loadgen --addr-file "$OUT/addr" \
  --requests 60 --concurrency 6 --batch 3 --seed 42 \
  --out "$OUT/load.json"

http_get_raw() { # path outfile — tiny GET client over bash /dev/tcp
  local host port
  host=${ADDR%:*}; port=${ADDR##*:}
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET %s HTTP/1.1\r\nHost: mqo\r\nConnection: close\r\n\r\n' "$1" >&3
  cat <&3 > "$2"
  exec 3>&- 3<&-
}
ADDR=$(cat "$OUT/addr")

echo "==> leg 7: caller-supplied trace id round-trips live"
# loadgen stamps the id on its request, reads it back from the
# response's x-mqo-trace-id header, and prints it under "slowest" —
# so the grep fails unless the server echoed it. The oversized batch
# deliberately slows the request so tail sampling must retain it.
TRACE_ID=cafef00dcafef00d
./target/release/loadgen --addr-file "$OUT/addr" \
  --requests 1 --concurrency 1 --batch 24 --seed 45 --trace-id "$TRACE_ID" \
  --out "$OUT/load_trace.json"
grep -q "$TRACE_ID" "$OUT/load_trace.json" || {
  echo "serve_smoke: trace id did not round-trip through the response header" >&2
  cat "$OUT/load_trace.json" >&2
  exit 1
}
# The same request must be retained in the live flight-recorder ring.
http_get_raw /v1/debug/flight "$OUT/flight_live.json"
grep -q "$TRACE_ID" "$OUT/flight_live.json" || {
  echo "serve_smoke: traced request missing from /v1/debug/flight" >&2
  cat "$OUT/flight_live.json" >&2
  exit 1
}

echo "==> leg 3: malformed framing draws 400s and the server stays up"
# Conflicting duplicate Content-Length, truncated headers, and a header
# flood must each be rejected with 400, the rejections must show in
# mqo_http_errors_total, and /v1/healthz must still answer 200.
./target/release/loadgen --addr-file "$OUT/addr" --malformed \
  --out "$OUT/load_malformed.json"

echo "==> leg 4: undersized tenant budget answers 429"
# 2000 tokens admit only the first few requests; the rest must bounce.
./target/release/loadgen --addr-file "$OUT/addr" \
  --requests 20 --concurrency 4 --batch 2 --seed 43 --tenant throttled \
  --out "$OUT/load_throttled.json"
grep -Eq '"rejected_429": [1-9]' "$OUT/load_throttled.json" || {
  echo "serve_smoke: expected tenant-budget 429s, got:" >&2
  cat "$OUT/load_throttled.json" >&2
  exit 1
}
# A clean run must not burn error budget: every per-tenant burn rate on
# /v1/slo stays below 1 (429s are client errors and spend nothing).
http_get_raw /v1/slo "$OUT/slo_live.json"
grep -q '"tenants":\[' "$OUT/slo_live.json" || {
  echo "serve_smoke: /v1/slo reported no tenants" >&2
  cat "$OUT/slo_live.json" >&2
  exit 1
}
if grep -Eq '"burn_rate":[1-9]' "$OUT/slo_live.json"; then
  echo "serve_smoke: clean run burned error budget:" >&2
  cat "$OUT/slo_live.json" >&2
  exit 1
fi

# The burst after the throttled one proves rejections didn't wedge the
# pool; --drain then asks for a graceful shutdown.
./target/release/loadgen --addr-file "$OUT/addr" \
  --requests 20 --concurrency 4 --batch 3 --seed 44 --drain > /dev/null

wait "$SERVE_PID" || { echo "serve_smoke: server exited non-zero" >&2; exit 1; }
grep -q "journal sealed" "$OUT/serve.log" || {
  echo "serve_smoke: drain did not seal the journal" >&2
  cat "$OUT/serve.log" >&2
  exit 1
}

echo "==> leg 2: serving trace, ledger, and flight dump pass obs_check"
# The traced request must have reached the Chrome export (request-span
# detail carries "[<id>]") and the journal record ("trace":"<id>").
grep -q "$TRACE_ID" "$OUT/serve_trace.json" || {
  echo "serve_smoke: trace id missing from the Chrome trace export" >&2
  exit 1
}
grep -q "\"trace\":\"$TRACE_ID\"" "$OUT/serve.jsonl" || {
  echo "serve_smoke: trace id missing from the journal record" >&2
  exit 1
}
grep -q "flight recorder" "$OUT/serve.log" || {
  echo "serve_smoke: drain summary did not report the flight recorder" >&2
  cat "$OUT/serve.log" >&2
  exit 1
}
./target/release/obs_check "$OUT/serve_trace.json" "$OUT/serve_cost.json" \
  "$OUT/serve_flight.json"

echo "==> leg 5: resumed server re-bills zero tokens for the same burst"
./target/release/mqo serve "$OUT/cora.bin" \
  --addr 127.0.0.1:0 --addr-file "$OUT/addr2" --workers 4 --queue-cap 32 \
  --queries 120 --seed 42 \
  --journal "$OUT/serve.jsonl" --resume \
  --stats-json "$OUT/resume_stats.json" > "$OUT/resume.log" 2>&1 &
RESUME_PID=$!
wait_for_file "$OUT/addr2" "resumed server address"

# Same seeds as legs 1 and 4's final burst: every node is journaled.
./target/release/loadgen --addr-file "$OUT/addr2" \
  --requests 60 --concurrency 6 --batch 3 --seed 42 > /dev/null
./target/release/loadgen --addr-file "$OUT/addr2" \
  --requests 20 --concurrency 4 --batch 3 --seed 44 --drain > /dev/null

echo "==> leg 6: resumed server drains cleanly"
wait "$RESUME_PID" || { echo "serve_smoke: resumed server exited non-zero" >&2; exit 1; }
grep -q '"tokens_billed":0' "$OUT/resume_stats.json" || {
  echo "serve_smoke: resume re-billed tokens:" >&2
  cat "$OUT/resume_stats.json" >&2
  exit 1
}
grep -Eq '"replayed":[1-9]' "$OUT/resume_stats.json" || {
  echo "serve_smoke: resume served nothing from the journal" >&2
  exit 1
}

echo "serve smoke: PASS"
