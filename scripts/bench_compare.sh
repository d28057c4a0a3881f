#!/usr/bin/env bash
# The performance gate: the repository benchmark (benchmark/, declared in
# BENCHMARK.json), run on REV's `mqo` and on the working tree's, and
# compared.
#
#   scripts/bench_compare.sh REV      # e.g. HEAD^, or a pull request's merge base
#
# REV's source is checked out in a git worktree under target/ and its
# `mqo` built there, unless the binary left by an earlier run was built
# from the same commit (target/bench_compare/parent-target/built-from):
# then it is reused untouched, so the benchmark's input stamp (keyed on
# the binary's mtime) keeps the parent side's prepared inputs. The
# working tree's `mqo` and one `mqo-benchmark` harness are built from
# the working tree. The harness drives both
# binaries (`--mqo`), each side in its own work directory (`--work`),
# because inputs are prepared per `mqo` build. Each workload runs in
# pairs, one seed per pair, the two sides back to back; the pairs
# alternate which side runs first. The sides thus take turns every few
# seconds, so a machine that drifts fast or slow moves both alike.
#
# It fails (exit 1) when, on any workload, the change's median of an
# end-to-end metric is worse than REV's by more than that metric's bound;
# when any run reports "correct": false or stops early; or when the
# change fails a larger share of operations than REV. Bounds and
# directions are read from BENCHMARK.json. It prints one row per
# (workload, metric) and writes the same rows to
# target/bench_compare/compare.json; every run's results file stays under
# target/bench_compare/{parent,change}/results/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 || "$1" == -* ]]; then
  echo "usage: scripts/bench_compare.sh REV" >&2
  exit 2
fi
PARENT_REV=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "bench_compare: '$1' names no commit" >&2
  exit 2
}

# Chosen by A/A runs (REV = HEAD) on a 2-core VM shared with other work.
# At 2 s per run serve-hot's p99 drifted 19% against its 25% bound. At 5 s
# with 6 pairs in which each side ran all four workloads in turn, one run
# in three read serve-routed's p99 99% worse. Per-workload turns with 10
# pairs passed three runs in three, the largest worsening at 86% of its
# bound (serve-cold p99, under outside load). A full compare took 11-17
# minutes there, builds included.
RUN_SECONDS=5
PAIRS=10

OUT=target/bench_compare
SRC="$OUT/parent-src"
HARNESS=target/release/mqo-benchmark
CHANGE_MQO=target/release/mqo
PARENT_MQO="$OUT/parent-target/release/mqo"
PARENT_BUILT_FROM="$OUT/parent-target/built-from"

# Building the benchmark rewrites its lock file when that is stale; put
# it back if it was clean, so the gate leaves the tree as it found it.
LOCK=benchmark/Cargo.lock
LOCK_WAS_CLEAN=$([[ -z "$(git status --porcelain -- "$LOCK")" ]] && echo 1 || echo 0)

remove_worktree() {
  git worktree remove --force "$SRC" 2> /dev/null || rm -rf "$SRC"
  git worktree prune
}
cleanup() {
  remove_worktree
  if [[ "$LOCK_WAS_CLEAN" == 1 ]]; then git checkout --quiet -- "$LOCK"; fi
}
trap cleanup EXIT

build() { cargo build --release --offline --quiet "$@" >&2; }
if [[ -x "$PARENT_MQO" && "$(cat "$PARENT_BUILT_FROM" 2> /dev/null)" == "$PARENT_REV" ]]; then
  echo "==> reusing the parent's mqo ($PARENT_REV)"
else
  remove_worktree
  git worktree add --quiet --detach "$SRC" "$PARENT_REV"
  echo "==> building the parent's mqo ($PARENT_REV)"
  rm -f "$PARENT_BUILT_FROM"
  build --manifest-path "$SRC/Cargo.toml" --target-dir "$OUT/parent-target" -p mqo-bench --bin mqo
  echo "$PARENT_REV" > "$PARENT_BUILT_FROM"
  remove_worktree
fi
echo "==> building the change's mqo and the benchmark harness"
build --target-dir target -p mqo-bench --bin mqo
build --manifest-path benchmark/Cargo.toml --target-dir target --bin mqo-benchmark
rm -rf "$OUT/parent/results" "$OUT/change/results" "$OUT/logs" "$OUT/compare.json"
mkdir -p "$OUT/logs"

WORKLOADS=$(python3 -c 'import json
print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
pairs_run=0
status=0
for ((i = 1; i <= PAIRS; i++)); do
  pairs_run=$i
  order=(parent change)
  ((i % 2)) || order=(change parent)
  echo "==> pair $i of $PAIRS (seed $i), ${order[0]} first"
  for workload in $WORKLOADS; do
    for side in "${order[@]}"; do
      mqo=$CHANGE_MQO
      [[ "$side" == parent ]] && mqo=$PARENT_MQO
      log="$OUT/logs/$side-$workload-seed$i"
      "$HARNESS" --mqo "$mqo" --work "$OUT/$side" --workload "$workload" --seed "$i" \
        --seconds "$RUN_SECONDS" > "$log.out" 2> "$log.err" || status=$?
      if [[ "$status" != 0 ]]; then
        echo "bench_compare: the $side $workload run on seed $i exited $status; see $log.err" >&2
        break 3
      fi
    done
  done
done

python3 - "$OUT" "$pairs_run" "$PARENT_REV" "$RUN_SECONDS" << 'EOF' || status=1
import json, statistics, subprocess, sys

out, pairs, parent_rev, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
problems, rows = [], []

def results(side, workload):
    found = []
    for seed in range(1, pairs + 1):
        path = f"{out}/{side}/results/{workload}-seed{seed}-trace0.json"
        try:
            found.append(json.load(open(path))["result"])
        except (OSError, ValueError, KeyError):
            problems.append(f"{side} {workload} seed {seed}: no result ({path})")
            continue
        if found[-1].get("correct") is not True:
            problems.append(f"{side} {workload} seed {seed}: \"correct\": false")
    return found

def worsening(better, base, new):
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change

print(f"{'workload':<13} {'metric':<17} {'parent':>13} {'change':>13} {'worse':>8} "
      f"{'bound':>7}  verdict")
for w in workloads:
    side = {s: results(s, w) for s in ("parent", "change")}
    share = {s: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for s, rs in side.items()}
    if share["change"] > share["parent"]:
        problems.append(f"{w}: the change fails {share['change']:.3%} of operations, "
                        f"the parent {share['parent']:.3%}")
    for m in spec["end_to_end"]:
        values = {s: [r["metrics"][m["name"]]["value"] for r in rs if m["name"] in r["metrics"]]
                  for s, rs in side.items()}
        if not (values["parent"] and values["change"]):
            problems.append(f"{w} {m['name']}: no value on one side")
            continue
        base, new = statistics.median(values["parent"]), statistics.median(values["change"])
        worse = worsening(m["better"], base, new)
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        print(f"{w:<13} {m['name']:<17} {base:>13.6g} {new:>13.6g} {worse:>+8.2%} "
              f"{m['bound']:>7.1%}  {verdict}")
        rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                     "better": m["better"], "parent_median": base, "change_median": new,
                     "worsening": worse, "bound": m["bound"], "verdict": verdict,
                     "parent_values": values["parent"], "change_values": values["change"]})

git = lambda *a: subprocess.run(["git", *a], capture_output=True, text=True).stdout.strip()
worst = max(rows, key=lambda r: r["worsening"] / r["bound"], default=None)
failed = problems or any(r["verdict"] != "ok" for r in rows)
doc = {"parent": parent_rev, "change": git("rev-parse", "HEAD"),
       "change_dirty": bool(git("status", "--porcelain")), "pairs": pairs,
       "seconds": seconds, "seeds": list(range(1, pairs + 1)), "pass": not failed,
       "problems": problems, "rows": rows}
with open(f"{out}/compare.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
for p in problems:
    print(f"problem: {p}")
if worst:
    print(f"worst: {worst['workload']} {worst['metric']} at "
          f"{worst['worsening'] / worst['bound']:+.0%} of its bound")
print(f"{'FAIL' if failed else 'pass'}: {out}/compare.json")
sys.exit(1 if failed else 0)
EOF
exit "$status"
