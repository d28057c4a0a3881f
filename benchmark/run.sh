#!/usr/bin/env bash
# Benchmark entry point; see benchmark/README.md.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1] [--traced] [--runs N]
#
# Builds the system under test (`mqo`, from the repository's workspace)
# and the benchmark binaries, prepares inputs once per `mqo` build
# (untimed), then runs. The last line of standard output is the result
# of the last workload run, as one JSON object; build output, progress
# and correctness violations go to standard error. Everything is written
# under the cargo target directory ($CARGO_TARGET_DIR, default target/).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "error: run from a checkout of the repository (no Cargo.toml or crates/ here)" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
bin=mqo-benchmark
prev=""
for arg in "$@"; do
    if [[ "$arg" == "--traced" || ("$prev" == "--trace" && "$arg" == "1") ]]; then
        bin=mqo-benchmark-trace
    fi
    prev="$arg"
done

cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path Cargo.toml -p mqo-bench --bin mqo >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml --bin "$bin" >&2

exec "$target/release/$bin" --mqo "$target/release/mqo" --work "$target/benchmark" "$@"
