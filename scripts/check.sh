#!/usr/bin/env bash
# The full local gate: formatting, lints, tests. CI and pre-push both run
# exactly this, so "check.sh passes" == "the tree is green".
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> toolchain"
rustc --version
cargo --version
cargo fmt --version
cargo clippy --version

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test --manifest-path benchmark/Cargo.toml

echo "All checks passed."
