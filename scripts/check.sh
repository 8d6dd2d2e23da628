#!/usr/bin/env bash
# Local mirror of the CI pipeline: formatting, lints, tier-1 build/tests,
# then the full workspace test suite. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release (tier-1)"
cargo build --release

echo "==> cargo test -q (tier-1)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> statedb fuzz smoke (randomized trie: resident vs cold reopen vs scratch)"
cargo run --release -p mtpu-statedb --example fuzz_smoke

./scripts/bench_smoke.sh

# nodebench/ is a workspace of its own, so the builds above do not cover
# it: build it here, then run both workloads briefly against the
# sequential oracle.
echo "==> node benchmark build + smoke"
cargo build --release --offline --manifest-path nodebench/Cargo.toml
for workload in top8-mix read-under-write; do
  out=$(cargo run --release --quiet --offline --manifest-path nodebench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0)
  echo "$out"
  echo "$out" | tail -n 1 | grep -q '"correct": true' || {
    echo "nodebench $workload: not correct" >&2
    exit 1
  }
done

echo "All checks passed."
