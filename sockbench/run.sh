#!/usr/bin/env bash
# Build payless-server and the benchmark from source, then do one run.
#
#   bash sockbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
# .bench_build); build output goes to stderr, so the last line of stdout is
# the run's JSON result.
set -euo pipefail

target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path Cargo.toml -p payless-server >&2
cargo build --release --offline --quiet --manifest-path sockbench/Cargo.toml >&2
exec "$target/release/payless-sockbench" --server "$target/release/payless-server" "$@"
