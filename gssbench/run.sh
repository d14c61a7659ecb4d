#!/usr/bin/env bash
# Builds gss-server and the benchmark harness from source, then runs one workload.
#
#   bash gssbench/run.sh --workload wire_ingest --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Cargo output goes to stderr; the last line of stdout is
# the JSON result. Builds land in $CARGO_TARGET_DIR (default .bench_build) and tenant
# data in .bench_data, which the harness removes when it is done.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p gss-server --bin gss-server 1>&2
cargo build --release --offline --quiet --manifest-path gssbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/gssbench" \
    --server-bin "$CARGO_TARGET_DIR/release/gss-server" --data-dir .bench_data "$@"
