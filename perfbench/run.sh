#!/usr/bin/env bash
# Build the benchmark and the `serve` bin from this checkout's sources,
# then run the benchmark with the given arguments. Run from the root of
# the checkout. Build output goes to stderr; the benchmark's report and
# its final JSON line go to stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p nc-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --serve-bin "$CARGO_TARGET_DIR/release/serve" "$@"
