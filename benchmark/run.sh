#!/usr/bin/env bash
# Builds the benchmark (and the repository crates it measures) from source,
# then runs it with the given arguments:
#   bash benchmark/run.sh --workload live_small --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR when
# set, else benchmark/target. A failed build exits non-zero and prints no
# result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/camal_benchmark" "$@"
