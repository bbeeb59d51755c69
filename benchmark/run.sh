#!/usr/bin/env bash
# Builds pxbench in release and runs it from the repository root.
#
#   benchmark/run.sh                       all six workloads, end-to-end and per-layer
#   benchmark/run.sh --workload tcp-bulk --seed 1 --seconds 10 --trace 0
#                                          one workload; the last stdout line is the result object
#   benchmark/run.sh --selfcheck           two runs of the same build, then `compare` on them
#   benchmark/run.sh compare A.json B.json one row per (workload, end-to-end metric)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# A relative CARGO_TARGET_DIR (the driver sets one) resolves against the
# repository root, where this script now stands.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
pxbench="$target/release/pxbench"

case "${1:-}" in
--selfcheck)
    shift
    "$pxbench" run --trace 0 --out benchmark/out/selfcheck-a.json "$@"
    "$pxbench" run --trace 0 --out benchmark/out/selfcheck-b.json "$@"
    exec "$pxbench" compare benchmark/out/selfcheck-a.json benchmark/out/selfcheck-b.json
    ;;
compare | describe | surface)
    exec "$pxbench" "$@"
    ;;
*)
    exec "$pxbench" run "$@"
    ;;
esac
