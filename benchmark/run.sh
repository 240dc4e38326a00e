#!/usr/bin/env bash
# One command for the MemFS benchmark: builds the repo's release binaries and
# the benchmark package (offline), then hands every argument to the
# benchmark. See benchmark/README.md; `run.sh --help` lists the forms.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# An absolute CARGO_TARGET_DIR keeps the two builds in one place wherever
# cargo is started from; without one each package builds into its own target/.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    root_target="$CARGO_TARGET_DIR"
    bench_target="$CARGO_TARGET_DIR"
else
    root_target="$root/target"
    bench_target="$here/target"
fi

# Build output goes to stderr: stdout carries the result.
(cd "$root" && cargo build --release --offline --bin memfsd) 1>&2
(cd "$here" && cargo build --release --offline) 1>&2

case "${1:-}" in
    compare | manifest | -h | --help)
        exec "$bench_target/release/memfs-benchmark" "$@"
        ;;
esac
exec "$bench_target/release/memfs-benchmark" \
    --memfsd "$root_target/release/memfsd" --out "$here/out" "$@"
