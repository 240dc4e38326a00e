#!/usr/bin/env bash
# Non-test line counts for crates/*/src: per file, the lines above the
# first `#[cfg(test)]` (the whole file when there is none), then per-crate
# and grand totals. "Net-negative LOC is a result; report it" (ROADMAP
# aim 2): run this at the parent commit and at the change.
#
#   scripts/loc.sh [DIR...]      # default: every crates/*/src
#   scripts/loc.sh --knobs       # `pub` fields per config struct (the
#                                # mount, transport, store and repair
#                                # configs): the "options before/after"
#                                # count
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ "${1:-}" == "--knobs" ]]; then
    for s in MemFsConfig PoolConfig StoreConfig RepairConfig; do
        f=$(grep -rl "^pub struct $s {" crates/*/src)
        awk -v s="$s" '$0 == "pub struct " s " {" { on = 1; next } on && /^}/ { exit }
            on && /^    pub [a-z_]+:/ { n++ } END { printf "%6d %s\n", n, s }' "$f"
    done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
    exit 0
fi
[[ $# -gt 0 ]] || set -- crates/*/src
find "$@" -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, f }' "$f"
done | awk '{ print; split($2, p, "/"); crate[p[2]] += $1; total += $1 }
    END { for (c in crate) printf "%6d crates/%s/src (total)\n", crate[c], c | "sort -k2"
          close("sort -k2"); printf "%6d total\n", total }'
