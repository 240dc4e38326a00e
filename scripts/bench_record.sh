#!/usr/bin/env bash
# Record the perf-acceptance benches to BENCH_pr*.json.
#
#   scripts/bench_record.sh
#
# BENCH_pr3–5.json are history: their bins (`fanout_record`,
# `scaling_record`, `reactor_record`) are gone because each bar is pinned
# by a test the gate runs — parallel per-server batches by the rendezvous
# proofs in `crates/core/tests/fanout.rs`, 8-vs-4 >= 1.5x by
# `tests/shaped_scaling.rs`, the 16 -> 1 reactor-thread census by
# `tests/reactor_threads.rs`, batching factor >= 1 by
# `tests/shared_reactor.rs`.
#
# BENCH_pr6.json — `linerate_record`: line-rate efficiency of the
# finished reactor (timer wheel, in-loop connects, one-copy writes) at
# 16 bandwidth-capped servers on the mount's one reactor thread. Bars:
# >= 90% of the aggregate shaped cap moves in both directions, and the
# thread census reads exactly 1 loop.
#
# BENCH_pr7.json — `manymount_record`: fan-in scalability of the evented
# server engine. 4 shaped servers mounted by 4 vs 64 concurrent mounts
# (256 connections). Bars: the 64-mount aggregate >= 90% of the 4-mount
# aggregate, and the server census reads exactly 4 loops + 4
# maintenance threads with zero per-connection threads.
#
# BENCH_pr8.json — `repair_record`: self-healing repair on an 8-server
# shaped cluster with one server killed. Bars: foreground read
# throughput during budget-throttled repair >= 80% of the no-repair
# degraded baseline, repair converges (every key restored to its full
# home set on the survivors), and the migration rate respects its
# token-bucket budget.
#
# BENCH_pr9.json — `rebalance_record`: elastic membership on an
# 8-server shaped cluster. Four servers are mounted, then the other
# four are admitted mid-benchmark with a budget-throttled migration.
# Bars: zero failed foreground ops across the grow, foreground
# throughput during migration >= 80% of the 4-server baseline,
# post-migration throughput >= 90% of a fresh 8-server mount, and the
# migration rate respects its token-bucket budget.
#
# BENCH_pr10.json — `store_record`: the read-mostly store engine.
# Contended multi-get over a 4-shard hot set at 8 workers (keys/s,
# reported only — the write-locked read path it was 2.1x of is deleted;
# that ratio is in the file's git history), plus an over-budget shaped
# soak with the background sweeper active. Bars: soak RSS <= 1.2x of
# `memory_budget`, foreground p99 >= 70% of the un-evicting baseline,
# and evictions and TTL reaps both nonzero.
#
# Each binary exits non-zero if a bar is missed, failing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_pr6.json"
echo "==> cargo run --release -p memfs-bench --bin linerate_record"
cargo run --release -p memfs-bench --bin linerate_record > "$out"
echo "==> wrote $out"
grep -o '"acceptance": .*' "$out"

out="BENCH_pr7.json"
echo "==> cargo run --release -p memfs-bench --bin manymount_record"
cargo run --release -p memfs-bench --bin manymount_record > "$out"
echo "==> wrote $out"
grep -o '"acceptance": .*' "$out"

out="BENCH_pr8.json"
echo "==> cargo run --release -p memfs-bench --bin repair_record"
cargo run --release -p memfs-bench --bin repair_record > "$out"
echo "==> wrote $out"
grep -o '"acceptance": .*' "$out"

out="BENCH_pr9.json"
echo "==> cargo run --release -p memfs-bench --bin rebalance_record"
cargo run --release -p memfs-bench --bin rebalance_record > "$out"
echo "==> wrote $out"
grep -o '"acceptance": .*' "$out"

out="BENCH_pr10.json"
echo "==> cargo run --release -p memfs-bench --bin store_record"
cargo run --release -p memfs-bench --bin store_record > "$out"
echo "==> wrote $out"
grep -o '"acceptance": .*' "$out"
