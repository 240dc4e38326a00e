#!/usr/bin/env bash
# Repo verification gate: build, tests, formatting, lints.
#
#   scripts/verify.sh            # build + workspace tests + fmt + clippy + knob count + unsafe census + KvClient census
#   scripts/verify.sh --clippy   # fast path: fmt + clippy only, no build/tests
#   scripts/verify.sh --threads  # additionally stress the concurrency tests
#   scripts/verify.sh --soak     # shaped-cluster suites, N random seeds
#
# Tier-1 (must stay green, see ROADMAP.md) is the release build + the
# root-package tests; the gate runs the whole workspace's tests, a
# superset, so a red crate-level test cannot hide behind a green tier-1.
# fmt/clippy keep the tree warning-free; clippy runs with -D warnings so
# new lints fail the gate instead of scrolling by.
#
# --threads repeats the fan-out/job-queue suites with a high test-thread
# count so the pool's submit window, the write drain, and the prefetcher
# race against each other — the schedule-dependent bugs (lost wakeups,
# in-flight gauges that never settle, out-of-order reassembly) that a
# single quiet run can miss. The metadata protocol rides along: two
# mounts racing `create` of the same 200 names (one winner each), the
# refused-create undo, the request-count pins of create / mkdir / close /
# unlink and of open + read (open is one step, stripe 0 beside the size
# record), and the rules for when that stripe is dropped (unclosed file,
# wrong length, its server down, a rewritten file reopened from a second
# mount). The shaped proxy's own byte count rides along. It also runs
# the (otherwise `--ignored`) shaped-cluster scaling regression: 8
# bandwidth-capped servers must deliver >= 1.5x the 4-server aggregate
# batched throughput, plus the
# thread-census binaries (client side: one reactor loop per mount,
# including a live 4 -> 6 grow; server side: exactly 1 epoll loop + 1
# maintenance thread per server, regardless of connection count) with
# the server loop's own suite (bounded turn, backpressure, sweeper,
# verdict ordering) and the connection's (receive buffer, send queue,
# both parsers through one buffer), the tail-ACK census (large GET responses are ACKed
# without the kernel's delayed-ACK timer) and the stall/kill isolation
# suites, plus the self-healing repair and elastic-membership suites:
# mover units, the
# membership property tests, the 8-server kill/heal/second-kill soak,
# and the grow-mid-workload kill-during-migration chaos cycle. The
# store-engine suites ride along: the lock-discipline census (reads
# take read locks, eviction write-locks one shard per victim) and the
# reader/writer/sweeper stress oracle with eviction and TTL active.
#
# --soak loops the shaped-cluster transport suites (failure injection,
# shaped e2e, scaling, the repair kill/heal and grow/kill chaos
# cycles) plus the seeded store stress oracle, with a randomized
# MEMFS_SHAPE_SEED per iteration
# (SOAK_ITERS, default 5). Each iteration prints its seed; export
# MEMFS_SHAPE_SEED to replay a failure deterministically.
set -euo pipefail
cd "$(dirname "$0")/.."

# Fast path: lints across every target (lib, tests, benches, bins)
# without paying for the release build or the test run. Keeps the
# edit-lint loop tight; the default gate still runs everything.
if [[ "${1:-}" == "--clippy" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "verify: OK (clippy fast path)"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (superset of tier-1)"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The knob count can only go down (ROADMAP aim 2: the same behaviour from
# the simplest design). Lower KNOBS_MAX in the PR that deletes a knob.
KNOBS_MAX=24
knobs=$(scripts/loc.sh --knobs | awk '$2 == "total" { print $1 }')
echo "==> scripts/loc.sh --knobs: $knobs (max $KNOBS_MAX)"
if ((knobs > KNOBS_MAX)); then
    echo "verify: $knobs config knobs, $KNOBS_MAX recorded — ROADMAP aim 2: a PR may" \
        "delete a knob, not add one (scripts/loc.sh --knobs lists them)" >&2
    exit 1
fi

# `unsafe` in the transport crate has three homes: the connection's raw
# read and the socket calls std lacks (conn.rs), epoll and the eventfd
# (poll.rs), and the one `mallopt` call (reactor.rs). Another file that
# needs it should get its call into conn.rs instead.
stray=$(grep -lw unsafe crates/memkv/src/*.rs | grep -vE '/(conn|poll|reactor)\.rs$' || true)
mallopt_only=$(grep -cw unsafe crates/memkv/src/reactor.rs || true)
echo "==> unsafe census of crates/memkv/src: ${stray:-none} outside conn.rs, poll.rs, reactor.rs"
if [[ -n "$stray" ]] || ((mallopt_only > 1)); then
    echo "verify: \`unsafe\` outside conn.rs / poll.rs, or more than the one" \
        "mallopt block in reactor.rs ($mallopt_only)" >&2
    exit 1
fi

# One request path from the pool to the wire: `KvClient::start` is the
# only data method an implementation writes. The blocking calls provided
# over it have to stay on the trait (callers spell them), so what keeps a
# second tier from growing back is this: no `start_*_many`, and no `impl
# KvClient for` that defines anything but `start` and the side methods.
trees="crates src tests examples"
# shellcheck disable=SC2086
tier=$(grep -rnE 'start_(get|store|delete|get_range)_many' $trees || true)
# shellcheck disable=SC2086
overrides=$(find $trees -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { inside = 0 }
    !inside && /^[[:space:]]*impl.* KvClient for / { inside = 1; depth = 0 }
    inside && !/^[[:space:]]*\/\// {
        if (depth == 1 && match($0, /fn [a-z_0-9]+/)) {
            name = substr($0, RSTART + 3, RLENGTH - 3)
            if (name !~ /^(start|scan_keys|health|reactor_stats)$/)
                print FILENAME ":" FNR ": fn " name
        }
        opened = gsub(/\{/, "{"); closed = gsub(/\}/, "}")
        depth += opened - closed
        if (depth == 0 && closed > 0) inside = 0
    }')
echo "==> KvClient census: ${tier:-no start_*_many}; ${overrides:-no provided method overridden}"
if [[ -n "$tier$overrides" ]]; then
    echo "verify: a KvClient implements \`start\` (+ scan_keys / health / reactor_stats)" \
        "and nothing else — write the new behaviour inside \`start\`" >&2
    exit 1
fi

for arg in "$@"; do
    case "$arg" in
    --threads)
        echo "==> stressed concurrency pass (RUST_TEST_THREADS=16, 5 rounds)"
        for round in 1 2 3 4 5; do
            echo "  -- round $round"
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --test fanout
            # engine_sharing counts process-wide threads: own binary, one test.
            cargo test -q -p memfs-core --test engine_sharing
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                threadpool:: pool:: prefetch:: bufwrite::
            # The read policy (which spans are cached, ranged or cache
            # copies) is asserted on exact request counts while window
            # jobs land concurrently; the ranged TCP tests pair pipelined
            # `getrange` replies by position.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                random_sub_stripe_reads_move_only_their_ranges \
                cache_hits_by_random_reads_do_not_feed_the_prefetcher \
                sequential_sub_stripe_reads_from_byte_zero_stay_on_the_cached_path \
                sequential_reads_from_mid_file_lock_in_after_one_ranged_read \
                two_streams_on_one_reader_both_lock_in \
                without_a_cache_every_sub_stripe_read_is_ranged
            RUST_TEST_THREADS=16 cargo test -q -p memfs-memkv --lib -- tcp_getrange
            # Error-injection regressions: prefetch wedge recovery,
            # concurrent-miss coalescing, zombie unlink, and the chunked
            # unlink's batch / probe boundaries and server-down contract.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                prefetch_recovers_after_transient_errors \
                concurrent_misses_coalesce_into_one_fetch \
                cache_never_exceeds_capacity_under_random_ops \
                unlink_open_file \
                unlink_frees_a_file_one_stripe_past_the_batch \
                unlink_frees_zombies_at_the_probe_boundaries \
                deep_unlink_with_a_server_down_keeps_the_size_record
            # The metadata protocol: the two-mount create race, the
            # refused create that leaves nothing behind, the request
            # counts and overlap of the hot paths (`pinned_*`), the
            # existence checks that do not move a directory log, and when
            # the stripe `open` fetches beside the record is dropped.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                two_mounts_racing_create \
                refused_create_leaves_nothing_behind \
                create_with_the_probes_server_down \
                create_in_a_migrating_range \
                pinned_ \
                existence_checks_do_not_move_the_directory_log \
                open_of_an_unclosed_file_is_not_finalized \
                a_first_stripe_that_does_not_fit_the_record \
                open_succeeds_with_the_first_stripes_server_down \
                no_first_stripe_crosses_handles_or_incarnations
            # The shaped proxy counts a burst before forwarding it, so a
            # reply the client holds is already on the books.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-memkv --lib -- \
                testutil::tests::shaped_proxy_forwards_and_throttles
            # reactor_threads / server_threads count process-wide threads
            # by name: own binaries, one test each, no parallel siblings.
            cargo test -q --test reactor_threads
            cargo test -q --test server_threads
            # The server loop itself: one connection's turn is bounded,
            # backpressure bounds queued output (and a paused connection
            # with nothing left to send is resumed), the sweeper runs
            # with no traffic, verdicts queue behind earlier replies.
            # And the connection under both loops: the receive buffer's
            # capacity rules, a send queue resumed across partial writes,
            # every frame of both directions through one buffer.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-memkv --lib -- server:: conn::
            # tail_ack reads the namespace-wide TcpExt DelayedACKs
            # counter: own binary, one test, nothing else talking TCP.
            cargo test -q --test tail_ack
            RUST_TEST_THREADS=16 cargo test -q --test shared_reactor
            # Self-healing + elastic membership: repair planner/daemon
            # and mover units, heartbeat census, kill/heal and
            # grow/kill-during-migration chaos cycles, placement props.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                repair:: mover::
            cargo test -q --test repair
            cargo test -q --test fault_tolerance
            RUST_TEST_THREADS=16 cargo test -q --test props -- membership
            # Store engine: lock-discipline census (process-global audit
            # counters: own binary, one test) and the reader/writer/
            # sweeper stress oracle with eviction + TTL active.
            cargo test -q --test store_locks
            cargo test -q --release --test store_stress
        done
        echo "==> shaped-cluster scaling regression (8 vs 4 servers)"
        cargo test -q --release --test shaped_scaling -- --ignored --nocapture
        echo "==> shaped repair + elastic chaos suites (8 servers)"
        cargo test -q --release --test repair -- --nocapture
        ;;
    --soak)
        iters="${SOAK_ITERS:-5}"
        echo "==> shaped-cluster soak ($iters iterations, randomized seeds)"
        for i in $(seq 1 "$iters"); do
            seed="${MEMFS_SHAPE_SEED:-$(od -An -N8 -tu8 /dev/urandom | tr -d ' ')}"
            echo "  -- iteration $i (MEMFS_SHAPE_SEED=$seed)"
            MEMFS_SHAPE_SEED="$seed" cargo test -q -p memfs-memkv --test tcp_failures
            MEMFS_SHAPE_SEED="$seed" cargo test -q --test tcp_e2e
            MEMFS_SHAPE_SEED="$seed" cargo test -q --test shared_reactor
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test shaped_scaling -- --ignored
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test repair
            MEMFS_SHAPE_SEED="$seed" cargo test -q --release --test store_stress
        done
        ;;
    *)
        echo "unknown option: $arg" >&2
        exit 2
        ;;
    esac
done

echo "verify: OK"
