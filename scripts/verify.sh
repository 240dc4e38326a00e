#!/usr/bin/env bash
# Repo verification gate: build, tests, formatting, lints.
#
#   scripts/verify.sh            # build + workspace tests + fmt + clippy + knob count + options census + unsafe census + KvClient census + I/O pool census + connection census + timer census + pass census + phase census + replica census + substrate census + shaper census + harness census + measurement census + repro golden
#   scripts/verify.sh --clippy   # fast path: fmt + clippy only, no build/tests
#   scripts/verify.sh --threads  # additionally stress the concurrency tests
#   scripts/verify.sh --soak     # shaped-cluster suites, N random seeds
#
# Tier-1 (must stay green, see ROADMAP.md) is the release build + the
# root-package tests; the gate runs the whole workspace's tests, a
# superset, so a red crate-level test cannot hide behind a green tier-1.
# fmt/clippy keep the tree warning-free; clippy runs with -D warnings so
# new lints fail the gate instead of scrolling by. The repro golden step
# reruns every paper artifact (fig3a/fig3b time the real engine on a
# virtual clock, so they are as reproducible as the simulated ones) and
# diffs each section against repro_output.txt: a change that moves a
# figure has to regenerate that file and say why.
#
# --threads repeats the fan-out/pending-window suites with a high
# test-thread count so the pool's windows, the pending write drains and
# the prefetcher's pending shares race against each other — the
# schedule-dependent bugs (a gate never released, in-flight gauges that
# never settle, out-of-order reassembly) that a single quiet run can miss. The metadata protocol rides along: two
# mounts racing `create` of the same 200 names (one winner each), the
# refused-create undo, the request-count pins of create / mkdir / close /
# unlink and of open + read (open is one step, stripe 0 beside the size
# record; a sub-stripe file is closed inline in its record with one
# `set` and unlinked in two steps, a one-stripe file keeps its stripe
# and three), and the rules for when that stripe is dropped (unclosed file,
# wrong length, its server down, a rewritten file reopened from a second
# mount). Files either side of one stripe read back bit-exact (every
# writer, prefetch on and off, a replica down at close then repaired),
# and a reader racing another mount's closes sees no file or all of it. It
# also runs the (otherwise `--ignored`) shaped-cluster scaling regressions:
# 8 bandwidth-capped servers must deliver >= 1.5x the 4-server aggregate
# batched throughput; one mount over 16 servers capped at 6 MiB/s must
# move >= 90% of their aggregate cap both ways (line rate); 64 mounts on
# 4 servers capped at 24 MiB/s must move >= 90% of the 4-mount aggregate
# (fan-in). Then the
# thread-census binaries (client side: one reactor loop per mount,
# including a live 4 -> 6 grow; server side: exactly 1 epoll loop per
# server and no other thread, regardless of connection count) with
# the server loop's own suite (bounded turn, backpressure, exptime
# refusal, verdict ordering) and the connection's (receive buffer, send queue,
# both parsers through one buffer), the tail-ACK census (large GET responses are ACKed
# without the kernel's delayed-ACK timer) and the stall/kill isolation
# suites with the two-caller test (a caller waiting on a stalled server
# runs the shared loop; another caller's answers must still reach it at
# once), plus the self-healing repair and elastic-membership suites:
# the repair pass's units, the
# membership property tests, the 8-server kill/heal/second-kill soak,
# and the grow-mid-workload kill-during-migration chaos cycle. The
# store-engine suites ride along: the lock-discipline census (reads
# take one read lock, mutations one write lock) and the reader/writer
# stress oracle against a budget that refuses writes.
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
KNOBS_MAX=10
knobs=$(scripts/loc.sh --knobs | awk '$2 == "total" { print $1 }')
echo "==> scripts/loc.sh --knobs: $knobs (max $KNOBS_MAX)"
if ((knobs > KNOBS_MAX)); then
    echo "verify: $knobs config knobs, $KNOBS_MAX recorded — ROADMAP aim 2: a PR may" \
        "delete a knob, not add one (scripts/loc.sh --knobs lists them)" >&2
    exit 1
fi

# A setting exists only where a caller sets it. A server takes an address
# and a store (`KvServer::spawn`): its connection cap is a constant, it
# reaps no idle connection (TCP keepalive finds a dead peer), and a down
# member leaves the ring only when asked (`remove_server`), never on a
# grace timer. Liveness is what a request finds: no client keeps a health
# view, nothing probes a quiet connection, and a link inside its reconnect
# backoff fails a submit at once instead of parking it behind a timer. A
# repair pass copies unpaced, as every mount runs it: no copy budget, and
# no bench binary or script measuring a configuration no mount runs.
trees="crates src tests examples"
# shellcheck disable=SC2086
options=$(
    grep -rnwE 'ServerConfig|idle_timeout|idle_closed|MembershipMonitor|evict_grace' $trees
    grep -rnF 'KvServer::spawn_with' $trees
    grep -rnwE 'ServerHealth|ConnectRetry' $trees
    grep -rnE 'fn health\b|PoolConfig::heartbeat|\bheartbeat:|TimerKind::Heartbeat' $trees
    grep -rnwE 'RepairConfig|TokenBucket|throttle_waits|bench_record' $trees scripts |
        grep -v '^scripts/verify\.sh:'
    find $trees scripts -name '*_record.rs'
) || true
echo "==> options census: ${options:-no server config, idle reaper, grace evictor, health view, heartbeat, repair budget or record bin}"
if [[ -n "$options" ]]; then
    echo "verify: make it a constant or delete it — a value nothing but its own" \
        "tests sets is not an option, and liveness is what a request finds" >&2
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
# shellcheck disable=SC2086
tier=$(grep -rnE 'start_(get|store|delete|get_range)_many' $trees || true)
# shellcheck disable=SC2086
overrides=$(find $trees -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { inside = 0 }
    !inside && /^[[:space:]]*impl.* KvClient for / { inside = 1; depth = 0 }
    inside && !/^[[:space:]]*\/\// {
        if (depth == 1 && match($0, /fn [a-z_0-9]+/)) {
            name = substr($0, RSTART + 3, RLENGTH - 3)
            if (name !~ /^(start|scan_keys|reactor_stats)$/)
                print FILENAME ":" FNR ": fn " name
        }
        opened = gsub(/\{/, "{"); closed = gsub(/\}/, "}")
        depth += opened - closed
        if (depth == 0 && closed > 0) inside = 0
    }')
echo "==> KvClient census: ${tier:-no start_*_many}; ${overrides:-no provided method overridden}"
if [[ -n "$tier$overrides" ]]; then
    echo "verify: a KvClient implements \`start\` (+ scan_keys / reactor_stats)" \
        "and nothing else — write the new behaviour inside \`start\`" >&2
    exit 1
fi

# The reactor is a mount's only concurrency: no I/O thread pool, and no
# knob sizing one or capping a window. `crates/mtc/src/envelope.rs` is
# exempt — its `io_threads` models the paper's pool in the simulator.
# shellcheck disable=SC2086
pools=$(grep -rnE 'IoEngine|threadpool|io_threads|io_parallelism|with_options' $trees |
    grep -v '^crates/mtc/src/envelope\.rs:' || true)
echo "==> I/O pool census: ${pools:-no I/O pool, no pool knob}"
if [[ -n "$pools" ]]; then
    echo "verify: windows and drains stay pending in their handles; a mount runs" \
        "no I/O thread of its own (DESIGN.md §4c)" >&2
    exit 1
fi

# A `TcpClient` is one pipelined connection per server, as Libmemcached
# keeps one socket per server (DESIGN.md §4b): no connection count, no
# per-call key-chunk knob, no census over several links and no health
# between up and down.
# shellcheck disable=SC2086
census=$(
    grep -rnE 'pool_size|max_batch_keys|health_census|ServerHealth::Degraded' $trees
    find $trees -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { inside = 0 }
        /PoolConfig \{/ { inside = 1; depth = 0 }
        inside {
            if ($0 ~ /^[[:space:]]*(pub )?connections:/) print FILENAME ":" FNR ": " $0
            opened = gsub(/\{/, "{"); closed = gsub(/\}/, "}")
            depth += opened - closed
            if (depth <= 0 && closed > 0) inside = 0
        }'
) || true
echo "==> connection census: ${census:-one connection per server}"
if [[ -n "$census" ]]; then
    echo "verify: a TcpClient is one pipelined connection per server — no pool" \
        "size, chunk knob or partial-health state" >&2
    exit 1
fi

# The client loop keeps its timers as keys of one `BTreeSet` ordered by
# deadline (the server loop keeps none): no timer wheel, and no counter of
# its internals.
# shellcheck disable=SC2086
wheels=$(grep -rnE 'TimerWheel|TimerId|timer_cascades|mod wheel|wheel::' $trees || true)
echo "==> timer census: ${wheels:-no timer wheel}"
if [[ -n "$wheels" ]]; then
    echo "verify: deadlines are keys of an ordered set in each loop, not a wheel" \
        "(DESIGN.md §4b)" >&2
    exit 1
fi

# Repair and migration are one pass (`repair_pass`, DESIGN.md §4i/§4j):
# no second scan/copy loop, no migration-only config, report or entry
# point.
# shellcheck disable=SC2086
passes=$(grep -rnE 'migrate_pass|try_migrate_pass|MigrateConfig|MigrationReport|migrate_now|CopyMode|mod mover' $trees || true)
echo "==> pass census: ${passes:-one repair pass}"
if [[ -n "$passes" ]]; then
    echo "verify: repair and migration are one pass in repair.rs — extend" \
        "repair_pass instead of adding a second loop" >&2
    exit 1
fi

# A membership transition is one phase (DESIGN.md §4j): while it is
# installed every key dual-routes, and one repair pass commits it. No
# per-key-range phase table, range bucketing or per-pass range pacing.
# shellcheck disable=SC2086
phases=$(grep -rnE 'RangeEpochs|RangePhase|MIGRATION_RANGES|range_of|RANGES_PER_PASS|phase_of_key|mod versioned' $trees || true)
echo "==> phase census: ${phases:-one-phase transitions}"
if [[ -n "$phases" ]]; then
    echo "verify: a transition routes every key the same way until repair_pass" \
        "commits it — no key-range phases" >&2
    exit 1
fi

# Each replica rule has one home (DESIGN.md §2): a key's homes, the
# failover walk and the repair home set come from ring.rs / replica.rs
# only, and every request the pool sends goes through its `start`, so
# `PoolStats` counts it (§4c). Test halves are exempt: they compute the
# placements they expect on their own.
# shellcheck disable=SC2016
replica=$(
    for f in crates/core/src/*.rs; do
        case "$f" in */ring.rs | */replica.rs) continue ;; esac
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
            /replicas_for\(|home_ring\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        !inside && /^[[:space:]]*fn start</ { inside = 1; depth = 0 }
        inside {
            opened = gsub(/\{/, "{"); closed = gsub(/\}/, "}")
            depth += opened - closed
            if (depth == 0 && closed > 0) inside = 0
            next
        }
        /\.(get|set|add|append|delete|get_range)\(/ && !/self\.(get|set|add|append|delete|get_range)\(/ {
            print FILENAME ":" FNR ": " $0
        }' crates/core/src/pool.rs
)
echo "==> replica census: ${replica:-one home per replica rule, every pool request through start}"
if [[ -n "$replica" ]]; then
    echo "verify: route through the rules of replica.rs / ring.rs, and send a" \
        "pool request through ServerPool::start (a window of one is \`call\`)" >&2
    exit 1
fi

# The AMFS baseline is a model in crates/mtc (DESIGN.md §5) and the
# simulations draw no random numbers: no in-process AMFS engine, no `rand`
# shim, no simulator RNG or statistics module. The one seeded RNG is
# `memkv::testutil::Rng`. Nothing serializes a result, so there is no
# `serde` shim either.
# shellcheck disable=SC2086
substrate=$(
    ls -d crates/amfs shims/rand shims/serde shims/serde_derive 2>/dev/null
    grep -rnE 'memfs_amfs|memfs-amfs|SimRng|simcore::stats|rand::|^[[:space:]]*(pub )?use serde|serde::' $trees
    find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*' -print0 |
        xargs -0 grep -nE 'memfs_amfs|memfs-amfs|SimRng|simcore::stats|rand::|(^|[^a-z_-])rand([^a-z_-]|$)|(^|[^a-z_-])serde'
) || true
echo "==> substrate census: ${substrate:-no AMFS engine, no rand, no serde, no SimRng or simcore::stats}"
if [[ -n "$substrate" ]]; then
    echo "verify: AMFS is modelled in mtc::{fsmodel, sched, envelope}; simcore is the" \
        "clock, the event queue, the PS resource and the units; nothing uses serde" >&2
    exit 1
fi

# One in-process client: `SimClient`, a store behind a simulated link on a
# virtual clock — free by default, timed for the real engine's figures —
# which also injects outages (DESIGN.md §4b). No untimed twin, no
# wall-clock shaper, sleeping or spinning, and no second failure wrapper.
# shellcheck disable=SC2086
shapers=$(grep -rnwE 'LocalClient|ThrottledClient|FailableClient|Shaping|precise_sleep' $trees || true)
echo "==> shaper census: ${shapers:-one in-process client (SimClient), no wall-clock shaper}"
if [[ -n "$shapers" ]]; then
    echo "verify: reach an in-process store through SimClient (SimClient::new is" \
        "the free link), time it on its virtual clock, inject outages with set_down" >&2
    exit 1
fi

# Production crates carry production code: the shaped real-TCP harness is
# the dev-only `memfs-testkit` crate, and `memkv::testutil` keeps only the
# seeded `Rng` the benchmark's generators import.
harness=$(grep -rnwE 'ShapedProxy|ShapedCluster|Pacer' crates/memkv/src || true)
echo "==> harness census: ${harness:-no shaped TCP harness in crates/memkv/src}"
if [[ -n "$harness" ]]; then
    echo "verify: test scaffolding goes in crates/testkit (memfs-testkit)," \
        "a dev-dependency, not in the transport crate" >&2
    exit 1
fi

# One measurement system: the benchmark suite (benchmark/) and the repro
# golden below. No Criterion bench target, shim or dependency: a number
# nothing records or asserts is not a measurement.
benches=$(
    ls -d shims/criterion 2>/dev/null
    find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*' -print0 |
        xargs -0 grep -nE '(^|[^a-z_-])criterion([^a-z_-]|$)'
) || true
echo "==> measurement census: ${benches:-no criterion shim or dependency}"
if [[ -n "$benches" ]]; then
    echo "verify: measure through the benchmark suite (a ladder rung or a" \
        "workload row) or the repro golden, not a Criterion bench" >&2
    exit 1
fi

# Every artifact is byte-identical to repro_output.txt, section by section
# (the `==...==` rules are dropped, each `== <name>` header opens a
# section).
echo "==> repro golden (every artifact against repro_output.txt)"
golden=$(mktemp -d)
trap 'rm -rf "$golden"' EXIT
split_sections() { awk -v dir="$1" '/^=+$/ { next } /^== / { name = $2 } name { print > (dir "/" name) }'; }
mkdir "$golden/want" "$golden/got"
split_sections "$golden/want" <repro_output.txt
mapfile -t sections < <(grep -E '^== ' repro_output.txt | awk '{ print $2 }')
# Built first, so the wall time below is the simulators' own speed.
cargo build --release -q -p memfs-bench --bin repro
started=$(date +%s%N)
cargo run --release -q -p memfs-bench --bin repro -- "${sections[@]}" | split_sections "$golden/got"
echo "    repro wall time: $((($(date +%s%N) - started) / 1000000)) ms"
moved=()
for name in "${sections[@]}"; do
    diff -u "$golden/want/$name" "$golden/got/$name" >&2 || moved+=("$name")
done
echo "    ${#sections[@]} sections, ${#moved[@]} moved${moved:+: ${moved[*]}}"
if ((${#moved[@]} > 0)); then
    echo "verify: a figure moved — regenerate repro_output.txt" \
        "(\`repro all\`) only for a change that means to move it, and say why" >&2
    exit 1
fi

for arg in "$@"; do
    case "$arg" in
    --threads)
        echo "==> stressed concurrency pass (RUST_TEST_THREADS=16, 5 rounds)"
        for round in 1 2 3 4 5; do
            echo "  -- round $round"
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --test fanout
            # Pending windows and drains: the gate is held until a window
            # is answered (latch client, loopback timeout and sever), an
            # idle handle never stalls quiesce, a window one reader left
            # serves another, transitions and a dead server mid-window.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                pool:: replica:: prefetch:: bufwrite::
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                idle_handles_holding_answered_windows \
                a_window_pending_across_a_grow \
                a_drain_pending_across_a_grow \
                a_window_share_whose_server_is_down
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
            # existence checks that do not move a directory log, when
            # the stripe `open` fetches beside the record is dropped, the
            # inline/striped boundary matrix and a reader racing closes.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                two_mounts_racing_create \
                files_either_side_of_one_stripe \
                a_reader_racing_a_closing_mount \
                refused_create_leaves_nothing_behind \
                create_with_the_probes_server_down \
                create_during_a_transition \
                pinned_ \
                existence_checks_do_not_move_the_directory_log \
                open_of_an_unclosed_file_is_not_finalized \
                a_first_stripe_that_does_not_fit_the_record \
                open_succeeds_with_the_first_stripes_server_down \
                no_first_stripe_crosses_handles_or_incarnations
            # reactor_threads / server_threads count process-wide threads
            # by name: own binaries, one test each, no parallel siblings.
            cargo test -q --test reactor_threads
            cargo test -q --test server_threads
            # The server loop itself: one connection's turn is bounded,
            # backpressure bounds queued output (and a paused connection
            # with nothing left to send is resumed), a non-zero exptime is
            # refused on an open connection, verdicts queue behind
            # earlier replies.
            # And the connection under both loops: the receive buffer's
            # capacity rules, a send queue resumed across partial writes,
            # every frame of both directions through one buffer.
            # And the client loop's replay / timeout / deregistration
            # rules, with a released slot leaving no timer key behind.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-memkv --lib -- server:: conn:: reactor::
            # Transport failure paths; the connection cap sheds cleanly.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-testkit --test tcp_failures
            # tail_ack reads the namespace-wide TcpExt DelayedACKs
            # counter: own binary, one test, nothing else talking TCP.
            cargo test -q --test tail_ack
            # The shared loop under load: stall/kill isolation, two callers
            # on one loop (one waits on a stalled server while the other's
            # answers must reach it at once), answers delivered on the
            # waiting caller's own thread, and a batch nobody waits on
            # answered by the reactor thread.
            RUST_TEST_THREADS=16 cargo test -q --test shared_reactor
            # Self-healing + elastic membership: the repair pass and
            # daemon units, scan-as-census failure detection (stalled,
            # closed and revived members), kill/heal and
            # grow/kill-during-migration chaos cycles, placement props.
            RUST_TEST_THREADS=16 cargo test -q -p memfs-core --lib -- \
                repair::
            cargo test -q --test repair
            cargo test -q --test fault_tolerance
            RUST_TEST_THREADS=16 cargo test -q --test props -- membership
            # Store engine: lock-discipline census (process-global audit
            # counters: own binary, one test) and the reader/writer
            # stress oracle against a budget that refuses writes.
            cargo test -q --test store_locks
            cargo test -q --release --test store_stress
        done
        echo "==> shaped-cluster scaling regressions (8 vs 4 servers, line rate, fan-in)"
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
            MEMFS_SHAPE_SEED="$seed" cargo test -q -p memfs-testkit --test tcp_failures
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
