//! Record elastic-membership rebalance acceptance to JSON
//! (`BENCH_pr9.json`).
//!
//! An 8-server real-TCP shaped cluster (6 MiB/s per server); the first
//! four are mounted as a ketama pool with r=2 replication and seeded
//! with a balanced dataset. The bench then measures:
//!
//! * the **4-server baseline** — foreground batched read throughput
//!   plus a write trickle before any membership change;
//! * the **migration window** — the remaining four servers are admitted
//!   mid-benchmark and a background thread drives budget-throttled
//!   [`memfs_core::repair_pass`] loops until the grow commits, while
//!   the same foreground workload keeps running and every op is
//!   counted: **zero may fail**;
//! * **post-migration throughput** on the grown pool, compared against
//!   a **fresh 8-server mount** of the same cluster (placement after a
//!   completed migration equals a fresh ring's, so the ratio isolates
//!   any leftover routing overhead).
//!
//! Acceptance bars: zero failed foreground ops across the grow,
//! foreground throughput during migration ≥ 80% of the 4-server
//! baseline, post-migration throughput ≥ 90% of the fresh 8-server
//! mount, and the migration rate respects its token-bucket budget
//! (≤ 1.5x, allowing the bucket's one-second burst allowance).
//!
//! Usage: `cargo run --release -p memfs-bench --bin rebalance_record`
//! (JSON to stdout; `scripts/bench_record.sh` writes `BENCH_pr9.json`
//! and enforces the bars).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_core::{repair_pass, DistributorKind, RepairConfig, ServerPool};
use memfs_memkv::net::PoolConfig;
use memfs_memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};
use memfs_memkv::{KvClient, ReactorHandle};

const SERVERS: usize = 8;
const INITIAL: usize = 4;
const SERVER_BPS: u64 = 6 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const VALUES_PER_SERVER: usize = 24;
const REPLICATION: usize = 2;
const KETAMA_POINTS: usize = 64;
/// Migration budget: slow enough that the grow overlaps several
/// foreground rounds, fast enough to keep the bench short.
const MIGRATE_BUDGET_BPS: u64 = 1 << 20;
const BASELINE_ROUNDS: usize = 6;
const POST_ROUNDS: usize = 6;
const MIGRATE_DEADLINE: Duration = Duration::from_secs(120);

/// Keys balanced across the initial members' primaries so every shaped
/// server carries an equal share of the baseline load.
fn balanced_items(pool: &ServerPool, rng: &mut Rng) -> Vec<(Bytes, Bytes)> {
    let n = pool.n_servers();
    let mut remaining: Vec<usize> = vec![VALUES_PER_SERVER; n];
    let mut left = n * VALUES_PER_SERVER;
    let mut items = Vec::with_capacity(left);
    let value = Bytes::from(vec![0xE1u8; VALUE_BYTES]);
    while left > 0 {
        let key = Bytes::from(format!("s:/f{:016x}#0", rng.next_u64()));
        let server = pool.server_for(&key).0;
        if remaining[server] > 0 {
            remaining[server] -= 1;
            left -= 1;
            items.push((key, value.clone()));
        }
    }
    items
}

/// One foreground round: a full-dataset batched read plus a small write
/// trickle. Returns (bytes moved, failed ops).
fn mixed_round(pool: &ServerPool, keys: &[Bytes], value: &Bytes, round: usize) -> (u64, u64) {
    let mut bytes = 0u64;
    let mut failed = 0u64;
    for r in pool.get_many(keys) {
        match r {
            Ok(v) => bytes += v.len() as u64,
            Err(_) => failed += 1,
        }
    }
    // Overwrite a rotating slice: proves writes route (and dual-route)
    // cleanly through the grow.
    let start = (round * 8) % keys.len();
    for key in keys.iter().cycle().skip(start).take(8) {
        match pool.set(key, value.clone()) {
            Ok(()) => bytes += value.len() as u64,
            Err(_) => failed += 1,
        }
    }
    (bytes, failed)
}

fn main() {
    let seed = seed_from_env();
    eprintln!("rebalance_record seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let cluster = ShapedCluster::spawn(SERVERS, Shape::throttled(SERVER_BPS));
    let reactor = ReactorHandle::new().expect("reactor");
    let clients: Vec<Arc<dyn KvClient>> = cluster.clients_on(PoolConfig::default(), &reactor);
    let ketama = DistributorKind::Ketama {
        points_per_server: KETAMA_POINTS,
    };
    let pool = Arc::new(ServerPool::with_replication(
        clients[..INITIAL].to_vec(),
        ketama,
        REPLICATION,
    ));
    let items = balanced_items(&pool, &mut rng);
    let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
    let value = Bytes::from(vec![0xE2u8; VALUE_BYTES]);
    pool.set_many(&items).expect("seed dataset");
    let dataset_bytes = (items.len() * VALUE_BYTES) as u64;
    eprintln!(
        "dataset {} MiB x r={REPLICATION} over {INITIAL} servers",
        dataset_bytes >> 20
    );

    // 4-server baseline.
    let start = Instant::now();
    let mut moved = 0u64;
    let mut failed_ops = 0u64;
    for round in 0..BASELINE_ROUNDS {
        let (b, f) = mixed_round(&pool, &keys, &value, round);
        moved += b;
        failed_ops += f;
    }
    let baseline_bps = moved as f64 / start.elapsed().as_secs_f64();
    eprintln!("baseline (4 servers): {:.1} MB/s", baseline_bps / 1e6);

    // Grow 4 → 8 mid-benchmark; a background thread drives the
    // budget-throttled migration to completion.
    pool.begin_add_servers(clients[INITIAL..].to_vec())
        .expect("admit four servers");
    let done = Arc::new(AtomicBool::new(false));
    let migrate_pool = Arc::clone(&pool);
    let migrate_done = Arc::clone(&done);
    let migrate_thread = std::thread::spawn(move || {
        let config = RepairConfig {
            bandwidth: MIGRATE_BUDGET_BPS,
        };
        let start = Instant::now();
        let mut migrated = 0u64;
        let mut moved_keys = 0usize;
        let mut scanned = 0usize;
        let mut passes = 0u32;
        let converged = loop {
            let report = repair_pass(&migrate_pool, &config).expect("migration pass");
            migrated += report.copied_bytes;
            moved_keys += report.under_replicated;
            scanned = scanned.max(report.scanned_keys);
            passes += 1;
            if report.complete {
                break true;
            }
            if start.elapsed() > MIGRATE_DEADLINE {
                break false;
            }
        };
        migrate_done.store(true, Ordering::SeqCst);
        (
            start.elapsed(),
            migrated,
            moved_keys,
            scanned,
            passes,
            converged,
        )
    });

    // Foreground workload racing the migration; keep going until the
    // grow finishes so the window is fully covered.
    let start = Instant::now();
    let mut moved = 0u64;
    let mut rounds = 0usize;
    while !done.load(Ordering::SeqCst) || rounds < 2 {
        let (b, f) = mixed_round(&pool, &keys, &value, rounds);
        moved += b;
        failed_ops += f;
        rounds += 1;
    }
    let during_bps = moved as f64 / start.elapsed().as_secs_f64();
    let (window, migrated, moved_keys, scanned_keys, passes, converged) =
        migrate_thread.join().expect("migration thread");
    eprintln!(
        "during migration: {:.1} MB/s over {rounds} rounds; window {:.2}s, {} KiB in {passes} passes ({moved_keys}/{scanned_keys} keys moved)",
        during_bps / 1e6,
        window.as_secs_f64(),
        migrated >> 10,
    );

    // Post-migration throughput on the grown pool.
    let start = Instant::now();
    let mut moved = 0u64;
    for round in 0..POST_ROUNDS {
        let (b, f) = mixed_round(&pool, &keys, &value, round);
        moved += b;
        failed_ops += f;
    }
    let post_bps = moved as f64 / start.elapsed().as_secs_f64();

    // Fresh 8-server mount of the same cluster: migration left placement
    // equal to a fresh ring's, so this isolates routing overhead.
    let fresh = ServerPool::with_replication(clients.clone(), ketama, REPLICATION);
    let start = Instant::now();
    let mut moved = 0u64;
    for round in 0..POST_ROUNDS {
        let (b, f) = mixed_round(&fresh, &keys, &value, round);
        moved += b;
        failed_ops += f;
    }
    let fresh_bps = moved as f64 / start.elapsed().as_secs_f64();
    eprintln!(
        "post-migration: {:.1} MB/s vs fresh 8-server mount {:.1} MB/s",
        post_bps / 1e6,
        fresh_bps / 1e6
    );

    let during_ratio = during_bps / baseline_bps;
    let post_ratio = post_bps / fresh_bps;
    let effective_bps = migrated as f64 / window.as_secs_f64();
    // The debt bucket may overdraw by its one-second burst allowance.
    let budget_ok = effective_bps <= MIGRATE_BUDGET_BPS as f64 * 1.5;
    let zero_failed = failed_ops == 0;
    let during_ok = during_ratio >= 0.8;
    let post_ok = post_ratio >= 0.9;
    let pass = zero_failed && during_ok && post_ok && converged && budget_ok;
    eprintln!(
        "during ratio {during_ratio:.2} (bar 0.80), post ratio {post_ratio:.2} (bar 0.90), {failed_ops} failed ops, migration {:.2} MiB/s vs {:.2} MiB/s budget",
        effective_bps / (1 << 20) as f64,
        MIGRATE_BUDGET_BPS as f64 / (1 << 20) as f64,
    );
    println!(
        "{{\n  \"bench\": \"elastic_rebalance\",\n  \
         \"shaping\": {{\"servers\": {SERVERS}, \"initial_servers\": {INITIAL}, \"server_bandwidth_bps\": {SERVER_BPS}, \"transport\": \"tcp+shaped-proxy\"}},\n  \
         \"payload\": {{\"value_bytes\": {VALUE_BYTES}, \"values_per_server\": {VALUES_PER_SERVER}, \"replication\": {REPLICATION}, \"ketama_points\": {KETAMA_POINTS}}},\n  \
         \"seed\": {seed},\n  \
         \"migration\": {{\"budget_bps\": {MIGRATE_BUDGET_BPS}, \"window_secs\": {:.3}, \
         \"migrated_bytes\": {migrated}, \"effective_bps\": {effective_bps:.0}, \
         \"moved_keys\": {moved_keys}, \"scanned_keys\": {scanned_keys}, \
         \"passes\": {passes}, \"converged\": {converged}}},\n  \
         \"foreground\": {{\"baseline_bps\": {baseline_bps:.0}, \"during_migration_bps\": {during_bps:.0}, \
         \"post_migration_bps\": {post_bps:.0}, \"fresh_eight_bps\": {fresh_bps:.0}, \
         \"failed_ops\": {failed_ops}}},\n  \
         \"acceptance\": {{\"metric\": \"grow 4->8 mid-benchmark: zero failed ops, foreground >= 80% of baseline during migration, post-migration >= 90% of a fresh 8-server mount\", \
         \"zero_failed_ops\": {zero_failed}, \"during_ratio\": {during_ratio:.3}, \"during_bar\": 0.8, \
         \"post_ratio\": {post_ratio:.3}, \"post_bar\": 0.9, \"converged\": {converged}, \
         \"budget_respected\": {budget_ok}, \"pass\": {pass}}}\n}}",
        window.as_secs_f64(),
    );
    if !zero_failed {
        eprintln!("FAIL: {failed_ops} foreground ops failed during the grow");
    }
    if !during_ok {
        eprintln!(
            "FAIL: foreground throughput during migration {during_ratio:.2} < 0.80 of baseline"
        );
    }
    if !post_ok {
        eprintln!(
            "FAIL: post-migration throughput {post_ratio:.2} < 0.90 of a fresh 8-server mount"
        );
    }
    if !converged {
        eprintln!("FAIL: migration did not converge within {MIGRATE_DEADLINE:?}");
    }
    if !budget_ok {
        eprintln!("FAIL: migration rate exceeded its bandwidth budget");
    }
    if !pass {
        std::process::exit(1);
    }
}
