//! Record self-healing repair acceptance to JSON (`BENCH_pr8.json`).
//!
//! An 8-server real-TCP shaped cluster (6 MiB/s per server) mounted with
//! r=2 replication. One server is killed; the bench then measures:
//!
//! * the **no-repair baseline** — foreground batched read throughput in
//!   the degraded state with repair quiet (replica-chain fallback is
//!   paying its cost in both measurements, so the comparison isolates
//!   the repair traffic itself);
//! * the **repair window** — wall time for budget-throttled
//!   [`memfs_core::repair_pass`] loops to restore every key to its full
//!   home set on the survivors, and the bytes they migrated;
//! * **foreground throughput during repair** — the same read workload
//!   racing the copy loop.
//!
//! Acceptance bars: foreground throughput during repair ≥ 80% of the
//! no-repair baseline; repair converges inside the run; the migration
//! rate respects its token-bucket budget (≤ 1.5x, allowing the bucket's
//! one-second burst allowance over a short window).
//!
//! Usage: `cargo run --release -p memfs-bench --bin repair_record`
//! (JSON to stdout; `scripts/bench_record.sh` writes `BENCH_pr8.json`
//! and enforces the bars).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use memfs_core::{repair_pass, DistributorKind, RepairConfig, ServerPool};
use memfs_memkv::net::PoolConfig;
use memfs_memkv::testutil::{seed_from_env, Rng, Shape, ShapedCluster};

const SERVERS: usize = 8;
const SERVER_BPS: u64 = 6 << 20;
const VALUE_BYTES: usize = 64 * 1024;
const VALUES_PER_SERVER: usize = 24;
const REPLICATION: usize = 2;
/// Migration budget: slow enough that repair overlaps several foreground
/// rounds, fast enough to keep the bench short.
const REPAIR_BUDGET_BPS: u64 = 1 << 20;
const BASELINE_ROUNDS: usize = 6;
const REPAIR_DEADLINE: Duration = Duration::from_secs(120);

fn balanced_items(pool: &ServerPool, rng: &mut Rng) -> Vec<(Bytes, Bytes)> {
    let n = pool.n_servers();
    let mut remaining: Vec<usize> = vec![VALUES_PER_SERVER; n];
    let mut left = n * VALUES_PER_SERVER;
    let mut items = Vec::with_capacity(left);
    let value = Bytes::from(vec![0xB7u8; VALUE_BYTES]);
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

/// One full-dataset batched read; returns bytes moved.
fn read_round(pool: &ServerPool, keys: &[Bytes]) -> u64 {
    let mut bytes = 0u64;
    for r in pool.get_many(keys) {
        bytes += r.expect("foreground get_many").len() as u64;
    }
    bytes
}

fn main() {
    let seed = seed_from_env();
    eprintln!("repair_record seed: {seed} (set MEMFS_SHAPE_SEED to reproduce)");
    let mut rng = Rng::new(seed);

    let cluster = ShapedCluster::spawn(SERVERS, Shape::throttled(SERVER_BPS));
    let pool_config = PoolConfig {
        heartbeat: Some(Duration::from_millis(50)),
        ..PoolConfig::default()
    };
    let pool = Arc::new(ServerPool::with_replication(
        cluster.clients(pool_config),
        DistributorKind::default(),
        REPLICATION,
    ));
    let items = balanced_items(&pool, &mut rng);
    let keys: Vec<Bytes> = items.iter().map(|(k, _)| k.clone()).collect();
    pool.set_many(&items).expect("seed dataset");
    let dataset_bytes = (items.len() * VALUE_BYTES) as u64;

    // Fail one server; both throughput measurements run degraded, so the
    // replica-fallback cost cancels out of the comparison.
    let victim = rng.gen_range(0, SERVERS as u64) as usize;
    eprintln!(
        "killing server {victim} (dataset {} MiB x r={REPLICATION})",
        dataset_bytes >> 20
    );
    cluster.proxy(victim).kill();
    // One throwaway round so the link census settles before measuring.
    read_round(&pool, &keys);

    // No-repair baseline.
    let start = Instant::now();
    let mut moved = 0u64;
    for _ in 0..BASELINE_ROUNDS {
        moved += read_round(&pool, &keys);
    }
    let baseline_bps = moved as f64 / start.elapsed().as_secs_f64();
    eprintln!(
        "baseline (degraded, repair quiet): {:.1} MB/s",
        baseline_bps / 1e6
    );

    // Budget-throttled repair in the background until converged.
    let done = Arc::new(AtomicBool::new(false));
    let repair_pool = Arc::clone(&pool);
    let repair_done = Arc::clone(&done);
    let repair_thread = std::thread::spawn(move || {
        let config = RepairConfig {
            bandwidth: REPAIR_BUDGET_BPS,
        };
        let start = Instant::now();
        let mut migrated = 0u64;
        let mut passes = 0u32;
        let converged = loop {
            let report = repair_pass(&repair_pool, &config).expect("repair pass");
            migrated += report.copied_bytes;
            passes += 1;
            if report.under_replicated == 0 && report.unrepairable == 0 {
                break true;
            }
            if start.elapsed() > REPAIR_DEADLINE {
                break false;
            }
        };
        repair_done.store(true, Ordering::SeqCst);
        (start.elapsed(), migrated, passes, converged)
    });

    // Foreground reads racing the copy loop; keep going until repair
    // finishes so the window is fully covered.
    let start = Instant::now();
    let mut moved = 0u64;
    let mut rounds = 0usize;
    while !done.load(Ordering::SeqCst) || rounds < 2 {
        moved += read_round(&pool, &keys);
        rounds += 1;
    }
    let during_bps = moved as f64 / start.elapsed().as_secs_f64();
    let (window, migrated, passes, converged) = repair_thread.join().expect("repair thread");
    eprintln!(
        "during repair: {:.1} MB/s over {rounds} rounds; window {:.2}s, {} KiB migrated in {passes} passes",
        during_bps / 1e6,
        window.as_secs_f64(),
        migrated >> 10,
    );

    let ratio = during_bps / baseline_bps;
    let effective_bps = migrated as f64 / window.as_secs_f64();
    // The debt bucket may overdraw by its one-second burst allowance.
    let budget_ok = effective_bps <= REPAIR_BUDGET_BPS as f64 * 1.5;
    let throughput_ok = ratio >= 0.8;
    let pass = throughput_ok && converged && budget_ok;
    eprintln!(
        "foreground ratio {ratio:.2} (bar 0.80), repair rate {:.2} MiB/s vs {:.2} MiB/s budget",
        effective_bps / (1 << 20) as f64,
        REPAIR_BUDGET_BPS as f64 / (1 << 20) as f64,
    );
    println!(
        "{{\n  \"bench\": \"self_healing_repair\",\n  \
         \"shaping\": {{\"servers\": {SERVERS}, \"server_bandwidth_bps\": {SERVER_BPS}, \"transport\": \"tcp+shaped-proxy\"}},\n  \
         \"payload\": {{\"value_bytes\": {VALUE_BYTES}, \"values_per_server\": {VALUES_PER_SERVER}, \"replication\": {REPLICATION}}},\n  \
         \"seed\": {seed},\n  \
         \"repair\": {{\"budget_bps\": {REPAIR_BUDGET_BPS}, \"window_secs\": {:.3}, \
         \"migrated_bytes\": {migrated}, \"effective_bps\": {effective_bps:.0}, \
         \"passes\": {passes}, \"converged\": {converged}}},\n  \
         \"foreground\": {{\"baseline_bps\": {baseline_bps:.0}, \"during_repair_bps\": {during_bps:.0}, \
         \"ratio\": {ratio:.3}}},\n  \
         \"acceptance\": {{\"metric\": \"foreground read throughput during budget-throttled repair vs no-repair degraded baseline\", \
         \"bar\": 0.8, \"ratio\": {ratio:.3}, \"converged\": {converged}, \
         \"budget_respected\": {budget_ok}, \"pass\": {pass}}}\n}}",
        window.as_secs_f64(),
    );
    if !throughput_ok {
        eprintln!("FAIL: foreground throughput during repair {ratio:.2} < 0.80 of baseline");
    }
    if !converged {
        eprintln!("FAIL: repair did not converge within {REPAIR_DEADLINE:?}");
    }
    if !budget_ok {
        eprintln!("FAIL: repair rate exceeded its bandwidth budget");
    }
    if !pass {
        std::process::exit(1);
    }
}
