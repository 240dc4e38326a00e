//! One run of one workload: set up (several times, for a steady `setup_s`),
//! warm up, measure rounds for the run's seconds, derive the metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use memfs_core::{MemFs, MemFsConfig};
use memfs_memkv::audit;

use crate::cluster::{proc_sample, Cluster, KeepAwake, Placement, ProcSample, ServerSample};
use crate::gen::Payload;
use crate::ladder;
use crate::ops::{Caller, Phase, Tally};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, Kind, Round};

/// Fresh instances of the system a run measures on, a share of its seconds
/// on each; `setup_s` is the median of their set-ups.
const INSTANCES: usize = 3;

/// Write-and-unlink passes at the end of each `rand_read` instance.
const RAND_PASSES: usize = 3;

/// Untimed rounds run on a fresh instance until it is this old (and at least
/// once): fresh servers grow their heaps over the first few rounds, and
/// `seq_large` writes at half speed until they have.
const WARMUP_SECONDS: f64 = 2.5;

const MIB: f64 = (1u64 << 20) as f64;
const GIB: f64 = (1u64 << 30) as f64;

pub struct Config {
    pub workload: String,
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One set-up, no warm-up, one round: checks schema and read-back only.
    pub quick: bool,
    pub memfsd: PathBuf,
    /// A binary whose `spin` command loops forever: this benchmark's own.
    pub spin_exe: PathBuf,
    pub out_dir: PathBuf,
}

/// Servers plus the one mount every caller shares.
struct Mount {
    // Field order is drop order: unmount before the servers are killed.
    fs: MemFs,
    cluster: Cluster,
}

impl Mount {
    /// The fixed system under test: shipped defaults everywhere.
    fn up(cfg: &Config, placement: Option<Placement>) -> Result<Mount, String> {
        let cluster = Cluster::spawn(&cfg.memfsd, &cfg.out_dir, placement)
            .map_err(|e| format!("cannot start {}: {e}", cfg.memfsd.display()))?;
        let fs = MemFs::connect(&cluster.addrs, MemFsConfig::default())
            .map_err(|e| format!("cannot mount: {e}"))?;
        Ok(Mount { fs, cluster })
    }
}

/// Every counter the per-layer metrics are deltas of, at one instant.
#[derive(Debug, Clone, Default)]
struct Counters {
    server: ServerSample,
    /// `stats` requests the harness itself has sent, which `server.ops`
    /// includes.
    probe_ops: u64,
    client: ProcSample,
    verify_s: f64,
    attempted: u64,
    pool_batches: u64,
    pool_keys: u64,
    keys_per_server: Vec<u64>,
    /// High-water mark of batches on the wire to one server, since mount.
    max_in_flight: usize,
    fallbacks: u64,
    degraded: u64,
    wakeups: u64,
    completions: u64,
    completion_batches: u64,
    timeouts: u64,
    reconnects: u64,
    bytes_tx: u64,
    bytes_rx: u64,
    staged: u64,
    rx_copied: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Counters {
    fn take(mount: &Mount, callers: &[Caller]) -> Result<Counters, String> {
        let pool = mount.fs.pool();
        let io = pool.stats().snapshot();
        let reactors = pool.reactor_stats();
        let (allocs, alloc_bytes) = crate::alloc::counts();
        Ok(Counters {
            server: mount
                .cluster
                .sample()
                .map_err(|e| format!("server sample: {e}"))?,
            probe_ops: mount.cluster.probe_ops(),
            client: proc_sample("/proc/self").map_err(|e| format!("/proc/self: {e}"))?,
            verify_s: callers.iter().map(|c| c.tally.verify_s).sum(),
            attempted: callers.iter().map(|c| c.tally.attempted).sum(),
            pool_batches: io.iter().map(|s| s.batches).sum(),
            pool_keys: io.iter().map(|s| s.keys).sum(),
            keys_per_server: io.iter().map(|s| s.keys).collect(),
            max_in_flight: io.iter().map(|s| s.max_in_flight).max().unwrap_or(0),
            fallbacks: io.iter().map(|s| s.fallbacks).sum(),
            degraded: io.iter().map(|s| s.degraded_writes).sum(),
            wakeups: reactors.iter().map(|r| r.wakeups).sum(),
            completions: reactors.iter().map(|r| r.completions).sum(),
            completion_batches: reactors.iter().map(|r| r.completion_batches).sum(),
            timeouts: reactors.iter().map(|r| r.timeouts).sum(),
            reconnects: reactors.iter().map(|r| r.reconnects).sum(),
            bytes_tx: reactors.iter().map(|r| r.bytes_tx).sum(),
            bytes_rx: reactors.iter().map(|r| r.bytes_rx).sum(),
            staged: audit::staged_bytes(),
            rx_copied: audit::rx_copied_bytes(),
            allocs,
            alloc_bytes,
        })
    }
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Every metric the run could compute, end-to-end and per-layer alike.
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind each value, where it is a statistic over samples.
    pub samples: BTreeMap<&'static str, usize>,
    pub timed_rounds: usize,
    pub plan_hash: u64,
    /// Total self time per span name over the traced rounds, largest first.
    pub self_time: Vec<(&'static str, f64)>,
    /// Modelled cost per file-system op of each layer, µs, largest first.
    pub layer_cost_us: Vec<(&'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Each op of `phase` as a phase of its own.
fn single_ops(phase: &Phase) -> impl Iterator<Item = Phase> + '_ {
    let bytes = phase.bytes / phase.ops.max(1);
    phase.lat_us.iter().map(move |&us| Phase {
        ops: 1,
        bytes,
        secs: us / 1e6,
        lat_us: vec![us],
    })
}

/// Median over phases of `f`.
fn phase_median(phases: &[&Phase], f: impl Fn(&Phase) -> f64) -> f64 {
    median(&phases.iter().map(|p| f(p)).collect::<Vec<f64>>())
}

/// One kind of phase over the run, phases without a successful op left out:
/// from the timed rounds, or where those have none (`rand_read` writes and
/// unlinks only around them) from the passes beside them.
fn phases_of<'a>(
    rounds: &'a [Round],
    setup_rounds: &'a [Round],
    pick: fn(&Round) -> &Phase,
) -> Vec<&'a Phase> {
    let worked =
        |rs: &'a [Round]| -> Vec<&'a Phase> { rs.iter().map(pick).filter(|p| p.ops > 0).collect() };
    let timed = worked(rounds);
    if timed.is_empty() {
        worked(setup_rounds)
    } else {
        timed
    }
}

/// What the instances of one run measured, before any metric is derived.
struct Measured {
    /// Time until each fresh instance had done its first round.
    setup_s: Vec<f64>,
    /// `rand_read`'s write-and-unlink passes, and its set-ups' memory samples.
    setup_rounds: Vec<Round>,
    /// The timed rounds of all instances, and whether each was traced.
    rounds: Vec<Round>,
    traced_round: Vec<bool>,
    /// Counters at each instance's first and last timed round boundary.
    windows: Vec<(Counters, Counters)>,
    ladder: Vec<(&'static str, f64)>,
    tally: Tally,
    spans: Vec<Span>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let measured = measure(cfg)?;
    if cfg.traced {
        std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        let trace = trace::to_json(&cfg.workload, cfg.seed, &measured.spans);
        std::fs::write(&path, trace.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(derive(cfg, measured))
}

fn measure(cfg: &Config) -> Result<Measured, String> {
    // On every allowed CPU, so before this process gives up half of them.
    let _awake = KeepAwake::start(&cfg.spin_exe)
        .map_err(|e| format!("cannot start the keep-awake loops: {e}"))?;
    // Before any thread exists, so that every thread of the mount inherits it.
    let placement = Placement::of_this_process();
    if let Some(p) = placement {
        p.pin_client()
            .map_err(|e| format!("cannot pin to the client CPUs: {e}"))?;
    }
    let payload = Payload::new(cfg.seed);
    let epoch = Instant::now();
    let mut callers: Vec<Caller> = (0..cfg.kind.callers())
        .map(|i| Caller::new(&payload, Tracer::new(epoch, cfg.traced, i as u32 + 1)))
        .collect();
    let montage = (cfg.kind == Kind::Montage).then(workloads::montage_workflow);

    // A run measures on several fresh instances of the system (servers plus
    // mount), a share of its seconds on each: `setup_s` is the median of
    // their set-ups, and whatever differs from one instance to the next —
    // where the servers' memory landed, which connection carries which key —
    // averages out inside the run instead of showing between runs.
    // `rand_read` writes its files during set-up; its write and unlink
    // phases are write-and-unlink passes at the end of each instance.
    let instances = if cfg.quick { 1 } else { INSTANCES };
    let mut setup_s = Vec::new();
    let mut setup_rounds: Vec<Round> = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_round: Vec<bool> = Vec::new();
    let mut windows: Vec<(Counters, Counters)> = Vec::new();
    let mut ladder = Vec::new();
    let mut servers_alive = true;
    let mut round_no = 0usize;
    let set_tracing = |callers: &mut [Caller], on: bool| {
        for c in callers {
            c.tracer.set_enabled(on);
        }
    };
    for instance in 0..instances {
        set_tracing(&mut callers, cfg.traced);
        let t0 = Instant::now();
        let mut mount = Mount::up(cfg, placement)?;
        let files = (cfg.kind == Kind::RandRead).then(|| {
            let (files, written) =
                workloads::rand_populate(&mount.fs, &mount.cluster, &mut callers[0], cfg.seed);
            // Written by cold servers: part of set-up time, not a sample
            // of write throughput.
            setup_rounds.push(Round {
                mem_ratio: written.mem_ratio,
                ..Round::default()
            });
            files
        });

        let mut one_round = |mount: &Mount, callers: &mut [Caller]| {
            round_no += 1;
            match cfg.kind {
                Kind::Files { files, size } => workloads::files_round(
                    &mount.fs,
                    &mount.cluster,
                    &mut callers[0],
                    cfg.seed,
                    round_no,
                    files,
                    size,
                ),
                Kind::RandRead => workloads::rand_round(
                    &mount.fs,
                    &mut callers[0],
                    files.as_ref().expect("rand_read set-up"),
                    cfg.seed,
                    round_no,
                ),
                Kind::Montage => workloads::montage_round(
                    &mount.fs,
                    &mount.cluster,
                    callers,
                    montage.as_ref().expect("montage workflow"),
                    cfg.seed,
                    round_no,
                ),
            }
        };

        // Untimed rounds let connections, caches and allocator pools fill.
        // The first of them, on cold servers, is the last step of set-up:
        // set-up time is the time until a fresh instance has done one round.
        set_tracing(&mut callers, false);
        if !cfg.quick {
            one_round(&mount, &mut callers);
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        while !cfg.quick && t0.elapsed().as_secs_f64() < WARMUP_SECONDS {
            one_round(&mount, &mut callers);
        }

        let before = Counters::take(&mount, &callers)?;
        let started = Instant::now();
        loop {
            // A traced run traces every other round; the untraced rounds
            // beside them are the base of `trace.overhead_ratio`.
            let traced = cfg.traced && rounds.len().is_multiple_of(2);
            set_tracing(&mut callers, traced);
            let round = one_round(&mount, &mut callers);
            println!(
                "info instance {} round {} write_s {:.4} read_s {:.4} unlink_s {:.4}",
                instance + 1,
                rounds.len() + 1,
                round.write.secs,
                round.read.secs,
                round.unlink.secs
            );
            rounds.push(round);
            traced_round.push(traced);
            // A dead server fails ops instead of hanging the run: stop and
            // report what failed.
            servers_alive = mount.cluster.all_alive();
            let enough = started.elapsed().as_secs_f64() >= cfg.seconds / instances as f64;
            if cfg.quick || enough || !servers_alive {
                break;
            }
        }
        windows.push((before, Counters::take(&mount, &callers)?));

        set_tracing(&mut callers, cfg.traced);
        if cfg.traced && instance + 1 == instances && servers_alive {
            ladder = ladder::run(&mount.fs, &mount.cluster, &payload, cfg.quick)?;
        }
        if let Some(files) = files {
            workloads::rand_unlink(&mount.fs, &mut callers[0], files);
            // `rand_read` writes and unlinks nowhere on the clock, so its
            // write-side metrics are measured here, on passes that write the
            // same files again and unlink them at once — all alike, unlike
            // the set-up's write on cold servers and the unlink just above,
            // which follows the read rounds and runs three times slower.
            for _ in 0..if cfg.quick { 1 } else { RAND_PASSES } {
                let (files, written) =
                    workloads::rand_populate(&mount.fs, &mount.cluster, &mut callers[0], cfg.seed);
                let unlinked = workloads::rand_unlink(&mount.fs, &mut callers[0], files);
                // A pass is 8 files, and one unlink in eight takes 20 ms
                // where the rest take 0.5: each file is its own sample, so
                // that the median is taken over ops, not over sums that one
                // slow op decides.
                setup_rounds.extend(single_ops(&written.write).map(|write| Round {
                    write,
                    ..Round::default()
                }));
                setup_rounds.extend(single_ops(&unlinked.unlink).map(|unlink| Round {
                    unlink,
                    ..Round::default()
                }));
            }
        }
        if !servers_alive {
            break;
        }
    }

    let mut tally = Tally::default();
    let mut spans: Vec<Span> = Vec::new();
    for c in callers {
        tally.merge(c.tally);
        spans.extend(c.tracer.spans);
    }
    if !servers_alive {
        tally
            .errors
            .push("a memfsd process died during the run".into());
        tally.failed = tally.failed.max(1);
    }
    Ok(Measured {
        setup_s,
        setup_rounds,
        rounds,
        traced_round,
        windows,
        ladder,
        tally,
        spans,
    })
}

fn derive(cfg: &Config, measured: Measured) -> Outcome {
    let Measured {
        setup_s,
        setup_rounds,
        rounds,
        traced_round,
        windows,
        ladder,
        tally,
        spans,
    } = measured;
    let mut values: BTreeMap<&'static str, f64> = ladder.into_iter().collect();

    // ---- end-to-end
    let mut samples: BTreeMap<&'static str, usize> = BTreeMap::new();
    let of = |pick| phases_of(&rounds, &setup_rounds, pick);
    let (writes, reads, unlinks) = (of(|r| &r.write), of(|r| &r.read), of(|r| &r.unlink));
    let pooled = |phases: &[&Phase]| -> Vec<f64> {
        phases
            .iter()
            .flat_map(|p| p.lat_us.iter().copied())
            .collect()
    };
    values.insert("setup_s", median(&setup_s));
    samples.insert("setup_s", setup_s.len());
    values.insert(
        "write_mibps",
        phase_median(&writes, |p| p.bytes as f64 / MIB / p.secs),
    );
    values.insert(
        "read_mibps",
        phase_median(&reads, |p| p.bytes as f64 / MIB / p.secs),
    );
    values.insert(
        "create_ops_s",
        phase_median(&writes, |p| p.ops as f64 / p.secs),
    );
    values.insert(
        "read_ops_s",
        phase_median(&reads, |p| p.ops as f64 / p.secs),
    );
    values.insert(
        "unlink_ops_s",
        phase_median(&unlinks, |p| p.ops as f64 / p.secs),
    );
    for (name, phases) in [
        ("write_mibps", &writes),
        ("create_ops_s", &writes),
        ("read_mibps", &reads),
        ("read_ops_s", &reads),
        ("unlink_ops_s", &unlinks),
    ] {
        samples.insert(name, phases.len());
    }
    for (p50, p99, phases) in [
        ("create_p50_us", "create_p99_us", &writes),
        ("read_p50_us", "read_p99_us", &reads),
        ("unlink_p50_us", "unlink_p99_us", &unlinks),
    ] {
        let lat = pooled(phases);
        values.insert(p50, percentile(&lat, 50.0));
        values.insert(p99, percentile(&lat, 99.0));
        samples.insert(p50, lat.len());
        samples.insert(p99, lat.len());
    }
    let makespans: Vec<f64> = rounds.iter().map(|r| r.makespan_s).collect();
    values.insert("makespan_s", median(&makespans));
    samples.insert("makespan_s", makespans.len());
    let mem: Vec<f64> = rounds
        .iter()
        .chain(&setup_rounds)
        .filter_map(|r| r.mem_ratio)
        .collect();
    values.insert("mem_bytes_per_user_byte", median(&mem));
    samples.insert("mem_bytes_per_user_byte", mem.len());

    // CPU over the timed window: client and servers, minus the client time
    // that went into verifying reads (pure CPU, so wall time stands for it).
    let user_bytes: f64 = rounds
        .iter()
        .map(|r| (r.write.bytes + r.read.bytes) as f64)
        .sum();
    let sum = |f: &dyn Fn(&Counters) -> f64| -> f64 {
        windows
            .iter()
            .map(|(before, after)| f(after) - f(before))
            .sum()
    };
    let fs_ops = sum(&|c| c.attempted as f64);
    let server_cpu = sum(&|c| c.server.cpu_s);
    let client_cpu = (sum(&|c| c.client.cpu_s) - sum(&|c| c.verify_s)).max(0.0);
    values.insert(
        "cpu_s_per_gib",
        ratio(server_cpu + client_cpu, user_bytes / GIB),
    );
    values.insert(
        "cpu_us_per_op",
        ratio((server_cpu + client_cpu) * 1e6, fs_ops),
    );

    // ---- per-layer: counter deltas over the window
    let d = |f: fn(&Counters) -> u64| sum(&|c| f(c) as f64);
    let (_, after) = windows.last().expect("at least one instance");
    let kv_ops = d(|c| c.server.ops) - d(|c| c.probe_ops);
    let read_bytes: f64 = rounds.iter().map(|r| r.read.bytes as f64).sum();
    let rx_reading: f64 = rounds.iter().map(|r| r.rx_while_reading as f64).sum();
    let key_deltas: Vec<f64> = (0..after.keys_per_server.len())
        .map(|i| sum(&|c| c.keys_per_server[i] as f64))
        .collect();
    values.extend([
        (
            "prefetch.wire_bytes_per_user_byte",
            ratio(rx_reading, read_bytes),
        ),
        (
            "pool.batches_per_fs_op",
            ratio(d(|c| c.pool_batches), fs_ops),
        ),
        (
            "pool.keys_per_batch",
            ratio(d(|c| c.pool_keys), d(|c| c.pool_batches)),
        ),
        (
            "pool.server_imbalance",
            ratio(
                key_deltas.iter().copied().fold(0.0, f64::max),
                key_deltas.iter().copied().fold(f64::INFINITY, f64::min),
            ),
        ),
        ("pool.fallbacks", d(|c| c.fallbacks)),
        ("pool.degraded_writes", d(|c| c.degraded)),
        ("reactor.wakeups_per_kv_op", ratio(d(|c| c.wakeups), kv_ops)),
        (
            "reactor.completions_per_wake",
            ratio(d(|c| c.completions), d(|c| c.completion_batches)),
        ),
        (
            "reactor.bytes_tx_per_user_byte",
            ratio(d(|c| c.bytes_tx), user_bytes),
        ),
        (
            "reactor.bytes_rx_per_user_byte",
            ratio(d(|c| c.bytes_rx), user_bytes),
        ),
        ("reactor.timeouts", d(|c| c.timeouts)),
        ("reactor.reconnects", d(|c| c.reconnects)),
        (
            "net.staged_bytes_per_user_byte",
            ratio(d(|c| c.staged), user_bytes),
        ),
        (
            "net.rx_copied_bytes_per_user_byte",
            ratio(d(|c| c.rx_copied), user_bytes),
        ),
        ("server.ops_per_fs_op", ratio(kv_ops, fs_ops)),
        ("server.cpu_us_per_op", ratio(server_cpu * 1e6, fs_ops)),
        ("server.cpu_s_per_gib", ratio(server_cpu, user_bytes / GIB)),
        (
            "server.ctx_switches_per_op",
            ratio(d(|c| c.server.ctx_switches), fs_ops),
        ),
        ("server.rss_mib", after.server.rss_bytes as f64 / MIB),
        (
            "server.rejected_connections",
            after.server.rejected_connections as f64,
        ),
        ("client.cpu_us_per_op", ratio(client_cpu * 1e6, fs_ops)),
        ("client.cpu_s_per_gib", ratio(client_cpu, user_bytes / GIB)),
        (
            "client.ctx_switches_per_op",
            ratio(d(|c| c.client.ctx_switches), fs_ops),
        ),
        ("client.allocs_per_op", ratio(d(|c| c.allocs), fs_ops)),
        (
            "client.alloc_bytes_per_user_byte",
            ratio(d(|c| c.alloc_bytes), user_bytes),
        ),
        ("client.threads", after.client.threads as f64),
        ("client.rss_mib", after.client.rss_bytes as f64 / MIB),
        (
            "pool.max_in_flight",
            windows.iter().map(|w| w.1.max_in_flight).max().unwrap_or(0) as f64,
        ),
    ]);

    // ---- per-layer: spans of the traced rounds
    let us = |name: &str| trace::durations_us(&spans, name);
    let reads_us: Vec<f64> = [us("fs.read"), us("fs.read_at")].concat();
    let (write_us, close_us) = (us("fs.write"), us("fs.close"));
    let (first, steady) = first_and_steady_reads(&spans);
    values.extend([
        ("fs.create_us", mean(&us("fs.create"))),
        ("fs.write_us", mean(&write_us)),
        ("fs.close_us", mean(&close_us)),
        ("fs.open_us", mean(&us("fs.open"))),
        ("fs.read_us", mean(&reads_us)),
        ("fs.unlink_us", mean(&us("fs.unlink"))),
        ("fs.read_call_p99_us", percentile(&reads_us, 99.0)),
        (
            "bufwrite.close_share",
            ratio(
                close_us.iter().sum(),
                close_us.iter().sum::<f64>() + write_us.iter().sum::<f64>(),
            ),
        ),
        ("prefetch.first_read_us", median(&first)),
        ("prefetch.steady_read_us", median(&steady)),
        ("trace.spans", spans.len() as f64),
    ]);
    samples.insert("fs.read_call_p99_us", reads_us.len());
    let with_tracing = |on: bool| -> Vec<f64> {
        makespans
            .iter()
            .zip(&traced_round)
            .filter(|(_, &t)| t == on)
            .map(|(m, _)| *m)
            .collect()
    };
    values.insert(
        "trace.overhead_ratio",
        ratio(median(&with_tracing(true)), median(&with_tracing(false))),
    );
    let timed_ops: f64 = rounds
        .iter()
        .map(|r| (r.write.ops + r.read.ops + r.unlink.ops) as f64)
        .sum();
    let op_us = ratio(
        rounds
            .iter()
            .map(|r| r.makespan_s + r.unlink.secs)
            .sum::<f64>()
            * 1e6,
        timed_ops,
    );
    let layer_cost_us = if cfg.traced {
        layer_costs(&values, op_us, ratio(user_bytes, timed_ops))
    } else {
        Vec::new()
    };

    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        errors: tally.errors,
        values,
        samples,
        timed_rounds: rounds.len(),
        plan_hash: workloads::plan_hash(cfg.kind, cfg.seed),
        self_time: trace::self_time_by_name(&spans),
        layer_cost_us,
    }
}

/// The ladder laid over this workload: KV requests per file-system op times
/// each rung's self time, at the 64 B rung for ops that move under 64 KiB
/// and the 512 KiB rung otherwise; `fs` is the rest of the measured mean op
/// time. A model — batches and prefetch overlap what it adds up in series —
/// so a negative `fs` rest is reported as it comes.
fn layer_costs(
    values: &BTreeMap<&'static str, f64>,
    op_us: f64,
    bytes_per_op: f64,
) -> Vec<(&'static str, f64)> {
    let v = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let kv = v("server.ops_per_fs_op");
    let small = bytes_per_op < (64 << 10) as f64;
    let (store, proto, net, pool) = if small {
        (
            (v("store.get_ns.64") + v("store.set_ns.64")) / 2.0,
            v("proto.request_ns.64") + v("proto.response_ns.64"),
            v("net.self_us.64"),
            v("pool.self_us.64"),
        )
    } else {
        (
            (v("store.get_ns.512k") + v("store.set_ns.512k")) / 2.0,
            // A get and a set each move one large frame and one small one.
            (v("proto.request_ns.512k")
                + v("proto.response_ns.512k")
                + v("proto.request_ns.64")
                + v("proto.response_ns.64"))
                / 2.0,
            v("net.self_us.512k"),
            v("pool.self_us.512k"),
        )
    };
    let mut costs = vec![
        ("store", kv * store / 1e3),
        ("proto", kv * proto / 1e3),
        ("net", kv * net),
        ("pool", kv * pool),
    ];
    let below: f64 = costs.iter().map(|c| c.1).sum();
    costs.push(("fs", op_us - below));
    costs.sort_by(|a, b| b.1.total_cmp(&a.1));
    costs
}

/// Durations (µs) of the first `fs.read` on each fresh handle, and of every
/// later sequential `fs.read`.
fn first_and_steady_reads(spans: &[Span]) -> (Vec<f64>, Vec<f64>) {
    let mut seen = std::collections::HashSet::new();
    let (mut first, mut steady) = (Vec::new(), Vec::new());
    // A recorder appends spans in end order, which for the sequential reads
    // of one handle is call order.
    for s in spans.iter().filter(|s| s.name == "fs.read") {
        let us = s.duration_ns() as f64 / 1e3;
        if seen.insert(s.parent) {
            first.push(us);
        } else {
            steady.push(us);
        }
    }
    (first, steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_read_is_split_from_steady_reads_per_handle() {
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            op: 0,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("fs.open", 2, 1, 0, 1_000),
            span("fs.read", 3, 1, 1_000, 5_000),
            span("fs.read", 4, 1, 5_000, 6_000),
            span("fs.read", 5, 1, 6_000, 8_000),
            span("fs.read", 7, 6, 9_000, 12_000),
            span("fs.read", 8, 6, 12_000, 13_000),
        ];
        let (first, steady) = first_and_steady_reads(&spans);
        assert_eq!(first, vec![4.0, 3.0]);
        assert_eq!(steady, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn phases_come_from_set_up_only_where_no_timed_round_has_them() {
        let worked = |ops| Phase {
            ops,
            bytes: ops << 20,
            secs: 2.0,
            lat_us: vec![],
        };
        let round = |write, read| Round {
            write,
            read,
            ..Round::default()
        };
        // rand_read: reads in the timed rounds, writes in set-up only.
        let rounds = [
            round(Phase::default(), worked(10)),
            round(Phase::default(), Phase::default()),
        ];
        let setup = [round(worked(8), Phase::default())];
        let reads = phases_of(&rounds, &setup, |r| &r.read);
        assert_eq!(
            reads.len(),
            1,
            "the round whose reads all failed is left out"
        );
        assert_eq!(phase_median(&reads, |p| p.ops as f64 / p.secs), 5.0);
        let writes = phases_of(&rounds, &setup, |r| &r.write);
        assert_eq!(phase_median(&writes, |p| p.ops as f64 / p.secs), 4.0);
        assert_eq!(
            phase_median(&phases_of(&rounds, &setup, |r| &r.unlink), |p| p.secs),
            0.0
        );
    }
}
