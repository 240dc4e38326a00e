//! Integration tests asserting the paper's headline claims end-to-end
//! through the simulation stack (run in release for speed: the suite
//! simulates multi-node clusters).

use memfs::cluster::{ClusterSpec, Deployment};
use memfs::mtc::experiments::fig3;
use memfs::mtc::experiments::scaling::{run_config, MONTAGE_STAGES};
use memfs::mtc::fsmodel::FsModelKind;
use memfs::mtc::montage::montage;
use memfs::mtc::{blast, EnvelopeModel};
use memfs::netsim::NetProfile;

const MB: u64 = 1_000_000;

/// §4.2.1/§5: "AMFS is unable to run [Montage 12x12] because the
/// 'scheduler node' crashes when trying to accumulate large amounts of
/// data that do not fit in its main memory. ... MemFS is able to run
/// 12x12 Montage."
#[test]
fn montage12_amfs_crashes_memfs_completes() {
    let wf = montage(12, 256);
    let d = Deployment::full(ClusterSpec::das4_ipoib(16));
    let memfs = run_config("t", &wf, d.clone(), FsModelKind::MemFs, &MONTAGE_STAGES);
    let amfs = run_config("t", &wf, d, FsModelKind::Amfs, &MONTAGE_STAGES);
    assert!(
        memfs.iter().all(|r| r.failed.is_none()),
        "MemFS must complete Montage 12: {:?}",
        memfs[0].failed
    );
    assert!(
        amfs.iter().all(|r| r.failed.is_some()),
        "AMFS must crash on Montage 12"
    );
    let msg = amfs[0].failed.as_deref().unwrap();
    assert!(
        msg.contains("node 0"),
        "the crash is on the scheduler node: {msg}"
    );
}

/// §4.1 / Table 1: MemFS outperforms AMFS on every envelope metric at
/// 1 MB except none; at 128 MB AMFS wins only the local 1-1 read.
#[test]
fn envelope_winner_pattern() {
    let m = EnvelopeModel::new(ClusterSpec::das4_ipoib(64));
    // 1 MB: MemFS sweeps.
    assert!(m.memfs_write(MB).bandwidth > m.amfs_write(MB).bandwidth);
    assert!(m.memfs_read_1_1(MB).bandwidth > m.amfs_read_1_1(MB).bandwidth);
    assert!(m.memfs_read_n_1(MB).bandwidth > m.amfs_read_n_1(MB).bandwidth);
    // 128 MB: AMFS' local read is the single exception.
    assert!(m.amfs_read_1_1(128 * MB).bandwidth > m.memfs_read_1_1(128 * MB).bandwidth);
    assert!(m.memfs_write(128 * MB).bandwidth > m.amfs_write(128 * MB).bandwidth);
    assert!(m.memfs_read_n_1(128 * MB).bandwidth > m.amfs_read_n_1(128 * MB).bandwidth);
}

/// §4.1: losing locality costs AMFS ~4.6x against MemFS on IPoIB, and
/// MemFS stays ahead even on gigabit Ethernet.
#[test]
fn locality_loss_factors() {
    let ipoib = EnvelopeModel::new(ClusterSpec::das4_ipoib(64));
    let factor = ipoib.memfs_read_1_1(MB).bandwidth / ipoib.amfs_read_1_1_remote(MB).bandwidth;
    assert!(
        (3.5..6.5).contains(&factor),
        "IPoIB factor {factor} vs paper's 4.63"
    );

    let gbe = EnvelopeModel::new(ClusterSpec::das4_gbe(64));
    let factor = gbe.memfs_read_1_1(MB).bandwidth / gbe.amfs_read_1_1_remote(MB).bandwidth;
    assert!(
        factor > 1.0,
        "MemFS must stay ahead on 1GbE (paper: 1.4x), got {factor}"
    );
}

/// §4.2.2 / Figure 10: with one FUSE mountpoint MemFS cannot scale past
/// ~8 processes per EC2 node; per-process mountpoints restore scaling.
#[test]
fn mountpoint_bottleneck_and_fix() {
    let wf = montage(6, 128);
    let stage = |rows: &[memfs::mtc::experiments::scaling::ScalingRow], s: &str| {
        rows.iter().find(|r| r.stage == s).unwrap().stage_secs
    };
    // Single mount: 32 cores barely beats (or loses to) 8 cores on the
    // I/O-bound stage.
    let single8 = run_config(
        "t",
        &wf,
        Deployment::full(ClusterSpec::ec2(4))
            .with_cores_per_node(8)
            .with_single_mount(),
        FsModelKind::MemFs,
        &MONTAGE_STAGES,
    );
    let single32 = run_config(
        "t",
        &wf,
        Deployment::full(ClusterSpec::ec2(4))
            .with_cores_per_node(32)
            .with_single_mount(),
        FsModelKind::MemFs,
        &MONTAGE_STAGES,
    );
    let speedup_single = stage(&single8, "mDiffFit") / stage(&single32, "mDiffFit");
    assert!(
        speedup_single < 1.8,
        "single mount should not scale 8->32 cores, got {speedup_single}x"
    );

    // Per-process mounts: scaling restored.
    let pp8 = run_config(
        "t",
        &wf,
        Deployment::full(ClusterSpec::ec2(4)).with_cores_per_node(8),
        FsModelKind::MemFs,
        &MONTAGE_STAGES,
    );
    let pp32 = run_config(
        "t",
        &wf,
        Deployment::full(ClusterSpec::ec2(4)).with_cores_per_node(32),
        FsModelKind::MemFs,
        &MONTAGE_STAGES,
    );
    let speedup_pp = stage(&pp8, "mDiffFit") / stage(&pp32, "mDiffFit");
    assert!(
        speedup_pp > speedup_single * 1.3,
        "per-process mounts must scale better: {speedup_pp}x vs {speedup_single}x"
    );
}

/// §5: MemFS scales horizontally — Montage 6 completes roughly 2x faster
/// each time the node count doubles.
#[test]
fn memfs_horizontal_scalability() {
    let wf = montage(6, 256);
    let mut prev = f64::INFINITY;
    for nodes in [8usize, 16, 32] {
        let rows = run_config(
            "t",
            &wf,
            Deployment::full(ClusterSpec::das4_ipoib(nodes)),
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        );
        let total: f64 = rows.iter().map(|r| r.stage_secs).sum();
        assert!(
            total < prev * 0.65,
            "insufficient scaling at {nodes} nodes: {total} vs previous {prev}"
        );
        prev = total;
    }
}

/// Table 2: the generators produce the paper's data volumes.
#[test]
fn workload_volumes() {
    let gb = 1e9;
    assert!((montage(6, 0).runtime_bytes() as f64 / gb - 50.0).abs() < 10.0);
    assert!((montage(12, 0).runtime_bytes() as f64 / gb - 250.0).abs() < 60.0);
    let b_das4 = blast::blast_das4(0).runtime_bytes() as f64 / gb;
    let b_ec2 = blast::blast_ec2(0).runtime_bytes() as f64 / gb;
    assert!((b_das4 - 200.0).abs() < 50.0, "{b_das4}");
    assert!((b_das4 - b_ec2).abs() / b_das4 < 0.02, "equal data sizes");
}

/// §4.2: BLAST completes on both systems at every paper scale (the
/// runtime data fits once raw fragments are reclaimed).
#[test]
fn blast_runs_on_both_systems() {
    let wf = blast::blast_das4(256);
    for fs in [FsModelKind::MemFs, FsModelKind::Amfs] {
        let rows = run_config(
            "t",
            &wf,
            Deployment::full(ClusterSpec::das4_ipoib(16)),
            fs,
            &["formatdb", "blastall"],
        );
        assert!(
            rows.iter().all(|r| r.failed.is_none()),
            "{fs:?} failed: {:?}",
            rows[0].failed
        );
    }
}

/// §3.2.1–3.2.2 / Figure 3, the real engine over four servers behind the
/// simulated IPoIB link: the shapes behind the paper's 512 KB stripe and
/// its buffering and prefetching.
#[test]
fn fig3_design_decisions() {
    const FILE: usize = 64 << 20; // as `repro` runs it
    let a = fig3::run_fig3a(FILE);
    let write = |kib: usize| {
        a.iter()
            .find(|r| r.stripe_bytes == kib << 10)
            .unwrap()
            .write_bw
    };
    assert!(
        write(128) < write(256) && write(256) < write(512),
        "write bandwidth grows from 128 KB to 512 KB stripes: {a:?}"
    );
    assert!(
        (write(1024) / write(512) - 1.0).abs() < 0.05,
        "and saturates at 512 KB: {a:?}"
    );

    let b = fig3::run_fig3b(FILE);
    let write: Vec<f64> = b.iter().map(|r| r.write_bw).collect();
    let read: Vec<f64> = b.iter().map(|r| r.read_bw).collect();
    for (name, bws) in [("buffered write", write), ("prefetched read", read)] {
        let (first, last) = (bws[0], bws[bws.len() - 1]);
        assert!(
            bws.windows(2).all(|w| w[0] <= w[1]) && last > 2.0 * first,
            "{name} grows with depth: {bws:?}"
        );
        let before_last = bws[bws.len() - 2];
        assert!(
            last < 1.1 * before_last,
            "{name} saturates by depth {}: {bws:?}",
            b[b.len() - 2].depth
        );
    }
    // Without buffering or prefetching one stripe is in flight at a time,
    // whatever the depth: one round trip of the link per stripe.
    let ipoib = NetProfile::das4_ipoib();
    let stripe = (512 << 10) as f64;
    let one_at_a_time =
        stripe / (ipoib.request_cost().as_secs_f64() + stripe / ipoib.nic_bw.bytes_per_s());
    for r in &b {
        for (name, bw) in [
            ("no-buffering write", r.write_nobuf_bw),
            ("no-prefetch read", r.read_noprefetch_bw),
        ] {
            let off = (bw / one_at_a_time - 1.0).abs();
            assert!(
                off < 0.01,
                "{name} at depth {}: {bw} vs {one_at_a_time}",
                r.depth
            );
        }
        assert!(r.read_bw >= r.read_noprefetch_bw, "{r:?}");
    }
}
