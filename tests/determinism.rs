//! Reproducibility of the simulation stack: identical configurations must
//! produce bit-identical results, and independent model paths must agree
//! with each other.

use memfs::cluster::{ClusterSpec, Deployment};
use memfs::mtc::experiments::fig3;
use memfs::mtc::fsmodel::FsModelKind;
use memfs::mtc::montage::montage;
use memfs::mtc::sched::SchedulerKind;
use memfs::mtc::{blast, EnvelopeModel, WorkflowSim};

#[test]
fn workflow_sim_is_bit_reproducible() {
    let wf = montage(6, 128);
    let run = || {
        WorkflowSim {
            deployment: Deployment::full(ClusterSpec::das4_ipoib(8)),
            fs: FsModelKind::MemFs,
            scheduler: SchedulerKind::Uniform,
        }
        .run(&wf)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    assert_eq!(a.stage_secs, b.stage_secs);
    assert_eq!(a.peak_mem_per_node, b.peak_mem_per_node);
    assert_eq!(a.network_bytes.to_bits(), b.network_bytes.to_bits());
}

#[test]
fn amfs_sim_is_bit_reproducible() {
    let wf = blast::blast(64, 4, 64);
    let run = || {
        WorkflowSim {
            deployment: Deployment::full(ClusterSpec::das4_ipoib(8)).with_single_mount(),
            fs: FsModelKind::Amfs,
            scheduler: SchedulerKind::LocalityAware,
        }
        .run(&wf)
    };
    let a = run();
    let b = run();
    assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
    assert_eq!(a.peak_mem_per_node, b.peak_mem_per_node);
}

#[test]
fn generators_are_deterministic() {
    let a = montage(6, 256);
    let b = montage(6, 256);
    assert_eq!(a.tasks.len(), b.tasks.len());
    assert_eq!(a.files.len(), b.files.len());
    for (fa, fb) in a.files.iter().zip(&b.files) {
        assert_eq!(fa.name, fb.name);
        assert_eq!(fa.size, fb.size);
    }
}

#[test]
fn sim_memory_agrees_with_workflow_accounting() {
    // MemFS keeps exactly one copy of everything, so the simulated
    // aggregate peak must equal staged inputs + runtime data (minus
    // transients, of which Montage has none).
    let wf = montage(6, 128);
    let r = WorkflowSim {
        deployment: Deployment::full(ClusterSpec::das4_ipoib(16)),
        fs: FsModelKind::MemFs,
        scheduler: SchedulerKind::Uniform,
    }
    .run(&wf);
    assert!(r.failed.is_none());
    let expected = wf.input_bytes() + wf.runtime_bytes();
    let diff = (r.aggregate_peak_mem as f64 - expected as f64).abs() / expected as f64;
    assert!(
        diff < 0.01,
        "sim peak {} vs accounting {expected}",
        r.aggregate_peak_mem
    );
}

#[test]
fn envelope_scales_linearly_where_the_paper_says_so() {
    // Cross-check the envelope's node scaling against an independent
    // computation at a different scale (pure-model consistency).
    let file = 1_000_000;
    for nodes in [8usize, 16, 32] {
        let small = EnvelopeModel::new(ClusterSpec::das4_ipoib(nodes));
        let double = EnvelopeModel::new(ClusterSpec::das4_ipoib(nodes * 2));
        let ratio = double.memfs_write(file).bandwidth / small.memfs_write(file).bandwidth;
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "write scaling at {nodes}: {ratio}"
        );
        let ratio = double.memfs_open() / small.memfs_open();
        assert!(
            (ratio - 2.0).abs() < 0.05,
            "open scaling at {nodes}: {ratio}"
        );
    }
}

#[test]
fn network_bytes_track_data_volume() {
    // In a MemFS run on N nodes, (N-1)/N of every written and read byte
    // crosses the network; the simulated total must sit between 1x and 3x
    // the workflow's data volume (reads + writes, minus local shares).
    let wf = montage(6, 128);
    let n = 8.0;
    let r = WorkflowSim {
        deployment: Deployment::full(ClusterSpec::das4_ipoib(8)),
        fs: FsModelKind::MemFs,
        scheduler: SchedulerKind::Uniform,
    }
    .run(&wf);
    let data = (wf.input_bytes() + wf.runtime_bytes()) as f64;
    let remote_fraction = (n - 1.0) / n;
    assert!(
        r.network_bytes > data * remote_fraction * 0.9,
        "too little traffic: {} vs data {}",
        r.network_bytes,
        data
    );
    assert!(
        r.network_bytes < data * 4.0,
        "too much traffic: {} vs data {}",
        r.network_bytes,
        data
    );
}

/// Figure 3 times the real engine on a virtual clock, not the host's: two
/// runs return identical rows.
#[test]
fn fig3_is_bit_reproducible() {
    assert_eq!(fig3::run_fig3a(4 << 20), fig3::run_fig3a(4 << 20));
    assert_eq!(fig3::run_fig3b(4 << 20), fig3::run_fig3b(4 << 20));
}
