//! Workflow scaling drivers: vertical/horizontal scalability on DAS4
//! (Figures 7, 8) and EC2 (Figures 10-15).

use memfs_cluster::{ClusterSpec, Deployment};

use crate::blast::{blast_das4, blast_ec2};
use crate::engine::WorkflowSim;
use crate::fsmodel::FsModelKind;
use crate::montage::montage;
use crate::report;
use crate::sched::SchedulerKind;
use crate::workflow::Workflow;

/// One (configuration, stage) measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Which figure this row belongs to ("fig7a", …).
    pub figure: &'static str,
    /// "MemFS" or "AMFS".
    pub system: &'static str,
    /// Node count.
    pub nodes: usize,
    /// Concurrent tasks per node.
    pub cores_per_node: usize,
    /// Stage name.
    pub stage: String,
    /// Stage wall time, seconds.
    pub stage_secs: f64,
    /// Average network bandwidth per node during the stage, bytes/s.
    pub stage_bw_per_node: f64,
    /// Set when the whole run failed (stage values are then zero).
    pub failed: Option<String>,
}

/// Stages the paper plots for Montage.
pub const MONTAGE_STAGES: [&str; 3] = ["mProjectPP", "mDiffFit", "mBackground"];
/// Stages the paper plots for BLAST.
pub const BLAST_STAGES: [&str; 2] = ["formatdb", "blastall"];

/// Bundle cap: a few records per core keeps scheduling realistic while
/// bounding simulation cost.
pub fn bundle_for(total_cores: usize) -> usize {
    (4 * total_cores).max(512)
}

/// Run one configuration and emit rows for the given stages.
#[allow(clippy::too_many_arguments)]
pub fn run_config(
    figure: &'static str,
    workflow: &Workflow,
    deployment: Deployment,
    fs: FsModelKind,
    stages: &[&str],
) -> Vec<ScalingRow> {
    // AMFS always runs with one FUSE mountpoint per node — "for AMFS it
    // is not straightforward to use multiple mountpoints" (§4.2.2) — and
    // one FS process, which also gives it a slightly larger storage
    // budget per node.
    let (system, scheduler, deployment) = match fs {
        FsModelKind::MemFs => ("MemFS", SchedulerKind::Uniform, deployment),
        FsModelKind::Amfs => (
            "AMFS",
            SchedulerKind::LocalityAware,
            deployment.with_single_mount(),
        ),
    };
    let nodes = deployment.cluster.n_nodes;
    let cores = deployment.cores_per_node;
    let sim = WorkflowSim {
        deployment,
        fs,
        scheduler,
    };
    let result = sim.run(workflow);
    stages
        .iter()
        .map(|&stage| ScalingRow {
            figure,
            system,
            nodes,
            cores_per_node: cores,
            stage: stage.to_string(),
            stage_secs: result.stage_secs.get(stage).copied().unwrap_or(0.0),
            stage_bw_per_node: result.stage_bw_per_node.get(stage).copied().unwrap_or(0.0),
            failed: result.failed.clone(),
        })
        .collect()
}

/// Figure 7a/7b/7c: vertical scalability on 64 DAS4 nodes (64-512 cores).
pub fn run_fig7() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    // 7a: Montage 6, MemFS vs AMFS, 1-8 cores per node.
    let wf6 = montage(6, bundle_for(512));
    for cores in [1usize, 2, 4, 8] {
        for fs in [FsModelKind::MemFs, FsModelKind::Amfs] {
            let d = Deployment::full(ClusterSpec::das4_ipoib(64)).with_cores_per_node(cores);
            rows.extend(run_config("fig7a", &wf6, d, fs, &MONTAGE_STAGES));
        }
    }
    // 7b: Montage 12, MemFS only (AMFS cannot run it).
    let wf12 = montage(12, bundle_for(512));
    for cores in [2usize, 4, 8] {
        let d = Deployment::full(ClusterSpec::das4_ipoib(64)).with_cores_per_node(cores);
        rows.extend(run_config(
            "fig7b",
            &wf12,
            d,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    // 7c: BLAST, MemFS vs AMFS.
    let wfb = blast_das4(bundle_for(512));
    for cores in [1usize, 2, 4, 8] {
        for fs in [FsModelKind::MemFs, FsModelKind::Amfs] {
            let d = Deployment::full(ClusterSpec::das4_ipoib(64)).with_cores_per_node(cores);
            rows.extend(run_config("fig7c", &wfb, d, fs, &BLAST_STAGES));
        }
    }
    rows
}

/// Figure 8a/8b/8c: horizontal scalability on 8-64 DAS4 nodes.
pub fn run_fig8() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wf6 = montage(6, bundle_for(512));
    for nodes in [8usize, 16, 32, 64] {
        // AMFS at 8 and at 4 cores per node (the paper shows both), and
        // MemFS at 8.
        for (fig, fs, cores) in [
            ("fig8a-amfs8", FsModelKind::Amfs, 8usize),
            ("fig8a-amfs4", FsModelKind::Amfs, 4),
            ("fig8a-memfs", FsModelKind::MemFs, 8),
        ] {
            let d = Deployment::full(ClusterSpec::das4_ipoib(nodes)).with_cores_per_node(cores);
            rows.extend(run_config(fig, &wf6, d, fs, &MONTAGE_STAGES));
        }
    }
    let wf12 = montage(12, bundle_for(512));
    for nodes in [16usize, 32, 64] {
        let d = Deployment::full(ClusterSpec::das4_ipoib(nodes));
        rows.extend(run_config(
            "fig8b",
            &wf12,
            d,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    let wfb = blast_das4(bundle_for(512));
    for nodes in [8usize, 16, 32, 64] {
        for fs in [FsModelKind::MemFs, FsModelKind::Amfs] {
            let d = Deployment::full(ClusterSpec::das4_ipoib(nodes));
            rows.extend(run_config("fig8c", &wfb, d, fs, &BLAST_STAGES));
        }
    }
    rows
}

/// Figure 10: the FUSE mountpoint bottleneck — Montage 6 on 4 EC2 VMs,
/// 4-32 cores each, single mountpoint vs one per process (MemFS).
pub fn run_fig10() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wf = montage(6, bundle_for(128));
    for cores in [4usize, 8, 16, 32] {
        let single = Deployment::full(ClusterSpec::ec2(4))
            .with_cores_per_node(cores)
            .with_single_mount();
        rows.extend(run_config(
            "fig10a",
            &wf,
            single,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
        let per_proc = Deployment::full(ClusterSpec::ec2(4)).with_cores_per_node(cores);
        rows.extend(run_config(
            "fig10b",
            &wf,
            per_proc,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    rows
}

/// Figure 11: MemFS vs AMFS vertical scalability on 4 EC2 VMs. AMFS is
/// limited to 8 processes per node (single mountpoint + storage
/// imbalance); MemFS runs to 32 with per-process mounts.
pub fn run_fig11() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wf = montage(6, bundle_for(128));
    for cores in [4usize, 8, 16, 32] {
        let d = Deployment::full(ClusterSpec::ec2(4)).with_cores_per_node(cores);
        rows.extend(run_config(
            "fig11",
            &wf,
            d,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    for cores in [4usize, 8] {
        let d = Deployment::full(ClusterSpec::ec2(4))
            .with_cores_per_node(cores)
            .with_single_mount();
        rows.extend(run_config(
            "fig11",
            &wf,
            d,
            FsModelKind::Amfs,
            &MONTAGE_STAGES,
        ));
    }
    rows
}

/// Figures 12 (Montage 16) and 13 (BLAST): vertical scalability on 32
/// EC2 VMs up to 1024 cores, with per-node bandwidth.
pub fn run_fig12_13() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wf16 = montage(16, bundle_for(1024));
    for cores in [4usize, 8, 16, 32] {
        let d = Deployment::full(ClusterSpec::ec2(32)).with_cores_per_node(cores);
        rows.extend(run_config(
            "fig12",
            &wf16,
            d,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    let wfb = blast_ec2(bundle_for(1024));
    for cores in [4usize, 8, 16, 32] {
        let d = Deployment::full(ClusterSpec::ec2(32)).with_cores_per_node(cores);
        rows.extend(run_config(
            "fig13",
            &wfb,
            d,
            FsModelKind::MemFs,
            &BLAST_STAGES,
        ));
    }
    rows
}

/// Figures 14 (Montage 12) and 15 (BLAST): horizontal scalability on
/// 8-32 EC2 VMs, all 32 cores used.
pub fn run_fig14_15() -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let wf12 = montage(12, bundle_for(1024));
    for nodes in [8usize, 16, 32] {
        let d = Deployment::full(ClusterSpec::ec2(nodes));
        rows.extend(run_config(
            "fig14",
            &wf12,
            d,
            FsModelKind::MemFs,
            &MONTAGE_STAGES,
        ));
    }
    let wfb = blast_ec2(bundle_for(1024));
    for nodes in [8usize, 16, 32] {
        let d = Deployment::full(ClusterSpec::ec2(nodes));
        rows.extend(run_config(
            "fig15",
            &wfb,
            d,
            FsModelKind::MemFs,
            &BLAST_STAGES,
        ));
    }
    rows
}

/// Render a set of scaling rows grouped by figure, stage times and
/// per-node bandwidth side by side.
pub fn render_scaling(rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    let mut figures: Vec<&'static str> = rows.iter().map(|r| r.figure).collect();
    figures.dedup();
    let mut seen = std::collections::BTreeSet::new();
    for fig in figures {
        if !seen.insert(fig) {
            continue;
        }
        out.push_str(&format!("\n[{fig}]\n"));
        let table_rows: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.figure == fig)
            .map(|r| {
                vec![
                    format!("{} {}x{}", r.system, r.nodes, r.cores_per_node),
                    r.stage.clone(),
                    if r.failed.is_some() {
                        "FAILED".to_string()
                    } else {
                        report::secs(r.stage_secs)
                    },
                    report::mbps(r.stage_bw_per_node),
                ]
            })
            .collect();
        out.push_str(&report::table(
            &["Config", "Stage", "Time (s)", "BW/node (MB/s)"],
            &table_rows,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small, fast stand-ins for the full drivers (debug-build tests).
    fn tiny_montage() -> Workflow {
        montage(6, 96)
    }

    #[test]
    fn memfs_beats_amfs_on_montage_at_high_core_counts() {
        // The essence of Figures 7a/8a: with 8 cores per node AMFS'
        // locality misses hurt mDiffFit; MemFS finishes faster.
        let wf = tiny_montage();
        let d = Deployment::full(ClusterSpec::das4_ipoib(16));
        let memfs = run_config("t", &wf, d.clone(), FsModelKind::MemFs, &MONTAGE_STAGES);
        let amfs = run_config("t", &wf, d, FsModelKind::Amfs, &MONTAGE_STAGES);
        let total = |rows: &[ScalingRow]| rows.iter().map(|r| r.stage_secs).sum::<f64>();
        assert!(memfs.iter().all(|r| r.failed.is_none()));
        assert!(amfs.iter().all(|r| r.failed.is_none()));
        assert!(
            total(&memfs) < total(&amfs),
            "MemFS {} vs AMFS {}",
            total(&memfs),
            total(&amfs)
        );
    }

    #[test]
    fn memfs_vertical_scaling_on_cpu_bound_stage() {
        // mProjectPP is CPU-bound: doubling cores per node should cut its
        // time nearly in half (Figure 7a's MemFS bars).
        let wf = tiny_montage();
        let stage = |rows: &[ScalingRow], name: &str| {
            rows.iter().find(|r| r.stage == name).unwrap().stage_secs
        };
        let d2 = Deployment::full(ClusterSpec::das4_ipoib(16)).with_cores_per_node(2);
        let d8 = Deployment::full(ClusterSpec::das4_ipoib(16)).with_cores_per_node(8);
        let r2 = run_config("t", &wf, d2, FsModelKind::MemFs, &MONTAGE_STAGES);
        let r8 = run_config("t", &wf, d8, FsModelKind::MemFs, &MONTAGE_STAGES);
        let speedup = stage(&r2, "mProjectPP") / stage(&r8, "mProjectPP");
        assert!(
            (2.5..4.5).contains(&speedup),
            "mProjectPP 2->8 cores speedup {speedup}"
        );
    }

    #[test]
    fn single_mountpoint_hurts_beyond_knee() {
        // Figure 10 in miniature.
        let wf = montage(6, 64);
        let single = Deployment::full(ClusterSpec::ec2(4))
            .with_cores_per_node(32)
            .with_single_mount();
        let per_proc = Deployment::full(ClusterSpec::ec2(4)).with_cores_per_node(32);
        let r_single = run_config("t", &wf, single, FsModelKind::MemFs, &MONTAGE_STAGES);
        let r_pp = run_config("t", &wf, per_proc, FsModelKind::MemFs, &MONTAGE_STAGES);
        let io_stage = |rows: &[ScalingRow]| {
            rows.iter()
                .find(|r| r.stage == "mDiffFit")
                .unwrap()
                .stage_secs
        };
        assert!(
            io_stage(&r_single) > io_stage(&r_pp) * 1.2,
            "single {} vs per-process {}",
            io_stage(&r_single),
            io_stage(&r_pp)
        );
    }

    #[test]
    fn horizontal_scaling_reduces_stage_times() {
        let wf = tiny_montage();
        let d8 = Deployment::full(ClusterSpec::das4_ipoib(8));
        let d32 = Deployment::full(ClusterSpec::das4_ipoib(32));
        let r8 = run_config("t", &wf, d8, FsModelKind::MemFs, &MONTAGE_STAGES);
        let r32 = run_config("t", &wf, d32, FsModelKind::MemFs, &MONTAGE_STAGES);
        let total = |rows: &[ScalingRow]| rows.iter().map(|r| r.stage_secs).sum::<f64>();
        assert!(total(&r32) < total(&r8) / 1.8);
    }

    #[test]
    fn render_groups_by_figure() {
        let wf = tiny_montage();
        let d = Deployment::full(ClusterSpec::das4_ipoib(8));
        let rows = run_config("figX", &wf, d, FsModelKind::MemFs, &MONTAGE_STAGES);
        let out = render_scaling(&rows);
        assert!(out.contains("[figX]"));
        assert!(out.contains("mDiffFit"));
    }
}
