//! Memory-distribution drivers: Figure 9 (aggregate memory consumption)
//! and Table 3 (AMFS' scheduler-node hotspot), plus the Montage 12x12
//! AMFS crash demonstration (§4.2.1).

use memfs_cluster::{ClusterSpec, Deployment};

use crate::engine::WorkflowSim;
use crate::experiments::scaling::bundle_for;
use crate::fsmodel::FsModelKind;
use crate::montage::montage;
use crate::report;
use crate::sched::{SchedulerKind, SHELL_NODE};

/// One Figure 9 / Table 3 measurement.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Node count.
    pub nodes: usize,
    /// "MemFS" or "AMFS".
    pub system: &'static str,
    /// Aggregate peak memory over all nodes, bytes (Figure 9).
    pub aggregate_peak: u64,
    /// Peak on the scheduler node (Table 3's first column).
    pub scheduler_node_peak: u64,
    /// Mean peak over the other nodes (Table 3's second column).
    pub other_nodes_mean_peak: u64,
    /// Set when the run failed (AMFS on oversized workflows).
    pub failed: Option<String>,
}

fn run_one(nodes: usize, degree: u32, fs: FsModelKind) -> MemoryRow {
    let wf = montage(degree, bundle_for(nodes * 8));
    let deployment = Deployment::full(ClusterSpec::das4_ipoib(nodes));
    let (system, scheduler, deployment) = match fs {
        FsModelKind::MemFs => ("MemFS", SchedulerKind::Uniform, deployment),
        FsModelKind::Amfs => (
            // AMFS runs one FS process and one mountpoint per node.
            "AMFS",
            SchedulerKind::LocalityAware,
            deployment.with_single_mount(),
        ),
    };
    let sim = WorkflowSim {
        deployment,
        fs,
        scheduler,
    };
    let r = sim.run(&wf);
    let sched_peak = r.peak_mem_per_node.get(SHELL_NODE).copied().unwrap_or(0);
    let others: Vec<u64> = r
        .peak_mem_per_node
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != SHELL_NODE)
        .map(|(_, &v)| v)
        .collect();
    let other_mean = if others.is_empty() {
        0
    } else {
        others.iter().sum::<u64>() / others.len() as u64
    };
    MemoryRow {
        nodes,
        system,
        aggregate_peak: r.aggregate_peak_mem,
        scheduler_node_peak: sched_peak,
        other_nodes_mean_peak: other_mean,
        failed: r.failed,
    }
}

/// Figure 9: Montage 6 aggregate memory consumption, 8-64 nodes, both
/// systems; also yields Table 3's per-node distribution for AMFS.
pub fn run_fig9_table3() -> Vec<MemoryRow> {
    let mut rows = Vec::new();
    for nodes in [8usize, 16, 32, 64] {
        rows.push(run_one(nodes, 6, FsModelKind::MemFs));
        rows.push(run_one(nodes, 6, FsModelKind::Amfs));
    }
    rows
}

/// The Montage 12x12 contrast: AMFS crashes accumulating data on the
/// scheduler node, MemFS completes (§4.2.1). Returns (MemFS, AMFS) rows.
pub fn run_montage12_crash(nodes: usize) -> (MemoryRow, MemoryRow) {
    (
        run_one(nodes, 12, FsModelKind::MemFs),
        run_one(nodes, 12, FsModelKind::Amfs),
    )
}

/// Render Figure 9.
pub fn render_fig9(rows: &[MemoryRow]) -> String {
    let mut out = String::from("Figure 9: Montage 6 aggregate memory consumption (GB)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} nodes", r.nodes),
                r.system.to_string(),
                report::gb(r.aggregate_peak),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["Scale", "System", "Aggregate peak"],
        &table_rows,
    ));
    out
}

/// Render Table 3 (AMFS rows only).
pub fn render_table3(rows: &[MemoryRow]) -> String {
    let mut out = String::from("Table 3: AMFS memory distribution for Montage 6 (GB)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .filter(|r| r.system == "AMFS")
        .map(|r| {
            vec![
                r.nodes.to_string(),
                report::gb(r.scheduler_node_peak),
                report::gb(r.other_nodes_mean_peak),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["Nodes", "Scheduler Node", "Other Nodes"],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amfs_concentrates_memory_on_scheduler_node() {
        // Table 3 at 8 nodes: scheduler 19 GB vs others 9.5 GB — a ~2x
        // hotspot that widens with scale (16 GB vs 1.8 GB at 64 nodes).
        let r8 = run_one(8, 6, FsModelKind::Amfs);
        assert!(r8.failed.is_none(), "{:?}", r8.failed);
        let ratio8 = r8.scheduler_node_peak as f64 / r8.other_nodes_mean_peak.max(1) as f64;
        assert!(
            ratio8 > 1.5,
            "scheduler {} vs others {}",
            r8.scheduler_node_peak,
            r8.other_nodes_mean_peak
        );
        let r32 = run_one(32, 6, FsModelKind::Amfs);
        assert!(r32.failed.is_none(), "{:?}", r32.failed);
        let ratio32 = r32.scheduler_node_peak as f64 / r32.other_nodes_mean_peak.max(1) as f64;
        assert!(
            ratio32 > ratio8,
            "hotspot should widen with scale: {ratio8} -> {ratio32}"
        );
    }

    #[test]
    fn memfs_stays_balanced_and_leaner() {
        let memfs = run_one(8, 6, FsModelKind::MemFs);
        let amfs = run_one(8, 6, FsModelKind::Amfs);
        assert!(memfs.failed.is_none());
        // Balanced: scheduler node ≈ others.
        let ratio = memfs.scheduler_node_peak as f64 / memfs.other_nodes_mean_peak.max(1) as f64;
        assert!((0.8..1.3).contains(&ratio), "MemFS imbalance {ratio}");
        // Leaner aggregate than replicating AMFS (Figure 9).
        assert!(memfs.aggregate_peak < amfs.aggregate_peak);
    }

    #[test]
    fn amfs_uses_more_memory_at_every_scale() {
        // Figure 9: AMFS' replicate-on-read keeps its aggregate footprint
        // above MemFS' single-copy striping at every scale.
        for nodes in [8usize, 32] {
            let a = run_one(nodes, 6, FsModelKind::Amfs);
            let m = run_one(nodes, 6, FsModelKind::MemFs);
            assert!(a.failed.is_none(), "AMFS failed at {nodes}: {:?}", a.failed);
            assert!(
                a.aggregate_peak > m.aggregate_peak,
                "at {nodes} nodes: AMFS {} <= MemFS {}",
                a.aggregate_peak,
                m.aggregate_peak
            );
        }
    }

    #[test]
    fn renders_contain_both_artifacts() {
        let rows = vec![
            MemoryRow {
                nodes: 8,
                system: "AMFS",
                aggregate_peak: 60_000_000_000,
                scheduler_node_peak: 19_000_000_000,
                other_nodes_mean_peak: 9_500_000_000,
                failed: None,
            },
            MemoryRow {
                nodes: 8,
                system: "MemFS",
                aggregate_peak: 50_000_000_000,
                scheduler_node_peak: 6_000_000_000,
                other_nodes_mean_peak: 6_100_000_000,
                failed: None,
            },
        ];
        assert!(render_fig9(&rows).contains("MemFS"));
        let t3 = render_table3(&rows);
        assert!(t3.contains("19.0"));
        assert!(!t3.contains("MemFS"));
    }
}
