//! File-system policy models for the cluster simulator.
//!
//! The simulation engine asks one question per I/O phase: *given this node
//! reads/writes these files, how many bytes move over which routes, how
//! much protocol time is charged, and what memory is consumed where?*
//! The two answers — MemFS' symmetric striping versus AMFS' local writes
//! with replicate-on-read — are this module.
//!
//! MemFS placement *is* symmetric by construction (every node holds `1/N`
//! of every file); AMFS placement tracks each file's owner and the nodes
//! that replicated it on read.

use std::collections::BTreeSet;

use memfs_cluster::{Deployment, MemoryTracker};
use memfs_netsim::{Fabric, NodeId};

use crate::calibrate;
use crate::workflow::{FileId, Workflow};

/// Which file system the simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsModelKind {
    /// MemFS: files striped over all nodes by the distributed hash.
    MemFs,
    /// AMFS: whole files on the writer node, replicate-on-read.
    Amfs,
}

/// The network work of one I/O phase, ready to hand to the flow engine.
#[derive(Debug, Clone, Default)]
pub struct IoPlan {
    /// Bytes to move over the striped half-route of the task's node
    /// (reads land on ingress, writes leave via egress).
    pub striped_bytes: u64,
    /// Pairwise transfers `(source node, bytes)` into the task's node
    /// (AMFS remote reads).
    pub pairwise_in: Vec<(usize, u64)>,
    /// Total bytes the client pushes through its FUSE mount (local or
    /// remote alike — every byte crosses the mount).
    pub mount_bytes: u64,
    /// Minimum protocol duration (AMFS' slow whole-file remote-read
    /// path; per-file metadata costs).
    pub min_secs: f64,
}

/// Tracks file placement and memory during a simulated run.
pub struct FsModel {
    kind: FsModelKind,
    n_nodes: usize,
    /// AMFS: owner node per file (usize::MAX = not yet written).
    owner: Vec<usize>,
    /// AMFS: nodes holding replicas (owner included once written).
    replicas: Vec<BTreeSet<usize>>,
    /// Memory ledger.
    pub memory: MemoryTracker,
    /// Sizes, copied from the workflow for fast access.
    sizes: Vec<u64>,
}

/// A memory failure pinned to the operation that triggered it (the AMFS
/// Montage-12 crash of paper §4.2.1 surfaces through this).
#[derive(Debug, Clone)]
pub struct FsOom {
    /// The node that overflowed.
    pub node: usize,
    /// Human-readable description.
    pub detail: String,
}

impl FsModel {
    /// Create the model for `workflow` under `deployment`.
    pub fn new(kind: FsModelKind, deployment: &Deployment, workflow: &Workflow) -> Self {
        let n_nodes = deployment.cluster.n_nodes;
        FsModel {
            kind,
            n_nodes,
            owner: vec![usize::MAX; workflow.files.len()],
            replicas: vec![BTreeSet::new(); workflow.files.len()],
            memory: deployment.memory_tracker(),
            sizes: workflow.files.iter().map(|f| f.size).collect(),
        }
    }

    /// Which model this is.
    pub fn kind(&self) -> FsModelKind {
        self.kind
    }

    /// Stage input files into the runtime FS before execution. MemFS
    /// stripes them; under AMFS the shell performs the global
    /// partitioning and writes locally — the first source of the paper's
    /// storage imbalance ("when writing locally, this can lead to severe
    /// storage imbalance among nodes", §2). The shell spreads the
    /// overflow round-robin once its own node approaches capacity, so an
    /// oversized *input* set still stages (the paper's AMFS failure
    /// happens later, when aggregation pulls the generated data back).
    pub fn stage_in(&mut self, files: &[FileId]) -> Result<(), FsOom> {
        let shell = crate::sched::SHELL_NODE;
        let shell_headroom = self.memory.capacity() * 3 / 4;
        let mut next_other = 0usize;
        for &f in files {
            match self.kind {
                FsModelKind::MemFs => self.alloc_striped(f)?,
                FsModelKind::Amfs => {
                    let node = if self.memory.used(shell) + self.sizes[f.0] <= shell_headroom {
                        shell
                    } else {
                        next_other += 1;
                        (shell + next_other) % self.n_nodes
                    };
                    self.record_amfs_write(f, node)?;
                }
            }
        }
        Ok(())
    }

    /// The AMFS locality hint: the owner of `file`, if written.
    pub fn owner_of(&self, file: FileId) -> Option<usize> {
        match self.kind {
            FsModelKind::MemFs => None, // locality-agnostic
            FsModelKind::Amfs => {
                let o = self.owner[file.0];
                (o != usize::MAX).then_some(o)
            }
        }
    }

    /// Nodes currently holding a copy of `file` (AMFS; empty for MemFS).
    pub fn replica_holders(&self, file: FileId) -> Vec<usize> {
        match self.kind {
            FsModelKind::MemFs => Vec::new(),
            FsModelKind::Amfs => self.replicas[file.0].iter().copied().collect(),
        }
    }

    /// Plan the read phase of a task on `node` reading `inputs`, charging
    /// replication memory as a side effect (AMFS).
    pub fn plan_read(
        &mut self,
        node: usize,
        inputs: &[FileId],
        nic_bw: f64,
    ) -> Result<IoPlan, FsOom> {
        let mut plan = IoPlan::default();
        for &f in inputs {
            let size = self.sizes[f.0];
            plan.mount_bytes += size;
            match self.kind {
                FsModelKind::MemFs => {
                    // Stripes come from everywhere; (N-1)/N of the bytes
                    // cross the network.
                    let remote = size - size / self.n_nodes as u64;
                    plan.striped_bytes += remote;
                    plan.min_secs += calibrate::MEMFS_OPEN_CPU_SECS;
                }
                FsModelKind::Amfs => {
                    plan.min_secs += calibrate::AMFS_READ_OVERHEAD_SECS;
                    if self.replicas[f.0].contains(&node) {
                        continue; // local hit
                    }
                    let owner = self.owner[f.0];
                    debug_assert!(owner != usize::MAX, "read of unwritten file");
                    // Whole-file pull over the slow AMFS remote path...
                    plan.pairwise_in.push((owner, size));
                    plan.min_secs += size as f64 / calibrate::amfs_remote_bw(nic_bw);
                    // ...then replicate-on-read.
                    self.memory.alloc(node, size).map_err(|e| FsOom {
                        node,
                        detail: format!("replicate-on-read of {} bytes failed: {e}", size),
                    })?;
                    self.replicas[f.0].insert(node);
                }
            }
        }
        Ok(plan)
    }

    /// Plan the write phase of a task on `node` writing `outputs`,
    /// charging storage memory as a side effect.
    pub fn plan_write(&mut self, node: usize, outputs: &[FileId]) -> Result<IoPlan, FsOom> {
        let mut plan = IoPlan::default();
        for &f in outputs {
            let size = self.sizes[f.0];
            plan.mount_bytes += size;
            match self.kind {
                FsModelKind::MemFs => {
                    let remote = size - size / self.n_nodes as u64;
                    plan.striped_bytes += remote;
                    plan.min_secs +=
                        calibrate::MEMFS_WRITE_META_OPS * calibrate::MEMFS_CREATE_CPU_SECS / 3.0;
                    self.alloc_striped(f)?;
                }
                FsModelKind::Amfs => {
                    plan.min_secs += calibrate::AMFS_WRITE_OVERHEAD_SECS;
                    self.record_amfs_write(f, node)?;
                }
            }
        }
        Ok(plan)
    }

    fn alloc_striped(&mut self, f: FileId) -> Result<(), FsOom> {
        let size = self.sizes[f.0];
        let share = size / self.n_nodes as u64;
        let mut rem = size - share * self.n_nodes as u64;
        for node in 0..self.n_nodes {
            let extra = if rem > 0 {
                rem -= 1;
                1
            } else {
                0
            };
            self.memory.alloc(node, share + extra).map_err(|e| FsOom {
                node,
                detail: format!("striped store of {size} bytes failed: {e}"),
            })?;
        }
        self.owner[f.0] = 0; // striped files have no owner; mark written
        Ok(())
    }

    fn record_amfs_write(&mut self, f: FileId, node: usize) -> Result<(), FsOom> {
        let size = self.sizes[f.0];
        self.memory.alloc(node, size).map_err(|e| FsOom {
            node,
            detail: format!("local write of {size} bytes failed: {e}"),
        })?;
        self.owner[f.0] = node;
        self.replicas[f.0].insert(node);
        Ok(())
    }

    /// Unlink `file`: release its memory everywhere (striped shares for
    /// MemFS; the authoritative copy and every replica for AMFS) and
    /// forget its placement.
    pub fn free_file(&mut self, f: FileId) {
        let size = self.sizes[f.0];
        match self.kind {
            FsModelKind::MemFs => {
                if self.owner[f.0] == usize::MAX {
                    return; // never written
                }
                let share = size / self.n_nodes as u64;
                let mut rem = size - share * self.n_nodes as u64;
                for node in 0..self.n_nodes {
                    let extra = if rem > 0 {
                        rem -= 1;
                        1
                    } else {
                        0
                    };
                    self.memory.free(node, share + extra);
                }
                self.owner[f.0] = usize::MAX;
            }
            FsModelKind::Amfs => {
                for node in std::mem::take(&mut self.replicas[f.0]) {
                    self.memory.free(node, size);
                }
                self.owner[f.0] = usize::MAX;
            }
        }
    }

    /// Build the fabric for `deployment` with the aggregate constraint the
    /// striped half-routes require.
    pub fn fabric(deployment: &Deployment) -> Fabric {
        deployment
            .cluster
            .profile
            .fabric(deployment.cluster.n_nodes)
            .with_aggregate_capacity()
    }

    /// Striped-read route helper (reads land on `node`'s ingress).
    pub fn striped_read_route(fabric: &Fabric, node: usize) -> Vec<usize> {
        fabric.route_striped_read(NodeId(node))
    }

    /// Striped-write route helper.
    pub fn striped_write_route(fabric: &Fabric, node: usize) -> Vec<usize> {
        fabric.route_striped_write(NodeId(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs_cluster::ClusterSpec;

    fn setup(kind: FsModelKind, n_nodes: usize) -> (FsModel, Workflow, Deployment) {
        let mut wf = Workflow::new("t");
        let a = wf.add_input("/a", 1000);
        let b = wf.add_input("/b", 500);
        wf.add_task("s", vec![a, b], vec![("/out".into(), 2000)], 1.0);
        let deployment = Deployment::full(ClusterSpec::das4_ipoib(n_nodes));
        let model = FsModel::new(kind, &deployment, &wf);
        (model, wf, deployment)
    }

    #[test]
    fn memfs_stage_in_stripes_evenly() {
        let (mut m, wf, _) = setup(FsModelKind::MemFs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        let per_node: Vec<u64> = (0..4).map(|n| m.memory.used(n)).collect();
        assert_eq!(per_node.iter().sum::<u64>(), 1500);
        let max = per_node.iter().max().unwrap();
        let min = per_node.iter().min().unwrap();
        assert!(max - min <= 2, "striping imbalance: {per_node:?}");
    }

    #[test]
    fn amfs_stage_in_lands_on_shell_node() {
        let (mut m, wf, _) = setup(FsModelKind::Amfs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        assert_eq!(m.memory.used(0), 1500);
        assert_eq!(m.memory.used(1), 0);
        assert_eq!(m.owner_of(FileId(0)), Some(0));
        assert_eq!(m.owner_of(FileId(1)), Some(0));
    }

    #[test]
    fn memfs_read_moves_remote_fraction() {
        let (mut m, wf, _) = setup(FsModelKind::MemFs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        let plan = m.plan_read(2, &[FileId(0), FileId(1)], 1e9).unwrap();
        // 3/4 of each file is remote.
        assert_eq!(plan.striped_bytes, 750 + 375);
        assert_eq!(plan.mount_bytes, 1500);
        assert!(plan.pairwise_in.is_empty());
        assert_eq!(m.owner_of(FileId(0)), None); // locality-agnostic
    }

    #[test]
    fn amfs_local_read_is_free_remote_read_replicates() {
        let (mut m, wf, _) = setup(FsModelKind::Amfs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        // Node 0 (the shell node) owns /a: local read, no traffic.
        let plan = m.plan_read(0, &[FileId(0)], 1e9).unwrap();
        assert!(plan.pairwise_in.is_empty());
        assert_eq!(plan.striped_bytes, 0);
        // Node 3 reads /a: pairwise pull from node 0 + replica charged.
        let before = m.memory.used(3);
        let plan = m.plan_read(3, &[FileId(0)], 1e9).unwrap();
        assert_eq!(plan.pairwise_in, vec![(0, 1000)]);
        assert!(plan.min_secs > 1000.0 / 1e9, "slow remote path charged");
        assert_eq!(m.memory.used(3), before + 1000);
        assert!(m.replica_holders(FileId(0)).contains(&3));
        // Second read from node 3 is now local.
        let plan = m.plan_read(3, &[FileId(0)], 1e9).unwrap();
        assert!(plan.pairwise_in.is_empty());
    }

    #[test]
    fn writes_place_data_per_policy() {
        let (mut m, wf, _) = setup(FsModelKind::Amfs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        let out = wf.tasks[0].outputs[0];
        let plan = m.plan_write(2, &[out]).unwrap();
        assert_eq!(plan.striped_bytes, 0);
        assert_eq!(m.owner_of(out), Some(2));
        assert_eq!(m.memory.used(2), 2000);

        let (mut m, wf, _) = setup(FsModelKind::MemFs, 4);
        m.stage_in(&wf.staged_inputs()).unwrap();
        let out = wf.tasks[0].outputs[0];
        let used_before: u64 = (0..4).map(|n| m.memory.used(n)).sum();
        let plan = m.plan_write(2, &[out]).unwrap();
        assert_eq!(plan.striped_bytes, 1500); // 3/4 of 2000
        let used_after: u64 = (0..4).map(|n| m.memory.used(n)).sum();
        assert_eq!(used_after - used_before, 2000);
    }

    #[test]
    fn amfs_replication_can_oom_a_node() {
        // Tiny cluster whose nodes hold 10 KB each.
        let mut wf = Workflow::new("t");
        // 6 KB fits the shell node's 75% stage-in headroom (7.5 KB).
        let big = wf.add_input("/big", 6_000);
        wf.add_task("s", vec![big], vec![("/o".into(), 10)], 0.0);
        let mut deployment = Deployment::full(ClusterSpec::das4_ipoib(2));
        // Shrink node memory via the cluster spec.
        deployment.cluster.node.dram_bytes =
            memfs_cluster::deploy::APP_RESERVED_BYTES + 8 * 200 * 1_000_000 + 10_000;
        let mut m = FsModel::new(FsModelKind::Amfs, &deployment, &wf);
        m.stage_in(&[big]).unwrap();
        assert_eq!(m.owner_of(big), Some(0));
        // Node 1 is pre-filled so replicating 6 KB overflows its 10 KB.
        m.memory.alloc(1, 5_000).unwrap();
        let err = m.plan_read(1, &[big], 1e9).unwrap_err();
        assert_eq!(err.node, 1);
        assert!(err.detail.contains("replicate-on-read"));
    }

    #[test]
    fn oom_during_striped_write_reports_node() {
        let mut wf = Workflow::new("t");
        let f = wf.add_input("/f", 100);
        wf.add_task("s", vec![f], vec![("/o".into(), 1 << 40)], 0.0);
        let deployment = Deployment::full(ClusterSpec::das4_ipoib(2));
        let mut m = FsModel::new(FsModelKind::MemFs, &deployment, &wf);
        m.stage_in(&[f]).unwrap();
        let out = wf.tasks[0].outputs[0];
        assert!(m.plan_write(0, &[out]).is_err());
    }
}
