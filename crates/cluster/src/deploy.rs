//! Deployment descriptions: cluster + memory split + mountpoint strategy.
//!
//! A [`Deployment`] bundles everything the experiment drivers in
//! `memfs-mtc` need to instantiate a simulated platform: the cluster spec,
//! the per-node storage budget ("we reserve 4GB for running the
//! applications ... the rest is used by either MemFS or AMFS", §4), the
//! per-FUSE-process overhead ("each FUSE process allocates around 200MB",
//! §4.2.1), and the mountpoint strategy of Figure 10.

use memfs_simcore::units::{GB, MB};

use crate::memory::MemoryTracker;
use crate::mount::MountModel;
use crate::node::ClusterSpec;

pub use crate::mount::MountModel as MountStrategy;

/// Bytes reserved on each node for the application + OS (paper §4).
pub const APP_RESERVED_BYTES: u64 = 4 * GB;
/// Baseline overhead of one FUSE file-system process (paper §4.2.1).
pub const FUSE_PROCESS_OVERHEAD: u64 = 200 * MB;

/// A fully specified simulated platform.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Machines and interconnect.
    pub cluster: ClusterSpec,
    /// Mountpoint strategy (Figure 10's variable).
    pub mount: MountModel,
    /// Tasks scheduled concurrently per node ("cores used").
    pub cores_per_node: usize,
}

/// A compact, serializable record of a deployment for experiment output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentLabel {
    /// Platform name ("DAS4-IPoIB", …).
    pub platform: String,
    /// Node count.
    pub nodes: usize,
    /// Concurrent tasks per node.
    pub cores_per_node: usize,
    /// Total concurrent tasks.
    pub total_cores: usize,
}

impl Deployment {
    /// A deployment using every core of every node with per-process
    /// mounts (MemFS' best configuration).
    pub fn full(cluster: ClusterSpec) -> Self {
        let cores_per_node = cluster.node.cores;
        Deployment {
            cluster,
            mount: MountModel::PerProcess,
            cores_per_node,
        }
    }

    /// Restrict to `cores_per_node` concurrent tasks per node (vertical
    /// scaling experiments).
    pub fn with_cores_per_node(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core per node");
        self.cores_per_node = cores;
        self
    }

    /// Use a single shared mountpoint per node (Figure 10a's deployment).
    pub fn with_single_mount(mut self) -> Self {
        self.mount = MountModel::Single;
        self
    }

    /// Per-node bytes available to the runtime file system: DRAM minus the
    /// application reservation minus the FS processes' own footprint.
    pub fn storage_budget_per_node(&self) -> u64 {
        let fs_processes = match self.mount {
            MountModel::Single => 1,
            MountModel::PerProcess => self.cores_per_node as u64,
        };
        self.cluster
            .node
            .dram_bytes
            .saturating_sub(APP_RESERVED_BYTES)
            .saturating_sub(fs_processes * FUSE_PROCESS_OVERHEAD)
    }

    /// A [`MemoryTracker`] sized for this deployment.
    pub fn memory_tracker(&self) -> MemoryTracker {
        MemoryTracker::new(self.cluster.n_nodes, self.storage_budget_per_node())
    }

    /// The total concurrent task slots across the cluster.
    pub fn total_cores(&self) -> usize {
        self.cluster.n_nodes * self.cores_per_node
    }

    /// Serializable label for experiment records.
    pub fn label(&self) -> DeploymentLabel {
        DeploymentLabel {
            platform: self.cluster.profile.name.to_string(),
            nodes: self.cluster.n_nodes,
            cores_per_node: self.cores_per_node,
            total_cores: self.total_cores(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das4_budget_matches_paper_arithmetic() {
        // 24 GB - 4 GB reserved - 8 x 200 MB FUSE = ~18.4 GB for storage.
        let d = Deployment::full(ClusterSpec::das4_ipoib(64));
        assert_eq!(d.cores_per_node, 8);
        assert_eq!(d.total_cores(), 512);
        assert_eq!(d.storage_budget_per_node(), 24 * GB - 4 * GB - 8 * 200 * MB);
    }

    #[test]
    fn single_mount_has_one_fuse_process() {
        let d = Deployment::full(ClusterSpec::das4_ipoib(8)).with_single_mount();
        assert_eq!(d.storage_budget_per_node(), 24 * GB - 4 * GB - 200 * MB);
        assert_eq!(d.mount, MountModel::Single);
    }

    #[test]
    fn vertical_scaling_restricts_cores() {
        let d = Deployment::full(ClusterSpec::das4_ipoib(64)).with_cores_per_node(4);
        assert_eq!(d.total_cores(), 256);
    }

    #[test]
    fn tracker_is_sized_by_deployment() {
        let d = Deployment::full(ClusterSpec::ec2(32));
        let t = d.memory_tracker();
        assert_eq!(t.n_nodes(), 32);
        assert_eq!(t.capacity(), d.storage_budget_per_node());
    }

    #[test]
    fn label_summarizes_deployment() {
        let d = Deployment::full(ClusterSpec::ec2(8)).with_cores_per_node(16);
        let label = d.label();
        assert_eq!(label.total_cores, 128);
        assert_eq!(label.nodes, 8);
        assert_eq!(label.platform, "EC2-10GbE");
    }
}
