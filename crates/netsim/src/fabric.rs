//! Cluster network topology: per-node NIC constraints over a full-bisection
//! core, plus a memory-bandwidth constraint for node-local transfers.

use crate::maxmin::ConstraintId;

/// Index of a node (compute/storage machine) in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A full-bisection fabric of `n` identical nodes.
///
/// Constraint layout (used by [`crate::FlowNet`]):
/// * `3i`     — node `i` egress NIC capacity,
/// * `3i + 1` — node `i` ingress NIC capacity,
/// * `3i + 2` — node `i` memory bandwidth (local copies; also charged by
///   remote transfers touching the node's DRAM),
/// * `3n`     — optional aggregate core capacity (absent when the core is
///   non-blocking, the DAS4/EC2 assumption).
#[derive(Debug, Clone)]
pub struct Fabric {
    n_nodes: usize,
    nic_bw: f64,
    mem_bw: f64,
    core_bw: Option<f64>,
}

impl Fabric {
    /// A fabric of `n_nodes` nodes with `nic_bw` bytes/s full-duplex NICs
    /// and `mem_bw` bytes/s local memory bandwidth.
    ///
    /// # Panics
    /// Panics on zero nodes or non-positive bandwidths.
    pub fn new(n_nodes: usize, nic_bw: f64, mem_bw: f64) -> Self {
        assert!(n_nodes > 0, "fabric needs at least one node");
        assert!(nic_bw > 0.0 && mem_bw > 0.0, "bandwidths must be positive");
        Fabric {
            n_nodes,
            nic_bw,
            mem_bw,
            core_bw: None,
        }
    }

    /// Limit the aggregate traffic crossing the core to `core_bw` bytes/s
    /// (models an oversubscribed spine; unused for the paper's platforms,
    /// available for ablations).
    pub fn with_core_capacity(mut self, core_bw: f64) -> Self {
        assert!(core_bw > 0.0, "core bandwidth must be positive");
        self.core_bw = Some(core_bw);
        self
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// NIC bandwidth in bytes/s (each direction).
    pub fn nic_bw(&self) -> f64 {
        self.nic_bw
    }

    /// Node-local memory bandwidth in bytes/s.
    pub fn mem_bw(&self) -> f64 {
        self.mem_bw
    }

    /// The constraint-capacity vector for the max-min solver.
    pub fn capacities(&self) -> Vec<f64> {
        let mut caps = Vec::with_capacity(3 * self.n_nodes + 1);
        for _ in 0..self.n_nodes {
            caps.push(self.nic_bw); // egress
            caps.push(self.nic_bw); // ingress
            caps.push(self.mem_bw); // memory
        }
        if let Some(core) = self.core_bw {
            caps.push(core);
        }
        caps
    }

    /// The constraints a transfer from `src` to `dst` traverses.
    ///
    /// Local transfers (`src == dst`) touch only the node's memory system;
    /// remote transfers use the source egress NIC, the destination ingress
    /// NIC and (if configured) the shared core. Remote transfers also charge
    /// both endpoints' memory bandwidth; with the paper's platforms memory
    /// is 10x faster than the NIC, so this only matters when a node serves
    /// many concurrent streams — exactly the regime of Figure 16's
    /// system-vs-application bandwidth analysis.
    ///
    /// # Panics
    /// Panics if either node is out of range.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<ConstraintId> {
        assert!(src.0 < self.n_nodes, "src node {} out of range", src.0);
        assert!(dst.0 < self.n_nodes, "dst node {} out of range", dst.0);
        if src == dst {
            vec![3 * src.0 + 2]
        } else {
            let mut route = vec![3 * src.0, 3 * dst.0 + 1, 3 * src.0 + 2, 3 * dst.0 + 2];
            if self.core_bw.is_some() {
                route.push(3 * self.n_nodes);
            }
            route
        }
    }

    /// The route of a **striped read** landing on `dst`: a symmetric
    /// transfer whose sources are spread over all servers. Only the
    /// reader's ingress NIC and memory constrain it individually; the
    /// spread source side is accounted collectively by the aggregate
    /// constraint (see [`Self::aggregate_constraint`]).
    ///
    /// # Panics
    /// Panics unless the fabric was built
    /// [`Self::with_aggregate_capacity`]; without the collective
    /// constraint, half-routes would under-count the serving side.
    pub fn route_striped_read(&self, dst: NodeId) -> Vec<ConstraintId> {
        assert!(dst.0 < self.n_nodes, "dst node {} out of range", dst.0);
        let agg = self
            .aggregate_constraint()
            .expect("striped routes need with_aggregate_capacity");
        vec![3 * dst.0 + 1, 3 * dst.0 + 2, agg]
    }

    /// The route of a **striped write** leaving `src` toward all servers;
    /// mirror of [`Self::route_striped_read`].
    ///
    /// # Panics
    /// Panics unless the fabric has an aggregate constraint.
    pub fn route_striped_write(&self, src: NodeId) -> Vec<ConstraintId> {
        assert!(src.0 < self.n_nodes, "src node {} out of range", src.0);
        let agg = self
            .aggregate_constraint()
            .expect("striped routes need with_aggregate_capacity");
        vec![3 * src.0, 3 * src.0 + 2, agg]
    }

    /// Id of the aggregate (whole-fabric) constraint, if configured.
    pub fn aggregate_constraint(&self) -> Option<ConstraintId> {
        self.core_bw.map(|_| 3 * self.n_nodes)
    }

    /// Add the collective fabric constraint sized for symmetric traffic:
    /// every transferred byte consumes one NIC egress somewhere and one
    /// NIC ingress somewhere, so the fabric as a whole moves at most
    /// `n * nic_bw` bytes/s. Required when using the striped half-routes.
    pub fn with_aggregate_capacity(self) -> Self {
        let cap = self.n_nodes as f64 * self.nic_bw;
        self.with_core_capacity(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_layout() {
        let f = Fabric::new(2, 100.0, 1000.0);
        assert_eq!(
            f.capacities(),
            vec![100.0, 100.0, 1000.0, 100.0, 100.0, 1000.0]
        );
        let f = f.with_core_capacity(150.0);
        assert_eq!(f.capacities().len(), 7);
        assert_eq!(f.capacities()[6], 150.0);
    }

    #[test]
    fn remote_route_uses_both_nics_and_memories() {
        let f = Fabric::new(4, 100.0, 1000.0);
        let r = f.route(NodeId(1), NodeId(3));
        assert_eq!(r, vec![3, 10, 5, 11]);
    }

    #[test]
    fn local_route_uses_memory_only() {
        let f = Fabric::new(4, 100.0, 1000.0);
        assert_eq!(f.route(NodeId(2), NodeId(2)), vec![8]);
    }

    #[test]
    fn core_constraint_appended_when_configured() {
        let f = Fabric::new(2, 100.0, 1000.0).with_core_capacity(50.0);
        let r = f.route(NodeId(0), NodeId(1));
        assert!(r.contains(&6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        let f = Fabric::new(2, 100.0, 1000.0);
        f.route(NodeId(0), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        Fabric::new(0, 1.0, 1.0);
    }
}
