//! Per-node memory accounting for the simulated cluster.
//!
//! This is the instrument behind the paper's storage-balance results:
//! Figure 9 (aggregate memory consumption, MemFS vs AMFS) and Table 3
//! (AMFS concentrating data on the "scheduler node"). The tracker records
//! current and peak usage per node and refuses allocations beyond a node's
//! budget — the failure mode that prevents AMFS from running the 12x12
//! Montage workflow in the paper (§4.2.1).

use std::fmt;

/// Error returned when a node's memory budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryError {
    /// The node that ran out.
    pub node: usize,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still free.
    pub available: u64,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} out of memory: requested {} bytes, {} available",
            self.node, self.requested, self.available
        )
    }
}

impl std::error::Error for MemoryError {}

/// Tracks memory usage across the nodes of a simulated cluster.
#[derive(Debug, Clone)]
pub struct MemoryTracker {
    capacity: u64,
    used: Vec<u64>,
    peak: Vec<u64>,
}

impl MemoryTracker {
    /// A tracker for `n_nodes` nodes with `capacity` bytes each (the
    /// storage budget, i.e. DRAM minus the 4 GB application reservation).
    pub fn new(n_nodes: usize, capacity: u64) -> Self {
        MemoryTracker {
            capacity,
            used: vec![0; n_nodes],
            peak: vec![0; n_nodes],
        }
    }

    /// Number of nodes tracked.
    pub fn n_nodes(&self) -> usize {
        self.used.len()
    }

    /// Per-node capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Reserve `bytes` on `node`; fails when the budget would be exceeded.
    pub fn alloc(&mut self, node: usize, bytes: u64) -> Result<(), MemoryError> {
        let used = &mut self.used[node];
        let available = self.capacity - *used;
        if bytes > available {
            return Err(MemoryError {
                node,
                requested: bytes,
                available,
            });
        }
        *used += bytes;
        if *used > self.peak[node] {
            self.peak[node] = *used;
        }
        Ok(())
    }

    /// Release `bytes` on `node`.
    ///
    /// # Panics
    /// Panics on releasing more than is allocated — an accounting bug.
    pub fn free(&mut self, node: usize, bytes: u64) {
        assert!(
            self.used[node] >= bytes,
            "node {node}: freeing {bytes} bytes but only {} allocated",
            self.used[node]
        );
        self.used[node] -= bytes;
    }

    /// Current usage of `node` in bytes.
    pub fn used(&self, node: usize) -> u64 {
        self.used[node]
    }

    /// Peak usage of `node` in bytes.
    pub fn peak(&self, node: usize) -> u64 {
        self.peak[node]
    }

    /// Per-node peaks (for Table 3-style reporting).
    pub fn peaks(&self) -> &[u64] {
        &self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_and_peaks() {
        let mut m = MemoryTracker::new(2, 1000);
        m.alloc(0, 600).unwrap();
        m.alloc(0, 300).unwrap();
        m.free(0, 500);
        assert_eq!(m.used(0), 400);
        assert_eq!(m.peak(0), 900);
        assert_eq!(m.used(1), 0);
        assert_eq!(m.peaks(), [900, 0]);
    }

    #[test]
    fn oom_reports_request_and_available() {
        let mut m = MemoryTracker::new(1, 100);
        m.alloc(0, 70).unwrap();
        let err = m.alloc(0, 50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.available, 30);
        assert_eq!(err.node, 0);
        // Failed alloc leaves state unchanged.
        assert_eq!(m.used(0), 70);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut m = MemoryTracker::new(1, 100);
        m.alloc(0, 10).unwrap();
        m.free(0, 20);
    }
}
