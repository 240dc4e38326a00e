//! Placement-balance measurement.
//!
//! MemFS' central claim is that hashing stripes across all servers gives a
//! *balanced data distribution* — the property AMFS' local writes destroy
//! (paper Table 3, Figure 9). This module quantifies balance for a given
//! distributor and key population: per-server load, max/mean imbalance
//! and the coefficient of variation.

use crate::dist::Distributor;

/// Result of distributing a set of weighted keys over servers.
#[derive(Debug, Clone)]
pub struct BalanceReport {
    /// Bytes (or unit counts) assigned to each server.
    pub load: Vec<u64>,
}

impl BalanceReport {
    /// Distribute `keys` (each with a weight, e.g. stripe size) with `d`.
    pub fn measure<'a, D, I>(d: &D, keys: I) -> BalanceReport
    where
        D: Distributor + ?Sized,
        I: IntoIterator<Item = (&'a [u8], u64)>,
    {
        let mut load = vec![0u64; d.n_servers()];
        for (key, weight) in keys {
            load[d.server_for(key).0] += weight;
        }
        BalanceReport { load }
    }

    /// Total weight distributed.
    pub fn total(&self) -> u64 {
        self.load.iter().sum()
    }

    /// Mean load per server.
    pub fn mean(&self) -> f64 {
        if self.load.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.load.len() as f64
        }
    }

    /// Max/mean load ratio; 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            return 1.0;
        }
        *self.load.iter().max().expect("non-empty") as f64 / mean
    }

    /// Coefficient of variation (stddev/mean) of the per-server load.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 || self.load.len() < 2 {
            return 0.0;
        }
        let var = self
            .load
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (self.load.len() - 1) as f64;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{KetamaRing, ModuloRing};
    use crate::schema::KeySchema;

    fn stripe_keys(files: usize, stripes_per_file: u64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for f in 0..files {
            for s in 0..stripes_per_file {
                out.push(KeySchema::stripe_key(&format!("/wf/file{f:05}.dat"), 0, s));
            }
        }
        out
    }

    #[test]
    fn modulo_balances_stripe_keys_well() {
        // The paper's workload shape: many files, each striped.
        let keys = stripe_keys(500, 16);
        let d = ModuloRing::new(64);
        let report = BalanceReport::measure(&d, keys.iter().map(|k| (k.as_slice(), 512 * 1024u64)));
        assert_eq!(report.total(), 500 * 16 * 512 * 1024);
        assert!(
            report.imbalance() < 1.25,
            "modulo imbalance {} too high",
            report.imbalance()
        );
        assert!(report.cv() < 0.15, "cv {} too high", report.cv());
    }

    #[test]
    fn ketama_balances_reasonably() {
        let keys = stripe_keys(500, 16);
        let d = KetamaRing::with_n_servers(16, 160);
        let report = BalanceReport::measure(&d, keys.iter().map(|k| (k.as_slice(), 1u64)));
        // Ketama with 160 points is noticeably noisier than modulo but must
        // stay within ~2x of mean.
        assert!(
            report.imbalance() < 2.0,
            "ketama imbalance {} too high",
            report.imbalance()
        );
    }

    #[test]
    fn local_writes_are_maximally_imbalanced() {
        // The AMFS contrast: everything written by one node lands on it.
        let report = BalanceReport {
            load: vec![1000, 0, 0, 0],
        };
        assert!((report.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_neutral() {
        let report = BalanceReport { load: vec![0; 8] };
        assert_eq!(report.total(), 0);
        assert_eq!(report.imbalance(), 1.0);
        assert_eq!(report.cv(), 0.0);
    }

    #[test]
    fn perfect_balance_has_unit_imbalance() {
        let report = BalanceReport {
            load: vec![10, 10, 10, 10],
        };
        assert_eq!(report.imbalance(), 1.0);
    }
}
