//! MemFS configuration.

/// Which key distributor the mount uses (paper §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistributorKind {
    /// FNV-1a `hash(key) mod N` — the paper's choice for a fixed server
    /// set.
    #[default]
    Modulo,
    /// Ketama consistent hashing with the given virtual points per server
    /// — the paper's named option for elastic membership.
    Ketama {
        /// Virtual points per server (libmemcached default: 160).
        points_per_server: usize,
    },
}

/// Mount configuration. Defaults are the paper's measured design points.
#[derive(Debug, Clone)]
pub struct MemFsConfig {
    /// Stripe size in bytes. The paper picks 512 KiB after the Figure 3a
    /// sweep ("we have chosen a stripe size of 512KB ... since this
    /// achieves the best bandwidth when writing files").
    pub stripe_size: usize,
    /// Per-open-file write buffer in bytes ("MemFS uses caches of 8MB per
    /// open file for the prefetching and buffering protocols", §3.2.2).
    pub write_buffer_size: usize,
    /// Per-open-file read cache in bytes (same 8 MB figure).
    pub read_cache_size: usize,
    /// How many stripes ahead of the read position to prefetch. Bounded
    /// by the read cache; 0 disables prefetching (the "Read (no
    /// prefetching)" series of Figure 3b).
    pub prefetch_window: usize,
    /// Key distribution scheme.
    pub distributor: DistributorKind,
    /// Replication factor (1 = the paper's configuration). With `r > 1`
    /// every key is stored on `r` distinct servers and the mount
    /// tolerates `r - 1` server failures, at the capacity and traffic
    /// cost the paper quantifies in §3.2.5.
    pub replication: usize,
    /// Interval between background repair passes, in milliseconds. Each
    /// pass re-replicates keys whose replica set lost a member (detected
    /// via the health census and degraded-write records). A TCP mount
    /// ([`crate::MemFs::connect`]) probes its idle connections at the
    /// same interval, so that the census a pass reads is no older than
    /// the pass before it and a server that dies while the mount is quiet
    /// is seen. `0` (the default) disables the repair daemon and the
    /// probes: health is then observed only through foreground traffic,
    /// and [`crate::MemFs::repair_now`] still runs single passes on
    /// demand.
    pub repair_interval_ms: u64,
}

impl Default for MemFsConfig {
    fn default() -> Self {
        MemFsConfig {
            stripe_size: 512 << 10,
            write_buffer_size: 8 << 20,
            read_cache_size: 8 << 20,
            prefetch_window: 8,
            distributor: DistributorKind::default(),
            replication: 1,
            repair_interval_ms: 0,
        }
    }
}

impl MemFsConfig {
    /// Validate invariants; every [`crate::MemFs`] constructor calls it.
    pub fn validate(&self) -> Result<(), String> {
        if self.stripe_size == 0 {
            return Err("stripe_size must be positive".into());
        }
        if self.write_buffer_size < self.stripe_size {
            return Err(format!(
                "write_buffer_size ({}) must hold at least one stripe ({})",
                self.write_buffer_size, self.stripe_size
            ));
        }
        if self.prefetch_window > 0 && self.read_cache_size < self.stripe_size {
            return Err(format!(
                "read_cache_size ({}) must hold at least one stripe ({}) when prefetching",
                self.read_cache_size, self.stripe_size
            ));
        }
        if let DistributorKind::Ketama { points_per_server } = self.distributor {
            if points_per_server == 0 {
                return Err("ketama needs at least one point per server".into());
            }
        }
        if self.replication == 0 {
            return Err("replication factor must be at least 1".into());
        }
        Ok(())
    }

    /// Max stripes the write buffer may hold in flight.
    pub fn write_buffer_stripes(&self) -> usize {
        (self.write_buffer_size / self.stripe_size).max(1)
    }

    /// Max stripes the read cache may hold.
    pub fn read_cache_stripes(&self) -> usize {
        (self.read_cache_size / self.stripe_size).max(1)
    }

    /// Builder-style setter for the stripe size.
    pub fn with_stripe_size(mut self, bytes: usize) -> Self {
        self.stripe_size = bytes;
        self
    }

    /// Disable prefetching (Figure 3b's "no prefetching" series).
    pub fn without_prefetch(mut self) -> Self {
        self.prefetch_window = 0;
        self
    }

    /// Builder-style setter for the replication factor.
    pub fn with_replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = MemFsConfig::default();
        assert_eq!(c.stripe_size, 512 * 1024);
        assert_eq!(c.write_buffer_size, 8 * 1024 * 1024);
        assert_eq!(c.read_cache_size, 8 * 1024 * 1024);
        assert!(c.validate().is_ok());
        assert_eq!(c.write_buffer_stripes(), 16);
        assert_eq!(c.read_cache_stripes(), 16);
        assert_eq!(c.repair_interval_ms, 0, "repair daemon opt-in");
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(MemFsConfig::default()
            .with_stripe_size(0)
            .validate()
            .is_err());
        let c = MemFsConfig {
            write_buffer_size: 1024,
            ..MemFsConfig::default()
        };
        assert!(c.validate().is_err());
        let c = MemFsConfig {
            distributor: DistributorKind::Ketama {
                points_per_server: 0,
            },
            ..MemFsConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
