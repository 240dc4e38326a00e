//! Per-range migration epochs for live membership changes.
//!
//! A membership transition never flips the whole ring at once: the 32-bit
//! hash space is partitioned into [`MIGRATION_RANGES`] fixed ranges, and
//! each range advances through [`RangePhase`] independently —
//! `Old` (route by the current ring) → `Migrating` (writers dual-route to
//! both rings, readers consult old homes then new homes) → `New` (route by
//! the target ring). The phase table is a lock-free array of atomics so
//! the routing hot path pays one relaxed load per key.
//!
//! [`range_of`] buckets a key by the same MD5-derived position ketama
//! routing uses, so a range is a contiguous arc of the consistent-hash
//! ring; with a modulo distributor the buckets are still a deterministic
//! 1/64th slice of the key space, which is all migration needs.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::hash::md5;

/// Number of independently-flippable migration ranges.
pub const MIGRATION_RANGES: usize = 64;

/// Phase of one key range during a membership transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePhase {
    /// Route by the current (pre-transition) ring only.
    Old,
    /// Dual-route: writes go to current ∪ target homes, reads try the
    /// current homes first and fall back to the target homes.
    Migrating,
    /// Route by the target ring only.
    New,
}

/// The 32-bit ring position of `key` (MD5 first four bytes, little-endian
/// — identical to [`KetamaRing`](crate::KetamaRing)'s key position).
pub fn ring_position(key: &[u8]) -> u32 {
    let digest = md5(key);
    u32::from_le_bytes([digest[0], digest[1], digest[2], digest[3]])
}

/// The migration range `key` falls in: the top bits of its ring position,
/// so each range is a contiguous arc of the hash space.
pub fn range_of(key: &[u8]) -> usize {
    (ring_position(key) >> (32 - MIGRATION_RANGES.trailing_zeros())) as usize
}

/// Lock-free per-range phase table for one membership transition.
///
/// Ranges start `Old`; the repair pass flips batches to `Migrating`,
/// copies their keys, then flips them to `New`. Each store is paired with
/// a quiescence barrier in the pool so no in-flight operation still
/// routes by the pre-flip phase when the pass acts on the flip.
pub struct RangeEpochs {
    phases: [AtomicU8; MIGRATION_RANGES],
}

impl Default for RangeEpochs {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEpochs {
    /// A fresh table with every range in [`RangePhase::Old`].
    pub fn new() -> RangeEpochs {
        RangeEpochs {
            phases: std::array::from_fn(|_| AtomicU8::new(0)),
        }
    }

    /// Current phase of `range`.
    pub fn phase(&self, range: usize) -> RangePhase {
        match self.phases[range].load(Ordering::Acquire) {
            0 => RangePhase::Old,
            1 => RangePhase::Migrating,
            _ => RangePhase::New,
        }
    }

    /// Phase of the range holding `key`.
    pub fn phase_of_key(&self, key: &[u8]) -> RangePhase {
        self.phase(range_of(key))
    }

    /// Set the phase of `range`. Phases only ever advance
    /// (Old → Migrating → New); the repair pass is the sole writer.
    pub fn set_phase(&self, range: usize, phase: RangePhase) {
        let v = match phase {
            RangePhase::Old => 0,
            RangePhase::Migrating => 1,
            RangePhase::New => 2,
        };
        self.phases[range].store(v, Ordering::Release);
    }

    /// Indices of every range currently in `phase`.
    pub fn ranges_in(&self, phase: RangePhase) -> Vec<usize> {
        (0..MIGRATION_RANGES)
            .filter(|&r| self.phase(r) == phase)
            .collect()
    }

    /// Whether every range has reached [`RangePhase::New`].
    pub fn all_new(&self) -> bool {
        (0..MIGRATION_RANGES).all(|r| self.phase(r) == RangePhase::New)
    }
}

impl std::fmt::Debug for RangeEpochs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (mut old, mut mig, mut new) = (0, 0, 0);
        for r in 0..MIGRATION_RANGES {
            match self.phase(r) {
                RangePhase::Old => old += 1,
                RangePhase::Migrating => mig += 1,
                RangePhase::New => new += 1,
            }
        }
        write!(
            f,
            "RangeEpochs {{ old: {old}, migrating: {mig}, new: {new} }}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_lands_in_exactly_one_range() {
        for i in 0..2000 {
            let key = format!("s:/data/file{i}.fits#{}", i % 8);
            let r = range_of(key.as_bytes());
            assert!(r < MIGRATION_RANGES);
            assert_eq!(r, range_of(key.as_bytes()), "range must be stable");
        }
    }

    #[test]
    fn ranges_cover_the_space_roughly_evenly() {
        let mut counts = [0usize; MIGRATION_RANGES];
        for i in 0..20_000 {
            counts[range_of(format!("k{i}").as_bytes())] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "an md5 bucket went empty");
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max < min * 4, "md5 bucketing badly skewed: {min}..{max}");
    }

    #[test]
    fn range_matches_ring_position_prefix() {
        let key = b"s:/some/file#3";
        assert_eq!(range_of(key), (ring_position(key) >> 26) as usize);
    }

    #[test]
    fn phases_advance_and_report() {
        let epochs = RangeEpochs::new();
        assert_eq!(epochs.ranges_in(RangePhase::Old).len(), MIGRATION_RANGES);
        assert!(!epochs.all_new());
        epochs.set_phase(3, RangePhase::Migrating);
        assert_eq!(epochs.phase(3), RangePhase::Migrating);
        assert_eq!(epochs.ranges_in(RangePhase::Migrating), vec![3]);
        for r in 0..MIGRATION_RANGES {
            epochs.set_phase(r, RangePhase::New);
        }
        assert!(epochs.all_new());
        let key = b"anything";
        assert_eq!(epochs.phase_of_key(key), RangePhase::New);
    }
}
