//! Seeded randomness for tests and the benchmark's generators.
//!
//! Tests derive their randomness from [`Rng`], seeded either explicitly or
//! from the `MEMFS_SHAPE_SEED` environment variable via
//! [`seed_from_env`], so a soak-loop failure reproduces by exporting the
//! seed it printed. The shaped-cluster TCP harness lives in the
//! `memfs-testkit` dev crate.

/// Tiny deterministic PRNG (xorshift64*) for shaped tests — no external
/// crates, reproducible from a printed seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded constructor; `seed` 0 is mapped to a fixed non-zero value.
    pub fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[lo, hi)`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.next_u64() % (hi - lo)
    }
}

/// The seed shaped tests should use: `MEMFS_SHAPE_SEED` when set (so a
/// soak failure reproduces), else a fixed default. Tests print the seed on
/// entry so every failure is replayable.
pub fn seed_from_env() -> u64 {
    std::env::var("MEMFS_SHAPE_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xC0FF_EE00_DEAD_BEEF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = Rng::new(7).gen_range(10, 20);
        assert!((10..20).contains(&v));
    }
}
