//! Seeded inputs: payload bytes, file names and the op-sequence hash.
//!
//! A file's content is a window onto one seeded random pool, starting at a
//! per-file offset: writes hand the file system slices of the pool (no
//! generation cost on the clock) and reads are verified bit-exact against
//! the same slices. The pool length is odd, so no two stripes of a file and
//! no two files share content alignment — a swapped or shifted stripe fails
//! the comparison.

use memfs_memkv::testutil::Rng;

/// Request size of every file read and write: the FUSE request size the
/// paper's file-system layer sees.
pub const CHUNK: usize = 128 << 10;

const POOL_LEN: usize = (1 << 20) + 61;

/// Longest contiguous slice [`Content::slice`] serves (one stripe, for the
/// layer ladder).
pub const MAX_SLICE: usize = 512 << 10;

pub struct Payload {
    /// The pool followed by its own first `MAX_SLICE` bytes, so a slice
    /// that wraps is still contiguous.
    ext: Vec<u8>,
    seed: u64,
}

impl Payload {
    pub fn new(seed: u64) -> Payload {
        let mut rng = Rng::new(seed ^ 0x5EED_DA7A);
        let mut ext = Vec::with_capacity(POOL_LEN + MAX_SLICE + 8);
        while ext.len() < POOL_LEN {
            ext.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        ext.truncate(POOL_LEN);
        ext.extend_from_within(..MAX_SLICE);
        Payload { ext, seed }
    }

    /// The content of the file called `name`.
    pub fn file(&self, name: &str) -> Content<'_> {
        Content {
            ext: &self.ext,
            shift: (fnv1a(self.seed, name.as_bytes()) % POOL_LEN as u64) as usize,
        }
    }
}

/// One file's expected bytes: the pool read from a per-file start.
#[derive(Clone, Copy)]
pub struct Content<'a> {
    ext: &'a [u8],
    shift: usize,
}

impl<'a> Content<'a> {
    fn pos(&self, offset: u64) -> usize {
        (self.shift + (offset % POOL_LEN as u64) as usize) % POOL_LEN
    }

    /// `len` (at most [`MAX_SLICE`]) bytes of the file at `offset`.
    pub fn slice(&self, offset: u64, len: usize) -> &'a [u8] {
        assert!(len <= MAX_SLICE, "slice longer than the pool's overlap");
        let start = self.pos(offset);
        &self.ext[start..start + len]
    }

    /// Whether `got` is exactly the file's bytes at `offset`.
    pub fn verify(&self, offset: u64, got: &[u8]) -> bool {
        let mut pos = self.pos(offset);
        let mut rest = got;
        while !rest.is_empty() {
            let n = rest.len().min(POOL_LEN - pos);
            if rest[..n] != self.ext[pos..pos + n] {
                return false;
            }
            rest = &rest[n..];
            pos = (pos + n) % POOL_LEN;
        }
        true
    }
}

/// FNV-1a over `bytes`, keyed by `seed`.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The benchmark's directory for one round: seeded, and of fixed length so
/// bytes stored per user byte do not depend on the seed.
pub fn round_dir(seed: u64, round: usize) -> String {
    format!("/s{:08x}r{round:04}", seed as u32)
}

/// Name of file `index` in `dir`; the tag makes placement depend on the seed.
pub fn file_name(seed: u64, dir: &str, index: usize) -> String {
    let tag = fnv1a(seed, &(index as u64).to_le_bytes()) as u16;
    format!("{dir}/f{index:05}_{tag:04x}")
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
    }
}

/// Running hash of the op sequence a workload plans — names, sizes, offsets
/// and order. The same seed must give the same hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHash(pub u64);

impl OpHash {
    pub fn new() -> OpHash {
        OpHash(fnv1a(0, b"ops"))
    }

    pub fn op(&mut self, kind: &str, name: &str, a: u64, b: u64) {
        let mut h = fnv1a(self.0, kind.as_bytes());
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, &a.to_le_bytes());
        self.0 = fnv1a(h, &b.to_le_bytes());
    }
}

impl Default for OpHash {
    fn default() -> Self {
        OpHash::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_verify_and_wrap() {
        let p = Payload::new(7);
        let f = p.file("/d/f00001_abcd");
        // A read that crosses the pool's end several times.
        let mut file = Vec::new();
        let mut off = 0u64;
        while file.len() < 3 * POOL_LEN {
            let s = f.slice(off, CHUNK);
            file.extend_from_slice(s);
            off += CHUNK as u64;
        }
        assert!(f.verify(0, &file));
        assert!(f.verify(5 * CHUNK as u64, &file[5 * CHUNK..]));
        // A one-byte shift, a flipped byte and another file's bytes all fail.
        assert!(!f.verify(1, &file));
        let mut bad = file.clone();
        bad[POOL_LEN + 3] ^= 1;
        assert!(!f.verify(0, &bad));
        assert!(!p.file("/d/f00002_abcd").verify(0, &file));
    }

    #[test]
    fn payload_and_names_follow_the_seed() {
        assert_eq!(Payload::new(3).ext, Payload::new(3).ext);
        assert_ne!(Payload::new(3).ext, Payload::new(4).ext);
        assert_ne!(file_name(1, "/d", 9), file_name(2, "/d", 9));
        assert_eq!(file_name(1, "/d", 9).len(), file_name(2, "/d", 12345).len());
        assert_eq!(round_dir(1, 2).len(), round_dir(u64::MAX, 9999).len());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut Rng::new(11), &mut a);
        shuffle(&mut Rng::new(11), &mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<u32>>());
    }
}
