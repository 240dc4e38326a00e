//! Byte-accounting for the one-copy write-path invariant.
//!
//! Every place on the client write path that *stages* payload bytes —
//! copies them into an intermediate buffer between the caller's memory
//! and the socket — reports the copy here. The zero-copy test asserts
//! that a write stages each payload byte at most once: `Bytes`-backed
//! stripes travel from [`WriteBuffer`](../../memfs_core) through
//! `set_many` into the reactor's vectored frame writer by reference
//! count alone, while slice-fed writes pay exactly one staging copy at
//! the stripe buffer.
//!
//! The counters are process-global relaxed atomics: negligible cost on
//! the hot path (one uncontended `fetch_add` per *copy*, which is the
//! very thing the write path avoids), always compiled in so release
//! benches can report them too.

use std::sync::atomic::{AtomicU64, Ordering};

static STAGED: AtomicU64 = AtomicU64::new(0);
static RX_COPIED: AtomicU64 = AtomicU64::new(0);

/// Record `n` payload bytes copied into an intermediate buffer.
#[inline]
pub fn count_staged(n: usize) {
    STAGED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Total payload bytes staged since process start, monotonic.
pub fn staged_bytes() -> u64 {
    STAGED.load(Ordering::Relaxed)
}

/// Record `n` received payload bytes copied out of the receive buffer
/// (the read path's counterpart of [`count_staged`]: the zero-copy parse
/// hands out refcounted views instead and reports nothing).
#[inline]
pub fn count_rx_copied(n: usize) {
    RX_COPIED.fetch_add(n as u64, Ordering::Relaxed);
}

/// Total received payload bytes copied since process start, monotonic.
pub fn rx_copied_bytes() -> u64 {
    RX_COPIED.load(Ordering::Relaxed)
}

static STORE_READ_LOCKS: AtomicU64 = AtomicU64::new(0);
static STORE_WRITE_LOCKS: AtomicU64 = AtomicU64::new(0);

/// Record one store shard *read*-lock acquisition.
#[inline]
pub fn count_store_read_lock() {
    STORE_READ_LOCKS.fetch_add(1, Ordering::Relaxed);
}

/// Record one store shard *write*-lock acquisition.
#[inline]
pub fn count_store_write_lock() {
    STORE_WRITE_LOCKS.fetch_add(1, Ordering::Relaxed);
}

/// Total store shard read-lock acquisitions since process start.
/// With [`store_write_locks`], pins the engine's locking discipline:
/// `tests/store_locks.rs` asserts that a multi-get batch takes at most
/// one *read* lock per shard and zero write locks, and that every
/// mutation takes exactly one write lock.
pub fn store_read_locks() -> u64 {
    STORE_READ_LOCKS.load(Ordering::Relaxed)
}

/// Total store shard write-lock acquisitions since process start.
pub fn store_write_locks() -> u64 {
    STORE_WRITE_LOCKS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_counter_is_monotonic() {
        let before = staged_bytes();
        count_staged(17);
        count_staged(0);
        assert!(staged_bytes() >= before + 17);
    }
}
