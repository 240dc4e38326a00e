//! Starting a storage server pins glibc's malloc thresholds, as starting a
//! reactor does (`malloc_pin.rs`; `pin_malloc_thresholds` in
//! `reactor.rs`): a stored stripe is heap memory that is recycled by the
//! next file, not a mapping of its own that is unmapped on delete and
//! faulted in again page by page.
//!
//! `mallinfo2` counts for the whole process, and this process must start
//! no reactor — single test binary, don't add siblings.
#![cfg(target_env = "gnu")]

use std::sync::Arc;

use memfs_memkv::{KvServer, Store};

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Chunks the allocator currently serves with a mapping of their own.
fn mmapped_chunks() -> usize {
    // SAFETY: no arguments, returns the struct by value.
    unsafe { mallinfo2() }.hblks
}

#[test]
fn a_server_turns_stripe_sized_values_into_heap_memory() {
    let _server = KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0").unwrap();
    let before = mmapped_chunks();
    // At glibc's default 128 KiB threshold each of these is an `mmap`.
    let values: Vec<Vec<u8>> = [512 << 10, 1 << 20]
        .iter()
        .map(|&n| std::hint::black_box(vec![1u8; n]))
        .collect();
    assert_eq!(
        mmapped_chunks(),
        before,
        "stripe-sized values must come from the heap once a server runs"
    );
    drop(values);
}
