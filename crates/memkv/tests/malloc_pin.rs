//! Starting a reactor pins glibc's malloc thresholds (see
//! `pin_malloc_thresholds` in `reactor.rs`): from then on a stripe-sized
//! buffer — or an 8 MiB one — is heap memory that is recycled, not a fresh
//! `mmap` faulted in page by page and unmapped on free.
//!
//! `mallinfo2` counts for the whole process — single test binary, don't
//! add siblings.
#![cfg(target_env = "gnu")]

use memfs_memkv::ReactorHandle;

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
fn a_reactor_turns_big_buffers_into_heap_memory() {
    let _reactor = ReactorHandle::new().unwrap();
    let before = mmapped_chunks();
    // At glibc's default 128 KiB threshold each of these is an `mmap`.
    let buffers: Vec<Vec<u8>> = [512 << 10, 1 << 20, 8 << 20]
        .iter()
        .map(|&n| std::hint::black_box(vec![1u8; n]))
        .collect();
    assert_eq!(
        mmapped_chunks(),
        before,
        "stripe-sized buffers must come from the heap once a reactor runs"
    );
    drop(buffers);
}
