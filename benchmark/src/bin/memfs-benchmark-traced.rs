//! The traced benchmark binary: per-layer metrics, with a counting
//! allocator that only this binary carries.

#[global_allocator]
static ALLOC: memfs_benchmark::alloc::Counting = memfs_benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    memfs_benchmark::cli::main(true)
}
