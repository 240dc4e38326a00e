//! The untraced benchmark binary: end-to-end metrics.

fn main() -> std::process::ExitCode {
    memfs_benchmark::cli::main(false)
}
