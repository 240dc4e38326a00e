//! # memfs-bench
//!
//! The paper's evaluation, regenerated: the **`repro` binary**
//! (`cargo run -p memfs-bench --release --bin repro -- <artifact>`)
//! prints every table and figure as text series (see `repro --help` or
//! DESIGN.md's experiment index). Component costs are rungs of the
//! benchmark ladder in `benchmark/`, not benches here.

use std::fmt::Write as _;

/// The artifacts `repro` knows how to regenerate, with a short
/// description each (kept in one place so `--help` and the docs agree).
pub const ARTIFACTS: &[(&str, &str)] = &[
    ("fig3a", "stripe size vs MemFS I/O bandwidth (real engine)"),
    (
        "fig3b",
        "buffering/prefetching depth vs bandwidth (real engine)",
    ),
    (
        "fig4",
        "MTC Envelope bandwidth vs nodes, 3 file sizes (sim)",
    ),
    (
        "fig5",
        "MTC Envelope throughput vs nodes, 3 file sizes (sim)",
    ),
    ("fig6", "metadata create/open throughput vs nodes (sim)"),
    (
        "tab1",
        "MTC Envelope at 64 nodes / 1MB, IPoIB vs 1GbE (sim)",
    ),
    (
        "tab2",
        "application descriptions from the workflow generators",
    ),
    ("fig7", "vertical scalability on 64 DAS4 nodes (sim)"),
    ("fig8", "horizontal scalability on 8-64 DAS4 nodes (sim)"),
    ("fig9", "Montage 6 aggregate memory consumption (sim)"),
    (
        "tab3",
        "AMFS memory distribution: scheduler node hotspot (sim)",
    ),
    ("fig10", "FUSE mountpoint bottleneck on EC2 (sim)"),
    ("fig11", "MemFS vs AMFS vertical scalability on EC2 (sim)"),
    ("fig12", "Montage 16 vertical scalability, 32 EC2 VMs (sim)"),
    ("fig13", "BLAST vertical scalability, 32 EC2 VMs (sim)"),
    ("fig14", "Montage 12 horizontal scalability on EC2 (sim)"),
    ("fig15", "BLAST horizontal scalability on EC2 (sim)"),
    (
        "fig16",
        "application vs system bandwidth microbenchmark (model)",
    ),
    (
        "montage12",
        "the Montage 12x12 AMFS crash vs MemFS completion (sim)",
    ),
];

/// Render the help text for the repro binary.
pub fn help_text() -> String {
    let mut out = String::from(
        "repro — regenerate the MemFS paper's tables and figures\n\n\
         usage: repro <artifact>... | all\n\nartifacts:\n",
    );
    for (name, desc) in ARTIFACTS {
        let _ = writeln!(out, "  {name:<10} {desc}");
    }
    out.push_str("\nRun with --release: the cluster simulations are CPU-heavy.\n");
    out
}

/// Whether `name` is a known artifact.
pub fn is_artifact(name: &str) -> bool {
    ARTIFACTS.iter().any(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_artifacts_listed_in_help() {
        let help = help_text();
        for (name, _) in ARTIFACTS {
            assert!(help.contains(name), "{name} missing from help");
        }
    }

    #[test]
    fn artifact_lookup() {
        assert!(is_artifact("fig7"));
        assert!(is_artifact("tab1"));
        assert!(!is_artifact("fig99"));
    }

    #[test]
    fn every_paper_artifact_is_covered() {
        // Figures 3-16 and Tables 1-3 of the paper.
        for fig in [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16] {
            let covered = ARTIFACTS
                .iter()
                .any(|(n, _)| n.contains(&format!("fig{fig}")));
            assert!(covered, "figure {fig} not covered");
        }
        for tab in 1..=3 {
            assert!(is_artifact(&format!("tab{tab}")), "table {tab} not covered");
        }
    }
}
