//! Table 2: the application use cases — input size, runtime data, file
//! sizes — regenerated from the workflow generators themselves.

use crate::blast::{blast_das4, blast_ec2};
use crate::montage::montage;
use crate::report;
use crate::workflow::Workflow;

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application label.
    pub application: String,
    /// Staged-in input bytes.
    pub input_bytes: u64,
    /// Task-generated bytes.
    pub runtime_bytes: u64,
    /// Smallest intermediate file.
    pub min_file: u64,
    /// Largest intermediate file.
    pub max_file: u64,
    /// Task count.
    pub tasks: usize,
}

fn row(label: &str, wf: &Workflow) -> Table2Row {
    let sizes: Vec<u64> = wf
        .files
        .iter()
        .filter(|f| f.producer.is_some() && f.size > 0)
        .map(|f| f.size)
        .collect();
    // BLAST's database is copied into the runtime FS by `copyin` tasks,
    // so the paper's "Input Size" column corresponds to staged inputs
    // plus the bytes those copy-in tasks bring in.
    let copyin_bytes: u64 = wf
        .stage_stats()
        .iter()
        .filter(|s| s.stage == "copyin")
        .map(|s| s.bytes_written)
        .sum();
    Table2Row {
        application: label.to_string(),
        input_bytes: wf.input_bytes() + copyin_bytes,
        runtime_bytes: wf.runtime_bytes(),
        min_file: sizes.iter().copied().min().unwrap_or(0),
        max_file: sizes.iter().copied().max().unwrap_or(0),
        tasks: wf.tasks.len(),
    }
}

/// Regenerate Table 2 from the (unbundled) generators.
pub fn run_table2() -> Vec<Table2Row> {
    vec![
        row("Montage 6x6", &montage(6, 0)),
        row("Montage 12x12", &montage(12, 0)),
        row("Montage 16x16", &montage(16, 0)),
        row("BLAST (DAS4)", &blast_das4(0)),
        row("BLAST (EC2)", &blast_ec2(0)),
    ]
}

/// Render Table 2.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::from("Table 2: Application description\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.application.clone(),
                format!("{} GB", report::gb(r.input_bytes)),
                format!("{} GB", report::gb(r.runtime_bytes)),
                format!(
                    "{}-{}",
                    memfs_simcore::units::fmt_bytes(r.min_file),
                    memfs_simcore::units::fmt_bytes(r.max_file)
                ),
                r.tasks.to_string(),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Application",
            "Input Size",
            "Runtime Data",
            "File Size",
            "Tasks",
        ],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs_simcore::units::GB;

    #[test]
    fn table2_matches_paper_within_tolerance() {
        let rows = run_table2();
        let by_name = |n: &str| rows.iter().find(|r| r.application == n).unwrap();
        // Paper: 4.9 / 20 / 34 GB inputs, ~50 / ~250 / ~450 GB runtime.
        let cases: [(&str, f64, f64); 3] = [
            ("Montage 6x6", 4.9, 50.0),
            ("Montage 12x12", 20.0, 250.0),
            ("Montage 16x16", 34.0, 450.0),
        ];
        for (name, input_gb, runtime_gb) in cases {
            let r = by_name(name);
            let input = r.input_bytes as f64 / GB as f64;
            let runtime = r.runtime_bytes as f64 / GB as f64;
            assert!(
                (input / input_gb - 1.0).abs() < 0.1,
                "{name} input {input} vs paper {input_gb}"
            );
            assert!(
                (runtime / runtime_gb - 1.0).abs() < 0.2,
                "{name} runtime {runtime} vs paper {runtime_gb}"
            );
        }
        // BLAST ~200 GB both platforms.
        for name in ["BLAST (DAS4)", "BLAST (EC2)"] {
            let runtime = by_name(name).runtime_bytes as f64 / GB as f64;
            assert!((runtime / 200.0 - 1.0).abs() < 0.25, "{name} {runtime}");
        }
    }

    #[test]
    fn renders_all_rows() {
        let rows = run_table2();
        let out = render_table2(&rows);
        assert_eq!(out.lines().count(), 3 + rows.len());
        assert!(out.contains("Montage 16x16"));
    }
}
