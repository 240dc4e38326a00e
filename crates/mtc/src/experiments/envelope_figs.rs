//! MTC Envelope experiment drivers: Figures 4 (bandwidth), 5
//! (throughput), 6 (metadata), 16 (application-vs-system bandwidth) and
//! Table 1.

use memfs_cluster::ClusterSpec;
use memfs_simcore::units::{KB, MB};

use crate::envelope::EnvelopeModel;
use crate::report;

/// The paper's node scales for Figures 4-6.
pub const NODE_SCALES: [usize; 4] = [8, 16, 32, 64];
/// The paper's file sizes: small, medium, large.
pub const FILE_SIZES: [u64; 3] = [KB, MB, 128 * MB];

/// One envelope sweep row (a point of Figures 4 and 5).
#[derive(Debug, Clone)]
pub struct EnvelopeRow {
    /// Node count.
    pub nodes: usize,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Metric name ("write", "1-1 read", "N-1 read").
    pub metric: &'static str,
    /// File system ("MemFS"/"AMFS").
    pub system: &'static str,
    /// Aggregate bandwidth bytes/s (Figure 4).
    pub bandwidth: f64,
    /// Aggregate throughput op/s (Figure 5).
    pub throughput: f64,
}

/// Run the Figure 4/5 sweep on DAS4-IPoIB.
pub fn run_envelope_sweep() -> Vec<EnvelopeRow> {
    let mut rows = Vec::new();
    for &nodes in &NODE_SCALES {
        let model = EnvelopeModel::new(ClusterSpec::das4_ipoib(nodes));
        for &file in &FILE_SIZES {
            let points = [
                ("write", "MemFS", model.memfs_write(file)),
                ("write", "AMFS", model.amfs_write(file)),
                ("1-1 read", "MemFS", model.memfs_read_1_1(file)),
                ("1-1 read", "AMFS", model.amfs_read_1_1(file)),
                ("N-1 read", "MemFS", model.memfs_read_n_1(file)),
                ("N-1 read", "AMFS", model.amfs_read_n_1(file)),
            ];
            for (metric, system, p) in points {
                rows.push(EnvelopeRow {
                    nodes,
                    file_bytes: file,
                    metric,
                    system,
                    bandwidth: p.bandwidth,
                    throughput: p.throughput,
                });
            }
        }
    }
    rows
}

/// Render the Figure 4 (bandwidth, MB/s) or Figure 5 (throughput, op/s)
/// series for one file size.
pub fn render_envelope(rows: &[EnvelopeRow], file_bytes: u64, bandwidth: bool) -> String {
    let mut out = String::new();
    let unit = if bandwidth { "MB/s" } else { "op/s" };
    out.push_str(&format!(
        "File size {}: aggregate {} vs nodes (DAS4-IPoIB)\n",
        memfs_simcore::units::fmt_bytes(file_bytes),
        unit
    ));
    let header = ["Series", "8", "16", "32", "64"];
    let mut table_rows = Vec::new();
    for system in ["MemFS", "AMFS"] {
        for metric in ["write", "1-1 read", "N-1 read"] {
            let mut cells = vec![format!("{system} {metric}")];
            for &nodes in &NODE_SCALES {
                let row = rows
                    .iter()
                    .find(|r| {
                        r.nodes == nodes
                            && r.file_bytes == file_bytes
                            && r.metric == metric
                            && r.system == system
                    })
                    .expect("sweep covers all points");
                cells.push(if bandwidth {
                    report::mbps(row.bandwidth)
                } else {
                    report::ops(row.throughput)
                });
            }
            table_rows.push(cells);
        }
    }
    out.push_str(&report::table(&header, &table_rows));
    out
}

/// One metadata point of Figure 6.
#[derive(Debug, Clone)]
pub struct MetadataRow {
    /// Node count.
    pub nodes: usize,
    /// MemFS create op/s.
    pub memfs_create: f64,
    /// AMFS create op/s.
    pub amfs_create: f64,
    /// MemFS open op/s.
    pub memfs_open: f64,
    /// AMFS open op/s.
    pub amfs_open: f64,
}

/// Run Figure 6 (metadata throughput vs nodes, DAS4-IPoIB).
pub fn run_metadata_sweep() -> Vec<MetadataRow> {
    let mut scales = vec![4usize];
    scales.extend((8..=64).step_by(8));
    scales
        .into_iter()
        .map(|nodes| {
            let m = EnvelopeModel::new(ClusterSpec::das4_ipoib(nodes));
            MetadataRow {
                nodes,
                memfs_create: m.memfs_create(),
                amfs_create: m.amfs_create(),
                memfs_open: m.memfs_open(),
                amfs_open: m.amfs_open(),
            }
        })
        .collect()
}

/// Render Figure 6 as a table.
pub fn render_metadata(rows: &[MetadataRow]) -> String {
    let mut out = String::from("Metadata operations throughput (op/s) vs nodes\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                report::ops(r.memfs_create),
                report::ops(r.amfs_create),
                report::ops(r.memfs_open),
                report::ops(r.amfs_open),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Nodes",
            "MemFS Create",
            "AMFS Create",
            "MemFS Open",
            "AMFS Open",
        ],
        &table_rows,
    ));
    out
}

/// Table 1: the envelope at 64 nodes / 1 MB files on both networks.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Row labels in paper order.
    pub rows: Vec<Table1Row>,
}

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Metric label.
    pub metric: String,
    /// AMFS over IPoIB.
    pub amfs_ipoib: f64,
    /// MemFS over IPoIB.
    pub memfs_ipoib: f64,
    /// AMFS over 1 GbE.
    pub amfs_gbe: f64,
    /// MemFS over 1 GbE.
    pub memfs_gbe: f64,
}

/// Compute Table 1.
pub fn run_table1() -> Table1 {
    let file = MB;
    let ipoib = EnvelopeModel::new(ClusterSpec::das4_ipoib(64));
    let gbe = EnvelopeModel::new(ClusterSpec::das4_gbe(64));
    let bw = |m: &EnvelopeModel, f: fn(&EnvelopeModel, u64) -> crate::envelope::EnvelopePoint| {
        f(m, file).bandwidth / 1e6
    };
    let rows = vec![
        Table1Row {
            metric: "Write Bw (MB/s)".into(),
            amfs_ipoib: bw(&ipoib, EnvelopeModel::amfs_write),
            memfs_ipoib: bw(&ipoib, EnvelopeModel::memfs_write),
            amfs_gbe: bw(&gbe, EnvelopeModel::amfs_write),
            memfs_gbe: bw(&gbe, EnvelopeModel::memfs_write),
        },
        Table1Row {
            metric: "1-1 Read Bw (MB/s)".into(),
            amfs_ipoib: bw(&ipoib, EnvelopeModel::amfs_read_1_1),
            memfs_ipoib: bw(&ipoib, EnvelopeModel::memfs_read_1_1),
            amfs_gbe: bw(&gbe, EnvelopeModel::amfs_read_1_1),
            memfs_gbe: bw(&gbe, EnvelopeModel::memfs_read_1_1),
        },
        Table1Row {
            metric: "1-1 Read Bw remote (MB/s)".into(),
            amfs_ipoib: bw(&ipoib, EnvelopeModel::amfs_read_1_1_remote),
            memfs_ipoib: f64::NAN, // MemFS has no locality to lose
            amfs_gbe: bw(&gbe, EnvelopeModel::amfs_read_1_1_remote),
            memfs_gbe: f64::NAN,
        },
        Table1Row {
            metric: "N-1 Read Bw (MB/s)".into(),
            amfs_ipoib: bw(&ipoib, EnvelopeModel::amfs_read_n_1),
            memfs_ipoib: bw(&ipoib, EnvelopeModel::memfs_read_n_1),
            amfs_gbe: bw(&gbe, EnvelopeModel::amfs_read_n_1),
            memfs_gbe: bw(&gbe, EnvelopeModel::memfs_read_n_1),
        },
        Table1Row {
            metric: "Create (op/s)".into(),
            amfs_ipoib: ipoib.amfs_create(),
            memfs_ipoib: ipoib.memfs_create(),
            amfs_gbe: gbe.amfs_create(),
            memfs_gbe: gbe.memfs_create(),
        },
        Table1Row {
            metric: "Open (op/s)".into(),
            amfs_ipoib: ipoib.amfs_open(),
            memfs_ipoib: ipoib.memfs_open(),
            amfs_gbe: gbe.amfs_open(),
            memfs_gbe: gbe.memfs_open(),
        },
    ];
    Table1 { rows }
}

/// Render Table 1.
pub fn render_table1(t: &Table1) -> String {
    let mut out = String::from("Table 1: MTC Envelope, scale 64, file size 1MB\n");
    let fmt = |v: f64| {
        if v.is_nan() {
            "-".to_string()
        } else {
            format!("{v:.0}")
        }
    };
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.metric.clone(),
                fmt(r.amfs_ipoib),
                fmt(r.memfs_ipoib),
                fmt(r.amfs_gbe),
                fmt(r.memfs_gbe),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "Metric",
            "AMFS IPoIB",
            "MemFS IPoIB",
            "AMFS 1GbE",
            "MemFS 1GbE",
        ],
        &rows,
    ));
    out
}

/// One Figure 16 point.
#[derive(Debug, Clone)]
pub struct Fig16Row {
    /// Platform name.
    pub platform: &'static str,
    /// Cores per node running iozone.
    pub cores: usize,
    /// Application bandwidth per node, bytes/s.
    pub app_bw: f64,
    /// System (application + memcached) bandwidth per node, bytes/s.
    pub system_bw: f64,
}

/// Run Figure 16: the 4 KB-block bandwidth microbenchmark on EC2 (1-32
/// cores, 8 instances) and DAS4 (1-8 cores, 8 nodes).
pub fn run_fig16() -> Vec<Fig16Row> {
    let mut rows = Vec::new();
    let ec2 = EnvelopeModel::new(ClusterSpec::ec2(8));
    for cores in [1usize, 2, 4, 8, 16, 32] {
        rows.push(Fig16Row {
            platform: "EC2",
            cores,
            app_bw: ec2.app_bandwidth_per_node(cores),
            system_bw: ec2.system_bandwidth_per_node(cores),
        });
    }
    let das4 = EnvelopeModel::new(ClusterSpec::das4_ipoib(8));
    for cores in [1usize, 2, 4, 8] {
        rows.push(Fig16Row {
            platform: "DAS4",
            cores,
            app_bw: das4.app_bandwidth_per_node(cores),
            system_bw: das4.system_bandwidth_per_node(cores),
        });
    }
    rows
}

/// Render Figure 16.
pub fn render_fig16(rows: &[Fig16Row]) -> String {
    let mut out =
        String::from("MemFS bandwidth microbenchmark (4KB blocks): per-node MB/s vs cores\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{} {} cores", r.platform, r.cores),
                report::mbps(r.app_bw),
                report::mbps(r.system_bw),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["Configuration", "Application", "System"],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_combinations() {
        let rows = run_envelope_sweep();
        assert_eq!(rows.len(), 4 * 3 * 6);
        // Bandwidth grows with node count for every MemFS series.
        for &file in &FILE_SIZES {
            for metric in ["write", "1-1 read", "N-1 read"] {
                let series: Vec<f64> = NODE_SCALES
                    .iter()
                    .map(|&n| {
                        rows.iter()
                            .find(|r| {
                                r.nodes == n
                                    && r.file_bytes == file
                                    && r.metric == metric
                                    && r.system == "MemFS"
                            })
                            .unwrap()
                            .bandwidth
                    })
                    .collect();
                assert!(
                    series.windows(2).all(|w| w[1] > w[0]),
                    "{metric}@{file} not monotonic: {series:?}"
                );
            }
        }
    }

    #[test]
    fn renders_are_nonempty_and_structured() {
        let rows = run_envelope_sweep();
        for &file in &FILE_SIZES {
            let bw = render_envelope(&rows, file, true);
            assert!(bw.contains("MemFS write"));
            assert!(bw.lines().count() >= 8);
            let tp = render_envelope(&rows, file, false);
            assert!(tp.contains("op/s"));
        }
    }

    #[test]
    fn metadata_sweep_shape() {
        let rows = run_metadata_sweep();
        assert!(rows.len() >= 8);
        let last = rows.last().unwrap();
        assert_eq!(last.nodes, 64);
        assert!(last.amfs_open > last.memfs_open);
        let out = render_metadata(&rows);
        assert!(out.contains("MemFS Create"));
    }

    #[test]
    fn table1_row_order_and_render() {
        let t = run_table1();
        assert_eq!(t.rows.len(), 6);
        assert!(t.rows[2].memfs_ipoib.is_nan());
        // GbE write is far below IPoIB write for MemFS.
        assert!(t.rows[0].memfs_gbe < t.rows[0].memfs_ipoib / 3.0);
        let out = render_table1(&t);
        assert!(out.contains("N-1 Read"));
        assert!(out.contains('-'));
    }

    #[test]
    fn fig16_rows_cover_both_platforms() {
        let rows = run_fig16();
        assert_eq!(rows.iter().filter(|r| r.platform == "EC2").count(), 6);
        assert_eq!(rows.iter().filter(|r| r.platform == "DAS4").count(), 4);
        for r in &rows {
            assert!((r.system_bw - 2.0 * r.app_bw).abs() < 1.0);
        }
        assert!(render_fig16(&rows).contains("Application"));
    }
}
