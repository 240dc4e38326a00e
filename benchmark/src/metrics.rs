//! The metric tables: every name the benchmark reports, with its unit and
//! direction, and for end-to-end metrics the bound by which a later change
//! may worsen it. `BENCHMARK.json` is rendered from these tables.

use crate::json::Json;

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by; `None` for a
    /// per-layer metric, which has no bound.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the mounted file system sees. Every workload reports
/// every one of these (README, "Metrics").
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", false, 0.25),
    gated("write_mibps", "MiB/s", true, 0.25),
    gated("read_mibps", "MiB/s", true, 0.25),
    gated("create_ops_s", "op/s", true, 0.25),
    gated("read_ops_s", "op/s", true, 0.25),
    gated("unlink_ops_s", "op/s", true, 0.25),
    gated("makespan_s", "s", false, 0.25),
    gated("create_p50_us", "us", false, 0.25),
    gated("read_p50_us", "us", false, 0.25),
    gated("unlink_p50_us", "us", false, 0.25),
    gated("cpu_s_per_gib", "s/GiB", false, 0.25),
    gated("cpu_us_per_op", "us", false, 0.25),
    gated("mem_bytes_per_user_byte", "ratio", false, 0.02),
];

/// Value sizes the layer ladder sweeps, with their metric-name suffix.
pub const LADDER_SIZES: [(&str, usize); 4] = [
    ("64", 64),
    ("4k", 4 << 10),
    ("64k", 64 << 10),
    ("512k", 512 << 10),
];

/// Single layers, from the traced run: spans and counter deltas around the
/// workload's own calls, then the layer ladder.
pub const PER_LAYER: &[Metric] = &[
    // Tail latencies: reported, not gated (README, "Tail latency").
    layer("create_p99_us", "us", false),
    layer("read_p99_us", "us", false),
    layer("unlink_p99_us", "us", false),
    // fs: mean time of one public call.
    layer("fs.create_us", "us", false),
    layer("fs.write_us", "us", false),
    layer("fs.close_us", "us", false),
    layer("fs.open_us", "us", false),
    layer("fs.read_us", "us", false),
    layer("fs.unlink_us", "us", false),
    layer("fs.read_call_p99_us", "us", false),
    layer("bufwrite.close_share", "ratio", false),
    layer("prefetch.wire_bytes_per_user_byte", "ratio", false),
    layer("prefetch.first_read_us", "us", false),
    layer("prefetch.steady_read_us", "us", false),
    layer("pool.batches_per_fs_op", "ratio", false),
    layer("pool.keys_per_batch", "ratio", true),
    layer("pool.max_in_flight", "count", true),
    layer("pool.server_imbalance", "ratio", false),
    layer("pool.fallbacks", "count", false),
    layer("pool.degraded_writes", "count", false),
    layer("reactor.wakeups_per_kv_op", "ratio", false),
    layer("reactor.completions_per_wake", "ratio", true),
    layer("reactor.bytes_tx_per_user_byte", "ratio", false),
    layer("reactor.bytes_rx_per_user_byte", "ratio", false),
    layer("reactor.timeouts", "count", false),
    layer("reactor.reconnects", "count", false),
    layer("net.staged_bytes_per_user_byte", "ratio", false),
    layer("net.rx_copied_bytes_per_user_byte", "ratio", false),
    layer("server.ops_per_fs_op", "ratio", false),
    layer("server.cpu_us_per_op", "us", false),
    layer("server.cpu_s_per_gib", "s/GiB", false),
    layer("server.ctx_switches_per_op", "ratio", false),
    layer("server.rss_mib", "MiB", false),
    layer("server.rejected_connections", "count", false),
    layer("client.cpu_us_per_op", "us", false),
    layer("client.cpu_s_per_gib", "s/GiB", false),
    layer("client.ctx_switches_per_op", "ratio", false),
    layer("client.allocs_per_op", "ratio", false),
    layer("client.alloc_bytes_per_user_byte", "ratio", false),
    layer("client.threads", "count", false),
    layer("client.rss_mib", "MiB", false),
    layer("trace.overhead_ratio", "ratio", false),
    layer("trace.spans", "count", false),
    // The layer ladder: one logical op at each layer's public entry.
    layer("store.get_ns.64", "ns", false),
    layer("store.get_ns.4k", "ns", false),
    layer("store.get_ns.64k", "ns", false),
    layer("store.get_ns.512k", "ns", false),
    layer("store.set_ns.64", "ns", false),
    layer("store.set_ns.4k", "ns", false),
    layer("store.set_ns.64k", "ns", false),
    layer("store.set_ns.512k", "ns", false),
    layer("store.get_many_ns_per_key", "ns", false),
    layer("store.append_ns.dir1000", "ns", false),
    layer("store.locks_per_get", "count", false),
    layer("proto.request_ns.64", "ns", false),
    layer("proto.request_ns.512k", "ns", false),
    layer("proto.response_ns.64", "ns", false),
    layer("proto.response_ns.512k", "ns", false),
    layer("net.get_us.64", "us", false),
    layer("net.get_us.4k", "us", false),
    layer("net.get_us.64k", "us", false),
    layer("net.get_us.512k", "us", false),
    layer("net.set_us.64", "us", false),
    layer("net.set_us.4k", "us", false),
    layer("net.set_us.64k", "us", false),
    layer("net.set_us.512k", "us", false),
    layer("net.get_many_us_per_key", "us", false),
    layer("net.set_many_us_per_key", "us", false),
    layer("net.rtt_us", "us", false),
    layer("net.self_us.64", "us", false),
    layer("net.self_us.512k", "us", false),
    layer("hashring.lookup_ns", "ns", false),
    layer("pool.get_us.64", "us", false),
    layer("pool.get_us.4k", "us", false),
    layer("pool.get_us.64k", "us", false),
    layer("pool.get_us.512k", "us", false),
    layer("pool.set_us.64", "us", false),
    layer("pool.set_us.4k", "us", false),
    layer("pool.set_us.64k", "us", false),
    layer("pool.set_us.512k", "us", false),
    layer("pool.get_many_us_per_key", "us", false),
    layer("pool.set_many_us_per_key", "us", false),
    layer("pool.self_us.64", "us", false),
    layer("pool.self_us.512k", "us", false),
    layer("fs.self_us.create", "us", false),
    layer("fs.self_us.stripe_read", "us", false),
];

/// Why each workload is in the suite, one line each (`BENCHMARK.json`).
pub const WHY: [(&str, &str); 4] = [
    (
        "seq_large",
        "8 MiB files written then read in order: striping, write-buffer drains, prefetch windows, copies and socket I/O set the bandwidth",
    ),
    (
        "small_files",
        "1000 4 KiB files per fresh directory: each op is a few serial KV round trips, so routing, wake-ups and directory appends set the rate",
    ),
    (
        "rand_read",
        "64 KiB reads at random offsets of 256 MiB, beyond the read cache: prefetch cannot help and whole-stripe fetches amplify",
    ),
    (
        "montage_mix",
        "a 24-image Montage I/O skeleton run by 2 callers: mixed 2 KB-4 MB reads and writes share reactor, engine, workers and shards",
    ),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 18;

/// The contents of `/BENCHMARK.json`.
pub fn manifest() -> Json {
    let better = |m: &Metric| {
        Json::Str(
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }
            .into(),
        )
    };
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str((*s).into())).collect());
    Json::obj([
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WHY.iter()
                    .map(|(name, why)| {
                        Json::obj([
                            ("name", Json::Str((*name).into())),
                            ("why", Json::Str((*why).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                            (
                                "bound",
                                Json::Num(m.bound.expect("end-to-end metrics are bounded")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_manifest_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for ((name, why), expected) in WHY.iter().zip(crate::workloads::NAMES) {
            assert_eq!(*name, expected);
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_is_the_rendered_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
        );
    }
}
