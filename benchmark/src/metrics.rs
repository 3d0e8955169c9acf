//! The benchmark's metric lists: names, units and what each is expected
//! to move. `BENCHMARK.json` at the repository root is rendered from
//! these tables (`--benchmark-json`), and a test holds the two together.

use crate::report::json_string;
use crate::workloads::WORKLOADS;

/// What the driver runs; it appends `--workload --seed --seconds --trace`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
pub const RUN_SECONDS: u32 = 10;

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.2,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        higher_is_better: false,
        bound: 0.2,
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "B",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.1,
    },
];

/// A per-layer metric. `None` for `higher_is_better` would be ideal for
/// pure diagnostics, but the contract wants a direction for each.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The end-to-end metric and workload it should move; on every other
    /// workload the prediction is no change.
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
        moves,
    }
}

pub const ALGOS: [&str; 6] = ["grid", "mobi", "up", "sr", "semi", "naive"];
pub const SHARES: [&str; 7] = [
    "server",
    "codec",
    "transport",
    "router",
    "cache",
    "device",
    "core",
];

/// Per-layer metrics that are not generated per algorithm or per share.
const FIXED: [PerLayer; 57] = [
    lower(
        "update_ms",
        "ms",
        "itself an end-to-end time on live_session; ops_per_s there",
    ),
    lower("failed_op_share", "share", "expected 0 on every workload"),
    lower("geom.sweep_leaf_ns", "ns", "op_ms on dense_device"),
    lower("geom.sweep_big_ms", "ms", "op_ms on dense_device (naive)"),
    lower(
        "geom.sweep_parallel_ratio",
        "ratio",
        "op_ms on dense_device; above 1 the parallel sweep is slower",
    ),
    lower("rtree.window_ns", "ns", "op_ms on rail_inproc"),
    lower("rtree.count_ns", "ns", "op_ms on rail_inproc"),
    lower(
        "rtree.bulk_load_ms",
        "ms",
        "setup_s everywhere; update_ms on live_session",
    ),
    lower("server.handle_count_ns", "ns", "op_ms on rail_inproc"),
    lower(
        "server.handle_window_ns_per_obj",
        "ns",
        "op_ms on rail_inproc",
    ),
    lower(
        "server.versioned_read_ratio",
        "ratio",
        "op_ms on live_session",
    ),
    lower(
        "server.apply_batch_ms",
        "ms",
        "update_ms and ops_per_s on live_session",
    ),
    lower("server.partition_ms", "ms", "setup_s on rail_fleet"),
    lower(
        "net.codec.v1_encode_ns_per_obj",
        "ns",
        "op_ms on rail_inproc, dense_device",
    ),
    lower(
        "net.codec.v1_decode_ns_per_obj",
        "ns",
        "op_ms on rail_inproc, dense_device",
    ),
    lower(
        "net.codec.v2_encode_ns_per_obj",
        "ns",
        "op_ms on rail_fleet",
    ),
    lower(
        "net.codec.v2_decode_ns_per_obj",
        "ns",
        "op_ms on rail_fleet",
    ),
    lower(
        "net.codec.v2_bytes_per_obj",
        "B",
        "wire_bytes_per_op on rail_fleet",
    ),
    lower(
        "net.codec.request_roundtrip_ns",
        "ns",
        "op_ms on rail_inproc",
    ),
    lower(
        "net.transport.inproc_exchange_ns",
        "ns",
        "op_ms on rail_inproc, dense_device",
    ),
    lower(
        "net.transport.threaded_exchange_ns",
        "ns",
        "op_ms on rail_fleet",
    ),
    lower(
        "net.transport.event_loop_exchange_ns",
        "ns",
        "op_ms on live_session, many_devices",
    ),
    lower("net.transport.connect_us", "us", "op_ms on rail_fleet"),
    lower("net.router.x1_added_ns", "ns", "op_ms on rail_fleet"),
    lower("net.router.x4_added_ns", "ns", "op_ms on rail_fleet"),
    lower("net.router.x4r2_added_ns", "ns", "op_ms on rail_fleet"),
    lower("net.fault.noop_added_ns", "ns", "op_ms on rail_fleet"),
    lower(
        "net.fault.retry_armed_added_ns",
        "ns",
        "op_ms on rail_fleet",
    ),
    lower("net.fault.drops_added_ns", "ns", "op_ms on rail_fleet"),
    lower("net.health.breaker_added_ns", "ns", "op_ms on rail_fleet"),
    lower("net.codec.v2_added_ns", "ns", "op_ms on rail_fleet"),
    lower(
        "net.cache.miss_added_ns",
        "ns",
        "op_ms on live_session (cold kinds)",
    ),
    lower(
        "net.router.scatter_width",
        "count",
        "op_p90_ms on rail_fleet",
    ),
    higher("net.router.pruning_rate", "share", "op_ms on rail_fleet"),
    lower("net.fault.retries_per_op", "count", "op_ms on rail_fleet"),
    lower("net.fault.failovers_per_op", "count", "op_ms on rail_fleet"),
    lower(
        "net.health.breaker_trips_per_op",
        "count",
        "op_ms on rail_fleet",
    ),
    higher(
        "net.cache.hit_rate",
        "share",
        "wire_bytes_per_op on live_session",
    ),
    higher(
        "net.cache.bytes_saved_per_op",
        "B",
        "wire_bytes_per_op on live_session",
    ),
    lower(
        "net.cache.evictions_per_op",
        "count",
        "peak_rss_mb against wire_bytes_per_op on live_session",
    ),
    lower(
        "net.cache.hit_ns",
        "ns",
        "op_ms on live_session (warm kinds)",
    ),
    lower(
        "net.event_loop.max_queue_depth",
        "count",
        "op_p90_ms on many_devices",
    ),
    lower(
        "net.event_loop.fairness_ratio",
        "ratio",
        "op_p90_ms on many_devices",
    ),
    lower(
        "net.event_loop.request_p99_us",
        "us",
        "op_p90_ms on many_devices",
    ),
    lower("device.grid_hash_leaf_ns", "ns", "op_ms on dense_device"),
    lower("device.leaf_ns_per_object", "ns", "op_ms on dense_device"),
    lower("device.leaf_ns_per_pair", "ns", "op_ms on dense_device"),
    lower(
        "device.grid_hash_parallel_ratio",
        "ratio",
        "op_ms on dense_device; above 1 the parallel kernel is slower",
    ),
    lower(
        "device.traffic_pool_ratio",
        "ratio",
        "ops_per_s on many_devices; 0.5 is perfect scaling at 2 workers",
    ),
    lower("workloads.generate_ms", "ms", "setup_s"),
    lower("host.calib_ms", "ms", "nothing: the host's speed"),
    lower(
        "host.calib_spread",
        "ratio",
        "nothing: the host's steadiness",
    ),
    lower(
        "host.op_p90_ms",
        "ms",
        "nothing: the tail follows the host's jitter, see README",
    ),
    lower("host.op_p99_ms_raw", "ms", "nothing: too noisy to gate"),
    lower(
        "host.trace_overhead_share",
        "share",
        "nothing: what the spans cost",
    ),
    lower("host.timed_s", "s", "nothing: wall time of the op loop"),
    higher("host.cpus", "count", "nothing: available_parallelism"),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> &'static [PerLayer] {
    static ALL: std::sync::OnceLock<Vec<PerLayer>> = std::sync::OnceLock::new();
    ALL.get_or_init(|| {
        // The generated names are built once and live for the process.
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let mut all: Vec<PerLayer> = FIXED.into_iter().collect();
        for a in ALGOS {
            all.push(lower(
                leak(format!("core.{a}.join_ms")),
                "ms",
                "a component of op_ms where the algorithm runs",
            ));
            all.push(lower(
                leak(format!("core.{a}.queries_per_op")),
                "count",
                "op_ms and wire_bytes_per_op where the algorithm runs",
            ));
            all.push(lower(
                leak(format!("core.{a}.hbsj_runs_per_op")),
                "count",
                "op_ms where the algorithm runs",
            ));
        }
        for s in SHARES {
            all.push(lower(
                leak(format!("share.{s}")),
                "share",
                if s == "core" {
                    "what is left: planner, collector, and whatever the model leaves out"
                } else {
                    "the most a faster layer can save of op_ms on this workload"
                },
            ));
        }
        all
    })
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    let command: Vec<String> = COMMAND.iter().map(|c| json_string(c)).collect();
    out.push_str(&format!("  \"command\": [{}],\n", command.join(", ")));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(name),
                json_string(why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(better(m.higher_is_better)),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(better(m.higher_is_better))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn lists_stay_inside_the_contracts_limits() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = layers.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = layers
            .iter()
            .map(|m| m.unit)
            .chain(END_TO_END.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn the_committed_benchmark_json_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            committed == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `--benchmark-json`"
        );
    }
}
