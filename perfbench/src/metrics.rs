//! The names and units the result line carries; `BENCHMARK.json` lists the
//! same ones (`tests::benchmark_json_lists_exactly_these_metrics`).

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "replay-light",
    "replay-contended",
    "svc-closed",
    "svc-burst",
    "svc-recover",
];

/// `--trace 0`: what a user of the system sees.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `--trace 1`: one layer each, prefixed by the crate that does the work.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("bench.laps", "count"),
    ("bench.ops_per_lap", "count"),
    ("bench.lap_rate_cv", "ratio"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.op_p99_ms", "ms"),
    ("bench.op_max_ms", "ms"),
    ("bench.within_limit_frac", "ratio"),
    ("bench.accounted_frac", "ratio"),
    ("bench.host_slowdown", "ratio"),
    ("bench.host_cpu_slowdown", "ratio"),
    ("bench.yardstick_cv", "ratio"),
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("sim.wheel_inserts", "count"),
    ("sim.wheel_cascades", "count"),
    ("sim.queue_probe_ns", "ns"),
    ("sched.rounds", "count"),
    ("sched.round_busy_s", "s"),
    ("sched.round_share", "ratio"),
    ("sched.skip_suppressions", "count"),
    ("sched.placement_attempts", "count"),
    ("sched.fastpath_rejects", "count"),
    ("sched.slot_intersections", "count"),
    ("sched.queue_sorts", "count"),
    ("sched.preemptions", "count"),
    ("sched.backfill_starts", "count"),
    ("cluster.free_index_updates", "count"),
    ("cluster.free_index_probes", "count"),
    ("compiler.compilations", "count"),
    ("compiler.cache_hit_rate", "ratio"),
    ("compiler.compile_probe_us", "us"),
    ("exec.plans", "count"),
    ("obs.events_recorded", "count"),
    ("obs.events_dropped", "count"),
    ("obs.report_s", "s"),
    ("obs.transitions_export_s", "s"),
    ("core.platform_new_s", "s"),
    ("core.load_trace_s", "s"),
    ("core.run_s", "s"),
    ("core.arena_alloc", "count"),
    ("core.arena_reuse", "count"),
    ("core.apply_probe_us", "us"),
    ("core.wire_encode_probe_us", "us"),
    ("core.wire_decode_probe_us", "us"),
    ("core.wire_bytes_per_cmd", "bytes"),
    ("taccd.fsyncs", "count"),
    ("taccd.frames_per_fsync", "ratio"),
    ("taccd.journal_bytes_per_cmd", "bytes"),
    ("taccd.append_probe_us", "us"),
    ("taccd.fsync_probe_ms", "ms"),
    ("taccd.engine_rtt_us", "us"),
    ("taccd.recover_decode_s", "s"),
    ("taccd.recover_apply_s", "s"),
    ("taccd.daemon_start_s", "s"),
    ("tcloud.connect_s", "s"),
    ("tcloud.query_rtt_us", "us"),
    ("tcloud.submit_p50_ms", "ms"),
    ("tcloud.status_p50_ms", "ms"),
    ("tcloud.cancel_p50_ms", "ms"),
    ("tcloud.advance_p50_ms", "ms"),
];

/// Values for [`PER_LAYER`] names; a name never set reads 0 (the layer is
/// idle on that workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(name, value)| (*name, *value))
    }

    /// Takes every value `other` has set, over this one's.
    pub fn merge(&mut self, other: &Layers) {
        self.0.extend(other.iter());
    }
}
