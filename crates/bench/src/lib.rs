//! # tacc-bench
//!
//! Experiment-regeneration harnesses for the `tacc-rs` reproduction.
//!
//! Two binaries:
//!
//! | Target | What it does |
//! |---|---|
//! | `experiments` | regenerates any EXPERIMENTS.md table or figure by id (`experiments f3 t1`), fans experiments and their sweep cells out across threads, and gates results against the golden JSON snapshots in `crates/bench/golden/`; also hosts the `--determinism` double replay |
//! | `perf` | the scheduler hot-path harness: exact work counters per scenario, gated against `BENCH_hotpath.json` |
//!
//! ```sh
//! cargo run --release -p tacc-bench --bin experiments -- --check   # regression gate
//! cargo run --release -p tacc-bench --bin experiments -- --bless   # update goldens
//! ```
//!
//! Each experiment body lives in [`experiments`] as a pure
//! `fn(&mut Reporter) -> ExperimentResult`, listed in the [`registry`].
//!
//! This library holds the shared setup (canonical cluster and trace
//! definitions), the experiment registry, and the runner's supporting
//! machinery (bounded parallelism, output capture, deterministic JSON).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod determinism;
pub mod experiments;
pub mod gha;
pub mod hotpath;
pub mod registry;
pub mod report;

pub use tacc_par as par;

use tacc_core::PlatformConfig;
use tacc_workload::{GenParams, Trace, TraceGenerator};

/// The canonical trace seed shared by all experiments, so that policy
/// comparisons replay the identical submission sequence.
pub const TRACE_SEED: u64 = 20_240_601;

/// The canonical moderately-contended workload: `days` days at `load`×
/// the default arrival rate on the 256-GPU campus cluster.
pub fn standard_trace(days: f64, load: f64) -> Trace {
    TraceGenerator::new(GenParams::default().with_load_factor(load), TRACE_SEED).generate_days(days)
}

/// A trace with a controlled multi-node (≥16 GPU) job fraction.
pub fn multinode_trace(days: f64, load: f64, multi_fraction: f64) -> Trace {
    let params = GenParams::default()
        .with_load_factor(load)
        .with_multi_node_fraction(multi_fraction);
    TraceGenerator::new(params, TRACE_SEED).generate_days(days)
}

/// The canonical 256-GPU platform configuration, optionally customized.
pub fn campus_config(customize: impl FnOnce(&mut PlatformConfig)) -> PlatformConfig {
    let mut config = PlatformConfig::default();
    customize(&mut config);
    config
}

/// Formats seconds as hours with two decimals (experiment tables report
/// hours).
pub fn hours(secs: f64) -> f64 {
    secs / 3600.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_trace_is_reproducible() {
        let a = standard_trace(0.5, 1.0);
        let b = standard_trace(0.5, 1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn multinode_fraction_changes_mix() {
        let base = standard_trace(1.0, 1.0);
        let heavy = multinode_trace(1.0, 1.0, 0.5);
        let count_multi = |t: &Trace| {
            t.records()
                .iter()
                .filter(|r| r.schema.total_gpus() >= 16)
                .count() as f64
                / t.len() as f64
        };
        assert!(count_multi(&heavy) > count_multi(&base));
    }

    #[test]
    fn hours_conversion() {
        assert_eq!(hours(7200.0), 2.0);
    }
}
