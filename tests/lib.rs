//! Workspace integration tests for `tacc-rs`.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! shared helpers.

#![forbid(unsafe_code)]

use tacc_core::PlatformConfig;
use tacc_sim::DetRng;
use tacc_workload::{GenParams, Trace, TraceGenerator};

/// A uniform draw from `0..n`, for the seeded property sweeps: each case
/// draws everything from a `DetRng` seeded with the case number, which
/// every assertion names — a failing case number is the reproducer.
pub fn below(rng: &mut DetRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// A small, fast canonical trace for integration tests.
pub fn small_trace(seed: u64, days: f64, load: f64) -> Trace {
    TraceGenerator::new(GenParams::default().with_load_factor(load), seed).generate_days(days)
}

/// The default 256-GPU platform with one field tweaked by the caller.
pub fn config_with(customize: impl FnOnce(&mut PlatformConfig)) -> PlatformConfig {
    let mut config = PlatformConfig::default();
    customize(&mut config);
    config
}
