//! Reproducibility: save a trace to JSON, reload it elsewhere, replay it
//! twice, and verify the reports are bit-identical.
//!
//! The paper's schema layer "guarantees consistent and reproducible task
//! execution"; this example extends that guarantee to whole experiments.
//!
//! ```sh
//! cargo run --release --example trace_replay
//! ```

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use tacc_core::{wire, Platform, PlatformConfig};
use tacc_workload::{GenParams, Trace, TraceGenerator};

fn main() {
    // 1. Generate a trace and characterize it.
    let trace = TraceGenerator::new(GenParams::default(), 7).generate_days(2.0);
    let stats = trace.stats();
    println!(
        "generated {} submissions / {:.0} GPU-hours (median job {:.0}s, p95 {:.0}s)",
        trace.len(),
        stats.total_gpu_hours,
        stats.duration_summary.p50(),
        stats.duration_summary.p95()
    );

    // 2. Serialize — this is the artifact you would commit or share.
    let json = trace.to_json().to_pretty();
    println!("serialized to {} KiB of JSON", json.len() / 1024);

    // 3. A colleague reloads it and replays on their own machine.
    let reloaded = Trace::from_json(&wire::parse(&json).expect("is JSON")).expect("round-trips");
    assert_eq!(reloaded, trace, "byte-exact trace round-trip");

    let report_a = Platform::new(PlatformConfig::default()).run_trace(&reloaded);
    let report_b = Platform::new(PlatformConfig::default()).run_trace(&reloaded);
    assert_eq!(report_a, report_b, "same config + trace ⇒ identical report");

    println!(
        "replayed twice: {} completed, mean JCT {:.2} h, util {:.1}% — identical both times",
        report_a.completed,
        report_a.jct.mean() / 3600.0,
        report_a.mean_utilization * 100.0
    );

    // 4. The same trace under a different regime is a one-line change.
    let mut alt = PlatformConfig::default();
    alt.scheduler.quota = tacc_sched::QuotaMode::Borrowing;
    let report_c = Platform::new(alt).run_trace(&reloaded);
    println!(
        "same trace under borrowing quotas: mean JCT {:.2} h, {} preemptions",
        report_c.jct.mean() / 3600.0,
        report_c.preemptions
    );
}
