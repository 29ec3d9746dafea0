//! Experiment F1 — trace characterization.
//!
//! Regenerates the workload-analysis figure: job-duration CDF, GPU-demand
//! histogram, and mean arrival rate by hour of day, over a 30-day campus
//! trace. See EXPERIMENTS.md § F1.

use crate::report::{ExperimentResult, Reporter};
use crate::standard_trace;
use tacc_metrics::{Histogram, Table};

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let days = 30.0;
    let trace = standard_trace(days, 1.0);
    let stats = trace.stats();

    let headline = format!(
        "F1: {} submissions over {days} days ({:.0} GPU-hours of work)",
        trace.len(),
        stats.total_gpu_hours
    );
    r.line(&format!("{headline}\n"));

    // --- Panel (a): duration CDF ------------------------------------
    let mut cdf_table = Table::new("F1a: job duration CDF", &["duration", "P(X <= x)"]);
    for (label, secs) in [
        ("1 min", 60.0),
        ("5 min", 300.0),
        ("15 min", 900.0),
        ("1 hour", 3_600.0),
        ("4 hours", 14_400.0),
        ("12 hours", 43_200.0),
        ("1 day", 86_400.0),
        ("3 days", 259_200.0),
        ("7 days", 604_800.0),
    ] {
        cdf_table.row(vec![
            label.into(),
            stats.duration_cdf.fraction_at_or_below(secs).into(),
        ]);
    }
    r.table(&cdf_table);
    r.line(&format!(
        "median {:.0}s  mean {:.0}s  p95 {:.0}s  (mean >> median: heavy tail)\n",
        stats.duration_summary.p50(),
        stats.duration_summary.mean(),
        stats.duration_summary.p95()
    ));

    // --- Panel (b): GPU demand histogram ----------------------------
    let mut demand = Table::new("F1b: per-job GPU demand", &["GPUs", "jobs", "fraction"]);
    let gpu_jobs: Vec<u32> = trace
        .records()
        .iter()
        .filter(|rec| !rec.schema.kind.is_cpu_only())
        .map(|rec| rec.schema.total_gpus())
        .collect();
    for target in [1u32, 2, 4, 8, 16, 32, 64] {
        let count = gpu_jobs.iter().filter(|&&g| g == target).count();
        demand.row(vec![
            (target as usize).into(),
            count.into(),
            (count as f64 / gpu_jobs.len() as f64).into(),
        ]);
    }
    r.table(&demand);

    // --- Panel (c): diurnal arrival shape ---------------------------
    let mut hourly = Histogram::linear(0.0, 24.0, 24);
    for rec in trace.records() {
        hourly.record((rec.submit_secs / 3600.0) % 24.0);
    }
    let mut arrivals = Table::new(
        "F1c: arrivals by hour of day (mean jobs/hour)",
        &["hour", "jobs/h"],
    );
    for bucket in hourly.buckets() {
        arrivals.row(vec![
            format!("{:02.0}:00", bucket.lo).into(),
            (bucket.count as f64 / days).into(),
        ]);
    }
    r.table(&arrivals);

    ExperimentResult { headline }
}
