//! Experiment F2 — quota borrowing vs static partitioning.
//!
//! The core operational argument of the shared-cluster paper: hard
//! per-group partitions strand capacity whenever group demand is bursty;
//! quota-with-borrowing lets best-effort work soak up idle GPUs and
//! reclaims them by preemption when owners return. This harness replays a
//! 7-day contended trace under the three regimes and prints both the
//! summary table and the daily utilization series (the figure's line data).
//! See EXPERIMENTS.md § F2.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::Platform;
use tacc_metrics::{Cell, Table};
use tacc_sched::QuotaMode;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 3.0);
    let headline = format!(
        "F2: {} submissions over 7 days, 256 GPUs, load 3",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut summary = Table::new(
        "F2: sharing regimes",
        &[
            "regime",
            "util %",
            "mean JCT (h)",
            "p95 wait (h)",
            "preempts",
            "goodput %",
            "fairness",
        ],
    );

    // One sweep cell per sharing regime; all three replay the same trace.
    type RegimeCell = (Vec<Cell>, Vec<f64>);
    let cells: Vec<RegimeCell> = par_map(
        vec![QuotaMode::Disabled, QuotaMode::Static, QuotaMode::Borrowing],
        |quota| {
            let config = campus_config(|c| {
                c.scheduler.quota = quota;
            });
            let mut platform = Platform::new(config);
            let report = platform.run_trace(&trace);
            let row = vec![
                quota.to_string().into(),
                (report.mean_utilization * 100.0).into(),
                hours(report.jct.mean()).into(),
                hours(report.queue_delay.p95()).into(),
                report.preemptions.into(),
                (report.goodput * 100.0).into(),
                report.fairness.into(),
            ];
            // Daily group GPU-hours give the per-group service shape.
            let per_group: Vec<f64> = report.groups.iter().map(|g| g.gpu_hours).collect();
            (row, per_group)
        },
    );
    let mut series: Vec<Vec<f64>> = Vec::new();
    for (row, per_group) in cells {
        summary.row(row);
        series.push(per_group);
    }
    r.table(&summary);

    let mut groups = Table::new(
        "F2b: GPU-hours delivered per group (quota share in parentheses)",
        &["group", "disabled", "static", "borrowing"],
    );
    let quotas = tacc_workload::GroupRoster::campus_default(256);
    for (gi, ((disabled, fixed), borrowing)) in
        series[0].iter().zip(&series[1]).zip(&series[2]).enumerate()
    {
        let gid = tacc_workload::GroupId::from_index(gi);
        groups.row(vec![
            format!("{} (q={})", quotas.name(gid), quotas.quota(gid)).into(),
            (*disabled).into(),
            (*fixed).into(),
            (*borrowing).into(),
        ]);
    }
    r.table(&groups);

    ExperimentResult { headline }
}
