//! Experiment F7 — failure injection and fail-safe runtime switching.
//!
//! Sweeps per-node MTBF and compares the execution layer with and without
//! fail-safe switching (paper Table 1): completion rate, faults absorbed,
//! wasted GPU-hours and mean JCT. See EXPERIMENTS.md § F7.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::Platform;
use tacc_exec::FailoverPolicy;
use tacc_metrics::Table;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 2.0);
    let headline = format!(
        "F7: node-failure sweep ({} submissions, 7 days, 32 nodes)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "F7: failover vs fail-job under node faults",
        &[
            "MTBF/node",
            "policy",
            "faults",
            "failed jobs",
            "completion %",
            "wasted GPU-h",
            "mean JCT (h)",
        ],
    );

    let mut cells = Vec::new();
    for (label, mtbf_days) in [("30 days", 30.0), ("10 days", 10.0), ("3 days", 3.0)] {
        for policy in [FailoverPolicy::FailJob, FailoverPolicy::SwitchRuntime] {
            cells.push((label, mtbf_days, policy));
        }
    }
    let rows = par_map(cells, |(label, mtbf_days, policy)| {
        let config = campus_config(|c| {
            c.node_mtbf_secs = Some(mtbf_days * 86_400.0);
            c.failover = policy;
        });
        let report = Platform::new(config).run_trace(&trace);
        let done =
            report.completed as f64 / (report.completed as f64 + report.failed as f64).max(1.0);
        vec![
            label.into(),
            match policy {
                FailoverPolicy::FailJob => "fail-job",
                FailoverPolicy::SwitchRuntime => "switch-runtime",
            }
            .into(),
            report.faults.into(),
            report.failed.into(),
            (done * 100.0).into(),
            report.wasted_gpu_hours.into(),
            hours(report.jct.mean()).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(with switching, a faulted all-reduce job restarts from checkpoint on the");
    r.line(" parameter-server runtime instead of dying; waste = lost progress + re-work)");

    ExperimentResult { headline }
}
