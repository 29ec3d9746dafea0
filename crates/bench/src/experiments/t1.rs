//! Experiment T1 — scheduling policy comparison.
//!
//! Replays the same contended 7-day trace under FIFO, SJF, fair-share and
//! DRF ordering (all with EASY backfill and packing placement, quotas off)
//! and reports the policy-facing metrics. See EXPERIMENTS.md § T1.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::Platform;
use tacc_metrics::Table;
use tacc_sched::PolicyKind;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 4.0);
    let headline = format!(
        "T1: {} submissions over 7 days, 256 GPUs, load factor 4",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "T1: queue-ordering policy comparison",
        &[
            "policy",
            "mean JCT (h)",
            "p50 JCT (h)",
            "p95 JCT (h)",
            "p95 wait (h)",
            "util %",
            "backfills",
        ],
    );
    let rows = par_map(
        vec![
            PolicyKind::Fifo,
            PolicyKind::Sjf,
            PolicyKind::FairShare,
            PolicyKind::Drf,
            PolicyKind::MultiFactor,
        ],
        |policy| {
            let config = campus_config(|c| {
                c.scheduler.policy = policy;
            });
            let report = Platform::new(config).run_trace(&trace);
            vec![
                policy.to_string().into(),
                hours(report.jct.mean()).into(),
                hours(report.jct.p50()).into(),
                hours(report.jct.p95()).into(),
                hours(report.queue_delay.p95()).into(),
                (report.mean_utilization * 100.0).into(),
                report.backfill_starts.into(),
            ]
        },
    );
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(SJF sorts on the user's noisy estimate, not the oracle duration)");

    ExperimentResult { headline }
}
