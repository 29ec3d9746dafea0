//! Experiment F3 — fairness under contention (load-factor sweep).
//!
//! Sweeps the offered load and reports, per scheduling regime, the Jain
//! fairness index over per-group delivered GPU-hours (normalized by quota
//! share) and the worst group's p95 queueing delay. The figure's point:
//! FIFO starves small groups as load rises; fair-share and quota regimes
//! hold the fairness index flat. See EXPERIMENTS.md § F3.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::{Platform, SimulationReport};
use tacc_metrics::{jain_index, Table};
use tacc_sched::{PolicyKind, QuotaMode};
use tacc_workload::GroupRoster;

/// Jain index over per-group service normalized by quota share — 1.0 when
/// every group receives GPU-hours proportional to its quota.
fn normalized_fairness(report: &SimulationReport, roster: &GroupRoster) -> f64 {
    let normalized: Vec<f64> = report
        .groups
        .iter()
        .enumerate()
        .map(|(gi, g)| {
            let quota = f64::from(roster.quota(tacc_workload::GroupId::from_index(gi))).max(1.0);
            g.gpu_hours / quota
        })
        .collect();
    jain_index(&normalized)
}

fn worst_p95_wait(report: &SimulationReport) -> f64 {
    report
        .groups
        .iter()
        .map(|g| g.p95_queue_delay_secs)
        .fold(0.0, f64::max)
}

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let roster = GroupRoster::campus_default(256);
    let headline = "F3: fairness vs load, 7-day traces, 256 GPUs".to_owned();
    r.line(&format!("{headline}\n"));

    let regimes: [(&str, PolicyKind, QuotaMode); 3] = [
        ("fifo", PolicyKind::Fifo, QuotaMode::Disabled),
        ("fair-share", PolicyKind::FairShare, QuotaMode::Disabled),
        ("quota+borrow", PolicyKind::Fifo, QuotaMode::Borrowing),
    ];

    let mut fair = Table::new(
        "F3a: quota-normalized Jain fairness vs load",
        &["load", "fifo", "fair-share", "quota+borrow"],
    );
    let mut wait = Table::new(
        "F3b: worst-group p95 wait (h) vs load",
        &["load", "fifo", "fair-share", "quota+borrow"],
    );

    // 5 loads x 3 regimes; the regimes of one load share its trace.
    let roster = &roster;
    let rows = par_map(vec![1.0, 2.0, 3.0, 4.0, 5.0], |load: f64| {
        let trace = standard_trace(7.0, load);
        let cells = par_map(regimes.to_vec(), |(_, policy, quota)| {
            let config = campus_config(|c| {
                c.scheduler.policy = policy;
                c.scheduler.quota = quota;
            });
            let report = Platform::new(config).run_trace(&trace);
            (
                normalized_fairness(&report, roster),
                hours(worst_p95_wait(&report)),
            )
        });
        let mut fair_row = vec![format!("{load:.1}x").into()];
        let mut wait_row = vec![format!("{load:.1}x").into()];
        for (fairness, worst_wait) in cells {
            fair_row.push(fairness.into());
            wait_row.push(worst_wait.into());
        }
        (fair_row, wait_row)
    });
    for (fair_row, wait_row) in rows {
        fair.row(fair_row);
        wait.row(wait_row);
    }
    r.table(&fair);
    r.table(&wait);

    ExperimentResult { headline }
}
