//! Experiment F5 — preemption cost and the checkpoint-interval ablation.
//!
//! Under quota-with-borrowing, best-effort jobs absorb reclaim preemptions;
//! what they lose depends on the checkpointing policy. This harness sweeps
//! the checkpoint interval (including disabled) on a reclaim-heavy workload
//! and reports goodput, wasted GPU-hours and the preempted jobs' completion
//! times. See EXPERIMENTS.md § F5.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::Platform;
use tacc_exec::CheckpointPolicy;
use tacc_metrics::{Summary, Table};
use tacc_sched::QuotaMode;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 5.0); // heavy contention => many reclaims
    let headline = format!(
        "F5: checkpoint ablation under reclaim preemption ({} submissions, load 5)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "F5: checkpoint interval vs preemption cost",
        &[
            "policy",
            "preempts",
            "goodput %",
            "wasted GPU-h",
            "mean JCT preempted (h)",
            "overall mean JCT (h)",
        ],
    );

    let policies: Vec<(&str, CheckpointPolicy)> = vec![
        ("disabled", CheckpointPolicy::disabled()),
        ("every 60s", CheckpointPolicy::every(60.0, 15.0, 60.0)),
        ("every 10min", CheckpointPolicy::every(600.0, 15.0, 60.0)),
        ("every 1h", CheckpointPolicy::every(3600.0, 15.0, 60.0)),
    ];

    let rows = par_map(policies, |(label, checkpoint)| {
        let config = campus_config(|c| {
            c.scheduler.quota = QuotaMode::Borrowing;
            c.checkpoint = checkpoint;
        });
        let report = Platform::new(config).run_trace(&trace);
        let preempted_jct: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.preemptions > 0)
            .map(|j| j.jct_secs)
            .collect();
        vec![
            label.into(),
            report.preemptions.into(),
            (report.goodput * 100.0).into(),
            report.wasted_gpu_hours.into(),
            hours(Summary::from_samples(&preempted_jct).mean()).into(),
            hours(report.jct.mean()).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(tight intervals bound loss per preemption but tax every running second;");
    r.line(" no checkpointing makes each reclaim destroy the victim's progress)");

    ExperimentResult { headline }
}
