//! Experiment F9 — gang time-slicing.
//!
//! With long best-effort gangs monopolizing the machine, short guaranteed
//! work can wait hours. Time-slicing (Slurm's gang scheduling) rotates
//! expired best-effort tasks out when queued work could use the space.
//! This harness sweeps the quantum and reports short-job wait, rotation
//! count, and the goodput cost of the extra checkpoint round-trips. See
//! EXPERIMENTS.md § F9.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, standard_trace};
use tacc_core::Platform;
use tacc_metrics::{Summary, Table};

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 3.0);
    let headline = format!(
        "F9: time-slicing quantum sweep ({} submissions, load 3)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "F9: gang time-slicing",
        &[
            "quantum",
            "rotations",
            "short-job p95 wait (h)",
            "long-job mean JCT (h)",
            "goodput %",
        ],
    );
    let quanta: Vec<(&str, Option<f64>)> = vec![
        ("disabled", None),
        ("30 min", Some(1800.0)),
        ("2 h", Some(7200.0)),
        ("8 h", Some(28_800.0)),
    ];
    let rows = par_map(quanta, |(label, quantum)| {
        let config = campus_config(|c| {
            c.scheduler.time_slice_secs = quantum;
        });
        let report = Platform::new(config).run_trace(&trace);
        let short_waits: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.service_secs < 1800.0)
            .map(|j| j.queue_delay_secs)
            .collect();
        let long_jct: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.service_secs > 6.0 * 3600.0)
            .map(|j| j.jct_secs)
            .collect();
        vec![
            label.into(),
            report.preemptions.into(),
            hours(Summary::from_samples(&short_waits).p95()).into(),
            hours(Summary::from_samples(&long_jct).mean()).into(),
            (report.goodput * 100.0).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(tighter quanta cut short-job waits at the price of more rotations —");
    r.line(" each one a checkpoint/restore round-trip charged to the rotated gang)");

    ExperimentResult { headline }
}
