//! Experiment F4 — backfill effectiveness.
//!
//! Sweeps the multi-node job fraction (the knob that creates head-of-line
//! blocking) and compares no-backfill, EASY and conservative backfill on
//! utilization and p95 wait. See EXPERIMENTS.md § F4.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, multinode_trace};
use tacc_core::Platform;
use tacc_metrics::Table;
use tacc_sched::BackfillMode;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let headline = "F4: backfill vs multi-node job fraction, 7-day traces, load 1.5".to_owned();
    r.line(&format!("{headline}\n"));

    let mut util = Table::new(
        "F4a: cluster utilization (%) vs multi-node fraction",
        &["multi-node %", "none", "easy", "conservative"],
    );
    let mut wait = Table::new(
        "F4b: p95 wait (h) vs multi-node fraction",
        &["multi-node %", "none", "easy", "conservative"],
    );
    let mut backfills = Table::new(
        "F4c: backfilled starts",
        &["multi-node %", "none", "easy", "conservative"],
    );

    // 4 fractions x 3 backfill modes; the modes of one fraction share a
    // trace.
    let rows = par_map(vec![0.05, 0.10, 0.20, 0.40], |frac: f64| {
        let trace = multinode_trace(7.0, 1.5, frac);
        par_map(
            vec![
                BackfillMode::None,
                BackfillMode::Easy,
                BackfillMode::Conservative,
            ],
            |mode| {
                let config = campus_config(|c| {
                    c.scheduler.backfill = mode;
                });
                let report = Platform::new(config).run_trace(&trace);
                (
                    report.mean_utilization * 100.0,
                    hours(report.queue_delay.p95()),
                    report.backfill_starts,
                )
            },
        )
    });
    for (frac, cells) in [0.05, 0.10, 0.20, 0.40].into_iter().zip(rows) {
        let label = format!("{:.0}%", frac * 100.0);
        let mut u = vec![label.clone().into()];
        let mut w = vec![label.clone().into()];
        let mut b = vec![label.into()];
        for (utilization, p95_wait, backfilled) in cells {
            u.push(utilization.into());
            w.push(p95_wait.into());
            b.push(backfilled.into());
        }
        util.row(u);
        wait.row(w);
        backfills.row(b);
    }
    r.table(&util);
    r.table(&wait);
    r.table(&backfills);

    ExperimentResult { headline }
}
