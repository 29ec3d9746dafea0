//! Experiment T5 — elastic admission (Pollux-style adaptive allocation).
//!
//! The paper positions TACC against adaptive-allocation schedulers like
//! Pollux and lists "task scalability" among the dynamic scheduling
//! factors. This harness compares rigid gangs against elastic admission
//! (multi-worker best-effort gangs may start shrunk, by halving, when the
//! full gang does not fit) on a gang-heavy contended workload. See
//! EXPERIMENTS.md § T5.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, TRACE_SEED};
use tacc_core::Platform;
use tacc_metrics::{Summary, Table};
use tacc_workload::{GenParams, TraceGenerator};

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let headline = "T5: rigid vs elastic gang admission".to_owned();
    let mut table = Table::new(
        "T5: rigid vs elastic gang admission",
        &[
            "mode",
            "util %",
            "mean JCT (h)",
            "gang p95 wait (h)",
            "gang mean JCT (h)",
            "goodput %",
        ],
    );

    let modes: Vec<(&str, f64)> = vec![("rigid", 0.0), ("elastic", 1.0)];
    let rows = par_map(modes, |(label, elastic_fraction)| {
        let params = GenParams::default()
            .with_load_factor(2.0)
            .with_multi_node_fraction(0.3);
        let params = GenParams {
            elastic_fraction,
            best_effort_fraction: 0.6, // elasticity only applies to BE gangs
            ..params
        };
        let trace = TraceGenerator::new(params, TRACE_SEED).generate_days(7.0);
        let report = Platform::new(campus_config(|_| {})).run_trace(&trace);
        let gang_waits: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.gpus >= 16)
            .map(|j| j.queue_delay_secs)
            .collect();
        let gang_jct: Vec<f64> = report
            .jobs
            .iter()
            .filter(|j| j.gpus >= 16)
            .map(|j| j.jct_secs)
            .collect();
        vec![
            label.into(),
            (report.mean_utilization * 100.0).into(),
            hours(report.jct.mean()).into(),
            hours(Summary::from_samples(&gang_waits).p95()).into(),
            hours(Summary::from_samples(&gang_jct).mean()).into(),
            (report.goodput * 100.0).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(elastic gangs trade peak parallelism for immediate starts: lower waits,");
    r.line(" longer individual runs — the Pollux-flavoured adaptive-allocation tradeoff)");

    ExperimentResult { headline }
}
