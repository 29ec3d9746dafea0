//! Experiment T2 — placement strategy comparison.
//!
//! On a multi-node-heavy workload, compares packing, spreading and
//! topology-aware placement on: mean slowdown of distributed (≥16 GPU)
//! jobs (communication effect), their mean JCT, overall p95 wait, and
//! utilization. See EXPERIMENTS.md § T2.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, hours, multinode_trace};
use tacc_core::Platform;
use tacc_metrics::{Cell, Summary, Table};
use tacc_sched::PlacementStrategy;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = multinode_trace(7.0, 1.2, 0.25);
    let headline = format!(
        "T2: placement comparison ({} submissions, 25% multi-node, load 1.2)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "T2: placement strategies",
        &[
            "strategy",
            "multi-node exec slowdown",
            "multi-node JCT (h)",
            "p95 wait (h)",
            "util %",
        ],
    );
    let mut single = Table::new(
        "T2b: single-GPU exec slowdown (interference side of the tradeoff)",
        &["strategy", "1-GPU exec slowdown"],
    );

    // One deterministic replay per strategy feeds both panels.
    let rows = par_map(
        vec![
            PlacementStrategy::Pack,
            PlacementStrategy::Spread,
            PlacementStrategy::TopologyAware,
        ],
        |strategy| {
            let config = campus_config(|c| {
                c.scheduler.placement = strategy;
            });
            let report = Platform::new(config).run_trace(&trace);
            // Execution slowdown: run time over oracle service time, queueing
            // excluded — this isolates the communication cost of the placement.
            let multi_slowdown: Vec<f64> = report
                .jobs
                .iter()
                .filter(|j| j.gpus >= 16)
                .map(|j| ((j.jct_secs - j.queue_delay_secs) / j.service_secs).max(1.0))
                .collect();
            let multi_jct: Vec<f64> = report
                .jobs
                .iter()
                .filter(|j| j.gpus >= 16)
                .map(|j| j.jct_secs)
                .collect();
            // Single-GPU jobs have no collectives; they only feel co-location
            // interference, which packing maximizes and spreading avoids.
            let single_slowdown: Vec<f64> = report
                .jobs
                .iter()
                .filter(|j| j.gpus == 1)
                .map(|j| ((j.jct_secs - j.queue_delay_secs) / j.service_secs).max(1.0))
                .collect();
            let row = vec![
                strategy.to_string().into(),
                Summary::from_samples(&multi_slowdown).mean().into(),
                hours(Summary::from_samples(&multi_jct).mean()).into(),
                hours(report.queue_delay.p95()).into(),
                (report.mean_utilization * 100.0).into(),
            ];
            let single_row = vec![
                strategy.to_string().into(),
                Cell::Num(Summary::from_samples(&single_slowdown).mean(), 3),
            ];
            (row, single_row)
        },
    );
    for (row, single_row) in rows {
        table.row(row);
        single.row(single_row);
    }
    r.table(&table);
    r.table(&single);
    r.line("(exec slowdown = (JCT - wait) / oracle service; spread placements cross more");
    r.line(" racks, so gang collectives run at the oversubscribed inter-rack tier — but");
    r.line(" single-GPU jobs prefer spreading, which minimizes co-location interference)");

    ExperimentResult { headline }
}
