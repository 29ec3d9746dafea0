//! Experiment F10 — capacity planning.
//!
//! The operator's question: how many GPUs does this campus workload need
//! before queueing becomes acceptable? Replays the same demand against
//! cluster sizes from 128 to 512 GPUs (quotas scaled proportionally) and
//! reports the wait/utilization curve. See EXPERIMENTS.md § F10.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{hours, standard_trace};
use tacc_cluster::{ClusterSpec, GpuModel};
use tacc_core::{Platform, PlatformConfig};
use tacc_metrics::Table;
use tacc_workload::GroupRoster;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 3.0);
    let headline = format!(
        "F10: capacity sweep for a fixed demand ({} submissions, 7 days)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "F10: cluster size vs service quality",
        &[
            "GPUs",
            "racks x nodes",
            "util %",
            "mean JCT (h)",
            "p95 wait (h)",
            "p99 wait (h)",
        ],
    );
    let rows = par_map(vec![2u32, 3, 4, 6, 8], |racks| {
        let gpus = racks * 8 * 8;
        let config = PlatformConfig {
            cluster: ClusterSpec::uniform(racks, 8, GpuModel::A100, 8),
            roster: GroupRoster::campus_default(gpus),
            ..PlatformConfig::default()
        };
        let report = Platform::new(config).run_trace(&trace);
        vec![
            (gpus as usize).into(),
            format!("{racks} x 8").into(),
            (report.mean_utilization * 100.0).into(),
            hours(report.jct.mean()).into(),
            hours(report.queue_delay.p95()).into(),
            hours(report.queue_delay.p99()).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(the knee of the p95-wait curve is the provisioning answer: beyond it,");
    r.line(" extra GPUs buy idle capacity; before it, researchers queue for hours)");

    ExperimentResult { headline }
}
