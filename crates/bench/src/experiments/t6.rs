//! Experiment T6 — heterogeneous GPU pools.
//!
//! Campus clusters grow by accretion: datacenter parts next to consumer
//! cards contributed by individual labs. This harness replays the same
//! demand on (a) a uniform A100 cluster, (b) a mixed cluster with the same
//! *GPU count* but a consumer slice, and (c) a mixed cluster with the same
//! *aggregate compute*, and reports what the mix costs. Jobs that land on
//! the consumer pool run slower (relative-speed model) and lose NVLink.
//! See EXPERIMENTS.md § T6.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{hours, standard_trace};
use tacc_cluster::{ClusterSpec, GpuModel};
use tacc_core::{Platform, PlatformConfig};
use tacc_metrics::{Cell, Summary, Table};
use tacc_workload::GroupRoster;

fn replay(label: &str, spec: ClusterSpec) -> Vec<Cell> {
    let trace = standard_trace(7.0, 2.0);
    let gpus = spec.total_gpus();
    let config = PlatformConfig {
        roster: GroupRoster::campus_default(gpus),
        cluster: spec,
        ..PlatformConfig::default()
    };
    let report = Platform::new(config).run_trace(&trace);
    // Execution slowdown of training jobs — hardware speed shows up here.
    let exec_slowdown: Vec<f64> = report
        .jobs
        .iter()
        .map(|j| ((j.jct_secs - j.queue_delay_secs) / j.service_secs).max(1.0))
        .collect();
    vec![
        label.into(),
        (gpus as usize).into(),
        (report.mean_utilization * 100.0).into(),
        Summary::from_samples(&exec_slowdown).mean().into(),
        hours(report.jct.mean()).into(),
        hours(report.queue_delay.p95()).into(),
    ]
}

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let headline = "T6: heterogeneous pools under the same demand (7 days, load 2)".to_owned();
    r.line(&format!("{headline}\n"));
    let mut table = Table::new(
        "T6: uniform vs mixed GPU pools",
        &[
            "cluster",
            "GPUs",
            "util %",
            "mean exec slowdown",
            "mean JCT (h)",
            "p95 wait (h)",
        ],
    );

    let specs: Vec<(&str, ClusterSpec)> = vec![
        // (a) The canonical uniform cluster: 256 A100s.
        (
            "uniform A100 x256",
            ClusterSpec::uniform(4, 8, GpuModel::A100, 8),
        ),
        // (b) Same GPU count, a quarter of it consumer cards.
        (
            "mixed A100 x192 + 3090 x64",
            ClusterSpec::builder()
                .pool(GpuModel::A100, 3, 8, 8)
                .pool(GpuModel::Rtx3090, 1, 8, 8)
                .build(),
        ),
        // (c) Compute-equivalent mix: 3090s are ~4.4x slower than A100s, so
        // it takes far more of them to replace the missing rack.
        (
            "mixed A100 x192 + 3090 x256",
            ClusterSpec::builder()
                .pool(GpuModel::A100, 3, 8, 8)
                .pool(GpuModel::Rtx3090, 4, 8, 8)
                .build(),
        ),
    ];
    let rows = par_map(specs, |(label, spec)| replay(label, spec));
    for row in rows {
        table.row(row);
    }
    r.table(&table);
    r.line("(packing is model-blind, so jobs landing on the consumer pool stretch by");
    r.line(" the A100/3090 speed ratio; extra slow GPUs buy queueing relief, not speed)");

    ExperimentResult { headline }
}
