//! Experiment F8 — dataset staging from the shared filesystem.
//!
//! The execution layer stages each job's dataset out of the networked
//! filesystem onto its nodes before training starts; node-local NVMe
//! caches absorb repeat reads. This harness sweeps the node-cache size and
//! the backend bandwidth and reports staging latency and shared-store
//! traffic. See EXPERIMENTS.md § F8.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, standard_trace};
use tacc_core::Platform;
use tacc_metrics::Table;
use tacc_storage::StorageConfig;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 2.0);
    let headline = format!(
        "F8: dataset staging over {} submissions (7 days, load 2)",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let mut table = Table::new(
        "F8a: node-cache capacity sweep",
        &[
            "node cache",
            "staged starts",
            "mean staging (s)",
            "backend TB moved",
            "mean JCT (h)",
        ],
    );
    // The canonical trace's dataset catalogue totals ~65 GB, so the sweep
    // spans caches that hold one dataset, a few, and all of them.
    let caches: Vec<(&str, u64)> = vec![
        ("disabled", 0),
        ("20 GB", 20_000),
        ("50 GB", 50_000),
        ("100 GB", 100_000),
    ];
    let rows = par_map(caches, |(label, cache_mb)| {
        let config = campus_config(|c| {
            c.storage = Some(StorageConfig {
                node_cache_mb: cache_mb,
                ..StorageConfig::default()
            });
        });
        let mut platform = Platform::new(config);
        let report = platform.run_trace(&trace);
        let backend_tb = platform
            .storage_stats()
            .map(|(mb, _)| mb as f64 / 1024.0 / 1024.0)
            .unwrap_or(0.0);
        vec![
            label.into(),
            report.stagings.into(),
            report.mean_staging_secs.into(),
            backend_tb.into(),
            (report.jct.mean() / 3600.0).into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);

    let mut bw = Table::new(
        "F8b: backend bandwidth sweep (500 GB node caches)",
        &["aggregate MiB/s", "mean staging (s)", "p-clients capped?"],
    );
    let rows = par_map(vec![5_000.0f64, 20_000.0, 80_000.0], |aggregate| {
        let config = campus_config(|c| {
            c.storage = Some(StorageConfig {
                aggregate_mbps: aggregate,
                ..StorageConfig::default()
            });
        });
        let report = Platform::new(config).run_trace(&trace);
        vec![
            format!("{aggregate:.0}").into(),
            report.mean_staging_secs.into(),
            if aggregate >= 20_000.0 {
                "client-capped"
            } else {
                "backend-capped"
            }
            .into(),
        ]
    });
    for row in rows {
        bw.row(row);
    }
    r.table(&bw);
    r.line("(bigger node caches turn repeat reads of hot datasets into local hits;");
    r.line(" an undersized backend makes staging fan-in the bottleneck instead)");

    ExperimentResult { headline }
}
