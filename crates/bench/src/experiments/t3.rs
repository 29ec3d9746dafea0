//! Experiment T3 — compiler delta cache.
//!
//! Drives the compiler layer directly with a realistic resubmission stream
//! and reports cold-vs-warm provisioning latency, chunk/byte hit rates and
//! bytes transferred, across cache capacities, plus the dataset-shard-size
//! ablation. See EXPERIMENTS.md § T3.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::standard_trace;
use tacc_compiler::{Compiler, CompilerConfig};
use tacc_metrics::{Summary, Table};

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 1.0);
    let schemas: Vec<_> = trace
        .records()
        .iter()
        .map(|rec| rec.schema.clone())
        .collect();
    let headline = format!(
        "T3: compiler cache over {} submissions (shared images/deps/datasets)",
        schemas.len()
    );
    r.line(&format!("{headline}\n"));

    // --- Capacity sweep ---------------------------------------------
    let mut table = Table::new(
        "T3a: cache capacity sweep",
        &[
            "capacity",
            "chunk hit %",
            "byte hit %",
            "GB transferred",
            "mean latency (s)",
            "p95 latency (s)",
            "evictions",
        ],
    );
    let capacities: Vec<(&str, u64)> = vec![
        ("10 GB", 10_000),
        ("50 GB", 50_000),
        ("200 GB", 200_000),
        ("1 TB", 1_000_000),
    ];
    let schemas = &schemas;
    let rows = par_map(capacities, |(label, capacity_mb)| {
        let mut compiler = Compiler::new(CompilerConfig {
            cache_capacity_mb: capacity_mb,
            ..CompilerConfig::default()
        });
        let mut latencies = Vec::with_capacity(schemas.len());
        let mut transferred_mb = 0.0;
        for schema in schemas {
            let out = compiler.compile(schema).expect("trace schemas valid");
            latencies.push(out.provisioning.latency_secs);
            transferred_mb += out.provisioning.transferred_mb;
        }
        let stats = compiler.cache().stats();
        let lat = Summary::from_samples(&latencies);
        vec![
            label.into(),
            (stats.hit_rate() * 100.0).into(),
            (stats.byte_hit_rate() * 100.0).into(),
            (transferred_mb / 1024.0).into(),
            lat.mean().into(),
            lat.p95().into(),
            stats.evictions.into(),
        ]
    });
    for row in rows {
        table.row(row);
    }
    r.table(&table);

    // --- Cold vs warm -----------------------------------------------
    let mut cold_warm = Table::new(
        "T3b: cold vs warm provisioning latency (200 GB cache)",
        &["submission", "latency (s)", "MiB transferred"],
    );
    let mut compiler = Compiler::new(CompilerConfig::default());
    let sample = &schemas[0];
    for i in 0..3 {
        let out = compiler.compile(sample).expect("valid");
        cold_warm.row(vec![
            format!("#{}", i + 1).into(),
            out.provisioning.latency_secs.into(),
            out.provisioning.transferred_mb.into(),
        ]);
    }
    r.table(&cold_warm);

    // --- Fetch-bandwidth ablation -------------------------------------
    // How much the provisioning tier's bandwidth matters at each cache
    // size: with a warm 200 GB cache, latency is dominated by the fixed
    // setup cost; with a thrashing 50 GB cache, bandwidth is everything.
    let mut bw = Table::new(
        "T3c: fetch-bandwidth ablation (mean provisioning latency, s)",
        &["bandwidth MiB/s", "50 GB cache", "200 GB cache"],
    );
    let rows = par_map(vec![200.0f64, 1_000.0, 5_000.0], |bandwidth| {
        let means = par_map(vec![50_000u64, 200_000], |capacity| {
            let mut compiler = Compiler::new(CompilerConfig {
                fetch_bandwidth_mbps: bandwidth,
                cache_capacity_mb: capacity,
                ..CompilerConfig::default()
            });
            let mut latencies = Vec::with_capacity(schemas.len());
            for schema in schemas {
                latencies.push(
                    compiler
                        .compile(schema)
                        .expect("valid")
                        .provisioning
                        .latency_secs,
                );
            }
            Summary::from_samples(&latencies).mean()
        });
        let mut row = vec![format!("{bandwidth:.0}").into()];
        for mean in means {
            row.push(mean.into());
        }
        row
    });
    for row in rows {
        bw.row(row);
    }
    r.table(&bw);

    ExperimentResult { headline }
}
