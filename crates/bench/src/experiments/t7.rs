//! Experiment T7 — ML Productivity Goodput decomposition.
//!
//! Replays the contended 7-day trace with fault injection on under each
//! queue-ordering policy and decomposes cluster capacity into
//! `goodput = availability × throughput efficiency × (1 − badput)`,
//! with badput itemized by cause from the span-derived taxonomy in
//! `tacc-obs` (queue wait, compile, checkpoint overhead, restart rework,
//! preemption, idle-reserved). See EXPERIMENTS.md § T7.

use crate::par::par_map;
use crate::report::{ExperimentResult, Reporter};
use crate::{campus_config, standard_trace};
use tacc_core::Platform;
use tacc_metrics::{Cell, Table};
use tacc_sched::PolicyKind;

const SECS_PER_HOUR: f64 = 3600.0;

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let trace = standard_trace(7.0, 4.0);
    let headline = format!(
        "T7: goodput decomposition of {} submissions over 7 days, faults on",
        trace.len()
    );
    r.line(&format!("{headline}\n"));

    let runs = par_map(
        vec![
            PolicyKind::Fifo,
            PolicyKind::Sjf,
            PolicyKind::FairShare,
            PolicyKind::Drf,
            PolicyKind::MultiFactor,
        ],
        |policy| {
            let config = campus_config(|c| {
                c.scheduler.policy = policy;
                // Faults on so restart rework and checkpoint overhead show
                // up as itemized badput, not just as lost throughput.
                c.node_mtbf_secs = Some(10.0 * 86_400.0);
            });
            let report = Platform::new(config).run_trace(&trace);
            (policy, report.goodput_decomposition)
        },
    );

    let mut table = Table::new(
        "T7: ML Productivity Goodput by queue-ordering policy",
        &[
            "policy",
            "goodput",
            "avail",
            "thru eff",
            "badput frac",
            "badput GPU-h",
        ],
    );
    for (policy, g) in &runs {
        table.row(vec![
            policy.to_string().into(),
            Cell::Num(g.goodput, 4),
            Cell::Num(g.availability, 4),
            Cell::Num(g.throughput_efficiency, 4),
            Cell::Num(g.badput_fraction, 4),
            Cell::Num(g.badput.total_gpu_secs() / SECS_PER_HOUR, 1),
        ]);
    }
    r.table(&table);

    // Itemized badput for the canonical multi-factor run: where the
    // non-productive GPU-time actually goes.
    let (_, canonical) = runs.last().expect("five policies ran");
    let mut causes = Table::new(
        "T7: badput by cause (multi-factor policy)",
        &["cause", "GPU-hours", "% of capacity"],
    );
    for (cause, gpu_secs) in canonical.badput.items() {
        causes.row(vec![
            cause.to_string().into(),
            Cell::Num(gpu_secs / SECS_PER_HOUR, 1),
            Cell::Num(100.0 * gpu_secs / canonical.capacity_gpu_secs, 2),
        ]);
    }
    causes.row(vec![
        "total".into(),
        Cell::Num(canonical.badput.total_gpu_secs() / SECS_PER_HOUR, 1),
        Cell::Num(
            100.0 * canonical.badput.total_gpu_secs() / canonical.capacity_gpu_secs,
            2,
        ),
    ]);
    r.table(&causes);

    // The byte-stable machine-readable report (what CI archives).
    r.line(&format!(
        "goodput JSON (multi-factor): {}",
        canonical.to_json()
    ));

    ExperimentResult { headline }
}
