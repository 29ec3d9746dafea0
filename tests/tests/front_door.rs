//! One ingestion path, checked end to end: a trace replayed by
//! `run_trace` and the same trace fed record by record through
//! `apply_record` — the journalled path `tcloud`, `taccd` and recovery
//! take — are the same run.

use tacc_core::{command_stream, Platform, PlatformConfig, SimulationReport};
use tacc_sched::{BackfillMode, PolicyKind, QuotaMode, WorkCounters};
use tacc_tests::{config_with, small_trace};
use tacc_workload::Trace;

/// Everything two runs are compared on.
#[derive(Debug, PartialEq)]
struct Run {
    rounds: u64,
    transitions: String,
    events: String,
    report: SimulationReport,
    counters: WorkCounters,
}

fn observe(mut platform: Platform) -> Run {
    platform.run_until_idle();
    Run {
        rounds: platform.scheduler().rounds(),
        transitions: platform.transition_log_jsonl(),
        events: platform.events().to_jsonl(),
        report: platform.report(),
        // A killed job's `Cancel` is an event on one path and a command on
        // the other, so the event wheel's own traffic is the one thing
        // that differs.
        counters: WorkCounters {
            wheel_insert: 0,
            wheel_cascade: 0,
            ..platform.work_counters()
        },
    }
}

fn as_trace(config: &PlatformConfig, trace: &Trace) -> Run {
    let mut platform = Platform::new(config.clone());
    platform.load_trace(trace);
    observe(platform)
}

fn as_commands(config: &PlatformConfig, trace: &Trace) -> Run {
    let mut platform = Platform::new(config.clone());
    for record in command_stream(trace) {
        let seq = record.seq;
        if let Err(refusal) = platform.apply_record(&record) {
            panic!("record {seq} refused: {refusal}");
        }
    }
    observe(platform)
}

#[test]
fn a_trace_is_its_command_stream() {
    type Shape = (&'static str, f64, fn(&mut PlatformConfig));
    let shapes: [Shape; 4] = [
        ("fifo+easy", 3.0, |_| {}),
        ("borrowing", 5.0, |c| {
            c.scheduler.quota = QuotaMode::Borrowing
        }),
        ("fair-share", 3.0, |c| {
            c.scheduler.policy = PolicyKind::FairShare;
        }),
        ("multi-factor+conservative", 2.0, |c| {
            c.scheduler.policy = PolicyKind::MultiFactor;
            c.scheduler.backfill = BackfillMode::Conservative;
        }),
    ];
    let mut cases: Vec<(String, PlatformConfig, Trace)> = Vec::new();
    for seed in 0..6 {
        for (name, load, customize) in shapes {
            let trace = small_trace(2_300 + seed, 1.0, load);
            cases.push((
                format!("{name}, seed {seed}"),
                config_with(customize),
                trace,
            ));
        }
    }
    // The canonical determinism configuration: every noisy subsystem on
    // (dataset staging is the default configuration's already).
    cases.push((
        "determinism".to_owned(),
        config_with(|c| {
            c.scheduler.quota = QuotaMode::Borrowing;
            c.node_mtbf_secs = Some(10.0 * 86_400.0);
        }),
        small_trace(42, 2.0, 2.0),
    ));
    cases.push((
        "time-slicing".to_owned(),
        config_with(|c| {
            c.scheduler.quota = QuotaMode::Borrowing;
            c.scheduler.time_slice_secs = Some(1_800.0);
        }),
        small_trace(2_306, 1.0, 4.0),
    ));
    for (name, config, trace) in &cases {
        assert!(
            trace
                .records()
                .iter()
                .any(|r| r.cancel_after_secs.is_some()),
            "{name}: the trace kills no job, so the stream carries no cancel"
        );
        let (replayed, fed) = (as_trace(config, trace), as_commands(config, trace));
        assert_eq!(replayed.report.submitted, trace.len(), "{name}");
        assert_eq!(replayed.rounds, fed.rounds, "{name}: rounds");
        assert!(
            replayed.transitions == fed.transitions,
            "{name}: transitions"
        );
        assert!(replayed.events == fed.events, "{name}: events");
        assert_eq!(replayed.counters, fed.counters, "{name}: work counters");
        assert!(replayed == fed, "{name}: report");
    }
}
