//! End-to-end guarantees of the span/goodput observability layer:
//!
//! * the transition log read off the event bus is the run's: timelines
//!   reconstructed from its JSONL are byte-identical to the live ones
//!   (the fold is a pure function of the stream), and it counts what
//!   the lifecycle tallies count;
//! * once the bus evicts, the export is the transitions of its window,
//!   legal edge by edge, and never guesses;
//! * the span conservation law holds on a real campus run, and the
//!   goodput factors stay in range with their badput items summing to
//!   the total;
//! * the goodput gauges read the decomposition at every scrape;
//! * the simulation report — goodput decomposition included — is
//!   sim-time-only: strict equality across repeated builds.

use tacc_core::{Platform, PlatformConfig, Query, QueryError};
use tacc_exec::FailoverPolicy;
use tacc_obs::{span_conservation, PlatformEvent, SpanBook, TransitionEvent};
use tacc_sched::QuotaMode;
use tacc_storage::StorageConfig;
use tacc_workload::{GenParams, JobEventKind, JobId, TraceGenerator};

fn replay(config: PlatformConfig, params: GenParams, seed: u64, days: f64) -> Platform {
    let mut p = Platform::new(config);
    p.load_trace(&TraceGenerator::new(params, seed).generate_days(days));
    p.run_until_idle();
    p
}

fn run_platform() -> Platform {
    // Faults on so resumed runs pay checkpoint restores and the
    // Recovering/Restoring phases actually appear.
    let config = PlatformConfig {
        node_mtbf_secs: Some(30_000.0),
        ..PlatformConfig::default()
    };
    replay(config, GenParams::default(), 11, 0.5)
}

/// The census configurations, each with the transition kind it is there
/// to produce: every bus kind that stands for an edge occurs somewhere.
fn census_configs() -> Vec<(&'static str, PlatformConfig, GenParams, JobEventKind)> {
    let mut borrowing = PlatformConfig {
        node_mtbf_secs: Some(30_000.0),
        storage: Some(StorageConfig::default()),
        ..PlatformConfig::default()
    };
    borrowing.scheduler.quota = QuotaMode::Borrowing;
    let fail_stop = PlatformConfig {
        node_mtbf_secs: Some(20_000.0),
        failover: FailoverPolicy::FailJob,
        ..PlatformConfig::default()
    };
    let cancels = GenParams {
        cancel_fraction: 0.4,
        ..GenParams::default()
    };
    vec![
        (
            "default",
            PlatformConfig::default(),
            GenParams::default(),
            JobEventKind::Complete,
        ),
        (
            "borrowing+faults+storage",
            borrowing,
            GenParams::default().with_load_factor(3.0),
            JobEventKind::Preempt,
        ),
        (
            "no-fallback failover",
            fail_stop,
            GenParams::default(),
            JobEventKind::Fail,
        ),
        (
            "cancels",
            PlatformConfig::default(),
            cancels,
            JobEventKind::Cancel,
        ),
    ]
}

fn parse(export: &str) -> Vec<TransitionEvent> {
    let lines = export.lines().map(TransitionEvent::from_text);
    lines.collect::<Result<_, _>>().expect("export parses")
}

/// The transition log read off the bus is the run's: refolded, it gives
/// the live timelines back byte for byte, and it counts what the
/// lifecycle tallies and the jobs themselves count.
#[test]
fn timelines_replay_byte_identically_from_exported_transitions() {
    for (name, config, params, kind) in census_configs() {
        for seed in [5, 23] {
            let p = replay(config.clone(), params.clone(), seed, 0.75);
            let case = format!("{name}, seed {seed}");
            assert_eq!(p.events().dropped(), 0, "{case}");
            let export = p.transition_log_jsonl();
            let rebuilt = SpanBook::from_transitions_jsonl(&export, p.span_book().config())
                .expect("exported stream parses back");
            assert_eq!(rebuilt.ignored(), 0, "{case}");
            assert_eq!(rebuilt.observed(), p.span_book().observed(), "{case}");
            assert_eq!(
                rebuilt.to_jsonl(p.span_horizon()),
                p.timelines_jsonl(),
                "{case}"
            );

            let transitions = parse(&export);
            let count = |k: JobEventKind| transitions.iter().filter(|t| t.event == k).count();
            assert!(count(kind) > 0, "{case}: no {kind} transition");
            let metrics = p.metrics();
            let tally = |series: &str| metrics.counter(series).map(|n| n as usize);
            for (k, series) in [
                (JobEventKind::Submit, "tacc_core_jobs_submitted_total"),
                (JobEventKind::Complete, "tacc_core_jobs_completed_total"),
                (JobEventKind::Fail, "tacc_core_jobs_failed_total"),
                (JobEventKind::Reject, "tacc_core_jobs_rejected_total"),
                (JobEventKind::Cancel, "tacc_core_jobs_cancelled_total"),
            ] {
                assert_eq!(Some(count(k)), tally(series), "{case}: {k}");
            }
            let jobs: Vec<_> = p.job_ids().into_iter().filter_map(|id| p.job(id)).collect();
            let preemptions: u32 = jobs.iter().map(|j| j.preemptions()).sum();
            let restarts: u32 = jobs.iter().map(|j| j.restarts()).sum();
            assert_eq!(count(JobEventKind::Preempt), preemptions as usize, "{case}");
            assert_eq!(count(JobEventKind::Interrupt), restarts as usize, "{case}");
        }
    }
}

/// A bus that evicts exports the transitions of its window: every line a
/// legal edge, a job wholly inside the window with the history it has at
/// full capacity, and a cancel with no earlier record left out rather
/// than guessed.
#[test]
fn an_evicting_bus_exports_its_window() {
    let cancels = census_configs().into_iter().find(|c| c.0 == "cancels");
    let (_, config, params, _) = cancels.expect("the sweep has a cancels case");
    let full = replay(config.clone(), params.clone(), 5, 0.75);
    let small = PlatformConfig {
        event_buffer_capacity: 600,
        ..config
    };
    let p = replay(small, params, 5, 0.75);
    assert!(p.events().dropped() > 0);

    let export = parse(&p.transition_log_jsonl());
    assert!(export.iter().all(TransitionEvent::is_legal));

    let mut inside = 0;
    let mut orphaned = 0;
    for id in p.job_ids() {
        let mut records = p.events().records().filter(|r| r.event.job() == id);
        match records.next().map(|r| &r.event) {
            Some(PlatformEvent::Submitted { .. }) => {
                inside += 1;
                assert_eq!(p.transitions(id), full.transitions(id), "{id}");
            }
            Some(PlatformEvent::Cancelled { .. }) => {
                orphaned += 1;
                assert_eq!(p.transitions(id), [], "{id}");
                assert!(!export.iter().any(|t| t.job == id), "{id}");
            }
            _ => {}
        }
    }
    assert!(
        inside > 0 && orphaned > 0,
        "{inside} inside, {orphaned} orphaned"
    );
}

#[test]
fn conservation_laws_hold_on_a_real_run() {
    let p = run_platform();
    let horizon = p.now().as_secs().max(1e-9);
    span_conservation(p.span_book(), horizon).expect("span partition law");

    let report = p.goodput();
    assert!((0.0..=1.0).contains(&report.goodput), "{report:?}");
    assert!((0.0..=1.0).contains(&report.availability));
    assert!((0.0..=1.0).contains(&report.throughput_efficiency));
    assert!((0.0..=1.0).contains(&report.badput_fraction));
    for (cause, gpu_secs) in report.badput.items() {
        assert!(gpu_secs >= 0.0, "{cause}: {gpu_secs}");
    }
    // Itemized causes sum to the total by definition.
    let itemized: f64 = report.badput.items().iter().map(|(_, v)| v).sum();
    assert_eq!(itemized, report.badput.total_gpu_secs());
    // The same decomposition is embedded in the simulation report.
    assert_eq!(p.report().goodput_decomposition, report);
}

/// A scrape publishes the goodput gauges itself: nothing need ask for the
/// decomposition first.
#[test]
fn goodput_gauges_follow_the_report() {
    let p = run_platform();
    let snap = p.metrics();
    let report = p.goodput();
    assert_eq!(snap.gauge("tacc_obs_goodput_ratio"), Some(report.goodput));
    assert_eq!(
        snap.gauge("tacc_obs_goodput_availability"),
        Some(report.availability)
    );
    assert_eq!(
        snap.gauge("tacc_obs_goodput_throughput_efficiency"),
        Some(report.throughput_efficiency)
    );
    assert_eq!(
        snap.gauge("tacc_obs_goodput_badput_ratio"),
        Some(report.badput_fraction)
    );
    // Nothing dropped in this run; the counter exists and reads zero.
    assert_eq!(snap.counter("tacc_obs_dropped_events_total"), Some(0));
}

#[test]
fn repeated_reports_are_strictly_equal() {
    let p = run_platform();
    // goodput() refreshes gauges but must not perturb the report.
    let a = p.report();
    let _ = p.goodput();
    let b = p.report();
    assert_eq!(a, b);
}

/// A timeline asked for by an id past every minted one — the largest
/// there is — reads empty, and the query is refused as an unknown job.
#[test]
fn a_huge_unknown_id_has_no_timeline() {
    let p = replay(PlatformConfig::default(), GenParams::default(), 5, 0.1);
    assert!(p.job_count() > 0);
    let huge = JobId::from_value(u64::MAX);
    assert!(p.timeline(huge).is_empty());
    assert!(p.span_book().timeline(huge, p.span_horizon()).is_empty());
    let refused = p.answer(&Query::Timeline(huge)).expect_err("never minted");
    assert_eq!(refused, QueryError::UnknownJob(huge));
    assert_eq!(refused.kind(), "unknown-job");
    assert_eq!(p.span_book().jobs().count(), p.job_count());
}
