//! End-to-end guarantees of the span/goodput observability layer:
//!
//! * timelines reconstructed from the exported transition JSONL are
//!   byte-identical to the live ones (the fold is a pure function of
//!   the stream);
//! * the span and badput conservation laws hold on a real campus run,
//!   under exact dyadic-rational arithmetic;
//! * the simulation report — goodput decomposition included — is
//!   sim-time-only: strict equality across repeated builds.

use std::collections::BTreeMap;

use tacc_core::{Platform, PlatformConfig};
use tacc_obs::{goodput_conservation, span_conservation, JobGoodputInput, SpanBook};
use tacc_workload::{GenParams, JobId, TraceGenerator};

fn run_platform() -> Platform {
    // Faults on so resumed runs pay checkpoint restores and the
    // Recovering/Restoring phases actually appear.
    let config = PlatformConfig {
        node_mtbf_secs: Some(30_000.0),
        ..PlatformConfig::default()
    };
    let mut p = Platform::new(config);
    let trace = TraceGenerator::new(GenParams::default(), 11).generate_days(0.5);
    p.load_trace(&trace);
    p.run_until_idle();
    p
}

fn goodput_inputs(p: &Platform) -> BTreeMap<JobId, JobGoodputInput> {
    p.job_ids()
        .into_iter()
        .map(|id| {
            let job = p.job(id).expect("listed id exists");
            (
                id,
                JobGoodputInput {
                    gpus: f64::from(job.schema().total_gpus()),
                    useful_secs: (job.service_secs() - job.remaining_secs()).max(0.0),
                },
            )
        })
        .collect()
}

#[test]
fn timelines_replay_byte_identically_from_exported_transitions() {
    let p = run_platform();
    assert_eq!(
        p.transitions_dropped(),
        0,
        "the transition ring must retain the whole run for replay"
    );
    let horizon = p.now().as_secs().max(1e-9);
    let live = p.timelines_jsonl();
    assert!(live.contains("\"phase\":\"Running\""));
    assert!(live.contains("\"phase\":\"Queued\""));

    let rebuilt =
        SpanBook::from_transitions_jsonl(&p.transition_log_jsonl(), p.span_book().config())
            .expect("exported stream parses back");
    assert_eq!(rebuilt.ignored(), 0, "the engine only exports legal edges");
    assert_eq!(rebuilt.observed(), p.span_book().observed());
    assert_eq!(
        live,
        rebuilt.to_jsonl(horizon),
        "replayed timelines must be byte-identical"
    );
}

#[test]
fn conservation_laws_hold_on_a_real_run() {
    let p = run_platform();
    let horizon = p.now().as_secs().max(1e-9);
    span_conservation(p.span_book(), horizon).expect("span partition law");
    goodput_conservation(p.span_book(), horizon, &goodput_inputs(&p))
        .expect("badput itemization law");

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

#[test]
fn goodput_gauges_follow_the_report() {
    let p = run_platform();
    let report = p.goodput();
    let snap = p.metrics();
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
    // Nothing dropped in this run; the counters exist and read zero.
    assert_eq!(snap.counter("tacc_obs_dropped_events_total"), Some(0));
    assert_eq!(snap.counter("tacc_obs_dropped_transitions_total"), Some(0));
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
