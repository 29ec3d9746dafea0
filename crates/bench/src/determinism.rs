//! The canonical determinism probe: one simulation that exercises every
//! subsystem, exported as a byte-comparable stream.
//!
//! The simulator's contract is "same config + same trace ⇒ same bytes".
//! CI enforces it by running `experiments --determinism` twice (in
//! separate processes) and `cmp`-ing the exports; each run also does
//! the same in-process, and feeds its second replay
//! the trace's command stream ([`Feed::Commands`]) so the comparison also
//! holds "a trace is its command stream". The export is the full
//! event-bus JSONL stream followed by one line with the report
//! fingerprint, so both the event sequencing and the aggregate math are
//! pinned.

use crate::{campus_config, standard_trace};
use tacc_core::{command_stream, Platform, SimulationReport};
use tacc_json::{obj, Json};
use tacc_metrics::Summary;
use tacc_obs::SpanBook;
use tacc_sched::QuotaMode;
use tacc_storage::StorageConfig;

/// Days simulated by the canonical determinism run.
pub const DEFAULT_DETERMINISM_DAYS: f64 = 30.0;

/// Both byte-comparable streams from one canonical determinism run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismRun {
    /// Event-bus JSONL followed by a one-line report fingerprint.
    pub events: String,
    /// Lifecycle-engine transition log as JSONL (one record per applied
    /// `JobEvent`) — the audit trail of every job-state change.
    pub transitions: String,
    /// Per-job span timelines as JSONL, folded live by `tacc-obs` from
    /// the same transition stream.
    pub timelines: String,
    /// Timelines rebuilt *from the exported `transitions` text alone*
    /// (parse → refold → re-render). Must equal `timelines` byte-for-byte.
    pub reconstructed_timelines: String,
    /// Byte-stable ML Productivity Goodput JSON for the run (what CI
    /// archives as an artifact).
    pub goodput: String,
}

/// How the canonical run's trace reaches the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// `Platform::run_trace`: arrivals pulled from the loaded trace.
    Trace,
    /// The trace's [`command_stream`] through `Platform::apply_record` —
    /// the journalled path `tcloud`, `taccd` and recovery take.
    Commands,
}

/// Runs the canonical determinism simulation and returns its export
/// streams: event-bus JSONL plus report fingerprint, and the lifecycle
/// transition log.
///
/// The configuration deliberately switches on the noisy subsystems —
/// quota borrowing (preemption/reclaim), fault injection, and dataset
/// staging — so nondeterminism anywhere in the platform shows up as a
/// byte difference.
///
/// Both [`Feed`]s must export the same bytes.
pub fn campus_determinism_run(days: f64, feed: Feed) -> DeterminismRun {
    let trace = standard_trace(days, 2.0);
    let config = campus_config(|c| {
        c.scheduler.quota = QuotaMode::Borrowing;
        c.node_mtbf_secs = Some(10.0 * 86_400.0);
        c.storage = Some(StorageConfig::default());
        // Keep the whole event history: a bounded ring would still be
        // deterministic, but a complete stream localizes divergences,
        // and the transition log is read off it.
        c.event_buffer_capacity = 1 << 22;
    });
    let mut platform = Platform::new(config);
    // A refused command lands in the export, where the comparison with
    // the trace-fed run trips over it.
    let mut refusals = String::new();
    let report = match feed {
        Feed::Trace => platform.run_trace(&trace),
        Feed::Commands => {
            for record in command_stream(&trace) {
                if let Err(refusal) = platform.apply_record(&record) {
                    refusals.push_str(&format!("record {} refused: {refusal}\n", record.seq));
                }
            }
            platform.run_until_idle();
            platform.report()
        }
    };
    let dropped = platform.events().dropped();
    assert!(
        dropped == 0,
        "the canonical run's bus dropped {dropped} records"
    );
    let mut events = platform.events().to_jsonl();
    events.push_str(&refusals);
    // Round latency is host time: only its observation count is
    // deterministic, and it lives in the metrics registry.
    let round_latency_count = platform
        .metrics()
        .histogram("tacc_sched_round_latency_seconds")
        .map_or(0, |h| h.count);
    events.push_str(&report_fingerprint(&report, round_latency_count).to_string());
    events.push('\n');
    let transitions = platform.transition_log_jsonl();
    let timelines = platform.timelines_jsonl();
    // Replay check input: refold the span book from the exported text,
    // exactly as an offline consumer would.
    let book = SpanBook::from_transitions_jsonl(&transitions, platform.span_book().config())
        .expect("the engine only exports well-formed legal transitions");
    let reconstructed_timelines = book.to_jsonl(platform.span_horizon());
    DeterminismRun {
        events,
        transitions,
        timelines,
        reconstructed_timelines,
        goodput: report.goodput_decomposition.to_json().to_string(),
    }
}

fn summary_json(s: &Summary) -> Json {
    obj(vec![
        ("count", s.count().into()),
        ("mean", s.mean().into()),
        ("min", s.min().into()),
        ("max", s.max().into()),
        ("p50", s.p50().into()),
        ("p90", s.p90().into()),
        ("p95", s.p95().into()),
        ("p99", s.p99().into()),
    ])
}

/// Serializes every field of a report, plus the observation count of
/// the wall-clock round-latency histogram (its one deterministic part).
pub fn report_fingerprint(report: &SimulationReport, round_latency_count: u64) -> Json {
    let groups = report
        .groups
        .iter()
        .map(|g| {
            obj(vec![
                ("group", g.group.index().into()),
                ("completed", g.completed.into()),
                ("mean_queue_delay_secs", g.mean_queue_delay_secs.into()),
                ("p95_queue_delay_secs", g.p95_queue_delay_secs.into()),
                ("gpu_hours", g.gpu_hours.into()),
            ])
        })
        .collect();
    obj(vec![
        ("submitted", report.submitted.into()),
        ("completed", report.completed.into()),
        ("failed", report.failed.into()),
        ("rejected", report.rejected.into()),
        ("cancelled", report.cancelled.into()),
        ("mean_staging_secs", report.mean_staging_secs.into()),
        ("stagings", report.stagings.into()),
        ("faults", report.faults.into()),
        ("failovers", report.failovers.into()),
        ("preemptions", report.preemptions.into()),
        ("backfill_starts", report.backfill_starts.into()),
        ("jct", summary_json(&report.jct)),
        ("queue_delay", summary_json(&report.queue_delay)),
        ("slowdown", summary_json(&report.slowdown)),
        ("mean_utilization", report.mean_utilization.into()),
        ("useful_gpu_hours", report.useful_gpu_hours.into()),
        ("wasted_gpu_hours", report.wasted_gpu_hours.into()),
        ("goodput", report.goodput.into()),
        ("goodput_ratio", report.goodput_decomposition.goodput.into()),
        (
            "goodput_availability",
            report.goodput_decomposition.availability.into(),
        ),
        (
            "goodput_efficiency",
            report.goodput_decomposition.throughput_efficiency.into(),
        ),
        (
            "goodput_badput_fraction",
            report.goodput_decomposition.badput_fraction.into(),
        ),
        ("groups", Json::Arr(groups)),
        ("fairness", report.fairness.into()),
        ("cache_hits", report.cache_hits.into()),
        ("cache_misses", report.cache_misses.into()),
        ("cache_byte_hit_rate", report.cache_byte_hit_rate.into()),
        (
            "mean_provisioning_secs",
            report.mean_provisioning_secs.into(),
        ),
        ("rounds", report.rounds.into()),
        ("round_latency_count", round_latency_count.into()),
        ("events_recorded", report.events_recorded.into()),
        ("events_dropped", report.events_dropped.into()),
        ("jobs", report.jobs.len().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_export_is_reproducible() {
        let a = campus_determinism_run(0.25, Feed::Trace);
        let b = campus_determinism_run(0.25, Feed::Commands);
        assert!(!a.events.is_empty());
        assert_eq!(a, b);
        // Last line is the fingerprint object.
        let last = a.events.lines().last().unwrap();
        assert!(last.starts_with("{\"submitted\":"), "{last}");
        // The transition log is populated and well-formed JSONL.
        assert!(!a.transitions.is_empty());
        assert!(a
            .transitions
            .lines()
            .all(|l| l.starts_with("{\"at_secs\":") && l.ends_with('}')));
        // The timelines refolded from the exported transition text are
        // byte-identical to the live ones.
        assert!(!a.timelines.is_empty());
        assert_eq!(a.reconstructed_timelines, a.timelines);
        // The goodput artifact is the byte-stable decomposition JSON.
        assert!(a.goodput.starts_with("{\"horizon_secs\":"), "{}", a.goodput);
        // The fingerprint line carries the decomposition's top factors.
        let last = a.events.lines().last().unwrap();
        assert!(last.contains("\"goodput_availability\":"), "{last}");
    }
}
