//! Integration tests for the structured telemetry layer: the event bus,
//! the operational metrics registry, and scheduler decision tracing, all
//! observed through the full platform stack.

use tacc_core::Platform;
use tacc_obs::{conservation, EventBus};
use tacc_sched::QuotaMode;
use tacc_tcloud::TcloudClient;
use tacc_tests::{config_with, small_trace};

/// The conservation invariant, recounted from the event stream alone:
/// every submitted job ends in exactly one of completed / failed /
/// rejected / cancelled — and the counts agree with the report, under
/// every quota mode and with failure injection on.
#[test]
fn event_stream_recounts_the_report() {
    let trace = small_trace(41, 1.0, 3.0);
    for quota in [QuotaMode::Disabled, QuotaMode::Static, QuotaMode::Borrowing] {
        let mut platform = Platform::new(config_with(|c| {
            c.scheduler.quota = quota;
            c.node_mtbf_secs = Some(30.0 * 86_400.0);
        }));
        let report = platform.run_trace(&trace);
        let records: Vec<_> = platform.events().records().cloned().collect();
        let check = conservation(&records);
        assert!(
            check.balanced(),
            "{quota}: unbalanced event stream {check:?}"
        );
        assert_eq!(check.submitted as usize, report.submitted, "{quota}");
        assert_eq!(check.completed as usize, report.completed, "{quota}");
        assert_eq!(check.failed, report.failed, "{quota}");
        assert_eq!(check.rejected, report.rejected, "{quota}");
        assert_eq!(check.cancelled, report.cancelled, "{quota}");

        // The JSONL export carries the same stream losslessly.
        let parsed = EventBus::parse_jsonl(&platform.events().to_jsonl()).expect("valid JSONL");
        assert_eq!(
            parsed, records,
            "{quota}: JSONL round-trip changed the stream"
        );

        // Timestamps on the bus never go backwards.
        for pair in records.windows(2) {
            assert!(
                pair[0].at_secs <= pair[1].at_secs,
                "{quota}: time went backwards"
            );
            assert!(pair[0].seq < pair[1].seq, "{quota}: seq not monotone");
        }
    }
}

/// Metrics registered by all layers agree with the report's own counts.
#[test]
fn metrics_agree_with_report() {
    let trace = small_trace(42, 1.0, 3.0);
    let mut platform = Platform::new(config_with(|c| {
        c.scheduler.quota = QuotaMode::Borrowing;
    }));
    let report = platform.run_trace(&trace);
    let snap = platform.metrics();
    assert_eq!(
        snap.counter("tacc_core_jobs_submitted_total"),
        Some(report.submitted as u64)
    );
    assert_eq!(
        snap.counter("tacc_core_jobs_completed_total"),
        Some(report.completed as u64)
    );
    assert_eq!(
        snap.counter("tacc_sched_preemptions_total"),
        Some(report.preemptions)
    );
    assert_eq!(
        snap.counter("tacc_sched_backfill_starts_total"),
        Some(report.backfill_starts)
    );
    assert_eq!(snap.counter("tacc_sched_rounds_total"), Some(report.rounds));
    assert_eq!(
        snap.counter("tacc_compiler_cache_hits_total"),
        Some(report.cache_hits)
    );
    // Every placement produced exactly one execution plan.
    assert_eq!(
        snap.counter("tacc_exec_plans_total"),
        Some(platform.events().kind_count("placed"))
    );
    // All GPUs free after the run drains.
    assert_eq!(snap.gauge("tacc_cluster_free_gpus"), Some(256.0));
    // The queue-delay histogram saw every completion.
    let delay = snap
        .histogram("tacc_core_queue_delay_seconds")
        .expect("queue delay histogram");
    assert_eq!(delay.count, report.completed as u64);
    // Round latency is real measured wall time.
    assert!(report.round_latency.count > 0);
    assert!(report.round_latency.sum >= 0.0);
}

/// `tcloud why` surfaces the scheduler's concrete skip reason for a job
/// stuck behind a quota, straight from the decision trace.
#[test]
fn tcloud_why_names_the_quota() {
    let mut client = TcloudClient::with_profile(
        "campus",
        config_with(|c| {
            c.scheduler.quota = QuotaMode::Static;
            c.scheduler.quotas = vec![32; 8];
            c.scheduler.group_count = 8;
        }),
    );
    // Saturate group 0's 32-GPU static quota, then ask for 8 more.
    let hog = tacc_workload::TaskSchema::builder("hog", tacc_workload::GroupId::from_index(0))
        .workers(4)
        .resources(tacc_cluster::ResourceVec::gpus_only(8))
        .est_duration_secs(1e6)
        .build()
        .expect("valid");
    client.submit(hog, 1e6).expect("submits");
    client.advance(2000.0).expect("advances");
    let over = tacc_workload::TaskSchema::builder("over", tacc_workload::GroupId::from_index(0))
        .resources(tacc_cluster::ResourceVec::gpus_only(8))
        .est_duration_secs(600.0)
        .build()
        .expect("valid");
    let id = client.submit(over, 600.0).expect("submits");
    client.advance(2000.0).expect("advances");
    let why = client
        .run_command(&["why", &id.value().to_string()])
        .expect("known job")
        .text();
    assert!(why.contains("quota exhausted"), "why: {why}");
    assert!(why.contains("32/32"), "why: {why}");
}
