//! Integration tests for the structured telemetry layer: the event bus,
//! the operational metrics registry, and scheduler decision tracing, all
//! observed through the full platform stack.

use tacc_core::Platform;
use tacc_obs::{conservation, EventBus, PlatformEvent};
use tacc_sched::{QuotaMode, WorkCounters};
use tacc_sim::SimTime;
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

/// Series names, each with the value a scrape must read.
type Series<T> = Vec<(&'static str, T)>;

/// What one scrape must read: every counter and gauge the platform
/// publishes, beside the number it stands for — the report, the layer's
/// own count, or the bus read another way.
fn published(p: &Platform) -> (Series<u64>, Series<f64>) {
    let report = p.report();
    let (sched, cluster) = (p.scheduler(), p.cluster());
    let cache = p.compiler().cache().stats();
    let transferred_mb = p.events().records().filter_map(|r| match r.event {
        PlatformEvent::Compiled { transferred_mb, .. } => Some(transferred_mb.round() as u64),
        _ => None,
    });
    let mut counters = vec![
        ("tacc_core_jobs_submitted_total", report.submitted as u64),
        ("tacc_core_jobs_completed_total", report.completed as u64),
        ("tacc_core_jobs_failed_total", report.failed),
        ("tacc_core_jobs_rejected_total", report.rejected),
        ("tacc_core_jobs_cancelled_total", report.cancelled),
        (
            "tacc_core_illegal_transitions_total",
            p.illegal_transitions(),
        ),
        (
            "tacc_cluster_alloc_failures_total",
            cluster.alloc_failures(),
        ),
        ("tacc_obs_dropped_events_total", report.events_dropped),
        ("tacc_exec_plans_total", p.events().kind_count("placed")),
        ("tacc_exec_faults_total", report.faults),
        ("tacc_exec_failovers_total", report.failovers),
        ("tacc_sched_rounds_total", report.rounds),
        ("tacc_sched_preemptions_total", report.preemptions),
        ("tacc_sched_backfill_starts_total", report.backfill_starts),
        (
            "tacc_compiler_compilations_total",
            p.compiler().compilations(),
        ),
        ("tacc_compiler_cache_hits_total", report.cache_hits),
        ("tacc_compiler_cache_misses_total", report.cache_misses),
        ("tacc_compiler_transferred_mb_total", transferred_mb.sum()),
    ];
    let work = sched.work_counters();
    let rows = WorkCounters::TABLE.iter();
    counters.extend(rows.filter_map(|row| Some((row.series?, (row.get)(&work)))));
    let free = f64::from(cluster.free_gpus());
    let largest = f64::from(cluster.largest_free_block());
    let fragmentation = if free > 0.0 {
        1.0 - largest / free
    } else {
        0.0
    };
    let gauges = vec![
        ("tacc_cluster_free_gpus", free),
        ("tacc_cluster_largest_free_block", largest),
        ("tacc_cluster_fragmentation", fragmentation),
        ("tacc_sched_queue_depth", sched.queue_len() as f64),
        ("tacc_sched_running_tasks", sched.running_len() as f64),
        ("tacc_compiler_cache_byte_hit_rate", cache.byte_hit_rate()),
    ];
    (counters, gauges)
}

/// Every published series reads what it stands for, on the default
/// configuration and on Borrowing + faults (+ storage, on by default),
/// scraped mid-replay and at the end; the series recorded as their
/// events happen keep their own checks, and no series goes unchecked.
#[test]
fn metrics_agree_with_report() {
    let borrowing = config_with(|c| {
        c.scheduler.quota = QuotaMode::Borrowing;
        c.node_mtbf_secs = Some(30_000.0);
    });
    let event_time = ["tacc_core_submissions_refused_total", "tacc_obs_goodput_"];
    for (name, config) in [("default", config_with(|_| {})), ("borrowing", borrowing)] {
        let mut platform = Platform::new(config);
        platform.load_trace(&small_trace(42, 1.0, 3.0));
        for scrape in ["mid-replay", "end"] {
            if scrape == "mid-replay" {
                platform.run_until(SimTime::from_secs(43_210.0));
            } else {
                platform.run_until_idle();
            }
            let case = format!("{name}, {scrape}");
            let (counters, gauges) = published(&platform);
            let snap = platform.metrics();
            for &(series, value) in &counters {
                assert_eq!(snap.counter(series), Some(value), "{case}: {series}");
            }
            for &(series, value) in &gauges {
                assert_eq!(snap.gauge(series), Some(value), "{case}: {series}");
            }
            let scraped = snap.counters.iter().map(|c| &c.name);
            for series in scraped.chain(snap.gauges.iter().map(|g| &g.name)) {
                assert!(
                    counters.iter().any(|(s, _)| s == series)
                        || gauges.iter().any(|(s, _)| s == series)
                        || event_time.iter().any(|prefix| series.starts_with(prefix)),
                    "{case}: {series} is not checked"
                );
            }

            let report = platform.report();
            assert!(report.completed > 0 && report.events_dropped == 0, "{case}");
            // Every placement's execution plan was observed.
            assert_eq!(
                snap.histogram("tacc_exec_plan_slowdown").map(|h| h.count),
                Some(platform.events().kind_count("placed")),
                "{case}"
            );
            // The queue-delay histogram saw every completion.
            let delay = snap.histogram("tacc_core_queue_delay_seconds");
            assert_eq!(
                delay.map(|h| h.count),
                Some(report.completed as u64),
                "{case}"
            );
            // Round latency is real measured wall time.
            assert_eq!(report.round_latency.count, report.rounds, "{case}");
        }
        // All GPUs free after the run drains.
        let snap = platform.metrics();
        assert_eq!(snap.gauge("tacc_cluster_free_gpus"), Some(256.0), "{name}");
    }
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
