//! End-to-end platform tests: full job lifecycles through admission,
//! scheduling, execution, faults, and reporting. These were the
//! `platform.rs` unit tests before the core was split into lifecycle
//! modules; they exercise only the public API.

use tacc_cluster::{ClusterSpec, GpuModel, ResourceVec};
use tacc_core::{Command, CommandOutcome, Platform, PlatformConfig};
use tacc_exec::FailoverPolicy;
use tacc_sched::QuotaMode;
use tacc_sim::SimTime;
use tacc_workload::{GenParams, GroupId, JobId, JobState, QosClass, TaskSchema, TraceGenerator};

fn tiny_config() -> PlatformConfig {
    PlatformConfig {
        cluster: ClusterSpec::uniform(1, 2, GpuModel::A100, 8),
        roster: tacc_workload::GroupRoster::campus_default(16),
        ..PlatformConfig::default()
    }
}

fn one_gpu_schema(group: usize) -> TaskSchema {
    TaskSchema::builder("unit", GroupId::from_index(group))
        .resources(ResourceVec::gpus_only(1))
        .est_duration_secs(600.0)
        .build()
        .expect("valid")
}

/// Submits through the command path and returns the minted id.
fn submit(p: &mut Platform, schema: TaskSchema, service_secs: f64) -> JobId {
    let command = Command::Submit {
        schema: schema.into(),
        service_secs,
    };
    match p.apply_command(&command) {
        Ok(CommandOutcome::Submitted { job }) => job,
        other => panic!("submit answered {other:?}"),
    }
}

/// Cancels through the command path; `false` when the job was already
/// terminal.
fn cancel(p: &mut Platform, job: JobId) -> bool {
    match p.apply_command(&Command::Cancel { job }) {
        Ok(CommandOutcome::Cancelled { applied, .. }) => applied,
        other => panic!("cancel answered {other:?}"),
    }
}

#[test]
fn single_job_full_lifecycle() {
    let mut p = Platform::new(tiny_config());
    let id = submit(&mut p, one_gpu_schema(0), 600.0);
    p.run_until_idle();
    let job = p.job(id).expect("exists");
    assert_eq!(job.state(), JobState::Completed);
    // JCT = provisioning + service (no queueing, no contention, small
    // overheads); sanity: between service and service + 10 minutes.
    let jct = job.jct_secs().expect("completed");
    assert!(jct >= 600.0, "jct {jct}");
    assert!(jct < 1200.0, "jct {jct}");
    let log = p.job_log(id);
    assert!(log.iter().any(|(_, m)| m == "completed"));
    assert!(p.cluster().check_invariants());
    assert_eq!(p.cluster().free_gpus(), 16);
}

#[test]
fn report_accounts_all_jobs() {
    let mut p = Platform::new(tiny_config());
    let trace = TraceGenerator::new(
        GenParams {
            roster: tacc_workload::GroupRoster::campus_default(16),
            peak_jobs_per_hour: 6.0,
            ..GenParams::default()
        },
        3,
    )
    .generate_days(0.5);
    let report = p.run_trace(&trace);
    assert_eq!(report.submitted, trace.len());
    assert_eq!(
        report.completed + (report.failed + report.rejected + report.cancelled) as usize,
        trace.len()
    );
    assert!(report.mean_utilization > 0.0);
    assert!(report.jct.count() == report.completed);
}

#[test]
fn determinism_across_runs() {
    let trace = TraceGenerator::new(GenParams::default(), 9).generate_days(0.2);
    let r1 = Platform::new(PlatformConfig::default()).run_trace(&trace);
    let r2 = Platform::new(PlatformConfig::default()).run_trace(&trace);
    assert_eq!(r1.jct.mean(), r2.jct.mean());
    assert_eq!(r1.mean_utilization, r2.mean_utilization);
}

#[test]
fn infeasible_gang_rejected_at_admission() {
    let mut p = Platform::new(tiny_config()); // 2 nodes x 8 GPUs
    let id = submit(
        &mut p,
        TaskSchema::builder("too-big", GroupId::from_index(0))
            .workers(4)
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(600.0)
            .build()
            .expect("valid"),
        600.0,
    );
    p.run_until_idle();
    assert_eq!(p.job(id).expect("exists").state(), JobState::Failed);
    let report = p.report();
    assert_eq!(report.rejected, 1);
    assert!(p.job_log(id).iter().any(|(_, m)| m.contains("rejected")));
}

#[test]
fn cancel_queued_job() {
    let mut p = Platform::new(tiny_config());
    // Saturate the 16-GPU cluster with one long gang, then queue a job
    // behind it.
    let filler = TaskSchema::builder("filler", GroupId::from_index(0))
        .workers(2)
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(1e6)
        .build()
        .expect("valid");
    submit(&mut p, filler, 1e6);
    p.run_until(SimTime::from_secs(1000.0)); // filler is now running
    let id = submit(&mut p, one_gpu_schema(0), 600.0);
    p.run_until(SimTime::from_secs(3600.0));
    assert_eq!(p.job(id).expect("exists").state(), JobState::Queued);
    assert!(cancel(&mut p, id));
    assert_eq!(p.job(id).expect("exists").state(), JobState::Cancelled);
    assert!(!cancel(&mut p, id));
}

#[test]
fn over_quota_request_rejected_at_admission() {
    let mut cfg = tiny_config();
    cfg.scheduler.quota = QuotaMode::Static;
    cfg.scheduler.quotas = vec![0; 8]; // no group may run anything
    let mut p = Platform::new(cfg);
    let id = submit(&mut p, one_gpu_schema(0), 600.0);
    p.run_until_idle();
    assert_eq!(p.job(id).expect("exists").state(), JobState::Failed);
    assert_eq!(p.report().rejected, 1);
}

#[test]
fn cancel_running_job_frees_gpus() {
    let mut p = Platform::new(tiny_config());
    let id = submit(&mut p, one_gpu_schema(0), 1e6);
    p.run_until(SimTime::from_secs(7200.0));
    assert_eq!(p.job(id).expect("exists").state(), JobState::Running);
    assert_eq!(p.cluster().free_gpus(), 15);
    assert!(cancel(&mut p, id));
    assert_eq!(p.cluster().free_gpus(), 16);
    assert!(p.cluster().check_invariants());
}

#[test]
fn preemption_round_trips_through_requeue() {
    let mut cfg = tiny_config();
    cfg.scheduler.quota = QuotaMode::Borrowing;
    cfg.scheduler.quotas = vec![8, 8];
    cfg.scheduler.group_count = 8;
    let mut p = Platform::new(cfg);
    // Borrower occupies everything.
    let borrower = submit(
        &mut p,
        TaskSchema::builder("borrower", GroupId::from_index(0))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .qos(QosClass::BestEffort)
            .est_duration_secs(50_000.0)
            .build()
            .expect("valid"),
        50_000.0,
    );
    p.run_until(SimTime::from_secs(3600.0));
    assert_eq!(p.job(borrower).expect("exists").state(), JobState::Running);
    // Owner reclaims.
    let owner = submit(
        &mut p,
        TaskSchema::builder("owner", GroupId::from_index(1))
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(600.0)
            .build()
            .expect("valid"),
        600.0,
    );
    p.run_until_idle();
    let owner_job = p.job(owner).expect("exists");
    assert_eq!(owner_job.state(), JobState::Completed);
    let borrower_job = p.job(borrower).expect("exists");
    assert!(borrower_job.preemptions() >= 1);
    assert_eq!(borrower_job.state(), JobState::Completed);
    assert!(p.cluster().check_invariants());
    assert_eq!(p.cluster().free_gpus(), 16);
}

#[test]
fn drained_node_empties_then_rejoins() {
    let mut p = Platform::new(tiny_config()); // 2 nodes x 8
    let drained = tacc_cluster::NodeId::from_index(0);
    p.apply_command(&Command::Drain { node: 0 })
        .expect("node exists");
    // A full-cluster-sized stream of 1-GPU jobs lands only on node 1.
    for i in 0..8 {
        submit(&mut p, one_gpu_schema(i % 8), 600.0);
    }
    p.run_until(SimTime::from_secs(300.0));
    let n0 = p.cluster().node(drained).expect("exists");
    assert_eq!(n0.used().gpus, 0, "drained node must stay empty");
    assert!(!n0.is_schedulable());
    // Undraining lets queued/new work use it again.
    p.apply_command(&Command::Undrain { node: 0 })
        .expect("node exists");
    let id = submit(&mut p, one_gpu_schema(0), 600.0);
    p.run_until_idle();
    assert_eq!(p.job(id).expect("exists").state(), JobState::Completed);
    assert!(p.cluster().check_invariants());
}

#[test]
fn time_slicing_rotates_best_effort_monopolist() {
    let mut cfg = tiny_config();
    cfg.scheduler.time_slice_secs = Some(1800.0);
    let mut p = Platform::new(cfg);
    // A best-effort gang takes the whole 16-GPU cluster for a long run.
    let hog = submit(
        &mut p,
        TaskSchema::builder("hog", GroupId::from_index(0))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .qos(QosClass::BestEffort)
            .est_duration_secs(40_000.0)
            .build()
            .expect("valid"),
        40_000.0,
    );
    p.run_until(SimTime::from_secs(600.0));
    // A short guaranteed job arrives and must not wait 11 hours.
    let quick = submit(
        &mut p,
        TaskSchema::builder("quick", GroupId::from_index(1))
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(900.0)
            .build()
            .expect("valid"),
        900.0,
    );
    p.run_until_idle();
    let quick_job = p.job(quick).expect("exists");
    assert_eq!(quick_job.state(), JobState::Completed);
    // It started within ~one quantum of the hog's start, not after it.
    assert!(
        quick_job.queueing_delay_secs().expect("ran") < 3600.0,
        "waited {:?}s",
        quick_job.queueing_delay_secs()
    );
    let hog_job = p.job(hog).expect("exists");
    assert_eq!(hog_job.state(), JobState::Completed);
    assert!(hog_job.preemptions() >= 1, "hog must have been rotated");
}

#[test]
fn elastic_job_starts_shrunk_and_runs_longer() {
    let mut p = Platform::new(tiny_config()); // 2 nodes x 8
                                              // Occupy one node for a long time.
    submit(
        &mut p,
        TaskSchema::builder("filler", GroupId::from_index(0))
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(1e6)
            .build()
            .expect("valid"),
        1e6,
    );
    p.run_until(SimTime::from_secs(500.0));
    // An elastic 2x8 gang only finds one node: granted 1 worker and
    // stretched ~2x.
    let id = submit(
        &mut p,
        TaskSchema::builder("elastic", GroupId::from_index(1))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .qos(QosClass::BestEffort)
            .elastic(true)
            .est_duration_secs(3600.0)
            .build()
            .expect("valid"),
        3600.0,
    );
    p.run_until(SimTime::from_secs(600.0));
    let status = p.job_status(id).expect("exists");
    assert_eq!(status.state, JobState::Running);
    assert_eq!(status.nodes.len(), 1, "granted a single node");
    assert!(p
        .job_log(id)
        .iter()
        .any(|(_, m)| m.contains("elastic: 1/2")));
    // Runtime is ~2x the 3600 s service (plus small overheads).
    p.run_until_idle();
    let job = p.job(id).expect("exists");
    let run_time = job.jct_secs().expect("completed") - job.queueing_delay_secs().expect("started");
    assert!(run_time > 7000.0, "shrunk gang must run ~2x: {run_time}");
    assert!(run_time < 9000.0, "but not much more: {run_time}");
}

#[test]
fn failure_injection_with_failover_still_completes() {
    let mut cfg = tiny_config();
    cfg.node_mtbf_secs = Some(4000.0); // aggressive faults
    cfg.failover = FailoverPolicy::SwitchRuntime;
    let mut p = Platform::new(cfg);
    let id = submit(
        &mut p,
        TaskSchema::builder("long", GroupId::from_index(0))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(20_000.0)
            .build()
            .expect("valid"),
        20_000.0,
    );
    p.run_until_idle();
    let job = p.job(id).expect("exists");
    assert_eq!(job.state(), JobState::Completed);
    let report = p.report();
    assert!(report.faults >= 1, "expected at least one injected fault");
    assert_eq!(report.failovers, report.faults);
    assert!(job.restarts() >= 1);
}

#[test]
fn event_bus_satisfies_conservation() {
    let mut p = Platform::new(tiny_config());
    let trace = TraceGenerator::new(
        GenParams {
            roster: tacc_workload::GroupRoster::campus_default(16),
            peak_jobs_per_hour: 6.0,
            ..GenParams::default()
        },
        7,
    )
    .generate_days(0.5);
    let report = p.run_trace(&trace);
    let records: Vec<_> = p.events().records().cloned().collect();
    let check = tacc_obs::conservation(&records);
    assert!(check.balanced(), "unbalanced: {check:?}");
    assert_eq!(check.submitted, trace.len() as u64);
    assert_eq!(check.completed as usize, report.completed);
    assert_eq!(report.events_recorded as usize, records.len());
    assert_eq!(report.events_dropped, 0);
    // The JSONL export round-trips losslessly.
    let parsed = tacc_obs::EventBus::parse_jsonl(&p.events().to_jsonl()).expect("valid JSONL");
    assert_eq!(parsed, records);
}

/// Two best-effort gangs that each want the whole cluster rotate each
/// other out every quantum, hundreds of times. Each rotation check is
/// scheduled at `start + quantum`; past t = 2²⁰ s that sum rounds, and
/// an expiry test written as `now − start ≥ quantum` found nothing
/// expired there — the running hog then held the cluster to completion.
#[test]
fn gang_time_slicing_keeps_rotating_past_a_power_of_two() {
    let mut cfg = tiny_config();
    cfg.scheduler.time_slice_secs = Some(900.0);
    let mut p = Platform::new(cfg);
    let hogs = ["hog-a", "hog-b"].map(|name| {
        let schema = TaskSchema::builder(name, GroupId::from_index(0))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .qos(QosClass::BestEffort)
            .est_duration_secs(6e5)
            .build()
            .expect("valid");
        submit(&mut p, schema, 6e5)
    });
    p.run_until_idle();
    assert_eq!(p.events().dropped(), 0);
    let power_of_two = f64::from(1u32 << 20);
    for id in hogs {
        let job = p.job(id).expect("exists");
        assert_eq!(job.state(), JobState::Completed);
        let late_rotations = p
            .job_events(id)
            .iter()
            .filter(|r| r.at_secs > power_of_two && r.event.kind() == "preempted")
            .count();
        assert!(
            late_rotations > 0,
            "{id}: {} rotations, none after t = 2^20 s",
            job.preemptions()
        );
    }
}

#[test]
fn why_explains_a_stuck_job() {
    let mut p = Platform::new(tiny_config());
    let filler = TaskSchema::builder("filler", GroupId::from_index(0))
        .workers(2)
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(1e6)
        .build()
        .expect("valid");
    submit(&mut p, filler, 1e6);
    p.run_until(SimTime::from_secs(1000.0));
    let id = submit(&mut p, one_gpu_schema(1), 600.0);
    p.run_until(SimTime::from_secs(2000.0));
    assert_eq!(p.job(id).expect("exists").state(), JobState::Queued);
    let why = p.why(id).expect("known job");
    assert!(why.contains("no feasible placement"), "why: {why}");
    p.run_until_idle();
    let why = p.why(id).expect("known job");
    assert!(why.contains("completed"), "why: {why}");
    assert_eq!(p.why(JobId::from_value(999)), None);
}

/// The cluster series read the cluster when scraped: a fresh platform
/// shows every GPU free before any round has run, and a drain, which runs
/// no round, is read back at once.
#[test]
fn cluster_gauges_read_the_cluster_when_scraped() {
    let mut p = Platform::new(PlatformConfig::default());
    let snap = p.metrics();
    assert_eq!(snap.gauge("tacc_cluster_free_gpus"), Some(256.0));
    assert_eq!(snap.gauge("tacc_cluster_largest_free_block"), Some(8.0));
    assert_eq!(snap.counter("tacc_sched_rounds_total"), Some(0));

    p.apply_command(&Command::Drain { node: 3 })
        .expect("node 3 exists");
    assert_eq!(p.cluster().drained_count(), 1);
    let snap = p.metrics();
    let cluster = p.cluster();
    // A drained node's idle GPUs are still free: it takes no new work.
    assert_eq!(
        snap.gauge("tacc_cluster_free_gpus"),
        Some(f64::from(cluster.free_gpus()))
    );
    assert_eq!(
        snap.gauge("tacc_cluster_largest_free_block"),
        Some(f64::from(cluster.largest_free_block()))
    );
    assert_eq!(snap.counter("tacc_sched_rounds_total"), Some(0));
}

#[test]
fn metrics_span_all_layers() {
    let mut p = Platform::new(tiny_config());
    submit(&mut p, one_gpu_schema(0), 600.0);
    p.run_until_idle();
    let snap = p.metrics();
    assert_eq!(snap.counter("tacc_core_jobs_submitted_total"), Some(1));
    assert_eq!(snap.counter("tacc_core_jobs_completed_total"), Some(1));
    assert!(snap.counter("tacc_sched_rounds_total").unwrap_or(0) > 0);
    assert_eq!(snap.counter("tacc_compiler_compilations_total"), Some(1));
    assert_eq!(snap.counter("tacc_exec_plans_total"), Some(1));
    assert_eq!(snap.gauge("tacc_cluster_free_gpus"), Some(16.0));
    let hist = snap
        .histogram("tacc_sched_round_latency_seconds")
        .expect("round latency histogram");
    assert!(hist.count > 0);
    let text = p.metrics_text();
    assert!(text.contains("# TYPE"));
    assert!(text.contains("tacc_core_jobs_submitted_total"));
    assert!(text.contains("tacc_cluster_free_gpus"));
    let report = p.report();
    assert_eq!(Some(report.rounds), snap.counter("tacc_sched_rounds_total"));
    assert!(report.round_latency.count > 0);
    assert!(report.events_recorded >= 5);
}

#[test]
fn failure_injection_without_failover_fails_jobs() {
    let mut cfg = tiny_config();
    cfg.node_mtbf_secs = Some(2000.0);
    cfg.failover = FailoverPolicy::FailJob;
    let mut p = Platform::new(cfg);
    let id = submit(
        &mut p,
        TaskSchema::builder("doomed", GroupId::from_index(0))
            .workers(2)
            .resources(ResourceVec::gpus_only(8))
            .est_duration_secs(50_000.0)
            .build()
            .expect("valid"),
        50_000.0,
    );
    p.run_until_idle();
    assert_eq!(p.job(id).expect("exists").state(), JobState::Failed);
    assert!(p.report().failed >= 1);
    assert_eq!(p.cluster().free_gpus(), 16);
}
