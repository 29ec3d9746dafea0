//! End-to-end integration tests: trace → compile → schedule → execute →
//! report, across all four layers.

use tacc_core::{Command, CommandOutcome, CommandRecord, Platform};
use tacc_sched::QuotaMode;
use tacc_sim::DetRng;
use tacc_tcloud::TcloudClient;
use tacc_tests::{config_with, session_argv, session_step, small_trace, SessionStep};
use tacc_workload::{GroupId, JobState, TaskSchema};

/// Every submission must end in exactly one terminal state, the cluster
/// must drain completely, and per-node accounting must balance.
#[test]
fn conservation_across_the_stack() {
    let trace = small_trace(77, 2.0, 3.0);
    for quota in [QuotaMode::Disabled, QuotaMode::Static, QuotaMode::Borrowing] {
        let mut platform = Platform::new(config_with(|c| {
            c.scheduler.quota = quota;
        }));
        let report = platform.run_trace(&trace);
        assert_eq!(report.submitted, trace.len(), "{quota}: submissions lost");
        assert_eq!(
            report.completed + (report.failed + report.rejected + report.cancelled) as usize,
            trace.len(),
            "{quota}: jobs leaked in non-terminal states"
        );
        for id in platform.job_ids() {
            let state = platform.job(id).expect("listed job exists").state();
            assert!(state.is_terminal(), "{quota}: {id} stuck in {state}");
        }
        assert_eq!(platform.cluster().free_gpus(), 256, "{quota}: GPUs leaked");
        assert!(platform.cluster().check_invariants());
        assert_eq!(platform.scheduler().queue_len(), 0);
        assert_eq!(platform.scheduler().running_len(), 0);
    }
}

/// The same configuration and trace must reproduce bit-identical reports.
#[test]
fn end_to_end_determinism() {
    let trace = small_trace(78, 1.0, 3.0);
    let run = || {
        Platform::new(config_with(|c| {
            c.scheduler.quota = QuotaMode::Borrowing;
            c.node_mtbf_secs = Some(20.0 * 86_400.0);
        }))
        .run_trace(&trace)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Static partitioning strands capacity a single shared pool would use:
/// utilization under static quotas never exceeds the shared pool's.
#[test]
fn static_partitioning_strands_capacity() {
    let trace = small_trace(79, 3.0, 4.0);
    let shared = Platform::new(config_with(|_| {})).run_trace(&trace);
    let partitioned = Platform::new(config_with(|c| {
        c.scheduler.quota = QuotaMode::Static;
    }))
    .run_trace(&trace);
    assert!(
        partitioned.mean_utilization <= shared.mean_utilization + 0.02,
        "static {:.3} vs shared {:.3}",
        partitioned.mean_utilization,
        shared.mean_utilization
    );
    assert_eq!(shared.preemptions, 0);
    assert_eq!(partitioned.preemptions, 0);
}

/// Borrowing produces reclaim preemptions under contention, and the waste
/// they cause stays small when jobs checkpoint.
#[test]
fn borrowing_reclaims_with_bounded_waste() {
    let trace = small_trace(80, 3.0, 4.0);
    let report = Platform::new(config_with(|c| {
        c.scheduler.quota = QuotaMode::Borrowing;
    }))
    .run_trace(&trace);
    assert!(report.preemptions > 0, "contended borrowing must reclaim");
    assert!(
        report.goodput > 0.95,
        "checkpointed preemption should waste little: {}",
        report.goodput
    );
}

/// Jobs preempted mid-run still finish, and their completion records carry
/// the preemption counts.
#[test]
fn preempted_jobs_complete_eventually() {
    let trace = small_trace(81, 3.0, 4.0);
    let report = Platform::new(config_with(|c| {
        c.scheduler.quota = QuotaMode::Borrowing;
    }))
    .run_trace(&trace);
    let preempted: Vec<_> = report.jobs.iter().filter(|j| j.preemptions > 0).collect();
    assert!(!preempted.is_empty());
    for j in &preempted {
        assert!(j.jct_secs > 0.0);
        assert!(j.wasted_secs >= 0.0);
    }
}

/// With failure injection and fail-safe switching on, no job dies and every
/// fault is absorbed.
#[test]
fn failover_absorbs_every_fault() {
    let trace = small_trace(82, 2.0, 2.0);
    let report = Platform::new(config_with(|c| {
        c.node_mtbf_secs = Some(5.0 * 86_400.0);
    }))
    .run_trace(&trace);
    assert!(report.faults > 0, "MTBF of 5 days must fault something");
    assert_eq!(report.failed, 0);
    assert_eq!(report.failovers, report.faults);
}

/// Elastic traces behave like rigid ones on the conservation invariant
/// and never waste goodput on shrink alone.
#[test]
fn elastic_trace_conserves_jobs() {
    use tacc_workload::{GenParams, TraceGenerator};
    let params = GenParams {
        elastic_fraction: 1.0,
        best_effort_fraction: 0.6,
        ..GenParams::default()
            .with_load_factor(2.0)
            .with_multi_node_fraction(0.3)
    };
    let trace = TraceGenerator::new(params, 301).generate_days(2.0);
    let mut platform = Platform::new(config_with(|_| {}));
    let report = platform.run_trace(&trace);
    assert_eq!(
        report.completed + (report.failed + report.rejected + report.cancelled) as usize,
        trace.len()
    );
    assert_eq!(platform.cluster().free_gpus(), 256);
    assert!(platform.cluster().check_invariants());
}

/// Draining nodes mid-run never corrupts accounting; undraining restores
/// full capacity to the scheduler.
#[test]
fn maintenance_drain_mid_trace() {
    let trace = small_trace(302, 1.0, 2.0);
    let mut platform = Platform::new(config_with(|_| {}));
    platform.load_trace(&trace);
    platform.run_until(tacc_sim::SimTime::from_hours(4.0));
    // Drain a whole rack (nodes 0..8).
    for node in 0..8 {
        platform
            .apply_command(&Command::Drain { node })
            .expect("node exists");
    }
    platform.run_until(tacc_sim::SimTime::from_hours(12.0));
    for i in 0..8 {
        let node = platform
            .cluster()
            .node(tacc_cluster::NodeId::from_index(i))
            .expect("exists");
        assert!(!node.is_schedulable());
    }
    for node in 0..8 {
        platform
            .apply_command(&Command::Undrain { node })
            .expect("node exists");
    }
    platform.run_until_idle();
    let report = platform.report();
    assert_eq!(
        report.completed + (report.failed + report.rejected + report.cancelled) as usize,
        trace.len()
    );
    assert!(platform.cluster().check_invariants());
    assert_eq!(platform.cluster().free_gpus(), 256);
}

/// Interactive submission interleaves with a background trace.
#[test]
fn interactive_submission_over_live_cluster() {
    let trace = small_trace(83, 0.5, 2.0);
    let mut platform = Platform::new(config_with(|_| {}));
    platform.load_trace(&trace);
    platform.run_until(tacc_sim::SimTime::from_hours(6.0));
    let schema = TaskSchema::builder("interactive-probe", GroupId::from_index(3))
        .est_duration_secs(1200.0)
        .build()
        .expect("valid");
    let submitted = platform.apply_command(&Command::Submit {
        schema: schema.into(),
        service_secs: 1200.0,
    });
    let Ok(CommandOutcome::Submitted { job: id }) = submitted else {
        panic!("submit answered {submitted:?}");
    };
    platform.run_until_idle();
    assert_eq!(
        platform.job(id).expect("submitted").state(),
        JobState::Completed
    );
    // The interleaved job is included in the final report.
    let report = platform.report();
    assert_eq!(report.submitted, trace.len() + 1);
}

fn replay(platform: &mut Platform, seq: u64, at_secs: f64, command: Command) {
    let record = CommandRecord {
        seq,
        at_secs,
        command,
    };
    let _ = platform.apply_record(&record);
}

/// One way in: whatever a library-client session does to its platform, the
/// commands its verbs stand for — each stamped with the time it was issued
/// — do to a fresh platform through `apply_record`, byte for byte. Zero
/// provisioning latency is the sharp case: a compile completion is then
/// pending at `now` when the next verb arrives, and a journal replay
/// settles it before applying the command. `wait` stands for a run of
/// records: a zero-second advance at each pending event's time, until
/// the job is terminal or nothing is pending.
#[test]
fn client_session_is_its_command_stream() {
    const VERBS: u64 = 64;
    let default_latency = config_with(|_| {}).compiler.base_latency_secs;
    for base_latency_secs in [default_latency, 0.0] {
        let config = || config_with(|c| c.compiler.base_latency_secs = base_latency_secs);
        let mut client = TcloudClient::with_profile("campus", config());
        let mut replayed = Platform::new(config());
        let rng = &mut DetRng::seed_from_u64(22);
        let mut waited = 0;
        for seq in 0..VERBS {
            let jobs = client.platform().job_count() as u64;
            let now_secs = client.platform().now().as_secs();
            let step = session_step(rng, seq, jobs, now_secs);
            // A refused verb (terminal or unknown job, node 32 or 33 of
            // 32) is refused on replay too; the logs are the check.
            let argv = session_argv(&step);
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            let _ = client.run_command(&argv);
            match step {
                SessionStep::Apply(command) => replay(&mut replayed, seq, now_secs, command),
                SessionStep::Wait(job) => {
                    while let Some(at) = replayed.next_event_at() {
                        if replayed.job(job).is_none_or(|j| j.state().is_terminal()) {
                            break;
                        }
                        replay(
                            &mut replayed,
                            seq,
                            at.as_secs(),
                            Command::Advance { secs: 0.0 },
                        );
                        waited += 1;
                    }
                }
            }
            // The log cannot tell when the clock moved, only what was
            // stamped when: hold the clocks and what is pending together.
            let at = (replayed.now(), replayed.next_event_at());
            let client_at = (client.platform().now(), client.platform().next_event_at());
            assert_eq!(
                at, client_at,
                "verb {seq} ({}) left the clocks apart",
                argv[0]
            );
        }
        let log = client.platform().transition_log_jsonl();
        let jobs = client.platform().job_count();
        assert!(jobs >= 10, "session too thin: {jobs} jobs");
        assert!(
            waited >= 10,
            "session too thin: {waited} records from `wait`"
        );
        assert!(log.contains("\"to\":\"cancelled\""), "no cancel landed");
        assert!(log.contains("\"event\":\"interrupt\""), "no fault landed");
        assert_eq!(
            replayed.transition_log_jsonl(),
            log,
            "replay diverged at base latency {base_latency_secs}s"
        );
    }
}
