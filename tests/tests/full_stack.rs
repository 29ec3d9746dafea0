//! End-to-end integration tests: trace → compile → schedule → execute →
//! report, across all four layers.

use tacc_cluster::ResourceVec;
use tacc_core::{Command, CommandOutcome, CommandRecord, Platform};
use tacc_sched::QuotaMode;
use tacc_sim::DetRng;
use tacc_tcloud::TcloudClient;
use tacc_tests::{below, config_with, small_trace};
use tacc_workload::{GroupId, JobId, JobState, TaskSchema};

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
        schema,
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

/// One way in: whatever a library-client session does to its platform, the
/// commands its verbs stand for — each stamped with the time it was issued
/// — do to a fresh platform through `apply_record`, byte for byte. Zero
/// provisioning latency is the sharp case: a compile completion is then
/// pending at `now` when the next verb arrives, and a journal replay
/// settles it before applying the command.
#[test]
fn client_session_is_its_command_stream() {
    const VERBS: u64 = 64;
    let default_latency = config_with(|_| {}).compiler.base_latency_secs;
    for base_latency_secs in [default_latency, 0.0] {
        let config = || config_with(|c| c.compiler.base_latency_secs = base_latency_secs);
        let mut client = TcloudClient::with_profile("campus", config());
        let rng = &mut DetRng::seed_from_u64(18);
        let mut records = Vec::new();
        let mut jobs: Vec<JobId> = Vec::new();
        for seq in 0..VERBS {
            let command = match below(rng, 12) {
                0..=3 => {
                    let mut schema = TaskSchema::builder(
                        &format!("session-{seq}"),
                        GroupId::from_index(below(rng, 8) as usize),
                    )
                    .workers(1 + below(rng, 4) as u32)
                    .resources(ResourceVec::gpus_only(8))
                    .est_duration_secs(3600.0)
                    .build()
                    .expect("valid");
                    // Nothing to transfer once the image is cached, so the
                    // zero-latency pass really provisions in zero time.
                    schema.env.code_mb = 0;
                    Command::Submit {
                        schema,
                        service_secs: 600.0 + below(rng, 7200) as f64,
                    }
                }
                4..=6 => Command::Advance {
                    secs: below(rng, 1800) as f64,
                },
                // One past the newest id: an unknown job now and then.
                7..=8 => Command::Cancel {
                    job: JobId::from_value(below(rng, jobs.len() as u64 + 1)),
                },
                9 => {
                    let from_secs = client.platform().now().as_secs() + below(rng, 3600) as f64;
                    Command::Reserve {
                        gpus: 8 * (1 + below(rng, 8) as u32),
                        from_secs,
                        until_secs: from_secs + 600.0 + below(rng, 3600) as f64,
                    }
                }
                10 => Command::Drain {
                    node: below(rng, 34) as u32,
                },
                _ => Command::Undrain {
                    node: below(rng, 34) as u32,
                },
            };
            records.push(CommandRecord {
                seq,
                at_secs: client.platform().now().as_secs(),
                command: command.clone(),
            });
            // A refused verb (terminal or unknown job, node 32 or 33 of
            // 32) is refused on replay too; the logs are the check.
            let _ = match command {
                Command::Submit {
                    schema,
                    service_secs,
                } => client
                    .submit(schema, service_secs)
                    .map(|job| jobs.push(job)),
                Command::Advance { secs } => client.advance(secs),
                Command::Cancel { job } => client.kill(job),
                Command::Reserve {
                    gpus,
                    from_secs,
                    until_secs,
                } => client
                    .run_command(&[
                        "reserve",
                        &gpus.to_string(),
                        &from_secs.to_string(),
                        &(until_secs - from_secs).to_string(),
                    ])
                    .map(|_| ()),
                Command::Drain { node } => client
                    .run_command(&["drain", &node.to_string()])
                    .map(|_| ()),
                Command::Undrain { node } => client
                    .run_command(&["undrain", &node.to_string()])
                    .map(|_| ()),
                Command::FaultNode { .. } => unreachable!("the client has no fault verb"),
            };
        }
        let mut replayed = Platform::new(config());
        for record in &records {
            let _ = replayed.apply_record(record);
        }
        let log = client.platform().transition_log_jsonl();
        assert!(jobs.len() >= 10, "session too thin: {} jobs", jobs.len());
        assert!(log.contains("\"to\":\"cancelled\""), "no kill landed");
        assert_eq!(
            replayed.transition_log_jsonl(),
            log,
            "replay diverged at base latency {base_latency_secs}s"
        );
    }
}
