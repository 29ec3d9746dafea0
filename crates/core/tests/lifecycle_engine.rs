//! Red-flip harness for the lifecycle engine: prove that an illegal
//! event — the classic stale-token fault arriving *after* a job already
//! completed — is rejected with a typed error, leaves the job untouched,
//! and is surfaced on the event bus and metrics registry.
//!
//! During development this was validated by seeding the exact bug
//! (bypassing the fault token guard so the stale fault reached the
//! engine); the seed is gone, the harness stays. `force_lifecycle_event`
//! plays the role of the buggy caller: it skips the event-loop guards
//! and hands the raw event straight to the engine.

use tacc_cluster::{ClusterSpec, GpuModel, ResourceVec};
use tacc_core::{Command, CommandOutcome, LifecycleError, Platform, PlatformConfig};
use tacc_workload::{GroupId, JobEvent, JobEventKind, JobId, JobState, TaskSchema};

fn tiny_config() -> PlatformConfig {
    PlatformConfig {
        cluster: ClusterSpec::uniform(1, 2, GpuModel::A100, 8),
        roster: tacc_workload::GroupRoster::campus_default(16),
        ..PlatformConfig::default()
    }
}

fn one_gpu_schema() -> TaskSchema {
    TaskSchema::builder("red-flip", GroupId::from_index(0))
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

/// A stale node fault delivered after completion must bounce off the
/// transition matrix as a typed [`IllegalTransition`], not corrupt the
/// terminal state.
#[test]
fn stale_fault_after_completion_is_rejected_typed() {
    let mut p = Platform::new(tiny_config());
    let id = submit(&mut p, one_gpu_schema(), 600.0);
    p.run_until_idle();
    assert_eq!(p.job(id).expect("exists").state(), JobState::Completed);
    let transitions_before = p.transitions(id).len();
    assert_eq!(p.illegal_transitions(), 0);

    // The stale fault: a node death notification for a run that already
    // finished. The event loop's run-token guard drops these before they
    // reach the engine; this harness simulates the guard being bypassed.
    let err = p
        .force_lifecycle_event(
            id,
            JobEvent::Fail {
                at_secs: 1e6,
                progress_secs: 0.0,
            },
        )
        .expect_err("completed job must reject a fault");

    // Typed rejection naming the exact attempt.
    let LifecycleError::Illegal(err) = err else {
        panic!("a tracked job must reject via the transition matrix, got {err}");
    };
    assert_eq!(err.from, JobState::Completed);
    assert_eq!(err.event, JobEventKind::Fail);

    // The job is untouched: still completed, JCT intact, no new record.
    let job = p.job(id).expect("exists");
    assert_eq!(job.state(), JobState::Completed);
    assert!(job.jct_secs().is_some());
    assert_eq!(p.transitions(id).len(), transitions_before);

    // The rejection is observable on every channel.
    assert_eq!(p.illegal_transitions(), 1);
    assert_eq!(
        p.metrics().counter("tacc_core_illegal_transitions_total"),
        Some(1)
    );
    assert_eq!(p.events().kind_count("illegal_transition"), 1);
    let rejected = p
        .events()
        .records()
        .find(|r| r.event.kind() == "illegal_transition")
        .expect("bus carries the rejection");
    assert_eq!(rejected.event.job(), id);
    assert_eq!(
        rejected.event.to_string(),
        "illegal transition rejected: fail from state completed"
    );
}

/// An id the platform never tracked is reported as a typed
/// `UnknownJob` — the engine no longer panics on table misses, so the
/// reachable simulation path carries zero panic sites (the
/// `panic-surface` lint gates this).
#[test]
fn unknown_job_is_a_typed_error_not_a_panic() {
    let mut p = Platform::new(tiny_config());
    let bogus = tacc_workload::JobId::from_value(u64::MAX);
    let err = p
        .force_lifecycle_event(bogus, JobEvent::Enqueue)
        .expect_err("untracked id must be rejected");
    assert_eq!(err, LifecycleError::UnknownJob(bogus));
    assert!(err.to_string().contains("not in the platform job table"));
    // An unknown id never reaches the transition matrix: the illegal
    // counter and the bus stay untouched.
    assert_eq!(p.illegal_transitions(), 0);
    assert_eq!(p.events().kind_count("illegal_transition"), 0);
}

/// The transition log records the happy path that led to the terminal
/// state, and stays frozen across rejected events.
#[test]
fn transition_log_survives_rejection_unchanged() {
    let mut p = Platform::new(tiny_config());
    let id = submit(&mut p, one_gpu_schema(), 600.0);
    p.run_until_idle();

    let log = p.transitions(id);
    let path: Vec<(JobState, JobState)> = log.iter().map(|r| (r.from, r.to)).collect();
    assert_eq!(
        path,
        vec![
            // Admission anchors the timeline with a recorded self-loop.
            (JobState::Submitted, JobState::Submitted),
            (JobState::Submitted, JobState::Queued),
            (JobState::Queued, JobState::Running),
            (JobState::Running, JobState::Completed),
        ]
    );
    // Timestamps never regress along the path.
    assert!(log.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));

    let _ = p.force_lifecycle_event(id, JobEvent::Enqueue);
    let _ = p.force_lifecycle_event(id, JobEvent::Start { at_secs: 1e6 });
    assert_eq!(p.transitions(id), log, "rejections must not append records");
    assert_eq!(p.illegal_transitions(), 2);
}

/// Every kind of stale event bounces off a terminal job — and each
/// rejection increments the counters exactly once.
#[test]
fn every_stale_event_kind_is_rejected_on_terminal_job() {
    let mut p = Platform::new(tiny_config());
    let id = submit(&mut p, one_gpu_schema(), 600.0);
    p.run_until_idle();

    let stale = [
        JobEvent::Submit { at_secs: 1e6 },
        JobEvent::Enqueue,
        JobEvent::Start { at_secs: 1e6 },
        JobEvent::Preempt {
            at_secs: 1e6,
            progress_secs: 0.0,
            lost_secs: 0.0,
        },
        JobEvent::Interrupt {
            at_secs: 1e6,
            progress_secs: 0.0,
            lost_secs: 0.0,
        },
        JobEvent::Reject { at_secs: 1e6 },
        JobEvent::Complete { at_secs: 1e6 },
        JobEvent::Fail {
            at_secs: 1e6,
            progress_secs: 0.0,
        },
        JobEvent::Cancel { at_secs: 1e6 },
    ];
    for (i, event) in stale.iter().enumerate() {
        let err = p
            .force_lifecycle_event(id, *event)
            .expect_err("terminal state absorbs everything");
        let LifecycleError::Illegal(err) = err else {
            panic!("a tracked job must reject via the transition matrix, got {err}");
        };
        assert_eq!(err.from, JobState::Completed);
        assert_eq!(p.illegal_transitions(), i as u64 + 1);
    }
    assert_eq!(p.job(id).expect("exists").state(), JobState::Completed);
    assert_eq!(
        p.metrics().counter("tacc_core_illegal_transitions_total"),
        Some(stale.len() as u64)
    );
}
