//! The one front door: trace arrivals (the cursor beside the event queue)
//! and `Command::Submit` enter through the same admission function, with
//! the same refusals, and a submission runs no scheduling round.

use tacc_core::{Command, CommandOutcome, CommandRecord, Platform, PlatformConfig};
use tacc_sim::SimTime;
use tacc_workload::{GroupId, JobState, TaskSchema, Trace, TraceRecord};

fn record(name: &str, group: usize, submit_secs: f64) -> TraceRecord {
    TraceRecord {
        submit_secs,
        schema: TaskSchema::builder(name, GroupId::from_index(group))
            .build()
            .expect("valid")
            .into(),
        service_secs: 600.0,
        cancel_after_secs: None,
    }
}

fn refused(p: &Platform) -> Option<u64> {
    p.metrics().counter("tacc_core_submissions_refused_total")
}

/// Names of the jobs minted so far, in id order.
fn names(p: &Platform) -> Vec<String> {
    let name = |id| p.job(id).expect("listed").schema().name.to_string();
    p.job_ids().into_iter().map(name).collect()
}

/// The bug report's first trace: one record naming group 11 on the
/// default 8-group roster used to index the quota table out of bounds
/// inside `run_trace`; `Command::Submit` answered `InvalidTask` all along.
#[test]
fn a_trace_naming_a_group_outside_the_roster_is_refused_not_a_panic() {
    let foreign = record("foreign", 11, 5.0);
    let mut p = Platform::new(PlatformConfig::default());
    let report = p.run_trace(&Trace::new(vec![foreign.clone()]));
    assert_eq!(report.submitted, 0);
    assert_eq!(p.job_count(), 0, "no job is minted for a refusal");
    assert_eq!(refused(&p), Some(1));
    assert_eq!(p.now(), SimTime::from_secs(5.0), "it was refused on time");

    // The other door, the same answer, the same counter.
    let err = p
        .apply_command(&Command::Submit {
            schema: foreign.schema,
            service_secs: foreign.service_secs,
        })
        .expect_err("group 11 of 8");
    assert_eq!(err.kind(), "invalid-task");
    assert_eq!(
        err.to_string(),
        "invalid task: group group11 is outside the 8-group roster"
    );
    assert_eq!(refused(&p), Some(2));
    assert_eq!(p.job_count(), 0);
}

/// The bug report's second trace: loading a trace whose first record is
/// behind the clock used to move the clock backwards (a panic in
/// `tacc-sim`); `apply_record` answered `TimeRegression` all along.
#[test]
fn a_trace_behind_the_clock_is_refused_not_a_panic() {
    let mut p = Platform::new(PlatformConfig::default());
    p.run_until(SimTime::from_secs(100.0));
    let trace = Trace::new(vec![record("late", 0, 50.0), record("on-time", 0, 150.0)]);
    p.load_trace(&trace);
    // The late record is due at once, not in the past.
    assert_eq!(p.next_event_at(), Some(SimTime::from_secs(100.0)));
    p.run_until_idle();
    assert_eq!(names(&p), ["on-time"]);
    assert_eq!(refused(&p), Some(1));
    let report = p.report();
    assert_eq!(report.submitted + 1, trace.len());
    assert_eq!(report.completed, 1);

    let err = p
        .apply_record(&CommandRecord {
            seq: 0,
            at_secs: 50.0,
            command: Command::Advance { secs: 0.0 },
        })
        .expect_err("stamped behind the clock");
    assert_eq!(err.kind(), "time-regression");
}

#[test]
fn equal_submit_times_keep_load_order() {
    let mut p = Platform::new(PlatformConfig::default());
    p.load_trace(&Trace::new(vec![
        record("a0", 0, 10.0),
        record("a1", 0, 10.0),
    ]));
    p.load_trace(&Trace::new(vec![
        record("b0", 1, 10.0),
        record("b1", 1, 20.0),
    ]));
    p.run_until(SimTime::from_secs(10.0));
    assert_eq!(names(&p), ["a0", "a1", "b0"]);
    p.run_until_idle();
    assert_eq!(names(&p), ["a0", "a1", "b0", "b1"]);
}

#[test]
fn a_trace_loaded_mid_run_merges_by_time() {
    let mut p = Platform::new(PlatformConfig::default());
    p.load_trace(&Trace::new(vec![
        record("a10", 0, 10.0),
        record("a30", 0, 30.0),
        record("a50", 0, 50.0),
    ]));
    p.run_until(SimTime::from_secs(20.0));
    p.load_trace(&Trace::new(vec![
        record("b25", 1, 25.0),
        record("b40", 1, 40.0),
    ]));
    p.run_until_idle();
    assert_eq!(names(&p), ["a10", "b25", "a30", "b40", "a50"]);
    for id in p.job_ids() {
        assert_eq!(p.job(id).expect("listed").state(), JobState::Completed);
    }
}

#[test]
fn the_clock_sees_arrivals_and_events_alike() {
    let mut p = Platform::new(PlatformConfig::default());
    assert_eq!(p.next_event_at(), None);
    p.load_trace(&Trace::new(vec![
        record("a", 0, 10.0),
        record("b", 0, 5_000.0),
    ]));
    // Nothing is scheduled yet; the head is the first arrival.
    assert_eq!(p.next_event_at(), Some(SimTime::from_secs(10.0)));
    assert_eq!(p.step(), Some(SimTime::from_secs(10.0)));
    assert_eq!(p.job_count(), 1);
    // Now `a` is compiling: its `CompileDone` is due before `b` arrives.
    let compiled = p.next_event_at().expect("a is compiling");
    assert!(compiled > SimTime::from_secs(10.0) && compiled < SimTime::from_secs(5_000.0));

    // `run_until` stops between the two arrivals, clock on the bound.
    p.run_until(SimTime::from_secs(4_000.0));
    assert_eq!(p.now(), SimTime::from_secs(4_000.0));
    assert_eq!(names(&p), ["a"]);
    assert_eq!(p.next_event_at(), Some(SimTime::from_secs(5_000.0)));

    // `run_until_idle` drains both sources.
    p.run_until_idle();
    assert_eq!(names(&p), ["a", "b"]);
    assert_eq!(p.next_event_at(), None);
    assert_eq!(p.step(), None);
    assert_eq!(p.report().completed, 2);
}

/// A submission writes nothing a scheduling round reads — the job is
/// still compiling — so it runs none; the round is `CompileDone`'s.
#[test]
fn a_submit_command_runs_no_round_and_the_job_starts_at_compile_done() {
    let mut p = Platform::new(PlatformConfig::default());
    let rounds = p.scheduler().rounds();
    let submit = Command::Submit {
        schema: record("one", 0, 0.0).schema,
        service_secs: 600.0,
    };
    let Ok(CommandOutcome::Submitted { job }) = p.apply_command(&submit) else {
        panic!("the submission is valid");
    };
    assert_eq!(p.scheduler().rounds(), rounds);
    assert_eq!(p.job(job).expect("minted").state(), JobState::Submitted);

    let compiled = p.next_event_at().expect("compiling");
    assert_eq!(p.step(), Some(compiled));
    assert!(p.scheduler().rounds() > rounds);
    let job = p.job(job).expect("minted");
    assert_eq!(job.state(), JobState::Running);
    assert_eq!(job.first_start_secs(), Some(compiled.as_secs()));
}
