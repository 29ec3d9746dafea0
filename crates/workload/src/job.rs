//! Jobs: submitted task schemas with a checked lifecycle state machine.
//!
//! The lifecycle is an explicit transition matrix ([`TRANSITION_MATRIX`])
//! driven by typed events ([`JobEvent`]). Every state change goes through
//! [`JobState::transition`], which either returns the successor state or a
//! typed [`IllegalTransition`] error — there is no panicking mutator API.
//! The platform layer routes all calls through `core::lifecycle`, so the
//! whole system has exactly one state-write site.

use std::fmt;
use std::sync::Arc;

use tacc_json::{Cursor, Field, Json, TextSink};

use crate::schema::TaskSchema;

/// Identifier of a submitted job. Dense per platform instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Raw value (used as the cluster lease owner tag).
    pub fn value(self) -> u64 {
        self.0
    }

    /// Constructs a job id from a raw value (trace replay and tests).
    pub fn from_value(v: u64) -> Self {
        JobId(v)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Spelled as its value.
impl Field for JobId {
    fn write<W: TextSink + ?Sized>(&self, out: &mut W) {
        <u64 as Field>::write(&self.0, out);
    }
    fn to_tree(&self) -> Json {
        <u64 as Field>::to_tree(&self.0)
    }
    fn read(r: &mut Cursor<'_>) -> Option<Self> {
        <u64 as Field>::read(r).map(JobId)
    }
    fn from_tree(value: Option<&Json>, key: &str) -> Result<Self, String> {
        <u64 as Field>::from_tree(value, key).map(JobId)
    }
}

tacc_json::record! {
    /// Lifecycle state of a job.
    ///
    /// One edge per line; `tests/lifecycle_properties.rs` parses this block and
    /// asserts it matches [`TRANSITION_MATRIX`] exactly, so keep the edge-list
    /// format intact when editing.
    ///
    /// ```text
    /// Submitted ──submit──→ Submitted
    /// Submitted ──enqueue──→ Queued
    /// Submitted ──reject───→ Failed
    /// Queued ──start──→ Running
    /// Running ──complete──→ Completed
    /// Running ──fail──→ Failed
    /// Running ──preempt──→ Preempted
    /// Running ──interrupt──→ Preempted
    /// Preempted ──enqueue──→ Queued
    /// Submitted|Queued|Running|Preempted ──cancel──→ Cancelled
    /// ```
    ///
    /// `Completed`, `Failed`, and `Cancelled` are terminal and absorbing: no
    /// event leaves them.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum JobState {
        /// Submitted; the compiler layer is preparing the task instruction.
        Submitted = "submitted",
        /// Instruction ready; waiting in the scheduling queue.
        Queued = "queued",
        /// Placed and executing.
        Running = "running",
        /// Evicted by the scheduler; awaiting requeue.
        Preempted = "preempted",
        /// Finished all its work.
        Completed = "completed",
        /// Terminated with an unrecoverable error.
        Failed = "failed",
        /// Killed by the user.
        Cancelled = "cancelled",
    }
}

impl JobState {
    /// True for states a job can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Cancelled
        )
    }

    /// The checked transition function: applies `event` to `self` and
    /// returns the successor state, or a typed [`IllegalTransition`] if the
    /// matrix has no such edge.
    ///
    /// The match is exhaustive over the full `(state, event)` cross product
    /// with no wildcard row, so adding a state or event forces this function
    /// (and [`TRANSITION_MATRIX`]) to be revisited at compile time.
    pub fn transition(self, event: &JobEvent) -> Result<JobState, IllegalTransition> {
        use JobEventKind as K;
        use JobState as S;
        let next = match (self, event.kind()) {
            // Legal edges (mirror TRANSITION_MATRIX and the diagram above).
            (S::Submitted, K::Submit) => Some(S::Submitted),
            (S::Submitted | S::Preempted, K::Enqueue) => Some(S::Queued),
            (S::Submitted, K::Reject) => Some(S::Failed),
            (S::Queued, K::Start) => Some(S::Running),
            (S::Running, K::Complete) => Some(S::Completed),
            (S::Running, K::Fail) => Some(S::Failed),
            (S::Running, K::Preempt | K::Interrupt) => Some(S::Preempted),
            (S::Submitted | S::Queued | S::Running | S::Preempted, K::Cancel) => Some(S::Cancelled),
            // Terminal states are absorbing.
            (S::Completed | S::Failed | S::Cancelled, _) => None,
            // Every remaining live-state combination is illegal, spelled out
            // so no wildcard can swallow a future variant.
            (S::Submitted, K::Start | K::Preempt | K::Interrupt | K::Complete | K::Fail) => None,
            (
                S::Queued,
                K::Submit
                | K::Enqueue
                | K::Preempt
                | K::Interrupt
                | K::Reject
                | K::Complete
                | K::Fail,
            ) => None,
            (S::Running, K::Submit | K::Enqueue | K::Start | K::Reject) => None,
            (
                S::Preempted,
                K::Submit
                | K::Start
                | K::Preempt
                | K::Interrupt
                | K::Reject
                | K::Complete
                | K::Fail,
            ) => None,
        };
        next.ok_or(IllegalTransition {
            from: self,
            event: event.kind(),
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A lifecycle event applied to a job. Carries the bookkeeping payload the
/// transition needs (timestamps, progress credit); the legality of the
/// transition itself depends only on the event's [`JobEventKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobEvent {
    /// Admission accepted the submission at `at_secs`. A self-loop on
    /// `Submitted`: no state change, but the transition log gains a record
    /// anchoring the job's timeline at its submission time, so span
    /// reconstruction from the stream alone knows when `Compiling` began.
    Submit {
        /// Simulation time of the submission.
        at_secs: f64,
    },
    /// Compiler finished (or a preempted job is requeued): enter the queue.
    Enqueue,
    /// Placed by the scheduler; starts (or resumes) running at `at_secs`.
    Start {
        /// Simulation time of the (re)start.
        at_secs: f64,
    },
    /// Scheduler eviction: ran `progress_secs` since the last start, of
    /// which `lost_secs` (work since the last checkpoint) is discarded.
    Preempt {
        /// Simulation time of the preemption.
        at_secs: f64,
        /// Wall seconds executed since the last start.
        progress_secs: f64,
        /// Portion of `progress_secs` lost (no checkpoint to resume from).
        lost_secs: f64,
    },
    /// Node-failure interruption with checkpoint-restart: like `Preempt`
    /// but counted as a restart rather than a preemption.
    Interrupt {
        /// Simulation time of the failure.
        at_secs: f64,
        /// Wall seconds executed since the last start.
        progress_secs: f64,
        /// Portion of `progress_secs` lost to the failure.
        lost_secs: f64,
    },
    /// Admission rejection: the job can never run (e.g. infeasible gang).
    Reject {
        /// Simulation time of the rejection.
        at_secs: f64,
    },
    /// Successful completion.
    Complete {
        /// Simulation time of completion.
        at_secs: f64,
    },
    /// Unrecoverable error after `progress_secs` of execution (all wasted).
    Fail {
        /// Simulation time of the failure.
        at_secs: f64,
        /// Wall seconds executed since the last start, all discarded.
        progress_secs: f64,
    },
    /// User kill.
    Cancel {
        /// Simulation time of the cancellation.
        at_secs: f64,
    },
}

impl JobEvent {
    /// The payload-free kind of this event (the matrix key).
    pub fn kind(&self) -> JobEventKind {
        match self {
            JobEvent::Submit { .. } => JobEventKind::Submit,
            JobEvent::Enqueue => JobEventKind::Enqueue,
            JobEvent::Start { .. } => JobEventKind::Start,
            JobEvent::Preempt { .. } => JobEventKind::Preempt,
            JobEvent::Interrupt { .. } => JobEventKind::Interrupt,
            JobEvent::Reject { .. } => JobEventKind::Reject,
            JobEvent::Complete { .. } => JobEventKind::Complete,
            JobEvent::Fail { .. } => JobEventKind::Fail,
            JobEvent::Cancel { .. } => JobEventKind::Cancel,
        }
    }
}

tacc_json::record! {
    /// The kind of a [`JobEvent`], without payload. Keys the transition matrix.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum JobEventKind {
        /// See [`JobEvent::Submit`].
        Submit = "submit",
        /// See [`JobEvent::Enqueue`].
        Enqueue = "enqueue",
        /// See [`JobEvent::Start`].
        Start = "start",
        /// See [`JobEvent::Preempt`].
        Preempt = "preempt",
        /// See [`JobEvent::Interrupt`].
        Interrupt = "interrupt",
        /// See [`JobEvent::Reject`].
        Reject = "reject",
        /// See [`JobEvent::Complete`].
        Complete = "complete",
        /// See [`JobEvent::Fail`].
        Fail = "fail",
        /// See [`JobEvent::Cancel`].
        Cancel = "cancel",
    }
}

impl fmt::Display for JobEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The lifecycle transition matrix as data: `(from, event, to)` rows.
///
/// [`JobState::transition`] is the exhaustively match-checked twin of this
/// table; `workload` unit tests and `tests/lifecycle_properties.rs` assert
/// the two agree over the full `(state, event)` cross product.
pub const TRANSITION_MATRIX: &[(JobState, JobEventKind, JobState)] = &[
    (
        JobState::Submitted,
        JobEventKind::Submit,
        JobState::Submitted,
    ),
    (JobState::Submitted, JobEventKind::Enqueue, JobState::Queued),
    (JobState::Submitted, JobEventKind::Reject, JobState::Failed),
    (
        JobState::Submitted,
        JobEventKind::Cancel,
        JobState::Cancelled,
    ),
    (JobState::Queued, JobEventKind::Start, JobState::Running),
    (JobState::Queued, JobEventKind::Cancel, JobState::Cancelled),
    (
        JobState::Running,
        JobEventKind::Complete,
        JobState::Completed,
    ),
    (JobState::Running, JobEventKind::Fail, JobState::Failed),
    (
        JobState::Running,
        JobEventKind::Preempt,
        JobState::Preempted,
    ),
    (
        JobState::Running,
        JobEventKind::Interrupt,
        JobState::Preempted,
    ),
    (JobState::Running, JobEventKind::Cancel, JobState::Cancelled),
    (JobState::Preempted, JobEventKind::Enqueue, JobState::Queued),
    (
        JobState::Preempted,
        JobEventKind::Cancel,
        JobState::Cancelled,
    ),
];

/// A rejected lifecycle transition: the matrix has no `from ──event→` edge.
///
/// Surfaced on the platform event bus as `PlatformEvent::IllegalTransition`
/// instead of mutating state (or panicking, as the pre-lifecycle-engine
/// mutators did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IllegalTransition {
    /// The state the job was in when the event arrived.
    pub from: JobState,
    /// The event kind that had no edge from `from`.
    pub event: JobEventKind,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "illegal transition: {} from state {}",
            self.event, self.from
        )
    }
}

impl std::error::Error for IllegalTransition {}

/// A submitted job: its schema, its (oracle) service requirement, and its
/// progress through the lifecycle.
///
/// Times are simulation seconds. The *service requirement* is the wall time
/// the job needs on its requested allocation at nominal speed; the
/// execution layer stretches it by a slowdown factor reflecting placement
/// and hardware. The scheduler never reads the true service time — only the
/// user's (noisy) estimate in the schema — mirroring reality.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    id: JobId,
    schema: Arc<TaskSchema>,
    submit_secs: f64,
    service_secs: f64,
    state: JobState,
    remaining_secs: f64,
    first_start_secs: Option<f64>,
    last_start_secs: Option<f64>,
    finish_secs: Option<f64>,
    preemptions: u32,
    restarts: u32,
    wasted_secs: f64,
}

impl Job {
    /// Creates a job in the `Submitted` state. A schema that is already
    /// shared (a trace record's, a `submit` command's) is held by
    /// reference count, not copied.
    ///
    /// # Panics
    ///
    /// Panics if `service_secs` is not positive and finite, or the schema
    /// fails validation.
    pub fn new(
        id: JobId,
        schema: impl Into<Arc<TaskSchema>>,
        submit_secs: f64,
        service_secs: f64,
    ) -> Self {
        let schema = schema.into();
        assert!(
            service_secs > 0.0 && service_secs.is_finite(),
            "service time must be positive"
        );
        schema
            .validate()
            .unwrap_or_else(|e| panic!("invalid schema for {id}: {e}"));
        Job {
            id,
            schema,
            submit_secs,
            service_secs,
            state: JobState::Submitted,
            remaining_secs: service_secs,
            first_start_secs: None,
            last_start_secs: None,
            finish_secs: None,
            preemptions: 0,
            restarts: 0,
            wasted_secs: 0.0,
        }
    }

    /// The job identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The task schema this job was submitted with.
    pub fn schema(&self) -> &TaskSchema {
        &self.schema
    }

    /// The schema's shared handle: a clone lends the schema past a borrow
    /// of the job at the cost of a reference count, not a copy.
    pub fn shared_schema(&self) -> &Arc<TaskSchema> {
        &self.schema
    }

    /// Submission time (simulation seconds).
    pub fn submit_secs(&self) -> f64 {
        self.submit_secs
    }

    /// Oracle service requirement in seconds (not visible to the scheduler).
    pub fn service_secs(&self) -> f64 {
        self.service_secs
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// Remaining service in seconds.
    pub fn remaining_secs(&self) -> f64 {
        self.remaining_secs
    }

    /// Times this job was preempted.
    pub fn preemptions(&self) -> u32 {
        self.preemptions
    }

    /// Times this job restarted after a failure.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// GPU-seconds of lost progress from preemptions/failures.
    pub fn wasted_secs(&self) -> f64 {
        self.wasted_secs
    }

    /// When the job first started running, if it ever did.
    pub fn first_start_secs(&self) -> Option<f64> {
        self.first_start_secs
    }

    /// When the job reached a terminal state.
    pub fn finish_secs(&self) -> Option<f64> {
        self.finish_secs
    }

    /// Delay from submission to first start (`None` if it never started).
    pub fn queueing_delay_secs(&self) -> Option<f64> {
        self.first_start_secs.map(|s| s - self.submit_secs)
    }

    /// Job completion time: submission to terminal state (`None` while live).
    pub fn jct_secs(&self) -> Option<f64> {
        self.finish_secs.map(|f| f - self.submit_secs)
    }

    /// Records `elapsed` seconds of useful progress (called when the job is
    /// suspended or finishes).
    fn credit_progress(&mut self, elapsed: f64, lost: f64) {
        let useful = (elapsed - lost).max(0.0);
        self.remaining_secs = (self.remaining_secs - useful).max(0.0);
        self.wasted_secs += lost.min(elapsed).max(0.0);
    }

    /// Applies a lifecycle event: validates it against the transition
    /// matrix, performs the event's bookkeeping (timestamps, progress
    /// credit, counters), and commits the successor state.
    ///
    /// This is the only way to change a job's state. On an illegal event
    /// the job is left untouched and the typed error is returned — callers
    /// (the platform lifecycle module) surface it on the event bus.
    ///
    /// Outside of tests, call this only from `core::lifecycle` — a
    /// repo-wide write-site test enforces that every production caller
    /// lives there, keeping the whole system single-writer.
    pub fn apply_event(&mut self, event: JobEvent) -> Result<JobState, IllegalTransition> {
        let next = self.state.transition(&event)?;
        match event {
            JobEvent::Submit { .. } => {}
            JobEvent::Enqueue => {}
            JobEvent::Start { at_secs } => {
                if self.first_start_secs.is_none() {
                    self.first_start_secs = Some(at_secs);
                }
                self.last_start_secs = Some(at_secs);
            }
            JobEvent::Preempt {
                progress_secs,
                lost_secs,
                ..
            } => {
                self.credit_progress(progress_secs, lost_secs);
                self.preemptions += 1;
            }
            JobEvent::Interrupt {
                progress_secs,
                lost_secs,
                ..
            } => {
                self.credit_progress(progress_secs, lost_secs);
                self.restarts += 1;
            }
            JobEvent::Reject { at_secs } => {
                self.finish_secs = Some(at_secs);
            }
            JobEvent::Complete { at_secs } => {
                self.remaining_secs = 0.0;
                self.finish_secs = Some(at_secs);
            }
            JobEvent::Fail {
                at_secs,
                progress_secs,
            } => {
                self.wasted_secs += progress_secs.max(0.0);
                self.finish_secs = Some(at_secs);
            }
            JobEvent::Cancel { at_secs } => {
                self.finish_secs = Some(at_secs);
            }
        }
        self.state = next;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;

    fn job() -> Job {
        let schema = TaskSchema::builder("t", GroupId::from_index(0))
            .build()
            .expect("valid");
        Job::new(JobId::from_value(1), schema, 100.0, 600.0)
    }

    fn apply(j: &mut Job, event: JobEvent) -> JobState {
        j.apply_event(event).expect("legal transition")
    }

    #[test]
    fn happy_path_lifecycle() {
        let mut j = job();
        assert_eq!(j.state(), JobState::Submitted);
        apply(&mut j, JobEvent::Enqueue);
        assert_eq!(j.state(), JobState::Queued);
        apply(&mut j, JobEvent::Start { at_secs: 150.0 });
        assert_eq!(j.state(), JobState::Running);
        apply(&mut j, JobEvent::Complete { at_secs: 750.0 });
        assert_eq!(j.state(), JobState::Completed);
        assert_eq!(j.queueing_delay_secs(), Some(50.0));
        assert_eq!(j.jct_secs(), Some(650.0));
        assert_eq!(j.remaining_secs(), 0.0);
        assert!(j.state().is_terminal());
    }

    #[test]
    fn preemption_keeps_checkpointed_progress() {
        let mut j = job();
        apply(&mut j, JobEvent::Enqueue);
        apply(&mut j, JobEvent::Start { at_secs: 0.0 });
        // Ran 200s, lost the 50s since the last checkpoint.
        apply(
            &mut j,
            JobEvent::Preempt {
                at_secs: 200.0,
                progress_secs: 200.0,
                lost_secs: 50.0,
            },
        );
        assert_eq!(j.state(), JobState::Preempted);
        assert_eq!(j.preemptions(), 1);
        assert_eq!(j.remaining_secs(), 600.0 - 150.0);
        assert_eq!(j.wasted_secs(), 50.0);
        // Requeue and resume.
        apply(&mut j, JobEvent::Enqueue);
        apply(&mut j, JobEvent::Start { at_secs: 300.0 });
        assert_eq!(j.first_start_secs(), Some(0.0)); // first start preserved
        apply(&mut j, JobEvent::Complete { at_secs: 750.0 });
        assert_eq!(j.jct_secs(), Some(650.0));
    }

    #[test]
    fn failure_restart_counts_waste() {
        let mut j = job();
        apply(&mut j, JobEvent::Enqueue);
        apply(&mut j, JobEvent::Start { at_secs: 0.0 });
        // No checkpoint: all progress lost.
        apply(
            &mut j,
            JobEvent::Interrupt {
                at_secs: 100.0,
                progress_secs: 100.0,
                lost_secs: 100.0,
            },
        );
        assert_eq!(j.restarts(), 1);
        assert_eq!(j.remaining_secs(), 600.0);
        assert_eq!(j.wasted_secs(), 100.0);
    }

    #[test]
    fn fatal_failure() {
        let mut j = job();
        apply(&mut j, JobEvent::Enqueue);
        apply(&mut j, JobEvent::Start { at_secs: 150.0 });
        apply(
            &mut j,
            JobEvent::Fail {
                at_secs: 180.0,
                progress_secs: 30.0,
            },
        );
        assert_eq!(j.state(), JobState::Failed);
        assert_eq!(j.wasted_secs(), 30.0);
        assert_eq!(j.jct_secs(), Some(80.0));
    }

    #[test]
    fn cancel_from_queue() {
        let mut j = job();
        apply(&mut j, JobEvent::Enqueue);
        apply(&mut j, JobEvent::Cancel { at_secs: 500.0 });
        assert_eq!(j.state(), JobState::Cancelled);
        assert_eq!(j.queueing_delay_secs(), None);
        assert_eq!(j.jct_secs(), Some(400.0));
    }

    #[test]
    fn start_requires_queued() {
        let mut j = job();
        let err = j
            .apply_event(JobEvent::Start { at_secs: 0.0 })
            .expect_err("submitted jobs cannot start");
        assert_eq!(err.from, JobState::Submitted);
        assert_eq!(err.event, JobEventKind::Start);
        assert_eq!(j.state(), JobState::Submitted); // untouched
        assert_eq!(
            err.to_string(),
            "illegal transition: start from state submitted"
        );
    }

    #[test]
    fn terminal_states_absorb_cancel() {
        let mut j = job();
        apply(&mut j, JobEvent::Cancel { at_secs: 1.0 });
        let err = j
            .apply_event(JobEvent::Cancel { at_secs: 2.0 })
            .expect_err("cancel is not idempotent");
        assert_eq!(err.from, JobState::Cancelled);
        assert_eq!(j.finish_secs(), Some(1.0)); // first cancel's timestamp kept
    }

    #[test]
    fn transition_matrix_agrees_with_match() {
        // The data table and the exhaustive match must describe the same
        // relation over the full cross product.
        for &from in JobState::ALL.iter() {
            for &kind in JobEventKind::ALL.iter() {
                let row = TRANSITION_MATRIX
                    .iter()
                    .find(|&&(f, k, _)| f == from && k == kind)
                    .map(|&(_, _, to)| to);
                let event = sample_event(kind);
                let matched = from.transition(&event).ok();
                assert_eq!(
                    row, matched,
                    "matrix/match disagree on ({from:?}, {kind:?})"
                );
            }
        }
    }

    #[test]
    fn terminal_states_have_no_outgoing_edges() {
        for &(from, _, _) in TRANSITION_MATRIX {
            assert!(!from.is_terminal(), "terminal state {from:?} has an edge");
        }
    }

    fn sample_event(kind: JobEventKind) -> JobEvent {
        match kind {
            JobEventKind::Submit => JobEvent::Submit { at_secs: 0.0 },
            JobEventKind::Enqueue => JobEvent::Enqueue,
            JobEventKind::Start => JobEvent::Start { at_secs: 0.0 },
            JobEventKind::Preempt => JobEvent::Preempt {
                at_secs: 0.0,
                progress_secs: 0.0,
                lost_secs: 0.0,
            },
            JobEventKind::Interrupt => JobEvent::Interrupt {
                at_secs: 0.0,
                progress_secs: 0.0,
                lost_secs: 0.0,
            },
            JobEventKind::Reject => JobEvent::Reject { at_secs: 0.0 },
            JobEventKind::Complete => JobEvent::Complete { at_secs: 0.0 },
            JobEventKind::Fail => JobEvent::Fail {
                at_secs: 0.0,
                progress_secs: 0.0,
            },
            JobEventKind::Cancel => JobEvent::Cancel { at_secs: 0.0 },
        }
    }

    #[test]
    fn display_names_parse_back() {
        for s in JobState::ALL {
            assert_eq!(JobState::from_tag(&s.to_string()), Some(s));
        }
        for k in JobEventKind::ALL {
            assert_eq!(JobEventKind::from_tag(&k.to_string()), Some(k));
        }
        assert_eq!(JobState::from_tag("bogus"), None);
        assert_eq!(JobEventKind::from_tag("bogus"), None);
    }

    #[test]
    fn submit_is_a_recorded_self_loop() {
        let mut j = job();
        apply(&mut j, JobEvent::Submit { at_secs: 100.0 });
        assert_eq!(j.state(), JobState::Submitted);
        // Submission is telemetry-only: no bookkeeping changes.
        assert_eq!(j.remaining_secs(), 600.0);
        assert_eq!(j.finish_secs(), None);
        // Legal only from Submitted.
        apply(&mut j, JobEvent::Enqueue);
        let err = j
            .apply_event(JobEvent::Submit { at_secs: 200.0 })
            .expect_err("queued jobs cannot re-submit");
        assert_eq!(err.from, JobState::Queued);
        assert_eq!(err.event, JobEventKind::Submit);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_rejected() {
        let schema = TaskSchema::builder("t", GroupId::from_index(0))
            .build()
            .expect("valid");
        let _ = Job::new(JobId::from_value(1), schema, 0.0, 0.0);
    }
}
