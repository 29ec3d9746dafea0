//! Causal job-span timelines folded from the lifecycle transition stream.
//!
//! A [`SpanBook`] consumes applied lifecycle transitions — the
//! `(at_secs, job, from, to, event)` records the core engine's single
//! state-write site emits — and folds them, per job, into a contiguous
//! sequence of [`Span`]s: `Compiling`, `Queued`, `Scheduled`, `Running`,
//! `Checkpointing`, `Restoring`, `Preempted`, `Recovering`. Each span
//! carries its sim-time bounds, the lifecycle event that opened it, and
//! a human-readable attribution tag.
//!
//! The fold is a pure function of the transition stream plus a static
//! [`SpanConfig`], so a timeline reconstructed from an exported
//! transition JSONL (via [`SpanBook::from_transitions_jsonl`]) is
//! byte-identical to the one folded live. Records that do not name an
//! edge of the workload transition matrix are counted and ignored —
//! rejected (illegal) events can never open or close a span.
//!
//! ## Span derivation rules
//!
//! | Event                | Effect on the open span                        |
//! |----------------------|------------------------------------------------|
//! | `submit`             | opens `Compiling` (timeline anchor)            |
//! | `enqueue`            | closes the open span, opens `Queued`           |
//! | `start`              | closes `Queued`, emits a zero-width            |
//! |                      | `Scheduled` marker, opens a running interval   |
//! | `preempt`            | closes the running interval, opens `Preempted` |
//! | `interrupt`          | closes the running interval, opens `Recovering`|
//! | terminal events      | close the open span                            |
//!
//! Closing a running interval `[t0, t1]` splits it deterministically:
//! a leading `Restoring` span of `min(restore_secs, t1 - t0)` when the
//! run resumed after an interruption, a trailing `Checkpointing` span
//! of `checkpoint_overhead_fraction` of the remainder (the amortized
//! checkpoint-write stretch), and `Running` in between. Adjacent spans
//! share their boundary values bitwise, so per-job span durations
//! partition the job's makespan *exactly* — see [`span_conservation`]
//! and the `Dyadic` arithmetic in the goodput module.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use tacc_json::write_num;
use tacc_workload::{JobEventKind, JobId, JobState, TRANSITION_MATRIX};

use crate::goodput::Dyadic;

/// The phase a job-span timeline attributes an interval of sim time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// Admission accepted the job; the compiler/provisioner owns it.
    Compiling,
    /// Waiting in the scheduler queue for resources.
    Queued,
    /// Zero-width marker: the instant a placement was committed.
    Scheduled,
    /// On nodes, making forward progress (includes any slowdown).
    Running,
    /// On nodes, stalled writing periodic checkpoints (amortized).
    Checkpointing,
    /// On nodes, restoring the previous checkpoint after a resume.
    Restoring,
    /// Off nodes after a quota reclaim, waiting to re-queue.
    Preempted,
    /// Off nodes after a fault, waiting to re-queue.
    Recovering,
}

impl SpanPhase {
    /// Every phase, in display order.
    pub const ALL: [SpanPhase; 8] = [
        SpanPhase::Compiling,
        SpanPhase::Queued,
        SpanPhase::Scheduled,
        SpanPhase::Running,
        SpanPhase::Checkpointing,
        SpanPhase::Restoring,
        SpanPhase::Preempted,
        SpanPhase::Recovering,
    ];

    fn name(self) -> &'static str {
        match self {
            SpanPhase::Compiling => "Compiling",
            SpanPhase::Queued => "Queued",
            SpanPhase::Scheduled => "Scheduled",
            SpanPhase::Running => "Running",
            SpanPhase::Checkpointing => "Checkpointing",
            SpanPhase::Restoring => "Restoring",
            SpanPhase::Preempted => "Preempted",
            SpanPhase::Recovering => "Recovering",
        }
    }

    /// The static attribution tag for spans of this phase: which part of
    /// the platform the interval is charged to.
    pub fn attribution(self) -> &'static str {
        match self {
            SpanPhase::Compiling => "compiler provisioning",
            SpanPhase::Queued => "scheduler backlog",
            SpanPhase::Scheduled => "placement commit",
            SpanPhase::Running => "useful execution",
            SpanPhase::Checkpointing => "checkpoint write overhead (amortized)",
            SpanPhase::Restoring => "checkpoint restore",
            SpanPhase::Preempted => "quota reclaim",
            SpanPhase::Recovering => "node failure recovery",
        }
    }
}

impl fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One attributed interval of a job's timeline. Half-open `[start, end)`;
/// zero-width spans (`start == end`) mark instantaneous phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// What the interval is attributed to.
    pub phase: SpanPhase,
    /// Interval start, sim seconds.
    pub start_secs: f64,
    /// Interval end, sim seconds.
    pub end_secs: f64,
    /// The lifecycle event that opened this span (for the split parts of
    /// a running interval, the `start` event that opened the interval).
    pub cause: JobEventKind,
}

impl Span {
    /// Interval width in sim seconds.
    pub fn duration_secs(&self) -> f64 {
        self.end_secs - self.start_secs
    }

    /// The static attribution tag (delegates to the phase).
    pub fn attribution(&self) -> &'static str {
        self.phase.attribution()
    }

    /// Upper bound, in bytes, on one line of [`SpanBook::to_jsonl`]: 201
    /// with the job id at `u64::MAX`, the longest phase, cause and
    /// attribution, and both floats 24 bytes wide (see the event bus's
    /// line bound for why 24); `a_line_never_outgrows_its_bound`.
    const LINE_BOUND: usize = 208;

    fn write_json(&self, out: &mut String, job: JobId) {
        let _ = write!(
            out,
            "{{\"job\":{},\"phase\":\"{}\",\"start_secs\":",
            job.value(),
            self.phase.name()
        );
        write_num(self.start_secs, out);
        out.push_str(",\"end_secs\":");
        write_num(self.end_secs, out);
        let _ = write!(
            out,
            ",\"cause\":\"{}\",\"attribution\":\"{}\"}}",
            self.cause,
            self.attribution()
        );
    }
}

tacc_json::record! {
    /// One applied lifecycle transition, as a bus record stands for it:
    /// what the span fold consumes, live or read back from a line of the
    /// export (`{"at_secs":T,"job":N,"from":"state","to":"state","event":"kind"}`).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct TransitionEvent {
        /// Simulated time of the transition, seconds.
        pub at_secs: f64,
        /// The job that transitioned.
        pub job: JobId,
        /// State before the event.
        pub from: JobState,
        /// State after the event.
        pub to: JobState,
        /// The event kind that drove the transition.
        pub event: JobEventKind,
    }
}

impl TransitionEvent {
    /// Whether `(from, event, to)` is an edge of the workload transition
    /// matrix. The span fold ignores records that are not: a corrupted or
    /// adversarial stream cannot open or close spans.
    pub fn is_legal(&self) -> bool {
        TRANSITION_MATRIX
            .iter()
            .any(|&(f, k, t)| f == self.from && k == self.event && t == self.to)
    }

    /// Upper bound, in bytes, on one line of the transition log export:
    /// 120 with the job id at `u64::MAX`, the longest state and event
    /// names and the time 24 bytes wide (see the event bus's line bound
    /// for why 24); `a_line_never_outgrows_its_bound`.
    pub const LINE_BOUND: usize = 128;
}

/// Static parameters of the span fold, fixed for a whole platform run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanConfig {
    /// One-time restore cost a resumed run pays first (sim seconds);
    /// carved off the front of resumed running intervals as `Restoring`.
    pub restore_secs: f64,
    /// Fraction of each running interval's wall time spent writing
    /// periodic checkpoints; carved off the back as `Checkpointing`.
    /// Must lie in `[0, 1)`.
    pub checkpoint_overhead_fraction: f64,
}

impl SpanConfig {
    /// A config that never splits running intervals (no checkpointing).
    pub fn plain() -> Self {
        SpanConfig {
            restore_secs: 0.0,
            checkpoint_overhead_fraction: 0.0,
        }
    }
}

impl Default for SpanConfig {
    fn default() -> Self {
        SpanConfig::plain()
    }
}

#[derive(Debug, Clone, Copy)]
enum OpenSpan {
    Simple {
        phase: SpanPhase,
        start_secs: f64,
        cause: JobEventKind,
    },
    RunningInterval {
        start_secs: f64,
        resumed: bool,
    },
}

impl OpenSpan {
    fn start_secs(&self) -> f64 {
        match *self {
            OpenSpan::Simple { start_secs, .. } | OpenSpan::RunningInterval { start_secs, .. } => {
                start_secs
            }
        }
    }
}

/// One job's folded timeline: closed spans plus the currently open one.
#[derive(Debug, Clone)]
pub struct JobTimeline {
    spans: Vec<Span>,
    open: Option<OpenSpan>,
    interruptions: u64,
}

impl JobTimeline {
    /// Room a job's spans start with: what an uninterrupted run that
    /// checkpoints closes with (Compiling, Queued, Scheduled, Running,
    /// Checkpointing), so the common timeline is allocated once and its
    /// terminal fit finds nothing to trim.
    const TYPICAL_SPANS: usize = 5;

    fn new() -> Self {
        JobTimeline {
            spans: Vec::with_capacity(Self::TYPICAL_SPANS),
            open: None,
            interruptions: 0,
        }
    }

    fn close_open(&mut self, at_secs: f64, config: &SpanConfig) {
        match self.open.take() {
            None => {}
            Some(OpenSpan::Simple {
                phase,
                start_secs,
                cause,
            }) => {
                let end_secs = at_secs.max(start_secs);
                self.spans.push(Span {
                    phase,
                    start_secs,
                    end_secs,
                    cause,
                });
            }
            Some(OpenSpan::RunningInterval {
                start_secs,
                resumed,
            }) => {
                let end_secs = at_secs.max(start_secs);
                // Split [start, end] into Restoring | Running |
                // Checkpointing. Boundary values are computed once and
                // shared, so adjacent spans abut bitwise and the three
                // durations telescope to exactly `end - start`.
                let restore_end = if resumed {
                    (start_secs + config.restore_secs).min(end_secs)
                } else {
                    start_secs
                };
                let ck_len = (end_secs - restore_end) * config.checkpoint_overhead_fraction;
                let ck_start = (end_secs - ck_len).clamp(restore_end, end_secs);
                if resumed {
                    self.spans.push(Span {
                        phase: SpanPhase::Restoring,
                        start_secs,
                        end_secs: restore_end,
                        cause: JobEventKind::Start,
                    });
                }
                self.spans.push(Span {
                    phase: SpanPhase::Running,
                    start_secs: restore_end,
                    end_secs: ck_start,
                    cause: JobEventKind::Start,
                });
                if ck_start < end_secs {
                    self.spans.push(Span {
                        phase: SpanPhase::Checkpointing,
                        start_secs: ck_start,
                        end_secs,
                        cause: JobEventKind::Start,
                    });
                }
            }
        }
    }

    fn observe(&mut self, rec: &TransitionEvent, config: &SpanConfig) {
        let at = rec.at_secs;
        match rec.event {
            JobEventKind::Submit => {
                // The timeline anchor: compilation/provisioning starts at
                // submission. Only meaningful as the first record.
                if self.open.is_none() && self.spans.is_empty() {
                    self.open = Some(OpenSpan::Simple {
                        phase: SpanPhase::Compiling,
                        start_secs: at,
                        cause: JobEventKind::Submit,
                    });
                }
            }
            JobEventKind::Enqueue => {
                self.close_open(at, config);
                self.open = Some(OpenSpan::Simple {
                    phase: SpanPhase::Queued,
                    start_secs: at,
                    cause: JobEventKind::Enqueue,
                });
            }
            JobEventKind::Start => {
                self.close_open(at, config);
                self.spans.push(Span {
                    phase: SpanPhase::Scheduled,
                    start_secs: at,
                    end_secs: at,
                    cause: JobEventKind::Start,
                });
                self.open = Some(OpenSpan::RunningInterval {
                    start_secs: at,
                    resumed: self.interruptions > 0,
                });
            }
            JobEventKind::Preempt => {
                self.close_open(at, config);
                self.interruptions += 1;
                self.open = Some(OpenSpan::Simple {
                    phase: SpanPhase::Preempted,
                    start_secs: at,
                    cause: JobEventKind::Preempt,
                });
            }
            JobEventKind::Interrupt => {
                self.close_open(at, config);
                self.interruptions += 1;
                self.open = Some(OpenSpan::Simple {
                    phase: SpanPhase::Recovering,
                    start_secs: at,
                    cause: JobEventKind::Interrupt,
                });
            }
            JobEventKind::Reject
            | JobEventKind::Complete
            | JobEventKind::Fail
            | JobEventKind::Cancel => {
                self.close_open(at, config);
                // Terminal states absorb: the timeline has its last span,
                // so hold it in exactly the room it needs.
                self.spans.shrink_to_fit();
            }
        }
    }

    /// [`JobTimeline::spans_at`], lending a timeline with nothing open
    /// instead of copying it.
    fn finalized(&self, horizon_secs: f64, config: &SpanConfig) -> Cow<'_, [Span]> {
        let Some(open) = self.open else {
            return Cow::Borrowed(&self.spans);
        };
        let mut snap = self.clone();
        snap.close_open(horizon_secs.max(open.start_secs()), config);
        Cow::Owned(snap.spans)
    }

    /// The finalized spans as of `horizon_secs`: closed spans plus the
    /// open one virtually closed at `max(horizon, its start)`. Pure —
    /// calling twice with the same horizon yields identical spans.
    pub fn spans_at(&self, horizon_secs: f64, config: &SpanConfig) -> Vec<Span> {
        self.finalized(horizon_secs, config).into_owned()
    }

    /// Interruptions (preemptions + faults) observed so far.
    pub fn interruptions(&self) -> u64 {
        self.interruptions
    }
}

/// Per-job span timelines folded from a lifecycle transition stream.
///
/// Timelines are indexed by the dense job id, as the platform's job arena
/// holds its slots: a transition finds its job's timeline in one load.
/// The book holds a slot for every id up to the highest it observed, and
/// the slots of ids it never observed stay empty.
#[derive(Debug, Clone)]
pub struct SpanBook {
    config: SpanConfig,
    /// Slot `i` is job `i`'s timeline; `None` until the job is observed.
    jobs: Vec<Option<JobTimeline>>,
    observed: u64,
    ignored: u64,
}

impl SpanBook {
    /// An empty book with the given fold parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `restore_secs >= 0` and the checkpoint overhead
    /// fraction lies in `[0, 1)`.
    pub fn new(config: SpanConfig) -> Self {
        assert!(
            config.restore_secs >= 0.0,
            "restore_secs must be nonnegative"
        );
        assert!(
            (0.0..1.0).contains(&config.checkpoint_overhead_fraction),
            "checkpoint overhead fraction must be in [0, 1)"
        );
        SpanBook {
            config,
            jobs: Vec::new(),
            observed: 0,
            ignored: 0,
        }
    }

    /// The fold parameters.
    pub fn config(&self) -> SpanConfig {
        self.config
    }

    /// Makes room for `additional` more job slots beyond those the book
    /// holds, so a caller that knows how many jobs will arrive (a loaded
    /// trace) sizes the dense table once instead of doubling it.
    pub fn reserve(&mut self, additional: usize) {
        self.jobs.reserve(additional);
    }

    /// Folds one applied transition into the owning job's timeline.
    /// Records that are not an edge of the workload transition matrix
    /// are counted in [`ignored`](Self::ignored) and change nothing.
    pub fn observe(&mut self, rec: TransitionEvent) {
        if !rec.is_legal() {
            self.ignored += 1;
            return;
        }
        self.observed += 1;
        let index = slot_of(rec.job);
        if index >= self.jobs.len() {
            self.jobs.resize_with(index + 1, || None);
        }
        self.jobs[index]
            .get_or_insert_with(JobTimeline::new)
            .observe(&rec, &self.config);
    }

    /// The job's timeline, if it was ever observed.
    fn get(&self, job: JobId) -> Option<&JobTimeline> {
        self.jobs.get(slot_of(job))?.as_ref()
    }

    /// The observed timelines with their ids, ascending.
    fn observed_timelines(&self) -> impl Iterator<Item = (JobId, &JobTimeline)> {
        self.jobs
            .iter()
            .enumerate()
            .filter_map(|(index, timeline)| {
                let timeline = timeline.as_ref()?;
                Some((JobId::from_value(index as u64), timeline))
            })
    }

    /// Legal transitions folded so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Records rejected because they name no transition-matrix edge.
    pub fn ignored(&self) -> u64 {
        self.ignored
    }

    /// Jobs with at least one folded transition, ascending by id.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        self.observed_timelines().map(|(id, _)| id)
    }

    /// One job's finalized spans as of `horizon_secs` (empty if the job
    /// was never observed).
    pub fn timeline(&self, job: JobId, horizon_secs: f64) -> Vec<Span> {
        self.get(job)
            .map(|t| t.spans_at(horizon_secs, &self.config))
            .unwrap_or_default()
    }

    /// All finalized timelines as of `horizon_secs`, ascending by job id.
    pub fn timelines(&self, horizon_secs: f64) -> Vec<(JobId, Vec<Span>)> {
        self.iter_timelines(horizon_secs)
            .map(|(id, spans)| (id, spans.into_owned()))
            .collect()
    }

    /// [`SpanBook::timelines`] without the copies: each job's finalized
    /// spans in turn, borrowed from the book unless the job has an open
    /// span to close at the horizon. What a fold over the whole book
    /// reads.
    pub fn iter_timelines(
        &self,
        horizon_secs: f64,
    ) -> impl Iterator<Item = (JobId, Cow<'_, [Span]>)> {
        self.observed_timelines()
            .map(move |(id, t)| (id, t.finalized(horizon_secs, &self.config)))
    }

    /// Byte-deterministic JSONL export of every finalized span, jobs
    /// ascending, spans in fold order:
    /// `{"job":N,"phase":"...","start_secs":T,"end_secs":T,"cause":"...","attribution":"..."}`.
    ///
    /// Reserved once, at `Span::LINE_BOUND` per span (an open span
    /// closes into at most three).
    pub fn to_jsonl(&self, horizon_secs: f64) -> String {
        let lines: usize = self
            .observed_timelines()
            .map(|(_, t)| t.spans.len() + if t.open.is_some() { 3 } else { 0 })
            .sum();
        let mut out = String::with_capacity(lines * Span::LINE_BOUND);
        for (id, spans) in self.iter_timelines(horizon_secs) {
            for span in spans.iter() {
                span.write_json(&mut out, id);
                out.push('\n');
            }
        }
        out
    }

    /// Reconstructs a book from a transition stream exported by the core
    /// engine's `transition_log_jsonl` (one [`TransitionEvent`] per line).
    /// Blank lines are skipped; a malformed line, or one stamped at a
    /// non-finite time, is an error naming its 1-based number. The book
    /// is dense in job ids, as the platform mints them: a stream that
    /// names job `n` holds `n + 1` slots.
    pub fn from_transitions_jsonl(text: &str, config: SpanConfig) -> Result<SpanBook, String> {
        let mut book = SpanBook::new(config);
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = TransitionEvent::from_text(line).ok();
            let rec = rec
                .filter(|r| r.at_secs.is_finite())
                .ok_or_else(|| format!("transition line {}: malformed record: {line}", i + 1))?;
            book.observe(rec);
        }
        Ok(book)
    }
}

/// The book slot of `job`: its id value. An id past what `usize` holds
/// maps past every slot, so reading it finds nothing.
fn slot_of(job: JobId) -> usize {
    usize::try_from(job.value()).unwrap_or(usize::MAX)
}

/// Machine-checks the span conservation law for every job in the book:
/// spans are contiguous (each span starts bitwise where the previous one
/// ended — hence non-overlapping and gap-free), durations are
/// nonnegative, and their sum partitions the job's makespan **exactly**
/// under dyadic-rational arithmetic (no float drift tolerated).
pub fn span_conservation(book: &SpanBook, horizon_secs: f64) -> Result<(), String> {
    for (id, spans) in book.iter_timelines(horizon_secs) {
        let Some(first) = spans.first() else {
            continue;
        };
        let last = spans.last().expect("non-empty");
        let mut sum = Dyadic::ZERO;
        let mut prev_end = first.start_secs;
        for (i, span) in spans.iter().enumerate() {
            if span.start_secs.to_bits() != prev_end.to_bits() {
                return Err(format!(
                    "job {}: span {i} ({}) starts at {} but the previous span ended at {prev_end}",
                    id.value(),
                    span.phase,
                    span.start_secs
                ));
            }
            if span.end_secs < span.start_secs {
                return Err(format!(
                    "job {}: span {i} ({}) has negative duration",
                    id.value(),
                    span.phase
                ));
            }
            sum = sum + (Dyadic::from_f64(span.end_secs) - Dyadic::from_f64(span.start_secs));
            prev_end = span.end_secs;
        }
        let makespan = Dyadic::from_f64(last.end_secs) - Dyadic::from_f64(first.start_secs);
        if sum != makespan {
            return Err(format!(
                "job {}: span durations do not partition the makespan exactly",
                id.value()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, job: u64, from: JobState, to: JobState, event: JobEventKind) -> TransitionEvent {
        TransitionEvent {
            at_secs: at,
            job: JobId::from_value(job),
            from,
            to,
            event,
        }
    }

    fn feed(book: &mut SpanBook, recs: &[TransitionEvent]) {
        for &r in recs {
            book.observe(r);
        }
    }

    use JobEventKind as K;
    use JobState as S;

    fn happy_path(job: u64) -> Vec<TransitionEvent> {
        vec![
            ev(0.0, job, S::Submitted, S::Submitted, K::Submit),
            ev(30.0, job, S::Submitted, S::Queued, K::Enqueue),
            ev(100.0, job, S::Queued, S::Running, K::Start),
            ev(500.0, job, S::Running, S::Completed, K::Complete),
        ]
    }

    #[test]
    fn happy_path_phases_in_order() {
        let mut book = SpanBook::new(SpanConfig::plain());
        feed(&mut book, &happy_path(1));
        let spans = book.timeline(JobId::from_value(1), 500.0);
        let phases: Vec<SpanPhase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                SpanPhase::Compiling,
                SpanPhase::Queued,
                SpanPhase::Scheduled,
                SpanPhase::Running
            ]
        );
        assert_eq!(spans[0].start_secs, 0.0);
        assert_eq!(spans[0].end_secs, 30.0);
        assert_eq!(spans[2].duration_secs(), 0.0);
        assert_eq!(spans[3].end_secs, 500.0);
        span_conservation(&book, 500.0).unwrap();
    }

    #[test]
    fn checkpoint_overhead_carved_from_running() {
        let config = SpanConfig {
            restore_secs: 0.0,
            checkpoint_overhead_fraction: 0.25,
        };
        let mut book = SpanBook::new(config);
        feed(&mut book, &happy_path(1));
        let spans = book.timeline(JobId::from_value(1), 500.0);
        let running = spans
            .iter()
            .find(|s| s.phase == SpanPhase::Running)
            .unwrap();
        let ck = spans
            .iter()
            .find(|s| s.phase == SpanPhase::Checkpointing)
            .unwrap();
        // 400 s of wall running, a quarter of it checkpoint writes.
        assert!((ck.duration_secs() - 100.0).abs() < 1e-9);
        assert!((running.duration_secs() - 300.0).abs() < 1e-9);
        assert_eq!(running.end_secs.to_bits(), ck.start_secs.to_bits());
        assert_eq!(ck.end_secs, 500.0);
        span_conservation(&book, 500.0).unwrap();
    }

    #[test]
    fn resume_carves_restoring_and_preempt_gap_is_preempted() {
        let config = SpanConfig {
            restore_secs: 60.0,
            checkpoint_overhead_fraction: 0.0,
        };
        let mut book = SpanBook::new(config);
        feed(
            &mut book,
            &[
                ev(0.0, 7, S::Submitted, S::Submitted, K::Submit),
                ev(10.0, 7, S::Submitted, S::Queued, K::Enqueue),
                ev(20.0, 7, S::Queued, S::Running, K::Start),
                ev(200.0, 7, S::Running, S::Preempted, K::Preempt),
                ev(200.0, 7, S::Preempted, S::Queued, K::Enqueue),
                ev(300.0, 7, S::Queued, S::Running, K::Start),
                ev(900.0, 7, S::Running, S::Completed, K::Complete),
            ],
        );
        let spans = book.timeline(JobId::from_value(7), 900.0);
        let phases: Vec<SpanPhase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(
            phases,
            vec![
                SpanPhase::Compiling,
                SpanPhase::Queued,
                SpanPhase::Scheduled,
                SpanPhase::Running,   // first run: not resumed, no restore
                SpanPhase::Preempted, // zero-width: re-queued instantly
                SpanPhase::Queued,
                SpanPhase::Scheduled,
                SpanPhase::Restoring, // second run resumed: 60 s restore
                SpanPhase::Running,
            ]
        );
        assert_eq!(spans[4].duration_secs(), 0.0);
        let restoring = &spans[7];
        assert_eq!(restoring.start_secs, 300.0);
        assert_eq!(restoring.end_secs, 360.0);
        span_conservation(&book, 900.0).unwrap();
    }

    #[test]
    fn fault_opens_recovering() {
        let mut book = SpanBook::new(SpanConfig::plain());
        feed(
            &mut book,
            &[
                ev(0.0, 3, S::Submitted, S::Submitted, K::Submit),
                ev(0.0, 3, S::Submitted, S::Queued, K::Enqueue),
                ev(5.0, 3, S::Queued, S::Running, K::Start),
                ev(50.0, 3, S::Running, S::Preempted, K::Interrupt),
            ],
        );
        // Still recovering at the horizon: the open span closes there.
        let spans = book.timeline(JobId::from_value(3), 80.0);
        let rec = spans.last().unwrap();
        assert_eq!(rec.phase, SpanPhase::Recovering);
        assert_eq!(rec.start_secs, 50.0);
        assert_eq!(rec.end_secs, 80.0);
        assert_eq!(rec.attribution(), "node failure recovery");
        span_conservation(&book, 80.0).unwrap();
    }

    #[test]
    fn illegal_records_are_ignored() {
        let mut book = SpanBook::new(SpanConfig::plain());
        // Not a matrix edge: Completed never starts.
        book.observe(ev(5.0, 9, S::Completed, S::Running, K::Start));
        // Legal kind, wrong endpoints: also ignored.
        book.observe(ev(6.0, 9, S::Queued, S::Queued, K::Start));
        assert_eq!(book.ignored(), 2);
        assert_eq!(book.observed(), 0);
        assert!(book.timeline(JobId::from_value(9), 10.0).is_empty());
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let config = SpanConfig {
            restore_secs: 60.0,
            checkpoint_overhead_fraction: 15.0 / 615.0,
        };
        let mut book = SpanBook::new(config);
        feed(&mut book, &happy_path(1));
        feed(
            &mut book,
            &[
                ev(1.5, 2, S::Submitted, S::Submitted, K::Submit),
                ev(2.25, 2, S::Submitted, S::Queued, K::Enqueue),
                ev(7.125, 2, S::Queued, S::Running, K::Start),
                ev(100.0, 2, S::Running, S::Preempted, K::Preempt),
                ev(100.0, 2, S::Preempted, S::Queued, K::Enqueue),
            ],
        );
        // Export the transition stream the way the core engine does...
        let mut stream = String::new();
        for recs in [happy_path(1)] {
            for r in recs {
                stream.push_str(&format!(
                    "{{\"at_secs\":{},\"job\":{},\"from\":\"{}\",\"to\":\"{}\",\"event\":\"{}\"}}\n",
                    r.at_secs,
                    r.job.value(),
                    r.from,
                    r.to,
                    r.event
                ));
            }
        }
        for r in [
            ev(1.5, 2, S::Submitted, S::Submitted, K::Submit),
            ev(2.25, 2, S::Submitted, S::Queued, K::Enqueue),
            ev(7.125, 2, S::Queued, S::Running, K::Start),
            ev(100.0, 2, S::Running, S::Preempted, K::Preempt),
            ev(100.0, 2, S::Preempted, S::Queued, K::Enqueue),
        ] {
            stream.push_str(&format!(
                "{{\"at_secs\":{},\"job\":{},\"from\":\"{}\",\"to\":\"{}\",\"event\":\"{}\"}}\n",
                r.at_secs,
                r.job.value(),
                r.from,
                r.to,
                r.event
            ));
        }
        // ...and reconstruct: timelines must match byte for byte.
        let rebuilt = SpanBook::from_transitions_jsonl(&stream, config).unwrap();
        assert_eq!(rebuilt.observed(), book.observed());
        assert_eq!(book.to_jsonl(512.0), rebuilt.to_jsonl(512.0));
        assert!(book.to_jsonl(512.0).contains("\"phase\":\"Checkpointing\""));
    }

    #[test]
    fn malformed_jsonl_is_an_error() {
        let bad =
            "{\"at_secs\":1,\"job\":2,\"from\":\"Nope\",\"to\":\"Queued\",\"event\":\"enqueue\"}\n";
        // Unknown state name -> parse failure naming the line, not a
        // silent skip.
        let err = SpanBook::from_transitions_jsonl(bad, SpanConfig::plain()).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn horizon_before_last_event_never_truncates_closed_spans() {
        let mut book = SpanBook::new(SpanConfig::plain());
        feed(&mut book, &happy_path(1));
        // Open spans close at max(horizon, start); closed spans are kept
        // as folded even when the horizon precedes them.
        let spans = book.timeline(JobId::from_value(1), 0.0);
        assert_eq!(spans.last().unwrap().end_secs, 500.0);
    }

    /// The widest line each writer can produce: ids at `u64::MAX`, the
    /// longest names, floats 24 bytes wide.
    #[test]
    fn a_line_never_outgrows_its_bound() {
        let wide = 1.2345678901234567e-6;
        assert_eq!(wide.to_string().len(), 24);
        let mut widest = 0;
        for from in S::ALL {
            for event in K::ALL {
                let mut line = String::new();
                ev(wide, u64::MAX, from, from, event).write_json(&mut line);
                line.push('\n');
                assert!(line.len() <= TransitionEvent::LINE_BOUND, "{line}");
                widest = widest.max(line.len());
            }
        }
        assert_eq!(widest, 120);
        let mut widest = 0;
        for phase in SpanPhase::ALL {
            for cause in K::ALL {
                let span = Span {
                    phase,
                    start_secs: wide,
                    end_secs: wide,
                    cause,
                };
                let mut line = String::new();
                span.write_json(&mut line, JobId::from_value(u64::MAX));
                line.push('\n');
                assert!(line.len() <= Span::LINE_BOUND, "{line}");
                widest = widest.max(line.len());
            }
        }
        assert_eq!(widest, 201);
    }

    /// Jobs 9, 0 and 5, observed interleaved and out of order, come back
    /// ascending, each exactly as a book of its own folds it.
    #[test]
    fn ids_with_holes_come_back_ascending() {
        let config = SpanConfig {
            restore_secs: 30.0,
            checkpoint_overhead_fraction: 0.125,
        };
        let mut book = SpanBook::new(config);
        let mut alone = [0, 5, 9].map(|_| SpanBook::new(config));
        let [nine, zero, five] = [9, 0, 5].map(happy_path);
        for step in 0..4 {
            for (slot, records) in [(2, &nine), (0, &zero), (1, &five)] {
                // Job 5 stops running short of its completion.
                if records[step].job.value() == 5 && step == 3 {
                    continue;
                }
                book.observe(records[step]);
                alone[slot].observe(records[step]);
            }
        }
        let ids: Vec<u64> = book.jobs().map(JobId::value).collect();
        assert_eq!(ids, [0, 5, 9]);
        let walked: Vec<u64> = book
            .iter_timelines(700.0)
            .map(|(id, _)| id.value())
            .collect();
        assert_eq!(walked, [0, 5, 9]);
        let one_by_one: String = alone.iter().map(|b| b.to_jsonl(700.0)).collect();
        assert_eq!(book.to_jsonl(700.0), one_by_one);
        // Compiling, Queued, Scheduled, Running, Checkpointing each; job
        // 5's open run closes at the horizon.
        assert_eq!(book.to_jsonl(700.0).lines().count(), 3 * 5);
        for hole in [1, 4, 6, 8, 10] {
            assert!(book.timeline(JobId::from_value(hole), 700.0).is_empty());
        }
    }

    /// Reading an id past the end — the largest there is — answers empty
    /// and leaves the book as it was.
    #[test]
    fn an_id_past_the_end_reads_empty_and_grows_nothing() {
        let mut book = SpanBook::new(SpanConfig::plain());
        feed(&mut book, &happy_path(2));
        let slots = book.jobs.len();
        assert!(book.timeline(JobId::from_value(u64::MAX), 600.0).is_empty());
        assert!(book.timeline(JobId::from_value(3), 600.0).is_empty());
        assert_eq!(book.jobs.len(), slots);
        assert_eq!(book.jobs().count(), 1);
    }

    #[test]
    fn a_settled_timeline_is_lent_and_held_exactly() {
        let mut book = SpanBook::new(SpanConfig::plain());
        feed(&mut book, &happy_path(1));
        feed(&mut book, &happy_path(2)[..3]);
        let lent: Vec<bool> = book
            .iter_timelines(600.0)
            .map(|(_, spans)| matches!(spans, Cow::Borrowed(_)))
            .collect();
        // Job 1 is terminal: nothing open, nothing copied. Job 2 is still
        // running: its open interval is closed into a copy.
        assert_eq!(lent, vec![true, false]);
        let owned: Vec<_> = book
            .iter_timelines(600.0)
            .map(|(id, s)| (id, s.into_owned()))
            .collect();
        assert_eq!(book.timelines(600.0), owned);
        let done = book.get(JobId::from_value(1)).expect("observed");
        assert_eq!(done.spans.capacity(), done.spans.len());
    }
}
