//! Typed platform events: the single source of truth for job lifecycle
//! telemetry. Job logs are *rendered* from these events (via `Display`)
//! and the transition log is *read* off them ([`EventBus::transitions`]),
//! so neither can drift from the structured record.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use tacc_json::Named;
use tacc_workload::{GroupId, JobEventKind, JobId, JobState, RuntimePreference};

use crate::TransitionEvent;

tacc_json::record! {
    /// Why the platform refused a job at admission time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RejectReason {
        /// The gang shape can never fit the cluster, even when empty.
        GangNeverFits,
        /// The request exceeds the owning group's quota and can never be
        /// admitted under the active quota mode.
        ExceedsGroupQuota,
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::GangNeverFits => f.write_str("gang can never fit this cluster"),
            RejectReason::ExceedsGroupQuota => f.write_str("request exceeds the group's quota"),
        }
    }
}

tacc_json::record! {
    /// The form an execution instruction takes — the compiler layer's
    /// vocabulary (`tacc_compiler` re-exports it), defined here because the
    /// `Compiled` event carries it and this crate sits below the compiler.
    ///
    /// The paper: "the output of this compiler layer could be as simple as a
    /// few lines of shell commands, or as complicated as a Docker image." Small
    /// CPU tasks compile to shell commands; anything with a GPU environment or
    /// large dependency closure becomes a container image.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum InstructionKind {
        /// A short shell script executed directly on the node.
        ShellCommands = "shell",
        /// A container image materialized from cached layers.
        ContainerImage = "container",
    }
}

impl fmt::Display for InstructionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

tacc_json::record! {
    #[json(external)]
    /// One lifecycle transition somewhere in the platform stack, written
    /// `{"Variant":{…}}`.
    ///
    /// `Display` renders the exact human-readable line that appears in the
    /// per-job log (`tcloud logs`), so events are the one source of truth.
    ///
    /// Plain data: a field drawn from a closed set carries the typed value,
    /// not its rendering, so the only heap memory an event owns is free text
    /// — a job's `name`, a faulted `node`. Reading one back is closed-world:
    /// a name no member renders is refused.
    #[derive(Debug, Clone, PartialEq)]
    pub enum PlatformEvent {
        /// Job accepted by the front door; compilation begins.
        Submitted {
            /// The job.
            job: JobId,
            /// Owning research group.
            group: GroupId,
            /// Human-readable job name: the schema's own, shared.
            name: Arc<str>,
        } = "submitted",
        /// The compiler produced a task instruction and staged its payload.
        Compiled {
            /// The job.
            job: JobId,
            /// Instruction form chosen by the compiler (rendered by `Display`).
            instruction: InstructionKind,
            /// Total payload size in MiB.
            payload_mb: f64,
            /// Bytes actually moved (cache misses) in MiB.
            transferred_mb: f64,
            /// Chunk-cache hits during provisioning.
            chunk_hits: u64,
            /// Chunk-cache misses during provisioning.
            chunk_misses: u64,
            /// Provisioning latency in simulated seconds.
            provisioning_secs: f64,
        } = "compiled",
        /// Admission control refused the job.
        Rejected {
            /// The job.
            job: JobId,
            /// Why it was refused.
            reason: RejectReason,
        } = "rejected",
        /// Job entered the scheduling queue.
        Queued {
            /// The job.
            job: JobId,
        } = "queued",
        /// The scheduler placed the job and it started running.
        Placed {
            /// The job.
            job: JobId,
            /// Number of nodes in the placement.
            nodes: u64,
            /// Runtime the executor chose (rendered by `Debug`).
            #[json(with = Named)]
            runtime: RuntimePreference,
            /// Executor slowdown factor versus ideal.
            slowdown: f64,
            /// Workers actually granted (elastic shrink may reduce this).
            granted_workers: u64,
            /// Workers originally requested.
            requested_workers: u64,
            /// True when the start came through a backfill window.
            backfilled: bool,
        } = "placed",
        /// The scheduler evicted the job to reclaim quota.
        Preempted {
            /// The job.
            job: JobId,
            /// Group whose guaranteed quota forced the reclaim.
            reclaimed_for: GroupId,
        } = "preempted",
        /// Job finished all its work.
        Completed {
            /// The job.
            job: JobId,
            /// Job completion time (submit to finish) in simulated seconds.
            jct_secs: f64,
        } = "completed",
        /// A node fault hit the job but a fallback runtime exists: requeue.
        FailedOver {
            /// The job.
            job: JobId,
            /// Faulted node (display form).
            node: String,
            /// Fallback runtime chosen (rendered by `Debug`).
            #[json(with = Named)]
            fallback: RuntimePreference,
        } = "failed_over",
        /// A node fault killed the job for good.
        Failed {
            /// The job.
            job: JobId,
            /// Faulted node (display form).
            node: String,
        } = "failed",
        /// The user cancelled the job.
        Cancelled {
            /// The job.
            job: JobId,
        } = "cancelled",
        /// The lifecycle engine rejected an event with no edge in the
        /// transition matrix (e.g. a stale-token fault arriving after
        /// completion). The job's state was left untouched.
        IllegalTransition {
            /// The job.
            job: JobId,
            /// The state the job was in — and, the event being rejected,
            /// stays in.
            from: JobState,
            /// The rejected lifecycle event kind.
            event: JobEventKind,
        } = "illegal_transition",
    }
}

impl PlatformEvent {
    /// The job this event concerns.
    pub fn job(&self) -> JobId {
        match self {
            PlatformEvent::Submitted { job, .. }
            | PlatformEvent::Compiled { job, .. }
            | PlatformEvent::Rejected { job, .. }
            | PlatformEvent::Queued { job }
            | PlatformEvent::Placed { job, .. }
            | PlatformEvent::Preempted { job, .. }
            | PlatformEvent::Completed { job, .. }
            | PlatformEvent::FailedOver { job, .. }
            | PlatformEvent::Failed { job, .. }
            | PlatformEvent::Cancelled { job }
            | PlatformEvent::IllegalTransition { job, .. } => *job,
        }
    }

    /// The lifecycle transitions this event, recorded at `at_secs`, stands
    /// for, in the order the engine applies them: at most two. Every kind
    /// fixes its from-state but `cancelled`, which asks `prior` for the
    /// state the job's previous record left it in and, given none, is
    /// left out rather than guessed.
    pub fn transitions(
        &self,
        at_secs: f64,
        prior: impl FnOnce() -> Option<JobState>,
    ) -> impl Iterator<Item = TransitionEvent> {
        use JobEventKind as K;
        use JobState as S;
        use PlatformEvent as E;
        let one = |edge| [Some(edge), None];
        let requeue = Some((S::Preempted, K::Enqueue, S::Queued));
        let edges = match self {
            E::Submitted { .. } => one((S::Submitted, K::Submit, S::Submitted)),
            E::Queued { .. } => one((S::Submitted, K::Enqueue, S::Queued)),
            E::Rejected { .. } => one((S::Submitted, K::Reject, S::Failed)),
            E::Placed { .. } => one((S::Queued, K::Start, S::Running)),
            E::Completed { .. } => one((S::Running, K::Complete, S::Completed)),
            E::Failed { .. } => one((S::Running, K::Fail, S::Failed)),
            E::Cancelled { .. } => [prior().map(|s| (s, K::Cancel, S::Cancelled)), None],
            E::Preempted { .. } => [Some((S::Running, K::Preempt, S::Preempted)), requeue],
            E::FailedOver { .. } => [Some((S::Running, K::Interrupt, S::Preempted)), requeue],
            E::Compiled { .. } | E::IllegalTransition { .. } => [None, None],
        };
        let (job, edges) = (self.job(), edges.into_iter().flatten());
        edges.map(move |(from, event, to)| TransitionEvent {
            at_secs,
            job,
            from,
            to,
            event,
        })
    }

    /// Bytes of free text the event carries (`name`, `node`); zero for
    /// every other variant, whose JSON line has a fixed upper bound.
    fn text_len(&self) -> usize {
        match self {
            PlatformEvent::Submitted { name, .. } => name.len(),
            PlatformEvent::FailedOver { node, .. } | PlatformEvent::Failed { node, .. } => {
                node.len()
            }
            _ => 0,
        }
    }
}

impl fmt::Display for PlatformEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformEvent::Submitted { .. } => f.write_str("submitted"),
            PlatformEvent::Compiled {
                instruction,
                payload_mb,
                transferred_mb,
                ..
            } => write!(
                f,
                "compiled: {instruction} instruction, {payload_mb:.0} MiB payload, \
                 {transferred_mb:.0} MiB transferred"
            ),
            PlatformEvent::Rejected { reason, .. } => write!(f, "rejected: {reason}"),
            PlatformEvent::Queued { .. } => f.write_str("queued"),
            PlatformEvent::Placed {
                nodes,
                runtime,
                slowdown,
                granted_workers,
                requested_workers,
                backfilled,
                ..
            } => {
                write!(
                    f,
                    "started on {nodes} node(s) via {runtime:?} runtime (slowdown {slowdown:.2})"
                )?;
                if granted_workers < requested_workers {
                    write!(
                        f,
                        " (elastic: {granted_workers}/{requested_workers} workers)"
                    )?;
                }
                if *backfilled {
                    f.write_str(" [backfill]")?;
                }
                Ok(())
            }
            PlatformEvent::Preempted { reclaimed_for, .. } => {
                write!(f, "preempted (quota reclaimed by {reclaimed_for})")
            }
            PlatformEvent::Completed { .. } => f.write_str("completed"),
            PlatformEvent::FailedOver { node, fallback, .. } => write!(
                f,
                "node {node} faulted; switching runtime to {fallback:?} and requeueing"
            ),
            PlatformEvent::Failed { node, .. } => {
                write!(f, "node {node} faulted; job failed")
            }
            PlatformEvent::Cancelled { .. } => f.write_str("cancelled by user"),
            PlatformEvent::IllegalTransition { from, event, .. } => {
                write!(f, "illegal transition rejected: {event} from state {from}")
            }
        }
    }
}

tacc_json::record! {
    /// A [`PlatformEvent`] as recorded on the bus: stamped with a sequence
    /// number and the simulated time of the transition.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EventRecord {
        /// Monotonically increasing sequence number (never reused, even
        /// after old records are dropped from the ring).
        pub seq: u64,
        /// Simulated time of the transition, seconds.
        pub at_secs: f64,
        /// The transition itself.
        pub event: PlatformEvent,
    }
}

/// Upper bound, in bytes, on one line of [`EventBus::to_jsonl`] not
/// counting its free text (`name`, `node`). The longest variant is
/// `Compiled`: 335 bytes with every id at `u64::MAX` and every float 24
/// bytes wide — 17 significant digits behind `0.00000`, the widest a
/// simulated time or size prints without leaving the range the platform
/// works in. (A float beyond that prints longer and the export grows
/// instead of fitting its reserve: slower, not wrong.)
/// `a_line_never_outgrows_its_bound` holds every variant to it.
const EVENT_LINE_BOUND: usize = 352;

/// `write_escaped`'s worst case per input byte: a control byte becomes
/// `\u00XX`.
const ESCAPED_BYTE_BOUND: usize = 6;

/// A bounded ring of [`EventRecord`]s with JSONL exports: the platform's
/// one store of job history.
///
/// When the ring is full the *oldest* record is dropped (and counted in
/// [`EventBus::dropped`]); recording never fails and never reorders.
/// Timestamps are clamped to be monotone non-decreasing in simulated
/// time, matching the discrete-event loop's processing order.
#[derive(Debug)]
pub struct EventBus {
    capacity: usize,
    ring: VecDeque<EventRecord>,
    next_seq: u64,
    last_at: f64,
    /// Lifetime tally per variant, indexed by `PlatformEvent::ordinal`.
    kind_counts: [u64; PlatformEvent::KINDS.len()],
}

impl EventBus {
    /// New bus retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        EventBus {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            next_seq: 0,
            last_at: 0.0,
            kind_counts: [0; PlatformEvent::KINDS.len()],
        }
    }

    /// Records `event` at simulated time `at` (seconds) and returns its
    /// sequence number. Non-monotone timestamps are clamped forward.
    pub fn record(&mut self, at: f64, event: PlatformEvent) -> u64 {
        let at = if at.is_finite() { at } else { self.last_at };
        let at = at.max(self.last_at);
        self.last_at = at;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.kind_counts[event.ordinal()] += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(EventRecord {
            seq,
            at_secs: at,
            event,
        });
        seq
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever recorded (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted from the ring to make room.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.ring.len() as u64
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &EventRecord> {
        self.ring.iter()
    }

    /// Retained records concerning `job`, oldest first.
    pub fn for_job(&self, job: JobId) -> Vec<EventRecord> {
        self.records()
            .filter(|r| r.event.job() == job)
            .cloned()
            .collect()
    }

    /// The applied lifecycle transitions the retained records stand for
    /// ([`PlatformEvent::transitions`]), oldest first: once the ring has
    /// dropped records, those of its window. A `cancelled` scans back for
    /// the state its job's nearest earlier record left it in.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionEvent> + '_ {
        let records = self.ring.iter();
        records.clone().enumerate().flat_map(move |(i, r)| {
            let (job, earlier) = (r.event.job(), records.clone().take(i));
            r.event.transitions(r.at_secs, move || {
                let mut mine = earlier.rev().filter(|p| p.event.job() == job);
                mine.find_map(|p| p.event.transitions(p.at_secs, || None).last())
                    .map(|t| t.to)
            })
        })
    }

    /// Lifetime count of events of `kind` (survives ring eviction).
    pub fn kind_count(&self, kind: &str) -> u64 {
        let ordinal = PlatformEvent::KINDS.iter().position(|k| *k == kind);
        ordinal.map_or(0, |i| self.kind_counts[i])
    }

    /// Serializes the retained records as JSON Lines (one record per
    /// line, oldest first).
    ///
    /// The writer streams straight into the output buffer and is
    /// byte-deterministic: the same bus contents always produce the same
    /// bytes. Floats print in Rust's shortest round-trip form.
    ///
    /// Reserved once: `EVENT_LINE_BOUND` per record plus its free text
    /// at the escaper's worst case, so the buffer never grows by doubling
    /// (capacity the lines do not reach is never touched, hence never
    /// resident).
    pub fn to_jsonl(&self) -> String {
        let text: usize = self.records().map(|r| r.event.text_len()).sum();
        let mut out =
            String::with_capacity(self.len() * EVENT_LINE_BOUND + text * ESCAPED_BYTE_BOUND);
        for r in self.records() {
            r.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a JSONL export back into records (blank lines skipped).
    ///
    /// # Errors
    ///
    /// The 1-based number of the first malformed line and what is wrong
    /// with it.
    pub fn parse_jsonl(text: &str) -> Result<Vec<EventRecord>, String> {
        text.lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .map(|(i, l)| {
                EventRecord::from_text(l).map_err(|e| format!("event line {}: {e}", i + 1))
            })
            .collect()
    }
}

/// Lifecycle conservation tally recounted purely from events: every
/// submitted job must end in exactly one terminal state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationCheck {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Jobs cancelled by the user.
    pub cancelled: u64,
}

impl ConservationCheck {
    /// True when `submitted = completed + failed + rejected + cancelled`.
    pub fn balanced(&self) -> bool {
        self.submitted == self.completed + self.failed + self.rejected + self.cancelled
    }
}

/// Recounts the lifecycle conservation invariant from `records` alone.
pub fn conservation(records: &[EventRecord]) -> ConservationCheck {
    let mut c = ConservationCheck {
        submitted: 0,
        completed: 0,
        failed: 0,
        rejected: 0,
        cancelled: 0,
    };
    for r in records {
        match r.event {
            PlatformEvent::Submitted { .. } => c.submitted += 1,
            PlatformEvent::Completed { .. } => c.completed += 1,
            PlatformEvent::Failed { .. } => c.failed += 1,
            PlatformEvent::Rejected { .. } => c.rejected += 1,
            PlatformEvent::Cancelled { .. } => c.cancelled += 1,
            _ => {}
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(n: u64) -> JobId {
        JobId::from_value(n)
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let mut bus = EventBus::new(3);
        for i in 0..5 {
            bus.record(i as f64, PlatformEvent::Queued { job: job(i) });
        }
        assert_eq!(bus.len(), 3);
        assert_eq!(bus.dropped(), 2);
        assert_eq!(bus.recorded(), 5);
        // Oldest retained record is seq 2; seq numbers never reused.
        assert_eq!(bus.records().next().map(|r| r.seq), Some(2));
        assert_eq!(bus.kind_count("queued"), 5);
    }

    #[test]
    fn records_stand_for_their_transitions() {
        use JobEventKind as K;
        use JobState as S;
        let mut bus = EventBus::new(8);
        let submitted = |n| PlatformEvent::Submitted {
            job: job(n),
            group: GroupId::from_index(0),
            name: Arc::default(),
        };
        bus.record(0.0, submitted(1));
        bus.record(1.0, submitted(2));
        bus.record(2.0, PlatformEvent::Queued { job: job(1) });
        bus.record(
            3.0,
            PlatformEvent::Preempted {
                job: job(1),
                reclaimed_for: GroupId::from_index(1),
            },
        );
        bus.record(4.0, PlatformEvent::Cancelled { job: job(2) });
        bus.record(5.0, PlatformEvent::Cancelled { job: job(1) });
        let edges: Vec<_> = bus
            .transitions()
            .map(|t| (t.at_secs, t.job.value(), t.from, t.event, t.to))
            .collect();
        assert_eq!(
            edges,
            [
                (0.0, 1, S::Submitted, K::Submit, S::Submitted),
                (1.0, 2, S::Submitted, K::Submit, S::Submitted),
                (2.0, 1, S::Submitted, K::Enqueue, S::Queued),
                (3.0, 1, S::Running, K::Preempt, S::Preempted),
                (3.0, 1, S::Preempted, K::Enqueue, S::Queued),
                (4.0, 2, S::Submitted, K::Cancel, S::Cancelled),
                (5.0, 1, S::Queued, K::Cancel, S::Cancelled),
            ]
        );
        // A cancel whose earlier records were evicted is left out.
        let mut bus = EventBus::new(1);
        bus.record(0.0, submitted(1));
        bus.record(1.0, PlatformEvent::Cancelled { job: job(1) });
        assert_eq!(bus.transitions().count(), 0);
    }

    #[test]
    fn timestamps_clamped_monotone() {
        let mut bus = EventBus::new(16);
        bus.record(5.0, PlatformEvent::Queued { job: job(1) });
        bus.record(3.0, PlatformEvent::Queued { job: job(2) });
        bus.record(f64::NAN, PlatformEvent::Queued { job: job(3) });
        bus.record(7.0, PlatformEvent::Queued { job: job(4) });
        let ts: Vec<f64> = bus.records().map(|r| r.at_secs).collect();
        assert_eq!(ts, vec![5.0, 5.0, 5.0, 7.0]);
    }

    #[test]
    fn for_job_filters() {
        let mut bus = EventBus::new(16);
        bus.record(0.0, PlatformEvent::Queued { job: job(1) });
        bus.record(1.0, PlatformEvent::Queued { job: job(2) });
        bus.record(
            2.0,
            PlatformEvent::Completed {
                job: job(1),
                jct_secs: 2.0,
            },
        );
        let evs = bus.for_job(job(1));
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|r| r.event.job() == job(1)));
    }

    #[test]
    fn display_matches_legacy_log_lines() {
        let e = PlatformEvent::Compiled {
            job: job(1),
            instruction: InstructionKind::ContainerImage,
            payload_mb: 512.0,
            transferred_mb: 128.4,
            chunk_hits: 3,
            chunk_misses: 1,
            provisioning_secs: 2.0,
        };
        assert_eq!(
            e.to_string(),
            "compiled: container instruction, 512 MiB payload, 128 MiB transferred"
        );
        let e = PlatformEvent::Placed {
            job: job(1),
            nodes: 2,
            runtime: RuntimePreference::AllReduce,
            slowdown: 1.07,
            granted_workers: 1,
            requested_workers: 2,
            backfilled: false,
        };
        assert_eq!(
            e.to_string(),
            "started on 2 node(s) via AllReduce runtime (slowdown 1.07) \
             (elastic: 1/2 workers)"
        );
        let e = PlatformEvent::Rejected {
            job: job(1),
            reason: RejectReason::GangNeverFits,
        };
        assert_eq!(e.to_string(), "rejected: gang can never fit this cluster");
        let e = PlatformEvent::Failed {
            job: job(1),
            node: "node3".into(),
        };
        assert_eq!(e.to_string(), "node node3 faulted; job failed");
        let e = PlatformEvent::IllegalTransition {
            job: job(1),
            from: JobState::Completed,
            event: JobEventKind::Fail,
        };
        assert_eq!(
            e.to_string(),
            "illegal transition rejected: fail from state completed"
        );
    }

    #[test]
    fn illegal_transition_jsonl_shape() {
        let mut bus = EventBus::new(4);
        bus.record(
            3.0,
            PlatformEvent::IllegalTransition {
                job: job(9),
                from: JobState::Completed,
                event: JobEventKind::Fail,
            },
        );
        assert_eq!(
            bus.to_jsonl(),
            "{\"seq\":0,\"at_secs\":3,\"event\":{\"IllegalTransition\":\
             {\"job\":9,\"from\":\"completed\",\"event\":\"fail\"}}}\n"
        );
        assert_eq!(bus.kind_count("illegal_transition"), 1);
    }

    #[test]
    fn conservation_balances() {
        let mut bus = EventBus::new(64);
        bus.record(
            0.0,
            PlatformEvent::Submitted {
                job: job(1),
                group: GroupId::from_index(0),
                name: "a".into(),
            },
        );
        bus.record(
            0.0,
            PlatformEvent::Submitted {
                job: job(2),
                group: GroupId::from_index(0),
                name: "b".into(),
            },
        );
        bus.record(
            1.0,
            PlatformEvent::Completed {
                job: job(1),
                jct_secs: 1.0,
            },
        );
        bus.record(2.0, PlatformEvent::Cancelled { job: job(2) });
        let records: Vec<EventRecord> = bus.records().cloned().collect();
        let c = conservation(&records);
        assert!(c.balanced(), "{c:?}");
        assert_eq!(c.submitted, 2);
        assert_eq!(c.completed, 1);
        assert_eq!(c.cancelled, 1);
    }

    #[test]
    fn jsonl_bytes_are_stable() {
        let mut bus = EventBus::new(8);
        bus.record(
            0.5,
            PlatformEvent::Submitted {
                job: job(7),
                group: GroupId::from_index(2),
                name: "train \"v2\"\n".into(),
            },
        );
        bus.record(1.5, PlatformEvent::Queued { job: job(7) });
        bus.record(
            2.25,
            PlatformEvent::Completed {
                job: job(7),
                jct_secs: 1.75,
            },
        );
        let text = bus.to_jsonl();
        let expected = concat!(
            "{\"seq\":0,\"at_secs\":0.5,\"event\":{\"Submitted\":{\"job\":7,\"group\":2,",
            "\"name\":\"train \\\"v2\\\"\\n\"}}}\n",
            "{\"seq\":1,\"at_secs\":1.5,\"event\":{\"Queued\":{\"job\":7}}}\n",
            "{\"seq\":2,\"at_secs\":2.25,\"event\":{\"Completed\":{\"job\":7,\"jct_secs\":1.75}}}\n",
        );
        assert_eq!(text, expected);
        // Byte determinism: the same contents always export identically.
        assert_eq!(text, bus.to_jsonl());
    }

    #[test]
    fn jsonl_round_trips() {
        let mut bus = EventBus::new(8);
        bus.record(
            0.5,
            PlatformEvent::Submitted {
                job: job(7),
                group: GroupId::from_index(2),
                name: "train".into(),
            },
        );
        bus.record(
            1.5,
            PlatformEvent::Preempted {
                job: job(7),
                reclaimed_for: GroupId::from_index(1),
            },
        );
        let text = bus.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        let parsed = EventBus::parse_jsonl(&text).expect("parses");
        let original: Vec<EventRecord> = bus.records().cloned().collect();
        assert_eq!(parsed, original);
        let err = EventBus::parse_jsonl("\n{\"seq\":0}\n").expect_err("no timestamp");
        assert!(err.starts_with("event line 2:"), "{err}");
    }

    /// The widest of everything: ids at `u64::MAX`, the longest member of
    /// each closed set, floats at 24 bytes, hostile free text.
    #[test]
    fn a_line_never_outgrows_its_bound() {
        let wide = 1.2345678901234567e-6;
        assert_eq!(wide.to_string().len(), 24);
        let job = job(u64::MAX);
        let group = GroupId::from_index(u32::MAX as usize);
        let hostile = "\u{1}\"\\".repeat(40);
        let every_variant = [
            PlatformEvent::Submitted {
                job,
                group,
                name: hostile.as_str().into(),
            },
            PlatformEvent::Compiled {
                job,
                instruction: InstructionKind::ContainerImage,
                payload_mb: wide,
                transferred_mb: wide,
                chunk_hits: u64::MAX,
                chunk_misses: u64::MAX,
                provisioning_secs: wide,
            },
            PlatformEvent::Rejected {
                job,
                reason: RejectReason::ExceedsGroupQuota,
            },
            PlatformEvent::Queued { job },
            PlatformEvent::Placed {
                job,
                nodes: u64::MAX,
                runtime: RuntimePreference::InNetworkAggregation,
                slowdown: wide,
                granted_workers: u64::MAX,
                requested_workers: u64::MAX,
                backfilled: false,
            },
            PlatformEvent::Preempted {
                job,
                reclaimed_for: group,
            },
            PlatformEvent::Completed {
                job,
                jct_secs: wide,
            },
            PlatformEvent::FailedOver {
                job,
                node: hostile.clone(),
                fallback: RuntimePreference::InNetworkAggregation,
            },
            PlatformEvent::Failed { job, node: hostile },
            PlatformEvent::Cancelled { job },
            PlatformEvent::IllegalTransition {
                job,
                from: JobState::Submitted,
                event: JobEventKind::Interrupt,
            },
        ];
        let mut widest_fixed = 0;
        for (ordinal, event) in every_variant.into_iter().enumerate() {
            assert_eq!(event.ordinal(), ordinal, "one of each, in order");
            let text = event.text_len();
            let allowance = EVENT_LINE_BOUND + text * ESCAPED_BYTE_BOUND;
            let mut line = String::new();
            EventRecord {
                seq: u64::MAX,
                at_secs: wide,
                event,
            }
            .write_json(&mut line);
            line.push('\n');
            assert!(
                line.len() <= allowance,
                "{} > {allowance}: {line}",
                line.len()
            );
            if text == 0 {
                widest_fixed = widest_fixed.max(line.len());
            }
        }
        assert_eq!(widest_fixed, 335);
    }
}
