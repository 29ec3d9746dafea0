//! Observability surface: span timelines and the ML Productivity
//! Goodput decomposition, folded by `tacc-obs` from the lifecycle
//! engine's transition stream.
//!
//! Everything here is a read model over sim-time data the engine
//! already recorded, so timelines and goodput reports are deterministic
//! and replayable: reconstructing the span book from an exported
//! transition JSONL (`Platform::transition_log_jsonl`, read off the event
//! bus) yields byte-for-byte the same [`Platform::timelines_jsonl`]
//! output — provided the bounded bus never dropped a record
//! (`events().dropped()`); once it has, the export holds the transitions
//! of the bus's window only.

use tacc_obs::{GoodputReport, JobGoodputInput, Span, SpanBook};
use tacc_workload::JobId;

use crate::platform::Platform;

impl Platform {
    /// The folded span book (read-only).
    pub fn span_book(&self) -> &SpanBook {
        &self.spans
    }

    /// Horizon the open spans are virtually closed at: current sim time,
    /// matching [`Platform::report`]'s accounting horizon. Replay
    /// consumers rebuilding timelines from an exported transition stream
    /// must close at this same horizon to reproduce
    /// [`Platform::timelines_jsonl`] byte-for-byte.
    pub fn span_horizon(&self) -> f64 {
        self.clock.now().as_secs().max(1e-9)
    }

    /// One job's span timeline as of the current sim time (empty for
    /// unknown jobs).
    pub fn timeline(&self, job: JobId) -> Vec<Span> {
        self.spans.timeline(job, self.span_horizon())
    }

    /// Byte-deterministic JSONL of every job's spans as of the current
    /// sim time, jobs ascending.
    pub fn timelines_jsonl(&self) -> String {
        self.spans.to_jsonl(self.span_horizon())
    }

    /// A job's GPU weight and accumulated useful service seconds — the
    /// two quantities the span stream cannot carry. The weight is the
    /// *requested* gang size (elastic gangs running shrunken are charged
    /// at full weight; documented approximation), so CPU-only tasks
    /// weigh zero GPU-seconds.
    fn goodput_input(&self, id: JobId) -> Option<JobGoodputInput> {
        let job = self.job_ref(id)?;
        Some(JobGoodputInput {
            gpus: f64::from(job.schema().total_gpus()),
            useful_secs: (job.service_secs() - job.remaining_secs()).max(0.0),
        })
    }

    /// The ML Productivity Goodput decomposition as of the current sim
    /// time: `availability × throughput_efficiency × (1 − badput)` with
    /// badput itemized by cause.
    pub fn goodput(&self) -> GoodputReport {
        GoodputReport::compute(
            &self.spans,
            self.span_horizon(),
            f64::from(self.cluster.total_gpus()),
            |job| self.goodput_input(job),
        )
    }
}
