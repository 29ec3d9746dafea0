//! # tacc-obs
//!
//! Structured telemetry for the `tacc-rs` platform: the observability
//! substrate the operational sections of the paper lean on ("why is my
//! job not running", per-layer counters, scheduler decision latency).
//!
//! Three pillars:
//!
//! * **Typed event bus** ([`EventBus`], [`PlatformEvent`]): every job
//!   lifecycle transition (submitted, compiled, queued, placed,
//!   preempted, completed, ...) is recorded as a typed event stamped
//!   with simulated time and a monotonically increasing sequence
//!   number. The bus is a bounded ring — old records are dropped,
//!   never new ones lost silently — and the transition log is read off
//!   it ([`EventBus::transitions`]).
//! * **Operational metrics registry** ([`MetricsRegistry`]): counters,
//!   gauges and log-scale histograms keyed by name + labels, with a
//!   [`MetricsRegistry::snapshot`] API and Prometheus-style text
//!   exposition. Metric names follow the `tacc_<layer>_<name>`
//!   convention.
//! * **Span timelines and goodput** ([`SpanBook`], [`GoodputReport`]):
//!   the lifecycle transition stream folds into per-job span timelines
//!   whose durations partition each job's makespan exactly, and
//!   aggregates into the ML Productivity Goodput decomposition
//!   `availability × throughput_efficiency × (1 − badput)` with badput
//!   itemized by cause — both replayable byte-identically from an
//!   exported transition stream.
//!
//! ## Example
//!
//! ```
//! use tacc_obs::{EventBus, MetricsRegistry, PlatformEvent};
//! use tacc_workload::{GroupId, JobId};
//!
//! let mut bus = EventBus::new(1024);
//! bus.record(0.0, PlatformEvent::Submitted {
//!     job: JobId::from_value(1),
//!     group: GroupId::from_index(0),
//!     name: "train-llm".into(),
//! });
//! assert_eq!(bus.len(), 1);
//!
//! let reg = MetricsRegistry::new();
//! let jobs = reg.counter("tacc_core_jobs_submitted_total", &[]);
//! jobs.inc();
//! assert!(reg.expose().contains("tacc_core_jobs_submitted_total 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod events;
mod goodput;
mod metrics;
mod span;
mod trace;

pub use events::{
    conservation, ConservationCheck, EventBus, EventRecord, InstructionKind, PlatformEvent,
    RejectReason,
};
pub use goodput::{
    badput_cause_of, BadputBreakdown, BadputCause, GoodputReport, JobGoodputInput,
    DROPPED_EVENTS_METRIC, GOODPUT_AVAILABILITY_METRIC, GOODPUT_BADPUT_METRIC,
    GOODPUT_EFFICIENCY_METRIC, GOODPUT_RATIO_METRIC,
};
pub use metrics::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    ScrapedCounter, ScrapedGauge, ScrapedHistogram,
};
pub use span::{span_conservation, Span, SpanBook, SpanConfig, SpanPhase, TransitionEvent};
pub use trace::SkipReason;
