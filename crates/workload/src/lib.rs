//! # tacc-workload
//!
//! Layer 1 of the TACC workflow abstraction — the **task schema** — plus the
//! job model and the synthetic campus trace generator that substitutes for
//! the production traces the paper's evaluation draws on.
//!
//! The paper requires every task submitted to the platform to be described
//! by a *self-contained, unified task schema* covering resources and QoS,
//! code/dependencies/dataset, and runtime environment ([`TaskSchema`]).
//! Schemas have one JSON shape ([`TaskSchema::to_json`]), which is what makes
//! task execution reproducible across cluster instances.
//!
//! On top of the schema this crate defines:
//!
//! * [`Job`] — a submitted schema instance with its lifecycle state machine
//!   (pending → queued → running → completed/failed, with preemption loops);
//! * [`GroupId`] / [`GroupRoster`] — the research groups (tenants) sharing
//!   the cluster;
//! * [`TraceGenerator`] / [`Trace`] — a calibrated synthetic trace: diurnal
//!   Poisson arrivals, heavy-tailed log-normal durations, power-of-two GPU
//!   demands and skewed group activity, matching the published shape of
//!   shared-GPU-cluster traces.
//!
//! ## Example
//!
//! ```
//! use tacc_workload::{TraceGenerator, GenParams};
//!
//! let trace = TraceGenerator::new(GenParams::default(), 42).generate_days(1.0);
//! assert!(!trace.is_empty());
//! // Every record carries a full, self-contained task schema.
//! let rec = &trace.records()[0];
//! assert!(rec.schema.resources.gpus >= 1 || rec.schema.kind.is_cpu_only());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod group;
mod job;
mod schema;
mod trace;

pub use gen::{GenParams, TraceGenerator};
pub use group::{GroupId, GroupRoster};
pub use job::{IllegalTransition, Job, JobEvent, JobEventKind, JobId, JobState, TRANSITION_MATRIX};
pub use schema::{
    Dependencies, ModelProfile, QosClass, RuntimeEnv, RuntimePreference, TaskKind, TaskSchema,
    TaskSchemaBuilder,
};
pub use trace::{Trace, TraceRecord, TraceStats};

// Traces and rosters are shared by reference across the experiment
// runner's worker threads; this guard keeps them `Send + Sync`.
const _: () = {
    const fn shareable<T: Send + Sync>() {}
    shareable::<Trace>();
    shareable::<TaskSchema>();
    shareable::<GroupRoster>();
    shareable::<TraceGenerator>();
};
