//! # tacc-core
//!
//! The full-stack shared ML cluster platform — the paper's primary
//! contribution, assembled from the four workflow-abstraction layers:
//!
//! | Layer | Crate | Role here |
//! |---|---|---|
//! | Task schema | [`tacc_workload`] | submissions arrive as [`TaskSchema`]s |
//! | Compiler | [`tacc_compiler`] | provisioning latency + delta cache |
//! | Scheduling | [`tacc_sched`] | policies, quota, backfill, preemption |
//! | Execution | [`tacc_exec`] | runtime selection, comm model, failures |
//!
//! [`Platform`] drives all of this over the deterministic event engine in
//! [`tacc_sim`] against the modelled cluster in [`tacc_cluster`]: tasks are
//! submitted (from a [`Trace`] or interactively), compiled, queued, placed,
//! stretched by their execution plan, possibly preempted or failed over,
//! and finally accounted in a [`SimulationReport`] — the object every
//! experiment harness reads its numbers from.
//!
//! ## Example
//!
//! ```
//! use tacc_core::{Platform, PlatformConfig};
//! use tacc_workload::{GenParams, TraceGenerator};
//!
//! let mut platform = Platform::new(PlatformConfig::default());
//! let trace = TraceGenerator::new(GenParams::default(), 1).generate_days(0.25);
//! let report = platform.run_trace(&trace);
//! assert_eq!(report.submitted, trace.len());
//! assert!(report.completed > 0);
//! ```
//!
//! [`TaskSchema`]: tacc_workload::TaskSchema
//! [`Trace`]: tacc_workload::Trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod admission;
mod arena;
mod command;
mod config;
mod faults;
mod lifecycle;
mod observability;
mod platform;
mod report;
mod status;
pub mod wire;

pub use command::{command_stream, Command, CommandError, CommandOutcome, CommandRecord};
pub use config::PlatformConfig;
pub use lifecycle::LifecycleError;
pub use platform::Platform;
pub use report::{GroupReport, SimulationReport};
pub use status::{JobStatus, Query, QueryError};

// The parallel experiment runner (tacc-bench) replays platforms on worker
// threads; these guards fail the build if simulation state ever stops
// being thread-portable (e.g. by acquiring an `Rc` or a raw pointer).
const _: () = {
    const fn sendable<T: Send>() {}
    const fn shareable<T: Send + Sync>() {}
    sendable::<Platform>();
    shareable::<SimulationReport>();
    shareable::<PlatformConfig>();
};
