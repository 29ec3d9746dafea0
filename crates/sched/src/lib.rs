//! # tacc-sched
//!
//! Layer 3 of the TACC workflow abstraction — the **scheduling layer**.
//!
//! The paper uses Slurm as the backbone of this layer and lists the policy
//! machinery it relies on: "fair-share scheduling, gang scheduling
//! (time-slicing jobs), backfill scheduling, user quota management, and
//! task preemption", with priorities per user or group. This crate
//! implements that policy suite from scratch against the
//! [`tacc_cluster::Cluster`] substrate:
//!
//! * **Ordering policies** ([`PolicyKind`]): FIFO, shortest-job-first (on
//!   the user's noisy estimate), fair-share (instantaneous usage over
//!   quota) and DRF (dominant resource fairness).
//! * **Placement strategies** ([`PlacementStrategy`]): packing (best-fit,
//!   minimizes fragmentation), spreading (worst-fit, minimizes
//!   interference) and topology-aware (minimizes racks spanned by a gang) —
//!   compared in experiment T2.
//! * **Gang scheduling**: multi-worker tasks place all-or-nothing.
//! * **Backfill** ([`BackfillMode`]): EASY and conservative variants
//!   (experiment F4).
//! * **Quota management with borrowing** ([`QuotaMode`]): per-group GPU
//!   quotas, best-effort jobs borrowing idle capacity, and
//!   reclaim-by-preemption when owners return (experiments F2/F5).
//!
//! The scheduler is deliberately *mechanism over the cluster, not owner of
//! it*: the platform passes `&mut Cluster` into [`Scheduler::schedule`],
//! which commits allocations and returns [`Decision`]s for the platform to
//! act on.
//!
//! ## Example
//!
//! ```
//! use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
//! use tacc_sched::{Scheduler, SchedulerConfig, TaskRequest};
//! use tacc_workload::{GroupId, JobId, QosClass};
//!
//! let mut cluster = Cluster::new(ClusterSpec::uniform(1, 2, GpuModel::A100, 8));
//! let mut sched = Scheduler::new(SchedulerConfig::default());
//! sched.submit(TaskRequest {
//!     id: JobId::from_value(1),
//!     group: GroupId::from_index(0),
//!     qos: QosClass::Guaranteed,
//!     workers: 1,
//!     per_worker: ResourceVec::gpus_only(4),
//!     est_secs: 600.0,
//!     submit_secs: 0.0,
//!     elastic: false,
//! });
//! let outcome = sched.schedule(0.0, &mut cluster);
//! assert_eq!(outcome.starts().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backfill;
mod placement;
mod policy;
mod quota;
pub mod reference;
mod request;
mod scheduler;

pub use backfill::{BackfillMode, CapacityWindow};
pub use placement::{gang_ever_fits, PlacementStrategy, PlanStats, Planner};
pub use policy::PolicyKind;
pub use quota::{QuotaMode, QuotaTable};
pub use request::{Decision, RunningTask, SchedOutcome, StartedTask, TaskRequest};
pub use scheduler::{
    DebugRoundHook, Scheduler, SchedulerConfig, SlotStats, WorkCounterRow, WorkCounters,
};
// The `why` vocabulary, re-exported so scheduler callers need not depend
// on `tacc-obs` directly.
pub use tacc_obs::SkipReason;

// Schedulers run inside per-thread platforms in the parallel experiment
// runner; this guard keeps the scheduler state thread-portable.
const _: () = {
    const fn sendable<T: Send>() {}
    sendable::<Scheduler>();
    sendable::<SchedulerConfig>();
};
