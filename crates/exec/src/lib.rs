//! # tacc-exec
//!
//! Layer 4 of the TACC workflow abstraction — the **execution layer**.
//!
//! The paper's execution layer "connects to the underlying runtime system
//! and provisions the user program", on hardware with RDMA interconnects, a
//! networked file system and in-network computation, and supports multiple
//! runtime systems simultaneously with fail-safe switching between them.
//! This crate models that layer analytically:
//!
//! * [`comm`] — iteration-time models for the distributed-training runtimes
//!   (ring / tree / hierarchical all-reduce and parameter server) over the
//!   cluster's bandwidth tiers. These produce the scaling curves of
//!   experiment F6 and the placement slowdowns of T2.
//! * [`ExecModel`] — turns a compiled task plus its placement into an
//!   [`ExecutionPlan`]: which runtime runs it, the per-iteration compute
//!   and communication times, and the end-to-end *slowdown factor* the
//!   platform stretches the job's service time by.
//! * [`CheckpointPolicy`] — periodic checkpointing: write overhead while
//!   running, bounded progress loss on preemption or failure (experiment
//!   F5).
//! * [`FailureInjector`] — deterministic per-node MTBF failure sampling,
//!   and the fail-safe runtime-switching behaviour of experiment F7.
//!
//! ## Example
//!
//! ```
//! use tacc_cluster::{Cluster, ClusterSpec, GpuModel, NodeId};
//! use tacc_exec::{comm, ExecConfig, ExecModel};
//! use tacc_workload::{ModelProfile, RuntimePreference};
//!
//! let cluster = Cluster::new(ClusterSpec::uniform(1, 2, GpuModel::A100, 8));
//! let model = ExecModel::new(ExecConfig::default());
//! // An 8-GPU single-node job communicates over NVLink: tiny slowdown.
//! let plan = model.plan_training(
//!     &cluster,
//!     RuntimePreference::AllReduce,
//!     &[NodeId::from_index(0)],
//!     8,
//!     GpuModel::A100,
//!     &ModelProfile::resnet50_like(),
//! );
//! assert!(plan.slowdown >= 1.0 && plan.slowdown < 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
pub mod comm;
mod failures;
mod model;
mod telemetry;

pub use checkpoint::CheckpointPolicy;
pub use failures::{FailoverPolicy, FailureInjector, RuntimeFault};
pub use model::{ExecConfig, ExecModel, ExecutionPlan};
pub use telemetry::{ExecTelemetry, FAILOVERS_METRIC, FAULTS_METRIC, PLANS_METRIC};
