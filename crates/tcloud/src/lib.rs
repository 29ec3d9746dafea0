//! # tacc-tcloud
//!
//! The client layer of the reproduction: `tcloud`, the local CLI tool TACC
//! users drive the cluster with (paper §4).
//!
//! The paper highlights three properties, all modelled here:
//!
//! * **Serverless experience** — users submit tasks from anywhere and never
//!   maintain experiment environments: [`TcloudClient::submit`] takes a
//!   self-contained [`TaskSchema`] and returns a job handle immediately.
//! * **Distributed monitoring** — `tcloud` "can aggregate program status
//!   and output log files from all running nodes": `logs` merges the
//!   per-node event streams of a job into one ordered view, `get`
//!   retrieves its files from every node at once, and `cancel` stops it
//!   across every node it runs on.
//! * **Cross-platform portability / multi-cluster** — "a user can submit
//!   their tasks to different cluster instances of TACC by simply changing
//!   a line of configuration": clients hold a registry of named cluster
//!   profiles and switch with [`TcloudClient::use_profile`].
//!
//! There is one verb table ([`cli::USAGE`] lists it) and two endpoints:
//! [`cli::run`] parses a verb into a `Command` or a `Query`, sends it to
//! an [`Endpoint`] — the in-process [`TcloudClient`]
//! ([`TcloudClient::run_command`]) or a live `taccd` behind a
//! [`DaemonClient`] (the `tcloud` binary) — and renders the reply, so
//! `ps`, `why`, `timeline`, `goodput` and the rest print the same lines
//! wherever the cluster runs.
//!
//! ## Example
//!
//! ```
//! use tacc_core::PlatformConfig;
//! use tacc_tcloud::TcloudClient;
//! use tacc_workload::{GroupId, TaskSchema};
//!
//! let mut client = TcloudClient::with_profile("campus", PlatformConfig::default());
//! let schema = TaskSchema::builder("demo", GroupId::from_index(0))
//!     .build().expect("valid");
//! let job = client.submit(schema, 600.0).expect("submits");
//! client.wait(job).expect("job exists");
//! let logs = client.run_command(&["logs", "0"]).expect("job exists");
//! assert!(logs.lines.iter().any(|l| l.contains("completed")));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod client;
pub mod transport;

pub use cli::{CommandOutput, Endpoint};
pub use client::{TcloudClient, TcloudError};
pub use transport::{DaemonClient, RetryPolicy, TransportError};

// Re-exported so downstream code can name the schema type without another
// direct dependency.
pub use tacc_workload::TaskSchema;
