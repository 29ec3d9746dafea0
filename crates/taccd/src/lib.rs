//! # tacc-taccd
//!
//! The long-running service daemon (`taccd`): the front door that turns
//! the deterministic batch platform into the multi-tenant online
//! service the paper operates (DESIGN.md, "Service mode & write-ahead
//! journal").
//!
//! Three pieces, strictly layered:
//!
//! * [`journal`] — the single-writer write-ahead journal: checksummed
//!   frames of [`tacc_core::CommandRecord`]s, encoded into a batch
//!   buffer and committed with one write and one `fsync` per batch,
//!   recovered to the longest valid prefix after a crash, one record
//!   decoded and applied at a time;
//! * [`engine`] — two stages: one thread owning the
//!   [`tacc_core::Platform`] takes client messages in arrival order and
//!   applies them, a second makes each batch's frames durable and only
//!   then releases its replies (apply → journal → fsync → acknowledge),
//!   so the core below stays single-threaded and replayable;
//! * [`daemon`] — the Unix-socket edge: an accept loop and
//!   per-connection threads speaking checksummed JSON frames, the one
//!   place in the workspace where threads and channels are load-bearing
//!   (the concurrency lint family exempts exactly this crate).
//!
//! The invariant the whole design hangs on: **a restarted daemon
//! byte-reproduces the lifecycle engine's transition log from its
//! journal.** Commands are validated and stamped before they are
//! journalled; the platform is deterministic; therefore replaying the
//! journal's longest valid prefix reconstructs the exact pre-crash
//! state — CI kills the daemon with SIGKILL mid-load and `cmp`s the
//! transition JSONL to prove it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod engine;
pub mod journal;

pub use daemon::{Daemon, DaemonConfig, DaemonError};
pub use engine::{ClockMode, Engine, EngineConfig, EngineInitError, Msg, Query, Reply};
pub use journal::{Journal, JournalError, JournalStats, RecoveryReport};
