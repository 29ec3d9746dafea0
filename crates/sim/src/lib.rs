//! # tacc-sim
//!
//! Deterministic discrete-event simulation engine underlying the `tacc-rs`
//! reproduction.
//!
//! The real TACC system runs on a physical campus GPU cluster; this workspace
//! substitutes a simulated cluster so that every experiment is reproducible
//! on a laptop. The engine here is deliberately minimal and deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time as typed wrappers over
//!   seconds, so wall-clock time can never leak into a simulation.
//! * [`EventQueue`] — a priority queue of timestamped events with a strict,
//!   documented tie-break (same-time events pop in scheduling order), so a
//!   given seed always produces the identical execution. One
//!   `BinaryHeap` ordered by `(time, scheduling sequence)`.
//! * [`Clock`] — a monotonic virtual clock advanced by the simulation driver.
//! * [`SeedStream`] and the [`dist`] module — reproducible random streams
//!   (built on [`DetRng`], a fully safe xoshiro256++ generator) and the
//!   distribution samplers used by the workload generator (exponential,
//!   log-normal, bounded Pareto, …), implemented here from first
//!   principles.
//!
//! ## Example: a tiny queueing simulation
//!
//! ```
//! use tacc_sim::{Clock, EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Arrive, Depart }
//!
//! let mut clock = Clock::new();
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, Ev::Arrive);
//! let mut served = 0;
//! while let Some((t, ev)) = q.pop() {
//!     clock.advance_to(t);
//!     match ev {
//!         Ev::Arrive => {
//!             q.schedule(t + SimDuration::from_secs(2.0), Ev::Depart);
//!         }
//!         Ev::Depart => served += 1,
//!     }
//! }
//! assert_eq!(served, 1);
//! assert_eq!(clock.now(), SimTime::from_secs(2.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
mod event;
mod prng;
mod rng;
mod time;

pub use event::EventQueue;
pub use prng::DetRng;
pub use rng::SeedStream;
pub use time::{Clock, SimDuration, SimTime};

// The deterministic PRNG and event queue are owned per-platform but move
// across threads with it; this guard keeps the engine thread-portable.
const _: () = {
    const fn sendable<T: Send>() {}
    sendable::<DetRng>();
    sendable::<SeedStream>();
    sendable::<Clock>();
    sendable::<EventQueue<u64>>();
};
