//! # tacc-metrics
//!
//! Statistics substrate for the `tacc-rs` workspace.
//!
//! Every experiment in the reproduction reports one of a small set of
//! statistical artifacts: summary statistics over a sample (mean / median /
//! p95 job completion time), empirical CDFs and histograms (trace
//! characterization), time-weighted utilization series (cluster occupancy
//! over a simulated month), and fairness indices (per-group service under
//! contention). This crate implements those artifacts once so that the
//! scheduler, executor and platform crates all report numbers computed the
//! same way.
//!
//! ## Example
//!
//! ```
//! use tacc_metrics::{Summary, percentile};
//!
//! let jct: Vec<f64> = vec![10.0, 20.0, 30.0, 40.0, 100.0];
//! let s = Summary::from_samples(&jct);
//! assert_eq!(s.count(), 5);
//! assert!((s.mean() - 40.0).abs() < 1e-9);
//! assert_eq!(percentile(&jct, 50.0), 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod fairness;
mod stats;
mod table;
mod timeseries;

pub use cdf::{Cdf, Histogram, HistogramBucket};
pub use fairness::jain_index;
pub use stats::{percentile, Summary};
pub use table::{Cell, Table};
pub use timeseries::UtilizationTracker;
