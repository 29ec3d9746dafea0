//! Operational telemetry for the execution layer.
//!
//! [`ExecModel`](crate::ExecModel) is a `Copy` value type, so its two
//! distributions live in this separate observer: the platform holds one
//! and notifies it as plans are produced. The three counters are not
//! kept here: the platform's event bus already counts placements,
//! failovers and failures, and the platform publishes them under the
//! names declared below at scrape time.

use tacc_obs::{Histogram, MetricsRegistry};

use crate::model::ExecutionPlan;

/// Counter: execution plans produced (one per placement).
pub const PLANS_METRIC: &str = "tacc_exec_plans_total";
/// Counter: node faults that hit a running job (failed over or failed).
pub const FAULTS_METRIC: &str = "tacc_exec_faults_total";
/// Counter: faults survived by a fail-safe runtime switch.
pub const FAILOVERS_METRIC: &str = "tacc_exec_failovers_total";

/// Handles into a [`MetricsRegistry`] for the `tacc_exec_*` histograms.
#[derive(Debug)]
pub struct ExecTelemetry {
    plan_slowdown: Histogram,
    comm_secs: Histogram,
}

impl ExecTelemetry {
    /// Registers the `tacc_exec_*` histograms in `registry` and returns
    /// the observer holding their handles.
    pub fn new(registry: &MetricsRegistry) -> Self {
        ExecTelemetry {
            plan_slowdown: registry.histogram("tacc_exec_plan_slowdown", &[]),
            comm_secs: registry.histogram("tacc_exec_comm_seconds_per_iter", &[]),
        }
    }

    /// Records a produced execution plan (slowdown and per-iteration
    /// communication time distributions).
    pub fn note_plan(&self, plan: &ExecutionPlan) {
        self.plan_slowdown.observe(plan.slowdown);
        self.comm_secs.observe(plan.comm_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::RuntimePreference;

    #[test]
    fn telemetry_updates_registry() {
        let registry = MetricsRegistry::new();
        let t = ExecTelemetry::new(&registry);
        t.note_plan(&ExecutionPlan {
            runtime: RuntimePreference::AllReduce,
            compute_secs: 0.1,
            comm_secs: 0.02,
            slowdown: 1.3,
            efficiency: 0.8,
        });
        let snap = registry.snapshot();
        let slow = snap
            .histogram("tacc_exec_plan_slowdown")
            .expect("histogram");
        assert_eq!(slow.count, 1);
        assert!((slow.sum - 1.3).abs() < 1e-12);
        let comm = snap.histogram("tacc_exec_comm_seconds_per_iter");
        assert_eq!(comm.map(|h| h.count), Some(1));
    }
}
