//! Operational telemetry for the execution layer.
//!
//! [`ExecModel`](crate::ExecModel) is a `Copy` value type, so metric
//! handles live in this separate observer: the platform holds one and
//! notifies it as plans are produced and faults arrive.

use tacc_obs::{Counter, Histogram, MetricsRegistry};

use crate::model::ExecutionPlan;

/// Handles into a [`MetricsRegistry`] for the `tacc_exec_*` series.
#[derive(Debug)]
pub struct ExecTelemetry {
    plans: Counter,
    faults: Counter,
    failovers: Counter,
    plan_slowdown: Histogram,
    comm_secs: Histogram,
}

impl ExecTelemetry {
    /// Registers the `tacc_exec_*` series in `registry` and returns the
    /// observer holding their handles.
    pub fn new(registry: &MetricsRegistry) -> Self {
        ExecTelemetry {
            plans: registry.counter("tacc_exec_plans_total", &[]),
            faults: registry.counter("tacc_exec_faults_total", &[]),
            failovers: registry.counter("tacc_exec_failovers_total", &[]),
            plan_slowdown: registry.histogram("tacc_exec_plan_slowdown", &[]),
            comm_secs: registry.histogram("tacc_exec_comm_seconds_per_iter", &[]),
        }
    }

    /// Records a produced execution plan (slowdown and per-iteration
    /// communication time distributions).
    pub fn note_plan(&self, plan: &ExecutionPlan) {
        self.plans.inc();
        self.plan_slowdown.observe(plan.slowdown);
        self.comm_secs.observe(plan.comm_secs);
    }

    /// Records a node fault that hit a running job.
    pub fn note_fault(&self) {
        self.faults.inc();
    }

    /// Records a successful fail-safe runtime switch (fault survived).
    pub fn note_failover(&self) {
        self.failovers.inc();
    }

    /// Node faults that hit a running job so far.
    pub fn faults(&self) -> u64 {
        self.faults.get()
    }

    /// Faults survived by a runtime switch so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
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
        t.note_fault();
        t.note_fault();
        t.note_failover();
        assert_eq!((t.faults(), t.failovers()), (2, 1));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("tacc_exec_plans_total"), Some(1));
        assert_eq!(snap.counter("tacc_exec_faults_total"), Some(2));
        assert_eq!(snap.counter("tacc_exec_failovers_total"), Some(1));
        let slow = snap
            .histogram("tacc_exec_plan_slowdown")
            .expect("histogram");
        assert_eq!(slow.count, 1);
        assert!((slow.sum - 1.3).abs() < 1e-12);
    }
}
