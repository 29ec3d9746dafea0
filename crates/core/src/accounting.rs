//! Accounting: group GPU-time accrual, utilization, interruption
//! amounts, core metric handles and the scrape-time publish step, and
//! event emission.
//!
//! Everything here is arithmetic over state the lifecycle engine
//! ([`crate::lifecycle`]) already validated — no `Job` state is written
//! in this module.

use tacc_obs::{Counter, Histogram, MetricsRegistry, PlatformEvent};

use crate::platform::{ActiveRun, Platform};

/// Handles for the series the platform records as their events happen:
/// refused submissions (counted nowhere else) and the queue-delay
/// histogram. Every other `tacc_core_*`,
/// `tacc_cluster_*` and `tacc_obs_*` series is published at scrape time
/// ([`Platform::publish_metrics`]).
#[derive(Debug)]
pub(crate) struct CoreMetrics {
    pub(crate) submissions_refused: Counter,
    pub(crate) queue_delay: Histogram,
}

impl CoreMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        CoreMetrics {
            submissions_refused: registry.counter("tacc_core_submissions_refused_total", &[]),
            queue_delay: registry.histogram("tacc_core_queue_delay_seconds", &[]),
        }
    }
}

impl Platform {
    /// Accounts an interruption of a running job; returns `(progress,
    /// lost)` in service seconds. The arithmetic itself lives with the
    /// checkpoint policy in the execution layer
    /// (`CheckpointPolicy::interruption_amounts`).
    pub(crate) fn interruption_amounts(&self, run: &ActiveRun, now: f64) -> (f64, f64) {
        let elapsed = (now - run.start_secs).max(0.0);
        self.checkpoint
            .interruption_amounts(elapsed, run.resume_penalty, run.stretch)
    }

    /// Releases metrics/active-run state for a job leaving execution.
    /// Returns the run record, or `None` if the job was not running. The
    /// run token is *not* invalidated here — that happens at the
    /// lifecycle transition site when the leaving-`Running` event is
    /// applied.
    pub(crate) fn release_run(&mut self, id: tacc_workload::JobId, now: f64) -> Option<ActiveRun> {
        let slot = self.jobs.get_mut(id)?;
        let run = slot.active.take()?;
        let group = slot.job.schema().group.index();
        self.accrue_group_time(now);
        self.util.release(now, run.gpus);
        self.group_busy[group] -= run.gpus;
        Some(run)
    }

    pub(crate) fn accrue_group_time(&mut self, now: f64) {
        let dt = (now - self.group_last_update).max(0.0);
        if dt > 0.0 {
            for (acc, &busy) in self.group_gpu_secs.iter_mut().zip(&self.group_busy) {
                *acc += busy * dt;
            }
        }
        self.group_last_update = now;
    }

    /// Records `event` on the bus — the one store of a job's history, which
    /// `tcloud logs`, `events` and the transition log read. Debug builds
    /// check that `event` stands for exactly the transitions applied to its
    /// job since its previous emit, so the table and the call sites agree.
    pub(crate) fn emit(&mut self, at: f64, event: PlatformEvent) {
        #[cfg(debug_assertions)]
        {
            let job = event.job();
            let (applied, rest): (Vec<_>, _) = self.applied.drain(..).partition(|t| t.job == job);
            self.applied = rest;
            // With nothing applied, the job is still where it was.
            let state = self.job_ref(job).map(|j| j.state());
            let prior = applied.first().map(|t| t.from).or(state);
            let implied: Vec<_> = event.transitions(at, || prior).collect();
            assert_eq!(
                implied, applied,
                "`{event:?}` does not stand for what was applied"
            );
        }
        self.bus.record(at, event);
    }

    /// The platform's publish step, run by every scrape: each series
    /// whose count a layer already keeps is read from it here — the job
    /// tallies and illegal transitions from the bus's lifetime per-kind
    /// counts, the cluster series from the cluster, the four goodput
    /// gauges from [`Platform::goodput`], the bus's drops, the
    /// execution layer's plans, faults and failovers from the bus's
    /// placed / failed-over / failed counts, and the scheduler's and the
    /// compiler's own series. Fragmentation is the fraction of free GPUs
    /// outside the largest single free block — 0 when all free capacity
    /// is contiguous.
    pub(crate) fn publish_metrics(&self) {
        let registry = &self.registry;
        let counter = |series, total| registry.counter(series, &[]).catch_up(total);
        let kind = |kind| self.bus.kind_count(kind);
        counter("tacc_core_jobs_submitted_total", kind("submitted"));
        counter("tacc_core_jobs_completed_total", kind("completed"));
        counter("tacc_core_jobs_failed_total", kind("failed"));
        counter("tacc_core_jobs_rejected_total", kind("rejected"));
        counter("tacc_core_jobs_cancelled_total", kind("cancelled"));
        counter(
            "tacc_core_illegal_transitions_total",
            self.illegal_transitions(),
        );
        counter(
            "tacc_cluster_alloc_failures_total",
            self.cluster.alloc_failures(),
        );
        counter(tacc_obs::DROPPED_EVENTS_METRIC, self.bus.dropped());
        let (faults, failovers) = self.fault_counts();
        counter(tacc_exec::PLANS_METRIC, kind("placed"));
        counter(tacc_exec::FAULTS_METRIC, faults);
        counter(tacc_exec::FAILOVERS_METRIC, failovers);
        let free = f64::from(self.cluster.free_gpus());
        let largest = f64::from(self.cluster.largest_free_block());
        let gauge = |series, value| registry.gauge(series, &[]).set(value);
        gauge("tacc_cluster_free_gpus", free);
        gauge("tacc_cluster_largest_free_block", largest);
        gauge("tacc_cluster_fragmentation", self.cluster.fragmentation());
        // Observability-layer series: names are declared next to the obs
        // code that owns their semantics (and linted there).
        let goodput = self.goodput();
        gauge(tacc_obs::GOODPUT_RATIO_METRIC, goodput.goodput);
        gauge(tacc_obs::GOODPUT_AVAILABILITY_METRIC, goodput.availability);
        gauge(
            tacc_obs::GOODPUT_EFFICIENCY_METRIC,
            goodput.throughput_efficiency,
        );
        gauge(tacc_obs::GOODPUT_BADPUT_METRIC, goodput.badput_fraction);
        self.scheduler.publish_metrics(registry);
        self.compiler.publish_metrics(registry);
    }
}
