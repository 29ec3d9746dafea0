//! Accounting: group GPU-time accrual, utilization, interruption
//! amounts, core metric handles, event emission, and cluster gauges.
//!
//! Everything here is arithmetic over state the lifecycle engine
//! ([`crate::lifecycle`]) already validated — no `Job` state is written
//! in this module.

use tacc_obs::{Counter, Gauge, Histogram, MetricsRegistry, PlatformEvent};
use tacc_workload::JobEventKind;

use crate::platform::{ActiveRun, Platform};

/// Handles for the `tacc_core_*` and `tacc_cluster_*` metric series the
/// platform maintains itself (the other layers register their own).
#[derive(Debug)]
pub(crate) struct CoreMetrics {
    pub(crate) jobs_submitted: Counter,
    pub(crate) jobs_completed: Counter,
    pub(crate) jobs_failed: Counter,
    pub(crate) jobs_rejected: Counter,
    pub(crate) jobs_cancelled: Counter,
    pub(crate) submissions_refused: Counter,
    pub(crate) illegal_transitions: Counter,
    pub(crate) queue_delay: Histogram,
    pub(crate) free_gpus: Gauge,
    pub(crate) largest_free_block: Gauge,
    pub(crate) fragmentation: Gauge,
    pub(crate) alloc_failures: Counter,
    pub(crate) dropped_events: Counter,
    pub(crate) goodput_ratio: Gauge,
    pub(crate) goodput_availability: Gauge,
    pub(crate) goodput_efficiency: Gauge,
    pub(crate) goodput_badput: Gauge,
}

impl CoreMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        CoreMetrics {
            jobs_submitted: registry.counter("tacc_core_jobs_submitted_total", &[]),
            jobs_completed: registry.counter("tacc_core_jobs_completed_total", &[]),
            jobs_failed: registry.counter("tacc_core_jobs_failed_total", &[]),
            jobs_rejected: registry.counter("tacc_core_jobs_rejected_total", &[]),
            jobs_cancelled: registry.counter("tacc_core_jobs_cancelled_total", &[]),
            submissions_refused: registry.counter("tacc_core_submissions_refused_total", &[]),
            illegal_transitions: registry.counter("tacc_core_illegal_transitions_total", &[]),
            queue_delay: registry.histogram("tacc_core_queue_delay_seconds", &[]),
            free_gpus: registry.gauge("tacc_cluster_free_gpus", &[]),
            largest_free_block: registry.gauge("tacc_cluster_largest_free_block", &[]),
            fragmentation: registry.gauge("tacc_cluster_fragmentation", &[]),
            alloc_failures: registry.counter("tacc_cluster_alloc_failures_total", &[]),
            // Observability-layer series: names are declared next to the
            // obs code that owns their semantics (and linted there).
            dropped_events: registry.counter(tacc_obs::DROPPED_EVENTS_METRIC, &[]),
            goodput_ratio: registry.gauge(tacc_obs::GOODPUT_RATIO_METRIC, &[]),
            goodput_availability: registry.gauge(tacc_obs::GOODPUT_AVAILABILITY_METRIC, &[]),
            goodput_efficiency: registry.gauge(tacc_obs::GOODPUT_EFFICIENCY_METRIC, &[]),
            goodput_badput: registry.gauge(tacc_obs::GOODPUT_BADPUT_METRIC, &[]),
        }
    }

    /// Counts an applied lifecycle event in the job tally it moves. The
    /// lifecycle engine calls this where it records the transition, so
    /// each `tacc_core_jobs_*_total` is written in one place and the
    /// report reads the tallies back from here.
    pub(crate) fn tally(&self, event: JobEventKind) {
        match event {
            JobEventKind::Submit => self.jobs_submitted.inc(),
            JobEventKind::Complete => self.jobs_completed.inc(),
            JobEventKind::Fail => self.jobs_failed.inc(),
            JobEventKind::Reject => self.jobs_rejected.inc(),
            JobEventKind::Cancel => self.jobs_cancelled.inc(),
            JobEventKind::Enqueue
            | JobEventKind::Start
            | JobEventKind::Preempt
            | JobEventKind::Interrupt => {}
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

    /// Refreshes the `tacc_cluster_*` gauges from current cluster state.
    /// Fragmentation is the fraction of free GPUs outside the largest
    /// single free block — 0 when all free capacity is contiguous.
    pub(crate) fn refresh_cluster_gauges(&mut self) {
        let free = f64::from(self.cluster.free_gpus());
        let largest = f64::from(self.cluster.largest_free_block());
        self.metrics.free_gpus.set(free);
        self.metrics.largest_free_block.set(largest);
        let fragmentation = if free > 0.0 {
            1.0 - largest / free
        } else {
            0.0
        };
        self.metrics.fragmentation.set(fragmentation);
        let failures = self.cluster.alloc_failures();
        self.metrics
            .alloc_failures
            .inc_by(failures.saturating_sub(self.last_alloc_failures));
        self.last_alloc_failures = failures;
    }
}
