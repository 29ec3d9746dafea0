//! Fault handling: node failures hitting running jobs, runtime
//! failover, and checkpoint-restart accounting.
//!
//! A fault aimed at a run that already ended carries a stale token and
//! is dropped at the door; anything that slips past the guard and still
//! targets a non-`Running` job is rejected by the lifecycle engine as a
//! typed `IllegalTransition` rather than corrupting state.

use tacc_cluster::NodeId;
use tacc_obs::PlatformEvent;
use tacc_workload::{JobEvent, JobId};

use crate::admission::task_request;
use crate::platform::Platform;

impl Platform {
    /// Node faults that hit a running job, and those survived by a
    /// runtime switch, from the bus: each ends in exactly one
    /// `failed_over` or `failed` event.
    pub(crate) fn fault_counts(&self) -> (u64, u64) {
        let failovers = self.bus.kind_count("failed_over");
        (failovers + self.bus.kind_count("failed"), failovers)
    }

    /// Delivers a node fault to every job whose active run is placed on
    /// `node`, in job-id order (deterministic), as if each had received
    /// a DES `Fault` event now. Returns the jobs that were hit. This is
    /// the `Command::FaultNode` entry point — operator-injected faults
    /// and the failure injector share the same per-run handler below.
    pub(crate) fn fault_node(&mut self, node: NodeId) -> Vec<JobId> {
        let targets: Vec<(JobId, u64)> = self
            .scheduler
            .running()
            .filter(|task| task.worker_nodes.contains(&node))
            .map(|task| (task.request.id, self.current_token(task.request.id)))
            .collect();
        for &(id, token) in &targets {
            self.on_fault(id, token, node);
        }
        targets.into_iter().map(|(id, _)| id).collect()
    }

    pub(crate) fn on_fault(&mut self, id: JobId, token: u64, node: NodeId) {
        if self.jobs.get(id).map(|slot| slot.token) != Some(token) {
            return; // the run this fault targeted is already over
        }
        let now = self.clock.now().as_secs();
        let Some(run) = self.release_run(id, now) else {
            return;
        };
        self.scheduler.task_finished(id, &mut self.cluster);
        let (progress, lost) = self.interruption_amounts(&run, now);
        match self.failover.fallback_for(run.runtime) {
            Some(fallback) => {
                if let Some(slot) = self.jobs.get_mut(id) {
                    slot.runtime = fallback;
                }
                let _ = self.apply_lifecycle_event(
                    id,
                    JobEvent::Interrupt {
                        at_secs: now,
                        progress_secs: progress,
                        lost_secs: lost,
                    },
                );
                let _ = self.apply_lifecycle_event(id, JobEvent::Enqueue);
                let Some(request) = self.job_ref(id).map(task_request) else {
                    return;
                };
                self.scheduler.submit(request);
                self.emit(
                    now,
                    PlatformEvent::FailedOver {
                        job: id,
                        node: node.to_string(),
                        fallback,
                    },
                );
            }
            None => {
                let _ = self.apply_lifecycle_event(
                    id,
                    JobEvent::Fail {
                        at_secs: now,
                        progress_secs: progress,
                    },
                );
                // Everything a failed job ever consumed is waste: service
                // it completed (now useless) plus all interruption losses.
                let waste = match self.job_ref(id) {
                    Some(job) => {
                        let consumed =
                            (job.service_secs() - job.remaining_secs()) + job.wasted_secs();
                        f64::from(job.schema().total_gpus()) * consumed
                    }
                    None => 0.0,
                };
                self.failed_waste_gpu_secs += waste;
                self.emit(
                    now,
                    PlatformEvent::Failed {
                        job: id,
                        node: node.to_string(),
                    },
                );
            }
        }
        self.run_round();
    }
}
