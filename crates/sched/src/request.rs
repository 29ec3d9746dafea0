//! Scheduler-facing task descriptions and scheduling outcomes.

use tacc_cluster::{LeaseId, NodeId, ResourceVec};
use tacc_workload::{GroupId, JobId, QosClass};

/// What the scheduling layer knows about a task awaiting placement.
///
/// Deliberately *not* the full [`tacc_workload::TaskSchema`]: the scheduler
/// sees the user's estimate, never the oracle service time — exactly the
/// information asymmetry real schedulers operate under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRequest {
    /// Job identifier.
    pub id: JobId,
    /// Owning group, for fair-share and quota accounting.
    pub group: GroupId,
    /// QoS class: guaranteed (quota) or best-effort (borrowed, preemptible).
    pub qos: QosClass,
    /// Gang size; all workers place atomically.
    pub workers: u32,
    /// Resources per worker, co-located on one node.
    pub per_worker: ResourceVec,
    /// User-estimated duration in seconds (noisy).
    pub est_secs: f64,
    /// Submission time in simulation seconds.
    pub submit_secs: f64,
    /// Whether the gang may be admitted shrunk (elastic admission).
    pub elastic: bool,
}

impl TaskRequest {
    /// Total GPUs across the gang.
    pub fn total_gpus(&self) -> u32 {
        self.per_worker.gpus * self.workers
    }

    /// Total resources across the gang.
    pub fn total_resources(&self) -> ResourceVec {
        let mut total = ResourceVec::ZERO;
        for _ in 0..self.workers {
            total += self.per_worker;
        }
        total
    }
}

/// Scheduler-side record of a running task.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningTask {
    /// The request **as granted** (elastic tasks may run with fewer
    /// workers than submitted).
    pub request: TaskRequest,
    /// The gang size originally requested (equals `request.workers` for
    /// inelastic tasks); restored on requeue after preemption.
    pub requested_workers: u32,
    /// The lease holding its resources: one share per node the gang
    /// landed on (see [`tacc_cluster::Lease::shares`]).
    pub lease_id: LeaseId,
    /// When it started (last resume), simulation seconds.
    pub start_secs: f64,
    /// Estimated completion (start + user estimate), used by backfill.
    pub est_end_secs: f64,
}

impl RunningTask {
    /// What the reservation sweep reads of the task.
    pub(crate) fn release(&self) -> crate::backfill::Release {
        (
            self.est_end_secs,
            self.request.id,
            self.request.total_gpus(),
        )
    }
}

/// A task the scheduler just started, with everything the execution layer
/// needs to model it.
#[derive(Debug, Clone, PartialEq)]
pub struct StartedTask {
    /// The request that was placed (with its original gang size).
    pub request: TaskRequest,
    /// Workers actually granted (< `request.workers` for a shrunken
    /// elastic start).
    pub granted_workers: u32,
    /// Node of each worker (workers on the same node repeat the id).
    pub worker_nodes: Vec<NodeId>,
    /// True if this start was a backfill (started ahead of blocked jobs).
    pub backfilled: bool,
}

/// One scheduling action, in the order the scheduler took them.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Decision {
    /// The task was placed and its lease committed.
    Start(StartedTask),
    /// A running best-effort task was evicted to reclaim quota; its lease
    /// has been released and the task re-queued inside the scheduler.
    Preempt {
        /// The evicted job.
        id: JobId,
        /// The group whose guaranteed demand triggered the reclaim.
        reclaimed_for: GroupId,
    },
}

/// Everything a call to [`crate::Scheduler::schedule`] did, **in the order
/// it happened**.
///
/// Order matters: a reclaim can preempt a best-effort task that was started
/// earlier in the same round, so consumers must process decisions
/// sequentially (the platform does).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedOutcome {
    /// The round's decisions in execution order.
    pub decisions: Vec<Decision>,
}

impl SchedOutcome {
    /// True when the round changed nothing.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The tasks started this round, in order.
    pub fn starts(&self) -> impl Iterator<Item = &StartedTask> {
        self.decisions.iter().filter_map(|d| match d {
            Decision::Start(s) => Some(s),
            _ => None,
        })
    }

    /// The preemptions this round, in order.
    pub fn preemptions(&self) -> impl Iterator<Item = (JobId, GroupId)> + '_ {
        self.decisions.iter().filter_map(|d| match d {
            Decision::Preempt { id, reclaimed_for } => Some((*id, *reclaimed_for)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(workers: u32, gpus: u32) -> TaskRequest {
        TaskRequest {
            id: JobId::from_value(1),
            group: GroupId::from_index(0),
            qos: QosClass::Guaranteed,
            workers,
            per_worker: ResourceVec::gpus_only(gpus),
            est_secs: 100.0,
            submit_secs: 0.0,
            elastic: false,
        }
    }

    #[test]
    fn totals_scale_with_workers() {
        let r = request(4, 8);
        assert_eq!(r.total_gpus(), 32);
        assert_eq!(r.total_resources().cpu_cores, 4 * 64);
    }

    #[test]
    fn outcome_emptiness() {
        let o = SchedOutcome::default();
        assert!(o.is_empty());
    }
}
