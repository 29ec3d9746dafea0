//! A deliberately naive reference scheduler for differential testing.
//!
//! [`ReferenceScheduler`] reproduces the scheduling semantics of
//! [`Scheduler`](crate::Scheduler) the way the hot path looked *before*
//! the incremental-state optimizations: it re-sorts the queue from
//! scratch every round, clones the queue into a fresh snapshot, recounts
//! per-group usage on demand, removes queue entries by linear scan, and
//! plans placements through [`Planner::plan_ungated`] — no O(1) capacity
//! gates anywhere.
//!
//! None of that should matter: the optimizations are all claimed to be
//! decision-invariant. The differential tests in
//! `crates/sched/tests/differential.rs` drive both schedulers through
//! randomized traces and require byte-identical decision streams, which
//! makes this module the executable statement of that claim.
//!
//! The reference intentionally skips everything that is *not* a decision:
//! no metrics, no decision tracing, no work counters. It is test
//! infrastructure, kept in the library (rather than `tests/`) so the
//! differential suite and any future bench can share it.

use std::collections::BTreeMap;

use tacc_cluster::Cluster;
use tacc_workload::{JobId, QosClass};

use crate::backfill::{may_backfill, reserve_with_windows, BackfillMode, Reservation};
use crate::placement::Planner;
use crate::policy::{order_queue, PolicyContext};
use crate::quota::{QuotaMode, QuotaTable};
use crate::request::{Decision, RunningTask, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::SchedulerConfig;

/// The naive scheduler: same decisions as [`Scheduler`](crate::Scheduler),
/// none of the incremental state. See the module docs.
#[derive(Debug)]
pub struct ReferenceScheduler {
    config: SchedulerConfig,
    planner: Planner,
    quota: QuotaTable,
    queue: Vec<TaskRequest>,
    running: BTreeMap<JobId, RunningTask>,
}

impl ReferenceScheduler {
    /// Creates a reference scheduler from the same configuration type the
    /// optimized scheduler takes.
    pub fn new(config: SchedulerConfig) -> Self {
        ReferenceScheduler {
            planner: Planner::new(config.placement),
            quota: QuotaTable::new(&config),
            config,
            queue: Vec::new(),
            running: BTreeMap::new(),
        }
    }

    /// Tasks currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Iterates over waiting tasks, in the queue's physical order.
    pub fn queued(&self) -> impl Iterator<Item = &TaskRequest> {
        self.queue.iter()
    }

    /// Tasks currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Adds a task to the queue. The caller (the differential driver)
    /// guarantees id uniqueness and group bounds; unlike the optimized
    /// scheduler this type never panics, per the library's panic ratchet.
    pub fn submit(&mut self, request: TaskRequest) {
        self.queue.push(request);
    }

    /// Removes a queued task by linear scan. Returns `true` if found.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let before = self.queue.len();
        self.queue.retain(|r| r.id != id);
        self.queue.len() != before
    }

    /// Reports a running task finished; releases its lease and quota.
    pub fn task_finished(&mut self, id: JobId, cluster: &mut Cluster) -> Option<RunningTask> {
        let task = self.running.remove(&id)?;
        // A running task always holds a valid lease; the optimized
        // scheduler `expect`s here, the reference stays panic-free.
        let _ = cluster.release(task.lease_id);
        self.quota.release(&task.request);
        Some(task)
    }

    /// Gang time-slicing, mirroring [`Scheduler::rotate`](crate::Scheduler::rotate)
    /// decision-for-decision.
    pub fn rotate(&mut self, now_secs: f64, cluster: &mut Cluster) -> SchedOutcome {
        let Some(quantum) = self.config.time_slice_secs else {
            return SchedOutcome::default();
        };
        if self.queue.is_empty() {
            return SchedOutcome::default();
        }
        let mut expired: Vec<(f64, JobId)> = self
            .running
            .values()
            .filter(|t| t.request.qos == QosClass::BestEffort && t.start_secs + quantum <= now_secs)
            .map(|t| (t.start_secs, t.request.id))
            .collect();
        if expired.is_empty() {
            return SchedOutcome::default();
        }
        expired.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut hypothetical = cluster.clone();
        let mut needed = None;
        for (i, &(_, id)) in expired.iter().enumerate() {
            let Some(task) = self.running.get(&id) else {
                continue;
            };
            let _ = hypothetical.release(task.lease_id);
            let fits_someone = self.queue.iter().any(|r| {
                self.quota.admits(self.config.quota, r)
                    && self
                        .planner
                        .plan_ungated(&hypothetical, r.workers, r.per_worker)
                        .is_some()
            });
            if fits_someone {
                needed = Some(i + 1);
                break;
            }
        }
        let Some(count) = needed else {
            return SchedOutcome::default();
        };

        let mut outcome = SchedOutcome::default();
        for &(_, victim) in &expired[..count] {
            let Some(task) = self.task_finished(victim, cluster) else {
                continue;
            };
            outcome.decisions.push(Decision::Preempt {
                id: victim,
                reclaimed_for: task.request.group,
            });
            self.queue.push(TaskRequest {
                submit_secs: now_secs,
                workers: task.requested_workers,
                ..task.request
            });
        }
        let follow_up = self.schedule(now_secs, cluster);
        outcome.decisions.extend(follow_up.decisions);
        outcome
    }

    /// One scheduling round, the pre-optimization way: unconditional sort
    /// over freshly recomputed usage, a cloned queue snapshot, and ungated
    /// planning.
    pub fn schedule(&mut self, now_secs: f64, cluster: &mut Cluster) -> SchedOutcome {
        let mut outcome = SchedOutcome::default();

        // Usage recounted from the running set, not read off the ledger:
        // the differential suite holds the scheduler's ledger to it.
        let usage = self.group_usage_vectors();
        let ctx = PolicyContext {
            group_usage: &usage,
            group_quota: self.quota.quotas(),
            capacity: cluster.total_capacity(),
        };
        order_queue(self.config.policy, now_secs, &mut self.queue, &ctx);

        let mut reservations: Vec<Reservation> = Vec::new();
        let queue_snapshot = self.queue.clone();

        for request in queue_snapshot.iter() {
            if !self.quota.admits(self.config.quota, request) {
                if self.config.backfill == BackfillMode::None {
                    break;
                }
                continue;
            }

            if !reservations.is_empty() {
                let est_end = now_secs + request.est_secs;
                let permitted = match self.config.backfill {
                    BackfillMode::None => false,
                    BackfillMode::Easy => {
                        may_backfill(est_end, request.total_gpus(), &reservations[0])
                    }
                    BackfillMode::Conservative => reservations
                        .iter()
                        .all(|r| may_backfill(est_end, request.total_gpus(), r)),
                };
                if !permitted {
                    if self.config.backfill == BackfillMode::Conservative {
                        self.push_reservation(now_secs, request, cluster, &mut reservations);
                    }
                    continue;
                }
            }

            let backfilled = !reservations.is_empty();
            match self.try_place(now_secs, request, cluster, &mut outcome) {
                Some(start) => {
                    outcome.decisions.push(Decision::Start(StartedTask {
                        backfilled,
                        ..start
                    }));
                }
                None => match self.config.backfill {
                    BackfillMode::None => break,
                    BackfillMode::Easy => {
                        if reservations.is_empty() {
                            self.push_reservation(now_secs, request, cluster, &mut reservations);
                        }
                    }
                    BackfillMode::Conservative => {
                        self.push_reservation(now_secs, request, cluster, &mut reservations);
                    }
                },
            }
        }

        outcome
    }

    fn try_place(
        &mut self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &mut Cluster,
        outcome: &mut SchedOutcome,
    ) -> Option<StartedTask> {
        if let Some(start) = self.commit_placement(now_secs, request, cluster) {
            return Some(start);
        }
        if self.config.quota != QuotaMode::Borrowing || request.qos != QosClass::Guaranteed {
            return None;
        }
        let mut victims: Vec<(f64, JobId)> = self
            .running
            .values()
            .filter(|t| t.request.qos == QosClass::BestEffort)
            .map(|t| (t.start_secs, t.request.id))
            .collect();
        if victims.is_empty() {
            return None;
        }
        let mut hypothetical = cluster.clone();
        for t in self.running.values() {
            if t.request.qos == QosClass::BestEffort {
                let _ = hypothetical.release(t.lease_id);
            }
        }
        self.planner
            .plan_ungated(&hypothetical, request.workers, request.per_worker)?;

        victims.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, victim_id) in victims {
            let Some(task) = self.task_finished(victim_id, cluster) else {
                continue;
            };
            outcome.decisions.push(Decision::Preempt {
                id: victim_id,
                reclaimed_for: request.group,
            });
            self.queue.push(TaskRequest {
                workers: task.requested_workers,
                ..task.request
            });
            if let Some(start) = self.commit_placement(now_secs, request, cluster) {
                return Some(start);
            }
        }
        // The pre-check above proved the placement feasible with every
        // borrower gone; the optimized scheduler treats reaching this point
        // as unreachable. The panic-free reference just reports no start.
        None
    }

    fn commit_placement(
        &mut self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &mut Cluster,
    ) -> Option<StartedTask> {
        let mut granted = request.workers;
        let assignment = loop {
            if let Some(a) = self
                .planner
                .plan_ungated(cluster, granted, request.per_worker)
            {
                break a;
            }
            if !request.elastic || granted <= 1 {
                return None;
            }
            granted = (granted / 2).max(1);
        };
        self.queue.retain(|r| r.id != request.id);
        let shares = assignment.iter().map(|&node| (node, request.per_worker));
        // A freshly planned placement always allocates; stay panic-free.
        let lease_id = cluster.allocate(shares).ok()?;
        let granted_request = TaskRequest {
            workers: granted,
            ..*request
        };
        self.quota.charge(&granted_request);
        let scale = f64::from(request.workers) / f64::from(granted);
        self.running.insert(
            request.id,
            RunningTask {
                request: granted_request,
                requested_workers: request.workers,
                lease_id,
                start_secs: now_secs,
                est_end_secs: now_secs + request.est_secs * scale,
            },
        );
        Some(StartedTask {
            request: *request,
            granted_workers: granted,
            worker_nodes: assignment,
            backfilled: false,
        })
    }

    fn push_reservation(
        &self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &Cluster,
        reservations: &mut Vec<Reservation>,
    ) {
        let running = self.running.values().map(RunningTask::release).collect();
        reservations.push(reserve_with_windows(
            now_secs,
            request.total_gpus(),
            cluster.free_gpus(),
            running,
            &self.config.capacity_windows,
        ));
    }

    fn group_usage_vectors(&self) -> Vec<tacc_cluster::ResourceVec> {
        let mut usage = vec![tacc_cluster::ResourceVec::ZERO; self.config.group_count];
        for task in self.running.values() {
            usage[task.request.group.index()] += task.request.total_resources();
        }
        usage
    }
}
