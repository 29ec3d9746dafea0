//! Placement commitment: elastic gang shrinking, quota reclaim with
//! youngest-first borrower eviction, and the lease/quota bookkeeping of
//! an accepted start.

use tacc_cluster::{Cluster, Lease, LeaseId, Node, NodeId, ResourceVec};
use tacc_workload::{JobId, QosClass};

use crate::backfill::release_order;
use crate::placement::gang_fits;
use crate::quota::QuotaMode;
use crate::request::{Decision, RunningTask, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::{QueueEdit, Scheduler, Wait};

/// The free vector of each schedulable node of `cluster`, plus what
/// `handed_back` (by node index) would return to it.
pub(super) fn frees_after<'a>(
    cluster: &'a Cluster,
    handed_back: &'a [ResourceVec],
) -> impl Iterator<Item = ResourceVec> + 'a {
    let back = |n: &Node| handed_back.get(n.id().index()).copied();
    let nodes = cluster.nodes().filter(|n| n.is_schedulable());
    nodes.map(move |n| n.free() + back(n).unwrap_or(ResourceVec::ZERO))
}

/// What a running task's `lease` holds on `cluster`, one share per node
/// (none once the lease is gone, which a running task's never is).
pub(super) fn held_by(cluster: &Cluster, lease: LeaseId) -> &[(NodeId, ResourceVec)] {
    cluster.lease(lease).map_or(&[], Lease::shares)
}

impl Scheduler {
    /// Attempts to place `request`, preempting borrowers if the request is
    /// guaranteed, quota-admitted, and the mode allows reclaim. Runs inside
    /// a walk, so it never touches the pending queue: what the evictions
    /// and the start mean for it is recorded for the round's apply step.
    pub(super) fn try_place(
        &mut self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &mut Cluster,
        outcome: &mut SchedOutcome,
    ) -> Option<StartedTask> {
        if let Some(start) = self.commit_placement(now_secs, request, cluster) {
            return Some(start);
        }
        // Reclaim path: guaranteed job within quota but no room — evict
        // best-effort borrowers, youngest first, until it fits.
        if self.config.quota != QuotaMode::Borrowing || request.qos != QosClass::Guaranteed {
            return None;
        }
        // O(1) reclaim gate: evicting every borrower hands back exactly the
        // borrowed GPU total. When even `free + borrowed` cannot cover the
        // aggregate demand, no eviction can make room.
        let borrowed = self.quota.borrowed_total();
        if request.per_worker.gpus.saturating_mul(request.workers)
            > cluster.free_gpus().saturating_add(borrowed)
        {
            return None;
        }
        // Sampled oracle: what the borrowers hold per node must equal a
        // recount of the running set.
        #[cfg(debug_assertions)]
        if self.rounds.is_multiple_of(61) {
            debug_assert_eq!(
                self.borrowed,
                self.borrowed_recomputed(cluster),
                "borrowed capacity diverged from the running set"
            );
        }
        // Pre-check with every borrower gone: evicting is only justified
        // if the reclaim can actually succeed. (Evicting and then failing
        // to place would destroy borrower progress for nothing — and could
        // deadlock an otherwise idle cluster.) With no borrower running it
        // asks what the plan above just refused.
        if !self.reclaim_fits(cluster, request.workers, request.per_worker) {
            return None;
        }

        // Eviction is certain from here; only now is the victim list worth
        // building.
        let mut victims: Vec<(f64, JobId)> = self
            .running
            .iter()
            .filter(|t| t.request.qos == QosClass::BestEffort)
            .map(|t| (t.start_secs, t.request.id))
            .collect();
        // Youngest first: least sunk work destroyed.
        victims.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, victim_id) in victims {
            let task = self
                .task_finished(victim_id, cluster)
                .expect("victim is running");
            self.preemptions += 1;
            outcome.decisions.push(Decision::Preempt {
                id: victim_id,
                reclaimed_for: request.group,
            });
            // Re-queue the victim with its original submission time and
            // its originally requested gang size.
            self.scratch_edits.push(QueueEdit::Push(TaskRequest {
                workers: task.requested_workers,
                ..task.request
            }));
            if let Some(start) = self.commit_placement(now_secs, request, cluster) {
                return Some(start);
            }
        }
        unreachable!("pre-checked reclaim must place once all borrowers are evicted")
    }

    /// The reclaim pre-check: whether a gang of `workers` x `per_worker`
    /// would fit on `cluster` once every running borrower handed back what
    /// it holds. Public as the contract suite's probe.
    #[doc(hidden)]
    pub fn reclaim_fits(&self, cluster: &Cluster, workers: u32, per_worker: ResourceVec) -> bool {
        gang_fits(frees_after(cluster, &self.borrowed), workers, per_worker)
    }

    /// `cluster` with every running borrower's lease released — the one
    /// definition of what the reclaim pre-check answers for. Debug builds
    /// hold `would_start` to a plan on it, and the contract suite holds
    /// [`Scheduler::reclaim_fits`] to one.
    #[doc(hidden)]
    pub fn borrowers_evicted(&self, cluster: &Cluster) -> Cluster {
        let mut hypothetical = cluster.clone();
        for t in &self.running {
            if t.request.qos == QosClass::BestEffort {
                hypothetical
                    .release(t.lease_id)
                    .expect("running borrower holds a valid lease");
            }
        }
        hypothetical
    }

    /// `borrowed` recounted from the running set's leases on `cluster` —
    /// what the incrementally kept vector must equal.
    #[cfg(debug_assertions)]
    fn borrowed_recomputed(&self, cluster: &Cluster) -> Vec<ResourceVec> {
        let mut borrowed = vec![ResourceVec::ZERO; self.borrowed.len()];
        for t in &self.running {
            if t.request.qos == QosClass::BestEffort {
                for &(node, held) in held_by(cluster, t.lease_id) {
                    borrowed[node.index()] += held;
                }
            }
        }
        borrowed
    }

    /// Plans and commits a placement, charging quota and recording the
    /// task. On success the request's removal from the queue is recorded
    /// at this point of `scratch_edits` — a later reclaim in the same round
    /// may re-queue this very job, and that later entry must survive it.
    fn commit_placement(
        &mut self,
        now_secs: f64,
        request: &TaskRequest,
        cluster: &mut Cluster,
    ) -> Option<StartedTask> {
        // Elastic tasks shrink by halving the gang until it fits (down to
        // one worker); inelastic tasks place all-or-nothing.
        let mut granted = request.workers;
        let assignment = loop {
            if let Some(a) = self.planner.plan_counted(
                cluster,
                granted,
                request.per_worker,
                &mut self.counters.plan,
            ) {
                break a;
            }
            if !request.elastic || granted <= 1 {
                return None;
            }
            granted = (granted / 2).max(1);
        };
        self.scratch_edits.push(QueueEdit::Remove(*request));
        let shares = assignment.iter().map(|&node| (node, request.per_worker));
        let lease_id = cluster
            .allocate(shares)
            .expect("planned placement must allocate");
        let granted_request = TaskRequest {
            workers: granted,
            ..*request
        };
        self.quota.charge(&granted_request);
        let group = granted_request.group.index();
        if self.quota_counts(request) {
            self.wake(Wait::Gate, group..group + 1);
            self.wake(Wait::Capacity, group..group + 1);
        }
        // A shrunken data-parallel gang runs proportionally longer.
        let scale = f64::from(request.workers) / f64::from(granted);
        let est_end_secs = now_secs + request.est_secs * scale + self.boundary_skew_secs;
        if request.qos == QosClass::BestEffort {
            self.borrowed
                .resize(cluster.node_count(), ResourceVec::ZERO);
            for node in &assignment {
                self.borrowed[node.index()] += request.per_worker;
            }
        }
        let task = RunningTask {
            request: granted_request,
            requested_workers: request.workers,
            lease_id,
            start_secs: now_secs,
            est_end_secs,
        };
        let release = task.release();
        let pos = self
            .running
            .partition_point(|t| release_order(&t.release(), &release).is_lt());
        self.running.insert(pos, task);
        Some(StartedTask {
            request: *request,
            granted_workers: granted,
            worker_nodes: assignment,
            backfilled: false,
        })
    }
}
