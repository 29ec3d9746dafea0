//! Placement commitment: elastic gang shrinking, quota reclaim with
//! youngest-first borrower eviction, and the lease/quota bookkeeping of
//! an accepted start.

use std::collections::BTreeMap;

use tacc_cluster::Cluster;
use tacc_workload::{JobId, QosClass};

use crate::backfill::release_order;
use crate::placement::Planner;
use crate::quota::QuotaMode;
use crate::request::{Decision, RunningTask, SchedOutcome, StartedTask, TaskRequest};
use crate::scheduler::{QueueEdit, ReclaimView, Scheduler, Wait};

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
        // borrowed GPU total, so the hypothetical cluster below would have
        // `free + borrowed` free GPUs. When even that cannot cover the
        // aggregate demand, the planner's capacity gate is certain to
        // reject the pre-check — skip the victim scan and the clone, and
        // count the reject exactly as `plan_counted` would have.
        let borrowed = self.quota.borrowed_total();
        if request.per_worker.gpus.saturating_mul(request.workers)
            > cluster.free_gpus().saturating_add(borrowed)
        {
            self.counters.plan.attempts += 1;
            self.counters.plan.fastpath_rejects += 1;
            return None;
        }
        if self.running_best_effort == 0 {
            return None;
        }
        // Pre-check on a hypothetical cluster with every borrower gone:
        // evicting is only justified if the reclaim can actually succeed.
        // (Evicting and then failing to place would destroy borrower
        // progress for nothing — and could deadlock an otherwise idle
        // cluster.)
        self.sync_reclaim_view(cluster);
        self.planner.plan_counted(
            &self.reclaim_view.as_ref()?.cluster,
            request.workers,
            request.per_worker,
            &mut self.counters.plan,
        )?;

        // Eviction is certain from here; only now is the victim list worth
        // building.
        let mut victims: Vec<(f64, JobId)> = self
            .running
            .values()
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

    /// `cluster` with every running borrower's lease released — the one
    /// definition of what the reclaim view is. The view is rebuilt through
    /// it and, in debug builds, sampled against it.
    pub(super) fn borrowers_evicted(&self, cluster: &Cluster) -> Cluster {
        let mut hypothetical = cluster.clone();
        for t in self.running.values() {
            if t.request.qos == QosClass::BestEffort {
                hypothetical
                    .release(t.lease_id)
                    .expect("running borrower holds a valid lease");
            }
        }
        hypothetical
    }

    /// Makes `reclaim_view` mirror `cluster` as it stands: a no-op when
    /// placements and finishes carried it here, a rebuild when a version
    /// it did not see went by (drain, undrain, fault, first use).
    fn sync_reclaim_view(&mut self, cluster: &Cluster) {
        let version = cluster.version();
        if !matches!(&self.reclaim_view, Some(view) if view.version == version) {
            self.reclaim_view = Some(ReclaimView {
                version,
                cluster: self.borrowers_evicted(cluster),
                leases: BTreeMap::new(),
            });
            self.counters.reclaim_view_rebuilds += 1;
        }
        // Sampled oracle, as for the release order: the carried view must be
        // the one a rebuild would produce.
        debug_assert!(
            !self.rounds.is_multiple_of(61)
                || self.debug_hook.is_some()
                || self.debug_reclaim_view_in_step(cluster) == Some(true),
            "carried reclaim view diverged from a fresh rebuild"
        );
    }

    /// Test-only probe: whether the reclaim view, when it claims to mirror
    /// `cluster` as it stands, places exactly like a fresh rebuild — the
    /// same free vector and drain flag on every node (lease ids may
    /// differ; no plan reads them). `None` when there is no view or it
    /// mirrors another version (the next use rebuilds it).
    #[doc(hidden)]
    pub fn debug_reclaim_view_in_step(&self, cluster: &Cluster) -> Option<bool> {
        let view = self.reclaim_view.as_ref()?;
        if view.version != cluster.version() {
            return None;
        }
        let fresh = self.borrowers_evicted(cluster);
        Some(
            view.cluster
                .nodes()
                .map(|n| (n.free(), n.is_schedulable()))
                .eq(fresh.nodes().map(|n| (n.free(), n.is_schedulable()))),
        )
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
        let shares = Planner::shares_for(&assignment, request.per_worker);
        let pre_version = cluster.version();
        let lease = cluster
            .allocate(request.id.value(), &shares)
            .expect("planned placement must allocate");
        let granted_request = TaskRequest {
            workers: granted,
            ..*request
        };
        self.quota.charge(&granted_request);
        let group = granted_request.group.index();
        self.group_usage_vec[group] += granted_request.total_resources();
        self.usage_epoch += 1;
        if self.quota_counts(request) {
            self.wake(Wait::Gate, group..group + 1);
            self.wake(Wait::Capacity, group..group + 1);
        }
        // A shrunken data-parallel gang runs proportionally longer.
        let scale = f64::from(request.workers) / f64::from(granted);
        let est_end_secs = now_secs + request.est_secs * scale;
        // Keep the reclaim view in step: a guaranteed task occupies the
        // same shares there, a borrower none.
        match request.qos {
            QosClass::BestEffort => {
                self.running_best_effort += 1;
                self.carry_reclaim_view(pre_version, cluster, |_| true);
            }
            QosClass::Guaranteed => {
                self.carry_reclaim_view(pre_version, cluster, |view| {
                    match view.cluster.allocate(request.id.value(), &shares) {
                        Ok(lease) => view.leases.insert(request.id, lease.id()).is_none(),
                        Err(_) => false,
                    }
                });
            }
        }
        let task = RunningTask {
            request: granted_request,
            requested_workers: request.workers,
            lease_id: lease.id(),
            worker_nodes: assignment.clone(),
            start_secs: now_secs,
            est_end_secs,
        };
        let release = self.release_of(&task);
        let pos = self
            .releases
            .partition_point(|r| release_order(r, &release).is_lt());
        self.releases.insert(pos, release);
        self.running.insert(request.id, task);
        Some(StartedTask {
            request: *request,
            granted_workers: granted,
            lease,
            worker_nodes: assignment,
            backfilled: false,
        })
    }
}
