//! Gang time-slicing: rotating expired best-effort gangs out so queued
//! work gets a turn (Slurm's "gang scheduling (time-slicing jobs)").

use tacc_cluster::{Cluster, ResourceVec};
use tacc_workload::{JobId, QosClass};

use crate::placement::gang_fits;
use crate::request::{Decision, SchedOutcome, TaskRequest};
use crate::scheduler::elastic::{frees_after, held_by};
use crate::scheduler::Scheduler;

impl Scheduler {
    /// Gang time-slicing: if queued work exists and evicting the oldest
    /// expired best-effort tasks (those that ran at least a full quantum)
    /// would let some queued task start, rotate them out and re-run the
    /// scheduler. Rotated tasks re-enter the queue as if submitted now, so
    /// they take their turn at the back.
    ///
    /// Returns an empty outcome when time-slicing is disabled, nothing has
    /// expired, or no eviction would help.
    pub fn rotate(&mut self, now_secs: f64, cluster: &mut Cluster) -> SchedOutcome {
        let Some(quantum) = self.config.time_slice_secs else {
            return SchedOutcome::default();
        };
        if self.queue.is_empty() {
            return SchedOutcome::default();
        }
        // Expiry is the very sum the run's `RotateCheck` was scheduled at,
        // so that check always finds its run: `now − start ≥ quantum`
        // rounds differently once `start + quantum` crosses a power of two.
        let mut expired: Vec<(f64, JobId, _)> = self
            .running
            .iter()
            .filter(|t| t.request.qos == QosClass::BestEffort && t.start_secs + quantum <= now_secs)
            .map(|t| (t.start_secs, t.request.id, t.lease_id))
            .collect();
        if expired.is_empty() {
            return SchedOutcome::default();
        }
        expired.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // How many evictions (oldest first) until some queued task fits?
        // Each hands its shares back to the nodes it runs on.
        let mut handed_back = vec![ResourceVec::ZERO; cluster.node_count()];
        let mut needed = None;
        for (i, &(_, _, lease)) in expired.iter().enumerate() {
            for &(node, held) in held_by(cluster, lease) {
                handed_back[node.index()] += held;
            }
            let fits_someone = self.queue.iter().map(|e| &e.request).any(|r| {
                self.quota.admits(self.config.quota, r)
                    && gang_fits(frees_after(cluster, &handed_back), r.workers, r.per_worker)
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
        for &(_, victim, _) in &expired[..count] {
            let task = self
                .task_finished(victim, cluster)
                .expect("victim is running");
            self.preemptions += 1;
            outcome.decisions.push(Decision::Preempt {
                id: victim,
                reclaimed_for: task.request.group,
            });
            // Back of the queue: the rotated task waits its turn, with its
            // originally requested gang size restored.
            self.queue_push(TaskRequest {
                submit_secs: now_secs,
                workers: task.requested_workers,
                ..task.request
            });
        }
        // The victims lead the outcome; the follow-up round's decisions
        // come after them.
        let mut follow_up = self.schedule(now_secs, cluster);
        outcome.decisions.append(&mut follow_up.decisions);
        self.recycle(follow_up);
        outcome
    }
}
