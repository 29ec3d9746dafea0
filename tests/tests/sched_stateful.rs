//! Stateful seeded property sweep: the scheduler + cluster pair under
//! arbitrary interleavings of submissions, completions, rotations and
//! reclaims must never corrupt accounting. The policy rotates by case
//! over MultiFactor and the usage-keyed FairShare and DRF, whose sorted
//! queue order rests on the quota ledger.

use tacc_cluster::{Cluster, ClusterSpec, GpuModel, ResourceVec};
use tacc_sched::{BackfillMode, PolicyKind, QuotaMode, Scheduler, SchedulerConfig, TaskRequest};

/// Asserts that each group's ledger usage and guaranteed GPUs equal a
/// recount over the running set.
fn assert_ledger_is_the_running_set(sched: &Scheduler, case: u64) {
    let ledger = sched.quota_table();
    let mut usage = vec![ResourceVec::ZERO; ledger.group_count()];
    let mut guaranteed = vec![0u32; ledger.group_count()];
    for task in sched.running() {
        let g = task.request.group.index();
        usage[g] += task.request.total_resources();
        if task.request.qos == QosClass::Guaranteed {
            guaranteed[g] += task.request.total_gpus();
        }
    }
    assert_eq!(ledger.usage(), usage, "case {case}");
    for (g, &gpus) in guaranteed.iter().enumerate() {
        let group = GroupId::from_index(g);
        assert_eq!(ledger.guaranteed_used(group), gpus, "case {case} group {g}");
    }
}
use tacc_sim::{dist, DetRng};
use tacc_tests::below;
use tacc_workload::{GroupId, JobId, QosClass};

/// Asserts that `running()` yields the running set in release order:
/// estimated end under `total_cmp`, then id — the order the reservation
/// sweep reads it in.
fn assert_running_in_release_order(sched: &Scheduler, case: u64) {
    let in_order = sched.running().is_sorted_by(|a, b| {
        let by_end = a.est_end_secs.total_cmp(&b.est_end_secs);
        by_end.then(a.request.id.cmp(&b.request.id)).is_lt()
    });
    assert!(in_order, "case {case}: running set out of release order");
}

#[test]
fn scheduler_never_corrupts_accounting() {
    for case in 0..64 {
        let rng = &mut DetRng::seed_from_u64(case);
        let quota_mode =
            [QuotaMode::Disabled, QuotaMode::Static, QuotaMode::Borrowing][below(rng, 3) as usize];
        let steps = 1 + below(rng, 119);
        let mut cluster = Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8));
        let total = cluster.total_gpus();
        let policy = [
            PolicyKind::MultiFactor,
            PolicyKind::FairShare,
            PolicyKind::Drf,
        ][(case % 3) as usize];
        let mut sched = Scheduler::new(SchedulerConfig {
            policy,
            backfill: BackfillMode::Easy,
            quota: quota_mode,
            quotas: vec![16, 16, 16, 16],
            group_count: 4,
            time_slice_secs: Some(600.0),
            ..SchedulerConfig::default()
        });
        let mut next_id: u64 = 0;
        let mut now = 0.0f64;
        let mut submitted = 0usize;
        let mut finished = 0usize;

        for _ in 0..steps {
            now += 1.0;
            // Submit : finish : round : rotate = 3 : 3 : 2 : 1.
            match below(rng, 9) {
                0..=2 => {
                    // Keep requests physically feasible so they are not a
                    // quota/fit dead letter for the whole run.
                    let request = TaskRequest {
                        id: JobId::from_value(next_id),
                        group: GroupId::from_index(below(rng, 4) as usize),
                        qos: if dist::coin(rng, 0.5) {
                            QosClass::BestEffort
                        } else {
                            QosClass::Guaranteed
                        },
                        workers: 1 + below(rng, 4) as u32,
                        per_worker: ResourceVec::gpus_only(1 + below(rng, 8) as u32),
                        est_secs: dist::uniform(rng, 60.0, 7200.0),
                        submit_secs: now,
                        elastic: dist::coin(rng, 0.5),
                    };
                    next_id += 1;
                    submitted += 1;
                    sched.submit(request);
                }
                3..=5 => {
                    // Finish a random running job, drawn from the ids in
                    // id order.
                    let mut running: Vec<JobId> = sched.running().map(|t| t.request.id).collect();
                    running.sort();
                    if !running.is_empty() {
                        let victim = running[below(rng, running.len() as u64) as usize];
                        let done = sched.task_finished(victim, &mut cluster);
                        assert!(done.is_some(), "case {case}");
                        finished += 1;
                    }
                }
                6..=7 => {
                    let _ = sched.schedule(now, &mut cluster);
                }
                _ => {
                    let _ = sched.rotate(now, &mut cluster);
                }
            }
            // Invariants after every step.
            assert!(cluster.check_invariants(), "case {case}");
            assert!(cluster.free_gpus() <= total, "case {case}");
            assert_eq!(cluster.lease_count(), sched.running_len(), "case {case}");
            // Quota usage never exceeds physically allocated GPUs.
            let quota_used: u32 = (0..4)
                .map(|g| sched.quota_table().total_used(GroupId::from_index(g)))
                .sum();
            assert_eq!(quota_used, total - cluster.free_gpus(), "case {case}");
            assert_ledger_is_the_running_set(&sched, case);
            assert_running_in_release_order(&sched, case);
        }

        // Drain: finish everything that runs, then rounds start the rest
        // or leave them legitimately queued; accounting stays balanced.
        for _ in 0..2 * submitted {
            let Some(first) = sched.running().map(|t| t.request.id).min() else {
                break;
            };
            sched.task_finished(first, &mut cluster);
            finished += 1;
            now += 1.0;
            let _ = sched.schedule(now, &mut cluster);
        }
        assert!(cluster.check_invariants(), "case {case}");
        assert_ledger_is_the_running_set(&sched, case);
        assert!(finished <= submitted, "case {case}");
        assert_eq!(cluster.lease_count(), sched.running_len(), "case {case}");
        // Everything still in the system is queued or running, not lost.
        assert_eq!(
            sched.queue_len() + sched.running_len() + finished,
            submitted,
            "case {case}"
        );
    }
}
