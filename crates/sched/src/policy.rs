//! Queue-ordering policies.

use tacc_cluster::ResourceVec;
use tacc_workload::GroupId;

use crate::request::TaskRequest;

/// The queue-ordering policy in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// First-in-first-out by submission time.
    #[default]
    Fifo,
    /// Shortest (estimated) job first; ties broken FIFO. The estimate is
    /// the user's noisy one — SJF's real-world weakness is modelled.
    Sjf,
    /// Fair share: order groups by instantaneous GPU usage over quota
    /// weight, FIFO within a group.
    FairShare,
    /// Dominant-resource fairness: order groups by dominant share of the
    /// cluster across all resource dimensions.
    Drf,
    /// Multi-factor dynamic priority — the paper's "dynamic factors such
    /// as task queue length, task age, size, and QoS": tasks score points
    /// for waiting (aging), for being short when the queue is long
    /// (throughput mode under pressure), and for guaranteed QoS; large
    /// gangs pay a small size penalty. Highest score first.
    MultiFactor,
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Sjf => "sjf",
            PolicyKind::FairShare => "fair-share",
            PolicyKind::Drf => "drf",
            PolicyKind::MultiFactor => "multi-factor",
        };
        f.write_str(s)
    }
}

/// Inputs the ordering policies need beyond the queue itself.
#[derive(Debug, Clone)]
pub struct PolicyContext<'a> {
    /// Per-group running resource totals: FairShare reads their GPUs, DRF
    /// their dominant share.
    pub group_usage: &'a [ResourceVec],
    /// Per-group quota/weight.
    pub group_quota: &'a [u32],
    /// Total cluster capacity (for DRF shares).
    pub capacity: ResourceVec,
}

impl PolicyContext<'_> {
    fn usage_ratio(&self, group: GroupId) -> f64 {
        let used = f64::from(self.group_usage[group.index()].gpus);
        let quota = f64::from(self.group_quota[group.index()].max(1));
        used / quota
    }

    fn dominant_share(&self, group: GroupId) -> f64 {
        self.group_usage[group.index()].dominant_share(&self.capacity)
    }
}

/// The multi-factor score of one request (higher runs earlier).
///
/// Exposed crate-internally so the scheduler's tests can assert on the
/// factor weights directly.
pub(crate) fn multi_factor_score(now_secs: f64, queue_len: usize, r: &TaskRequest) -> f64 {
    // Aging: one point per waiting hour, capped at a day, so nothing
    // starves regardless of the other factors.
    let age = ((now_secs - r.submit_secs) / 3600.0).clamp(0.0, 24.0);
    // Queue pressure: when the queue is long, favour short jobs (classic
    // throughput mode); an empty queue leaves ordering to aging/QoS.
    let pressure = (queue_len as f64 / 50.0).min(2.0);
    let shortness = (3600.0 / r.est_secs.max(60.0)).min(4.0);
    // Size: each doubling of the gang costs half a point.
    let size_penalty = f64::from(r.total_gpus().max(1)).log2() * 0.5;
    let qos_bonus = match r.qos {
        tacc_workload::QosClass::Guaranteed => 2.0,
        tacc_workload::QosClass::BestEffort => 0.0,
    };
    age + pressure * shortness - size_penalty + qos_bonus
}

/// Compares two requests under `policy`'s ordering. Every arm ends in the
/// id tiebreak, so the relation is a total order and the sorted
/// permutation of any queue is *unique* — which is what lets the
/// scheduler keep a queue sorted by insertion instead of re-sorting, with
/// a provably identical result.
///
/// `now_secs` and `queue_len` only influence [`PolicyKind::MultiFactor`]
/// scores; every other policy's keys are independent of time and of the
/// queue itself (FIFO/SJF read only the request, FairShare/DRF also read
/// the group usage carried by `ctx`).
pub(crate) fn compare(
    policy: PolicyKind,
    now_secs: f64,
    queue_len: usize,
    a: &TaskRequest,
    b: &TaskRequest,
    ctx: &PolicyContext<'_>,
) -> std::cmp::Ordering {
    match policy {
        PolicyKind::Fifo => a
            .submit_secs
            .total_cmp(&b.submit_secs)
            .then(a.id.cmp(&b.id)),
        PolicyKind::Sjf => a
            .est_secs
            .total_cmp(&b.est_secs)
            .then(a.submit_secs.total_cmp(&b.submit_secs))
            .then(a.id.cmp(&b.id)),
        PolicyKind::FairShare => ctx
            .usage_ratio(a.group)
            .total_cmp(&ctx.usage_ratio(b.group))
            .then(a.submit_secs.total_cmp(&b.submit_secs))
            .then(a.id.cmp(&b.id)),
        PolicyKind::Drf => ctx
            .dominant_share(a.group)
            .total_cmp(&ctx.dominant_share(b.group))
            .then(a.submit_secs.total_cmp(&b.submit_secs))
            .then(a.id.cmp(&b.id)),
        PolicyKind::MultiFactor => multi_factor_score(now_secs, queue_len, b)
            .total_cmp(&multi_factor_score(now_secs, queue_len, a))
            .then(a.submit_secs.total_cmp(&b.submit_secs))
            .then(a.id.cmp(&b.id)),
    }
}

/// Sorts the pending queue in scheduling order under `policy`.
///
/// The sort is stable and all keys are totally ordered, so the result is
/// deterministic for identical inputs.
pub(crate) fn order_queue(
    policy: PolicyKind,
    now_secs: f64,
    queue: &mut [TaskRequest],
    ctx: &PolicyContext<'_>,
) {
    let queue_len = queue.len();
    queue.sort_by(|a, b| compare(policy, now_secs, queue_len, a, b, ctx));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{JobId, QosClass};

    fn req(id: u64, group: usize, submit: f64, est: f64) -> TaskRequest {
        TaskRequest {
            id: JobId::from_value(id),
            group: GroupId::from_index(group),
            qos: QosClass::Guaranteed,
            workers: 1,
            per_worker: ResourceVec::gpus_only(1),
            est_secs: est,
            submit_secs: submit,
            elastic: false,
        }
    }

    fn ids(queue: &[TaskRequest]) -> Vec<u64> {
        queue.iter().map(|r| r.id.value()).collect()
    }

    fn ctx<'a>(usage: &'a [ResourceVec], quota: &'a [u32]) -> PolicyContext<'a> {
        PolicyContext {
            group_usage: usage,
            group_quota: quota,
            capacity: ResourceVec::new(100, 1000, 4000),
        }
    }

    #[test]
    fn fifo_orders_by_submit() {
        let mut q = vec![
            req(1, 0, 30.0, 1.0),
            req(2, 0, 10.0, 9.0),
            req(3, 0, 20.0, 5.0),
        ];
        let usage = [ResourceVec::ZERO; 1];
        let quota = [10u32; 1];
        order_queue(PolicyKind::Fifo, 0.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn sjf_orders_by_estimate() {
        let mut q = vec![
            req(1, 0, 0.0, 500.0),
            req(2, 0, 1.0, 100.0),
            req(3, 0, 2.0, 300.0),
        ];
        let usage = [ResourceVec::ZERO; 1];
        let quota = [10u32; 1];
        order_queue(PolicyKind::Sjf, 0.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn fair_share_prefers_underserved_group() {
        // Group 0 uses 8/10; group 1 uses 1/10.
        let usage = [ResourceVec::gpus_only(8), ResourceVec::gpus_only(1)];
        let quota = [10u32, 10];
        let mut q = vec![req(1, 0, 0.0, 10.0), req(2, 1, 5.0, 10.0)];
        order_queue(PolicyKind::FairShare, 10.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn fair_share_respects_quota_weighting() {
        // Same usage, different quotas: the bigger-quota group is less served.
        let usage = [ResourceVec::gpus_only(4), ResourceVec::gpus_only(4)];
        let quota = [40u32, 8];
        let mut q = vec![req(1, 1, 0.0, 10.0), req(2, 0, 5.0, 10.0)];
        order_queue(PolicyKind::FairShare, 10.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn drf_orders_by_dominant_share() {
        // Group 0: gpu-dominant 10/100 = 0.1; group 1: cpu 300/1000 = 0.3.
        let usage = [ResourceVec::new(10, 50, 100), ResourceVec::new(0, 300, 100)];
        let quota = [10u32, 10];
        let mut q = vec![req(1, 1, 0.0, 10.0), req(2, 0, 5.0, 10.0)];
        order_queue(PolicyKind::Drf, 10.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn multi_factor_ages_and_prefers_short_under_pressure() {
        let usage = [ResourceVec::ZERO; 1];
        let quota = [10u32; 1];
        // Job 1: old, long. Job 2: fresh, short. With a long queue the
        // short job wins while young, but a day of aging dominates.
        let old_long = req(1, 0, 0.0, 50_000.0);
        let fresh_short = req(2, 0, 3600.0 * 23.0, 120.0);
        let score_old = multi_factor_score(3600.0 * 24.0, 100, &old_long);
        let score_fresh = multi_factor_score(3600.0 * 24.0, 100, &fresh_short);
        // Old job has aged 24h (capped), fresh one 1h + shortness bonus.
        assert!(score_old > score_fresh);

        let mut q = vec![old_long, fresh_short];
        order_queue(
            PolicyKind::MultiFactor,
            3600.0 * 24.0,
            &mut q,
            &ctx(&usage, &quota),
        );
        assert_eq!(ids(&q), vec![1, 2]);

        // Same submit times, long queue: the short job jumps ahead.
        let mut q2 = vec![req(3, 0, 0.0, 50_000.0), req(4, 0, 0.0, 120.0)];
        order_queue(
            PolicyKind::MultiFactor,
            100.0,
            &mut q2,
            &ctx(&usage, &quota),
        );
        assert_eq!(ids(&q2), vec![4, 3]);
    }

    #[test]
    fn multi_factor_weighs_qos_and_size() {
        // Same age and estimate: guaranteed beats best-effort, and the
        // 64-GPU gang pays a size penalty vs the 1-GPU job.
        let small = req(1, 0, 0.0, 3600.0);
        let mut big = req(2, 0, 0.0, 3600.0);
        big.workers = 8;
        big.per_worker = ResourceVec::gpus_only(8);
        assert!(multi_factor_score(10.0, 10, &small) > multi_factor_score(10.0, 10, &big));
        let mut be = small;
        be.qos = tacc_workload::QosClass::BestEffort;
        assert!(multi_factor_score(10.0, 10, &small) > multi_factor_score(10.0, 10, &be));
    }

    #[test]
    fn ties_fall_back_to_fifo_then_id() {
        let usage = [ResourceVec::ZERO; 2];
        let quota = [10u32; 2];
        let mut q = vec![req(5, 0, 1.0, 100.0), req(4, 1, 1.0, 100.0)];
        order_queue(PolicyKind::Sjf, 0.0, &mut q, &ctx(&usage, &quota));
        assert_eq!(ids(&q), vec![4, 5]);
    }
}
