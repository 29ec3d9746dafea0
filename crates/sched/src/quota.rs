//! Per-group quota management with borrowing and reclaim (experiments F2/F5).

use tacc_cluster::ResourceVec;
use tacc_workload::{GroupId, QosClass};

use crate::request::TaskRequest;
use crate::scheduler::SchedulerConfig;

/// How group quotas are enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuotaMode {
    /// No quotas: the whole cluster is one pool (pure policy ordering).
    #[default]
    Disabled,
    /// Static partitioning: a group can never exceed its quota, even when
    /// the rest of the cluster sits idle. The baseline of experiment F2.
    Static,
    /// Quota with borrowing: guaranteed jobs are admitted within quota;
    /// best-effort jobs may borrow any idle capacity and are preempted
    /// when the owning group's guaranteed demand returns.
    Borrowing,
}

impl std::fmt::Display for QuotaMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuotaMode::Disabled => "disabled",
            QuotaMode::Static => "static",
            QuotaMode::Borrowing => "borrowing",
        };
        f.write_str(s)
    }
}

/// The scheduler's one usage ledger: what each group's running tasks
/// hold, checked against its quota.
///
/// Every start is charged here and every finish or eviction released, so
/// the quota gate, reclaim, the usage-keyed policies (FairShare reads a
/// group's GPUs, DRF its dominant share) and the `quota` query all read
/// one account. Of a group's GPUs, the guaranteed ones count against its
/// quota; the rest are best-effort, borrowed capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaTable {
    quotas: Vec<u32>,
    usage: Vec<ResourceVec>,
    guaranteed_used: Vec<u32>,
    epoch: u64,
}

impl QuotaTable {
    /// An empty ledger for `config`'s quotas, padded with quota 0 to its
    /// `group_count`.
    pub fn new(config: &SchedulerConfig) -> Self {
        let mut quotas = config.quotas.clone();
        if quotas.len() < config.group_count {
            quotas.resize(config.group_count, 0);
        }
        let n = quotas.len();
        QuotaTable {
            quotas,
            usage: vec![ResourceVec::ZERO; n],
            guaranteed_used: vec![0; n],
            epoch: 0,
        }
    }

    /// Number of groups tracked.
    pub fn group_count(&self) -> usize {
        self.quotas.len()
    }

    /// Quota of a group in GPUs.
    pub fn quota(&self, group: GroupId) -> u32 {
        self.quotas[group.index()]
    }

    /// All quotas, indexed by group.
    pub fn quotas(&self) -> &[u32] {
        &self.quotas
    }

    /// What each group's running tasks hold, indexed by group.
    pub fn usage(&self) -> &[ResourceVec] {
        &self.usage
    }

    /// Bumped by every [`QuotaTable::charge`] and [`QuotaTable::release`]:
    /// an unchanged epoch means unchanged usage.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// GPUs a group currently runs under guarantee.
    pub fn guaranteed_used(&self, group: GroupId) -> u32 {
        self.guaranteed_used[group.index()]
    }

    /// GPUs a group currently borrows (best-effort).
    pub fn borrowed(&self, group: GroupId) -> u32 {
        self.total_used(group) - self.guaranteed_used(group)
    }

    /// Total GPUs a group currently uses across both classes.
    pub fn total_used(&self, group: GroupId) -> u32 {
        self.usage[group.index()].gpus
    }

    /// Whether `request` may be admitted under `mode` right now.
    ///
    /// This is the *quota* check only; the caller still needs a feasible
    /// placement.
    pub fn admits(&self, mode: QuotaMode, request: &TaskRequest) -> bool {
        let g = request.group;
        let demand = request.total_gpus();
        match mode {
            QuotaMode::Disabled => true,
            QuotaMode::Static => {
                // Everything counts against the partition, regardless of QoS.
                self.total_used(g) + demand <= self.quota(g)
            }
            QuotaMode::Borrowing => match request.qos {
                // Guaranteed demand must fit in the quota.
                QosClass::Guaranteed => self.guaranteed_used(g) + demand <= self.quota(g),
                // Best-effort demand is only bounded by physical capacity.
                QosClass::BestEffort => true,
            },
        }
    }

    /// Charges a started task's resources to its group.
    pub fn charge(&mut self, request: &TaskRequest) {
        let g = request.group.index();
        self.usage[g] += request.total_resources();
        if request.qos == QosClass::Guaranteed {
            self.guaranteed_used[g] += request.total_gpus();
        }
        self.epoch += 1;
    }

    /// Releases a finished/preempted task's resources.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if releasing more than is charged — that is
    /// always an accounting bug upstream.
    pub fn release(&mut self, request: &TaskRequest) {
        let g = request.group.index();
        let demand = request.total_resources();
        debug_assert!(demand.fits_in(&self.usage[g]), "quota release underflow");
        self.usage[g] = self.usage[g].saturating_sub(&demand);
        if request.qos == QosClass::Guaranteed {
            debug_assert!(
                self.guaranteed_used[g] >= demand.gpus,
                "quota release underflow"
            );
            self.guaranteed_used[g] = self.guaranteed_used[g].saturating_sub(demand.gpus);
        }
        self.epoch += 1;
    }

    /// Total GPUs currently borrowed across all groups — exactly the GPU
    /// count held by best-effort leases, which is what a full reclaim
    /// (preempting every borrower) would hand back to the free pool.
    pub fn borrowed_total(&self) -> u32 {
        (0..self.quotas.len())
            .map(|g| self.usage[g].gpus - self.guaranteed_used[g])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_workload::{GroupRoster, JobId};

    fn table(quotas: Vec<u32>) -> QuotaTable {
        QuotaTable::new(&SchedulerConfig {
            group_count: quotas.len(),
            quotas,
            ..SchedulerConfig::default()
        })
    }

    fn req(group: usize, gpus: u32, qos: QosClass) -> TaskRequest {
        TaskRequest {
            id: JobId::from_value(1),
            group: GroupId::from_index(group),
            qos,
            workers: 1,
            per_worker: ResourceVec::gpus_only(gpus),
            est_secs: 100.0,
            submit_secs: 0.0,
            elastic: false,
        }
    }

    #[test]
    fn static_mode_caps_everything() {
        let mut t = table(vec![8]);
        let guaranteed = req(0, 6, QosClass::Guaranteed);
        assert!(t.admits(QuotaMode::Static, &guaranteed));
        t.charge(&guaranteed);
        // 6 used; 4 more would exceed 8, even as best-effort.
        assert!(!t.admits(QuotaMode::Static, &req(0, 4, QosClass::BestEffort)));
        assert!(t.admits(QuotaMode::Static, &req(0, 2, QosClass::BestEffort)));
    }

    #[test]
    fn borrowing_mode_lets_best_effort_exceed_quota() {
        let mut t = table(vec![8, 8]);
        let be = req(0, 16, QosClass::BestEffort);
        assert!(t.admits(QuotaMode::Borrowing, &be));
        t.charge(&be);
        assert_eq!(t.borrowed(GroupId::from_index(0)), 16);
        assert_eq!(t.guaranteed_used(GroupId::from_index(0)), 0);
        // Guaranteed demand is still capped by quota.
        assert!(t.admits(QuotaMode::Borrowing, &req(0, 8, QosClass::Guaranteed)));
        assert!(!t.admits(QuotaMode::Borrowing, &req(0, 9, QosClass::Guaranteed)));
    }

    #[test]
    fn disabled_mode_admits_all() {
        let t = table(vec![0]);
        assert!(t.admits(QuotaMode::Disabled, &req(0, 64, QosClass::Guaranteed)));
    }

    #[test]
    fn charge_release_round_trip() {
        let mut t = table(vec![8]);
        let r = req(0, 4, QosClass::Guaranteed);
        t.charge(&r);
        assert_eq!(t.total_used(GroupId::from_index(0)), 4);
        assert_eq!(t.usage(), [ResourceVec::gpus_only(4)]);
        assert_eq!(t.epoch(), 1);
        t.release(&r);
        assert_eq!(t.total_used(GroupId::from_index(0)), 0);
        assert_eq!(t.usage(), [ResourceVec::ZERO]);
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn roster_quotas_imported() {
        let roster = GroupRoster::campus_default(64);
        let t = QuotaTable::new(&SchedulerConfig::default().with_roster(&roster));
        assert_eq!(t.group_count(), 8);
        assert_eq!(t.quotas().iter().sum::<u32>(), 64);
        // Groups the configured quotas leave out get quota 0.
        let padded = QuotaTable::new(&SchedulerConfig {
            quotas: vec![8],
            group_count: 3,
            ..SchedulerConfig::default()
        });
        assert_eq!(padded.quotas(), [8, 0, 0]);
    }
}
