//! Per-group quota management with borrowing and reclaim (experiments F2/F5).

use tacc_workload::{GroupId, GroupRoster, QosClass};

use crate::request::TaskRequest;

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

/// Tracks per-group GPU usage against quotas.
///
/// Usage is split by QoS class: guaranteed usage is charged against the
/// group's quota; best-effort usage is tracked separately as borrowed
/// capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct QuotaTable {
    quotas: Vec<u32>,
    guaranteed_used: Vec<u32>,
    best_effort_used: Vec<u32>,
}

impl QuotaTable {
    /// Builds the table from a roster's quotas.
    pub fn from_roster(roster: &GroupRoster) -> Self {
        let quotas: Vec<u32> = roster.ids().map(|g| roster.quota(g)).collect();
        let n = quotas.len();
        QuotaTable {
            quotas,
            guaranteed_used: vec![0; n],
            best_effort_used: vec![0; n],
        }
    }

    /// Builds a table with explicit quotas (tests, ad-hoc setups).
    pub fn from_quotas(quotas: Vec<u32>) -> Self {
        let n = quotas.len();
        QuotaTable {
            quotas,
            guaranteed_used: vec![0; n],
            best_effort_used: vec![0; n],
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

    /// GPUs a group currently runs under guarantee.
    pub fn guaranteed_used(&self, group: GroupId) -> u32 {
        self.guaranteed_used[group.index()]
    }

    /// GPUs a group currently borrows (best-effort).
    pub fn borrowed(&self, group: GroupId) -> u32 {
        self.best_effort_used[group.index()]
    }

    /// Total GPUs a group currently uses across both classes.
    pub fn total_used(&self, group: GroupId) -> u32 {
        self.guaranteed_used(group) + self.borrowed(group)
    }

    /// Whether `request` may be admitted under `mode` right now.
    ///
    /// This is the *quota* check only; the caller still needs a feasible
    /// placement.
    pub fn admits(&self, mode: QuotaMode, request: &TaskRequest) -> bool {
        let g = request.group.index();
        let demand = request.total_gpus();
        match mode {
            QuotaMode::Disabled => true,
            QuotaMode::Static => {
                // Everything counts against the partition, regardless of QoS.
                self.guaranteed_used[g] + self.best_effort_used[g] + demand <= self.quotas[g]
            }
            QuotaMode::Borrowing => match request.qos {
                // Guaranteed demand must fit in the quota.
                QosClass::Guaranteed => self.guaranteed_used[g] + demand <= self.quotas[g],
                // Best-effort demand is only bounded by physical capacity.
                QosClass::BestEffort => true,
            },
        }
    }

    /// Charges a started task's GPUs to its group.
    pub fn charge(&mut self, request: &TaskRequest) {
        let g = request.group.index();
        let demand = request.total_gpus();
        match request.qos {
            QosClass::Guaranteed => self.guaranteed_used[g] += demand,
            QosClass::BestEffort => self.best_effort_used[g] += demand,
        }
    }

    /// Releases a finished/preempted task's GPUs.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if releasing more than is charged — that is
    /// always an accounting bug upstream.
    pub fn release(&mut self, request: &TaskRequest) {
        let g = request.group.index();
        let demand = request.total_gpus();
        match request.qos {
            QosClass::Guaranteed => {
                debug_assert!(self.guaranteed_used[g] >= demand, "quota release underflow");
                self.guaranteed_used[g] = self.guaranteed_used[g].saturating_sub(demand);
            }
            QosClass::BestEffort => {
                debug_assert!(
                    self.best_effort_used[g] >= demand,
                    "quota release underflow"
                );
                self.best_effort_used[g] = self.best_effort_used[g].saturating_sub(demand);
            }
        }
    }

    /// Total GPUs currently borrowed across all groups — exactly the GPU
    /// count held by best-effort leases, which is what a full reclaim
    /// (preempting every borrower) would hand back to the free pool.
    pub fn borrowed_total(&self) -> u32 {
        self.best_effort_used.iter().sum()
    }

    /// Per-group total GPU usage, indexed by group (for policy contexts).
    pub fn usage_by_group(&self) -> Vec<u32> {
        (0..self.quotas.len())
            .map(|i| self.guaranteed_used[i] + self.best_effort_used[i])
            .collect()
    }

    /// Fills `out` with [`QuotaTable::usage_by_group`] without allocating
    /// (the scheduler reuses one scratch vector across rounds).
    pub fn usage_by_group_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            (0..self.quotas.len()).map(|i| self.guaranteed_used[i] + self.best_effort_used[i]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::ResourceVec;
    use tacc_workload::JobId;

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
        let mut t = QuotaTable::from_quotas(vec![8]);
        let guaranteed = req(0, 6, QosClass::Guaranteed);
        assert!(t.admits(QuotaMode::Static, &guaranteed));
        t.charge(&guaranteed);
        // 6 used; 4 more would exceed 8, even as best-effort.
        assert!(!t.admits(QuotaMode::Static, &req(0, 4, QosClass::BestEffort)));
        assert!(t.admits(QuotaMode::Static, &req(0, 2, QosClass::BestEffort)));
    }

    #[test]
    fn borrowing_mode_lets_best_effort_exceed_quota() {
        let mut t = QuotaTable::from_quotas(vec![8, 8]);
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
        let t = QuotaTable::from_quotas(vec![0]);
        assert!(t.admits(QuotaMode::Disabled, &req(0, 64, QosClass::Guaranteed)));
    }

    #[test]
    fn charge_release_round_trip() {
        let mut t = QuotaTable::from_quotas(vec![8]);
        let r = req(0, 4, QosClass::Guaranteed);
        t.charge(&r);
        assert_eq!(t.total_used(GroupId::from_index(0)), 4);
        t.release(&r);
        assert_eq!(t.total_used(GroupId::from_index(0)), 0);
        assert_eq!(t.usage_by_group(), vec![0]);
    }

    #[test]
    fn roster_quotas_imported() {
        let roster = GroupRoster::campus_default(64);
        let t = QuotaTable::from_roster(&roster);
        assert_eq!(t.group_count(), 8);
        assert_eq!(t.quotas().iter().sum::<u32>(), 64);
    }
}
