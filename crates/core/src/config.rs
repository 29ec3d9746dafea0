//! Platform configuration.

use tacc_cluster::{ClusterSpec, GpuModel};
use tacc_compiler::CompilerConfig;
use tacc_exec::{CheckpointPolicy, ExecConfig, FailoverPolicy};
use tacc_sched::{QuotaMode, SchedulerConfig};
use tacc_storage::StorageConfig;
use tacc_workload::GroupRoster;

/// Everything needed to stand up a [`crate::Platform`].
///
/// The default is the canonical experiment setup: a 32-node / 256-GPU A100
/// cluster in 4 racks, the 8-group campus roster, FIFO + EASY backfill +
/// packing placement, borrowing quotas disabled (enable per experiment),
/// default compiler cache and execution model, 10-minute checkpoints, no
/// failure injection.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// The cluster to build.
    pub cluster: ClusterSpec,
    /// The tenant groups sharing it.
    pub roster: GroupRoster,
    /// Scheduling-layer configuration. Quotas and group count are filled
    /// from `roster` automatically when the quota mode is not `Disabled`
    /// and no quotas were given.
    pub scheduler: SchedulerConfig,
    /// Compiler-layer configuration.
    pub compiler: CompilerConfig,
    /// Execution-model configuration.
    pub exec: ExecConfig,
    /// Checkpointing policy applied to every job.
    pub checkpoint: CheckpointPolicy,
    /// What happens when a node faults under a running job.
    pub failover: FailoverPolicy,
    /// Shared-filesystem model for dataset staging; `None` makes staging
    /// free (ablation baseline).
    pub storage: Option<StorageConfig>,
    /// Per-node MTBF in seconds; `None` disables failure injection.
    pub node_mtbf_secs: Option<f64>,
    /// Master seed for all randomness inside the platform.
    pub seed: u64,
    /// Safety valve: abort a run after this many processed events.
    pub max_events: u64,
    /// Capacity of the platform event bus ring — the one store of every
    /// job's history, `tcloud logs` and the transition log included.
    /// Oldest events are dropped past this bound (the transition log then
    /// covers the ring's window); lifetime per-kind counts stay exact.
    pub event_buffer_capacity: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster: ClusterSpec::uniform(4, 8, GpuModel::A100, 8),
            roster: GroupRoster::campus_default(256),
            scheduler: SchedulerConfig::default(),
            compiler: CompilerConfig::default(),
            exec: ExecConfig::default(),
            checkpoint: CheckpointPolicy::campus_default(),
            failover: FailoverPolicy::SwitchRuntime,
            storage: Some(StorageConfig::default()),
            node_mtbf_secs: None,
            seed: 42,
            max_events: 50_000_000,
            event_buffer_capacity: 262_144,
        }
    }
}

impl PlatformConfig {
    /// Resolves the scheduler configuration: quotas/group count come from
    /// the roster unless explicitly set.
    pub(crate) fn resolved_scheduler(&self) -> SchedulerConfig {
        let mut sched = self.scheduler.clone();
        if sched.quotas.is_empty() && sched.quota != QuotaMode::Disabled {
            sched = sched.with_roster(&self.roster);
        }
        if sched.group_count < self.roster.len() {
            sched.group_count = self.roster.len();
        }
        sched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_consistent() {
        let c = PlatformConfig::default();
        assert_eq!(c.cluster.total_gpus(), 256);
        let roster = &c.roster;
        assert_eq!(roster.ids().map(|g| roster.quota(g)).sum::<u32>(), 256);
        assert!(c.node_mtbf_secs.is_none());
    }

    #[test]
    fn quota_mode_pulls_roster_quotas() {
        let mut c = PlatformConfig::default();
        c.scheduler.quota = QuotaMode::Borrowing;
        let resolved = c.resolved_scheduler();
        assert_eq!(resolved.quotas.len(), 8);
        assert_eq!(resolved.quotas.iter().sum::<u32>(), 256);
        assert_eq!(resolved.group_count, 8);
    }

    #[test]
    fn explicit_quotas_win() {
        let mut c = PlatformConfig::default();
        c.scheduler.quota = QuotaMode::Static;
        c.scheduler.quotas = vec![1; 8];
        let resolved = c.resolved_scheduler();
        assert_eq!(resolved.quotas, vec![1; 8]);
    }
}
