//! The execution model: placement + instruction → slowdown.

use tacc_cluster::{Cluster, GpuModel, NodeId};
use tacc_workload::{ModelProfile, RuntimePreference};

use crate::comm;

/// Fixed per-iteration overhead (kernel launch, data loading overlap
/// slack, collective latency terms), seconds.
const ITER_OVERHEAD_SECS: f64 = 0.01;

/// Parameter-server shard count used when a task selects the PS runtime.
const PS_SHARDS: u32 = 4;

/// Configuration of the execution layer's cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Whether multi-node all-reduce uses the hierarchical (NVLink-aware)
    /// variant; plain flat ring otherwise. Ablation knob for F6.
    pub hierarchical_allreduce: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            hierarchical_allreduce: true,
        }
    }
}

/// What the execution layer decided for a placed task, and what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionPlan {
    /// The runtime system actually used (never `Auto`).
    pub runtime: RuntimePreference,
    /// Per-iteration compute time on this hardware, seconds.
    pub compute_secs: f64,
    /// Per-iteration communication time on this placement, seconds.
    pub comm_secs: f64,
    /// End-to-end slowdown factor (≥ 1) relative to ideal execution of the
    /// same gang: multiply the job's service time by this.
    pub slowdown: f64,
    /// Scaling efficiency (0..=1): useful compute fraction of an iteration.
    pub efficiency: f64,
}

/// The execution layer's analytic model.
///
/// *Ideal* execution — the baseline the slowdown is relative to — is the
/// same gang on reference hardware (A100) with zero communication cost.
/// A job's recorded service time is its runtime under ideal execution, so
/// `actual_runtime = service_secs × slowdown`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecModel {
    config: ExecConfig,
}

impl ExecModel {
    /// Creates a model from configuration.
    pub fn new(config: ExecConfig) -> Self {
        ExecModel { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Plans a training task: `total_gpus` GPUs of `gpu_model` spread over
    /// `nodes`, synchronizing `profile`'s gradients via `runtime`.
    ///
    /// `nodes` is the placement's distinct node set, ascending — each node
    /// once however many workers it holds (debug builds assert it).
    ///
    /// `RuntimePreference::Auto` resolves to all-reduce for multi-GPU tasks
    /// and single-process otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `total_gpus == 0` or `nodes` is empty.
    pub fn plan_training(
        &self,
        cluster: &Cluster,
        runtime: RuntimePreference,
        nodes: &[NodeId],
        total_gpus: u32,
        gpu_model: GpuModel,
        profile: &ModelProfile,
    ) -> ExecutionPlan {
        assert!(total_gpus > 0, "training needs at least one GPU");
        assert!(!nodes.is_empty(), "placement has no nodes");
        debug_assert!(
            is_node_set(nodes),
            "not a distinct ascending node set: {nodes:?}"
        );

        let runtime = match runtime {
            RuntimePreference::Auto if total_gpus > 1 => RuntimePreference::AllReduce,
            RuntimePreference::Auto => RuntimePreference::SingleProcess,
            explicit => explicit,
        };

        // Compute: reference iteration time scaled by hardware speed.
        let reference = GpuModel::A100.relative_speed();
        let compute_secs = profile.compute_secs_per_iter * reference / gpu_model.relative_speed();

        let comm_secs = match runtime {
            RuntimePreference::SingleProcess => 0.0,
            RuntimePreference::AllReduce => {
                self.allreduce_secs(cluster, nodes, total_gpus, gpu_model, profile.param_mb)
            }
            RuntimePreference::ParameterServer => {
                let bw = comm::bottleneck_bandwidth_gbps(cluster, nodes);
                comm::parameter_server_secs(profile.param_mb, total_gpus, PS_SHARDS, bw)
            }
            RuntimePreference::InNetworkAggregation => {
                // Switch aggregation works at the rack's ToR: single-rack
                // gangs get line-rate aggregation; anything wider falls
                // back to the all-reduce path.
                if nodes.len() == 1 {
                    let bw = comm::intra_node_bandwidth_gbps(cluster, gpu_model);
                    comm::ring_allreduce_secs(profile.param_mb, total_gpus, bw)
                } else if cluster.topology().racks_spanned(nodes) == 1 {
                    let bw = comm::bottleneck_bandwidth_gbps(cluster, nodes);
                    comm::in_network_allreduce_secs(profile.param_mb, total_gpus, bw)
                } else {
                    self.allreduce_secs(cluster, nodes, total_gpus, gpu_model, profile.param_mb)
                }
            }
            RuntimePreference::Auto => unreachable!("resolved above"),
        };

        let actual_iter = compute_secs + comm_secs + ITER_OVERHEAD_SECS;
        // Ideal: reference-hardware compute only.
        let ideal_iter = profile.compute_secs_per_iter;
        let slowdown = (actual_iter / ideal_iter).max(1.0);
        let efficiency = (compute_secs / actual_iter).clamp(0.0, 1.0);
        ExecutionPlan {
            runtime,
            compute_secs,
            comm_secs,
            slowdown,
            efficiency,
        }
    }

    /// Plans a non-training task (interactive, inference, CPU batch): no
    /// gradient synchronization, hardware speed still applies to GPU kinds.
    pub fn plan_simple(&self, gpu_model: Option<GpuModel>) -> ExecutionPlan {
        let slowdown = match gpu_model {
            Some(m) => (GpuModel::A100.relative_speed() / m.relative_speed()).max(1.0),
            None => 1.0,
        };
        ExecutionPlan {
            runtime: RuntimePreference::SingleProcess,
            compute_secs: 0.0,
            comm_secs: 0.0,
            slowdown,
            efficiency: 1.0,
        }
    }

    /// Fractional slowdown per co-located tenant job on a shared node
    /// (PCIe/host-memory/NIC contention).
    const INTERFERENCE_PER_COTENANT: f64 = 0.03;

    /// Co-location interference factor (≥ 1) for a placement: the mean
    /// number of *other* leases sharing the job's nodes, each adding
    /// `INTERFERENCE_PER_COTENANT`.
    ///
    /// `nodes` is the placement's distinct node set, ascending — each node
    /// once however many workers it holds (debug builds assert it).
    ///
    /// Evaluated once when the job starts (a documented simplification —
    /// neighbours that arrive later do not retroactively slow it), which is
    /// why spreading across emptier nodes pays off for interference even
    /// though it costs communication locality.
    pub fn interference_factor(&self, cluster: &Cluster, nodes: &[NodeId]) -> f64 {
        debug_assert!(
            is_node_set(nodes),
            "not a distinct ascending node set: {nodes:?}"
        );
        if nodes.is_empty() {
            return 1.0;
        }
        let cotenants: f64 = nodes
            .iter()
            .filter_map(|&id| cluster.node(id))
            .map(|n| n.lease_count().saturating_sub(1) as f64)
            .sum::<f64>()
            / nodes.len() as f64;
        1.0 + Self::INTERFERENCE_PER_COTENANT * cotenants
    }

    fn allreduce_secs(
        &self,
        cluster: &Cluster,
        nodes: &[NodeId],
        total_gpus: u32,
        gpu_model: GpuModel,
        param_mb: f64,
    ) -> f64 {
        if nodes.len() == 1 {
            let bw = comm::intra_node_bandwidth_gbps(cluster, gpu_model);
            return comm::ring_allreduce_secs(param_mb, total_gpus, bw);
        }
        let inter_bw = comm::bottleneck_bandwidth_gbps(cluster, nodes);
        if self.config.hierarchical_allreduce {
            let intra_bw = comm::intra_node_bandwidth_gbps(cluster, gpu_model);
            let node_count = u32::try_from(nodes.len()).expect("node count fits u32");
            let gpus_per_node = (total_gpus / node_count).max(1);
            comm::hierarchical_allreduce_secs(
                param_mb,
                node_count,
                gpus_per_node,
                intra_bw,
                inter_bw,
            )
        } else {
            comm::ring_allreduce_secs(param_mb, total_gpus, inter_bw)
        }
    }
}

/// Whether `nodes` is strictly ascending: a set, each node named once.
pub(crate) fn is_node_set(nodes: &[NodeId]) -> bool {
    nodes.windows(2).all(|pair| pair[0] < pair[1])
}

impl Default for ExecModel {
    fn default() -> Self {
        ExecModel::new(ExecConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::ClusterSpec;

    fn cluster() -> Cluster {
        Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8))
    }

    fn nodes(ids: &[usize]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn single_gpu_has_unit_slowdown_on_reference_hw() {
        let plan = ExecModel::default().plan_training(
            &cluster(),
            RuntimePreference::Auto,
            &nodes(&[0]),
            1,
            GpuModel::A100,
            &ModelProfile::resnet50_like(),
        );
        assert_eq!(plan.runtime, RuntimePreference::SingleProcess);
        assert_eq!(plan.comm_secs, 0.0);
        // Only the fixed iteration overhead separates it from ideal.
        assert!(plan.slowdown < 1.1);
    }

    #[test]
    fn slower_hardware_stretches_compute() {
        let a100 = ExecModel::default().plan_simple(Some(GpuModel::A100));
        let v100 = ExecModel::default().plan_simple(Some(GpuModel::V100));
        let cpu = ExecModel::default().plan_simple(None);
        assert_eq!(a100.slowdown, 1.0);
        assert!(v100.slowdown > 2.0); // A100 ≈ 2.5x V100
        assert_eq!(cpu.slowdown, 1.0);
    }

    #[test]
    fn cross_rack_placement_is_slower_than_single_rack() {
        let m = ExecModel::default();
        let profile = ModelProfile::gpt2_like();
        let same_rack = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &nodes(&[0, 1]),
            16,
            GpuModel::A100,
            &profile,
        );
        let cross_rack = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &nodes(&[0, 4]),
            16,
            GpuModel::A100,
            &profile,
        );
        assert!(cross_rack.comm_secs > same_rack.comm_secs);
        assert!(cross_rack.slowdown > same_rack.slowdown);
        assert!(cross_rack.efficiency < same_rack.efficiency);
    }

    #[test]
    fn hierarchical_beats_flat_for_multinode() {
        let profile = ModelProfile::gpt2_like();
        let hier = ExecModel::new(ExecConfig {
            hierarchical_allreduce: true,
        });
        let flat = ExecModel::new(ExecConfig {
            hierarchical_allreduce: false,
        });
        let placement = nodes(&[0, 1, 2, 3]);
        let h = hier.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        let f = flat.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        assert!(h.comm_secs < f.comm_secs);
    }

    #[test]
    fn in_network_beats_allreduce_within_a_rack() {
        let m = ExecModel::default();
        let profile = ModelProfile::gpt2_like();
        // Nodes 0..4 share rack 0 in the 2x4 cluster.
        let placement = nodes(&[0, 1, 2, 3]);
        let ar = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        let atp = m.plan_training(
            &cluster(),
            RuntimePreference::InNetworkAggregation,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        assert!(
            atp.comm_secs < ar.comm_secs,
            "atp {} vs ar {}",
            atp.comm_secs,
            ar.comm_secs
        );
        // Cross-rack placement falls back to the all-reduce cost.
        let wide = nodes(&[0, 4]);
        let atp_wide = m.plan_training(
            &cluster(),
            RuntimePreference::InNetworkAggregation,
            &wide,
            16,
            GpuModel::A100,
            &profile,
        );
        let ar_wide = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &wide,
            16,
            GpuModel::A100,
            &profile,
        );
        assert_eq!(atp_wide.comm_secs, ar_wide.comm_secs);
    }

    #[test]
    fn ps_worse_than_allreduce_at_scale() {
        let m = ExecModel::default();
        let profile = ModelProfile::gpt2_like();
        let placement = nodes(&[0, 1, 2, 3]);
        let ar = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        let ps = m.plan_training(
            &cluster(),
            RuntimePreference::ParameterServer,
            &placement,
            32,
            GpuModel::A100,
            &profile,
        );
        assert!(ps.comm_secs > ar.comm_secs);
    }

    /// The placement's node set is the caller's to build: a gang's
    /// per-worker list, repeating node 0, is refused, not re-deduplicated.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a distinct ascending node set")]
    fn repeated_worker_nodes_are_refused() {
        ExecModel::default().plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &nodes(&[0, 0]),
            8,
            GpuModel::A100,
            &ModelProfile::resnet50_like(),
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a distinct ascending node set")]
    fn interference_refuses_an_unsorted_node_set() {
        ExecModel::default().interference_factor(&cluster(), &nodes(&[1, 0]));
    }

    #[test]
    fn efficiency_drops_with_gradient_size() {
        let m = ExecModel::default();
        let placement = nodes(&[0, 1]);
        let small = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            16,
            GpuModel::A100,
            &ModelProfile::small_cnn(),
        );
        let big = m.plan_training(
            &cluster(),
            RuntimePreference::AllReduce,
            &placement,
            16,
            GpuModel::A100,
            &ModelProfile::gpt2_like(),
        );
        assert!(big.efficiency < small.efficiency + 0.2);
        assert!(big.comm_secs > small.comm_secs);
    }

    #[test]
    fn interference_scales_with_cotenancy() {
        use tacc_cluster::ResourceVec;
        let mut c = cluster();
        let m = ExecModel::default();
        let n0 = NodeId::from_index(0);
        // Exclusive node: no interference (the job's own lease doesn't count).
        c.allocate([(n0, ResourceVec::gpus_only(2))]).expect("fits");
        assert_eq!(m.interference_factor(&c, &[n0]), 1.0);
        // Two co-tenants: 2 × 3% slowdown.
        c.allocate([(n0, ResourceVec::gpus_only(2))]).expect("fits");
        c.allocate([(n0, ResourceVec::gpus_only(2))]).expect("fits");
        assert!((m.interference_factor(&c, &[n0]) - 1.06).abs() < 1e-12);
        // Mixed placement averages across nodes.
        let n1 = NodeId::from_index(1);
        c.allocate([(n1, ResourceVec::gpus_only(8))]).expect("fits");
        let f = m.interference_factor(&c, &[n0, n1]);
        assert!((f - (1.0 + 0.03 * 1.0)).abs() < 1e-12); // (2 + 0)/2 co-tenants
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        ExecModel::default().plan_training(
            &cluster(),
            RuntimePreference::Auto,
            &nodes(&[0]),
            0,
            GpuModel::A100,
            &ModelProfile::resnet50_like(),
        );
    }
}
