//! Experiment F6 — distributed-training scaling.
//!
//! The execution-layer figure: per-iteration time and scaling efficiency of
//! ring, tree and hierarchical all-reduce and the parameter server, from 1
//! to 64 GPUs, on the RDMA fabric and on a legacy TCP fabric. See
//! EXPERIMENTS.md § F6.

use crate::report::{ExperimentResult, Reporter};
use tacc_cluster::{Cluster, ClusterSpec, GpuModel, LinkSpeeds, NodeId};
use tacc_exec::comm;
use tacc_exec::{ExecConfig, ExecModel};
use tacc_metrics::Table;
use tacc_workload::{ModelProfile, RuntimePreference};

fn cluster(speeds: LinkSpeeds) -> Cluster {
    Cluster::new(
        ClusterSpec::builder()
            .pool(GpuModel::A100, 2, 4, 8)
            .speeds(speeds)
            .build(),
    )
}

fn nodes_for(gpus: u32) -> Vec<NodeId> {
    (0..gpus.div_ceil(8).max(1) as usize)
        .map(NodeId::from_index)
        .collect()
}

/// Runs the experiment against `r`.
pub fn run(r: &mut Reporter) -> ExperimentResult {
    let profile = ModelProfile::gpt2_like();
    let headline = format!(
        "F6: GPT-2-like model ({} MiB gradients, {:.2}s compute/iter on A100)",
        profile.param_mb, profile.compute_secs_per_iter
    );
    r.line(&format!("{headline}\n"));

    // --- Raw collective costs (pure comm model) ---------------------
    let mut raw = Table::new(
        "F6a: synchronization time per round (ms), 100 Gbps bottleneck",
        &[
            "n",
            "ring",
            "tree",
            "hierarchical(4x8)",
            "in-network",
            "PS (4 shards)",
        ],
    );
    for n in [2u32, 4, 8, 16, 32, 64] {
        let hier = if n >= 8 {
            comm::hierarchical_allreduce_secs(profile.param_mb, n / 8, 8, 600.0, 100.0) * 1000.0
        } else {
            comm::ring_allreduce_secs(profile.param_mb, n, 600.0) * 1000.0
        };
        raw.row(vec![
            (n as usize).into(),
            (comm::ring_allreduce_secs(profile.param_mb, n, 100.0) * 1000.0).into(),
            (comm::tree_allreduce_secs(profile.param_mb, n, 100.0) * 1000.0).into(),
            hier.into(),
            (comm::in_network_allreduce_secs(profile.param_mb, n, 100.0) * 1000.0).into(),
            (comm::parameter_server_secs(profile.param_mb, n, 4, 100.0) * 1000.0).into(),
        ]);
    }
    r.table(&raw);

    // --- End-to-end efficiency through the execution layer ----------
    let model = ExecModel::new(ExecConfig::default());
    let flat = ExecModel::new(ExecConfig {
        hierarchical_allreduce: false,
    });
    let rdma = cluster(LinkSpeeds::campus_default());
    let tcp = cluster(LinkSpeeds::tcp_legacy());

    let mut eff = Table::new(
        "F6b: scaling efficiency (%)",
        &[
            "GPUs",
            "hier-AR/RDMA",
            "flat-AR/RDMA",
            "hier-AR/TCP",
            "in-network/RDMA",
            "PS/RDMA",
        ],
    );
    for gpus in [1u32, 2, 4, 8, 16, 32, 64] {
        let nodes = nodes_for(gpus);
        let run = |m: &ExecModel, c: &Cluster, rt| {
            m.plan_training(c, rt, &nodes, gpus, GpuModel::A100, &profile)
                .efficiency
                * 100.0
        };
        eff.row(vec![
            (gpus as usize).into(),
            run(&model, &rdma, RuntimePreference::AllReduce).into(),
            run(&flat, &rdma, RuntimePreference::AllReduce).into(),
            run(&model, &tcp, RuntimePreference::AllReduce).into(),
            run(&model, &rdma, RuntimePreference::InNetworkAggregation).into(),
            run(&model, &rdma, RuntimePreference::ParameterServer).into(),
        ]);
    }
    r.table(&eff);
    r.line("(ring stays flat with n; PS degrades linearly; TCP fabric collapses");
    r.line(" multi-node efficiency; in-network aggregation halves the ring's cost");
    r.line(" within a rack and falls back to all-reduce across racks — the case for");
    r.line(" RDMA and programmable switches in the execution layer)");

    ExperimentResult { headline }
}
