//! Layer-boundary integration: schema JSON through tcloud, compiler cache
//! behaviour across realistic submission streams, and execution-model
//! crossovers the paper's figures depend on.

use tacc_cluster::{Cluster, ClusterSpec, GpuModel, NodeId};
use tacc_compiler::{Compiler, CompilerConfig};
use tacc_core::PlatformConfig;
use tacc_exec::{comm, ExecConfig, ExecModel};
use tacc_tcloud::TcloudClient;
use tacc_tests::small_trace;
use tacc_workload::{GroupId, ModelProfile, RuntimePreference, TaskSchema};

/// A schema serialized on one "machine" drives a full tcloud session on
/// another — the paper's reproducibility story.
#[test]
fn schema_json_round_trips_through_tcloud() {
    let schema = TaskSchema::builder("portable", GroupId::from_index(2))
        .workers(2)
        .resources(tacc_cluster::ResourceVec::gpus_only(8))
        .est_duration_secs(900.0)
        .build()
        .expect("valid");
    let json = schema.to_json().to_string();

    let mut client = TcloudClient::with_profile("a", PlatformConfig::default());
    client.add_profile("b", PlatformConfig::default());
    for profile in ["a", "b"] {
        client.use_profile(profile).expect("exists");
        let out = client
            .run_command(&["submit", &json, "--service", "900"])
            .expect("valid");
        assert!(out.text().contains("submitted job"));
        let wait = client.run_command(&["wait", "0"]).expect("wait");
        assert!(wait.text().contains("completed"), "{}", wait.text());
    }
}

/// Replaying a real trace's schemas through the compiler: the warm half of
/// the stream must transfer far less than the cold half.
#[test]
fn cache_warms_over_a_real_stream() {
    let trace = small_trace(201, 2.0, 1.0);
    let schemas: Vec<_> = trace.records().iter().map(|r| &r.schema).collect();
    let mut compiler = Compiler::new(CompilerConfig::default());
    let half = schemas.len() / 2;
    let mut cold = 0.0;
    for s in &schemas[..half] {
        cold += compiler
            .compile(s)
            .expect("valid")
            .provisioning
            .transferred_mb;
    }
    let mut warm = 0.0;
    for s in &schemas[half..] {
        warm += compiler
            .compile(s)
            .expect("valid")
            .provisioning
            .transferred_mb;
    }
    assert!(
        warm < cold * 0.5,
        "warm half moved {warm:.0} MiB vs cold {cold:.0} MiB"
    );
    assert!(compiler.cache().stats().hit_rate() > 0.5);
}

/// The execution model's headline crossovers: ring beats PS at scale,
/// hierarchical beats flat across nodes, RDMA beats TCP.
#[test]
fn execution_model_crossovers() {
    let rdma = Cluster::new(ClusterSpec::uniform(2, 4, GpuModel::A100, 8));
    let tcp = Cluster::new(
        ClusterSpec::builder()
            .pool(GpuModel::A100, 2, 4, 8)
            .speeds(tacc_cluster::LinkSpeeds::tcp_legacy())
            .build(),
    );
    let model = ExecModel::new(ExecConfig::default());
    let profile = ModelProfile::gpt2_like();
    let nodes: Vec<NodeId> = (0..4).map(NodeId::from_index).collect();

    let ar = model.plan_training(
        &rdma,
        RuntimePreference::AllReduce,
        &nodes,
        32,
        GpuModel::A100,
        &profile,
    );
    let ps = model.plan_training(
        &rdma,
        RuntimePreference::ParameterServer,
        &nodes,
        32,
        GpuModel::A100,
        &profile,
    );
    assert!(
        ar.efficiency > ps.efficiency,
        "ring must beat PS at 32 GPUs"
    );

    let tcp_ar = model.plan_training(
        &tcp,
        RuntimePreference::AllReduce,
        &nodes,
        32,
        GpuModel::A100,
        &profile,
    );
    assert!(ar.efficiency > tcp_ar.efficiency, "RDMA must beat TCP");

    // Raw model sanity at both extremes.
    assert!(
        comm::ring_allreduce_secs(1500.0, 64, 100.0)
            < comm::parameter_server_secs(1500.0, 64, 4, 100.0)
    );
    assert!(comm::ring_allreduce_secs(1500.0, 2, 100.0) > 0.0);
}

/// Heterogeneous pools: the same job runs slower on the consumer pool.
#[test]
fn heterogeneous_pools_change_runtime() {
    let spec = ClusterSpec::builder()
        .pool(GpuModel::A100, 1, 2, 8)
        .pool(GpuModel::Rtx3090, 1, 2, 8)
        .build();
    let cluster = Cluster::new(spec);
    let model = ExecModel::new(ExecConfig::default());
    let profile = ModelProfile::resnet50_like();
    let on = |node: usize, gpu| {
        model
            .plan_training(
                &cluster,
                RuntimePreference::AllReduce,
                &[NodeId::from_index(node)],
                8,
                gpu,
                &profile,
            )
            .slowdown
    };
    let a100 = on(0, GpuModel::A100);
    let consumer = on(2, GpuModel::Rtx3090);
    assert!(
        consumer > a100 * 2.0,
        "consumer pool should be >2x slower: {consumer:.2} vs {a100:.2}"
    );
}

/// tcloud distributed monitoring: logs from a multi-node job arrive merged
/// and ordered.
#[test]
fn tcloud_aggregates_distributed_logs() {
    let mut client = TcloudClient::with_profile("campus", PlatformConfig::default());
    let schema = TaskSchema::builder("dist", GroupId::from_index(0))
        .workers(4)
        .resources(tacc_cluster::ResourceVec::gpus_only(8))
        .est_duration_secs(600.0)
        .build()
        .expect("valid");
    let job = client.submit(schema, 600.0).expect("valid");
    client.wait(job).expect("exists");
    let logs = client.run_command(&["logs", "0"]).expect("exists").lines;
    assert!(logs.iter().any(|l| l.contains("4 node(s)")));
    // Timestamps are non-decreasing (merged view is ordered).
    let times: Vec<f64> = logs
        .iter()
        .map(|l| {
            l.trim_start_matches("[t=")
                .split('s')
                .next()
                .expect("format")
                .parse::<f64>()
                .expect("numeric timestamp")
        })
        .collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
}
