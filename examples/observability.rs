//! Observability tour: the event bus, `tcloud why`, and the operational
//! metrics registry, driven through a deliberately congested cluster.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use tacc_cluster::{ClusterSpec, GpuModel, ResourceVec};
use tacc_core::PlatformConfig;
use tacc_sched::QuotaMode;
use tacc_tcloud::TcloudClient;
use tacc_workload::{GroupId, GroupRoster, QosClass, TaskSchema};

fn main() {
    // A small cluster with tight static quotas so jobs visibly wait.
    let mut client = TcloudClient::with_profile(
        "campus",
        PlatformConfig {
            cluster: ClusterSpec::uniform(1, 4, GpuModel::A100, 8),
            roster: GroupRoster::campus_default(32),
            scheduler: tacc_sched::SchedulerConfig {
                quota: QuotaMode::Static,
                quotas: vec![16, 16, 0, 0, 0, 0, 0, 0],
                group_count: 8,
                ..Default::default()
            },
            ..PlatformConfig::default()
        },
    );

    // Group 0 saturates its 16-GPU quota with one long gang...
    let hog = TaskSchema::builder("hog", GroupId::from_index(0))
        .workers(2)
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(40_000.0)
        .build()
        .expect("valid");
    let hog_id = client.submit(hog, 40_000.0).expect("submits");
    client.advance(600.0).expect("advances");

    // ...then asks for more: this job queues behind the quota.
    let starved = TaskSchema::builder("starved", GroupId::from_index(0))
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(1_200.0)
        .build()
        .expect("valid");
    let starved_id = client.submit(starved, 1_200.0).expect("submits");

    // A neighbouring group's best-effort job runs fine meanwhile.
    let neighbour = TaskSchema::builder("neighbour", GroupId::from_index(1))
        .resources(ResourceVec::gpus_only(4))
        .qos(QosClass::BestEffort)
        .est_duration_secs(3_600.0)
        .build()
        .expect("valid");
    client.submit(neighbour, 3_600.0).expect("submits");
    client.advance(7_200.0).expect("advances");

    println!("== tcloud why: the scheduler explains a waiting job ==\n");
    for id in [hog_id, starved_id] {
        let out = client
            .run_command(&["why", &id.value().to_string()])
            .expect("why works");
        println!("$ tcloud why {}\n{}\n", id.value(), out.text());
    }

    println!("== tcloud events: the typed event stream of the stuck job ==\n");
    let out = client
        .run_command(&["events", &starved_id.value().to_string()])
        .expect("events work");
    println!("$ tcloud events {}\n{}\n", starved_id.value(), out.text());

    // Let everything drain, then inspect the telemetry.
    for id in [hog_id, starved_id] {
        client.wait(id).expect("job exists");
    }

    println!("== tcloud metrics: Prometheus exposition (excerpt) ==\n");
    let metrics = client.run_command(&["metrics"]).expect("metrics work");
    for line in metrics.lines.iter().filter(|l| {
        l.starts_with("# TYPE")
            || l.starts_with("tacc_core_jobs")
            || l.starts_with("tacc_sched_rounds")
            || l.starts_with("tacc_cluster_")
            || l.starts_with("tacc_compiler_cache")
    }) {
        println!("{line}");
    }

    let report = client.platform().report();
    let snapshot = client.platform().metrics();
    let round_latency = snapshot
        .histogram("tacc_sched_round_latency_seconds")
        .expect("the scheduler observes every round");
    println!(
        "\nrun: {} rounds, {} events recorded ({} dropped), \
         round latency p50 ~{:.0}us over {} rounds",
        report.rounds,
        report.events_recorded,
        report.events_dropped,
        round_latency.quantile(0.5) * 1e6,
        round_latency.count
    );
}
