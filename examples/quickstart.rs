//! Quickstart: stand up a platform, submit three tasks, read the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use tacc_cluster::{ClusterSpec, GpuModel, ResourceVec};
use tacc_core::{Command, CommandOutcome, Platform, PlatformConfig};
use tacc_workload::{GroupId, GroupRoster, JobId, ModelProfile, QosClass, TaskSchema};

/// Every request to a platform is a [`Command`]; a submission answers
/// with the id of the job it minted.
fn submit(platform: &mut Platform, schema: TaskSchema, service_secs: f64) -> JobId {
    let command = Command::Submit {
        schema: schema.into(),
        service_secs,
    };
    match platform.apply_command(&command) {
        Ok(CommandOutcome::Submitted { job }) => job,
        other => panic!("submit answered {other:?}"),
    }
}

fn main() {
    // A small shared cluster: 2 racks x 4 nodes x 8 A100s, 4 groups.
    let config = PlatformConfig {
        cluster: ClusterSpec::uniform(2, 4, GpuModel::A100, 8),
        roster: GroupRoster::new(vec![
            ("vision".to_owned(), 24, 2.0),
            ("nlp".to_owned(), 24, 2.0),
            ("systems".to_owned(), 8, 1.0),
            ("robotics".to_owned(), 8, 1.0),
        ]),
        ..PlatformConfig::default()
    };
    let mut platform = Platform::new(config);

    // 1. A single-GPU fine-tuning run (the everyday case).
    let fine_tune = TaskSchema::builder("bert-finetune", GroupId::from_index(1))
        .resources(ResourceVec::gpus_only(1))
        .est_duration_secs(2.0 * 3600.0)
        .model(ModelProfile::resnet50_like())
        .build()
        .expect("valid schema");
    let j1 = submit(&mut platform, fine_tune, 2.0 * 3600.0);

    // 2. A 16-GPU distributed training gang (2 nodes x 8 GPUs).
    let pretrain = TaskSchema::builder("gpt2-pretrain", GroupId::from_index(0))
        .workers(2)
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(6.0 * 3600.0)
        .model(ModelProfile::gpt2_like())
        .build()
        .expect("valid schema");
    let j2 = submit(&mut platform, pretrain, 6.0 * 3600.0);

    // 3. A best-effort hyperparameter sweep that borrows idle capacity.
    let sweep = TaskSchema::builder("hparam-sweep", GroupId::from_index(2))
        .resources(ResourceVec::gpus_only(4))
        .qos(QosClass::BestEffort)
        .est_duration_secs(3600.0)
        .build()
        .expect("valid schema");
    let j3 = submit(&mut platform, sweep, 3600.0);

    platform.run_until_idle();

    println!("== quickstart: three tasks through the full stack ==\n");
    for (label, id) in [("fine-tune", j1), ("pretrain", j2), ("sweep", j3)] {
        let job = platform.job(id).expect("submitted above");
        println!(
            "{label:>10}: state={} queue-delay={:.0}s jct={:.0}s",
            job.state(),
            job.queueing_delay_secs().unwrap_or(0.0),
            job.jct_secs().unwrap_or(0.0),
        );
        for (t, line) in platform.job_log(id) {
            println!("             [t={t:>8.1}s] {line}");
        }
        println!();
    }

    let report = platform.report();
    println!(
        "cluster: {} jobs completed, mean JCT {:.0}s, mean utilization {:.1}%",
        report.completed,
        report.jct.mean(),
        report.mean_utilization * 100.0
    );
}
