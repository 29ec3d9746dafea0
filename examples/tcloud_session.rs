//! A scripted `tcloud` terminal session against two cluster profiles.
//!
//! Mirrors the workflow in paper §4: submit from a laptop, watch the
//! aggregated distributed logs, kill a job mid-run, and retarget a second
//! cluster by switching one line of configuration.
//!
//! ```sh
//! cargo run --release --example tcloud_session
//! ```

// Examples narrate to stdout by design.
#![allow(clippy::print_stdout)]

use tacc_cluster::{ClusterSpec, GpuModel, ResourceVec};
use tacc_core::PlatformConfig;
use tacc_tcloud::TcloudClient;
use tacc_workload::{GroupId, GroupRoster, TaskSchema};

fn small_cluster(seed: u64) -> PlatformConfig {
    PlatformConfig {
        cluster: ClusterSpec::uniform(1, 4, GpuModel::A100, 8),
        roster: GroupRoster::campus_default(32),
        seed,
        ..PlatformConfig::default()
    }
}

fn run(client: &mut TcloudClient, argv: &[&str]) {
    println!("$ tcloud {}", argv.join(" "));
    match client.run_command(argv) {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
        }
        Err(e) => println!("error: {e}"),
    }
    println!();
}

fn main() {
    let mut client = TcloudClient::with_profile("campus", small_cluster(1));
    client.add_profile("lab-cluster", small_cluster(2));

    let training = TaskSchema::builder("cifar-train", GroupId::from_index(0))
        .workers(2)
        .resources(ResourceVec::gpus_only(8))
        .est_duration_secs(1800.0)
        .build()
        .expect("valid schema");
    let training_json = training.to_json().to_string();

    let runaway = TaskSchema::builder("runaway-sweep", GroupId::from_index(1))
        .resources(ResourceVec::gpus_only(4))
        .est_duration_secs(20.0 * 3600.0)
        .build()
        .expect("valid schema");
    let runaway_json = runaway.to_json().to_string();

    run(&mut client, &["info"]);
    run(
        &mut client,
        &["submit", &training_json, "--service", "1800"],
    );
    run(
        &mut client,
        &["submit", &runaway_json, "--service", "72000"],
    );
    run(&mut client, &["ps"]);

    // Let the cluster work for an hour, then look again.
    client.advance(3600.0).expect("advances");
    run(&mut client, &["ps"]);

    // The distributed job's logs, aggregated across its nodes.
    run(&mut client, &["wait", "0"]);
    run(&mut client, &["logs", "0"]);

    // Pull its checkpoint and per-worker logs off the nodes.
    run(&mut client, &["get", "0"]);

    // Operator views: per-node occupancy and per-group quota usage.
    run(&mut client, &["top"]);
    run(&mut client, &["quota"]);

    // Take a node out for maintenance and put it back.
    run(&mut client, &["drain", "2"]);
    run(&mut client, &["undrain", "2"]);

    // That sweep is a mistake — cancel it everywhere at once.
    run(&mut client, &["cancel", "1"]);
    run(&mut client, &["ps"]);

    // Same workflow, different cluster: one line of configuration.
    run(&mut client, &["use", "lab-cluster"]);
    run(&mut client, &["info"]);
    run(
        &mut client,
        &["submit", &training_json, "--service", "1800"],
    );
    run(&mut client, &["wait", "0"]);
}
