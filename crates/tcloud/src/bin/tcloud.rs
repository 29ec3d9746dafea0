//! `tcloud` — the remote CLI, speaking to a live `taccd` daemon.
//!
//! ```text
//! tcloud --socket PATH submit <schema-json> --service <secs>
//! tcloud --socket PATH cancel <job-id>
//! tcloud --socket PATH status <job-id>
//! tcloud --socket PATH ps
//! tcloud --socket PATH events <job-id>
//! tcloud --socket PATH reserve <gpus> <start-secs> <duration-secs>
//! tcloud --socket PATH advance <secs>
//! tcloud --socket PATH fault <node> | drain <node> | undrain <node>
//! tcloud --socket PATH info | metrics | transitions | journal
//! ```
//!
//! Where the library's [`tacc_tcloud::TcloudClient`] drives an
//! in-process platform, this binary drives the service daemon through
//! [`tacc_tcloud::DaemonClient`]: every mutation is journalled and
//! fsynced by `taccd` before the acknowledgement that this tool prints.
//! Exit code 0 on success, 1 on a daemon/transport error, 2 on usage.

#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

use tacc_core::wire::Json;
use tacc_core::Command;
use tacc_tcloud::{DaemonClient, RetryPolicy, TransportError};

fn usage() -> ExitCode {
    println!(
        "usage: tcloud --socket PATH <verb> [...]\n\
         verbs:\n\
         \x20 submit <schema-json> --service <secs>\n\
         \x20 cancel <job-id>\n\
         \x20 status <job-id>\n\
         \x20 ps\n\
         \x20 events <job-id>\n\
         \x20 reserve <gpus> <start-secs> <duration-secs>\n\
         \x20 advance <secs>\n\
         \x20 fault <node> | drain <node> | undrain <node>\n\
         \x20 info | metrics | transitions | journal"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let (socket, rest) = match argv.as_slice() {
        ["--socket", path, rest @ ..] if !rest.is_empty() => (PathBuf::from(path), rest),
        _ => return usage(),
    };

    let mut client = match DaemonClient::connect(&socket, RetryPolicy::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("tcloud: {e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match rest {
        ["submit", json, "--service", secs] => submit(&mut client, json, secs),
        ["cancel", job] => with_job(job, |job| {
            mutate_and_print(
                &mut client,
                &Command::Cancel {
                    job: tacc_workload::JobId::from_value(job),
                },
            )
        }),
        ["status", job] => with_job(job, |job| {
            let status = client.query("status", Some(job))?;
            print_status(&status);
            Ok(())
        }),
        ["ps"] => client
            .query("list", None)
            .map(|list| print_ps(&list))
            .map_err(Transport),
        ["events", job] => with_job(job, |job| {
            let events = client.query("events", Some(job))?;
            for rec in events.as_arr().unwrap_or(&[]) {
                let at = rec.get("at_secs").and_then(Json::as_f64).unwrap_or(0.0);
                let seq = rec.get("seq").and_then(Json::as_u64).unwrap_or(0);
                let ev = rec.get("event").and_then(Json::as_str).unwrap_or("?");
                println!("[t={at:.1}s] #{seq} {ev}");
            }
            Ok(())
        }),
        ["reserve", gpus, start, duration] => reserve(&mut client, gpus, start, duration),
        ["advance", secs] => match secs.parse::<f64>() {
            Ok(secs) => mutate_and_print(&mut client, &Command::Advance { secs }),
            Err(_) => return usage(),
        },
        ["fault", node] => with_node(node, |node| {
            mutate_and_print(&mut client, &Command::FaultNode { node })
        }),
        ["drain", node] => with_node(node, |node| {
            mutate_and_print(&mut client, &Command::Drain { node })
        }),
        ["undrain", node] => with_node(node, |node| {
            mutate_and_print(&mut client, &Command::Undrain { node })
        }),
        ["info"] => client
            .query("info", None)
            .map(|v| println!("{v}"))
            .map_err(Transport),
        ["metrics"] => print_text_query(&mut client, "metrics"),
        ["transitions"] => print_text_query(&mut client, "transitions"),
        ["journal"] => client
            .query("journal", None)
            .map(|v| println!("{v}"))
            .map_err(Transport),
        _ => return usage(),
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Usage) => usage(),
        Err(Transport(e)) => {
            eprintln!("tcloud: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Verb-level failure: either bad arguments or a transport error.
enum VerbError {
    Usage,
    Transport(TransportError),
}
use VerbError::{Transport, Usage};

impl From<TransportError> for VerbError {
    fn from(e: TransportError) -> Self {
        Transport(e)
    }
}

fn with_job(arg: &str, f: impl FnOnce(u64) -> Result<(), VerbError>) -> Result<(), VerbError> {
    match arg.parse::<u64>() {
        Ok(job) => f(job),
        Err(_) => Err(Usage),
    }
}

fn with_node(arg: &str, f: impl FnOnce(u32) -> Result<(), VerbError>) -> Result<(), VerbError> {
    match arg.trim_start_matches("node").parse::<u32>() {
        Ok(node) => f(node),
        Err(_) => Err(Usage),
    }
}

fn mutate_and_print(client: &mut DaemonClient, command: &Command) -> Result<(), VerbError> {
    let outcome = client.mutate(command)?;
    println!("{outcome}");
    Ok(())
}

fn submit(client: &mut DaemonClient, json: &str, secs: &str) -> Result<(), VerbError> {
    let service_secs = secs.parse::<f64>().map_err(|_| Usage)?;
    let outcome = client.submit_json(json, service_secs)?;
    println!("{outcome}");
    Ok(())
}

fn reserve(
    client: &mut DaemonClient,
    gpus: &str,
    start: &str,
    duration: &str,
) -> Result<(), VerbError> {
    let gpus = gpus.parse::<u32>().map_err(|_| Usage)?;
    let start = start.parse::<f64>().map_err(|_| Usage)?;
    let duration = duration.parse::<f64>().map_err(|_| Usage)?;
    mutate_and_print(
        client,
        &Command::Reserve {
            gpus,
            from_secs: start,
            until_secs: start + duration,
        },
    )
}

fn print_text_query(client: &mut DaemonClient, kind: &str) -> Result<(), VerbError> {
    let v = client.query(kind, None)?;
    match v.as_str() {
        Some(text) => print!("{text}"),
        None => println!("{v}"),
    }
    Ok(())
}

fn print_status(status: &Json) {
    let job = status.get("job").and_then(Json::as_u64).unwrap_or(0);
    let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
    let name = status.get("name").and_then(Json::as_str).unwrap_or("?");
    let nodes: Vec<String> = status
        .get("nodes")
        .and_then(Json::as_arr)
        .map(|ns| {
            ns.iter()
                .filter_map(Json::as_u64)
                .map(|n| format!("node{n}"))
                .collect()
        })
        .unwrap_or_default();
    println!(
        "job {job}: {state} '{name}' on [{}] (submitted t={:.1}s, {:.1}s remaining, {} preemption(s))",
        nodes.join(","),
        status.get("submit_secs").and_then(Json::as_f64).unwrap_or(0.0),
        status.get("remaining_secs").and_then(Json::as_f64).unwrap_or(0.0),
        status.get("preemptions").and_then(Json::as_u64).unwrap_or(0),
    );
}

fn print_ps(list: &Json) {
    println!("{:<8} {:<12} {:<20} NODES", "JOB", "STATE", "NAME");
    for status in list.as_arr().unwrap_or(&[]) {
        let nodes: Vec<String> = status
            .get("nodes")
            .and_then(Json::as_arr)
            .map(|ns| {
                ns.iter()
                    .filter_map(Json::as_u64)
                    .map(|n| n.to_string())
                    .collect()
            })
            .unwrap_or_default();
        println!(
            "{:<8} {:<12} {:<20} {}",
            status.get("job").and_then(Json::as_u64).unwrap_or(0),
            status.get("state").and_then(Json::as_str).unwrap_or("?"),
            status.get("name").and_then(Json::as_str).unwrap_or("?"),
            nodes.join(","),
        );
    }
}
