//! The service-mode load generator: N concurrent `tcloud` clients
//! hammering a live `taccd` daemon, measuring sustained submissions/sec
//! and admission-latency quantiles.
//!
//! "Admission latency" here is the full durable round trip: build the
//! command, frame it, cross the socket, wait for the daemon to validate,
//! apply, journal, and **fsync** the command, and read the
//! acknowledgement back. That is the latency a paper-§4 user feels
//! between `tcloud submit` and the job existing durably.
//!
//! Unlike the hot-path harness (whose counters are deterministic and
//! CI-gated), everything this module measures is wall time by nature —
//! the report is informational, uploaded as a CI artifact
//! (`BENCH_service.json`) and never byte-compared.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tacc_core::Command;
use tacc_tcloud::{DaemonClient, RetryPolicy};
use tacc_workload::{GroupId, TaskSchema};

use tacc_json::{obj, Json};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ServiceBenchConfig {
    /// Concurrent client connections (the acceptance floor is 8).
    pub clients: usize,
    /// Submissions each client performs.
    pub requests_per_client: usize,
    /// The daemon socket to connect to.
    pub socket: PathBuf,
}

impl Default for ServiceBenchConfig {
    fn default() -> Self {
        ServiceBenchConfig {
            clients: 8,
            requests_per_client: 250,
            socket: PathBuf::from("/tmp/taccd.sock"),
        }
    }
}

/// Aggregated load-generation outcome.
#[derive(Debug, Clone)]
pub struct ServiceBenchResult {
    /// Concurrent clients that ran.
    pub clients: usize,
    /// Total acknowledged submissions across all clients.
    pub acknowledged: usize,
    /// Requests that failed (transport or daemon errors).
    pub errors: usize,
    /// Wall time of the whole load phase, seconds.
    pub wall_secs: f64,
    /// Sustained acknowledged submissions per second.
    pub submissions_per_sec: f64,
    /// Median admission latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile admission latency, milliseconds.
    pub p99_ms: f64,
    /// Worst observed admission latency, milliseconds.
    pub max_ms: f64,
}

/// A tiny self-contained schema, unique per client/request so daemon-side
/// job names stay distinguishable in transition logs.
fn bench_schema(client: usize, request: usize) -> Option<TaskSchema> {
    TaskSchema::builder(&format!("svc-c{client}-r{request}"), GroupId::from_index(0))
        .est_duration_secs(60.0)
        .build()
        .ok()
}

/// Runs the load: `clients` threads, each with its own connection,
/// each submitting `requests_per_client` jobs back to back.
///
/// # Errors
///
/// A human-readable message when no client could connect or every
/// request failed — partial failures are reported in the result instead.
pub fn run_load(config: &ServiceBenchConfig) -> Result<ServiceBenchResult, String> {
    let clients = config.clients.max(1);
    let per_client = config.requests_per_client.max(1);

    // tacc-lint: allow(wall-clock, reason = "service benchmark measures real socket+fsync round trips; informational artifact, never byte-compared")
    let start = Instant::now();
    let mut handles = Vec::new();
    for client in 0..clients {
        let socket = config.socket.clone();
        handles.push(std::thread::spawn(move || {
            client_loop(&socket, client, per_client)
        }));
    }
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * per_client);
    let mut errors = 0usize;
    let mut connect_failures = 0usize;
    for handle in handles {
        match handle.join() {
            Ok(Ok((lats, errs))) => {
                latencies_ms.extend(lats);
                errors += errs;
            }
            Ok(Err(_)) => connect_failures += 1,
            Err(_) => connect_failures += 1,
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();

    if connect_failures == clients {
        return Err(format!(
            "no client could connect to {}",
            config.socket.display()
        ));
    }
    if latencies_ms.is_empty() {
        return Err("every request failed; nothing to report".to_owned());
    }

    latencies_ms.sort_by(f64::total_cmp);
    let acknowledged = latencies_ms.len();
    Ok(ServiceBenchResult {
        clients,
        acknowledged,
        errors: errors + connect_failures * per_client,
        wall_secs,
        submissions_per_sec: acknowledged as f64 / wall_secs.max(1e-9),
        p50_ms: quantile(&latencies_ms, 0.50),
        p99_ms: quantile(&latencies_ms, 0.99),
        max_ms: latencies_ms.last().copied().unwrap_or(0.0),
    })
}

/// One client's life: connect, submit `requests` jobs, record each
/// acknowledged round trip in milliseconds.
fn client_loop(socket: &Path, client: usize, requests: usize) -> Result<(Vec<f64>, usize), String> {
    let mut conn =
        DaemonClient::connect(socket, RetryPolicy::default()).map_err(|e| e.to_string())?;
    let mut latencies = Vec::with_capacity(requests);
    let mut errors = 0usize;
    for request in 0..requests {
        let Some(schema) = bench_schema(client, request) else {
            errors += 1;
            continue;
        };
        let command = Command::Submit {
            schema,
            service_secs: 60.0,
        };
        // tacc-lint: allow(wall-clock, reason = "per-request admission latency is the quantity under measurement")
        let sent = Instant::now();
        match conn.mutate(&command) {
            Ok(_) => latencies.push(sent.elapsed().as_secs_f64() * 1e3),
            Err(_) => errors += 1,
        }
    }
    Ok((latencies, errors))
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The `BENCH_service.json` document.
pub fn report_json(result: &ServiceBenchResult) -> Json {
    obj(vec![
        ("schema_version", 1u64.into()),
        ("benchmark", "service".into()),
        (
            "workload",
            obj(vec![
                ("clients", result.clients.into()),
                ("acknowledged", result.acknowledged.into()),
                ("errors", result.errors.into()),
            ]),
        ),
        (
            "throughput",
            obj(vec![
                ("wall_secs", result.wall_secs.into()),
                ("submissions_per_sec", result.submissions_per_sec.into()),
            ]),
        ),
        (
            "admission_latency_ms",
            obj(vec![
                ("p50", result.p50_ms.into()),
                ("p99", result.p99_ms.into()),
                ("max", result.max_ms.into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.50), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&sorted, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_shape_is_stable() {
        let result = ServiceBenchResult {
            clients: 8,
            acknowledged: 2000,
            errors: 0,
            wall_secs: 2.5,
            submissions_per_sec: 800.0,
            p50_ms: 1.2,
            p99_ms: 4.5,
            max_ms: 9.0,
        };
        let doc = report_json(&result);
        assert_eq!(
            doc.get("workload").and_then(|w| w.get("clients")),
            Some(&Json::Num(8.0))
        );
        assert_eq!(
            doc.get("admission_latency_ms").and_then(|l| l.get("p99")),
            Some(&Json::Num(4.5))
        );
        assert!(doc.to_pretty().contains("submissions_per_sec"));
    }

    #[test]
    fn end_to_end_against_an_in_process_daemon() {
        use tacc_taccd::{ClockMode, Daemon, DaemonConfig, EngineConfig};
        let mut socket = std::env::temp_dir();
        socket.push(format!("tacc-bench-svc-{}.sock", std::process::id()));
        let mut journal = std::env::temp_dir();
        journal.push(format!("tacc-bench-svc-{}.journal", std::process::id()));
        std::fs::remove_file(&journal).ok();
        let (daemon, _) = Daemon::start(DaemonConfig {
            socket: socket.clone(),
            engine: EngineConfig {
                journal: journal.clone(),
                platform: tacc_core::PlatformConfig::default(),
                clock: ClockMode::Logical,
            },
        })
        .expect("daemon starts");

        let result = run_load(&ServiceBenchConfig {
            clients: 8,
            requests_per_client: 5,
            socket: socket.clone(),
        })
        .expect("load completes");
        assert_eq!(result.clients, 8);
        assert_eq!(result.acknowledged, 40, "every submit is acknowledged");
        assert_eq!(result.errors, 0);
        assert!(result.p99_ms >= result.p50_ms);
        assert!(result.submissions_per_sec > 0.0);

        daemon.stop();
        std::fs::remove_file(&journal).ok();
    }
}
