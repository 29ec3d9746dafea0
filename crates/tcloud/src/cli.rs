//! The `tcloud` command surface: one verb table, one endpoint interface,
//! one renderer. [`run`] parses a verb into a [`Command`] or a [`Query`],
//! sends it to an [`Endpoint`] — the in-process [`TcloudClient`] or a live
//! daemon's [`crate::DaemonClient`] — and renders the reply, so every verb
//! prints the same lines whichever cluster is behind it.

use tacc_core::wire::Json;
use tacc_core::{Command, CommandError, Query};
use tacc_workload::JobId;

use crate::client::{schema_from_text, TcloudClient, TcloudError};

/// Every verb, as `tcloud` with no arguments prints it.
pub const USAGE: &str = "tcloud --socket PATH <verb> [...]
  submit <schema-json> [--service <secs>]
  cancel <job-id>
  reserve <gpus> <start-secs> <duration-secs>
  advance <secs>
  fault <node> | drain <node> | undrain <node>
  status <job-id> | ps | info | top | quota | goodput
  logs <job-id> | events <job-id> | timeline <job-id> | why <job-id>
  get <job-id>
  metrics | transitions | journal
  use <profile> | wait <job-id>    (in-process sessions only)";

/// The rendered result of one CLI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Human-readable output lines (what the terminal would print).
    pub lines: Vec<String>,
}

impl CommandOutput {
    /// All lines joined with newlines.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

/// What a verb is sent to: something that applies a [`Command`] and
/// answers a [`Query`], each reply the `ok` payload of the wire protocol
/// (`CommandOutcome::to_json`, `Platform::answer`). The in-process
/// [`TcloudClient`] and the socket's [`crate::DaemonClient`] implement it.
pub trait Endpoint {
    /// Applies one command and returns its acknowledgement.
    ///
    /// # Errors
    ///
    /// [`TcloudError::Refused`] when the platform rejects the command;
    /// [`TcloudError::Transport`] when the way there broke.
    fn mutate(&mut self, command: &Command) -> Result<Json, TcloudError>;

    /// Answers one query.
    ///
    /// # Errors
    ///
    /// [`TcloudError::Refused`] for an unknown job or a question the
    /// endpoint cannot answer; [`TcloudError::Transport`] as above.
    fn query(&mut self, query: &Query) -> Result<Json, TcloudError>;
}

/// One parsed command line.
enum Verb {
    Mutate(Command),
    Query(Query),
    /// Session verbs: they act on a [`TcloudClient`]'s own profiles and
    /// simulation clock, not on an endpoint.
    Use(String),
    Wait(JobId),
}

fn usage(message: &str) -> TcloudError {
    TcloudError::Usage(message.to_owned())
}

/// The verb table.
fn parse(argv: &[&str]) -> Result<Verb, TcloudError> {
    let job = |s: &str| {
        let id = s.parse().map_err(|_| usage("expected a numeric job id"));
        id.map(JobId::from_value)
    };
    let node = |s: &str| {
        let index = s.trim_start_matches("node").parse::<u32>();
        index.map_err(|_| usage("expected a node index (e.g. 3 or node3)"))
    };
    let secs = |s: &str| s.parse::<f64>().map_err(|_| usage("expected seconds"));
    Ok(match *argv {
        ["submit", json] | ["submit", json, "--service", _] => {
            let schema = schema_from_text(json).map_err(CommandError::InvalidTask)?;
            // Without an oracle the platform uses the user's estimate.
            let service_secs = match argv.get(3) {
                Some(given) => secs(given)?,
                None => schema.est_duration_secs,
            };
            Verb::Mutate(Command::Submit {
                schema: schema.into(),
                service_secs,
            })
        }
        ["cancel", id] => Verb::Mutate(Command::Cancel { job: job(id)? }),
        // Carve a maintenance/teaching capacity window out of the cluster
        // (paper §5: reserved slots for course deadlines).
        ["reserve", gpus, start, duration] => {
            let gpus = gpus.parse().map_err(|_| usage("expected a GPU count"))?;
            let from_secs = secs(start)?;
            Verb::Mutate(Command::Reserve {
                gpus,
                from_secs,
                until_secs: from_secs + secs(duration)?,
            })
        }
        ["advance", by] => Verb::Mutate(Command::Advance { secs: secs(by)? }),
        ["fault", n] => Verb::Mutate(Command::FaultNode { node: node(n)? }),
        ["drain", n] => Verb::Mutate(Command::Drain { node: node(n)? }),
        ["undrain", n] => Verb::Mutate(Command::Undrain { node: node(n)? }),
        ["status", id] => Verb::Query(Query::Status(job(id)?)),
        ["ps"] => Verb::Query(Query::List),
        ["events", id] => Verb::Query(Query::Events(job(id)?)),
        ["info"] => Verb::Query(Query::Info),
        ["metrics"] => Verb::Query(Query::Metrics),
        ["transitions"] => Verb::Query(Query::Transitions),
        ["journal"] => Verb::Query(Query::JournalStats),
        ["logs", id] => Verb::Query(Query::Logs(job(id)?)),
        ["timeline", id] => Verb::Query(Query::Timeline(job(id)?)),
        ["why", id] => Verb::Query(Query::Why(job(id)?)),
        ["get", id] => Verb::Query(Query::Artifacts(job(id)?)),
        ["goodput"] => Verb::Query(Query::Goodput),
        ["quota"] => Verb::Query(Query::Quota),
        ["top"] => Verb::Query(Query::Top),
        ["use", profile] => Verb::Use(profile.to_owned()),
        ["wait", id] => Verb::Wait(job(id)?),
        _ => return Err(usage(USAGE)),
    })
}

/// Parses one command line, sends it to `endpoint` and renders the reply.
///
/// # Errors
///
/// [`TcloudError::Usage`] for an unknown verb or malformed arguments
/// (and for the two session verbs, which no endpoint takes), plus
/// whatever the endpoint returns.
pub fn run(endpoint: &mut dyn Endpoint, argv: &[&str]) -> Result<CommandOutput, TcloudError> {
    execute(endpoint, parse(argv)?)
}

fn execute(endpoint: &mut dyn Endpoint, verb: Verb) -> Result<CommandOutput, TcloudError> {
    let lines = match verb {
        Verb::Mutate(command) => render_ack(&command, &endpoint.mutate(&command)?),
        Verb::Query(query) => render_answer(&query, &endpoint.query(&query)?),
        Verb::Use(_) | Verb::Wait(_) => {
            return Err(usage("`use` and `wait` need an in-process session"))
        }
    };
    Ok(CommandOutput { lines })
}

impl TcloudClient {
    /// [`run`] against this client's active platform, plus the two
    /// session verbs: `use <profile>` and `wait <job-id>`.
    ///
    /// # Errors
    ///
    /// As [`run`], and [`TcloudError::UnknownProfile`] from `use`.
    pub fn run_command(&mut self, argv: &[&str]) -> Result<CommandOutput, TcloudError> {
        let line = match parse(argv)? {
            Verb::Use(profile) => {
                self.use_profile(&profile)?;
                format!("switched to profile '{profile}'")
            }
            Verb::Wait(job) => format!("job {} finished: {}", job.value(), self.wait(job)?),
            verb => return execute(self, verb),
        };
        Ok(CommandOutput { lines: vec![line] })
    }
}

// --------------------------------------------------------------------
// The renderer: reply payloads to lines
// --------------------------------------------------------------------

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn int(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("?")
}

fn rows(v: &Json) -> &[Json] {
    v.as_arr().unwrap_or(&[])
}

fn text_lines(v: &Json) -> Vec<String> {
    let text = v.as_str().unwrap_or("");
    text.lines().map(str::to_owned).collect()
}

/// The numbers of array `key`, each behind `prefix`, comma-separated.
fn ids(v: &Json, key: &str, prefix: &str) -> String {
    let ids = v.get(key).map(rows).unwrap_or(&[]).iter();
    let ids: Vec<String> = ids
        .filter_map(Json::as_u64)
        .map(|n| format!("{prefix}{n}"))
        .collect();
    ids.join(",")
}

/// `s` cut to at most `max` characters, the last an ellipsis when
/// anything was cut.
fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        return s.to_owned();
    }
    let kept = s.chars().take(max.saturating_sub(1));
    kept.chain(['…']).collect()
}

fn render_ack(command: &Command, ack: &Json) -> Vec<String> {
    vec![match command {
        Command::Submit { .. } => format!("submitted job {}", int(ack, "job")),
        Command::Cancel { job } => match ack.get("applied") {
            Some(Json::Bool(false)) => format!("job {} had already finished", job.value()),
            _ => format!("cancelled job {}", job.value()),
        },
        Command::Reserve {
            gpus,
            from_secs,
            until_secs,
        } => format!("reserved {gpus} GPUs from {from_secs}s to {until_secs}s"),
        Command::FaultNode { node } => {
            format!("node{node} faulted, hitting [{}]", ids(ack, "jobs", "job "))
        }
        Command::Drain { node } => format!("node{node} drained for maintenance"),
        Command::Undrain { node } => format!("node{node} back in service"),
        Command::Advance { .. } => format!("advanced to t={:.1}s", num(ack, "now_secs")),
    }]
}

/// The line `events` and `logs` open with once the bus — a bounded ring
/// both read — has overflowed: the stream below is incomplete, and the
/// user must know before reading it.
fn dropped_warning(a: &Json) -> Option<String> {
    let dropped = int(a, "dropped");
    (dropped > 0).then(|| {
        format!(
            "warning: {dropped} event(s) dropped from the bounded ring; this stream is \
             incomplete (see tacc_obs_dropped_events_total)"
        )
    })
}

fn render_answer(query: &Query, a: &Json) -> Vec<String> {
    match query {
        Query::Status(_) => vec![format!(
            "job {}: {} '{}' on [{}] (submitted t={:.1}s, {:.1}s remaining, {} preemption(s))",
            int(a, "job"),
            text(a, "state"),
            text(a, "name"),
            ids(a, "nodes", "node"),
            num(a, "submit_secs"),
            num(a, "remaining_secs"),
            int(a, "preemptions"),
        )],
        Query::List => {
            let head = format!(
                "{:<8} {:<12} {:<20} {:<8} NODES",
                "JOB", "STATE", "NAME", "PREEMPT"
            );
            let jobs = rows(a).iter().map(|job| {
                format!(
                    "{:<8} {:<12} {:<20} {:<8} {}",
                    int(job, "job"),
                    text(job, "state"),
                    truncate(text(job, "name"), 20),
                    int(job, "preemptions"),
                    ids(job, "nodes", "node"),
                )
            });
            std::iter::once(head).chain(jobs).collect()
        }
        Query::Events(_) => {
            let events = a.get("events").map(rows).unwrap_or(&[]).iter().map(|e| {
                format!(
                    "[t={:.1}s] #{} {}: {}",
                    num(e, "at_secs"),
                    int(e, "seq"),
                    text(e, "kind"),
                    text(e, "event")
                )
            });
            dropped_warning(a).into_iter().chain(events).collect()
        }
        Query::Info => {
            let cluster = format!(
                "{} nodes / {} GPUs, {} free, {} queued, {} running, {} jobs, t={:.3}s",
                int(a, "nodes"),
                int(a, "total_gpus"),
                int(a, "free_gpus"),
                int(a, "queued"),
                int(a, "running"),
                int(a, "jobs"),
                num(a, "now_secs"),
            );
            // Only an endpoint with a journal behind it says where it is.
            let journal = a.get("journal_seq").map(|_| {
                format!(
                    "journal at seq {}, protocol v{}",
                    int(a, "journal_seq"),
                    int(a, "protocol")
                )
            });
            std::iter::once(cluster).chain(journal).collect()
        }
        Query::Metrics | Query::Transitions => text_lines(a),
        Query::JournalStats => vec![format!(
            "journal: {} appended, {} synced, {} dirty, next_seq {}",
            int(a, "appended"),
            int(a, "syncs"),
            int(a, "dirty"),
            int(a, "next_seq")
        )],
        Query::Logs(_) => {
            let line = |l| format!("[t={:.1}s] {}", num(l, "at_secs"), text(l, "line"));
            let lines = a.get("lines").map(rows).unwrap_or(&[]).iter().map(line);
            dropped_warning(a).into_iter().chain(lines).collect()
        }
        Query::Timeline(_) => {
            let span = |s| {
                let (start, end) = (num(s, "start_secs"), num(s, "end_secs"));
                format!(
                    "[{start:>10.1}s → {end:>10.1}s] {:<13} {:>10.1}s  cause={:<9} {}",
                    text(s, "phase"),
                    end - start,
                    text(s, "cause"),
                    text(s, "attribution")
                )
            };
            rows(a).iter().map(span).collect()
        }
        Query::Why(job) => vec![format!(
            "job {}: {}",
            job.value(),
            a.as_str().unwrap_or("?")
        )],
        // Retrieve a job's output files from every node it ran on (the
        // paper: "tcloud can also retrieve files ... simultaneously on
        // multiple nodes").
        Query::Artifacts(job) if rows(a).is_empty() => vec![format!(
            "job {} has not run yet; nothing to fetch",
            job.value()
        )],
        Query::Artifacts(_) => {
            let fetched = rows(a).iter().map(|f| {
                format!(
                    "fetched {} from node{} ({} MiB)",
                    text(f, "file"),
                    int(f, "node"),
                    int(f, "mb")
                )
            });
            let total: u64 = rows(a).iter().map(|f| int(f, "mb")).sum();
            let summary = format!("retrieved {} file(s), {total} MiB total", rows(a).len());
            fetched.chain([summary]).collect()
        }
        Query::Goodput => {
            let causes: &[(String, Json)] = match a.get("badput_gpu_secs") {
                Some(Json::Obj(causes)) => causes,
                _ => &[],
            };
            let amount = |v: &Json| v.as_f64().unwrap_or(f64::NAN);
            let total = causes.iter().fold(0.0, |sum, (_, v)| sum + amount(v));
            let mut lines = vec![
                format!(
                    "goodput over {:.1}s on {} GPUs ({:.1} GPU-seconds of capacity)",
                    num(a, "horizon_secs"),
                    num(a, "total_gpus"),
                    num(a, "capacity_gpu_secs")
                ),
                format!(
                    "  goodput      = {:.4}  (availability {:.4} x efficiency {:.4} x (1 - badput {:.4}))",
                    num(a, "goodput"),
                    num(a, "availability"),
                    num(a, "throughput_efficiency"),
                    num(a, "badput_fraction")
                ),
                format!(
                    "  allocated    = {:.1} GPU-s, running = {:.1} GPU-s, productive = {:.1} GPU-s",
                    num(a, "allocated_gpu_secs"),
                    num(a, "running_gpu_secs"),
                    num(a, "productive_gpu_secs")
                ),
                format!("  badput total = {total:.1} GPU-s, by cause:"),
            ];
            let by_cause =
                |(cause, v): &(String, Json)| format!("    {cause:<20} {:>12.1} GPU-s", amount(v));
            lines.extend(causes.iter().map(by_cause));
            lines
        }
        Query::Quota => {
            let head = format!(
                "{:<8} {:>6} {:>11} {:>9}",
                "GROUP", "QUOTA", "GUARANTEED", "BORROWED"
            );
            let groups = rows(a).iter().map(|g| {
                format!(
                    "{:<8} {:>6} {:>11} {:>9}",
                    format!("group{}", int(g, "group")),
                    int(g, "quota"),
                    int(g, "guaranteed"),
                    int(g, "borrowed")
                )
            });
            std::iter::once(head).chain(groups).collect()
        }
        Query::Top => {
            let head = format!(
                "{:<8} {:<7} {:<9} {:>10} {:>7}",
                "NODE", "RACK", "GPU", "USED/TOTAL", "LEASES"
            );
            let nodes = a.get("per_node").map(rows).unwrap_or(&[]).iter().map(|n| {
                format!(
                    "{:<8} {:<7} {:<9} {:>7}/{:<3} {:>6}",
                    format!("node{}", int(n, "node")),
                    format!("rack{}", int(n, "rack")),
                    text(n, "gpu"),
                    int(n, "used"),
                    int(n, "total"),
                    int(n, "leases")
                )
            });
            let total = format!(
                "total: {}/{} GPUs busy, {} running, {} queued",
                int(a, "total_gpus").saturating_sub(int(a, "free_gpus")),
                int(a, "total_gpus"),
                int(a, "running"),
                int(a, "queued")
            );
            std::iter::once(head).chain(nodes).chain([total]).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::{ClusterSpec, GpuModel};
    use tacc_core::PlatformConfig;
    use tacc_workload::{GroupId, GroupRoster, TaskSchema};

    fn client() -> TcloudClient {
        TcloudClient::with_profile(
            "campus",
            PlatformConfig {
                cluster: ClusterSpec::uniform(1, 2, GpuModel::A100, 8),
                roster: GroupRoster::campus_default(16),
                ..PlatformConfig::default()
            },
        )
    }

    fn schema_json() -> String {
        let schema = TaskSchema::builder("cli-job", GroupId::from_index(0))
            .est_duration_secs(120.0)
            .build()
            .expect("valid");
        schema.to_json().to_string()
    }

    #[test]
    fn submit_ps_wait_logs_kill_flow() {
        let mut c = client();
        let json = schema_json();
        let out = c
            .run_command(&["submit", &json, "--service", "120"])
            .expect("valid submit");
        assert_eq!(out.text(), "submitted job 0");

        let ps = c.run_command(&["ps"]).expect("ps works");
        assert!(ps.text().contains("cli-job"));

        let wait = c.run_command(&["wait", "0"]).expect("wait works");
        assert!(wait.text().contains("completed"));

        let logs = c.run_command(&["logs", "0"]).expect("logs work");
        assert!(logs.lines.iter().any(|l| l.contains("completed")));

        // A terminal job is past cancelling, and the ack says so.
        let late = c.run_command(&["cancel", "0"]).expect("cancel works");
        assert_eq!(late.text(), "job 0 had already finished");
        assert!(c.run_command(&["kill", "0"]).is_err(), "one name per verb");
    }

    #[test]
    fn submit_defaults_service_to_estimate() {
        let mut c = client();
        let json = schema_json();
        c.run_command(&["submit", &json]).expect("estimate default");
        let state = c.wait(JobId::from_value(0)).expect("exists");
        assert!(state.is_terminal());
    }

    #[test]
    fn usage_errors() {
        let mut c = client();
        assert!(matches!(
            c.run_command(&["frobnicate"]),
            Err(TcloudError::Usage(_))
        ));
        assert!(matches!(
            c.run_command(&["logs", "not-a-number"]),
            Err(TcloudError::Usage(_))
        ));
        assert!(matches!(
            c.run_command(&["submit"]),
            Err(TcloudError::Usage(_))
        ));
        // The session verbs are the client's own; an endpoint has none.
        assert!(matches!(
            run(&mut c, &["wait", "0"]),
            Err(TcloudError::Usage(_))
        ));
    }

    /// The verbs that used to reach only a live daemon work in process.
    #[test]
    fn the_daemon_only_verbs_run_in_process() {
        let mut c = client();
        let json = schema_json();
        c.run_command(&["submit", &json, "--service", "1000000"])
            .expect("submits");
        let advanced = c.run_command(&["advance", "3600"]).expect("advances");
        assert_eq!(advanced.text(), "advanced to t=3600.0s");
        let status = c.run_command(&["status", "0"]).expect("status works");
        assert!(
            status
                .text()
                .starts_with("job 0: running 'cli-job' on [node"),
            "{}",
            status.text()
        );
        let fault = c.run_command(&["fault", "node0"]).expect("fault works");
        assert!(
            fault.text().starts_with("node0 faulted"),
            "{}",
            fault.text()
        );
        let log = c.run_command(&["transitions"]).expect("transitions work");
        assert_eq!(log.text() + "\n", c.platform().transition_log_jsonl());
        assert_eq!(
            c.run_command(&["cancel", "0"]).expect("cancels").text(),
            "cancelled job 0"
        );
        // No journal behind a bare platform: a typed refusal, not a usage error.
        assert!(matches!(
            c.run_command(&["journal"]),
            Err(TcloudError::Refused { kind, .. }) if kind == "no-journal"
        ));
    }

    #[test]
    fn info_and_use() {
        let mut c = client();
        let info = c.run_command(&["info"]).expect("info works");
        assert!(info.text().contains("16 GPUs"));
        assert!(c.run_command(&["use", "nowhere"]).is_err());
    }

    #[test]
    fn quota_and_top_snapshots() {
        let mut c = client();
        let json = schema_json();
        c.run_command(&["submit", &json, "--service", "100000"])
            .expect("submits");
        c.advance(3600.0).expect("advances"); // job is now running
        let top = c.run_command(&["top"]).expect("top works");
        assert!(top.text().contains("node0"));
        assert!(top.text().contains("1/16 GPUs busy") || top.text().contains("GPUs busy"));
        let quota = c.run_command(&["quota"]).expect("quota works");
        assert!(quota.text().contains("GROUP"));
        assert!(quota.lines.len() > 1);
    }

    #[test]
    fn get_retrieves_artifacts_from_all_nodes() {
        let mut c = client();
        let schema = TaskSchema::builder("dist-get", GroupId::from_index(0))
            .workers(2)
            .resources(tacc_cluster::ResourceVec::gpus_only(8))
            .est_duration_secs(300.0)
            .build()
            .expect("valid");
        let json = schema.to_json().to_string();
        c.run_command(&["submit", &json, "--service", "300"])
            .expect("submits");
        // Before it runs: nothing to fetch.
        let early = c.run_command(&["get", "0"]).expect("get works");
        assert!(early.text().contains("nothing to fetch"));
        c.run_command(&["wait", "0"]).expect("completes");
        let out = c.run_command(&["get", "0"]).expect("get works");
        assert!(out.text().contains("checkpoint.pt"));
        assert!(out.text().contains("worker-0.log"));
        assert!(out.text().contains("worker-1.log"));
        assert!(out.lines.last().expect("summary").contains("retrieved"));
        assert!(c.run_command(&["get", "42"]).is_err());
    }

    #[test]
    fn drain_and_undrain_via_cli() {
        let mut c = client();
        let out = c.run_command(&["drain", "0"]).expect("drains");
        assert!(out.text().contains("drained"));
        // Accepts the display form too.
        c.run_command(&["undrain", "node0"]).expect("undrains");
        assert!(c.run_command(&["drain", "99"]).is_err());
        assert!(c.run_command(&["drain", "not-a-node"]).is_err());
    }

    #[test]
    fn events_why_and_metrics_commands() {
        let mut c = client();
        // Saturate the 16-GPU cluster, then queue a 1-GPU job behind it.
        let filler = TaskSchema::builder("filler", GroupId::from_index(0))
            .workers(2)
            .resources(tacc_cluster::ResourceVec::gpus_only(8))
            .est_duration_secs(1e6)
            .build()
            .expect("valid");
        let fj = filler.to_json().to_string();
        c.run_command(&["submit", &fj, "--service", "1000000"])
            .expect("submits");
        c.advance(1000.0).expect("advances");
        let blocked = TaskSchema::builder("blocked", GroupId::from_index(1))
            .resources(tacc_cluster::ResourceVec::gpus_only(1))
            .est_duration_secs(120.0)
            .build()
            .expect("valid");
        let bj = blocked.to_json().to_string();
        c.run_command(&["submit", &bj, "--service", "120"])
            .expect("submits");
        c.advance(1000.0).expect("advances");

        // `why` names the concrete skip reason the scheduler recorded.
        let why = c.run_command(&["why", "1"]).expect("why works");
        assert!(
            why.text().contains("no feasible placement"),
            "{}",
            why.text()
        );

        // `events` shows the typed per-job event stream.
        let events = c.run_command(&["events", "1"]).expect("events work");
        assert!(events.text().contains("submitted"));
        assert!(events.text().contains("queued"));

        // `metrics` exposes series from several layers.
        let metrics = c.run_command(&["metrics"]).expect("metrics work");
        assert!(metrics.text().contains("tacc_core_jobs_submitted_total"));
        assert!(metrics.text().contains("tacc_sched_round_latency_seconds"));
        assert!(metrics.text().contains("tacc_cluster_free_gpus"));

        assert!(c.run_command(&["why", "42"]).is_err());
        assert!(c.run_command(&["events", "42"]).is_err());
        assert!(c.run_command(&["why", "not-a-number"]).is_err());
    }

    #[test]
    fn timeline_and_goodput_commands() {
        let mut c = client();
        let json = schema_json();
        c.run_command(&["submit", &json, "--service", "120"])
            .expect("submits");
        c.run_command(&["wait", "0"]).expect("completes");

        let tl = c.run_command(&["timeline", "0"]).expect("timeline works");
        assert!(tl.text().contains("Queued"), "{}", tl.text());
        assert!(tl.text().contains("Running"));
        assert!(tl.text().contains("useful execution"));

        let gp = c.run_command(&["goodput"]).expect("goodput works");
        assert!(gp.text().contains("goodput"), "{}", gp.text());
        assert!(gp.text().contains("queue_wait"));

        assert!(c.run_command(&["timeline", "42"]).is_err());
        assert!(c.run_command(&["timeline", "not-a-number"]).is_err());
    }

    #[test]
    fn reserve_carves_a_capacity_window() {
        let mut c = client();
        let out = c
            .run_command(&["reserve", "8", "100", "600"])
            .expect("reserves");
        assert_eq!(out.text(), "reserved 8 GPUs from 100s to 700s");
        assert_eq!(
            c.platform().scheduler().capacity_windows().len(),
            1,
            "window lands in SchedulerConfig::capacity_windows"
        );
        // Validation errors surface as usage/command errors, not panics.
        assert!(c.run_command(&["reserve", "0", "100", "600"]).is_err());
        assert!(c.run_command(&["reserve", "9999", "100", "600"]).is_err());
        assert!(c.run_command(&["reserve", "8", "-1", "600"]).is_err());
        assert!(c.run_command(&["reserve", "8", "100", "0"]).is_err());
        assert!(c.run_command(&["reserve", "x", "100", "600"]).is_err());
    }

    #[test]
    fn truncate_handles_long_names() {
        assert_eq!(truncate("short", 10), "short");
        let long = truncate("a-very-long-task-name-indeed", 10);
        assert!(long.chars().count() <= 10);
        assert!(long.ends_with('…'));
        // Cut between characters, never inside one.
        assert_eq!(truncate(&"é".repeat(11), 20), "é".repeat(11));
        assert_eq!(truncate(&"計".repeat(30), 20), "計".repeat(19) + "…");
    }
}
