//! The CLI command surface of `tcloud`.

use tacc_core::Command;
use tacc_workload::JobId;

use crate::client::{TcloudClient, TcloudError};

/// The rendered result of one CLI command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutput {
    /// Human-readable output lines (what the terminal would print).
    pub lines: Vec<String>,
}

impl CommandOutput {
    fn one(line: String) -> Self {
        CommandOutput { lines: vec![line] }
    }

    /// All lines joined with newlines.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }
}

impl TcloudClient {
    /// Parses and executes one CLI command.
    ///
    /// Supported commands (mirroring the real tool's verbs):
    ///
    /// ```text
    /// tcloud submit <schema-json> [--service <secs>]
    /// tcloud ps
    /// tcloud logs <job-id>
    /// tcloud events <job-id>
    /// tcloud timeline <job-id>
    /// tcloud goodput
    /// tcloud why <job-id>
    /// tcloud metrics
    /// tcloud kill <job-id>
    /// tcloud wait <job-id>
    /// tcloud info
    /// tcloud quota
    /// tcloud top
    /// tcloud get <job-id>
    /// tcloud reserve <gpus> <start-secs> <duration-secs>
    /// tcloud drain <node-index>
    /// tcloud undrain <node-index>
    /// tcloud use <profile>
    /// ```
    ///
    /// # Errors
    ///
    /// [`TcloudError::Usage`] for unknown verbs or malformed arguments,
    /// plus whatever the underlying operation returns.
    pub fn run_command(&mut self, argv: &[&str]) -> Result<CommandOutput, TcloudError> {
        match argv {
            ["submit", rest @ ..] => self.cmd_submit(rest),
            ["ps"] => Ok(self.cmd_ps()),
            ["logs", id] => {
                let job = parse_job(id)?;
                Ok(CommandOutput {
                    lines: self.logs(job)?,
                })
            }
            ["events", id] => {
                let job = parse_job(id)?;
                Ok(CommandOutput {
                    lines: self.events(job)?,
                })
            }
            ["timeline", id] => {
                let job = parse_job(id)?;
                Ok(CommandOutput {
                    lines: self.timeline(job)?,
                })
            }
            ["goodput"] => Ok(CommandOutput {
                lines: self.goodput_lines(),
            }),
            ["why", id] => {
                let job = parse_job(id)?;
                let reason = self.why(job)?;
                Ok(CommandOutput::one(format!("job {}: {reason}", job.value())))
            }
            ["metrics"] => Ok(CommandOutput {
                lines: self.metrics_text().lines().map(str::to_owned).collect(),
            }),
            ["kill", id] => {
                let job = parse_job(id)?;
                self.kill(job)?;
                Ok(CommandOutput::one(format!("killed job {}", job.value())))
            }
            ["wait", id] => {
                let job = parse_job(id)?;
                let state = self.wait(job)?;
                Ok(CommandOutput::one(format!(
                    "job {} finished: {state}",
                    job.value()
                )))
            }
            ["info"] => Ok(CommandOutput::one(self.cluster_info())),
            ["quota"] => Ok(self.cmd_quota()),
            ["top"] => Ok(self.cmd_top()),
            ["get", id] => {
                let job = parse_job(id)?;
                Ok(self.cmd_get(job)?)
            }
            ["reserve", gpus, start, duration] => self.cmd_reserve(gpus, start, duration),
            ["drain", node] => {
                let node = parse_node(node)?;
                self.apply(Command::Drain { node })?;
                Ok(CommandOutput::one(format!(
                    "node{node} drained for maintenance"
                )))
            }
            ["undrain", node] => {
                let node = parse_node(node)?;
                self.apply(Command::Undrain { node })?;
                Ok(CommandOutput::one(format!("node{node} back in service")))
            }
            ["use", profile] => {
                self.use_profile(profile)?;
                Ok(CommandOutput::one(format!("switched to profile '{profile}'")))
            }
            _ => Err(TcloudError::Usage(
                "tcloud submit|ps|logs|events|timeline|goodput|why|metrics|kill|wait|info|quota|top|get|reserve|drain|undrain|use"
                    .to_owned(),
            )),
        }
    }

    fn cmd_submit(&mut self, rest: &[&str]) -> Result<CommandOutput, TcloudError> {
        let (json, service) = match rest {
            [json] => (*json, None),
            [json, "--service", secs] => (*json, Some(*secs)),
            _ => {
                return Err(TcloudError::Usage(
                    "tcloud submit <schema-json> [--service <secs>]".to_owned(),
                ))
            }
        };
        let service = service
            .map(|s| s.parse::<f64>())
            .transpose()
            .map_err(|_| TcloudError::Usage("--service expects seconds".to_owned()))?;
        let schema = crate::client::schema_from_text(json).map_err(TcloudError::InvalidTask)?;
        // Without an oracle the platform uses the user's estimate.
        let service_secs = service.unwrap_or(schema.est_duration_secs);
        let job = self.submit(schema, service_secs)?;
        Ok(CommandOutput::one(format!("submitted job {}", job.value())))
    }

    /// `tcloud reserve`: carve a maintenance/teaching capacity window out
    /// of the cluster (paper §5: reserved slots for course deadlines).
    fn cmd_reserve(
        &mut self,
        gpus: &str,
        start: &str,
        duration: &str,
    ) -> Result<CommandOutput, TcloudError> {
        let usage =
            || TcloudError::Usage("tcloud reserve <gpus> <start-secs> <duration-secs>".to_owned());
        let gpus: u32 = gpus.parse().map_err(|_| usage())?;
        let start: f64 = start.parse().map_err(|_| usage())?;
        let duration: f64 = duration.parse().map_err(|_| usage())?;
        self.apply(Command::Reserve {
            gpus,
            from_secs: start,
            until_secs: start + duration,
        })?;
        Ok(CommandOutput::one(format!(
            "reserved {gpus} GPUs from {start}s to {}s",
            start + duration
        )))
    }

    fn cmd_ps(&self) -> CommandOutput {
        let mut lines = vec![format!(
            "{:<8} {:<12} {:<20} {:<8} {}",
            "JOB", "STATE", "NAME", "PREEMPT", "NODES"
        )];
        for status in self.list_jobs() {
            let nodes = status
                .nodes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            lines.push(format!(
                "{:<8} {:<12} {:<20} {:<8} {}",
                status.id.value(),
                status.state.to_string(),
                truncate(&status.name, 20),
                status.preemptions,
                nodes
            ));
        }
        CommandOutput { lines }
    }
}

impl TcloudClient {
    /// `tcloud get`: retrieve a job's output files from every node it ran
    /// on (the paper: "tcloud can also retrieve files ... simultaneously
    /// on multiple nodes").
    fn cmd_get(&self, job: tacc_workload::JobId) -> Result<CommandOutput, TcloudError> {
        if self.platform().job(job).is_none() {
            return Err(TcloudError::UnknownJob(job.value()));
        }
        let artifacts = self.platform().job_artifacts(job);
        if artifacts.is_empty() {
            return Ok(CommandOutput::one(format!(
                "job {} has not run yet; nothing to fetch",
                job.value()
            )));
        }
        let mut lines: Vec<String> = artifacts
            .iter()
            .map(|(node, file, mb)| format!("fetched {file} from {node} ({mb} MiB)"))
            .collect();
        let total: u32 = artifacts.iter().map(|&(_, _, mb)| mb).sum();
        lines.push(format!(
            "retrieved {} file(s), {} MiB total",
            artifacts.len(),
            total
        ));
        Ok(CommandOutput { lines })
    }

    /// `tcloud quota`: per-group quota and current usage.
    fn cmd_quota(&self) -> CommandOutput {
        let table = self.platform().scheduler().quota_table();
        let mut lines = vec![format!(
            "{:<8} {:>6} {:>11} {:>9}",
            "GROUP", "QUOTA", "GUARANTEED", "BORROWED"
        )];
        for gi in 0..table.group_count() {
            let g = tacc_workload::GroupId::from_index(gi);
            lines.push(format!(
                "{:<8} {:>6} {:>11} {:>9}",
                g.to_string(),
                table.quota(g),
                table.guaranteed_used(g),
                table.borrowed(g)
            ));
        }
        CommandOutput { lines }
    }

    /// `tcloud top`: per-node occupancy snapshot.
    fn cmd_top(&self) -> CommandOutput {
        let p = self.platform();
        let mut lines = vec![format!(
            "{:<8} {:<7} {:<9} {:>10} {:>7}",
            "NODE", "RACK", "GPU", "USED/TOTAL", "LEASES"
        )];
        for node in p.cluster().nodes() {
            lines.push(format!(
                "{:<8} {:<7} {:<9} {:>7}/{:<3} {:>6}",
                node.id().to_string(),
                node.rack().to_string(),
                node.gpu_model().to_string(),
                node.used().gpus,
                node.capacity().gpus,
                node.lease_count()
            ));
        }
        lines.push(format!(
            "total: {}/{} GPUs busy, {} running, {} queued",
            p.cluster().total_gpus() - p.cluster().free_gpus(),
            p.cluster().total_gpus(),
            p.scheduler().running_len(),
            p.scheduler().queue_len()
        ));
        CommandOutput { lines }
    }
}

fn parse_node(s: &str) -> Result<u32, TcloudError> {
    s.trim_start_matches("node")
        .parse::<u32>()
        .map_err(|_| TcloudError::Usage("expected a node index (e.g. 3 or node3)".to_owned()))
}

fn parse_job(s: &str) -> Result<JobId, TcloudError> {
    s.parse::<u64>()
        .map(JobId::from_value)
        .map_err(|_| TcloudError::Usage("expected a numeric job id".to_owned()))
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_owned()
    } else {
        format!("{}…", &s[..max.saturating_sub(1)])
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

        // Terminal job can't be killed.
        assert!(c.run_command(&["kill", "0"]).is_err());
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
    }
}
