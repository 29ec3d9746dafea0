//! The tcloud client: profiles, submission, monitoring, kill.

use std::collections::BTreeMap;
use std::fmt;

use tacc_core::{
    Command, CommandError, CommandOutcome, CommandRecord, JobStatus, Platform, PlatformConfig,
};
use tacc_workload::{JobId, JobState, TaskSchema};

/// Errors the client surfaces to users.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TcloudError {
    /// No profile with that name is configured.
    UnknownProfile(String),
    /// The job id does not exist on the active cluster.
    UnknownJob(u64),
    /// The submitted task description was rejected.
    InvalidTask(String),
    /// A CLI command could not be parsed, or the platform refused its
    /// arguments; the message explains.
    Usage(String),
}

impl fmt::Display for TcloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcloudError::UnknownProfile(p) => write!(f, "unknown cluster profile '{p}'"),
            TcloudError::UnknownJob(id) => write!(f, "no such job {id}"),
            TcloudError::InvalidTask(msg) => write!(f, "invalid task: {msg}"),
            TcloudError::Usage(msg) => write!(f, "usage: {msg}"),
        }
    }
}

impl std::error::Error for TcloudError {}

impl From<CommandError> for TcloudError {
    fn from(e: CommandError) -> Self {
        match e {
            CommandError::InvalidTask(why) => TcloudError::InvalidTask(why),
            CommandError::UnknownJob(job) => TcloudError::UnknownJob(job.value()),
            other => TcloudError::Usage(other.to_string()),
        }
    }
}

/// Reads a task schema from its JSON text — the one shape the in-process
/// client and the daemon transport both take.
pub(crate) fn schema_from_text(json: &str) -> Result<TaskSchema, String> {
    let value = tacc_core::wire::parse(json).map_err(|e| e.to_string())?;
    TaskSchema::from_json(&value)
}

/// The `tcloud` client: a registry of cluster profiles and a connection to
/// the active one.
///
/// In the real system each profile is an SSH endpoint; here each profile
/// owns a simulated [`Platform`]. Everything the client does goes through
/// the same platform API a remote endpoint would expose.
#[derive(Debug)]
pub struct TcloudClient {
    profiles: BTreeMap<String, Platform>,
    active: String,
}

impl TcloudClient {
    /// Creates a client with a single named profile.
    pub fn with_profile(name: &str, config: PlatformConfig) -> Self {
        let mut profiles = BTreeMap::new();
        profiles.insert(name.to_owned(), Platform::new(config));
        TcloudClient {
            profiles,
            active: name.to_owned(),
        }
    }

    /// Registers another cluster profile.
    pub fn add_profile(&mut self, name: &str, config: PlatformConfig) {
        self.profiles.insert(name.to_owned(), Platform::new(config));
    }

    /// Switches the active cluster — the paper's "changing a line of
    /// configuration".
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownProfile`] if no such profile exists.
    pub fn use_profile(&mut self, name: &str) -> Result<(), TcloudError> {
        if !self.profiles.contains_key(name) {
            return Err(TcloudError::UnknownProfile(name.to_owned()));
        }
        self.active = name.to_owned();
        Ok(())
    }

    /// Names of all configured profiles.
    pub fn profile_names(&self) -> Vec<&str> {
        self.profiles.keys().map(String::as_str).collect()
    }

    /// The active platform (read-only; used by experiment harnesses).
    pub fn platform(&self) -> &Platform {
        self.profiles
            .get(&self.active)
            .expect("active profile exists")
    }

    /// Mutable access to the active platform.
    pub fn platform_mut(&mut self) -> &mut Platform {
        self.profiles
            .get_mut(&self.active)
            .expect("active profile exists")
    }

    /// The one way this client mutates its platform: the command is
    /// stamped with the platform's current time and applied as the record
    /// `taccd` would journal for it, so a session replayed through
    /// [`Platform::apply_record`] reproduces the platform exactly.
    pub(crate) fn apply(&mut self, command: Command) -> Result<CommandOutcome, TcloudError> {
        let platform = self.platform_mut();
        let record = CommandRecord {
            seq: 0, // orders journal frames; nothing is journalled here
            at_secs: platform.now().as_secs(),
            command,
        };
        Ok(platform.apply_record(&record)?)
    }

    /// Submits a task to the active cluster.
    ///
    /// # Errors
    ///
    /// [`TcloudError::InvalidTask`] if the schema fails validation, names
    /// a group outside the roster, or the service time is not a positive
    /// finite number.
    pub fn submit(&mut self, schema: TaskSchema, service_secs: f64) -> Result<JobId, TcloudError> {
        match self.apply(Command::Submit {
            schema,
            service_secs,
        })? {
            CommandOutcome::Submitted { job } => Ok(job),
            other => unreachable!("submit answered {other:?}"),
        }
    }

    /// Submits a task described as JSON (the on-disk task schema format).
    ///
    /// # Errors
    ///
    /// [`TcloudError::InvalidTask`] for malformed JSON or invalid schemas.
    pub fn submit_json(&mut self, json: &str, service_secs: f64) -> Result<JobId, TcloudError> {
        let schema = schema_from_text(json).map_err(TcloudError::InvalidTask)?;
        self.submit(schema, service_secs)
    }

    /// Status of one job.
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn status(&self, job: JobId) -> Result<JobStatus, TcloudError> {
        self.platform()
            .job_status(job)
            .ok_or(TcloudError::UnknownJob(job.value()))
    }

    /// Status of every job on the active cluster (submission order).
    pub fn list_jobs(&self) -> Vec<JobStatus> {
        let p = self.platform();
        p.job_ids()
            .into_iter()
            .filter_map(|id| p.job_status(id))
            .collect()
    }

    /// Aggregated, time-ordered log of a job across all of its nodes.
    ///
    /// Each line is `[t=..s] message`, matching what the real tool prints
    /// after collecting per-node files.
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn logs(&self, job: JobId) -> Result<Vec<String>, TcloudError> {
        let p = self.platform();
        if p.job(job).is_none() {
            return Err(TcloudError::UnknownJob(job.value()));
        }
        Ok(p.job_log(job)
            .into_iter()
            .map(|(t, msg)| format!("[t={t:.1}s] {msg}"))
            .collect())
    }

    /// Time-ordered platform events for a job, rendered one per line —
    /// what `tcloud events` prints. Unlike [`Self::logs`] this is the
    /// typed event stream: each line carries the bus sequence number and
    /// machine-readable kind tag.
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn events(&self, job: JobId) -> Result<Vec<String>, TcloudError> {
        let p = self.platform();
        if p.job(job).is_none() {
            return Err(TcloudError::UnknownJob(job.value()));
        }
        let mut lines = Vec::new();
        // The bus is a bounded ring: if it ever overflowed, the stream
        // below is incomplete and the user must know before reading it.
        let dropped = p.events().dropped();
        if dropped > 0 {
            lines.push(format!(
                "warning: {dropped} event(s) dropped from the bounded ring; \
                 this stream is incomplete (see tacc_obs_dropped_events_total)"
            ));
        }
        lines.extend(p.job_events(job).iter().map(|r| {
            format!(
                "[t={:.1}s] #{} {}: {}",
                r.at_secs,
                r.seq,
                r.event.kind(),
                r.event
            )
        }));
        Ok(lines)
    }

    /// A job's span timeline, one rendered line per span in time order —
    /// what `tcloud timeline <job>` prints. Spans are folded by
    /// `tacc-obs` from the lifecycle engine's transition stream, so the
    /// output is a pure function of sim time.
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn timeline(&self, job: JobId) -> Result<Vec<String>, TcloudError> {
        let p = self.platform();
        if p.job(job).is_none() {
            return Err(TcloudError::UnknownJob(job.value()));
        }
        Ok(p.timeline(job)
            .iter()
            .map(|s| {
                format!(
                    "[{:>10.1}s → {:>10.1}s] {:<13} {:>10.1}s  cause={:<9} {}",
                    s.start_secs,
                    s.end_secs,
                    s.phase.to_string(),
                    s.duration_secs(),
                    s.cause.to_string(),
                    s.attribution()
                )
            })
            .collect())
    }

    /// The cluster-wide ML Productivity Goodput decomposition, rendered
    /// as a small report — what `tcloud goodput` prints.
    pub fn goodput_lines(&self) -> Vec<String> {
        let r = self.platform().goodput();
        let mut lines = vec![
            format!(
                "goodput over {:.1}s on {} GPUs ({:.1} GPU-seconds of capacity)",
                r.horizon_secs, r.total_gpus, r.capacity_gpu_secs
            ),
            format!(
                "  goodput      = {:.4}  (availability {:.4} x efficiency {:.4} x (1 - badput {:.4}))",
                r.goodput, r.availability, r.throughput_efficiency, r.badput_fraction
            ),
            format!(
                "  allocated    = {:.1} GPU-s, running = {:.1} GPU-s, productive = {:.1} GPU-s",
                r.allocated_gpu_secs, r.running_gpu_secs, r.productive_gpu_secs
            ),
            format!("  badput total = {:.1} GPU-s, by cause:", r.badput.total_gpu_secs()),
        ];
        for (cause, gpu_secs) in r.badput.items() {
            lines.push(format!(
                "    {:<20} {:>12.1} GPU-s",
                cause.to_string(),
                gpu_secs
            ));
        }
        lines
    }

    /// Explains a job's current situation — for a waiting job, the
    /// scheduler's most recent skip reason (what `tcloud why` prints).
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn why(&self, job: JobId) -> Result<String, TcloudError> {
        self.platform()
            .why(job)
            .ok_or(TcloudError::UnknownJob(job.value()))
    }

    /// Prometheus text exposition of every operational metric on the
    /// active cluster (what `tcloud metrics` prints).
    pub fn metrics_text(&self) -> String {
        self.platform().metrics_text()
    }

    /// Kills a job on every node it occupies.
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist or is already
    /// terminal.
    pub fn kill(&mut self, job: JobId) -> Result<(), TcloudError> {
        match self.apply(Command::Cancel { job })? {
            CommandOutcome::Cancelled { applied: true, .. } => Ok(()),
            _ => Err(TcloudError::UnknownJob(job.value())),
        }
    }

    /// Lets the active cluster advance `secs` of simulated time (the
    /// client-side analogue of "come back later and check").
    ///
    /// # Errors
    ///
    /// [`TcloudError::Usage`] if `secs` is negative or not finite.
    pub fn advance(&mut self, secs: f64) -> Result<(), TcloudError> {
        self.apply(Command::Advance { secs }).map(|_| ())
    }

    /// Blocks until `job` reaches a terminal state (or the cluster goes
    /// idle, whichever is first).
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownJob`] if the job does not exist here.
    pub fn wait(&mut self, job: JobId) -> Result<JobState, TcloudError> {
        if self.platform().job(job).is_none() {
            return Err(TcloudError::UnknownJob(job.value()));
        }
        loop {
            let state = self.platform().job(job).expect("checked above").state();
            if state.is_terminal() {
                return Ok(state);
            }
            if self.platform_mut().step().is_none() {
                return Ok(self.platform().job(job).expect("checked above").state());
            }
        }
    }

    /// One-line description of the active cluster.
    pub fn cluster_info(&self) -> String {
        let p = self.platform();
        format!(
            "profile '{}': {} nodes / {} GPUs, {} free, {} queued, {} running, {}",
            self.active,
            p.cluster().node_count(),
            p.cluster().total_gpus(),
            p.cluster().free_gpus(),
            p.scheduler().queue_len(),
            p.scheduler().running_len(),
            p.now(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_cluster::{ClusterSpec, GpuModel};
    use tacc_workload::{GroupId, GroupRoster};

    fn config() -> PlatformConfig {
        PlatformConfig {
            cluster: ClusterSpec::uniform(1, 2, GpuModel::A100, 8),
            roster: GroupRoster::campus_default(16),
            ..PlatformConfig::default()
        }
    }

    fn schema() -> TaskSchema {
        TaskSchema::builder("t", GroupId::from_index(0))
            .est_duration_secs(300.0)
            .build()
            .expect("valid")
    }

    #[test]
    fn submit_wait_logs_round_trip() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 300.0).expect("valid");
        let state = c.wait(job).expect("exists");
        assert_eq!(state, JobState::Completed);
        let logs = c.logs(job).expect("exists");
        assert!(logs.first().expect("nonempty").contains("submitted"));
        assert!(logs.last().expect("nonempty").contains("completed"));
    }

    #[test]
    fn submit_json_validates() {
        let mut c = TcloudClient::with_profile("campus", config());
        let json = schema().to_json().to_string();
        assert!(c.submit_json(&json, 300.0).is_ok());
        assert!(matches!(
            c.submit_json("{bad", 300.0),
            Err(TcloudError::InvalidTask(_))
        ));
    }

    #[test]
    fn kill_running_job() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 1e6).expect("valid");
        c.advance(3600.0).expect("advances");
        assert_eq!(c.status(job).expect("exists").state, JobState::Running);
        c.kill(job).expect("running job killable");
        assert_eq!(c.status(job).expect("exists").state, JobState::Cancelled);
        // Killing again errors.
        assert!(c.kill(job).is_err());
    }

    /// Inputs the platform refuses come back as typed errors — through the
    /// same validation `taccd` applies — and leave the client usable.
    #[test]
    fn refused_inputs_are_errors_not_panics() {
        type Case = fn(&mut TcloudClient) -> Result<(), TcloudError>;
        // The third field is the refused advance, where there is one; the
        // other four are invalid tasks.
        let cases: [(&str, Case, Option<f64>); 6] = [
            (
                "group outside the roster",
                |c| {
                    let mut foreign = schema();
                    foreign.group = GroupId::from_index(4096);
                    let job = c.submit(foreign, 300.0)?;
                    c.wait(job).map(|_| ())
                },
                None,
            ),
            (
                "NaN service time",
                |c| c.submit(schema(), f64::NAN).map(|_| ()),
                None,
            ),
            (
                "negative service time",
                |c| c.submit(schema(), -5.0).map(|_| ()),
                None,
            ),
            (
                "--service nan",
                |c| {
                    let json = schema().to_json().to_string();
                    c.run_command(&["submit", &json, "--service", "nan"])
                        .map(|_| ())
                },
                None,
            ),
            ("advance NaN", |c| c.advance(f64::NAN), Some(f64::NAN)),
            (
                "advance backwards",
                |c| {
                    c.advance(100.0)?;
                    c.advance(-50.0)
                },
                Some(-50.0),
            ),
        ];
        for (name, case, advance) in cases {
            let mut c = TcloudClient::with_profile("campus", config());
            let err = case(&mut c).expect_err(name);
            match advance {
                Some(secs) => {
                    let text = CommandError::InvalidAdvance(secs).to_string();
                    assert_eq!(err, TcloudError::Usage(text), "{name}");
                }
                None => assert!(matches!(err, TcloudError::InvalidTask(_)), "{name}: {err}"),
            }
            assert!(c.list_jobs().is_empty(), "{name}: a job was minted");
            let job = c.submit(schema(), 300.0).expect("valid");
            assert_eq!(c.wait(job), Ok(JobState::Completed), "{name}");
        }
    }

    #[test]
    fn multi_cluster_profiles() {
        let mut c = TcloudClient::with_profile("campus", config());
        c.add_profile("lab", config());
        let j1 = c.submit(schema(), 300.0).expect("valid");
        c.use_profile("lab").expect("exists");
        // The lab cluster has no jobs; the campus job is invisible here.
        assert!(c.status(j1).is_err());
        assert_eq!(c.list_jobs().len(), 0);
        c.use_profile("campus").expect("exists");
        assert_eq!(c.list_jobs().len(), 1);
        assert!(matches!(
            c.use_profile("nope"),
            Err(TcloudError::UnknownProfile(_))
        ));
        assert_eq!(c.profile_names(), vec!["campus", "lab"]);
    }

    #[test]
    fn cluster_info_summarizes() {
        let c = TcloudClient::with_profile("campus", config());
        let info = c.cluster_info();
        assert!(info.contains("2 nodes / 16 GPUs"));
        assert!(info.contains("campus"));
    }

    #[test]
    fn unknown_job_errors() {
        let c = TcloudClient::with_profile("campus", config());
        assert!(c.status(JobId::from_value(7)).is_err());
        assert!(c.logs(JobId::from_value(7)).is_err());
        assert!(c.timeline(JobId::from_value(7)).is_err());
    }

    #[test]
    fn timeline_renders_spans_in_order() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 300.0).expect("valid");
        c.wait(job).expect("exists");
        let lines = c.timeline(job).expect("exists");
        assert!(lines.len() >= 3, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("Queued")));
        assert!(lines
            .iter()
            .any(|l| l.contains("Running") && l.contains("useful execution")));
    }

    #[test]
    fn goodput_lines_summarize_decomposition() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 300.0).expect("valid");
        c.wait(job).expect("exists");
        let lines = c.goodput_lines();
        assert!(lines[0].contains("16 GPUs"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("availability")));
        // Every itemized badput cause is listed below the summary.
        assert!(lines.iter().any(|l| l.contains("queue_wait")));
        assert!(lines.iter().any(|l| l.contains("idle_reserved")));
        assert_eq!(lines.len(), 4 + 6);
    }

    #[test]
    fn events_warn_when_the_ring_dropped() {
        // A 2-slot bus ring cannot hold one full lifecycle; the stream
        // must open with an explicit incompleteness warning.
        let mut c = TcloudClient::with_profile(
            "tiny",
            PlatformConfig {
                event_buffer_capacity: 2,
                ..config()
            },
        );
        let job = c.submit(schema(), 300.0).expect("valid");
        c.wait(job).expect("exists");
        let lines = c.events(job).expect("exists");
        let first = lines.first().expect("nonempty");
        assert!(first.contains("warning:"), "{lines:?}");
        assert!(first.contains("dropped"));

        // A roomy ring stays warning-free.
        let mut calm = TcloudClient::with_profile("campus", config());
        let job = calm.submit(schema(), 300.0).expect("valid");
        calm.wait(job).expect("exists");
        let lines = calm.events(job).expect("exists");
        assert!(!lines.iter().any(|l| l.contains("warning:")), "{lines:?}");
    }
}
