//! The in-process tcloud client: cluster profiles, the typed mutations
//! (submit, kill, advance, wait) and the in-process [`Endpoint`].

use std::collections::BTreeMap;
use std::fmt;

use tacc_core::wire::Json;
use tacc_core::{
    Command, CommandError, CommandOutcome, CommandRecord, Platform, PlatformConfig, Query,
    QueryError,
};
use tacc_workload::{JobId, JobState, TaskSchema};

use crate::cli::Endpoint;
use crate::transport::TransportError;

/// Why a verb failed — the same on either endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TcloudError {
    /// No profile with that name is configured.
    UnknownProfile(String),
    /// A CLI command could not be parsed; the message explains.
    Usage(String),
    /// The endpoint refused the request: the task was invalid, the job
    /// or node unknown, the arguments out of range.
    Refused {
        /// Machine-readable kind: a `CommandError::kind`, a
        /// `QueryError::kind`, or one of the daemon's own.
        kind: String,
        /// Human-readable explanation.
        message: String,
    },
    /// The conversation with the daemon itself broke.
    Transport(TransportError),
}

impl fmt::Display for TcloudError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcloudError::UnknownProfile(p) => write!(f, "unknown cluster profile '{p}'"),
            TcloudError::Usage(msg) => write!(f, "usage: {msg}"),
            TcloudError::Refused { kind, message } => write!(f, "{kind}: {message}"),
            TcloudError::Transport(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TcloudError {}

fn refused(kind: &str, message: impl fmt::Display) -> TcloudError {
    TcloudError::Refused {
        kind: kind.to_owned(),
        message: message.to_string(),
    }
}

impl From<CommandError> for TcloudError {
    fn from(e: CommandError) -> Self {
        refused(e.kind(), e)
    }
}

impl From<QueryError> for TcloudError {
    fn from(e: QueryError) -> Self {
        refused(e.kind(), e)
    }
}

impl From<TransportError> for TcloudError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Daemon { kind, message } => TcloudError::Refused { kind, message },
            broken => TcloudError::Transport(broken),
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
/// owns a simulated [`Platform`], and the client is the in-process
/// [`Endpoint`]: a verb reaches it as the same `Command` or `Query` a
/// live daemon would be sent.
#[derive(Debug)]
pub struct TcloudClient {
    name: String,
    active: Platform,
    /// Every profile but the active one.
    parked: BTreeMap<String, Platform>,
}

impl TcloudClient {
    /// Creates a client with a single named profile.
    pub fn with_profile(name: &str, config: PlatformConfig) -> Self {
        TcloudClient {
            name: name.to_owned(),
            active: Platform::new(config),
            parked: BTreeMap::new(),
        }
    }

    /// Registers another cluster profile (replacing one of that name).
    pub fn add_profile(&mut self, name: &str, config: PlatformConfig) {
        if name == self.name {
            self.active = Platform::new(config);
        } else {
            self.parked.insert(name.to_owned(), Platform::new(config));
        }
    }

    /// Switches the active cluster — the paper's "changing a line of
    /// configuration".
    ///
    /// # Errors
    ///
    /// [`TcloudError::UnknownProfile`] if no such profile exists.
    pub fn use_profile(&mut self, name: &str) -> Result<(), TcloudError> {
        if name == self.name {
            return Ok(());
        }
        let Some(next) = self.parked.remove(name) else {
            return Err(TcloudError::UnknownProfile(name.to_owned()));
        };
        let left = std::mem::replace(&mut self.active, next);
        let left_name = std::mem::replace(&mut self.name, name.to_owned());
        self.parked.insert(left_name, left);
        Ok(())
    }

    /// The active platform, read-only: where a caller that wants typed
    /// data rather than a verb's lines reads it.
    pub fn platform(&self) -> &Platform {
        &self.active
    }

    /// The one way this client mutates its platform: the command is
    /// applied as the record `taccd` would journal for it, so a session
    /// replayed through [`Platform::apply_record`] reproduces the
    /// platform exactly.
    fn apply_at(&mut self, at_secs: f64, command: Command) -> Result<CommandOutcome, TcloudError> {
        let record = CommandRecord {
            seq: 0, // orders journal frames; nothing is journalled here
            at_secs,
            command,
        };
        Ok(self.active.apply_record(&record)?)
    }

    /// [`Self::apply_at`] the platform's current time.
    fn apply(&mut self, command: Command) -> Result<CommandOutcome, TcloudError> {
        self.apply_at(self.active.now().as_secs(), command)
    }

    /// Submits a task to the active cluster.
    ///
    /// # Errors
    ///
    /// [`TcloudError::Refused`] (`invalid-task`) if the schema fails
    /// validation, names a group outside the roster, or the service time
    /// is not a positive finite number.
    pub fn submit(&mut self, schema: TaskSchema, service_secs: f64) -> Result<JobId, TcloudError> {
        match self.apply(Command::Submit {
            schema: schema.into(),
            service_secs,
        })? {
            CommandOutcome::Submitted { job } => Ok(job),
            other => unreachable!("submit answered {other:?}"),
        }
    }

    /// Lets the active cluster advance `secs` of simulated time (the
    /// client-side analogue of "come back later and check").
    ///
    /// # Errors
    ///
    /// [`TcloudError::Refused`] (`invalid-advance`) if `secs` is negative
    /// or not finite.
    pub fn advance(&mut self, secs: f64) -> Result<(), TcloudError> {
        self.apply(Command::Advance { secs }).map(|_| ())
    }

    /// Blocks until `job` reaches a terminal state (or the cluster goes
    /// idle, whichever is first): a zero-second advance stamped with the
    /// next pending event's time, again and again — each one settles
    /// exactly the events due then, and the session stays its command
    /// stream.
    ///
    /// # Errors
    ///
    /// [`TcloudError::Refused`] (`unknown-job`) if the job does not exist
    /// here.
    pub fn wait(&mut self, job: JobId) -> Result<JobState, TcloudError> {
        loop {
            let Some(state) = self.active.job(job).map(|j| j.state()) else {
                return Err(QueryError::UnknownJob(job).into());
            };
            match self.active.next_event_at() {
                Some(at) if !state.is_terminal() => {
                    self.apply_at(at.as_secs(), Command::Advance { secs: 0.0 })?;
                }
                _ => return Ok(state),
            }
        }
    }
}

/// The in-process endpoint: what the `taccd` engine does with a request,
/// minus the journal.
impl Endpoint for TcloudClient {
    fn mutate(&mut self, command: &Command) -> Result<Json, TcloudError> {
        let at_secs = self.active.now().as_secs();
        let outcome = self.apply_at(at_secs, command.clone())?;
        Ok(outcome.to_json(0, at_secs))
    }

    fn query(&mut self, query: &Query) -> Result<Json, TcloudError> {
        Ok(self.active.answer(query)?)
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

    /// What a verb prints.
    fn lines(c: &mut TcloudClient, argv: &[&str]) -> Vec<String> {
        c.run_command(argv).expect("verb works").lines
    }

    fn refused(result: Result<impl fmt::Debug, TcloudError>, kind: &str) -> bool {
        matches!(result, Err(TcloudError::Refused { kind: k, .. }) if k == kind)
    }

    #[test]
    fn submit_wait_logs_round_trip() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 300.0).expect("valid");
        let state = c.wait(job).expect("exists");
        assert_eq!(state, JobState::Completed);
        let logs = lines(&mut c, &["logs", "0"]);
        assert!(logs.first().expect("nonempty").contains("submitted"));
        assert!(logs.last().expect("nonempty").contains("completed"));
    }

    #[test]
    fn submit_json_validates() {
        let mut c = TcloudClient::with_profile("campus", config());
        let json = schema().to_json().to_string();
        assert_eq!(lines(&mut c, &["submit", &json]), ["submitted job 0"]);
        let bad = c.run_command(&["submit", "{bad", "--service", "300"]);
        assert!(refused(bad, "invalid-task"));
    }

    #[test]
    fn kill_running_job() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 1e6).expect("valid");
        c.advance(3600.0).expect("advances");
        let state = |c: &TcloudClient| c.platform().job(job).expect("exists").state();
        assert_eq!(state(&c), JobState::Running);
        let cancel = ["cancel", "0"];
        assert_eq!(
            lines(&mut c, &cancel),
            ["cancelled job 0"],
            "running job killable"
        );
        assert_eq!(state(&c), JobState::Cancelled);
        // Killing again finds nothing left to kill.
        assert_eq!(lines(&mut c, &cancel), ["job 0 had already finished"]);
        assert!(refused(c.run_command(&["cancel", "7"]), "unknown-job"));
    }

    /// Inputs the platform refuses come back as typed errors — through the
    /// same validation `taccd` applies — and leave the client usable.
    #[test]
    fn refused_inputs_are_errors_not_panics() {
        type Case = fn(&mut TcloudClient) -> Result<(), TcloudError>;
        let cases: [(&str, Case, &str); 6] = [
            (
                "group outside the roster",
                |c| {
                    let mut foreign = schema();
                    foreign.group = GroupId::from_index(4096);
                    let job = c.submit(foreign, 300.0)?;
                    c.wait(job).map(|_| ())
                },
                "invalid-task",
            ),
            (
                "NaN service time",
                |c| c.submit(schema(), f64::NAN).map(|_| ()),
                "invalid-task",
            ),
            (
                "negative service time",
                |c| c.submit(schema(), -5.0).map(|_| ()),
                "invalid-task",
            ),
            (
                "--service nan",
                |c| {
                    let json = schema().to_json().to_string();
                    c.run_command(&["submit", &json, "--service", "nan"])
                        .map(|_| ())
                },
                "invalid-task",
            ),
            ("advance NaN", |c| c.advance(f64::NAN), "invalid-advance"),
            (
                "advance backwards",
                |c| {
                    c.advance(100.0)?;
                    c.advance(-50.0)
                },
                "invalid-advance",
            ),
        ];
        for (name, case, kind) in cases {
            let mut c = TcloudClient::with_profile("campus", config());
            let err = case(&mut c).expect_err(name);
            assert!(refused(Err::<(), _>(err.clone()), kind), "{name}: {err}");
            assert_eq!(c.platform().job_count(), 0, "{name}: a job was minted");
            let job = c.submit(schema(), 300.0).expect("valid");
            assert_eq!(c.wait(job), Ok(JobState::Completed), "{name}");
        }
    }

    #[test]
    fn multi_cluster_profiles() {
        let mut c = TcloudClient::with_profile("campus", config());
        c.add_profile("lab", config());
        c.submit(schema(), 300.0).expect("valid");
        c.use_profile("lab").expect("exists");
        // The lab cluster has no jobs; the campus job is invisible here.
        assert!(refused(c.run_command(&["status", "0"]), "unknown-job"));
        assert_eq!(c.platform().job_count(), 0);
        c.use_profile("campus").expect("exists");
        assert_eq!(c.platform().job_count(), 1);
        assert!(matches!(
            c.use_profile("nope"),
            Err(TcloudError::UnknownProfile(_))
        ));
    }

    #[test]
    fn cluster_info_summarizes() {
        let mut c = TcloudClient::with_profile("campus", config());
        let info = lines(&mut c, &["info"]);
        assert!(
            info[0].starts_with("2 nodes / 16 GPUs, 16 free"),
            "{info:?}"
        );
        assert_eq!(info.len(), 1, "no journal behind an in-process platform");
    }

    #[test]
    fn unknown_job_errors() {
        let mut c = TcloudClient::with_profile("campus", config());
        for verb in [
            "status", "logs", "events", "timeline", "why", "get", "cancel",
        ] {
            assert!(
                refused(c.run_command(&[verb, "7"]), "unknown-job"),
                "{verb}"
            );
        }
        assert!(refused(c.wait(JobId::from_value(7)), "unknown-job"));
    }

    #[test]
    fn timeline_renders_spans_in_order() {
        let mut c = TcloudClient::with_profile("campus", config());
        let job = c.submit(schema(), 300.0).expect("valid");
        c.wait(job).expect("exists");
        let lines = lines(&mut c, &["timeline", "0"]);
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
        let lines = lines(&mut c, &["goodput"]);
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
        let events = lines(&mut c, &["events", "0"]);
        let first = events.first().expect("nonempty");
        assert!(first.contains("warning:"), "{events:?}");
        assert!(first.contains("dropped"));

        // A roomy ring stays warning-free.
        let mut calm = TcloudClient::with_profile("campus", config());
        let job = calm.submit(schema(), 300.0).expect("valid");
        calm.wait(job).expect("exists");
        let events = lines(&mut calm, &["events", "0"]);
        assert!(!events.iter().any(|l| l.contains("warning:")), "{events:?}");
    }
}
