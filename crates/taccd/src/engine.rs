//! The single-writer engine: one thread owning the deterministic
//! [`Platform`] and the write-ahead [`Journal`], draining a channel of
//! client messages in arrival order with group-committed durability.
//!
//! ## Batch protocol
//!
//! The engine blocks on the channel, then drains up to
//! [`MAX_BATCH`] queued messages and processes them **in arrival
//! order**: a mutate is stamped, applied to the platform and (on
//! success) appended to the journal; a query is answered against the
//! state as of its position in the stream. After the batch, one
//! [`Journal::sync`] makes every accepted command durable, and only
//! then are the buffered replies released — no client sees an
//! acknowledgment for a command that could be lost by a crash, and
//! one `fsync` is amortized over the whole batch.
//!
//! ## Clock modes
//!
//! * [`ClockMode::Logical`] — commands are stamped at the platform's
//!   current simulation time; time moves only via `Command::Advance`.
//!   Fully deterministic end to end (what the recovery tests and CI
//!   use).
//! * [`ClockMode::Wall`] — commands are stamped with wall-clock
//!   seconds since daemon start, clamped monotone. Replay still
//!   byte-reproduces, because replay uses the *recorded* stamps.

use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::Instant;

use tacc_core::wire::{obj, Json};
use tacc_core::{Command, CommandOutcome, CommandRecord, Platform, PlatformConfig};
use tacc_obs::{Counter, MetricsRegistry};

use crate::journal::{Journal, JournalError, RecoveryReport};

/// Upper bound on messages drained into one group-commit batch.
pub const MAX_BATCH: usize = 64;

/// How command timestamps are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Stamp at the platform's current simulation time (deterministic).
    #[default]
    Logical,
    /// Stamp with monotone wall-clock seconds since daemon start.
    Wall,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Journal file path. Created if absent; recovered (and replayed)
    /// if present.
    pub journal: PathBuf,
    /// Platform configuration; the seed is written into the journal
    /// genesis frame and checked on recovery.
    pub platform: PlatformConfig,
    /// Timestamp source.
    pub clock: ClockMode,
}

/// A read-only question answered from engine state.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// One job's status snapshot.
    Status {
        /// Job id value.
        job: u64,
    },
    /// Status snapshots for every job, in id order.
    List,
    /// The event-bus records for one job.
    Events {
        /// Job id value.
        job: u64,
    },
    /// Daemon + cluster overview.
    Info,
    /// Prometheus text exposition (platform + daemon series).
    Metrics,
    /// The full transition log as JSONL (the replay-equivalence probe).
    Transitions,
    /// Journal counters.
    JournalStats,
}

/// A message from a connection thread to the engine.
#[derive(Debug)]
pub enum Msg {
    /// Apply a command (journalled, group-committed).
    Mutate {
        /// The command to apply.
        command: Command,
        /// Where to send the reply.
        reply: Sender<Reply>,
    },
    /// Answer a query (not journalled).
    Query {
        /// The query.
        query: Query,
        /// Where to send the reply.
        reply: Sender<Reply>,
    },
    /// Shut the engine down after the current batch.
    Stop,
}

/// The engine's answer: the `ok` payload or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success; the JSON payload for the `ok` response field.
    Ok(Json),
    /// Failure; a stable error kind tag plus a human-readable message.
    Err {
        /// Stable kind tag (e.g. `unknown-job`).
        kind: String,
        /// Human-readable description.
        message: String,
    },
}

struct EngineMetrics {
    fsyncs: Counter,
    frames: Counter,
    recoveries: Counter,
    torn: Counter,
    commands: Counter,
    rejects: Counter,
    queries: Counter,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            fsyncs: registry.counter("tacc_taccd_journal_fsyncs_total", &[]),
            frames: registry.counter("tacc_taccd_journal_frames_total", &[]),
            recoveries: registry.counter("tacc_taccd_recoveries_total", &[]),
            torn: registry.counter("tacc_taccd_torn_frames_total", &[]),
            commands: registry.counter("tacc_taccd_commands_applied_total", &[]),
            rejects: registry.counter("tacc_taccd_commands_rejected_total", &[]),
            queries: registry.counter("tacc_taccd_queries_total", &[]),
        }
    }
}

/// Why the engine could not start.
#[derive(Debug)]
pub enum EngineInitError {
    /// The journal could not be opened/recovered.
    Journal(JournalError),
    /// A recovered record failed to replay — the journal holds a record
    /// that never could have been accepted live, i.e. corruption that
    /// slipped past the frame checksums.
    Replay {
        /// Sequence number of the offending record.
        seq: u64,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for EngineInitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineInitError::Journal(e) => write!(f, "{e}"),
            EngineInitError::Replay { seq, message } => {
                write!(f, "journal replay failed at seq {seq}: {message}")
            }
        }
    }
}

impl std::error::Error for EngineInitError {}

impl From<JournalError> for EngineInitError {
    fn from(e: JournalError) -> Self {
        EngineInitError::Journal(e)
    }
}

/// The single-writer service engine.
pub struct Engine {
    platform: Platform,
    journal: Journal,
    registry: MetricsRegistry,
    metrics: EngineMetrics,
    clock: ClockMode,
    next_seq: u64,
    last_stamp: f64,
    started: Instant,
    /// Synced journal counters the metrics were last reconciled to.
    flushed: (u64, u64),
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("journal", &self.journal.path())
            .field("clock", &self.clock)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens (or creates) the journal and builds the engine. An existing
    /// journal is recovered: its longest valid prefix is replayed into a
    /// fresh platform, byte-reproducing the pre-crash state, and any
    /// torn tail is truncated. Returns the recovery report (`None` for a
    /// freshly created journal).
    ///
    /// # Errors
    ///
    /// [`EngineInitError`] when the journal cannot be opened or a
    /// recovered record fails to replay.
    pub fn open(config: EngineConfig) -> Result<(Engine, Option<RecoveryReport>), EngineInitError> {
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::new(&registry);
        let seed = config.platform.seed;
        let mut platform = Platform::new(config.platform.clone());
        let (journal, report) = if config.journal.exists() {
            let (journal, records, report) = Journal::recover(&config.journal, seed)?;
            for (i, record) in records.iter().enumerate() {
                if record.seq != i as u64 {
                    return Err(EngineInitError::Replay {
                        seq: record.seq,
                        message: format!("expected dense sequence {i}"),
                    });
                }
                platform
                    .apply_record(record)
                    .map_err(|e| EngineInitError::Replay {
                        seq: record.seq,
                        message: e.to_string(),
                    })?;
            }
            metrics.recoveries.inc();
            if report.torn() {
                metrics.torn.inc();
            }
            (journal, Some(report))
        } else {
            (Journal::create(&config.journal, seed)?, None)
        };
        let next_seq = report.as_ref().map(|r| r.frames).unwrap_or(0);
        let last_stamp = platform.now().as_secs();
        Ok((
            Engine {
                platform,
                journal,
                registry,
                metrics,
                clock: config.clock,
                next_seq,
                last_stamp,
                // tacc-lint: allow(wall-clock, reason = "daemon start anchor for ClockMode::Wall stamps; replay uses the recorded stamps, so determinism is unaffected")
                started: Instant::now(),
                flushed: (0, 0),
            },
            report,
        ))
    }

    /// The engine-side metrics registry (`tacc_taccd_*` series). The
    /// daemon clones gauge handles out of it (e.g. connected clients).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Runs the engine loop until the channel closes or a [`Msg::Stop`]
    /// arrives. This consumes the thread; spawn it.
    pub fn run(mut self, rx: &Receiver<Msg>) {
        loop {
            let Ok(first) = rx.recv() else {
                break; // all senders gone
            };
            let mut batch = Vec::with_capacity(8);
            batch.push(first);
            while batch.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(msg) => batch.push(msg),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
            if !self.process_batch(batch) {
                break;
            }
        }
        // Final durability point before the thread exits.
        let _ = self.journal.sync();
        self.reconcile_metrics();
    }

    /// Processes one batch; returns `false` when a `Stop` was seen.
    fn process_batch(&mut self, batch: Vec<Msg>) -> bool {
        let mut replies: Vec<(Sender<Reply>, Reply)> = Vec::with_capacity(batch.len());
        let mut keep_running = true;
        for msg in batch {
            match msg {
                Msg::Mutate { command, reply } => {
                    let outcome = self.apply_mutate(command);
                    replies.push((reply, outcome));
                }
                Msg::Query { query, reply } => {
                    self.metrics.queries.inc();
                    let answer = self.answer_query(&query);
                    replies.push((reply, answer));
                }
                Msg::Stop => keep_running = false,
            }
        }
        // Group commit: everything accepted above becomes durable in one
        // fsync; only then do acknowledgments leave the engine.
        if let Err(e) = self.journal.sync() {
            // Durability failed: every accepted mutate in this batch must
            // be refused, not acknowledged. The platform state is ahead
            // of the journal now; the daemon restarts from the journal,
            // so refusing is the honest answer.
            let kind = "journal-io".to_owned();
            let message = e.to_string();
            for (_, r) in replies.iter_mut() {
                if matches!(r, Reply::Ok(_)) {
                    *r = Reply::Err {
                        kind: kind.clone(),
                        message: message.clone(),
                    };
                }
            }
        }
        self.reconcile_metrics();
        for (tx, reply) in replies {
            let _ = tx.send(reply); // a vanished client is not an engine error
        }
        keep_running
    }

    /// Stamps, applies and journals one command.
    fn apply_mutate(&mut self, command: Command) -> Reply {
        let at_secs = self.stamp();
        let record = CommandRecord {
            seq: self.next_seq,
            at_secs,
            command,
        };
        match self.platform.apply_record(&record) {
            Ok(outcome) => {
                if let Err(e) = self.journal.append_frame(&record) {
                    // Could not journal an applied command: refuse it (the
                    // client will retry against recovered state).
                    self.metrics.rejects.inc();
                    return Reply::Err {
                        kind: "journal-io".to_owned(),
                        message: e.to_string(),
                    };
                }
                self.next_seq += 1;
                self.last_stamp = at_secs;
                self.metrics.commands.inc();
                Reply::Ok(outcome_json(record.seq, at_secs, &outcome))
            }
            Err(e) => {
                self.metrics.rejects.inc();
                Reply::Err {
                    kind: e.kind().to_owned(),
                    message: e.to_string(),
                }
            }
        }
    }

    /// The timestamp for a command arriving now.
    fn stamp(&self) -> f64 {
        match self.clock {
            ClockMode::Logical => self.platform.now().as_secs(),
            ClockMode::Wall => {
                let elapsed = self.started.elapsed().as_secs_f64();
                elapsed.max(self.last_stamp)
            }
        }
    }

    fn answer_query(&self, query: &Query) -> Reply {
        match query {
            Query::Status { job } => {
                let id = tacc_workload::JobId::from_value(*job);
                match self.platform.job_status(id) {
                    Some(status) => Reply::Ok(status_json(&status)),
                    None => Reply::Err {
                        kind: "unknown-job".to_owned(),
                        message: format!("unknown job {job}"),
                    },
                }
            }
            Query::List => {
                let statuses = self
                    .platform
                    .job_ids()
                    .into_iter()
                    .filter_map(|id| self.platform.job_status(id))
                    .map(|s| status_json(&s))
                    .collect();
                Reply::Ok(Json::Arr(statuses))
            }
            Query::Events { job } => {
                let id = tacc_workload::JobId::from_value(*job);
                if self.platform.job(id).is_none() {
                    return Reply::Err {
                        kind: "unknown-job".to_owned(),
                        message: format!("unknown job {job}"),
                    };
                }
                let events = self
                    .platform
                    .job_events(id)
                    .into_iter()
                    .map(|rec| {
                        obj(vec![
                            ("seq", Json::Num(rec.seq as f64)),
                            ("at_secs", Json::Num(rec.at_secs)),
                            ("event", Json::Str(rec.event.to_string())),
                        ])
                    })
                    .collect();
                Reply::Ok(Json::Arr(events))
            }
            Query::Info => {
                let cluster = self.platform.cluster();
                Reply::Ok(obj(vec![
                    (
                        "protocol",
                        Json::Num(tacc_core::wire::PROTOCOL_VERSION as f64),
                    ),
                    ("now_secs", Json::Num(self.platform.now().as_secs())),
                    ("nodes", Json::Num(cluster.node_count() as f64)),
                    ("total_gpus", Json::Num(f64::from(cluster.total_gpus()))),
                    ("jobs", Json::Num(self.platform.job_count() as f64)),
                    ("journal_seq", Json::Num(self.next_seq as f64)),
                ]))
            }
            Query::Metrics => {
                let mut text = self.platform.metrics_text();
                text.push_str(&self.registry.expose());
                Reply::Ok(Json::Str(text))
            }
            Query::Transitions => Reply::Ok(Json::Str(self.platform.transition_log_jsonl())),
            Query::JournalStats => {
                let stats = self.journal.stats();
                Reply::Ok(obj(vec![
                    ("appended", Json::Num(stats.appended as f64)),
                    ("syncs", Json::Num(stats.syncs as f64)),
                    ("dirty", Json::Num(stats.dirty as f64)),
                    ("next_seq", Json::Num(self.next_seq as f64)),
                ]))
            }
        }
    }

    /// Mirrors journal counter deltas into the monotone metrics.
    fn reconcile_metrics(&mut self) {
        let stats = self.journal.stats();
        let (frames, fsyncs) = self.flushed;
        if stats.appended > frames {
            self.metrics.frames.inc_by(stats.appended - frames);
        }
        if stats.syncs > fsyncs {
            self.metrics.fsyncs.inc_by(stats.syncs - fsyncs);
        }
        self.flushed = (stats.appended, stats.syncs);
    }
}

fn outcome_json(seq: u64, at_secs: f64, outcome: &CommandOutcome) -> Json {
    let mut fields = vec![
        ("seq", Json::Num(seq as f64)),
        ("at_secs", Json::Num(at_secs)),
    ];
    match outcome {
        CommandOutcome::Submitted { job } => {
            fields.push(("outcome", Json::Str("submitted".to_owned())));
            fields.push(("job", Json::Num(job.value() as f64)));
        }
        CommandOutcome::Cancelled { job, applied } => {
            fields.push(("outcome", Json::Str("cancelled".to_owned())));
            fields.push(("job", Json::Num(job.value() as f64)));
            fields.push(("applied", Json::Bool(*applied)));
        }
        CommandOutcome::Reserved => {
            fields.push(("outcome", Json::Str("reserved".to_owned())));
        }
        CommandOutcome::NodeFaulted { node, jobs } => {
            fields.push(("outcome", Json::Str("node-faulted".to_owned())));
            fields.push(("node", Json::Num(node.index() as f64)));
            fields.push((
                "jobs",
                Json::Arr(jobs.iter().map(|j| Json::Num(j.value() as f64)).collect()),
            ));
        }
        CommandOutcome::Drained { node } => {
            fields.push(("outcome", Json::Str("drained".to_owned())));
            fields.push(("node", Json::Num(node.index() as f64)));
        }
        CommandOutcome::Undrained { node } => {
            fields.push(("outcome", Json::Str("undrained".to_owned())));
            fields.push(("node", Json::Num(node.index() as f64)));
        }
        CommandOutcome::Advanced { now_secs } => {
            fields.push(("outcome", Json::Str("advanced".to_owned())));
            fields.push(("now_secs", Json::Num(*now_secs)));
        }
    }
    obj(fields)
}

fn status_json(status: &tacc_core::JobStatus) -> Json {
    obj(vec![
        ("job", Json::Num(status.id.value() as f64)),
        ("state", Json::Str(format!("{:?}", status.state))),
        ("name", Json::Str(status.name.clone())),
        (
            "nodes",
            Json::Arr(
                status
                    .nodes
                    .iter()
                    .map(|n| Json::Num(n.index() as f64))
                    .collect(),
            ),
        ),
        ("submit_secs", Json::Num(status.submit_secs)),
        ("remaining_secs", Json::Num(status.remaining_secs)),
        ("preemptions", Json::Num(f64::from(status.preemptions))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use tacc_workload::{GroupId, TaskSchema};

    fn temp_journal(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("taccd-engine-test-{tag}-{}", std::process::id()));
        p
    }

    fn submit_command() -> Command {
        Command::Submit {
            schema: TaskSchema::builder("engine-unit", GroupId::from_index(0))
                .build()
                .expect("valid schema"),
            service_secs: 120.0,
        }
    }

    fn mutate(tx: &mpsc::Sender<Msg>, command: Command) -> Reply {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Msg::Mutate {
            command,
            reply: rtx,
        })
        .expect("engine alive");
        rrx.recv().expect("reply")
    }

    fn query(tx: &mpsc::Sender<Msg>, q: Query) -> Reply {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Msg::Query {
            query: q,
            reply: rtx,
        })
        .expect("engine alive");
        rrx.recv().expect("reply")
    }

    fn spawn(journal: PathBuf) -> (mpsc::Sender<Msg>, std::thread::JoinHandle<()>) {
        let (engine, _) = Engine::open(EngineConfig {
            journal,
            platform: PlatformConfig::default(),
            clock: ClockMode::Logical,
        })
        .expect("opens");
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || engine.run(&rx));
        (tx, handle)
    }

    #[test]
    fn restart_byte_reproduces_transition_log() {
        let path = temp_journal("replay");
        std::fs::remove_file(&path).ok();
        let (tx, handle) = spawn(path.clone());
        for _ in 0..4 {
            assert!(matches!(mutate(&tx, submit_command()), Reply::Ok(_)));
        }
        assert!(matches!(
            mutate(&tx, Command::Advance { secs: 3600.0 }),
            Reply::Ok(_)
        ));
        assert!(matches!(
            mutate(
                &tx,
                Command::Reserve {
                    gpus: 32,
                    from_secs: 7200.0,
                    until_secs: 10800.0
                }
            ),
            Reply::Ok(_)
        ));
        let Reply::Ok(Json::Str(before)) = query(&tx, Query::Transitions) else {
            panic!("transitions query failed");
        };
        assert!(!before.is_empty());
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");

        // Restart: recovery must byte-reproduce the transition log.
        let (tx, handle) = spawn(path.clone());
        let Reply::Ok(Json::Str(after)) = query(&tx, Query::Transitions) else {
            panic!("transitions query failed after restart");
        };
        assert_eq!(before, after, "recovered transition log differs");
        // And the restarted engine keeps accepting work, seq continuing.
        let Reply::Ok(v) = mutate(&tx, submit_command()) else {
            panic!("post-recovery submit failed");
        };
        assert_eq!(v.get("seq").and_then(Json::as_u64), Some(6));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejected_commands_are_not_journalled() {
        let path = temp_journal("rejects");
        std::fs::remove_file(&path).ok();
        let (tx, handle) = spawn(path.clone());
        let reply = mutate(
            &tx,
            Command::Cancel {
                job: tacc_workload::JobId::from_value(999),
            },
        );
        let Reply::Err { kind, message } = reply else {
            panic!("expected error");
        };
        // The command moves into the record before it is applied: a
        // refusal must still be answered with the command's typed error.
        assert_eq!(kind, "unknown-job");
        assert!(message.contains("999"), "{message}");
        let Reply::Ok(stats) = query(&tx, Query::JournalStats) else {
            panic!("stats query failed");
        };
        assert_eq!(stats.get("appended").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("next_seq").and_then(Json::as_u64), Some(0));
        // ...and leaves no hole in the sequence.
        let Reply::Ok(accepted) = mutate(&tx, submit_command()) else {
            panic!("submit after a refusal failed");
        };
        assert_eq!(accepted.get("seq").and_then(Json::as_u64), Some(0));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn queries_observe_batch_order() {
        let path = temp_journal("order");
        std::fs::remove_file(&path).ok();
        let (tx, handle) = spawn(path.clone());
        let submitted = mutate(&tx, submit_command());
        let Reply::Ok(v) = submitted else {
            panic!("submit failed");
        };
        let job = v.get("job").and_then(Json::as_u64).expect("job id");
        let Reply::Ok(status) = query(&tx, Query::Status { job }) else {
            panic!("status should see the job submitted before it");
        };
        assert_eq!(status.get("job").and_then(Json::as_u64), Some(job));
        let Reply::Ok(info) = query(&tx, Query::Info) else {
            panic!("info failed");
        };
        assert_eq!(info.get("jobs").and_then(Json::as_u64), Some(1));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_expose_taccd_series() {
        let path = temp_journal("metrics");
        std::fs::remove_file(&path).ok();
        let (tx, handle) = spawn(path.clone());
        assert!(matches!(mutate(&tx, submit_command()), Reply::Ok(_)));
        let Reply::Ok(Json::Str(text)) = query(&tx, Query::Metrics) else {
            panic!("metrics query failed");
        };
        assert!(text.contains("tacc_taccd_journal_frames_total 1"));
        assert!(text.contains("tacc_taccd_journal_fsyncs_total"));
        assert!(text.contains("tacc_core_jobs_submitted_total"));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }
}
