//! The single-writer engine: the deterministic [`Platform`] and the
//! write-ahead [`Journal`], fed by a channel of client messages taken in
//! arrival order, with pipelined group-committed durability.
//!
//! ## Two stages
//!
//! [`Engine::run`] is two stages joined by a bounded channel.
//!
//! The **apply stage** is the thread `run` is called on, and the only
//! owner of the platform. It blocks on the inbox, drains up to
//! [`MAX_BATCH`] queued messages and takes them in arrival order: a
//! mutate is stamped, applied and (on success) queued, unencoded, in the
//! journal's pending batch; a query is answered against the state as of
//! its position in the stream. No reply is sent from here. The batch —
//! its records and its replies — goes to the commit stage, and the apply
//! stage turns to the next one.
//!
//! The **commit stage** is one scoped thread, spawned and joined inside
//! `run`, and the only writer of the journal file while it lives. Per
//! batch it encodes the records' frames into one buffer, makes one
//! `write_all` and one `sync_data` — none of the three when the batch
//! carries no record — and only then releases the batch's replies.
//! So batch N+1 is applied while batch N is on its way to disk, and the
//! apply stage is never more than [`PIPELINE_DEPTH`] + 1 batches ahead of
//! the one being committed.
//!
//! [`Engine::open`] runs the other direction on the caller's thread
//! alone: recovery ([`Journal::replay`]) streams the journal, and `open`
//! applies each record to the platform as it decodes.
//!
//! ## Invariants
//!
//! * **I1 — durable before answered.** No reply — ack, refusal or query
//!   answer — leaves the engine before every frame appended ahead of it
//!   is durable. A query may see state a crash would lose; its answer
//!   cannot be received until that state is on disk.
//! * **I2 — arrival order.** Replies leave in the order their messages
//!   arrived: one thread releases them, batch by batch.
//! * **I3 — journal bytes.** The file is the genesis frame followed by
//!   `encode_frame(record.to_json().to_string())` for each accepted
//!   record, in `seq` order — whatever the batching.
//! * **I4 — fail-stop.** After the first failed write or sync the engine
//!   never sends another [`Reply::Ok`]. The commit stage answers the
//!   failed batch and everything after it `journal-io`; once the apply
//!   stage sees the journal [closed](Journal::failed) it refuses
//!   mutations without applying them, and queries too, because the state
//!   they would describe is ahead of the journal. The journal then holds
//!   exactly the acknowledged prefix (plus, at most, a torn tail that
//!   recovery truncates); restarting the daemon recovers it.
//!
//! ## Clock modes
//!
//! * [`ClockMode::Logical`] — commands are stamped at the platform's
//!   current simulation time; time moves only via `Command::Advance`.
//!   Fully deterministic end to end (what the recovery tests and CI
//!   use).
//! * [`ClockMode::Wall`] — commands are stamped with the platform time
//!   the engine opened at (0, or the recovered clock) plus wall-clock
//!   seconds since, never behind the platform clock. Replay still
//!   byte-reproduces, because replay uses the *recorded* stamps.

use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TryRecvError};
use std::time::Instant;

pub use tacc_core::wire::Reply;
use tacc_core::wire::{obj, Json, PROTOCOL_VERSION};
pub use tacc_core::Query;
use tacc_core::{Command, CommandRecord, Platform, PlatformConfig};
use tacc_obs::{Counter, MetricsRegistry};

use crate::journal::{Detached, Frames, Journal, JournalError, JournalFile, RecoveryReport};

/// Upper bound on messages drained into one group-commit batch.
pub const MAX_BATCH: usize = 64;

/// Batches that may wait between the stages. One is enough for the apply
/// stage never to idle while the disk keeps up, and it bounds what a
/// crash can lose un-acknowledged to three batches: one being committed,
/// one waiting, one being applied. A constant, not a setting: a deeper
/// queue buys no throughput (the slower stage sets the rate) and only
/// lengthens every reply's wait (DESIGN.md, "Journal format and
/// durability protocol").
pub const PIPELINE_DEPTH: usize = 1;

/// How command timestamps are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Stamp at the platform's current simulation time (deterministic).
    #[default]
    Logical,
    /// Stamp with wall-clock seconds since daemon start, counted on from
    /// the platform time it opened at, never behind the platform clock.
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

struct EngineMetrics {
    recoveries: Counter,
    torn: Counter,
    commands: Counter,
    rejects: Counter,
    queries: Counter,
}

impl EngineMetrics {
    fn new(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
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
    apply: ApplyStage,
    commit: CommitStage,
}

/// What the apply stage owns: the platform, and the append half of the
/// journal.
struct ApplyStage {
    platform: Platform,
    journal: Journal<Detached>,
    registry: MetricsRegistry,
    metrics: EngineMetrics,
    clock: ClockMode,
    next_seq: u64,
    /// Platform time when this engine opened: 0, or where recovery left it.
    opened_secs: f64,
    started: Instant,
    /// Commands applied, commands refused and queries answered, in that
    /// order, since the last [`publish`](ApplyStage::publish).
    tally: [u64; 3],
}

/// What the commit stage owns: the journal file. What reached it is
/// counted in the journal's own progress, which the append half reads
/// ([`Journal::stats`]).
struct CommitStage {
    file: JournalFile,
}

/// One batch on its way from the apply stage to the commit stage. The
/// commit stage hands it back emptied, so in the steady state the same
/// few buffers go round and a batch allocates nothing.
#[derive(Default)]
struct Batch {
    /// The accepted commands' records, to be framed by the commit stage.
    frames: Frames,
    /// One reply per message, in arrival order, each with its way back.
    replies: Vec<(Sender<Reply>, Reply)>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("journal", &self.apply.journal.path())
            .field("clock", &self.apply.clock)
            .field("next_seq", &self.apply.next_seq)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Opens (or creates) the journal and builds the engine. An existing
    /// journal is recovered ([`Journal::replay`]): its longest valid
    /// prefix is replayed into a fresh platform as it decodes,
    /// byte-reproducing the pre-crash state, and then any torn tail is
    /// truncated. Returns the recovery report (`None` for a freshly
    /// created journal).
    ///
    /// # Errors
    ///
    /// [`EngineInitError`] when the journal cannot be opened or a
    /// recovered record fails to replay; the file is then left as it was.
    pub fn open(config: EngineConfig) -> Result<(Engine, Option<RecoveryReport>), EngineInitError> {
        let registry = MetricsRegistry::new();
        let metrics = EngineMetrics::new(&registry);
        let seed = config.platform.seed;
        let mut platform = Platform::new(config.platform.clone());
        let (journal, report) = if config.journal.exists() {
            let mut expected = 0;
            // By value: each decoded record is released as it is applied
            // (a submit's schema lives on in its job, by reference count).
            let (journal, report) = Journal::replay(&config.journal, seed, |record| {
                let replay_error = |message| EngineInitError::Replay {
                    seq: record.seq,
                    message,
                };
                if record.seq != expected {
                    return Err(replay_error(format!("expected dense sequence {expected}")));
                }
                platform
                    .apply_record(&record)
                    .map_err(|e| replay_error(e.to_string()))?;
                expected += 1;
                Ok(())
            })?;
            metrics.recoveries.inc();
            if report.torn() {
                metrics.torn.inc();
            }
            (journal, Some(report))
        } else {
            (Journal::create(&config.journal, seed)?, None)
        };
        let next_seq = report.as_ref().map(|r| r.frames).unwrap_or(0);
        let opened_secs = platform.now().as_secs();
        let (journal, file) = journal.split();
        let commit = CommitStage { file };
        let apply = ApplyStage {
            platform,
            journal,
            registry,
            metrics,
            clock: config.clock,
            next_seq,
            opened_secs,
            // tacc-lint: allow(wall-clock, reason = "daemon start anchor for ClockMode::Wall stamps; replay uses the recorded stamps, so determinism is unaffected")
            started: Instant::now(),
            tally: [0; 3],
        };
        Ok((Engine { apply, commit }, report))
    }

    /// The engine-side metrics registry (`tacc_taccd_*` series). The
    /// daemon clones gauge handles out of it (e.g. connected clients).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.apply.registry
    }

    /// Runs the engine until the channel closes or a [`Msg::Stop`]
    /// arrives: the apply stage on this thread, the commit stage on a
    /// thread of its own that is joined before this returns, after it
    /// has committed and answered every batch handed to it. This
    /// consumes the thread; spawn it.
    pub fn run(mut self, rx: &Receiver<Msg>) {
        self.serve(rx);
    }

    /// [`Engine::run`], leaving the engine behind for a test to inspect.
    fn serve(&mut self, rx: &Receiver<Msg>) {
        let Engine { apply, commit } = self;
        let (to_commit, batches) = mpsc::sync_channel(PIPELINE_DEPTH);
        // Room for every batch in existence, so handing one back never
        // blocks the commit stage.
        let (recycle, spares) = mpsc::sync_channel(PIPELINE_DEPTH + 2);
        std::thread::scope(|scope| {
            scope.spawn(move || commit.run(&batches, &recycle));
            // `to_commit` moves in and drops on return, which is what
            // ends the commit stage.
            apply.run(rx, to_commit, &spares);
        });
    }
}

impl CommitStage {
    /// Makes each batch durable, then — and only then — releases its
    /// replies (I1), in the order they were pushed (I2). After the first
    /// failure nothing is written and every reply is `journal-io` (I4).
    fn run(&mut self, batches: &Receiver<Batch>, recycle: &SyncSender<Batch>) {
        let mut failure: Option<String> = None;
        for mut batch in batches {
            if failure.is_none() {
                if let Err(e) = self.file.commit(&batch.frames) {
                    failure = Some(e.to_string());
                }
            }
            for (tx, reply) in batch.replies.drain(..) {
                let reply = match &failure {
                    None => reply,
                    Some(message) => journal_io(message),
                };
                let _ = tx.send(reply); // a vanished client is not an engine error
            }
            batch.frames.clear();
            let _ = recycle.try_send(batch);
        }
    }
}

/// What the apply stage says once it has seen the journal closed. The
/// commit stage puts the first failure's own text in its place.
const JOURNAL_CLOSED: &str = "the journal failed; restart the daemon to recover from it";

/// The refusal every message gets once the journal has failed.
fn journal_io(message: &str) -> Reply {
    Reply::refuse("journal-io", message)
}

impl ApplyStage {
    /// Drains the inbox batch by batch until it closes or a `Stop`
    /// arrives; the batch holding the `Stop` is still handed on whole.
    fn run(&mut self, rx: &Receiver<Msg>, to_commit: SyncSender<Batch>, spares: &Receiver<Batch>) {
        let mut inbox = Vec::with_capacity(MAX_BATCH);
        let mut keep_running = true;
        while keep_running {
            let Ok(first) = rx.recv() else {
                break; // all senders gone
            };
            inbox.push(first);
            while inbox.len() < MAX_BATCH {
                match rx.try_recv() {
                    Ok(msg) => inbox.push(msg),
                    Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
                }
            }
            let mut batch = spares.try_recv().unwrap_or_default();
            for msg in inbox.drain(..) {
                match msg {
                    Msg::Mutate { command, reply } => {
                        let outcome = self.apply_mutate(command);
                        let refused = matches!(outcome, Reply::Err { .. });
                        self.tally[usize::from(refused)] += 1;
                        batch.replies.push((reply, outcome));
                    }
                    Msg::Query { query, reply } => {
                        self.tally[2] += 1;
                        let answer = self.answer(&query);
                        batch.replies.push((reply, answer));
                    }
                    Msg::Stop => keep_running = false,
                }
            }
            self.publish();
            batch.frames = self.journal.take_pending(batch.frames);
            if to_commit.send(batch).is_err() {
                break; // the commit stage is gone: nothing can be answered
            }
        }
    }

    /// Adds the tallies to their counters, and zeroes them.
    fn publish(&mut self) {
        let [commands, rejects, queries] = std::mem::take(&mut self.tally);
        self.metrics.commands.inc_by(commands);
        self.metrics.rejects.inc_by(rejects);
        self.metrics.queries.inc_by(queries);
    }

    /// Stamps, applies and journals one command: `Ok` iff it was applied.
    fn apply_mutate(&mut self, command: Command) -> Reply {
        if self.journal.failed() {
            return journal_io(JOURNAL_CLOSED);
        }
        let at_secs = self.stamp();
        let record = CommandRecord {
            seq: self.next_seq,
            at_secs,
            command,
        };
        match self.platform.apply_record(&record) {
            Ok(outcome) => {
                if let Err(e) = self.journal.append_frame(&record) {
                    // The journal failed between the check above and
                    // here. The command is applied and unjournalled, but
                    // the engine has stopped: this batch and every later
                    // one is answered `journal-io` by the commit stage.
                    return journal_io(&e.to_string());
                }
                self.next_seq += 1;
                Reply::Ok(outcome.to_json(record.seq, at_secs))
            }
            Err(e) => Reply::refuse(e.kind(), e),
        }
    }

    /// The timestamp for a command arriving now. A Wall stamp counts on
    /// from where the platform stood when the engine opened, so a
    /// restarted daemon's clock keeps moving, and never falls behind the
    /// platform's clock, which an `Advance` moves ahead of the wall.
    fn stamp(&self) -> f64 {
        let now = self.platform.now().as_secs();
        match self.clock {
            ClockMode::Logical => now,
            ClockMode::Wall => {
                let elapsed = self.started.elapsed().as_secs_f64();
                (self.opened_secs + elapsed).max(now)
            }
        }
    }

    /// [`Platform::answer`], plus what only the engine knows: the journal
    /// counters, the journal position and protocol in `info`, and its
    /// own `tacc_taccd_*` series after the platform's, tallies published
    /// and the journal's frames and fsyncs read from [`Journal::stats`].
    fn answer(&mut self, query: &Query) -> Reply {
        if self.journal.failed() {
            return journal_io(JOURNAL_CLOSED);
        }
        if *query == Query::JournalStats {
            let stats = self.journal.stats();
            return Reply::Ok(obj(vec![
                ("appended", stats.appended.into()),
                ("syncs", stats.syncs.into()),
                ("dirty", stats.dirty.into()),
                ("next_seq", self.next_seq.into()),
            ]));
        }
        match (query, self.platform.answer(query)) {
            (Query::Info, Ok(Json::Obj(mut fields))) => {
                fields.push(("protocol".to_owned(), PROTOCOL_VERSION.into()));
                fields.push(("journal_seq".to_owned(), self.next_seq.into()));
                Reply::Ok(Json::Obj(fields))
            }
            (Query::Metrics, Ok(Json::Str(text))) => {
                self.publish();
                let stats = self.journal.stats();
                let counter = |series, total| self.registry.counter(series, &[]).catch_up(total);
                counter(
                    "tacc_taccd_journal_frames_total",
                    stats.appended - stats.dirty,
                );
                counter("tacc_taccd_journal_fsyncs_total", stats.syncs);
                Reply::Ok(Json::Str(text + &self.registry.expose()))
            }
            (_, Ok(payload)) => Reply::Ok(payload),
            (_, Err(e)) => Reply::refuse(e.kind(), e),
        }
    }
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
                .expect("valid schema")
                .into(),
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

    fn open(journal: &std::path::Path) -> Engine {
        open_with(journal, ClockMode::Logical)
    }

    fn open_with(journal: &std::path::Path, clock: ClockMode) -> Engine {
        Engine::open(EngineConfig {
            journal: journal.to_owned(),
            platform: PlatformConfig::default(),
            clock,
        })
        .expect("opens")
        .0
    }

    fn spawn(journal: PathBuf) -> (mpsc::Sender<Msg>, std::thread::JoinHandle<()>) {
        spawn_with(journal, ClockMode::Logical)
    }

    fn spawn_with(
        journal: PathBuf,
        clock: ClockMode,
    ) -> (mpsc::Sender<Msg>, std::thread::JoinHandle<()>) {
        let engine = open_with(&journal, clock);
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

    /// Wall stamps keep up with an `Advance` and keep moving after a
    /// restart, and the restarted engine still reproduces its history.
    #[test]
    fn wall_stamps_follow_advance_and_restart() {
        let path = temp_journal("wall");
        std::fs::remove_file(&path).ok();
        let stamp = |reply: Reply| match reply {
            Reply::Ok(v) => v.get("at_secs").and_then(Json::as_f64).expect("stamp"),
            Reply::Err { kind, message } => panic!("refused: {kind}: {message}"),
        };
        let transitions = |tx: &mpsc::Sender<Msg>| match query(tx, Query::Transitions) {
            Reply::Ok(Json::Str(log)) => log,
            other => panic!("transitions query failed: {other:?}"),
        };
        let (tx, handle) = spawn_with(path.clone(), ClockMode::Wall);
        stamp(mutate(&tx, submit_command()));
        stamp(mutate(&tx, Command::Advance { secs: 3600.0 }));
        let after_advance = stamp(mutate(&tx, submit_command()));
        assert!(after_advance >= 3600.0, "stamped {after_advance}");
        let before = transitions(&tx);
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");

        let (tx, handle) = spawn_with(path.clone(), ClockMode::Wall);
        assert_eq!(transitions(&tx), before, "recovered transition log differs");
        let Reply::Ok(info) = query(&tx, Query::Info) else {
            panic!("info failed");
        };
        let recovered = info.get("now_secs").and_then(Json::as_f64).expect("now");
        assert!(recovered >= after_advance);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let restarted = stamp(mutate(&tx, submit_command()));
        assert!(
            restarted > recovered,
            "{restarted} is not after {recovered}"
        );
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
        let status = Query::Status(tacc_workload::JobId::from_value(job));
        let Reply::Ok(status) = query(&tx, status) else {
            panic!("status should see the job submitted before it");
        };
        assert_eq!(status.get("job").and_then(Json::as_u64), Some(job));
        // The stable lower-case name `JobState::from_tag` reads back,
        // not the `Debug` spelling.
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("submitted")
        );
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

        // The journal series, scraped, and what the `journal` query says
        // they stand for: `appended - dirty` frames, `syncs` fsyncs.
        let scrape = |tx: &mpsc::Sender<Msg>| {
            let Reply::Ok(Json::Str(text)) = query(tx, Query::Metrics) else {
                panic!("metrics query failed");
            };
            let series = |name| {
                let value = text
                    .lines()
                    .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
                value.and_then(|v| v.parse::<u64>().ok())
            };
            let Reply::Ok(stats) = query(tx, Query::JournalStats) else {
                panic!("journal query failed");
            };
            let field = |key| {
                stats
                    .get(key)
                    .and_then(Json::as_u64)
                    .expect("journal field")
            };
            let frames = series("tacc_taccd_journal_frames_total");
            let fsyncs = series("tacc_taccd_journal_fsyncs_total");
            let expected = (field("appended") - field("dirty"), field("syncs"));
            assert_eq!((frames, fsyncs), (Some(expected.0), Some(expected.1)));
            expected
        };
        let session = script(0x5C2A_9E00, 300);
        let replies = enqueue(&session, &tx);
        let replies: Vec<Reply> = replies.iter().take(session.len()).collect();
        let acked = acked_records(&session, &replies).len() as u64;
        // The genesis sync, then one per committed batch.
        let (frames, fsyncs) = scrape(&tx);
        assert!(frames == 1 + acked && fsyncs > 1 && fsyncs <= frames + 1);
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");

        // A restarted engine counts from its own open.
        let (tx, handle) = spawn(path.clone());
        assert_eq!(scrape(&tx), (0, 0));
        assert!(matches!(mutate(&tx, submit_command()), Reply::Ok(_)));
        assert_eq!(scrape(&tx), (1, 1));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }
    // ----------------------------------------------------------------
    // The pipeline's invariants, under a seeded script and a fake disk
    // ----------------------------------------------------------------

    use crate::journal::JournalSink;
    use std::io;

    /// xorshift64*, as in `tests/tests/service_recovery.rs`.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// A seeded stream of messages: mutations of every kind, some of them
    /// refused (unknown jobs, nodes past the cluster's 32), and a query
    /// (`None`) now and then.
    fn script(seed: u64, len: usize) -> Vec<Option<Command>> {
        let mut rng = XorShift(seed | 1);
        (0..len)
            .map(|i| {
                Some(match rng.below(11) {
                    0..=3 => Command::Submit {
                        schema: TaskSchema::builder(
                            &format!("pipe-{i}-\"{:x}\"", rng.below(0xFFFF)),
                            GroupId::from_index(rng.below(8) as usize),
                        )
                        .build()
                        .expect("valid schema")
                        .into(),
                        service_secs: 30.0 + rng.below(900) as f64,
                    },
                    4..=5 => Command::Advance {
                        secs: 1.0 + rng.below(120) as f64,
                    },
                    6 => Command::Cancel {
                        job: tacc_workload::JobId::from_value(rng.below(len as u64)),
                    },
                    7 => Command::Reserve {
                        gpus: 1 + rng.below(64) as u32,
                        from_secs: 1e6 + rng.below(5_000) as f64,
                        until_secs: f64::INFINITY,
                    },
                    8 => Command::Drain {
                        node: rng.below(40) as u32,
                    },
                    9 => Command::Undrain {
                        node: rng.below(40) as u32,
                    },
                    _ => return None,
                })
            })
            .collect()
    }

    /// Queues the whole script, one shared reply channel behind it, so
    /// an engine started afterwards drains it in batches of exactly
    /// `MAX_BATCH` and its replies can be read back in release order.
    fn enqueue(script: &[Option<Command>], tx: &mpsc::Sender<Msg>) -> mpsc::Receiver<Reply> {
        let (reply, replies) = mpsc::channel();
        for step in script {
            let reply = reply.clone();
            tx.send(match step {
                Some(command) => Msg::Mutate {
                    command: command.clone(),
                    reply,
                },
                None => Msg::Query {
                    query: Query::Info,
                    reply,
                },
            })
            .expect("queued");
        }
        replies
    }

    /// The acknowledged mutations of a run, as the records the journal
    /// must hold: `seq` and `at_secs` from each ack, the command from
    /// the script.
    fn acked_records(script: &[Option<Command>], replies: &[Reply]) -> Vec<CommandRecord> {
        script
            .iter()
            .zip(replies)
            .filter_map(|(step, reply)| match (step, reply) {
                (Some(command), Reply::Ok(ack)) => Some(CommandRecord {
                    seq: ack.get("seq").and_then(Json::as_u64).expect("ack has seq"),
                    at_secs: ack
                        .get("at_secs")
                        .and_then(Json::as_f64)
                        .expect("ack has at_secs"),
                    command: command.clone(),
                }),
                _ => None,
            })
            .collect()
    }

    /// A disk that fails its `fail_at`-th commit — at the write, or at
    /// the sync — and, like a disk, keeps only what was synced.
    #[derive(Debug)]
    struct FailingDisk {
        disk: Box<dyn JournalSink>,
        unsynced: Vec<u8>,
        commits: usize,
        fail_at: usize,
        fail_the_sync: bool,
    }

    impl JournalSink for FailingDisk {
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            assert!(self.commits <= self.fail_at, "written to after it failed");
            if self.commits == self.fail_at && !self.fail_the_sync {
                self.commits += 1;
                return Err(io::Error::other("injected write failure"));
            }
            self.unsynced.extend_from_slice(bytes);
            Ok(())
        }

        fn sync_data(&mut self) -> io::Result<()> {
            assert!(self.commits <= self.fail_at, "synced after it failed");
            self.commits += 1;
            if self.commits > self.fail_at {
                return Err(io::Error::other("injected sync failure"));
            }
            self.disk.write_all(&std::mem::take(&mut self.unsynced))?;
            self.disk.sync_data()
        }
    }

    /// I4, and I1 under failure: whichever batch's write or sync fails,
    /// nothing from that batch on is acknowledged, the journal holds
    /// exactly the acknowledged prefix, and a restart reproduces exactly
    /// that prefix's state.
    #[test]
    fn a_journal_failure_stops_the_engine_at_the_acknowledged_prefix() {
        const BATCHES: usize = 8;
        let script = script(0xFA11_5709, BATCHES * MAX_BATCH);
        let jobs_in_batch = |replies: &[Reply], batch: usize| {
            replies[batch * MAX_BATCH..(batch + 1) * MAX_BATCH]
                .iter()
                .filter(|reply| matches!(reply, Reply::Ok(ack) if ack.get("outcome").and_then(Json::as_str) == Some("submitted")))
                .count()
        };
        // A fault-free run says what each batch would have applied.
        let path = temp_journal("failstop-reference");
        std::fs::remove_file(&path).ok();
        let (tx, rx) = mpsc::channel();
        let replies = enqueue(&script, &tx);
        tx.send(Msg::Stop).expect("queued");
        open(&path).run(&rx);
        let reference: Vec<Reply> = replies.try_iter().collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(reference.len(), script.len());
        for batch in 0..BATCHES {
            assert!(jobs_in_batch(&reference, batch) > 0, "batch {batch}");
        }

        for (fail_at, fail_the_sync) in (0..BATCHES).flat_map(|k| [(k, false), (k, true)]) {
            let case = format!("batch {fail_at}, sync {fail_the_sync}");
            let path = temp_journal(&format!("failstop-{fail_at}-{fail_the_sync}"));
            std::fs::remove_file(&path).ok();
            let mut engine = open(&path);
            engine.commit.file = engine.commit.file.wrap_sink(|disk| {
                Box::new(FailingDisk {
                    disk,
                    unsynced: Vec::new(),
                    commits: 0,
                    fail_at,
                    fail_the_sync,
                })
            });
            let (tx, rx) = mpsc::channel();
            let replies = enqueue(&script, &tx);
            tx.send(Msg::Stop).expect("queued");
            engine.serve(&rx);
            let replies: Vec<Reply> = replies.try_iter().collect();
            assert_eq!(replies.len(), script.len(), "{case}: one reply each");

            // Before the failed batch, the fault-free answers; from it
            // on, `journal-io` for everything, queries included.
            let survived = fail_at * MAX_BATCH;
            assert_eq!(replies[..survived], reference[..survived], "{case}");
            for (i, reply) in replies.iter().enumerate().skip(survived) {
                assert!(
                    matches!(reply, Reply::Err { kind, .. } if kind == "journal-io"),
                    "{case}: message {i} answered {reply:?}"
                );
            }
            // The apply stage ran ahead by no more than the pipeline
            // holds, then stopped applying.
            let ahead = (0..BATCHES.min(fail_at + PIPELINE_DEPTH + 2))
                .map(|batch| jobs_in_batch(&reference, batch))
                .sum::<usize>();
            let jobs = engine.apply.platform.job_count();
            assert!(
                jobs <= ahead,
                "{case}: {jobs} jobs applied, at most {ahead}"
            );

            // The journal is the acknowledged prefix, no more, no tear.
            let acked = acked_records(&script, &replies);
            let seed = PlatformConfig::default().seed;
            let (_, records, report) = Journal::recover(&path, seed).expect("recovers");
            assert_eq!(report.torn_bytes, 0, "{case}");
            assert_eq!(records, acked, "{case}");
            // And a restart reproduces that prefix's state.
            let mut fresh = Platform::new(PlatformConfig::default());
            for record in &acked {
                fresh.apply_record(record).expect("the prefix re-applies");
            }
            assert_eq!(
                open(&path).apply.platform.transition_log_jsonl(),
                fresh.transition_log_jsonl(),
                "{case}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A disk whose first sync waits at a gate the test holds.
    #[derive(Debug)]
    struct GatedDisk {
        disk: Box<dyn JournalSink>,
        /// Taken by the first sync: where it reports in, and what it
        /// then waits on.
        gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>,
    }

    impl JournalSink for GatedDisk {
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.disk.write_all(bytes)
        }

        fn sync_data(&mut self) -> io::Result<()> {
            if let Some((arrived, open)) = self.gate.take() {
                arrived.send(()).expect("the test is waiting");
                open.recv().expect("the test opens the gate");
            }
            self.disk.sync_data()
        }
    }

    /// I1 and I2: while batch 0 sits in its fsync the apply stage goes
    /// on to apply the batches behind it, and not one reply — of that
    /// batch or a later one — can be received; once the sync returns,
    /// every reply leaves in arrival order.
    #[test]
    fn no_reply_leaves_before_its_batch_is_durable() {
        const BATCHES: usize = PIPELINE_DEPTH + 2;
        let path = temp_journal("gated");
        std::fs::remove_file(&path).ok();
        let mut engine = open(&path);
        let (arrived, at_gate) = mpsc::channel();
        let (open_gate, gate) = mpsc::channel();
        engine.commit.file = engine.commit.file.wrap_sink(|disk| {
            Box::new(GatedDisk {
                disk,
                gate: Some((arrived, gate)),
            })
        });
        let applied = engine
            .registry()
            .counter("tacc_taccd_commands_applied_total", &[]);
        let submits = vec![Some(submit_command()); BATCHES * MAX_BATCH];
        let (tx, rx) = mpsc::channel();
        let replies = enqueue(&submits, &tx);
        let handle = std::thread::spawn(move || engine.run(&rx));

        at_gate.recv().expect("batch 0 reaches its sync");
        // The apply stage needs nothing from the gate to get through
        // every queued batch: one is in the commit stage, one waits in
        // the channel, one is applied and waits to be sent.
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while applied.get() < submits.len() as u64 {
            assert!(Instant::now() < deadline, "the apply stage stalled");
            std::thread::yield_now();
        }
        assert!(
            matches!(replies.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "a reply left while its batch was not durable"
        );

        open_gate.send(()).expect("the sync is waiting");
        for seq in 0..submits.len() as u64 {
            let Reply::Ok(ack) = replies.recv().expect("a reply per message") else {
                panic!("submit {seq} refused");
            };
            assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(seq));
        }
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");
        std::fs::remove_file(&path).ok();
    }

    /// What `tacc_taccd_journal_frames_total` (`appended - dirty`) rests
    /// on: while batch 0 sits in its fsync, the records queued behind it
    /// — batch 1 in the channel, batch 2 still pending, none encoded —
    /// count as appended and as dirty; once the gate opens none is dirty,
    /// and the file holds I3's bytes. A scrape in the same batch reads the
    /// tallies up to itself, as when each message bumped its counter.
    #[test]
    fn queued_records_are_appended_and_dirty_until_durable() {
        let path = temp_journal("queued");
        std::fs::remove_file(&path).ok();
        let mut engine = open(&path);
        let (arrived, at_gate) = mpsc::channel();
        let (open_gate, gate) = mpsc::channel();
        engine.commit.file = engine.commit.file.wrap_sink(|disk| {
            Box::new(GatedDisk {
                disk,
                gate: Some((arrived, gate)),
            })
        });
        let queries = engine.registry().counter("tacc_taccd_queries_total", &[]);
        let submits = vec![Some(submit_command()); 2 * MAX_BATCH + 10];
        let queued = submits.len() as u64;
        let (tx, rx) = mpsc::channel();
        let acks = enqueue(&submits, &tx);
        let (stats_tx, stats) = mpsc::channel();
        for query in [Query::JournalStats, Query::Metrics] {
            let reply = stats_tx.clone();
            tx.send(Msg::Query { query, reply }).expect("queued");
        }
        let handle = std::thread::spawn(move || engine.run(&rx));

        at_gate.recv().expect("batch 0 reaches its sync");
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while queries.get() == 0 {
            assert!(Instant::now() < deadline, "the apply stage stalled");
            std::thread::yield_now();
        }
        open_gate.send(()).expect("the sync is waiting");
        let field = |stats: &Json, key| stats.get(key).and_then(Json::as_u64);
        let Reply::Ok(during) = stats.recv().expect("answered") else {
            panic!("journal query refused");
        };
        assert_eq!(field(&during, "appended"), Some(queued));
        assert_eq!(field(&during, "dirty"), Some(queued));
        assert_eq!(field(&during, "syncs"), Some(1), "the genesis sync only");
        let Ok(Reply::Ok(Json::Str(text))) = stats.recv() else {
            panic!("metrics query refused");
        };
        for series in [
            format!("tacc_taccd_commands_applied_total {queued}\n"),
            "tacc_taccd_queries_total 2\n".to_owned(),
        ] {
            assert!(text.contains(&series), "{series:?} not in\n{text}");
        }
        let acks: Vec<Reply> = acks.iter().take(submits.len()).collect();
        let Reply::Ok(after) = query(&tx, Query::JournalStats) else {
            panic!("journal query refused");
        };
        assert_eq!(field(&after, "appended"), Some(queued));
        assert_eq!(field(&after, "dirty"), Some(0));
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");

        let seed = PlatformConfig::default().seed;
        let genesis_path = temp_journal("queued-genesis");
        drop(Journal::create(&genesis_path, seed).expect("creates"));
        let mut expected = std::fs::read(&genesis_path).expect("reads");
        for record in acked_records(&submits, &acks) {
            let text = record.to_json().to_string();
            expected.extend(tacc_core::wire::encode_frame(text.as_bytes()));
        }
        assert_eq!(std::fs::read(&path).expect("reads"), expected);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&genesis_path).ok();
    }

    /// I3: however a live engine batched them, the journal's bytes are
    /// the genesis frame and then each accepted record's tree-printed
    /// text, framed — the format every earlier build wrote.
    #[test]
    fn journal_bytes_are_the_framed_tree_text_of_each_record() {
        let path = temp_journal("bytes");
        std::fs::remove_file(&path).ok();
        let script = script(0xB17E_5EED, 2_000);
        let (tx, handle) = spawn(path.clone());
        let replies = enqueue(&script, &tx);
        let replies: Vec<Reply> = replies.iter().take(script.len()).collect();
        tx.send(Msg::Stop).expect("send stop");
        handle.join().expect("engine exits");

        let seed = PlatformConfig::default().seed;
        let genesis_path = temp_journal("bytes-genesis");
        drop(Journal::create(&genesis_path, seed).expect("creates"));
        let mut expected = std::fs::read(&genesis_path).expect("reads");
        let (_, records, _) = Journal::recover(&path, seed).expect("recovers");
        assert_eq!(records, acked_records(&script, &replies));
        assert!(records.len() > 1_000, "most of the script is accepted");
        for record in &records {
            let text = record.to_json().to_string();
            expected.extend(tacc_core::wire::encode_frame(text.as_bytes()));
        }
        assert_eq!(std::fs::read(&path).expect("reads"), expected);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&genesis_path).ok();
    }
}
