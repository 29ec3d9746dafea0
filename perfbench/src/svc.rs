//! The service workloads: requests against a live `taccd`.
//!
//! * `svc-closed` is the path a researcher feels: socket, decode, engine
//!   hand-off, apply, append, fsync per batch of at most two, ack — with
//!   reads queued beside writes. Two clients, each waiting for its reply.
//! * `svc-burst` is the single writer's capacity: 128 callers each waiting
//!   for a reply on the engine's channel, so group commit fills, fsync is
//!   amortised, and wire encode + append + apply dominate. No socket.
//! * `svc-recover` is restart time: `Engine::open` on a journal a live
//!   engine wrote — the journal and `core::wire` read where `svc-burst`
//!   writes them.
//!
//! All three are closed loops: the wire protocol allows one outstanding
//! request per connection, and a caller of the engine waits for its reply.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Sender};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use tacc_core::wire::{self, Json};
use tacc_core::{Command, CommandRecord, Platform, PlatformConfig};
use tacc_taccd::{
    ClockMode, Daemon, DaemonConfig, Engine, EngineConfig, Journal, Msg, Query, RecoveryReport,
    Reply,
};
use tacc_tcloud::transport::{DaemonClient, RetryPolicy};
use tacc_workload::JobId;

use crate::inputs::{self, Request, TICK_SECS};
use crate::laps::{Lap, Workload};
use crate::metrics::Layers;
use crate::replay::platform_layers;
use crate::spans::Recorder;
use crate::stats::{fnv1a, median};
use crate::sys::{cpu_seconds, RunDir};

/// How much work a lap is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcSize {
    /// `svc-closed`: untimed requests each client sends first.
    pub closed_warmup: usize,
    /// `svc-closed`: timed requests per client.
    pub closed_requests: usize,
    /// `svc-burst`: commands per lap; `svc-recover`: commands per history.
    pub burst_commands: usize,
}

pub const FULL: SvcSize = SvcSize {
    closed_warmup: 200,
    closed_requests: 2_000,
    burst_commands: 24_000,
};

/// Callers waiting on the engine at once in `svc-burst`: twice `MAX_BATCH`,
/// so a full batch is queued while the engine commits the one before.
const BURST_WINDOW: usize = 128;

fn engine_config(journal: &Path) -> EngineConfig {
    EngineConfig {
        journal: journal.to_path_buf(),
        platform: PlatformConfig::default(),
        clock: ClockMode::Logical,
    }
}

// --------------------------------------------------------------------
// An engine on its own thread, driven over its channel
// --------------------------------------------------------------------

struct LiveEngine {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<()>>,
}

/// `appended` and `syncs` of `Query::JournalStats`, and `dirty`.
#[derive(Debug, Clone, Copy, Default)]
struct JournalCounts {
    appended: u64,
    syncs: u64,
    dirty: u64,
}

impl JournalCounts {
    fn from_json(stats: &Json) -> Result<JournalCounts, String> {
        let field = |name: &str| {
            stats
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("journal stats lack '{name}'"))
        };
        Ok(JournalCounts {
            appended: field("appended")?,
            syncs: field("syncs")?,
            dirty: field("dirty")?,
        })
    }
}

impl LiveEngine {
    fn open(journal: &Path) -> Result<(LiveEngine, Option<RecoveryReport>), String> {
        let (engine, report) = Engine::open(engine_config(journal)).map_err(|e| e.to_string())?;
        Ok((LiveEngine::run(engine), report))
    }

    fn run(engine: Engine) -> LiveEngine {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || engine.run(&rx));
        LiveEngine {
            tx,
            handle: Some(handle),
        }
    }

    fn query(&self, query: Query) -> Result<Json, String> {
        let (reply, answer) = mpsc::channel();
        self.tx
            .send(Msg::Query { query, reply })
            .map_err(|_| "engine thread is gone")?;
        match answer.recv().map_err(|_| "engine dropped a query")? {
            Reply::Ok(json) => Ok(json),
            Reply::Err { kind, message } => Err(format!("query refused [{kind}]: {message}")),
        }
    }

    fn journal_counts(&self) -> Result<JournalCounts, String> {
        JournalCounts::from_json(&self.query(Query::JournalStats)?)
    }

    fn transitions(&self) -> Result<String, String> {
        match self.query(Query::Transitions)? {
            Json::Str(log) => Ok(log),
            other => Err(format!("transitions reply is not a string: {other:?}")),
        }
    }

    /// Sends `script` keeping `window` commands outstanding, as that many
    /// callers each waiting for a reply would. The engine answers in arrival
    /// order, so replies on the one shared channel match sends first-in
    /// first-out. Returns one latency sample (send to reply, milliseconds)
    /// per acknowledged command, and the number refused.
    fn mutate_window(
        &self,
        script: Vec<Command>,
        window: usize,
    ) -> Result<(Vec<f64>, u64), String> {
        let total = script.len();
        let (reply, answers) = mpsc::channel();
        let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
        let mut samples = Vec::with_capacity(total);
        let mut refused = 0;
        let mut script = script.into_iter();
        while samples.len() as u64 + refused < total as u64 {
            while sent_at.len() < window {
                let Some(command) = script.next() else {
                    break;
                };
                sent_at.push_back(Instant::now());
                let reply = reply.clone();
                self.tx
                    .send(Msg::Mutate { command, reply })
                    .map_err(|_| "engine thread is gone")?;
            }
            let answer = answers.recv().map_err(|_| "engine dropped a reply")?;
            let sent = sent_at.pop_front().ok_or("reply without a request")?;
            match answer {
                Reply::Ok(_) => samples.push(sent.elapsed().as_secs_f64() * 1e3),
                Reply::Err { kind, message } => {
                    if refused == 0 {
                        eprintln!("perfbench: command refused [{kind}]: {message}");
                    }
                    refused += 1;
                }
            }
        }
        Ok((samples, refused))
    }

    /// Stops the engine (final group commit) and waits for its thread.
    fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        let _ = self.tx.send(Msg::Stop);
        handle
            .join()
            .map_err(|_| "engine thread panicked".to_owned())
    }
}

impl Drop for LiveEngine {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

// --------------------------------------------------------------------
// The replay-equivalence check, which is also where counters come from
// --------------------------------------------------------------------

/// A stopped engine's journal, recovered and re-applied to a fresh platform.
struct Rebuilt {
    records: Vec<CommandRecord>,
    platform: Platform,
    /// `Journal::recover` alone: read, crc, parse.
    decode_s: f64,
    /// `Platform::apply_record` over the recovered records alone.
    apply_s: f64,
}

fn rebuild(journal: &Path, rec: &mut Recorder) -> Result<Rebuilt, String> {
    let config = PlatformConfig::default();
    let start = Instant::now();
    let (_journal, records, _report) = rec
        .span("taccd.recover_decode", |_| {
            Journal::recover(journal, config.seed)
        })
        .map_err(|e| e.to_string())?;
    let decode_s = start.elapsed().as_secs_f64();
    let mut platform = rec.span("core.platform_new", |_| Platform::new(config));
    let start = Instant::now();
    rec.span("core.apply_records", |_| {
        records.iter().try_for_each(|record| {
            platform
                .apply_record(record)
                .map(drop)
                .map_err(|e| format!("record {} does not re-apply: {e}", record.seq))
        })
    })?;
    let apply_s = start.elapsed().as_secs_f64();
    Ok(Rebuilt {
        records,
        platform,
        decode_s,
        apply_s,
    })
}

/// Timed lap 1 of a journalled workload, kept on a traced run for the probes.
struct FirstLap {
    rebuilt: Rebuilt,
    /// Frames journalled and fsyncs made in the timed section.
    frames: u64,
    fsyncs: u64,
}

/// What a lap of a journalled workload knows once its engine has stopped.
struct JournalledLap<'a> {
    journal: &'a Path,
    /// Journal counters at the start and the end of the timed section.
    before: JournalCounts,
    after: JournalCounts,
    /// Mutations acknowledged in the timed section.
    mutations: u64,
    /// Jobs submitted in the timed section.
    jobs: usize,
    /// The daemon's `transitions` reply, on the laps that check it.
    transitions: Option<String>,
}

/// What both journalled workloads check and read once their engine has
/// stopped: every acknowledged mutation of the timed section is a synced
/// frame, and (given the daemon's `transitions` reply, on laps 0 and 1)
/// replaying the journal into a fresh platform reproduces that reply byte for
/// byte. The rebuilt platform is also where a traced run reads the
/// platform's counters; only a traced run gets it back, so that an untraced
/// run's `peak_rss_mb` holds no second platform beside the next lap's engine.
fn check_journalled_lap(
    out: &mut Lap,
    facts: JournalledLap<'_>,
    rec: &mut Recorder,
) -> Result<Option<FirstLap>, String> {
    let JournalledLap {
        journal,
        before,
        after,
        mutations,
        jobs,
        transitions,
    } = facts;
    let frames = after.appended - before.appended;
    if after.dirty != 0 {
        out.wrong = Some(format!("{} frames left unsynced", after.dirty));
    } else if frames != mutations {
        out.wrong = Some(format!(
            "{mutations} mutations acknowledged, {frames} frames appended"
        ));
    }
    let fsyncs = after.syncs - before.syncs;
    if rec.enabled() {
        let bytes = std::fs::metadata(journal).map_or(0, |m| m.len()) as f64;
        out.layers.set("taccd.fsyncs", fsyncs as f64);
        out.layers.set(
            "taccd.frames_per_fsync",
            frames as f64 / fsyncs.max(1) as f64,
        );
        out.layers.set(
            "taccd.journal_bytes_per_cmd",
            bytes / after.appended.max(1) as f64,
        );
        out.layers.set("workload.jobs", jobs as f64);
    }
    let Some(transitions) = transitions else {
        return Ok(None);
    };
    let rebuilt = rebuild(journal, rec)?;
    let replayed = rec.span("obs.transitions_export", |_| {
        rebuilt.platform.transition_log_jsonl()
    });
    if replayed != transitions && out.wrong.is_none() {
        out.wrong = Some(format!(
            "replaying the journal gives a {}-byte transition log, the daemon reported {} bytes",
            replayed.len(),
            transitions.len()
        ));
    }
    if !rec.enabled() {
        return Ok(None);
    }
    std::hint::black_box(rec.span("obs.report", |_| rebuilt.platform.report()));
    platform_layers(&rebuilt.platform, out.timed_s, &mut out.layers);
    Ok(Some(FirstLap {
        rebuilt,
        frames,
        fsyncs,
    }))
}

// --------------------------------------------------------------------
// svc-closed
// --------------------------------------------------------------------

pub struct Closed<'a> {
    size: SvcSize,
    seed: u64,
    dir: &'a RunDir,
    first: Option<FirstLap>,
}

/// What one client thread hands back.
struct ClientRun {
    client: DaemonClient,
    samples_ms: Vec<f64>,
    mutations: u64,
    failed: u64,
    rec: Recorder,
}

impl Request {
    fn span_name(&self) -> &'static str {
        match self {
            Request::Submit(_) => "tcloud.submit",
            Request::Status(_) => "tcloud.status",
            Request::Cancel(_) => "tcloud.cancel",
            Request::Advance => "tcloud.advance",
        }
    }
}

/// Sends one request and waits for its reply; `Ok(true)` for a mutation.
fn issue(
    client: &mut DaemonClient,
    request: &Request,
    jobs: &mut Vec<u64>,
) -> Result<bool, String> {
    let own_job = |k: &usize| jobs.get(*k).copied().ok_or("no such earlier submission");
    match request {
        Request::Submit(command) => {
            let ok = client.mutate(command).map_err(|e| e.to_string())?;
            let job = ok.get("job").and_then(Json::as_u64);
            jobs.push(job.ok_or("submit reply names no job")?);
            Ok(true)
        }
        Request::Status(k) => {
            let job = own_job(k)?;
            client
                .query("status", Some(job))
                .map_err(|e| e.to_string())?;
            Ok(false)
        }
        Request::Cancel(k) => {
            let job = JobId::from_value(own_job(k)?);
            client
                .mutate(&Command::Cancel { job })
                .map_err(|e| e.to_string())?;
            Ok(true)
        }
        Request::Advance => {
            client
                .mutate(&Command::Advance { secs: TICK_SECS })
                .map_err(|e| e.to_string())?;
            Ok(true)
        }
    }
}

/// One client: connect, warm up, wait for the start, send the timed requests.
fn run_client(
    socket: &Path,
    script: &[Request],
    warmup: usize,
    warmed: &Barrier,
    start: &Barrier,
    mut rec: Recorder,
) -> Result<ClientRun, String> {
    let mut jobs = Vec::with_capacity(script.len());
    let prepared = (|| {
        let mut client = rec
            .span("tcloud.connect", |_| {
                DaemonClient::connect(socket, RetryPolicy::default())
            })
            .map_err(|e| e.to_string())?;
        for request in &script[..warmup] {
            issue(&mut client, request, &mut jobs)?;
        }
        Ok::<_, String>(client)
    })();
    // Both barriers are passed even on failure, or the other threads hang.
    warmed.wait();
    start.wait();
    let mut client = prepared?;

    let timed = &script[warmup..];
    let mut samples_ms = Vec::with_capacity(timed.len());
    let (mut mutations, mut failed) = (0, 0);
    for request in timed {
        let sent = Instant::now();
        let outcome = issue(&mut client, request, &mut jobs);
        let done = Instant::now();
        match outcome {
            Ok(mutation) => {
                samples_ms.push((done - sent).as_secs_f64() * 1e3);
                mutations += u64::from(mutation);
                rec.leaf(request.span_name(), sent, done);
            }
            Err(why) => {
                if failed == 0 {
                    eprintln!("perfbench: request failed: {why}");
                }
                failed += 1;
            }
        }
    }
    Ok(ClientRun {
        client,
        samples_ms,
        mutations,
        failed,
        rec,
    })
}

impl<'a> Closed<'a> {
    pub fn new(size: SvcSize, seed: u64, dir: &'a RunDir) -> Closed<'a> {
        Closed {
            size,
            seed,
            dir,
            first: None,
        }
    }
}

fn start_daemon(dir: &RunDir, journal: &Path) -> Result<Daemon, String> {
    let config = DaemonConfig {
        socket: dir.socket("d.sock")?,
        engine: engine_config(journal),
    };
    let (daemon, _) = Daemon::start(config).map_err(|e| e.to_string())?;
    Ok(daemon)
}

fn client_counts(client: &mut DaemonClient) -> Result<JournalCounts, String> {
    let stats = client.query("journal", None).map_err(|e| e.to_string())?;
    JournalCounts::from_json(&stats)
}

impl Workload for Closed<'_> {
    fn lap(&mut self, lap: u32, rec: &mut Recorder) -> Result<Lap, String> {
        let SvcSize {
            closed_warmup: warmup,
            closed_requests: requests,
            ..
        } = self.size;
        let journal = self.dir.file("closed.journal");
        let _ = std::fs::remove_file(&journal);

        let setup_start = Instant::now();
        let scripts = rec.span("workload.generate", |_| {
            inputs::closed_scripts(inputs::sub_seed(self.seed, lap), warmup + requests)
        });
        let daemon = rec.span("taccd.daemon_start", |_| start_daemon(self.dir, &journal))?;
        let mut observer = DaemonClient::connect(daemon.socket(), RetryPolicy::default())
            .map_err(|e| e.to_string())?;

        let (warmed, start) = (Barrier::new(3), Barrier::new(3));
        let mut setup_s = 0.0;
        let mut before = Ok(JournalCounts::default());
        let (runs, timed_s, cpu_s) = std::thread::scope(|scope| {
            let clients: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let worker = rec.fork();
                    let (socket, warmed, start) = (daemon.socket(), &warmed, &start);
                    scope.spawn(move || run_client(socket, script, warmup, warmed, start, worker))
                })
                .collect();
            warmed.wait();
            before = client_counts(&mut observer);
            setup_s = setup_start.elapsed().as_secs_f64();
            let cpu_start = cpu_seconds();
            let timed_start = Instant::now();
            start.wait();
            let runs: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
            (
                runs,
                timed_start.elapsed().as_secs_f64(),
                cpu_seconds() - cpu_start,
            )
        });
        let before = before?;
        let after = client_counts(&mut observer)?;
        let transitions = match lap {
            0 | 1 => match observer.query("transitions", None) {
                Ok(Json::Str(log)) => Some(log),
                other => return Err(format!("transitions query failed: {other:?}")),
            },
            _ => None,
        };

        let mut out = Lap {
            setup_s: Some(setup_s),
            timed_s,
            cpu_s,
            attempted: 2 * requests as u64,
            ..Lap::default()
        };
        let mut mutations = 0;
        for run in runs {
            let run = run.map_err(|_| "client thread panicked")??;
            out.samples_ms.extend(run.samples_ms);
            out.failed += run.failed;
            mutations += run.mutations;
            rec.join(run.rec);
            drop(run.client);
        }
        out.ops = out.samples_ms.len() as u64;
        drop(observer);
        daemon.stop();

        let submits = scripts
            .iter()
            .flat_map(|s| &s[warmup..])
            .filter(|r| matches!(r, Request::Submit(_)))
            .count();
        let facts = JournalledLap {
            journal: &journal,
            before,
            after,
            mutations,
            jobs: submits,
            transitions,
        };
        let kept = check_journalled_lap(&mut out, facts, rec)?;
        if lap == 1 {
            self.first = kept;
        }
        Ok(out)
    }

    fn limit_ms(&self) -> f64 {
        5.0
    }

    fn probes(&mut self, _first: &Lap, rec: &mut Recorder) -> Result<(Layers, f64), String> {
        let first = self.first.as_ref().ok_or("lap 1 kept no journal")?;
        let (mut out, accounted_s) = write_path_probes(first, self.dir, rec)?;
        let rtt_us = rec.span("probe.tcloud.query", |_| query_rtt_probe(self.dir))?;
        out.set("tcloud.query_rtt_us", rtt_us);
        Ok((out, accounted_s))
    }
}

// --------------------------------------------------------------------
// svc-burst
// --------------------------------------------------------------------

pub struct Burst<'a> {
    size: SvcSize,
    seed: u64,
    dir: &'a RunDir,
    first: Option<FirstLap>,
}

impl<'a> Burst<'a> {
    pub fn new(size: SvcSize, seed: u64, dir: &'a RunDir) -> Burst<'a> {
        Burst {
            size,
            seed,
            dir,
            first: None,
        }
    }
}

impl Workload for Burst<'_> {
    fn lap(&mut self, lap: u32, rec: &mut Recorder) -> Result<Lap, String> {
        let journal = self.dir.file("burst.journal");
        let _ = std::fs::remove_file(&journal);

        let setup_start = Instant::now();
        let script = rec.span("workload.generate", |_| {
            inputs::burst_script(inputs::sub_seed(self.seed, lap), self.size.burst_commands)
        });
        let submits = script
            .iter()
            .filter(|c| matches!(c, Command::Submit { .. }))
            .count();
        let (engine, _) = rec.span("taccd.engine_open", |_| LiveEngine::open(&journal))?;
        let setup_s = setup_start.elapsed().as_secs_f64();

        let before = engine.journal_counts()?;
        let attempted = script.len() as u64;
        let cpu_start = cpu_seconds();
        let timed_start = Instant::now();
        let (samples_ms, failed) = rec.span("taccd.burst", |_| {
            engine.mutate_window(script, BURST_WINDOW)
        })?;
        let timed_s = timed_start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_start;
        let after = engine.journal_counts()?;
        let transitions = if lap <= 1 {
            Some(engine.transitions()?)
        } else {
            None
        };
        engine.stop()?;

        let mut out = Lap {
            setup_s: Some(setup_s),
            timed_s,
            cpu_s,
            attempted,
            ops: samples_ms.len() as u64,
            failed,
            samples_ms,
            ..Lap::default()
        };
        let facts = JournalledLap {
            journal: &journal,
            before,
            after,
            mutations: out.ops,
            jobs: submits,
            transitions,
        };
        let kept = check_journalled_lap(&mut out, facts, rec)?;
        if lap == 1 {
            self.first = kept;
        }
        Ok(out)
    }

    fn limit_ms(&self) -> f64 {
        20.0
    }

    fn probes(&mut self, _first: &Lap, rec: &mut Recorder) -> Result<(Layers, f64), String> {
        let first = self.first.as_ref().ok_or("lap 1 kept no journal")?;
        write_path_probes(first, self.dir, rec)
    }
}

// --------------------------------------------------------------------
// svc-recover
// --------------------------------------------------------------------

/// A journal a live engine wrote, and what that engine's state was.
struct History {
    journal: PathBuf,
    frames: u64,
    transitions_hash: u64,
    build_s: f64,
}

pub struct Recover<'a> {
    dir: &'a RunDir,
    histories: Vec<History>,
}

const HISTORIES: u32 = 3;

impl<'a> Recover<'a> {
    /// Set-up: writes the histories through a live engine exactly as
    /// `svc-burst` does, so whatever a daemon leaves on disk is what gets
    /// recovered.
    pub fn new(
        size: SvcSize,
        seed: u64,
        dir: &'a RunDir,
        rec: &mut Recorder,
    ) -> Result<Recover<'a>, String> {
        let mut histories = Vec::new();
        for h in 0..HISTORIES {
            let journal = dir.file(&format!("history-{h}.journal"));
            // The build's spans carry the id of the first timed lap that
            // recovers this history.
            rec.set_lap(if h == 0 { HISTORIES } else { h });
            let start = Instant::now();
            let mut history = rec.span("history.build", |rec| {
                let script = rec.span("workload.generate", |_| {
                    inputs::burst_script(inputs::sub_seed(seed, h), size.burst_commands)
                });
                let (engine, _) = LiveEngine::open(&journal)?;
                let (acked, refused) = engine.mutate_window(script, BURST_WINDOW)?;
                if refused != 0 {
                    return Err(format!(
                        "{refused} commands refused while building history {h}"
                    ));
                }
                let transitions_hash = fnv1a(engine.transitions()?.as_bytes());
                engine.stop()?;
                Ok(History {
                    journal,
                    frames: acked.len() as u64,
                    transitions_hash,
                    build_s: 0.0,
                })
            })?;
            history.build_s = start.elapsed().as_secs_f64();
            histories.push(history);
        }
        Ok(Recover { dir, histories })
    }

    fn history(&self, lap: u32) -> &History {
        &self.histories[lap as usize % self.histories.len()]
    }
}

impl Workload for Recover<'_> {
    fn lap(&mut self, lap: u32, rec: &mut Recorder) -> Result<Lap, String> {
        let history = self.history(lap);
        let copy = self.dir.file("recover.journal");
        rec.span("journal.copy", |_| std::fs::copy(&history.journal, &copy))
            .map_err(|e| format!("copying {}: {e}", history.journal.display()))?;

        let cpu_start = cpu_seconds();
        let timed_start = Instant::now();
        let opened = rec.span("taccd.engine_open", |_| Engine::open(engine_config(&copy)));
        let timed_s = timed_start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_start;

        let (engine, report) = opened.map_err(|e| e.to_string())?;
        let report = report.ok_or("an existing journal gave no recovery report")?;
        // What a user waits for is the restarted daemon's first answer: the
        // engine on its thread, one cheap query served.
        let engine = LiveEngine::run(engine);
        engine.journal_counts()?;
        let first_reply_ms = timed_start.elapsed().as_secs_f64() * 1e3;
        let recovered_hash = fnv1a(engine.transitions()?.as_bytes());
        engine.stop()?;

        let wrong = if report.frames != history.frames || report.torn_bytes != 0 {
            Some(format!(
                "recovered {} of {} frames, {} torn bytes",
                report.frames, history.frames, report.torn_bytes
            ))
        } else if recovered_hash != history.transitions_hash {
            Some("the recovered transition log differs from the one before the stop".to_owned())
        } else {
            None
        };
        let mut layers = Layers::default();
        if rec.enabled() {
            layers.set(
                "taccd.journal_bytes_per_cmd",
                report.valid_bytes as f64 / history.frames as f64,
            );
        }
        Ok(Lap {
            setup_s: None,
            timed_s,
            cpu_s,
            attempted: history.frames,
            ops: report.frames.min(history.frames),
            failed: history.frames.saturating_sub(report.frames),
            samples_ms: vec![first_reply_ms],
            wrong,
            layers,
        })
    }

    fn setup_samples(&self) -> Vec<f64> {
        self.histories.iter().map(|h| h.build_s).collect()
    }

    fn limit_ms(&self) -> f64 {
        2_000.0
    }

    fn probes(&mut self, first: &Lap, rec: &mut Recorder) -> Result<(Layers, f64), String> {
        let copy = self.dir.file("probe.journal");
        std::fs::copy(&self.history(1).journal, &copy).map_err(|e| e.to_string())?;
        let rebuilt = rec.span("probe.taccd.recover", |rec| rebuild(&copy, rec))?;
        let log = rec.span("obs.transitions_export", |_| {
            rebuilt.platform.transition_log_jsonl()
        });
        if fnv1a(log.as_bytes()) != self.history(1).transitions_hash {
            return Err("the probe rebuilt another state than lap 1 recovered".to_owned());
        }
        let mut out = Layers::default();
        platform_layers(&rebuilt.platform, first.timed_s, &mut out);
        std::hint::black_box(rec.span("obs.report", |_| rebuilt.platform.report()));
        wire_probes(&rebuilt.records, rec, &mut out);
        let commands = rebuilt.records.len() as f64;
        out.set("taccd.recover_decode_s", rebuilt.decode_s);
        out.set("taccd.recover_apply_s", rebuilt.apply_s);
        out.set("core.apply_probe_us", rebuilt.apply_s * 1e6 / commands);
        out.set("workload.jobs", rebuilt.platform.job_ids().len() as f64);
        Ok((out, rebuilt.decode_s + rebuilt.apply_s))
    }
}

// --------------------------------------------------------------------
// Probes: one lap's commands through a single layer alone
// --------------------------------------------------------------------

/// `core::wire` alone: encode every record to a frame, then decode and
/// parse every frame back.
fn wire_probes(records: &[CommandRecord], rec: &mut Recorder, out: &mut Layers) {
    let commands = records.len() as f64;
    let start = Instant::now();
    let frames: Vec<Vec<u8>> = rec.span("probe.core.wire_encode", |_| {
        records
            .iter()
            .map(|r| wire::encode_frame(r.to_json().to_string().as_bytes()))
            .collect()
    });
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parsed = rec.span("probe.core.wire_decode", |_| {
        frames
            .iter()
            .filter_map(|frame| {
                let (payload, _) = wire::decode_frame(frame).ok()?;
                let value = wire::parse(std::str::from_utf8(payload).ok()?).ok()?;
                CommandRecord::from_json(&value).ok()
            })
            .count()
    });
    let decode_s = start.elapsed().as_secs_f64();
    assert_eq!(parsed, records.len(), "every encoded frame parses back");
    let bytes: usize = frames.iter().map(Vec::len).sum();
    out.set("core.wire_encode_probe_us", encode_s * 1e6 / commands);
    out.set("core.wire_decode_probe_us", decode_s * 1e6 / commands);
    out.set("core.wire_bytes_per_cmd", bytes as f64 / commands);
}

/// The write path's layers alone, over lap 1's journalled commands: wire,
/// apply (the rebuild already timed it), append without sync, one sync per
/// frame, and the engine round trip with one command in flight.
///
/// Accounts for apply + append per journalled command of the timed section
/// and one probed fsync per fsync the lap made; `append_frame` encodes the
/// frame itself, so the wire probe is not added again.
fn write_path_probes(
    first: &FirstLap,
    dir: &RunDir,
    rec: &mut Recorder,
) -> Result<(Layers, f64), String> {
    let FirstLap {
        rebuilt,
        frames,
        fsyncs,
    } = first;
    let records = &rebuilt.records;
    let commands = records.len() as f64;
    let seed = PlatformConfig::default().seed;
    let mut out = Layers::default();
    wire_probes(records, rec, &mut out);
    let apply_us = rebuilt.apply_s * 1e6 / commands;

    let path = dir.file("probe.journal");
    let append_us = rec.span("probe.taccd.append", |_| {
        let mut journal = Journal::create(&path, seed).map_err(|e| e.to_string())?;
        let start = Instant::now();
        for record in records {
            journal.append_frame(record).map_err(|e| e.to_string())?;
        }
        Ok::<_, String>(start.elapsed().as_secs_f64() * 1e6 / commands)
    })?;
    let fsync_ms = rec.span("probe.taccd.fsync", |_| {
        let mut journal = Journal::create(&path, seed).map_err(|e| e.to_string())?;
        let mut samples = Vec::new();
        for record in records.iter().take(200) {
            journal.append_frame(record).map_err(|e| e.to_string())?;
            let start = Instant::now();
            journal.sync().map_err(|e| e.to_string())?;
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        Ok::<_, String>(median(&samples))
    })?;
    let rtt_us = rec.span("probe.taccd.engine_rtt", |_| {
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
        let (engine, _) = LiveEngine::open(&path)?;
        let mut samples = Vec::new();
        for record in records.iter().take(500) {
            let (ms, refused) = engine.mutate_window(vec![record.command.clone()], 1)?;
            if refused != 0 {
                return Err("the engine refused a probe command".to_owned());
            }
            samples.extend(ms.iter().map(|ms| ms * 1e3));
        }
        engine.stop()?;
        Ok(median(&samples))
    })?;
    let _ = std::fs::remove_file(&path);

    out.set("core.apply_probe_us", apply_us);
    out.set("taccd.append_probe_us", append_us);
    out.set("taccd.fsync_probe_ms", fsync_ms);
    out.set("taccd.engine_rtt_us", rtt_us);
    let accounted_s =
        *frames as f64 * (apply_us + append_us) / 1e6 + *fsyncs as f64 * fsync_ms / 1e3;
    Ok((out, accounted_s))
}

/// `query("journal")` against an idle daemon: socket, frame, JSON and two
/// hand-offs, with no platform work and no fsync. Median, microseconds.
fn query_rtt_probe(dir: &RunDir) -> Result<f64, String> {
    let journal = dir.file("probe.journal");
    let _ = std::fs::remove_file(&journal);
    let daemon = start_daemon(dir, &journal)?;
    let mut client = DaemonClient::connect(daemon.socket(), RetryPolicy::default())
        .map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    for _ in 0..2_000 {
        let start = Instant::now();
        client.query("journal", None).map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_file(&journal);
    Ok(median(&samples))
}
