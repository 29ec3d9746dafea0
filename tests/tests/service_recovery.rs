//! Service-mode crash recovery, end to end.
//!
//! The property under test is the invariant the whole service design
//! hangs on (DESIGN.md, "Service mode & write-ahead journal"): commands
//! are validated and stamped *before* they are journalled and the
//! platform below is deterministic, therefore replaying a journal's
//! longest valid frame prefix byte-reproduces the transition log of a
//! pristine run over that same prefix — no matter where a crash tore
//! the file.
//!
//! Two layers are exercised:
//!
//! * engine + journal — xorshift-driven command scripts are applied
//!   through a live [`Engine`], then the finished journal is truncated
//!   at random byte offsets and recovered; every cut must yield the
//!   longest valid prefix, flag any torn tail loudly, and replay to
//!   the exact transition log the pristine run had at that prefix;
//! * daemon + socket — concurrent [`DaemonClient`]s drive a live
//!   [`Daemon`], which is then stopped and restarted on the same
//!   journal; the `transitions` query must return byte-identical text
//!   before and after, and the sequence numbering must continue.

use std::path::PathBuf;
use std::sync::mpsc;

use tacc_core::wire::{self, Json};
use tacc_core::{Command, PlatformConfig};
use tacc_taccd::{
    ClockMode, Daemon, DaemonConfig, Engine, EngineConfig, Journal, JournalError, Msg, Query, Reply,
};
use tacc_tcloud::{DaemonClient, RetryPolicy};
use tacc_workload::{GroupId, JobId, TaskSchema};

// ---------------------------------------------------------------------
// xorshift64* script generator
// ---------------------------------------------------------------------

/// The issue-mandated generator: xorshift64*, hand-rolled so the test
/// is reproducible from a single `u64` seed with no external RNG.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1) // xorshift state must be nonzero
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A random command script. Some entries are deliberately invalid
/// (cancelling unknown jobs, draining out-of-range nodes): the engine
/// must reject those *without* journalling them, so the journal holds
/// exactly the accepted subsequence.
fn script(rng: &mut XorShift, len: usize) -> Vec<Command> {
    let mut commands = Vec::with_capacity(len);
    for i in 0..len {
        let command = match rng.below(10) {
            0..=3 => Command::Submit {
                schema: TaskSchema::builder(
                    &format!("prop-{i}-{:x}", rng.below(0xFFFF)),
                    GroupId::from_index(rng.below(8) as usize),
                )
                .est_duration_secs(60.0 + rng.below(600) as f64)
                .build()
                .expect("generated schema is valid")
                .into(),
                service_secs: 30.0 + rng.below(900) as f64,
            },
            4..=5 => Command::Advance {
                secs: 1.0 + rng.below(120) as f64,
            },
            6 => Command::Cancel {
                job: JobId::from_value(rng.below(len as u64)),
            },
            7 => Command::Reserve {
                gpus: 1 + rng.below(64) as u32,
                from_secs: rng.below(5_000) as f64,
                until_secs: 5_000.0 + rng.below(5_000) as f64,
            },
            8 => Command::Drain {
                node: rng.below(40) as u32, // default cluster has 32 nodes
            },
            _ => Command::Undrain {
                node: rng.below(40) as u32,
            },
        };
        commands.push(command);
    }
    commands
}

// ---------------------------------------------------------------------
// Engine plumbing (the same channel protocol the daemon uses)
// ---------------------------------------------------------------------

fn temp(tag: &str, unique: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tacc-{tag}-{unique}-{}", std::process::id()));
    p
}

fn spawn_engine(journal: PathBuf) -> (mpsc::Sender<Msg>, std::thread::JoinHandle<()>) {
    let (engine, _) = Engine::open(EngineConfig {
        journal,
        platform: PlatformConfig::default(),
        clock: ClockMode::Logical,
    })
    .expect("engine opens");
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || engine.run(&rx));
    (tx, handle)
}

fn mutate(tx: &mpsc::Sender<Msg>, command: Command) -> Reply {
    let (rtx, rrx) = mpsc::channel();
    tx.send(Msg::Mutate {
        command,
        reply: rtx,
    })
    .expect("engine alive");
    rrx.recv().expect("reply arrives")
}

fn transitions(tx: &mpsc::Sender<Msg>) -> String {
    let (rtx, rrx) = mpsc::channel();
    tx.send(Msg::Query {
        query: Query::Transitions,
        reply: rtx,
    })
    .expect("engine alive");
    match rrx.recv().expect("reply arrives") {
        Reply::Ok(Json::Str(text)) => text,
        other => panic!("transitions query failed: {other:?}"),
    }
}

fn stop_engine(tx: mpsc::Sender<Msg>, handle: std::thread::JoinHandle<()>) {
    tx.send(Msg::Stop).expect("engine alive");
    handle.join().expect("engine thread exits");
}

// ---------------------------------------------------------------------
// The crash-recovery property
// ---------------------------------------------------------------------

#[test]
fn torn_journals_recover_the_longest_valid_prefix_and_byte_reproduce() {
    let platform_seed = PlatformConfig::default().seed;
    for seed in [11u64, 29, 4242, 0x00C0_FFEE] {
        let mut rng = XorShift::new(seed);
        let pristine = temp("recovery-pristine", &format!("{seed}"));
        std::fs::remove_file(&pristine).ok();

        // Pristine run: apply the script through a live engine,
        // snapshotting the transition log after every *accepted*
        // command. `reference[r]` is the exact log a daemon must
        // reproduce when its journal recovers r command frames.
        let script_len = 24 + rng.below(16) as usize;
        let commands = script(&mut rng, script_len);
        let (tx, handle) = spawn_engine(pristine.clone());
        let mut reference = vec![transitions(&tx)];
        for command in &commands {
            if matches!(mutate(&tx, command.clone()), Reply::Ok(_)) {
                reference.push(transitions(&tx));
            }
        }
        stop_engine(tx, handle);
        let accepted = reference.len() - 1;
        assert!(
            accepted >= 4,
            "seed {seed}: script too timid, only {accepted} commands accepted"
        );

        // Frame boundaries of the finished journal: `boundaries[r]` is
        // the byte length of a journal holding exactly r command frames.
        let bytes = std::fs::read(&pristine).expect("journal bytes");
        let (_, genesis_len) = wire::decode_frame(&bytes).expect("genesis frame decodes");
        let mut boundaries = vec![genesis_len];
        while *boundaries.last().expect("nonempty") < bytes.len() {
            let offset = *boundaries.last().expect("nonempty");
            let (_, used) = wire::decode_frame(&bytes[offset..]).expect("clean journal decodes");
            boundaries.push(offset + used);
        }
        assert_eq!(
            boundaries.len() - 1,
            accepted,
            "seed {seed}: exactly one frame per accepted command"
        );

        for trial in 0..10u64 {
            let cut = rng.below(bytes.len() as u64 + 1) as usize;
            let copy = temp("recovery-cut", &format!("{seed}-{trial}"));
            std::fs::write(&copy, &bytes[..cut]).expect("truncated copy written");

            if cut < genesis_len {
                // The genesis frame itself is torn: there is no valid
                // prefix to keep, and recovery must refuse loudly
                // rather than improvise an empty journal.
                match Journal::recover(&copy, platform_seed) {
                    Err(JournalError::BadGenesis(_)) => {}
                    other => panic!("seed {seed} cut {cut}: expected BadGenesis, got {other:?}"),
                }
                std::fs::remove_file(&copy).ok();
                continue;
            }

            // Longest valid prefix: every whole frame before the cut.
            let full = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            let (journal, records, report) =
                Journal::recover(&copy, platform_seed).expect("recovery succeeds past genesis");
            drop(journal);
            assert_eq!(
                records.len(),
                full,
                "seed {seed} cut {cut}: recovered record count"
            );
            assert_eq!(report.frames, full as u64);
            assert_eq!(report.valid_bytes, boundaries[full] as u64);
            assert_eq!(report.torn_bytes, (cut - boundaries[full]) as u64);
            assert_eq!(
                report.torn(),
                cut != boundaries[full],
                "seed {seed} cut {cut}: a mid-frame cut must be reported torn"
            );
            if report.torn() {
                assert!(
                    report.torn_reason.is_some(),
                    "seed {seed} cut {cut}: torn tails must carry a reason"
                );
            }
            assert_eq!(
                std::fs::metadata(&copy).expect("metadata").len(),
                boundaries[full] as u64,
                "seed {seed} cut {cut}: the torn tail must be truncated away"
            );

            // Replay byte-reproduces the pristine run at that prefix,
            // and the recovered engine keeps numbering where it left off.
            let (tx, handle) = spawn_engine(copy.clone());
            assert_eq!(
                transitions(&tx),
                reference[full],
                "seed {seed} cut {cut}: replayed transition log diverged"
            );
            let Reply::Ok(ack) = mutate(&tx, Command::Advance { secs: 1.0 }) else {
                panic!("seed {seed} cut {cut}: recovered engine refused new work");
            };
            assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(full as u64));
            stop_engine(tx, handle);
            std::fs::remove_file(&copy).ok();
        }
        std::fs::remove_file(&pristine).ok();
    }
}

// ---------------------------------------------------------------------
// Daemon-level restart over a live socket
// ---------------------------------------------------------------------

fn live_submit(client: usize, request: usize) -> Command {
    Command::Submit {
        schema: TaskSchema::builder(
            &format!("live-c{client}-r{request}"),
            GroupId::from_index(0),
        )
        .est_duration_secs(120.0)
        .build()
        .expect("valid schema")
        .into(),
        service_secs: 90.0,
    }
}

fn text_query(conn: &mut DaemonClient, kind: &str) -> String {
    match conn.query(kind, None).expect("query answered") {
        Json::Str(text) => text,
        other => panic!("{kind} query returned non-text payload: {other:?}"),
    }
}

#[test]
fn daemon_restart_over_a_live_socket_byte_reproduces_the_transition_log() {
    let socket = temp("svc-restart-sock", "a");
    let journal = temp("svc-restart-journal", "a");
    std::fs::remove_file(&socket).ok();
    std::fs::remove_file(&journal).ok();
    let config = DaemonConfig {
        socket: socket.clone(),
        engine: EngineConfig {
            journal: journal.clone(),
            platform: PlatformConfig::default(),
            clock: ClockMode::Logical,
        },
    };

    let (daemon, report) = Daemon::start(config.clone()).expect("daemon starts");
    assert!(report.is_none(), "a fresh journal has nothing to recover");

    // Concurrent clients, each on its own connection.
    let clients = 4usize;
    let per_client = 8usize;
    let workers: Vec<_> = (0..clients)
        .map(|client| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let mut conn = DaemonClient::connect(&socket, RetryPolicy::default())
                    .expect("client connects");
                for request in 0..per_client {
                    conn.mutate(&live_submit(client, request))
                        .expect("submit acknowledged");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread exits cleanly");
    }

    // Mix in the other command families, then snapshot the log.
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::none()).expect("connects");
    conn.mutate(&Command::Reserve {
        gpus: 16,
        from_secs: 3_600.0,
        until_secs: 7_200.0,
    })
    .expect("reservation accepted");
    conn.mutate(&Command::Advance { secs: 900.0 })
        .expect("advance accepted");
    let before = text_query(&mut conn, "transitions");
    assert!(!before.is_empty());
    let info = conn.query("info", None).expect("info answered");
    let journalled = (clients * per_client + 2) as u64;
    assert_eq!(
        info.get("journal_seq").and_then(Json::as_u64),
        Some(journalled),
        "every acknowledged command is journalled exactly once"
    );
    drop(conn);
    daemon.stop();

    // Restart on the same journal: clean recovery, identical log,
    // sequence numbering continues where the first life ended.
    let (daemon, report) = Daemon::start(config).expect("daemon restarts");
    let report = report.expect("an existing journal is recovered");
    assert_eq!(report.frames, journalled);
    assert!(!report.torn(), "a cleanly stopped journal has no torn tail");
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::default()).expect("reconnects");
    let after = text_query(&mut conn, "transitions");
    assert_eq!(
        before, after,
        "the restarted daemon must byte-reproduce the transition log"
    );
    let ack = conn
        .mutate(&live_submit(99, 0))
        .expect("recovered daemon accepts new work");
    assert_eq!(ack.get("seq").and_then(Json::as_u64), Some(journalled));
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}
