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
//!   through a live [`Engine`], then the finished journal is cut at
//!   random byte offsets and around frame boundaries deep in a long
//!   journal, or mutated, and recovered both by `Journal::recover` and by
//!   `Engine::open` straight on the damaged file; every copy must yield
//!   the longest valid prefix, flag any torn tail loudly, and replay to
//!   the exact transition log the pristine run had at that prefix;
//! * daemon + socket — concurrent [`DaemonClient`]s drive a live
//!   [`Daemon`], which is then stopped and restarted on the same
//!   journal; the `transitions` query must return byte-identical text
//!   before and after, and the sequence numbering must continue.

use std::path::{Path, PathBuf};
use std::sync::mpsc;

use tacc_core::wire::{self, Json};
use tacc_core::{Command, CommandRecord, PlatformConfig};
use tacc_taccd::{
    ClockMode, Daemon, DaemonConfig, Engine, EngineConfig, EngineInitError, Journal, JournalError,
    Msg, Query, RecoveryReport, Reply,
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

fn engine_config(journal: &Path) -> EngineConfig {
    EngineConfig {
        journal: journal.to_owned(),
        platform: PlatformConfig::default(),
        clock: ClockMode::Logical,
    }
}

fn spawn_engine(journal: &Path) -> (mpsc::Sender<Msg>, std::thread::JoinHandle<()>) {
    let (engine, _) = Engine::open(engine_config(journal)).expect("engine opens");
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

/// What an opened engine holds: its transition log and its next `seq`,
/// then — one by one — the `seq` it acknowledges each of `commands`
/// with. Runs the engine on this thread until it has answered them.
fn serve(engine: Engine, commands: &[Command]) -> (String, u64, Vec<u64>) {
    let (tx, rx) = mpsc::channel();
    let (reply, replies) = mpsc::channel();
    for query in [Query::Transitions, Query::JournalStats] {
        let reply = reply.clone();
        tx.send(Msg::Query { query, reply }).expect("queued");
    }
    for command in commands {
        let (command, reply) = (command.clone(), reply.clone());
        tx.send(Msg::Mutate { command, reply }).expect("queued");
    }
    tx.send(Msg::Stop).expect("queued");
    engine.run(&rx);
    let mut replies = replies.try_iter().map(|reply| match reply {
        Reply::Ok(payload) => payload,
        other => panic!("the recovered engine refused: {other:?}"),
    });
    let Some(Json::Str(log)) = replies.next() else {
        panic!("transitions answered without a log");
    };
    let field = |payload: Option<Json>, key| {
        payload
            .and_then(|payload| payload.get(key).and_then(Json::as_u64))
            .expect("a numeric field")
    };
    let next_seq = field(replies.next(), "next_seq");
    let acks = commands
        .iter()
        .map(|_| field(replies.next(), "seq"))
        .collect();
    (log, next_seq, acks)
}

// ---------------------------------------------------------------------
// A pristine history, and what recovering any copy of it must give
// ---------------------------------------------------------------------

/// A journal a live engine wrote from a `len`-command script, with
/// everything a recovery of any prefix of it is checked against.
struct Pristine {
    /// The whole file: its frames, then the zeros the engine padded it
    /// with.
    bytes: Vec<u8>,
    /// `boundaries[r]` is the byte length of a journal holding exactly r
    /// command frames; `boundaries[0]` ends the genesis frame, and the
    /// last one is where the zeros start.
    boundaries: Vec<usize>,
    /// `reference[r]` is the exact transition log a daemon must
    /// reproduce when its journal recovers r command frames.
    reference: Vec<String>,
}

impl Pristine {
    /// Applies the script through a live engine, snapshotting the
    /// transition log after every *accepted* command.
    fn record(rng: &mut XorShift, tag: &str, len: usize) -> Pristine {
        let commands = script(rng, len);
        let path = temp("recovery-pristine", tag);
        std::fs::remove_file(&path).ok();
        let (tx, handle) = spawn_engine(&path);
        let mut reference = vec![transitions(&tx)];
        for command in &commands {
            if matches!(mutate(&tx, command.clone()), Reply::Ok(_)) {
                reference.push(transitions(&tx));
            }
        }
        stop_engine(tx, handle);
        let bytes = std::fs::read(&path).expect("journal bytes");
        std::fs::remove_file(&path).ok();

        let (_, genesis_len) = wire::decode_frame(&bytes).expect("genesis frame decodes");
        let mut boundaries = vec![genesis_len];
        loop {
            let offset = *boundaries.last().expect("nonempty");
            let (payload, used) =
                wire::decode_frame(&bytes[offset..]).expect("clean journal decodes");
            if payload.is_empty() {
                break; // the end-of-log mark
            }
            boundaries.push(offset + used);
        }
        assert_eq!(
            boundaries.len(),
            reference.len(),
            "{tag}: exactly one frame per accepted command"
        );
        let end = *boundaries.last().expect("nonempty");
        assert!(
            bytes[end..].iter().all(|&b| b == 0),
            "{tag}: only zeros past the frames"
        );
        Pristine {
            bytes,
            boundaries,
            reference,
        }
    }
}

/// What recovering `bytes` must keep, found the plain way: whole-buffer
/// `wire::decode_frame` and `CommandRecord::from_json` from the genesis
/// frame on, stopping at the first failure or the end-of-log mark (an
/// empty frame: eight zero bytes). The records and the bytes they end
/// at; `None` when the genesis frame is not this daemon's.
fn scan(bytes: &[u8]) -> Option<(Vec<CommandRecord>, usize)> {
    let parse = |payload: &[u8]| wire::parse(std::str::from_utf8(payload).ok()?).ok();
    let (genesis, mut offset) = wire::decode_frame(bytes).ok()?;
    let genesis = parse(genesis)?;
    let field = |key| genesis.get(key).and_then(Json::as_u64);
    let seed = PlatformConfig::default().seed;
    if field("genesis")? != wire::PROTOCOL_VERSION || field("seed").is_some_and(|s| s != seed) {
        return None;
    }
    let mut records = Vec::new();
    while let Ok((payload, used)) = wire::decode_frame(&bytes[offset..]) {
        if payload.is_empty() {
            break;
        }
        let Some(record) = parse(payload).and_then(|v| CommandRecord::from_json(&v).ok()) else {
            break;
        };
        records.push(record);
        offset += used;
    }
    Some((records, offset))
}

/// Recovers `bytes` both ways — `Journal::recover` on one copy, and
/// `Engine::open` straight on another, torn tail and all — and holds
/// both to [`scan`]: the same records and report (torn exactly when the
/// bytes past the kept prefix hold a non-zero one), the tail truncated
/// only by a recovery that succeeds, and (where the records' `seq` is dense)
/// an engine whose log is `reference`'s at that prefix, numbering on
/// from there. A non-dense `seq` is a typed `Replay` refusal that leaves
/// the file as it was found. Returns the recovery report, `None` where
/// the genesis frame is refused.
fn recover_both_ways(
    case: &str,
    bytes: &[u8],
    reference: &[String],
    then: &[Command],
) -> Option<RecoveryReport> {
    let expected = scan(bytes);
    let recovered_copy = temp("recovered", case);
    let opened_copy = temp("opened", case);
    std::fs::write(&recovered_copy, bytes).expect("copy written");
    std::fs::write(&opened_copy, bytes).expect("copy written");
    let recovered = Journal::recover(&recovered_copy, PlatformConfig::default().seed);
    let opened = Engine::open(engine_config(&opened_copy));
    let after_recover = std::fs::read(&recovered_copy).expect("copy read");
    let after_open = std::fs::read(&opened_copy).expect("copy read");
    std::fs::remove_file(&recovered_copy).ok();

    let Some((records, valid)) = expected else {
        assert!(
            matches!(
                recovered,
                Err(JournalError::BadGenesis(_) | JournalError::ProtocolMismatch { .. })
            ),
            "{case}: expected a genesis refusal, got {recovered:?}"
        );
        assert!(
            matches!(opened, Err(EngineInitError::Journal(_))),
            "{case}: expected a genesis refusal, got {opened:?}"
        );
        assert!(after_recover == bytes && after_open == bytes, "{case}");
        std::fs::remove_file(&opened_copy).ok();
        return None;
    };
    let (journal, recovered_records, report) = recovered.expect("recovery succeeds past genesis");
    drop(journal);
    assert_eq!(recovered_records, records, "{case}: recovered records");
    assert_eq!(report.frames, records.len() as u64, "{case}");
    assert_eq!(report.valid_bytes, valid as u64, "{case}");
    let torn = bytes[valid..].iter().any(|&b| b != 0);
    let torn_bytes = if torn { bytes.len() - valid } else { 0 };
    assert_eq!(report.torn_bytes, torn_bytes as u64, "{case}");
    assert_eq!(
        report.torn_reason.is_some(),
        report.torn(),
        "{case}: torn tails, and only they, carry a reason"
    );
    assert!(
        after_recover == bytes[..valid],
        "{case}: the tail must be truncated away"
    );

    let gap = records
        .iter()
        .enumerate()
        .find(|(i, record)| record.seq != *i as u64);
    match (gap, opened) {
        (Some((_, record)), Err(EngineInitError::Replay { seq, .. })) => {
            assert_eq!(seq, record.seq, "{case}: the refusal names the record");
            assert!(
                after_open == bytes,
                "{case}: a refused journal is left as found"
            );
        }
        (None, Ok((engine, opened_report))) => {
            assert_eq!(
                opened_report.as_ref(),
                Some(&report),
                "{case}: open's report"
            );
            assert!(
                after_open == bytes[..valid],
                "{case}: open truncates the torn tail"
            );
            let (log, next_seq, acks) = serve(engine, then);
            assert_eq!(
                log,
                reference[records.len()],
                "{case}: replayed transition log diverged"
            );
            let full = records.len() as u64;
            assert_eq!(next_seq, full, "{case}: next seq");
            assert!(
                acks.iter().copied().eq(full..full + then.len() as u64),
                "{case}"
            );
        }
        (gap, opened) => panic!("{case}: gap {gap:?} opened as {opened:?}"),
    }
    std::fs::remove_file(&opened_copy).ok();
    Some(report)
}

// ---------------------------------------------------------------------
// The crash-recovery property
// ---------------------------------------------------------------------

#[test]
fn torn_journals_recover_the_longest_valid_prefix_and_byte_reproduce() {
    // The last script runs long, and is also cut around frames 64, 128
    // and 192: recovery streams a long journal to the same state.
    const LONG: u64 = 0x00BA_7C4E;
    const STRIDE: usize = 64;
    for seed in [11u64, 29, 4242, 0x00C0_FFEE, LONG] {
        let mut rng = XorShift::new(seed);
        let script_len = match seed {
            LONG => 8 * STRIDE,
            _ => 24 + rng.below(16) as usize,
        };
        let Pristine {
            bytes,
            boundaries,
            reference,
        } = Pristine::record(&mut rng, &format!("{seed}"), script_len);
        let accepted = reference.len() - 1;
        assert!(
            accepted >= 4,
            "seed {seed}: script too timid, only {accepted} commands accepted"
        );

        // Cuts through the frames, and through the zeros behind them:
        // inside the end-of-log mark and past it.
        let end = *boundaries.last().expect("nonempty");
        let mut cuts: Vec<usize> = (0..10)
            .map(|_| rng.below(end as u64 + 1) as usize)
            .collect();
        cuts.push(end + 1 + rng.below(7) as usize);
        cuts.push(end + 8 + rng.below((bytes.len() - end - 8) as u64 + 1) as usize);
        if seed == LONG {
            assert!(accepted > 3 * STRIDE + 1, "seed {seed}: {accepted}");
            // Exactly at, one short of and one past each of the three
            // frame boundaries, and inside the next frame's header and
            // payload.
            for frames in (1..=3).flat_map(|k| [k * STRIDE - 1, k * STRIDE, k * STRIDE + 1]) {
                let (at, next) = (boundaries[frames], boundaries[frames + 1]);
                cuts.extend([at, at + 5, (at + next) / 2]);
            }
        }
        for cut in cuts {
            let case = format!("seed {seed} cut {cut}");
            let then = [Command::Advance { secs: 1.0 }];
            let report = recover_both_ways(&case, &bytes[..cut], &reference, &then);
            if cut < boundaries[0] {
                // The genesis frame itself is torn: there is no valid
                // prefix to keep, and recovery must refuse loudly
                // rather than improvise an empty journal.
                assert_eq!(report, None, "{case}: expected BadGenesis");
                continue;
            }

            // Longest valid prefix: every whole frame before the cut. What
            // the cut leaves of the next frame is torn — unless it is no
            // more than zeros, as past the last frame.
            let full = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            let report = report.expect("recovery succeeds past genesis");
            assert_eq!(report.frames, full as u64, "{case}: recovered frames");
            assert_eq!(report.valid_bytes, boundaries[full] as u64, "{case}");
            let torn = bytes[boundaries[full]..cut].iter().any(|&b| b != 0);
            let torn_bytes = if torn { cut - boundaries[full] } else { 0 };
            assert_eq!(report.torn_bytes, torn_bytes as u64, "{case}");
            assert_eq!(
                report.torn(),
                torn,
                "{case}: a mid-frame cut must be reported torn"
            );
            if cut <= end && cut != boundaries[full] {
                // Of a frame's bytes only its length's low byte can be
                // zero on its own.
                assert!(torn || cut == boundaries[full] + 1, "{case}");
            }
        }
    }
}

/// A journal whose records do not replay — here a `seq` that skips one,
/// 69 records in, ahead of a torn tail — is refused with
/// the record's `seq` and left byte for byte as it was found: the torn
/// tail is truncated only once the whole prefix has applied.
#[test]
fn a_journal_that_fails_to_replay_is_left_as_it_was_found() {
    let path = temp("replay-refused", "a");
    drop(Journal::create(&path, PlatformConfig::default().seed).expect("creates"));
    let mut bytes = std::fs::read(&path).expect("genesis bytes");
    let gap = 69;
    for seq in (0..gap).chain(gap + 1..gap + 8) {
        let record = CommandRecord {
            seq,
            at_secs: seq as f64,
            command: Command::Advance { secs: 1.0 },
        };
        bytes.extend(wire::encode_frame(record.to_json().to_string().as_bytes()));
    }
    let torn = wire::encode_frame(b"{\"seq\":");
    bytes.extend(&torn[..torn.len() - 2]);
    std::fs::write(&path, &bytes).expect("journal written");

    match Engine::open(engine_config(&path)) {
        Err(EngineInitError::Replay { seq, message }) => {
            assert_eq!(seq, gap + 1, "{message}");
        }
        other => panic!("expected a replay refusal, got {other:?}"),
    }
    assert!(
        std::fs::read(&path).expect("journal read") == bytes,
        "a refused journal was rewritten"
    );
    std::fs::remove_file(&path).ok();
}

/// The journal reader under hostile bytes: a seeded mutation of a real
/// journal — a bit flipped in a header or a payload, a length field set
/// to 0, just past the end of the file, `MAX_FRAME_LEN` or one more, a
/// payload swapped for JSON that is not a record, a frame duplicated;
/// the zeros past the frames are one more "frame", its header the
/// end-of-log mark — goes through `Journal::recover` and `Engine::open`.
/// Neither panics, both keep exactly what a plain scan keeps, and a
/// duplicate that breaks the `seq` is a typed refusal
/// ([`recover_both_ways`]).
#[test]
fn mutated_journals_recover_what_a_plain_scan_keeps() {
    const CASES: usize = 240;
    let mut rng = XorShift::new(0x0F02_2ED5);
    let Pristine {
        bytes,
        boundaries,
        reference,
    } = Pristine::record(&mut rng, "fuzz", 40);
    let not_records = [
        "{}",
        "[1,2]",
        "\"seq\"",
        "{\"seq\":1}",
        "{\"genesis\":1,\"seed\":0}",
        "{\"seq\":0,\"at_secs\":0,\"command\":{\"kind\":\"nope\"}}",
    ];
    let mut kinds = [0usize; 8];
    let mut in_the_zeros = 0;
    for case in 0..CASES {
        let frame = rng.below(boundaries.len() as u64 + 1) as usize;
        let start = frame.checked_sub(1).map_or(0, |f| boundaries[f]);
        let end = boundaries.get(frame).copied().unwrap_or(bytes.len());
        in_the_zeros += usize::from(frame == boundaries.len());
        let mut mutated = bytes.clone();
        let set_len = |mutated: &mut Vec<u8>, len: usize| {
            mutated[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        };
        let kind = rng.below(kinds.len() as u64) as usize;
        kinds[kind] += 1;
        match kind {
            0 => mutated[start + rng.below(8) as usize] ^= 1 << rng.below(8),
            1 => {
                let at = start + 8 + rng.below((end - start - 8) as u64) as usize;
                mutated[at] ^= 1 << rng.below(8);
            }
            2 => set_len(&mut mutated, 0),
            3 => set_len(&mut mutated, bytes.len() - start - 8 + 1),
            4 => set_len(&mut mutated, wire::MAX_FRAME_LEN),
            5 => set_len(&mut mutated, wire::MAX_FRAME_LEN + 1),
            6 => {
                let text = not_records[rng.below(not_records.len() as u64) as usize];
                let frame = wire::encode_frame(text.as_bytes());
                mutated.splice(start..end, frame);
            }
            _ => {
                let copy = bytes[start..end].to_vec();
                mutated.splice(end..end, copy);
            }
        }
        recover_both_ways(&format!("fuzz case {case}"), &mutated, &reference, &[]);
    }
    assert!(
        kinds.iter().all(|&n| n > 0),
        "every mutation drawn: {kinds:?}"
    );
    assert!(in_the_zeros > 0, "no mutation landed in the zeros");
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
