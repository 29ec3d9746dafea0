//! Every declared record shape keeps its codecs in agreement. Seeded
//! values of each shape — under names and numbers chosen to be awkward
//! for an escaper, a number printer and a tree-free reader — go through
//! `tacc_tests::assert_codecs_agree`: stream text equals tree text, the
//! text reads back as the value, and the tree-free reader reads what the
//! tree reader reads on that text and on damaged copies of it.
//!
//! The client–daemon conversation wraps those records in envelopes of
//! its own, streamed by `tacc_core::wire`'s frame writers and read by a
//! cursor first; its case holds them to the tree text and the tree
//! reader the same way.
//!
//! Every case draws from one `DetRng` per shape; a failure names its case
//! number.

use std::sync::Arc;

use tacc_cluster::{NodeId, ResourceVec};
use tacc_core::wire::{self, obj, Json, Reply, Request};
use tacc_core::{Command, CommandOutcome, CommandRecord, Query};
use tacc_json::Cursor;
use tacc_obs::{EventRecord, InstructionKind, PlatformEvent, RejectReason, TransitionEvent};
use tacc_sim::DetRng;
use tacc_tests::{assert_codecs_agree, below};
use tacc_workload::{
    Dependencies, GroupId, JobEventKind, JobId, JobState, ModelProfile, QosClass, RuntimeEnv,
    RuntimePreference, TaskKind, TaskSchema, TraceRecord,
};

const NAMES: &[&str] = &[
    "plain",
    "",
    "qu\"ote",
    "back\\slash",
    "trailing\\",
    "ctl\u{0}\u{1}\n\r\t\u{1f}",
    "é→\u{1f600}",
    "inf",
    "-inf",
    "nan",
];

const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    0.1,
    -1234.0625,
    600.0,
    1e21,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

fn pick<T: Copy>(rng: &mut DetRng, from: &[T]) -> T {
    from[below(rng, from.len() as u64) as usize]
}

fn name(rng: &mut DetRng) -> String {
    format!("{}{}", pick(rng, NAMES), pick(rng, NAMES))
}

/// An id up to 2^53, the largest the number syntax reads back exactly.
fn id(rng: &mut DetRng) -> u64 {
    rng.next_u64() >> (11 + below(rng, 53))
}

fn schema(rng: &mut DetRng) -> TaskSchema {
    let pair = (Arc::from(name(rng)), below(rng, 1 << 20) as u32);
    TaskSchema {
        name: name(rng).into(),
        group: GroupId::from_index(below(rng, 1 << 32) as usize),
        workers: below(rng, 512) as u32,
        resources: ResourceVec {
            gpus: below(rng, 9) as u32,
            cpu_cores: below(rng, 256) as u32,
            mem_gb: rng.next_u64() as u32,
        },
        qos: pick(rng, &QosClass::ALL),
        kind: pick(rng, &TaskKind::ALL),
        runtime: pick(rng, &RuntimePreference::ALL),
        env: RuntimeEnv {
            image: pick(rng, NAMES).into(),
            dependencies: vec![pair.clone(); below(rng, 3) as usize].into(),
            dataset: (below(rng, 2) == 0).then_some(pair),
            code_mb: below(rng, 64) as u32,
        },
        est_duration_secs: pick(rng, FLOATS),
        model: (below(rng, 3) > 0).then(|| ModelProfile {
            param_mb: pick(rng, FLOATS),
            compute_secs_per_iter: pick(rng, FLOATS),
        }),
        elastic: below(rng, 2) == 0,
    }
}

/// Asserts the codecs agree on every value `draw` makes, and that the
/// tree-free reader reads at least `straight` of them by itself (names
/// with escapes are the tree's).
fn sweep<T: tacc_json::Field + std::fmt::Debug>(
    shape: &str,
    seed: u64,
    cases: u64,
    straight: u64,
    mut draw: impl FnMut(&mut DetRng, u64) -> T,
) {
    let rng = &mut DetRng::seed_from_u64(seed);
    let mut read_straight = 0;
    for case in 0..cases {
        let value = draw(rng, case);
        if assert_codecs_agree(&format!("{shape} case {case}"), &value, rng) {
            read_straight += 1;
        }
    }
    assert!(
        read_straight >= straight,
        "{shape}: {read_straight} of {cases} read without a tree"
    );
}

fn command(rng: &mut DetRng, case: u64) -> Command {
    match case % 7 {
        0 => Command::Submit {
            service_secs: pick(rng, FLOATS),
            schema: Arc::new(schema(rng)),
        },
        1 => Command::Cancel {
            job: JobId::from_value(id(rng)),
        },
        2 => Command::Reserve {
            gpus: rng.next_u64() as u32,
            from_secs: pick(rng, FLOATS),
            until_secs: pick(rng, FLOATS),
        },
        3 => Command::FaultNode {
            node: rng.next_u64() as u32,
        },
        4 => Command::Drain { node: u32::MAX },
        5 => Command::Undrain { node: 0 },
        _ => Command::Advance {
            secs: pick(rng, FLOATS),
        },
    }
}

/// Journal records and the commands inside them, every kind, plus the
/// fixed commands the codecs were first pinned on.
#[test]
fn commands_and_journal_records_keep_their_codecs_in_agreement() {
    sweep("command", 0xC0DEC, 700, 350, command);
    sweep("record", 0x5712_EA4D, 2_100, 1_000, |rng, case| {
        CommandRecord {
            seq: id(rng),
            at_secs: pick(rng, FLOATS),
            command: command(rng, case),
        }
    });
    let pinned = TaskSchema::builder("cmd-unit", GroupId::from_index(0))
        .workers(2)
        .qos(QosClass::BestEffort)
        .model(ModelProfile::gpt2_like())
        .env(RuntimeEnv {
            image: "pytorch-2.1-cuda12".into(),
            dependencies: Arc::new([("torch".into(), 800)]),
            dataset: Some(("imagenet".into(), 5000)),
            code_mb: 7,
        })
        .build()
        .expect("valid schema");
    let fixed = [
        Command::Submit {
            schema: pinned.into(),
            service_secs: 1234.5,
        },
        Command::Cancel {
            job: JobId::from_value(7),
        },
        Command::Reserve {
            gpus: 64,
            from_secs: 3600.0,
            until_secs: f64::INFINITY,
        },
        Command::FaultNode { node: 3 },
        Command::Drain { node: 0 },
        Command::Undrain { node: 0 },
        Command::Advance { secs: 0.25 },
        Command::Advance { secs: 10.0 },
    ];
    let rng = &mut DetRng::seed_from_u64(7);
    for (i, command) in fixed.into_iter().enumerate() {
        let record = CommandRecord {
            seq: 42,
            at_secs: 1.5,
            command: command.clone(),
        };
        assert!(assert_codecs_agree(&format!("fixed {i}"), &command, rng));
        assert!(assert_codecs_agree(&format!("fixed {i}"), &record, rng));
    }
}

/// Task schemas alone, and as the trace records that carry them; and a
/// schema as the builder makes one.
#[test]
fn schemas_and_trace_records_keep_their_codecs_in_agreement() {
    let built = TaskSchema::builder("unit", GroupId::from_index(0))
        .workers(2)
        .qos(QosClass::BestEffort)
        .model(ModelProfile::gpt2_like())
        .build()
        .expect("valid");
    let rng = &mut DetRng::seed_from_u64(1);
    assert!(assert_codecs_agree("built", &built, rng));
    sweep("schema", 0x5C4E3A, 600, 10, |rng, _| schema(rng));
    sweep("trace record", 0x7EACE, 600, 10, |rng, _| TraceRecord {
        submit_secs: pick(rng, FLOATS),
        schema: Arc::new(schema(rng)),
        service_secs: pick(rng, FLOATS),
        cancel_after_secs: (below(rng, 2) == 0).then(|| pick(rng, FLOATS)),
    });
}

/// The shared strings and bundles a schema's environment holds, alone
/// and inside the environment: every name [`NAMES`] makes, so the cursor
/// gives an escaped one up to the tree reader; bundles from empty to
/// twelve items, four times the generator's longest.
#[test]
fn shared_strings_and_bundles_keep_their_codecs_in_agreement() {
    let bundle = |rng: &mut DetRng, len: u64| -> Dependencies {
        (0..len)
            .map(|_| (Arc::from(name(rng)), rng.next_u64() as u32))
            .collect()
    };
    sweep("shared string", 0x5_7A1E, 300, 30, |rng, _| {
        Arc::<str>::from(name(rng))
    });
    sweep("bundle", 0xB_0D1E, 300, 30, |rng, case| {
        bundle(rng, case % 13)
    });
    sweep("environment", 0xE_0E4F, 300, 5, |rng, case| RuntimeEnv {
        image: name(rng).into(),
        dependencies: bundle(rng, case % 13),
        dataset: (below(rng, 2) == 0).then(|| (Arc::from(name(rng)), below(rng, 1 << 20) as u32)),
        code_mb: below(rng, 64) as u32,
    });

    // Each of the three names escaped: the cursor gives up, the tree
    // reads the environment.
    let plain = RuntimeEnv {
        image: "img".into(),
        dependencies: Arc::new([("dep".into(), 1)]),
        dataset: Some(("data".into(), 2)),
        code_mb: 3,
    };
    let rng = &mut DetRng::seed_from_u64(46);
    let mut escaped = [plain.clone(), plain.clone(), plain.clone()];
    escaped[0].image = "qu\"ote".into();
    escaped[1].dependencies = Arc::new([("dep".into(), 1), ("back\\slash".into(), 4)]);
    escaped[2].dataset = Some(("ctl\n".into(), 2));
    for (i, env) in escaped.iter().enumerate() {
        assert!(!assert_codecs_agree(&format!("escaped {i}"), env, rng));
    }
    assert!(assert_codecs_agree("plain", &plain, rng));
    // The ends of a bundle's length, read without a tree.
    for len in [0, 12] {
        let env = RuntimeEnv {
            dependencies: (0..len).map(|size| (Arc::from("dep"), size)).collect(),
            ..plain.clone()
        };
        assert!(assert_codecs_agree(&format!("{len} deps"), &env, rng));
    }
}

fn query(rng: &mut DetRng, case: u64) -> Query {
    let job = JobId::from_value(id(rng));
    [
        Query::Status(job),
        Query::List,
        Query::Events(job),
        Query::Info,
        Query::Metrics,
        Query::Transitions,
        Query::JournalStats,
        Query::Logs(job),
        Query::Timeline(job),
        Query::Why(job),
        Query::Artifacts(job),
        Query::Goodput,
        Query::Quota,
        Query::Top,
    ][(case % 14) as usize]
}

/// Every query kind, per-job ones about any job.
#[test]
fn queries_keep_their_codecs_in_agreement() {
    sweep("query", 0x9E41, 280, 280, query);
}

/// The daemon's reader with no cursor: the parser, then the tree reader.
fn tree_read(payload: &[u8]) -> Result<Request, Reply> {
    let malformed = |e: String| Reply::refuse(wire::MALFORMED_FRAME, e);
    let text =
        std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8".into()))?;
    let value = wire::parse(text).map_err(|e| malformed(e.to_string()))?;
    Request::from_json(&value)
}

/// Asserts that `write` appends one frame, after what the buffer held,
/// whose payload is `text`: `encode_frame(text)`, byte for byte.
fn assert_frames_text(case: &str, write: impl FnOnce(&mut Vec<u8>), text: &str) {
    let mut buf = b"ahead".to_vec();
    write(&mut buf);
    assert_eq!(buf[..5], *b"ahead", "{case}: the buffer's head");
    let (payload, used) = wire::decode_frame(&buf[5..]).expect("one intact frame");
    assert_eq!(
        String::from_utf8_lossy(payload),
        text,
        "{case}: stream vs tree"
    );
    assert_eq!(used, buf.len() - 5, "{case}: one frame");
}

/// Asserts that the frame a request writer appended is the tree text,
/// framed; that the daemon reads it back as `request`, as the tree reader
/// does; and that on damaged copies the two readers agree, refusals and
/// their texts included. Says whether the cursor read it by itself.
fn assert_request_agrees(
    case: &str,
    write: impl FnOnce(&mut Vec<u8>),
    tree: &Json,
    request: &Request,
    rng: &mut DetRng,
) -> bool {
    let text = tree.to_string();
    assert_frames_text(case, write, &text);
    // Debug text, so that a NaN reads back equal to itself.
    let read = |bytes: &[u8]| format!("{:?}", Request::read(bytes));
    let written: Result<&Request, Reply> = Ok(request);
    assert_eq!(
        read(text.as_bytes()),
        format!("{written:?}"),
        "{case}: {text}"
    );
    const SWAPS: &[u8] = b"0123456789.-+eE\"\\,:{}[] ntfalsuvmq";
    let bytes = text.as_bytes();
    let at = below(rng, bytes.len() as u64) as usize;
    let mut swapped = bytes.to_vec();
    swapped[at] = SWAPS[below(rng, SWAPS.len() as u64) as usize];
    let mut dropped = bytes.to_vec();
    dropped.remove(at);
    for damaged in [bytes, &bytes[..at], &swapped, &dropped] {
        let tree = format!("{:?}", tree_read(damaged));
        assert_eq!(
            read(damaged),
            tree,
            "{case}: {:?}",
            String::from_utf8_lossy(damaged)
        );
    }
    let mut cursor = Cursor::new(&text);
    Request::read_json(&mut cursor).is_some() && cursor.at_end()
}

/// The ack of every outcome, with awkward numbers.
fn ack(rng: &mut DetRng, case: u64) -> Json {
    let job = JobId::from_value(id(rng));
    let node = NodeId::from_index(rng.next_u64() as u32 as usize);
    let outcome = match case % 7 {
        0 => CommandOutcome::Submitted { job },
        1 => CommandOutcome::Cancelled {
            job,
            applied: below(rng, 2) == 0,
        },
        2 => CommandOutcome::Reserved,
        3 => CommandOutcome::NodeFaulted {
            node,
            jobs: vec![job; below(rng, 3) as usize],
        },
        4 => CommandOutcome::Drained { node },
        5 => CommandOutcome::Undrained { node },
        _ => CommandOutcome::Advanced {
            now_secs: pick(rng, FLOATS),
        },
    };
    outcome.to_json(id(rng), pick(rng, FLOATS))
}

/// The conversation's envelopes around every command kind and every
/// query kind, and the replies around acks, answers and refusals: each
/// writer streams the parent's tree text, framed, and each reader reads
/// it back as the tree reader does.
#[test]
fn the_conversation_keeps_its_codecs_in_agreement() {
    let rng = &mut DetRng::seed_from_u64(0xC0_4E45);
    let envelope = |member: &str, value: Json| obj(vec![("v", Json::Num(1.0)), (member, value)]);
    let hello = envelope("hello", Json::Bool(true));
    assert!(assert_request_agrees(
        "hello",
        Request::frame_hello,
        &hello,
        &Request::Hello,
        rng
    ));
    let mut straight = 0;
    for case in 0..1_400u64 {
        let agreed = if case % 2 == 0 {
            let command = command(rng, case / 2);
            let tree = envelope("mutate", command.to_json());
            let write = |buf: &mut Vec<u8>| Request::frame_mutate(buf, &command);
            let request = Request::Mutate(command.clone());
            assert_request_agrees(&format!("mutate case {case}"), write, &tree, &request, rng)
        } else {
            let query = query(rng, case / 2);
            let tree = envelope("query", query.to_json());
            let (kind, job) = (query.kind(), query.job().map(JobId::value));
            let write = |buf: &mut Vec<u8>| Request::frame_query(buf, kind, job);
            let request = Request::Query(query);
            assert_request_agrees(&format!("query case {case}"), write, &tree, &request, rng)
        };
        straight += u64::from(agreed);
    }
    // Every query, and every command without an escaped name.
    assert!(straight >= 1_000, "{straight} of 1,400 read without a tree");

    for case in 0..600u64 {
        let (reply, tree) = match case % 3 {
            0 => {
                let ack = ack(rng, case / 3);
                (Reply::Ok(ack.clone()), obj(vec![("ok", ack)]))
            }
            1 => {
                let answer = Json::Arr(vec![Json::Str(name(rng)), Json::Num(pick(rng, FLOATS))]);
                (Reply::Ok(answer.clone()), obj(vec![("ok", answer)]))
            }
            _ => {
                let (kind, message) = (name(rng), name(rng));
                let err = obj(vec![
                    ("kind", kind.clone().into()),
                    ("message", message.clone().into()),
                ]);
                (Reply::Err { kind, message }, obj(vec![("err", err)]))
            }
        };
        let text = tree.to_string();
        assert_frames_text(&format!("reply case {case}"), |buf| reply.frame(buf), &text);
        // What the client reads is the text's tree: a non-finite number
        // is printed as a string, and read back as one.
        let read_back = match &reply {
            Reply::Ok(_) => Reply::Ok(
                wire::parse(&text)
                    .expect("JSON")
                    .get("ok")
                    .cloned()
                    .expect("ok"),
            ),
            Reply::Err { .. } => reply.clone(),
        };
        assert_eq!(
            Reply::read(text.as_bytes()),
            Ok(read_back),
            "reply case {case}: {text}"
        );
    }
}

/// Bus records of every event variant, with hostile free text and
/// non-finite floats.
#[test]
fn event_records_keep_their_codecs_in_agreement() {
    sweep("event", 0xE7E47, 1_100, 300, |rng, case| {
        let job = JobId::from_value(id(rng));
        let group = GroupId::from_index(below(rng, 1 << 32) as usize);
        let event = match case % 11 {
            0 => PlatformEvent::Submitted {
                job,
                group,
                name: name(rng).into(),
            },
            1 => PlatformEvent::Compiled {
                job,
                instruction: pick(rng, &InstructionKind::ALL),
                payload_mb: pick(rng, FLOATS),
                transferred_mb: pick(rng, FLOATS),
                chunk_hits: id(rng),
                chunk_misses: id(rng),
                provisioning_secs: pick(rng, FLOATS),
            },
            2 => PlatformEvent::Rejected {
                job,
                reason: pick(rng, &RejectReason::ALL),
            },
            3 => PlatformEvent::Queued { job },
            4 => PlatformEvent::Placed {
                job,
                nodes: id(rng),
                runtime: pick(rng, &RuntimePreference::ALL),
                slowdown: pick(rng, FLOATS),
                granted_workers: id(rng),
                requested_workers: id(rng),
                backfilled: below(rng, 2) == 0,
            },
            5 => PlatformEvent::Preempted {
                job,
                reclaimed_for: group,
            },
            6 => PlatformEvent::Completed {
                job,
                jct_secs: pick(rng, FLOATS),
            },
            7 => PlatformEvent::FailedOver {
                job,
                node: name(rng),
                fallback: pick(rng, &RuntimePreference::ALL),
            },
            8 => PlatformEvent::Failed {
                job,
                node: name(rng),
            },
            9 => PlatformEvent::Cancelled { job },
            _ => PlatformEvent::IllegalTransition {
                job,
                from: pick(rng, &JobState::ALL),
                event: pick(rng, &JobEventKind::ALL),
            },
        };
        EventRecord {
            seq: id(rng),
            at_secs: pick(rng, FLOATS),
            event,
        }
    });
}

/// Transition-log lines: any state pair, any event kind, any time.
#[test]
fn transitions_keep_their_codecs_in_agreement() {
    sweep("transition", 0x7A45, 500, 350, |rng, _| TransitionEvent {
        at_secs: pick(rng, FLOATS),
        job: JobId::from_value(id(rng)),
        from: pick(rng, &JobState::ALL),
        to: pick(rng, &JobState::ALL),
        event: pick(rng, &JobEventKind::ALL),
    });
}
