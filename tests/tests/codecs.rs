//! Every declared record shape keeps its codecs in agreement. Seeded
//! values of each shape — under names and numbers chosen to be awkward
//! for an escaper, a number printer and a tree-free reader — go through
//! `tacc_tests::assert_codecs_agree`: stream text equals tree text, the
//! text reads back as the value, and the tree-free reader reads what the
//! tree reader reads on that text and on damaged copies of it.
//!
//! Every case draws from one `DetRng` per shape; a failure names its case
//! number.

use std::sync::Arc;

use tacc_cluster::ResourceVec;
use tacc_core::{Command, CommandRecord, Query};
use tacc_obs::{EventRecord, InstructionKind, PlatformEvent, RejectReason, TransitionEvent};
use tacc_sim::DetRng;
use tacc_tests::{assert_codecs_agree, below};
use tacc_workload::{
    GroupId, JobEventKind, JobId, JobState, ModelProfile, QosClass, RuntimeEnv, RuntimePreference,
    TaskKind, TaskSchema, TraceRecord,
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
    let pair = (name(rng), below(rng, 1 << 20) as u32);
    TaskSchema {
        name: name(rng),
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
            image: pick(rng, NAMES).to_owned(),
            dependencies: vec![pair.clone(); below(rng, 3) as usize],
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
            image: "pytorch-2.1-cuda12".to_owned(),
            dependencies: vec![("torch".to_owned(), 800)],
            dataset: Some(("imagenet".to_owned(), 5000)),
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

/// Every query kind, per-job ones about any job.
#[test]
fn queries_keep_their_codecs_in_agreement() {
    sweep("query", 0x9E41, 280, 280, |rng, case| {
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
    });
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
                name: name(rng),
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
