//! Workspace integration tests for `tacc-rs`.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! shared helpers.

#![forbid(unsafe_code)]

use std::fmt::Debug;

use tacc_cluster::ResourceVec;
use tacc_core::{Command, PlatformConfig};
use tacc_json::{Cursor, Field};
use tacc_sim::DetRng;
use tacc_workload::{GenParams, GroupId, JobId, TaskSchema, Trace, TraceGenerator};

/// A uniform draw from `0..n`, for the seeded property sweeps: each case
/// draws everything from a `DetRng` seeded with the case number, which
/// every assertion names — a failing case number is the reproducer.
pub fn below(rng: &mut DetRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Holds the four codecs a `record!` declaration generates to one another
/// on `value`:
/// - the stream writer writes what the tree writer prints, into a string
///   and into a byte buffer alike;
/// - that text reads back as `value`;
/// - on that text, and on copies of it cut short, with a byte dropped or
///   with a byte swapped for one that means something in JSON, the
///   tree-free reader (falling back to the tree) reads what the tree
///   reader reads.
///
/// `case` names the value in every failure. Returns whether the tree-free
/// reader read the whole text by itself.
pub fn assert_codecs_agree<T: Field + Debug>(case: &str, value: &T, rng: &mut DetRng) -> bool {
    let mut text = String::new();
    value.write(&mut text);
    assert_eq!(text, value.to_tree().to_string(), "{case}: stream vs tree");
    let mut bytes = Vec::new();
    value.write(&mut bytes);
    assert_eq!(bytes, text.as_bytes(), "{case}: byte sink");
    // Debug text, so that a NaN reads back equal to itself.
    let read = |text: &str| format!("{:?}", tacc_json::from_text::<T>(text));
    let tree = |text: &str| {
        let parsed = tacc_json::parse(text).map_err(|e| e.to_string());
        format!("{:?}", parsed.and_then(|v| T::from_tree(Some(&v), "")))
    };
    let written: Result<&T, String> = Ok(value);
    assert_eq!(read(&text), format!("{written:?}"), "{case}: {text}");
    const SWAPS: &[u8] = b"0123456789.-+eE\"\\,:{}[] ntfalsu";
    let at = below(rng, bytes.len() as u64) as usize;
    let mut swapped = bytes.clone();
    swapped[at] = SWAPS[below(rng, SWAPS.len() as u64) as usize];
    let mut dropped = bytes.clone();
    dropped.remove(at);
    for damaged in [&bytes[..], &bytes[..at], &swapped, &dropped] {
        if let Ok(text) = std::str::from_utf8(damaged) {
            assert_eq!(read(text), tree(text), "{case}: {text}");
        }
    }
    let mut cursor = Cursor::new(&text);
    T::read(&mut cursor).is_some() && cursor.at_end()
}

/// A small, fast canonical trace for integration tests.
pub fn small_trace(seed: u64, days: f64, load: f64) -> Trace {
    TraceGenerator::new(GenParams::default().with_load_factor(load), seed).generate_days(days)
}

/// The default 256-GPU platform with one field tweaked by the caller.
pub fn config_with(customize: impl FnOnce(&mut PlatformConfig)) -> PlatformConfig {
    let mut config = PlatformConfig::default();
    customize(&mut config);
    config
}

/// One step of the seeded `tcloud` session script.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionStep {
    /// A verb that stands for a command.
    Apply(Command),
    /// The session verb `wait <job>`.
    Wait(JobId),
}

/// Draws step `seq` of a mixed session against the default 32-node
/// platform: submissions, advances, cancels and waits (one past the
/// newest of `jobs` ids — an unknown job now and then), reservations
/// from `now_secs` on, drains, undrains and faults (node 32 or 33 of 32 —
/// an unknown node now and then).
pub fn session_step(rng: &mut DetRng, seq: u64, jobs: u64, now_secs: f64) -> SessionStep {
    SessionStep::Apply(match below(rng, 15) {
        0..=3 => {
            let group = GroupId::from_index(below(rng, 8) as usize);
            let mut schema = TaskSchema::builder(&format!("session-{seq}"), group)
                .workers(1 + below(rng, 4) as u32)
                .resources(ResourceVec::gpus_only(8))
                .est_duration_secs(3600.0)
                .build()
                .expect("valid");
            // Nothing to transfer once the image is cached, so a
            // zero-latency compiler really provisions in zero time.
            schema.env.code_mb = 0;
            Command::Submit {
                schema: schema.into(),
                service_secs: 600.0 + below(rng, 7200) as f64,
            }
        }
        4..=6 => Command::Advance {
            secs: below(rng, 1800) as f64,
        },
        7..=8 => Command::Cancel {
            job: JobId::from_value(below(rng, jobs + 1)),
        },
        9 => {
            // A whole second, so the verb's `<start> <duration>` adds up
            // to exactly this `until_secs`.
            let from_secs = now_secs.ceil() + below(rng, 3600) as f64;
            Command::Reserve {
                gpus: 8 * (1 + below(rng, 8) as u32),
                from_secs,
                until_secs: from_secs + 600.0 + below(rng, 3600) as f64,
            }
        }
        10 => Command::Drain {
            node: below(rng, 34) as u32,
        },
        11 => Command::Undrain {
            node: below(rng, 34) as u32,
        },
        12 => Command::FaultNode {
            node: below(rng, 34) as u32,
        },
        _ => return SessionStep::Wait(JobId::from_value(below(rng, jobs + 1))),
    })
}

/// The `tcloud` command line that stands for `step`; every number reads
/// back from its text as the same value.
pub fn session_argv(step: &SessionStep) -> Vec<String> {
    let argv = |verb: &str, args: &[&dyn std::fmt::Display]| {
        let args = args.iter().map(ToString::to_string);
        std::iter::once(verb.to_owned()).chain(args).collect()
    };
    match step {
        SessionStep::Wait(job) => argv("wait", &[&job.value()]),
        SessionStep::Apply(command) => match command {
            Command::Submit {
                schema,
                service_secs,
            } => argv("submit", &[&schema.to_json(), &"--service", service_secs]),
            Command::Cancel { job } => argv("cancel", &[&job.value()]),
            Command::Reserve {
                gpus,
                from_secs,
                until_secs,
            } => argv("reserve", &[gpus, from_secs, &(until_secs - from_secs)]),
            Command::FaultNode { node } => argv("fault", &[node]),
            Command::Drain { node } => argv("drain", &[node]),
            Command::Undrain { node } => argv("undrain", &[node]),
            Command::Advance { secs } => argv("advance", &[secs]),
        },
    }
}
