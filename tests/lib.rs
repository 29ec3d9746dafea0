//! Workspace integration tests for `tacc-rs`.
//!
//! The actual tests live in `tests/tests/*.rs`; this library only hosts
//! shared helpers.

#![forbid(unsafe_code)]

use tacc_cluster::ResourceVec;
use tacc_core::{Command, PlatformConfig};
use tacc_sim::DetRng;
use tacc_workload::{GenParams, GroupId, JobId, TaskSchema, Trace, TraceGenerator};

/// A uniform draw from `0..n`, for the seeded property sweeps: each case
/// draws everything from a `DetRng` seeded with the case number, which
/// every assertion names — a failing case number is the reproducer.
pub fn below(rng: &mut DetRng, n: u64) -> u64 {
    rng.next_u64() % n
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
