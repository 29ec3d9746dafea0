//! The replay workloads: a generated trace carried through a fresh
//! `Platform`, stepped the way an `Advance` command steps the daemon.
//!
//! * `replay-light` is under capacity: queues stay short, so the event
//!   wheel, lifecycle, compiler cache, exec model, obs bus and the report
//!   fold do the work and the scheduler does little.
//! * `replay-contended` is over capacity under quota borrowing: the round
//!   walk, skip ledger, slot planner and reclaim do most of the work.

use std::time::Instant;

use tacc_compiler::Compiler;
use tacc_core::wire::{self, Json};
use tacc_core::{Platform, PlatformConfig};
use tacc_sched::{QuotaMode, WorkCounters};
use tacc_sim::{EventQueue, SimDuration, SimTime};
use tacc_workload::Trace;

use crate::inputs::{self, TRACE_SEED};
use crate::laps::{Lap, Workload};
use crate::metrics::Layers;
use crate::spans::Recorder;
use crate::stats::fnv1a;
use crate::sys::cpu_seconds;

/// How much work a lap is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplaySize {
    pub load: f64,
    pub days: f64,
    pub step_secs: f64,
    pub quota: QuotaMode,
    /// `None`: every lap replays a fresh trace generated from its sub-seed.
    /// `Some(j)`: every lap replays the `TRACE_SEED` trace, from lap 2 on
    /// with each arrival moved by up to `j` seconds either way, drawn from
    /// the sub-seed — the same demand, interleaved differently.
    pub jitter_secs: Option<f64>,
}

pub const LIGHT: ReplaySize = ReplaySize {
    load: 1.0,
    days: 120.0,
    step_secs: 86_400.0,
    quota: QuotaMode::Disabled,
    jitter_secs: None,
};

pub const CONTENDED: ReplaySize = ReplaySize {
    load: 5.0,
    days: 3.0,
    step_secs: 7_200.0,
    quota: QuotaMode::Borrowing,
    jitter_secs: Some(3_600.0),
};

/// The scenario of `BENCH_hotpath.json` that lap 0 of `replay-contended`
/// replays. Its counters are read from the checkout at run time, not copied:
/// the repository re-blesses that file with any change that moves a counter,
/// and the benchmark must then agree with the new figures, not the old.
const COMMITTED_SCENARIO: &str = "contended-borrowing";
const COMMITTED_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_hotpath.json");

/// The committed scenario's object, or why there is none.
fn committed_scenario() -> Result<Json, String> {
    let text = std::fs::read_to_string(COMMITTED_FILE).map_err(|e| e.to_string())?;
    let file = wire::parse(&text).map_err(|e| e.to_string())?;
    file.get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|all| {
            all.iter()
                .find(|s| s.get("id").and_then(Json::as_str) == Some(COMMITTED_SCENARIO))
        })
        .cloned()
        .ok_or_else(|| format!("no scenario `{COMMITTED_SCENARIO}`"))
}

fn committed_view(jobs: usize, rounds: u64, c: &WorkCounters) -> [(&'static str, u64); 19] {
    [
        ("jobs", jobs as u64),
        ("rounds", rounds),
        ("empty_rounds", c.empty_rounds),
        ("queue_sorts", c.queue_sorts),
        ("queue_sorts_skipped", c.queue_sorts_skipped),
        ("skip_records", c.skip_records),
        ("skip_suppressions", c.skip_suppressions),
        ("placement_attempts", c.plan.attempts),
        ("node_scans", c.plan.nodes_scanned),
        ("fastpath_rejects", c.plan.fastpath_rejects),
        ("slot_splits", c.slots.splits),
        ("slot_intersections", c.slots.intersections),
        ("slot_rebuilds", c.slots.rebuilds),
        ("arena_alloc", c.arena_alloc),
        ("arena_reuse", c.arena_reuse),
        ("free_index_updates", c.free_index_updates),
        ("free_index_probes", c.plan.free_index_probes),
        ("wheel_insert", c.wheel_insert),
        ("wheel_cascade", c.wheel_cascade),
    ]
}

/// What lap 0's plain `run_trace` left behind, for lap 1 to reproduce.
#[derive(Debug, PartialEq)]
struct Reference {
    counters: WorkCounters,
    rounds: u64,
    transitions_hash: u64,
}

#[derive(Debug)]
pub struct Replay {
    size: ReplaySize,
    seed: u64,
    reference: Option<Reference>,
    /// Timed lap 1's trace, kept on a traced run for the probes.
    first_trace: Option<Trace>,
}

impl Replay {
    pub fn new(size: ReplaySize, seed: u64) -> Replay {
        Replay {
            size,
            seed,
            reference: None,
            first_trace: None,
        }
    }

    fn config(&self) -> PlatformConfig {
        let mut config = PlatformConfig::default();
        config.scheduler.quota = self.size.quota;
        config
    }

    /// Laps 0 and 1 share a trace (lap 1 must reproduce lap 0); fresh
    /// sub-seeds start at lap 2.
    fn trace(&self, lap: u32) -> Trace {
        let ReplaySize { load, days, .. } = self.size;
        let sub_seed = inputs::sub_seed(self.seed, lap.max(1));
        match self.size.jitter_secs {
            None => inputs::trace(load, days, sub_seed),
            Some(_) if lap <= 1 => inputs::trace(load, days, TRACE_SEED),
            Some(jitter_secs) => inputs::jittered(
                &inputs::trace(load, days, TRACE_SEED),
                jitter_secs,
                sub_seed,
            ),
        }
    }
}

/// Steps the loaded platform to idle; returns one latency sample per step.
fn step_to_idle(
    platform: &mut Platform,
    horizon_secs: f64,
    step_secs: f64,
    rec: &mut Recorder,
) -> Vec<f64> {
    // A queue that never drains would loop forever; the jobs left behind
    // then show up as failed operations.
    let max_steps = (horizon_secs / step_secs).ceil() as usize * 50 + 50;
    let mut samples = Vec::new();
    let mut until = SimTime::ZERO;
    while samples.len() < max_steps {
        let scheduler = platform.scheduler();
        if until.as_secs() >= horizon_secs && scheduler.queue_len() + scheduler.running_len() == 0 {
            break;
        }
        until += SimDuration::from_secs(step_secs);
        let start = Instant::now();
        platform.run_until(until);
        let end = Instant::now();
        samples.push((end - start).as_secs_f64() * 1e3);
        rec.leaf("core.run_until", start, end);
    }
    platform.run_until_idle();
    samples
}

/// Lifecycle, event and span conservation of a finished replay; `Err` says
/// which law broke.
fn conservation(platform: &Platform, jobs: usize) -> Result<(), String> {
    let bus = platform.events();
    let count = |kind: &str| bus.kind_count(kind);
    let terminal = count("completed") + count("failed") + count("cancelled") + count("rejected");
    if count("submitted") != jobs as u64 || terminal != jobs as u64 {
        return Err(format!(
            "event bus counted {} submitted and {terminal} terminal for {jobs} jobs",
            count("submitted")
        ));
    }
    if platform.illegal_transitions() != 0 {
        return Err(format!(
            "{} illegal transitions",
            platform.illegal_transitions()
        ));
    }
    tacc_obs::span_conservation(platform.span_book(), platform.span_horizon())
}

impl Workload for Replay {
    fn lap(&mut self, lap: u32, rec: &mut Recorder) -> Result<Lap, String> {
        let setup_start = Instant::now();
        let trace = rec.span("workload.generate", |_| self.trace(lap));
        let mut platform = rec.span("core.platform_new", |_| Platform::new(self.config()));
        let setup_s = setup_start.elapsed().as_secs_f64();

        let cpu_start = cpu_seconds();
        let timed_start = Instant::now();
        let (report, samples_ms) = if lap == 0 {
            (platform.run_trace(&trace), Vec::new())
        } else {
            rec.span("core.load_trace", |_| platform.load_trace(&trace));
            let samples = rec.span("core.run", |rec| {
                step_to_idle(
                    &mut platform,
                    trace.horizon_secs(),
                    self.size.step_secs,
                    rec,
                )
            });
            (rec.span("obs.report", |_| platform.report()), samples)
        };
        let timed_s = timed_start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_start;

        let jobs = trace.len();
        let terminal = report.completed as u64 + report.failed + report.cancelled + report.rejected;
        let mut wrong = rec.span("check", |_| {
            if report.submitted != jobs {
                return Some(format!("{} of {jobs} jobs submitted", report.submitted));
            }
            conservation(&platform, jobs).err()
        });

        if lap <= 1 {
            let log = rec.span("obs.transitions_export", |_| {
                platform.transition_log_jsonl()
            });
            let seen = Reference {
                counters: platform.work_counters(),
                rounds: platform.scheduler().rounds(),
                transitions_hash: fnv1a(log.as_bytes()),
            };
            if lap == 0 {
                if self.size == CONTENDED && wrong.is_none() {
                    wrong = match committed_scenario() {
                        Ok(committed) => committed_mismatch(&committed, jobs, &seen),
                        Err(why) => Some(format!("{COMMITTED_FILE}: {why}")),
                    };
                }
                self.reference = Some(seen);
            } else if self.reference.as_ref() != Some(&seen) && wrong.is_none() {
                wrong = Some(format!(
                    "stepped replay diverged from run_trace: {seen:?} vs {:?}",
                    self.reference
                ));
            }
        }

        let mut layers = Layers::default();
        if rec.enabled() {
            platform_layers(&platform, timed_s, &mut layers);
            layers.set("workload.jobs", jobs as f64);
        }
        if lap == 1 && rec.enabled() {
            self.first_trace = Some(trace);
        }
        Ok(Lap {
            setup_s: Some(setup_s),
            timed_s,
            cpu_s,
            attempted: jobs as u64,
            ops: terminal.min(jobs as u64),
            failed: (jobs as u64).saturating_sub(terminal),
            samples_ms,
            wrong,
            layers,
        })
    }

    fn limit_ms(&self) -> f64 {
        250.0
    }

    fn probes(&mut self, _first: &Lap, rec: &mut Recorder) -> Result<(Layers, f64), String> {
        let trace = self.first_trace.as_ref().ok_or("lap 1 kept no trace")?;
        let mut out = Layers::default();
        let queue_s = rec.span("probe.sim.queue", |_| queue_probe(trace));
        let compile_s = rec.span("probe.compiler.compile", |_| {
            compile_probe(trace, self.config())
        })?;
        out.set(
            "sim.queue_probe_ns",
            queue_s * 1e9 / (2 * trace.len()) as f64,
        );
        out.set(
            "compiler.compile_probe_us",
            compile_s * 1e6 / trace.len() as f64,
        );
        Ok((out, queue_s + compile_s))
    }
}

/// Where this replay's counters differ from the committed scenario's.
fn committed_mismatch(committed: &Json, jobs: usize, seen: &Reference) -> Option<String> {
    committed_view(jobs, seen.rounds, &seen.counters)
        .iter()
        .find_map(|(name, value)| {
            let want = committed.get(name).and_then(Json::as_u64);
            (want != Some(*value))
                .then(|| format!("BENCH_hotpath.json has {name} = {want:?}, this replay {value}"))
        })
}

/// The counters a `Platform` exports, as per-layer metrics. `wall_s` is the
/// time the platform's work took, for the scheduler's share of it.
pub fn platform_layers(platform: &Platform, wall_s: f64, out: &mut Layers) {
    let c = platform.work_counters();
    let metrics = platform.metrics();
    let round_busy_s = metrics
        .histogram("tacc_sched_round_latency_seconds")
        .map_or(0.0, |h| h.sum);
    let scheduler = platform.scheduler();
    out.set("sim.wheel_inserts", c.wheel_insert as f64);
    out.set("sim.wheel_cascades", c.wheel_cascade as f64);
    out.set("sched.rounds", scheduler.rounds() as f64);
    out.set("sched.round_busy_s", round_busy_s);
    out.set("sched.round_share", round_busy_s / wall_s);
    out.set("sched.skip_suppressions", c.skip_suppressions as f64);
    out.set("sched.placement_attempts", c.plan.attempts as f64);
    out.set("sched.fastpath_rejects", c.plan.fastpath_rejects as f64);
    out.set("sched.slot_intersections", c.slots.intersections as f64);
    out.set("sched.queue_sorts", c.queue_sorts as f64);
    out.set("sched.preemptions", scheduler.preemption_count() as f64);
    out.set("sched.backfill_starts", scheduler.backfill_starts() as f64);
    out.set("cluster.free_index_updates", c.free_index_updates as f64);
    out.set("cluster.free_index_probes", c.plan.free_index_probes as f64);
    out.set(
        "compiler.compilations",
        platform.compiler().compilations() as f64,
    );
    out.set(
        "compiler.cache_hit_rate",
        platform.compiler().cache().stats().hit_rate(),
    );
    out.set(
        "exec.plans",
        metrics.counter("tacc_exec_plans_total").unwrap_or(0) as f64,
    );
    out.set("obs.events_recorded", platform.events().recorded() as f64);
    out.set("obs.events_dropped", platform.events().dropped() as f64);
    out.set("core.arena_alloc", c.arena_alloc as f64);
    out.set("core.arena_reuse", c.arena_reuse as f64);
}

/// `EventQueue::schedule` + `pop` alone over the lap's event times: every
/// submission, and for each a completion `service_secs` later, scheduled
/// when its submission pops. Returns the seconds all of it took.
fn queue_probe(trace: &Trace) -> f64 {
    let records = trace.records();
    let start = Instant::now();
    let mut queue: EventQueue<usize> = EventQueue::new();
    for (i, record) in records.iter().enumerate() {
        queue.schedule(SimTime::from_secs(record.submit_secs), i);
    }
    let mut popped = 0usize;
    while let Some((at, i)) = queue.pop() {
        popped += 1;
        if i < records.len() {
            let done = at + SimDuration::from_secs(records[i].service_secs);
            queue.schedule(done, i + records.len());
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(std::hint::black_box(popped), 2 * records.len());
    elapsed
}

/// `Compiler::compile` alone over the lap's schemas, in submission order
/// (so the delta cache sees the sharing the platform sees).
fn compile_probe(trace: &Trace, config: PlatformConfig) -> Result<f64, String> {
    let mut compiler = Compiler::new(config.compiler);
    let start = Instant::now();
    for record in trace.records() {
        let compiled = compiler
            .compile(&record.schema)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(compiled);
    }
    Ok(start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(counters: WorkCounters) -> Reference {
        Reference {
            counters,
            rounds: 7,
            transitions_hash: 0,
        }
    }

    #[test]
    fn a_replay_is_compared_with_the_committed_scenario_counter_by_counter() {
        let counters = WorkCounters {
            skip_suppressions: 11,
            wheel_cascade: 3,
            ..WorkCounters::default()
        };
        let fields = committed_view(5, 7, &counters)
            .iter()
            .map(|(name, value)| ((*name).to_owned(), Json::Num(*value as f64)))
            .collect();
        let committed = Json::Obj(fields);
        assert_eq!(committed_mismatch(&committed, 5, &seen(counters)), None);

        let why = committed_mismatch(&committed, 6, &seen(counters)).expect("another trace");
        assert!(why.contains("jobs"), "{why}");
        let moved = WorkCounters {
            skip_suppressions: 12,
            ..counters
        };
        let why = committed_mismatch(&committed, 5, &seen(moved)).expect("a counter moved");
        assert!(why.contains("skip_suppressions"), "{why}");
        // A scenario that lacks a counter does not pass for one that has it.
        assert!(committed_mismatch(&Json::Obj(Vec::new()), 5, &seen(counters)).is_some());
    }

    #[test]
    fn the_checkout_commits_every_counter_lap_0_is_held_to() {
        let committed = committed_scenario().expect("BENCH_hotpath.json has the scenario");
        for (name, _) in committed_view(0, 0, &WorkCounters::default()) {
            assert!(
                committed.get(name).and_then(Json::as_u64).is_some(),
                "{name}"
            );
        }
    }
}
