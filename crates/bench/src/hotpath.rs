//! The scheduler hot-path perf harness behind the `perf` binary.
//!
//! Wall-clock benchmarks do not regress-gate well on shared CI runners, so
//! this harness leans on the scheduler's deterministic [`WorkCounters`]:
//! counts of algorithmic work (queue sorts performed and skipped,
//! placement attempts, node scans, O(1) fast-path rejects) that are
//! byte-identical across runs of the same scenario. CI runs every scenario
//! twice and gates on exact counter equality; wall time is recorded
//! alongside as informational context only.
//!
//! Each scenario replays a canonical trace through a full [`Platform`]
//! configured to stress one hot-path regime:
//!
//! * `contended-borrowing` — heavy load under quota borrowing, the
//!   reclaim/preemption-dominated regime of experiment F5;
//! * `fair-share` — usage-keyed queue ordering, where sort-skipping depends
//!   on the quota ledger's epoch (experiment F3's fair regime);
//! * `conservative-backfill` — per-blocked-job reservations, the
//!   reservation-heavy regime of experiment F4;
//! * `multi-factor` — the always-re-sort policy, the worst case for the
//!   sort-skip optimization;
//! * `maintenance-window` — conservative backfill with planned capacity
//!   windows, stressing the reservation sweep's window steps.
//!
//! `slot_intersections` counts the releases the reservation sweep read
//! off the running set; `slot_splits` and `slot_rebuilds`, named for the
//! slot timeline the sweep replaced, are always 0. `walk_examined` counts the
//! queued entries whose gates a round's walk ran — the others kept their
//! verdict because nothing they wait on had moved, and are among
//! `skip_suppressions` (every entry a walk passed whose verdict stood):
//! pinned exactly, so the fast path cannot stop firing without the gate
//! turning red. The reclaim pre-check counts no planner work: it sums
//! per-node copy counts instead of planning, so `placement_attempts`,
//! `node_scans` and `fastpath_rejects` count only plans tried on the real
//! cluster.

use std::time::Instant;

use crate::{campus_config, standard_trace};
use tacc_core::{Platform, PlatformConfig};
use tacc_json::{obj, Json};
use tacc_sched::{BackfillMode, CapacityWindow, PolicyKind, QuotaMode, WorkCounters};

/// One hot-path scenario: a named platform configuration replayed over a
/// canonical trace.
pub struct Scenario {
    /// Stable identifier (used in `BENCH_hotpath.json` and `--only`).
    pub id: &'static str,
    /// One-line description of the regime the scenario stresses.
    pub title: &'static str,
    /// Trace length in days.
    pub days: f64,
    /// Trace load factor.
    pub load: f64,
    /// Platform configuration for the run.
    pub configure: fn() -> PlatformConfig,
}

/// Every scenario, in report order.
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        id: "contended-borrowing",
        title: "reclaim-heavy borrowing under heavy load (F5 regime)",
        days: 3.0,
        load: 5.0,
        configure: || campus_config(|c| c.scheduler.quota = QuotaMode::Borrowing),
    },
    Scenario {
        id: "fair-share",
        title: "usage-keyed fair-share ordering (F3 fair regime)",
        days: 3.0,
        load: 3.0,
        configure: || campus_config(|c| c.scheduler.policy = PolicyKind::FairShare),
    },
    Scenario {
        id: "conservative-backfill",
        title: "reservation-per-blocked-job backfill (F4 regime)",
        days: 3.0,
        load: 3.0,
        configure: || campus_config(|c| c.scheduler.backfill = BackfillMode::Conservative),
    },
    Scenario {
        id: "multi-factor",
        title: "always-re-sort multi-factor policy (sort-skip worst case)",
        days: 3.0,
        load: 2.0,
        configure: || campus_config(|c| c.scheduler.policy = PolicyKind::MultiFactor),
    },
    Scenario {
        id: "maintenance-window",
        title: "conservative backfill under planned capacity windows",
        days: 3.0,
        load: 3.0,
        configure: || {
            campus_config(|c| {
                c.scheduler.backfill = BackfillMode::Conservative;
                // Two planned drains of the 256-GPU campus cluster: a
                // quarter held back during day-1 daytime, half during
                // day-2 daytime — reservation shadows must route around
                // both edges.
                c.scheduler.capacity_windows = vec![
                    CapacityWindow {
                        gpus: 64,
                        from_secs: 43_200.0,
                        until_secs: 86_400.0,
                    },
                    CapacityWindow {
                        gpus: 128,
                        from_secs: 129_600.0,
                        until_secs: 172_800.0,
                    },
                ];
            })
        },
    },
];

/// Long-running scenarios gated to the nightly tier (`perf --nightly`):
/// too slow for every push, still fully deterministic and `--expect`
/// gated against the committed report.
pub static NIGHTLY_SCENARIOS: &[Scenario] = &[Scenario {
    id: "million-jobs",
    title: "million-job replay: arenas + placement scan + event queue at 10^6 scale",
    // Sized for throughput, not saturation: the default mix offers about
    // 0.46× the 256-GPU capacity per load unit, so load 2 runs the
    // cluster at ~92% utilization with a queue that still drains —
    // ~2.4 simulated years of sustained service reach seven figures of
    // jobs without the unbounded backlog (and quadratic round walks) an
    // over-capacity load factor would produce.
    days: 890.0,
    load: 2.0,
    configure: || {
        campus_config(|c| {
            // ~1M jobs emit a handful of events each; raise the runaway
            // valve well clear of the legitimate total.
            c.max_events = 100_000_000;
        })
    },
}];

/// Looks up a scenario by id across the fast and nightly tiers.
pub fn find_scenario(id: &str) -> Option<&'static Scenario> {
    SCENARIOS
        .iter()
        .chain(NIGHTLY_SCENARIOS.iter())
        .find(|s| s.id == id)
}

/// The result of one scenario run: deterministic counters plus
/// informational wall time.
pub struct ScenarioOutcome {
    /// The scenario's [`Scenario::id`].
    pub id: &'static str,
    /// Jobs in the replayed trace (deterministic for a given scenario).
    pub jobs: u64,
    /// Scheduler rounds executed.
    pub rounds: u64,
    /// The deterministic work counters after the replay.
    pub counters: WorkCounters,
    /// Wall-clock of the replay, seconds (informational; never gated).
    pub wall_secs: f64,
}

/// Runs one scenario to completion.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let trace = standard_trace(scenario.days, scenario.load);
    let mut platform = Platform::new((scenario.configure)());
    // tacc-lint: allow(wall-clock, reason = "informational wall time reported next to the deterministic counters; never compared or gated")
    let start = Instant::now();
    let _ = platform.run_trace(&trace);
    let wall_secs = start.elapsed().as_secs_f64();
    ScenarioOutcome {
        id: scenario.id,
        jobs: trace.len() as u64,
        rounds: platform.scheduler().rounds(),
        counters: platform.work_counters(),
        wall_secs,
    }
}

/// The deterministic portion of an outcome as JSON — exactly the bytes the
/// CI gate compares across runs (no wall time).
pub fn counters_json(outcome: &ScenarioOutcome) -> Json {
    obj(counter_fields(outcome))
}

fn counter_fields(outcome: &ScenarioOutcome) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("id", outcome.id.into()),
        ("jobs", c_num(outcome.jobs)),
        ("rounds", c_num(outcome.rounds)),
    ];
    fields.extend(
        WorkCounters::TABLE
            .iter()
            .map(|row| (row.key, c_num((row.get)(&outcome.counters)))),
    );
    fields
}

/// Full report document for `BENCH_hotpath.json`: per-scenario counters
/// and wall times.
pub fn report_json(outcomes: &[ScenarioOutcome]) -> Json {
    let scenarios = outcomes
        .iter()
        .map(|o| {
            let mut fields = counter_fields(o);
            fields.push(("wall_secs_informational", Json::num(o.wall_secs)));
            obj(fields)
        })
        .collect();
    obj(vec![
        (
            "note",
            Json::Str(
                "counters are deterministic and CI-gated on exact equality; wall times are informational".to_owned(),
            ),
        ),
        ("scenarios", Json::Arr(scenarios)),
    ])
}

/// Compares fresh scenario counters against a committed report document
/// (the `--expect` gate). Returns the first mismatch as
/// `(scenario_id, detail)` — key order and extra committed fields (wall
/// times) are ignored; every fresh counter must be present and exactly
/// equal.
pub fn compare_with_report(
    expected: &Json,
    outcomes: &[ScenarioOutcome],
) -> Result<(), (String, String)> {
    let committed = expected
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or_else(|| {
            (
                String::new(),
                "expected report has no `scenarios` array".to_owned(),
            )
        })?;
    for outcome in outcomes {
        let entry = committed
            .iter()
            .find(|s| s.get("id").and_then(Json::as_str) == Some(outcome.id))
            .ok_or_else(|| {
                (
                    outcome.id.to_owned(),
                    format!(
                        "scenario `{}` missing from the committed report",
                        outcome.id
                    ),
                )
            })?;
        let fresh = counters_json(outcome);
        let Json::Obj(pairs) = &fresh else {
            // counters_json always builds an object.
            continue;
        };
        for (key, value) in pairs {
            let got = value.to_string();
            let want = entry.get(key).map(Json::to_string);
            if want.as_deref() != Some(got.as_str()) {
                return Err((
                    outcome.id.to_owned(),
                    format!(
                        "scenario `{}`: counter `{key}` is {got}, committed report says {}",
                        outcome.id,
                        want.unwrap_or_else(|| "<absent>".to_owned()),
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Exact u64 → Json (counter values are far below 2^53, where `f64` is
/// exact; debug-asserted to keep that assumption honest).
fn c_num(v: u64) -> Json {
    debug_assert!(v < (1 << 53), "counter exceeds exact f64 range");
    Json::num(v as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_ids_are_unique() {
        let ids: std::collections::BTreeSet<_> = SCENARIOS.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), SCENARIOS.len());
    }

    #[test]
    fn counters_repeat_exactly_on_a_short_replay() {
        // A miniature version of the CI gate: the same scenario twice must
        // produce byte-identical counter JSON. Uses a shortened trace so
        // the debug-build test stays fast.
        let short = Scenario {
            id: "mini",
            title: "shortened contended-borrowing",
            days: 0.25,
            load: 3.0,
            configure: || campus_config(|c| c.scheduler.quota = QuotaMode::Borrowing),
        };
        let a = run_scenario(&short);
        let b = run_scenario(&short);
        assert_eq!(counters_json(&a).to_string(), counters_json(&b).to_string());
        assert!(
            a.counters.plan.attempts > 0,
            "scenario exercised the planner"
        );
    }

    #[test]
    fn expect_gate_red_flips_on_a_single_counter_drift() {
        // The annotation path proven end to end on a fixture: a committed
        // report with one counter off by one must fail the `--expect`
        // comparison with a message naming the counter, and the formatted
        // workflow command must carry it.
        let outcome = ScenarioOutcome {
            id: "fixture",
            jobs: 0,
            rounds: 7,
            counters: WorkCounters::default(),
            wall_secs: 0.1,
        };
        let mut committed =
            tacc_json::parse(&report_json(&[outcome]).to_string()).expect("report parses");
        // Green on the unmodified report…
        let fresh = ScenarioOutcome {
            id: "fixture",
            jobs: 0,
            rounds: 7,
            counters: WorkCounters::default(),
            wall_secs: 0.9,
        };
        assert_eq!(compare_with_report(&committed, &[fresh]), Ok(()));
        // …red once one counter drifts by one.
        let Json::Obj(doc) = &mut committed else {
            panic!("report is an object");
        };
        let Some(Json::Arr(scenarios)) = doc
            .iter_mut()
            .find(|(k, _)| k == "scenarios")
            .map(|(_, v)| v)
        else {
            panic!("report has scenarios");
        };
        let Json::Obj(entry) = &mut scenarios[0] else {
            panic!("scenario is an object");
        };
        for (k, v) in entry.iter_mut() {
            if k == "slot_splits" {
                *v = Json::num(1.0);
            }
        }
        let fresh = ScenarioOutcome {
            id: "fixture",
            jobs: 0,
            rounds: 7,
            counters: WorkCounters::default(),
            wall_secs: 0.9,
        };
        let (id, detail) = compare_with_report(&committed, &[fresh]).unwrap_err();
        assert_eq!(id, "fixture");
        assert!(detail.contains("`slot_splits`"), "detail: {detail}");
        let annotation =
            crate::gha::format_error("BENCH_hotpath.json", "planner counter drift", &detail);
        assert!(annotation.starts_with("::error file=BENCH_hotpath.json,"));
        assert!(annotation.contains("slot_splits"));
    }
}
