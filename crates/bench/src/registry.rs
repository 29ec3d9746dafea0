//! The experiment registry: every EXPERIMENTS.md table/figure as a named,
//! runnable entry.
//!
//! Each experiment is a pure `fn(&mut Reporter) -> ExperimentResult` over
//! the canonical trace definitions in the crate root; the `experiments`
//! runner prints its text and gates its JSON against the golden snapshot.

use crate::experiments;
use crate::report::{ExperimentResult, Reporter};
use std::time::Instant;
use tacc_json::Json;

/// How expensive an experiment is, used to pick CI subsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Replays 7-day traces (or no trace at all); seconds each in release.
    Fast,
    /// Replays the 30-day characterization trace; the slow tail.
    Long,
}

impl Tier {
    /// Lower-case label used by `--tier` and `--list`.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Fast => "fast",
            Tier::Long => "long",
        }
    }
}

/// One registered experiment.
pub struct ExperimentSpec {
    /// Short identifier (`f1`…`f10`, `t1`…`t7`) — also the golden file stem.
    pub id: &'static str,
    /// The EXPERIMENTS.md section heading this regenerates.
    pub title: &'static str,
    /// Cost class for CI tiering.
    pub tier: Tier,
    /// The experiment body.
    pub run: fn(&mut Reporter) -> ExperimentResult,
}

/// Every experiment, in EXPERIMENTS.md presentation order.
pub static ALL: &[ExperimentSpec] = &[
    ExperimentSpec {
        id: "f1",
        title: "F1 — trace characterization",
        tier: Tier::Long,
        run: experiments::f1::run,
    },
    ExperimentSpec {
        id: "t1",
        title: "T1 — scheduling policy comparison",
        tier: Tier::Fast,
        run: experiments::t1::run,
    },
    ExperimentSpec {
        id: "f2",
        title: "F2 — utilization: static partition vs borrowing",
        tier: Tier::Fast,
        run: experiments::f2::run,
    },
    ExperimentSpec {
        id: "f3",
        title: "F3 — fairness under load sweep",
        tier: Tier::Fast,
        run: experiments::f3::run,
    },
    ExperimentSpec {
        id: "f4",
        title: "F4 — backfill effectiveness",
        tier: Tier::Fast,
        run: experiments::f4::run,
    },
    ExperimentSpec {
        id: "f5",
        title: "F5 — preemption & checkpoint-interval ablation",
        tier: Tier::Fast,
        run: experiments::f5::run,
    },
    ExperimentSpec {
        id: "t2",
        title: "T2 — placement strategy comparison",
        tier: Tier::Fast,
        run: experiments::t2::run,
    },
    ExperimentSpec {
        id: "t3",
        title: "T3 — compiler delta cache",
        tier: Tier::Fast,
        run: experiments::t3::run,
    },
    ExperimentSpec {
        id: "f6",
        title: "F6 — distributed-training scaling",
        tier: Tier::Fast,
        run: experiments::f6::run,
    },
    ExperimentSpec {
        id: "f7",
        title: "F7 — failure injection & fail-safe switching",
        tier: Tier::Fast,
        run: experiments::f7::run,
    },
    ExperimentSpec {
        id: "f8",
        title: "F8 — dataset staging from the shared filesystem",
        tier: Tier::Fast,
        run: experiments::f8::run,
    },
    ExperimentSpec {
        id: "f9",
        title: "F9 — gang time-slicing",
        tier: Tier::Fast,
        run: experiments::f9::run,
    },
    ExperimentSpec {
        id: "t5",
        title: "T5 — elastic (Pollux-style) admission",
        tier: Tier::Fast,
        run: experiments::t5::run,
    },
    ExperimentSpec {
        id: "f10",
        title: "F10 — capacity planning curve",
        tier: Tier::Fast,
        run: experiments::f10::run,
    },
    ExperimentSpec {
        id: "t6",
        title: "T6 — heterogeneous GPU pools",
        tier: Tier::Fast,
        run: experiments::t6::run,
    },
    ExperimentSpec {
        id: "t7",
        title: "T7 — ML Productivity Goodput decomposition",
        tier: Tier::Fast,
        run: experiments::t7::run,
    },
];

/// Looks up an experiment by id (case-insensitive).
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    let id = id.to_ascii_lowercase();
    ALL.iter().find(|e| e.id == id)
}

/// One recorded run: everything the runner needs for printing, golden
/// comparison, and the sweep summary.
pub struct RunOutcome {
    /// The experiment that ran.
    pub spec: &'static ExperimentSpec,
    /// Human-readable text: what `experiments <id>` prints.
    pub text: String,
    /// Golden JSON document (excludes wall-clock, which is not
    /// reproducible).
    pub json: Json,
    /// Wall-clock of this run in seconds.
    pub wall_secs: f64,
}

/// Runs one experiment, recording its output.
pub fn run_recorded(spec: &'static ExperimentSpec) -> RunOutcome {
    // tacc-lint: allow(wall-clock, reason = "per-experiment wall time for the --check progress lines; excluded from golden JSON and never compared")
    let start = Instant::now();
    let mut reporter = Reporter::new();
    let result = (spec.run)(&mut reporter);
    let wall_secs = start.elapsed().as_secs_f64();
    let text = reporter.text().to_owned();
    let mut fields = vec![
        ("id".to_owned(), spec.id.into()),
        ("title".to_owned(), spec.title.into()),
        ("headline".to_owned(), result.headline.into()),
    ];
    match reporter.into_json() {
        Json::Obj(pairs) => fields.extend(pairs),
        other => fields.push(("output".to_owned(), other)),
    }
    let json = Json::Obj(fields);
    RunOutcome {
        spec,
        text,
        json,
        wall_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_findable() {
        for spec in ALL {
            assert!(std::ptr::eq(find(spec.id).unwrap(), spec));
        }
        let ids: std::collections::BTreeSet<_> = ALL.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), ALL.len());
    }

    #[test]
    fn only_f1_is_long_tier() {
        let long: Vec<_> = ALL
            .iter()
            .filter(|e| e.tier == Tier::Long)
            .map(|e| e.id)
            .collect();
        assert_eq!(long, vec!["f1"]);
    }
}
