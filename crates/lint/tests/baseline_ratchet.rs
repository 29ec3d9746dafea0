//! Ratchet assertions on the committed panic-surface baseline: the core
//! lifecycle refactor must *shrink* the core layer's panic budget, not
//! merely shuffle it between files. CI runs this test, so re-blessing
//! the baseline upward for `crates/core` fails the build.

use tacc_lint::baseline;

const COMMITTED: &str = include_str!("../../../lint-baseline.json");

/// Budget of the pre-refactor monolithic `core/src/platform.rs` — the
/// ceiling the split must stay strictly under.
const PRE_REFACTOR_CORE_BUDGET: u64 = 8;

/// Ceiling after the tacc-lint v2 typed-error conversion: the lifecycle
/// engine reports `LifecycleError::UnknownJob` instead of panicking, and
/// the front door maps a compile error to a typed refusal, so the whole
/// core crate is down to one invariant `expect` (accounting's "job was
/// running"), and re-blessing upward fails here.
const POST_TYPED_ERROR_CORE_BUDGET: u64 = 1;

#[test]
fn core_panic_budget_shrank_with_the_lifecycle_split() {
    let parsed = baseline::parse(COMMITTED).expect("committed baseline parses");
    let core_total: u64 = parsed
        .panic_surface
        .iter()
        .filter(|(file, _)| file.starts_with("crates/core/src/"))
        .map(|(_, budget)| budget)
        .sum();
    assert!(
        core_total < PRE_REFACTOR_CORE_BUDGET,
        "core panic-surface budget must stay strictly below the \
         pre-refactor {PRE_REFACTOR_CORE_BUDGET}, got {core_total}"
    );
    assert!(
        core_total <= POST_TYPED_ERROR_CORE_BUDGET,
        "core panic-surface budget must stay at or below the \
         post-typed-error {POST_TYPED_ERROR_CORE_BUDGET}, got {core_total}"
    );
    // The event-loop orchestrator itself carries no panic budget at all:
    // every invariant `expect` lives in a named lifecycle module.
    assert_eq!(
        parsed.panic_surface.get("crates/core/src/platform.rs"),
        None,
        "platform.rs must keep a zero panic budget"
    );
    // The lifecycle engine's job-table lookups now return typed errors:
    // the module the single-writer rules center on carries no panic
    // budget at all, so the reachability roots replay panic-free.
    assert_eq!(
        parsed.panic_surface.get("crates/core/src/lifecycle.rs"),
        None,
        "lifecycle.rs must keep a zero panic budget"
    );
}

/// Workspace-wide ratchet: reachability-scoped budgeting (tacc-lint v2)
/// brought the committed baseline from 69 sites down to 53; it must
/// never be re-blessed back up.
#[test]
fn workspace_panic_budget_stays_at_or_below_the_v2_bless() {
    let parsed = baseline::parse(COMMITTED).expect("committed baseline parses");
    let total: u64 = parsed.panic_surface.values().sum();
    assert!(total <= 53, "workspace panic budget grew to {total}");
}

#[test]
fn scheduler_split_did_not_grow_the_sched_budget() {
    let parsed = baseline::parse(COMMITTED).expect("committed baseline parses");
    let sched_total: u64 = parsed
        .panic_surface
        .iter()
        .filter(|(file, _)| file.starts_with("crates/sched/src/scheduler"))
        .map(|(_, budget)| budget)
        .sum();
    // 6 sites in the monolith before the split; relocation is fine,
    // growth is not.
    assert!(sched_total <= 6, "scheduler budget grew to {sched_total}");
}
