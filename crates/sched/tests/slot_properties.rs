//! Property tests for the temporal planner's slot invariants.
//!
//! Whatever sequence of places and releases a [`SlotSet`] absorbs, its
//! slots must stay strictly time-sorted, non-overlapping, and an exact
//! partition of the whole horizon `(-inf, +inf)`; the per-slot free
//! counts must be monotone non-decreasing in time (capacity only ever
//! comes *back* — the count-level image of OAR's subset chain); and the
//! head slot must hold exactly the currently free capacity.
//!
//! Like the differential suite, a plain seeded sweep: a failing seed is
//! the reproducer.

use tacc_sched::{CapacityWindow, SlotSet, SlotStats};
use tacc_workload::JobId;

/// Deterministic xorshift64* generator — no dependencies, stable forever.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

const CLUSTER_GPUS: u32 = 64;

fn windows_for(case: u64) -> Vec<CapacityWindow> {
    match case % 3 {
        0 => Vec::new(),
        1 => vec![CapacityWindow {
            gpus: 16,
            from_secs: 5_000.0,
            until_secs: 20_000.0,
        }],
        _ => vec![
            CapacityWindow {
                gpus: 8,
                from_secs: 0.0,
                until_secs: f64::INFINITY,
            },
            CapacityWindow {
                gpus: 24,
                from_secs: 10_000.0,
                until_secs: 30_000.0,
            },
        ],
    }
}

/// Asserts every structural slot invariant against the planner's public
/// views, given the capacity that is genuinely free right now.
fn check_invariants(set: &SlotSet, free_now: u32, seed: u64, step: usize) {
    let view = set.view();
    let at = format!("[seed {seed}, step {step}]");
    assert!(!view.is_empty(), "no slots {at}");
    let (first, last) = (view[0], view[view.len() - 1]);
    assert_eq!(first.0, f64::NEG_INFINITY, "open left horizon lost {at}");
    assert_eq!(last.1, f64::INFINITY, "open right horizon lost {at}");
    for pair in view.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "slots out of order or overlapping {at}: {view:?}"
        );
        assert_eq!(
            pair[0].1, pair[1].0,
            "slots do not exactly partition the horizon {at}: {view:?}"
        );
    }
    let free: Vec<u32> = set.fingerprint().0.iter().map(|slot| slot.1).collect();
    assert_eq!(free.len(), view.len(), "views disagree on slot count {at}");
    for (i, pair) in free.windows(2).enumerate() {
        assert!(
            pair[0] <= pair[1],
            "slot {i} frees more than slot {} {at}",
            i + 1
        );
    }
    assert_eq!(free[0], free_now, "head slot != free capacity {at}");
    // The far-future slot holds everything back.
    assert_eq!(
        free[free.len() - 1],
        CLUSTER_GPUS,
        "full capacity not restored at the far horizon {at}"
    );
}

/// Drives one random place/release walk, checking every invariant after
/// every mutation.
fn random_walk(seed: u64, steps: usize) {
    let mut rng = XorShift::new(seed);
    let mut stats = SlotStats::default();
    let mut set = SlotSet::new();
    let windows = windows_for(seed);
    set.rebuild(CLUSTER_GPUS, std::iter::empty(), &windows, &mut stats);
    let mut free = CLUSTER_GPUS;
    let mut live: Vec<(JobId, u32)> = Vec::new();
    let mut next_id = 1u64;

    for step in 0..steps {
        let place = live.is_empty() || (free > 0 && rng.below(5) < 3);
        if place && free > 0 {
            let gpus = (1 + rng.below(16) as u32).min(free);
            let until = rng.below(40_000) as f64;
            let id = JobId::from_value(next_id);
            next_id += 1;
            set.place(id, gpus, until, &mut stats);
            free -= gpus;
            live.push((id, gpus));
        } else if let Some(pos) = live.len().checked_sub(1) {
            let (id, gpus) = live.swap_remove(rng.below(pos as u64 + 1) as usize);
            assert!(set.release(id, &mut stats), "lost claim {id}");
            free += gpus;
        }
        assert_eq!(set.claim_count(), live.len());
        check_invariants(&set, free, seed, step);
    }
    // Releasing everything must collapse the timeline back to the window
    // skeleton: the only boundaries left belong to capacity windows.
    for (id, gpus) in live.drain(..) {
        assert!(set.release(id, &mut stats));
        free += gpus;
    }
    check_invariants(&set, free, seed, steps);
    let mut skeleton = SlotSet::new();
    let mut fresh_stats = SlotStats::default();
    skeleton.rebuild(CLUSTER_GPUS, std::iter::empty(), &windows, &mut fresh_stats);
    assert_eq!(
        set.view(),
        skeleton.view(),
        "empty planner kept stale boundaries [seed {seed}]"
    );
    assert!(stats.splits >= stats.rebuilds, "counters went backwards");
}

#[test]
fn seeded_walks_preserve_slot_invariants() {
    for seed in 1..=40 {
        random_walk(seed, 120);
    }
}

#[test]
fn deep_walk_preserves_slot_invariants() {
    random_walk(99_991, 1_500);
}
