//! The slot-set temporal planner: OAR-style interval calculus over time.
//!
//! A [`SlotSet`] is a time-ordered sequence of *slots*. Each slot spans
//! `[begin, next.begin)` (the first slot opens at `-inf`, the last closes
//! at `+inf`) and holds the count of abstract GPU slots expected to be
//! free throughout that span. Placing a job *splits* the slot at the
//! job's estimated end and *subtracts* its gang size from every slot it
//! occupies; a finish adds the count back and re-merges boundaries that
//! no longer separate distinct states. Conservative-backfill reservation
//! probing then becomes a walk over a handful of slots — interval
//! intersection — instead of a collect-and-sort over the whole running
//! set each round.
//!
//! OAR's slots carry resource-id intervals. Probing, placement and the
//! rebuild fingerprint only ever consume *counts* — the subset-chain
//! invariant guarantees a claim's ids are present in every slot it
//! touches, so subtracting a contained id block changes a slot's
//! cardinality by exactly the block size — so the planner stores the
//! cardinalities and nothing else.
//!
//! Planned capacity changes ride along as OAR's `available_upto`
//! pseudo-job trick: a [`CapacityWindow`] pins boundaries at its edges and
//! removes `gpus` from each covered slot's availability, so drain and
//! maintenance windows are scenario knobs rather than special cases.
//!
//! ## Invariants
//!
//! * Slots are strictly time-sorted, non-overlapping, and exactly
//!   partition `(-inf, +inf)` — every instant belongs to exactly one slot.
//! * Claims only ever subtract a prefix-in-time (`(-inf, until)`), so free
//!   counts are monotone non-decreasing in time — the count-level image of
//!   OAR's subset chain (an earlier slot's free set is contained in every
//!   later slot's).
//! * The earliest slot's free count always equals the cluster's currently
//!   free GPU count — fresh claims draw from it.
//! * A boundary exists iff some active claim releases there or a window
//!   edge lands there; [`release`](SlotSet::release) merges everything
//!   else away, bounding the slot count by the active claim count.
//!
//! Decision-invariance with the pre-planner release-profile walk is the
//! load-bearing property: [`SlotSet::probe`] reproduces the old
//! release-profile walk's answers bit for bit (including its
//! one-release-at-a-time accumulation across tied end times) — the
//! sweep `backfill::reserve_with_windows` keeps as the oracle — which the
//! differential suite and the golden experiment snapshots both enforce.

use std::collections::BTreeMap;

use tacc_workload::JobId;

use crate::backfill::Reservation;

/// A planned capacity change: `gpus` unavailable over
/// `[from_secs, until_secs)`. An infinite `until_secs` models a permanent
/// capacity reduction (decommissioning); a finite one a drain or
/// maintenance window. `from_secs` must be finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityWindow {
    /// GPUs unavailable during the window.
    pub gpus: u32,
    /// Window start (seconds, inclusive).
    pub from_secs: f64,
    /// Window end (seconds, exclusive; `f64::INFINITY` for open-ended).
    pub until_secs: f64,
}

/// Deterministic work counters for the temporal planner, reported through
/// [`WorkCounters`](crate::WorkCounters) and gated by the perf harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SlotStats {
    /// Slot boundary splits performed by placements.
    pub splits: u64,
    /// Slots visited or updated by probes, placements, releases and
    /// rebuilds — each visit is one interval intersection.
    pub intersections: u64,
    /// Full timeline rebuilds (a probe against a cluster state the
    /// incremental maintenance did not track).
    pub rebuilds: u64,
}

/// One time slot: the free capacity over `[begin_secs, next slot's begin)`.
#[derive(Debug, Clone, PartialEq)]
struct Slot {
    begin_secs: f64,
    /// GPU slots free throughout this slot (before window drops).
    free: u32,
    /// Capacity removed from this slot by overlapping [`CapacityWindow`]s.
    dropped_gpus: u32,
    /// Claims releasing exactly at `begin_secs`, ascending by job id —
    /// the order the legacy release-profile walk saw tied end times in.
    releases: Vec<(JobId, u32)>,
}

/// One placed job's footprint on the timeline.
#[derive(Debug, Clone, PartialEq)]
struct Claim {
    until_secs: f64,
    gpus: u32,
}

/// The temporal planner. See the module docs for the model and
/// invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSet {
    slots: Vec<Slot>,
    claims: BTreeMap<JobId, Claim>,
    windows: Vec<CapacityWindow>,
}

impl Default for SlotSet {
    fn default() -> Self {
        SlotSet::new()
    }
}

impl SlotSet {
    /// An empty timeline: one slot covering all of time, no capacity.
    pub fn new() -> SlotSet {
        SlotSet {
            slots: vec![Slot {
                begin_secs: f64::NEG_INFINITY,
                free: 0,
                dropped_gpus: 0,
                releases: Vec::new(),
            }],
            claims: BTreeMap::new(),
            windows: Vec::new(),
        }
    }

    /// Rebuilds the timeline from scratch: `free_gpus` currently free,
    /// `running` as `(id, est_end_secs, gpus)` in ascending id order, and
    /// the configured capacity windows.
    pub fn rebuild(
        &mut self,
        free_gpus: u32,
        running: impl Iterator<Item = (JobId, f64, u32)>,
        windows: &[CapacityWindow],
        stats: &mut SlotStats,
    ) {
        stats.rebuilds += 1;
        self.claims.clear();
        self.windows.clear();
        self.windows.extend_from_slice(windows);
        let mut claimed = 0u32;
        for (id, until_secs, gpus) in running {
            claimed += gpus;
            self.claims.insert(id, Claim { until_secs, gpus });
        }
        let base_end = claimed + free_gpus;

        let mut bounds: Vec<f64> = vec![f64::NEG_INFINITY];
        bounds.extend(self.claims.values().map(|c| c.until_secs));
        for w in &self.windows {
            bounds.push(w.from_secs);
            if w.until_secs.is_finite() {
                bounds.push(w.until_secs);
            }
        }
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();

        self.slots.clear();
        for &begin_secs in &bounds {
            stats.intersections += 1;
            let mut free = base_end;
            let mut releases = Vec::new();
            for (id, claim) in &self.claims {
                if claim.until_secs > begin_secs {
                    free -= claim.gpus;
                } else if claim.until_secs == begin_secs {
                    releases.push((*id, claim.gpus));
                }
            }
            let dropped_gpus = self
                .windows
                .iter()
                .filter(|w| w.from_secs <= begin_secs && begin_secs < w.until_secs)
                .map(|w| w.gpus)
                .sum();
            self.slots.push(Slot {
                begin_secs,
                free,
                dropped_gpus,
                releases,
            });
        }
    }

    /// Records a placement: `gpus` drawn from the earliest slot's free
    /// capacity, occupied on every slot before `until_secs`, released
    /// there. Splits the slot containing `until_secs` when that boundary
    /// does not exist yet.
    pub fn place(&mut self, id: JobId, gpus: u32, until_secs: f64, stats: &mut SlotStats) {
        debug_assert!(
            !self.claims.contains_key(&id),
            "duplicate timeline claim for {id}"
        );
        self.split_at(until_secs, stats);
        // Mirror the id-level take_first: never grant more than the head
        // slot holds (a shortfall is a caller bug, debug-asserted).
        let granted = match self.slots.first() {
            Some(slot) => gpus.min(slot.free),
            None => 0,
        };
        debug_assert_eq!(
            granted, gpus,
            "placement of {id} exceeds the earliest slot's free capacity"
        );
        for slot in &mut self.slots {
            if slot.begin_secs < until_secs {
                stats.intersections += 1;
                debug_assert!(slot.free >= granted, "free counts not monotone");
                slot.free -= granted;
            } else {
                if slot.begin_secs == until_secs {
                    let pos = slot.releases.partition_point(|&(rid, _)| rid < id);
                    slot.releases.insert(pos, (id, granted));
                }
                break;
            }
        }
        self.claims.insert(
            id,
            Claim {
                until_secs,
                gpus: granted,
            },
        );
    }

    /// Removes a claim: its capacity returns to every slot before its
    /// release boundary, and boundaries that no longer separate distinct
    /// states are merged away. Returns `false` (leaving the timeline
    /// unchanged) when `id` holds no claim.
    pub fn release(&mut self, id: JobId, stats: &mut SlotStats) -> bool {
        let Some(claim) = self.claims.remove(&id) else {
            return false;
        };
        for slot in &mut self.slots {
            if slot.begin_secs < claim.until_secs {
                stats.intersections += 1;
                slot.free += claim.gpus;
            } else {
                if slot.begin_secs == claim.until_secs {
                    slot.releases.retain(|&(rid, _)| rid != id);
                }
                break;
            }
        }
        self.merge_boundaries();
        true
    }

    /// Computes the reservation for a blocked job needing `demand_gpus`
    /// when `free_gpus` are free now — bit-identical to the legacy
    /// release-profile walk, including its one-release-at-a-time
    /// accumulation across tied end times.
    pub(crate) fn probe(
        &self,
        now_secs: f64,
        demand_gpus: u32,
        free_gpus: u32,
        stats: &mut SlotStats,
    ) -> Reservation {
        let (shadow_secs, extra_gpus) = self.probe_start(now_secs, demand_gpus, free_gpus, stats);
        Reservation {
            shadow_secs,
            extra_gpus,
        }
    }

    /// The reservation probe as a plain `(shadow_secs, extra_gpus)` pair
    /// (public for the property suites; the scheduler uses the
    /// crate-internal `Reservation` form of `probe`).
    pub fn probe_start(
        &self,
        now_secs: f64,
        demand_gpus: u32,
        free_gpus: u32,
        stats: &mut SlotStats,
    ) -> (f64, u32) {
        if demand_gpus <= free_gpus {
            return (now_secs, free_gpus - demand_gpus);
        }
        debug_assert_eq!(
            self.slots.first().map(|s| s.free),
            Some(free_gpus),
            "timeline head out of sync with the cluster's free capacity"
        );
        let mut prev_avail = 0u32;
        for (i, slot) in self.slots.iter().enumerate() {
            stats.intersections += 1;
            if i > 0 {
                // Releases at this boundary accumulate one at a time in
                // job-id order — a partial sum may already cover the
                // demand, and the extra capacity reported is then the
                // partial sum's leftover, not the whole slot's.
                let mut partial = prev_avail;
                for &(_, gpus) in &slot.releases {
                    partial += gpus;
                    if partial >= demand_gpus {
                        return (slot.begin_secs.max(now_secs), partial - demand_gpus);
                    }
                }
            }
            let avail = slot.free.saturating_sub(slot.dropped_gpus);
            if avail >= demand_gpus {
                return (slot.begin_secs.max(now_secs), avail - demand_gpus);
            }
            prev_avail = avail;
        }
        // Demand can never be satisfied: reserve at the far end (the last
        // boundary on the timeline) with nothing to spare.
        let shadow = match self.slots.last() {
            Some(slot) if self.slots.len() > 1 => slot.begin_secs,
            _ => now_secs,
        };
        (shadow, 0)
    }

    /// Ensures a boundary exists at `t_secs`, splitting the containing
    /// slot when needed. Window coverage is constant strictly inside a
    /// slot (window edges are permanent boundaries), so both halves keep
    /// the slot's free count and drop.
    fn split_at(&mut self, t_secs: f64, stats: &mut SlotStats) {
        let idx = self.slots.partition_point(|s| s.begin_secs <= t_secs);
        let Some(i) = idx.checked_sub(1) else {
            return;
        };
        let Some(slot) = self.slots.get(i) else {
            return;
        };
        if slot.begin_secs == t_secs {
            return;
        }
        stats.splits += 1;
        let clone = Slot {
            begin_secs: t_secs,
            free: slot.free,
            dropped_gpus: slot.dropped_gpus,
            releases: Vec::new(),
        };
        self.slots.insert(i + 1, clone);
    }

    /// Drops boundaries that no longer separate distinct states: nothing
    /// releases there and no window edge lands there. Both sides are then
    /// provably identical (debug-asserted), and removing the boundary
    /// keeps the slot count bounded by the active claim count.
    fn merge_boundaries(&mut self) {
        let mut i = 1;
        while i < self.slots.len() {
            let t = self.slots[i].begin_secs;
            let needed = !self.slots[i].releases.is_empty()
                || self
                    .windows
                    .iter()
                    .any(|w| w.from_secs == t || w.until_secs == t);
            if needed {
                i += 1;
            } else {
                debug_assert_eq!(self.slots[i - 1].free, self.slots[i].free);
                debug_assert_eq!(self.slots[i - 1].dropped_gpus, self.slots[i].dropped_gpus);
                self.slots.remove(i);
            }
        }
    }

    /// Number of slots on the timeline.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of active claims.
    pub fn claim_count(&self) -> usize {
        self.claims.len()
    }

    /// `(begin_secs, end_secs, available_gpus)` per slot, for the
    /// property suites and debugging. `end_secs` is the next slot's begin
    /// (`+inf` for the last).
    pub fn view(&self) -> Vec<(f64, f64, u32)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let end = self
                    .slots
                    .get(i + 1)
                    .map_or(f64::INFINITY, |n| n.begin_secs);
                (s.begin_secs, end, s.free.saturating_sub(s.dropped_gpus))
            })
            .collect()
    }

    /// Canonical count-level fingerprint: per-slot `(begin, free, dropped,
    /// releases)` plus per-claim `(id, until, gpus)`. Two timelines with
    /// the same fingerprint answer every probe identically — counts are
    /// the complete probe-visible state, which is also why the planner can
    /// store them directly instead of id intervals.
    #[allow(clippy::type_complexity)]
    pub fn fingerprint(
        &self,
    ) -> (
        Vec<(f64, u32, u32, Vec<(JobId, u32)>)>,
        Vec<(JobId, f64, u32)>,
    ) {
        (
            self.slots
                .iter()
                .map(|s| (s.begin_secs, s.free, s.dropped_gpus, s.releases.clone()))
                .collect(),
            self.claims
                .iter()
                .map(|(id, c)| (*id, c.until_secs, c.gpus))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::reserve_with_windows;

    struct XorShift(u64);

    impl XorShift {
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

    fn job(v: u64) -> JobId {
        JobId::from_value(v)
    }

    #[test]
    fn place_splits_and_release_merges() {
        let mut tl = SlotSet::new();
        let mut stats = SlotStats::default();
        tl.rebuild(8, std::iter::empty(), &[], &mut stats);
        assert_eq!(tl.slot_count(), 1);

        tl.place(job(1), 3, 100.0, &mut stats);
        assert_eq!(tl.slot_count(), 2);
        assert_eq!(stats.splits, 1);
        assert_eq!(tl.view()[0].2, 5);
        assert_eq!(tl.view()[1].2, 8);

        // A second claim ending at the same boundary does not split again.
        tl.place(job(2), 2, 100.0, &mut stats);
        assert_eq!(tl.slot_count(), 2);
        assert_eq!(stats.splits, 1);
        assert_eq!(tl.view()[0].2, 3);

        assert!(tl.release(job(1), &mut stats));
        assert_eq!(tl.slot_count(), 2, "job 2 still releases at t=100");
        assert!(tl.release(job(2), &mut stats));
        assert_eq!(tl.slot_count(), 1, "all boundaries merged away");
        assert_eq!(tl.view()[0].2, 8);
        assert!(!tl.release(job(2), &mut stats), "double release is a no-op");
    }

    #[test]
    fn probe_matches_legacy_reserve() {
        // The three claims release 4, 4 and 8 GPUs at t=50, 80, 200 with
        // 2 free now: identical fixture to the backfill unit tests.
        let mut tl = SlotSet::new();
        let mut stats = SlotStats::default();
        let running = [(job(1), 200.0, 8u32), (job(2), 50.0, 4), (job(3), 80.0, 4)];
        tl.rebuild(2, running.iter().copied(), &[], &mut stats);
        assert_eq!(tl.probe_start(0.0, 8, 2, &mut stats), (80.0, 2));
        assert_eq!(tl.probe_start(0.0, 1, 2, &mut stats), (0.0, 1));
        assert_eq!(tl.probe_start(0.0, 64, 2, &mut stats), (200.0, 0));
        assert_eq!(tl.probe_start(90.0, 8, 2, &mut stats), (90.0, 2));
    }

    #[test]
    fn tied_end_times_accumulate_one_release_at_a_time() {
        // Two 4-GPU claims both end at t=100 with 2 free; a demand of 5 is
        // covered by the *first* release alone, so the legacy walk reports
        // extra = (2+4)-5 = 1, not the full-boundary (2+8)-5 = 5.
        let mut tl = SlotSet::new();
        let mut stats = SlotStats::default();
        let running = [(job(1), 100.0, 4u32), (job(2), 100.0, 4)];
        tl.rebuild(2, running.iter().copied(), &[], &mut stats);
        assert_eq!(tl.probe_start(0.0, 5, 2, &mut stats), (100.0, 1));
        assert_eq!(tl.probe_start(0.0, 10, 2, &mut stats), (100.0, 0));
    }

    #[test]
    fn windows_pin_boundaries_and_drop_capacity() {
        // A 6-GPU maintenance window over [100, 200) with a 6-GPU job
        // releasing at t=150 and 2 GPUs free now.
        let mut tl = SlotSet::new();
        let mut stats = SlotStats::default();
        let windows = [CapacityWindow {
            gpus: 6,
            from_secs: 100.0,
            until_secs: 200.0,
        }];
        let running = [(job(1), 150.0, 6u32)];
        tl.rebuild(2, running.iter().copied(), &windows, &mut stats);
        assert_eq!(
            tl.view(),
            vec![
                (f64::NEG_INFINITY, 100.0, 2),
                (100.0, 150.0, 0),
                (150.0, 200.0, 2),
                (200.0, f64::INFINITY, 8),
            ]
        );
        // Fits now: windows shape the future profile, not admission.
        assert_eq!(tl.probe_start(0.0, 1, 2, &mut stats), (0.0, 1));
        // The t=150 release covers a demand of 4 mid-window (partial
        // accumulation on top of the window-saturated availability).
        assert_eq!(tl.probe_start(0.0, 4, 2, &mut stats), (150.0, 2));
        // A demand of 7 must outwait the maintenance window.
        assert_eq!(tl.probe_start(0.0, 7, 2, &mut stats), (200.0, 1));

        // Claim boundaries merge away on release; window edges never do.
        tl.place(job(2), 2, 120.0, &mut stats);
        assert_eq!(tl.slot_count(), 5);
        assert!(tl.release(job(2), &mut stats));
        assert_eq!(tl.slot_count(), 4);
    }

    #[test]
    fn random_walk_matches_naive_sweep_and_rebuild() {
        // Random place/release/probe sequences: the incrementally
        // maintained timeline must agree with (a) a fresh rebuild and
        // (b) the naive event-sweep facade, on every probe.
        let windows_cases: [&[CapacityWindow]; 3] = [
            &[],
            &[CapacityWindow {
                gpus: 16,
                from_secs: 2_000.0,
                until_secs: 9_000.0,
            }],
            &[
                CapacityWindow {
                    gpus: 8,
                    from_secs: 1_000.0,
                    until_secs: f64::INFINITY,
                },
                CapacityWindow {
                    gpus: 24,
                    from_secs: 500.0,
                    until_secs: 5_000.0,
                },
            ],
        ];
        for (case, windows) in windows_cases.iter().enumerate() {
            let mut rng = XorShift(0x5EED_0000 + case as u64);
            let total = 64u32;
            let mut free = total;
            let mut running: Vec<(JobId, f64, u32)> = Vec::new();
            let mut tl = SlotSet::new();
            let mut stats = SlotStats::default();
            tl.rebuild(free, running.iter().copied(), windows, &mut stats);
            let mut now = 0.0f64;
            for step in 0..400u64 {
                now += rng.below(200) as f64;
                match rng.below(3) {
                    0 if free > 0 => {
                        let gpus = (rng.below(9)) as u32 % (free + 1);
                        let id = job(1000 + step);
                        let until = now + 1.0 + rng.below(4_000) as f64;
                        running.push((id, until, gpus));
                        running.sort_by_key(|r| r.0);
                        free -= gpus;
                        tl.place(id, gpus, until, &mut stats);
                    }
                    1 if !running.is_empty() => {
                        let i = rng.below(running.len() as u64) as usize;
                        let (id, _, gpus) = running.remove(i);
                        free += gpus;
                        assert!(tl.release(id, &mut stats));
                    }
                    _ => {}
                }
                // Probe equivalence against the naive sweep.
                let demand = 1 + rng.below(80) as u32;
                let mut profile: Vec<(f64, u32)> =
                    running.iter().map(|&(_, e, g)| (e, g)).collect();
                let naive = reserve_with_windows(now, demand, free, &mut profile, windows);
                let got = tl.probe_start(now, demand, free, &mut stats);
                assert_eq!(
                    got,
                    (naive.shadow_secs, naive.extra_gpus),
                    "probe diverged from the naive sweep (case {case}, step {step})"
                );
                // Structural equivalence against a fresh rebuild.
                let mut fresh = SlotSet::new();
                let mut scratch = SlotStats::default();
                fresh.rebuild(free, running.iter().copied(), windows, &mut scratch);
                assert_eq!(
                    fresh.fingerprint(),
                    tl.fingerprint(),
                    "incremental timeline diverged from rebuild (case {case}, step {step})"
                );
            }
        }
    }
}
