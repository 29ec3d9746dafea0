//! Backfill scheduling (experiment F4).
//!
//! When the job at the head of the queue cannot start, plain FIFO leaves
//! the machine idle until it can. Backfill lets later jobs jump ahead as
//! long as they do not delay the blocked job's *reservation* — computed
//! from the (estimated) completion times of running jobs.
//!
//! Two classic variants are implemented:
//!
//! * **EASY**: only the head of the queue holds a reservation. Aggressive,
//!   high utilization, can repeatedly delay the second blocked job.
//! * **Conservative**: every blocked job holds a reservation; a backfill
//!   candidate must respect all of them. Lower utilization, stronger
//!   ordering guarantees.
//!
//! Reservations are computed at GPU granularity cluster-wide. This ignores
//! per-node fragmentation at reservation time (the actual start is still
//! subject to a real placement check), a standard simplification also made
//! by Slurm's own backfill estimator.

use crate::slotset::CapacityWindow;

/// The backfill variant in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackfillMode {
    /// No backfill: a blocked head stalls everything behind it.
    None,
    /// EASY backfill: one reservation for the queue head.
    #[default]
    Easy,
    /// Conservative backfill: reservations for every blocked job.
    Conservative,
}

impl std::fmt::Display for BackfillMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackfillMode::None => "none",
            BackfillMode::Easy => "easy",
            BackfillMode::Conservative => "conservative",
        };
        f.write_str(s)
    }
}

/// A reservation for a blocked job: when it is expected to start and how
/// many GPUs will be left over at that moment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reservation {
    /// Expected start time of the blocked job (seconds).
    pub shadow_secs: f64,
    /// GPUs expected to remain free at `shadow_secs` after the blocked job
    /// starts (the "extra" capacity EASY exploits).
    pub extra_gpus: u32,
}

/// Computes the reservation for a blocked job needing `demand_gpus`, given
/// `free_gpus` free now, `running` as `(est_end_secs, gpus)` pairs and the
/// planned [`CapacityWindow`]s — the naive event-sweep the
/// [`ReferenceScheduler`](crate::reference::ReferenceScheduler) uses.
///
/// It sweeps the merged event horizon (release ends plus window edges)
/// ascending. At each event time the releases apply *one at a time* in the
/// profile's stable tie order under the pre-boundary window drop, then the
/// drop change applies — exactly the algorithm
/// [`SlotSet::probe`](crate::SlotSet) implements over slots, so the
/// differential suite can hold the two implementations byte-equal. If even
/// every release would not free enough (demand exceeds cluster size), the
/// last event time is used and `extra_gpus` is 0.
pub(crate) fn reserve_with_windows(
    now_secs: f64,
    demand_gpus: u32,
    free_gpus: u32,
    running: &mut [(f64, u32)],
    windows: &[CapacityWindow],
) -> Reservation {
    if demand_gpus <= free_gpus {
        return Reservation {
            shadow_secs: now_secs,
            extra_gpus: free_gpus - demand_gpus,
        };
    }
    running.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut bounds: Vec<f64> = running.iter().map(|&(end, _)| end).collect();
    for w in windows {
        bounds.push(w.from_secs);
        if w.until_secs.is_finite() {
            bounds.push(w.until_secs);
        }
    }
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let dropped_at = |t: f64| -> u32 {
        windows
            .iter()
            .filter(|w| w.from_secs <= t && t < w.until_secs)
            .map(|w| w.gpus)
            .sum()
    };
    let mut released = 0u32;
    let mut ri = 0usize;
    let mut prev_avail = free_gpus;
    for &t in &bounds {
        // Releases at `t`, one at a time on top of the pre-boundary
        // (saturated) availability.
        let mut partial = prev_avail;
        while ri < running.len() && running[ri].0 == t {
            partial += running[ri].1;
            released += running[ri].1;
            ri += 1;
            if partial >= demand_gpus {
                return Reservation {
                    shadow_secs: t.max(now_secs),
                    extra_gpus: partial - demand_gpus,
                };
            }
        }
        // Then the post-boundary availability under the new window drop.
        let avail = (free_gpus + released).saturating_sub(dropped_at(t));
        if avail >= demand_gpus {
            return Reservation {
                shadow_secs: t.max(now_secs),
                extra_gpus: avail - demand_gpus,
            };
        }
        prev_avail = avail;
    }
    // Never satisfiable: reserve at the far end with nothing to spare.
    Reservation {
        shadow_secs: bounds.last().copied().unwrap_or(now_secs),
        extra_gpus: 0,
    }
}

/// Whether a candidate (fitting now) may backfill against a reservation:
/// either it is estimated to finish before the shadow time, or it is small
/// enough to fit in the extra capacity the reservation leaves over.
pub(crate) fn may_backfill(
    candidate_est_end_secs: f64,
    candidate_gpus: u32,
    reservation: &Reservation,
) -> bool {
    candidate_est_end_secs <= reservation.shadow_secs || candidate_gpus <= reservation.extra_gpus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_fit_reserves_now() {
        let mut running = vec![(100.0, 4)];
        let r = reserve_with_windows(10.0, 2, 6, &mut running, &[]);
        assert_eq!(r.shadow_secs, 10.0);
        assert_eq!(r.extra_gpus, 4);
    }

    #[test]
    fn shadow_at_earliest_sufficient_release() {
        // Free 2; need 8. Running: 4 GPUs end t=50, 4 end t=80, 8 end t=200.
        let mut running = vec![(200.0, 8), (50.0, 4), (80.0, 4)];
        let r = reserve_with_windows(0.0, 8, 2, &mut running, &[]);
        // After t=80: 2+4+4 = 10 >= 8.
        assert_eq!(r.shadow_secs, 80.0);
        assert_eq!(r.extra_gpus, 2);
    }

    #[test]
    fn impossible_demand_reserves_at_end_with_zero_extra() {
        let mut running = vec![(100.0, 4)];
        let r = reserve_with_windows(0.0, 64, 2, &mut running, &[]);
        assert_eq!(r.shadow_secs, 100.0);
        assert_eq!(r.extra_gpus, 0);
    }

    #[test]
    fn shadow_never_before_now() {
        let mut running = vec![(5.0, 8)];
        let r = reserve_with_windows(10.0, 9, 2, &mut running, &[]);
        assert_eq!(r.shadow_secs, 10.0);
    }

    #[test]
    fn windows_facade_without_windows_is_the_legacy_walk() {
        // With no windows the sweep is the release-profile walk: releases
        // accumulate one at a time, tied end times included, and a demand
        // nothing running can cover reserves at the last release (or now).
        let walk = |running: &[(f64, u32)], demand| {
            let r = reserve_with_windows(0.0, demand, 2, &mut running.to_vec(), &[]);
            (r.shadow_secs, r.extra_gpus)
        };
        assert_eq!(walk(&[(200.0, 8), (50.0, 4), (80.0, 4)], 8), (80.0, 2));
        assert_eq!(walk(&[(100.0, 4), (100.0, 4)], 5), (100.0, 1));
        assert_eq!(walk(&[(100.0, 4), (100.0, 4)], 10), (100.0, 0));
        assert_eq!(walk(&[], 3), (0.0, 0));
    }

    #[test]
    fn capacity_window_shapes_the_shadow() {
        // 2 free, a 6-GPU job releasing at t=150, and a 6-GPU maintenance
        // window over [100, 200).
        let windows = [CapacityWindow {
            gpus: 6,
            from_secs: 100.0,
            until_secs: 200.0,
        }];
        // The t=150 release covers a demand of 4 mid-window…
        let mut running = vec![(150.0, 6)];
        let r = reserve_with_windows(0.0, 4, 2, &mut running, &windows);
        assert_eq!((r.shadow_secs, r.extra_gpus), (150.0, 2));
        // …a demand of 7 must outwait the window…
        let mut running = vec![(150.0, 6)];
        let r = reserve_with_windows(0.0, 7, 2, &mut running, &windows);
        assert_eq!((r.shadow_secs, r.extra_gpus), (200.0, 1));
        // …and an impossible demand reserves at the last event time.
        let mut running = vec![(150.0, 6)];
        let r = reserve_with_windows(0.0, 20, 2, &mut running, &windows);
        assert_eq!((r.shadow_secs, r.extra_gpus), (200.0, 0));
    }

    #[test]
    fn backfill_window_rule() {
        let r = Reservation {
            shadow_secs: 100.0,
            extra_gpus: 2,
        };
        // Finishes before the shadow: ok regardless of size.
        assert!(may_backfill(90.0, 16, &r));
        // Runs past the shadow but fits in the extra: ok.
        assert!(may_backfill(500.0, 2, &r));
        // Runs past the shadow and too big: blocked.
        assert!(!may_backfill(500.0, 3, &r));
    }
}
