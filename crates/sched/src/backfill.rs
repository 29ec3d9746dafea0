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

use std::cmp::Ordering;

use tacc_workload::JobId;

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

/// A running task's release: `(est_end_secs, id, gpus)`.
pub(crate) type Release = (f64, JobId, u32);

/// The order a release profile is kept in: estimated end under
/// `total_cmp`, then job id — ties release in id order.
pub(crate) fn release_order(a: &Release, b: &Release) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The window profile as steps: one `(edge, GPUs dropped from this edge
/// on)` per distinct finite window edge, ascending. Nothing is dropped
/// before the first edge.
pub(crate) fn window_steps(windows: &[CapacityWindow]) -> Vec<(f64, u32)> {
    let mut edges: Vec<f64> = windows
        .iter()
        .flat_map(|w| [w.from_secs, w.until_secs])
        .filter(|t| t.is_finite())
        .collect();
    edges.sort_by(f64::total_cmp);
    edges.dedup();
    let dropped_at = |t: f64| -> u32 {
        windows
            .iter()
            .filter(|w| w.from_secs <= t && t < w.until_secs)
            .map(|w| w.gpus)
            .sum()
    };
    edges.into_iter().map(|t| (t, dropped_at(t))).collect()
}

/// Computes the reservation for a blocked job needing `demand_gpus`, given
/// `free_gpus` free now, the running set's `releases` in
/// [`release_order`] and the window profile's `steps` (see
/// [`window_steps`]). Adds the releases it read to `read`.
///
/// A demand that fits now reserves now. Otherwise the sweep visits the
/// event times — release ends and window edges — ascending and stops at
/// the first that covers the demand, so it reads the releases only as far
/// as the demand needs. Tied releases apply one at a time on top of the
/// availability before their time: a partial sum may cover the demand. At
/// an edge that is also a release time the releases apply first, then the
/// drop. If even every release would not free enough (demand exceeds
/// cluster size), the last event time is used and `extra_gpus` is 0.
pub(crate) fn reserve(
    now_secs: f64,
    demand_gpus: u32,
    free_gpus: u32,
    releases: &[Release],
    steps: &[(f64, u32)],
    read: &mut u64,
) -> Reservation {
    let at = |t: f64, avail: u32| Reservation {
        shadow_secs: t.max(now_secs),
        extra_gpus: avail - demand_gpus,
    };
    if demand_gpus <= free_gpus {
        return at(now_secs, free_gpus);
    }
    // `releases[..next]` have applied; `supply` is what is free now plus
    // what they freed; `avail` is the availability after the last event
    // time, under `dropped` (saturated at 0).
    let (mut next, mut supply, mut avail, mut dropped) = (0, free_gpus, free_gpus, 0);
    let mut last = now_secs;
    let covered = 'sweep: {
        // The window steps are the outer loop: between two edges only
        // releases move availability. After the last edge every release
        // left does.
        for k in 0..=steps.len() {
            let edge = steps.get(k);
            let until = edge.map_or(f64::INFINITY, |&(t, _)| t);
            while let Some(&(t, _, _)) = releases.get(next) {
                if t >= until && edge.is_some() {
                    break;
                }
                last = t;
                let mut partial = avail;
                loop {
                    let (_, _, gpus) = releases[next];
                    next += 1;
                    supply += gpus;
                    partial += gpus;
                    if partial >= demand_gpus {
                        break 'sweep Some(at(t, partial));
                    }
                    if releases.get(next).is_none_or(|r| r.0 != t) {
                        break;
                    }
                }
                avail = supply.saturating_sub(dropped);
                if avail >= demand_gpus {
                    break 'sweep Some(at(t, avail));
                }
            }
            // The edge: the releases due at it, then its drop.
            let Some(&(t, edge_dropped)) = edge else {
                break;
            };
            last = t;
            let mut partial = avail;
            while let Some(&(_, _, gpus)) = releases.get(next).filter(|r| r.0 == t) {
                next += 1;
                supply += gpus;
                partial += gpus;
                if partial >= demand_gpus {
                    break 'sweep Some(at(t, partial));
                }
            }
            dropped = edge_dropped;
            avail = supply.saturating_sub(dropped);
            if avail >= demand_gpus {
                break 'sweep Some(at(t, avail));
            }
        }
        None
    };
    *read += next as u64;
    covered.unwrap_or(Reservation {
        shadow_secs: last,
        extra_gpus: 0,
    })
}

/// [`reserve`] over an unsorted running set and the windows themselves —
/// what the [`ReferenceScheduler`](crate::reference::ReferenceScheduler)
/// asks, re-deriving both inputs per probe.
pub(crate) fn reserve_with_windows(
    now_secs: f64,
    demand_gpus: u32,
    free_gpus: u32,
    running: &mut [Release],
    windows: &[CapacityWindow],
) -> Reservation {
    running.sort_by(release_order);
    let steps = window_steps(windows);
    reserve(now_secs, demand_gpus, free_gpus, running, &steps, &mut 0)
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

    /// `(est_end_secs, gpus)` pairs as releases, job ids in list order.
    fn releases(running: &[(f64, u32)]) -> Vec<Release> {
        (0..)
            .zip(running)
            .map(|(id, &(end, gpus))| (end, JobId::from_value(id), gpus))
            .collect()
    }

    fn reserve_over(
        now: f64,
        demand: u32,
        free: u32,
        running: &[(f64, u32)],
        windows: &[CapacityWindow],
    ) -> Reservation {
        reserve_with_windows(now, demand, free, &mut releases(running), windows)
    }

    #[test]
    fn immediate_fit_reserves_now() {
        let r = reserve_over(10.0, 2, 6, &[(100.0, 4)], &[]);
        assert_eq!(r.shadow_secs, 10.0);
        assert_eq!(r.extra_gpus, 4);
    }

    #[test]
    fn shadow_at_earliest_sufficient_release() {
        // Free 2; need 8. Running: 4 GPUs end t=50, 4 end t=80, 8 end t=200.
        let r = reserve_over(0.0, 8, 2, &[(200.0, 8), (50.0, 4), (80.0, 4)], &[]);
        // After t=80: 2+4+4 = 10 >= 8.
        assert_eq!(r.shadow_secs, 80.0);
        assert_eq!(r.extra_gpus, 2);
    }

    #[test]
    fn impossible_demand_reserves_at_end_with_zero_extra() {
        let r = reserve_over(0.0, 64, 2, &[(100.0, 4)], &[]);
        assert_eq!(r.shadow_secs, 100.0);
        assert_eq!(r.extra_gpus, 0);
    }

    #[test]
    fn shadow_never_before_now() {
        let r = reserve_over(10.0, 9, 2, &[(5.0, 8)], &[]);
        assert_eq!(r.shadow_secs, 10.0);
    }

    #[test]
    fn windows_facade_without_windows_is_the_legacy_walk() {
        // With no windows the sweep is the release-profile walk: releases
        // accumulate one at a time, tied end times included, and a demand
        // nothing running can cover reserves at the last release (or now).
        let walk = |running: &[(f64, u32)], demand| {
            let r = reserve_over(0.0, demand, 2, running, &[]);
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
        let shadow = |demand| {
            let r = reserve_over(0.0, demand, 2, &[(150.0, 6)], &windows);
            (r.shadow_secs, r.extra_gpus)
        };
        // The t=150 release covers a demand of 4 mid-window…
        assert_eq!(shadow(4), (150.0, 2));
        // …a demand of 7 must outwait the window…
        assert_eq!(shadow(7), (200.0, 1));
        // …and an impossible demand reserves at the last event time.
        assert_eq!(shadow(20), (200.0, 0));
    }

    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
        }
    }

    /// The sweep's definition, computed eagerly: every event time (each
    /// release end, each window edge) collected, sorted and deduplicated,
    /// and the windows' drop summed afresh at each.
    fn eager(
        now: f64,
        demand: u32,
        free: u32,
        releases: &[Release],
        windows: &[CapacityWindow],
    ) -> Reservation {
        if demand <= free {
            return Reservation {
                shadow_secs: now,
                extra_gpus: free - demand,
            };
        }
        let mut bounds: Vec<f64> = releases.iter().map(|r| r.0).collect();
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
        let mut prev_avail = free;
        for &t in &bounds {
            let mut partial = prev_avail;
            while ri < releases.len() && releases[ri].0 == t {
                partial += releases[ri].2;
                released += releases[ri].2;
                ri += 1;
                if partial >= demand {
                    return Reservation {
                        shadow_secs: t.max(now),
                        extra_gpus: partial - demand,
                    };
                }
            }
            let avail = (free + released).saturating_sub(dropped_at(t));
            if avail >= demand {
                return Reservation {
                    shadow_secs: t.max(now),
                    extra_gpus: avail - demand,
                };
            }
            prev_avail = avail;
        }
        Reservation {
            shadow_secs: bounds.last().copied().unwrap_or(now),
            extra_gpus: 0,
        }
    }

    #[test]
    fn sweep_matches_the_eager_definition() {
        // Times come off a coarse grid, so release ends tie, fall before
        // `now`, and meet window edges; a quarter of the demands exceed
        // everything running can free.
        let mut rng = XorShift(0x5EED_0037);
        let time = |rng: &mut XorShift| 100.0 * rng.below(12) as f64;
        for case in 0..20_000 {
            let now = time(&mut rng) + 50.0 * rng.below(2) as f64;
            let free = rng.below(9) as u32;
            // Distinct ids in random order: `i` is the id's residue.
            let mut running: Vec<Release> = (0..rng.below(10))
                .map(|i| {
                    let id = JobId::from_value(16 * rng.below(1_000) + i);
                    (time(&mut rng), id, rng.below(9) as u32)
                })
                .collect();
            running.sort_by(release_order);
            let windows: Vec<CapacityWindow> = (0..rng.below(4))
                .map(|_| {
                    let from_secs = time(&mut rng);
                    let until_secs = match rng.below(4) {
                        0 => f64::INFINITY,
                        n => from_secs + 100.0 * n as f64,
                    };
                    CapacityWindow {
                        gpus: 1 + rng.below(12) as u32,
                        from_secs,
                        until_secs,
                    }
                })
                .collect();
            let total = free + running.iter().map(|r| r.2).sum::<u32>();
            let demand = match rng.below(4) {
                0 => total + 1 + rng.below(4) as u32,
                _ => 1 + rng.below(u64::from(total) + 1) as u32,
            };
            let mut read = 0;
            let got = reserve(
                now,
                demand,
                free,
                &running,
                &window_steps(&windows),
                &mut read,
            );
            let want = eager(now, demand, free, &running, &windows);
            assert_eq!(
                got, want,
                "case {case}: now {now}, demand {demand}, free {free}, \
                 releases {running:?}, windows {windows:?}"
            );
            assert!(read <= running.len() as u64, "case {case}: read {read}");
            if demand > total {
                assert_eq!(read, running.len() as u64, "case {case}");
            }
        }
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
