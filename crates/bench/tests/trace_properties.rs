//! Seeded property sweeps pinning the F1 invariants of the shared trace
//! generator.
//!
//! Every golden snapshot downstream of `tacc_bench::standard_trace`
//! assumes the campus workload shape the paper characterizes: job
//! durations are heavy-tailed (mean ≫ median), single-GPU jobs dominate
//! the demand histogram, and arrivals swing diurnally. A generator change
//! that breaks one of these would not necessarily fail any unit test —
//! it would just silently re-bless a different workload — so these
//! properties hold across seeds and loads, not only the canonical
//! `TRACE_SEED`.
//!
//! Bounds are deliberately loose relative to measured margins (over 300
//! sampled traces: mean/median ≥ 2.6, 1-GPU fraction ≥ 0.67, diurnal
//! peak/trough ≥ 2.6) so they fail on shape changes, not on unlucky
//! seeds. Each case draws its trace seed and load from a `DetRng` seeded
//! with the case number, which every assertion names: a failing case
//! number is the reproducer.

use tacc_sim::{dist, DetRng};
use tacc_workload::{GenParams, Trace, TraceGenerator};

const CASES: u64 = 12;

/// Case `case`'s trace: any seed, a load in `[0.5, 2.0)`.
fn trace(case: u64, days: f64) -> Trace {
    let rng = &mut DetRng::seed_from_u64(case);
    let seed = rng.next_u64();
    let load = dist::uniform(rng, 0.5, 2.0);
    TraceGenerator::new(GenParams::default().with_load_factor(load), seed).generate_days(days)
}

/// Per-job GPU demand of the GPU-using jobs.
fn gpu_demands(trace: &Trace) -> Vec<u32> {
    trace
        .records()
        .iter()
        .filter(|r| !r.schema.kind.is_cpu_only())
        .map(|r| r.schema.total_gpus())
        .collect()
}

/// F1a: durations are heavy-tailed — the mean sits far above the
/// median.
#[test]
fn durations_heavy_tailed() {
    for case in 0..CASES {
        let t = trace(case, 2.0);
        let s = t.stats();
        assert!(
            t.len() > 100,
            "case {case}: degenerate trace: {} records",
            t.len()
        );
        assert!(
            s.duration_summary.mean() > 1.5 * s.duration_summary.p50(),
            "case {case}: mean {:.0}s not >> median {:.0}s",
            s.duration_summary.mean(),
            s.duration_summary.p50()
        );
    }
}

/// F1b: single-GPU jobs dominate — they are both the strict mode of
/// the demand histogram and at least half of all GPU jobs.
#[test]
fn single_gpu_dominates() {
    for case in 0..CASES {
        let demands = gpu_demands(&trace(case, 2.0));
        let ones = demands.iter().filter(|&&g| g == 1).count();
        assert!(
            ones as f64 > 0.5 * demands.len() as f64,
            "case {case}: 1-GPU jobs are only {ones}/{} of GPU demand",
            demands.len()
        );
        for target in [2u32, 4, 8, 16, 32, 64] {
            let count = demands.iter().filter(|&&g| g == target).count();
            assert!(
                count < ones,
                "case {case}: {target}-GPU bucket ({count}) rivals 1-GPU ({ones})"
            );
        }
    }
}

/// F1c: arrivals swing with the hour of day — the busiest hour sees
/// well over the quietest hour's traffic.
#[test]
fn arrivals_swing_diurnally() {
    for case in 0..CASES {
        let mut by_hour = [0u64; 24];
        for r in trace(case, 4.0).records() {
            by_hour[((r.submit_secs / 3600.0) % 24.0) as usize] += 1;
        }
        let peak = *by_hour.iter().max().unwrap() as f64;
        let trough = *by_hour.iter().min().unwrap() as f64;
        assert!(
            peak > 1.5 * trough.max(1.0),
            "case {case}: diurnal swing too flat: peak {peak} vs trough {trough}"
        );
    }
}
