//! The lap loop, the medians over laps, and the host correction.
//!
//! A lap is a fixed amount of work built from a sub-seed of `--seed`. Lap 0
//! is an untimed warm-up that doubles as the correctness reference; timed
//! laps then repeat until their timed sections add up to `--seconds`, and at
//! least [`MIN_TIMED_LAPS`] are run whatever that takes. Set-up is paid and
//! timed once per lap, outside the timed section. The yardstick is read
//! after every lap, and the end-to-end times are divided by how much slower
//! than its reference it ran (see [`crate::yardstick`]).

use std::collections::BTreeMap;

use crate::metrics::Layers;
use crate::spans::Recorder;
use crate::stats::{coefficient_of_variation, median, nearest_rank, quantile_over_laps};
use crate::yardstick::{Reading, Yardstick};

pub const MIN_TIMED_LAPS: usize = 5;

/// What one lap measured.
#[derive(Debug, Default)]
pub struct Lap {
    /// Set-up time, when the lap paid one (`svc-recover` sets up once).
    pub setup_s: Option<f64>,
    /// Wall time of the timed section.
    pub timed_s: f64,
    /// Process CPU time over the timed section.
    pub cpu_s: f64,
    /// Operations issued in the timed section.
    pub attempted: u64,
    /// Operations completed in the timed section.
    pub ops: u64,
    /// Operations that failed: error replies, transport errors, jobs not
    /// terminal at idle.
    pub failed: u64,
    /// Latency samples of the timed section, milliseconds.
    pub samples_ms: Vec<f64>,
    /// Why the lap's outputs are wrong, if they are.
    pub wrong: Option<String>,
    /// Per-layer counters read after the timed section (traced runs only).
    pub layers: Layers,
}

pub trait Workload {
    /// Runs lap `lap`: set-up, timed section, checks.
    fn lap(&mut self, lap: u32, rec: &mut Recorder) -> Result<Lap, String>;

    /// Set-up times that are not per lap (`svc-recover`'s history builds).
    fn setup_samples(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Latency limit of one operation, milliseconds.
    fn limit_ms(&self) -> f64;

    /// Pushes lap 1's inputs through single layers alone. `first` is timed
    /// lap 1. Returns probe results and the seconds the probes account for.
    fn probes(&mut self, first: &Lap, rec: &mut Recorder) -> Result<(Layers, f64), String>;
}

/// What a run measured: the timed laps, whether every lap (warm-up
/// included) produced correct outputs, and the yardstick's readings — the
/// one the caller took before building the workload, then one after every
/// lap, so timed lap `i` lies between readings `i` and `i + 1`.
pub struct Run {
    pub laps: Vec<Lap>,
    pub correct: bool,
    pub readings: Vec<Reading>,
}

/// Runs the warm-up lap and the timed laps, reading the yardstick after each.
pub fn run_laps(
    workload: &mut dyn Workload,
    yardstick: &Yardstick,
    first_reading: Reading,
    seconds: f64,
    rec: &mut Recorder,
) -> Result<Run, String> {
    let mut run = Run {
        laps: Vec::new(),
        correct: true,
        readings: vec![first_reading],
    };
    let mut timed_total = 0.0;
    for lap_id in 0u32.. {
        rec.set_lap(lap_id);
        let lap = rec.span("lap", |rec| workload.lap(lap_id, rec))?;
        run.readings
            .push(rec.span("yardstick", |_| yardstick.run())?);
        if let Some(why) = &lap.wrong {
            eprintln!("perfbench: lap {lap_id} incorrect: {why}");
            run.correct = false;
        }
        if lap_id == 0 {
            continue;
        }
        timed_total += lap.timed_s;
        run.laps.push(lap);
        if run.laps.len() >= MIN_TIMED_LAPS && timed_total >= seconds {
            break;
        }
    }
    Ok(run)
}

/// How much slower than the yardstick's reference the host ran: `1.0` is the
/// reference machine, `1.3` a host that took 30 % longer over the same work.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Around the set-up that is not part of a lap (`svc-recover`'s history
    /// builds), by the wall clock: between the first two readings.
    pub setup_wall: f64,
    /// Around each timed lap, by the wall clock: the mean of the readings
    /// before and after it, over the reference.
    pub lap_wall: Vec<f64>,
    /// Over the run, by the process CPU clock: the mean reading over the
    /// reference (one reading is a handful of `USER_HZ` ticks; only their
    /// sum is fine enough).
    pub cpu: f64,
}

impl Host {
    /// The reference machine itself: divides nothing out.
    pub fn reference(laps: usize) -> Host {
        Host {
            setup_wall: 1.0,
            lap_wall: vec![1.0; laps],
            cpu: 1.0,
        }
    }

    pub fn from_readings(readings: &[Reading], reference: Reading) -> Host {
        let around: Vec<f64> = readings
            .windows(2)
            .map(|pair| (pair[0].wall_s + pair[1].wall_s) / 2.0 / reference.wall_s)
            .collect();
        let cpu_s: f64 = readings.iter().map(|r| r.cpu_s).sum();
        Host {
            setup_wall: around.first().copied().unwrap_or(1.0),
            lap_wall: around.get(1..).unwrap_or_default().to_vec(),
            cpu: cpu_s / readings.len().max(1) as f64 / reference.cpu_s,
        }
    }
}

/// Each lap's operations per second, as the reference machine would have
/// read it.
fn rates(laps: &[Lap], host: &Host) -> Vec<f64> {
    let per_lap = laps.iter().zip(&host.lap_wall);
    per_lap.map(|(l, h)| l.ops as f64 / l.timed_s * h).collect()
}

/// Median over laps of the lap's nearest-rank `q` latency sample, as the
/// reference machine would have read it.
pub fn op_quantile_ms(laps: &[Lap], host: &Host, q: f64) -> f64 {
    let corrected: Vec<Vec<f64>> = laps
        .iter()
        .zip(&host.lap_wall)
        .map(|(l, h)| l.samples_ms.iter().map(|ms| ms / h).collect())
        .collect();
    let per_lap: Vec<&[f64]> = corrected.iter().map(Vec::as_slice).collect();
    quantile_over_laps(&per_lap, q)
}

/// The five end-to-end metrics that come from laps (`peak_rss_mb` is read
/// when the run ends), in `END_TO_END` order, as the reference machine would
/// have read them: every wall time is divided by the host's slowdown around
/// the lap it was measured in, the run's CPU time by the CPU slowdown.
pub fn end_to_end(laps: &[Lap], extra_setups: &[f64], host: &Host) -> [f64; 5] {
    let mut setups: Vec<f64> = extra_setups.iter().map(|s| s / host.setup_wall).collect();
    let per_lap = laps.iter().zip(&host.lap_wall);
    setups.extend(per_lap.filter_map(|(l, h)| Some(l.setup_s? / h)));
    let ops: u64 = laps.iter().map(|l| l.ops).sum();
    let cpu_s: f64 = laps.iter().map(|l| l.cpu_s).sum();
    [
        median(&setups),
        median(&rates(laps, host)),
        op_quantile_ms(laps, host, 0.5),
        op_quantile_ms(laps, host, 0.9),
        cpu_s * 1e6 / ops.max(1) as f64 / host.cpu,
    ]
}

/// The `bench.*` metrics except `bench.accounted_frac`, and the median over
/// laps of every per-lap layer counter. Per-layer times are as measured;
/// only `bench.traced_ops_per_s` is corrected, to compare with `ops_per_s`.
pub fn per_layer(run: &Run, host: &Host, limit_ms: f64) -> Layers {
    let laps = run.laps.as_slice();
    let raw = Host::reference(laps.len());
    let walls: Vec<f64> = run.readings.iter().map(|r| r.wall_s).collect();
    let mut out = Layers::default();
    let all: Vec<f64> = laps
        .iter()
        .flat_map(|l| l.samples_ms.iter().copied())
        .collect();
    let failed: u64 = laps.iter().map(|l| l.failed).sum();
    let within = all.iter().filter(|ms| **ms <= limit_ms).count();
    let ops: Vec<f64> = laps.iter().map(|l| l.ops as f64).collect();
    out.set("bench.laps", laps.len() as f64);
    out.set("bench.ops_per_lap", median(&ops));
    out.set(
        "bench.lap_rate_cv",
        coefficient_of_variation(&rates(laps, &raw)),
    );
    out.set("bench.traced_ops_per_s", median(&rates(laps, host)));
    out.set("bench.host_slowdown", median(&host.lap_wall));
    out.set("bench.host_cpu_slowdown", host.cpu);
    out.set("bench.yardstick_cv", coefficient_of_variation(&walls));
    out.set("bench.op_p99_ms", op_quantile_ms(laps, &raw, 0.99));
    out.set("bench.op_max_ms", nearest_rank(&all, 1.0));
    out.set(
        "bench.within_limit_frac",
        within as f64 / (all.len() as u64 + failed).max(1) as f64,
    );
    let mut per_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (name, value) in laps.iter().flat_map(|l| l.layers.iter()) {
        per_name.entry(name).or_default().push(value);
    }
    for (name, values) in per_name {
        out.set(name, median(&values));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yardstick::{Kind, YardstickSize};

    struct Fixed {
        laps_run: u32,
    }

    impl Workload for Fixed {
        fn lap(&mut self, lap: u32, _rec: &mut Recorder) -> Result<Lap, String> {
            self.laps_run += 1;
            Ok(Lap {
                setup_s: Some(0.5),
                timed_s: 0.25,
                cpu_s: 0.2,
                attempted: 100,
                ops: 100,
                samples_ms: (1..=20).map(|x| f64::from(x * (lap + 1))).collect(),
                ..Lap::default()
            })
        }
        fn limit_ms(&self) -> f64 {
            30.0
        }
        fn probes(&mut self, _: &Lap, _: &mut Recorder) -> Result<(Layers, f64), String> {
            Ok((Layers::default(), 0.0))
        }
    }

    fn run_fixed(seconds: f64) -> (Run, u32) {
        let size = YardstickSize {
            cpu_rounds: 100,
            pipeline_messages: 0,
            requests_per_client: 0,
        };
        let yardstick = Yardstick::new(Kind::Cpu, size, "unused".into());
        let mut w = Fixed { laps_run: 0 };
        let first = yardstick.run().expect("reads");
        let rec = &mut Recorder::new(false);
        let run = run_laps(&mut w, &yardstick, first, seconds, rec).expect("runs");
        (run, w.laps_run)
    }

    #[test]
    fn laps_repeat_until_the_timed_sections_reach_the_target() {
        let (run, laps_run) = run_fixed(2.0);
        assert!(run.correct);
        assert_eq!(run.laps.len(), 8);
        assert_eq!(laps_run, 9, "lap 0 is run and not counted");
        assert_eq!(
            run.readings.len(),
            10,
            "one reading before, one after every lap"
        );
    }

    #[test]
    fn at_least_five_timed_laps_are_run() {
        assert_eq!(run_fixed(0.1).0.laps.len(), MIN_TIMED_LAPS);
    }

    #[test]
    fn figures_are_medians_over_laps() {
        let (run, _) = run_fixed(0.1);
        let raw = Host::reference(run.laps.len());
        let [setup, rate, p50, p90, cpu] = end_to_end(&run.laps, &[], &raw);
        assert_eq!(setup, 0.5);
        assert_eq!(rate, 400.0);
        // Laps 1..=5 scale their samples by 2..=6; the median lap is 4.
        assert_eq!((p50, p90), (40.0, 72.0));
        assert!((cpu - 2000.0).abs() < 1e-9);
        let layers = per_layer(&run, &raw, 30.0);
        assert_eq!(layers.get("bench.op_p99_ms"), 80.0);
        assert_eq!(layers.get("bench.laps"), 5.0);
        assert_eq!(layers.get("bench.op_max_ms"), 120.0);
        assert_eq!(layers.get("bench.lap_rate_cv"), 0.0);
        let within = layers.get("bench.within_limit_frac");
        assert!(within > 0.3 && within < 0.6, "{within}");
    }

    #[test]
    fn a_slow_host_is_divided_out_of_the_times() {
        let reading = |wall_s, cpu_s| Reading { wall_s, cpu_s };
        let reference = reading(0.125, 0.25);
        // Before the set-up, after lap 0, after laps 1 and 2: the host slows
        // down during lap 2.
        let readings = [
            reading(0.125, 0.25),
            reading(0.375, 0.5),
            reading(0.375, 0.5),
            reading(0.625, 0.75),
        ];
        let host = Host::from_readings(&readings, reference);
        assert_eq!(host.setup_wall, 2.0);
        assert_eq!(host.lap_wall, [3.0, 4.0]);
        assert_eq!(host.cpu, 2.0);

        let lap = |timed_s: f64| Lap {
            setup_s: Some(timed_s),
            timed_s,
            cpu_s: 1.0,
            ops: 120,
            samples_ms: vec![timed_s * 10.0; 10],
            ..Lap::default()
        };
        // Two laps of the same work, each as much slower as its host was.
        let laps = [lap(3.0), lap(4.0)];
        let [setup, rate, p50, p90, cpu] = end_to_end(&laps, &[8.0], &host);
        assert_eq!(
            setup, 1.0,
            "4.0 from the history build, 1.0 from either lap"
        );
        assert_eq!(rate, 120.0);
        assert_eq!((p50, p90), (10.0, 10.0));
        assert!((cpu - 2e6 / 240.0 / 2.0).abs() < 1e-9);

        let run = Run {
            laps: laps.into(),
            correct: true,
            readings: readings.to_vec(),
        };
        let layers = per_layer(&run, &host, 100.0);
        assert_eq!(layers.get("bench.traced_ops_per_s"), 120.0);
        assert_eq!(layers.get("bench.host_slowdown"), 3.5);
        assert_eq!(
            layers.get("bench.op_p99_ms"),
            35.0,
            "per-layer times stay as measured"
        );
        assert!(
            layers.get("bench.lap_rate_cv") > 0.1,
            "and so does the laps' disagreement"
        );
    }

    #[test]
    fn history_builds_stand_in_for_per_lap_set_up() {
        let laps = vec![Lap {
            timed_s: 1.0,
            ops: 1,
            ..Lap::default()
        }];
        assert_eq!(
            end_to_end(&laps, &[3.0, 1.0, 2.0], &Host::reference(1))[0],
            2.0
        );
    }
}
