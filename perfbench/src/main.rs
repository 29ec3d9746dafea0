//! `perfbench`: a lap-medianed benchmark of tacc-rs's replay, submit and
//! restart paths, driving the shipped crates through their public functions
//! only. See `README.md` beside this package for every name it prints.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--keep]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics on
//! a `--trace 0` run, the per-layer metrics on a `--trace 1` run. `--keep`
//! leaves the run directory (journals, `spans.jsonl`) in place.

mod inputs;
mod laps;
mod metrics;
mod replay;
mod spans;
mod stats;
mod svc;
mod sys;
mod yardstick;

use std::process::ExitCode;

use laps::{Host, Workload};
use metrics::{Layers, END_TO_END, PER_LAYER, WORKLOADS};
use spans::Recorder;
use stats::{median, nearest_rank};
use yardstick::Yardstick;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    keep: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut keep = false;
    let mut args = args;
    while let Some(flag) = args.next() {
        if flag == "--keep" {
            keep = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        keep,
    })
}

/// How much work a lap is, per workload family.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    light: replay::ReplaySize,
    contended: replay::ReplaySize,
    svc: svc::SvcSize,
    yardstick: yardstick::YardstickSize,
}

const FULL: Sizes = Sizes {
    light: replay::LIGHT,
    contended: replay::CONTENDED,
    svc: svc::FULL,
    yardstick: yardstick::FULL,
};

/// The result line's contents.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-layer times read from spans, `(span, metric)`: the median over timed
/// laps of the lap's mean span duration, in seconds.
const SPAN_MEANS: [(&str, &str); 8] = [
    ("workload.generate", "workload.gen_s"),
    ("core.platform_new", "core.platform_new_s"),
    ("core.load_trace", "core.load_trace_s"),
    ("core.run", "core.run_s"),
    ("obs.report", "obs.report_s"),
    ("obs.transitions_export", "obs.transitions_export_s"),
    ("taccd.daemon_start", "taccd.daemon_start_s"),
    ("tcloud.connect", "tcloud.connect_s"),
];

/// Per-verb request latency: the median over timed laps of the lap's p50, in
/// milliseconds.
const SPAN_P50S: [(&str, &str); 4] = [
    ("tcloud.submit", "tcloud.submit_p50_ms"),
    ("tcloud.status", "tcloud.status_p50_ms"),
    ("tcloud.cancel", "tcloud.cancel_p50_ms"),
    ("tcloud.advance", "tcloud.advance_p50_ms"),
];

/// Median over timed laps of `reduce(durations of the lap's spans, seconds)`,
/// times `scale`.
fn span_metrics(
    rec: &Recorder,
    pairs: &[(&str, &'static str)],
    reduce: fn(&[f64]) -> f64,
    scale: f64,
    out: &mut Layers,
) {
    for (span, metric) in pairs {
        let per_lap: Vec<f64> = rec
            .lap_durations(span)
            .iter()
            .filter(|(lap, _)| **lap >= 1)
            .map(|(_, durations)| reduce(durations))
            .collect();
        if !per_lap.is_empty() {
            out.set(metric, median(&per_lap) * scale);
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let dir = sys::RunDir::create(args.keep)?;
    let mut rec = Recorder::new(args.trace);
    let kind = match args.workload.as_str() {
        "svc-closed" => yardstick::Kind::Requests,
        "svc-burst" => yardstick::Kind::Pipeline,
        _ => yardstick::Kind::Cpu,
    };
    let yardstick = Yardstick::new(kind, sizes.yardstick, dir.file("yardstick.dat"));
    let first_reading = rec.span("yardstick", |_| yardstick.run())?;
    let mut workload: Box<dyn Workload + '_> = match args.workload.as_str() {
        "replay-light" => Box::new(replay::Replay::new(sizes.light, args.seed)),
        "replay-contended" => Box::new(replay::Replay::new(sizes.contended, args.seed)),
        "svc-closed" => Box::new(svc::Closed::new(sizes.svc, args.seed, &dir)),
        "svc-burst" => Box::new(svc::Burst::new(sizes.svc, args.seed, &dir)),
        "svc-recover" => Box::new(svc::Recover::new(sizes.svc, args.seed, &dir, &mut rec)?),
        other => return Err(format!("unknown workload `{other}`")),
    };

    let run = laps::run_laps(
        workload.as_mut(),
        &yardstick,
        first_reading,
        args.seconds,
        &mut rec,
    )?;
    let host = Host::from_readings(&run.readings, yardstick.reference());
    let laps = &run.laps;
    let attempted: u64 = laps.iter().map(|l| l.attempted).sum();
    let failed: u64 = laps.iter().map(|l| l.failed).sum();

    let metrics = if args.trace {
        let mut layers = laps::per_layer(&run, &host, workload.limit_ms());
        // Probe spans carry lap 1's id: they run on its inputs.
        rec.set_lap(1);
        let (probed, accounted_s) = rec.span("probes", |rec| workload.probes(&laps[0], rec))?;
        span_metrics(&rec, &SPAN_MEANS, mean, 1.0, &mut layers);
        span_metrics(&rec, &SPAN_P50S, |d| nearest_rank(d, 0.5), 1e3, &mut layers);
        layers.merge(&probed);
        layers.set("bench.accounted_frac", accounted_s / laps[0].timed_s);
        rec.write_jsonl(&dir.file("spans.jsonl"))
            .map_err(|e| format!("writing spans: {e}"))?;
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, layers.get(name), *unit))
            .collect()
    } else {
        let setups = workload.setup_samples();
        let unmoved = Host::reference(laps.len());
        let raw = laps::end_to_end(laps, &setups, &unmoved);
        eprintln!(
            "perfbench: the host ran the yardstick {:.3} x (wall) and {:.3} x (CPU) as slow as \
             the reference; uncorrected setup_s {:.6}, ops_per_s {:.2}, op_p50_ms {:.6}, \
             op_p90_ms {:.6}, cpu_us_per_op {:.4}",
            median(&host.lap_wall),
            host.cpu,
            raw[0],
            raw[1],
            raw[2],
            raw[3],
            raw[4],
        );
        let from_laps = laps::end_to_end(laps, &setups, &host);
        let values = from_laps.iter().copied().chain([sys::peak_rss_mb()]);
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), value)| (*name, value, *unit))
            .collect()
    };
    Ok(Outcome {
        correct: run.correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(&args, &FULL));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
