//! Tests of the command line, the result line, and the two files the
//! benchmark must agree with: `BENCHMARK.json` and the root manifest.

use tacc_core::wire::{self, Json};
use tacc_sched::QuotaMode;

use super::*;

fn args(list: &[&str]) -> Result<Args, String> {
    parse_args(list.iter().map(|s| (*s).to_owned()))
}

#[test]
fn parses_the_contract_invocation() {
    let parsed = args(&[
        "--workload",
        "svc-burst",
        "--seed",
        "7",
        "--seconds",
        "16",
        "--trace",
        "1",
    ]);
    assert_eq!(
        parsed,
        Ok(Args {
            workload: "svc-burst".to_owned(),
            seed: 7,
            seconds: 16.0,
            trace: true,
            keep: false,
        })
    );
}

#[test]
fn rejects_bad_invocations() {
    let full = ["--workload", "svc-burst", "--seed", "7", "--seconds", "16"];
    assert!(args(&full).is_err(), "--trace is required");
    assert!(args(&[&full[..], &["--trace", "2"]].concat()).is_err());
    assert!(args(&[&full[..], &["--trace", "0", "--bogus", "1"]].concat()).is_err());
    assert!(args(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(args(&[
        "--workload",
        "svc-burst",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(args(&[&full[..], &["--trace", "0", "--keep"]].concat()).is_ok());
}

/// The body of `[profile.release]` in a manifest: its `key = value` lines.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

fn beside_the_package(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn release_profile_matches_the_root() {
    let root = release_profile(&beside_the_package("../Cargo.toml"));
    let own = release_profile(&beside_the_package("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(own, root, "perfbench must measure the program as it ships");
}

fn is_name(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {value:?}"),
    }
}

fn str_field<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no string '{key}'"))
}

fn array<'a>(value: &'a Json, key: &str) -> &'a [Json] {
    value
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no array '{key}'"))
}

#[test]
fn benchmark_json_lists_exactly_these_metrics_inside_the_contract() {
    let text = beside_the_package("../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let bench = wire::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&bench),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = array(&bench, "command");
    assert!(command.len() <= 32);
    for word in command {
        let word = word.as_str().expect("command words are strings");
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
    }
    assert!(command.iter().any(|w| w.as_str() == Some("--offline")));
    let paths: Vec<_> = array(&bench, "paths").iter().map(Json::as_str).collect();
    assert_eq!(paths, [Some("perfbench")]);

    let workloads = array(&bench, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for workload in workloads {
        assert_eq!(keys(workload), ["name", "why"]);
        let why = str_field(workload, "why");
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    // 4 + 22 runs per workload, each `run_seconds` of timed sections plus at
    // most 11 s of warm-up lap, set-up, checks and yardstick readings, and
    // two builds, fit nine tenths of the driver's 3420 s.
    let run_seconds = bench
        .get("run_seconds")
        .and_then(Json::as_u64)
        .expect("whole");
    assert!((1..=60).contains(&run_seconds));
    let runs = 4 + 22 * workloads.len() as u64;
    assert!(runs * (run_seconds + 11) <= 3420 * 9 / 10);

    let end_to_end = array(&bench, "end_to_end");
    let listed: Vec<(&str, &str)> = end_to_end
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect();
    assert_eq!(listed, END_TO_END);
    for metric in end_to_end {
        assert_eq!(keys(metric), ["name", "unit", "better", "bound"]);
        let bound = metric.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        assert!(["lower", "higher"].contains(&str_field(metric, "better")));
    }
    let setup = &end_to_end[0];
    assert_eq!(
        (
            str_field(setup, "name"),
            str_field(setup, "unit"),
            str_field(setup, "better")
        ),
        ("setup_s", "s", "lower")
    );

    let per_layer = array(&bench, "per_layer");
    let listed: Vec<(&str, &str)> = per_layer
        .iter()
        .map(|m| (str_field(m, "name"), str_field(m, "unit")))
        .collect();
    assert_eq!(listed, PER_LAYER);
    for metric in per_layer {
        assert_eq!(keys(metric), ["name", "unit", "better"]);
        assert!(["lower", "higher"].contains(&str_field(metric, "better")));
    }

    let mut all: Vec<&str> = names.clone();
    all.extend(END_TO_END.iter().chain(&PER_LAYER).map(|(name, _)| *name));
    for (_, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(unit, "_/%.-", 16), "unit {unit}");
    }
    for name in &all {
        assert!(is_name(name, "_.-", 64), "name {name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

/// Laps small enough for an unoptimised build; the mechanisms are the same.
const SMOKE: Sizes = Sizes {
    light: replay::ReplaySize {
        load: 1.0,
        days: 4.0,
        step_secs: 21_600.0,
        quota: QuotaMode::Disabled,
        jitter_secs: None,
    },
    contended: replay::ReplaySize {
        load: 5.0,
        days: 0.5,
        step_secs: 3_600.0,
        quota: QuotaMode::Borrowing,
        jitter_secs: Some(1_800.0),
    },
    svc: svc::SvcSize {
        closed_warmup: 20,
        closed_requests: 150,
        burst_commands: 1_500,
    },
    yardstick: yardstick::YardstickSize {
        cpu_rounds: 5_000,
        pipeline_messages: 500,
        requests_per_client: 50,
    },
};

/// Runs one workload for a second and returns the parsed result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let args = Args {
        workload: workload.to_owned(),
        seed: 3,
        seconds: 1.0,
        trace,
        keep: false,
    };
    let outcome = run(&args, &SMOKE).unwrap_or_else(|e| panic!("{workload}: {e}"));
    let line = outcome.to_json();
    assert!(!line.contains('\n'));
    let parsed = wire::parse(&line).unwrap_or_else(|e| panic!("{workload}: {e}: {line}"));
    assert_eq!(keys(&parsed), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
    assert!(
        parsed
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("whole")
            >= 1
    );
    parsed
}

fn metric_value(metric: &Json, unit: &str) -> f64 {
    assert_eq!(keys(metric), ["value", "unit"]);
    assert_eq!(str_field(metric, "unit"), unit);
    let value = metric.get("value").and_then(Json::as_f64).expect("number");
    assert!(value.is_finite());
    value
}

fn smoke_both_ways(workload: &str) -> Json {
    let untraced = smoke(workload, false);
    let metrics = untraced.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), END_TO_END.map(|(name, _)| name));
    for (name, unit) in END_TO_END {
        let value = metric_value(metrics.get(name).expect("listed"), unit);
        assert!(value > 0.0, "{workload}: {name} = {value}");
    }

    let traced = smoke(workload, true);
    let metrics = traced.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), PER_LAYER.map(|(name, _)| name));
    for (name, unit) in PER_LAYER {
        let value = metric_value(metrics.get(name).expect("listed"), unit);
        assert!(value >= 0.0, "{workload}: {name} = {value}");
    }
    let layer = |name: &str| {
        metric_value(
            metrics.get(name).expect("listed"),
            PER_LAYER.iter().find(|(n, _)| *n == name).expect("known").1,
        )
    };
    assert!(layer("bench.laps") >= laps::MIN_TIMED_LAPS as f64);
    assert!(layer("bench.accounted_frac") > 0.0);
    assert!(layer("workload.jobs") > 0.0);
    assert!(layer("sched.rounds") > 0.0);
    traced
}

fn layer(traced: &Json, name: &str) -> f64 {
    let metric = traced
        .get("metrics")
        .and_then(|m| m.get(name))
        .expect("listed");
    metric.get("value").and_then(Json::as_f64).expect("number")
}

#[test]
fn smoke_replay_light() {
    let traced = smoke_both_ways("replay-light");
    assert!(layer(&traced, "core.run_s") > 0.0);
    assert!(layer(&traced, "sim.queue_probe_ns") > 0.0);
    assert_eq!(
        layer(&traced, "taccd.fsyncs"),
        0.0,
        "no journal on a replay"
    );
}

#[test]
fn smoke_replay_contended() {
    let traced = smoke_both_ways("replay-contended");
    assert!(layer(&traced, "sched.round_share") > 0.0);
    assert!(layer(&traced, "compiler.compile_probe_us") > 0.0);
}

#[test]
fn smoke_svc_closed() {
    let traced = smoke_both_ways("svc-closed");
    let frames_per_fsync = layer(&traced, "taccd.frames_per_fsync");
    assert!(
        frames_per_fsync > 0.0 && frames_per_fsync <= 2.0,
        "two waiting clients fill a batch of at most two: {frames_per_fsync}"
    );
    for name in [
        "tcloud.query_rtt_us",
        "tcloud.submit_p50_ms",
        "tcloud.status_p50_ms",
    ] {
        assert!(layer(&traced, name) > 0.0, "{name}");
    }
}

#[test]
fn smoke_svc_burst() {
    let traced = smoke_both_ways("svc-burst");
    assert!(layer(&traced, "taccd.frames_per_fsync") > 16.0);
    assert!(layer(&traced, "core.apply_probe_us") > 0.0);
    assert!(layer(&traced, "taccd.engine_rtt_us") > 0.0);
    assert_eq!(layer(&traced, "tcloud.connect_s"), 0.0, "no socket");
}

#[test]
fn smoke_svc_recover() {
    let traced = smoke_both_ways("svc-recover");
    assert!(layer(&traced, "taccd.recover_decode_s") > 0.0);
    assert!(layer(&traced, "taccd.recover_apply_s") > 0.0);
    let accounted = layer(&traced, "bench.accounted_frac");
    assert!(accounted > 0.0 && accounted <= 1.25, "{accounted}");
}
