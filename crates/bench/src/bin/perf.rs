//! The scheduler hot-path perf harness: deterministic work counters with
//! informational wall time.
//!
//! ```text
//! perf [OPTIONS]
//!
//!   --list                list scenarios and exit
//!   --check               run every scenario twice and fail unless the
//!                         deterministic counters match exactly
//!   --expect PATH         fail unless the fresh counters exactly match the
//!                         committed report at PATH (the CI planner gate)
//!   --nightly             include the nightly-tier scenarios (million-job
//!                         replay) in the run set
//!   --only ID             run just this scenario (repeatable; fast or
//!                         nightly tier)
//!   --out PATH            also write the report JSON to PATH
//!   --quiet               suppress the per-scenario table
//! ```
//!
//! Counters count *algorithmic work* (sorts, releases the reservation
//! sweep read, placement attempts, node scans, fast-path rejects, walk
//! resumptions, reclaim-view rebuilds), never time, so
//! `--check` and `--expect` are tolerance-free gates that hold on any
//! machine, however noisy. Wall times ride along in the report for human
//! context only. On a GitHub Actions runner the first mismatch is also
//! emitted as a `::error file=...` annotation.

// CLI surface: the scenario table goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use tacc_bench::gha;
use tacc_bench::hotpath::{self, Scenario, ScenarioOutcome, NIGHTLY_SCENARIOS, SCENARIOS};
use tacc_json::Json;

#[derive(Debug)]
struct Options {
    list: bool,
    check: bool,
    expect: Option<String>,
    nightly: bool,
    only: Vec<String>,
    out: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        check: false,
        expect: None,
        nightly: false,
        only: Vec::new(),
        out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--check" => opts.check = true,
            "--quiet" => opts.quiet = true,
            "--nightly" => opts.nightly = true,
            "--only" => opts
                .only
                .push(args.next().ok_or("--only needs a scenario id")?),
            "--expect" => opts.expect = Some(args.next().ok_or("--expect needs a path")?),
            "--out" => opts.out = Some(args.next().ok_or("--out needs a path")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// One column per scenario, one row per field of the report
/// (`hotpath::counters_json`: id, size, every work counter), then wall time.
fn print_outcomes(outcomes: &[ScenarioOutcome]) {
    let columns: Vec<Json> = outcomes.iter().map(hotpath::counters_json).collect();
    let Some(Json::Obj(fields)) = columns.first() else {
        return;
    };
    for (key, _) in fields {
        print!("{key:<22}");
        for cell in columns.iter().filter_map(|column| column.get(key)) {
            print!(
                " {:>22}",
                cell.as_str().map_or(cell.to_string(), str::to_owned)
            );
        }
        println!();
    }
    print!("{:<22}", "wall(s)");
    for o in outcomes {
        print!(" {:>22.2}", o.wall_secs);
    }
    println!();
}

/// Prints a file-scoped `::error` annotation when a GitHub Actions runner
/// is listening; silent otherwise.
fn annotate(file: &str, title: &str, message: &str) {
    if gha::enabled() {
        println!("{}", gha::format_error(file, title, message));
    }
}

/// The `--expect` gate: fresh counters versus a committed report.
fn check_expected(path: &str, outcomes: &[ScenarioOutcome]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read expected report {path}: {e}"))?;
    let expected =
        tacc_json::parse(&text).map_err(|e| format!("malformed expected report {path}: {e}"))?;
    hotpath::compare_with_report(&expected, outcomes).map_err(|(_, detail)| detail)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.list {
        println!("hot-path scenarios:");
        for s in SCENARIOS {
            println!("  {:<22} {}", s.id, s.title);
        }
        println!("nightly-tier scenarios (--nightly):");
        for s in NIGHTLY_SCENARIOS {
            println!("  {:<22} {}", s.id, s.title);
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&'static Scenario> = if opts.only.is_empty() {
        let mut set: Vec<&'static Scenario> = SCENARIOS.iter().collect();
        if opts.nightly {
            set.extend(NIGHTLY_SCENARIOS.iter());
        }
        set
    } else {
        let mut set = Vec::new();
        for id in &opts.only {
            match hotpath::find_scenario(id) {
                Some(s) => set.push(s),
                None => {
                    eprintln!("error: unknown scenario `{id}` (see --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        set
    };
    let outcomes: Vec<ScenarioOutcome> =
        selected.iter().map(|s| hotpath::run_scenario(s)).collect();
    if !opts.quiet {
        print_outcomes(&outcomes);
    }

    let mut failures = 0u32;
    if opts.check {
        // Deterministic-or-bust: a second full pass must reproduce every
        // counter exactly. Wall time is deliberately excluded.
        let second: Vec<ScenarioOutcome> =
            selected.iter().map(|s| hotpath::run_scenario(s)).collect();
        for (a, b) in outcomes.iter().zip(second.iter()) {
            let first = hotpath::counters_json(a).to_string();
            let repeat = hotpath::counters_json(b).to_string();
            if first == repeat {
                println!("ok   {:<22} counters reproduced exactly", a.id);
            } else {
                println!("FAIL {:<22}", a.id);
                eprintln!("  first : {first}");
                eprintln!("  repeat: {repeat}");
                if failures == 0 {
                    annotate(
                        "BENCH_hotpath.json",
                        "nondeterministic hot-path counters",
                        &format!("{}: first {first} != repeat {repeat}", a.id),
                    );
                }
                failures += 1;
            }
        }
    }
    if let Some(path) = opts.expect.as_deref() {
        match check_expected(path, &outcomes) {
            Ok(()) => println!("ok   committed report {path} matches the fresh counters"),
            Err(detail) => {
                println!("FAIL committed report {path}");
                eprintln!("  {detail}");
                eprintln!("  (intended change? regenerate with `perf --check --out {path}`)");
                if failures == 0 {
                    annotate(path, "planner counter drift", &detail);
                }
                failures += 1;
            }
        }
    }

    if let Some(path) = opts.out.as_deref() {
        match std::fs::write(path, hotpath::report_json(&outcomes).to_pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} scenario(s) failed the deterministic counter gate");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
