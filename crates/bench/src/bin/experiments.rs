//! The unified experiment runner: regenerates any subset of the
//! EXPERIMENTS.md evaluation in parallel and gates it against golden JSON
//! snapshots.
//!
//! ```text
//! experiments [IDS...] [OPTIONS]
//!
//!   IDS                 experiment ids (f1..f10, t1..t7); default: tier selection
//!   --list              list registered experiments and exit
//!   --check             compare fresh runs against crates/bench/golden/ (byte equality)
//!   --bless             rewrite the golden snapshots from fresh runs
//!   --tier fast|long|all  which tier to run when no ids are given (default: all)
//!   --jobs N            max concurrently-computing sweep cells (default: all cores)
//!   --serial            shorthand for --jobs 1
//!   --quiet             suppress per-experiment text output
//!   --sweep-out PATH    also write the aggregate timing JSON to PATH
//!   --determinism [DAYS]  run the canonical simulation twice — once from the
//!                       trace, once from its command stream — and compare the
//!                       exported event streams byte-for-byte (default 30 days)
//!   --export PATH       with --determinism: also write the export stream to PATH
//!   --export-transitions PATH  with --determinism: also write the lifecycle
//!                       transition-log JSONL to PATH
//!   --export-timelines PATH  with --determinism: also write the per-job span
//!                       timeline JSONL to PATH
//!   --export-goodput PATH  with --determinism: also write the byte-stable
//!                       goodput decomposition JSON to PATH
//! ```
//!
//! The simulator is bit-deterministic, so `--check` uses tolerance-free
//! equality: any diff is a real behavior change — either a regression, or
//! an intended change that should be re-blessed and reviewed.

// CLI surface: progress lines and experiment text go to stdout by design.
#![allow(clippy::print_stdout)]

use std::process::ExitCode;

use tacc_bench::determinism::{campus_determinism_run, Feed, DEFAULT_DETERMINISM_DAYS};
use tacc_bench::gha;
use tacc_bench::par;
use tacc_bench::registry::{self, ExperimentSpec, RunOutcome, Tier};
use tacc_json::{obj, Json};

/// Golden snapshots live next to the crate so `--bless` output is a normal
/// reviewable diff.
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TierFilter {
    Fast,
    Long,
    All,
}

#[derive(Debug)]
struct Options {
    ids: Vec<String>,
    list: bool,
    check: bool,
    bless: bool,
    tier: TierFilter,
    jobs: Option<usize>,
    quiet: bool,
    sweep_out: Option<String>,
    determinism: Option<f64>,
    export: Option<String>,
    export_transitions: Option<String>,
    export_timelines: Option<String>,
    export_goodput: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        ids: Vec::new(),
        list: false,
        check: false,
        bless: false,
        tier: TierFilter::All,
        jobs: None,
        quiet: false,
        sweep_out: None,
        determinism: None,
        export: None,
        export_transitions: None,
        export_timelines: None,
        export_goodput: None,
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--check" => opts.check = true,
            "--bless" => opts.bless = true,
            "--quiet" => opts.quiet = true,
            "--serial" => opts.jobs = Some(1),
            "--tier" => {
                let v = args.next().ok_or("--tier needs a value")?;
                opts.tier = match v.as_str() {
                    "fast" => TierFilter::Fast,
                    "long" => TierFilter::Long,
                    "all" => TierFilter::All,
                    other => return Err(format!("unknown tier `{other}`")),
                };
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a value")?;
                opts.jobs = Some(v.parse().map_err(|_| format!("bad --jobs `{v}`"))?);
            }
            "--sweep-out" => {
                opts.sweep_out = Some(args.next().ok_or("--sweep-out needs a path")?);
            }
            "--determinism" => {
                // Optional numeric operand: `--determinism 7`.
                let days = match args.peek().and_then(|v| v.parse::<f64>().ok()) {
                    Some(d) => {
                        args.next();
                        d
                    }
                    None => DEFAULT_DETERMINISM_DAYS,
                };
                opts.determinism = Some(days);
            }
            "--export" => {
                opts.export = Some(args.next().ok_or("--export needs a path")?);
            }
            "--export-transitions" => {
                opts.export_transitions =
                    Some(args.next().ok_or("--export-transitions needs a path")?);
            }
            "--export-timelines" => {
                opts.export_timelines = Some(args.next().ok_or("--export-timelines needs a path")?);
            }
            "--export-goodput" => {
                opts.export_goodput = Some(args.next().ok_or("--export-goodput needs a path")?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            id => opts.ids.push(id.to_ascii_lowercase()),
        }
    }
    if opts.check && opts.bless {
        return Err("--check and --bless are mutually exclusive".to_owned());
    }
    Ok(opts)
}

fn selected(opts: &Options) -> Result<Vec<&'static ExperimentSpec>, String> {
    if !opts.ids.is_empty() {
        for id in &opts.ids {
            if registry::find(id).is_none() {
                return Err(format!(
                    "unknown experiment `{id}` (use --list to see the registry)"
                ));
            }
        }
        // Keep registry (EXPERIMENTS.md) order regardless of argument order.
        return Ok(registry::ALL
            .iter()
            .filter(|spec| opts.ids.iter().any(|id| id == spec.id))
            .collect());
    }
    Ok(registry::ALL
        .iter()
        .filter(|spec| match opts.tier {
            TierFilter::Fast => spec.tier == Tier::Fast,
            TierFilter::Long => spec.tier == Tier::Long,
            TierFilter::All => true,
        })
        .collect())
}

fn list() {
    println!("registered experiments (run subset: `experiments f3 t1 ...`):");
    for spec in registry::ALL {
        println!("  {:<4} {:<5} {}", spec.id, spec.tier.label(), spec.title);
    }
}

fn golden_path(id: &str) -> std::path::PathBuf {
    std::path::Path::new(GOLDEN_DIR).join(format!("{id}.json"))
}

/// Reports the first differing line between a golden file and a fresh run.
fn first_diff(golden: &str, fresh: &str) -> String {
    for (i, (g, f)) in golden.lines().zip(fresh.lines()).enumerate() {
        if g != f {
            return format!("line {}: golden `{g}` != fresh `{f}`", i + 1);
        }
    }
    format!(
        "line counts differ: golden {} lines, fresh {}",
        golden.lines().count(),
        fresh.lines().count()
    )
}

fn check_outcome(outcome: &RunOutcome) -> Result<(), String> {
    let path = golden_path(outcome.spec.id);
    let fresh = outcome.json.to_pretty();
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == fresh => Ok(()),
        Ok(golden) => Err(format!(
            "golden mismatch for `{}` ({}):\n    {}\n    (intended change? re-run with --bless)",
            outcome.spec.id,
            path.display(),
            first_diff(&golden, &fresh)
        )),
        Err(e) => Err(format!(
            "missing/unreadable golden for `{}` ({}): {e}\n    (bootstrap with --bless)",
            outcome.spec.id,
            path.display()
        )),
    }
}

fn write_sweep(path: &str, outcomes: &[RunOutcome], wall_secs: f64, jobs: usize) {
    // `busy_secs` counts only slot-held computation (parents waiting on
    // nested sweeps donate their slot), so it is the honest serial-sum
    // estimate.
    let serial_sum = par::busy_secs();
    let ids = outcomes.iter().map(|o| o.spec.id.into()).collect();
    let doc = obj(vec![
        ("suite", "tacc-bench experiments".into()),
        ("jobs", jobs.into()),
        ("experiments", Json::Arr(ids)),
        ("serial_sum_secs", serial_sum.into()),
        ("wall_secs", wall_secs.into()),
        (
            "speedup_vs_serial",
            if wall_secs > 0.0 {
                (serial_sum / wall_secs).into()
            } else {
                Json::Null
            },
        ),
    ]);
    if let Err(e) = std::fs::write(path, doc.to_pretty()) {
        eprintln!("warning: could not write sweep summary {path}: {e}");
    } else {
        println!(
            "wrote {path}: {} experiments, serial sum {serial_sum:.1}s, wall {wall_secs:.1}s",
            outcomes.len()
        );
    }
}

fn export_stream(path: Option<&str>, what: &str, bytes: &str) -> Result<(), ExitCode> {
    if let Some(path) = path {
        if let Err(e) = std::fs::write(path, bytes) {
            eprintln!("error: could not write {what} export {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
        println!("exported {} {what} bytes to {path}", bytes.len());
    }
    Ok(())
}

fn run_determinism(days: f64, opts: &Options) -> ExitCode {
    println!(
        "determinism: canonical {days}-day simulation, two fresh replays \
         (the trace, then its command stream)"
    );
    let runs = par::par_map(vec![Feed::Trace, Feed::Commands], |feed| {
        campus_determinism_run(days, feed)
    });
    let (a, b) = (&runs[0], &runs[1]);
    for (path, what, bytes) in [
        (opts.export.as_deref(), "event-stream", &a.events),
        (
            opts.export_transitions.as_deref(),
            "transition-log",
            &a.transitions,
        ),
        (
            opts.export_timelines.as_deref(),
            "span-timeline",
            &a.timelines,
        ),
        (opts.export_goodput.as_deref(), "goodput", &a.goodput),
    ] {
        if let Err(code) = export_stream(path, what, bytes) {
            return code;
        }
    }
    // Offline-replay gate: timelines refolded from the exported transition
    // text must match the live fold byte-for-byte.
    if a.reconstructed_timelines != a.timelines {
        eprintln!(
            "determinism: FAILED — timeline reconstruction from the transition log \
             diverges from the live fold ({} vs {} bytes)",
            a.reconstructed_timelines.len(),
            a.timelines.len()
        );
        return ExitCode::FAILURE;
    }
    println!(
        "determinism: timeline reconstruction OK — {} bytes refolded identically",
        a.timelines.len()
    );
    if a == b {
        println!(
            "determinism: OK — {} event-stream + {} transition-log bytes identical",
            a.events.len(),
            a.transitions.len()
        );
        ExitCode::SUCCESS
    } else {
        let (x, y, stream) = if a.events == b.events {
            (&a.transitions, &b.transitions, "transition log")
        } else {
            (&a.events, &b.events, "event stream")
        };
        let pos = x
            .bytes()
            .zip(y.bytes())
            .position(|(p, q)| p != q)
            .unwrap_or(x.len().min(y.len()));
        eprintln!(
            "determinism: FAILED — the command-fed replay's {stream} diverges from the \
             trace-fed one's at byte {pos} (lengths {} vs {}): either a trace is no longer \
             its command stream or the platform is nondeterministic — `cmp` two `--export`s \
             (both trace-fed) to tell which",
            x.len(),
            y.len()
        );
        ExitCode::FAILURE
    }
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
        list();
        return ExitCode::SUCCESS;
    }
    if let Some(jobs) = opts.jobs {
        par::set_parallelism(jobs);
    }
    if let Some(days) = opts.determinism {
        return run_determinism(days, &opts);
    }

    let specs = match selected(&opts) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if specs.is_empty() {
        eprintln!("error: selection matched no experiments");
        return ExitCode::FAILURE;
    }

    let start = std::time::Instant::now();
    let outcomes = par::par_map(specs, registry::run_recorded);
    let wall_secs = start.elapsed().as_secs_f64();

    if !opts.quiet && !opts.check {
        for outcome in &outcomes {
            print!("{}", outcome.text);
        }
    }

    let mut failures = 0u32;
    if opts.bless {
        if let Err(e) = std::fs::create_dir_all(GOLDEN_DIR) {
            eprintln!("error: could not create {GOLDEN_DIR}: {e}");
            return ExitCode::FAILURE;
        }
        for outcome in &outcomes {
            let path = golden_path(outcome.spec.id);
            match std::fs::write(&path, outcome.json.to_pretty()) {
                Ok(()) => println!("blessed {}", path.display()),
                Err(e) => {
                    eprintln!("error: could not write {}: {e}", path.display());
                    failures += 1;
                }
            }
        }
    } else if opts.check {
        for outcome in &outcomes {
            match check_outcome(outcome) {
                Ok(()) => println!("ok   {:<4} ({:.1}s)", outcome.spec.id, outcome.wall_secs),
                Err(e) => {
                    println!("FAIL {:<4} ({:.1}s)", outcome.spec.id, outcome.wall_secs);
                    eprintln!("  {e}");
                    // First mismatch becomes a file-scoped annotation so a
                    // red run is triaged from the Actions summary alone.
                    if failures == 0 && gha::enabled() {
                        println!(
                            "{}",
                            gha::format_error(
                                &format!("crates/bench/golden/{}.json", outcome.spec.id),
                                "golden snapshot mismatch",
                                &e,
                            )
                        );
                    }
                    failures += 1;
                }
            }
        }
    }

    if let Some(path) = opts.sweep_out.as_deref() {
        write_sweep(path, &outcomes, wall_secs, par::parallelism());
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) diverged from golden snapshots");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
