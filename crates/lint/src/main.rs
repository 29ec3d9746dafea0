//! `lint` — the tacc-rs workspace static-analysis gate.
//!
//! ```text
//! cargo run -p tacc-lint --release -- --check              # CI gate
//! cargo run -p tacc-lint --release -- --json report.json   # artifact
//! cargo run -p tacc-lint --release -- --sarif lint.sarif   # code scanning
//! cargo run -p tacc-lint --release -- --bless-baseline     # ratchet L5
//! cargo run -p tacc-lint --release -- --lines [paths]      # non-test lines
//! ```

// The lint binary is a CLI: its report goes to stdout by design.
#![allow(clippy::print_stdout)]

use std::path::PathBuf;
use std::process::ExitCode;

use tacc_lint::{lines, run, Options};

struct Cli {
    root: PathBuf,
    check: bool,
    quiet: bool,
    json_path: Option<PathBuf>,
    sarif_path: Option<PathBuf>,
    /// `--lines`, with the paths after it.
    lines: Option<Vec<PathBuf>>,
    options: Options,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        check: false,
        quiet: false,
        json_path: None,
        sarif_path: None,
        lines: None,
        options: Options::default(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                cli.root = PathBuf::from(args.next().ok_or("--root needs a path")?);
            }
            "--json" => {
                cli.json_path = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--sarif" => {
                cli.sarif_path = Some(PathBuf::from(args.next().ok_or("--sarif needs a path")?));
            }
            "--jobs" => {
                let n: usize = args
                    .next()
                    .ok_or("--jobs needs a count")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                tacc_par::set_parallelism(n);
            }
            "--check" => cli.check = true,
            "--quiet" => cli.quiet = true,
            "--bless-baseline" => cli.options.bless_baseline = true,
            "--lines" => cli.lines = Some(Vec::new()),
            "--help" | "-h" => {
                println!(
                    "lint: tacc-rs workspace determinism & architecture checks\n\n\
                     usage: lint [--root PATH] [--check] [--json PATH] [--sarif PATH]\n\
                     \x20      [--jobs N] [--bless-baseline] [--quiet]\n\
                     \x20      lint [--root PATH] --lines [PATH...]\n\n\
                     --root PATH        workspace root (default: .)\n\
                     --check            exit nonzero when findings exist (CI gate)\n\
                     --json PATH        also write the byte-stable JSON report\n\
                     --sarif PATH       also write a SARIF 2.1.0 report (code scanning)\n\
                     --jobs N           bound the scan parallelism\n\
                     --bless-baseline   rewrite lint-baseline.json from the current tree\n\
                     --quiet            suppress the text report\n\
                     --lines [PATH...]  count each crate's non-test lines (those before a\n\
                     \x20                  file's first column-0 #[cfg(test)]) under the\n\
                     \x20                  paths, default every crates/*/src, and the total"
                );
                std::process::exit(0);
            }
            path if !path.starts_with('-') && cli.lines.is_some() => {
                cli.lines
                    .get_or_insert_with(Vec::new)
                    .push(PathBuf::from(path));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("lint: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some(paths) = &cli.lines {
        return match lines::count(&cli.root, paths) {
            Ok(tallies) => {
                print!("{}", lines::render(&tallies));
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("lint: {err}");
                ExitCode::from(2)
            }
        };
    }
    let report = match run(&cli.root, &cli.options) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("lint: {err}");
            return ExitCode::from(2);
        }
    };
    if !cli.quiet {
        print!("{}", report.to_text());
    }
    if let Some(path) = &cli.json_path {
        if let Err(err) = std::fs::write(path, report.to_json()) {
            eprintln!("lint: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &cli.sarif_path {
        if let Err(err) = std::fs::write(path, report.to_sarif()) {
            eprintln!("lint: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(content) = &report.blessed_baseline {
        let path = cli.root.join("lint-baseline.json");
        if let Err(err) = std::fs::write(&path, content) {
            eprintln!("lint: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
        if !cli.quiet {
            println!("lint: blessed {}", path.display());
        }
    }
    if cli.check && !report.clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
