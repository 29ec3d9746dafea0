//! # tacc-lint
//!
//! The workspace determinism & architecture static-analysis pass.
//!
//! The reconstructed evaluation rests on two invariants nothing in the
//! compiler enforces: the simulator is *bit-deterministic* (golden
//! snapshots and the 30-day replay depend on it), and the 4-layer
//! architecture is a *strict DAG* (DESIGN.md documents it). `tacc-lint`
//! makes both machine-checked: a dependency-free, hand-rolled source
//! scanner (comment/string/ident-aware lexer — no `syn`) walks every
//! crate, merges per-file item extraction into a workspace symbol graph,
//! and enforces ten lint families:
//!
//! | Lint | Guards against |
//! |---|---|
//! | `hash-iter` | `HashMap`/`HashSet`/`RandomState` in sim-path crates |
//! | `wall-clock` | `Instant::now` / `SystemTime` outside annotated sites |
//! | `ambient-rng` | `thread_rng` / `rand::random` bypassing `DetRng` |
//! | `layer-dag` | dependency edges violating the documented layer DAG, unused by the crate's sources, or leaving the workspace |
//! | `panic-surface` | reachable `unwrap`/`expect`/`panic!`/`todo!` growth vs baseline |
//! | `metric-name` | registry literals not shaped `tacc_<layer>_<name>` |
//! | `single-writer` | owned mutations performed outside the owning module |
//! | `concurrency` | locks/channels/spawns in deterministic layers; guards held across fork–join |
//! | `match-wildcard` | `_` arms in matches over the lifecycle enums |
//! | `allow` | malformed, unknown, or stale suppression comments |
//!
//! v2 layers a cross-crate **symbol table + call graph** on the lexer
//! ([`symbols`] → [`graph`] → [`reach`]): per-file extraction fans out
//! over [`tacc_par::par_map`], merges deterministically, and panic sites
//! are budgeted only when reachable from the sim-path roots declared in
//! `lint-owners.toml` — a CLI-only `expect` no longer consumes budget.
//! The same config file declares the [`owners`] rules behind the
//! `single-writer` family.
//!
//! Legitimate exceptions carry an inline
//! `// tacc-lint: allow(<lint>, reason = "...")` with a mandatory reason;
//! suppressions are reported, and stale or malformed ones are findings
//! themselves, so the suppression surface can never silently rot.
//!
//! Findings render as deterministic text, byte-stable JSON, or SARIF
//! 2.1.0, so `--check` output diffs in CI artifacts are always real
//! regressions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod graph;
pub mod lexer;
pub mod lines;
pub mod lints;
pub mod manifest;
pub mod owners;
pub mod reach;
pub mod render;
pub mod symbols;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use lints::{FileKind, Lint, ScanCtx};
use render::{Finding, Report};

/// Engine options.
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Recompute the panic-surface baseline instead of enforcing it; the
    /// fresh content is returned in [`Report::blessed_baseline`].
    pub bless_baseline: bool,
    /// Attach the byte-stable workspace-graph dump to the report
    /// ([`Report::graph_dump`]); the determinism test compares two.
    pub dump_graph: bool,
}

/// One file queued for scanning.
struct FileJob {
    crate_name: String,
    kind: FileKind,
    rel_path: String,
    abs_path: PathBuf,
}

/// Scans the workspace rooted at `root` (the directory containing
/// `crates/`) and returns the full report.
///
/// # Errors
///
/// Fails when the root has no `crates/` directory or a source file
/// cannot be read.
pub fn run(root: &Path, opts: &Options) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "{} has no crates/ directory — pass the workspace root via --root",
            root.display()
        ));
    }

    let mut report = Report::default();
    let mut jobs: Vec<FileJob> = Vec::new();
    // Each crate's manifest, and the workspace crates its lib, bin and
    // example sources name.
    let mut packages: Vec<(PathBuf, manifest::Manifest)> = Vec::new();
    let mut named: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    for crate_dir in sorted_dirs(&crates_dir)? {
        let Some(manifest) = scan_manifest(root, &crate_dir.join("Cargo.toml"), &mut report) else {
            continue; // not a crate (stray directory)
        };
        let src_dir = crate_dir.join("src");
        if src_dir.is_dir() {
            collect_rs_files(root, &manifest.package, &src_dir, &mut jobs)?;
        }
        let names = named.entry(manifest.package.clone()).or_default();
        for example in &manifest.examples {
            if let Ok(src) = fs::read_to_string(crate_dir.join(example)) {
                names.extend(lints::crates_named(&lexer::lex(&src).tokens));
            }
        }
        packages.push((crate_dir.join("Cargo.toml"), manifest));
    }
    // The workspace table and the integration-test package name
    // dependencies too.
    scan_manifest(root, &root.join("Cargo.toml"), &mut report);
    scan_manifest(root, &root.join("tests").join("Cargo.toml"), &mut report);

    report.files_scanned = jobs.len();

    let owners_cfg = load_owners(root)?;

    // Fan the file scans out across the slot-donating pool; results come
    // back in item order, so the report stays deterministic.
    let owners_ref = &owners_cfg;
    let scans = tacc_par::par_map(jobs, move |job| {
        let src = fs::read_to_string(&job.abs_path)
            .map_err(|e| format!("reading {}: {e}", job.rel_path))?;
        let scan = {
            let ctx = ScanCtx {
                crate_name: &job.crate_name,
                kind: job.kind,
                rel_path: &job.rel_path,
                dep_allowed: &manifest::edge_allowed,
                owners: owners_ref,
            };
            lints::scan_source(&ctx, &src)
        };
        Ok::<_, String>((job, scan))
    });

    // First pass: unpack the scans and merge per-file symbols into the
    // workspace graph (walk order is sorted, so the graph — and its
    // dump — is deterministic).
    let mut scanned = Vec::with_capacity(report.files_scanned);
    let mut entries = Vec::with_capacity(report.files_scanned);
    for scan in scans {
        let (job, mut scan) = scan?;
        let names = named.entry(job.crate_name.clone()).or_default();
        names.extend(std::mem::take(&mut scan.crates_named));
        entries.push(graph::FileEntry {
            crate_name: job.crate_name.clone(),
            rel_path: job.rel_path.clone(),
            bin: job.kind == FileKind::Bin,
            symbols: std::mem::take(&mut scan.symbols),
        });
        scanned.push((job, scan));
    }
    for (path, manifest) in &packages {
        flag_unused_edges(
            &rel(root, path),
            manifest,
            &named[&manifest.package],
            &mut report,
        );
    }
    let workspace = graph::build(&entries, &manifest::edge_allowed);
    report.symbols.fns = workspace.fns.len();
    report.symbols.call_edges = workspace.edges.len();

    // Reachability: with roots configured, a panic site only counts
    // against the budget when its innermost enclosing function is
    // reachable from a root; without roots every site counts (legacy
    // per-file behavior, which scratch fixtures rely on).
    let reachable = if owners_cfg.roots.is_empty() {
        None
    } else {
        Some(reach::compute(&workspace, &owners_cfg.roots))
    };
    report.symbols.reachable_fns = match &reachable {
        Some(flags) => flags.iter().filter(|&&r| r).count(),
        None => workspace.fns.len(),
    };
    let mut spans: BTreeMap<&str, Vec<(u32, u32, bool)>> = BTreeMap::new();
    if let Some(flags) = &reachable {
        for (i, f) in workspace.fns.iter().enumerate() {
            spans
                .entry(f.file.as_str())
                .or_default()
                .push((f.start_line, f.end_line, flags[i]));
        }
    }
    if opts.dump_graph {
        report.graph_dump = Some(workspace.to_text());
    }

    let loaded_baseline = load_baseline(root, opts)?;
    let mut panic_counts: BTreeMap<String, u64> = BTreeMap::new();

    for (job, scan) in scanned {
        report.findings.extend(scan.findings);
        report.suppressed.extend(scan.suppressed);
        if scan.panic_lines.is_empty() {
            continue;
        }
        let kept: Vec<u32> = match spans.get(job.rel_path.as_str()) {
            None => scan.panic_lines.clone(),
            Some(file_spans) => scan
                .panic_lines
                .iter()
                .copied()
                .filter(|&line| {
                    // Innermost enclosing fn = max start among spans
                    // containing the line; a site outside every fn is
                    // conservatively kept.
                    file_spans
                        .iter()
                        .filter(|&&(a, b, _)| line >= a && line <= b)
                        .max_by_key(|&&(a, _, _)| a)
                        .is_none_or(|&(_, _, reachable)| reachable)
                })
                .collect(),
        };
        report.symbols.panic_sites_skipped += scan.panic_lines.len() - kept.len();
        if !kept.is_empty() {
            panic_counts.insert(job.rel_path.clone(), kept.len() as u64);
            budget_panic_sites(&job.rel_path, &kept, &loaded_baseline, opts, &mut report);
        }
    }

    // Budgeted files that disappeared (or dropped to zero) show up as
    // shrinkage so the baseline can be ratcheted down.
    for (file, budget) in &loaded_baseline.panic_surface {
        if *budget > 0 && !panic_counts.contains_key(file) {
            report.baseline_shrunk.push((file.clone(), 0, *budget));
        }
    }

    if opts.bless_baseline {
        report.blessed_baseline = Some(baseline::render(&panic_counts));
    }

    report.findings.sort();
    report.suppressed.sort();
    report.baseline_shrunk.sort();
    Ok(report)
}

/// L4 over one manifest: its declared `tacc-*` edges against the layer
/// DAG, and every dependency entry that leaves the workspace. `None`
/// when there is no readable package manifest at `path`.
fn scan_manifest(root: &Path, path: &Path, report: &mut Report) -> Option<manifest::Manifest> {
    let manifest = manifest::parse(&fs::read_to_string(path).ok()?);
    let file = rel(root, path);
    for (dep, line) in &manifest.deps {
        if !manifest::edge_allowed(&manifest.package, dep) {
            report.findings.push(Finding {
                file: file.clone(),
                line: *line,
                lint: Lint::LayerDag.name(),
                message: format!(
                    "`{}` must not depend on `tacc-{dep}`: the edge violates the \
                     documented layer DAG (see DESIGN.md)",
                    manifest.package
                ),
            });
        }
    }
    for (name, line) in &manifest.foreign {
        report.findings.push(Finding {
            file: file.clone(),
            line: *line,
            lint: Lint::LayerDag.name(),
            message: format!(
                "`{name}` is not a `tacc-*` path crate: the workspace builds from its \
                 own sources and the standard library only (see DESIGN.md)"
            ),
        });
    }
    (!manifest.package.is_empty()).then_some(manifest)
}

/// L4's unused-edge half: a `tacc-*` `[dependencies]` edge the DAG allows
/// but that none of the package's lib, bin or example sources name
/// (`named`). Dev-dependencies are exempt, as they are from the DAG.
fn flag_unused_edges(
    file: &str,
    manifest: &manifest::Manifest,
    named: &BTreeSet<String>,
    report: &mut Report,
) {
    for (dep, line) in &manifest.deps {
        if manifest::edge_allowed(&manifest.package, dep) && !named.contains(dep) {
            report.findings.push(Finding {
                file: file.to_owned(),
                line: *line,
                lint: Lint::LayerDag.name(),
                message: format!(
                    "`{}` declares `tacc-{dep}` but no lib, bin or example source names \
                     `tacc_{dep}`: drop the edge (test-only uses go under [dev-dependencies])",
                    manifest.package
                ),
            });
        }
    }
}

/// Loads `lint-owners.toml` from the workspace root. A missing file is
/// an empty config (single-writer off, reachability off); a malformed
/// one is a hard error — half-enforced ownership is worse than none.
fn load_owners(root: &Path) -> Result<owners::OwnersConfig, String> {
    match fs::read_to_string(root.join("lint-owners.toml")) {
        Ok(text) => owners::parse(&text),
        Err(_) => Ok(owners::OwnersConfig::default()),
    }
}

fn load_baseline(root: &Path, opts: &Options) -> Result<baseline::Baseline, String> {
    if opts.bless_baseline {
        return Ok(baseline::Baseline::default());
    }
    match fs::read_to_string(root.join("lint-baseline.json")) {
        Ok(text) => baseline::parse(&text),
        Err(_) => Ok(baseline::Baseline::default()),
    }
}

fn budget_panic_sites(
    rel_path: &str,
    lines: &[u32],
    loaded: &baseline::Baseline,
    opts: &Options,
    report: &mut Report,
) {
    if opts.bless_baseline {
        return;
    }
    let found = lines.len() as u64;
    let budget = loaded.panic_surface.get(rel_path).copied().unwrap_or(0);
    if found > budget {
        report.findings.push(Finding {
            file: rel_path.to_owned(),
            line: lines[0],
            lint: Lint::PanicSurface.name(),
            message: format!(
                "{found} panic site(s) (unwrap/expect/panic!/todo!) exceed the committed \
                 baseline budget of {budget} — handle the error, annotate with \
                 tacc-lint: allow(panic-surface, ...), or re-bless lint-baseline.json"
            ),
        });
    } else if found < budget {
        report
            .baseline_shrunk
            .push((rel_path.to_owned(), found, budget));
    }
}

/// Child directories of `dir`, sorted by name for deterministic output.
fn sorted_dirs(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    Ok(dirs)
}

/// Recursively collects `.rs` files under `dir` (sorted), classifying
/// `src/bin/**` as binary targets.
fn collect_rs_files(
    root: &Path,
    crate_name: &str,
    dir: &Path,
    jobs: &mut Vec<FileJob>,
) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(root, crate_name, &path, jobs)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel_path = rel(root, &path);
            let kind = if rel_path.contains("/src/bin/") {
                FileKind::Bin
            } else {
                FileKind::Lib
            };
            jobs.push(FileJob {
                crate_name: crate_name.to_owned(),
                kind,
                rel_path,
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn rel(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
