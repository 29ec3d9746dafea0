//! Red-flip proof: seed one violation of each lint family into a
//! scratch workspace and assert the `lint` binary fails `--check` with
//! the correct `file:line` in its JSON report — i.e. every family
//! actually gates CI. A companion green run proves a clean tree passes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tacc-lint-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn write(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("mkdir");
    }
    fs::write(path, content).expect("write fixture");
}

fn run_lint(root: &Path, json: &Path) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(["--root"])
        .arg(root)
        .args(["--check", "--quiet", "--json"])
        .arg(json)
        .status()
        .expect("spawn lint binary")
}

#[test]
fn one_violation_of_each_family_flips_check_red() {
    let root = scratch("red");
    // `tacc-core` must not depend upward on `tacc-tcloud` (layer-dag,
    // manifest line 5), and nothing may name a registry crate (line 6).
    write(
        &root.join("crates/alpha/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n\n[dependencies]\ntacc-tcloud.workspace = true\n\
         serde = \"1\"\n",
    );
    // One violation per family, one per line, lines 1-8 (metric-name is
    // seeded twice: the call-literal form and the const-declaration form).
    // Line 7 seeds a concurrency primitive in a deterministic-layer crate
    // (`tacc-core`); line 8 a bare `_` arm over a lifecycle enum.
    write(
        &root.join("crates/alpha/src/lib.rs"),
        "use std::collections::HashMap;\n\
         fn clock() -> std::time::Instant { std::time::Instant::now() }\n\
         fn roll() -> u8 { thread_rng().gen() }\n\
         fn risky(o: Option<u8>) -> u8 { o.unwrap() }\n\
         fn register(r: &Registry) { r.counter(\"bad_metric\", &[]); }\n\
         pub const GOODPUT_METRIC: &str = \"tacc_obs_BadName\";\n\
         fn guard(_m: &std::sync::Mutex<u8>) {}\n\
         fn wild(s: JobState) -> u8 { match s { JobState::Queued => 1, _ => 0 } }\n",
    );

    let json_path = root.join("report.json");
    let status = run_lint(&root, &json_path);
    assert!(
        !status.success(),
        "--check must exit nonzero on a tree with violations"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");

    let expected = [
        ("hash-iter", "crates/alpha/src/lib.rs", 1),
        ("wall-clock", "crates/alpha/src/lib.rs", 2),
        ("ambient-rng", "crates/alpha/src/lib.rs", 3),
        ("panic-surface", "crates/alpha/src/lib.rs", 4),
        ("metric-name", "crates/alpha/src/lib.rs", 5),
        ("metric-name", "crates/alpha/src/lib.rs", 6),
        ("concurrency", "crates/alpha/src/lib.rs", 7),
        ("match-wildcard", "crates/alpha/src/lib.rs", 8),
        ("layer-dag", "crates/alpha/Cargo.toml", 5),
        ("layer-dag", "crates/alpha/Cargo.toml", 6),
    ];
    for (lint, file, line) in expected {
        let needle = format!("{{\"lint\": \"{lint}\", \"file\": \"{file}\", \"line\": {line},");
        assert!(
            json.contains(&needle),
            "JSON report must locate the {lint} violation at {file}:{line}\n{json}"
        );
    }

    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn clean_tree_passes_and_reasoned_allows_are_reported_not_fatal() {
    let root = scratch("green");
    write(
        &root.join("crates/beta/Cargo.toml"),
        "[package]\nname = \"tacc-sched\"\n\n[dependencies]\ntacc-cluster.workspace = true\n",
    );
    write(
        &root.join("crates/beta/src/lib.rs"),
        "// tacc-lint: allow(wall-clock, reason = \"round-latency measurement only\")\n\
         fn measure() -> std::time::Instant { std::time::Instant::now() }\n\
         fn register(r: &Registry) { r.counter(\"tacc_sched_rounds_total\", &[]); }\n\
         pub const DEPTH_METRIC: &str = \"tacc_sched_queue_depth\";\n\
         pub fn free(c: &tacc_cluster::Cluster) -> u32 { c.free_gpus() }\n",
    );

    let json_path = root.join("report.json");
    let status = run_lint(&root, &json_path);
    assert!(status.success(), "a clean tree must pass --check");
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(json.contains("\"findings\": [],"));
    assert!(
        json.contains("\"reason\": \"round-latency measurement only\""),
        "suppressions must be visible in the report\n{json}"
    );

    fs::remove_dir_all(&root).expect("cleanup");
}

/// Single-writer ownership (`lint-owners.toml` `[[owner]]` rules): a
/// mutation of an owned target outside the owning module flips red with
/// the exact `file:line`; the same write inside the owner stays green.
#[test]
fn single_writer_violation_flips_red_owner_write_stays_green() {
    let root = scratch("owner");
    write(
        &root.join("lint-owners.toml"),
        "[[owner]]\n\
         name = \"job-state-field\"\n\
         fields = [\"state\"]\n\
         writers = [\"crates/delta/src/owner.rs\"]\n\
         why = \"red-flip fixture\"\n",
    );
    write(
        &root.join("crates/delta/Cargo.toml"),
        "[package]\nname = \"tacc-obs\"\n",
    );
    write(
        &root.join("crates/delta/src/owner.rs"),
        "pub fn set(job: &mut Job) { job.state = JobState::Running; }\n",
    );
    write(
        &root.join("crates/delta/src/rogue.rs"),
        "pub fn poke(job: &mut Job) { job.state = JobState::Failed; }\n",
    );

    let json_path = root.join("report.json");
    let status = run_lint(&root, &json_path);
    assert!(!status.success(), "rogue write must fail --check");
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    let needle =
        "{\"lint\": \"single-writer\", \"file\": \"crates/delta/src/rogue.rs\", \"line\": 1,";
    assert!(
        json.contains(needle),
        "single-writer must locate the rogue write\n{json}"
    );
    assert!(
        !json.contains("\"file\": \"crates/delta/src/owner.rs\""),
        "the owning module's own write must not be flagged\n{json}"
    );

    // Delete the rogue file: the owner's write alone is green.
    fs::remove_file(root.join("crates/delta/src/rogue.rs")).expect("rm rogue");
    assert!(run_lint(&root, &json_path).success());

    fs::remove_dir_all(&root).expect("cleanup");
}

/// Panic reachability (`[reachability] roots`): a panic site inside a
/// function reachable from a root consumes budget and flips red; a site
/// in dead code is skipped (counted in `panic_sites_skipped`).
#[test]
fn reachable_panic_flips_red_unreachable_is_skipped() {
    let root = scratch("reach");
    write(
        &root.join("lint-owners.toml"),
        "[reachability]\nroots = [\"gamma::entry\"]\n",
    );
    write(
        &root.join("crates/gamma/Cargo.toml"),
        "[package]\nname = \"tacc-gamma\"\n",
    );
    write(
        &root.join("crates/gamma/src/lib.rs"),
        "pub fn entry(o: Option<u8>) -> u8 { helper(o) }\n\
         fn helper(o: Option<u8>) -> u8 { o.unwrap() }\n\
         fn dead() { panic!(\"never runs\") }\n",
    );

    let json_path = root.join("report.json");
    let status = run_lint(&root, &json_path);
    assert!(
        !status.success(),
        "a reachable panic site must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"panic-surface\", \"file\": \"crates/gamma/src/lib.rs\", \"line\": 2,"
        ),
        "the reachable unwrap must be budgeted\n{json}"
    );
    assert!(
        !json.contains("\"line\": 3,"),
        "the dead panic must be filtered by reachability\n{json}"
    );
    assert!(
        json.contains("\"panic_sites_skipped\": 1"),
        "the skipped site must be visible in the symbols stats\n{json}"
    );

    // Remove the reachable site: only dead code panics remain — green.
    write(
        &root.join("crates/gamma/src/lib.rs"),
        "pub fn entry(o: Option<u8>) -> u8 { helper(o) }\n\
         fn helper(o: Option<u8>) -> u8 { o.unwrap_or(0) }\n\
         fn dead() { panic!(\"never runs\") }\n",
    );
    assert!(
        run_lint(&root, &json_path).success(),
        "unreachable panic sites alone must pass --check"
    );

    fs::remove_dir_all(&root).expect("cleanup");
}

/// Concurrency confinement after the service split: a rogue
/// `thread::spawn` in the deterministic core still flips red, while the
/// identical source under `taccd` — the one crate whose threads and
/// channels are load-bearing by design — passes clean.
#[test]
fn thread_spawn_in_core_flips_red_but_taccd_is_exempt_by_design() {
    let src = "use std::sync::{mpsc, Mutex};\n\
               pub fn serve() { std::thread::spawn(|| {}); }\n";

    let red = scratch("spawn-core");
    write(
        &red.join("crates/eps/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    write(&red.join("crates/eps/src/lib.rs"), src);
    let json_path = red.join("report.json");
    let status = run_lint(&red, &json_path);
    assert!(
        !status.success(),
        "thread::spawn in the deterministic core must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(
        json.contains(
            "{\"lint\": \"concurrency\", \"file\": \"crates/eps/src/lib.rs\", \"line\": 2,"
        ),
        "the rogue spawn must be located\n{json}"
    );
    fs::remove_dir_all(&red).expect("cleanup");

    let green = scratch("spawn-taccd");
    write(
        &green.join("crates/zeta/Cargo.toml"),
        "[package]\nname = \"tacc-taccd\"\n\n[dependencies]\ntacc-core.workspace = true\n",
    );
    // The declared edge is used.
    let src = format!("{src}pub use tacc_core::wire;\n");
    write(&green.join("crates/zeta/src/lib.rs"), &src);
    let json_path = green.join("report.json");
    assert!(
        run_lint(&green, &json_path).success(),
        "taccd's threads and channels are exempt by design"
    );
    fs::remove_dir_all(&green).expect("cleanup");
}

#[test]
fn panic_budget_growth_flips_red_but_within_budget_passes() {
    let root = scratch("budget");
    write(
        &root.join("crates/gamma/Cargo.toml"),
        "[package]\nname = \"tacc-metrics\"\n",
    );
    write(
        &root.join("crates/gamma/src/lib.rs"),
        "fn a(o: Option<u8>) -> u8 { o.unwrap() }\n\
         fn b(o: Option<u8>) -> u8 { o.expect(\"b\") }\n",
    );
    // Budget of 2 covers the current sites: green.
    write(
        &root.join("lint-baseline.json"),
        "{\n  \"panic-surface\": {\n    \"crates/gamma/src/lib.rs\": 2\n  }\n}\n",
    );
    let json_path = root.join("report.json");
    assert!(run_lint(&root, &json_path).success());

    // A third site exceeds the budget: red.
    write(
        &root.join("crates/gamma/src/lib.rs"),
        "fn a(o: Option<u8>) -> u8 { o.unwrap() }\n\
         fn b(o: Option<u8>) -> u8 { o.expect(\"b\") }\n\
         fn c() { panic!(\"new\") }\n",
    );
    let status = run_lint(&root, &json_path);
    assert!(!status.success(), "baseline growth must fail --check");
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    assert!(json.contains("exceed the committed baseline budget of 2"));

    fs::remove_dir_all(&root).expect("cleanup");
}

/// A `[dependencies]` edge the DAG allows but no lib, bin or example
/// source names flips red at its manifest line: here the four such edges
/// the workspace once carried. A use in an `[[example]]` counts, and a
/// dev-dependency is exempt; with the unused edges gone the tree is green.
#[test]
fn unused_dependency_edges_flip_red_at_their_manifest_lines() {
    let root = scratch("unused-edge");
    let write_manifests = |manifests: [(&str, &str); 3]| {
        for (name, deps) in manifests {
            let manifest = format!("[package]\nname = \"tacc-{name}\"\n\n{deps}");
            write(&root.join(format!("crates/{name}/Cargo.toml")), &manifest);
        }
    };
    let sched_tail =
        "tacc-obs.workspace = true\n\n[dev-dependencies]\ntacc-sim.workspace = true\n\n\
                      [[example]]\nname = \"demo\"\npath = \"../../examples/demo.rs\"\n";
    write_manifests([
        (
            "sched",
            &format!(
                "[dependencies]\ntacc-cluster.workspace = true\ntacc-metrics.workspace = true\n\
                 {sched_tail}"
            ),
        ),
        ("cluster", "[dependencies]\ntacc-metrics.workspace = true\n"),
        (
            "taccd",
            "[dependencies]\ntacc-core.workspace = true\ntacc-sim.workspace = true\n\
             tacc-cluster.workspace = true\n",
        ),
    ]);
    write(
        &root.join("crates/sched/src/lib.rs"),
        "pub fn free(c: &tacc_cluster::Cluster) -> u32 { c.free_gpus() }\n",
    );
    write(
        &root.join("examples/demo.rs"),
        "use tacc_obs::Bus;\nfn main() {}\n",
    );
    write(
        &root.join("crates/cluster/src/lib.rs"),
        "pub struct Cluster;\n",
    );
    write(
        &root.join("crates/taccd/src/lib.rs"),
        "pub use tacc_core::wire;\n",
    );

    let json_path = root.join("report.json");
    assert!(
        !run_lint(&root, &json_path).success(),
        "unused edges must fail --check"
    );
    let json = fs::read_to_string(&json_path).expect("JSON report written");
    for (file, line) in [
        ("crates/cluster/Cargo.toml", 5),
        ("crates/sched/Cargo.toml", 6),
        ("crates/taccd/Cargo.toml", 6),
        ("crates/taccd/Cargo.toml", 7),
    ] {
        let needle = format!("{{\"lint\": \"layer-dag\", \"file\": \"{file}\", \"line\": {line},");
        assert!(
            json.contains(&needle),
            "unused edge at {file}:{line}\n{json}"
        );
    }
    assert_eq!(json.matches("\"lint\": \"layer-dag\"").count(), 4, "{json}");

    // Without the four edges: green.
    write_manifests([
        (
            "sched",
            &format!("[dependencies]\ntacc-cluster.workspace = true\n{sched_tail}"),
        ),
        ("cluster", ""),
        ("taccd", "[dependencies]\ntacc-core.workspace = true\n"),
    ]);
    assert!(
        run_lint(&root, &json_path).success(),
        "{}",
        fs::read_to_string(&json_path).unwrap_or_default()
    );
    fs::remove_dir_all(&root).expect("cleanup");
}
