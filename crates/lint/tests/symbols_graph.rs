//! Workspace symbol-graph coverage: the cross-crate call graph built
//! from the dep-free lexer is deterministic (two scans of the same tree
//! produce byte-identical dumps) and resolves the shapes that matter —
//! nested impls, generic functions, `cfg(test)` regions, and cross-crate
//! calls gated by the layer DAG.

use std::fs;
use std::path::{Path, PathBuf};

use tacc_lint::{run, Options};

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

/// Two crates joined by a DAG-legal edge (`core -> workload`), with a
/// generic fn, a nested impl, a test-only fn, and a bin target.
fn seed_workspace(root: &Path) {
    write(
        &root.join("crates/workload/Cargo.toml"),
        "[package]\nname = \"tacc-workload\"\n",
    );
    write(
        &root.join("crates/workload/src/lib.rs"),
        "pub struct Job;\n\
         impl Job {\n\
         \x20   pub fn advance(&mut self) { self.tick() }\n\
         \x20   fn tick(&mut self) {}\n\
         }\n\
         pub fn lookup<K: Ord, V>(map: &std::collections::BTreeMap<K, V>, k: &K) -> Option<&V> {\n\
         \x20   map.get(k)\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn advances() { super::Job.advance() }\n\
         }\n",
    );
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n\n[dependencies]\ntacc-workload.workspace = true\n",
    );
    write(
        &root.join("crates/core/src/lib.rs"),
        "pub fn drive(job: &mut Job) { Job::advance(job) }\n",
    );
    write(
        &root.join("crates/core/src/bin/drvcli.rs"),
        "fn main() { println!(\"cli\") }\n",
    );
}

#[test]
fn two_scans_produce_byte_identical_graph_dumps() {
    let root = scratch("graph-det");
    seed_workspace(&root);
    let opts = Options {
        dump_graph: true,
        ..Options::default()
    };
    let first = run(&root, &opts).expect("first scan");
    let second = run(&root, &opts).expect("second scan");
    let a = first.graph_dump.expect("dump requested");
    let b = second.graph_dump.expect("dump requested");
    assert_eq!(a, b, "graph dump must be byte-stable across scans");
    assert_eq!(first.symbols.fns, second.symbols.fns);
    assert_eq!(first.symbols.call_edges, second.symbols.call_edges);
    fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
fn graph_resolves_impls_generics_tests_and_cross_crate_calls() {
    let root = scratch("graph-shape");
    seed_workspace(&root);
    let opts = Options {
        dump_graph: true,
        ..Options::default()
    };
    let report = run(&root, &opts).expect("scan");
    let dump = report.graph_dump.expect("dump requested");

    // Impl methods carry their type, generics lose their params, test
    // fns and bin fns are marked with trailing flags.
    let fn_line = |path: &str| {
        dump.lines()
            .find(|l| l.starts_with("fn ") && l.contains(&format!(" {path} ")))
            .unwrap_or_else(|| panic!("{path} not in dump\n{dump}"))
    };
    fn_line("core::drive");
    fn_line("workload::Job::advance");
    fn_line("workload::lookup");
    assert!(
        fn_line("workload::advances").ends_with(" test"),
        "cfg(test) fn must carry the test flag\n{dump}"
    );
    assert!(
        fn_line("core::bin::drvcli::main").ends_with(" bin"),
        "bin target fn must carry the bin flag\n{dump}"
    );

    // Edges: same-impl method call and the qualified cross-crate call
    // resolve; test fns contribute no edges.
    assert!(
        dump.contains("edge workload::Job::advance -> workload::Job::tick"),
        "same-impl method call resolves\n{dump}"
    );
    assert!(
        dump.contains("edge core::drive -> workload::Job::advance"),
        "qualified cross-crate call resolves along the DAG edge\n{dump}"
    );
    assert!(
        !dump.contains("edge workload::advances -> "),
        "test fns contribute no edges\n{dump}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}

/// A type declared inside a `tacc_json::record! { … }` invocation is
/// indexed as a plain `pub enum` is: the invocation is one more brace
/// group to the lexer, so the hand-written impl after it attaches its
/// methods to the type, and calls to them resolve. Only the codecs the
/// macro generates are out of the graph's sight.
#[test]
fn a_type_declared_inside_record_is_still_indexed() {
    let root = scratch("graph-record");
    write(
        &root.join("crates/core/Cargo.toml"),
        "[package]\nname = \"tacc-core\"\n",
    );
    write(
        &root.join("crates/core/src/lib.rs"),
        "tacc_json::record! {\n\
         \x20   #[json(tag = \"kind\")]\n\
         \x20   /// A request.\n\
         \x20   #[derive(Debug)]\n\
         \x20   pub enum Command {\n\
         \x20       /// Drain a node.\n\
         \x20       Drain { node: u32 } = \"drain\",\n\
         \x20       /// Advance the clock.\n\
         \x20       Advance { secs: f64 } = \"advance\",\n\
         \x20   }\n\
         }\n\
         impl Command {\n\
         \x20   pub fn node(&self) -> Option<u32> {\n\
         \x20       match self {\n\
         \x20           Command::Drain { node } => Some(*node),\n\
         \x20           Command::Advance { .. } => None,\n\
         \x20       }\n\
         \x20   }\n\
         }\n\
         pub fn apply(command: &Command) -> Option<u32> { Command::node(command) }\n",
    );
    let opts = Options {
        dump_graph: true,
        ..Options::default()
    };
    let dump = run(&root, &opts)
        .expect("scan")
        .graph_dump
        .expect("dump requested");
    assert!(
        dump.lines()
            .any(|l| l.starts_with("fn ") && l.contains(" core::Command::node ")),
        "the impl's method is indexed under the declared type\n{dump}"
    );
    assert!(
        dump.contains("edge core::apply -> core::Command::node"),
        "a call to it resolves\n{dump}"
    );
    fs::remove_dir_all(&root).expect("cleanup");
}
