//! Cargo manifest parsing (line-based, no TOML dependency) and the
//! documented layer DAG from DESIGN.md.
//!
//! The DAG, bottom-up:
//!
//! ```text
//! {json, par, metrics} → sim → cluster → {storage, workload} → obs
//!   → {compiler, exec, sched} → core → {tcloud, taccd} → {bench, lint}
//!   → tests
//! ```
//!
//! A crate may depend only on crates at strictly lower layers; same-layer
//! edges (e.g. `compiler` → `sched`) are violations. `lint` is special:
//! although it sits at tooling level, it is kept dependency-light by
//! construction and may reach only `par` and `json`.
//!
//! Nothing outside the DAG may be named at all: the workspace builds
//! from its own sources, so every dependency entry that is not a `tacc-*`
//! path crate is reported in [`Manifest::foreign`]. A `tacc-*` edge must
//! also be used: the engine reports one that none of the crate's lib,
//! bin or [`Manifest::examples`] sources names.

/// One parsed manifest: the package's short name, its `tacc-*`
/// `[dependencies]` edges, and every dependency entry that leaves the
/// workspace, each with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Short crate name (`core` for `tacc-core`); empty for the
    /// workspace root manifest.
    pub package: String,
    /// `(short dep name, 1-based manifest line)` for each `tacc-*`
    /// dependency. Dev-dependencies are exempt: test-only edges (e.g.
    /// `core`'s tests driving `tcloud`) do not ship in the library graph.
    pub deps: Vec<(String, u32)>,
    /// `(entry name, 1-based manifest line)` for each `[dependencies]`,
    /// `[dev-dependencies]`, `[build-dependencies]` or
    /// `[workspace.dependencies]` entry that is not a `tacc-*` crate
    /// taken by path or from the workspace table.
    pub foreign: Vec<(String, u32)>,
    /// The `path` of each `[[example]]` target, relative to the manifest.
    pub examples: Vec<String>,
}

/// The dependency tables a manifest may carry.
const DEP_SECTIONS: [&str; 4] = [
    "dependencies",
    "dev-dependencies",
    "build-dependencies",
    "workspace.dependencies",
];

/// Parses the `[package] name`, the `[dependencies] tacc-*` edges and the
/// foreign dependency entries out of a manifest. Line-based on purpose:
/// workspace manifests are simple, and a TOML parser would be a
/// dependency.
pub fn parse(text: &str) -> Manifest {
    let mut package = String::new();
    let mut deps = Vec::new();
    let mut foreign = Vec::new();
    let mut examples = Vec::new();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let line_no = idx as u32 + 1;
        if let Some(rest) = line.strip_prefix('[') {
            section = rest.trim_end_matches(']').to_owned();
            // `[dependencies.serde]` spells an entry as a table header.
            let table_entry = DEP_SECTIONS
                .iter()
                .find_map(|s| section.strip_prefix(s)?.strip_prefix('.'));
            if let Some(name) = table_entry {
                foreign.push((name.to_owned(), line_no));
            }
            continue;
        }
        let value = |key: &str| {
            let value = line.strip_prefix(key)?.trim_start().strip_prefix('=')?;
            Some(value.trim().trim_matches('"').to_owned())
        };
        if section == "package" && package.is_empty() {
            package = value("name").unwrap_or_default();
        }
        // `[[example]]`, its outer brackets stripped as above.
        if section == "[example" {
            examples.extend(value("path"));
        }
        if !DEP_SECTIONS.contains(&section.as_str()) || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let in_workspace = line.contains("workspace = true") || line.contains("path =");
        match line.strip_prefix("tacc-") {
            Some(rest) if in_workspace => {
                let short: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                if section == "dependencies" && !short.is_empty() {
                    deps.push((short, line_no));
                }
            }
            _ => {
                let name: String = line
                    .chars()
                    .take_while(|c| !matches!(c, '.' | '=' | ' '))
                    .collect();
                foreign.push((name, line_no));
            }
        }
    }
    Manifest {
        package: package.strip_prefix("tacc-").unwrap_or(&package).to_owned(),
        deps,
        foreign,
        examples,
    }
}

/// The crate's layer in the documented DAG (lower builds first). `None`
/// for names outside the workspace.
pub fn rank(short: &str) -> Option<u32> {
    Some(match short {
        "json" | "par" | "metrics" => 0,
        "sim" => 1,
        "cluster" => 2,
        "storage" | "workload" => 3,
        "obs" => 4,
        "compiler" | "exec" | "sched" => 5,
        "core" => 6,
        // The service edge: the daemon and the client CLI sit side by
        // side above the deterministic core. Neither may depend on the
        // other — their shared wire protocol lives in `core::wire`.
        "tcloud" | "taccd" => 7,
        "bench" | "lint" => 8,
        "tests" => 9,
        _ => return None,
    })
}

/// Whether `from` may depend on `to` under the layer DAG.
pub fn edge_allowed(from: &str, to: &str) -> bool {
    if from == to {
        return true; // self-references (e.g. a bin naming its own crate)
    }
    if from == "lint" {
        // The lint pass must stay dependency-light: it scans the
        // simulator, it must never link it.
        return to == "par" || to == "json";
    }
    match (rank(from), rank(to)) {
        (Some(f), Some(t)) => t < f,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_name_and_tacc_deps_with_lines() {
        let toml = "[package]\nname = \"tacc-sched\"\n\n[dependencies]\n\
                    # a comment\ntacc-cluster.workspace = true\n\
                    tacc-workload = { workspace = true }\n\n[dev-dependencies]\n\
                    tacc-core.workspace = true\n";
        let m = parse(toml);
        assert_eq!(m.package, "sched");
        assert_eq!(
            m.deps,
            vec![("cluster".to_owned(), 6), ("workload".to_owned(), 7)]
        );
        assert_eq!(m.foreign, vec![]);
        assert_eq!(m.examples, Vec::<String>::new());
    }

    #[test]
    fn example_targets_are_read_with_their_paths() {
        let toml = "[package]\nname = \"tacc-core\"\n\n[[example]]\nname = \"quickstart\"\n\
                    path = \"../../examples/quickstart.rs\"\n\n[lints]\nworkspace = true\n";
        assert_eq!(parse(toml).examples, ["../../examples/quickstart.rs"]);
    }

    #[test]
    fn every_entry_that_leaves_the_workspace_is_foreign() {
        let toml = "[workspace.dependencies]\ntacc-par = { path = \"crates/par\" }\n\
                    serde = { version = \"1\", features = [\"derive\"] }\ntacc-evil = \"1\"\n\n\
                    [dependencies]\nrand.workspace = true\n\n[dev-dependencies]\nproptest = \"1\"\n\n\
                    [build-dependencies]\ncc = \"1\"\n\n[dependencies.bytes]\nversion = \"1\"\n\n\
                    [profile.release]\ncodegen-units = 1\n";
        let names: Vec<(String, u32)> = parse(toml).foreign;
        let expect = [
            ("serde", 3),
            ("tacc-evil", 4),
            ("rand", 7),
            ("proptest", 10),
            ("cc", 13),
            ("bytes", 15),
        ];
        assert_eq!(
            names,
            expect.map(|(n, l)| (n.to_owned(), l)).to_vec(),
            "only tacc-* crates by path or workspace table may be named"
        );
    }

    #[test]
    fn dag_accepts_documented_edges_and_rejects_inversions() {
        assert!(edge_allowed("core", "sched"));
        assert!(edge_allowed("sched", "obs"));
        assert!(edge_allowed("bench", "core"));
        assert!(edge_allowed("tcloud", "core"));
        assert!(edge_allowed("taccd", "core"));
        assert!(edge_allowed("bench", "taccd"));
        // Upward and same-layer edges are violations.
        assert!(!edge_allowed("core", "tcloud"));
        assert!(!edge_allowed("core", "taccd"));
        assert!(!edge_allowed("taccd", "tcloud"));
        assert!(!edge_allowed("tcloud", "taccd"));
        assert!(!edge_allowed("sched", "core"));
        assert!(!edge_allowed("compiler", "sched"));
        assert!(!edge_allowed("storage", "workload"));
        assert!(!edge_allowed("sim", "cluster"));
    }

    #[test]
    fn lint_may_only_reach_par_and_json() {
        assert!(edge_allowed("lint", "par"));
        assert!(edge_allowed("lint", "json"));
        assert!(edge_allowed("workload", "json"));
        assert!(!edge_allowed("json", "par"));
        assert!(!edge_allowed("lint", "metrics"));
        assert!(!edge_allowed("lint", "core"));
        assert!(!edge_allowed("lint", "bench"));
    }
}
