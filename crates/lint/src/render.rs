//! Finding types plus deterministic text and JSON rendering.
//!
//! The JSON writer follows the same contract as `tacc-bench`'s golden
//! serializer: insertion-ordered keys, byte-stable output for identical
//! findings, trailing newline — so a CI artifact diff is always a real
//! behavior change, never formatting noise.

use std::fmt::Write as _;

use tacc_json::Json;

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable lint family name (`hash-iter`, `wall-clock`, …).
    pub lint: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// A finding silenced by a well-formed `tacc-lint: allow(...)` comment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Suppressed {
    /// The silenced finding.
    pub finding: Finding,
    /// The justification from the allow comment.
    pub reason: String,
}

/// Workspace symbol-graph statistics (v2).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SymbolStats {
    /// Function definitions extracted across the workspace.
    pub fns: usize,
    /// Resolved call edges in the merged graph.
    pub call_edges: usize,
    /// Functions reachable from the configured roots (equals `fns` when
    /// reachability filtering is off).
    pub reachable_fns: usize,
    /// Panic sites dropped from budgeting as unreachable.
    pub panic_sites_skipped: usize,
}

/// The full scan outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of source files scanned.
    pub files_scanned: usize,
    /// Hard findings, sorted by (file, line, lint, message).
    pub findings: Vec<Finding>,
    /// Suppressed findings with their reasons, same order.
    pub suppressed: Vec<Suppressed>,
    /// Baseline entries whose budget exceeds the current count:
    /// `(file, found, budget)` — an invitation to re-bless tighter.
    pub baseline_shrunk: Vec<(String, u64, u64)>,
    /// Fresh baseline content when blessing was requested.
    pub blessed_baseline: Option<String>,
    /// Symbol-graph statistics.
    pub symbols: SymbolStats,
    /// Byte-stable workspace-graph dump, when requested via
    /// [`crate::Options::dump_graph`].
    pub graph_dump: Option<String>,
}

impl Report {
    /// True when the workspace passes (no hard findings).
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.lint, f.message);
        }
        for (file, found, budget) in &self.baseline_shrunk {
            let _ = writeln!(
                out,
                "note: {file}: panic-surface count {found} is below the baseline budget \
                 {budget} — run with --bless-baseline to ratchet down"
            );
        }
        let _ = writeln!(
            out,
            "tacc-lint: {} file(s) scanned, {} finding(s), {} suppression(s)",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len()
        );
        let _ = writeln!(
            out,
            "tacc-lint: graph: {} fn(s), {} call edge(s), {} reachable, {} panic site(s) \
             outside the reachable set",
            self.symbols.fns,
            self.symbols.call_edges,
            self.symbols.reachable_fns,
            self.symbols.panic_sites_skipped
        );
        out
    }

    /// Renders the byte-stable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"version\": 2,");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"symbols\": {{\"fns\": {}, \"call_edges\": {}, \"reachable_fns\": {}, \
             \"panic_sites_skipped\": {}}},",
            self.symbols.fns,
            self.symbols.call_edges,
            self.symbols.reachable_fns,
            self.symbols.panic_sites_skipped
        );

        out.push_str("  \"findings\": [");
        write_findings(&mut out, self.findings.iter().map(|f| (f, None)));
        out.push_str("],\n");

        out.push_str("  \"suppressed\": [");
        write_findings(
            &mut out,
            self.suppressed
                .iter()
                .map(|s| (&s.finding, Some(s.reason.as_str()))),
        );
        out.push_str("],\n");

        out.push_str("  \"summary\": {");
        let mut first = true;
        for lint in crate::lints::ALL_LINTS {
            let n = self
                .findings
                .iter()
                .filter(|f| f.lint == lint.name())
                .count();
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {n}", lint.name());
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a minimal, byte-stable SARIF 2.1.0 document (hand-rolled,
    /// same no-new-deps contract as the JSON writer). Hard findings are
    /// `error` results; suppressed findings appear with an `inSource`
    /// suppression carrying the allow reason, so code-scanning UIs show
    /// both the rule hit and its justification.
    pub fn to_sarif(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
        out.push_str("  \"version\": \"2.1.0\",\n");
        out.push_str("  \"runs\": [\n    {\n");
        out.push_str("      \"tool\": {\n        \"driver\": {\n");
        out.push_str("          \"name\": \"tacc-lint\",\n");
        out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
        out.push_str("          \"rules\": [");
        let mut first = true;
        for lint in crate::lints::ALL_LINTS {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n            {{\"id\": {}}}", Json::from(lint.name()));
        }
        out.push_str("\n          ]\n        }\n      },\n");
        out.push_str("      \"results\": [");
        let mut first = true;
        let results = self.findings.iter().map(|f| (f, None)).chain(
            self.suppressed
                .iter()
                .map(|s| (&s.finding, Some(&s.reason))),
        );
        for (f, reason) in results {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n        {\n");
            let _ = writeln!(out, "          \"ruleId\": {},", Json::from(f.lint));
            let _ = writeln!(out, "          \"level\": \"error\",");
            let _ = writeln!(
                out,
                "          \"message\": {{\"text\": {}}},",
                Json::from(f.message.as_str())
            );
            if let Some(reason) = reason {
                let _ = writeln!(
                    out,
                    "          \"suppressions\": [{{\"kind\": \"inSource\", \
                     \"justification\": {}}}],",
                    Json::from(reason.as_str())
                );
            }
            let _ = write!(
                out,
                "          \"locations\": [{{\"physicalLocation\": {{\
                 \"artifactLocation\": {{\"uri\": {}}}, \
                 \"region\": {{\"startLine\": {}}}}}}}]\n        }}",
                Json::from(f.file.as_str()),
                f.line
            );
        }
        if !first {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

fn write_findings<'a>(
    out: &mut String,
    items: impl Iterator<Item = (&'a Finding, Option<&'a str>)>,
) {
    let mut any = false;
    let mut it = items.peekable();
    while let Some((f, reason)) = it.next() {
        any = true;
        out.push_str("\n    {");
        let _ = write!(
            out,
            "\"lint\": {}, \"file\": {}, \"line\": {}, \"message\": {}",
            Json::from(f.lint),
            Json::from(f.file.as_str()),
            f.line,
            Json::from(f.message.as_str())
        );
        if let Some(reason) = reason {
            let _ = write!(out, ", \"reason\": {}", Json::from(reason));
        }
        out.push('}');
        if it.peek().is_some() {
            out.push(',');
        }
    }
    if any {
        out.push_str("\n  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/core/src/lib.rs".into(),
                line: 7,
                lint: "hash-iter",
                message: "HashMap in simulation-path crate".into(),
            }],
            suppressed: vec![Suppressed {
                finding: Finding {
                    file: "crates/sched/src/scheduler.rs".into(),
                    line: 200,
                    lint: "wall-clock",
                    message: "Instant::now()".into(),
                },
                reason: "measurement-only".into(),
            }],
            baseline_shrunk: Vec::new(),
            blessed_baseline: None,
            symbols: SymbolStats {
                fns: 10,
                call_edges: 4,
                reachable_fns: 6,
                panic_sites_skipped: 3,
            },
            graph_dump: None,
        }
    }

    #[test]
    fn json_is_byte_stable_and_shaped() {
        let r = sample();
        let a = r.to_json();
        assert_eq!(a, r.to_json());
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"lint\": \"hash-iter\""));
        assert!(a.contains("\"line\": 7"));
        assert!(a.contains("\"reason\": \"measurement-only\""));
        assert!(a.contains("\"hash-iter\": 1"));
        assert!(a.contains("\"wall-clock\": 0"));
    }

    #[test]
    fn text_report_lists_findings_and_counts() {
        let text = sample().to_text();
        assert!(text.contains("crates/core/src/lib.rs:7: [hash-iter]"));
        assert!(text.contains("2 file(s) scanned, 1 finding(s), 1 suppression(s)"));
    }

    #[test]
    fn json_carries_the_symbol_stats() {
        let a = sample().to_json();
        assert!(a.contains(
            "\"symbols\": {\"fns\": 10, \"call_edges\": 4, \"reachable_fns\": 6, \
             \"panic_sites_skipped\": 3},"
        ));
    }

    #[test]
    fn sarif_is_byte_stable_and_shaped() {
        let r = sample();
        let a = r.to_sarif();
        assert_eq!(a, r.to_sarif());
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("{\"id\": \"hash-iter\"}"));
        assert!(a.contains("\"ruleId\": \"hash-iter\""));
        assert!(a.contains("\"startLine\": 7"));
        assert!(a.contains("\"uri\": \"crates/core/src/lib.rs\""));
        // The suppressed finding carries its justification.
        assert!(a.contains("\"justification\": \"measurement-only\""));
    }

    #[test]
    fn sarif_with_no_results_is_an_empty_array() {
        let r = Report::default();
        assert!(r.to_sarif().contains("\"results\": []"));
    }
}
