//! The ten lint families, the `#[cfg(test)]` region tracker, and the
//! `// tacc-lint: allow(...)` suppression grammar.

use std::collections::BTreeSet;

use crate::lexer::{lex, Comment, TokKind, Token};
use crate::owners::OwnersConfig;
use crate::render::{Finding, Suppressed};
use crate::symbols::{self, FileSymbols};

/// A lint family enforced by the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: `HashMap`/`HashSet`/`RandomState` in a simulation-path crate.
    HashIter,
    /// L2: `Instant::now` / `SystemTime` outside designated sites.
    WallClock,
    /// L3: ambient randomness (`thread_rng`, `rand::random`).
    AmbientRng,
    /// L4: a dependency edge that violates the layer DAG or leaves the
    /// workspace.
    LayerDag,
    /// L5: `unwrap`/`expect`/`panic!`/`todo!` in non-test library code,
    /// budgeted against `lint-baseline.json`.
    PanicSurface,
    /// L6: metric registration literal not shaped `tacc_<layer>_<name>`.
    MetricName,
    /// L7: a mutation owned by a single writer (per `lint-owners.toml`)
    /// performed outside the owning module.
    SingleWriter,
    /// L8: shared-state concurrency primitives (`Mutex`, channels,
    /// `thread::spawn`, …) inside a deterministic layer, or a lock guard
    /// held across a fork–join boundary anywhere.
    Concurrency,
    /// L9: a bare wildcard `_` arm in a match over the lifecycle enums
    /// (`JobState`/`JobEvent`/`JobEventKind`).
    MatchWildcard,
    /// Meta: a malformed, unknown, or unused suppression comment.
    Allow,
}

impl Lint {
    /// The lint's stable name (used in reports and allow comments).
    pub fn name(self) -> &'static str {
        match self {
            Lint::HashIter => "hash-iter",
            Lint::WallClock => "wall-clock",
            Lint::AmbientRng => "ambient-rng",
            Lint::LayerDag => "layer-dag",
            Lint::PanicSurface => "panic-surface",
            Lint::MetricName => "metric-name",
            Lint::SingleWriter => "single-writer",
            Lint::Concurrency => "concurrency",
            Lint::MatchWildcard => "match-wildcard",
            Lint::Allow => "allow",
        }
    }

    /// Parses a name as used inside an allow comment. The meta `allow`
    /// family cannot itself be suppressed.
    pub fn suppressible_from_name(name: &str) -> Option<Lint> {
        match name {
            "hash-iter" => Some(Lint::HashIter),
            "wall-clock" => Some(Lint::WallClock),
            "ambient-rng" => Some(Lint::AmbientRng),
            "layer-dag" => Some(Lint::LayerDag),
            "panic-surface" => Some(Lint::PanicSurface),
            "metric-name" => Some(Lint::MetricName),
            "single-writer" => Some(Lint::SingleWriter),
            "concurrency" => Some(Lint::Concurrency),
            "match-wildcard" => Some(Lint::MatchWildcard),
            _ => None,
        }
    }
}

/// Every lint family, in report order.
pub const ALL_LINTS: [Lint; 10] = [
    Lint::Allow,
    Lint::AmbientRng,
    Lint::Concurrency,
    Lint::HashIter,
    Lint::LayerDag,
    Lint::MatchWildcard,
    Lint::MetricName,
    Lint::PanicSurface,
    Lint::SingleWriter,
    Lint::WallClock,
];

/// Crates whose decision paths feed the bit-deterministic simulation:
/// unordered-iteration containers are banned here (L1).
pub const SIM_PATH_CRATES: [&str; 6] = ["storage", "compiler", "sched", "exec", "cluster", "core"];

/// Crates exempt from the wall-clock lint: the fork–join pool measures
/// *host* time by design and never feeds it back into simulated
/// decisions. The bench harness is deliberately NOT exempt — its
/// regression gates compare deterministic work counters, so each of its
/// few intentional wall-clock reads carries an explicit allow annotation.
pub const WALL_CLOCK_EXEMPT_CRATES: [&str; 1] = ["par"];

/// Crates that must stay free of shared-state concurrency (L8): the
/// deterministic replay core. The fork–join pool (`par`), the harness
/// (`bench`), observability plumbing (`obs`), and the `taccd` service
/// edge (whose accept loop, per-connection threads, and single-writer
/// engine channel are load-bearing) are deliberately NOT listed —
/// concurrency belongs at the edge, determinism in the core.
pub const CONCURRENCY_CLEAN_CRATES: [&str; 8] = [
    "cluster", "compiler", "core", "exec", "sched", "sim", "storage", "workload",
];

/// Enums whose matches must stay exhaustive (L9): the lifecycle state
/// machine is checked against `TRANSITION_MATRIX`, and a wildcard arm
/// would silently absorb any state added later.
pub const LIFECYCLE_ENUMS: [&str; 3] = ["JobState", "JobEvent", "JobEventKind"];

/// Layer names accepted as the second segment of a metric name (L6).
pub const METRIC_LAYERS: [&str; 16] = [
    "bench", "cluster", "compiler", "core", "exec", "lint", "metrics", "obs", "par", "sched",
    "sim", "storage", "taccd", "tcloud", "test", "workload",
];

/// How a source file participates in the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: all families apply.
    Lib,
    /// A binary target (`src/bin/…`): tooling entry points; exempt from
    /// the library-only families (L1/L2/L5/L6) but not from ambient
    /// randomness or the layer DAG.
    Bin,
}

/// Per-file scan context.
pub struct ScanCtx<'a> {
    /// Short crate name (`core`, `sched`, …) the file belongs to.
    pub crate_name: &'a str,
    /// Library or binary target.
    pub kind: FileKind,
    /// Workspace-relative path used in findings.
    pub rel_path: &'a str,
    /// Whether `crate_name` may depend on the given crate (L4).
    pub dep_allowed: &'a (dyn Fn(&str, &str) -> bool + Sync),
    /// Single-writer rules and reachability roots (L7); an empty config
    /// disables the family.
    pub owners: &'a OwnersConfig,
}

/// The outcome of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Hard findings (everything except budgeted panic-surface sites).
    pub findings: Vec<Finding>,
    /// Findings silenced by a well-formed allow comment.
    pub suppressed: Vec<Suppressed>,
    /// Unsuppressed panic-surface site lines (library files only); the
    /// engine budgets these against the committed baseline, after
    /// reachability filtering.
    pub panic_lines: Vec<u32>,
    /// Extracted items and call references, merged workspace-wide into
    /// the symbol graph by the engine.
    pub symbols: FileSymbols,
    /// The workspace crates the file names, test code included (see
    /// [`crates_named`]).
    pub crates_named: BTreeSet<String>,
}

/// The short names of the workspace crates `tokens` name as `tacc_<crate>`
/// — what a `[dependencies]` edge must be used by.
pub fn crates_named(tokens: &[Token]) -> BTreeSet<String> {
    let named = |t: &Token| match &t.kind {
        TokKind::Ident(word) => word.strip_prefix("tacc_").map(str::to_owned),
        _ => None,
    };
    let crates = tokens.iter().filter_map(named);
    crates
        .filter(|c| crate::manifest::rank(c).is_some())
        .collect()
}

/// A parsed `tacc-lint: allow(...)` directive.
struct AllowDirective {
    line: u32,
    lint: Lint,
    reason: String,
    used: bool,
}

/// Scans one file's source under `ctx`. Pure: no filesystem access, so
/// fixture tests can drive every family from string literals.
pub fn scan_source(ctx: &ScanCtx<'_>, src: &str) -> FileScan {
    let lexed = lex(src);
    let test_ranges = test_ranges(&lexed.tokens);
    let in_test = |line: u32| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);

    let mut scan = FileScan::default();
    let mut allows = parse_allows(ctx.rel_path, &lexed.comments, &mut scan.findings);
    let mut raw: Vec<Finding> = Vec::new();

    let toks: Vec<&Token> = lexed.tokens.iter().filter(|t| !in_test(t.line)).collect();
    lint_tokens(ctx, &toks, &mut raw);
    if ctx.kind == FileKind::Lib {
        lint_match_wildcards(ctx, &toks, &mut raw);
    }
    scan.symbols = symbols::extract(&lexed.tokens, &test_ranges);
    scan.crates_named = crates_named(&lexed.tokens);
    lint_lock_across_fork(ctx, &scan.symbols, &mut raw);

    // Suppression: an allow on the finding's line, or on the line above.
    for finding in raw {
        let hit = allows.iter_mut().find(|a| {
            a.lint.name() == finding.lint && (a.line == finding.line || a.line + 1 == finding.line)
        });
        match hit {
            Some(allow) => {
                allow.used = true;
                scan.suppressed.push(Suppressed {
                    reason: allow.reason.clone(),
                    finding,
                });
            }
            None if finding.lint == Lint::PanicSurface.name() => {
                scan.panic_lines.push(finding.line);
            }
            None => scan.findings.push(finding),
        }
    }

    for allow in allows.iter().filter(|a| !a.used) {
        scan.findings.push(Finding {
            lint: Lint::Allow.name(),
            file: ctx.rel_path.to_owned(),
            line: allow.line,
            message: format!(
                "stale suppression: allow({}) matches no finding on this or the next line",
                allow.lint.name()
            ),
        });
    }
    scan.findings.sort();
    scan.suppressed.sort();
    scan
}

fn finding(ctx: &ScanCtx<'_>, lint: Lint, line: u32, message: String) -> Finding {
    Finding {
        lint: lint.name(),
        file: ctx.rel_path.to_owned(),
        line,
        message,
    }
}

fn lint_tokens(ctx: &ScanCtx<'_>, toks: &[&Token], out: &mut Vec<Finding>) {
    let lib = ctx.kind == FileKind::Lib;
    let sim_path = SIM_PATH_CRATES.contains(&ctx.crate_name);
    let wall_clock = lib && !WALL_CLOCK_EXEMPT_CRATES.contains(&ctx.crate_name);

    let ident = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct = |i: usize, c: char| matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c);
    let string = |i: usize| match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Str(s)) => Some(s.as_str()),
        _ => None,
    };

    // Lookahead (`i + 1`…) drives the matching, so an index loop is the idiom.
    #[allow(clippy::needless_range_loop)]
    for i in 0..toks.len() {
        let line = toks[i].line;
        let Some(word) = ident(i) else { continue };

        // L1 hash-iter.
        if lib && sim_path && matches!(word, "HashMap" | "HashSet" | "RandomState") {
            out.push(finding(
                ctx,
                Lint::HashIter,
                line,
                format!(
                    "{word} in simulation-path crate `{}`: unordered iteration can leak \
                     into decisions — use BTreeMap/BTreeSet or prove non-iteration",
                    ctx.crate_name
                ),
            ));
        }

        // L2 wall-clock.
        if wall_clock {
            if word == "Instant"
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("now")
            {
                out.push(finding(
                    ctx,
                    Lint::WallClock,
                    line,
                    "Instant::now() in a simulation path: wall-clock reads break replay \
                     determinism — use the virtual clock, or annotate a measurement-only site"
                        .to_owned(),
                ));
            }
            if word == "SystemTime" {
                out.push(finding(
                    ctx,
                    Lint::WallClock,
                    line,
                    "SystemTime in a simulation path: wall-clock reads break replay \
                     determinism — use the virtual clock"
                        .to_owned(),
                ));
            }
        }

        // L3 ambient-rng (applies to bins too: a random tool flag would
        // still poison reproducibility).
        if word == "thread_rng"
            || (word == "rand"
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("random"))
        {
            out.push(finding(
                ctx,
                Lint::AmbientRng,
                line,
                "ambient randomness: all randomness must flow from seeded tacc_sim::DetRng \
                 streams"
                    .to_owned(),
            ));
        }

        // L4 layer-dag (source-level `tacc_*` references).
        if lib || ctx.kind == FileKind::Bin {
            if let Some(target) = word.strip_prefix("tacc_") {
                if !target.is_empty()
                    && target != ctx.crate_name
                    && crate::manifest::rank(target).is_some()
                    && !(ctx.dep_allowed)(ctx.crate_name, target)
                {
                    out.push(finding(
                        ctx,
                        Lint::LayerDag,
                        line,
                        format!(
                            "`{}` must not reference `tacc_{target}`: the edge violates the \
                             documented layer DAG (see DESIGN.md)",
                            ctx.crate_name
                        ),
                    ));
                }
            }
        }

        // L5 panic-surface.
        if lib {
            let call = punct(i + 1, '(');
            let bang = punct(i + 1, '!');
            let hit = match word {
                "unwrap" | "expect" if call => true,
                "panic" | "todo" | "unimplemented" if bang => true,
                _ => false,
            };
            if hit {
                out.push(finding(
                    ctx,
                    Lint::PanicSurface,
                    line,
                    format!("panic site `{word}` in non-test library code"),
                ));
            }
        }

        // L7 single-writer ownership (declarative, from lint-owners.toml;
        // applies to bins too — a CLI poking job state is just as rogue).
        for rule in &ctx.owners.owners {
            if rule.writers.iter().any(|w| w == ctx.rel_path) {
                continue;
            }
            let op_assign = matches!(
                toks.get(i + 1).map(|t| &t.kind),
                Some(TokKind::Punct(p)) if matches!(p, '+' | '-' | '*' | '/' | '%')
            ) && punct(i + 2, '=');
            let assigned = (punct(i + 1, '=') && !punct(i + 2, '=')) || op_assign;
            let field_write =
                punct(i.wrapping_sub(1), '.') && assigned && rule.fields.iter().any(|f| f == word);
            let method_call = punct(i + 1, '(')
                && ident(i.wrapping_sub(1)) != Some("fn")
                && rule.methods.iter().any(|m| m == word);
            let path_call = punct(i + 1, '(')
                && punct(i.wrapping_sub(1), ':')
                && punct(i.wrapping_sub(2), ':')
                && rule
                    .path_calls
                    .iter()
                    .any(|(t, m)| m == word && ident(i.wrapping_sub(3)) == Some(t));
            if field_write || method_call || path_call {
                out.push(finding(
                    ctx,
                    Lint::SingleWriter,
                    line,
                    format!(
                        "`{word}` is owned by {} (single-writer rule `{}`): route this \
                         mutation through the owning module",
                        rule.writers.join(", "),
                        rule.name
                    ),
                ));
            }
        }

        // L8 concurrency-readiness: the deterministic core stays free of
        // shared-state primitives so replay never depends on thread
        // interleaving.
        if lib && CONCURRENCY_CLEAN_CRATES.contains(&ctx.crate_name) {
            if matches!(word, "Mutex" | "RwLock" | "Condvar" | "Barrier" | "mpsc") {
                out.push(finding(
                    ctx,
                    Lint::Concurrency,
                    line,
                    format!(
                        "{word} in deterministic layer `{}`: shared-state concurrency is \
                         confined to the ingestion edge (par/bench/obs/taccd) — see DESIGN.md",
                        ctx.crate_name
                    ),
                ));
            }
            if word == "thread"
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && matches!(ident(i + 3), Some("spawn") | Some("scope"))
            {
                out.push(finding(
                    ctx,
                    Lint::Concurrency,
                    line,
                    format!(
                        "thread::{} in deterministic layer `{}`: fork–join parallelism must \
                         go through tacc_par at the harness edge",
                        ident(i + 3).unwrap_or_default(),
                        ctx.crate_name
                    ),
                ));
            }
        }

        // L6 metric-naming.
        if lib && matches!(word, "counter" | "gauge" | "histogram") && punct(i + 1, '(') {
            if let Some(name) = string(i + 2) {
                if !valid_metric_name(name) {
                    out.push(finding(
                        ctx,
                        Lint::MetricName,
                        line,
                        format!(
                            "metric name \"{name}\" does not match tacc_<layer>_<name> \
                             (lowercase, layer one of the workspace crates)"
                        ),
                    ));
                }
            }
        }

        // L6 metric-naming, declaration form: `const <NAME>_METRIC: &str
        // = "..."`. Layers that register through shared consts (e.g. core
        // registering obs-owned names) carry no literal at the call site,
        // so the declaration is the lintable surface.
        if lib
            && word == "const"
            && ident(i + 1).is_some_and(|n| n.ends_with("_METRIC"))
            && punct(i + 2, ':')
            && punct(i + 3, '&')
            && ident(i + 4) == Some("str")
            && punct(i + 5, '=')
        {
            if let Some(name) = string(i + 6) {
                if !valid_metric_name(name) {
                    out.push(finding(
                        ctx,
                        Lint::MetricName,
                        line,
                        format!(
                            "metric const declares \"{name}\", which does not match \
                             tacc_<layer>_<name> (lowercase, layer one of the workspace crates)"
                        ),
                    ));
                }
            }
        }
    }
}

/// L9: bare wildcard `_` arms in matches whose patterns mention a
/// lifecycle enum. The walk is heuristic (token-level, no real parse):
/// the scrutinee ends at the first `{` outside parens/brackets, arms
/// split on `,` / block-`}` at brace depth 1, and only the tokens before
/// each `=>` (minus any `if` guard) count as the pattern. A pattern that
/// is exactly `_` in a lifecycle-typed match is a finding; `(_, _)` or
/// `Some(_)` are not bare and stay legal.
fn lint_match_wildcards(ctx: &ScanCtx<'_>, toks: &[&Token], out: &mut Vec<Finding>) {
    let mut i = 0;
    while i < toks.len() {
        if !matches!(&toks[i].kind, TokKind::Ident(w) if w == "match") {
            i += 1;
            continue;
        }
        // Scrutinee: up to the body `{` at paren/bracket depth 0.
        let mut pd = 0i32;
        let mut j = i + 1;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => pd += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => pd -= 1,
                TokKind::Punct('{') if pd == 0 => {
                    body = Some(j);
                    break;
                }
                TokKind::Punct(';') if pd == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 1;
            continue;
        };

        let mut depth = 1i32;
        let mut pd = 0i32;
        let mut k = open + 1;
        let mut in_pattern = true;
        let mut in_guard = false;
        let mut pattern: Vec<usize> = Vec::new();
        let mut typed = false;
        let mut wildcard_lines: Vec<u32> = Vec::new();
        while k < toks.len() && depth > 0 {
            match &toks[k].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => pd += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => pd -= 1,
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 1 && !in_pattern {
                        // Block-bodied arm closed: next arm begins.
                        in_pattern = true;
                        in_guard = false;
                        pattern.clear();
                        k += 1;
                        continue;
                    }
                }
                TokKind::Punct(',') if depth == 1 && pd == 0 => {
                    in_pattern = true;
                    in_guard = false;
                    pattern.clear();
                    k += 1;
                    continue;
                }
                TokKind::Punct('=')
                    if depth == 1
                        && pd == 0
                        && in_pattern
                        && matches!(
                            toks.get(k + 1).map(|t| &t.kind),
                            Some(TokKind::Punct('>'))
                        ) =>
                {
                    typed |= pattern.iter().any(|&p| {
                        matches!(&toks[p].kind,
                                 TokKind::Ident(w) if LIFECYCLE_ENUMS.contains(&w.as_str()))
                    });
                    if pattern.len() == 1 {
                        if let TokKind::Ident(w) = &toks[pattern[0]].kind {
                            if w == "_" {
                                wildcard_lines.push(toks[pattern[0]].line);
                            }
                        }
                    }
                    in_pattern = false;
                    pattern.clear();
                    k += 2;
                    continue;
                }
                TokKind::Ident(w) if in_pattern && depth == 1 && pd == 0 && w == "if" => {
                    in_guard = true;
                }
                _ => {}
            }
            if in_pattern && !in_guard {
                pattern.push(k);
            }
            k += 1;
        }
        if typed {
            for line in wildcard_lines {
                out.push(finding(
                    ctx,
                    Lint::MatchWildcard,
                    line,
                    "wildcard `_` arm in a match over a lifecycle enum: stay exhaustive \
                     against TRANSITION_MATRIX — name the remaining states"
                        .to_owned(),
                ));
            }
        }
        i += 1;
    }
}

/// L8 (second form): a lock guard acquired before a fork–join entry at
/// the same or shallower brace depth is still held when the closure
/// fans out — a deadlock/serialization hazard. Applies everywhere but
/// the pool itself (whose internals are the one sanctioned home for
/// locks around `thread::scope`).
fn lint_lock_across_fork(ctx: &ScanCtx<'_>, syms: &FileSymbols, out: &mut Vec<Finding>) {
    if ctx.crate_name == "par" {
        return;
    }
    for f in syms.fns.iter().filter(|f| !f.is_test) {
        for fork in &f.forks {
            if f.locks
                .iter()
                .any(|l| l.line < fork.line && l.depth <= fork.depth)
            {
                out.push(finding(
                    ctx,
                    Lint::Concurrency,
                    fork.line,
                    format!(
                        "lock guard acquired earlier in `{}` may still be held across this \
                         fork–join boundary — scope the guard to end before fanning out",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// `tacc_<layer>_<name>`: lowercase snake case, known layer, non-empty
/// trailing name.
pub fn valid_metric_name(name: &str) -> bool {
    if !name
        .bytes()
        .all(|b| b == b'_' || b.is_ascii_lowercase() || b.is_ascii_digit())
    {
        return false;
    }
    let mut segments = name.split('_');
    if segments.next() != Some("tacc") {
        return false;
    }
    let Some(layer) = segments.next() else {
        return false;
    };
    if !METRIC_LAYERS.contains(&layer) {
        return false;
    }
    segments.clone().count() >= 1 && segments.all(|s| !s.is_empty())
}

/// Line ranges (inclusive) covered by `#[cfg(test)]` or `#[test]` items.
pub(crate) fn test_ranges(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(is_punct(toks, i, '#') && is_punct(toks, i + 1, '[')) {
            i += 1;
            continue;
        }
        let close = match matching_bracket(toks, i + 1) {
            Some(c) => c,
            None => break,
        };
        if !is_test_attr(&toks[i + 2..close]) {
            i = close + 1;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut k = close + 1;
        while is_punct(toks, k, '#') && is_punct(toks, k + 1, '[') {
            match matching_bracket(toks, k + 1) {
                Some(c) => k = c + 1,
                None => return ranges,
            }
        }
        // The item ends at the matching `}` of its first block, or at the
        // first top-level `;` (e.g. `#[cfg(test)] use …;`).
        let mut depth = 0usize;
        let mut end_line = start_line;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                TokKind::Punct(';') if depth == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        ranges.push((start_line, end_line));
        i = k + 1;
    }
    ranges
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// `test` or `cfg(test)` as the exact attribute body.
fn is_test_attr(body: &[Token]) -> bool {
    let kinds: Vec<&TokKind> = body.iter().map(|t| &t.kind).collect();
    match kinds.as_slice() {
        [TokKind::Ident(t)] => t == "test",
        [TokKind::Ident(cfg), TokKind::Punct('('), TokKind::Ident(t), TokKind::Punct(')')] => {
            cfg == "cfg" && t == "test"
        }
        _ => false,
    }
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses every comment that *is* a `tacc-lint:` directive (the marker
/// must open the comment); malformed ones become `allow` findings
/// immediately.
fn parse_allows(
    rel_path: &str,
    comments: &[Comment],
    findings: &mut Vec<Finding>,
) -> Vec<AllowDirective> {
    let mut allows = Vec::new();
    for comment in comments {
        // A directive is the whole comment: `// tacc-lint: allow(...)`.
        // Mid-sentence mentions (docs quoting the grammar) don't count.
        let trimmed = comment
            .text
            .trim_start_matches(['/', '*', '!'])
            .trim_start();
        let Some(rest) = trimmed.strip_prefix("tacc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        match parse_allow_body(rest) {
            Ok((lint, reason)) => allows.push(AllowDirective {
                line: comment.line,
                lint,
                reason,
                used: false,
            }),
            Err(why) => findings.push(Finding {
                lint: Lint::Allow.name(),
                file: rel_path.to_owned(),
                line: comment.line,
                message: format!("malformed suppression: {why}"),
            }),
        }
    }
    allows
}

/// Grammar: `allow(<lint>, reason = "<non-empty>")`.
fn parse_allow_body(body: &str) -> Result<(Lint, String), String> {
    let Some(args) = body.strip_prefix("allow(") else {
        return Err("expected `allow(<lint>, reason = \"...\")`".to_owned());
    };
    let Some((name, rest)) = args.split_once(',') else {
        return Err(
            "missing `, reason = \"...\"` — every suppression must be explained".to_owned(),
        );
    };
    let name = name.trim();
    let Some(lint) = Lint::suppressible_from_name(name) else {
        return Err(format!("unknown lint `{name}`"));
    };
    let rest = rest.trim_start();
    let Some(q) = rest
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('"'))
    else {
        return Err("expected `reason = \"...\"`".to_owned());
    };
    let Some(end) = q.rfind('"') else {
        return Err("unterminated reason string".to_owned());
    };
    let reason = &q[..end];
    if reason.trim().is_empty() {
        return Err("empty reason — every suppression must be explained".to_owned());
    }
    if !q[end + 1..].trim_start().starts_with(')') {
        return Err("expected closing `)`".to_owned());
    }
    Ok((lint, reason.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    static EMPTY_OWNERS: OwnersConfig = OwnersConfig {
        roots: Vec::new(),
        owners: Vec::new(),
    };

    fn ctx<'a>(crate_name: &'a str, kind: FileKind) -> ScanCtx<'a> {
        ScanCtx {
            crate_name,
            kind,
            rel_path: "crates/x/src/lib.rs",
            dep_allowed: &crate::manifest::edge_allowed,
            owners: &EMPTY_OWNERS,
        }
    }

    fn owned_ctx<'a>(crate_name: &'a str, owners: &'a OwnersConfig) -> ScanCtx<'a> {
        ScanCtx {
            crate_name,
            kind: FileKind::Lib,
            rel_path: "crates/x/src/lib.rs",
            dep_allowed: &crate::manifest::edge_allowed,
            owners,
        }
    }

    fn lints_of(scan: &FileScan) -> Vec<&str> {
        scan.findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn l1_hash_iter_flags_sim_path_crates_only() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\n";
        let in_core = scan_source(&ctx("core", FileKind::Lib), src);
        assert_eq!(lints_of(&in_core), vec!["hash-iter", "hash-iter"]);
        assert_eq!(in_core.findings[0].line, 1);
        assert_eq!(in_core.findings[1].line, 2);
        let in_bench = scan_source(&ctx("bench", FileKind::Lib), src);
        assert!(in_bench.findings.is_empty());
    }

    #[test]
    fn l2_wall_clock_flags_instant_now_not_the_import() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let scan = scan_source(&ctx("sched", FileKind::Lib), src);
        assert_eq!(lints_of(&scan), vec!["wall-clock"]);
        assert_eq!(scan.findings[0].line, 2);
        // The exempt fork–join pool runs clean.
        assert!(scan_source(&ctx("par", FileKind::Lib), src)
            .findings
            .is_empty());
        // The bench harness is no longer blanket-exempt: its wall-clock
        // reads must carry per-site allow annotations.
        assert_eq!(
            lints_of(&scan_source(&ctx("bench", FileKind::Lib), src)),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn l2_allow_comment_suppresses_with_reason() {
        let src = "// tacc-lint: allow(wall-clock, reason = \"measurement-only site\")\n\
                   let t = Instant::now();\n";
        let scan = scan_source(&ctx("sched", FileKind::Lib), src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
        assert_eq!(scan.suppressed[0].reason, "measurement-only site");
    }

    #[test]
    fn l3_ambient_rng_flags_thread_rng_and_rand_random() {
        let src = "let a = thread_rng().gen::<u8>();\nlet b: f64 = rand::random();\n";
        let scan = scan_source(&ctx("workload", FileKind::Lib), src);
        assert_eq!(lints_of(&scan), vec!["ambient-rng", "ambient-rng"]);
        // Bins are covered too.
        let scan = scan_source(&ctx("bench", FileKind::Bin), src);
        assert_eq!(scan.findings.len(), 2);
    }

    #[test]
    fn l4_layer_dag_flags_upward_source_references() {
        let src = "use tacc_tcloud::Client;\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert_eq!(lints_of(&scan), vec!["layer-dag"]);
        // Downward edges are fine.
        let ok = scan_source(&ctx("core", FileKind::Lib), "use tacc_sched::Scheduler;\n");
        assert!(ok.findings.is_empty());
    }

    #[test]
    fn l5_panic_surface_counts_sites_not_lookalikes() {
        let src = "fn f(o: Option<u8>) -> u8 {\n\
                   let a = o.unwrap();\n\
                   let b = o.expect(\"msg\");\n\
                   let c = o.unwrap_or_else(|| 0);\n\
                   if a == 0 { panic!(\"zero\") }\n\
                   todo!()\n\
                   }\n";
        let scan = scan_source(&ctx("metrics", FileKind::Lib), src);
        assert!(
            scan.findings.is_empty(),
            "panic sites are budgeted, not hard findings"
        );
        assert_eq!(scan.panic_lines, vec![2, 3, 5, 6]);
        // Bins are exempt.
        assert!(scan_source(&ctx("bench", FileKind::Bin), src)
            .panic_lines
            .is_empty());
    }

    #[test]
    fn l6_metric_name_validates_registration_literals() {
        let good = "let c = registry.counter(\"tacc_sched_rounds_total\", &[]);\n";
        assert!(scan_source(&ctx("sched", FileKind::Lib), good)
            .findings
            .is_empty());
        let bad = "let c = registry.counter(\"sched_rounds\", &[]);\n\
                   let g = registry.gauge(\"tacc_Sched_depth\", &[]);\n\
                   let h = registry.histogram(\"tacc_nosuchlayer_x\", &[]);\n";
        let scan = scan_source(&ctx("sched", FileKind::Lib), bad);
        assert_eq!(
            lints_of(&scan),
            vec!["metric-name", "metric-name", "metric-name"]
        );
    }

    #[test]
    fn l6_metric_name_validates_const_declarations() {
        let good = "pub const GOODPUT_RATIO_METRIC: &str = \"tacc_obs_goodput_ratio\";\n\
                    pub const NOT_A_METRIC_NAME: &str = \"free-form text\";\n";
        assert!(scan_source(&ctx("obs", FileKind::Lib), good)
            .findings
            .is_empty());
        let bad = "pub const GOODPUT_METRIC: &str = \"tacc_obs_BadName\";\n\
                   const DROPPED_METRIC: &str = \"obs_dropped_total\";\n";
        let scan = scan_source(&ctx("obs", FileKind::Lib), bad);
        assert_eq!(lints_of(&scan), vec!["metric-name", "metric-name"]);
        assert_eq!(scan.findings[0].line, 1);
        assert!(scan.findings[0].message.contains("metric const"));
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn lib() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   use std::collections::HashMap;\n\
                   #[test]\n\
                   fn t() { let x = Instant::now(); x.unwrap(); }\n\
                   }\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert!(scan.findings.is_empty());
        assert!(scan.panic_lines.is_empty());
    }

    #[test]
    fn test_attr_on_bare_fn_is_exempt() {
        let src = "#[test]\nfn t() { let m: HashMap<u8, u8> = HashMap::new(); }\n\
                   fn lib() { let m: HashMap<u8, u8> = HashMap::new(); }\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert_eq!(scan.findings.len(), 2); // only the two sites in `lib`
        assert!(scan.findings.iter().all(|f| f.line == 3));
    }

    #[test]
    fn malformed_and_stale_allows_are_findings() {
        let src = "// tacc-lint: allow(wall-clock)\n\
                   // tacc-lint: allow(no-such-lint, reason = \"x\")\n\
                   // tacc-lint: allow(hash-iter, reason = \"nothing here\")\n\
                   fn f() {}\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert_eq!(lints_of(&scan), vec!["allow", "allow", "allow"]);
        assert!(scan.findings[0].message.contains("reason"));
        assert!(scan.findings[1].message.contains("unknown lint"));
        assert!(scan.findings[2].message.contains("stale"));
    }

    fn job_state_owners() -> OwnersConfig {
        crate::owners::parse(
            "[[owner]]\n\
             name = \"job-state\"\n\
             fields = [\"state\"]\n\
             methods = [\"apply_event\"]\n\
             path_calls = [\"Counter::new\"]\n\
             writers = [\"crates/core/src/lifecycle.rs\"]\n",
        )
        .expect("owners fixture")
    }

    #[test]
    fn l7_single_writer_flags_rogue_field_writes_and_calls() {
        let owners = job_state_owners();
        let src = "fn f(job: &mut Job) {\n\
                   job.state = JobState::Running;\n\
                   job.state += 1;\n\
                   job.apply_event(ev);\n\
                   let c = Counter::new();\n\
                   }\n";
        let scan = scan_source(&owned_ctx("sched", &owners), src);
        let sw: Vec<u32> = scan
            .findings
            .iter()
            .filter(|f| f.lint == "single-writer")
            .map(|f| f.line)
            .collect();
        assert_eq!(sw, vec![2, 3, 4, 5]);
    }

    #[test]
    fn l7_single_writer_skips_reads_definitions_and_the_owner() {
        let owners = job_state_owners();
        let src = "fn f(job: &Job) {\n\
                   if job.state == JobState::Running {}\n\
                   let s = job.state;\n\
                   fn apply_event(x: u8) {}\n\
                   }\n";
        let scan = scan_source(&owned_ctx("sched", &owners), src);
        assert!(
            scan.findings.iter().all(|f| f.lint != "single-writer"),
            "reads and fn definitions are not write sites: {:?}",
            scan.findings
        );
        // The owning file itself may write.
        let owner_ctx = ScanCtx {
            crate_name: "core",
            kind: FileKind::Lib,
            rel_path: "crates/core/src/lifecycle.rs",
            dep_allowed: &crate::manifest::edge_allowed,
            owners: &owners,
        };
        let write = "fn g(job: &mut Job) { job.state = JobState::Queued; }\n";
        assert!(scan_source(&owner_ctx, write).findings.is_empty());
    }

    #[test]
    fn l8_concurrency_flags_primitives_in_deterministic_layers_only() {
        let src = "use std::sync::{Mutex, RwLock};\n\
                   fn f() { let (tx, rx) = mpsc::channel(); }\n\
                   fn g() { thread::spawn(|| {}); }\n";
        let scan = scan_source(&ctx("sched", FileKind::Lib), src);
        let conc: Vec<u32> = scan
            .findings
            .iter()
            .filter(|f| f.lint == "concurrency")
            .map(|f| f.line)
            .collect();
        assert_eq!(conc, vec![1, 1, 2, 3]);
        // The harness, obs, and service edges stay free to use them.
        assert!(scan_source(&ctx("bench", FileKind::Lib), src)
            .findings
            .is_empty());
        assert!(scan_source(&ctx("obs", FileKind::Lib), src)
            .findings
            .is_empty());
        assert!(scan_source(&ctx("taccd", FileKind::Lib), src)
            .findings
            .is_empty());
    }

    #[test]
    fn l8_lock_across_fork_join_is_flagged_everywhere_but_par() {
        let src = "fn f(m: &M, v: V) {\n\
                   let guard = m.lock();\n\
                   let out = par_map(v, |x| x);\n\
                   }\n\
                   fn ok(m: &M, v: V) {\n\
                   { let g = m.lock(); }\n\
                   let out = par_map(v, |x| x);\n\
                   }\n";
        let scan = scan_source(&ctx("bench", FileKind::Lib), src);
        let conc: Vec<u32> = scan
            .findings
            .iter()
            .filter(|f| f.lint == "concurrency")
            .map(|f| f.line)
            .collect();
        assert_eq!(conc, vec![3], "only the held-guard fork is flagged");
        assert!(scan_source(&ctx("par", FileKind::Lib), src)
            .findings
            .is_empty());
    }

    #[test]
    fn l9_match_wildcard_flags_bare_wildcards_in_lifecycle_matches() {
        let src = "fn f(s: JobState) -> u8 {\n\
                   match s {\n\
                   JobState::Running => 1,\n\
                   _ => 0,\n\
                   }\n\
                   }\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert_eq!(
            scan.findings
                .iter()
                .filter(|f| f.lint == "match-wildcard")
                .map(|f| f.line)
                .collect::<Vec<_>>(),
            vec![4]
        );
    }

    #[test]
    fn l9_match_wildcard_ignores_untyped_matches_and_shaped_wildcards() {
        let src = "fn f(d: Decision, s: JobState) -> u8 {\n\
                   match d {\n\
                   Decision::Place => 1,\n\
                   _ => 0,\n\
                   }\n\
                   match s {\n\
                   JobState::Running | JobState::Queued => 1,\n\
                   JobState::Submitted => Foo { a: 2 }.a,\n\
                   other => by_name(other),\n\
                   }\n\
                   match (s, d) {\n\
                   (JobState::Running, _) => 1,\n\
                   (_, Decision::Skip) if cond() => 2,\n\
                   (_, _) => 0,\n\
                   }\n\
                   }\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert!(
            scan.findings.iter().all(|f| f.lint != "match-wildcard"),
            "unexpected: {:?}",
            scan.findings
        );
    }

    #[test]
    fn l9_allow_comment_suppresses_with_reason() {
        let src = "fn f(s: JobState) -> u8 {\n\
                   match s {\n\
                   JobState::Running => 1,\n\
                   // tacc-lint: allow(match-wildcard, reason = \"projection only\")\n\
                   _ => 0,\n\
                   }\n\
                   }\n";
        let scan = scan_source(&ctx("core", FileKind::Lib), src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.suppressed.len(), 1);
    }

    #[test]
    fn metric_name_shape() {
        assert!(valid_metric_name("tacc_sched_rounds_total"));
        assert!(valid_metric_name("tacc_core_queue_delay_seconds"));
        assert!(valid_metric_name("tacc_taccd_journal_fsyncs_total"));
        assert!(!valid_metric_name("tacc_sched"));
        assert!(!valid_metric_name("sched_rounds"));
        assert!(!valid_metric_name("tacc_Sched_rounds"));
        assert!(!valid_metric_name("tacc_sched__total")); // empty segment
        assert!(!valid_metric_name("tacc_unknown_rounds"));
    }
}
