//! The committed panic-surface baseline (`lint-baseline.json`).
//!
//! The L5 lint does not demand zero `unwrap`/`expect`/`panic!` sites —
//! the workspace asserts internal invariants on purpose — it demands the
//! count *never grows*. Each library file's current site count is
//! committed here; a scan fails on any file whose count exceeds its
//! budget (new files get budget zero). Shrinking is rewarded: the scan
//! reports files under budget so `--bless-baseline` can ratchet down.
//!
//! The format is a two-level JSON object, rendered byte-stably with
//! sorted keys:
//!
//! ```json
//! {
//!   "panic-surface": {
//!     "crates/core/src/platform.rs": 7
//!   }
//! }
//! ```

use std::collections::BTreeMap;

use tacc_json::{obj, Json};

/// Per-file panic-site budgets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// file → allowed panic-surface site count.
    pub panic_surface: BTreeMap<String, u64>,
}

/// Renders a baseline byte-stably (sorted keys, trailing newline).
pub fn render(counts: &BTreeMap<String, u64>) -> String {
    let table = counts
        .iter()
        .filter(|(_, count)| **count > 0)
        .map(|(file, count)| (file.clone(), Json::from(*count)))
        .collect();
    obj(vec![("panic-surface", Json::Obj(table))]).to_pretty()
}

/// Parses a baseline document. Strict about shape; errors carry enough
/// context to fix the file by hand.
pub fn parse(text: &str) -> Result<Baseline, String> {
    let doc = tacc_json::parse(text).map_err(|e| format!("lint-baseline.json: {e}"))?;
    let Json::Obj(sections) = doc else {
        return Err("lint-baseline.json is not a JSON object".to_owned());
    };
    let mut baseline = Baseline::default();
    for (section, table) in sections {
        if section != "panic-surface" {
            return Err(format!("unknown baseline section \"{section}\""));
        }
        let Json::Obj(table) = table else {
            return Err(format!("baseline section \"{section}\" is not an object"));
        };
        for (file, count) in table {
            let count = count
                .as_u64()
                .ok_or_else(|| format!("budget of \"{file}\" is not a count"))?;
            baseline.panic_surface.insert(file, count);
        }
    }
    Ok(baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/core/src/platform.rs".to_owned(), 7);
        counts.insert("crates/par/src/lib.rs".to_owned(), 6);
        counts.insert("crates/zero/src/lib.rs".to_owned(), 0); // dropped
        let text = render(&counts);
        let parsed = parse(&text).expect("round trip");
        assert_eq!(parsed.panic_surface.len(), 2);
        assert_eq!(
            parsed.panic_surface.get("crates/core/src/platform.rs"),
            Some(&7)
        );
        // Byte stability.
        assert_eq!(text, render(&counts));
    }

    #[test]
    fn empty_baseline() {
        let empty = parse("{}").expect("empty object");
        assert!(empty.panic_surface.is_empty());
        let rendered = render(&BTreeMap::new());
        assert!(parse(&rendered).expect("parses").panic_surface.is_empty());
    }

    #[test]
    fn rejects_unknown_sections() {
        assert!(parse("{\"other\": {}}").is_err());
        assert!(parse("{\"panic-surface\": {\"f\": }}").is_err());
        assert!(parse("{\"panic-surface\": {\"f\": -1}}").is_err());
        assert!(parse("[]").is_err());
    }

    #[test]
    fn multi_byte_paths_survive() {
        let mut counts = BTreeMap::new();
        counts.insert("crates/é/src/字.rs".to_owned(), 2);
        let parsed = parse(&render(&counts)).expect("round trip");
        assert_eq!(parsed.panic_surface, counts);
    }
}
