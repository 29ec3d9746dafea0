//! `lint --lines`: the one line count the documents quote. A file's
//! non-test lines are those before its first column-0 `#[cfg(test)]` or
//! `#[cfg(all(test` — where its unit tests start — and the whole file
//! when it has none. Counts are summed per crate and in total.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::fs;
use std::path::{Path, PathBuf};

use crate::{rel, sorted_dirs};

/// The lines of `src` before its first column-0 test attribute.
pub fn non_test_lines(src: &str) -> usize {
    src.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]") && !line.starts_with("#[cfg(all(test"))
        .count()
}

/// What one crate's files count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `.rs` files counted.
    pub files: usize,
    /// Their non-test lines.
    pub lines: usize,
}

/// Counts every `.rs` file under `paths` (files or directories, relative
/// to `root`), keyed by crate: the nearest directory above a file that
/// holds a `Cargo.toml`, relative to `root` (`.` for the root itself).
/// No paths means every crate's `src` under `crates/`.
///
/// # Errors
///
/// A path that does not exist, or a file or directory that cannot be
/// read.
pub fn count(root: &Path, paths: &[PathBuf]) -> Result<BTreeMap<String, Tally>, String> {
    let paths: Vec<PathBuf> = if paths.is_empty() {
        let crates = sorted_dirs(&root.join("crates"))?;
        crates
            .into_iter()
            .map(|dir| dir.join("src"))
            .filter(|src| src.is_dir())
            .collect()
    } else {
        paths.iter().map(|path| root.join(path)).collect()
    };
    let mut files = Vec::new();
    for path in &paths {
        collect(path, &mut files)?;
    }
    let mut tallies: BTreeMap<String, Tally> = BTreeMap::new();
    for file in files {
        let src =
            fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", rel(root, &file)))?;
        let package = file
            .ancestors()
            .skip(1)
            .find(|dir| dir.join("Cargo.toml").is_file());
        let package = match package.map(|dir| rel(root, dir)) {
            Some(dir) if !dir.is_empty() => dir,
            _ => ".".to_owned(),
        };
        let tally = tallies.entry(package).or_default();
        tally.files += 1;
        tally.lines += non_test_lines(&src);
    }
    Ok(tallies)
}

/// The count as text: one line per crate, then the total.
pub fn render(tallies: &BTreeMap<String, Tally>) -> String {
    let mut out = String::new();
    let mut total = Tally::default();
    for (package, tally) in tallies {
        let _ = writeln!(
            out,
            "{:>7} {:>4} files  {package}",
            tally.lines, tally.files
        );
        total.files += tally.files;
        total.lines += tally.lines;
    }
    let _ = writeln!(out, "{:>7} {:>4} files  total", total.lines, total.files);
    out
}

/// `path` itself if it is a `.rs` file, or every `.rs` file under it,
/// sorted.
fn collect(path: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    if path.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            files.push(path.to_owned());
        }
        return Ok(());
    }
    let entries = fs::read_dir(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        collect(&path, files)?;
    }
    Ok(())
}
