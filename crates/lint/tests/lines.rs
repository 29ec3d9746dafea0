//! `lint --lines` on a scratch workspace: a file counts the lines before
//! its first column-0 `#[cfg(test)]` or `#[cfg(all(test`, an indented
//! or commented-out one does not end the count, and files sum per
//! crate — the nearest directory holding a `Cargo.toml` — and in total.

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

fn lines(root: &Path, paths: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--root")
        .arg(root)
        .arg("--lines")
        .args(paths)
        .output()
        .expect("spawn lint binary");
    let text = String::from_utf8(out.stdout).expect("UTF-8");
    (out.status.success(), text)
}

#[test]
fn lines_count_what_comes_before_the_tests_per_crate_and_in_total() {
    let root = scratch("lines");
    write(&root.join("Cargo.toml"), "[workspace]\n");
    write(&root.join("crates/alpha/Cargo.toml"), "[package]\n");
    // Three lines, then the tests.
    write(
        &root.join("crates/alpha/src/lib.rs"),
        "pub mod deep;\n\npub fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n",
    );
    // An indented attribute is not the tests' start; `#[cfg(all(test`
    // is: four lines.
    write(
        &root.join("crates/alpha/src/deep/mod.rs"),
        "mod inner {\n    #[cfg(test)]\n    fn t() {}\n}\n#[cfg(all(test, unix))]\nmod tests {}\n",
    );
    // No tests at all: every line counts, the last without a newline.
    write(
        &root.join("crates/beta/src/main.rs"),
        "fn main() {}\n// #[cfg(test)]\nfn b() {}",
    );
    write(&root.join("crates/beta/Cargo.toml"), "[package]\n");
    write(&root.join("crates/beta/src/notes.txt"), "not rust\n");
    // Outside `crates/*/src`: counted only when named.
    write(
        &root.join("crates/beta/tests/it.rs"),
        "#[test]\nfn t() {}\n",
    );
    write(&root.join("tools/x.rs"), "fn x() {}\n");

    let (ok, text) = lines(&root, &[]);
    assert!(ok);
    assert_eq!(
        text,
        "      7    2 files  crates/alpha\n      \
               3    1 files  crates/beta\n     \
              10    3 files  total\n"
    );
    let (ok, text) = lines(&root, &["crates/beta", "tools/x.rs"]);
    assert!(ok);
    assert_eq!(
        text,
        "      1    1 files  .\n      \
               5    2 files  crates/beta\n      \
               6    3 files  total\n"
    );
    let (ok, _) = lines(&root, &["crates/gamma"]);
    assert!(!ok, "a path that is not there is an error");
    fs::remove_dir_all(&root).ok();
}
