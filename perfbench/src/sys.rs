//! What the benchmark asks of the operating system: process CPU time, peak
//! resident memory, and a private directory under the build directory for
//! journals, sockets and the span file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// `/proc/self/stat` counts CPU time in `USER_HZ` ticks, which Linux fixes
/// at 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// utime + stime: fields 14 and 15, counted after the parenthesised command
/// name (which may itself contain spaces).
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// A directory of this run's own, beside the benchmark's executable (so
/// under the build directory, inside the checkout), removed when dropped.
///
/// The path is kept relative to the working directory when it can be:
/// Unix sockets are bound under it, `sun_path` holds 108 bytes, and the
/// checkout may sit under a long absolute path.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
    keep: bool,
}

static RUN_DIRS: AtomicU32 = AtomicU32::new(0);

impl RunDir {
    pub fn create(keep: bool) -> Result<RunDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let build_dir = exe.parent().ok_or("executable has no parent directory")?;
        let name = format!(
            "perfbench-run-{}-{}",
            std::process::id(),
            RUN_DIRS.fetch_add(1, Ordering::Relaxed)
        );
        let absolute = build_dir.join(name);
        let path = match std::env::current_dir() {
            Ok(cwd) => absolute
                .strip_prefix(&cwd)
                .map(Path::to_path_buf)
                .unwrap_or(absolute),
            Err(_) => absolute,
        };
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir { path, keep })
    }

    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }

    /// A socket path under the run directory, refused when it would not fit
    /// `sun_path`.
    pub fn socket(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.file(name);
        if path.as_os_str().len() >= 100 {
            return Err(format!(
                "socket path {} is too long for sun_path; run from the checkout root",
                path.display()
            ));
        }
        Ok(path)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if self.keep {
            eprintln!("perfbench: kept {}", self.path.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 700 300 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(1000));
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(
            parse_vm_hwm_kb("VmPeak:\t  10 kB\nVmHWM:\t    2048 kB\n"),
            Some(2048)
        );
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn run_dir_is_removed_on_drop_and_refuses_long_socket_paths() {
        let dir = RunDir::create(false).expect("creates");
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        assert!(dir.socket("s.sock").is_ok() || path.as_os_str().len() > 90);
        assert!(dir.socket(&"x".repeat(120)).is_err());
        drop(dir);
        assert!(!path.exists());
    }
}
