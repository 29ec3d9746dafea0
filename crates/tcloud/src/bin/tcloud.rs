//! `tcloud` — the CLI against a live `taccd` daemon.
//!
//! ```text
//! tcloud --socket PATH <verb> [...]
//! ```
//!
//! The verbs, their arguments and their output are
//! [`tacc_tcloud::cli`]'s — the same table the in-process
//! [`tacc_tcloud::TcloudClient`] runs; here the endpoint is the daemon,
//! so every mutation is journalled and fsynced by `taccd` before the
//! acknowledgement this tool prints. Exit code 0 on success, 1 on a
//! refusal or a transport error, 2 on usage.

#![allow(clippy::print_stdout)]

use std::path::Path;
use std::process::ExitCode;

use tacc_tcloud::{cli, DaemonClient, RetryPolicy, TcloudError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match argv.as_slice() {
        ["--socket", path, verb @ ..] if !verb.is_empty() => {
            DaemonClient::connect(Path::new(path), RetryPolicy::default())
                .map_err(TcloudError::from)
                .and_then(|mut daemon| cli::run(&mut daemon, verb))
        }
        _ => Err(TcloudError::Usage(cli::USAGE.to_owned())),
    };
    match result {
        Ok(output) => {
            for line in output.lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tcloud: {e}");
            match e {
                TcloudError::Usage(_) => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
    }
}
