//! One `tcloud`, two endpoints: whatever `cli::run` prints for a verb
//! against the in-process client it prints against a live daemon, for
//! the same session.

use std::collections::BTreeSet;
use std::path::PathBuf;

use tacc_core::{Command, PlatformConfig};
use tacc_sim::DetRng;
use tacc_taccd::{ClockMode, Daemon, DaemonConfig, EngineConfig};
use tacc_tcloud::{cli, DaemonClient, Endpoint, RetryPolicy, TcloudClient, TcloudError};
use tacc_tests::{config_with, session_argv, session_step, small_trace, SessionStep};
use tacc_workload::{GroupId, TaskSchema};

/// The two endpoints over one `PlatformConfig`, and what to clean up.
struct Pair {
    local: TcloudClient,
    remote: DaemonClient,
    daemon: Daemon,
    journal: PathBuf,
}

impl Pair {
    fn start(tag: &str, platform: PlatformConfig) -> Pair {
        let temp = |kind: &str| {
            let name = format!("tacc-parity-{tag}-{kind}-{}", std::process::id());
            let path = std::env::temp_dir().join(name);
            std::fs::remove_file(&path).ok();
            path
        };
        let (socket, journal) = (temp("sock"), temp("journal"));
        let (daemon, _) = Daemon::start(DaemonConfig {
            socket: socket.clone(),
            engine: EngineConfig {
                journal: journal.clone(),
                platform: platform.clone(),
                clock: ClockMode::Logical,
            },
        })
        .expect("daemon starts");
        Pair {
            local: TcloudClient::with_profile("campus", platform),
            remote: DaemonClient::connect(&socket, RetryPolicy::default()).expect("connects"),
            daemon,
            journal,
        }
    }

    /// Runs one command line on both endpoints; the results must be equal,
    /// refusals included.
    fn both(&mut self, argv: &[&str]) -> Result<Vec<String>, TcloudError> {
        let [local, remote] = self.each(argv);
        assert_eq!(local, remote, "`{}` differs", argv.join(" "));
        local
    }

    /// One command line on each endpoint: `[in-process, daemon]`.
    fn each(&mut self, argv: &[&str]) -> [Result<Vec<String>, TcloudError>; 2] {
        let endpoints: [&mut dyn Endpoint; 2] = [&mut self.local, &mut self.remote];
        endpoints.map(|endpoint| cli::run(endpoint, argv).map(|out| out.lines))
    }

    fn stop(self) {
        drop(self.remote);
        self.daemon.stop();
        std::fs::remove_file(&self.journal).ok();
    }
}

/// The series a metrics exposition names (everything before the labels
/// or the value), the daemon's own aside.
fn series(lines: &[String]) -> BTreeSet<&str> {
    let names = lines.iter().filter(|l| !l.starts_with('#'));
    let names = names.filter_map(|l| l.split(['{', ' ']).next());
    names.filter(|n| !n.starts_with("tacc_taccd_")).collect()
}

#[test]
fn every_verb_prints_the_same_lines_on_both_endpoints() {
    const COMMANDS: u64 = 60;
    let mut pair = Pair::start("session", PlatformConfig::default());
    let rng = &mut DetRng::seed_from_u64(22);
    let (mut issued, mut refused) = (0, 0);
    let mut seq = 0;
    while issued < COMMANDS {
        let jobs = pair.local.platform().job_count() as u64;
        let now_secs = pair.local.platform().now().as_secs();
        let step = session_step(rng, seq, jobs, now_secs);
        seq += 1;
        if matches!(step, SessionStep::Wait(_)) {
            continue; // a session verb: no endpoint takes it
        }
        let argv = session_argv(&step);
        let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
        refused += u64::from(pair.both(&argv).is_err());
        issued += 1;
        if issued % 5 != 0 {
            continue;
        }

        // Every query verb, for the oldest job, the newest, and one that
        // does not exist.
        for verb in ["ps", "top", "quota", "goodput", "transitions"] {
            pair.both(&[verb]).expect(verb);
        }
        let jobs = pair.local.platform().job_count() as u64;
        for job in [0, jobs.saturating_sub(1), jobs] {
            for verb in ["status", "events", "logs", "timeline", "why", "get"] {
                let answer = pair.both(&[verb, &job.to_string()]);
                assert_eq!(answer.is_ok(), job < jobs, "{verb} {job}");
            }
        }
        // `info` agrees on the cluster; only the daemon has a journal to
        // report on, in `info` and in `journal`.
        let [local, remote] = pair.each(&["info"]).map(|info| info.expect("info"));
        assert_eq!(local[..], remote[..1], "`info` differs");
        assert!(remote[1].starts_with("journal at seq "), "{remote:?}");
        let [local, remote] = pair.each(&["journal"]);
        assert!(
            matches!(&local, Err(TcloudError::Refused { kind, .. }) if kind == "no-journal"),
            "{local:?}"
        );
        let accepted = format!("next_seq {}", issued - refused);
        assert!(remote.expect("journal")[0].ends_with(&accepted));
        // Round latencies are wall time and the daemon adds its own
        // series, so `metrics` agrees on which platform series exist.
        let [local, remote] = pair.each(&["metrics"]).map(|m| m.expect("metrics"));
        assert_eq!(series(&local), series(&remote), "`metrics` series differ");
        assert!(remote.iter().any(|l| l.starts_with("tacc_taccd_")));
    }
    assert!(pair.local.platform().job_count() >= 10, "session too thin");
    assert!(refused >= 3, "no refusal was compared");
    pair.stop();
}

/// A job's log is its bus events: for every job of a seeded replay,
/// `logs` prints what `events` prints without the sequence number and
/// kind, on both endpoints — with a bus that drops nothing, and with one
/// small enough to evict, where both open with the same warning.
#[test]
fn logs_are_the_events_rendered_on_both_endpoints() {
    let trace = small_trace(11, 0.25, 1.0);
    for (tag, capacity) in [("roomy", 262_144), ("evicting", 256)] {
        let config = config_with(|c| c.event_buffer_capacity = capacity);
        let mut pair = Pair::start(tag, config);
        let apply = |pair: &mut Pair, command| {
            let argv = session_argv(&SessionStep::Apply(command));
            let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
            pair.both(&argv).expect("applies");
        };
        for record in trace.records() {
            let now_secs = pair.local.platform().now().as_secs();
            let secs = (record.submit_secs - now_secs).max(0.0);
            apply(&mut pair, Command::Advance { secs });
            let submit = Command::Submit {
                schema: record.schema.clone(),
                service_secs: record.service_secs,
            };
            apply(&mut pair, submit);
        }
        apply(&mut pair, Command::Advance { secs: 86_400.0 });

        let dropped = pair.local.platform().events().dropped();
        assert_eq!(dropped > 0, tag == "evicting", "{tag}: {dropped} dropped");
        let jobs = pair.local.platform().job_count();
        assert_eq!(jobs, trace.len(), "{tag}");
        let mut with_history = 0;
        for job in 0..jobs {
            let job = job.to_string();
            let logs = pair.both(&["logs", &job]).expect("logs");
            let events = pair.both(&["events", &job]).expect("events");
            // `[t=…s] #seq kind: event` is `[t=…s] event` in a log; the
            // warning, if any, is the same line in both.
            let rendered: Vec<String> = events
                .iter()
                .map(|line| match line.split_once("] #") {
                    Some((stamp, rest)) => {
                        let (_, event) = rest.split_once(": ").expect("kind: event");
                        format!("{stamp}] {event}")
                    }
                    None => line.clone(),
                })
                .collect();
            assert_eq!(logs, rendered, "{tag}: job {job}");
            let warning = format!("warning: {dropped} event(s) dropped");
            assert_eq!(
                logs.first().is_some_and(|l| l.starts_with(&warning)),
                dropped > 0,
                "{tag}: job {job}: {logs:?}"
            );
            with_history += usize::from(logs.len() > usize::from(dropped > 0));
        }
        // The evicting bus still holds the newest jobs' histories.
        assert!(with_history > 0, "{tag}: no job has a line to compare");
        pair.stop();
    }
}

/// `ps` used to cut a name at byte 19: a panic in process when that is
/// inside a character, and no cut at all against a daemon.
#[test]
fn multi_byte_names_fill_the_name_column_on_both_endpoints() {
    let names = [
        "é".repeat(11),                    // 22 bytes: byte 19 is mid-character
        "計算機科学".repeat(6),            // 30 characters: must be cut
        "abcdefghijklmnopqrst".to_owned(), // exactly 20 bytes: fits whole
    ];
    let mut pair = Pair::start("names", PlatformConfig::default());
    for name in &names {
        let schema = TaskSchema::builder(name, GroupId::from_index(0))
            .build()
            .expect("valid");
        let json = schema.to_json().to_string();
        pair.both(&["submit", &json]).expect("submits");
    }
    let ps = pair.both(&["ps"]).expect("ps works");
    for (name, line) in names.iter().zip(&ps[1..]) {
        // JOB is 8 wide, STATE 12, NAME 20, one space between columns.
        let column: String = line.chars().skip(22).take(21).collect();
        let shown = column.trim_end();
        assert!(column.ends_with(' '), "NAME overflows its column: {line}");
        assert!(shown.chars().count() <= 20, "{line}");
        if name.chars().count() <= 20 {
            assert_eq!(shown, name);
        } else {
            let kept: String = name.chars().take(19).collect();
            assert_eq!(shown, kept + "…");
        }
    }
    for (job, name) in names.iter().enumerate() {
        let status = pair.both(&["status", &job.to_string()]).expect("status");
        assert!(status[0].contains(&format!("'{name}'")), "{status:?}");
    }
    pair.stop();
}
