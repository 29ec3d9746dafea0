//! The service edge against inputs that once broke it.
//!
//! * A job, image, dependency or dataset may be named `inf`, `-inf` or
//!   `nan`. The JSON printer spells non-finite *numbers* that way, and the
//!   parser used to read those strings back as numbers — so such a job
//!   was acknowledged and journalled, and on restart its frame (and every
//!   acknowledged frame after it) was cut off as unparseable.
//! * A frame of 200,000 `[` is far under the frame-length cap; the
//!   parser used to recurse once per bracket and overflow the stack,
//!   taking the daemon down from any client socket.
//! * One schema text must work for the in-process `tcloud` and against a
//!   live daemon alike.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::mpsc;

use tacc_core::wire::{self, Json};
use tacc_core::{Command, PlatformConfig};
use tacc_taccd::{ClockMode, Daemon, DaemonConfig, Engine, EngineConfig, Msg, Query, Reply};
use tacc_tcloud::{DaemonClient, RetryPolicy, TcloudClient, TransportError};
use tacc_workload::{GroupId, TaskSchema};

fn temp(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("tacc-hostile-{tag}-{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn engine_config(journal: &std::path::Path) -> EngineConfig {
    EngineConfig {
        journal: journal.to_owned(),
        platform: PlatformConfig::default(),
        clock: ClockMode::Logical,
    }
}

fn submit(name: &str) -> Command {
    let mut schema = TaskSchema::builder(name, GroupId::from_index(0))
        .est_duration_secs(120.0)
        .build()
        .expect("valid schema");
    // Every free-text field of the schema, not only the job name.
    schema.env.image = name.to_owned();
    schema.env.dependencies = vec![(name.to_owned(), 1)];
    schema.env.dataset = Some((name.to_owned(), 1));
    Command::Submit {
        schema,
        service_secs: 90.0,
    }
}

fn call(tx: &mpsc::Sender<Msg>, msg: impl FnOnce(mpsc::Sender<Reply>) -> Msg) -> Reply {
    let (reply, answer) = mpsc::channel();
    tx.send(msg(reply)).expect("engine alive");
    answer.recv().expect("reply arrives")
}

/// Runs `engine` on its own thread, applies `commands`, and returns the
/// transition log it ends with.
fn drive(engine: Engine, commands: Vec<Command>) -> String {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || engine.run(&rx));
    for command in commands {
        let ack = call(&tx, |reply| Msg::Mutate { command, reply });
        assert!(matches!(ack, Reply::Ok(_)), "command rejected: {ack:?}");
    }
    let query = Query::Transitions;
    let log = match call(&tx, |reply| Msg::Query { query, reply }) {
        Reply::Ok(Json::Str(text)) => text,
        other => panic!("transitions query failed: {other:?}"),
    };
    tx.send(Msg::Stop).expect("engine alive");
    handle.join().expect("engine thread exits");
    log
}

#[test]
fn jobs_named_like_nonfinite_floats_survive_a_restart() {
    let journal = temp("names-journal");
    let (engine, report) = Engine::open(engine_config(&journal)).expect("engine opens");
    assert!(report.is_none(), "a fresh journal has nothing to recover");
    let names = ["a", "inf", "nan", "b"];
    let before = drive(engine, names.map(submit).to_vec());

    let (engine, report) = Engine::open(engine_config(&journal)).expect("engine reopens");
    let report = report.expect("an existing journal is recovered");
    assert_eq!(report.frames, 4, "every acknowledged command is recovered");
    assert_eq!(report.torn_bytes, 0, "{:?}", report.torn_reason);
    let after = drive(engine, Vec::new());
    assert_eq!(
        before, after,
        "restart must byte-reproduce the transition log"
    );
    std::fs::remove_file(&journal).ok();
}

fn start_daemon(tag: &str) -> (Daemon, PathBuf, PathBuf) {
    let socket = temp(&format!("{tag}-sock"));
    let journal = temp(&format!("{tag}-journal"));
    let (daemon, _) = Daemon::start(DaemonConfig {
        socket: socket.clone(),
        engine: engine_config(&journal),
    })
    .expect("daemon starts");
    (daemon, socket, journal)
}

#[test]
fn the_socket_path_accepts_a_job_named_nan() {
    let (daemon, socket, journal) = start_daemon("nan");
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::default()).expect("connects");
    for name in ["nan", "-inf"] {
        let ack = conn.mutate(&submit(name)).expect("accepted, not malformed");
        let job = ack.get("job").and_then(Json::as_u64).expect("job id");
        let status = conn.query("status", Some(job)).expect("status answered");
        assert_eq!(status.get("name").and_then(Json::as_str), Some(name));
    }
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}

#[test]
fn a_deeply_nested_frame_is_answered_malformed_and_the_daemon_lives() {
    let (daemon, socket, journal) = start_daemon("deep");

    let mut raw = UnixStream::connect(&socket).expect("raw connection");
    raw.write_all(&wire::encode_frame("[".repeat(200_000).as_bytes()))
        .expect("frame sent");
    // Half-close, so the daemon answers the one frame and then sees EOF.
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("response read");
    let (payload, _) = wire::decode_frame(&response).expect("one intact response frame");
    let reply = wire::parse(std::str::from_utf8(payload).expect("UTF-8")).expect("JSON");
    let kind = reply.get("err").and_then(|e| e.get("kind"));
    assert_eq!(
        kind.and_then(Json::as_str),
        Some("malformed-frame"),
        "{reply}"
    );

    // `connect` performs the `hello` exchange.
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::none()).expect("hello succeeds");
    conn.query("info", None).expect("daemon still serves");
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}

#[test]
fn one_schema_text_submits_in_process_and_against_a_live_daemon() {
    // Hand-written, as a user would: whitespace, optional fields left out.
    let text = r#"{
        "name": "portable", "group": 2, "workers": 2,
        "resources": {"gpus": 8, "cpu_cores": 16, "mem_gb": 64},
        "qos": "best-effort", "task_kind": "training", "runtime": "auto",
        "env": {"image": "pytorch-2.1-cuda12", "dependencies": [["torch", 800]], "code_mb": 5},
        "est_duration_secs": 900,
        "model": {"param_mb": 100, "compute_secs_per_iter": 0.3}
    }"#;

    let mut local = TcloudClient::with_profile("campus", PlatformConfig::default());
    let out = local
        .run_command(&["submit", text, "--service", "900"])
        .expect("in-process submit");
    assert_eq!(out.text(), "submitted job 0");
    assert_eq!(local.list_jobs()[0].name, "portable");

    let (daemon, socket, journal) = start_daemon("schema");
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::default()).expect("connects");
    let ack = conn.submit_json(text, 900.0).expect("remote submit");
    assert_eq!(ack.get("job").and_then(Json::as_u64), Some(0));
    let status = conn.query("status", Some(0)).expect("status answered");
    assert_eq!(status.get("name").and_then(Json::as_str), Some("portable"));

    // And one malformed text is refused by both, before anything is sent.
    assert!(local.run_command(&["submit", "{\"name\": \"x\"}"]).is_err());
    assert!(matches!(
        conn.submit_json("{\"name\": \"x\"}", 900.0),
        Err(TransportError::MalformedFrame(_))
    ));
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}
