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
//! * A query names its job with a non-negative integer or not at all;
//!   anything else is `malformed-query`, and whatever a request text is
//!   mangled into, the one request reader answers with a typed refusal.
//! * A client that connects and then says nothing used to keep
//!   `Daemon::stop` (and `Drop`) waiting on its connection thread for
//!   good.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};

use tacc_core::wire::{self, Json, Request};
use tacc_core::{Command, PlatformConfig};
use tacc_sim::DetRng;
use tacc_taccd::{ClockMode, Daemon, DaemonConfig, Engine, EngineConfig, Msg, Query, Reply};
use tacc_tcloud::{cli, CommandOutput, DaemonClient, RetryPolicy, TcloudClient, TcloudError};
use tacc_tests::below;
use tacc_workload::{GroupId, JobId, TaskSchema};

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
    schema.env.image = name.into();
    schema.env.dependencies = Arc::new([(name.into(), 1)]);
    schema.env.dataset = Some((name.into(), 1));
    Command::Submit {
        schema: schema.into(),
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
fn stop_returns_while_a_client_holds_an_idle_connection() {
    let (daemon, socket, journal) = start_daemon("idle");
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::none()).expect("connects");
    conn.query("info", None).expect("daemon serves");
    // The client stays connected and silent; `stop` must not wait on it.
    let (done, stopped) = mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        daemon.stop();
        let _ = done.send(());
    });
    let returned = stopped.recv_timeout(std::time::Duration::from_secs(10));
    assert!(returned.is_ok(), "stop() hangs on an idle connection");
    watchdog.join().expect("stop does not panic");
    assert!(
        conn.query("info", None).is_err(),
        "the stopped daemon answers nothing"
    );
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
    let ps = local.run_command(&["ps"]).expect("ps works");
    assert!(ps.lines[1].contains("portable"), "{ps:?}");

    let (daemon, socket, journal) = start_daemon("schema");
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::default()).expect("connects");
    let remote = cli::run(&mut conn, &["submit", text, "--service", "900"]);
    assert_eq!(remote.expect("remote submit").text(), "submitted job 0");
    let status = conn.query("status", Some(0)).expect("status answered");
    assert_eq!(status.get("name").and_then(Json::as_str), Some("portable"));

    // And one malformed text is refused by both, before anything is sent.
    let malformed = ["submit", "{\"name\": \"x\"}"];
    let refusal = |result: Result<CommandOutput, TcloudError>| match result {
        Err(TcloudError::Refused { kind, .. }) => kind,
        other => panic!("not refused: {other:?}"),
    };
    assert_eq!(refusal(local.run_command(&malformed)), "invalid-task");
    assert_eq!(refusal(cli::run(&mut conn, &malformed)), "invalid-task");
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}

/// One raw request text over `conn`, and the response's `err.kind`
/// (`None` for an `ok`).
fn raw_request(conn: &mut UnixStream, text: &str) -> Option<String> {
    conn.write_all(&wire::encode_frame(text.as_bytes()))
        .expect("frame sent");
    let payload = wire::read_frame(conn).expect("intact frame");
    match Reply::read(&payload.expect("a response")).expect("a response object") {
        Reply::Ok(_) => None,
        Reply::Err { kind, .. } => Some(kind),
    }
}

#[test]
fn hostile_queries_are_answered_malformed_query_and_the_connection_lives() {
    let (daemon, socket, journal) = start_daemon("queries");
    let mut conn = UnixStream::connect(&socket).expect("raw connection");
    let mut hostile = vec![
        r#"{"v":1,"query":{"kind":"frobnicate"}}"#.to_owned(),
        r#"{"v":1,"query":{"job":0}}"#.to_owned(),
        r#"{"v":1,"query":["status",0]}"#.to_owned(),
    ];
    for kind in ["status", "events", "logs", "timeline", "why", "artifacts"] {
        for job in ["-1", "1.5", "1e30", "\"0\"", "null", "[0]"] {
            hostile.push(format!(
                r#"{{"v":1,"query":{{"kind":"{kind}","job":{job}}}}}"#
            ));
        }
        hostile.push(format!(r#"{{"v":1,"query":{{"kind":"{kind}"}}}}"#));
    }
    for text in &hostile {
        let kind = raw_request(&mut conn, text);
        assert_eq!(kind.as_deref(), Some("malformed-query"), "{text}");
        // The same connection still answers a well-formed request.
        assert_eq!(raw_request(&mut conn, r#"{"v":1,"hello":true}"#), None);
    }
    let unknown = raw_request(&mut conn, r#"{"v":1,"query":{"kind":"why","job":0}}"#);
    assert_eq!(
        unknown.as_deref(),
        Some("unknown-job"),
        "well-formed reaches the engine"
    );
    drop(conn);
    let mut conn = DaemonClient::connect(&socket, RetryPolicy::none()).expect("daemon alive");
    conn.query("info", None).expect("daemon still serves");
    drop(conn);
    daemon.stop();
    std::fs::remove_file(&journal).ok();
}

/// Every node of a JSON tree, as the child indices that lead to it.
fn paths(value: &Json, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(here.clone());
    let children: Vec<&Json> = match value {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        paths(child, here, out);
        here.pop();
    }
}

fn node_at<'a>(value: &'a mut Json, path: &[usize]) -> &'a mut Json {
    let Some((&first, rest)) = path.split_first() else {
        return value;
    };
    match value {
        Json::Arr(items) => node_at(&mut items[first], rest),
        Json::Obj(fields) => node_at(&mut fields[first].1, rest),
        _ => unreachable!("paths end at leaves"),
    }
}

/// The tree of the one payload a frame writer appends.
fn tree(frame: impl FnOnce(&mut Vec<u8>)) -> Json {
    let mut buf = Vec::new();
    frame(&mut buf);
    let (payload, _) = wire::decode_frame(&buf).expect("one whole frame");
    wire::parse(std::str::from_utf8(payload).expect("UTF-8")).expect("a writer's text parses")
}

/// The request-parsing slice of an in-tree fuzz: valid `hello`, `mutate`
/// and `query` texts with a field dropped, a type swapped, a value
/// nested 10,000 deep or the text cut short go through the one request
/// reader, which must return a request or one of its four refusals.
#[test]
fn mangled_requests_get_a_request_or_a_typed_refusal() {
    let cancel = Command::Cancel {
        job: JobId::from_value(3),
    };
    let valid = [
        tree(Request::frame_hello),
        tree(|buf| Request::frame_mutate(buf, &submit("mangled"))),
        tree(|buf| Request::frame_mutate(buf, &cancel)),
        tree(|buf| Request::frame_query(buf, "status", Some(3))),
        tree(|buf| Request::frame_query(buf, "list", None)),
    ];
    let swaps = [
        Json::Null,
        Json::Bool(true),
        Json::Num(-1.0),
        Json::Num(1.5),
        Json::Num(1e30),
        Json::Str("x".to_owned()),
        Json::Arr(Vec::new()),
        Json::Obj(Vec::new()),
    ];
    let (mut requests, mut refusals) = (0, 0);
    for case in 0..2_000u64 {
        let rng = &mut DetRng::seed_from_u64(case);
        let mut request = valid[below(rng, valid.len() as u64) as usize].clone();
        let mut all = Vec::new();
        paths(&request, &mut Vec::new(), &mut all);
        let node = node_at(&mut request, &all[below(rng, all.len() as u64) as usize]);
        let mut cut = None;
        match (below(rng, 4), node) {
            (0, Json::Arr(items)) if !items.is_empty() => {
                items.remove(below(rng, items.len() as u64) as usize);
            }
            (0, Json::Obj(fields)) if !fields.is_empty() => {
                fields.remove(below(rng, fields.len() as u64) as usize);
            }
            (0 | 1, node) => *node = swaps[below(rng, swaps.len() as u64) as usize].clone(),
            (2, node) => *node = Json::Str("@deep".to_owned()),
            (_, _) => cut = Some(below(rng, 1 << 16)),
        }
        let mut text = request.to_string();
        text = text.replace("\"@deep\"", &("[".repeat(10_000) + &"]".repeat(10_000)));
        if let Some(cut) = cut {
            let at = cut as usize % text.len();
            text.truncate(
                (0..=at)
                    .rev()
                    .find(|&i| text.is_char_boundary(i))
                    .unwrap_or(0),
            );
        }
        match Request::read(text.as_bytes()) {
            Ok(_) => requests += 1,
            Err(Reply::Err { kind, .. }) => {
                let typed = [
                    wire::MALFORMED_FRAME,
                    wire::VERSION_MISMATCH,
                    wire::MALFORMED_COMMAND,
                    wire::MALFORMED_QUERY,
                ];
                assert!(typed.contains(&kind.as_str()), "case {case}: {kind}");
                refusals += 1;
            }
            Err(Reply::Ok(_)) => panic!("case {case}: a refusal that is an `ok`"),
        }
    }
    assert!(requests > 50 && refusals > 1_000, "{requests} / {refusals}");
}
