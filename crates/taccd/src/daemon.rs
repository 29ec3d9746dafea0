//! The threaded front door: a Unix-socket listener accepting concurrent
//! `tcloud` clients, one thread per connection, all funneling into the
//! single-writer [`Engine`] channel. Concurrency lives here and only
//! here — the deterministic core below is untouched by it (and the
//! concurrency lint family keeps it that way: `taccd` is the one crate
//! exempted by design).
//!
//! ## Socket protocol
//!
//! Requests and responses are wire frames, one JSON object each; their
//! shapes, writers and readers are [`tacc_core::wire`]'s ("Conversation"
//! there). A request naming any other protocol version is answered
//! `version-mismatch` and the connection stays usable; a frame that
//! fails its checksum cannot be resynchronized, so the connection is
//! answered `malformed-frame` and closed.

use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use tacc_core::wire::{self, obj, Request};

use crate::engine::{Engine, EngineConfig, EngineInitError, Msg, Reply};
use crate::journal::RecoveryReport;

/// Daemon configuration: where to listen plus the engine beneath.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix socket path. Any stale socket file (e.g. after `kill -9`)
    /// is removed before binding.
    pub socket: PathBuf,
    /// Engine (journal + platform + clock) configuration.
    pub engine: EngineConfig,
}

/// Why the daemon failed to start.
#[derive(Debug)]
pub enum DaemonError {
    /// The engine (journal recovery/replay) failed.
    Engine(EngineInitError),
    /// Binding the Unix socket failed.
    Bind(std::io::Error),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Engine(e) => write!(f, "engine init failed: {e}"),
            DaemonError::Bind(e) => write!(f, "socket bind failed: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<EngineInitError> for DaemonError {
    fn from(e: EngineInitError) -> Self {
        DaemonError::Engine(e)
    }
}

/// A running daemon: the engine thread, the accept thread, and the
/// per-connection threads they spawn.
#[derive(Debug)]
pub struct Daemon {
    socket: PathBuf,
    engine_tx: Sender<Msg>,
    engine_handle: Option<JoinHandle<()>>,
    accept_handle: Option<JoinHandle<()>>,
    stopping: Arc<AtomicBool>,
}

impl Daemon {
    /// Opens the engine (recovering any existing journal), binds the
    /// socket, and starts serving. Returns the recovery report when an
    /// existing journal was replayed.
    ///
    /// # Errors
    ///
    /// [`DaemonError`] when the journal cannot be recovered or the
    /// socket cannot be bound.
    pub fn start(config: DaemonConfig) -> Result<(Daemon, Option<RecoveryReport>), DaemonError> {
        let (engine, report) = Engine::open(config.engine)?;
        let connected = engine.registry().gauge("tacc_taccd_connected_clients", &[]);

        // A daemon killed with SIGKILL leaves its socket file behind;
        // binding over it needs the stale file gone first.
        if config.socket.exists() {
            std::fs::remove_file(&config.socket).map_err(DaemonError::Bind)?;
        }
        let listener = UnixListener::bind(&config.socket).map_err(DaemonError::Bind)?;

        let (tx, rx) = mpsc::channel();
        let engine_handle = std::thread::spawn(move || engine.run(&rx));

        let stopping = Arc::new(AtomicBool::new(false));
        let accept_tx = tx.clone();
        let accept_stop = Arc::clone(&stopping);
        let accept_handle = std::thread::spawn(move || {
            // Each live connection's thread, with a handle on its stream
            // that can end the read it blocks in.
            let mut workers: Vec<(JoinHandle<()>, UnixStream)> = Vec::new();
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                // A failed accept poisons nothing; a connection that
                // cannot be ended at stop is not served.
                let Ok((mut stream, peer)) = stream.and_then(|s| Ok((s.try_clone()?, s))) else {
                    continue;
                };
                let conn_tx = accept_tx.clone();
                let conn_gauge = connected.clone();
                let worker = std::thread::spawn(move || {
                    conn_gauge.add(1.0);
                    serve_connection(&mut stream, &conn_tx);
                    // The clone kept above must not hold the client's
                    // end open past the conversation.
                    let _ = stream.shutdown(Shutdown::Both);
                    conn_gauge.add(-1.0);
                });
                workers.push((worker, peer));
                workers.retain(|(w, _)| !w.is_finished());
            }
            // An idle client would keep its thread in `read_frame` for
            // good: ending the read half reads as EOF there, while a reply
            // in flight is still written.
            for (w, peer) in workers {
                let _ = peer.shutdown(Shutdown::Read);
                let _ = w.join();
            }
        });

        Ok((
            Daemon {
                socket: config.socket,
                engine_tx: tx,
                engine_handle: Some(engine_handle),
                accept_handle: Some(accept_handle),
                stopping,
            },
            report,
        ))
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Stops the daemon: closes the listener, drains the engine (final
    /// group commit), and removes the socket file. Idempotent.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // `incoming()` blocks in accept(2); a self-connection wakes it so
        // it can observe the stop flag.
        let _ = UnixStream::connect(&self.socket);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let _ = self.engine_tx.send(Msg::Stop);
        if let Some(h) = self.engine_handle.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn write_response(stream: &mut UnixStream, response: Reply) -> bool {
    let payload = response.into_json().to_string();
    stream
        .write_all(&wire::encode_frame(payload.as_bytes()))
        .is_ok()
}

/// Hands the engine one message — built around the way back for its
/// reply — and waits for that reply.
fn ask(engine: &Sender<Msg>, msg: impl FnOnce(Sender<Reply>) -> Msg) -> Reply {
    let (reply, answer) = mpsc::channel();
    if engine.send(msg(reply)).is_err() {
        return Reply::refuse(wire::DAEMON_STOPPING, "engine is shutting down");
    }
    let dropped = |_| Reply::refuse(wire::DAEMON_STOPPING, "engine dropped the request");
    answer.recv().unwrap_or_else(dropped)
}

/// Serves one connection until EOF or an unrecoverable framing error.
fn serve_connection(stream: &mut UnixStream, engine: &Sender<Msg>) {
    loop {
        let payload = match wire::read_frame(stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(why) => {
                // Framing broke: answer once, then drop the connection.
                let _ = write_response(stream, Reply::refuse(wire::MALFORMED_FRAME, why));
                return;
            }
        };
        let response = match Request::read(&payload) {
            Err(refusal) => refusal,
            Ok(Request::Hello) => Reply::Ok(obj(vec![
                ("protocol", wire::PROTOCOL_VERSION.into()),
                ("server", "taccd".into()),
            ])),
            Ok(Request::Mutate(command)) => ask(engine, |reply| Msg::Mutate { command, reply }),
            Ok(Request::Query(query)) => ask(engine, |reply| Msg::Query { query, reply }),
        };
        if !write_response(stream, response) {
            return; // client went away mid-reply
        }
    }
}
