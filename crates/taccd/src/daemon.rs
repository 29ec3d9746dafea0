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
//!
//! A connection keeps one frame buffer and one reply channel for its
//! whole life: each request is read into the buffer, and its reply is
//! streamed into the same buffer and written from it, so in the steady
//! state a request costs the connection no allocation but the command
//! it hands the engine.

use std::io::Write;
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

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
        // Held by the engine thread until its stages are joined: what a
        // connection waiting for a reply looks at.
        let running = Arc::new(());
        let alive = Arc::downgrade(&running);
        let engine_handle = std::thread::spawn(move || {
            engine.run(&rx);
            drop(running);
        });

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
                let conn_alive = alive.clone();
                let conn_gauge = connected.clone();
                let worker = std::thread::spawn(move || {
                    conn_gauge.add(1.0);
                    serve_connection(&mut stream, &conn_tx, conn_alive);
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

/// The capacity a connection's frame buffer keeps between requests. A
/// larger frame, a request or a reply, is carried and then let go, so a
/// client cannot hold up to [`wire::MAX_FRAME_LEN`] of the daemon's
/// memory for as long as it stays connected.
const KEPT_FRAME_CAPACITY: usize = 64 * 1024;

/// How often a connection waiting for its reply looks whether the engine
/// is still there to send it.
const ENGINE_CHECK: Duration = Duration::from_millis(100);

/// Frames `reply` into the connection's buffer and writes it; `false`
/// when the client went away.
fn write_reply(stream: &mut UnixStream, frame: &mut Vec<u8>, reply: &Reply) -> bool {
    frame.clear();
    reply.frame(frame);
    let sent = stream.write_all(frame).is_ok();
    if frame.capacity() > KEPT_FRAME_CAPACITY {
        *frame = Vec::new();
    }
    sent
}

/// One connection's way back from the engine, kept for its whole life:
/// every message carries a clone of `tx`, and the reply comes back on
/// `rx`. Holding `tx` keeps the channel open, so `engine` — alive while
/// the engine thread is — says when no reply can come.
struct Replies {
    tx: Sender<Reply>,
    rx: Receiver<Reply>,
    engine: Weak<()>,
}

impl Replies {
    /// Hands the engine one message — built around the way back for its
    /// reply — and waits for that reply.
    fn ask(&self, engine: &Sender<Msg>, msg: impl FnOnce(Sender<Reply>) -> Msg) -> Reply {
        if engine.send(msg(self.tx.clone())).is_err() {
            return Reply::refuse(wire::DAEMON_STOPPING, "engine is shutting down");
        }
        loop {
            match self.rx.recv_timeout(ENGINE_CHECK) {
                Ok(reply) => return reply,
                Err(_) if self.engine.strong_count() > 0 => {}
                // The engine thread has ended, its stages joined: a reply
                // sent is in the channel, and no other is coming.
                Err(_) => {
                    let dropped =
                        |_| Reply::refuse(wire::DAEMON_STOPPING, "engine dropped the request");
                    return self.rx.try_recv().unwrap_or_else(dropped);
                }
            }
        }
    }
}

/// Serves one connection until EOF or an unrecoverable framing error,
/// each request read into, and each reply written from, one buffer.
fn serve_connection(stream: &mut UnixStream, engine: &Sender<Msg>, alive: Weak<()>) {
    let (tx, rx) = mpsc::channel();
    let replies = Replies {
        tx,
        rx,
        engine: alive,
    };
    let mut frame = Vec::new();
    loop {
        let reply = match wire::read_frame_into(stream, &mut frame) {
            Ok(true) => match Request::read(&frame) {
                Err(refusal) => refusal,
                Ok(Request::Hello) => Reply::Ok(obj(vec![
                    ("protocol", wire::PROTOCOL_VERSION.into()),
                    ("server", "taccd".into()),
                ])),
                Ok(Request::Mutate(command)) => {
                    replies.ask(engine, |reply| Msg::Mutate { command, reply })
                }
                Ok(Request::Query(query)) => {
                    replies.ask(engine, |reply| Msg::Query { query, reply })
                }
            },
            Ok(false) => return, // clean EOF
            Err(why) => {
                // Framing broke: answer once, then drop the connection.
                let refusal = Reply::refuse(wire::MALFORMED_FRAME, why);
                let _ = write_reply(stream, &mut frame, &refusal);
                return;
            }
        };
        if !write_reply(stream, &mut frame, &reply) {
            return; // client went away mid-reply
        }
    }
}
