//! The socket transport: `tcloud` talking to a live `taccd` daemon.
//!
//! The local [`crate::TcloudClient`] owns an in-process platform; this
//! module is the remote counterpart — a [`DaemonClient`] speaking the
//! daemon's framed JSON protocol over a Unix socket. Frames, request
//! and response shapes and their writers and readers all come from
//! [`tacc_core::wire`], so the client has no dependency on the daemon
//! crate itself (the layer DAG keeps `tcloud` and `taccd` siblings; the
//! shared protocol lives one layer down, in core).
//!
//! Every failure mode is a typed [`TransportError`] — this module has a
//! **zero panic budget** in `lint-baseline.json`: a daemon that
//! disappears, speaks a different protocol version, or corrupts a frame
//! must surface as an error value, never a panic.

use std::io::{ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use tacc_core::wire::{self, Json, Reply, Request};
use tacc_core::{Command, Query};

use crate::cli::Endpoint;
use crate::client::TcloudError;

/// Why a daemon conversation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportError {
    /// The daemon socket refused every connection attempt (or the socket
    /// file does not exist). Carries the path and how many attempts the
    /// retry policy made.
    ConnectionRefused {
        /// The socket path that was tried.
        path: String,
        /// Total connection attempts made before giving up.
        attempts: u32,
    },
    /// The daemon speaks a different protocol version than this client.
    VersionMismatch {
        /// The version this client speaks.
        client: u64,
        /// The version the daemon reported (0 when unparseable).
        server: u64,
    },
    /// A response frame failed its checksum, length cap, or JSON parse.
    /// The connection cannot be resynchronized after this.
    MalformedFrame(String),
    /// The daemon answered with a typed error (`{"err":{...}}`).
    Daemon {
        /// Machine-readable error kind (e.g. `unknown-job`).
        kind: String,
        /// Human-readable explanation.
        message: String,
    },
    /// An I/O error mid-conversation (daemon died, socket closed).
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectionRefused { path, attempts } => write!(
                f,
                "connection to {path} refused after {attempts} attempt(s) — is taccd running?"
            ),
            TransportError::VersionMismatch { client, server } => write!(
                f,
                "protocol version mismatch: client speaks v{client}, daemon speaks v{server}"
            ),
            TransportError::MalformedFrame(why) => write!(f, "malformed frame: {why}"),
            TransportError::Daemon { kind, message } => {
                write!(f, "daemon error [{kind}]: {message}")
            }
            TransportError::Io(why) => write!(f, "transport i/o error: {why}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Connection retry policy: fixed-delay attempts. A daemon that was just
/// started (or restarted by CI mid-test) needs a moment to bind its
/// socket; a bounded retry absorbs that without hiding a daemon that is
/// genuinely down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total connection attempts (>= 1).
    pub attempts: u32,
    /// Sleep between attempts, in milliseconds.
    pub delay_ms: u64,
}

impl Default for RetryPolicy {
    /// 10 attempts, 50 ms apart: half a second of patience.
    fn default() -> Self {
        RetryPolicy {
            attempts: 10,
            delay_ms: 50,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no waiting — for probes that must fail fast.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            delay_ms: 0,
        }
    }
}

/// A connected client of a live `taccd` daemon.
///
/// One request/response conversation at a time over one Unix socket.
/// Constructed by [`DaemonClient::connect`], which performs the hello
/// handshake and verifies the protocol version before returning.
#[derive(Debug)]
pub struct DaemonClient {
    stream: UnixStream,
    socket: PathBuf,
    /// Each request is streamed into this buffer and each reply read
    /// into it, one after the other.
    frame: Vec<u8>,
}

impl DaemonClient {
    /// Connects to the daemon at `socket`, retrying per `policy`, then
    /// performs the hello handshake.
    ///
    /// # Errors
    ///
    /// [`TransportError::ConnectionRefused`] when every attempt fails;
    /// [`TransportError::VersionMismatch`] when the daemon speaks a
    /// different protocol version; other variants for frame or I/O
    /// failures during the handshake.
    pub fn connect(socket: &Path, policy: RetryPolicy) -> Result<DaemonClient, TransportError> {
        let attempts = policy.attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 && policy.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(policy.delay_ms));
            }
            match UnixStream::connect(socket) {
                Ok(stream) => {
                    let mut client = DaemonClient {
                        stream,
                        socket: socket.to_path_buf(),
                        frame: Vec::new(),
                    };
                    client.hello()?;
                    return Ok(client);
                }
                Err(e) => {
                    // NotFound: daemon hasn't bound its socket yet —
                    // retryable exactly like a refused connection.
                    let retryable =
                        matches!(e.kind(), ErrorKind::ConnectionRefused | ErrorKind::NotFound);
                    if !retryable {
                        return Err(TransportError::Io(e.to_string()));
                    }
                }
            }
        }
        Err(TransportError::ConnectionRefused {
            path: socket.display().to_string(),
            attempts,
        })
    }

    /// The socket path this client is connected to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The hello handshake: verifies the daemon speaks our protocol.
    fn hello(&mut self) -> Result<(), TransportError> {
        let ok = self.round_trip(Request::frame_hello)?;
        let server = ok.get("protocol").and_then(Json::as_u64).unwrap_or(0);
        if server != wire::PROTOCOL_VERSION {
            return Err(TransportError::VersionMismatch {
                client: wire::PROTOCOL_VERSION,
                server,
            });
        }
        Ok(())
    }

    /// Sends a command to the daemon and returns the applied outcome
    /// (the `{"ok":{...}}` payload: seq, at_secs, outcome fields). The
    /// daemon journals and fsyncs the command before this returns Ok.
    ///
    /// # Errors
    ///
    /// [`TransportError::Daemon`] when the daemon rejects the command;
    /// transport variants when the conversation itself breaks.
    pub fn mutate(&mut self, command: &Command) -> Result<Json, TransportError> {
        self.round_trip(|frame| Request::frame_mutate(frame, command))
    }

    /// Runs a read-only query against the daemon's live platform state.
    /// `kind` is a [`Query::kind`]; `job` accompanies the per-job kinds.
    ///
    /// # Errors
    ///
    /// [`TransportError::Daemon`] for unknown jobs or query kinds;
    /// transport variants when the conversation itself breaks.
    pub fn query(&mut self, kind: &str, job: Option<u64>) -> Result<Json, TransportError> {
        self.round_trip(|frame| Request::frame_query(frame, kind, job))
    }

    /// One framed request/response exchange: `request` appends the
    /// request's frame to the emptied buffer, and the reply replaces it.
    fn round_trip(&mut self, request: impl FnOnce(&mut Vec<u8>)) -> Result<Json, TransportError> {
        self.frame.clear();
        request(&mut self.frame);
        self.stream
            .write_all(&self.frame)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        match wire::read_frame_into(&mut self.stream, &mut self.frame) {
            Ok(true) => {}
            Ok(false) => {
                return Err(TransportError::Io(
                    "daemon closed the connection".to_owned(),
                ))
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                return Err(TransportError::MalformedFrame(e.to_string()))
            }
            Err(e) => return Err(TransportError::Io(e.to_string())),
        }
        match Reply::read(&self.frame).map_err(TransportError::MalformedFrame)? {
            Reply::Ok(payload) => Ok(payload),
            // The daemon's own version check surfaces as a typed variant,
            // not a generic daemon error.
            Reply::Err { kind, .. } if kind == wire::VERSION_MISMATCH => {
                Err(TransportError::VersionMismatch {
                    client: wire::PROTOCOL_VERSION,
                    server: 0,
                })
            }
            Reply::Err { kind, message } => Err(TransportError::Daemon { kind, message }),
        }
    }
}

/// The live-daemon endpoint: the request goes over the socket, and the
/// reply is the `ok` payload the engine built.
impl Endpoint for DaemonClient {
    fn mutate(&mut self, command: &Command) -> Result<Json, TcloudError> {
        Ok(DaemonClient::mutate(self, command)?)
    }

    fn query(&mut self, query: &Query) -> Result<Json, TcloudError> {
        let job = query.job().map(|job| job.value());
        Ok(DaemonClient::query(self, query.kind(), job)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_missing_socket_is_refused_not_a_panic() {
        let err = DaemonClient::connect(
            Path::new("/tmp/definitely-no-such-taccd.sock"),
            RetryPolicy {
                attempts: 2,
                delay_ms: 1,
            },
        )
        .expect_err("no daemon there");
        match err {
            TransportError::ConnectionRefused { attempts, .. } => assert_eq!(attempts, 2),
            other => panic!("expected ConnectionRefused, got {other:?}"),
        }
    }

    #[test]
    fn retry_policy_defaults_are_bounded() {
        let p = RetryPolicy::default();
        assert!(p.attempts >= 1);
        assert!(p.attempts * (p.delay_ms as u32) <= 5_000, "bounded backoff");
        assert_eq!(RetryPolicy::none().attempts, 1);
    }

    #[test]
    fn errors_render_helpfully() {
        let e = TransportError::ConnectionRefused {
            path: "/tmp/x.sock".to_owned(),
            attempts: 3,
        };
        assert!(e.to_string().contains("is taccd running?"));
        let e = TransportError::VersionMismatch {
            client: 1,
            server: 2,
        };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v2"));
        let e = TransportError::Daemon {
            kind: "unknown-job".to_owned(),
            message: "no such job 7".to_owned(),
        };
        assert!(e.to_string().contains("[unknown-job]"));
    }
}
