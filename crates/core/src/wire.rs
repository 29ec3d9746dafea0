//! The service-mode wire layer: a CRC-32 checksum, the length-prefixed
//! checksummed frame format shared by the `taccd` write-ahead journal
//! and the socket, and the client–daemon conversation carried in those
//! frames — each request and response shape with its writer and its
//! reader side by side, so the daemon and the `tcloud` transport (sibling
//! crates) take both ends from here. A frame's payload is one compact
//! JSON line; the JSON names are re-exported from [`tacc_json`].
//!
//! ## Frame format
//!
//! ```text
//! +------------+------------+-------------------+
//! | len: u32le | crc: u32le | payload (len bytes)|
//! +------------+------------+-------------------+
//! ```
//!
//! `crc` is the IEEE CRC-32 of the payload. A frame whose header or
//! payload is cut short, whose length exceeds [`MAX_FRAME_LEN`], or whose
//! checksum does not match is *torn*: decoding stops there and reports
//! the byte offset, so journal recovery can keep the longest valid prefix
//! and truncate the rest — loudly.
//!
//! Eight zero bytes are an intact frame with an empty payload
//! (`crc32("") == 0`). No request, response or journal record is empty,
//! so the journal writes none and reads an all-zero header as its
//! end-of-log mark: the start of the zeros it pads its file with.
//!
//! ## Conversation
//!
//! One JSON object per frame, a response for every request:
//!
//! ```text
//! → {"v":1,"hello":true}
//! ← {"ok":{"protocol":1,"server":"taccd"}}
//! → {"v":1,"mutate":{"kind":"submit","service_secs":...,"schema":{...}}}
//! ← {"ok":{"seq":0,"at_secs":0,"outcome":"submitted","job":0}}
//! → {"v":1,"query":{"kind":"status","job":0}}
//! ← {"ok":{"job":0,"state":"running",...}}  |  {"err":{"kind":"...","message":"..."}}
//! ```
//!
//! A `mutate` carries a [`Command`]'s text, a `query` the `kind` of a
//! [`Query`] plus `job` for the per-job kinds; an `ok` payload is
//! [`crate::CommandOutcome::to_json`] or [`crate::Platform::answer`]'s
//! value. Each envelope has one writer, which streams it into the
//! caller's frame buffer with no tree between: [`Request::frame_mutate`]
//! puts [`Command::write_json`] inside its head, [`Reply::frame`] puts
//! the payload's [`Json::write`]. [`Request::read`] reads the writers'
//! spelling with a tree-free [`tacc_json::Cursor`] and hands any other
//! spelling to the parser and the tree reader, so every refusal's kind
//! and text are the tree reader's. An `err` kind is one of the five
//! protocol-level kinds below,
//! a [`crate::CommandError::kind`], a [`crate::QueryError::kind`], or the
//! engine's own `journal-io`.

use std::fmt;
use std::io::{self, ErrorKind, Read};

pub use tacc_json::{obj, parse, Json, JsonError};
use tacc_json::{write_escaped, write_num, Cursor, TextSink};

use crate::{Command, Query};

/// Hard ceiling on one frame's payload, applied on both encode and
/// decode. Large enough for any task schema, small enough that a
/// corrupted length field cannot make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Version of the client–daemon protocol and the journal frame payloads.
/// Bumped on any incompatible change; the daemon rejects mismatched
/// clients and journals with a typed error instead of misparsing them.
pub const PROTOCOL_VERSION: u64 = 1;

// --------------------------------------------------------------------
// CRC-32 (IEEE 802.3), slice-by-8, tables built in const context.
// --------------------------------------------------------------------

/// `[0]` is the classic byte-at-a-time table; `[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which lets eight input bytes be
/// folded in with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 of `bytes` (the Ethernet/zip polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// --------------------------------------------------------------------
// Framing
// --------------------------------------------------------------------

/// Why a byte range does not decode as a complete, intact frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a complete header + payload; `needed` is the
    /// total frame size implied so far (8 while the header itself is
    /// short).
    Incomplete {
        /// Total bytes the frame needs to decode.
        needed: usize,
    },
    /// The length field exceeds [`MAX_FRAME_LEN`] — a torn or corrupt
    /// header, never a legal frame.
    TooLarge {
        /// The decoded (bogus) payload length.
        len: usize,
    },
    /// The payload checksum does not match the header.
    Checksum {
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload actually present.
        actual: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Incomplete { needed } => {
                write!(f, "incomplete frame: {needed} bytes needed")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Checksum { expected, actual } => write!(
                f,
                "frame checksum mismatch: header says {expected:#010x}, payload is {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one frame to `buf` in place: an 8-byte header placeholder,
/// the payload `fill` writes after it, then the header patched with the
/// payload's length and the CRC of the bytes where they lie. `fill` must
/// only append.
///
/// Payloads over [`MAX_FRAME_LEN`] are excluded by the callers'
/// contract — all in-tree payloads are single JSON lines far below the
/// cap; oversized input is debug-asserted.
pub fn frame_into(buf: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let header = buf.len();
    buf.extend_from_slice(&[0; 8]);
    fill(buf);
    let len = buf.len() - header - 8;
    debug_assert!(len <= MAX_FRAME_LEN, "payload exceeds frame cap");
    let crc = crc32(&buf[header + 8..]);
    buf[header..header + 4].copy_from_slice(&(len as u32).to_le_bytes());
    buf[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Encodes one frame, `[len u32le][crc u32le][payload]`, into a buffer
/// of its own: the one-shot case of [`frame_into`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    frame_into(&mut out, |buf| buf.extend_from_slice(payload));
    out
}

/// Splits a frame header into payload length and checksum, refusing a
/// length over the cap before anything is sized by it.
fn split_header(header: [u8; 8]) -> Result<(usize, u32), FrameError> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    Ok((len, u32::from_le_bytes([c0, c1, c2, c3])))
}

fn verify(payload: &[u8], expected: u32) -> Result<(), FrameError> {
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    Ok(())
}

/// Attempts to decode the frame at the start of `buf`.
///
/// Returns the payload slice and the total bytes consumed.
///
/// # Errors
///
/// [`FrameError`] when the bytes at the head of `buf` are not one intact
/// frame; `Incomplete` distinguishes a torn journal tail from the
/// always-fatal `TooLarge`/`Checksum`.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    let Some(header) = buf.first_chunk::<8>() else {
        return Err(FrameError::Incomplete { needed: 8 });
    };
    let (len, expected) = split_header(*header)?;
    let Some(payload) = buf.get(8..8 + len) else {
        return Err(FrameError::Incomplete { needed: 8 + len });
    };
    verify(payload, expected)?;
    Ok((payload, 8 + len))
}

/// Reads one frame's payload from a stream into `payload`, replacing
/// what it held and keeping its capacity: [`decode_frame`] for a stream,
/// under the same header, length-cap and checksum checks, and the one
/// stream frame reader — journal recovery, and each end of a socket
/// connection, reads every frame into one buffer with it, and
/// [`read_frame`] wraps it for a single read. `Ok(false)` is the stream
/// ending before a header.
///
/// # Errors
///
/// The stream's own error, `InvalidData` carrying the [`FrameError`], or
/// `UnexpectedEof` carrying [`FrameError::Incomplete`] when the stream
/// ends inside the payload. After any of them the stream cannot be
/// resynchronized, and what `payload` holds is not a frame.
pub fn read_frame_into<R: Read>(stream: &mut R, payload: &mut Vec<u8>) -> io::Result<bool> {
    payload.clear();
    let mut header = [0u8; 8];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let invalid = |e: FrameError| io::Error::new(ErrorKind::InvalidData, e);
    let (len, expected) = split_header(header).map_err(invalid)?;
    if payload.capacity() < len {
        // Zeroed by the allocator, page by page as they are touched: a
        // header that lies about its length costs no memory until its
        // bytes arrive.
        *payload = vec![0; len];
    } else {
        payload.resize(len, 0);
    }
    stream.read_exact(payload).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => {
            io::Error::new(e.kind(), FrameError::Incomplete { needed: 8 + len })
        }
        _ => e,
    })?;
    verify(payload, expected).map_err(invalid)?;
    Ok(true)
}

/// Reads one frame's payload from a stream into a buffer of its own:
/// [`read_frame_into`] for one frame. `Ok(None)` is the stream ending
/// before a header.
///
/// # Errors
///
/// As [`read_frame_into`].
pub fn read_frame<R: Read>(stream: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(stream, &mut payload)?.then_some(payload))
}

// --------------------------------------------------------------------
// The conversation: requests, responses, protocol-level error kinds
// --------------------------------------------------------------------

/// The frame's payload is not UTF-8 JSON, or names no request.
pub const MALFORMED_FRAME: &str = "malformed-frame";
/// The request's `v` is not [`PROTOCOL_VERSION`]. The connection stays
/// usable.
pub const VERSION_MISMATCH: &str = "version-mismatch";
/// The `mutate` member is not a [`Command`].
pub const MALFORMED_COMMAND: &str = "malformed-command";
/// The `query` member is not a [`Query`].
pub const MALFORMED_QUERY: &str = "malformed-query";
/// The daemon is shutting down and will not answer.
pub const DAEMON_STOPPING: &str = "daemon-stopping";

/// One client request, as the daemon reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// The handshake.
    Hello,
    /// Apply a command.
    Mutate(Command),
    /// Answer a query.
    Query(Query),
}

// What the writers put ahead of a request's member, `v` spelled as
// [`PROTOCOL_VERSION`]. The reader spells each piece on its own, so a
// wrong byte here reads back as the tree reader reads it, not as a
// request.
const HELLO: &str = r#"{"v":1,"hello":true}"#;
const MUTATE_HEAD: &str = r#"{"v":1,"mutate":"#;
const QUERY_HEAD: &str = r#"{"v":1,"query":{"kind":"#;
const _: () = assert!(PROTOCOL_VERSION == 1, "the request heads spell v1");

fn parse_payload(payload: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_owned())?;
    parse(text).map_err(|e| e.to_string())
}

impl Request {
    /// Appends the framed handshake request to `buf`.
    pub fn frame_hello(buf: &mut Vec<u8>) {
        frame_into(buf, |out| out.push_str(HELLO));
    }

    /// Appends the framed request that applies `command` to `buf`: the
    /// envelope's head, [`Command::write_json`] and its closing brace,
    /// streamed into place.
    pub fn frame_mutate(buf: &mut Vec<u8>, command: &Command) {
        frame_into(buf, |out| {
            out.push_str(MUTATE_HEAD);
            command.write_json(out);
            out.push_str("}");
        });
    }

    /// Appends the framed query request to `buf`, from a [`Query::kind`]
    /// and, for the per-job kinds, the job id. Either is written as
    /// given, so a client can ask what the daemon refuses.
    pub fn frame_query(buf: &mut Vec<u8>, kind: &str, job: Option<u64>) {
        frame_into(buf, |out| {
            out.push_str(QUERY_HEAD);
            write_escaped(kind, out);
            if let Some(job) = job {
                out.push_str(r#","job":"#);
                write_num(job as f64, out);
            }
            out.push_str("}}");
        });
    }

    /// Reads a request back from a frame payload: the tree-free reader
    /// first, and on any other spelling the parser and the tree reader,
    /// so the request, or the refusal, is the tree reader's either way.
    ///
    /// # Errors
    ///
    /// The refusal to answer with, its kind one of [`MALFORMED_FRAME`],
    /// [`VERSION_MISMATCH`], [`MALFORMED_COMMAND`], [`MALFORMED_QUERY`].
    pub fn read(payload: &[u8]) -> Result<Request, Reply> {
        if let Ok(text) = std::str::from_utf8(payload) {
            let mut r = Cursor::new(text);
            match Request::read_json(&mut r) {
                Some(request) if r.at_end() => return Ok(request),
                _ => {}
            }
        }
        let value = parse_payload(payload).map_err(|e| Reply::refuse(MALFORMED_FRAME, e))?;
        Request::from_json(&value)
    }

    /// Reads back the text the writers above stream, with no tree;
    /// `None` for any other spelling.
    pub fn read_json(r: &mut Cursor<'_>) -> Option<Request> {
        r.lit(r#"{"v":"#)?;
        if r.u64()? != PROTOCOL_VERSION {
            return None;
        }
        let request = if r.eat(r#","hello":true"#) {
            Request::Hello
        } else if r.eat(r#","mutate":"#) {
            Request::Mutate(Command::read_json(r)?)
        } else {
            r.lit(r#","query":"#)?;
            Request::Query(Query::read_json(r)?)
        };
        r.lit("}")?;
        Some(request)
    }

    /// Reads a request from its JSON tree.
    ///
    /// # Errors
    ///
    /// As [`Request::read`], less the payload's own.
    pub fn from_json(value: &Json) -> Result<Request, Reply> {
        let Some(v) = value.get("v").and_then(Json::as_u64) else {
            return Err(Reply::refuse(MALFORMED_FRAME, "missing 'v' field"));
        };
        if v != PROTOCOL_VERSION {
            let message = format!("client speaks protocol v{v}, daemon speaks v{PROTOCOL_VERSION}");
            return Err(Reply::refuse(VERSION_MISMATCH, message));
        }
        if value.get("hello").is_some() {
            Ok(Request::Hello)
        } else if let Some(command) = value.get("mutate") {
            let command = Command::from_json(command).map(Request::Mutate);
            command.map_err(|e| Reply::refuse(MALFORMED_COMMAND, e))
        } else if let Some(query) = value.get("query") {
            let query = Query::from_json(query).map(Request::Query);
            query.map_err(|e| Reply::refuse(MALFORMED_QUERY, e))
        } else {
            let message = "request has none of 'hello', 'mutate', 'query'";
            Err(Reply::refuse(MALFORMED_FRAME, message))
        }
    }
}

/// One response: the `ok` payload, or a typed refusal. What the `taccd`
/// engine answers, the daemon frames, and the client transport reads
/// back.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Success; the JSON payload for the `ok` response member.
    Ok(Json),
    /// Failure; the `err` response member.
    Err {
        /// Stable kind tag (e.g. `unknown-job`).
        kind: String,
        /// Human-readable description.
        message: String,
    },
}

impl Reply {
    /// A refusal of the given kind.
    pub fn refuse(kind: &str, message: impl fmt::Display) -> Reply {
        Reply::Err {
            kind: kind.to_owned(),
            message: message.to_string(),
        }
    }

    /// Appends the framed response to `buf`: `{"ok":` and the payload's
    /// compact text ([`Json::write`]), or the `err` member, streamed into
    /// place.
    pub fn frame(&self, buf: &mut Vec<u8>) {
        frame_into(buf, |out| match self {
            Reply::Ok(payload) => {
                out.push_str(r#"{"ok":"#);
                payload.write(out);
                out.push_str("}");
            }
            Reply::Err { kind, message } => {
                out.push_str(r#"{"err":{"kind":"#);
                write_escaped(kind, out);
                out.push_str(r#","message":"#);
                write_escaped(message, out);
                out.push_str("}}");
            }
        });
    }

    /// Reads a response back from a frame payload.
    ///
    /// # Errors
    ///
    /// What is wrong with a payload that is not a response.
    pub fn read(payload: &[u8]) -> Result<Reply, String> {
        let Json::Obj(members) = parse_payload(payload)? else {
            return Err("response is not an object".to_owned());
        };
        match members.into_iter().next() {
            Some((member, payload)) if member == "ok" => Ok(Reply::Ok(payload)),
            Some((member, err)) if member == "err" => {
                let text = |key| err.get(key).and_then(Json::as_str).unwrap_or("");
                Ok(Reply::refuse(text("kind"), text("message")))
            }
            _ => Err("response has neither 'ok' nor 'err'".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time routine slice-by-8 replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_bytewise_routine_at_every_length() {
        let mut rng = tacc_sim::DetRng::seed_from_u64(0xC4C32);
        let data: Vec<u8> = (0..4096 + 7).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=4096 {
            // Every alignment of the 8-byte words against the buffer.
            let bytes = &data[len % 8..len % 8 + len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}");
        }
    }

    #[test]
    fn frames_pack_back_to_back_in_one_buffer() {
        let mut buf = Vec::new();
        for payload in [&b"first"[..], b"", b"third payload"] {
            let at = buf.len();
            frame_into(&mut buf, |b| b.extend_from_slice(payload));
            assert_eq!(buf[at..], encode_frame(payload), "in place = one-shot");
        }
        let (first, used) = decode_frame(&buf).expect("intact");
        assert_eq!(first, b"first");
        let (second, used2) = decode_frame(&buf[used..]).expect("intact");
        assert_eq!(second, b"");
        let (third, used3) = decode_frame(&buf[used + used2..]).expect("intact");
        assert_eq!(third, b"third payload");
        assert_eq!(used + used2 + used3, buf.len());
    }

    #[test]
    fn a_stream_reads_as_decode_frame_reads_a_buffer() {
        let mut stream = Vec::new();
        for payload in [&b"first"[..], b"", b"third payload"] {
            frame_into(&mut stream, |b| b.extend_from_slice(payload));
        }
        let mut reader = &stream[..];
        for payload in [&b"first"[..], b"", b"third payload"] {
            let read = read_frame(&mut reader).expect("intact");
            assert_eq!(read.as_deref(), Some(payload));
        }
        assert_eq!(read_frame(&mut reader).expect("clean end"), None);

        // Into one reused buffer: each frame replaces the last, and the
        // capacity the longest frame needed stays.
        let mut reader = &stream[..];
        let mut payload = b"stale".to_vec();
        for expected in [&b"first"[..], b"", b"third payload"] {
            assert!(read_frame_into(&mut reader, &mut payload).expect("intact"));
            assert_eq!(payload, expected);
        }
        let capacity = payload.capacity();
        assert!(!read_frame_into(&mut reader, &mut payload).expect("clean end"));
        assert!(payload.is_empty() && payload.capacity() == capacity);

        // The same refusals `decode_frame` makes, and for the same bytes.
        let frame = encode_frame(b"payload bytes");
        let mut corrupt = frame.clone();
        *corrupt.last_mut().expect("nonempty") ^= 0x40;
        let mut huge = frame.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        for bad in [corrupt, huge] {
            let err = read_frame(&mut &bad[..]).expect_err("refused");
            assert_eq!(err.kind(), ErrorKind::InvalidData);
            let expected = decode_frame(&bad).expect_err("refused").to_string();
            assert_eq!(err.to_string(), expected);
        }
        // A stream that ends inside a payload is an early end, said the
        // way `decode_frame` says it.
        let short = &frame[..frame.len() - 1];
        let err = read_frame(&mut &short[..]).expect_err("short");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        let expected = decode_frame(short).expect_err("refused").to_string();
        assert_eq!(err.to_string(), expected);
    }

    #[test]
    fn every_request_reads_back_and_the_parents_bytes_are_pinned() {
        use tacc_workload::JobId;
        let job = JobId::from_value(7);
        let queries = [
            (
                Query::Status(job),
                r#"{"v":1,"query":{"kind":"status","job":7}}"#,
            ),
            (Query::List, r#"{"v":1,"query":{"kind":"list"}}"#),
            (
                Query::Events(job),
                r#"{"v":1,"query":{"kind":"events","job":7}}"#,
            ),
            (Query::Info, r#"{"v":1,"query":{"kind":"info"}}"#),
            (Query::Metrics, r#"{"v":1,"query":{"kind":"metrics"}}"#),
            (
                Query::Transitions,
                r#"{"v":1,"query":{"kind":"transitions"}}"#,
            ),
            (Query::JournalStats, r#"{"v":1,"query":{"kind":"journal"}}"#),
            (
                Query::Logs(job),
                r#"{"v":1,"query":{"kind":"logs","job":7}}"#,
            ),
            (
                Query::Timeline(job),
                r#"{"v":1,"query":{"kind":"timeline","job":7}}"#,
            ),
            (Query::Why(job), r#"{"v":1,"query":{"kind":"why","job":7}}"#),
            (
                Query::Artifacts(job),
                r#"{"v":1,"query":{"kind":"artifacts","job":7}}"#,
            ),
            (Query::Goodput, r#"{"v":1,"query":{"kind":"goodput"}}"#),
            (Query::Quota, r#"{"v":1,"query":{"kind":"quota"}}"#),
            (Query::Top, r#"{"v":1,"query":{"kind":"top"}}"#),
        ];
        // Each streamed frame is its pinned text, framed.
        let framed = |frame: &dyn Fn(&mut Vec<u8>), text: &str| {
            let mut buf = b"ahead".to_vec();
            frame(&mut buf);
            assert_eq!(buf[5..], encode_frame(text.as_bytes()), "{text}");
        };
        for (query, text) in queries {
            let (kind, job) = (query.kind(), query.job().map(JobId::value));
            framed(&|buf| Request::frame_query(buf, kind, job), text);
            assert_eq!(Request::read(text.as_bytes()), Ok(Request::Query(query)));
        }
        let cancel = Command::Cancel { job };
        let text = r#"{"v":1,"mutate":{"kind":"cancel","job":7}}"#;
        framed(&|buf| Request::frame_mutate(buf, &cancel), text);
        assert_eq!(Request::read(text.as_bytes()), Ok(Request::Mutate(cancel)));
        let text = r#"{"v":1,"hello":true}"#;
        framed(&|buf| Request::frame_hello(buf), text);
        assert_eq!(Request::read(text.as_bytes()), Ok(Request::Hello));
        // A kind the daemon refuses is still written as given.
        let text = r#"{"v":1,"query":{"kind":"x\"y","job":0}}"#;
        framed(&|buf| Request::frame_query(buf, "x\"y", Some(0)), text);

        let refused = |text: &str| match Request::read(text.as_bytes()) {
            Err(Reply::Err { kind, .. }) => kind,
            other => panic!("{text} read as {other:?}"),
        };
        assert_eq!(refused(r#"{"v":2,"hello":true}"#), VERSION_MISMATCH);
        assert_eq!(refused(r#"{"hello":true}"#), MALFORMED_FRAME);
        assert_eq!(refused(r#"{"v":1}"#), MALFORMED_FRAME);
        assert_eq!(
            refused(r#"{"v":1,"mutate":{"kind":"x"}}"#),
            MALFORMED_COMMAND
        );
        assert_eq!(refused(r#"{"v":1,"query":{"kind":"x"}}"#), MALFORMED_QUERY);
    }

    #[test]
    fn replies_read_back() {
        let ok = Reply::Ok(obj(vec![("job", 7u64.into()), ("name", "a\"b".into())]));
        let refusal = Reply::refuse("unknown-job", "unknown job 7");
        let texts = [
            r#"{"ok":{"job":7,"name":"a\"b"}}"#,
            r#"{"err":{"kind":"unknown-job","message":"unknown job 7"}}"#,
        ];
        for (reply, text) in [ok, refusal].into_iter().zip(texts) {
            let mut buf = Vec::new();
            reply.frame(&mut buf);
            assert_eq!(buf, encode_frame(text.as_bytes()));
            assert_eq!(Reply::read(text.as_bytes()), Ok(reply));
        }
        assert!(Reply::read(b"{}").is_err());
        assert!(Reply::read(b"[1]").is_err());
        assert!(Reply::read(&[0xFF]).is_err());
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(b"hello world");
        let (payload, used) = decode_frame(&frame).expect("intact");
        assert_eq!(payload, b"hello world");
        assert_eq!(used, frame.len());
    }

    #[test]
    fn torn_frames_are_detected() {
        let frame = encode_frame(b"payload bytes");
        // Short header.
        assert!(matches!(
            decode_frame(&frame[..5]),
            Err(FrameError::Incomplete { needed: 8 })
        ));
        // Short payload.
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1]),
            Err(FrameError::Incomplete { .. })
        ));
        // Flipped payload byte.
        let mut corrupt = frame.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&corrupt),
            Err(FrameError::Checksum { .. })
        ));
        // Bogus length field.
        let mut huge = frame;
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&huge),
            Err(FrameError::TooLarge { .. })
        ));
    }
}
