//! The single-writer write-ahead journal.
//!
//! One file, a sequence of checksummed frames ([`tacc_core::wire`]):
//! a genesis frame carrying the protocol version and platform seed,
//! then one frame per accepted [`CommandRecord`], each a single JSON
//! line.
//!
//! A journal has two halves. The *append* half ([`Journal`]) encodes a
//! record straight into the pending batch buffer — in memory, no
//! syscall. The *commit* half ([`JournalFile`]) puts a batch on disk
//! with one `write_all` and one `sync_data` ([`JournalFile::commit`],
//! the one routine that touches the file after the genesis frame). Used
//! whole, [`Journal::sync`] commits the pending batch on the caller's
//! thread. The engine instead [splits](Journal::split) the journal: its
//! apply stage keeps appending to a `Journal<Detached>` — which has no
//! `sync`, so nothing can flush on that thread — while its commit stage
//! owns the file.
//!
//! A journal whose write or sync failed is closed for good
//! ([`Journal::failed`]): the file may end mid-frame, so nothing more is
//! written behind it and recovery truncates the tear.
//!
//! Recovery ([`Journal::replay`]) reads frames until the first torn or
//! corrupt one and keeps the longest valid prefix. It streams: one
//! buffered reader yields a frame at a time ([`wire::read_frame`]), the
//! frame decodes straight into a record ([`CommandRecord::from_text`])
//! and the caller applies it before the next frame is read. Only once
//! the whole prefix has applied does recovery report what it dropped
//! (loudly — torn tails are counted, logged and surfaced in
//! `tacc_taccd_torn_frames_total`) and truncate the file, so the next
//! append continues from a clean boundary; a prefix that fails to apply
//! leaves the file as it was found.

use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use tacc_core::wire::{self, FrameError, Json};
use tacc_core::CommandRecord;

/// Why the journal could not be opened, recovered or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The genesis frame exists but names a different protocol version.
    ProtocolMismatch {
        /// Version found in the genesis frame.
        found: u64,
        /// Version this daemon speaks.
        expected: u64,
    },
    /// The genesis frame is intact JSON but not a genesis frame.
    BadGenesis(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::ProtocolMismatch { found, expected } => write!(
                f,
                "journal protocol v{found} does not match daemon protocol v{expected}"
            ),
            JournalError::BadGenesis(why) => write!(f, "bad journal genesis frame: {why}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What recovery found in an existing journal file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Intact command frames recovered (excludes the genesis frame).
    pub frames: u64,
    /// Bytes of the longest valid prefix (frames kept).
    pub valid_bytes: u64,
    /// Bytes dropped from the torn tail (0 for a clean journal).
    pub torn_bytes: u64,
    /// Human-readable description of the tear, when there was one.
    pub torn_reason: Option<String>,
}

impl RecoveryReport {
    /// True when the journal ended mid-frame or with a corrupt frame.
    pub fn torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// The two calls that put a batch on disk. `File` is the implementation
/// that ships; the trait exists so a test can put a failing or a gated
/// disk in its place ([`JournalFile::wrap_sink`]).
pub trait JournalSink: Send + std::fmt::Debug {
    /// Writes all of `bytes` at the end of the journal.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; some of `bytes` may have been written.
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Forces everything written so far to stable storage.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; nothing written since the last
    /// successful call may be assumed durable.
    fn sync_data(&mut self) -> io::Result<()>;
}

impl JournalSink for File {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
}

/// A batch of encoded frames, back to back, and how many they are: what
/// the append half fills and the commit half writes.
#[derive(Debug, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    count: u64,
}

impl Frames {
    /// Empties the batch, keeping its buffer.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.count = 0;
    }
}

/// What the commit half has done, as the append half reads it: one side
/// only ever stores, the other only ever loads.
#[derive(Debug, Default)]
struct Progress {
    /// Command frames made durable since open.
    durable: AtomicU64,
    /// Successful `sync_data` calls since open.
    syncs: AtomicU64,
    /// Set by the first failed write or sync, never cleared.
    failed: AtomicBool,
}

/// The commit half of a journal: the file, and the only code that
/// writes to it once the genesis frame is down.
#[derive(Debug)]
pub struct JournalFile {
    sink: Box<dyn JournalSink>,
    progress: Arc<Progress>,
}

impl JournalFile {
    /// Makes one batch of frames durable: one `write_all`, one
    /// `sync_data`. A batch without frames touches nothing.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write or the sync fails — and from
    /// then on for every batch, without touching the file again: it may
    /// end mid-frame, and frames written behind a tear would be lost to
    /// recovery after they were acknowledged.
    pub fn commit(&mut self, batch: &Frames) -> Result<(), JournalError> {
        if batch.count == 0 {
            return Ok(());
        }
        if self.progress.failed.load(SeqCst) {
            return Err(closed());
        }
        let written = self
            .sink
            .write_all(&batch.bytes)
            .and_then(|()| self.sink.sync_data());
        if let Err(e) = written {
            self.progress.failed.store(true, SeqCst);
            return Err(JournalError::Io(e));
        }
        self.progress.durable.fetch_add(batch.count, SeqCst);
        self.progress.syncs.fetch_add(1, SeqCst);
        Ok(())
    }

    /// Puts `wrap(the sink)` in the sink's place — how a test gets a
    /// failing or a gated disk under a journal that `create` or
    /// `recover` opened.
    pub fn wrap_sink(
        mut self,
        wrap: impl FnOnce(Box<dyn JournalSink>) -> Box<dyn JournalSink>,
    ) -> JournalFile {
        self.sink = wrap(self.sink);
        self
    }
}

/// What a journal answers once a write or a sync has failed.
fn closed() -> JournalError {
    JournalError::Io(io::Error::other(
        "the journal is closed after an earlier I/O error",
    ))
}

/// In place of the [`JournalFile`] in a journal that was
/// [split](Journal::split): the file is with a commit stage.
#[derive(Debug)]
pub struct Detached;

/// The write-ahead journal: an append-only file of checksummed frames
/// with exactly one appender (by construction — and by the
/// `single-writer` lint rule on [`Journal::append_frame`]).
///
/// `F` says where the file half is: [`JournalFile`] in a whole journal,
/// which can [`sync`](Journal::sync) itself; [`Detached`] in the append
/// half the engine's apply stage keeps.
#[derive(Debug)]
pub struct Journal<F = JournalFile> {
    file: F,
    path: PathBuf,
    /// The pending batch: frames appended and not yet handed to a commit.
    pending: Frames,
    /// Frames appended since open.
    appended: u64,
    progress: Arc<Progress>,
}

/// Counters the engine exports as `tacc_taccd_journal_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Frames appended since open.
    pub appended: u64,
    /// `fsync` calls issued since open.
    pub syncs: u64,
    /// Frames appended but not yet covered by an `fsync`: pending, or on
    /// their way through a commit stage.
    pub dirty: u64,
}

fn genesis_payload(seed: u64) -> String {
    wire::obj(vec![
        ("genesis", Json::Num(wire::PROTOCOL_VERSION as f64)),
        ("seed", Json::Num(seed as f64)),
    ])
    .to_string()
}

/// The genesis frame's payload names this protocol and, when it names
/// one, `expected_seed`.
fn check_genesis(payload: &[u8], expected_seed: u64) -> Result<(), JournalError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| JournalError::BadGenesis("genesis is not UTF-8".to_owned()))?;
    let genesis = wire::parse(text).map_err(|e| JournalError::BadGenesis(e.to_string()))?;
    let found = genesis
        .get("genesis")
        .and_then(Json::as_u64)
        .ok_or_else(|| JournalError::BadGenesis("missing 'genesis' version".to_owned()))?;
    if found != wire::PROTOCOL_VERSION {
        return Err(JournalError::ProtocolMismatch {
            found,
            expected: wire::PROTOCOL_VERSION,
        });
    }
    if let Some(seed) = genesis.get("seed").and_then(Json::as_u64) {
        if seed != expected_seed {
            return Err(JournalError::BadGenesis(format!(
                "journal was written for platform seed {seed}, daemon configured with {expected_seed}"
            )));
        }
    }
    Ok(())
}

/// What the bytes at a journal's read cursor hold.
enum Next {
    /// One intact frame's payload.
    Frame(Vec<u8>),
    /// Nothing: the cursor is at the end of the file.
    End,
    /// Bytes that are not one intact frame, and why.
    Torn(String),
}

/// Reads the frame at the cursor, `remaining` bytes before the end of
/// the file, with the one stream frame reader ([`wire::read_frame`]).
fn next_frame(reader: &mut impl Read, remaining: u64) -> io::Result<Next> {
    match wire::read_frame(reader) {
        Ok(Some(payload)) => Ok(Next::Frame(payload)),
        Ok(None) if remaining == 0 => Ok(Next::End),
        // Fewer than a header's 8 bytes are left.
        Ok(None) => Ok(Next::Torn(FrameError::Incomplete { needed: 8 }.to_string())),
        Err(e) if matches!(e.kind(), ErrorKind::InvalidData | ErrorKind::UnexpectedEof) => {
            Ok(Next::Torn(e.to_string()))
        }
        Err(e) => Err(e),
    }
}

/// A command frame's payload as a record. A frame that decodes but does
/// not parse as one is corruption past the checksum.
fn parse_record(payload: &[u8]) -> Result<CommandRecord, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "frame payload is not UTF-8".to_owned())?;
    CommandRecord::from_text(text)
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and writes the genesis frame.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure.
    pub fn create(path: &Path, seed: u64) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut journal = Journal::over(file, path);
        let genesis = genesis_payload(seed);
        let sink = &mut journal.file.sink;
        sink.write_all(&wire::encode_frame(genesis.as_bytes()))?;
        sink.sync_data()?;
        journal.progress.syncs.store(1, SeqCst);
        Ok(journal)
    }

    /// A journal appending at `file`'s cursor, nothing pending.
    fn over(file: File, path: &Path) -> Journal {
        let progress = Arc::new(Progress::default());
        Journal {
            file: JournalFile {
                sink: Box::new(file),
                progress: Arc::clone(&progress),
            },
            path: path.to_owned(),
            pending: Frames::default(),
            appended: 0,
            progress,
        }
    }

    /// Opens an existing journal, validates the genesis frame, recovers
    /// the longest valid prefix of command frames, truncates any torn
    /// tail, and returns the recovered records alongside a report:
    /// [`Journal::replay`], collecting what it decodes.
    ///
    /// # Errors
    ///
    /// As [`Journal::replay`].
    pub fn recover(
        path: &Path,
        expected_seed: u64,
    ) -> Result<(Journal, Vec<CommandRecord>, RecoveryReport), JournalError> {
        let mut records = Vec::new();
        let (journal, report) = Journal::replay(path, expected_seed, |record| {
            records.push(record);
            Ok::<_, JournalError>(())
        })?;
        Ok((journal, records, report))
    }

    /// Opens an existing journal, validates the genesis frame and feeds
    /// each record of the longest valid prefix of command frames, in
    /// frame order, to `apply` as it decodes: a frame is read, decoded
    /// and applied before the next one is read, so neither the file nor
    /// its records are ever held whole. Once every record has applied it
    /// truncates any torn tail and returns the journal, positioned to
    /// append, with a report of what was kept and dropped.
    ///
    /// # Errors
    ///
    /// The first error `apply` returns, which stops recovery and leaves
    /// the file as it was found. Otherwise [`JournalError::Io`] on
    /// filesystem failure, `ProtocolMismatch` / `BadGenesis` when the
    /// genesis frame is intact but wrong. A torn or missing genesis frame
    /// is `BadGenesis` too: there is no valid prefix to keep.
    pub fn replay<E: From<JournalError>>(
        path: &Path,
        expected_seed: u64,
        mut apply: impl FnMut(CommandRecord) -> Result<(), E>,
    ) -> Result<(Journal, RecoveryReport), E> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(JournalError::Io)?;
        let len = file.metadata().map_err(JournalError::Io)?.len();
        let mut reader = BufReader::new(&file);
        let genesis = match next_frame(&mut reader, len).map_err(JournalError::Io)? {
            Next::Frame(payload) => payload,
            Next::End => {
                let why = FrameError::Incomplete { needed: 8 }.to_string();
                return Err(JournalError::BadGenesis(why).into());
            }
            Next::Torn(why) => return Err(JournalError::BadGenesis(why).into()),
        };
        check_genesis(&genesis, expected_seed)?;

        let mut report = RecoveryReport {
            valid_bytes: 8 + genesis.len() as u64,
            ..RecoveryReport::default()
        };
        report.torn_reason = loop {
            let at = report.valid_bytes;
            let remaining = len.saturating_sub(at);
            let payload = match next_frame(&mut reader, remaining).map_err(JournalError::Io)? {
                Next::Frame(payload) => payload,
                Next::End => break None,
                Next::Torn(why) => break Some(format!("torn frame at byte {at}: {why}")),
            };
            match parse_record(&payload) {
                Ok(record) => apply(record)?,
                Err(why) => break Some(format!("unparseable frame at byte {at}: {why}")),
            }
            report.frames += 1;
            report.valid_bytes += 8 + payload.len() as u64;
        };
        report.torn_bytes = len.saturating_sub(report.valid_bytes);
        // Truncate the torn tail so appends restart from a clean frame
        // boundary — now, with the whole prefix applied, and not before.
        if report.torn() {
            file.set_len(report.valid_bytes).map_err(JournalError::Io)?;
        }
        file.seek(SeekFrom::Start(report.valid_bytes))
            .map_err(JournalError::Io)?;
        Ok((Journal::over(file, path), report))
    }

    /// Forces everything appended so far to stable storage (the group
    /// commit point): [`JournalFile::commit`] over the pending batch.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem failure; the journal is then
    /// closed ([`Journal::failed`]).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        self.file.commit(&self.pending)?;
        self.pending.clear();
        Ok(())
    }

    /// Splits the journal into its append half and its commit half, for
    /// an engine that runs the two on different threads.
    pub fn split(self) -> (Journal<Detached>, JournalFile) {
        let Journal {
            file,
            path,
            pending,
            appended,
            progress,
        } = self;
        let appender = Journal {
            file: Detached,
            path,
            pending,
            appended,
            progress,
        };
        (appender, file)
    }
}

impl<F> Journal<F> {
    /// Appends one command record as a checksummed frame, encoded
    /// straight into the pending batch buffer: no syscall, and **not**
    /// durable until a commit covers it — the engine commits once per
    /// batch before acknowledging.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] once the journal has [failed](Journal::failed).
    pub fn append_frame(&mut self, record: &CommandRecord) -> Result<(), JournalError> {
        if self.failed() {
            return Err(closed());
        }
        wire::frame_into(&mut self.pending.bytes, |payload| {
            record.write_json(payload)
        });
        self.pending.count += 1;
        self.appended += 1;
        Ok(())
    }

    /// Takes the pending batch for a commit stage, leaving the empty
    /// `spare` to fill next.
    pub fn take_pending(&mut self, spare: Frames) -> Frames {
        debug_assert_eq!(spare.count, 0, "the spare batch still holds frames");
        std::mem::replace(&mut self.pending, spare)
    }

    /// True once a write or a sync of this journal's file has failed.
    /// Nothing is appended or committed afterwards.
    pub fn failed(&self) -> bool {
        self.progress.failed.load(SeqCst)
    }

    /// Append/sync counters for the `tacc_taccd_journal_*` metrics.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.appended,
            syncs: self.progress.syncs.load(SeqCst),
            dirty: self.appended - self.progress.durable.load(SeqCst),
        }
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacc_core::Command;

    fn record(seq: u64) -> CommandRecord {
        CommandRecord {
            seq,
            at_secs: seq as f64 * 0.5,
            command: Command::Advance { secs: 1.0 },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("taccd-journal-test-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn create_append_recover_round_trip() {
        let path = temp_path("round-trip");
        {
            let mut j = Journal::create(&path, 42).expect("creates");
            for seq in 0..10 {
                j.append_frame(&record(seq)).expect("appends");
            }
            j.sync().expect("syncs");
            assert_eq!(j.stats().appended, 10);
            assert_eq!(j.stats().dirty, 0);
        }
        let (_j, records, report) = Journal::recover(&path, 42).expect("recovers");
        assert_eq!(records.len(), 10);
        assert!(!report.torn());
        assert_eq!(report.frames, 10);
        for (seq, r) in records.iter().enumerate() {
            assert_eq!(r.seq, seq as u64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_recovers_longest_prefix() {
        let path = temp_path("torn");
        {
            let mut j = Journal::create(&path, 42).expect("creates");
            for seq in 0..5 {
                j.append_frame(&record(seq)).expect("appends");
            }
            j.sync().expect("syncs");
        }
        // Tear the last frame by dropping its final 3 bytes.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&path).expect("opens");
        f.set_len(len - 3).expect("truncates");
        drop(f);

        let (mut j, records, report) = Journal::recover(&path, 42).expect("recovers");
        assert_eq!(records.len(), 4, "last frame was torn");
        assert!(report.torn());
        assert!(report
            .torn_reason
            .as_deref()
            .unwrap_or("")
            .contains("torn frame"));
        // The file was truncated to the valid prefix; appends continue
        // cleanly from there.
        j.append_frame(&record(99)).expect("appends after recovery");
        j.sync().expect("syncs");
        drop(j);
        let (_j, records, report) = Journal::recover(&path, 42).expect("re-recovers");
        assert_eq!(records.len(), 5);
        assert_eq!(records[4].seq, 99);
        assert!(!report.torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seed_and_protocol_mismatches_are_typed() {
        let path = temp_path("mismatch");
        {
            Journal::create(&path, 42).expect("creates");
        }
        match Journal::recover(&path, 43) {
            Err(JournalError::BadGenesis(why)) => assert!(why.contains("seed")),
            other => panic!("expected BadGenesis, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
