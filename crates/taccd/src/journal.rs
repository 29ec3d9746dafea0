//! The single-writer write-ahead journal.
//!
//! One file, a sequence of checksummed frames ([`tacc_core::wire`]):
//! a genesis frame carrying the protocol version and platform seed,
//! then one frame per accepted [`CommandRecord`], each a single JSON
//! line, then zeros.
//!
//! A journal has two halves. The *append* half ([`Journal`]) queues an
//! accepted record in the pending batch: no text, no syscall. The
//! *commit* half ([`JournalFile::commit`]) frames a batch into one
//! buffer and puts it on disk with one `write_all` and one `sync_data` —
//! the one routine that encodes a command frame or touches the file
//! after the genesis frame. Used whole, [`Journal::sync`] commits the
//! pending batch on the caller's thread. The engine instead
//! [splits](Journal::split) the journal: its apply stage keeps appending
//! to a `Journal<Detached>` — which has no `sync`, so nothing can encode
//! or flush on that thread — while its commit stage owns the file.
//!
//! The commit half writes into space it zeroed ahead of time. It keeps
//! two positions: `end`, where the next frame goes, and `allocated`, the
//! file's length, with every byte between them zero and synced. A batch
//! that fits below `allocated` — the steady state — overwrites zeros, so
//! its `sync_data` carries data alone: the file's size and block map do
//! not change. A batch that passes it is written, then padded past with
//! zeros ([`PAD_FIRST`] bytes, doubling up to [`PAD_MAX`]) before the
//! same one `sync_data`. Padding is best effort: a failed pad leaves the
//! file ending at the frames and the batch committed.
//!
//! A journal whose write or sync failed is closed for good
//! ([`Journal::failed`]): the file may end mid-frame, so nothing more is
//! written behind it and recovery truncates the tear.
//!
//! Recovery ([`Journal::replay`]) reads frames until the first torn or
//! corrupt one, or the end-of-log mark — an all-zero frame header, which
//! reads as an empty frame and which the journal never writes — and
//! keeps the longest valid prefix. It streams: one buffered reader reads
//! a frame at a time into one reused buffer ([`wire::read_frame_into`]),
//! the frame decodes straight into a record
//! ([`CommandRecord::from_text`]) and the caller applies it before the
//! next frame is read. Only once the whole prefix has applied does
//! recovery truncate the file after it, so the next append continues
//! from a clean boundary, and report what it dropped. The dropped tail
//! is torn only if it holds a non-zero byte — zeros are padding no
//! commit reached — and a torn tail is reported loudly: counted, logged
//! and surfaced in `tacc_taccd_torn_frames_total`. A prefix that fails to
//! apply leaves the file as it was found.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
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
    /// Bytes dropped from the torn tail: 0 for a clean journal, whose
    /// file ends at its frames or in zeros.
    pub torn_bytes: u64,
    /// Human-readable description of the tear, when there was one.
    pub torn_reason: Option<String>,
}

impl RecoveryReport {
    /// True when the journal's frames ended in a non-zero byte that is
    /// not part of an intact frame: mid-frame, at a corrupt frame, or
    /// inside the zeros past the end-of-log mark.
    pub fn torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// The calls that put a batch on disk. `File` is the implementation
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

    /// Writes `len` zero bytes from byte `at`, the end of everything
    /// written, without moving where the next `write_all` goes. Not
    /// durable until the next `sync_data`. The default pads nothing,
    /// for a test disk that has no file to pad.
    ///
    /// # Errors
    ///
    /// The underlying I/O error; the file then ends at `at` again, as
    /// far as the disk allows.
    fn pad(&mut self, _at: u64, _len: u64) -> io::Result<()> {
        Ok(())
    }
}

/// The first zero padding a journal lays past its frames, in bytes.
/// Each later one doubles it, up to [`PAD_MAX`]. Constants, not
/// settings: a sync over zeroed space costs data alone whatever the
/// step, and the step only sets how often a commit pays for growing the
/// file (DESIGN.md, "Journal format and durability protocol").
pub const PAD_FIRST: u64 = 64 * 1024;

/// The most zero padding one commit lays, in bytes: the most a clean
/// restart scans past the last frame.
pub const PAD_MAX: u64 = 1024 * 1024;

/// What padding is written from, a block at a time: static, so padding
/// allocates nothing.
static ZEROS: [u8; PAD_FIRST as usize] = [0; PAD_FIRST as usize];

impl JournalSink for File {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, bytes)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn pad(&mut self, at: u64, len: u64) -> io::Result<()> {
        let mut done = 0;
        while done < len {
            let block = &ZEROS[..(len - done).min(PAD_FIRST) as usize];
            if let Err(e) = self.write_all_at(block, at + done) {
                // Best effort: a file that cannot grow ends at its frames.
                self.set_len(at).ok();
                return Err(e);
            }
            done += block.len() as u64;
        }
        Ok(())
    }
}

/// A batch of accepted records, in `seq` order: what the append half
/// queues and the commit half frames and writes, one frame each.
pub type Frames = Vec<CommandRecord>;

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
    /// The batch being committed, framed; kept for its capacity.
    encoded: Vec<u8>,
    /// Where the next frame goes: the end of the last one written.
    end: u64,
    /// The file's length. Every byte from `end` up to here is zero and
    /// synced.
    allocated: u64,
    /// The next padding's length: [`PAD_FIRST`], doubling to [`PAD_MAX`].
    next_pad: u64,
    progress: Arc<Progress>,
}

impl JournalFile {
    /// Makes one batch durable: frames each record into one buffer
    /// ([`wire::frame_into`] over [`CommandRecord::write_json`]), then one
    /// `write_all` at `end`, one `sync_data`. A batch that passes
    /// `allocated` is padded past with zeros in between, best effort: a
    /// failed pad does not fail the commit. A batch without records
    /// touches nothing.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write or the sync fails — and from
    /// then on for every batch, without encoding or touching the file
    /// again: it may end mid-frame, and frames written behind a tear
    /// would be lost to recovery after they were acknowledged.
    pub fn commit(&mut self, batch: &Frames) -> Result<(), JournalError> {
        if batch.is_empty() {
            return Ok(());
        }
        if self.progress.failed.load(SeqCst) {
            return Err(closed());
        }
        self.encoded.clear();
        for record in batch {
            wire::frame_into(&mut self.encoded, |payload| record.write_json(payload));
        }
        if let Err(e) = self.write_and_sync() {
            self.progress.failed.store(true, SeqCst);
            return Err(JournalError::Io(e));
        }
        self.progress.durable.fetch_add(batch.len() as u64, SeqCst);
        self.progress.syncs.fetch_add(1, SeqCst);
        Ok(())
    }

    /// The encoded batch at `end`, the padding it passed into, one sync.
    fn write_and_sync(&mut self) -> io::Result<()> {
        self.sink.write_all(&self.encoded)?;
        self.end += self.encoded.len() as u64;
        if self.end > self.allocated {
            self.allocated = self.end;
            if self.sink.pad(self.end, self.next_pad).is_ok() {
                self.allocated += self.next_pad;
                self.next_pad = (2 * self.next_pad).min(PAD_MAX);
            }
        }
        self.sink.sync_data()
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
    /// The pending batch: records appended and not yet handed to a commit.
    pending: Frames,
    /// Records appended since open.
    appended: u64,
    progress: Arc<Progress>,
}

/// Counters the engine exports as `tacc_taccd_journal_*` metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since open: each is one frame once committed.
    pub appended: u64,
    /// `fsync` calls issued since open.
    pub syncs: u64,
    /// Records appended but not yet covered by an `fsync`: pending, or
    /// on their way through a commit stage, which encodes them.
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
    /// One intact frame, its payload read into the buffer.
    Frame,
    /// The end of the log: the end of the file, or the end-of-log mark.
    End,
    /// Bytes that are not one intact frame, and why.
    Torn(String),
}

/// Reads the frame at the cursor, `remaining` bytes before the end of
/// the file, into `payload` with the one stream frame reader
/// ([`wire::read_frame_into`]). An empty frame — an all-zero header —
/// is the end-of-log mark: no record or genesis frame is empty.
fn next_frame(reader: &mut impl Read, remaining: u64, payload: &mut Vec<u8>) -> io::Result<Next> {
    match wire::read_frame_into(reader, payload) {
        Ok(true) if payload.is_empty() => Ok(Next::End),
        Ok(true) => Ok(Next::Frame),
        Ok(false) if remaining == 0 => Ok(Next::End),
        // Fewer than a header's 8 bytes are left.
        Ok(false) => Ok(Next::Torn(FrameError::Incomplete { needed: 8 }.to_string())),
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

/// Where the first non-zero byte from byte `from` to the end lies, if
/// any.
fn first_nonzero(reader: &mut (impl BufRead + Seek), from: u64) -> io::Result<Option<u64>> {
    reader.seek(SeekFrom::Start(from))?;
    let mut at = from;
    loop {
        let block = reader.fill_buf()?;
        if block.is_empty() {
            return Ok(None);
        }
        if let Some(i) = block.iter().position(|&b| b != 0) {
            return Ok(Some(at + i as u64));
        }
        let read = block.len();
        reader.consume(read);
        at += read as u64;
    }
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
        let genesis = wire::encode_frame(genesis_payload(seed).as_bytes());
        let mut journal = Journal::over(file, path, genesis.len() as u64);
        let sink = &mut journal.file.sink;
        sink.write_all(&genesis)?;
        sink.sync_data()?;
        journal.progress.syncs.store(1, SeqCst);
        Ok(journal)
    }

    /// A journal appending at `end`, `file`'s cursor and its length once
    /// the caller has written or truncated it there; nothing pending.
    fn over(file: File, path: &Path, end: u64) -> Journal {
        let progress = Arc::new(Progress::default());
        Journal {
            file: JournalFile {
                sink: Box::new(file),
                encoded: Vec::new(),
                end,
                allocated: end,
                next_pad: PAD_FIRST,
                progress: Arc::clone(&progress),
            },
            path: path.to_owned(),
            pending: Frames::new(),
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
    /// frame order, to `apply` as it decodes: a frame is read into one
    /// reused buffer, decoded and applied before the next one is read,
    /// so neither the file nor its records are ever held whole. The
    /// prefix ends at the end of the file, the end-of-log mark or the
    /// first torn or unparseable frame. Once every record has applied it
    /// truncates everything after the prefix and returns the journal,
    /// positioned to append, with a report of what was kept and dropped:
    /// torn only if what was dropped holds a non-zero byte.
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
        let mut payload = Vec::new();
        match next_frame(&mut reader, len, &mut payload).map_err(JournalError::Io)? {
            Next::Frame => check_genesis(&payload, expected_seed)?,
            Next::End => {
                let why = "the journal ends before its genesis frame";
                return Err(JournalError::BadGenesis(why.to_owned()).into());
            }
            Next::Torn(why) => return Err(JournalError::BadGenesis(why).into()),
        }

        let mut report = RecoveryReport {
            valid_bytes: 8 + payload.len() as u64,
            ..RecoveryReport::default()
        };
        let stopped = loop {
            let at = report.valid_bytes;
            let remaining = len.saturating_sub(at);
            match next_frame(&mut reader, remaining, &mut payload).map_err(JournalError::Io)? {
                Next::Frame => {}
                Next::End => break None,
                Next::Torn(why) => break Some(format!("torn frame at byte {at}: {why}")),
            }
            match parse_record(&payload) {
                Ok(record) => apply(record)?,
                Err(why) => break Some(format!("unparseable frame at byte {at}: {why}")),
            }
            report.frames += 1;
            report.valid_bytes += 8 + payload.len() as u64;
        };
        let valid = report.valid_bytes;
        if len > valid {
            // Zeros are padding no commit reached; anything else is torn.
            let nonzero = first_nonzero(&mut reader, valid).map_err(JournalError::Io)?;
            drop(reader);
            if let Some(byte) = nonzero {
                report.torn_bytes = len - valid;
                report.torn_reason = Some(stopped.unwrap_or_else(|| {
                    format!(
                        "a non-zero byte at byte {byte}, past the end-of-log mark at byte {valid}"
                    )
                }));
            }
            // Appends restart from a clean frame boundary — cut now, with
            // the whole prefix applied, and not before.
            file.set_len(valid).map_err(JournalError::Io)?;
        }
        file.seek(SeekFrom::Start(valid))
            .map_err(JournalError::Io)?;
        Ok((Journal::over(file, path, valid), report))
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
    /// Appends one command record: queues a clone (sharing a submit's
    /// schema) in the pending batch, for a commit to frame — no text, no
    /// syscall, and **not** durable until that commit; the engine commits
    /// once per batch before acknowledging.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] once the journal has [failed](Journal::failed).
    pub fn append_frame(&mut self, record: &CommandRecord) -> Result<(), JournalError> {
        if self.failed() {
            return Err(closed());
        }
        self.pending.push(record.clone());
        self.appended += 1;
        Ok(())
    }

    /// Takes the pending batch for a commit stage, leaving the empty
    /// `spare` to fill next.
    pub fn take_pending(&mut self, spare: Frames) -> Frames {
        debug_assert!(spare.is_empty(), "the spare batch still holds records");
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

    /// A padded journal at `path` holding records 0 to 4, and where its
    /// frames end.
    fn five_records(path: &Path) -> u64 {
        let mut j = Journal::create(path, 42).expect("creates");
        for seq in 0..5 {
            j.append_frame(&record(seq)).expect("appends");
        }
        j.sync().expect("syncs");
        let len = std::fs::metadata(path).expect("meta").len();
        assert_eq!(len, j.file.end + PAD_FIRST, "the first commit pads");
        j.file.end
    }

    /// Recovers `path`, expecting the five records of [`five_records`]
    /// (`kept` of them) and a report whose reason says `why`; then checks
    /// that the file was cut to what was kept and that an append lands
    /// right behind it.
    fn recovers(path: &Path, kept: usize, why: Option<&str>) -> RecoveryReport {
        let len = std::fs::metadata(path).expect("meta").len();
        let (mut j, records, report) = Journal::recover(path, 42).expect("recovers");
        assert_eq!(records, (0..kept as u64).map(record).collect::<Vec<_>>());
        assert_eq!(report.frames, kept as u64);
        let reason = report.torn_reason.as_deref();
        match why {
            Some(why) => assert!(reason.is_some_and(|r| r.contains(why)), "{reason:?}"),
            None => assert_eq!(reason, None),
        }
        let torn = if why.is_some() {
            len - report.valid_bytes
        } else {
            0
        };
        assert_eq!(report.torn_bytes, torn);
        assert_eq!(report.torn(), why.is_some());
        assert_eq!(
            std::fs::metadata(path).expect("meta").len(),
            report.valid_bytes,
            "everything after the valid prefix is cut"
        );
        j.append_frame(&record(99)).expect("appends after recovery");
        j.sync().expect("syncs");
        drop(j);
        let (_j, records, again) = Journal::recover(path, 42).expect("re-recovers");
        assert_eq!(records.len(), kept + 1);
        assert_eq!(records[kept].seq, 99, "appends resume at the prefix's end");
        assert!(!again.torn());
        report
    }

    /// Overwrites the bytes of `path` from `at` on with `bytes`.
    fn overwrite(path: &Path, at: u64, bytes: &[u8]) {
        let f = OpenOptions::new().write(true).open(path).expect("opens");
        f.write_all_at(bytes, at).expect("writes");
    }

    /// A restart on a padded journal is clean: the zero tail is cut,
    /// nothing is counted torn, and appends resume at `end`.
    #[test]
    fn a_zero_tail_is_clean_and_cut() {
        let path = temp_path("zero-tail");
        let end = five_records(&path);
        let report = recovers(&path, 5, None);
        assert_eq!(report.valid_bytes, end);
        std::fs::remove_file(&path).ok();
    }

    /// A torn frame followed by the zeros it was written over is torn,
    /// zeros and all.
    #[test]
    fn a_torn_frame_before_zeros_is_torn() {
        let path = temp_path("torn-zeros");
        let end = five_records(&path);
        overwrite(&path, end - 3, &[0; 3]);
        recovers(&path, 4, Some("torn frame"));
        std::fs::remove_file(&path).ok();
    }

    /// A non-zero byte past the end-of-log mark is no padding: torn.
    #[test]
    fn a_non_zero_byte_among_the_zeros_is_torn() {
        let path = temp_path("zeros-nonzero");
        let end = five_records(&path);
        overwrite(&path, end + 4096, &[1]);
        let report = recovers(&path, 5, Some("past the end-of-log mark"));
        assert_eq!(report.valid_bytes, end);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_recovers_longest_prefix() {
        let path = temp_path("torn");
        // Tear the last frame by cutting the file 3 bytes short of it.
        let end = five_records(&path);
        let f = OpenOptions::new().write(true).open(&path).expect("opens");
        f.set_len(end - 3).expect("truncates");
        drop(f);
        recovers(&path, 4, Some("torn frame"));
        std::fs::remove_file(&path).ok();
    }

    /// One call a [`RecordingDisk`] took, in the order it took them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        Write(Vec<u8>),
        Sync,
        /// Zeros: from where, how many.
        Pad(u64, u64),
    }

    /// A disk that records every call, shared with the test that reads
    /// them, and fails its writes while `fail` is set.
    #[derive(Debug, Clone, Default)]
    struct RecordingDisk {
        calls: Arc<std::sync::Mutex<Vec<Call>>>,
        fail: Arc<AtomicBool>,
    }

    impl RecordingDisk {
        fn calls(&self) -> Vec<Call> {
            self.calls.lock().expect("not poisoned").clone()
        }
    }

    impl JournalSink for RecordingDisk {
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            let call = Call::Write(bytes.to_vec());
            self.calls.lock().expect("not poisoned").push(call);
            if self.fail.load(SeqCst) {
                return Err(io::Error::other("injected write failure"));
            }
            Ok(())
        }

        fn sync_data(&mut self) -> io::Result<()> {
            self.calls.lock().expect("not poisoned").push(Call::Sync);
            Ok(())
        }

        fn pad(&mut self, at: u64, len: u64) -> io::Result<()> {
            self.calls
                .lock()
                .expect("not poisoned")
                .push(Call::Pad(at, len));
            Ok(())
        }
    }

    /// A split journal whose file half writes to `disk` alone.
    fn split_onto(disk: &RecordingDisk, tag: &str) -> (Journal<Detached>, JournalFile) {
        let path = temp_path(tag);
        let (appender, file) = Journal::create(&path, 42).expect("creates").split();
        std::fs::remove_file(&path).ok();
        let disk = disk.clone();
        (appender, file.wrap_sink(|_| Box::new(disk)))
    }

    /// Records of every shape the escaper and the number writer meet.
    fn mixed_records() -> Vec<CommandRecord> {
        let schema = tacc_workload::TaskSchema::builder(
            "quoted \"name\" \\ tab\t",
            tacc_workload::GroupId::from_index(3),
        );
        let commands = [
            Command::Submit {
                schema: schema.build().expect("valid schema").into(),
                service_secs: 90.25,
            },
            Command::Advance { secs: 3600.0 },
            Command::Cancel {
                job: tacc_workload::JobId::from_value(7),
            },
            Command::Drain { node: 5 },
        ];
        (0..)
            .zip(commands)
            .map(|(seq, command)| CommandRecord {
                seq,
                at_secs: seq as f64 / 3.0,
                command,
            })
            .collect()
    }

    /// The appender only queues; one commit frames the whole batch, in
    /// queue order, into one `write_all` right behind the genesis frame,
    /// pads past it — the batch passed the file's end — and syncs once:
    /// I3's bytes.
    #[test]
    fn one_commit_writes_the_queued_records_framed_in_one_call() {
        let disk = RecordingDisk::default();
        let (mut appender, mut file) = split_onto(&disk, "recording");
        let records = mixed_records();
        for record in &records {
            appender.append_frame(record).expect("appends");
        }
        assert!(disk.calls().is_empty(), "appending touched the disk");
        assert_eq!(appender.stats().dirty, records.len() as u64);

        file.commit(&appender.take_pending(Frames::new()))
            .expect("commits");
        let framed: Vec<u8> = records
            .iter()
            .flat_map(|r| wire::encode_frame(r.to_json().to_string().as_bytes()))
            .collect();
        let end = (wire::encode_frame(genesis_payload(42).as_bytes()).len() + framed.len()) as u64;
        let pad = Call::Pad(end, PAD_FIRST);
        assert_eq!(disk.calls(), [Call::Write(framed), pad, Call::Sync]);
        assert_eq!(appender.stats().dirty, 0);
        assert_eq!(appender.stats().syncs, 2, "the genesis sync, then one");
    }

    /// I4 at the file half: after a failed write, a commit encodes and
    /// writes nothing — not one sink call — and the appender is closed.
    #[test]
    fn nothing_is_encoded_or_written_behind_a_failed_write() {
        let disk = RecordingDisk::default();
        let (mut appender, mut file) = split_onto(&disk, "recording-torn");
        disk.fail.store(true, SeqCst);
        let records = mixed_records();
        assert!(file.commit(&records[..1].to_vec()).is_err());
        assert_eq!(disk.calls().len(), 1, "the one failed write");
        let encoded = file.encoded.clone();

        disk.fail.store(false, SeqCst);
        assert!(file.commit(&records).is_err(), "closed for good");
        assert_eq!(disk.calls().len(), 1, "a sink call behind the tear");
        assert_eq!(file.encoded, encoded, "a batch encoded behind the tear");
        assert!(appender.failed());
        assert!(appender.append_frame(&records[1]).is_err());
    }

    /// What the gain rests on: a commit that fits in the zeroed space
    /// leaves the file's length alone, and only a commit that passes it
    /// grows the file — by its frames and the next padding, 64 KiB
    /// doubling to 1 MiB — with zeros behind its frames.
    #[test]
    fn only_a_commit_that_passes_the_zeroed_space_changes_the_length() {
        let path = temp_path("lengths");
        let mut j = Journal::create(&path, 42).expect("creates");
        let len = |path: &Path| std::fs::metadata(path).expect("meta").len();
        let mut end = len(&path);
        let mut pads = Vec::new();
        let name = "x".repeat(6_000);
        for seq in 0..400 {
            let schema = tacc_workload::TaskSchema::builder(
                &format!("{name}{seq}"),
                tacc_workload::GroupId::from_index(1),
            );
            let record = CommandRecord {
                seq,
                at_secs: 0.0,
                command: Command::Submit {
                    schema: schema.build().expect("valid schema").into(),
                    service_secs: 60.0,
                },
            };
            j.append_frame(&record).expect("appends");
            let frame = wire::encode_frame(record.to_json().to_string().as_bytes());
            let before = len(&path);
            j.sync().expect("syncs");
            end += frame.len() as u64;
            let after = len(&path);
            if end <= before {
                assert_eq!(after, before, "commit {seq} fit and changed the length");
            } else {
                pads.push(after - end);
            }
        }
        let expected: Vec<u64> = [1, 2, 4, 8, 16, 16].iter().map(|k| k * PAD_FIRST).collect();
        assert_eq!(pads, expected, "the padding steps");
        assert_eq!(PAD_MAX, 16 * PAD_FIRST);
        let bytes = std::fs::read(&path).expect("reads");
        assert!(
            bytes[end as usize..].iter().all(|&b| b == 0),
            "zeros past the frames"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A disk whose padding fails halfway: some zeros are down, then an
    /// error, every time.
    #[derive(Debug)]
    struct PadFails(Box<dyn JournalSink>);

    impl JournalSink for PadFails {
        fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.0.write_all(bytes)
        }

        fn sync_data(&mut self) -> io::Result<()> {
            self.0.sync_data()
        }

        fn pad(&mut self, at: u64, len: u64) -> io::Result<()> {
            self.0.pad(at, len / 2)?;
            Err(io::Error::other("injected pad failure"))
        }
    }

    /// A failed pad fails no commit: each is acknowledged and durable,
    /// the next commit tries again, and recovery finds every frame and a
    /// clean end.
    #[test]
    fn a_failed_pad_fails_no_commit() {
        let path = temp_path("pad-fails");
        let (mut appender, file) = Journal::create(&path, 42).expect("creates").split();
        let mut file = file.wrap_sink(|disk| Box::new(PadFails(disk)));
        for seq in 0..5 {
            appender.append_frame(&record(seq)).expect("appends");
            file.commit(&appender.take_pending(Frames::new()))
                .expect("a failed pad fails no commit");
            assert_eq!(file.allocated, file.end, "nothing counts as padded");
        }
        assert_eq!(appender.stats().dirty, 0);
        assert!(!appender.failed());
        drop(file);
        recovers(&path, 5, None);
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
