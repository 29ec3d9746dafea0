//! The service-mode wire layer: a CRC-32 checksum and the
//! length-prefixed checksummed frame format shared by the `taccd`
//! write-ahead journal, the daemon's socket protocol, and the `tcloud`
//! client transport. A frame's payload is one compact JSON line; the
//! JSON names are re-exported from [`tacc_json`] so the service crates
//! take framing and payload syntax from one place.
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

use std::fmt;

pub use tacc_json::{obj, parse, write_escaped, write_num, Json, JsonError, TextSink};

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

/// Attempts to decode the frame at the start of `buf`.
///
/// Returns the payload slice and the total bytes consumed.
///
/// # Errors
///
/// [`FrameError`] when the bytes at the head of `buf` are not one intact
/// frame; `Incomplete` distinguishes "wait for more bytes" (sockets) or
/// "torn tail" (journals) from the always-fatal `TooLarge`/`Checksum`.
pub fn decode_frame(buf: &[u8]) -> Result<(&[u8], usize), FrameError> {
    if buf.len() < 8 {
        return Err(FrameError::Incomplete { needed: 8 });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    let expected = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if buf.len() < 8 + len {
        return Err(FrameError::Incomplete { needed: 8 + len });
    }
    let payload = &buf[8..8 + len];
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::Checksum { expected, actual });
    }
    Ok((payload, 8 + len))
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
