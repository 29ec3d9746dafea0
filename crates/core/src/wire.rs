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

pub use tacc_json::{obj, parse, Json, JsonError};

/// Hard ceiling on one frame's payload, applied on both encode and
/// decode. Large enough for any task schema, small enough that a
/// corrupted length field cannot make a reader allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Version of the client–daemon protocol and the journal frame payloads.
/// Bumped on any incompatible change; the daemon rejects mismatched
/// clients and journals with a typed error instead of misparsing them.
pub const PROTOCOL_VERSION: u64 = 1;

// --------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, table built in const context.
// --------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the Ethernet/zip polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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

/// Encodes one frame: `[len u32le][crc u32le][payload]`.
///
/// # Panics
///
/// Never: payloads over [`MAX_FRAME_LEN`] are truncated by the caller's
/// contract — all in-tree payloads are single JSON lines far below the
/// cap; oversized input is debug-asserted.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN, "payload exceeds frame cap");
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
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
