//! The length-prefixed frame layer: everything that touches raw bytes.
//!
//! A frame is `[u32 BE length][u8 kind][payload]`, where `length` counts the
//! kind byte plus the payload (so the smallest legal frame is `length == 1`:
//! a kind with an empty payload).  Payloads are UTF-8 text, line-oriented;
//! the framing layer treats them as opaque bytes.
//!
//! Reads distinguish four situations the service must tell apart:
//!
//! * a complete frame — [`ReadOutcome::Frame`];
//! * a clean end-of-stream *at a frame boundary* — [`ReadOutcome::Eof`],
//!   how a client says it is done;
//! * a read timeout before any byte of a frame arrived —
//!   [`ReadOutcome::Idle`], which lets a handler poll its shutdown flag
//!   without losing frame sync;
//! * everything else — a [`WireError`]: EOF or timeout *mid-frame*
//!   ([`WireError::Truncated`]), a length prefix beyond the negotiated cap
//!   ([`WireError::Oversized`]), a zero-length frame
//!   ([`WireError::EmptyFrame`]), an unassigned kind byte
//!   ([`WireError::UnknownKind`]) or transport I/O failure.

use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on one frame's length (kind byte + payload): 32 MiB, far
/// above any report the service streams, low enough that a hostile length
/// prefix cannot balloon allocation.
pub const MAX_FRAME: usize = 32 * 1024 * 1024;

/// The message kinds of the sweep-service protocol.  Client-to-server kinds
/// live below `0x80`, server-to-client kinds at `0x80` and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: submit a sweep request.
    Submit = 0x01,
    /// Client → server: ask for service counters.
    Stats = 0x02,
    /// Client → server: cancel the named request.
    Cancel = 0x03,
    /// Client → server: stop the daemon.
    Shutdown = 0x04,
    /// Server → client: the sweep was admitted.
    Accepted = 0x81,
    /// Server → client: the sweep was refused (budget, backpressure, parse).
    Rejected = 0x82,
    /// Server → client: one finished cell of the running sweep.
    Cell = 0x83,
    /// Server → client: the sweep finished; stream totals follow.
    Done = 0x84,
    /// Server → client: service counters.
    StatsReply = 0x85,
    /// Server → client: the request failed after admission.
    Error = 0x86,
    /// Server → client: shutdown acknowledged.
    ShutdownAck = 0x87,
}

impl FrameKind {
    /// The kind's wire byte.
    #[must_use]
    pub const fn byte(self) -> u8 {
        self as u8
    }

    /// Decodes a wire byte, `None` for unassigned values.
    #[must_use]
    pub const fn from_byte(byte: u8) -> Option<Self> {
        Some(match byte {
            0x01 => Self::Submit,
            0x02 => Self::Stats,
            0x03 => Self::Cancel,
            0x04 => Self::Shutdown,
            0x81 => Self::Accepted,
            0x82 => Self::Rejected,
            0x83 => Self::Cell,
            0x84 => Self::Done,
            0x85 => Self::StatsReply,
            0x86 => Self::Error,
            0x87 => Self::ShutdownAck,
            _ => return None,
        })
    }
}

/// One decoded frame: a kind plus its opaque payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The message kind.
    pub kind: FrameKind,
    /// The payload bytes (UTF-8 text at the protocol layer).
    pub payload: Vec<u8>,
}

impl Frame {
    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Malformed`] when the payload is not UTF-8.
    pub fn text(&self) -> Result<&str, WireError> {
        std::str::from_utf8(&self.payload).map_err(|_| malformed("frame payload is not UTF-8"))
    }
}

/// What one read attempt produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete frame.
    Frame(Frame),
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
    /// The read timed out before any byte of a new frame arrived (only with
    /// a read timeout set on the stream); frame sync is intact.
    Idle,
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// A length prefix exceeded the negotiated frame cap.
    Oversized {
        /// The advertised length.
        length: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended (or timed out) in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read.
        got: usize,
    },
    /// A frame advertised length zero (not even a kind byte).
    EmptyFrame,
    /// An unassigned kind byte.
    UnknownKind(u8),
    /// The frame arrived intact but its payload does not decode.
    Malformed {
        /// What failed to parse.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(err) => write!(f, "wire I/O error: {err}"),
            Self::Oversized { length, max } => {
                write!(f, "frame length {length} exceeds the {max}-byte cap")
            }
            Self::Truncated { expected, got } => {
                write!(f, "stream ended mid-frame ({got} of {expected} bytes)")
            }
            Self::EmptyFrame => write!(f, "zero-length frame (no kind byte)"),
            Self::UnknownKind(byte) => write!(f, "unknown frame kind 0x{byte:02x}"),
            Self::Malformed { reason } => write!(f, "malformed payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for WireError {
    fn from(err: io::Error) -> Self {
        Self::Io(err)
    }
}

/// A [`WireError::Malformed`] with the given reason.
pub(crate) fn malformed(reason: impl Into<String>) -> WireError {
    WireError::Malformed {
        reason: reason.into(),
    }
}

/// Cursor over a text payload's `key value` lines, shared by the CELL codec
/// and the control-payload decoders.
pub(crate) struct Lines<'a> {
    iter: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Lines<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Self {
            iter: text.lines(),
            line_no: 0,
        }
    }

    /// The rest of the next line after the expected key.
    pub(crate) fn rest(&mut self, key: &str) -> Result<&'a str, WireError> {
        self.line_no += 1;
        let line = self
            .iter
            .next()
            .ok_or_else(|| malformed(format!("payload ended before `{key}` line")))?;
        match line.strip_prefix(key) {
            Some("") => Some(""),
            Some(rest) => rest.strip_prefix(' '),
            None => None,
        }
        .ok_or_else(|| {
            malformed(format!(
                "line {}: expected `{key} …`, got `{line}`",
                self.line_no
            ))
        })
    }

    pub(crate) fn usize(&mut self, key: &str) -> Result<usize, WireError> {
        let rest = self.rest(key)?;
        rest.parse()
            .map_err(|_| malformed(format!("`{key}` value `{rest}` is not an integer")))
    }

    pub(crate) fn u64(&mut self, key: &str) -> Result<u64, WireError> {
        let rest = self.rest(key)?;
        rest.parse()
            .map_err(|_| malformed(format!("`{key}` value `{rest}` is not an integer")))
    }

    /// Fails unless every line has been consumed.
    pub(crate) fn done(mut self) -> Result<(), WireError> {
        match self.iter.next() {
            None => Ok(()),
            Some(extra) => Err(malformed(format!("unexpected trailing line `{extra}`"))),
        }
    }
}

fn is_timeout(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` completely.  `Ok(n)` with `n < buf.len()` means clean EOF
/// after `n` bytes; timeouts surface as `Err` unless nothing was read yet
/// and `idle_ok` — then `Ok(0)` with `was_idle` flagged via the error path
/// is avoided by the caller checking `n == 0`.
fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> Result<usize, io::Error> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(filled)
}

/// Reads one frame.
///
/// With a read timeout set on the stream, a timeout before the first byte of
/// the length prefix yields [`ReadOutcome::Idle`]; a timeout anywhere later
/// is [`WireError::Truncated`] (the stream has lost frame sync and must be
/// dropped).
///
/// # Errors
///
/// See [`WireError`]; `max_frame` bounds the accepted length prefix.
pub fn read_frame(stream: &mut impl Read, max_frame: usize) -> Result<ReadOutcome, WireError> {
    let mut header = [0_u8; 4];
    let got = match read_exact_or_eof(stream, &mut header) {
        Ok(got) => got,
        Err(err) if is_timeout(&err) => return Ok(ReadOutcome::Idle),
        Err(err) => return Err(err.into()),
    };
    if got == 0 {
        return Ok(ReadOutcome::Eof);
    }
    if got < header.len() {
        return Err(WireError::Truncated {
            expected: header.len(),
            got,
        });
    }
    let length = u32::from_be_bytes(header) as usize;
    if length == 0 {
        return Err(WireError::EmptyFrame);
    }
    if length > max_frame {
        return Err(WireError::Oversized {
            length,
            max: max_frame,
        });
    }
    let mut body = vec![0_u8; length];
    let got = match read_exact_or_eof(stream, &mut body) {
        Ok(got) => got,
        Err(err) if is_timeout(&err) => {
            return Err(WireError::Truncated {
                expected: length,
                got: 0,
            })
        }
        Err(err) => return Err(err.into()),
    };
    if got < length {
        return Err(WireError::Truncated {
            expected: length,
            got,
        });
    }
    let kind = FrameKind::from_byte(body[0]).ok_or(WireError::UnknownKind(body[0]))?;
    body.remove(0);
    Ok(ReadOutcome::Frame(Frame {
        kind,
        payload: body,
    }))
}

/// Writes one frame and flushes.
///
/// # Errors
///
/// Returns [`WireError::Oversized`] when the payload exceeds `max_frame`,
/// or the transport error.
pub fn write_frame(
    stream: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    max_frame: usize,
) -> Result<(), WireError> {
    let length = payload.len() + 1;
    if length > max_frame {
        return Err(WireError::Oversized {
            length,
            max: max_frame,
        });
    }
    let header = u32::try_from(length)
        .map_err(|_| WireError::Oversized {
            length,
            max: max_frame,
        })?
        .to_be_bytes();
    stream.write_all(&header)?;
    stream.write_all(&[kind.byte()])?;
    stream.write_all(payload)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(kind: FrameKind, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload, MAX_FRAME).unwrap();
        match read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap() {
            ReadOutcome::Frame(frame) => frame,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_round_trip() {
        let frame = roundtrip(FrameKind::Submit, b"id demo\ngrid modules=8");
        assert_eq!(frame.kind, FrameKind::Submit);
        assert_eq!(frame.text().unwrap(), "id demo\ngrid modules=8");
        let empty = roundtrip(FrameKind::Stats, b"");
        assert_eq!(empty.kind, FrameKind::Stats);
        assert!(empty.payload.is_empty());
    }

    #[test]
    fn every_kind_byte_round_trips() {
        for kind in [
            FrameKind::Submit,
            FrameKind::Stats,
            FrameKind::Cancel,
            FrameKind::Shutdown,
            FrameKind::Accepted,
            FrameKind::Rejected,
            FrameKind::Cell,
            FrameKind::Done,
            FrameKind::StatsReply,
            FrameKind::Error,
            FrameKind::ShutdownAck,
        ] {
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0x00), None);
        assert_eq!(FrameKind::from_byte(0x7f), None);
        assert_eq!(FrameKind::from_byte(0xff), None);
    }

    #[test]
    fn clean_eof_at_a_boundary_is_not_an_error() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut Cursor::new(empty), MAX_FRAME).unwrap(),
            ReadOutcome::Eof
        ));
    }

    #[test]
    fn truncated_header_and_body_are_errors() {
        // Two header bytes, then EOF.
        let err = read_frame(&mut Cursor::new(vec![0, 0]), MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 4,
                got: 2
            }
        ));
        // A full header promising 100 bytes, then only 3.
        let mut buf = 100_u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[FrameKind::Submit.byte(), b'x', b'y']);
        let err = read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                expected: 100,
                got: 3
            }
        ));
    }

    #[test]
    fn oversized_and_empty_prefixes_are_rejected_without_allocation() {
        let buf = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(buf), 1024).unwrap_err();
        assert!(matches!(err, WireError::Oversized { max: 1024, .. }));
        let err = read_frame(&mut Cursor::new(0_u32.to_be_bytes().to_vec()), 1024).unwrap_err();
        assert!(matches!(err, WireError::EmptyFrame));
        // Writing oversized payloads is refused before any bytes move.
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, FrameKind::Cell, &[0; 64], 16).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(sink.is_empty());
    }

    #[test]
    fn unknown_kind_bytes_are_rejected() {
        let mut buf = 1_u32.to_be_bytes().to_vec();
        buf.push(0x42);
        let err = read_frame(&mut Cursor::new(buf), MAX_FRAME).unwrap_err();
        assert!(matches!(err, WireError::UnknownKind(0x42)));
    }

    #[test]
    fn errors_display_their_cause() {
        for (err, needle) in [
            (WireError::EmptyFrame, "zero-length"),
            (WireError::UnknownKind(7), "0x07"),
            (WireError::Oversized { length: 10, max: 5 }, "cap"),
            (
                WireError::Truncated {
                    expected: 4,
                    got: 1,
                },
                "mid-frame",
            ),
            (
                WireError::Malformed {
                    reason: "bad".into(),
                },
                "bad",
            ),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
