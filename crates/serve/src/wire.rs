//! Low-level wire primitives: the frame header, a bounds-checked cursor,
//! and blocking frame I/O over any byte stream.
//!
//! Every frame is `magic(4) · version(1) · kind(1) · payload_len(4, LE) ·
//! payload`. Writers go through the [`bytes::BufMut`] shim; readers go
//! through [`Reader`], a cursor whose every accessor is bounds-checked and
//! returns a typed [`WireError`] — decoding hostile or truncated bytes can
//! fail but never panic, a property `tests/frame_roundtrip.rs` fuzzes.

use bytes::BufMut;
use std::io;

/// Frame magic: the first four bytes of every AID-serve frame.
pub const MAGIC: [u8; 4] = *b"AIDS";

/// Current protocol version, carried in every frame header.
pub const PROTOCOL_VERSION: u8 = 1;

/// Bytes in a frame header (`magic · version · kind · payload_len`).
pub const HEADER_LEN: usize = 10;

/// Default cap on a single frame's payload. Uploads are chunked well below
/// this; anything larger is a protocol violation, not a bigger buffer.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// A typed wire-format violation. `Truncated` is distinguished from the
/// other kinds so stream consumers can tell "wait for more bytes" from
/// "this peer is speaking garbage".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value (or frame) was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        available: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// An enum tag (frame kind, program-spec variant, …) is out of range.
    UnknownTag {
        /// Which enum the tag selects.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A value parsed but is out of its domain (e.g. a bool that is 2).
    InvalidValue(&'static str),
    /// A payload decoded completely but left bytes over.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// The header announces a payload larger than the configured cap.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The cap in force.
        max: usize,
    },
    /// A string field is not valid UTF-8.
    InvalidUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::InvalidValue(what) => write!(f, "invalid {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after payload")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap {max}")
            }
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked read cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a strict boolean (`0` or `1`; anything else is an error, so a
    /// flipped bit cannot smuggle in an unintended meaning).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue(what)),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    /// Asserts the payload was consumed exactly.
    pub fn expect_empty(&self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Assembles a complete frame around an encoded payload.
pub fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.put_slice(&MAGIC);
    out.put_u8(PROTOCOL_VERSION);
    out.put_u8(kind);
    out.put_u32_le(payload.len() as u32);
    out.put_slice(payload);
    out
}

/// Splits one frame off the front of `buf`: validates the header, bounds
/// the payload by `max_payload`, and returns `(kind, payload, consumed)`.
pub fn split_frame(buf: &[u8], max_payload: usize) -> Result<(u8, &[u8], usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            available: buf.len(),
        });
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic(buf[..4].try_into().expect("4")));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion(buf[4]));
    }
    let kind = buf[5];
    let len = u32::from_le_bytes(buf[6..10].try_into().expect("4")) as usize;
    if len > max_payload {
        return Err(WireError::FrameTooLarge {
            len,
            max: max_payload,
        });
    }
    if buf.len() < HEADER_LEN + len {
        return Err(WireError::Truncated {
            needed: HEADER_LEN + len,
            available: buf.len(),
        });
    }
    Ok((kind, &buf[HEADER_LEN..HEADER_LEN + len], HEADER_LEN + len))
}

/// An accumulating, resumable frame decoder for nonblocking streams.
///
/// The reactor's per-connection state machine feeds whatever bytes a
/// readiness event delivered — a single byte, half a header, three frames
/// and a partial fourth — and pulls complete frames out as they close.
/// Built directly on [`split_frame`], so framing semantics (magic,
/// version, payload cap) are byte-for-byte the semantics of the blocking
/// [`read_frame`] path; `Truncated` means "wait for the next readiness
/// event", every other [`WireError`] means the peer is speaking garbage.
///
/// Consumed bytes are dropped lazily: the cursor advances per frame and
/// the buffer compacts only once the consumed prefix dominates, keeping
/// per-event work amortized O(bytes) even when thousands of tiny frames
/// arrive in one burst.
#[derive(Debug)]
pub struct FrameAccum {
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as frames.
    consumed: usize,
    max_payload: usize,
}

impl FrameAccum {
    /// An empty accumulator enforcing the given payload cap.
    pub fn new(max_payload: usize) -> FrameAccum {
        FrameAccum {
            buf: Vec::new(),
            consumed: 0,
            max_payload,
        }
    }

    /// Appends bytes delivered by a readiness event.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as a frame (a nonzero value at
    /// EOF means the peer hung up mid-frame).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Pops the next complete frame, if one has fully arrived.
    ///
    /// `Ok(None)` means "incomplete — feed more bytes"; an `Err` is a
    /// protocol violation and the connection should be closed after a
    /// typed reply (no resynchronization is attempted: inside a corrupt
    /// byte stream, frame boundaries are no longer trustworthy).
    pub fn next_frame(&mut self) -> Result<Option<(u8, Vec<u8>)>, WireError> {
        match split_frame(&self.buf[self.consumed..], self.max_payload) {
            Ok((kind, payload, used)) => {
                let frame = (kind, payload.to_vec());
                self.consumed += used;
                // Compact once the dead prefix dominates the live bytes,
                // so long-lived connections don't grow without bound while
                // staying O(1) amortized per frame.
                if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
                    self.buf.drain(..self.consumed);
                    self.consumed = 0;
                }
                Ok(Some(frame))
            }
            Err(WireError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A framing failure while reading from a stream: either the transport
/// failed, the peer sent bytes that violate the wire format, or a timed
/// read expired while the stream was idle.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes violate the wire format.
    Wire(WireError),
    /// A read timeout expired at a frame boundary (no bytes of the next
    /// frame had arrived). Not an error condition: servers use timed
    /// reads to poll their shutdown flag between requests.
    IdleTimeout,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Wire(e) => write!(f, "protocol error: {e}"),
            FrameError::IdleTimeout => write!(f, "read timed out between frames"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// Whether an I/O error is a timed read expiring (platforms report
/// socket read timeouts as either kind).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Consecutive empty timed-out reads tolerated *mid-frame* before the
/// peer is declared stalled and the read fails. A frame in flight should
/// deliver bytes continuously; a peer that opens a frame and then goes
/// silent (crashed-but-connected, suspended, malicious) must not pin the
/// reading thread forever — with a 100 ms read timeout this
/// bounds a stall at ~5 s. Reads that deliver bytes reset the count, so
/// slow-but-live peers are unaffected.
const MAX_STALL_TICKS: u32 = 50;

fn stalled() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "peer stalled mid-frame")
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer hung up between frames); EOF *inside* a frame
/// is a typed `Truncated` error. On a stream with a read timeout, a
/// timeout with **no** bytes of the frame read yet is reported as
/// [`FrameError::IdleTimeout`] (call again to keep waiting); a timeout
/// mid-frame just keeps reading — the peer is mid-send.
pub fn read_frame(
    r: &mut impl io::Read,
    max_payload: usize,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    let mut stall_ticks = 0u32;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: HEADER_LEN,
                    available: filled,
                }
                .into())
            }
            Ok(n) => {
                filled += n;
                stall_ticks = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && filled == 0 => return Err(FrameError::IdleTimeout),
            Err(e) if is_timeout(&e) => {
                stall_ticks += 1;
                if stall_ticks > MAX_STALL_TICKS {
                    return Err(stalled().into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    // Validate the header via the same path as slice decoding. A header
    // with a well-formed prefix but an absent payload comes back as
    // `Truncated` — that is the normal case here (the payload is still in
    // the stream), and magic/version/size were already checked before the
    // completeness test, so only kind and length are left to extract.
    let (kind, len) = match split_frame(&header, max_payload) {
        Ok((kind, payload, _)) => (kind, payload.len()),
        Err(WireError::Truncated { .. }) => (
            header[5],
            u32::from_le_bytes(header[6..10].try_into().expect("4")) as usize,
        ),
        Err(e) => return Err(e.into()),
    };
    // Grow the payload buffer as bytes actually arrive instead of
    // trusting the header's length for one up-front allocation — a
    // 10-byte header claiming a 16 MiB payload must not cost 16 MiB
    // before a single payload byte shows up.
    let mut payload: Vec<u8> = Vec::with_capacity(len.min(64 * 1024));
    let mut scratch = [0u8; 64 * 1024];
    let mut stall_ticks = 0u32;
    while payload.len() < len {
        let want = (len - payload.len()).min(scratch.len());
        match r.read(&mut scratch[..want]) {
            Ok(0) => {
                return Err(WireError::Truncated {
                    needed: len,
                    available: payload.len(),
                }
                .into())
            }
            Ok(n) => {
                payload.extend_from_slice(&scratch[..n]);
                stall_ticks = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                stall_ticks += 1;
                if stall_ticks > MAX_STALL_TICKS {
                    return Err(stalled().into());
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some((kind, payload)))
}

/// Writes one already-assembled frame to a blocking stream.
pub fn write_frame(w: &mut impl io::Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_splits_back() {
        let f = frame(7, b"payload");
        let (kind, payload, consumed) = split_frame(&f, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(payload, b"payload");
        assert_eq!(consumed, f.len());
    }

    #[test]
    fn header_violations_are_typed() {
        let mut f = frame(1, b"x");
        f[0] = b'Z';
        assert!(matches!(
            split_frame(&f, DEFAULT_MAX_FRAME_LEN),
            Err(WireError::BadMagic(_))
        ));
        let mut f = frame(1, b"x");
        f[4] = 99;
        assert_eq!(
            split_frame(&f, DEFAULT_MAX_FRAME_LEN).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );
        let f = frame(1, b"xyz");
        assert!(matches!(
            split_frame(&f[..f.len() - 1], DEFAULT_MAX_FRAME_LEN),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            split_frame(&f, 2),
            Err(WireError::FrameTooLarge { len: 3, max: 2 })
        ));
    }

    #[test]
    fn reader_bounds_and_domains() {
        let mut buf = Vec::new();
        buf.put_u8(1);
        put_string(&mut buf, "hi");
        let mut r = Reader::new(&buf);
        assert!(r.bool("flag").unwrap());
        assert_eq!(r.string().unwrap(), "hi");
        r.expect_empty().unwrap();

        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool("flag").unwrap_err(), WireError::InvalidValue("flag"));
        let mut r = Reader::new(&[5, 0, 0, 0, b'a']);
        assert!(matches!(
            r.string().unwrap_err(),
            WireError::Truncated {
                needed: 5,
                available: 1
            }
        ));
    }

    #[test]
    fn stream_reader_distinguishes_clean_eof() {
        let f = frame(3, b"abc");
        let mut two = f.clone();
        two.extend_from_slice(&frame(4, b""));
        let mut cursor = io::Cursor::new(two);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            Some((3, b"abc".to_vec()))
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            Some((4, vec![]))
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).unwrap(),
            None
        );

        // EOF mid-frame is typed, not clean.
        let mut cursor = io::Cursor::new(f[..f.len() - 1].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Wire(WireError::Truncated { .. }))
        ));
    }

    #[test]
    fn accum_decodes_identically_at_every_byte_boundary() {
        // A multi-frame stream: empty payload, short, and multi-hundred
        // byte payloads, so every header/payload boundary is exercised.
        let frames: Vec<(u8, Vec<u8>)> = vec![
            (1, vec![]),
            (7, b"x".to_vec()),
            (3, (0..=255u8).collect()),
            (250, vec![0xAA; 513]),
        ];
        let mut stream = Vec::new();
        for (kind, payload) in &frames {
            stream.extend_from_slice(&frame(*kind, payload));
        }

        // Split the stream at every cut point: the accumulator must yield
        // the exact frame sequence regardless of where readiness events
        // chop the bytes.
        for cut in 0..=stream.len() {
            let mut accum = FrameAccum::new(DEFAULT_MAX_FRAME_LEN);
            let mut got = Vec::new();
            for chunk in [&stream[..cut], &stream[cut..]] {
                accum.extend(chunk);
                while let Some(f) = accum.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, frames, "cut at byte {cut}");
            assert_eq!(accum.pending(), 0);
        }

        // Degenerate delivery: one byte per readiness event.
        let mut accum = FrameAccum::new(DEFAULT_MAX_FRAME_LEN);
        let mut got = Vec::new();
        for b in &stream {
            accum.extend(std::slice::from_ref(b));
            while let Some(f) = accum.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn accum_surfaces_protocol_violations_and_tracks_pending() {
        // Oversized declared length is rejected as soon as the header closes.
        let mut accum = FrameAccum::new(16);
        accum.extend(&frame(2, &[0u8; 17]));
        assert!(matches!(
            accum.next_frame(),
            Err(WireError::FrameTooLarge { len: 17, max: 16 })
        ));

        // Bad magic is typed, not a panic or a silent skip.
        let mut accum = FrameAccum::new(DEFAULT_MAX_FRAME_LEN);
        accum.extend(b"BOGUS!!!!!");
        assert!(matches!(accum.next_frame(), Err(WireError::BadMagic(_))));

        // A half-delivered frame is visible as pending bytes (a nonzero
        // value at EOF means the peer hung up mid-frame).
        let f = frame(9, b"hello");
        let mut accum = FrameAccum::new(DEFAULT_MAX_FRAME_LEN);
        accum.extend(&f[..f.len() - 2]);
        assert_eq!(accum.next_frame().unwrap(), None);
        assert_eq!(accum.pending(), f.len() - 2);
        accum.extend(&f[f.len() - 2..]);
        assert_eq!(accum.next_frame().unwrap(), Some((9, b"hello".to_vec())));
        assert_eq!(accum.pending(), 0);
    }

    #[test]
    fn accum_compacts_under_sustained_traffic() {
        // Thousands of tiny frames through one accumulator: the internal
        // buffer must not retain the whole history.
        let f = frame(5, b"tick");
        let mut accum = FrameAccum::new(DEFAULT_MAX_FRAME_LEN);
        let mut seen = 0usize;
        for _ in 0..4096 {
            accum.extend(&f);
            while let Some((kind, payload)) = accum.next_frame().unwrap() {
                assert_eq!((kind, payload.as_slice()), (5, b"tick".as_slice()));
                seen += 1;
            }
        }
        assert_eq!(seen, 4096);
        assert!(
            accum.buf.len() < 4 * 4096,
            "buffer retained history: {} bytes",
            accum.buf.len()
        );
    }
}
