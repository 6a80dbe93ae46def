//! The wire-transport seam: framed, checksummed connections between the
//! coordinator and its workers.
//!
//! The engine's original deployment simulates every worker inside one
//! process; this module is what makes "distributed" real. A [`Transport`]
//! hands out [`Listener`]s and [`Connection`]s over one of three substrates:
//!
//! * [`MemTransport`] — the in-memory channel path (worker threads in this
//!   process, frames over `std::sync::mpsc`).
//! * [`TcpTransport`] — loopback TCP sockets (`std::net` only, per the
//!   offline-shim constraint), the path worker *processes* connect over.
//! * [`UnixTransport`] — Unix-domain sockets in a private temp directory.
//!
//! Every frame, on every transport, is length-prefixed and checksummed:
//!
//! ```text
//! magic   u32  0x45_55_4C_52 ("EULR")
//! version u16  FRAME_VERSION (2)
//! kind    u16  message discriminant (opaque to this layer)
//! len     u32  payload bytes (<= MAX_FRAME_BYTES)
//! check   u64  frame_checksum(kind, len, payload)
//! payload [u8; len]
//! ```
//!
//! Decoding garbage yields a typed [`FrameError`] — bad magic, foreign
//! version, truncated header/payload, oversized length (rejected **before**
//! any allocation), checksum mismatch — never a panic and never an
//! over-allocation. The in-memory transport carries the same header and
//! checksum through the same validation, so every impl shares one hardening
//! test surface.
//!
//! ## The v2 frame checksum
//!
//! [`frame_checksum`] folds the payload a little-endian `u64` word at a
//! time into four independent lanes (word `i` feeds lane `i mod 4`), with
//! one step per word:
//!
//! ```text
//! lane = rotl((lane ^ w) * FNV_PRIME, 29)
//! ```
//!
//! `kind` and `len` (as one word), then the four lanes, then the `len mod 8`
//! tail bytes (one byte per step) are folded the same way into the result.
//! Each step is a bijection in the accumulator (for a fixed word) *and* in
//! the word (for a fixed accumulator): xor, multiplication by the odd FNV
//! prime and a rotation are all invertible. So two payloads that differ in
//! exactly one whole word or one tail byte — and therefore any single
//! corrupted byte — always fold to different checksums, as does any change
//! of `kind` or `len` alone. The rotation is what keeps paired flips apart: without
//! it, a flip of bit 63 survives the multiply as exactly a flip of bit 63,
//! and a second bit-63 flip in the next word of the same lane cancels it.
//! The four lanes have no dependency on each other, so the fold runs at
//! word speed instead of one multiply per byte (version 1 was byte-serial
//! FNV-1a).
//!
//! ## Copy budget
//!
//! A protocol payload is encoded once, straight into a byte buffer through
//! [`WordWriter`]; [`Connection::send`] copies it once into the frame; the
//! receiver verifies the frame where it lies — the in-memory transport
//! hands the sent buffer over without a further copy — and the protocol
//! decodes the payload in place through a [`WordReader`]. That is one
//! encode, one frame copy and one decode per payload per hop.

use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Frame magic: `"EULR"` as a big-endian u32.
pub const FRAME_MAGIC: u32 = 0x4555_4C52;
/// Current frame-format version.
pub const FRAME_VERSION: u16 = 2;
/// Upper bound on a frame payload. A length field above this is rejected as
/// [`FrameError::LengthOverflow`] before any buffer is allocated.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;
/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_BYTES: usize = 20;

/// Typed decode/transport errors. Garbage input maps to one of these —
/// never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream does not start with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame was written by an incompatible format version.
    UnsupportedVersion {
        /// The version tag found.
        found: u16,
    },
    /// The stream ended inside a frame header or payload.
    Truncated {
        /// Bytes expected to complete the frame.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length field exceeds [`MAX_FRAME_BYTES`]; rejected before
    /// allocating.
    LengthOverflow {
        /// The declared payload length.
        declared: u64,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// No frame arrived within the requested timeout.
    Timeout,
    /// An underlying I/O error (message kept, `std::io::Error` is not
    /// comparable).
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:#010x}"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported frame version {found}")
            }
            FrameError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            FrameError::LengthOverflow { declared } => {
                write!(f, "frame length {declared} exceeds cap {MAX_FRAME_BYTES}")
            }
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "timed out waiting for a frame"),
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e.to_string())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Initial states of the four checksum lanes.
const LANE_SEEDS: [u64; 4] = [
    FNV_OFFSET,
    FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
    FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
    FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
];
/// Rotation of one fold step; any amount other than 0 (mod 64) keeps
/// paired bit-63 flips from cancelling.
const FOLD_ROTATE: u32 = 29;

/// One fold step: a bijection in `acc` for fixed `w`, and in `w` for fixed
/// `acc`.
#[inline(always)]
fn fold(acc: u64, w: u64) -> u64 {
    (acc ^ w).wrapping_mul(FNV_PRIME).rotate_left(FOLD_ROTATE)
}

/// The v2 frame checksum over `kind`, `len` and the payload: a four-lane
/// word fold (see the module docs for the definition and what it is
/// guaranteed to catch).
pub fn frame_checksum(kind: u16, len: u32, payload: &[u8]) -> u64 {
    let (words, tail) = payload.as_chunks::<8>();
    let (quads, rest) = words.as_chunks::<4>();
    let [mut a, mut b, mut c, mut d] = LANE_SEEDS;
    for [w0, w1, w2, w3] in quads {
        a = fold(a, u64::from_le_bytes(*w0));
        b = fold(b, u64::from_le_bytes(*w1));
        c = fold(c, u64::from_le_bytes(*w2));
        d = fold(d, u64::from_le_bytes(*w3));
    }
    // The last 0–3 whole words continue lanes a, b, c in order.
    let mut rest = rest.iter().map(|w| u64::from_le_bytes(*w));
    if let Some(w) = rest.next() {
        a = fold(a, w);
    }
    if let Some(w) = rest.next() {
        b = fold(b, w);
    }
    if let Some(w) = rest.next() {
        c = fold(c, w);
    }
    let mut h = fold(FNV_OFFSET, (u64::from(kind) << 32) | u64::from(len));
    for lane in [a, b, c, d] {
        h = fold(h, lane);
    }
    for &byte in tail {
        h = fold(h, u64::from(byte));
    }
    h
}

/// Encodes the fixed frame header for `payload` under `kind`.
fn encode_header(kind: u16, payload: &[u8]) -> Result<[u8; FRAME_HEADER_BYTES], FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or(FrameError::LengthOverflow { declared: payload.len() as u64 })?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let fields = FRAME_MAGIC
        .to_le_bytes()
        .into_iter()
        .chain(FRAME_VERSION.to_le_bytes())
        .chain(kind.to_le_bytes())
        .chain(len.to_le_bytes())
        .chain(frame_checksum(kind, len, payload).to_le_bytes());
    for (slot, byte) in header.iter_mut().zip(fields) {
        *slot = byte;
    }
    Ok(header)
}

/// Encodes one frame (header + payload) into a byte vector.
pub fn encode_frame(kind: u16, payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    let header = encode_header(kind, payload)?;
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads a fixed-size little-endian field at byte offset `at`, surfacing a
/// short slice as [`FrameError::Truncated`] — decode paths must turn
/// garbage input into typed errors, never panics.
fn le_field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], FrameError> {
    bytes
        .get(at..at.saturating_add(N))
        .and_then(|s| s.try_into().ok())
        .ok_or(FrameError::Truncated { expected: at.saturating_add(N), got: bytes.len() })
}

/// The validated fields of a frame header.
struct Header {
    kind: u16,
    len: u32,
    check: u64,
}

/// Validates magic, version and length of a frame header (the checksum is
/// verified once the payload is at hand).
fn decode_header(bytes: &[u8]) -> Result<Header, FrameError> {
    if bytes.len() < FRAME_HEADER_BYTES {
        return Err(FrameError::Truncated { expected: FRAME_HEADER_BYTES, got: bytes.len() });
    }
    let magic = u32::from_le_bytes(le_field(bytes, 0)?);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(le_field(bytes, 4)?);
    if version != FRAME_VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    let kind = u16::from_le_bytes(le_field(bytes, 6)?);
    let len = u32::from_le_bytes(le_field(bytes, 8)?);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::LengthOverflow { declared: len as u64 });
    }
    let check = u64::from_le_bytes(le_field(bytes, 12)?);
    Ok(Header { kind, len, check })
}

impl Header {
    /// Verifies `payload` against the header's length and checksum.
    fn verify(&self, payload: &[u8]) -> Result<(), FrameError> {
        if payload.len() != self.len as usize {
            return Err(FrameError::Truncated {
                expected: FRAME_HEADER_BYTES + self.len as usize,
                got: FRAME_HEADER_BYTES + payload.len(),
            });
        }
        if frame_checksum(self.kind, self.len, payload) != self.check {
            return Err(FrameError::ChecksumMismatch);
        }
        Ok(())
    }
}

/// Decodes one frame from the front of `bytes`, returning
/// `(kind, payload, consumed)`.
pub fn decode_frame(bytes: &[u8]) -> Result<(u16, Vec<u8>, usize), FrameError> {
    let header = decode_header(bytes)?;
    let total = FRAME_HEADER_BYTES + header.len as usize;
    let payload = bytes
        .get(FRAME_HEADER_BYTES..total)
        .ok_or(FrameError::Truncated { expected: total, got: bytes.len() })?;
    header.verify(payload)?;
    Ok((header.kind, payload.to_vec(), total))
}

/// Reads one frame from a blocking stream. Returns [`FrameError::Closed`]
/// when the peer hangs up exactly at a frame boundary, `Truncated` when it
/// hangs up mid-frame, and `Timeout` when the stream's read timeout fires.
fn read_frame_stream(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut bytes = [0u8; FRAME_HEADER_BYTES];
    read_exact_or(r, &mut bytes, true)?;
    let header = decode_header(&bytes)?;
    let mut payload = vec![0u8; header.len as usize];
    read_exact_or(r, &mut payload, false)?;
    header.verify(&payload)?;
    Ok((header.kind, payload))
}

/// `read_exact` with typed errors: EOF at offset 0 of the header is a clean
/// close; EOF anywhere else is a truncation; `WouldBlock`/`TimedOut` is a
/// timeout.
fn read_exact_or(r: &mut impl Read, buf: &mut [u8], eof_is_close: bool) -> Result<(), FrameError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(buf.get_mut(filled..).unwrap_or(&mut [])) {
            Ok(0) => {
                return if eof_is_close && filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated { expected: buf.len(), got: filled })
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::Timeout);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Word payloads.
// ---------------------------------------------------------------------------

/// Why a word payload did not decode. Protocol decoders built on
/// [`WordReader`] surface these (or their own typed refusals) — never a
/// panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadError {
    /// The payload is not a whole number of words.
    Misaligned {
        /// The payload length in bytes.
        len: usize,
    },
    /// The payload ended before a read it declared.
    Truncated {
        /// Word index of the failed read.
        at: usize,
        /// Words the read needed.
        need: usize,
    },
    /// Words were left over after the decoder read everything it declared.
    Trailing {
        /// How many.
        words: usize,
    },
    /// A string field is not UTF-8.
    BadUtf8,
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Misaligned { len } => {
                write!(f, "payload length {len} is not word-aligned")
            }
            PayloadError::Truncated { at, need } => {
                write!(f, "payload truncated: need {need} words at word {at}")
            }
            PayloadError::Trailing { words } => write!(f, "payload has {words} trailing words"),
            PayloadError::BadUtf8 => write!(f, "bad utf8 in payload string"),
        }
    }
}

impl std::error::Error for PayloadError {}

impl From<PayloadError> for String {
    fn from(e: PayloadError) -> String {
        e.to_string()
    }
}

/// The encode side of the word-array payloads the protocols over this
/// transport speak: little-endian `u64` words appended straight to the byte
/// buffer a frame is sent from, so a payload is encoded exactly once.
pub trait WordWriter {
    /// Appends one word.
    fn put_word(&mut self, w: u64);
    /// Appends a run of words.
    fn put_words(&mut self, ws: &[u64]);
    /// Appends a string as `[byte length, bytes zero-padded to whole words]`.
    fn put_str(&mut self, s: &str);
    /// Opens a length-prefixed block: writes a placeholder word and returns
    /// its position for [`end_block`](Self::end_block).
    fn begin_block(&mut self) -> usize;
    /// Closes the block opened at `at`: its placeholder becomes the number
    /// of words written since, which is what [`WordReader::block`] reads.
    fn end_block(&mut self, at: usize);
}

impl WordWriter for Vec<u8> {
    #[inline]
    fn put_word(&mut self, w: u64) {
        self.extend_from_slice(&w.to_le_bytes());
    }

    #[inline]
    fn put_words(&mut self, ws: &[u64]) {
        let at = self.len();
        self.resize(at + 8 * ws.len(), 0);
        if let Some(tail) = self.get_mut(at..) {
            for (dst, w) in tail.chunks_exact_mut(8).zip(ws) {
                dst.copy_from_slice(&w.to_le_bytes());
            }
        }
    }

    fn put_str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.put_word(bytes.len() as u64);
        self.extend_from_slice(bytes);
        let padded = self.len() + bytes.len().next_multiple_of(8) - bytes.len();
        self.resize(padded, 0);
    }

    fn begin_block(&mut self) -> usize {
        let at = self.len();
        self.put_word(0);
        at
    }

    fn end_block(&mut self, at: usize) {
        let words = (self.len().saturating_sub(at + 8) / 8) as u64;
        if let Some(slot) = self.get_mut(at..at + 8) {
            slot.copy_from_slice(&words.to_le_bytes());
        }
    }
}

/// A word payload holding exactly `words` — the small fixed messages.
pub fn word_payload(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * words.len());
    out.put_words(words);
    out
}

/// The decode side: a bounded sequential reader over a word payload, read
/// in place. Every read is checked, so a truncated, misaligned or hostile
/// payload is a typed [`PayloadError`], never a panic; and
/// [`cap`](Self::cap) clamps any wire-declared count to what the rest of
/// the payload could hold, so `Vec::with_capacity` on garbage is bounded by
/// the payload's own length.
#[derive(Clone, Debug)]
pub struct WordReader<'a> {
    words: &'a [[u8; 8]],
    at: usize,
}

impl<'a> WordReader<'a> {
    /// A reader over `payload`, which must be a whole number of words.
    pub fn new(payload: &'a [u8]) -> Result<Self, PayloadError> {
        match payload.as_chunks::<8>() {
            (words, []) => Ok(WordReader { words, at: 0 }),
            _ => Err(PayloadError::Misaligned { len: payload.len() }),
        }
    }

    /// Reads the next word.
    #[inline]
    pub fn word(&mut self) -> Result<u64, PayloadError> {
        let w = self.words.get(self.at).ok_or(PayloadError::Truncated { at: self.at, need: 1 })?;
        self.at += 1;
        Ok(u64::from_le_bytes(*w))
    }

    /// Takes the next `n` words as raw little-endian words (decode each
    /// with `u64::from_le_bytes`).
    pub fn words(&mut self, n: usize) -> Result<&'a [[u8; 8]], PayloadError> {
        let s = self
            .at
            .checked_add(n)
            .and_then(|end| self.words.get(self.at..end))
            .ok_or(PayloadError::Truncated { at: self.at, need: n })?;
        self.at += n;
        Ok(s)
    }

    /// Takes the next `n` words as a nested word payload.
    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        self.words(n).map(<[[u8; 8]]>::as_flattened)
    }

    /// Reads a length-prefixed block written by
    /// [`WordWriter::begin_block`]/[`end_block`](WordWriter::end_block).
    pub fn block(&mut self) -> Result<&'a [u8], PayloadError> {
        let n = self.word()?;
        self.take(usize::try_from(n).unwrap_or(usize::MAX))
    }

    /// Reads a string written by [`WordWriter::put_str`].
    pub fn str(&mut self) -> Result<String, PayloadError> {
        let len = usize::try_from(self.word()?).unwrap_or(usize::MAX);
        let bytes = self.take(len.div_ceil(8))?;
        let text = bytes.get(..len).ok_or(PayloadError::BadUtf8)?;
        String::from_utf8(text.to_vec()).map_err(|_| PayloadError::BadUtf8)
    }

    /// Clamps a wire-declared count of items, each at least `min_words`
    /// long on the wire, to as many as the words left could hold. A vector
    /// sized by it never regrows while its items decode, and never reserves
    /// more than the payload's own length times the ratio of an item's
    /// decoded size to `8 * min_words` — a garbage count cannot size it.
    pub fn cap(&self, n: usize, min_words: usize) -> usize {
        n.min(self.remaining() / min_words.max(1))
    }

    /// Words not yet read.
    fn remaining(&self) -> usize {
        self.words.len().saturating_sub(self.at)
    }

    /// Refuses trailing words: a payload must be exactly what its decoder
    /// read.
    pub fn finish(&self) -> Result<(), PayloadError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(PayloadError::Trailing { words: extra }),
        }
    }
}

/// Locks a mutex, tolerating poisoning. A panic on some other thread must
/// not cascade into a second panic here: the guarded transport state
/// (queues, stream halves, the listener registry) stays structurally
/// valid across a poisoned lock, and the panicking worker's failure
/// surfaces through its own join/heartbeat path instead.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bidirectional framed channel to one peer. `send` and `recv_timeout`
/// lock independent halves, so a heartbeat thread can transmit while the
/// main loop blocks on receive.
pub trait Connection: Send + Sync {
    /// Sends one frame.
    fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError>;
    /// Receives one frame, blocking at most `timeout` (`None` blocks
    /// indefinitely). A quiet timeout returns [`FrameError::Timeout`].
    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError>;
    /// Arms a timeout for subsequent [`send`](Connection::send) calls: a
    /// send that cannot make progress within `timeout` (a stalled peer whose
    /// socket buffers are full) fails with [`FrameError::Timeout`] instead
    /// of blocking forever. `None` (the default) restores indefinite
    /// blocking; `Some(Duration::ZERO)` is rejected by the OS socket layer.
    /// Transports whose sends cannot block (in-memory queues) ignore this.
    fn set_send_timeout(&self, timeout: Option<Duration>) {
        let _ = timeout;
    }
}

/// Accepts inbound worker connections on an endpoint.
pub trait Listener: Send {
    /// The endpoint string workers pass to [`Transport::connect`]
    /// (e.g. `tcp:127.0.0.1:41234`, `unix:/tmp/…/w.sock`, `mem:3`).
    fn endpoint(&self) -> String;
    /// Accepts one connection, waiting at most `timeout`.
    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError>;
}

/// A connection factory: one of the three substrates above.
pub trait Transport: Send + Sync {
    /// Substrate name (`"mem"`, `"tcp"`, `"unix"`), for reports.
    fn name(&self) -> &'static str;
    /// Opens a listener on a fresh endpoint.
    fn listen(&self) -> Result<Box<dyn Listener>, FrameError>;
    /// Connects to a listener's endpoint.
    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError>;
    /// Whether endpoints are reachable from *other processes* (sockets yes,
    /// in-memory channels no).
    fn supports_processes(&self) -> bool {
        false
    }
}

/// Connects with bounded retry and linear backoff — worker processes race
/// the coordinator's `accept`, and the first attempts may land early.
///
/// The backoff sleeps only *between* attempts: once the final attempt has
/// failed there is nothing left to retry, so the error surfaces immediately
/// instead of after one more (useless) backoff period.
pub fn connect_with_retry(
    transport: &dyn Transport,
    endpoint: &str,
    attempts: u32,
    backoff: Duration,
) -> Result<Box<dyn Connection>, FrameError> {
    let attempts = attempts.max(1);
    let mut last = FrameError::Io("no connect attempts were made".into());
    for attempt in 0..attempts {
        match transport.connect(endpoint) {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        if attempt + 1 < attempts {
            std::thread::sleep(retry_delay(backoff, attempt));
        }
    }
    Err(last)
}

/// Linear-backoff delay after failed attempt `attempt` (0-based):
/// `backoff * (attempt + 1)`, saturating — huge attempt counts or backoffs
/// clamp to `Duration::MAX` instead of panicking in `Duration`'s `Mul<u32>`.
fn retry_delay(backoff: Duration, attempt: u32) -> Duration {
    backoff.saturating_mul(attempt.saturating_add(1))
}

/// Connects to an endpoint by scheme (`tcp:`/`unix:`/`mem:`) — what the
/// `euler-worker` binary uses, since it only receives the endpoint string.
pub fn connect_endpoint(
    endpoint: &str,
    attempts: u32,
    backoff: Duration,
) -> Result<Box<dyn Connection>, FrameError> {
    let transport: Box<dyn Transport> = if endpoint.starts_with("tcp:") {
        Box::new(TcpTransport)
    } else if endpoint.starts_with("unix:") {
        Box::new(UnixTransport::new())
    } else if endpoint.starts_with("mem:") {
        Box::new(MemTransport)
    } else {
        return Err(FrameError::Io(format!("unknown endpoint scheme: {endpoint}")));
    };
    connect_with_retry(transport.as_ref(), endpoint, attempts, backoff)
}

// ---------------------------------------------------------------------------
// In-memory transport.
// ---------------------------------------------------------------------------

/// One direction of an in-memory connection: a frame's encoded header and
/// its payload buffer, validated by the receiver exactly as a socket frame
/// is (so corruption tests cover both), without re-copying the payload.
type MemFrame = ([u8; FRAME_HEADER_BYTES], Vec<u8>);
/// A connect request: the dialing side's two channel halves.
type MemDial = (mpsc::Sender<MemFrame>, mpsc::Receiver<MemFrame>);

struct MemRegistry {
    /// endpoint token → queue of connect requests.
    pending: Mutex<HashMap<u64, mpsc::Sender<MemDial>>>,
    next_token: AtomicU64,
}

fn mem_registry() -> &'static MemRegistry {
    static REG: OnceLock<MemRegistry> = OnceLock::new();
    REG.get_or_init(|| MemRegistry {
        pending: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(1),
    })
}

/// The in-memory channel transport: worker threads in this process,
/// `mpsc` queues underneath, frames through the same codec as the sockets.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemTransport;

struct MemListener {
    token: u64,
    accept_rx: Mutex<mpsc::Receiver<MemDial>>,
}

impl Drop for MemListener {
    fn drop(&mut self) {
        lock_unpoisoned(&mem_registry().pending).remove(&self.token);
    }
}

struct MemConnection {
    tx: Mutex<Option<mpsc::Sender<MemFrame>>>,
    rx: Mutex<mpsc::Receiver<MemFrame>>,
}

impl Connection for MemConnection {
    fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
        let frame = (encode_header(kind, payload)?, payload.to_vec());
        let guard = lock_unpoisoned(&self.tx);
        match guard.as_ref() {
            Some(tx) => tx.send(frame).map_err(|_| FrameError::Closed),
            None => Err(FrameError::Closed),
        }
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        let rx = lock_unpoisoned(&self.rx);
        let frame = match timeout {
            None => rx.recv().map_err(|_| FrameError::Closed)?,
            Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => FrameError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => FrameError::Closed,
            })?,
        };
        let (header, payload) = frame;
        let header = decode_header(&header)?;
        header.verify(&payload)?;
        Ok((header.kind, payload))
    }
}

impl Listener for MemListener {
    fn endpoint(&self) -> String {
        format!("mem:{}", self.token)
    }

    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        let rx = lock_unpoisoned(&self.accept_rx);
        let (peer_tx, my_rx) = rx.recv_timeout(timeout).map_err(|e| match e {
            mpsc::RecvTimeoutError::Timeout => FrameError::Timeout,
            mpsc::RecvTimeoutError::Disconnected => FrameError::Closed,
        })?;
        Ok(Box::new(MemConnection { tx: Mutex::new(Some(peer_tx)), rx: Mutex::new(my_rx) }))
    }
}

impl Transport for MemTransport {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let reg = mem_registry();
        let token = reg.next_token.fetch_add(1, Ordering::Relaxed);
        let (accept_tx, accept_rx) = mpsc::channel();
        lock_unpoisoned(&reg.pending).insert(token, accept_tx);
        Ok(Box::new(MemListener { token, accept_rx: Mutex::new(accept_rx) }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let token: u64 = endpoint
            .strip_prefix("mem:")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| FrameError::Io(format!("bad mem endpoint: {endpoint}")))?;
        let accept_tx = {
            let reg = lock_unpoisoned(&mem_registry().pending);
            reg.get(&token).cloned().ok_or(FrameError::Closed)?
        };
        // Two directed queues; the listener side gets (its tx = our rx's tx).
        let (to_listener_tx, to_listener_rx) = mpsc::channel();
        let (to_dialer_tx, to_dialer_rx) = mpsc::channel();
        accept_tx.send((to_dialer_tx, to_listener_rx)).map_err(|_| FrameError::Closed)?;
        Ok(Box::new(MemConnection {
            tx: Mutex::new(Some(to_listener_tx)),
            rx: Mutex::new(to_dialer_rx),
        }))
    }
}

// ---------------------------------------------------------------------------
// Socket transports (TCP loopback + Unix domain).
// ---------------------------------------------------------------------------

/// A connection over any paired `Read`/`Write` stream halves with settable
/// read and write timeouts. Both timeouts are armed through the same
/// OS-socket seam (`set_read_timeout`/`set_write_timeout` closures captured
/// at construction), and both surface expiry as [`FrameError::Timeout`].
struct StreamConnection<R: Read + Send, W: Write + Send> {
    reader: Mutex<R>,
    writer: Mutex<W>,
    set_timeout: Box<dyn Fn(Option<Duration>) -> std::io::Result<()> + Send + Sync>,
    set_write_timeout: Box<dyn Fn(Option<Duration>) -> std::io::Result<()> + Send + Sync>,
    /// The send timeout requested via [`Connection::set_send_timeout`],
    /// armed on the socket at the next `send`.
    send_timeout: Mutex<Option<Duration>>,
}

impl<R: Read + Send, W: Write + Send> Connection for StreamConnection<R, W> {
    fn send(&self, kind: u16, payload: &[u8]) -> Result<(), FrameError> {
        let frame = encode_frame(kind, payload)?;
        let timeout = *lock_unpoisoned(&self.send_timeout);
        let mut w = lock_unpoisoned(&self.writer);
        (self.set_write_timeout)(timeout)?;
        write_all_or(&mut *w, &frame)?;
        match w.flush() {
            Ok(()) => Ok(()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(FrameError::Timeout)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn recv_timeout(&self, timeout: Option<Duration>) -> Result<(u16, Vec<u8>), FrameError> {
        let mut r = lock_unpoisoned(&self.reader);
        (self.set_timeout)(timeout)?;
        read_frame_stream(&mut *r)
    }

    fn set_send_timeout(&self, timeout: Option<Duration>) {
        *lock_unpoisoned(&self.send_timeout) = timeout;
    }
}

/// `write_all` with typed errors: `WouldBlock`/`TimedOut` from an armed send
/// timeout surfaces as [`FrameError::Timeout`] (a stalled peer can no longer
/// block a coordinator send past every `FaultPolicy` deadline); a peer that
/// vanished mid-write surfaces as `Closed`/`Io`.
fn write_all_or(w: &mut impl Write, buf: &[u8]) -> Result<(), FrameError> {
    let mut written = 0usize;
    while written < buf.len() {
        match w.write(buf.get(written..).unwrap_or(&[])) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => written += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(FrameError::Timeout);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

fn tcp_connection(stream: TcpStream) -> Result<Box<dyn Connection>, FrameError> {
    stream.set_nodelay(true).ok();
    let reader = stream.try_clone()?;
    let read_handle = stream.try_clone()?;
    let write_handle = stream.try_clone()?;
    Ok(Box::new(StreamConnection {
        reader: Mutex::new(reader),
        writer: Mutex::new(stream),
        set_timeout: Box::new(move |t| read_handle.set_read_timeout(t)),
        set_write_timeout: Box::new(move |t| write_handle.set_write_timeout(t)),
        send_timeout: Mutex::new(None),
    }))
}

/// Loopback TCP transport (`127.0.0.1`, ephemeral ports).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTransport;

struct TcpListenerWrap {
    listener: TcpListener,
}

impl Listener for TcpListenerWrap {
    fn endpoint(&self) -> String {
        match self.listener.local_addr() {
            Ok(a) => format!("tcp:{a}"),
            Err(_) => "tcp:?".to_string(),
        }
    }

    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        // `std::net` has no accept timeout; poll in non-blocking mode.
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.listener.set_nonblocking(false)?;
                    stream.set_nonblocking(false)?;
                    return tcp_connection(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        self.listener.set_nonblocking(false)?;
                        return Err(FrameError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    self.listener.set_nonblocking(false)?;
                    return Err(e.into());
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(Box::new(TcpListenerWrap { listener }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let addr = endpoint
            .strip_prefix("tcp:")
            .ok_or_else(|| FrameError::Io(format!("bad tcp endpoint: {endpoint}")))?;
        let stream = TcpStream::connect(addr)?;
        tcp_connection(stream)
    }

    fn supports_processes(&self) -> bool {
        true
    }
}

/// Unix-domain-socket transport; socket files live in a fresh private temp
/// directory, removed when the listener drops.
#[derive(Clone, Debug, Default)]
pub struct UnixTransport;

impl UnixTransport {
    /// Creates the transport (no state; sockets are per-listener).
    pub fn new() -> Self {
        UnixTransport
    }
}

struct UnixListenerWrap {
    listener: UnixListener,
    dir: std::path::PathBuf,
    path: std::path::PathBuf,
}

impl Drop for UnixListenerWrap {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
        std::fs::remove_dir(&self.dir).ok();
    }
}

fn unix_connection(stream: UnixStream) -> Result<Box<dyn Connection>, FrameError> {
    let reader = stream.try_clone()?;
    let read_handle = stream.try_clone()?;
    let write_handle = stream.try_clone()?;
    Ok(Box::new(StreamConnection {
        reader: Mutex::new(reader),
        writer: Mutex::new(stream),
        set_timeout: Box::new(move |t| read_handle.set_read_timeout(t)),
        set_write_timeout: Box::new(move |t| write_handle.set_write_timeout(t)),
        send_timeout: Mutex::new(None),
    }))
}

impl Listener for UnixListenerWrap {
    fn endpoint(&self) -> String {
        format!("unix:{}", self.path.display())
    }

    fn accept(&self, timeout: Duration) -> Result<Box<dyn Connection>, FrameError> {
        self.listener.set_nonblocking(true)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.listener.set_nonblocking(false)?;
                    stream.set_nonblocking(false)?;
                    return unix_connection(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        self.listener.set_nonblocking(false)?;
                        return Err(FrameError::Timeout);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    self.listener.set_nonblocking(false)?;
                    return Err(e.into());
                }
            }
        }
    }
}

static UNIX_SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

impl Transport for UnixTransport {
    fn name(&self) -> &'static str {
        "unix"
    }

    fn listen(&self) -> Result<Box<dyn Listener>, FrameError> {
        let dir = std::env::temp_dir().join(format!(
            "euler-uds-{}-{}",
            std::process::id(),
            UNIX_SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("coordinator.sock");
        let listener = UnixListener::bind(&path)?;
        Ok(Box::new(UnixListenerWrap { listener, dir, path }))
    }

    fn connect(&self, endpoint: &str) -> Result<Box<dyn Connection>, FrameError> {
        let path = endpoint
            .strip_prefix("unix:")
            .ok_or_else(|| FrameError::Io(format!("bad unix endpoint: {endpoint}")))?;
        let stream = UnixStream::connect(path)?;
        unix_connection(stream)
    }

    fn supports_processes(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello frames".to_vec();
        let frame = encode_frame(7, &payload).unwrap();
        let (kind, got, consumed) = decode_frame(&frame).unwrap();
        assert_eq!(kind, 7);
        assert_eq!(got, payload);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn empty_payload_roundtrip() {
        let frame = encode_frame(0, &[]).unwrap();
        let (kind, got, consumed) = decode_frame(&frame).unwrap();
        assert_eq!((kind, got.len(), consumed), (0, 0, FRAME_HEADER_BYTES));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[0] ^= 0xFF;
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadMagic { .. })));
    }

    #[test]
    fn foreign_version_is_typed() {
        let mut frame = encode_frame(1, b"x").unwrap();
        frame[4] = 0xEE;
        frame[5] = 0xEE;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::UnsupportedVersion { found: 0xEEEE })
        ));
    }

    #[test]
    fn truncated_header_and_payload_are_typed() {
        let frame = encode_frame(1, b"abcdef").unwrap();
        assert!(matches!(decode_frame(&frame[..10]), Err(FrameError::Truncated { .. })));
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 2]),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_frame(1, b"x").unwrap();
        // Forge a ludicrous length; decode must refuse without trying to
        // allocate or read that much.
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::LengthOverflow { declared }) if declared == u32::MAX as u64
        ));
        assert!(matches!(
            encode_frame(1, &vec![0u8; MAX_FRAME_BYTES as usize + 1]),
            Err(FrameError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let mut frame = encode_frame(1, b"payload bytes").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(decode_frame(&frame), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn paired_bit63_flips_in_one_lane_are_detected() {
        // Words 0 and 4 both feed lane 0. Without the rotation a bit-63
        // flip survives `(lane ^ w) * FNV_PRIME` as exactly a bit-63 flip,
        // and the second flip cancels it: a plain xor-multiply fold misses
        // this corruption.
        let payload: Vec<u8> = (0u8..64).collect();
        let mut frame = encode_frame(3, &payload).unwrap();
        for word in [0, 4] {
            frame[FRAME_HEADER_BYTES + 8 * word + 7] ^= 0x80;
        }
        assert_eq!(decode_frame(&frame), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn corrupted_kind_or_len_is_detected() {
        let payload = b"twenty-four payload byte".to_vec();
        let check = frame_checksum(5, payload.len() as u32, &payload);
        for bit in 0..16 {
            assert_ne!(frame_checksum(5 ^ (1 << bit), payload.len() as u32, &payload), check);
        }
        for bit in 0..32 {
            assert_ne!(frame_checksum(5, payload.len() as u32 ^ (1 << bit), &payload), check);
        }
        // In a frame: a flipped kind bit is a mismatch; a shorter declared
        // length reads a prefix that no longer matches either.
        let frame = encode_frame(5, &payload).unwrap();
        let mut bad_kind = frame.clone();
        bad_kind[6] ^= 0x01;
        assert_eq!(decode_frame(&bad_kind), Err(FrameError::ChecksumMismatch));
        let mut short = frame.clone();
        short[8..12].copy_from_slice(&(payload.len() as u32 - 1).to_le_bytes());
        assert_eq!(decode_frame(&short), Err(FrameError::ChecksumMismatch));
    }

    #[test]
    fn every_payload_length_up_to_40_roundtrips_and_catches_every_byte_flip() {
        // 0–40 bytes cover whole-quad, 1–3 leftover words and every tail
        // length 0–7.
        for len in 0..=40usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let frame = encode_frame(9, &payload).unwrap();
            let (kind, got, consumed) = decode_frame(&frame).unwrap();
            assert_eq!((kind, got.as_slice(), consumed), (9, payload.as_slice(), frame.len()));
            for pos in FRAME_HEADER_BYTES..frame.len() {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = frame.clone();
                    bad[pos] ^= flip;
                    assert_eq!(
                        decode_frame(&bad),
                        Err(FrameError::ChecksumMismatch),
                        "len {len}: flip {flip:#x} at payload byte {} undetected",
                        pos - FRAME_HEADER_BYTES
                    );
                }
            }
        }
    }

    #[test]
    fn word_payloads_roundtrip_through_writer_and_reader() {
        let mut out = Vec::new();
        out.put_words(&[1, u64::MAX]);
        out.put_str("héllo, frames");
        let at = out.begin_block();
        out.put_words(&[7, 8, 9]);
        out.end_block(at);
        out.put_word(42);
        let mut r = WordReader::new(&out).unwrap();
        assert_eq!((r.word(), r.word()), (Ok(1), Ok(u64::MAX)));
        assert_eq!(r.str().as_deref(), Ok("héllo, frames"));
        assert_eq!(r.block(), Ok(word_payload(&[7, 8, 9]).as_slice()));
        assert_eq!(r.word(), Ok(42));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.word(), Err(PayloadError::Truncated { at: 10, need: 1 }));
    }

    #[test]
    fn word_reader_refuses_garbage_with_typed_errors() {
        assert_eq!(WordReader::new(&[0; 9]).err(), Some(PayloadError::Misaligned { len: 9 }));
        let payload = word_payload(&[u64::MAX, 3]);
        let mut r = WordReader::new(&payload).unwrap();
        assert!(matches!(r.block(), Err(PayloadError::Truncated { .. })));
        let mut r = WordReader::new(&payload).unwrap();
        assert!(matches!(r.words(usize::MAX), Err(PayloadError::Truncated { .. })));
        assert_eq!(r.finish(), Err(PayloadError::Trailing { words: 2 }));
        // A hostile count never sizes a reservation past the payload.
        assert_eq!(r.cap(usize::MAX, 1), 2);
        assert_eq!(r.cap(usize::MAX, 4), 0);
        assert_eq!(r.cap(1, 0), 1);
        let bad_utf8 = word_payload(&[2, 0xFFFF]);
        assert_eq!(WordReader::new(&bad_utf8).unwrap().str(), Err(PayloadError::BadUtf8));
    }

    fn exercise_transport(t: &dyn Transport) {
        let listener = t.listen().unwrap();
        let endpoint = listener.endpoint();
        let t2 = endpoint.clone();
        let dialer = std::thread::spawn(move || {
            let conn = connect_endpoint(&t2, 10, Duration::from_millis(5)).unwrap();
            conn.send(3, b"ping").unwrap();
            let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
            assert_eq!((kind, payload.as_slice()), (4, b"pong".as_slice()));
        });
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let (kind, payload) = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!((kind, payload.as_slice()), (3, b"ping".as_slice()));
        conn.send(4, b"pong").unwrap();
        dialer.join().unwrap();
    }

    #[test]
    fn mem_transport_ping_pong() {
        exercise_transport(&MemTransport);
    }

    #[test]
    fn tcp_transport_ping_pong() {
        exercise_transport(&TcpTransport);
    }

    #[test]
    fn unix_transport_ping_pong() {
        exercise_transport(&UnixTransport::new());
    }

    #[test]
    fn recv_timeout_fires() {
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let _dialer = TcpTransport.connect(&endpoint).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let t0 = Instant::now();
        assert_eq!(
            conn.recv_timeout(Some(Duration::from_millis(30))).unwrap_err(),
            FrameError::Timeout
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn closed_peer_is_typed() {
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let dialer = TcpTransport.connect(&endpoint).unwrap();
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        drop(dialer);
        assert_eq!(
            conn.recv_timeout(Some(Duration::from_secs(1))).unwrap_err(),
            FrameError::Closed
        );
    }

    #[test]
    fn garbage_stream_never_panics() {
        // A peer that writes raw garbage (not frames) must produce a typed
        // error on the reading side.
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint().strip_prefix("tcp:").unwrap().to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(endpoint).unwrap();
            s.write_all(b"this is definitely not a frame header at all....").unwrap();
        });
        let conn = listener.accept(Duration::from_secs(5)).unwrap();
        let err = conn.recv_timeout(Some(Duration::from_secs(5))).unwrap_err();
        assert!(
            matches!(err, FrameError::BadMagic { .. } | FrameError::Truncated { .. }),
            "unexpected error: {err:?}"
        );
        writer.join().unwrap();
    }

    #[test]
    fn connect_with_retry_eventually_fails_typed() {
        match connect_endpoint("tcp:127.0.0.1:1", 2, Duration::from_millis(1)) {
            Err(FrameError::Io(_)) => {}
            Err(e) => panic!("expected Io error, got {e:?}"),
            Ok(_) => panic!("connect to a closed port unexpectedly succeeded"),
        }
    }

    #[test]
    fn retry_skips_backoff_after_final_attempt() {
        // Two attempts => exactly one inter-attempt sleep (150ms). The old
        // behaviour slept again after the final failure (150 + 300 = 450ms);
        // the fix returns right after the second refusal.
        let t0 = Instant::now();
        let r = connect_with_retry(&TcpTransport, "tcp:127.0.0.1:1", 2, Duration::from_millis(150));
        assert!(r.is_err());
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(140), "one backoff expected, got {elapsed:?}");
        assert!(elapsed < Duration::from_millis(400), "trailing backoff not skipped: {elapsed:?}");

        // A single attempt must never sleep at all, whatever the backoff.
        let t0 = Instant::now();
        let r = connect_with_retry(&TcpTransport, "tcp:127.0.0.1:1", 1, Duration::from_secs(3600));
        assert!(r.is_err());
        assert!(t0.elapsed() < Duration::from_secs(2), "attempts=1 slept on its huge backoff");
    }

    #[test]
    fn retry_delay_saturates_instead_of_panicking() {
        assert_eq!(retry_delay(Duration::from_secs(1), 3), Duration::from_secs(4));
        // `Duration::MAX * 2` panics through `Mul<u32>`; the helper clamps.
        assert_eq!(retry_delay(Duration::MAX, 1), Duration::MAX);
        assert_eq!(retry_delay(Duration::MAX, u32::MAX), Duration::MAX);
        assert_eq!(retry_delay(Duration::from_secs(u64::MAX / 2), u32::MAX), Duration::MAX);
    }

    #[test]
    fn send_timeout_on_unread_socket_is_typed() {
        // The accepting side never reads, so loopback socket buffers fill up
        // and `send` stalls. With a send timeout armed the stall surfaces as
        // FrameError::Timeout instead of blocking forever.
        let listener = TcpTransport.listen().unwrap();
        let endpoint = listener.endpoint();
        let conn = TcpTransport.connect(&endpoint).unwrap();
        let _peer = listener.accept(Duration::from_secs(5)).unwrap();
        conn.set_send_timeout(Some(Duration::from_millis(200)));
        let payload = vec![0xA5u8; 1 << 20];
        let mut saw_timeout = false;
        for _ in 0..64 {
            match conn.send(9, &payload) {
                Ok(()) => continue,
                Err(FrameError::Timeout) => {
                    saw_timeout = true;
                    break;
                }
                Err(e) => panic!("expected Timeout, got {e:?}"),
            }
        }
        assert!(saw_timeout, "64 MiB into an unread socket without a send timeout firing");
        // Disarming restores the (non-blocking here) small-send path.
        conn.set_send_timeout(None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any (kind, payload) round-trips through the frame codec.
            #[test]
            fn random_frames_roundtrip(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256u64, 0..512),
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let frame = encode_frame(kind, &payload).unwrap();
                let (k, p, consumed) = decode_frame(&frame).unwrap();
                prop_assert_eq!(k, kind);
                prop_assert_eq!(p, payload);
                prop_assert_eq!(consumed, frame.len());
            }

            /// Flipping any byte of an encoded frame yields a typed error —
            /// never a panic and never a silently different frame. (The
            /// checksum covers kind, length and payload; magic and version
            /// have their own typed rejections.)
            #[test]
            fn any_single_byte_corruption_is_detected(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256, 0..256),
                pos_seed in 0u64..10_000,
                flip in 1u64..256,
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let mut frame = encode_frame(kind, &payload).unwrap();
                let pos = (pos_seed as usize) % frame.len();
                frame[pos] ^= flip as u8;
                prop_assert!(decode_frame(&frame).is_err(), "corruption at byte {} went undetected", pos);
            }

            /// Any prefix truncation of a valid frame is a typed error.
            #[test]
            fn any_truncation_is_detected(
                kind in 0u16..u16::MAX,
                payload in prop::collection::vec(0u64..256, 1..256),
                cut_seed in 0u64..10_000,
            ) {
                let payload: Vec<u8> = payload.iter().map(|&b| b as u8).collect();
                let frame = encode_frame(kind, &payload).unwrap();
                let cut = (cut_seed as usize) % frame.len();
                prop_assert!(matches!(decode_frame(&frame[..cut]), Err(FrameError::Truncated { .. })));
            }
        }
    }
}
