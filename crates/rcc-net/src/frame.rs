//! Length-prefixed framed protocol between clients, the cache front-end,
//! and the back-end transport.
//!
//! Every message travels as one frame:
//!
//! ```text
//! ┌───────────────┬────────────────────────────────────────────┐
//! │ u32 LE length │ payload (length bytes)                     │
//! └───────────────┴────────────────────────────────────────────┘
//! payload:
//! ┌────────┬───────────────────────────────────────────────────┐
//! │ u8 tag │ body (tag-specific)                               │
//! └────────┴───────────────────────────────────────────────────┘
//! ```
//!
//! Request bodies (client → server):
//!
//! | tag  | frame       | body                                          |
//! |------|-------------|-----------------------------------------------|
//! | 0x01 | Query       | string `sql`                                  |
//! | 0x02 | SetOption   | string `name`, string `value`                 |
//! | 0x03 | Ping        | (empty)                                       |
//! | 0x04 | QueryTraced | string `sql`, u64 `trace_id`, u32             |
//! |      |             | `parent_depth`                                |
//!
//! Response bodies (server → client):
//!
//! | tag  | frame           | body                                      |
//! |------|-----------------|-------------------------------------------|
//! | 0x81 | ResultSet       | u8 flags (bit0 `used_remote`), u16        |
//! |      |                 | warning count, warnings as strings, then  |
//! |      |                 | the result encoded with                   |
//! |      |                 | [`rcc_executor::wire`]                    |
//! | 0x82 | Error           | u8 error code, string message             |
//! | 0x83 | Ok              | (empty)                                   |
//! | 0x84 | Pong            | (empty)                                   |
//! | 0x85 | ResultSetTraced | as ResultSet, with a u32 span count plus  |
//! |      |                 | spans (string name, u32 depth, u64        |
//! |      |                 | start_us, u64 elapsed_us) between the     |
//! |      |                 | warnings and the result payload           |
//!
//! Trace context rides on dedicated tags (0x04/0x85) rather than extra
//! bytes on the existing ones because decoding enforces exact body
//! lengths: appending fields to 0x01/0x81 would break every deployed peer.
//! Old clients never see the new tags (servers answer 0x85 only to 0x04),
//! and old servers reject 0x04 with a clean error — compatibility in both
//! directions is pinned by `legacy_byte_layout_is_frozen` below.
//!
//! Strings are `u32 LE length + UTF-8 bytes`. Decoding validates every
//! length against the bytes actually present — truncated or garbage
//! payloads produce [`rcc_common::Error::Remote`], never a panic (the
//! property tests in `tests/proptest_frame.rs` hold the codec to that).

use bytes::{Buf, BufMut, Bytes};
use rcc_common::{Error, Result};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Upper bound on a frame payload (64 MiB): anything larger is a protocol
/// violation, rejected before any allocation happens.
pub const MAX_FRAME_LEN: usize = 64 << 20;

const TAG_QUERY: u8 = 0x01;
const TAG_SET_OPTION: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_QUERY_TRACED: u8 = 0x04;

const TAG_RESULT: u8 = 0x81;
const TAG_ERROR: u8 = 0x82;
const TAG_OK: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_RESULT_TRACED: u8 = 0x85;

/// Trace context carried by [`Request::QueryTraced`]: enough for the
/// back-end to label its span tree so the front-end can graft it into the
/// originating query's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The originating query's trace id (front-end tracer scope).
    pub trace_id: u64,
    /// Span nesting depth at the call site; remote spans are re-based
    /// under it when merged.
    pub parent_depth: u32,
}

/// One span recorded by the remote peer, in wire form. Offsets are
/// microseconds relative to the remote request's own start — the merging
/// side shifts them onto the originating trace's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name (remote spans use a `backend:` prefix).
    pub name: String,
    /// Nesting depth within the remote span tree (0 = remote root).
    pub depth: u32,
    /// Microseconds from remote request start to span open.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub elapsed_us: u64,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Execute one SQL statement in the connection's session.
    Query {
        /// Statement text (may carry CURRENCY clauses, BEGIN TIMEORDERED…).
        sql: String,
    },
    /// Set a session option (e.g. `violation_policy` = `serve_stale`).
    SetOption {
        /// Option name, matched case-insensitively.
        name: String,
        /// Option value.
        value: String,
    },
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Like [`Request::Query`], carrying the caller's trace context; the
    /// server records spans while executing and answers with
    /// [`Response::ResultSetTraced`].
    QueryTraced {
        /// Statement text.
        sql: String,
        /// The originating query's trace identity.
        trace: TraceContext,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful query result.
    ResultSet {
        /// Did the cache contact the back-end to answer this query?
        used_remote: bool,
        /// Human-readable warnings (stale data served, etc.).
        warnings: Vec<String>,
        /// The rows, encoded with [`rcc_executor::wire::encode_result`].
        payload: Bytes,
    },
    /// The request failed; carries the reconstructed error.
    Error(Error),
    /// A request with no result (SetOption) succeeded.
    Ok,
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::QueryTraced`]: a result set plus the span tree
    /// the server recorded while producing it.
    ResultSetTraced {
        /// Did the cache contact the back-end to answer this query?
        used_remote: bool,
        /// Human-readable warnings (stale data served, etc.).
        warnings: Vec<String>,
        /// Spans recorded server-side, in completion order.
        spans: Vec<WireSpan>,
        /// The rows, encoded with [`rcc_executor::wire::encode_result`].
        payload: Bytes,
    },
}

impl Request {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(32);
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Append the frame payload to `buf` (a connection's frame buffer).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query { sql } => Request::encode_query_into(buf, sql, None),
            Request::SetOption { name, value } => {
                buf.put_u8(TAG_SET_OPTION);
                put_str(buf, name);
                put_str(buf, value);
            }
            Request::Ping => buf.put_u8(TAG_PING),
            Request::QueryTraced { sql, trace } => {
                Request::encode_query_into(buf, sql, Some(*trace))
            }
        }
    }

    /// Append the payload of a [`Request::Query`] — or, given `trace`, of a
    /// [`Request::QueryTraced`] — for a statement the caller holds as
    /// `&str`, without building the owning `Request` first.
    pub fn encode_query_into(buf: &mut Vec<u8>, sql: &str, trace: Option<TraceContext>) {
        match trace {
            None => {
                buf.put_u8(TAG_QUERY);
                put_str(buf, sql);
            }
            Some(trace) => {
                buf.put_u8(TAG_QUERY_TRACED);
                put_str(buf, sql);
                buf.put_u64_le(trace.trace_id);
                buf.put_u32_le(trace.parent_depth);
            }
        }
    }

    /// Parse a frame payload. Rejects unknown tags, bad lengths, invalid
    /// UTF-8 and trailing bytes with a clean error.
    pub fn decode(mut buf: Bytes) -> Result<Request> {
        need(&buf, 1)?;
        let tag = buf.get_u8();
        let req = match tag {
            TAG_QUERY => Request::Query {
                sql: get_str(&mut buf)?,
            },
            TAG_SET_OPTION => Request::SetOption {
                name: get_str(&mut buf)?,
                value: get_str(&mut buf)?,
            },
            TAG_PING => Request::Ping,
            TAG_QUERY_TRACED => {
                let sql = get_str(&mut buf)?;
                need(&buf, 12)?;
                Request::QueryTraced {
                    sql,
                    trace: TraceContext {
                        trace_id: buf.get_u64_le(),
                        parent_depth: buf.get_u32_le(),
                    },
                }
            }
            other => return Err(Error::Remote(format!("bad request frame tag {other:#x}"))),
        };
        no_trailing(&buf)?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(64);
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Append the frame payload to `buf` (a connection's frame buffer).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Response::ResultSet {
                used_remote,
                warnings,
                payload,
            } => {
                put_result_head(buf, *used_remote, warnings, None);
                buf.put_slice(payload);
            }
            Response::Error(e) => {
                buf.put_u8(TAG_ERROR);
                buf.put_u8(error_code(e));
                put_str(buf, &e.to_string());
            }
            Response::Ok => buf.put_u8(TAG_OK),
            Response::Pong => buf.put_u8(TAG_PONG),
            Response::ResultSetTraced {
                used_remote,
                warnings,
                spans,
                payload,
            } => {
                put_result_head(buf, *used_remote, warnings, Some(spans));
                buf.put_slice(payload);
            }
        }
    }

    /// Parse a frame payload.
    pub fn decode(mut buf: Bytes) -> Result<Response> {
        need(&buf, 1)?;
        let tag = buf.get_u8();
        match tag {
            TAG_RESULT => {
                need(&buf, 3)?;
                let flags = buf.get_u8();
                let nwarn = buf.get_u16_le() as usize;
                let mut warnings = Vec::with_capacity(nwarn.min(64));
                for _ in 0..nwarn {
                    warnings.push(get_str(&mut buf)?);
                }
                // the rest of the payload is the wire-encoded result set;
                // its internal framing is validated by wire::decode_result
                Ok(Response::ResultSet {
                    used_remote: flags & 1 != 0,
                    warnings,
                    payload: buf,
                })
            }
            TAG_ERROR => {
                need(&buf, 1)?;
                let code = buf.get_u8();
                let message = get_str(&mut buf)?;
                no_trailing(&buf)?;
                Ok(Response::Error(error_from_code(code, message)))
            }
            TAG_OK => {
                no_trailing(&buf)?;
                Ok(Response::Ok)
            }
            TAG_PONG => {
                no_trailing(&buf)?;
                Ok(Response::Pong)
            }
            TAG_RESULT_TRACED => {
                need(&buf, 3)?;
                let flags = buf.get_u8();
                let nwarn = buf.get_u16_le() as usize;
                let mut warnings = Vec::with_capacity(nwarn.min(64));
                for _ in 0..nwarn {
                    warnings.push(get_str(&mut buf)?);
                }
                need(&buf, 4)?;
                let nspans = buf.get_u32_le() as usize;
                let mut spans = Vec::with_capacity(nspans.min(256));
                for _ in 0..nspans {
                    let name = get_str(&mut buf)?;
                    need(&buf, 20)?;
                    spans.push(WireSpan {
                        name,
                        depth: buf.get_u32_le(),
                        start_us: buf.get_u64_le(),
                        elapsed_us: buf.get_u64_le(),
                    });
                }
                Ok(Response::ResultSetTraced {
                    used_remote: flags & 1 != 0,
                    warnings,
                    spans,
                    payload: buf,
                })
            }
            other => Err(Error::Remote(format!("bad response frame tag {other:#x}"))),
        }
    }
}

// -------------------------------------------------------- error code map

const CODE_PARSE: u8 = 1;
const CODE_ANALYSIS: u8 = 2;
const CODE_NOT_FOUND: u8 = 3;
const CODE_CURRENCY: u8 = 4;
const CODE_REMOTE: u8 = 5;
const CODE_UNAVAILABLE: u8 = 6;
const CODE_EXECUTION: u8 = 7;
const CODE_CONFIG: u8 = 8;
const CODE_NO_PLAN: u8 = 9;
const CODE_OTHER: u8 = 0;

/// Map an error to its wire code. Lossy: the class survives the trip, the
/// exact variant does not (a client mostly needs to distinguish "your SQL
/// is wrong" from "your bound cannot be met" from "the server is sick").
fn error_code(e: &Error) -> u8 {
    match e {
        Error::Lex { .. } | Error::Parse { .. } => CODE_PARSE,
        Error::Analysis(_) | Error::Type(_) => CODE_ANALYSIS,
        Error::NotFound(_) | Error::AlreadyExists(_) => CODE_NOT_FOUND,
        Error::CurrencyViolation(_) => CODE_CURRENCY,
        Error::Remote(_) => CODE_REMOTE,
        Error::Unavailable(_) => CODE_UNAVAILABLE,
        Error::Execution(_) | Error::Storage(_) => CODE_EXECUTION,
        Error::Config(_) => CODE_CONFIG,
        Error::NoPlan(_) => CODE_NO_PLAN,
        Error::Internal(_) => CODE_OTHER,
    }
}

/// Reconstruct an error from its wire code; the message is the server-side
/// `Display` rendering.
fn error_from_code(code: u8, message: String) -> Error {
    match code {
        CODE_PARSE => Error::Parse {
            pos: 0,
            line: 0,
            col: 0,
            message,
        },
        CODE_ANALYSIS => Error::Analysis(message),
        CODE_NOT_FOUND => Error::NotFound(message),
        CODE_CURRENCY => Error::CurrencyViolation(message),
        CODE_REMOTE => Error::Remote(message),
        CODE_UNAVAILABLE => Error::Unavailable(message),
        CODE_EXECUTION => Error::Execution(message),
        CODE_CONFIG => Error::Config(message),
        CODE_NO_PLAN => Error::NoPlan(message),
        _ => Error::Internal(message),
    }
}

// ----------------------------------------------------------- primitives

fn need(buf: &Bytes, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(Error::Remote("truncated protocol frame".into()))
    } else {
        Ok(())
    }
}

fn no_trailing(buf: &Bytes) -> Result<()> {
    if buf.has_remaining() {
        Err(Error::Remote("trailing bytes in protocol frame".into()))
    } else {
        Ok(())
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Append everything of a [`Response::ResultSet`] body — or, given
/// `spans`, of a [`Response::ResultSetTraced`] body — that precedes the
/// rows. The caller appends the rows ([`rcc_executor::wire`] encoding)
/// behind it: the front-end encodes them straight into the connection's
/// frame buffer rather than building a payload first and copying it in.
pub fn put_result_head(
    buf: &mut Vec<u8>,
    used_remote: bool,
    warnings: &[String],
    spans: Option<&[WireSpan]>,
) {
    buf.put_u8(if spans.is_some() {
        TAG_RESULT_TRACED
    } else {
        TAG_RESULT
    });
    buf.put_u8(used_remote as u8);
    buf.put_u16_le(warnings.len() as u16);
    for w in warnings {
        put_str(buf, w);
    }
    if let Some(spans) = spans {
        buf.put_u32_le(spans.len() as u32);
        for s in spans {
            put_str(buf, &s.name);
            buf.put_u32_le(s.depth);
            buf.put_u64_le(s.start_us);
            buf.put_u64_le(s.elapsed_us);
        }
    }
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len)?;
    String::from_utf8(buf.copy_to_bytes(len).to_vec())
        .map_err(|_| Error::Remote("bad string encoding in protocol frame".into()))
}

// ------------------------------------------------------------- frame I/O

/// Bytes of the frame header (the `u32` LE payload length).
const HEADER_LEN: usize = 4;

/// Size of a connection's read buffer. A frame that fits, header included,
/// arrives with one `read`: requests and point-query responses are a few
/// hundred bytes. Whatever a larger frame has left beyond the buffer is
/// read straight into the payload's own allocation, never copied twice.
const READ_BUF_LEN: usize = 16 << 10;

/// A connection keeps its write buffer between frames up to this capacity;
/// a larger response gives the memory back once it is sent, so one huge
/// result does not pin its size per connection.
const WRITE_BUF_KEEP: usize = 256 << 10;

fn check_frame_len(len: usize, kind: io::ErrorKind, who: &str) -> io::Result<()> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            kind,
            format!("{who} a {len}-byte frame (max {MAX_FRAME_LEN})"),
        ));
    }
    Ok(())
}

/// Send an assembled frame — the reserved length slot followed by the
/// payload — with one `write`, after patching the slot.
fn send_assembled(w: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = frame.len() - HEADER_LEN;
    check_frame_len(len, io::ErrorKind::InvalidInput, "refusing to send")?;
    frame[..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(frame)?;
    w.flush()
}

/// Write one frame (length prefix + payload) with a single `write`, and
/// flush. On a `TCP_NODELAY` socket two writes would be two segments and a
/// reader woken for the four header bytes alone. Connections that send many
/// frames assemble them in place in a [`FramedStream`] instead of paying
/// this function's copy.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&[0; HEADER_LEN]);
    frame.extend_from_slice(payload);
    send_assembled(w, &mut frame)
}

/// Read one frame from a bare stream. Returns `Ok(None)` on clean EOF (the
/// peer closed the connection between frames); mid-frame EOF is an error.
/// Partial reads are handled — the transfer may arrive in arbitrarily small
/// chunks. With nowhere to keep bytes of a following frame, this reads the
/// header and then exactly the payload; a connection that reads many
/// frames owns a [`FramedStream`] and gets small ones in one `read`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Bytes>> {
    // the same reader with room for a header only: it cannot over-read
    FrameReader::with_capacity(HEADER_LEN).read_frame(r, Patience::socket_deadline())
}

/// What a read that timed out (`WouldBlock`/`TimedOut` from a socket with
/// a read timeout set) means while waiting for a frame.
struct Patience<'a> {
    /// `None`: the socket's timeout is the caller's per-call deadline, so
    /// the error stands. `Some`: the timeout is a short poll interval —
    /// while no byte of the frame has arrived, keep waiting unless the
    /// predicate asks to stop; once one has, the peer gets the duration to
    /// deliver the rest.
    poll: Option<(&'a dyn Fn() -> bool, Duration)>,
    /// When this frame was first seen incomplete.
    partial_since: Option<Instant>,
}

impl<'a> Patience<'a> {
    fn socket_deadline() -> Patience<'a> {
        Patience {
            poll: None,
            partial_since: None,
        }
    }

    fn polling(should_stop: &'a dyn Fn() -> bool, mid_frame_timeout: Duration) -> Patience<'a> {
        Patience {
            poll: Some((should_stop, mid_frame_timeout)),
            partial_since: None,
        }
    }

    /// One `read` into `dst`, with `mid_frame` saying whether part of the
    /// frame has already arrived. `Ok(Some(n))`: `n > 0` bytes arrived.
    /// `Ok(None)`: a clean stop between frames (EOF, or the stop predicate
    /// while idle).
    fn read(
        &mut self,
        r: &mut impl Read,
        dst: &mut [u8],
        mid_frame: bool,
    ) -> io::Result<Option<usize>> {
        if mid_frame && self.poll.is_some() {
            self.partial_since.get_or_insert_with(Instant::now);
        }
        loop {
            match r.read(dst) {
                Ok(0) if !mid_frame => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) => return Ok(Some(n)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    let Some((should_stop, mid_frame_timeout)) = self.poll else {
                        return Err(e);
                    };
                    match self.partial_since {
                        // still idle: stopping here is a clean exit
                        None if should_stop() => return Ok(None),
                        None => {}
                        Some(since) if since.elapsed() > mid_frame_timeout => {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "peer stalled mid-frame",
                            ))
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// The read half of a connection's frame buffers: `buf[start..end]` holds
/// bytes received and not yet handed out.
#[derive(Debug)]
struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// `cap` is at least [`HEADER_LEN`].
    fn with_capacity(cap: usize) -> FrameReader {
        FrameReader {
            buf: vec![0; cap],
            start: 0,
            end: 0,
        }
    }

    fn buffered(&self) -> usize {
        self.end - self.start
    }

    fn read_frame(
        &mut self,
        r: &mut impl Read,
        mut patience: Patience<'_>,
    ) -> io::Result<Option<Bytes>> {
        while self.buffered() < HEADER_LEN {
            // at most three bytes to move, and the whole buffer to read into
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let mid_frame = self.end > 0;
            match patience.read(r, &mut self.buf[self.end..], mid_frame)? {
                Some(n) => self.end += n,
                None => return Ok(None),
            }
        }
        let header = &self.buf[self.start..self.start + HEADER_LEN];
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        // before any allocation
        check_frame_len(len, io::ErrorKind::InvalidData, "peer announced")?;
        self.start += HEADER_LEN;
        let have = self.buffered().min(len);
        let mut payload = Vec::with_capacity(len);
        payload.extend_from_slice(&self.buf[self.start..self.start + have]);
        self.start += have;
        // whatever is missing is read straight into the payload; nothing
        // is left in the buffer while that goes on, so nothing is over-read
        payload.resize(len, 0);
        let mut filled = have;
        while filled < len {
            match patience.read(r, &mut payload[filled..], true)? {
                Some(n) => filled += n,
                // not reachable: a mid-frame read either makes progress or fails
                None => return Err(io::ErrorKind::UnexpectedEof.into()),
            }
        }
        Ok(Some(Bytes::from(payload)))
    }
}

/// A stream and the one pair of frame buffers its connection owns, so that
/// a frame leaves with one `write` and a small frame arrives with one
/// `read`. Every endpoint — the front-end's and the back-end's connection
/// threads, [`crate::NetClient`], pooled back-end connections — talks
/// through one of these.
#[derive(Debug)]
pub struct FramedStream<S> {
    stream: S,
    reader: FrameReader,
    out: Vec<u8>,
}

impl<S> FramedStream<S> {
    /// Wrap a connected stream.
    pub fn new(stream: S) -> FramedStream<S> {
        FramedStream {
            stream,
            reader: FrameReader::with_capacity(READ_BUF_LEN),
            out: Vec::new(),
        }
    }

    /// The underlying stream (socket options, peer address).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Start an outgoing frame: the returned buffer already holds the
    /// reserved length slot; append the payload to it, then call
    /// [`FramedStream::send_frame`].
    pub fn begin_frame(&mut self) -> &mut Vec<u8> {
        self.out.clear();
        self.out.extend_from_slice(&[0; HEADER_LEN]);
        &mut self.out
    }

    /// Does the read buffer hold bytes nobody asked for? In a strict
    /// request/response exchange that means the peer is out of protocol
    /// sync, and the connection must not be reused.
    pub fn has_unread(&self) -> bool {
        self.reader.buffered() > 0
    }
}

impl<S: Write> FramedStream<S> {
    /// Send the frame assembled since [`FramedStream::begin_frame`] with
    /// one `write`.
    pub fn send_frame(&mut self) -> io::Result<()> {
        let sent = send_assembled(&mut self.stream, &mut self.out);
        if self.out.capacity() > WRITE_BUF_KEEP {
            self.out = Vec::new();
        }
        sent
    }
}

impl<S: Read> FramedStream<S> {
    /// Read one frame; a read timeout on the socket is the caller's
    /// deadline and fails the call. `Ok(None)` is a clean EOF between
    /// frames.
    pub fn read_frame(&mut self) -> io::Result<Option<Bytes>> {
        self.reader
            .read_frame(&mut self.stream, Patience::socket_deadline())
    }

    /// Read one frame from a stream whose read timeout is set to a short
    /// poll interval, so the wait can notice `should_stop` (server
    /// shutdown). Semantics:
    ///
    /// * idle connection (no byte of a frame yet): wait indefinitely,
    ///   polling `should_stop`; a stop request returns `Ok(None)` like a
    ///   clean EOF;
    /// * mid-frame: the peer has `mid_frame_timeout` to deliver the rest,
    ///   otherwise the read fails with `TimedOut` (half-open connections
    ///   cannot wedge a server thread forever).
    pub fn read_frame_interruptible(
        &mut self,
        should_stop: &dyn Fn() -> bool,
        mid_frame_timeout: Duration,
    ) -> io::Result<Option<Bytes>> {
        self.reader.read_frame(
            &mut self.stream,
            Patience::polling(should_stop, mid_frame_timeout),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Query {
                sql: "SELECT 1 CURRENCY BOUND 5 SEC ON (t)".into(),
            },
            Request::SetOption {
                name: "violation_policy".into(),
                value: "serve_stale".into(),
            },
            Request::Ping,
        ] {
            assert_eq!(Request::decode(req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        use rcc_common::{Column, DataType, Row, Schema, Value};
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let payload = rcc_executor::wire::encode_result(&schema, &[Row::new(vec![Value::Int(7)])]);
        for resp in [
            Response::ResultSet {
                used_remote: true,
                warnings: vec!["stale".into()],
                payload: payload.clone(),
            },
            Response::Ok,
            Response::Pong,
        ] {
            assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
        }
        // errors round-trip as class + Display rendering, not identical
        // payloads (see error_codes_preserve_class)
        let err = Error::CurrencyViolation("too stale".into());
        match Response::decode(Response::Error(err.clone()).encode()).unwrap() {
            Response::Error(Error::CurrencyViolation(m)) => assert_eq!(m, err.to_string()),
            other => panic!("expected a currency violation, got {other:?}"),
        }
    }

    #[test]
    fn error_codes_preserve_class() {
        for e in [
            Error::analysis("x"),
            Error::CurrencyViolation("x".into()),
            Error::Unavailable("x".into()),
            Error::Remote("x".into()),
            Error::Config("x".into()),
        ] {
            let decoded = match Response::decode(Response::Error(e.clone()).encode()).unwrap() {
                Response::Error(d) => d,
                other => panic!("expected error, got {other:?}"),
            };
            assert_eq!(
                std::mem::discriminant(&decoded),
                std::mem::discriminant(&e),
                "{e:?} vs {decoded:?}"
            );
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let frame = Request::SetOption {
            name: "violation_policy".into(),
            value: "reject".into(),
        }
        .encode();
        for cut in 0..frame.len() {
            assert!(Request::decode(frame.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn frame_io_roundtrip_over_cursor() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        write_frame(
            &mut wire,
            &Request::Query {
                sql: "SELECT 1".into(),
            }
            .encode(),
        )
        .unwrap();
        let mut r = std::io::Cursor::new(wire);
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(f1).unwrap(), Request::Ping);
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert!(matches!(
            Request::decode(f2).unwrap(),
            Request::Query { .. }
        ));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn traced_request_roundtrip() {
        let req = Request::QueryTraced {
            sql: "SELECT 1 CURRENCY BOUND 5 SEC ON (t)".into(),
            trace: TraceContext {
                trace_id: 0xDEAD_BEEF_0042,
                parent_depth: 3,
            },
        };
        assert_eq!(Request::decode(req.encode()).unwrap(), req);
        // truncation at every split is an error, never a panic
        let frame = req.encode();
        for cut in 0..frame.len() {
            assert!(Request::decode(frame.slice(0..cut)).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn traced_response_roundtrip() {
        use rcc_common::{Column, DataType, Row, Schema, Value};
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let payload = rcc_executor::wire::encode_result(&schema, &[Row::new(vec![Value::Int(7)])]);
        let resp = Response::ResultSetTraced {
            used_remote: false,
            warnings: vec!["stale".into()],
            spans: vec![
                WireSpan {
                    name: "backend:execute".into(),
                    depth: 0,
                    start_us: 12,
                    elapsed_us: 340,
                },
                WireSpan {
                    name: "backend:encode".into(),
                    depth: 1,
                    start_us: 360,
                    elapsed_us: 5,
                },
            ],
            payload,
        };
        assert_eq!(Response::decode(resp.encode()).unwrap(), resp);
    }

    #[test]
    fn legacy_byte_layout_is_frozen() {
        // Golden bytes: the pre-trace tags must keep their exact encoding
        // so peers speaking the old protocol interoperate. If this test
        // fails, the change broke wire compatibility.
        let query = Request::Query {
            sql: "SELECT 1".into(),
        }
        .encode();
        assert_eq!(
            query.as_ref(),
            [
                0x01, // TAG_QUERY
                8, 0, 0, 0, // string length
                b'S', b'E', b'L', b'E', b'C', b'T', b' ', b'1',
            ]
        );
        assert_eq!(Request::Ping.encode().as_ref(), [0x03]);
        assert_eq!(Response::Ok.encode().as_ref(), [0x83]);
        assert_eq!(Response::Pong.encode().as_ref(), [0x84]);
        let rs = Response::ResultSet {
            used_remote: true,
            warnings: vec!["w".into()],
            payload: Bytes::from(&b"xy"[..]),
        }
        .encode();
        assert_eq!(
            rs.as_ref(),
            [
                0x81, // TAG_RESULT
                1,    // flags: used_remote
                1, 0, // warning count
                1, 0, 0, 0, b'w', // warning string
                b'x', b'y', // wire payload
            ]
        );
        // an old peer rejects the new tags cleanly rather than misparsing
        let traced = Request::QueryTraced {
            sql: "SELECT 1".into(),
            trace: TraceContext {
                trace_id: 1,
                parent_depth: 0,
            },
        }
        .encode();
        assert_eq!(traced[0], 0x04);
    }

    #[test]
    fn oversized_frame_header_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = std::io::Cursor::new(wire);
        assert!(read_frame(&mut r).is_err());
    }

    /// A scripted stream that counts calls. Each `read` serves the next
    /// step of the script: a chunk of bytes (all of it, or as much as the
    /// caller's buffer takes), or a read timeout; past the end of the
    /// script it times out forever (`idle`) or reports EOF. Writes are
    /// accepted whole and kept.
    #[derive(Default)]
    struct Script {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        idle: bool,
        reads: usize,
        writes: usize,
        written: Vec<u8>,
    }

    impl Script {
        fn serving(steps: Vec<Option<Vec<u8>>>, idle: bool) -> Script {
            Script {
                steps: steps.into(),
                idle,
                ..Script::default()
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Some(mut chunk)) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.steps.push_front(Some(chunk.split_off(n)));
                    }
                    Ok(n)
                }
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                None if self.idle => Err(io::ErrorKind::WouldBlock.into()),
                None => Ok(0),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    const NEVER: &dyn Fn() -> bool = &|| false;

    #[test]
    fn a_frame_leaves_with_exactly_one_write() {
        let query = Request::Query {
            sql: "SELECT 1".into(),
        };
        // the free function, on a bare stream
        let mut bare = Script::default();
        write_frame(&mut bare, &query.encode()).unwrap();
        assert_eq!(bare.writes, 1, "length prefix and payload in one write");
        assert_eq!(bare.written, framed(&query.encode()));
        // a connection, frame assembled in place; the buffer is reused
        let mut conn = FramedStream::new(Script::default());
        for _ in 0..3 {
            query.encode_into(conn.begin_frame());
            conn.send_frame().unwrap();
        }
        assert_eq!(conn.get_ref().writes, 3, "one write per frame");
        assert_eq!(conn.get_ref().written, framed(&query.encode()).repeat(3));
        // 160 KiB, like a scan_mix response: still one write, same bytes
        let big = vec![0xAB; 160 << 10];
        conn.begin_frame().extend_from_slice(&big);
        conn.send_frame().unwrap();
        assert_eq!(conn.get_ref().writes, 4);
        assert!(conn.get_ref().written.ends_with(&framed(&big)));
    }

    #[test]
    fn a_frame_that_fits_the_buffer_arrives_with_one_read() {
        let wire = framed(&Response::Pong.encode());
        let mut conn = FramedStream::new(Script::serving(vec![Some(wire)], true));
        let payload = conn.read_frame().unwrap().unwrap();
        assert_eq!(Response::decode(payload).unwrap(), Response::Pong);
        assert_eq!(conn.get_ref().reads, 1, "header and payload in one read");
        assert!(!conn.has_unread());
        // a bare stream has no buffer to over-read into: header, payload
        let mut bare = Script::serving(vec![Some(framed(&Response::Pong.encode()))], true);
        read_frame(&mut bare).unwrap().unwrap();
        assert_eq!(bare.reads, 2);
    }

    #[test]
    fn two_frames_in_one_segment_are_served_in_order() {
        let first = Request::Query {
            sql: "SELECT 1".into(),
        };
        let mut segment = framed(&first.encode());
        segment.extend(framed(&Request::Ping.encode()));
        let mut conn = FramedStream::new(Script::serving(vec![Some(segment)], false));
        let stop_if_polled = || panic!("both frames were already there");
        for expected in [first, Request::Ping] {
            let payload = conn
                .read_frame_interruptible(&stop_if_polled, Duration::from_secs(1))
                .unwrap()
                .unwrap();
            assert_eq!(Request::decode(payload).unwrap(), expected);
        }
        assert_eq!(conn.get_ref().reads, 1, "the second frame cost no read");
        assert!(conn.read_frame().unwrap().is_none(), "then a clean EOF");
    }

    #[test]
    fn a_second_frame_split_across_segments_is_reassembled() {
        let sql = "SELECT c_name FROM customer WHERE c_custkey = 42".to_string();
        let second = Request::Query { sql };
        let mut wire = framed(&Request::Ping.encode());
        wire.extend(framed(&second.encode()));
        // every split point: inside the first frame, at the boundary,
        // inside the second header, inside the second payload
        for cut in 1..wire.len() {
            let steps = vec![Some(wire[..cut].to_vec()), None, Some(wire[cut..].to_vec())];
            let mut conn = FramedStream::new(Script::serving(steps, false));
            let read = |conn: &mut FramedStream<Script>| {
                conn.read_frame_interruptible(NEVER, Duration::from_secs(1))
                    .unwrap()
                    .unwrap()
            };
            assert_eq!(Request::decode(read(&mut conn)).unwrap(), Request::Ping);
            assert_eq!(Request::decode(read(&mut conn)).unwrap(), second, "{cut}");
            assert!(!conn.has_unread());
        }
    }

    #[test]
    fn a_frame_larger_than_the_buffer_is_read_whole() {
        let big = vec![0x5A; 3 * READ_BUF_LEN + 17];
        let mut wire = framed(&big);
        wire.extend(framed(&Response::Pong.encode()));
        let mut conn = FramedStream::new(Script::serving(vec![Some(wire)], false));
        assert_eq!(conn.read_frame().unwrap().unwrap().as_ref(), &big[..]);
        // the tail was read into the payload itself, not past it
        let payload = conn.read_frame().unwrap().unwrap();
        assert_eq!(Response::decode(payload).unwrap(), Response::Pong);
    }

    #[test]
    fn a_peer_stalling_mid_frame_times_out() {
        let wire = framed(&Request::Ping.encode());
        let frame_timeout = Duration::from_millis(30);
        for cut in [1, HEADER_LEN, wire.len() - 1] {
            let steps = vec![Some(wire[..cut].to_vec())];
            let mut conn = FramedStream::new(Script::serving(steps, true));
            let started = Instant::now();
            let err = conn
                .read_frame_interruptible(NEVER, frame_timeout)
                .expect_err("half a frame and then silence");
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "cut {cut}");
            assert!(started.elapsed() >= frame_timeout);
            assert!(started.elapsed() < frame_timeout * 20, "and not much later");
        }
        // a stop request does not rescue a half-delivered frame
        let mut conn = FramedStream::new(Script::serving(vec![Some(wire[..2].to_vec())], true));
        let err = conn.read_frame_interruptible(&|| true, frame_timeout);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn an_idle_connection_notices_shutdown_at_the_next_poll() {
        let polls = std::cell::Cell::new(0);
        let stop_on_third = || {
            polls.set(polls.get() + 1);
            polls.get() == 3
        };
        let mut conn = FramedStream::new(Script::serving(vec![], true));
        let got = conn
            .read_frame_interruptible(&stop_on_third, Duration::from_secs(1))
            .unwrap();
        assert!(got.is_none(), "a stop while idle is a clean exit");
        assert_eq!(conn.get_ref().reads, 3, "one poll per read timeout");
        // the same silence on a client is the per-call deadline: an error
        let mut client = FramedStream::new(Script::serving(vec![], true));
        let err = client.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn eof_is_clean_between_frames_and_an_error_inside_one() {
        let wire = framed(&Request::Ping.encode());
        let mut conn = FramedStream::new(Script::serving(vec![Some(wire.clone())], false));
        assert!(conn.read_frame().unwrap().is_some());
        assert!(conn.read_frame().unwrap().is_none());
        for cut in 1..wire.len() {
            let steps = vec![Some(wire[..cut].to_vec())];
            let mut conn = FramedStream::new(Script::serving(steps, false));
            let err = conn.read_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    #[test]
    fn an_oversized_length_is_rejected_on_the_header_alone() {
        // the announced payload never arrives: had the reader allocated
        // for it and gone on reading, this would be EOF, not InvalidData
        let header = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        let mut conn = FramedStream::new(Script::serving(vec![Some(header)], false));
        let err = conn.read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(conn.get_ref().reads, 1);
        // the sending side refuses before it writes anything
        let mut conn = FramedStream::new(Script::default());
        conn.begin_frame().resize(HEADER_LEN + MAX_FRAME_LEN + 1, 0);
        assert_eq!(
            conn.send_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(conn.get_ref().writes, 0);
    }

    #[test]
    fn a_large_response_does_not_pin_the_write_buffer() {
        let mut conn = FramedStream::new(Script::default());
        conn.begin_frame()
            .resize(HEADER_LEN + 2 * WRITE_BUF_KEEP, 7);
        conn.send_frame().unwrap();
        assert!(conn.out.capacity() <= WRITE_BUF_KEEP);
        conn.begin_frame().resize(HEADER_LEN + 1000, 7);
        conn.send_frame().unwrap();
        assert!(conn.out.capacity() >= 1000, "a small one is kept");
    }

    #[test]
    fn in_place_result_head_matches_the_response_encoding() {
        let payload = Bytes::from(&b"rows"[..]);
        let warnings = vec!["stale".to_string()];
        let spans = vec![WireSpan {
            name: "backend:execute".into(),
            depth: 1,
            start_us: 2,
            elapsed_us: 3,
        }];
        let mut buf = Vec::new();
        put_result_head(&mut buf, true, &warnings, None);
        buf.extend_from_slice(&payload);
        let plain = Response::ResultSet {
            used_remote: true,
            warnings: warnings.clone(),
            payload: payload.clone(),
        };
        assert_eq!(buf, plain.encode().as_ref());
        let mut buf = Vec::new();
        put_result_head(&mut buf, false, &warnings, Some(&spans));
        buf.extend_from_slice(&payload);
        let traced = Response::ResultSetTraced {
            used_remote: false,
            warnings,
            spans,
            payload,
        };
        assert_eq!(buf, traced.encode().as_ref());
    }

    #[test]
    fn every_tag_const_matches_the_central_registry() {
        let declared: &[(u8, &str)] = &[
            (TAG_QUERY, "TAG_QUERY"),
            (TAG_SET_OPTION, "TAG_SET_OPTION"),
            (TAG_PING, "TAG_PING"),
            (TAG_QUERY_TRACED, "TAG_QUERY_TRACED"),
            (TAG_RESULT, "TAG_RESULT"),
            (TAG_ERROR, "TAG_ERROR"),
            (TAG_OK, "TAG_OK"),
            (TAG_PONG, "TAG_PONG"),
            (TAG_RESULT_TRACED, "TAG_RESULT_TRACED"),
        ];
        assert_eq!(declared.len(), crate::tags::FRAME_TAGS.len());
        for (byte, name) in declared {
            assert_eq!(crate::tags::name_of(*byte), Some(*name));
        }
    }
}
