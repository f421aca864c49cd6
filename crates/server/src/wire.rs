//! CSRP — the cuSZ+ Request Protocol: a versioned, length-prefixed
//! binary framing for the compression service.
//!
//! ```text
//! offset size  field
//! 0      4     magic "CSRP"
//! 4      2     protocol version (= 1)
//! 6      1     op (see [`Op`])
//! 7      1     flags (bit 0: response, bit 1: error response)
//! 8      8     request id (echoed verbatim in the response)
//! 16     4     payload length n
//! 20     n     payload
//! 20+n   8     FNV-1a checksum of the payload
//! ```
//!
//! Framing is defensive on both sides: the payload length is capped
//! ([`MAX_FRAME_PAYLOAD`] by default, lower per server config), the
//! payload buffer grows in bounded slabs under `try_reserve` — the same
//! discipline as untrusted archive headers, so a hostile length field
//! can never allocation-bomb the process — and the trailing checksum
//! rejects frames damaged in transit before any request parsing runs.
//! Every decode error is a typed [`WireError`]; the server answers with
//! a typed [`ErrorResponse`] frame and at worst closes the connection,
//! never panics.

use cuszp_core::{
    Dims, Dtype, ErrorBound, LosslessMode, ParityConfig, Predictor, PredictorMode, WorkflowChoice,
    WorkflowMode,
};
use std::io::{Read, Write};

pub use cuszp_metrics::fnv1a;

/// Frame magic: "CSRP" little-endian.
pub const WIRE_MAGIC: u32 = 0x5052_5343;
/// Protocol version this build speaks (minor bump 3: the cluster tier —
/// `ring`/`put`/`get`/`list_shards` ops, `Redirect`/`NotMine`/`NotFound`
/// error codes, the additive redirect tail on error responses, and the
/// additive node-id/ring-epoch fields on `health` — all strictly
/// additive, so version-1 and version-2 peers are still accepted).
pub const WIRE_VERSION: u16 = 3;
/// Oldest protocol version this build still accepts. Versions in
/// `WIRE_VERSION_MIN..=WIRE_VERSION` differ only by additive payload
/// fields that old decoders skip, so the whole range interoperates.
pub const WIRE_VERSION_MIN: u16 = 1;
/// Fixed frame header bytes (before the payload).
pub const FRAME_HEADER_BYTES: usize = 20;
/// Hard cap on a frame payload (1 GiB). Server configs may lower it.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;
/// Payloads are read in slabs of this size so a lying length field
/// commits memory no faster than the peer actually sends bytes.
const READ_SLAB_BYTES: usize = 4 << 20;

/// Response flag bit.
pub const FLAG_RESPONSE: u8 = 0x01;
/// Error-response flag bit (implies [`FLAG_RESPONSE`]).
pub const FLAG_ERROR: u8 = 0x02;

/// Request/response operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// Liveness probe; empty payload both ways.
    Ping = 0,
    /// Compress a raw field into a CSZ2 archive.
    Compress = 1,
    /// Decompress an archive (optionally fault-isolated).
    Decompress = 2,
    /// Validate an archive chunk-by-chunk (fsck over the wire).
    Scan = 3,
    /// Describe an archive without decoding it.
    Info = 4,
    /// Live service metrics snapshot.
    Stats = 5,
    /// Begin graceful shutdown (drain, then exit).
    Shutdown = 6,
    /// Decode only the chunks covering a sub-volume of an archive
    /// (strictly additive: servers that predate it answer `UnknownOp`).
    GetRange = 7,
    /// Cheap liveness + load probe: queue depth and drain state,
    /// answered without touching a pipeline engine (strictly additive:
    /// servers that predate it answer `UnknownOp`).
    Health = 8,
    /// Cluster topology: the node's [`crate::ring::Ring`] (strictly
    /// additive: servers that predate it answer `UnknownOp`;
    /// non-clustered servers answer `BadRequest`).
    Ring = 9,
    /// Store one erasure-coded shard of an archive on this node
    /// (strictly additive; cluster mode only).
    Put = 10,
    /// Fetch one stored shard from this node (strictly additive;
    /// cluster mode only).
    Get = 11,
    /// Enumerate every shard this node stores, with checksums — the
    /// anti-entropy scrub's inventory pass (strictly additive; cluster
    /// mode only).
    ListShards = 12,
}

impl Op {
    /// All ops, in wire-tag order.
    pub const ALL: [Op; 13] = [
        Op::Ping,
        Op::Compress,
        Op::Decompress,
        Op::Scan,
        Op::Info,
        Op::Stats,
        Op::Shutdown,
        Op::GetRange,
        Op::Health,
        Op::Ring,
        Op::Put,
        Op::Get,
        Op::ListShards,
    ];

    /// Parses the wire tag.
    pub fn from_u8(v: u8) -> Option<Op> {
        Op::ALL.into_iter().find(|op| *op as u8 == v)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Scan => "scan",
            Op::Info => "info",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::GetRange => "get_range",
            Op::Health => "health",
            Op::Ring => "ring",
            Op::Put => "put",
            Op::Get => "get",
            Op::ListShards => "list_shards",
        }
    }

    /// True when retrying this op after an ambiguous failure is safe.
    ///
    /// Every request in the protocol is a pure function of its payload —
    /// compressing the same field twice yields bit-identical archives,
    /// reads are reads, and storing the same shard bytes twice (`put`)
    /// converges to the same stored state — except `shutdown`, whose
    /// side effect (begin draining) must not be re-issued blindly by a
    /// generic retry loop.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Op::Shutdown)
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly (EOF before any header
    /// byte). Not an error in itself — the server's serve loop ends.
    Closed,
    /// The stream ended or timed out mid-frame.
    Truncated,
    /// An I/O failure other than EOF.
    Io(std::io::ErrorKind),
    /// The first four bytes were not the CSRP magic.
    BadMagic(u32),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u16),
    /// Declared payload length exceeds the frame cap.
    FrameTooLarge {
        /// Declared length.
        len: u64,
        /// The enforced cap.
        max: u64,
    },
    /// Payload checksum mismatch: the frame was damaged in transit.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        expected: u64,
        /// Checksum recomputed over the received payload.
        actual: u64,
    },
    /// A structurally invalid payload for the op it arrived under.
    BadPayload(&'static str),
    /// The payload allocation was refused (memory pressure).
    Alloc,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (carried {expected:#x}, computed {actual:#x})"
            ),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::Alloc => write!(f, "payload allocation refused"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => WireError::Truncated,
            kind => WireError::Io(kind),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Raw op tag (validated against [`Op`] at dispatch, not here, so a
    /// server can answer an unknown op with a typed error).
    pub op: u8,
    /// Flag bits ([`FLAG_RESPONSE`], [`FLAG_ERROR`]).
    pub flags: u8,
    /// Request id, echoed by responses.
    pub req_id: u64,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// True when this frame is a response.
    pub fn is_response(&self) -> bool {
        self.flags & FLAG_RESPONSE != 0
    }

    /// True when this frame is an error response.
    pub fn is_error(&self) -> bool {
        self.flags & FLAG_ERROR != 0
    }
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the stream hit
/// EOF *before the first byte* — a clean close. EOF mid-buffer is
/// [`WireError::Truncated`].
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one frame. The declared payload length is validated against
/// `max_payload` before any allocation, and the buffer grows slab by
/// slab under `try_reserve`, so untrusted headers cannot
/// allocation-bomb the reader.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> Result<Frame, WireError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    if !read_full(r, &mut header)? {
        return Err(WireError::Closed);
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let op = header[6];
    let flags = header[7];
    let req_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(header[16..20].try_into().unwrap()) as usize;
    if len > max_payload {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: max_payload as u64,
        });
    }
    let mut payload: Vec<u8> = Vec::new();
    while payload.len() < len {
        let step = (len - payload.len()).min(READ_SLAB_BYTES);
        let old = payload.len();
        payload.try_reserve(step).map_err(|_| WireError::Alloc)?;
        payload.resize(old + step, 0);
        if !read_full(r, &mut payload[old..])? {
            return Err(WireError::Truncated);
        }
    }
    let mut sum = [0u8; 8];
    if !read_full(r, &mut sum)? {
        return Err(WireError::Truncated);
    }
    let expected = u64::from_le_bytes(sum);
    let actual = fnv1a(&payload);
    if expected != actual {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(Frame {
        op,
        flags,
        req_id,
        payload,
    })
}

/// Writes one frame (header, payload, trailing checksum).
pub fn write_frame(
    w: &mut impl Write,
    op: u8,
    flags: u8,
    req_id: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    header[6] = op;
    header[7] = flags;
    header[8..16].copy_from_slice(&req_id.to_le_bytes());
    header[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.write_all(&fnv1a(payload).to_le_bytes())?;
    w.flush()
}

// ---------------------------------------------------------------------
// Payload codec helpers.
// ---------------------------------------------------------------------

/// Bounded little-endian reader over a payload.
pub(crate) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::BadPayload("payload truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// All bytes not yet consumed (the "rest of payload" field).
    pub(crate) fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| WireError::BadPayload("string not UTF-8"))
    }
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&bytes[..len]);
}

pub(crate) fn put_dims(out: &mut Vec<u8>, dims: Dims) {
    let (rank, d): (u8, [u64; 3]) = match dims {
        Dims::D1(n) => (1, [n as u64, 0, 0]),
        Dims::D2 { ny, nx } => (2, [ny as u64, nx as u64, 0]),
        Dims::D3 { nz, ny, nx } => (3, [nz as u64, ny as u64, nx as u64]),
    };
    out.push(rank);
    for x in &d[..rank as usize] {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn read_dims(c: &mut Cur<'_>) -> Result<Dims, WireError> {
    // Axes are capped at u32 range and the element product at u48 so a
    // hostile request can neither overflow `usize` math nor demand an
    // absurd output allocation sight unseen.
    let rank = c.u8()?;
    let mut axes = [0usize; 3];
    for a in axes.iter_mut().take(rank as usize) {
        let v = c.u64()?;
        if v > u32::MAX as u64 {
            return Err(WireError::BadPayload("dimension axis too large"));
        }
        *a = v as usize;
    }
    let dims = match rank {
        1 => Dims::D1(axes[0]),
        2 => Dims::D2 {
            ny: axes[0],
            nx: axes[1],
        },
        3 => Dims::D3 {
            nz: axes[0],
            ny: axes[1],
            nx: axes[2],
        },
        _ => return Err(WireError::BadPayload("dims rank must be 1-3")),
    };
    let product: u128 = axes[..rank as usize].iter().map(|&a| a as u128).product();
    if product > 1 << 48 {
        return Err(WireError::BadPayload("field too large"));
    }
    Ok(dims)
}

pub(crate) fn dtype_tag(d: Dtype) -> u8 {
    match d {
        Dtype::F32 => 1,
        Dtype::F64 => 2,
    }
}

pub(crate) fn dtype_from_tag(v: u8) -> Result<Dtype, WireError> {
    match v {
        1 => Ok(Dtype::F32),
        2 => Ok(Dtype::F64),
        _ => Err(WireError::BadPayload("bad dtype tag")),
    }
}

// ---------------------------------------------------------------------
// Typed error responses.
// ---------------------------------------------------------------------

/// Typed failure classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame failed structural validation (magic, checksum, length).
    MalformedFrame = 1,
    /// Protocol version mismatch.
    UnsupportedVersion = 2,
    /// The op tag names no operation this server knows.
    UnknownOp = 3,
    /// The request queue is full; retry later (backpressure).
    Busy = 4,
    /// The frame was sound but the request payload was not.
    BadRequest = 5,
    /// The compression pipeline rejected the request (CuszpError text).
    Pipeline = 6,
    /// The server is draining for shutdown.
    ShuttingDown = 7,
    /// Declared payload exceeds the server's frame cap.
    FrameTooLarge = 8,
    /// The server is draining: it will not take new work, and the
    /// carried `retry_after_ms` hints when to try again (elsewhere).
    Unavailable = 9,
    /// The request's ring epoch is stale: the carried redirect tail
    /// names the server's epoch and a node to re-fetch topology from.
    /// A routing signal, not a retry-here signal.
    Redirect = 10,
    /// This node does not own the requested shard placement; the
    /// redirect tail names the owner. A routing signal.
    NotMine = 11,
    /// The node owns the placement but stores no such shard.
    NotFound = 12,
}

impl ErrorCode {
    /// Parses the wire tag.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        [
            ErrorCode::MalformedFrame,
            ErrorCode::UnsupportedVersion,
            ErrorCode::UnknownOp,
            ErrorCode::Busy,
            ErrorCode::BadRequest,
            ErrorCode::Pipeline,
            ErrorCode::ShuttingDown,
            ErrorCode::FrameTooLarge,
            ErrorCode::Unavailable,
            ErrorCode::Redirect,
            ErrorCode::NotMine,
            ErrorCode::NotFound,
        ]
        .into_iter()
        .find(|c| *c as u16 == v)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed frame",
            ErrorCode::UnsupportedVersion => "unsupported version",
            ErrorCode::UnknownOp => "unknown op",
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::Pipeline => "pipeline error",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::FrameTooLarge => "frame too large",
            ErrorCode::Unavailable => "unavailable (draining)",
            ErrorCode::Redirect => "redirect (stale ring)",
            ErrorCode::NotMine => "not mine",
            ErrorCode::NotFound => "not found",
        }
    }

    /// True when the condition is transient and the same request may
    /// succeed on a retry: backpressure (`Busy`), draining
    /// (`Unavailable`), or a frame damaged *in transit*
    /// (`MalformedFrame` — the bytes the client sent were sound, the
    /// wire mangled them). `Redirect`/`NotMine` are deliberately *not*
    /// transient: re-issuing the same request against the same node
    /// cannot succeed — the cluster layer must re-route instead.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ErrorCode::Busy | ErrorCode::Unavailable | ErrorCode::MalformedFrame
        )
    }
}

/// Where a `Redirect`/`NotMine` error points: the answering server's
/// ring epoch and the node that owns (or can serve topology for) the
/// request. Rides as an additive tail on [`ErrorResponse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedirectTarget {
    /// The answering server's ring epoch.
    pub epoch: u64,
    /// The owning node's id.
    pub owner_id: u64,
    /// The owning node's address (`host:port`).
    pub owner_addr: String,
}

/// The payload of an error-response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Typed failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Load-shedding hint: how long the client should back off before
    /// retrying this request. Strictly additive (wire minor version 2):
    /// it rides *after* the message, where a version-1 decoder simply
    /// stops reading, so old clients still parse the code and message.
    pub retry_after_ms: Option<u32>,
    /// Routing hint carried by `Redirect`/`NotMine` answers (wire minor
    /// version 3). Rides after the retry hint; a redirect-carrying
    /// response always encodes the retry hint too (0 when unset), so
    /// the two optional tails never alias each other on decode.
    pub redirect: Option<RedirectTarget>,
}

impl ErrorResponse {
    /// Builds a typed error with no retry hint.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
            retry_after_ms: None,
            redirect: None,
        }
    }

    /// Attaches a retry hint (load-shedding responses: `Busy`,
    /// `Unavailable`).
    pub fn with_retry_after(mut self, retry_after: std::time::Duration) -> Self {
        self.retry_after_ms = Some(retry_after.as_millis().min(u32::MAX as u128) as u32);
        self
    }

    /// Attaches a routing hint (`Redirect`/`NotMine` answers). Forces
    /// the retry hint present (0 if unset) so the wire tails stay
    /// unambiguous.
    pub fn with_redirect(
        mut self,
        epoch: u64,
        owner_id: u64,
        owner_addr: impl Into<String>,
    ) -> Self {
        self.retry_after_ms = Some(self.retry_after_ms.unwrap_or(0));
        self.redirect = Some(RedirectTarget {
            epoch,
            owner_id,
            owner_addr: owner_addr.into(),
        });
        self
    }

    /// Serializes for the wire. The optional retry hint is appended
    /// after the message so version-1 decoders ignore it; the optional
    /// redirect tail after that so version-2 decoders ignore it too.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 2 + self.message.len() + 4);
        out.extend_from_slice(&(self.code as u16).to_le_bytes());
        put_str(&mut out, &self.message);
        if self.retry_after_ms.is_some() || self.redirect.is_some() {
            out.extend_from_slice(&self.retry_after_ms.unwrap_or(0).to_le_bytes());
        }
        if let Some(r) = &self.redirect {
            out.extend_from_slice(&r.epoch.to_le_bytes());
            out.extend_from_slice(&r.owner_id.to_le_bytes());
            put_str(&mut out, &r.owner_addr);
        }
        out
    }

    /// Parses from an error-response payload. A trailing
    /// `retry_after_ms` is read when present (version ≥ 2 servers), and
    /// a redirect tail after it when present (version ≥ 3); their
    /// absence parses as `None`, so all directions interoperate.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let code =
            ErrorCode::from_u16(c.u16()?).ok_or(WireError::BadPayload("unknown error code"))?;
        let message = c.str()?;
        let retry_after_ms = if c.remaining() >= 4 {
            Some(c.u32()?)
        } else {
            None
        };
        // Version ≤ 2 encoders never emit bytes past the retry hint, so
        // anything remaining here is the redirect tail (epoch + owner id
        // + length-prefixed address — at least 18 bytes).
        let redirect = if c.remaining() >= 18 {
            Some(RedirectTarget {
                epoch: c.u64()?,
                owner_id: c.u64()?,
                owner_addr: c.str()?,
            })
        } else {
            None
        };
        Ok(Self {
            code,
            message,
            retry_after_ms,
            redirect,
        })
    }
}

impl std::fmt::Display for ErrorResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        if let Some(r) = &self.redirect {
            write!(
                f,
                " (owner {} at {}, epoch {})",
                r.owner_id, r.owner_addr, r.epoch
            )?;
        }
        Ok(())
    }
}

/// The `health` op's response: a cheap load/liveness probe answered
/// straight from the server's shared state, never touching a pipeline
/// engine — so it stays fast even when every worker is busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthResponse {
    /// Connections waiting in the accept queue.
    pub queue_depth: u32,
    /// Queue capacity; at `queue_depth == queue_capacity` the acceptor
    /// sheds with `Busy`.
    pub queue_capacity: u32,
    /// True once graceful shutdown has begun (new work is shed with
    /// `Unavailable`).
    pub draining: bool,
    /// Connections currently being served.
    pub active_connections: u32,
    /// Worker threads (each owning one pipeline engine).
    pub workers: u32,
    /// The server's current backoff hint for shed requests, in ms.
    pub retry_after_ms: u32,
    /// Cluster identity — `(node id, ring epoch)` — when the server
    /// runs in cluster mode. Strictly additive (wire minor version 3):
    /// rides after the fixed fields, where version-2 decoders stop
    /// reading; absent on non-clustered servers.
    pub cluster: Option<ClusterIdentity>,
}

/// A clustered server's identity, carried by `health` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterIdentity {
    /// This node's id in the ring.
    pub node_id: u64,
    /// The ring epoch the node is serving.
    pub ring_epoch: u64,
}

impl HealthResponse {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(37);
        out.extend_from_slice(&self.queue_depth.to_le_bytes());
        out.extend_from_slice(&self.queue_capacity.to_le_bytes());
        out.push(self.draining as u8);
        out.extend_from_slice(&self.active_connections.to_le_bytes());
        out.extend_from_slice(&self.workers.to_le_bytes());
        out.extend_from_slice(&self.retry_after_ms.to_le_bytes());
        if let Some(c) = &self.cluster {
            out.extend_from_slice(&c.node_id.to_le_bytes());
            out.extend_from_slice(&c.ring_epoch.to_le_bytes());
        }
        out
    }

    /// Parses a health response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        Ok(Self {
            queue_depth: c.u32()?,
            queue_capacity: c.u32()?,
            draining: match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadPayload("bad draining flag")),
            },
            active_connections: c.u32()?,
            workers: c.u32()?,
            retry_after_ms: c.u32()?,
            // Additive cluster identity: absent from version-2 servers
            // and non-clustered version-3 servers alike.
            cluster: if c.remaining() >= 16 {
                Some(ClusterIdentity {
                    node_id: c.u64()?,
                    ring_epoch: c.u64()?,
                })
            } else {
                None
            },
        })
    }
}

// ---------------------------------------------------------------------
// Request/response payloads.
// ---------------------------------------------------------------------

/// A compress request: pipeline parameters plus the raw field bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressRequest<'a> {
    /// Field dimensions (fastest axis last).
    pub dims: Dims,
    /// Element type of `data`.
    pub dtype: Dtype,
    /// Error bound specification.
    pub error_bound: ErrorBound,
    /// Coding workflow (auto or forced).
    pub workflow: WorkflowMode,
    /// Prediction scheme: forced, or scored per chunk.
    pub predictor: PredictorMode,
    /// Optional post-coding lossless stage.
    pub lossless: LosslessMode,
    /// Elements per chunk for the CSZ2 plan; 0 = server default.
    pub chunk_target: u64,
    /// Optional Reed–Solomon parity configuration.
    pub parity: Option<ParityConfig>,
    /// Raw little-endian scalars, `dims.len() * dtype.bytes()` bytes.
    pub data: &'a [u8],
}

impl<'a> CompressRequest<'a> {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.data.len());
        put_dims(&mut out, self.dims);
        out.push(dtype_tag(self.dtype));
        match self.error_bound {
            ErrorBound::Absolute(eb) => {
                out.push(0);
                out.extend_from_slice(&eb.to_le_bytes());
            }
            ErrorBound::Relative(eb) => {
                out.push(1);
                out.extend_from_slice(&eb.to_le_bytes());
            }
        }
        out.push(match self.workflow {
            WorkflowMode::Auto => 0,
            WorkflowMode::Force(WorkflowChoice::Huffman) => 1,
            WorkflowMode::Force(WorkflowChoice::Rle) => 2,
            WorkflowMode::Force(WorkflowChoice::RleVle) => 3,
        });
        // Plan byte: bits 0–1 select the predictor mode (0 = force
        // Lorenzo — the historical byte — 1 = force interpolation,
        // 2 = auto), bit 4 enables the auto lossless stage. Data is the
        // frame's trailing rest, so the plan must pack into this
        // existing byte rather than grow the layout.
        let mut plan = match self.predictor {
            PredictorMode::Force(Predictor::Lorenzo) => 0u8,
            PredictorMode::Force(Predictor::Interpolation) => 1,
            PredictorMode::Auto => 2,
        };
        if self.lossless == LosslessMode::Auto {
            plan |= 0x10;
        }
        out.push(plan);
        out.extend_from_slice(&self.chunk_target.to_le_bytes());
        let (k, m) = self
            .parity
            .map_or((0, 0), |p| (p.data_shards, p.parity_shards));
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&m.to_le_bytes());
        out.extend_from_slice(self.data);
        out
    }

    /// Parses and validates a compress payload. The data length must
    /// match the declared geometry exactly.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let dims = read_dims(&mut c)?;
        let dtype = dtype_from_tag(c.u8()?)?;
        let eb_mode = c.u8()?;
        let eb = c.f64()?;
        if !eb.is_finite() {
            return Err(WireError::BadPayload("error bound not finite"));
        }
        let error_bound = match eb_mode {
            0 => ErrorBound::Absolute(eb),
            1 => ErrorBound::Relative(eb),
            _ => return Err(WireError::BadPayload("bad error-bound mode")),
        };
        let workflow = match c.u8()? {
            0 => WorkflowMode::Auto,
            1 => WorkflowMode::Force(WorkflowChoice::Huffman),
            2 => WorkflowMode::Force(WorkflowChoice::Rle),
            3 => WorkflowMode::Force(WorkflowChoice::RleVle),
            _ => return Err(WireError::BadPayload("bad workflow tag")),
        };
        let plan = c.u8()?;
        let lossless = if plan & 0x10 != 0 {
            LosslessMode::Auto
        } else {
            LosslessMode::Off
        };
        let predictor = match plan & !0x10 {
            0 => PredictorMode::Force(Predictor::Lorenzo),
            1 => PredictorMode::Force(Predictor::Interpolation),
            2 => PredictorMode::Auto,
            _ => return Err(WireError::BadPayload("bad predictor tag")),
        };
        let chunk_target = c.u64()?;
        let k = c.u16()?;
        let m = c.u16()?;
        let parity = match (k, m) {
            (0, 0) => None,
            (k, m) if k > 0 && m > 0 => Some(ParityConfig {
                data_shards: k,
                parity_shards: m,
            }),
            _ => return Err(WireError::BadPayload("bad parity config")),
        };
        let data = c.rest();
        let expected = dims
            .len()
            .checked_mul(dtype.bytes())
            .ok_or(WireError::BadPayload("field too large"))?;
        if data.len() != expected {
            return Err(WireError::BadPayload("data length does not match dims"));
        }
        Ok(Self {
            dims,
            dtype,
            error_bound,
            workflow,
            predictor,
            lossless,
            chunk_target,
            parity,
            data,
        })
    }
}

/// How a decompress request wants damage handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressMode {
    /// All-or-nothing: any damage fails the request.
    Strict,
    /// Fault-isolated recovery with the given fill policy; the response
    /// carries per-chunk reports.
    Recover(cuszp_core::FillPolicy),
}

/// A decompress request: mode plus the archive bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressRequest<'a> {
    /// Damage handling.
    pub mode: DecompressMode,
    /// The serialized archive (v1 or CSZ2).
    pub archive: &'a [u8],
}

impl<'a> DecompressRequest<'a> {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.archive.len());
        out.push(match self.mode {
            DecompressMode::Strict => 0,
            DecompressMode::Recover(cuszp_core::FillPolicy::Nan) => 1,
            DecompressMode::Recover(cuszp_core::FillPolicy::Zero) => 2,
        });
        out.extend_from_slice(self.archive);
        out
    }

    /// Parses a decompress payload.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let mode = match c.u8()? {
            0 => DecompressMode::Strict,
            1 => DecompressMode::Recover(cuszp_core::FillPolicy::Nan),
            2 => DecompressMode::Recover(cuszp_core::FillPolicy::Zero),
            _ => return Err(WireError::BadPayload("bad decompress mode")),
        };
        Ok(Self {
            mode,
            archive: c.rest(),
        })
    }
}

/// A range-read request: damage mode, the requested sub-volume, and the
/// archive bytes. The response reuses [`DecompressResponse`] — `dims`
/// there are the *sub-volume* dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetRangeRequest<'a> {
    /// Damage handling (strict, or fault-isolated with a fill policy).
    pub mode: DecompressMode,
    /// The requested sub-volume, slowest axis first.
    pub spec: cuszp_core::RangeSpec,
    /// The serialized archive (v1 or CSZ2).
    pub archive: &'a [u8],
}

impl<'a> GetRangeRequest<'a> {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let axes = self.spec.axes();
        let mut out = Vec::with_capacity(2 + 16 * axes.len() + self.archive.len());
        out.push(match self.mode {
            DecompressMode::Strict => 0,
            DecompressMode::Recover(cuszp_core::FillPolicy::Nan) => 1,
            DecompressMode::Recover(cuszp_core::FillPolicy::Zero) => 2,
        });
        out.push(axes.len() as u8);
        for r in axes {
            out.extend_from_slice(&(r.start as u64).to_le_bytes());
            out.extend_from_slice(&(r.end as u64).to_le_bytes());
        }
        out.extend_from_slice(self.archive);
        out
    }

    /// Parses a get-range payload. Axis endpoints are capped like dims
    /// (`read_dims`), so hostile bounds cannot overflow index math; range
    /// *semantics* (inverted, out of bounds for the archive) are the
    /// pipeline's typed `InvalidRange`, answered as `BadRequest`.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let mode = match c.u8()? {
            0 => DecompressMode::Strict,
            1 => DecompressMode::Recover(cuszp_core::FillPolicy::Nan),
            2 => DecompressMode::Recover(cuszp_core::FillPolicy::Zero),
            _ => return Err(WireError::BadPayload("bad get-range mode")),
        };
        let rank = c.u8()? as usize;
        if rank == 0 || rank > 3 {
            return Err(WireError::BadPayload("range rank must be 1-3"));
        }
        let mut axes = Vec::with_capacity(rank);
        for _ in 0..rank {
            let start = c.u64()?;
            let end = c.u64()?;
            if start > 1 << 48 || end > 1 << 48 {
                return Err(WireError::BadPayload("range endpoint too large"));
            }
            axes.push(start as usize..end as usize);
        }
        Ok(Self {
            mode,
            spec: cuszp_core::RangeSpec::new(axes),
            archive: c.rest(),
        })
    }
}

/// A decompress response: geometry, optional recovery report, raw data.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompressResponse {
    /// Element type of `data`.
    pub dtype: Dtype,
    /// Field dimensions.
    pub dims: Dims,
    /// Per-chunk recovery report (recover mode only).
    pub report: Option<cuszp_core::PortableScanReport>,
    /// Raw little-endian scalars.
    pub data: Vec<u8>,
}

impl DecompressResponse {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let report = self
            .report
            .as_ref()
            .map(cuszp_core::PortableScanReport::to_bytes)
            .unwrap_or_default();
        let mut out = Vec::with_capacity(32 + report.len() + self.data.len());
        out.push(dtype_tag(self.dtype));
        put_dims(&mut out, self.dims);
        out.extend_from_slice(&(report.len() as u32).to_le_bytes());
        out.extend_from_slice(&report);
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a decompress response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let dtype = dtype_from_tag(c.u8()?)?;
        let dims = read_dims(&mut c)?;
        let report_len = c.u32()? as usize;
        if report_len > c.remaining() {
            return Err(WireError::BadPayload("report length exceeds payload"));
        }
        let report = if report_len == 0 {
            None
        } else {
            Some(
                cuszp_core::PortableScanReport::from_bytes(c.take(report_len)?)
                    .map_err(|_| WireError::BadPayload("malformed recovery report"))?,
            )
        };
        let data = c.rest().to_vec();
        if data.len() != dims.len() * dtype.bytes() {
            return Err(WireError::BadPayload("data length does not match dims"));
        }
        Ok(Self {
            dtype,
            dims,
            report,
            data,
        })
    }
}

/// An archive description, as returned by the `info` op.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteInfo {
    /// Container format ("v1" or "csz2").
    pub format: String,
    /// Element type.
    pub dtype: Dtype,
    /// Field dimensions.
    pub dims: Dims,
    /// Absolute error bound stored in the archive.
    pub eb: f64,
    /// Chunk count (1 for v1).
    pub n_chunks: u64,
    /// Parity configuration `(data_shards, parity_shards)`, if any.
    pub parity: Option<(u16, u16)>,
    /// Serialized archive size in bytes.
    pub stored_bytes: u64,
}

impl RemoteInfo {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_str(&mut out, &self.format);
        out.push(dtype_tag(self.dtype));
        put_dims(&mut out, self.dims);
        out.extend_from_slice(&self.eb.to_le_bytes());
        out.extend_from_slice(&self.n_chunks.to_le_bytes());
        let (k, m) = self.parity.unwrap_or((0, 0));
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&m.to_le_bytes());
        out.extend_from_slice(&self.stored_bytes.to_le_bytes());
        out
    }

    /// Parses an info response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let format = c.str()?;
        let dtype = dtype_from_tag(c.u8()?)?;
        let dims = read_dims(&mut c)?;
        let eb = c.f64()?;
        let n_chunks = c.u64()?;
        let k = c.u16()?;
        let m = c.u16()?;
        let parity = if k == 0 && m == 0 { None } else { Some((k, m)) };
        let stored_bytes = c.u64()?;
        Ok(Self {
            format,
            dtype,
            dims,
            eb,
            n_chunks,
            parity,
            stored_bytes,
        })
    }
}

// ---------------------------------------------------------------------
// Cluster shard payloads (wire minor version 3).
// ---------------------------------------------------------------------

/// Keys longer than this are rejected before touching the shard store —
/// the `put_str` u16 length prefix caps the wire form anyway, and a
/// tighter bound keeps hostile keys from bloating listings.
pub const MAX_SHARD_KEY_BYTES: usize = 1 << 10;

/// Shard-request flag: this `put` re-replicates a shard the scrub found
/// missing or corrupt (counted as a repair, not a fresh write).
pub const PUT_FLAG_REPAIR: u8 = 0x01;

fn check_key(key: &str) -> Result<(), WireError> {
    if key.is_empty() || key.len() > MAX_SHARD_KEY_BYTES {
        return Err(WireError::BadPayload("shard key empty or too long"));
    }
    Ok(())
}

/// A `put` request: one erasure-coded shard of an archive, addressed by
/// `(key, shard_idx)` under a ring epoch. `total_len`/`archive_fnv`
/// describe the *whole* archive so any one shard's metadata suffices to
/// reassemble and verify the stripe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutShardRequest<'a> {
    /// Archive key.
    pub key: String,
    /// Stripe slot: `0..k` are data shards, `k..k+m` parity.
    pub shard_idx: u16,
    /// The ring epoch the client routed under.
    pub ring_epoch: u64,
    /// Whole-archive byte length.
    pub total_len: u64,
    /// FNV-1a over the whole archive.
    pub archive_fnv: u64,
    /// [`PUT_FLAG_REPAIR`] when this is a scrub re-replication.
    pub flags: u8,
    /// The shard bytes (data shards may be shorter than the stripe's
    /// shard size; the tail slot carries the archive's remainder).
    pub shard: &'a [u8],
}

impl<'a> PutShardRequest<'a> {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.key.len() + self.shard.len());
        put_str(&mut out, &self.key);
        out.extend_from_slice(&self.shard_idx.to_le_bytes());
        out.extend_from_slice(&self.ring_epoch.to_le_bytes());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.archive_fnv.to_le_bytes());
        out.push(self.flags);
        out.extend_from_slice(self.shard);
        out
    }

    /// Parses and validates a put payload.
    pub fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let key = c.str()?;
        check_key(&key)?;
        let shard_idx = c.u16()?;
        let ring_epoch = c.u64()?;
        let total_len = c.u64()?;
        let archive_fnv = c.u64()?;
        let flags = c.u8()?;
        if flags & !PUT_FLAG_REPAIR != 0 {
            return Err(WireError::BadPayload("unknown put flags"));
        }
        Ok(Self {
            key,
            shard_idx,
            ring_epoch,
            total_len,
            archive_fnv,
            flags,
            shard: c.rest(),
        })
    }
}

/// A `get` request: fetch one stored shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetShardRequest {
    /// Archive key.
    pub key: String,
    /// Stripe slot.
    pub shard_idx: u16,
    /// The ring epoch the client routed under.
    pub ring_epoch: u64,
}

impl GetShardRequest {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.key.len());
        put_str(&mut out, &self.key);
        out.extend_from_slice(&self.shard_idx.to_le_bytes());
        out.extend_from_slice(&self.ring_epoch.to_le_bytes());
        out
    }

    /// Parses a get payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let key = c.str()?;
        check_key(&key)?;
        Ok(Self {
            key,
            shard_idx: c.u16()?,
            ring_epoch: c.u64()?,
        })
    }
}

/// A `get` response: the shard bytes plus the stripe metadata recorded
/// at put time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetShardResponse {
    /// Whole-archive byte length.
    pub total_len: u64,
    /// FNV-1a over the whole archive.
    pub archive_fnv: u64,
    /// The stored shard bytes.
    pub shard: Vec<u8>,
}

impl GetShardResponse {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.shard.len());
        out.extend_from_slice(&self.total_len.to_le_bytes());
        out.extend_from_slice(&self.archive_fnv.to_le_bytes());
        out.extend_from_slice(&self.shard);
        out
    }

    /// Parses a get response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        Ok(Self {
            total_len: c.u64()?,
            archive_fnv: c.u64()?,
            shard: c.rest().to_vec(),
        })
    }
}

/// One entry of a `list_shards` inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Archive key.
    pub key: String,
    /// Stripe slot.
    pub shard_idx: u16,
    /// Stored shard length in bytes.
    pub len: u64,
    /// FNV-1a over the stored shard bytes (re-verified at listing time;
    /// corrupt shards are dropped from the store and never listed).
    pub checksum: u64,
    /// Whole-archive byte length.
    pub total_len: u64,
    /// FNV-1a over the whole archive.
    pub archive_fnv: u64,
}

/// Minimum encoded size of one [`ShardRecord`] (empty key): guards the
/// count-prefixed decode against allocation lies.
const SHARD_RECORD_MIN_BYTES: usize = 2 + 2 + 8 + 8 + 8 + 8;

/// A `list_shards` response: the node's full shard inventory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardListResponse {
    /// Every shard the node stores, with checksums.
    pub records: Vec<ShardRecord>,
}

impl ShardListResponse {
    /// Serializes for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.records.len() * 48);
        out.extend_from_slice(&(self.records.len().min(u32::MAX as usize) as u32).to_le_bytes());
        for r in &self.records {
            put_str(&mut out, &r.key);
            out.extend_from_slice(&r.shard_idx.to_le_bytes());
            out.extend_from_slice(&r.len.to_le_bytes());
            out.extend_from_slice(&r.checksum.to_le_bytes());
            out.extend_from_slice(&r.total_len.to_le_bytes());
            out.extend_from_slice(&r.archive_fnv.to_le_bytes());
        }
        out
    }

    /// Parses a list response payload. The declared count is validated
    /// against the bytes actually present before any allocation.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cur::new(payload);
        let n = c.u32()? as usize;
        if n.saturating_mul(SHARD_RECORD_MIN_BYTES) > c.remaining() {
            return Err(WireError::BadPayload("shard list count exceeds payload"));
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(ShardRecord {
                key: c.str()?,
                shard_idx: c.u16()?,
                len: c.u64()?,
                checksum: c.u64()?,
                total_len: c.u64()?,
                archive_fnv: c.u64()?,
            });
        }
        Ok(Self { records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Compress as u8, FLAG_RESPONSE, 42, b"hello").unwrap();
        let frame = read_frame(&mut buf.as_slice(), MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!(frame.op, Op::Compress as u8);
        assert!(frame.is_response() && !frame.is_error());
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.payload, b"hello");
    }

    #[test]
    fn empty_stream_reads_as_clean_close() {
        assert_eq!(
            read_frame(&mut (&[] as &[u8]), MAX_FRAME_PAYLOAD),
            Err(WireError::Closed)
        );
    }

    #[test]
    fn every_truncation_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, 0, 7, b"payload bytes").unwrap();
        for cut in 1..buf.len() {
            let e = read_frame(&mut (&buf[..cut]), MAX_FRAME_PAYLOAD).unwrap_err();
            assert_eq!(e, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_version_and_oversize_are_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, 0, 7, b"x").unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAX_FRAME_PAYLOAD),
            Err(WireError::BadMagic(_))
        ));
        let mut bad = buf.clone();
        bad[4] = 0x7F;
        assert!(matches!(
            read_frame(&mut bad.as_slice(), MAX_FRAME_PAYLOAD),
            Err(WireError::UnsupportedVersion(_))
        ));
        // A frame cap below the declared length rejects before reading.
        assert!(matches!(
            read_frame(&mut buf.as_slice(), 0),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn payload_flips_fail_the_frame_checksum() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, 0, 9, b"sensitive payload").unwrap();
        buf[FRAME_HEADER_BYTES + 3] ^= 0x10;
        assert!(matches!(
            read_frame(&mut buf.as_slice(), MAX_FRAME_PAYLOAD),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn inflated_length_reports_truncation_not_oom() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, 0, 1, b"abc").unwrap();
        // Inflate the declared length far past the actual bytes; the
        // reader must hit EOF, not allocate 512 MiB up front.
        buf[16..20].copy_from_slice(&(512u32 << 20).to_le_bytes());
        assert_eq!(
            read_frame(&mut buf.as_slice(), MAX_FRAME_PAYLOAD),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn compress_request_roundtrip() {
        let data: Vec<u8> = (0..4096u32 * 4).map(|i| i as u8).collect();
        let req = CompressRequest {
            dims: Dims::D2 { ny: 64, nx: 64 },
            dtype: Dtype::F32,
            error_bound: ErrorBound::Relative(1e-3),
            workflow: WorkflowMode::Force(WorkflowChoice::Rle),
            predictor: PredictorMode::Auto,
            lossless: LosslessMode::Auto,
            chunk_target: 1 << 16,
            parity: Some(ParityConfig {
                data_shards: 8,
                parity_shards: 2,
            }),
            data: &data,
        };
        let bytes = req.encode();
        let back = CompressRequest::decode(&bytes).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn compress_request_rejects_unknown_plan_bits() {
        let data = vec![0u8; 16];
        let mut req = CompressRequest {
            dims: Dims::D1(4),
            dtype: Dtype::F32,
            error_bound: ErrorBound::Absolute(1e-3),
            workflow: WorkflowMode::Auto,
            predictor: PredictorMode::Force(Predictor::Lorenzo),
            lossless: LosslessMode::Off,
            chunk_target: 0,
            parity: None,
            data: &data,
        };
        // Locate the plan byte by diffing two encodings that differ only
        // in predictor mode — keeps the test honest about the layout
        // without hard-coding an offset.
        let base = req.encode();
        req.predictor = PredictorMode::Auto;
        let other = req.encode();
        let plan_at = base
            .iter()
            .zip(&other)
            .position(|(a, b)| a != b)
            .expect("encodings must differ in the plan byte");

        // Unknown predictor tag in the low bits, and an unassigned high
        // bit: both must come back as a typed error, never a silent
        // reinterpretation.
        for bad in [3u8, 0x04, 0x20, 0xff] {
            let mut bytes = base.clone();
            bytes[plan_at] = bad;
            assert_eq!(
                CompressRequest::decode(&bytes),
                Err(WireError::BadPayload("bad predictor tag")),
                "plan byte {bad:#04x} must be rejected"
            );
        }
        // The known bits still round-trip.
        let mut bytes = base.clone();
        bytes[plan_at] = 0x12; // auto predictor + auto lossless
        let back = CompressRequest::decode(&bytes).unwrap();
        assert_eq!(back.predictor, PredictorMode::Auto);
        assert_eq!(back.lossless, LosslessMode::Auto);
    }

    #[test]
    fn compress_request_rejects_geometry_lies() {
        let data = vec![0u8; 16];
        let req = CompressRequest {
            dims: Dims::D1(4),
            dtype: Dtype::F32,
            error_bound: ErrorBound::Absolute(1e-3),
            workflow: WorkflowMode::Auto,
            predictor: PredictorMode::Force(Predictor::Lorenzo),
            lossless: LosslessMode::Off,
            chunk_target: 0,
            parity: None,
            data: &data,
        };
        let mut bytes = req.encode();
        bytes.truncate(bytes.len() - 4); // data no longer matches dims
        assert!(CompressRequest::decode(&bytes).is_err());
        // Axis beyond u32: rejected before any multiplication.
        let mut huge = req.encode();
        huge[1..9].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(CompressRequest::decode(&huge).is_err());
    }

    #[test]
    fn decompress_and_info_roundtrip() {
        let req = DecompressRequest {
            mode: DecompressMode::Recover(cuszp_core::FillPolicy::Zero),
            archive: b"not really an archive",
        };
        assert_eq!(DecompressRequest::decode(&req.encode()).unwrap(), req);

        let resp = DecompressResponse {
            dtype: Dtype::F64,
            dims: Dims::D1(3),
            report: None,
            data: vec![0u8; 24],
        };
        assert_eq!(DecompressResponse::decode(&resp.encode()).unwrap(), resp);

        let info = RemoteInfo {
            format: "csz2".to_string(),
            dtype: Dtype::F32,
            dims: Dims::D3 {
                nz: 2,
                ny: 3,
                nx: 4,
            },
            eb: 1e-4,
            n_chunks: 2,
            parity: Some((8, 2)),
            stored_bytes: 12345,
        };
        assert_eq!(RemoteInfo::decode(&info.encode()).unwrap(), info);
    }

    #[test]
    fn get_range_request_roundtrip_and_rejections() {
        let req = GetRangeRequest {
            mode: DecompressMode::Strict,
            spec: cuszp_core::RangeSpec::new(vec![2..5, 10..90]),
            archive: b"archive bytes",
        };
        let bytes = req.encode();
        assert_eq!(GetRangeRequest::decode(&bytes).unwrap(), req);
        let req = GetRangeRequest {
            mode: DecompressMode::Recover(cuszp_core::FillPolicy::Zero),
            spec: cuszp_core::RangeSpec::new(vec![0..1, 0..2, 3..4]),
            archive: &[],
        };
        assert_eq!(GetRangeRequest::decode(&req.encode()).unwrap(), req);

        // Bad mode, bad rank, and oversized endpoints are typed.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(GetRangeRequest::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[1] = 0;
        assert!(GetRangeRequest::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[1] = 4;
        assert!(GetRangeRequest::decode(&bad).is_err());
        let mut bad = bytes.clone();
        bad[2..10].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(GetRangeRequest::decode(&bad).is_err());
        // Truncated mid-axis is typed, never a panic.
        for cut in 0..18 {
            assert!(GetRangeRequest::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn get_range_is_additive_to_the_op_table() {
        assert_eq!(Op::GetRange as u8, 7);
        assert_eq!(Op::from_u8(7), Some(Op::GetRange));
        assert_eq!(Op::GetRange.name(), "get_range");
        // Existing tags are untouched — the op is strictly additive.
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as u8, i as u8);
        }
    }

    #[test]
    fn error_response_roundtrip() {
        let e = ErrorResponse::new(ErrorCode::Busy, "queue full (16 waiting)");
        assert_eq!(ErrorResponse::decode(&e.encode()).unwrap(), e);
        assert!(e.to_string().contains("busy"));
    }

    #[test]
    fn retry_after_hint_is_additive() {
        let e = ErrorResponse::new(ErrorCode::Unavailable, "draining")
            .with_retry_after(std::time::Duration::from_millis(250));
        let bytes = e.encode();
        let back = ErrorResponse::decode(&bytes).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.retry_after_ms, Some(250));
        assert!(back.to_string().contains("retry after 250 ms"));
        // A version-1 encoder omits the trailing hint; the new decoder
        // reads that as "no hint" — both directions interoperate.
        let v1 = ErrorResponse::new(ErrorCode::Busy, "queue full");
        let back = ErrorResponse::decode(&v1.encode()).unwrap();
        assert_eq!(back.retry_after_ms, None);
    }

    #[test]
    fn version_window_accepts_v1_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, Op::Ping as u8, 0, 3, b"").unwrap();
        buf[4..6].copy_from_slice(&1u16.to_le_bytes());
        let frame = read_frame(&mut buf.as_slice(), MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!(frame.req_id, 3);
        // Below the window and above it are both rejected.
        for v in [0u16, WIRE_VERSION + 1] {
            let mut bad = buf.clone();
            bad[4..6].copy_from_slice(&v.to_le_bytes());
            assert_eq!(
                read_frame(&mut bad.as_slice(), MAX_FRAME_PAYLOAD),
                Err(WireError::UnsupportedVersion(v))
            );
        }
    }

    #[test]
    fn health_is_additive_to_the_op_table() {
        assert_eq!(Op::Health as u8, 8);
        assert_eq!(Op::from_u8(8), Some(Op::Health));
        assert_eq!(Op::Health.name(), "health");
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as u8, i as u8);
        }
    }

    #[test]
    fn health_response_roundtrip() {
        let h = HealthResponse {
            queue_depth: 3,
            queue_capacity: 16,
            draining: true,
            active_connections: 5,
            workers: 2,
            retry_after_ms: 100,
            cluster: None,
        };
        assert_eq!(HealthResponse::decode(&h.encode()).unwrap(), h);
        let mut bad = h.encode();
        bad[8] = 7; // draining flag must be 0 or 1
        assert!(HealthResponse::decode(&bad).is_err());
    }

    #[test]
    fn health_cluster_identity_is_additive() {
        let h = HealthResponse {
            queue_depth: 0,
            queue_capacity: 16,
            draining: false,
            active_connections: 1,
            workers: 2,
            retry_after_ms: 100,
            cluster: Some(ClusterIdentity {
                node_id: 7,
                ring_epoch: 42,
            }),
        };
        let bytes = h.encode();
        assert_eq!(HealthResponse::decode(&bytes).unwrap(), h);
        // A version-2 peer encodes only the 21 fixed bytes; the new
        // decoder reads that as "not clustered".
        let back = HealthResponse::decode(&bytes[..21]).unwrap();
        assert_eq!(back.cluster, None);
        assert_eq!(back.retry_after_ms, 100);
    }

    #[test]
    fn cluster_ops_are_additive_to_the_op_table() {
        assert_eq!(Op::Ring as u8, 9);
        assert_eq!(Op::Put as u8, 10);
        assert_eq!(Op::Get as u8, 11);
        assert_eq!(Op::ListShards as u8, 12);
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op as u8, i as u8);
            assert_eq!(Op::from_u8(i as u8), Some(op));
        }
        // All cluster ops are pure functions of their payloads.
        for op in [Op::Ring, Op::Put, Op::Get, Op::ListShards] {
            assert!(op.is_idempotent(), "{}", op.name());
        }
        // Routing signals must not be blind-retried against the same
        // node; a plain miss is terminal too.
        assert!(!ErrorCode::Redirect.is_transient());
        assert!(!ErrorCode::NotMine.is_transient());
        assert!(!ErrorCode::NotFound.is_transient());
        for code in [ErrorCode::Redirect, ErrorCode::NotMine, ErrorCode::NotFound] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
    }

    #[test]
    fn redirect_tail_is_additive_and_unambiguous() {
        // Redirect with no explicit retry hint: encoding forces a zero
        // hint so the tails never alias.
        let e = ErrorResponse::new(ErrorCode::NotMine, "shard 2 of k1 lives elsewhere")
            .with_redirect(5, 3, "127.0.0.1:7119");
        let bytes = e.encode();
        let back = ErrorResponse::decode(&bytes).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.retry_after_ms, Some(0));
        let r = back.redirect.unwrap();
        assert_eq!(
            (r.epoch, r.owner_id, r.owner_addr.as_str()),
            (5, 3, "127.0.0.1:7119")
        );
        assert!(e.to_string().contains("owner 3 at 127.0.0.1:7119"));

        // Redirect stacked on a real retry hint round-trips both.
        let e = ErrorResponse::new(ErrorCode::Redirect, "ring epoch 4 is stale")
            .with_retry_after(std::time::Duration::from_millis(50))
            .with_redirect(5, 1, "127.0.0.1:7117");
        let back = ErrorResponse::decode(&e.encode()).unwrap();
        assert_eq!(back.retry_after_ms, Some(50));
        assert!(back.redirect.is_some());

        // A version-2 answer (retry hint, no redirect) still parses as
        // having no redirect — the 4-byte hint can never be mistaken
        // for the ≥18-byte tail.
        let v2 = ErrorResponse::new(ErrorCode::Busy, "queue full")
            .with_retry_after(std::time::Duration::from_millis(250));
        let back = ErrorResponse::decode(&v2.encode()).unwrap();
        assert_eq!(back.retry_after_ms, Some(250));
        assert_eq!(back.redirect, None);

        // Truncations anywhere inside the tail parse as absence or a
        // typed error, never a panic.
        for cut in 0..bytes.len() {
            let _ = ErrorResponse::decode(&bytes[..cut]);
        }
    }

    #[test]
    fn shard_payloads_roundtrip_and_reject() {
        let put = PutShardRequest {
            key: "climate/tmax".to_string(),
            shard_idx: 2,
            ring_epoch: 7,
            total_len: 100_000,
            archive_fnv: 0xDEAD_BEEF,
            flags: PUT_FLAG_REPAIR,
            shard: b"shard bytes",
        };
        let bytes = put.encode();
        assert_eq!(PutShardRequest::decode(&bytes).unwrap(), put);
        // Unknown flag bits are typed errors.
        let mut bad = bytes.clone();
        let flags_at = 2 + put.key.len() + 2 + 8 + 8 + 8;
        bad[flags_at] = 0x80;
        assert!(PutShardRequest::decode(&bad).is_err());
        // Empty keys are rejected before touching the store.
        let empty = PutShardRequest {
            key: String::new(),
            ..put.clone()
        };
        assert!(PutShardRequest::decode(&empty.encode()).is_err());

        let get = GetShardRequest {
            key: "climate/tmax".to_string(),
            shard_idx: 2,
            ring_epoch: 7,
        };
        assert_eq!(GetShardRequest::decode(&get.encode()).unwrap(), get);

        let resp = GetShardResponse {
            total_len: 100_000,
            archive_fnv: 0xDEAD_BEEF,
            shard: vec![1, 2, 3],
        };
        assert_eq!(GetShardResponse::decode(&resp.encode()).unwrap(), resp);

        let list = ShardListResponse {
            records: vec![
                ShardRecord {
                    key: "a".into(),
                    shard_idx: 0,
                    len: 10,
                    checksum: 1,
                    total_len: 20,
                    archive_fnv: 2,
                },
                ShardRecord {
                    key: "b".into(),
                    shard_idx: 1,
                    len: 10,
                    checksum: 3,
                    total_len: 20,
                    archive_fnv: 4,
                },
            ],
        };
        let bytes = list.encode();
        assert_eq!(ShardListResponse::decode(&bytes).unwrap(), list);
        // A lying count is rejected before allocation.
        let mut lying = bytes.clone();
        lying[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ShardListResponse::decode(&lying).is_err());
        // Truncations are typed, never panics.
        for cut in 0..bytes.len() {
            let _ = ShardListResponse::decode(&bytes[..cut]);
        }
    }

    #[test]
    fn only_shutdown_is_non_idempotent() {
        for op in Op::ALL {
            assert_eq!(op.is_idempotent(), op != Op::Shutdown, "{}", op.name());
        }
        // Transient codes are exactly the load-shedding + transit-damage
        // classes a retry loop may re-issue against.
        assert!(ErrorCode::Busy.is_transient());
        assert!(ErrorCode::Unavailable.is_transient());
        assert!(ErrorCode::MalformedFrame.is_transient());
        assert!(!ErrorCode::BadRequest.is_transient());
        assert!(!ErrorCode::Pipeline.is_transient());
    }
}
