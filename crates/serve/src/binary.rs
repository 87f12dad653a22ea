//! CKP1: the binary wire protocol, negotiated per connection.
//!
//! JSON framing ([`crate::protocol`]) stays the compat mode; CKP1 is the
//! compact encoding the server and the nonblocking load generator
//! speak. It reuses the workspace's binary-format conventions
//! from CKS1/CKW1 (`circlekit-store`): a fixed magic, little-endian
//! integers, and a CRC-32-guarded payload.
//!
//! # Frame layout
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CKP1"
//!      4     1  kind: 0 = request, 1 = response
//!      5     1  reserved, must be 0
//!      6     2  op id, u16 LE (response frames echo the request's op;
//!               0xFFFF when the op could not be decoded)
//!      8     4  payload length, u32 LE (≤ MAX_FRAME_LEN)
//!     12     4  CRC-32 of the payload, u32 LE (CKS1 polynomial)
//!     16     …  payload
//! ```
//!
//! The first byte of every CKP1 frame is `b'C'` (0x43). A JSON frame
//! starts with its 4-byte big-endian length, whose first byte is ≤ 0x01
//! for any payload within the 16 MiB ceiling — so the server sniffs one
//! byte to pick the connection's mode, and the two protocols can share
//! a port without ambiguity.
//!
//! # Payloads
//!
//! A request payload is the op's argument map in the *bval* encoding
//! below (the `"op"` key travels in the header, not the map). A response
//! payload is the entire response envelope (`{"ok":…}`) in bval: the
//! server encodes the same tree it would render as JSON. Response trees
//! hold only values JSON carries losslessly (unsigned integers, finite
//! floats; non-finite scores travel as `null`), so a binary client
//! decodes the exact [`Value`] tree a JSON client parses — score tables
//! render byte-identically by construction.
//!
//! *bval* is a tagged little-endian encoding of the [`Value`] tree:
//!
//! ```text
//! tag  value      encoding after the tag byte
//!   0  Null       —
//!   1  Bool false —
//!   2  Bool true  —
//!   3  UInt       u64 LE
//!   4  Int        i64 LE
//!   5  Float      f64 bits LE (bit-exact, no decimal round-trip)
//!   6  Str        u32 LE byte length + UTF-8 bytes
//!   7  Seq        u32 LE count + elements
//!   8  Map        u32 LE count + (Str-encoded key, value) pairs
//! ```

use crate::protocol::{ErrorKind, FrameError, Request, RequestError, MAX_FRAME_LEN};
use circlekit_store::crc32;
use serde_json::Value;
use std::io::{self, Read, Write};

/// Every CKP1 frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"CKP1";

/// Fixed frame header length.
pub const HEADER_LEN: usize = 16;

/// Header `kind` of a request frame.
pub const KIND_REQUEST: u8 = 0;

/// Header `kind` of a response frame.
pub const KIND_RESPONSE: u8 = 1;

/// The op id a response echoes when the request's op was undecodable.
pub const OP_UNKNOWN: u16 = 0xFFFF;

/// The stable op-id table. Ids are append-only: new ops take the next
/// number, existing numbers never change meaning.
pub const OPS: &[(u16, &str)] = &[
    (1, "health"),
    (2, "stats"),
    (3, "shutdown"),
    (4, "list_snapshots"),
    (5, "list_groups"),
    (6, "score_group"),
    (7, "score_set"),
    (8, "baseline"),
    (9, "apply_mutations"),
    (10, "compact"),
    (11, "watch_scores"),
    (12, "suggest_circles"),
    (13, "replicate"),
    (14, "repl_ack"),
    (15, "repl_status"),
    (16, "shard_stats"),
    (17, "debug_sleep"),
];

/// The wire name of an op id.
pub fn op_name(id: u16) -> Option<&'static str> {
    OPS.iter().find(|(i, _)| *i == id).map(|(_, name)| *name)
}

/// The op id of a wire name.
pub fn op_id(name: &str) -> Option<u16> {
    OPS.iter().find(|(_, n)| *n == name).map(|(id, _)| *id)
}

/// Why a byte sequence is not a CKP1 frame. Every variant means the
/// stream can no longer be trusted — the server answers once with a
/// typed error and closes the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The kind byte is neither request nor response.
    BadKind(u8),
    /// The reserved byte is non-zero.
    BadReserved(u8),
    /// The payload length exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload's CRC-32 does not match the header.
    BadCrc {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes that arrived.
        actual: u32,
    },
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::BadMagic(bytes) => {
                write!(f, "bad CKP1 magic {bytes:02x?}")
            }
            BinaryError::BadKind(kind) => write!(f, "bad CKP1 frame kind {kind}"),
            BinaryError::BadReserved(byte) => {
                write!(f, "CKP1 reserved byte is {byte}, must be 0")
            }
            BinaryError::TooLarge(len) => {
                write!(f, "CKP1 payload length {len} exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            BinaryError::BadCrc { expected, actual } => {
                write!(f, "CKP1 payload CRC {actual:#010x}, header promised {expected:#010x}")
            }
        }
    }
}

impl std::error::Error for BinaryError {}

/// One parsed CKP1 frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// [`KIND_REQUEST`] or [`KIND_RESPONSE`].
    pub kind: u8,
    /// The op id (see [`OPS`]).
    pub op: u16,
    /// The raw bval payload, CRC-verified.
    pub payload: Vec<u8>,
}

/// Encodes a complete frame.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_FRAME_LEN`] — callers build payloads from
/// requests/responses that are framed-size-checked on the JSON path too.
pub fn encode_frame(kind: u8, op: u16, payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN, "CKP1 payload exceeds MAX_FRAME_LEN");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(kind);
    out.push(0);
    out.extend_from_slice(&op.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental parse for nonblocking readers: examines the front of
/// `buf` and returns the first complete frame plus the byte count to
/// drain, or `None` when more bytes are needed.
///
/// # Errors
///
/// [`BinaryError`] as soon as the prefix is provably malformed — a bad
/// magic or oversized length is rejected from the header alone, without
/// waiting for (or allocating) the payload.
pub fn try_parse(buf: &[u8]) -> Result<Option<(Frame, usize)>, BinaryError> {
    if buf.len() < 4 {
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            let mut seen = [0u8; 4];
            seen[..buf.len()].copy_from_slice(buf);
            return Err(BinaryError::BadMagic(seen));
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(BinaryError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let kind = buf[4];
    if kind != KIND_REQUEST && kind != KIND_RESPONSE {
        return Err(BinaryError::BadKind(kind));
    }
    if buf[5] != 0 {
        return Err(BinaryError::BadReserved(buf[5]));
    }
    let op = u16::from_le_bytes([buf[6], buf[7]]);
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(BinaryError::TooLarge(len));
    }
    let expected = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]);
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let actual = crc32(payload);
    if actual != expected {
        return Err(BinaryError::BadCrc { expected, actual });
    }
    Ok(Some((Frame { kind, op, payload: payload.to_vec() }, HEADER_LEN + len)))
}

/// Blocking frame read for clients, tolerant of read timeouts exactly
/// like [`crate::protocol::read_frame_patiently`]: `keep_waiting(started)`
/// decides whether to keep going after a timeout; returning `false`
/// abandons the read with `Ok(None)`.
///
/// # Errors
///
/// `Ok`-wrapped malformedness is impossible — a malformed prefix is
/// `Err(Malformed)`, transport trouble is `Err(Frame)` with the same
/// [`FrameError`] classes the JSON reader uses.
pub fn read_frame_patiently<R: Read>(
    r: &mut R,
    mut keep_waiting: impl FnMut(bool) -> bool,
) -> Result<Option<Frame>, ReadError> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    let mut chunk = [0u8; 4096];
    loop {
        match try_parse(&buf) {
            Ok(Some((frame, consumed))) => {
                debug_assert_eq!(consumed, buf.len(), "client reads stop at frame end");
                return Ok(Some(frame));
            }
            Ok(None) => {}
            Err(e) => return Err(ReadError::Malformed(e)),
        }
        // Read only up to the next known boundary (header end, then
        // payload end) so we never consume bytes of the following frame.
        let want = if buf.len() < HEADER_LEN {
            HEADER_LEN - buf.len()
        } else {
            let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
            HEADER_LEN + len - buf.len()
        };
        let want = want.min(chunk.len());
        match r.read(&mut chunk[..want]) {
            Ok(0) if buf.is_empty() => return Err(ReadError::Frame(FrameError::Closed)),
            Ok(0) => return Err(ReadError::Frame(FrameError::Truncated)),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                if !keep_waiting(!buf.is_empty()) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(ReadError::Frame(FrameError::Io(e))),
        }
    }
}

/// Why [`read_frame_patiently`] failed.
#[derive(Debug)]
pub enum ReadError {
    /// Transport-level trouble (close, truncation, I/O error).
    Frame(FrameError),
    /// The peer sent bytes that are not a CKP1 frame.
    Malformed(BinaryError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Frame(e) => e.fmt(f),
            ReadError::Malformed(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Propagates I/O errors; rejects oversized payloads with `InvalidInput`
/// before writing anything.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, op: u16, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("CKP1 payload of {} bytes exceeds {MAX_FRAME_LEN}", payload.len()),
        ));
    }
    w.write_all(&encode_frame(kind, op, payload))?;
    w.flush()
}

// ---------------------------------------------------------------------
// bval: the tagged binary Value encoding.
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_UINT: u8 = 3;
const TAG_INT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Appends the bval encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::UInt(n) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Int(n) => {
            out.push(TAG_INT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_str(s, out);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (key, item) in entries {
                encode_str(key, out);
                encode_value(item, out);
            }
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.at < n {
            return Err(format!(
                "bval truncated: need {n} bytes at offset {}, have {}",
                self.at,
                self.bytes.len() - self.at
            ));
        }
        let slice = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "bval string is not UTF-8".to_string())
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > 64 {
            return Err("bval nesting exceeds 64 levels".to_string());
        }
        let tag = self.take(1)?[0];
        match tag {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_UINT => Ok(Value::UInt(self.u64()?)),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::Str(self.str()?)),
            TAG_SEQ => {
                let count = self.u32()? as usize;
                // Guard against a hostile count: every element costs at
                // least a tag byte, so cap by the bytes that remain.
                if count > self.bytes.len() - self.at {
                    return Err(format!("bval sequence count {count} exceeds payload"));
                }
                let mut items = Vec::with_capacity(count);
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let count = self.u32()? as usize;
                if count > self.bytes.len() - self.at {
                    return Err(format!("bval map count {count} exceeds payload"));
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let key = self.str()?;
                    entries.push((key, self.value(depth + 1)?));
                }
                Ok(Value::Map(entries))
            }
            other => Err(format!("bval tag {other} is unknown")),
        }
    }
}

/// Decodes one bval value, requiring the payload to be exactly consumed.
///
/// # Errors
///
/// A message naming the first defect (truncation, bad tag, bad UTF-8,
/// trailing bytes).
pub fn decode_value(bytes: &[u8]) -> Result<Value, String> {
    let mut cursor = Cursor { bytes, at: 0 };
    let value = cursor.value(0)?;
    if cursor.at != bytes.len() {
        return Err(format!(
            "bval payload has {} trailing bytes after the value",
            bytes.len() - cursor.at
        ));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Request / response codecs on top of bval.
// ---------------------------------------------------------------------

/// Encodes a request as `(op id, bval argument map)` — the inverse of
/// [`decode_request`]. The argument map mirrors the JSON request object
/// exactly, minus the `"op"` key the header carries.
pub fn encode_request(request: &Request) -> (u16, Vec<u8>) {
    let (op, fields) = request_fields(request);
    let mut payload = Vec::new();
    encode_value(&Value::Map(fields), &mut payload);
    (op_id(op).expect("every Request variant has an op id"), payload)
}

/// Renders `request` in the JSON wire form: the same argument map the
/// CKP1 payload carries, plus the `"op"` key the JSON framing needs.
/// Lets one in-memory [`Request`] drive either protocol mode.
pub fn encode_request_json(request: &Request) -> String {
    let (op, mut fields) = request_fields(request);
    fields.insert(0, ("op".to_string(), Value::Str(op.to_string())));
    Value::Map(fields).to_string()
}

fn request_fields(request: &Request) -> (&'static str, Vec<(String, Value)>) {
    let s = |v: &str| Value::Str(v.to_string());
    let u = |v: u64| Value::UInt(v);
    let functions = |fns: &[circlekit_scoring::ScoringFunction]| {
        Value::Seq(fns.iter().map(|f| s(f.name())).collect())
    };
    let field = |k: &str, v: Value| (k.to_string(), v);
    match request {
        Request::Health => ("health", vec![]),
        Request::Stats => ("stats", vec![]),
        Request::Shutdown => ("shutdown", vec![]),
        Request::ListSnapshots => ("list_snapshots", vec![]),
        Request::ReplStatus => ("repl_status", vec![]),
        Request::ListGroups { snapshot } => ("list_groups", vec![field("snapshot", s(snapshot))]),
        Request::ScoreGroup { snapshot, group, functions: fns, deadline_ms } => {
            let mut fields = vec![
                field("snapshot", s(snapshot)),
                field("group", u(*group as u64)),
                field("functions", functions(fns)),
            ];
            if let Some(ms) = deadline_ms {
                fields.push(field("deadline_ms", u(*ms)));
            }
            ("score_group", fields)
        }
        Request::ScoreSet { snapshot, members, functions: fns, deadline_ms } => {
            let mut fields = vec![
                field("snapshot", s(snapshot)),
                field(
                    "members",
                    Value::Seq(members.iter().map(|m| u(u64::from(*m))).collect()),
                ),
                field("functions", functions(fns)),
            ];
            if let Some(ms) = deadline_ms {
                fields.push(field("deadline_ms", u(*ms)));
            }
            ("score_set", fields)
        }
        Request::Baseline { snapshot, group, functions: fns, samples, seed, deadline_ms } => {
            let mut fields = vec![
                field("snapshot", s(snapshot)),
                field("group", u(*group as u64)),
                field("functions", functions(fns)),
                field("samples", u(*samples as u64)),
                field("seed", u(*seed)),
            ];
            if let Some(ms) = deadline_ms {
                fields.push(field("deadline_ms", u(*ms)));
            }
            ("baseline", fields)
        }
        Request::ApplyMutations { snapshot, mutations } => (
            "apply_mutations",
            vec![
                field("snapshot", s(snapshot)),
                field(
                    "mutations",
                    Value::Seq(mutations.iter().map(|m| Value::Str(m.to_line())).collect()),
                ),
            ],
        ),
        Request::Compact { snapshot } => ("compact", vec![field("snapshot", s(snapshot))]),
        Request::WatchScores { snapshot, group } => (
            "watch_scores",
            vec![field("snapshot", s(snapshot)), field("group", u(*group as u64))],
        ),
        Request::SuggestCircles { snapshot, ego, seed, min_size, top } => (
            "suggest_circles",
            vec![
                field("snapshot", s(snapshot)),
                field("ego", u(u64::from(*ego))),
                field("seed", u(*seed)),
                field("min_size", u(*min_size as u64)),
                field("top", u(*top as u64)),
            ],
        ),
        Request::Replicate { snapshot, base_crc, wal_offset } => (
            "replicate",
            vec![
                field("snapshot", s(snapshot)),
                field("base_crc", u(u64::from(*base_crc))),
                field("wal_offset", u(*wal_offset)),
            ],
        ),
        Request::ReplAck { offset } => ("repl_ack", vec![field("offset", u(*offset))]),
        Request::ShardStats { snapshot, group, members, deadline_ms } => {
            let mut fields = vec![field("snapshot", s(snapshot))];
            if let Some(g) = group {
                fields.push(field("group", u(*g as u64)));
            }
            if let Some(ms) = members {
                fields.push(field(
                    "members",
                    Value::Seq(ms.iter().map(|m| u(u64::from(*m))).collect()),
                ));
            }
            if let Some(ms) = deadline_ms {
                fields.push(field("deadline_ms", u(*ms)));
            }
            ("shard_stats", fields)
        }
        Request::DebugSleep { millis } => ("debug_sleep", vec![field("millis", u(*millis))]),
    }
}

/// Decodes a CKP1 request frame's payload back into a [`Request`] —
/// the header's op id picks the wire name, the bval map supplies the
/// arguments, and validation is shared with the JSON path through
/// [`Request::parse_value`].
///
/// # Errors
///
/// `(ErrorKind::BadRequest, message)`: unknown op id, undecodable bval,
/// a non-map payload, or any argument defect the JSON parser would also
/// reject. The framing was already CRC-verified, so these errors keep
/// the connection alive.
pub fn decode_request(op: u16, payload: &[u8]) -> Result<Request, RequestError> {
    let name = op_name(op)
        .ok_or_else(|| (ErrorKind::BadRequest, format!("unknown op id {op}")))?;
    let value = decode_value(payload).map_err(|e| (ErrorKind::BadRequest, e))?;
    let Value::Map(mut entries) = value else {
        return Err((ErrorKind::BadRequest, "request payload must be a bval map".to_string()));
    };
    entries.insert(0, ("op".to_string(), Value::Str(name.to_string())));
    let request = Request::parse_value(&Value::Map(entries))?;
    // The header op must agree with itself by construction; guard the
    // invariant cheaply in debug builds.
    debug_assert_eq!(encode_request(&request).0, op);
    Ok(request)
}

/// Encodes an already-rendered JSON response envelope as a CKP1
/// response payload: the tree a JSON client would parse, in bval. The
/// server never takes this path — it encodes its response tree directly
/// with [`encode_value`] — but callers holding JSON text can.
///
/// # Errors
///
/// A message if `rendered` is not valid JSON (server responses always
/// are).
pub fn encode_response_payload(rendered: &str) -> Result<Vec<u8>, String> {
    let value: Value =
        serde_json::from_str(rendered).map_err(|e| format!("unencodable response: {e}"))?;
    let mut payload = Vec::new();
    encode_value(&value, &mut payload);
    Ok(payload)
}

/// Decodes a CKP1 response payload into the envelope [`Value`].
///
/// # Errors
///
/// A message naming the bval defect.
pub fn decode_response_payload(payload: &[u8]) -> Result<Value, String> {
    decode_value(payload)
}

/// True when a connection's first byte announces CKP1 rather than a
/// JSON length prefix (see the module docs for why this is unambiguous).
pub fn sniff_binary(first_byte: u8) -> bool {
    first_byte == MAGIC[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::wire;

    fn roundtrip(value: &Value) -> Value {
        let mut bytes = Vec::new();
        encode_value(value, &mut bytes);
        decode_value(&bytes).expect("roundtrip decode")
    }

    #[test]
    fn scalar_values_roundtrip_bit_exactly() {
        for value in [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::UInt(0),
            Value::UInt(u64::MAX),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Float(0.1 + 0.2),
            Value::Float(-0.0),
            Value::Str(String::new()),
            Value::Str("snapshot-α".to_string()),
        ] {
            assert_eq!(roundtrip(&value), value);
        }
        // Negative zero keeps its sign bit (JSON would lose it on some
        // formatters; bval is bit-exact).
        let Value::Float(z) = roundtrip(&Value::Float(-0.0)) else { panic!("float") };
        assert!(z.to_bits() == (-0.0f64).to_bits());
    }

    #[test]
    fn trees_roundtrip() {
        let tree = Value::Map(vec![
            ("ok".to_string(), Value::Bool(true)),
            (
                "scores".to_string(),
                Value::Seq(vec![Value::Float(1.5), Value::Null, Value::UInt(7)]),
            ),
            ("nested".to_string(), Value::Map(vec![("k".to_string(), Value::Str("v".into()))])),
        ]);
        assert_eq!(roundtrip(&tree), tree);
    }

    #[test]
    fn decode_rejects_defects() {
        // Trailing bytes.
        let mut bytes = Vec::new();
        encode_value(&Value::Null, &mut bytes);
        bytes.push(0);
        assert!(decode_value(&bytes).unwrap_err().contains("trailing"));
        // Unknown tag.
        assert!(decode_value(&[200]).unwrap_err().contains("unknown"));
        // Truncation at every prefix of a small map.
        let mut map = Vec::new();
        encode_value(
            &Value::Map(vec![("key".to_string(), Value::UInt(9))]),
            &mut map,
        );
        for cut in 0..map.len() {
            assert!(decode_value(&map[..cut]).is_err(), "prefix {cut} must not decode");
        }
        // Hostile element count.
        let mut seq = vec![TAG_SEQ];
        seq.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_value(&seq).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn frames_roundtrip_and_sniff() {
        let frame = encode_frame(KIND_REQUEST, 6, b"payload");
        assert!(sniff_binary(frame[0]));
        assert!(!sniff_binary(0x00));
        let (parsed, consumed) = try_parse(&frame).unwrap().expect("complete");
        assert_eq!(consumed, frame.len());
        assert_eq!(parsed, Frame { kind: KIND_REQUEST, op: 6, payload: b"payload".to_vec() });
        // Incremental: every proper prefix wants more bytes.
        for cut in 0..frame.len() {
            assert!(try_parse(&frame[..cut]).unwrap().is_none(), "prefix {cut}");
        }
        // Two frames back to back: the first parse reports its length.
        let mut two = frame.clone();
        two.extend_from_slice(&encode_frame(KIND_RESPONSE, 6, b"x"));
        let (first, consumed) = try_parse(&two).unwrap().expect("first frame");
        assert_eq!(first.payload, b"payload");
        let (second, _) = try_parse(&two[consumed..]).unwrap().expect("second frame");
        assert_eq!(second.kind, KIND_RESPONSE);
    }

    #[test]
    fn malformed_frames_are_typed() {
        let good = encode_frame(KIND_REQUEST, 1, b"abc");
        // Bad magic is detected from the very first wrong byte.
        assert!(matches!(try_parse(b"X"), Err(BinaryError::BadMagic(_))));
        assert!(matches!(try_parse(b"CKP2"), Err(BinaryError::BadMagic(_))));
        // JSON-looking bytes are a bad magic too, not a hang.
        assert!(matches!(try_parse(b"\x00\x00\x00\x05hello"), Err(BinaryError::BadMagic(_))));
        // Bad kind / reserved.
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(try_parse(&bad), Err(BinaryError::BadKind(9))));
        let mut bad = good.clone();
        bad[5] = 1;
        assert!(matches!(try_parse(&bad), Err(BinaryError::BadReserved(1))));
        // Oversized length is rejected from the header alone.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(try_parse(&bad), Err(BinaryError::TooLarge(_))));
        // A flipped payload bit fails the CRC.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(try_parse(&bad), Err(BinaryError::BadCrc { .. })));
    }

    #[test]
    fn requests_roundtrip_through_the_codec() {
        use circlekit_live::Mutation;
        use circlekit_scoring::ScoringFunction;
        let requests = vec![
            Request::Health,
            Request::ListGroups { snapshot: "gplus".to_string() },
            Request::ScoreGroup {
                snapshot: "gplus".to_string(),
                group: 3,
                functions: ScoringFunction::ALL.to_vec(),
                deadline_ms: Some(250),
            },
            Request::ApplyMutations {
                snapshot: "gplus".to_string(),
                mutations: vec![
                    Mutation::AddEdge { u: 1, v: 2 },
                    Mutation::AddVertex,
                    Mutation::RemoveMember { group: 0, node: 7 },
                ],
            },
            Request::ShardStats {
                snapshot: "gplus".to_string(),
                group: None,
                members: Some(vec![1, 2, 3]),
                deadline_ms: None,
            },
        ];
        for request in requests {
            let (op, payload) = encode_request(&request);
            let decoded = decode_request(op, &payload).expect("decode");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn unknown_op_id_is_a_bad_request() {
        let mut payload = Vec::new();
        encode_value(&Value::Map(vec![]), &mut payload);
        let err = decode_request(999, &payload).unwrap_err();
        assert_eq!(err.0, ErrorKind::BadRequest);
        assert!(err.1.contains("unknown op id"));
    }

    #[test]
    fn response_payload_is_the_parsed_json_tree() {
        let rendered = crate::protocol::ok_payload(vec![
            ("size".to_string(), Value::UInt(12)),
            ("score".to_string(), Value::Float(0.1 + 0.2)),
        ]);
        let payload = encode_response_payload(&rendered).unwrap();
        let tree = decode_response_payload(&payload).unwrap();
        let reparsed: Value = serde_json::from_str(&rendered).unwrap();
        assert_eq!(tree, reparsed);
    }

    #[test]
    fn op_table_is_bijective() {
        for (id, name) in OPS {
            assert_eq!(op_name(*id), Some(*name));
            assert_eq!(op_id(name), Some(*id));
        }
        assert_eq!(op_name(0), None);
        assert_eq!(op_name(OP_UNKNOWN), None);
        assert_eq!(op_id("nope"), None);
    }

    #[test]
    fn wire_helpers_read_binary_decoded_trees() {
        // Sanity: the wire::get helpers work on bval-decoded trees just
        // as on JSON-parsed ones (same Value type).
        let mut payload = Vec::new();
        encode_value(
            &Value::Map(vec![("groups".to_string(), Value::UInt(4))]),
            &mut payload,
        );
        let tree = decode_response_payload(&payload).unwrap();
        assert_eq!(wire::get_u64(&tree, "groups").unwrap(), 4);
    }
}
