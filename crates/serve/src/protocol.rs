//! The CKSP wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames longer than [`MAX_FRAME_LEN`] are rejected before any payload
//! byte is read, so a hostile length prefix can never make the server
//! allocate unboundedly.
//!
//! Requests are JSON objects with an `"op"` field; every other field is
//! op-specific (see [`Request`]). Responses always carry `"ok"`: `true`
//! with op-specific result fields, or `false` with a typed
//! `{"error":{"kind":...,"message":...}}` object whose kind is one of
//! [`ErrorKind`]. Scores travel as plain JSON numbers (Rust's shortest
//! round-trip `f64` formatting, so the bits survive the wire exactly);
//! non-finite scores serialise as `null` and deserialise as NaN.

use circlekit_live::Mutation;
use circlekit_scoring::ScoringFunction;
use serde_json::Value;
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload length (16 MiB).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Default number of random-walk baseline samples per request.
pub const DEFAULT_BASELINE_SAMPLES: usize = 10;

/// Most random-walk baseline samples one request may ask for. Every
/// sampled set is held in memory at once, so larger counts are refused
/// with `bad-request` before any work is queued.
pub const MAX_BASELINE_SAMPLES: usize = 10_000;

/// Typed failure classes a response can carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparsable or semantically invalid request.
    BadRequest,
    /// The request queue is full; retry later.
    Overloaded,
    /// Unknown snapshot id or group index.
    NotFound,
    /// The request's deadline expired before (or while) it was served.
    DeadlineExceeded,
    /// A frame announced a payload longer than [`MAX_FRAME_LEN`].
    FrameTooLarge,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// A write (or a replication subscription) was sent to a replica —
    /// only the primary accepts mutations.
    NotPrimary,
    /// A replication handshake or stream does not match this server's
    /// history (wrong base CRC, or an offset that is not a committed
    /// frame boundary).
    ReplicationMismatch,
    /// A coordinator could not gather every shard's partial result; the
    /// message names the unreachable shard. Scatter-gather answers are
    /// exact or refused — never silently partial.
    ShardUnavailable,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The stable wire name of this kind.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::NotFound => "not-found",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::FrameTooLarge => "frame-too-large",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::NotPrimary => "not-primary",
            ErrorKind::ReplicationMismatch => "replication-mismatch",
            ErrorKind::ShardUnavailable => "shard-unavailable",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::NotFound,
            ErrorKind::DeadlineExceeded,
            ErrorKind::FrameTooLarge,
            ErrorKind::ShuttingDown,
            ErrorKind::NotPrimary,
            ErrorKind::ReplicationMismatch,
            ErrorKind::ShardUnavailable,
            ErrorKind::Internal,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A request-level failure: the typed kind plus a human-readable message.
pub type RequestError = (ErrorKind, String);

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Health,
    /// Service counters (queue, cache, batching).
    Stats,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Enumerate loaded snapshots.
    ListSnapshots,
    /// Enumerate the group sizes of one snapshot.
    ListGroups {
        /// Snapshot id.
        snapshot: String,
    },
    /// Score one stored group of a snapshot.
    ScoreGroup {
        /// Snapshot id.
        snapshot: String,
        /// Group index within the snapshot.
        group: usize,
        /// Functions to evaluate (defaults to the paper's four).
        functions: Vec<ScoringFunction>,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Score an ad-hoc vertex set.
    ScoreSet {
        /// Snapshot id.
        snapshot: String,
        /// The set's members (validated against the snapshot's graph).
        members: Vec<u32>,
        /// Functions to evaluate (defaults to the paper's four).
        functions: Vec<ScoringFunction>,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Score a stored group against its size-matched random-walk
    /// baseline (the paper's §V-A comparison), seeded so the response is
    /// deterministic.
    Baseline {
        /// Snapshot id.
        snapshot: String,
        /// Group index within the snapshot.
        group: usize,
        /// Functions to evaluate (defaults to the paper's four).
        functions: Vec<ScoringFunction>,
        /// Number of size-matched random-walk sets to draw.
        samples: usize,
        /// Root seed of the per-walk RNG streams.
        seed: u64,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Apply a batch of live mutations to a snapshot. The batch is
    /// WAL-committed atomically up to the first rejection; a commit bumps
    /// the snapshot's materialization version and invalidates the cached
    /// scores it touched.
    ApplyMutations {
        /// Snapshot id.
        snapshot: String,
        /// The mutations, in application order.
        mutations: Vec<Mutation>,
    },
    /// Fold a snapshot's WAL back into its CKS1 file (atomic tmp +
    /// rename). The composed graph is unchanged, so no cache entry is
    /// invalidated.
    Compact {
        /// Snapshot id.
        snapshot: String,
    },
    /// Read one group's paper scores straight from the incrementally
    /// maintained aggregates — O(1), no scoring job, no queueing — along
    /// with the snapshot's current mutation version.
    WatchScores {
        /// Snapshot id.
        snapshot: String,
        /// Group index within the snapshot.
        group: usize,
    },
    /// Suggest circles for one ego: seeded structural discovery over the
    /// ego-induced subgraph of the snapshot's base plus its committed
    /// overlay. Responses are cached per
    /// `(snapshot, ego, parameters)` under the version-keyed scheme;
    /// mutations touching an ego's neighbourhood evict only that ego.
    SuggestCircles {
        /// Snapshot id.
        snapshot: String,
        /// The ego whose neighbourhood is clustered.
        ego: u32,
        /// Root seed of the tie-break streams.
        seed: u64,
        /// Smallest candidate circle returned.
        min_size: usize,
        /// Ranked candidates returned (0 = all).
        top: usize,
    },
    /// Subscribe this connection to a snapshot's WAL stream. The
    /// subscriber presents the CRC of its own base snapshot file and the
    /// offset (committed record bytes past the WAL header) it has
    /// already applied; the primary replays from that offset, then tails
    /// live batches on the same connection until either side closes.
    Replicate {
        /// Snapshot id.
        snapshot: String,
        /// CRC-32 of the subscriber's base snapshot file. Must equal the
        /// primary's — otherwise the two WALs describe different
        /// histories and the stream is refused (`replication-mismatch`).
        base_crc: u32,
        /// Last WAL offset the subscriber has durably applied.
        wal_offset: u64,
    },
    /// Acknowledges a replication batch: sent by the subscriber, on the
    /// subscription connection, after the batch is applied and durably
    /// appended to its own WAL.
    ReplAck {
        /// The `next_offset` of the acknowledged batch.
        offset: u64,
    },
    /// Replication status: the server's role, per-snapshot stream
    /// positions and, on a primary, the offsets its subscribers acked.
    ReplStatus,
    /// The scatter half of coordinator scoring: return this shard's raw
    /// partial `SetStats` terms for one *global* vertex set (only owned
    /// members contribute). The set is named either by a group index
    /// (every shard sub-snapshot carries the full group list) or by
    /// explicit members — exactly one of the two. The response echoes
    /// the shard manifest so the gatherer can refuse mismatched
    /// topologies.
    ShardStats {
        /// Snapshot id.
        snapshot: String,
        /// Group index naming the set (mutually exclusive with
        /// `members`).
        group: Option<usize>,
        /// The global set's members (mutually exclusive with `group`).
        members: Option<Vec<u32>>,
        /// Optional per-request deadline in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Test-only: occupy a worker for `millis`. Rejected unless the
    /// server was started with `debug_ops` (integration tests use it to
    /// fill the queue deterministically).
    DebugSleep {
        /// How long the worker sleeps.
        millis: u64,
    },
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`] with
/// `InvalidInput`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds {MAX_FRAME_LEN}", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Why [`read_frame`] stopped without producing a payload.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload is not UTF-8.
    NotUtf8,
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            FrameError::NotUtf8 => write!(f, "frame payload is not UTF-8"),
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one frame, blocking until it is complete.
///
/// # Errors
///
/// [`FrameError::Closed`] on EOF at a frame boundary, and the other
/// [`FrameError`] variants for every malformed input class.
pub fn read_frame<R: Read>(r: &mut R) -> Result<String, FrameError> {
    match read_frame_patiently(r, |_| true) {
        Ok(Some(payload)) => Ok(payload),
        Ok(None) => unreachable!("keep_waiting never gives up"),
        Err(e) => Err(e),
    }
}

/// Like [`read_frame`], but tolerant of read timeouts (`WouldBlock` /
/// `TimedOut`): partial progress is preserved and `keep_waiting` decides
/// whether to keep going. Its argument says whether the frame has
/// started (any byte consumed); returning `false` abandons the read and
/// yields `Ok(None)`.
///
/// This is what lets a server poll a shutdown flag between timeouts
/// without ever desynchronising the stream on a slow writer.
///
/// # Errors
///
/// As [`read_frame`], except timeouts are routed to `keep_waiting`
/// instead of surfacing as [`FrameError::Io`].
pub fn read_frame_patiently<R: Read>(
    r: &mut R,
    mut keep_waiting: impl FnMut(bool) -> bool,
) -> Result<Option<String>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if !keep_waiting(filled > 0) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if !keep_waiting(true) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| FrameError::NotUtf8)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Field-extraction helpers over the JSON [`Value`] tree.
pub mod wire {
    use super::*;

    /// Looks a key up in a JSON object.
    pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
        match value {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required string field.
    pub fn get_str(value: &Value, key: &str) -> Result<String, RequestError> {
        match get(value, key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(other) => Err(bad(format!("field {key:?} must be a string, got {other}"))),
            None => Err(bad(format!("missing field {key:?}"))),
        }
    }

    /// An optional unsigned integer field.
    pub fn get_u64_opt(value: &Value, key: &str) -> Result<Option<u64>, RequestError> {
        match get(value, key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::UInt(u)) => Ok(Some(*u)),
            Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            Some(other) => {
                Err(bad(format!("field {key:?} must be a non-negative integer, got {other}")))
            }
        }
    }

    /// A required unsigned integer field.
    pub fn get_u64(value: &Value, key: &str) -> Result<u64, RequestError> {
        get_u64_opt(value, key)?.ok_or_else(|| bad(format!("missing field {key:?}")))
    }

    /// A numeric field widened to `f64`; `null` decodes as NaN (the wire
    /// encoding of non-finite scores).
    pub fn as_f64(value: &Value) -> Option<f64> {
        match value {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::UInt(u) => Some(*u as f64),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// A required array of scores (`f64`, `null` ⇒ NaN).
    pub fn get_scores(value: &Value, key: &str) -> Result<Vec<f64>, RequestError> {
        let Some(Value::Seq(items)) = get(value, key) else {
            return Err(bad(format!("missing array field {key:?}")));
        };
        items
            .iter()
            .map(|v| as_f64(v).ok_or_else(|| bad(format!("field {key:?} holds a non-number"))))
            .collect()
    }

    /// A required array of `u32` vertex ids.
    pub fn get_u32_array(value: &Value, key: &str) -> Result<Vec<u32>, RequestError> {
        let Some(Value::Seq(items)) = get(value, key) else {
            return Err(bad(format!("missing array field {key:?}")));
        };
        items
            .iter()
            .map(|v| match v {
                Value::UInt(u) if *u <= u64::from(u32::MAX) => Ok(*u as u32),
                Value::Int(i) if *i >= 0 && *i <= i64::from(u32::MAX) => Ok(*i as u32),
                other => Err(bad(format!("field {key:?} holds a non-vertex-id value {other}"))),
            })
            .collect()
    }

    /// Encodes one score: finite values stay numbers, non-finite become
    /// `null` (NaN on the way back in).
    pub fn score_value(score: f64) -> Value {
        if score.is_finite() {
            Value::Float(score)
        } else {
            Value::Null
        }
    }

    /// Encodes a score slice as a JSON array.
    pub fn score_array(scores: &[f64]) -> Value {
        Value::Seq(scores.iter().map(|&s| score_value(s)).collect())
    }

    pub(super) fn bad(message: String) -> RequestError {
        (ErrorKind::BadRequest, message)
    }
}

/// Parses the scoring-function list of a request: absent or `null` means
/// the paper's four functions; `"all"` as a string means the full
/// 13-function suite.
fn parse_functions(value: &Value) -> Result<Vec<ScoringFunction>, RequestError> {
    match wire::get(value, "functions") {
        None | Some(Value::Null) => Ok(ScoringFunction::PAPER.to_vec()),
        Some(Value::Str(s)) if s == "all" => Ok(ScoringFunction::ALL.to_vec()),
        Some(Value::Str(s)) if s == "paper" => Ok(ScoringFunction::PAPER.to_vec()),
        Some(Value::Seq(items)) => {
            if items.is_empty() {
                return Err(wire::bad("field \"functions\" must not be empty".to_string()));
            }
            items
                .iter()
                .map(|item| match item {
                    Value::Str(name) => ScoringFunction::from_name(name).ok_or_else(|| {
                        wire::bad(format!("unknown scoring function {name:?}"))
                    }),
                    other => Err(wire::bad(format!(
                        "field \"functions\" holds a non-string value {other}"
                    ))),
                })
                .collect()
        }
        Some(other) => Err(wire::bad(format!(
            "field \"functions\" must be an array of names, \"paper\", or \"all\", got {other}"
        ))),
    }
}

/// Parses the `mutations` array of an `apply_mutations` request. Each
/// element is either the one-line text form (`"add-edge 3 17"`) or an
/// object form (`{"op":"add_edge","u":3,"v":17}`, with `group`/`node`
/// for membership ops); hyphens and underscores in op names are
/// interchangeable.
fn parse_mutations(value: &Value) -> Result<Vec<Mutation>, RequestError> {
    let Some(Value::Seq(items)) = wire::get(value, "mutations") else {
        return Err(wire::bad("missing array field \"mutations\"".to_string()));
    };
    if items.is_empty() {
        return Err(wire::bad("field \"mutations\" must not be empty".to_string()));
    }
    items.iter().enumerate().map(|(i, item)| parse_mutation(item, i)).collect()
}

fn parse_mutation(item: &Value, index: usize) -> Result<Mutation, RequestError> {
    let node_arg = |key: &str| -> Result<u32, RequestError> {
        let n = wire::get_u64(item, key)
            .map_err(|(k, m)| (k, format!("mutation {index}: {m}")))?;
        u32::try_from(n).map_err(|_| {
            wire::bad(format!("mutation {index}: field {key:?} exceeds u32 range"))
        })
    };
    match item {
        Value::Str(line) => match Mutation::parse_line(line) {
            Ok(Some(m)) => Ok(m),
            Ok(None) => {
                Err(wire::bad(format!("mutation {index}: blank or comment line {line:?}")))
            }
            Err(why) => Err(wire::bad(format!("mutation {index}: {why}"))),
        },
        Value::Map(_) => {
            let op = wire::get_str(item, "op")
                .map_err(|(k, m)| (k, format!("mutation {index}: {m}")))?;
            match op.replace('-', "_").as_str() {
                "add_edge" => Ok(Mutation::AddEdge { u: node_arg("u")?, v: node_arg("v")? }),
                "remove_edge" => {
                    Ok(Mutation::RemoveEdge { u: node_arg("u")?, v: node_arg("v")? })
                }
                "add_vertex" => Ok(Mutation::AddVertex),
                "add_member" => {
                    Ok(Mutation::AddMember { group: node_arg("group")?, node: node_arg("node")? })
                }
                "remove_member" => Ok(Mutation::RemoveMember {
                    group: node_arg("group")?,
                    node: node_arg("node")?,
                }),
                other => Err(wire::bad(format!("mutation {index}: unknown op {other:?}"))),
            }
        }
        other => Err(wire::bad(format!(
            "mutation {index}: expected a line or an object, got {other}"
        ))),
    }
}

impl Request {
    /// Parses a request frame's JSON payload.
    ///
    /// # Errors
    ///
    /// `(ErrorKind::BadRequest, message)` naming the first defect: bad
    /// JSON, a missing/ill-typed field, or an unknown op.
    pub fn parse(payload: &str) -> Result<Request, RequestError> {
        let value: Value = serde_json::from_str(payload)
            .map_err(|e| wire::bad(format!("invalid JSON: {e}")))?;
        Request::parse_value(&value)
    }

    /// Parses a request from an already-decoded [`Value`] tree — the
    /// shared back half of [`Request::parse`], also reached by the CKP1
    /// binary decoder ([`crate::binary::decode_request`]) so both wire
    /// encodings accept exactly the same requests.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse_value(value: &Value) -> Result<Request, RequestError> {
        if !matches!(value, Value::Map(_)) {
            return Err(wire::bad("request must be a JSON object".to_string()));
        }
        let op = wire::get_str(value, "op")?;
        match op.as_str() {
            "health" => Ok(Request::Health),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "list_snapshots" => Ok(Request::ListSnapshots),
            "list_groups" => Ok(Request::ListGroups {
                snapshot: wire::get_str(value, "snapshot")?,
            }),
            "score_group" => Ok(Request::ScoreGroup {
                snapshot: wire::get_str(value, "snapshot")?,
                group: wire::get_u64(value, "group")? as usize,
                functions: parse_functions(value)?,
                deadline_ms: wire::get_u64_opt(value, "deadline_ms")?,
            }),
            "score_set" => Ok(Request::ScoreSet {
                snapshot: wire::get_str(value, "snapshot")?,
                members: wire::get_u32_array(value, "members")?,
                functions: parse_functions(value)?,
                deadline_ms: wire::get_u64_opt(value, "deadline_ms")?,
            }),
            "baseline" => Ok(Request::Baseline {
                snapshot: wire::get_str(value, "snapshot")?,
                group: wire::get_u64(value, "group")? as usize,
                functions: parse_functions(value)?,
                samples: wire::get_u64_opt(value, "samples")?
                    .map_or(DEFAULT_BASELINE_SAMPLES, |s| s as usize),
                seed: wire::get_u64_opt(value, "seed")?.unwrap_or(2014),
                deadline_ms: wire::get_u64_opt(value, "deadline_ms")?,
            }),
            "apply_mutations" => Ok(Request::ApplyMutations {
                snapshot: wire::get_str(value, "snapshot")?,
                mutations: parse_mutations(value)?,
            }),
            "compact" => Ok(Request::Compact {
                snapshot: wire::get_str(value, "snapshot")?,
            }),
            "watch_scores" => Ok(Request::WatchScores {
                snapshot: wire::get_str(value, "snapshot")?,
                group: wire::get_u64(value, "group")? as usize,
            }),
            "suggest_circles" => {
                let ego = wire::get_u64(value, "ego")?;
                let ego = u32::try_from(ego)
                    .map_err(|_| wire::bad(format!("field \"ego\" {ego} exceeds u32 range")))?;
                Ok(Request::SuggestCircles {
                    snapshot: wire::get_str(value, "snapshot")?,
                    ego,
                    seed: wire::get_u64_opt(value, "seed")?
                        .unwrap_or(circlekit_discover::DEFAULT_SEED),
                    min_size: wire::get_u64_opt(value, "min_size")?
                        .map_or(circlekit_discover::DEFAULT_MIN_SIZE, |v| v as usize),
                    top: wire::get_u64_opt(value, "top")?
                        .map_or(circlekit_discover::DEFAULT_TOP, |v| v as usize),
                })
            }
            "replicate" => {
                let crc = wire::get_u64(value, "base_crc")?;
                let base_crc = u32::try_from(crc).map_err(|_| {
                    wire::bad(format!("field \"base_crc\" {crc} exceeds u32 range"))
                })?;
                Ok(Request::Replicate {
                    snapshot: wire::get_str(value, "snapshot")?,
                    base_crc,
                    wal_offset: wire::get_u64(value, "wal_offset")?,
                })
            }
            "repl_ack" => Ok(Request::ReplAck {
                offset: wire::get_u64(value, "offset")?,
            }),
            "repl_status" => Ok(Request::ReplStatus),
            "shard_stats" => {
                let group = wire::get_u64_opt(value, "group")?.map(|g| g as usize);
                let members = match wire::get(value, "members") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(wire::get_u32_array(value, "members")?),
                };
                if group.is_some() == members.is_some() {
                    return Err(wire::bad(
                        "shard_stats takes exactly one of \"group\" or \"members\"".to_string(),
                    ));
                }
                Ok(Request::ShardStats {
                    snapshot: wire::get_str(value, "snapshot")?,
                    group,
                    members,
                    deadline_ms: wire::get_u64_opt(value, "deadline_ms")?,
                })
            }
            "debug_sleep" => Ok(Request::DebugSleep {
                millis: wire::get_u64(value, "millis")?,
            }),
            other => Err(wire::bad(format!("unknown op {other:?}"))),
        }
    }
}

/// The standard error response envelope:
/// `{"ok":false,"error":{"kind":…,"message":…}}`.
pub(crate) fn error_value(kind: ErrorKind, message: &str) -> Value {
    Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        (
            "error".to_string(),
            Value::Map(vec![
                ("kind".to_string(), Value::Str(kind.name().to_string())),
                ("message".to_string(), Value::Str(message.to_string())),
            ]),
        ),
    ])
}

/// A success response envelope: `{"ok":true, ...fields}`.
pub(crate) fn ok_value(fields: Vec<(String, Value)>) -> Value {
    let mut entries = vec![("ok".to_string(), Value::Bool(true))];
    entries.extend(fields);
    Value::Map(entries)
}

/// Renders the standard error response payload as JSON.
pub fn error_payload(kind: ErrorKind, message: &str) -> String {
    error_value(kind, message).to_string()
}

/// Renders a success response as JSON: `{"ok":true, ...fields}`.
pub fn ok_payload(fields: Vec<(String, Value)>) -> String {
    ok_value(fields).to_string()
}

/// Encodes raw bytes as lowercase hex — how CKW1 replication frames ride
/// inside JSON batch messages (the workspace vendors no base64).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// Decodes [`to_hex`] output; `None` on odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

/// FNV-1a 64-bit digest of a vertex set, the cache key component that
/// identifies the set independently of how the request named it.
pub fn set_digest(members: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in (members.len() as u64).to_le_bytes() {
        step(b);
    }
    for &m in members {
        for b in m.to_le_bytes() {
            step(b);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"health\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), "{\"op\":\"health\"}");
        assert_eq!(read_frame(&mut cursor).unwrap(), "second");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        buf.extend_from_slice(b"whatever");
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn truncated_frames_are_detected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_be_bytes());
        buf.extend_from_slice(b"short");
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Truncated)));
        // A torn length prefix is also truncation, not a clean close.
        let mut cursor = io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Truncated)));
    }

    #[test]
    fn non_utf8_payload_is_detected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::NotUtf8)));
    }

    #[test]
    fn requests_parse_with_defaults() {
        assert_eq!(Request::parse("{\"op\":\"health\"}").unwrap(), Request::Health);
        let req = Request::parse(
            "{\"op\":\"score_group\",\"snapshot\":\"gp\",\"group\":3}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::ScoreGroup {
                snapshot: "gp".to_string(),
                group: 3,
                functions: ScoringFunction::PAPER.to_vec(),
                deadline_ms: None,
            }
        );
        let req = Request::parse(
            "{\"op\":\"score_set\",\"snapshot\":\"gp\",\"members\":[2,1,1],\
             \"functions\":\"all\",\"deadline_ms\":50}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::ScoreSet {
                snapshot: "gp".to_string(),
                members: vec![2, 1, 1],
                functions: ScoringFunction::ALL.to_vec(),
                deadline_ms: Some(50),
            }
        );
    }

    #[test]
    fn mutation_requests_parse_both_forms() {
        let req = Request::parse(
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\"mutations\":[\
             \"add-edge 3 17\",\
             {\"op\":\"remove-edge\",\"u\":1,\"v\":2},\
             {\"op\":\"add_vertex\"},\
             {\"op\":\"add_member\",\"group\":0,\"node\":5}]}",
        )
        .unwrap();
        assert_eq!(
            req,
            Request::ApplyMutations {
                snapshot: "gp".to_string(),
                mutations: vec![
                    Mutation::AddEdge { u: 3, v: 17 },
                    Mutation::RemoveEdge { u: 1, v: 2 },
                    Mutation::AddVertex,
                    Mutation::AddMember { group: 0, node: 5 },
                ],
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"compact\",\"snapshot\":\"gp\"}").unwrap(),
            Request::Compact { snapshot: "gp".to_string() }
        );
        assert_eq!(
            Request::parse("{\"op\":\"watch_scores\",\"snapshot\":\"gp\",\"group\":2}").unwrap(),
            Request::WatchScores { snapshot: "gp".to_string(), group: 2 }
        );
    }

    #[test]
    fn suggest_circles_parses_defaults_and_overrides() {
        assert_eq!(
            Request::parse("{\"op\":\"suggest_circles\",\"snapshot\":\"gp\",\"ego\":42}")
                .unwrap(),
            Request::SuggestCircles {
                snapshot: "gp".to_string(),
                ego: 42,
                seed: circlekit_discover::DEFAULT_SEED,
                min_size: circlekit_discover::DEFAULT_MIN_SIZE,
                top: circlekit_discover::DEFAULT_TOP,
            }
        );
        assert_eq!(
            Request::parse(
                "{\"op\":\"suggest_circles\",\"snapshot\":\"gp\",\"ego\":7,\
                 \"seed\":9,\"min_size\":2,\"top\":0}"
            )
            .unwrap(),
            Request::SuggestCircles {
                snapshot: "gp".to_string(),
                ego: 7,
                seed: 9,
                min_size: 2,
                top: 0,
            }
        );
    }

    #[test]
    fn malformed_requests_are_typed_bad_requests() {
        for payload in [
            "not json at all",
            "[1,2,3]",
            "{\"no_op\":1}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"score_group\",\"snapshot\":\"gp\"}",
            "{\"op\":\"score_group\",\"snapshot\":\"gp\",\"group\":-1}",
            "{\"op\":\"score_set\",\"snapshot\":\"gp\",\"members\":[\"x\"]}",
            "{\"op\":\"score_group\",\"snapshot\":\"gp\",\"group\":1,\"functions\":[]}",
            "{\"op\":\"score_group\",\"snapshot\":\"gp\",\"group\":1,\"functions\":[\"nope\"]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\"}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\"mutations\":[]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\"mutations\":[\"add-edge 1\"]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\"mutations\":[\"# nope\"]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\"mutations\":[7]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\
             \"mutations\":[{\"op\":\"add_edge\",\"u\":1}]}",
            "{\"op\":\"apply_mutations\",\"snapshot\":\"gp\",\
             \"mutations\":[{\"op\":\"add_edge\",\"u\":1,\"v\":4294967296}]}",
            "{\"op\":\"watch_scores\",\"snapshot\":\"gp\"}",
            "{\"op\":\"compact\"}",
            "{\"op\":\"suggest_circles\",\"snapshot\":\"gp\"}",
            "{\"op\":\"suggest_circles\",\"snapshot\":\"gp\",\"ego\":4294967296}",
            "{\"op\":\"suggest_circles\",\"ego\":1}",
            "{\"op\":\"shard_stats\",\"snapshot\":\"gp\"}",
            "{\"op\":\"shard_stats\",\"members\":[1]}",
            "{\"op\":\"shard_stats\",\"snapshot\":\"gp\",\"members\":[\"x\"]}",
            "{\"op\":\"shard_stats\",\"snapshot\":\"gp\",\"group\":0,\"members\":[1]}",
        ] {
            let (kind, _) = Request::parse(payload).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "{payload}");
        }
    }

    #[test]
    fn error_kinds_roundtrip_their_names() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::NotFound,
            ErrorKind::DeadlineExceeded,
            ErrorKind::FrameTooLarge,
            ErrorKind::ShuttingDown,
            ErrorKind::NotPrimary,
            ErrorKind::ReplicationMismatch,
            ErrorKind::ShardUnavailable,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
    }

    #[test]
    fn replication_requests_parse() {
        assert_eq!(
            Request::parse(
                "{\"op\":\"replicate\",\"snapshot\":\"gp\",\"base_crc\":7,\"wal_offset\":96}"
            )
            .unwrap(),
            Request::Replicate { snapshot: "gp".to_string(), base_crc: 7, wal_offset: 96 }
        );
        assert_eq!(
            Request::parse("{\"op\":\"repl_ack\",\"offset\":128}").unwrap(),
            Request::ReplAck { offset: 128 }
        );
        assert_eq!(Request::parse("{\"op\":\"repl_status\"}").unwrap(), Request::ReplStatus);
        assert_eq!(
            Request::parse(
                "{\"op\":\"shard_stats\",\"snapshot\":\"gp\",\"members\":[3,1],\
                 \"deadline_ms\":250}"
            )
            .unwrap(),
            Request::ShardStats {
                snapshot: "gp".to_string(),
                group: None,
                members: Some(vec![3, 1]),
                deadline_ms: Some(250),
            }
        );
        assert_eq!(
            Request::parse("{\"op\":\"shard_stats\",\"snapshot\":\"gp\",\"group\":2}").unwrap(),
            Request::ShardStats {
                snapshot: "gp".to_string(),
                group: Some(2),
                members: None,
                deadline_ms: None,
            }
        );
        for payload in [
            "{\"op\":\"replicate\",\"snapshot\":\"gp\"}",
            "{\"op\":\"replicate\",\"snapshot\":\"gp\",\"base_crc\":4294967296,\
             \"wal_offset\":0}",
            "{\"op\":\"repl_ack\"}",
        ] {
            let (kind, _) = Request::parse(payload).unwrap_err();
            assert_eq!(kind, ErrorKind::BadRequest, "{payload}");
        }
    }

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        let hex = to_hex(&bytes);
        assert_eq!(from_hex(&hex).unwrap(), bytes);
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert_eq!(from_hex("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(from_hex("abc"), None);
        assert_eq!(from_hex("zz"), None);
    }

    #[test]
    fn scores_survive_the_wire_bit_exactly() {
        let scores = [1.0 / 3.0, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -0.0, 17.0];
        let rendered = wire::score_array(&scores).to_string();
        let parsed: Value = serde_json::from_str(&rendered).unwrap();
        let Value::Seq(items) = parsed else { panic!("expected array") };
        for (i, item) in items.iter().enumerate() {
            let back = wire::as_f64(item).unwrap();
            assert_eq!(back.to_bits(), scores[i].to_bits(), "index {i}");
        }
        // Non-finite scores degrade to null ⇒ NaN, by design.
        let rendered = wire::score_array(&[f64::NAN, f64::INFINITY]).to_string();
        assert_eq!(rendered, "[null,null]");
    }

    #[test]
    fn set_digest_distinguishes_sets_and_lengths() {
        assert_eq!(set_digest(&[1, 2, 3]), set_digest(&[1, 2, 3]));
        assert_ne!(set_digest(&[1, 2, 3]), set_digest(&[1, 2, 4]));
        assert_ne!(set_digest(&[]), set_digest(&[0]));
        // A trailing zero must not collide with the shorter set.
        assert_ne!(set_digest(&[1, 2]), set_digest(&[1, 2, 0]));
    }

    #[test]
    fn payload_renderers_shape_the_envelope() {
        let ok = ok_payload(vec![("x".to_string(), Value::UInt(1))]);
        assert_eq!(ok, "{\"ok\":true,\"x\":1}");
        let err = error_payload(ErrorKind::Overloaded, "queue full");
        assert!(err.contains("\"ok\":false"), "{err}");
        assert!(err.contains("\"overloaded\""), "{err}");
    }
}
