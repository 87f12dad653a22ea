//! Primary → replica WAL shipping.
//!
//! A replica daemon (started with a `replica_of` primary address) runs
//! one **tail thread** per file-backed snapshot. The thread connects to
//! the primary, sends a `replicate` subscribe request carrying the CRC
//! of its own base snapshot file and the WAL offset it has already
//! applied, and then receives **batch** messages on the same connection:
//! raw CKW1 record frames, hex-encoded, exactly as they sit in the
//! primary's WAL. The replica validates each batch as a whole, applies
//! it through [`LiveSnapshot::apply_replicated`] (which appends the
//! bytes verbatim to the replica's own WAL), and acknowledges the new
//! offset — so at every acked offset the replica's WAL is a
//! byte-identical prefix of the primary's, and its scores are
//! byte-identical to the primary's at that offset.
//!
//! On the primary, the event loop hands the connection that sent the
//! `replicate` request to a thread running a **subscription loop**:
//! replay from the subscriber's offset, then tail live batches, waiting
//! for each ack before shipping the next batch. A base-CRC mismatch (different
//! snapshot file, or a compaction that rewrote the base mid-stream) is
//! answered with a typed `replication-mismatch` error and a close —
//! never with frames from a different history.
//!
//! Failure handling is crash-first: a replica killed at any point
//! restarts, replays its own WAL, and resubscribes from its recovered
//! offset; the primary replays the missing tail. The deterministic
//! chaos hooks ([`ReplCrashPoint`], [`FaultPlan`]) let tests and CI
//! exercise exactly those windows.
//!
//! [`LiveSnapshot::apply_replicated`]: circlekit_live::LiveSnapshot::apply_replicated

use crate::protocol::{
    error_payload, from_hex, ok_payload, read_frame_patiently, to_hex, wire, write_frame,
    ErrorKind, FrameError, Request,
};
use crate::server::{live_state, publish, Shared, POLL_INTERVAL};
use crate::stats::ServeStats;
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a replica waits for its subscribe handshake to be answered.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Per-attempt connect timeout of the replica tail thread.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Ceiling of the tail thread's reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Where to simulate a SIGKILL inside the replication path — the process
/// exits with status 137 at the chosen point, leaving every file exactly
/// as a real kill would. The same CLI flag serves both roles: the first
/// point fires on the primary, the rest on the replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplCrashPoint {
    /// Primary: after a batch is committed locally and selected for
    /// shipping, before any byte of it is written to the subscriber.
    FrameSend,
    /// Replica: after a batch is fully received and decoded, before any
    /// of it is applied.
    FrameReceive,
    /// Replica: after the batch is applied and appended to the replica
    /// WAL, before the ack is sent.
    PreAck,
    /// Replica: after the ack is sent.
    PostAck,
}

impl ReplCrashPoint {
    /// Parses the `--repl-crash-point` CLI value.
    pub fn from_name(name: &str) -> Option<ReplCrashPoint> {
        match name {
            "frame-send" => Some(ReplCrashPoint::FrameSend),
            "frame-receive" => Some(ReplCrashPoint::FrameReceive),
            "pre-ack" => Some(ReplCrashPoint::PreAck),
            "post-ack" => Some(ReplCrashPoint::PostAck),
            _ => None,
        }
    }

    fn fire(self, want: Option<ReplCrashPoint>) {
        if want == Some(self) {
            // The SIGKILL exit status: indistinguishable from a real
            // kill -9 for everything downstream.
            std::process::exit(137);
        }
    }
}

/// Injected network faults, enforced only when the `fault-inject`
/// feature is compiled in; without it the plan is carried but inert, so
/// production builds cannot be misconfigured into failing.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Primary: abruptly drop each replication subscription after this
    /// many shipped batches (an injected connection reset).
    pub reset_subscription_after: Option<u64>,
    /// Primary: stall this long before sending each batch (an injected
    /// network stall; lets tests observe the unacked window).
    pub stall_before_send_ms: Option<u64>,
}

/// Live replication bookkeeping, reported by the `repl_status` op.
#[derive(Default)]
pub(crate) struct ReplRegistry {
    next_subscriber: u64,
    /// Primary side: one entry per live subscription connection.
    pub(crate) subscribers: HashMap<u64, SubscriberEntry>,
    /// Replica side: one entry per tailed snapshot.
    pub(crate) replicas: HashMap<String, ReplicaEntry>,
}

/// One subscriber's stream position, as the primary sees it.
pub(crate) struct SubscriberEntry {
    pub(crate) snapshot: String,
    pub(crate) sent_offset: u64,
    pub(crate) acked_offset: u64,
}

/// One tailed snapshot's position, as the replica sees it.
#[derive(Clone, Default)]
pub(crate) struct ReplicaEntry {
    pub(crate) connected: bool,
    pub(crate) applied_offset: u64,
    /// The primary's committed offset as of the last message seen.
    pub(crate) primary_offset: u64,
    pub(crate) last_error: Option<String>,
}

// ---------------------------------------------------------------------
// Primary side: the subscription loop a `replicate` request turns into
// ---------------------------------------------------------------------

/// Serves one replication subscription until the subscriber disconnects,
/// the histories diverge, or the server drains. Takes over the
/// connection: no other request is answered on it afterwards.
pub(crate) fn serve_subscription(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    snapshot_id: &str,
    sub_crc: u32,
    sub_offset: u64,
) {
    let refuse = |stream: &mut TcpStream, kind: ErrorKind, message: &str| {
        let _ = write_frame(stream, &error_payload(kind, message));
    };
    if shared.config.replica_of.is_some() {
        return refuse(
            stream,
            ErrorKind::NotPrimary,
            "this server is a replica; subscribe to its primary instead",
        );
    }
    let Some(snap) = shared.registry.get(snapshot_id) else {
        return refuse(stream, ErrorKind::NotFound, &format!("unknown snapshot {snapshot_id:?}"));
    };
    if snap.path == "<memory>" {
        return refuse(
            stream,
            ErrorKind::BadRequest,
            &format!("snapshot {snapshot_id:?} is in-memory and has no WAL to replicate"),
        );
    }

    // Validate the handshake under the live lock, then answer it.
    let committed = {
        let mut states = shared.live.lock().expect("live state lock");
        let state = match live_state(&mut states, shared, snapshot_id) {
            Ok(state) => state,
            Err((kind, message)) => return refuse(stream, kind, &message),
        };
        if state.live.base_crc() != sub_crc {
            return refuse(
                stream,
                ErrorKind::ReplicationMismatch,
                &format!(
                    "base snapshot crc mismatch: primary {:#010x}, subscriber {sub_crc:#010x}",
                    state.live.base_crc()
                ),
            );
        }
        if let Err(e) = state.live.replication_frames_from(sub_offset) {
            return refuse(
                stream,
                ErrorKind::ReplicationMismatch,
                &format!("cannot resume from offset {sub_offset}: {e}"),
            );
        }
        state.live.wal_offset()
    };
    if write_frame(
        stream,
        &ok_payload(vec![
            ("op".to_string(), Value::Str("replicate".to_string())),
            ("snapshot".to_string(), Value::Str(snapshot_id.to_string())),
            ("committed_offset".to_string(), Value::UInt(committed)),
        ]),
    )
    .is_err()
    {
        return;
    }

    let guard = SubscriberGuard::register(shared, snapshot_id, sub_offset);
    let mut sent_offset = sub_offset;
    let mut batches_sent = 0u64;
    loop {
        if shared.shutting_down() {
            return refuse(stream, ErrorKind::ShuttingDown, "server is draining");
        }
        // Read the committed tail under the lock, ship it outside.
        let (frames, committed) = {
            let mut states = shared.live.lock().expect("live state lock");
            let state = match live_state(&mut states, shared, snapshot_id) {
                Ok(state) => state,
                Err((kind, message)) => return refuse(stream, kind, &message),
            };
            if state.live.base_crc() != sub_crc {
                return refuse(
                    stream,
                    ErrorKind::ReplicationMismatch,
                    "base snapshot was compacted mid-stream; resubscribe from the new base",
                );
            }
            match state.live.replication_frames_from(sent_offset) {
                Ok(frames) => (frames, state.live.wal_offset()),
                Err(e) => {
                    return refuse(
                        stream,
                        ErrorKind::ReplicationMismatch,
                        &format!("cannot read frames from offset {sent_offset}: {e}"),
                    )
                }
            }
        };
        if frames.is_empty() {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }

        #[cfg(feature = "fault-inject")]
        {
            if let Some(ms) = shared.config.fault.stall_before_send_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if let Some(after) = shared.config.fault.reset_subscription_after {
                if batches_sent >= after {
                    // Injected reset: drop the connection mid-stream
                    // without any protocol goodbye.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    return;
                }
            }
        }
        ReplCrashPoint::FrameSend.fire(shared.config.repl_crash_point);

        let next_offset = sent_offset + frames.len() as u64;
        let batch = ok_payload(vec![
            ("op".to_string(), Value::Str("repl_batch".to_string())),
            ("snapshot".to_string(), Value::Str(snapshot_id.to_string())),
            ("offset".to_string(), Value::UInt(sent_offset)),
            ("next_offset".to_string(), Value::UInt(next_offset)),
            ("committed_offset".to_string(), Value::UInt(committed)),
            ("frames".to_string(), Value::Str(to_hex(&frames))),
        ]);
        if write_frame(stream, &batch).is_err() {
            return;
        }
        ServeStats::bump(&shared.stats.repl_batches_sent);
        ServeStats::add(&shared.stats.repl_bytes_sent, frames.len() as u64);
        sent_offset = next_offset;
        batches_sent += 1;
        let _ = batches_sent; // read only under fault-inject
        guard.record(|entry| entry.sent_offset = next_offset);

        // Wait for the ack before shipping more: simple, lossless flow
        // control — the unacked window is exactly one batch.
        let ack = read_frame_patiently(stream, |_| !shared.shutting_down());
        match ack {
            Ok(Some(payload)) => match Request::parse(&payload) {
                Ok(Request::ReplAck { offset }) => {
                    guard.record(|entry| entry.acked_offset = offset);
                }
                _ => {
                    return refuse(
                        stream,
                        ErrorKind::BadRequest,
                        "expected a repl_ack on the subscription connection",
                    )
                }
            },
            // Shutdown while waiting, or the subscriber went away.
            Ok(None) | Err(_) => return,
        }
    }
}

/// Registers a subscriber for `repl_status` reporting; deregisters on
/// drop, however the subscription loop exits.
struct SubscriberGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl SubscriberGuard {
    fn register(shared: &Arc<Shared>, snapshot: &str, offset: u64) -> SubscriberGuard {
        let mut repl = shared.repl.lock().expect("repl registry lock");
        let id = repl.next_subscriber;
        repl.next_subscriber += 1;
        repl.subscribers.insert(
            id,
            SubscriberEntry {
                snapshot: snapshot.to_string(),
                sent_offset: offset,
                acked_offset: offset,
            },
        );
        SubscriberGuard { shared: Arc::clone(shared), id }
    }

    fn record(&self, update: impl FnOnce(&mut SubscriberEntry)) {
        let mut repl = self.shared.repl.lock().expect("repl registry lock");
        if let Some(entry) = repl.subscribers.get_mut(&self.id) {
            update(entry);
        }
    }
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        self.shared.repl.lock().expect("repl registry lock").subscribers.remove(&self.id);
    }
}

// ---------------------------------------------------------------------
// Replica side: tail threads
// ---------------------------------------------------------------------

/// Spawns one tail thread per file-backed snapshot, each keeping its
/// snapshot caught up with `primary`. Threads exit when the shared
/// shutdown flag rises.
pub(crate) fn spawn_replica_tails(shared: &Arc<Shared>, primary: &str) -> Vec<JoinHandle<()>> {
    shared
        .registry
        .snapshots()
        .iter()
        .filter(|snap| snap.path != "<memory>")
        .map(|snap| {
            let shared = Arc::clone(shared);
            let primary = primary.to_string();
            let id = snap.id.clone();
            std::thread::Builder::new()
                .name(format!("ck-serve-repl-{id}"))
                .spawn(move || replica_tail_loop(&shared, &id, &primary))
                .expect("spawn replica tail thread")
        })
        .collect()
}

fn replica_tail_loop(shared: &Arc<Shared>, snapshot_id: &str, primary: &str) {
    let mut failures = 0u32;
    loop {
        if shared.shutting_down() {
            return;
        }
        match tail_once(shared, snapshot_id, primary) {
            Ok(()) => return, // clean shutdown observed inside
            Err(why) => {
                record_replica(shared, snapshot_id, |entry| {
                    entry.connected = false;
                    entry.last_error = Some(why.clone());
                });
                failures += 1;
            }
        }
        // Capped exponential backoff between reconnect attempts; the
        // poll below keeps shutdown responsive through long waits.
        let backoff = POLL_INTERVAL
            .saturating_mul(1u32 << failures.min(5))
            .min(MAX_BACKOFF);
        let deadline = Instant::now() + backoff;
        while Instant::now() < deadline {
            if shared.shutting_down() {
                return;
            }
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// One subscription attempt: connect, handshake, apply batches until the
/// connection ends. `Ok(())` means shutdown was observed (exit the tail
/// loop); `Err` describes why the subscription ended and asks for a
/// reconnect.
fn tail_once(shared: &Arc<Shared>, snapshot_id: &str, primary: &str) -> Result<(), String> {
    let mut stream =
        connect_with_timeout(primary, CONNECT_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(POLL_INTERVAL))
        .map_err(|e| format!("set_read_timeout: {e}"))?;

    // Recover this snapshot's durable position: the replica's own base
    // CRC and replayed WAL offset are the subscribe handshake.
    let (base_crc, applied_offset) = {
        let mut states = shared.live.lock().expect("live state lock");
        let state = live_state(&mut states, shared, snapshot_id)
            .map_err(|(_, message)| format!("open live state: {message}"))?;
        (state.live.base_crc(), state.live.wal_offset())
    };
    record_replica(shared, snapshot_id, |entry| entry.applied_offset = applied_offset);

    let subscribe = Value::Map(vec![
        ("op".to_string(), Value::Str("replicate".to_string())),
        ("snapshot".to_string(), Value::Str(snapshot_id.to_string())),
        ("base_crc".to_string(), Value::UInt(u64::from(base_crc))),
        ("wal_offset".to_string(), Value::UInt(applied_offset)),
    ]);
    write_frame(&mut stream, &subscribe.to_string()).map_err(|e| format!("subscribe: {e}"))?;

    let started = Instant::now();
    let handshake = read_timeout_frame(&mut stream, shared, || {
        started.elapsed() < HANDSHAKE_TIMEOUT
    })?;
    let Some(handshake) = handshake else {
        return Ok(()); // shutdown while waiting
    };
    let value = parse_ok(&handshake)?;
    let primary_offset = wire::get_u64_opt(&value, "committed_offset")
        .ok()
        .flatten()
        .ok_or("handshake lacks committed_offset")?;
    ServeStats::bump(&shared.stats.repl_connects);
    record_replica(shared, snapshot_id, |entry| {
        entry.connected = true;
        entry.primary_offset = primary_offset;
        entry.last_error = None;
    });

    loop {
        let Some(payload) = read_timeout_frame(&mut stream, shared, || true)? else {
            return Ok(()); // shutdown while tailing
        };
        let value = parse_ok(&payload)?;
        let offset = wire::get_u64_opt(&value, "offset")
            .ok()
            .flatten()
            .ok_or("batch lacks offset")?;
        let committed = wire::get_u64_opt(&value, "committed_offset")
            .ok()
            .flatten()
            .ok_or("batch lacks committed_offset")?;
        let Some(Value::Str(hex)) = wire::get(&value, "frames") else {
            return Err("batch lacks frames".to_string());
        };
        let frames = from_hex(hex).ok_or("batch frames are not valid hex")?;

        ReplCrashPoint::FrameReceive.fire(shared.config.repl_crash_point);

        let applied = {
            let mut states = shared.live.lock().expect("live state lock");
            let state = live_state(&mut states, shared, snapshot_id)
                .map_err(|(_, message)| format!("open live state: {message}"))?;
            if state.live.wal_offset() != offset {
                return Err(format!(
                    "batch starts at offset {offset} but replica is at {}",
                    state.live.wal_offset()
                ));
            }
            state
                .live
                .apply_replicated(&frames)
                .map_err(|e| format!("apply replicated batch: {e}"))?;
            state.version += 1;
            publish(shared, snapshot_id, state);
            let version = state.version;
            let applied = state.live.wal_offset();
            drop(states);
            shared
                .cache
                .lock()
                .expect("cache lock")
                .invalidate_stale(snapshot_id, version);
            applied
        };
        ServeStats::bump(&shared.stats.repl_batches_applied);
        record_replica(shared, snapshot_id, |entry| {
            entry.applied_offset = applied;
            entry.primary_offset = committed.max(applied);
        });

        ReplCrashPoint::PreAck.fire(shared.config.repl_crash_point);
        let ack = Value::Map(vec![
            ("op".to_string(), Value::Str("repl_ack".to_string())),
            ("offset".to_string(), Value::UInt(applied)),
        ]);
        write_frame(&mut stream, &ack.to_string()).map_err(|e| format!("ack: {e}"))?;
        ReplCrashPoint::PostAck.fire(shared.config.repl_crash_point);
    }
}

/// Reads one frame, polling the shutdown flag between socket timeouts.
/// `Ok(None)` means shutdown; `Err` is a transport or deadline failure.
fn read_timeout_frame(
    stream: &mut TcpStream,
    shared: &Shared,
    mut keep: impl FnMut() -> bool,
) -> Result<Option<String>, String> {
    let mut expired = false;
    let outcome = read_frame_patiently(stream, |_| {
        if shared.shutting_down() {
            return false;
        }
        if !keep() {
            expired = true;
            return false;
        }
        true
    });
    match outcome {
        Ok(Some(payload)) => Ok(Some(payload)),
        Ok(None) if expired => Err("timed out waiting for the primary".to_string()),
        Ok(None) => Ok(None),
        Err(FrameError::Closed) => Err("connection closed by the primary".to_string()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Unwraps an `ok:true` response into its JSON value; renders `ok:false`
/// (and anything malformed) as the error string of the attempt.
fn parse_ok(payload: &str) -> Result<Value, String> {
    let value: Value =
        serde_json::from_str(payload).map_err(|e| format!("response is not JSON: {e}"))?;
    match wire::get(&value, "ok") {
        Some(Value::Bool(true)) => Ok(value),
        Some(Value::Bool(false)) => {
            let error = wire::get(&value, "error");
            let kind = error
                .and_then(|e| wire::get(e, "kind"))
                .and_then(|k| match k {
                    Value::Str(name) => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| "internal".to_string());
            let message = error
                .and_then(|e| wire::get(e, "message"))
                .and_then(|m| match m {
                    Value::Str(m) => Some(m.clone()),
                    _ => None,
                })
                .unwrap_or_default();
            Err(format!("primary refused: {kind}: {message}"))
        }
        _ => Err("response lacks a boolean ok field".to_string()),
    }
}

fn record_replica(shared: &Shared, snapshot_id: &str, update: impl FnOnce(&mut ReplicaEntry)) {
    let mut repl = shared.repl.lock().expect("repl registry lock");
    update(repl.replicas.entry(snapshot_id.to_string()).or_default());
}

fn connect_with_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::other(format!("no addresses resolved for {addr:?}"));
    for sock in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

// ---------------------------------------------------------------------
// Status: the `repl_status` op, answered inline on either role
// ---------------------------------------------------------------------

/// Builds the `repl_status` response fields.
pub(crate) fn status_fields(shared: &Shared) -> Vec<(String, Value)> {
    let role = if shared.config.replica_of.is_some() { "replica" } else { "primary" };
    let mut fields = vec![("role".to_string(), Value::Str(role.to_string()))];
    if let Some(primary) = &shared.config.replica_of {
        fields.push(("primary".to_string(), Value::Str(primary.clone())));
    }

    // Per-snapshot stream positions. Only snapshots with live state have
    // a WAL position; the file CRC is read fresh from disk so the two
    // roles can be compared byte-for-byte without shipping the files.
    let mut snapshots = Vec::new();
    {
        let states = shared.live.lock().expect("live state lock");
        for snap in shared.registry.snapshots() {
            if snap.path == "<memory>" {
                continue;
            }
            let (committed, records) = states
                .get(&snap.id)
                .map_or((0, 0), |s| (s.live.wal_offset(), s.live.wal_records() as u64));
            let file_crc = circlekit_store::file_crc32(Path::new(&snap.path))
                .map_or(Value::Null, |crc| Value::UInt(u64::from(crc)));
            snapshots.push(Value::Map(vec![
                ("snapshot".to_string(), Value::Str(snap.id.clone())),
                ("committed_offset".to_string(), Value::UInt(committed)),
                ("wal_records".to_string(), Value::UInt(records)),
                ("file_crc32".to_string(), file_crc),
            ]));
        }
    }
    fields.push(("snapshots".to_string(), Value::Seq(snapshots)));

    let repl = shared.repl.lock().expect("repl registry lock");
    if role == "primary" {
        let subscribers: Vec<Value> = repl
            .subscribers
            .values()
            .map(|s| {
                Value::Map(vec![
                    ("snapshot".to_string(), Value::Str(s.snapshot.clone())),
                    ("sent_offset".to_string(), Value::UInt(s.sent_offset)),
                    ("acked_offset".to_string(), Value::UInt(s.acked_offset)),
                ])
            })
            .collect();
        fields.push(("subscribers".to_string(), Value::Seq(subscribers)));
    } else {
        let mut entries: Vec<(&String, &ReplicaEntry)> = repl.replicas.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let replication: Vec<Value> = entries
            .into_iter()
            .map(|(id, e)| {
                let caught_up = e.connected && e.applied_offset >= e.primary_offset;
                Value::Map(vec![
                    ("snapshot".to_string(), Value::Str(id.clone())),
                    ("connected".to_string(), Value::Bool(e.connected)),
                    ("applied_offset".to_string(), Value::UInt(e.applied_offset)),
                    ("primary_offset".to_string(), Value::UInt(e.primary_offset)),
                    ("caught_up".to_string(), Value::Bool(caught_up)),
                    (
                        "last_error".to_string(),
                        e.last_error.clone().map_or(Value::Null, Value::Str),
                    ),
                ])
            })
            .collect();
        fields.push(("replication".to_string(), Value::Seq(replication)));
    }
    fields
}
