//! The epoll front end: one loop thread owning every connection.
//!
//! ## Architecture
//!
//! ```text
//!          epoll loop thread                dispatcher pool            workers
//!  accept ─► Conn{inbuf,outbuf} ─frames─► BoundedQueue ─► handle_request ─► (queue,
//!  flush  ◄─ seq-ordered done map ◄─────── frames + wake pipe ◄─ render     batcher,
//!                                                                           cache)
//! ```
//!
//! The loop never blocks on a socket: reads and writes run to `EAGAIN`
//! and partial frames/writes stay buffered per connection. Decoded
//! requests are stamped with a per-connection sequence number and handed
//! to a pool of `max(8, 4 × workers)` dispatchers over a second
//! [`BoundedQueue`]. A dispatcher calls [`handle_request`], which may
//! block on the scoring queue, the micro-batcher or a shard gather, and
//! gets back the response envelope as one [`Value`] tree. [`render`]
//! encodes that tree for the connection's wire mode — JSON text or a
//! CKP1 frame — so the loop receives finished bytes. The floor of 8
//! keeps dispatchers idle for a request that arrives while the scoring
//! queue is saturated: it is *refused* (`overloaded`) at once instead of
//! waiting behind the blocked ones.
//!
//! ## Pipelining and the ordering guarantees
//!
//! A connection may have many requests in flight (up to
//! [`MAX_PIPELINE`]; beyond that the loop simply stops reading the
//! socket, which is backpressure TCP propagates to the client).
//! Reads may execute concurrently and complete out of order — different
//! dispatchers, cache hits overtaking scoring misses — but responses
//! are **delivered in request order**: completions park in a
//! per-connection `BTreeMap` keyed by sequence number and only the next
//! undelivered sequence is appended to the write buffer. A pipelined
//! client can therefore match responses to requests positionally.
//!
//! Writes (`apply_mutations`, `compact`) also **execute** in request
//! order: each is a barrier on its connection. A write starts only once
//! every earlier request on the connection has completed, and nothing
//! later is parsed — so the socket is not read — until the write has
//! completed. Version numbers acked on one connection therefore rise in
//! request order, and a read pipelined after a write sees that write.
//!
//! ## Protocol negotiation
//!
//! The first byte of a connection picks its mode for life: `b'C'` is
//! CKP1 ([`crate::binary`]), anything else is length-prefixed JSON.
//! Mixed fleets (old JSON clients, new binary ones) share the port.
//!
//! ## Failure matrix
//!
//! | input                                | answer                    | connection |
//! |--------------------------------------|---------------------------|------------|
//! | malformed JSON in a valid frame      | `bad-request`             | survives   |
//! | undecodable CKP1 op/arguments        | `bad-request`             | survives   |
//! | JSON length prefix > 16 MiB          | `frame-too-large`, once   | closed     |
//! | CKP1 bad magic / kind / reserved     | `bad-request`, once       | closed     |
//! | CKP1 length > 16 MiB                 | `frame-too-large`, once   | closed     |
//! | CKP1 payload CRC mismatch            | `bad-request`, once       | closed     |
//! | truncation / disconnect mid-frame    | nothing (stream is gone)  | closed     |
//! | dispatch + scoring queues saturated  | `overloaded`, immediately | survives   |
//!
//! The close-after-answer rows flush every response already owed to the
//! connection first — pipelined predecessors are never dropped.

use crate::binary::{self, BinaryError};
use crate::protocol::{error_value, ok_value, ErrorKind, Request, RequestError, MAX_FRAME_LEN};
use crate::queue::{BoundedQueue, PushError};
use crate::replication;
use crate::server::{handle_request, Shared, POLL_INTERVAL};
use crate::stats::ServeStats;
use circlekit_net::{tune_stream, Event, Interest, Poller, WakePipe};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Most requests a single connection may have undelivered before the
/// loop stops reading its socket.
pub(crate) const MAX_PIPELINE: usize = 128;

/// Polls a draining loop waits for in-flight work before dropping the
/// connections still open (~2 s at [`POLL_INTERVAL`]).
const SHUTDOWN_GRACE_POLLS: u32 = 40;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// How a connection frames its messages, fixed by the first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// No byte seen yet.
    Unknown,
    /// 4-byte big-endian length + JSON (the compat protocol).
    Json,
    /// CKP1 binary frames.
    Binary,
}

/// One request executed off-loop, addressed back to (slot, generation,
/// seq) — the generation guards against the slot being reused by a new
/// connection while the request was in flight. `mode` and `op` tell the
/// dispatcher how to frame the response.
struct DispatchJob {
    slot: usize,
    generation: u64,
    seq: u64,
    mode: Mode,
    op: u16,
    request: Request,
}

/// A finished response frame on its way back to the loop.
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    bytes: Vec<u8>,
}

/// Finished frames the dispatchers have pushed and the loop has not yet
/// applied.
type Completions = Mutex<Vec<Completion>>;

struct Conn {
    stream: TcpStream,
    generation: u64,
    mode: Mode,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Next sequence number to stamp on an incoming request.
    next_seq: u64,
    /// Next sequence number whose response may be written.
    next_deliver: u64,
    /// Finished responses waiting for their turn, keyed by sequence.
    done: BTreeMap<u64, Vec<u8>>,
    /// Requests handed to dispatchers and not yet completed.
    inflight: usize,
    /// Sequence number of the write this connection is ordered behind:
    /// set when the write is parsed, cleared when it completes. While
    /// set, no further frame is parsed.
    barrier: Option<u64>,
    /// That write, while requests before it are still in flight; it is
    /// dispatched when `inflight` drops to 0, so `held` implies
    /// `inflight > 0`.
    held: Option<DispatchJob>,
    /// The stream is desynchronised or the server is draining — parse no
    /// further input. Implies `close_after_flush`.
    stop_parsing: bool,
    /// Close once every owed response is flushed, and read nothing more
    /// from the socket; complete frames already buffered are still
    /// answered unless `stop_parsing` is set.
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    /// Whether parsing (and therefore reading) waits: the pipeline is
    /// full, or a write is held or running.
    fn paused(&self) -> bool {
        self.barrier.is_some() || self.inflight + self.done.len() >= MAX_PIPELINE
    }

    fn wants(&self) -> Interest {
        Interest {
            readable: !self.close_after_flush && !self.paused(),
            writable: !self.outbuf.is_empty(),
        }
    }

    fn idle(&self) -> bool {
        self.inflight == 0 && self.done.is_empty() && self.outbuf.is_empty()
    }
}

/// Runs the event loop until shutdown completes its drain.
/// `subscriptions` receives the threads that replication subscriptions
/// are handed off to, so [`crate::Server::join`] can join them.
pub(crate) fn run(
    listener: TcpListener,
    shared: &Arc<Shared>,
    subscriptions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let poller = Poller::new().expect("epoll_create1");
    let wake = Arc::new(WakePipe::new().expect("wake pipe"));
    poller
        .register(wake.read_fd(), WAKE_TOKEN, Interest::READ)
        .expect("register wake pipe");
    poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
        .expect("register listener");

    // A deeper floor than the scoring queue so a burst of cheap inline
    // ops (which never touch the scoring queue) is not refused just
    // because the hand-off buffer is momentarily full.
    let dispatch: Arc<BoundedQueue<DispatchJob>> =
        Arc::new(BoundedQueue::new(shared.config.queue_capacity.max(64)));
    let completions = Arc::new(Completions::default());
    let dispatchers: Vec<JoinHandle<()>> = (0..(shared.config.workers * 4).max(8))
        .map(|i| {
            let shared = Arc::clone(shared);
            let dispatch = Arc::clone(&dispatch);
            let completions = Arc::clone(&completions);
            let wake = Arc::clone(&wake);
            std::thread::Builder::new()
                .name(format!("ck-serve-dispatch-{i}"))
                .spawn(move || dispatcher_loop(&shared, &dispatch, &completions, &wake))
                .expect("spawn dispatcher thread")
        })
        .collect();

    let mut state = Loop {
        shared: Arc::clone(shared),
        poller,
        wake,
        dispatch,
        completions,
        subscriptions: Arc::clone(subscriptions),
        conns: Vec::new(),
        free: Vec::new(),
        generations: 0,
        accepting: true,
        shutdown_polls: 0,
    };
    state.run(&listener);

    // Drain the dispatchers: in-flight handle_request calls finish (the
    // scoring workers are still running — Server::join stops them only
    // after this thread exits), late completions land in a list nobody
    // reads any more, and the pool exits.
    state.dispatch.close();
    for dispatcher in dispatchers {
        dispatcher.join().expect("dispatcher thread panicked");
    }
}

fn dispatcher_loop(
    shared: &Arc<Shared>,
    dispatch: &BoundedQueue<DispatchJob>,
    completions: &Completions,
    wake: &WakePipe,
) {
    while let Some(job) = dispatch.pop() {
        let DispatchJob { slot, generation, seq, mode, op, request } = job;
        let bytes = render(&shared.stats, mode, op, handle_request(request, shared));
        let completion = Completion { slot, generation, seq, bytes };
        completions.lock().expect("completion lock").push(completion);
        wake.wake();
    }
}

/// Encodes one response envelope as a frame in the connection's wire
/// mode — JSON text, or the same tree in CKP1's bval — and counts it
/// once in the ok/error counters.
fn render(
    stats: &ServeStats,
    mode: Mode,
    op: u16,
    outcome: Result<Value, RequestError>,
) -> Vec<u8> {
    let envelope = match outcome {
        Ok(envelope) => {
            ServeStats::bump(&stats.ok_responses);
            envelope
        }
        Err((kind, message)) => {
            ServeStats::bump(&stats.error_responses);
            match kind {
                ErrorKind::Overloaded => ServeStats::bump(&stats.overloaded),
                ErrorKind::DeadlineExceeded => ServeStats::bump(&stats.deadline_expired),
                _ => {}
            }
            error_value(kind, &message)
        }
    };
    match mode {
        Mode::Binary => {
            let mut body = Vec::new();
            binary::encode_value(&envelope, &mut body);
            binary::encode_frame(binary::KIND_RESPONSE, op, &body)
        }
        // Unknown cannot happen (a response implies a parsed frame),
        // but JSON is the safe rendering if it ever did.
        Mode::Json | Mode::Unknown => {
            let text = envelope.to_string();
            let mut framed = Vec::with_capacity(4 + text.len());
            framed.extend_from_slice(&(text.len() as u32).to_be_bytes());
            framed.extend_from_slice(text.as_bytes());
            framed
        }
    }
}

struct Loop {
    shared: Arc<Shared>,
    poller: Poller,
    wake: Arc<WakePipe>,
    dispatch: Arc<BoundedQueue<DispatchJob>>,
    completions: Arc<Completions>,
    subscriptions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generations: u64,
    accepting: bool,
    shutdown_polls: u32,
}

impl Loop {
    fn run(&mut self, listener: &TcpListener) {
        let termination = self.shared.config.watch_signals.then(crate::signal::termination_flag);
        let mut events: Vec<Event> = Vec::new();
        loop {
            if let Some(flag) = termination {
                if flag.load(std::sync::atomic::Ordering::Relaxed) {
                    self.shared.trigger_shutdown();
                }
            }
            if self.shared.shutting_down() && self.drain(listener) {
                return;
            }
            if self.poller.wait(&mut events, Some(POLL_INTERVAL)).is_err() {
                // epoll itself failing is unrecoverable for this front
                // end; drain and let join() finish the workers.
                self.shared.trigger_shutdown();
                continue;
            }
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_burst(listener),
                    WAKE_TOKEN => self.wake.drain(),
                    token => self.handle_io(token as usize, event),
                }
            }
            self.apply_completions();
        }
    }

    /// One shutdown step. The first call stops accepting and tells every
    /// connection to wind down; each call reports whether the drain has
    /// finished (all connections closed, or the grace window lapsed and
    /// the stragglers were dropped).
    fn drain(&mut self, listener: &TcpListener) -> bool {
        if self.accepting {
            self.accepting = false;
            let _ = self.poller.deregister(listener.as_raw_fd());
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_none() {
                    continue;
                }
                {
                    let conn = self.conns[slot].as_mut().expect("presence just checked");
                    conn.stop_parsing = true;
                    conn.close_after_flush = true;
                }
                self.settle(slot);
            }
        }
        self.apply_completions();
        if self.conns.iter().all(Option::is_none) {
            return true;
        }
        // In-flight work gets a grace window; then the stragglers are
        // dropped.
        self.shutdown_polls += 1;
        if self.shutdown_polls > SHUTDOWN_GRACE_POLLS {
            for slot in 0..self.conns.len() {
                if self.conns[slot].is_some() {
                    self.close(slot);
                }
            }
            return true;
        }
        false
    }

    fn accept_burst(&mut self, listener: &TcpListener) {
        if !self.accepting {
            return;
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => self.adopt(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (aborted handshakes, fd
                // pressure) must not kill the loop.
                Err(_) => return,
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = tune_stream(&stream);
        ServeStats::bump(&self.shared.stats.connections);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.generations += 1;
        let conn = Conn {
            stream,
            generation: self.generations,
            mode: Mode::Unknown,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            next_seq: 0,
            next_deliver: 0,
            done: BTreeMap::new(),
            inflight: 0,
            barrier: None,
            held: None,
            stop_parsing: false,
            close_after_flush: false,
            interest: Interest::READ,
        };
        if self.poller.register(conn.stream.as_raw_fd(), slot as u64, Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(conn);
    }

    fn handle_io(&mut self, slot: usize, event: Event) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if event.error {
            self.close(slot);
            return;
        }
        if event.writable && flush(conn).is_err() {
            self.close(slot);
            return;
        }
        if (event.readable || event.hangup) && self.service_reads(slot).is_err() {
            self.close(slot);
            return;
        }
        self.settle(slot);
    }

    /// Reads to EAGAIN, parses every complete frame, dispatches.
    /// `Err(())` closes the connection immediately (nothing owed).
    fn service_reads(&mut self, slot: usize) -> Result<(), ()> {
        let mut eof = false;
        {
            let conn = self.conns[slot].as_mut().expect("checked by caller");
            if !conn.close_after_flush {
                let mut chunk = [0u8; 64 * 1024];
                while !conn.paused() {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return Err(()),
                    }
                }
            }
        }
        self.parse_frames(slot)?;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return Ok(());
        };
        if eof {
            // The peer may have half-closed: responses already owed are
            // still flushed, and frames buffered behind a write barrier
            // still parsed, but nothing further is read.
            conn.close_after_flush = true;
            if conn.idle() {
                return Err(());
            }
        }
        Ok(())
    }

    /// Drains every complete frame currently buffered in `inbuf`.
    fn parse_frames(&mut self, slot: usize) -> Result<(), ()> {
        loop {
            // A replicate hand-off removes the connection mid-loop.
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return Ok(());
            };
            if conn.stop_parsing || conn.inbuf.is_empty() || conn.paused() {
                return Ok(());
            }
            if conn.mode == Mode::Unknown {
                conn.mode = if binary::sniff_binary(conn.inbuf[0]) {
                    ServeStats::bump(&self.shared.stats.binary_connections);
                    Mode::Binary
                } else {
                    Mode::Json
                };
            }
            let conn = self.conns[slot].as_mut().expect("presence checked above");
            match conn.mode {
                Mode::Unknown => unreachable!("mode was just sniffed"),
                Mode::Json => {
                    if conn.inbuf.len() < 4 {
                        return Ok(());
                    }
                    let len = u32::from_be_bytes([
                        conn.inbuf[0],
                        conn.inbuf[1],
                        conn.inbuf[2],
                        conn.inbuf[3],
                    ]) as usize;
                    if len > MAX_FRAME_LEN {
                        // The payload will never be read, so the stream
                        // is desynchronised: answer once, flush, close.
                        ServeStats::bump(&self.shared.stats.requests);
                        let message = format!("frame length {len} exceeds the limit");
                        self.finish_inline(
                            slot,
                            binary::OP_UNKNOWN,
                            Err((ErrorKind::FrameTooLarge, message)),
                            true,
                        );
                        return Ok(());
                    }
                    if conn.inbuf.len() < 4 + len {
                        return Ok(());
                    }
                    let payload: Vec<u8> = conn.inbuf.drain(..4 + len).skip(4).collect();
                    ServeStats::bump(&self.shared.stats.requests);
                    match String::from_utf8(payload) {
                        Ok(text) => {
                            self.take_request(slot, binary::OP_UNKNOWN, Request::parse(&text))
                        }
                        // Nothing sane to say on a non-UTF-8 stream —
                        // close, still flushing what is owed.
                        Err(_) => {
                            conn.stop_parsing = true;
                            conn.close_after_flush = true;
                            if conn.idle() {
                                return Err(());
                            }
                            return Ok(());
                        }
                    }
                }
                Mode::Binary => match binary::try_parse(&conn.inbuf) {
                    Ok(None) => return Ok(()),
                    Ok(Some((frame, consumed))) => {
                        conn.inbuf.drain(..consumed);
                        ServeStats::bump(&self.shared.stats.requests);
                        if frame.kind != binary::KIND_REQUEST {
                            self.finish_inline(
                                slot,
                                frame.op,
                                Err((
                                    ErrorKind::BadRequest,
                                    "only request frames may be sent to a server".to_string(),
                                )),
                                false,
                            );
                            continue;
                        }
                        let decoded = binary::decode_request(frame.op, &frame.payload);
                        self.take_request(slot, frame.op, decoded)
                    }
                    Err(defect) => {
                        // The framing itself is broken — answer once
                        // with a typed error, then close (headers carry
                        // no CRC, so nothing past this point is
                        // trustworthy).
                        ServeStats::bump(&self.shared.stats.requests);
                        let kind = match defect {
                            BinaryError::TooLarge(_) => ErrorKind::FrameTooLarge,
                            _ => ErrorKind::BadRequest,
                        };
                        self.finish_inline(
                            slot,
                            binary::OP_UNKNOWN,
                            Err((kind, defect.to_string())),
                            true,
                        );
                        return Ok(());
                    }
                },
            }
        }
    }

    /// Routes one decoded request (or its parse error): special ops are
    /// intercepted on the loop thread, the rest go to the dispatchers —
    /// a write only once everything before it has completed.
    fn take_request(&mut self, slot: usize, op: u16, request: Result<Request, RequestError>) {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match request {
            Err(err) => self.finish_inline_seq(slot, seq, op, Err(err), false),
            Ok(Request::Shutdown) => {
                self.shared.trigger_shutdown();
                let envelope =
                    ok_value(vec![("message".to_string(), Value::Str("draining".to_string()))]);
                self.finish_inline_seq(slot, seq, op, Ok(envelope), true);
            }
            Ok(Request::Replicate { snapshot, base_crc, wal_offset }) => {
                self.hand_off_subscription(slot, seq, op, snapshot, base_crc, wal_offset);
            }
            Ok(request) => {
                let is_write =
                    matches!(request, Request::ApplyMutations { .. } | Request::Compact { .. });
                let (generation, mode) = (conn.generation, conn.mode);
                let job = DispatchJob { slot, generation, seq, mode, op, request };
                if is_write {
                    conn.barrier = Some(seq);
                    if conn.inflight > 0 {
                        conn.held = Some(job);
                        return;
                    }
                }
                self.dispatch_job(job);
            }
        }
    }

    /// Hands one request to the dispatcher pool, answering it inline
    /// when the hand-off queue refuses it.
    fn dispatch_job(&mut self, job: DispatchJob) {
        let (slot, seq, op) = (job.slot, job.seq, job.op);
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        conn.inflight += 1;
        ServeStats::raise(
            &self.shared.stats.pipelined_peak,
            (conn.inflight + conn.done.len()) as u64,
        );
        if let Err(refusal) = self.dispatch.try_push(job) {
            let conn = self.conns[slot].as_mut().expect("checked by caller");
            conn.inflight -= 1;
            if conn.barrier == Some(seq) {
                conn.barrier = None;
            }
            let err = match refusal {
                PushError::Full => {
                    (ErrorKind::Overloaded, "dispatch queue is full; retry later".to_string())
                }
                PushError::Closed => (ErrorKind::ShuttingDown, "server is draining".to_string()),
            };
            self.finish_inline_seq(slot, seq, op, Err(err), false);
        }
    }

    /// A `replicate` request turns the connection into a WAL
    /// subscription, which is a blocking streaming protocol — the fd is
    /// pulled out of the loop and handed to a dedicated thread running
    /// [`replication::serve_subscription`]. Only a "clean" connection
    /// may convert: JSON mode (the WAL stream is JSON-framed), nothing
    /// pipelined ahead of it, and no buffered bytes behind it.
    fn hand_off_subscription(
        &mut self,
        slot: usize,
        seq: u64,
        op: u16,
        snapshot: String,
        base_crc: u32,
        wal_offset: u64,
    ) {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        let refusal = if conn.mode == Mode::Binary {
            Some("replicate requires the JSON protocol (the WAL stream is JSON-framed)")
        } else if conn.inflight > 0 || !conn.done.is_empty() || !conn.outbuf.is_empty() {
            Some("replicate on a pipelined connection is not allowed")
        } else if !conn.inbuf.is_empty() {
            Some("replicate must be the connection's last buffered request")
        } else {
            None
        };
        if let Some(why) = refusal {
            self.finish_inline_seq(
                slot,
                seq,
                op,
                Err((ErrorKind::BadRequest, why.to_string())),
                false,
            );
            return;
        }
        let conn = self.conns[slot].take().expect("checked by caller");
        self.free.push(slot);
        let stream = conn.stream;
        let _ = self.poller.deregister(stream.as_raw_fd());
        if stream.set_nonblocking(false).is_err()
            || stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        {
            return;
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("ck-serve-repl".to_string())
            .spawn(move || {
                let mut stream = stream;
                replication::serve_subscription(&mut stream, &shared, &snapshot, base_crc, wal_offset);
            })
            .expect("spawn replication thread");
        self.subscriptions.lock().expect("subscription registry lock").push(handle);
    }

    /// Completes a request at the *next* sequence number (used on paths
    /// where the request was never assigned one, e.g. framing errors).
    fn finish_inline(
        &mut self,
        slot: usize,
        op: u16,
        outcome: Result<Value, RequestError>,
        close_after: bool,
    ) {
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.finish_inline_seq(slot, seq, op, outcome, close_after);
    }

    fn finish_inline_seq(
        &mut self,
        slot: usize,
        seq: u64,
        op: u16,
        outcome: Result<Value, RequestError>,
        close_after: bool,
    ) {
        let mode = self.conns[slot].as_ref().expect("checked by caller").mode;
        let bytes = render(&self.shared.stats, mode, op, outcome);
        let conn = self.conns[slot].as_mut().expect("checked by caller");
        conn.done.insert(seq, bytes);
        if close_after {
            conn.stop_parsing = true;
            conn.close_after_flush = true;
        }
    }

    /// Applies every queued completion, then settles the touched slots.
    fn apply_completions(&mut self) {
        let ready = std::mem::take(&mut *self.completions.lock().expect("completion lock"));
        let mut touched = Vec::new();
        for Completion { slot, generation, seq, bytes } in ready {
            // A connection that died while its request ran gets nothing;
            // the dispatcher already counted the response.
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            if conn.generation != generation {
                continue;
            }
            conn.inflight -= 1;
            conn.done.insert(seq, bytes);
            if conn.barrier == Some(seq) {
                conn.barrier = None;
            }
            if conn.inflight == 0 {
                if let Some(write) = conn.held.take() {
                    self.dispatch_job(write);
                }
            }
            touched.push(slot);
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            self.settle(slot);
        }
    }

    /// Delivers in-order responses into the write buffer, flushes,
    /// resumes parsing frames buffered while the pipeline was full, and
    /// updates poller interest / closes as the state machine requires.
    fn settle(&mut self, slot: usize) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            deliver(conn);
            if flush(conn).is_err() {
                self.close(slot);
                return;
            }
        }
        // Completions may have freed pipeline slots or lifted a write
        // barrier for frames that were already buffered; those will never
        // raise another epoll event.
        if self.parse_frames(slot).is_err() {
            self.close(slot);
            return;
        }
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        deliver(conn);
        if flush(conn).is_err() {
            self.close(slot);
            return;
        }
        let conn = self.conns[slot].as_mut().expect("just flushed");
        if conn.close_after_flush && conn.idle() {
            self.close(slot);
            return;
        }
        let wants = conn.wants();
        if wants != conn.interest {
            if self.poller.reregister(conn.stream.as_raw_fd(), slot as u64, wants).is_err() {
                self.close(slot);
                return;
            }
            let conn = self.conns[slot].as_mut().expect("just reregistered");
            conn.interest = wants;
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.free.push(slot);
            // conn.stream drops here, closing the fd.
        }
    }
}

/// Moves every response whose turn has come into the write buffer.
fn deliver(conn: &mut Conn) {
    while let Some(bytes) = conn.done.remove(&conn.next_deliver) {
        conn.outbuf.extend_from_slice(&bytes);
        conn.next_deliver += 1;
    }
}

/// Writes as much of `outbuf` as the socket accepts right now.
/// `Err(())` means the connection is dead.
fn flush(conn: &mut Conn) -> Result<(), ()> {
    let mut written = 0;
    while written < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[written..]) {
            Ok(0) => return Err(()),
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    conn.outbuf.drain(..written);
    Ok(())
}
