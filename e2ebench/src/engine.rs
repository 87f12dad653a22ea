//! The load engine: two connections (CKP1 and JSON), at most two
//! threads. The open loop sends on a seeded Poisson schedule from the
//! calling thread while one receiver thread completes answers; every
//! request is timed from the instant it was due. The closed loop keeps a
//! fixed number of requests in flight from a single thread.

use crate::frames::{decode_response, Proto, RawResponse, Splitter};
use crate::workload::{Checker, ClosedPlan, Item, Op, PhasePlan, Verdict};
use crate::{pct, procfs};
use circlekit_net::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long answers may trail the end of a phase before the run fails.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// Longest single wait for readiness; bounds how late an abort is seen.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// One request's fate.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub op: Op,
    pub conn: u8,
    /// When it was due: its scheduled instant (open loop) or its send
    /// instant (closed loop).
    pub due: Instant,
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    pub verdict: Verdict,
    pub req_bytes: u32,
    pub resp_bytes: u32,
    /// Traced runs only: when the send returned, and when the read that
    /// completed the answer's frame returned.
    pub sent_end: Option<Instant>,
    pub frame_at: Option<Instant>,
}

impl Record {
    fn new(item: &Item, due: Instant) -> Record {
        Record {
            op: item.op,
            conn: item.conn as u8,
            due,
            sent: None,
            done: None,
            verdict: Verdict::default(),
            req_bytes: item.frame.len() as u32,
            resp_bytes: 0,
            sent_end: None,
            frame_at: None,
        }
    }

    /// Due-to-answer latency in ms; `None` for anything but a correct
    /// answer (which percentiles count as infinitely slow).
    pub fn latency_ms(&self) -> Option<f64> {
        match (self.verdict.correct, self.done) {
            (true, Some(done)) => {
                Some(done.saturating_duration_since(self.due).as_secs_f64() * 1e3)
            }
            _ => None,
        }
    }

    /// How late the send left, in ms.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// What one phase measured.
pub struct PhaseOut {
    pub start: Instant,
    /// End of the measured window.
    pub end: Instant,
    pub records: Vec<Record>,
    /// The generator's own CPU time over the phase, in seconds.
    pub gen_cpu_s: f64,
}

impl PhaseOut {
    /// The measured window cut into `n` equal slices.
    fn slices(&self, n: usize) -> Vec<(Instant, Instant)> {
        let step = (self.end - self.start) / n.max(1) as u32;
        (0..n.max(1) as u32)
            .map(|k| (self.start + step * k, self.start + step * (k + 1)))
            .collect()
    }

    /// Median over `n` slices of the `q` latency percentile of the
    /// requests due in each slice. A host stall confined to fewer than
    /// half the slices leaves it unmoved.
    pub fn sliced_percentile(&self, q: f64, n: usize) -> f64 {
        let per_slice: Vec<f64> = self
            .slices(n)
            .into_iter()
            .map(|(a, b)| {
                let s: Vec<pct::Sample> = self
                    .records
                    .iter()
                    .filter(|r| r.due >= a && r.due < b)
                    .map(Record::latency_ms)
                    .collect();
                pct::percentile(&s, q).unwrap_or(0.0)
            })
            .collect();
        pct::median(&per_slice).unwrap_or(0.0)
    }

    /// Median over `n` slices of the correct answers completed in each
    /// slice, per second.
    pub fn sliced_goodput(&self, n: usize) -> f64 {
        let per_slice: Vec<f64> = self
            .slices(n)
            .into_iter()
            .map(|(a, b)| {
                let done = self
                    .records
                    .iter()
                    .filter(|r| r.verdict.correct && r.done.is_some_and(|d| d > a && d <= b))
                    .count();
                done as f64 / (b - a).as_secs_f64()
            })
            .collect();
        pct::median(&per_slice).unwrap_or(0.0)
    }
}

/// Readiness and frame reassembly over the two connections.
struct Receiver<'a> {
    conns: &'a [TcpStream; 2],
    poller: Poller,
    splitters: [Splitter; 2],
    events: Vec<Event>,
    buf: Vec<u8>,
}

impl<'a> Receiver<'a> {
    fn new(conns: &'a [TcpStream; 2]) -> Result<Receiver<'a>, String> {
        let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
        for (token, conn) in conns.iter().enumerate() {
            poller
                .register(conn.as_raw_fd(), token as u64, Interest::READ)
                .map_err(|e| format!("epoll register: {e}"))?;
        }
        Ok(Receiver {
            conns,
            poller,
            splitters: [Splitter::new(Proto::Ckp1), Splitter::new(Proto::Json)],
            events: Vec::new(),
            buf: vec![0u8; 256 * 1024],
        })
    }

    /// Waits at most `timeout` for answers and hands each whole frame to
    /// `on_frame(conn, read_returned_at, frame)`.
    fn pump(
        &mut self,
        timeout: Duration,
        mut on_frame: impl FnMut(usize, Instant, RawResponse) -> Result<(), String>,
    ) -> Result<(), String> {
        // `Poller::wait` truncates to whole milliseconds and would spin
        // on anything shorter: always wait at least 1 ms, rounding up.
        let ms = timeout
            .as_micros()
            .div_ceil(1000)
            .clamp(1, MAX_WAIT.as_millis());
        self.poller
            .wait(&mut self.events, Some(Duration::from_millis(ms as u64)))
            .map_err(|e| format!("epoll wait: {e}"))?;
        for i in 0..self.events.len() {
            let ev = self.events[i];
            if !(ev.readable || ev.hangup || ev.error) {
                continue;
            }
            let conn = ev.token as usize;
            let n = (&self.conns[conn])
                .read(&mut self.buf)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!("daemon closed connection {conn}"));
            }
            let at = Instant::now();
            self.splitters[conn].push(&self.buf[..n]);
            while let Some(frame) = self.splitters[conn].next_frame()? {
                on_frame(conn, at, frame)?;
            }
        }
        Ok(())
    }
}

/// Decodes and checks one answer into `record`.
fn complete(
    record: &mut Record,
    item: &Item,
    frame: RawResponse,
    at: Instant,
    checker: &mut Checker,
    traced: bool,
) {
    record.verdict = match decode_response(Proto::of_conn(item.conn), &frame.payload) {
        Ok(value) => checker.check(item.check, &value),
        Err(_) => Verdict {
            correct: false,
            wrong: true,
            cached: None,
        },
    };
    record.resp_bytes = frame.wire_bytes as u32;
    record.done = Some(Instant::now());
    if traced {
        record.frame_at = Some(at);
    }
}

/// Runs an open-loop phase: `plan.items[i]` leaves at `plan.sched[i]`.
///
/// # Errors
///
/// A message when a connection fails or answers go missing.
pub fn run_open(
    conns: &[TcpStream; 2],
    plan: &PhasePlan,
    checker: &mut Checker,
    traced: bool,
) -> Result<PhaseOut, String> {
    let items = &plan.items;
    let phase_len = plan.sched.last().copied().unwrap_or_default();
    let start = Instant::now() + Duration::from_millis(5);
    let mut records: Vec<Record> = items
        .iter()
        .zip(&plan.sched)
        .map(|(item, &t)| Record::new(item, start + t))
        .collect();
    let mut fifo: [VecDeque<usize>; 2] = [VecDeque::new(), VecDeque::new()];
    for (i, item) in items.iter().enumerate() {
        fifo[item.conn].push_back(i);
    }
    let cpu0 = procfs::sample("self").unwrap_or_default();
    let abort = AtomicBool::new(false);
    let deadline = start + phase_len + DRAIN_LIMIT;
    let (sent, answers) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let out = receive_all(
                conns,
                items,
                &mut records,
                fifo,
                checker,
                deadline,
                traced,
                &abort,
            );
            if out.is_err() {
                abort.store(true, Ordering::Relaxed);
            }
            out
        });
        let sent = send_schedule(conns, items, &plan.sched, start, traced, &abort);
        if sent.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        let answers = receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string());
        (sent, answers)
    });
    let sent = sent?;
    answers??;
    for (record, (at, at_end)) in records.iter_mut().zip(sent) {
        record.sent = Some(at);
        record.sent_end = at_end;
    }
    let gen_cpu_s = procfs::sample("self")
        .unwrap_or_default()
        .since(&cpu0)
        .cpu_s();
    Ok(PhaseOut {
        start,
        end: start + phase_len,
        records,
        gen_cpu_s,
    })
}

/// The sender: sleeps to each due instant (timer slack lowered, never a
/// spin) and writes the pre-encoded frame.
fn send_schedule(
    conns: &[TcpStream; 2],
    items: &[Item],
    sched: &[Duration],
    start: Instant,
    traced: bool,
    abort: &AtomicBool,
) -> Result<Vec<(Instant, Option<Instant>)>, String> {
    let mut out = Vec::with_capacity(items.len());
    for (item, &offset) in items.iter().zip(sched) {
        if abort.load(Ordering::Relaxed) {
            return Err("receiver failed".to_string());
        }
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        (&conns[item.conn])
            .write_all(&item.frame)
            .map_err(|e| format!("send: {e}"))?;
        out.push((at, traced.then(Instant::now)));
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn receive_all(
    conns: &[TcpStream; 2],
    items: &[Item],
    records: &mut [Record],
    mut fifo: [VecDeque<usize>; 2],
    checker: &mut Checker,
    deadline: Instant,
    traced: bool,
    abort: &AtomicBool,
) -> Result<(), String> {
    let mut rx = Receiver::new(conns)?;
    let mut remaining = items.len();
    while remaining > 0 {
        if abort.load(Ordering::Relaxed) {
            return Err("sender failed".to_string());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "{remaining} answers missing {DRAIN_LIMIT:?} after the phase"
            ));
        }
        rx.pump(MAX_WAIT, |conn, at, frame| {
            let i = fifo[conn].pop_front().ok_or("an answer nobody asked for")?;
            complete(&mut records[i], &items[i], frame, at, checker, traced);
            remaining -= 1;
            Ok(())
        })?;
    }
    Ok(())
}

/// Runs a closed-loop phase for `duration`: `depth` requests stay in
/// flight, split over the two connections, each answer releasing the
/// next request on its connection. Ends early once non-cyclic pools run
/// dry.
///
/// # Errors
///
/// A message when a connection fails or answers go missing.
pub fn run_closed(
    conns: &[TcpStream; 2],
    plan: &ClosedPlan,
    depth: usize,
    duration: Duration,
    checker: &mut Checker,
) -> Result<PhaseOut, String> {
    let mut rx = Receiver::new(conns)?;
    let cpu0 = procfs::sample("self").unwrap_or_default();
    let start = Instant::now();
    let mut end = start + duration;
    let mut records: Vec<Record> = Vec::new();
    let mut sent_items: Vec<&Item> = Vec::new();
    let mut fifo: [VecDeque<usize>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut cursor = [0usize; 2];
    for conn in 0..2 {
        for _ in 0..depth / 2 {
            if let Some(item) = next_item(plan, conn, &mut cursor) {
                send_one(conns, item, &mut records, &mut sent_items, &mut fifo)?;
            }
        }
    }
    loop {
        let now = Instant::now();
        let in_flight = fifo[0].len() + fifo[1].len();
        if now >= end || in_flight == 0 {
            end = end.min(now);
            break;
        }
        rx.pump(end.saturating_duration_since(now), |conn, at, frame| {
            let i = fifo[conn].pop_front().ok_or("an answer nobody asked for")?;
            complete(&mut records[i], sent_items[i], frame, at, checker, false);
            if Instant::now() < end {
                if let Some(item) = next_item(plan, conn, &mut cursor) {
                    send_one(conns, item, &mut records, &mut sent_items, &mut fifo)?;
                }
            }
            Ok(())
        })?;
    }
    let deadline = Instant::now() + DRAIN_LIMIT;
    while fifo[0].len() + fifo[1].len() > 0 {
        if Instant::now() > deadline {
            return Err("answers missing after the closed-loop phase".to_string());
        }
        rx.pump(MAX_WAIT, |conn, at, frame| {
            let i = fifo[conn].pop_front().ok_or("an answer nobody asked for")?;
            complete(&mut records[i], sent_items[i], frame, at, checker, false);
            Ok(())
        })?;
    }
    let gen_cpu_s = procfs::sample("self")
        .unwrap_or_default()
        .since(&cpu0)
        .cpu_s();
    Ok(PhaseOut {
        start,
        end,
        records,
        gen_cpu_s,
    })
}

/// Sends one closed-loop request and queues it for its answer.
fn send_one<'p>(
    conns: &[TcpStream; 2],
    item: &'p Item,
    records: &mut Vec<Record>,
    sent_items: &mut Vec<&'p Item>,
    fifo: &mut [VecDeque<usize>; 2],
) -> Result<(), String> {
    let at = Instant::now();
    (&conns[item.conn])
        .write_all(&item.frame)
        .map_err(|e| format!("send: {e}"))?;
    let mut record = Record::new(item, at);
    record.sent = Some(at);
    records.push(record);
    sent_items.push(item);
    fifo[item.conn].push_back(records.len() - 1);
    Ok(())
}

/// The next request of `conn`'s pool, `None` once a non-cyclic pool is
/// spent.
fn next_item<'p>(plan: &'p ClosedPlan, conn: usize, cursor: &mut [usize; 2]) -> Option<&'p Item> {
    let pool = &plan.pools[conn];
    if pool.is_empty() || (!plan.cyclic && cursor[conn] >= pool.len()) {
        return None;
    }
    let item = &pool[cursor[conn] % pool.len()];
    cursor[conn] += 1;
    Some(item)
}
