//! Load generator for `circlekit-serve`.
//!
//! ```text
//! loadgen [--connections N] [--requests N] [--scale F] [--workers N]
//!         [--addr HOST:PORT] [--snapshot FILE.cks] [--out FILE.json]
//!         [--kill-replica] [--mix] [--shards N] [--rate R]
//! ```
//!
//! Drives `--connections` concurrent clients, each issuing `--requests`
//! group-scoring requests, and writes throughput plus latency
//! percentiles to `BENCH_serve.json` at the repo root (or `--out`).
//! By default the harness starts an in-process server over the seeded
//! synthetic Google+ fixture so the run is self-contained; `--addr`
//! points it at an external daemon instead, and `--snapshot` serves a
//! packed `.cks` file rather than the fixture.
//!
//! Failures are tallied by category — `refused` (connect refused),
//! `reset` (peer closed mid-exchange), `timeout` (client deadline),
//! `typed_error` (a protocol-level refusal), `other` — so a run's
//! failure mode is visible at a glance, not just its count.
//!
//! `--mix` switches each connection to mixed traffic — group scoring,
//! `suggest_circles` discovery, and small `apply_mutations` batches
//! interleaved — so cache invalidation and re-discovery run under
//! concurrent load. The resulting `serve_loadgen_mix` row replaces only
//! itself in the report file, leaving the plain row in place.
//!
//! `--rate R` switches to the open-loop drill: `--connections` (up to
//! 10k) nonblocking CKP1 connections multiplexed on one epoll poller,
//! with arrivals drawn from a Poisson process at `R` requests/second
//! aggregate. Open loop means arrivals never wait for responses, so
//! queueing delay is charged to latency — each sample runs from the
//! *scheduled* arrival instant to response receipt, making coordinated
//! omission impossible. The `serve_loadgen_async` row is appended
//! alongside the closed-loop row (replacing only itself); the gates are
//! zero failed requests and p99 ≤ 10 ms.
//!
//! `--kill-replica` runs the availability drill instead: an in-process
//! primary plus one read replica, failover clients preferring the
//! replica, and a controller that takes the replica down mid-run and
//! restarts it on the same port. The acceptance bar is read
//! availability ≥ 99% while the replica bounces; the resulting
//! `serve_loadgen_failover` row is *appended* to the report file
//! (JSON lines), leaving the plain `serve_loadgen` row in place.
//!
//! `--shards N` runs the sharded-cluster drill: the fixture is split
//! into `N` halo sub-snapshots served by `N` in-process shard daemons
//! behind a coordinator, and the same workload is driven twice — once
//! against a single-node server and once through the coordinator — so
//! the `serve_loadgen_shard` row records the scatter-gather overhead
//! directly. The gates are zero failed requests and a coordinator p99
//! overhead under 50 ms over the single-node p99.
//!
//! In plain mode the process exits non-zero if *any* request fails —
//! the acceptance bar for the serve subsystem is zero failed requests
//! under ≥ 8 concurrent connections.

use circlekit::live::Mutation;
use circlekit_bench::gplus;
use circlekit_serve::{
    Client, ClientError, FailoverClient, FailoverOptions, FrameError, ServeConfig, Server,
    SnapshotRegistry,
};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Options {
    connections: usize,
    requests: usize,
    scale: f64,
    workers: usize,
    addr: Option<String>,
    snapshot: Option<String>,
    out: Option<String>,
    kill_replica: bool,
    mix: bool,
    shards: Option<usize>,
    rate: Option<f64>,
}

fn parse_options() -> Result<Options, String> {
    let mut opts = Options {
        connections: 8,
        requests: 50,
        scale: 0.01,
        workers: 2,
        addr: None,
        snapshot: None,
        out: None,
        kill_replica: false,
        mix: false,
        shards: None,
        rate: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--connections" => {
                let v = value("--connections")?;
                opts.connections = v.parse().map_err(|_| format!("bad --connections {v:?}"))?;
            }
            "--requests" => {
                let v = value("--requests")?;
                opts.requests = v.parse().map_err(|_| format!("bad --requests {v:?}"))?;
            }
            "--scale" => {
                let v = value("--scale")?;
                opts.scale = v.parse().map_err(|_| format!("bad --scale {v:?}"))?;
            }
            "--workers" => {
                let v = value("--workers")?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
            }
            "--addr" => opts.addr = Some(value("--addr")?),
            "--snapshot" => opts.snapshot = Some(value("--snapshot")?),
            "--out" => opts.out = Some(value("--out")?),
            "--kill-replica" => opts.kill_replica = true,
            "--mix" => opts.mix = true,
            "--shards" => {
                opts.shards = Some(circlekit::shard::parse_shard_count(&value("--shards")?)?)
            }
            "--rate" => {
                let v = value("--rate")?;
                let rate: f64 = v.parse().map_err(|_| format!("bad --rate {v:?}"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err(format!("--rate must be a positive finite number, got {v:?}"));
                }
                opts.rate = Some(rate);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.connections == 0 || opts.requests == 0 {
        return Err("--connections and --requests must be at least 1".to_string());
    }
    Ok(opts)
}

/// Buckets a failure for the per-category tally.
fn classify(error: &ClientError) -> &'static str {
    match error {
        ClientError::Io(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => "refused",
        ClientError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
            ) =>
        {
            "reset"
        }
        ClientError::Frame(FrameError::Closed | FrameError::Truncated) => "reset",
        ClientError::Timeout { .. } => "timeout",
        ClientError::Server { .. } | ClientError::NoPrimary { .. } => "typed_error",
        _ => "other",
    }
}

const CATEGORIES: [&str; 5] = ["refused", "reset", "timeout", "typed_error", "other"];

/// Renders the per-category failure counts as a JSON object.
fn failure_fields(failures: &[&(&'static str, String)]) -> serde_json::Value {
    serde_json::Value::Map(
        CATEGORIES
            .iter()
            .map(|&cat| {
                let n = failures.iter().filter(|(c, _)| *c == cat).count();
                (cat.to_string(), serde_json::json!(n))
            })
            .collect(),
    )
}

/// Latency percentile over a sorted sample, by nearest-rank.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct ConnReport {
    latencies_us: Vec<u64>,
    failures: Vec<(&'static str, String)>,
}

fn drive_connection(
    addr: &str,
    snapshot: &str,
    conn: usize,
    requests: usize,
    group_count: usize,
) -> ConnReport {
    let mut report = ConnReport { latencies_us: Vec::with_capacity(requests), failures: Vec::new() };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            report.failures.push((classify(&e), format!("connection {conn}: connect: {e}")));
            return report;
        }
    };
    for r in 0..requests {
        // Spread requests over groups and both function sets so the run
        // exercises cache hits, misses, and different batch shapes.
        let group = (conn * 31 + r * 7) % group_count;
        let functions = if r % 3 == 0 { Some("all") } else { None };
        let started = Instant::now();
        match client.score_group(snapshot, group, functions, None) {
            Ok(_) => report.latencies_us.push(started.elapsed().as_micros() as u64),
            Err(e) => {
                report.failures.push((classify(&e), format!("connection {conn}, request {r}: {e}")))
            }
        }
    }
    report
}

/// The `--kill-replica` variant of [`drive_connection`]: reads go
/// through a [`FailoverClient`] preferring the replica, so a bounce
/// mid-run exercises failover instead of failing the run.
fn drive_failover(
    endpoints: &[String],
    snapshot: &str,
    conn: usize,
    requests: usize,
    group_count: usize,
) -> ConnReport {
    let mut report = ConnReport { latencies_us: Vec::with_capacity(requests), failures: Vec::new() };
    let options = FailoverOptions { seed: conn as u64 + 1, ..FailoverOptions::default() };
    let mut client = FailoverClient::new(endpoints.iter().cloned(), options);
    for r in 0..requests {
        let group = (conn * 31 + r * 7) % group_count;
        let functions = if r % 3 == 0 { Some("all") } else { None };
        let started = Instant::now();
        match client.read(|c| c.score_group(snapshot, group, functions, None)) {
            Ok(_) => report.latencies_us.push(started.elapsed().as_micros() as u64),
            Err(e) => {
                report.failures.push((classify(&e), format!("connection {conn}, request {r}: {e}")))
            }
        }
    }
    report
}

/// Per-op latency samples for a `--mix` connection.
struct MixReport {
    score_us: Vec<u64>,
    suggest_us: Vec<u64>,
    mutate_us: Vec<u64>,
    failures: Vec<(&'static str, String)>,
}

/// The `--mix` variant of [`drive_connection`]: interleaves group
/// scoring, circle discovery, and single-edge mutation batches so the
/// server juggles score-cache hits, suggestion invalidation, and
/// re-discovery concurrently. Mutation rejections (duplicate edge,
/// missing edge) are normal traffic, not failures — the server reports
/// them inside an `ok` response.
fn drive_mix(
    addr: &str,
    snapshot: &str,
    conn: usize,
    requests: usize,
    group_count: usize,
    node_count: usize,
) -> MixReport {
    let mut report = MixReport {
        score_us: Vec::new(),
        suggest_us: Vec::new(),
        mutate_us: Vec::new(),
        failures: Vec::new(),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            report.failures.push((classify(&e), format!("connection {conn}: connect: {e}")));
            return report;
        }
    };
    for r in 0..requests {
        let started = Instant::now();
        let (bucket, outcome): (&mut Vec<u64>, Result<_, ClientError>) = match r % 5 {
            0 => {
                // Toggle one edge per batch; alternating add/remove keeps
                // the delta overlay churning without growing unboundedly.
                let u = ((conn * 7919 + r * 13) % node_count) as u32;
                let v = ((conn * 7919 + r * 13 + 1 + r % 11) % node_count) as u32;
                let mutation = if (r / 5) % 2 == 0 {
                    Mutation::AddEdge { u, v }
                } else {
                    Mutation::RemoveEdge { u, v }
                };
                (&mut report.mutate_us, client.apply_mutations(snapshot, &[mutation]))
            }
            1 | 3 => {
                let ego = ((conn * 31 + r * 17) % node_count) as u32;
                (&mut report.suggest_us, client.suggest_circles(snapshot, ego, 2014, 3, 10))
            }
            _ => {
                let group = (conn * 31 + r * 7) % group_count;
                let functions = if r % 3 == 0 { Some("all") } else { None };
                (&mut report.score_us, client.score_group(snapshot, group, functions, None))
            }
        };
        match outcome {
            Ok(_) => bucket.push(started.elapsed().as_micros() as u64),
            Err(e) => {
                report.failures.push((classify(&e), format!("connection {conn}, request {r}: {e}")))
            }
        }
    }
    report
}

/// Asks a running server which snapshot to drive: the first listed one,
/// with its group count from `list_groups`.
fn discover_target(addr: &str) -> Result<(String, usize), String> {
    let mut client = Client::connect_with_patience(addr, std::time::Duration::from_secs(5))
        .map_err(|e| format!("connecting to {addr}: {e}"))?;
    let listing = client.list_snapshots().map_err(|e| e.to_string())?;
    let wire = circlekit_serve::protocol::wire::get;
    let Some(serde_json::Value::Seq(snapshots)) = wire(&listing, "snapshots") else {
        return Err("list_snapshots response lacks a snapshot array".to_string());
    };
    let Some(first) = snapshots.first() else {
        return Err("the server has no snapshots loaded".to_string());
    };
    let Some(serde_json::Value::Str(id)) = wire(first, "id") else {
        return Err("snapshot entry lacks an id".to_string());
    };
    let groups = client.list_groups(id).map_err(|e| e.to_string())?;
    match wire(&groups, "groups") {
        Some(serde_json::Value::UInt(n)) => Ok((id.clone(), *n as usize)),
        _ => Err("list_groups response lacks a group count".to_string()),
    }
}

fn run() -> Result<(), String> {
    let opts = parse_options()?;
    if opts.rate.is_some() {
        return run_async(&opts);
    }
    if opts.kill_replica {
        return run_kill_replica(&opts);
    }
    if opts.mix {
        return run_mix(&opts);
    }
    if opts.shards.is_some() {
        return run_shards(&opts);
    }

    // Either attach to an external daemon or host one in-process.
    let mut local_server = None;
    let (addr, snapshot_id, group_count) = match &opts.addr {
        Some(addr) => {
            let (id, groups) = discover_target(addr)?;
            (addr.clone(), id, groups)
        }
        None => {
            let mut registry = SnapshotRegistry::new();
            let groups = match &opts.snapshot {
                Some(path) => {
                    registry.load(path, Some("loadgen"))?;
                    registry.get("loadgen").expect("just loaded").groups.len()
                }
                None => {
                    let data = gplus(opts.scale);
                    let groups = data.groups.len();
                    registry.insert("loadgen", data.graph, data.groups)?;
                    groups
                }
            };
            let config = ServeConfig {
                workers: opts.workers,
                ..ServeConfig::default()
            };
            let server = Server::start(registry, config, ("127.0.0.1", 0))
                .map_err(|e| format!("starting server: {e}"))?;
            let addr = server.local_addr().to_string();
            local_server = Some(server);
            (addr, "loadgen".to_string(), groups)
        }
    };
    if group_count == 0 {
        return Err("the served snapshot has no groups to score".to_string());
    }

    println!(
        "loadgen: {} connections x {} requests over {} groups at {addr}",
        opts.connections, opts.requests, group_count
    );
    let started = Instant::now();
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let snapshot_id = snapshot_id.as_str();
        let requests = opts.requests;
        let handles: Vec<_> = (0..opts.connections)
            .map(|conn| {
                scope.spawn(move || drive_connection(addr, snapshot_id, conn, requests, group_count))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = reports.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    let failures: Vec<&(&'static str, String)> = reports.iter().flat_map(|r| &r.failures).collect();
    let total = opts.connections * opts.requests;
    let ok = latencies.len();
    let throughput = ok as f64 / wall.as_secs_f64();
    let (p50, p90, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
    );

    let server_stats = local_server.map(|server| {
        let mut client = Client::connect(addr).expect("stats connection");
        client.shutdown().expect("shutdown request");
        server.join()
    });

    let mut fields = vec![
        ("bench".to_string(), serde_json::json!("serve_loadgen")),
        ("connections".to_string(), serde_json::json!(opts.connections)),
        ("requests_per_connection".to_string(), serde_json::json!(opts.requests)),
        ("total_requests".to_string(), serde_json::json!(total)),
        ("failed_requests".to_string(), serde_json::json!(failures.len())),
        ("failures".to_string(), failure_fields(&failures)),
        ("availability".to_string(), serde_json::json!(ok as f64 / total as f64)),
        ("wall_ms".to_string(), serde_json::json!(wall.as_millis() as u64)),
        ("throughput_rps".to_string(), serde_json::json!(throughput)),
        (
            "latency_us".to_string(),
            serde_json::json!({
                "p50": p50,
                "p90": p90,
                "p99": p99,
                "max": latencies.last().copied().unwrap_or(0),
            }),
        ),
    ];
    if let Some(stats) = server_stats {
        fields.push((
            "server".to_string(),
            serde_json::json!({
                "batches": stats.batches,
                "batched_jobs": stats.batched_jobs,
                "max_batch": stats.max_batch,
                "cache_hits": stats.cache.hits,
                "cache_misses": stats.cache.misses,
                "overloaded": stats.overloaded,
            }),
        ));
    }
    let report = serde_json::Value::Map(fields);
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let out_path = opts.out.as_deref().map(Path::new).unwrap_or(&default_out);
    // The file is JSON lines, one row per bench mode: replace this
    // mode's row, keep the others (e.g. serve_loadgen_failover).
    let kept: String = std::fs::read_to_string(out_path)
        .unwrap_or_default()
        .lines()
        .filter(|line| !line.contains("\"bench\":\"serve_loadgen\","))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(out_path, json + "\n" + &kept)
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    println!(
        "{ok}/{total} ok in {:.2}s ({throughput:.0} req/s)   p50 {p50}us  p90 {p90}us  p99 {p99}us",
        wall.as_secs_f64()
    );
    println!("wrote {}", out_path.display());
    for (category, detail) in failures.iter().map(|f| (f.0, &f.1)) {
        eprintln!("FAILED [{category}]: {detail}");
    }
    if !failures.is_empty() {
        return Err(format!("{} of {total} requests failed", failures.len()));
    }
    Ok(())
}

/// The `--rate` drill: open-loop Poisson arrivals over `--connections`
/// nonblocking CKP1 connections multiplexed on one [`Poller`](circlekit_net::Poller). Arrivals
/// fire on schedule whether or not earlier responses have landed, and
/// each latency sample runs from the *scheduled* arrival instant to
/// response receipt, so server queueing is charged to the tail instead
/// of being silently absorbed (no coordinated omission). Gates: zero
/// failed requests and p99 at or under 10 ms. Appends a
/// `serve_loadgen_async` row that replaces only itself.
fn run_async(opts: &Options) -> Result<(), String> {
    use circlekit::scoring::ScoringFunction;
    use circlekit_net::{Event, Interest, Poller};
    use circlekit_serve::{binary, Request};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;
    use std::io::{ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    const P99_BUDGET_US: u64 = 10_000;

    let rate = opts.rate.expect("mode guard");
    if opts.kill_replica || opts.mix || opts.shards.is_some() {
        return Err("--rate does not combine with --kill-replica/--mix/--shards".to_string());
    }

    // Host or attach, exactly as the closed-loop mode does.
    let mut local_server = None;
    let (addr, snapshot_id, group_count) = match &opts.addr {
        Some(addr) => {
            let (id, groups) = discover_target(addr)?;
            (addr.clone(), id, groups)
        }
        None => {
            let mut registry = SnapshotRegistry::new();
            let groups = match &opts.snapshot {
                Some(path) => {
                    registry.load(path, Some("loadgen"))?;
                    registry.get("loadgen").expect("just loaded").groups.len()
                }
                None => {
                    let data = gplus(opts.scale);
                    let groups = data.groups.len();
                    registry.insert("loadgen", data.graph, data.groups)?;
                    groups
                }
            };
            let config = ServeConfig { workers: opts.workers, ..ServeConfig::default() };
            let server = Server::start(registry, config, ("127.0.0.1", 0))
                .map_err(|e| format!("starting server: {e}"))?;
            let addr = server.local_addr().to_string();
            local_server = Some(server);
            (addr, "loadgen".to_string(), groups)
        }
    };
    if group_count == 0 {
        return Err("the served snapshot has no groups to score".to_string());
    }

    let total = opts.connections * opts.requests;
    println!(
        "loadgen --rate {rate}: open loop, {} connections, {total} Poisson arrivals \
         over {group_count} groups at {addr}",
        opts.connections
    );

    struct AsyncConn {
        stream: TcpStream,
        outbuf: Vec<u8>,
        inbuf: Vec<u8>,
        /// Scheduled arrival instants of in-flight requests. CKP1
        /// responses come back in request order, so the front is always
        /// the next response's arrival time.
        pending: VecDeque<Instant>,
        writable_interest: bool,
        dead: bool,
    }

    /// Takes a connection out of the run, charging every unanswered
    /// request on it as a `reset` failure.
    fn kill(
        poller: &Poller,
        index: usize,
        conn: &mut AsyncConn,
        failures: &mut Vec<(&'static str, String)>,
        why: &str,
    ) {
        if conn.dead {
            return;
        }
        conn.dead = true;
        let _ = poller.deregister(conn.stream.as_raw_fd());
        for _ in conn.pending.drain(..) {
            failures.push(("reset", format!("connection {index}: {why}")));
        }
    }

    /// Drains as much of the write buffer as the socket accepts, then
    /// keeps poller interest in sync with whether bytes remain.
    fn pump_writes(
        poller: &Poller,
        index: usize,
        conn: &mut AsyncConn,
        failures: &mut Vec<(&'static str, String)>,
    ) {
        if conn.dead {
            return;
        }
        while !conn.outbuf.is_empty() {
            match conn.stream.write(&conn.outbuf) {
                Ok(0) => {
                    kill(poller, index, conn, failures, "write returned 0");
                    return;
                }
                Ok(n) => {
                    conn.outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    kill(poller, index, conn, failures, &format!("write: {e}"));
                    return;
                }
            }
        }
        let want_write = !conn.outbuf.is_empty();
        if want_write != conn.writable_interest {
            let interest = if want_write { Interest::BOTH } else { Interest::READ };
            if poller.reregister(conn.stream.as_raw_fd(), index as u64, interest).is_ok() {
                conn.writable_interest = want_write;
            }
        }
    }

    let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut conns: Vec<AsyncConn> = Vec::with_capacity(opts.connections);
    for index in 0..opts.connections {
        let stream = TcpStream::connect(&addr)
            .map_err(|e| format!("connection {index}: connect: {e}"))?;
        circlekit_net::tune_stream(&stream)
            .map_err(|e| format!("connection {index}: nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("connection {index}: nonblocking: {e}"))?;
        poller
            .register(stream.as_raw_fd(), index as u64, Interest::READ)
            .map_err(|e| format!("connection {index}: register: {e}"))?;
        conns.push(AsyncConn {
            stream,
            outbuf: Vec::new(),
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            writable_interest: false,
            dead: false,
        });
    }

    let wire = circlekit_serve::protocol::wire::get;
    let mut failures: Vec<(&'static str, String)> = Vec::new();
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut rng = SmallRng::seed_from_u64(2014);
    let mut events: Vec<Event> = Vec::new();
    let started = Instant::now();
    let mut next_due = started;
    let mut issued = 0usize;
    // The schedule's own length plus a generous drain window; anything
    // unanswered past this is a timeout failure, not a hang.
    let drain_deadline =
        started + Duration::from_secs_f64(total as f64 / rate) + Duration::from_secs(30);

    loop {
        let now = Instant::now();
        let inflight: usize = conns.iter().map(|c| c.pending.len()).sum();
        if issued >= total && inflight == 0 {
            break;
        }
        if now >= drain_deadline {
            for (index, conn) in conns.iter_mut().enumerate() {
                for _ in conn.pending.drain(..) {
                    failures.push((
                        "timeout",
                        format!("connection {index}: unanswered at the drain deadline"),
                    ));
                }
            }
            break;
        }

        // Fire every due arrival; the open loop never waits for
        // responses, that is the point.
        while issued < total && now >= next_due {
            let preferred = issued % conns.len();
            let live = (0..conns.len())
                .map(|probe| (preferred + probe) % conns.len())
                .find(|&i| !conns[i].dead);
            let Some(index) = live else {
                return Err("every connection died mid-run".to_string());
            };
            let request = Request::ScoreGroup {
                snapshot: snapshot_id.clone(),
                group: issued % group_count,
                functions: ScoringFunction::PAPER.to_vec(),
                deadline_ms: None,
            };
            let (op, payload) = binary::encode_request(&request);
            let conn = &mut conns[index];
            conn.pending.push_back(next_due);
            conn.outbuf
                .extend_from_slice(&binary::encode_frame(binary::KIND_REQUEST, op, &payload));
            pump_writes(&poller, index, conn, &mut failures);
            issued += 1;
            // Exponential inter-arrival gap: a Poisson process at `rate`.
            let uniform: f64 = rng.gen();
            next_due += Duration::from_secs_f64(-(1.0 - uniform).ln() / rate);
        }

        let timeout = if issued < total {
            next_due.saturating_duration_since(Instant::now()).min(Duration::from_millis(100))
        } else {
            Duration::from_millis(100)
        };
        poller.wait(&mut events, Some(timeout)).map_err(|e| format!("epoll wait: {e}"))?;
        for event in &events {
            let index = event.token as usize;
            let Some(conn) = conns.get_mut(index) else { continue };
            if conn.dead {
                continue;
            }
            if event.error {
                kill(&poller, index, conn, &mut failures, "socket error");
                continue;
            }
            if event.writable {
                pump_writes(&poller, index, conn, &mut failures);
            }
            if !(event.readable || event.hangup) || conn.dead {
                continue;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        kill(&poller, index, conn, &mut failures, "peer closed");
                        break;
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        kill(&poller, index, conn, &mut failures, &format!("read: {e}"));
                        break;
                    }
                }
            }
            while !conn.dead {
                match binary::try_parse(&conn.inbuf) {
                    Ok(None) => break,
                    Ok(Some((frame, consumed))) => {
                        conn.inbuf.drain(..consumed);
                        let Some(scheduled) = conn.pending.pop_front() else {
                            kill(&poller, index, conn, &mut failures, "unsolicited response");
                            break;
                        };
                        let ok = binary::decode_response_payload(&frame.payload)
                            .ok()
                            .and_then(|value| match wire(&value, "ok") {
                                Some(serde_json::Value::Bool(ok)) => Some(*ok),
                                _ => None,
                            })
                            .unwrap_or(false);
                        if ok {
                            let waited = Instant::now().saturating_duration_since(scheduled);
                            latencies.push(waited.as_micros() as u64);
                        } else {
                            failures.push((
                                "typed_error",
                                format!("connection {index}: server refusal"),
                            ));
                        }
                    }
                    Err(defect) => {
                        kill(
                            &poller,
                            index,
                            conn,
                            &mut failures,
                            &format!("malformed response: {defect}"),
                        );
                        break;
                    }
                }
            }
        }
    }
    let wall = started.elapsed();

    // Close every client socket before asking the server to drain.
    drop(conns);
    drop(poller);
    let server_stats = match local_server {
        Some(server) => {
            let mut client =
                Client::connect(&addr).map_err(|e| format!("stats connection: {e}"))?;
            client.shutdown().map_err(|e| format!("shutdown request: {e}"))?;
            Some(server.join())
        }
        None => None,
    };

    latencies.sort_unstable();
    let ok = latencies.len();
    let throughput = ok as f64 / wall.as_secs_f64();
    let failure_refs: Vec<&(&'static str, String)> = failures.iter().collect();
    let (p50, p90, p99) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
    );

    let mut fields = vec![
        ("bench".to_string(), serde_json::json!("serve_loadgen_async")),
        ("open_loop".to_string(), serde_json::json!(true)),
        ("connections".to_string(), serde_json::json!(opts.connections)),
        ("rate_rps".to_string(), serde_json::json!(rate)),
        ("total_requests".to_string(), serde_json::json!(total)),
        ("failed_requests".to_string(), serde_json::json!(failures.len())),
        ("failures".to_string(), failure_fields(&failure_refs)),
        ("availability".to_string(), serde_json::json!(ok as f64 / total as f64)),
        ("wall_ms".to_string(), serde_json::json!(wall.as_millis() as u64)),
        ("throughput_rps".to_string(), serde_json::json!(throughput)),
        (
            "latency_us".to_string(),
            serde_json::json!({
                "p50": p50,
                "p90": p90,
                "p99": p99,
                "max": latencies.last().copied().unwrap_or(0),
            }),
        ),
        ("p99_budget_us".to_string(), serde_json::json!(P99_BUDGET_US)),
    ];
    if let Some(stats) = server_stats {
        fields.push((
            "server".to_string(),
            serde_json::json!({
                "binary_connections": stats.binary_connections,
                "pipelined_peak": stats.pipelined_peak,
                "batches": stats.batches,
                "batched_jobs": stats.batched_jobs,
                "cache_hits": stats.cache.hits,
                "cache_misses": stats.cache.misses,
                "overloaded": stats.overloaded,
            }),
        ));
    }
    let report = serde_json::Value::Map(fields);
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let out_path = opts.out.as_deref().map(Path::new).unwrap_or(&default_out);
    let kept: String = std::fs::read_to_string(out_path)
        .unwrap_or_default()
        .lines()
        .filter(|line| !line.contains("\"bench\":\"serve_loadgen_async\""))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(out_path, kept + &json + "\n")
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    println!(
        "{ok}/{total} ok in {:.2}s ({throughput:.0} req/s achieved vs {rate:.0} offered)   \
         p50 {p50}us  p90 {p90}us  p99 {p99}us",
        wall.as_secs_f64()
    );
    println!("wrote {}", out_path.display());
    for (category, detail) in failures.iter().map(|f| (f.0, &f.1)) {
        eprintln!("FAILED [{category}]: {detail}");
    }
    if !failures.is_empty() {
        return Err(format!("{} of {total} requests failed", failures.len()));
    }
    if p99 > P99_BUDGET_US {
        return Err(format!("open-loop p99 {p99}us exceeds the {P99_BUDGET_US}us budget"));
    }
    Ok(())
}

/// The `--mix` mode: hosts an in-process server (fixture or packed
/// `--snapshot`) and drives the mixed score / suggest / mutate workload,
/// appending a `serve_loadgen_mix` row that replaces only itself.
fn run_mix(opts: &Options) -> Result<(), String> {
    if opts.addr.is_some() {
        return Err("--mix hosts its own server; drop --addr".to_string());
    }
    let mut registry = SnapshotRegistry::new();
    let (group_count, node_count) = match &opts.snapshot {
        Some(path) => {
            registry.load(path, Some("loadgen"))?;
            let snap = registry.get("loadgen").expect("just loaded");
            (snap.groups.len(), snap.overlay.node_count())
        }
        None => {
            let data = gplus(opts.scale);
            let counts = (data.groups.len(), data.graph.node_count());
            registry.insert("loadgen", data.graph, data.groups)?;
            counts
        }
    };
    if group_count == 0 || node_count == 0 {
        return Err("the served snapshot needs both groups and nodes for mixed load".to_string());
    }
    let config = ServeConfig { workers: opts.workers, ..ServeConfig::default() };
    let server = Server::start(registry, config, ("127.0.0.1", 0))
        .map_err(|e| format!("starting server: {e}"))?;
    let addr = server.local_addr().to_string();

    println!(
        "loadgen --mix: {} connections x {} requests (score/suggest/mutate) over {} groups, \
         {} nodes at {addr}",
        opts.connections, opts.requests, group_count, node_count
    );
    let started = Instant::now();
    let reports: Vec<MixReport> = std::thread::scope(|scope| {
        let addr = addr.as_str();
        let requests = opts.requests;
        let handles: Vec<_> = (0..opts.connections)
            .map(|conn| {
                scope.spawn(move || {
                    drive_mix(addr, "loadgen", conn, requests, group_count, node_count)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let wall = started.elapsed();

    let collect = |pick: fn(&MixReport) -> &Vec<u64>| -> Vec<u64> {
        let mut all: Vec<u64> = reports.iter().flat_map(|r| pick(r).iter().copied()).collect();
        all.sort_unstable();
        all
    };
    let (score, suggest, mutate) = (
        collect(|r| &r.score_us),
        collect(|r| &r.suggest_us),
        collect(|r| &r.mutate_us),
    );
    let failures: Vec<&(&'static str, String)> = reports.iter().flat_map(|r| &r.failures).collect();
    let total = opts.connections * opts.requests;
    let ok = score.len() + suggest.len() + mutate.len();
    let throughput = ok as f64 / wall.as_secs_f64();

    let mut client = Client::connect(&addr).map_err(|e| format!("stats connection: {e}"))?;
    client.shutdown().map_err(|e| format!("shutdown request: {e}"))?;
    let stats = server.join();

    let op_latency = |sorted: &[u64]| {
        serde_json::json!({
            "p50": percentile(sorted, 50.0),
            "p90": percentile(sorted, 90.0),
            "p99": percentile(sorted, 99.0),
            "max": sorted.last().copied().unwrap_or(0),
        })
    };
    let report = serde_json::Value::Map(vec![
        ("bench".to_string(), serde_json::json!("serve_loadgen_mix")),
        ("connections".to_string(), serde_json::json!(opts.connections)),
        ("requests_per_connection".to_string(), serde_json::json!(opts.requests)),
        ("total_requests".to_string(), serde_json::json!(total)),
        ("failed_requests".to_string(), serde_json::json!(failures.len())),
        ("failures".to_string(), failure_fields(&failures)),
        ("availability".to_string(), serde_json::json!(ok as f64 / total as f64)),
        ("wall_ms".to_string(), serde_json::json!(wall.as_millis() as u64)),
        ("throughput_rps".to_string(), serde_json::json!(throughput)),
        (
            "ops".to_string(),
            serde_json::json!({
                "score_group": score.len(),
                "suggest_circles": suggest.len(),
                "apply_mutations": mutate.len(),
            }),
        ),
        (
            "latency_us".to_string(),
            serde_json::Value::Map(vec![
                ("score_group".to_string(), op_latency(&score)),
                ("suggest_circles".to_string(), op_latency(&suggest)),
                ("apply_mutations".to_string(), op_latency(&mutate)),
            ]),
        ),
        (
            "server".to_string(),
            serde_json::json!({
                "batches": stats.batches,
                "batched_jobs": stats.batched_jobs,
                "cache_hits": stats.cache.hits,
                "cache_misses": stats.cache.misses,
                "overloaded": stats.overloaded,
            }),
        ),
    ]);
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let out_path = opts.out.as_deref().map(Path::new).unwrap_or(&default_out);
    let kept: String = std::fs::read_to_string(out_path)
        .unwrap_or_default()
        .lines()
        .filter(|line| !line.contains("\"bench\":\"serve_loadgen_mix\""))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(out_path, kept + &json + "\n")
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    println!(
        "{ok}/{total} ok in {:.2}s ({throughput:.0} req/s)   score {}  suggest {}  mutate {}",
        wall.as_secs_f64(),
        score.len(),
        suggest.len(),
        mutate.len()
    );
    println!("wrote {}", out_path.display());
    for (category, detail) in failures.iter().map(|f| (f.0, &f.1)) {
        eprintln!("FAILED [{category}]: {detail}");
    }
    if !failures.is_empty() {
        return Err(format!("{} of {total} requests failed", failures.len()));
    }
    Ok(())
}

/// The `--shards N` drill: the fixture split into `N` halo
/// sub-snapshots behind `N` in-process shard daemons and a coordinator,
/// with the identical workload also driven against a single-node server
/// so the row records the coordinator's scatter-gather overhead. Gates:
/// zero failures and coordinator p99 within `SHARD_OVERHEAD_BUDGET_US`
/// of the single-node p99. Writes a `serve_loadgen_shard` row that
/// replaces only itself.
fn run_shards(opts: &Options) -> Result<(), String> {
    const SHARD_OVERHEAD_BUDGET_US: u64 = 50_000;
    if opts.addr.is_some() || opts.snapshot.is_some() {
        return Err("--shards hosts its own cluster; drop --addr/--snapshot".to_string());
    }
    let shard_count = opts.shards.expect("mode guard");
    let shard_count =
        u32::try_from(shard_count).map_err(|_| format!("--shards {shard_count} is too large"))?;
    let dir = std::env::temp_dir().join(format!("circlekit-loadgen-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let data = gplus(opts.scale);
    let group_count = data.groups.len();
    if group_count == 0 {
        return Err("the fixture has no groups to score".to_string());
    }
    let median = circlekit::scoring::Scorer::new(&data.graph).median_degree();

    // Pack and boot the shard fleet, then the coordinator in front.
    let mut shard_servers = Vec::new();
    let mut shard_addrs = Vec::new();
    for index in 0..shard_count {
        let path = dir.join(format!("loadgen.shard{index}.cks"));
        let manifest =
            circlekit::shard::manifest_for(&data.graph, median, 0, shard_count, index);
        let sub = circlekit::shard::shard_graph(&data.graph, shard_count, index);
        circlekit::store::save_shard_snapshot(&path, &sub, &data.groups, &manifest)
            .map_err(|e| format!("packing shard {index}: {e}"))?;
        let mut registry = SnapshotRegistry::new();
        registry.load(&path.to_string_lossy(), None)?;
        let config = ServeConfig { workers: opts.workers, ..ServeConfig::default() };
        let server = Server::start(registry, config, ("127.0.0.1", 0))
            .map_err(|e| format!("starting shard {index}: {e}"))?;
        shard_addrs.push(server.local_addr().to_string());
        shard_servers.push(server);
    }
    let coordinator = Server::start(
        SnapshotRegistry::new(),
        ServeConfig {
            coordinator: Some(circlekit_serve::CoordinatorConfig::new(shard_addrs.clone())),
            ..ServeConfig::default()
        },
        ("127.0.0.1", 0),
    )
    .map_err(|e| format!("starting coordinator: {e}"))?;
    let coord_addr = coordinator.local_addr().to_string();

    // The single-node reference serving the unsplit fixture.
    let mut registry = SnapshotRegistry::new();
    registry.insert("loadgen", data.graph.clone(), data.groups.clone())?;
    let single = Server::start(
        registry,
        ServeConfig { workers: opts.workers, ..ServeConfig::default() },
        ("127.0.0.1", 0),
    )
    .map_err(|e| format!("starting single-node server: {e}"))?;
    let single_addr = single.local_addr().to_string();

    println!(
        "loadgen --shards {shard_count}: {} connections x {} requests over {} groups, \
         coordinator {coord_addr} vs single node {single_addr}",
        opts.connections, opts.requests, group_count
    );
    let drive = |addr: &str| -> (Vec<u64>, Vec<(&'static str, String)>, Duration) {
        let started = Instant::now();
        let reports: Vec<ConnReport> = std::thread::scope(|scope| {
            let requests = opts.requests;
            let handles: Vec<_> = (0..opts.connections)
                .map(|conn| {
                    scope.spawn(move || {
                        drive_connection(addr, "loadgen", conn, requests, group_count)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
        });
        let wall = started.elapsed();
        let mut latencies: Vec<u64> =
            reports.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
        latencies.sort_unstable();
        let failures = reports.into_iter().flat_map(|r| r.failures).collect();
        (latencies, failures, wall)
    };
    let (single_lat, single_failures, _) = drive(&single_addr);
    let (coord_lat, coord_failures, wall) = drive(&coord_addr);

    for server in shard_servers.into_iter().chain([coordinator, single]) {
        server.shutdown_handle().trigger();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let total = opts.connections * opts.requests;
    let ok = coord_lat.len();
    let throughput = ok as f64 / wall.as_secs_f64();
    let failures: Vec<(&'static str, String)> =
        single_failures.into_iter().chain(coord_failures).collect();
    let failure_refs: Vec<&(&'static str, String)> = failures.iter().collect();
    let (coord_p99, single_p99) = (percentile(&coord_lat, 99.0), percentile(&single_lat, 99.0));
    let overhead_p99 = coord_p99.saturating_sub(single_p99);

    let latency_of = |sorted: &[u64]| {
        serde_json::json!({
            "p50": percentile(sorted, 50.0),
            "p90": percentile(sorted, 90.0),
            "p99": percentile(sorted, 99.0),
            "max": sorted.last().copied().unwrap_or(0),
        })
    };
    let report = serde_json::Value::Map(vec![
        ("bench".to_string(), serde_json::json!("serve_loadgen_shard")),
        ("shards".to_string(), serde_json::json!(shard_count)),
        ("connections".to_string(), serde_json::json!(opts.connections)),
        ("requests_per_connection".to_string(), serde_json::json!(opts.requests)),
        ("total_requests".to_string(), serde_json::json!(total)),
        ("failed_requests".to_string(), serde_json::json!(failures.len())),
        ("failures".to_string(), failure_fields(&failure_refs)),
        ("availability".to_string(), serde_json::json!(ok as f64 / total as f64)),
        ("wall_ms".to_string(), serde_json::json!(wall.as_millis() as u64)),
        ("throughput_rps".to_string(), serde_json::json!(throughput)),
        ("latency_us".to_string(), latency_of(&coord_lat)),
        ("single_node_latency_us".to_string(), latency_of(&single_lat)),
        ("coordinator_overhead_p99_us".to_string(), serde_json::json!(overhead_p99)),
        (
            "coordinator_overhead_budget_us".to_string(),
            serde_json::json!(SHARD_OVERHEAD_BUDGET_US),
        ),
    ]);
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let out_path = opts.out.as_deref().map(Path::new).unwrap_or(&default_out);
    let kept: String = std::fs::read_to_string(out_path)
        .unwrap_or_default()
        .lines()
        .filter(|line| !line.contains("\"bench\":\"serve_loadgen_shard\""))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(out_path, kept + &json + "\n")
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    println!(
        "{ok}/{total} ok through the coordinator in {:.2}s ({throughput:.0} req/s)   \
         p99 {coord_p99}us vs single-node {single_p99}us (overhead {overhead_p99}us)",
        wall.as_secs_f64()
    );
    println!("wrote {}", out_path.display());
    for (category, detail) in failure_refs.iter().map(|f| (f.0, &f.1)) {
        eprintln!("FAILED [{category}]: {detail}");
    }
    if !failures.is_empty() {
        return Err(format!("{} of {} requests failed", failures.len(), 2 * total));
    }
    if overhead_p99 > SHARD_OVERHEAD_BUDGET_US {
        return Err(format!(
            "coordinator p99 overhead {overhead_p99}us exceeds the \
             {SHARD_OVERHEAD_BUDGET_US}us budget"
        ));
    }
    Ok(())
}

/// The availability drill: primary + replica over the same packed
/// fixture, failover readers preferring the replica, and a mid-run
/// replica bounce. Appends a `serve_loadgen_failover` row.
fn run_kill_replica(opts: &Options) -> Result<(), String> {
    if opts.addr.is_some() || opts.snapshot.is_some() {
        return Err("--kill-replica hosts its own servers; drop --addr/--snapshot".to_string());
    }
    let dir = std::env::temp_dir().join(format!("circlekit-loadgen-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let primary_cks = dir.join("primary.cks");
    let replica_cks = dir.join("replica.cks");
    let data = gplus(opts.scale);
    let group_count = data.groups.len();
    if group_count == 0 {
        return Err("the fixture has no groups to score".to_string());
    }
    circlekit::store::save_snapshot(&primary_cks, &data.graph, &data.groups)
        .map_err(|e| format!("packing fixture: {e}"))?;
    // Same bytes → same base CRC, the identity replication checks.
    std::fs::copy(&primary_cks, &replica_cks).map_err(|e| format!("copying fixture: {e}"))?;

    let start_server = |path: &Path, replica_of: Option<String>, listen: (&str, u16)| {
        let mut registry = SnapshotRegistry::new();
        registry.load(&path.to_string_lossy(), Some("loadgen"))?;
        let config = ServeConfig {
            workers: opts.workers,
            replica_of,
            ..ServeConfig::default()
        };
        Server::start(registry, config, listen).map_err(|e| format!("starting server: {e}"))
    };
    let primary = start_server(&primary_cks, None, ("127.0.0.1", 0))?;
    let primary_addr = primary.local_addr().to_string();
    let replica = start_server(&replica_cks, Some(primary_addr.clone()), ("127.0.0.1", 0))?;
    let replica_addr = replica.local_addr().to_string();
    let replica_port = replica.local_addr().port();
    wait_caught_up(&replica_addr)?;

    println!(
        "loadgen --kill-replica: {} connections x {} requests, replica {replica_addr} \
         bouncing, primary {primary_addr}",
        opts.connections, opts.requests
    );
    let endpoints = vec![replica_addr.clone(), primary_addr.clone()];
    let started = Instant::now();
    let (reports, restarted) = std::thread::scope(|scope| {
        let endpoints = &endpoints;
        let snapshot_id = "loadgen";
        let requests = opts.requests;
        let handles: Vec<_> = (0..opts.connections)
            .map(|conn| {
                scope.spawn(move || {
                    drive_failover(endpoints, snapshot_id, conn, requests, group_count)
                })
            })
            .collect();
        // Bounce the replica while the readers run: drain it, then
        // rebind the same port so the failover clients reconnect to it.
        let controller = scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            replica.shutdown_handle().trigger();
            replica.join();
            let listen = ("127.0.0.1", replica_port);
            for _ in 0..100 {
                match start_server(&replica_cks, Some(primary_addr.clone()), listen) {
                    Ok(server) => return Ok(server),
                    Err(_) => std::thread::sleep(Duration::from_millis(50)),
                }
            }
            Err(format!("replica could not rebind 127.0.0.1:{replica_port}"))
        });
        let reports: Vec<ConnReport> =
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect();
        (reports, controller.join().expect("controller thread"))
    });
    let wall = started.elapsed();
    let restarted = restarted?;
    wait_caught_up(&replica_addr)?;

    let mut latencies: Vec<u64> =
        reports.iter().flat_map(|r| r.latencies_us.iter().copied()).collect();
    latencies.sort_unstable();
    let failures: Vec<&(&'static str, String)> = reports.iter().flat_map(|r| &r.failures).collect();
    let total = opts.connections * opts.requests;
    let ok = latencies.len();
    let availability = ok as f64 / total as f64;

    for server in [restarted, primary] {
        server.shutdown_handle().trigger();
        server.join();
    }
    let _ = std::fs::remove_dir_all(&dir);

    let report = serde_json::Value::Map(vec![
        ("bench".to_string(), serde_json::json!("serve_loadgen_failover")),
        ("connections".to_string(), serde_json::json!(opts.connections)),
        ("requests_per_connection".to_string(), serde_json::json!(opts.requests)),
        ("total_requests".to_string(), serde_json::json!(total)),
        ("failed_requests".to_string(), serde_json::json!(failures.len())),
        ("failures".to_string(), failure_fields(&failures)),
        ("availability".to_string(), serde_json::json!(availability)),
        ("replica_bounced".to_string(), serde_json::json!(true)),
        ("wall_ms".to_string(), serde_json::json!(wall.as_millis() as u64)),
        (
            "latency_us".to_string(),
            serde_json::json!({
                "p50": percentile(&latencies, 50.0),
                "p90": percentile(&latencies, 90.0),
                "p99": percentile(&latencies, 99.0),
                "max": latencies.last().copied().unwrap_or(0),
            }),
        ),
    ]);
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    let default_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    let out_path = opts.out.as_deref().map(Path::new).unwrap_or(&default_out);
    let mut existing = std::fs::read_to_string(out_path).unwrap_or_default();
    // Drop any stale failover row before appending the fresh one.
    existing = existing
        .lines()
        .filter(|line| !line.contains("\"bench\":\"serve_loadgen_failover\""))
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(out_path, existing + &json + "\n")
        .map_err(|e| format!("writing {}: {e}", out_path.display()))?;

    println!(
        "{ok}/{total} ok in {:.2}s, availability {:.4} (replica bounced mid-run)",
        wall.as_secs_f64(),
        availability
    );
    for (category, detail) in failures.iter().map(|f| (f.0, &f.1)) {
        eprintln!("failed [{category}]: {detail}");
    }
    println!("wrote {}", out_path.display());
    if availability < 0.99 {
        return Err(format!("availability {availability:.4} is below the 99% bar"));
    }
    Ok(())
}

/// Polls the replica's `repl_status` until every tracked snapshot
/// reports `caught_up`, or ~10 s pass.
fn wait_caught_up(replica_addr: &str) -> Result<(), String> {
    let wire = circlekit_serve::protocol::wire::get;
    let mut client = Client::connect_with_patience(replica_addr, Duration::from_secs(5))
        .map_err(|e| format!("connecting to replica {replica_addr}: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.repl_status().map_err(|e| e.to_string())?;
        if let Some(serde_json::Value::Seq(entries)) = wire(&status, "replication") {
            let caught_up = !entries.is_empty()
                && entries.iter().all(|entry| {
                    matches!(wire(entry, "caught_up"), Some(serde_json::Value::Bool(true)))
                });
            if caught_up {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("replica {replica_addr} did not catch up within 10s"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
