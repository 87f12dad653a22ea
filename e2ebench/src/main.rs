//! `e2ebench`: the open-loop end-to-end benchmark of `circlekit serve`.
//!
//! One invocation measures one workload on one seed:
//!
//! ```text
//! e2ebench --daemon PATH --workload serve-hot|serve-cold \
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! It generates and packs a synthetic Google+ snapshot, draws the
//! traffic from the seed, times daemon set-up, drives an open-loop phase and a closed-loop
//! phase, checks every answer, and prints one JSON result line last.
//! `--trace 1` adds a traced repeat of the open phase and an in-process
//! replay through each layer's public functions, and reports per-layer
//! metrics instead of end-to-end ones. See `README.md`.

mod daemon;
mod engine;
mod frames;
mod pct;
mod procfs;
mod replay;
mod rng;
mod trace;
mod workload;

use daemon::{json_call, Daemon};
use engine::{PhaseOut, Record};
use serde_json::Value;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{Checker, Data, Workload};

/// Generator scale of the synthetic Google+ snapshot: ~32k vertices,
/// 3.8M arcs, 252 circles.
const SCALE: &str = "0.3";
/// Generator seed of the snapshot. The graph is the same in every run;
/// `--seed` draws the traffic. Graphs from different generator seeds
/// differ enough in their hubs to move serve-cold's p50 by ~20%, which
/// would drown the changes the benchmark exists to detect.
const GRAPH_SEED: &str = "2014";
/// Daemons started per run to time set-up; the last one serves the run.
const SETUP_SPAWNS: usize = 5;
/// Scratch space under the checkout: one directory per run, removed when
/// the run ends, and the span files of traced runs.
const WORK_DIR: &str = ".bench_work";
/// In-flight depth of the warm-up pass: one request per connection, so
/// the warm-up leaves the daemon's high-water marks (pipelining depth,
/// queue depth, batch size) no higher than the open phase takes them.
const WARMUP_DEPTH: usize = 2;
/// Run length when `--seconds` is absent: the one the bounds in
/// `BENCHMARK.json` were measured at.
const DEFAULT_SECONDS: u64 = 36;

struct Args {
    daemon: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let daemon = PathBuf::from(get("--daemon").ok_or("--daemon PATH is required")?);
    let name = get("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name)
        .ok_or_else(|| format!("unknown workload {name:?} (serve-hot|serve-cold)"))?;
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {flag} {v:?}"))
        })
    };
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0|1)")),
    };
    Ok(Args {
        daemon,
        workload,
        seed: number("--seed", 2014)?,
        seconds: number("--seconds", DEFAULT_SECONDS)?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    procfs::lower_timer_slack();
    let dir = Path::new(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| run(&args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit; an infinite percentile (failures
/// beyond it) prints as the largest finite double.
fn number(v: f64) -> String {
    if v.is_nan() {
        "0".to_string()
    } else if v.is_infinite() {
        format!("{:?}", f64::MAX.copysign(v))
    } else {
        format!("{v:?}")
    }
}

fn circlekit(bin: &Path, args: &[&str]) -> Result<(), String> {
    let status = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", bin.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("circlekit {} failed: {status}", args.join(" ")))
    }
}

/// Generates the seed's snapshot and packs it (CKS1, plus a CKS2 copy for
/// traced runs). Outside every timed path.
fn make_snapshot(args: &Args, dir: &Path) -> Result<(PathBuf, PathBuf), String> {
    let edges = dir.join("gp.edges");
    let circles = dir.join("gp.circles");
    let cks1 = dir.join("gp.cks");
    let cks2 = dir.join("gp2.cks");
    let s = |p: &Path| p.to_string_lossy().into_owned();
    circlekit(
        &args.daemon,
        &[
            "generate",
            "google+",
            "--scale",
            SCALE,
            "--seed",
            GRAPH_SEED,
            "--edges",
            &s(&edges),
            "--groups",
            &s(&circles),
        ],
    )?;
    circlekit(
        &args.daemon,
        &[
            "pack",
            "--edges",
            &s(&edges),
            "--groups",
            &s(&circles),
            "--out",
            &s(&cks1),
        ],
    )?;
    if args.trace {
        circlekit(
            &args.daemon,
            &[
                "pack",
                "--edges",
                &s(&edges),
                "--groups",
                &s(&circles),
                "--out",
                &s(&cks2),
                "--format",
                "cks2",
            ],
        )?;
    }
    let _ = std::fs::remove_file(&edges);
    let _ = std::fs::remove_file(&circles);
    Ok((cks1, cks2))
}

/// Daemon counters from its `stats` op.
#[derive(Clone, Debug)]
pub struct Stats(Value);

impl Stats {
    fn fetch(conn: &mut TcpStream) -> Result<Stats, String> {
        let text = json_call(conn, r#"{"op":"stats"}"#)?;
        let value: Value = serde_json::from_str(&text).map_err(|e| format!("stats: {e}"))?;
        Ok(Stats(value))
    }

    pub fn get(&self, key: &str) -> u64 {
        circlekit_serve::protocol::wire::get_u64(&self.0, key).unwrap_or(0)
    }

    pub fn delta(&self, earlier: &Stats, key: &str) -> u64 {
        self.get(key).saturating_sub(earlier.get(key))
    }
}

/// Daemon-side readings around one timed phase.
pub struct Observed {
    pub out: PhaseOut,
    pub stats: (Stats, Stats),
    pub proc: (procfs::ProcSample, procfs::ProcSample),
}

fn observe(
    daemon: &Daemon,
    conns: &mut [TcpStream; 2],
    phase: impl FnOnce(&[TcpStream; 2]) -> Result<PhaseOut, String>,
) -> Result<Observed, String> {
    let s0 = Stats::fetch(&mut conns[1])?;
    let p0 = procfs::sample(&daemon.pid).map_err(|e| format!("/proc/{}: {e}", daemon.pid))?;
    let out = phase(conns)?;
    let p1 = procfs::sample(&daemon.pid).map_err(|e| format!("/proc/{}: {e}", daemon.pid))?;
    let s1 = Stats::fetch(&mut conns[1])?;
    Ok(Observed {
        out,
        stats: (s0, s1),
        proc: (p0, p1),
    })
}

fn latencies(records: &[Record]) -> Vec<pct::Sample> {
    records.iter().map(Record::latency_ms).collect()
}

fn pctl(samples: &[pct::Sample], q: f64) -> f64 {
    pct::percentile(samples, q).unwrap_or(0.0)
}

/// Starts `SETUP_SPAWNS` daemons one after another, each on a fresh
/// copy of the snapshot; returns the last one and every set-up time.
fn start_daemons(args: &Args, cks1: &Path, dir: &Path) -> Result<(Daemon, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(SETUP_SPAWNS);
    let mut daemon = None;
    for k in 0..SETUP_SPAWNS {
        let d = Daemon::start(&args.daemon, cks1, &dir.join(format!("daemon{k}")))?;
        setups.push(d.setup_s);
        daemon = Some(d); // dropping the previous one kills it
    }
    Ok((daemon.expect("SETUP_SPAWNS is positive"), setups))
}

/// Generator, tail and host diagnostics of the open phase; shared by the
/// gated report line and the per-layer metrics.
pub fn generator_and_host(m: &mut Metrics, open: &PhaseOut, warmup_s: f64, host: &Host) {
    let secs = (open.end - open.start).as_secs_f64();
    let all = latencies(&open.records);
    let mut late: Vec<f64> = open.records.iter().filter_map(Record::late_ms).collect();
    m.put(
        "gen.late_p50_ms",
        pct::percentile_of(&mut late, 0.5).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "gen.late_p99_ms",
        pct::percentile_of(&mut late, 0.99).unwrap_or(0.0),
        "ms",
    );
    m.put("gen.achieved_rps", open.records.len() as f64 / secs, "1/s");
    m.put("gen.cpu_pct", open.gen_cpu_s / secs * 100.0, "%");
    m.put("gen.warmup_s", warmup_s, "s");
    m.put("tail.samples", all.len() as f64, "count");
    m.put("tail.p99_ms", pctl(&all, 0.99), "ms");
    m.put("tail.p999_ms", pctl(&all, 0.999), "ms");
    m.put("host.probe_before", host.probe_before, "ms");
    m.put("host.probe_after", host.probe_after, "ms");
    m.put("host.steal_pct", host.steal_pct, "%");
}

/// The host-speed probes around the run and the CPU time the hypervisor
/// stole meanwhile.
pub struct Host {
    pub probe_before: f64,
    pub probe_after: f64,
    pub steal_pct: f64,
}

fn run(args: &Args, dir: &Path) -> Result<String, String> {
    let t0 = Instant::now();
    let (cks1, cks2) = make_snapshot(args, dir)?;
    let t_snapshot = t0.elapsed().as_secs_f64();
    let snap = circlekit_store::MappedSnapshot::open(&cks1)
        .and_then(|m| m.load())
        .map_err(|e| format!("loading {}: {e}", cks1.display()))?;
    let median = circlekit_scoring::Scorer::new(&snap.graph).median_degree();
    let data = Data {
        graph: snap.graph,
        groups: snap.groups,
        median,
    };
    let t_load = t0.elapsed().as_secs_f64();
    let plan = workload::build(args.workload, &data, args.seed, args.seconds, args.trace);
    let t_plan = t0.elapsed().as_secs_f64();
    let (_, closed_len) = workload::phase_lengths(args.seconds);

    let probe_before = procfs::host_probe();
    let host_before = procfs::host_ticks().map_err(|e| format!("/proc/stat: {e}"))?;
    let (daemon, setups) = start_daemons(args, &cks1, dir)?;
    let ckp1 = TcpStream::connect(daemon.addr).map_err(|e| format!("connecting: {e}"))?;
    circlekit_net::tune_stream(&ckp1).map_err(|e| format!("tuning socket: {e}"))?;
    let json = daemon
        .health_conn
        .try_clone()
        .map_err(|e| format!("cloning socket: {e}"))?;
    let mut conns = [ckp1, json];

    let mut checker = Checker::new(&plan.expect);
    let warm_started = Instant::now();
    let warm = engine::run_closed(
        &conns,
        &plan.warmup,
        WARMUP_DEPTH,
        std::time::Duration::from_secs(120),
        &mut checker,
    )?
    .records;
    let warmup_s = warm_started.elapsed().as_secs_f64();
    let warm_failed = warm.iter().filter(|r| !r.verdict.correct).count();

    let open = observe(&daemon, &mut conns, |c| {
        engine::run_open(c, &plan.open, &mut checker, false)
    })?;
    let traced = if args.trace {
        Some(observe(&daemon, &mut conns, |c| {
            engine::run_open(c, &plan.traced, &mut checker, true)
        })?)
    } else {
        None
    };
    let closed = observe(&daemon, &mut conns, |c| {
        engine::run_closed(
            c,
            &plan.closed,
            workload::CLOSED_DEPTH,
            closed_len,
            &mut checker,
        )
    })?;
    let hwm_kib = procfs::vm_hwm_kib(&daemon.pid).map_err(|e| format!("VmHWM: {e}"))?;
    drop(conns);
    drop(daemon);
    let host_after = procfs::host_ticks().map_err(|e| format!("/proc/stat: {e}"))?;
    let probe_after = procfs::host_probe();
    let host = Host {
        probe_before,
        probe_after,
        steal_pct: (host_after.0 - host_before.0) as f64
            / (host_after.1 - host_before.1).max(1) as f64
            * 100.0,
    };

    // ---- answers and self-checks -------------------------------------
    let mut timed: Vec<&Observed> = vec![&open, &closed];
    timed.extend(traced.as_ref());
    let attempted: usize = timed.iter().map(|o| o.out.records.len()).sum::<usize>() + warm.len();
    let failed: usize = timed
        .iter()
        .map(|o| o.out.records.iter().filter(|r| !r.verdict.correct).count())
        .sum::<usize>()
        + warm_failed;
    let wrong: usize = timed
        .iter()
        .map(|o| o.out.records.iter().filter(|r| r.verdict.wrong).count())
        .sum::<usize>()
        + warm.iter().filter(|r| r.verdict.wrong).count();
    let hits: u64 = timed
        .iter()
        .map(|o| o.stats.1.delta(&o.stats.0, "cache_hits"))
        .sum();
    let misses: u64 = timed
        .iter()
        .map(|o| o.stats.1.delta(&o.stats.0, "cache_misses"))
        .sum();
    let mut timed_records = timed.iter().flat_map(|o| o.out.records.iter());
    let mut problems: Vec<String> = Vec::new();
    match args.workload {
        Workload::Hot => {
            if misses > 0 || hits == 0 || timed_records.any(|r| r.verdict.cached != Some(true)) {
                problems.push(format!(
                    "serve-hot timed hit ratio below 1 ({hits} hits, {misses} misses)"
                ));
            }
        }
        Workload::Cold => {
            if hits > 0 || timed_records.any(|r| r.verdict.cached != Some(false)) {
                problems.push(format!("serve-cold timed hit ratio above 0 ({hits} hits)"));
            }
        }
    }
    // A high-water mark since the daemon started; the warm-up keeps one
    // request in flight per connection, so a peak above 1 comes from the
    // open phase.
    let pipelined_peak = open.stats.1.get("pipelined_peak");
    if pipelined_peak <= 1 {
        problems.push(format!(
            "the open phase never pipelined past depth 1 (peak {pipelined_peak})"
        ));
    }
    if wrong > 0 {
        problems.push(format!("{wrong} wrong answers"));
    }
    for p in &problems {
        eprintln!("e2ebench: check failed: {p}");
    }
    let mut correct = problems.is_empty();

    // ---- metrics -----------------------------------------------------
    let all = latencies(&open.out.records);
    let setup_s = pct::median(&setups).expect("setup was timed");
    // Medians over slices shrug off host stalls shorter than half a
    // phase.
    let p50 = open.out.sliced_percentile(0.5, workload::SLICES);
    let p90 = open.out.sliced_percentile(0.9, workload::SLICES);
    let max_rps = closed.out.sliced_goodput(workload::SLICES);
    let peak_rss_mb = hwm_kib as f64 / 1024.0;
    let mut report = Metrics::default();
    report.put("open.samples", all.len() as f64, "count");
    report.put(
        "open.failed",
        all.iter().filter(|s| s.is_none()).count() as f64,
        "count",
    );
    report.put("open.p50_ms", pctl(&all, 0.5), "ms");
    report.put("open.p90_ms", pctl(&all, 0.9), "ms");
    // Not gated: p90 follows the CPU time the hypervisor steals (see
    // README), so it is reported beside the gated metrics only.
    report.put("p90_ms", p90, "ms");
    report.put("open.p99_beyond", pct::beyond(&all, 0.99) as f64, "count");
    generator_and_host(&mut report, &open.out, warmup_s, &host);
    let closed_secs = (closed.out.end - closed.out.start).as_secs_f64();
    report.put("closed.samples", closed.out.records.len() as f64, "count");
    report.put("closed.goodput", closed.out.sliced_goodput(1), "1/s");
    report.put(
        "closed.gen_cpu_pct",
        closed.out.gen_cpu_s / closed_secs * 100.0,
        "%",
    );
    let daemon_cpu = closed.proc.1.since(&closed.proc.0).cpu_s() / closed_secs * 100.0;
    report.put("closed.daemon_cpu_pct", daemon_cpu, "%");
    report.put("prep.snapshot_s", t_snapshot, "s");
    report.put("prep.load_s", t_load - t_snapshot, "s");
    report.put("prep.plan_s", t_plan - t_load, "s");
    println!(
        "# {} seed {} report {}",
        args.workload.name(),
        args.seed,
        report.to_json()
    );
    println!("# setups {setups:?}");

    let mut metrics = Metrics::default();
    if args.trace {
        let t = traced.as_ref().expect("traced phase ran");
        let trace_out = Path::new(WORK_DIR).join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let mut replay_problems = Vec::new();
        replay::layers(
            &mut metrics,
            &replay::Inputs {
                workload: args.workload,
                data: &data,
                plan: &plan,
                cks1: &cks1,
                cks2: &cks2,
                dir,
                trace_out: &trace_out,
                open: &open,
                traced: t,
                warmup_s,
                host: &host,
                seed: args.seed,
            },
            &mut replay_problems,
        )?;
        for p in &replay_problems {
            eprintln!("e2ebench: check failed: {p}");
        }
        correct &= replay_problems.is_empty();
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("p50_ms", p50, "ms");
        metrics.put("max_rps", max_rps, "1/s");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics.to_json()
    ))
}
