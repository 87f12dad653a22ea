//! Per-layer numbers, taken from outside the daemon: its `stats` op and
//! `/proc/<pid>` around the untraced open phase, the client spans of the
//! traced repeat, and spans around an in-process replay of the same
//! generated requests through each layer's public functions.

use crate::engine::{PhaseOut, Record};
use crate::frames::Proto;
use crate::rng::SplitMix64;
use crate::trace::{self, Tracer};
use crate::workload::{Data, Op, Plan, Workload, FUNCTIONS, SNAPSHOT_ID};
use crate::{generator_and_host, pct, procfs, Host, Metrics, Observed};
use circlekit_discover::{discover, DiscoverConfig, EgoView};
use circlekit_graph::{NodeId, VertexSet};
use circlekit_live::{LiveSnapshot, Mutation};
use circlekit_sampling::size_matched_random_walk_sets_seeded;
use circlekit_scoring::{ParallelScorer, SetStats};
use circlekit_serve::protocol::wire;
use circlekit_serve::{
    binary, ok_payload, set_digest, CacheKey, Request, ScoreCache, SnapshotRegistry,
};
use circlekit_store::MappedSnapshot;
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Generated requests replayed in-process.
const REPLAY_REQUESTS: usize = 400;
/// Sets each kernel is timed on.
const KERNEL_SETS: usize = 48;
/// Repeats of the load, open and materialize timings.
const LOAD_REPEATS: usize = 3;
/// Toggle commits timed on the scratch live snapshot.
const LIVE_APPLIES: usize = 20;
/// Egos discovery is timed on, and their out-degree range. Discovery
/// costs ~0.7 ms at degree 100 and ~1.4 s at degree 1000.
const EGOS: usize = 8;
const EGO_DEGREE: std::ops::RangeInclusive<usize> = 10..=40;

/// What the per-layer report is computed from.
pub struct Inputs<'a> {
    pub workload: Workload,
    pub data: &'a Data,
    pub plan: &'a Plan,
    pub cks1: &'a Path,
    pub cks2: &'a Path,
    pub dir: &'a Path,
    pub trace_out: &'a Path,
    pub open: &'a Observed,
    pub traced: &'a Observed,
    pub warmup_s: f64,
    pub host: &'a Host,
    pub seed: u64,
}

/// `part / whole`, 0 when nothing was counted.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn med(values: &[f64]) -> f64 {
    pct::median(values).unwrap_or(0.0)
}

fn p(records: &[&Record], q: f64) -> f64 {
    let samples: Vec<pct::Sample> = records.iter().map(|r| r.latency_ms()).collect();
    pct::percentile(&samples, q).unwrap_or(0.0)
}

/// Adds every per-layer metric to `m`; answer mismatches between the
/// in-process backings go to `problems`.
///
/// # Errors
///
/// I/O or decode failures of the replay's own inputs.
pub fn layers(m: &mut Metrics, i: &Inputs, problems: &mut Vec<String>) -> Result<(), String> {
    daemon_side(m, i);
    client_side(m, i);
    let mut tracer = Tracer::default();
    let path_us = replay_requests(m, i, &mut tracer)?;
    kernels(m, i, &mut tracer, problems)?;
    store_and_live(m, i, &mut tracer)?;
    // Client p50 minus the replayed in-process time of the same
    // requests: loopback, event loop, dispatch and waiting.
    let all: Vec<&Record> = i.open.out.records.iter().collect();
    m.put("serve.unattributed_us", p(&all, 0.5) * 1e3 - path_us, "us");
    let mut spans = client_spans(&i.traced.out);
    let offset = spans.len() as u32;
    spans.extend(tracer.spans.into_iter().map(|mut s| {
        s.id += offset;
        s.parent = s.parent.map(|q| q + offset);
        s
    }));
    let origin = i.traced.out.start;
    trace::write_jsonl(i.trace_out, origin, &spans)
        .map_err(|e| format!("writing {}: {e}", i.trace_out.display()))?;
    Ok(())
}

/// Counter deltas over the untraced open phase, and the daemon's
/// high-water marks (since it started) read right after it.
fn daemon_side(m: &mut Metrics, i: &Inputs) {
    let (s0, s1) = &i.open.stats;
    let (p0, p1) = &i.open.proc;
    let ops = i.open.out.records.len().max(1) as f64;
    let d = p1.since(p0);
    let tck = procfs::clock_ticks();
    m.put("daemon.ops", ops, "count");
    m.put("daemon.cpu_us_per_op", d.cpu_s() * 1e6 / ops, "us");
    m.put(
        "daemon.user_us_per_op",
        d.utime_ticks as f64 / tck * 1e6 / ops,
        "us",
    );
    m.put(
        "daemon.sys_us_per_op",
        d.stime_ticks as f64 / tck * 1e6 / ops,
        "us",
    );
    m.put("daemon.ctxsw_per_op", d.ctxsw as f64 / ops, "count");
    m.put(
        "serve.pipelined_peak",
        s1.get("pipelined_peak") as f64,
        "count",
    );
    let hits = s1.delta(s0, "cache_hits") as f64;
    let lookups = hits + s1.delta(s0, "cache_misses") as f64;
    m.put("serve.cache.lookups", lookups, "count");
    m.put("serve.cache.hit_ratio", ratio(hits, lookups), "ratio");
    let batches = s1.delta(s0, "batches") as f64;
    m.put("serve.batches", batches, "count");
    let jobs = s1.delta(s0, "batched_jobs") as f64;
    m.put("serve.jobs_per_batch", ratio(jobs, batches), "count");
    m.put("serve.max_batch", s1.get("max_batch") as f64, "count");
    m.put(
        "serve.queue_depth_max",
        s1.get("queue_depth_max") as f64,
        "count",
    );
    m.put(
        "serve.overloaded",
        s1.delta(s0, "overloaded") as f64,
        "count",
    );
}

/// Latencies, bytes and generator health from the client's records.
fn client_side(m: &mut Metrics, i: &Inputs) {
    let out = &i.open.out;
    let all: Vec<&Record> = out.records.iter().collect();
    for (name, proto) in [("ckp1", Proto::Ckp1), ("json", Proto::Json)] {
        let on: Vec<&Record> = all
            .iter()
            .copied()
            .filter(|r| Proto::of_conn(r.conn as usize) == proto)
            .collect();
        m.put(format!("proto.{name}.n"), on.len() as f64, "count");
        m.put(format!("proto.{name}.p50_ms"), p(&on, 0.5), "ms");
    }
    let n = all.len().max(1) as f64;
    m.put(
        "wire.req_bytes",
        all.iter().map(|r| f64::from(r.req_bytes)).sum::<f64>() / n,
        "bytes",
    );
    m.put(
        "wire.resp_bytes",
        all.iter().map(|r| f64::from(r.resp_bytes)).sum::<f64>() / n,
        "bytes",
    );
    let groups: Vec<&Record> = all
        .iter()
        .copied()
        .filter(|r| r.op == Op::ScoreGroup)
        .collect();
    m.put("op.score_group.n", groups.len() as f64, "count");
    m.put("op.score_group.p90_ms", p(&groups, 0.9), "ms");
    generator_and_host(m, out, i.warmup_s, i.host);
    let traced: Vec<&Record> = i.traced.out.records.iter().collect();
    let (plain, with) = (p(&all, 0.5), p(&traced, 0.5));
    m.put("trace.samples", traced.len() as f64, "count");
    m.put(
        "trace.overhead_pct",
        ratio(with - plain, plain) * 100.0,
        "%",
    );
}

/// The traced phase's client spans: the request from its due instant to
/// its checked answer, the send, and the decode-and-check of the answer.
fn client_spans(out: &PhaseOut) -> Vec<trace::Span> {
    let mut t = Tracer::default();
    for (n, r) in out.records.iter().enumerate() {
        let Some(done) = r.done else { continue };
        let root = t.record("gen.request", None, n as u64, r.due, done);
        if let (Some(a), Some(b)) = (r.sent, r.sent_end) {
            t.record("gen.send", Some(root), n as u64, a, b);
        }
        if let Some(a) = r.frame_at {
            t.record("gen.decode", Some(root), n as u64, a, done);
        }
    }
    t.spans
}

/// Replays the open phase's first requests through the daemon's layers,
/// in the daemon's order. Returns their median in-process time (µs).
fn replay_requests(m: &mut Metrics, i: &Inputs, t: &mut Tracer) -> Result<f64, String> {
    let data = i.data;
    let scorer = ParallelScorer::with_graph_median(&data.graph, data.median, 1);
    let mut cache = ScoreCache::new(4096);
    if i.workload == Workload::Hot {
        // Hot traffic starts with every stored circle cached.
        let stats = scorer.stats_batch(&data.groups);
        for (g, s) in data.groups.iter().zip(&stats) {
            for f in FUNCTIONS {
                cache.insert(key(f, set_digest(g.as_slice())), f.score(s));
            }
        }
    }
    let mut per_request: Vec<f64> = Vec::new();
    for (n, item) in i.plan.open.items.iter().take(REPLAY_REQUESTS).enumerate() {
        let req = n as u64;
        let root = t.open("replay.request", None, req);
        let request = match Proto::of_conn(item.conn) {
            Proto::Ckp1 => {
                let (frame, _) = binary::try_parse(&item.frame)
                    .map_err(|e| e.to_string())?
                    .ok_or("replayed frame is incomplete")?;
                t.time("binary.decode_request", Some(root), req, || {
                    binary::decode_request(frame.op, &frame.payload)
                })
            }
            Proto::Json => {
                let text = std::str::from_utf8(&item.frame[4..]).map_err(|e| e.to_string())?;
                t.time("protocol.parse", Some(root), req, || Request::parse(text))
            }
        }
        .map_err(|(kind, msg)| format!("replayed request refused: {kind}: {msg}"))?;
        let fields = match request {
            Request::ScoreGroup {
                ref functions,
                group,
                ..
            } => {
                let set = &data.groups[group];
                let mut fields = vec![("group".to_string(), Value::UInt(group as u64))];
                fields.extend(replay_score(
                    t, root, req, &scorer, &mut cache, set, functions,
                ));
                with_op("score_group", fields)
            }
            Request::ScoreSet {
                ref members,
                ref functions,
                ..
            } => {
                let set = VertexSet::from_vec(members.clone());
                with_op(
                    "score_set",
                    replay_score(t, root, req, &scorer, &mut cache, &set, functions),
                )
            }
            other => return Err(format!("no workload sends {other:?}")),
        };
        let rendered = t.time("protocol.render", Some(root), req, || ok_payload(fields));
        if Proto::of_conn(item.conn) == Proto::Ckp1 {
            t.time("binary.encode_response", Some(root), req, || {
                binary::encode_response_payload(&rendered)
            })?;
        }
        t.close(root);
        let span = &t.spans[root as usize];
        per_request.push((span.end - span.start).as_secs_f64() * 1e6);
    }
    let self_us = trace::self_times_us(&t.spans);
    let layer = |name: &str| self_us.get(name).map_or(0.0, |v| med(v));
    m.put("replay.requests", per_request.len() as f64, "count");
    m.put(
        "binary.decode_request_us",
        layer("binary.decode_request"),
        "us",
    );
    m.put("protocol.parse_us", layer("protocol.parse"), "us");
    m.put("cache.get_us", layer("cache.get"), "us");
    m.put("protocol.render_us", layer("protocol.render"), "us");
    m.put(
        "binary.encode_response_us",
        layer("binary.encode_response"),
        "us",
    );
    Ok(med(&per_request))
}

/// The daemon's cache key for a score; the version stays 0 because the
/// benchmark never writes.
fn key(function: circlekit_scoring::ScoringFunction, digest: u64) -> CacheKey {
    CacheKey {
        snapshot: SNAPSHOT_ID.to_string(),
        version: 0,
        function,
        digest,
    }
}

fn with_op(op: &str, rest: Vec<(String, Value)>) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("op".to_string(), Value::Str(op.to_string())),
        ("snapshot".to_string(), Value::Str(SNAPSHOT_ID.to_string())),
    ];
    fields.extend(rest);
    fields
}

/// The daemon's score path: probe every function, score the set on a
/// miss and insert, then the response fields.
fn replay_score(
    t: &mut Tracer,
    root: u32,
    req: u64,
    scorer: &ParallelScorer,
    cache: &mut ScoreCache,
    set: &VertexSet,
    functions: &[circlekit_scoring::ScoringFunction],
) -> Vec<(String, Value)> {
    let digest = set_digest(set.as_slice());
    let probed: Option<Vec<f64>> = t.time("cache.get", Some(root), req, || {
        functions
            .iter()
            .map(|&f| cache.get(&key(f, digest)))
            .collect()
    });
    let (scores, cached) = match probed {
        Some(scores) => (scores, true),
        None => {
            let stats = t.time("scoring.batch", Some(root), req, || {
                scorer.stats_batch(std::slice::from_ref(set))
            });
            let scores: Vec<f64> = functions.iter().map(|f| f.score(&stats[0])).collect();
            t.time("cache.insert", Some(root), req, || {
                for (&f, &s) in functions.iter().zip(&scores) {
                    cache.insert(key(f, digest), s);
                }
            });
            (scores, false)
        }
    };
    vec![
        ("size".to_string(), Value::UInt(set.len() as u64)),
        (
            "functions".to_string(),
            Value::Seq(
                functions
                    .iter()
                    .map(|f| Value::Str(f.name().to_string()))
                    .collect(),
            ),
        ),
        ("scores".to_string(), wire::score_array(&scores)),
        ("cached".to_string(), Value::Bool(cached)),
    ]
}

/// The sets the workload scores: stored circles, or its cold sets.
fn kernel_sets(i: &Inputs) -> Vec<VertexSet> {
    let mut sets: Vec<VertexSet> = Vec::new();
    for item in &i.plan.open.items {
        if sets.len() == KERNEL_SETS {
            break;
        }
        match &item.request {
            Request::ScoreGroup { group, .. } => sets.push(i.data.groups[*group].clone()),
            Request::ScoreSet { members, .. } => sets.push(VertexSet::from_vec(members.clone())),
            _ => {}
        }
    }
    sets
}

fn time_each<T>(
    t: &mut Tracer,
    name: &'static str,
    n: usize,
    mut f: impl FnMut(usize) -> T,
) -> Vec<T> {
    (0..n)
        .map(|k| t.time(name, None, k as u64, || f(k)))
        .collect()
}

/// `SetStats` per backing (CSR, CKS1 mmap, CKS2 paged), one-set batches,
/// shard partials and random-walk sampling, on the workload's own sets.
fn kernels(
    m: &mut Metrics,
    i: &Inputs,
    t: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let data = i.data;
    let sets = kernel_sets(i);
    let n = sets.len();
    let mapped1 = MappedSnapshot::open(i.cks1).map_err(|e| e.to_string())?;
    let view1 = mapped1.view().map_err(|e| e.to_string())?;
    let mapped2 = MappedSnapshot::open(i.cks2).map_err(|e| e.to_string())?;
    let view2 = mapped2.view2().map_err(|e| e.to_string())?;
    let paged = view2.paged().map_err(|e| e.to_string())?;
    let csr = time_each(t, "scoring.stats.csr", n, |k| {
        SetStats::compute_access(&data.graph, &sets[k], data.median).expect("in-memory access")
    });
    let cks1 = time_each(t, "scoring.stats.cks1", n, |k| {
        SetStats::compute_access(&view1, &sets[k], data.median)
    });
    let cks2 = time_each(t, "scoring.stats.cks2", n, |k| {
        SetStats::compute_access(&paged, &sets[k], data.median)
    });
    for k in 0..n {
        let same1 = cks1[k].as_ref().is_ok_and(|s| *s == csr[k]);
        let same2 = cks2[k].as_ref().is_ok_and(|s| *s == csr[k]);
        if !(same1 && same2) {
            problems.push(format!(
                "set {k}: SetStats differ across CSR/CKS1/CKS2 backings"
            ));
            break;
        }
    }
    let scorer = ParallelScorer::with_graph_median(&data.graph, data.median, 1);
    time_each(t, "scoring.batch", n, |k| {
        scorer.stats_batch(std::slice::from_ref(&sets[k]))
    });
    let shards: Vec<_> = (0..2u32)
        .map(|s| {
            let manifest = circlekit_shard::manifest_for(&data.graph, data.median, 0, 2, s);
            (circlekit_shard::shard_graph(&data.graph, 2, s), manifest)
        })
        .collect();
    let partials = time_each(t, "shard.partial", n, |k| {
        shards
            .iter()
            .map(|(g, man)| circlekit_shard::compute_partial(g, man, &sets[k]))
            .collect::<Vec<_>>()
    });
    for (k, parts) in partials.iter().enumerate() {
        let reduced = circlekit_shard::reduce_partials(
            &shards[0].1,
            data.graph.is_directed(),
            sets[k].len(),
            parts,
        );
        if reduced.as_ref().ok() != Some(&csr[k]) {
            problems.push(format!(
                "set {k}: 2-way shard reduction differs from SetStats"
            ));
            break;
        }
    }
    drop(shards);
    let mut rng = SplitMix64::stream(i.seed, 9);
    time_each(t, "sampling.walk", n, |k| {
        size_matched_random_walk_sets_seeded(&data.graph, &[sets[k].len()], rng.next_u64())
    });
    let st = trace::self_times_us(&t.spans);
    let layer = |name: &str| st.get(name).map_or(0.0, |v| med(v));
    m.put("scoring.sets", n as f64, "count");
    m.put("scoring.stats_us.csr", layer("scoring.stats.csr"), "us");
    m.put("scoring.stats_us.cks1", layer("scoring.stats.cks1"), "us");
    m.put("scoring.stats_us.cks2", layer("scoring.stats.cks2"), "us");
    let csr_us = layer("scoring.stats.csr");
    m.put(
        "scoring.cks2_over_csr",
        ratio(layer("scoring.stats.cks2"), csr_us),
        "ratio",
    );
    m.put("scoring.batch_us", layer("scoring.batch"), "us");
    m.put("shard.partial_us", layer("shard.partial"), "us");
    m.put("sampling.walk_us", layer("sampling.walk"), "us");
    Ok(())
}

/// An arc `u -> v` between two members of one circle that the graph does
/// not hold yet.
fn toggle_edge(data: &Data, rng: &mut SplitMix64) -> (NodeId, NodeId) {
    for _ in 0..100_000 {
        let g = &data.groups[rng.below(data.groups.len())];
        if g.len() < 2 {
            continue;
        }
        let u = g.as_slice()[rng.below(g.len())];
        let v = g.as_slice()[rng.below(g.len())];
        if u != v && !data.graph.has_edge(u, v) {
            return (u, v);
        }
    }
    panic!("no circle has a missing internal arc");
}

/// `EGOS` distinct vertices of low out-degree.
fn pick_egos(data: &Data, rng: &mut SplitMix64) -> Vec<NodeId> {
    let n = data.graph.node_count();
    let mut egos = Vec::new();
    for _ in 0..1_000_000 {
        if egos.len() == EGOS {
            break;
        }
        let v = rng.below(n) as NodeId;
        if EGO_DEGREE.contains(&data.graph.out_degree(v)) && !egos.contains(&v) {
            egos.push(v);
        }
    }
    assert_eq!(egos.len(), EGOS, "too few low-degree egos");
    egos
}

/// Discovery parameters the daemon uses for `suggest_circles` with the
/// request defaults and `--threads 1`.
fn suggest_config() -> DiscoverConfig {
    DiscoverConfig {
        seed: circlekit_discover::DEFAULT_SEED,
        threads: 1,
        min_size: circlekit_discover::DEFAULT_MIN_SIZE,
        max_size: 0,
        top: circlekit_discover::DEFAULT_TOP,
    }
}

/// Snapshot and registry load, live open / commit / materialize, and
/// ego discovery.
fn store_and_live(m: &mut Metrics, i: &Inputs, t: &mut Tracer) -> Result<(), String> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let timed = |t: &mut Tracer, name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
        let mut out = Vec::new();
        for k in 0..LOAD_REPEATS {
            let start = Instant::now();
            f()?;
            let end = Instant::now();
            t.record(name, None, k as u64, start, end);
            out.push(ms(end - start));
        }
        Ok::<f64, String>(med(&out))
    };
    let load = timed(t, "store.load", &mut || {
        let mapped = MappedSnapshot::open(i.cks1).map_err(|e| e.to_string())?;
        mapped.load().map(drop).map_err(|e| e.to_string())
    })?;
    let registry = timed(t, "registry.load", &mut || {
        SnapshotRegistry::new().load(&i.cks1.to_string_lossy(), None)
    })?;
    let live_dir = i.dir.join("live");
    let mut copies = Vec::new();
    for k in 0..LOAD_REPEATS {
        let dir = live_dir.join(k.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join("gp.cks");
        std::fs::copy(i.cks1, &path).map_err(|e| e.to_string())?;
        copies.push(path);
    }
    let mut k = 0;
    let open = timed(t, "live.open", &mut || {
        k += 1;
        LiveSnapshot::open(&copies[k - 1])
            .map(drop)
            .map_err(|e| e.to_string())
    })?;
    let mut live = LiveSnapshot::open(&copies[0]).map_err(|e| e.to_string())?;
    let (u, v) = toggle_edge(i.data, &mut SplitMix64::stream(i.seed, 5));
    let mut applies = Vec::new();
    for k in 0..LIVE_APPLIES {
        let m = if k % 2 == 0 {
            Mutation::AddEdge { u, v }
        } else {
            Mutation::RemoveEdge { u, v }
        };
        let start = Instant::now();
        let outcome = live.apply(&[m]).map_err(|e| e.to_string())?;
        let end = Instant::now();
        if outcome.applied != 1 {
            return Err("live replay: toggle was not applied".to_string());
        }
        t.record("live.apply", None, k as u64, start, end);
        applies.push((end - start).as_secs_f64() * 1e6);
    }
    live.apply(&[Mutation::AddEdge { u, v }])
        .map_err(|e| e.to_string())?;
    let materialize = timed(t, "live.materialize", &mut || {
        drop(live.materialize());
        Ok(())
    })?;
    drop(live);
    let _ = std::fs::remove_dir_all(&live_dir);
    let egos = pick_egos(i.data, &mut SplitMix64::stream(i.seed, 7));
    let config = suggest_config();
    let suggest: Vec<f64> = egos
        .iter()
        .enumerate()
        .map(|(k, &ego)| {
            let start = Instant::now();
            drop(discover(&EgoView::from_graph(&i.data.graph, ego), &config));
            let end = Instant::now();
            t.record("discover.suggest", None, k as u64, start, end);
            ms(end - start)
        })
        .collect();
    m.put("store.load_ms", load, "ms");
    m.put("registry.load_ms", registry, "ms");
    m.put("live.open_ms", open, "ms");
    m.put("live.apply_us", med(&applies), "us");
    m.put("live.materialize_ms", materialize, "ms");
    m.put("discover.suggest_ms", med(&suggest), "ms");
    Ok(())
}
