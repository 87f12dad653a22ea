//! Text ingestion vs CKS1 snapshot loading.
//!
//! The snapshot store exists to amortise ingestion: text parsing
//! re-tokenises, re-sorts, and re-deduplicates the edge list on every
//! run, while a snapshot stores the finished CSR arrays. This bench
//! measures the same dataset through all four load paths —
//!
//! * `text_ingest`         parse edge list + groups, build the graph
//! * `snapshot_buffered`   portable explicit-LE decode (`load_snapshot`)
//! * `snapshot_mmap_full`  mmap, validate, materialise owned graph+groups
//! * `snapshot_mmap_view`  mmap + zero-copy validation only (no
//!   allocation proportional to the graph; what a driver pays before its
//!   first neighbour query)
//!
//! — and, unlike the other benches, also writes its medians as the
//! first row of `BENCH_store.json` at the repo root (other rows are
//! kept) so the speedup is tracked as a number, not a claim.

use circlekit::graph::{parse_edge_list, parse_groups_with_policy, Graph, IngestPolicy};
use circlekit::store::{load_snapshot, save_snapshot, MappedSnapshot};
use circlekit::synth::presets;
use criterion::{black_box, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Serialised fixture: the same dataset as text files and as a snapshot.
struct Fixture {
    edges_text: String,
    groups_text: String,
    snapshot_path: PathBuf,
    snapshot_bytes: u64,
    nodes: usize,
    edges: usize,
    groups: usize,
}

fn build_fixture() -> Fixture {
    let dataset = presets::google_plus()
        .scaled(0.05)
        .generate(&mut SmallRng::seed_from_u64(2014));

    let mut edges_buf = Vec::new();
    circlekit::graph::write_edge_list(&dataset.graph, &mut edges_buf).expect("serialise edges");
    let mut groups_buf = Vec::new();
    circlekit::graph::write_groups(&dataset.groups, &mut groups_buf).expect("serialise groups");

    let dir = std::env::temp_dir().join("circlekit-bench-store");
    fs::create_dir_all(&dir).expect("create temp dir");
    let snapshot_path = dir.join("ingest_vs_snapshot.cks");
    let snapshot_bytes =
        save_snapshot(&snapshot_path, &dataset.graph, &dataset.groups).expect("pack snapshot");

    Fixture {
        edges_text: String::from_utf8(edges_buf).expect("ascii edge list"),
        groups_text: String::from_utf8(groups_buf).expect("ascii groups"),
        snapshot_path,
        snapshot_bytes,
        nodes: dataset.graph.node_count(),
        edges: dataset.graph.edge_count(),
        groups: dataset.groups.len(),
    }
}

fn text_ingest(fx: &Fixture) -> (Graph, usize) {
    let edges = parse_edge_list(&fx.edges_text).expect("edge list parses");
    let graph = Graph::from_edges(true, edges);
    let (groups, _) =
        parse_groups_with_policy(&fx.groups_text, Some(graph.node_count()), IngestPolicy::FailFast)
            .expect("groups parse");
    let n = groups.len();
    (graph, n)
}

/// Median wall-clock nanoseconds per call over `samples` timed calls.
fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    // One untimed call to warm caches (and fault the snapshot pages in).
    f();
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

fn write_report(fx: &Fixture, medians: &[(&str, u64)], out_path: &Path) {
    let text_ns = medians
        .iter()
        .find(|(k, _)| *k == "text_ingest")
        .expect("text baseline present")
        .1;
    let median_obj = serde_json::Value::Map(
        medians.iter().map(|(name, ns)| (name.to_string(), serde_json::json!(ns))).collect(),
    );
    let speedup_obj = serde_json::Value::Map(
        medians
            .iter()
            .filter(|(name, ns)| *name != "text_ingest" && *ns > 0)
            .map(|(name, ns)| {
                (name.to_string(), serde_json::json!(text_ns as f64 / *ns as f64))
            })
            .collect(),
    );
    let dataset_obj = serde_json::json!({
        "preset": "google+",
        "scale": 0.05,
        "nodes": fx.nodes,
        "edges": fx.edges,
        "groups": fx.groups,
        "edges_text_bytes": fx.edges_text.len(),
        "snapshot_bytes": fx.snapshot_bytes,
    });
    let report = serde_json::Value::Map(vec![
        ("bench".to_string(), serde_json::json!("ingest_vs_snapshot")),
        ("dataset".to_string(), dataset_obj),
        ("median_ns".to_string(), median_obj),
        ("speedup_vs_text_ingest".to_string(), speedup_obj),
    ]);
    // The file is JSONL: this row goes first, other benches' rows stay.
    let mut lines = vec![serde_json::to_string(&report).expect("report serialises")];
    lines.extend(
        fs::read_to_string(out_path)
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.contains("\"bench\":\"ingest_vs_snapshot\""))
            .map(str::to_string),
    );
    fs::write(out_path, lines.join("\n") + "\n").expect("write BENCH_store.json");
    println!("wrote {}", out_path.display());
}

fn bench_ingest_vs_snapshot(c: &mut Criterion, fx: &Fixture) {
    let mut group = c.benchmark_group("ingest_vs_snapshot");
    group.sample_size(20);
    group.bench_function("text_ingest", |b| {
        b.iter(|| black_box(text_ingest(fx)));
    });
    group.bench_function("snapshot_buffered", |b| {
        b.iter(|| black_box(load_snapshot(&fx.snapshot_path).expect("buffered load")));
    });
    group.bench_function("snapshot_mmap_full", |b| {
        b.iter(|| {
            let mapped = MappedSnapshot::open(&fx.snapshot_path).expect("mmap open");
            black_box(mapped.load().expect("mmap load"))
        });
    });
    group.bench_function("snapshot_mmap_view", |b| {
        b.iter(|| {
            let mapped = MappedSnapshot::open(&fx.snapshot_path).expect("mmap open");
            black_box(mapped.view().expect("view validates").node_count())
        });
    });
    group.finish();
}

fn main() {
    let fx = build_fixture();
    let mut criterion = Criterion::default();
    bench_ingest_vs_snapshot(&mut criterion, &fx);

    // A second, compact measurement pass feeds BENCH_store.json: the
    // vendored criterion stand-in prints but does not export, and the
    // perf trajectory needs machine-readable numbers.
    let medians: Vec<(&str, u64)> = vec![
        ("text_ingest", median_ns(15, || {
            black_box(text_ingest(&fx));
        })),
        ("snapshot_buffered", median_ns(15, || {
            black_box(load_snapshot(&fx.snapshot_path).expect("buffered load"));
        })),
        ("snapshot_mmap_full", median_ns(15, || {
            let mapped = MappedSnapshot::open(&fx.snapshot_path).expect("mmap open");
            black_box(mapped.load().expect("mmap load"));
        })),
        ("snapshot_mmap_view", median_ns(15, || {
            let mapped = MappedSnapshot::open(&fx.snapshot_path).expect("mmap open");
            black_box(mapped.view().expect("view validates").node_count());
        })),
    ];
    let out_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    write_report(&fx, &medians, &out_path);
}
