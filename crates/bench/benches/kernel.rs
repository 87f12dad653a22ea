//! The scoring kernel per backing: µs per `SetStats` computation.
//!
//! Every scoring path runs one pass, `MemberTally::compute`; the backings
//! differ only in how they hand it adjacency lists. This bench times that
//! pass over seeded random-walk sets of 8, 64 and 512 members on the
//! google+ preset (scale 0.3, seed 2014) through
//!
//! * `csr`       the in-memory [`Graph`]
//! * `cks1`      a mapped CKS1 file ([`SnapshotBase`])
//! * `cks2`      a mapped CKS2 file, decoded per list ([`Cks2Paged`])
//! * `composed`  the mapped CKS1 base with a live overlay of 64 toggled
//!   arcs composed over it
//!
//! plus `csr` rows on the livejournal preset at scale 0.25, a sparse
//! graph of ~1 M vertices where the members of a set span far more ids.
//! Each set is scored once untimed, then once timed; a row reports the
//! median and p90 over its sets. Rows carry the commit, `nproc` and the
//! sample count, and replace earlier rows of the same commit in
//! `BENCH_kernel.json` at the repo root, so runs at two commits sit side
//! by side:
//!
//! ```sh
//! cargo bench -p circlekit-bench --bench kernel
//! ```

use circlekit::graph::{AdjacencyAccess, Graph, NodeId, VertexSet};
use circlekit::live::{LiveSnapshot, Mutation};
use circlekit::sampling::size_matched_random_walk_sets_seeded;
use circlekit::scoring::{median_degree, SetStats};
use circlekit::store::{
    save_cks2_snapshot, save_snapshot, Cks2PackOptions, MappedSnapshot, SnapshotBase,
};
use circlekit::synth::presets;
use criterion::black_box;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};
use std::fmt::Debug;
use std::fs;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 2014;
const SET_SIZES: [usize; 3] = [8, 64, 512];
/// Timed sets per (backing, size) row.
const SETS_PER_SIZE: usize = 200;
const TOGGLED_ARCS: usize = 64;

/// µs per set over `sets`: each scored once untimed, then once timed.
/// Returns `(median, p90)`.
fn time_sets<A: AdjacencyAccess>(access: &A, sets: &[VertexSet], median: f64) -> (f64, f64)
where
    A::Error: Debug,
{
    let score = |set: &VertexSet| black_box(SetStats::compute_access(access, set, median).unwrap());
    for set in sets {
        score(set);
    }
    let mut micros: Vec<f64> = sets
        .iter()
        .map(|set| {
            let start = Instant::now();
            score(set);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    micros.sort_by(f64::total_cmp);
    (micros[micros.len() / 2], micros[micros.len() * 9 / 10])
}

/// `{"commit", "nproc", "samples"}` plus `fields`, then the timings.
fn row(commit: &str, fields: Vec<(&str, Value)>, samples: usize, (p50, p90): (f64, f64)) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut entries = vec![
        ("commit".to_string(), json!(commit)),
        ("nproc".to_string(), json!(nproc)),
    ];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    entries.push(("samples".to_string(), json!(samples)));
    entries.push((
        "median_us".to_string(),
        json!((p50 * 100.0).round() / 100.0),
    ));
    entries.push(("p90_us".to_string(), json!((p90 * 100.0).round() / 100.0)));
    Value::Map(entries)
}

/// The short hash of the checkout's HEAD, `unknown` outside git.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Walk sets of each size in [`SET_SIZES`], [`SETS_PER_SIZE`] of each.
fn walk_sets(graph: &Graph) -> Vec<(usize, Vec<VertexSet>)> {
    SET_SIZES
        .iter()
        .map(|&size| {
            let sizes = vec![size; SETS_PER_SIZE];
            (
                size,
                size_matched_random_walk_sets_seeded(graph, &sizes, SEED),
            )
        })
        .collect()
}

/// Toggles [`TOGGLED_ARCS`] arcs of `graph` at members of `sets`: a
/// drawn arc is removed when present and added when not. A draw that
/// repeats a toggled arc is rejected, and another is drawn.
fn toggle_arcs(live: &mut LiveSnapshot, graph: &Graph, sets: &[VertexSet]) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let n = graph.node_count() as NodeId;
    let mut toggled = 0;
    while toggled < TOGGLED_ARCS {
        let set = &sets[rng.gen_range(0..sets.len())];
        let u = set.as_slice()[rng.gen_range(0..set.len())];
        let v = (u + rng.gen_range(1..n)) % n;
        let m = match graph.has_edge(u, v) {
            true => Mutation::RemoveEdge { u, v },
            false => Mutation::AddEdge { u, v },
        };
        toggled += live.apply(&[m]).expect("in-memory apply").applied;
    }
}

/// The fields that name a row: preset, scale, backing and set size.
fn fields(preset: &str, scale: f64, backing: &str, size: usize) -> Vec<(&'static str, Value)> {
    vec![
        ("preset", json!(preset)),
        ("scale", json!(scale)),
        ("backing", json!(backing)),
        ("set_size", json!(size)),
    ]
}

/// Every backing on google+ at scale 0.3, packed under `dir`.
fn google_plus_rows(commit: &str, dir: &Path) -> Vec<Value> {
    let scale = 0.3;
    let data = presets::google_plus()
        .scaled(scale)
        .generate(&mut SmallRng::seed_from_u64(SEED));
    let graph = &data.graph;
    let cks1 = dir.join("kernel.cks");
    save_snapshot(&cks1, graph, &data.groups).expect("pack CKS1");
    let (base, _) = SnapshotBase::open(&cks1).expect("open CKS1");
    let cks2 = dir.join("kernel.cks2");
    save_cks2_snapshot(&cks2, graph, &data.groups, &Cks2PackOptions::default()).expect("pack CKS2");
    let mapped = MappedSnapshot::open(&cks2).expect("map CKS2");
    // Both files stay mapped once unlinked.
    for path in [&cks1, &cks2] {
        fs::remove_file(path).expect("unlink snapshot");
    }
    let view = mapped.view2().expect("CKS2 view");
    let paged = view.paged().expect("CKS2 adapter");
    let walks = walk_sets(graph);
    let base = Arc::new(base);
    let mut live = LiveSnapshot::over(base.clone(), data.groups.clone());
    toggle_arcs(&mut live, graph, &walks[1].1);
    let composed = live.graph();

    let median = median_degree(graph);
    let mut rows = Vec::new();
    for (size, sets) in &walks {
        let timings = [
            ("csr", time_sets(graph, sets, median)),
            ("cks1", time_sets(&*base, sets, median)),
            ("cks2", time_sets(&paged, sets, median)),
            ("composed", time_sets(&composed, sets, median)),
        ];
        for (backing, t) in timings {
            println!(
                "google+ {scale} {backing:>8} {size:>3}: median {:.1} us, p90 {:.1} us",
                t.0, t.1
            );
            rows.push(row(
                commit,
                fields("google+", scale, backing, *size),
                sets.len(),
                t,
            ));
        }
    }
    rows
}

/// `csr` on livejournal at scale 0.25: a sparse graph whose sets span
/// many more ids than they have members.
fn livejournal_rows(commit: &str) -> Vec<Value> {
    let scale = 0.25;
    let data = presets::livejournal()
        .scaled(scale)
        .generate(&mut SmallRng::seed_from_u64(SEED));
    let median = median_degree(&data.graph);
    walk_sets(&data.graph)
        .into_iter()
        .map(|(size, sets)| {
            let t = time_sets(&data.graph, &sets, median);
            println!(
                "livejournal {scale} csr {size:>3}: median {:.1} us, p90 {:.1} us",
                t.0, t.1
            );
            row(
                commit,
                fields("livejournal", scale, "csr", size),
                sets.len(),
                t,
            )
        })
        .collect()
}

fn main() {
    let commit = commit();
    let dir = std::env::temp_dir().join("circlekit-bench-kernel");
    fs::create_dir_all(&dir).expect("create temp dir");
    let mut rows = google_plus_rows(&commit, &dir);
    rows.extend(livejournal_rows(&commit));

    let out_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json");
    let mut kept: Vec<Value> = fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|report| match report {
            Value::Map(entries) => entries
                .into_iter()
                .find(|(k, _)| k == "rows")
                .map(|(_, v)| v),
            _ => None,
        })
        .and_then(|rows| match rows {
            Value::Seq(rows) => Some(rows),
            _ => None,
        })
        .unwrap_or_default();
    kept.retain(|r| !matches!(r, Value::Map(e) if e.iter().any(|(k, v)| k == "commit" && *v == json!(commit))));
    kept.extend(rows);
    let report = Value::Map(vec![
        ("bench".to_string(), json!("kernel")),
        ("rows".to_string(), Value::Seq(kept)),
    ]);
    let json = serde_json::to_string(&report).expect("report serialises");
    fs::write(&out_path, json + "\n").expect("write BENCH_kernel.json");
    println!("wrote {}", out_path.display());
}
