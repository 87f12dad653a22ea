//! Property: the composed view — a base with the live overlay composed
//! over it, read through `AdjacencyAccess` — is the materialized graph
//! for every reader the daemon runs over it, bit for bit: every list
//! and total degree, all 13 `SetStats` fields, the FOMD median
//! (recounted, and as maintained under mutation), the random-walk
//! baseline and ego views. It holds
//! after any mutation history, directed or undirected, over an
//! in-memory CSR base and over a mapped CKS1 base.

use circlekit_discover::EgoView;
use circlekit_graph::{AdjacencyAccess, Graph, NodeId, VertexSet};
use circlekit_live::{LiveSnapshot, Mutation};
use circlekit_sampling::size_matched_random_walk_sets_seeded;
use circlekit_scoring::{median_degree, total_degree, Scorer, SetStats};
use circlekit_store::{save_snapshot, SnapshotBase};
use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const NODES: u32 = 24;

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..NODES, 0..NODES), 1..80)
}

fn arb_groups() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..NODES, 0..10), 1..4)
}

/// A live snapshot over `graph`: in memory, or over the mapping of a
/// CKS1 file packed from it (unlinked once mapped — the mapping stays).
fn live_over(graph: Graph, groups: Vec<VertexSet>, mapped: bool) -> LiveSnapshot {
    if !mapped {
        return LiveSnapshot::in_memory(graph, groups);
    }
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("circlekit-live-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let k = FILES.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("composed-{}-{k}.cks", std::process::id()));
    save_snapshot(&path, &graph, &groups).unwrap();
    let (base, stored) = SnapshotBase::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(stored, groups);
    LiveSnapshot::over(Arc::new(base), stored)
}

/// Draws the next mutation. Base edges are drawn often, so histories
/// remove base edges and re-add removed ones; about a third of the
/// draws are rejected, which must leave the overlay untouched.
fn draw(rng: &mut SmallRng, live: &LiveSnapshot, base_edges: &[(u32, u32)]) -> Mutation {
    let n = live.node_count() as u32;
    let groups = live.groups().len() as u32;
    let node = |rng: &mut SmallRng| rng.gen_range(0..n);
    let (bu, bv) = base_edges[rng.gen_range(0..base_edges.len())];
    match rng.gen_range(0..10u32) {
        0..=2 => Mutation::AddEdge {
            u: node(rng),
            v: node(rng),
        },
        3 => Mutation::RemoveEdge {
            u: node(rng),
            v: node(rng),
        },
        4 => Mutation::RemoveEdge { u: bu, v: bv },
        5 => Mutation::AddEdge { u: bu, v: bv },
        6 => Mutation::AddVertex,
        7..=8 => Mutation::AddMember {
            group: rng.gen_range(0..groups),
            node: node(rng),
        },
        _ => Mutation::RemoveMember {
            group: rng.gen_range(0..groups),
            node: node(rng),
        },
    }
}

fn assert_same_bits(got: &SetStats, want: &SetStats, what: &str) {
    let ints = |s: &SetStats| {
        [
            s.n,
            s.m,
            usize::from(s.directed),
            s.n_c,
            s.m_c,
            s.c_c,
            s.out_degree_sum,
            s.in_degree_sum,
            s.above_median_internal,
            s.in_internal_triangle,
        ]
    };
    let floats = |s: &SetStats| [s.max_odf, s.avg_odf, s.flake_odf].map(f64::to_bits);
    assert_eq!(ints(got), ints(want), "{what}: integer fields");
    assert_eq!(floats(got), floats(want), "{what}: f64 fields");
}

fn assert_composed_is_materialized(live: &LiveSnapshot, seed: u64) {
    let composed = live.graph();
    let graph = live.materialize();
    assert_eq!(composed.node_count(), graph.node_count());
    assert_eq!(composed.edge_count(), graph.edge_count());
    for v in 0..graph.node_count() as NodeId {
        let Ok(out) = composed.with_out_neighbors(v, <[NodeId]>::to_vec);
        let Ok(inn) = composed.with_in_neighbors(v, <[NodeId]>::to_vec);
        assert_eq!(out, graph.out_neighbors(v), "out-list of {v}");
        assert_eq!(inn, graph.in_neighbors(v), "in-list of {v}");
        let Ok(out_degree) = composed.out_degree(v);
        let Ok(in_degree) = composed.in_degree(v);
        assert_eq!(
            out_degree,
            graph.out_neighbors(v).len(),
            "out-degree of {v}"
        );
        assert_eq!(in_degree, graph.in_neighbors(v).len(), "in-degree of {v}");
        let Ok(degree) = total_degree(&composed, v);
        assert_eq!(degree, graph.degree(v), "total degree of {v}");
    }

    let median = Scorer::new(&graph).median_degree();
    assert_eq!(
        median_degree(&composed).to_bits(),
        median.to_bits(),
        "FOMD median"
    );
    assert_eq!(live.median_degree().to_bits(), median.to_bits(), "maintained FOMD median");

    let mut sets = live.groups().to_vec();
    let sizes: Vec<usize> = (1..6).map(|k| k * graph.node_count() / 6).collect();
    let walks = size_matched_random_walk_sets_seeded(&composed, &sizes, seed);
    assert_eq!(
        walks,
        size_matched_random_walk_sets_seeded(&graph, &sizes, seed),
        "walks"
    );
    sets.extend(walks);
    for (i, set) in sets.iter().enumerate() {
        let Ok(over) = SetStats::compute_access(&composed, set, median);
        assert_same_bits(
            &over,
            &SetStats::compute(&graph, set, median),
            &format!("set {i}"),
        );
    }

    for ego in 0..graph.node_count() as NodeId {
        let Ok(view) = EgoView::from_access(&composed, ego);
        let want = EgoView::from_graph(&graph, ego);
        assert_eq!(
            (&view.alters, &view.local),
            (&want.alters, &want.local),
            "ego {ego}"
        );
    }
}

fn run_history(directed: bool, mapped: bool, edges: &[(u32, u32)], raw: &[Vec<u32>], seed: u64) {
    let graph = Graph::from_edges(directed, edges.iter().copied());
    let n = graph.node_count() as u32;
    let groups: Vec<VertexSet> = raw
        .iter()
        .map(|g| g.iter().copied().filter(|&v| v < n).collect())
        .collect();
    let base_edges: Vec<(u32, u32)> = graph.edges().collect();
    if base_edges.is_empty() {
        return; // only self-loops were drawn
    }
    let mut live = live_over(graph, groups, mapped);
    let mut rng = SmallRng::seed_from_u64(seed);
    assert_composed_is_materialized(&live, seed);
    let mut applied = 0;
    for step in 0..40 {
        let m = draw(&mut rng, &live, &base_edges);
        applied += live
            .apply(&[m])
            .expect("in-memory apply cannot fail on I/O")
            .applied;
        if step % 8 == 7 {
            assert_composed_is_materialized(&live, seed ^ step);
        }
    }
    assert!(applied > 0, "mutation generator applied nothing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn composed_csr_base_equals_materialized(
        edges in arb_edges(),
        raw in arb_groups(),
        directed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        run_history(directed, false, &edges, &raw, seed);
    }

    #[test]
    fn composed_mapped_base_equals_materialized(
        edges in arb_edges(),
        raw in arb_groups(),
        directed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        run_history(directed, true, &edges, &raw, seed);
    }
}
