//! Property tests for scoring invariants.

use circlekit_graph::{Graph, GraphBuilder, NodeId, VertexSet};
use circlekit_metrics::triangles_per_node;
use circlekit_scoring::{ParallelScorer, Scorer, ScoringFunction, SetStats};
use proptest::prelude::*;

const MAX_NODE: u32 = 30;

fn graph_and_set() -> impl Strategy<Value = (Vec<(u32, u32)>, Vec<u32>, bool)> {
    (
        prop::collection::vec((0..MAX_NODE, 0..MAX_NODE), 1..150),
        prop::collection::vec(0..MAX_NODE, 0..20),
        any::<bool>(),
    )
}

fn build(edges: Vec<(u32, u32)>, directed: bool) -> Graph {
    let mut b = if directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    b.add_edges(edges).reserve_nodes(MAX_NODE as usize);
    b.build()
}

/// Arcs `(u, v, reciprocate)`, set members, directedness, and an FOMD
/// median degree.
type ArcsCase = (Vec<(u32, u32, bool)>, Vec<u32>, bool, f64);

/// A directed graph also gets `v -> u` when `reciprocate` holds, so
/// reciprocal pairs are common.
fn arcs_and_set() -> impl Strategy<Value = ArcsCase> {
    (
        prop::collection::vec((0..MAX_NODE, 0..MAX_NODE, any::<bool>()), 1..150),
        prop::collection::vec(0..MAX_NODE, 0..20),
        any::<bool>(),
        (0u32..16).prop_map(|k| f64::from(k) / 2.0),
    )
}

/// A graph with reciprocal arcs, and with self-loops when directed (an
/// undirected self-loop is one adjacency entry, so the internal arcs of
/// a set holding it cannot pair up).
fn build_with_reciprocals(arcs: Vec<(u32, u32, bool)>, directed: bool) -> Graph {
    let mut b = if directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    b.keep_self_loops(directed).reserve_nodes(MAX_NODE as usize);
    for (u, v, reciprocate) in arcs {
        b.add_edge(u, v);
        if reciprocate {
            b.add_edge(v, u);
        }
    }
    b.build()
}

/// [`SetStats`] written straight from the definitions: membership by
/// `VertexSet::contains`, ODF terms summed in member order, and TPR as
/// the members with a nonzero triangle count in `Graph::subgraph(set)`.
fn reference_stats(g: &Graph, set: &VertexSet, median_degree: f64) -> SetStats {
    let (mut internal_arcs, mut boundary) = (0, 0);
    let (mut out_degree_sum, mut in_degree_sum) = (0, 0);
    let (mut above_median_internal, mut flake_count) = (0, 0);
    let (mut max_odf, mut odf_sum) = (0.0f64, 0.0);
    for v in set.iter() {
        let mut adjacency: Vec<NodeId> = g.out_neighbors(v).to_vec();
        if g.is_directed() {
            adjacency.extend_from_slice(g.in_neighbors(v));
        }
        let internal = adjacency.iter().filter(|&&w| set.contains(w)).count();
        let external = adjacency.len() - internal;
        out_degree_sum += g.out_neighbors(v).len();
        in_degree_sum += if g.is_directed() {
            g.in_neighbors(v).len()
        } else {
            g.out_neighbors(v).len()
        };
        if !adjacency.is_empty() {
            let odf = external as f64 / adjacency.len() as f64;
            max_odf = max_odf.max(odf);
            odf_sum += odf;
        }
        flake_count += usize::from(external > internal);
        above_median_internal += usize::from(internal as f64 > median_degree);
        internal_arcs += internal;
        boundary += external;
    }
    let sub = g.subgraph(set).expect("members are in range");
    let n_c = set.len();
    SetStats {
        n: g.node_count(),
        m: g.edge_count(),
        directed: g.is_directed(),
        n_c,
        m_c: internal_arcs / 2,
        c_c: boundary,
        out_degree_sum,
        in_degree_sum,
        above_median_internal,
        in_internal_triangle: triangles_per_node(sub.graph())
            .iter()
            .filter(|&&t| t > 0)
            .count(),
        max_odf,
        avg_odf: if n_c == 0 { 0.0 } else { odf_sum / n_c as f64 },
        flake_odf: if n_c == 0 {
            0.0
        } else {
            flake_count as f64 / n_c as f64
        },
    }
}

proptest! {
    #[test]
    fn set_stats_match_the_definitions((arcs, picks, directed, median) in arcs_and_set()) {
        let g = build_with_reciprocals(arcs, directed);
        let set = VertexSet::from_vec(picks);
        let got = SetStats::compute(&g, &set, median);
        let want = reference_stats(&g, &set, median);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got.max_odf.to_bits(), want.max_odf.to_bits());
        prop_assert_eq!(got.avg_odf.to_bits(), want.avg_odf.to_bits());
        prop_assert_eq!(got.flake_odf.to_bits(), want.flake_odf.to_bits());
    }

    #[test]
    fn bounded_scores_stay_in_unit_interval((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        for f in [
            ScoringFunction::InternalDensity,
            ScoringFunction::Fomd,
            ScoringFunction::Tpr,
            ScoringFunction::Conductance,
            ScoringFunction::MaxOdf,
            ScoringFunction::AvgOdf,
            ScoringFunction::FlakeOdf,
        ] {
            let v = f.score(&stats);
            prop_assert!((0.0..=1.0).contains(&v), "{f} = {v} outside [0,1]");
        }
    }

    #[test]
    fn nonnegative_scores((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        for f in [
            ScoringFunction::EdgesInside,
            ScoringFunction::AverageDegree,
            ScoringFunction::Expansion,
            ScoringFunction::RatioCut,
            ScoringFunction::NormalizedCut,
        ] {
            prop_assert!(f.score(&stats) >= 0.0);
        }
    }

    #[test]
    fn all_scores_finite((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        for f in ScoringFunction::ALL {
            prop_assert!(f.score(&stats).is_finite(), "{f} not finite");
        }
    }

    #[test]
    fn mc_matches_induced_subgraph((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        let sub = g.subgraph(&set).unwrap();
        prop_assert_eq!(stats.m_c, sub.graph().edge_count());
    }

    #[test]
    fn degree_accounting_consistent((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        // Sum of member degrees = 2 m_C + c_C, for both edge conventions.
        let degree_sum: usize = set.iter().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, stats.total_degree());
        prop_assert_eq!(stats.out_degree_sum + stats.in_degree_sum,
            if directed { degree_sum } else { 2 * degree_sum });
    }

    #[test]
    fn boundary_vanishes_on_full_graph((edges, _, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let full: VertexSet = (0..g.node_count() as u32).collect();
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&full);
        prop_assert_eq!(stats.c_c, 0);
        prop_assert_eq!(stats.m_c, g.edge_count());
        prop_assert_eq!(ScoringFunction::Conductance.score(&stats), 0.0);
    }

    #[test]
    fn conductance_complement_symmetry((edges, picks, _) in graph_and_set()) {
        // For undirected graphs, C and V\C share the same boundary.
        let g = build(edges, false);
        let set = VertexSet::from_vec(picks);
        let complement: VertexSet = (0..g.node_count() as u32)
            .filter(|&v| !set.contains(v))
            .collect();
        let mut scorer = Scorer::new(&g);
        let a = scorer.stats(&set);
        let b = scorer.stats(&complement);
        prop_assert_eq!(a.c_c, b.c_c);
        prop_assert_eq!(a.m_c + b.m_c + a.c_c, g.edge_count());
    }

    #[test]
    fn modularity_of_full_graph_matches_null_deficit((edges, _, directed) in graph_and_set()) {
        let g = build(edges, directed);
        prop_assume!(g.edge_count() > 0);
        let full: VertexSet = (0..g.node_count() as u32).collect();
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&full);
        // For the full vertex set the closed-form expectation equals m
        // exactly (undirected: (2m)^2/4m = m; directed: m·m/m = m), so
        // modularity is 0.
        let v = ScoringFunction::Modularity.score(&stats);
        prop_assert!(v.abs() < 1e-9, "modularity of full graph = {v}");
    }

    #[test]
    fn edge_partition_counts_each_edge_once((edges, picks, directed) in graph_and_set()) {
        // Every edge is internal to C, internal to V\C, or crosses the
        // boundary — and c_C counts each crossing edge exactly once, for
        // both edge conventions.
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let complement: VertexSet = (0..g.node_count() as u32)
            .filter(|&v| !set.contains(v))
            .collect();
        let mut scorer = Scorer::new(&g);
        let a = scorer.stats(&set);
        let b = scorer.stats(&complement);
        prop_assert_eq!(a.c_c, b.c_c);
        prop_assert_eq!(a.m_c + b.m_c + a.c_c, g.edge_count());
    }

    #[test]
    fn internal_edges_bounded_by_graph_edges((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        prop_assert!(stats.m_c <= stats.m);
        prop_assert!(stats.m_c <= stats.possible_internal_edges().max(stats.m_c));
        prop_assert_eq!(stats.m, g.edge_count());
    }

    #[test]
    fn odf_ordering_and_bounds((edges, picks, directed) in graph_and_set()) {
        // Each member's out-degree fraction lies in [0, 1], so the mean
        // cannot exceed the max.
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        prop_assert!(stats.avg_odf >= 0.0);
        prop_assert!(stats.avg_odf <= stats.max_odf + 1e-12,
            "avg_odf {} > max_odf {}", stats.avg_odf, stats.max_odf);
        prop_assert!(stats.max_odf <= 1.0);
        prop_assert!((0.0..=1.0).contains(&stats.flake_odf));
    }

    #[test]
    fn fomd_and_tpr_numerators_bounded_by_members((edges, picks, directed) in graph_and_set()) {
        let g = build(edges, directed);
        let set = VertexSet::from_vec(picks);
        let mut scorer = Scorer::new(&g);
        let stats = scorer.stats(&set);
        prop_assert!(stats.above_median_internal <= stats.n_c);
        prop_assert!(stats.in_internal_triangle <= stats.n_c);
        prop_assert_eq!(stats.n_c, set.len());
    }

    #[test]
    fn parallel_scorer_equals_serial(
        (edges, _, directed) in graph_and_set(),
        sets in prop::collection::vec(prop::collection::vec(0..MAX_NODE, 0..10), 0..12),
        threads in 1usize..6,
    ) {
        let g = build(edges, directed);
        let sets: Vec<VertexSet> = sets.into_iter().map(VertexSet::from_vec).collect();
        let mut serial = Scorer::new(&g);
        let expected = serial.score_table(&ScoringFunction::ALL, &sets);
        let parallel = ParallelScorer::with_threads(&g, threads);
        prop_assert_eq!(expected, parallel.score_table(&ScoringFunction::ALL, &sets));
    }

    #[test]
    fn directed_vs_bidirected_scores_agree_on_symmetric_graphs((edges, picks, _) in graph_and_set()) {
        // An undirected graph and its bidirected expansion must produce
        // identical values for the paper's four functions: every count
        // doubles consistently.
        let g = build(edges, false);
        let d = g.to_bidirected();
        let set = VertexSet::from_vec(picks);
        let mut su = Scorer::new(&g);
        let mut sd = Scorer::new(&d);
        let a = su.stats(&set);
        let b = sd.stats(&set);
        prop_assert_eq!(2 * a.m_c, b.m_c);
        prop_assert_eq!(2 * a.c_c, b.c_c);
        let cu = ScoringFunction::Conductance.score(&a);
        let cd = ScoringFunction::Conductance.score(&b);
        prop_assert!((cu - cd).abs() < 1e-12);
        let ru = ScoringFunction::RatioCut.score(&a);
        let rd = ScoringFunction::RatioCut.score(&b);
        prop_assert!((rd - 2.0 * ru).abs() < 1e-12);
    }
}
