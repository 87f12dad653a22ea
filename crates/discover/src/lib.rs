//! Profile-free structural circle discovery over ego networks.
//!
//! The source paper *scores* circles its users curated by hand; its
//! companion paper (McAuley–Leskovec, "Discovering Social Circles in Ego
//! Networks") *infers* them. This crate implements the structural half of
//! that workload on top of the existing stack:
//!
//! * [`EgoView`] extracts the ego-induced subgraph — the ego's
//!   out-neighbours plus every arc among them, folded to an undirected
//!   local graph — from any adjacency backing: an in-memory [`Graph`], or
//!   any [`AdjacencyAccess`] implementor (CKS1 [`SnapshotView`], CKS2
//!   paged, or a live `DeltaOverlay` composed over a base snapshot). Both
//!   constructors build the *same* local CSR, so everything downstream is
//!   bit-identical across backings.
//! * [`discover`] runs seeded local clustering: from every local vertex,
//!   greedily grow a community by repeatedly admitting the frontier vertex
//!   that minimises conductance, with overlap allowed (each seed expands
//!   independently). Ties are broken by a per-seed [SplitMix64] stream
//!   derived from `(seed, ego, seed-vertex)`, so results are deterministic
//!   and — because every seed expansion is an independent pure function —
//!   bit-identical at any thread count, matching the `ParallelScorer`
//!   discipline.
//! * Candidates are deduplicated, scored with the paper's
//!   [`SetStats`]-derived functions (conductance, average degree) on the
//!   local subgraph, and ranked by a deterministic total order.
//! * [`best_match_f1`] evaluates suggestions against planted ground-truth
//!   circles with Yang–Leskovec best-match precision/recall/F1.
//! * [`affected_egos`] names exactly which egos' suggestions an edge
//!   mutation can change — the cache-invalidation scope used by the
//!   `suggest_circles` serve op.
//!
//! [`SnapshotView`]: https://docs.rs/ — see `circlekit-store`
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod eval;

pub use eval::{best_match_f1, EvalScores};

use circlekit_graph::{AdjacencyAccess, Graph, GraphBuilder, NodeId, VertexSet};
use circlekit_scoring::{Scorer, ScoringFunction};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// Default root seed (the paper's publication year, like the synth presets).
pub const DEFAULT_SEED: u64 = 2014;
/// Default smallest circle worth suggesting.
pub const DEFAULT_MIN_SIZE: usize = 3;
/// Default number of ranked candidates returned.
pub const DEFAULT_TOP: usize = 10;

/// SplitMix64 (Steele–Lea–Flood): tiny, seedable, and platform-independent.
/// Used only for deterministic tie-breaking; one independent stream per
/// `(root seed, ego, seed vertex)` so chunking order cannot leak into
/// results.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives the per-seed-vertex RNG stream. Mixing the ego and seed vertex
/// through distinct odd multipliers keeps streams independent regardless of
/// how seeds are chunked across threads.
fn stream_seed(root: u64, ego: NodeId, seed_vertex: NodeId) -> u64 {
    root ^ (ego as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (seed_vertex as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)
}

/// Tuning knobs for [`discover`]. Defaults match the CLI and serve op so
/// the three surfaces agree byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoverConfig {
    /// Root seed for the tie-breaking streams.
    pub seed: u64,
    /// Worker threads for seed expansion (results identical at any count).
    pub threads: usize,
    /// Smallest candidate kept (smaller expansions are discarded).
    pub min_size: usize,
    /// Largest community a single expansion may grow to; `0` = unbounded
    /// (the whole ego net).
    pub max_size: usize,
    /// Ranked candidates returned; `0` = all.
    pub top: usize,
}

impl Default for DiscoverConfig {
    fn default() -> DiscoverConfig {
        DiscoverConfig {
            seed: DEFAULT_SEED,
            threads: 1,
            min_size: DEFAULT_MIN_SIZE,
            max_size: 0,
            top: DEFAULT_TOP,
        }
    }
}

/// The ego-induced subgraph of one vertex, extracted once and reused for
/// every seed expansion.
///
/// `alters[i]` is the parent id of local vertex `i`; `local` is the
/// undirected graph induced on the alters (arcs folded, the ego itself
/// excluded — every alter is adjacent to the ego by construction, so
/// keeping it would only blur the circle structure).
#[derive(Debug, Clone)]
pub struct EgoView {
    /// The ego whose neighbourhood this is.
    pub ego: NodeId,
    /// Sorted parent ids of the ego's out-neighbours.
    pub alters: Vec<NodeId>,
    /// Undirected graph induced on the alters, vertices `0..alters.len()`.
    pub local: Graph,
}

impl EgoView {
    /// Extracts the ego view from an in-memory graph.
    pub fn from_graph(graph: &Graph, ego: NodeId) -> EgoView {
        match EgoView::from_access(graph, ego) {
            Ok(view) => view,
            Err(never) => match never {},
        }
    }

    /// Extracts the ego view from any adjacency backing (CKS1 snapshot
    /// view, CKS2 paged reader, in-memory graph, or a live overlay
    /// composed over its base).
    pub fn from_access<A: AdjacencyAccess>(access: &A, ego: NodeId) -> Result<EgoView, A::Error> {
        let alters: Vec<NodeId> = access
            .with_out_neighbors(ego, |nbrs| nbrs.iter().copied().filter(|&v| v != ego).collect())?;
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (li, &a) in alters.iter().enumerate() {
            access.with_out_neighbors(a, |nbrs| {
                induced_edges(&mut edges, &alters, li, nbrs);
            })?;
        }
        Ok(EgoView::assemble(ego, alters, edges))
    }

    fn assemble(ego: NodeId, alters: Vec<NodeId>, edges: Vec<(NodeId, NodeId)>) -> EgoView {
        let mut builder = GraphBuilder::undirected();
        builder.reserve_nodes(alters.len());
        builder.add_edges(edges);
        EgoView { ego, local: builder.build(), alters }
    }

    /// Maps a set of local vertex ids back to parent ids.
    pub fn to_parent(&self, local: &[NodeId]) -> VertexSet {
        VertexSet::from_vec(local.iter().map(|&l| self.alters[l as usize]).collect())
    }
}

/// Scans `nbrs` (sorted ascending) against `alters` (sorted ascending) and
/// records an induced local edge for every neighbour that is itself an
/// alter. Self-pairs are skipped; reciprocal arcs dedup in the builder.
fn induced_edges(edges: &mut Vec<(NodeId, NodeId)>, alters: &[NodeId], li: usize, nbrs: &[NodeId]) {
    let mut ai = 0usize;
    for &b in nbrs {
        while ai < alters.len() && alters[ai] < b {
            ai += 1;
        }
        if ai == alters.len() {
            break;
        }
        if alters[ai] == b && ai != li {
            edges.push((li as NodeId, ai as NodeId));
        }
    }
}

/// One ranked candidate circle.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Members in parent (graph) ids, sorted ascending.
    pub members: VertexSet,
    /// Conductance of the set within the local ego subgraph (lower is
    /// better; primary ranking key).
    pub conductance: f64,
    /// Average internal degree within the local ego subgraph (higher is
    /// better; secondary ranking key).
    pub average_degree: f64,
}

/// The full ranked answer for one ego.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// The ego queried.
    pub ego: NodeId,
    /// Root seed the tie-break streams were derived from.
    pub seed: u64,
    /// Number of alters in the ego network.
    pub alters: usize,
    /// Ranked candidate circles, best first.
    pub candidates: Vec<Candidate>,
}

/// Runs seeded conductance expansion over the ego view and returns ranked
/// candidate circles.
///
/// Determinism contract: output is a pure function of
/// `(view, config.seed, config.min_size, config.max_size, config.top)` —
/// `config.threads` never changes the result, only how the independent
/// seed expansions are scheduled.
pub fn discover(view: &EgoView, config: &DiscoverConfig) -> Suggestion {
    let n = view.local.node_count();
    let cap = if config.max_size == 0 { n } else { config.max_size.min(n) };
    let min_size = config.min_size.max(1);

    let mut raw: Vec<Option<Vec<NodeId>>> = Vec::with_capacity(n);
    if n > 0 {
        let seeds: Vec<NodeId> = (0..n as NodeId).collect();
        let threads = config.threads.max(1).min(n);
        if threads <= 1 {
            raw.extend(seeds.iter().map(|&s| expand_seed(view, s, config.seed, min_size, cap)));
        } else {
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                let handles: Vec<_> = seeds
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            part.iter()
                                .map(|&s| expand_seed(view, s, config.seed, min_size, cap))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    raw.extend(handle.join().expect("discover worker panicked"));
                }
            });
        }
    }

    let mut distinct: BTreeSet<Vec<NodeId>> = BTreeSet::new();
    for members in raw.into_iter().flatten() {
        distinct.insert(members);
    }

    let median = if n > 0 { Scorer::new(&view.local).median_degree() } else { 0.0 };
    let mut candidates: Vec<Candidate> = distinct
        .into_iter()
        .map(|members| {
            let local_set = VertexSet::from_vec(members.clone());
            let stats =
                circlekit_scoring::SetStats::compute(&view.local, &local_set, median);
            Candidate {
                members: view.to_parent(&members),
                conductance: ScoringFunction::Conductance.score(&stats),
                average_degree: ScoringFunction::AverageDegree.score(&stats),
            }
        })
        .collect();

    candidates.sort_by(|a, b| {
        a.conductance
            .total_cmp(&b.conductance)
            .then_with(|| b.average_degree.total_cmp(&a.average_degree))
            .then_with(|| b.members.len().cmp(&a.members.len()))
            .then_with(|| a.members.as_slice().cmp(b.members.as_slice()))
    });
    if config.top > 0 {
        candidates.truncate(config.top);
    }

    Suggestion { ego: view.ego, seed: config.seed, alters: n, candidates }
}

/// Conductance of a set with boundary `cut` and `m_c` internal edges in an
/// undirected graph: `cut / (2 m_c + cut)`; an isolated singleton scores
/// the worst possible 1.0 so it never beats a connected candidate.
fn conductance_of(cut: u64, m_c: u64) -> f64 {
    let vol = 2 * m_c + cut;
    if vol == 0 {
        return 1.0;
    }
    cut as f64 / vol as f64
}

/// Greedy conductance-minimising expansion from one seed vertex. Pure:
/// depends only on the local graph, the derived RNG stream, and the size
/// bounds — never on scheduling.
fn expand_seed(
    view: &EgoView,
    s: NodeId,
    root_seed: u64,
    min_size: usize,
    cap: usize,
) -> Option<Vec<NodeId>> {
    let local = &view.local;
    let n = local.node_count();
    let mut rng = SplitMix64::new(stream_seed(root_seed, view.ego, s));

    let mut in_set = vec![false; n];
    let mut e_in = vec![0u32; n];
    let mut members: Vec<NodeId> = vec![s];
    in_set[s as usize] = true;
    let mut m_c: u64 = 0;
    let mut cut: u64 = local.out_neighbors(s).len() as u64;
    let mut frontier: Vec<NodeId> = local.out_neighbors(s).to_vec();
    for &w in &frontier {
        e_in[w as usize] = 1;
    }

    let mut ties: Vec<NodeId> = Vec::new();
    while members.len() < cap && !frontier.is_empty() {
        let phi = conductance_of(cut, m_c);
        let mut best_phi = f64::INFINITY;
        let mut best_ein = 0u32;
        ties.clear();
        for &v in &frontier {
            let ein = e_in[v as usize];
            let dv = local.out_neighbors(v).len() as u64;
            let new_m = m_c + ein as u64;
            let new_cut = cut - ein as u64 + (dv - ein as u64);
            let new_phi = conductance_of(new_cut, new_m);
            if new_phi < best_phi || (new_phi == best_phi && ein > best_ein) {
                best_phi = new_phi;
                best_ein = ein;
                ties.clear();
                ties.push(v);
            } else if new_phi == best_phi && ein == best_ein {
                ties.push(v);
            }
        }
        let improves = best_phi < phi;
        let must_grow = members.len() < min_size;
        if !improves && !must_grow {
            break;
        }
        let v = ties[(rng.next_u64() % ties.len() as u64) as usize];
        let ein = e_in[v as usize] as u64;
        let dv = local.out_neighbors(v).len() as u64;
        members.push(v);
        in_set[v as usize] = true;
        m_c += ein;
        cut = cut - ein + (dv - ein);
        if let Ok(pos) = frontier.binary_search(&v) {
            frontier.remove(pos);
        }
        for &w in local.out_neighbors(v) {
            if in_set[w as usize] {
                continue;
            }
            if e_in[w as usize] == 0 {
                if let Err(pos) = frontier.binary_search(&w) {
                    frontier.insert(pos, w);
                }
            }
            e_in[w as usize] += 1;
        }
    }

    if members.len() < min_size {
        return None;
    }
    members.sort_unstable();
    Some(members)
}

/// Canonical text rendering of a suggestion — the *same* function backs the
/// CLI `discover` command and `query suggest-circles`, so the two surfaces
/// are byte-identical (scores cross the wire bit-exactly; see the serve
/// protocol tests).
pub fn render_suggestion(s: &Suggestion) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ego {}  seed {}  alters {}  candidates {}\n",
        s.ego,
        s.seed,
        s.alters,
        s.candidates.len()
    ));
    for (i, c) in s.candidates.iter().enumerate() {
        let members: Vec<String> =
            c.members.as_slice().iter().map(|v| v.to_string()).collect();
        out.push_str(&format!(
            "#{}  size {}  conductance {}  avg-degree {}  members {}\n",
            i + 1,
            c.members.len(),
            fmt_score(c.conductance),
            fmt_score(c.average_degree),
            members.join(" ")
        ));
    }
    out
}

fn fmt_score(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "nan".to_string()
    }
}

/// Egos whose [`EgoView`] an edge mutation `{u, v}` can change: `u` and `v`
/// themselves (their alter sets change), plus every ego that has *both*
/// endpoints as out-neighbours (the induced edge appears/disappears inside
/// its view) — i.e. the intersection of the in-neighbourhoods of `u` and
/// `v` in `graph`, the composed graph after the mutation. Sorted
/// ascending. This is the exact per-ego cache-invalidation scope for
/// `suggest_circles`.
pub fn affected_egos<A: AdjacencyAccess<Error = Infallible>>(
    graph: &A,
    u: NodeId,
    v: NodeId,
) -> Vec<NodeId> {
    let n = graph.node_count() as NodeId;
    let mut out: Vec<NodeId> = Vec::new();
    if u < n && v < n {
        let Ok(in_u) = graph.with_in_neighbors(u, <[NodeId]>::to_vec);
        let Ok(()) = graph.with_in_neighbors(v, |in_v| {
            let mut ai = 0usize;
            for &b in in_v {
                while ai < in_u.len() && in_u[ai] < b {
                    ai += 1;
                }
                if ai == in_u.len() {
                    break;
                }
                if in_u[ai] == b {
                    out.push(b);
                }
            }
        });
    }
    if u < n {
        out.push(u);
    }
    if v < n {
        out.push(v);
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use circlekit_graph::Graph;
    use circlekit_live::DeltaOverlay;

    /// Ego 0 pointing at two triangles {1,2,3} and {4,5,6} with a single
    /// bridge 3–4, plus an isolated alter 7.
    fn two_triangle_ego() -> Graph {
        let mut edges = vec![];
        for a in 1..=7u32 {
            edges.push((0, a));
        }
        edges.extend([(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 4)]);
        Graph::from_edges(true, edges)
    }

    #[test]
    fn ego_view_extracts_induced_subgraph() {
        let g = two_triangle_ego();
        let view = EgoView::from_graph(&g, 0);
        assert_eq!(view.alters, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(view.local.node_count(), 7);
        // 7 induced edges among alters, ego arcs excluded.
        assert_eq!(view.local.edge_count(), 7);
        // Local ids are positions in `alters`: parent 1 -> local 0.
        assert_eq!(view.local.out_neighbors(0), &[1, 2]);
    }

    #[test]
    fn discover_finds_planted_triangles() {
        let g = two_triangle_ego();
        let view = EgoView::from_graph(&g, 0);
        let suggestion = discover(&view, &DiscoverConfig::default());
        assert!(!suggestion.candidates.is_empty());
        let sets: Vec<Vec<u32>> = suggestion
            .candidates
            .iter()
            .map(|c| c.members.as_slice().to_vec())
            .collect();
        assert!(sets.contains(&vec![1, 2, 3]), "missing triangle 1-2-3 in {sets:?}");
        assert!(sets.contains(&vec![4, 5, 6]), "missing triangle 4-5-6 in {sets:?}");
    }

    #[test]
    fn thread_count_never_changes_output() {
        let g = two_triangle_ego();
        let view = EgoView::from_graph(&g, 0);
        let base = discover(&view, &DiscoverConfig { threads: 1, ..DiscoverConfig::default() });
        for threads in [2, 3, 8] {
            let other =
                discover(&view, &DiscoverConfig { threads, ..DiscoverConfig::default() });
            assert_eq!(base, other, "threads={threads} diverged");
            assert_eq!(render_suggestion(&base), render_suggestion(&other));
        }
    }

    #[test]
    fn same_seed_same_bytes() {
        let g = two_triangle_ego();
        let view = EgoView::from_graph(&g, 0);
        let config = DiscoverConfig { seed: 99, ..DiscoverConfig::default() };
        let a = render_suggestion(&discover(&view, &config));
        let b = render_suggestion(&discover(&view, &config));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_overlay_matches_from_graph() {
        let g = two_triangle_ego();
        let overlay = DeltaOverlay::new(&g);
        for ego in 0..g.node_count() as NodeId {
            let direct = EgoView::from_graph(&g, ego);
            let Ok(via_overlay) = EgoView::from_access(&overlay.compose(&g), ego);
            assert_eq!(direct.alters, via_overlay.alters);
            let config = DiscoverConfig::default();
            assert_eq!(
                discover(&direct, &config),
                discover(&via_overlay, &config),
                "ego {ego} diverged"
            );
        }
    }

    #[test]
    fn mutated_overlay_matches_materialized() {
        let g = two_triangle_ego();
        let mut overlay = DeltaOverlay::new(&g);
        overlay.add_edge(&g, 2, 5).unwrap();
        overlay.remove_edge(&g, 3, 4).unwrap();
        let materialized = overlay.materialize(&g);
        let config = DiscoverConfig::default();
        for ego in 0..g.node_count() as NodeId {
            let Ok(live_view) = EgoView::from_access(&overlay.compose(&g), ego);
            let live = discover(&live_view, &config);
            let scratch = discover(&EgoView::from_graph(&materialized, ego), &config);
            assert_eq!(
                render_suggestion(&live),
                render_suggestion(&scratch),
                "ego {ego} diverged"
            );
        }
    }

    #[test]
    fn ego_without_alters_yields_empty_suggestion() {
        let g = Graph::from_edges(true, vec![(1, 2)]);
        let view = EgoView::from_graph(&g, 0);
        let suggestion = discover(&view, &DiscoverConfig::default());
        assert_eq!(suggestion.alters, 0);
        assert!(suggestion.candidates.is_empty());
    }

    #[test]
    fn affected_egos_cover_endpoints_and_shared_watchers() {
        let g = two_triangle_ego();
        let overlay = DeltaOverlay::new(&g);
        // Edge {1,2}: ego 0 sees both as alters; 1 and 2 change themselves.
        assert_eq!(affected_egos(&overlay.compose(&g), 1, 2), vec![0, 1, 2]);
        // Edge {5,6}: ego 0 and fellow triangle member 4 watch both ends.
        assert_eq!(affected_egos(&overlay.compose(&g), 5, 6), vec![0, 4, 5, 6]);
    }

    #[test]
    fn top_truncates_after_deterministic_ranking() {
        let g = two_triangle_ego();
        let view = EgoView::from_graph(&g, 0);
        let all = discover(&view, &DiscoverConfig { top: 0, ..DiscoverConfig::default() });
        let one = discover(&view, &DiscoverConfig { top: 1, ..DiscoverConfig::default() });
        assert_eq!(one.candidates.len(), 1);
        assert_eq!(one.candidates[0], all.candidates[0]);
    }
}
