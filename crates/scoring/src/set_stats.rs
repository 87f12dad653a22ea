//! [`SetStats`]: the sufficient statistics of a vertex set within a graph,
//! and [`MemberTally`], the one pass over member adjacency they come
//! from. Full stats over every backing, paged scoring, and shard
//! partials all run that pass; only which members it tallies differs.

use circlekit_graph::{AdjacencyAccess, NodeId, VertexSet};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// The quantities of the paper's Table I (and the extra ones needed by the
/// full Yang–Leskovec suite), computed for one vertex set `C` in a graph
/// `G(V, E)`.
///
/// Edge-count conventions follow the host graph: for directed graphs
/// `m`, `m_c` and `c_c` count *arcs* (a reciprocated pair counts twice);
/// for undirected graphs they count undirected edges. The paper's §IV-B
/// robustness check quantifies the impact of this convention (≈ 2.38 %).
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SetStats {
    /// `n`: vertices in the graph.
    pub n: usize,
    /// `m`: edges in the graph.
    pub m: usize,
    /// Whether the host graph is directed.
    pub directed: bool,
    /// `n_C`: vertices in the set.
    pub n_c: usize,
    /// `m_C`: edges with both endpoints in the set.
    pub m_c: usize,
    /// `c_C`: edges crossing the set boundary (either orientation).
    pub c_c: usize,
    /// Sum of out-degrees `d_out(v)` over members (equals the total-degree
    /// sum for undirected graphs).
    pub out_degree_sum: usize,
    /// Sum of in-degrees `d_in(v)` over members (equals the total-degree
    /// sum for undirected graphs).
    pub in_degree_sum: usize,
    /// Members whose *internal* degree exceeds the graph-wide median total
    /// degree (numerator of FOMD).
    pub above_median_internal: usize,
    /// Members participating in at least one triangle inside the set
    /// (numerator of TPR).
    pub in_internal_triangle: usize,
    /// Maximum over members of the fraction of a member's edges leaving the
    /// set (Max-ODF).
    pub max_odf: f64,
    /// Mean over members of the fraction of edges leaving the set
    /// (Avg-ODF).
    pub avg_odf: f64,
    /// Fraction of members with more edges leaving the set than staying
    /// inside (Flake-ODF).
    pub flake_odf: f64,
}

impl SetStats {
    /// Computes the statistics of `set` within `graph`: an in-memory
    /// [`Graph`](circlekit_graph::Graph), or any other backing that cannot fail.
    ///
    /// `median_degree` must be the median of `graph.degree(v)` over all
    /// nodes — precompute it once per graph (or use
    /// [`Scorer`](crate::Scorer), which does so for you).
    ///
    /// # Panics
    ///
    /// Panics if `set` contains a node id `>= graph.node_count()`.
    pub fn compute<A: AdjacencyAccess<Error = Infallible>>(
        graph: &A,
        set: &VertexSet,
        median_degree: f64,
    ) -> SetStats {
        let Ok(stats) = SetStats::compute_access(graph, set, median_degree);
        stats
    }

    /// Computes the statistics of `set` over any [`AdjacencyAccess`]
    /// backing — an in-memory [`Graph`](circlekit_graph::Graph), or a compressed mmap snapshot
    /// view that decodes adjacency on demand.
    ///
    /// The statistics are the [`MemberTally`] pass over every member, so
    /// every backing — and every shard partial — runs the *same* loop
    /// over the *same* integer sequences: results are bit-identical
    /// across backings by construction, not by parallel maintenance of
    /// two code paths.
    ///
    /// # Errors
    ///
    /// Whatever the backing's neighbour access reports (nothing for
    /// [`Graph`](circlekit_graph::Graph); a decode error for corrupt on-disk data, or a
    /// node-out-of-range error for a member `>= node_count()` on a paged
    /// snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `set` contains a node id `>= node_count()` and the
    /// backing panics on it, as the [`Graph`](circlekit_graph::Graph) impl does (it indexes its
    /// CSR directly).
    pub fn compute_access<A: AdjacencyAccess>(
        access: &A,
        set: &VertexSet,
        median_degree: f64,
    ) -> Result<SetStats, A::Error> {
        let n_c = set.len();
        let tally = MemberTally::compute(access, set, median_degree, |_| true)?;
        // A fold from +0.0, not `Sum`, which starts at -0.0 and would make
        // an all-isolated set's Avg-ODF -0.0.
        let odf_sum = tally.odf.iter().fold(0.0, |sum, &(_, odf)| sum + odf);

        // Every internal arc is visited twice: for an undirected graph once
        // from each endpoint; for a directed graph once as an out-arc of its
        // source and once as an in-arc of its target. A boundary arc has
        // exactly one endpoint in C and is counted exactly once.
        debug_assert_eq!(tally.internal_arcs % 2, 0);

        Ok(SetStats {
            n: access.node_count(),
            m: access.edge_count(),
            directed: access.is_directed(),
            n_c,
            m_c: tally.internal_arcs / 2,
            c_c: tally.boundary,
            out_degree_sum: tally.out_degree_sum,
            in_degree_sum: tally.in_degree_sum,
            above_median_internal: tally.above_median_internal,
            in_internal_triangle: tally.in_internal_triangle,
            max_odf: tally.max_odf,
            avg_odf: if n_c == 0 { 0.0 } else { odf_sum / n_c as f64 },
            flake_odf: if n_c == 0 {
                0.0
            } else {
                tally.flake_count as f64 / n_c as f64
            },
        })
    }

    /// Total degree of the members: `2 m_C + c_C`.
    pub fn total_degree(&self) -> usize {
        2 * self.m_c + self.c_c
    }

    /// Maximum possible number of internal edges: `n_C (n_C - 1)` for
    /// directed graphs, half that for undirected ones.
    pub fn possible_internal_edges(&self) -> usize {
        let pairs = self.n_c.saturating_mul(self.n_c.saturating_sub(1));
        if self.directed {
            pairs
        } else {
            pairs / 2
        }
    }

    /// The null-model expectation `E(m_C)` under a degree-preserving random
    /// graph (Chung–Lu closed form):
    /// `(Σ d(v))² / 4m` for undirected graphs and
    /// `(Σ d_out)(Σ d_in) / m` for directed ones.
    ///
    /// The paper instead *samples* the Viger–Latapy null model; use
    /// `circlekit-nullmodel` for the sampled variant and this closed form as
    /// the fast approximation (they are compared in the ablation benches).
    pub fn expected_internal_edges(&self) -> f64 {
        if self.m == 0 {
            return 0.0;
        }
        if self.directed {
            (self.out_degree_sum as f64) * (self.in_degree_sum as f64) / self.m as f64
        } else {
            let d = self.total_degree() as f64;
            d * d / (4.0 * self.m as f64)
        }
    }
}

/// The member-side terms of [`SetStats`] for the members of one set a
/// caller selects: the integer tallies and the ODF terms.
///
/// [`MemberTally::compute`] is the one pass over member adjacency that
/// every scoring path runs: [`SetStats::compute_access`] over every
/// member, and a shard partial over the members its shard owns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemberTally {
    /// Internal adjacency entries seen at tallied members (an internal
    /// arc is seen once from each endpoint).
    pub internal_arcs: usize,
    /// Boundary arcs seen at tallied members.
    pub boundary: usize,
    /// Sum of out-degrees over tallied members.
    pub out_degree_sum: usize,
    /// Sum of in-degrees over tallied members.
    pub in_degree_sum: usize,
    /// Tallied members whose internal degree exceeds the median degree.
    pub above_median_internal: usize,
    /// Tallied members with more external than internal edges.
    pub flake_count: usize,
    /// Tallied members inside at least one triangle of the induced
    /// subgraph (arcs taken as undirected edges, self-loops ignored).
    pub in_internal_triangle: usize,
    /// Maximum ODF over tallied members (0.0 when none has an edge).
    pub max_odf: f64,
    /// `(v, ODF of v)` for each tallied member with an edge, ascending by
    /// `v`: the order Avg-ODF's sum must follow.
    pub odf: Vec<(NodeId, f64)>,
}

impl MemberTally {
    /// Runs the pass over `set` within `access`, tallying the members for
    /// which `tallied` holds.
    ///
    /// Each member's sorted out-list (and in-list, when directed) is
    /// intersected with the sorted member list: the matches are its
    /// internal adjacency entries, the rest of the list its external
    /// ones, and the matches' ranks in the member list are its induced
    /// neighbours. Every member's neighbours are gathered, tallied or not,
    /// because a triangle through a tallied member closes on the edge
    /// between its two other corners.
    ///
    /// # Errors
    ///
    /// Whatever the backing's neighbour access reports; the pass keeps no
    /// state between calls, so an error leaves nothing behind.
    ///
    /// # Panics
    ///
    /// As the backing, for a member id `>= node_count()`.
    pub fn compute<A: AdjacencyAccess>(
        access: &A,
        set: &VertexSet,
        median_degree: f64,
        tallied: impl Fn(NodeId) -> bool,
    ) -> Result<MemberTally, A::Error> {
        let members = set.as_slice();
        let directed = access.is_directed();
        let mut tally = MemberTally::default();
        // Induced adjacency in local ids (ranks in `members`): member i's
        // neighbours are `ranks[starts[i]..starts[i + 1]]`, ascending.
        let mut starts = Vec::with_capacity(members.len() + 1);
        let mut ranks: Vec<NodeId> = Vec::new();
        let mut row: Vec<NodeId> = Vec::new();
        starts.push(0);

        for (i, &v) in members.iter().enumerate() {
            row.clear();
            let out_deg = access.with_out_neighbors(v, |list| {
                push_member_ranks(list, members, &mut row);
                list.len()
            })?;
            let in_deg = if directed {
                access.with_in_neighbors(v, |list| {
                    push_member_ranks(list, members, &mut row);
                    list.len()
                })?
            } else {
                // Undirected: in-adjacency is the out-adjacency, and both
                // degree sums are the plain degree — no second decode.
                out_deg
            };

            if tallied(v) {
                let degree = if directed { out_deg + in_deg } else { out_deg };
                let internal = row.len();
                let external = degree - internal;
                tally.out_degree_sum += out_deg;
                tally.in_degree_sum += in_deg;
                if degree > 0 {
                    let odf_v = external as f64 / degree as f64;
                    tally.max_odf = tally.max_odf.max(odf_v);
                    tally.odf.push((v, odf_v));
                }
                if external > internal {
                    tally.flake_count += 1;
                }
                if internal as f64 > median_degree {
                    tally.above_median_internal += 1;
                }
                tally.internal_arcs += internal;
                tally.boundary += external;
            }

            // The matches are one ascending run per list, and may repeat a
            // rank (a reciprocated arc, a duplicate entry) or name v itself
            // (a self-loop); the induced row keeps each other member once.
            row.sort_unstable();
            row.dedup();
            row.retain(|&r| r as usize != i);
            ranks.extend_from_slice(&row);
            starts.push(ranks.len());
        }

        // Member i is in an internal triangle when a neighbour j of i has a
        // neighbour that is also i's; the first such j settles it.
        let neighbours = |i: usize| &ranks[starts[i]..starts[i + 1]];
        tally.in_internal_triangle = (0..members.len())
            .filter(|&i| {
                let own = neighbours(i);
                tallied(members[i])
                    && own.iter().any(|&j| {
                        neighbours(j as usize)
                            .iter()
                            .any(|w| own.binary_search(w).is_ok())
                    })
            })
            .count();
        Ok(tally)
    }
}

/// Pushes, in ascending order, the rank in `members` of every entry of
/// `list` that is a member (a repeated entry once per occurrence). Both
/// slices are sorted: the walk iterates the shorter one and
/// binary-searches the rest of the longer one from the last match.
fn push_member_ranks(list: &[NodeId], members: &[NodeId], ranks: &mut Vec<NodeId>) {
    let mut lo = 0;
    if list.len() <= members.len() {
        for &w in list {
            lo += members[lo..].partition_point(|&m| m < w);
            if members.get(lo) == Some(&w) {
                ranks.push(lo as NodeId);
            }
        }
    } else {
        for (rank, &m) in members.iter().enumerate() {
            lo += list[lo..].partition_point(|&w| w < m);
            let copies = list[lo..].iter().take_while(|&&w| w == m).count();
            ranks.extend(std::iter::repeat_n(rank as NodeId, copies));
            lo += copies;
        }
    }
}

/// Median of the total-degree sequence of a graph, the graph-level
/// input FOMD needs, over any infallible backing: an in-memory
/// [`Graph`](circlekit_graph::Graph), a mapped snapshot, or a base with an overlay composed
/// over it. Equal lists give the same bits on every backing.
pub fn median_degree<A: AdjacencyAccess<Error = Infallible>>(graph: &A) -> f64 {
    let Ok(counts) = degree_counts(graph);
    median_of_degree_counts(&counts)
}

/// How many vertices of `access` have each [`total_degree`]: the degree
/// multiset the FOMD median is read off.
///
/// # Errors
///
/// Whatever the backing reports.
pub fn degree_counts<A: AdjacencyAccess>(access: &A) -> Result<BTreeMap<usize, usize>, A::Error> {
    let mut counts = BTreeMap::new();
    for v in 0..access.node_count() as NodeId {
        *counts.entry(total_degree(access, v)?).or_insert(0) += 1;
    }
    Ok(counts)
}

/// `v`'s total degree: the length of its out-list, plus its in-list
/// when the graph is directed — [`Graph::degree`](circlekit_graph::Graph::degree)
/// over any backing.
///
/// # Errors
///
/// Whatever the backing reports.
pub fn total_degree<A: AdjacencyAccess>(access: &A, v: NodeId) -> Result<usize, A::Error> {
    let inn = match access.is_directed() {
        true => access.with_in_neighbors(v, <[NodeId]>::len)?,
        false => 0,
    };
    Ok(access.with_out_neighbors(v, <[NodeId]>::len)? + inn)
}

/// Median of the degree multiset `counts` describes (degree -> number
/// of vertices with it), 0 when it is empty: the FOMD threshold. Counts
/// kept up to date under mutation give the bits a fresh
/// [`median_degree`] pass gives.
pub fn median_of_degree_counts(counts: &BTreeMap<usize, usize>) -> f64 {
    // The k-th smallest degree, 0-based.
    let kth = |k: usize| {
        let mut seen = 0;
        let at = counts.iter().find(|&(_, &c)| {
            seen += c;
            seen > k
        });
        at.map_or(0, |(&d, _)| d)
    };
    match counts.values().sum::<usize>() {
        0 => 0.0,
        n if n % 2 == 1 => kth(n / 2) as f64,
        n => (kth(n / 2 - 1) + kth(n / 2)) as f64 / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circlekit_graph::Graph;

    /// 4-clique {0,1,2,3} with a tail 3-4-5.
    fn clique_with_tail() -> (Graph, VertexSet) {
        let g = Graph::from_edges(
            false,
            [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        );
        ((g), (0u32..4).collect())
    }

    #[test]
    fn undirected_counts() {
        let (g, set) = clique_with_tail();
        let s = SetStats::compute(&g, &set, median_degree(&g));
        assert_eq!(s.n, 6);
        assert_eq!(s.m, 8);
        assert_eq!(s.n_c, 4);
        assert_eq!(s.m_c, 6);
        assert_eq!(s.c_c, 1);
        assert_eq!(s.total_degree(), 13);
        assert_eq!(s.possible_internal_edges(), 6);
    }

    #[test]
    fn directed_counts() {
        // Directed triangle plus an outgoing and an incoming boundary arc.
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (4, 1)]);
        let set: VertexSet = (0u32..3).collect();
        let s = SetStats::compute(&g, &set, median_degree(&g));
        assert_eq!(s.m_c, 3);
        assert_eq!(s.c_c, 2);
        assert_eq!(s.out_degree_sum, 4); // 0:2, 1:1, 2:1
        assert_eq!(s.in_degree_sum, 4); // 0:1, 1:2, 2:1
    }

    #[test]
    fn odf_statistics() {
        let (g, set) = clique_with_tail();
        let s = SetStats::compute(&g, &set, median_degree(&g));
        // Only node 3 has an external edge: odf 1/4.
        assert!((s.max_odf - 0.25).abs() < 1e-12);
        assert!((s.avg_odf - 0.25 / 4.0).abs() < 1e-12);
        assert_eq!(s.flake_odf, 0.0);
    }

    #[test]
    fn flake_counts_majority_external_members() {
        // Node 1 inside the set {0,1} has 1 internal, 2 external edges.
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (1, 3)]);
        let set = VertexSet::from_vec(vec![0, 1]);
        let s = SetStats::compute(&g, &set, median_degree(&g));
        assert_eq!(s.flake_odf, 0.5);
    }

    #[test]
    fn tpr_counts_triangle_members() {
        let (g, set) = clique_with_tail();
        let s = SetStats::compute(&g, &set, median_degree(&g));
        assert_eq!(s.in_internal_triangle, 4);

        // A path-only set has no internal triangles.
        let path_set = VertexSet::from_vec(vec![3, 4, 5]);
        let s = SetStats::compute(&g, &path_set, median_degree(&g));
        assert_eq!(s.in_internal_triangle, 0);
    }

    #[test]
    fn fomd_counts_above_median_internal_degree() {
        let (g, set) = clique_with_tail();
        // Degrees: 3,3,3,4,2,1 -> median 3. Internal degrees in the clique
        // are all 3, which is not *strictly* above the median.
        let s = SetStats::compute(&g, &set, median_degree(&g));
        assert_eq!(s.above_median_internal, 0);
        // With a lower median every clique member clears the bar.
        let s = SetStats::compute(&g, &set, 1.0);
        assert_eq!(s.above_median_internal, 4);
    }

    #[test]
    fn expected_internal_edges_closed_form() {
        let (g, set) = clique_with_tail();
        let s = SetStats::compute(&g, &set, median_degree(&g));
        // (2*6+1)^2 / (4*8) = 169/32
        assert!((s.expected_internal_edges() - 169.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn empty_set_is_all_zeroes() {
        let (g, _) = clique_with_tail();
        let s = SetStats::compute(&g, &VertexSet::new(), median_degree(&g));
        assert_eq!(s.n_c, 0);
        assert_eq!(s.m_c, 0);
        assert_eq!(s.c_c, 0);
        assert_eq!(s.avg_odf, 0.0);
    }

    #[test]
    fn median_degree_even_and_odd() {
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2)]);
        assert_eq!(median_degree(&g), 1.0); // degrees 1,2,1 -> median 1
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 3)]);
        assert_eq!(median_degree(&g), 1.5); // degrees 1,2,2,1
    }
}
