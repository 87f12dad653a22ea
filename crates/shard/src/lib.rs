//! Vertex-partitioned snapshot shards with *exact* scatter-gather
//! scoring.
//!
//! A snapshot too large (or too hot) for one process is split into `N`
//! sub-snapshots by a deterministic hash of the original vertex id
//! ([`shard_of`]). Each shard keeps the parent's **full node-id space**
//! and stores the *halo* sub-graph of its owned vertices: every owned
//! vertex, every neighbour of an owned vertex, and every edge whose two
//! endpoints are both present. Three properties follow by construction:
//!
//! * An owned vertex's adjacency rows are **complete** — its internal /
//!   external tallies against any vertex set are the same integers the
//!   single-node computation produces.
//! * An owned vertex's ego network is complete, so ego-scoped operations
//!   (circle discovery) routed to the owner are exact, not approximate.
//! * Any triangle through an owned member of a set survives in the
//!   shard's induced subgraph (all three corners are present and all
//!   three edges kept), and no spurious triangle can appear (shard edges
//!   are a subset of parent edges) — per-owned-member TPR membership is
//!   exact.
//!
//! [`compute_partial`] evaluates one vertex set on one shard: it runs
//! the single-node [`MemberTally`] pass over the halo sub-graph,
//! tallying only the members the shard owns (every member's induced
//! neighbours are still gathered, for the triangle argument above).
//! [`reduce_partials`] recombines the `N` partials into the exact global
//! [`SetStats`](circlekit_scoring::SetStats) — **bit-identical** to the
//! single-node value, including the three IEEE-754 fields. Integer
//! tallies are order-free sums; `max_odf` is a fold of `f64::max` over
//! finite non-negatives (associative, exact); and the one
//! order-sensitive term, the Avg-ODF sum, is replayed in the global
//! sorted member order by merging the shards' sorted per-member ODF
//! arrays (ownership partitions the members, so the merge *is* the
//! original iteration order). Graph-global inputs a sub-graph cannot
//! recompute — `m`, the FOMD median degree, and the parent's identity —
//! travel in the snapshot's [`ShardManifest`].
//!
//! `tests/bit_identity.rs` pins the guarantee with property tests over
//! random directed and undirected graphs at shard counts 1, 2, 3, 5
//! and 8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circlekit_graph::{AdjacencyAccess, Graph, GraphBuilder, NodeId, VertexSet};
use circlekit_scoring::{MemberTally, SetStats};
use circlekit_store::ShardManifest;
use std::convert::Infallible;
use std::fmt;

/// SplitMix64 finalizer (Steele–Lea–Flood): a full 64-bit avalanche, so
/// consecutive vertex ids land on uncorrelated shards.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The shard that owns vertex `v` in an `shard_count`-way partition: a
/// deterministic function of the *original* vertex id, so every pack of
/// the same parent produces the same placement and a coordinator can
/// route by recomputing it.
///
/// # Panics
///
/// Panics if `shard_count == 0`.
pub fn shard_of(v: NodeId, shard_count: u32) -> u32 {
    assert!(shard_count > 0, "shard_count must be at least 1");
    (splitmix64(v as u64) % shard_count as u64) as u32
}

/// Parses a `--shards` command-line value: every front end (`pack`,
/// `serve --coordinator`, `loadgen`) accepts the same grammar and
/// produces the same diagnostics, mirroring
/// [`parse_thread_count`](circlekit_scoring::parse_thread_count).
///
/// # Errors
///
/// A user-facing message for non-numeric input and for `0` (a snapshot
/// cannot be split into zero shards).
pub fn parse_shard_count(value: &str) -> Result<usize, String> {
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| format!("--shards expects a positive integer, got {value:?}"))?;
    if n == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    Ok(n)
}

/// Builds shard `shard_index`'s manifest for `parent`: the caller
/// supplies the two inputs that are not derivable from the graph alone
/// (the parent's median total degree and the CRC-32 of the parent
/// snapshot file, `0` when there is no file).
pub fn manifest_for(
    parent: &Graph,
    median_degree: f64,
    parent_crc32: u32,
    shard_count: u32,
    shard_index: u32,
) -> ShardManifest {
    ShardManifest {
        shard_count,
        shard_index,
        parent_node_count: parent.node_count() as u64,
        parent_edge_count: parent.edge_count() as u64,
        parent_median_degree: median_degree,
        parent_crc32,
    }
}

/// Extracts shard `shard_index`'s halo sub-graph from `parent`.
///
/// The result keeps the parent's full node-id space (`node_count` is
/// unchanged; vertices outside the halo are simply isolated) and
/// contains exactly the edges whose two endpoints are both *present*,
/// where present = owned ∪ neighbours(owned). Owned vertices therefore
/// keep their complete adjacency rows.
///
/// # Panics
///
/// Panics if `shard_index >= shard_count` or `shard_count == 0`.
pub fn shard_graph(parent: &Graph, shard_count: u32, shard_index: u32) -> Graph {
    assert!(
        shard_index < shard_count,
        "shard_index {shard_index} outside 0..{shard_count}"
    );
    let n = parent.node_count();
    let mut present = vec![false; n];
    for v in 0..n as NodeId {
        if shard_of(v, shard_count) != shard_index {
            continue;
        }
        present[v as usize] = true;
    }
    // Mark the halo in a second pass so the owned mask is complete first
    // (cheaper than re-testing shard_of per neighbour).
    let owned: Vec<NodeId> = (0..n as NodeId).filter(|&v| present[v as usize]).collect();
    for &v in &owned {
        for &w in parent.out_neighbors(v) {
            present[w as usize] = true;
        }
        if parent.is_directed() {
            for &w in parent.in_neighbors(v) {
                present[w as usize] = true;
            }
        }
    }

    let mut b = if parent.is_directed() {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    // Preserve the parent CSR verbatim: if the parent kept self-loops,
    // the shard keeps them too (an undirected edge is added from both
    // endpoints' rows; the builder dedups the double add).
    b.keep_self_loops(true);
    b.reserve_nodes(n);
    for u in 0..n as NodeId {
        if !present[u as usize] {
            continue;
        }
        for &w in parent.out_neighbors(u) {
            if present[w as usize] {
                b.add_edge(u, w);
            }
        }
    }
    b.build()
}

/// The partial [`SetStats`] terms shard `shard_index` contributes for
/// one vertex set: exact tallies over the members the shard *owns*.
///
/// All integer fields are order-free sums; `max_odf` is an exact fold;
/// and `odf_members` / `odf_values` carry the per-member Avg-ODF terms
/// (owned members with non-zero degree, ascending by id) so the
/// reduction can replay the single-node summation order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPartial {
    /// Which shard produced this partial.
    pub shard_index: u32,
    /// Internal adjacency entries seen at owned members (each global
    /// internal arc is seen twice *across* shards, as in the single-node
    /// loop).
    pub internal_arcs: u64,
    /// Boundary arcs seen at owned members.
    pub boundary: u64,
    /// Sum of out-degrees over owned members.
    pub out_degree_sum: u64,
    /// Sum of in-degrees over owned members.
    pub in_degree_sum: u64,
    /// Owned members whose internal degree exceeds the parent median.
    pub above_median_internal: u64,
    /// Owned members with more external than internal edges.
    pub flake_count: u64,
    /// Owned members inside at least one internal triangle.
    pub in_internal_triangle: u64,
    /// Maximum ODF over owned members (0.0 when none qualify).
    pub max_odf: f64,
    /// Owned members with non-zero degree, ascending.
    pub odf_members: Vec<NodeId>,
    /// ODF of the corresponding `odf_members` entry.
    pub odf_values: Vec<f64>,
}

/// Computes shard `manifest.shard_index`'s partial statistics for `set`
/// over the shard's halo sub-graph.
///
/// `set` is the **global** vertex set (the coordinator broadcasts it
/// whole); only the members this shard owns contribute. This is the
/// single-node [`MemberTally`] pass tallying only the owned members,
/// with the FOMD threshold taken from the manifest.
///
/// # Panics
///
/// Panics if `set` contains a node id `>= graph.node_count()`.
pub fn compute_partial<A: AdjacencyAccess<Error = Infallible>>(
    graph: &A,
    manifest: &ShardManifest,
    set: &VertexSet,
) -> ShardPartial {
    let owned = |v| shard_of(v, manifest.shard_count) == manifest.shard_index;
    let Ok(tally) = MemberTally::compute(graph, set, manifest.parent_median_degree, owned);
    let (odf_members, odf_values) = tally.odf.into_iter().unzip();
    ShardPartial {
        shard_index: manifest.shard_index,
        internal_arcs: tally.internal_arcs as u64,
        boundary: tally.boundary as u64,
        out_degree_sum: tally.out_degree_sum as u64,
        in_degree_sum: tally.in_degree_sum as u64,
        above_median_internal: tally.above_median_internal as u64,
        flake_count: tally.flake_count as u64,
        in_internal_triangle: tally.in_internal_triangle as u64,
        max_odf: tally.max_odf,
        odf_members,
        odf_values,
    }
}

/// Why a set of shard partials cannot be reduced to a global result.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// The number of partials does not match the manifest's shard count.
    WrongCount {
        /// Shards the manifest declares.
        expected: u32,
        /// Partials supplied.
        got: usize,
    },
    /// Two partials claim the same shard index.
    DuplicateShard {
        /// The repeated index.
        index: u32,
    },
    /// A shard index is outside `0..shard_count`.
    IndexOutOfRange {
        /// The offending index.
        index: u32,
        /// The manifest's shard count.
        count: u32,
    },
    /// A partial's ODF member/value arrays differ in length.
    UnalignedOdf {
        /// The offending shard.
        index: u32,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::WrongCount { expected, got } => {
                write!(f, "need exactly {expected} shard partials, got {got}")
            }
            ShardError::DuplicateShard { index } => {
                write!(f, "shard {index} supplied more than one partial")
            }
            ShardError::IndexOutOfRange { index, count } => {
                write!(f, "shard index {index} outside 0..{count}")
            }
            ShardError::UnalignedOdf { index } => {
                write!(f, "shard {index} returned misaligned ODF member/value arrays")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Reduces one partial per shard into the exact global [`SetStats`] —
/// bit-identical to `SetStats::compute` on the unpartitioned parent.
///
/// `set_len` is the global set size `n_C` (the denominator of Avg-ODF /
/// Flake-ODF); `directed` is the parent's orientation. Partials may
/// arrive in any order; exactly one per shard index is required.
///
/// # Errors
///
/// A [`ShardError`] when the partials do not form a complete,
/// duplicate-free cover of `0..manifest.shard_count` — an incomplete
/// gather must be a refusal, never a silently partial score.
pub fn reduce_partials(
    manifest: &ShardManifest,
    directed: bool,
    set_len: usize,
    partials: &[ShardPartial],
) -> Result<SetStats, ShardError> {
    let count = manifest.shard_count;
    if partials.len() != count as usize {
        return Err(ShardError::WrongCount { expected: count, got: partials.len() });
    }
    let mut seen = vec![false; count as usize];
    for p in partials {
        if p.shard_index >= count {
            return Err(ShardError::IndexOutOfRange { index: p.shard_index, count });
        }
        if seen[p.shard_index as usize] {
            return Err(ShardError::DuplicateShard { index: p.shard_index });
        }
        seen[p.shard_index as usize] = true;
        if p.odf_members.len() != p.odf_values.len() {
            return Err(ShardError::UnalignedOdf { index: p.shard_index });
        }
    }

    let mut internal_arcs = 0u64;
    let mut boundary = 0u64;
    let mut out_degree_sum = 0u64;
    let mut in_degree_sum = 0u64;
    let mut above_median_internal = 0u64;
    let mut flake_count = 0u64;
    let mut in_internal_triangle = 0u64;
    let mut max_odf: f64 = 0.0;
    for p in partials {
        internal_arcs += p.internal_arcs;
        boundary += p.boundary;
        out_degree_sum += p.out_degree_sum;
        in_degree_sum += p.in_degree_sum;
        above_median_internal += p.above_median_internal;
        flake_count += p.flake_count;
        in_internal_triangle += p.in_internal_triangle;
        max_odf = max_odf.max(p.max_odf);
    }

    // The ODF sum is the one order-sensitive term: replay the global
    // ascending-member iteration by merging the shards' sorted arrays
    // (ownership partitions the members, so ascending id order across
    // shards *is* the single-node summation order).
    let mut heads: Vec<(usize, usize)> = (0..partials.len()).map(|i| (i, 0)).collect();
    let mut odf_sum = 0.0;
    loop {
        let mut best: Option<(usize, NodeId)> = None;
        for &(p, at) in &heads {
            if let Some(&v) = partials[p].odf_members.get(at) {
                if best.is_none_or(|(_, b)| v < b) {
                    best = Some((p, v));
                }
            }
        }
        let Some((p, _)) = best else { break };
        odf_sum += partials[p].odf_values[heads[p].1];
        heads[p].1 += 1;
    }

    debug_assert_eq!(internal_arcs % 2, 0);
    let n_c = set_len;
    Ok(SetStats {
        n: manifest.parent_node_count as usize,
        m: manifest.parent_edge_count as usize,
        directed,
        n_c,
        m_c: (internal_arcs / 2) as usize,
        c_c: boundary as usize,
        out_degree_sum: out_degree_sum as usize,
        in_degree_sum: in_degree_sum as usize,
        above_median_internal: above_median_internal as usize,
        in_internal_triangle: in_internal_triangle as usize,
        max_odf,
        avg_odf: if n_c == 0 { 0.0 } else { odf_sum / n_c as f64 },
        flake_odf: if n_c == 0 { 0.0 } else { flake_count as f64 / n_c as f64 },
    })
}

/// Convenience: scores `set` through the full shard pipeline — extract
/// every halo sub-graph, compute one partial per shard, reduce. The
/// in-process reference the property tests (and the distributed serve
/// path's integration tests) compare against `SetStats::compute`.
pub fn sharded_set_stats(
    parent: &Graph,
    set: &VertexSet,
    median_degree: f64,
    shard_count: u32,
) -> SetStats {
    let partials: Vec<ShardPartial> = (0..shard_count)
        .map(|i| {
            let manifest = manifest_for(parent, median_degree, 0, shard_count, i);
            let sub = shard_graph(parent, shard_count, i);
            compute_partial(&sub, &manifest, set)
        })
        .collect();
    let manifest = manifest_for(parent, median_degree, 0, shard_count, 0);
    reduce_partials(&manifest, parent.is_directed(), set.len(), &partials)
        .expect("one partial per shard by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_with_tail() -> (Graph, VertexSet) {
        let g = Graph::from_edges(
            false,
            [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
        );
        (g, (0u32..4).collect())
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for count in [1u32, 2, 3, 5, 8] {
            for v in 0..1000u32 {
                let s = shard_of(v, count);
                assert!(s < count);
                assert_eq!(s, shard_of(v, count));
            }
        }
        // Single shard owns everything.
        assert!((0..1000u32).all(|v| shard_of(v, 1) == 0));
    }

    #[test]
    fn shard_of_spreads_vertices() {
        // Not a statistical test — just that no shard is empty on a
        // modest id range, which a weak hash (e.g. v % N on strided ids)
        // would fail.
        for count in [2u32, 3, 5, 8] {
            let mut hit = vec![false; count as usize];
            for v in 0..64u32 {
                hit[shard_of(v, count) as usize] = true;
            }
            assert!(hit.iter().all(|&h| h), "empty shard at count {count}");
        }
    }

    #[test]
    fn parse_shard_count_matches_thread_grammar() {
        assert_eq!(parse_shard_count("3"), Ok(3));
        assert_eq!(parse_shard_count(" 8 "), Ok(8));
        assert_eq!(
            parse_shard_count("zero"),
            Err("--shards expects a positive integer, got \"zero\"".to_string())
        );
        assert_eq!(parse_shard_count("0"), Err("--shards must be at least 1".to_string()));
    }

    #[test]
    fn halo_preserves_owned_rows() {
        let (g, _) = clique_with_tail();
        for count in [1u32, 2, 3] {
            for index in 0..count {
                let sub = shard_graph(&g, count, index);
                assert_eq!(sub.node_count(), g.node_count());
                for v in 0..g.node_count() as NodeId {
                    if shard_of(v, count) == index {
                        assert_eq!(
                            sub.out_neighbors(v),
                            g.out_neighbors(v),
                            "owned row truncated: count {count} shard {index} vertex {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_shard_reduction_matches_direct_compute() {
        let (g, set) = clique_with_tail();
        let scorer = circlekit_scoring::Scorer::new(&g);
        let expected = SetStats::compute(&g, &set, scorer.median_degree());
        let got = sharded_set_stats(&g, &set, scorer.median_degree(), 1);
        assert_eq!(got, expected);
        assert_eq!(got.max_odf.to_bits(), expected.max_odf.to_bits());
        assert_eq!(got.avg_odf.to_bits(), expected.avg_odf.to_bits());
        assert_eq!(got.flake_odf.to_bits(), expected.flake_odf.to_bits());
    }

    #[test]
    fn incomplete_gather_is_a_typed_refusal() {
        let (g, set) = clique_with_tail();
        let median = circlekit_scoring::Scorer::new(&g).median_degree();
        let manifest = manifest_for(&g, median, 0, 3, 0);
        let mut partials: Vec<ShardPartial> = (0..3)
            .map(|i| {
                let m = manifest_for(&g, median, 0, 3, i);
                compute_partial(&shard_graph(&g, 3, i), &m, &set)
            })
            .collect();

        let short = &partials[..2];
        assert_eq!(
            reduce_partials(&manifest, false, set.len(), short),
            Err(ShardError::WrongCount { expected: 3, got: 2 })
        );

        let mut dup = partials.clone();
        dup[2].shard_index = 0;
        assert!(matches!(
            reduce_partials(&manifest, false, set.len(), &dup),
            Err(ShardError::DuplicateShard { index: 0 })
        ));

        partials[2].shard_index = 9;
        assert!(matches!(
            reduce_partials(&manifest, false, set.len(), &partials),
            Err(ShardError::IndexOutOfRange { index: 9, count: 3 })
        ));
    }

    #[test]
    fn empty_set_reduces_to_zeroes() {
        let (g, _) = clique_with_tail();
        let median = circlekit_scoring::Scorer::new(&g).median_degree();
        let expected = SetStats::compute(&g, &VertexSet::new(), median);
        assert_eq!(sharded_set_stats(&g, &VertexSet::new(), median, 3), expected);
    }
}
