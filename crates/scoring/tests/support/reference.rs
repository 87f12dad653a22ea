//! [`SetStats`] written straight from the definitions, the reference
//! every backing of the scoring kernel is checked against. Shared by
//! the scoring property tests and the root package's kernel contract.

use circlekit_graph::{Graph, NodeId, VertexSet};
use circlekit_metrics::triangles_per_node;
use circlekit_scoring::SetStats;

/// [`SetStats`] written straight from the definitions: membership by
/// `VertexSet::contains`, ODF terms summed in member order, and TPR as
/// the members with a nonzero triangle count in `Graph::subgraph(set)`.
pub fn reference_stats(g: &Graph, set: &VertexSet, median_degree: f64) -> SetStats {
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
