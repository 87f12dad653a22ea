//! Raw CSR access: exporting a [`Graph`]'s internal arrays and rebuilding
//! a graph from externally stored arrays.
//!
//! This is the substrate of the binary snapshot store (`circlekit-store`):
//! packing a graph serialises exactly these slices, and loading rebuilds
//! the graph through [`Graph::try_from_csr_parts`], which re-validates
//! every structural invariant so a corrupted or hand-crafted file can
//! never produce a graph that violates the guarantees the rest of the
//! workspace relies on (sorted duplicate-free adjacency, in-range
//! targets, consistent edge count).

use crate::csr::Csr;
use crate::{Graph, GraphError, NodeId};

/// Checks the CSR invariants over one adjacency structure and returns the
/// number of self-loop arcs (`v ∈ adj(v)`), which undirected edge
/// accounting needs. Offsets may be stored as `usize` or `u64`.
fn validate_csr<O: Copy + TryInto<usize>>(
    name: &str,
    offsets: &[O],
    targets: &[NodeId],
) -> Result<usize, GraphError> {
    let bad = |why: String| Err(GraphError::InvalidCsr(why));
    // An offset no `usize` can hold cannot end at `targets.len()`.
    let at = |v: usize| offsets[v].try_into().unwrap_or(usize::MAX);
    if offsets.is_empty() {
        return bad(format!("{name}: offsets array is empty"));
    }
    if at(0) != 0 {
        return bad(format!("{name}: offsets[0] is {}, expected 0", at(0)));
    }
    let n = offsets.len() - 1;
    if at(n) != targets.len() {
        return bad(format!(
            "{name}: final offset {} does not match target count {}",
            at(n),
            targets.len()
        ));
    }
    // Monotonicity must hold everywhere before any slicing: a decreasing
    // pair after an inflated offset would otherwise index past `targets`.
    if let Some(v) = (0..n).find(|&v| at(v) > at(v + 1)) {
        return bad(format!("{name}: offsets decrease at node {v}"));
    }
    let mut self_loops = 0usize;
    for v in 0..n {
        let mut prev: Option<NodeId> = None;
        for &t in &targets[at(v)..at(v + 1)] {
            if t as usize >= n {
                return bad(format!(
                    "{name}: node {v} has neighbour {t} outside 0..{n}"
                ));
            }
            if prev.is_some_and(|p| p >= t) {
                return bad(format!(
                    "{name}: adjacency of node {v} is not sorted/duplicate-free"
                ));
            }
            if t as usize == v {
                self_loops += 1;
            }
            prev = Some(t);
        }
    }
    Ok(self_loops)
}

/// Checks raw CSR arrays against every structural invariant
/// [`Graph::try_from_csr_parts`] enforces, without copying them: the
/// validation a zero-copy reader runs before serving the arrays in
/// place. Offsets may be stored as `usize` or `u64`.
///
/// # Errors
///
/// As [`Graph::try_from_csr_parts`].
pub fn validate_csr_parts<O: Copy + TryInto<usize>>(
    directed: bool,
    edge_count: usize,
    (out_offsets, out_targets): (&[O], &[NodeId]),
    in_parts: Option<(&[O], &[NodeId])>,
) -> Result<(), GraphError> {
    let bad = |why: String| Err(GraphError::InvalidCsr(why));
    if directed != in_parts.is_some() {
        return bad(match directed {
            true => "directed graph requires in-adjacency parts".to_string(),
            false => "undirected graph must not carry in-adjacency parts".to_string(),
        });
    }
    let self_loops = validate_csr("out-adjacency", out_offsets, out_targets)?;
    let arcs = out_targets.len();
    if let Some((in_offsets, in_targets)) = in_parts {
        validate_csr("in-adjacency", in_offsets, in_targets)?;
        if in_offsets.len() != out_offsets.len() {
            return bad(format!(
                "in-adjacency describes {} nodes, out-adjacency {}",
                in_offsets.len() - 1,
                out_offsets.len() - 1
            ));
        }
        if in_targets.len() != arcs {
            return bad(format!("in-adjacency has {} arcs, out-adjacency {arcs}", in_targets.len()));
        }
        if edge_count != arcs {
            return bad(format!("edge count {edge_count} does not match {arcs} arcs"));
        }
    } else {
        // Each non-loop edge contributes two arcs, each kept
        // self-loop one: arcs = 2(m - s) + s.
        let expected = edge_count.checked_mul(2).and_then(|d| d.checked_sub(self_loops));
        if expected != Some(arcs) {
            return bad(format!(
                "edge count {edge_count} does not match {arcs} arcs \
                 ({self_loops} self-loops) of the symmetric adjacency"
            ));
        }
    }
    Ok(())
}

impl Graph {
    /// The raw out-adjacency CSR parts `(offsets, targets)`: the
    /// neighbours of `v` are `targets[offsets[v]..offsets[v + 1]]`,
    /// sorted ascending and duplicate-free. For an undirected graph this
    /// is the symmetric adjacency (each edge appears in both endpoint
    /// lists).
    pub fn out_csr(&self) -> (&[usize], &[NodeId]) {
        (self.out().offsets(), self.out().targets())
    }

    /// The raw in-adjacency CSR parts; `None` for undirected graphs
    /// (whose single adjacency is already symmetric).
    pub fn in_csr(&self) -> Option<(&[usize], &[NodeId])> {
        self.inn().map(|c| (c.offsets(), c.targets()))
    }

    /// Rebuilds a graph from raw CSR parts, re-validating every
    /// structural invariant.
    ///
    /// `edge_count` is the graph's `m` (arcs for directed graphs,
    /// undirected edges otherwise — the [`Graph::edge_count`]
    /// convention). `in_parts` must be `Some` exactly when `directed`.
    ///
    /// The parts must describe a graph that [`GraphBuilder`]
    /// (crate::GraphBuilder) could have produced; a graph exported with
    /// [`Graph::out_csr`] / [`Graph::in_csr`] round-trips bit-identically:
    ///
    /// ```
    /// use circlekit_graph::Graph;
    /// let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0)]);
    /// let (oo, ot) = g.out_csr();
    /// let (io, it) = g.in_csr().expect("directed");
    /// let back = Graph::try_from_csr_parts(
    ///     true,
    ///     g.edge_count(),
    ///     oo.to_vec(),
    ///     ot.to_vec(),
    ///     Some((io.to_vec(), it.to_vec())),
    /// )
    /// .expect("valid parts");
    /// assert_eq!(g, back);
    /// ```
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidCsr`] when any invariant fails: non-monotone
    /// or mis-terminated offsets, unsorted or duplicated adjacency,
    /// out-of-range targets, a missing/superfluous in-adjacency, or an
    /// `edge_count` inconsistent with the arrays.
    pub fn try_from_csr_parts(
        directed: bool,
        edge_count: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_parts: Option<(Vec<usize>, Vec<NodeId>)>,
    ) -> Result<Graph, GraphError> {
        validate_csr_parts(
            directed,
            edge_count,
            (&out_offsets, &out_targets),
            in_parts.as_ref().map(|(o, t)| (o.as_slice(), t.as_slice())),
        )?;
        let out = Csr::from_raw_parts(out_offsets, out_targets);
        let inn = in_parts.map(|(offsets, targets)| Csr::from_raw_parts(offsets, targets));
        Ok(Graph::from_parts(directed, out, inn, edge_count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_directed() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (0, 2)]);
        let (oo, ot) = g.out_csr();
        let (io, it) = g.in_csr().expect("directed");
        let back = Graph::try_from_csr_parts(
            true,
            g.edge_count(),
            oo.to_vec(),
            ot.to_vec(),
            Some((io.to_vec(), it.to_vec())),
        )
        .expect("valid parts");
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_undirected() {
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 0), (3, 1)]);
        let (oo, ot) = g.out_csr();
        assert!(g.in_csr().is_none());
        let back =
            Graph::try_from_csr_parts(false, g.edge_count(), oo.to_vec(), ot.to_vec(), None)
                .expect("valid parts");
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_undirected_with_self_loop() {
        let mut b = crate::GraphBuilder::undirected();
        b.keep_self_loops(true).add_edge(0, 0).add_edge(0, 1);
        let g = b.build();
        let (oo, ot) = g.out_csr();
        let back =
            Graph::try_from_csr_parts(false, g.edge_count(), oo.to_vec(), ot.to_vec(), None)
                .expect("valid parts");
        assert_eq!(g, back);
    }

    #[test]
    fn rejects_unsorted_adjacency() {
        let err = Graph::try_from_csr_parts(false, 1, vec![0, 2, 2], vec![1, 0], None)
            .expect_err("unsorted adjacency must fail");
        assert!(matches!(err, GraphError::InvalidCsr(_)), "{err}");
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = Graph::try_from_csr_parts(false, 1, vec![0, 1, 1], vec![7], None)
            .expect_err("out-of-range target must fail");
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn rejects_bad_offsets() {
        for offsets in [vec![], vec![1, 2], vec![0, 2], vec![0, 2, 1]] {
            let err = Graph::try_from_csr_parts(false, 1, offsets.clone(), vec![1, 0], None)
                .expect_err("bad offsets must fail");
            assert!(matches!(err, GraphError::InvalidCsr(_)), "{offsets:?}: {err}");
        }
    }

    #[test]
    fn rejects_missing_or_superfluous_in_adjacency() {
        assert!(Graph::try_from_csr_parts(true, 0, vec![0], vec![], None).is_err());
        assert!(
            Graph::try_from_csr_parts(false, 0, vec![0], vec![], Some((vec![0], vec![])))
                .is_err()
        );
    }

    #[test]
    fn rejects_inconsistent_edge_count() {
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2)]);
        let (oo, ot) = g.out_csr();
        let err = Graph::try_from_csr_parts(false, 5, oo.to_vec(), ot.to_vec(), None)
            .expect_err("wrong edge count must fail");
        assert!(err.to_string().contains("edge count"), "{err}");
    }

    #[test]
    fn rejects_mismatched_in_adjacency_shape() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2)]);
        let (oo, ot) = g.out_csr();
        // In-adjacency describing fewer nodes than the out-adjacency.
        let err = Graph::try_from_csr_parts(
            true,
            g.edge_count(),
            oo.to_vec(),
            ot.to_vec(),
            Some((vec![0, 0], vec![])),
        )
        .expect_err("shape mismatch must fail");
        assert!(matches!(err, GraphError::InvalidCsr(_)), "{err}");
    }
}
