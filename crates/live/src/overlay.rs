//! [`DeltaOverlay`]: graph mutations composed over a read-only base,
//! and [`Composed`], the composed graph as an [`AdjacencyAccess`].

use crate::error::MutationError;
use circlekit_graph::{AdjacencyAccess, Graph, GraphBuilder, NodeId};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// Arcs `(u, w)`: the arcs of `u` form one range, ascending by `w`.
type Arcs = BTreeSet<(NodeId, NodeId)>;

/// A set of edge/vertex deltas layered over an immutable base graph —
/// any infallible [`AdjacencyAccess`] backing: an in-memory [`Graph`],
/// or a mapped snapshot.
///
/// The overlay never copies the base: [`DeltaOverlay::compose`] serves
/// each composed list as the base list (minus removals) merged with a
/// small sorted delta set, so a base shared read-only across threads
/// (or mmap-backed) keeps serving while mutations accumulate here.
///
/// The overlay does not borrow the base graph; every query takes it as
/// a parameter. Callers must pass the *same* graph the overlay was
/// created over — node counts are checked (`debug_assert`) but edge
/// content is not.
///
/// Invariants maintained by the mutation methods: added edges are
/// disjoint from base edges, removed edges are a subset of base edges
/// (re-adding a removed base edge cancels the removal instead of
/// recording an addition, and vice versa). Composed lists therefore
/// never hold duplicates, and `materialize` reproduces the exact edge
/// multiset.
#[derive(Debug, Clone, Default)]
pub struct DeltaOverlay {
    directed: bool,
    base_nodes: usize,
    added_nodes: usize,
    /// Out-adjacency deltas. Undirected overlays store both orientations
    /// here (mirroring the symmetric CSR of an undirected `Graph`) and
    /// leave the `in_*` sets empty.
    out_added: Arcs,
    out_removed: Arcs,
    /// In-adjacency deltas of a directed overlay, as `(target, source)`.
    in_added: Arcs,
    in_removed: Arcs,
    /// Edges (undirected) / arcs (directed) added on top of the base.
    added_edges: usize,
    /// Base edges / arcs currently removed.
    removed_edges: usize,
}

impl DeltaOverlay {
    /// An empty overlay over `base`.
    pub fn new<B: AdjacencyAccess>(base: &B) -> DeltaOverlay {
        DeltaOverlay {
            directed: base.is_directed(),
            base_nodes: base.node_count(),
            ..DeltaOverlay::default()
        }
    }

    /// Whether the composed graph is directed (always equal to the base).
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether any delta has been recorded.
    pub fn is_empty(&self) -> bool {
        self.added_nodes == 0 && self.added_edges == 0 && self.removed_edges == 0
    }

    /// Nodes in the composed graph.
    pub fn node_count(&self) -> usize {
        self.base_nodes + self.added_nodes
    }

    /// Edges (undirected) / arcs (directed) in the composed graph.
    pub fn edge_count<B: AdjacencyAccess>(&self, base: &B) -> usize {
        self.check_base(base);
        base.edge_count() + self.added_edges - self.removed_edges
    }

    fn check_base<B: AdjacencyAccess>(&self, base: &B) {
        debug_assert_eq!(base.node_count(), self.base_nodes, "overlay used with a foreign graph");
        debug_assert_eq!(base.is_directed(), self.directed, "overlay used with a foreign graph");
    }

    fn in_base<B: AdjacencyAccess<Error = Infallible>>(&self, base: &B, u: NodeId, v: NodeId) -> bool {
        (u as usize) < self.base_nodes
            && (v as usize) < self.base_nodes
            && base.with_out_neighbors(u, |out| out.binary_search(&v).is_ok()) == Ok(true)
    }

    /// Whether the composed graph contains the arc `u -> v` (undirected:
    /// the edge `{u, v}`). Endpoints outside the composed node range are
    /// simply absent, not an error.
    pub fn has_edge<B: AdjacencyAccess<Error = Infallible>>(
        &self,
        base: &B,
        u: NodeId,
        v: NodeId,
    ) -> bool {
        self.check_base(base);
        if (u as usize) >= self.node_count() || (v as usize) >= self.node_count() {
            return false;
        }
        if self.in_base(base, u, v) {
            !self.out_removed.contains(&(u, v))
        } else {
            self.out_added.contains(&(u, v))
        }
    }

    /// Appends one isolated vertex and returns its id.
    pub fn add_vertex(&mut self) -> NodeId {
        let id = self.node_count() as NodeId;
        self.added_nodes += 1;
        id
    }

    /// Inserts the edge `u -> v` (undirected: `{u, v}`).
    ///
    /// # Errors
    ///
    /// [`MutationError::SelfLoop`], [`MutationError::NodeOutOfRange`] or
    /// [`MutationError::EdgeExists`]; nothing is recorded on error.
    pub fn add_edge<B: AdjacencyAccess<Error = Infallible>>(
        &mut self,
        base: &B,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), MutationError> {
        self.check_base(base);
        self.check_endpoints(u, v)?;
        if self.has_edge(base, u, v) {
            return Err(MutationError::EdgeExists { u, v });
        }
        if self.in_base(base, u, v) {
            // Cancelling an earlier removal, not recording an addition.
            self.mark(true, false, u, v);
            self.removed_edges -= 1;
        } else {
            self.mark(false, true, u, v);
            self.added_edges += 1;
        }
        Ok(())
    }

    /// Deletes the edge `u -> v` (undirected: `{u, v}`).
    ///
    /// # Errors
    ///
    /// [`MutationError::SelfLoop`], [`MutationError::NodeOutOfRange`] or
    /// [`MutationError::EdgeMissing`]; nothing is recorded on error.
    pub fn remove_edge<B: AdjacencyAccess<Error = Infallible>>(
        &mut self,
        base: &B,
        u: NodeId,
        v: NodeId,
    ) -> Result<(), MutationError> {
        self.check_base(base);
        self.check_endpoints(u, v)?;
        if !self.has_edge(base, u, v) {
            return Err(MutationError::EdgeMissing { u, v });
        }
        if self.in_base(base, u, v) {
            self.mark(true, true, u, v);
            self.removed_edges += 1;
        } else {
            // Cancelling an earlier addition.
            self.mark(false, false, u, v);
            self.added_edges -= 1;
        }
        Ok(())
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(), MutationError> {
        if u == v {
            return Err(MutationError::SelfLoop { node: u });
        }
        let n = self.node_count();
        for node in [u, v] {
            if node as usize >= n {
                return Err(MutationError::NodeOutOfRange { node, node_count: n });
            }
        }
        Ok(())
    }

    /// Records (`on`) or forgets `u -> v` among the removed (or added)
    /// deltas, mirrored into the in-deltas (directed) or the reverse
    /// orientation (undirected).
    fn mark(&mut self, removed: bool, on: bool, u: NodeId, v: NodeId) {
        let directed = self.directed;
        let (out, inn) = match removed {
            true => (&mut self.out_removed, &mut self.in_removed),
            false => (&mut self.out_added, &mut self.in_added),
        };
        let set = |arcs: &mut Arcs, arc| if on { arcs.insert(arc) } else { arcs.remove(&arc) };
        set(out, (u, v));
        set(if directed { inn } else { out }, (v, u));
    }

    /// The composed graph: `base` with these deltas applied, as an
    /// [`AdjacencyAccess`] that scoring, sampling and discovery read
    /// directly — the lists [`DeltaOverlay::materialize`] would store,
    /// without building it.
    pub fn compose<'a, B: AdjacencyAccess>(&'a self, base: &'a B) -> Composed<'a, B> {
        self.check_base(base);
        Composed { base, overlay: self }
    }

    /// Builds a standalone [`Graph`] equal to the composed graph.
    /// Isolated added vertices are preserved.
    pub fn materialize<B: AdjacencyAccess<Error = Infallible>>(&self, base: &B) -> Graph {
        self.check_base(base);
        let mut builder =
            if self.directed { GraphBuilder::directed() } else { GraphBuilder::undirected() };
        builder.reserve_nodes(self.node_count());
        for u in 0..self.base_nodes as NodeId {
            let Ok(()) = base.with_out_neighbors(u, |out| {
                // Undirected lists hold each edge at both endpoints; emit
                // it once, from the smaller one. The removal set holds
                // both orientations, so one probe suffices.
                for &v in out.iter().filter(|&&v| self.directed || u <= v) {
                    if !self.out_removed.contains(&(u, v)) {
                        builder.add_edge(u, v);
                    }
                }
            });
        }
        // Undirected additions are stored symmetrically; emit each edge
        // once (no self-loops, so strict inequality is safe).
        builder.add_edges(self.out_added.iter().copied().filter(|&(u, v)| self.directed || u < v));
        builder.build()
    }
}

/// A base graph with a [`DeltaOverlay`] composed over it, read through
/// [`AdjacencyAccess`]; see [`DeltaOverlay::compose`].
///
/// A vertex the overlay never touched is served the base's own list,
/// without a copy. A touched vertex's list is merged into a fresh
/// buffer: the base list minus its removals, plus its additions, sorted
/// and duplicate-free like every other backing's.
#[derive(Clone, Copy, Debug)]
pub struct Composed<'a, B> {
    base: &'a B,
    overlay: &'a DeltaOverlay,
}

/// Hands `f` the list `base` of `v` minus `v`'s arcs in `removed`, plus
/// its arcs in `added` (`base` itself when neither holds any). All three
/// are sorted, removals are a subset of `base` and additions disjoint
/// from it, so the merge is sorted and duplicate-free.
fn merged<'a, R>(
    base: &[NodeId],
    v: NodeId,
    (added, removed): (&'a Arcs, &'a Arcs),
    f: impl FnOnce(&[NodeId]) -> R,
) -> R {
    if added.is_empty() && removed.is_empty() {
        return f(base);
    }
    let ends = |arcs: &'a Arcs| arcs.range((v, 0)..=(v, NodeId::MAX)).map(|&(_, w)| w).peekable();
    let (mut extra, mut gone) = (ends(added), ends(removed));
    if extra.peek().is_none() && gone.peek().is_none() {
        return f(base);
    }
    let mut list = Vec::with_capacity(base.len() + 1);
    for &w in base {
        if gone.next_if_eq(&w).is_some() {
            continue;
        }
        while let Some(a) = extra.next_if(|&a| a < w) {
            list.push(a);
        }
        list.push(w);
    }
    list.extend(extra);
    f(&list)
}

impl<B: AdjacencyAccess> Composed<'_, B> {
    /// Hands `f` the composed out-list (`out`) or in-list of `v`.
    fn list<R>(&self, v: NodeId, out: bool, f: impl FnOnce(&[NodeId]) -> R) -> Result<R, B::Error> {
        let deltas = self.deltas(v, out);
        self.base_list(v, out, |base| merged(base, v, deltas, f))
    }

    /// Hands `f` the base's out-list (`out`) or in-list of `v`, empty
    /// for an added vertex.
    fn base_list<R>(
        &self,
        v: NodeId,
        out: bool,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, B::Error> {
        match ((v as usize) < self.overlay.base_nodes, out) {
            (false, _) => Ok(f(&[])),
            (true, true) => self.base.with_out_neighbors(v, f),
            (true, false) => self.base.with_in_neighbors(v, f),
        }
    }

    /// The added and removed arcs that compose `v`'s out-list (`out`) or
    /// in-list.
    fn deltas(&self, v: NodeId, out: bool) -> (&Arcs, &Arcs) {
        let o = self.overlay;
        assert!((v as usize) < o.node_count(), "node {v} out of range");
        match out || !o.directed {
            true => (&o.out_added, &o.out_removed),
            false => (&o.in_added, &o.in_removed),
        }
    }

    /// `v`'s total degree in the composed graph — what
    /// [`total_degree`](circlekit_scoring::total_degree) reads through
    /// the lists — without merging them: each base list's length plus
    /// `v`'s added arcs, minus its removed ones.
    ///
    /// # Errors
    ///
    /// Whatever the base reports.
    pub fn total_degree(&self, v: NodeId) -> Result<usize, B::Error> {
        let count = |arcs: &Arcs| arcs.range((v, 0)..=(v, NodeId::MAX)).count();
        let len = |out| -> Result<usize, B::Error> {
            let (added, removed) = self.deltas(v, out);
            Ok(self.base_list(v, out, <[NodeId]>::len)? + count(added) - count(removed))
        };
        let inn = match self.overlay.directed {
            true => len(false)?,
            false => 0,
        };
        Ok(len(true)? + inn)
    }
}

impl<B: AdjacencyAccess> AdjacencyAccess for Composed<'_, B> {
    type Error = B::Error;

    fn node_count(&self) -> usize {
        self.overlay.node_count()
    }

    fn edge_count(&self) -> usize {
        self.overlay.edge_count(self.base)
    }

    fn is_directed(&self) -> bool {
        self.overlay.directed
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        self.list(v, true, f)
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        self.list(v, false, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        // 0 - 1 - 2 plus isolated-ish node 3 via edge 2-3.
        Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 3)])
    }

    fn out(o: &DeltaOverlay, g: &Graph, v: NodeId) -> Vec<NodeId> {
        let Ok(list) = o.compose(g).with_out_neighbors(v, <[NodeId]>::to_vec);
        list
    }

    fn inn(o: &DeltaOverlay, g: &Graph, v: NodeId) -> Vec<NodeId> {
        let Ok(list) = o.compose(g).with_in_neighbors(v, <[NodeId]>::to_vec);
        list
    }

    /// Total degree, as `Graph::degree` counts it.
    fn degree(o: &DeltaOverlay, g: &Graph, v: NodeId) -> usize {
        out(o, g, v).len()
            + if o.is_directed() {
                inn(o, g, v).len()
            } else {
                0
            }
    }

    #[test]
    fn empty_overlay_mirrors_base() {
        let g = path3();
        let o = DeltaOverlay::new(&g);
        assert!(o.is_empty());
        assert_eq!(o.node_count(), 4);
        assert_eq!(o.edge_count(&g), 3);
        assert!(o.has_edge(&g, 0, 1) && o.has_edge(&g, 1, 0));
        assert!(!o.has_edge(&g, 0, 2));
        assert_eq!(out(&o, &g, 1), vec![0, 2]);
        assert_eq!(o.materialize(&g), g);
    }

    #[test]
    fn add_and_remove_edges_compose() {
        let g = path3();
        let mut o = DeltaOverlay::new(&g);
        o.add_edge(&g, 0, 2).unwrap();
        o.remove_edge(&g, 1, 2).unwrap();
        assert_eq!(o.edge_count(&g), 3);
        assert!(o.has_edge(&g, 2, 0)); // symmetric view of the addition
        assert!(!o.has_edge(&g, 2, 1));
        assert_eq!(out(&o, &g, 2), vec![0, 3]);
        assert_eq!(degree(&o, &g, 1), 1);
        let m = o.materialize(&g);
        assert_eq!(m, Graph::from_edges(false, [(0u32, 1u32), (0, 2), (2, 3)]));
    }

    #[test]
    fn add_then_remove_cancels() {
        let g = path3();
        let mut o = DeltaOverlay::new(&g);
        o.add_edge(&g, 0, 3).unwrap();
        o.remove_edge(&g, 0, 3).unwrap();
        o.remove_edge(&g, 0, 1).unwrap();
        o.add_edge(&g, 0, 1).unwrap();
        assert!(o.is_empty());
        assert_eq!(o.materialize(&g), g);
    }

    #[test]
    fn added_vertices_take_edges() {
        let g = path3();
        let mut o = DeltaOverlay::new(&g);
        let v = o.add_vertex();
        assert_eq!(v, 4);
        o.add_edge(&g, v, 0).unwrap();
        assert_eq!(degree(&o, &g, v), 1);
        assert_eq!(out(&o, &g, v), vec![0]);
        assert_eq!(out(&o, &g, 0), vec![1, 4]);
        let m = o.materialize(&g);
        assert_eq!(m.node_count(), 5);
        assert!(m.has_edge(0, 4));
    }

    #[test]
    fn isolated_added_vertex_survives_materialize() {
        let g = path3();
        let mut o = DeltaOverlay::new(&g);
        o.add_vertex();
        let m = o.materialize(&g);
        assert_eq!(m.node_count(), 5);
        assert_eq!(m.degree(4), 0);
    }

    #[test]
    fn validation_rejects_bad_mutations() {
        let g = path3();
        let mut o = DeltaOverlay::new(&g);
        assert_eq!(o.add_edge(&g, 1, 1), Err(MutationError::SelfLoop { node: 1 }));
        assert_eq!(
            o.add_edge(&g, 0, 9),
            Err(MutationError::NodeOutOfRange { node: 9, node_count: 4 })
        );
        assert_eq!(o.add_edge(&g, 1, 0), Err(MutationError::EdgeExists { u: 1, v: 0 }));
        assert_eq!(o.remove_edge(&g, 0, 2), Err(MutationError::EdgeMissing { u: 0, v: 2 }));
        assert!(o.is_empty(), "rejected mutations must not record anything");
    }

    #[test]
    fn directed_overlay_tracks_orientations() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2)]);
        let mut o = DeltaOverlay::new(&g);
        o.add_edge(&g, 2, 0).unwrap();
        assert!(o.has_edge(&g, 2, 0));
        assert!(!o.has_edge(&g, 0, 2));
        assert_eq!(out(&o, &g, 2).len(), 1);
        assert_eq!(inn(&o, &g, 2).len(), 1);
        assert_eq!(degree(&o, &g, 2), 2);
        assert_eq!(inn(&o, &g, 0), vec![2]);
        o.remove_edge(&g, 0, 1).unwrap();
        assert!(!o.has_edge(&g, 0, 1));
        assert_eq!(o.edge_count(&g), 2);
        let m = o.materialize(&g);
        assert_eq!(m, Graph::from_edges(true, [(1u32, 2u32), (2, 0)]));
    }
}
