//! [`AdjacencyAccess`]: neighbour iteration abstracted over the backing
//! representation.
//!
//! [`Graph`] hands out borrowed `&[NodeId]` adjacency slices, but a
//! compressed on-disk snapshot cannot — its lists must be decoded into a
//! scratch buffer first, and decoding can fail on corrupt bytes. This
//! trait expresses the common denominator: *visit the neighbour list of
//! one vertex*, as a slice, through a callback, fallibly. Scoring code
//! written against it (see `circlekit-scoring`'s paged scorer) runs
//! bit-identically over an in-memory CSR and an mmap-paged compressed
//! snapshot, because both feed it the exact same integer sequences.
//!
//! For [`Graph`] the associated error is [`Infallible`] and the callback
//! receives the CSR slice directly — zero overhead beyond the call.

use crate::graph::Graph;
use crate::NodeId;
use std::convert::Infallible;
use std::sync::Arc;

/// Read access to a graph's adjacency structure, independent of how the
/// graph is stored.
///
/// The callback style (`with_*` instead of returning a slice) is what
/// makes compressed backings possible: a decoder can fill an internal
/// scratch buffer, pass it to `f`, and reuse the buffer for the next
/// call. Implementations must present each list **sorted ascending and
/// duplicate-free**, exactly as [`Graph`] stores it, so that code
/// iterating through this trait observes the same sequences regardless
/// of backing.
pub trait AdjacencyAccess {
    /// How neighbour access can fail ([`Infallible`] for in-memory
    /// graphs; a decode/corruption error for on-disk backings).
    type Error;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// `m`: arcs for directed graphs, undirected edges otherwise (the
    /// same convention as [`Graph::edge_count`]).
    fn edge_count(&self) -> usize;

    /// Whether the graph is directed.
    fn is_directed(&self) -> bool;

    /// Calls `f` with the sorted out-neighbour list of `v`.
    ///
    /// # Errors
    ///
    /// Implementation-defined; [`Infallible`] for [`Graph`].
    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error>;

    /// Calls `f` with the sorted in-neighbour list of `v` (for
    /// undirected graphs, the same list as the out-neighbours).
    ///
    /// # Errors
    ///
    /// Implementation-defined; [`Infallible`] for [`Graph`].
    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error>;

    /// The length of `v`'s out-list. A backing that knows it without
    /// building the list overrides this.
    ///
    /// # Errors
    ///
    /// As [`AdjacencyAccess::with_out_neighbors`].
    fn out_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        self.with_out_neighbors(v, <[NodeId]>::len)
    }

    /// The length of `v`'s in-list (for undirected graphs, of its
    /// out-list). A backing that knows it without building the list
    /// overrides this.
    ///
    /// # Errors
    ///
    /// As [`AdjacencyAccess::with_in_neighbors`].
    fn in_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        self.with_in_neighbors(v, <[NodeId]>::len)
    }
}

impl AdjacencyAccess for Graph {
    type Error = Infallible;

    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }

    fn is_directed(&self) -> bool {
        Graph::is_directed(self)
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        Ok(f(self.out_neighbors(v)))
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        Ok(f(self.in_neighbors(v)))
    }
}

/// A shared graph reads as the graph it shares, so a `&Arc<Graph>`
/// passes wherever a generic backing is taken, as it passed for `&Graph`.
impl<T: AdjacencyAccess> AdjacencyAccess for Arc<T> {
    type Error = T::Error;

    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    fn edge_count(&self) -> usize {
        (**self).edge_count()
    }

    fn is_directed(&self) -> bool {
        (**self).is_directed()
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        (**self).with_out_neighbors(v, f)
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        (**self).with_in_neighbors(v, f)
    }

    fn out_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        (**self).out_degree(v)
    }

    fn in_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        (**self).in_degree(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unwrap<T>(r: Result<T, Infallible>) -> T {
        match r {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    #[test]
    fn graph_impl_mirrors_direct_accessors() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (0, 2)]);
        assert_eq!(AdjacencyAccess::node_count(&g), g.node_count());
        assert_eq!(AdjacencyAccess::edge_count(&g), g.edge_count());
        assert!(AdjacencyAccess::is_directed(&g));
        for v in 0..g.node_count() as NodeId {
            let out = unwrap(g.with_out_neighbors(v, <[NodeId]>::to_vec));
            assert_eq!(out.as_slice(), g.out_neighbors(v));
            let inn = unwrap(g.with_in_neighbors(v, <[NodeId]>::to_vec));
            assert_eq!(inn.as_slice(), g.in_neighbors(v));
            assert_eq!(unwrap(AdjacencyAccess::out_degree(&g, v)), out.len());
            assert_eq!(unwrap(AdjacencyAccess::in_degree(&g, v)), inn.len());
            let shared = Arc::new(g.clone());
            assert_eq!(unwrap(AdjacencyAccess::out_degree(&shared, v)), out.len());
            assert_eq!(unwrap(AdjacencyAccess::in_degree(&shared, v)), inn.len());
        }
    }

    #[test]
    fn undirected_in_equals_out() {
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2)]);
        for v in 0..3 {
            let out = unwrap(g.with_out_neighbors(v, <[NodeId]>::to_vec));
            let inn = unwrap(g.with_in_neighbors(v, <[NodeId]>::to_vec));
            assert_eq!(out, inn);
        }
    }
}
