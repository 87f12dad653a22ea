//! Compact social-graph substrate for the `circlekit` workspace.
//!
//! This crate provides the graph representation used by every other crate in
//! the reproduction of *"Are Circles Communities?"* (Brauer & Schmidt,
//! ICDCS 2014): a compressed-sparse-row ([`Graph`]) structure supporting both
//! the **directed** social graphs of Google+/Twitter and the **undirected**
//! graphs of LiveJournal/Orkut, plus the [`VertexSet`] type used to represent
//! circles, communities, and sampled vertex sets.
//!
//! # Quick start
//!
//! ```
//! use circlekit_graph::{GraphBuilder, VertexSet};
//!
//! // A small directed graph: 0 -> 1 -> 2, 2 -> 0.
//! let mut b = GraphBuilder::directed();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//!
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert!(g.has_edge(0, 1));
//! assert!(!g.has_edge(1, 0));
//!
//! let circle: VertexSet = [0u32, 1].into_iter().collect();
//! assert_eq!(circle.len(), 2);
//! assert!(circle.contains(1));
//! ```
//!
//! # Design notes
//!
//! * Node identifiers are dense `u32` indices in `0..node_count()`.
//! * Adjacency lists are sorted, enabling `O(log d)` [`Graph::has_edge`] and
//!   linear-time sorted-list intersection for triangle counting.
//! * For directed graphs both out- and in-adjacency are materialised; an
//!   undirected graph stores each edge in both endpoint lists.
//! * Parallel edges are collapsed and self-loops dropped at build time (both
//!   configurable on [`GraphBuilder`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod builder;
mod components;
mod control;
mod convert;
mod csr;
mod error;
mod graph;
mod groups_io;
mod ingest;
mod io;
mod raw;
mod scc;
mod serde_impl;
mod traversal;
mod vertex_set;

pub use access::AdjacencyAccess;
pub use builder::GraphBuilder;
pub use components::{connected_components, largest_component, ComponentLabels};
pub use control::{CancelFlag, Interrupted, RunControl, RunProgress};
pub use convert::Subgraph;
pub use error::{GraphError, ParseEdgeListError, ParseEdgeListReason};
pub use graph::{Direction, Edges, Graph, Neighbors};
pub use groups_io::{
    parse_groups, parse_groups_lenient, parse_groups_with_policy, validate_groups, write_groups,
};
pub use ingest::{IngestPolicy, IngestReport, LineIssue};
pub use io::{
    parse_edge_line, parse_edge_list, parse_edge_list_lenient, parse_edge_list_with_policy,
    read_edge_list, read_edge_list_lenient, write_edge_list,
};
pub use raw::validate_csr_parts;
pub use scc::{strongly_connected_components, SccLabels};
pub use traversal::{bfs_distances, bfs_reachable, eccentricity, UNREACHABLE};
pub use vertex_set::VertexSet;

/// Dense node identifier: an index in `0..Graph::node_count()`.
pub type NodeId = u32;
