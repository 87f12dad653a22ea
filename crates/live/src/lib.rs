//! Live mutation layer over CKS1 snapshots.
//!
//! The rest of the workspace treats a graph as frozen: text or snapshot
//! in, scores out. Circles, though, are owner-curated and evolve — a
//! production service cannot re-ingest a snapshot for every added edge
//! or membership change. This crate makes a loaded snapshot *mutable*
//! without giving up any of the store's guarantees:
//!
//! * [`DeltaOverlay`] layers add/remove-edge and add-vertex deltas over
//!   the read-only CSR arrays without copying them; queries merge the
//!   base adjacency slices with small sorted delta sets.
//! * [`LiveSnapshot`] additionally owns the group memberships and keeps
//!   per-group sufficient statistics (set size, internal and boundary
//!   edges, degree sums, global edge count) in lock-step with every
//!   mutation — O(deg(v)) per membership change, O(groups) per edge —
//!   so the paper's four scores (Average Degree, Ratio Cut, Conductance,
//!   Modularity) are recomputed in O(1) and **bit-identical** to a
//!   from-scratch rescore of the materialized graph.
//! * Every committed batch is first appended to a CKW1 write-ahead log
//!   (CRC-framed little-endian records, one fsync per batch; layout in
//!   `wal.rs` and DESIGN.md §12). A SIGKILL at any byte boundary
//!   replays to the exact last-committed state; [`LiveSnapshot::compact`]
//!   folds the log back into a CKS1 snapshot via atomic tmp + rename.
//!
//! ```
//! use circlekit_graph::{Graph, VertexSet};
//! use circlekit_live::{LiveSnapshot, Mutation};
//!
//! let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 3)]);
//! let circles = vec![VertexSet::from_vec(vec![0, 1, 2])];
//! let mut live = LiveSnapshot::in_memory(g, circles);
//!
//! let before = live.paper_scores(0).unwrap();
//! live.apply(&[Mutation::AddEdge { u: 0, v: 2 }]).expect("in-memory apply");
//! let after = live.paper_scores(0).unwrap();
//! assert_ne!(before[0].1, after[0].1); // average degree moved
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod live;
mod mutation;
mod overlay;
mod wal;

pub use error::{LiveError, MutationError};
pub use live::{wal_path_for, ApplyOutcome, CrashPoint, LiveSnapshot};
pub use mutation::Mutation;
pub use overlay::{Composed, DeltaOverlay};
