//! Community scoring functions.
//!
//! This crate implements §V of *"Are Circles Communities?"*: scoring
//! functions `f(C)` that characterise how community-like a vertex set `C`
//! is within its embedding graph. The paper selects four functions — one
//! per category of the Yang–Leskovec taxonomy — and this crate provides the
//! complete 13-function suite:
//!
//! | Category | Functions |
//! |---|---|
//! | Internal connectivity | Internal Density, Edges Inside, **Average Degree**, FOMD, TPR |
//! | External connectivity | Expansion, **Ratio Cut** (cut ratio) |
//! | Combined | **Conductance**, Normalized Cut, Max-ODF, Avg-ODF, Flake-ODF |
//! | Network model | **Modularity** |
//!
//! (Bold: the four the paper evaluates.)
//!
//! # Usage
//!
//! ```
//! use circlekit_graph::{Graph, VertexSet};
//! use circlekit_scoring::{Scorer, ScoringFunction};
//!
//! // A 4-clique loosely attached to a path.
//! let g = Graph::from_edges(false, [
//!     (0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), // clique
//!     (3, 4), (4, 5), (5, 6),                               // tail
//! ]);
//! let clique: VertexSet = (0u32..4).collect();
//!
//! let mut scorer = Scorer::new(&g);
//! let avg_deg = scorer.score(ScoringFunction::AverageDegree, &clique);
//! let conductance = scorer.score(ScoringFunction::Conductance, &clique);
//! assert_eq!(avg_deg, 3.0);              // 2 * 6 / 4
//! assert!(conductance < 0.1);            // 1 boundary edge vs 12 internal half-edges
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "fault-inject")]
pub mod fault;
mod functions;
mod goodness;
mod paged;
mod parallel;
mod robust;
mod scorer;
mod set_stats;

pub use functions::{Category, ScoringFunction};
pub use goodness::{goodness, Goodness};
pub use paged::PagedScorer;
pub use parallel::{default_threads, parse_thread_count, ParallelScorer};
pub use robust::{BatchReport, ChunkError, RobustBatch, SetFailure};
pub use scorer::{ScoreTable, Scorer};
pub use set_stats::{
    degree_counts, median_degree, median_of_degree_counts, total_degree, MemberTally, SetStats,
};
