//! Parallel batch scoring: [`ParallelScorer`] fans vertex-set batches out
//! over scoped worker threads.
//!
//! [`SetStats`] computation is independent per set and the graph is only
//! read, so a batch can be partitioned into contiguous chunks and each
//! chunk evaluated on its own thread. Results are written into a
//! per-chunk slot and stitched back together in input order, making the
//! output *bit-identical* to the sequential [`Scorer`] path for any
//! thread count — the property `tests/parallel_equivalence.rs` pins down.
//!
//! ```
//! use circlekit_graph::{Graph, VertexSet};
//! use circlekit_scoring::{ParallelScorer, Scorer, ScoringFunction};
//!
//! let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
//! let sets: Vec<VertexSet> = vec![(0u32..3).collect(), (2u32..4).collect()];
//! let parallel = ParallelScorer::with_threads(&g, 2);
//! let serial = Scorer::new(&g).score_sets(ScoringFunction::Conductance, &sets);
//! assert_eq!(parallel.score_sets(ScoringFunction::Conductance, &sets), serial);
//! ```

use crate::{median_degree, ScoreTable, ScoringFunction, SetStats};
use circlekit_graph::{AdjacencyAccess, Graph, VertexSet};
use parking_lot::Mutex;
use std::convert::Infallible;

/// Number of worker threads to use when none is requested: the machine's
/// available parallelism (1 if that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `--threads` command-line value: every front end (`score`,
/// `reproduce`, `serve`, …) accepts the same grammar and produces the
/// same diagnostics.
///
/// # Errors
///
/// A user-facing message for non-numeric input and for `0` (a scorer
/// cannot run with zero workers).
pub fn parse_thread_count(value: &str) -> Result<usize, String> {
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| format!("--threads expects a positive integer, got {value:?}"))?;
    if n == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    Ok(n)
}

/// Scores vertex-set batches against a fixed graph on a pool of scoped
/// worker threads.
///
/// The batch is split into `threads` contiguous chunks (the last possibly
/// shorter); chunk boundaries depend only on the batch length and the
/// thread count, so the partition — and therefore the output — is
/// deterministic. A batch that forms a single chunk (always, at one
/// thread) is evaluated on the calling thread without spawning. Scores
/// are pure functions of per-set statistics, so the result equals the
/// sequential [`Scorer`] output exactly, not just approximately.
///
/// The graph is any infallible [`AdjacencyAccess`] backing — an
/// in-memory [`Graph`] by default, or a mapped snapshot with a live
/// overlay composed over it — and equal lists score to equal bits.
///
/// [`Scorer`]: crate::Scorer
#[derive(Debug)]
pub struct ParallelScorer<'g, A = Graph> {
    graph: &'g A,
    median_degree: f64,
    threads: usize,
}

impl<'g, A: AdjacencyAccess<Error = Infallible> + Sync> ParallelScorer<'g, A> {
    /// Creates a parallel scorer using [`default_threads`] workers.
    pub fn new(graph: &'g A) -> ParallelScorer<'g, A> {
        ParallelScorer::with_threads(graph, default_threads())
    }

    /// Creates a parallel scorer with an explicit worker count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(graph: &'g A, threads: usize) -> ParallelScorer<'g, A> {
        ParallelScorer::with_graph_median(graph, median_degree(graph), threads)
    }

    /// Reuses an already-computed graph median instead of recomputing it.
    ///
    /// The median must be the value [`Scorer::median_degree`] /
    /// [`ParallelScorer::median_degree`] would report for `graph`;
    /// long-lived services precompute it once at snapshot-load time so
    /// every request scores with exactly the offline scorer's inputs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    ///
    /// [`Scorer::median_degree`]: crate::Scorer::median_degree
    pub fn with_graph_median(
        graph: &'g A,
        median_degree: f64,
        threads: usize,
    ) -> ParallelScorer<'g, A> {
        assert!(threads > 0, "need at least one thread");
        ParallelScorer {
            graph,
            median_degree,
            threads,
        }
    }

    /// The graph this scorer evaluates against.
    pub fn graph(&self) -> &'g A {
        self.graph
    }

    /// The graph-wide median total degree (FOMD's threshold).
    pub fn median_degree(&self) -> f64 {
        self.median_degree
    }

    /// The worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps every set through `SetStats::compute` + `eval`, fanning chunks
    /// out over the workers and reassembling results in input order.
    fn map_stats<T, F>(&self, sets: &[VertexSet], eval: F) -> Vec<T>
    where
        T: Send,
        F: Fn(SetStats) -> T + Sync,
    {
        if sets.is_empty() {
            return Vec::new();
        }
        let graph = self.graph;
        let median = self.median_degree;
        let chunk_size = sets.len().div_ceil(self.threads).max(1);
        let chunk_count = sets.len().div_ceil(chunk_size);
        if chunk_count == 1 {
            // One chunk needs no worker: evaluate it on this thread.
            return sets
                .iter()
                .map(|set| eval(SetStats::compute(graph, set, median)))
                .collect();
        }
        // One slot per chunk: workers finish in arbitrary order, the slot
        // index restores input order.
        let slots: Mutex<Vec<Option<Vec<T>>>> =
            Mutex::new((0..chunk_count).map(|_| None).collect());
        let eval = &eval;
        let slots_ref = &slots;
        crossbeam::scope(|scope| {
            for (index, chunk) in sets.chunks(chunk_size).enumerate() {
                scope.spawn(move |_| {
                    let out: Vec<T> = chunk
                        .iter()
                        .map(|set| eval(SetStats::compute(graph, set, median)))
                        .collect();
                    slots_ref.lock()[index] = Some(out);
                });
            }
        })
        .expect("scoring worker panicked");
        slots
            .into_inner()
            .into_iter()
            .flat_map(|slot| slot.expect("every chunk was evaluated"))
            .collect()
    }

    /// Computes the full [`SetStats`] of every set, in input order.
    ///
    /// # Panics
    ///
    /// Panics if a set contains an id `>= graph.node_count()`.
    pub fn stats_batch(&self, sets: &[VertexSet]) -> Vec<SetStats> {
        self.map_stats(sets, |stats| stats)
    }

    /// Evaluates one function over many sets, returning scores in input
    /// order — one column of the paper's Figures 5–6.
    pub fn score_sets(&self, function: ScoringFunction, sets: &[VertexSet]) -> Vec<f64> {
        self.map_stats(sets, |stats| function.score(&stats))
    }

    /// Evaluates many functions over many sets in one pass per set.
    pub fn score_table(&self, functions: &[ScoringFunction], sets: &[VertexSet]) -> ScoreTable {
        let rows = self.map_stats(sets, |stats| {
            functions.iter().map(|f| f.score(&stats)).collect::<Vec<f64>>()
        });
        ScoreTable::from_parts(functions.to_vec(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scorer;

    fn fixture() -> Graph {
        Graph::from_edges(
            false,
            [(0u32, 1u32), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        )
    }

    fn batch() -> Vec<VertexSet> {
        vec![
            (0u32..3).collect(),
            (3u32..6).collect(),
            VertexSet::from_vec(vec![1, 2, 3]),
            VertexSet::from_vec(vec![0, 5]),
            VertexSet::new(),
            (0u32..6).collect(),
        ]
    }

    #[test]
    fn matches_serial_for_every_function_and_thread_count() {
        let g = fixture();
        let sets = batch();
        let mut serial = Scorer::new(&g);
        for threads in [1usize, 2, 3, 5, 16] {
            let parallel = ParallelScorer::with_threads(&g, threads);
            for f in ScoringFunction::ALL {
                let expected = serial.score_sets(f, &sets);
                let got = parallel.score_sets(f, &sets);
                // Bit-identical, so exact comparison is intended.
                assert_eq!(expected, got, "{f} at {threads} threads");
            }
        }
    }

    #[test]
    fn table_matches_serial() {
        let g = fixture();
        let sets = batch();
        let mut serial = Scorer::new(&g);
        let expected = serial.score_table(&ScoringFunction::ALL, &sets);
        let parallel = ParallelScorer::with_threads(&g, 4);
        assert_eq!(expected, parallel.score_table(&ScoringFunction::ALL, &sets));
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let g = fixture();
        let parallel = ParallelScorer::with_threads(&g, 3);
        assert!(parallel.score_sets(ScoringFunction::Conductance, &[]).is_empty());
        assert_eq!(parallel.score_table(&ScoringFunction::PAPER, &[]).set_count(), 0);
        assert!(parallel.stats_batch(&[]).is_empty());
    }

    #[test]
    fn more_threads_than_sets_is_fine() {
        let g = fixture();
        let sets = vec![(0u32..3).collect::<VertexSet>()];
        let parallel = ParallelScorer::with_threads(&g, 64);
        assert_eq!(parallel.score_sets(ScoringFunction::EdgesInside, &sets), vec![3.0]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let g = fixture();
        ParallelScorer::with_threads(&g, 0);
    }

    #[test]
    fn default_constructor_uses_available_parallelism() {
        let g = fixture();
        let parallel = ParallelScorer::new(&g);
        assert!(parallel.threads() >= 1);
        assert_eq!(parallel.threads(), default_threads());
        assert!(parallel.median_degree() > 0.0);
        assert_eq!(parallel.graph().node_count(), 6);
    }
}
