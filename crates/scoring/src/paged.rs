//! [`PagedScorer`]: scoring over graphs too large to materialise.
//!
//! [`Scorer`](crate::Scorer) wants a fully decoded [`Graph`] in memory.
//! For a paper-scale snapshot (10⁷–10⁸ arcs) that is exactly what we
//! cannot afford — but the scoring statistics only ever *iterate member
//! adjacency*, so any [`AdjacencyAccess`] backing suffices: in
//! particular a compressed, memory-mapped snapshot view that decodes one
//! vertex's list at a time into a scratch buffer, letting the OS page
//! sections of the file in and out as they are touched.
//!
//! The statistics are produced by the same
//! [`MemberTally`](crate::MemberTally) pass the in-memory scorer and the
//! shard partials run (through [`SetStats::compute_access`]), so the
//! scores are bit-identical to the materialised path over equal
//! adjacency — the equivalence the store's tests and the `store_scale`
//! bench assert end-to-end. The pass intersects sorted lists, so a
//! backing must serve each list in ascending order, as
//! [`AdjacencyAccess`] promises.

use crate::{degree_counts, median_of_degree_counts, ScoreTable, ScoringFunction, SetStats};
use circlekit_graph::{AdjacencyAccess, VertexSet};

/// Scores vertex sets against any [`AdjacencyAccess`] backing,
/// amortising the graph-level median-degree pass, and surfacing the
/// backing's errors (e.g. decode failures on a corrupt snapshot) instead
/// of panicking.
#[derive(Debug)]
pub struct PagedScorer<'a, A> {
    access: &'a A,
    median_degree: f64,
}

impl<'a, A: AdjacencyAccess> PagedScorer<'a, A> {
    /// Creates a scorer over `access`, streaming one full degree pass to
    /// compute the median total degree (FOMD's graph-level input).
    ///
    /// # Errors
    ///
    /// Whatever the backing reports while iterating adjacency.
    pub fn new(access: &'a A) -> Result<PagedScorer<'a, A>, A::Error> {
        let median_degree = median_of_degree_counts(&degree_counts(access)?);
        Ok(PagedScorer { access, median_degree })
    }

    /// Creates a scorer with a precomputed median degree (e.g. reused
    /// across scorers over the same snapshot).
    pub fn with_median_degree(access: &'a A, median_degree: f64) -> PagedScorer<'a, A> {
        PagedScorer { access, median_degree }
    }

    /// The graph-wide median total degree (FOMD's threshold).
    pub fn median_degree(&self) -> f64 {
        self.median_degree
    }

    /// Computes the full [`SetStats`] for one set.
    ///
    /// # Errors
    ///
    /// Whatever the backing reports while iterating adjacency.
    pub fn stats(&self, set: &VertexSet) -> Result<SetStats, A::Error> {
        SetStats::compute_access(self.access, set, self.median_degree)
    }

    /// Evaluates one scoring function on one set.
    ///
    /// # Errors
    ///
    /// As [`PagedScorer::stats`].
    pub fn score(&self, function: ScoringFunction, set: &VertexSet) -> Result<f64, A::Error> {
        Ok(function.score(&self.stats(set)?))
    }

    /// Evaluates many functions over many sets in one stats pass per
    /// set — the paged counterpart of
    /// [`Scorer::score_table`](crate::Scorer::score_table), producing an
    /// identical table over equal adjacency.
    ///
    /// # Errors
    ///
    /// As [`PagedScorer::stats`]; the first failing set aborts the
    /// table.
    pub fn score_table(
        &self,
        functions: &[ScoringFunction],
        sets: &[VertexSet],
    ) -> Result<ScoreTable, A::Error> {
        let mut rows = Vec::with_capacity(sets.len());
        for set in sets {
            let stats = self.stats(set)?;
            rows.push(functions.iter().map(|f| f.score(&stats)).collect());
        }
        Ok(ScoreTable::from_parts(functions.to_vec(), rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scorer;
    use circlekit_graph::Graph;

    #[test]
    fn paged_over_graph_matches_scorer_exactly() {
        let g = Graph::from_edges(
            false,
            [(0u32, 1u32), (0, 2), (1, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
        );
        let sets: Vec<VertexSet> = vec![
            (0u32..3).collect(),
            (3u32..6).collect(),
            VertexSet::from_vec(vec![1, 2, 3]),
            VertexSet::new(),
        ];
        let mut scorer = Scorer::new(&g);
        let paged = PagedScorer::new(&g).unwrap();
        assert_eq!(paged.median_degree(), scorer.median_degree());
        let expected = scorer.score_table(&ScoringFunction::ALL, &sets);
        let actual = paged.score_table(&ScoringFunction::ALL, &sets).unwrap();
        assert_eq!(expected, actual);
        for set in &sets {
            assert_eq!(scorer.stats(set), paged.stats(set).unwrap());
        }
    }

    #[test]
    fn directed_stats_agree_too() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (4, 1)]);
        let set: VertexSet = (0u32..3).collect();
        let mut scorer = Scorer::new(&g);
        let paged = PagedScorer::new(&g).unwrap();
        assert_eq!(scorer.stats(&set), paged.stats(&set).unwrap());
    }
}
