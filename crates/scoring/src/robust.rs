//! Panic-isolated, cancellable batch scoring.
//!
//! The plain [`ParallelScorer`] methods poison the whole batch if one
//! worker panics and run to completion no matter how long that takes.
//! The `*_robust` variants here wrap each chunk in
//! [`std::panic::catch_unwind`], retry a panicking chunk once serially
//! (set by set, so a single poisoned set cannot sink its chunk-mates),
//! observe a [`RunControl`] at every per-set checkpoint, and give back a
//! structured [`BatchReport`] naming exactly which sets failed and why.
//!
//! On a clean, uninterrupted run the robust path visits sets in the same
//! order with the same arithmetic as the plain path, so its output is
//! bit-identical to the sequential [`crate::Scorer`] — the determinism
//! contract `tests/fault_injection.rs` leans on.

use crate::{ParallelScorer, ScoreTable, ScoringFunction, SetStats};
use circlekit_graph::{AdjacencyAccess, GraphError, Interrupted, RunControl, VertexSet};
use parking_lot::Mutex;
use std::convert::Infallible;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Record of one chunk whose worker panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkError {
    /// Index of the chunk within the batch partition.
    pub chunk: usize,
    /// Batch index of the chunk's first set.
    pub first_set: usize,
    /// Number of sets the chunk covered.
    pub set_count: usize,
    /// Panic payload message of the original failure.
    pub message: String,
    /// Whether the serial retry scored every set of the chunk.
    pub recovered: bool,
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chunk {} (sets {}..{}) panicked: {}{}",
            self.chunk,
            self.first_set,
            self.first_set + self.set_count,
            self.message,
            if self.recovered { " (recovered on serial retry)" } else { "" }
        )
    }
}

/// A set that could not be scored even on the serial retry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetFailure {
    /// Batch index of the failed set.
    pub set: usize,
    /// Why it failed: a validation error or a panic payload.
    pub message: String,
}

impl fmt::Display for SetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "set {}: {}", self.set, self.message)
    }
}

/// Structured outcome of one robust batch run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchReport {
    /// Sets in the input batch.
    pub total_sets: usize,
    /// Sets that produced a score row.
    pub scored_sets: usize,
    /// Chunks whose worker panicked (recovered or not).
    pub chunk_errors: Vec<ChunkError>,
    /// Sets with no score row for a reason other than interruption.
    pub failures: Vec<SetFailure>,
    /// Why the run stopped early, if it did.
    pub interrupted: Option<Interrupted>,
}

impl BatchReport {
    /// Whether every set was scored and the run was not interrupted.
    pub fn is_complete(&self) -> bool {
        self.scored_sets == self.total_sets && self.interrupted.is_none()
    }

    /// Whether the run completed without any panic, failure, or
    /// interruption — the case where the output is bit-identical to the
    /// plain sequential scorer.
    pub fn is_clean(&self) -> bool {
        self.is_complete() && self.chunk_errors.is_empty() && self.failures.is_empty()
    }
}

impl fmt::Display for BatchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let recovered = self.chunk_errors.iter().filter(|c| c.recovered).count();
        write!(
            f,
            "batch: {}/{} sets scored, {} chunk panics ({} recovered), {} set failures",
            self.scored_sets,
            self.total_sets,
            self.chunk_errors.len(),
            recovered,
            self.failures.len()
        )?;
        if let Some(why) = self.interrupted {
            write!(f, ", stopped early: {why}")?;
        }
        for c in &self.chunk_errors {
            write!(f, "\n  {c}")?;
        }
        for s in &self.failures {
            write!(f, "\n  failed {s}")?;
        }
        Ok(())
    }
}

/// Partial score table of a robust run: one row per input set, `None`
/// where the set was not scored (failed or interrupted).
#[derive(Clone, Debug, PartialEq)]
pub struct RobustBatch {
    /// Per-set score rows, in input order.
    pub rows: Vec<Option<Vec<f64>>>,
    /// What happened during the run.
    pub report: BatchReport,
}

impl RobustBatch {
    /// Assembles a complete [`ScoreTable`] — `None` if any set is missing
    /// its row, in which case the partial `rows` remain available.
    pub fn into_table(self, functions: &[ScoringFunction]) -> Option<ScoreTable> {
        let rows: Option<Vec<Vec<f64>>> = self.rows.into_iter().collect();
        Some(ScoreTable::from_parts(functions.to_vec(), rows?))
    }
}

/// What one worker produced for its chunk.
enum ChunkOutcome<T> {
    /// Every set visited; per-set validation failures inline.
    Done(Vec<Result<T, String>>),
    /// Interrupted after scoring a prefix of the chunk.
    Stopped(Vec<Result<T, String>>, Interrupted),
    /// The worker panicked; the payload message.
    Panicked(String),
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

impl<A: AdjacencyAccess<Error = Infallible> + Sync> ParallelScorer<'_, A> {
    /// Scores one set after validating its members against the graph.
    ///
    /// `index` is the set's batch index, which the fault-injection hook
    /// keys on.
    fn eval_checked<T, F>(&self, index: usize, set: &VertexSet, eval: &F) -> Result<T, String>
    where
        F: Fn(&SetStats) -> T,
    {
        let node_count = self.graph().node_count();
        if set.as_slice().last().is_some_and(|&max| (max as usize) >= node_count) {
            let node = set
                .iter()
                .find(|&v| (v as usize) >= node_count)
                .expect("max member is out of range");
            return Err(GraphError::NodeOutOfRange { node, node_count }.to_string());
        }
        #[cfg(feature = "fault-inject")]
        crate::fault::maybe_panic(index);
        #[cfg(not(feature = "fault-inject"))]
        let _ = index;
        Ok(eval(&SetStats::compute(self.graph(), set, self.median_degree())))
    }

    /// Robust analogue of the internal parallel map: panic-isolating,
    /// cancellable, and per-set validating.
    fn map_stats_robust<T, F>(
        &self,
        sets: &[VertexSet],
        eval: F,
        control: &RunControl,
        stage: &str,
    ) -> (Vec<Option<T>>, BatchReport)
    where
        T: Send,
        F: Fn(&SetStats) -> T + Sync,
    {
        let mut report = BatchReport { total_sets: sets.len(), ..Default::default() };
        if sets.is_empty() {
            return (Vec::new(), report);
        }
        let chunk_size = sets.len().div_ceil(self.threads()).max(1);
        let chunk_count = sets.len().div_ceil(chunk_size);
        let slots: Mutex<Vec<Option<ChunkOutcome<T>>>> =
            Mutex::new((0..chunk_count).map(|_| None).collect());
        let done = std::sync::atomic::AtomicUsize::new(0);
        let (slots_ref, done_ref, eval_ref) = (&slots, &done, &eval);
        crossbeam::scope(|scope| {
            for (chunk_index, chunk) in sets.chunks(chunk_size).enumerate() {
                let first_set = chunk_index * chunk_size;
                scope.spawn(move |_| {
                    let outcome = match catch_unwind(AssertUnwindSafe(|| {
                        let mut out = Vec::with_capacity(chunk.len());
                        for (offset, set) in chunk.iter().enumerate() {
                            if let Err(why) = control.check() {
                                return ChunkOutcome::Stopped(out, why);
                            }
                            out.push(self.eval_checked(first_set + offset, set, eval_ref));
                        }
                        ChunkOutcome::Done(out)
                    })) {
                        Ok(outcome) => outcome,
                        Err(payload) => ChunkOutcome::Panicked(panic_message(payload.as_ref())),
                    };
                    slots_ref.lock()[chunk_index] = Some(outcome);
                    let finished = done_ref.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
                    control.report(stage, finished, chunk_count);
                });
            }
        })
        .expect("robust scoring workers never propagate panics");

        let mut rows: Vec<Option<T>> = (0..sets.len()).map(|_| None).collect();
        for (chunk_index, slot) in slots.into_inner().into_iter().enumerate() {
            let first_set = chunk_index * chunk_size;
            let chunk = &sets[first_set..(first_set + chunk_size).min(sets.len())];
            let place = |rows: &mut Vec<Option<T>>,
                         report: &mut BatchReport,
                         results: Vec<Result<T, String>>| {
                for (offset, result) in results.into_iter().enumerate() {
                    match result {
                        Ok(v) => rows[first_set + offset] = Some(v),
                        Err(message) => {
                            report.failures.push(SetFailure { set: first_set + offset, message })
                        }
                    }
                }
            };
            match slot.expect("every chunk produced an outcome") {
                ChunkOutcome::Done(results) => place(&mut rows, &mut report, results),
                ChunkOutcome::Stopped(results, why) => {
                    place(&mut rows, &mut report, results);
                    report.interrupted.get_or_insert(why);
                }
                ChunkOutcome::Panicked(message) => {
                    // Serial per-set retry: a single poisoned set must not
                    // sink its chunk-mates.
                    let mut recovered = true;
                    for (offset, set) in chunk.iter().enumerate() {
                        let index = first_set + offset;
                        if let Err(why) = control.check() {
                            report.interrupted.get_or_insert(why);
                            recovered = false;
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| {
                            self.eval_checked(index, set, eval_ref)
                        })) {
                            Ok(Ok(v)) => rows[index] = Some(v),
                            Ok(Err(message)) => {
                                report.failures.push(SetFailure { set: index, message });
                                recovered = false;
                            }
                            Err(payload) => {
                                report.failures.push(SetFailure {
                                    set: index,
                                    message: panic_message(payload.as_ref()),
                                });
                                recovered = false;
                            }
                        }
                    }
                    report.chunk_errors.push(ChunkError {
                        chunk: chunk_index,
                        first_set,
                        set_count: chunk.len(),
                        message,
                        recovered,
                    });
                }
            }
        }
        report.scored_sets = rows.iter().filter(|r| r.is_some()).count();
        report.chunk_errors.sort_by_key(|c| c.chunk);
        report.failures.sort_by_key(|f| f.set);
        (rows, report)
    }

    /// Robust analogue of [`ParallelScorer::score_sets`]: panic-isolated,
    /// cancellable via `control`, with out-of-range members rejected
    /// per set instead of panicking the batch.
    pub fn score_sets_robust(
        &self,
        function: ScoringFunction,
        sets: &[VertexSet],
        control: &RunControl,
    ) -> (Vec<Option<f64>>, BatchReport) {
        self.map_stats_robust(sets, |stats| function.score(stats), control, "score_sets")
    }

    /// Robust analogue of [`ParallelScorer::score_table`]. On a clean run
    /// ([`BatchReport::is_clean`]), `RobustBatch::into_table` yields a
    /// table bit-identical to the plain sequential scorer's.
    pub fn score_table_robust(
        &self,
        functions: &[ScoringFunction],
        sets: &[VertexSet],
        control: &RunControl,
    ) -> RobustBatch {
        let (rows, report) = self.map_stats_robust(
            sets,
            |stats| functions.iter().map(|f| f.score(stats)).collect::<Vec<f64>>(),
            control,
            "score_table",
        );
        RobustBatch { rows, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scorer;
    use circlekit_graph::Graph;

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
    fn clean_run_matches_plain_scorer_bit_for_bit() {
        let g = fixture();
        let sets = batch();
        let mut serial = Scorer::new(&g);
        let expected = serial.score_table(&ScoringFunction::ALL, &sets);
        for threads in [1usize, 2, 5] {
            let scorer = ParallelScorer::with_threads(&g, threads);
            let robust =
                scorer.score_table_robust(&ScoringFunction::ALL, &sets, &RunControl::new());
            assert!(robust.report.is_clean(), "{}", robust.report);
            let table = robust.into_table(&ScoringFunction::ALL).unwrap();
            assert_eq!(expected, table, "threads={threads}");
        }
    }

    #[test]
    fn out_of_range_set_fails_alone_not_the_batch() {
        let g = fixture(); // 6 nodes
        let sets = vec![
            (0u32..3).collect::<VertexSet>(),
            VertexSet::from_vec(vec![2, 99]),
            (3u32..6).collect::<VertexSet>(),
        ];
        let scorer = ParallelScorer::with_threads(&g, 2);
        let (rows, report) =
            scorer.score_sets_robust(ScoringFunction::EdgesInside, &sets, &RunControl::new());
        assert_eq!(rows[0], Some(3.0));
        assert_eq!(rows[1], None);
        assert_eq!(rows[2], Some(3.0));
        assert_eq!(report.scored_sets, 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].set, 1);
        assert!(report.failures[0].message.contains("node 99 out of range"));
        assert!(report.chunk_errors.is_empty()); // validation, not a panic
        assert!(!report.is_complete());
        assert!(report.interrupted.is_none());
    }

    #[test]
    fn cancelled_run_returns_partial_rows_and_says_why() {
        let g = fixture();
        let sets = batch();
        let scorer = ParallelScorer::with_threads(&g, 2);
        let control = RunControl::new();
        control.cancel_flag().cancel(); // cancelled before the run starts
        let robust = scorer.score_table_robust(&ScoringFunction::PAPER, &sets, &control);
        assert_eq!(robust.report.interrupted, Some(Interrupted::Cancelled));
        assert_eq!(robust.report.scored_sets, 0);
        assert!(robust.rows.iter().all(|r| r.is_none()));
        assert!(robust.into_table(&ScoringFunction::PAPER).is_none());
    }

    #[test]
    fn elapsed_deadline_stops_the_batch() {
        let g = fixture();
        let sets = batch();
        let scorer = ParallelScorer::with_threads(&g, 3);
        let control = RunControl::new().with_deadline(std::time::Duration::ZERO);
        let (rows, report) =
            scorer.score_sets_robust(ScoringFunction::Conductance, &sets, &control);
        assert_eq!(report.interrupted, Some(Interrupted::DeadlineExceeded));
        assert!(rows.iter().all(|r| r.is_none()));
        assert!(!report.is_complete());
    }

    #[test]
    fn progress_reports_cover_every_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let g = fixture();
        let sets = batch();
        let seen = Arc::new(AtomicUsize::new(0));
        let sink = Arc::clone(&seen);
        let control =
            RunControl::new().with_progress(move |_| { sink.fetch_add(1, Ordering::SeqCst); });
        let scorer = ParallelScorer::with_threads(&g, 3);
        let robust = scorer.score_table_robust(&ScoringFunction::PAPER, &sets, &control);
        assert!(robust.report.is_clean());
        assert_eq!(seen.load(Ordering::SeqCst), 3); // one report per chunk
    }

    #[test]
    fn empty_batch_is_clean_and_empty() {
        let g = fixture();
        let scorer = ParallelScorer::with_threads(&g, 4);
        let robust = scorer.score_table_robust(&ScoringFunction::ALL, &[], &RunControl::new());
        assert!(robust.rows.is_empty());
        assert!(robust.report.is_clean());
        assert_eq!(robust.into_table(&ScoringFunction::ALL).unwrap().set_count(), 0);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panic_is_caught_retried_and_bit_identical() {
        let g = fixture();
        let sets = batch();
        let mut serial = Scorer::new(&g);
        let expected = serial.score_table(&ScoringFunction::ALL, &sets);
        let scorer = ParallelScorer::with_threads(&g, 2);

        // One-shot fault: the chunk panics, the serial retry succeeds, and
        // the final table is bit-identical to the clean run.
        crate::fault::arm_set_panic(1, false);
        let robust = scorer.score_table_robust(&ScoringFunction::ALL, &sets, &RunControl::new());
        crate::fault::disarm();
        assert_eq!(robust.report.chunk_errors.len(), 1, "{}", robust.report);
        assert!(robust.report.chunk_errors[0].recovered);
        assert!(robust.report.failures.is_empty());
        assert_eq!(robust.into_table(&ScoringFunction::ALL).unwrap(), expected);

        // Sticky fault: the set is surfaced as a failure, its chunk-mates
        // still score, the process never aborts.
        crate::fault::arm_set_panic(1, true);
        let robust = scorer.score_table_robust(&ScoringFunction::ALL, &sets, &RunControl::new());
        crate::fault::disarm();
        assert_eq!(robust.report.failures.len(), 1);
        assert_eq!(robust.report.failures[0].set, 1);
        assert!(robust.rows[1].is_none());
        assert_eq!(robust.report.scored_sets, sets.len() - 1);
        assert_eq!(robust.rows[0].as_deref(), Some(expected.row(0)));
    }

    #[test]
    fn report_display_names_failures() {
        let report = BatchReport {
            total_sets: 4,
            scored_sets: 3,
            chunk_errors: vec![ChunkError {
                chunk: 1,
                first_set: 2,
                set_count: 2,
                message: "boom".into(),
                recovered: true,
            }],
            failures: vec![SetFailure { set: 3, message: "bad id".into() }],
            interrupted: Some(Interrupted::Cancelled),
        };
        let text = report.to_string();
        assert!(text.contains("3/4 sets scored"), "{text}");
        assert!(text.contains("1 chunk panics (1 recovered)"), "{text}");
        assert!(text.contains("chunk 1 (sets 2..4) panicked: boom"), "{text}");
        assert!(text.contains("failed set 3: bad id"), "{text}");
        assert!(text.contains("stopped early: run cancelled"), "{text}");
    }
}
