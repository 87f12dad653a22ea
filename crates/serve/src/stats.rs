//! Service counters, exposed through the `stats` op and returned by
//! [`crate::Server::join`] for post-run reporting (the `loadgen` harness
//! records them next to its latency percentiles).

use crate::cache::CacheStats;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counters shared by every server thread.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames parsed into requests (well- or ill-formed).
    pub requests: AtomicU64,
    /// `ok:true` responses written.
    pub ok_responses: AtomicU64,
    /// `ok:false` responses written.
    pub error_responses: AtomicU64,
    /// Requests refused because the queue was full.
    pub overloaded: AtomicU64,
    /// Requests refused because their deadline had expired.
    pub deadline_expired: AtomicU64,
    /// Micro-batches executed by the workers.
    pub batches: AtomicU64,
    /// Scoring jobs carried by those batches.
    pub batched_jobs: AtomicU64,
    /// Largest single batch observed.
    pub max_batch: AtomicU64,
    /// Vertex sets actually scored (batch jobs + baseline samples).
    pub scored_sets: AtomicU64,
    /// Deepest the queue has ever been (raised at enqueue time).
    pub queue_depth_max: AtomicU64,
    /// Mutations applied by committed `apply_mutations` batches.
    pub mutations_applied: AtomicU64,
    /// `apply_mutations` batches that stopped at a rejected mutation.
    pub mutations_rejected: AtomicU64,
    /// WAL compactions performed via the `compact` op.
    pub compactions: AtomicU64,
    /// Replication batches shipped to subscribers (primary side).
    pub repl_batches_sent: AtomicU64,
    /// Raw WAL bytes shipped inside those batches (primary side).
    pub repl_bytes_sent: AtomicU64,
    /// Replication batches applied from a primary (replica side).
    pub repl_batches_applied: AtomicU64,
    /// Times the replica tailer (re)connected to its primary.
    pub repl_connects: AtomicU64,
    /// `shard_stats` partials served (shard side of scatter-gather).
    pub shard_partials: AtomicU64,
    /// Connections negotiated to the CKP1 binary protocol.
    pub binary_connections: AtomicU64,
    /// Most requests one connection has had undelivered at once.
    pub pipelined_peak: AtomicU64,
    /// Requests answered `internal` because their handler panicked.
    pub panics: AtomicU64,
}

impl ServeStats {
    /// Adds `1` to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-water-mark counter to at least `n`.
    pub fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Captures the counters together with the cache's and the queue's
    /// instantaneous state.
    pub fn snapshot(&self, cache: CacheStats, queue_depth: usize) -> StatsSnapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            connections: read(&self.connections),
            requests: read(&self.requests),
            ok_responses: read(&self.ok_responses),
            error_responses: read(&self.error_responses),
            overloaded: read(&self.overloaded),
            deadline_expired: read(&self.deadline_expired),
            batches: read(&self.batches),
            batched_jobs: read(&self.batched_jobs),
            max_batch: read(&self.max_batch),
            scored_sets: read(&self.scored_sets),
            queue_depth_max: read(&self.queue_depth_max),
            mutations_applied: read(&self.mutations_applied),
            mutations_rejected: read(&self.mutations_rejected),
            compactions: read(&self.compactions),
            repl_batches_sent: read(&self.repl_batches_sent),
            repl_bytes_sent: read(&self.repl_bytes_sent),
            repl_batches_applied: read(&self.repl_batches_applied),
            repl_connects: read(&self.repl_connects),
            shard_partials: read(&self.shard_partials),
            binary_connections: read(&self.binary_connections),
            pipelined_peak: read(&self.pipelined_peak),
            panics: read(&self.panics),
            cache,
            queue_depth,
        }
    }
}

/// A point-in-time copy of every counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Frames parsed into requests.
    pub requests: u64,
    /// `ok:true` responses written.
    pub ok_responses: u64,
    /// `ok:false` responses written.
    pub error_responses: u64,
    /// Requests refused with `overloaded`.
    pub overloaded: u64,
    /// Requests refused with `deadline-exceeded`.
    pub deadline_expired: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Scoring jobs carried by those batches.
    pub batched_jobs: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Vertex sets scored.
    pub scored_sets: u64,
    /// Deepest the queue has ever been.
    pub queue_depth_max: u64,
    /// Mutations applied via `apply_mutations`.
    pub mutations_applied: u64,
    /// `apply_mutations` batches stopped by a rejection.
    pub mutations_rejected: u64,
    /// WAL compactions performed.
    pub compactions: u64,
    /// Replication batches shipped (primary side).
    pub repl_batches_sent: u64,
    /// Raw WAL bytes shipped (primary side).
    pub repl_bytes_sent: u64,
    /// Replication batches applied (replica side).
    pub repl_batches_applied: u64,
    /// Replica tailer (re)connects.
    pub repl_connects: u64,
    /// `shard_stats` partials served.
    pub shard_partials: u64,
    /// Connections negotiated to the CKP1 binary protocol.
    pub binary_connections: u64,
    /// Most requests one connection has had undelivered at once.
    pub pipelined_peak: u64,
    /// Requests answered `internal` because their handler panicked.
    pub panics: u64,
    /// Cache counters at snapshot time.
    pub cache: CacheStats,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
}

impl StatsSnapshot {
    /// Renders the snapshot as the `stats` response's field list.
    pub fn to_fields(&self) -> Vec<(String, Value)> {
        let u = |n: u64| Value::UInt(n);
        vec![
            ("connections".to_string(), u(self.connections)),
            ("requests".to_string(), u(self.requests)),
            ("ok_responses".to_string(), u(self.ok_responses)),
            ("error_responses".to_string(), u(self.error_responses)),
            ("overloaded".to_string(), u(self.overloaded)),
            ("deadline_expired".to_string(), u(self.deadline_expired)),
            ("batches".to_string(), u(self.batches)),
            ("batched_jobs".to_string(), u(self.batched_jobs)),
            ("max_batch".to_string(), u(self.max_batch)),
            ("scored_sets".to_string(), u(self.scored_sets)),
            ("mutations_applied".to_string(), u(self.mutations_applied)),
            ("mutations_rejected".to_string(), u(self.mutations_rejected)),
            ("compactions".to_string(), u(self.compactions)),
            ("repl_batches_sent".to_string(), u(self.repl_batches_sent)),
            ("repl_bytes_sent".to_string(), u(self.repl_bytes_sent)),
            ("repl_batches_applied".to_string(), u(self.repl_batches_applied)),
            ("repl_connects".to_string(), u(self.repl_connects)),
            ("shard_partials".to_string(), u(self.shard_partials)),
            ("binary_connections".to_string(), u(self.binary_connections)),
            ("pipelined_peak".to_string(), u(self.pipelined_peak)),
            ("panics".to_string(), u(self.panics)),
            ("cache_hits".to_string(), u(self.cache.hits)),
            ("cache_misses".to_string(), u(self.cache.misses)),
            ("cache_hit_ratio".to_string(), Value::Float(self.cache.hit_ratio())),
            ("cache_evictions".to_string(), u(self.cache.evictions)),
            ("cache_invalidations".to_string(), u(self.cache.invalidations)),
            ("cache_entries".to_string(), u(self.cache.entries as u64)),
            ("queue_depth".to_string(), u(self.queue_depth as u64)),
            ("queue_depth_max".to_string(), u(self.queue_depth_max)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = ServeStats::default();
        ServeStats::bump(&stats.requests);
        ServeStats::add(&stats.batched_jobs, 5);
        ServeStats::raise(&stats.max_batch, 3);
        ServeStats::raise(&stats.max_batch, 2);
        ServeStats::raise(&stats.queue_depth_max, 9);
        ServeStats::add(&stats.mutations_applied, 4);
        let snap = stats.snapshot(CacheStats::default(), 7);
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.batched_jobs, 5);
        assert_eq!(snap.max_batch, 3);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.queue_depth_max, 9);
        assert_eq!(snap.mutations_applied, 4);
        let fields = snap.to_fields();
        assert!(fields.iter().any(|(k, v)| k == "max_batch" && *v == Value::UInt(3)));
        assert!(fields.iter().any(|(k, _)| k == "cache_hits"));
        assert!(fields.iter().any(|(k, v)| k == "queue_depth_max" && *v == Value::UInt(9)));
        assert!(fields.iter().any(|(k, _)| k == "cache_invalidations"));
    }

    #[test]
    fn hit_ratio_is_rendered_as_a_float() {
        let cache = CacheStats { hits: 3, misses: 1, ..CacheStats::default() };
        let snap = ServeStats::default().snapshot(cache, 0);
        let fields = snap.to_fields();
        let ratio = fields.iter().find(|(k, _)| k == "cache_hit_ratio").unwrap();
        assert_eq!(ratio.1, Value::Float(0.75));
        // No lookups yet ⇒ ratio 0.0, not NaN.
        let empty = ServeStats::default().snapshot(CacheStats::default(), 0);
        let fields = empty.to_fields();
        let ratio = fields.iter().find(|(k, _)| k == "cache_hit_ratio").unwrap();
        assert_eq!(ratio.1, Value::Float(0.0));
    }
}
