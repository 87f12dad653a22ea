//! `circlekit-serve`: a concurrent scoring service over shared snapshots.
//!
//! The offline pipeline (`pack` → `score`) re-loads and re-prepares a
//! graph for every invocation. This crate keeps CKS1 snapshots resident —
//! loaded once through the zero-copy path and shared read-only across a
//! worker pool — and answers scoring queries over a small TCP protocol:
//!
//! * **Framing** ([`protocol`]): 4-byte big-endian length + UTF-8 JSON,
//!   with typed error kinds and a hard frame-size ceiling.
//! * **Backpressure** ([`queue`]): a bounded queue between the request
//!   dispatchers and the scoring workers; saturation is answered
//!   synchronously with an `overloaded` response instead of unbounded
//!   buffering.
//! * **Micro-batching** ([`server`]): queued same-snapshot scoring jobs
//!   are coalesced and evaluated in one [`ParallelScorer`] pass.
//! * **Caching** ([`cache`]): an LRU keyed by (snapshot, function, set
//!   digest) replays deterministic scores bit-exactly.
//! * **Live mutations** ([`server`]): `apply_mutations` commits
//!   WAL-backed graph deltas through the same bounded queue, publishing
//!   the snapshot's next version and invalidating the cached scores it
//!   touched; `watch_scores` reads the paper's four scores
//!   O(1) from the incrementally maintained aggregates; `compact` folds
//!   the WAL back into the CKS1 file. Adjacent `.ckw` logs are replayed
//!   at startup, so a crash between batches loses nothing.
//! * **Deadlines**: per-request `deadline_ms` rides the workspace's
//!   `RunControl`; expired work is refused, not half-done.
//! * **Determinism**: served scores are bit-identical to the offline
//!   `score` CLI (same median-degree precomputation, lossless `f64` JSON
//!   round-trip), and `baseline` uses seeded per-walk RNG streams.
//! * **Graceful shutdown** ([`signal`]): SIGINT, SIGTERM, or the
//!   `shutdown` op drains queued work before the process exits.
//! * **Replication** ([`replication`]): a primary streams committed WAL
//!   frames to read replicas over the same wire protocol; replicas apply
//!   them through the identical [`circlekit_live::LiveSnapshot`] path,
//!   so replica scores are byte-identical at every acknowledged offset.
//!   Writes on a replica are refused with a typed `not-primary` error.
//! * **Failover** ([`failover`]): a multi-endpoint client that health-
//!   probes, retries with jittered exponential backoff, and fails reads
//!   over to replicas while writes fail fast without a primary.
//! * **Sharding** ([`coordinator`]): a stateless coordinator scatter-
//!   gathers raw partial statistics (`shard_stats`) from a fleet of
//!   vertex-partitioned shard processes and reduces them to the exact
//!   global `SetStats`, answering the ordinary scoring ops bit-
//!   identically to a single-node server; a shard that cannot answer
//!   turns the request into a typed `shard-unavailable` refusal, never
//!   a silently partial score.
//!
//! [`ParallelScorer`]: circlekit_scoring::ParallelScorer

#![warn(missing_docs)]

pub mod binary;
pub mod cache;
pub mod client;
pub mod coordinator;
pub(crate) mod event_loop;
pub mod failover;
pub mod protocol;
pub mod queue;
pub mod registry;
pub mod replication;
pub mod server;
pub mod signal;
pub mod stats;
pub mod suggest;

pub use cache::{CacheKey, CacheStats, ScoreCache};
pub use circlekit_live::Mutation;
pub use client::{Client, ClientError, ClientOptions};
pub use coordinator::{CoordinatorConfig, DEFAULT_SHARD_DEADLINE_MS};
pub use failover::{FailoverClient, FailoverOptions};
pub use protocol::{
    error_payload, from_hex, ok_payload, read_frame, read_frame_patiently, set_digest, to_hex,
    write_frame, ErrorKind, FrameError, Request, RequestError, DEFAULT_BASELINE_SAMPLES,
    MAX_FRAME_LEN,
};
pub use queue::{BoundedQueue, PushError};
pub use registry::{LoadedSnapshot, SnapshotRegistry};
pub use replication::{FaultPlan, ReplCrashPoint};
pub use server::{ServeConfig, Server, ShutdownHandle};
pub use stats::{ServeStats, StatsSnapshot};
pub use suggest::{SuggestCache, SuggestKey};
