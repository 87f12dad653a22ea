//! The daemon: the epoll front end, its dispatcher pool, and the
//! scoring worker pool, glued together by the bounded job queue.
//!
//! ## Threading model
//!
//! * One **event-loop** thread ([`crate::event_loop`]) owns the listener
//!   and every connection. It reads and parses frames, answers
//!   `shutdown` and framing defects itself, and hands every other
//!   request to the dispatcher pool. It observes shutdown (from the
//!   `shutdown` op, [`ShutdownHandle::trigger`], or a watched SIGINT /
//!   SIGTERM flag) within one poll interval.
//! * `max(8, 4 × workers)` **dispatchers** run [`handle_request`]: cheap
//!   ops (`health`, `stats`, listings, cache hits) are answered inline,
//!   scoring work is pushed onto the bounded queue — refused with a
//!   typed `overloaded` response the instant the queue is full — and the
//!   dispatcher encodes the response frame for its connection's wire
//!   mode before handing it back to the loop.
//! * `workers` **scoring workers** pop jobs in micro-batches
//!   ([`BoundedQueue::pop_batch`] coalesces same-snapshot scoring jobs up
//!   to `batch_max`) and evaluate each batch with one
//!   [`ParallelScorer`] pass, so concurrent clients share the fan-out
//!   machinery instead of competing for it.
//!
//! ## Reads and writes
//!
//! Reads score the snapshot's current immutable registry entry and take
//! no lock on the live state. Writes serialize on that lock and publish
//! the next entry before they are acknowledged.
//!
//! ## Shutdown
//!
//! Triggering shutdown is cooperative and drains: the event loop stops
//! accepting and reading, requests already received are still answered,
//! queued jobs are still executed, then the workers exit.
//! [`Server::join`] sequences those steps and returns the final counter
//! snapshot.

use crate::cache::{CacheKey, ScoreCache};
use crate::coordinator::{Coordinator, CoordinatorConfig};
use crate::protocol::{
    ok_value, set_digest, wire, ErrorKind, Request, RequestError, MAX_BASELINE_SAMPLES,
};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{LoadedSnapshot, SnapshotRegistry};
use crate::replication::{self, FaultPlan, ReplCrashPoint, ReplRegistry};
use crate::stats::{ServeStats, StatsSnapshot};
use crate::suggest::{SuggestCache, SuggestKey};
use circlekit_discover::{affected_egos, discover, DiscoverConfig, EgoView, Suggestion};
use circlekit_graph::{AdjacencyAccess, RunControl, VertexSet};
use circlekit_live::{wal_path_for, LiveSnapshot, Mutation};
use circlekit_sampling::size_matched_random_walk_sets_parallel_with_control;
use circlekit_scoring::{ParallelScorer, ScoringFunction};
use serde_json::Value;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked loops re-check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads inside each [`ParallelScorer`] batch.
    pub threads: usize,
    /// Scoring workers popping from the queue.
    pub workers: usize,
    /// Bounded queue capacity — the backpressure point.
    pub queue_capacity: usize,
    /// Maximum scoring jobs coalesced into one batch.
    pub batch_max: usize,
    /// LRU result-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Accept test-only ops (`debug_sleep`). Never enable in production.
    pub debug_ops: bool,
    /// Promote the process-wide termination flag (raised by SIGINT or
    /// SIGTERM, see [`crate::signal`]) to a graceful shutdown.
    pub watch_signals: bool,
    /// Run as a read replica of the primary at this address: refuse
    /// writes with `not-primary` and tail every file-backed snapshot's
    /// WAL from the primary (see [`crate::replication`]).
    pub replica_of: Option<String>,
    /// Deterministic chaos: exit(137) at this replication crash point
    /// (see [`ReplCrashPoint`] for which role each point fires on).
    pub repl_crash_point: Option<ReplCrashPoint>,
    /// Injected network faults; inert unless the `fault-inject` feature
    /// is compiled in.
    pub fault: FaultPlan,
    /// Run as a stateless scatter-gather coordinator over a set of shard
    /// processes instead of serving local snapshots (see
    /// [`crate::coordinator`]). Mutually exclusive with `replica_of`.
    pub coordinator: Option<CoordinatorConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: circlekit_scoring::default_threads(),
            workers: 1,
            queue_capacity: 1024,
            batch_max: 64,
            cache_capacity: 4096,
            debug_ops: false,
            watch_signals: false,
            replica_of: None,
            repl_crash_point: None,
            fault: FaultPlan::default(),
            coordinator: None,
        }
    }
}

/// What a worker hands back to the dispatcher that enqueued a job.
enum JobOutput {
    Scores(Vec<f64>),
    Baseline { set_scores: Vec<f64>, baseline_means: Vec<f64> },
    Applied {
        applied: usize,
        rejected: Option<(usize, String)>,
        version: u64,
        wal_records: u64,
        invalidated: u64,
    },
    Compacted { folded: u64 },
    Slept,
}

type JobReply = mpsc::Sender<Result<JobOutput, RequestError>>;

struct ScoreJob {
    snapshot: Arc<LoadedSnapshot>,
    set: VertexSet,
    functions: Vec<ScoringFunction>,
    digest: u64,
    control: RunControl,
    reply: JobReply,
}

enum Job {
    Score(ScoreJob),
    Baseline {
        snapshot: Arc<LoadedSnapshot>,
        set: VertexSet,
        functions: Vec<ScoringFunction>,
        samples: usize,
        seed: u64,
        control: RunControl,
        reply: JobReply,
    },
    Apply {
        snapshot_id: String,
        mutations: Vec<Mutation>,
        reply: JobReply,
    },
    Compact {
        snapshot_id: String,
        reply: JobReply,
    },
    Sleep {
        millis: u64,
        reply: JobReply,
    },
}

/// The mutable side of one snapshot: the authoritative [`LiveSnapshot`]
/// (overlay + aggregates + WAL, attached to the registry entry's base)
/// plus the version its committed batches have reached. Each commit is
/// [published](publish) to the registry before it is acknowledged.
pub(crate) struct LiveState {
    pub(crate) live: LiveSnapshot,
    pub(crate) version: u64,
}

pub(crate) struct Shared {
    pub(crate) registry: SnapshotRegistry,
    pub(crate) config: ServeConfig,
    queue: BoundedQueue<Job>,
    pub(crate) cache: Mutex<ScoreCache>,
    pub(crate) suggest: Mutex<SuggestCache>,
    pub(crate) live: Mutex<HashMap<String, LiveState>>,
    pub(crate) stats: ServeStats,
    pub(crate) repl: Mutex<ReplRegistry>,
    /// `Some` when this server is a scatter-gather coordinator.
    pub(crate) coord: Option<Coordinator>,
    shutdown: AtomicBool,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    pub(crate) fn stats_snapshot(&self) -> StatsSnapshot {
        let cache = self.cache.lock().expect("cache lock").stats();
        self.stats.snapshot(cache, self.queue.len())
    }
}

/// Clonable handle that requests a graceful drain-then-exit.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests shutdown. Idempotent.
    pub fn trigger(&self) {
        self.shared.trigger_shutdown();
    }
}

/// A running scoring service.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    /// Threads serving replication subscriptions the loop handed off.
    subscriptions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    /// Replica tail threads (empty unless `replica_of` is set).
    tails: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// event-loop and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; rejects an empty registry.
    pub fn start<A: ToSocketAddrs>(
        registry: SnapshotRegistry,
        config: ServeConfig,
        addr: A,
    ) -> io::Result<Server> {
        if config.coordinator.is_some() && config.replica_of.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a coordinator cannot also be a replica (drop --replica-of or --coordinator)",
            ));
        }
        if registry.is_empty() && config.coordinator.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "refusing to serve an empty snapshot registry",
            ));
        }
        // Connecting to the shard fleet validates the topology (matching
        // parent CRCs, a complete index cover) before the listener binds:
        // a mis-assembled cluster is a startup refusal, never a serving
        // process that answers wrong.
        let coord = match &config.coordinator {
            Some(cc) => Some(
                Coordinator::connect(cc)
                    .map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))?,
            ),
            None => None,
        };
        let live = adopt_write_ahead_logs(&registry)?;
        let listener = TcpListener::bind(addr)?;
        // A deep accept backlog + SO_REUSEADDR: a 10k-connection burst
        // must queue in the kernel, not be refused.
        let _ = circlekit_net::tune_listener(&listener);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: Mutex::new(ScoreCache::new(config.cache_capacity)),
            suggest: Mutex::new(SuggestCache::new(config.cache_capacity)),
            live: Mutex::new(live),
            stats: ServeStats::default(),
            repl: Mutex::new(ReplRegistry::default()),
            coord,
            shutdown: AtomicBool::new(false),
            registry,
            config,
        });
        let subscriptions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let workers = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ck-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        let event_loop = {
            let shared = Arc::clone(&shared);
            let subscriptions = Arc::clone(&subscriptions);
            std::thread::Builder::new()
                .name("ck-serve-loop".to_string())
                .spawn(move || crate::event_loop::run(listener, &shared, &subscriptions))
                .expect("spawn event-loop thread")
        };
        let tails = match shared.config.replica_of.clone() {
            Some(primary) => replication::spawn_replica_tails(&shared, &primary),
            None => Vec::new(),
        };
        Ok(Server { shared, addr, event_loop, workers, subscriptions, tails })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that triggers graceful shutdown from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { shared: Arc::clone(&self.shared) }
    }

    /// Current counters (live; safe to call while serving).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Blocks until shutdown is triggered, drains, and returns the final
    /// counters: event-loop exit (its dispatchers drained) → replication
    /// subscriptions end → queued jobs executed → workers exit.
    pub fn join(self) -> StatsSnapshot {
        self.event_loop.join().expect("event-loop thread panicked");
        let handles =
            std::mem::take(&mut *self.subscriptions.lock().expect("subscription registry lock"));
        for handle in handles {
            handle.join().expect("replication subscription thread panicked");
        }
        self.shared.queue.close();
        for worker in self.workers {
            worker.join().expect("scoring worker panicked");
        }
        for tail in self.tails {
            tail.join().expect("replica tail thread panicked");
        }
        self.shared.stats_snapshot()
    }
}

/// Replays any CKW1 write-ahead log sitting next to a loaded snapshot
/// before the server accepts its first connection: the registry entry is
/// republished with every committed mutation (a crash between batches
/// therefore loses nothing), and the attached [`LiveSnapshot`] is kept so
/// later mutation ops continue the same log.
fn adopt_write_ahead_logs(
    registry: &SnapshotRegistry,
) -> io::Result<HashMap<String, LiveState>> {
    let mut live = HashMap::new();
    for snap in registry.snapshots() {
        if snap.path == "<memory>" || !wal_path_for(Path::new(&snap.path)).exists() {
            continue;
        }
        let state = attach(registry, &snap).map_err(|(_, message)| io::Error::other(message))?;
        live.insert(snap.id.clone(), state);
    }
    Ok(live)
}

/// Answers one request with its response envelope: the one tree that
/// both wire encoders render ([`crate::event_loop`]). `shutdown` and
/// `replicate` never arrive here; the loop handles them itself.
pub(crate) fn handle_request(request: Request, shared: &Arc<Shared>) -> Result<Value, RequestError> {
    // A coordinator answers (or refuses) almost every op itself — by
    // scatter-gathering the shard fleet — so clients speak to it exactly
    // as they would to a single-node server. The few ops it passes back
    // (`debug_sleep`) run on the local machinery below.
    if shared.coord.is_some() {
        if let Some(answer) = crate::coordinator::handle(shared, &request) {
            return answer;
        }
    }
    match request {
        Request::Health => Ok(ok_value(vec![
            ("status".to_string(), Value::Str("serving".to_string())),
            ("snapshots".to_string(), Value::UInt(shared.registry.len() as u64)),
        ])),
        Request::Stats => Ok(ok_value(shared.stats_snapshot().to_fields())),
        Request::ListSnapshots => {
            let snapshots: Vec<Value> = shared
                .registry
                .snapshots()
                .iter()
                .map(|s| {
                    let graph = s.graph();
                    Value::Map(vec![
                        ("id".to_string(), Value::Str(s.id.clone())),
                        ("path".to_string(), Value::Str(s.path.clone())),
                        ("nodes".to_string(), Value::UInt(graph.node_count() as u64)),
                        ("edges".to_string(), Value::UInt(graph.edge_count() as u64)),
                        ("directed".to_string(), Value::Bool(graph.is_directed())),
                        ("groups".to_string(), Value::UInt(s.groups.len() as u64)),
                        ("version".to_string(), Value::UInt(s.version)),
                    ])
                })
                .collect();
            Ok(ok_value(vec![("snapshots".to_string(), Value::Seq(snapshots))]))
        }
        Request::ListGroups { snapshot } => {
            let snap = resolve_snapshot(shared, &snapshot)?;
            let sizes: Vec<Value> =
                snap.groups.iter().map(|g| Value::UInt(g.len() as u64)).collect();
            Ok(ok_value(vec![
                ("snapshot".to_string(), Value::Str(snap.id.clone())),
                ("groups".to_string(), Value::UInt(sizes.len() as u64)),
                ("sizes".to_string(), Value::Seq(sizes)),
            ]))
        }
        Request::ScoreGroup { snapshot, group, functions, deadline_ms } => {
            let snap = resolve_snapshot(shared, &snapshot)?;
            let set = resolve_group(&snap, group)?;
            let mut fields = vec![("group".to_string(), Value::UInt(group as u64))];
            fields.extend(score_request(shared, &snap, set, &functions, deadline_ms)?);
            Ok(ok_value(with_op("score_group", &snap.id, fields)))
        }
        Request::ScoreSet { snapshot, members, functions, deadline_ms } => {
            let snap = resolve_snapshot(shared, &snapshot)?;
            let set = VertexSet::from_vec(members);
            let nodes = snap.graph().node_count();
            if let Some(&bad) = set.as_slice().iter().find(|&&m| m as usize >= nodes) {
                return Err((
                    ErrorKind::BadRequest,
                    format!(
                        "member {bad} is out of range for snapshot {:?} ({nodes} nodes)",
                        snap.id
                    ),
                ));
            }
            let fields = score_request(shared, &snap, set, &functions, deadline_ms)?;
            Ok(ok_value(with_op("score_set", &snap.id, fields)))
        }
        Request::Baseline { snapshot, group, functions, samples, seed, deadline_ms } => {
            let snap = resolve_snapshot(shared, &snapshot)?;
            let set = resolve_group(&snap, group)?;
            if samples == 0 || samples > MAX_BASELINE_SAMPLES {
                return Err((
                    ErrorKind::BadRequest,
                    format!("field \"samples\" must be between 1 and {MAX_BASELINE_SAMPLES}"),
                ));
            }
            let size = set.len();
            let control = control_for(deadline_ms);
            check_deadline(&control)?;
            let (reply, outcome) = mpsc::channel();
            enqueue(
                shared,
                Job::Baseline {
                    snapshot: Arc::clone(&snap),
                    set,
                    functions: functions.clone(),
                    samples,
                    seed,
                    control,
                    reply,
                },
            )?;
            match wait_for(&outcome)? {
                JobOutput::Baseline { set_scores, baseline_means } => {
                    let fields = vec![
                        ("group".to_string(), Value::UInt(group as u64)),
                        ("size".to_string(), Value::UInt(size as u64)),
                        ("samples".to_string(), Value::UInt(samples as u64)),
                        ("seed".to_string(), Value::UInt(seed)),
                        ("functions".to_string(), function_names(&functions)),
                        ("set_scores".to_string(), wire::score_array(&set_scores)),
                        ("baseline_means".to_string(), wire::score_array(&baseline_means)),
                    ];
                    Ok(ok_value(with_op("baseline", &snap.id, fields)))
                }
                _ => Err(internal("baseline job returned the wrong output kind")),
            }
        }
        Request::ApplyMutations { snapshot, mutations } => {
            refuse_writes_on_replica(shared)?;
            // Resolve first so unknown ids are `not-found`, not queued
            // work; the worker re-resolves the live state under its lock.
            let snap = resolve_snapshot(shared, &snapshot)?;
            refuse_writes_on_shard(&snap)?;
            let (reply, outcome) = mpsc::channel();
            enqueue(shared, Job::Apply { snapshot_id: snap.id.clone(), mutations, reply })?;
            match wait_for(&outcome)? {
                JobOutput::Applied { applied, rejected, version, wal_records, invalidated } => {
                    let rejected_value = match rejected {
                        None => Value::Null,
                        Some((index, message)) => Value::Map(vec![
                            ("index".to_string(), Value::UInt(index as u64)),
                            ("message".to_string(), Value::Str(message)),
                        ]),
                    };
                    let fields = vec![
                        ("applied".to_string(), Value::UInt(applied as u64)),
                        ("rejected".to_string(), rejected_value),
                        ("version".to_string(), Value::UInt(version)),
                        ("wal_records".to_string(), Value::UInt(wal_records)),
                        ("cache_invalidated".to_string(), Value::UInt(invalidated)),
                    ];
                    Ok(ok_value(with_op("apply_mutations", &snap.id, fields)))
                }
                _ => Err(internal("apply job returned the wrong output kind")),
            }
        }
        Request::Compact { snapshot } => {
            refuse_writes_on_replica(shared)?;
            let snap = resolve_snapshot(shared, &snapshot)?;
            refuse_writes_on_shard(&snap)?;
            if snap.path == "<memory>" {
                return Err((
                    ErrorKind::BadRequest,
                    format!("snapshot {:?} is in-memory and cannot be compacted", snap.id),
                ));
            }
            let (reply, outcome) = mpsc::channel();
            enqueue(shared, Job::Compact { snapshot_id: snap.id.clone(), reply })?;
            match wait_for(&outcome)? {
                JobOutput::Compacted { folded } => {
                    let fields = vec![
                        ("folded_records".to_string(), Value::UInt(folded)),
                        ("path".to_string(), Value::Str(snap.path.clone())),
                    ];
                    Ok(ok_value(with_op("compact", &snap.id, fields)))
                }
                _ => Err(internal("compact job returned the wrong output kind")),
            }
        }
        Request::WatchScores { snapshot, group } => {
            // O(1) from the maintained aggregates: answered inline, like
            // cache hits — no scoring job, no queue round-trip.
            let mut states = shared.live.lock().expect("live state lock");
            let state = live_state(&mut states, shared, &snapshot)?;
            let scores = state.live.paper_scores(group).ok_or_else(|| {
                (
                    ErrorKind::NotFound,
                    format!(
                        "snapshot {snapshot:?} has {} groups, no index {group}",
                        state.live.groups().len()
                    ),
                )
            })?;
            let size = state.live.groups()[group].len();
            let names: Vec<Value> =
                scores.iter().map(|(f, _)| Value::Str(f.name().to_string())).collect();
            let values: Vec<f64> = scores.iter().map(|&(_, s)| s).collect();
            let fields = vec![
                ("group".to_string(), Value::UInt(group as u64)),
                ("size".to_string(), Value::UInt(size as u64)),
                ("version".to_string(), Value::UInt(state.version)),
                ("functions".to_string(), Value::Seq(names)),
                ("scores".to_string(), wire::score_array(&values)),
            ];
            Ok(ok_value(with_op("watch_scores", &snapshot, fields)))
        }
        Request::SuggestCircles { snapshot, ego, seed, min_size, top } => {
            // Answered inline, like watch_scores: the ego view reads the
            // entry's composed adjacency directly, and hits replay whole
            // cached suggestions.
            run_suggest(shared, &snapshot, ego, seed, min_size, top)
        }
        Request::DebugSleep { millis } => {
            if !shared.config.debug_ops {
                return Err((
                    ErrorKind::BadRequest,
                    "debug ops are disabled on this server".to_string(),
                ));
            }
            let (reply, outcome) = mpsc::channel();
            enqueue(shared, Job::Sleep { millis, reply })?;
            wait_for(&outcome)?;
            Ok(ok_value(vec![("slept_ms".to_string(), Value::UInt(millis))]))
        }
        Request::ReplStatus => {
            let mut fields = vec![("op".to_string(), Value::Str("repl_status".to_string()))];
            fields.extend(replication::status_fields(shared));
            Ok(ok_value(fields))
        }
        Request::ShardStats { snapshot, group, members, deadline_ms } => {
            let snap = resolve_snapshot(shared, &snapshot)?;
            let Some(manifest) = snap.shard else {
                return Err((
                    ErrorKind::BadRequest,
                    format!(
                        "snapshot {:?} carries no shard manifest; pack it with --shard",
                        snap.id
                    ),
                ));
            };
            let control = control_for(deadline_ms);
            check_deadline(&control)?;
            let set = match (group, members) {
                (Some(group), None) => resolve_group(&snap, group)?,
                (None, Some(members)) => {
                    // Halo sub-snapshots keep the parent's full node-id
                    // space, so global member ids validate directly.
                    if let Some(&bad) = members.iter().find(|&&m| {
                        u64::from(m) >= manifest.parent_node_count
                    }) {
                        return Err((
                            ErrorKind::BadRequest,
                            format!(
                                "member {bad} is out of range for snapshot {:?} ({} nodes)",
                                snap.id, manifest.parent_node_count
                            ),
                        ));
                    }
                    VertexSet::from_vec(members)
                }
                // The parser enforces exactly-one-of.
                _ => return Err(internal("shard_stats parsed without a set")),
            };
            // Answered inline, like watch_scores: one single-set pass
            // over owned members, bounded by the halo's size — the
            // coordinator provides the fan-out, not the shard's queue.
            let partial = circlekit_shard::compute_partial(&snap.graph(), &manifest, &set);
            check_deadline(&control)?;
            ServeStats::bump(&shared.stats.shard_partials);
            let fields = vec![
                ("shard_count".to_string(), Value::UInt(u64::from(manifest.shard_count))),
                ("shard_index".to_string(), Value::UInt(u64::from(manifest.shard_index))),
                ("parent_crc32".to_string(), Value::UInt(u64::from(manifest.parent_crc32))),
                ("parent_nodes".to_string(), Value::UInt(manifest.parent_node_count)),
                ("parent_edges".to_string(), Value::UInt(manifest.parent_edge_count)),
                (
                    "parent_median_degree".to_string(),
                    wire::score_value(manifest.parent_median_degree),
                ),
                ("directed".to_string(), Value::Bool(snap.graph().is_directed())),
                ("version".to_string(), Value::UInt(snap.version)),
                ("set_len".to_string(), Value::UInt(set.len() as u64)),
                ("internal_arcs".to_string(), Value::UInt(partial.internal_arcs)),
                ("boundary".to_string(), Value::UInt(partial.boundary)),
                ("out_degree_sum".to_string(), Value::UInt(partial.out_degree_sum)),
                ("in_degree_sum".to_string(), Value::UInt(partial.in_degree_sum)),
                (
                    "above_median_internal".to_string(),
                    Value::UInt(partial.above_median_internal),
                ),
                ("flake_count".to_string(), Value::UInt(partial.flake_count)),
                (
                    "in_internal_triangle".to_string(),
                    Value::UInt(partial.in_internal_triangle),
                ),
                ("max_odf".to_string(), wire::score_value(partial.max_odf)),
                (
                    "odf_members".to_string(),
                    Value::Seq(
                        partial.odf_members.iter().map(|&v| Value::UInt(u64::from(v))).collect(),
                    ),
                ),
                ("odf_values".to_string(), wire::score_array(&partial.odf_values)),
            ];
            Ok(ok_value(with_op("shard_stats", &snap.id, fields)))
        }
        Request::ReplAck { .. } => Err((
            ErrorKind::BadRequest,
            "repl_ack is only valid inside a replication subscription".to_string(),
        )),
        // Handled by the event loop so it can hand the stream off.
        Request::Replicate { .. } => {
            Err(internal("replicate must be handled by the event loop"))
        }
        // Handled by the event loop so it can close afterwards.
        Request::Shutdown => Err(internal("shutdown must be handled by the event loop")),
    }
}

/// Serves one `suggest_circles` request.
///
/// The version and the ego view come from one immutable registry entry,
/// so the response is a consistent point-in-time answer. Discovery runs
/// without any lock; a racing commit bumps the version, so the late
/// insert can never be served (compare-on-get).
fn run_suggest(
    shared: &Arc<Shared>,
    snapshot: &str,
    ego: u32,
    seed: u64,
    min_size: usize,
    top: usize,
) -> Result<Value, RequestError> {
    let snap = resolve_snapshot(shared, snapshot)?;
    let graph = snap.graph();
    let n = graph.node_count();
    if (ego as usize) >= n {
        return Err((
            ErrorKind::NotFound,
            format!("snapshot {snapshot:?} has {n} vertices, no ego {ego}"),
        ));
    }
    let key = SuggestKey { snapshot: snapshot.to_string(), ego, seed, min_size, top };
    let hit = shared.suggest.lock().expect("suggest cache lock").get(&key, snap.version);
    if let Some(suggestion) = hit {
        return Ok(suggest_response(snapshot, snap.version, true, &suggestion));
    }
    let Ok(view) = EgoView::from_access(&graph, ego);
    let config = DiscoverConfig {
        seed,
        threads: shared.config.threads,
        min_size,
        max_size: 0,
        top,
    };
    let suggestion = Arc::new(discover(&view, &config));
    shared
        .suggest
        .lock()
        .expect("suggest cache lock")
        .insert(key, snap.version, Arc::clone(&suggestion));
    Ok(suggest_response(snapshot, snap.version, false, &suggestion))
}

/// Builds the `suggest_circles` response envelope. Scores go through
/// [`wire::score_value`], so they cross the wire bit-exactly and the CLI
/// can re-render the identical table.
fn suggest_response(snapshot: &str, version: u64, cached: bool, s: &Suggestion) -> Value {
    let candidates: Vec<Value> = s
        .candidates
        .iter()
        .map(|c| {
            Value::Map(vec![
                (
                    "members".to_string(),
                    Value::Seq(
                        c.members.as_slice().iter().map(|&v| Value::UInt(v as u64)).collect(),
                    ),
                ),
                ("conductance".to_string(), wire::score_value(c.conductance)),
                ("average_degree".to_string(), wire::score_value(c.average_degree)),
            ])
        })
        .collect();
    let fields = vec![
        ("ego".to_string(), Value::UInt(s.ego as u64)),
        ("seed".to_string(), Value::UInt(s.seed)),
        ("version".to_string(), Value::UInt(version)),
        ("cached".to_string(), Value::Bool(cached)),
        ("alters".to_string(), Value::UInt(s.alters as u64)),
        ("candidates".to_string(), Value::Seq(candidates)),
    ];
    ok_value(with_op("suggest_circles", snapshot, fields))
}

/// Shard sub-snapshots are bound to their parent by the manifest's CRC
/// and counts; mutating one would silently break the scatter-gather
/// exactness guarantee, so writes are refused with a typed error.
fn refuse_writes_on_shard(snap: &LoadedSnapshot) -> Result<(), RequestError> {
    match snap.shard {
        Some(manifest) => Err((
            ErrorKind::BadRequest,
            format!(
                "snapshot {:?} is shard {}/{} of an immutable partition; \
                 mutate the parent snapshot and re-pack",
                snap.id,
                manifest.shard_index,
                manifest.shard_count
            ),
        )),
        None => Ok(()),
    }
}

/// Replicas apply writes only through the replication stream; direct
/// writes are refused with a typed error so clients can fail over.
fn refuse_writes_on_replica(shared: &Shared) -> Result<(), RequestError> {
    match shared.config.replica_of {
        Some(ref primary) => Err((
            ErrorKind::NotPrimary,
            format!("this server is a read replica of {primary}; send writes to the primary"),
        )),
        None => Ok(()),
    }
}

/// The shared score path of `score_group` and `score_set`: cache probe,
/// then the queued/batched compute path on a miss.
fn score_request(
    shared: &Arc<Shared>,
    snap: &Arc<LoadedSnapshot>,
    set: VertexSet,
    functions: &[ScoringFunction],
    deadline_ms: Option<u64>,
) -> Result<Vec<(String, Value)>, RequestError> {
    let control = control_for(deadline_ms);
    check_deadline(&control)?;
    let size = set.len();
    let digest = set_digest(set.as_slice());
    if let Some(scores) = cache_probe(shared, snap, functions, digest) {
        return Ok(score_fields(size, functions, &scores, true));
    }
    let (reply, outcome) = mpsc::channel();
    enqueue(
        shared,
        Job::Score(ScoreJob {
            snapshot: Arc::clone(snap),
            set,
            functions: functions.to_vec(),
            digest,
            control,
            reply,
        }),
    )?;
    match wait_for(&outcome)? {
        JobOutput::Scores(scores) => Ok(score_fields(size, functions, &scores, false)),
        _ => Err(internal("score job returned the wrong output kind")),
    }
}

pub(crate) fn score_fields(
    size: usize,
    functions: &[ScoringFunction],
    scores: &[f64],
    cached: bool,
) -> Vec<(String, Value)> {
    vec![
        ("size".to_string(), Value::UInt(size as u64)),
        ("functions".to_string(), function_names(functions)),
        ("scores".to_string(), wire::score_array(scores)),
        ("cached".to_string(), Value::Bool(cached)),
    ]
}

pub(crate) fn with_op(op: &str, snapshot: &str, mut rest: Vec<(String, Value)>) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("op".to_string(), Value::Str(op.to_string())),
        ("snapshot".to_string(), Value::Str(snapshot.to_string())),
    ];
    fields.append(&mut rest);
    fields
}

fn function_names(functions: &[ScoringFunction]) -> Value {
    Value::Seq(functions.iter().map(|f| Value::Str(f.name().to_string())).collect())
}

fn resolve_snapshot(
    shared: &Shared,
    id: &str,
) -> Result<Arc<LoadedSnapshot>, RequestError> {
    shared
        .registry
        .get(id)
        .ok_or_else(|| (ErrorKind::NotFound, format!("unknown snapshot {id:?}")))
}

/// Fetches (or attaches, for snapshots never mutated before) the live
/// state of `id`. Callers hold the live-state map lock.
pub(crate) fn live_state<'a>(
    states: &'a mut HashMap<String, LiveState>,
    shared: &Shared,
    id: &str,
) -> Result<&'a mut LiveState, RequestError> {
    if !states.contains_key(id) {
        let snap = resolve_snapshot(shared, id)?;
        states.insert(id.to_string(), attach(&shared.registry, &snap)?);
    }
    Ok(states.get_mut(id).expect("present or just inserted"))
}

/// Opens `snap` for mutation over its resident base — the file is never
/// read again — replaying any write-ahead log beside it. Replayed
/// records are published as one new version.
fn attach(registry: &SnapshotRegistry, snap: &LoadedSnapshot) -> Result<LiveState, RequestError> {
    let base = Arc::clone(&snap.base);
    let live = if snap.path == "<memory>" {
        LiveSnapshot::over(base, snap.groups.clone())
    } else {
        LiveSnapshot::attach(&snap.path, base, snap.groups.clone())
            .map_err(|e| internal(&format!("cannot open {} for mutation: {e}", snap.path)))?
    };
    let state = LiveState {
        version: snap.version + live.replayed_records() as u64,
        live,
    };
    if state.version != snap.version {
        registry.replace(Arc::new(snap.successor(&state.live, state.version)));
    }
    Ok(state)
}

/// Publishes `state` as the registry entry of `id`: every request from
/// now on reads it. Callers hold the live-state map lock, which orders
/// publications.
pub(crate) fn publish(shared: &Shared, id: &str, state: &LiveState) {
    let current = shared.registry.get(id).expect("registry entries are never removed");
    shared.registry.replace(Arc::new(current.successor(&state.live, state.version)));
}

fn resolve_group(snap: &LoadedSnapshot, group: usize) -> Result<VertexSet, RequestError> {
    snap.groups.get(group).cloned().ok_or_else(|| {
        (
            ErrorKind::NotFound,
            format!(
                "snapshot {:?} has {} groups, no index {group}",
                snap.id,
                snap.groups.len()
            ),
        )
    })
}

fn control_for(deadline_ms: Option<u64>) -> RunControl {
    match deadline_ms {
        Some(ms) => RunControl::new().with_deadline(Duration::from_millis(ms)),
        None => RunControl::new(),
    }
}

fn check_deadline(control: &RunControl) -> Result<(), RequestError> {
    control
        .check()
        .map_err(|why| (ErrorKind::DeadlineExceeded, why.to_string()))
}

fn enqueue(shared: &Shared, job: Job) -> Result<(), RequestError> {
    shared.queue.try_push(job).map_err(|e| match e {
        PushError::Full => (
            ErrorKind::Overloaded,
            format!(
                "request queue is at capacity ({}); retry later",
                shared.queue.capacity()
            ),
        ),
        PushError::Closed => {
            (ErrorKind::ShuttingDown, "server is draining".to_string())
        }
    })?;
    ServeStats::raise(&shared.stats.queue_depth_max, shared.queue.len() as u64);
    Ok(())
}

fn wait_for(
    outcome: &mpsc::Receiver<Result<JobOutput, RequestError>>,
) -> Result<JobOutput, RequestError> {
    outcome
        .recv()
        .map_err(|_| internal("scoring worker dropped the reply channel"))?
}

fn internal(message: &str) -> RequestError {
    (ErrorKind::Internal, message.to_string())
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let batch = shared.queue.pop_batch(shared.config.batch_max, |first, candidate| {
            match (first, candidate) {
                // Pointer identity, not id equality: two jobs under the
                // same id may hold different versions of a mutated
                // snapshot, and must never share one scorer.
                (Job::Score(a), Job::Score(b)) => Arc::ptr_eq(&a.snapshot, &b.snapshot),
                _ => false,
            }
        });
        if batch.is_empty() {
            return; // queue closed and drained
        }
        let mut score_jobs = Vec::new();
        for job in batch {
            match job {
                Job::Score(job) => score_jobs.push(job),
                Job::Baseline { snapshot, set, functions, samples, seed, control, reply } => {
                    let result = run_baseline(
                        shared, &snapshot, set, &functions, samples, seed, &control,
                    );
                    let _ = reply.send(result);
                }
                Job::Apply { snapshot_id, mutations, reply } => {
                    let result = run_apply(shared, &snapshot_id, &mutations);
                    let _ = reply.send(result);
                }
                Job::Compact { snapshot_id, reply } => {
                    let result = run_compact(shared, &snapshot_id);
                    let _ = reply.send(result);
                }
                Job::Sleep { millis, reply } => {
                    std::thread::sleep(Duration::from_millis(millis));
                    let _ = reply.send(Ok(JobOutput::Slept));
                }
            }
        }
        if !score_jobs.is_empty() {
            run_score_batch(shared, score_jobs);
        }
    }
}

/// Evaluates one coalesced batch of same-snapshot scoring jobs with a
/// single [`ParallelScorer`] pass, then fans the per-job scores back out
/// (and into the cache).
fn run_score_batch(shared: &Shared, mut jobs: Vec<ScoreJob>) {
    // Deadlines are re-checked at the batch boundary: a job that waited
    // too long in the queue is answered `deadline-exceeded`, not scored.
    let mut live = Vec::with_capacity(jobs.len());
    for mut job in jobs.drain(..) {
        match job.control.check() {
            Ok(()) => {
                let set = std::mem::replace(&mut job.set, VertexSet::new());
                live.push((job, set));
            }
            Err(why) => {
                let _ = job.reply.send(Err((ErrorKind::DeadlineExceeded, why.to_string())));
            }
        }
    }
    if live.is_empty() {
        return;
    }
    let snapshot = Arc::clone(&live[0].0.snapshot);
    let sets: Vec<VertexSet> = live.iter().map(|(_, set)| set.clone()).collect();
    let graph = snapshot.graph();
    let scorer =
        ParallelScorer::with_graph_median(&graph, snapshot.median_degree, shared.config.threads);
    let stats = scorer.stats_batch(&sets);
    ServeStats::bump(&shared.stats.batches);
    ServeStats::add(&shared.stats.batched_jobs, live.len() as u64);
    ServeStats::raise(&shared.stats.max_batch, live.len() as u64);
    ServeStats::add(&shared.stats.scored_sets, live.len() as u64);
    let mut cache = shared.cache.lock().expect("cache lock");
    for ((job, _), set_stats) in live.iter().zip(&stats) {
        let scores: Vec<f64> = job.functions.iter().map(|f| f.score(set_stats)).collect();
        for (function, &score) in job.functions.iter().zip(&scores) {
            cache.insert(
                CacheKey {
                    snapshot: job.snapshot.id.clone(),
                    version: job.snapshot.version,
                    function: *function,
                    digest: job.digest,
                },
                score,
            );
        }
        let _ = job.reply.send(Ok(JobOutput::Scores(scores)));
    }
}

/// Scores a set against `samples` seeded size-matched random-walk sets.
/// Fully deterministic for a given `(snapshot, set, functions, samples,
/// seed)` tuple: per-walk RNG streams are keyed by `(seed, walk index)`
/// and means are accumulated in walk order.
fn run_baseline(
    shared: &Shared,
    snapshot: &LoadedSnapshot,
    set: VertexSet,
    functions: &[ScoringFunction],
    samples: usize,
    seed: u64,
    control: &RunControl,
) -> Result<JobOutput, RequestError> {
    check_deadline(control)?;
    let sizes = vec![set.len(); samples];
    let graph = snapshot.graph();
    let sampled = size_matched_random_walk_sets_parallel_with_control(
        &graph,
        &sizes,
        seed,
        shared.config.threads,
        control,
    )
    .map_err(|why| (ErrorKind::DeadlineExceeded, why.to_string()))?;
    let mut all_sets = Vec::with_capacity(samples + 1);
    all_sets.push(set);
    all_sets.extend(sampled);
    let scorer =
        ParallelScorer::with_graph_median(&graph, snapshot.median_degree, shared.config.threads);
    let stats = scorer.stats_batch(&all_sets);
    ServeStats::add(&shared.stats.scored_sets, all_sets.len() as u64);
    let set_scores: Vec<f64> = functions.iter().map(|f| f.score(&stats[0])).collect();
    let baseline_means: Vec<f64> = functions
        .iter()
        .map(|f| {
            let sum: f64 = stats[1..].iter().map(|s| f.score(s)).sum();
            sum / samples as f64
        })
        .collect();
    Ok(JobOutput::Baseline { set_scores, baseline_means })
}

/// Applies one mutation batch under the live-state lock. On commit the
/// version is bumped, the new entry is published, and every cached score
/// of the snapshot's older versions is invalidated *before* the reply is
/// sent, so a client that saw the ack can never read a stale graph or a
/// stale cached score.
fn run_apply(
    shared: &Shared,
    id: &str,
    mutations: &[Mutation],
) -> Result<JobOutput, RequestError> {
    let mut states = shared.live.lock().expect("live state lock");
    let state = live_state(&mut states, shared, id)?;
    let outcome = state
        .live
        .apply(mutations)
        .map_err(|e| internal(&format!("mutation commit failed: {e}")))?;
    let mut invalidated = 0;
    if outcome.applied > 0 {
        let old_version = state.version;
        state.version += 1;
        publish(shared, id, state);
        ServeStats::add(&shared.stats.mutations_applied, outcome.applied as u64);
        invalidated =
            shared.cache.lock().expect("cache lock").invalidate_stale(id, state.version);
        // Suggestions are invalidated per ego, not wholesale: an edge
        // mutation can only change the egos named by `affected_egos`
        // (endpoints + egos watching both ends); vertex and membership
        // mutations change no ego view at all. Everything else is
        // revalidated to the new version and keeps hitting.
        let mut affected: Vec<u32> = Vec::new();
        let graph = state.live.graph();
        for mutation in &mutations[..outcome.applied] {
            match *mutation {
                Mutation::AddEdge { u, v } | Mutation::RemoveEdge { u, v } => {
                    affected.extend(affected_egos(&graph, u, v));
                }
                _ => {}
            }
        }
        affected.sort_unstable();
        affected.dedup();
        let mut suggest = shared.suggest.lock().expect("suggest cache lock");
        invalidated += suggest.invalidate_egos(id, &affected);
        suggest.revalidate(id, old_version, state.version);
    }
    if outcome.rejected.is_some() {
        ServeStats::bump(&shared.stats.mutations_rejected);
    }
    Ok(JobOutput::Applied {
        applied: outcome.applied,
        rejected: outcome.rejected.map(|(i, e)| (i, e.to_string())),
        version: state.version,
        wal_records: state.live.wal_records() as u64,
        invalidated,
    })
}

/// Folds a snapshot's WAL into its CKS1 file and republishes the entry
/// over a mapping of the new file, with an empty overlay. The composed
/// graph is unchanged, so neither the version nor any cache entry moves;
/// requests holding the old entry keep the old mapping.
fn run_compact(shared: &Shared, id: &str) -> Result<JobOutput, RequestError> {
    let mut states = shared.live.lock().expect("live state lock");
    let state = live_state(&mut states, shared, id)?;
    let folded = state.live.wal_records() as u64;
    state.live.compact().map_err(|e| internal(&format!("compaction failed: {e}")))?;
    publish(shared, id, state);
    ServeStats::bump(&shared.stats.compactions);
    Ok(JobOutput::Compacted { folded })
}

/// Probes the cache for every requested function; only a full hit
/// produces a response (a partial hit recomputes the whole request — the
/// stats are computed once per set anyway).
fn cache_probe(
    shared: &Shared,
    snap: &LoadedSnapshot,
    functions: &[ScoringFunction],
    digest: u64,
) -> Option<Vec<f64>> {
    if shared.config.cache_capacity == 0 {
        return None;
    }
    let mut cache = shared.cache.lock().expect("cache lock");
    let mut scores = Vec::with_capacity(functions.len());
    for function in functions {
        let key = CacheKey {
            snapshot: snap.id.clone(),
            version: snap.version,
            function: *function,
            digest,
        };
        scores.push(cache.get(&key)?);
    }
    Some(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use circlekit_synth::presets;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Reads never wait on a write: while the live-state lock is held —
    /// as a slow commit holds it — every read op still completes, on a
    /// snapshot that has already been mutated.
    #[test]
    fn reads_complete_while_the_live_state_lock_is_held() {
        let data = presets::google_plus()
            .scaled(0.004)
            .generate(&mut SmallRng::seed_from_u64(2014));
        let mut registry = SnapshotRegistry::new();
        registry.insert("gplus", data.graph, data.groups).unwrap();
        let server = Server::start(registry, ServeConfig::default(), ("127.0.0.1", 0)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .apply_mutations("gplus", &[Mutation::AddVertex])
            .unwrap();
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();

        let held = server.shared.live.lock().expect("live state lock");
        client.list_groups("gplus").unwrap();
        let miss = client.score_group("gplus", 0, None, None).unwrap();
        let hit = client.score_group("gplus", 0, None, None).unwrap();
        assert_eq!(
            crate::protocol::wire::get(&miss, "cached"),
            Some(&Value::Bool(false))
        );
        assert_eq!(
            crate::protocol::wire::get(&hit, "cached"),
            Some(&Value::Bool(true))
        );
        client.score_set("gplus", &[0, 1, 2], None, None).unwrap();
        client.baseline("gplus", 0, 8, 2014).unwrap();
        client.suggest_circles("gplus", 0, 2014, 3, 5).unwrap();
        drop(held);

        server.shutdown_handle().trigger();
        server.join();
    }
}
