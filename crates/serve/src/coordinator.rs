//! Scatter-gather coordination over a fleet of shard processes.
//!
//! A coordinator is a stateless front-end to `N` shard servers, each of
//! which serves one vertex-partitioned sub-snapshot (packed with
//! `pack --shard N --shard-index i`). It speaks the same wire protocol
//! as a single-node server, so clients are unchanged:
//!
//! * **Scoring** (`score_group`, `score_set`, `watch_scores`): the
//!   request's vertex set is broadcast to every shard as a `shard_stats`
//!   op, the raw partial [`SetStats`] terms come back, and
//!   [`circlekit_shard::reduce_partials`] folds them into the exact
//!   global statistics — bit-identical to single-node scoring, because
//!   the reduction replays the sequential fold order (see the shard
//!   crate docs for the proof sketch).
//! * **Routing** (`suggest_circles`): an ego's full ego network lives
//!   complete on its owning shard (`shard_of(ego, N)` — the halo
//!   guarantee), so discovery requests are forwarded whole to that
//!   shard and the response is relabelled with the logical snapshot id.
//! * **Degraded mode**: every answer is exact or refused. A shard that
//!   cannot be reached — after the failover client has retried its
//!   replica endpoints with jittered backoff — turns the whole request
//!   into a typed `shard-unavailable` error naming the shard; a partial
//!   gather is never silently reduced.
//! * **Caching**: reduced scores are remembered in the server's
//!   ordinary [`crate::ScoreCache`], keyed by the *shard version
//!   vector* — the per-shard materialization versions every
//!   `shard_stats` response reports. Any shard's version advancing
//!   changes the composite key (and purges the stale generation), so a
//!   repeated query skips the scatter entirely while a mutated shard
//!   can never be answered from memory. Hits and misses show up in the
//!   usual `cache_*` rows of the `stats` op.
//! * **Topology safety**: at startup the coordinator probes every shard
//!   and refuses to serve unless the manifests agree (same shard count,
//!   same parent CRC/counts/median) and the shard indices form a
//!   complete cover `0..N`. Every gathered response re-echoes the
//!   manifest, so a shard swapped under a running coordinator is also
//!   refused.
//!
//! Writes (`apply_mutations`, `compact`) are refused with `not-primary`:
//! shard sub-snapshots are immutable projections of their parent, and
//! `baseline` is refused with `bad-request` because random walks cannot
//! be confined to one shard's halo.

use crate::cache::CacheKey;
use crate::client::ClientError;
use crate::failover::{FailoverClient, FailoverOptions};
use crate::protocol::{ok_value, set_digest, wire, ErrorKind, Request, RequestError};
use crate::server::{score_fields, with_op, Shared};
use circlekit_scoring::{ScoringFunction, SetStats};
use circlekit_shard::{reduce_partials, shard_of, ShardPartial};
use circlekit_store::ShardManifest;
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-shard gather deadline applied when a client request carries no
/// `deadline_ms` of its own.
pub const DEFAULT_SHARD_DEADLINE_MS: u64 = 2_000;

/// Configuration of coordinator mode (`serve --coordinator`).
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// One entry per shard. Each entry is one or more `|`-separated
    /// endpoints for that shard (its primary first, then read replicas),
    /// handed to the shard's [`FailoverClient`].
    pub shards: Vec<String>,
    /// Per-shard deadline (milliseconds) forwarded with every gathered
    /// `shard_stats` request when the client supplied none.
    pub shard_deadline_ms: u64,
}

impl CoordinatorConfig {
    /// A config over `shards` with the default per-shard deadline.
    pub fn new(shards: Vec<String>) -> CoordinatorConfig {
        CoordinatorConfig { shards, shard_deadline_ms: DEFAULT_SHARD_DEADLINE_MS }
    }
}

/// One downstream shard: its failover client plus health counters the
/// `stats` and `repl_status` ops expose as per-shard rows.
struct ShardLink {
    /// The shard index this link answered for at startup.
    index: u32,
    /// The configured endpoint entry, for error messages and stats rows.
    endpoints: String,
    /// The snapshot id the shard process serves its sub-snapshot under.
    snapshot_id: String,
    client: Mutex<FailoverClient>,
    requests: AtomicU64,
    failures: AtomicU64,
    inflight: AtomicU64,
    last_rtt_us: AtomicU64,
    last_error: Mutex<Option<String>>,
}

impl ShardLink {
    /// Runs one call against this shard with the bookkeeping the stats
    /// rows need (request/failure counts, inflight gauge, last RTT).
    fn call<T>(
        &self,
        call: impl FnMut(&mut crate::client::Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.inflight.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let outcome = self.client.lock().expect("shard client lock").read(call);
        let rtt = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        self.last_rtt_us.store(rtt, Ordering::Relaxed);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        match &outcome {
            Ok(_) => *self.last_error.lock().expect("last error lock") = None,
            Err(e) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                *self.last_error.lock().expect("last error lock") = Some(e.to_string());
            }
        }
        outcome
    }
}

/// The connected, topology-validated shard fleet.
pub(crate) struct Coordinator {
    /// The snapshot id clients use (shard 0's id with its `.shard<i>`
    /// suffix stripped).
    logical_id: String,
    /// Shard 0's manifest — after validation every shard agrees on the
    /// parent-binding fields, so it stands for the whole topology.
    manifest: ShardManifest,
    directed: bool,
    group_sizes: Vec<u64>,
    deadline_ms: u64,
    /// Indexed by shard index (validated to be a complete cover).
    shards: Vec<ShardLink>,
    /// Per-shard materialization versions, indexed like `shards`, as
    /// last observed in gathered `shard_stats` responses. The fold of
    /// this vector keys every cached reduction, so a shard advancing
    /// makes older cache entries unreachable; see
    /// [`Coordinator::observe_versions`].
    versions: Mutex<Vec<u64>>,
}

/// Tag words separating the two gather-set namings inside
/// [`coord_digest`], so a group index can never collide with a member
/// digest.
const DIGEST_GROUP: u64 = 1;
const DIGEST_MEMBERS: u64 = 2;

/// FNV-1a fold of a gather set's identity and the full shard version
/// vector — the `digest` half of a coordinator cache key. The key's
/// `version` half is the (per-shard monotone, hence monotone) version
/// *sum*, which is what lets [`crate::ScoreCache::invalidate_stale`]
/// purge superseded generations; folding the raw vector in here keeps
/// two distinct vectors that happen to share a sum from ever sharing a
/// key.
fn coord_digest(tag: u64, set: u64, versions: &[u64]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [tag, set].into_iter().chain(versions.iter().copied()) {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// What a gathered set is named by: a group index (resolved shard-side
/// against the full group list every sub-snapshot carries) or explicit
/// global members.
enum GatherSet<'a> {
    Group(usize),
    Members(&'a [u32]),
}

impl Coordinator {
    /// Connects to every shard, validates the topology, and returns the
    /// ready coordinator. Any mismatch — wrong shard count, duplicate or
    /// missing index, disagreeing parent CRC/counts/median, mixed
    /// directedness — is a rendered startup refusal naming the endpoint.
    pub(crate) fn connect(config: &CoordinatorConfig) -> Result<Coordinator, String> {
        if config.shards.is_empty() {
            return Err("a coordinator needs at least one shard endpoint".to_string());
        }
        let want = config.shards.len() as u32;
        let mut probed: Vec<(ShardLink, ShardManifest, bool, u64)> = Vec::new();
        for entry in &config.shards {
            let endpoints: Vec<String> = entry
                .split('|')
                .map(str::trim)
                .filter(|e| !e.is_empty())
                .map(String::from)
                .collect();
            if endpoints.is_empty() {
                return Err(format!("blank shard endpoint entry {entry:?}"));
            }
            let options = FailoverOptions {
                read_timeout: Duration::from_millis(config.shard_deadline_ms.max(2_000)),
                ..FailoverOptions::default()
            };
            let mut client = FailoverClient::new(endpoints, options);
            let listed = client
                .read(|c| c.list_snapshots())
                .map_err(|e| format!("shard {entry:?}: cannot list snapshots: {e}"))?;
            let snapshot_id = single_snapshot_id(&listed)
                .map_err(|why| format!("shard {entry:?}: {why}"))?;
            // An empty-member probe returns the manifest without scoring
            // anything.
            let probe = client
                .read(|c| {
                    c.call(
                        "shard_stats",
                        vec![
                            ("snapshot".to_string(), Value::Str(snapshot_id.clone())),
                            ("members".to_string(), Value::Seq(Vec::new())),
                        ],
                    )
                })
                .map_err(|e| format!("shard {entry:?}: shard_stats probe failed: {e}"))?;
            let (manifest, directed) = manifest_from_response(&probe)
                .map_err(|why| format!("shard {entry:?}: {why}"))?;
            let version = require_u64(&probe, "version")
                .map_err(|why| format!("shard {entry:?}: {why}"))?;
            if manifest.shard_count != want {
                return Err(format!(
                    "shard {entry:?} was packed for {} shards but {want} endpoints were given",
                    manifest.shard_count
                ));
            }
            probed.push((
                ShardLink {
                    index: manifest.shard_index,
                    endpoints: entry.clone(),
                    snapshot_id,
                    client: Mutex::new(client),
                    requests: AtomicU64::new(0),
                    failures: AtomicU64::new(0),
                    inflight: AtomicU64::new(0),
                    last_rtt_us: AtomicU64::new(0),
                    last_error: Mutex::new(None),
                },
                manifest,
                directed,
                version,
            ));
        }
        let (_, reference, ref_directed, _) = &probed[0];
        let reference = *reference;
        let ref_directed = *ref_directed;
        for (link, manifest, directed, _) in &probed {
            if !same_parent(manifest, &reference) || *directed != ref_directed {
                return Err(format!(
                    "shard {:?} belongs to a different partition (parent CRC {:#010x} vs \
                     {:#010x}); all shards must come from one pack run over one parent",
                    link.endpoints, manifest.parent_crc32, reference.parent_crc32
                ));
            }
        }
        probed.sort_by_key(|(link, _, _, _)| link.index);
        for (at, (link, _, _, _)) in probed.iter().enumerate() {
            if link.index as usize != at {
                return Err(format!(
                    "shard indices do not cover 0..{want}: {} (endpoint {:?}) is {}",
                    link.index,
                    link.endpoints,
                    if at > 0 && probed[at - 1].0.index == link.index {
                        "duplicated"
                    } else {
                        "out of place"
                    }
                ));
            }
        }
        let versions: Vec<u64> = probed.iter().map(|(_, _, _, version)| *version).collect();
        let shards: Vec<ShardLink> = probed.into_iter().map(|(link, _, _, _)| link).collect();
        let logical_id = logical_id_of(&shards[0].snapshot_id);
        let shard0 = &shards[0];
        let groups = shard0
            .call(|c| c.list_groups(&shard0.snapshot_id))
            .map_err(|e| format!("shard {:?}: cannot list groups: {e}", shard0.endpoints))?;
        let group_sizes = group_sizes_of(&groups)
            .map_err(|why| format!("shard {:?}: {why}", shard0.endpoints))?;
        Ok(Coordinator {
            logical_id,
            manifest: reference,
            directed: ref_directed,
            group_sizes,
            deadline_ms: config.shard_deadline_ms,
            shards,
            versions: Mutex::new(versions),
        })
    }

    fn check_snapshot(&self, id: &str) -> Result<(), RequestError> {
        if id == self.logical_id {
            Ok(())
        } else {
            Err((
                ErrorKind::NotFound,
                format!(
                    "unknown snapshot {id:?} (this coordinator serves {:?})",
                    self.logical_id
                ),
            ))
        }
    }

    /// Scatter `set` to every shard and reduce the gathered partials to
    /// exact global statistics. Exact or refused: the first shard that
    /// cannot answer fails the whole gather. Also returns the shard
    /// version vector this gather observed, for keying the cached
    /// reduction.
    fn gather(
        &self,
        shared: &Shared,
        set: &GatherSet<'_>,
        deadline_ms: Option<u64>,
    ) -> Result<(SetStats, usize, Vec<u64>), RequestError> {
        let deadline = deadline_ms.unwrap_or(self.deadline_ms);
        let outcomes: Vec<Result<(ShardPartial, u64, u64), RequestError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|link| scope.spawn(move || self.gather_one(link, set, deadline)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("gather thread panicked"))
                    .collect()
            });
        let mut partials = Vec::with_capacity(outcomes.len());
        let mut versions = Vec::with_capacity(outcomes.len());
        let mut set_len: Option<u64> = None;
        for outcome in outcomes {
            let (partial, len, version) = outcome?;
            match set_len {
                None => set_len = Some(len),
                Some(have) if have != len => {
                    return Err((
                        ErrorKind::Internal,
                        format!(
                            "shards disagree on the set size ({have} vs {len}); \
                             their group lists have diverged — re-pack the partition"
                        ),
                    ));
                }
                Some(_) => {}
            }
            partials.push(partial);
            versions.push(version);
        }
        let set_len = set_len.unwrap_or(0) as usize;
        let stats = reduce_partials(&self.manifest, self.directed, set_len, &partials)
            .map_err(|e| (ErrorKind::Internal, format!("shard reduction failed: {e}")))?;
        self.observe_versions(shared, &versions);
        Ok((stats, set_len, versions))
    }

    /// Folds the version vector a gather observed into the tracked one
    /// (component-wise max — versions only advance shard-side). When
    /// any shard has moved, every cached reduction keyed below the new
    /// version sum is purged: the composite digest already makes the
    /// old generation unreachable, but the purge keeps the LRU from
    /// carrying dead entries and ticks the `cache_invalidations` row.
    fn observe_versions(&self, shared: &Shared, observed: &[u64]) {
        let mut tracked = self.versions.lock().expect("shard versions lock");
        let mut advanced = false;
        for (have, &saw) in tracked.iter_mut().zip(observed) {
            if saw > *have {
                *have = saw;
                advanced = true;
            }
        }
        if advanced {
            let sum: u64 = tracked.iter().sum();
            drop(tracked);
            shared
                .cache
                .lock()
                .expect("cache lock")
                .invalidate_stale(&self.logical_id, sum);
        }
    }

    /// Probes the server's ordinary score LRU for every requested
    /// function's reduced score under the tracked version vector.
    /// All-or-nothing: a single absent entry falls the whole request
    /// back to a full scatter-gather.
    fn cached_scores(
        &self,
        shared: &Shared,
        tag: u64,
        set: u64,
        functions: &[ScoringFunction],
    ) -> Option<Vec<f64>> {
        let (digest, version) = {
            let versions = self.versions.lock().expect("shard versions lock");
            (coord_digest(tag, set, &versions), versions.iter().sum())
        };
        let mut cache = shared.cache.lock().expect("cache lock");
        functions
            .iter()
            .map(|&function| {
                cache.get(&CacheKey {
                    snapshot: self.logical_id.clone(),
                    version,
                    function,
                    digest,
                })
            })
            .collect()
    }

    /// Remembers one gather's reduced scores, keyed by the version
    /// vector that gather actually observed (not the tracked one, which
    /// a racing gather may have advanced past).
    fn store_scores(
        &self,
        shared: &Shared,
        tag: u64,
        set: u64,
        observed: &[u64],
        functions: &[ScoringFunction],
        scores: &[f64],
    ) {
        let digest = coord_digest(tag, set, observed);
        let version = observed.iter().sum();
        let mut cache = shared.cache.lock().expect("cache lock");
        for (&function, &score) in functions.iter().zip(scores) {
            cache.insert(
                CacheKey { snapshot: self.logical_id.clone(), version, function, digest },
                score,
            );
        }
    }

    /// One shard's half of [`Coordinator::gather`]: the partial terms,
    /// the shard's view of the set size, and the shard's snapshot
    /// version.
    fn gather_one(
        &self,
        link: &ShardLink,
        set: &GatherSet<'_>,
        deadline_ms: u64,
    ) -> Result<(ShardPartial, u64, u64), RequestError> {
        let mut fields = vec![(
            "snapshot".to_string(),
            Value::Str(link.snapshot_id.clone()),
        )];
        match set {
            GatherSet::Group(group) => {
                fields.push(("group".to_string(), Value::UInt(*group as u64)));
            }
            GatherSet::Members(members) => fields.push((
                "members".to_string(),
                Value::Seq(members.iter().map(|&m| Value::UInt(u64::from(m))).collect()),
            )),
        }
        fields.push(("deadline_ms".to_string(), Value::UInt(deadline_ms)));
        let response = link
            .call(|c| c.call("shard_stats", fields.clone()))
            .map_err(|e| match e {
                ClientError::Server { kind, message } => {
                    (kind, format!("shard {}: {message}", link.index))
                }
                other => (
                    ErrorKind::ShardUnavailable,
                    format!(
                        "shard {} ({}) is unavailable: {other}",
                        link.index, link.endpoints
                    ),
                ),
            })?;
        let (manifest, _) = manifest_from_response(&response)
            .map_err(|why| (ErrorKind::Internal, format!("shard {}: {why}", link.index)))?;
        if !same_parent(&manifest, &self.manifest) || manifest.shard_index != link.index {
            return Err((
                ErrorKind::Internal,
                format!(
                    "shard {} ({}) answered for a different partition (parent CRC \
                     {:#010x}, index {}); the fleet changed under this coordinator",
                    link.index, link.endpoints, manifest.parent_crc32, manifest.shard_index
                ),
            ));
        }
        let version = require_u64(&response, "version")
            .map_err(|why| (ErrorKind::Internal, format!("shard {}: {why}", link.index)))?;
        let (partial, set_len) = partial_from_response(&response, manifest.shard_index)
            .map_err(|why| (ErrorKind::Internal, format!("shard {}: {why}", link.index)))?;
        Ok((partial, set_len, version))
    }

    fn score_group(
        &self,
        shared: &Shared,
        snapshot: &str,
        group: usize,
        functions: &[ScoringFunction],
        deadline_ms: Option<u64>,
    ) -> Result<Value, RequestError> {
        self.check_snapshot(snapshot)?;
        if group >= self.group_sizes.len() {
            return Err((
                ErrorKind::NotFound,
                format!(
                    "snapshot {:?} has {} groups, no index {group}",
                    self.logical_id,
                    self.group_sizes.len()
                ),
            ));
        }
        let mut fields = vec![("group".to_string(), Value::UInt(group as u64))];
        if let Some(scores) = self.cached_scores(shared, DIGEST_GROUP, group as u64, functions)
        {
            // The shards were validated to share one group list, so the
            // advertised size is the size every gather would re-agree on.
            let set_len = self.group_sizes[group] as usize;
            fields.extend(score_fields(set_len, functions, &scores, true));
            return Ok(ok_value(with_op("score_group", &self.logical_id, fields)));
        }
        let (stats, set_len, observed) =
            self.gather(shared, &GatherSet::Group(group), deadline_ms)?;
        let scores: Vec<f64> = functions.iter().map(|f| f.score(&stats)).collect();
        self.store_scores(shared, DIGEST_GROUP, group as u64, &observed, functions, &scores);
        fields.extend(score_fields(set_len, functions, &scores, false));
        Ok(ok_value(with_op("score_group", &self.logical_id, fields)))
    }

    fn score_set(
        &self,
        shared: &Shared,
        snapshot: &str,
        members: &[u32],
        functions: &[ScoringFunction],
        deadline_ms: Option<u64>,
    ) -> Result<Value, RequestError> {
        self.check_snapshot(snapshot)?;
        if let Some(&bad) =
            members.iter().find(|&&m| u64::from(m) >= self.manifest.parent_node_count)
        {
            return Err((
                ErrorKind::BadRequest,
                format!(
                    "member {bad} is out of range for snapshot {:?} ({} nodes)",
                    self.logical_id, self.manifest.parent_node_count
                ),
            ));
        }
        // Normalize exactly like the shard-side `VertexSet::from_vec`,
        // so the digest (and the cached `size`) name the de-duplicated
        // set the shards actually score.
        let mut normalized = members.to_vec();
        normalized.sort_unstable();
        normalized.dedup();
        let member_digest = set_digest(&normalized);
        if let Some(scores) =
            self.cached_scores(shared, DIGEST_MEMBERS, member_digest, functions)
        {
            let fields = score_fields(normalized.len(), functions, &scores, true);
            return Ok(ok_value(with_op("score_set", &self.logical_id, fields)));
        }
        let (stats, set_len, observed) =
            self.gather(shared, &GatherSet::Members(members), deadline_ms)?;
        let scores: Vec<f64> = functions.iter().map(|f| f.score(&stats)).collect();
        self.store_scores(shared, DIGEST_MEMBERS, member_digest, &observed, functions, &scores);
        let fields = score_fields(set_len, functions, &scores, false);
        Ok(ok_value(with_op("score_set", &self.logical_id, fields)))
    }

    fn watch_scores(
        &self,
        shared: &Shared,
        snapshot: &str,
        group: usize,
    ) -> Result<Value, RequestError> {
        self.check_snapshot(snapshot)?;
        if group >= self.group_sizes.len() {
            return Err((
                ErrorKind::NotFound,
                format!(
                    "snapshot {:?} has {} groups, no index {group}",
                    self.logical_id,
                    self.group_sizes.len()
                ),
            ));
        }
        let functions = ScoringFunction::PAPER;
        // Shares the score_group key space: watch_scores is the PAPER
        // function set over the same gathered group.
        let (scores, set_len) = match self.cached_scores(
            shared,
            DIGEST_GROUP,
            group as u64,
            &functions,
        ) {
            Some(scores) => (scores, self.group_sizes[group] as usize),
            None => {
                let (stats, set_len, observed) =
                    self.gather(shared, &GatherSet::Group(group), None)?;
                let scores: Vec<f64> = functions.iter().map(|f| f.score(&stats)).collect();
                self.store_scores(
                    shared,
                    DIGEST_GROUP,
                    group as u64,
                    &observed,
                    &functions,
                    &scores,
                );
                (scores, set_len)
            }
        };
        let names: Vec<Value> =
            functions.iter().map(|f| Value::Str(f.name().to_string())).collect();
        let fields = vec![
            ("group".to_string(), Value::UInt(group as u64)),
            ("size".to_string(), Value::UInt(set_len as u64)),
            ("version".to_string(), Value::UInt(0)),
            ("functions".to_string(), Value::Seq(names)),
            ("scores".to_string(), wire::score_array(&scores)),
        ];
        Ok(ok_value(with_op("watch_scores", &self.logical_id, fields)))
    }

    /// `suggest_circles` is routed whole to the ego's owning shard: the
    /// halo guarantee makes that shard's view of the ego network exact.
    fn suggest(
        &self,
        snapshot: &str,
        ego: u32,
        seed: u64,
        min_size: usize,
        top: usize,
    ) -> Result<Value, RequestError> {
        self.check_snapshot(snapshot)?;
        if u64::from(ego) >= self.manifest.parent_node_count {
            return Err((
                ErrorKind::NotFound,
                format!(
                    "snapshot {snapshot:?} has {} vertices, no ego {ego}",
                    self.manifest.parent_node_count
                ),
            ));
        }
        let owner = shard_of(ego, self.manifest.shard_count);
        let link = &self.shards[owner as usize];
        let mut response = link
            .call(|c| c.suggest_circles(&link.snapshot_id, ego, seed, min_size, top))
            .map_err(|e| match e {
                ClientError::Server { kind, message } => {
                    (kind, format!("shard {owner}: {message}"))
                }
                other => (
                    ErrorKind::ShardUnavailable,
                    format!("shard {owner} ({}) is unavailable: {other}", link.endpoints),
                ),
            })?;
        // Relabel the shard's snapshot id with the logical one so the
        // response is indistinguishable from a single-node answer.
        if let Value::Map(entries) = &mut response {
            for (key, value) in entries.iter_mut() {
                if key == "snapshot" {
                    *value = Value::Str(self.logical_id.clone());
                }
            }
        }
        Ok(response)
    }

    /// Per-shard health rows for the `stats` and `repl_status` ops,
    /// following the replication status row conventions.
    fn shard_rows(&self) -> Value {
        Value::Seq(
            self.shards
                .iter()
                .map(|link| {
                    let last_error = match &*link.last_error.lock().expect("last error lock") {
                        Some(message) => Value::Str(message.clone()),
                        None => Value::Null,
                    };
                    Value::Map(vec![
                        ("shard".to_string(), Value::UInt(u64::from(link.index))),
                        ("endpoints".to_string(), Value::Str(link.endpoints.clone())),
                        ("snapshot".to_string(), Value::Str(link.snapshot_id.clone())),
                        (
                            "requests".to_string(),
                            Value::UInt(link.requests.load(Ordering::Relaxed)),
                        ),
                        (
                            "failures".to_string(),
                            Value::UInt(link.failures.load(Ordering::Relaxed)),
                        ),
                        (
                            "inflight".to_string(),
                            Value::UInt(link.inflight.load(Ordering::Relaxed)),
                        ),
                        (
                            "last_rtt_us".to_string(),
                            Value::UInt(link.last_rtt_us.load(Ordering::Relaxed)),
                        ),
                        ("last_error".to_string(), last_error),
                    ])
                })
                .collect(),
        )
    }
}

/// Answers `request` on behalf of the coordinator, or returns `None` for
/// the few ops the local machinery should keep handling (`debug_sleep`,
/// `repl_ack`; `shutdown` and `replicate` never reach here).
pub(crate) fn handle(
    shared: &Arc<Shared>,
    request: &Request,
) -> Option<Result<Value, RequestError>> {
    let coord = shared.coord.as_ref().expect("coordinator mode");
    let answer = match request {
        Request::Health => Ok(ok_value(vec![
            ("status".to_string(), Value::Str("serving".to_string())),
            ("role".to_string(), Value::Str("coordinator".to_string())),
            ("snapshots".to_string(), Value::UInt(1)),
            ("shards".to_string(), Value::UInt(coord.shards.len() as u64)),
        ])),
        Request::Stats => {
            let mut fields = shared.stats_snapshot().to_fields();
            fields.push(("shards".to_string(), coord.shard_rows()));
            Ok(ok_value(fields))
        }
        Request::ListSnapshots => Ok(ok_value(vec![(
            "snapshots".to_string(),
            Value::Seq(vec![Value::Map(vec![
                ("id".to_string(), Value::Str(coord.logical_id.clone())),
                ("path".to_string(), Value::Str("<coordinator>".to_string())),
                ("nodes".to_string(), Value::UInt(coord.manifest.parent_node_count)),
                ("edges".to_string(), Value::UInt(coord.manifest.parent_edge_count)),
                ("directed".to_string(), Value::Bool(coord.directed)),
                ("groups".to_string(), Value::UInt(coord.group_sizes.len() as u64)),
                ("version".to_string(), Value::UInt(0)),
            ])]),
        )])),
        Request::ListGroups { snapshot } => coord.check_snapshot(snapshot).map(|()| {
            ok_value(vec![
                ("snapshot".to_string(), Value::Str(coord.logical_id.clone())),
                ("groups".to_string(), Value::UInt(coord.group_sizes.len() as u64)),
                (
                    "sizes".to_string(),
                    Value::Seq(coord.group_sizes.iter().map(|&s| Value::UInt(s)).collect()),
                ),
            ])
        }),
        Request::ScoreGroup { snapshot, group, functions, deadline_ms } => {
            coord.score_group(shared, snapshot, *group, functions, *deadline_ms)
        }
        Request::ScoreSet { snapshot, members, functions, deadline_ms } => {
            coord.score_set(shared, snapshot, members, functions, *deadline_ms)
        }
        Request::WatchScores { snapshot, group } => {
            coord.watch_scores(shared, snapshot, *group)
        }
        Request::SuggestCircles { snapshot, ego, seed, min_size, top } => {
            coord.suggest(snapshot, *ego, *seed, *min_size, *top)
        }
        Request::Baseline { .. } => Err((
            ErrorKind::BadRequest,
            "baseline sampling walks the whole graph and cannot be confined to shards; \
             run it against the unsharded snapshot"
                .to_string(),
        )),
        Request::ApplyMutations { .. } | Request::Compact { .. } => Err((
            ErrorKind::NotPrimary,
            "this server is a scatter-gather coordinator and its shards are immutable; \
             mutate the parent snapshot and re-pack"
                .to_string(),
        )),
        Request::ShardStats { .. } => Err((
            ErrorKind::BadRequest,
            "this server is a coordinator; shard_stats is answered by shard processes"
                .to_string(),
        )),
        Request::ReplStatus => {
            let fields = vec![
                ("op".to_string(), Value::Str("repl_status".to_string())),
                ("role".to_string(), Value::Str("coordinator".to_string())),
                ("shards".to_string(), coord.shard_rows()),
            ];
            Ok(ok_value(fields))
        }
        Request::DebugSleep { .. }
        | Request::ReplAck { .. }
        | Request::Replicate { .. }
        | Request::Shutdown => return None,
    };
    Some(answer)
}

/// True when two manifests bind to the same parent partition run.
fn same_parent(a: &ShardManifest, b: &ShardManifest) -> bool {
    a.shard_count == b.shard_count
        && a.parent_crc32 == b.parent_crc32
        && a.parent_node_count == b.parent_node_count
        && a.parent_edge_count == b.parent_edge_count
        && a.parent_median_degree.to_bits() == b.parent_median_degree.to_bits()
}

/// Shard 0's id minus a trailing `.shard<digits>` suffix — the snapshot
/// id the coordinator serves under.
fn logical_id_of(shard0_id: &str) -> String {
    if let Some(at) = shard0_id.rfind(".shard") {
        let digits = &shard0_id[at + ".shard".len()..];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return shard0_id[..at].to_string();
        }
    }
    shard0_id.to_string()
}

/// The id of the single snapshot a shard process serves.
fn single_snapshot_id(listed: &Value) -> Result<String, String> {
    let Some(Value::Seq(snapshots)) = wire::get(listed, "snapshots") else {
        return Err("list_snapshots response lacks a snapshots array".to_string());
    };
    if snapshots.len() != 1 {
        return Err(format!(
            "a shard process must serve exactly one sub-snapshot, found {}",
            snapshots.len()
        ));
    }
    match wire::get(&snapshots[0], "id") {
        Some(Value::Str(id)) => Ok(id.clone()),
        _ => Err("snapshot row lacks an id".to_string()),
    }
}

fn group_sizes_of(response: &Value) -> Result<Vec<u64>, String> {
    let Some(Value::Seq(sizes)) = wire::get(response, "sizes") else {
        return Err("list_groups response lacks a sizes array".to_string());
    };
    sizes
        .iter()
        .map(|v| match v {
            Value::UInt(u) => Ok(*u),
            other => Err(format!("group size is not an integer: {other}")),
        })
        .collect()
}

fn require_u64(value: &Value, key: &str) -> Result<u64, String> {
    match wire::get(value, key) {
        Some(Value::UInt(u)) => Ok(*u),
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(format!("shard_stats response lacks integer field {key:?}")),
    }
}

fn require_f64(value: &Value, key: &str) -> Result<f64, String> {
    wire::get(value, key)
        .and_then(wire::as_f64)
        .ok_or_else(|| format!("shard_stats response lacks numeric field {key:?}"))
}

/// Reconstructs the shard manifest a `shard_stats` response echoes.
fn manifest_from_response(value: &Value) -> Result<(ShardManifest, bool), String> {
    let shard_count = u32::try_from(require_u64(value, "shard_count")?)
        .map_err(|_| "shard_count exceeds u32".to_string())?;
    let shard_index = u32::try_from(require_u64(value, "shard_index")?)
        .map_err(|_| "shard_index exceeds u32".to_string())?;
    let parent_crc32 = u32::try_from(require_u64(value, "parent_crc32")?)
        .map_err(|_| "parent_crc32 exceeds u32".to_string())?;
    let directed = match wire::get(value, "directed") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("shard_stats response lacks boolean field \"directed\"".to_string()),
    };
    Ok((
        ShardManifest {
            shard_count,
            shard_index,
            parent_node_count: require_u64(value, "parent_nodes")?,
            parent_edge_count: require_u64(value, "parent_edges")?,
            parent_median_degree: require_f64(value, "parent_median_degree")?,
            parent_crc32,
        },
        directed,
    ))
}

/// Decodes the raw partial terms of a `shard_stats` response. Finite
/// floats cross the wire bit-exactly (shortest round-trip formatting),
/// which is what keeps the reduction bit-identical end to end.
fn partial_from_response(value: &Value, shard_index: u32) -> Result<(ShardPartial, u64), String> {
    let set_len = require_u64(value, "set_len")?;
    let odf_members = wire::get_u32_array(value, "odf_members")
        .map_err(|(_, message)| message)?;
    let odf_values = wire::get_scores(value, "odf_values").map_err(|(_, message)| message)?;
    if odf_members.len() != odf_values.len() {
        return Err(format!(
            "odf arrays are unaligned ({} members, {} values)",
            odf_members.len(),
            odf_values.len()
        ));
    }
    let partial = ShardPartial {
        shard_index,
        internal_arcs: require_u64(value, "internal_arcs")?,
        boundary: require_u64(value, "boundary")?,
        out_degree_sum: require_u64(value, "out_degree_sum")?,
        in_degree_sum: require_u64(value, "in_degree_sum")?,
        above_median_internal: require_u64(value, "above_median_internal")?,
        flake_count: require_u64(value, "flake_count")?,
        in_internal_triangle: require_u64(value, "in_internal_triangle")?,
        max_odf: require_f64(value, "max_odf")?,
        odf_members,
        odf_values,
    };
    Ok((partial, set_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_digest_separates_sets_tags_and_version_vectors() {
        // A group index and a member digest of the same value must not
        // collide, and two version vectors sharing a sum must not
        // either — the sum is only the monotone purge axis.
        let vv = [0u64, 0];
        assert_ne!(
            coord_digest(DIGEST_GROUP, 7, &vv),
            coord_digest(DIGEST_MEMBERS, 7, &vv)
        );
        assert_ne!(coord_digest(DIGEST_GROUP, 7, &vv), coord_digest(DIGEST_GROUP, 8, &vv));
        assert_ne!(
            coord_digest(DIGEST_GROUP, 7, &[1, 0]),
            coord_digest(DIGEST_GROUP, 7, &[0, 1])
        );
        // Deterministic across calls: the same key always re-forms.
        assert_eq!(
            coord_digest(DIGEST_MEMBERS, 42, &[3, 5]),
            coord_digest(DIGEST_MEMBERS, 42, &[3, 5])
        );
    }

    #[test]
    fn logical_id_strips_only_a_numeric_shard_suffix() {
        assert_eq!(logical_id_of("web.shard0"), "web");
        assert_eq!(logical_id_of("web.shard12"), "web");
        assert_eq!(logical_id_of("web.shard"), "web.shard");
        assert_eq!(logical_id_of("web.shardx"), "web.shardx");
        assert_eq!(logical_id_of("plain"), "plain");
        assert_eq!(logical_id_of("a.shard1.shard2"), "a.shard1");
    }

    #[test]
    fn manifest_roundtrips_through_the_response_encoding() {
        let manifest = ShardManifest {
            shard_count: 3,
            shard_index: 2,
            parent_node_count: 100,
            parent_edge_count: 400,
            parent_median_degree: 3.5,
            parent_crc32: 0xDEAD_BEEF,
        };
        let value = Value::Map(vec![
            ("shard_count".to_string(), Value::UInt(3)),
            ("shard_index".to_string(), Value::UInt(2)),
            ("parent_crc32".to_string(), Value::UInt(0xDEAD_BEEF)),
            ("parent_nodes".to_string(), Value::UInt(100)),
            ("parent_edges".to_string(), Value::UInt(400)),
            ("parent_median_degree".to_string(), Value::Float(3.5)),
            ("directed".to_string(), Value::Bool(true)),
        ]);
        let (got, directed) = manifest_from_response(&value).unwrap();
        assert_eq!(got, manifest);
        assert!(directed);
        assert!(same_parent(&got, &manifest));
        let mut other = manifest;
        other.parent_crc32 ^= 1;
        assert!(!same_parent(&got, &other));
    }
}
