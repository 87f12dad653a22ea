//! Live mutation through the serve layer: committed batches change
//! served scores, invalidate exactly the stale cache entries, and keep
//! the O(1) `watch_scores` path bit-identical to the full scoring path —
//! including under concurrent mutating and scoring connections, across a
//! server restart (WAL adoption), and across compaction.

use circlekit_graph::VertexSet;
use circlekit_live::{wal_path_for, LiveSnapshot, Mutation};
use circlekit_scoring::{Scorer, ScoringFunction};
use circlekit_serve::protocol::wire;
use circlekit_serve::{Client, ErrorKind, ServeConfig, Server, SnapshotRegistry};
use circlekit_synth::presets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde_json::Value;
use std::path::Path;

fn fixture() -> circlekit_synth::SynthDataset {
    presets::google_plus()
        .scaled(0.004)
        .generate(&mut SmallRng::seed_from_u64(2014))
}

fn start_server(config: ServeConfig) -> (Server, circlekit_synth::SynthDataset) {
    let data = fixture();
    let mut registry = SnapshotRegistry::new();
    registry
        .insert("gplus", data.graph.clone(), data.groups.clone())
        .unwrap();
    let server = Server::start(registry, config, ("127.0.0.1", 0)).unwrap();
    (server, data)
}

fn get_u64(value: &Value, key: &str) -> u64 {
    match wire::get(value, key) {
        Some(Value::UInt(u)) => *u,
        other => panic!("field {key:?}: {other:?}"),
    }
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

fn watch_bits(client: &mut Client, snapshot: &str, group: usize) -> Vec<u64> {
    let response = client.watch_scores(snapshot, group).unwrap();
    bits(&wire::get_scores(&response, "scores").unwrap())
}

#[test]
fn committed_mutations_change_served_scores_and_invalidate_the_cache() {
    let (server, data) = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Pick a group with at least two members so flipping an internal
    // edge is guaranteed to move its scores.
    let g = data.groups.iter().position(|g| g.len() >= 2).unwrap();
    let before = client.score_group("gplus", g, Some("paper"), None).unwrap();
    let before_scores = Client::scores_of(&before).unwrap();

    // Mirror the committed mutations on an in-memory LiveSnapshot so the
    // expected scores come from the offline scorer over the same
    // composed graph.
    let mut mirror = LiveSnapshot::in_memory(data.graph.clone(), data.groups.clone());
    let (a, b) = (data.groups[g].as_slice()[0], data.groups[g].as_slice()[1]);
    let mut batch = vec![Mutation::AddEdge { u: a, v: b }];
    let mut response = client.apply_mutations("gplus", &batch).unwrap();
    if get_u64(&response, "applied") == 0 {
        // The edge already existed: removing it moves the scores instead.
        batch = vec![Mutation::RemoveEdge { u: a, v: b }];
        response = client.apply_mutations("gplus", &batch).unwrap();
    }
    assert_eq!(get_u64(&response, "applied"), 1, "{response}");
    assert_eq!(get_u64(&response, "version"), 1, "first commit bumps to version 1");
    // Exactly the four paper scores cached by the probe above are stale.
    assert_eq!(get_u64(&response, "cache_invalidated"), 4, "{response}");
    mirror.apply(&batch).unwrap();

    let after = client.score_group("gplus", g, Some("paper"), None).unwrap();
    assert!(
        matches!(wire::get(&after, "cached"), Some(Value::Bool(false))),
        "invalidated entries must not answer the post-commit request"
    );
    let after_scores = Client::scores_of(&after).unwrap();
    assert_ne!(bits(&before_scores), bits(&after_scores), "scores must move");

    // Bit-identical to the offline scorer over the composed graph.
    let graph = mirror.materialize();
    let mut offline = Scorer::new(&graph);
    let expected: Vec<u64> = ScoringFunction::PAPER
        .iter()
        .map(|&f| offline.score(f, &mirror.groups()[g]).to_bits())
        .collect();
    assert_eq!(bits(&after_scores), expected);

    // And the O(1) watch path agrees with the full path, bit for bit.
    assert_eq!(watch_bits(&mut client, "gplus", g), expected);

    let stats = client.stats().unwrap();
    assert!(get_u64(&stats, "mutations_applied") >= 1, "{stats}");
    assert_eq!(get_u64(&stats, "cache_invalidations"), 4, "{stats}");

    server.shutdown_handle().trigger();
    server.join();
}

#[test]
fn rejections_report_the_applied_prefix_and_typed_errors() {
    let (server, data) = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let n = data.graph.node_count() as u32;
    let batch = vec![
        Mutation::AddVertex,
        Mutation::AddEdge { u: n + 100, v: 0 }, // out of range: rejected
        Mutation::AddVertex,                    // never reached
    ];
    let response = client.apply_mutations("gplus", &batch).unwrap();
    assert_eq!(get_u64(&response, "applied"), 1, "{response}");
    let rejected = wire::get(&response, "rejected").unwrap();
    assert_eq!(get_u64(rejected, "index"), 1, "{response}");
    assert!(
        matches!(wire::get(rejected, "message"), Some(Value::Str(m)) if m.contains("range")),
        "{response}"
    );

    let err = client.apply_mutations("nope", &[Mutation::AddVertex]).unwrap_err();
    assert!(err.is_kind(ErrorKind::NotFound), "{err}");
    let err = client.watch_scores("gplus", 99_999).unwrap_err();
    assert!(err.is_kind(ErrorKind::NotFound), "{err}");
    // In-memory snapshots have no CKS1 file to fold a WAL into.
    let err = client.compact("gplus").unwrap_err();
    assert!(err.is_kind(ErrorKind::BadRequest), "{err}");

    let stats = client.stats().unwrap();
    assert!(get_u64(&stats, "mutations_rejected") >= 1, "{stats}");

    server.shutdown_handle().trigger();
    server.join();
}

/// The satellite property: LRU invalidation and eviction accounting stay
/// consistent while mutating and scoring connections race. The capacity
/// is deliberately tiny so evictions and invalidations both occur.
#[test]
fn concurrent_mutators_and_scorers_keep_cache_accounting_consistent() {
    let config = ServeConfig { workers: 4, cache_capacity: 8, ..ServeConfig::default() };
    let (server, data) = start_server(config);
    let addr = server.local_addr();
    let groups = data.groups.len().min(6);

    std::thread::scope(|scope| {
        // Three scorers hammer the same groups with full-path requests.
        for s in 0..3 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..30 {
                    let g = (s + i) % groups;
                    let response = client.score_group("gplus", g, Some("paper"), None).unwrap();
                    assert!(wire::get(&response, "scores").is_some());
                }
            });
        }
        // Two mutators commit always-valid batches and read the watch
        // path between commits.
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..15 {
                    let response =
                        client.apply_mutations("gplus", &[Mutation::AddVertex]).unwrap();
                    assert_eq!(get_u64(&response, "applied"), 1);
                    if i % 5 == 0 {
                        let watched = client.watch_scores("gplus", 0).unwrap();
                        assert!(wire::get(&watched, "version").is_some());
                    }
                }
            });
        }
    });

    // Deterministic tail on a quiet server: 3 groups × 4 paper functions
    // are 12 distinct keys, so an 8-entry cache must evict at least 4.
    let mut client = Client::connect(addr).unwrap();
    for g in 0..3 {
        client.score_group("gplus", g, Some("paper"), None).unwrap();
    }
    // Group 2 was inserted last; its entries are still resident.
    let warm = client.score_group("gplus", 2, Some("paper"), None).unwrap();
    assert!(matches!(wire::get(&warm, "cached"), Some(Value::Bool(true))), "{warm}");

    // A commit invalidates every resident entry (all 8 are now stale).
    let response = client.apply_mutations("gplus", &[Mutation::AddVertex]).unwrap();
    assert_eq!(get_u64(&response, "cache_invalidated"), 8, "{response}");
    let cold = client.score_group("gplus", 2, Some("paper"), None).unwrap();
    assert!(matches!(wire::get(&cold, "cached"), Some(Value::Bool(false))), "{cold}");

    // The incremental and full paths still agree bit for bit.
    for g in 0..groups {
        let full = client.score_group("gplus", g, Some("paper"), None).unwrap();
        let full_bits = bits(&Client::scores_of(&full).unwrap());
        assert_eq!(watch_bits(&mut client, "gplus", g), full_bits, "group {g}");
    }

    server.shutdown_handle().trigger();
    let stats = server.join();
    assert!(stats.mutations_applied >= 31, "{stats:?}");
    assert!(stats.cache.evictions >= 4, "{stats:?}");
    assert!(stats.cache.invalidations >= 8, "{stats:?}");
    assert!(stats.cache.entries <= 8, "{stats:?}");
    assert!(stats.queue_depth_max >= 1, "{stats:?}");
    assert_eq!(stats.ok_responses + stats.error_responses, stats.requests, "{stats:?}");
}

/// A commit is published before it is acknowledged: the listing read
/// straight after the ack already describes the committed graph.
#[test]
fn list_snapshots_shows_the_committed_state() {
    let (server, data) = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let n = data.graph.node_count() as u32;
    let batch = [Mutation::AddVertex, Mutation::AddEdge { u: n, v: 0 }];
    let ack = client.apply_mutations("gplus", &batch).unwrap();
    assert_eq!(get_u64(&ack, "applied"), 2, "{ack}");
    assert_eq!(get_u64(&ack, "version"), 1, "{ack}");

    let listing = client.list_snapshots().unwrap();
    let Some(Value::Seq(snapshots)) = wire::get(&listing, "snapshots") else {
        panic!("listing lacks snapshots: {listing}");
    };
    assert_eq!(snapshots.len(), 1, "{listing}");
    let entry = &snapshots[0];
    assert_eq!(get_u64(entry, "nodes"), u64::from(n) + 1, "{listing}");
    assert_eq!(
        get_u64(entry, "edges"),
        data.graph.edge_count() as u64 + 1,
        "{listing}"
    );
    assert_eq!(get_u64(entry, "version"), 1, "{listing}");

    server.shutdown_handle().trigger();
    server.join();
}

#[test]
fn wal_survives_restart_and_compaction_preserves_scores() {
    let dir = std::env::temp_dir().join("circlekit-serve-live-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("restart-{}.cks", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));

    let data = fixture();
    let groups: Vec<VertexSet> = data.groups.iter().take(4).cloned().collect();
    circlekit_store::save_snapshot(&path, &data.graph, &groups).unwrap();
    let n = data.graph.node_count() as u32;

    // Server 1: commit guaranteed-valid mutations, record every group's
    // watch scores, and exit without compacting — the WAL is the only
    // record of the mutations.
    let mutations = vec![
        Mutation::AddVertex,
        Mutation::AddVertex,
        Mutation::AddEdge { u: n, v: n + 1 },
        Mutation::AddMember { group: 0, node: n },
    ];
    let expected: Vec<Vec<u64>> = {
        let mut registry = SnapshotRegistry::new();
        registry.load(&path_str, Some("disk")).unwrap();
        let server = Server::start(registry, ServeConfig::default(), ("127.0.0.1", 0)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let response = client.apply_mutations("disk", &mutations).unwrap();
        assert_eq!(get_u64(&response, "applied"), mutations.len() as u64);
        assert_eq!(get_u64(&response, "wal_records"), mutations.len() as u64);
        let expected =
            (0..groups.len()).map(|g| watch_bits(&mut client, "disk", g)).collect();
        server.shutdown_handle().trigger();
        server.join();
        expected
    };
    assert!(wal_path_for(&path).exists(), "the WAL must outlive the server");

    // Server 2: startup adopts the WAL, so both score paths serve the
    // pre-restart state; compaction folds the log without moving scores.
    {
        let mut registry = SnapshotRegistry::new();
        registry.load(&path_str, Some("disk")).unwrap();
        let server = Server::start(registry, ServeConfig::default(), ("127.0.0.1", 0)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (g, want) in expected.iter().enumerate() {
            assert_eq!(&watch_bits(&mut client, "disk", g), want, "group {g} after restart");
            let full = client.score_group("disk", g, Some("paper"), None).unwrap();
            assert_eq!(&bits(&Client::scores_of(&full).unwrap()), want, "full path, group {g}");
        }
        let listing = client.list_snapshots().unwrap().to_string();
        assert!(
            listing.contains(&format!("\"version\":{}", mutations.len())),
            "adoption reports the replayed version: {listing}"
        );

        let response = client.compact("disk").unwrap();
        assert_eq!(get_u64(&response, "folded_records"), mutations.len() as u64);
        assert!(!wal_path_for(&path).exists(), "compaction unlinks the WAL");
        for (g, want) in expected.iter().enumerate() {
            assert_eq!(&watch_bits(&mut client, "disk", g), want, "group {g} after compact");
        }
        server.shutdown_handle().trigger();
        server.join();
    }

    // Server 3: a clean start from the compacted snapshot alone.
    {
        let mut registry = SnapshotRegistry::new();
        registry.load(&path_str, Some("disk")).unwrap();
        let server = Server::start(registry, ServeConfig::default(), ("127.0.0.1", 0)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for (g, want) in expected.iter().enumerate() {
            assert_eq!(&watch_bits(&mut client, "disk", g), want, "group {g} after compact");
        }
        server.shutdown_handle().trigger();
        server.join();
    }

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
    let _ = std::fs::remove_file(Path::new(&format!("{path_str}.tmp")));
}
