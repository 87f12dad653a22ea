//! The scoring kernel's contract: every backing and topology the daemon
//! scores through gives the definitions-based reference's `SetStats`, all
//! 13 fields, f64 by bits, and the daemon itself serves the 13 scores of
//! those stats, over JSON and over CKP1, scored afresh and replayed from
//! its cache. The corpus is the google+
//! preset at scale 0.02, seed 2014 — the `reproduce all --scale 0.02`
//! input — with its circles, 100 seeded walk sets sized like them, an
//! empty set and a singleton.

#[path = "../crates/scoring/tests/support/reference.rs"]
mod reference;

use circlekit::graph::{Graph, NodeId, VertexSet};
use circlekit::live::{LiveSnapshot, Mutation};
use circlekit::sampling::size_matched_random_walk_sets_seeded;
use circlekit::scoring::{median_degree, PagedScorer, ScoringFunction, SetStats};
use circlekit::shard::{compute_partial, manifest_for, reduce_partials, shard_graph};
use circlekit::store::{
    save_cks2_snapshot, save_snapshot, Cks2PackOptions, MappedSnapshot, SnapshotBase,
};
use circlekit::synth::presets;
use circlekit_serve::{Client, ServeConfig, Server, SnapshotRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference::reference_stats;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 2014;

/// The median of the total-degree sequence, by sorting it.
fn reference_median(g: &Graph) -> f64 {
    let mut degrees: Vec<usize> = (0..g.node_count() as NodeId).map(|v| g.degree(v)).collect();
    degrees.sort_unstable();
    match degrees.len() {
        0 => 0.0,
        n if n % 2 == 1 => degrees[n / 2] as f64,
        n => (degrees[n / 2 - 1] + degrees[n / 2]) as f64 / 2.0,
    }
}

fn assert_same_bits(got: &SetStats, want: &SetStats, what: &str) {
    assert_eq!(got, want, "{what}");
    let floats = |s: &SetStats| [s.max_odf, s.avg_odf, s.flake_odf].map(f64::to_bits);
    assert_eq!(floats(got), floats(want), "{what}: f64 bits");
}

/// The circles, 100 walk sets sized like them, an empty set and a
/// singleton.
fn corpus_sets(graph: &Graph, circles: &[VertexSet], seed: u64) -> Vec<VertexSet> {
    let sizes: Vec<usize> = (0..100).map(|k| circles[k % circles.len()].len()).collect();
    let mut sets = circles.to_vec();
    sets.extend(size_matched_random_walk_sets_seeded(graph, &sizes, seed));
    sets.push(VertexSet::default());
    sets.push(VertexSet::from_vec(vec![graph.node_count() as NodeId / 2]));
    sets
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("circlekit-kernel-contract");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn every_backing_matches_the_definitions() {
    let data = presets::google_plus()
        .scaled(0.02)
        .generate(&mut SmallRng::seed_from_u64(SEED));
    let graph = &data.graph;
    assert!(graph.is_directed() && !data.groups.is_empty());
    let median = reference_median(graph);
    let sets = corpus_sets(graph, &data.groups, SEED);
    let want: Vec<SetStats> = sets
        .iter()
        .map(|s| reference_stats(graph, s, median))
        .collect();

    assert_eq!(
        median_degree(graph).to_bits(),
        median.to_bits(),
        "CSR median"
    );
    for (i, set) in sets.iter().enumerate() {
        assert_same_bits(
            &SetStats::compute(graph, set, median),
            &want[i],
            &format!("CSR, set {i}"),
        );
    }

    let cks1 = scratch_file("base.cks");
    save_snapshot(&cks1, graph, &data.groups).unwrap();
    let (base, stored) = SnapshotBase::open(&cks1).unwrap();
    std::fs::remove_file(&cks1).unwrap();
    assert_eq!(stored, data.groups);
    assert_eq!(
        median_degree(&base).to_bits(),
        median.to_bits(),
        "CKS1 median"
    );
    for (i, set) in sets.iter().enumerate() {
        let got = SetStats::compute(&base, set, median);
        assert_same_bits(&got, &want[i], &format!("mapped CKS1, set {i}"));
    }

    let served = scratch_file("served.cks");
    save_snapshot(&served, graph, &data.groups).unwrap();
    let load = || {
        let mut registry = SnapshotRegistry::new();
        registry
            .load(served.to_str().unwrap(), Some("gplus"))
            .unwrap();
        registry
    };
    let registries = [load(), load()];
    std::fs::remove_file(&served).unwrap();
    // Without a cache each wire mode's answers come from the kernel. With
    // one, each set is asked twice and the second answer is a hit the
    // event loop replays, which must carry the same bits.
    let capacities = [0, ServeConfig::default().cache_capacity];
    for (registry, cache_capacity) in registries.into_iter().zip(capacities) {
        let config = ServeConfig {
            cache_capacity,
            ..ServeConfig::default()
        };
        let server = Server::start(registry, config, ("127.0.0.1", 0)).unwrap();
        let asks = if cache_capacity == 0 { 1 } else { 2 };
        for binary in [false, true] {
            let mut client = Client::connect(server.local_addr()).unwrap();
            client.set_binary(binary);
            for (i, set) in sets.iter().enumerate() {
                for ask in 0..asks {
                    let response = client
                        .score_set("gplus", set.as_slice(), Some("all"), None)
                        .unwrap();
                    let got = Client::scores_of(&response)
                        .unwrap()
                        .into_iter()
                        .map(f64::to_bits);
                    let want = ScoringFunction::ALL.map(|f| f.score(&want[i]).to_bits());
                    let what = format!(
                        "daemon over {}, cache {cache_capacity}, set {i}, ask {ask}",
                        if binary { "CKP1" } else { "JSON" }
                    );
                    assert_eq!(got.collect::<Vec<_>>(), want, "{what}");
                    if ask == 1 {
                        let cached = circlekit_serve::protocol::wire::get(&response, "cached")
                            .map(ToString::to_string);
                        assert_eq!(cached.as_deref(), Some("true"), "{what}");
                    }
                }
            }
        }
        server.shutdown_handle().trigger();
        server.join();
    }

    let cks2 = scratch_file("paged.cks2");
    save_cks2_snapshot(&cks2, graph, &data.groups, &Cks2PackOptions::default()).unwrap();
    let mapped = MappedSnapshot::open(&cks2).unwrap();
    std::fs::remove_file(&cks2).unwrap();
    let view = mapped.view2().unwrap();
    let paged = view.paged().unwrap();
    let scorer = PagedScorer::new(&paged).unwrap();
    assert_eq!(
        scorer.median_degree().to_bits(),
        median.to_bits(),
        "CKS2 median"
    );
    for (i, set) in sets.iter().enumerate() {
        let got = scorer.stats(set).unwrap();
        assert_same_bits(&got, &want[i], &format!("CKS2 paged, set {i}"));
    }

    for shard_count in [1, 3] {
        let shards: Vec<_> = (0..shard_count)
            .map(|i| {
                let manifest = manifest_for(graph, median, 0, shard_count, i);
                (shard_graph(graph, shard_count, i), manifest)
            })
            .collect();
        for (i, set) in sets.iter().enumerate() {
            let partials: Vec<_> = shards
                .iter()
                .map(|(sub, manifest)| compute_partial(sub, manifest, set))
                .collect();
            let got = reduce_partials(&shards[0].1, true, set.len(), &partials).unwrap();
            assert_same_bits(&got, &want[i], &format!("{shard_count} shards, set {i}"));
        }
    }

    let mut live = LiveSnapshot::over(Arc::new(base), stored);
    mutate(&mut live, graph, SEED);
    let materialized = live.materialize();
    let median = reference_median(&materialized);
    assert_eq!(
        live.median_degree().to_bits(),
        median.to_bits(),
        "maintained median"
    );
    let composed = live.graph();
    assert_eq!(
        median_degree(&composed).to_bits(),
        median.to_bits(),
        "composed median"
    );
    let mut sets = corpus_sets(&materialized, live.groups(), SEED + 1);
    let added: Vec<NodeId> = (graph.node_count()..materialized.node_count())
        .map(|v| v as NodeId)
        .collect();
    assert!(!added.is_empty(), "the history adds vertices");
    sets.push(added.into_iter().chain(sets[0].iter()).collect());
    for (i, set) in sets.iter().enumerate() {
        let Ok(got) = SetStats::compute_access(&composed, set, median);
        let want = reference_stats(&materialized, set, median);
        assert_same_bits(&got, &want, &format!("composed overlay, set {i}"));
    }
}

/// A seeded history of 400 mutations over `live`: removals of base
/// edges, additions between random vertices (some new) and membership
/// changes. Rejected draws leave the snapshot as it was.
fn mutate(live: &mut LiveSnapshot, base: &Graph, seed: u64) {
    let edges: Vec<(NodeId, NodeId)> = base.edges().collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut applied = 0;
    for _ in 0..400 {
        let n = live.node_count() as NodeId;
        let groups = live.groups().len() as u32;
        let m = match rng.gen_range(0..8u32) {
            0..=2 => {
                let (u, v) = edges[rng.gen_range(0..edges.len())];
                Mutation::RemoveEdge { u, v }
            }
            3..=5 => Mutation::AddEdge {
                u: rng.gen_range(0..n),
                v: rng.gen_range(0..n),
            },
            6 => Mutation::AddVertex,
            _ => Mutation::AddMember {
                group: rng.gen_range(0..groups),
                node: rng.gen_range(0..n),
            },
        };
        applied += live.apply(&[m]).expect("in-memory apply").applied;
    }
    assert!(applied > 300, "only {applied} of 400 mutations applied");
}
