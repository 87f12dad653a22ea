//! Graph samplers.
//!
//! §V-A of *"Are Circles Communities?"* builds its baseline by comparing
//! circles against "randomly selected sets from the graph with the same
//! size as the circles", sampled "by performing random walks on the graph
//! … restarted whenever no new neighbour is available". [`random_walk_set`]
//! implements exactly that procedure; [`uniform_set`] is the ablation
//! alternative, and the crawl samplers reproduce the two crawl strategies
//! the paper contrasts in Table II (ego-crawl vs BFS).
//!
//! ```
//! use circlekit_graph::Graph;
//! use circlekit_sampling::random_walk_set;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = Graph::from_edges(false, (0..50u32).map(|i| (i, (i + 1) % 50)));
//! let mut rng = SmallRng::seed_from_u64(1);
//! let set = random_walk_set(&g, 10, &mut rng);
//! assert_eq!(set.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use circlekit_graph::{
    AdjacencyAccess, Direction, Graph, Interrupted, Neighbors, NodeId, RunControl, VertexSet,
};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::convert::Infallible;

/// Fault-injection hooks for the robustness test-suite: stall a chosen
/// walk for a finite duration, long enough for a soft deadline to expire
/// at the next cooperative checkpoint. Compiled only under
/// `--features fault-inject`.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    /// Walk index armed to stall; `-1` means disarmed.
    static STALL_WALK: AtomicI64 = AtomicI64::new(-1);
    /// How long the armed walk sleeps, in milliseconds.
    static STALL_MILLIS: AtomicU64 = AtomicU64::new(0);

    /// Arms a one-shot stall of `millis` ms before walk `index` runs.
    pub fn arm_walk_stall(index: usize, millis: u64) {
        STALL_MILLIS.store(millis, Ordering::SeqCst);
        STALL_WALK.store(index as i64, Ordering::SeqCst);
    }

    /// Disarms any armed stall. Idempotent; call from test cleanup.
    pub fn disarm() {
        STALL_WALK.store(-1, Ordering::SeqCst);
        STALL_MILLIS.store(0, Ordering::SeqCst);
    }

    /// Sampler-side hook: sleeps once if `index` is armed.
    pub(crate) fn maybe_stall(index: usize) {
        let armed = STALL_WALK.load(Ordering::SeqCst);
        if armed >= 0
            && armed as usize == index
            && STALL_WALK
                .compare_exchange(armed, -1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            std::thread::sleep(std::time::Duration::from_millis(
                STALL_MILLIS.load(Ordering::SeqCst),
            ));
        }
    }
}

/// Samples a vertex set of exactly `size` vertices by random walking
/// (following edges in either orientation), restarting from a fresh random
/// vertex whenever the walk gets stuck — the paper's §V-A baseline
/// procedure.
///
/// The result is clamped to `min(size, node_count)`.
///
/// # Panics
///
/// Panics if the graph has no nodes and `size > 0`.
pub fn random_walk_set<A, R>(graph: &A, size: usize, rng: &mut R) -> VertexSet
where
    A: AdjacencyAccess<Error = Infallible>,
    R: Rng + ?Sized,
{
    let n = graph.node_count();
    let size = size.min(n);
    if size == 0 {
        return VertexSet::new();
    }
    assert!(n > 0, "cannot sample from an empty graph");
    // Pre-shuffled restart order guarantees termination: every restart
    // lands on a vertex not yet in the set.
    let mut restart_order: Vec<NodeId> = (0..n as NodeId).collect();
    restart_order.shuffle(rng);
    let mut restart_cursor = 0usize;
    let mut restart = |set: &VertexSet| -> NodeId {
        while restart_cursor < restart_order.len() {
            let v = restart_order[restart_cursor];
            restart_cursor += 1;
            if !set.contains(v) {
                return v;
            }
        }
        unreachable!("restart requested with every vertex already sampled")
    };

    let mut set = VertexSet::new();
    let mut current = restart(&set);
    set.insert(current);
    while set.len() < size {
        // Collect unvisited neighbours (either orientation — the walk
        // explores the underlying undirected structure).
        let fresh = unvisited_neighbors(graph, current, &set);
        if let Some(&next) = fresh.choose(rng) {
            set.insert(next);
            current = next;
        } else {
            // "The walk is restarted whenever no new neighbour is
            // available": jump to a fresh vertex.
            current = restart(&set);
            set.insert(current);
        }
    }
    set
}

/// The neighbours of `v` in either orientation that `set` lacks, in the
/// order [`Graph::neighbors`] yields them with [`Direction::Both`]: the
/// sorted, deduplicated merge of the out- and in-lists.
fn unvisited_neighbors<A: AdjacencyAccess<Error = Infallible>>(
    graph: &A,
    v: NodeId,
    set: &VertexSet,
) -> Vec<NodeId> {
    let unvisited = |nbrs: Neighbors<'_>| nbrs.filter(|&w| !set.contains(w)).collect();
    let Ok(fresh) = graph.with_out_neighbors(v, |out| {
        if !graph.is_directed() {
            return unvisited(Neighbors::Slice(out.iter()));
        }
        let Ok(fresh) = graph.with_in_neighbors(v, |inn| {
            unvisited(Neighbors::Merged {
                a: out,
                b: inn,
                i: 0,
                j: 0,
            })
        });
        fresh
    });
    fresh
}

/// Samples `size` distinct vertices uniformly at random (the ablation
/// baseline contrasted with [`random_walk_set`]).
///
/// The result is clamped to `min(size, node_count)`.
pub fn uniform_set<R: Rng + ?Sized>(graph: &Graph, size: usize, rng: &mut R) -> VertexSet {
    let n = graph.node_count();
    let size = size.min(n);
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    ids.shuffle(rng);
    ids.truncate(size);
    VertexSet::from_vec(ids)
}

/// Breadth-first crawl from `start`, following out-edges then in-edges as
/// one frontier (the strategy of Magno et al.'s Google+ crawl), stopping
/// once `limit` vertices are collected.
///
/// Returns the crawled vertex set (including `start`).
///
/// # Panics
///
/// Panics if `start >= node_count()`.
pub fn bfs_crawl(graph: &Graph, start: NodeId, limit: usize) -> VertexSet {
    assert!((start as usize) < graph.node_count(), "start out of range");
    let mut set = VertexSet::new();
    if limit == 0 {
        return set;
    }
    let mut queue = VecDeque::new();
    queue.push_back(start);
    set.insert(start);
    while let Some(u) = queue.pop_front() {
        if set.len() >= limit {
            break;
        }
        for v in graph.neighbors(u, Direction::Both) {
            if set.len() >= limit {
                break;
            }
            if set.insert(v) {
                queue.push_back(v);
            }
        }
    }
    set
}

/// Ego crawl: collects the union of the ego networks of `owners` (the
/// McAuley–Leskovec crawl strategy — predefined users plus everyone in
/// their ego networks).
///
/// # Panics
///
/// Panics if an owner id is `>= node_count()`.
pub fn ego_crawl(graph: &Graph, owners: &[NodeId]) -> VertexSet {
    let mut set = VertexSet::new();
    for &owner in owners {
        set = set.union(&graph.ego_network(owner));
    }
    set
}

/// Forest-fire sampling (Leskovec & Faloutsos): from a random ember, burn
/// outward — at each burned node, a geometrically distributed number of
/// unburned neighbours (mean `p / (1 - p)`) catches fire. Restarts from a
/// fresh ember when the fire dies before `size` nodes are burned.
///
/// Forest fires are the classic model of *crawler bias*: they produce
/// samples between the BFS extreme (wide, shallow) and the random-walk
/// extreme (deep, narrow) — the axis on which the paper's Table II
/// contrasts the McAuley and Magno corpora.
///
/// The result is clamped to `min(size, node_count)`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1)`, or if the graph is empty and
/// `size > 0`.
pub fn forest_fire_set<R: Rng + ?Sized>(
    graph: &Graph,
    size: usize,
    p: f64,
    rng: &mut R,
) -> VertexSet {
    assert!((0.0..1.0).contains(&p), "burn probability must be in [0, 1)");
    let n = graph.node_count();
    let size = size.min(n);
    if size == 0 {
        return VertexSet::new();
    }
    assert!(n > 0, "cannot sample from an empty graph");
    let mut burned = VertexSet::new();
    let mut frontier: VecDeque<NodeId> = VecDeque::new();
    while burned.len() < size {
        if frontier.is_empty() {
            // Ignite a fresh random ember.
            let ember = rng.gen_range(0..n) as NodeId;
            if burned.insert(ember) {
                frontier.push_back(ember);
            } else if burned.len() >= n {
                break;
            } else {
                continue;
            }
        }
        let v = frontier.pop_front().expect("non-empty frontier");
        // Geometric number of new burns: keep burning while coin shows p.
        let fresh: Vec<NodeId> = graph
            .neighbors(v, Direction::Both)
            .filter(|&w| !burned.contains(w))
            .collect();
        let mut burn_count = 0usize;
        while burn_count < fresh.len() && rng.gen::<f64>() < p {
            burn_count += 1;
        }
        for &w in fresh.choose_multiple(rng, burn_count) {
            if burned.len() >= size {
                break;
            }
            if burned.insert(w) {
                frontier.push_back(w);
            }
        }
    }
    burned
}

/// Samples one size-matched random-walk set per input set — the exact
/// shape of the paper's Figure 5 baseline ("random sets … with the same
/// size as the circles").
pub fn size_matched_random_walk_sets<R: Rng + ?Sized>(
    graph: &Graph,
    sizes: &[usize],
    rng: &mut R,
) -> Vec<VertexSet> {
    sizes
        .iter()
        .map(|&s| random_walk_set(graph, s, rng))
        .collect()
}

/// Derives the RNG seed of walk `index` from `root_seed` (a SplitMix64
/// finalizer over the pair). Each walk gets its own stream, so the sample
/// for a given `(root_seed, index)` does not depend on which thread — or
/// how many threads — produced it.
fn stream_seed(root_seed: u64, index: u64) -> u64 {
    let mut z = root_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the stream-seeded walk at `index`, firing the fault-injection
/// stall hook first when that build feature is on.
fn seeded_walk<A: AdjacencyAccess<Error = Infallible>>(
    graph: &A,
    size: usize,
    root_seed: u64,
    index: u64,
) -> VertexSet {
    #[cfg(feature = "fault-inject")]
    fault::maybe_stall(index as usize);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(stream_seed(root_seed, index));
    random_walk_set(graph, size, &mut rng)
}

/// Like [`size_matched_random_walk_sets`], but each walk draws from its
/// own RNG stream derived from `root_seed` and the walk's index. This is
/// the sequential reference for
/// [`size_matched_random_walk_sets_parallel`], which produces identical
/// output for every thread count.
pub fn size_matched_random_walk_sets_seeded<A: AdjacencyAccess<Error = Infallible>>(
    graph: &A,
    sizes: &[usize],
    root_seed: u64,
) -> Vec<VertexSet> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| seeded_walk(graph, s, root_seed, i as u64))
        .collect()
}

/// Samples the size-matched random-walk baseline on `threads` scoped
/// worker threads, one independent chunk of walks per worker.
///
/// Per-walk RNG streams are keyed by `(root_seed, walk index)` alone, so
/// the output is identical to [`size_matched_random_walk_sets_seeded`]
/// regardless of `threads` — parallelism changes wall-clock time, never
/// the sample.
///
/// # Panics
///
/// Panics if `threads == 0`, or if the graph is empty and some size is
/// positive.
pub fn size_matched_random_walk_sets_parallel<A: AdjacencyAccess<Error = Infallible> + Sync>(
    graph: &A,
    sizes: &[usize],
    root_seed: u64,
    threads: usize,
) -> Vec<VertexSet> {
    let control = RunControl::new();
    size_matched_random_walk_sets_parallel_with_control(graph, sizes, root_seed, threads, &control)
        .expect("a run without a deadline or a cancel flag is never interrupted")
}

/// Cancellable [`size_matched_random_walk_sets_parallel`]: every worker
/// observes `control` before each walk, so a cancel or an elapsed soft
/// deadline stops the whole sample within one walk's work.
///
/// An uninterrupted run returns exactly the sets of the uncontrolled
/// variant — per-walk RNG streams are keyed by `(root_seed, index)`
/// alone, so neither the thread count nor the control change the sample.
///
/// # Errors
///
/// Returns [`Interrupted`] if the run was stopped. Sampled sets feed
/// directly into set scoring where a shortened batch would silently skew
/// the baseline, so no partial sample is returned.
///
/// # Panics
///
/// Panics if `threads == 0`, or if the graph is empty and some size is
/// positive.
pub fn size_matched_random_walk_sets_parallel_with_control<
    A: AdjacencyAccess<Error = Infallible> + Sync,
>(
    graph: &A,
    sizes: &[usize],
    root_seed: u64,
    threads: usize,
    control: &RunControl,
) -> Result<Vec<VertexSet>, Interrupted> {
    assert!(threads > 0, "need at least one thread");
    if sizes.is_empty() {
        return Ok(Vec::new());
    }
    let chunk_size = sizes.len().div_ceil(threads).max(1);
    crossbeam::scope(|scope| {
        let handles: Vec<_> = sizes
            .chunks(chunk_size)
            .enumerate()
            .map(|(chunk_index, chunk)| {
                scope.spawn(move |_| {
                    let mut out = Vec::with_capacity(chunk.len());
                    for (offset, &s) in chunk.iter().enumerate() {
                        control.check()?;
                        let index = (chunk_index * chunk_size + offset) as u64;
                        out.push(seeded_walk(graph, s, root_seed, index));
                    }
                    Ok::<Vec<VertexSet>, Interrupted>(out)
                })
            })
            .collect();
        let mut sets = Vec::with_capacity(sizes.len());
        let mut interrupted = None;
        for handle in handles {
            match handle.join().expect("sampling worker panicked") {
                Ok(chunk_sets) => sets.extend(chunk_sets),
                Err(why) => interrupted = Some(interrupted.unwrap_or(why)),
            }
        }
        match interrupted {
            Some(why) => Err(why),
            None => Ok(sets),
        }
    })
    .expect("sampling scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ring(n: u32) -> Graph {
        Graph::from_edges(false, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn random_walk_set_has_exact_size() {
        let g = ring(100);
        let mut rng = SmallRng::seed_from_u64(1);
        for size in [1usize, 5, 50, 100] {
            assert_eq!(random_walk_set(&g, size, &mut rng).len(), size);
        }
    }

    #[test]
    fn random_walk_set_clamps_to_node_count() {
        let g = ring(10);
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(random_walk_set(&g, 500, &mut rng).len(), 10);
    }

    #[test]
    fn random_walk_on_connected_graph_is_mostly_connected() {
        // On a ring, a never-restarting walk collects a contiguous arc, so
        // the induced subgraph has size-1 edges.
        let g = ring(200);
        let mut rng = SmallRng::seed_from_u64(3);
        let set = random_walk_set(&g, 30, &mut rng);
        let sub = g.subgraph(&set).unwrap();
        assert!(sub.graph().edge_count() >= 25, "walk should follow edges");
    }

    #[test]
    fn random_walk_handles_edgeless_graph() {
        let mut b = circlekit_graph::GraphBuilder::undirected();
        b.reserve_nodes(20);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(4);
        let set = random_walk_set(&g, 7, &mut rng);
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn random_walk_zero_size() {
        let g = ring(5);
        let mut rng = SmallRng::seed_from_u64(5);
        assert!(random_walk_set(&g, 0, &mut rng).is_empty());
    }

    #[test]
    fn uniform_set_sizes_and_distinctness() {
        let g = ring(50);
        let mut rng = SmallRng::seed_from_u64(6);
        let set = uniform_set(&g, 20, &mut rng);
        assert_eq!(set.len(), 20);
        assert_eq!(uniform_set(&g, 500, &mut rng).len(), 50);
    }

    #[test]
    fn bfs_crawl_collects_ball() {
        let g = ring(100);
        let set = bfs_crawl(&g, 0, 11);
        assert_eq!(set.len(), 11);
        // A BFS ball on the ring is the contiguous window around 0.
        for v in [0u32, 1, 2, 3, 4, 5, 95, 96, 97, 98, 99] {
            assert!(set.contains(v), "missing {v}");
        }
    }

    #[test]
    fn bfs_crawl_respects_component_boundary() {
        let g = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (5, 6)]);
        let set = bfs_crawl(&g, 0, 100);
        assert_eq!(set.as_slice(), &[0, 1, 2]);
    }

    #[test]
    fn bfs_crawl_directed_uses_both_orientations() {
        let g = Graph::from_edges(true, [(1u32, 0u32), (1, 2)]);
        let set = bfs_crawl(&g, 0, 3);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn ego_crawl_unions_ego_networks() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (0, 2), (3, 4), (3, 1)]);
        let set = ego_crawl(&g, &[0, 3]);
        assert_eq!(set.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn forest_fire_exact_size_and_clamping() {
        let g = ring(80);
        let mut rng = SmallRng::seed_from_u64(8);
        for size in [1usize, 10, 40] {
            assert_eq!(forest_fire_set(&g, size, 0.5, &mut rng).len(), size);
        }
        assert_eq!(forest_fire_set(&g, 500, 0.5, &mut rng).len(), 80);
        assert!(forest_fire_set(&g, 0, 0.5, &mut rng).is_empty());
    }

    #[test]
    fn forest_fire_survives_edgeless_graph() {
        let mut b = circlekit_graph::GraphBuilder::undirected();
        b.reserve_nodes(10);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(9);
        assert_eq!(forest_fire_set(&g, 4, 0.7, &mut rng).len(), 4);
    }

    #[test]
    fn forest_fire_zero_p_degenerates_to_uniform_embers() {
        // p = 0 never spreads: every burned node is a fresh ember.
        let g = ring(50);
        let mut rng = SmallRng::seed_from_u64(10);
        let set = forest_fire_set(&g, 20, 0.0, &mut rng);
        assert_eq!(set.len(), 20);
    }

    #[test]
    fn forest_fire_high_p_burns_locally() {
        // With aggressive spread the burned set is largely connected.
        let g = ring(200);
        let mut rng = SmallRng::seed_from_u64(11);
        let set = forest_fire_set(&g, 30, 0.9, &mut rng);
        let sub = g.subgraph(&set).unwrap();
        let cc = circlekit_graph::connected_components(sub.graph());
        assert!(cc.component_count() <= 6, "{} components", cc.component_count());
    }

    #[test]
    #[should_panic(expected = "burn probability")]
    fn forest_fire_rejects_p_one() {
        let g = ring(5);
        let mut rng = SmallRng::seed_from_u64(12);
        forest_fire_set(&g, 3, 1.0, &mut rng);
    }

    #[test]
    fn size_matched_sets_match_sizes() {
        let g = ring(60);
        let mut rng = SmallRng::seed_from_u64(7);
        let sizes = [3usize, 10, 25];
        let sets = size_matched_random_walk_sets(&g, &sizes, &mut rng);
        assert_eq!(sets.len(), 3);
        for (set, &s) in sets.iter().zip(&sizes) {
            assert_eq!(set.len(), s);
        }
    }

    #[test]
    fn seeded_sets_are_reproducible_and_size_matched() {
        let g = ring(60);
        let sizes = [3usize, 10, 25, 0, 60];
        let a = size_matched_random_walk_sets_seeded(&g, &sizes, 99);
        let b = size_matched_random_walk_sets_seeded(&g, &sizes, 99);
        assert_eq!(a, b);
        for (set, &s) in a.iter().zip(&sizes) {
            assert_eq!(set.len(), s.min(60));
        }
        // A different root seed gives a different sample.
        let c = size_matched_random_walk_sets_seeded(&g, &sizes, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_sets_invariant_to_thread_count() {
        let g = ring(80);
        let sizes: Vec<usize> = (0..37).map(|i| 1 + i % 12).collect();
        let reference = size_matched_random_walk_sets_seeded(&g, &sizes, 7);
        for threads in [1usize, 2, 3, 8, 64] {
            let got = size_matched_random_walk_sets_parallel(&g, &sizes, 7, threads);
            assert_eq!(reference, got, "threads={threads}");
        }
    }

    #[test]
    fn parallel_sets_empty_batch() {
        let g = ring(10);
        assert!(size_matched_random_walk_sets_parallel(&g, &[], 1, 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn parallel_sets_reject_zero_threads() {
        let g = ring(10);
        size_matched_random_walk_sets_parallel(&g, &[3], 1, 0);
    }

    #[test]
    fn controlled_sampler_matches_uncontrolled_when_uninterrupted() {
        let g = ring(80);
        let sizes: Vec<usize> = (0..23).map(|i| 1 + i % 9).collect();
        let reference = size_matched_random_walk_sets_seeded(&g, &sizes, 7);
        for threads in [1usize, 3, 8] {
            let got = size_matched_random_walk_sets_parallel_with_control(
                &g,
                &sizes,
                7,
                threads,
                &RunControl::new(),
            )
            .unwrap();
            assert_eq!(reference, got, "threads={threads}");
        }
        assert!(size_matched_random_walk_sets_parallel_with_control(
            &g,
            &[],
            7,
            4,
            &RunControl::new()
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn controlled_sampler_stops_on_cancel() {
        let g = ring(20);
        let control = RunControl::new();
        control.cancel_flag().cancel();
        assert_eq!(
            size_matched_random_walk_sets_parallel_with_control(&g, &[3, 4], 1, 2, &control),
            Err(Interrupted::Cancelled)
        );
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            assert!(seen.insert(stream_seed(2014, i)), "collision at index {i}");
        }
    }
}
