//! [`SnapshotRegistry`]: the snapshots a server instance keeps resident.
//!
//! Each snapshot's graph is resident once, as a shared [`SnapshotBase`]:
//! a CKS1 file stays mapped — validated once at load, every checksum and
//! every list, then served in place — and only inputs without a CKS1
//! mapping (in-memory inserts, CKS2 files) hold an owned graph. Every
//! reader — score batches, baseline walks, shard partials, ego views,
//! listings — takes the current [`LoadedSnapshot`] from the registry and
//! reads the composed graph it describes: the base plus a frozen copy of
//! the live overlay.
//!
//! Entries are immutable; live mutations never edit one in place. A
//! committed batch publishes the next entry — the same base `Arc`, the
//! overlay as committed, a higher [`LoadedSnapshot::version`] — through
//! [`SnapshotRegistry::replace`] before the write is acknowledged, so
//! jobs already holding the old `Arc` keep a consistent graph and every
//! later request sees the commit. Nothing is rebuilt.

use circlekit_graph::{Graph, VertexSet};
use circlekit_live::{Composed, DeltaOverlay, LiveSnapshot};
use circlekit_scoring::median_degree;
use circlekit_store::{ShardManifest, SnapshotBase};
use std::sync::{Arc, RwLock};

/// One resident snapshot version: the shared base graph, the overlay
/// composed over it, its groups, and the precomputed graph-level scoring
/// inputs.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Registry id (defaults to the file stem).
    pub id: String,
    /// Source path, `"<memory>"` for programmatically inserted graphs.
    pub path: String,
    /// The graph as loaded (or as last compacted), shared with the live
    /// state that mutates over it.
    pub base: Arc<SnapshotBase>,
    /// The committed mutations of this version, frozen.
    pub overlay: DeltaOverlay,
    /// The snapshot's group collections (possibly empty).
    pub groups: Vec<VertexSet>,
    /// Median total degree of the composed graph, precomputed for FOMD.
    /// On a shard sub-snapshot this is the *parent's* median (from the
    /// manifest), never the halo's own — partial FOMD terms must use the
    /// global threshold to reduce exactly.
    pub median_degree: f64,
    /// The shard manifest when this snapshot is a vertex-partitioned
    /// sub-snapshot (packed with `--shard`); `None` for ordinary
    /// snapshots. Its presence enables the `shard_stats` op and makes
    /// the snapshot immutable (mutating a shard would break its binding
    /// to the parent).
    pub shard: Option<ShardManifest>,
    /// Which live-mutation version this entry reflects: 0 as loaded,
    /// bumped once per committed mutation batch. Cache keys carry it, so
    /// scores computed against a superseded version can never answer a
    /// request against a newer one.
    pub version: u64,
}

impl LoadedSnapshot {
    /// The entry for `overlay` composed over `base` at `version`, whose
    /// composed graph has FOMD median `median_degree`.
    pub(crate) fn new(
        id: String,
        path: String,
        base: Arc<SnapshotBase>,
        overlay: DeltaOverlay,
        groups: Vec<VertexSet>,
        median_degree: f64,
        version: u64,
    ) -> LoadedSnapshot {
        // Shard sub-snapshots score against the parent's global median,
        // not the halo's own (see the `median_degree` field docs).
        let shard = base.shard_manifest();
        let median_degree = shard.map_or(median_degree, |m| m.parent_median_degree);
        LoadedSnapshot { id, path, base, overlay, groups, median_degree, shard, version }
    }

    /// The next entry of this snapshot: `live`'s committed state, at
    /// `version`. Costs a copy of the overlay and the groups; nothing
    /// proportional to the graph.
    pub(crate) fn successor(&self, live: &LiveSnapshot, version: u64) -> LoadedSnapshot {
        LoadedSnapshot::new(
            self.id.clone(),
            self.path.clone(),
            Arc::clone(live.base()),
            live.overlay().clone(),
            live.groups().to_vec(),
            live.median_degree(),
            version,
        )
    }

    /// The composed graph every reader scores, samples and walks.
    pub fn graph(&self) -> Composed<'_, SnapshotBase> {
        self.overlay.compose(&self.base)
    }
}

/// The set of snapshots a server answers queries about.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    entries: RwLock<Vec<Arc<LoadedSnapshot>>>,
}

impl SnapshotRegistry {
    /// An empty registry.
    pub fn new() -> SnapshotRegistry {
        SnapshotRegistry::default()
    }

    /// Loads a `.cks` file under `id` (pass `None` to use the file stem).
    ///
    /// # Errors
    ///
    /// A rendered message for open/validation failures or a duplicate id.
    pub fn load(&mut self, path: &str, id: Option<&str>) -> Result<(), String> {
        let id = match id {
            Some(id) => id.to_string(),
            None => std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .filter(|s| !s.is_empty())
                .ok_or_else(|| format!("cannot derive a snapshot id from path {path:?}"))?,
        };
        let (base, groups) = SnapshotBase::open(path).map_err(|e| format!("{path}: {e}"))?;
        self.insert_base(id, path.to_string(), base, groups)
    }

    /// Registers an in-memory graph (tests, `loadgen --synthetic`).
    ///
    /// # Errors
    ///
    /// A rendered message when `id` is already taken.
    pub fn insert(
        &mut self,
        id: impl Into<String>,
        graph: Graph,
        groups: Vec<VertexSet>,
    ) -> Result<(), String> {
        self.insert_base(id.into(), "<memory>".to_string(), graph.into(), groups)
    }

    fn insert_base(
        &mut self,
        id: String,
        path: String,
        base: SnapshotBase,
        groups: Vec<VertexSet>,
    ) -> Result<(), String> {
        if self.get(&id).is_some() {
            return Err(format!("duplicate snapshot id {id:?}"));
        }
        let overlay = DeltaOverlay::new(&base);
        let median = median_degree(&base);
        let entry = LoadedSnapshot::new(id, path, Arc::new(base), overlay, groups, median, 0);
        self.entries
            .write()
            .expect("registry lock")
            .push(Arc::new(entry));
        Ok(())
    }

    /// Looks a snapshot up by id, returning a shared handle to the
    /// current version.
    pub fn get(&self, id: &str) -> Option<Arc<LoadedSnapshot>> {
        self.entries.read().expect("registry lock").iter().find(|s| s.id == id).cloned()
    }

    /// Swaps the entry with `fresh.id` for `fresh` (appends when the id
    /// is new). Readers holding the old `Arc` are unaffected.
    pub fn replace(&self, fresh: Arc<LoadedSnapshot>) {
        let mut entries = self.entries.write().expect("registry lock");
        match entries.iter_mut().find(|s| s.id == fresh.id) {
            Some(slot) => *slot = fresh,
            None => entries.push(fresh),
        }
    }

    /// All snapshots, in load order.
    pub fn snapshots(&self) -> Vec<Arc<LoadedSnapshot>> {
        self.entries.read().expect("registry lock").clone()
    }

    /// Number of resident snapshots.
    pub fn len(&self) -> usize {
        self.entries.read().expect("registry lock").len()
    }

    /// Whether no snapshot is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circlekit_graph::AdjacencyAccess;
    use circlekit_scoring::Scorer;
    use circlekit_store::save_snapshot;

    fn tiny_graph() -> Graph {
        Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn insert_and_lookup() {
        let mut reg = SnapshotRegistry::new();
        reg.insert("a", tiny_graph(), vec![VertexSet::from_vec(vec![0, 1, 2])]).unwrap();
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let snap = reg.get("a").unwrap();
        assert_eq!(snap.graph().node_count(), 4);
        assert_eq!(snap.groups.len(), 1);
        assert!(snap.median_degree > 0.0);
        assert_eq!(snap.version, 0);
        assert!(reg.get("b").is_none());
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut reg = SnapshotRegistry::new();
        reg.insert("a", tiny_graph(), Vec::new()).unwrap();
        let err = reg.insert("a", tiny_graph(), Vec::new()).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn load_derives_id_from_file_stem() {
        let dir = std::env::temp_dir().join("circlekit-serve-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let directed = Graph::from_edges(true, [(0u32, 1u32), (0, 2), (2, 1), (3, 0)]);
        let mut reg = SnapshotRegistry::new();
        for (stem, g) in [("stem", tiny_graph()), ("dstem", directed)] {
            let path = dir.join(format!("{stem}.cks")).to_string_lossy().into_owned();
            save_snapshot(&path, &g, &[VertexSet::from_vec(vec![0, 1])]).unwrap();
            reg.load(&path, None).unwrap();
            let snap = reg.get(stem).unwrap();
            // The resident graph is the saved one: directedness, counts
            // and both sides of every adjacency list.
            let graph = snap.graph();
            assert_eq!(
                (graph.is_directed(), graph.node_count(), graph.edge_count()),
                (g.is_directed(), g.node_count(), g.edge_count())
            );
            for v in 0..g.node_count() as u32 {
                let Ok(out) = graph.with_out_neighbors(v, <[u32]>::to_vec);
                let Ok(inn) = graph.with_in_neighbors(v, <[u32]>::to_vec);
                assert_eq!(out, g.out_neighbors(v), "{stem}: out-list of {v}");
                assert_eq!(inn, g.in_neighbors(v), "{stem}: in-list of {v}");
            }
            assert_eq!(snap.path, path);
            // Median degree matches what the offline scorer computes.
            assert_eq!(snap.median_degree, Scorer::new(&g).median_degree());
        }
        // Explicit ids override the stem.
        let path = dir.join("stem.cks").to_string_lossy().into_owned();
        reg.load(&path, Some("alias")).unwrap();
        assert!(reg.get("alias").is_some());
        assert_eq!(reg.snapshots().len(), 3);
    }

    /// A CKS1 file of a small directed graph whose out-targets section
    /// is rewritten by `patch` and re-sealed with a valid checksum, so
    /// only the list checks behind the checksums can catch it.
    fn resealed_snapshot(name: &str, patch: impl FnOnce(&mut [u32])) -> String {
        let g = Graph::from_edges(true, [(0u32, 1u32), (0, 2), (1, 2), (2, 0), (2, 3)]);
        let dir = std::env::temp_dir().join("circlekit-serve-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.cks", std::process::id()));
        save_snapshot(&path, &g, &[]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Section 2 (out-targets) is the second section, after the
        // (n + 1) u64 out-offsets.
        let header = circlekit_store::HEADER_LEN + circlekit_store::SECTION_HEADER_LEN;
        let start = header + 5 * 8 + circlekit_store::SECTION_HEADER_LEN;
        let mut targets: Vec<u32> = bytes[start..start + 5 * 4]
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(targets, [1, 2, 2, 0, 3]);
        patch(&mut targets);
        for (k, t) in targets.iter().enumerate() {
            bytes[start + 4 * k..start + 4 * k + 4].copy_from_slice(&t.to_le_bytes());
        }
        let crc = circlekit_store::crc32(&bytes[start..start + 5 * 4]);
        bytes[start - circlekit_store::SECTION_HEADER_LEN + 4..start - 8]
            .copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn resealed_bad_lists_are_refused_at_load() {
        type Patch = fn(&mut [u32]);
        let cases: [(&str, Patch, &str); 4] = [
            (
                "unsorted",
                |t| t.swap(0, 1),
                "node 0 is not sorted/duplicate-free",
            ),
            (
                "repeated",
                |t| t[1] = 1,
                "node 0 is not sorted/duplicate-free",
            ),
            (
                "out-of-range",
                |t| t[4] = 9,
                "node 2 has neighbour 9 outside 0..4",
            ),
            (
                // Node 2's out-list [0, 3] becomes [0, 1]: sorted and in
                // range, but the in-lists no longer count what the
                // out-lists name.
                "in-degree",
                |t| t[4] = 1,
                "in-adjacency of node 1 has 1 entries, but 2 out-lists",
            ),
        ];
        for (name, patch, defect) in cases {
            let path = resealed_snapshot(name, patch);
            let err = SnapshotRegistry::new().load(&path, None).unwrap_err();
            assert!(err.contains(defect), "{name}: registry error {err:?}");
            let err = LiveSnapshot::open(&path).unwrap_err().to_string();
            assert!(err.contains(defect), "{name}: live error {err:?}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn missing_file_is_a_rendered_error() {
        let mut reg = SnapshotRegistry::new();
        let err = reg.load("/definitely/not/here.cks", None).unwrap_err();
        assert!(err.contains("here.cks"), "{err}");
    }

    #[test]
    fn replace_swaps_only_the_matching_id() {
        let mut reg = SnapshotRegistry::new();
        reg.insert("a", tiny_graph(), Vec::new()).unwrap();
        reg.insert("b", tiny_graph(), Vec::new()).unwrap();
        let old = reg.get("a").unwrap();
        let small = Graph::from_edges(false, [(0u32, 1u32)]);
        let overlay = DeltaOverlay::new(&small);
        let fresh = Arc::new(LoadedSnapshot::new(
            "a".to_string(),
            old.path.clone(),
            Arc::new(small.into()),
            overlay,
            Vec::new(),
            1.0,
            3,
        ));
        reg.replace(Arc::clone(&fresh));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("a").unwrap().version, 3);
        assert_eq!(reg.get("b").unwrap().version, 0);
        // The superseded Arc stays usable for in-flight work.
        assert_eq!(old.version, 0);
        assert_eq!(old.graph().node_count(), 4);
    }
}
