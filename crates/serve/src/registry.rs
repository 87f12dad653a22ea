//! [`SnapshotRegistry`]: the snapshots a server instance keeps resident.
//!
//! Each snapshot is loaded once — via the CKS1 zero-copy mmap path when
//! the host supports it ([`circlekit_store::MappedSnapshot`] falls back
//! to the aligned buffered read otherwise) — and then shared read-only
//! behind an [`Arc`] by every request dispatcher and scoring worker.
//! Graph-level precomputation (the median degree that FOMD needs) runs at
//! load time so request handling never repeats it, and so served scores
//! use exactly the inputs the offline `Scorer` would.
//!
//! Entries are immutable; live mutations never edit a resident snapshot
//! in place. Instead the server materializes the mutated graph into a
//! *fresh* [`LoadedSnapshot`] with a higher [`LoadedSnapshot::version`]
//! and [`SnapshotRegistry::replace`]s the entry atomically, so scoring
//! jobs already holding the old `Arc` keep a consistent graph and new
//! requests see the new one.

use circlekit_graph::{Graph, VertexSet};
use circlekit_scoring::Scorer;
use circlekit_store::{MappedSnapshot, ShardManifest};
use std::sync::{Arc, RwLock};

/// One resident snapshot: the shared graph, its groups, and the
/// precomputed graph-level scoring inputs.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Registry id (defaults to the file stem).
    pub id: String,
    /// Source path, `"<memory>"` for programmatically inserted graphs.
    pub path: String,
    /// The shared read-only graph.
    pub graph: Graph,
    /// The snapshot's group collections (possibly empty).
    pub groups: Vec<VertexSet>,
    /// Graph-wide median total degree, precomputed for FOMD. On a shard
    /// sub-snapshot this is the *parent's* median (from the manifest),
    /// never the halo's own — partial FOMD terms must use the global
    /// threshold to reduce exactly.
    pub median_degree: f64,
    /// The shard manifest when this snapshot is a vertex-partitioned
    /// sub-snapshot (packed with `--shard`); `None` for ordinary
    /// snapshots. Its presence enables the `shard_stats` op and makes
    /// the snapshot immutable (mutating a shard would break its binding
    /// to the parent).
    pub shard: Option<ShardManifest>,
    /// Which live-mutation version this materialization reflects: 0 as
    /// loaded, bumped once per committed mutation batch. Cache keys carry
    /// it, so scores computed against a superseded materialization can
    /// never answer a request against a newer one.
    pub version: u64,
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
        let mapped = MappedSnapshot::open(path).map_err(|e| format!("{path}: {e}"))?;
        let shard = mapped.shard_manifest().map_err(|e| format!("{path}: {e}"))?;
        let snap = mapped.load().map_err(|e| format!("{path}: {e}"))?;
        self.insert_full(id, path.to_string(), snap.graph, snap.groups, shard)
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
        self.insert_full(id.into(), "<memory>".to_string(), graph, groups, None)
    }

    fn insert_full(
        &mut self,
        id: String,
        path: String,
        graph: Graph,
        groups: Vec<VertexSet>,
        shard: Option<ShardManifest>,
    ) -> Result<(), String> {
        if self.get(&id).is_some() {
            return Err(format!("duplicate snapshot id {id:?}"));
        }
        // Shard sub-snapshots score against the parent's global median,
        // not the halo's own (see the `median_degree` field docs).
        let median_degree = match shard {
            Some(manifest) => manifest.parent_median_degree,
            None => Scorer::new(&graph).median_degree(),
        };
        self.entries.write().expect("registry lock").push(Arc::new(LoadedSnapshot {
            id,
            path,
            graph,
            groups,
            median_degree,
            shard,
            version: 0,
        }));
        Ok(())
    }

    /// Looks a snapshot up by id, returning a shared handle to the
    /// current materialization.
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
        assert_eq!(snap.graph.node_count(), 4);
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
        let path = dir.join("stem.cks");
        let path = path.to_string_lossy().into_owned();
        let g = tiny_graph();
        save_snapshot(&path, &g, &[VertexSet::from_vec(vec![0, 1])]).unwrap();
        let mut reg = SnapshotRegistry::new();
        reg.load(&path, None).unwrap();
        let snap = reg.get("stem").unwrap();
        assert_eq!(snap.graph, g);
        assert_eq!(snap.path, path);
        // Median degree matches what the offline scorer computes.
        assert_eq!(snap.median_degree, Scorer::new(&g).median_degree());
        // Explicit ids override the stem.
        reg.load(&path, Some("alias")).unwrap();
        assert!(reg.get("alias").is_some());
        assert_eq!(reg.snapshots().len(), 2);
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
        let fresh = Arc::new(LoadedSnapshot {
            id: "a".to_string(),
            path: old.path.clone(),
            graph: Graph::from_edges(false, [(0u32, 1u32)]),
            groups: Vec::new(),
            median_degree: 1.0,
            shard: None,
            version: 3,
        });
        reg.replace(Arc::clone(&fresh));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get("a").unwrap().version, 3);
        assert_eq!(reg.get("b").unwrap().version, 0);
        // The superseded Arc stays usable for in-flight work.
        assert_eq!(old.version, 0);
        assert_eq!(old.graph.node_count(), 4);
    }
}
