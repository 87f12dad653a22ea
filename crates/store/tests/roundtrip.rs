//! Round-trip property: pack → load reproduces the in-memory graph and
//! groups bit-identically, through every load path, for arbitrary edge
//! lists and group collections — i.e. a snapshot is indistinguishable
//! from re-ingesting the text it was packed from.

use circlekit_graph::{Graph, VertexSet};
use circlekit_store::{
    decode_snapshot, load_snapshot, save_snapshot, write_snapshot, MappedSnapshot, SnapshotView,
    StoreError,
};
use proptest::prelude::*;

fn arb_edges(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..200)
}

fn arb_groups(n: u32) -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..n, 0..20), 0..8)
}

/// Builds the groups the way text ingestion does: arbitrary member lists
/// become sorted duplicate-free vertex sets.
fn to_vertex_sets(raw: &[Vec<u32>]) -> Vec<VertexSet> {
    raw.iter().map(|members| members.iter().copied().collect()).collect()
}

/// Asserts every load path reproduces `graph` + `groups` exactly from
/// `bytes`.
fn assert_roundtrips(bytes: &[u8], graph: &Graph, groups: &[VertexSet]) {
    let snap = decode_snapshot(bytes).expect("buffered decode");
    assert_eq!(&snap.graph, graph, "buffered graph differs");
    assert_eq!(snap.groups, groups, "buffered groups differ");

    // The zero-copy view over an aligned copy of the same bytes.
    let mut buf = vec![0u64; bytes.len().div_ceil(8)];
    // SAFETY: the u64 buffer spans at least `bytes.len()` bytes, and any
    // byte pattern is a valid u64.
    let dst = unsafe {
        std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, bytes.len())
    };
    dst.copy_from_slice(bytes);
    match SnapshotView::parse(dst) {
        Ok(view) => {
            let from_view = view.to_snapshot().expect("view materialises");
            assert_eq!(&from_view.graph, graph, "view graph differs");
            assert_eq!(from_view.groups, groups, "view groups differ");
            // Spot-check the borrowed accessors against the graph.
            assert_eq!(view.node_count(), graph.node_count());
            assert_eq!(view.edge_count(), graph.edge_count());
            for v in 0..graph.node_count() as u32 {
                let expected: Vec<u32> =
                    graph.neighbors(v, circlekit_graph::Direction::Out).collect();
                assert_eq!(view.out_neighbors(v), expected.as_slice(), "node {v}");
            }
            for (i, g) in groups.iter().enumerate() {
                let expected: Vec<u32> = g.iter().collect();
                assert_eq!(view.group(i), expected.as_slice(), "group {i}");
            }
        }
        // Only tolerable on targets where the view is unsupported.
        Err(StoreError::NotZeroCopy { why }) => {
            panic!("aligned little-endian buffer rejected as not zero-copy: {why}")
        }
        Err(e) => panic!("view parse failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_load_roundtrip_directed(
        edges in arb_edges(64),
        raw_groups in arb_groups(64),
    ) {
        let graph = Graph::from_edges(true, edges);
        let groups = to_vertex_sets(&raw_groups);
        // Pack only groups whose members exist (node count is edge-derived).
        let groups: Vec<VertexSet> = groups
            .into_iter()
            .filter(|g| g.iter().all(|v| (v as usize) < graph.node_count()))
            .collect();
        let mut bytes = Vec::new();
        write_snapshot(&graph, &groups, &mut bytes).expect("pack");
        assert_roundtrips(&bytes, &graph, &groups);
    }

    #[test]
    fn pack_load_roundtrip_undirected(
        edges in arb_edges(48),
        raw_groups in arb_groups(48),
    ) {
        let graph = Graph::from_edges(false, edges);
        let groups = to_vertex_sets(&raw_groups);
        let groups: Vec<VertexSet> = groups
            .into_iter()
            .filter(|g| g.iter().all(|v| (v as usize) < graph.node_count()))
            .collect();
        let mut bytes = Vec::new();
        write_snapshot(&graph, &groups, &mut bytes).expect("pack");
        assert_roundtrips(&bytes, &graph, &groups);
    }

    #[test]
    fn snapshot_equals_text_ingestion(edges in arb_edges(64)) {
        // The property the whole store rests on: pack(parse(text)) then
        // load gives the same graph as parse(text) — so downstream
        // results cannot depend on which path loaded the data.
        let mut text = String::new();
        for (u, v) in &edges {
            text.push_str(&format!("{u} {v}\n"));
        }
        let parsed = circlekit_graph::parse_edge_list(&text).expect("text parses");
        let from_text = Graph::from_edges(true, parsed);

        let mut bytes = Vec::new();
        write_snapshot(&from_text, &[], &mut bytes).expect("pack");
        let reloaded = decode_snapshot(&bytes).expect("load").graph;
        prop_assert_eq!(from_text, reloaded);
    }
}

#[test]
fn file_roundtrip_through_save_load_and_mmap() {
    let dir = std::env::temp_dir().join("circlekit-store-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("roundtrip.cks");

    let graph = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (3, 0)]);
    let groups = vec![VertexSet::from_iter([0u32, 1]), VertexSet::from_iter([2u32, 3])];
    let bytes = save_snapshot(&path, &graph, &groups).expect("save");
    assert_eq!(bytes, std::fs::metadata(&path).expect("stat").len());

    let buffered = load_snapshot(&path).expect("buffered load");
    assert_eq!(buffered.graph, graph);
    assert_eq!(buffered.groups, groups);

    let mapped = MappedSnapshot::open(&path).expect("mmap open");
    #[cfg(unix)]
    assert!(mapped.is_mapped(), "unix should map, not buffer");
    let view = mapped.view().expect("view validates");
    assert_eq!(view.node_count(), 4);
    assert_eq!(view.out_neighbors(0), &[1]);
    assert_eq!(view.in_neighbors(0), &[2, 3]);
    assert_eq!(view.group(1), &[2, 3]);
    let loaded = mapped.load().expect("mmap load");
    assert_eq!(loaded.graph, graph);
    assert_eq!(loaded.groups, groups);
}

#[test]
fn empty_graph_and_groupless_snapshots_roundtrip() {
    for directed in [true, false] {
        let graph = Graph::from_edges(directed, std::iter::empty::<(u32, u32)>());
        let mut bytes = Vec::new();
        write_snapshot(&graph, &[], &mut bytes).expect("pack empty");
        let snap = decode_snapshot(&bytes).expect("load empty");
        assert_eq!(snap.graph, graph);
        assert!(snap.groups.is_empty());
    }
}

#[test]
fn out_of_range_group_member_is_rejected_at_pack_time() {
    let graph = Graph::from_edges(true, [(0u32, 1u32)]);
    let groups = vec![VertexSet::from_iter([0u32, 7])];
    let mut bytes = Vec::new();
    let err = write_snapshot(&graph, &groups, &mut bytes).expect_err("must reject");
    assert!(matches!(err, StoreError::Graph(_)), "{err}");
    assert!(bytes.is_empty(), "nothing may be written before validation");
}

/// Saving over a path replaces the file by rename, never in place: a
/// view mapped before the save keeps reading the old graph, and the path
/// reads the new one.
#[test]
fn save_replaces_the_file_under_a_live_mapping() {
    let dir = std::env::temp_dir().join("circlekit-store-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("replace-{}.cks", std::process::id()));
    let old = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0)]);
    let new = Graph::from_edges(false, (0..40u32).map(|i| (i, (i + 1) % 40)));
    save_snapshot(&path, &old, &[]).unwrap();

    let before = MappedSnapshot::open(&path).unwrap();
    save_snapshot(&path, &new, &[]).unwrap();
    let view = before.view().expect("the old mapping still parses");
    assert_eq!(view.to_graph().unwrap(), old);
    assert_eq!(
        MappedSnapshot::open(&path).unwrap().load().unwrap().graph,
        new
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(&format!("replace-{}.cks.", std::process::id()))
        })
        .collect();
    assert!(leftovers.is_empty(), "temporary left behind: {leftovers:?}");
    std::fs::remove_file(&path).unwrap();
}
