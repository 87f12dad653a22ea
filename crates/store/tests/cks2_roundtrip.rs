//! CKS2 end-to-end guarantees at the store level:
//!
//! * pack → load reproduces the original graph and groups bit-exactly
//!   (the permutation is undone on load), through every entry point —
//!   buffered decode, zero-copy view, and `MappedSnapshot` dispatch;
//! * the streaming packer emits **byte-identical** files to the
//!   in-memory packer, including under a tiny memory budget that forces
//!   external-sort spills;
//! * paged scoring over a memory-mapped CKS2 file is **bit-identical**
//!   to the offline scorer over the materialised graph;
//! * CKS2 files are smaller than their CKS1 equivalents on a realistic
//!   synthetic graph.

use circlekit_graph::{Graph, GraphError, NodeId, VertexSet};
use circlekit_scoring::{PagedScorer, Scorer, ScoringFunction, SetStats};
use circlekit_store::{
    decode_snapshot, save_cks2_snapshot, save_snapshot, snapshot_format, stream_pack_cks2,
    write_cks2_snapshot, write_snapshot, Cks2PackOptions, Cks2View, MappedSnapshot, Snapshot,
    SnapshotFormat, StoreError, StreamPackOptions,
};
use circlekit_synth::presets;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Cursor;
use std::path::PathBuf;

/// A scratch directory unique to this test binary's process.
fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("circlekit-cks2-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn pack2(graph: &Graph, groups: &[VertexSet], force_wide: bool) -> Vec<u8> {
    let mut cursor = Cursor::new(Vec::new());
    write_cks2_snapshot(graph, groups, &mut cursor, &Cks2PackOptions { force_wide })
        .expect("pack cks2");
    cursor.into_inner()
}

fn pack1(graph: &Graph, groups: &[VertexSet]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_snapshot(graph, groups, &mut bytes).expect("pack cks1");
    bytes
}

/// Copies `bytes` into an 8-aligned buffer so `Cks2View::parse` can be
/// exercised deterministically (a plain `Vec<u8>` has no alignment
/// guarantee).
fn aligned(bytes: &[u8]) -> Vec<u8> {
    let words = vec![0u64; bytes.len().div_ceil(8)];
    let mut buf = words_to_bytes(words);
    buf.truncate(bytes.len());
    buf.copy_from_slice(bytes);
    buf
}

fn words_to_bytes(words: Vec<u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Asserts that every load path of a CKS2 byte image reproduces exactly
/// `graph` + `groups` (original ids).
fn assert_loads_back(bytes: &[u8], graph: &Graph, groups: &[VertexSet]) {
    assert_eq!(snapshot_format(bytes), Some(SnapshotFormat::Cks2));

    // Portable buffered path.
    let snap = decode_snapshot(bytes).expect("buffered decode");
    assert_eq!(&snap.graph, graph);
    assert_eq!(snap.groups.as_slice(), groups);

    // Zero-copy view path (aligned copy; little-endian hosts).
    let buf = aligned(bytes);
    match Cks2View::parse(&buf) {
        Ok(view) => {
            let Snapshot { graph: g2, groups: s2 } = view.to_snapshot().expect("view snapshot");
            assert_eq!(&g2, graph);
            assert_eq!(s2.as_slice(), groups);
        }
        Err(StoreError::NotZeroCopy { .. }) => {} // big-endian host: buffered path covered above
        Err(e) => panic!("unexpected view error: {e}"),
    }
}

fn sample_directed() -> (Graph, Vec<VertexSet>) {
    let graph = Graph::from_edges(
        true,
        [(0u32, 1u32), (0, 2), (1, 2), (2, 0), (3, 0), (3, 1), (4, 3), (2, 4)],
    );
    let groups = vec![
        VertexSet::from_iter([0u32, 1, 2]),
        VertexSet::from_iter([3u32, 4]),
        VertexSet::new(),
        VertexSet::from_iter([0u32, 4]),
    ];
    (graph, groups)
}

fn sample_undirected() -> (Graph, Vec<VertexSet>) {
    let graph = Graph::from_edges(false, [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (1, 3), (4, 0)]);
    let groups = vec![VertexSet::from_iter([0u32, 1, 3]), VertexSet::from_iter([2u32, 4])];
    (graph, groups)
}

#[test]
fn directed_snapshot_roundtrips_with_groups() {
    let (graph, groups) = sample_directed();
    assert_loads_back(&pack2(&graph, &groups, false), &graph, &groups);
}

#[test]
fn undirected_snapshot_roundtrips_with_groups() {
    let (graph, groups) = sample_undirected();
    assert_loads_back(&pack2(&graph, &groups, false), &graph, &groups);
}

#[test]
fn snapshot_without_groups_roundtrips() {
    let (graph, _) = sample_undirected();
    assert_loads_back(&pack2(&graph, &[], false), &graph, &[]);
}

#[test]
fn empty_graph_roundtrips() {
    let graph = Graph::from_edges(false, std::iter::empty::<(NodeId, NodeId)>());
    assert_loads_back(&pack2(&graph, &[], false), &graph, &[]);
}

#[test]
fn force_wide_roundtrips_identically_and_is_flagged() {
    let (graph, groups) = sample_directed();
    let narrow = pack2(&graph, &groups, false);
    let wide = pack2(&graph, &groups, true);
    assert_ne!(narrow, wide);
    assert!(wide.len() > narrow.len(), "u64 offsets must cost bytes");
    assert_loads_back(&wide, &graph, &groups);

    let buf = aligned(&wide);
    if let Ok(view) = Cks2View::parse(&buf) {
        assert!(view.is_wide());
    }
    let buf = aligned(&narrow);
    if let Ok(view) = Cks2View::parse(&buf) {
        assert!(!view.is_wide());
    }
}

#[test]
fn permutation_is_total_degree_descending_with_id_tiebreak() {
    let (graph, groups) = sample_directed();
    let bytes = pack2(&graph, &groups, false);
    let buf = aligned(&bytes);
    let Ok(view) = Cks2View::parse(&buf) else {
        return; // big-endian host
    };
    let perm = view.permutation();
    assert_eq!(perm.len(), graph.node_count());
    let key = |old: u32| (std::cmp::Reverse(graph.degree(old)), old);
    for w in perm.windows(2) {
        assert!(key(w[0]) < key(w[1]), "permutation not degree-sorted: {perm:?}");
    }
}

#[test]
fn mapped_snapshot_dispatches_on_magic() {
    let (graph, groups) = sample_undirected();
    let dir = temp_dir();
    let p1 = dir.join("dispatch.cks1");
    let p2 = dir.join("dispatch.cks2");
    save_snapshot(&p1, &graph, &groups).expect("save cks1");
    save_cks2_snapshot(&p2, &graph, &groups, &Cks2PackOptions::default()).expect("save cks2");

    let m1 = MappedSnapshot::open(&p1).expect("open cks1");
    let m2 = MappedSnapshot::open(&p2).expect("open cks2");
    assert_eq!(m1.format(), Some(SnapshotFormat::Cks1));
    assert_eq!(m2.format(), Some(SnapshotFormat::Cks2));
    assert_eq!(SnapshotFormat::Cks1.name(), "cks1");
    assert_eq!(SnapshotFormat::Cks2.name(), "cks2");

    let s1 = m1.load().expect("load cks1");
    let s2 = m2.load().expect("load cks2");
    assert_eq!(s1.graph, s2.graph);
    assert_eq!(s1.groups, s2.groups);
    assert_eq!(s2.graph, graph);
    assert_eq!(s2.groups, groups);
}

/// Renders `graph` as the text edge list the streaming packer ingests,
/// with the extras text ingestion tolerates: comments, blank lines, and
/// (when asked) duplicate and self-loop lines.
fn edge_text(graph: &Graph, noise: bool) -> String {
    let mut text = String::from("# edge list\n\n");
    for u in 0..graph.node_count() as NodeId {
        for &v in graph.out_neighbors(u) {
            if !graph.is_directed() && v < u {
                continue; // each undirected edge once
            }
            text.push_str(&format!("{u} {v}\n"));
            if noise && (u + v) % 3 == 0 {
                text.push_str(&format!("{u}\t{v}\n")); // duplicate, tab-separated
            }
        }
        if noise && u % 4 == 0 {
            text.push_str(&format!("{u} {u}\n")); // self loop
        }
    }
    text
}

fn assert_stream_matches_memory(
    graph: &Graph,
    groups: &[VertexSet],
    budget: usize,
    label: &str,
) -> circlekit_store::StreamPackReport {
    let dir = temp_dir();
    let edges = dir.join(format!("{label}.edges"));
    let out = dir.join(format!("{label}.cks2"));
    std::fs::write(&edges, edge_text(graph, true)).expect("write edges");

    let report = stream_pack_cks2(
        &edges,
        groups,
        &out,
        &StreamPackOptions {
            directed: graph.is_directed(),
            memory_budget_bytes: budget,
            ..StreamPackOptions::default()
        },
    )
    .expect("stream pack");

    let streamed = std::fs::read(&out).expect("read streamed");
    let in_memory = pack2(graph, groups, false);
    assert_eq!(streamed, in_memory, "streamed CKS2 must be byte-identical to in-memory pack");
    assert_eq!(report.bytes_written, streamed.len() as u64);
    assert_eq!(report.nodes, graph.node_count() as u64);
    assert_eq!(report.edge_count, graph.edge_count() as u64);
    assert!(report.self_loops_dropped > 0, "noise injected self loops");
    report
}

#[test]
fn streaming_pack_is_byte_identical_to_in_memory_pack() {
    let (directed, dgroups) = sample_directed();
    let (undirected, ugroups) = sample_undirected();
    assert_stream_matches_memory(&directed, &dgroups, 256 << 20, "small-directed");
    assert_stream_matches_memory(&undirected, &ugroups, 256 << 20, "small-undirected");
    assert_stream_matches_memory(&undirected, &[], 256 << 20, "small-nogroups");
}

#[test]
fn streaming_pack_with_tiny_budget_spills_and_stays_byte_identical() {
    // A graph with enough arcs to overflow the minimum 4096-key run
    // buffer many times over, so the external sort actually spills.
    let mut rng = SmallRng::seed_from_u64(7);
    let data = presets::google_plus().scaled(0.02).generate(&mut rng);
    let report =
        assert_stream_matches_memory(&data.graph, &data.groups, 1, "tiny-budget");
    assert!(report.runs_spilled > 0, "tiny budget must spill runs: {report:?}");

    // Same input, roomy budget: identical output file, no spills.
    let report = assert_stream_matches_memory(&data.graph, &data.groups, 256 << 20, "big-budget");
    assert_eq!(report.runs_spilled, 0, "roomy budget must not spill: {report:?}");
}

#[test]
fn streaming_pack_rejects_malformed_lines_with_line_numbers() {
    let dir = temp_dir();
    let edges = dir.join("malformed.edges");
    let out = dir.join("malformed.cks2");
    std::fs::write(&edges, "0 1\n1 2\nnot an edge\n").expect("write edges");
    let err = stream_pack_cks2(&edges, &[], &out, &StreamPackOptions::default())
        .expect_err("malformed line must fail");
    let StoreError::Io(io) = err else {
        panic!("expected Io error, got {err:?}");
    };
    assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    assert!(io.to_string().contains("line 3"), "unexpected message: {io}");
    assert!(!out.exists() || std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0) == 0 || {
        // A partial file may exist; it must not parse as a snapshot.
        circlekit_store::file_snapshot_format(&out).map_or(true, |f| {
            f.is_none() || MappedSnapshot::open(&out).and_then(|m| m.load()).is_err()
        })
    });
}

#[test]
fn streaming_pack_rejects_out_of_range_group_members() {
    let dir = temp_dir();
    let edges = dir.join("groups-range.edges");
    let out = dir.join("groups-range.cks2");
    std::fs::write(&edges, "0 1\n1 2\n").expect("write edges");
    let groups = vec![VertexSet::from_iter([0u32, 99])];
    let err = stream_pack_cks2(&edges, &groups, &out, &StreamPackOptions::default())
        .expect_err("member outside the graph must fail");
    assert!(matches!(err, StoreError::Graph(_)), "unexpected error: {err:?}");
}

#[test]
fn cks2_is_smaller_than_cks1_on_a_synthetic_dataset() {
    let mut rng = SmallRng::seed_from_u64(42);
    let data = presets::google_plus().scaled(0.05).generate(&mut rng);
    let cks1 = pack1(&data.graph, &data.groups);
    let cks2 = pack2(&data.graph, &data.groups, false);
    assert!(
        (cks2.len() as f64) < 0.7 * cks1.len() as f64,
        "CKS2 ({}) should be well under CKS1 ({})",
        cks2.len(),
        cks1.len()
    );
}

/// Paged scoring over a memory-mapped CKS2 file must be bit-identical —
/// every f64, compared by bit pattern — to the offline scorer over the
/// materialised graph, because `Cks2Paged` serves original-id adjacency
/// (identical iteration order, identical accumulation order).
#[test]
fn paged_scoring_over_mmap_is_bit_identical_to_offline_scorer() {
    let mut rng = SmallRng::seed_from_u64(1234);
    let data = presets::google_plus().scaled(0.03).generate(&mut rng);
    let dir = temp_dir();
    let path = dir.join("paged-score.cks2");
    save_cks2_snapshot(&path, &data.graph, &data.groups, &Cks2PackOptions::default())
        .expect("save cks2");

    let mapped = MappedSnapshot::open(&path).expect("open");
    let view = mapped.view2().expect("view2");
    let paged = view.paged().expect("paged adapter");
    let groups = view.to_groups().expect("groups");
    assert_eq!(groups, data.groups);

    let offline = Scorer::new(&data.graph)
        .score_table(&ScoringFunction::ALL, &data.groups);
    let paged_table = PagedScorer::new(&paged)
        .expect("median degree pass")
        .score_table(&ScoringFunction::ALL, &groups)
        .expect("paged score");

    assert_eq!(offline.functions(), paged_table.functions());
    assert_eq!(offline.set_count(), paged_table.set_count());
    for i in 0..offline.set_count() {
        let (a, b) = (offline.row(i), paged_table.row(i));
        assert_eq!(a.len(), b.len());
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "set {i}, function {:?}: offline {x} != paged {y}",
                offline.functions()[j]
            );
        }
    }
}

/// `in_neighbors` falls back to the out list for undirected snapshots,
/// and the paged adapter reports out-of-range vertices as typed errors.
#[test]
fn paged_adapter_serves_original_ids() {
    use circlekit_graph::AdjacencyAccess;

    let (graph, groups) = sample_directed();
    let bytes = pack2(&graph, &groups, false);
    let buf = aligned(&bytes);
    let Ok(view) = Cks2View::parse(&buf) else {
        return; // big-endian host
    };
    let paged = view.paged().expect("paged");
    for v in 0..graph.node_count() as NodeId {
        let out = paged
            .with_out_neighbors(v, <[NodeId]>::to_vec)
            .expect("out neighbors");
        assert_eq!(out.as_slice(), graph.out_neighbors(v), "out list of {v}");
        let inn = paged
            .with_in_neighbors(v, <[NodeId]>::to_vec)
            .expect("in neighbors");
        assert_eq!(inn.as_slice(), graph.in_neighbors(v), "in list of {v}");
    }
    let err = paged
        .with_out_neighbors(graph.node_count() as NodeId, |_| ())
        .expect_err("out of range");
    assert!(matches!(err, StoreError::Graph(_)), "unexpected error: {err:?}");
}

/// The length-only reads decode in the file's id space and must still
/// give each vertex's CSR degrees, directed and undirected.
#[test]
fn paged_degrees_equal_the_csr_degrees() {
    use circlekit_graph::AdjacencyAccess;

    let mut rng = SmallRng::seed_from_u64(2014);
    let gplus = presets::google_plus().scaled(0.01).generate(&mut rng);
    let livejournal = presets::livejournal().scaled(0.002).generate(&mut rng);
    assert!(gplus.graph.is_directed() && !livejournal.graph.is_directed());
    let fixtures = [
        sample_directed(),
        sample_undirected(),
        (gplus.graph, gplus.groups),
        (livejournal.graph, livejournal.groups),
    ];
    for (graph, groups) in fixtures {
        let bytes = pack2(&graph, &groups, false);
        let buf = aligned(&bytes);
        let Ok(view) = Cks2View::parse(&buf) else {
            return; // big-endian host
        };
        let paged = view.paged().expect("paged");
        for v in 0..graph.node_count() as NodeId {
            let (out, inn) = (graph.out_neighbors(v).len(), graph.in_neighbors(v).len());
            assert_eq!(paged.out_degree(v).unwrap(), out, "out of {v}");
            assert_eq!(paged.in_degree(v).unwrap(), inn, "in of {v}");
        }
        let outside = paged.in_degree(graph.node_count() as NodeId);
        assert!(matches!(outside, Err(StoreError::Graph(_))), "{outside:?}");
    }
}

/// The paged scorer passes the adapter's typed error through for a
/// member outside the graph — never a panic — and the failed set leaves
/// nothing behind: the next set scores exactly as the offline scorer.
#[test]
fn paged_scorer_reports_out_of_range_member() {
    for (graph, groups) in [sample_directed(), sample_undirected()] {
        let bytes = pack2(&graph, &groups, false);
        let buf = aligned(&bytes);
        let Ok(view) = Cks2View::parse(&buf) else {
            return; // big-endian host
        };
        let paged = view.paged().expect("paged");
        let scorer = PagedScorer::new(&paged).expect("median degree pass");
        let n = graph.node_count();
        let outside = n as NodeId;
        let err = scorer
            .stats(&VertexSet::from_vec(vec![0, 1, outside]))
            .expect_err("member outside the graph");
        assert!(
            matches!(
                err,
                StoreError::Graph(GraphError::NodeOutOfRange { node, node_count })
                    if node == outside && node_count == n
            ),
            "unexpected error: {err:?}"
        );

        let inside = VertexSet::from_vec(vec![0, 1, 2]);
        let offline = SetStats::compute(&graph, &inside, scorer.median_degree());
        assert_eq!(scorer.stats(&inside).expect("in-range set"), offline);
    }
}

/// `--force`-style overwrite semantics live in the CLI; at the store
/// level, packing over an existing path truncates it cleanly.
#[test]
fn save_cks2_truncates_an_existing_file() {
    let (graph, groups) = sample_undirected();
    let dir = temp_dir();
    let path = dir.join("truncate.cks2");
    std::fs::write(&path, vec![0xAB; 1 << 20]).expect("pre-fill");
    save_cks2_snapshot(&path, &graph, &groups, &Cks2PackOptions::default()).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    assert_eq!(bytes, pack2(&graph, &groups, false));
}
