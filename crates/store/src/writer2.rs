//! Packing graphs into the CKS2 compressed format — in memory or
//! streamed from an edge-list file in bounded memory.
//!
//! Both packers funnel into one core ([`pack_cks2_core`]) that writes
//! sections **streamed**: a section's header is written as a
//! placeholder, the payload flows through an incremental CRC without
//! ever being held whole, and the 16-byte header is patched by seeking
//! back once length and checksum are known. Because the core consumes
//! relabelled adjacency lists through a closure, the in-memory packer
//! (lists from a [`Graph`]) and the streaming packer (lists from an
//! external-sort spill file) emit **byte-identical** snapshots for the
//! same logical input — a property the test suite pins.
//!
//! The streaming path ([`stream_pack_cks2`]) builds CSR from a raw edge
//! list without materialising the edge set: edges become `u64` sort keys
//! (`source << 32 | target`), runs of at most the configured memory
//! budget are sorted and spilled to a temp directory, and a k-way merge
//! with consecutive dedup streams the CSR out — exactly the dedup +
//! self-loop-drop semantics of `GraphBuilder`. Peak memory is the sort
//! budget plus `O(node_count)` for degrees and the permutation, never
//! `O(edge_count)`.

use crate::cks2::{degree_order_permutation, CKS2_SPEC, FLAG_WIDE, SEC_GROUP_BLOCKS, SEC_GROUP_OFFSETS, SEC_IN_BLOCKS, SEC_IN_OFFSETS, SEC_OUT_BLOCKS, SEC_OUT_OFFSETS, SEC_PERMUTATION};
use crate::codec::encode_list;
use crate::crc32::Crc32;
use crate::error::StoreError;
use crate::format::{padded_len, Header, FLAG_DIRECTED, FLAG_GROUPS, HEADER_LEN, SECTION_HEADER_LEN};
use crate::writer::replace_file;
use circlekit_graph::{parse_edge_line, Graph, GraphError, NodeId, ParseEdgeListError, VertexSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Options for packing a CKS2 snapshot from an in-memory graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cks2PackOptions {
    /// Force u64 offset sections even when u32 would do — the layout a
    /// graph past ~850M arcs gets, testable without a 4 GiB file.
    pub force_wide: bool,
}

/// The width rule: offsets go wide when a blob *could* outgrow u32.
/// Decided from item counts alone (5 bytes is a varint's maximum), so
/// the choice never depends on actual compressed sizes and both packers
/// agree without communicating.
fn choose_wide(out_arcs: u64, in_arcs: u64, memberships: u64, force: bool) -> bool {
    let limit = u32::MAX as u64;
    force || 5 * out_arcs > limit || 5 * in_arcs > limit || 5 * memberships > limit
}

/// A section payload sink: counts and checksums every byte on its way
/// to the writer.
struct SectionSink<'w, W: Write> {
    w: &'w mut W,
    crc: Crc32,
    len: u64,
}

impl<W: Write> SectionSink<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.w.write_all(bytes)?;
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        Ok(())
    }
}

/// Writes one section with its payload produced incrementally by
/// `emit`, patching the 16-byte section header in place afterwards.
fn write_streamed_section<W: Write + Seek>(
    w: &mut W,
    id: u32,
    emit: impl FnOnce(&mut SectionSink<'_, W>) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let header_pos = w.stream_position()?;
    w.write_all(&[0u8; SECTION_HEADER_LEN])?;
    let mut sink = SectionSink { w, crc: Crc32::new(), len: 0 };
    emit(&mut sink)?;
    let (crc, len) = (sink.crc.finish(), sink.len);
    let pad = (padded_len(len) - len) as usize;
    if pad > 0 {
        w.write_all(&[0u8; 7][..pad])?;
    }
    let end = w.stream_position()?;
    let mut head = [0u8; SECTION_HEADER_LEN];
    head[0..4].copy_from_slice(&id.to_le_bytes());
    head[4..8].copy_from_slice(&crc.to_le_bytes());
    head[8..16].copy_from_slice(&len.to_le_bytes());
    w.seek(SeekFrom::Start(header_pos))?;
    w.write_all(&head)?;
    w.seek(SeekFrom::Start(end))?;
    Ok(())
}

/// Produces the (sorted, relabelled) adjacency list of one new-id vertex
/// into the scratch vector.
type ListFn<'f> = &'f mut dyn FnMut(NodeId, &mut Vec<NodeId>) -> Result<(), StoreError>;

/// Writes a compressed block section (one varint block per item in
/// new-id order), returning the per-item byte offsets.
fn write_blocks<W: Write + Seek>(
    w: &mut W,
    id: u32,
    items: u64,
    list: ListFn<'_>,
) -> Result<Vec<u64>, StoreError> {
    let mut offsets = Vec::with_capacity(items as usize + 1);
    offsets.push(0u64);
    write_streamed_section(w, id, |sink| {
        let mut ids: Vec<NodeId> = Vec::new();
        let mut enc: Vec<u8> = Vec::new();
        for v in 0..items {
            list(v as NodeId, &mut ids)?;
            enc.clear();
            encode_list(&ids, &mut enc);
            sink.put(&enc)?;
            offsets.push(sink.len);
        }
        Ok(())
    })?;
    Ok(offsets)
}

/// Writes an offsets section at the chosen width.
fn write_offsets<W: Write + Seek>(
    w: &mut W,
    id: u32,
    offsets: &[u64],
    wide: bool,
) -> Result<(), StoreError> {
    write_streamed_section(w, id, |sink| {
        let mut chunk: Vec<u8> = Vec::with_capacity(8 * 1024);
        for &o in offsets {
            if wide {
                chunk.extend_from_slice(&o.to_le_bytes());
            } else {
                chunk.extend_from_slice(&(o as u32).to_le_bytes());
            }
            if chunk.len() >= 8 * 1024 - 8 {
                sink.put(&chunk)?;
                chunk.clear();
            }
        }
        sink.put(&chunk)?;
        Ok(())
    })
}

/// The shared CKS2 emitter: header placeholder, permutation, adjacency
/// blocks + offsets, groups, then the patched real header. Returns the
/// total snapshot size in bytes.
#[allow(clippy::too_many_arguments)] // one call site per packer; a builder would obscure the layout order
fn pack_cks2_core<W: Write + Seek>(
    w: &mut W,
    directed: bool,
    n: u64,
    edge_count: u64,
    old_of: &[u32],
    groups_new: &[Vec<NodeId>],
    wide: bool,
    out_list: ListFn<'_>,
    in_list: Option<ListFn<'_>>,
) -> Result<u64, StoreError> {
    let base = w.stream_position()?;
    w.write_all(&[0u8; HEADER_LEN])?;
    let mut section_count = 0u32;

    write_streamed_section(w, SEC_PERMUTATION, |sink| {
        let mut chunk: Vec<u8> = Vec::with_capacity(4 * 1024);
        for piece in old_of.chunks(1024) {
            chunk.clear();
            for &v in piece {
                chunk.extend_from_slice(&v.to_le_bytes());
            }
            sink.put(&chunk)?;
        }
        Ok(())
    })?;
    section_count += 1;

    let out_offsets = write_blocks(w, SEC_OUT_BLOCKS, n, out_list)?;
    write_offsets(w, SEC_OUT_OFFSETS, &out_offsets, wide)?;
    drop(out_offsets);
    section_count += 2;

    if let Some(in_list) = in_list {
        let in_offsets = write_blocks(w, SEC_IN_BLOCKS, n, in_list)?;
        write_offsets(w, SEC_IN_OFFSETS, &in_offsets, wide)?;
        section_count += 2;
    }

    if !groups_new.is_empty() {
        let mut group_offsets = Vec::with_capacity(groups_new.len() + 1);
        group_offsets.push(0u64);
        write_streamed_section(w, SEC_GROUP_BLOCKS, |sink| {
            let mut enc: Vec<u8> = Vec::new();
            for members in groups_new {
                enc.clear();
                encode_list(members, &mut enc);
                sink.put(&enc)?;
                group_offsets.push(sink.len);
            }
            Ok(())
        })?;
        write_offsets(w, SEC_GROUP_OFFSETS, &group_offsets, wide)?;
        section_count += 2;
    }

    let end = w.stream_position()?;
    let mut flags = 0u16;
    if directed {
        flags |= FLAG_DIRECTED;
    }
    if !groups_new.is_empty() {
        flags |= FLAG_GROUPS;
    }
    if wide {
        flags |= FLAG_WIDE;
    }
    let header = Header { flags, node_count: n, edge_count, section_count };
    w.seek(SeekFrom::Start(base))?;
    w.write_all(&header.encode_with(&CKS2_SPEC))?;
    w.seek(SeekFrom::Start(end))?;
    w.flush()?;
    Ok(end - base)
}

/// Checks every group member is a node (the CKS1 writer's rule, applied
/// before any bytes are written).
fn validate_groups(groups: &[VertexSet], n: usize) -> Result<(), StoreError> {
    for set in groups {
        for v in set.iter() {
            if v as usize >= n {
                return Err(StoreError::Graph(GraphError::NodeOutOfRange {
                    node: v,
                    node_count: n,
                }));
            }
        }
    }
    Ok(())
}

/// Relabels each group's members into new-id space (re-sorted).
fn relabel_groups(groups: &[VertexSet], new_of: &[u32]) -> Vec<Vec<NodeId>> {
    groups
        .iter()
        .map(|set| {
            let mut members: Vec<NodeId> = set.iter().map(|v| new_of[v as usize]).collect();
            members.sort_unstable();
            members
        })
        .collect()
}

/// Serialises `graph` and `groups` as a CKS2 snapshot into `writer`
/// (which must support seeking — section headers are patched in place),
/// returning the number of bytes written.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure, and [`StoreError::Graph`] when a
/// group member is not a node of `graph` (checked before writing).
pub fn write_cks2_snapshot<W: Write + Seek>(
    graph: &Graph,
    groups: &[VertexSet],
    writer: &mut W,
    options: &Cks2PackOptions,
) -> Result<u64, StoreError> {
    let n = graph.node_count();
    validate_groups(groups, n)?;

    let directed = graph.is_directed();
    let mut degrees = vec![0u64; n];
    for (v, d) in degrees.iter_mut().enumerate() {
        *d = graph.out_neighbors(v as NodeId).len() as u64;
        if directed {
            *d += graph.in_neighbors(v as NodeId).len() as u64;
        }
    }
    let (old_of, new_of) = degree_order_permutation(&degrees);
    drop(degrees);

    let out_arcs = graph.out_csr().1.len() as u64;
    let in_arcs = graph.in_csr().map_or(0, |(_, t)| t.len() as u64);
    let memberships: u64 = groups.iter().map(|g| g.len() as u64).sum();
    let wide = choose_wide(out_arcs, in_arcs, memberships, options.force_wide);
    let groups_new = relabel_groups(groups, &new_of);

    let relabel =
        |list: &[NodeId], buf: &mut Vec<NodeId>| {
            buf.clear();
            buf.extend(list.iter().map(|&t| new_of[t as usize]));
            buf.sort_unstable();
        };
    let mut out_list = |new_id: NodeId, buf: &mut Vec<NodeId>| {
        relabel(graph.out_neighbors(old_of[new_id as usize]), buf);
        Ok(())
    };
    let mut in_list = |new_id: NodeId, buf: &mut Vec<NodeId>| {
        relabel(graph.in_neighbors(old_of[new_id as usize]), buf);
        Ok(())
    };

    pack_cks2_core(
        writer,
        directed,
        n as u64,
        graph.edge_count() as u64,
        &old_of,
        &groups_new,
        wide,
        &mut out_list,
        if directed { Some(&mut in_list) } else { None },
    )
}

/// Packs `graph` and `groups` into a CKS2 file at `path`, replacing it
/// by rename, and returns the snapshot size in bytes.
///
/// # Errors
///
/// As [`write_cks2_snapshot`].
pub fn save_cks2_snapshot(
    path: impl AsRef<Path>,
    graph: &Graph,
    groups: &[VertexSet],
    options: &Cks2PackOptions,
) -> Result<u64, StoreError> {
    replace_file(path, |w| write_cks2_snapshot(graph, groups, w, options))
}

/// Options for the bounded-memory streaming packer.
#[derive(Clone, Debug)]
pub struct StreamPackOptions {
    /// Whether the edge list describes a directed graph.
    pub directed: bool,
    /// Sort-buffer budget in bytes. This bounds the packer's dominant
    /// allocation; per-node bookkeeping (degrees + permutation, ~20
    /// bytes/node) comes on top. Tiny values work (runs just multiply).
    pub memory_budget_bytes: usize,
    /// Where spill runs and the staging CSR live. Defaults to the
    /// output file's directory — same filesystem, predictable space.
    pub temp_dir: Option<PathBuf>,
    /// See [`Cks2PackOptions::force_wide`].
    pub force_wide: bool,
}

impl Default for StreamPackOptions {
    fn default() -> StreamPackOptions {
        StreamPackOptions {
            directed: false,
            memory_budget_bytes: 256 << 20,
            temp_dir: None,
            force_wide: false,
        }
    }
}

/// What [`stream_pack_cks2`] did.
#[derive(Clone, Copy, Debug)]
pub struct StreamPackReport {
    /// Nodes in the packed graph (`max id + 1`, the edge-list rule).
    pub nodes: u64,
    /// The header's `m` (arcs if directed, undirected edges otherwise).
    pub edge_count: u64,
    /// Self-loop lines dropped (the `GraphBuilder` rule).
    pub self_loops_dropped: u64,
    /// Duplicate arcs collapsed by the merge.
    pub duplicates_dropped: u64,
    /// Sorted runs spilled to disk (0 = everything fit the budget).
    pub runs_spilled: u64,
    /// Final snapshot size in bytes.
    pub bytes_written: u64,
    /// Whether the snapshot used wide (u64) offsets.
    pub wide: bool,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory removed on drop (best effort).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn create(base: &Path) -> io::Result<TempDir> {
        loop {
            let path = base.join(format!(
                "cks2-pack-{}-{}",
                std::process::id(),
                TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(TempDir { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Accumulates `u64` sort keys under a memory cap, spilling sorted runs
/// to disk when full.
struct RunSet<'d> {
    dir: &'d Path,
    tag: &'static str,
    cap: usize,
    buf: Vec<u64>,
    runs: Vec<File>,
}

impl<'d> RunSet<'d> {
    fn new(dir: &'d Path, tag: &'static str, budget_bytes: usize) -> RunSet<'d> {
        // Floor keeps degenerate budgets functional: runs multiply
        // instead of the packer thrashing one key at a time.
        let cap = (budget_bytes / 8).max(4096);
        RunSet { dir, tag, cap, buf: Vec::new(), runs: Vec::new() }
    }

    fn push(&mut self, key: u64) -> io::Result<()> {
        if self.buf.len() >= self.cap {
            self.spill()?;
        }
        self.buf.push(key);
        Ok(())
    }

    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        let path = self.dir.join(format!("{}-{:05}.run", self.tag, self.runs.len()));
        let mut w = BufWriter::new(
            File::options().read(true).write(true).create_new(true).open(&path)?,
        );
        for &k in &self.buf {
            w.write_all(&k.to_le_bytes())?;
        }
        let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
        self.buf.clear();
        self.runs.push(f);
        Ok(())
    }

    fn into_merge(mut self) -> io::Result<KeyMerge> {
        self.buf.sort_unstable();
        let mut readers = Vec::with_capacity(self.runs.len());
        for mut f in self.runs {
            f.seek(SeekFrom::Start(0))?;
            readers.push(BufReader::new(f));
        }
        KeyMerge::new(self.buf, readers)
    }
}

/// K-way merge over spilled runs plus the final in-memory run.
struct KeyMerge {
    mem: Vec<u64>,
    mem_pos: usize,
    readers: Vec<BufReader<File>>,
    // (key, source index); source == readers.len() is the memory run.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl KeyMerge {
    fn new(mem: Vec<u64>, readers: Vec<BufReader<File>>) -> io::Result<KeyMerge> {
        let mut merge = KeyMerge { mem, mem_pos: 0, readers, heap: BinaryHeap::new() };
        for src in 0..=merge.readers.len() {
            merge.refill(src)?;
        }
        Ok(merge)
    }

    fn refill(&mut self, src: usize) -> io::Result<()> {
        if src == self.readers.len() {
            if self.mem_pos < self.mem.len() {
                self.heap.push(Reverse((self.mem[self.mem_pos], src)));
                self.mem_pos += 1;
            }
            return Ok(());
        }
        let mut bytes = [0u8; 8];
        match self.readers[src].read_exact(&mut bytes) {
            Ok(()) => {
                self.heap.push(Reverse((u64::from_le_bytes(bytes), src)));
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn next_key(&mut self) -> io::Result<Option<u64>> {
        let Some(Reverse((key, src))) = self.heap.pop() else {
            return Ok(None);
        };
        self.refill(src)?;
        Ok(Some(key))
    }
}

/// Drains a key merge into a staging CSR: targets (u32 LE, in key
/// order) go to a temp file, per-source degrees stay in memory.
/// Consecutive duplicates collapse here. Returns
/// `(targets_file, degrees, arcs, duplicates)`.
fn drain_to_csr(
    mut merge: KeyMerge,
    n: usize,
    path: &Path,
) -> io::Result<(File, Vec<u64>, u64, u64)> {
    let mut degrees = vec![0u64; n];
    let mut w = BufWriter::new(
        File::options().read(true).write(true).create_new(true).open(path)?,
    );
    let mut prev: Option<u64> = None;
    let (mut arcs, mut dups) = (0u64, 0u64);
    while let Some(key) = merge.next_key()? {
        if prev == Some(key) {
            dups += 1;
            continue;
        }
        prev = Some(key);
        let (u, v) = ((key >> 32) as u32, key as u32);
        w.write_all(&v.to_le_bytes())?;
        degrees[u as usize] += 1;
        arcs += 1;
    }
    let f = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    Ok((f, degrees, arcs, dups))
}

/// Random access into a staging CSR file: reads one source's target
/// block, maps it into new-id space, sorts it.
struct StagedCsr {
    file: File,
    offsets: Vec<u64>, // prefix sums of degrees, in entries (not bytes)
    bytes: Vec<u8>,
}

impl StagedCsr {
    fn new(file: File, degrees: &[u64]) -> StagedCsr {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &d in degrees {
            acc += d;
            offsets.push(acc);
        }
        StagedCsr { file, offsets, bytes: Vec::new() }
    }

    fn read_relabeled(
        &mut self,
        old: NodeId,
        new_of: &[u32],
        buf: &mut Vec<NodeId>,
    ) -> io::Result<()> {
        let (s, e) = (self.offsets[old as usize], self.offsets[old as usize + 1]);
        self.bytes.resize(((e - s) * 4) as usize, 0);
        self.file.seek(SeekFrom::Start(s * 4))?;
        self.file.read_exact(&mut self.bytes)?;
        buf.clear();
        for c in self.bytes.chunks_exact(4) {
            let t = u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"));
            buf.push(new_of[t as usize]);
        }
        buf.sort_unstable();
        Ok(())
    }
}

/// Packs a plain-text edge list straight into a CKS2 snapshot at
/// `out_path` without ever materialising the edge set: an external sort
/// (budget-bounded runs + k-way merge) builds a staging CSR on disk,
/// then blocks stream out in relabelled order. The output is
/// byte-identical to `save_cks2_snapshot(Graph::from_edges(..), ..)`
/// over the same input.
///
/// # Errors
///
/// [`StoreError::Io`] on any I/O failure or malformed edge-list line
/// (`InvalidData`, as text ingestion reports it), and
/// [`StoreError::Graph`] when a group member exceeds the discovered
/// node range.
pub fn stream_pack_cks2(
    edges_path: impl AsRef<Path>,
    groups: &[VertexSet],
    out_path: impl AsRef<Path>,
    options: &StreamPackOptions,
) -> Result<StreamPackReport, StoreError> {
    let out_path = out_path.as_ref();
    let temp_base = match &options.temp_dir {
        Some(dir) => dir.clone(),
        None => out_path.parent().map_or_else(|| PathBuf::from("."), Path::to_path_buf),
    };
    let tmp = TempDir::create(&temp_base)?;

    // Phase A: parse lines into sort keys, spilling budget-sized runs.
    // Undirected graphs store both orientations in one key set (the
    // graph's out-CSR holds both); directed graphs keep a second,
    // reverse-keyed set for the in-CSR, splitting the budget.
    let budget = if options.directed {
        options.memory_budget_bytes / 2
    } else {
        options.memory_budget_bytes
    };
    let mut fwd = RunSet::new(&tmp.path, "fwd", budget);
    let mut rev = options.directed.then(|| RunSet::new(&tmp.path, "rev", budget));

    let mut reader = BufReader::new(File::open(edges_path)?);
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut max_id: Option<NodeId> = None;
    let mut self_loops = 0u64;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        match parse_edge_line(&line) {
            Ok(None) => continue,
            Ok(Some((u, v))) => {
                if u == v {
                    self_loops += 1; // GraphBuilder drops self-loops
                    continue;
                }
                max_id = Some(max_id.map_or(u.max(v), |m| m.max(u).max(v)));
                let (fk, rk) = (((u as u64) << 32) | v as u64, ((v as u64) << 32) | u as u64);
                fwd.push(fk)?;
                match &mut rev {
                    Some(rev) => rev.push(rk)?,
                    None => fwd.push(rk)?,
                }
            }
            Err(reason) => {
                let e = ParseEdgeListError { line: lineno, reason };
                return Err(StoreError::Io(io::Error::new(io::ErrorKind::InvalidData, e)));
            }
        }
    }
    let n = max_id.map_or(0u64, |m| m as u64 + 1);
    validate_groups(groups, n as usize)?;

    // Phase B: merge runs into staging CSRs (targets on disk, degrees
    // in memory).
    let runs_spilled = (fwd.runs.len() + rev.as_ref().map_or(0, |r| r.runs.len())) as u64;
    let (out_file, out_degrees, out_arcs, dups) =
        drain_to_csr(fwd.into_merge()?, n as usize, &tmp.path.join("fwd.csr"))?;
    let in_staged = match rev {
        Some(rev) => {
            // The reverse key set mirrors the forward one exactly, so
            // its duplicate count is not added again.
            let (f, deg, arcs, _) =
                drain_to_csr(rev.into_merge()?, n as usize, &tmp.path.join("rev.csr"))?;
            debug_assert_eq!(arcs, out_arcs, "reverse keys mirror forward keys");
            Some((f, deg, arcs))
        }
        None => None,
    };

    // Total degree drives the relabelling: out + in when directed,
    // the (symmetric) out-CSR alone otherwise — the same numbers the
    // in-memory packer reads off a built Graph.
    let mut degrees = out_degrees.clone();
    if let Some((_, in_deg, _)) = &in_staged {
        for (d, i) in degrees.iter_mut().zip(in_deg) {
            *d += i;
        }
    }
    let (old_of, new_of) = degree_order_permutation(&degrees);
    drop(degrees);

    let edge_count = if options.directed { out_arcs } else { out_arcs / 2 };
    let in_arcs = in_staged.as_ref().map_or(0, |&(_, _, a)| a);
    let memberships: u64 = groups.iter().map(|g| g.len() as u64).sum();
    let wide = choose_wide(out_arcs, in_arcs, memberships, options.force_wide);
    let groups_new = relabel_groups(groups, &new_of);

    // Phase C: stream blocks out in new-id order, reading each source's
    // staged targets back and relabelling on the fly.
    let mut out_staged = StagedCsr::new(out_file, &out_degrees);
    drop(out_degrees);
    let mut in_staged = in_staged.map(|(f, deg, _)| StagedCsr::new(f, &deg));

    let mut out_list = |new_id: NodeId, buf: &mut Vec<NodeId>| {
        out_staged.read_relabeled(old_of[new_id as usize], &new_of, buf).map_err(StoreError::Io)
    };
    let mut in_list = |new_id: NodeId, buf: &mut Vec<NodeId>| {
        in_staged
            .as_mut()
            .expect("closure only used when directed")
            .read_relabeled(old_of[new_id as usize], &new_of, buf)
            .map_err(StoreError::Io)
    };

    let bytes_written = replace_file(out_path, |w| {
        pack_cks2_core(
            w,
            options.directed,
            n,
            edge_count,
            &old_of,
            &groups_new,
            wide,
            &mut out_list,
            if options.directed { Some(&mut in_list) } else { None },
        )
    })?;

    Ok(StreamPackReport {
        nodes: n,
        edge_count,
        self_loops_dropped: self_loops,
        duplicates_dropped: dups,
        runs_spilled,
        bytes_written,
        wide,
    })
}
