//! [`LiveSnapshot`]: a snapshot plus overlay, aggregates and WAL.

use crate::error::{LiveError, MutationError};
use crate::mutation::Mutation;
use crate::overlay::{Composed, DeltaOverlay};
use crate::wal::{read_wal, scan_frames, WalHeader, WalWriter, WAL_HEADER_LEN};
use circlekit_graph::{AdjacencyAccess, Graph, NodeId, VertexSet};
use circlekit_scoring::{degree_counts, median_of_degree_counts, total_degree, MemberTally};
use circlekit_scoring::{ScoringFunction, SetStats};
use circlekit_store::{replace_file, sync_parent_dir, write_snapshot, SnapshotBase};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The per-group sufficient statistics maintained incrementally: exactly
/// the [`SetStats`] fields the paper's four scoring functions read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Aggregate {
    n_c: usize,
    /// Internal edges (undirected) / arcs (directed), matching the
    /// host-graph convention of [`SetStats`].
    m_c: usize,
    /// Boundary edges/arcs, each counted once.
    c_c: usize,
    out_degree_sum: usize,
    in_degree_sum: usize,
}

impl Aggregate {
    /// Computes the aggregate of `set` in `graph` from scratch: the
    /// integer tallies of the [`MemberTally`] pass [`SetStats::compute`]
    /// runs (the FOMD threshold plays no part in them).
    fn compute(graph: &SnapshotBase, set: &VertexSet) -> Aggregate {
        let Ok(tally) = MemberTally::compute(graph, set, 0.0, |_| true);
        debug_assert_eq!(tally.internal_arcs % 2, 0);
        Aggregate {
            n_c: set.len(),
            m_c: tally.internal_arcs / 2,
            c_c: tally.boundary,
            out_degree_sum: tally.out_degree_sum,
            in_degree_sum: tally.in_degree_sum,
        }
    }
}

/// Outcome of applying a batch of mutations: how many of them were
/// applied (a prefix — application stops at the first rejection), and
/// the rejection, if any, with its index in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyOutcome {
    /// Number of leading mutations applied (and, for durable snapshots,
    /// committed to the WAL).
    pub applied: usize,
    /// The first rejected mutation, as `(index_in_batch, error)`.
    /// Everything before it is applied; everything after it is not.
    pub rejected: Option<(usize, MutationError)>,
}

/// Where to simulate a crash inside [`LiveSnapshot::compact_with_crash_point`]
/// — the process exits with status 137 (the SIGKILL status) at the chosen
/// point, leaving the on-disk state exactly as a real kill would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the compacted snapshot is written and fsync'd under its
    /// temporary name, before the rename: the original snapshot and the
    /// WAL are both intact.
    TmpWritten,
    /// After the rename of the compacted snapshot into place, before the
    /// WAL is unlinked: the WAL is stale (its base CRC no longer matches).
    Renamed,
}

impl CrashPoint {
    /// Parses the `--crash-point` CLI value.
    pub fn from_name(name: &str) -> Option<CrashPoint> {
        match name {
            "tmp-written" => Some(CrashPoint::TmpWritten),
            "renamed" => Some(CrashPoint::Renamed),
            _ => None,
        }
    }
}

/// A snapshot opened for mutation: a shared read-only base +
/// [`DeltaOverlay`] + mutable group memberships + per-group
/// [`Aggregate`]s, all kept in lock-step by [`LiveSnapshot::apply`],
/// with an optional CKW1 WAL making every committed batch durable.
#[derive(Debug)]
pub struct LiveSnapshot {
    snapshot_path: Option<PathBuf>,
    wal_path: Option<PathBuf>,
    base: Arc<SnapshotBase>,
    /// CRC-32 of the snapshot file backing `base` (0 for in-memory).
    base_crc: u32,
    overlay: DeltaOverlay,
    groups: Vec<VertexSet>,
    aggs: Vec<Aggregate>,
    /// How many composed vertices have each total degree: the input of
    /// the FOMD median, moved by each mutation rather than recounted.
    degree_counts: BTreeMap<usize, usize>,
    wal: Option<WalWriter>,
    wal_records: usize,
    /// Committed record bytes past the 32-byte WAL header — the
    /// replication stream position. 0 when no WAL exists (or in memory).
    wal_offset: u64,
    replayed: usize,
    discarded_stale_wal: bool,
}

impl LiveSnapshot {
    /// Opens the snapshot at `path` for mutation: maps it (a CKS1 file
    /// is validated and served in place; a CKS2 file is decoded) and
    /// [attaches](LiveSnapshot::attach) to it.
    ///
    /// # Errors
    ///
    /// Snapshot load failures ([`LiveError::Store`]), and as
    /// [`LiveSnapshot::attach`].
    pub fn open(path: impl AsRef<Path>) -> Result<LiveSnapshot, LiveError> {
        let (base, groups) = SnapshotBase::open(path.as_ref())?;
        LiveSnapshot::attach(path, Arc::new(base), groups)
    }

    /// Opens the snapshot file at `path` for mutation over `base`, the
    /// graph already loaded from it, which is shared rather than read
    /// again. If a WAL (`<path>.ckw`) is present its committed records
    /// are replayed — after a crash this restores the exact
    /// last-committed state — and any torn tail is truncated away. A
    /// WAL whose base CRC does not match the snapshot is stale (see
    /// [`CrashPoint::Renamed`]) and is discarded.
    ///
    /// # Errors
    ///
    /// WAL corruption (typed per defect) and I/O errors.
    pub fn attach(
        path: impl AsRef<Path>,
        base: Arc<SnapshotBase>,
        groups: Vec<VertexSet>,
    ) -> Result<LiveSnapshot, LiveError> {
        let path = path.as_ref();
        let wal_path = wal_path_for(path);
        let mut live = LiveSnapshot::over(base, groups);
        live.base_crc = live.base.file_crc32();
        live.snapshot_path = Some(path.to_path_buf());
        live.wal_path = Some(wal_path.clone());

        if wal_path.exists() {
            let scan = read_wal(&wal_path)?;
            if scan.header.base_crc != live.base_crc {
                // Compaction renamed the folded snapshot into place but
                // died before unlinking the log: every record in it is
                // already part of `base`.
                std::fs::remove_file(&wal_path)?;
                sync_parent_dir(&wal_path)?;
                live.discarded_stale_wal = true;
            } else {
                for (i, m) in scan.records.iter().enumerate() {
                    live.apply_unlogged(*m)
                        .map_err(|error| LiveError::ReplayRejected { record: i, error })?;
                }
                live.replayed = scan.records.len();
                live.wal_records = scan.records.len();
                live.wal_offset = scan.valid_len - WAL_HEADER_LEN as u64;
                live.wal = Some(WalWriter::open_at(&wal_path, scan.valid_len)?);
            }
        }
        Ok(live)
    }

    /// Wraps an already-loaded graph + groups without any backing file:
    /// mutations are applied in memory only (no WAL, no compaction).
    pub fn in_memory(graph: Graph, groups: Vec<VertexSet>) -> LiveSnapshot {
        LiveSnapshot::over(Arc::new(SnapshotBase::from(graph)), groups)
    }

    /// In-memory mutation over a shared base: no WAL, no compaction.
    pub fn over(base: Arc<SnapshotBase>, groups: Vec<VertexSet>) -> LiveSnapshot {
        let Ok(counts) = degree_counts(&*base);
        LiveSnapshot {
            snapshot_path: None,
            wal_path: None,
            base_crc: 0,
            overlay: DeltaOverlay::new(&*base),
            aggs: groups.iter().map(|g| Aggregate::compute(&base, g)).collect(),
            degree_counts: counts,
            base,
            groups,
            wal: None,
            wal_records: 0,
            wal_offset: 0,
            replayed: 0,
            discarded_stale_wal: false,
        }
    }

    /// Whether the composed graph is directed.
    pub fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    /// Nodes in the composed graph.
    pub fn node_count(&self) -> usize {
        self.overlay.node_count()
    }

    /// Edges (undirected) / arcs (directed) in the composed graph.
    pub fn edge_count(&self) -> usize {
        self.overlay.edge_count(&*self.base)
    }

    /// The registered groups with all membership mutations applied.
    pub fn groups(&self) -> &[VertexSet] {
        &self.groups
    }

    /// The base graph the overlay composes over (the snapshot as loaded,
    /// or as last compacted), shared with whoever else reads it.
    pub fn base(&self) -> &Arc<SnapshotBase> {
        &self.base
    }

    /// The composed graph: the base with every committed mutation.
    pub fn graph(&self) -> Composed<'_, SnapshotBase> {
        self.overlay.compose(&*self.base)
    }

    /// The delta overlay itself (read-only).
    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }

    /// Records replayed from the WAL when this snapshot was opened.
    pub fn replayed_records(&self) -> usize {
        self.replayed
    }

    /// Records currently committed in the WAL.
    pub fn wal_records(&self) -> usize {
        self.wal_records
    }

    /// CRC-32 of the snapshot file backing the base graph (0 for
    /// in-memory snapshots). Replication subscribers present this in
    /// their handshake to prove they replicate the same history.
    pub fn base_crc(&self) -> u32 {
        self.base_crc
    }

    /// Committed record bytes past the WAL header — the replication
    /// stream position. Two live snapshots with equal [`base_crc`]
    /// (`self.base_crc()`) and equal `wal_offset` hold byte-identical
    /// WALs and therefore identical composed state.
    pub fn wal_offset(&self) -> u64 {
        self.wal_offset
    }

    /// The committed WAL record bytes from `offset` (bytes past the
    /// header) to the current [`LiveSnapshot::wal_offset`], verbatim —
    /// whole CRC-framed records, suitable for shipping to a replica's
    /// [`LiveSnapshot::apply_replicated`].
    ///
    /// # Errors
    ///
    /// [`LiveError::BadReplicationOffset`] if `offset` is beyond the
    /// committed length or does not land on a frame boundary; I/O and
    /// corruption errors reading the WAL back.
    pub fn replication_frames_from(&self, offset: u64) -> Result<Vec<u8>, LiveError> {
        if offset > self.wal_offset {
            return Err(LiveError::BadReplicationOffset {
                offset,
                committed: self.wal_offset,
            });
        }
        if offset == self.wal_offset {
            return Ok(Vec::new());
        }
        let wal_path = self.wal_path.as_ref().ok_or_else(|| {
            LiveError::Io(std::io::Error::other("in-memory snapshot has no WAL to replicate"))
        })?;
        let bytes = std::fs::read(wal_path)?;
        let end = WAL_HEADER_LEN + self.wal_offset as usize;
        if bytes.len() < end {
            return Err(LiveError::WalTooShort { len: bytes.len() as u64 });
        }
        let records = &bytes[WAL_HEADER_LEN..end];
        // `offset` must be a frame boundary: the longest clean frame run
        // inside the prefix must consume it exactly.
        let (_, consumed) = scan_frames(&records[..offset as usize], WAL_HEADER_LEN as u64, true)?;
        if consumed != offset {
            return Err(LiveError::BadReplicationOffset {
                offset,
                committed: self.wal_offset,
            });
        }
        // The shipped tail must itself be whole, valid frames.
        scan_frames(&records[offset as usize..], WAL_HEADER_LEN as u64 + offset, false)?;
        Ok(records[offset as usize..].to_vec())
    }

    /// Applies a batch of raw CRC-framed WAL records received from a
    /// primary: validates the *whole* batch first (a torn or corrupt
    /// batch applies nothing), applies every record, then appends the
    /// bytes verbatim to this snapshot's WAL — so a replica's WAL is a
    /// byte-identical prefix of the primary's at every acked offset.
    /// Returns the number of records applied.
    ///
    /// # Errors
    ///
    /// [`LiveError::TornReplicationBatch`] if the batch ends mid-frame,
    /// [`LiveError::RecordChecksum`] / decode errors on corruption
    /// (nothing applied in all three cases), and
    /// [`LiveError::ReplayRejected`] if a record does not apply — the
    /// streams have diverged, which only corruption can cause.
    pub fn apply_replicated(&mut self, frames: &[u8]) -> Result<usize, LiveError> {
        let (records, consumed) = scan_frames(frames, 0, false)?;
        debug_assert_eq!(consumed, frames.len() as u64);
        for (i, m) in records.iter().enumerate() {
            self.apply_unlogged(*m)
                .map_err(|error| LiveError::ReplayRejected { record: i, error })?;
        }
        if !records.is_empty() && self.wal_path.is_some() {
            self.ensure_wal()?;
            let written =
                self.wal.as_mut().expect("ensure_wal just opened it").append_raw(frames)?;
            self.wal_offset += written;
            self.wal_records += records.len();
        }
        Ok(records.len())
    }

    /// Whether `open` found and discarded a stale WAL (left behind by a
    /// crash between compaction's rename and WAL unlink).
    pub fn discarded_stale_wal(&self) -> bool {
        self.discarded_stale_wal
    }

    /// Applies a batch of mutations in order, stopping at the first
    /// rejection. The applied prefix — and only it — is committed to the
    /// WAL as one fsync'd batch before this returns.
    ///
    /// # Errors
    ///
    /// Only I/O / WAL failures surface as `Err`; per-mutation rejections
    /// are data, reported in [`ApplyOutcome::rejected`].
    pub fn apply(&mut self, mutations: &[Mutation]) -> Result<ApplyOutcome, LiveError> {
        let mut applied = 0usize;
        let mut rejected = None;
        for (i, m) in mutations.iter().enumerate() {
            match self.apply_unlogged(*m) {
                Ok(()) => applied += 1,
                Err(e) => {
                    rejected = Some((i, e));
                    break;
                }
            }
        }
        if applied > 0 && self.wal_path.is_some() {
            self.ensure_wal()?;
            let written = self
                .wal
                .as_mut()
                .expect("ensure_wal just opened it")
                .append(&mutations[..applied])?;
            self.wal_offset += written;
            self.wal_records += applied;
        }
        Ok(ApplyOutcome { applied, rejected })
    }

    fn ensure_wal(&mut self) -> Result<(), LiveError> {
        if self.wal.is_none() {
            let path = self.wal_path.as_ref().expect("caller checked wal_path");
            let header = WalHeader {
                directed: self.base.is_directed(),
                base_crc: self.base_crc,
                base_nodes: self.base.node_count() as u64,
                base_edges: self.base.edge_count() as u64,
            };
            self.wal = Some(WalWriter::create(path, header)?);
        }
        Ok(())
    }

    /// Validates and applies one mutation to the overlay, groups and
    /// aggregates, without logging. Rejection leaves every structure
    /// untouched.
    fn apply_unlogged(&mut self, m: Mutation) -> Result<(), MutationError> {
        match m {
            Mutation::AddEdge { u, v } => {
                self.overlay.add_edge(&*self.base, u, v)?;
                self.edge_delta(u, v, true);
            }
            Mutation::RemoveEdge { u, v } => {
                self.overlay.remove_edge(&*self.base, u, v)?;
                self.edge_delta(u, v, false);
            }
            Mutation::AddVertex => {
                self.overlay.add_vertex();
                *self.degree_counts.entry(0).or_insert(0) += 1;
            }
            Mutation::AddMember { group, node } => {
                let g = self.check_group(group)?;
                self.check_node(node)?;
                if self.groups[g].contains(node) {
                    return Err(MutationError::AlreadyMember { group, node });
                }
                // Membership effects are measured against the set
                // *without* the node, so insert after scanning.
                let (int_out, int_in, deg_out, deg_in) = self.membership_scan(g, node);
                let agg = &mut self.aggs[g];
                agg.n_c += 1;
                agg.m_c += int_out + int_in;
                agg.c_c = agg.c_c + (deg_out - int_out) + (deg_in - int_in) - (int_out + int_in);
                if self.base.is_directed() {
                    agg.out_degree_sum += deg_out;
                    agg.in_degree_sum += deg_in;
                } else {
                    agg.out_degree_sum += deg_out;
                    agg.in_degree_sum += deg_out;
                }
                self.groups[g].insert(node);
            }
            Mutation::RemoveMember { group, node } => {
                let g = self.check_group(group)?;
                if !self.groups[g].contains(node) {
                    return Err(MutationError::NotMember { group, node });
                }
                // Remove first so the scan sees the set without the node —
                // the exact inverse of AddMember.
                self.groups[g].remove(node);
                let (int_out, int_in, deg_out, deg_in) = self.membership_scan(g, node);
                let agg = &mut self.aggs[g];
                agg.n_c -= 1;
                agg.m_c -= int_out + int_in;
                agg.c_c = agg.c_c + (int_out + int_in) - (deg_out - int_out) - (deg_in - int_in);
                if self.base.is_directed() {
                    agg.out_degree_sum -= deg_out;
                    agg.in_degree_sum -= deg_in;
                } else {
                    agg.out_degree_sum -= deg_out;
                    agg.in_degree_sum -= deg_out;
                }
            }
        }
        Ok(())
    }

    /// Scans `node`'s adjacency in the composed graph against group `g`:
    /// `(internal out-arcs, internal in-arcs, out-degree, in-degree)`.
    /// For undirected graphs the `in` components are zero and `deg_out`
    /// is the total degree — O(deg(node)).
    fn membership_scan(&self, g: usize, node: NodeId) -> (usize, usize, usize, usize) {
        let set = &self.groups[g];
        let scan = |list: &[NodeId]| {
            (
                list.iter().filter(|&&w| set.contains(w)).count(),
                list.len(),
            )
        };
        let graph = self.graph();
        let Ok((int_out, deg_out)) = graph.with_out_neighbors(node, scan);
        let Ok((int_in, deg_in)) =
            if self.base.is_directed() { graph.with_in_neighbors(node, scan) } else { Ok((0, 0)) };
        (int_out, int_in, deg_out, deg_in)
    }

    /// Aggregate updates for inserting (`insert = true`) or deleting the
    /// edge `u -> v`, applied to every registered group — O(1) each —
    /// and to the degree counts, once the overlay holds the change.
    fn edge_delta(&mut self, u: NodeId, v: NodeId, insert: bool) {
        for node in [u, v] {
            let Ok(now) = total_degree(&self.graph(), node);
            let was = if insert { now - 1 } else { now + 1 };
            *self.degree_counts.get_mut(&was).expect("the old degree is counted") -= 1;
            *self.degree_counts.entry(now).or_insert(0) += 1;
        }
        let directed = self.base.is_directed();
        for (set, agg) in self.groups.iter().zip(self.aggs.iter_mut()) {
            let u_in = set.contains(u);
            let v_in = set.contains(v);
            if !u_in && !v_in {
                continue;
            }
            let (m_d, c_d) = if u_in && v_in { (1, 0) } else { (0, 1) };
            let (out_d, in_d) = if directed {
                (usize::from(u_in), usize::from(v_in))
            } else {
                // Undirected degree sums count total degree for both
                // endpoints, on both the out and in side.
                let both = usize::from(u_in) + usize::from(v_in);
                (both, both)
            };
            if insert {
                agg.m_c += m_d;
                agg.c_c += c_d;
                agg.out_degree_sum += out_d;
                agg.in_degree_sum += in_d;
            } else {
                agg.m_c -= m_d;
                agg.c_c -= c_d;
                agg.out_degree_sum -= out_d;
                agg.in_degree_sum -= in_d;
            }
        }
    }

    fn check_group(&self, group: u32) -> Result<usize, MutationError> {
        let g = group as usize;
        if g >= self.groups.len() {
            return Err(MutationError::GroupOutOfRange { group, group_count: self.groups.len() });
        }
        Ok(g)
    }

    fn check_node(&self, node: NodeId) -> Result<(), MutationError> {
        if (node as usize) >= self.node_count() {
            return Err(MutationError::NodeOutOfRange { node, node_count: self.node_count() });
        }
        Ok(())
    }

    /// The maintained statistics of group `group`, shaped as a
    /// [`SetStats`]. Only the fields the paper's four functions read
    /// (`n`, `m`, `directed`, `n_c`, `m_c`, `c_c` and the degree sums)
    /// are populated; the rest are zero. Feeding this to
    /// [`ScoringFunction::score`] for Average Degree, Ratio Cut,
    /// Conductance or Modularity yields bits identical to a from-scratch
    /// [`SetStats::compute`] on the materialized graph.
    pub fn set_stats(&self, group: usize) -> Option<SetStats> {
        let agg = self.aggs.get(group)?;
        Some(SetStats {
            n: self.node_count(),
            m: self.edge_count(),
            directed: self.base.is_directed(),
            n_c: agg.n_c,
            m_c: agg.m_c,
            c_c: agg.c_c,
            out_degree_sum: agg.out_degree_sum,
            in_degree_sum: agg.in_degree_sum,
            above_median_internal: 0,
            in_internal_triangle: 0,
            max_odf: 0.0,
            avg_odf: 0.0,
            flake_odf: 0.0,
        })
    }

    /// Median total degree of the composed graph, FOMD's threshold, read
    /// off the maintained degree counts: the bits
    /// [`median_degree`](circlekit_scoring::median_degree) over
    /// [`LiveSnapshot::graph`] gives, without its pass over every vertex.
    pub fn median_degree(&self) -> f64 {
        median_of_degree_counts(&self.degree_counts)
    }

    /// The paper's four scores of group `group`, recomputed from the
    /// maintained aggregates in O(1).
    pub fn paper_scores(&self, group: usize) -> Option<[(ScoringFunction, f64); 4]> {
        let stats = self.set_stats(group)?;
        Some(ScoringFunction::PAPER.map(|f| (f, f.score(&stats))))
    }

    /// Builds a standalone [`Graph`] equal to the composed graph.
    pub fn materialize(&self) -> Graph {
        self.overlay.materialize(&*self.base)
    }

    /// Folds the overlay and WAL into a fresh CKS1 snapshot: write to a
    /// temporary sibling, fsync, atomically rename over the snapshot,
    /// fsync the directory, then unlink the WAL. A kill at any point
    /// leaves either the old snapshot + replayable WAL or the new
    /// snapshot (+ a stale WAL that [`LiveSnapshot::open`] discards) —
    /// never a torn file. Afterwards the overlay is empty and the WAL
    /// is gone; state is unchanged.
    ///
    /// # Errors
    ///
    /// [`LiveError::Store`] if this snapshot is in-memory (no backing
    /// path — reported as an I/O error) or packing fails; I/O errors
    /// otherwise.
    pub fn compact(&mut self) -> Result<(), LiveError> {
        self.compact_with_crash_point(None)
    }

    /// [`LiveSnapshot::compact`] with a deterministic simulated kill for
    /// crash-recovery tests; see [`CrashPoint`].
    pub fn compact_with_crash_point(
        &mut self,
        crash: Option<CrashPoint>,
    ) -> Result<(), LiveError> {
        let snapshot_path = self
            .snapshot_path
            .clone()
            .ok_or_else(|| {
                LiveError::Io(std::io::Error::other("in-memory snapshot cannot be compacted"))
            })?;
        let graph = self.materialize();
        replace_file(&snapshot_path, |w| {
            let written = write_snapshot(&graph, &self.groups, w)?;
            if crash == Some(CrashPoint::TmpWritten) {
                w.get_ref().sync_all()?;
                std::process::exit(137);
            }
            Ok(written)
        })?;
        if crash == Some(CrashPoint::Renamed) {
            std::process::exit(137);
        }

        self.wal = None; // close before unlink
        if let Some(wal_path) = &self.wal_path {
            if wal_path.exists() {
                std::fs::remove_file(wal_path)?;
                sync_parent_dir(wal_path)?;
            }
        }
        self.wal_records = 0;
        self.wal_offset = 0;

        // Same composed graph, now the base, mapped from the new file;
        // aggregates are untouched. Readers holding the old base keep it.
        let (base, _) = SnapshotBase::open(&snapshot_path)?;
        self.base_crc = base.file_crc32();
        self.overlay = DeltaOverlay::new(&base);
        self.base = Arc::new(base);
        Ok(())
    }
}

/// The WAL path adjacent to a snapshot: `<snapshot>.ckw`.
pub fn wal_path_for(snapshot: &Path) -> PathBuf {
    let mut os = snapshot.to_path_buf().into_os_string();
    os.push(".ckw");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use circlekit_scoring::Scorer;

    fn fixture() -> (Graph, Vec<VertexSet>) {
        // 4-clique {0,1,2,3} with a tail 3-4-5 and a spare node 6.
        let g = Graph::from_edges(
            false,
            [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)],
        );
        let groups = vec![VertexSet::from_vec(vec![0, 1, 2, 3]), VertexSet::from_vec(vec![4, 5])];
        (g, groups)
    }

    fn assert_matches_rescore(live: &LiveSnapshot) {
        let graph = live.materialize();
        let mut scorer = Scorer::new(&graph);
        for (i, set) in live.groups().iter().enumerate() {
            let full = scorer.stats(set);
            let inc = live.set_stats(i).unwrap();
            assert_eq!(
                (inc.n, inc.m, inc.n_c, inc.m_c, inc.c_c, inc.out_degree_sum, inc.in_degree_sum),
                (
                    full.n,
                    full.m,
                    full.n_c,
                    full.m_c,
                    full.c_c,
                    full.out_degree_sum,
                    full.in_degree_sum
                ),
                "aggregate mismatch for group {i}"
            );
            for f in ScoringFunction::PAPER {
                assert_eq!(
                    f.score(&inc).to_bits(),
                    f.score(&full).to_bits(),
                    "{f} diverged for group {i}"
                );
            }
        }
    }

    #[test]
    fn in_memory_apply_maintains_aggregates() {
        let (g, groups) = fixture();
        let mut live = LiveSnapshot::in_memory(g, groups);
        assert_matches_rescore(&live);
        let outcome = live
            .apply(&[
                Mutation::AddEdge { u: 0, v: 4 },
                Mutation::RemoveEdge { u: 1, v: 2 },
                Mutation::AddVertex,
                Mutation::AddMember { group: 1, node: 6 },
                Mutation::RemoveMember { group: 0, node: 3 },
                Mutation::AddEdge { u: 7, v: 3 },
            ])
            .unwrap();
        assert_eq!(outcome, ApplyOutcome { applied: 6, rejected: None });
        assert_eq!(live.node_count(), 8);
        assert_matches_rescore(&live);
    }

    #[test]
    fn batch_stops_at_first_rejection() {
        let (g, groups) = fixture();
        let mut live = LiveSnapshot::in_memory(g, groups);
        let outcome = live
            .apply(&[
                Mutation::AddEdge { u: 0, v: 4 },
                Mutation::AddEdge { u: 0, v: 4 }, // duplicate
                Mutation::AddEdge { u: 0, v: 5 }, // never reached
            ])
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.rejected, Some((1, MutationError::EdgeExists { u: 0, v: 4 })));
        assert!(!live.overlay().has_edge(live.base(), 0, 5));
        assert_matches_rescore(&live);
    }

    #[test]
    fn membership_rejections_are_typed() {
        let (g, groups) = fixture();
        let mut live = LiveSnapshot::in_memory(g, groups);
        let mut reject = |m: Mutation| live.apply(&[m]).unwrap().rejected.unwrap().1;
        assert_eq!(
            reject(Mutation::AddMember { group: 9, node: 0 }),
            MutationError::GroupOutOfRange { group: 9, group_count: 2 }
        );
        assert_eq!(
            reject(Mutation::AddMember { group: 0, node: 99 }),
            MutationError::NodeOutOfRange { node: 99, node_count: 7 }
        );
        assert_eq!(
            reject(Mutation::AddMember { group: 0, node: 3 }),
            MutationError::AlreadyMember { group: 0, node: 3 }
        );
        assert_eq!(
            reject(Mutation::RemoveMember { group: 1, node: 3 }),
            MutationError::NotMember { group: 1, node: 3 }
        );
    }

    #[test]
    fn directed_aggregates_match_rescore() {
        let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0), (0, 3), (4, 1)]);
        let groups = vec![VertexSet::from_vec(vec![0, 1, 2])];
        let mut live = LiveSnapshot::in_memory(g, groups);
        assert_matches_rescore(&live);
        live.apply(&[
            Mutation::AddEdge { u: 3, v: 2 },
            Mutation::AddMember { group: 0, node: 4 },
            Mutation::RemoveEdge { u: 2, v: 0 },
            Mutation::RemoveMember { group: 0, node: 1 },
        ])
        .unwrap();
        assert_matches_rescore(&live);
    }

    #[test]
    fn wal_persists_and_replays() {
        let dir = std::env::temp_dir().join("circlekit-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("replay-{}.cks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path_for(&path));

        let (g, groups) = fixture();
        circlekit_store::save_snapshot(&path, &g, &groups).unwrap();

        let muts = [
            Mutation::AddEdge { u: 0, v: 4 },
            Mutation::AddMember { group: 1, node: 6 },
            Mutation::RemoveEdge { u: 0, v: 1 },
        ];
        let mut live = LiveSnapshot::open(&path).unwrap();
        live.apply(&muts).unwrap();
        let expect: Vec<_> = (0..2).map(|i| live.paper_scores(i).unwrap()).collect();
        drop(live);

        // A fresh open replays the WAL to the same state.
        let reopened = LiveSnapshot::open(&path).unwrap();
        assert_eq!(reopened.replayed_records(), 3);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(&reopened.paper_scores(i).unwrap(), want);
        }
        assert_matches_rescore(&reopened);

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn compaction_folds_wal_into_snapshot() {
        let dir = std::env::temp_dir().join("circlekit-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("compact-{}.cks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path_for(&path));

        let (g, groups) = fixture();
        circlekit_store::save_snapshot(&path, &g, &groups).unwrap();

        let mut live = LiveSnapshot::open(&path).unwrap();
        live.apply(&[Mutation::AddEdge { u: 0, v: 4 }, Mutation::AddVertex]).unwrap();
        let expect = live.paper_scores(0).unwrap();
        live.compact().unwrap();
        assert!(!wal_path_for(&path).exists());
        assert_eq!(live.wal_records(), 0);
        assert_eq!(live.paper_scores(0).unwrap(), expect);

        // The snapshot on disk now *is* the mutated graph.
        let reopened = LiveSnapshot::open(&path).unwrap();
        assert_eq!(reopened.replayed_records(), 0);
        assert_eq!(reopened.node_count(), 8);
        assert_eq!(reopened.paper_scores(0).unwrap(), expect);
        assert_matches_rescore(&reopened);

        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replication_ships_byte_identical_wal() {
        let dir = std::env::temp_dir().join("circlekit-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let primary = dir.join(format!("repl-primary-{}.cks", std::process::id()));
        let replica = dir.join(format!("repl-replica-{}.cks", std::process::id()));
        for p in [&primary, &replica] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(wal_path_for(p));
        }

        let (g, groups) = fixture();
        circlekit_store::save_snapshot(&primary, &g, &groups).unwrap();
        std::fs::copy(&primary, &replica).unwrap();

        let mut p = LiveSnapshot::open(&primary).unwrap();
        let mut r = LiveSnapshot::open(&replica).unwrap();
        assert_eq!(p.base_crc(), r.base_crc());
        assert_eq!((p.wal_offset(), r.wal_offset()), (0, 0));
        assert!(p.replication_frames_from(0).unwrap().is_empty());

        // First batch ships, second ships from the replica's offset.
        p.apply(&[Mutation::AddEdge { u: 0, v: 4 }, Mutation::AddVertex]).unwrap();
        let frames = p.replication_frames_from(r.wal_offset()).unwrap();
        assert_eq!(r.apply_replicated(&frames).unwrap(), 2);
        assert_eq!(r.wal_offset(), p.wal_offset());

        p.apply(&[Mutation::AddMember { group: 1, node: 6 }]).unwrap();
        let frames = p.replication_frames_from(r.wal_offset()).unwrap();
        assert_eq!(r.apply_replicated(&frames).unwrap(), 1);
        assert_eq!(r.wal_offset(), p.wal_offset());

        for i in 0..2 {
            assert_eq!(r.paper_scores(i).unwrap(), p.paper_scores(i).unwrap());
        }
        assert_matches_rescore(&r);
        assert_eq!(
            std::fs::read(wal_path_for(&primary)).unwrap(),
            std::fs::read(wal_path_for(&replica)).unwrap(),
            "replica WAL must be byte-identical to the primary's"
        );

        // A replica restart replays its own WAL back to the same offset.
        drop(r);
        let reopened = LiveSnapshot::open(&replica).unwrap();
        assert_eq!(reopened.wal_offset(), p.wal_offset());
        assert_eq!(reopened.replayed_records(), 3);

        for path in [&primary, &replica] {
            std::fs::remove_file(path).unwrap();
            std::fs::remove_file(wal_path_for(path)).unwrap();
        }
    }

    #[test]
    fn replication_offsets_are_validated() {
        let dir = std::env::temp_dir().join("circlekit-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("repl-offsets-{}.cks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path_for(&path));

        let (g, groups) = fixture();
        circlekit_store::save_snapshot(&path, &g, &groups).unwrap();
        let mut live = LiveSnapshot::open(&path).unwrap();
        live.apply(&[Mutation::AddEdge { u: 0, v: 4 }, Mutation::AddVertex]).unwrap();
        let committed = live.wal_offset();

        // Past the end.
        assert!(matches!(
            live.replication_frames_from(committed + 1),
            Err(LiveError::BadReplicationOffset { offset, .. }) if offset == committed + 1
        ));
        // Mid-frame.
        assert!(matches!(
            live.replication_frames_from(3),
            Err(LiveError::BadReplicationOffset { offset: 3, .. })
        ));

        // A torn batch applies nothing on the replica side.
        let (g2, groups2) = fixture();
        let mut replica = LiveSnapshot::in_memory(g2, groups2);
        let frames = live.replication_frames_from(0).unwrap();
        let torn = &frames[..frames.len() - 1];
        assert!(matches!(
            replica.apply_replicated(torn),
            Err(LiveError::TornReplicationBatch { .. })
        ));
        assert_eq!(replica.node_count(), 7, "torn batch must apply nothing");
        assert_eq!(replica.apply_replicated(&frames).unwrap(), 2);
        assert_eq!(replica.node_count(), 8);

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path_for(&path)).unwrap();
    }

    #[test]
    fn stale_wal_is_discarded() {
        let dir = std::env::temp_dir().join("circlekit-live-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("stale-{}.cks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(wal_path_for(&path));

        let (g, groups) = fixture();
        circlekit_store::save_snapshot(&path, &g, &groups).unwrap();

        // A WAL against a *different* base CRC (as a crash between
        // compaction's rename and unlink leaves behind).
        let header = WalHeader { directed: false, base_crc: 1, base_nodes: 7, base_edges: 9 };
        let mut w = WalWriter::create(&wal_path_for(&path), header).unwrap();
        w.append(&[Mutation::AddEdge { u: 0, v: 4 }]).unwrap();
        drop(w);

        let live = LiveSnapshot::open(&path).unwrap();
        assert!(live.discarded_stale_wal());
        assert!(!wal_path_for(&path).exists());
        assert_eq!(live.replayed_records(), 0);
        assert_eq!(live.edge_count(), 9);

        std::fs::remove_file(&path).unwrap();
    }
}
