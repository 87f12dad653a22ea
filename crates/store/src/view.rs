//! [`SnapshotView`]: the zero-copy read path.
//!
//! After one validation pass (header + per-section checksums + offset
//! structure), the view borrows the CSR and group arrays directly from
//! the underlying buffer — no allocation proportional to the graph. This
//! requires a little-endian host (the stored integers are reinterpreted
//! in place) and an 8-byte-aligned buffer (a page-aligned memory map, or
//! [`crate::mmap::MappedSnapshot`]'s aligned fallback buffer); when
//! either does not hold, [`SnapshotView::parse`] reports
//! [`StoreError::NotZeroCopy`] and the portable
//! [`crate::reader::load_snapshot`] path remains available.
//!
//! The view validates everything needed for its own accessors to be
//! panic-free on any input that passes parsing: offsets are monotone and
//! bounded by the target arrays. Per-adjacency *sortedness* is not
//! checked here (reading neighbours does not require it);
//! [`SnapshotView::to_graph`] re-validates it when materialising a
//! [`Graph`], exactly like the buffered loader, and
//! [`SnapshotView::validate_lists`] checks it in place for readers that
//! serve the lists straight from the buffer
//! ([`crate::SnapshotBase`]).

use crate::error::StoreError;
use crate::format::{
    find_section, parse_frames, parse_sections, Header, Section, SectionId, ShardManifest,
    CKS1_SPEC,
};
use crate::reader::{build_groups, Snapshot};
use circlekit_graph::{validate_csr_parts, AdjacencyAccess, Graph, NodeId, VertexSet};
use std::convert::Infallible;

/// Description of one section, for `inspect`-style reporting.
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Section name.
    pub name: &'static str,
    /// Unpadded payload size in bytes.
    pub bytes: u64,
    /// Verified CRC-32 of the payload.
    pub checksum: u32,
}

/// A validated, zero-copy view of a CKS1 snapshot buffer.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotView<'a> {
    header: Header,
    out_offsets: &'a [u64],
    out_targets: &'a [NodeId],
    in_offsets: Option<&'a [u64]>,
    in_targets: Option<&'a [NodeId]>,
    group_offsets: Option<&'a [u64]>,
    group_members: Option<&'a [NodeId]>,
    shard: Option<ShardManifest>,
}

/// Reinterprets a payload as a little-endian integer slice without
/// copying. `expected` is the required element count.
fn cast_slice<'a, T: Pod>(
    section: &Section<'a>,
    expected: u64,
) -> Result<&'a [T], StoreError> {
    let elem = std::mem::size_of::<T>() as u64;
    let bytes = expected
        .checked_mul(elem)
        .ok_or(StoreError::OffsetOverflow { value: expected })?;
    if section.payload.len() as u64 != bytes {
        return Err(StoreError::WrongSectionLen {
            section: section.id.name(),
            expected: bytes,
            actual: section.payload.len() as u64,
        });
    }
    // SAFETY: `T` is a plain-old-data integer type (`Pod` is sealed over
    // u32/u64), for which every bit pattern is a valid value;
    // `align_to` itself guarantees the middle slice is correctly
    // aligned, and we reject the buffer unless the prefix and suffix are
    // empty, i.e. unless the whole payload reinterprets cleanly.
    let (prefix, mid, suffix) = unsafe { section.payload.align_to::<T>() };
    if !prefix.is_empty() || !suffix.is_empty() {
        return Err(StoreError::NotZeroCopy { why: "payload is not naturally aligned" });
    }
    Ok(mid)
}

/// Marker for the integer types a payload may be reinterpreted as.
///
/// # Safety
///
/// Implementors must be plain-old-data: no padding, no invalid bit
/// patterns. Sealed to `u32` and `u64`.
unsafe trait Pod: Copy {}
// SAFETY: every bit pattern is a valid u32.
unsafe impl Pod for u32 {}
// SAFETY: every bit pattern is a valid u64.
unsafe impl Pod for u64 {}

/// Checks that an offsets array starts at 0, never decreases, and ends
/// exactly at `target_len`, making target slicing panic-free.
fn check_offsets(
    name: &'static str,
    offsets: &[u64],
    target_len: u64,
) -> Result<(), StoreError> {
    let bad = |why: String| {
        Err(StoreError::Graph(circlekit_graph::GraphError::InvalidCsr(format!("{name}: {why}"))))
    };
    match offsets.first() {
        Some(0) => {}
        Some(o) => return bad(format!("offsets[0] is {o}, expected 0")),
        None => return bad("offsets array is empty".to_string()),
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return bad("offsets decrease".to_string());
    }
    if *offsets.last().expect("non-empty") != target_len {
        return bad(format!(
            "final offset {} does not match target count {target_len}",
            offsets.last().expect("non-empty")
        ));
    }
    Ok(())
}

impl<'a> SnapshotView<'a> {
    /// Parses and validates `bytes` as a CKS1 snapshot, borrowing every
    /// array in place.
    ///
    /// # Errors
    ///
    /// Every framing and checksum error of
    /// [`parse_sections`](crate::format::parse_sections); the semantic
    /// size/structure errors shared with the buffered loader; and
    /// [`StoreError::NotZeroCopy`] on a big-endian host or a buffer
    /// whose payloads are not 8-byte aligned.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotView<'a>, StoreError> {
        if cfg!(target_endian = "big") {
            return Err(StoreError::NotZeroCopy { why: "big-endian host" });
        }
        let (header, sections) = parse_sections(bytes)?;
        let directed = header.directed();
        let has_groups = header.has_groups();

        let sec_out_off = find_section(&sections, SectionId::OutOffsets, true, true)?
            .expect("required section present");
        let sec_out_tgt = find_section(&sections, SectionId::OutTargets, true, true)?
            .expect("required section present");
        let out_offsets: &[u64] = cast_slice(sec_out_off, header.node_count + 1)?;
        let out_arcs = out_offsets.last().copied().unwrap_or(0);
        let out_targets: &[NodeId] = cast_slice(sec_out_tgt, out_arcs)?;
        check_offsets("out-adjacency", out_offsets, out_targets.len() as u64)?;

        let (in_offsets, in_targets) = match (
            find_section(&sections, SectionId::InOffsets, directed, directed)?,
            find_section(&sections, SectionId::InTargets, directed, directed)?,
        ) {
            (Some(sec_off), Some(sec_tgt)) => {
                let offsets: &[u64] = cast_slice(sec_off, header.node_count + 1)?;
                let arcs = offsets.last().copied().unwrap_or(0);
                let targets: &[NodeId] = cast_slice(sec_tgt, arcs)?;
                check_offsets("in-adjacency", offsets, targets.len() as u64)?;
                (Some(offsets), Some(targets))
            }
            _ => (None, None),
        };

        let (group_offsets, group_members) = match (
            find_section(&sections, SectionId::GroupOffsets, has_groups, has_groups)?,
            find_section(&sections, SectionId::GroupMembers, has_groups, has_groups)?,
        ) {
            (Some(sec_off), Some(sec_mem)) => {
                if sec_off.payload.len() < 8 || sec_off.payload.len() % 8 != 0 {
                    return Err(StoreError::WrongSectionLen {
                        section: sec_off.id.name(),
                        expected: 8,
                        actual: sec_off.payload.len() as u64,
                    });
                }
                let offsets: &[u64] = cast_slice(sec_off, sec_off.payload.len() as u64 / 8)?;
                let members_len = offsets.last().copied().unwrap_or(0);
                let members: &[NodeId] = cast_slice(sec_mem, members_len)?;
                check_offsets("groups", offsets, members.len() as u64)
                    .map_err(|_| StoreError::InvalidGroups {
                        group: 0,
                        why: "group offsets are not monotone from 0".to_string(),
                    })?;
                (Some(offsets), Some(members))
            }
            _ => (None, None),
        };

        let is_shard = header.is_shard();
        let shard = find_section(&sections, SectionId::ShardManifest, is_shard, is_shard)?
            .map(|s| ShardManifest::decode(&header, s.payload))
            .transpose()?;

        Ok(SnapshotView {
            header,
            out_offsets,
            out_targets,
            in_offsets,
            in_targets,
            group_offsets,
            group_members,
            shard,
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.header.node_count as usize
    }

    /// `m`: arcs for directed snapshots, undirected edges otherwise.
    pub fn edge_count(&self) -> usize {
        self.header.edge_count as usize
    }

    /// Whether the stored graph is directed.
    pub fn is_directed(&self) -> bool {
        self.header.directed()
    }

    /// Number of stored arcs (length of the out-targets array).
    pub fn arc_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Number of stored groups (0 when packed without groups).
    pub fn group_count(&self) -> usize {
        self.group_offsets.map_or(0, |o| o.len() - 1)
    }

    /// Total stored memberships across all groups.
    pub fn member_count(&self) -> usize {
        self.group_members.map_or(0, <[NodeId]>::len)
    }

    /// The shard manifest: `Some` for a shard sub-snapshot (already
    /// validated against the header by [`SnapshotView::parse`]), `None`
    /// for an ordinary snapshot.
    pub fn shard_manifest(&self) -> Option<&ShardManifest> {
        self.shard.as_ref()
    }

    /// Out-neighbours of `v`, borrowed from the snapshot buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn out_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// In-neighbours of `v` (the symmetric adjacency for undirected
    /// snapshots), borrowed from the snapshot buffer.
    ///
    /// # Panics
    ///
    /// Panics if `v >= node_count()`.
    pub fn in_neighbors(&self, v: NodeId) -> &'a [NodeId] {
        match (self.in_offsets, self.in_targets) {
            (Some(offsets), Some(targets)) => {
                let v = v as usize;
                &targets[offsets[v] as usize..offsets[v + 1] as usize]
            }
            _ => self.out_neighbors(v),
        }
    }

    /// Members of group `i`, borrowed from the snapshot buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i >= group_count()`.
    pub fn group(&self, i: usize) -> &'a [NodeId] {
        let offsets = self.group_offsets.expect("group_count() > 0 checked by caller");
        let members = self.group_members.expect("offsets and members coexist");
        &members[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Checks the adjacency lists themselves: sorted, duplicate-free, in
    /// range, and consistent with the header's edge count — the
    /// invariants [`SnapshotView::to_graph`] re-validates — without
    /// copying them. [`SnapshotView::parse`] checks only the offsets;
    /// a reader serving the lists in place runs this once as well.
    ///
    /// # Errors
    ///
    /// [`StoreError::Graph`] naming the first defect.
    pub fn validate_lists(&self) -> Result<(), StoreError> {
        Ok(validate_csr_parts(
            self.is_directed(),
            self.edge_count(),
            (self.out_offsets, self.out_targets),
            self.in_offsets.zip(self.in_targets),
        )?)
    }

    /// Materialises the stored graph, re-validating the full CSR
    /// invariants (including per-adjacency sortedness).
    ///
    /// # Errors
    ///
    /// [`StoreError::Graph`] when an invariant fails,
    /// [`StoreError::OffsetOverflow`] on a 32-bit host whose `usize`
    /// cannot hold a stored offset.
    pub fn to_graph(&self) -> Result<Graph, StoreError> {
        let widen = |offsets: &[u64]| -> Result<Vec<usize>, StoreError> {
            offsets
                .iter()
                .map(|&o| usize::try_from(o).map_err(|_| StoreError::OffsetOverflow { value: o }))
                .collect()
        };
        let in_parts = match (self.in_offsets, self.in_targets) {
            (Some(offsets), Some(targets)) => Some((widen(offsets)?, targets.to_vec())),
            _ => None,
        };
        Ok(Graph::try_from_csr_parts(
            self.is_directed(),
            self.edge_count(),
            widen(self.out_offsets)?,
            self.out_targets.to_vec(),
            in_parts,
        )?)
    }

    /// Materialises the stored groups (empty when packed without
    /// groups), re-validating the `VertexSet` invariants.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidGroups`] when a group is unsorted, carries
    /// duplicates, or references a node outside the graph.
    pub fn to_groups(&self) -> Result<Vec<VertexSet>, StoreError> {
        match (self.group_offsets, self.group_members) {
            (Some(offsets), Some(members)) => {
                build_groups(offsets, members, self.header.node_count)
            }
            _ => Ok(Vec::new()),
        }
    }

    /// Materialises the whole snapshot ([`SnapshotView::to_graph`] +
    /// [`SnapshotView::to_groups`]).
    ///
    /// # Errors
    ///
    /// As the two underlying conversions.
    pub fn to_snapshot(&self) -> Result<Snapshot, StoreError> {
        Ok(Snapshot { graph: self.to_graph()?, groups: self.to_groups()? })
    }
}

/// The CKS1 view serves adjacency straight from the (possibly mapped)
/// buffer, so paged scoring works over it too — without decompression,
/// since CKS1 stores raw arrays.
impl AdjacencyAccess for SnapshotView<'_> {
    type Error = Infallible;

    fn node_count(&self) -> usize {
        SnapshotView::node_count(self)
    }

    fn edge_count(&self) -> usize {
        SnapshotView::edge_count(self)
    }

    fn is_directed(&self) -> bool {
        SnapshotView::is_directed(self)
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        Ok(f(self.out_neighbors(v)))
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        Ok(f(self.in_neighbors(v)))
    }
}

/// Re-walks the sections of `bytes` for reporting: name, payload size,
/// and (verified) checksum of each, in file order. Dispatches on the
/// magic, so `inspect` handles CKS1 and CKS2 files alike.
///
/// # Errors
///
/// As [`parse_sections`](crate::format::parse_sections) (or its CKS2
/// counterpart).
pub fn section_infos(bytes: &[u8]) -> Result<(Header, Vec<SectionInfo>), StoreError> {
    let spec = if crate::cks2::is_cks2(bytes) { &crate::cks2::CKS2_SPEC } else { &CKS1_SPEC };
    let (header, frames) = parse_frames(spec, bytes)?;
    let infos = frames
        .iter()
        .map(|f| SectionInfo {
            name: f.name,
            bytes: f.payload.len() as u64,
            checksum: f.checksum,
        })
        .collect();
    Ok((header, infos))
}
