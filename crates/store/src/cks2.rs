//! The CKS2 compressed snapshot format: width-reduced offsets, delta +
//! varint adjacency, degree-ordered relabelling.
//!
//! CKS2 reuses CKS1's 32-byte header and 16-byte section framing (magic
//! `CKS2`; see [`crate::format`]) but stores the graph compressed:
//!
//! ```text
//! section  1  permutation    node_count × u32          old_of[new]
//! section  2  out-adjacency  concatenated varint blocks (new-id space)
//! section  3  out-offsets    (node_count + 1) × u32|u64 byte offsets
//! section  4  in-adjacency   directed only
//! section  5  in-offsets     directed only
//! section  6  group-members  concatenated varint blocks (new-id space)
//! section  7  group-offsets  (group_count + 1) × u32|u64 byte offsets
//! ```
//!
//! Vertices are relabelled by **total degree descending** (ties broken
//! by ascending original id): hubs land on small ids, which shortens the
//! varints that reference them, and each vertex's neighbours compress to
//! small deltas (see [`crate::codec`]). The permutation section maps the
//! stored ids back, so [`Cks2View::to_graph`] / [`Cks2View::to_groups`]
//! reproduce the **original** ids bit-identically — scores, figures, and
//! rendered output cannot tell which format loaded the data.
//!
//! Offsets are `u32` when every compressed blob provably fits (the
//! common case — this is half the size win over CKS1's u64 offsets) and
//! `u64` otherwise, signalled by [`FLAG_WIDE`] in the header. The
//! selection rule is conservative and writer-side:
//! `5 bytes × item count` (a varint's maximum size) must fit `u32`.
//!
//! Scoring does not have to materialise any of this: [`Cks2View::paged`]
//! adapts the view to `circlekit_graph::AdjacencyAccess`, decoding one
//! vertex's list at a time into a scratch buffer, so an mmap-backed
//! snapshot larger than RAM can be scored section-by-section while the
//! OS pages the file in and out.

use crate::codec::{decode_list_into, CodecError};
use crate::error::StoreError;
use crate::format::{find_frame, parse_frames, FormatSpec, Frame, Header};
use crate::reader::Snapshot;
use circlekit_graph::{AdjacencyAccess, Graph, GraphError, NodeId, VertexSet};
use std::cell::RefCell;

/// The four magic bytes of a CKS2 snapshot.
pub const MAGIC2: [u8; 4] = *b"CKS2";
/// Current (and only) CKS2 version.
pub const VERSION2: u16 = 1;
/// Header flag: offset sections store u64 entries instead of u32.
pub const FLAG_WIDE: u16 = 1 << 2;

pub(crate) const SEC_PERMUTATION: u32 = 1;
pub(crate) const SEC_OUT_BLOCKS: u32 = 2;
pub(crate) const SEC_OUT_OFFSETS: u32 = 3;
pub(crate) const SEC_IN_BLOCKS: u32 = 4;
pub(crate) const SEC_IN_OFFSETS: u32 = 5;
pub(crate) const SEC_GROUP_BLOCKS: u32 = 6;
pub(crate) const SEC_GROUP_OFFSETS: u32 = 7;

pub(crate) fn cks2_section_name(v: u32) -> Option<&'static str> {
    match v {
        SEC_PERMUTATION => Some("permutation"),
        SEC_OUT_BLOCKS => Some("out-adjacency"),
        SEC_OUT_OFFSETS => Some("out-offsets"),
        SEC_IN_BLOCKS => Some("in-adjacency"),
        SEC_IN_OFFSETS => Some("in-offsets"),
        SEC_GROUP_BLOCKS => Some("group-members"),
        SEC_GROUP_OFFSETS => Some("group-offsets"),
        _ => None,
    }
}

/// The CKS2 framing parameters.
pub(crate) const CKS2_SPEC: FormatSpec = FormatSpec {
    magic: MAGIC2,
    version: VERSION2,
    known_flags: crate::format::FLAG_DIRECTED | crate::format::FLAG_GROUPS | FLAG_WIDE,
    section_name: cks2_section_name,
};

/// Whether `flags` declare wide (u64) offset sections.
pub(crate) fn is_wide(flags: u16) -> bool {
    flags & FLAG_WIDE != 0
}

/// An offsets section, borrowed at its stored width.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OffsetsView<'a> {
    /// u32 entries (the narrow, common case).
    Narrow(&'a [u32]),
    /// u64 entries (blobs past 4 GiB).
    Wide(&'a [u64]),
}

impl OffsetsView<'_> {
    pub(crate) fn len(self) -> usize {
        match self {
            OffsetsView::Narrow(s) => s.len(),
            OffsetsView::Wide(s) => s.len(),
        }
    }

    pub(crate) fn get(self, i: usize) -> u64 {
        match self {
            OffsetsView::Narrow(s) => s[i] as u64,
            OffsetsView::Wide(s) => s[i],
        }
    }

    pub(crate) fn to_vec(self) -> Vec<u64> {
        match self {
            OffsetsView::Narrow(s) => s.iter().map(|&o| o as u64).collect(),
            OffsetsView::Wide(s) => s.to_vec(),
        }
    }
}

/// Reinterprets a frame payload as a little-endian integer slice,
/// checking the element count (zero-copy; same contract as the CKS1
/// view's cast).
fn cast_frame<'a, T: PodInt>(frame: &Frame<'a>, expected: u64) -> Result<&'a [T], StoreError> {
    let elem = std::mem::size_of::<T>() as u64;
    let bytes = expected
        .checked_mul(elem)
        .ok_or(StoreError::OffsetOverflow { value: expected })?;
    if frame.payload.len() as u64 != bytes {
        return Err(StoreError::WrongSectionLen {
            section: frame.name,
            expected: bytes,
            actual: frame.payload.len() as u64,
        });
    }
    // SAFETY: `T` is a plain-old-data integer type (`PodInt` is sealed
    // over u32/u64) for which every bit pattern is valid; `align_to`
    // guarantees the middle slice is aligned, and we reject the buffer
    // unless the whole payload reinterprets cleanly.
    let (prefix, mid, suffix) = unsafe { frame.payload.align_to::<T>() };
    if !prefix.is_empty() || !suffix.is_empty() {
        return Err(StoreError::NotZeroCopy { why: "payload is not naturally aligned" });
    }
    Ok(mid)
}

/// Marker for the integer types a payload may be reinterpreted as.
///
/// # Safety
///
/// Implementors must be plain-old-data. Sealed to `u32` and `u64`.
unsafe trait PodInt: Copy {}
// SAFETY: every bit pattern is a valid u32.
unsafe impl PodInt for u32 {}
// SAFETY: every bit pattern is a valid u64.
unsafe impl PodInt for u64 {}

/// Checks a block-offsets array: starts at 0, never decreases, ends at
/// `blob_len` — making block slicing panic-free.
fn check_block_offsets(
    name: &'static str,
    get: impl Fn(usize) -> u64,
    len: usize,
    blob_len: u64,
) -> Result<(), StoreError> {
    let bad = |why: String| {
        Err(StoreError::Graph(GraphError::InvalidCsr(format!("{name}: {why}"))))
    };
    if len == 0 {
        return bad("offsets array is empty".to_string());
    }
    if get(0) != 0 {
        return bad(format!("offsets[0] is {}, expected 0", get(0)));
    }
    if (1..len).any(|i| get(i - 1) > get(i)) {
        return bad("offsets decrease".to_string());
    }
    if get(len - 1) != blob_len {
        return bad(format!(
            "final offset {} does not match compressed blob size {blob_len}",
            get(len - 1)
        ));
    }
    Ok(())
}

/// Maps a block [`CodecError`] into a section-qualified [`StoreError`].
fn codec_err(section: &'static str, item: u64, e: CodecError) -> StoreError {
    StoreError::Codec { section, item, why: e.why }
}

/// Inverts `old_of` (the stored permutation, new → old) into new_of
/// (old → new), verifying it is a bijection over `0..n`.
pub(crate) fn invert_permutation(old_of: &[u32]) -> Result<Vec<u32>, StoreError> {
    let n = old_of.len();
    let mut new_of = vec![0u32; n];
    let mut seen = vec![0u64; n.div_ceil(64)];
    for (new, &old) in old_of.iter().enumerate() {
        let o = old as usize;
        if o >= n {
            return Err(StoreError::BadPermutation {
                entry: new as u64,
                why: "entry outside the node range",
            });
        }
        let (word, bit) = (o / 64, o % 64);
        if seen[word] & (1 << bit) != 0 {
            return Err(StoreError::BadPermutation {
                entry: new as u64,
                why: "entry repeated (not a bijection)",
            });
        }
        seen[word] |= 1 << bit;
        new_of[o] = new as u32;
    }
    Ok(new_of)
}

/// The degree-descending relabelling: returns `(old_of, new_of)` where
/// `old_of[new] = old`. Ties break by ascending original id, so the
/// permutation is a pure function of the degree sequence — both packers
/// (in-memory and streaming) derive identical relabellings, which is
/// what makes their outputs byte-identical.
pub(crate) fn degree_order_permutation(degrees: &[u64]) -> (Vec<u32>, Vec<u32>) {
    let n = degrees.len();
    let mut old_of: Vec<u32> = (0..n as u32).collect();
    old_of.sort_unstable_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
    let mut new_of = vec![0u32; n];
    for (new, &old) in old_of.iter().enumerate() {
        new_of[old as usize] = new as u32;
    }
    (old_of, new_of)
}

/// Decodes every block of a compressed adjacency into a CSR in
/// **original-id** space: block `new_u` is decoded, its targets mapped
/// through `old_of`, re-sorted, and placed at `old_of[new_u]`'s slot.
fn materialize_csr(
    section: &'static str,
    offsets: &[u64],
    blocks: &[u8],
    old_of: &[u32],
    new_of: &[u32],
) -> Result<(Vec<usize>, Vec<u32>), StoreError> {
    let n = old_of.len();
    let mut csr_offsets = Vec::with_capacity(n + 1);
    csr_offsets.push(0usize);
    let mut targets: Vec<u32> = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    for &new_u in new_of.iter() {
        let new_u = new_u as usize;
        let (s, e) = (offsets[new_u] as usize, offsets[new_u + 1] as usize);
        decode_list_into(&blocks[s..e], n as u64, &mut scratch)
            .map_err(|e| codec_err(section, new_u as u64, e))?;
        for t in &mut scratch {
            *t = old_of[*t as usize];
        }
        scratch.sort_unstable();
        targets.extend_from_slice(&scratch);
        csr_offsets.push(targets.len());
    }
    Ok((csr_offsets, targets))
}

/// Decodes every group block, mapping members back to original ids.
fn materialize_groups(
    offsets: &[u64],
    blocks: &[u8],
    n: u64,
    old_of: &[u32],
) -> Result<Vec<VertexSet>, StoreError> {
    let mut groups = Vec::with_capacity(offsets.len().saturating_sub(1));
    let mut scratch: Vec<u32> = Vec::new();
    for i in 0..offsets.len().saturating_sub(1) {
        let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
        decode_list_into(&blocks[s..e], n, &mut scratch)
            .map_err(|e| codec_err("group-members", i as u64, e))?;
        let mut members: Vec<u32> =
            scratch.iter().map(|&m| old_of[m as usize]).collect();
        // A bijection maps the strictly increasing stored list to a
        // duplicate-free (but unsorted) one; restore sortedness.
        members.sort_unstable();
        groups.push(VertexSet::from_sorted_unique(members));
    }
    Ok(groups)
}

/// A validated, zero-copy view of a CKS2 snapshot buffer. Adjacency
/// stays compressed; accessors decode one vertex's block on demand.
#[derive(Clone, Copy, Debug)]
pub struct Cks2View<'a> {
    header: Header,
    perm: &'a [u32],
    out_offsets: OffsetsView<'a>,
    out_blocks: &'a [u8],
    in_offsets: Option<OffsetsView<'a>>,
    in_blocks: Option<&'a [u8]>,
    group_offsets: Option<OffsetsView<'a>>,
    group_blocks: Option<&'a [u8]>,
}

/// Locates an offsets/blocks section pair, casts the offsets at the
/// declared width, and checks the offset structure against the blob.
#[allow(clippy::too_many_arguments)]
fn load_pair<'a>(
    frames: &[Frame<'a>],
    offsets_id: u32,
    offsets_name: &'static str,
    blocks_id: u32,
    blocks_name: &'static str,
    entries: u64,
    wide: bool,
    required: bool,
    allowed: bool,
) -> Result<Option<(OffsetsView<'a>, &'a [u8])>, StoreError> {
    let sec_off = find_frame(frames, offsets_id, offsets_name, required, allowed)?;
    let sec_blk = find_frame(frames, blocks_id, blocks_name, required, allowed)?;
    match (sec_off, sec_blk) {
        (Some(off), Some(blk)) => {
            let offsets = if wide {
                OffsetsView::Wide(cast_frame::<u64>(off, entries)?)
            } else {
                OffsetsView::Narrow(cast_frame::<u32>(off, entries)?)
            };
            check_block_offsets(
                offsets_name,
                |i| offsets.get(i),
                offsets.len(),
                blk.payload.len() as u64,
            )?;
            Ok(Some((offsets, blk.payload)))
        }
        // One of the pair present without the other: find_frame's
        // required/allowed rules fired above unless both are optional
        // and only one exists — treat that as a missing section.
        (Some(_), None) => Err(StoreError::MissingSection { section: blocks_name }),
        (None, Some(_)) => Err(StoreError::MissingSection { section: offsets_name }),
        (None, None) => Ok(None),
    }
}

impl<'a> Cks2View<'a> {
    /// Parses and validates `bytes` as a CKS2 snapshot: framing and
    /// checksums via the shared [`crate::format`] walker, then
    /// permutation/offset structure. Blocks are *not* decoded here —
    /// each decodes (with full validation) when first touched.
    ///
    /// # Errors
    ///
    /// Every framing error of the shared section walker; the structural
    /// errors above; [`StoreError::NotZeroCopy`] on a big-endian host or
    /// a misaligned buffer (use [`crate::decode_snapshot`], which is
    /// portable, instead).
    pub fn parse(bytes: &'a [u8]) -> Result<Cks2View<'a>, StoreError> {
        if cfg!(target_endian = "big") {
            return Err(StoreError::NotZeroCopy { why: "big-endian host" });
        }
        let (header, frames) = parse_frames(&CKS2_SPEC, bytes)?;
        let n = header.node_count;
        if n > 1 << 32 {
            return Err(StoreError::OffsetOverflow { value: n });
        }
        let directed = header.directed();
        let has_groups = header.has_groups();
        let wide = is_wide(header.flags);

        let sec_perm = find_frame(&frames, SEC_PERMUTATION, "permutation", true, true)?
            .expect("required section present");
        let perm: &[u32] = cast_frame(sec_perm, n)?;

        let (out_offsets, out_blocks) = load_pair(
            &frames,
            SEC_OUT_OFFSETS,
            "out-offsets",
            SEC_OUT_BLOCKS,
            "out-adjacency",
            n + 1,
            wide,
            true,
            true,
        )?
        .expect("required pair present");

        let in_pair = load_pair(
            &frames,
            SEC_IN_OFFSETS,
            "in-offsets",
            SEC_IN_BLOCKS,
            "in-adjacency",
            n + 1,
            wide,
            directed,
            directed,
        )?;

        let group_pair = match find_frame(
            &frames,
            SEC_GROUP_OFFSETS,
            "group-offsets",
            has_groups,
            has_groups,
        )? {
            Some(off_frame) => {
                // Group count comes from the section length itself.
                let entry = if wide { 8 } else { 4 };
                if off_frame.payload.len() < entry || off_frame.payload.len() % entry != 0 {
                    return Err(StoreError::WrongSectionLen {
                        section: "group-offsets",
                        expected: entry as u64,
                        actual: off_frame.payload.len() as u64,
                    });
                }
                let entries = (off_frame.payload.len() / entry) as u64;
                load_pair(
                    &frames,
                    SEC_GROUP_OFFSETS,
                    "group-offsets",
                    SEC_GROUP_BLOCKS,
                    "group-members",
                    entries,
                    wide,
                    has_groups,
                    has_groups,
                )?
            }
            None => {
                // Only reachable when groups are not flagged; a stray
                // members section is UnexpectedSection via allowed=false.
                find_frame(&frames, SEC_GROUP_BLOCKS, "group-members", false, has_groups)?;
                None
            }
        };

        Ok(Cks2View {
            header,
            perm,
            out_offsets,
            out_blocks,
            in_offsets: in_pair.map(|(o, _)| o),
            in_blocks: in_pair.map(|(_, b)| b),
            group_offsets: group_pair.map(|(o, _)| o),
            group_blocks: group_pair.map(|(_, b)| b),
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

    /// Whether offset sections are stored wide (u64).
    pub fn is_wide(&self) -> bool {
        is_wide(self.header.flags)
    }

    /// Number of stored groups (0 when packed without groups).
    pub fn group_count(&self) -> usize {
        self.group_offsets.map_or(0, |o| o.len() - 1)
    }

    /// The stored permutation: `permutation()[new] = old`.
    pub fn permutation(&self) -> &'a [u32] {
        self.perm
    }

    /// Compressed size in bytes of the out-adjacency blob (plus the
    /// in-adjacency blob when directed) — the `inspect` statistic.
    pub fn compressed_adjacency_bytes(&self) -> u64 {
        self.out_blocks.len() as u64 + self.in_blocks.map_or(0, |b| b.len() as u64)
    }

    /// Decodes the out-neighbour list of vertex `v` **in relabelled (new
    /// id) space** into `out`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Graph`] when `v` is out of range;
    /// [`StoreError::Codec`] when the block is corrupt.
    pub fn out_neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) -> Result<(), StoreError> {
        self.decode_adjacency(self.out_offsets, self.out_blocks, "out-adjacency", v, out)
    }

    /// Decodes the in-neighbour list of `v` in relabelled space (for
    /// undirected snapshots, the out-list).
    ///
    /// # Errors
    ///
    /// As [`Cks2View::out_neighbors_into`].
    pub fn in_neighbors_into(&self, v: NodeId, out: &mut Vec<NodeId>) -> Result<(), StoreError> {
        match (self.in_offsets, self.in_blocks) {
            (Some(offsets), Some(blocks)) => {
                self.decode_adjacency(offsets, blocks, "in-adjacency", v, out)
            }
            _ => self.out_neighbors_into(v, out),
        }
    }

    fn decode_adjacency(
        &self,
        offsets: OffsetsView<'a>,
        blocks: &'a [u8],
        section: &'static str,
        v: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), StoreError> {
        let n = self.node_count();
        if v as usize >= n {
            return Err(StoreError::Graph(GraphError::NodeOutOfRange {
                node: v,
                node_count: n,
            }));
        }
        let (s, e) = (offsets.get(v as usize) as usize, offsets.get(v as usize + 1) as usize);
        decode_list_into(&blocks[s..e], n as u64, out)
            .map_err(|e| codec_err(section, v as u64, e))
    }

    /// Decodes the members of group `i` **in relabelled space** into
    /// `out`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Codec`] on a corrupt block.
    ///
    /// # Panics
    ///
    /// Panics if `i >= group_count()`.
    pub fn group_into(&self, i: usize, out: &mut Vec<NodeId>) -> Result<(), StoreError> {
        let offsets = self.group_offsets.expect("group_count() > 0 checked by caller");
        let blocks = self.group_blocks.expect("offsets and members coexist");
        let (s, e) = (offsets.get(i) as usize, offsets.get(i + 1) as usize);
        decode_list_into(&blocks[s..e], self.header.node_count, out)
            .map_err(|e| codec_err("group-members", i as u64, e))
    }

    /// All stored groups as vertex sets **in relabelled space** — useful
    /// for inspecting the on-disk layout. (Paged scoring via
    /// [`Cks2View::paged`] works in original-id space and takes the
    /// original groups, e.g. from [`Cks2View::to_groups`].)
    ///
    /// # Errors
    ///
    /// As [`Cks2View::group_into`].
    pub fn relabeled_groups(&self) -> Result<Vec<VertexSet>, StoreError> {
        let mut groups = Vec::with_capacity(self.group_count());
        let mut scratch = Vec::new();
        for i in 0..self.group_count() {
            self.group_into(i, &mut scratch)?;
            groups.push(VertexSet::from_sorted_unique(scratch.clone()));
        }
        Ok(groups)
    }

    /// Adapts this view to `AdjacencyAccess` for paged scoring, **in
    /// original-id space**: each neighbour access decodes one block into
    /// an internal scratch buffer, maps it back through the permutation,
    /// and re-sorts — touching only the mapped pages that block lives
    /// on. Because the served ids (and therefore every iteration order
    /// downstream) match the original graph exactly, paged scores are
    /// bit-identical to scoring the materialised graph — including
    /// order-sensitive floating-point accumulations like Avg-ODF.
    ///
    /// Costs `O(node_count)` memory for the inverse permutation; the
    /// adjacency itself stays compressed on disk.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPermutation`] when the stored permutation is not
    /// a bijection.
    pub fn paged(&self) -> Result<Cks2Paged<'a>, StoreError> {
        let new_of = invert_permutation(self.perm)?;
        Ok(Cks2Paged {
            view: *self,
            new_of,
            out_scratch: RefCell::new(Vec::new()),
            in_scratch: RefCell::new(Vec::new()),
        })
    }

    /// Materialises the stored graph **with original vertex ids**: every
    /// block is decoded, mapped through the permutation, and
    /// re-validated through the full CSR invariants — the result is
    /// bit-identical to the graph that was packed.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPermutation`], [`StoreError::Codec`],
    /// [`StoreError::Graph`] when an invariant fails.
    pub fn to_graph(&self) -> Result<Graph, StoreError> {
        let new_of = invert_permutation(self.perm)?;
        let out_offsets = self.out_offsets.to_vec();
        let (offsets, targets) =
            materialize_csr("out-adjacency", &out_offsets, self.out_blocks, self.perm, &new_of)?;
        let in_parts = match (self.in_offsets, self.in_blocks) {
            (Some(off), Some(blocks)) => {
                let off = off.to_vec();
                Some(materialize_csr("in-adjacency", &off, blocks, self.perm, &new_of)?)
            }
            _ => None,
        };
        Ok(Graph::try_from_csr_parts(
            self.is_directed(),
            self.edge_count(),
            offsets,
            targets,
            in_parts,
        )?)
    }

    /// Materialises the stored groups with original vertex ids.
    ///
    /// # Errors
    ///
    /// [`StoreError::BadPermutation`] and [`StoreError::Codec`].
    pub fn to_groups(&self) -> Result<Vec<VertexSet>, StoreError> {
        match (self.group_offsets, self.group_blocks) {
            (Some(offsets), Some(blocks)) => {
                let new_of = invert_permutation(self.perm)?;
                drop(new_of); // only the bijection check is needed here
                materialize_groups(
                    &offsets.to_vec(),
                    blocks,
                    self.header.node_count,
                    self.perm,
                )
            }
            _ => Ok(Vec::new()),
        }
    }

    /// Materialises the whole snapshot with original ids
    /// ([`Cks2View::to_graph`] + [`Cks2View::to_groups`]).
    ///
    /// # Errors
    ///
    /// As the two underlying conversions.
    pub fn to_snapshot(&self) -> Result<Snapshot, StoreError> {
        Ok(Snapshot { graph: self.to_graph()?, groups: self.to_groups()? })
    }
}

/// [`Cks2View`] adapted to `AdjacencyAccess`: neighbour lists decode
/// into reusable scratch buffers and are mapped back to **original
/// vertex ids** through the embedded permutation, so paged scoring sees
/// exactly the adjacency the original graph would serve. Built by
/// [`Cks2View::paged`].
#[derive(Debug)]
pub struct Cks2Paged<'a> {
    view: Cks2View<'a>,
    /// Inverse permutation: `new_of[old] = new` (validated bijection).
    new_of: Vec<u32>,
    out_scratch: RefCell<Vec<NodeId>>,
    in_scratch: RefCell<Vec<NodeId>>,
}

impl Cks2Paged<'_> {
    /// Maps an original vertex id to its relabelled id, bounds-checked.
    fn new_id(&self, v: NodeId) -> Result<NodeId, StoreError> {
        self.new_of.get(v as usize).copied().ok_or(StoreError::Graph(
            GraphError::NodeOutOfRange { node: v, node_count: self.new_of.len() },
        ))
    }

    /// Decodes one block (relabelled space), un-permutes the ids, and
    /// re-sorts so callers observe the original-id neighbour order.
    fn unpermute(&self, buf: &mut [NodeId]) {
        let old_of = self.view.perm;
        for t in buf.iter_mut() {
            *t = old_of[*t as usize];
        }
        buf.sort_unstable();
    }

    fn with_decoded<R>(
        &self,
        scratch: &RefCell<Vec<NodeId>>,
        decode: impl Fn(&mut Vec<NodeId>) -> Result<(), StoreError>,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, StoreError> {
        match scratch.try_borrow_mut() {
            Ok(mut buf) => {
                decode(&mut buf)?;
                Ok(f(&buf))
            }
            // Re-entrant access (e.g. nested iteration): fall back to a
            // fresh allocation rather than panicking on the RefCell.
            Err(_) => {
                let mut buf = Vec::new();
                decode(&mut buf)?;
                Ok(f(&buf))
            }
        }
    }
}

impl AdjacencyAccess for Cks2Paged<'_> {
    type Error = StoreError;

    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    fn edge_count(&self) -> usize {
        self.view.edge_count()
    }

    fn is_directed(&self) -> bool {
        self.view.is_directed()
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        let new_v = self.new_id(v)?;
        self.with_decoded(
            &self.out_scratch,
            |buf| {
                self.view.out_neighbors_into(new_v, buf)?;
                self.unpermute(buf);
                Ok(())
            },
            f,
        )
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        let new_v = self.new_id(v)?;
        self.with_decoded(
            &self.in_scratch,
            |buf| {
                self.view.in_neighbors_into(new_v, buf)?;
                self.unpermute(buf);
                Ok(())
            },
            f,
        )
    }

    /// The block's length, decoded in the file's own id space: a length
    /// needs neither the permutation nor the sort.
    fn out_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        let new_v = self.new_id(v)?;
        let decode = |buf: &mut Vec<NodeId>| self.view.out_neighbors_into(new_v, buf);
        self.with_decoded(&self.out_scratch, decode, <[NodeId]>::len)
    }

    /// As [`Cks2Paged::out_degree`], for the in-list.
    fn in_degree(&self, v: NodeId) -> Result<usize, Self::Error> {
        let new_v = self.new_id(v)?;
        let decode = |buf: &mut Vec<NodeId>| self.view.in_neighbors_into(new_v, buf);
        self.with_decoded(&self.in_scratch, decode, <[NodeId]>::len)
    }
}

/// The portable buffered CKS2 decode: explicit little-endian reads, any
/// host alignment/endianness — the reference path the zero-copy view is
/// tested against, mirroring CKS1's `decode_snapshot`.
pub(crate) fn decode_cks2(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    let (header, frames) = parse_frames(&CKS2_SPEC, bytes)?;
    let n = header.node_count;
    if n > 1 << 32 {
        return Err(StoreError::OffsetOverflow { value: n });
    }
    let directed = header.directed();
    let has_groups = header.has_groups();
    let wide = is_wide(header.flags);

    let expect_len = |frame: &Frame<'_>, expected: u64| -> Result<(), StoreError> {
        if frame.payload.len() as u64 != expected {
            return Err(StoreError::WrongSectionLen {
                section: frame.name,
                expected,
                actual: frame.payload.len() as u64,
            });
        }
        Ok(())
    };
    let decode_offsets = |frame: &Frame<'_>, entries: u64| -> Result<Vec<u64>, StoreError> {
        let width = if wide { 8u64 } else { 4 };
        expect_len(
            frame,
            entries
                .checked_mul(width)
                .ok_or(StoreError::OffsetOverflow { value: entries })?,
        )?;
        Ok(if wide {
            frame
                .payload
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                .collect()
        } else {
            frame
                .payload
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")) as u64)
                .collect()
        })
    };

    let sec_perm = find_frame(&frames, SEC_PERMUTATION, "permutation", true, true)?
        .expect("required section present");
    expect_len(sec_perm, n.checked_mul(4).ok_or(StoreError::OffsetOverflow { value: n })?)?;
    let old_of: Vec<u32> = sec_perm
        .payload
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect();
    let new_of = invert_permutation(&old_of)?;

    #[allow(clippy::type_complexity)]
    let load = |offsets_id: u32,
                offsets_name: &'static str,
                blocks_id: u32,
                blocks_name: &'static str,
                entries: u64,
                required: bool,
                allowed: bool|
     -> Result<Option<(Vec<u64>, &[u8])>, StoreError> {
        let sec_off = find_frame(&frames, offsets_id, offsets_name, required, allowed)?;
        let sec_blk = find_frame(&frames, blocks_id, blocks_name, required, allowed)?;
        match (sec_off, sec_blk) {
            (Some(off), Some(blk)) => {
                let offsets = decode_offsets(off, entries)?;
                check_block_offsets(
                    offsets_name,
                    |i| offsets[i],
                    offsets.len(),
                    blk.payload.len() as u64,
                )?;
                Ok(Some((offsets, blk.payload)))
            }
            (Some(_), None) => Err(StoreError::MissingSection { section: blocks_name }),
            (None, Some(_)) => Err(StoreError::MissingSection { section: offsets_name }),
            (None, None) => Ok(None),
        }
    };

    let (out_offsets, out_blocks) = load(
        SEC_OUT_OFFSETS,
        "out-offsets",
        SEC_OUT_BLOCKS,
        "out-adjacency",
        n + 1,
        true,
        true,
    )?
    .expect("required pair present");
    let (offsets, targets) =
        materialize_csr("out-adjacency", &out_offsets, out_blocks, &old_of, &new_of)?;

    let in_parts = match load(
        SEC_IN_OFFSETS,
        "in-offsets",
        SEC_IN_BLOCKS,
        "in-adjacency",
        n + 1,
        directed,
        directed,
    )? {
        Some((in_offsets, in_blocks)) => {
            Some(materialize_csr("in-adjacency", &in_offsets, in_blocks, &old_of, &new_of)?)
        }
        None => None,
    };

    let graph = Graph::try_from_csr_parts(
        directed,
        usize::try_from(header.edge_count)
            .map_err(|_| StoreError::OffsetOverflow { value: header.edge_count })?,
        offsets,
        targets,
        in_parts,
    )?;

    let groups = match find_frame(&frames, SEC_GROUP_OFFSETS, "group-offsets", has_groups, has_groups)? {
        Some(off_frame) => {
            let entry = if wide { 8 } else { 4 };
            if off_frame.payload.len() < entry || off_frame.payload.len() % entry != 0 {
                return Err(StoreError::WrongSectionLen {
                    section: "group-offsets",
                    expected: entry as u64,
                    actual: off_frame.payload.len() as u64,
                });
            }
            let entries = (off_frame.payload.len() / entry) as u64;
            let (group_offsets, group_blocks) = load(
                SEC_GROUP_OFFSETS,
                "group-offsets",
                SEC_GROUP_BLOCKS,
                "group-members",
                entries,
                has_groups,
                has_groups,
            )?
            .expect("offsets frame just found");
            materialize_groups(&group_offsets, group_blocks, n, &old_of)?
        }
        None => {
            find_frame(&frames, SEC_GROUP_BLOCKS, "group-members", false, has_groups)?;
            Vec::new()
        }
    };

    Ok(Snapshot { graph, groups })
}

/// Whether `bytes` begin with the CKS2 magic.
pub fn is_cks2(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[0..4] == MAGIC2
}
