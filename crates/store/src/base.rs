//! [`SnapshotBase`]: the one resident copy of a snapshot's graph.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::format::ShardManifest;
use crate::mmap::MappedSnapshot;
use crate::reader::SnapshotFormat;
use crate::view::SnapshotView;
use circlekit_graph::{AdjacencyAccess, Graph, NodeId, VertexSet};
use std::convert::Infallible;
use std::path::Path;

/// The graph a snapshot file (or an in-memory insert) contributes,
/// held once and shared behind an `Arc` by everything that reads or
/// mutates it.
///
/// A CKS1 file stays mapped, validated once, so nothing proportional
/// to the graph is copied. An input without a CKS1 mapping — an
/// in-memory [`Graph`], or a CKS2 file, decoded once — holds an owned
/// graph. The input picks the backing; both serve the same sorted
/// lists through [`AdjacencyAccess`], and nothing outside this type
/// can tell them apart.
#[derive(Debug)]
pub struct SnapshotBase(Backing);

#[derive(Debug)]
enum Backing {
    /// The view borrows the bytes of `mapped`; see [`SnapshotBase::open`].
    Mapped { view: SnapshotView<'static>, mapped: MappedSnapshot },
    /// The graph, and the CRC-32 of the file it was decoded from (0 for
    /// an in-memory graph).
    Owned(Graph, u32),
}

impl SnapshotBase {
    /// Opens the snapshot at `path` and returns it with its stored
    /// groups. A CKS1 file is mapped and validated in place — every
    /// section checksum, the offsets, and the lists themselves (see
    /// [`SnapshotView::validate_lists`]) — and served from the mapped
    /// pages. A CKS2 file is decoded, and checksummed whole on the way,
    /// since its mapping is not kept.
    ///
    /// # Errors
    ///
    /// As [`MappedSnapshot::open`], [`SnapshotView::parse`] and
    /// [`SnapshotView::validate_lists`] (or the CKS2 decode), and
    /// [`SnapshotView::to_groups`].
    pub fn open(path: impl AsRef<Path>) -> Result<(SnapshotBase, Vec<VertexSet>), StoreError> {
        let mapped = MappedSnapshot::open(path)?;
        if mapped.format() == Some(SnapshotFormat::Cks2) {
            let file_crc = crc32(mapped.bytes());
            let snap = mapped.view2()?.to_snapshot()?;
            return Ok((SnapshotBase(Backing::Owned(snap.graph, file_crc)), snap.groups));
        }
        let view = mapped.view()?;
        view.validate_lists()?;
        let groups = view.to_groups()?;
        // SAFETY: only the lifetime changes. The view borrows the bytes
        // `mapped` owns — a mapping or a heap buffer, neither of which
        // moves when `mapped` does — and both live and die together in
        // the private variant, which lends the view out only re-borrowed
        // from `&self` (`with_lists!`).
        let view = unsafe { std::mem::transmute::<SnapshotView<'_>, SnapshotView<'static>>(view) };
        Ok((SnapshotBase(Backing::Mapped { view, mapped }), groups))
    }

    /// The shard manifest of a CKS1 shard sub-snapshot; `None` for
    /// every other input.
    pub fn shard_manifest(&self) -> Option<ShardManifest> {
        match &self.0 {
            Backing::Mapped { view, .. } => view.shard_manifest().copied(),
            Backing::Owned(..) => None,
        }
    }

    /// CRC-32 of the whole file this base was read from (0 for an
    /// in-memory graph): the identity a write-ahead log and a
    /// replication handshake carry. A mapped file is checksummed when
    /// this is called, not at load; a CKS2 file was checksummed while it
    /// was decoded.
    pub fn file_crc32(&self) -> u32 {
        match &self.0 {
            Backing::Mapped { mapped, .. } => crc32(mapped.bytes()),
            Backing::Owned(_, file_crc) => *file_crc,
        }
    }
}

impl From<Graph> for SnapshotBase {
    fn from(graph: Graph) -> SnapshotBase {
        SnapshotBase(Backing::Owned(graph, 0))
    }
}

/// Evaluates `$body` with `$lists` bound to the backing that holds the
/// lists: the mapped view (its lifetime shortened to the borrow of
/// `$base`) or the owned graph.
macro_rules! with_lists {
    ($base:expr, $lists:ident => $body:expr) => {
        match &$base.0 {
            Backing::Mapped { view, .. } => {
                let $lists = shorten(view);
                $body
            }
            Backing::Owned($lists, _) => $body,
        }
    };
}

fn shorten<'a>(view: &'a SnapshotView<'static>) -> &'a SnapshotView<'a> {
    view
}

impl AdjacencyAccess for SnapshotBase {
    type Error = Infallible;

    fn node_count(&self) -> usize {
        with_lists!(self, lists => lists.node_count())
    }

    fn edge_count(&self) -> usize {
        with_lists!(self, lists => lists.edge_count())
    }

    fn is_directed(&self) -> bool {
        with_lists!(self, lists => lists.is_directed())
    }

    fn with_out_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        with_lists!(self, lists => Ok(f(lists.out_neighbors(v))))
    }

    fn with_in_neighbors<R>(
        &self,
        v: NodeId,
        f: impl FnOnce(&[NodeId]) -> R,
    ) -> Result<R, Self::Error> {
        with_lists!(self, lists => Ok(f(lists.in_neighbors(v))))
    }
}
