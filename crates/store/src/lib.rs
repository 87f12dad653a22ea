//! `circlekit-store`: the CKS1/CKS2 binary graph snapshot formats.
//!
//! Text edge lists and circle files are convenient but slow to ingest:
//! every run re-parses, re-sorts, and re-deduplicates millions of lines.
//! This crate defines a versioned binary snapshot — magic `CKS1` — that
//! stores the *post-ingestion* state of a [`Graph`](circlekit_graph::Graph)
//! (and optionally its group collections) so every driver in the
//! workspace can load a dataset without repeating that work:
//!
//! * **Pack once** ([`save_snapshot`] / [`write_snapshot`]): serialise
//!   the exact CSR arrays `Csr::from_edges` produced, little-endian,
//!   each section framed with a length and CRC-32.
//! * **Load anywhere** ([`load_snapshot`]): a portable buffered read that
//!   decodes explicitly with `from_le_bytes` and re-validates every
//!   structural invariant — the reference path, correct on any
//!   endianness/alignment.
//! * **Load fast** ([`MappedSnapshot`] + [`SnapshotView`]): memory-map
//!   the file, validate header + checksums once, then borrow the CSR and
//!   group arrays straight out of the mapping — zero copies proportional
//!   to the graph (little-endian hosts; the buffered path remains the
//!   fallback elsewhere).
//!
//! Both load paths produce graphs **bit-identical** to text ingestion of
//! the same data, so downstream scores, figures, and checkpoints do not
//! depend on which path loaded the dataset.
//!
//! Alongside CKS1 there is the **CKS2 compressed format** (magic
//! `CKS2`): degree-ordered relabelling, delta+varint adjacency blocks,
//! and width-reduced (u32 where possible) offsets — typically a
//! fraction of the CKS1 size. Pack with [`save_cks2_snapshot`] (from a
//! built [`Graph`](circlekit_graph::Graph)) or [`stream_pack_cks2`] (straight from an edge-list
//! file in bounded memory, via an external sort); load through the same
//! [`decode_snapshot`] / [`MappedSnapshot::load`] entry points, which
//! dispatch on the magic, or score without materialising at all through
//! [`Cks2View::paged`]. The embedded permutation section maps ids back,
//! so a CKS2 load is bit-identical to the CKS1 load of the same data.
//! See [`cks2`](crate::Cks2View) and `DESIGN.md` §13.
//!
//! Corruption — truncation, bit flips, hand-crafted section tables — is
//! an expected input class: every defect is detected (checksums, length
//! framing, full invariant re-validation) and reported as a typed
//! [`StoreError`]; no input bytes can cause a panic or undefined
//! behaviour. See [`format`](mod@format) for the byte layout and
//! `DESIGN.md` §10 for the rationale.
//!
//! # Quick start
//!
//! ```
//! use circlekit_graph::{Graph, VertexSet};
//! use circlekit_store::{decode_snapshot, write_snapshot, SnapshotView};
//!
//! let g = Graph::from_edges(true, [(0u32, 1u32), (1, 2), (2, 0)]);
//! let circles = vec![VertexSet::from_iter([0u32, 1])];
//!
//! let mut bytes = Vec::new();
//! write_snapshot(&g, &circles, &mut bytes).expect("pack");
//!
//! // Portable buffered decode…
//! let snap = decode_snapshot(&bytes).expect("load");
//! assert_eq!(snap.graph, g);
//! assert_eq!(snap.groups, circles);
//!
//! // …and the zero-copy view over the same bytes (Vec<u8> from
//! // write_snapshot is not guaranteed 8-aligned; mmap/MappedSnapshot
//! // buffers are — fall back gracefully when it is not).
//! match SnapshotView::parse(&bytes) {
//!     Ok(view) => assert_eq!(view.node_count(), 3),
//!     Err(circlekit_store::StoreError::NotZeroCopy { .. }) => {}
//!     Err(e) => panic!("unexpected error: {e}"),
//! }
//! ```

#![warn(missing_docs)]

mod base;
mod cks2;
pub mod codec;
mod crc32;
mod error;
pub mod format;
mod mmap;
mod reader;
mod view;
mod writer;
mod writer2;

pub use base::SnapshotBase;
pub use cks2::{is_cks2, Cks2Paged, Cks2View, FLAG_WIDE, MAGIC2, VERSION2};
pub use crc32::{crc32, file_crc32, Crc32};
pub use error::StoreError;
pub use format::{
    Header, SectionId, ShardManifest, FLAG_SHARD, HEADER_LEN, MAGIC, SECTION_HEADER_LEN,
    SHARD_MANIFEST_LEN, VERSION,
};
pub use mmap::MappedSnapshot;
pub use reader::{
    decode_snapshot, file_is_snapshot, file_snapshot_format, is_snapshot, load_snapshot,
    read_shard_manifest, snapshot_format, Snapshot, SnapshotFormat,
};
pub use view::{section_infos, SectionInfo, SnapshotView};
pub use writer::{
    replace_file, save_shard_snapshot, save_snapshot, sync_parent_dir, write_shard_snapshot,
    write_snapshot,
};
pub use writer2::{
    save_cks2_snapshot, stream_pack_cks2, write_cks2_snapshot, Cks2PackOptions, StreamPackOptions,
    StreamPackReport,
};
