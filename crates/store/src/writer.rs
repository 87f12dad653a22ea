//! Packing a graph (and optional group collections) into a CKS1 stream.

use crate::error::StoreError;
use crate::format::{
    padded_len, Header, SectionId, ShardManifest, FLAG_DIRECTED, FLAG_GROUPS, FLAG_SHARD,
    SECTION_HEADER_LEN,
};
use crate::{crc32::crc32, HEADER_LEN};
use circlekit_graph::{Graph, GraphError, NodeId, VertexSet};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

fn u64_bytes(values: impl ExactSizeIterator<Item = u64>) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn u32_bytes(values: &[NodeId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn write_section<W: Write>(w: &mut W, id: SectionId, payload: &[u8]) -> io::Result<u64> {
    let mut head = [0u8; SECTION_HEADER_LEN];
    head[0..4].copy_from_slice(&(id as u32).to_le_bytes());
    head[4..8].copy_from_slice(&crc32(payload).to_le_bytes());
    head[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    let pad = (padded_len(payload.len() as u64) - payload.len() as u64) as usize;
    if pad > 0 {
        w.write_all(&[0u8; 7][..pad])?;
    }
    Ok(SECTION_HEADER_LEN as u64 + padded_len(payload.len() as u64))
}

/// Serialises `graph` and `groups` as a CKS1 snapshot into `writer`,
/// returning the number of bytes written. Pass an empty `groups` slice
/// to pack the graph alone.
///
/// # Errors
///
/// [`StoreError::Io`] on write failure, and
/// [`StoreError::Graph`] (as [`GraphError::NodeOutOfRange`]) when a
/// group member is not a node of `graph` — the same rule text ingestion
/// enforces, checked *before* anything is written.
pub fn write_snapshot<W: Write>(
    graph: &Graph,
    groups: &[VertexSet],
    writer: &mut W,
) -> Result<u64, StoreError> {
    write_snapshot_with_manifest(graph, groups, None, writer)
}

/// [`write_snapshot`] for a shard sub-snapshot: sets [`FLAG_SHARD`] and
/// appends the shard-manifest section binding this file to its parent.
/// The graph must keep the parent's full node-id space (the manifest's
/// `parent_node_count` is validated against the header on every load).
///
/// # Errors
///
/// As [`write_snapshot`], plus [`StoreError::ShardManifest`] when the
/// manifest would not decode (zero count, index outside the count, or a
/// `parent_node_count` that disagrees with the graph).
pub fn write_shard_snapshot<W: Write>(
    graph: &Graph,
    groups: &[VertexSet],
    manifest: &ShardManifest,
    writer: &mut W,
) -> Result<u64, StoreError> {
    write_snapshot_with_manifest(graph, groups, Some(manifest), writer)
}

fn write_snapshot_with_manifest<W: Write>(
    graph: &Graph,
    groups: &[VertexSet],
    manifest: Option<&ShardManifest>,
    writer: &mut W,
) -> Result<u64, StoreError> {
    let n = graph.node_count();
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

    let mut flags = 0u16;
    if graph.is_directed() {
        flags |= FLAG_DIRECTED;
    }
    if !groups.is_empty() {
        flags |= FLAG_GROUPS;
    }
    if manifest.is_some() {
        flags |= FLAG_SHARD;
    }
    let section_count = 2
        + if graph.is_directed() { 2 } else { 0 }
        + if groups.is_empty() { 0 } else { 2 }
        + if manifest.is_some() { 1 } else { 0 };
    let header = Header {
        flags,
        node_count: n as u64,
        edge_count: graph.edge_count() as u64,
        section_count,
    };
    if let Some(manifest) = manifest {
        // Validate before writing anything: a manifest that would not
        // decode must not produce a file.
        ShardManifest::decode(&header, &manifest.encode())?;
    }
    writer.write_all(&header.encode())?;
    let mut written = HEADER_LEN as u64;

    let (out_offsets, out_targets) = graph.out_csr();
    written += write_section(
        writer,
        SectionId::OutOffsets,
        &u64_bytes(out_offsets.iter().map(|&o| o as u64)),
    )?;
    written += write_section(writer, SectionId::OutTargets, &u32_bytes(out_targets))?;
    if let Some((in_offsets, in_targets)) = graph.in_csr() {
        written += write_section(
            writer,
            SectionId::InOffsets,
            &u64_bytes(in_offsets.iter().map(|&o| o as u64)),
        )?;
        written += write_section(writer, SectionId::InTargets, &u32_bytes(in_targets))?;
    }
    if !groups.is_empty() {
        let mut offsets = Vec::with_capacity(groups.len() + 1);
        let mut members: Vec<NodeId> = Vec::new();
        offsets.push(0u64);
        for set in groups {
            members.extend(set.iter());
            offsets.push(members.len() as u64);
        }
        written += write_section(writer, SectionId::GroupOffsets, &u64_bytes(offsets.into_iter()))?;
        written += write_section(writer, SectionId::GroupMembers, &u32_bytes(&members))?;
    }
    if let Some(manifest) = manifest {
        written += write_section(writer, SectionId::ShardManifest, &manifest.encode())?;
    }
    writer.flush()?;
    Ok(written)
}

/// Writes the file at `path` by replacement, never in place: `write`
/// fills the sibling `<path>.tmp`, which is flushed and synced, then
/// renamed over `path`, and the directory is synced. A reader that
/// mapped the old file keeps its bytes; a crash leaves the old file or
/// the new one, never a torn one. The temporary is removed on error.
///
/// # Errors
///
/// Whatever `write` reports, and the I/O of the replacement.
pub fn replace_file<T>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        let out = write(&mut writer)?;
        writer.into_inner().map_err(io::IntoInnerError::into_error)?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(out)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Fsyncs the directory containing `path`, making a create, rename or
/// unlink of `path` durable. Only Unix opens a directory as a file; on
/// other targets this does nothing.
///
/// # Errors
///
/// The I/O error of opening or syncing the directory.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if cfg!(unix) {
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Packs `graph` and `groups` into the file at `path`, replacing it by
/// rename (see [`replace_file`]), and returns the snapshot size in
/// bytes.
///
/// # Errors
///
/// As [`write_snapshot`], plus the I/O of the replacement.
pub fn save_snapshot(
    path: impl AsRef<Path>,
    graph: &Graph,
    groups: &[VertexSet],
) -> Result<u64, StoreError> {
    replace_file(path, |w| write_snapshot(graph, groups, w))
}

/// Packs a shard sub-snapshot into the file at `path`, replacing it by
/// rename; see [`write_shard_snapshot`].
///
/// # Errors
///
/// As [`write_shard_snapshot`].
pub fn save_shard_snapshot(
    path: impl AsRef<Path>,
    graph: &Graph,
    groups: &[VertexSet],
    manifest: &ShardManifest,
) -> Result<u64, StoreError> {
    replace_file(path, |w| write_shard_snapshot(graph, groups, manifest, w))
}
