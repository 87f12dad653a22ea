//! The CKS1 byte layout: header and section framing.
//!
//! Everything is little-endian. The file is a 32-byte header followed by
//! `section_count` framed sections:
//!
//! ```text
//! header (32 bytes)
//!   0   4  magic  "CKS1"
//!   4   2  version          u16  (currently 1)
//!   6   2  flags            u16  (bit 0 directed, bit 1 has groups)
//!   8   8  node_count       u64
//!  16   8  edge_count       u64  (arcs if directed, undirected edges otherwise)
//!  24   4  section_count    u32
//!  28   4  header_crc32     u32  (CRC-32 of bytes 0..28)
//!
//! section (16-byte header + payload, repeated)
//!   0   4  section_id       u32
//!   4   4  payload_crc32    u32  (CRC-32 of the unpadded payload)
//!   8   8  payload_len      u64  (bytes, before padding)
//!  16   …  payload, zero-padded to the next multiple of 8
//! ```
//!
//! The 32-byte header, 16-byte section headers, and 8-byte payload
//! padding keep every payload 8-byte aligned relative to the start of the
//! file, so a page-aligned memory map can reinterpret `u64`/`u32`
//! payloads in place. Padding bytes are not covered by any checksum;
//! they carry no data.
//!
//! [`parse_sections`] performs every *framing* check (magic, version,
//! flags, both checksums, truncation, oversize lengths, duplicates,
//! trailing bytes). Semantic checks — section sizes against the header
//! counts, CSR and group invariants — live with the decoders in
//! `crate::reader` and `crate::view`.

use crate::crc32::crc32;
use crate::error::StoreError;

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"CKS1";
/// Current (and only) format version.
pub const VERSION: u16 = 1;
/// Size of the fixed file header.
pub const HEADER_LEN: usize = 32;
/// Size of each section header.
pub const SECTION_HEADER_LEN: usize = 16;

/// Header flag: the graph is directed (in-adjacency sections present).
pub const FLAG_DIRECTED: u16 = 1 << 0;
/// Header flag: group sections present.
pub const FLAG_GROUPS: u16 = 1 << 1;
/// Header flag: this file is one shard of a partitioned snapshot (a
/// shard-manifest section is present). Builds that predate sharding
/// reject such files with `UnknownFlags` rather than silently scoring a
/// sub-graph as if it were the whole graph.
pub const FLAG_SHARD: u16 = 1 << 2;
const KNOWN_FLAGS: u16 = FLAG_DIRECTED | FLAG_GROUPS | FLAG_SHARD;

/// The framing parameters that vary between snapshot formats. CKS1 and
/// CKS2 share the 32-byte header layout and 16-byte section framing;
/// they differ in magic, the flag bits they accept, and the section-id
/// namespace. [`parse_frames`] and [`Header::encode_with`] are generic
/// over this, so both formats get the same checks in the same order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FormatSpec {
    /// Magic bytes at offset 0.
    pub magic: [u8; 4],
    /// The single accepted version.
    pub version: u16,
    /// Flag bits this format defines; anything else is `UnknownFlags`.
    pub known_flags: u16,
    /// Maps a raw section id to its name (`None` = unknown section).
    pub section_name: fn(u32) -> Option<&'static str>,
}

fn cks1_section_name(v: u32) -> Option<&'static str> {
    SectionId::from_u32(v).map(SectionId::name)
}

/// The CKS1 framing parameters.
pub(crate) const CKS1_SPEC: FormatSpec = FormatSpec {
    magic: MAGIC,
    version: VERSION,
    known_flags: KNOWN_FLAGS,
    section_name: cks1_section_name,
};

/// Identifies one section of a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum SectionId {
    /// Out-adjacency offsets: `(node_count + 1)` × u64.
    OutOffsets = 1,
    /// Out-adjacency targets: one u32 per arc.
    OutTargets = 2,
    /// In-adjacency offsets (directed only).
    InOffsets = 3,
    /// In-adjacency targets (directed only).
    InTargets = 4,
    /// Group member-array offsets: `(group_count + 1)` × u64.
    GroupOffsets = 5,
    /// Concatenated group members: one u32 per membership.
    GroupMembers = 6,
    /// Shard manifest binding this sub-snapshot to its parent (shard
    /// count/index, parent counts, parent CRC); see [`ShardManifest`].
    ShardManifest = 7,
}

impl SectionId {
    /// Human-readable section name (used in errors and `inspect`).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::OutOffsets => "out-offsets",
            SectionId::OutTargets => "out-targets",
            SectionId::InOffsets => "in-offsets",
            SectionId::InTargets => "in-targets",
            SectionId::GroupOffsets => "group-offsets",
            SectionId::GroupMembers => "group-members",
            SectionId::ShardManifest => "shard-manifest",
        }
    }

    fn from_u32(v: u32) -> Option<SectionId> {
        match v {
            1 => Some(SectionId::OutOffsets),
            2 => Some(SectionId::OutTargets),
            3 => Some(SectionId::InOffsets),
            4 => Some(SectionId::InTargets),
            5 => Some(SectionId::GroupOffsets),
            6 => Some(SectionId::GroupMembers),
            7 => Some(SectionId::ShardManifest),
            _ => None,
        }
    }
}

/// The decoded fixed header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Flag word ([`FLAG_DIRECTED`], [`FLAG_GROUPS`]).
    pub flags: u16,
    /// Number of nodes `n`.
    pub node_count: u64,
    /// `m`: arcs for directed graphs, undirected edges otherwise.
    pub edge_count: u64,
    /// Number of sections that follow the header.
    pub section_count: u32,
}

impl Header {
    /// Whether the snapshot stores a directed graph.
    pub fn directed(&self) -> bool {
        self.flags & FLAG_DIRECTED != 0
    }

    /// Whether group sections are present.
    pub fn has_groups(&self) -> bool {
        self.flags & FLAG_GROUPS != 0
    }

    /// Whether this file is one shard of a partitioned snapshot (a
    /// shard-manifest section is required).
    pub fn is_shard(&self) -> bool {
        self.flags & FLAG_SHARD != 0
    }

    /// Encodes the header, computing its checksum.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        self.encode_with(&CKS1_SPEC)
    }

    /// Encodes the header with another format's magic/version.
    pub(crate) fn encode_with(&self, spec: &FormatSpec) -> [u8; HEADER_LEN] {
        let mut buf = [0u8; HEADER_LEN];
        buf[0..4].copy_from_slice(&spec.magic);
        buf[4..6].copy_from_slice(&spec.version.to_le_bytes());
        buf[6..8].copy_from_slice(&self.flags.to_le_bytes());
        buf[8..16].copy_from_slice(&self.node_count.to_le_bytes());
        buf[16..24].copy_from_slice(&self.edge_count.to_le_bytes());
        buf[24..28].copy_from_slice(&self.section_count.to_le_bytes());
        let crc = crc32(&buf[..28]);
        buf[28..32].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decodes and fully validates a header from the start of `bytes`.
    ///
    /// # Errors
    ///
    /// [`StoreError::TooShort`], [`StoreError::BadMagic`],
    /// [`StoreError::UnsupportedVersion`], [`StoreError::UnknownFlags`],
    /// or [`StoreError::HeaderChecksum`].
    pub fn decode(bytes: &[u8]) -> Result<Header, StoreError> {
        Header::decode_with(&CKS1_SPEC, bytes)
    }

    /// [`Header::decode`] against another format's framing parameters.
    /// Check order (magic, version, header CRC, flags) is identical for
    /// every format.
    pub(crate) fn decode_with(spec: &FormatSpec, bytes: &[u8]) -> Result<Header, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::TooShort { len: bytes.len() as u64 });
        }
        let found: [u8; 4] = bytes[0..4].try_into().expect("length checked");
        if found != spec.magic {
            return Err(StoreError::BadMagic { found });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("length checked"));
        if version != spec.version {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        let expected = u32::from_le_bytes(bytes[28..32].try_into().expect("length checked"));
        let actual = crc32(&bytes[..28]);
        if expected != actual {
            return Err(StoreError::HeaderChecksum { expected, actual });
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("length checked"));
        if flags & !spec.known_flags != 0 {
            return Err(StoreError::UnknownFlags { flags });
        }
        Ok(Header {
            flags,
            node_count: u64::from_le_bytes(bytes[8..16].try_into().expect("length checked")),
            edge_count: u64::from_le_bytes(bytes[16..24].try_into().expect("length checked")),
            section_count: u32::from_le_bytes(bytes[24..28].try_into().expect("length checked")),
        })
    }
}

/// Byte length of an encoded [`ShardManifest`] payload.
pub const SHARD_MANIFEST_LEN: usize = 40;

/// The shard-manifest section payload: binds a sub-snapshot to the
/// partitioned parent it was packed from.
///
/// Layout (40 bytes, little-endian):
///
/// ```text
///   0   4  shard_count           u32  (>= 1)
///   4   4  shard_index           u32  (< shard_count)
///   8   8  parent_node_count     u64  (must equal the header's node_count)
///  16   8  parent_edge_count     u64  (global m — shards cannot derive it)
///  24   8  parent_median_degree  f64 bits (global FOMD threshold)
///  32   4  parent_crc32          u32  (CRC-32 of the parent snapshot file)
///  36   4  reserved              u32  (must be 0)
/// ```
///
/// A shard keeps the parent's full node-id space, so per-member
/// statistics computed on a shard line up index-for-index with the
/// single-node computation; `parent_edge_count` and
/// `parent_median_degree` carry the two graph-global inputs (`m` and
/// the FOMD median) that a sub-graph cannot recompute, and
/// `parent_crc32` lets a coordinator refuse to mix shards packed from
/// different parents.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShardManifest {
    /// Total number of shards the parent was split into (>= 1).
    pub shard_count: u32,
    /// Which shard this file is (`0..shard_count`).
    pub shard_index: u32,
    /// The parent snapshot's node count (shards keep the full id space).
    pub parent_node_count: u64,
    /// The parent snapshot's edge count (`m`: arcs if directed,
    /// undirected edges otherwise).
    pub parent_edge_count: u64,
    /// The parent graph's median total degree (the FOMD threshold).
    pub parent_median_degree: f64,
    /// CRC-32 of the complete parent snapshot file.
    pub parent_crc32: u32,
}

impl ShardManifest {
    /// Encodes the manifest as a section payload.
    pub fn encode(&self) -> [u8; SHARD_MANIFEST_LEN] {
        let mut buf = [0u8; SHARD_MANIFEST_LEN];
        buf[0..4].copy_from_slice(&self.shard_count.to_le_bytes());
        buf[4..8].copy_from_slice(&self.shard_index.to_le_bytes());
        buf[8..16].copy_from_slice(&self.parent_node_count.to_le_bytes());
        buf[16..24].copy_from_slice(&self.parent_edge_count.to_le_bytes());
        buf[24..32].copy_from_slice(&self.parent_median_degree.to_bits().to_le_bytes());
        buf[32..36].copy_from_slice(&self.parent_crc32.to_le_bytes());
        // bytes 36..40 are the reserved word, already zero
        buf
    }

    /// Decodes and validates a manifest payload against the snapshot's
    /// header.
    ///
    /// # Errors
    ///
    /// [`StoreError::ShardManifest`] for a wrong payload length, a zero
    /// shard count, an index outside the count, a nonzero reserved
    /// word, or a `parent_node_count` that disagrees with the header
    /// (shards keep the parent's full id space).
    pub fn decode(header: &Header, payload: &[u8]) -> Result<ShardManifest, StoreError> {
        let bad = |why: String| Err(StoreError::ShardManifest { why });
        if payload.len() != SHARD_MANIFEST_LEN {
            return bad(format!(
                "payload is {} bytes, expected {SHARD_MANIFEST_LEN}",
                payload.len()
            ));
        }
        let manifest = ShardManifest {
            shard_count: u32::from_le_bytes(payload[0..4].try_into().expect("length checked")),
            shard_index: u32::from_le_bytes(payload[4..8].try_into().expect("length checked")),
            parent_node_count: u64::from_le_bytes(
                payload[8..16].try_into().expect("length checked"),
            ),
            parent_edge_count: u64::from_le_bytes(
                payload[16..24].try_into().expect("length checked"),
            ),
            parent_median_degree: f64::from_bits(u64::from_le_bytes(
                payload[24..32].try_into().expect("length checked"),
            )),
            parent_crc32: u32::from_le_bytes(payload[32..36].try_into().expect("length checked")),
        };
        let reserved = u32::from_le_bytes(payload[36..40].try_into().expect("length checked"));
        if manifest.shard_count == 0 {
            return bad("shard count is 0".to_string());
        }
        if manifest.shard_index >= manifest.shard_count {
            return bad(format!(
                "shard index {} is outside 0..{}",
                manifest.shard_index, manifest.shard_count
            ));
        }
        if reserved != 0 {
            return bad(format!("reserved word is {reserved:#010x}, expected 0"));
        }
        if manifest.parent_node_count != header.node_count {
            return bad(format!(
                "parent node count {} disagrees with the header's {} \
                 (shards keep the parent's full id space)",
                manifest.parent_node_count, header.node_count
            ));
        }
        if !manifest.parent_median_degree.is_finite() || manifest.parent_median_degree < 0.0 {
            return bad(format!(
                "parent median degree {} is not a finite non-negative value",
                manifest.parent_median_degree
            ));
        }
        Ok(manifest)
    }
}

/// One framed section, borrowing its (checksum-verified) payload.
#[derive(Clone, Copy, Debug)]
pub struct Section<'a> {
    /// Which section this is.
    pub id: SectionId,
    /// The unpadded payload bytes.
    pub payload: &'a [u8],
    /// The verified CRC-32 of the payload.
    pub checksum: u32,
}

/// Rounds `len` up to the next multiple of 8 (the payload padding rule).
/// Saturates near `u64::MAX` so a corrupted length field cannot overflow;
/// the saturated value always exceeds any real file and is rejected as
/// [`StoreError::SectionOversize`].
pub fn padded_len(len: u64) -> u64 {
    len.div_ceil(8).saturating_mul(8)
}

/// Decodes the header and walks every section, verifying all framing
/// invariants and checksums. Returns the sections in file order.
///
/// # Errors
///
/// Any header error from [`Header::decode`], plus
/// [`StoreError::Truncated`], [`StoreError::SectionOversize`],
/// [`StoreError::UnknownSection`], [`StoreError::DuplicateSection`],
/// [`StoreError::SectionChecksum`], or [`StoreError::TrailingData`].
pub fn parse_sections(bytes: &[u8]) -> Result<(Header, Vec<Section<'_>>), StoreError> {
    let (header, frames) = parse_frames(&CKS1_SPEC, bytes)?;
    let sections = frames
        .into_iter()
        .map(|f| Section {
            id: SectionId::from_u32(f.raw_id).expect("parse_frames verified the id"),
            payload: f.payload,
            checksum: f.checksum,
        })
        .collect();
    Ok((header, sections))
}

/// One framed section, format-agnostic: the raw id plus its verified
/// payload. [`parse_frames`] guarantees the id is known to the spec.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame<'a> {
    /// Raw section id (known to the spec's namespace).
    pub raw_id: u32,
    /// The spec's name for this section.
    pub name: &'static str,
    /// The unpadded payload bytes.
    pub payload: &'a [u8],
    /// The verified CRC-32 of the payload.
    pub checksum: u32,
}

/// The format-generic body of [`parse_sections`]: walks every section of
/// `bytes` under `spec`, verifying all framing invariants and checksums
/// in the same fixed order for every format (truncation → oversize →
/// unknown id → duplicate → checksum → trailing bytes).
pub(crate) fn parse_frames<'a>(
    spec: &FormatSpec,
    bytes: &'a [u8],
) -> Result<(Header, Vec<Frame<'a>>), StoreError> {
    let header = Header::decode_with(spec, bytes)?;
    let mut frames: Vec<Frame<'a>> = Vec::with_capacity(header.section_count as usize);
    let mut cursor = HEADER_LEN;
    for _ in 0..header.section_count {
        let remaining = bytes.len() - cursor;
        if remaining < SECTION_HEADER_LEN {
            return Err(StoreError::Truncated { context: "section header" });
        }
        let head = &bytes[cursor..cursor + SECTION_HEADER_LEN];
        let raw_id = u32::from_le_bytes(head[0..4].try_into().expect("length checked"));
        let expected_crc = u32::from_le_bytes(head[4..8].try_into().expect("length checked"));
        let len = u64::from_le_bytes(head[8..16].try_into().expect("length checked"));
        let after_header = (remaining - SECTION_HEADER_LEN) as u64;
        if padded_len(len) > after_header {
            return Err(StoreError::SectionOversize {
                section: raw_id,
                len,
                remaining: after_header,
            });
        }
        let Some(name) = (spec.section_name)(raw_id) else {
            return Err(StoreError::UnknownSection { section: raw_id });
        };
        if frames.iter().any(|f| f.raw_id == raw_id) {
            return Err(StoreError::DuplicateSection { section: name });
        }
        let start = cursor + SECTION_HEADER_LEN;
        let payload = &bytes[start..start + len as usize];
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            return Err(StoreError::SectionChecksum {
                section: name,
                expected: expected_crc,
                actual: actual_crc,
            });
        }
        frames.push(Frame { raw_id, name, payload, checksum: actual_crc });
        cursor = start + padded_len(len) as usize;
    }
    if cursor != bytes.len() {
        return Err(StoreError::TrailingData { extra: (bytes.len() - cursor) as u64 });
    }
    Ok((header, frames))
}

/// Looks up one frame by raw id with the same flag-driven presence rules
/// as [`find_section`].
pub(crate) fn find_frame<'a, 'b>(
    frames: &'b [Frame<'a>],
    raw_id: u32,
    name: &'static str,
    required: bool,
    allowed: bool,
) -> Result<Option<&'b Frame<'a>>, StoreError> {
    let found = frames.iter().find(|f| f.raw_id == raw_id);
    match found {
        Some(_) if !allowed => Err(StoreError::UnexpectedSection { section: name }),
        None if required => Err(StoreError::MissingSection { section: name }),
        other => Ok(other),
    }
}

/// Looks up one section by id, with flag-driven presence checks: a
/// section is `Err(MissingSection)` when `required`, `Ok(None)` when
/// legitimately absent, and `Err(UnexpectedSection)` when present but
/// not `allowed`.
pub fn find_section<'a, 'b>(
    sections: &'b [Section<'a>],
    id: SectionId,
    required: bool,
    allowed: bool,
) -> Result<Option<&'b Section<'a>>, StoreError> {
    let found = sections.iter().find(|s| s.id == id);
    match found {
        Some(_) if !allowed => Err(StoreError::UnexpectedSection { section: id.name() }),
        None if required => Err(StoreError::MissingSection { section: id.name() }),
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            flags: FLAG_DIRECTED | FLAG_GROUPS,
            node_count: 12345,
            edge_count: 67890,
            section_count: 6,
        };
        let bytes = h.encode();
        assert_eq!(Header::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn header_rejects_short_magic_version_crc() {
        assert!(matches!(
            Header::decode(&[0u8; 10]),
            Err(StoreError::TooShort { len: 10 })
        ));

        let mut bytes = Header {
            flags: 0,
            node_count: 0,
            edge_count: 0,
            section_count: 0,
        }
        .encode();

        let mut mangled = bytes;
        mangled[0] = b'X';
        assert!(matches!(Header::decode(&mangled), Err(StoreError::BadMagic { .. })));

        let mut mangled = bytes;
        mangled[4] = 9; // version — checksum is checked after magic/version
        assert!(matches!(
            Header::decode(&mangled),
            Err(StoreError::UnsupportedVersion { found: 9 })
        ));

        bytes[8] ^= 1; // node count no longer matches the checksum
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::HeaderChecksum { .. })
        ));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut h = Header { flags: 0x80, node_count: 0, edge_count: 0, section_count: 0 };
        let bytes = h.encode(); // encode recomputes a valid checksum
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnknownFlags { flags: 0x80 })
        ));
        h.flags = KNOWN_FLAGS;
        assert!(Header::decode(&h.encode()).is_ok());
    }

    #[test]
    fn shard_manifest_roundtrips_and_validates() {
        let header = Header { flags: FLAG_SHARD, node_count: 100, edge_count: 0, section_count: 1 };
        let m = ShardManifest {
            shard_count: 3,
            shard_index: 2,
            parent_node_count: 100,
            parent_edge_count: 2500,
            parent_median_degree: 7.5,
            parent_crc32: 0xdead_beef,
        };
        let payload = m.encode();
        assert_eq!(ShardManifest::decode(&header, &payload).unwrap(), m);

        // Every validated invariant is a typed refusal.
        let short = &payload[..SHARD_MANIFEST_LEN - 1];
        assert!(matches!(
            ShardManifest::decode(&header, short),
            Err(StoreError::ShardManifest { .. })
        ));
        let zero_count = ShardManifest { shard_count: 0, ..m }.encode();
        assert!(ShardManifest::decode(&header, &zero_count).is_err());
        let bad_index = ShardManifest { shard_index: 3, ..m }.encode();
        assert!(ShardManifest::decode(&header, &bad_index).is_err());
        let bad_nodes = ShardManifest { parent_node_count: 99, ..m }.encode();
        assert!(ShardManifest::decode(&header, &bad_nodes).is_err());
        let bad_median = ShardManifest { parent_median_degree: f64::NAN, ..m }.encode();
        assert!(ShardManifest::decode(&header, &bad_median).is_err());
        let mut bad_reserved = payload;
        bad_reserved[36] = 1;
        assert!(ShardManifest::decode(&header, &bad_reserved).is_err());
    }

    #[test]
    fn padding_rounds_up_to_eight() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), 8);
        assert_eq!(padded_len(8), 8);
        assert_eq!(padded_len(9), 16);
    }
}
