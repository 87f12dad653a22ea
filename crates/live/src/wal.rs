//! CKW1: the crash-safe write-ahead log behind a live snapshot.
//!
//! Byte layout (everything little-endian):
//!
//! ```text
//! header (32 bytes)
//!   0..4    magic "CKW1"
//!   4..6    version (currently 1)
//!   6..8    flags (bit 0: base graph is directed)
//!   8..12   crc32 of the base snapshot file, in full
//!   12..20  base node count
//!   20..28  base edge count
//!   28..32  crc32 of bytes 0..28
//! records (repeated until EOF)
//!   0..4    payload length
//!   4..8    crc32 of the payload
//!   8..     payload: opcode byte + u32 operands (see mutation.rs)
//! ```
//!
//! Records are appended in fsync'd batches (one `write_all` + one
//! `sync_data` per committed batch). A crash can therefore leave at
//! most one *torn* batch at the tail; replay stops cleanly at the first
//! incomplete frame and the tail is truncated away before appending
//! resumes. A CRC mismatch on a *complete* frame is different — that is
//! media corruption, reported as a typed error rather than repaired.
//!
//! The `base_crc32` field pins a WAL to the exact snapshot file it was
//! written against. Compaction folds the log into a fresh snapshot via
//! atomic rename *before* deleting the log, so a crash between the two
//! steps leaves a WAL whose base CRC no longer matches — already
//! applied, detected, and safe to discard.

use crate::error::LiveError;
use crate::mutation::Mutation;
use circlekit_store::{crc32, sync_parent_dir};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

pub(crate) const WAL_MAGIC: [u8; 4] = *b"CKW1";
pub(crate) const WAL_VERSION: u16 = 1;
pub(crate) const WAL_HEADER_LEN: usize = 32;
pub(crate) const WAL_FLAG_DIRECTED: u16 = 1 << 0;
const FRAME_HEADER_LEN: usize = 8;

/// The fixed-size CKW1 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WalHeader {
    pub directed: bool,
    /// CRC-32 of the full snapshot file this log mutates.
    pub base_crc: u32,
    pub base_nodes: u64,
    pub base_edges: u64,
}

impl WalHeader {
    pub(crate) fn encode(&self) -> [u8; WAL_HEADER_LEN] {
        let mut out = [0u8; WAL_HEADER_LEN];
        out[0..4].copy_from_slice(&WAL_MAGIC);
        out[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
        let flags: u16 = if self.directed { WAL_FLAG_DIRECTED } else { 0 };
        out[6..8].copy_from_slice(&flags.to_le_bytes());
        out[8..12].copy_from_slice(&self.base_crc.to_le_bytes());
        out[12..20].copy_from_slice(&self.base_nodes.to_le_bytes());
        out[20..28].copy_from_slice(&self.base_edges.to_le_bytes());
        let crc = crc32(&out[0..28]);
        out[28..32].copy_from_slice(&crc.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<WalHeader, LiveError> {
        if bytes.len() < WAL_HEADER_LEN {
            return Err(LiveError::WalTooShort { len: bytes.len() as u64 });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("sliced to length");
        if magic != WAL_MAGIC {
            return Err(LiveError::BadMagic { found: magic });
        }
        let stored = u32::from_le_bytes(bytes[28..32].try_into().expect("sliced to length"));
        let computed = crc32(&bytes[0..28]);
        if stored != computed {
            return Err(LiveError::HeaderChecksum { stored, computed });
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().expect("sliced to length"));
        if version != WAL_VERSION {
            return Err(LiveError::UnsupportedVersion { version });
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().expect("sliced to length"));
        if flags & !WAL_FLAG_DIRECTED != 0 {
            return Err(LiveError::UnknownFlags { flags });
        }
        Ok(WalHeader {
            directed: flags & WAL_FLAG_DIRECTED != 0,
            base_crc: u32::from_le_bytes(bytes[8..12].try_into().expect("sliced to length")),
            base_nodes: u64::from_le_bytes(bytes[12..20].try_into().expect("sliced to length")),
            base_edges: u64::from_le_bytes(bytes[20..28].try_into().expect("sliced to length")),
        })
    }
}

/// Result of scanning a WAL file: the committed records plus the byte
/// length of the valid prefix (a torn batch at the tail, if any, lies
/// beyond `valid_len` and is discarded by truncation before new
/// appends).
#[derive(Debug)]
pub(crate) struct WalScan {
    pub header: WalHeader,
    pub records: Vec<Mutation>,
    pub valid_len: u64,
}

/// Reads and validates `path`.
///
/// Truncated tails (torn final batch after a crash) end the scan
/// cleanly; CRC failures on complete frames, unknown opcodes and short
/// payloads are typed errors.
pub(crate) fn read_wal(path: &Path) -> Result<WalScan, LiveError> {
    let bytes = std::fs::read(path)?;
    scan_wal(&bytes)
}

pub(crate) fn scan_wal(bytes: &[u8]) -> Result<WalScan, LiveError> {
    let header = WalHeader::decode(bytes)?;
    let (records, consumed) =
        scan_frames(&bytes[WAL_HEADER_LEN..], WAL_HEADER_LEN as u64, true)?;
    Ok(WalScan { header, records, valid_len: WAL_HEADER_LEN as u64 + consumed })
}

/// Decodes a contiguous run of CKW1 record frames from `bytes`,
/// returning the records and how many bytes they span. `file_offset` is
/// where `bytes` starts within its file, for error diagnostics only.
///
/// A torn frame at the tail ends the scan cleanly when `allow_torn` is
/// set (WAL replay after a crash) and is a typed
/// [`LiveError::TornReplicationBatch`] otherwise (a replication batch
/// must arrive whole). CRC failures on complete frames, unknown opcodes
/// and short payloads are typed errors either way.
pub(crate) fn scan_frames(
    bytes: &[u8],
    file_offset: u64,
    allow_torn: bool,
) -> Result<(Vec<Mutation>, u64), LiveError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let remaining = bytes.len() - offset;
        if remaining == 0 {
            break;
        }
        let len = if remaining >= FRAME_HEADER_LEN {
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("sliced")) as usize
        } else {
            0
        };
        if remaining < FRAME_HEADER_LEN || remaining - FRAME_HEADER_LEN < len {
            // Torn frame header or torn payload.
            if allow_torn {
                break;
            }
            return Err(LiveError::TornReplicationBatch {
                have: remaining as u64,
                need: (FRAME_HEADER_LEN + len) as u64,
            });
        }
        let stored_crc =
            u32::from_le_bytes(bytes[offset + 4..offset + 8].try_into().expect("sliced"));
        let payload = &bytes[offset + FRAME_HEADER_LEN..offset + FRAME_HEADER_LEN + len];
        let at = file_offset + offset as u64;
        if crc32(payload) != stored_crc {
            return Err(LiveError::RecordChecksum { offset: at });
        }
        match Mutation::decode(payload) {
            Some(m) => records.push(m),
            None => {
                let opcode = payload.first().copied().unwrap_or(0);
                // Distinguish "opcode we know, payload too short/long"
                // from "opcode we don't know" for diagnostics.
                return if (1..=5).contains(&opcode) {
                    Err(LiveError::ShortRecord { opcode, offset: at })
                } else {
                    Err(LiveError::UnknownOpcode { opcode, offset: at })
                };
            }
        }
        offset += FRAME_HEADER_LEN + len;
    }
    Ok((records, offset as u64))
}

/// Encodes `mutations` as a contiguous run of CKW1 record frames.
pub(crate) fn encode_records(mutations: &[Mutation]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in mutations {
        let payload = m.encode();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    out
}

/// Append-only handle on an open WAL file.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    path: PathBuf,
}

impl WalWriter {
    /// Creates a fresh WAL at `path` (truncating any leftover), writes
    /// the header and makes it durable (file + parent directory fsync).
    pub(crate) fn create(path: &Path, header: WalHeader) -> Result<WalWriter, LiveError> {
        let mut file = File::create(path)?;
        file.write_all(&header.encode())?;
        file.sync_data()?;
        sync_parent_dir(path)?;
        Ok(WalWriter { file, path: path.to_path_buf() })
    }

    /// Reopens an existing WAL for appending, first truncating it to
    /// `valid_len` so a torn batch from a previous crash is discarded.
    pub(crate) fn open_at(path: &Path, valid_len: u64) -> Result<WalWriter, LiveError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file, path: path.to_path_buf() })
    }

    /// Appends one committed batch: a single `write_all` of all frames
    /// followed by `sync_data`, returning the number of bytes written.
    /// The batch is either fully on disk when this returns, or (after a
    /// crash) a torn tail that replay drops.
    pub(crate) fn append(&mut self, mutations: &[Mutation]) -> Result<u64, LiveError> {
        self.append_raw(&encode_records(mutations))
    }

    /// Appends already-encoded record frames verbatim (one `write_all` +
    /// `sync_data`). Replication ships raw frame bytes so a replica's WAL
    /// is byte-identical to the primary's at every acked offset; the
    /// caller has validated the frames before handing them over.
    pub(crate) fn append_raw(&mut self, frames: &[u8]) -> Result<u64, LiveError> {
        self.file.write_all(frames)?;
        self.file.sync_data()?;
        Ok(frames.len() as u64)
    }

    /// The path this writer appends to (diagnostics).
    #[allow(dead_code)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> WalHeader {
        WalHeader { directed: true, base_crc: 0xdead_beef, base_nodes: 10, base_edges: 20 }
    }

    fn sample() -> Vec<Mutation> {
        vec![
            Mutation::AddEdge { u: 1, v: 2 },
            Mutation::AddVertex,
            Mutation::RemoveMember { group: 0, node: 3 },
        ]
    }

    fn wal_bytes() -> Vec<u8> {
        let mut bytes = header().encode().to_vec();
        bytes.extend_from_slice(&encode_records(&sample()));
        bytes
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        assert_eq!(WalHeader::decode(&h.encode()).unwrap(), h);
    }

    #[test]
    fn scan_roundtrip() {
        let scan = scan_wal(&wal_bytes()).unwrap();
        assert_eq!(scan.header, header());
        assert_eq!(scan.records, sample());
        assert_eq!(scan.valid_len, wal_bytes().len() as u64);
    }

    #[test]
    fn every_truncation_point_scans_cleanly() {
        // A prefix cut anywhere in the record region replays a prefix of
        // the records; cuts inside the header are typed errors.
        let bytes = wal_bytes();
        for cut in 0..bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            if cut < WAL_HEADER_LEN {
                assert!(
                    matches!(scan, Err(LiveError::WalTooShort { .. })),
                    "cut {cut} should be too-short"
                );
            } else {
                let scan = scan.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
                assert!(scan.valid_len as usize <= cut);
                assert!(scan.records.len() <= sample().len());
                // The valid prefix must itself rescan to the same records.
                let again = scan_wal(&bytes[..scan.valid_len as usize]).unwrap();
                assert_eq!(again.records, scan.records);
            }
        }
    }

    #[test]
    fn complete_frame_corruption_is_a_typed_error() {
        let mut bytes = wal_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // payload byte of the final (complete) frame
        assert!(matches!(scan_wal(&bytes), Err(LiveError::RecordChecksum { .. })));
    }

    #[test]
    fn header_corruption_is_detected() {
        let mut bytes = wal_bytes();
        bytes[9] ^= 0x01; // base_crc field
        assert!(matches!(scan_wal(&bytes), Err(LiveError::HeaderChecksum { .. })));
        let mut bytes = wal_bytes();
        bytes[0] = b'X';
        assert!(matches!(scan_wal(&bytes), Err(LiveError::BadMagic { .. })));
    }

    #[test]
    fn unknown_opcode_is_a_typed_error() {
        let mut bytes = header().encode().to_vec();
        let payload = [42u8];
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(scan_wal(&bytes), Err(LiveError::UnknownOpcode { opcode: 42, .. })));
    }

    #[test]
    fn writer_appends_replayable_batches() {
        let dir = std::env::temp_dir().join("circlekit-live-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("writer-{}.ckw", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut w = WalWriter::create(&path, header()).unwrap();
        w.append(&sample()[..2]).unwrap();
        w.append(&sample()[2..]).unwrap();
        drop(w);

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, sample());

        // Reopen at a shorter valid prefix: the tail is gone for good.
        let first_batch_len =
            WAL_HEADER_LEN as u64 + encode_records(&sample()[..2]).len() as u64;
        let w = WalWriter::open_at(&path, first_batch_len).unwrap();
        drop(w);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, sample()[..2]);
        std::fs::remove_file(&path).unwrap();
    }
}
