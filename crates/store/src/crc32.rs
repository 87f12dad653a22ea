//! CRC-32 (IEEE 802.3, reflected) — the per-section integrity check of
//! the CKS1 format.
//!
//! A CRC catches every single-bit flip and every burst error up to 32
//! bits, which covers the realistic failure modes of a snapshot file:
//! torn writes, bad sectors, and truncation (the latter is additionally
//! caught by the section length framing). It is not a cryptographic
//! digest and does not defend against deliberate tampering.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `TABLES[0]` is the classic bytewise table, and
/// `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// sixteen lookups advance the state over sixteen bytes at once.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final xor `0xFFFF_FFFF` — the
/// `cksum`-compatible "CRC-32/ISO-HDLC" parameterisation used by zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finish()
}

/// CRC-32 of a whole file, streamed in 64 KiB chunks so arbitrarily
/// large snapshots never need to fit in memory. This is the identity the
/// replication layer compares: two servers replicate the same history
/// exactly when their base snapshot files carry the same CRC.
///
/// # Errors
///
/// Propagates I/O failures opening or reading the file.
pub fn file_crc32(path: &std::path::Path) -> std::io::Result<u32> {
    use std::io::Read as _;
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Crc32::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok(hasher.finish()),
            Ok(n) => hasher.update(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Incremental CRC-32 state for streamed payloads: sections written
/// chunk by chunk (the CKS2 packer never holds a whole adjacency blob in
/// memory) checksum identically to a one-shot [`crc32`] over the
/// concatenated bytes.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state (equivalent to `crc32(b"")` when finished untouched).
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum, sixteen bytes per step.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The state folds into the first four bytes; byte j of the
            // block then sits 15 - j bytes from the end.
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The CRC-32 of everything fed so far (the state remains usable).
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// CRC-32/ISO-HDLC one byte, and one bit, at a time: no tables.
    fn bitwise_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_update_matches_the_bitwise_reference() {
        let data: Vec<u8> = (0u32..316)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    bitwise_crc32(bytes),
                    "start {start}, length {len}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot_over_any_chunking() {
        let data: Vec<u8> = (0u16..512).map(|i| (i * 37 % 251) as u8).collect();
        let expected = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 511, 512] {
            let mut h = Crc32::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finish(), expected, "chunk size {chunk}");
        }
        assert_eq!(Crc32::default().finish(), crc32(b""));
    }

    #[test]
    fn file_crc_matches_in_memory_crc() {
        let dir = std::env::temp_dir().join("circlekit-store-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("file-crc-{}.bin", std::process::id()));
        let data: Vec<u8> = (0u32..200_000).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        assert_eq!(file_crc32(&path).unwrap(), crc32(&data));
        std::fs::remove_file(&path).unwrap();
        assert!(file_crc32(&path).is_err());
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}.{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
