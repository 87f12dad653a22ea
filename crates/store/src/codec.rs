//! The CKS2 block codec: delta + LEB128 varint compression of sorted
//! vertex lists.
//!
//! A CKS2 adjacency (or group-membership) block stores one strictly
//! increasing list of `u32` vertex ids as
//!
//! ```text
//! varint(v[0])  varint(v[1] - v[0])  varint(v[2] - v[1])  …
//! ```
//!
//! where `varint` is unsigned LEB128: 7 value bits per byte, low bits
//! first, high bit = continuation. A `u32` takes at most 5 bytes; after
//! degree-ordered relabelling (hubs get small ids, neighbours cluster)
//! most first values and deltas fit a single byte, which is where the
//! format's compression comes from. An empty list is an empty block —
//! list lengths are implied by the enclosing offsets, never stored.
//!
//! Encodings are **canonical**: the decoder rejects overlong varints
//! (a continuation chain ending in a zero byte), values past `u32`, and
//! zero deltas (a duplicate). One logical list therefore has exactly one
//! byte representation, so byte-level comparison of snapshots is
//! meaningful and every corrupt bit that survives the CRC still fails
//! decoding in a typed way.
//!
//! Decoding arbitrary bytes always terminates — every varint consumes at
//! least one byte — and never panics; every defect maps to a
//! [`CodecError`] (wrapped in [`StoreError::Codec`](crate::StoreError)
//! with section context by the callers in `crate::cks2`).

use std::fmt;

/// Why a compressed block failed to decode, with the byte offset inside
/// the block where decoding stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset within the block at which the defect was detected.
    pub offset: usize,
    /// What was wrong.
    pub why: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at block offset {}", self.why, self.offset)
    }
}

impl std::error::Error for CodecError {}

/// Appends the LEB128 encoding of `value` to `out`.
pub fn write_varint(mut value: u32, out: &mut Vec<u8>) {
    while value >= 0x80 {
        out.push((value as u8 & 0x7F) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads one canonical LEB128 `u32` from `bytes` starting at `*cursor`,
/// advancing the cursor past it.
///
/// # Errors
///
/// [`CodecError`] when the varint is truncated, overlong (non-canonical
/// trailing zero byte), or wider than 32 bits.
pub fn read_varint(bytes: &[u8], cursor: &mut usize) -> Result<u32, CodecError> {
    let start = *cursor;
    let mut value: u32 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = bytes.get(*cursor) else {
            return Err(CodecError { offset: start, why: "truncated varint" });
        };
        *cursor += 1;
        let payload = (byte & 0x7F) as u32;
        if shift == 28 && payload > 0x0F {
            return Err(CodecError { offset: start, why: "varint exceeds 32 bits" });
        }
        if shift > 28 {
            return Err(CodecError { offset: start, why: "varint exceeds 32 bits" });
        }
        if shift > 0 && byte == 0 {
            // "…0x80 0x00" encodes the same value as stopping a byte
            // earlier; only one spelling is legal.
            return Err(CodecError { offset: start, why: "overlong varint" });
        }
        value |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends the delta+varint block encoding of `values` to `out`.
///
/// # Panics
///
/// Panics if `values` is not strictly increasing — blocks encode sorted
/// duplicate-free lists only (the invariant every `Graph` adjacency and
/// `VertexSet` already holds).
pub fn encode_list(values: &[u32], out: &mut Vec<u8>) {
    let mut prev: Option<u32> = None;
    for &v in values {
        match prev {
            None => write_varint(v, out),
            Some(p) => {
                assert!(v > p, "encode_list requires a strictly increasing list");
                write_varint(v - p, out);
            }
        }
        prev = Some(v);
    }
}

/// Decodes one complete block into `out` (cleared first). Every decoded
/// value must be `< limit` (pass the node count). Consumes the whole
/// block: trailing bytes after the last varint are impossible by
/// construction since decoding stops exactly at `bytes.len()`.
///
/// # Errors
///
/// [`CodecError`] on any truncated/overlong/oversized varint, a zero
/// delta (duplicate value), or a value reaching `limit`.
pub fn decode_list_into(
    bytes: &[u8],
    limit: u64,
    out: &mut Vec<u32>,
) -> Result<(), CodecError> {
    out.clear();
    let mut cursor = 0usize;
    let mut prev: Option<u32> = None;
    while cursor < bytes.len() {
        let offset = cursor;
        let raw = read_varint(bytes, &mut cursor)?;
        let value = match prev {
            None => raw as u64,
            Some(p) => {
                if raw == 0 {
                    return Err(CodecError { offset, why: "zero delta (duplicate value)" });
                }
                p as u64 + raw as u64
            }
        };
        if value >= limit {
            return Err(CodecError { offset, why: "value outside the graph" });
        }
        let value = value as u32; // limit <= 2^32, so value < 2^32
        out.push(value);
        prev = Some(value);
    }
    Ok(())
}

/// Convenience wrapper over [`decode_list_into`] returning a fresh
/// vector.
///
/// # Errors
///
/// As [`decode_list_into`].
pub fn decode_list(bytes: &[u8], limit: u64) -> Result<Vec<u32>, CodecError> {
    let mut out = Vec::new();
    decode_list_into(bytes, limit, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32], limit: u64) {
        let mut bytes = Vec::new();
        encode_list(values, &mut bytes);
        assert_eq!(decode_list(&bytes, limit).expect("decodes"), values);
        // Canonicality: re-encoding the decode gives the same bytes.
        let mut again = Vec::new();
        encode_list(&decode_list(&bytes, limit).unwrap(), &mut again);
        assert_eq!(bytes, again);
    }

    #[test]
    fn basic_roundtrips() {
        roundtrip(&[], 0);
        roundtrip(&[0], 1);
        roundtrip(&[7], 100);
        roundtrip(&[0, 1, 2, 3], 4);
        roundtrip(&[5, 127, 128, 300, 70_000, 3_000_000], 4_000_000);
        roundtrip(&[u32::MAX - 1, u32::MAX], 1 << 32);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u32, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX] {
            let mut bytes = Vec::new();
            write_varint(v, &mut bytes);
            assert!(bytes.len() <= 5);
            let mut cursor = 0;
            assert_eq!(read_varint(&bytes, &mut cursor).unwrap(), v);
            assert_eq!(cursor, bytes.len());
        }
    }

    #[test]
    fn rejects_truncated_overlong_and_oversized() {
        let mut cursor = 0;
        assert_eq!(read_varint(&[0x80], &mut cursor).unwrap_err().why, "truncated varint");
        let mut cursor = 0;
        assert_eq!(read_varint(&[0x80, 0x00], &mut cursor).unwrap_err().why, "overlong varint");
        let mut cursor = 0;
        // 6 continuation bytes: wider than any u32.
        assert_eq!(
            read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x7F], &mut cursor).unwrap_err().why,
            "varint exceeds 32 bits"
        );
        let mut cursor = 0;
        assert_eq!(
            read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01], &mut cursor).unwrap_err().why,
            "varint exceeds 32 bits"
        );
        // The largest canonical 5-byte varint decodes to exactly u32::MAX.
        let mut cursor = 0;
        assert_eq!(read_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &mut cursor).unwrap(), u32::MAX);
    }

    #[test]
    fn rejects_zero_delta_and_out_of_range() {
        // [5, then delta 0] — a duplicate.
        let mut bytes = Vec::new();
        write_varint(5, &mut bytes);
        write_varint(0, &mut bytes);
        assert_eq!(decode_list(&bytes, 100).unwrap_err().why, "zero delta (duplicate value)");

        let mut bytes = Vec::new();
        encode_list(&[5, 9], &mut bytes);
        assert_eq!(decode_list(&bytes, 9).unwrap_err().why, "value outside the graph");
        assert!(decode_list(&bytes, 10).is_ok());

        // First value at the limit is rejected too.
        let mut bytes = Vec::new();
        encode_list(&[4], &mut bytes);
        assert_eq!(decode_list(&bytes, 4).unwrap_err().why, "value outside the graph");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn encode_panics_on_unsorted_input() {
        let mut out = Vec::new();
        encode_list(&[3, 3], &mut out);
    }
}
