//! On-disk record format of the durable chunk store.
//!
//! A segment file is a short header followed by a sequence of records:
//!
//! ```text
//! segment  := magic(8) version(u32 BE) segment_id(u64 BE) record*
//! record   := payload_len(u32 BE)   -- length of the record payload only
//!             kind(u8)              -- ChunkKind tag, or ROOT_RECORD_TAG
//!             address(32)           -- chunk: SHA-256(kind || payload)
//!                                   -- root:  the published root hash
//!             payload(payload_len)  -- chunk: the chunk bytes
//!                                   -- root:  the UTF-8 root name
//!             crc(u32 BE)           -- CRC-32 over everything above
//! ```
//!
//! Two record kinds share the frame: **chunk records** carry content-addressed
//! chunk payloads, and **root records** publish a named root pointer directly
//! into the log ("root `name` now points at `address`"). Embedding root
//! publication in the log is what lets a commit become durable with a single
//! segment append instead of a manifest rewrite: the data records precede
//! their root record in the same append-only file, so a root record that
//! survives crash recovery proves every record before it survived too
//! (data-before-pointer by construction).
//!
//! The CRC covers the length prefix, kind tag, address and payload, so any
//! single-bit flip anywhere in a record is detected. The address is stored
//! (rather than recomputed) so that the open-time scan can rebuild the
//! address → location index without hashing every payload; `audit()` is the
//! pass that re-hashes.
//!
//! Every append, read miss, open and scrub runs the CRC, so [`crc32`] is
//! slicing-by-16 (sixteen input bytes per step). Its output is bit-identical
//! to the byte-at-a-time CRC-32 walk, so every segment ever written reads
//! back under the same `SEGMENT_VERSION`. Decoding borrows: `decode_record`
//! hands out the payload as a slice of the caller's buffer, so the open and
//! scrub walks learn a record's kind without copying its payload, and a read
//! miss copies the payload once, into the [`Chunk`] it returns.

use spitz_crypto::hash::HASH_LEN;
use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"SPITZSEG";

/// Current segment format version.
pub(crate) const SEGMENT_VERSION: u32 = 1;

/// Bytes of the segment header (magic + version + segment id).
pub const SEGMENT_HEADER_LEN: u64 = 8 + 4 + 8;

/// Fixed per-record overhead: length prefix, kind tag, address and CRC.
pub const RECORD_OVERHEAD: usize = 4 + 1 + HASH_LEN + 4;

/// Kind tag of a root-publication record (`b'R'`), disjoint from every
/// [`ChunkKind`] tag.
pub(crate) const ROOT_RECORD_TAG: u8 = b'R';

/// The reflected IEEE 802.3 CRC-32 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 lookup tables. `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` is followed by `k`
/// zero bytes, so one step folds sixteen bytes with sixteen lookups.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
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

/// CRC-32 (IEEE 802.3, the polynomial used by gzip/zip) over `data`.
///
/// Slicing-by-16: each step folds the running CRC into the next sixteen
/// input bytes and looks each byte up in its own table; a byte loop takes
/// the tail. The output is bit-identical to the byte-at-a-time table walk
/// (same polynomial, initial value and final xor; the tests keep that walk
/// as the oracle). Written here in safe code because the workspace builds
/// offline (no `crc32fast`) and the storage crate has no `unsafe`; the
/// tables are built at compile time, so there is no lazy initialisation
/// either. Over a 64 KiB buffer on one core of a 2-core x86-64 VM it runs
/// at ~1 990 MB/s in a release build and ~440 MB/s in a debug build; the
/// byte-at-a-time oracle runs at ~370 and ~325 MB/s.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
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
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Serialize the segment header for segment `id`.
pub(crate) fn encode_segment_header(id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN as usize);
    out.extend_from_slice(&SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_be_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Parse and validate a segment header; returns the segment id.
pub(crate) fn decode_segment_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < SEGMENT_HEADER_LEN as usize || bytes[..8] != SEGMENT_MAGIC {
        return None;
    }
    let version = u32::from_be_bytes(bytes[8..12].try_into().ok()?);
    if version != SEGMENT_VERSION {
        return None;
    }
    Some(u64::from_be_bytes(bytes[12..20].try_into().ok()?))
}

/// Assemble a record frame from its tag, address and payload, appending the
/// trailing CRC.
fn encode_frame(tag: u8, address: &Hash, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.push(tag);
    out.extend_from_slice(address.as_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Serialize one chunk record (including its trailing CRC).
pub(crate) fn encode_record(address: &Hash, chunk: &Chunk) -> Vec<u8> {
    encode_frame(chunk.kind().tag(), address, chunk.data())
}

/// Serialize one root-publication record: "root `name` now points at
/// `hash`".
pub(crate) fn encode_root_record(name: &str, hash: &Hash) -> Vec<u8> {
    encode_frame(ROOT_RECORD_TAG, hash, name.as_bytes())
}

/// Encoded length of the root record `encode_root_record` produces for
/// `name` (used by crash tests to compute truncation points).
pub fn root_record_len(name: &str) -> usize {
    RECORD_OVERHEAD + name.len()
}

/// What a decoded record carries, borrowed from the buffer it was decoded
/// from.
#[derive(Debug)]
pub(crate) enum RecordBody<'a> {
    /// A content-addressed chunk.
    Chunk {
        /// The chunk's kind.
        kind: ChunkKind,
        /// The chunk's payload bytes.
        payload: &'a [u8],
    },
    /// A root publication: the record's address field is the new value of
    /// the named root pointer.
    Root {
        /// Name of the published root pointer.
        name: &'a str,
    },
}

/// A record decoded from a segment file.
#[derive(Debug)]
pub(crate) struct DecodedRecord<'a> {
    /// The address stored in the frame: the chunk's content address, or the
    /// published root hash.
    pub address: Hash,
    /// The decoded record body.
    pub body: RecordBody<'a>,
}

/// Why decoding a record failed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum RecordError {
    /// Fewer bytes remain than the record claims to span — a torn write if
    /// it happens at the tail of the last segment, corruption otherwise.
    Truncated,
    /// The CRC did not match the record bytes.
    BadCrc,
    /// The kind tag is neither a known [`ChunkKind`] nor
    /// [`ROOT_RECORD_TAG`].
    BadKind(u8),
    /// A root record's name payload is not valid UTF-8.
    BadRootName,
}

/// Decode the record starting at `bytes[0]`; on success also returns the
/// total encoded length so the caller can advance its cursor. The body
/// borrows its payload from `bytes`.
pub(crate) fn decode_record(bytes: &[u8]) -> Result<(DecodedRecord<'_>, usize), RecordError> {
    if bytes.len() < RECORD_OVERHEAD {
        return Err(RecordError::Truncated);
    }
    let payload_len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
    let total = RECORD_OVERHEAD + payload_len;
    if bytes.len() < total {
        return Err(RecordError::Truncated);
    }
    let body = &bytes[..total - 4];
    let stored_crc = u32::from_be_bytes(bytes[total - 4..total].try_into().unwrap());
    if crc32(body) != stored_crc {
        return Err(RecordError::BadCrc);
    }
    let tag = bytes[4];
    let address: [u8; HASH_LEN] = bytes[5..5 + HASH_LEN].try_into().unwrap();
    let payload = &bytes[5 + HASH_LEN..total - 4];
    let body = if tag == ROOT_RECORD_TAG {
        RecordBody::Root {
            name: std::str::from_utf8(payload).map_err(|_| RecordError::BadRootName)?,
        }
    } else {
        RecordBody::Chunk {
            kind: ChunkKind::from_tag(tag).ok_or(RecordError::BadKind(tag))?,
            payload,
        }
    };
    Ok((
        DecodedRecord {
            address: Hash::from_bytes(address),
            body,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk, with its own table built at run
    /// time: the reference the slicing kernel must equal bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut table = [0u32; 256];
            for (i, entry) in table.iter_mut().enumerate() {
                let mut crc = i as u32;
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
                *entry = crc;
            }
            table
        });
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A seeded pseudo-random buffer (xorshift64), so every run checks the
    /// same bytes.
    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    fn hex(text: &str) -> Vec<u8> {
        (0..text.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn slicing_kernel_equals_the_bytewise_oracle_at_every_length_and_offset() {
        let buffer = seeded_bytes(16 + 300, 0x5EED_C0DE_1234_5678);
        for start in 0..16 {
            for len in 0..=300 {
                let data = &buffer[start..start + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn slicing_kernel_equals_the_oracle_across_the_stride() {
        let buffer = seeded_bytes(1 << 16, 0xD1CE_F00D);
        for stride_multiple in [1usize, 2, 63, 64, 256, 4095] {
            let base = 16 * stride_multiple;
            for len in [base - 1, base, base + 1, base + 15] {
                let data = &buffer[..len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len}");
            }
        }
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
        // Constant fills: each step looks every table up at one index.
        for fill in [0x00u8, 0xFF, 0x80] {
            let run = vec![fill; 1000];
            assert_eq!(crc32(&run), crc32_bytewise(&run), "fill {fill:#x}");
        }
    }

    #[test]
    fn frames_are_bit_identical_to_the_byte_at_a_time_format() {
        // Exact frames produced by the byte-at-a-time CRC; a wrong table or
        // byte order fails here even if kernel and oracle agree.
        let chunk = Chunk::new(ChunkKind::Blob, b"spitz golden frame payload".to_vec());
        assert_eq!(
            encode_record(&chunk.address(), &chunk),
            hex(
                "0000001a00d351b15eeb596fcf64d753dea1aa5b4bb7dd8018e6ec1fa264715e\
                 34102df418737069747a20676f6c64656e206672616d65207061796c6f6164\
                 c956c604"
            )
        );
        let hash = spitz_crypto::sha256(b"golden root");
        assert_eq!(
            encode_root_record("spitz/ledger/head", &hash),
            hex(
                "00000011527e43b4d22a268ccba8b129401305db1c84a16e3ed6b1986afd8222\
                 8187f0a91e737069747a2f6c65646765722f68656164f32ed9d4"
            )
        );
    }

    #[test]
    fn record_roundtrip() {
        let chunk = Chunk::new(ChunkKind::Blob, b"payload bytes".to_vec());
        let addr = chunk.address();
        let encoded = encode_record(&addr, &chunk);
        assert_eq!(encoded.len(), RECORD_OVERHEAD + chunk.len());
        let (decoded, consumed) = decode_record(&encoded).unwrap();
        assert_eq!(consumed, encoded.len());
        assert_eq!(decoded.address, addr);
        match decoded.body {
            RecordBody::Chunk { kind, payload } => {
                assert_eq!(kind, chunk.kind());
                assert_eq!(payload, chunk.data());
            }
            other => panic!("expected a chunk record, got {other:?}"),
        }
    }

    #[test]
    fn root_record_roundtrip() {
        let hash = spitz_crypto::sha256(b"head block");
        let encoded = encode_root_record("spitz/ledger/head", &hash);
        assert_eq!(encoded.len(), root_record_len("spitz/ledger/head"));
        let (decoded, consumed) = decode_record(&encoded).unwrap();
        assert_eq!(consumed, encoded.len());
        assert_eq!(decoded.address, hash);
        match decoded.body {
            RecordBody::Root { name } => assert_eq!(name, "spitz/ledger/head"),
            other => panic!("expected a root record, got {other:?}"),
        }
    }

    #[test]
    fn root_tag_is_disjoint_from_every_chunk_kind() {
        for kind in [
            ChunkKind::Blob,
            ChunkKind::Meta,
            ChunkKind::IndexNode,
            ChunkKind::Commit,
            ChunkKind::Block,
            ChunkKind::Cell,
        ] {
            assert_ne!(kind.tag(), ROOT_RECORD_TAG);
        }
        assert_eq!(ChunkKind::from_tag(ROOT_RECORD_TAG), None);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let chunk = Chunk::new(ChunkKind::Meta, b"abcdef".to_vec());
        let encoded = encode_record(&chunk.address(), &chunk);
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_record(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncated_records_report_truncation() {
        let chunk = Chunk::new(ChunkKind::Blob, vec![7u8; 64]);
        let encoded = encode_record(&chunk.address(), &chunk);
        for cut in [0, 3, RECORD_OVERHEAD - 1, encoded.len() - 1] {
            assert_eq!(
                decode_record(&encoded[..cut]).unwrap_err(),
                RecordError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn segment_header_roundtrip() {
        let header = encode_segment_header(42);
        assert_eq!(header.len() as u64, SEGMENT_HEADER_LEN);
        assert_eq!(decode_segment_header(&header), Some(42));
        let mut bad = header.clone();
        bad[0] ^= 1;
        assert_eq!(decode_segment_header(&bad), None);
    }
}
