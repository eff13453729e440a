//! Ledger blocks and transaction records.
//!
//! A block captures one committed batch of writes: the modified records
//! (as write operations with value hashes), the query statements that caused
//! them, the root of the ledger index *after* applying the batch, and the
//! hash of the previous block — forming the hash chain whose head is part of
//! the database digest.

use spitz_crypto::{sha256, Hash, Sha256};
use spitz_index::codec::Reader;

/// The kind of modification a transaction record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a new key.
    Insert,
    /// Update an existing key (a new version is appended; nothing is
    /// overwritten in the immutable store).
    Update,
}

impl WriteOp {
    fn tag(self) -> u8 {
        match self {
            WriteOp::Insert => 0,
            WriteOp::Update => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(WriteOp::Insert),
            1 => Some(WriteOp::Update),
            _ => None,
        }
    }
}

/// One modified record inside a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnRecord {
    /// The operation performed.
    pub op: WriteOp,
    /// The affected key.
    pub key: Vec<u8>,
    /// Hash of the value written (the value itself lives in the ledger index).
    pub value_hash: Hash,
    /// The query statement (SQL or JSON form) that produced this write.
    pub statement: String,
}

impl TxnRecord {
    /// Deterministic serialization used for hashing the block body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.op.tag());
        out.extend_from_slice(&(self.key.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(self.value_hash.as_bytes());
        let stmt = self.statement.as_bytes();
        out.extend_from_slice(&(stmt.len() as u32).to_be_bytes());
        out.extend_from_slice(stmt);
        out
    }
}

/// The header of a block: everything needed to verify chain linkage and the
/// index root without the record payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Position of the block in the ledger, starting at 0.
    pub height: u64,
    /// Hash of the previous block ([`Hash::ZERO`] for the genesis block).
    pub prev_hash: Hash,
    /// Merkle root over the encoded transaction records of this block.
    pub records_root: Hash,
    /// Root of the ledger's SIRI index instance after applying this block.
    pub index_root: Hash,
    /// Logical commit timestamp: the ledger's own counter, one more than
    /// the previous block's.
    pub timestamp: u64,
    /// Number of transaction records in the block.
    pub record_count: u32,
}

impl BlockHeader {
    /// The block hash: a SHA-256 over the serialized header.
    pub fn hash(&self) -> Hash {
        let mut hasher = Sha256::new();
        hasher.update(&self.height.to_be_bytes());
        hasher.update(self.prev_hash.as_bytes());
        hasher.update(self.records_root.as_bytes());
        hasher.update(self.index_root.as_bytes());
        hasher.update(&self.timestamp.to_be_bytes());
        hasher.update(&self.record_count.to_be_bytes());
        hasher.finalize()
    }
}

/// A full block: header plus the transaction records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// The committed write records.
    pub records: Vec<TxnRecord>,
}

impl Block {
    /// Assemble a block from its parts, computing the records root.
    pub fn new(
        height: u64,
        prev_hash: Hash,
        index_root: Hash,
        timestamp: u64,
        records: Vec<TxnRecord>,
    ) -> Block {
        let records_root = records_merkle_root(&records);
        Block {
            header: BlockHeader {
                height,
                prev_hash,
                records_root,
                index_root,
                timestamp,
                record_count: records.len() as u32,
            },
            records,
        }
    }

    /// The block hash (hash of the header).
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }

    /// Recompute the records root and compare it with the header — detects
    /// tampering with the record payload of a stored block.
    pub fn verify_records(&self) -> bool {
        records_merkle_root(&self.records) == self.header.records_root
            && self.records.len() as u32 == self.header.record_count
    }

    /// Deterministic serialization of the whole block (header fields in
    /// hash order, then every encoded record), used to persist blocks as
    /// chunks in the chunk store.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.header.height.to_be_bytes());
        out.extend_from_slice(self.header.prev_hash.as_bytes());
        out.extend_from_slice(self.header.records_root.as_bytes());
        out.extend_from_slice(self.header.index_root.as_bytes());
        out.extend_from_slice(&self.header.timestamp.to_be_bytes());
        out.extend_from_slice(&self.header.record_count.to_be_bytes());
        for record in &self.records {
            out.extend_from_slice(&record.encode());
        }
        out
    }

    /// Parse a block back out of its [`Block::encode`] form. Returns `None`
    /// on any framing violation (truncation, trailing bytes, bad tags).
    pub fn decode(bytes: &[u8]) -> Option<Block> {
        let mut r = Reader::new(bytes);
        let height = r.u64()?;
        let prev_hash = r.hash()?;
        let records_root = r.hash()?;
        let index_root = r.hash()?;
        let timestamp = r.u64()?;
        // A record is at least 41 bytes (tag, two length prefixes, value
        // hash), so a forged count in an untrusted chunk is refused before
        // it sizes a `Vec`.
        let record_count = r.count(41)?;
        let mut records = Vec::with_capacity(record_count);
        for _ in 0..record_count {
            let op = WriteOp::from_tag(r.u8()?)?;
            let key = r.bytes()?.to_vec();
            let value_hash = r.hash()?;
            let statement = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            records.push(TxnRecord {
                op,
                key,
                value_hash,
                statement,
            });
        }
        if !r.is_exhausted() {
            return None;
        }
        Some(Block {
            header: BlockHeader {
                height,
                prev_hash,
                records_root,
                index_root,
                timestamp,
                record_count: record_count as u32,
            },
            records,
        })
    }
}

/// Merkle root over the encoded transaction records of a block.
pub fn records_merkle_root(records: &[TxnRecord]) -> Hash {
    if records.is_empty() {
        return sha256(b"");
    }
    let tree = spitz_crypto::MerkleTree::from_leaves(
        records
            .iter()
            .map(|r| r.encode())
            .collect::<Vec<_>>()
            .iter()
            .map(|v| v.as_slice()),
    );
    tree.root()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u32) -> TxnRecord {
        TxnRecord {
            op: if i.is_multiple_of(2) {
                WriteOp::Insert
            } else {
                WriteOp::Update
            },
            key: format!("key-{i}").into_bytes(),
            value_hash: sha256(format!("value-{i}").as_bytes()),
            statement: format!("INSERT INTO t VALUES ({i})"),
        }
    }

    #[test]
    fn block_hash_changes_with_any_field() {
        let records = vec![record(1), record(2)];
        let block = Block::new(3, sha256(b"prev"), sha256(b"root"), 99, records.clone());
        let base = block.hash();

        let mut other = block.clone();
        other.header.height = 4;
        assert_ne!(other.hash(), base);

        let mut other = block.clone();
        other.header.prev_hash = sha256(b"other prev");
        assert_ne!(other.hash(), base);

        let mut other = block.clone();
        other.header.index_root = sha256(b"other root");
        assert_ne!(other.hash(), base);

        let rebuilt = Block::new(3, sha256(b"prev"), sha256(b"root"), 99, records);
        assert_eq!(rebuilt.hash(), base);
    }

    #[test]
    fn record_tampering_is_detected() {
        let block = Block::new(
            0,
            Hash::ZERO,
            sha256(b"r"),
            1,
            vec![record(1), record(2), record(3)],
        );
        assert!(block.verify_records());

        let mut tampered = block.clone();
        tampered.records[1].value_hash = sha256(b"forged value");
        assert!(!tampered.verify_records());

        let mut dropped = block.clone();
        dropped.records.pop();
        assert!(!dropped.verify_records());
    }

    #[test]
    fn empty_block_is_valid() {
        let block = Block::new(0, Hash::ZERO, Hash::ZERO, 0, vec![]);
        assert!(block.verify_records());
        assert_eq!(block.header.record_count, 0);
    }

    #[test]
    fn block_encoding_roundtrips_and_rejects_damage() {
        let block = Block::new(
            5,
            sha256(b"prev"),
            sha256(b"index root"),
            42,
            vec![record(1), record(2), record(3)],
        );
        let encoded = block.encode();
        let decoded = Block::decode(&encoded).unwrap();
        assert_eq!(decoded, block);
        assert_eq!(decoded.hash(), block.hash());
        assert!(decoded.verify_records());

        // Truncation, trailing garbage and bad op tags are all rejected.
        assert!(Block::decode(&encoded[..encoded.len() - 1]).is_none());
        let mut trailing = encoded.clone();
        trailing.push(0);
        assert!(Block::decode(&trailing).is_none());
        let mut bad_op = encoded.clone();
        bad_op[8 + 32 * 3 + 8 + 4] = 9; // first record's op tag
        assert!(Block::decode(&bad_op).is_none());

        let empty = Block::new(0, Hash::ZERO, Hash::ZERO, 0, vec![]);
        assert_eq!(Block::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn forged_record_count_is_rejected_without_huge_allocation() {
        let block = Block::new(0, Hash::ZERO, Hash::ZERO, 0, vec![record(1)]);
        let mut encoded = block.encode();
        let offset = 8 + 32 * 3 + 8; // record_count field
        encoded[offset..offset + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        // Must return None promptly instead of attempting a ~350 GB
        // Vec::with_capacity for the claimed count.
        assert!(Block::decode(&encoded).is_none());
    }

    #[test]
    fn record_encoding_is_deterministic_and_injective_enough() {
        let a = record(1).encode();
        let b = record(1).encode();
        assert_eq!(a, b);
        assert_ne!(record(1).encode(), record(2).encode());
        let mut changed = record(1);
        changed.op = WriteOp::Insert;
        assert_ne!(changed.encode(), record(1).encode());
    }
}
