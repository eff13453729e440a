//! The QLDB-like commercial baseline.
//!
//! Section 6.1: "The newly inserted or modified records are collected into
//! blocks and appended to a ledger implemented by a Merkle tree. The ledger
//! is used for verification purposes, shadowing the nodes of a typical
//! B+-tree for query key searching. Furthermore, the appended blocks are
//! materialized to indexed views for fast query processing."
//!
//! The decisive difference from Spitz (Section 6.2.1/6.2.2): the ledger and
//! the query index are *separate* structures. A read is fast (B-tree view),
//! but a verified read must go back to the ledger and fetch the proof for
//! each record individually: locate the record's block, re-derive the
//! record-level Merkle path inside that block, and combine it with the
//! journal-level path. Range queries cannot batch this work — each resultant
//! record pays the per-record proof cost, which is why the verified-range
//! gap in Figure 7 is so much larger than the point-read gap in Figure 6(a).

use std::collections::BTreeMap;
use std::ops::Bound;

use parking_lot::RwLock;
use spitz_crypto::{sha256, AuditProof, Hash, MerkleTree};

/// Number of records collected into one ledger block.
const BLOCK_CAPACITY: usize = 256;

/// Location of a record inside the baseline's ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordLocation {
    block: usize,
    offset: usize,
}

/// A sealed baseline block: the raw records and their Merkle root.
struct SealedBlock {
    /// Encoded `key || 0x00 || value` leaves.
    leaves: Vec<Vec<u8>>,
    root: Hash,
}

/// Proof returned by the baseline for one record.
#[derive(Debug, Clone)]
pub struct QldbProof {
    /// Merkle path of the record inside its block.
    pub record_proof: AuditProof,
    /// Root of the record's block.
    pub block_root: Hash,
    /// Audit path of the block root in the journal: the block's
    /// inclusion proof, which the baseline's digest does not imply.
    pub journal_path: AuditProof,
    /// Root of the journal (the baseline's digest).
    pub journal_root: Hash,
}

impl QldbProof {
    /// Client-side verification of a single record proof.
    pub fn verify(&self, key: &[u8], value: &[u8]) -> bool {
        let leaf = encode_leaf(key, value);
        self.record_proof.verify(self.block_root, &leaf)
            && self
                .journal_path
                .verify(self.journal_root, self.block_root.as_bytes())
    }
}

fn encode_leaf(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() + 1 + value.len());
    out.extend_from_slice(key);
    out.push(0x00);
    out.extend_from_slice(value);
    out
}

struct QldbInner {
    /// Materialized indexed view: key → (value, location of latest version).
    view: BTreeMap<Vec<u8>, (Vec<u8>, RecordLocation)>,
    /// History view: one entry per record version (a second indexed view the
    /// baseline must maintain on every write).
    history: BTreeMap<Vec<u8>, RecordLocation>,
    /// Open block accumulating new records.
    open_leaves: Vec<Vec<u8>>,
    /// Sealed blocks.
    blocks: Vec<SealedBlock>,
    /// The journal over sealed block roots: one RFC 6962 leaf per block.
    journal: MerkleTree,
    /// Monotonic sequence number for history-view keys.
    sequence: u64,
}

impl QldbInner {
    /// View entries with `start <= key < end`; empty when `start >= end`.
    fn view_range<'a>(
        &'a self,
        start: &'a [u8],
        end: &'a [u8],
    ) -> impl Iterator<Item = (&'a Vec<u8>, &'a (Vec<u8>, RecordLocation))> {
        // `BTreeMap::range` panics on a reversed range; `[start, start)` is
        // simply empty.
        let end = end.max(start);
        self.view
            .range::<[u8], _>((Bound::Included(start), Bound::Excluded(end)))
    }
}

/// The QLDB-like baseline system.
pub struct QldbBaseline {
    inner: RwLock<QldbInner>,
}

impl Default for QldbBaseline {
    fn default() -> Self {
        Self::new()
    }
}

impl QldbBaseline {
    /// Create an empty instance.
    pub fn new() -> Self {
        QldbBaseline {
            inner: RwLock::new(QldbInner {
                view: BTreeMap::new(),
                history: BTreeMap::new(),
                open_leaves: Vec::new(),
                blocks: Vec::new(),
                journal: MerkleTree::new(),
                sequence: 0,
            }),
        }
    }

    /// Write a key/value pair: append the record to the open ledger block
    /// and refresh both materialized views.
    pub fn put(&self, key: &[u8], value: &[u8]) {
        let mut inner = self.inner.write();
        let leaf = encode_leaf(key, value);
        inner.open_leaves.push(leaf);
        let location = RecordLocation {
            block: inner.blocks.len(),
            offset: inner.open_leaves.len() - 1,
        };

        // Maintain the indexed views (the cost the paper attributes to the
        // baseline's writes).
        inner.view.insert(key.to_vec(), (value.to_vec(), location));
        let seq = inner.sequence;
        inner.sequence += 1;
        let mut history_key = key.to_vec();
        history_key.push(0x00);
        history_key.extend_from_slice(&seq.to_be_bytes());
        inner.history.insert(history_key, location);

        if inner.open_leaves.len() >= BLOCK_CAPACITY {
            Self::seal_block(&mut inner);
        }
    }

    fn seal_block(inner: &mut QldbInner) {
        if inner.open_leaves.is_empty() {
            return;
        }
        let leaves = std::mem::take(&mut inner.open_leaves);
        let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
        let root = tree.root();
        inner.journal.push(root.as_bytes());
        inner.blocks.push(SealedBlock { leaves, root });
    }

    /// Force the open block to be sealed (e.g. at the end of a load phase),
    /// so that every record has a ledger proof available.
    pub fn seal(&self) {
        Self::seal_block(&mut self.inner.write());
    }

    /// Fast, unverified point read from the materialized view.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.read().view.get(key).map(|(v, _)| v.clone())
    }

    /// Unverified range read from the materialized view.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner
            .read()
            .view_range(start, end)
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect()
    }

    /// Verified point read: the value from the view plus a proof retrieved
    /// from the ledger. The proof requires re-deriving the record's Merkle
    /// path within its block — the per-record cost that separates the
    /// baseline from Spitz under verification.
    pub fn get_verified(&self, key: &[u8]) -> Option<(Vec<u8>, QldbProof)> {
        let inner = self.inner.read();
        let (value, location) = inner.view.get(key).cloned()?;
        let proof = Self::prove_location(&inner, location)?;
        Some((value, proof))
    }

    /// Verified range read: the baseline has no way to batch proof
    /// retrieval, so it fetches one ledger proof per resultant record.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>, QldbProof)> {
        let inner = self.inner.read();
        inner
            .view_range(start, end)
            .filter_map(|(k, (v, location))| {
                Self::prove_location(&inner, *location).map(|proof| (k.clone(), v.clone(), proof))
            })
            .collect()
    }

    fn prove_location(inner: &QldbInner, location: RecordLocation) -> Option<QldbProof> {
        let block = inner.blocks.get(location.block)?;
        // Rebuild the block's Merkle tree to derive the record path — the
        // baseline stores only the block root in its journal.
        let tree = MerkleTree::from_leaves(block.leaves.iter().map(|l| l.as_slice()));
        let record_proof = tree.audit_proof(location.offset)?;
        let journal_path = inner.journal.audit_proof(location.block)?;
        Some(QldbProof {
            record_proof,
            block_root: block.root,
            journal_path,
            journal_root: inner.journal.root(),
        })
    }

    /// Number of keys in the materialized view.
    pub fn len(&self) -> usize {
        self.inner.read().view.len()
    }

    /// True when no keys have been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The baseline's digest: the journal root.
    pub fn digest(&self) -> Hash {
        let inner = self.inner.read();
        if inner.open_leaves.is_empty() {
            inner.journal.root()
        } else {
            // Include the open block so the digest covers every write.
            let tree = MerkleTree::from_leaves(inner.open_leaves.iter().map(|l| l.as_slice()));
            sha256(&[inner.journal.root().into_bytes(), tree.root().into_bytes()].concat())
        }
    }

    /// Number of sealed ledger blocks.
    pub fn block_count(&self) -> usize {
        self.inner.read().blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(n: u32) -> QldbBaseline {
        let db = QldbBaseline::new();
        for i in 0..n {
            db.put(
                format!("key-{i:06}").as_bytes(),
                format!("value-{i}").as_bytes(),
            );
        }
        db.seal();
        db
    }

    #[test]
    fn put_get_range() {
        let db = loaded(1000);
        assert_eq!(db.len(), 1000);
        assert_eq!(db.get(b"key-000123"), Some(b"value-123".to_vec()));
        assert_eq!(db.get(b"missing"), None);
        assert_eq!(db.range(b"key-000100", b"key-000200").len(), 100);
        assert!(db.range(b"key-000200", b"key-000100").is_empty());
        assert!(db.range_verified(b"key-000200", b"key-000100").is_empty());
        assert!(db.block_count() >= 3);
    }

    #[test]
    fn verified_reads_carry_valid_proofs() {
        let db = loaded(600);
        let (value, proof) = db.get_verified(b"key-000432").unwrap();
        assert_eq!(value, b"value-432".to_vec());
        assert!(proof.verify(b"key-000432", &value));
        assert!(!proof.verify(b"key-000432", b"forged"));
        assert!(!proof.verify(b"key-000999", &value));
        assert!(db.get_verified(b"missing").is_none());
    }

    #[test]
    fn verified_range_produces_one_proof_per_record() {
        let db = loaded(600);
        let results = db.range_verified(b"key-000100", b"key-000120");
        assert_eq!(results.len(), 20);
        for (k, v, proof) in &results {
            assert!(proof.verify(k, v), "{}", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn updates_supersede_in_view_but_history_is_kept_in_ledger() {
        let db = QldbBaseline::new();
        db.put(b"acct", b"100");
        db.put(b"acct", b"250");
        db.seal();
        assert_eq!(db.get(b"acct"), Some(b"250".to_vec()));
        let (value, proof) = db.get_verified(b"acct").unwrap();
        assert_eq!(value, b"250");
        assert!(proof.verify(b"acct", b"250"));
        // The old version is still part of the sealed block (immutability of
        // the ledger), reflected by a digest that depends on both writes.
        let digest_both = db.digest();
        let fresh = QldbBaseline::new();
        fresh.put(b"acct", b"250");
        fresh.seal();
        assert_ne!(digest_both, fresh.digest());
    }

    #[test]
    fn digest_covers_unsealed_writes() {
        let db = QldbBaseline::new();
        db.put(b"a", b"1");
        let d1 = db.digest();
        db.put(b"b", b"2");
        let d2 = db.digest();
        assert_ne!(d1, d2);
    }
}
