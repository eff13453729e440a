//! The SIRI (Structurally Invariant and Reusable Index) abstraction.
//!
//! The paper (and the companion SIGMOD'20 analysis it cites) groups the
//! Merkle Patricia Trie, the Merkle Bucket Tree and the Pattern-Oriented-
//! Split Tree into one family: indexes whose structure is a pure function of
//! their contents (not of the insertion order), whose nodes are content
//! addressed so that unchanged subtrees are physically shared between
//! versions, and which can produce Merkle proofs for their lookups. The
//! Spitz ledger stores one such index instance per block; node sharing
//! between consecutive instances is what keeps the ledger compact.
//!
//! [`SiriIndex`] captures the operations the rest of the system needs.
//! Proof *verification* is a static concern of each concrete index (clients
//! verify without holding the server's index), exposed uniformly through
//! [`verify_proof`].

use std::collections::HashSet;
use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_storage::chunk::ChunkKind;
use spitz_storage::{ChunkStore, StorageError};

use crate::mbt::MerkleBucketTree;
use crate::mpt::MerklePatriciaTrie;
use crate::pos_tree::PosTree;
use crate::proof::{hash_index_node, IndexProof, MultiProof};

/// Identifies a concrete SIRI implementation, e.g. inside proofs handed to
/// clients so they know which verification routine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiriKind {
    /// Pattern-Oriented-Split Tree (ForkBase / Spitz default).
    PosTree,
    /// Merkle Patricia Trie (Ethereum).
    MerklePatriciaTrie,
    /// Merkle Bucket Tree (Hyperledger Fabric).
    MerkleBucketTree,
}

impl SiriKind {
    /// Human-readable name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            SiriKind::PosTree => "pos-tree",
            SiriKind::MerklePatriciaTrie => "mpt",
            SiriKind::MerkleBucketTree => "mbt",
        }
    }

    /// Stable one-byte tag used in durable encodings (digest records, shard
    /// membership records). New kinds must append tags, never renumber.
    pub fn tag(self) -> u8 {
        match self {
            SiriKind::PosTree => 0,
            SiriKind::MerklePatriciaTrie => 1,
            SiriKind::MerkleBucketTree => 2,
        }
    }

    /// Inverse of [`SiriKind::tag`].
    pub fn from_tag(tag: u8) -> Option<SiriKind> {
        match tag {
            0 => Some(SiriKind::PosTree),
            1 => Some(SiriKind::MerklePatriciaTrie),
            2 => Some(SiriKind::MerkleBucketTree),
            _ => None,
        }
    }
}

/// A key/value result set in key order, as returned by range scans.
pub type IndexEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Operations common to all structurally invariant, reusable, authenticated
/// indexes.
pub trait SiriIndex: Send + Sync {
    /// Which concrete structure this is.
    fn kind(&self) -> SiriKind;

    /// Current root digest. [`Hash::ZERO`] denotes an empty index.
    fn root(&self) -> Hash;

    /// Number of key/value entries.
    fn len(&self) -> usize;

    /// True when the index holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert or overwrite a key/value pair, surfacing storage failures
    /// (disk full while persisting an index node) as a [`StorageError`].
    /// On an error the index root is left unchanged; partially written
    /// nodes are unreferenced content-addressed chunks, reclaimed by
    /// segment GC like any other orphan.
    fn try_insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StorageError>;

    /// Insert or overwrite a key/value pair. Panics on a storage failure;
    /// fallible callers (the ledger's commit path) use
    /// [`SiriIndex::try_insert`].
    fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.try_insert(key, value)
            .expect("persisting an index node failed; use try_insert to handle it")
    }

    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;

    /// Point lookup returning a Merkle proof for the result (present or
    /// absent).
    fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexProof);

    /// Batched point lookups returning one [`MultiProof`] covering every
    /// key against the current root. The default implementation proves each
    /// key independently and de-duplicates the revealed nodes (shared upper
    /// nodes appear once); the MPT overrides it with a compact trie-shaped
    /// encoding. Values are returned in input-key order.
    fn multi_get_with_proof(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, MultiProof) {
        let mut values = Vec::with_capacity(keys.len());
        let mut nodes: Vec<Vec<u8>> = Vec::new();
        let mut seen: HashSet<Hash> = HashSet::new();
        for key in keys {
            let (value, proof) = self.get_with_proof(key);
            values.push(value);
            for node in proof.nodes {
                if seen.insert(hash_index_node(&node)) {
                    nodes.push(node);
                }
            }
        }
        (values, MultiProof { nodes })
    }

    /// All entries with `start <= key < end`, in key order.
    fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)>;

    /// Range scan returning one combined proof that covers every returned
    /// entry. For the unified Spitz ledger this is the operation that lets
    /// proofs "ride along" the scan (Section 6.2.2 of the paper).
    fn range_with_proof(&self, start: &[u8], end: &[u8]) -> (IndexEntries, IndexProof);

    /// Re-open the index at a historical root (a previous block's instance).
    /// Returns `None` if the root is unknown to the backing store.
    fn checkout(&self, root: Hash) -> Option<Box<dyn SiriIndex>>;
}

/// Verify a point-lookup proof produced by an index of the given kind.
///
/// `value` is `Some` for a membership proof and `None` for an absence proof.
pub fn verify_proof(
    kind: SiriKind,
    root: Hash,
    key: &[u8],
    value: Option<&[u8]>,
    proof: &IndexProof,
) -> bool {
    match kind {
        SiriKind::PosTree => PosTree::verify_proof(root, key, value, proof),
        SiriKind::MerklePatriciaTrie => MerklePatriciaTrie::verify_proof(root, key, value, proof),
        SiriKind::MerkleBucketTree => MerkleBucketTree::verify_proof(root, key, value, proof),
    }
}

/// Verify a batched multi-key proof produced by
/// [`SiriIndex::multi_get_with_proof`]: every `(key, claimed value)` pair
/// must check out against the trusted root, and every node the proof
/// carries must be consumed by some key's walk (splices are rejected).
pub fn verify_multi_proof(
    kind: SiriKind,
    root: Hash,
    items: &[(Vec<u8>, Option<Vec<u8>>)],
    proof: &MultiProof,
) -> bool {
    match kind {
        SiriKind::PosTree => crate::pos_tree::verify_multi_proof(root, items, proof),
        SiriKind::MerklePatriciaTrie => MerklePatriciaTrie::verify_multi_proof(root, items, proof),
        SiriKind::MerkleBucketTree => crate::mbt::verify_multi_proof(root, items, proof),
    }
}

/// The chunk kind an index of `kind` stores its nodes under. MPT nodes use
/// the commitment-addressed [`ChunkKind::MptNode`]; the other SIRI
/// structures use plain payload-hashed [`ChunkKind::IndexNode`] chunks.
pub fn node_chunk_kind(kind: SiriKind) -> ChunkKind {
    match kind {
        SiriKind::MerklePatriciaTrie => ChunkKind::MptNode,
        SiriKind::PosTree | SiriKind::MerkleBucketTree => ChunkKind::IndexNode,
    }
}

/// Verify a **complete** range proof produced by an index of the given
/// kind: the claimed entries must be *exactly* the contiguous set of
/// entries with `start <= key < end` under the trusted root — nothing
/// forged (every entry chains to the root) and nothing omitted (the
/// verifier re-walks the revealed nodes and fails if any subtree that
/// could overlap the range was withheld). The boundary keys are part of
/// the proof statement, so a server cannot silently narrow the range.
pub fn verify_range_proof(
    kind: SiriKind,
    root: Hash,
    start: &[u8],
    end: &[u8],
    entries: &[(Vec<u8>, Vec<u8>)],
    proof: &IndexProof,
) -> bool {
    match kind {
        SiriKind::PosTree => PosTree::verify_range_proof(root, start, end, entries, proof),
        SiriKind::MerklePatriciaTrie => {
            MerklePatriciaTrie::verify_range_proof(root, start, end, entries, proof)
        }
        SiriKind::MerkleBucketTree => {
            MerkleBucketTree::verify_range_proof(root, start, end, entries, proof)
        }
    }
}

/// The chunk addresses of an index node's direct children.
///
/// `payload` is the raw payload of an `IndexNode` chunk. The byte tags of
/// the three SIRI encodings overlap (e.g. a Pos-Tree leaf and an MPT leaf
/// both start with `0`), so the caller must pass the kind the subtree was
/// built with; decoding under the wrong kind fails or yields nonsense.
/// Returns `None` when the payload does not decode as a node of `kind`.
pub fn node_children(kind: SiriKind, payload: &[u8]) -> Option<Vec<Hash>> {
    match kind {
        SiriKind::PosTree => crate::pos_tree::node_children(payload),
        SiriKind::MerklePatriciaTrie => crate::mpt::node_children(payload),
        SiriKind::MerkleBucketTree => crate::mbt::node_children(payload),
    }
}

/// Walk an index of `kind` downward from `root`, inserting the chunk
/// address of every reachable node into `live`.
///
/// Nodes already in `live` are not re-walked, so marking many historical
/// roots costs only the *unshared* suffix of each version (structural
/// sharing is the point of a SIRI). This is the mark phase of the storage
/// sweep: a missing or undecodable node is an error — compacting with an
/// incomplete live set would delete reachable data — so the caller must
/// abort on `Err`, never treat it as "nothing reachable".
pub fn collect_reachable(
    store: &Arc<dyn ChunkStore>,
    kind: SiriKind,
    root: Hash,
    live: &mut HashSet<Hash>,
) -> Result<(), StorageError> {
    let mut stack = vec![root];
    while let Some(address) = stack.pop() {
        if address == Hash::ZERO || !live.insert(address) {
            continue;
        }
        let chunk = store.get_kind(&address, node_chunk_kind(kind))?;
        let children =
            node_children(kind, chunk.data()).ok_or(StorageError::CorruptChunk(address))?;
        stack.extend(children);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    #[test]
    fn collect_reachable_marks_every_node_and_shares_subtrees() {
        for kind in [
            SiriKind::PosTree,
            SiriKind::MerklePatriciaTrie,
            SiriKind::MerkleBucketTree,
        ] {
            let store: Arc<dyn ChunkStore> = Arc::new(InMemoryChunkStore::new());
            let mut index: Box<dyn SiriIndex> = match kind {
                SiriKind::PosTree => Box::new(PosTree::new(Arc::clone(&store))),
                SiriKind::MerklePatriciaTrie => {
                    Box::new(MerklePatriciaTrie::new(Arc::clone(&store)))
                }
                SiriKind::MerkleBucketTree => Box::new(MerkleBucketTree::new(Arc::clone(&store))),
            };
            for i in 0..100u32 {
                index.insert(
                    format!("key-{i:04}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                );
            }
            let old_root = index.root();
            let mut old_live = HashSet::new();
            collect_reachable(&store, kind, old_root, &mut old_live).unwrap();
            assert!(!old_live.is_empty(), "{kind:?}");

            // A newer version shares unchanged subtrees with the old one.
            index.insert(b"key-0000".to_vec(), b"changed".to_vec());
            let mut both = HashSet::new();
            collect_reachable(&store, kind, index.root(), &mut both).unwrap();
            collect_reachable(&store, kind, old_root, &mut both).unwrap();
            assert!(both.len() < 2 * old_live.len(), "{kind:?}: no sharing?");

            // Every marked node must actually exist under the kind's chunk
            // kind (MptNode for the MPT, IndexNode otherwise).
            for address in &both {
                assert!(
                    store.get_kind(address, node_chunk_kind(kind)).is_ok(),
                    "{kind:?}"
                );
            }

            // A root the store does not hold is an error, not an empty set.
            let missing = spitz_crypto::sha256(b"missing root");
            let mut scratch = HashSet::new();
            assert!(collect_reachable(&store, kind, missing, &mut scratch).is_err());

            // The empty root marks nothing.
            let mut empty = HashSet::new();
            collect_reachable(&store, kind, Hash::ZERO, &mut empty).unwrap();
            assert!(empty.is_empty());
        }
    }

    #[test]
    fn kind_names() {
        assert_eq!(SiriKind::PosTree.name(), "pos-tree");
        assert_eq!(SiriKind::MerklePatriciaTrie.name(), "mpt");
        assert_eq!(SiriKind::MerkleBucketTree.name(), "mbt");
    }
}
