//! The SIRI (Structurally Invariant and Reusable Index) abstraction.
//!
//! The paper (and the companion SIGMOD'20 analysis it cites) groups the
//! Merkle Patricia Trie, the Merkle Bucket Tree and the Pattern-Oriented-
//! Split Tree into one family: indexes whose structure is a pure function of
//! their contents (not of the insertion order), whose nodes are content
//! addressed so that unchanged subtrees are physically shared between
//! versions, and which can produce Merkle proofs for their lookups. The
//! Spitz ledger stores one such index instance per block; node sharing
//! between consecutive instances is what keeps the ledger compact. A
//! block's writes reach the index as one sorted batch
//! ([`SiriIndex::try_apply`]), so the instance a block references is also
//! the only one written: no intermediate per-key versions reach the store.
//!
//! [`SiriIndex`] captures the operations the rest of the system needs.
//! Proof *verification* is a static concern of each concrete index (clients
//! verify without holding the server's index), exposed uniformly through
//! [`verify_proof`].

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_storage::chunk::ChunkKind;
use spitz_storage::{Chunk, ChunkStore, StorageError};

use crate::mbt::MerkleBucketTree;
use crate::mpt::MerklePatriciaTrie;
use crate::pos_tree::PosTree;
use crate::proof::{hash_index_node, IndexProof};

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

    /// Insert or overwrite a batch of key/value pairs in **one**
    /// copy-on-write pass: every node of the new version is written once,
    /// however many of the batch's keys it covers. The result is the
    /// version a fold of single inserts would reach (structural
    /// invariance), without the intermediate versions.
    ///
    /// The returned flags are in input order: `true` where the write added
    /// a key the index did not hold. When the batch names a key more than
    /// once the last value wins and only the first occurrence can be
    /// flagged new, as in a fold.
    ///
    /// Storage failures (disk full while persisting an index node) surface
    /// as a [`StorageError`]. The new root and length are published last,
    /// so on an error the index — root, length and every read — is exactly
    /// as before; nodes already written are unreferenced content-addressed
    /// chunks, reclaimed by segment GC like any other orphan.
    fn try_apply(&mut self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<bool>, StorageError>;

    /// Insert or overwrite one key/value pair: a batch of one.
    fn try_insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<(), StorageError> {
        self.try_apply(vec![(key, value)]).map(|_| ())
    }

    /// Index nodes this instance has handed to its store since it was
    /// created or checked out, as `(nodes, bytes)` — bytes in
    /// [`Chunk::storage_size`] units, the store's `physical_bytes`. The
    /// difference across one [`SiriIndex::try_apply`] is what that apply
    /// wrote.
    fn node_writes(&self) -> (u64, u64);

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

    /// Batched point lookups returning one [`IndexProof`] covering every
    /// key against the current root. The default implementation proves each
    /// key independently and de-duplicates the revealed nodes (shared upper
    /// nodes appear once); the MPT overrides it with a compact trie-shaped
    /// encoding. Values are returned in input-key order.
    fn multi_get_with_proof(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, IndexProof) {
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
        (values, IndexProof { nodes })
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

/// Where the keys of a [`sorted_batch`] came from: the length of the input
/// and, per key, the input position of its first occurrence — the one a
/// fold of single inserts would report as new.
pub(crate) struct InputOrder {
    len: usize,
    first: Vec<usize>,
}

impl InputOrder {
    /// The was-new flags in input order, from the per-key answers.
    pub(crate) fn flags(&self, is_new: &[bool]) -> Vec<bool> {
        debug_assert_eq!(self.first.len(), is_new.len());
        let mut flags = vec![false; self.len];
        for (&position, &new) in self.first.iter().zip(is_new) {
            flags[position] = new;
        }
        flags
    }
}

/// A batch in apply order: sorted by key, one entry per key (the last
/// write wins).
pub(crate) fn sorted_batch(writes: Vec<(Vec<u8>, Vec<u8>)>) -> (IndexEntries, InputOrder) {
    let len = writes.len();
    let mut tagged: Vec<_> = writes.into_iter().enumerate().collect();
    tagged.sort_by(|(_, a), (_, b)| a.0.cmp(&b.0));
    let mut entries: IndexEntries = Vec::with_capacity(tagged.len());
    let mut first = Vec::with_capacity(tagged.len());
    for (position, (key, value)) in tagged {
        match entries.last_mut() {
            Some((last_key, last_value)) if *last_key == key => *last_value = value,
            _ => {
                entries.push((key, value));
                first.push(position);
            }
        }
    }
    (entries, InputOrder { len, first })
}

/// Count and size of the nodes an index instance has put, kept beside the
/// store handle so every node write goes through [`NodeTally::put`].
#[derive(Debug, Default)]
pub(crate) struct NodeTally {
    nodes: AtomicU64,
    bytes: AtomicU64,
}

impl NodeTally {
    pub(crate) fn put(
        &self,
        store: &Arc<dyn ChunkStore>,
        chunk: Chunk,
    ) -> Result<Hash, StorageError> {
        let size = chunk.storage_size() as u64;
        let address = store.try_put(chunk)?;
        self.nodes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size, Ordering::Relaxed);
        Ok(address)
    }

    pub(crate) fn get(&self) -> (u64, u64) {
        (
            self.nodes.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
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
    proof: &IndexProof,
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
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use spitz_storage::InMemoryChunkStore;
    use std::collections::BTreeMap;

    const KINDS: [SiriKind; 3] = [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ];

    fn new_index(kind: SiriKind, store: &Arc<dyn ChunkStore>) -> Box<dyn SiriIndex> {
        match kind {
            SiriKind::PosTree => Box::new(PosTree::new(Arc::clone(store))),
            SiriKind::MerklePatriciaTrie => Box::new(MerklePatriciaTrie::new(Arc::clone(store))),
            SiriKind::MerkleBucketTree => Box::new(MerkleBucketTree::new(Arc::clone(store))),
        }
    }

    fn spaced_key(i: u32) -> Vec<u8> {
        format!("k/{i:08}").into_bytes()
    }

    /// A batch over a tree holding `spaced_key(4 * i)` for `i < base`: one of
    /// an adjacent run, scattered keys, keys below the minimum, keys above
    /// the maximum, or a mix with in-batch duplicates — shuffled, values
    /// unique to `(round, position)`.
    fn random_batch(rng: &mut StdRng, base: u32, round: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        let size = match rng.gen_range(0..5u32) {
            0 => rng.gen_range(0..3usize),
            _ => rng.gen_range(2..300usize),
        };
        let span = 4 * base + 400;
        let shape = rng.gen_range(0..5u32);
        let start = rng.gen_range(0..span);
        let mut keys: Vec<Vec<u8>> = (0..size as u32)
            .map(|j| match shape {
                0 => spaced_key(start + j),
                1 => spaced_key(rng.gen_range(0..span)),
                2 => format!("a/{:04}", rng.gen_range(0..500u32)).into_bytes(),
                3 => format!("z/{:04}", rng.gen_range(0..500u32)).into_bytes(),
                _ => spaced_key(start + rng.gen_range(0..1 + size as u32 / 2)),
            })
            .collect();
        keys.shuffle(rng);
        keys.into_iter()
            .enumerate()
            .map(|(j, key)| (key, format!("v{round}.{j}").into_bytes()))
            .collect()
    }

    /// `try_apply(batch)` against a fold of single inserts, on separate
    /// stores: same was-new flags, root and length, and the batched tree
    /// reads back exactly the model.
    fn assert_apply_equals_fold(
        batched: &mut dyn SiriIndex,
        folded: &mut dyn SiriIndex,
        model: &mut BTreeMap<Vec<u8>, Vec<u8>>,
        batch: Vec<(Vec<u8>, Vec<u8>)>,
        context: &str,
    ) {
        let mut fold_flags = Vec::with_capacity(batch.len());
        for (key, value) in &batch {
            fold_flags.push(folded.get(key).is_none());
            folded.try_insert(key.clone(), value.clone()).unwrap();
            model.insert(key.clone(), value.clone());
        }
        let flags = batched.try_apply(batch).unwrap();
        assert_eq!(flags, fold_flags, "{context}: was-new flags");
        assert_eq!(batched.root(), folded.root(), "{context}: root");
        assert_eq!(batched.len(), folded.len(), "{context}: len");
        assert_eq!(batched.len(), model.len(), "{context}: model len");
    }

    #[test]
    fn apply_equals_a_fold_of_single_inserts_for_every_kind() {
        for kind in KINDS {
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(0xBA7C4 + seed);
                let mut batched = new_index(kind, &(InMemoryChunkStore::shared() as _));
                let mut folded = new_index(kind, &(InMemoryChunkStore::shared() as _));
                let mut model = BTreeMap::new();
                let base = [0u32, 1, 60, 700][seed as usize % 4];
                let load = (0..base)
                    .map(|i| (spaced_key(4 * i), b"base".to_vec()))
                    .collect();
                let context = format!("{kind:?} seed {seed}");
                assert_apply_equals_fold(&mut *batched, &mut *folded, &mut model, load, &context);
                for round in 0..4 {
                    let batch = random_batch(&mut rng, base, round);
                    let context = format!("{context} round {round} ({} writes)", batch.len());
                    assert_apply_equals_fold(
                        &mut *batched,
                        &mut *folded,
                        &mut model,
                        batch,
                        &context,
                    );
                }
                let expected: IndexEntries = model.into_iter().collect();
                assert_eq!(batched.range(b"", b"\xff"), expected, "{context}: contents");
            }
        }
    }

    /// One adjacent run long enough to end nodes at two POS-tree levels (and
    /// to fill MPT branches and many MBT buckets), into an empty tree and
    /// then into the middle of the loaded one.
    #[test]
    fn apply_of_a_long_adjacent_run_equals_the_fold() {
        for kind in KINDS {
            let mut batched = new_index(kind, &(InMemoryChunkStore::shared() as _));
            let mut folded = new_index(kind, &(InMemoryChunkStore::shared() as _));
            let mut model = BTreeMap::new();
            for (round, range) in [(0u32, 0..1500u32), (1, 600..2100)] {
                let run = range
                    .map(|i| (spaced_key(i), format!("v{round}.{i}").into_bytes()))
                    .collect();
                let context = format!("{kind:?} run {round}");
                assert_apply_equals_fold(&mut *batched, &mut *folded, &mut model, run, &context);
            }
            if kind == SiriKind::PosTree {
                let (_, proof) = batched.get_with_proof(&spaced_key(1000));
                assert!(proof.len() >= 3, "the run must span two internal levels");
            }
        }
    }

    /// The nodes of `new_root`'s version that `old_root`'s does not have.
    fn new_nodes(
        store: &Arc<dyn ChunkStore>,
        kind: SiriKind,
        old_root: Hash,
        new_root: Hash,
    ) -> HashSet<Hash> {
        let (mut old, mut new) = (HashSet::new(), HashSet::new());
        collect_reachable(store, kind, old_root, &mut old).unwrap();
        collect_reachable(store, kind, new_root, &mut new).unwrap();
        new.difference(&old).copied().collect()
    }

    /// The in-repo guard against going back to per-key paths: an apply
    /// writes each node of the new version that the old one lacks exactly
    /// once, and nothing else. The counts repeat exactly, so this asserts
    /// equality, not a budget.
    #[test]
    fn apply_writes_each_new_node_once_and_nothing_else() {
        for kind in [SiriKind::PosTree, SiriKind::MerkleBucketTree] {
            let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
            let mut index = new_index(kind, &store);
            let load = (0..5000u32)
                .map(|i| (spaced_key(2 * i), format!("loaded-{i}").into_bytes()))
                .collect();
            index.try_apply(load).unwrap();

            let adjacent: Vec<_> = (0..64u32)
                .map(|j| {
                    (
                        spaced_key(4001 + 2 * j),
                        format!("adjacent-{j}").into_bytes(),
                    )
                })
                .collect();
            let mixed: Vec<_> = [10u32, 2500, 6200, 9998]
                .into_iter()
                .chain(10_000..10_004)
                .map(|i| (spaced_key(i), format!("mixed-{i}").into_bytes()))
                .collect();
            for (name, batch) in [("64 adjacent", adjacent), ("8 mixed", mixed)] {
                let context = format!("{kind:?}, {name}");
                let old_root = index.root();
                let before = store.stats();
                let (nodes_before, bytes_before) = index.node_writes();
                let keys = batch.len();
                index.try_apply(batch).unwrap();
                let after = store.stats();
                let (nodes_after, bytes_after) = index.node_writes();

                let fresh = new_nodes(&store, kind, old_root, index.root());
                let fresh_bytes: u64 = fresh
                    .iter()
                    .map(|address| store.get(address).unwrap().storage_size() as u64)
                    .sum();
                assert_eq!(
                    after.chunk_count - before.chunk_count,
                    fresh.len() as u64,
                    "{context}: chunks"
                );
                assert_eq!(
                    after.physical_bytes - before.physical_bytes,
                    fresh_bytes,
                    "{context}: bytes"
                );
                assert_eq!(after.dedup_hits, before.dedup_hits, "{context}: rewrites");
                assert_eq!(
                    (nodes_after - nodes_before, bytes_after - bytes_before),
                    (fresh.len() as u64, fresh_bytes),
                    "{context}: node_writes"
                );
                // Sharing is the point: far fewer nodes than one path per key.
                let (_, proof) = index.get_with_proof(&spaced_key(4001));
                assert!(
                    fresh.len() < keys * proof.len(),
                    "{context}: {}",
                    fresh.len()
                );
            }
        }
    }

    #[test]
    fn collect_reachable_marks_every_node_and_shares_subtrees() {
        for kind in KINDS {
            let store: Arc<dyn ChunkStore> = Arc::new(InMemoryChunkStore::new());
            let mut index = new_index(kind, &store);
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
