//! Merkle Bucket Tree (MBT).
//!
//! The authenticated structure used by Hyperledger Fabric's state database
//! and the third SIRI instance discussed by the paper. Keys are hashed into
//! a fixed number of buckets; each bucket stores its entries sorted by key
//! and is persisted as one content-addressed node; a fixed-fanout Merkle
//! tree over the bucket hashes provides the digest and the proofs.
//!
//! The bucket layout makes point updates cheap (rewrite one bucket plus a
//! short path), and a batch ([`SiriIndex::try_apply`]) rewrites each touched
//! bucket and each interior node above a touched bucket once; but, because
//! buckets are ordered by *hash* rather than by key, range queries must scan
//! every bucket — the weakness the paper's SIRI analysis attributes to
//! hash-partitioned structures, and one of the effects the `ablation_siri`
//! benchmark shows.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;

use spitz_crypto::{sha256, Hash};
use spitz_storage::{Chunk, ChunkKind, ChunkStore, StorageError};

use crate::codec::{put_bytes, put_u32, Reader};
use crate::proof::{hash_index_node, IndexProof};
use crate::siri::{sorted_batch, NodeTally, SiriIndex, SiriKind};

/// Number of leaf buckets. Fixed for the lifetime of a tree (as in Fabric).
const NUM_BUCKETS: usize = 4096;
/// Fanout of the Merkle tree built over the buckets.
const TREE_FANOUT: usize = 16;

/// The Merkle Bucket Tree.
pub struct MerkleBucketTree {
    store: Arc<dyn ChunkStore>,
    /// `levels[0]` holds the bucket hashes (Hash::ZERO for an empty bucket);
    /// each higher level holds the hashes of internal nodes over
    /// `TREE_FANOUT` children of the level below; the last level has one
    /// entry — the root. Shared with the instances
    /// [`SiriIndex::checkout`] copies from this one at its own root, and
    /// copied on the first write after such a copy.
    levels: Arc<Vec<Vec<Hash>>>,
    len: usize,
    written: NodeTally,
}

fn bucket_of(key: &[u8]) -> usize {
    (sha256(key).prefix_u64() % NUM_BUCKETS as u64) as usize
}

fn encode_bucket(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(0u8); // tag: bucket
    put_u32(&mut out, entries.len() as u32);
    for (k, v) in entries {
        put_bytes(&mut out, k);
        put_bytes(&mut out, v);
    }
    out
}

fn decode_bucket(data: &[u8]) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut r = Reader::new(data);
    if r.u8()? != 0 {
        return None;
    }
    // Each entry takes at least its two length prefixes.
    let count = r.count(8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let k = r.bytes()?.to_vec();
        let v = r.bytes()?.to_vec();
        entries.push((k, v));
    }
    r.is_exhausted().then_some(entries)
}

fn encode_internal(children: &[Hash]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + children.len() * 32);
    out.push(1u8); // tag: internal
    out.push(children.len() as u8);
    for child in children {
        out.extend_from_slice(child.as_bytes());
    }
    out
}

fn decode_internal(data: &[u8]) -> Option<Vec<Hash>> {
    let mut r = Reader::new(data);
    if r.u8()? != 1 {
        return None;
    }
    let count = r.u8()? as usize;
    let mut children = Vec::with_capacity(count);
    for _ in 0..count {
        children.push(r.hash()?);
    }
    r.is_exhausted().then_some(children)
}

/// Child node addresses of an encoded MBT node (empty for a bucket);
/// [`Hash::ZERO`] children denote empty subtrees that have no stored node
/// and are skipped. `None` when the payload decodes as neither node form.
pub(crate) fn node_children(payload: &[u8]) -> Option<Vec<Hash>> {
    match payload.first()? {
        0 => decode_bucket(payload).map(|_| Vec::new()),
        1 => decode_internal(payload)
            .map(|children| children.into_iter().filter(|h| *h != Hash::ZERO).collect()),
        _ => None,
    }
}

impl MerkleBucketTree {
    /// Create an empty tree writing its nodes into `store`.
    pub fn new(store: Arc<dyn ChunkStore>) -> Self {
        let mut tree = MerkleBucketTree {
            store,
            levels: Arc::default(),
            len: 0,
            written: NodeTally::default(),
        };
        tree.rebuild_all_levels(vec![Hash::ZERO; NUM_BUCKETS]);
        tree
    }

    /// Open the tree at a historical root by walking the internal nodes down
    /// to the bucket hashes. Returns `None` when the root (or any referenced
    /// node) is missing from the store.
    pub fn open(store: Arc<dyn ChunkStore>, root: Hash) -> Option<Self> {
        if root.is_zero() {
            return Some(MerkleBucketTree::new(store));
        }
        // Collect hashes level by level, top down.
        let mut top_down: Vec<Vec<Hash>> = vec![vec![root]];
        loop {
            let current = top_down.last().expect("at least the root level");
            if current.len() == NUM_BUCKETS {
                break;
            }
            let mut next = Vec::with_capacity(current.len() * TREE_FANOUT);
            for hash in current {
                if hash.is_zero() {
                    next.extend(std::iter::repeat_n(Hash::ZERO, TREE_FANOUT));
                    continue;
                }
                let chunk = store.get_kind(hash, ChunkKind::IndexNode).ok()?;
                let children = decode_internal(chunk.data())?;
                next.extend(children);
            }
            top_down.push(next);
        }
        top_down.reverse();
        let mut len = 0usize;
        for bucket_hash in &top_down[0] {
            if bucket_hash.is_zero() {
                continue;
            }
            let chunk = store.get_kind(bucket_hash, ChunkKind::IndexNode).ok()?;
            len += decode_bucket(chunk.data())?.len();
        }
        Some(MerkleBucketTree {
            store,
            levels: Arc::new(top_down),
            len,
            written: NodeTally::default(),
        })
    }

    fn rebuild_all_levels(&mut self, buckets: Vec<Hash>) {
        let mut levels = vec![buckets];
        while levels.last().expect("non-empty").len() > 1 {
            let below = levels.last().expect("non-empty");
            let mut level = Vec::with_capacity(below.len().div_ceil(TREE_FANOUT));
            for group in below.chunks(TREE_FANOUT) {
                // Only reached from `new()` with all-zero buckets, so no
                // store write can actually happen (all-zero groups hash to
                // zero without touching the store).
                level.push(
                    self.internal_hash(group)
                        .expect("empty tree writes no nodes"),
                );
            }
            levels.push(level);
        }
        self.levels = Arc::new(levels);
    }

    fn internal_hash(&self, children: &[Hash]) -> Result<Hash, StorageError> {
        if children.iter().all(|h| h.is_zero()) {
            return Ok(Hash::ZERO);
        }
        self.written.put(
            &self.store,
            Chunk::new(ChunkKind::IndexNode, encode_internal(children)),
        )
    }

    fn load_bucket(&self, bucket_index: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let hash = self.levels[0][bucket_index];
        if hash.is_zero() {
            return Vec::new();
        }
        self.store
            .get_kind(&hash, ChunkKind::IndexNode)
            .ok()
            .and_then(|chunk| decode_bucket(chunk.data()))
            .unwrap_or_default()
    }

    /// The proof path (internal node payloads root → leaf, then the bucket
    /// payload) for a bucket index. Returns `None` entries when the path
    /// runs into an all-empty subtree.
    fn proof_path(&self, bucket_index: usize) -> IndexProof {
        let mut proof = IndexProof::empty();
        // Walk top-down: the levels vector is bottom-up.
        let depth = self.levels.len();
        let mut indices = Vec::with_capacity(depth);
        let mut index = bucket_index;
        for _ in 0..depth {
            indices.push(index);
            index /= TREE_FANOUT;
        }
        // indices[i] is the index at level i; emit internal nodes from the
        // top (level depth-1) down to level 1, then the bucket at level 0.
        for level in (1..depth).rev() {
            let node_hash = self.levels[level][indices[level]];
            if node_hash.is_zero() {
                return proof;
            }
            if let Ok(chunk) = self.store.get_kind(&node_hash, ChunkKind::IndexNode) {
                proof.push_node(chunk.data().to_vec());
            }
        }
        let bucket_hash = self.levels[0][bucket_index];
        if !bucket_hash.is_zero() {
            if let Ok(chunk) = self.store.get_kind(&bucket_hash, ChunkKind::IndexNode) {
                proof.push_node(chunk.data().to_vec());
            }
        }
        proof
    }

    /// Verify a point-lookup proof: follow the fixed bucket path through the
    /// revealed internal nodes and check the bucket contents. The path is
    /// the whole proof: an empty tree has an empty proof, and a node past
    /// the bucket is refused.
    pub fn verify_proof(root: Hash, key: &[u8], value: Option<&[u8]>, proof: &IndexProof) -> bool {
        if root.is_zero() {
            return value.is_none() && proof.is_empty();
        }
        if proof.nodes.is_empty() {
            return false;
        }
        if hash_index_node(&proof.nodes[0]) != root {
            return false;
        }
        // Recompute the per-level child indices for this key.
        let child_indices = child_indices_for(bucket_of(key));

        let mut node_iter = proof.nodes.iter();
        let mut current = node_iter.next().expect("checked non-empty").clone();
        for child_index in child_indices {
            let Some(children) = decode_internal(&current) else {
                return false;
            };
            let Some(child_hash) = children.get(child_index).copied() else {
                return false;
            };
            if child_hash.is_zero() {
                // The whole subtree (hence the bucket) is empty: only an
                // absence claim can be valid, and no further nodes may follow.
                return value.is_none() && node_iter.next().is_none();
            }
            let Some(next) = node_iter.next() else {
                return false;
            };
            if hash_index_node(next) != child_hash {
                return false;
            }
            current = next.clone();
        }
        let Some(entries) = decode_bucket(&current) else {
            return false;
        };
        if node_iter.next().is_some() {
            return false;
        }
        let found = entries.iter().find(|(k, _)| k.as_slice() == key);
        match (found, value) {
            (Some((_, v)), Some(expected)) => v.as_slice() == expected,
            (None, None) => true,
            _ => false,
        }
    }

    /// Verify a **complete** range proof. MBT buckets partition by *hash*,
    /// not by key, so any bucket can hold part of any range — a complete
    /// proof therefore reveals the entire bucket tree (the hash-partitioned
    /// weakness the paper's SIRI analysis calls out). The verifier re-walks
    /// the tree from the root level by level, in the prover's order,
    /// consuming the revealed nodes one per non-empty child it meets and
    /// requiring nothing to be left over; then it checks that the claimed
    /// entries are exactly the revealed buckets' contents restricted to
    /// `start <= key < end`. An empty tree or range has an empty proof.
    pub(crate) fn verify_range_proof<E: Borrow<(Vec<u8>, Vec<u8>)>>(
        root: Hash,
        start: &[u8],
        end: &[u8],
        entries: &[E],
        proof: &IndexProof,
    ) -> bool {
        if root.is_zero() || start >= end {
            return entries.is_empty() && proof.is_empty();
        }
        let mut revealed = proof.nodes.iter();
        let mut level = vec![root];
        let mut all = Vec::new();
        // The internal levels, root first, then (depth 0) the buckets. No
        // two non-empty nodes of a tree are equal (a key lives in one
        // bucket), so each hash the walk meets is the next revealed node's.
        for depth in (0..=child_indices_for(0).len()).rev() {
            let mut below = Vec::new();
            for hash in level {
                let Some(payload) = revealed.next().filter(|n| hash_index_node(n) == hash) else {
                    return false;
                };
                if depth > 0 {
                    let Some(children) = decode_internal(payload) else {
                        return false;
                    };
                    below.extend(children.into_iter().filter(|c| !c.is_zero()));
                } else {
                    let Some(bucket) = decode_bucket(payload) else {
                        return false;
                    };
                    all.extend(bucket);
                }
            }
            level = below;
        }
        if revealed.next().is_some() {
            return false;
        }
        let mut in_range: Vec<(Vec<u8>, Vec<u8>)> = all
            .into_iter()
            .filter(|(k, _)| k.as_slice() >= start && k.as_slice() < end)
            .collect();
        in_range.sort_by(|a, b| a.0.cmp(&b.0));
        in_range.iter().eq(entries.iter().map(Borrow::borrow))
    }
}

/// Per-level child indices for a bucket, from the top level downwards —
/// the fixed descent the point and multi-key proof verifiers share.
fn child_indices_for(bucket_index: usize) -> Vec<usize> {
    let mut level_count = 0usize;
    let mut size = NUM_BUCKETS;
    while size > 1 {
        size = size.div_ceil(TREE_FANOUT);
        level_count += 1;
    }
    let mut child_indices = Vec::with_capacity(level_count);
    let mut index = bucket_index;
    for _ in 0..level_count {
        child_indices.push(index % TREE_FANOUT);
        index /= TREE_FANOUT;
    }
    child_indices.reverse();
    child_indices
}

/// Verify a batched multi-key proof: replay each key's fixed bucket path
/// over the revealed node set, requiring every revealed node to be consumed
/// by at least one walk (spliced-in payloads are rejected).
pub(crate) fn verify_multi_proof(
    root: Hash,
    items: &[(Vec<u8>, Option<Vec<u8>>)],
    proof: &IndexProof,
) -> bool {
    if items.is_empty() {
        return proof.is_empty();
    }
    if root.is_zero() {
        return items.iter().all(|(_, v)| v.is_none()) && proof.is_empty();
    }
    let map: HashMap<Hash, (usize, &[u8])> = proof
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (hash_index_node(n), (i, n.as_slice())))
        .collect();
    let mut used = vec![false; proof.nodes.len()];
    for (key, claim) in items {
        let Some(&(root_idx, mut current)) = map.get(&root) else {
            return false;
        };
        used[root_idx] = true;
        let mut pruned = false;
        for child_index in child_indices_for(bucket_of(key)) {
            let Some(children) = decode_internal(current) else {
                return false;
            };
            let Some(child) = children.get(child_index).copied() else {
                return false;
            };
            if child.is_zero() {
                // Empty subtree: only an absence claim can be valid.
                if claim.is_some() {
                    return false;
                }
                pruned = true;
                break;
            }
            let Some(&(idx, payload)) = map.get(&child) else {
                return false;
            };
            used[idx] = true;
            current = payload;
        }
        if pruned {
            continue;
        }
        let Some(entries) = decode_bucket(current) else {
            return false;
        };
        let found = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        if found != claim.as_ref() {
            return false;
        }
    }
    used.iter().all(|&u| u)
}

impl SiriIndex for MerkleBucketTree {
    fn kind(&self) -> SiriKind {
        SiriKind::MerkleBucketTree
    }

    fn root(&self) -> Hash {
        *self
            .levels
            .last()
            .and_then(|level| level.first())
            .unwrap_or(&Hash::ZERO)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn try_apply(&mut self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<bool>, StorageError> {
        let (batch, order) = sorted_batch(writes);
        let mut by_bucket: Vec<_> = batch
            .into_iter()
            .enumerate()
            .map(|(i, write)| (bucket_of(&write.0), i, write))
            .collect();
        // Stable: within a bucket the writes stay in key order.
        by_bucket.sort_by_key(|write| write.0);

        // Rewrite each touched bucket once. `changed` holds the new hashes
        // of the level being built, ascending by position; the cached
        // levels are not touched until every node of the new version is
        // stored, so a failed put leaves the tree exactly as it was.
        let mut is_new = vec![false; by_bucket.len()];
        let mut changed: Vec<(usize, Hash)> = Vec::new();
        let mut by_bucket = by_bucket.into_iter().peekable();
        while let Some(&(bucket_index, _, _)) = by_bucket.peek() {
            let mut entries = self.load_bucket(bucket_index);
            while let Some((_, i, (key, value))) = by_bucket.next_if(|w| w.0 == bucket_index) {
                match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(at) => entries[at].1 = value,
                    Err(at) => {
                        entries.insert(at, (key, value));
                        is_new[i] = true;
                    }
                }
            }
            let bucket = Chunk::new(ChunkKind::IndexNode, encode_bucket(&entries));
            changed.push((bucket_index, self.written.put(&self.store, bucket)?));
        }

        // Then each interior node above a touched bucket, once per level.
        let mut pending = Vec::with_capacity(self.levels.len());
        for level in 0..self.levels.len() - 1 {
            let below = &self.levels[level];
            let mut parents = Vec::new();
            let mut rest = changed.as_slice();
            while let Some(&(position, _)) = rest.first() {
                let group_index = position / TREE_FANOUT;
                let start = group_index * TREE_FANOUT;
                let mut group = below[start..(start + TREE_FANOUT).min(below.len())].to_vec();
                let same = rest.partition_point(|(p, _)| p / TREE_FANOUT == group_index);
                for &(p, hash) in &rest[..same] {
                    group[p - start] = hash;
                }
                parents.push((group_index, self.internal_hash(&group)?));
                rest = &rest[same..];
            }
            pending.push(std::mem::replace(&mut changed, parents));
        }
        pending.push(changed);

        for (level, changes) in Arc::make_mut(&mut self.levels).iter_mut().zip(pending) {
            for (position, hash) in changes {
                level[position] = hash;
            }
        }
        self.len += is_new.iter().filter(|&&new| new).count();
        Ok(order.flags(&is_new))
    }

    fn node_writes(&self) -> (u64, u64) {
        self.written.get()
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let entries = self.load_bucket(bucket_of(key));
        entries
            .iter()
            .find(|(k, _)| k.as_slice() == key)
            .map(|(_, v)| v.clone())
    }

    fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexProof) {
        let value = self.get(key);
        let proof = self.proof_path(bucket_of(key));
        (value, proof)
    }

    fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if start >= end {
            return out;
        }
        for bucket_index in 0..NUM_BUCKETS {
            for (k, v) in self.load_bucket(bucket_index) {
                if k.as_slice() >= start && k.as_slice() < end {
                    out.push((k, v));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn range_with_proof(&self, start: &[u8], end: &[u8]) -> (Vec<(Vec<u8>, Vec<u8>)>, IndexProof) {
        let entries = self.range(start, end);
        let mut proof = IndexProof::empty();
        if self.root().is_zero() || start >= end {
            return (entries, proof);
        }
        // Completeness over hash-partitioned buckets requires revealing the
        // whole tree: every non-empty internal node (top-down) and bucket,
        // level by level — the order the verifier consumes them in.
        for level in self.levels.iter().rev() {
            for hash in level.iter().filter(|h| !h.is_zero()) {
                if let Ok(chunk) = self.store.get_kind(hash, ChunkKind::IndexNode) {
                    proof.push_node(chunk.data().to_vec());
                }
            }
        }
        (entries, proof)
    }

    fn checkout(&self, root: Hash) -> Option<Box<dyn SiriIndex>> {
        if root == self.root() {
            return Some(Box::new(MerkleBucketTree {
                store: Arc::clone(&self.store),
                levels: Arc::clone(&self.levels),
                len: self.len,
                written: NodeTally::default(),
            }));
        }
        MerkleBucketTree::open(Arc::clone(&self.store), root)
            .map(|t| Box::new(t) as Box<dyn SiriIndex>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use spitz_storage::InMemoryChunkStore;

    fn new_tree() -> MerkleBucketTree {
        MerkleBucketTree::new(InMemoryChunkStore::shared())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:06}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    #[test]
    fn empty_tree_has_zero_root() {
        let tree = new_tree();
        assert_eq!(tree.root(), Hash::ZERO);
        assert!(tree.is_empty());
        assert_eq!(tree.get(b"x"), None);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut tree = new_tree();
        for i in 0..400u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        assert_eq!(tree.len(), 400);
        for i in 0..400u32 {
            assert_eq!(tree.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(tree.get(b"missing"), None);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut tree = new_tree();
        tree.try_insert(b"k".to_vec(), b"v1".to_vec()).unwrap();
        tree.try_insert(b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn structural_invariance_under_insertion_order() {
        let keys: Vec<u32> = (0..300).collect();
        let mut t1 = new_tree();
        for &i in &keys {
            t1.try_insert(key(i), value(i)).unwrap();
        }
        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(9));
        let mut t2 = new_tree();
        for &i in &shuffled {
            t2.try_insert(key(i), value(i)).unwrap();
        }
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn proofs_verify_and_detect_tampering() {
        let mut tree = new_tree();
        for i in 0..200u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root = tree.root();
        let (v, proof) = tree.get_with_proof(&key(42));
        assert_eq!(v, Some(value(42)));
        assert!(MerkleBucketTree::verify_proof(
            root,
            &key(42),
            v.as_deref(),
            &proof
        ));
        assert!(!MerkleBucketTree::verify_proof(
            root,
            &key(42),
            Some(b"forged"),
            &proof
        ));
        assert!(!MerkleBucketTree::verify_proof(
            root,
            &key(42),
            None,
            &proof
        ));
        assert!(!MerkleBucketTree::verify_proof(
            sha256(b"x"),
            &key(42),
            v.as_deref(),
            &proof
        ));
    }

    /// A point proof is exactly the key's path: a node past the bucket, or
    /// any node against the empty tree, is refused.
    #[test]
    fn point_proof_is_exactly_the_path() {
        let mut tree = new_tree();
        for i in 0..200u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root = tree.root();
        let (v, proof) = tree.get_with_proof(&key(42));
        let mut padded = proof.clone();
        padded.push_node(proof.nodes.last().unwrap().clone());
        assert!(!MerkleBucketTree::verify_proof(
            root,
            &key(42),
            v.as_deref(),
            &padded
        ));

        let (none, empty) = new_tree().get_with_proof(&key(42));
        assert!(none.is_none() && empty.is_empty());
        assert!(MerkleBucketTree::verify_proof(
            Hash::ZERO,
            &key(42),
            None,
            &empty
        ));
        assert!(!MerkleBucketTree::verify_proof(
            Hash::ZERO,
            &key(42),
            None,
            &proof
        ));
    }

    #[test]
    fn absence_proofs_for_missing_and_empty_buckets() {
        let mut tree = new_tree();
        for i in 0..50u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root = tree.root();
        // A key that is absent (its bucket may or may not be empty).
        let (v, proof) = tree.get_with_proof(b"definitely-not-there");
        assert!(v.is_none());
        assert!(MerkleBucketTree::verify_proof(
            root,
            b"definitely-not-there",
            None,
            &proof
        ));
        assert!(!MerkleBucketTree::verify_proof(
            root,
            b"definitely-not-there",
            Some(b"x"),
            &proof
        ));
    }

    #[test]
    fn range_scans_return_sorted_results_with_proofs() {
        let mut tree = new_tree();
        for i in 0..300u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let (start, end) = (key(100), key(120));
        let (entries, proof) = tree.range_with_proof(&start, &end);
        assert_eq!(entries.len(), 20);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(MerkleBucketTree::verify_range_proof(
            tree.root(),
            &start,
            &end,
            &entries,
            &proof
        ));

        let mut forged = entries.clone();
        forged[0].1 = b"forged".to_vec();
        assert!(!MerkleBucketTree::verify_range_proof(
            tree.root(),
            &start,
            &end,
            &forged,
            &proof
        ));
        // Omitting an entry breaks verification (completeness).
        let mut truncated = entries.clone();
        truncated.pop();
        assert!(!MerkleBucketTree::verify_range_proof(
            tree.root(),
            &start,
            &end,
            &truncated,
            &proof
        ));
    }

    #[test]
    fn checkout_restores_old_version() {
        let store = InMemoryChunkStore::shared();
        let mut tree = MerkleBucketTree::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        for i in 0..50u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root_v1 = tree.root();
        tree.try_insert(b"extra".to_vec(), b"x".to_vec()).unwrap();
        assert_ne!(tree.root(), root_v1);

        let old = tree.checkout(root_v1).unwrap();
        assert_eq!(old.len(), 50);
        assert_eq!(old.get(b"extra"), None);
        assert_eq!(old.get(&key(7)), Some(value(7)));
    }
}
