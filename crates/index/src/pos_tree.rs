//! Pattern-Oriented-Split Tree (POS-Tree).
//!
//! The POS-Tree is ForkBase's structurally invariant, authenticated index
//! and the structure Spitz uses for its unified ledger index. It is a
//! B+-tree-like search tree whose node boundaries are *content defined*: an
//! entry ends a node when a hash of its key matches a split pattern. As a
//! result the shape of the tree is a pure function of the key set —
//! independent of insertion order — and two versions of the tree that share
//! most of their data share most of their (content-addressed) nodes.
//!
//! This implementation makes the split decision from a per-entry key hash
//! (a simplification of ForkBase's rolling hash over the serialized entry
//! stream; see DESIGN.md). The properties the paper relies on are preserved:
//! structural invariance, node-level deduplication across versions, ordered
//! range scans, and Merkle proofs that are produced by the same traversal
//! that answers the query.
//!
//! Writes arrive as sorted batches ([`SiriIndex::try_apply`]): one descent
//! partitions the batch over the children of each internal node, rewrites
//! only the touched subtrees and re-splits each touched node once. The
//! ledger stores one index instance *per block*, and one such pass per
//! block writes exactly that instance's new nodes — the path shared by a
//! block's keys is written once, not once per key.

use std::sync::Arc;

use spitz_crypto::{sha256, Hash};
use spitz_storage::{Chunk, ChunkKind, ChunkStore, StorageError};

use crate::codec::{put_bytes, put_hash, put_u32, put_u64, Reader};
use crate::proof::{hash_index_node, IndexProof, MultiProof};
use crate::siri::{sorted_batch, IndexEntries, NodeTally, SiriIndex, SiriKind};

/// Expected (average) number of entries per node.
const AVG_FANOUT: u64 = 16;
/// Hard cap on entries per node; runs longer than this are force-split.
const MAX_NODE_ENTRIES: usize = 1024;

/// A child reference inside an internal node.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChildRef {
    /// Largest key stored in the child's subtree.
    max_key: Vec<u8>,
    /// Content address of the child node.
    hash: Hash,
    /// Number of entries in the child's subtree.
    count: u64,
}

/// Decoded node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    /// Level 0: sorted key/value entries.
    Leaf(Vec<(Vec<u8>, Vec<u8>)>),
    /// Level >= 1: sorted child references.
    Internal(u8, Vec<ChildRef>),
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Node::Leaf(entries) => {
                out.push(0u8);
                put_u32(&mut out, entries.len() as u32);
                for (k, v) in entries {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Node::Internal(level, children) => {
                out.push(*level);
                put_u32(&mut out, children.len() as u32);
                for child in children {
                    put_bytes(&mut out, &child.max_key);
                    put_hash(&mut out, &child.hash);
                    put_u64(&mut out, child.count);
                }
            }
        }
        out
    }

    fn decode(data: &[u8]) -> Option<Node> {
        let mut r = Reader::new(data);
        let level = r.u8()?;
        let count = r.u32()? as usize;
        if level == 0 {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let k = r.bytes()?.to_vec();
                let v = r.bytes()?.to_vec();
                entries.push((k, v));
            }
            if !r.is_exhausted() {
                return None;
            }
            Some(Node::Leaf(entries))
        } else {
            let mut children = Vec::with_capacity(count);
            for _ in 0..count {
                let max_key = r.bytes()?.to_vec();
                let hash = r.hash()?;
                let child_count = r.u64()?;
                children.push(ChildRef {
                    max_key,
                    hash,
                    count: child_count,
                });
            }
            if !r.is_exhausted() {
                return None;
            }
            Some(Node::Internal(level, children))
        }
    }

    fn children(self) -> Vec<Hash> {
        match self {
            Node::Leaf(_) => Vec::new(),
            Node::Internal(_, children) => children.into_iter().map(|c| c.hash).collect(),
        }
    }

    fn max_key(&self) -> Vec<u8> {
        match self {
            Node::Leaf(entries) => entries.last().map(|(k, _)| k.clone()).unwrap_or_default(),
            Node::Internal(_, children) => children
                .last()
                .map(|c| c.max_key.clone())
                .unwrap_or_default(),
        }
    }

    fn count(&self) -> u64 {
        match self {
            Node::Leaf(entries) => entries.len() as u64,
            Node::Internal(_, children) => children.iter().map(|c| c.count).sum(),
        }
    }
}

/// Content-defined split decision: an entry with this key ends a node at the
/// given level. Seeded per level so that leaf and internal splits are
/// independent.
/// Child node addresses of an encoded Pos-Tree node (empty for a leaf);
/// `None` when the payload does not decode as a Pos-Tree node.
pub(crate) fn node_children(payload: &[u8]) -> Option<Vec<Hash>> {
    Node::decode(payload).map(Node::children)
}

fn is_boundary(key: &[u8], level: u8) -> bool {
    let mut data = Vec::with_capacity(key.len() + 2);
    data.push(0xB0);
    data.push(level);
    data.extend_from_slice(key);
    sha256(&data).prefix_u64().is_multiple_of(AVG_FANOUT)
}

/// The Pattern-Oriented-Split Tree.
pub struct PosTree {
    store: Arc<dyn ChunkStore>,
    root: Hash,
    len: usize,
    written: NodeTally,
}

impl PosTree {
    /// Create an empty tree writing its nodes into `store`.
    pub fn new(store: Arc<dyn ChunkStore>) -> Self {
        PosTree {
            store,
            root: Hash::ZERO,
            len: 0,
            written: NodeTally::default(),
        }
    }

    /// Open the tree at an existing root. Returns `None` if the root node is
    /// not present in the store.
    pub fn open(store: Arc<dyn ChunkStore>, root: Hash) -> Option<Self> {
        if root.is_zero() {
            return Some(PosTree::new(store));
        }
        let node = load_node(&store, &root)?;
        let len = node.count() as usize;
        Some(PosTree {
            store,
            root,
            len,
            written: NodeTally::default(),
        })
    }

    /// The backing chunk store.
    pub fn store(&self) -> &Arc<dyn ChunkStore> {
        &self.store
    }

    /// Verify a point-lookup proof against a trusted root digest.
    pub fn verify_proof(root: Hash, key: &[u8], value: Option<&[u8]>, proof: &IndexProof) -> bool {
        if root.is_zero() {
            return value.is_none();
        }
        if !proof.verify_chain(root) {
            return false;
        }
        let Some(last) = proof.nodes.last() else {
            return false;
        };
        let Some(Node::Leaf(entries)) = Node::decode(last) else {
            return false;
        };
        let found = entries.iter().find(|(k, _)| k.as_slice() == key);
        match (found, value) {
            (Some((_, v)), Some(expected)) => v.as_slice() == expected,
            (None, None) => true,
            _ => false,
        }
    }

    /// Verify a **complete** range proof: the claimed entries must be
    /// exactly the tree's contents in `start <= key < end`. The verifier
    /// re-runs the same pruned descent the server's scan performed, using
    /// the revealed nodes as its node source: any child whose key span
    /// overlaps the range must be revealed (else the proof is rejected for
    /// omission), and the entries collected from the revealed leaves must
    /// equal the claimed entries byte for byte.
    pub fn verify_range_proof(
        root: Hash,
        start: &[u8],
        end: &[u8],
        entries: &[(Vec<u8>, Vec<u8>)],
        proof: &IndexProof,
    ) -> bool {
        if root.is_zero() || start >= end {
            return entries.is_empty();
        }
        let nodes: std::collections::HashMap<Hash, &[u8]> = proof
            .nodes
            .iter()
            .map(|n| (crate::proof::hash_index_node(n), n.as_slice()))
            .collect();
        let mut collected = Vec::new();
        if !collect_range(&nodes, &root, start, end, None, &mut collected) {
            return false;
        }
        collected == entries
    }

    fn save_node(&self, node: &Node) -> Result<(Hash, u64), StorageError> {
        let payload = node.encode();
        let count = node.count();
        let hash = self
            .written
            .put(&self.store, Chunk::new(ChunkKind::IndexNode, payload))?;
        Ok((hash, count))
    }

    /// Split a freshly modified node's entries at content-defined boundaries
    /// and persist the resulting nodes, returning their child references.
    fn persist_leaf_runs(
        &self,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    ) -> Result<Vec<ChildRef>, StorageError> {
        let mut out = Vec::new();
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let total = entries.len();
        for (i, (k, v)) in entries.into_iter().enumerate() {
            let boundary = is_boundary(&k, 0);
            current.push((k, v));
            let force = current.len() >= MAX_NODE_ENTRIES;
            let last = i + 1 == total;
            if (boundary || force) && !last {
                out.push(self.child_ref_for(Node::Leaf(std::mem::take(&mut current)))?);
            }
        }
        if !current.is_empty() {
            out.push(self.child_ref_for(Node::Leaf(current))?);
        }
        Ok(out)
    }

    fn persist_internal_runs(
        &self,
        level: u8,
        children: Vec<ChildRef>,
    ) -> Result<Vec<ChildRef>, StorageError> {
        let mut out = Vec::new();
        let mut current: Vec<ChildRef> = Vec::new();
        let total = children.len();
        for (i, child) in children.into_iter().enumerate() {
            let boundary = is_boundary(&child.max_key, level);
            current.push(child);
            let force = current.len() >= MAX_NODE_ENTRIES;
            let last = i + 1 == total;
            if (boundary || force) && !last {
                out.push(self.child_ref_for(Node::Internal(level, std::mem::take(&mut current)))?);
            }
        }
        if !current.is_empty() {
            out.push(self.child_ref_for(Node::Internal(level, current))?);
        }
        Ok(out)
    }

    fn child_ref_for(&self, node: Node) -> Result<ChildRef, StorageError> {
        let max_key = node.max_key();
        let (hash, count) = self.save_node(&node)?;
        Ok(ChildRef {
            max_key,
            hash,
            count,
        })
    }

    /// One copy-on-write pass over the subtree at `hash` for a sorted,
    /// duplicate-free `batch`: returns the replacement children for that
    /// node and its level, pushing onto `is_new`, in batch order, whether
    /// each key was absent. Only subtrees the batch touches are loaded, and
    /// every touched node is re-split and persisted once.
    fn apply_rec(
        &self,
        hash: &Hash,
        batch: IndexEntries,
        is_new: &mut Vec<bool>,
    ) -> Result<(Vec<ChildRef>, u8), StorageError> {
        let node = load_node(&self.store, hash).expect("pos-tree node missing from store");
        match node {
            Node::Leaf(entries) => {
                let mut merged = Vec::with_capacity(entries.len() + batch.len());
                let mut old = entries.into_iter().peekable();
                for (key, value) in batch {
                    while let Some(entry) = old.next_if(|(k, _)| *k < key) {
                        merged.push(entry);
                    }
                    is_new.push(old.next_if(|(k, _)| *k == key).is_none());
                    merged.push((key, value));
                }
                merged.extend(old);
                Ok((self.persist_leaf_runs(merged)?, 0))
            }
            Node::Internal(level, children) => {
                // Child `i` covers the keys in (max_key[i-1], max_key[i]];
                // the last child also takes everything above its max.
                let last = children.len() - 1;
                let mut batch = batch.into_iter().peekable();
                let mut spliced = Vec::with_capacity(children.len() + 1);
                for (i, child) in children.into_iter().enumerate() {
                    let mut part = Vec::new();
                    while let Some(write) = batch.next_if(|(k, _)| i == last || *k <= child.max_key)
                    {
                        part.push(write);
                    }
                    if part.is_empty() {
                        spliced.push(child);
                    } else {
                        spliced.extend(self.apply_rec(&child.hash, part, is_new)?.0);
                    }
                }
                Ok((self.persist_internal_runs(level, spliced)?, level))
            }
        }
    }

    fn find_leaf(
        &self,
        key: &[u8],
        proof: Option<&mut IndexProof>,
    ) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        if self.root.is_zero() {
            return None;
        }
        let mut proof = proof;
        let mut hash = self.root;
        loop {
            let chunk = self.store.get(&hash).ok()?;
            let payload = chunk.data().to_vec();
            let node = Node::decode(&payload)?;
            if let Some(p) = proof.as_deref_mut() {
                p.push_node(payload);
            }
            match node {
                Node::Leaf(entries) => return Some(entries),
                Node::Internal(_, children) => {
                    let idx = match children.binary_search_by(|c| c.max_key.as_slice().cmp(key)) {
                        Ok(i) => i,
                        Err(i) => i.min(children.len() - 1),
                    };
                    hash = children[idx].hash;
                }
            }
        }
    }

    fn range_rec(
        &self,
        hash: &Hash,
        start: &[u8],
        end: &[u8],
        min_key: Option<&[u8]>,
        out: &mut Vec<(Vec<u8>, Vec<u8>)>,
        proof: &mut Option<&mut IndexProof>,
    ) {
        let Ok(chunk) = self.store.get(hash) else {
            return;
        };
        let payload = chunk.data().to_vec();
        let Some(node) = Node::decode(&payload) else {
            return;
        };
        if let Some(p) = proof.as_deref_mut() {
            p.push_node(payload);
        }
        match node {
            Node::Leaf(entries) => {
                for (k, v) in entries {
                    if k.as_slice() >= start && k.as_slice() < end {
                        out.push((k, v));
                    }
                }
            }
            Node::Internal(_, children) => {
                let mut prev_max: Option<Vec<u8>> = min_key.map(|k| k.to_vec());
                for child in children {
                    // The child covers keys in (prev_max, child.max_key].
                    let covers_start = child.max_key.as_slice() >= start;
                    let covers_end = match &prev_max {
                        Some(p) => p.as_slice() < end,
                        None => true,
                    };
                    if covers_start && covers_end {
                        self.range_rec(&child.hash, start, end, prev_max.as_deref(), out, proof);
                    }
                    prev_max = Some(child.max_key.clone());
                }
            }
        }
    }

    /// Number of distinct index nodes reachable from the current root
    /// (diagnostic used by the node-sharing experiments).
    pub fn node_count(&self) -> usize {
        fn walk(
            store: &Arc<dyn ChunkStore>,
            hash: &Hash,
            seen: &mut std::collections::HashSet<Hash>,
        ) {
            if hash.is_zero() || !seen.insert(*hash) {
                return;
            }
            let Some(node) = load_node(store, hash) else {
                return;
            };
            if let Node::Internal(_, children) = node {
                for child in children {
                    walk(store, &child.hash, seen);
                }
            }
        }
        let mut seen = std::collections::HashSet::new();
        walk(&self.store, &self.root, &mut seen);
        seen.len()
    }
}

fn load_node(store: &Arc<dyn ChunkStore>, hash: &Hash) -> Option<Node> {
    let chunk = store.get_kind(hash, ChunkKind::IndexNode).ok()?;
    Node::decode(chunk.data())
}

/// Verify a batched multi-key proof: replay each key's root-to-leaf descent
/// over the revealed node set. Every revealed node must be consumed by at
/// least one key's walk — a spliced-in payload that no walk touches is
/// rejected even though it would not affect any individual path.
pub(crate) fn verify_multi_proof(
    root: Hash,
    items: &[(Vec<u8>, Option<Vec<u8>>)],
    proof: &MultiProof,
) -> bool {
    if items.is_empty() {
        return proof.is_empty();
    }
    if root.is_zero() {
        return items.iter().all(|(_, v)| v.is_none()) && proof.is_empty();
    }
    let map: std::collections::HashMap<Hash, (usize, &[u8])> = proof
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| (hash_index_node(n), (i, n.as_slice())))
        .collect();
    // Duplicate payloads collapse to one map entry, leaving the shadowed
    // index unused — rejected below, which keeps proofs canonical.
    let mut used = vec![false; proof.nodes.len()];
    for (key, claim) in items {
        let mut hash = root;
        // A legitimate walk visits each node at most once; more steps than
        // revealed nodes would mean a reference cycle.
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > proof.nodes.len() {
                return false;
            }
            let Some(&(idx, payload)) = map.get(&hash) else {
                return false;
            };
            used[idx] = true;
            let Some(node) = Node::decode(payload) else {
                return false;
            };
            match node {
                Node::Leaf(entries) => {
                    let found = entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                    if found != claim.as_ref() {
                        return false;
                    }
                    break;
                }
                Node::Internal(_, children) => {
                    if children.is_empty() {
                        return false;
                    }
                    let idx = match children.binary_search_by(|c| c.max_key.as_slice().cmp(key)) {
                        Ok(i) => i,
                        Err(i) => i.min(children.len() - 1),
                    };
                    hash = children[idx].hash;
                }
            }
        }
    }
    used.iter().all(|&u| u)
}

/// Client-side replay of [`PosTree::range_rec`] over the revealed proof
/// nodes: descend every child whose span `(prev_max, max_key]` overlaps
/// `[start, end)`, failing if a needed node was not revealed, and collect
/// the in-range leaf entries in key order.
fn collect_range(
    nodes: &std::collections::HashMap<Hash, &[u8]>,
    hash: &Hash,
    start: &[u8],
    end: &[u8],
    min_key: Option<&[u8]>,
    out: &mut Vec<(Vec<u8>, Vec<u8>)>,
) -> bool {
    let Some(payload) = nodes.get(hash) else {
        return false;
    };
    let Some(node) = Node::decode(payload) else {
        return false;
    };
    match node {
        Node::Leaf(entries) => {
            for (k, v) in entries {
                if k.as_slice() >= start && k.as_slice() < end {
                    out.push((k, v));
                }
            }
            true
        }
        Node::Internal(_, children) => {
            let mut prev_max: Option<Vec<u8>> = min_key.map(|k| k.to_vec());
            for child in children {
                let covers_start = child.max_key.as_slice() >= start;
                let covers_end = prev_max.as_deref().map(|p| p < end).unwrap_or(true);
                if covers_start
                    && covers_end
                    && !collect_range(nodes, &child.hash, start, end, prev_max.as_deref(), out)
                {
                    return false;
                }
                prev_max = Some(child.max_key);
            }
            true
        }
    }
}

impl SiriIndex for PosTree {
    fn kind(&self) -> SiriKind {
        SiriKind::PosTree
    }

    fn root(&self) -> Hash {
        self.root
    }

    fn len(&self) -> usize {
        self.len
    }

    fn try_apply(&mut self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Vec<bool>, StorageError> {
        let (batch, order) = sorted_batch(writes);
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let mut is_new = Vec::with_capacity(batch.len());
        let (refs, level) = if self.root.is_zero() {
            is_new.resize(batch.len(), true);
            (self.persist_leaf_runs(batch)?, 0)
        } else {
            self.apply_rec(&self.root, batch, &mut is_new)?
        };
        // Nothing is published until every node of the new version is
        // stored: a failure above leaves root and len as they were.
        self.root = self.collapse(refs, level + 1)?;
        self.len += is_new.iter().filter(|&&new| new).count();
        Ok(order.flags(&is_new))
    }

    fn node_writes(&self) -> (u64, u64) {
        self.written.get()
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let leaf = self.find_leaf(key, None)?;
        leaf.iter()
            .find(|(k, _)| k.as_slice() == key)
            .map(|(_, v)| v.clone())
    }

    fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexProof) {
        let mut proof = IndexProof::empty();
        let value = self.find_leaf(key, Some(&mut proof)).and_then(|leaf| {
            leaf.iter()
                .find(|(k, _)| k.as_slice() == key)
                .map(|(_, v)| v.clone())
        });
        (value, proof)
    }

    fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if !self.root.is_zero() && start < end {
            let mut no_proof: Option<&mut IndexProof> = None;
            self.range_rec(&self.root, start, end, None, &mut out, &mut no_proof);
        }
        out
    }

    fn range_with_proof(&self, start: &[u8], end: &[u8]) -> (Vec<(Vec<u8>, Vec<u8>)>, IndexProof) {
        let mut out = Vec::new();
        let mut proof = IndexProof::empty();
        if !self.root.is_zero() && start < end {
            let mut with_proof: Option<&mut IndexProof> = Some(&mut proof);
            self.range_rec(&self.root, start, end, None, &mut out, &mut with_proof);
        }
        (out, proof)
    }

    fn checkout(&self, root: Hash) -> Option<Box<dyn SiriIndex>> {
        PosTree::open(Arc::clone(&self.store), root).map(|t| Box::new(t) as Box<dyn SiriIndex>)
    }
}

impl PosTree {
    /// Collapse a list of sibling references into a single root by stacking
    /// internal levels until one node remains.
    fn collapse(&self, mut refs: Vec<ChildRef>, mut level: u8) -> Result<Hash, StorageError> {
        while refs.len() > 1 {
            refs = self.persist_internal_runs(level, refs)?;
            level += 1;
        }
        Ok(refs.pop().map(|r| r.hash).unwrap_or(Hash::ZERO))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use spitz_storage::InMemoryChunkStore;

    fn new_tree() -> PosTree {
        PosTree::new(InMemoryChunkStore::shared())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    #[test]
    fn empty_tree_behaviour() {
        let tree = new_tree();
        assert_eq!(tree.root(), Hash::ZERO);
        assert_eq!(tree.len(), 0);
        assert!(tree.is_empty());
        assert_eq!(tree.get(b"missing"), None);
        let (v, proof) = tree.get_with_proof(b"missing");
        assert!(v.is_none());
        assert!(PosTree::verify_proof(Hash::ZERO, b"missing", None, &proof));
        assert!(tree.range(b"a", b"z").is_empty());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut tree = new_tree();
        for i in 0..500u32 {
            tree.insert(key(i), value(i));
        }
        assert_eq!(tree.len(), 500);
        for i in 0..500u32 {
            assert_eq!(tree.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(tree.get(b"not-there"), None);
    }

    #[test]
    fn overwrite_updates_value_without_growing() {
        let mut tree = new_tree();
        tree.insert(b"k".to_vec(), b"v1".to_vec());
        tree.insert(b"k".to_vec(), b"v2".to_vec());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn structural_invariance_under_insertion_order() {
        let keys: Vec<u32> = (0..400).collect();
        let mut rng = StdRng::seed_from_u64(11);

        let mut t1 = new_tree();
        for &i in &keys {
            t1.insert(key(i), value(i));
        }

        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut rng);
        let mut t2 = new_tree();
        for &i in &shuffled {
            t2.insert(key(i), value(i));
        }

        assert_eq!(t1.root(), t2.root());
        assert_eq!(t1.len(), t2.len());
    }

    #[test]
    fn node_sharing_between_versions() {
        let store = InMemoryChunkStore::shared();
        let mut tree = PosTree::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        for i in 0..2000u32 {
            tree.insert(key(i), value(i));
        }
        let root_v1 = tree.root();
        let nodes_before = tree.node_count();
        let physical_before = store.stats().physical_bytes;

        tree.insert(key(999_999), value(7));
        let root_v2 = tree.root();
        assert_ne!(root_v1, root_v2);

        // Only a root-to-leaf path of nodes should be new.
        let physical_after = store.stats().physical_bytes;
        let added = physical_after - physical_before;
        assert!(
            added < physical_before / 10,
            "one insert must not rewrite the tree: added {added} of {physical_before}"
        );

        // The old version can still be opened and read in full.
        let old = PosTree::open(Arc::clone(&store) as Arc<dyn ChunkStore>, root_v1).unwrap();
        assert_eq!(old.len(), 2000);
        assert_eq!(old.get(&key(999_999)), None);
        assert_eq!(old.get(&key(42)), Some(value(42)));
        assert!(nodes_before > 10);
    }

    #[test]
    fn point_proofs_verify_and_detect_tampering() {
        let mut tree = new_tree();
        for i in 0..300u32 {
            tree.insert(key(i), value(i));
        }
        let root = tree.root();

        let (v, proof) = tree.get_with_proof(&key(123));
        assert_eq!(v, Some(value(123)));
        assert!(PosTree::verify_proof(root, &key(123), v.as_deref(), &proof));
        // Claiming a different value must fail.
        assert!(!PosTree::verify_proof(
            root,
            &key(123),
            Some(b"forged"),
            &proof
        ));
        // Claiming absence of a present key must fail.
        assert!(!PosTree::verify_proof(root, &key(123), None, &proof));
        // Verifying against a different root must fail.
        assert!(!PosTree::verify_proof(
            sha256(b"other"),
            &key(123),
            v.as_deref(),
            &proof
        ));

        // Absence proof for a missing key.
        let (none, absence) = tree.get_with_proof(b"zzz-not-present");
        assert!(none.is_none());
        assert!(PosTree::verify_proof(
            root,
            b"zzz-not-present",
            None,
            &absence
        ));
        assert!(!PosTree::verify_proof(
            root,
            b"zzz-not-present",
            Some(b"x"),
            &absence
        ));
    }

    #[test]
    fn range_scan_returns_sorted_window() {
        let mut tree = new_tree();
        for i in 0..1000u32 {
            tree.insert(key(i), value(i));
        }
        let start = key(100);
        let end = key(200);
        let result = tree.range(&start, &end);
        assert_eq!(result.len(), 100);
        assert!(result.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(result[0].0, key(100));
        assert_eq!(result.last().unwrap().0, key(199));

        // Empty and inverted ranges.
        assert!(tree.range(&end, &start).is_empty());
        assert!(tree.range(b"zzzz", b"zzzzz").is_empty());
    }

    #[test]
    fn range_proofs_cover_all_returned_entries() {
        let mut tree = new_tree();
        for i in 0..800u32 {
            tree.insert(key(i), value(i));
        }
        let root = tree.root();
        let (start, end) = (key(300), key(340));
        let (entries, proof) = tree.range_with_proof(&start, &end);
        assert_eq!(entries.len(), 40);
        assert!(PosTree::verify_range_proof(
            root, &start, &end, &entries, &proof
        ));

        // Tampering with a returned value breaks verification.
        let mut forged = entries.clone();
        forged[0].1 = b"forged".to_vec();
        assert!(!PosTree::verify_range_proof(
            root, &start, &end, &forged, &proof
        ));
        // Omitting an entry breaks verification (completeness).
        let mut truncated = entries.clone();
        truncated.remove(17);
        assert!(!PosTree::verify_range_proof(
            root, &start, &end, &truncated, &proof
        ));
        // Smuggling an extra entry breaks verification.
        let mut padded = entries.clone();
        padded.push((key(500), value(500)));
        assert!(!PosTree::verify_range_proof(
            root, &start, &end, &padded, &proof
        ));
        // Wrong root breaks verification.
        assert!(!PosTree::verify_range_proof(
            sha256(b"bad"),
            &start,
            &end,
            &entries,
            &proof
        ));
        // Narrowing the claimed bounds must not let a shorter result pass.
        assert!(!PosTree::verify_range_proof(
            root,
            &key(301),
            &end,
            &entries,
            &proof
        ));
    }

    #[test]
    fn checkout_reopens_historical_roots() {
        let store = InMemoryChunkStore::shared();
        let mut tree = PosTree::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        tree.insert(b"a".to_vec(), b"1".to_vec());
        let root1 = tree.root();
        tree.insert(b"b".to_vec(), b"2".to_vec());

        let old = tree.checkout(root1).unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(old.get(b"b"), None);
        assert!(tree.checkout(sha256(b"unknown")).is_none());
    }

    #[test]
    fn large_tree_proof_depth_is_logarithmic() {
        let mut tree = new_tree();
        for i in 0..5000u32 {
            tree.insert(key(i), value(i));
        }
        let (_, proof) = tree.get_with_proof(&key(2500));
        assert!(proof.len() >= 2, "tree of 5000 should have depth >= 2");
        assert!(
            proof.len() <= 8,
            "depth should stay logarithmic, got {}",
            proof.len()
        );
    }
}
