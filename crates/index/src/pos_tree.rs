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
//! stream). The properties the paper relies on are preserved: structural
//! invariance, node-level deduplication across versions, ordered range
//! scans, and Merkle proofs that are produced by the same traversal that
//! answers the query.
//!
//! Writes arrive as sorted batches ([`SiriIndex::try_apply`]): one descent
//! partitions the batch over the children of each internal node, rewrites
//! only the touched subtrees and re-splits each touched node once. The
//! ledger stores one index instance *per block*, and one such pass per
//! block writes exactly that instance's new nodes — the path shared by a
//! block's keys is written once, not once per key.
//!
//! # Node geometry: why the average node holds 8 entries
//!
//! A key ends a node with probability `1 / AVG_FANOUT`, so node lengths are
//! geometric with mean `F = AVG_FANOUT` — but the node a *given key* sits
//! in is not an average node. A key is `L` times as likely to fall into a
//! node of `L` entries as into a node of one, and the size-biased mean of
//! a geometric length is `2F - 1`: 31 entries at `F = 16`, 15 at `F = 8`.
//! That node is what every step of a point proof reveals and what every
//! put rewrites, values and all, so halving `F` takes a third off both
//! (the tree gets one or two levels deeper; the nodes get more than
//! proportionally smaller). Measured by `benchmark/` on the default 4-shard
//! database with 128-byte values (medians of ten alternating pairs, seeds
//! 1–10, fan-out 16 → 8; node encodings are unchanged, so a store written
//! at 16 is read as it is, and a rewritten node keeps its old boundaries —
//! see `is_boundary`):
//!
//! | workload | `wire_bytes_per_op` | `stored_bytes_per_user_byte` | `ops_per_s` |
//! |---|---:|---:|---:|
//! | `point_verified` | 17 707 → 11 622 | 3.116 → 3.012 | 7 570 → 9 965 |
//! | `served_mixed` | 23 648 → 15 748 | 15.98 → 13.27 | 3 612 → 4 548 |
//! | `ingest_durable` | 137.7 → 137.7 | 29.92 → 21.37 | 1 904 → 2 170 |
//! | `scan_verified` | 175 666 → 101 064 | 3.116 → 3.012 | 1 564 → 1 504 |
//!
//! A point proof falls from ~7.9 KB to ~5.4 KB over 6 nodes instead of 4,
//! a served put from ~7.85 KB of rewritten path to ~4.9 KB. Smaller still
//! was measured and not taken: at 6 and 4 the durable store's in-memory
//! chunk index, which grows with the chunk count, costs +31 % and +38 %
//! peak memory on `ingest_durable` (+18 % at 8), and at 4 a 500-entry scan
//! is a third slower (at 8 it fetches 62 leaves where it fetched 31, which
//! alone costs 12 %; 4 % once its proof stops repeating the answer).
//! The next step in this direction is not a smaller constant but a Merkle
//! tree inside each node (ROADMAP item 3).
//!
//! # What a range proof carries
//!
//! A scan of `[start, end)` reveals the root and every internal node it
//! descends through. A leaf never travels whole: its entries in the range
//! are in the answer already, so the proof carries only what the client
//! cannot compute from the answer.
//!
//! - A leaf whose key span `(lower, max_key]` — revealed by its parent —
//!   lies wholly inside the range is **covered** and is not in the proof
//!   at all. The parent commits to the leaf's content address and entry
//!   count, so the verifier takes the next `count` claimed entries, checks
//!   they lie in the range, encodes them as a leaf and requires the hash of
//!   that encoding to be the address the parent holds.
//! - Every other leaf the scan visits straddles `start` or `end`: at most
//!   two per scan, one when the root is a leaf. It is revealed as the
//!   leaf encoding of **only its out-of-range entries**: those below
//!   `start`, then those at or after `end`. The verifier takes
//!   `count − shipped` claimed entries (every one left, for a root leaf),
//!   rejects a shipped entry that lies in the range, rebuilds
//!   `below-start ++ claimed ++ at-or-after-end` and checks its hash the
//!   same way. A boundary leaf whose entries all happen to be in the range
//!   ships as an empty leaf (5 bytes).
//!
//! Which leaves are covered is decided from the spans alone, never from
//! entries, so the server and the verifier agree before either looks
//! inside a leaf. Shipping straddling leaves whole sent their in-range
//! entries twice: 7.5–7.7 % of the bytes of a verified 500-entry scan over
//! four shards (`scan_verified`, ~101.0 KB → ~93.4 KB, seeds 1–3).
//! Shipping covered leaves as well sent every entry twice (210 proof bytes
//! per 141-byte entry). Nodes above leaf level are never rebuilt, the
//! descent consumes the revealed nodes strictly in scan order, and anything
//! left over — a spliced, repeated or reordered node, or a covered leaf
//! revealed anyway — is a rejection, as are claimed entries no leaf
//! accounts for (see [`crate::siri::verify_range_proof`]).

use std::borrow::Borrow;
use std::sync::Arc;

use spitz_crypto::{Hash, Sha256};
use spitz_storage::{Chunk, ChunkKind, ChunkStore, StorageError};

use crate::codec::{put_bytes, put_hash, put_u32, put_u64, Reader};
use crate::proof::{hash_index_node, IndexProof};
use crate::siri::{sorted_batch, IndexEntries, NodeTally, SiriIndex, SiriKind};

/// Expected (average) number of entries per node, at every level; see the
/// module docs for why it is 8.
const AVG_FANOUT: u64 = 8;
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
    /// Level >= 1: sorted child references. The children of a level-1 node
    /// are leaves.
    Internal(u8, Vec<ChildRef>),
}

/// The encoding of a leaf holding `entries`, in the order given.
fn encode_leaf<'e>(entries: impl IntoIterator<Item = &'e (Vec<u8>, Vec<u8>)>) -> Vec<u8> {
    let mut out = vec![0u8];
    put_u32(&mut out, 0);
    let mut count = 0u32;
    for (k, v) in entries {
        put_bytes(&mut out, k);
        put_bytes(&mut out, v);
        count += 1;
    }
    // The count precedes the entries; `put_u32` wrote its placeholder.
    out[1..5].copy_from_slice(&count.to_be_bytes());
    out
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        match self {
            Node::Leaf(entries) => encode_leaf(entries),
            Node::Internal(level, children) => {
                let mut out = vec![*level];
                put_u32(&mut out, children.len() as u32);
                for child in children {
                    put_bytes(&mut out, &child.max_key);
                    put_hash(&mut out, &child.hash);
                    put_u64(&mut out, child.count);
                }
                out
            }
        }
    }

    fn decode(data: &[u8]) -> Option<Node> {
        let mut r = Reader::new(data);
        let level = r.u8()?;
        // A leaf entry or a child reference takes at least 8 bytes.
        let count = r.count(8)?;
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

/// The child of an internal node a lookup of `key` descends into: child
/// `i` covers the keys in `(max_key[i-1], max_key[i]]` and the last child
/// also takes everything above its max. `None` for a node without children.
fn child_for<'a>(children: &'a [ChildRef], key: &[u8]) -> Option<&'a ChildRef> {
    let idx = children.partition_point(|c| c.max_key.as_slice() < key);
    children.get(idx).or(children.last())
}

/// The value a leaf's entries hold for `key`.
fn value_of<'a>(entries: &'a [(Vec<u8>, Vec<u8>)], key: &[u8]) -> Option<&'a [u8]> {
    entries
        .iter()
        .find(|(k, _)| k.as_slice() == key)
        .map(|(_, v)| v.as_slice())
}

fn in_range(key: &[u8], start: &[u8], end: &[u8]) -> bool {
    key >= start && key < end
}

/// The children of an internal node whose key span `(lower, max_key]` can
/// hold a key of `[start, end)`, each with that exclusive lower bound
/// (`min_key` for the first child: the bound the node itself inherited).
/// Range scans and their verifier descend exactly these.
fn overlapping<'a>(
    children: &'a [ChildRef],
    min_key: Option<&'a [u8]>,
    start: &'a [u8],
    end: &'a [u8],
) -> impl Iterator<Item = (&'a ChildRef, Option<&'a [u8]>)> {
    children
        .iter()
        .enumerate()
        .map(move |(i, child)| match i {
            0 => (child, min_key),
            _ => (child, Some(children[i - 1].max_key.as_slice())),
        })
        .filter(move |(child, lower)| {
            child.max_key.as_slice() >= start && lower.is_none_or(|lower| lower < end)
        })
}

/// True when every key the child's span `(lower, max_key]` can hold lies in
/// `[start, end)`: a leaf child like that is covered by the scan and
/// travels in the answer only. Decided from the span its parent reveals,
/// never from entries, so the server and the verifier agree.
fn covers(child: &ChildRef, lower: Option<&[u8]>, start: &[u8], end: &[u8]) -> bool {
    (start.is_empty() || lower.is_some_and(|lower| start <= lower))
        && child.max_key.as_slice() < end
}

/// Child node addresses of an encoded Pos-Tree node (empty for a leaf);
/// `None` when the payload does not decode as a Pos-Tree node.
pub(crate) fn node_children(payload: &[u8]) -> Option<Vec<Hash>> {
    Node::decode(payload).map(Node::children)
}

/// Content-defined split decision: an entry with this key ends a node at the
/// given level. Seeded per level so that leaf and internal splits are
/// independent.
///
/// Every stored node is cut by [`split_runs`], which ends a node at its
/// first boundary, so **no non-last entry of a stored node is a boundary at
/// its level**. A re-split leans on that invariant and hashes only the
/// entries whose answer it does not already know: new keys, a node's old
/// last entry, and a rewritten child whose `max_key` moved. (A store
/// written under another split rule, such as an older fan-out, keeps its
/// old node boundaries where they differ; its nodes stay valid and
/// searchable.)
fn is_boundary(key: &[u8], level: u8) -> bool {
    #[cfg(test)]
    tests::BOUNDARY_TESTS.with(|calls| calls.set(calls.get() + 1));
    let mut hasher = Sha256::new();
    hasher.update(&[0xB0, level]);
    hasher.update(key);
    hasher.finalize().prefix_u64().is_multiple_of(AVG_FANOUT)
}

/// Cut `items` into runs, each ending at a content-defined boundary at
/// `level` (or at `MAX_NODE_ENTRIES`); the last item closes the last run
/// whatever it is, so it is never tested. `settled[i]` marks item `i` as
/// known not to be a boundary at this level (see [`is_boundary`]), which
/// skips its hash; items past the end of `settled` are tested.
fn split_runs<T>(
    items: Vec<T>,
    settled: &[bool],
    level: u8,
    key: impl Fn(&T) -> &[u8],
) -> Vec<Vec<T>> {
    let total = items.len();
    let mut runs = Vec::new();
    let mut current = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        let ends = i + 1 < total
            && (current.len() + 1 >= MAX_NODE_ENTRIES
                || (!settled.get(i).copied().unwrap_or(false) && is_boundary(key(&item), level)));
        current.push(item);
        if ends {
            runs.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        runs.push(current);
    }
    runs
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

    /// Verify a point-lookup proof against a trusted root digest: the
    /// revealed nodes must be exactly the lookup's own descent — the first
    /// hashes to the root, each next one is the child the key's search
    /// picks in the one before, and the last is the leaf that decides the
    /// claim. A path to any other leaf proves nothing about `key`.
    pub fn verify_proof(root: Hash, key: &[u8], value: Option<&[u8]>, proof: &IndexProof) -> bool {
        if root.is_zero() {
            return value.is_none();
        }
        let mut expected = root;
        let mut nodes = proof.nodes.iter();
        while let Some(payload) = nodes.next() {
            if hash_index_node(payload) != expected {
                return false;
            }
            match Node::decode(payload) {
                Some(Node::Leaf(entries)) => {
                    return value_of(&entries, key) == value && nodes.next().is_none()
                }
                Some(Node::Internal(_, children)) => match child_for(&children, key) {
                    Some(child) => expected = child.hash,
                    None => return false,
                },
                None => return false,
            }
        }
        false
    }

    /// Verify a **complete** range proof: the claimed entries must be
    /// exactly the tree's contents in `start <= key < end`. The verifier
    /// re-runs the pruned descent the server's scan performed, over the
    /// revealed nodes in the order the scan visited them: every child whose
    /// key span overlaps the range must be accounted for. The root and
    /// every internal node are revealed whole. A leaf is rebuilt from the
    /// claimed entries and matched against the hash its parent (or the
    /// root) commits to: a covered leaf from the next `count` of them, a
    /// leaf astride `start` or `end` from the out-of-range entries the proof
    /// ships for it with the claimed ones in between (see the module docs).
    /// The proof is rejected when a needed node is missing, when a node is
    /// revealed that the descent does not consume next (spliced,
    /// duplicated, reordered, or a covered leaf shipped anyway), when a
    /// shipped leaf holds an entry of the range, or when the claimed
    /// entries are not used up exactly.
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
        let mut replay = RangeReplay {
            start,
            end,
            nodes: &proof.nodes,
            next: 0,
            claimed: entries,
        };
        replay.visit(&root, None, None)
            && replay.next == proof.nodes.len()
            && replay.claimed.is_empty()
    }

    fn save_node(&self, node: &Node) -> Result<(Hash, u64), StorageError> {
        let payload = node.encode();
        let count = node.count();
        let hash = self
            .written
            .put(&self.store, Chunk::new(ChunkKind::IndexNode, payload))?;
        Ok((hash, count))
    }

    /// Split a freshly modified leaf's entries at content-defined
    /// boundaries and persist the resulting nodes, returning their child
    /// references; `settled` as in [`split_runs`].
    fn persist_leaf_runs(
        &self,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        settled: &[bool],
    ) -> Result<Vec<ChildRef>, StorageError> {
        split_runs(entries, settled, 0, |(k, _)| k)
            .into_iter()
            .map(|run| self.child_ref_for(Node::Leaf(run)))
            .collect()
    }

    /// [`Self::persist_leaf_runs`] for the children of a level-`level` node.
    fn persist_internal_runs(
        &self,
        level: u8,
        children: Vec<ChildRef>,
        settled: &[bool],
    ) -> Result<Vec<ChildRef>, StorageError> {
        split_runs(children, settled, level, |c| &c.max_key)
            .into_iter()
            .map(|run| self.child_ref_for(Node::Internal(level, run)))
            .collect()
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
                // Only the old last entry and inserted keys can be
                // boundaries; an updated key keeps its entry's status.
                let old_last = entries.len().saturating_sub(1);
                let mut merged = Vec::with_capacity(entries.len() + batch.len());
                let mut settled = Vec::with_capacity(entries.len() + batch.len());
                let mut old = entries.into_iter().enumerate().peekable();
                for (key, value) in batch {
                    while let Some((i, entry)) = old.next_if(|(_, (k, _))| *k < key) {
                        settled.push(i != old_last);
                        merged.push(entry);
                    }
                    let replaced = old.next_if(|(_, (k, _))| *k == key);
                    is_new.push(replaced.is_none());
                    settled.push(replaced.is_some_and(|(i, _)| i != old_last));
                    merged.push((key, value));
                }
                for (i, entry) in old {
                    settled.push(i != old_last);
                    merged.push(entry);
                }
                Ok((self.persist_leaf_runs(merged, &settled)?, 0))
            }
            Node::Internal(level, children) => {
                // Child `i` covers the keys in (max_key[i-1], max_key[i]];
                // the last child also takes everything above its max. A
                // non-last child is settled, and so is the replacement that
                // still ends at its max key.
                let last = children.len() - 1;
                let mut batch = batch.into_iter().peekable();
                let mut spliced = Vec::with_capacity(children.len() + 1);
                let mut settled = Vec::with_capacity(children.len() + 1);
                for (i, child) in children.into_iter().enumerate() {
                    let mut part = Vec::new();
                    while let Some(write) = batch.next_if(|(k, _)| i == last || *k <= child.max_key)
                    {
                        part.push(write);
                    }
                    if part.is_empty() {
                        settled.push(i != last);
                        spliced.push(child);
                    } else {
                        for new in self.apply_rec(&child.hash, part, is_new)?.0 {
                            settled.push(i != last && new.max_key == child.max_key);
                            spliced.push(new);
                        }
                    }
                }
                Ok((self.persist_internal_runs(level, spliced, &settled)?, level))
            }
        }
    }

    /// Walk from the root to the leaf whose span holds `key` and return its
    /// entries. Nodes are decoded where the store holds them; a payload is
    /// copied only into a proof.
    fn find_leaf(
        &self,
        key: &[u8],
        mut proof: Option<&mut IndexProof>,
    ) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
        if self.root.is_zero() {
            return None;
        }
        let mut hash = self.root;
        loop {
            let chunk = self.store.get(&hash).ok()?;
            let node = Node::decode(chunk.data())?;
            if let Some(p) = proof.as_deref_mut() {
                p.push_node(chunk.data().to_vec());
            }
            match node {
                Node::Leaf(entries) => return Some(entries),
                Node::Internal(_, children) => hash = child_for(&children, key)?.hash,
            }
        }
    }

    /// Collect the entries of `[start, end)` under `hash` in key order.
    /// With a proof, every visited internal node is revealed whole and a
    /// visited leaf as its out-of-range entries only, except a covered
    /// leaf (see [`covers`]), which is not revealed at all. The verifier
    /// rebuilds each leaf from the answer and what was revealed of it.
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
        let Some(node) = Node::decode(chunk.data()) else {
            return;
        };
        match node {
            Node::Leaf(entries) => match proof.as_deref_mut() {
                Some(p) => {
                    let (inside, outside): (Vec<_>, Vec<_>) = entries
                        .into_iter()
                        .partition(|(k, _)| in_range(k, start, end));
                    p.push_node(encode_leaf(&outside));
                    out.extend(inside);
                }
                None => out.extend(entries.into_iter().filter(|(k, _)| in_range(k, start, end))),
            },
            Node::Internal(level, children) => {
                if let Some(p) = proof.as_deref_mut() {
                    p.push_node(chunk.data().to_vec());
                }
                for (child, lower) in overlapping(&children, min_key, start, end) {
                    if level == 1 && covers(child, lower, start, end) {
                        self.range_rec(&child.hash, start, end, lower, out, &mut None);
                    } else {
                        self.range_rec(&child.hash, start, end, lower, out, proof);
                    }
                }
            }
        }
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
    proof: &IndexProof,
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
            match Node::decode(payload) {
                Some(Node::Leaf(entries)) if value_of(&entries, key) == claim.as_deref() => break,
                Some(Node::Internal(_, children)) => match child_for(&children, key) {
                    Some(child) => hash = child.hash,
                    None => return false,
                },
                _ => return false,
            }
        }
    }
    used.iter().all(|&u| u)
}

/// Client-side replay of [`PosTree::range_rec`]: the same descent, fed by
/// the revealed nodes in scan order and by the claimed entries.
struct RangeReplay<'a, E> {
    start: &'a [u8],
    end: &'a [u8],
    /// The revealed node payloads, in the order the scan visited them;
    /// `next` is the first one not yet consumed.
    nodes: &'a [Vec<u8>],
    next: usize,
    /// The claimed entries not yet accounted for by a leaf.
    claimed: &'a [E],
}

impl<'a, E: Borrow<(Vec<u8>, Vec<u8>)>> RangeReplay<'a, E> {
    /// Take the next `count` claimed entries, if there are that many.
    fn claim(&mut self, count: usize) -> Option<&'a [E]> {
        let (run, rest) = self.claimed.split_at_checked(count)?;
        self.claimed = rest;
        Some(run)
    }

    /// Account for the node at `hash`, which must be the next revealed one:
    /// an internal node, revealed whole, or a leaf, revealed as its
    /// out-of-range entries. `count` is the entry count the parent commits
    /// to for it (`None` at the root).
    fn visit(&mut self, hash: &Hash, min_key: Option<&[u8]>, count: Option<u64>) -> bool {
        let Some(payload) = self.nodes.get(self.next) else {
            return false;
        };
        self.next += 1;
        match Node::decode(payload) {
            Some(Node::Leaf(shipped)) => self.rebuild(hash, &shipped, count),
            Some(Node::Internal(level, children)) => {
                hash_index_node(payload) == *hash
                    && overlapping(&children, min_key, self.start, self.end).all(
                        |(child, lower)| {
                            if level == 1 && covers(child, lower, self.start, self.end) {
                                self.rebuild(&child.hash, &[], Some(child.count))
                            } else {
                                self.visit(&child.hash, lower, Some(child.count))
                            }
                        },
                    )
            }
            None => false,
        }
    }

    /// Rebuild the leaf at `hash` from the entries the proof `shipped` for
    /// it — those below `start`, then those at or after `end`, none in the
    /// range — with claimed entries, all in the range, in between: `count`
    /// minus the shipped ones, or every claimed entry left for a root leaf
    /// (`count` is `None`). The encoding must hash to `hash`.
    fn rebuild(&mut self, hash: &Hash, shipped: &[(Vec<u8>, Vec<u8>)], count: Option<u64>) -> bool {
        let below = shipped
            .iter()
            .take_while(|(k, _)| k.as_slice() < self.start)
            .count();
        let (below, above) = shipped.split_at(below);
        if !above.iter().all(|(k, _)| k.as_slice() >= self.end) {
            return false;
        }
        let take = match count {
            Some(count) => usize::try_from(count)
                .ok()
                .and_then(|count| count.checked_sub(shipped.len())),
            None => Some(self.claimed.len()),
        };
        let Some(run) = take.and_then(|n| self.claim(n)) else {
            return false;
        };
        let run = run.iter().map(Borrow::borrow);
        run.clone().all(|(k, _)| in_range(k, self.start, self.end))
            && hash_index_node(&encode_leaf(below.iter().chain(run).chain(above))) == *hash
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
            (self.persist_leaf_runs(batch, &[])?, 0)
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
        value_of(&leaf, key).map(<[u8]>::to_vec)
    }

    fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexProof) {
        let mut proof = IndexProof::empty();
        let value = self
            .find_leaf(key, Some(&mut proof))
            .and_then(|leaf| value_of(&leaf, key).map(<[u8]>::to_vec));
        (value, proof)
    }

    fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if !self.root.is_zero() && start < end {
            self.range_rec(&self.root, start, end, None, &mut out, &mut None);
        }
        out
    }

    fn range_with_proof(&self, start: &[u8], end: &[u8]) -> (Vec<(Vec<u8>, Vec<u8>)>, IndexProof) {
        let mut out = Vec::new();
        let mut proof = IndexProof::empty();
        if !self.root.is_zero() && start < end {
            self.range_rec(
                &self.root,
                start,
                end,
                None,
                &mut out,
                &mut Some(&mut proof),
            );
        }
        (out, proof)
    }

    fn checkout(&self, root: Hash) -> Option<Box<dyn SiriIndex>> {
        if root == self.root {
            return Some(Box::new(PosTree {
                store: Arc::clone(&self.store),
                root,
                len: self.len,
                written: NodeTally::default(),
            }));
        }
        PosTree::open(Arc::clone(&self.store), root).map(|t| Box::new(t) as Box<dyn SiriIndex>)
    }
}

impl PosTree {
    /// Collapse a list of sibling references into a single root by stacking
    /// internal levels until one node remains.
    fn collapse(&self, mut refs: Vec<ChildRef>, mut level: u8) -> Result<Hash, StorageError> {
        while refs.len() > 1 {
            refs = self.persist_internal_runs(level, refs, &[])?;
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
    use spitz_crypto::sha256;
    use spitz_storage::InMemoryChunkStore;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// `is_boundary` calls made on this thread.
        pub(super) static BOUNDARY_TESTS: Cell<u64> = const { Cell::new(0) };
    }

    fn new_tree() -> PosTree {
        PosTree::new(InMemoryChunkStore::shared())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    impl PosTree {
        /// Number of distinct index nodes reachable from the current root
        /// (the node-sharing test).
        fn node_count(&self) -> usize {
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

        /// Every node a scan of `[start, end)` visits, covered leaves
        /// included: what a range proof carried before they were omitted.
        fn collect_visited(
            &self,
            hash: &Hash,
            start: &[u8],
            end: &[u8],
            min_key: Option<&[u8]>,
            visited: &mut IndexProof,
        ) {
            let payload = self.store.get(hash).unwrap().data().to_vec();
            let node = Node::decode(&payload).unwrap();
            visited.push_node(payload);
            if let Node::Internal(_, children) = node {
                for (child, lower) in overlapping(&children, min_key, start, end) {
                    self.collect_visited(&child.hash, start, end, lower, visited);
                }
            }
        }
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
            tree.try_insert(key(i), value(i)).unwrap();
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
        tree.try_insert(b"k".to_vec(), b"v1".to_vec()).unwrap();
        tree.try_insert(b"k".to_vec(), b"v2".to_vec()).unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn structural_invariance_under_insertion_order() {
        let keys: Vec<u32> = (0..400).collect();
        let mut rng = StdRng::seed_from_u64(11);

        let mut t1 = new_tree();
        for &i in &keys {
            t1.try_insert(key(i), value(i)).unwrap();
        }

        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut rng);
        let mut t2 = new_tree();
        for &i in &shuffled {
            t2.try_insert(key(i), value(i)).unwrap();
        }

        assert_eq!(t1.root(), t2.root());
        assert_eq!(t1.len(), t2.len());
    }

    #[test]
    fn node_sharing_between_versions() {
        let store = InMemoryChunkStore::shared();
        let mut tree = PosTree::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        for i in 0..2000u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root_v1 = tree.root();
        let nodes_before = tree.node_count();
        let physical_before = store.stats().physical_bytes;

        tree.try_insert(key(999_999), value(7)).unwrap();
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
            tree.try_insert(key(i), value(i)).unwrap();
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
            tree.try_insert(key(i), value(i)).unwrap();
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
            tree.try_insert(key(i), value(i)).unwrap();
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

    /// A proof is the key's own descent: a path to the neighbouring leaf,
    /// which really does not hold the key, is not a proof of its absence.
    #[test]
    fn a_path_to_another_leaf_proves_nothing_about_the_key() {
        let mut tree = new_tree();
        for i in 0..300u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root = tree.root();
        let (_, own) = tree.get_with_proof(&key(123));
        let other = (0..300u32)
            .map(|i| tree.get_with_proof(&key(i)).1)
            .find(|proof| proof.nodes.last() != own.nodes.last())
            .expect("300 keys fill more than one leaf");
        assert!(!PosTree::verify_proof(root, &key(123), None, &other));
        // Nor does a proof that runs on past the deciding leaf.
        let mut padded = own.clone();
        padded.push_node(other.nodes.last().unwrap().clone());
        assert!(!PosTree::verify_proof(
            root,
            &key(123),
            Some(&value(123)),
            &padded
        ));
    }

    /// Against a non-empty tree a proof is the whole descent or nothing:
    /// no nodes, a path cut short of its leaf, a path that does not start
    /// at the root and a path with a broken link all fail, for a present
    /// key and for an absent one.
    #[test]
    fn an_empty_truncated_or_unrooted_point_proof_is_rejected() {
        let mut tree = new_tree();
        for i in 0..300u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let root = tree.root();
        for (k, claim) in [(key(123), Some(value(123))), (key(123_456), None)] {
            let (found, proof) = tree.get_with_proof(&k);
            assert_eq!(found, claim);
            assert!(proof.len() >= 3, "300 keys make a tree of three levels");
            let verify = |nodes: &[Vec<u8>], claim: Option<&[u8]>| {
                let nodes = nodes.to_vec();
                PosTree::verify_proof(root, &k, claim, &IndexProof { nodes })
            };
            assert!(verify(&proof.nodes, claim.as_deref()));
            // Cut anywhere before the leaf, down to no nodes at all: neither
            // the honest claim nor a claim of absence passes.
            for cut in 0..proof.len() {
                assert!(!verify(&proof.nodes[..cut], claim.as_deref()), "{cut}");
                assert!(!verify(&proof.nodes[..cut], None), "cut {cut}");
            }
            // The first node must hash to the trusted root.
            assert!(!verify(&proof.nodes[1..], claim.as_deref()));
            assert!(!PosTree::verify_proof(
                sha256(b"another root"),
                &k,
                claim.as_deref(),
                &proof
            ));
            // Every later node must be the child the one before points at.
            let mut unlinked = proof.nodes.clone();
            unlinked.remove(1);
            assert!(!verify(&unlinked, claim.as_deref()));
            let mut swapped = proof.nodes.clone();
            swapped[1] = Node::Leaf(vec![(k.clone(), b"planted".to_vec())]).encode();
            assert!(!verify(&swapped, Some(b"planted")));
        }
    }

    #[test]
    fn multi_proof_is_the_first_use_union_of_the_keys_paths() {
        let mut tree = new_tree();
        for i in 0..2000u32 {
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let keys: Vec<Vec<u8>> = [7u32, 8, 9, 1500, 8, 400_000]
            .into_iter()
            .map(key)
            .collect();
        let (values, multi) = tree.multi_get_with_proof(&keys);
        let mut union: Vec<Vec<u8>> = Vec::new();
        for (k, v) in keys.iter().zip(&values) {
            let (value, proof) = tree.get_with_proof(k);
            assert_eq!(*v, value);
            for node in proof.nodes {
                if !union.contains(&node) {
                    union.push(node);
                }
            }
        }
        assert_eq!(multi.nodes, union);
        let items: Vec<_> = keys.into_iter().zip(values).collect();
        assert!(verify_multi_proof(tree.root(), &items, &multi));
    }

    /// The covered leaves of a scan travel in the answer only, and a leaf
    /// astride a bound as its out-of-range entries; the proof must be
    /// exactly the nodes the scan keeps, in the order it met them.
    #[test]
    fn range_proofs_omit_covered_leaves_and_are_canonical() {
        let mut tree = new_tree();
        for i in 0..3000u32 {
            tree.try_insert(key(i), vec![i as u8; 128]).unwrap();
        }
        let root = tree.root();
        let (start, end) = (key(1000), key(1500));
        let (entries, proof) = tree.range_with_proof(&start, &end);
        assert_eq!(entries, tree.range(&start, &end));
        assert!(PosTree::verify_range_proof(
            root, &start, &end, &entries, &proof
        ));
        let leaves: Vec<_> = proof
            .nodes
            .iter()
            .filter_map(|n| match Node::decode(n) {
                Some(Node::Leaf(shipped)) => Some(shipped),
                _ => None,
            })
            .collect();
        assert!(leaves.len() <= 2, "only a leaf astride a bound is revealed");
        assert!(
            leaves
                .iter()
                .flatten()
                .all(|(k, _)| !in_range(k, &start, &end)),
            "no entry of the answer travels twice"
        );
        let answer: usize = entries.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert!(proof.encoded_len() < answer / 4, "{}", proof.encoded_len());

        // The previous form of the proof (every visited node) is refused.
        let mut every_node = IndexProof::empty();
        tree.collect_visited(&root, &start, &end, None, &mut every_node);
        assert!(every_node.len() > proof.len());
        assert!(!PosTree::verify_range_proof(
            root,
            &start,
            &end,
            &entries,
            &every_node
        ));
        // So is the honest node set in another order, or with a stranger.
        let mut reordered = proof.clone();
        reordered.nodes.swap(1, 2);
        let mut spliced = proof.clone();
        spliced.push_node(Node::Leaf(vec![(key(9), value(9))]).encode());
        for bad in [&reordered, &spliced, &IndexProof::empty()] {
            assert!(!PosTree::verify_range_proof(
                root, &start, &end, &entries, bad
            ));
        }
        // Entries exchanged inside a rebuilt leaf, or across two of them.
        for i in 100..130 {
            let mut swapped = entries.clone();
            swapped.swap(i, i + 1);
            assert!(!PosTree::verify_range_proof(
                root, &start, &end, &swapped, &proof
            ));
        }
        // A leaf astride `start` travels as its entries below `start`.
        let astride = proof
            .nodes
            .iter()
            .position(|n| matches!(Node::decode(n), Some(Node::Leaf(_))))
            .unwrap();
        let Some(Node::Leaf(mut overclaimed)) = Node::decode(&proof.nodes[astride]) else {
            unreachable!()
        };
        assert!(!overclaimed.is_empty() && overclaimed.iter().all(|(k, _)| *k < start));
        // Shipping the whole leaf, as protocol version 3 did, is not the
        // canonical proof.
        let whole = tree.get_with_proof(&start).1.nodes.pop().unwrap();
        assert_ne!(whole, proof.nodes[astride]);
        let mut v3 = proof.clone();
        v3.nodes[astride] = whole;
        assert!(!PosTree::verify_range_proof(
            root, &start, &end, &entries, &v3
        ));
        // Nor can the leaf pass as covered by claiming all of it: what
        // stands in for a leaf must itself lie in the range.
        overclaimed.extend(entries.iter().cloned());
        let mut hidden = proof.clone();
        hidden.nodes.remove(astride);
        assert!(!PosTree::verify_range_proof(
            root,
            &start,
            &end,
            &overclaimed,
            &hidden
        ));
        // An empty tree or range has an empty answer and an empty proof.
        assert!(PosTree::verify_range_proof(
            root,
            &end,
            &start,
            &entries[..0],
            &IndexProof::empty()
        ));
        assert!(!PosTree::verify_range_proof(
            root,
            &end,
            &start,
            &entries[..0],
            &proof
        ));
    }

    /// The budget the node geometry is held to: a single-key update of a
    /// 5 000-key tree with 128-byte values rewrites one root-to-leaf path,
    /// and with an average of 16 entries a node that path was ~7.2 KB.
    #[test]
    fn a_single_key_update_writes_a_short_path() {
        let mut tree = new_tree();
        tree.try_apply((0..5000u32).map(|i| (key(i), vec![i as u8; 128])).collect())
            .unwrap();
        let (_, before) = tree.node_writes();
        let mut rng = StdRng::seed_from_u64(5);
        let mut targets: Vec<u32> = (0..5000).collect();
        targets.shuffle(&mut rng);
        for &i in &targets[..200] {
            tree.try_insert(key(i), vec![!(i as u8); 128]).unwrap();
        }
        let mean = (tree.node_writes().1 - before) / 200;
        assert!(mean <= 5200, "mean bytes per single-key update: {mean}");
    }

    #[test]
    fn checkout_reopens_historical_roots() {
        let store = InMemoryChunkStore::shared();
        let mut tree = PosTree::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        tree.try_insert(b"a".to_vec(), b"1".to_vec()).unwrap();
        let root1 = tree.root();
        tree.try_insert(b"b".to_vec(), b"2".to_vec()).unwrap();

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
            tree.try_insert(key(i), value(i)).unwrap();
        }
        let (_, proof) = tree.get_with_proof(&key(2500));
        assert!(proof.len() >= 2, "tree of 5000 should have depth >= 2");
        assert!(
            proof.len() <= 8,
            "depth should stay logarithmic, got {}",
            proof.len()
        );
    }

    /// Skipping the boundary test for settled entries must not change a
    /// single node: every so often the incrementally written tree is the
    /// tree bulk-built from its key set.
    #[test]
    fn incremental_batches_build_the_bulk_built_tree() {
        use rand::Rng;
        for seed in 1..=3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut tree = new_tree();
            let mut model = BTreeMap::new();
            let mut ids = Vec::new();
            let mut batches = 0u32;
            while model.len() < 20_000 {
                let writes: Vec<_> = (0..rng.gen_range(1..=32usize))
                    .map(|_| {
                        let id = if !ids.is_empty() && rng.gen_bool(0.3) {
                            ids[rng.gen_range(0..ids.len())]
                        } else {
                            let id = rng.gen_range(0..1_000_000u32);
                            ids.push(id);
                            id
                        };
                        (key(id), format!("v{batches}-{id}").into_bytes())
                    })
                    .collect();
                model.extend(writes.iter().cloned());
                tree.try_apply(writes).unwrap();
                batches += 1;
                if batches.is_multiple_of(100) || model.len() >= 20_000 {
                    let mut bulk = new_tree();
                    bulk.try_apply(model.clone().into_iter().collect()).unwrap();
                    assert_eq!(tree.root(), bulk.root(), "seed {seed}, batch {batches}");
                    assert_eq!(tree.len(), model.len());
                }
            }
        }
    }

    /// A one-key update re-decides no boundary; a one-key insert tests at
    /// most the new key's entry at each level, plus one for a new root.
    #[test]
    fn single_key_writes_hash_only_the_boundaries_that_can_move() {
        let mut tree = new_tree();
        tree.try_apply((0..5000u32).map(|i| (key(2 * i), value(i))).collect())
            .unwrap();
        let calls = |tree: &mut PosTree, k: Vec<u8>| {
            BOUNDARY_TESTS.with(|c| c.set(0));
            tree.try_insert(k, b"new".to_vec()).unwrap();
            BOUNDARY_TESTS.with(Cell::get)
        };
        for i in (0..5000u32).step_by(37).chain([0, 4999]) {
            assert_eq!(calls(&mut tree, key(2 * i)), 0, "update of key {i}");
        }
        for i in (0..5000u32).step_by(41).chain([4999, 6000]) {
            let made = calls(&mut tree, key(2 * i + 1));
            let levels = tree.get_with_proof(&key(2 * i + 1)).1.len() as u64;
            assert!(
                made <= levels + 1,
                "insert {i}: {made} tests, {levels} levels"
            );
        }
    }
}
