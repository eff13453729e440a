//! Merkle Patricia Trie (MPT).
//!
//! The authenticated index used by Ethereum's state and adopted by several
//! ledger databases; in the paper's taxonomy it is one of the three SIRI
//! instances. Keys are decomposed into 4-bit nibbles; nodes are leaves
//! (remaining path + value), extensions (shared path + child) or branches
//! (16 children + optional value). Nodes are content addressed in the chunk
//! store, so like the POS-Tree, consecutive versions share untouched
//! subtrees and the structure is independent of insertion order.
//!
//! Range scans are supported by an in-order traversal of the trie (nibble
//! order equals lexicographic byte order), which is correct but — exactly as
//! the paper's analysis of SIRI structures observes — less efficient than
//! the POS-Tree's B+-tree-like scan. The ablation benchmark
//! (`ablation_siri`) quantifies this.
//!
//! # Sparse-branch commitments and compact proofs
//!
//! Trie nodes are stored as [`ChunkKind::MptNode`] chunks, which the storage
//! layer addresses by their *sparse-branch commitment*
//! ([`spitz_storage::mpt_commitment`]): a branch's 16 child slots are hashed
//! as a 4-level sparse Merkle subtree instead of being absorbed whole. Point
//! proofs therefore do not reveal node payloads at all; they are a single
//! recursive *trie-shaped blob* mirroring the lookup path:
//!
//! ```text
//! step := 0x00 ‖ path ‖ value                      leaf (value revealed)
//!       | 0x01 ‖ path ‖ step                       extension, descend
//!       | 0x02 ‖ path ‖ child_commitment           extension, pruned
//!       | 0x03 ‖ bitmap u16 ‖ vtag ‖ [value]       branch
//!              ‖ on-path child steps (ascending nibble)
//!              ‖ sibling subtree hashes (depth-first fold order)
//! ```
//!
//! `vtag` is 0 (branch stores no value), 1 (value present, revealed as its
//! hash) or 2 (value present, revealed in full — required whenever a proven
//! key terminates at the branch). A full branch descent costs ~4 sibling
//! hashes instead of 15 child hashes, and the same blob proves any number of
//! keys at once by sharing every common upper step (the batched
//! [`IndexProof`] carries that one blob).
//!
//! Every node — leaf, extension or branch — is saved as its payload, and
//! the store computes its address, the commitment, from that payload: the
//! one address rule for MPT nodes. A proof builder folds each branch's
//! sparse subtree afresh from its child slots; nothing is cached between
//! writes or proofs.
//!
//! The verifier recomputes the commitment bottom-up and rejects: pruned
//! extensions whose path any proven key still matches (hiding a present
//! key), `vtag = 1` when a proven key terminates at the branch (hiding a
//! value), `vtag = 2` when none does (non-canonical), lying bitmaps (the
//! subtree fold breaks), and trailing bytes.

use std::sync::Arc;

use spitz_crypto::{smt16_empty, smt16_node, Hash, SMT16_LEVELS};
use spitz_storage::{
    mpt_branch_commitment, mpt_commitment, mpt_extension_commitment, mpt_leaf_commitment,
    mpt_value_hash, Chunk, ChunkKind, ChunkStore, StorageError,
};

use crate::codec::{put_bytes, put_hash, Reader};
use crate::proof::IndexProof;
use crate::siri::{sorted_batch, NodeTally, SiriIndex, SiriKind};

/// Proof-step tag: leaf node, path and value revealed.
const STEP_LEAF: u8 = 0x00;
/// Proof-step tag: extension node followed by its child's step.
const STEP_EXT: u8 = 0x01;
/// Proof-step tag: extension node whose subtree is pruned to a commitment.
const STEP_EXT_PRUNED: u8 = 0x02;
/// Proof-step tag: branch node with sparse-subtree sibling hashes.
const STEP_BRANCH: u8 = 0x03;

/// Decoded trie node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum MptNode {
    /// Remaining nibble path and the stored value.
    Leaf { path: Vec<u8>, value: Vec<u8> },
    /// Shared nibble path and the child it leads to.
    Extension { path: Vec<u8>, child: Hash },
    /// One child slot per nibble plus an optional value for keys ending here.
    Branch {
        children: Box<[Option<Hash>; 16]>,
        value: Option<Vec<u8>>,
    },
}

impl MptNode {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            MptNode::Leaf { path, value } => {
                out.push(0u8);
                put_bytes(&mut out, path);
                put_bytes(&mut out, value);
            }
            MptNode::Extension { path, child } => {
                out.push(1u8);
                put_bytes(&mut out, path);
                put_hash(&mut out, child);
            }
            MptNode::Branch { children, value } => {
                out.push(2u8);
                let mut bitmap: u16 = 0;
                for (i, child) in children.iter().enumerate() {
                    if child.is_some() {
                        bitmap |= 1 << i;
                    }
                }
                out.extend_from_slice(&bitmap.to_be_bytes());
                for child in children.iter().flatten() {
                    put_hash(&mut out, child);
                }
                match value {
                    Some(v) => {
                        out.push(1);
                        put_bytes(&mut out, v);
                    }
                    None => out.push(0),
                }
            }
        }
        out
    }

    fn decode(data: &[u8]) -> Option<MptNode> {
        let mut r = Reader::new(data);
        match r.u8()? {
            0 => {
                let path = r.bytes()?.to_vec();
                let value = r.bytes()?.to_vec();
                Some(MptNode::Leaf { path, value })
            }
            1 => {
                let path = r.bytes()?.to_vec();
                let child = r.hash()?;
                Some(MptNode::Extension { path, child })
            }
            2 => {
                let hi = r.u8()?;
                let lo = r.u8()?;
                let bitmap = u16::from_be_bytes([hi, lo]);
                let mut children: [Option<Hash>; 16] = Default::default();
                for (i, slot) in children.iter_mut().enumerate() {
                    if bitmap & (1 << i) != 0 {
                        *slot = Some(r.hash()?);
                    }
                }
                let value = if r.u8()? == 1 {
                    Some(r.bytes()?.to_vec())
                } else {
                    None
                };
                Some(MptNode::Branch {
                    children: Box::new(children),
                    value,
                })
            }
            _ => None,
        }
    }
}

/// Child node addresses of an encoded MPT node (empty for a leaf); `None`
/// when the payload does not decode as an MPT node.
pub(crate) fn node_children(payload: &[u8]) -> Option<Vec<Hash>> {
    MptNode::decode(payload).map(|node| match node {
        MptNode::Leaf { .. } => Vec::new(),
        MptNode::Extension { child, .. } => vec![child],
        MptNode::Branch { children, .. } => children.iter().flatten().copied().collect(),
    })
}

/// Convert a key to its nibble path (two nibbles per byte, high first).
fn to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() * 2);
    for &b in key {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

/// Convert a nibble path back to bytes (paths always have even length when
/// they represent whole keys).
fn from_nibbles(nibbles: &[u8]) -> Vec<u8> {
    nibbles
        .chunks(2)
        .map(|pair| (pair[0] << 4) | pair.get(1).copied().unwrap_or(0))
        .collect()
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// The Merkle Patricia Trie.
pub struct MerklePatriciaTrie {
    store: Arc<dyn ChunkStore>,
    root: Hash,
    len: usize,
    written: NodeTally,
}

/// A trie position a batch is applied to: nothing there yet, a stored node,
/// or a node the apply itself made (the tail of a split extension) that is
/// persisted only in its final form.
enum Slot {
    Empty,
    Stored(Hash),
    Unsaved(MptNode),
}

/// One entry on its way down the trie: the nibbles still to be consumed,
/// its value, and where to record that the key was new — `None` for an
/// entry the trie already held (an overwritten key, or a resident leaf
/// being re-homed under a new branch).
struct Item<'a> {
    rest: &'a [u8],
    value: Vec<u8>,
    flag: Option<usize>,
}

fn strip(items: &mut [Item<'_>], nibbles: usize) {
    for item in items {
        item.rest = &item.rest[nibbles..];
    }
}

/// Where the prover's lookups and proof builders read node payloads from:
/// the trie's chunk store.
struct StoreSource<'a>(&'a Arc<dyn ChunkStore>);

impl StoreSource<'_> {
    fn payload(&self, hash: &Hash) -> Option<Vec<u8>> {
        self.0
            .get_kind(hash, ChunkKind::MptNode)
            .ok()
            .map(|c| c.data().to_vec())
    }
}

/// Walk a trie from `root` looking for the value at `nibbles`.
///
/// Returns `Err(())` when a needed node cannot be resolved (a corrupt
/// store), `Ok(None)` for a proven absence.
fn lookup(
    source: &StoreSource<'_>,
    root: Hash,
    nibbles: &[u8],
    mut visit: impl FnMut(&[u8]),
) -> Result<Option<Vec<u8>>, ()> {
    if root.is_zero() {
        return Ok(None);
    }
    let mut hash = root;
    let mut remaining = nibbles;
    loop {
        let payload = source.payload(&hash).ok_or(())?;
        visit(&payload);
        let node = MptNode::decode(&payload).ok_or(())?;
        match node {
            MptNode::Leaf { path, value } => {
                return Ok((path == remaining).then_some(value));
            }
            MptNode::Extension { path, child } => {
                if remaining.len() < path.len() || remaining[..path.len()] != path[..] {
                    return Ok(None);
                }
                remaining = &remaining[path.len()..];
                hash = child;
            }
            MptNode::Branch { children, value } => {
                if remaining.is_empty() {
                    return Ok(value);
                }
                match children[remaining[0] as usize] {
                    Some(child) => {
                        remaining = &remaining[1..];
                        hash = child;
                    }
                    None => return Ok(None),
                }
            }
        }
    }
}

impl MerklePatriciaTrie {
    /// Create an empty trie writing its nodes into `store`.
    pub fn new(store: Arc<dyn ChunkStore>) -> Self {
        MerklePatriciaTrie {
            store,
            root: Hash::ZERO,
            len: 0,
            written: NodeTally::default(),
        }
    }

    /// Open the trie at an existing root, recomputing the entry count.
    pub fn open(store: Arc<dyn ChunkStore>, root: Hash) -> Option<Self> {
        let mut trie = MerklePatriciaTrie {
            store,
            root,
            len: 0,
            written: NodeTally::default(),
        };
        if root.is_zero() {
            return Some(trie);
        }
        if !trie.store.contains(&root) {
            return None;
        }
        let mut count = 0usize;
        trie.walk(&root, &mut Vec::new(), &mut |_, _| count += 1, &mut None);
        trie.len = count;
        Some(trie)
    }

    fn save(&self, node: &MptNode) -> Result<Hash, StorageError> {
        self.written
            .put(&self.store, Chunk::new(ChunkKind::MptNode, node.encode()))
    }

    /// `child` behind an extension over `path`, or `child` itself when the
    /// path is empty.
    fn save_behind(&self, path: &[u8], child: Hash) -> Result<Hash, StorageError> {
        if path.is_empty() {
            return Ok(child);
        }
        self.save(&MptNode::Extension {
            path: path.to_vec(),
            child,
        })
    }

    fn load(&self, hash: &Hash) -> Option<MptNode> {
        let chunk = self.store.get_kind(hash, ChunkKind::MptNode).ok()?;
        MptNode::decode(chunk.data())
    }

    /// Apply a sorted, duplicate-free batch to the subtrie at `at` in one
    /// descent, returning the hash of its replacement. Every node of the
    /// new version is persisted once, in its final form; `is_new[flag]` is
    /// set for each item that lands where the trie held nothing.
    fn apply(
        &self,
        at: Slot,
        mut items: Vec<Item<'_>>,
        is_new: &mut [bool],
    ) -> Result<Hash, StorageError> {
        let node = match at {
            Slot::Empty => return self.build(items, is_new),
            Slot::Stored(hash) if items.is_empty() => return Ok(hash),
            Slot::Unsaved(node) if items.is_empty() => return self.save(&node),
            Slot::Stored(hash) => self.load(&hash).expect("mpt node missing from store"),
            Slot::Unsaved(node) => node,
        };
        match node {
            MptNode::Leaf { path, value } => {
                // The resident entry joins the batch, unless the batch
                // overwrites it; either way nothing new lands at its path.
                // (Rebound so the items may borrow this node's path.)
                let mut items: Vec<Item<'_>> = items;
                match items.binary_search_by(|item| item.rest.cmp(&path)) {
                    Ok(i) => items[i].flag = None,
                    Err(i) => items.insert(
                        i,
                        Item {
                            rest: &path,
                            value,
                            flag: None,
                        },
                    ),
                }
                self.build(items, is_new)
            }
            MptNode::Extension { path, child } => {
                // Sorted items: the shortest agreement with `path` is at an end.
                let cp = common_prefix(&path, items[0].rest)
                    .min(common_prefix(&path, items[items.len() - 1].rest));
                strip(&mut items, cp);
                if cp == path.len() {
                    let child = self.apply(Slot::Stored(child), items, is_new)?;
                    return self.save(&MptNode::Extension { path, child });
                }
                // Split at the divergence: the tail of the extension becomes
                // one child of a new branch.
                let mut children: [Slot; 16] = std::array::from_fn(|_| Slot::Empty);
                children[path[cp] as usize] = if path.len() - cp > 1 {
                    Slot::Unsaved(MptNode::Extension {
                        path: path[cp + 1..].to_vec(),
                        child,
                    })
                } else {
                    Slot::Stored(child)
                };
                let branch = self.apply_branch(children, None, items, is_new)?;
                self.save_behind(&path[..cp], branch)
            }
            MptNode::Branch { children, value } => {
                let children = children.map(|child| child.map_or(Slot::Empty, Slot::Stored));
                self.apply_branch(children, value, items, is_new)
            }
        }
    }

    /// The canonical subtrie of `items` alone (sorted, at least one).
    fn build(&self, mut items: Vec<Item<'_>>, is_new: &mut [bool]) -> Result<Hash, StorageError> {
        if items.len() == 1 {
            let item = items.pop().expect("one item");
            if let Some(flag) = item.flag {
                is_new[flag] = true;
            }
            return self.save(&MptNode::Leaf {
                path: item.rest.to_vec(),
                value: item.value,
            });
        }
        let shared = items[0].rest;
        let cp = common_prefix(shared, items[items.len() - 1].rest);
        strip(&mut items, cp);
        let children = std::array::from_fn(|_| Slot::Empty);
        let branch = self.apply_branch(children, None, items, is_new)?;
        self.save_behind(&shared[..cp], branch)
    }

    /// Distribute `items` over a branch's value and child slots, recurse
    /// into the touched slots and persist the branch once.
    fn apply_branch(
        &self,
        children: [Slot; 16],
        mut value: Option<Vec<u8>>,
        items: Vec<Item<'_>>,
        is_new: &mut [bool],
    ) -> Result<Hash, StorageError> {
        let mut items = items.into_iter().peekable();
        if let Some(item) = items.next_if(|item| item.rest.is_empty()) {
            if let (None, Some(flag)) = (&value, item.flag) {
                is_new[flag] = true;
            }
            value = Some(item.value);
        }
        let mut hashes: Box<[Option<Hash>; 16]> = Box::default();
        for (nibble, slot) in children.into_iter().enumerate() {
            let mut part = Vec::new();
            while let Some(mut item) = items.next_if(|item| item.rest[0] as usize == nibble) {
                item.rest = &item.rest[1..];
                part.push(item);
            }
            hashes[nibble] = match slot {
                Slot::Empty if part.is_empty() => None,
                slot => Some(self.apply(slot, part, is_new)?),
            };
        }
        self.save(&MptNode::Branch {
            children: hashes,
            value,
        })
    }

    /// In-order traversal; calls `emit(key_nibbles, value)` for every entry
    /// and appends node payloads to `proof` when provided.
    fn walk(
        &self,
        hash: &Hash,
        prefix: &mut Vec<u8>,
        emit: &mut impl FnMut(&[u8], &[u8]),
        proof: &mut Option<&mut IndexProof>,
    ) {
        let Some(chunk) = self.store.get_kind(hash, ChunkKind::MptNode).ok() else {
            return;
        };
        if let Some(p) = proof.as_deref_mut() {
            p.push_node(chunk.data().to_vec());
        }
        let Some(node) = MptNode::decode(chunk.data()) else {
            return;
        };
        match node {
            MptNode::Leaf { path, value } => {
                let depth = path.len();
                prefix.extend_from_slice(&path);
                emit(prefix, &value);
                prefix.truncate(prefix.len() - depth);
            }
            MptNode::Extension { path, child } => {
                let depth = path.len();
                prefix.extend_from_slice(&path);
                self.walk(&child, prefix, emit, proof);
                prefix.truncate(prefix.len() - depth);
            }
            MptNode::Branch { children, value } => {
                if let Some(v) = value {
                    emit(prefix, &v);
                }
                for (i, child) in children.iter().enumerate() {
                    if let Some(child) = child {
                        prefix.push(i as u8);
                        self.walk(child, prefix, emit, proof);
                        prefix.pop();
                    }
                }
            }
        }
    }

    fn range_impl(
        &self,
        start: &[u8],
        end: &[u8],
        mut proof: Option<&mut IndexProof>,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if self.root.is_zero() || start >= end {
            return out;
        }
        let mut prefix = Vec::new();
        self.walk(
            &self.root.clone(),
            &mut prefix,
            &mut |nibbles, value| {
                let key = from_nibbles(nibbles);
                if key.as_slice() >= start && key.as_slice() < end {
                    out.push((key, value.to_vec()));
                }
            },
            &mut proof,
        );
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Verify a point-lookup proof: the one-key case of
    /// [`MerklePatriciaTrie::verify_multi_proof`]. It decodes the compact
    /// trie-shaped blob, recomputes the sparse-branch commitment bottom-up,
    /// and checks both the root and the claimed value (or absence).
    pub fn verify_proof(root: Hash, key: &[u8], value: Option<&[u8]>, proof: &IndexProof) -> bool {
        let items = [(key.to_vec(), value.map(|v| v.to_vec()))];
        Self::verify_multi_proof(root, &items, proof)
    }

    /// Verify a batched multi-key proof: one compact blob proving every
    /// `(key, claimed value)` pair in `items` against `root`.
    pub fn verify_multi_proof(
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
        if proof.nodes.len() != 1 {
            return false;
        }
        verify_blob(root, items, &proof.nodes[0])
    }

    /// Verify a **complete** range proof. The MPT's range scan is an
    /// in-order walk of the whole trie (the SIRI weakness the paper's
    /// ablation quantifies), so the proof reveals every node, in walk order.
    /// The verifier re-walks the trie from the root, taking each node it
    /// meets from the front of the proof and checking its commitment, and
    /// accepts only when that walk consumed every revealed node exactly
    /// once — a withheld, extra, duplicated or undecodable node all fail —
    /// and the claimed entries are exactly the collected entries restricted
    /// to `start <= key < end`.
    pub fn verify_range_proof(
        root: Hash,
        start: &[u8],
        end: &[u8],
        entries: &[(Vec<u8>, Vec<u8>)],
        proof: &IndexProof,
    ) -> bool {
        if root.is_zero() || start >= end {
            return entries.is_empty() && proof.is_empty();
        }
        let mut revealed = proof.nodes.iter();
        let mut all = Vec::new();
        if collect_entries(&mut revealed, &root, &mut Vec::new(), &mut all).is_err()
            || revealed.next().is_some()
        {
            return false;
        }
        let mut in_range: Vec<(Vec<u8>, Vec<u8>)> = all
            .into_iter()
            .filter(|(k, _)| k.as_slice() >= start && k.as_slice() < end)
            .collect();
        in_range.sort_by(|a, b| a.0.cmp(&b.0));
        in_range == entries
    }
}

/// Walk every node reachable from `hash` in the prover's order, taking each
/// one from the front of `revealed`, and collect all `(key, value)` entries.
/// `Err(())` when the next revealed node is missing, is not the one whose
/// commitment the parent names, or does not decode.
fn collect_entries(
    revealed: &mut std::slice::Iter<'_, Vec<u8>>,
    hash: &Hash,
    prefix: &mut Vec<u8>,
    out: &mut Vec<(Vec<u8>, Vec<u8>)>,
) -> Result<(), ()> {
    let payload = revealed.next().ok_or(())?;
    if mpt_commitment(payload) != Some(*hash) {
        return Err(());
    }
    let node = MptNode::decode(payload).ok_or(())?;
    match node {
        MptNode::Leaf { path, value } => {
            let depth = path.len();
            prefix.extend_from_slice(&path);
            out.push((from_nibbles(prefix), value));
            prefix.truncate(prefix.len() - depth);
        }
        MptNode::Extension { path, child } => {
            let depth = path.len();
            prefix.extend_from_slice(&path);
            collect_entries(revealed, &child, prefix, out)?;
            prefix.truncate(prefix.len() - depth);
        }
        MptNode::Branch { children, value } => {
            if let Some(v) = value {
                out.push((from_nibbles(prefix), v));
            }
            for (i, child) in children.iter().enumerate() {
                if let Some(child) = child {
                    prefix.push(i as u8);
                    collect_entries(revealed, child, prefix, out)?;
                    prefix.pop();
                }
            }
        }
    }
    Ok(())
}

/// One key's position in a (possibly multi-key) descent: the index into the
/// caller's key list plus the nibbles still to be consumed.
#[derive(Clone, Copy)]
struct Pending<'a> {
    idx: usize,
    rest: &'a [u8],
}

/// Every interior hash of a branch's 16-slot sparse subtree, laid out
/// level-major: `[0..8)` the eight level-1 pair nodes, `[8..12)` the four
/// level-2 nodes, `[12..14)` the two level-3 nodes, `[14]` the subtree root.
/// Level-0 regions are the slots themselves and are not stored.
///
/// Entry values equal the recursive sparse-subtree fold of the
/// corresponding region exactly (empty regions hold the [`smt16_empty`]
/// constants, which *are* the folds of zero slots); a test checks every
/// region against that fold.
type RegionTable = [Hash; 15];

/// Fold the full table bottom-up. Empty regions take the precomputed
/// constant instead of hashing, so a near-empty branch costs only its
/// occupied spine.
fn build_region_table(slots: &[Hash; 16]) -> RegionTable {
    let mut occ: u16 = 0;
    for (i, slot) in slots.iter().enumerate() {
        if !slot.is_zero() {
            occ |= 1 << i;
        }
    }
    let mut table = [Hash::ZERO; 15];
    for j in 0..8 {
        table[j] = if occ & (0b11 << (2 * j)) == 0 {
            smt16_empty(1)
        } else {
            smt16_node(&slots[2 * j], &slots[2 * j + 1])
        };
    }
    for j in 0..4 {
        table[8 + j] = if occ & (0b1111 << (4 * j)) == 0 {
            smt16_empty(2)
        } else {
            smt16_node(&table[2 * j], &table[2 * j + 1])
        };
    }
    for j in 0..2 {
        table[12 + j] = if occ & (0xff << (8 * j)) == 0 {
            smt16_empty(3)
        } else {
            smt16_node(&table[8 + 2 * j], &table[8 + 2 * j + 1])
        };
    }
    table[14] = if occ == 0 {
        smt16_empty(4)
    } else {
        smt16_node(&table[12], &table[13])
    };
    table
}

/// Look up the root of region `[lo, lo + 2^level)` in the table.
fn region_from_table(slots: &[Hash; 16], table: &RegionTable, lo: usize, level: usize) -> Hash {
    match level {
        0 => slots[lo],
        1 => table[lo / 2],
        2 => table[8 + lo / 4],
        3 => table[12 + lo / 8],
        _ => table[14],
    }
}

/// Emit the sibling subtree hashes of a branch step, depth-first over the
/// sparse subtree: an off-path region contributes one hash when occupied and
/// nothing when empty (the verifier substitutes the cached empty constant);
/// on-path regions recurse until the descended slots themselves, whose
/// commitments the verifier recomputes.
fn emit_siblings(
    slots: &[Hash; 16],
    on_path: &[bool; 16],
    table: &RegionTable,
    lo: usize,
    level: usize,
    out: &mut Vec<u8>,
) {
    let width = 1usize << level;
    if !on_path[lo..lo + width].iter().any(|&b| b) {
        if slots[lo..lo + width].iter().any(|h| !h.is_zero()) {
            put_hash(out, &region_from_table(slots, table, lo, level));
        }
        return;
    }
    if level == 0 {
        return;
    }
    emit_siblings(slots, on_path, table, lo, level - 1, out);
    emit_siblings(slots, on_path, table, lo + width / 2, level - 1, out);
}

/// Recursively encode the proof step for the node at `hash`, descending
/// along every pending key, recording resolved values into `values`.
fn encode_step(
    source: &StoreSource<'_>,
    hash: &Hash,
    pendings: &[Pending<'_>],
    out: &mut Vec<u8>,
    values: &mut [Option<Vec<u8>>],
) -> Result<(), ()> {
    let payload = source.payload(hash).ok_or(())?;
    let node = MptNode::decode(&payload).ok_or(())?;
    match node {
        MptNode::Leaf { path, value } => {
            out.push(STEP_LEAF);
            put_bytes(out, &path);
            put_bytes(out, &value);
            for p in pendings {
                if p.rest == path.as_slice() {
                    values[p.idx] = Some(value.clone());
                }
            }
        }
        MptNode::Extension { path, child } => {
            let descend: Vec<Pending<'_>> = pendings
                .iter()
                .filter(|p| p.rest.len() >= path.len() && p.rest[..path.len()] == path[..])
                .map(|p| Pending {
                    idx: p.idx,
                    rest: &p.rest[path.len()..],
                })
                .collect();
            if descend.is_empty() {
                // Every pending key diverges inside the extension path: the
                // subtree is irrelevant and collapses to its commitment.
                out.push(STEP_EXT_PRUNED);
                put_bytes(out, &path);
                put_hash(out, &child);
            } else {
                out.push(STEP_EXT);
                put_bytes(out, &path);
                encode_step(source, &child, &descend, out, values)?;
            }
        }
        MptNode::Branch { children, value } => {
            out.push(STEP_BRANCH);
            let mut bitmap: u16 = 0;
            let mut slots = [Hash::ZERO; 16];
            for (i, child) in children.iter().enumerate() {
                if let Some(h) = child {
                    bitmap |= 1 << i;
                    slots[i] = *h;
                }
            }
            out.extend_from_slice(&bitmap.to_be_bytes());
            let terminating = pendings.iter().any(|p| p.rest.is_empty());
            match (&value, terminating) {
                (Some(v), true) => {
                    out.push(2);
                    put_bytes(out, v);
                    for p in pendings {
                        if p.rest.is_empty() {
                            values[p.idx] = Some(v.clone());
                        }
                    }
                }
                (Some(v), false) => {
                    out.push(1);
                    put_hash(out, &mpt_value_hash(v));
                }
                (None, _) => out.push(0),
            }
            let mut on_path = [false; 16];
            for p in pendings {
                if let Some(&nib) = p.rest.first() {
                    on_path[nib as usize] = true;
                }
            }
            for nib in 0..16usize {
                if !on_path[nib] {
                    continue;
                }
                // An on-path empty slot proves absence via the clear bitmap
                // bit; only occupied slots have a child step to encode.
                if let Some(child) = &children[nib] {
                    let group: Vec<Pending<'_>> = pendings
                        .iter()
                        .filter(|p| p.rest.first() == Some(&(nib as u8)))
                        .map(|p| Pending {
                            idx: p.idx,
                            rest: &p.rest[1..],
                        })
                        .collect();
                    encode_step(source, child, &group, out, values)?;
                }
            }
            let table = build_region_table(&slots);
            emit_siblings(&slots, &on_path, &table, 0, SMT16_LEVELS, out);
        }
    }
    Ok(())
}

/// Recursively fold the sparse subtree of a branch step, consuming sibling
/// hashes from the blob in the same depth-first order [`emit_siblings`]
/// wrote them. `computed` holds the recomputed commitments of on-path slots
/// (`Hash::ZERO` for a proven-absent slot).
fn fold_subtree(
    r: &mut Reader<'_>,
    on_path: &[bool; 16],
    computed: &[Option<Hash>; 16],
    bitmap: u16,
    lo: usize,
    level: usize,
) -> Result<Hash, ()> {
    let width = 1usize << level;
    if !on_path[lo..lo + width].iter().any(|&b| b) {
        let mask = (((1u32 << width) - 1) << lo) as u16;
        if bitmap & mask == 0 {
            return Ok(smt16_empty(level));
        }
        return r.hash().ok_or(());
    }
    if level == 0 {
        return computed[lo].ok_or(());
    }
    let left = fold_subtree(r, on_path, computed, bitmap, lo, level - 1)?;
    let right = fold_subtree(r, on_path, computed, bitmap, lo + width / 2, level - 1)?;
    Ok(smt16_node(&left, &right))
}

/// Decode and check one proof step, returning the recomputed commitment of
/// the node it describes. Soundness rejections are documented step by step;
/// structural recursion is bounded because every descent strips at least one
/// nibble from every key that continues.
fn decode_step(
    r: &mut Reader<'_>,
    pendings: &[Pending<'_>],
    values: &mut [Option<Vec<u8>>],
) -> Result<Hash, ()> {
    if pendings.is_empty() {
        // Steps exist only where some key descends; a pendings-free step is
        // non-canonical and would unbound the recursion.
        return Err(());
    }
    match r.u8().ok_or(())? {
        STEP_LEAF => {
            let path = r.bytes().ok_or(())?.to_vec();
            let value = r.bytes().ok_or(())?.to_vec();
            for p in pendings {
                if p.rest == path.as_slice() {
                    values[p.idx] = Some(value.clone());
                }
            }
            Ok(mpt_leaf_commitment(&path, &mpt_value_hash(&value)))
        }
        STEP_EXT => {
            let path = r.bytes().ok_or(())?.to_vec();
            if path.is_empty() {
                return Err(());
            }
            let descend: Vec<Pending<'_>> = pendings
                .iter()
                .filter(|p| p.rest.len() >= path.len() && p.rest[..path.len()] == path[..])
                .map(|p| Pending {
                    idx: p.idx,
                    rest: &p.rest[path.len()..],
                })
                .collect();
            let child = decode_step(r, &descend, values)?;
            Ok(mpt_extension_commitment(&path, &child))
        }
        STEP_EXT_PRUNED => {
            let path = r.bytes().ok_or(())?.to_vec();
            if path.is_empty() {
                return Err(());
            }
            // A pruned subtree must be irrelevant to every proven key: if
            // any key's remainder still matches the extension path, the
            // prover could be hiding that key's presence behind the prune.
            if pendings
                .iter()
                .any(|p| p.rest.len() >= path.len() && p.rest[..path.len()] == path[..])
            {
                return Err(());
            }
            let child = r.hash().ok_or(())?;
            Ok(mpt_extension_commitment(&path, &child))
        }
        STEP_BRANCH => {
            let hi = r.u8().ok_or(())?;
            let lo = r.u8().ok_or(())?;
            let bitmap = u16::from_be_bytes([hi, lo]);
            let terminating = pendings.iter().any(|p| p.rest.is_empty());
            let value_part = match r.u8().ok_or(())? {
                0 => Hash::ZERO,
                1 => {
                    // A hash-only value while a proven key terminates here
                    // would let the prover claim absence of a present value.
                    if terminating {
                        return Err(());
                    }
                    r.hash().ok_or(())?
                }
                2 => {
                    if !terminating {
                        return Err(());
                    }
                    let v = r.bytes().ok_or(())?.to_vec();
                    for p in pendings {
                        if p.rest.is_empty() {
                            values[p.idx] = Some(v.clone());
                        }
                    }
                    mpt_value_hash(&v)
                }
                _ => return Err(()),
            };
            let mut on_path = [false; 16];
            for p in pendings {
                if let Some(&nib) = p.rest.first() {
                    on_path[nib as usize] = true;
                }
            }
            let mut computed: [Option<Hash>; 16] = [None; 16];
            for nib in 0..16usize {
                if !on_path[nib] {
                    continue;
                }
                if bitmap & (1 << nib) == 0 {
                    // Clear bitmap bit on a descended slot: proven absence;
                    // a lying bitmap breaks the subtree fold below.
                    computed[nib] = Some(Hash::ZERO);
                    continue;
                }
                let group: Vec<Pending<'_>> = pendings
                    .iter()
                    .filter(|p| p.rest.first() == Some(&(nib as u8)))
                    .map(|p| Pending {
                        idx: p.idx,
                        rest: &p.rest[1..],
                    })
                    .collect();
                computed[nib] = Some(decode_step(r, &group, values)?);
            }
            let subtree = fold_subtree(r, &on_path, &computed, bitmap, 0, SMT16_LEVELS)?;
            Ok(mpt_branch_commitment(bitmap, &subtree, &value_part))
        }
        _ => Err(()),
    }
}

/// Verify one compact blob against `root` for every `(key, claim)` item.
fn verify_blob(root: Hash, items: &[(Vec<u8>, Option<Vec<u8>>)], blob: &[u8]) -> bool {
    let nibbles: Vec<Vec<u8>> = items.iter().map(|(k, _)| to_nibbles(k)).collect();
    let pendings: Vec<Pending<'_>> = nibbles
        .iter()
        .enumerate()
        .map(|(idx, rest)| Pending { idx, rest })
        .collect();
    let mut resolved: Vec<Option<Vec<u8>>> = vec![None; items.len()];
    let mut r = Reader::new(blob);
    let Ok(commitment) = decode_step(&mut r, &pendings, &mut resolved) else {
        return false;
    };
    if !r.is_exhausted() || commitment != root {
        return false;
    }
    resolved
        .iter()
        .zip(items)
        .all(|(got, (_, claimed))| got == claimed)
}

/// Build the compact multi-key proof blob. Returns the per-key values and
/// the blob; `None` when a node on some path cannot be resolved.
#[allow(clippy::type_complexity)]
fn build_blob(
    source: &StoreSource<'_>,
    root: Hash,
    keys: &[Vec<u8>],
) -> Option<(Vec<Option<Vec<u8>>>, Vec<u8>)> {
    let nibbles: Vec<Vec<u8>> = keys.iter().map(|k| to_nibbles(k)).collect();
    let pendings: Vec<Pending<'_>> = nibbles
        .iter()
        .enumerate()
        .map(|(idx, rest)| Pending { idx, rest })
        .collect();
    let mut values: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
    let mut blob = Vec::new();
    encode_step(source, &root, &pendings, &mut blob, &mut values).ok()?;
    Some((values, blob))
}

impl SiriIndex for MerklePatriciaTrie {
    fn kind(&self) -> SiriKind {
        SiriKind::MerklePatriciaTrie
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
        // Nibble order is byte order, so the batch is sorted for the descent.
        let paths: Vec<Vec<u8>> = batch.iter().map(|(key, _)| to_nibbles(key)).collect();
        let items = batch
            .into_iter()
            .zip(&paths)
            .enumerate()
            .map(|(i, ((_, value), path))| Item {
                rest: path,
                value,
                flag: Some(i),
            })
            .collect();
        let at = if self.root.is_zero() {
            Slot::Empty
        } else {
            Slot::Stored(self.root)
        };
        let mut is_new = vec![false; paths.len()];
        // Published only once the whole new version is stored.
        self.root = self.apply(at, items, &mut is_new)?;
        self.len += is_new.iter().filter(|&&new| new).count();
        Ok(order.flags(&is_new))
    }

    fn node_writes(&self) -> (u64, u64) {
        self.written.get()
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        lookup(
            &StoreSource(&self.store),
            self.root,
            &to_nibbles(key),
            |_| {},
        )
        .ok()
        .flatten()
    }

    fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexProof) {
        let (mut values, proof) = self.multi_get_with_proof(&[key.to_vec()]);
        (values.pop().flatten(), proof)
    }

    fn multi_get_with_proof(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, IndexProof) {
        if keys.is_empty() || self.root.is_zero() {
            return (vec![None; keys.len()], IndexProof::empty());
        }
        match build_blob(&StoreSource(&self.store), self.root, keys) {
            Some((values, blob)) => (values, IndexProof { nodes: vec![blob] }),
            None => (vec![None; keys.len()], IndexProof::empty()),
        }
    }

    fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.range_impl(start, end, None)
    }

    fn range_with_proof(&self, start: &[u8], end: &[u8]) -> (Vec<(Vec<u8>, Vec<u8>)>, IndexProof) {
        let mut proof = IndexProof::empty();
        let entries = self.range_impl(start, end, Some(&mut proof));
        (entries, proof)
    }

    fn checkout(&self, root: Hash) -> Option<Box<dyn SiriIndex>> {
        let trie = Self::open(Arc::clone(&self.store), root)?;
        Some(Box::new(trie))
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

    fn new_trie() -> MerklePatriciaTrie {
        MerklePatriciaTrie::new(InMemoryChunkStore::shared())
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key-{i:06}").into_bytes()
    }

    fn value(i: u32) -> Vec<u8> {
        format!("value-{i}").into_bytes()
    }

    #[test]
    fn nibble_conversion_roundtrip() {
        for data in [&b""[..], b"a", b"hello", &[0x00, 0xff, 0x7f]] {
            assert_eq!(from_nibbles(&to_nibbles(data)), data.to_vec());
        }
        assert_eq!(to_nibbles(&[0xab]), vec![0xa, 0xb]);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut trie = new_trie();
        for i in 0..300u32 {
            trie.insert(key(i), value(i));
        }
        assert_eq!(trie.len(), 300);
        for i in 0..300u32 {
            assert_eq!(trie.get(&key(i)), Some(value(i)), "key {i}");
        }
        assert_eq!(trie.get(b"missing"), None);
    }

    #[test]
    fn prefix_keys_coexist() {
        let mut trie = new_trie();
        trie.insert(b"a".to_vec(), b"1".to_vec());
        trie.insert(b"ab".to_vec(), b"2".to_vec());
        trie.insert(b"abc".to_vec(), b"3".to_vec());
        trie.insert(b"abd".to_vec(), b"4".to_vec());
        assert_eq!(trie.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(trie.get(b"ab"), Some(b"2".to_vec()));
        assert_eq!(trie.get(b"abc"), Some(b"3".to_vec()));
        assert_eq!(trie.get(b"abd"), Some(b"4".to_vec()));
        assert_eq!(trie.len(), 4);
        assert_eq!(trie.get(b"abe"), None);
        assert_eq!(trie.get(b"abcd"), None);
    }

    #[test]
    fn overwrite_keeps_len() {
        let mut trie = new_trie();
        trie.insert(b"k".to_vec(), b"v1".to_vec());
        trie.insert(b"k".to_vec(), b"v2".to_vec());
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(b"k"), Some(b"v2".to_vec()));
    }

    #[test]
    fn structural_invariance_under_insertion_order() {
        let keys: Vec<u32> = (0..200).collect();
        let mut t1 = new_trie();
        for &i in &keys {
            t1.insert(key(i), value(i));
        }
        let mut shuffled = keys.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(3));
        let mut t2 = new_trie();
        for &i in &shuffled {
            t2.insert(key(i), value(i));
        }
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn proofs_verify_and_detect_tampering() {
        let mut trie = new_trie();
        for i in 0..200u32 {
            trie.insert(key(i), value(i));
        }
        let root = trie.root();
        let (v, proof) = trie.get_with_proof(&key(77));
        assert_eq!(v, Some(value(77)));
        assert!(MerklePatriciaTrie::verify_proof(
            root,
            &key(77),
            v.as_deref(),
            &proof
        ));
        assert!(!MerklePatriciaTrie::verify_proof(
            root,
            &key(77),
            Some(b"forged"),
            &proof
        ));
        assert!(!MerklePatriciaTrie::verify_proof(
            root,
            &key(77),
            None,
            &proof
        ));
        assert!(!MerklePatriciaTrie::verify_proof(
            sha256(b"x"),
            &key(77),
            v.as_deref(),
            &proof
        ));

        let (none, absence) = trie.get_with_proof(b"not-present");
        assert!(none.is_none());
        assert!(MerklePatriciaTrie::verify_proof(
            root,
            b"not-present",
            None,
            &absence
        ));
    }

    #[test]
    fn range_returns_sorted_window_with_valid_proof() {
        let mut trie = new_trie();
        for i in 0..300u32 {
            trie.insert(key(i), value(i));
        }
        let (start, end) = (key(50), key(60));
        let (entries, proof) = trie.range_with_proof(&start, &end);
        assert_eq!(entries.len(), 10);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(MerklePatriciaTrie::verify_range_proof(
            trie.root(),
            &start,
            &end,
            &entries,
            &proof
        ));

        let mut forged = entries.clone();
        forged[3].1 = b"forged".to_vec();
        assert!(!MerklePatriciaTrie::verify_range_proof(
            trie.root(),
            &start,
            &end,
            &forged,
            &proof
        ));
        // Omitting an entry breaks verification (completeness).
        let mut truncated = entries.clone();
        truncated.remove(4);
        assert!(!MerklePatriciaTrie::verify_range_proof(
            trie.root(),
            &start,
            &end,
            &truncated,
            &proof
        ));

        // Every revealed node is consumed exactly once: padding fails.
        let verifies = |nodes: Vec<Vec<u8>>| {
            let mut padded = IndexProof::empty();
            for node in nodes {
                padded.push_node(node);
            }
            MerklePatriciaTrie::verify_range_proof(trie.root(), &start, &end, &entries, &padded)
        };
        assert!(verifies(proof.nodes.clone()));

        // An extra node that is a valid trie node from another trie.
        let mut other = new_trie();
        other.insert(b"elsewhere".to_vec(), b"x".to_vec());
        let (_, foreign) = other.range_with_proof(b"a", b"z");
        let mut extra = proof.nodes.clone();
        extra.extend(foreign.nodes);
        assert!(!verifies(extra));

        // A revealed node repeated, at the end or next to itself.
        let mut duplicated = proof.nodes.clone();
        duplicated.push(proof.nodes[3].clone());
        assert!(!verifies(duplicated));
        let mut doubled = proof.nodes.clone();
        doubled.insert(3, proof.nodes[3].clone());
        assert!(!verifies(doubled));

        // Bytes that decode to no node, appended or in the middle.
        let mut garbage = proof.nodes.clone();
        garbage.push(vec![0xff; 7]);
        assert!(!verifies(garbage));
        let mut inserted = proof.nodes.clone();
        inserted.insert(1, vec![0xff; 7]);
        assert!(!verifies(inserted));

        // An empty trie proves an empty range only with an empty proof.
        let empty_range = |p: &IndexProof| {
            MerklePatriciaTrie::verify_range_proof(Hash::ZERO, &start, &end, &[], p)
        };
        assert!(empty_range(&IndexProof::empty()));
        assert!(!empty_range(&proof));
    }

    #[test]
    fn single_child_branch_proofs() {
        // "a" = [6,1]; "ab" = [6,1,6,2]: extension [6,1] → branch that
        // stores "a"'s value and has exactly one child (nibble 6).
        let mut trie = new_trie();
        trie.insert(b"a".to_vec(), b"1".to_vec());
        trie.insert(b"ab".to_vec(), b"2".to_vec());
        let root = trie.root();
        for (k, v) in [
            (&b"a"[..], Some(&b"1"[..])),
            (b"ab", Some(b"2")),
            (b"ac", None),
        ] {
            let (got, proof) = trie.get_with_proof(k);
            assert_eq!(got.as_deref(), v);
            assert!(MerklePatriciaTrie::verify_proof(root, k, v, &proof));
        }
        // The branch value must be revealed, not hashed, when the proven key
        // terminates at the branch: flipping the claim fails.
        let (_, proof) = trie.get_with_proof(b"a");
        assert!(!MerklePatriciaTrie::verify_proof(root, b"a", None, &proof));
        assert!(!MerklePatriciaTrie::verify_proof(
            root,
            b"a",
            Some(b"2"),
            &proof
        ));
    }

    #[test]
    fn sixteen_child_branch_proofs_stay_compact() {
        // 16 single-byte keys 0x00, 0x10, …, 0xF0: the root branch has all
        // 16 children occupied — the worst case the sparse subtree exists
        // for. The old payload proof carried 15 sibling hashes (515-byte
        // branch node); the compact step carries at most 4.
        let mut trie = new_trie();
        for n in 0..16u8 {
            trie.insert(vec![n << 4], vec![n]);
        }
        let root = trie.root();
        for n in 0..16u8 {
            let key = vec![n << 4];
            let (v, proof) = trie.get_with_proof(&key);
            assert_eq!(v, Some(vec![n]));
            assert!(MerklePatriciaTrie::verify_proof(
                root,
                &key,
                v.as_deref(),
                &proof
            ));
            // step tags + bitmap + 4 sibling hashes + leaf ≪ one 515-byte
            // full branch payload.
            assert!(proof.size_bytes() < 200, "proof was {}", proof.size_bytes());
        }
    }

    #[test]
    fn extension_boundary_absences() {
        // Keys share the long prefix "abc", so the trie has an extension
        // covering it; "abd…" diverges inside the extension path and the
        // proof prunes the subtree to its commitment.
        let mut trie = new_trie();
        trie.insert(b"abc1".to_vec(), b"1".to_vec());
        trie.insert(b"abc2".to_vec(), b"2".to_vec());
        let root = trie.root();
        let (v, proof) = trie.get_with_proof(b"abd1");
        assert!(v.is_none());
        assert!(MerklePatriciaTrie::verify_proof(
            root, b"abd1", None, &proof
        ));
        // The pruned-extension step must be rejected for a key that matches
        // the extension path: it could hide that key's presence.
        assert!(!MerklePatriciaTrie::verify_proof(
            root, b"abc1", None, &proof
        ));
        // A key shorter than the extension path also diverges.
        let (v, proof) = trie.get_with_proof(b"ab");
        assert!(v.is_none());
        assert!(MerklePatriciaTrie::verify_proof(root, b"ab", None, &proof));
    }

    #[test]
    fn digest_stable_across_reopen() {
        let store = InMemoryChunkStore::shared();
        let mut trie = MerklePatriciaTrie::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        for i in 0..50u32 {
            trie.insert(key(i), value(i));
        }
        let root = trie.root();
        let mut reopened =
            MerklePatriciaTrie::open(Arc::clone(&store) as Arc<dyn ChunkStore>, root).unwrap();
        assert_eq!(reopened.root(), root);
        assert_eq!(reopened.len(), 50);
        reopened.insert(key(50), value(50));

        let mut fresh = new_trie();
        for i in 0..51u32 {
            fresh.insert(key(i), value(i));
        }
        assert_eq!(reopened.root(), fresh.root());
    }

    #[test]
    fn legacy_index_node_chunks_still_round_trip() {
        // Old segments stored trie nodes as ChunkKind::IndexNode, addressed
        // by the plain tagged hash. Those chunks must stay readable at their
        // old addresses even though new nodes use the commitment scheme.
        let store = InMemoryChunkStore::shared();
        let payload = MptNode::Leaf {
            path: vec![1, 2, 3],
            value: b"old".to_vec(),
        }
        .encode();
        let legacy = Chunk::new(ChunkKind::IndexNode, payload.clone());
        let legacy_addr = store.put(legacy);
        assert_eq!(legacy_addr, crate::proof::hash_index_node(&payload));
        assert_eq!(
            store
                .get_kind(&legacy_addr, ChunkKind::IndexNode)
                .unwrap()
                .data(),
            payload.as_slice()
        );
        // The same payload stored as an MptNode lives at its commitment —
        // a different address — so the two schemes coexist in one store.
        let modern_addr = store.put(Chunk::new(ChunkKind::MptNode, payload.clone()));
        assert_ne!(modern_addr, legacy_addr);
        assert_eq!(modern_addr, mpt_commitment(&payload).unwrap());
    }

    #[test]
    fn multi_proof_verifies_and_shares_upper_nodes() {
        let mut trie = new_trie();
        for i in 0..200u32 {
            trie.insert(key(i), value(i));
        }
        let root = trie.root();
        let keys: Vec<Vec<u8>> = (0..16u32).map(|i| key(i * 12)).collect();
        let (values, multi) = trie.multi_get_with_proof(&keys);
        let items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            keys.iter().cloned().zip(values.clone()).collect();
        assert!(values.iter().all(|v| v.is_some()));
        assert!(MerklePatriciaTrie::verify_multi_proof(root, &items, &multi));

        // Batching shares every common upper step, so even a spread-out
        // batch beats 16 independent proofs...
        let singles: usize = keys
            .iter()
            .map(|k| trie.get_with_proof(k).1.size_bytes())
            .sum();
        assert!(
            multi.size_bytes() < singles,
            "multi {} singles {}",
            multi.size_bytes(),
            singles
        );
        // ...and a batch of 16 *related* keys (one scan's worth) beats even
        // 4 independent proofs — the headline batching win.
        let near: Vec<Vec<u8>> = (0..16u32).map(key).collect();
        let (near_values, near_multi) = trie.multi_get_with_proof(&near);
        let near_items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            near.iter().cloned().zip(near_values).collect();
        assert!(MerklePatriciaTrie::verify_multi_proof(
            root,
            &near_items,
            &near_multi
        ));
        let near_singles: usize = near
            .iter()
            .map(|k| trie.get_with_proof(k).1.size_bytes())
            .sum();
        assert!(
            near_multi.size_bytes() * 4 < near_singles,
            "multi {} singles {}",
            near_multi.size_bytes(),
            near_singles
        );

        // Mixed present/absent batches verify too.
        let mixed = vec![key(3), b"nope".to_vec(), key(7)];
        let (mv, mp) = trie.multi_get_with_proof(&mixed);
        assert_eq!(mv[1], None);
        let mixed_items: Vec<(Vec<u8>, Option<Vec<u8>>)> = mixed.iter().cloned().zip(mv).collect();
        assert!(MerklePatriciaTrie::verify_multi_proof(
            root,
            &mixed_items,
            &mp
        ));

        // Reordering (key, value) pairs keeps the proof valid — the blob is
        // canonical in trie order, not input order...
        let mut reordered = items.clone();
        reordered.swap(0, 1);
        assert!(MerklePatriciaTrie::verify_multi_proof(
            root, &reordered, &multi
        ));
        // ...but cross-wiring values between keys is caught.
        let mut swapped = items.clone();
        let tmp = swapped[0].1.clone();
        swapped[0].1 = swapped[1].1.clone();
        swapped[1].1 = tmp;
        assert!(!MerklePatriciaTrie::verify_multi_proof(
            root, &swapped, &multi
        ));
    }

    #[test]
    fn mutated_proof_blobs_are_rejected() {
        let mut trie = new_trie();
        for i in 0..64u32 {
            trie.insert(key(i), value(i));
        }
        let root = trie.root();
        let keys: Vec<Vec<u8>> = vec![key(1), key(20), key(63)];
        let (values, multi) = trie.multi_get_with_proof(&keys);
        let items: Vec<(Vec<u8>, Option<Vec<u8>>)> = keys.iter().cloned().zip(values).collect();
        assert!(MerklePatriciaTrie::verify_multi_proof(root, &items, &multi));

        let blob = &multi.nodes[0];
        // Every single-byte flip anywhere in the blob must be rejected.
        for i in 0..blob.len() {
            let mut tampered = blob.clone();
            tampered[i] ^= 0x01;
            let bad = IndexProof {
                nodes: vec![tampered],
            };
            assert!(
                !MerklePatriciaTrie::verify_multi_proof(root, &items, &bad),
                "flip at byte {i} accepted"
            );
        }
        // Truncation and trailing garbage are rejected.
        for cut in 1..blob.len() {
            let bad = IndexProof {
                nodes: vec![blob[..cut].to_vec()],
            };
            assert!(!MerklePatriciaTrie::verify_multi_proof(root, &items, &bad));
        }
        let mut extended = blob.clone();
        extended.push(0);
        let bad = IndexProof {
            nodes: vec![extended],
        };
        assert!(!MerklePatriciaTrie::verify_multi_proof(root, &items, &bad));
        // A second spliced-in node is rejected outright.
        let bad = IndexProof {
            nodes: vec![blob.clone(), blob.clone()],
        };
        assert!(!MerklePatriciaTrie::verify_multi_proof(root, &items, &bad));
    }

    #[test]
    fn historical_roots_remain_readable() {
        let store = InMemoryChunkStore::shared();
        let mut trie = MerklePatriciaTrie::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        trie.insert(b"a".to_vec(), b"1".to_vec());
        let root1 = trie.root();
        trie.insert(b"b".to_vec(), b"2".to_vec());

        let old = trie.checkout(root1).unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old.get(b"a"), Some(b"1".to_vec()));
        assert_eq!(old.get(b"b"), None);

        // A checkout of the head proves byte-identically to the live trie.
        for i in 0..100u32 {
            trie.insert(key(i), value(i));
        }
        let head = trie.checkout(trie.root()).unwrap();
        assert_eq!(head.len(), 102);
        for k in [key(7), b"a".to_vec(), b"absent".to_vec()] {
            assert_eq!(head.get_with_proof(&k), trie.get_with_proof(&k));
        }
        let keys: Vec<Vec<u8>> = (0..16u32).map(|i| key(5 * i)).collect();
        assert_eq!(
            head.multi_get_with_proof(&keys),
            trie.multi_get_with_proof(&keys)
        );
    }

    #[test]
    fn empty_trie_behaviour() {
        let trie = new_trie();
        assert!(trie.is_empty());
        assert_eq!(trie.get(b"x"), None);
        let (v, proof) = trie.get_with_proof(b"x");
        assert!(v.is_none());
        assert!(MerklePatriciaTrie::verify_proof(
            Hash::ZERO,
            b"x",
            None,
            &proof
        ));
        assert!(trie.range(b"a", b"z").is_empty());
    }

    /// Sparse-subtree root of the slot region `[lo, lo + 2^level)`.
    ///
    /// The reference the proof builders' [`RegionTable`] is checked against.
    fn region_root(slots: &[Hash; 16], lo: usize, level: usize) -> Hash {
        let width = 1usize << level;
        if slots[lo..lo + width].iter().all(Hash::is_zero) {
            return smt16_empty(level);
        }
        if level == 0 {
            return slots[lo];
        }
        smt16_node(
            &region_root(slots, lo, level - 1),
            &region_root(slots, lo + width / 2, level - 1),
        )
    }

    /// The precomputed [`RegionTable`] must hold exactly the values the
    /// recursive [`region_root`] fold produces for every region at every
    /// level, including the smt16 root, across sparse/dense/empty slot
    /// patterns — that equality is what lets a proof step emit table
    /// entries as sibling hashes.
    #[test]
    fn region_table_matches_recursive_fold() {
        let patterns: &[&[usize]] = &[
            &[],
            &[0],
            &[15],
            &[3, 4],
            &[0, 1, 2, 3],
            &[1, 5, 9, 13],
            &[0, 2, 4, 6, 8, 10, 12, 14],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        ];
        for occupied in patterns {
            let mut slots = [Hash::ZERO; 16];
            for &i in *occupied {
                slots[i] = sha256(format!("slot-{i}").as_bytes());
            }
            let table = build_region_table(&slots);
            for level in 0..=SMT16_LEVELS {
                let width = 1usize << level;
                for lo in (0..16).step_by(width) {
                    assert_eq!(
                        region_from_table(&slots, &table, lo, level),
                        region_root(&slots, lo, level),
                        "pattern {occupied:?}, region [{lo}, {})",
                        lo + width
                    );
                }
            }
            assert_eq!(table[14], spitz_crypto::smt16_root(&slots));
        }
    }
}
