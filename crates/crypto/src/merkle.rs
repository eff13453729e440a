//! Binary Merkle tree with audit (inclusion) and consistency proofs.
//!
//! The construction follows the transparency-log style (RFC 6962 / RFC 9162):
//! leaves are hashed with a `0x00` domain prefix, interior nodes with `0x01`,
//! and the root over `n` leaves splits at the largest power of two smaller
//! than `n`. This is the structure QLDB-like ledgers build over their journal
//! and is what the Spitz ledger's journal of block hashes, the QLDB baseline
//! and the cross-shard digest use.
//!
//! Two proof types are provided:
//!
//! * [`AuditProof`] — proves that a particular leaf is included in a tree
//!   with a given root ("this transaction is in the ledger").
//! * [`ConsistencyProof`] — proves that a tree with an older root is a prefix
//!   of a tree with a newer root ("the ledger is append-only; history was not
//!   rewritten").

use crate::hash::Hash;
use crate::{leaf_hash, node_hash, sha256};

/// An append-only binary Merkle tree over byte-string leaves.
///
/// The tree keeps one vector per level of *complete, aligned* subtree
/// roots: `levels[0]` holds the leaf hashes and `levels[k][i]` the root over
/// leaves `[i·2^k, (i+1)·2^k)`, about `2n` hashes in all. An append merges
/// the complete pairs it finishes upward, amortised O(1) node hashes. Every
/// left subtree of the RFC 6962 split is such a complete subtree, so it is a
/// lookup; only the right spine of a tree (or of a historical prefix) is
/// folded on demand. A root, an audit proof and a consistency proof are
/// therefore O(log n), at the current size or any historical one.
#[derive(Debug, Clone, Default)]
pub struct MerkleTree {
    levels: Vec<Vec<Hash>>,
}

impl MerkleTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        MerkleTree::default()
    }

    /// Build a tree from an iterator of leaf byte strings.
    pub fn from_leaves<'a, I>(leaves: I) -> Self
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut tree = MerkleTree::new();
        for leaf in leaves {
            tree.push(leaf);
        }
        tree
    }

    /// Build a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaves: Vec<Hash>) -> Self {
        let mut tree = MerkleTree::new();
        for leaf in leaves {
            tree.push_leaf_hash(leaf);
        }
        tree
    }

    /// Append a leaf (raw bytes; the tree applies the leaf domain hash).
    /// Returns the index of the appended leaf.
    pub fn push(&mut self, data: &[u8]) -> usize {
        self.push_leaf_hash(leaf_hash(data))
    }

    /// Append an already-hashed leaf, then the root of every complete
    /// subtree it finishes.
    pub fn push_leaf_hash(&mut self, hash: Hash) -> usize {
        let index = self.len();
        let mut node = hash;
        for level in 0.. {
            if self.levels.len() == level {
                self.levels.push(Vec::new());
            }
            let nodes = &mut self.levels[level];
            nodes.push(node);
            if nodes.len() % 2 == 1 {
                break;
            }
            node = node_hash(&nodes[nodes.len() - 2], &node);
        }
        index
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// True when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leaf hash at `index`, if present.
    pub fn leaf(&self, index: usize) -> Option<Hash> {
        self.levels.first()?.get(index).copied()
    }

    /// Root hash of the whole tree. The root of an empty tree is the hash of
    /// the empty string, matching RFC 6962.
    pub fn root(&self) -> Hash {
        self.subtree_root(0, self.len())
    }

    /// Root hash of the tree restricted to its first `size` leaves, i.e. the
    /// historical root after `size` appends.
    pub fn root_at(&self, size: usize) -> Option<Hash> {
        if size > self.len() {
            return None;
        }
        Some(self.subtree_root(0, size))
    }

    /// Merkle root over leaves `[start, end)`, where `start` is a multiple
    /// of the largest power of two not above `end - start` — true of every
    /// range the RFC 6962 recursion visits. A power-of-two range is then a
    /// complete, aligned subtree and is looked up; any other range is its
    /// complete left part plus a recursion into the (at most half as long)
    /// rest: O(log n) node hashes.
    fn subtree_root(&self, start: usize, end: usize) -> Hash {
        let n = end - start;
        if n == 0 {
            return sha256(b"");
        }
        if n.is_power_of_two() {
            let level = n.trailing_zeros() as usize;
            return self.levels[level][start >> level];
        }
        let k = largest_power_of_two_below(n);
        node_hash(
            &self.subtree_root(start, start + k),
            &self.subtree_root(start + k, end),
        )
    }

    /// Produce an audit (inclusion) proof for the leaf at `index` within the
    /// current tree. Returns `None` when the index is out of range.
    pub fn audit_proof(&self, index: usize) -> Option<AuditProof> {
        self.audit_proof_at(index, self.len())
    }

    /// Audit proof for `index` within the historical tree of `tree_size`
    /// leaves.
    pub fn audit_proof_at(&self, index: usize, tree_size: usize) -> Option<AuditProof> {
        if index >= tree_size || tree_size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        self.collect_audit_path(index, 0, tree_size, &mut path);
        Some(AuditProof {
            leaf_index: index,
            tree_size,
            path,
        })
    }

    fn collect_audit_path(&self, m: usize, start: usize, end: usize, path: &mut Vec<Hash>) {
        let n = end - start;
        if n <= 1 {
            return;
        }
        let k = largest_power_of_two_below(n);
        if m < k {
            self.collect_audit_path(m, start, start + k, path);
            path.push(self.subtree_root(start + k, end));
        } else {
            self.collect_audit_path(m - k, start + k, end, path);
            path.push(self.subtree_root(start, start + k));
        }
    }

    /// Produce a consistency proof showing that the historical tree of
    /// `old_size` leaves is a prefix of the current tree.
    pub fn consistency_proof(&self, old_size: usize) -> Option<ConsistencyProof> {
        self.consistency_proof_between(old_size, self.len())
    }

    /// Consistency proof between two historical sizes, `old_size <= new_size`.
    pub fn consistency_proof_between(
        &self,
        old_size: usize,
        new_size: usize,
    ) -> Option<ConsistencyProof> {
        if old_size == 0 || old_size > new_size || new_size > self.len() {
            return None;
        }
        let mut path = Vec::new();
        self.collect_consistency(old_size, 0, new_size, true, &mut path);
        Some(ConsistencyProof {
            old_size,
            new_size,
            path,
        })
    }

    /// RFC 6962 SUBPROOF.
    fn collect_consistency(
        &self,
        m: usize,
        start: usize,
        end: usize,
        complete: bool,
        path: &mut Vec<Hash>,
    ) {
        let n = end - start;
        if m == n {
            if !complete {
                path.push(self.subtree_root(start, end));
            }
            return;
        }
        let k = largest_power_of_two_below(n);
        if m <= k {
            self.collect_consistency(m, start, start + k, complete, path);
            path.push(self.subtree_root(start + k, end));
        } else {
            self.collect_consistency(m - k, start + k, end, false, path);
            path.push(self.subtree_root(start, start + k));
        }
    }
}

/// Proof that a leaf is included in a Merkle tree with a particular root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditProof {
    /// Index of the proven leaf within the tree.
    pub leaf_index: usize,
    /// Size of the tree the proof was generated against.
    pub tree_size: usize,
    /// Sibling hashes from the leaf level up to (but excluding) the root.
    pub path: Vec<Hash>,
}

impl AuditProof {
    /// Bytes a canonical wire encoding of this proof would occupy:
    /// leaf index ‖ tree size ‖ path length ‖ path hashes.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + self.path.len() * crate::hash::HASH_LEN
    }

    /// Append the canonical wire encoding (exactly
    /// [`AuditProof::encoded_len`] bytes): leaf index ‖ tree size ‖ path
    /// length ‖ path hashes, all integers big-endian.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.leaf_index as u64).to_be_bytes());
        out.extend_from_slice(&(self.tree_size as u64).to_be_bytes());
        out.extend_from_slice(&(self.path.len() as u32).to_be_bytes());
        for hash in &self.path {
            out.extend_from_slice(hash.as_bytes());
        }
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof from the front of `bytes`, returning it together with
    /// the number of bytes consumed (so composite decoders can resume after
    /// it). Returns `None` on truncated or malformed input; the declared
    /// path length is validated against the available bytes *before* any
    /// allocation, so hostile lengths cannot force large allocations.
    pub fn decode_prefix(bytes: &[u8]) -> Option<(AuditProof, usize)> {
        const HEADER: usize = 8 + 8 + 4;
        if bytes.len() < HEADER {
            return None;
        }
        let leaf_index = usize::try_from(u64::from_be_bytes(bytes[..8].try_into().ok()?)).ok()?;
        let tree_size = usize::try_from(u64::from_be_bytes(bytes[8..16].try_into().ok()?)).ok()?;
        let count = u32::from_be_bytes(bytes[16..20].try_into().ok()?) as usize;
        let need = HEADER.checked_add(count.checked_mul(crate::hash::HASH_LEN)?)?;
        if bytes.len() < need {
            return None;
        }
        let mut path = Vec::with_capacity(count);
        for i in 0..count {
            let offset = HEADER + i * crate::hash::HASH_LEN;
            let mut raw = [0u8; crate::hash::HASH_LEN];
            raw.copy_from_slice(&bytes[offset..offset + crate::hash::HASH_LEN]);
            path.push(Hash::from_bytes(raw));
        }
        Some((
            AuditProof {
                leaf_index,
                tree_size,
                path,
            },
            need,
        ))
    }

    /// Recompute the root implied by this proof for raw leaf `data`.
    pub fn expected_root(&self, data: &[u8]) -> Hash {
        self.expected_root_from_leaf_hash(leaf_hash(data))
    }

    /// Recompute the root implied by this proof for an already-hashed leaf.
    pub fn expected_root_from_leaf_hash(&self, leaf: Hash) -> Hash {
        fn compute(m: usize, n: usize, path: &[Hash], leaf: Hash) -> Hash {
            if n <= 1 {
                return leaf;
            }
            let k = largest_power_of_two_below(n);
            let (rest, last) = path.split_at(path.len().saturating_sub(1));
            let sibling = last.first().copied().unwrap_or(Hash::ZERO);
            if m < k {
                let sub = compute(m, k, rest, leaf);
                node_hash(&sub, &sibling)
            } else {
                let sub = compute(m - k, n - k, rest, leaf);
                node_hash(&sibling, &sub)
            }
        }
        compute(self.leaf_index, self.tree_size, &self.path, leaf)
    }

    /// Verify the proof against an expected root for raw leaf `data`.
    pub fn verify(&self, root: Hash, data: &[u8]) -> bool {
        self.leaf_index < self.tree_size && self.expected_root(data) == root
    }

    /// Verify the proof against an expected root for a pre-hashed leaf.
    pub fn verify_leaf_hash(&self, root: Hash, leaf: Hash) -> bool {
        self.leaf_index < self.tree_size && self.expected_root_from_leaf_hash(leaf) == root
    }

    /// Size of the proof in hashes (used when reporting proof overhead).
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True when the proof carries no sibling hashes (single-leaf tree).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }
}

/// Proof that one Merkle tree is an append-only extension of another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyProof {
    /// Size of the older tree.
    pub old_size: usize,
    /// Size of the newer tree.
    pub new_size: usize,
    /// The consistency path (RFC 6962 PROOF).
    pub path: Vec<Hash>,
}

impl ConsistencyProof {
    /// Verify the proof against the two roots.
    ///
    /// Implements the verification algorithm of RFC 9162 §2.1.4.2.
    pub fn verify(&self, old_root: Hash, new_root: Hash) -> bool {
        let m = self.old_size;
        let n = self.new_size;
        if m == 0 || m > n {
            return false;
        }
        if m == n {
            return self.path.is_empty() && old_root == new_root;
        }

        // If the old size is a power of two the old root itself is the first
        // element of the path.
        let mut path: Vec<Hash> = Vec::with_capacity(self.path.len() + 1);
        if m.is_power_of_two() {
            path.push(old_root);
        }
        path.extend_from_slice(&self.path);
        if path.is_empty() {
            return false;
        }

        let mut fn_ = m - 1;
        let mut sn = n - 1;
        while fn_ & 1 == 1 {
            fn_ >>= 1;
            sn >>= 1;
        }

        let mut fr = path[0];
        let mut sr = path[0];
        for &c in &path[1..] {
            if sn == 0 {
                return false;
            }
            if fn_ & 1 == 1 || fn_ == sn {
                fr = node_hash(&c, &fr);
                sr = node_hash(&c, &sr);
                while fn_ != 0 && fn_ & 1 == 0 {
                    fn_ >>= 1;
                    sn >>= 1;
                }
            } else {
                sr = node_hash(&sr, &c);
            }
            fn_ >>= 1;
            sn >>= 1;
        }

        fr == old_root && sr == new_root && sn == 0
    }

    /// Size of the proof in hashes.
    pub fn len(&self) -> usize {
        self.path.len()
    }

    /// True when the proof carries no hashes (equal-size trees).
    pub fn is_empty(&self) -> bool {
        self.path.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Sparse 16-slot Merkle subtree (the MPT sparse-branch commitment).
// ---------------------------------------------------------------------------

/// Depth of the sparse subtree over a radix-16 branch's child slots
/// (`2^4 = 16` leaves).
pub const SMT16_LEVELS: usize = 4;

/// Domain prefix of an interior node of the sparse branch subtree
/// (`'N' ‖ left ‖ right`). Distinct from the RFC 6962 prefixes (`0x00`,
/// `0x01`) and from every chunk-kind tag, so subtree interiors can never
/// collide with leaves, transparency-log nodes, or chunk addresses.
pub const SMT16_NODE_DOMAIN: u8 = b'N';

/// Interior hash of the sparse branch subtree: `H('N' ‖ left ‖ right)`.
pub fn smt16_node(left: &Hash, right: &Hash) -> Hash {
    let mut hasher = crate::Sha256::new();
    hasher.update(&[SMT16_NODE_DOMAIN]);
    hasher.update(left.as_bytes());
    hasher.update(right.as_bytes());
    hasher.finalize()
}

/// Root of the all-empty subtree of `2^level` slots. An empty slot is
/// [`Hash::ZERO`]; level 0 is the slot itself, level [`SMT16_LEVELS`] the
/// full 16-slot subtree. Panics when `level > SMT16_LEVELS`.
pub fn smt16_empty(level: usize) -> Hash {
    use std::sync::OnceLock;
    static EMPTIES: OnceLock<[Hash; SMT16_LEVELS + 1]> = OnceLock::new();
    let empties = EMPTIES.get_or_init(|| {
        let mut out = [Hash::ZERO; SMT16_LEVELS + 1];
        for level in 1..=SMT16_LEVELS {
            out[level] = smt16_node(&out[level - 1], &out[level - 1]);
        }
        out
    });
    empties[level]
}

/// Root of the sparse subtree over 16 child slots. Occupied slots carry the
/// child's commitment; empty slots are [`Hash::ZERO`]. Whole-empty subtrees
/// fold to the precomputed [`smt16_empty`] constants, so the root of a
/// branch with few children is dominated by its occupied spine.
pub fn smt16_root(slots: &[Hash; 16]) -> Hash {
    fn fold(slots: &[Hash], level: usize) -> Hash {
        if slots.iter().all(Hash::is_zero) {
            return smt16_empty(level);
        }
        if level == 0 {
            return slots[0];
        }
        let mid = slots.len() / 2;
        smt16_node(
            &fold(&slots[..mid], level - 1),
            &fold(&slots[mid..], level - 1),
        )
    }
    fold(slots, SMT16_LEVELS)
}

/// Largest power of two strictly less than `n` (requires `n >= 2`).
fn largest_power_of_two_below(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut k = 1usize;
    while k * 2 < n {
        k *= 2;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    fn tree_of(n: usize) -> (MerkleTree, Vec<Vec<u8>>) {
        let data = leaves(n);
        let tree = MerkleTree::from_leaves(data.iter().map(|d| d.as_slice()));
        (tree, data)
    }

    #[test]
    fn empty_tree_root_is_hash_of_empty_string() {
        assert_eq!(MerkleTree::new().root(), sha256(b""));
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let (tree, data) = tree_of(1);
        assert_eq!(tree.root(), leaf_hash(&data[0]));
    }

    #[test]
    fn two_leaf_root_structure() {
        let (tree, data) = tree_of(2);
        assert_eq!(
            tree.root(),
            node_hash(&leaf_hash(&data[0]), &leaf_hash(&data[1]))
        );
    }

    #[test]
    fn audit_proofs_verify_for_all_leaves_and_sizes() {
        for n in 1..=20usize {
            let (tree, data) = tree_of(n);
            let root = tree.root();
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.audit_proof(i).unwrap();
                assert!(proof.verify(root, leaf), "n={n} i={i}");
                // Wrong leaf data must fail.
                assert!(!proof.verify(root, b"tampered"), "n={n} i={i} tamper");
                // Wrong root must fail.
                assert!(!proof.verify(sha256(b"bogus"), leaf));
            }
        }
    }

    #[test]
    fn audit_proof_out_of_range() {
        let (tree, _) = tree_of(4);
        assert!(tree.audit_proof(4).is_none());
        assert!(tree.audit_proof(100).is_none());
        assert!(tree.audit_proof_at(1, 5).is_none());
        let empty = MerkleTree::new();
        assert!(empty.audit_proof(0).is_none());
        assert!(empty.root_at(1).is_none());
        assert!(empty.leaf(0).is_none());
    }

    #[test]
    fn historical_roots_match_prefix_trees() {
        let (tree, data) = tree_of(13);
        for size in 0..=13usize {
            let prefix = MerkleTree::from_leaves(data[..size].iter().map(|d| d.as_slice()));
            assert_eq!(tree.root_at(size).unwrap(), prefix.root(), "size {size}");
        }
        assert!(tree.root_at(14).is_none());
    }

    #[test]
    fn consistency_proofs_verify_for_all_size_pairs() {
        let (tree, _) = tree_of(16);
        for old in 1..=16usize {
            for new in old..=16usize {
                let proof = tree.consistency_proof_between(old, new).unwrap();
                let old_root = tree.root_at(old).unwrap();
                let new_root = tree.root_at(new).unwrap();
                assert!(proof.verify(old_root, new_root), "old={old} new={new}");
                if old != new {
                    assert!(
                        !proof.verify(sha256(b"bogus"), new_root),
                        "old={old} new={new} bad old root"
                    );
                    assert!(
                        !proof.verify(old_root, sha256(b"bogus")),
                        "old={old} new={new} bad new root"
                    );
                }
            }
        }
    }

    #[test]
    fn consistency_proof_rejects_zero_or_inverted_sizes() {
        let (tree, _) = tree_of(8);
        assert!(tree.consistency_proof_between(0, 8).is_none());
        assert!(tree.consistency_proof_between(9, 8).is_none());
        assert!(tree.consistency_proof_between(3, 9).is_none());
    }

    #[test]
    fn appending_changes_root() {
        let mut tree = MerkleTree::new();
        let mut seen = HashSet::from([tree.root()]);
        for leaf in leaves(300) {
            tree.push(&leaf);
            assert!(seen.insert(tree.root()), "size {}", tree.len());
        }
    }

    /// The recursive RFC 6962 definitions (§2.1: `MTH`, `PATH`, `SUBPROOF`)
    /// over the leaf hashes alone — the batch rebuild the cached tree must
    /// reproduce. `MTH` is memoised on its range so that checking every
    /// proof at every size stays cheap; the recursion is the RFC's.
    struct Reference<'a> {
        leaves: &'a [Hash],
        memo: HashMap<(usize, usize), Hash>,
    }

    impl Reference<'_> {
        fn mth(&mut self, start: usize, end: usize) -> Hash {
            if let Some(hash) = self.memo.get(&(start, end)) {
                return *hash;
            }
            let hash = match end - start {
                0 => sha256(b""),
                1 => self.leaves[start],
                n => {
                    let k = largest_power_of_two_below(n);
                    let left = self.mth(start, start + k);
                    node_hash(&left, &self.mth(start + k, end))
                }
            };
            self.memo.insert((start, end), hash);
            hash
        }

        fn path(&mut self, m: usize, start: usize, end: usize) -> Vec<Hash> {
            let n = end - start;
            if n <= 1 {
                return Vec::new();
            }
            let k = largest_power_of_two_below(n);
            let (mut path, sibling) = if m < k {
                (self.path(m, start, start + k), (start + k, end))
            } else {
                (self.path(m - k, start + k, end), (start, start + k))
            };
            path.push(self.mth(sibling.0, sibling.1));
            path
        }

        fn subproof(&mut self, m: usize, start: usize, end: usize, complete: bool) -> Vec<Hash> {
            let n = end - start;
            if m == n {
                return if complete {
                    Vec::new()
                } else {
                    vec![self.mth(start, end)]
                };
            }
            let k = largest_power_of_two_below(n);
            let (mut path, sibling) = if m <= k {
                (
                    self.subproof(m, start, start + k, complete),
                    (start + k, end),
                )
            } else {
                (
                    self.subproof(m - k, start + k, end, false),
                    (start, start + k),
                )
            };
            path.push(self.mth(sibling.0, sibling.1));
            path
        }
    }

    #[test]
    fn cached_levels_match_the_recursive_definition_at_every_size() {
        const MAX: usize = 300;
        let data = leaves(MAX);
        let hashes: Vec<Hash> = data.iter().map(|d| leaf_hash(d)).collect();
        let mut reference = Reference {
            leaves: &hashes,
            memo: HashMap::new(),
        };
        let full = MerkleTree::from_leaf_hashes(hashes.clone());
        let mut grown = MerkleTree::new();
        for size in 0..=MAX {
            let root = reference.mth(0, size);
            assert_eq!(grown.root(), root, "incremental root, size {size}");
            assert_eq!(
                full.root_at(size),
                Some(root),
                "historical root, size {size}"
            );
            for m in 0..size {
                let proof = full.audit_proof_at(m, size).unwrap();
                assert_eq!(proof.path, reference.path(m, 0, size), "PATH({m}, {size})");
            }
            for old in 1..=size {
                let proof = full.consistency_proof_between(old, size).unwrap();
                let want = reference.subproof(old, 0, size, true);
                assert_eq!(proof.path, want, "PROOF({old}, {size})");
            }
            if let Some(leaf) = data.get(size) {
                assert_eq!(grown.push(leaf), size);
            }
        }
        assert_eq!(grown.root(), full.root());
    }

    #[test]
    fn proof_sizes_are_logarithmic() {
        let (tree, _) = tree_of(1024);
        let proof = tree.audit_proof(17).unwrap();
        assert_eq!(proof.len(), 10);
    }

    #[test]
    fn smt16_empty_constants_chain() {
        assert_eq!(smt16_empty(0), Hash::ZERO);
        for level in 1..=SMT16_LEVELS {
            assert_eq!(
                smt16_empty(level),
                smt16_node(&smt16_empty(level - 1), &smt16_empty(level - 1))
            );
        }
        assert_eq!(smt16_root(&[Hash::ZERO; 16]), smt16_empty(SMT16_LEVELS));
    }

    #[test]
    fn smt16_root_matches_dense_fold() {
        let mut slots = [Hash::ZERO; 16];
        for (i, slot) in slots.iter_mut().enumerate().step_by(3) {
            *slot = sha256(format!("child-{i}").as_bytes());
        }
        // Dense reference fold with no empty-subtree shortcuts.
        let mut level: Vec<Hash> = slots.to_vec();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| smt16_node(&pair[0], &pair[1]))
                .collect();
        }
        assert_eq!(smt16_root(&slots), level[0]);
    }

    #[test]
    fn smt16_root_is_sensitive_to_slot_position() {
        let mut a = [Hash::ZERO; 16];
        let mut b = [Hash::ZERO; 16];
        a[3] = sha256(b"x");
        b[4] = sha256(b"x");
        assert_ne!(smt16_root(&a), smt16_root(&b));
        assert_ne!(smt16_root(&a), smt16_empty(SMT16_LEVELS));
    }
}
