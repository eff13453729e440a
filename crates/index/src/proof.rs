//! Common proof representation for authenticated indexes.
//!
//! All three SIRI indexes prove membership the same way: they reveal the
//! serialized nodes along the search path from the root to the leaf (or to
//! the point where the search fails, for a proof of absence). The verifier
//! re-hashes each revealed node, checks that the first node hashes to the
//! trusted root digest, checks that every subsequent node's hash appears in
//! its parent, and finally checks the key/value (or its absence) inside the
//! terminal node. The index-specific part — how to find a child hash inside
//! a node — lives with each index; the common carrying structure lives here.

use spitz_crypto::{Hash, Sha256};

use crate::codec;

/// The one proof carrier of the index layer: serialized node payloads
/// with one wire encoding. What the nodes are depends on the read and the
/// index family:
///
/// * **Point read** — the payloads on the key's root-to-leaf path, root
///   first (POS-Tree, MBT), or one trie-shaped blob (MPT, see
///   `crates/index/src/mpt.rs`).
/// * **Batched read** ([`SiriIndex::multi_get_with_proof`]) — for the
///   POS-Tree and MBT, the de-duplicated union of every key's path, in
///   first-use order, so shared upper nodes appear once; for the MPT, one
///   blob holding the shared sub-trie of all the lookup paths.
/// * **Range read** ([`SiriIndex::range_with_proof`]) — the nodes the scan
///   visited, in scan order.
///
/// The verifiers ([`verify_proof`], [`verify_multi_proof`],
/// [`verify_range_proof`]) reject proofs carrying nodes their replay does
/// not consume, so spliced-in payloads fail even when every individual
/// path still verifies.
///
/// [`SiriIndex::multi_get_with_proof`]: crate::siri::SiriIndex::multi_get_with_proof
/// [`SiriIndex::range_with_proof`]: crate::siri::SiriIndex::range_with_proof
/// [`verify_proof`]: crate::siri::verify_proof
/// [`verify_multi_proof`]: crate::siri::verify_multi_proof
/// [`verify_range_proof`]: crate::siri::verify_range_proof
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IndexProof {
    /// Serialized node payloads; the type docs say what they hold per read.
    pub nodes: Vec<Vec<u8>>,
}

impl IndexProof {
    /// An empty proof (used for lookups against an empty index).
    pub fn empty() -> Self {
        IndexProof { nodes: Vec::new() }
    }

    /// Bytes a canonical wire encoding of this proof would occupy: a node
    /// count plus a length-prefixed payload per node. The telemetry layer
    /// reports this as "proof bytes" so proof-shrinking work has a number
    /// to move.
    pub fn encoded_len(&self) -> usize {
        4 + self.nodes.iter().map(|node| 4 + node.len()).sum::<usize>()
    }

    /// Append the canonical wire encoding (exactly
    /// [`IndexProof::encoded_len`] bytes): node count, then each node as a
    /// length-prefixed payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.nodes.len() as u32);
        for node in &self.nodes {
            codec::put_bytes(out, node);
        }
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`IndexProof::encode_into`].
    /// Returns `None` on truncated or malformed input. The declared node
    /// count is checked against the bytes actually available before any
    /// allocation happens, so a hostile count cannot force a large
    /// allocation.
    pub fn decode(r: &mut codec::Reader<'_>) -> Option<IndexProof> {
        // Every node costs at least its 4-byte length prefix.
        let count = r.count(4)?;
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            nodes.push(r.bytes()?.to_vec());
        }
        Some(IndexProof { nodes })
    }

    /// Append a node payload to the proof path.
    pub fn push_node(&mut self, payload: Vec<u8>) {
        self.nodes.push(payload);
    }

    /// Number of nodes revealed.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the proof reveals no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total size of the proof in bytes; the paper's discussion of proof
    /// overhead is in these terms.
    pub fn size_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.len()).sum()
    }
}

/// The pre-merge name of a batched read's proof, kept as an alias of
/// [`IndexProof`] only because the benchmark adapter names it.
pub type MultiProof = IndexProof;

/// Hash an index node payload exactly as the chunk store addresses it
/// (`ChunkKind::IndexNode` tag = 2, then payload).
pub fn hash_index_node(payload: &[u8]) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(&[2u8]);
    hasher.update(payload);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::{Chunk, ChunkKind};

    #[test]
    fn node_hash_matches_chunk_address() {
        let payload = b"some index node".to_vec();
        let chunk = Chunk::new(ChunkKind::IndexNode, payload.clone());
        assert_eq!(hash_index_node(&payload), chunk.address());
    }

    #[test]
    fn size_accounting() {
        let mut proof = IndexProof::empty();
        proof.push_node(vec![0u8; 10]);
        proof.push_node(vec![0u8; 22]);
        assert_eq!(proof.len(), 2);
        assert_eq!(proof.size_bytes(), 32);
        assert!(!proof.is_empty());
    }
}
