//! Content-addressed chunks — the unit of physical storage.
//!
//! Everything the storage layer persists is a [`Chunk`]: an immutable byte
//! payload tagged with a [`ChunkKind`]. A chunk's address is the SHA-256 hash
//! of its kind byte followed by its payload, so two chunks with identical
//! payloads but different kinds have different addresses, and identical
//! chunks are automatically deduplicated by the store.

use bytes::Bytes;
use spitz_crypto::{Hash, Sha256};

/// The role a chunk plays in the Merkle DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChunkKind {
    /// Raw user data produced by the content-defined chunker.
    Blob,
    /// A meta node listing the chunk hashes (and sizes) that make up a larger
    /// blob object.
    Meta,
    /// A serialized index node (POS-Tree / MPT / MBT).
    IndexNode,
    /// A commit object in the version manager: points at a root hash and at
    /// parent commits.
    Commit,
    /// A ledger block.
    Block,
    /// A serialized database cell.
    Cell,
    /// A Merkle-Patricia-Trie node addressed by its *sparse-branch
    /// commitment* rather than the plain payload hash: branch children are
    /// hashed as a 4-level sparse Merkle subtree (see
    /// [`crate::mpt_commit`]), so a proof step over a radix-16 branch
    /// reveals ~4 sibling hashes instead of 15.
    MptNode,
}

impl ChunkKind {
    /// Stable one-byte tag mixed into the content address.
    pub fn tag(self) -> u8 {
        match self {
            ChunkKind::Blob => 0,
            ChunkKind::Meta => 1,
            ChunkKind::IndexNode => 2,
            ChunkKind::Commit => 3,
            ChunkKind::Block => 4,
            ChunkKind::Cell => 5,
            ChunkKind::MptNode => 6,
        }
    }

    /// Parse a tag byte back into a kind.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ChunkKind::Blob),
            1 => Some(ChunkKind::Meta),
            2 => Some(ChunkKind::IndexNode),
            3 => Some(ChunkKind::Commit),
            4 => Some(ChunkKind::Block),
            5 => Some(ChunkKind::Cell),
            6 => Some(ChunkKind::MptNode),
            _ => None,
        }
    }

    /// Human-readable name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            ChunkKind::Blob => "blob",
            ChunkKind::Meta => "meta",
            ChunkKind::IndexNode => "index-node",
            ChunkKind::Commit => "commit",
            ChunkKind::Block => "block",
            ChunkKind::Cell => "cell",
            ChunkKind::MptNode => "mpt-node",
        }
    }
}

/// An immutable, content-addressed unit of storage.
#[derive(Debug, Clone)]
pub struct Chunk {
    kind: ChunkKind,
    data: Bytes,
    /// Lazily computed (or caller-seeded) content address. MPT-node
    /// addresses fold a sparse-Merkle subtree per branch, so computing an
    /// address is not free; caching it makes repeated `address()` calls
    /// (put → dedup → stats) cost one computation, and lets write paths
    /// that already know the commitment skip it entirely.
    address: std::sync::OnceLock<Hash>,
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind && self.data == other.data
    }
}

impl Eq for Chunk {}

impl Chunk {
    /// Create a chunk from a kind and payload bytes.
    pub fn new(kind: ChunkKind, data: impl Into<Bytes>) -> Self {
        Chunk {
            kind,
            data: data.into(),
            address: std::sync::OnceLock::new(),
        }
    }

    /// Create a chunk whose content address the caller has already
    /// computed (e.g. an MPT branch commitment maintained incrementally).
    /// The address MUST equal what [`Chunk::address`] would compute —
    /// debug builds assert it; a wrong address in release would break
    /// content addressing.
    pub fn with_address(kind: ChunkKind, data: impl Into<Bytes>, address: Hash) -> Self {
        let chunk = Chunk {
            kind,
            data: data.into(),
            address: std::sync::OnceLock::new(),
        };
        debug_assert_eq!(
            address,
            chunk.compute_address(),
            "Chunk::with_address seeded with a wrong address"
        );
        let _ = chunk.address.set(address);
        chunk
    }

    /// The chunk's role in the DAG.
    pub fn kind(&self) -> ChunkKind {
        self.kind
    }

    /// The chunk payload.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The content address: `SHA-256(kind_tag || payload)` — except for
    /// [`ChunkKind::MptNode`] chunks, whose address *is* the node's
    /// sparse-branch commitment (see [`crate::mpt_commit::mpt_commitment`]).
    /// Addressing MPT nodes by commitment is what lets proofs reveal ~4
    /// sibling hashes per branch step instead of all 15 children while the
    /// store stays purely content-addressed: the child pointers stored in a
    /// node payload are the children's chunk addresses, i.e. their
    /// commitments. A payload that does not decode as an MPT node falls
    /// back to the plain tagged hash.
    pub fn address(&self) -> Hash {
        *self.address.get_or_init(|| self.compute_address())
    }

    fn compute_address(&self) -> Hash {
        if self.kind == ChunkKind::MptNode {
            if let Some(commitment) = crate::mpt_commit::mpt_commitment(&self.data) {
                return commitment;
            }
        }
        let mut hasher = Sha256::new();
        hasher.update(&[self.kind.tag()]);
        hasher.update(&self.data);
        hasher.finalize()
    }

    /// Bytes occupied by this chunk when accounting for physical storage
    /// (payload plus the one-byte kind tag plus the 32-byte address entry).
    pub fn storage_size(&self) -> usize {
        self.data.len() + 1 + spitz_crypto::hash::HASH_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_depends_on_kind_and_data() {
        let a = Chunk::new(ChunkKind::Blob, &b"payload"[..]);
        let b = Chunk::new(ChunkKind::Meta, &b"payload"[..]);
        let c = Chunk::new(ChunkKind::Blob, &b"other"[..]);
        assert_ne!(a.address(), b.address());
        assert_ne!(a.address(), c.address());
        assert_eq!(
            a.address(),
            Chunk::new(ChunkKind::Blob, &b"payload"[..]).address()
        );
    }

    #[test]
    fn kind_tag_roundtrip() {
        for kind in [
            ChunkKind::Blob,
            ChunkKind::Meta,
            ChunkKind::IndexNode,
            ChunkKind::Commit,
            ChunkKind::Block,
            ChunkKind::Cell,
            ChunkKind::MptNode,
        ] {
            assert_eq!(ChunkKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(ChunkKind::from_tag(250), None);
    }

    #[test]
    fn storage_size_includes_overhead() {
        let c = Chunk::new(ChunkKind::Blob, vec![0u8; 100]);
        assert_eq!(c.storage_size(), 100 + 1 + 32);
        assert_eq!(c.len(), 100);
        assert!(!c.is_empty());
    }
}
