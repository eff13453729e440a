//! Cryptographic primitives for the Spitz verifiable database.
//!
//! Everything that the rest of the system relies on for tamper evidence lives
//! here: a from-scratch [SHA-256](sha256::Sha256) implementation, the
//! 32-byte [`Hash`](struct@Hash) digest type, hex encoding, and a binary
//! [Merkle tree](merkle::MerkleTree) with audit and consistency proofs in the
//! style used by transparency logs and ledger databases.
//!
//! The crate deliberately has no external cryptography dependencies so that
//! the whole verification path of the reproduction is auditable in one place.
//!
//! # Example
//!
//! ```
//! use spitz_crypto::{sha256, Hash, merkle::MerkleTree};
//!
//! let digest: Hash = sha256(b"hello world");
//! assert_eq!(
//!     digest.to_hex(),
//!     "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
//! );
//!
//! let tree = MerkleTree::from_leaves([b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
//! let proof = tree.audit_proof(1).unwrap();
//! assert!(proof.verify(tree.root(), b"b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod hex;
pub mod merkle;
pub mod sha256;

pub use hash::Hash;
pub use merkle::{
    smt16_empty, smt16_node, smt16_root, AuditProof, ConsistencyProof, MerkleTree, SMT16_LEVELS,
};
pub use sha256::Sha256;

/// Convenience helper: hash a byte slice with SHA-256 and return the digest.
pub fn sha256(data: &[u8]) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Domain-separated leaf hash (`0x00 || data`), as used by transparency logs
/// to prevent second-preimage attacks that confuse leaves with interior nodes.
pub fn leaf_hash(data: &[u8]) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(&[0x00]);
    hasher.update(data);
    hasher.finalize()
}

/// Domain-separated interior node hash (`0x01 || left || right`).
pub fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut hasher = Sha256::new();
    hasher.update(&[0x01]);
    hasher.update(left.as_bytes());
    hasher.update(right.as_bytes());
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_empty_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn leaf_and_node_hashes_are_domain_separated() {
        let l = leaf_hash(b"x");
        let n = node_hash(&sha256(b"x"), &sha256(b"x"));
        assert_ne!(l, n);
        assert_ne!(l, sha256(b"x"));
    }
}
