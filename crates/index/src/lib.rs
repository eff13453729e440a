//! Index structures for the Spitz verifiable database.
//!
//! **Authenticated, structurally-invariant indexes (SIRI)** used for the
//! ledger and for verifiable queries: the
//! [Pattern-Oriented-Split Tree](pos_tree::PosTree) (POS-Tree, from
//! ForkBase), the [Merkle Patricia Trie](mpt::MerklePatriciaTrie) (MPT,
//! from Ethereum) and the [Merkle Bucket Tree](mbt::MerkleBucketTree)
//! (MBT, from Hyperledger Fabric). All three implement the common
//! [`SiriIndex`] trait: content-addressed nodes stored in
//! a [`spitz_storage::ChunkStore`], so unchanged subtrees are physically
//! shared between versions, plus Merkle proofs for point and range lookups.
//!
//! # Example
//!
//! ```
//! use spitz_index::siri::SiriIndex;
//! use spitz_index::pos_tree::PosTree;
//! use spitz_storage::InMemoryChunkStore;
//!
//! let store = InMemoryChunkStore::shared();
//! let mut tree = PosTree::new(store);
//! tree.try_insert(b"k1".to_vec(), b"v1".to_vec()).unwrap();
//! tree.try_insert(b"k2".to_vec(), b"v2".to_vec()).unwrap();
//!
//! let (value, proof) = tree.get_with_proof(b"k1");
//! assert_eq!(value.as_deref(), Some(b"v1".as_ref()));
//! assert!(PosTree::verify_proof(tree.root(), b"k1", value.as_deref(), &proof));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod mbt;
pub mod mpt;
pub mod pos_tree;
pub mod proof;
pub mod siri;

pub use mbt::MerkleBucketTree;
pub use mpt::MerklePatriciaTrie;
pub use pos_tree::PosTree;
pub use proof::{IndexProof, MultiProof};
pub use siri::{collect_reachable, node_children, verify_multi_proof, SiriIndex, SiriKind};
