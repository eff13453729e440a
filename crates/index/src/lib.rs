//! Index structures for the Spitz verifiable database.
//!
//! The paper distinguishes two families of indexes:
//!
//! * **Authenticated, structurally-invariant indexes (SIRI)** used for the
//!   ledger and for verifiable queries: the
//!   [Pattern-Oriented-Split Tree](pos_tree::PosTree) (POS-Tree, from
//!   ForkBase), the [Merkle Patricia Trie](mpt::MerklePatriciaTrie) (MPT,
//!   from Ethereum) and the [Merkle Bucket Tree](mbt::MerkleBucketTree)
//!   (MBT, from Hyperledger Fabric). All three implement the common
//!   [`SiriIndex`] trait: content-addressed nodes stored in
//!   a [`spitz_storage::ChunkStore`], so unchanged subtrees are physically
//!   shared between versions, plus Merkle proofs for point and range lookups.
//! * **Plain query indexes** used purely for performance: an in-memory
//!   [B+-tree](bplus::BPlusTree) for point/range queries over primary keys, a
//!   [skip list](skiplist::SkipList) for numeric inverted lists, and a
//!   [radix tree](radix::RadixTree) for string inverted lists, combined in
//!   the [inverted index](inverted::InvertedIndex) that serves analytical
//!   queries.
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
//! tree.insert(b"k1".to_vec(), b"v1".to_vec());
//! tree.insert(b"k2".to_vec(), b"v2".to_vec());
//!
//! let (value, proof) = tree.get_with_proof(b"k1");
//! assert_eq!(value.as_deref(), Some(b"v1".as_ref()));
//! assert!(PosTree::verify_proof(tree.root(), b"k1", value.as_deref(), &proof));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bplus;
pub mod codec;
pub mod inverted;
pub mod mbt;
pub mod mpt;
pub mod pos_tree;
pub mod proof;
pub mod radix;
pub mod siri;
pub mod skiplist;

pub use bplus::BPlusTree;
pub use inverted::InvertedIndex;
pub use mbt::MerkleBucketTree;
pub use mpt::MerklePatriciaTrie;
pub use pos_tree::PosTree;
pub use proof::{IndexProof, MultiProof};
pub use radix::RadixTree;
pub use siri::{collect_reachable, node_children, verify_multi_proof, SiriIndex, SiriKind};
pub use skiplist::SkipList;
