//! Tamper-evident ledger for the Spitz verifiable database.
//!
//! The ledger (Section 5 of the paper) is "a sequence of hashed blocks.
//! Each block tracks the modification of the records, query statements,
//! metadata and the root node of the indexes on the entire dataset." Spitz
//! implements the ledger with an index from the SIRI family so that the same
//! structure serves queries *and* verification — the property behind the
//! paper's Figure 6/7 results.
//!
//! The crate provides:
//!
//! * [`block`] — block and transaction-record types plus the hash chain.
//! * [`ledger`] — the unified ledger: a SIRI index instance per block with
//!   node sharing between consecutive blocks, point/range queries whose
//!   proofs ride along the traversal, and digests for client verification.
//!   Its journal — the RFC 6962 [`spitz_crypto::MerkleTree`] over every
//!   block hash — is folded into each digest's `journal_root`.
//! * [`deferred`] — the deferred (batched, asynchronous-style) verification
//!   scheme described in Section 5.3.
//! * [`pipeline`] — the group-commit pipeline: concurrent committers are
//!   coalesced into shared blocks and the fsync cost is amortized according
//!   to a [`DurabilityPolicy`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod deferred;
pub mod ledger;
pub mod pipeline;

pub use block::{Block, BlockHeader, TxnRecord, WriteOp};
pub use deferred::{DeferredVerifier, VerificationReport};
pub use ledger::{
    BlockCost, CommitGroup, Digest, Ledger, LedgerProof, LedgerRangeProof, LedgerSnapshot,
    VerifiedRange, LEDGER_HEAD_ROOT,
};
pub use pipeline::{CommitPipeline, DurabilityPolicy, PipelineStats};
