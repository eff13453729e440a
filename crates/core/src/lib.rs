//! The Spitz verifiable database.
//!
//! This crate assembles the paper's system architecture (Figure 5) from the
//! substrates in the sibling crates:
//!
//! * a **storage layer**: the ForkBase-like chunk store
//!   (`spitz-storage`), the [universal keys](cell::UniversalKey) that name
//!   the cells of the paper's virtual cell store, and the unified
//!   [`spitz_ledger::Ledger`] whose SIRI index holds them and serves both
//!   queries and verification;
//! * a **write path** that is one ledger commit per put or batch, routed
//!   through the ledger's group-commit pipeline on durable instances, with
//!   two-phase commit over `spitz-txn` participants for batches that span
//!   the shards of a [`ShardedDb`];
//! * a **snapshot read path**: [`snapshot::Snapshot`] /
//!   [`snapshot::ShardedSnapshot`] pin a (consistent-cut) digest once and
//!   serve repeatable verified reads against that pin;
//! * a **client side**: the single [`proof::Verifier`] entry point that pins
//!   digests and verifies every proof shape — point, complete range,
//!   sharded point and sharded range — either online or deferred.
//!
//! The [`SpitzDb`] facade wires these together and is the type the
//! examples and benchmarks use.
//!
//! # Quickstart
//!
//! ```
//! use spitz_core::db::SpitzDb;
//! use spitz_core::proof::Verifier;
//!
//! let db = SpitzDb::in_memory();
//! db.put(b"patient/42/diagnosis", b"ICD-10 E11.9").unwrap();
//!
//! // Unverified fast path.
//! assert_eq!(db.get(b"patient/42/diagnosis").unwrap().as_deref(), Some(b"ICD-10 E11.9".as_ref()));
//!
//! // Verified read: the proof is checked against the pinned digest.
//! let mut client = Verifier::new();
//! client.observe_digest(db.digest());
//! let (value, proof) = db.get_verified(b"patient/42/diagnosis").unwrap();
//! assert!(client.verify_read(b"patient/42/diagnosis", value.as_deref(), &proof));
//!
//! // Or pin once and read repeatedly against the same snapshot.
//! let snapshot = db.snapshot().unwrap();
//! let (value, proof) = snapshot.get_verified(b"patient/42/diagnosis");
//! assert!(client.verify_read(b"patient/42/diagnosis", value.as_deref(), &proof));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod db;
pub mod error;
pub mod proof;
pub mod schema;
pub mod sharded;
pub mod snapshot;
pub mod staged;

pub use cell::UniversalKey;
pub use db::{SpitzConfig, SpitzDb, CATALOG_ROOT};
pub use error::DbError;
pub use proof::{ShardMultiGroup, ShardedMultiProof, ShardedProof, ShardedRangeProof, Verifier};
pub use schema::{ColumnType, Record, Schema, Value};
pub use sharded::{
    shard_for, PreparedBatch, ShardedConfig, ShardedDb, ShardedDigest, SHARDED_HEAD_ROOT,
    SHARD_MEMBER_ROOT,
};
pub use snapshot::{ShardedSnapshot, Snapshot};
pub use spitz_storage::HealthState;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DbError>;
