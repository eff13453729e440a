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
//!   through each shard's group-commit pipeline, with two-phase commit over
//!   `spitz-txn` participants for batches that span shards;
//! * a **snapshot read path**: a [`ShardedSnapshot`] pins a consistent-cut
//!   digest once and serves repeatable verified reads against that pin;
//! * a **table layer**: typed records and their analytical
//!   queries, kept as cells and index cells in the ledgers;
//! * a **client side**: the single [`proof::Verifier`] entry point that
//!   pins one digest and verifies every proof shape — point, batched and
//!   complete range.
//!
//! The one public database is [`ShardedDb`]: N ≥ 1 shards, each a
//! [`SpitzDb`] (a chunk store and a ledger), behind one keyspace and one
//! [`ShardedDigest`]. One shard is the single-node database of the paper's
//! evaluation; the server, the light client, the examples and the
//! benchmark all use this type.
//!
//! # Quickstart
//!
//! ```
//! use spitz_core::{ShardedDb, Verifier};
//!
//! let db = ShardedDb::in_memory(1);
//! db.put(b"patient/42/diagnosis", b"ICD-10 E11.9").unwrap();
//!
//! // Unverified fast path.
//! assert_eq!(db.get(b"patient/42/diagnosis").unwrap().as_deref(), Some(b"ICD-10 E11.9".as_ref()));
//!
//! // Verified read: the proof is checked against the pinned digest.
//! let mut client = Verifier::new();
//! assert!(client.observe_sharded(&db.digest()));
//! let (value, proof) = db.get_verified(b"patient/42/diagnosis").unwrap();
//! assert!(client.verify_sharded_read(b"patient/42/diagnosis", value.as_deref(), &proof));
//!
//! // Or pin once and read repeatedly against the same snapshot.
//! let snapshot = db.snapshot().unwrap();
//! let (value, proof) = snapshot.get_verified(b"patient/42/diagnosis");
//! assert!(client.verify_sharded_read(b"patient/42/diagnosis", value.as_deref(), &proof));
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
mod table;

pub use cell::UniversalKey;
pub use db::{SpitzConfig, SpitzDb};
pub use error::DbError;
pub use proof::{ShardMultiGroup, ShardedMultiProof, ShardedProof, ShardedRangeProof, Verifier};
pub use schema::{ColumnType, Record, Schema, Value};
pub use sharded::{shard_for, PreparedBatch, ShardedConfig, ShardedDb, ShardedDigest};
pub use snapshot::ShardedSnapshot;
pub use spitz_storage::HealthState;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DbError>;
