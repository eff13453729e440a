//! Spitz: a verifiable database system — facade crate.
//!
//! This crate re-exports the public API of the workspace so applications can
//! depend on a single crate:
//!
//! * [`crypto`] — SHA-256, hashes, Merkle trees ([`spitz_crypto`]).
//! * [`storage`] — the ForkBase-like deduplicating store ([`spitz_storage`]).
//! * [`index`] — SIRI indexes ([`spitz_index`]).
//! * [`ledger`] — the tamper-evident unified ledger ([`spitz_ledger`]).
//! * [`txn`] — timestamps, MVCC and concurrency control ([`spitz_txn`]).
//! * [`obs`] — the telemetry layer: metrics registry, latency histograms
//!   and text/JSON exposition ([`spitz_obs`]).
//! * [`core`] — the Spitz database itself ([`spitz_core`]).
//! * [`server`] — the served front-end: wire protocol, threaded TCP
//!   server, and the proof-checking light client ([`spitz_server`]).
//! * [`baseline`] — the systems Spitz is compared against
//!   ([`spitz_baseline`]).
//!
//! The most common entry points are re-exported at the top level:
//! [`ShardedDb`] (the database: N ≥ 1 shards behind one digest),
//! [`Verifier`] (the client that pins that digest), [`ShardedSnapshot`],
//! [`Schema`], [`Record`] and [`Value`].
//!
//! ```
//! use spitz::{ShardedDb, Verifier};
//!
//! let db = ShardedDb::in_memory(1);
//! db.put(b"invoice/2026-001", b"amount=1250;status=paid").unwrap();
//!
//! let mut client = Verifier::new();
//! assert!(client.observe_sharded(&db.digest()));
//! let (value, proof) = db.get_verified(b"invoice/2026-001").unwrap();
//! assert!(client.verify_sharded_read(b"invoice/2026-001", value.as_deref(), &proof));
//!
//! // Pin once, verify many: the snapshot read path.
//! let snapshot = db.snapshot().unwrap();
//! let (value, proof) = snapshot.get_verified(b"invoice/2026-001");
//! assert!(client.verify_sharded_read(b"invoice/2026-001", value.as_deref(), &proof));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use spitz_baseline as baseline;
pub use spitz_core as core;
pub use spitz_crypto as crypto;
pub use spitz_index as index;
pub use spitz_ledger as ledger;
pub use spitz_obs as obs;
pub use spitz_server as server;
pub use spitz_storage as storage;
pub use spitz_txn as txn;

pub use spitz_core::db::SpitzConfig;
pub use spitz_core::proof::{ShardedProof, ShardedRangeProof, Verifier};
pub use spitz_core::schema::{ColumnType, Record, Schema, Value};
pub use spitz_core::sharded::{ShardedConfig, ShardedDb, ShardedDigest};
pub use spitz_core::snapshot::ShardedSnapshot;
pub use spitz_crypto::Hash;
pub use spitz_ledger::{CommitPipeline, Digest, DurabilityPolicy, Ledger};
pub use spitz_obs::{TelemetryHandle, TelemetrySnapshot};
pub use spitz_server::{LightClient, ServerConfig, SpitzClient, SpitzServer};
pub use spitz_storage::{ChunkStore, DurableChunkStore, DurableConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_are_usable() {
        let db = ShardedDb::in_memory(1);
        let shard: Digest = db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v".to_vec()));
        let digest: ShardedDigest = db.digest();
        assert_eq!(digest.shards, vec![shard]);
        assert_ne!(digest.root, Hash::ZERO);
    }
}
