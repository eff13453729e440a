//! One shard of a [`ShardedDb`](crate::ShardedDb): a chunk store and the
//! unified ledger over it.
//!
//! `SpitzDb` owns a chunk store and the unified ledger behind a group-commit
//! pipeline. Every write is one ledger commit, sealed through that pipeline
//! on in-memory and durable shards alike. The sharded database routes each
//! key to one `SpitzDb`; a shard has no read method of its own, since every
//! verified read is served by a snapshot of each shard's ledger
//! ([`ShardedSnapshot`](crate::ShardedSnapshot)). What stays public here is
//! what a caller reaches through [`ShardedDb::shard`](crate::ShardedDb::shard):
//! storage, ledger, pipeline, health, scrub and compaction.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_ledger::{CommitPipeline, Digest, DurabilityPolicy, Ledger};
use spitz_obs::TelemetryHandle;
use spitz_storage::{
    ChunkStore, CompactionReport, DurableChunkStore, DurableConfig, HealthState,
    InMemoryChunkStore, ScrubReport, SegmentIoHandle, StorageError, StoreStats,
};
use spitz_txn::CcScheme;

use crate::Result;

/// Configuration for a Spitz instance.
#[derive(Debug, Clone, Copy)]
pub struct SpitzConfig {
    /// SIRI structure used by the ledger.
    pub siri: spitz_index::SiriKind,
    /// Concurrency-control scheme of a `spitz_txn::TransactionManager`.
    /// `SpitzDb` does not read it: a put is a ledger commit, and
    /// cross-shard batches always use MVCC + 2PL participants.
    pub cc_scheme: CcScheme,
    /// Durability policy of the commit pipeline that durable instances
    /// route writes through (see [`DurabilityPolicy`] for the trade-offs).
    /// Purely in-memory instances ([`ShardedDb::in_memory`] /
    /// [`ShardedDb::with_config`]) commit through the same pipeline under
    /// [`DurabilityPolicy::Strict`] and ignore this field.
    ///
    /// [`ShardedDb::in_memory`]: crate::ShardedDb::in_memory
    /// [`ShardedDb::with_config`]: crate::ShardedDb::with_config
    pub durability: DurabilityPolicy,
    /// Record telemetry (counters, latency histograms, event ring) for this
    /// instance. Enabled by default: every instrument is a relaxed atomic
    /// update, cheap enough for the hot paths the paper's figures measure.
    /// Disable to freeze all instruments to no-ops (a single predictable
    /// branch per call site).
    pub telemetry: bool,
}

impl Default for SpitzConfig {
    fn default() -> Self {
        SpitzConfig {
            siri: spitz_index::SiriKind::PosTree,
            cc_scheme: CcScheme::Occ,
            durability: DurabilityPolicy::Strict,
            telemetry: true,
        }
    }
}

impl SpitzConfig {
    /// This configuration with a different durability policy.
    pub fn with_durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }

    /// This configuration with telemetry recording switched on or off.
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A fresh [`TelemetryHandle`] honouring this configuration's
    /// `telemetry` flag.
    pub(crate) fn telemetry_handle(&self) -> TelemetryHandle {
        if self.telemetry {
            TelemetryHandle::new()
        } else {
            TelemetryHandle::disabled()
        }
    }
}

/// One shard of a [`ShardedDb`](crate::ShardedDb): its chunk store, its
/// unified ledger and its group-commit pipeline.
pub struct SpitzDb {
    store: Arc<dyn ChunkStore>,
    ledger: Arc<Ledger>,
    /// The group-commit pipeline every write is routed through. Shut down
    /// (drained + synced) when the db drops.
    pipeline: Arc<CommitPipeline>,
    /// Present on instances opened over a [`DurableChunkStore`]: the
    /// concrete store handle that compaction and scrub need (the trait
    /// object in `store` cannot run a mark-sweep pass).
    durable: Option<Arc<DurableChunkStore>>,
}

impl SpitzDb {
    /// An in-memory shard. Its pipeline runs under
    /// [`DurabilityPolicy::Strict`] whatever `config.durability` says: an
    /// in-memory store has nothing to fsync, so a Strict "fsync" is the
    /// store's no-op, and no `Grouped` timer thread runs for nothing.
    pub(crate) fn in_memory(config: SpitzConfig, telemetry: &TelemetryHandle) -> Result<Self> {
        let config = config.with_durability(DurabilityPolicy::Strict);
        Self::with_store(InMemoryChunkStore::shared(), config, telemetry)
    }

    /// A durable shard persisted under `path`, with `io` beneath the
    /// store's file I/O (`spitz_storage::real_io` in production; a seeded
    /// fault injector in the chaos harnesses). The chunk store, ledger
    /// blocks and index instances all live in append-only segment files
    /// under `path`; reopening the same path recovers the identical digest,
    /// chain head and records roots. `config.siri` must match the kind the
    /// shard was created with.
    pub(crate) fn open(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        telemetry: &TelemetryHandle,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let concrete = Arc::new(DurableChunkStore::open_with_io(
            path,
            durable,
            telemetry.clone(),
            io,
        )?);
        let mut db = Self::with_store(Arc::clone(&concrete) as _, config, telemetry)?;
        db.durable = Some(concrete);
        Ok(db)
    }

    /// A shard over any chunk store, recovering a persisted ledger if the
    /// store holds one. Writes go through a group-commit pipeline governed
    /// by `config.durability`.
    pub(crate) fn with_store(
        store: Arc<dyn ChunkStore>,
        config: SpitzConfig,
        telemetry: &TelemetryHandle,
    ) -> Result<Self> {
        let ledger = Arc::new(Ledger::open_with_kind(Arc::clone(&store), config.siri)?);
        let pipeline = CommitPipeline::with_telemetry(
            Arc::clone(&ledger),
            config.durability,
            telemetry.clone(),
        );
        Ok(SpitzDb {
            store,
            ledger,
            pipeline,
            durable: None,
        })
    }

    /// The group-commit pipeline. Every shard has one, so this is always
    /// `Some`; the `Option` keeps the signature the benchmark crate pins
    /// (`benchmark/README.md`).
    pub fn pipeline(&self) -> Option<&Arc<CommitPipeline>> {
        Some(&self.pipeline)
    }

    /// Drain the commit pipeline and force everything written so far onto
    /// stable storage, regardless of the durability policy.
    pub(crate) fn flush(&self) -> Result<()> {
        Ok(self.pipeline.flush()?)
    }

    /// The unified ledger.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// The backing chunk store.
    pub fn store(&self) -> &Arc<dyn ChunkStore> {
        &self.store
    }

    /// Storage statistics of the backing chunk store.
    pub fn storage_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The concrete durable store, when this instance was opened over one
    /// (compaction diagnostics, fault-injection tests).
    pub fn durable_store(&self) -> Option<&Arc<DurableChunkStore>> {
        self.durable.as_ref()
    }

    /// The GC mark phase: every chunk address this database can still
    /// reach. The set spans the ledger (block chain, head index version,
    /// index roots pinned by live snapshots — see `Ledger::collect_live`),
    /// the target chunk of every named root (ledger head, shard membership,
    /// 2PC staged and decision logs, catalog), and the staged-writes chunks
    /// referenced by the 2PC logs. Everything else in the store is
    /// reclaimable garbage.
    ///
    /// Only meaningful on durable instances; returns an error when called
    /// on an in-memory one.
    pub fn collect_live(&self) -> std::result::Result<HashSet<Hash>, StorageError> {
        let durable = self
            .durable
            .as_ref()
            .ok_or_else(|| StorageError::KeyNotFound("no durable store to mark".into()))?;
        let mut live = HashSet::new();
        self.ledger.collect_live(&mut live)?;
        for (name, address) in durable.roots() {
            live.insert(address);
            crate::staged::collect_staged_references(&self.store, &name, address, &mut live)?;
        }
        Ok(live)
    }

    /// Compact the durable store: mark everything reachable (see
    /// [`SpitzDb::collect_live`]), rewrite the live chunks out of sealed
    /// segments into fresh ones, and delete the old segment files.
    ///
    /// Readers are never blocked — concurrent verified reads, pinned
    /// snapshots and writers keep working throughout, and the digest is
    /// unchanged by construction (compaction moves chunks, it never alters
    /// them). Returns `Ok(None)` on in-memory instances and when the store
    /// has nothing to compact; errors leave the store exactly as it was.
    pub fn compact(&self) -> Result<Option<CompactionReport>> {
        match &self.durable {
            Some(durable) => Ok(durable.compact_with(|| self.collect_live())?),
            None => Ok(None),
        }
    }

    /// The health of the backing store. [`HealthState::Healthy`] in normal
    /// operation; [`HealthState::Degraded`] after exhausted transient-I/O
    /// retries or a fully salvaged quarantine; [`HealthState::ReadOnly`]
    /// once the device is out of space, a write path failed unrecoverably,
    /// or a scrub lost data — verified reads keep serving while every write
    /// fails fast with [`DbError::ReadOnly`]. In-memory instances are
    /// always healthy.
    pub(crate) fn health(&self) -> HealthState {
        self.store.health()
    }

    /// Why the store is degraded or read-only. `None` on non-durable
    /// instances, `Some("")` while healthy.
    pub(crate) fn health_reason(&self) -> Option<String> {
        self.durable_store().map(|d| d.health_reason())
    }

    /// Run one synchronous scrub pass over the durable store's sealed
    /// segments: verify every record CRC and quarantine (with salvage) any
    /// corrupt segment found. Returns `Ok(None)` on in-memory instances.
    pub fn scrub(&self) -> Result<Option<ScrubReport>> {
        let Some(durable) = self.durable_store() else {
            return Ok(None);
        };
        Ok(Some(durable.scrub()?))
    }

    /// The one write path (Section 5.1): seal `writes` into the ledger as
    /// one block labelled `statement`, through the group-commit pipeline,
    /// and return the new digest. A failed seal (disk full, read-only
    /// store) leaves nothing readable: the ledger rolls its index back
    /// before the error surfaces.
    pub(crate) fn commit(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<Digest> {
        Ok(self.pipeline.commit(writes, statement)?)
    }
}

impl Drop for SpitzDb {
    fn drop(&mut self) {
        // Wait for queued commits to be sealed, fsync on this thread and
        // stop the `Grouped` timer before the store closes, so a clean exit
        // never loses acknowledged writes under any durability policy.
        self.pipeline.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard() -> SpitzDb {
        SpitzDb::in_memory(SpitzConfig::default(), &TelemetryHandle::new()).unwrap()
    }

    #[test]
    fn kv_roundtrip_with_and_without_verification() {
        let db = shard();
        db.commit(vec![(b"alpha".to_vec(), b"1".to_vec())], "PUT")
            .unwrap();
        db.commit(vec![(b"beta".to_vec(), b"2".to_vec())], "PUT")
            .unwrap();
        assert_eq!(db.ledger().get(b"alpha"), Some(b"1".to_vec()));
        assert_eq!(db.ledger().get(b"missing"), None);

        let (value, proof) = db.ledger().get_with_proof(b"beta");
        assert_eq!(value, Some(b"2".to_vec()));
        assert!(proof.verify(b"beta", value.as_deref()));

        let digest = db.ledger().digest();
        assert_eq!(digest.block_height, 1);
        assert!(db.storage_stats().chunk_count > 0);
    }

    #[test]
    fn range_reads_return_sorted_windows_with_proofs() {
        let db = shard();
        let writes: Vec<_> = (0..200u32)
            .map(|i| {
                (
                    format!("key-{i:05}").into_bytes(),
                    format!("{i}").into_bytes(),
                )
            })
            .collect();
        db.commit(writes, "PUT BATCH").unwrap();

        let entries = db.ledger().range(b"key-00050", b"key-00060");
        assert_eq!(entries.len(), 10);

        let (entries, proof) = db
            .ledger()
            .snapshot()
            .unwrap()
            .range_with_proof(b"key-00050", b"key-00060");
        assert_eq!(entries.len(), 10);
        assert!(proof.verify(&entries));
    }

    #[test]
    fn every_write_advances_the_digest() {
        let db = shard();
        let put = |value: &[u8]| db.commit(vec![(b"a".to_vec(), value.to_vec())], "PUT");
        let d0 = db.ledger().digest();
        let d1 = put(b"1").unwrap();
        let d2 = put(b"2").unwrap();
        assert_ne!(d0.index_root, d1.index_root);
        assert_ne!(d1.index_root, d2.index_root);
        assert_ne!(d1.journal_root, d2.journal_root);
        assert_eq!(db.ledger().digest(), d2);
        assert_eq!(db.ledger().get(b"a"), Some(b"2".to_vec()));
        assert_eq!(db.ledger().audit_chain(), None);
    }
}
