//! The `SpitzDb` facade: the public API of the Spitz verifiable database.
//!
//! `SpitzDb` owns a chunk store, the unified ledger (behind a group-commit
//! pipeline on durable instances) and a typed table layer (schemas, records,
//! inverted indexes for the analytical path). It exposes the operations the
//! paper's evaluation measures: point/range reads and writes, each with and
//! without verification. Every write is one ledger commit.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;
use spitz_crypto::Hash;
use spitz_ledger::{CommitPipeline, Digest, DurabilityPolicy, Ledger, LedgerProof, VerifiedRange};
use spitz_obs::{Histogram, TelemetryHandle, TelemetrySnapshot};
use spitz_storage::{
    real_io, Chunk, ChunkKind, ChunkStore, CompactionReport, DurableChunkStore, DurableConfig,
    HealthState, InMemoryChunkStore, ScrubReport, SegmentIoHandle, StorageError, StoreStats,
};
use spitz_txn::CcScheme;

use crate::cell::UniversalKey;
use crate::error::DbError;
use crate::schema::{ColumnDef, ColumnType, Record, Schema, Value};
use crate::snapshot::Snapshot;
use crate::Result;

/// Named root under which the typed-table catalog (the set of
/// [`Schema`]s created with [`SpitzDb::create_table`]) is persisted, so a
/// reopened database still knows its tables.
pub const CATALOG_ROOT: &str = "spitz/catalog";

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
    /// Purely in-memory instances ([`SpitzDb::in_memory`] /
    /// [`SpitzDb::with_config`]) commit inline and ignore this field.
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

/// Inverted index of one column: cell value → primary keys that ever held it.
type InvertedIndex = BTreeMap<Value, BTreeSet<String>>;

/// Typed table state, held in memory, outside every proof, and rebuilt from
/// the ledger on open: the schema, one inverted index per column and the
/// primary map from primary key to the record's latest timestamp. The
/// paper's §5 containers (skip lists, radix trees, a B+-tree) are the
/// standard library's B-tree here, which on 100 000 records (2-core x86-64
/// Linux) built in 54–75 ms instead of 91–97 ms, held 28.8 MB of heap
/// instead of 31.2 MB, and answered equality and range lookups within noise
/// of them.
struct Table {
    schema: Schema,
    /// First universal-key column id of this table. Column ids are
    /// allocated globally (`base + position`), so two tables never share a
    /// universal-key range — which is what lets the catalog rebuild scan
    /// each table's cells unambiguously.
    column_base: u32,
    /// One inverted index per column, by schema position.
    inverted: Vec<InvertedIndex>,
    primary: HashMap<Vec<u8>, u64>,
    next_timestamp: u64,
}

impl Table {
    /// Fresh table state for a schema: one empty inverted index per column.
    fn empty(schema: Schema, column_base: u32) -> Table {
        Table {
            inverted: vec![InvertedIndex::new(); schema.columns.len()],
            schema,
            column_base,
            primary: HashMap::new(),
            next_timestamp: 1,
        }
    }

    /// Index one committed cell: the `column`-th column of `primary_key`
    /// holds `value` as of `timestamp`. The primary map keeps the newest
    /// timestamp whatever order cells arrive in, and new records are
    /// stamped after every timestamp seen.
    fn index(&mut self, column: usize, value: Value, primary_key: &[u8], timestamp: u64) {
        self.inverted[column]
            .entry(value)
            .or_default()
            .insert(String::from_utf8_lossy(primary_key).into_owned());
        let latest = self
            .primary
            .entry(primary_key.to_vec())
            .or_insert(timestamp);
        *latest = (*latest).max(timestamp);
        self.next_timestamp = self.next_timestamp.max(timestamp + 1);
    }

    /// The inverted index of a named column, which must hold `column_type`
    /// values.
    fn column_index(&self, column: &str, column_type: ColumnType) -> Result<&InvertedIndex> {
        let position = self.schema.column_id(column)? as usize;
        let expected = self.schema.columns[position].column_type;
        if expected != column_type {
            return Err(DbError::TypeMismatch {
                column: column.to_string(),
                expected: expected.name(),
            });
        }
        Ok(&self.inverted[position])
    }
}

const CATALOG_MAGIC: &[u8] = b"spitz-catalog\0";

/// Payload of the catalog chunk: magic ‖ table count ‖ per table (name,
/// column base, column count, per column (name, type tag)). Uses the shared
/// `spitz_index::codec` framing helpers.
fn encode_catalog(tables: &[(&Schema, u32)]) -> Vec<u8> {
    use spitz_index::codec::{put_bytes, put_u32};
    let mut out = Vec::new();
    out.extend_from_slice(CATALOG_MAGIC);
    put_u32(&mut out, tables.len() as u32);
    for (schema, column_base) in tables {
        put_bytes(&mut out, schema.table.as_bytes());
        put_u32(&mut out, *column_base);
        put_u32(&mut out, schema.columns.len() as u32);
        for column in &schema.columns {
            put_bytes(&mut out, column.name.as_bytes());
            out.push(match column.column_type {
                ColumnType::Integer => 0,
                ColumnType::Text => 1,
                ColumnType::Bytes => 2,
            });
        }
    }
    out
}

/// Inverse of [`encode_catalog`]: `(schema, column_base)` per table. `None`
/// for malformed bytes.
fn decode_catalog(bytes: &[u8]) -> Option<Vec<(Schema, u32)>> {
    let bytes = bytes.strip_prefix(CATALOG_MAGIC)?;
    let mut r = spitz_index::codec::Reader::new(bytes);
    // A table takes at least 12 bytes (name length, column base, column
    // count) and a column at least 5 (name length, type tag).
    let table_count = r.count(12)?;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let table = String::from_utf8(r.bytes()?.to_vec()).ok()?;
        let column_base = r.u32()?;
        let column_count = r.count(5)?;
        let mut columns = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let name = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let column_type = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Text,
                2 => ColumnType::Bytes,
                _ => return None,
            };
            columns.push(ColumnDef { name, column_type });
        }
        tables.push((Schema { table, columns }, column_base));
    }
    r.is_exhausted().then_some(tables)
}

/// Build-latency and encoded-size histograms of one proof kind.
pub(crate) struct ProofMeter {
    build_nanos: Arc<Histogram>,
    bytes: Arc<Histogram>,
}

impl ProofMeter {
    fn new(telemetry: &TelemetryHandle, kind: &str) -> Self {
        ProofMeter {
            build_nanos: telemetry.histogram(&format!("proof.{kind}_build_nanos")),
            bytes: telemetry.histogram(&format!("proof.{kind}_bytes")),
        }
    }

    /// Start timing one proof build (`None`, no clock read, when telemetry
    /// is disabled).
    pub(crate) fn start(&self) -> Option<Instant> {
        self.build_nanos.start()
    }

    /// Record the build latency since [`ProofMeter::start`] and the proof's
    /// size. `encoded_len` is only evaluated when something records it.
    pub(crate) fn finish(&self, start: Option<Instant>, encoded_len: impl FnOnce() -> usize) {
        if start.is_some() {
            self.build_nanos.finish(start);
            self.bytes.record(encoded_len() as u64);
        }
    }
}

/// Proof-layer instruments, resolved once at construction so the verified
/// read paths never touch the registry maps: `proof.<level>point_*`,
/// `proof.<level>range_*` and `proof.<level>multi_*`, where `level` is empty
/// for single-ledger proofs and `sharded_` for cross-shard ones.
pub(crate) struct ProofObs {
    pub(crate) point: ProofMeter,
    pub(crate) range: ProofMeter,
    pub(crate) multi: ProofMeter,
}

impl ProofObs {
    pub(crate) fn new(telemetry: &TelemetryHandle, level: &str) -> Self {
        ProofObs {
            point: ProofMeter::new(telemetry, &format!("{level}point")),
            range: ProofMeter::new(telemetry, &format!("{level}range")),
            multi: ProofMeter::new(telemetry, &format!("{level}multi")),
        }
    }
}

/// The Spitz verifiable database.
pub struct SpitzDb {
    store: Arc<dyn ChunkStore>,
    ledger: Arc<Ledger>,
    tables: RwLock<HashMap<String, Table>>,
    /// Present on durable instances: the group-commit pipeline writes are
    /// routed through. Shut down (drained + synced) when the db drops.
    pipeline: Option<Arc<CommitPipeline>>,
    /// Present on instances opened over a [`DurableChunkStore`]: the
    /// concrete store handle that compaction and scrub need (the trait
    /// object in `store` cannot run a mark-sweep pass).
    durable: Option<Arc<DurableChunkStore>>,
    /// Telemetry registry shared by every layer of this instance (storage,
    /// pipeline, proofs; the sharded wrapper adds 2PC).
    telemetry: TelemetryHandle,
    /// Proof-layer instruments (build latency and proof bytes).
    proof_obs: ProofObs,
}

impl SpitzDb {
    /// Create an in-memory instance with the default configuration (POS-Tree
    /// ledger, inline commits) — the configuration evaluated in the paper.
    pub fn in_memory() -> Self {
        Self::with_config(SpitzConfig::default())
    }

    /// Create an instance with an explicit configuration.
    pub fn with_config(config: SpitzConfig) -> Self {
        let telemetry = config.telemetry_handle();
        Self::with_config_and_telemetry(config, telemetry)
    }

    /// In-memory construction over a caller-supplied telemetry handle (the
    /// sharded wrapper shares one registry across all shards).
    pub(crate) fn with_config_and_telemetry(
        config: SpitzConfig,
        telemetry: TelemetryHandle,
    ) -> Self {
        let raw = InMemoryChunkStore::shared();
        let store: Arc<dyn ChunkStore> = raw;
        let ledger = Arc::new(Ledger::with_kind(Arc::clone(&store), config.siri));
        // Purely in-memory instances commit without a pipeline: there is
        // no fsync to amortize, and even its idle path (which seals on the
        // caller's thread) would add a lock and a policy check to the hot
        // path the paper's figures measure.
        Self::assemble(store, ledger, config, false, telemetry)
    }

    /// Open (or create) a durable instance persisted under `path` with the
    /// default configuration.
    ///
    /// The chunk store, ledger blocks and index instances all live in
    /// append-only segment files under `path`; reopening the same path
    /// recovers the identical digest, chain head and records roots, and
    /// keeps serving verifying Merkle proofs. The typed-table catalog of
    /// [`SpitzDb::create_table`] is persisted under the [`CATALOG_ROOT`]
    /// named root and rebuilt (schemas plus analytical indexes, by scanning
    /// the ledger's universal-key ranges) on reopen.
    /// Writes are routed through a group-commit pipeline with
    /// the default [`DurabilityPolicy::Strict`] — every acknowledged commit
    /// is fsynced; pick `Grouped` via [`SpitzDb::open_with_config`] to
    /// amortize the fsync across commits instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_config(path, SpitzConfig::default())
    }

    /// Open (or create) a durable instance under `path` with an explicit
    /// Spitz configuration. `config.siri` must match the kind the database
    /// was created with.
    pub fn open_with_config(path: impl AsRef<Path>, config: SpitzConfig) -> Result<Self> {
        Self::open_with_configs(path, config, DurableConfig::default())
    }

    /// Open (or create) a durable instance with explicit Spitz *and*
    /// storage tuning (segment size, chunk-cache budget, fsync policy).
    pub fn open_with_configs(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
    ) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::open_with_telemetry(path, config, durable, telemetry)
    }

    /// Open (or create) a durable instance with a caller-supplied
    /// [`SegmentIoHandle`] installed beneath the store's file I/O. The
    /// production handle is [`real_io`]; fault-injection harnesses install
    /// a seeded injector here to drive torn writes, bit flips, `ENOSPC`,
    /// and fsync failures through the *real* recovery, retry and health
    /// machinery.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::open_full(path, config, durable, telemetry, io)
    }

    /// Durable construction over a caller-supplied telemetry handle (the
    /// sharded wrapper shares one registry across all shards).
    pub(crate) fn open_with_telemetry(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        telemetry: TelemetryHandle,
    ) -> Result<Self> {
        Self::open_full(path, config, durable, telemetry, real_io())
    }

    pub(crate) fn open_full(
        path: impl AsRef<Path>,
        config: SpitzConfig,
        durable: DurableConfig,
        telemetry: TelemetryHandle,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let concrete = Arc::new(DurableChunkStore::open_with_io(
            path,
            durable,
            telemetry.clone(),
            io,
        )?);
        let store: Arc<dyn ChunkStore> = Arc::clone(&concrete) as Arc<dyn ChunkStore>;
        let mut db = Self::with_store_and_telemetry(store, config, telemetry)?;
        db.durable = Some(concrete);
        Ok(db)
    }

    /// Build an instance over any chunk store, recovering a persisted
    /// ledger if the store holds one (the reopen path for custom backends).
    /// Writes go through a group-commit pipeline governed by
    /// `config.durability`.
    pub fn with_store(store: Arc<dyn ChunkStore>, config: SpitzConfig) -> Result<Self> {
        let telemetry = config.telemetry_handle();
        Self::with_store_and_telemetry(store, config, telemetry)
    }

    pub(crate) fn with_store_and_telemetry(
        store: Arc<dyn ChunkStore>,
        config: SpitzConfig,
        telemetry: TelemetryHandle,
    ) -> Result<Self> {
        let ledger = Arc::new(Ledger::open_with_kind(Arc::clone(&store), config.siri)?);
        let db = Self::assemble(store, ledger, config, true, telemetry);
        db.reload_catalog()?;
        Ok(db)
    }

    fn assemble(
        store: Arc<dyn ChunkStore>,
        ledger: Arc<Ledger>,
        config: SpitzConfig,
        group_commit: bool,
        telemetry: TelemetryHandle,
    ) -> Self {
        let pipeline = group_commit.then(|| {
            CommitPipeline::with_telemetry(
                Arc::clone(&ledger),
                config.durability,
                telemetry.clone(),
            )
        });
        let proof_obs = ProofObs::new(&telemetry, "");
        SpitzDb {
            store,
            ledger,
            tables: RwLock::new(HashMap::new()),
            pipeline,
            durable: None,
            telemetry,
            proof_obs,
        }
    }

    /// The group-commit pipeline, present on durable instances.
    pub fn pipeline(&self) -> Option<&Arc<CommitPipeline>> {
        self.pipeline.as_ref()
    }

    /// Drain the commit pipeline (if any) and force everything written so
    /// far onto stable storage, regardless of the durability policy.
    pub fn flush(&self) -> Result<()> {
        match &self.pipeline {
            Some(pipeline) => pipeline.flush()?,
            None => self.store.sync()?,
        }
        Ok(())
    }

    /// A point-in-time snapshot of every telemetry instrument this
    /// instance has touched, across the storage, commit-pipeline and proof
    /// layers (plus 2PC on sharded deployments, which share the registry).
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live telemetry handle backing [`SpitzDb::telemetry`] (for
    /// resolving instruments or recording application-level events).
    pub fn telemetry_handle(&self) -> &TelemetryHandle {
        &self.telemetry
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
    /// the target chunk of every named root (catalog, shard membership,
    /// cross-shard head, 2PC logs), and the staged-writes chunks referenced
    /// by the 2PC staged/decision logs. Everything else in the store is
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
    pub fn health(&self) -> HealthState {
        self.store.health()
    }

    /// Why the store is degraded or read-only. `None` on non-durable
    /// instances, `Some("")` while healthy.
    pub fn health_reason(&self) -> Option<String> {
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

    /// The current database digest (what clients pin).
    pub fn digest(&self) -> Digest {
        self.ledger.digest()
    }

    /// Pin the current state as a [`Snapshot`]: quiesce the commit pipeline
    /// (when one exists), then capture the digest and an index checkout in
    /// one step. All reads against the snapshot are repeatable and their
    /// proofs verify against the pinned digest while writers keep
    /// committing ("pin once, verify many").
    pub fn snapshot(&self) -> Result<Snapshot> {
        if let Some(pipeline) = &self.pipeline {
            pipeline.fence()?;
        }
        Ok(Snapshot::new(self.ledger.snapshot()?))
    }

    // ------------------------------------------------------------------
    // Key/value API (the operations measured in Figures 6–8)
    // ------------------------------------------------------------------

    /// Write one key/value pair (sealed as its own ledger block).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Digest> {
        self.commit(vec![(key.to_vec(), value.to_vec())], "PUT")
    }

    /// Write a batch atomically as one ledger block.
    pub fn put_batch(&self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<Digest> {
        self.commit(writes, "PUT BATCH")
    }

    /// The one write path (Section 5.1): seal `writes` into the ledger as
    /// one block labelled `statement` — through the group-commit pipeline
    /// when one exists, inline otherwise — and return the new digest. A
    /// failed seal (disk full, read-only store) leaves nothing readable:
    /// the ledger rolls its index back before the error surfaces.
    pub(crate) fn commit(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<Digest> {
        match &self.pipeline {
            Some(pipeline) => Ok(pipeline.commit(writes, statement)?),
            None => Ok(self.ledger.try_append_block(writes, statement)?),
        }
    }

    /// Unverified point read.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.ledger.get(key))
    }

    /// Verified point read: value plus ledger proof.
    pub fn get_verified(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, LedgerProof)> {
        let timer = self.proof_obs.point.start();
        let (value, proof) = self.ledger.get_with_proof(key);
        self.proof_obs.point.finish(timer, || proof.encoded_len());
        Ok((value, proof))
    }

    /// Batched verified point read: all keys are resolved against one
    /// consistent ledger state and covered by a single
    /// [`LedgerProof`] that shares the keys' common upper-tree nodes,
    /// so a k-key batch costs less on the wire than k independent
    /// [`SpitzDb::get_verified`] calls.
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> Result<(Vec<Option<Vec<u8>>>, LedgerProof)> {
        let timer = self.proof_obs.multi.start();
        let (values, proof) = self.ledger.get_multi_with_proof(keys);
        self.proof_obs.multi.finish(timer, || proof.encoded_len());
        Ok((values, proof))
    }

    /// Unverified range read over `start <= key < end`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.ledger.range(start, end))
    }

    /// Verified range read: entries plus a combined proof from the unified
    /// index traversal.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> Result<VerifiedRange> {
        let timer = self.proof_obs.range.start();
        let (entries, proof) = self.ledger.range_with_proof(start, end);
        self.proof_obs.range.finish(timer, || proof.encoded_len());
        Ok((entries, proof))
    }

    // ------------------------------------------------------------------
    // Typed table API (HTAP path: records, cells, inverted indexes)
    // ------------------------------------------------------------------

    /// Create a table from a schema. Every column gets an in-memory
    /// inverted index from cell value to the primary keys that held it,
    /// which serves [`SpitzDb::query_eq`] and [`SpitzDb::query_int_range`].
    /// The schema is persisted under the [`CATALOG_ROOT`] named root, so it
    /// survives [`SpitzDb::open`]. Each table gets its own globally
    /// allocated universal-key column-id range, so no two tables' cells ever
    /// share a key prefix.
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        // The tables lock is held across the catalog publication: two
        // concurrent `create_table` calls must not race the read-encode-
        // publish cycle, or the later root write could durably drop the
        // earlier table.
        let mut tables = self.tables.write();
        let column_base = tables
            .values()
            .map(|t| t.column_base + t.schema.columns.len() as u32)
            .max()
            .unwrap_or(0);
        tables.insert(schema.table.clone(), Table::empty(schema, column_base));
        let catalog: Vec<(&Schema, u32)> = tables
            .values()
            .map(|t| (&t.schema, t.column_base))
            .collect();
        let payload = encode_catalog(&catalog);
        let address = self.store.try_put(Chunk::new(ChunkKind::Meta, payload))?;
        self.store.try_set_root(CATALOG_ROOT, address)?;
        Ok(())
    }

    /// Reload the persisted table catalog (if any) and rebuild each table's
    /// analytical state — inverted indexes, primary map and the next record
    /// timestamp — by scanning the ledger's universal-key ranges.
    fn reload_catalog(&self) -> Result<()> {
        let Some(address) = self.store.root(CATALOG_ROOT) else {
            return Ok(());
        };
        let chunk = self.store.get_kind(&address, ChunkKind::Meta)?;
        let catalog = decode_catalog(chunk.data())
            .ok_or_else(|| DbError::Storage(format!("corrupt catalog chunk {address}")))?;
        let mut tables = self.tables.write();
        for (schema, column_base) in catalog {
            let mut table = Table::empty(schema, column_base);
            self.rebuild_table(&mut table);
            tables.insert(table.schema.table.clone(), table);
        }
        Ok(())
    }

    /// Rebuild one table's in-memory indexes from the ledger: every cell
    /// version in the table's own column-id range is replayed through
    /// [`Table::index`].
    fn rebuild_table(&self, table: &mut Table) {
        for position in 0..table.schema.columns.len() {
            let column_type = table.schema.columns[position].column_type;
            let id = table.column_base + position as u32;
            let start = UniversalKey::column_prefix(id);
            let end = UniversalKey::column_prefix(id + 1);
            for (ukey, encoded) in self.ledger.range(&start, &end) {
                let (Ok(decoded), Ok(value)) =
                    (UniversalKey::decode(&ukey), Value::decode(&encoded))
                else {
                    continue;
                };
                if value.column_type() == column_type {
                    table.index(position, value, &decoded.primary_key, decoded.timestamp);
                }
            }
        }
    }

    /// Insert (or append a new version of) a record: one cell per column,
    /// one ledger block for the whole record. The indexes learn the record
    /// only once its block is in the ledger, so an insert whose append
    /// failed leaves no trace in `get_record` or the queries. An insert
    /// whose block was published but not fsynced (a Strict commit error,
    /// see [`CommitPipeline::commit`]) is indexed and still returns the
    /// error, so the table layer keeps agreeing with the ledger.
    pub fn insert_record(&self, table: &str, record: &Record) -> Result<Digest> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        t.schema.validate(record)?;

        let timestamp = t.next_timestamp;
        t.next_timestamp += 1;

        let mut cells = Vec::with_capacity(record.values.len());
        let mut writes = Vec::with_capacity(record.values.len());
        for (column, value) in &record.values {
            let position = t.schema.column_id(column)?;
            let encoded = value.encode();
            let ukey = UniversalKey::new(
                t.column_base + position,
                record.primary_key.as_bytes().to_vec(),
                timestamp,
                &encoded,
            );
            cells.push((position as usize, value));
            writes.push((ukey.encode(), encoded));
        }
        drop(tables);

        // Every cell key carries the fresh timestamp, so the first one is in
        // the ledger exactly when this block landed.
        let probe = writes.first().map(|(ukey, _)| ukey.clone());
        let result = self.put_batch(writes);
        let landed = result.is_ok() || probe.is_some_and(|ukey| self.ledger.get(&ukey).is_some());
        if !landed {
            return result;
        }
        if let Some(t) = self.tables.write().get_mut(table) {
            for (position, value) in cells {
                t.index(
                    position,
                    value.clone(),
                    record.primary_key.as_bytes(),
                    timestamp,
                );
            }
        }
        result
    }

    /// Read back the latest version of a record.
    pub fn get_record(&self, table: &str, primary_key: &str) -> Result<Option<Record>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let Some(&timestamp) = t.primary.get(primary_key.as_bytes()) else {
            return Ok(None);
        };
        let mut record = Record::new(primary_key);
        for (position, column) in t.schema.columns.iter().enumerate() {
            let column_id = t.column_base + position as u32;
            // The value hash is unknown at lookup time, so scan the cell's
            // key range (all versions) and take the one at `timestamp`.
            let prefix = UniversalKey::cell_prefix(column_id, primary_key.as_bytes());
            let mut end = prefix.clone();
            end.extend_from_slice(&(timestamp + 1).to_be_bytes());
            let mut start = prefix.clone();
            start.extend_from_slice(&timestamp.to_be_bytes());
            for (ukey, encoded) in self.ledger.range(&start, &end) {
                let decoded = UniversalKey::decode(&ukey)?;
                if decoded.timestamp == timestamp {
                    record
                        .values
                        .insert(column.name.clone(), Value::decode(&encoded)?);
                }
            }
        }
        Ok(Some(record))
    }

    /// Analytical lookup: primary keys (sorted) of records whose `column`
    /// equals `value` in some version, served from the inverted index. A
    /// `value` of another type than the column's is a
    /// [`DbError::TypeMismatch`].
    pub fn query_eq(&self, table: &str, column: &str, value: &Value) -> Result<Vec<String>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let index = t.column_index(column, value.column_type())?;
        Ok(index
            .get(value)
            .map_or_else(Vec::new, |keys| keys.iter().cloned().collect()))
    }

    /// Analytical range lookup over an integer column, e.g. "all items with
    /// stock-level lower than 50": primary keys (sorted) of records whose
    /// `column` held a value in `low..high`. Empty when `low >= high`; a
    /// non-integer column is a [`DbError::TypeMismatch`].
    pub fn query_int_range(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
    ) -> Result<Vec<String>> {
        let tables = self.tables.read();
        let t = tables
            .get(table)
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))?;
        let index = t.column_index(column, ColumnType::Integer)?;
        if low >= high {
            // `BTreeMap::range` panics on a reversed range.
            return Ok(Vec::new());
        }
        let keys: BTreeSet<&String> = index
            .range(Value::Integer(low)..Value::Integer(high))
            .flat_map(|(_, keys)| keys)
            .collect();
        Ok(keys.into_iter().cloned().collect())
    }
}

impl Drop for SpitzDb {
    fn drop(&mut self) {
        // Drain queued commits, fsync outstanding work and join the
        // committer thread before the store closes, so a clean exit never
        // loses acknowledged writes under any durability policy.
        if let Some(pipeline) = &self.pipeline {
            pipeline.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip_with_and_without_verification() {
        let db = SpitzDb::in_memory();
        db.put(b"alpha", b"1").unwrap();
        db.put(b"beta", b"2").unwrap();
        assert_eq!(db.get(b"alpha").unwrap(), Some(b"1".to_vec()));
        assert_eq!(db.get(b"missing").unwrap(), None);

        let (value, proof) = db.get_verified(b"beta").unwrap();
        assert_eq!(value, Some(b"2".to_vec()));
        assert!(proof.verify(b"beta", value.as_deref()));

        let digest = db.digest();
        assert_eq!(digest.block_height, 1);
        assert!(db.storage_stats().chunk_count > 0);
    }

    #[test]
    fn range_reads_return_sorted_windows_with_proofs() {
        let db = SpitzDb::in_memory();
        let writes: Vec<_> = (0..200u32)
            .map(|i| {
                (
                    format!("key-{i:05}").into_bytes(),
                    format!("{i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();

        let entries = db.range(b"key-00050", b"key-00060").unwrap();
        assert_eq!(entries.len(), 10);

        let (entries, proof) = db.range_verified(b"key-00050", b"key-00060").unwrap();
        assert_eq!(entries.len(), 10);
        assert!(proof.verify(&entries));
    }

    #[test]
    fn typed_records_and_analytics() {
        let db = SpitzDb::in_memory();
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();

        for i in 0..30 {
            let record = Record::new(format!("item-{i:03}"))
                .with("name", Value::Text(format!("widget-{i}")))
                .with("stock", Value::Integer(i));
            db.insert_record("items", &record).unwrap();
        }

        // Point read of a typed record.
        let record = db.get_record("items", "item-007").unwrap().unwrap();
        assert_eq!(record.get("stock"), Some(&Value::Integer(7)));
        assert_eq!(record.get("name"), Some(&Value::Text("widget-7".into())));
        assert!(db.get_record("items", "item-999").unwrap().is_none());

        // "getting all items with stock-level lower than 5"
        let low = db.query_int_range("items", "stock", 0, 5).unwrap();
        assert_eq!(low.len(), 5);
        assert!(low.contains(&"item-004".to_string()));

        // Equality over a text column.
        let named = db
            .query_eq("items", "name", &Value::Text("widget-12".into()))
            .unwrap();
        assert_eq!(named, vec!["item-012".to_string()]);
    }

    #[test]
    fn schema_violations_are_rejected() {
        let db = SpitzDb::in_memory();
        db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
            .unwrap();
        let bad = Record::new("pk").with("n", Value::Text("not a number".into()));
        assert!(matches!(
            db.insert_record("t", &bad),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(db
            .insert_record("missing-table", &Record::new("pk"))
            .is_err());
        assert!(db.get_record("missing-table", "pk").is_err());
        assert!(db.query_eq("t", "missing-col", &Value::Integer(1)).is_err());

        // A query whose value or range does not fit the column's type is an
        // error, not an empty answer.
        db.create_table(Schema::new("s", vec![("name", ColumnType::Text)]))
            .unwrap();
        assert!(matches!(
            db.query_eq("t", "n", &Value::Text("1".into())),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.query_eq("s", "name", &Value::Bytes(b"ada".to_vec())),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.query_int_range("s", "name", 0, 10),
            Err(DbError::TypeMismatch { .. })
        ));

        // A reversed or empty integer range is empty.
        db.insert_record("t", &Record::new("pk").with("n", Value::Integer(5)))
            .unwrap();
        assert_eq!(db.query_int_range("t", "n", 0, 10).unwrap(), vec!["pk"]);
        assert!(db.query_int_range("t", "n", 10, 0).unwrap().is_empty());
        assert!(db.query_int_range("t", "n", 5, 5).unwrap().is_empty());
    }

    #[test]
    fn decode_catalog_refuses_counts_the_payload_cannot_hold() {
        use spitz_index::codec::{put_bytes, put_u32};
        let mut tables = CATALOG_MAGIC.to_vec();
        put_u32(&mut tables, u32::MAX);
        assert!(decode_catalog(&tables).is_none());

        let mut columns = CATALOG_MAGIC.to_vec();
        put_u32(&mut columns, 1);
        put_bytes(&mut columns, b"t");
        put_u32(&mut columns, 0);
        put_u32(&mut columns, u32::MAX);
        assert!(decode_catalog(&columns).is_none());
    }

    #[test]
    fn a_catalog_with_a_hostile_table_count_fails_the_open() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        {
            let db = SpitzDb::with_store(Arc::clone(&store), SpitzConfig::default()).unwrap();
            db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
                .unwrap();
        }
        let address = store.root(CATALOG_ROOT).expect("catalog published");
        let mut bytes = store.get(&address).unwrap().data().to_vec();
        let count = CATALOG_MAGIC.len();
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let patched = store.put(Chunk::new(ChunkKind::Meta, bytes));
        store.set_root(CATALOG_ROOT, patched);

        let reopened = SpitzDb::with_store(store, SpitzConfig::default());
        assert!(
            matches!(reopened, Err(DbError::Storage(reason)) if reason.contains("corrupt catalog"))
        );
    }

    #[test]
    fn every_write_advances_the_digest() {
        let db = SpitzDb::in_memory();
        let d0 = db.digest();
        db.put(b"a", b"1").unwrap();
        let d1 = db.digest();
        db.put(b"a", b"2").unwrap();
        let d2 = db.digest();
        assert_ne!(d0.index_root, d1.index_root);
        assert_ne!(d1.index_root, d2.index_root);
        assert_ne!(d1.journal_root, d2.journal_root);
        assert_eq!(db.get(b"a").unwrap(), Some(b"2".to_vec()));
        assert_eq!(db.ledger().audit_chain(), None);
    }
}
