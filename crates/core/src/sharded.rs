//! Multi-shard Spitz: N independent ledgers behind one keyspace, with
//! two-phase commit for cross-shard writes and a cross-shard digest.
//!
//! This is the paper's multi-node deployment (Section 5.2) over the real
//! storage stack: "the solution is to add distributed transactions to each
//! node, and follow the two-phase commit (2PC) protocol to coordinate each
//! transaction so that transactions committed by different nodes can be
//! made serializable."
//! Concretely:
//!
//! * **One shard = one processor node.** Each shard owns a full [`SpitzDb`]
//!   — its own chunk store (in-memory, or durable under its own directory),
//!   unified ledger and group-commit pipeline. Keys route to shards by the
//!   same content hash `spitz_txn`'s 2PC coordinator uses, so the mapping
//!   is deterministic and client-recomputable.
//! * **Single-key operations** (`put`/`get`/`get_verified`) route straight
//!   to the owning shard and cost what one shard's ledger costs (plus, for
//!   a verified read, the audit path to the cross-shard root) — this is
//!   where the partitioned-journal shape gets its scaling: W
//!   writers spread over N shards contend on N ledgers and N commit
//!   pipelines instead of one.
//! * **Cross-shard batches** run real two-phase commit: every involved
//!   shard's [`spitz_txn::Participant`] validates under MVCC + 2PL
//!   (no-wait locks, so distributed deadlock is impossible), durably
//!   *stages* its part in its own chunk store, and votes. Only when every
//!   shard votes yes do the prepared writes flow into each shard's ledger
//!   (through the same one-commit write path a single put takes); on any
//!   no-vote — conflict, disk full, crash injection — every shard aborts
//!   and nothing becomes visible. A coordinator crash between prepare and
//!   commit is resolved by [`ShardedDb::recover`] with presumed abort.
//! * **The cross-shard digest** ([`ShardedDigest`]) is a small Merkle tree
//!   (RFC 6962 shape, from `spitz_crypto::merkle`) whose leaves are the
//!   per-shard [`Digest`]s. A client pins the single root and can verify a
//!   read anywhere in the keyspace: the shard's ledger proof chains to the
//!   shard digest, and an audit path chains the shard digest to the pinned
//!   root ([`ShardedProof`]). The digest is recomputed from the per-shard
//!   ledger heads, so nothing beyond those heads is persisted for it.
//! * **The epoch fence** makes [`ShardedDb::digest`] a true consistent cut
//!   under concurrent writers: every commit path holds the fence shared
//!   until its block is sealed, and a cut takes it exclusively (draining
//!   any in-flight commits) before reading the per-shard heads — so a
//!   published root can never mix one half of a cross-shard transaction
//!   with the other half missing. [`ShardedDb::snapshot`] pins such a cut
//!   as a [`crate::snapshot::ShardedSnapshot`] for repeatable verified
//!   reads, including verified cross-shard ranges ([`ShardedRangeProof`]).
//! * **One verified-read path**: take a cut, then prove from it. Pinning a
//!   shard's ledger at its head reads nothing from the store, for every
//!   index kind, so the one-shot [`ShardedDb::get_verified`] /
//!   [`ShardedDb::get_multi_verified`] / [`ShardedDb::range_verified`] take
//!   the cut exactly as [`ShardedDb::snapshot`] does and answer through the
//!   [`ShardedSnapshot`]'s methods, which alone assemble cross-shard
//!   proofs. They hold the fence until the proof is built; releasing it
//!   right after the pin would only narrow one guard's scope.

use std::path::Path;
use std::sync::Arc;

use spitz_crypto::merkle::{AuditProof, MerkleTree};
use spitz_crypto::Hash;
use spitz_ledger::Digest;
use spitz_obs::{Counter, TelemetryHandle, TelemetrySnapshot};
use spitz_storage::{
    real_io, Chunk, ChunkKind, ChunkStore, CompactionReport, DurableConfig, SegmentIoHandle,
};
use spitz_txn::TwoPhaseCoordinator;
use spitz_txn::{CcScheme, Participant, PreparedApply, PreparedGlobal, TimestampOracle};

pub use crate::proof::{ShardMultiGroup, ShardedMultiProof, ShardedProof, ShardedRangeProof};

use crate::db::{SpitzConfig, SpitzDb};
use crate::error::DbError;
use crate::snapshot::{ProofObs, ShardedSnapshot};
use crate::staged::{StagedEntry, StagedLog};
use crate::table::Tables;
use crate::Result;

/// Named root of the per-shard membership record: which shard index of how
/// many this store is. Guards a sharded database against being reassembled
/// with the wrong shard count or with shard directories swapped.
pub(crate) const SHARD_MEMBER_ROOT: &str = "spitz/sharded/member";

/// Which shard of `shards` owns `key`. This is the routing function used by
/// [`ShardedDb`], `spitz_txn`'s [`TwoPhaseCoordinator`] and verifying
/// clients alike: the SHA-256 prefix of the key modulo the shard count.
pub fn shard_for(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (spitz_crypto::sha256(key).prefix_u64() % shards as u64) as usize
}

/// Configuration of a sharded Spitz instance.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent ledgers). Must be at least 1.
    pub shards: usize,
    /// Per-shard Spitz configuration (SIRI kind, CC scheme, durability,
    /// telemetry).
    pub spitz: SpitzConfig,
    /// Per-shard storage tuning (segment size, cache budget, fsync
    /// policy). Only [`ShardedDb::open`] and [`ShardedDb::open_with_io`]
    /// use it; in-memory and caller-provided-store instances ignore it.
    pub durable: DurableConfig,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            spitz: SpitzConfig::default(),
            durable: DurableConfig::default(),
        }
    }
}

impl ShardedConfig {
    /// This configuration with a different shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// This configuration with a different per-shard Spitz configuration.
    pub fn with_spitz(mut self, spitz: SpitzConfig) -> Self {
        self.spitz = spitz;
        self
    }

    /// This configuration with different per-shard storage tuning.
    pub fn with_durable(mut self, durable: DurableConfig) -> Self {
        self.durable = durable;
        self
    }
}

/// The cross-shard digest: what a client of a sharded Spitz pins. One
/// Merkle root over the per-shard ledger digests covers the whole keyspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedDigest {
    /// Commit epoch: total number of blocks sealed across all shards. Every
    /// committed write advances some shard's chain, so the epoch advances
    /// with every commit and is reproducible after a restart.
    pub epoch: u64,
    /// Merkle root over the encoded per-shard digests (RFC 6962 shape).
    pub root: Hash,
    /// The per-shard digests, in shard order (the tree's leaves).
    pub shards: Vec<Digest>,
}

impl ShardedDigest {
    /// Compute the digest over per-shard digests, in shard order.
    pub fn over(shards: Vec<Digest>) -> ShardedDigest {
        Cut::over(shards).digest
    }

    /// Self-consistency: the root and epoch really are the ones implied by
    /// the per-shard digests.
    pub fn verify(&self) -> bool {
        !self.shards.is_empty()
            && self.root == merkle_tree(&self.shards).root()
            && self.epoch == self.shards.iter().map(block_count).sum::<u64>()
    }

    /// Canonical byte encoding: what the server sends a client that asks
    /// for the digest it should pin.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + self.shards.len() * DIGEST_ENCODED_LEN);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&(self.shards.len() as u32).to_be_bytes());
        for digest in &self.shards {
            out.extend_from_slice(&digest.encode());
        }
        out
    }

    /// Inverse of [`ShardedDigest::encode`]. Returns `None` for malformed
    /// bytes or when the decoded digest is not self-consistent.
    pub fn decode(bytes: &[u8]) -> Option<ShardedDigest> {
        let epoch = u64::from_be_bytes(bytes.get(..8)?.try_into().ok()?);
        let count = u32::from_be_bytes(bytes.get(8..12)?.try_into().ok()?) as usize;
        let body = bytes.get(12..)?;
        if body.len() != count * DIGEST_ENCODED_LEN {
            return None;
        }
        let shards = body
            .chunks(DIGEST_ENCODED_LEN)
            .map(Digest::decode)
            .collect::<Option<Vec<Digest>>>()?;
        // The root is recomputed from the leaves, so only the epoch and
        // non-emptiness can actually be inconsistent with the payload.
        if shards.is_empty() || epoch != shards.iter().map(block_count).sum::<u64>() {
            return None;
        }
        Some(ShardedDigest {
            epoch,
            root: merkle_tree(&shards).root(),
            shards,
        })
    }
}

/// Byte width of [`Digest::encode`].
const DIGEST_ENCODED_LEN: usize = Digest::ENCODED_LEN;

/// Number of sealed blocks a digest stands for.
fn block_count(digest: &Digest) -> u64 {
    digest.block_count()
}

/// The Merkle tree over encoded per-shard digests.
fn merkle_tree(shards: &[Digest]) -> MerkleTree {
    let leaves: Vec<Vec<u8>> = shards.iter().map(|d| d.encode()).collect();
    MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()))
}

/// A consistent cut as its proofs read it: the cross-shard digest, and the
/// Merkle tree over its leaves that every shard's audit path is taken
/// from, built once when the cut is taken.
pub(crate) struct Cut {
    pub(crate) digest: ShardedDigest,
    tree: MerkleTree,
}

impl Cut {
    /// The cut over per-shard digests, in shard order.
    pub(crate) fn over(shards: Vec<Digest>) -> Cut {
        let tree = merkle_tree(&shards);
        let digest = ShardedDigest {
            epoch: shards.iter().map(block_count).sum(),
            root: tree.root(),
            shards,
        };
        Cut { digest, tree }
    }

    /// Audit path proving that shard `shard`'s digest is a leaf of the
    /// cut's root.
    pub(crate) fn membership(&self, shard: usize) -> AuditProof {
        self.tree
            .audit_proof(shard)
            .expect("shard index is in range")
    }
}

/// A cross-shard batch prepared on every involved shard but not yet
/// committed or aborted (2PC phase 1 complete). Finish it with
/// [`ShardedDb::commit_prepared`] / [`ShardedDb::abort_prepared`]; dropping
/// it unfinished models a coordinator crash, which [`ShardedDb::recover`]
/// resolves by presumed abort.
#[derive(Debug)]
pub struct PreparedBatch(PreparedGlobal);

impl PreparedBatch {
    /// The global transaction id assigned by the coordinator.
    pub fn global_txn_id(&self) -> u64 {
        self.0.global_txn_id
    }

    /// Indexes of the shards holding a prepared part of this batch.
    pub fn involved_shards(&self) -> &[usize] {
        &self.0.involved
    }
}

/// The sink wiring one shard's 2PC participant to that shard's
/// [`SpitzDb`]: prepared writes are durably staged in the shard's chunk
/// store at phase 1 (and recorded in the shard's [`StagedLog`], so a
/// restarted process can find them again) and sealed by the shard's one
/// write path, [`SpitzDb::commit`], at phase 2.
struct ShardSink {
    shard: usize,
    db: Arc<SpitzDb>,
    staged: Arc<StagedLog>,
}

impl PreparedApply for ShardSink {
    fn stage(
        &self,
        global_txn_id: u64,
        writes: &[(Vec<u8>, Vec<u8>)],
    ) -> std::result::Result<(), String> {
        // Durably stage the prepared writes as a content-addressed chunk.
        // This is the write that makes disk-full surface at *prepare* time
        // (a No vote, global abort) instead of after the commit decision.
        // An aborted transaction's staged chunk is simply never referenced
        // — the same orphan class as rolled-back grouped commits, reclaimed
        // by future segment GC.
        let chunk = Chunk::new(
            ChunkKind::Meta,
            encode_staged(global_txn_id, self.shard, writes),
        );
        let address = self.db.store().try_put(chunk).map_err(|e| e.to_string())?;
        // Record the staged batch in the shard's durable log so a restart
        // can still find (and resolve) it. Failing this is a No vote too.
        self.staged
            .add(global_txn_id, address)
            .map_err(|e| e.to_string())
    }

    fn apply(
        &self,
        global_txn_id: u64,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> std::result::Result<(), String> {
        self.db
            .commit(writes, statement)
            .map_err(|e| e.to_string())?;
        // The batch is sealed in the ledger; drop it from the staged log.
        // A failure here is deliberately ignored: the entry would be
        // re-applied by a later recovery pass, which re-seals the same
        // values (a duplicate block, not divergent state).
        let _ = self.staged.remove(global_txn_id);
        Ok(())
    }

    fn discard(&self, global_txn_id: u64) {
        // Presumed abort: drop the staged-log entry; the staged chunk
        // itself is an unreferenced orphan for segment GC.
        let _ = self.staged.remove(global_txn_id);
    }
}

/// Payload of a staged-writes chunk: magic ‖ gtid ‖ shard ‖ count ‖ entries.
fn encode_staged(global_txn_id: u64, shard: usize, writes: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"spitz-2pc-stage\0");
    out.extend_from_slice(&global_txn_id.to_be_bytes());
    out.extend_from_slice(&(shard as u32).to_be_bytes());
    out.extend_from_slice(&(writes.len() as u32).to_be_bytes());
    for (key, value) in writes {
        out.extend_from_slice(&(key.len() as u32).to_be_bytes());
        out.extend_from_slice(key);
        out.extend_from_slice(&(value.len() as u32).to_be_bytes());
        out.extend_from_slice(value);
    }
    out
}

/// A decoded staged batch: `(global_txn_id, shard, writes)`.
type StagedBatch = (u64, usize, Vec<(Vec<u8>, Vec<u8>)>);

/// Inverse of [`encode_staged`]. `None` for malformed bytes.
fn decode_staged(bytes: &[u8]) -> Option<StagedBatch> {
    let bytes = bytes.strip_prefix(b"spitz-2pc-stage\0".as_slice())?;
    let mut r = spitz_index::codec::Reader::new(bytes);
    let global_txn_id = r.u64()?;
    let shard = r.u32()? as usize;
    // Each write takes at least its two length prefixes.
    let count = r.count(8)?;
    let mut writes = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.bytes()?.to_vec();
        let value = r.bytes()?.to_vec();
        writes.push((key, value));
    }
    r.is_exhausted().then_some((global_txn_id, shard, writes))
}

/// Payload of a shard membership record: magic ‖ shard index ‖ shard count
/// ‖ SIRI kind tag.
fn encode_member(shard: usize, shards: usize, kind_tag: u8) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"spitz-shard-member\0");
    out.extend_from_slice(&(shard as u32).to_be_bytes());
    out.extend_from_slice(&(shards as u32).to_be_bytes());
    out.push(kind_tag);
    out
}

/// Sharded-layer instruments: cross-shard proof sizes/latencies and
/// decision-log truncations, resolved once at construction.
struct ShardedObs {
    /// `proof.sharded_{point,range,multi}_{build_nanos,bytes}`, recorded
    /// by every [`ShardedSnapshot`] this database pins.
    proofs: Arc<ProofObs>,
    /// Commit-decision log entries removed after their batch fully settled
    /// (the decision no longer protects anything).
    decision_truncations: Arc<Counter>,
}

impl ShardedObs {
    fn new(telemetry: &TelemetryHandle) -> Self {
        ShardedObs {
            proofs: Arc::new(ProofObs::new(telemetry)),
            decision_truncations: telemetry.counter("twopc.decision_truncations"),
        }
    }
}

/// The multi-shard Spitz database.
pub struct ShardedDb {
    shards: Vec<Arc<SpitzDb>>,
    coordinator: TwoPhaseCoordinator,
    /// The epoch fence. Every commit path holds it shared; taking a
    /// consistent cut ([`ShardedDb::digest`] / [`ShardedDb::snapshot`] /
    /// verified reads) takes it exclusively, so the per-shard digests it
    /// snapshots can never interleave with a half-applied cross-shard
    /// transaction. Commit epochs themselves come from the shared
    /// `spitz_txn` timestamp oracle the 2PC coordinator allocates from.
    fence: parking_lot::RwLock<()>,
    /// Per-shard durable staged-batch logs (in-doubt bookkeeping).
    staged_logs: Vec<Arc<StagedLog>>,
    /// The coordinator's durable commit-decision log (shard 0's store).
    decisions: StagedLog,
    /// The typed tables named in the catalog (see [`crate::table`]).
    pub(crate) tables: Tables,
    /// Telemetry registry shared by every shard (and the 2PC coordinator).
    telemetry: TelemetryHandle,
    /// Sharded-layer instruments.
    obs: ShardedObs,
}

impl ShardedDb {
    /// Create an in-memory sharded instance with `shards` shards and the
    /// default per-shard configuration. One shard is the single-node
    /// database of the paper's evaluation.
    pub fn in_memory(shards: usize) -> Self {
        Self::with_config(ShardedConfig::default().with_shards(shards))
    }

    /// Create an in-memory sharded instance with an explicit configuration.
    pub fn with_config(config: ShardedConfig) -> Self {
        Self::build(config.shards, config.spitz, |_, telemetry| {
            SpitzDb::in_memory(config.spitz, telemetry)
        })
        .expect("in-memory shards cannot fail to open")
    }

    /// Open (or create) a durable sharded instance under `path`: shard `i`
    /// lives in `path/shard-{i:03}` with its own segment files, ledger and
    /// commit pipeline. Reopening with the same configuration reproduces
    /// every per-shard digest and therefore the identical cross-shard
    /// digest; reopening with a different shard count (or mixed-up shard
    /// directories) is rejected via the persisted membership records.
    /// Writes go through each shard's group-commit pipeline under
    /// `config.spitz.durability`.
    pub fn open(path: impl AsRef<Path>, config: ShardedConfig) -> Result<Self> {
        Self::open_with_io(path, config, real_io())
    }

    /// [`ShardedDb::open`] with a caller-supplied segment-I/O seam threaded
    /// into every shard's durable store. The production seam is
    /// [`spitz_storage::real_io`]; chaos harnesses install one seeded
    /// fault-injector handle shared by all shards so I/O faults land
    /// anywhere in the deployment while the recovery, retry, scrub and
    /// health machinery runs for real.
    pub fn open_with_io(
        path: impl AsRef<Path>,
        config: ShardedConfig,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        let path = path.as_ref();
        Self::build(config.shards, config.spitz, |i, telemetry| {
            let dir = path.join(format!("shard-{i:03}"));
            SpitzDb::open(
                &dir,
                config.spitz,
                config.durable,
                telemetry,
                Arc::clone(&io),
            )
        })
    }

    /// Build a sharded instance over caller-provided chunk stores, one per
    /// shard (the hook fault-injection tests use to wrap stores with
    /// failpoints), recovering whatever the stores already hold.
    pub fn with_stores(stores: Vec<Arc<dyn ChunkStore>>, spitz: SpitzConfig) -> Result<Self> {
        Self::build(stores.len(), spitz, |i, telemetry| {
            SpitzDb::with_store(Arc::clone(&stores[i]), spitz, telemetry)
        })
    }

    /// The one construction path: open `shards` shards with `open_shard`
    /// over one shared telemetry registry, check each shard's membership
    /// record, wire the 2PC layer, redo durably decided batches and load
    /// the table catalog.
    fn build(
        shards: usize,
        spitz: SpitzConfig,
        mut open_shard: impl FnMut(usize, &TelemetryHandle) -> Result<SpitzDb>,
    ) -> Result<Self> {
        assert!(shards >= 1, "need at least one shard");
        // One telemetry registry spans all shards: per-shard instruments
        // aggregate into a single deployment-wide snapshot.
        let telemetry = spitz.telemetry_handle();
        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let db = Arc::new(open_shard(i, &telemetry)?);
            ensure_member(db.store(), i, shards, spitz)?;
            dbs.push(db);
        }
        let db = Self::assemble(dbs, telemetry);
        // Batches whose commit was durably decided before the previous
        // process died are redone eagerly — their effects were promised, so
        // a reopened database must show them without waiting for an
        // explicit `recover()` call. Undecided staged entries are left for
        // `recover()`: only the caller knows no coordinator still intends
        // to decide them.
        db.resolve_staged(false);
        db.clear_settled_decisions();
        db.reload_catalog()?;
        Ok(db)
    }

    /// Wire the 2PC layer over already-opened shards. Participants use
    /// MVCC + two-phase locking regardless of the shards' own CC scheme:
    /// 2PL takes its (no-wait) locks in the prepare phase, so a `Yes` vote
    /// guarantees the commit phase cannot fail validation — the property
    /// 2PC requires of its participants. No-wait locks also mean two
    /// batches that collide on a key never block each other, so
    /// distributed deadlock is impossible; the loser aborts and retries.
    fn assemble(dbs: Vec<Arc<SpitzDb>>, telemetry: TelemetryHandle) -> Self {
        let oracle = Arc::new(TimestampOracle::new());
        let staged_logs: Vec<Arc<StagedLog>> = dbs
            .iter()
            .map(|db| Arc::new(StagedLog::staged(Arc::clone(db.store()))))
            .collect();
        let decisions = StagedLog::decisions(Arc::clone(dbs[0].store()));
        // A fresh oracle would recycle global transaction ids issued by a
        // previous process incarnation. A recycled id colliding with a
        // stale staged-log entry makes the log point at the wrong staged
        // chunk, so a later redo would seal the *old* batch's writes.
        // Advance past every id the durable 2PC logs still record.
        let mut max_stale = 0u64;
        for log in &staged_logs {
            for entry in log.entries().unwrap_or_default() {
                max_stale = max_stale.max(entry.global_txn_id);
            }
        }
        for entry in decisions.entries().unwrap_or_default() {
            max_stale = max_stale.max(entry.global_txn_id);
        }
        if max_stale > 0 {
            oracle.advance_past(max_stale);
        }
        let participants: Vec<Arc<Participant>> = dbs
            .iter()
            .enumerate()
            .map(|(i, db)| {
                let sink = ShardSink {
                    shard: i,
                    db: Arc::clone(db),
                    staged: Arc::clone(&staged_logs[i]),
                };
                Arc::new(Participant::with_apply(
                    format!("shard-{i}"),
                    Arc::clone(&oracle),
                    CcScheme::TwoPhaseLocking,
                    Some(Arc::new(sink) as Arc<dyn PreparedApply>),
                ))
            })
            .collect();
        let coordinator =
            TwoPhaseCoordinator::with_telemetry(participants, oracle, telemetry.clone());
        let obs = ShardedObs::new(&telemetry);
        ShardedDb {
            shards: dbs,
            coordinator,
            fence: parking_lot::RwLock::new(()),
            staged_logs,
            decisions,
            tables: Tables::default(),
            telemetry,
            obs,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Direct access to one shard's `SpitzDb` (diagnostics, tests).
    pub fn shard(&self, index: usize) -> &Arc<SpitzDb> {
        &self.shards[index]
    }

    /// The 2PC coordinator driving cross-shard batches.
    pub fn coordinator(&self) -> &TwoPhaseCoordinator {
        &self.coordinator
    }

    /// The health of one shard's backing store: [`HealthState::Healthy`] in
    /// normal operation, [`HealthState::Degraded`] after exhausted transient
    /// I/O retries or a fully salvaged quarantine, [`HealthState::ReadOnly`]
    /// once its device is full, a write path failed unrecoverably or a scrub
    /// lost data (reads keep serving; writes to the shard fail fast with
    /// [`DbError::ReadOnly`]). In-memory shards are always healthy.
    ///
    /// [`HealthState::Healthy`]: spitz_storage::HealthState::Healthy
    /// [`HealthState::Degraded`]: spitz_storage::HealthState::Degraded
    /// [`HealthState::ReadOnly`]: spitz_storage::HealthState::ReadOnly
    pub fn shard_health(&self, index: usize) -> spitz_storage::HealthState {
        self.shards[index].health()
    }

    /// Why one shard's store is degraded or read-only (`None` while
    /// healthy, `None` on an in-memory shard) — what a served front-end
    /// reports per shard in its health endpoint.
    pub fn shard_health_reason(&self, index: usize) -> Option<String> {
        self.shards[index].health_reason()
    }

    /// Aggregate deployment health: healthy only when every shard is. A
    /// single dead or full shard degrades the whole deployment but never
    /// makes it read-only — the other shards' key ranges stay writable,
    /// and cross-shard batches touching the sick shard abort cleanly (its
    /// prepare vote is No).
    pub fn health(&self) -> spitz_storage::HealthState {
        let sick = (0..self.shards.len())
            .map(|i| self.shard_health(i))
            .filter(|h| *h != spitz_storage::HealthState::Healthy)
            .count();
        if sick == 0 {
            spitz_storage::HealthState::Healthy
        } else {
            spitz_storage::HealthState::Degraded
        }
    }

    /// A point-in-time snapshot of every telemetry instrument across the
    /// whole deployment: all shards' storage/pipeline/proof instruments
    /// plus the 2PC coordinator's, in one registry.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live telemetry handle backing [`ShardedDb::telemetry`].
    pub fn telemetry_handle(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Drop a settled commit decision and count the truncation.
    fn truncate_decision(&self, global_txn_id: u64) {
        if self.decisions.remove(global_txn_id).is_ok() {
            self.obs.decision_truncations.inc();
        }
    }

    /// Which shard owns `key`.
    pub fn route(&self, key: &[u8]) -> usize {
        shard_for(key, self.shards.len())
    }

    /// Write one key/value pair: routes to the owning shard and seals a
    /// block in that shard's ledger only. Returns the shard's new digest
    /// (use [`ShardedDb::digest`] for the combined one).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<Digest> {
        let _epoch = self.fence.read();
        self.shards[self.route(key)].commit(vec![(key.to_vec(), value.to_vec())], "PUT")
    }

    /// Write a batch atomically. A batch whose keys all land on one shard
    /// is sealed as a single block there; a batch spanning shards runs
    /// two-phase commit across the involved shards (all-or-nothing: either
    /// every shard's ledger seals its part, or no shard's does). On success
    /// the refreshed cross-shard digest — a fenced consistent cut — is
    /// returned.
    pub fn put_batch(&self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<ShardedDigest> {
        if !writes.is_empty() {
            let _epoch = self.fence.read();
            let first = self.route(&writes[0].0);
            if writes.iter().all(|(key, _)| self.route(key) == first) {
                self.shards[first].commit(writes, "PUT BATCH")?;
            } else {
                // Split-phase 2PC with a durable commit decision between
                // the phases, so a crash after the decision is redone (not
                // presumed aborted) by a restarted process.
                let prepared = self.coordinator.prepare(writes, "PUT BATCH")?;
                self.finish_decided(prepared)?;
            }
        }
        Ok(self.digest())
    }

    /// Phase 1 only of a cross-shard batch: prepare every involved shard
    /// and return the in-doubt handle (crash-injection and recovery tests
    /// drive 2PC through this).
    pub fn prepare_batch(&self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<PreparedBatch> {
        let _epoch = self.fence.read();
        Ok(PreparedBatch(
            self.coordinator.prepare(writes, "PUT BATCH")?,
        ))
    }

    /// Phase 2 (commit) of a batch prepared with
    /// [`ShardedDb::prepare_batch`].
    pub fn commit_prepared(&self, prepared: PreparedBatch) -> Result<ShardedDigest> {
        {
            let _epoch = self.fence.read();
            self.finish_decided(prepared.0)?;
        }
        Ok(self.digest())
    }

    /// Record the commit decision durably, drive phase 2, and clear the
    /// decision once every involved shard has applied. Called with the
    /// epoch fence held shared.
    fn finish_decided(&self, prepared: PreparedGlobal) -> Result<()> {
        let global_txn_id = prepared.global_txn_id;
        // The decision record makes the commit survive a process crash:
        // recovery finds staged-but-unapplied parts and redoes them. If the
        // decision itself cannot be persisted, nothing has committed yet —
        // abort cleanly everywhere.
        if let Err(error) = self.decisions.add(global_txn_id, Hash::ZERO) {
            self.coordinator.abort_prepared(prepared);
            return Err(error.into());
        }
        self.coordinator.commit_prepared(prepared)?;
        // Every shard applied: the decision record has served its purpose.
        // (On failure it is retained so recovery can redo the apply.)
        self.truncate_decision(global_txn_id);
        Ok(())
    }

    /// Phase 2 (abort) of a batch prepared with
    /// [`ShardedDb::prepare_batch`]: nothing becomes visible anywhere.
    pub fn abort_prepared(&self, prepared: PreparedBatch) {
        let _epoch = self.fence.read();
        self.coordinator.abort_prepared(prepared.0);
    }

    /// Coordinator-crash recovery: resolve every in-doubt batch, both
    /// in-process and across process restarts.
    ///
    /// In-process, a batch with no commit decision is presumed aborted (no
    /// shard keeps prepared state or locks) and a batch whose commit was
    /// decided but whose ledger apply failed on some shard (disk full after
    /// the vote) gets the apply retried there. Then the durable staged logs
    /// are scanned: batches staged by a *previous* process are resolved the
    /// same way — redo when a durable commit decision exists, presumed
    /// abort otherwise — so `recover()` preserves all-or-nothing across a
    /// kill-and-reopen. Returns the number of batches resolved.
    pub fn recover(&self) -> usize {
        // Exclusive fence: a recovery pass racing a live `put_batch` (which
        // holds the fence shared for its whole prepare→decide→commit cycle)
        // could otherwise presume-abort staged entries of a batch whose
        // decision is about to land, losing the redo information.
        let _epoch = self.fence.write();
        let resolved = self.coordinator.recover() + self.resolve_staged(true);
        self.clear_settled_decisions();
        resolved
    }

    /// Scan the durable staged logs for batches no live participant knows
    /// about (staged by a previous incarnation of this process) and resolve
    /// them: redo into the shard's ledger when a durable commit decision
    /// exists, otherwise — only when `presume_abort` is set — drop the
    /// entry. With `presume_abort` false (the eager pass at open),
    /// undecided entries are left untouched for an explicit
    /// [`ShardedDb::recover`]. Returns the number of batches resolved.
    fn resolve_staged(&self, presume_abort: bool) -> usize {
        let mut resolved = 0;
        let mut in_doubt: std::collections::BTreeMap<u64, Vec<(usize, StagedEntry)>> =
            std::collections::BTreeMap::new();
        for (shard, log) in self.staged_logs.iter().enumerate() {
            for entry in log.entries().unwrap_or_default() {
                in_doubt
                    .entry(entry.global_txn_id)
                    .or_default()
                    .push((shard, entry));
            }
        }
        for (global_txn_id, parts) in in_doubt {
            let decided = self.decisions.contains(global_txn_id).unwrap_or(false);
            if !decided && !presume_abort {
                continue;
            }
            for (shard, entry) in parts {
                if decided {
                    // Redo: decode the staged chunk and seal it into the
                    // shard's ledger. Failures leave the entry in place for
                    // the next recovery pass.
                    let Ok(chunk) = self.shards[shard]
                        .store()
                        .get_kind(&entry.chunk, ChunkKind::Meta)
                    else {
                        continue;
                    };
                    let Some((_, _, writes)) = decode_staged(chunk.data()) else {
                        continue;
                    };
                    let applied = self.shards[shard].commit(writes, "PUT BATCH (redo)");
                    if applied.is_ok() {
                        let _ = self.staged_logs[shard].remove(global_txn_id);
                    }
                } else {
                    // Presumed abort: nothing was visible; drop the entry.
                    let _ = self.staged_logs[shard].remove(global_txn_id);
                }
            }
            if decided && self.all_staged_cleared(global_txn_id) {
                self.truncate_decision(global_txn_id);
            }
            resolved += 1;
        }
        resolved
    }

    /// Clear decision records whose batches have fully applied (e.g. a
    /// crash between the last apply and the decision cleanup). Without
    /// this, settled entries pin their decision chunks forever — the
    /// decision log must shrink back once its entries stop protecting
    /// anything.
    fn clear_settled_decisions(&self) {
        for entry in self.decisions.entries().unwrap_or_default() {
            if self.all_staged_cleared(entry.global_txn_id)
                && !self
                    .coordinator
                    .participants()
                    .iter()
                    .any(|p| p.prepared_ids().contains(&entry.global_txn_id))
            {
                self.truncate_decision(entry.global_txn_id);
            }
        }
    }

    /// True when no shard's staged log still records `global_txn_id`.
    fn all_staged_cleared(&self, global_txn_id: u64) -> bool {
        self.staged_logs
            .iter()
            .all(|log| !log.contains(global_txn_id).unwrap_or(true))
    }

    /// Unverified point read, routed to the owning shard.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.shards[self.route(key)].ledger().get(key))
    }

    /// Take the cut: every shard's ledger pinned at its head, which reads
    /// nothing from the stores. The caller holds the epoch fence
    /// exclusively, so no commit is in flight and the heads are one
    /// consistent cut.
    fn pin_heads(&self) -> Result<ShardedSnapshot> {
        let shards = self
            .shards
            .iter()
            .map(|db| db.ledger().snapshot())
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(ShardedSnapshot::new(shards, Arc::clone(&self.obs.proofs)))
    }

    /// Verified point read: the value plus a [`ShardedProof`] chaining the
    /// shard's ledger proof up to the cross-shard root of a fenced
    /// consistent cut. Served by the cut's [`ShardedSnapshot`], so it is
    /// the proof a snapshot pinned at the same cut returns.
    ///
    /// Each call takes the epoch fence exclusively (the price of a
    /// consistent cut per read) and holds it until the proof is built. A
    /// caller that reads many keys at one cut can pin a
    /// [`ShardedDb::snapshot`] instead: one fence, repeatable reads, the
    /// same proofs.
    pub fn get_verified(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, ShardedProof)> {
        let _cut = self.fence.write();
        let pinned = self.pin_heads()?;
        Ok(pinned.get_verified(key))
    }

    /// Batched verified point read: every key is resolved against one
    /// fenced consistent cut, keys sharing a shard share one
    /// batched [`spitz_ledger::LedgerProof`] (and its upper-tree nodes), and
    /// the whole batch chains to a single cross-shard root through one
    /// audit path per involved shard. The `i`-th returned value answers
    /// `keys[i]`. Fenced and served like [`ShardedDb::get_verified`].
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> Result<(Vec<Option<Vec<u8>>>, ShardedMultiProof)> {
        let _cut = self.fence.write();
        let pinned = self.pin_heads()?;
        Ok(pinned.get_multi_verified(keys))
    }

    /// **Unverified** range read over `start <= key < end`, merged across
    /// all shards in key order. The merge is not proven: use
    /// [`ShardedDb::range_verified`] (or a [`ShardedSnapshot`]) when the
    /// caller needs the cross-shard completeness guarantee — this explicit
    /// name exists so the unverified fast path is a visible choice, never a
    /// default.
    pub fn range_unverified(&self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            entries.extend(shard.ledger().range(start, end));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(entries)
    }

    /// Verified range read over `start <= key < end` against a fenced
    /// consistent cut: per-shard complete SIRI range proofs, chained
    /// through the shard-digest leaves to the single cross-shard root.
    /// Fenced and served like [`ShardedDb::get_verified`].
    pub fn range_verified(
        &self,
        start: &[u8],
        end: &[u8],
    ) -> Result<crate::proof::ShardedVerifiedRange> {
        let _cut = self.fence.write();
        let pinned = self.pin_heads()?;
        pinned.range_verified(start, end)
    }

    /// Pin a fenced consistent cut as a [`ShardedSnapshot`]: under the
    /// exclusive epoch fence each shard's ledger is pinned at its head (a
    /// checkout that reads nothing from the store, for every index kind),
    /// and the combined digest covers exactly that cut. Reads
    /// against the snapshot are repeatable and all verify against the
    /// single pinned root while writers move on.
    ///
    /// The fence alone quiesces every shard: each commit path holds it
    /// shared until its block is sealed, so while a cut holds it no commit
    /// is queued or being sealed. A pipeline may still hold its seal role
    /// for a flush or a `Grouped` timer fsync, and neither moves a ledger
    /// head.
    pub fn snapshot(&self) -> Result<ShardedSnapshot> {
        let _cut = self.fence.write();
        self.pin_heads()
    }

    /// The current cross-shard digest (what clients pin). Taken under the
    /// exclusive epoch fence, so it is a **consistent cut**: every commit
    /// (including every cross-shard 2PC batch) is either fully reflected in
    /// all its shards' leaves or not at all.
    pub fn digest(&self) -> ShardedDigest {
        let _cut = self.fence.write();
        ShardedDigest::over(self.shards.iter().map(|db| db.ledger().digest()).collect())
    }

    /// True when the live state matches a pinned cross-shard digest.
    pub fn verify(&self, pinned: &ShardedDigest) -> bool {
        pinned.verify() && self.digest().root == pinned.root
    }

    /// Compact every durable shard's store (see [`SpitzDb::compact`]):
    /// per-shard mark-sweep over that shard's roots, staged logs included,
    /// so in-doubt 2PC batches survive. Shards compact independently —
    /// readers and writers on other shards are never blocked. Returns the
    /// per-shard reports in shard order (`None` for in-memory shards and
    /// shards with nothing to compact).
    pub fn compact(&self) -> Result<Vec<Option<CompactionReport>>> {
        self.shards.iter().map(|db| db.compact()).collect()
    }

    /// Drain every shard's commit pipeline and force everything onto
    /// stable storage, then return the cross-shard digest of that state.
    /// The digest needs no record of its own: a reopen recomputes it from
    /// the per-shard ledger heads each shard's flush made durable.
    pub fn flush(&self) -> Result<ShardedDigest> {
        for shard in &self.shards {
            shard.flush()?;
        }
        Ok(self.digest())
    }
}

/// Verify (or, on first open, write) a shard's membership record.
fn ensure_member(
    store: &Arc<dyn ChunkStore>,
    shard: usize,
    shards: usize,
    spitz: SpitzConfig,
) -> Result<()> {
    let expected = encode_member(shard, shards, spitz.siri.tag());
    match store.root(SHARD_MEMBER_ROOT) {
        Some(address) => {
            let chunk = store.get_kind(&address, ChunkKind::Meta)?;
            if chunk.data() != expected.as_slice() {
                return Err(DbError::BadRequest(format!(
                    "shard store mismatch: expected shard {shard} of {shards} \
                     ({}), found a different membership record — wrong shard \
                     count, swapped directories, or wrong SIRI kind",
                    spitz.siri.name(),
                )));
            }
        }
        None => {
            let address = store.try_put(Chunk::new(ChunkKind::Meta, expected))?;
            store.try_set_root(SHARD_MEMBER_ROOT, address)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:05}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn decode_staged_refuses_a_count_the_payload_cannot_hold() {
        let mut bytes = encode_staged(7, 1, &[]);
        let count = bytes.len() - 4;
        bytes[count..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_staged(&bytes).is_none());
    }

    #[test]
    fn single_key_ops_route_and_read_back() {
        let db = ShardedDb::in_memory(4);
        for i in 0..100 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        for i in 0..100 {
            let (k, v) = kv(i);
            assert_eq!(db.get(&k).unwrap(), Some(v));
            assert_eq!(db.route(&k), shard_for(&k, 4));
            assert_eq!(db.route(&k), db.coordinator().route(&k));
        }
        assert_eq!(db.get(b"missing").unwrap(), None);
        // All four shards got some share of 100 hashed keys.
        for s in 0..4 {
            assert!(!db.shard(s).ledger().is_empty(), "shard {s} is empty");
        }
    }

    #[test]
    fn cross_shard_batch_commits_atomically() {
        let db = ShardedDb::in_memory(3);
        let writes: Vec<_> = (0..60).map(kv).collect();
        let digest = db.put_batch(writes.clone()).unwrap();
        assert!(digest.verify());
        for (k, v) in &writes {
            assert_eq!(db.get(k).unwrap(), Some(v.clone()));
        }
        assert!(db.verify(&digest));
    }

    #[test]
    fn sharded_proofs_chain_to_the_combined_root() {
        let db = ShardedDb::in_memory(4);
        db.put_batch((0..80).map(kv).collect()).unwrap();
        let pinned = db.digest();

        let (k, v) = kv(17);
        let (value, proof) = db.get_verified(&k).unwrap();
        assert_eq!(value, Some(v.clone()));
        assert_eq!(proof.root, pinned.root);
        assert!(proof.verify(&k, value.as_deref()));
        assert!(!proof.verify(&k, Some(b"forged")));
        assert!(!proof.verify(b"other-key", value.as_deref()));

        // Absence proof for a missing key.
        let (missing, proof) = db.get_verified(b"no-such-key").unwrap();
        assert!(missing.is_none());
        assert!(proof.verify(b"no-such-key", None));
        assert!(!proof.verify(b"no-such-key", Some(b"x")));
    }

    #[test]
    fn digest_epoch_advances_with_every_commit() {
        let db = ShardedDb::in_memory(2);
        let d0 = db.digest();
        assert_eq!(d0.epoch, 0);
        db.put(b"a", b"1").unwrap();
        let d1 = db.digest();
        assert_eq!(d1.epoch, 1);
        assert_ne!(d0.root, d1.root);
        db.put_batch((0..10).map(kv).collect()).unwrap();
        let d2 = db.digest();
        assert!(d2.epoch > d1.epoch);
        assert_ne!(d1.root, d2.root);
    }

    #[test]
    fn sharded_digest_encoding_round_trips() {
        let db = ShardedDb::in_memory(3);
        db.put_batch((0..30).map(kv).collect()).unwrap();
        let digest = db.digest();
        let decoded = ShardedDigest::decode(&digest.encode()).unwrap();
        assert_eq!(decoded, digest);
        assert!(ShardedDigest::decode(b"garbage").is_none());
        // Tampering with a shard-digest leaf cannot forge the pinned root:
        // decode recomputes the root over the (tampered) leaves, so the
        // result no longer matches the original pin.
        let mut tampered = digest.encode();
        let last = tampered.len() - 2;
        tampered[last] ^= 0xFF;
        if let Some(decoded) = ShardedDigest::decode(&tampered) {
            assert_ne!(decoded.root, digest.root);
        }
    }

    #[test]
    fn range_merges_across_shards_in_key_order() {
        let db = ShardedDb::in_memory(4);
        db.put_batch((0..100).map(kv).collect()).unwrap();
        let entries = db.range_unverified(b"key-00020", b"key-00030").unwrap();
        assert_eq!(entries.len(), 10);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(entries[0].0, b"key-00020".to_vec());

        // The verified merge returns the same entries plus a proof that
        // chains every shard's contribution to the single root.
        let (verified, proof) = db.range_verified(b"key-00020", b"key-00030").unwrap();
        assert_eq!(verified, entries);
        assert!(proof.verify(&verified));
        assert_eq!(proof.root, db.digest().root);
    }

    #[test]
    fn membership_records_reject_mixed_up_stores() {
        use spitz_storage::InMemoryChunkStore;
        let stores: Vec<Arc<dyn ChunkStore>> =
            (0..2).map(|_| InMemoryChunkStore::shared() as _).collect();
        let db = ShardedDb::with_stores(stores.clone(), SpitzConfig::default()).unwrap();
        db.put(b"k", b"v").unwrap();
        drop(db);

        // Same stores, same order: reopens fine.
        ShardedDb::with_stores(stores.clone(), SpitzConfig::default()).unwrap();
        // Swapped order: rejected by the membership records.
        let swapped = vec![Arc::clone(&stores[1]), Arc::clone(&stores[0])];
        assert!(matches!(
            ShardedDb::with_stores(swapped, SpitzConfig::default()),
            Err(DbError::BadRequest(_))
        ));
    }
}
