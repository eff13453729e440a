//! The only file that names the program under test.
//!
//! Every call the benchmark makes into a `spitz-*` crate goes through a
//! function or method here, so the public surface the benchmark depends on
//! is exactly this file's `use` list (repeated in the README). Wrappers are
//! one call deep: they convert errors to strings, hide proof types behind
//! newtypes with a wire length, and add nothing to the measured path.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use spitz_core::{
    ShardedConfig, ShardedDb, ShardedDigest, ShardedMultiProof, ShardedProof, ShardedRangeProof,
    ShardedSnapshot, SpitzConfig, Verifier,
};
use spitz_crypto::{sha256, AuditProof, Hash, MerkleTree};
use spitz_index::siri::{verify_proof, verify_range_proof};
use spitz_index::{
    verify_multi_proof, IndexProof, MerkleBucketTree, MerklePatriciaTrie, MultiProof, PosTree,
    SiriIndex, SiriKind,
};
use spitz_ledger::{CommitPipeline, Digest, DurabilityPolicy, Ledger, LedgerProof};
use spitz_obs::TelemetrySnapshot;
use spitz_server::{ClientError, ErrorCode, LightClient, ServerConfig, SpitzServer};
use spitz_storage::{
    Chunk, ChunkKind, ChunkStore, DurableChunkStore, DurableConfig, InMemoryChunkStore,
};
use spitz_txn::{
    IsolationLevel, MvccStore, Participant, TimestampOracle, TransactionManager,
    TwoPhaseCoordinator,
};

pub type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Flush policy of every durable store the benchmark opens.
fn flush_policy() -> DurabilityPolicy {
    DurabilityPolicy::grouped_default()
}

/// The flush policy in words, printed with every run.
pub fn flush_policy_description() -> String {
    match flush_policy() {
        DurabilityPolicy::Grouped {
            max_delay,
            max_writes,
        } => format!(
            "grouped: fsync at least every {} ms or {max_writes} commits",
            max_delay.as_millis()
        ),
        other => other.name().to_string(),
    }
}

/// Segment size of every durable store the benchmark opens. The crate
/// default (64 MiB) is sized for production volumes; the benchmark's data
/// sets are sized for the driver's time cap, and with the default all of
/// their bytes would sit in the active segment, which compaction never
/// touches. Scaled down so that segments seal and the compaction and
/// space-amplification metrics measure something.
const SEGMENT_TARGET_BYTES: u64 = 8 * 1024 * 1024;

fn durable_config(cache_capacity_bytes: usize) -> DurableConfig {
    DurableConfig {
        segment_target_bytes: SEGMENT_TARGET_BYTES,
        cache_capacity_bytes,
        ..DurableConfig::default()
    }
}

/// Segment size in words, printed with every run.
pub fn segment_description() -> String {
    format!("{} MiB segments", SEGMENT_TARGET_BYTES >> 20)
}

/// Per-shard chunk-cache budget the crate defaults give a durable store.
pub fn default_cache_bytes_per_shard() -> usize {
    DurableConfig::default().cache_capacity_bytes
}

/// Shard count, SIRI kind and concurrency-control scheme of the defaults.
pub fn default_shape() -> String {
    let spitz = SpitzConfig::default();
    format!(
        "{} shards, {} index, {:?} concurrency control",
        ShardedConfig::default().shards,
        spitz.siri.name(),
        spitz.cc_scheme
    )
}

// ---------------------------------------------------------------------------
// core: the sharded database, its proofs and the client-side verifier
// ---------------------------------------------------------------------------

/// Proof of one point read, as a verifying client would download it.
pub struct PointProof(ShardedProof);

impl PointProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }

    pub fn to_wire(&self) -> Vec<u8> {
        self.0.encode()
    }

    pub fn from_wire(bytes: &[u8]) -> Option<PointProof> {
        ShardedProof::decode(bytes).map(PointProof)
    }
}

/// Proof of one batched point read.
pub struct BatchProof(ShardedMultiProof);

impl BatchProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// Proof of one complete range read.
pub struct RangeProof(ShardedRangeProof);

impl RangeProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// A cross-shard digest a client can pin.
pub struct Pin(ShardedDigest);

/// Counters read from the database's public getters; phases report deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub disk_bytes: u64,
    pub live_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub commits: u64,
    pub fsyncs: u64,
    pub group_size_sum: u64,
    pub group_size_count: u64,
    pub txn_committed: u64,
    pub txn_aborted: u64,
    pub twopc_prepares: u64,
    pub twopc_aborts: u64,
    pub io_retries: u64,
    pub server_requests: u64,
    pub server_request_nanos: u64,
    pub server_busy: u64,
    pub proof_cache_hits: u64,
    pub proof_cache_misses: u64,
}

/// The database under test: a `ShardedDb` with the crate defaults.
pub struct Store {
    db: Arc<ShardedDb>,
}

impl Store {
    fn config(cache_bytes_per_shard: usize) -> ShardedConfig {
        ShardedConfig::default()
            .with_spitz(SpitzConfig::default().with_durability(flush_policy()))
            .with_durable(durable_config(cache_bytes_per_shard))
    }

    /// Open (or create) a durable store under `dir`.
    pub fn open_durable(dir: &Path, cache_bytes_per_shard: usize) -> Result<Store, String> {
        ShardedDb::open(dir, Store::config(cache_bytes_per_shard))
            .map(|db| Store { db: Arc::new(db) })
            .map_err(|e| e.to_string())
    }

    pub fn in_memory() -> Store {
        Store {
            db: Arc::new(ShardedDb::with_config(Store::config(0))),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.db.shard_count()
    }

    /// Single put; returns the bytes of the digest the writer gets back.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<usize, String> {
        self.db
            .put(key, value)
            .map(|_| Digest::ENCODED_LEN)
            .map_err(|e| e.to_string())
    }

    /// Atomic (cross-shard) batch; returns the bytes of the returned digest.
    pub fn put_batch(&self, writes: Entries) -> Result<usize, String> {
        self.db
            .put_batch(writes)
            .map(|digest| digest.encode().len())
            .map_err(|e| e.to_string())
    }

    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, String> {
        self.db.get(key).map_err(|e| e.to_string())
    }

    pub fn get_verified(&self, key: &[u8]) -> Result<(Option<Vec<u8>>, PointProof), String> {
        self.db
            .get_verified(key)
            .map(|(value, proof)| (value, PointProof(proof)))
            .map_err(|e| e.to_string())
    }

    #[allow(clippy::type_complexity)]
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> Result<(Vec<Option<Vec<u8>>>, BatchProof), String> {
        self.db
            .get_multi_verified(keys)
            .map(|(values, proof)| (values, BatchProof(proof)))
            .map_err(|e| e.to_string())
    }

    pub fn snapshot(&self) -> Result<Snapshot, String> {
        self.db.snapshot().map(Snapshot).map_err(|e| e.to_string())
    }

    pub fn digest(&self) -> Pin {
        Pin(self.db.digest())
    }

    pub fn flush(&self) -> Result<(), String> {
        self.db.flush().map(|_| ()).map_err(|e| e.to_string())
    }

    /// One explicit mark-sweep pass over every shard.
    pub fn compact(&self) -> Result<(), String> {
        self.db.compact().map(|_| ()).map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for shard in 0..self.db.shard_count() {
            let db = self.db.shard(shard);
            let stats = db.storage_stats();
            c.disk_bytes += stats.disk_bytes;
            c.live_bytes += stats.live_bytes;
            if let Some(store) = db.durable_store() {
                let (hits, misses) = store.cache_stats();
                c.cache_hits += hits;
                c.cache_misses += misses;
            }
            if let Some(pipeline) = db.pipeline() {
                let stats = pipeline.stats();
                c.commits += stats.commits;
                c.fsyncs += stats.syncs;
            }
        }
        for participant in self.db.coordinator().participants() {
            let stats = participant.manager().stats();
            c.txn_committed += stats.committed;
            c.txn_aborted += stats.aborted;
        }
        let telemetry = self.db.telemetry();
        let counter = |name: &str| telemetry.counter(name).unwrap_or(0);
        let (sum, count) = histogram_totals(&telemetry, "pipeline.group_size");
        c.group_size_sum = sum;
        c.group_size_count = count;
        c.twopc_prepares = counter("twopc.prepares");
        c.twopc_aborts = counter("twopc.aborts");
        c.io_retries = counter("storage.io_retries");
        c.server_requests = counter("server.requests");
        c.server_request_nanos = histogram_totals(&telemetry, "server.request_nanos").0;
        c.server_busy = counter("server.busy_rejections");
        c.proof_cache_hits = counter("server.proof_cache.hits");
        c.proof_cache_misses = counter("server.proof_cache.misses");
        c
    }

    /// Current depth of the commit queue (a gauge; sampled by writers).
    pub fn queue_depth(&self) -> i64 {
        self.db
            .telemetry_handle()
            .gauge("pipeline.queue_depth")
            .get()
    }
}

fn histogram_totals(telemetry: &TelemetrySnapshot, name: &str) -> (u64, u64) {
    telemetry
        .histogram(name)
        .map_or((0, 0), |h| (h.sum, h.count))
}

/// A pinned consistent cut of the database.
pub struct Snapshot(ShardedSnapshot);

impl Snapshot {
    pub fn range_verified(
        &self,
        start: &[u8],
        end: &[u8],
    ) -> Result<(Entries, RangeProof), String> {
        self.0
            .range_verified(start, end)
            .map(|(entries, proof)| (entries, RangeProof(proof)))
            .map_err(|e| e.to_string())
    }
}

/// The client side: pins a digest once, then accepts or refuses proofs.
#[derive(Default)]
pub struct Client {
    verifier: Verifier,
}

impl Client {
    pub fn new() -> Client {
        Client::default()
    }

    pub fn pin(&mut self, pin: &Pin) -> bool {
        self.verifier.observe_sharded(&pin.0)
    }

    pub fn verify_point(&mut self, key: &[u8], value: Option<&[u8]>, proof: &PointProof) -> bool {
        self.verifier.verify_sharded_read(key, value, &proof.0)
    }

    pub fn verify_multi(
        &mut self,
        items: &[(Vec<u8>, Option<Vec<u8>>)],
        proof: &BatchProof,
    ) -> bool {
        self.verifier.verify_sharded_multi(items, &proof.0)
    }

    pub fn verify_range(&mut self, entries: &[(Vec<u8>, Vec<u8>)], proof: &RangeProof) -> bool {
        self.verifier.verify_sharded_range(entries, &proof.0)
    }
}

// ---------------------------------------------------------------------------
// server: the TCP front-end and the verifying remote client
// ---------------------------------------------------------------------------

/// A running `SpitzServer` over a [`Store`].
pub struct Served {
    server: SpitzServer,
}

impl Served {
    pub fn start(store: &Store) -> Result<Served, String> {
        SpitzServer::start(Arc::clone(&store.db), ServerConfig::default())
            .map(|server| Served { server })
            .map_err(|e| e.to_string())
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Graceful drain; joins every server thread.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Why a remote call did not produce an accepted answer.
#[derive(Debug)]
pub enum RemoteError {
    /// The proof did not chain to the pinned root. After another client's
    /// write this is the expected signal to re-pin and retry.
    Refused(String),
    /// The server shed the request.
    Busy(String),
    Other(String),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Refused(m) => write!(f, "refused: {m}"),
            RemoteError::Busy(m) => write!(f, "busy: {m}"),
            RemoteError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl From<ClientError> for RemoteError {
    fn from(e: ClientError) -> RemoteError {
        match e {
            ClientError::Verification(m) => RemoteError::Refused(m),
            ClientError::Server {
                code: ErrorCode::Busy,
                message,
            } => RemoteError::Busy(message),
            other => RemoteError::Other(other.to_string()),
        }
    }
}

/// One `LightClient` connection.
pub struct Remote {
    light: LightClient,
}

impl Remote {
    /// Connect, handshake and pin the server's current digest.
    pub fn connect(addr: SocketAddr) -> Result<Remote, RemoteError> {
        Ok(Remote {
            light: LightClient::connect(addr)?,
        })
    }

    /// Socket bytes this connection has received so far.
    pub fn bytes_received(&mut self) -> u64 {
        self.light.inner().bytes_received()
    }

    pub fn pin(&mut self) -> Result<(), RemoteError> {
        Ok(self.light.pin().map(|_| ())?)
    }

    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, RemoteError> {
        Ok(self.light.get(key)?)
    }

    pub fn get_batch(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>, RemoteError> {
        Ok(self.light.get_batch(keys)?)
    }

    pub fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Entries, RemoteError> {
        Ok(self.light.range(start, end)?)
    }

    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), RemoteError> {
        Ok(self.light.put(key, value).map(|_| ())?)
    }

    // Unverified wire calls, for the round-trip floor of each frame type.

    pub fn ping(&mut self) -> Result<(), RemoteError> {
        Ok(self.light.inner().ping(b"").map(|_| ())?)
    }

    pub fn raw_get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, RemoteError> {
        Ok(self.light.inner().get(key)?)
    }

    pub fn raw_get_verified(&mut self, key: &[u8]) -> Result<usize, RemoteError> {
        let (_, proof) = self.light.inner().get_verified(key)?;
        Ok(proof.encoded_len())
    }

    pub fn raw_get_batch(&mut self, keys: &[Vec<u8>]) -> Result<usize, RemoteError> {
        let (_, proof) = self.light.inner().get_verified_batch(keys)?;
        Ok(proof.encoded_len())
    }

    pub fn raw_range(&mut self, start: &[u8], end: &[u8]) -> Result<usize, RemoteError> {
        let (entries, _) = self.light.inner().range_verified(start, end)?;
        Ok(entries.len())
    }

    pub fn raw_digest(&mut self) -> Result<(), RemoteError> {
        Ok(self.light.inner().digest().map(|_| ())?)
    }
}

// ---------------------------------------------------------------------------
// crypto
// ---------------------------------------------------------------------------

/// SHA-256 of `data`, folded to a word the caller can `black_box`.
pub fn crypto_sha256(data: &[u8]) -> u64 {
    sha256(data).prefix_u64()
}

/// A Merkle tree with one audit proof per leaf, as the journal and the
/// cross-shard digest use them.
pub struct MerkleFixture {
    root: Hash,
    leaves: Vec<Vec<u8>>,
    proofs: Vec<AuditProof>,
}

impl MerkleFixture {
    pub fn new(leaves: Vec<Vec<u8>>) -> MerkleFixture {
        let tree = MerkleTree::from_leaves(leaves.iter().map(Vec::as_slice));
        let proofs = (0..leaves.len())
            .map(|i| tree.audit_proof(i).expect("leaf index is in range"))
            .collect();
        MerkleFixture {
            root: tree.root(),
            leaves,
            proofs,
        }
    }

    pub fn verify(&self, leaf: usize) -> bool {
        self.proofs[leaf].verify(self.root, &self.leaves[leaf])
    }
}

// ---------------------------------------------------------------------------
// storage
// ---------------------------------------------------------------------------

/// Address of a stored chunk.
#[derive(Clone, Copy)]
pub struct ChunkAddress(Hash);

/// A `DurableChunkStore` of its own, driven chunk by chunk.
pub struct ChunkStoreFixture {
    store: DurableChunkStore,
}

impl ChunkStoreFixture {
    pub fn open(dir: &Path, cache_bytes: usize) -> Result<ChunkStoreFixture, String> {
        DurableChunkStore::open_with_config(dir, durable_config(cache_bytes))
            .map(|store| ChunkStoreFixture { store })
            .map_err(|e| e.to_string())
    }

    pub fn put(&self, payload: &[u8]) -> Result<ChunkAddress, String> {
        self.store
            .try_put(Chunk::new(ChunkKind::Cell, payload.to_vec()))
            .map(ChunkAddress)
            .map_err(|e| e.to_string())
    }

    pub fn get(&self, address: &ChunkAddress) -> Result<usize, String> {
        self.store
            .get(&address.0)
            .map(|chunk| chunk.len())
            .map_err(|e| e.to_string())
    }

    pub fn sync(&self) -> Result<(), String> {
        self.store.sync().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// index
// ---------------------------------------------------------------------------

/// Proof from the bare index (no ledger, no shards).
pub struct IndexPointProof(IndexProof);

impl IndexPointProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }

    pub fn nodes(&self) -> usize {
        self.0.len()
    }
}

pub struct IndexBatchProof(MultiProof);

impl IndexBatchProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// The default SIRI index over an in-memory chunk store.
pub struct IndexFixture {
    kind: SiriKind,
    index: Box<dyn SiriIndex>,
}

impl IndexFixture {
    pub fn new() -> IndexFixture {
        let kind = SpitzConfig::default().siri;
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let index: Box<dyn SiriIndex> = match kind {
            SiriKind::PosTree => Box::new(PosTree::new(store)),
            SiriKind::MerklePatriciaTrie => Box::new(MerklePatriciaTrie::new(store)),
            SiriKind::MerkleBucketTree => Box::new(MerkleBucketTree::new(store)),
        };
        IndexFixture { kind, index }
    }

    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<(), String> {
        self.index.try_insert(key, value).map_err(|e| e.to_string())
    }

    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.get(key)
    }

    pub fn prove(&self, key: &[u8]) -> (Option<Vec<u8>>, IndexPointProof) {
        let (value, proof) = self.index.get_with_proof(key);
        (value, IndexPointProof(proof))
    }

    pub fn verify(&self, key: &[u8], value: Option<&[u8]>, proof: &IndexPointProof) -> bool {
        verify_proof(self.kind, self.index.root(), key, value, &proof.0)
    }

    pub fn prove_multi(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, IndexBatchProof) {
        let (values, proof) = self.index.multi_get_with_proof(keys);
        (values, IndexBatchProof(proof))
    }

    pub fn verify_multi(
        &self,
        items: &[(Vec<u8>, Option<Vec<u8>>)],
        proof: &IndexBatchProof,
    ) -> bool {
        verify_multi_proof(self.kind, self.index.root(), items, &proof.0)
    }

    pub fn prove_range(&self, start: &[u8], end: &[u8]) -> (Entries, IndexPointProof) {
        let (entries, proof) = self.index.range_with_proof(start, end);
        (entries, IndexPointProof(proof))
    }

    pub fn verify_range(
        &self,
        start: &[u8],
        end: &[u8],
        entries: &[(Vec<u8>, Vec<u8>)],
        proof: &IndexPointProof,
    ) -> bool {
        verify_range_proof(self.kind, self.index.root(), start, end, entries, &proof.0)
    }
}

// ---------------------------------------------------------------------------
// ledger + commit pipeline
// ---------------------------------------------------------------------------

pub struct LedgerPointProof(LedgerProof);

impl LedgerPointProof {
    pub fn wire_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// One ledger over a durable chunk store, with its group-commit pipeline
/// running the benchmark's flush policy.
pub struct LedgerFixture {
    ledger: Arc<Ledger>,
    pipeline: Arc<CommitPipeline>,
}

impl LedgerFixture {
    pub fn open(dir: &Path) -> Result<LedgerFixture, String> {
        let store: Arc<dyn ChunkStore> =
            DurableChunkStore::shared(dir).map_err(|e| e.to_string())?;
        let ledger = Arc::new(Ledger::with_kind(store, SpitzConfig::default().siri));
        let pipeline = CommitPipeline::new(Arc::clone(&ledger), flush_policy());
        Ok(LedgerFixture { ledger, pipeline })
    }

    /// Seal one block directly (no pipeline, no fsync).
    pub fn append_block(&self, writes: Entries) -> Result<(), String> {
        self.ledger
            .try_append_block(writes, "BENCH")
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    pub fn prove(&self, key: &[u8]) -> (Option<Vec<u8>>, LedgerPointProof) {
        let (value, proof) = self.ledger.get_with_proof(key);
        (value, LedgerPointProof(proof))
    }

    pub fn verify(&self, key: &[u8], value: Option<&[u8]>, proof: &LedgerPointProof) -> bool {
        proof.0.verify(key, value)
    }

    pub fn snapshot(&self) -> Result<usize, String> {
        self.ledger
            .snapshot()
            .map(|snapshot| snapshot.len())
            .map_err(|e| e.to_string())
    }

    /// Commit through the pipeline; returns once published under the policy.
    pub fn commit(&self, writes: Entries) -> Result<(), String> {
        self.pipeline
            .commit(writes, "BENCH")
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Drain the pipeline and force an fsync.
    pub fn flush(&self) -> Result<(), String> {
        self.pipeline.flush().map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// txn
// ---------------------------------------------------------------------------

/// A transaction manager and a 2PC coordinator of their own, shaped like
/// the ones inside the sharded database (same scheme, same shard count).
pub struct TxnFixture {
    manager: TransactionManager,
    coordinator: TwoPhaseCoordinator,
}

impl TxnFixture {
    pub fn new() -> TxnFixture {
        let scheme = SpitzConfig::default().cc_scheme;
        let oracle = Arc::new(TimestampOracle::new());
        let participants = (0..ShardedConfig::default().shards)
            .map(|i| {
                Arc::new(Participant::new(
                    format!("shard-{i}"),
                    Arc::clone(&oracle),
                    scheme,
                ))
            })
            .collect();
        TxnFixture {
            manager: TransactionManager::new(
                Arc::new(MvccStore::new()),
                Arc::clone(&oracle),
                scheme,
            ),
            coordinator: TwoPhaseCoordinator::new(participants, oracle),
        }
    }

    /// One serializable single-key write transaction.
    pub fn commit_one(&self, key: &[u8], value: Vec<u8>) -> Result<(), String> {
        let mut txn = self.manager.begin(IsolationLevel::Serializable);
        self.manager
            .write(&mut txn, key, value)
            .map_err(|e| e.to_string())?;
        self.manager
            .commit(&mut txn)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// One two-phase commit over every participant the writes touch.
    pub fn execute(&self, writes: Entries) -> Result<(), String> {
        self.coordinator
            .execute(writes)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}
