//! Durable, crash-recoverable chunk storage.
//!
//! [`DurableChunkStore`] implements the same [`ChunkStore`] trait as the
//! in-memory store, but persists every chunk to append-only *segment files*
//! in a store directory, so a database reopened from the same path
//! reproduces its exact records-roots, chain head and digest.
//!
//! # On-disk layout
//!
//! ```text
//! store-dir/
//! ├── MANIFEST                 segment order, stats snapshot, root snapshot
//! ├── seg-0000000000.spitz     sealed segment (append-only, never rewritten)
//! ├── seg-0000000001.spitz     sealed segment
//! └── seg-0000000002.spitz     active segment (appends go here)
//!
//! segment  := magic "SPITZSEG" | version u32 | segment_id u64 | record*
//! record   := payload_len u32  -- big endian
//!           | kind u8          -- ChunkKind tag, or the root-record tag 'R'
//!           | address [32]     -- chunk: SHA-256(kind || payload)
//!                              -- root:  the published root hash
//!           | payload [payload_len]
//!           | crc u32          -- CRC-32 over all of the above
//! ```
//!
//! # Log-embedded root publication
//!
//! Named root pointers (the ledger chain head) are published as **root
//! records appended to the active segment**, not by rewriting the manifest.
//! Because a root record lands in the same append-only file *after* the
//! chunks it references, the data-before-pointer invariant holds by
//! construction: crash recovery only replays a root record if it is intact,
//! and an intact record at offset X proves every record before X in that
//! segment is intact too (sealed segments were fsynced at rotation). The
//! manifest is rewritten only on rotation and clean shutdown, where its root
//! snapshot is a *starting point* that segment replay then brings up to
//! date — so a crash after N un-manifested commits recovers to the last
//! root record that reached the disk.
//!
//! When a commit must actually be on stable storage is a policy question
//! that lives one layer up, in `spitz-ledger`'s `CommitPipeline`
//! (`DurabilityPolicy::{Strict, Grouped}`); this store only promises
//! that [`ChunkStore::sync`] orders everything appended so far before any
//! later root record, and that recovery lands on the newest root whose log
//! prefix survived. The trade-offs, briefly:
//!
//! * **Strict** — one `fsync` per commit batch, after the root record, on
//!   the thread of the caller that sealed the batch. An acknowledged commit
//!   is never lost; slowest for a single writer.
//! * **Grouped** — commits are acknowledged at *publication* (root record
//!   appended) and fsynced together at least every `max_delay`/`max_writes`:
//!   by the commit that crosses the bound, or by the pipeline's timer thread
//!   when a deadline passes with no commit to carry it. A crash loses at
//!   most that window; recovery is still clean because the log prefix
//!   property above holds at every byte.
//!
//! # Recovery rules
//!
//! Opening a store scans every segment in manifest order and rebuilds the
//! in-memory address → (segment, offset) index plus the root-pointer map:
//!
//! 1. A record that is cut short **at the tail of the last segment** — or
//!    whose CRC fails there — is the remnant of an append interrupted by a
//!    crash. It is dropped and the file truncated back to the last intact
//!    record; everything before it survives. A torn *root* record is
//!    dropped the same way, which is exactly what makes grouped commits
//!    safe: the store falls back to the previous durable root.
//! 2. The same damage anywhere else cannot be a torn append (appends only
//!    ever race the tail), so the open fails with
//!    [`StorageError::SegmentCorrupt`] — tampering or media corruption.
//!    One inherent ambiguity (shared with every length-prefixed WAL): a
//!    corrupted *length prefix* whose claimed extent reaches past the end
//!    of the last segment is indistinguishable from a torn append and is
//!    dropped along with everything after it. For ledger data this is
//!    still loud, not silent — the head root pointer stops resolving and
//!    the reopen fails.
//! 3. A record whose CRC passes but whose stored address does not hash to
//!    its contents is caught by [`ChunkStore::audit`]; at read time a
//!    client's proof check refuses whatever the chunk would have it accept.
//! 4. Root pointers start from the manifest snapshot and are then
//!    overwritten by every intact root record, replayed in segment order —
//!    the final state is the newest published root that survived.
//! 5. `chunk_count` and `physical_bytes` are recomputed from the scan and
//!    are always exact. `logical_bytes`, `dedup_hits` and `reads` come from
//!    the manifest snapshot: exact after a clean shutdown, a lower bound
//!    after a crash (`logical_bytes` is clamped to at least
//!    `physical_bytes`).
//! 6. Segment files present on disk but missing from the manifest (a crash
//!    between rotation and the manifest rewrite) are adopted in id order.
//!
//! Writes go to the active segment; when it exceeds
//! [`DurableConfig::segment_target_bytes`] it is sealed and a new segment
//! is started. An optional byte-budgeted [`cache::ChunkCache`] keeps hot
//! chunks (index roots, recent blocks) resident so verified reads stay near
//! in-memory speed.
//!
//! # Concurrency
//!
//! The store is built so the hot read path never touches the writer lock:
//! statistics are atomics, the read cache has its own mutex, and cold reads
//! take the inner lock only briefly (shared) to resolve an address before
//! reading positionally through the segment's one file handle. Steady-state
//! `fsync` calls ([`ChunkStore::sync`]) run on those handles outside every
//! lock, so they stall neither readers nor the cache. The one exception is
//! the rotation fsync of a segment being sealed: it runs under the writer
//! lock *before* the successor segment is created, because nothing may be
//! appended after a sealed segment until that segment is durable (a crash
//! must only ever tear the *last* segment). Rotation happens once per
//! [`DurableConfig::segment_target_bytes`].
//!
//! # Compaction and scrub
//!
//! The log is append-only, so superseded index nodes, rolled-back blocks
//! and aborted staging chunks accumulate until
//! [`DurableChunkStore::compact_with`] sweeps them, and a segment that fails
//! its CRC walk stays in place until [`DurableChunkStore::scrub`] excises
//! it. Both passes retire *sealed* segments — **victims** — through one
//! excision routine:
//!
//! 1. Re-appends of victim-resident chunks start diverting to the active
//!    segment (see `DurableInner::compacting`) *before* the pass plans what
//!    to carry — compaction plans from its caller-supplied mark closure —
//!    so a chunk resurrected mid-pass can never be lost.
//! 2. The planned chunks are rewritten into fresh, fsynced output segments
//!    staged in a subdirectory (`compact-tmp/`), keeping the store
//!    directory's "only the last segment may be torn" invariant intact at
//!    every crash point. A record that no longer reads back fails
//!    compaction; for scrub it is a lost chunk.
//! 3. Under the writer lock: the active segment is sealed exactly like a
//!    rotation (fsync, then a new active segment with the highest id), the
//!    outputs are renamed into the store directory, and the index is
//!    repointed (entries with no rewritten copy are dropped). Readers that
//!    already resolved a victim location keep their `Arc<Segment>` and its
//!    open file descriptor, so they are never blocked or broken.
//! 4. The manifest — now listing the outputs and carrying the victims as
//!    `condemned` (compaction) or `quarantined` (scrub) — is made durable
//!    (fsync + rename + directory fsync); **only then** are the victim
//!    files deleted or moved into `quarantine/`. A crash anywhere earlier
//!    reopens from the old manifest with the victims intact (outputs are
//!    redundant copies, adopted harmlessly or discarded); a crash after the
//!    manifest has the open path finish the disposal itself.
//!
//! A failure after the seal leaves the files and the in-memory state out
//! of step, so it turns the store read-only until a reopen.

pub mod cache;
pub mod format;
pub mod io;
pub mod manifest;
pub mod segment;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spitz_crypto::Hash;
use spitz_obs::TelemetryHandle;

use crate::chunk::Chunk;
use crate::error::{IoErrorKind, StorageError};
use crate::store::{ChunkStore, HealthState, StoreStats};
use crate::Result;

use cache::ChunkCache;
use io::{real_io, SegmentIoHandle};
use manifest::Manifest;
use segment::{parse_segment_file_name, segment_file_name, ChunkLocation, Segment};

/// Subdirectory where compaction and scrub stage their output segments
/// until the swap.
const COMPACT_STAGING_DIR: &str = "compact-tmp";

/// Subdirectory where scrub moves corrupt segment files. Unlike condemned
/// segments (deleted — their contents live on elsewhere), quarantined files
/// are *evidence* of corruption and are preserved for offline forensics.
const QUARANTINE_DIR: &str = "quarantine";

/// How a pass retires its victim segments: the one thing compaction and
/// scrub do differently once they share [`DurableChunkStore::excise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Retire {
    /// Compaction: the victims are intact, so an unreadable record fails
    /// the pass, and their files are deleted (`condemned`).
    Condemn,
    /// Scrub: the victims are corrupt, so an unreadable record is a lost
    /// chunk, and their files move into [`QUARANTINE_DIR`] (`quarantined`).
    Quarantine,
}

impl Retire {
    /// Operation name carried by errors and health reasons.
    fn op(self) -> &'static str {
        match self {
            Retire::Condemn => "compact",
            Retire::Quarantine => "scrub",
        }
    }

    /// Excised segments of this kind whose files may still be in the store
    /// directory.
    fn pending(self, inner: &mut DurableInner) -> &mut Vec<u64> {
        match self {
            Retire::Condemn => &mut inner.condemned,
            Retire::Quarantine => &mut inner.quarantined,
        }
    }

    /// Delete or quarantine the files of excised segments `ids` — only ever
    /// once a durable manifest has dropped them — and return the ids whose
    /// file is still in place, for a later pass or open to retry.
    fn dispose(self, dir: &Path, mut ids: Vec<u64>) -> Vec<u64> {
        ids.retain(|&id| {
            let path = dir.join(segment_file_name(id));
            let disposed = match self {
                Retire::Condemn => std::fs::remove_file(&path),
                Retire::Quarantine => {
                    let quarantine = dir.join(QUARANTINE_DIR);
                    std::fs::create_dir_all(&quarantine).and_then(|()| {
                        std::fs::rename(&path, quarantine.join(segment_file_name(id)))
                    })
                }
            };
            matches!(disposed, Err(e) if e.kind() != std::io::ErrorKind::NotFound)
        });
        ids
    }
}

/// What one [`DurableChunkStore::excise`] did.
struct Excision {
    /// Ids of the output segments the carried chunks were rewritten into.
    outputs: Vec<u64>,
    /// Chunks rewritten into the outputs.
    moved: u64,
    /// Record bytes written into the outputs.
    bytes_rewritten: u64,
    /// Size of the output files, headers included.
    output_bytes: u64,
    /// Index entries dropped with the victims (no rewritten copy).
    dropped: u64,
}

/// Lowers the revive guard (`DurableInner::compacting`) however an
/// excision ends.
struct ReviveGuard<'a>(&'a RwLock<DurableInner>);

impl Drop for ReviveGuard<'_> {
    fn drop(&mut self) {
        self.0.write().compacting = None;
    }
}

/// Maximum retries of a transiently-failing append or fsync (on top of the
/// initial attempt), with 1/2/4 ms exponential backoff between them.
const MAX_IO_RETRIES: u32 = 3;

/// Consecutive clean write-path operations after which a `Degraded` store
/// recovers to `Healthy` — the transient-error burst that degraded it has
/// demonstrably subsided. `ReadOnly` never auto-recovers (the causes —
/// ENOSPC, possible torn tails, lost chunks — are not transient); a reopen
/// is the only way back.
pub const DEGRADED_RECOVERY_OPS: u64 = 64;

/// Tuning knobs of a [`DurableChunkStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurableConfig {
    /// Seal the active segment and rotate once it grows past this size.
    pub segment_target_bytes: u64,
    /// Byte budget of the read-through chunk cache; 0 disables caching.
    pub cache_capacity_bytes: usize,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            segment_target_bytes: 64 * 1024 * 1024,
            cache_capacity_bytes: 16 * 1024 * 1024,
        }
    }
}

/// [`StoreStats`] held as atomics so readers never take a lock to bump a
/// counter.
#[derive(Debug, Default)]
struct AtomicStats {
    chunk_count: AtomicU64,
    physical_bytes: AtomicU64,
    logical_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    reads: AtomicU64,
    /// Reachable bytes as of the last mark pass; 0 before the first one.
    live_bytes: AtomicU64,
}

impl AtomicStats {
    fn load(&self) -> StoreStats {
        StoreStats {
            chunk_count: self.chunk_count.load(Ordering::Relaxed),
            physical_bytes: self.physical_bytes.load(Ordering::Relaxed),
            logical_bytes: self.logical_bytes.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            // Derived from the segment files at query time, never stored.
            disk_bytes: 0,
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
        }
    }

    fn store(&self, stats: StoreStats) {
        self.chunk_count.store(stats.chunk_count, Ordering::Relaxed);
        self.physical_bytes
            .store(stats.physical_bytes, Ordering::Relaxed);
        self.logical_bytes
            .store(stats.logical_bytes, Ordering::Relaxed);
        self.dedup_hits.store(stats.dedup_hits, Ordering::Relaxed);
        self.reads.store(stats.reads, Ordering::Relaxed);
        self.live_bytes.store(stats.live_bytes, Ordering::Relaxed);
    }
}

/// Bytes a chunk accounts for in `physical_bytes`, recovered from its
/// record length (`Chunk::storage_size` = payload + kind byte + address).
fn location_storage_size(location: &ChunkLocation) -> u64 {
    location.len as u64 - format::RECORD_OVERHEAD as u64 + 1 + spitz_crypto::hash::HASH_LEN as u64
}

struct DurableInner {
    index: HashMap<Hash, ChunkLocation>,
    /// All open segments in id order; the last one is active. `Arc` so the
    /// lock can be dropped before slow file I/O (reads, fsync) happens.
    segments: Vec<Arc<Segment>>,
    next_segment: u64,
    roots: std::collections::BTreeMap<String, Hash>,
    /// Bytes dropped as torn tail records during the last open.
    torn_bytes_recovered: u64,
    /// Victims of a completed compaction (`condemned`, to be deleted) or
    /// scrub (`quarantined`, to be moved into the quarantine directory)
    /// whose files may still exist: the durable manifest no longer lists
    /// them as segments, but the process may die before the disposal. The
    /// open path finishes it and never adopts them.
    condemned: Vec<u64>,
    quarantined: Vec<u64>,
    /// While a compaction or scrub pass runs: the ids of its victim
    /// segments (the revive guard). `try_put` consults this so a dedup hit
    /// on a chunk whose only copy sits in a victim re-appends the chunk to
    /// the active segment instead of reviving a location the pass may be
    /// about to excise.
    compacting: Option<HashSet<u64>>,
}

/// An fsync slower than this is rare enough — and operationally important
/// enough — to land in the telemetry event ring.
const SLOW_FSYNC_NANOS: u64 = 50_000_000;

/// Storage instruments, resolved once at open so the hot paths touch
/// pre-bound `Arc`s instead of the registry maps. Every instrument is
/// inert when the store was opened without telemetry.
struct StoreObs {
    append_nanos: Arc<spitz_obs::Histogram>,
    read_nanos: Arc<spitz_obs::Histogram>,
    fsync_nanos: Arc<spitz_obs::Histogram>,
    cache_hits: Arc<spitz_obs::Counter>,
    cache_misses: Arc<spitz_obs::Counter>,
    compactions: Arc<spitz_obs::Counter>,
    space_amp: Arc<spitz_obs::FloatGauge>,
    /// Current [`HealthState`] as 0/1/2 (healthy/degraded/read-only).
    health: Arc<spitz_obs::Gauge>,
    io_retries: Arc<spitz_obs::Counter>,
    io_retries_exhausted: Arc<spitz_obs::Counter>,
    scrub_passes: Arc<spitz_obs::Counter>,
    scrub_corrupt_segments: Arc<spitz_obs::Counter>,
    scrub_salvaged_chunks: Arc<spitz_obs::Counter>,
    scrub_lost_chunks: Arc<spitz_obs::Counter>,
    telemetry: TelemetryHandle,
}

impl StoreObs {
    fn new(telemetry: TelemetryHandle) -> StoreObs {
        StoreObs {
            append_nanos: telemetry.histogram("storage.append_nanos"),
            read_nanos: telemetry.histogram("storage.read_nanos"),
            fsync_nanos: telemetry.histogram("storage.fsync_nanos"),
            cache_hits: telemetry.counter("storage.cache.hits"),
            cache_misses: telemetry.counter("storage.cache.misses"),
            compactions: telemetry.counter("storage.compactions"),
            space_amp: telemetry.float_gauge("storage.space_amplification"),
            health: telemetry.gauge("storage.health"),
            io_retries: telemetry.counter("storage.io_retries"),
            io_retries_exhausted: telemetry.counter("storage.io_retries_exhausted"),
            scrub_passes: telemetry.counter("storage.scrub.passes"),
            scrub_corrupt_segments: telemetry.counter("storage.scrub.corrupt_segments"),
            scrub_salvaged_chunks: telemetry.counter("storage.scrub.salvaged_chunks"),
            scrub_lost_chunks: telemetry.counter("storage.scrub.lost_chunks"),
            telemetry,
        }
    }
}

/// A crash-recoverable [`ChunkStore`] over append-only segment files.
pub struct DurableChunkStore {
    dir: PathBuf,
    config: DurableConfig,
    obs: StoreObs,
    inner: RwLock<DurableInner>,
    /// The read cache behind its own lock, so hot reads contend only here.
    cache: Mutex<ChunkCache>,
    stats: AtomicStats,
    /// Id of the oldest segment that may hold data not yet on stable
    /// storage. [`ChunkStore::sync`] fsyncs every segment from here up —
    /// never just the active one — so a commit acknowledged right after a
    /// rotation cannot race the (out-of-lock) fsync of the sealed segment:
    /// the mark only advances past a segment once an fsync of it has
    /// completed. Monotone non-decreasing.
    first_unsynced: AtomicU64,
    /// Serializes compaction *and scrub* passes: at most one of either runs
    /// at a time (both rewrite the segment set and share the staging
    /// directory).
    compaction: Mutex<()>,
    /// Serializes manifest rewrites. The state snapshot is taken *inside*
    /// this lock, so a slow rewrite can never clobber the file with an
    /// older view than one that already landed (rotation racing compaction,
    /// two rotations racing each other).
    manifest_lock: Mutex<()>,
    /// Fault-injection seam threaded into every segment this store opens or
    /// creates; [`io::RealIo`] in production.
    io: SegmentIoHandle,
    /// Current [`HealthState`] as 0/1/2. Raised monotonically
    /// (`fetch_max`) by write-path failures; the one sanctioned reverse
    /// transition is Degraded → Healthy after
    /// [`DEGRADED_RECOVERY_OPS`] consecutive clean write-path operations
    /// (see [`DurableChunkStore::note_write_success`]). ReadOnly is final
    /// within a process lifetime; reopening resets.
    health: AtomicU8,
    /// Why the store degraded (empty while healthy) — carried into the
    /// [`StorageError::ReadOnly`] writes fail with.
    health_reason: Mutex<String>,
    /// Consecutive write-path operations that completed without any I/O
    /// failure. Zeroed by every write-path failure; when it reaches
    /// [`DEGRADED_RECOVERY_OPS`] while the store is `Degraded`, health
    /// recovers to `Healthy` (transient-error rates have subsided).
    clean_ops: AtomicU64,
}

/// Outcome of a completed [`DurableChunkStore::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Sealed segments whose CRCs were verified.
    pub segments_scanned: u64,
    /// Segments found corrupt and moved into the quarantine directory.
    pub quarantined_segments: Vec<u64>,
    /// Indexed chunks rewritten intact out of corrupt segments.
    pub chunks_salvaged: u64,
    /// Indexed chunks whose records were damaged beyond salvage; their
    /// addresses now resolve to [`StorageError::ChunkNotFound`] and the
    /// store is read-only.
    pub chunks_lost: u64,
}

/// Outcome of a completed [`DurableChunkStore::compact_with`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sealed segments that were rewritten and deleted.
    pub victim_segments: Vec<u64>,
    /// Fresh segments the surviving chunks were rewritten into.
    pub output_segments: Vec<u64>,
    /// Live chunks copied out of the victims.
    pub live_chunks_rewritten: u64,
    /// Unreachable chunks dropped with the victims.
    pub chunks_dropped: u64,
    /// Segment-file bytes written while rewriting live chunks.
    pub bytes_rewritten: u64,
    /// Net segment-file bytes returned to the filesystem (victim files
    /// minus output files).
    pub bytes_reclaimed: u64,
}

/// Crash points the crash-consistency tests inject into a compaction pass.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionFault {
    /// No fault: run to completion.
    None,
    /// Fail after rewriting live chunks but before the manifest swap.
    BeforeSwap,
    /// Fail after the swapped manifest is durable but before the victim
    /// segment files are deleted (or, for scrub, quarantined).
    BeforeDelete,
}

impl DurableChunkStore {
    /// Open (or create) a store in `dir` with the default configuration.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_config(dir, DurableConfig::default())
    }

    /// Open (or create) a store in `dir`, already wrapped in an [`Arc`].
    pub fn shared(dir: impl AsRef<Path>) -> Result<Arc<Self>> {
        Self::open(dir).map(Arc::new)
    }

    /// Open (or create) a store in `dir` with explicit tuning.
    pub fn open_with_config(dir: impl AsRef<Path>, config: DurableConfig) -> Result<Self> {
        Self::open_with_io(dir, config, TelemetryHandle::disabled(), real_io())
    }

    /// [`Self::open_with_config`], recording into `telemetry` (append/read
    /// latency, cache hit/miss, fsync latency, space amplification, and
    /// rare events: torn-tail recoveries, compaction passes, slow fsyncs)
    /// with an explicit [`io::SegmentIo`] seam installed under every
    /// segment file — the entry point fault schedules use to exercise torn
    /// writes, bit flips, `ENOSPC`, transient `EIO` and fsync failures
    /// against the real recovery code.
    pub fn open_with_io(
        dir: impl AsRef<Path>,
        config: DurableConfig,
        telemetry: TelemetryHandle,
        io: SegmentIoHandle,
    ) -> Result<Self> {
        if config.segment_target_bytes == 0 {
            return Err(StorageError::InvalidConfig(
                "segment_target_bytes must be positive".into(),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::io("open", &dir, e))?;

        let manifest = Manifest::load(&dir)?.unwrap_or_default();

        // Clean up after a compaction or scrub the previous process did not
        // finish. Staged outputs never made it into the manifest, so they
        // hold nothing the surviving segments do not; excised victims are
        // the opposite — the manifest already dropped them, only their
        // disposal was interrupted. Ids whose disposal still fails stay
        // listed so a later open retries.
        let staging = dir.join(COMPACT_STAGING_DIR);
        if staging.exists() {
            std::fs::remove_dir_all(&staging).map_err(|e| StorageError::io("open", &staging, e))?;
        }
        let mut inner = DurableInner {
            index: HashMap::new(),
            segments: Vec::new(),
            next_segment: 0,
            roots: manifest.roots.clone(),
            torn_bytes_recovered: 0,
            condemned: Retire::Condemn.dispose(&dir, manifest.condemned.clone()),
            quarantined: Retire::Quarantine.dispose(&dir, manifest.quarantined.clone()),
            compacting: None,
        };
        let segment_ids = discover_segments(&dir, &manifest)?;
        let mut stats = manifest.stats;

        // Rebuild the address index by scanning every segment and replay
        // root publications in log order; only the last segment may carry a
        // torn tail (recovery rules 1/2 above).
        stats.chunk_count = 0;
        stats.physical_bytes = 0;
        for (position, &id) in segment_ids.iter().enumerate() {
            let segment = Segment::open(&dir, id, Arc::clone(&io))?;
            let is_last = position + 1 == segment_ids.len();
            let outcome = segment.scan(is_last)?;
            inner.torn_bytes_recovered += outcome.torn_bytes;
            for (address, location) in outcome.records {
                // Later duplicates of an address are re-appends of identical
                // content; keep the first location.
                if let Entry::Vacant(slot) = inner.index.entry(address) {
                    slot.insert(location);
                    stats.chunk_count += 1;
                    stats.physical_bytes += location_storage_size(&location);
                }
            }
            // The log is the truth for roots: every publication since the
            // manifest snapshot is replayed over it (recovery rule 4).
            for (name, hash) in outcome.roots {
                inner.roots.insert(name, hash);
            }
            inner.segments.push(Arc::new(segment));
        }
        if inner.segments.is_empty() {
            inner
                .segments
                .push(Arc::new(Segment::create(&dir, 0, Arc::clone(&io))?));
        }
        inner.next_segment = inner.segments.last().map(|s| s.id + 1).unwrap_or(1);
        // A stale manifest can under-count logical writes after a crash;
        // every physical byte was a logical write at least once.
        stats.logical_bytes = stats.logical_bytes.max(stats.physical_bytes);

        // Conservative: everything this process has not fsynced itself is
        // treated as possibly dirty, so the first sync() covers every
        // segment once (a no-op fsync of a clean file is cheap).
        let first_unsynced = inner.segments.first().map(|s| s.id).unwrap_or(0);
        let store = DurableChunkStore {
            dir,
            config,
            obs: StoreObs::new(telemetry),
            cache: Mutex::new(ChunkCache::new(config.cache_capacity_bytes)),
            stats: AtomicStats::default(),
            inner: RwLock::new(inner),
            first_unsynced: AtomicU64::new(first_unsynced),
            compaction: Mutex::new(()),
            manifest_lock: Mutex::new(()),
            io,
            health: AtomicU8::new(HealthState::Healthy as u8),
            health_reason: Mutex::new(String::new()),
            clean_ops: AtomicU64::new(0),
        };
        store.stats.store(stats);
        store.obs.health.set(HealthState::Healthy as i64);
        // A previous process may have run a mark pass; carry its
        // measurement into the gauge so the ratio is meaningful from reopen.
        store.record_space_amp();
        let torn = store.inner.read().torn_bytes_recovered;
        if torn > 0 {
            store.obs.telemetry.event(
                "torn_tail_recovery",
                format!(
                    "dropped {torn} torn tail bytes while opening {:?}",
                    store.dir
                ),
            );
        }
        store
            .manifest_snapshot(&store.inner.read())
            .store(&store.dir)?;
        Ok(store)
    }

    /// The telemetry handle the store records into (inert unless the store
    /// was opened via [`Self::open_with_io`] with a live handle).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.obs.telemetry
    }

    /// The configuration the store was opened with.
    pub fn config(&self) -> DurableConfig {
        self.config
    }

    /// Bytes dropped as torn tail records while opening (crash recovery).
    pub fn torn_bytes_recovered(&self) -> u64 {
        self.inner.read().torn_bytes_recovered
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.inner.read().segments.len()
    }

    /// `(hits, misses)` of the read-through cache since open.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.lock().hit_stats()
    }

    /// Force segment contents and the manifest to stable storage.
    pub fn flush(&self) -> Result<()> {
        self.sync()?;
        self.write_manifest()
    }

    /// Snapshot of every named root pointer (name → hash). The sweep's
    /// mark phase enumerates these to find the GC roots.
    pub fn roots(&self) -> Vec<(String, Hash)> {
        self.inner
            .read()
            .roots
            .iter()
            .map(|(name, hash)| (name.clone(), *hash))
            .collect()
    }

    /// Why the store is degraded or read-only (empty while healthy).
    pub fn health_reason(&self) -> String {
        self.health_reason.lock().clone()
    }

    /// Raise the health state to *at least* `target` (transitions are
    /// monotone: a read-only store never goes back to degraded). Records
    /// the reason and emits a telemetry event on an actual transition.
    fn raise_health(&self, target: HealthState, reason: &str) {
        let previous = self.health.fetch_max(target as u8, Ordering::AcqRel);
        if previous >= target as u8 {
            return;
        }
        *self.health_reason.lock() = reason.to_string();
        self.obs.health.set(target as i64);
        let kind = match target {
            HealthState::ReadOnly => "store_readonly",
            _ => "store_degraded",
        };
        self.obs
            .telemetry
            .event(kind, format!("{reason} ({:?})", self.dir));
    }

    /// Fail fast when the store no longer accepts writes.
    fn ensure_writable(&self) -> Result<()> {
        if self.health.load(Ordering::Acquire) == HealthState::ReadOnly as u8 {
            return Err(StorageError::ReadOnly(self.health_reason()));
        }
        Ok(())
    }

    /// Run a write-path operation, retrying transient I/O failures with
    /// capped exponential backoff (1/2/4 ms, [`MAX_IO_RETRIES`] retries).
    fn retry_transient<T>(&self, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let mut delay_ms = 1u64;
        for attempt in 0..=MAX_IO_RETRIES {
            match op() {
                Err(StorageError::Io(e)) if e.kind == IoErrorKind::Transient => {
                    if attempt == MAX_IO_RETRIES {
                        self.obs.io_retries_exhausted.inc();
                        return Err(StorageError::Io(e));
                    }
                    self.obs.io_retries.inc();
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                    delay_ms *= 2;
                }
                other => {
                    if other.is_ok() {
                        self.note_write_success();
                    }
                    return other;
                }
            }
        }
        unreachable!("retry loop always returns")
    }

    /// Count a clean write-path operation toward automatic recovery from
    /// `Degraded`. Once [`DEGRADED_RECOVERY_OPS`] consecutive operations
    /// complete without an I/O failure, the store transitions back to
    /// `Healthy` (reason cleared, telemetry event emitted). The CAS only
    /// ever moves Degraded → Healthy: a `ReadOnly` store never recovers in
    /// place, and a concurrent failure racing the recovery wins.
    fn note_write_success(&self) {
        if self.health.load(Ordering::Acquire) != HealthState::Degraded as u8 {
            return;
        }
        let clean = self.clean_ops.fetch_add(1, Ordering::AcqRel) + 1;
        if clean < DEGRADED_RECOVERY_OPS {
            return;
        }
        if self
            .health
            .compare_exchange(
                HealthState::Degraded as u8,
                HealthState::Healthy as u8,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            self.clean_ops.store(0, Ordering::Release);
            *self.health_reason.lock() = String::new();
            self.obs.health.set(HealthState::Healthy as i64);
            self.obs.telemetry.event(
                "store_recovered",
                format!(
                    "degraded store recovered after {DEGRADED_RECOVERY_OPS} clean write \
                     operations ({:?})",
                    self.dir
                ),
            );
        }
    }

    /// Translate a write-path failure that survived the retry loop into a
    /// health transition:
    ///
    /// * `NoSpace` — the device is full; no retry can help. Read-only.
    /// * `Transient` (retries exhausted) — the append itself rolled the
    ///   file back, so the store stays writable but is flagged degraded.
    /// * `Other` — a failed append may have left a torn tail (the rollback
    ///   itself can fail, and an injected torn write models exactly that),
    ///   after which the in-memory length and the file disagree; a failed
    ///   fsync leaves the page-cache state unknowable. Fail stop: read-only,
    ///   reads keep serving, reopening re-establishes the tail invariant.
    fn note_write_failure(&self, err: &StorageError, context: &str) {
        let StorageError::Io(e) = err else { return };
        // Any write-path I/O failure restarts the clean-streak a degraded
        // store needs for automatic recovery.
        self.clean_ops.store(0, Ordering::Release);
        match e.kind {
            IoErrorKind::NoSpace => {
                self.raise_health(
                    HealthState::ReadOnly,
                    &format!("device out of space during {context}"),
                );
            }
            IoErrorKind::Transient => {
                self.raise_health(
                    HealthState::Degraded,
                    &format!("transient I/O retries exhausted during {context}"),
                );
            }
            IoErrorKind::Other => self.fail_stop(err, context),
        }
    }

    /// Refuse further writes after `err` left the files and the in-memory
    /// state out of step. Reads keep serving; a reopen re-establishes the
    /// invariants.
    fn fail_stop(&self, err: &StorageError, context: &str) {
        self.raise_health(
            HealthState::ReadOnly,
            &format!("{context} failed ({err}); refusing further writes"),
        );
    }

    /// Seal the active segment under the writer lock: fsync it (transient
    /// failures retried, others fail-stop the store), advance
    /// `first_unsynced` past it, and make a fresh segment with the next id
    /// the active one. Nothing may be appended above a segment until it is
    /// durable, or a crash could tear a segment that is not the last.
    /// Rotation and both passes' swaps seal here; a failure once the fsync
    /// succeeded fail-stops the store.
    fn seal_active(&self, inner: &mut DurableInner, context: &str) -> Result<()> {
        let active = Arc::clone(inner.segments.last().expect("active segment exists"));
        self.retry_transient(|| active.sync())
            .inspect_err(|e| self.note_write_failure(e, context))?;
        let id = inner.next_segment;
        inner.next_segment += 1;
        // Ids between the two belong to a pass's staged outputs, which are
        // fsynced before they are published.
        let _ = self.first_unsynced.compare_exchange(
            active.id,
            id,
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
        let successor = Segment::create(&self.dir, id, Arc::clone(&self.io))
            .inspect_err(|e| self.fail_stop(e, context))?;
        inner.segments.push(Arc::new(successor));
        Ok(())
    }

    /// Refresh the space-amplification gauge from the last mark pass's
    /// live bytes (nothing to report before the first one).
    fn record_space_amp(&self) {
        let live_bytes = self.stats.live_bytes.load(Ordering::Relaxed);
        if live_bytes > 0 {
            let disk: u64 = self.inner.read().segments.iter().map(|s| s.len()).sum();
            self.obs.space_amp.set(disk as f64 / live_bytes as f64);
        }
    }

    fn manifest_snapshot(&self, inner: &DurableInner) -> Manifest {
        Manifest {
            segments: inner.segments.iter().map(|s| s.id).collect(),
            next_segment: inner.next_segment,
            stats: self.stats.load(),
            roots: inner.roots.clone(),
            condemned: inner.condemned.clone(),
            quarantined: inner.quarantined.clone(),
        }
    }

    /// Rewrite the manifest from current state, serialized so a rewrite
    /// carrying an older snapshot can never land over a newer one.
    fn write_manifest(&self) -> Result<()> {
        let _serialize = self.manifest_lock.lock();
        let manifest = self.manifest_snapshot(&self.inner.read());
        manifest.store(&self.dir)
    }

    /// Resolve an address to its segment and location without holding the
    /// lock across the disk read.
    fn locate(&self, address: &Hash) -> Result<(Arc<Segment>, ChunkLocation)> {
        let inner = self.inner.read();
        let location = *inner
            .index
            .get(address)
            .ok_or(StorageError::ChunkNotFound(*address))?;
        let position = inner
            .segments
            .binary_search_by_key(&location.segment, |s| s.id)
            .map_err(|_| StorageError::ChunkNotFound(*address))?;
        Ok((Arc::clone(&inner.segments[position]), location))
    }

    /// Mark-sweep compaction: rewrite the chunks `mark` reports as
    /// reachable out of every *sealed* segment into fresh segments, swap
    /// them in atomically, and delete the old files.
    ///
    /// `mark` runs after the pass has fixed its victims and begun diverting
    /// re-appends of victim-resident chunks, so the live set it returns
    /// cannot be invalidated by concurrent writers: chunks written (or
    /// re-written) during the pass land in the active segment, which is
    /// never a victim. The closure must return the address of **every**
    /// chunk that must survive — anything else in a sealed segment is
    /// dropped. An error from `mark` aborts the pass with the store
    /// untouched.
    ///
    /// Readers are never blocked: a reader that already resolved a chunk
    /// into a victim segment keeps reading through its `Arc<Segment>` (the
    /// open descriptor outlives the unlink). Crash safety: victim files are
    /// deleted only after the post-swap manifest — which records them as
    /// [`Manifest::condemned`] — is on stable storage; every earlier crash
    /// point reopens from the previous manifest with the victims intact.
    ///
    /// Returns `Ok(None)` when there is nothing to compact (at most one
    /// segment), otherwise a [`CompactionReport`].
    pub fn compact_with<F>(&self, mark: F) -> Result<Option<CompactionReport>>
    where
        F: FnOnce() -> Result<HashSet<Hash>>,
    {
        self.compact_with_fault(mark, CompactionFault::None)
    }

    /// [`Self::compact_with`] with an injected crash point (test hook).
    #[doc(hidden)]
    pub fn compact_with_fault<F>(
        &self,
        mark: F,
        fault: CompactionFault,
    ) -> Result<Option<CompactionReport>>
    where
        F: FnOnce() -> Result<HashSet<Hash>>,
    {
        // A read-only store is frozen: rewriting the segment set is a
        // write, and sealing the current active segment (whose tail may be
        // desynced by the very failure that flipped the store read-only)
        // could turn a recoverable torn tail into unopenable corruption.
        self.ensure_writable()?;
        let _serialize = self.compaction.lock();

        // Every sealed segment is a victim.
        let victims: Vec<Arc<Segment>> = match self.inner.read().segments.split_last() {
            Some((_active, sealed)) if !sealed.is_empty() => sealed.to_vec(),
            _ => return Ok(None),
        };
        let victim_bytes: u64 = victims.iter().map(|s| s.len()).sum();

        // Mark: compute reachability, then plan which victim records must
        // move. The store-wide live-byte count falls out of the same walk.
        let plan = |victim_ids: &HashSet<u64>| {
            let live = mark()?;
            let mut plan: Vec<(Hash, ChunkLocation)> = Vec::new();
            let mut live_bytes = 0u64;
            for (address, location) in &self.inner.read().index {
                if !live.contains(address) {
                    continue;
                }
                live_bytes += location_storage_size(location);
                if victim_ids.contains(&location.segment) {
                    plan.push((*address, *location));
                }
            }
            self.stats.live_bytes.store(live_bytes, Ordering::Relaxed);
            self.record_space_amp();
            Ok(plan)
        };
        let excision = self.excise(&victims, plan, Retire::Condemn, fault)?;

        let report = CompactionReport {
            victim_segments: victims.iter().map(|s| s.id).collect(),
            output_segments: excision.outputs,
            live_chunks_rewritten: excision.moved,
            chunks_dropped: excision.dropped,
            bytes_rewritten: excision.bytes_rewritten,
            bytes_reclaimed: victim_bytes.saturating_sub(excision.output_bytes),
        };
        self.obs.compactions.inc();
        self.record_space_amp();
        self.obs.telemetry.event(
            "compaction",
            format!(
                "victims={:?} outputs={:?} rewrote {} live chunks, dropped {}, reclaimed {} bytes",
                report.victim_segments,
                report.output_segments,
                report.live_chunks_rewritten,
                report.chunks_dropped,
                report.bytes_reclaimed
            ),
        );
        Ok(Some(report))
    }

    /// Verify the CRC of every record in every *sealed* segment — the
    /// integrity pass that `SpitzDb::scrub` and the server's `SCRUB` opcode
    /// run on request, off the hot path — and excise any segment found
    /// corrupt.
    ///
    /// A corrupt segment is **quarantined**, not abandoned: every indexed
    /// chunk still living in it is re-read record by record (the per-record
    /// CRC decides salvageable vs lost), intact chunks are rewritten into
    /// fresh fsynced segments through the same staged swap compaction uses,
    /// and the damaged file is then moved into `quarantine/` for forensics.
    /// The manifest drops the segment and records it as quarantined
    /// *before* the file moves, so a crash at any point either reopens with
    /// the segment intact or finishes the move on open, never both copies.
    ///
    /// Chunks whose records are damaged are dropped from the index (reads
    /// return [`StorageError::ChunkNotFound`] instead of a misleading
    /// `SegmentCorrupt` from a file that no longer exists) and the store
    /// flips to [`HealthState::ReadOnly`]: data was lost, so it stops
    /// accepting writes while verified reads keep serving what survives.
    /// A fully salvaged quarantine only degrades health.
    ///
    /// Serialized with compaction (both rewrite the segment set); readers
    /// are never blocked for longer than one segment's CRC walk.
    pub fn scrub(&self) -> Result<ScrubReport> {
        self.scrub_with_fault(CompactionFault::None)
    }

    /// [`Self::scrub`] with an injected crash point.
    fn scrub_with_fault(&self, fault: CompactionFault) -> Result<ScrubReport> {
        // Same gate as compaction: quarantine rewrites the segment set and
        // seals the active segment, neither of which a read-only store may
        // do (and a desynced active tail must stay *last* so reopen can
        // truncate it).
        self.ensure_writable()?;
        let _serialize = self.compaction.lock();

        let sealed: Vec<Arc<Segment>> = match self.inner.read().segments.split_last() {
            Some((_active, sealed)) => sealed.to_vec(),
            None => Vec::new(),
        };
        let mut corrupt: Vec<Arc<Segment>> = Vec::new();
        for segment in &sealed {
            if let Err(err) = segment.scan(false) {
                self.obs.scrub_corrupt_segments.inc();
                self.obs.telemetry.event(
                    "scrub_corruption",
                    format!("segment {} failed verification: {err}", segment.id),
                );
                corrupt.push(Arc::clone(segment));
            }
        }
        self.obs.scrub_passes.inc();
        let mut report = ScrubReport {
            segments_scanned: sealed.len() as u64,
            ..ScrubReport::default()
        };
        if corrupt.is_empty() {
            return Ok(report);
        }

        // Carry every indexed chunk still located in a corrupt segment.
        // Chunks that already moved (revived by a racing put) point
        // elsewhere and are not the scrub's business.
        let plan = |victim_ids: &HashSet<u64>| {
            Ok(self
                .inner
                .read()
                .index
                .iter()
                .filter(|(_, location)| victim_ids.contains(&location.segment))
                .map(|(address, location)| (*address, *location))
                .collect())
        };
        let excision = self.excise(&corrupt, plan, Retire::Quarantine, fault)?;

        report.quarantined_segments = corrupt.iter().map(|s| s.id).collect();
        report.chunks_salvaged = excision.moved;
        report.chunks_lost = excision.dropped;
        self.obs.scrub_salvaged_chunks.add(report.chunks_salvaged);
        self.obs.scrub_lost_chunks.add(report.chunks_lost);
        for &id in &report.quarantined_segments {
            self.obs.telemetry.event(
                "segment_quarantined",
                format!(
                    "segment {id} excised to quarantine ({} salvaged, {} lost store-wide)",
                    report.chunks_salvaged, report.chunks_lost
                ),
            );
        }
        if report.chunks_lost > 0 {
            self.raise_health(
                HealthState::ReadOnly,
                &format!(
                    "unsalvageable corruption: {} chunk(s) lost from quarantined segment(s) {:?}",
                    report.chunks_lost, report.quarantined_segments
                ),
            );
        } else {
            self.raise_health(
                HealthState::Degraded,
                &format!(
                    "segment(s) {:?} quarantined; all {} live chunk(s) salvaged",
                    report.quarantined_segments, report.chunks_salvaged
                ),
            );
        }
        Ok(report)
    }

    /// Retire the sealed segments `victims` (in id order) — the one
    /// crash-consistency protocol behind compaction and scrub; see the
    /// module docs. Raises the revive guard, runs `plan` for the victim
    /// records to carry, rewrites them into staged, fsynced outputs, swaps
    /// the outputs in and the victims out under the writer lock (index
    /// entries left in a victim with no rewritten copy are dropped), makes
    /// that manifest durable, and only then disposes of the victim files
    /// as `retire` says. Caller holds the compaction mutex.
    fn excise(
        &self,
        victims: &[Arc<Segment>],
        plan: impl FnOnce(&HashSet<u64>) -> Result<Vec<(Hash, ChunkLocation)>>,
        retire: Retire,
        fault: CompactionFault,
    ) -> Result<Excision> {
        let op = retire.op();
        let victim_ids: HashSet<u64> = victims.iter().map(|s| s.id).collect();
        self.inner.write().compacting = Some(victim_ids.clone());
        let _revive_guard = ReviveGuard(&self.inner);
        let mut plan = plan(&victim_ids)?;
        // Sequential read order within each victim file.
        plan.sort_unstable_by_key(|(_, location)| (location.segment, location.offset));

        // Step 1 — rewrite the planned chunks into output segments staged
        // where segment discovery cannot see them. Output ids come from
        // `next_segment`, so they stay unique and ordered even when a
        // rotation interleaves.
        let staging = self.dir.join(COMPACT_STAGING_DIR);
        let _ = std::fs::remove_dir_all(&staging);
        std::fs::create_dir_all(&staging).map_err(|e| StorageError::io(op, &staging, e))?;
        let mut outputs: Vec<Segment> = Vec::new();
        let mut moved: HashMap<Hash, ChunkLocation> = HashMap::new();
        let mut bytes_rewritten = 0u64;
        for (address, location) in &plan {
            let position = victims
                .binary_search_by_key(&location.segment, |s| s.id)
                .expect("plan entries point into victim segments");
            let chunk = match victims[position].read(location) {
                Ok(chunk) => chunk,
                // Lost; dropped from the index at the swap.
                Err(_) if retire == Retire::Quarantine => continue,
                Err(e) => return Err(e),
            };
            if outputs
                .last()
                .is_none_or(|out| out.len() >= self.config.segment_target_bytes)
            {
                let id = {
                    let mut inner = self.inner.write();
                    inner.next_segment += 1;
                    inner.next_segment - 1
                };
                outputs.push(Segment::create(&staging, id, Arc::clone(&self.io))?);
            }
            let out = outputs.last().expect("an output segment was just ensured");
            let new_location = out.append(address, &chunk)?;
            bytes_rewritten += new_location.len as u64;
            moved.insert(*address, new_location);
        }
        for out in &outputs {
            out.sync()?;
        }
        if fault == CompactionFault::BeforeSwap {
            return Err(StorageError::io_synthetic(
                IoErrorKind::Other,
                op,
                "injected fault before the manifest swap",
            ));
        }

        // Step 2 — the swap, under the writer lock. Sealing first puts the
        // new active segment above every output. A crash anywhere in here
        // reopens from the *old* manifest: victims are still listed, and
        // outputs are adopted as redundant copies the first-wins scan
        // ignores.
        let mut dropped: Vec<Hash> = Vec::new();
        let mut dropped_bytes = 0u64;
        {
            let mut inner = self.inner.write();
            self.seal_active(&mut inner, op)?;
            let published = outputs
                .iter()
                .map(|out| {
                    let to = self.dir.join(segment_file_name(out.id));
                    std::fs::rename(staging.join(segment_file_name(out.id)), &to)
                        .map_err(|e| StorageError::io(op, &to, e))?;
                    Segment::open(&self.dir, out.id, Arc::clone(&self.io)).map(Arc::new)
                })
                .collect::<Result<Vec<_>>>()
                .inspect_err(|e| self.fail_stop(e, op))?;
            let _ = std::fs::remove_dir_all(&staging);

            // Repoint victim entries into the outputs. Entries revived by
            // `try_put` during the pass already point elsewhere and pass
            // through untouched.
            inner.index.retain(|address, location| {
                if !victim_ids.contains(&location.segment) {
                    return true;
                }
                match moved.get(address) {
                    Some(new_location) => {
                        *location = *new_location;
                        true
                    }
                    None => {
                        dropped.push(*address);
                        dropped_bytes += location_storage_size(location);
                        false
                    }
                }
            });
            inner.segments.retain(|s| !victim_ids.contains(&s.id));
            inner.segments.extend(published);
            inner.segments.sort_unstable_by_key(|s| s.id);
            let pending = retire.pending(&mut inner);
            pending.extend(&victim_ids);
            pending.sort_unstable();
            pending.dedup();
        }
        self.stats
            .chunk_count
            .fetch_sub(dropped.len() as u64, Ordering::Relaxed);
        self.stats
            .physical_bytes
            .fetch_sub(dropped_bytes, Ordering::Relaxed);
        {
            // The store no longer holds the dropped chunks, so the cache
            // must not serve them either.
            let mut cache = self.cache.lock();
            for address in &dropped {
                cache.remove(address);
            }
        }

        // Step 3 — make the swap durable (the outputs' directory entries,
        // then the manifest), and only then dispose of the victim files.
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StorageError::io(op, &self.dir, e))
            .and_then(|()| self.write_manifest())
            .inspect_err(|e| self.fail_stop(e, op))?;
        if fault == CompactionFault::BeforeDelete {
            return Err(StorageError::io_synthetic(
                IoErrorKind::Other,
                op,
                "injected fault before the victims' disposal",
            ));
        }
        let pending = retire.pending(&mut self.inner.write()).clone();
        let kept = retire.dispose(&self.dir, pending);
        *retire.pending(&mut self.inner.write()) = kept;
        self.write_manifest()?;

        Ok(Excision {
            outputs: outputs.iter().map(|s| s.id).collect(),
            moved: moved.len() as u64,
            bytes_rewritten,
            output_bytes: outputs.iter().map(|s| s.len()).sum(),
            dropped: dropped.len() as u64,
        })
    }
}

impl ChunkStore for DurableChunkStore {
    /// Store a chunk by appending it to the active segment, surfacing I/O
    /// failures (disk full, EIO) as [`StorageError`].
    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        self.ensure_writable()?;
        let _append_span = self.obs.append_nanos.span();
        let address = chunk.address();
        self.stats
            .logical_bytes
            .fetch_add(chunk.storage_size() as u64, Ordering::Relaxed);

        // Whether a rotation happened: its manifest rewrite is handled
        // after the lock is dropped, so it never runs under a lock readers
        // need.
        let mut rotated = false;
        {
            let mut inner = self.inner.write();
            let mut revived = false;
            if let Some(existing) = inner.index.get(&address) {
                let doomed = matches!(
                    &inner.compacting,
                    Some(victims) if victims.contains(&existing.segment)
                );
                if !doomed {
                    self.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(address);
                }
                // The only copy sits in a segment an in-flight compaction
                // may delete, and its mark phase can no longer observe
                // this chunk becoming reachable again. Re-append it to the
                // active segment (never a victim) and repoint the index:
                // the swap leaves non-victim locations alone, so the new
                // copy survives however the pass ends. The counters don't
                // move — one referenced copy before, one after (the extra
                // on-disk copy is garbage for the *next* pass).
                revived = true;
            }

            let active = Arc::clone(inner.segments.last().expect("active segment exists"));
            let location = self
                .retry_transient(|| active.append(&address, &chunk))
                .inspect_err(|e| self.note_write_failure(e, "segment append"))?;
            if !revived {
                self.stats.chunk_count.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .physical_bytes
                    .fetch_add(chunk.storage_size() as u64, Ordering::Relaxed);
            }
            inner.index.insert(address, location);

            if active.len() >= self.config.segment_target_bytes {
                // Seal *before* the successor segment exists — still under
                // the writer lock. This is the one fsync that must stay
                // inside: appends are serialized by this lock, so nothing
                // can land in the new segment (and possibly reach disk via
                // writeback) until the sealed file is durable; otherwise a
                // crash could tear a *non-last* segment, which recovery
                // rightly refuses to open. Rotation is rare (once per
                // `segment_target_bytes`) and cache hits don't take this
                // lock.
                self.seal_active(&mut inner, "rotation fsync")?;
                rotated = true;
            }
        }
        self.cache.lock().insert(address, Arc::new(chunk));

        if rotated {
            self.write_manifest()?;
        }
        Ok(address)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        if self.config.cache_capacity_bytes > 0 {
            if let Some(chunk) = self.cache.lock().get(address) {
                // Counter only — a clock read would be a large fraction of
                // a cache hit's total cost.
                self.obs.cache_hits.inc();
                return Ok(chunk);
            }
        }
        self.obs.cache_misses.inc();
        let _read_span = self.obs.read_nanos.span();
        let (segment, location) = self.locate(address)?;
        let chunk = Arc::new(segment.read(&location)?);
        self.cache.lock().insert(*address, Arc::clone(&chunk));
        Ok(chunk)
    }

    fn contains(&self, address: &Hash) -> bool {
        self.inner.read().index.contains_key(address)
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.stats.load();
        // What the filesystem is actually charged: every live segment
        // file, including garbage records a compaction has not swept yet.
        stats.disk_bytes = self.inner.read().segments.iter().map(|s| s.len()).sum();
        stats
    }

    fn audit(&self) -> Vec<Hash> {
        // Snapshot the addresses, then read every chunk without the lock
        // and without polluting the cache (a bulk scan would flush the hot
        // set). Each address is re-resolved at read time — a compaction
        // may move chunks mid-audit, and a location captured here could
        // point into a deleted victim file.
        let addresses: Vec<Hash> = self.inner.read().index.keys().copied().collect();
        let mut failures = Vec::new();
        for address in addresses {
            let ok = self
                .locate(&address)
                .and_then(|(segment, location)| segment.read(&location))
                .map(|chunk| chunk.address() == address)
                .unwrap_or(false);
            if !ok {
                failures.push(address);
            }
        }
        failures
    }

    /// Publish a root pointer by appending a root record to the active
    /// segment. The record trails every chunk it can reference in the same
    /// log, so the data-before-pointer ordering needs no fsync here; when
    /// the publication must reach stable storage is the caller's policy
    /// (see [`ChunkStore::sync`]).
    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        self.ensure_writable()?;
        let mut inner = self.inner.write();
        let active = Arc::clone(inner.segments.last().expect("active segment exists"));
        self.retry_transient(|| active.append_root(name, &hash))
            .inspect_err(|e| self.note_write_failure(e, "root append"))?;
        inner.roots.insert(name.to_string(), hash);
        Ok(())
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.read().roots.get(name).copied()
    }

    /// The store's current writability, raised by write-path failures and
    /// scrub findings. `Degraded` returns to `Healthy` after
    /// [`DEGRADED_RECOVERY_OPS`] consecutive clean write-path operations;
    /// `ReadOnly` lasts until a reopen. See
    /// [`DurableChunkStore::health_reason`] for the human-readable cause.
    fn health(&self) -> HealthState {
        match self.health.load(Ordering::Acquire) {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::ReadOnly,
        }
    }

    /// `fsync` every segment that may hold non-durable data — the active
    /// one plus any sealed segment whose rotation fsync has not been
    /// observed to complete. Runs outside every lock readers use.
    fn sync(&self) -> Result<()> {
        let fsync_start = self.obs.fsync_nanos.start();
        let (targets, active_id) = {
            let inner = self.inner.read();
            let from = self.first_unsynced.load(Ordering::Acquire);
            let targets: Vec<Arc<Segment>> = inner
                .segments
                .iter()
                .filter(|s| s.id >= from)
                .map(Arc::clone)
                .collect();
            (targets, inner.segments.last().map(|s| s.id))
        };
        for segment in &targets {
            self.retry_transient(|| segment.sync())
                .inspect_err(|e| self.note_write_failure(e, "group fsync"))?;
        }
        // Everything below the active segment is sealed and now durable;
        // the active segment may keep receiving appends, so the mark stays
        // at it. `fetch_max` keeps the mark monotone under concurrent
        // syncs.
        if let Some(active_id) = active_id {
            self.first_unsynced.fetch_max(active_id, Ordering::AcqRel);
        }
        let nanos = self.obs.fsync_nanos.finish(fsync_start);
        if nanos > SLOW_FSYNC_NANOS {
            self.obs.telemetry.event(
                "slow_fsync",
                format!(
                    "sync of {} segment(s) took {} ms",
                    targets.len(),
                    nanos / 1_000_000
                ),
            );
        }
        Ok(())
    }
}

impl Drop for DurableChunkStore {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; crash recovery covers
        // the rest.
        let _ = self.flush();
    }
}

impl std::fmt::Debug for DurableChunkStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableChunkStore")
            .field("dir", &self.dir)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Union of the manifest's segment list and the segment files actually on
/// disk (adopting rotations the manifest missed), in id order.
fn discover_segments(dir: &Path, manifest: &Manifest) -> Result<Vec<u64>> {
    let mut ids: Vec<u64> = manifest.segments.clone();
    let entries = std::fs::read_dir(dir).map_err(|e| StorageError::io("open", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StorageError::io("open", dir, e))?;
        if let Some(id) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids.dedup();
    // Condemned and quarantined files were excised by a durable manifest
    // swap — never adopt one, even when its disposal keeps failing.
    ids.retain(|id| !manifest.condemned.contains(id) && !manifest.quarantined.contains(id));
    Ok(ids)
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A uniquely named temp directory removed on drop (the workspace has
    /// no `tempfile` dependency).
    pub struct TempDir(PathBuf);

    impl TempDir {
        pub fn new(label: &str) -> TempDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("spitz-{label}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create temp dir");
            TempDir(path)
        }

        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkKind;
    use testutil::TempDir;

    fn blob(data: &[u8]) -> Chunk {
        Chunk::new(ChunkKind::Blob, data.to_vec())
    }

    fn small_config() -> DurableConfig {
        DurableConfig {
            segment_target_bytes: 4 * 1024,
            cache_capacity_bytes: 0,
        }
    }

    #[test]
    fn degraded_store_recovers_after_clean_ops() {
        /// Fails `count` consecutive appends starting at global op `from`.
        #[derive(Debug)]
        struct TransientBurst {
            from: u64,
            count: u64,
            kind: IoErrorKind,
            ops: AtomicU64,
        }
        impl crate::SegmentIo for TransientBurst {
            fn on_append(&self, _segment: u64, _len: usize) -> crate::WriteOutcome {
                let i = self.ops.fetch_add(1, Ordering::Relaxed);
                if i >= self.from && i < self.from + self.count {
                    crate::WriteOutcome::Fail(self.kind)
                } else {
                    crate::WriteOutcome::Full
                }
            }
        }

        let dir = TempDir::new("durable-degraded-recovery");
        // One burst long enough to exhaust every retry of a single append.
        let io: SegmentIoHandle = Arc::new(TransientBurst {
            from: 1,
            count: (MAX_IO_RETRIES + 1) as u64,
            kind: IoErrorKind::Transient,
            ops: AtomicU64::new(0),
        });
        let store = DurableChunkStore::open_with_io(
            dir.path(),
            small_config(),
            spitz_obs::TelemetryHandle::new(),
            io,
        )
        .unwrap();

        store.try_put(blob(b"pre-burst")).unwrap();
        assert_eq!(store.health(), HealthState::Healthy);
        assert!(store.try_put(blob(b"hits the burst")).is_err());
        assert_eq!(store.health(), HealthState::Degraded);
        assert!(store.health_reason().contains("transient"));

        // One clean op short of the threshold: still degraded.
        for i in 0..DEGRADED_RECOVERY_OPS - 1 {
            store.try_put(blob(&(1000 + i).to_be_bytes())).unwrap();
        }
        assert_eq!(store.health(), HealthState::Degraded);

        // The threshold-crossing op flips the store back to healthy.
        store.try_put(blob(b"the recovering op")).unwrap();
        assert_eq!(store.health(), HealthState::Healthy);
        assert_eq!(store.health_reason(), "");
        // And the store keeps accepting writes afterwards.
        store.try_put(blob(b"after recovery")).unwrap();
        assert_eq!(store.health(), HealthState::Healthy);

        // ReadOnly is final: no volume of clean ops recovers it in place.
        let dir = TempDir::new("durable-readonly-no-recovery");
        let io: SegmentIoHandle = Arc::new(TransientBurst {
            from: 1,
            count: 1,
            kind: IoErrorKind::NoSpace,
            ops: AtomicU64::new(0),
        });
        let store = DurableChunkStore::open_with_io(
            dir.path(),
            small_config(),
            spitz_obs::TelemetryHandle::new(),
            io,
        )
        .unwrap();
        store.try_put(blob(b"pre-enospc")).unwrap();
        assert!(store.try_put(blob(b"hits enospc")).is_err());
        assert_eq!(store.health(), HealthState::ReadOnly);
        for _ in 0..2 * DEGRADED_RECOVERY_OPS {
            assert!(store.try_put(blob(b"refused")).is_err());
        }
        assert_eq!(store.health(), HealthState::ReadOnly);
    }

    #[test]
    fn put_get_roundtrip_and_dedup() {
        let dir = TempDir::new("durable-roundtrip");
        let store = DurableChunkStore::open(dir.path()).unwrap();
        let addr = store.try_put(blob(b"hello durable")).unwrap();
        assert!(store.contains(&addr));
        assert_eq!(store.get(&addr).unwrap().data(), b"hello durable");

        for _ in 0..5 {
            assert_eq!(store.try_put(blob(b"hello durable")).unwrap(), addr);
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 1);
        assert_eq!(stats.dedup_hits, 5);
        assert!(stats.logical_bytes > stats.physical_bytes);
        assert!(store.audit().is_empty());

        let missing = spitz_crypto::sha256(b"absent");
        assert!(matches!(
            store.get(&missing),
            Err(StorageError::ChunkNotFound(_))
        ));
    }

    #[test]
    fn reopen_preserves_chunks_stats_and_roots() {
        let dir = TempDir::new("durable-reopen");
        let mut addresses = Vec::new();
        let head = spitz_crypto::sha256(b"chain head");
        let stats_before;
        {
            let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
            for i in 0..200u32 {
                addresses.push(store.try_put(blob(&i.to_be_bytes())).unwrap());
            }
            store.try_put(blob(&0u32.to_be_bytes())).unwrap(); // one dedup hit
            store.try_set_root("ledger/head", head).unwrap();
            stats_before = store.stats();
            assert!(store.segment_count() > 1, "rotation must have happened");
        }

        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        assert_eq!(store.torn_bytes_recovered(), 0);
        for (i, addr) in addresses.iter().enumerate() {
            let chunk = store.get(addr).unwrap();
            assert_eq!(chunk.data(), (i as u32).to_be_bytes());
        }
        assert_eq!(store.root("ledger/head"), Some(head));
        let stats = store.stats();
        assert_eq!(stats.chunk_count, stats_before.chunk_count);
        assert_eq!(stats.physical_bytes, stats_before.physical_bytes);
        assert_eq!(stats.logical_bytes, stats_before.logical_bytes);
        assert_eq!(stats.dedup_hits, stats_before.dedup_hits);
        let blobs = store
            .inner
            .read()
            .index
            .values()
            .filter(|location| location.kind == ChunkKind::Blob)
            .count();
        assert_eq!(blobs, 200);
        assert!(store.audit().is_empty());
    }

    #[test]
    fn root_publications_survive_without_a_manifest_rewrite() {
        let dir = TempDir::new("durable-root-log");
        let older = spitz_crypto::sha256(b"older head");
        let newer = spitz_crypto::sha256(b"newer head");
        {
            let store = DurableChunkStore::open(dir.path()).unwrap();
            store.try_put(blob(b"payload")).unwrap();
            store.try_set_root("head", older).unwrap();
            store.try_set_root("head", newer).unwrap();
            // Simulate a crash: no flush, no manifest rewrite. The root
            // records are already in the segment log (page cache), so a
            // reopen must recover them by replay alone.
            std::mem::forget(store);
        }
        let store = DurableChunkStore::open(dir.path()).unwrap();
        assert_eq!(store.root("head"), Some(newer));
    }

    #[test]
    fn cache_serves_repeated_reads() {
        let dir = TempDir::new("durable-cache");
        let config = DurableConfig {
            cache_capacity_bytes: 1024 * 1024,
            ..small_config()
        };
        let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
        let addr = store.try_put(blob(b"hot chunk")).unwrap();
        for _ in 0..10 {
            store.get(&addr).unwrap();
        }
        let (hits, misses) = store.cache_stats();
        assert_eq!(misses, 0, "put is write-through so every read hits");
        assert_eq!(hits, 10);
    }

    #[test]
    fn concurrent_puts_deduplicate_on_disk() {
        let dir = TempDir::new("durable-concurrent");
        let store =
            Arc::new(DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    store.try_put(blob(&i.to_be_bytes())).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 200);
        assert_eq!(stats.dedup_hits, 3 * 200);
    }

    #[test]
    fn concurrent_readers_and_writer_make_progress() {
        let dir = TempDir::new("durable-read-concurrency");
        let config = DurableConfig {
            cache_capacity_bytes: 64 * 1024,
            ..small_config()
        };
        let store = Arc::new(DurableChunkStore::open_with_config(dir.path(), config).unwrap());
        let addresses: Arc<Vec<Hash>> = Arc::new(
            (0..100u32)
                .map(|i| store.try_put(blob(&i.to_be_bytes().repeat(8))).unwrap())
                .collect(),
        );
        let mut handles = Vec::new();
        for reader in 0..4usize {
            let store = Arc::clone(&store);
            let addresses = Arc::clone(&addresses);
            handles.push(std::thread::spawn(move || {
                for round in 0..200usize {
                    let addr = &addresses[(reader * 31 + round) % addresses.len()];
                    assert!(store.get(addr).is_ok());
                }
            }));
        }
        {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 100..200u32 {
                    store.try_put(blob(&i.to_be_bytes().repeat(8))).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(store.stats().chunk_count, 200);
        assert!(store.audit().is_empty());
    }

    /// Write `count` distinct chunks, forcing rotations with the small
    /// config, and return their addresses.
    fn populate(store: &DurableChunkStore, count: u32) -> Vec<Hash> {
        (0..count)
            .map(|i| store.try_put(blob(&i.to_be_bytes().repeat(8))).unwrap())
            .collect()
    }

    #[test]
    fn compaction_sweeps_unreachable_chunks_and_keeps_live_ones() {
        let dir = TempDir::new("durable-compact");
        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        let addresses = populate(&store, 200);
        let head = spitz_crypto::sha256(b"head");
        store.try_set_root("head", head).unwrap();
        assert!(store.segment_count() > 1, "need sealed segments");
        let before = store.stats();

        // Keep every third chunk. A single pass only sweeps *sealed*
        // segments — garbage in the active segment survives it — so run a
        // second pass (which seals the previous active) to sweep everything.
        let live: HashSet<Hash> = addresses.iter().step_by(3).copied().collect();
        let keep = live.clone();
        let report = store
            .compact_with(move || Ok(keep))
            .unwrap()
            .expect("sealed segments exist");
        assert!(report.chunks_dropped > 0);
        assert!(report.live_chunks_rewritten > 0);
        assert!(!report.victim_segments.is_empty());
        let keep = live.clone();
        store
            .compact_with(move || Ok(keep))
            .unwrap()
            .expect("second pass still has sealed segments");

        let stats = store.stats();
        assert!(stats.chunk_count < before.chunk_count);
        assert!(stats.physical_bytes < before.physical_bytes);
        assert!(stats.live_bytes > 0);
        assert!(stats.disk_bytes > 0);

        // Victim files are gone from disk.
        for id in &report.victim_segments {
            assert!(!dir.path().join(segment_file_name(*id)).exists());
        }
        assert!(!dir.path().join(COMPACT_STAGING_DIR).exists());

        for (i, address) in addresses.iter().enumerate() {
            if live.contains(address) {
                let chunk = store.get(address).unwrap();
                assert_eq!(chunk.data(), (i as u32).to_be_bytes().repeat(8));
            } else {
                assert!(matches!(
                    store.get(address),
                    Err(StorageError::ChunkNotFound(_))
                ));
            }
        }
        assert_eq!(store.root("head"), Some(head));
        assert!(store.audit().is_empty());

        // Reopen: the swapped state is what recovery sees.
        drop(store);
        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        for (i, address) in addresses.iter().enumerate() {
            if live.contains(address) {
                assert_eq!(
                    store.get(address).unwrap().data(),
                    (i as u32).to_be_bytes().repeat(8)
                );
            } else {
                assert!(!store.contains(address));
            }
        }
        assert_eq!(store.root("head"), Some(head));
        assert!(store.audit().is_empty());
    }

    #[test]
    fn compaction_with_single_segment_is_a_noop() {
        let dir = TempDir::new("durable-compact-noop");
        let store = DurableChunkStore::open(dir.path()).unwrap();
        store.try_put(blob(b"only")).unwrap();
        assert_eq!(store.compact_with(|| Ok(HashSet::new())).unwrap(), None);
        assert!(store.contains(&blob(b"only").address()));
    }

    #[test]
    fn mark_error_aborts_the_pass_with_the_store_untouched() {
        let dir = TempDir::new("durable-compact-markerr");
        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        let addresses = populate(&store, 100);
        assert!(store.segment_count() > 1);
        let before = store.stats();

        let err = store
            .compact_with(|| Err(StorageError::ChunkNotFound(spitz_crypto::sha256(b"x"))))
            .unwrap_err();
        assert!(matches!(err, StorageError::ChunkNotFound(_)));
        assert_eq!(store.stats().chunk_count, before.chunk_count);
        for address in &addresses {
            assert!(store.contains(address));
        }
        // The revive guard was released: plain dedup works again.
        store.try_put(blob(&0u32.to_be_bytes().repeat(8))).unwrap();
        assert!(store.stats().dedup_hits > before.dedup_hits);
    }

    #[test]
    fn dedup_during_compaction_revives_the_doomed_chunk() {
        let dir = TempDir::new("durable-compact-revive");
        let store =
            Arc::new(DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap());
        let addresses = populate(&store, 100);
        assert!(store.segment_count() > 1);
        let target = addresses[0];

        // The mark closure plays a concurrent writer: it re-puts a chunk
        // whose only copy sits in a victim, then declares *nothing* live.
        // The re-put must not count as a dedup hit on the doomed copy —
        // the chunk is re-appended to the active segment and survives.
        let writer = Arc::clone(&store);
        let report = store
            .compact_with(move || {
                writer.try_put(blob(&0u32.to_be_bytes().repeat(8))).unwrap();
                Ok(HashSet::new())
            })
            .unwrap()
            .expect("sealed segments exist");
        assert!(report.chunks_dropped > 0);
        assert_eq!(report.live_chunks_rewritten, 0);

        assert_eq!(
            store.get(&target).unwrap().data(),
            0u32.to_be_bytes().repeat(8)
        );
        assert!(store.audit().is_empty());
    }

    /// Kill a pass at each crash point, then reopen: every root and every
    /// chunk the pass kept reads back, swept or lost chunks are gone,
    /// nothing stray is left on disk, and the audit is clean. `retire`
    /// picks the pass: compaction keeps every other chunk; scrub runs after
    /// one record of a sealed segment was damaged on disk.
    fn crash_points_recover_cleanly(retire: Retire) {
        for fault in [CompactionFault::BeforeSwap, CompactionFault::BeforeDelete] {
            let case = format!("{retire:?}, {fault:?}");
            let dir = TempDir::new("durable-crash");
            let addresses;
            let live: HashSet<Hash>;
            let mut corrupt = None;
            let head = spitz_crypto::sha256(b"crash head");
            {
                let store =
                    DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
                addresses = populate(&store, 150);
                store.try_set_root("head", head).unwrap();
                assert!(store.segment_count() > 1);
                store.flush().unwrap();

                let err = match retire {
                    Retire::Condemn => {
                        live = addresses.iter().step_by(2).copied().collect();
                        let keep = live.clone();
                        store
                            .compact_with_fault(move || Ok(keep), fault)
                            .unwrap_err()
                    }
                    Retire::Quarantine => {
                        // Flip a payload byte (past the length, kind and
                        // address fields) of a record in the first sealed
                        // segment.
                        let lost = addresses[3];
                        let location = store.inner.read().index[&lost];
                        let path = dir.path().join(segment_file_name(location.segment));
                        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
                        std::os::unix::fs::FileExt::write_all_at(&file, b"!", location.offset + 40)
                            .unwrap();
                        corrupt = Some(location.segment);
                        live = addresses.iter().copied().filter(|a| *a != lost).collect();
                        store.scrub_with_fault(fault).unwrap_err()
                    }
                };
                assert!(err.to_string().contains("injected"), "{case}: {err}");
                // The process dies here: no Drop, no flush.
                std::mem::forget(store);
            }

            let staging = dir.path().join(COMPACT_STAGING_DIR);
            let quarantine = dir.path().join(QUARANTINE_DIR);
            let reopened = DurableChunkStore::open_with_config(dir.path(), small_config());
            if let (Some(segment), CompactionFault::BeforeSwap) = (corrupt, fault) {
                // Nothing was excised: the corrupt segment is still the
                // store's, and the open refuses it as it would have before
                // the scrub began (recovery rule 2).
                assert!(
                    matches!(reopened, Err(StorageError::SegmentCorrupt { segment: s, .. }) if s == segment),
                    "{case}: {reopened:?}"
                );
                assert!(!staging.exists() && !quarantine.exists(), "{case}");
                continue;
            }
            let store = reopened.unwrap();
            assert_eq!(store.root("head"), Some(head), "{case}");
            let mut swept = 0u32;
            for (i, address) in addresses.iter().enumerate() {
                // Before the swap nothing was excised. After the durable
                // swap, dropped victim chunks are gone for good even though
                // the victim files outlived the crash (the open path
                // disposes of them); garbage that sat in the still-active
                // segment is untouched and must read back intact.
                let kept = fault == CompactionFault::BeforeSwap || live.contains(address);
                if kept || store.contains(address) {
                    assert_eq!(
                        store.get(address).unwrap().data(),
                        (i as u32).to_be_bytes().repeat(8),
                        "{case}"
                    );
                } else {
                    assert!(
                        matches!(store.get(address), Err(StorageError::ChunkNotFound(_))),
                        "{case}"
                    );
                    swept += 1;
                }
            }
            if fault == CompactionFault::BeforeDelete {
                assert!(
                    swept > 0,
                    "{case}: the durable swap must have dropped chunks"
                );
            }
            assert!(store.audit().is_empty(), "{case}");
            assert!(!staging.exists(), "{case}");
            // No excised leftovers: a fresh open disposed of them, and the
            // corrupt file sits in quarantine/ exactly once.
            for path in std::fs::read_dir(dir.path()).unwrap() {
                let name = path.unwrap().file_name();
                let name = name.to_str().unwrap();
                if let Some(id) = parse_segment_file_name(name) {
                    assert!(
                        store.inner.read().segments.iter().any(|s| s.id == id),
                        "{case}: stray segment file {name}"
                    );
                }
            }
            let quarantined: Vec<String> = std::fs::read_dir(&quarantine)
                .map(|entries| {
                    entries
                        .map(|e| e.unwrap().file_name().into_string().unwrap())
                        .collect()
                })
                .unwrap_or_default();
            let expected: Vec<String> = corrupt.map(segment_file_name).into_iter().collect();
            assert_eq!(quarantined, expected, "{case}");
        }
    }

    #[test]
    fn compaction_crash_points_recover_cleanly() {
        crash_points_recover_cleanly(Retire::Condemn);
    }

    #[test]
    fn scrub_crash_points_recover_cleanly() {
        crash_points_recover_cleanly(Retire::Quarantine);
    }

    /// Fails every fsync of one segment, chosen once the store is open.
    #[derive(Debug)]
    struct FailFsyncOf(AtomicU64);

    impl crate::SegmentIo for FailFsyncOf {
        fn on_fsync(&self, segment: u64) -> crate::FsyncOutcome {
            if segment == self.0.load(Ordering::Relaxed) {
                crate::FsyncOutcome::Fail(IoErrorKind::Other)
            } else {
                crate::FsyncOutcome::Ok
            }
        }
    }

    #[test]
    fn failed_swap_fsync_fails_stop_and_reopen_restores_everything() {
        let dir = TempDir::new("durable-swap-fsync");
        let io = Arc::new(FailFsyncOf(AtomicU64::new(u64::MAX)));
        let head = spitz_crypto::sha256(b"swap head");
        let addresses;
        {
            let store = DurableChunkStore::open_with_io(
                dir.path(),
                small_config(),
                TelemetryHandle::disabled(),
                Arc::clone(&io) as SegmentIoHandle,
            )
            .unwrap();
            addresses = populate(&store, 100);
            store.try_set_root("head", head).unwrap();
            assert!(store.segment_count() > 1);

            // The swap's seal fsyncs the active segment, and that fsync
            // fails: its page-cache state is now unknowable.
            let active = store.inner.read().segments.last().unwrap().id;
            io.0.store(active, Ordering::Relaxed);
            let keep: HashSet<Hash> = addresses.iter().step_by(2).copied().collect();
            let err = store.compact_with(move || Ok(keep)).unwrap_err();
            assert!(matches!(err, StorageError::Io(_)), "{err}");
            assert_eq!(store.health(), HealthState::ReadOnly);
            assert!(!store.health_reason().is_empty());
            assert!(matches!(
                store.try_put(blob(b"after the failed seal")),
                Err(StorageError::ReadOnly(_))
            ));
        }

        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        assert_eq!(store.health(), HealthState::Healthy);
        assert_eq!(store.root("head"), Some(head));
        for (i, address) in addresses.iter().enumerate() {
            assert_eq!(
                store.get(address).unwrap().data(),
                (i as u32).to_be_bytes().repeat(8)
            );
        }
        assert!(store.audit().is_empty());
    }

    #[test]
    fn repeated_compaction_bounds_disk_usage() {
        let dir = TempDir::new("durable-compact-bound");
        let store = DurableChunkStore::open_with_config(dir.path(), small_config()).unwrap();
        // Overwrite churn: each round writes fresh chunks, only the newest
        // round is live. Compacting every round must keep the disk bounded
        // near one round's worth of data.
        let mut round_addresses: Vec<Hash> = Vec::new();
        for round in 0..20u32 {
            round_addresses = (0..40u32)
                .map(|i| {
                    store
                        .try_put(blob(
                            &[round.to_be_bytes(), i.to_be_bytes()].concat().repeat(8),
                        ))
                        .unwrap()
                })
                .collect();
            let keep: HashSet<Hash> = round_addresses.iter().copied().collect();
            store.compact_with(move || Ok(keep)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.live_bytes > 0);
        assert!(
            stats.disk_bytes <= 2 * stats.live_bytes + 2 * small_config().segment_target_bytes,
            "disk {} vs live {}",
            stats.disk_bytes,
            stats.live_bytes
        );
        for address in &round_addresses {
            assert!(store.get(address).is_ok());
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let dir = TempDir::new("durable-badconfig");
        let config = DurableConfig {
            segment_target_bytes: 0,
            ..DurableConfig::default()
        };
        assert!(matches!(
            DurableChunkStore::open_with_config(dir.path(), config),
            Err(StorageError::InvalidConfig(_))
        ));
    }
}
