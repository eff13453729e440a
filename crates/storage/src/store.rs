//! The chunk store: content-addressed, deduplicating physical storage.
//!
//! [`ChunkStore`] is the trait the rest of the system writes through;
//! [`InMemoryChunkStore`] is the default implementation used by the
//! evaluation (the paper's experiments also run against an in-process
//! ForkBase instance). The store deduplicates by content address and keeps
//! [`StoreStats`] that distinguish *logical* bytes (what callers wrote) from
//! *physical* bytes (what is actually retained) — the quantity plotted in
//! Figure 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};
use crate::error::StorageError;
use crate::Result;

/// The operational health of a chunk store, surfaced so serving layers can
/// route around sick storage instead of discovering failures one write at a
/// time.
///
/// Transitions are one-way within a process lifetime (`Healthy → Degraded →
/// ReadOnly`); reopening the store after the underlying condition is fixed
/// resets it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Fully operational.
    #[default]
    Healthy,
    /// Still writable, but something needs attention: transient I/O retries
    /// were exhausted, or a scrub quarantined a corrupt segment (with all
    /// live chunks salvaged).
    Degraded,
    /// Writes are rejected with [`StorageError::ReadOnly`]; verified reads
    /// keep serving. Entered on `ENOSPC`, fsync failure, torn appends whose
    /// tail could not be restored, or corruption that salvage could not
    /// fully repair.
    ReadOnly,
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded => write!(f, "degraded"),
            HealthState::ReadOnly => write!(f, "read-only"),
        }
    }
}

/// Aggregate statistics maintained by a chunk store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct chunks physically retained.
    pub chunk_count: u64,
    /// Bytes physically retained (sum of [`Chunk::storage_size`] over
    /// distinct chunks).
    pub physical_bytes: u64,
    /// Bytes logically written (every `try_put`, including duplicates).
    pub logical_bytes: u64,
    /// Number of `try_put` calls that were absorbed by deduplication.
    pub dedup_hits: u64,
    /// Number of `get` calls served.
    pub reads: u64,
    /// Bytes occupied on the backing device (segment files for a durable
    /// store). For an in-memory store this equals `physical_bytes`.
    pub disk_bytes: u64,
    /// Bytes reachable from the named roots, as measured by the most recent
    /// mark-sweep pass. Zero until a compaction has run; an in-memory store
    /// reports `physical_bytes` (it never retains garbage it could drop).
    pub live_bytes: u64,
}

impl StoreStats {
    /// Fraction of logical bytes saved by deduplication, in `[0, 1]`.
    pub fn dedup_ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            0.0
        } else {
            1.0 - (self.physical_bytes as f64 / self.logical_bytes as f64)
        }
    }

    /// Bytes on the device that no root can reach: what compaction reclaims.
    /// Zero until a mark pass has established `live_bytes`.
    pub fn dead_bytes(&self) -> u64 {
        if self.live_bytes == 0 {
            0
        } else {
            self.disk_bytes.saturating_sub(self.live_bytes)
        }
    }
}

/// A content-addressed store of immutable chunks.
///
/// Implementations must be safe to share across threads; Spitz processor
/// nodes all write through the same store.
pub trait ChunkStore: Send + Sync {
    /// Store a chunk and return its content address. Storing an identical
    /// chunk twice is a no-op for physical storage. Storage failures (disk
    /// full, I/O errors in a durable backend) surface as a
    /// [`StorageError`].
    fn try_put(&self, chunk: Chunk) -> Result<Hash>;

    /// Fetch a chunk by address.
    fn get(&self, address: &Hash) -> Result<Arc<Chunk>>;

    /// True when the store holds a chunk with this address.
    fn contains(&self, address: &Hash) -> bool;

    /// Current statistics snapshot.
    fn stats(&self) -> StoreStats;

    /// Verify the integrity of every stored chunk: its address must equal
    /// the hash of its contents. Returns the addresses that fail.
    ///
    /// This models an offline audit pass over the physical storage; for a
    /// durable store it re-reads and re-hashes every chunk on disk.
    fn audit(&self) -> Vec<Hash>;

    /// Persist a named root pointer (e.g. the ledger chain head).
    ///
    /// Root pointers are the only mutable cells in the otherwise
    /// content-addressed store — the same role git refs play over its object
    /// database. A durable backend can fail to append the root record.
    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()>;

    /// Read back a named root pointer.
    fn root(&self, name: &str) -> Option<Hash>;

    /// Force everything written so far to stable storage. A no-op for
    /// stores without a durability notion (the default); a durable backend
    /// fsyncs its active log so that every chunk *and root publication*
    /// appended before this call survives a crash.
    fn sync(&self) -> Result<()> {
        Ok(())
    }

    /// Fetch a chunk and check that it has the expected kind.
    fn get_kind(&self, address: &Hash, expected: ChunkKind) -> Result<Arc<Chunk>> {
        let chunk = self.get(address)?;
        if chunk.kind() != expected {
            return Err(StorageError::WrongChunkKind {
                expected: expected.name(),
                found: chunk.kind().name(),
            });
        }
        Ok(chunk)
    }

    /// Current operational health. Stores without failure modes (the
    /// in-memory default) are always [`HealthState::Healthy`]; a durable
    /// backend reports degraded/read-only states here.
    fn health(&self) -> HealthState {
        HealthState::Healthy
    }
}

/// The default, thread-safe, in-memory chunk store.
#[derive(Debug, Default)]
pub struct InMemoryChunkStore {
    inner: RwLock<StoreInner>,
    /// [`StoreStats::reads`], counted outside `inner` so concurrent readers
    /// share the read lock instead of serialising on the write lock.
    reads: AtomicU64,
}

#[derive(Debug, Default)]
struct StoreInner {
    chunks: HashMap<Hash, Arc<Chunk>>,
    roots: HashMap<String, Hash>,
    stats: StoreStats,
}

impl InMemoryChunkStore {
    /// Create an empty store.
    pub fn new() -> Self {
        InMemoryChunkStore::default()
    }

    /// Create an empty store already wrapped in an [`Arc`], the form most
    /// components take it in.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Total number of distinct chunks of a particular kind (diagnostics).
    pub fn count_kind(&self, kind: ChunkKind) -> usize {
        self.inner
            .read()
            .chunks
            .values()
            .filter(|c| c.kind() == kind)
            .count()
    }
}

impl ChunkStore for InMemoryChunkStore {
    fn try_put(&self, chunk: Chunk) -> Result<Hash> {
        let address = chunk.address();
        let mut inner = self.inner.write();
        inner.stats.logical_bytes += chunk.storage_size() as u64;
        if inner.chunks.contains_key(&address) {
            inner.stats.dedup_hits += 1;
        } else {
            inner.stats.chunk_count += 1;
            inner.stats.physical_bytes += chunk.storage_size() as u64;
            inner.chunks.insert(address, Arc::new(chunk));
        }
        Ok(address)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner
            .read()
            .chunks
            .get(address)
            .cloned()
            .ok_or(StorageError::ChunkNotFound(*address))
    }

    fn contains(&self, address: &Hash) -> bool {
        self.inner.read().chunks.contains_key(address)
    }

    fn stats(&self) -> StoreStats {
        let mut stats = self.inner.read().stats;
        stats.reads = self.reads.load(Ordering::Relaxed);
        // Memory is the device, and nothing unreachable is ever retained
        // past a process lifetime — physical bytes are both quantities.
        stats.disk_bytes = stats.physical_bytes;
        stats.live_bytes = stats.physical_bytes;
        stats
    }

    fn audit(&self) -> Vec<Hash> {
        let inner = self.inner.read();
        inner
            .chunks
            .iter()
            .filter(|(addr, chunk)| chunk.address() != **addr)
            .map(|(addr, _)| *addr)
            .collect()
    }

    fn try_set_root(&self, name: &str, hash: Hash) -> Result<()> {
        self.inner.write().roots.insert(name.to_string(), hash);
        Ok(())
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.read().roots.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(data: &[u8]) -> Chunk {
        Chunk::new(ChunkKind::Blob, data.to_vec())
    }

    #[test]
    fn put_get_roundtrip() {
        let store = InMemoryChunkStore::new();
        let addr = store.try_put(blob(b"hello")).unwrap();
        let fetched = store.get(&addr).unwrap();
        assert_eq!(fetched.data(), b"hello");
        assert_eq!(fetched.kind(), ChunkKind::Blob);
    }

    #[test]
    fn missing_chunk_is_an_error() {
        let store = InMemoryChunkStore::new();
        let err = store.get(&spitz_crypto::sha256(b"nope")).unwrap_err();
        assert!(matches!(err, StorageError::ChunkNotFound(_)));
    }

    #[test]
    fn duplicate_puts_do_not_grow_physical_storage() {
        let store = InMemoryChunkStore::new();
        store.try_put(blob(b"same")).unwrap();
        let s1 = store.stats();
        for _ in 0..10 {
            store.try_put(blob(b"same")).unwrap();
        }
        let s2 = store.stats();
        assert_eq!(s1.physical_bytes, s2.physical_bytes);
        assert_eq!(s2.dedup_hits, 10);
        assert_eq!(s2.chunk_count, 1);
        assert!(s2.logical_bytes > s2.physical_bytes);
        assert!(s2.dedup_ratio() > 0.8);
    }

    #[test]
    fn distinct_chunks_accumulate() {
        let store = InMemoryChunkStore::new();
        for i in 0..100u32 {
            store.try_put(blob(&i.to_be_bytes())).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 100);
        assert_eq!(stats.dedup_hits, 0);
        assert_eq!(stats.dedup_ratio(), 0.0);
    }

    #[test]
    fn space_accounting_fields_and_ratios() {
        let store = InMemoryChunkStore::new();
        let empty = store.stats();
        // No live-byte measurement yet: nothing is known to be dead.
        assert_eq!(empty.dead_bytes(), 0);

        store.try_put(blob(b"hello")).unwrap();
        let stats = store.stats();
        assert_eq!(stats.disk_bytes, stats.physical_bytes);
        assert_eq!(stats.live_bytes, stats.physical_bytes);
        assert_eq!(stats.dead_bytes(), 0);

        let skewed = StoreStats {
            disk_bytes: 300,
            live_bytes: 100,
            ..StoreStats::default()
        };
        assert_eq!(skewed.dead_bytes(), 200);
    }

    #[test]
    fn get_kind_checks_kind() {
        let store = InMemoryChunkStore::new();
        let addr = store.try_put(blob(b"x")).unwrap();
        assert!(store.get_kind(&addr, ChunkKind::Blob).is_ok());
        let err = store.get_kind(&addr, ChunkKind::Meta).unwrap_err();
        assert!(matches!(err, StorageError::WrongChunkKind { .. }));
    }

    #[test]
    fn contains_and_count_kind() {
        let store = InMemoryChunkStore::new();
        let addr = store.try_put(blob(b"x")).unwrap();
        store
            .try_put(Chunk::new(ChunkKind::Meta, &b"m"[..]))
            .unwrap();
        assert!(store.contains(&addr));
        assert!(!store.contains(&spitz_crypto::sha256(b"other")));
        assert_eq!(store.count_kind(ChunkKind::Blob), 1);
        assert_eq!(store.count_kind(ChunkKind::Meta), 1);
        assert_eq!(store.count_kind(ChunkKind::Commit), 0);
    }

    #[test]
    fn audit_of_honest_store_is_clean() {
        let store = InMemoryChunkStore::new();
        for i in 0..10u8 {
            store.try_put(blob(&[i])).unwrap();
        }
        assert!(store.audit().is_empty());
    }

    #[test]
    fn root_pointers_roundtrip_and_overwrite() {
        let store = InMemoryChunkStore::new();
        assert_eq!(store.root("ledger/head"), None);
        let h1 = spitz_crypto::sha256(b"head-1");
        let h2 = spitz_crypto::sha256(b"head-2");
        store.try_set_root("ledger/head", h1).unwrap();
        assert_eq!(store.root("ledger/head"), Some(h1));
        store.try_set_root("ledger/head", h2).unwrap();
        assert_eq!(store.root("ledger/head"), Some(h2));
        assert_eq!(store.root("other"), None);
    }

    #[test]
    fn gets_share_the_read_lock_and_count_exactly() {
        let store = InMemoryChunkStore::shared();
        let addr = store.try_put(blob(b"x")).unwrap();
        // While another reader holds the store's lock shared, gets must
        // still complete: counting a read takes no exclusive lock.
        let held = store.inner.read();
        let (done, finished) = std::sync::mpsc::channel();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let store = Arc::clone(&store);
                let done = done.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        store.get(&addr).unwrap();
                    }
                    done.send(()).unwrap();
                })
            })
            .collect();
        for _ in 0..4 {
            finished
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a get blocked behind another reader");
        }
        drop(held);
        for reader in readers {
            reader.join().unwrap();
        }
        assert_eq!(store.stats().reads, 400);
    }

    #[test]
    fn concurrent_puts_deduplicate() {
        let store = InMemoryChunkStore::shared();
        let mut handles = Vec::new();
        for t in 0..8 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    // Every thread writes the same 500 chunks.
                    store
                        .try_put(Chunk::new(ChunkKind::Blob, i.to_be_bytes().to_vec()))
                        .unwrap();
                }
                t
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.chunk_count, 500);
        assert_eq!(stats.dedup_hits, 7 * 500);
    }
}
