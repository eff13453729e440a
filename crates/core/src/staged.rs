//! Durable bookkeeping for in-doubt cross-shard transactions.
//!
//! 2PC participants durably *stage* their prepared writes as
//! content-addressed chunks (see `ShardedDb`), but a content-addressed
//! store cannot be enumerated — so each shard additionally keeps a small
//! **staged log**: a named root pointing at a chunk that lists the staged
//! batches not yet applied or discarded on that shard. The coordinator
//! keeps a matching **decision log** (in shard 0's store) of batches whose
//! commit was decided. Together they let `ShardedDb::recover()` resolve
//! in-doubt batches across *process restarts*, not just in-process:
//!
//! * staged on some shard, **no** decision record → presumed abort: the
//!   staged entry is dropped, nothing was ever visible.
//! * staged on some shard, decision record present → the commit was
//!   decided; the staged writes are re-applied into that shard's ledger
//!   (redo), preserving all-or-nothing across the crash.
//!
//! Entries leave a shard's staged log when the batch is applied or
//! discarded there; a decision record is cleared once every involved shard
//! has applied. List updates go through `try_put`/`try_set_root`, so a full
//! disk during staging is a clean `No` vote rather than a panic.

use std::collections::HashSet;
use std::sync::Arc;

use parking_lot::Mutex;
use spitz_crypto::Hash;
use spitz_storage::{Chunk, ChunkKind, ChunkStore, StorageError};

/// Named root of a shard's staged-batch list.
pub const STAGED_ROOT: &str = "spitz/2pc/staged";

/// Named root of the coordinator's commit-decision list (shard 0's store).
pub const DECIDED_ROOT: &str = "spitz/2pc/decided";

const STAGED_MAGIC: &[u8] = b"spitz-2pc-staged-log\0";
const DECIDED_MAGIC: &[u8] = b"spitz-2pc-decided-log\0";

/// One staged-but-unresolved batch on a shard: the global transaction id
/// and the chunk address of the staged writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedEntry {
    /// Global transaction id assigned by the coordinator.
    pub global_txn_id: u64,
    /// Address of the staged-writes chunk in the shard's store.
    pub chunk: Hash,
}

/// A durable, root-anchored list of [`StagedEntry`]s in one shard's store.
pub struct StagedLog {
    store: Arc<dyn ChunkStore>,
    root: &'static str,
    magic: &'static [u8],
    /// Serializes read-modify-write cycles on the list root.
    lock: Mutex<()>,
}

impl StagedLog {
    /// The staged-batch log of a shard's store.
    pub fn staged(store: Arc<dyn ChunkStore>) -> StagedLog {
        StagedLog {
            store,
            root: STAGED_ROOT,
            magic: STAGED_MAGIC,
            lock: Mutex::new(()),
        }
    }

    /// The coordinator's decision log (kept in shard 0's store). Decision
    /// entries reuse the staged-entry shape with a zero chunk address.
    pub fn decisions(store: Arc<dyn ChunkStore>) -> StagedLog {
        StagedLog {
            store,
            root: DECIDED_ROOT,
            magic: DECIDED_MAGIC,
            lock: Mutex::new(()),
        }
    }

    /// The current entries, oldest first.
    pub fn entries(&self) -> Result<Vec<StagedEntry>, StorageError> {
        let _guard = self.lock.lock();
        self.read_list()
    }

    /// True when the log records `global_txn_id`.
    pub fn contains(&self, global_txn_id: u64) -> Result<bool, StorageError> {
        Ok(self
            .entries()?
            .iter()
            .any(|e| e.global_txn_id == global_txn_id))
    }

    /// Append an entry. Idempotent per `(transaction id, chunk)`; an
    /// existing entry for the same id but a *different* chunk is replaced —
    /// the log must never keep pointing at an older incarnation's staged
    /// writes when an id is (incorrectly) recycled.
    pub fn add(&self, global_txn_id: u64, chunk: Hash) -> Result<(), StorageError> {
        let _guard = self.lock.lock();
        let mut list = self.read_list()?;
        if let Some(existing) = list.iter_mut().find(|e| e.global_txn_id == global_txn_id) {
            if existing.chunk == chunk {
                return Ok(());
            }
            existing.chunk = chunk;
        } else {
            list.push(StagedEntry {
                global_txn_id,
                chunk,
            });
        }
        self.write_list(&list)
    }

    /// Remove an entry. Removing an absent id is a no-op.
    pub fn remove(&self, global_txn_id: u64) -> Result<(), StorageError> {
        let _guard = self.lock.lock();
        let mut list = self.read_list()?;
        let before = list.len();
        list.retain(|e| e.global_txn_id != global_txn_id);
        if list.len() == before {
            return Ok(());
        }
        self.write_list(&list)
    }

    fn read_list(&self) -> Result<Vec<StagedEntry>, StorageError> {
        let Some(address) = self.store.root(self.root) else {
            return Ok(Vec::new());
        };
        let chunk = self.store.get_kind(&address, ChunkKind::Meta)?;
        decode_list(self.magic, chunk.data()).ok_or(StorageError::CorruptChunk(address))
    }

    fn write_list(&self, list: &[StagedEntry]) -> Result<(), StorageError> {
        let address = self
            .store
            .try_put(Chunk::new(ChunkKind::Meta, encode_list(self.magic, list)))?;
        self.store.try_set_root(self.root, address)
    }
}

/// GC mark support: the chunk addresses a staged/decision log keeps alive.
///
/// `root_name`/`address` come from enumerating the store's named roots
/// during the mark phase. For the [`STAGED_ROOT`] and [`DECIDED_ROOT`]
/// lists this inserts every referenced staged-writes chunk into `live` (the
/// list chunk itself is the root target, marked by the caller); other roots
/// are ignored. In-doubt 2PC batches therefore survive compaction — their
/// staged writes must stay readable for a later redo.
pub fn collect_staged_references(
    store: &Arc<dyn ChunkStore>,
    root_name: &str,
    address: Hash,
    live: &mut HashSet<Hash>,
) -> Result<(), StorageError> {
    let magic = match root_name {
        STAGED_ROOT => STAGED_MAGIC,
        DECIDED_ROOT => DECIDED_MAGIC,
        _ => return Ok(()),
    };
    let chunk = store.get_kind(&address, ChunkKind::Meta)?;
    let list = decode_list(magic, chunk.data()).ok_or(StorageError::CorruptChunk(address))?;
    for entry in list {
        if entry.chunk != Hash::ZERO {
            live.insert(entry.chunk);
        }
    }
    Ok(())
}

fn encode_list(magic: &[u8], list: &[StagedEntry]) -> Vec<u8> {
    use spitz_index::codec::{put_hash, put_u32, put_u64};
    let mut out = Vec::with_capacity(magic.len() + 4 + list.len() * 40);
    out.extend_from_slice(magic);
    put_u32(&mut out, list.len() as u32);
    for entry in list {
        put_u64(&mut out, entry.global_txn_id);
        put_hash(&mut out, &entry.chunk);
    }
    out
}

fn decode_list(magic: &[u8], bytes: &[u8]) -> Option<Vec<StagedEntry>> {
    let bytes = bytes.strip_prefix(magic)?;
    let mut r = spitz_index::codec::Reader::new(bytes);
    // Each entry is a u64 and a hash, 40 bytes.
    let count = r.count(40)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(StagedEntry {
            global_txn_id: r.u64()?,
            chunk: r.hash()?,
        });
    }
    r.is_exhausted().then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    #[test]
    fn staged_log_round_trips_through_the_store() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let log = StagedLog::staged(Arc::clone(&store));
        assert!(log.entries().unwrap().is_empty());

        let chunk = spitz_crypto::sha256(b"staged writes");
        log.add(7, chunk).unwrap();
        log.add(9, Hash::ZERO).unwrap();
        log.add(7, chunk).unwrap(); // idempotent
        assert_eq!(log.entries().unwrap().len(), 2);
        assert!(log.contains(7).unwrap());
        assert!(!log.contains(8).unwrap());

        // The list survives a "reopen" of the same store.
        let reopened = StagedLog::staged(Arc::clone(&store));
        assert_eq!(reopened.entries().unwrap(), log.entries().unwrap());

        log.remove(7).unwrap();
        log.remove(7).unwrap(); // no-op
        assert_eq!(log.entries().unwrap().len(), 1);
        assert_eq!(log.entries().unwrap()[0].global_txn_id, 9);
    }

    #[test]
    fn add_replaces_the_chunk_when_an_id_is_recycled() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let log = StagedLog::staged(Arc::clone(&store));
        let old = spitz_crypto::sha256(b"old incarnation");
        let new = spitz_crypto::sha256(b"new incarnation");
        log.add(7, old).unwrap();
        log.add(7, new).unwrap();
        let entries = log.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].chunk, new,
            "recycled id must not keep the stale chunk"
        );
    }

    #[test]
    fn collect_staged_references_marks_entry_chunks_of_2pc_roots_only() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let staged = StagedLog::staged(Arc::clone(&store));
        let chunk = store
            .try_put(Chunk::new(ChunkKind::Meta, b"staged writes".to_vec()))
            .unwrap();
        staged.add(3, chunk).unwrap();
        staged.add(4, Hash::ZERO).unwrap();

        let root = store.root(STAGED_ROOT).expect("staged root published");
        let mut live = HashSet::new();
        collect_staged_references(&store, STAGED_ROOT, root, &mut live).unwrap();
        assert!(live.contains(&chunk));
        assert!(!live.contains(&Hash::ZERO));
        assert_eq!(live.len(), 1);

        // A non-2PC root is ignored, even with a bogus address.
        collect_staged_references(&store, "spitz/catalog", Hash::ZERO, &mut live).unwrap();
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn decode_list_refuses_a_count_the_payload_cannot_hold() {
        let mut bytes = STAGED_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_list(STAGED_MAGIC, &bytes).is_none());
    }

    #[test]
    fn a_staged_log_with_a_hostile_count_is_a_corrupt_chunk() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let log = StagedLog::staged(Arc::clone(&store));
        log.add(1, spitz_crypto::sha256(b"staged writes")).unwrap();
        let address = store.root(STAGED_ROOT).expect("staged root published");
        let mut bytes = store.get(&address).unwrap().data().to_vec();
        let count = STAGED_MAGIC.len();
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let patched = store.put(Chunk::new(ChunkKind::Meta, bytes));
        store.set_root(STAGED_ROOT, patched);
        assert!(matches!(
            log.entries(),
            Err(StorageError::CorruptChunk(at)) if at == patched
        ));
    }

    #[test]
    fn staged_and_decision_logs_do_not_collide() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let staged = StagedLog::staged(Arc::clone(&store));
        let decisions = StagedLog::decisions(Arc::clone(&store));
        staged.add(1, Hash::ZERO).unwrap();
        decisions.add(2, Hash::ZERO).unwrap();
        assert!(staged.contains(1).unwrap());
        assert!(!staged.contains(2).unwrap());
        assert!(decisions.contains(2).unwrap());
        assert!(!decisions.contains(1).unwrap());
    }
}
