//! The immutable key-value store comparison point.
//!
//! "For comparison purpose, we also build an immutable key-value store (KVS)
//! using ForkBase. It is the same as Spitz in terms of indexing, except that
//! it does not maintain a ledger or provide verifiability. Therefore, by
//! comparing the two systems, we can focus on the maintenance and
//! verification cost of the ledger storage implemented in Spitz."
//! (Section 6.1)

use std::sync::Arc;

use parking_lot::RwLock;
use spitz_index::siri::SiriIndex;
use spitz_index::PosTree;
use spitz_storage::{ChunkStore, InMemoryChunkStore, StoreStats};

/// An immutable key-value store: the same POS-Tree indexing as Spitz, no
/// ledger, no proofs.
pub struct ImmutableKvs {
    store: Arc<dyn ChunkStore>,
    index: RwLock<PosTree>,
}

impl Default for ImmutableKvs {
    fn default() -> Self {
        Self::new()
    }
}

impl ImmutableKvs {
    /// Create an in-memory instance.
    pub fn new() -> Self {
        Self::with_store(InMemoryChunkStore::shared())
    }

    /// Create an instance over any chunk store (e.g. a
    /// [`spitz_storage::DurableChunkStore`] for an on-disk KVS).
    pub fn with_store(store: Arc<dyn ChunkStore>) -> Self {
        let index = RwLock::new(PosTree::new(Arc::clone(&store)));
        ImmutableKvs { store, index }
    }

    /// Write a key/value pair (a new immutable version of the index).
    pub fn put(&self, key: &[u8], value: &[u8]) {
        self.index
            .write()
            .try_insert(key.to_vec(), value.to_vec())
            .expect("the KVS baseline persists its index node");
    }

    /// Point read.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.read().get(key)
    }

    /// Range read over `start <= key < end`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.index.read().range(start, end)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.index.read().len()
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage statistics of the backing chunk store.
    pub fn storage_stats(&self) -> StoreStats {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_range() {
        let kvs = ImmutableKvs::new();
        for i in 0..500u32 {
            kvs.put(format!("key-{i:05}").as_bytes(), format!("v{i}").as_bytes());
        }
        assert_eq!(kvs.len(), 500);
        assert_eq!(kvs.get(b"key-00123"), Some(b"v123".to_vec()));
        assert_eq!(kvs.get(b"missing"), None);
        let window = kvs.range(b"key-00100", b"key-00110");
        assert_eq!(window.len(), 10);
        assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn overwrites_create_new_versions_not_in_place_mutation() {
        let kvs = ImmutableKvs::new();
        kvs.put(b"k", b"v1");
        let bytes_before = kvs.storage_stats().physical_bytes;
        kvs.put(b"k", b"v2");
        assert_eq!(kvs.get(b"k"), Some(b"v2".to_vec()));
        // The old version's chunks are still retained (immutability).
        assert!(kvs.storage_stats().physical_bytes > bytes_before);
        assert!(!kvs.is_empty());
    }
}
