//! Deterministic crash-point injection above the [`ChunkStore`] API.
//!
//! [`FailpointStore`] wraps any [`ChunkStore`] and, once armed, makes write
//! operations fail after a configured countdown — either as a one-shot
//! error burst (`FailMode::Error`, a disk-full stand-in that clears when
//! disarmed) or permanently (`FailMode::Kill`, the store "dies" and every
//! subsequent operation fails, modeling a crashed device/process).
//!
//! Only *mutating* operations (`put`/`try_put`/`set_root`/`try_set_root`/
//! `sync`) tick the countdown and fail; reads keep working in `Error` mode
//! so recovery paths can be exercised, and fail too once `Kill` has fired.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_storage::chunk::{Chunk, ChunkKind};
use spitz_storage::{ChunkStore, HealthState, IoErrorKind, StorageError, StoreStats};

/// What happens when the countdown reaches zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMode {
    /// Every write from the trigger on fails with an injected I/O error
    /// until [`FailpointStore::disarm`] is called. Reads keep working.
    Error,
    /// The store dies at the trigger: every later operation — reads
    /// included — fails, and disarming does not revive it.
    Kill,
}

/// A [`ChunkStore`] wrapper that injects failures after K write operations.
pub struct FailpointStore {
    inner: Arc<dyn ChunkStore>,
    /// Writes remaining before the failpoint fires; negative when disarmed.
    countdown: AtomicI64,
    mode: std::sync::Mutex<FailMode>,
    dead: AtomicBool,
    /// Number of injected failures so far.
    injected: AtomicI64,
}

impl FailpointStore {
    /// Wrap `inner` with the failpoint disarmed.
    pub fn new(inner: Arc<dyn ChunkStore>) -> Arc<FailpointStore> {
        Arc::new(FailpointStore {
            inner,
            countdown: AtomicI64::new(i64::MIN),
            mode: std::sync::Mutex::new(FailMode::Error),
            dead: AtomicBool::new(false),
            injected: AtomicI64::new(0),
        })
    }

    /// Arm the failpoint: the next `after` write operations succeed, then
    /// the failure fires according to `mode`.
    pub fn arm(&self, after: u64, mode: FailMode) {
        *self.mode.lock().unwrap() = mode;
        self.countdown.store(after as i64, Ordering::SeqCst);
    }

    /// Disarm an [`FailMode::Error`] failpoint (a killed store stays dead).
    pub fn disarm(&self) {
        self.countdown.store(i64::MIN, Ordering::SeqCst);
    }

    /// Number of operations that failed by injection so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::SeqCst).max(0) as u64
    }

    /// True once a [`FailMode::Kill`] failpoint has fired.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Tick the write countdown; `Err` when the operation must fail.
    fn write_gate(&self) -> Result<(), StorageError> {
        self.read_gate()?;
        let remaining = self.countdown.load(Ordering::SeqCst);
        if remaining == i64::MIN {
            return Ok(());
        }
        let remaining = self.countdown.fetch_sub(1, Ordering::SeqCst);
        if remaining > 0 {
            return Ok(());
        }
        if *self.mode.lock().unwrap() == FailMode::Kill {
            self.dead.store(true, Ordering::SeqCst);
        }
        self.injected.fetch_add(1, Ordering::SeqCst);
        Err(StorageError::io_synthetic(
            IoErrorKind::NoSpace,
            "append",
            "injected failpoint",
        ))
    }

    /// Fail reads only once the store has been killed.
    fn read_gate(&self) -> Result<(), StorageError> {
        if self.dead.load(Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(StorageError::io_synthetic(
                IoErrorKind::Other,
                "read",
                "store killed by failpoint",
            ));
        }
        Ok(())
    }
}

impl ChunkStore for FailpointStore {
    fn try_put(&self, chunk: Chunk) -> Result<Hash, StorageError> {
        self.write_gate()?;
        self.inner.try_put(chunk)
    }

    fn get(&self, address: &Hash) -> Result<Arc<Chunk>, StorageError> {
        self.read_gate()?;
        self.inner.get(address)
    }

    fn contains(&self, address: &Hash) -> bool {
        self.inner.contains(address)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn audit(&self) -> Vec<Hash> {
        self.inner.audit()
    }

    fn try_set_root(&self, name: &str, hash: Hash) -> Result<(), StorageError> {
        self.write_gate()?;
        self.inner.try_set_root(name, hash)
    }

    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.root(name)
    }

    fn sync(&self) -> Result<(), StorageError> {
        self.write_gate()?;
        self.inner.sync()
    }

    fn get_kind(&self, address: &Hash, expected: ChunkKind) -> Result<Arc<Chunk>, StorageError> {
        self.read_gate()?;
        self.inner.get_kind(address, expected)
    }

    /// A killed store is read-only (it will never accept a write again);
    /// otherwise health is whatever the wrapped store reports.
    fn health(&self) -> HealthState {
        if self.is_dead() {
            HealthState::ReadOnly
        } else {
            self.inner.health()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    fn chunk(n: u8) -> Chunk {
        Chunk::new(ChunkKind::Blob, vec![n; 8])
    }

    #[test]
    fn countdown_fires_then_disarm_revives_error_mode() {
        let store = FailpointStore::new(Arc::new(InMemoryChunkStore::new()));
        store.arm(2, FailMode::Error);
        store.try_put(chunk(1)).unwrap();
        store.try_put(chunk(2)).unwrap();
        let err = store.try_put(chunk(3)).unwrap_err();
        assert!(err.to_string().contains("failpoint"));
        assert_eq!(err.io_kind(), Some(IoErrorKind::NoSpace));
        assert_eq!(store.health(), HealthState::Healthy);
        store.disarm();
        store.try_put(chunk(3)).unwrap();
        assert_eq!(store.injected_failures(), 1);
    }

    #[test]
    fn killed_store_stays_dead_and_reports_read_only() {
        let store = FailpointStore::new(Arc::new(InMemoryChunkStore::new()));
        let address = store.try_put(chunk(1)).unwrap();
        store.arm(0, FailMode::Kill);
        assert!(store.try_put(chunk(2)).is_err());
        assert!(store.is_dead());
        assert_eq!(store.health(), HealthState::ReadOnly);
        assert!(store.get(&address).is_err(), "reads fail after kill");
        store.disarm();
        assert!(store.try_put(chunk(2)).is_err(), "kill is permanent");
    }
}
