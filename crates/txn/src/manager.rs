//! Transactions, isolation levels and MVCC-based concurrency control.
//!
//! The paper motivates flexible isolation (Section 3.3): serializable
//! schedules for purchases, read-committed for analytical status checks —
//! and lists the serializable MVCC variants suitable for multi-versioned
//! cells (Section 5.2): MVCC + OCC, MVCC + timestamp ordering, and MVCC +
//! two-phase locking. The [`TransactionManager`] implements all three behind
//! one interface so the `ablation_cc` benchmark can compare them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::mvcc::MvccStore;
use crate::timestamp::TimestampOracle;

/// Isolation level requested by a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Reads see the latest committed version at the time of the read.
    ReadCommitted,
    /// Reads see the snapshot as of the transaction's start timestamp.
    SnapshotIsolation,
    /// Snapshot reads plus commit-time validation under the configured
    /// concurrency-control scheme.
    Serializable,
}

/// Concurrency-control scheme used for serializable validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcScheme {
    /// MVCC + optimistic concurrency control: validate the read set at
    /// commit time.
    Occ,
    /// MVCC + timestamp ordering: abort writers that would invalidate reads
    /// already performed by younger transactions.
    TimestampOrdering,
    /// MVCC + two-phase locking: exclusive locks taken at write time and
    /// held until commit.
    TwoPhaseLocking,
}

/// Errors surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction lost a conflict and must be retried.
    Conflict(String),
    /// The transaction was already finished (committed or aborted).
    AlreadyFinished,
    /// A storage-layer failure while applying committed writes (e.g. a
    /// shard ledger hitting disk full in the commit phase of 2PC). Retrying
    /// is safe because apply implementations must be all-or-nothing per
    /// attempt (the ledger rolls a failed append back before returning),
    /// so a failed apply leaves nothing partially persisted to double-apply.
    Storage(String),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict(reason) => write!(f, "transaction aborted: {reason}"),
            TxnError::AlreadyFinished => write!(f, "transaction already finished"),
            TxnError::Storage(reason) => write!(f, "commit apply failed: {reason}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// An in-flight transaction.
#[derive(Debug)]
pub struct Transaction {
    /// Unique transaction id (equal to its start timestamp).
    pub id: u64,
    /// Snapshot/start timestamp.
    pub start_ts: u64,
    /// Requested isolation level.
    pub isolation: IsolationLevel,
    /// Keys read, with the commit timestamp of the version observed
    /// (`None` when the key did not exist at read time).
    read_set: HashMap<Vec<u8>, Option<u64>>,
    /// Buffered writes, applied atomically at commit.
    write_set: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Exclusive locks held (2PL only).
    locks: Vec<Vec<u8>>,
    finished: bool,
}

#[derive(Default)]
struct TimestampTable {
    /// Per key: largest start timestamp that has read it, and largest commit
    /// timestamp that has written it.
    entries: HashMap<Vec<u8>, (u64, u64)>,
}

/// The transaction manager: one per processor node.
pub struct TransactionManager {
    store: Arc<MvccStore>,
    oracle: Arc<TimestampOracle>,
    scheme: CcScheme,
    lock_table: Mutex<HashMap<Vec<u8>, u64>>,
    ts_table: Mutex<TimestampTable>,
    stats: Mutex<TxnStats>,
}

/// Commit/abort counters, reported by the concurrency-control ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Number of successfully committed transactions.
    pub committed: u64,
    /// Number of aborted transactions.
    pub aborted: u64,
}

impl TransactionManager {
    /// Create a manager over `store` using `scheme` for serializable
    /// validation.
    pub fn new(store: Arc<MvccStore>, oracle: Arc<TimestampOracle>, scheme: CcScheme) -> Self {
        TransactionManager {
            store,
            oracle,
            scheme,
            lock_table: Mutex::new(HashMap::new()),
            ts_table: Mutex::new(TimestampTable::default()),
            stats: Mutex::new(TxnStats::default()),
        }
    }

    /// The multi-version store this manager writes into.
    pub fn store(&self) -> &Arc<MvccStore> {
        &self.store
    }

    /// The configured scheme.
    pub fn scheme(&self) -> CcScheme {
        self.scheme
    }

    /// Commit/abort counters so far.
    pub fn stats(&self) -> TxnStats {
        *self.stats.lock()
    }

    /// Begin a transaction at the requested isolation level.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let start_ts = self.oracle.allocate();
        Transaction {
            id: start_ts,
            start_ts,
            isolation,
            read_set: HashMap::new(),
            write_set: BTreeMap::new(),
            locks: Vec::new(),
            finished: false,
        }
    }

    /// Read a key within a transaction.
    pub fn read(&self, txn: &mut Transaction, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(value) = txn.write_set.get(key) {
            return Some(value.clone());
        }
        let version = match txn.isolation {
            IsolationLevel::ReadCommitted => self.store.read_latest(key),
            IsolationLevel::SnapshotIsolation | IsolationLevel::Serializable => {
                self.store.read_at(key, txn.start_ts)
            }
        };
        let seen_ts = version.as_ref().map(|v| v.commit_ts);
        txn.read_set.insert(key.to_vec(), seen_ts);
        if txn.isolation == IsolationLevel::Serializable
            && self.scheme == CcScheme::TimestampOrdering
        {
            let mut table = self.ts_table.lock();
            let entry = table.entries.entry(key.to_vec()).or_default();
            entry.0 = entry.0.max(txn.start_ts);
        }
        version.map(|v| v.value)
    }

    /// Buffer a write within a transaction. Under 2PL this acquires the
    /// exclusive lock immediately and may fail with a conflict.
    pub fn write(&self, txn: &mut Transaction, key: &[u8], value: Vec<u8>) -> Result<(), TxnError> {
        if txn.finished {
            return Err(TxnError::AlreadyFinished);
        }
        if txn.isolation == IsolationLevel::Serializable && self.scheme == CcScheme::TwoPhaseLocking
        {
            let mut locks = self.lock_table.lock();
            match locks.get(key) {
                Some(&holder) if holder != txn.id => {
                    return Err(TxnError::Conflict(format!(
                        "key {:?} is locked by transaction {holder}",
                        String::from_utf8_lossy(key)
                    )));
                }
                Some(_) => {}
                None => {
                    locks.insert(key.to_vec(), txn.id);
                    txn.locks.push(key.to_vec());
                }
            }
        }
        txn.write_set.insert(key.to_vec(), value);
        Ok(())
    }

    /// Abort a transaction, releasing any locks.
    pub fn abort(&self, txn: &mut Transaction) {
        if txn.finished {
            return;
        }
        txn.finished = true;
        self.release_locks(txn);
        self.stats.lock().aborted += 1;
    }

    /// Commit a transaction. Returns the commit timestamp.
    pub fn commit(&self, txn: &mut Transaction) -> Result<u64, TxnError> {
        if txn.finished {
            return Err(TxnError::AlreadyFinished);
        }
        if txn.isolation == IsolationLevel::Serializable {
            if let Err(e) = self.validate(txn) {
                self.abort(txn);
                return Err(e);
            }
        } else if txn.isolation == IsolationLevel::SnapshotIsolation {
            // First-committer-wins on write/write conflicts.
            for key in txn.write_set.keys() {
                if let Some(latest) = self.store.latest_commit_ts(key) {
                    if latest > txn.start_ts {
                        let err = TxnError::Conflict(format!(
                            "write-write conflict on {:?}",
                            String::from_utf8_lossy(key)
                        ));
                        self.abort(txn);
                        return Err(err);
                    }
                }
            }
        }

        let commit_ts = self.oracle.allocate();
        for (key, value) in &txn.write_set {
            self.store.install(key, commit_ts, value.clone());
            if self.scheme == CcScheme::TimestampOrdering {
                let mut table = self.ts_table.lock();
                let entry = table.entries.entry(key.clone()).or_default();
                entry.1 = entry.1.max(commit_ts);
            }
        }
        txn.finished = true;
        self.release_locks(txn);
        self.stats.lock().committed += 1;
        Ok(commit_ts)
    }

    fn validate(&self, txn: &Transaction) -> Result<(), TxnError> {
        match self.scheme {
            CcScheme::Occ => {
                // The versions read must still be the latest committed ones.
                for (key, seen) in &txn.read_set {
                    let latest = self.store.latest_commit_ts(key);
                    if latest != *seen {
                        return Err(TxnError::Conflict(format!(
                            "read of {:?} invalidated (saw {:?}, now {:?})",
                            String::from_utf8_lossy(key),
                            seen,
                            latest
                        )));
                    }
                }
                // And nobody may have written our write keys after we started.
                for key in txn.write_set.keys() {
                    if let Some(latest) = self.store.latest_commit_ts(key) {
                        if latest > txn.start_ts {
                            return Err(TxnError::Conflict(format!(
                                "write-write conflict on {:?}",
                                String::from_utf8_lossy(key)
                            )));
                        }
                    }
                }
                Ok(())
            }
            CcScheme::TimestampOrdering => {
                let table = self.ts_table.lock();
                for key in txn.write_set.keys() {
                    if let Some((max_read, max_write)) = table.entries.get(key) {
                        // A younger transaction already read or wrote this
                        // key; writing now would break timestamp order.
                        if *max_read > txn.start_ts || *max_write > txn.start_ts {
                            return Err(TxnError::Conflict(format!(
                                "timestamp order violated on {:?}",
                                String::from_utf8_lossy(key)
                            )));
                        }
                    }
                }
                Ok(())
            }
            CcScheme::TwoPhaseLocking => {
                // Locks were acquired at write time; writes cannot conflict.
                // Reads are validated as in OCC to detect read-write races
                // with non-locking readers.
                for (key, seen) in &txn.read_set {
                    if txn.write_set.contains_key(key) {
                        continue;
                    }
                    let latest = self.store.latest_commit_ts(key);
                    if latest != *seen {
                        return Err(TxnError::Conflict(format!(
                            "read of {:?} invalidated",
                            String::from_utf8_lossy(key)
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    fn release_locks(&self, txn: &mut Transaction) {
        if txn.locks.is_empty() {
            return;
        }
        let mut locks = self.lock_table.lock();
        for key in txn.locks.drain(..) {
            if locks.get(&key) == Some(&txn.id) {
                locks.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(scheme: CcScheme) -> TransactionManager {
        TransactionManager::new(
            Arc::new(MvccStore::new()),
            Arc::new(TimestampOracle::new()),
            scheme,
        )
    }

    #[test]
    fn read_your_own_writes_and_commit() {
        let tm = manager(CcScheme::Occ);
        let mut txn = tm.begin(IsolationLevel::Serializable);
        assert_eq!(tm.read(&mut txn, b"k"), None);
        tm.write(&mut txn, b"k", b"v".to_vec()).unwrap();
        assert_eq!(tm.read(&mut txn, b"k"), Some(b"v".to_vec()));
        let commit_ts = tm.commit(&mut txn).unwrap();
        assert!(commit_ts > txn.start_ts);
        assert_eq!(tm.store().read_latest(b"k").unwrap().value, b"v");
        assert_eq!(tm.stats().committed, 1);
    }

    #[test]
    fn occ_aborts_on_invalidated_read() {
        let tm = manager(CcScheme::Occ);
        // t1 reads a key, t2 writes it and commits first, t1 must abort.
        let mut setup = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut setup, b"stock", b"10".to_vec()).unwrap();
        tm.commit(&mut setup).unwrap();

        let mut t1 = tm.begin(IsolationLevel::Serializable);
        let mut t2 = tm.begin(IsolationLevel::Serializable);
        assert_eq!(tm.read(&mut t1, b"stock"), Some(b"10".to_vec()));
        tm.write(&mut t2, b"stock", b"9".to_vec()).unwrap();
        tm.commit(&mut t2).unwrap();

        tm.write(&mut t1, b"stock", b"8".to_vec()).unwrap();
        assert!(matches!(tm.commit(&mut t1), Err(TxnError::Conflict(_))));
        assert_eq!(tm.stats().aborted, 1);
        // The double-spend was prevented: stock is 9, not 8.
        assert_eq!(tm.store().read_latest(b"stock").unwrap().value, b"9");
    }

    #[test]
    fn snapshot_isolation_sees_start_snapshot() {
        let tm = manager(CcScheme::Occ);
        let mut writer = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut writer, b"k", b"old".to_vec()).unwrap();
        tm.commit(&mut writer).unwrap();

        let mut reader = tm.begin(IsolationLevel::SnapshotIsolation);
        let mut writer2 = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut writer2, b"k", b"new".to_vec()).unwrap();
        tm.commit(&mut writer2).unwrap();

        // Snapshot reader still sees the old value.
        assert_eq!(tm.read(&mut reader, b"k"), Some(b"old".to_vec()));
        // A read-committed reader sees the new value.
        let mut rc = tm.begin(IsolationLevel::ReadCommitted);
        assert_eq!(tm.read(&mut rc, b"k"), Some(b"new".to_vec()));
    }

    #[test]
    fn two_phase_locking_blocks_conflicting_writers() {
        let tm = manager(CcScheme::TwoPhaseLocking);
        let mut t1 = tm.begin(IsolationLevel::Serializable);
        let mut t2 = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut t1, b"k", b"1".to_vec()).unwrap();
        // t2 cannot acquire the lock while t1 holds it.
        assert!(matches!(
            tm.write(&mut t2, b"k", b"2".to_vec()),
            Err(TxnError::Conflict(_))
        ));
        tm.commit(&mut t1).unwrap();
        // After t1 commits the lock is free again.
        tm.write(&mut t2, b"k", b"2".to_vec()).unwrap();
        tm.commit(&mut t2).unwrap();
        assert_eq!(tm.store().read_latest(b"k").unwrap().value, b"2");
    }

    #[test]
    fn timestamp_ordering_aborts_late_writer() {
        let tm = manager(CcScheme::TimestampOrdering);
        let mut old = tm.begin(IsolationLevel::Serializable);
        let mut young = tm.begin(IsolationLevel::Serializable);
        // The younger transaction reads the key first...
        assert_eq!(tm.read(&mut young, b"k"), None);
        tm.commit(&mut young).unwrap();
        // ...so the older transaction may no longer write it.
        tm.write(&mut old, b"k", b"late".to_vec()).unwrap();
        assert!(matches!(tm.commit(&mut old), Err(TxnError::Conflict(_))));
    }

    #[test]
    fn snapshot_isolation_first_committer_wins() {
        let tm = manager(CcScheme::Occ);
        let mut t1 = tm.begin(IsolationLevel::SnapshotIsolation);
        let mut t2 = tm.begin(IsolationLevel::SnapshotIsolation);
        tm.write(&mut t1, b"k", b"t1".to_vec()).unwrap();
        tm.write(&mut t2, b"k", b"t2".to_vec()).unwrap();
        tm.commit(&mut t1).unwrap();
        assert!(matches!(tm.commit(&mut t2), Err(TxnError::Conflict(_))));
    }

    #[test]
    fn finished_transactions_reject_further_use() {
        let tm = manager(CcScheme::Occ);
        let mut txn = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut txn, b"k", b"v".to_vec()).unwrap();
        tm.commit(&mut txn).unwrap();
        assert!(matches!(
            tm.commit(&mut txn),
            Err(TxnError::AlreadyFinished)
        ));
        assert!(matches!(
            tm.write(&mut txn, b"k", b"v2".to_vec()),
            Err(TxnError::AlreadyFinished)
        ));
    }

    #[test]
    fn abort_releases_locks() {
        let tm = manager(CcScheme::TwoPhaseLocking);
        let mut t1 = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut t1, b"k", b"1".to_vec()).unwrap();
        tm.abort(&mut t1);
        let mut t2 = tm.begin(IsolationLevel::Serializable);
        tm.write(&mut t2, b"k", b"2".to_vec()).unwrap();
        tm.commit(&mut t2).unwrap();
        assert_eq!(tm.stats().aborted, 1);
        assert_eq!(tm.stats().committed, 1);
    }
}
