//! Multi-version key/value storage.
//!
//! Cells in Spitz are multi-versioned: a write appends a new version tagged
//! with the committing transaction's timestamp and never overwrites older
//! versions. Reads are snapshot reads: a transaction with start timestamp
//! `ts` sees, for each key, the newest version with commit timestamp `<= ts`.
//! This is the substrate on which the OCC / T/O / 2PL validators operate.

use std::collections::HashMap;

use parking_lot::RwLock;

/// One committed version of a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Commit timestamp of the transaction that wrote this version.
    pub commit_ts: u64,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// A multi-version key/value store with snapshot reads.
#[derive(Debug, Default)]
pub struct MvccStore {
    inner: RwLock<HashMap<Vec<u8>, Vec<Version>>>,
}

impl MvccStore {
    /// Create an empty store.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// Install a committed version. Versions must be installed with
    /// monotonically increasing timestamps per key (enforced by the
    /// transaction manager); out-of-order installs are inserted at the right
    /// position to keep reads correct anyway.
    pub fn install(&self, key: &[u8], commit_ts: u64, value: Vec<u8>) {
        let mut inner = self.inner.write();
        let versions = inner.entry(key.to_vec()).or_default();
        let pos = versions.partition_point(|v| v.commit_ts <= commit_ts);
        versions.insert(pos, Version { commit_ts, value });
    }

    /// Snapshot read: newest version with `commit_ts <= snapshot_ts`.
    pub fn read_at(&self, key: &[u8], snapshot_ts: u64) -> Option<Version> {
        let inner = self.inner.read();
        let versions = inner.get(key)?;
        versions
            .iter()
            .rev()
            .find(|v| v.commit_ts <= snapshot_ts)
            .cloned()
    }

    /// The latest committed version of a key.
    pub fn read_latest(&self, key: &[u8]) -> Option<Version> {
        self.read_at(key, u64::MAX)
    }

    /// Commit timestamp of the newest version of `key`, if any.
    pub fn latest_commit_ts(&self, key: &[u8]) -> Option<u64> {
        self.read_latest(key).map(|v| v.commit_ts)
    }

    /// Full version history of a key, oldest first.
    pub fn history(&self, key: &[u8]) -> Vec<Version> {
        self.inner.read().get(key).cloned().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_store_reads_nothing() {
        let store = MvccStore::new();
        assert_eq!(store.read_latest(b"k"), None);
        assert_eq!(store.read_at(b"k", 10), None);
        assert!(store.history(b"k").is_empty());
    }

    #[test]
    fn snapshot_reads_see_the_right_version() {
        let store = MvccStore::new();
        store.install(b"balance", 10, b"100".to_vec());
        store.install(b"balance", 20, b"250".to_vec());
        store.install(b"balance", 30, b"50".to_vec());

        assert_eq!(store.read_at(b"balance", 5), None);
        assert_eq!(store.read_at(b"balance", 10).unwrap().value, b"100");
        assert_eq!(store.read_at(b"balance", 19).unwrap().value, b"100");
        assert_eq!(store.read_at(b"balance", 20).unwrap().value, b"250");
        assert_eq!(store.read_at(b"balance", 99).unwrap().value, b"50");
        assert_eq!(store.read_latest(b"balance").unwrap().commit_ts, 30);
        assert_eq!(store.latest_commit_ts(b"balance"), Some(30));
        assert_eq!(store.history(b"balance").len(), 3);
    }

    #[test]
    fn out_of_order_installs_are_ordered() {
        let store = MvccStore::new();
        store.install(b"k", 30, b"c".to_vec());
        store.install(b"k", 10, b"a".to_vec());
        store.install(b"k", 20, b"b".to_vec());
        let history = store.history(b"k");
        let timestamps: Vec<u64> = history.iter().map(|v| v.commit_ts).collect();
        assert_eq!(timestamps, vec![10, 20, 30]);
        assert_eq!(store.read_at(b"k", 25).unwrap().value, b"b");
    }

    #[test]
    fn versions_never_overwrite_older_data() {
        let store = MvccStore::new();
        for ts in 1..=100u64 {
            store.install(b"k", ts, ts.to_string().into_bytes());
        }
        // Every historical snapshot is still readable — immutability.
        for ts in 1..=100u64 {
            assert_eq!(
                store.read_at(b"k", ts).unwrap().value,
                ts.to_string().into_bytes()
            );
        }
        assert_eq!(store.history(b"k").len(), 100);
    }

    #[test]
    fn keys_are_independent() {
        let store = MvccStore::new();
        store.install(b"a", 1, b"1".to_vec());
        store.install(b"b", 2, b"2".to_vec());
        assert_eq!(store.history(b"a").len(), 1);
        assert_eq!(store.history(b"b").len(), 1);
        assert_eq!(store.read_latest(b"a").unwrap().value, b"1");
        assert_eq!(store.read_latest(b"b").unwrap().value, b"2");
    }
}
