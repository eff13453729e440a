//! Version management: Git-like, append-only lineage over immutable roots.
//!
//! ForkBase exposes a branchable version model. Spitz only needs the linear,
//! append-only part of it (snapshots of an ever-growing database), so the
//! [`VersionManager`] here records, per logical key, a chain of
//! [`Commit`] objects. Each commit points at a content-addressed root (for
//! example a [`crate::object::VBlob`] root or an index root), at its parent
//! commit, and at a monotonically increasing version number.
//!
//! Commits are themselves stored as chunks, so the entire version history is
//! tamper evident: changing any historical root changes the commit hash and
//! every descendant commit hash.

use std::collections::HashMap;

use parking_lot::RwLock;
use spitz_crypto::Hash;

use crate::chunk::{Chunk, ChunkKind};
use crate::error::StorageError;
use crate::store::ChunkStore;
use crate::Result;

/// A single immutable commit in a key's version chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// The logical key this commit belongs to.
    pub key: String,
    /// Monotonically increasing version number, starting at 1.
    pub version: u64,
    /// Content address of the value/root captured by this commit.
    pub root: Hash,
    /// Address of the parent commit chunk (`Hash::ZERO` for the first
    /// version).
    pub parent: Hash,
    /// Free-form commit message (e.g. "ICD-10 recoding of patient profile").
    pub message: String,
}

impl Commit {
    /// Serialize the commit for storage as a chunk.
    fn encode(&self) -> Vec<u8> {
        let key_bytes = self.key.as_bytes();
        let msg_bytes = self.message.as_bytes();
        let mut out = Vec::with_capacity(8 + 64 + 8 + key_bytes.len() + msg_bytes.len());
        out.extend_from_slice(&self.version.to_be_bytes());
        out.extend_from_slice(self.root.as_bytes());
        out.extend_from_slice(self.parent.as_bytes());
        out.extend_from_slice(&(key_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(key_bytes);
        out.extend_from_slice(&(msg_bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(msg_bytes);
        out
    }

    /// Decode a commit from its chunk payload.
    fn decode(data: &[u8], address: Hash) -> Result<Commit> {
        let corrupt = || StorageError::CorruptChunk(address);
        if data.len() < 8 + 64 + 4 {
            return Err(corrupt());
        }
        let version = u64::from_be_bytes(data[0..8].try_into().map_err(|_| corrupt())?);
        let mut root = [0u8; 32];
        root.copy_from_slice(&data[8..40]);
        let mut parent = [0u8; 32];
        parent.copy_from_slice(&data[40..72]);
        let key_len = u32::from_be_bytes(data[72..76].try_into().map_err(|_| corrupt())?) as usize;
        let key_end = 76 + key_len;
        if data.len() < key_end + 4 {
            return Err(corrupt());
        }
        let key = String::from_utf8(data[76..key_end].to_vec()).map_err(|_| corrupt())?;
        let msg_len = u32::from_be_bytes(
            data[key_end..key_end + 4]
                .try_into()
                .map_err(|_| corrupt())?,
        ) as usize;
        let msg_end = key_end + 4 + msg_len;
        if data.len() != msg_end {
            return Err(corrupt());
        }
        let message =
            String::from_utf8(data[key_end + 4..msg_end].to_vec()).map_err(|_| corrupt())?;
        Ok(Commit {
            key,
            version,
            root: Hash::from_bytes(root),
            parent: Hash::from_bytes(parent),
            message,
        })
    }
}

/// Append-only version manager over a chunk store.
pub struct VersionManager<S> {
    store: S,
    /// key → (latest version number, latest commit address).
    heads: RwLock<HashMap<String, (u64, Hash)>>,
}

impl<S: ChunkStore> VersionManager<S> {
    /// Create a version manager writing into `store`.
    pub fn new(store: S) -> Self {
        VersionManager {
            store,
            heads: RwLock::new(HashMap::new()),
        }
    }

    /// Access the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Record a new version of `key` whose content root is `root`.
    /// Returns the commit describing the new head.
    pub fn commit(&self, key: &str, root: Hash, message: &str) -> Result<Commit> {
        let mut heads = self.heads.write();
        let (prev_version, parent) = heads.get(key).copied().unwrap_or((0, Hash::ZERO));
        let commit = Commit {
            key: key.to_string(),
            version: prev_version + 1,
            root,
            parent,
            message: message.to_string(),
        };
        let address = self
            .store
            .try_put(Chunk::new(ChunkKind::Commit, commit.encode()))?;
        heads.insert(key.to_string(), (commit.version, address));
        Ok(commit)
    }

    /// The latest version number of `key`, if it has ever been committed.
    pub fn latest_version(&self, key: &str) -> Option<u64> {
        self.heads.read().get(key).map(|(v, _)| *v)
    }

    /// The head commit of `key`.
    pub fn head(&self, key: &str) -> Result<Commit> {
        let address = {
            let heads = self.heads.read();
            heads
                .get(key)
                .map(|(_, addr)| *addr)
                .ok_or_else(|| StorageError::KeyNotFound(key.to_string()))?
        };
        self.load_commit(&address)
    }

    /// Full history of `key`, newest first.
    pub fn history(&self, key: &str) -> Result<Vec<Commit>> {
        let mut out = Vec::new();
        let mut current = self.head(key)?;
        loop {
            let parent = current.parent;
            let is_root = current.version == 1;
            out.push(current);
            if is_root {
                break;
            }
            current = self.load_commit(&parent)?;
        }
        Ok(out)
    }

    /// All keys that have at least one version.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.heads.read().keys().cloned().collect();
        keys.sort();
        keys
    }

    fn load_commit(&self, address: &Hash) -> Result<Commit> {
        let chunk = self.store.get_kind(address, ChunkKind::Commit)?;
        Commit::decode(chunk.data(), *address)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InMemoryChunkStore;
    use spitz_crypto::sha256;

    fn manager() -> VersionManager<InMemoryChunkStore> {
        VersionManager::new(InMemoryChunkStore::new())
    }

    #[test]
    fn commit_and_head() {
        let vm = manager();
        let c1 = vm
            .commit("patient-1", sha256(b"v1"), "initial record")
            .unwrap();
        assert_eq!(c1.version, 1);
        assert_eq!(c1.parent, Hash::ZERO);
        let head = vm.head("patient-1").unwrap();
        assert_eq!(head, c1);
    }

    #[test]
    fn versions_increment_and_link() {
        let vm = manager();
        vm.commit("k", sha256(b"v1"), "first").unwrap();
        vm.commit("k", sha256(b"v2"), "second").unwrap();
        let c3 = vm.commit("k", sha256(b"v3"), "third").unwrap();
        assert_eq!(c3.version, 3);
        assert_eq!(vm.latest_version("k"), Some(3));

        let history = vm.history("k").unwrap();
        assert_eq!(history[1].root, sha256(b"v2"));
        assert_eq!(history[2].root, sha256(b"v1"));
        assert_eq!(history[2].parent, Hash::ZERO);
    }

    #[test]
    fn history_is_newest_first_and_complete() {
        let vm = manager();
        for i in 1..=5u64 {
            vm.commit("k", sha256(&i.to_be_bytes()), &format!("v{i}"))
                .unwrap();
        }
        let history = vm.history("k").unwrap();
        assert_eq!(history.len(), 5);
        assert_eq!(
            history.iter().map(|c| c.version).collect::<Vec<_>>(),
            vec![5, 4, 3, 2, 1]
        );
        assert_eq!(history[4].message, "v1");
    }

    #[test]
    fn missing_key_errors() {
        let vm = manager();
        assert!(matches!(vm.head("nope"), Err(StorageError::KeyNotFound(_))));
        assert_eq!(vm.latest_version("nope"), None);
    }

    #[test]
    fn keys_are_tracked_independently() {
        let vm = manager();
        vm.commit("a", sha256(b"1"), "").unwrap();
        vm.commit("b", sha256(b"2"), "").unwrap();
        vm.commit("a", sha256(b"3"), "").unwrap();
        assert_eq!(vm.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(vm.latest_version("a"), Some(2));
        assert_eq!(vm.latest_version("b"), Some(1));
    }

    #[test]
    fn commit_roundtrips_through_storage() {
        let vm = manager();
        let c = vm
            .commit("key-with-unicode-ключ", sha256(b"root"), "message ✓")
            .unwrap();
        let head = vm.head("key-with-unicode-ключ").unwrap();
        assert_eq!(head, c);
        assert_eq!(head.message, "message ✓");
    }

    #[test]
    fn identical_commits_for_different_keys_do_not_collide() {
        let vm = manager();
        vm.commit("a", sha256(b"same"), "same").unwrap();
        vm.commit("b", sha256(b"same"), "same").unwrap();
        assert_eq!(vm.head("a").unwrap().key, "a");
        assert_eq!(vm.head("b").unwrap().key, "b");
    }
}
