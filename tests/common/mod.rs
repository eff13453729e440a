//! Helpers shared by the integration test suite (`tests/common/` is the
//! cargo idiom for test support code that is not itself a test target).

// Not every test target uses every helper; silence per-target dead-code.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A uniquely named temp directory removed on drop (the offline workspace
/// has no `tempfile` dependency).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("spitz-test-{label}-{}-{n}", std::process::id()));
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

/// All segment files (`seg-*.spitz`) of a durable store directory, sorted
/// by name (= by segment id, the names are fixed width).
pub fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().map(|e| e == "spitz").unwrap_or(false))
        .collect();
    segments.sort();
    segments
}

/// The shard counts every test whose subject depends on the layout runs
/// over: the one-shard database and a cross-shard one.
pub const SHARD_COUNTS: [usize; 2] = [1, 4];

/// A key starting with `tag` that `db` routes to `shard`.
pub fn key_on(db: &spitz::ShardedDb, shard: usize, tag: &str) -> Vec<u8> {
    (0u32..)
        .map(|j| format!("{tag}/{j}").into_bytes())
        .find(|key| db.route(key) == shard)
        .expect("some key routes to every shard")
}
