//! Figure 1: data storage improved by deduplication.
//!
//! 10 WIKI pages of 16 KB each; every version edits one page while all
//! previous versions are kept. The "Storage" series keeps each version as a
//! full copy (no dedup); the "Storage-ForkBase" series stores versions
//! through the content-defined-chunked, deduplicating storage substrate.

use spitz_bench::workload::WikiWorkload;
use spitz_bench::FigureTable;
use spitz_storage::{ChunkStore, ChunkerConfig, InMemoryChunkStore, VBlob, VersionManager};

fn main() {
    let versions_axis = [10usize, 20, 30, 40, 50, 60];
    let mut table = FigureTable::new(
        "Figure 1: storage (KB) vs #versions",
        "#Versions",
        vec!["Storage-ForkBase", "Storage"],
    );

    let versions = VersionManager::new(InMemoryChunkStore::new());
    let store = versions.store();
    let mut wiki = WikiWorkload::paper_default();
    let chunker = ChunkerConfig::default();

    // Version 1: commit every page initially; each subsequent version edits
    // one page. Track the physical bytes of the dedup store and the logical
    // bytes a copy-per-version store would hold.
    let mut naive_bytes: u64 = 0;
    let mut committed_versions = 0usize;
    let mut results = Vec::new();

    for (i, page) in wiki.pages.iter().enumerate() {
        let blob = VBlob::write(store, page, &chunker).expect("store page");
        versions
            .commit(&format!("page-{i}"), blob.root(), "initial version")
            .expect("commit version");
    }
    naive_bytes += wiki.logical_bytes() as u64;
    committed_versions += 1;

    let max_versions = *versions_axis.last().unwrap();
    for target in versions_axis {
        while committed_versions < target {
            let edited = wiki.next_version();
            let blob = VBlob::write(store, &wiki.pages[edited], &chunker).expect("store page");
            versions
                .commit(&format!("page-{edited}"), blob.root(), "edit")
                .expect("commit version");
            // A naive immutable store keeps a full snapshot of every page for
            // the new database version.
            naive_bytes += wiki.logical_bytes() as u64;
            committed_versions += 1;
        }
        let dedup_kb = store.stats().physical_bytes as f64 / 1024.0;
        let naive_kb = naive_bytes as f64 / 1024.0;
        results.push((target, dedup_kb, naive_kb));
    }

    for (versions, dedup_kb, naive_kb) in results {
        table.add_row(versions.to_string(), vec![dedup_kb, naive_kb]);
    }
    table.print();
    println!();
    println!(
        "dedup ratio at {} versions: {:.1}% of the bytes a copy-per-version store would hold",
        max_versions,
        100.0 * store.stats().physical_bytes as f64 / naive_bytes as f64
    );
}
