//! Criterion bench: the cost of persistence. In-memory vs durable chunk
//! store on put/get, plus the end-to-end `SpitzDb` write path on both
//! backends, so the durable layer's overhead is tracked from day one.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use spitz_bench::util::TempDir;
use spitz_core::db::{SpitzConfig, SpitzDb};
use spitz_ledger::DurabilityPolicy;
use spitz_storage::chunk::{Chunk, ChunkKind};
use spitz_storage::durable::DurableConfig;
use spitz_storage::{ChunkStore, DurableChunkStore, InMemoryChunkStore};

/// A unique ~100-byte chunk per sequence number (defeats dedup, so puts
/// measure the append path, not the dedup-hit path).
fn unique_chunk(i: u64) -> Chunk {
    let mut data = vec![0u8; 100];
    data[..8].copy_from_slice(&i.to_be_bytes());
    Chunk::new(ChunkKind::Blob, data)
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        segment_target_bytes: 64 * 1024 * 1024,
        cache_capacity_bytes: 16 * 1024 * 1024,
    }
}

fn bench_chunk_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_durable_put");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));

    let memory = InMemoryChunkStore::new();
    let mut i = 0u64;
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            i += 1;
            memory.put(unique_chunk(i))
        })
    });

    let dir = TempDir::new("put");
    let durable = DurableChunkStore::open_with_config(dir.path(), durable_config()).unwrap();
    let mut j = 0u64;
    group.bench_function("durable", |b| {
        b.iter(|| {
            j += 1;
            durable.put(unique_chunk(j))
        })
    });
    group.finish();
}

fn bench_chunk_get(c: &mut Criterion) {
    const PRELOAD: u64 = 10_000;
    let mut group = c.benchmark_group("fig_durable_get_10k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));

    let memory = InMemoryChunkStore::new();
    let addresses: Vec<_> = (0..PRELOAD).map(|i| memory.put(unique_chunk(i))).collect();
    let mut i = 0usize;
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            i = (i + 1) % addresses.len();
            memory.get(&addresses[i]).unwrap()
        })
    });

    let dir = TempDir::new("get-cached");
    let durable = DurableChunkStore::open_with_config(dir.path(), durable_config()).unwrap();
    for k in 0..PRELOAD {
        durable.put(unique_chunk(k));
    }
    group.bench_function("durable_cached", |b| {
        b.iter(|| {
            i = (i + 1) % addresses.len();
            durable.get(&addresses[i]).unwrap()
        })
    });

    let dir = TempDir::new("get-uncached");
    let uncached = DurableChunkStore::open_with_config(
        dir.path(),
        DurableConfig {
            cache_capacity_bytes: 0,
            ..durable_config()
        },
    )
    .unwrap();
    for k in 0..PRELOAD {
        uncached.put(unique_chunk(k));
    }
    group.bench_function("durable_uncached", |b| {
        b.iter(|| {
            i = (i + 1) % addresses.len();
            uncached.get(&addresses[i]).unwrap()
        })
    });
    group.finish();
}

fn bench_db_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig_durable_db_put");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));

    let memory_db = SpitzDb::in_memory();
    let mut i = 0u64;
    group.bench_function("in_memory", |b| {
        b.iter(|| {
            i += 1;
            memory_db
                .put(format!("key-{i:012}").as_bytes(), b"value")
                .unwrap()
        })
    });

    // The headline durable row runs under the Grouped policy: commits are
    // acknowledged at publication and fsyncs are amortized by the commit
    // pipeline — the recommended configuration for write-heavy durable
    // workloads (BASELINES.md tracks this row against in_memory).
    let dir = TempDir::new("db-put");
    let durable_db = SpitzDb::open_with_configs(
        dir.path(),
        SpitzConfig::default().with_durability(DurabilityPolicy::grouped_default()),
        durable_config(),
    )
    .unwrap();
    let mut j = 0u64;
    group.bench_function("durable", |b| {
        b.iter(|| {
            j += 1;
            durable_db
                .put(format!("key-{j:012}").as_bytes(), b"value")
                .unwrap()
        })
    });

    // Strict: one fsync per commit (every acknowledged put is durable) —
    // still cheaper than the pre-pipeline path, which also rewrote the
    // whole manifest per commit.
    let dir = TempDir::new("db-put-strict");
    let strict_db = SpitzDb::open_with_configs(
        dir.path(),
        SpitzConfig::default().with_durability(DurabilityPolicy::Strict),
        durable_config(),
    )
    .unwrap();
    let mut k = 0u64;
    group.bench_function("durable_strict", |b| {
        b.iter(|| {
            k += 1;
            strict_db
                .put(format!("key-{k:012}").as_bytes(), b"value")
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_chunk_put,
    bench_chunk_get,
    bench_db_write_path
);
criterion_main!(benches);
