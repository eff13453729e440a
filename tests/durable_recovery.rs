//! Crash-recovery and reopen-identity tests for the durable chunk store.
//!
//! The acceptance bar: a `ShardedDb` (one shard and four) or `Ledger` built
//! on `DurableChunkStore`, dropped, and reopened from the same path yields
//! byte-identical records-root, chain head and digest, serves verifying
//! Merkle proofs, and preserves dedup `StoreStats` across reopen; a segment
//! with a torn tail record (a crashed append) recovers to the last intact
//! record.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use spitz::core::db::SpitzConfig;
use spitz::core::DbError;
use spitz::ledger::DurabilityPolicy;
use spitz::storage::chunk::{Chunk, ChunkKind};
use spitz::storage::durable::format::root_record_len;
use spitz::storage::durable::DurableConfig;
use spitz::storage::{ChunkStore, DurableChunkStore, StorageError};
use spitz::{ShardedConfig, ShardedDb, Verifier};

mod common;
use common::{key_on, segment_files, TempDir, SHARD_COUNTS};

/// A durable `shards`-shard database under `dir`.
fn open(dir: &Path, shards: usize) -> ShardedDb {
    open_with(dir, ShardedConfig::default().with_shards(shards))
}

fn open_with(dir: &Path, config: ShardedConfig) -> ShardedDb {
    ShardedDb::open(dir, config).unwrap()
}

/// A database over one `DurableChunkStore` per shard, in `dir/shard-{i}`.
fn over_durable_stores(
    dir: &Path,
    shards: usize,
    config: DurableConfig,
    spitz: SpitzConfig,
) -> ShardedDb {
    let stores = (0..shards)
        .map(|i| {
            let store = DurableChunkStore::open_with_config(dir.join(format!("shard-{i}")), config);
            Arc::new(store.unwrap()) as Arc<dyn ChunkStore>
        })
        .collect();
    ShardedDb::with_stores(stores, spitz).unwrap()
}

/// The only segment file in a store directory (for tests that damage it).
fn single_segment_file(dir: &Path) -> PathBuf {
    let mut segments = segment_files(dir);
    assert_eq!(segments.len(), 1, "test expects exactly one segment");
    segments.pop().unwrap()
}

fn blob(data: &[u8]) -> Chunk {
    Chunk::new(ChunkKind::Blob, data.to_vec())
}

#[test]
fn reopened_spitzdb_reproduces_digest_chain_and_proofs() {
    for shards in SHARD_COUNTS {
        reopen_reproduces_digest_chain_and_proofs(shards);
    }
}

fn reopen_reproduces_digest_chain_and_proofs(shards: usize) {
    let dir = TempDir::new("db-reopen");
    let mut client = Verifier::new();

    let load = |db: &ShardedDb| {
        let writes: Vec<_> = (0..300u32)
            .map(|i| {
                (
                    format!("acct/{i:05}").into_bytes(),
                    format!("balance={}", i % 50).into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();
        db.put(b"acct/00007", b"balance=updated").unwrap();
        db.put(b"audit/log", b"entry-1").unwrap();
    };
    let (digest, records_root, block0, stats) = {
        let db = open(dir.path(), shards);
        load(&db);
        // A deterministic dedup event: the identical chunk stored twice.
        let shard = db.shard(0);
        let probe = shard.store().try_put(blob(b"dedup-probe")).unwrap();
        assert_eq!(shard.store().try_put(blob(b"dedup-probe")).unwrap(), probe);
        assert!(client.observe_sharded(&db.digest()));
        (
            db.digest(),
            shard.ledger().block(0).unwrap().header.records_root,
            shard.ledger().block(0).unwrap(),
            shard.storage_stats(),
        )
    };
    assert!(stats.dedup_hits > 0, "identical chunks must deduplicate");

    // The backend is not part of the digest: an in-memory twin fed the same
    // writes lands on the same one.
    let twin = ShardedDb::in_memory(shards);
    load(&twin);
    assert_eq!(twin.digest(), digest);

    // Reopen from the same path: everything a verifying client pins must be
    // byte-identical.
    let db = open(dir.path(), shards);
    let reopened = db.digest();
    assert_eq!(reopened, digest);
    assert_eq!(reopened.root, digest.root);
    // The batch sealed one block per shard, then two single puts.
    assert_eq!(reopened.epoch, shards as u64 + 2);
    let shard = db.shard(0);
    assert_eq!(shard.ledger().block(0).unwrap(), block0);
    assert_eq!(
        shard.ledger().block(0).unwrap().header.records_root,
        records_root
    );
    for s in 0..shards {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }

    // The client that pinned the pre-restart digest accepts the reopened
    // database's proofs unchanged.
    let (value, proof) = db.get_verified(b"acct/00007").unwrap();
    assert_eq!(value, Some(b"balance=updated".to_vec()));
    assert!(client.verify_sharded_read(b"acct/00007", value.as_deref(), &proof));
    let (missing, proof) = db.get_verified(b"acct/99999").unwrap();
    assert!(missing.is_none());
    assert!(client.verify_sharded_read(b"acct/99999", None, &proof));
    let (entries, range_proof) = db.range_verified(b"acct/00010", b"acct/00020").unwrap();
    assert_eq!(entries.len(), 10);
    assert!(client.verify_sharded_range(&entries, &range_proof));

    // Dedup stats survive the restart and keep counting.
    let stats2 = shard.storage_stats();
    assert_eq!(stats2.chunk_count, stats.chunk_count);
    assert_eq!(stats2.physical_bytes, stats.physical_bytes);
    assert_eq!(stats2.logical_bytes, stats.logical_bytes);
    assert_eq!(stats2.dedup_hits, stats.dedup_hits);
    shard.store().try_put(blob(b"dedup-probe")).unwrap();
    assert!(
        shard.storage_stats().dedup_hits > stats.dedup_hits,
        "re-storing a persisted chunk must hit dedup after reopen"
    );

    // Writes after reopen extend the same chain.
    let owner = db.route(b"acct/00008");
    let extended = db.put(b"acct/00008", b"balance=8").unwrap();
    let before = &digest.shards[owner];
    assert_eq!(extended.block_height, before.block_height + 1);
    assert_ne!(extended.journal_root, before.journal_root);
    assert_eq!(db.shard(owner).ledger().audit_chain(), None);
}

#[test]
fn torn_tail_record_is_dropped_and_the_rest_survives() {
    let dir = TempDir::new("torn-tail");
    let config = DurableConfig {
        segment_target_bytes: 1024 * 1024, // keep everything in one segment
        cache_capacity_bytes: 0,
    };

    let addresses: Vec<_> = {
        let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
        (0..20u32)
            .map(|i| {
                store
                    .try_put(blob(format!("record payload {i:04}").as_bytes()))
                    .unwrap()
            })
            .collect()
    };

    // Simulate a crash mid-append: cut into the middle of the last record.
    let segment = single_segment_file(dir.path());
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    file.set_len(len - 9).unwrap();
    drop(file);

    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert!(store.torn_bytes_recovered() > 0);

    // Every complete chunk survives; the torn one is gone.
    for address in &addresses[..19] {
        assert!(store.contains(address));
        store.get(address).unwrap();
    }
    assert!(!store.contains(&addresses[19]));
    assert!(matches!(
        store.get(&addresses[19]),
        Err(StorageError::ChunkNotFound(_))
    ));

    // Stats are consistent with what actually survived.
    let stats = store.stats();
    assert_eq!(stats.chunk_count, 19);
    assert!(stats.logical_bytes >= stats.physical_bytes);
    assert!(store.audit().is_empty());

    // The store keeps working: the dropped chunk can be rewritten and the
    // rewrite is durable.
    let rewritten = store.try_put(blob(b"record payload 0019")).unwrap();
    assert_eq!(rewritten, addresses[19]);
    drop(store);
    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert_eq!(store.torn_bytes_recovered(), 0);
    assert_eq!(store.stats().chunk_count, 20);
    assert_eq!(
        store.get(&addresses[19]).unwrap().data(),
        b"record payload 0019"
    );
}

/// Commit two blocks on shard 0 of a `shards`-shard database over durable
/// stores, record the per-block digests and the length of shard 0's
/// segment after each commit, and return them with the two keys — the
/// shared setup of the crash tests. The database is closed cleanly; the
/// caller then damages the segment to simulate the crash.
fn two_block_history(dir: &Path, shards: usize, config: DurableConfig) -> TwoBlocks {
    let db = over_durable_stores(dir, shards, config, SpitzConfig::default());
    let keys = [key_on(&db, 0, "k1"), key_on(&db, 0, "k2")];
    let digest1 = db.put(&keys[0], b"v1").unwrap();
    let digest2 = db.put(&keys[1], b"v2").unwrap();
    drop(db);
    let segment = single_segment_file(&dir.join("shard-0"));
    let len = std::fs::metadata(&segment).unwrap().len();
    TwoBlocks {
        digests: [digest1, digest2],
        keys,
        segment,
        len,
    }
}

/// What [`two_block_history`] committed and where.
struct TwoBlocks {
    /// Shard 0's digest after each block.
    digests: [spitz::Digest; 2],
    /// The key each block wrote.
    keys: [Vec<u8>; 2],
    /// Shard 0's only segment file, and its length after block 2.
    segment: PathBuf,
    len: u64,
}

fn truncate_to(path: &Path, len: u64) {
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    file.set_len(len).unwrap();
}

/// Crash simulation: the kill lands *between* the segment fsync of block
/// 2's data and the append of its root record — the log ends exactly at
/// the block chunk, with no (partial) root record after it. Reopen must
/// land on block 1, the last *durable* root, with the chain and digest
/// intact, and recommitting the lost write must reproduce block 2 exactly.
#[test]
fn crash_before_root_record_recovers_to_previous_root() {
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("crash-pre-root");
        let config = DurableConfig {
            segment_target_bytes: 1024 * 1024,
            cache_capacity_bytes: 0,
        };
        let history = two_block_history(dir.path(), shards, config);
        let [digest1, digest2] = history.digests;
        let [k1, k2] = &history.keys;

        // The file tail is [... block-2 chunk][root record]; cut the whole
        // root record so the data survives but its publication never
        // happened.
        let root_len = root_record_len(spitz::ledger::LEDGER_HEAD_ROOT) as u64;
        truncate_to(&history.segment, history.len - root_len);

        let db = over_durable_stores(dir.path(), shards, config, SpitzConfig::default());
        let shard = db.digest().shards[0];
        assert_eq!(shard, digest1, "must land on the last durable root");
        assert_eq!(shard.block_height, 0);
        assert_eq!(db.get(k1).unwrap(), Some(b"v1".to_vec()));
        assert_eq!(db.get(k2).unwrap(), None, "unpublished commit is gone");
        assert_eq!(db.shard(0).ledger().audit_chain(), None);

        // Recommitting the lost write reproduces the identical block 2:
        // same height, same prev hash, same digest — and the block chunk
        // that survived unreferenced deduplicates instead of growing the
        // log.
        let recommitted = db.put(k2, b"v2").unwrap();
        assert_eq!(recommitted, digest2);
        assert_eq!(db.shard(0).ledger().audit_chain(), None);
    }
}

/// Crash simulation: the kill lands *mid root-record* (a torn tail). The
/// partial record must be dropped, recovery again lands on the last
/// durable root, and every durability policy reopens to the same state.
#[test]
fn torn_root_record_recovers_to_previous_root_under_every_policy() {
    for shards in SHARD_COUNTS {
        for policy in [
            DurabilityPolicy::Strict,
            DurabilityPolicy::grouped_default(),
        ] {
            let case = format!("{}, {shards} shards", policy.name());
            let dir = TempDir::new("crash-torn-root");
            let config = DurableConfig {
                segment_target_bytes: 1024 * 1024,
                cache_capacity_bytes: 0,
            };
            let history = two_block_history(dir.path(), shards, config);
            let [digest1, _] = history.digests;

            // Tear into the middle of block 2's root record (3 bytes short).
            truncate_to(&history.segment, history.len - 3);

            let durable =
                DurableChunkStore::open_with_config(dir.path().join("shard-0"), config).unwrap();
            assert!(durable.torn_bytes_recovered() > 0, "{case}");
            drop(durable);
            let spitz = SpitzConfig::default().with_durability(policy);
            let db = over_durable_stores(dir.path(), shards, config, spitz);
            assert_eq!(db.digest().shards[0], digest1, "{case}");
            assert_eq!(db.get(&history.keys[1]).unwrap(), None, "{case}");
            assert_eq!(db.shard(0).ledger().audit_chain(), None, "{case}");

            // The recovered chain keeps extending under the same policy.
            let extended = db.put(&key_on(&db, 0, "k3"), b"v3").unwrap();
            assert_eq!(extended.block_height, 1, "{case}");
            drop(db);
            let db = over_durable_stores(dir.path(), shards, config, SpitzConfig::default());
            assert_eq!(db.digest().shards[0], extended, "{case}");
        }
    }
}

/// N writer threads × M puts through the group-commit pipeline must yield
/// exactly N·M records with a verifiable digest and a clean chain, and the
/// whole history must survive a drain + reopen byte-identically — under
/// every durability policy.
#[test]
fn concurrent_pipeline_writers_commit_every_record_exactly_once() {
    const WRITERS: u32 = 4;
    const PUTS: u32 = 30;
    for shards in SHARD_COUNTS {
        for policy in [
            DurabilityPolicy::Strict,
            DurabilityPolicy::grouped_default(),
        ] {
            let case = format!("{}, {shards} shards", policy.name());
            let dir = TempDir::new("pipeline-concurrency");
            let config = ShardedConfig::default()
                .with_shards(shards)
                .with_spitz(SpitzConfig::default().with_durability(policy));
            let records =
                |db: &ShardedDb| -> usize { (0..shards).map(|s| db.shard(s).ledger().len()).sum() };
            let clean_chains =
                |db: &ShardedDb| (0..shards).all(|s| db.shard(s).ledger().audit_chain().is_none());

            let digest = {
                let db = open_with(dir.path(), config);
                std::thread::scope(|scope| {
                    for writer in 0..WRITERS {
                        let db = &db;
                        scope.spawn(move || {
                            for i in 0..PUTS {
                                let key = format!("writer-{writer:02}/key-{i:04}");
                                let value = format!("value-{writer}-{i}");
                                db.put(key.as_bytes(), value.as_bytes()).unwrap();
                            }
                        });
                    }
                });

                assert_eq!(records(&db) as u32, WRITERS * PUTS, "{case}");
                for writer in 0..WRITERS {
                    for i in 0..PUTS {
                        let key = format!("writer-{writer:02}/key-{i:04}");
                        assert_eq!(
                            db.get(key.as_bytes()).unwrap(),
                            Some(format!("value-{writer}-{i}").into_bytes()),
                            "{case}"
                        );
                    }
                }
                assert!(clean_chains(&db), "{case}");
                let commits: u64 = (0..shards)
                    .map(|s| db.shard(s).pipeline().unwrap().stats().commits)
                    .sum();
                assert_eq!(commits, (WRITERS * PUTS) as u64, "{case}");

                // A verified read proves the coalesced blocks still chain
                // cleanly.
                let mut client = Verifier::new();
                assert!(client.observe_sharded(&db.digest()), "{case}");
                let (value, proof) = db.get_verified(b"writer-00/key-0000").unwrap();
                assert!(
                    client.verify_sharded_read(b"writer-00/key-0000", value.as_deref(), &proof),
                    "{case}"
                );
                db.digest()
            }; // drop: drain + final fsync + manifest

            let db = open(dir.path(), shards);
            assert_eq!(db.digest(), digest, "{case}");
            assert_eq!(records(&db) as u32, WRITERS * PUTS, "{case}");
            assert!(clean_chains(&db), "{case}");
        }
    }
}

/// `flush()` makes grouped commits durable on demand: after a flush, a
/// crash (simulated by leaking the database so nothing runs at drop) must
/// not lose the flushed history.
#[test]
fn explicit_flush_makes_grouped_commits_durable() {
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("pipeline-flush");
        let config = ShardedConfig::default().with_shards(shards).with_spitz(
            SpitzConfig::default().with_durability(DurabilityPolicy::Grouped {
                max_delay: std::time::Duration::from_secs(3600),
                max_writes: 1_000_000, // only an explicit flush may sync
            }),
        );

        let digest = {
            let db = open_with(dir.path(), config);
            db.put(b"k1", b"v1").unwrap();
            db.put(b"k2", b"v2").unwrap();
            let digest = db.flush().unwrap();
            // Simulate a hard kill: no pipeline drain, no store flush.
            std::mem::forget(db);
            digest
        };

        let db = open(dir.path(), shards);
        assert_eq!(db.digest(), digest, "flushed commits must survive a crash");
        assert_eq!(db.get(b"k2").unwrap(), Some(b"v2".to_vec()));
        for s in 0..shards {
            assert_eq!(db.shard(s).ledger().audit_chain(), None);
        }
    }
}

/// Every named root a shard's store keeps has a reader: the ledger head,
/// the membership record, the 2PC staged and decision logs and the table
/// catalog. Single puts, a cross-shard batch, a table write and a flush
/// publish no other root.
#[test]
fn a_store_keeps_only_roots_that_something_reads() {
    use spitz::{ColumnType, Record, Schema, Value};

    let dir = TempDir::new("read-roots");
    let db = open(dir.path(), 2);
    let (a, b) = (key_on(&db, 0, "a"), key_on(&db, 1, "b"));
    db.put(&a, b"1").unwrap();
    db.put(&b, b"2").unwrap();
    db.put_batch(vec![(a, b"3".to_vec()), (b, b"4".to_vec())])
        .unwrap();
    db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
        .unwrap();
    db.insert_record("t", &Record::new("pk").with("n", Value::Integer(1)))
        .unwrap();
    db.flush().unwrap();

    let read = [
        "spitz/ledger/head",
        "spitz/sharded/member",
        "spitz/2pc/staged",
        "spitz/2pc/decided",
        "spitz/catalog",
    ];
    for s in 0..db.shard_count() {
        let store = db.shard(s).durable_store().expect("a durable shard");
        let names: Vec<String> = store.roots().into_iter().map(|(name, _)| name).collect();
        assert!(
            names.contains(&"spitz/ledger/head".to_string()),
            "{names:?}"
        );
        for name in &names {
            assert!(read.contains(&name.as_str()), "shard {s} keeps {name}");
        }
    }
}

#[test]
fn stats_and_roots_survive_segment_rotation() {
    let dir = TempDir::new("rotation");
    let config = DurableConfig {
        segment_target_bytes: 2048, // force frequent rotation
        cache_capacity_bytes: 4096,
    };

    let (stats, segments) = {
        let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
        for i in 0..100u32 {
            store.try_put(blob(&i.to_be_bytes().repeat(16))).unwrap();
        }
        for i in 0..50u32 {
            store.try_put(blob(&i.to_be_bytes().repeat(16))).unwrap(); // dedup hits
        }
        (store.stats(), store.segment_count())
    };
    assert!(segments > 1, "rotation must have produced extra segments");
    assert_eq!(stats.chunk_count, 100);
    assert_eq!(stats.dedup_hits, 50);

    let store = DurableChunkStore::open_with_config(dir.path(), config).unwrap();
    assert_eq!(store.segment_count(), segments);
    assert_eq!(store.stats().chunk_count, stats.chunk_count);
    assert_eq!(store.stats().physical_bytes, stats.physical_bytes);
    assert_eq!(store.stats().logical_bytes, stats.logical_bytes);
    assert_eq!(store.stats().dedup_hits, stats.dedup_hits);
    assert!(store.audit().is_empty());
}

/// The typed-table catalog survives a reopen: schemas come back from the
/// `spitz/catalog` root chunk, and records, index cells and version
/// timestamps are read from the ledger — so typed reads, analytical
/// queries and further inserts all keep working across a restart.
#[test]
fn typed_table_catalog_survives_reopen() {
    for shards in SHARD_COUNTS {
        typed_table_catalog_case(shards);
    }
}

fn typed_table_catalog_case(shards: usize) {
    use spitz::{ColumnType, Record, Schema, Value};

    let dir = TempDir::new("catalog-reopen");
    {
        let db = open(dir.path(), shards);
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();
        for i in 0..20 {
            let record = Record::new(format!("item-{i:03}"))
                .with("name", Value::Text(format!("widget-{i}")))
                .with("stock", Value::Integer(i));
            db.insert_record("items", &record).unwrap();
        }
        // A second version of one record: the reopen must surface the
        // latest version, not the first.
        db.insert_record(
            "items",
            &Record::new("item-007")
                .with("name", Value::Text("widget-7-v2".into()))
                .with("stock", Value::Integer(700)),
        )
        .unwrap();
        db.flush().unwrap();
    }

    let db = open(dir.path(), shards);
    // Typed point reads serve the latest versions.
    let record = db.get_record("items", "item-007").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(700)));
    assert_eq!(record.get("name"), Some(&Value::Text("widget-7-v2".into())));
    let record = db.get_record("items", "item-012").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(12)));

    // Analytical queries over the index cells.
    let low = db.query_int_range("items", "stock", 0, 5).unwrap();
    assert_eq!(low.len(), 5);
    assert!(low.contains(&"item-004".to_string()));
    let named = db
        .query_eq("items", "name", &Value::Text("widget-12".into()))
        .unwrap();
    assert_eq!(named, vec!["item-012".to_string()]);

    // Inserts keep working after the reopen (timestamps resume).
    db.insert_record(
        "items",
        &Record::new("item-new")
            .with("name", Value::Text("fresh".into()))
            .with("stock", Value::Integer(1)),
    )
    .unwrap();
    let record = db.get_record("items", "item-new").unwrap().unwrap();
    assert_eq!(record.get("stock"), Some(&Value::Integer(1)));

    // And a second reopen still sees everything.
    db.flush().unwrap();
    drop(db);
    let db = open(dir.path(), shards);
    assert!(db.get_record("items", "item-new").unwrap().is_some());
    assert_eq!(
        db.query_eq("items", "name", &Value::Text("fresh".into()))
            .unwrap(),
        vec!["item-new".to_string()]
    );
}

/// Two tables whose columns share positions (and types) must stay separate
/// across a reopen: column ids are allocated globally per table, so one
/// table's cells never show up in another's reads or queries.
#[test]
fn catalog_rebuild_keeps_tables_separate() {
    for shards in SHARD_COUNTS {
        two_tables_case(shards);
    }
}

fn two_tables_case(shards: usize) {
    use spitz::{ColumnType, Record, Schema, Value};

    let dir = TempDir::new("catalog-two-tables");
    {
        let db = open(dir.path(), shards);
        db.create_table(Schema::new("users", vec![("name", ColumnType::Text)]))
            .unwrap();
        db.create_table(Schema::new("cities", vec![("name", ColumnType::Text)]))
            .unwrap();
        db.insert_record(
            "users",
            &Record::new("u1").with("name", Value::Text("ada".into())),
        )
        .unwrap();
        db.insert_record(
            "cities",
            &Record::new("c1").with("name", Value::Text("athens".into())),
        )
        .unwrap();
        db.flush().unwrap();
    }

    let db = open(dir.path(), shards);
    // Each table sees exactly its own rows, before and after analytics.
    assert_eq!(
        db.query_eq("users", "name", &Value::Text("ada".into()))
            .unwrap(),
        vec!["u1".to_string()]
    );
    assert!(db
        .query_eq("users", "name", &Value::Text("athens".into()))
        .unwrap()
        .is_empty());
    assert_eq!(
        db.query_eq("cities", "name", &Value::Text("athens".into()))
            .unwrap(),
        vec!["c1".to_string()]
    );
    assert!(db.get_record("users", "c1").unwrap().is_none());
    assert!(db.get_record("cities", "u1").unwrap().is_none());
    let user = db.get_record("users", "u1").unwrap().unwrap();
    assert_eq!(user.get("name"), Some(&Value::Text("ada".into())));
}

/// Creating a table again after a reopen must not strand its records: the
/// identical schema is a no-op, and another schema under the same name is
/// refused.
#[test]
fn recreating_a_table_keeps_its_records() {
    use spitz::{ColumnType, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let dir = TempDir::new("table-recreate");
        let schema = Schema::new("t", vec![("n", ColumnType::Integer)]);
        let record = Record::new("pk").with("n", Value::Integer(1));
        {
            let db = open(dir.path(), shards);
            db.create_table(schema.clone()).unwrap();
            db.insert_record("t", &record).unwrap();
        }
        let check = |db: &ShardedDb| {
            assert_eq!(db.get_record("t", "pk").unwrap(), Some(record.clone()));
            assert_eq!(
                db.query_eq("t", "n", &Value::Integer(1)).unwrap(),
                vec!["pk".to_string()]
            );
        };

        let db = open(dir.path(), shards);
        db.create_table(schema.clone()).unwrap();
        check(&db);
        assert!(matches!(
            db.create_table(Schema::new("t", vec![("n", ColumnType::Text)])),
            Err(DbError::BadRequest(_))
        ));
        check(&db);
        drop(db);
        check(&open(dir.path(), shards));
    }
}

/// Typed reads and queries are a function of the ledger: cells written
/// around the table layer (a record it never inserted, a newer version of
/// one it did) give the same answers before and after a reopen, and the
/// next insert is stamped above the newest version in the ledger.
#[test]
fn table_answers_are_a_function_of_the_ledger() {
    use spitz::core::UniversalKey;
    use spitz::{ColumnType, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let dir = TempDir::new("table-ledger-answers");
        let answers = |db: &ShardedDb| {
            (
                db.get_record("t", "ghost").unwrap(),
                db.get_record("t", "pk").unwrap(),
                db.query_eq("t", "n", &Value::Integer(5)).unwrap(),
                db.query_int_range("t", "n", i64::MIN, i64::MAX).unwrap(),
            )
        };
        let n = |pk: &str, n: i64| Record::new(pk).with("n", Value::Integer(n));

        let db = open(dir.path(), shards);
        db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
            .unwrap();
        db.insert_record("t", &n("pk", 5)).unwrap();
        for (pk, value, timestamp) in [("ghost", 7, 1), ("pk", 9, 99)] {
            let encoded = Value::Integer(value).encode();
            let cell = UniversalKey::new(0, pk.as_bytes(), timestamp, &encoded);
            db.put(&cell.encode(), &encoded).unwrap();
        }
        let live = answers(&db);
        assert_eq!(live.0, Some(n("ghost", 7)));
        assert_eq!(live.1, Some(n("pk", 9)), "the newest cell is the record");
        assert_eq!(live.2, vec!["pk".to_string()]);
        drop(db);

        let db = open(dir.path(), shards);
        assert_eq!(answers(&db), live);
        db.insert_record("t", &n("pk", 11)).unwrap();
        assert_eq!(db.get_record("t", "pk").unwrap(), Some(n("pk", 11)));
    }
}

/// Concurrent inserts of one key get distinct timestamps, and the record
/// read back is one complete version that some writer wrote. On one shard
/// every insert commits; across shards, two inserts that write the same
/// index cell may meet in two-phase commit, and the loser's typed
/// `TxnConflict` leaves nothing behind, so the writer retries it.
#[test]
fn concurrent_inserts_of_one_key_get_distinct_timestamps() {
    use std::collections::BTreeSet;

    use spitz::core::UniversalKey;
    use spitz::{ColumnType, Record, Schema, Value};

    const WRITERS: i64 = 4;
    const INSERTS: i64 = 25;
    for shards in SHARD_COUNTS {
        let db = ShardedDb::in_memory(shards);
        db.create_table(Schema::new(
            "t",
            vec![
                ("writer", ColumnType::Integer),
                ("seq", ColumnType::Integer),
            ],
        ))
        .unwrap();
        let version = |writer: i64, seq: i64| {
            Record::new("pk")
                .with("writer", Value::Integer(writer))
                .with("seq", Value::Integer(seq))
        };
        let start = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|scope| {
            for writer in 0..WRITERS {
                let (db, version, start) = (&db, &version, &start);
                scope.spawn(move || {
                    start.wait();
                    for seq in 0..INSERTS {
                        loop {
                            match db.insert_record("t", &version(writer, seq)) {
                                Ok(_) => break,
                                Err(DbError::TxnConflict(_)) if shards > 1 => continue,
                                Err(error) => panic!("{shards} shards: {error}"),
                            }
                        }
                    }
                });
            }
        });

        for column in 0..2u32 {
            let cells = db
                .range_unverified(
                    &UniversalKey::column_prefix(column),
                    &UniversalKey::column_prefix(column + 1),
                )
                .unwrap();
            let timestamps: BTreeSet<u64> = cells
                .iter()
                .map(|(key, _)| UniversalKey::decode(key).unwrap().timestamp)
                .collect();
            assert_eq!(cells.len() as i64, WRITERS * INSERTS, "column {column}");
            assert_eq!(timestamps.len(), cells.len(), "column {column}");
        }
        let latest = db.get_record("t", "pk").unwrap().unwrap();
        let written = |r: &Record| {
            matches!(
                (r.get("writer"), r.get("seq")),
                (Some(Value::Integer(w)), Some(Value::Integer(s)))
                    if (0..WRITERS).contains(w) && (0..INSERTS).contains(s) && r.values.len() == 2
            )
        };
        assert!(written(&latest), "{latest:?}");
    }
}

/// A store that counts chunk reads.
struct CountingStore {
    inner: Arc<dyn ChunkStore>,
    gets: std::sync::atomic::AtomicUsize,
}

impl CountingStore {
    fn gets(&self) -> usize {
        self.gets.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl ChunkStore for CountingStore {
    fn try_put(&self, chunk: Chunk) -> Result<spitz::Hash, StorageError> {
        self.inner.try_put(chunk)
    }
    fn get(&self, address: &spitz::Hash) -> Result<Arc<Chunk>, StorageError> {
        self.gets.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.get(address)
    }
    fn contains(&self, address: &spitz::Hash) -> bool {
        self.inner.contains(address)
    }
    fn stats(&self) -> spitz::storage::StoreStats {
        self.inner.stats()
    }
    fn audit(&self) -> Vec<spitz::Hash> {
        self.inner.audit()
    }
    fn try_set_root(&self, name: &str, hash: spitz::Hash) -> Result<(), StorageError> {
        self.inner.try_set_root(name, hash)
    }
    fn root(&self, name: &str) -> Option<spitz::Hash> {
        self.inner.root(name)
    }
}

/// Opening a database with tables reads the ledgers and a fixed number of
/// chunks besides, however many records the tables hold: no table history
/// is replayed. On one shard those are the two named roots it resolves: the
/// membership record and the catalog (more shards add their membership
/// records and the 2PC logs).
#[test]
fn open_reads_the_catalog_chunk_and_no_table_history() {
    use spitz::{ColumnType, Ledger, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let mut extra_gets = Vec::new();
        for records in [10, 1_000] {
            let stores: Vec<Arc<CountingStore>> = (0..shards)
                .map(|_| {
                    Arc::new(CountingStore {
                        inner: spitz::storage::InMemoryChunkStore::shared(),
                        gets: Default::default(),
                    })
                })
                .collect();
            let config = SpitzConfig::default();
            let open = || {
                let stores = stores
                    .iter()
                    .map(|s| Arc::clone(s) as Arc<dyn ChunkStore>)
                    .collect();
                ShardedDb::with_stores(stores, config)
            };
            let gets = || stores.iter().map(|s| s.gets()).sum::<usize>();
            {
                let db = open().unwrap();
                db.create_table(Schema::new(
                    "t",
                    vec![("name", ColumnType::Text), ("n", ColumnType::Integer)],
                ))
                .unwrap();
                for i in 0..records {
                    let record = Record::new(format!("pk-{i:04}"))
                        .with("name", Value::Text(format!("name-{}", i % 7)))
                        .with("n", Value::Integer(i));
                    db.insert_record("t", &record).unwrap();
                }
            }

            let before = gets();
            for store in &stores {
                let store = Arc::clone(store) as Arc<dyn ChunkStore>;
                drop(Ledger::open_with_kind(store, config.siri).unwrap());
            }
            let ledger_gets = gets() - before;

            let before = gets();
            let db = open().unwrap();
            let db_gets = gets() - before;
            extra_gets.push(db_gets - ledger_gets);
            assert_eq!(db.query_int_range("t", "n", 0, 5).unwrap().len(), 5);
            assert!(ledger_gets > 0);
        }
        assert_eq!(extra_gets[0], extra_gets[1], "{shards} shards");
        if shards == 1 {
            assert_eq!(extra_gets[0], 2);
        }
    }
}
