//! Fault-hardening integration tests: injected `ENOSPC` and torn writes
//! flip a live database read-only (verified reads keep serving, writes
//! fail fast with the typed error), in-doubt 2PC staged batches survive
//! scrub and compaction passes until their decision resolves,
//! [`ShardedDb::recover`] races concurrent scrub and compaction passes
//! safely, an explicit scrub quarantines a silently bit-flipped segment,
//! and a block append that fails at any of its store writes is invisible
//! and reproducible on retry (seeded cases in every run, more under the
//! `#[ignore]`d soak).
//!
//! The seeded chaos schedules of `tests/chaos` run from the bottom of this
//! file: nine fixed seeds in every test run, and a 240-seed soak that is
//! `#[ignore]`d; CI's soak step runs it explicitly with `--ignored`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spitz::core::db::SpitzConfig;
use spitz::core::proof::Verifier;
use spitz::core::sharded::{ShardedConfig, ShardedDb};
use spitz::core::{DbError, HealthState};
use spitz::crypto::Hash;
use spitz::index::SiriKind;
use spitz::ledger::{DurabilityPolicy, Ledger};
use spitz::storage::{
    Chunk, ChunkStore, DurableConfig, InMemoryChunkStore, IoErrorKind, StorageError, StoreStats,
    WriteOutcome,
};
use spitz_faults::{FailMode, FailpointStore, FaultInjector, SeededRng};

mod chaos;
mod common;
use common::{key_on, TempDir, SHARD_COUNTS};

fn key(i: u32) -> Vec<u8> {
    format!("fault/{i:05}").into_bytes()
}

fn value(i: u32) -> Vec<u8> {
    format!("value-{i}").into_bytes()
}

/// A `shards`-shard database under a seeded injector with `count`
/// acknowledged writes.
fn db_with_writes(
    dir: &TempDir,
    shards: usize,
    seed: u64,
    count: u32,
) -> (ShardedDb, Arc<FaultInjector>) {
    let injector = Arc::new(FaultInjector::new(seed));
    let config = ShardedConfig::default().with_shards(shards);
    let db =
        ShardedDb::open_with_io(dir.path(), config, injector.handle()).expect("open with injector");
    for i in 0..count {
        db.put(&key(i), &value(i)).expect("pre-fault put");
    }
    (db, injector)
}

/// Every key in `0..count` reads back verified out of `db`.
fn assert_all_verified(db: &ShardedDb, count: u32) {
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));
    for i in 0..count {
        let (got, proof) = db.get_verified(&key(i)).expect("verified read");
        assert_eq!(got.as_deref(), Some(value(i).as_ref()));
        assert!(client.verify_sharded_read(&key(i), got.as_deref(), &proof));
    }
}

/// The acceptance scenario: an injected `ENOSPC` flips the store of the
/// shard it lands on to `ReadOnly`, where verified reads still succeed and
/// writes return the typed [`DbError::ReadOnly`].
#[test]
fn enospc_flips_store_read_only_reads_keep_serving() {
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("faults-enospc");
        let (db, injector) = db_with_writes(&dir, shards, 0xE05, 20);
        assert_eq!(db.health(), HealthState::Healthy);

        let (appends, _) = injector.ops();
        injector.fail_append_at(appends, WriteOutcome::Fail(IoErrorKind::NoSpace));
        db.put(b"fault/over", b"x").expect_err("device is full");

        let full = db.route(b"fault/over");
        assert_eq!(db.shard_health(full), HealthState::ReadOnly, "{shards}");
        let reason = db
            .shard_health_reason(full)
            .expect("durable store has a reason");
        assert!(reason.contains("space"), "unexpected reason: {reason}");

        // Writes to the full shard fail fast with the typed error from now on.
        let err = db
            .put(&key_on(&db, full, "fault/after"), b"x")
            .expect_err("read-only");
        assert!(matches!(err, DbError::ReadOnly(_)), "got {err}");
        let err = db
            .put_batch(vec![(key_on(&db, full, "fault/batch"), b"x".to_vec())])
            .expect_err("read-only");
        assert!(matches!(err, DbError::ReadOnly(_)), "got {err}");

        // Verified reads keep serving out of the degraded store.
        assert_all_verified(&db, 20);

        // The un-acknowledged write is not visible.
        assert_eq!(db.get(b"fault/over").unwrap(), None);
    }
}

/// A torn append flips the store read-only (its in-memory tail is no
/// longer trustworthy); reopening without the injector truncates the torn
/// tail and recovers every acknowledged write.
#[test]
fn torn_write_goes_read_only_and_reopen_recovers() {
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("faults-torn");
        let (db, injector) = db_with_writes(&dir, shards, 0x7032, 20);

        let (appends, _) = injector.ops();
        injector.fail_append_at(appends, WriteOutcome::Torn { prefix: 11 });
        db.put(b"fault/torn", b"x").expect_err("torn write");

        let torn = db.route(b"fault/torn");
        assert_eq!(db.shard_health(torn), HealthState::ReadOnly, "{shards}");
        assert_all_verified(&db, 20);

        // Crash with the torn tail in place; the reopen scan truncates it.
        std::mem::forget(db);
        let config = ShardedConfig::default().with_shards(shards);
        let reopened = ShardedDb::open(dir.path(), config).expect("reopen after torn tail");
        assert_eq!(reopened.health(), HealthState::Healthy);
        assert_all_verified(&reopened, 20);
        assert_eq!(reopened.get(b"fault/torn").unwrap(), None);

        // The recovered database accepts writes again.
        reopened
            .put(&key_on(&reopened, torn, "fault/resumed"), b"y")
            .expect("writable again");
    }
}

/// A silently bit-flipped sealed segment is invisible to every write and
/// to the cached read path; one explicit `scrub()` of its shard finds it
/// and quarantines it.
#[test]
fn explicit_scrub_quarantines_silent_bitflip() {
    for shards in SHARD_COUNTS {
        let dir = TempDir::new("faults-explicit-scrub");
        let injector = Arc::new(FaultInjector::new(0x5C12B));
        let config = ShardedConfig::default()
            .with_shards(shards)
            .with_durable(DurableConfig {
                segment_target_bytes: 2 * 1024,
                ..DurableConfig::default()
            });
        let db = ShardedDb::open_with_io(dir.path(), config, injector.handle()).expect("open");
        db.put(&key(0), &value(0)).expect("first put");
        // A silent bit flip in the next chunk record (a put appends an
        // index node, the block and the head-root record, so the next
        // append is the second put's index node): the write reports
        // success, and nothing on the hot path notices (the fresh chunk is
        // served from cache). Only a CRC walk over the sealed segment can
        // catch it, and a chunk that cannot be salvaged leaves the store
        // read-only for good — a damaged root record would only degrade it
        // until the next clean writes.
        let (appends, _) = injector.ops();
        injector.fail_append_at(
            appends,
            WriteOutcome::Corrupt {
                offset: 21,
                mask: 0x40,
            },
        );
        let damaged = db.route(&key(1));

        // Enough writes that the damaged record's segment seals and
        // rotates out of the active position (scrub only walks sealed
        // segments).
        for i in 1..60 * shards as u32 {
            db.put(&key(i), &value(i))
                .expect("the flip is silent: every write succeeds");
        }
        assert_eq!(db.health(), HealthState::Healthy);

        let shard = db.shard(damaged);
        let report = shard
            .scrub()
            .expect("scrub pass")
            .expect("durable instance");
        assert!(
            !report.quarantined_segments.is_empty(),
            "scrub must flag the corrupt segment: {report:?}"
        );
        assert_ne!(db.shard_health(damaged), HealthState::Healthy);

        let quarantine = dir
            .path()
            .join(format!("shard-{damaged:03}"))
            .join("quarantine");
        let quarantined = std::fs::read_dir(quarantine)
            .map(|entries| entries.count())
            .unwrap_or(0);
        assert!(
            quarantined > 0,
            "corrupt segment file must be preserved under quarantine/"
        );
        assert!(db.shard_health_reason(damaged).is_some());
    }
}

/// A cross-shard batch of `n` keys from `start` guaranteed to span at
/// least two shards.
fn cross_shard_batch(db: &ShardedDb, start: u32, n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    let writes: Vec<(Vec<u8>, Vec<u8>)> = (start..start + n)
        .map(|i| (format!("2pc/{i:05}").into_bytes(), value(i)))
        .collect();
    let shards: std::collections::HashSet<usize> =
        writes.iter().map(|(k, _)| db.route(k)).collect();
    assert!(shards.len() >= 2, "batch must span shards");
    writes
}

/// Small segments so churn actually creates garbage for compaction.
fn small_sharded_config() -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(2)
        .with_durable(DurableConfig {
            segment_target_bytes: 4 * 1024,
            ..DurableConfig::default()
        })
}

/// An in-doubt staged batch stays live through scrub and compaction
/// passes on every shard: the GC must treat staged chunks as reachable,
/// so the decision can still commit afterwards.
#[test]
fn in_doubt_batch_survives_scrub_and_compact_until_decision() {
    let dir = TempDir::new("faults-indoubt");
    let db = ShardedDb::open(dir.path(), small_sharded_config()).expect("open");
    for i in 0..40 {
        db.put(&key(i), &value(i)).unwrap();
    }

    let writes = cross_shard_batch(&db, 0, 8);
    let prepared = db.prepare_batch(writes.clone()).expect("phase 1");

    // Churn the shards to create garbage, then GC them while the batch is
    // still in doubt.
    for i in 0..40 {
        db.put(&key(i), &value(i + 1000)).unwrap();
    }
    for s in 0..db.shard_count() {
        db.shard(s).scrub().expect("scrub with staged batch");
        db.shard(s).compact().expect("compact with staged batch");
    }

    // The decision still lands: staged state survived both passes.
    db.commit_prepared(prepared).expect("phase 2 after GC");
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
    // Nothing left in doubt.
    assert_eq!(db.recover(), 0);
}

/// `recover()` racing concurrent scrubber/compactor passes after a
/// coordinator crash: the undecided batch is presumed aborted exactly
/// once, no committed data is disturbed, and the deployment keeps
/// serving verified reads and fresh batches.
#[test]
fn recover_races_scrub_and_compact_after_coordinator_crash() {
    let dir = TempDir::new("faults-recover-race");
    let config = small_sharded_config();
    let db = ShardedDb::open(dir.path(), config).expect("open");
    for i in 0..40 {
        db.put(&key(i), &value(i)).unwrap();
    }
    let committed_digest = db.digest();

    let writes = cross_shard_batch(&db, 100, 8);
    let prepared = db.prepare_batch(writes.clone()).expect("phase 1");
    // Coordinator crash between the phases: the handle is gone, the
    // staged parts are durable on the shards.
    drop(prepared);
    std::mem::forget(db);

    let db = ShardedDb::open(dir.path(), config).expect("reopen");
    // The eager pass at open leaves undecided entries for an explicit
    // recover(); the staged batch is still in doubt here.
    let gc: Vec<std::thread::JoinHandle<()>> = (0..db.shard_count())
        .map(|s| {
            let shard = Arc::clone(db.shard(s));
            std::thread::spawn(move || {
                for _ in 0..5 {
                    shard.scrub().expect("scrub during recovery");
                    shard.compact().expect("compact during recovery");
                }
            })
        })
        .collect();
    let resolved = db.recover();
    for handle in gc {
        handle.join().expect("gc thread");
    }
    assert!(resolved >= 1, "the staged batch must be resolved");

    // Presumed abort: none of the in-doubt writes became visible.
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    // Every committed write survived the race, with proofs.
    assert_eq!(db.digest(), committed_digest);
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));
    for i in 0..40 {
        let (got, proof) = db.get_verified(&key(i)).expect("verified read");
        assert_eq!(got.as_deref(), Some(value(i).as_ref()));
        assert!(client.verify_sharded_read(&key(i), got.as_deref(), &proof));
    }
    // And the deployment accepts the batch cleanly now.
    db.put_batch(writes.clone()).expect("fresh batch");
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }
}

/// One seeded case of "a failed append is invisible and a retry reproduces
/// the block", for one index kind: over a few hundred loaded keys, a
/// 32-write block (updates, fresh keys, one in-batch duplicate) is appended
/// with the store failing from its k-th write on, for every k until the
/// append gets through. Index nodes, the block chunk and the head pointer
/// all tick the failpoint, so both the index apply (which must publish
/// nothing) and the block persist (which rolls the index back) fail in
/// turn. After each failure the digest, the length and 20 sampled reads
/// are exactly as before; the append that succeeds seals the block a store
/// that never failed seals. Returns the number of failures injected.
fn failed_append_case(kind: SiriKind, seed: u64) -> u64 {
    let mut rng = SeededRng::new(seed);
    let failpoint = FailpointStore::new(InMemoryChunkStore::shared() as Arc<dyn ChunkStore>);
    let ledger = Ledger::with_kind(Arc::clone(&failpoint) as Arc<dyn ChunkStore>, kind);
    let reference = Ledger::with_kind(InMemoryChunkStore::shared(), kind);

    let loaded = rng.range(100, 400) as u32;
    for chunk in (0..loaded).collect::<Vec<_>>().chunks(64) {
        let load: Vec<_> = chunk.iter().map(|&i| (key(3 * i), value(i))).collect();
        ledger.try_append_block(load.clone(), "load").unwrap();
        reference.try_append_block(load, "load").unwrap();
    }
    let mut batch: Vec<_> = (0..31)
        .map(|j| {
            let i = rng.below(3 * loaded as u64 + 60) as u32;
            (key(i), format!("seed-{seed}-write-{j}").into_bytes())
        })
        .collect();
    batch.push((batch[0].0.clone(), b"last write wins".to_vec()));
    let sampled: Vec<Vec<u8>> = (0..20)
        .map(|j| match j % 4 {
            0 => batch[rng.below(32) as usize].0.clone(),
            _ => key(rng.below(3 * loaded as u64 + 60) as u32),
        })
        .collect();

    let expected = reference
        .try_append_block(batch.clone(), "PUT BATCH")
        .unwrap();
    let (digest, len) = (ledger.digest(), ledger.len());
    let reads: Vec<_> = sampled.iter().map(|k| ledger.get(k)).collect();
    for k in 0.. {
        failpoint.arm(k, FailMode::Error);
        let result = ledger.try_append_block(batch.clone(), "PUT BATCH");
        failpoint.disarm();
        match result {
            Err(error) => {
                let context = format!("{} seed {seed:#x} k={k}", kind.name());
                assert!(matches!(error, StorageError::Io(_)), "{context}: {error}");
                assert_eq!(ledger.digest(), digest, "{context}: digest moved");
                assert_eq!(ledger.len(), len, "{context}: len moved");
                let now: Vec<_> = sampled.iter().map(|k| ledger.get(k)).collect();
                assert_eq!(now, reads, "{context}: a failed write is readable");
            }
            Ok(retried) => {
                assert_eq!(retried, expected, "{} seed {seed:#x}", kind.name());
                assert!(k >= 3, "an append writes index nodes, a block and a root");
                break;
            }
        }
    }
    for k in &sampled {
        assert_eq!(ledger.get(k), reference.get(k));
    }
    assert_eq!(ledger.audit_chain(), None);
    let reopened = Ledger::open_with_kind(failpoint.clone() as Arc<dyn ChunkStore>, kind).unwrap();
    assert_eq!(reopened.digest(), expected);
    failpoint.injected_failures()
}

const SIRI_KINDS: [SiriKind; 3] = [
    SiriKind::PosTree,
    SiriKind::MerklePatriciaTrie,
    SiriKind::MerkleBucketTree,
];

#[test]
fn failed_append_rolls_back_and_retry_reproduces_the_block() {
    for kind in SIRI_KINDS {
        let injected: u64 = (0..2).map(|i| failed_append_case(kind, 0xFA11 + i)).sum();
        assert!(injected > 0, "{}: no failure was injected", kind.name());
    }
}

/// The same property over many more seeds; CI's soak step runs it with
/// `--ignored`.
#[test]
#[ignore = "failure-injection soak; run explicitly with --ignored"]
fn failed_append_soak() {
    for kind in SIRI_KINDS {
        for i in 0..40 {
            failed_append_case(kind, 0x50AC_FA11 + i);
        }
    }
}

/// `shards` failpoint stores over fresh in-memory stores, and a database
/// over them.
fn failpoint_db(shards: usize) -> (ShardedDb, Vec<Arc<FailpointStore>>) {
    let failpoints: Vec<Arc<FailpointStore>> = (0..shards)
        .map(|_| FailpointStore::new(InMemoryChunkStore::shared() as Arc<dyn ChunkStore>))
        .collect();
    (reopen_over(&failpoints), failpoints)
}

/// A database over the failpoint stores, recovering what they hold.
fn reopen_over(failpoints: &[Arc<FailpointStore>]) -> ShardedDb {
    let stores = failpoints
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn ChunkStore>)
        .collect();
    ShardedDb::with_stores(stores, SpitzConfig::default()).expect("open over the failpoint stores")
}

/// A typed insert whose ledger commit (or two-phase commit) fails leaves
/// no trace in the table layer: a new key stays absent from `get_record`
/// and every query, an updated key keeps serving its last committed
/// version, and once the stores recover the same inserts go through.
#[test]
fn failed_insert_record_is_not_indexed() {
    use spitz::{ColumnType, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let (db, failpoints) = failpoint_db(shards);
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();
        let item = |pk: &str, name: &str, stock: i64| {
            Record::new(pk)
                .with("name", Value::Text(name.into()))
                .with("stock", Value::Integer(stock))
        };
        let committed = item("kept", "widget", 10);
        db.insert_record("items", &committed).unwrap();
        let digest = db.digest();

        for failpoint in &failpoints {
            failpoint.arm(0, FailMode::Error);
        }
        db.insert_record("items", &item("fresh", "gadget", 20))
            .expect_err("a new key's commit fails");
        db.insert_record("items", &item("kept", "widget-v2", 30))
            .expect_err("an update's commit fails");
        for failpoint in &failpoints {
            failpoint.disarm();
        }
        let injected: u64 = failpoints.iter().map(|f| f.injected_failures()).sum();
        assert!(injected > 0);
        assert_eq!(db.digest(), digest, "a failed insert moved the digest");

        assert_eq!(db.get_record("items", "fresh").unwrap(), None);
        assert_eq!(db.get_record("items", "kept").unwrap(), Some(committed));
        for name in ["gadget", "widget-v2"] {
            let hits = db.query_eq("items", "name", &Value::Text(name.into()));
            assert!(hits.unwrap().is_empty(), "{name} was never committed");
        }
        assert!(db
            .query_int_range("items", "stock", 11, 100)
            .unwrap()
            .is_empty());
        assert_eq!(
            db.query_int_range("items", "stock", i64::MIN, i64::MAX)
                .unwrap(),
            vec!["kept".to_string()]
        );

        // The recovered stores take the same inserts.
        db.insert_record("items", &item("fresh", "gadget", 20))
            .unwrap();
        db.insert_record("items", &item("kept", "widget-v2", 30))
            .unwrap();
        assert_eq!(
            db.get_record("items", "kept").unwrap(),
            Some(item("kept", "widget-v2", 30))
        );
        assert_eq!(
            db.query_int_range("items", "stock", 11, 100).unwrap(),
            vec!["fresh".to_string(), "kept".to_string()]
        );
    }
}

/// A failed insert leaves no timestamp behind that outlives the process:
/// after a reopen, the next update of the same key is its newest version.
#[test]
fn failed_insert_then_reopen_keeps_the_next_update_newest() {
    use spitz::{ColumnType, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let item = |stock: i64| Record::new("kept").with("stock", Value::Integer(stock));
        let (db, failpoints) = failpoint_db(shards);
        db.create_table(Schema::new("items", vec![("stock", ColumnType::Integer)]))
            .unwrap();
        db.insert_record("items", &item(10)).unwrap();
        for failpoint in &failpoints {
            failpoint.arm(0, FailMode::Error);
        }
        db.insert_record("items", &item(20))
            .expect_err("the update's commit fails");
        for failpoint in &failpoints {
            failpoint.disarm();
        }
        drop(db);

        let db = reopen_over(&failpoints);
        assert_eq!(db.get_record("items", "kept").unwrap(), Some(item(10)));
        db.insert_record("items", &item(30)).unwrap();
        assert_eq!(db.get_record("items", "kept").unwrap(), Some(item(30)));
    }
}

/// An in-memory store whose `sync` fails while `fail_sync` is set: a
/// Strict commit then publishes its block and still reports an error.
#[derive(Default)]
struct SyncFailStore {
    inner: InMemoryChunkStore,
    fail_sync: AtomicBool,
}

impl ChunkStore for SyncFailStore {
    fn try_put(&self, chunk: Chunk) -> Result<Hash, StorageError> {
        self.inner.try_put(chunk)
    }
    fn get(&self, address: &Hash) -> Result<Arc<Chunk>, StorageError> {
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
        self.inner.try_set_root(name, hash)
    }
    fn root(&self, name: &str) -> Option<Hash> {
        self.inner.root(name)
    }
    fn sync(&self) -> Result<(), StorageError> {
        if self.fail_sync.load(Ordering::SeqCst) {
            return Err(StorageError::io_synthetic(
                IoErrorKind::Other,
                "fsync",
                "injected fsync failure",
            ));
        }
        self.inner.sync()
    }
}

/// A typed insert whose Strict commit fails only at the fsync has its
/// block published in the ledger (on every shard its two-phase commit
/// applies to), so the table layer indexes it too: `get_record` and the
/// queries agree with the ledger before and after a reopen.
#[test]
fn insert_record_whose_fsync_fails_is_indexed() {
    use spitz::{ColumnType, Record, Schema, Value};

    for shards in SHARD_COUNTS {
        let stores: Vec<Arc<SyncFailStore>> = (0..shards)
            .map(|_| Arc::new(SyncFailStore::default()))
            .collect();
        let open = || {
            ShardedDb::with_stores(
                stores
                    .iter()
                    .map(|s| Arc::clone(s) as Arc<dyn ChunkStore>)
                    .collect(),
                SpitzConfig::default().with_durability(DurabilityPolicy::Strict),
            )
            .expect("open over the sync-failing stores")
        };
        let fail_sync = |fail: bool| {
            for store in &stores {
                store.fail_sync.store(fail, Ordering::SeqCst);
            }
        };
        let item = |pk: &str, name: &str, stock: i64| {
            Record::new(pk)
                .with("name", Value::Text(name.into()))
                .with("stock", Value::Integer(stock))
        };
        let check = |db: &ShardedDb, context: &str| {
            for pk in ["fresh", "kept"] {
                let expected = item(pk, &format!("{pk}-v2"), 30);
                assert_eq!(
                    db.get_record("items", pk).unwrap(),
                    Some(expected),
                    "{context}, {shards} shards"
                );
            }
            assert_eq!(
                db.query_eq("items", "name", &Value::Text("fresh-v2".into()))
                    .unwrap(),
                vec!["fresh".to_string()],
                "{context}, {shards} shards"
            );
            assert_eq!(
                db.query_int_range("items", "stock", 11, 100).unwrap(),
                vec!["fresh".to_string(), "kept".to_string()],
                "{context}, {shards} shards"
            );
        };

        let db = open();
        db.create_table(Schema::new(
            "items",
            vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
        ))
        .unwrap();
        db.insert_record("items", &item("kept", "kept-v1", 10))
            .unwrap();

        fail_sync(true);
        db.insert_record("items", &item("fresh", "fresh-v2", 30))
            .expect_err("a new key's fsync fails");
        db.insert_record("items", &item("kept", "kept-v2", 30))
            .expect_err("an update's fsync fails");
        fail_sync(false);
        check(&db, "live");

        drop(db);
        check(&open(), "reopened");
    }
}

/// Run schedule `i` of a seeded chaos sweep: the four families of
/// `tests/chaos` take turns, and the seed is printed *before* the run so a
/// panicking schedule leaves it on the last line of output. Returns the
/// number of faults the schedule injected.
fn run_chaos_schedule(i: u64, seed: u64) -> u64 {
    type Family = (&'static str, fn(u64) -> chaos::ScheduleReport);
    const FAMILIES: [Family; 4] = [
        ("kv", chaos::run_kv_schedule),
        ("scrub", chaos::run_scrub_schedule),
        ("2pc", chaos::run_2pc_schedule),
        ("serve", chaos::run_server_schedule),
    ];
    let (name, run) = FAMILIES[(i % 4) as usize];
    println!("schedule {i:>3}: family={name:<5} seed={seed:#x}");
    let report = run(seed);
    println!(
        "              ops={} faults={} acked={} health={:?}",
        report.ops, report.faults_injected, report.acknowledged, report.final_health
    );
    report.faults_injected
}

/// Tier-1 chaos: nine fixed-seed schedules over all four families
/// (full-stack KV faults, silent corruption + scrub, cross-shard 2PC
/// failures, served-stack client storms). Every invariant is asserted
/// inside the schedules.
#[test]
fn chaos_smoke() {
    let injected: u64 = (0..9).map(|i| run_chaos_schedule(i, 0xC0FFEE + i)).sum();
    assert!(injected > 0, "the smoke must actually inject faults");
}

/// Long seeded chaos soak over all four schedule families. Excluded from
/// the default test run; CI's soak step runs it with `--ignored`.
#[test]
#[ignore = "long chaos soak; run explicitly with --ignored"]
fn chaos_soak() {
    let injected: u64 = (0..240)
        .map(|i| run_chaos_schedule(i, 0x50AC_0000 + i))
        .sum();
    assert!(injected > 0, "the soak must actually inject faults");
}
