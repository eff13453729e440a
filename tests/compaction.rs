//! Full-stack segment-compaction tests: mark-sweep GC over a live
//! `ShardedDb` (one shard and four) must reclaim garbage without changing
//! any digest, breaking any proof (including proofs against snapshots
//! pinned *before* the pass), or losing in-doubt 2PC state — and a crash at
//! either compaction crash point must reopen to byte-identical state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use spitz::core::sharded::{ShardedConfig, ShardedDb, ShardedDigest};
use spitz::core::staged::StagedLog;
use spitz::index::SiriKind;
use spitz::storage::durable::CompactionFault;
use spitz::storage::DurableConfig;
use spitz::{Hash, SpitzConfig, Verifier};

mod common;
use common::{TempDir, SHARD_COUNTS};

/// Small segments so a handful of epochs spans many sealed segments.
fn small_segments() -> DurableConfig {
    DurableConfig {
        segment_target_bytes: 32 * 1024,
        ..DurableConfig::default()
    }
}

/// `shards` durable shards of `siri` over segments scaled down by the
/// shard count, so each shard's share of the data spans as many sealed
/// segments as one shard holding it all.
fn config(shards: usize, siri: SiriKind) -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(shards)
        .with_spitz(SpitzConfig {
            siri,
            ..SpitzConfig::default()
        })
        .with_durable(DurableConfig {
            segment_target_bytes: small_segments().segment_target_bytes / shards as u64,
            ..DurableConfig::default()
        })
}

fn key(i: u32) -> Vec<u8> {
    format!("acct/{i:05}").into_bytes()
}

/// One commit epoch: overwrite all `n` keys (previous versions become
/// garbage — superseded index nodes).
fn epoch(db: &ShardedDb, e: u32, n: u32) {
    let writes: Vec<_> = (0..n)
        .map(|i| (key(i), format!("epoch-{e}-value-{i}").into_bytes()))
        .collect();
    db.put_batch(writes).unwrap();
}

/// Disk and live bytes summed over every shard's store.
fn disk_and_live_bytes(db: &ShardedDb) -> (u64, u64) {
    (0..db.shard_count())
        .map(|s| db.shard(s).storage_stats())
        .fold((0, 0), |(disk, live), stats| {
            (disk + stats.disk_bytes, live + stats.live_bytes)
        })
}

/// True when every shard's hash chain audits clean.
fn chains_audit_clean(db: &ShardedDb) -> bool {
    (0..db.shard_count()).all(|s| db.shard(s).ledger().audit_chain().is_none())
}

/// Every supported index kind. MPT nodes are their own chunk kind,
/// addressed by their sparse-branch commitment rather than the plain
/// tagged hash, so the sweep must keep them reachable and addressable too.
const SIRI_KINDS: [SiriKind; 3] = [
    SiriKind::PosTree,
    SiriKind::MerklePatriciaTrie,
    SiriKind::MerkleBucketTree,
];

#[test]
fn compaction_reclaims_garbage_and_preserves_digests_and_pinned_proofs() {
    for shards in SHARD_COUNTS {
        for siri in SIRI_KINDS {
            compaction_case(shards, siri);
        }
    }
}

fn compaction_case(shards: usize, siri: SiriKind) {
    let kind = format!("{}, {shards} shards", siri.name());
    let config = config(shards, siri);
    let dir = TempDir::new("compact-basic");
    let db = ShardedDb::open(dir.path(), config).unwrap();

    for e in 0..6 {
        epoch(&db, e, 50);
    }
    // Pin a snapshot at an *old* root, then keep writing past it: the
    // pinned checkout must survive the sweep even though the live head has
    // long moved on.
    let pinned = db.snapshot().unwrap();
    let pinned_digest = pinned.digest().clone();
    for e in 6..12 {
        epoch(&db, e, 50);
    }
    let pre = db.flush().unwrap();

    let (disk_before, _) = disk_and_live_bytes(&db);
    // Compact with a reader racing the pass: the sweep never blocks
    // readers, and every read it serves meanwhile verifies.
    let done = AtomicBool::new(false);
    let reading = Barrier::new(2);
    let reports = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut client = Verifier::new();
            assert!(client.observe_sharded(&pre));
            reading.wait();
            let mut reads = 0u32;
            while reads == 0 || !done.load(Ordering::Relaxed) {
                let k = key(reads % 50);
                let (value, proof) = db.get_verified(&k).expect("read during compaction");
                assert!(
                    client.verify_sharded_read(&k, value.as_deref(), &proof),
                    "{kind}: verified read failed during compaction"
                );
                reads += 1;
            }
        });
        reading.wait();
        let reports = db.compact();
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");
        reports
    });
    for (s, report) in reports.unwrap().into_iter().enumerate() {
        let report =
            report.unwrap_or_else(|| panic!("{kind}: shard {s} has sealed segments to compact"));
        assert!(
            report.chunks_dropped > 0,
            "{kind}: overwrites must leave garbage"
        );
        assert!(report.bytes_reclaimed > 0, "{kind}");
        assert!(!report.victim_segments.is_empty(), "{kind}");
    }

    let (disk_after, live_after) = disk_and_live_bytes(&db);
    assert!(
        disk_after < disk_before,
        "{kind}: disk must shrink: {disk_before} -> {disk_after}"
    );
    assert!(live_after > 0, "{kind}: the mark pass measures live bytes");
    for s in 0..shards {
        let stats = db.shard(s).storage_stats();
        assert!(stats.dead_bytes() < stats.disk_bytes, "{kind}");
    }

    // The digest is untouched — compaction moves chunks, never alters them.
    assert_eq!(db.digest(), pre, "{kind}");

    // Live verified reads still verify against the current digest.
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));
    for i in (0..50).step_by(7) {
        let (value, proof) = db.get_verified(&key(i)).unwrap();
        assert_eq!(
            value,
            Some(format!("epoch-11-value-{i}").into_bytes()),
            "{kind}"
        );
        assert!(
            client.verify_sharded_read(&key(i), value.as_deref(), &proof),
            "{kind}: key {i}"
        );
    }

    // The pre-compaction pin still serves repeatable verified reads.
    let mut pinned_client = Verifier::new();
    assert!(pinned_client.observe_sharded(&pinned_digest));
    for i in (0..50).step_by(11) {
        let (value, proof) = pinned.get_verified(&key(i));
        assert_eq!(
            value,
            Some(format!("epoch-5-value-{i}").into_bytes()),
            "{kind}"
        );
        assert!(
            pinned_client.verify_sharded_read(&key(i), value.as_deref(), &proof),
            "{kind}: pinned key {i}"
        );
    }
    drop(pinned);

    // Reopen: byte-identical digest, proofs keep verifying.
    drop(db);
    let db = ShardedDb::open(dir.path(), config).unwrap();
    assert_eq!(db.digest(), pre, "{kind}");
    let (value, proof) = db.get_verified(&key(3)).unwrap();
    assert!(
        client.verify_sharded_read(&key(3), value.as_deref(), &proof),
        "{kind}"
    );
    assert!(chains_audit_clean(&db), "{kind}");
}

#[test]
fn compaction_crash_points_reopen_to_identical_digests() {
    for shards in SHARD_COUNTS {
        for fault in [CompactionFault::BeforeSwap, CompactionFault::BeforeDelete] {
            let case = format!("{fault:?}, {shards} shards");
            let config = config(shards, SiriKind::PosTree);
            let dir = TempDir::new("compact-crash");
            let pre;
            let pinned_digest;
            {
                let db = ShardedDb::open(dir.path(), config).unwrap();
                for e in 0..10 {
                    epoch(&db, e, 40);
                }
                pre = db.flush().unwrap();
                let snapshot = db.snapshot().unwrap();
                pinned_digest = snapshot.digest().clone();

                // Every shard's pass dies at the crash point.
                for s in 0..shards {
                    let shard = db.shard(s);
                    let durable = Arc::clone(shard.durable_store().expect("durable instance"));
                    let err = durable
                        .compact_with_fault(|| shard.collect_live(), fault)
                        .unwrap_err();
                    assert!(err.to_string().contains("injected"), "{case}: {err}");
                }
                // The process dies mid-compaction: no graceful drop, no flush.
                drop(snapshot);
                std::mem::forget(db);
            }

            let db = ShardedDb::open(dir.path(), config).unwrap();
            assert_eq!(db.digest(), pre, "{case}: reopen must be identical");
            assert_eq!(db.digest(), pinned_digest, "{case}");
            let mut client = Verifier::new();
            assert!(client.observe_sharded(&db.digest()));
            for i in 0..40 {
                let (value, proof) = db.get_verified(&key(i)).unwrap();
                assert_eq!(
                    value,
                    Some(format!("epoch-9-value-{i}").into_bytes()),
                    "{case}: key {i}"
                );
                assert!(client.verify_sharded_read(&key(i), value.as_deref(), &proof));
            }
            assert!(chains_audit_clean(&db), "{case}");

            // The interrupted pass left nothing wedged: writes and a clean
            // compaction still work.
            epoch(&db, 10, 40);
            db.flush().unwrap();
            db.compact().unwrap();
            assert_eq!(
                db.get(&key(0)).unwrap(),
                Some(b"epoch-10-value-0".to_vec()),
                "{case}"
            );
        }
    }
}

#[test]
fn sharded_compaction_keeps_staged_batches_and_the_cross_shard_digest() {
    let dir = TempDir::new("compact-sharded");
    let config = ShardedConfig::default()
        .with_shards(3)
        .with_durable(small_segments());
    let writes: Vec<(Vec<u8>, Vec<u8>)> = (1000..1024u32)
        .map(|i| (key(i), format!("staged-{i}").into_bytes()))
        .collect();

    let pre;
    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        // Single puts: each rewrites one index path, so eight epochs leave
        // every shard sealed segments of superseded nodes to compact (a
        // batch per epoch writes one path set and would not fill one).
        for e in 0..8 {
            for i in 0..45 {
                let value = format!("epoch-{e}-value-{i}");
                db.put(&key(i), value.as_bytes()).unwrap();
            }
        }
        // An in-doubt cross-shard batch with a durable commit decision:
        // its staged chunks are garbage to everything except the 2PC logs,
        // so the sweep must keep them alive.
        let prepared = db.prepare_batch(writes.clone()).unwrap();
        assert!(prepared.involved_shards().len() > 1);
        StagedLog::decisions(Arc::clone(db.shard(0).store()))
            .add(prepared.global_txn_id(), Hash::ZERO)
            .unwrap();
        db.flush().unwrap();

        pre = db.digest();
        let reports = db.compact().unwrap();
        assert!(
            reports.iter().any(|r| r.is_some()),
            "at least one shard must have sealed segments to compact"
        );
        assert_eq!(db.digest(), pre, "compaction must not move any shard");
        db.flush().unwrap();
        // Process dies with the decision durable but nothing applied.
        drop(prepared);
    }

    // Reopen: the decided batch is redone from its staged chunks — which
    // therefore must have survived the compaction pass above.
    let db = ShardedDb::open(dir.path(), config).unwrap();
    for (k, v) in &writes {
        assert_eq!(
            db.get(k).unwrap(),
            Some(v.clone()),
            "staged chunk must survive compaction for the redo"
        );
    }
    assert_eq!(db.recover(), 0);
    for s in 0..3 {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }
}

/// Long soak (run with `--ignored`): ≥50 commit epochs of overwrites while
/// one thread compacts in a loop and another serves verified reads. Disk must
/// stay within 2× of live bytes (plus bounded active-segment slack), every
/// verified read and pinned-snapshot proof must succeed throughout, and the
/// final digest must survive a reopen byte-identically.
#[test]
#[ignore = "long soak; exercised by the dedicated CI step"]
fn soak_disk_stays_within_twice_live_bytes_under_concurrent_readers() {
    const EPOCHS: u32 = 60;
    const KEYS: u32 = 64;
    let segment_target = 32 * 1024u64;
    let dir = TempDir::new("compact-soak");
    let config = ShardedConfig::default()
        .with_shards(1)
        .with_durable(DurableConfig {
            segment_target_bytes: segment_target,
            ..DurableConfig::default()
        });
    let db = Arc::new(ShardedDb::open(dir.path(), config).unwrap());
    epoch(&db, 0, KEYS);

    // Concurrent reader: pin a snapshot, serve verified reads from it, and
    // verify live reads — in a loop, racing epochs and compaction passes.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snapshot = db.snapshot().expect("snapshot");
                let mut pinned = Verifier::new();
                assert!(pinned.observe_sharded(snapshot.digest()));
                for i in (0..KEYS).step_by(9) {
                    let (value, proof) = snapshot.get_verified(&key(i));
                    assert!(
                        pinned.verify_sharded_read(&key(i), value.as_deref(), &proof),
                        "pinned proof failed mid-compaction"
                    );
                    assert!(value.is_some(), "seeded key vanished");
                }
                // Pin the cut the proof was served at: writers keep
                // committing, so a separately read `digest()` may be older.
                let (value, proof) = db.get_verified(&key(1)).expect("read");
                let mut live = Verifier::new();
                assert!(live.observe_sharded(&ShardedDigest::over(vec![proof.ledger_proof.digest])));
                assert!(
                    live.verify_sharded_read(&key(1), value.as_deref(), &proof),
                    "live verified read failed mid-compaction"
                );
                rounds += 1;
            }
            rounds
        })
    };

    // Compactor: one pass after another, racing the writer and the reader.
    let compactor = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.compact().expect("compaction pass");
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // Single puts, so every write leaves a superseded index path behind
    // and the compactor has garbage to collect all the way through (a
    // batch per epoch writes one path set and would barely fill a segment).
    for e in 1..EPOCHS {
        for i in 0..KEYS {
            let value = format!("epoch-{e}-value-{i}");
            db.put(&key(i), value.as_bytes()).unwrap();
        }
    }
    stop.store(true, Ordering::Relaxed);
    let rounds = reader.join().expect("reader thread must not panic");
    assert!(rounds > 0, "the reader must have raced the writers");
    compactor.join().expect("compactor thread must not panic");

    db.flush().unwrap();
    let passes = db.telemetry().counter("storage.compactions").unwrap();
    assert!(
        passes >= 10,
        "the compactor must keep completing passes during the soak, completed {passes}"
    );
    db.compact().unwrap();
    let stats = db.shard(0).storage_stats();
    assert!(stats.live_bytes > 0);
    // The acceptance bound: disk within 2× of live, modulo the segments
    // compaction cannot touch (the active one) or fills only partly (the
    // last one a pass wrote).
    let bound = 2 * stats.live_bytes + 2 * segment_target;
    assert!(
        stats.disk_bytes <= bound,
        "space leak: disk {} > bound {} (live {})",
        stats.disk_bytes,
        bound,
        stats.live_bytes
    );

    let pre = db.digest();
    for i in 0..KEYS {
        assert_eq!(
            db.get(&key(i)).unwrap(),
            Some(format!("epoch-{}-value-{i}", EPOCHS - 1).into_bytes())
        );
    }
    drop(db);
    let db = ShardedDb::open(dir.path(), config).unwrap();
    assert_eq!(db.digest(), pre, "reopen after the soak must be identical");
    assert!(chains_audit_clean(&db));
}
