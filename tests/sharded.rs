//! Integration tests for the multi-shard `ShardedDb`: routing determinism,
//! cross-shard batch atomicity, cross-shard digest behaviour, durable
//! reopen identity, and a concurrency soak (short in CI, long behind
//! `#[ignore]`).

use std::collections::HashMap;
use std::sync::Mutex;

use spitz::core::sharded::shard_for;
use spitz::core::SpitzConfig;
use spitz::index::SiriKind;
use spitz::ledger::DurabilityPolicy;
use spitz::{ShardedConfig, ShardedDb};

mod common;
use common::TempDir;

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key-{i:05}").into_bytes(),
        format!("value-{i}").into_bytes(),
    )
}

/// A durable configuration of `shards` shards under the default `Grouped`
/// policy, whose timer fsyncs hold the seal role on their own.
fn grouped(shards: usize) -> ShardedConfig {
    ShardedConfig::default()
        .with_shards(shards)
        .with_spitz(SpitzConfig::default().with_durability(DurabilityPolicy::grouped_default()))
}

/// A batch of `n` keys guaranteed to span at least two shards.
fn cross_shard_batch(db: &ShardedDb, start: u32, n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
    let writes: Vec<_> = (start..start + n).map(kv).collect();
    let first = db.route(&writes[0].0);
    assert!(
        writes.iter().any(|(k, _)| db.route(k) != first),
        "test batch must span shards; widen the key range"
    );
    writes
}

#[test]
fn routing_is_deterministic_and_client_recomputable() {
    let db = ShardedDb::in_memory(4);
    for i in 0..500u32 {
        let (k, _) = kv(i);
        let shard = db.route(&k);
        // Stable across calls, in range, equal to the standalone function a
        // verifying client uses and to the 2PC coordinator's routing.
        assert_eq!(db.route(&k), shard);
        assert!(shard < 4);
        assert_eq!(shard_for(&k, 4), shard);
        assert_eq!(db.coordinator().route(&k), shard);
    }
    // A different shard count is a different (but still deterministic) map.
    let db8 = ShardedDb::in_memory(8);
    for i in 0..100u32 {
        let (k, _) = kv(i);
        assert_eq!(db8.route(&k), shard_for(&k, 8));
    }
}

#[test]
fn cross_shard_batch_is_all_or_nothing() {
    let db = ShardedDb::in_memory(4);
    let writes = cross_shard_batch(&db, 0, 40);

    // Commit path: everything visible, on its own shard.
    db.put_batch(writes.clone()).unwrap();
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
        assert_eq!(db.shard(db.route(k)).ledger().get(k), Some(v.clone()));
    }

    // Abort path: a prepared-then-aborted batch leaves nothing anywhere.
    let digest_before = db.digest();
    let aborted: Vec<_> = (1000..1040).map(kv).collect();
    let prepared = db.prepare_batch(aborted.clone()).unwrap();
    assert!(prepared.involved_shards().len() > 1);
    db.abort_prepared(prepared);
    for (k, _) in &aborted {
        assert_eq!(db.get(k).unwrap(), None);
    }
    assert_eq!(db.digest(), digest_before, "abort must not move any shard");

    // And the same keys commit cleanly afterwards (no leaked locks).
    db.put_batch(aborted.clone()).unwrap();
    for (k, v) in &aborted {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
    }
}

#[test]
fn conflicting_cross_shard_batches_abort_entirely_and_retry() {
    let db = ShardedDb::in_memory(2);
    let writes = cross_shard_batch(&db, 0, 8);

    // Hold a prepared batch on some keys; an overlapping batch must fail
    // as a whole — none of its non-conflicting keys leak through either.
    let blocker = db.prepare_batch(writes.clone()).unwrap();
    let mut overlapping = cross_shard_batch(&db, 100, 8);
    overlapping.push(writes[0].clone());
    assert!(db.put_batch(overlapping.clone()).is_err());
    for (k, _) in &overlapping {
        assert_eq!(db.get(k).unwrap(), None);
    }

    // Finish the blocker, then the loser's retry succeeds.
    db.commit_prepared(blocker).unwrap();
    db.put_batch(overlapping.clone()).unwrap();
    for (k, v) in &overlapping {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
    }
}

#[test]
fn digest_changes_iff_some_shard_changes() {
    let db = ShardedDb::in_memory(4);
    db.put_batch((0..40).map(kv).collect()).unwrap();
    let base = db.digest();
    assert!(base.verify());

    // Read-only traffic does not move the digest.
    for i in 0..40 {
        let (k, _) = kv(i);
        db.get(&k).unwrap();
        db.get_verified(&k).unwrap();
    }
    db.range_unverified(b"key-00000", b"key-00040").unwrap();
    db.range_verified(b"key-00000", b"key-00040").unwrap();
    db.snapshot().unwrap();
    assert_eq!(db.digest(), base);

    // An aborted cross-shard batch does not move it either.
    let prepared = db.prepare_batch(cross_shard_batch(&db, 500, 10)).unwrap();
    db.abort_prepared(prepared);
    assert_eq!(db.digest(), base);

    // A write to any single shard changes exactly that leaf and the root.
    let mut seen_roots = vec![base.root];
    for shard in 0..4 {
        // Find a key owned by `shard`.
        let key = (0..)
            .map(|i| format!("probe-{shard}-{i}").into_bytes())
            .find(|k| db.route(k) == shard)
            .unwrap();
        let before = db.digest();
        db.put(&key, b"x").unwrap();
        let after = db.digest();
        assert_ne!(after.root, before.root, "shard {shard} write must show");
        assert_ne!(after.shards[shard], before.shards[shard]);
        for other in 0..4 {
            if other != shard {
                assert_eq!(after.shards[other], before.shards[other]);
            }
        }
        assert!(
            !seen_roots.contains(&after.root),
            "every change must produce a fresh root"
        );
        seen_roots.push(after.root);
    }
}

#[test]
fn durable_sharded_db_reopens_to_the_identical_digest() {
    let dir = TempDir::new("sharded-reopen");
    let config = grouped(3);

    let digest = {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        for i in 0..30 {
            let (k, v) = kv(i);
            db.put(&k, &v).unwrap();
        }
        db.put_batch(cross_shard_batch(&db, 100, 30)).unwrap();
        db.flush().unwrap()
    };

    // Reopen: per-shard digests and the combined root are reproduced, and
    // proofs still verify against the old pin.
    let db = ShardedDb::open(dir.path(), config).unwrap();
    let reopened = db.digest();
    assert_eq!(reopened, digest);
    assert_eq!(reopened.shards, digest.shards);
    assert!(db.verify(&digest));

    let (k, v) = kv(107);
    let (value, proof) = db.get_verified(&k).unwrap();
    assert_eq!(value, Some(v));
    assert_eq!(proof.root, digest.root);
    assert!(proof.verify(&k, value.as_deref()));

    // The reopened database keeps writing on the same chains.
    db.put_batch(cross_shard_batch(&db, 200, 20)).unwrap();
    assert!(db.digest().epoch > digest.epoch);

    // Reopening with the wrong shard count is rejected up front.
    drop(db);
    assert!(ShardedDb::open(dir.path(), config.with_shards(4)).is_err());
}

/// The soak body: `writers` threads issue `ops` mixed single-key and
/// multi-key (cross-shard, given more than one shard) batches each,
/// retrying on conflicts.
/// Asserts termination (no deadlock), a serializable outcome per key (the
/// final value of every key is the value of its last committed write),
/// digest/head consistency after a full-stop flush, and that every block was
/// sealed by its shard's commit pipeline.
fn soak(db: &ShardedDb, writers: u32, ops: u32) {
    // Every committed write (key -> value) in commit order per key. A
    // global mutex around the log would serialize the writers we are trying
    // to race, so writers log locally and the log is merged via the
    // database's own reads afterwards.
    let committed: Mutex<Vec<(Vec<u8>, Vec<u8>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for w in 0..writers {
            let committed = &committed;
            let db = &db;
            scope.spawn(move || {
                for op in 0..ops {
                    // Writers deliberately collide on a shared key range.
                    let base = (w + op) % 50;
                    let value = format!("w{w}-op{op}").into_bytes();
                    let writes: Vec<(Vec<u8>, Vec<u8>)> = if op % 3 == 0 {
                        // Cross-shard batch of 4 consecutive keys.
                        (base..base + 4)
                            .map(|i| (format!("soak-{i:03}").into_bytes(), value.clone()))
                            .collect()
                    } else {
                        vec![(format!("soak-{base:03}").into_bytes(), value.clone())]
                    };
                    // Bounded retry with backoff: no-wait 2PL aborts losers
                    // instead of blocking (so deadlock is impossible), but
                    // on few cores a tight retry loop can starve the lock
                    // holder of CPU — yield, then sleep as pressure grows.
                    let mut attempts = 0u32;
                    loop {
                        match db.put_batch(writes.clone()) {
                            Ok(_) => break,
                            Err(_) if attempts < 10_000 => {
                                attempts += 1;
                                if attempts.is_multiple_of(20) {
                                    std::thread::sleep(std::time::Duration::from_millis(1));
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                            Err(e) => panic!("writer {w} starved after 10k retries: {e}"),
                        }
                    }
                    committed.lock().unwrap().extend(writes);
                }
            });
        }
    });

    // Serializable outcome per key: every key holds a value some committed
    // batch wrote to it (ledger blocks are atomic, so interleaving can
    // never manufacture a value no one committed).
    let committed = committed.into_inner().unwrap();
    let mut per_key: HashMap<Vec<u8>, Vec<Vec<u8>>> = HashMap::new();
    for (k, v) in committed {
        per_key.entry(k).or_default().push(v);
    }
    assert!(!per_key.is_empty());
    // Every record landed on exactly one shard.
    let landed: usize = (0..db.shard_count())
        .map(|s| db.shard(s).ledger().len())
        .sum();
    assert_eq!(landed, per_key.len());
    for (key, values) in &per_key {
        let stored = db.get(key).unwrap().expect("committed key must exist");
        assert!(
            values.contains(&stored),
            "key {:?} holds {:?}, which no committed batch wrote",
            String::from_utf8_lossy(key),
            String::from_utf8_lossy(&stored)
        );
        // And the stored value is the ledger's last record for that key on
        // its shard — reads are serialized with commits.
        let (verified, proof) = db.get_verified(key).unwrap();
        assert_eq!(verified.as_ref(), Some(&stored));
        assert!(proof.verify(key, verified.as_deref()));
    }

    // Flush barrier: afterwards every shard's chain audits clean, and every
    // block in it was sealed by the shard's commit pipeline.
    let digest = db.flush().unwrap();
    assert!(digest.verify());
    for s in 0..db.shard_count() {
        let shard = db.shard(s);
        assert_eq!(shard.ledger().audit_chain(), None);
        let sealed = shard.pipeline().unwrap().stats().flushes;
        assert_eq!(sealed, shard.ledger().height(), "shard {s}");
    }
    assert_eq!(db.recover(), 0, "no transaction may be left in doubt");
}

/// A pin at the head copies each index instance's root and entry count:
/// neither a shard ledger's snapshot nor a sharded cut reads a chunk, for
/// every index kind. Writes after the pin leave what it reads untouched
/// (the MBT's cached levels are copied on the first write).
#[test]
fn a_head_pin_reads_nothing_from_the_store() {
    for siri in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        let spitz = SpitzConfig {
            siri,
            ..SpitzConfig::default()
        };
        let db = ShardedDb::with_config(ShardedConfig::default().with_shards(2).with_spitz(spitz));
        db.put_batch((0..64).map(kv).collect()).unwrap();
        let reads = || -> u64 { (0..2).map(|i| db.shard(i).store().stats().reads).sum() };

        let before = reads();
        let ledger = db.shard(0).ledger().snapshot().unwrap();
        let cut = db.snapshot().unwrap();
        assert_eq!(reads(), before, "{}", siri.name());
        assert_eq!(ledger.len(), db.shard(0).ledger().len(), "{}", siri.name());
        assert_eq!(ledger.digest(), cut.digest().shards[0], "{}", siri.name());

        db.put_batch((0..80).map(|i| (kv(i).0, b"moved".to_vec())).collect())
            .unwrap();
        for i in [0, 17, 63, 70] {
            let (key, value) = kv(i);
            let expected = (i < 64).then_some(value);
            let (read, proof) = cut.get_verified(&key);
            assert_eq!(read, expected, "{} key {i}", siri.name());
            assert!(
                proof.verify(&key, read.as_deref()),
                "{} key {i}",
                siri.name()
            );
        }
    }
}

/// Every verified read of a pinned snapshot records its
/// `proof.sharded_*` meter, one sample per read.
#[test]
fn snapshot_reads_record_the_sharded_proof_meters() {
    let db = ShardedDb::in_memory(4);
    db.put_batch((0..100).map(kv).collect()).unwrap();
    let snapshot = db.snapshot().unwrap();
    let counts = || {
        let telemetry = db.telemetry();
        ["point", "multi", "range"].map(|kind| {
            telemetry
                .histogram(&format!("proof.sharded_{kind}_bytes"))
                .map_or(0, |h| h.count)
        })
    };

    let before = counts();
    snapshot.get_verified(&kv(3).0);
    assert_eq!(counts(), [before[0] + 1, before[1], before[2]]);
    snapshot.get_multi_verified(&[kv(4).0, kv(5).0]);
    assert_eq!(counts(), [before[0] + 1, before[1] + 1, before[2]]);
    snapshot.range_verified(&kv(10).0, &kv(20).0).unwrap();
    assert_eq!(counts(), [before[0] + 1, before[1] + 1, before[2] + 1]);
}

/// The consistent-cut acceptance test, in memory and on a durable
/// `Grouped` store (where a timer fsync or a flush may hold a shard's seal
/// role while a cut is taken): see [`consistent_cut`].
#[test]
fn digest_is_a_consistent_cut_under_concurrent_writers() {
    consistent_cut(&ShardedDb::in_memory(4));
    let dir = TempDir::new("sharded-cut");
    consistent_cut(&ShardedDb::open(dir.path(), grouped(4)).unwrap());
}

/// A writer continuously commits cross-shard 2PC batches that write the
/// *same* sequence number to two keys on *different* shards. Any digest,
/// snapshot or one-shot verified read taken concurrently must reflect each
/// batch entirely or not at all — a torn cut would show the two marks
/// disagreeing — and a snapshot must never predate a batch whose
/// `put_batch` returned before it was taken.
fn consistent_cut(db: &ShardedDb) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let seq = |v: &Option<Vec<u8>>| u64::from_be_bytes(v.as_deref().unwrap().try_into().unwrap());
    // Two marker keys guaranteed to live on different shards.
    let mark_a = b"cut-mark-a".to_vec();
    let mark_b = (0..)
        .map(|i| format!("cut-mark-b{i}").into_bytes())
        .find(|k| db.route(k) != db.route(&mark_a))
        .unwrap();
    db.put_batch(vec![
        (mark_a.clone(), 0u64.to_be_bytes().to_vec()),
        (mark_b.clone(), 0u64.to_be_bytes().to_vec()),
    ])
    .unwrap();

    let stop = AtomicBool::new(false);
    // The sequence number of the last batch whose `put_batch` returned: 0
    // until the writer has a batch through. The checker's cuts take a few
    // milliseconds in a release build and must not all predate it.
    let returned_seq = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Writer: atomic cross-shard batches bumping both marks together,
        // plus unrelated single-key noise on every shard.
        let writer = {
            let (mark_a, mark_b) = (mark_a.clone(), mark_b.clone());
            let (stop, returned_seq) = (&stop, &returned_seq);
            scope.spawn(move || {
                let mut seq = 1u64;
                let mut published = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let digest = db
                        .put_batch(vec![
                            (mark_a.clone(), seq.to_be_bytes().to_vec()),
                            (mark_b.clone(), seq.to_be_bytes().to_vec()),
                        ])
                        .unwrap();
                    published.push(digest);
                    returned_seq.store(seq, Ordering::SeqCst);
                    db.put(format!("noise-{seq}").as_bytes(), b"x").unwrap();
                    seq += 1;
                }
                published
            })
        };

        // Hammers: one-shot verified reads, each proving from its own
        // fenced cut while the batches commit. Every proof must verify
        // against its own cut; two reads that land in the same cut must
        // agree; and since cuts only move forward, the mark read second
        // can never be behind the mark read first.
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                let stop = &stop;
                let (mark_a, mark_b) = (mark_a.clone(), mark_b.clone());
                scope.spawn(move || {
                    let mut reads = 0u32;
                    while !stop.load(Ordering::Relaxed) || reads < 20 {
                        let (va, pa) = db.get_verified(&mark_a).unwrap();
                        let (vb, pb) = db.get_verified(&mark_b).unwrap();
                        assert!(pa.verify(&mark_a, va.as_deref()));
                        assert!(pb.verify(&mark_b, vb.as_deref()));
                        assert!(seq(&vb) >= seq(&va), "a later cut went backwards");
                        if pa.root == pb.root {
                            assert_eq!(va, vb, "one-shot reads of one cut are torn");
                        }
                        let both = [mark_a.clone(), mark_b.clone()];
                        let (values, proof) = db.get_multi_verified(&both).unwrap();
                        assert_eq!(values[0], values[1], "batched cut is torn");
                        let items: Vec<_> = both.iter().cloned().zip(values).collect();
                        assert!(proof.verify(&items));
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        // Checker: repeatedly pin a snapshot and read both marks through
        // the verified snapshot path. A torn cut shows different sequence
        // numbers; a fenced cut never does. Nor does it miss a batch that
        // returned before the snapshot was taken.
        let mut cuts = 0u32;
        let mut client = spitz::Verifier::new();
        loop {
            let floor = returned_seq.load(Ordering::SeqCst);
            if cuts >= 40 && floor > 0 {
                break;
            }
            let snapshot = db.snapshot().unwrap();
            assert!(snapshot.digest().verify());
            assert!(
                client.observe_sharded(snapshot.digest()),
                "snapshot digests must advance monotonically, never rewind"
            );
            let (va, pa) = snapshot.get_verified(&mark_a);
            let (vb, pb) = snapshot.get_verified(&mark_b);
            assert_eq!(
                va, vb,
                "cut {cuts} is torn: the two halves of an atomic cross-shard \
                 batch disagree"
            );
            assert!(
                seq(&va) >= floor && seq(&vb) >= floor,
                "cut {cuts} predates batch {floor}, which returned before it"
            );
            assert!(client.verify_sharded_read(&mark_a, va.as_deref(), &pa));
            assert!(client.verify_sharded_read(&mark_b, vb.as_deref(), &pb));
            // The verified range over both marks sees the same consistency.
            let (entries, proof) = snapshot
                .range_verified(b"cut-mark-", b"cut-mark-z")
                .unwrap();
            assert_eq!(entries.len(), 2);
            assert_eq!(entries[0].1, entries[1].1, "range cut is torn");
            assert!(client.verify_sharded_range(&entries, &proof));
            cuts += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let returned = writer.join().unwrap();
        for hammer in hammers {
            assert!(hammer.join().unwrap() >= 20);
        }

        // Every digest returned by put_batch is a fenced epoch: internally
        // consistent, with the batch's own write fully reflected.
        assert!(!returned.is_empty());
        for digest in &returned {
            assert!(digest.verify(), "a returned root must be a fenced epoch");
        }
    });
}

#[test]
fn concurrency_soak_short() {
    for shards in [1, 2, 4] {
        for writers in [1, 4] {
            soak(&ShardedDb::in_memory(shards), writers, 40);
        }
    }
}

#[test]
fn concurrency_soak_durable_short() {
    durable_soak("sharded-soak", 3, 15);
}

/// [`soak`] on a durable `Grouped` 4-shard store, then check that a reopen
/// reproduces the digest (the durability of the flush barrier).
fn durable_soak(name: &str, writers: u32, ops: u32) {
    let dir = TempDir::new(name);
    let config = grouped(4);
    let db = ShardedDb::open(dir.path(), config).unwrap();
    soak(&db, writers, ops);
    let digest = db.digest();
    drop(db);
    let reopened = ShardedDb::open(dir.path(), config).unwrap();
    assert_eq!(reopened.digest(), digest);
}

/// Ledger records sealed across every shard.
fn record_count(db: &ShardedDb) -> usize {
    (0..db.shard_count())
        .map(|s| {
            let ledger = db.shard(s).ledger();
            (0..ledger.digest().block_count())
                .map(|h| ledger.block(h).expect("sealed block").records.len())
                .sum::<usize>()
        })
        .sum()
}

/// Blind writes never conflict: a put is one ledger commit, so four writers
/// hammering one key all succeed, in memory and durably, and every put
/// lands as its own ledger record.
#[test]
fn contended_puts_to_one_key_all_commit() {
    const WRITERS: u32 = 4;
    const PUTS: u32 = 500;
    let dir = TempDir::new("sharded-contention");
    let durable = ShardedDb::open(dir.path(), ShardedConfig::default()).unwrap();
    for db in [ShardedDb::in_memory(4), durable] {
        let before = record_count(&db);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = &db;
                scope.spawn(move || {
                    for op in 0..PUTS {
                        let value = format!("w{w}-op{op}");
                        if let Err(e) = db.put(b"hot-key", value.as_bytes()) {
                            panic!("writer {w} put {op} failed: {e}");
                        }
                    }
                });
            }
        });
        assert_eq!(record_count(&db) - before, (WRITERS * PUTS) as usize);
        // Each writer's puts are sequential, so the key holds some writer's
        // last one.
        let last = db.get(b"hot-key").unwrap().expect("key written");
        assert!((0..WRITERS).any(|w| last == format!("w{w}-op{}", PUTS - 1).into_bytes()));
        for s in 0..db.shard_count() {
            assert_eq!(db.shard(s).ledger().audit_chain(), None);
        }
    }
}

/// The long soak, in memory and on a durable `Grouped` store: the
/// durable run drives the commit pipeline's leader/follower hand-off.
#[test]
#[ignore = "long soak; run explicitly with `cargo test -- --ignored`"]
fn concurrency_soak_long() {
    soak(&ShardedDb::in_memory(4), 8, 400);
    durable_soak("sharded-soak-long", 8, 400);
}
