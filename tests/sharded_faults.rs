//! Crash-point and fault-injection tests for cross-shard 2PC: a
//! coordinator crash between prepare and commit is resolved by presumed
//! abort, and a disk-full / dead store on one shard mid-batch aborts the
//! whole batch cleanly on every shard.

use std::sync::Arc;

use spitz::core::sharded::{ShardedConfig, ShardedDb};
use spitz::core::SpitzConfig;
use spitz::storage::{ChunkStore, InMemoryChunkStore};

mod common;
use common::TempDir;
use spitz_faults::{FailMode, FailpointStore};

fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key-{i:05}").into_bytes(),
        format!("value-{i}").into_bytes(),
    )
}

/// A sharded db over failpoint-wrapped in-memory stores, plus the wrappers.
fn failpoint_db(shards: usize) -> (ShardedDb, Vec<Arc<FailpointStore>>) {
    let failpoints: Vec<Arc<FailpointStore>> = (0..shards)
        .map(|_| FailpointStore::new(InMemoryChunkStore::shared() as Arc<dyn ChunkStore>))
        .collect();
    let stores: Vec<Arc<dyn ChunkStore>> = failpoints
        .iter()
        .map(|fp| Arc::clone(fp) as Arc<dyn ChunkStore>)
        .collect();
    let db = ShardedDb::with_stores(stores, SpitzConfig::default()).unwrap();
    (db, failpoints)
}

/// A batch of `n` keys from `start` that is checked to span ≥ 2 shards and
/// to involve shard `must_hit`.
fn batch_hitting(db: &ShardedDb, start: u32, n: u32, must_hit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let writes: Vec<_> = (start..start + n).map(kv).collect();
    let shards: std::collections::HashSet<usize> =
        writes.iter().map(|(k, _)| db.route(k)).collect();
    assert!(shards.len() > 1, "batch must span shards");
    assert!(
        shards.contains(&must_hit),
        "batch must involve shard {must_hit}"
    );
    writes
}

#[test]
fn coordinator_crash_between_prepare_and_commit_recovers_to_abort() {
    let (db, _failpoints) = failpoint_db(3);
    db.put_batch((0..30).map(kv).collect()).unwrap();
    let base = db.digest();

    // Phase 1 completes on every shard; then the coordinator "crashes"
    // before a commit decision (the handle is dropped unfinished).
    let writes = batch_hitting(&db, 100, 20, 0);
    let prepared = db.prepare_batch(writes.clone()).unwrap();
    assert!(prepared.involved_shards().len() > 1);
    drop(prepared);

    // In-doubt state: nothing is visible, but the keys are still locked —
    // a new batch over them cannot get through.
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    assert_eq!(db.digest(), base, "prepared state must not touch a ledger");
    assert!(db.put_batch(writes.clone()).is_err());

    // Recovery decides abort: no shard leaks prepared state, locks are
    // released, and the exact same batch now commits.
    assert_eq!(db.recover(), 1);
    assert_eq!(db.digest(), base);
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    db.put_batch(writes.clone()).unwrap();
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
    }
    assert_eq!(db.recover(), 0);
}

#[test]
fn disk_full_on_one_shard_mid_batch_aborts_cleanly_everywhere() {
    let (db, failpoints) = failpoint_db(3);
    db.put_batch((0..30).map(kv).collect()).unwrap();
    let base = db.digest();

    // Shard 1's store starts refusing writes (disk full): its prepare-time
    // staging write fails, the participant votes No, and the coordinator
    // aborts the already-prepared shards.
    failpoints[1].arm(0, FailMode::Error);
    let writes = batch_hitting(&db, 200, 24, 1);
    let err = db.put_batch(writes.clone()).unwrap_err();
    assert!(err.to_string().contains("failpoint"), "unexpected: {err}");
    // The fault is classified as a storage failure, not a retryable
    // conflict — a retry-on-conflict loop must not spin on a full disk.
    assert!(
        matches!(err, spitz::core::DbError::Storage(_)),
        "unexpected class: {err:?}"
    );
    assert!(failpoints[1].injected_failures() > 0);

    // All-or-nothing: no key of the failed batch is visible on any shard,
    // no digest moved, nothing is left in doubt.
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    assert_eq!(db.digest(), base);
    assert_eq!(db.recover(), 0);

    // Space comes back: the identical batch commits.
    failpoints[1].disarm();
    db.put_batch(writes.clone()).unwrap();
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
    }
    assert_eq!(db.shard(1).ledger().audit_chain(), None);
}

#[test]
fn disk_full_after_k_operations_still_aborts_atomically() {
    // Same scenario, but the failpoint fires mid-stream (after 2 more
    // writes) rather than immediately, so depending on partition order the
    // failing shard may prepare first, last, or in between — the outcome
    // must be identical: clean global abort.
    for k in 0..4 {
        let (db, failpoints) = failpoint_db(3);
        db.put_batch((0..30).map(kv).collect()).unwrap();
        let base = db.digest();

        failpoints[2].arm(k, FailMode::Error);
        let writes = batch_hitting(&db, 300, 24, 2);
        match db.put_batch(writes.clone()) {
            // The batch needed at most k writes on shard 2 and committed.
            Ok(_) => {
                assert_eq!(failpoints[2].injected_failures(), 0);
                continue;
            }
            Err(_) => {
                // The space comes back, recovery resolves any in-doubt
                // state, and the outcome must be all-or-nothing:
                failpoints[2].disarm();
                let resolved = db.recover();
                if resolved == 0 {
                    // The fault hit the *prepare* phase: a clean global
                    // abort, nothing visible anywhere.
                    for (key, _) in &writes {
                        assert_eq!(db.get(key).unwrap(), None, "fail-after-{k}");
                    }
                    assert_eq!(db.digest(), base, "fail-after-{k}");
                } else {
                    // The fault hit the *commit* phase: the decision was
                    // made, so recovery redoes the failed shard's apply
                    // and every write is visible.
                    assert_eq!(resolved, 1, "fail-after-{k}");
                    for (key, value) in &writes {
                        assert_eq!(db.get(key).unwrap(), Some(value.clone()), "fail-after-{k}");
                    }
                    assert!(db.digest().epoch > base.epoch, "fail-after-{k}");
                }
                assert_eq!(db.recover(), 0, "fail-after-{k}");
            }
        }
    }
}

/// Kill-and-reopen: a coordinator crash between prepare and commit leaves
/// durably staged batches behind. A *restarted process* must find them via
/// the staged logs and resolve them by presumed abort — in-process state is
/// gone, so this exercises the durable scan, not the participant maps.
#[test]
fn staged_batches_survive_a_kill_and_reopen_and_recover_to_abort() {
    let dir = TempDir::new("sharded-2pc-kill");
    let config = ShardedConfig::default().with_shards(3);
    let writes: Vec<_> = (100..124).map(kv).collect();

    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        db.put_batch((0..30).map(kv).collect()).unwrap();
        let prepared = db.prepare_batch(writes.clone()).unwrap();
        assert!(prepared.involved_shards().len() > 1);
        db.flush().unwrap();
        // The coordinator "crashes": the process exits with the batch
        // prepared but undecided. (Dropping the handle without commit or
        // abort, then dropping the whole database.)
        drop(prepared);
    }

    let db = ShardedDb::open(dir.path(), config).unwrap();
    let base = db.digest();
    // In-doubt state is invisible but present on disk; recovery resolves
    // it by presumed abort even though no in-process participant knows it.
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    assert!(db.recover() >= 1, "the staged batch must be found on disk");
    assert_eq!(db.recover(), 0, "recovery is idempotent");
    assert_eq!(db.digest(), base, "presumed abort must not move a ledger");
    for (k, _) in &writes {
        assert_eq!(db.get(k).unwrap(), None);
    }
    // The same batch commits cleanly afterwards.
    db.put_batch(writes.clone()).unwrap();
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()));
    }
}

/// Kill-and-reopen after the commit *decision*: a batch whose commit was
/// decided (durable decision record) but whose apply failed on one shard
/// must be **redone** — not aborted — by the reopen over the same stores,
/// preserving all-or-nothing across the crash.
#[test]
fn decided_batches_survive_a_kill_and_reopen_and_recover_to_commit() {
    let failpoints: Vec<Arc<FailpointStore>> = (0..3)
        .map(|_| FailpointStore::new(InMemoryChunkStore::shared() as Arc<dyn ChunkStore>))
        .collect();
    let stores: Vec<Arc<dyn ChunkStore>> = failpoints
        .iter()
        .map(|fp| Arc::clone(fp) as Arc<dyn ChunkStore>)
        .collect();

    let writes;
    {
        let db = ShardedDb::with_stores(stores.clone(), SpitzConfig::default()).unwrap();
        db.put_batch((0..30).map(kv).collect()).unwrap();
        writes = batch_hitting(&db, 200, 24, 1);

        // Prepare everywhere (staging succeeds), then make shard 1's store
        // refuse writes: the commit decision lands durably, but shard 1's
        // apply fails, and the process dies before any retry.
        let prepared = db.prepare_batch(writes.clone()).unwrap();
        failpoints[1].arm(0, FailMode::Error);
        assert!(db.commit_prepared(prepared).is_err());
        failpoints[1].disarm();
        // Process death: drop the database; the wrapped stores survive as
        // the "disk".
    }

    let db = ShardedDb::with_stores(stores, SpitzConfig::default()).unwrap();
    // The decision was made, so the reopen itself redoes shard 1's part
    // from its staged chunk — every write is visible before any explicit
    // recovery, which then finds nothing left to resolve.
    for (k, v) in &writes {
        assert_eq!(db.get(k).unwrap(), Some(v.clone()), "redo must complete");
    }
    assert_eq!(db.recover(), 0, "the reopen already redid the batch");
    for s in 0..3 {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }
}

/// A restarted process must not recycle global transaction ids that the
/// durable 2PC logs still record: a recycled id makes the staged log's
/// entry point at the new batch's chunk, so a later redo of the *old*
/// decided batch would seal the wrong writes.
#[test]
fn reopen_does_not_recycle_global_txn_ids_of_staged_batches() {
    let dir = TempDir::new("sharded-2pc-gtid");
    let config = ShardedConfig::default().with_shards(3);
    let stale_gtid;
    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        db.put_batch((0..30).map(kv).collect()).unwrap();
        let prepared = db.prepare_batch(batch_hitting(&db, 100, 24, 0)).unwrap();
        stale_gtid = prepared.global_txn_id();
        db.flush().unwrap();
        // Coordinator crash: prepared but undecided, process exits.
        drop(prepared);
    }

    let db = ShardedDb::open(dir.path(), config).unwrap();
    let prepared = db.prepare_batch(batch_hitting(&db, 200, 24, 1)).unwrap();
    assert!(
        prepared.global_txn_id() > stale_gtid,
        "fresh id {} must not collide with or precede the staged id {}",
        prepared.global_txn_id(),
        stale_gtid
    );
    db.abort_prepared(prepared);
    // The stale staged batch is still resolvable (presumed abort).
    assert!(db.recover() >= 1);
    assert_eq!(db.recover(), 0);
}

/// A batch whose commit decision was durable when the process died must be
/// visible after a plain reopen — `ShardedDb::open` redoes decided staged
/// batches eagerly, without waiting for an explicit `recover()` call.
#[test]
fn reopen_redoes_decided_batches_without_an_explicit_recover_call() {
    use spitz::core::staged::StagedLog;
    use spitz::Hash;

    let dir = TempDir::new("sharded-2pc-eager-redo");
    let config = ShardedConfig::default().with_shards(3);
    let writes;
    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        db.put_batch((0..30).map(kv).collect()).unwrap();
        writes = batch_hitting(&db, 100, 24, 0);
        let prepared = db.prepare_batch(writes.clone()).unwrap();
        // The commit decision lands durably, then the process dies before
        // any shard applies (simulated by writing the decision record by
        // hand and exiting with the prepared handle unfinished).
        StagedLog::decisions(std::sync::Arc::clone(db.shard(0).store()))
            .add(prepared.global_txn_id(), Hash::ZERO)
            .unwrap();
        db.flush().unwrap();
        drop(prepared);
    }

    let db = ShardedDb::open(dir.path(), config).unwrap();
    for (k, v) in &writes {
        assert_eq!(
            db.get(k).unwrap(),
            Some(v.clone()),
            "decided writes must be visible after a plain reopen"
        );
    }
    assert_eq!(db.recover(), 0, "nothing left for an explicit recover");
    for s in 0..3 {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }
}

#[test]
fn killed_shard_store_fails_writes_but_leaves_other_shards_working() {
    let (db, failpoints) = failpoint_db(3);
    db.put_batch((0..30).map(kv).collect()).unwrap();

    // Shard 0's device dies: every later operation on it fails.
    failpoints[0].arm(0, FailMode::Kill);

    // A cross-shard batch involving the dead shard aborts as a whole.
    let writes = batch_hitting(&db, 400, 24, 0);
    assert!(db.put_batch(writes.clone()).is_err());
    assert!(failpoints[0].is_dead());
    let live: Vec<usize> = (1..3).collect();
    for (k, _) in &writes {
        if live.contains(&db.route(k)) {
            assert_eq!(db.get(k).unwrap(), None, "no partial commit on live shards");
        }
    }

    // The healthy shards keep serving single-shard traffic.
    let mut wrote = 0;
    for i in 500..560u32 {
        let (k, v) = kv(i);
        if db.route(&k) != 0 {
            db.put(&k, &v).unwrap();
            assert_eq!(db.get(&k).unwrap(), Some(v));
            wrote += 1;
        }
    }
    assert!(wrote > 0);
    for s in live {
        assert_eq!(db.shard(s).ledger().audit_chain(), None);
    }
    // Disarming does not revive a killed store.
    failpoints[0].disarm();
    assert!(failpoints[0].is_dead());
}
