//! Seeded chaos schedules for the fault-hardened storage stack.
//!
//! Each schedule is a deterministic function of one `u64` seed: the fault
//! plan (via [`FaultInjector`] or [`FailpointStore`]), the workload shape,
//! and every randomized choice derive from it, so a failing schedule
//! replays from the printed seed alone. Four schedule families cover the
//! fault surface:
//!
//! * [`run_kv_schedule`] — a full durable [`ShardedDb`] of one or four
//!   shards (by seed) under seeded torn writes, `ENOSPC`, transient I/O and
//!   fsync failures, with put / batch / compact / flush cycles, a simulated
//!   crash
//!   (`std::mem::forget`) and a reopen *without* the injector. Invariants:
//!   no acknowledged write is lost, recovery is deterministic (two
//!   reopens agree byte-for-byte on the digest), every surviving key
//!   serves a verifying proof, a pre-fault pinned proof still verifies
//!   offline, and once a shard's store flips read-only, writes to it fail
//!   fast with the typed error while verified reads keep serving.
//! * [`run_scrub_schedule`] — storage-level silent corruption: a seeded
//!   bit flip lands in a record that later seals, a scrub pass must
//!   detect it, quarantine the segment, salvage every intact chunk, drop
//!   the damaged one, flip the store read-only, and leave a directory
//!   that reopens clean.
//! * [`run_2pc_schedule`] — cross-shard batches over failpoint-wrapped
//!   shards with a seeded mid-stream failure (error burst or permanent
//!   shard death). Invariants: after recovery every batch is atomic —
//!   fully applied (a decided commit is finished by redo) or fully absent
//!   (an undecided one is presumed aborted), never partial — and a dead
//!   shard degrades only its own key range.
//! * [`run_server_schedule`] — the served stack: a `SpitzServer` TCP
//!   front-end over a fault-injected sharded store, hammered by
//!   concurrent remote clients. Invariants: clients only ever see typed
//!   protocol errors (never a framing break or a hang), each sole-writer
//!   client's keys always read back an acceptable value, and after the
//!   storm every acknowledged key serves a proof that verifies against a
//!   freshly pinned digest — remotely, through the light-client
//!   acceptance rule.
//!
//! On a *failed* commit the stack promises the write is either fully
//! rolled back (append failure) or fully published but possibly
//! non-durable (fsync-only failure — see `spitz::ledger::CommitPipeline`,
//! whose sealing caller reports either to every commit in its batch).
//! The KV schedule therefore holds every key to "last acknowledged value,
//! or the one value a failed commit may have published" — never a torn
//! mixture, never a value nobody wrote.
//!
//! `tests/faults.rs` runs all four families: nine fixed seeds in the
//! tier-1 `chaos_smoke`, 240 more in the `#[ignore]`d `chaos_soak`.

use std::collections::HashMap;
use std::sync::Arc;

use spitz::core::db::SpitzConfig;
use spitz::core::proof::Verifier;
use spitz::core::sharded::{ShardedConfig, ShardedDb};
use spitz::core::{DbError, HealthState};
use spitz::core::{ShardedDigest, ShardedProof};
use spitz::ledger::DurabilityPolicy;
use spitz::obs::TelemetryHandle;
use spitz::server::protocol::ErrorCode;
use spitz::server::{ClientError, ServerConfig, SpitzClient, SpitzServer};
use spitz::storage::chunk::{Chunk, ChunkKind};
use spitz::storage::{
    ChunkStore, DurableChunkStore, DurableConfig, InMemoryChunkStore, IoErrorKind, StorageError,
    WriteOutcome,
};
use spitz_faults::{FailMode, FailpointStore, FaultInjector, FaultRates};

use crate::common::{key_on, TempDir, SHARD_COUNTS};

/// What one schedule did; `tests/faults.rs` prints it after each run.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Driver operations issued.
    pub ops: u64,
    /// Faults the injector / failpoint actually fired.
    pub faults_injected: u64,
    /// Writes the model holds the database accountable for.
    pub acknowledged: u64,
    /// Health of the store when the schedule ended (pre-crash).
    pub final_health: HealthState,
}

impl Default for ScheduleReport {
    fn default() -> Self {
        ScheduleReport {
            ops: 0,
            faults_injected: 0,
            acknowledged: 0,
            final_health: HealthState::Healthy,
        }
    }
}

/// The standard splitmix64 finalizer; the schedules' only RNG.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A tiny deterministic stream over `splitmix64` (the schedules must be a
/// pure function of the seed, so no `rand` here).
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(
            seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("chaos/{i:06}").into_bytes()
}

fn value(seed: u64, tick: u64) -> Vec<u8> {
    format!("value-{seed:x}-{tick}-{}", "pad".repeat(4)).into_bytes()
}

/// The four fault profiles a KV schedule's seed selects among.
fn kv_rates(seed: u64) -> FaultRates {
    match seed % 4 {
        // Transient-heavy: the retry loop should absorb almost everything.
        0 => FaultRates {
            transient_per_1024: 48,
            fsync_transient_per_1024: 24,
            ..FaultRates::default()
        },
        // Torn writes: the first one flips the store read-only.
        1 => FaultRates {
            torn_per_1024: 6,
            ..FaultRates::default()
        },
        // Exact-op ENOSPC (registered separately in the schedule).
        2 => FaultRates::default(),
        // Failing fsyncs: a per-put / group / rotation fsync goes read-only.
        _ => FaultRates {
            fsync_fail_per_1024: 8,
            ..FaultRates::default()
        },
    }
}

/// `got` is acceptable for a key iff it matches the last acknowledged
/// value, or the single value a *failed* commit may still have published:
/// the publication contract of the "fsync failure" row in `spitz_faults`'
/// failure-mode matrix.
fn acceptable(got: Option<&[u8]>, acked: Option<&Vec<u8>>, maybe: Option<&Vec<u8>>) -> bool {
    match got {
        None => acked.is_none(),
        Some(bytes) => {
            acked.map(|v| v.as_slice() == bytes).unwrap_or(false)
                || maybe.map(|v| v.as_slice() == bytes).unwrap_or(false)
        }
    }
}

/// Failed writes per key since its last acknowledged one, each of which may
/// be visible (the "fsync failure" row of `spitz_faults`' failure-mode
/// matrix). The served schedule's clients keep writing after the store goes
/// read-only, so a key can collect several.
type Maybe = HashMap<Vec<u8>, Vec<Vec<u8>>>;

/// [`acceptable`] over every candidate of a [`Maybe`] entry.
fn acceptable_of(
    got: Option<&[u8]>,
    acked: Option<&Vec<u8>>,
    maybe: Option<&Vec<Vec<u8>>>,
) -> bool {
    acceptable(got, acked, None)
        || maybe.is_some_and(|values| values.iter().any(|m| acceptable(got, acked, Some(m))))
}

/// One seeded KV chaos schedule over a full durable [`ShardedDb`]. Panics
/// (with the seed in the message) on any invariant violation.
pub fn run_kv_schedule(seed: u64) -> ScheduleReport {
    let dir = TempDir::new(&format!("chaos-kv-{seed:x}"));
    let injector = Arc::new(FaultInjector::random(seed, kv_rates(seed)));
    if seed % 4 == 2 {
        // Deterministic mid-schedule disk-full.
        injector.fail_append_at(40 + seed % 80, WriteOutcome::Fail(IoErrorKind::NoSpace));
    }
    let durability = if (seed >> 8) & 1 == 0 {
        DurabilityPolicy::Strict
    } else {
        DurabilityPolicy::Grouped {
            max_delay: std::time::Duration::from_millis(2),
            max_writes: 8,
        }
    };
    let config = ShardedConfig::default()
        .with_shards(SHARD_COUNTS[((seed >> 2) & 1) as usize])
        .with_spitz(SpitzConfig::default().with_durability(durability))
        .with_durable(DurableConfig {
            segment_target_bytes: 8 * 1024,
            ..DurableConfig::default()
        });
    let mut report = ScheduleReport::default();
    let db = match ShardedDb::open_with_io(dir.path(), config, injector.handle()) {
        Ok(db) => db,
        Err(_) => {
            // A fault landed inside genesis. That aborts the schedule, but
            // the recovery invariant still holds: the directory must
            // reopen clean without the injector.
            report.faults_injected = injector.injected_faults();
            ShardedDb::open(dir.path(), config).unwrap_or_else(|e| {
                panic!("[seed={seed:#x}] dir unrecoverable after faulted genesis: {e}")
            });
            return report;
        }
    };

    let mut rng = Rng::new(seed, 1);
    // key index -> last *acknowledged* value (the database answers for
    // these), and -> the value of the latest *failed* write, which a
    // fsync-only commit failure may legitimately have published.
    let mut acked: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut maybe: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut any_write_failed = false;
    let mut last_acked_digest: Option<ShardedDigest> = None;
    // (pinned digest, key, value at pin time, proof) — verified offline at
    // the end against the pre-fault pin.
    type Pin = (ShardedDigest, Vec<u8>, Option<Vec<u8>>, ShardedProof);
    let mut pin: Option<Pin> = None;
    // The shard whose store flipped read-only, if one did.
    let mut went_read_only = None;

    for op in 0..160u64 {
        report.ops += 1;
        let roll = rng.below(100);
        let result = if roll < 60 {
            let i = rng.below(48);
            let v = value(seed, op);
            match db.put(&key(i), &v) {
                Ok(_) => {
                    acked.insert(i, v);
                    maybe.remove(&i);
                    last_acked_digest = Some(db.digest());
                    Ok(())
                }
                Err(e) => {
                    maybe.insert(i, v);
                    Err(e)
                }
            }
        } else if roll < 75 {
            let base = rng.below(40);
            let writes: Vec<(u64, Vec<u8>)> = (base..base + 4)
                .map(|i| (i, value(seed, op * 1000 + i)))
                .collect();
            let batch: Vec<(Vec<u8>, Vec<u8>)> =
                writes.iter().map(|(i, v)| (key(*i), v.clone())).collect();
            match db.put_batch(batch) {
                Ok(digest) => {
                    for (i, v) in writes {
                        acked.insert(i, v);
                        maybe.remove(&i);
                    }
                    last_acked_digest = Some(digest);
                    Ok(())
                }
                Err(e) => {
                    for (i, v) in writes {
                        maybe.insert(i, v);
                    }
                    Err(e)
                }
            }
        } else if roll < 85 {
            db.flush().map(|_| ())
        } else if roll < 92 {
            // GC races the fault plan; a pass aborted by an injected
            // fault leaves the store untouched.
            db.compact().map(|_| ())
        } else {
            let i = rng.below(48);
            let (got, proof) = db
                .get_verified(&key(i))
                .unwrap_or_else(|e| panic!("[seed={seed:#x}] verified read failed: {e}"));
            assert!(
                acceptable(got.as_deref(), acked.get(&i), maybe.get(&i)),
                "[seed={seed:#x}] key {i} lost or invented mid-schedule: {got:?}"
            );
            let mut client = Verifier::new();
            assert!(client.observe_sharded(&db.digest()));
            assert!(
                client.verify_sharded_read(&key(i), got.as_deref(), &proof),
                "[seed={seed:#x}] live proof failed verification"
            );
            Ok(())
        };

        if pin.is_none() && op >= 10 && !acked.is_empty() {
            // Pin a digest + proof mid-schedule to re-verify offline at
            // the very end, after faults and recovery.
            let i = *acked.keys().next().unwrap();
            let (v, proof) = db
                .get_verified(&key(i))
                .unwrap_or_else(|e| panic!("[seed={seed:#x}] pin read failed: {e}"));
            let cut = db.digest();
            assert_eq!(
                proof.root, cut.root,
                "[seed={seed:#x}] no write is in flight"
            );
            pin = Some((cut, key(i), v, proof));
        }

        if let Err(err) = result {
            any_write_failed = true;
            let read_only =
                (0..db.shard_count()).find(|&s| db.shard_health(s) == HealthState::ReadOnly);
            if matches!(err, DbError::ReadOnly(_)) || read_only.is_some() {
                went_read_only = read_only;
                break;
            }
            // Any other injected failure just means the op was not
            // acknowledged; the schedule keeps going.
        }
    }

    if let Some(shard) = went_read_only {
        // Degraded-mode contract: writes fail fast with the typed error,
        // verified reads keep serving out of the read-only store.
        let err = db
            .put(&key_on(&db, shard, "post-readonly"), b"x")
            .expect_err("store is read-only");
        assert!(
            matches!(err, DbError::ReadOnly(_)),
            "[seed={seed:#x}] read-only store must fail writes with the typed error, got {err}"
        );
        if let Some(i) = acked.keys().next().copied() {
            let (got, proof) = db
                .get_verified(&key(i))
                .unwrap_or_else(|e| panic!("[seed={seed:#x}] read-only store must read: {e}"));
            assert!(acceptable(got.as_deref(), acked.get(&i), maybe.get(&i)));
            let mut client = Verifier::new();
            assert!(client.observe_sharded(&db.digest()));
            assert!(client.verify_sharded_read(&key(i), got.as_deref(), &proof));
        }
    }

    report.acknowledged = acked.len() as u64;
    report.faults_injected = injector.injected_faults();
    report.final_health = db.health();

    // Crash: the process dies with whatever has reached the files.
    std::mem::forget(db);

    // Recover WITHOUT the injector — twice; recovery must be deterministic.
    let mut digests = Vec::new();
    for round in 0..2 {
        let reopened = ShardedDb::open(dir.path(), config)
            .unwrap_or_else(|e| panic!("[seed={seed:#x}] reopen round {round} failed: {e}"));
        digests.push(reopened.digest());
        for (i, expected) in &acked {
            let (got, proof) = reopened
                .get_verified(&key(*i))
                .unwrap_or_else(|e| panic!("[seed={seed:#x}] post-recovery read failed: {e}"));
            assert!(
                got.is_some(),
                "[seed={seed:#x}] acknowledged write lost across recovery (key {i})"
            );
            assert!(
                acceptable(got.as_deref(), Some(expected), maybe.get(i)),
                "[seed={seed:#x}] key {i} recovered to a value nobody acknowledged"
            );
            let mut client = Verifier::new();
            assert!(client.observe_sharded(&reopened.digest()));
            assert!(
                client.verify_sharded_read(&key(*i), got.as_deref(), &proof),
                "[seed={seed:#x}] post-recovery proof failed verification"
            );
        }
    }
    assert_eq!(
        digests[0], digests[1],
        "[seed={seed:#x}] recovery must be deterministic"
    );
    if !any_write_failed {
        // With no failed commit there is no published-but-unacknowledged
        // block, so the recovered digest must be exactly the last
        // acknowledged one.
        if let Some(expected) = last_acked_digest {
            assert_eq!(
                digests[0], expected,
                "[seed={seed:#x}] clean schedule recovered to a different digest"
            );
        }
    }
    if let Some((digest, k, v, proof)) = pin {
        // The mid-schedule pin verifies offline, against the pinned digest
        // alone — faults and recovery cannot retroactively break it.
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&digest));
        assert!(
            client.verify_sharded_read(&k, v.as_deref(), &proof),
            "[seed={seed:#x}] pre-fault pinned proof no longer verifies"
        );
    }
    report
}

/// One seeded silent-corruption schedule at the storage layer: a bit flip
/// lands in a record that seals, scrub must quarantine + salvage + go
/// read-only. Panics (with the seed in the message) on violation.
pub fn run_scrub_schedule(seed: u64) -> ScheduleReport {
    let dir = TempDir::new(&format!("chaos-scrub-{seed:x}"));
    let injector = Arc::new(FaultInjector::new(seed));
    let mut rng = Rng::new(seed, 2);
    let total = 40 + rng.below(24);
    let corrupt_at = 2 + rng.below(total - 14);
    injector.fail_append_at(
        corrupt_at,
        WriteOutcome::Corrupt {
            offset: rng.below(160) as usize,
            mask: (rng.next() >> 16) as u8,
        },
    );
    let config = DurableConfig {
        segment_target_bytes: 2 * 1024,
        ..DurableConfig::default()
    };
    let store = DurableChunkStore::open_with_io(
        dir.path(),
        config,
        TelemetryHandle::disabled(),
        injector.handle(),
    )
    .unwrap_or_else(|e| panic!("[seed={seed:#x}] open failed: {e}"));

    // Distinct ~220 byte records against a 2 KiB segment target: at least
    // twelve records always follow the damaged one, so its segment is
    // guaranteed sealed before the scrub runs.
    let mut addresses = Vec::new();
    for i in 0..total {
        let payload = format!("chaos-chunk-{seed:x}-{i}-{}", "x".repeat(160)).into_bytes();
        let address = store
            .try_put(Chunk::new(ChunkKind::Blob, payload))
            .unwrap_or_else(|e| panic!("[seed={seed:#x}] put {i} failed: {e}"));
        addresses.push(address);
    }
    store.sync().expect("sync");
    let damaged = addresses[corrupt_at as usize];

    let chunks_before = store.stats().chunk_count;
    let scrub = store
        .scrub()
        .unwrap_or_else(|e| panic!("[seed={seed:#x}] scrub failed: {e}"));
    assert!(
        !scrub.quarantined_segments.is_empty(),
        "[seed={seed:#x}] scrub must quarantine the corrupt segment"
    );
    assert!(
        scrub.chunks_lost >= 1,
        "[seed={seed:#x}] the damaged record cannot be salvaged"
    );
    assert_eq!(
        store.health(),
        HealthState::ReadOnly,
        "[seed={seed:#x}] losing data must flip the store read-only"
    );
    assert_eq!(
        store.stats().chunk_count,
        chunks_before - scrub.chunks_lost,
        "[seed={seed:#x}] space accounting must drop exactly the lost chunks"
    );
    // The damaged chunk reads as missing (never as wrong bytes); every
    // other chunk was salvaged and still reads back verified.
    assert!(
        matches!(store.get(&damaged), Err(StorageError::ChunkNotFound(_))),
        "[seed={seed:#x}] damaged chunk must read as lost"
    );
    for (i, address) in addresses.iter().enumerate() {
        if i as u64 == corrupt_at {
            continue;
        }
        let chunk = store
            .get(address)
            .unwrap_or_else(|e| panic!("[seed={seed:#x}] salvaged chunk {i} lost: {e}"));
        assert_eq!(chunk.address(), *address);
    }
    // Writes fail fast with the typed error.
    let err = store
        .try_put(Chunk::new(ChunkKind::Blob, b"post-quarantine".to_vec()))
        .expect_err("read-only store");
    assert!(matches!(err, StorageError::ReadOnly(_)));
    // The evidence is preserved in quarantine/.
    let quarantine = dir.path().join("quarantine");
    assert!(
        std::fs::read_dir(&quarantine)
            .map(|d| d.count())
            .unwrap_or(0)
            > 0,
        "[seed={seed:#x}] quarantined segment file must be preserved"
    );

    let report = ScheduleReport {
        ops: total + 1,
        faults_injected: injector.injected_faults(),
        acknowledged: addresses.len() as u64 - 1,
        final_health: store.health(),
    };

    // Reopen without the injector: the directory is clean (the corrupt
    // segment lives in quarantine/), every salvaged chunk is still there,
    // the lost one is still missing — deterministically.
    drop(store);
    let reopened = DurableChunkStore::open_with_config(dir.path(), config)
        .unwrap_or_else(|e| panic!("[seed={seed:#x}] reopen after quarantine failed: {e}"));
    for (i, address) in addresses.iter().enumerate() {
        if i as u64 == corrupt_at {
            assert!(reopened.get(address).is_err());
        } else {
            assert!(
                reopened.get(address).is_ok(),
                "[seed={seed:#x}] salvaged chunk {i} lost across reopen"
            );
        }
    }
    report
}

/// One seeded 2PC chaos schedule: cross-shard batches over failpoint
/// shards, a seeded mid-stream failure, atomicity and degraded-mode
/// checks. Panics (with the seed in the message) on violation.
pub fn run_2pc_schedule(seed: u64) -> ScheduleReport {
    const SHARDS: usize = 3;
    let failpoints: Vec<Arc<FailpointStore>> = (0..SHARDS)
        .map(|_| FailpointStore::new(Arc::new(InMemoryChunkStore::new())))
        .collect();
    let stores: Vec<Arc<dyn ChunkStore>> = failpoints
        .iter()
        .map(|f| Arc::clone(f) as Arc<dyn ChunkStore>)
        .collect();
    let db = ShardedDb::with_stores(stores, SpitzConfig::default())
        .unwrap_or_else(|e| panic!("[seed={seed:#x}] sharded open failed: {e}"));

    let mut rng = Rng::new(seed, 3);
    let batches = 16u64;
    let fail_batch = rng.below(batches);
    let victim = rng.below(SHARDS as u64) as usize;
    let kill = rng.below(4) == 0;
    let countdown = rng.below(3);
    let mut report = ScheduleReport::default();
    let mut committed: Vec<Vec<(Vec<u8>, Vec<u8>)>> = Vec::new();

    for b in 0..batches {
        report.ops += 1;
        if b == fail_batch {
            failpoints[victim].arm(
                countdown,
                if kill {
                    FailMode::Kill
                } else {
                    FailMode::Error
                },
            );
        }
        let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..4u64)
            .map(|i| {
                (
                    format!("2pc/{seed:x}/{b:03}/{i}").into_bytes(),
                    format!("batch-{b}-{i}").into_bytes(),
                )
            })
            .collect();
        match db.put_batch(writes.clone()) {
            Ok(_) => committed.push(writes),
            Err(_) => {
                // A failed cross-shard batch is in one of two legitimate
                // states: *undecided* (recovery presumes abort, nothing
                // visible) or *decided but incomplete* (the commit
                // decision landed before the fault; recovery finishes the
                // apply). Either way the post-recovery outcome must be
                // all-or-nothing on the shards that can still answer — a
                // partial batch is the invariant violation.
                if !kill {
                    failpoints[victim].disarm();
                }
                db.recover();
                let probe: Vec<bool> = writes
                    .iter()
                    .filter(|(k, _)| !(kill && db.route(k) == victim))
                    .map(|(k, _)| db.get(k).unwrap_or(None).is_some())
                    .collect();
                let all = !probe.is_empty() && probe.iter().all(|v| *v);
                let none = probe.iter().all(|v| !*v);
                assert!(
                    all || none,
                    "[seed={seed:#x}] batch {b} partially applied after recovery"
                );
                if all {
                    committed.push(writes);
                } else if !kill {
                    // Presumed abort: the same batch commits on retry.
                    db.put_batch(writes.clone())
                        .unwrap_or_else(|e| panic!("[seed={seed:#x}] retry failed: {e}"));
                    committed.push(writes);
                }
                if kill {
                    break;
                }
            }
        }
    }

    if kill && failpoints[victim].is_dead() {
        // Degraded-mode contract: the deployment degrades, the dead shard
        // reports read-only, and keys owned by live shards keep writing.
        assert_eq!(db.health(), HealthState::Degraded);
        assert_eq!(db.shard_health(victim), HealthState::ReadOnly);
        let mut i = 0u64;
        let live_key = loop {
            let k = format!("2pc/{seed:x}/live/{i}").into_bytes();
            if db.route(&k) != victim {
                break k;
            }
            i += 1;
        };
        db.put(&live_key, b"still-writable")
            .unwrap_or_else(|e| panic!("[seed={seed:#x}] live shard must keep writing: {e}"));
        assert_eq!(
            db.get(&live_key).unwrap().as_deref(),
            Some(b"still-writable".as_ref())
        );
    } else {
        assert_eq!(db.health(), HealthState::Healthy);
    }

    // Every committed batch is fully present on its shards.
    for (b, writes) in committed.iter().enumerate() {
        for (k, v) in writes {
            if kill && db.route(k) == victim {
                continue;
            }
            assert_eq!(
                db.get(k).unwrap().as_deref(),
                Some(v.as_slice()),
                "[seed={seed:#x}] committed batch {b} lost a write"
            );
        }
    }

    report.acknowledged = committed.len() as u64;
    report.faults_injected = failpoints.iter().map(|f| f.injected_failures()).sum();
    report.final_health = db.health();
    report
}

/// One seeded chaos schedule over the **served** stack: a [`SpitzServer`]
/// fronting a fault-injected sharded store while remote clients hammer the
/// socket concurrently.
///
/// Invariants (panics with the seed on violation): clients only ever see
/// typed protocol errors (`ReadOnly` / `Busy` / `Conflict` / `Internal`)
/// — never a framing break, never a hang; each client's sole-writer keys
/// always read back an acceptable value; and once writes quiesce, every
/// acknowledged key serves a proof the light-client acceptance rule
/// verifies against a fresh pin.
pub fn run_server_schedule(seed: u64) -> ScheduleReport {
    const CLIENTS: u64 = 3;
    const OPS_PER_CLIENT: u64 = 80;

    let dir = TempDir::new(&format!("chaos-server-{seed:x}"));
    let rates = match seed % 3 {
        0 => FaultRates {
            transient_per_1024: 24,
            fsync_transient_per_1024: 12,
            ..FaultRates::default()
        },
        1 => FaultRates::default(), // exact-op ENOSPC below
        _ => FaultRates {
            fsync_fail_per_1024: 4,
            ..FaultRates::default()
        },
    };
    let injector = Arc::new(FaultInjector::random(seed, rates));
    if seed % 3 == 1 {
        injector.fail_append_at(60 + seed % 120, WriteOutcome::Fail(IoErrorKind::NoSpace));
    }
    let config = ShardedConfig::default()
        .with_shards(2)
        .with_durable(DurableConfig {
            segment_target_bytes: 8 * 1024,
            ..DurableConfig::default()
        });
    let mut report = ScheduleReport::default();
    let db = match ShardedDb::open_with_io(dir.path(), config, injector.handle()) {
        Ok(db) => Arc::new(db),
        Err(_) => {
            // Faulted genesis: the schedule aborts, the directory must
            // still reopen clean without the injector.
            report.faults_injected = injector.injected_faults();
            ShardedDb::open(dir.path(), config).unwrap_or_else(|e| {
                panic!("[seed={seed:#x}] dir unrecoverable after faulted genesis: {e}")
            });
            return report;
        }
    };
    let server = SpitzServer::start(
        Arc::clone(&db),
        ServerConfig::default().with_max_connections(CLIENTS as usize + 2),
    )
    .unwrap_or_else(|e| panic!("[seed={seed:#x}] server failed to start: {e}"));
    let addr = server.local_addr();

    // Each client is the sole writer of its own key prefix, so it can
    // hold the server to an exact acknowledged-value model.
    type Acked = HashMap<Vec<u8>, Vec<u8>>;
    type ClientOutcome = (u64, Acked, Maybe);
    let workers: Vec<std::thread::JoinHandle<ClientOutcome>> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let own_key = move |i: u64| format!("srv/{c}/{i:04}").into_bytes();
                let mut client = SpitzClient::connect(addr)
                    .unwrap_or_else(|e| panic!("[seed={seed:#x}] client {c} connect: {e}"));
                let mut rng = Rng::new(seed, 100 + c);
                let mut acked = Acked::new();
                let mut maybe = Maybe::new();
                let mut ops = 0u64;
                for op in 0..OPS_PER_CLIENT {
                    ops += 1;
                    let i = rng.below(24);
                    let roll = rng.below(100);
                    let outcome: Result<(), ClientError> = if roll < 45 {
                        let v = value(seed, c * 10_000 + op);
                        match client.put(&own_key(i), &v) {
                            Ok(_) => {
                                maybe.remove(&own_key(i));
                                acked.insert(own_key(i), v);
                                Ok(())
                            }
                            Err(e) => {
                                maybe.entry(own_key(i)).or_default().push(v);
                                Err(e)
                            }
                        }
                    } else if roll < 60 {
                        let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..4)
                            .map(|j| (own_key(200 + i + j), value(seed, c * 20_000 + op + j)))
                            .collect();
                        match client.put_batch(&writes) {
                            Ok(_) => {
                                for (k, _) in &writes {
                                    maybe.remove(k);
                                }
                                acked.extend(writes);
                                Ok(())
                            }
                            Err(e) => {
                                for (k, v) in writes {
                                    maybe.entry(k).or_default().push(v);
                                }
                                Err(e)
                            }
                        }
                    } else if roll < 80 {
                        match client.get(&own_key(i)) {
                            Ok(got) => {
                                assert!(
                                    acceptable_of(
                                        got.as_deref(),
                                        acked.get(&own_key(i)),
                                        maybe.get(&own_key(i))
                                    ),
                                    "[seed={seed:#x}] client {c} read a value nobody wrote"
                                );
                                Ok(())
                            }
                            Err(e) => Err(e),
                        }
                    } else if roll < 90 {
                        // Transport-level exercise of the proof path; the
                        // quiesced verification pass below checks crypto.
                        client.get_verified(&own_key(i)).map(|_| ())
                    } else if roll < 96 {
                        client.digest().map(|digest| {
                            assert!(
                                digest.verify(),
                                "[seed={seed:#x}] served digest inconsistent"
                            );
                        })
                    } else {
                        client.health().map(|_| ())
                    };
                    match outcome {
                        Ok(()) => {}
                        Err(ClientError::Server { code, .. }) => {
                            assert!(
                                matches!(
                                    code,
                                    ErrorCode::ReadOnly
                                        | ErrorCode::Busy
                                        | ErrorCode::Conflict
                                        | ErrorCode::Internal
                                ),
                                "[seed={seed:#x}] client {c} got unexpected code {code:?}"
                            );
                        }
                        Err(other) => {
                            panic!("[seed={seed:#x}] client {c} protocol/transport broke: {other}")
                        }
                    }
                }
                (ops, acked, maybe)
            })
        })
        .collect();

    let mut all_acked = Acked::new();
    let mut all_maybe = Maybe::new();
    for worker in workers {
        let (ops, acked, maybe) = worker
            .join()
            .unwrap_or_else(|_| panic!("[seed={seed:#x}] a client thread died"));
        report.ops += ops;
        all_acked.extend(acked);
        all_maybe.extend(maybe);
    }

    // Writes have quiesced: every acknowledged key must now serve a
    // proof that verifies against a fresh pin, remotely.
    let mut client = SpitzClient::connect(addr)
        .unwrap_or_else(|e| panic!("[seed={seed:#x}] post-storm connect: {e}"));
    let digest = client
        .digest()
        .unwrap_or_else(|e| panic!("[seed={seed:#x}] post-storm digest: {e}"));
    let mut verifier = Verifier::new();
    assert!(
        verifier.observe_sharded(&digest),
        "[seed={seed:#x}] post-storm digest refused by a fresh verifier"
    );
    for (k, v) in &all_acked {
        let (got, proof) = client
            .get_verified(k)
            .unwrap_or_else(|e| panic!("[seed={seed:#x}] post-storm read of {k:?}: {e}"));
        assert!(got.is_some(), "[seed={seed:#x}] acknowledged write lost");
        assert!(
            acceptable_of(got.as_deref(), Some(v), all_maybe.get(k)),
            "[seed={seed:#x}] acknowledged key holds a value nobody wrote"
        );
        assert!(
            verifier.verify_sharded_read(k, got.as_deref(), &proof),
            "[seed={seed:#x}] served proof failed light-client verification"
        );
    }

    report.acknowledged = all_acked.len() as u64;
    report.faults_injected = injector.injected_faults();
    report.final_health = db.health();
    drop(server);
    report
}
