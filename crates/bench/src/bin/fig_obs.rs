//! Telemetry overhead and exposition: the cost of always-on observability.
//!
//! Two questions, one binary:
//!
//! 1. **What does telemetry cost on the hot paths?** Identical put / get /
//!    verified-get workloads run against a durable `SpitzDb` with telemetry
//!    enabled and disabled (several interleaved rounds, best-of per mode to
//!    shave scheduler noise), and the table reports both throughputs plus
//!    the relative overhead. Every instrument is a relaxed atomic update
//!    and the latency spans cost two monotonic clock reads, so the target
//!    recorded in BASELINES.md is **< 3%** on every row.
//! 2. **Does the exposition cover the whole system?** A mixed workload on
//!    a durable two-shard `ShardedDb` touches all four instrumented layers
//!    — storage (appends, cache, fsync), commit pipeline (group commit),
//!    2PC (cross-shard batches) and the proof layer (point/range/sharded
//!    proofs with wire sizes) — then the JSON exposition is printed
//!    between `TELEMETRY_JSON_BEGIN` / `TELEMETRY_JSON_END` markers and
//!    self-validated: the run aborts if any required instrument is missing
//!    from the snapshot.
//!
//! Run with `--smoke` for the CI-sized workload; CI additionally parses
//! the marked JSON and fails on missing instruments or NaN values.

use std::time::Instant;

use spitz_bench::util::TempDir;
use spitz_bench::FigureTable;
use spitz_core::db::{SpitzConfig, SpitzDb};
use spitz_core::sharded::{ShardedConfig, ShardedDb};
use spitz_ledger::DurabilityPolicy;

/// Every instrument the four layers register at construction time. The
/// exposition smoke fails if a snapshot of a freshly exercised deployment
/// is missing any of them.
const REQUIRED_INSTRUMENTS: &[&str] = &[
    // storage
    "storage.append_nanos",
    "storage.read_nanos",
    "storage.fsync_nanos",
    "storage.cache.hits",
    "storage.cache.misses",
    "storage.compactions",
    "storage.space_amplification",
    // commit pipeline
    "pipeline.commits",
    "pipeline.flushes",
    "pipeline.syncs",
    "pipeline.policy.strict.flushes",
    "pipeline.group_size",
    "pipeline.flush_nanos",
    "pipeline.queue_depth",
    // 2PC
    "twopc.prepares",
    "twopc.commits",
    "twopc.aborts",
    "twopc.recovered",
    "twopc.in_doubt",
    "twopc.decision_truncations",
    // proof layer
    "proof.point_build_nanos",
    "proof.point_bytes",
    "proof.range_build_nanos",
    "proof.range_bytes",
    "proof.sharded_point_build_nanos",
    "proof.sharded_point_bytes",
    "proof.sharded_range_build_nanos",
    "proof.sharded_range_bytes",
    "proof.multi_build_nanos",
    "proof.multi_bytes",
    "proof.sharded_multi_build_nanos",
    "proof.sharded_multi_bytes",
];

/// One measured pass: `puts` writes, `gets` unverified point reads and
/// `gets / 4` verified reads against a fresh durable instance, returning
/// (put, get, verified-get) throughput in ×10³ ops/s. `DurabilityPolicy::Os`
/// keeps fsync out of the loop so the measurement exercises the instrumented
/// append/read/commit paths, not the disk.
fn hot_paths_kops(telemetry: bool, puts: u32, gets: u32) -> (f64, f64, f64) {
    let dir = TempDir::new("fig-obs-hot");
    let config = SpitzConfig::default()
        .with_durability(DurabilityPolicy::Os)
        .with_telemetry(telemetry);
    let db = SpitzDb::open_with_config(dir.path(), config).expect("open durable db");

    let start = Instant::now();
    for i in 0..puts {
        let key = format!("key-{i:06}");
        let value = format!("value-{i:014}");
        db.put(key.as_bytes(), value.as_bytes()).expect("put");
    }
    let put_kops = puts as f64 / start.elapsed().as_secs_f64() / 1_000.0;

    // Warm the chunk cache before timing reads, so the measurement compares
    // the instrumented hit path rather than first-touch segment reads.
    for i in 0..puts {
        let key = format!("key-{i:06}");
        db.get(key.as_bytes()).expect("warm get");
    }
    let start = Instant::now();
    for i in 0..gets {
        let key = format!("key-{:06}", i % puts);
        db.get(key.as_bytes()).expect("get");
    }
    let get_kops = gets as f64 / start.elapsed().as_secs_f64() / 1_000.0;

    let verified = gets / 4;
    let start = Instant::now();
    for i in 0..verified {
        let key = format!("key-{:06}", i % puts);
        let (value, proof) = db.get_verified(key.as_bytes()).expect("get_verified");
        assert!(proof.verify(key.as_bytes(), value.as_deref()));
    }
    let verified_kops = verified as f64 / start.elapsed().as_secs_f64() / 1_000.0;

    (put_kops, get_kops, verified_kops)
}

/// Relative slowdown of `on` vs `off` in percent, clamped at zero (noise
/// can make the instrumented run measure faster).
fn overhead_pct(off: f64, on: f64) -> f64 {
    ((off - on) / off * 100.0).max(0.0)
}

/// The exposition smoke: a mixed workload on a durable two-shard
/// `ShardedDb` that touches storage, pipeline, 2PC and proof layers, then
/// a validated snapshot. Returns the JSON exposition.
fn exposition_smoke() -> String {
    let dir = TempDir::new("fig-obs-smoke");
    let config = ShardedConfig::default().with_shards(2);
    let db = ShardedDb::open(dir.path(), config).expect("open sharded db");

    // Storage + pipeline: single-key puts through each shard's pipeline.
    for i in 0..200u32 {
        let key = format!("key-{i:05}");
        let value = format!("value-{i:010}");
        db.put(key.as_bytes(), value.as_bytes()).expect("put");
    }
    // 2PC: cross-shard batches (200 hashed keys are on both shards).
    for batch in 0..8u32 {
        let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..16u32)
            .map(|i| {
                (
                    format!("batch-{batch:02}-{i:02}").into_bytes(),
                    format!("cross-shard-{batch}-{i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).expect("cross-shard batch");
    }
    // Proof layer: sharded point proofs (which also build per-shard ledger
    // proofs) and sharded range proofs.
    for i in 0..40u32 {
        let key = format!("key-{:05}", i * 5);
        let (value, proof) = db.get_verified(key.as_bytes()).expect("get_verified");
        assert!(proof.verify(key.as_bytes(), value.as_deref()));
    }
    for _ in 0..4 {
        let (entries, proof) = db
            .range_verified(b"key-00050", b"key-00090")
            .expect("range_verified");
        assert!(proof.verify(&entries));
    }
    db.flush().expect("flush");

    let snapshot = db.telemetry();
    let names = snapshot.instrument_names();
    for required in REQUIRED_INSTRUMENTS {
        assert!(
            names.iter().any(|name| name == required),
            "telemetry snapshot is missing instrument {required}"
        );
    }
    // The workload must actually have moved the needle in every layer.
    assert!(snapshot.histogram("storage.append_nanos").unwrap().count > 0);
    assert!(snapshot.counter("pipeline.commits").unwrap() > 0);
    assert!(snapshot.counter("twopc.prepares").unwrap() > 0);
    assert!(snapshot.counter("twopc.commits").unwrap() > 0);
    assert!(snapshot.histogram("proof.point_bytes").unwrap().count > 0);
    assert!(
        snapshot
            .histogram("proof.sharded_range_bytes")
            .unwrap()
            .count
            > 0
    );
    snapshot.render_json()
}

fn main() {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let puts: u32 = if smoke { 2_000 } else { 20_000 };
    let gets: u32 = if smoke { 8_000 } else { 80_000 };
    let rounds = 3;

    // Interleave off/on rounds and keep the best of each mode: the paired
    // best-case runs are the fairest overhead comparison on a noisy box.
    let mut best_off = (0f64, 0f64, 0f64);
    let mut best_on = (0f64, 0f64, 0f64);
    for _ in 0..rounds {
        let off = hot_paths_kops(false, puts, gets);
        let on = hot_paths_kops(true, puts, gets);
        best_off = (
            best_off.0.max(off.0),
            best_off.1.max(off.1),
            best_off.2.max(off.2),
        );
        best_on = (
            best_on.0.max(on.0),
            best_on.1.max(on.1),
            best_on.2.max(on.2),
        );
    }

    let mut table = FigureTable::new(
        format!(
            "Telemetry overhead: throughput (x10^3 ops/s), durable store \
             (fsync off), {puts} puts / {gets} gets, best of {rounds}"
        ),
        "Path",
        vec!["telemetry off", "telemetry on", "overhead %"],
    );
    table.add_row(
        "put".to_string(),
        vec![best_off.0, best_on.0, overhead_pct(best_off.0, best_on.0)],
    );
    table.add_row(
        "get".to_string(),
        vec![best_off.1, best_on.1, overhead_pct(best_off.1, best_on.1)],
    );
    table.add_row(
        "get_verified".to_string(),
        vec![best_off.2, best_on.2, overhead_pct(best_off.2, best_on.2)],
    );
    table.print();

    let worst = overhead_pct(best_off.0, best_on.0)
        .max(overhead_pct(best_off.1, best_on.1))
        .max(overhead_pct(best_off.2, best_on.2));
    println!();
    println!("worst-case hot-path overhead: {worst:.2}% (target < 3%)");

    let json = exposition_smoke();
    println!();
    println!("TELEMETRY_JSON_BEGIN");
    println!("{json}");
    println!("TELEMETRY_JSON_END");
    if smoke {
        println!("smoke run complete: all four layers exposed and validated");
    }
}
