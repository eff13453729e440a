//! Telemetry walkthrough: what an operator sees after a mixed workload.
//!
//! Run with `cargo run --release --example telemetry`.
//!
//! Opens a durable two-shard `ShardedDb` (telemetry is on by default),
//! drives every instrumented layer — storage appends and cache reads,
//! per-shard group-commit pipelines, a few cross-shard 2PC batches, and
//! point/range proofs with their wire sizes — then prints the text
//! exposition from a single deployment-wide snapshot. The same snapshot
//! also renders as JSON (`render_json()`), which is what a scrape
//! endpoint would serve; `tests/end_to_end.rs` validates that form.

use spitz::{ShardedConfig, ShardedDb, Verifier};

fn main() {
    let dir = std::env::temp_dir().join(format!("spitz-telemetry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ShardedConfig::default().with_shards(2);
    let db = ShardedDb::open(&dir, config).expect("open durable sharded db");

    // Storage + commit pipeline: single-key puts routed across the shards.
    for i in 0..300u32 {
        let key = format!("sensor/{i:05}");
        let value = format!("reading={};unit=kPa", 90 + i % 20);
        db.put(key.as_bytes(), value.as_bytes()).expect("put");
    }

    // 2PC: atomic cross-shard batches (hash routing spreads each batch
    // over both shards, so every batch runs prepare/commit).
    for batch in 0..6u32 {
        let writes: Vec<(Vec<u8>, Vec<u8>)> = (0..12u32)
            .map(|i| {
                (
                    format!("rollup/{batch:02}/{i:02}").into_bytes(),
                    format!("window={batch};count={i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).expect("cross-shard batch");
    }

    // Proof layer: verified point reads and a verified cross-shard range,
    // checked by a client the way a real deployment would.
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));
    for i in 0..25u32 {
        let key = format!("sensor/{:05}", i * 7);
        let (value, proof) = db.get_verified(key.as_bytes()).expect("get_verified");
        assert!(proof.verify(key.as_bytes(), value.as_deref()));
    }
    let (entries, proof) = db
        .range_verified(b"sensor/00100", b"sensor/00160")
        .expect("range_verified");
    assert!(proof.verify(&entries), "range proof must verify");
    println!(
        "workload done: 300 puts, 6 cross-shard batches, 25 verified gets, \
         1 verified range ({} entries)\n",
        entries.len()
    );

    // Flush so the pipeline/fsync instruments reflect a settled system,
    // then take one consistent snapshot of the shared registry.
    db.flush().expect("flush");
    let snapshot = db.telemetry();
    println!("{}", snapshot.render_text());

    // A few of the questions the snapshot answers directly:
    let commits = snapshot.counter("pipeline.commits").unwrap_or(0);
    let prepares = snapshot.counter("twopc.prepares").unwrap_or(0);
    let point = snapshot
        .histogram("proof.sharded_point_bytes")
        .expect("proof.sharded_point_bytes");
    println!(
        "pipeline committed {commits} writes; 2PC ran {prepares} prepares; \
         mean sharded point proof = {} bytes over {} reads",
        point.sum.checked_div(point.count).unwrap_or(0),
        point.count
    );

    let _ = std::fs::remove_dir_all(&dir);
}
