//! Cross-crate integration tests: the full write → ledger → proof → client
//! verification pipeline, system-equivalence between Spitz and the
//! comparison systems, tampering detection end to end, and the telemetry
//! exposition: a mixed workload over every instrumented layer must surface
//! every instrument those layers register — the one required-instrument
//! list in the repository — and a database opened with telemetry off must
//! serve verified reads while recording nothing.

use spitz::baseline::{ImmutableKvs, NonIntrusiveVdb, QldbBaseline};
use spitz::{ColumnType, Record, Schema, ShardedConfig, ShardedDb, SpitzConfig, Value, Verifier};

mod common;
use common::TempDir;

fn record(i: usize) -> (Vec<u8>, Vec<u8>) {
    (
        format!("key-{i:06}").into_bytes(),
        format!("value-{i}").into_bytes(),
    )
}

#[test]
fn spitz_end_to_end_write_read_verify() {
    let db = ShardedDb::in_memory(1);
    let mut client = Verifier::new();

    for batch in (0..2_000).map(record).collect::<Vec<_>>().chunks(100) {
        let digest = db.put_batch(batch.to_vec()).unwrap();
        assert!(client.observe_sharded(&digest), "digests must move forward");
    }
    assert_eq!(db.digest().epoch, 20);

    // Every key is readable, verifiable one by one and in one batch.
    let mut sampled = Vec::new();
    for i in (0..2_000).step_by(97) {
        let (k, v) = record(i);
        assert_eq!(db.get(&k).unwrap(), Some(v.clone()));
        let (value, proof) = db.get_verified(&k).unwrap();
        assert_eq!(value, Some(v.clone()));
        assert!(client.verify_sharded_read(&k, value.as_deref(), &proof));
        sampled.push(k);
    }
    let (values, proof) = db.get_multi_verified(&sampled).unwrap();
    let items: Vec<_> = sampled.into_iter().zip(values).collect();
    assert!(client.verify_sharded_multi(&items, &proof));

    // Range scans with a single combined proof.
    let (entries, proof) = db.range_verified(&record(500).0, &record(600).0).unwrap();
    assert_eq!(entries.len(), 100);
    assert!(client.verify_sharded_range(&entries, &proof));

    // The chain audits clean and historical versions stay readable.
    let ledger = db.shard(0).ledger();
    assert_eq!(ledger.audit_chain(), None);
    let old = ledger.checkout(4).unwrap();
    assert_eq!(old.len(), 500);
    assert_eq!(old.get(&record(499).0), Some(record(499).1));
    assert_eq!(old.get(&record(501).0), None);
}

#[test]
fn all_systems_return_identical_data_for_the_same_workload() {
    let records: Vec<_> = (0..1_000).map(record).collect();

    let spitz = ShardedDb::in_memory(1);
    let kvs = ImmutableKvs::new();
    let qldb = QldbBaseline::new();
    let non_intrusive = NonIntrusiveVdb::new();
    for (k, v) in &records {
        spitz.put(k, v).unwrap();
        kvs.put(k, v);
        qldb.put(k, v);
        non_intrusive.put(k, v);
    }
    qldb.seal();

    for (k, v) in records.iter().step_by(53) {
        assert_eq!(spitz.get(k).unwrap().as_ref(), Some(v));
        assert_eq!(kvs.get(k).as_ref(), Some(v));
        assert_eq!(qldb.get(k).as_ref(), Some(v));
        assert_eq!(non_intrusive.get(k).as_ref(), Some(v));
    }

    // Range results agree (same ordering, same contents).
    let start = record(100).0;
    let end = record(200).0;
    let spitz_range = spitz.range_unverified(&start, &end).unwrap();
    assert_eq!(spitz_range, kvs.range(&start, &end));
    assert_eq!(spitz_range, qldb.range(&start, &end));
    assert_eq!(spitz_range, non_intrusive.range(&start, &end));
    assert_eq!(spitz_range.len(), 100);

    // Verified reads succeed on every verifiable system.
    let (k, v) = record(321);
    let (value, proof) = spitz.get_verified(&k).unwrap();
    assert_eq!(value.as_ref(), Some(&v));
    assert!(proof.verify(&k, value.as_deref()));
    let (value, proof) = qldb.get_verified(&k).unwrap();
    assert_eq!(value, v);
    assert!(proof.verify(&k, &value));
    let (value, proof) = non_intrusive.get_verified(&k);
    assert!(proof.verify(&k, value.as_deref()));
}

#[test]
fn tampering_with_any_layer_is_detected() {
    let db = ShardedDb::in_memory(1);
    db.put_batch((0..200).map(record).collect()).unwrap();
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));

    let (k, _) = record(42);
    let (value, proof) = db.get_verified(&k).unwrap();
    assert!(client.verify_sharded_read(&k, value.as_deref(), &proof));

    // Forged value, forged absence, wrong key.
    assert!(!client.verify_sharded_read(&k, Some(b"forged"), &proof));
    assert!(!client.verify_sharded_read(&k, None, &proof));
    assert!(!client.verify_sharded_read(&record(43).0, value.as_deref(), &proof));

    // A range result with an extra injected row fails.
    let (mut entries, range_proof) = db.range_verified(&record(10).0, &record(20).0).unwrap();
    entries.push((b"injected".to_vec(), b"row".to_vec()));
    assert!(!client.verify_sharded_range(&entries, &range_proof));

    // A range result with a modified row fails.
    let (mut entries, range_proof) = db.range_verified(&record(10).0, &record(20).0).unwrap();
    entries[0].1 = b"forged".to_vec();
    assert!(!client.verify_sharded_range(&entries, &range_proof));
}

#[test]
fn typed_tables_flow_through_the_ledger() {
    let db = ShardedDb::in_memory(1);
    db.create_table(Schema::new(
        "events",
        vec![("kind", ColumnType::Text), ("amount", ColumnType::Integer)],
    ))
    .unwrap();
    for i in 0..100 {
        db.insert_record(
            "events",
            &Record::new(format!("evt-{i:04}"))
                .with(
                    "kind",
                    Value::Text(if i % 2 == 0 { "credit" } else { "debit" }.into()),
                )
                .with("amount", Value::Integer(i)),
        )
        .unwrap();
    }
    // Each record is one ledger block; analytics agree with the raw data.
    assert_eq!(db.digest().epoch, 100);
    assert_eq!(
        db.query_eq("events", "kind", &Value::Text("credit".into()))
            .unwrap()
            .len(),
        50
    );
    assert_eq!(
        db.query_int_range("events", "amount", 0, 10).unwrap().len(),
        10
    );
    assert_eq!(db.shard(0).ledger().audit_chain(), None);

    let rec = db.get_record("events", "evt-0042").unwrap().unwrap();
    assert_eq!(rec.get("amount"), Some(&Value::Integer(42)));
}

#[test]
fn storage_deduplication_bounds_ledger_growth() {
    // The Figure 1 / node-sharing property end to end: updating the same key
    // many times grows storage far slower than inserting distinct keys.
    let updates = ShardedDb::in_memory(1);
    for _ in 0..500usize {
        // Re-writing identical content: the ledger index reaches an identical
        // state each time, so its nodes are deduplicated by content address.
        updates.put(b"same-key", b"same-value").unwrap();
    }
    let distinct = ShardedDb::in_memory(1);
    for i in 0..500usize {
        distinct
            .put(format!("key-{i}").as_bytes(), b"value")
            .unwrap();
    }
    let u = updates.shard(0).storage_stats();
    let d = distinct.shard(0).storage_stats();
    assert!(u.physical_bytes > 0 && d.physical_bytes > 0);
    // Both retain all history (immutable), but dedup keeps repeated content
    // from being stored twice.
    assert!(u.dedup_hits > 0);
}

/// Every instrument the storage, commit-pipeline, 2PC and proof layers
/// register at construction. A name missing from a snapshot means a
/// layer's wiring was silently dropped.
const REQUIRED: &[&str] = &[
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
    "pipeline.group_size",
    "pipeline.flush_nanos",
    "pipeline.queue_depth",
    // ledger: what each sealed block cost
    "ledger.block_writes",
    "ledger.index_nodes_written",
    "ledger.index_bytes_written",
    // 2PC
    "twopc.prepares",
    "twopc.commits",
    "twopc.aborts",
    "twopc.recovered",
    "twopc.in_doubt",
    "twopc.decision_truncations",
    // proof layer
    "proof.sharded_point_build_nanos",
    "proof.sharded_point_bytes",
    "proof.sharded_range_build_nanos",
    "proof.sharded_range_bytes",
    "proof.sharded_multi_build_nanos",
    "proof.sharded_multi_bytes",
];

#[test]
fn mixed_workload_exposes_every_required_instrument() {
    let dir = TempDir::new("telemetry-exposition");
    let config = ShardedConfig::default().with_shards(2);
    let db = ShardedDb::open(dir.path(), config).expect("open sharded db");

    // Storage + pipeline: single-key puts through each shard's pipeline.
    for i in 0..200u32 {
        let key = format!("key-{i:05}");
        let value = format!("value-{i:010}");
        db.put(key.as_bytes(), value.as_bytes()).expect("put");
    }
    // 2PC: cross-shard batches (16 hashed keys land on both shards).
    let before_batches = db.telemetry();
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
    // Each shard's part of a batch is one block and one index apply, so
    // its keys share their paths: index nodes written per key stay below
    // the tree height, which is what every key cost when applied alone.
    let after_batches = db.telemetry();
    let batch_sum = |name: &str| {
        after_batches.histogram(name).unwrap().sum - before_batches.histogram(name).unwrap().sum
    };
    let height = (0..2)
        .map(|shard| {
            let (_, proof) = db.shard(shard).ledger().get_with_proof(b"batch-00-00");
            proof.index_proof.len() as u64
        })
        .min()
        .unwrap();
    assert_eq!(batch_sum("ledger.block_writes"), 8 * 16);
    assert!(
        height >= 2,
        "the shards' trees must have grown past one node"
    );
    assert!(
        batch_sum("ledger.index_nodes_written") < height * batch_sum("ledger.block_writes"),
        "{} nodes for {} batched keys in trees of height {height}",
        batch_sum("ledger.index_nodes_written"),
        batch_sum("ledger.block_writes"),
    );
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
    for required in REQUIRED {
        assert!(
            names.iter().any(|name| name == required),
            "telemetry snapshot is missing instrument {required}"
        );
    }
    // The workload must actually have moved the needle in every layer.
    assert!(snapshot.histogram("storage.append_nanos").unwrap().count > 0);
    assert!(snapshot.counter("pipeline.commits").unwrap() > 0);
    assert!(
        snapshot
            .histogram("ledger.index_bytes_written")
            .unwrap()
            .sum
            > 0
    );
    assert!(snapshot.counter("twopc.prepares").unwrap() > 0);
    assert!(snapshot.counter("twopc.commits").unwrap() > 0);
    assert!(
        snapshot
            .histogram("proof.sharded_point_bytes")
            .unwrap()
            .count
            > 0
    );
    let sharded_ranges = snapshot.histogram("proof.sharded_range_bytes").unwrap();
    assert!(sharded_ranges.count > 0);

    // What a scrape endpoint would serve: every number is finite (Rust
    // prints the non-finite floats as `NaN` and `inf`).
    let json = snapshot.render_json();
    for token in [":NaN", ":inf", ":-inf"] {
        assert!(!json.contains(token), "non-finite value in exposition");
    }
}

#[test]
fn disabled_telemetry_serves_verified_reads_and_records_nothing() {
    let dir = TempDir::new("telemetry-off");
    let config = ShardedConfig::default()
        .with_shards(1)
        .with_spitz(SpitzConfig::default().with_telemetry(false));
    let db = ShardedDb::open(dir.path(), config).expect("open durable db");
    for i in 0..50u32 {
        let key = format!("key-{i:05}");
        db.put(key.as_bytes(), b"value").expect("put");
    }
    for i in 0..50u32 {
        let key = format!("key-{i:05}");
        let (value, proof) = db.get_verified(key.as_bytes()).expect("get_verified");
        assert_eq!(value.as_deref(), Some(&b"value"[..]));
        assert!(proof.verify(key.as_bytes(), value.as_deref()));
    }
    db.flush().expect("flush");

    let snapshot = db.telemetry();
    assert!(snapshot.counters.iter().all(|(_, v)| *v == 0));
    assert!(snapshot.gauges.iter().all(|(_, v)| *v == 0));
    assert!(snapshot.float_gauges.iter().all(|(_, v)| v.is_none()));
    assert!(snapshot.histograms.iter().all(|h| h.count == 0));
    assert!(snapshot.events.is_empty());
}
