//! A miniature version of the paper's evaluation: load the same workload
//! into the immutable KVS, Spitz, the QLDB-like baseline, and the
//! non-intrusive composition, then print the relative cost of reads, writes
//! and verified reads. This is the quickest way to see the Figure 6/8 shape
//! without running the full benchmark harness.
//!
//! Run with: `cargo run --release --example system_comparison`

use spitz::baseline::{ImmutableKvs, NonIntrusiveVdb, QldbBaseline};
use spitz::{ShardedDb, Verifier};
use std::time::Instant;

const RECORDS: usize = 20_000;
const READS: usize = 10_000;

fn record(i: usize) -> (Vec<u8>, Vec<u8>) {
    (format!("{i:08x}").into_bytes(), vec![0xabu8; 20])
}

fn kops(count: usize, elapsed: std::time::Duration) -> f64 {
    count as f64 / elapsed.as_secs_f64() / 1_000.0
}

fn main() {
    println!("loading {RECORDS} records into each system...");
    let kvs = ImmutableKvs::new();
    let spitz = ShardedDb::in_memory(1);
    let qldb = QldbBaseline::new();
    let non_intrusive = NonIntrusiveVdb::new();

    for i in 0..RECORDS {
        let (k, v) = record(i);
        kvs.put(&k, &v);
        spitz.put(&k, &v).unwrap();
        qldb.put(&k, &v);
        non_intrusive.put(&k, &v);
    }
    qldb.seal();

    let keys: Vec<Vec<u8>> = (0..READS).map(|i| record(i * 7 % RECORDS).0).collect();

    // Plain reads.
    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(kvs.get(k));
    }
    println!(
        "read  | immutable KVS        : {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(spitz.get(k).unwrap());
    }
    println!(
        "read  | Spitz                : {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    let mut client = Verifier::new();
    assert!(client.observe_sharded(&spitz.digest()));
    let t = Instant::now();
    for k in &keys {
        let (value, proof) = spitz.get_verified(k).unwrap();
        assert!(client.verify_sharded_read(k, value.as_deref(), &proof));
    }
    println!(
        "read  | Spitz + verification : {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    let t = Instant::now();
    for k in &keys {
        std::hint::black_box(qldb.get(k));
    }
    println!(
        "read  | baseline             : {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    let t = Instant::now();
    for k in &keys {
        let (value, proof) = qldb.get_verified(k).unwrap();
        assert!(proof.verify(k, &value));
    }
    println!(
        "read  | baseline + verify    : {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    let t = Instant::now();
    for k in &keys {
        let (value, proof) = non_intrusive.get_verified(k);
        assert!(proof.verify(k, value.as_deref()));
    }
    println!(
        "read  | non-intrusive + verify: {:8.1} kops/s",
        kops(READS, t.elapsed())
    );

    // Writes of fresh keys.
    let fresh: Vec<(Vec<u8>, Vec<u8>)> = (0..5_000).map(|i| record(RECORDS + i)).collect();
    let t = Instant::now();
    for (k, v) in &fresh {
        spitz.put(k, v).unwrap();
    }
    println!(
        "write | Spitz                : {:8.1} kops/s",
        kops(fresh.len(), t.elapsed())
    );

    let t = Instant::now();
    for (k, v) in &fresh {
        non_intrusive.put(k, v);
    }
    println!(
        "write | non-intrusive        : {:8.1} kops/s",
        kops(fresh.len(), t.elapsed())
    );

    println!("\nexpected shape (paper): KVS fastest; Spitz close behind; verification costs");
    println!("Spitz ~2x, the baseline orders of magnitude; the non-intrusive design pays for");
    println!("every cross-system hop.");
}
