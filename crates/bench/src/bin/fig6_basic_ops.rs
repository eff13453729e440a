//! Figure 6: basic operations in the single-thread setup.
//!
//! Read-only (Figure 6a) and write-only (Figure 6b) throughput for the
//! immutable KVS, Spitz (with and without verification) and the QLDB-like
//! baseline (with and without verification), while the initial database size
//! grows from 10,000 to 1,280,000 records.
//!
//! `cargo run -p spitz-bench --release --bin fig6_basic_ops [-- --full]`
//! The default sweep stops at 160,000 records so it finishes in seconds;
//! `--full` runs the paper's full x axis.

use spitz_bench::systems::{load_kvs, load_qldb, load_spitz};
use spitz_bench::workload::{KeyValueWorkload, WorkloadConfig};
use spitz_bench::{measure_throughput, FigureTable};
use spitz_core::proof::Verifier;

fn sizes(full: bool) -> Vec<usize> {
    if full {
        vec![
            10_000, 20_000, 40_000, 80_000, 160_000, 320_000, 640_000, 1_280_000,
        ]
    } else {
        vec![10_000, 20_000, 40_000, 80_000, 160_000]
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let read_ops = if full { 50_000 } else { 20_000 };
    let write_ops = if full { 20_000 } else { 5_000 };

    let mut read_table = FigureTable::new(
        "Figure 6(a): read throughput (x10^3 ops/s)",
        "#Records",
        vec![
            "Immutable KVS",
            "Spitz",
            "Spitz-verify",
            "Baseline",
            "Baseline-verify",
        ],
    );
    let mut write_table = FigureTable::new(
        "Figure 6(b): write throughput (x10^3 ops/s)",
        "#Records",
        vec![
            "Immutable KVS",
            "Spitz",
            "Spitz-verify",
            "Baseline",
            "Baseline-verify",
        ],
    );

    for records in sizes(full) {
        let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(records));
        let keys = workload.read_keys(read_ops);
        let writes = workload.write_records(write_ops);

        let kvs = load_kvs(&workload);
        let spitz = load_spitz(&workload);
        let qldb = load_qldb(&workload);

        // ------------------------- reads -------------------------
        let kvs_read = measure_throughput(keys.len(), |i| {
            std::hint::black_box(kvs.get(&keys[i]));
        });
        let spitz_read = measure_throughput(keys.len(), |i| {
            std::hint::black_box(spitz.get(&keys[i]).unwrap());
        });
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&spitz.digest()));
        let spitz_read_verify = measure_throughput(keys.len(), |i| {
            let (value, proof) = spitz.get_verified(&keys[i]).unwrap();
            assert!(client.verify_sharded_read(&keys[i], value.as_deref(), &proof));
        });
        let qldb_read = measure_throughput(keys.len(), |i| {
            std::hint::black_box(qldb.get(&keys[i]));
        });
        let qldb_read_verify = measure_throughput(keys.len(), |i| {
            let (value, proof) = qldb.get_verified(&keys[i]).expect("loaded key");
            assert!(proof.verify(&keys[i], &value));
        });
        read_table.add_row(
            records.to_string(),
            vec![
                kvs_read,
                spitz_read,
                spitz_read_verify,
                qldb_read,
                qldb_read_verify,
            ],
        );

        // ------------------------- writes ------------------------
        let kvs_write = measure_throughput(writes.len(), |i| {
            kvs.put(&writes[i].0, &writes[i].1);
        });
        let spitz_write = measure_throughput(writes.len(), |i| {
            spitz.put(&writes[i].0, &writes[i].1).unwrap();
        });
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&spitz.digest()));
        let spitz_write_verify = measure_throughput(writes.len(), |i| {
            spitz.put(&writes[i].0, &writes[i].1).unwrap();
            assert!(client.observe_sharded(&spitz.digest()));
        });
        let qldb_write = measure_throughput(writes.len(), |i| {
            qldb.put(&writes[i].0, &writes[i].1);
        });
        let qldb_write_verify = measure_throughput(writes.len(), |i| {
            qldb.put(&writes[i].0, &writes[i].1);
            qldb.seal();
            let (value, proof) = qldb.get_verified(&writes[i].0).expect("just written");
            assert!(proof.verify(&writes[i].0, &value));
        });
        write_table.add_row(
            records.to_string(),
            vec![
                kvs_write,
                spitz_write,
                spitz_write_verify,
                qldb_write,
                qldb_write_verify,
            ],
        );
        eprintln!("finished {records} records");
    }

    read_table.print();
    println!();
    write_table.print();
}
