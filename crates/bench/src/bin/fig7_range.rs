//! Figure 7: range query performance (selectivity 0.1%).
//!
//! The same systems as Figure 6; every operation is a range scan on the
//! primary key covering 0.1% of the records. Spitz's unified index returns
//! the proofs of the resultant records with the same traversal; the baseline
//! must fetch one ledger proof per resultant record.

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
        vec![10_000, 20_000, 40_000, 80_000]
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let queries = if full { 2_000 } else { 500 };

    let mut table = FigureTable::new(
        "Figure 7: range query throughput (x10^3 ops/s, selectivity 0.1%)",
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
        let ranges = workload.range_queries(queries, 0.001);

        let kvs = load_kvs(&workload);
        let spitz = load_spitz(&workload);
        let qldb = load_qldb(&workload);

        let kvs_scan = measure_throughput(ranges.len(), |i| {
            std::hint::black_box(kvs.range(&ranges[i].0, &ranges[i].1));
        });
        let spitz_scan = measure_throughput(ranges.len(), |i| {
            std::hint::black_box(spitz.range_unverified(&ranges[i].0, &ranges[i].1).unwrap());
        });
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&spitz.digest()));
        let spitz_scan_verify = measure_throughput(ranges.len(), |i| {
            let (entries, proof) = spitz.range_verified(&ranges[i].0, &ranges[i].1).unwrap();
            assert!(client.verify_sharded_range(&entries, &proof));
        });
        let qldb_scan = measure_throughput(ranges.len(), |i| {
            std::hint::black_box(qldb.range(&ranges[i].0, &ranges[i].1));
        });
        let qldb_scan_verify = measure_throughput(ranges.len(), |i| {
            let results = qldb.range_verified(&ranges[i].0, &ranges[i].1);
            for (k, v, proof) in &results {
                assert!(proof.verify(k, v));
            }
        });

        table.add_row(
            records.to_string(),
            vec![
                kvs_scan,
                spitz_scan,
                spitz_scan_verify,
                qldb_scan,
                qldb_scan_verify,
            ],
        );
        eprintln!("finished {records} records");
    }

    table.print();
}
