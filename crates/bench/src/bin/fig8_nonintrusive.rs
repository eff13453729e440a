//! Figure 8: non-intrusive design vs. Spitz.
//!
//! The non-intrusive VDB maintains an unmodified underlying database plus a
//! separate ledger database; every verified operation crosses the boundary
//! between the two systems. Spitz answers the same requests within a single
//! system.

use spitz_bench::systems::{load_nonintrusive, load_spitz};
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
        "Figure 8(a): read throughput (x10^3 ops/s)",
        "#Records",
        vec![
            "Spitz",
            "Spitz-verify",
            "Non-intrusive",
            "Non-intrusive-verify",
        ],
    );
    let mut write_table = FigureTable::new(
        "Figure 8(b): write throughput (x10^3 ops/s)",
        "#Records",
        vec![
            "Spitz",
            "Spitz-verify",
            "Non-intrusive",
            "Non-intrusive-verify",
        ],
    );

    for records in sizes(full) {
        let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(records));
        let keys = workload.read_keys(read_ops);
        let writes = workload.write_records(write_ops);

        let spitz = load_spitz(&workload);
        let non_intrusive = load_nonintrusive(&workload);

        let spitz_read = measure_throughput(keys.len(), |i| {
            std::hint::black_box(spitz.get(&keys[i]).unwrap());
        });
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&spitz.digest()));
        let spitz_read_verify = measure_throughput(keys.len(), |i| {
            let (value, proof) = spitz.get_verified(&keys[i]).unwrap();
            assert!(client.verify_sharded_read(&keys[i], value.as_deref(), &proof));
        });
        let ni_read = measure_throughput(keys.len(), |i| {
            std::hint::black_box(non_intrusive.get(&keys[i]));
        });
        let ni_read_verify = measure_throughput(keys.len(), |i| {
            let (value, proof) = non_intrusive.get_verified(&keys[i]);
            assert!(proof.verify(&keys[i], value.as_deref()));
        });
        read_table.add_row(
            records.to_string(),
            vec![spitz_read, spitz_read_verify, ni_read, ni_read_verify],
        );

        let spitz_write = measure_throughput(writes.len(), |i| {
            spitz.put(&writes[i].0, &writes[i].1).unwrap();
        });
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&spitz.digest()));
        let spitz_write_verify = measure_throughput(writes.len(), |i| {
            spitz.put(&writes[i].0, &writes[i].1).unwrap();
            assert!(client.observe_sharded(&spitz.digest()));
        });
        let ni_write = measure_throughput(writes.len(), |i| {
            non_intrusive.put(&writes[i].0, &writes[i].1);
        });
        let ni_write_verify = measure_throughput(writes.len(), |i| {
            let digest = non_intrusive.put(&writes[i].0, &writes[i].1);
            let (value, proof) = non_intrusive.get_verified(&writes[i].0);
            assert!(proof.verify(&writes[i].0, value.as_deref()));
            std::hint::black_box(digest);
        });
        write_table.add_row(
            records.to_string(),
            vec![spitz_write, spitz_write_verify, ni_write, ni_write_verify],
        );
        eprintln!("finished {records} records");
    }

    read_table.print();
    println!();
    write_table.print();
}
