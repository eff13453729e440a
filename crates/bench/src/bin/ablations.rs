//! Ablation studies for the paper's design choices:
//!
//! 1. SIRI structure for the ledger: POS-Tree vs MPT vs MBT (the paper's
//!    Section 3.1 claims POS-Tree has the best overall performance).
//! 2. Online vs deferred verification (Section 5.3).
//! 3. Concurrency-control scheme: MVCC+OCC vs MVCC+TO vs MVCC+2PL
//!    (Section 5.2).

use std::sync::Arc;

use spitz_bench::workload::{KeyValueWorkload, WorkloadConfig};
use spitz_bench::{measure_throughput, median_throughput, FigureTable};
use spitz_index::SiriKind;
use spitz_ledger::{DeferredVerifier, Ledger};
use spitz_storage::InMemoryChunkStore;
use spitz_txn::{CcScheme, IsolationLevel, MvccStore, TimestampOracle, TransactionManager};

fn siri_ablation(records: usize) {
    let mut table = FigureTable::new(
        format!("Ablation: ledger SIRI structure ({records} records)"),
        "Operation",
        vec!["POS-Tree", "MPT", "MBT"],
    );
    let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(records));
    let keys = workload.read_keys(2_000);
    let ranges = workload.range_queries(50, 0.001);

    let mut write_row = Vec::new();
    let mut read_row = Vec::new();
    let mut verify_row = Vec::new();
    let mut range_row = Vec::new();
    for kind in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        let ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
        // One pass: each write appends a block.
        let write = measure_throughput(workload.records.len(), |i| {
            ledger
                .try_append_block(vec![workload.records[i].clone()], "PUT")
                .expect("append block");
        });
        let read = median_throughput(keys.len(), |i| {
            std::hint::black_box(ledger.get(&keys[i]));
        });
        let verify = median_throughput(keys.len(), |i| {
            let (value, proof) = ledger.get_with_proof(&keys[i]);
            assert!(proof.verify(&keys[i], value.as_deref()));
        });
        let range = median_throughput(ranges.len(), |i| {
            std::hint::black_box(ledger.range(&ranges[i].0, &ranges[i].1));
        });
        write_row.push(write);
        read_row.push(read);
        verify_row.push(verify);
        range_row.push(range);
    }
    table.add_row("write (kops/s)", write_row);
    table.add_row("read (kops/s)", read_row);
    table.add_row("verified read", verify_row);
    table.add_row("range 0.1%", range_row);
    table.print();
    println!();
}

/// Proof-size ablation (and the CI regression gate): mean single-key
/// proof bytes per SIRI structure, plus the batched-proof comparison the
/// proof-engineering work targets — a 16-adjacent-key batched
/// [`LedgerProof`] (shared upper-tree nodes) against independent
/// single-key proofs, each
/// the mean of 64 windows of adjacent keys — and the proof bytes a
/// 500-entry scan carries per entry, the answer itself excluded.
///
/// With `budget` set (CI mode), named metrics are checked against the
/// checked-in ceiling file and the batched<4×singles property is
/// asserted; any violation fails the process.
///
/// [`LedgerProof`]: spitz_ledger::LedgerProof
fn proof_size_ablation(records: usize, budget: Option<&str>) -> bool {
    let mut table = FigureTable::new(
        format!("Proof sizes: bytes per proof ({records} records)"),
        "Metric",
        vec!["POS-Tree", "MPT", "MBT"],
    );
    let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(records));
    let sample = workload.read_keys(256);
    // Windows of 16 lexicographically adjacent present keys — the
    // shared-upper-tree case batching is built for — spread across the key
    // space: the batch rows are means over all 64 (one window says little
    // about a POS-tree, whose node sizes are geometric: its 64 batches
    // range from 2.6 to 6 KB).
    let mut sorted: Vec<Vec<u8>> = workload.records.iter().map(|r| r.0.clone()).collect();
    sorted.sort();
    let windows: Vec<&[Vec<u8>]> = (0..64)
        .map(|w| &sorted[w * (sorted.len() - 16) / 64..][..16])
        .collect();
    // A 500-entry scan from the middle of the key space.
    let (scan_start, scan_end) = (&sorted[sorted.len() / 2], &sorted[sorted.len() / 2 + 500]);
    // Dense-key workload: hash-derived keys give uniform nibbles, so MPT
    // branches near the root fill all 16 slots. The bench workload's
    // hex-ASCII keys only ever populate ~2-10 slots per branch, which
    // understates the sparse-branch win (a half-empty branch never had 15
    // siblings to elide in the first place).
    let dense: Vec<(Vec<u8>, Vec<u8>)> = (0..records)
        .map(|i| {
            let h = spitz_crypto::sha256(&(i as u64).to_le_bytes());
            let b = h.as_bytes();
            (b[..8].to_vec(), b[8..28].to_vec())
        })
        .collect();
    let dense_sample: Vec<Vec<u8>> = dense
        .iter()
        .step_by(records / 256)
        .map(|r| r.0.clone())
        .collect();

    let mut point_row = Vec::new();
    let mut index_row = Vec::new();
    let mut dense_row = Vec::new();
    let mut multi_row = Vec::new();
    let mut singles4_row = Vec::new();
    let mut singles16_row = Vec::new();
    let mut range_row = Vec::new();
    for kind in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        let ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
        for batch in workload.records.chunks(256) {
            ledger
                .try_append_block(batch.to_vec(), "load")
                .expect("load block");
        }
        let mut total = 0usize;
        let mut index_total = 0usize;
        for key in &sample {
            let (value, proof) = ledger.get_with_proof(key);
            assert!(proof.verify(key, value.as_deref()));
            total += proof.encoded_len();
            index_total += proof.index_proof.encoded_len();
        }
        let point = total as f64 / sample.len() as f64;
        let index_point = index_total as f64 / sample.len() as f64;

        let dense_ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
        for batch in dense.chunks(256) {
            dense_ledger
                .try_append_block(batch.to_vec(), "load")
                .expect("load block");
        }
        let mut dense_total = 0usize;
        for key in &dense_sample {
            let (value, proof) = dense_ledger.get_with_proof(key);
            assert!(proof.verify(key, value.as_deref()));
            dense_total += proof.index_proof.encoded_len();
        }
        let dense_point = dense_total as f64 / dense_sample.len() as f64;

        let (mut multi16, mut singles4, mut singles16) = (0usize, 0usize, 0usize);
        for keys in &windows {
            let (values, multi) = ledger.get_multi_with_proof(keys);
            let items: Vec<(Vec<u8>, Option<Vec<u8>>)> = keys.iter().cloned().zip(values).collect();
            assert!(multi.verify_batch(&items));
            multi16 += multi.encoded_len();
            let singles: Vec<usize> = keys
                .iter()
                .map(|key| ledger.get_with_proof(key).1.encoded_len())
                .collect();
            singles4 += singles[..4].iter().sum::<usize>();
            singles16 += singles.iter().sum::<usize>();
        }
        let per_window = |total: usize| total as f64 / windows.len() as f64;

        let (entries, range_proof) = ledger.range_with_proof(scan_start, scan_end);
        assert_eq!(entries.len(), 500);
        assert!(range_proof.verify(&entries));
        let range_per_entry = range_proof.encoded_len() as f64 / entries.len() as f64;

        point_row.push(point);
        index_row.push(index_point);
        dense_row.push(dense_point);
        multi_row.push(per_window(multi16));
        singles4_row.push(per_window(singles4));
        singles16_row.push(per_window(singles16));
        range_row.push(range_per_entry);
    }
    table.add_row("point proof (mean)", point_row.clone());
    table.add_row("index proof only", index_row.clone());
    table.add_row("index, dense keys", dense_row.clone());
    table.add_row("multi, 16 adjacent", multi_row.clone());
    table.add_row("4 x single", singles4_row.clone());
    table.add_row("16 x single", singles16_row.clone());
    table.add_row("range 500, per entry", range_row.clone());
    table.print();
    println!();

    let Some(budget_path) = budget else {
        return true;
    };
    // CI gate: named ceilings from the checked-in budget file, plus the
    // batching property (a 16-key batch must beat 4 independent singles).
    let measured = [
        ("pos_point_bytes", point_row[0]),
        ("mpt_point_bytes", point_row[1]),
        ("mbt_point_bytes", point_row[2]),
        ("mpt_index_point_bytes", index_row[1]),
        ("mpt_dense_point_bytes", dense_row[1]),
        ("pos_multi16_bytes", multi_row[0]),
        ("mpt_multi16_bytes", multi_row[1]),
        ("mbt_multi16_bytes", multi_row[2]),
        ("pos_range500_bytes_per_entry", range_row[0]),
        ("mpt_range500_bytes_per_entry", range_row[1]),
        ("mbt_range500_bytes_per_entry", range_row[2]),
    ];
    let text = std::fs::read_to_string(budget_path)
        .unwrap_or_else(|e| panic!("cannot read proof-size budget {budget_path}: {e}"));
    let mut ok = true;
    let mut checked = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(limit)) = (parts.next(), parts.next()) else {
            panic!("malformed budget line: {line:?}");
        };
        let limit: f64 = limit
            .parse()
            .unwrap_or_else(|e| panic!("malformed budget limit in {line:?}: {e}"));
        let Some((_, value)) = measured.iter().find(|(n, _)| *n == name) else {
            panic!("unknown budget metric {name:?}");
        };
        checked += 1;
        if *value > limit {
            println!("FAIL {name}: {value:.1} B exceeds budget {limit:.1} B");
            ok = false;
        } else {
            println!("ok {name}: {value:.1} B within budget {limit:.1} B");
        }
    }
    assert!(checked > 0, "budget file {budget_path} contains no metrics");
    // Prefix-sharing structures must amortize 16 adjacent keys below even
    // 4 independent singles. MBT hash-partitions, so adjacency buys no
    // shared paths there — its batch only has de-duplication to win with,
    // and is gated against the 16-singles sum instead.
    for (kind, i, against, limit_row) in [
        ("POS-Tree", 0, "4 x single", &singles4_row),
        ("MPT", 1, "4 x single", &singles4_row),
        ("MBT", 2, "16 x single", &singles16_row),
    ] {
        if multi_row[i] >= limit_row[i] {
            println!(
                "FAIL {kind}: 16-key multi proof ({:.0} B) not cheaper than {against} ({:.0} B)",
                multi_row[i], limit_row[i]
            );
            ok = false;
        } else {
            println!(
                "ok {kind}: 16-key multi proof {:.0} B < {against} {:.0} B",
                multi_row[i], limit_row[i]
            );
        }
    }
    ok
}

fn verification_ablation(records: usize) {
    let mut table = FigureTable::new(
        format!("Ablation: online vs deferred verification ({records} reads)"),
        "Scheme",
        vec!["kops/s"],
    );
    let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(records));
    let ledger = Ledger::new(InMemoryChunkStore::shared());
    for batch in workload.records.chunks(256) {
        ledger
            .try_append_block(batch.to_vec(), "load")
            .expect("load block");
    }
    let keys = workload.read_keys(5_000);

    let online = measure_throughput(keys.len(), |i| {
        let (value, proof) = ledger.get_with_proof(&keys[i]);
        assert!(proof.verify(&keys[i], value.as_deref()));
    });

    let verifier = DeferredVerifier::new();
    let deferred = measure_throughput(keys.len(), |i| {
        let (value, proof) = ledger.get_with_proof(&keys[i]);
        verifier.submit(keys[i].clone(), value, proof);
        if verifier.pending_count() >= 512 {
            assert!(verifier.verify_batch().all_ok());
        }
    });
    assert!(verifier.verify_batch().all_ok());

    table.add_row("online", vec![online]);
    table.add_row("deferred (batch 512)", vec![deferred]);
    table.print();
    println!();
}

fn cc_ablation(transactions: usize) {
    let mut table = FigureTable::new(
        format!("Ablation: concurrency control ({transactions} txns, 10% hot keys)"),
        "Scheme",
        vec!["kops/s", "commit %"],
    );
    for (name, scheme) in [
        ("MVCC+OCC", CcScheme::Occ),
        ("MVCC+T/O", CcScheme::TimestampOrdering),
        ("MVCC+2PL", CcScheme::TwoPhaseLocking),
    ] {
        let tm = TransactionManager::new(
            Arc::new(MvccStore::new()),
            Arc::new(TimestampOracle::new()),
            scheme,
        );
        let throughput = measure_throughput(transactions, |i| {
            let mut txn = tm.begin(IsolationLevel::Serializable);
            // Read-modify-write of a hot key plus a private key.
            let hot = format!("hot-{}", i % 10);
            let private = format!("private-{i}");
            let _ = tm.read(&mut txn, hot.as_bytes());
            if tm.write(&mut txn, hot.as_bytes(), vec![1]).is_ok()
                && tm.write(&mut txn, private.as_bytes(), vec![2]).is_ok()
            {
                let _ = tm.commit(&mut txn);
            } else {
                tm.abort(&mut txn);
            }
        });
        let stats = tm.stats();
        let commit_pct =
            100.0 * stats.committed as f64 / (stats.committed + stats.aborted).max(1) as f64;
        table.add_row(name, vec![throughput, commit_pct]);
    }
    table.print();
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let records = if full { 100_000 } else { 20_000 };
    // CI mode: only the proof-size table, gated by the checked-in budget.
    if let Some(pos) = args.iter().position(|a| a == "--proof-sizes") {
        let budget = args.get(pos + 1).map(|s| s.as_str());
        if !proof_size_ablation(records, budget) {
            std::process::exit(1);
        }
        return;
    }
    siri_ablation(records);
    proof_size_ablation(records, None);
    verification_ablation(records);
    cc_ablation(if full { 200_000 } else { 50_000 });
}
