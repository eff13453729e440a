//! Property-based tests over the core invariants of the reproduction:
//! Merkle proof soundness, SIRI structural invariance and node sharing,
//! storage round-trips, MVCC snapshot semantics, and the typed table layer
//! against a naive model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use spitz::crypto::merkle::MerkleTree;
use spitz::crypto::sha256;
use spitz::index::codec::{self, Reader};
use spitz::index::siri::SiriIndex;
use spitz::index::{PosTree, SiriKind};
use spitz::storage::{ChunkStore, Chunker, ChunkerConfig, InMemoryChunkStore, VBlob};
use spitz::txn::MvccStore;
use spitz::{
    ColumnType, DurabilityPolicy, Ledger, Record, Schema, ShardedConfig, ShardedDb, SpitzConfig,
    Value,
};

mod common;
use common::{TempDir, SHARD_COUNTS};

/// Text values that share prefixes with each other (and the empty string).
const TEXT_PREFIXES: [&str; 4] = ["", "icd", "icd10/", "icd10/E11"];

/// Integer values at the edges of the order: the extremes, around zero,
/// small negatives, and anything.
fn model_integer(choice: u8, payload: i64) -> i64 {
    match choice {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        3 => 0,
        4 => payload % 100 - 100,
        _ => payload,
    }
}

/// `db`'s typed reads and queries over table `t` equal a naive scan of
/// `versions`, every committed record in commit order.
fn assert_table_matches_model(db: &ShardedDb, versions: &[Record], context: &str) {
    let latest: BTreeMap<&String, &Record> = versions.iter().map(|r| (&r.primary_key, r)).collect();
    for (pk, record) in &latest {
        let got = db.get_record("t", pk).unwrap();
        assert_eq!(got.as_ref(), Some(*record), "{context}: get_record({pk})");
    }
    assert_eq!(db.get_record("t", "absent").unwrap(), None, "{context}");

    // Each query lists, sorted, the keys that held a matching value in
    // some version.
    let scan = |hit: &dyn Fn(&Record) -> bool| -> Vec<String> {
        let keys: BTreeSet<&String> = versions
            .iter()
            .filter(|r| hit(r))
            .map(|r| &r.primary_key)
            .collect();
        keys.into_iter().cloned().collect()
    };
    let mut texts: BTreeSet<Value> = versions.iter().map(|r| r.values["name"].clone()).collect();
    texts.insert(Value::Text("icd10/E11.9-never-written".into()));
    for text in &texts {
        let got = db.query_eq("t", "name", text).unwrap();
        assert_eq!(
            got,
            scan(&|r| r.get("name") == Some(text)),
            "{context}: = {text:?}"
        );
    }
    let mut bounds: BTreeSet<i64> = [i64::MIN, i64::MAX, -1, 0, 1].into();
    for r in versions.iter().take(8) {
        if let Some(Value::Integer(n)) = r.get("n") {
            bounds.extend([*n, n.saturating_add(1)]);
        }
    }
    for &low in &bounds {
        for &high in &bounds {
            let got = db.query_int_range("t", "n", low, high).unwrap();
            let expected =
                scan(&|r| matches!(r.get("n"), Some(Value::Integer(n)) if (low..high).contains(n)));
            assert_eq!(got, expected, "{context}: n in {low}..{high}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever bytes we store in a VBlob, we read back exactly, and writing
    /// the same bytes twice costs no extra physical storage.
    #[test]
    fn vblob_roundtrip_and_dedup(data in proptest::collection::vec(any::<u8>(), 0..40_000)) {
        let store = InMemoryChunkStore::new();
        let cfg = ChunkerConfig::default();
        let blob = VBlob::write(&store, &data, &cfg).unwrap();
        prop_assert_eq!(VBlob::read(&store, &blob.root()).unwrap(), data.clone());
        let physical = store.stats().physical_bytes;
        VBlob::write(&store, &data, &cfg).unwrap();
        prop_assert_eq!(store.stats().physical_bytes, physical);
    }

    /// The POS-Tree root is a pure function of the key/value set,
    /// independent of insertion order, and every inserted key is readable
    /// with a verifying proof.
    #[test]
    fn pos_tree_is_order_independent_and_provable(
        keys in proptest::collection::btree_set(proptest::collection::vec(1u8..255, 1..12), 1..120),
        seed in any::<u64>(),
    ) {
        let entries: Vec<(Vec<u8>, Vec<u8>)> = keys
            .iter()
            .map(|k| (k.clone(), spitz::crypto::sha256(k).as_bytes()[..8].to_vec()))
            .collect();

        let mut forward = PosTree::new(InMemoryChunkStore::shared());
        for (k, v) in &entries {
            forward.try_insert(k.clone(), v.clone()).unwrap();
        }
        let mut shuffled = entries.clone();
        // Deterministic shuffle from the seed.
        for i in (1..shuffled.len()).rev() {
            let j = (seed as usize).wrapping_mul(i).wrapping_add(i * 7919) % (i + 1);
            shuffled.swap(i, j);
        }
        let mut reordered = PosTree::new(InMemoryChunkStore::shared());
        for (k, v) in &shuffled {
            reordered.try_insert(k.clone(), v.clone()).unwrap();
        }
        prop_assert_eq!(forward.root(), reordered.root());

        let root = forward.root();
        for (k, v) in entries.iter().take(10) {
            let (value, proof) = forward.get_with_proof(k);
            prop_assert_eq!(value.as_ref(), Some(v));
            prop_assert!(PosTree::verify_proof(root, k, value.as_deref(), &proof));
            prop_assert!(!PosTree::verify_proof(root, k, Some(b"forged"), &proof));
        }
    }

    /// Ledger proofs verify for every committed key and never verify for a
    /// perturbed value.
    #[test]
    fn ledger_proofs_are_sound(
        entries in proptest::collection::btree_map(
            proptest::collection::vec(1u8..255, 1..10),
            proptest::collection::vec(any::<u8>(), 0..32),
            1..60,
        )
    ) {
        let ledger = Ledger::new(InMemoryChunkStore::shared());
        let writes: Vec<_> = entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        ledger.try_append_block(writes, "proptest").unwrap();
        for (k, v) in entries.iter().take(12) {
            let (value, proof) = ledger.get_with_proof(k);
            prop_assert_eq!(value.as_ref(), Some(v));
            prop_assert!(proof.verify(k, value.as_deref()));
            let mut forged = v.clone();
            forged.push(0xFF);
            prop_assert!(!proof.verify(k, Some(&forged)));
        }
    }

    /// MVCC snapshot reads always return the newest version at or below the
    /// snapshot timestamp.
    #[test]
    fn mvcc_snapshot_semantics(timestamps in proptest::collection::btree_set(1u64..1000, 1..50)) {
        let store = MvccStore::new();
        let ordered: Vec<u64> = timestamps.iter().copied().collect();
        for ts in &ordered {
            store.install(b"key", *ts, ts.to_be_bytes().to_vec());
        }
        for probe in [0u64, 1, 57, 500, 999, 1000, u64::MAX] {
            let expected = ordered.iter().rev().find(|ts| **ts <= probe);
            let got = store.read_at(b"key", probe).map(|v| v.commit_ts);
            prop_assert_eq!(got, expected.copied());
        }
    }

    /// The key/value API of a one-shard database is consistent with a plain
    /// map for any sequence of unique-key puts.
    #[test]
    fn spitz_matches_a_model_map(
        entries in proptest::collection::btree_map(
            "[a-z]{3,10}",
            proptest::collection::vec(any::<u8>(), 1..24),
            1..40,
        )
    ) {
        let db = ShardedDb::in_memory(1);
        for (k, v) in &entries {
            db.put(k.as_bytes(), v).unwrap();
        }
        for (k, v) in &entries {
            prop_assert_eq!(db.get(k.as_bytes()).unwrap(), Some(v.clone()));
        }
        prop_assert_eq!(db.get(b"@not-a-key").unwrap(), None);
        // The range over the full keyspace returns exactly the model's
        // entries in sorted order.
        let all = db.range_unverified(&[], &[0xffu8; 16]).unwrap();
        let model: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.clone()))
            .collect();
        prop_assert_eq!(all, model);
    }

    /// Index-node codec round-trip: any sequence of (u32, u64, hash, bytes)
    /// frames written by the `put_*` helpers is read back exactly by
    /// `Reader`, leaving the reader exhausted.
    #[test]
    fn index_codec_roundtrips(
        frames in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..48)),
            0..24,
        )
    ) {
        let mut buf = Vec::new();
        for (a, b, payload) in &frames {
            codec::put_u32(&mut buf, *a);
            codec::put_u64(&mut buf, *b);
            codec::put_hash(&mut buf, &sha256(payload));
            codec::put_bytes(&mut buf, payload);
        }
        let mut reader = Reader::new(&buf);
        for (a, b, payload) in &frames {
            prop_assert_eq!(reader.u32(), Some(*a));
            prop_assert_eq!(reader.u64(), Some(*b));
            prop_assert_eq!(reader.hash(), Some(sha256(payload)));
            prop_assert_eq!(reader.bytes(), Some(payload.as_slice()));
        }
        prop_assert!(reader.is_exhausted());
        // A truncated buffer never panics, it just yields None at the cut.
        // Every successful read must consume at least its 4-byte length
        // prefix, so the reader drains in a bounded number of steps.
        if !buf.is_empty() {
            let mut truncated = Reader::new(&buf[..buf.len() - 1]);
            let mut reads = 0usize;
            while truncated.bytes().is_some() {
                reads += 1;
                prop_assert!(reads * 4 <= buf.len(), "reader failed to consume input");
            }
        }
    }

    /// Merkle audit proofs built from arbitrary leaves verify against the
    /// root, and fail for tampered leaf data or a tampered root.
    #[test]
    fn merkle_audit_proofs_roundtrip(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..48),
        probe in any::<u64>(),
    ) {
        let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
        let root = tree.root();
        prop_assert_eq!(tree.len(), leaves.len());
        let index = (probe as usize) % leaves.len();
        let proof = tree.audit_proof(index).unwrap();
        prop_assert!(proof.verify(root, &leaves[index]));
        let mut tampered = leaves[index].clone();
        tampered.push(0xA5);
        prop_assert!(!proof.verify(root, &tampered));
        prop_assert!(!proof.verify(sha256(b"wrong root"), &leaves[index]));
    }

    /// A sharded Spitz under randomly interleaved single-key puts and
    /// cross-shard batches stays consistent with a plain map model: every
    /// read and proof agrees with the model, and the cross-shard digest is
    /// self-consistent and advances by exactly the number of shard ledgers
    /// each commit touched.
    #[test]
    fn sharded_db_matches_a_model_map(
        batches in proptest::collection::vec(
            proptest::collection::vec(
                ("[a-f]{1,6}", proptest::collection::vec(any::<u8>(), 1..16)),
                1..6,
            ),
            1..20,
        ),
        shard_count in 1usize..5,
    ) {
        let db = ShardedDb::in_memory(shard_count);
        let mut model: std::collections::HashMap<Vec<u8>, Vec<u8>> =
            std::collections::HashMap::new();
        let mut last_epoch = 0u64;

        for batch in &batches {
            let writes: Vec<(Vec<u8>, Vec<u8>)> = batch
                .iter()
                .map(|(k, v)| (k.as_bytes().to_vec(), v.clone()))
                .collect();
            let involved: std::collections::HashSet<usize> =
                writes.iter().map(|(k, _)| db.route(k)).collect();
            let digest = db.put_batch(writes.clone()).unwrap();
            for (k, v) in writes {
                model.insert(k, v);
            }

            // The digest is recomputed per commit epoch: it must be
            // self-consistent and advance by one block per touched shard.
            prop_assert!(digest.verify());
            prop_assert_eq!(digest.shards.len(), shard_count);
            prop_assert_eq!(digest.epoch, last_epoch + involved.len() as u64);
            last_epoch = digest.epoch;

            // Reads and proofs agree with the model after every epoch.
            for (k, v) in model.iter().take(8) {
                prop_assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
                let (value, proof) = db.get_verified(k).unwrap();
                prop_assert_eq!(value.as_ref(), Some(v));
                prop_assert_eq!(proof.root, digest.root);
                prop_assert!(proof.verify(k, value.as_deref()));
                prop_assert!(!proof.verify(k, Some(b"forged")));
            }
            let (missing, proof) = db.get_verified(b"zzz-never-written").unwrap();
            prop_assert!(missing.is_none());
            prop_assert!(proof.verify(b"zzz-never-written", None));
        }

        // Final sweep: the whole keyspace matches the model, shard by shard.
        for (k, v) in &model {
            prop_assert_eq!(db.get(k).unwrap().as_ref(), Some(v));
            prop_assert_eq!(
                db.shard(db.route(k)).ledger().get(k).as_ref(),
                Some(v)
            );
        }
        let total: usize = (0..db.shard_count()).map(|s| db.shard(s).ledger().len()).sum();
        prop_assert_eq!(total, model.len());
    }

    /// The sharded snapshot's verified range read equals the HashMap model
    /// exactly (completeness both ways), every returned entry's proof
    /// chains to the single pinned root, and a mutated per-shard response —
    /// a forged value, an omitted entry, a smuggled entry — is rejected by
    /// the merge verification.
    #[test]
    fn sharded_range_verified_matches_model_and_rejects_tampering(
        entries in proptest::collection::btree_map(
            "[a-m]{1,5}",
            proptest::collection::vec(any::<u8>(), 1..12),
            1..60,
        ),
        bounds in ("[a-m]{1,3}", "[a-m]{1,3}"),
        shard_count in 1usize..5,
    ) {
        let db = ShardedDb::in_memory(shard_count);
        let mut model: std::collections::HashMap<Vec<u8>, Vec<u8>> =
            std::collections::HashMap::new();
        let writes: Vec<(Vec<u8>, Vec<u8>)> = entries
            .iter()
            .map(|(k, v)| (k.as_bytes().to_vec(), v.clone()))
            .collect();
        for (k, v) in &writes {
            model.insert(k.clone(), v.clone());
        }
        db.put_batch(writes).unwrap();

        let (lo, hi) = (bounds.0.as_bytes(), bounds.1.as_bytes());
        let (start, end) = if lo <= hi { (lo, hi) } else { (hi, lo) };

        let snapshot = db.snapshot().unwrap();
        let (got, proof) = snapshot.range_verified(start, end).unwrap();

        // Exactly the model's contents in [start, end), in key order.
        let mut expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .iter()
            .filter(|(k, _)| k.as_slice() >= start && k.as_slice() < end)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        prop_assert_eq!(&got, &expected);

        // The merged proof verifies against the pinned root, and so does
        // every entry individually through the point-read path.
        prop_assert!(proof.verify(&got));
        prop_assert_eq!(proof.root, snapshot.root());
        let mut client = spitz::Verifier::new();
        prop_assert!(client.observe_sharded(snapshot.digest()));
        prop_assert!(client.verify_sharded_range(&got, &proof));
        for (k, v) in got.iter().take(6) {
            let (value, point_proof) = snapshot.get_verified(k);
            prop_assert_eq!(value.as_ref(), Some(v));
            prop_assert!(client.verify_sharded_read(k, value.as_deref(), &point_proof));
        }

        // Tampering with one shard's range response is rejected.
        if !got.is_empty() {
            let mut forged = got.clone();
            forged[0].1.push(0xFF);
            prop_assert!(!proof.verify(&forged));

            let mut truncated = got.clone();
            truncated.remove(truncated.len() / 2);
            prop_assert!(!proof.verify(&truncated));

            let mut smuggled = got.clone();
            let mut alien = start.to_vec();
            alien.push(b'z');
            if start < end && !model.contains_key(&alien) {
                smuggled.push((alien, b"alien".to_vec()));
                smuggled.sort_by(|a, b| a.0.cmp(&b.0));
                prop_assert!(!proof.verify(&smuggled));
            }
        }
    }

    /// The content-defined chunker is deterministic and lossless: the split
    /// chunks reassemble to the original input, and splitting again yields
    /// identical cut points.
    #[test]
    fn chunker_split_reassembles(data in proptest::collection::vec(any::<u8>(), 0..50_000)) {
        let chunker = Chunker::with_defaults();
        let chunks = chunker.split(&data);
        let reassembled: Vec<u8> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
        prop_assert_eq!(reassembled, data.clone());
        prop_assert!(chunks.iter().all(|c| !c.is_empty()));
        prop_assert_eq!(chunker.cut_points(&data), chunker.cut_points(&data));
    }
}

// Each case opens and reopens one durable store per index kind, and those
// fsyncs dominate its time, so this property runs fewer cases than the
// in-memory ones above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The typed table layer against a model, for every index kind: after
    /// random `insert_record`s (repeated primary keys, integers at the
    /// edges of `i64`, texts sharing prefixes), `get_record`, `query_eq`
    /// and `query_int_range` equal a naive scan of the committed versions,
    /// on one shard and on four, both live and after the durable stores are
    /// reopened.
    #[test]
    fn table_queries_match_a_naive_scan(
        inserts in proptest::collection::vec(
            (0u8..6, 0u8..6, any::<i64>(), (0usize..4, "[ab]{0,2}")),
            1..40,
        ),
    ) {
        let versions: Vec<Record> = inserts
            .iter()
            .map(|(pk, choice, payload, (prefix, suffix))| {
                Record::new(format!("pk-{pk}"))
                    .with("name", Value::Text(format!("{}{suffix}", TEXT_PREFIXES[*prefix])))
                    .with("n", Value::Integer(model_integer(*choice, *payload)))
            })
            .collect();
        for shards in SHARD_COUNTS {
            for kind in [SiriKind::PosTree, SiriKind::MerklePatriciaTrie, SiriKind::MerkleBucketTree] {
                let case = format!("{}, {shards} shards", kind.name());
                let dir = TempDir::new("table-model");
                let spitz = SpitzConfig { siri: kind, ..SpitzConfig::default() }
                    .with_durability(DurabilityPolicy::grouped_default());
                let config = ShardedConfig::default().with_shards(shards).with_spitz(spitz);
                let db = ShardedDb::open(dir.path(), config).unwrap();
                db.create_table(Schema::new(
                    "t",
                    vec![("name", ColumnType::Text), ("n", ColumnType::Integer)],
                ))
                .unwrap();
                for record in &versions {
                    db.insert_record("t", record).unwrap();
                }
                assert_table_matches_model(&db, &versions, &format!("{case} live"));
                drop(db);
                let db = ShardedDb::open(dir.path(), config).unwrap();
                assert_table_matches_model(&db, &versions, &format!("{case} reopened"));
            }
        }
    }
}
