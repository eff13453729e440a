//! Tamper-evidence end to end: corrupting a single byte of a committed
//! ledger block must be caught at every layer a verifying client touches —
//! the block's own records root, the hash chain, and proof verification
//! against the client's pinned digest. For a durable database the same
//! holds for bytes flipped *on disk*: the per-record CRC catches them at
//! open or read time, and a CRC-consistent rewrite is caught by `audit()`.

use std::path::{Path, PathBuf};

use spitz::ledger::block::records_merkle_root;
use spitz::ledger::Block;
use spitz::storage::durable::format::{crc32, RECORD_OVERHEAD, SEGMENT_HEADER_LEN};
use spitz::storage::{ChunkStore, DurableChunkStore};
use spitz::{ShardedConfig, ShardedDb, ShardedDigest, Verifier};

mod common;
use common::{segment_files, TempDir, SHARD_COUNTS};

fn populated_db() -> ShardedDb {
    let db = ShardedDb::in_memory(1);
    let writes: Vec<_> = (0..50)
        .map(|i| {
            (
                format!("acct/{i:03}").into_bytes(),
                format!("balance={i}").into_bytes(),
            )
        })
        .collect();
    db.put_batch(writes).unwrap();
    db
}

#[test]
fn corrupting_one_byte_of_a_committed_block_is_detected() {
    let db = populated_db();
    let mut client = Verifier::new();
    assert!(client.observe_sharded(&db.digest()));

    let honest = db
        .shard(0)
        .ledger()
        .block(0)
        .expect("block 0 was committed");
    assert!(honest.verify_records());

    // Flip one byte of one committed record.
    let mut tampered = honest.clone();
    tampered.records[7].key[0] ^= 0x01;

    // Layer 1: the block body no longer matches its sealed records root.
    assert!(!tampered.verify_records());
    assert_ne!(
        records_merkle_root(&tampered.records),
        tampered.header.records_root
    );

    // Layer 2: an attacker who re-seals the tampered body gets a different
    // block hash, breaking the chain the digest pins.
    let resealed = Block::new(
        tampered.header.height,
        tampered.header.prev_hash,
        tampered.header.index_root,
        tampered.header.timestamp,
        tampered.records.clone(),
    );
    assert!(resealed.verify_records(), "attacker reseals consistently");
    assert_ne!(resealed.hash(), honest.hash());

    // Layer 3: a digest carrying the forged block hash is refused by the
    // client (same epoch, different root = fork).
    let mut forged_leaves = db.digest().shards;
    forged_leaves[0].block_hash = resealed.hash();
    assert!(!client.observe_sharded(&ShardedDigest::over(forged_leaves)));

    // Layer 4: a read proof anchored at the forged digest fails client
    // verification even though the value itself is honest.
    let (value, honest_proof) = db.get_verified(b"acct/007").unwrap();
    let mut forged_proof = honest_proof.clone();
    forged_proof.ledger_proof.digest.block_hash = resealed.hash();
    assert!(!client.verify_sharded_read(b"acct/007", value.as_deref(), &forged_proof));

    // A forged index root (an attacker rewriting history wholesale) is
    // equally rejected, because the proof no longer recomputes to it.
    let mut forged_root_proof = honest_proof.clone();
    forged_root_proof.ledger_proof.digest.index_root = resealed.hash();
    assert!(!client.verify_sharded_read(b"acct/007", value.as_deref(), &forged_root_proof));

    // Sanity: the honest proof still verifies and the pin is intact.
    assert!(client.verify_sharded_read(b"acct/007", value.as_deref(), &honest_proof));
    assert_eq!(client.pinned_sharded_root(), Some(db.digest().root));
}

/// A genuine proof from another history — a second database with more
/// commits over the same keys and other values — neither satisfies nor
/// moves a client's pin: its point and batched proofs verify on their own
/// and are refused against the pin, over one shard and over four.
#[test]
fn another_historys_proofs_cannot_satisfy_or_move_a_pin() {
    let keys: Vec<Vec<u8>> = (0..20)
        .map(|i| format!("acct/{i:03}").into_bytes())
        .collect();
    let load = |db: &ShardedDb, tag: &str| {
        for key in &keys {
            db.put(key, format!("{tag}-{key:?}").as_bytes()).unwrap();
        }
    };
    for shards in SHARD_COUNTS {
        let ours = ShardedDb::in_memory(shards);
        load(&ours, "ours");
        let theirs = ShardedDb::in_memory(shards);
        load(&theirs, "theirs-1");
        load(&theirs, "theirs-2");
        assert!(theirs.digest().epoch > ours.digest().epoch);

        let mut client = Verifier::new();
        assert!(client.observe_sharded(&ours.digest()));
        let pinned = client.pinned_sharded_root();

        let (value, proof) = theirs.get_verified(&keys[3]).unwrap();
        assert!(proof.verify(&keys[3], value.as_deref()), "{shards} shards");
        assert!(
            !client.verify_sharded_read(&keys[3], value.as_deref(), &proof),
            "{shards} shards: another history's point proof"
        );

        let (values, proof) = theirs.get_multi_verified(&keys[..8]).unwrap();
        let items: Vec<_> = keys[..8].iter().cloned().zip(values).collect();
        assert!(proof.verify(&items), "{shards} shards");
        assert!(
            !client.verify_sharded_multi(&items, &proof),
            "{shards} shards: another history's batched proof"
        );
        assert_eq!(client.pinned_sharded_root(), pinned, "{shards} shards");

        // The pin still accepts its own history.
        let (value, proof) = ours.get_verified(&keys[3]).unwrap();
        assert!(client.verify_sharded_read(&keys[3], value.as_deref(), &proof));
    }
}

fn first_segment_file(dir: &Path) -> PathBuf {
    segment_files(dir)
        .into_iter()
        .next()
        .expect("a segment exists")
}

#[test]
fn flipping_one_bit_on_disk_is_caught_by_crc_at_open() {
    let dir = TempDir::new("bitflip-open");
    let config = ShardedConfig::default().with_shards(1);
    {
        let db = ShardedDb::open(dir.path(), config).unwrap();
        let writes: Vec<_> = (0..40)
            .map(|i| {
                (
                    format!("key/{i:03}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();
        db.put(b"key/007", b"tampered-later").unwrap();
    }

    // Flip one bit inside the first record of the first segment — a
    // mid-file flip, so recovery must refuse the segment rather than
    // "recover" around it.
    let segment = first_segment_file(&dir.path().join("shard-000"));
    let mut bytes = std::fs::read(&segment).unwrap();
    let index = SEGMENT_HEADER_LEN as usize + 10;
    bytes[index] ^= 0x40;
    std::fs::write(&segment, &bytes).unwrap();

    let result = ShardedDb::open(dir.path(), config);
    assert!(
        matches!(
            result.as_ref().err(),
            Some(spitz::core::error::DbError::Storage(_))
        ),
        "on-disk bit flip must fail the open: {:?}",
        result.as_ref().err()
    );
}

#[test]
fn crc_consistent_on_disk_rewrite_is_caught_by_audit() {
    let dir = TempDir::new("bitflip-audit");
    let payload = b"the payload an attacker rewrites".to_vec();
    let address = {
        let store = DurableChunkStore::open(dir.path()).unwrap();
        store
            .try_put(spitz::storage::Chunk::new(
                spitz::storage::ChunkKind::Blob,
                payload.clone(),
            ))
            .unwrap()
    };

    // A smarter attacker flips a payload byte AND fixes the record CRC, so
    // the framing layer has no objection. The store holds exactly one
    // record, starting right after the segment header.
    let segment = first_segment_file(dir.path());
    let mut bytes = std::fs::read(&segment).unwrap();
    let start = SEGMENT_HEADER_LEN as usize;
    let record_len = RECORD_OVERHEAD + payload.len();
    bytes[start + RECORD_OVERHEAD - 4] ^= 0x01; // first payload byte
    let crc = crc32(&bytes[start..start + record_len - 4]);
    bytes[start + record_len - 4..start + record_len].copy_from_slice(&crc.to_be_bytes());
    std::fs::write(&segment, &bytes).unwrap();

    // The scan accepts the forged record (its CRC is self-consistent) ...
    let store = DurableChunkStore::open(dir.path()).unwrap();
    assert!(store.contains(&address));
    // ... but the content no longer hashes to its address: the audit pass
    // names the forged chunk.
    assert_eq!(store.audit(), vec![address]);
    let fetched = store.get(&address).unwrap();
    assert_ne!(fetched.address(), address, "content was silently altered");
}

#[test]
fn every_record_byte_is_covered_by_the_records_root() {
    let db = populated_db();
    let honest = db.shard(0).ledger().block(0).unwrap();

    // Corrupt each field of a few records in turn; the root must move.
    for i in [0usize, 13, 49] {
        let mut key_tamper = honest.clone();
        key_tamper.records[i].key[1] ^= 0x80;
        assert!(!key_tamper.verify_records(), "key byte {i}");

        let mut hash_tamper = honest.clone();
        let mut raw = *hash_tamper.records[i].value_hash.as_bytes();
        raw[31] ^= 0x01;
        hash_tamper.records[i].value_hash = raw.into();
        assert!(!hash_tamper.verify_records(), "value-hash byte {i}");

        let mut stmt_tamper = honest.clone();
        stmt_tamper.records[i].statement.push('x');
        assert!(!stmt_tamper.verify_records(), "statement byte {i}");
    }
}

/// Mutating one shard's contribution to a verified cross-shard range —
/// its entries, its claimed bounds, its digest leaf, or the whole part —
/// must be rejected by the merge verification against the pinned root.
#[test]
fn mutated_shard_range_response_is_rejected_by_the_merge() {
    let db = spitz::ShardedDb::in_memory(3);
    let writes: Vec<_> = (0..60)
        .map(|i| {
            (
                format!("acct/{i:03}").into_bytes(),
                format!("balance={i}").into_bytes(),
            )
        })
        .collect();
    db.put_batch(writes).unwrap();

    let snapshot = db.snapshot().unwrap();
    let (entries, proof) = snapshot.range_verified(b"acct/010", b"acct/040").unwrap();
    assert_eq!(entries.len(), 30);
    assert!(proof.verify(&entries));

    // A forged value in the merged result.
    let mut forged = entries.clone();
    forged[5].1 = b"balance=999999".to_vec();
    assert!(!proof.verify(&forged));

    // One shard's digest leaf swapped for another epoch's digest: the
    // recomputed cross-shard root no longer matches the pinned root.
    let moved = db.route(b"acct/010");
    db.put(b"acct/010", b"moved-on").unwrap();
    let newer = db.snapshot().unwrap();
    let (_, newer_proof) = newer.range_verified(b"acct/010", b"acct/040").unwrap();
    let mut leaf_swapped = proof.clone();
    leaf_swapped.shards[moved] = newer_proof.shards[moved].clone();
    assert!(!leaf_swapped.verify(&entries));

    // A withheld shard part (server drops one shard's contribution).
    let mut withheld = proof.clone();
    withheld.shards.pop();
    assert!(!withheld.verify(&entries));

    // Narrowed bounds on one shard (hiding that shard's tail entries).
    let (_, narrow) = snapshot.range_verified(b"acct/010", b"acct/020").unwrap();
    let mut narrowed = proof.clone();
    narrowed.shards[1] = narrow.shards[1].clone();
    assert!(!narrowed.verify(&entries));
}

/// A POS-tree range proof reveals the root and the internal nodes whole.
/// A leaf wholly inside the range travels in the answer only, and a leaf
/// astride a bound as its out-of-range entries only; the verifier rebuilds
/// both from the answer. Against an honest 500-entry answer every tampering
/// below — of the answer, of the revealed node list, or of what a boundary
/// leaf ships — must be refused, over one shard and over four. No honest
/// proof, of any shape, ships an entry of its own answer.
#[test]
fn pos_range_proofs_bind_the_answer_that_stands_in_for_covered_leaves() {
    use spitz::core::proof::ShardedRangeProof;
    use spitz::index::codec::{put_bytes, put_u32, Reader};
    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    fn key(i: usize) -> Vec<u8> {
        format!("scan/{i:06}").into_bytes()
    }
    fn is_leaf(node: &[u8]) -> bool {
        node[0] == 0
    }
    fn leaf_entries(node: &[u8]) -> Entries {
        let mut r = Reader::new(node);
        assert_eq!(r.u8(), Some(0), "a leaf");
        let entries = (0..r.u32().unwrap())
            .map(|_| (r.bytes().unwrap().to_vec(), r.bytes().unwrap().to_vec()))
            .collect();
        assert!(r.is_exhausted());
        entries
    }
    fn leaf_node(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
        let mut out = vec![0];
        put_u32(&mut out, entries.len() as u32);
        for (k, v) in entries {
            put_bytes(&mut out, k);
            put_bytes(&mut out, v);
        }
        out
    }
    /// True when no leaf the proof reveals holds a key of its range.
    fn ships_no_answer(proof: &ShardedRangeProof) -> bool {
        proof.shards.iter().all(|shard| {
            let (start, end) = (&shard.start, &shard.end);
            shard
                .index_proof
                .nodes
                .iter()
                .filter(|n| is_leaf(n))
                .flat_map(|n| leaf_entries(n))
                .all(|(k, _)| k < *start || k >= *end)
        })
    }

    for shards in [1usize, 4] {
        let db = spitz::ShardedDb::in_memory(shards);
        db.put_batch((0..2000).map(|i| (key(i), vec![i as u8; 128])).collect())
            .unwrap();
        let snapshot = db.snapshot().unwrap();
        let mut pin = Verifier::new();
        assert!(pin.observe_sharded(&db.digest()));

        let (start, end) = (key(700), key(1200));
        let (honest, proof) = snapshot.range_verified(&start, &end).unwrap();
        assert_eq!(honest.len(), 500);
        assert!(pin.verify_sharded_range(&honest, &proof), "{shards} shards");
        assert!(ships_no_answer(&proof), "{shards} shards");
        // The proof does not repeat the answer: well under a third of it.
        let answer_bytes: usize = honest.iter().map(|(k, v)| k.len() + v.len()).sum();
        assert!(proof.encoded_len() < answer_bytes / 3, "{shards} shards");

        // The victim shard, the positions of its entries in the merged
        // answer, and the leaf (and that leaf's parent) each one lives in.
        let victim = db.route(&honest[250].0);
        let mine: Vec<usize> = (0..honest.len())
            .filter(|&i| db.route(&honest[i].0) == victim)
            .collect();
        let path_of = |i: usize| {
            let (_, point) = snapshot.get_verified(&honest[i].0);
            point.ledger_proof.index_proof.nodes
        };
        let revealed = &proof.shards[victim].index_proof.nodes;
        assert!(!is_leaf(&revealed[0]), "the victim's root is internal");
        // The victim's two boundary leaves: the first and the last one its
        // part of the answer touches, shipped as their out-of-range entries.
        let (first_leaf, last_leaf) = (
            revealed.iter().position(|n| is_leaf(n)).unwrap(),
            revealed.iter().rposition(|n| is_leaf(n)).unwrap(),
        );
        assert!(first_leaf < last_leaf);
        let whole_first = leaf_entries(path_of(mine[0]).last().unwrap());
        let below: Entries = whole_first
            .iter()
            .filter(|(k, _)| *k < start)
            .cloned()
            .collect();
        assert_eq!(leaf_entries(&revealed[first_leaf]), below);
        let boundary = |i: usize| {
            path_of(i).last() == path_of(mine[0]).last()
                || path_of(i).last() == path_of(*mine.last().unwrap()).last()
        };
        // Two neighbours inside one covered leaf, and two on either side of
        // a boundary between two covered leaves, away from the bounds.
        let middle = mine.len() / 4..3 * mine.len() / 4;
        let pair = |same_leaf: bool| {
            middle
                .clone()
                .map(|j| (mine[j], mine[j + 1]))
                .find(|&(a, b)| {
                    !boundary(a)
                        && !boundary(b)
                        && (path_of(a).last() == path_of(b).last()) == same_leaf
                })
                .expect("a 125-entry part has both kinds of neighbours")
        };
        let (inside_a, inside_b) = pair(true);
        let (last_of_leaf, first_of_next) = pair(false);
        // A key just above the one at `at` that lands on the victim.
        let extra_after = |entries: &mut Entries, at: usize| {
            let mut extra = entries[at].clone();
            extra.0.push(0);
            while db.route(&extra.0) != victim {
                *extra.0.last_mut().unwrap() += 1;
            }
            entries.insert(at + 1, extra);
        };
        let ship = |proof: &mut ShardedRangeProof, leaf: usize, f: &dyn Fn(&mut Entries)| {
            let node = &mut proof.shards[victim].index_proof.nodes[leaf];
            let mut shipped = leaf_entries(node);
            f(&mut shipped);
            *node = leaf_node(&shipped);
        };

        type Tamper<'a> = Box<dyn Fn(&mut Entries, &mut ShardedRangeProof) + 'a>;
        let cases: Vec<(&str, Tamper)> = vec![
            (
                "an in-range entry dropped from a covered leaf",
                Box::new(|entries, _| drop(entries.remove(inside_a))),
            ),
            (
                "two adjacent entries swapped",
                Box::new(|entries, _| entries.swap(inside_a, inside_b)),
            ),
            (
                "an entry moved across a covered-leaf boundary",
                Box::new(|entries, _| entries.swap(last_of_leaf, first_of_next)),
            ),
            (
                "a value bit flipped in a covered leaf",
                Box::new(|entries, _| entries[inside_a].1[77] ^= 0x10),
            ),
            (
                "an extra in-range entry claimed",
                Box::new(|entries, _| extra_after(entries, inside_a)),
            ),
            (
                "a value bit flipped in a boundary leaf's part of the answer",
                Box::new(|entries, _| entries[mine[0]].1[77] ^= 0x10),
            ),
            (
                "a boundary leaf that also ships an in-range entry",
                // The leaf's last entry, moved out of the answer and into
                // the shipped part, where it would rebuild the same leaf.
                Box::new(|entries, proof| {
                    let moved = whole_first.last().unwrap().clone();
                    assert!(moved.0 >= start);
                    entries.retain(|e| *e != moved);
                    ship(proof, first_leaf, &|shipped| shipped.push(moved.clone()));
                }),
            ),
            (
                "a boundary leaf that drops an out-of-range entry",
                Box::new(|_, proof| ship(proof, last_leaf, &|shipped| drop(shipped.remove(0)))),
            ),
            (
                "a boundary leaf paired with one claimed entry fewer",
                Box::new(|entries, _| drop(entries.remove(mine[0]))),
            ),
            (
                "a boundary leaf paired with one claimed entry more",
                Box::new(|entries, _| extra_after(entries, mine[0])),
            ),
            (
                "a straddling leaf omitted",
                Box::new(|_, proof| {
                    drop(proof.shards[victim].index_proof.nodes.remove(first_leaf))
                }),
            ),
            (
                "an internal node omitted",
                Box::new(|_, proof| {
                    let nodes = &mut proof.shards[victim].index_proof.nodes;
                    let inner = 1 + nodes[1..]
                        .iter()
                        .position(|n| !is_leaf(n))
                        .expect("depth > 2");
                    nodes.remove(inner);
                }),
            ),
            (
                "a revealed node repeated",
                Box::new(|_, proof| {
                    let nodes = &mut proof.shards[victim].index_proof.nodes;
                    nodes.push(nodes.last().unwrap().clone());
                }),
            ),
        ];
        for (name, tamper) in &cases {
            let (mut entries, mut tampered) = (honest.clone(), proof.clone());
            tamper(&mut entries, &mut tampered);
            assert!(!tampered.verify(&entries), "{shards} shards: {name}");
            // The merge refuses an unsorted answer before any shard sees
            // it; the victim's own verifier must refuse its part as well.
            let part: Entries = entries
                .iter()
                .filter(|(k, _)| db.route(k) == victim)
                .cloned()
                .collect();
            assert!(
                !tampered.shards[victim].verify(&part),
                "{shards} shards: {name} (the shard's verifier)"
            );
        }

        // Something shipped for a covered leaf, wherever it is put: the
        // leaf itself, or the empty leaf a boundary leaf with nothing out
        // of range ships. At the place the scan would have met it only the
        // canonical-form rule objects.
        let leaf = path_of(first_of_next).pop().unwrap();
        for at in 1..=revealed.len() {
            for stowaway in [&leaf, &leaf_node(&[])] {
                let mut padded = proof.clone();
                padded.shards[victim]
                    .index_proof
                    .nodes
                    .insert(at, stowaway.clone());
                assert!(
                    !padded.verify(&honest),
                    "{shards} shards: a node shipped for a covered leaf, as node {at}"
                );
            }
        }

        // A leaf astride both bounds ships its entries on either side, the
        // ones below `start` first; the same entries the other way round
        // are refused.
        let wide = middle
            .clone()
            .map(|j| leaf_entries(path_of(mine[j]).last().unwrap()))
            .find(|leaf| leaf.len() >= 3)
            .expect("a leaf of three entries");
        let (lo, hi) = (&wide[1].0, &wide[wide.len() - 1].0);
        let (entries, narrow) = snapshot.range_verified(lo, hi).unwrap();
        assert!(
            pin.verify_sharded_range(&entries, &narrow),
            "{shards} shards"
        );
        let revealed = &narrow.shards[victim].index_proof.nodes;
        let astride = revealed.iter().position(|n| is_leaf(n)).unwrap();
        let shipped = leaf_entries(&revealed[astride]);
        assert_eq!(shipped, [wide[0].clone(), wide[wide.len() - 1].clone()]);
        let mut swapped = narrow.clone();
        swapped.shards[victim].index_proof.nodes[astride] =
            leaf_node(&[wide[wide.len() - 1].clone(), wide[0].clone()]);
        assert!(
            !swapped.verify(&entries),
            "{shards} shards: shipped entries swapped"
        );

        // Honest answers of every shape are accepted and ship none of
        // their own entries: nothing in range, a range inside one leaf,
        // the whole tree.
        let (a, b) = (&honest[inside_a].0, &honest[inside_b].0);
        let mut gap = a.clone();
        gap.push(0);
        for (name, start, end, want) in [
            (
                "empty: above every key",
                b"zzz".to_vec(),
                b"zzzz".to_vec(),
                0,
            ),
            (
                "empty: between two neighbours",
                gap,
                honest[inside_a + 1].0.clone(),
                0,
            ),
            ("inside one leaf", a.clone(), b.clone(), inside_b - inside_a),
            ("the whole tree", Vec::new(), vec![0xff], 2000),
        ] {
            let (entries, proof) = snapshot.range_verified(&start, &end).unwrap();
            assert_eq!(entries.len(), want, "{shards} shards: {name}");
            assert!(
                pin.verify_sharded_range(&entries, &proof),
                "{shards} shards: {name}"
            );
            assert!(ships_no_answer(&proof), "{shards} shards: {name}");
        }

        // A tree whose root is a leaf: the root is always revealed, as its
        // out-of-range entries.
        let small = spitz::ShardedDb::in_memory(shards);
        small
            .put_batch((0..3).map(|i| (key(i), vec![7; 16])).collect())
            .unwrap();
        let (entries, proof) = small.range_verified(&key(1), &key(9)).unwrap();
        assert_eq!(entries.len(), 2);
        assert!(proof.verify(&entries), "{shards} shards: root is a leaf");
        assert!(ships_no_answer(&proof), "{shards} shards: root is a leaf");
        assert!(
            !proof.verify(&entries[..1]),
            "{shards} shards: root is a leaf"
        );
    }
}

/// A sharded database of `records` keys under one SIRI kind, every value
/// `fill` repeated, loaded in one batch plus a few single puts so each
/// shard's ledger has several blocks.
fn kind_db(
    siri: spitz::index::SiriKind,
    shards: usize,
    records: usize,
    fill: u8,
) -> spitz::ShardedDb {
    use spitz::core::db::SpitzConfig;
    use spitz::core::sharded::ShardedConfig;

    let spitz = SpitzConfig {
        siri,
        ..SpitzConfig::default()
    };
    let db = spitz::ShardedDb::with_config(
        ShardedConfig::default()
            .with_shards(shards)
            .with_spitz(spitz),
    );
    let key = |i: usize| format!("kind/{i:04}").into_bytes();
    let split = records.saturating_sub(4);
    if split > 0 {
        db.put_batch((0..split).map(|i| (key(i), vec![fill; 8])).collect())
            .unwrap();
    }
    for i in split..records {
        db.put(&key(i), &[fill; 8]).unwrap();
    }
    db
}

/// An MBT range proof reveals the whole bucket tree — buckets partition by
/// hash, so any bucket may hold part of any range — level by level from the
/// root, each distinct node once. The verifier consumes that list in that
/// order, each node exactly once, with nothing left over: every forgery of
/// the victim shard's node list below is refused over one shard and over
/// four, and an empty tree or an empty range takes only an empty proof.
#[test]
fn mbt_range_proofs_are_consumed_in_order_exactly_once() {
    use spitz::core::proof::ShardedRangeProof;
    use spitz::index::SiriKind::MerkleBucketTree as Mbt;
    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    let (start, end) = (b"kind/0100".to_vec(), b"kind/0200".to_vec());
    for shards in [1usize, 4] {
        let db = kind_db(Mbt, shards, 300, 7);
        let (honest, proof) = db.range_verified(&start, &end).unwrap();
        assert_eq!(honest.len(), 100);
        assert!(proof.verify(&honest), "{shards} shards");
        let victim = db.route(&honest[0].0);
        let part: Entries = honest
            .iter()
            .filter(|(k, _)| db.route(k) == victim)
            .cloned()
            .collect();
        let nodes = proof.shards[victim].index_proof.nodes.clone();
        // Root, two levels of internal nodes, then the buckets.
        assert!(nodes.len() > 4, "{shards} shards: {} nodes", nodes.len());
        // A node of another tree: the same keys under other values.
        let other = kind_db(Mbt, shards, 300, 8);
        let (_, foreign) = other.range_verified(&start, &end).unwrap();
        let stranger = foreign.shards[victim].index_proof.nodes.last().unwrap();
        assert!(!nodes.contains(stranger));

        let middle = nodes.len() / 2;
        let last = nodes.len() - 1;
        type Tamper<'a> = Box<dyn Fn(&mut Vec<Vec<u8>>) + 'a>;
        let cases: Vec<(&str, Tamper)> = vec![
            ("an empty proof", Box::new(|n| n.clear())),
            ("a truncated proof", Box::new(|n| drop(n.pop()))),
            ("an unrooted proof", Box::new(|n| drop(n.remove(0)))),
            (
                "another tree's proof",
                Box::new(|n| *n = foreign.shards[victim].index_proof.nodes.clone()),
            ),
            (
                "a spliced node, in the middle",
                Box::new(|n| n.insert(middle, stranger.clone())),
            ),
            (
                "a spliced node, at the end",
                Box::new(|n| n.push(stranger.clone())),
            ),
            (
                "a repeated node, in place",
                Box::new(|n| n.insert(middle, n[middle].clone())),
            ),
            (
                "a repeated node, at the end",
                Box::new(|n| n.push(n[0].clone())),
            ),
            (
                "two buckets reordered",
                Box::new(|n| n.swap(last - 1, last)),
            ),
            (
                "an internal node and a bucket reordered",
                Box::new(|n| n.swap(1, last)),
            ),
        ];
        for (name, tamper) in &cases {
            let mut tampered: ShardedRangeProof = proof.clone();
            tamper(&mut tampered.shards[victim].index_proof.nodes);
            assert!(!tampered.verify(&honest), "{shards} shards: {name}");
            assert!(
                !tampered.shards[victim].verify(&part),
                "{shards} shards: {name} (the shard's verifier)"
            );
        }

        // An empty range and an empty tree take an empty proof and nothing
        // else: the honest proofs verify, the same proofs padded do not.
        let empty_db = kind_db(Mbt, shards, 0, 7);
        for (name, db, start, end) in [
            ("an empty range", &db, &end, &start),
            ("an empty tree", &empty_db, &start, &end),
        ] {
            let (entries, proof) = db.range_verified(start, end).unwrap();
            assert!(entries.is_empty(), "{shards} shards: {name}");
            assert!(proof.shards.iter().all(|p| p.index_proof.is_empty()));
            assert!(proof.verify(&entries), "{shards} shards: {name}");
            let mut padded = proof.clone();
            padded.shards[victim].index_proof.nodes = vec![nodes[0].clone()];
            assert!(!padded.verify(&entries), "{shards} shards: {name}, padded");
        }
    }
}

/// A cross-shard range proof proves its entries complete for the bounds it
/// carries, so a client accepts it only if those are the bounds it asked
/// for. Each forgery below is a different range's honest proof: it
/// verifies on its own, and is refused once bound to the request — for
/// every SIRI kind, over one shard and over four.
#[test]
fn range_proofs_answer_only_the_requested_bounds() {
    use spitz::core::proof::ShardedRangeProof;
    use spitz::index::SiriKind;

    let (start, end) = (b"kind/0020".as_slice(), b"kind/0023".as_slice());
    for siri in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        for shards in [1usize, 4] {
            let case = format!("{} x {shards} shards", siri.name());
            let db = kind_db(siri, shards, 64, 7);
            let digest = db.digest();
            let accepts = |entries: &[(Vec<u8>, Vec<u8>)], proof: &ShardedRangeProof| {
                let mut client = Verifier::new();
                assert!(client.observe_sharded(&digest));
                proof.answers(start, end) && client.verify_sharded_range(entries, proof)
            };
            let (honest, proof) = db.range_verified(start, end).unwrap();
            assert_eq!(honest.len(), 3, "{case}");
            assert!(accepts(&honest, &proof), "{case}: the honest answer");

            for (name, from, to) in [
                ("an empty answer", start, start),
                ("a truncated answer", start, b"kind/0022".as_slice()),
                (
                    "a shifted answer",
                    b"kind/0021".as_slice(),
                    b"kind/0024".as_slice(),
                ),
                (
                    "the same entries under wider bounds",
                    b"kind/002 ".as_slice(),
                    end,
                ),
            ] {
                let (entries, forged) = db.range_verified(from, to).unwrap();
                assert!(forged.verify(&entries), "{case}: {name} verifies alone");
                assert!(!accepts(&entries, &forged), "{case}: {name}");
            }

            let mut unrooted = proof.clone();
            unrooted.shards.clear();
            assert!(!accepts(&honest, &unrooted), "{case}: no shard parts");

            if shards > 1 {
                let (_, narrow) = db.range_verified(start, b"kind/0022").unwrap();
                let mut spliced = proof.clone();
                spliced.shards[1] = narrow.shards[1].clone();
                assert!(!accepts(&honest, &spliced), "{case}: a spliced shard part");
            }
        }
    }
}

/// Every bit of a served point, batched or range proof is bound: each
/// single-bit flip of an accepted encoding fails to decode, fails
/// verification against the pinned cross-shard root, or decodes to the
/// very proof that was sent — for every SIRI kind, over one shard and over
/// four, for present and absent keys and for a 3-key cross-shard range.
/// A range proof is accepted only if it answers the requested bounds and
/// verifies for a fresh client pinned at the honest digest (a range proof
/// may advance a pin). Point and batch proofs are swept bit by bit, and so
/// are the POS-tree and MPT range proofs: the test takes ~22 s in a debug
/// build on two x86-64 cores with `spitz-crypto` at `opt-level = 3`, ~15 s
/// of it in the MPT range sweeps (33 704 and 46 480 bits). A full sweep of
/// the MBT range proofs (40-60 KB, each flip re-hashing the whole proof)
/// would take ~6 min there, so they are swept at every 509th bit (< 1 s).
/// The stride is odd, so every bit position of a byte is hit.
#[test]
fn every_bit_of_a_point_or_batch_proof_is_bound() {
    use spitz::core::proof::{ShardedMultiProof, ShardedProof, ShardedRangeProof};
    use spitz::index::SiriKind;

    /// Call `check` with every `stride`-th single-bit flip of `honest`.
    fn each_flip(honest: &[u8], stride: usize, mut check: impl FnMut(usize, &[u8])) {
        let mut bent = honest.to_vec();
        for bit in (0..honest.len() * 8).step_by(stride) {
            bent[bit / 8] ^= 1 << (bit % 8);
            check(bit, &bent);
            bent[bit / 8] ^= 1 << (bit % 8);
        }
    }

    for (siri, range_stride) in [
        (SiriKind::PosTree, 1),
        (SiriKind::MerklePatriciaTrie, 1),
        (SiriKind::MerkleBucketTree, 509),
    ] {
        for shards in [1usize, 4] {
            let case = format!("{} x {shards} shards", siri.name());
            let db = kind_db(siri, shards, 64, 7);
            let mut pin = Verifier::new();
            assert!(pin.observe_sharded(&db.digest()), "{case}");

            for key in [b"kind/0017".to_vec(), b"kind/absent".to_vec()] {
                let (value, proof) = db.get_verified(&key).unwrap();
                assert!(pin.verify_sharded_read(&key, value.as_deref(), &proof));
                let honest = proof.encode();
                each_flip(&honest, 1, |bit, bent| {
                    if let Some(bent) = ShardedProof::decode(bent) {
                        assert!(
                            !pin.verify_sharded_read(&key, value.as_deref(), &bent)
                                || bent.encode() == honest,
                            "{case}: point proof of {key:?}, bit {bit} of {}",
                            honest.len() * 8
                        );
                    }
                });
            }

            let keys = vec![
                b"kind/0003".to_vec(),
                b"kind/0040".to_vec(),
                b"kind/absent".to_vec(),
            ];
            let (values, proof) = db.get_multi_verified(&keys).unwrap();
            let items: Vec<_> = keys.into_iter().zip(values).collect();
            assert!(pin.verify_sharded_multi(&items, &proof), "{case}");
            let honest = proof.encode();
            each_flip(&honest, 1, |bit, bent| {
                if let Some(bent) = ShardedMultiProof::decode(bent) {
                    assert!(
                        !pin.verify_sharded_multi(&items, &bent) || bent.encode() == honest,
                        "{case}: multi proof, bit {bit} of {}",
                        honest.len() * 8
                    );
                }
            });

            let digest = db.digest();
            let (start, end) = (b"kind/0020", b"kind/0023");
            let (entries, proof) = db.range_verified(start, end).unwrap();
            assert_eq!(entries.len(), 3, "{case}");
            assert!(proof.answers(start, end), "{case}");
            assert!(pin.verify_sharded_range(&entries, &proof), "{case}");
            let honest = proof.encode();
            each_flip(&honest, range_stride, |bit, bent| {
                if let Some(bent) = ShardedRangeProof::decode(bent) {
                    let mut client = Verifier::new();
                    assert!(client.observe_sharded(&digest));
                    let accepted =
                        bent.answers(start, end) && client.verify_sharded_range(&entries, &bent);
                    assert!(
                        !accepted || bent.encode() == honest,
                        "{case}: range proof, bit {bit} of {}",
                        honest.len() * 8
                    );
                }
            });
        }
    }
}
