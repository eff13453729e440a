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
use spitz::{SpitzDb, Verifier};

mod common;
use common::{segment_files, TempDir};

fn populated_db() -> SpitzDb {
    let db = SpitzDb::in_memory();
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
    assert!(client.observe_digest(db.digest()));

    let honest = db.ledger().block(0).expect("block 0 was committed");
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
    // client (same height, different hash = fork).
    let mut forged_digest = db.digest();
    forged_digest.block_hash = resealed.hash();
    assert!(!client.observe_digest(forged_digest));

    // Layer 4: a read proof anchored at the forged digest fails client
    // verification even though the value itself is honest.
    let (value, honest_proof) = db.get_verified(b"acct/007").unwrap();
    let mut forged_proof = honest_proof.clone();
    forged_proof.digest.block_hash = resealed.hash();
    assert!(!client.verify_read(b"acct/007", value.as_deref(), &forged_proof));

    // A forged index root (an attacker rewriting history wholesale) is
    // equally rejected, because the proof no longer recomputes to it.
    let mut forged_root_proof = honest_proof.clone();
    forged_root_proof.digest.index_root = resealed.hash();
    assert!(!client.verify_read(b"acct/007", value.as_deref(), &forged_root_proof));

    // Sanity: the honest proof still verifies and the pin is intact.
    assert!(client.verify_read(b"acct/007", value.as_deref(), &honest_proof));
    assert_eq!(client.pinned_digest().unwrap(), db.digest());
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
    {
        let db = SpitzDb::open(dir.path()).unwrap();
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
    let segment = first_segment_file(dir.path());
    let mut bytes = std::fs::read(&segment).unwrap();
    let index = SEGMENT_HEADER_LEN as usize + 10;
    bytes[index] ^= 0x40;
    std::fs::write(&segment, &bytes).unwrap();

    let result = SpitzDb::open(dir.path());
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
        store.put(spitz::storage::Chunk::new(
            spitz::storage::ChunkKind::Blob,
            payload.clone(),
        ))
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
    let honest = db.ledger().block(0).unwrap();

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
