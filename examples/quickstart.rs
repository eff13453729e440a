//! Quickstart: write data, read it back, and verify the results against the
//! database digest — the core loop of a verifiable database.
//!
//! Run with: `cargo run --example quickstart`

use spitz::{ShardedDb, Verifier};

fn main() {
    // A one-shard Spitz instance with the paper's default configuration: a
    // POS-Tree ledger index, every write one ledger commit.
    let db = ShardedDb::in_memory(1);

    // Writes are sealed into ledger blocks; every write advances the digest.
    db.put(b"account/alice", b"balance=100").unwrap();
    db.put(b"account/bob", b"balance=250").unwrap();
    db.put_batch(vec![
        (b"account/carol".to_vec(), b"balance=75".to_vec()),
        (b"account/dave".to_vec(), b"balance=310".to_vec()),
    ])
    .unwrap();

    // A verifying client pins the digest it trusts.
    let mut client = Verifier::new();
    let digest = db.digest();
    assert!(client.observe_sharded(&digest));
    println!(
        "pinned digest: epoch {} root {}",
        digest.epoch,
        digest.root.short()
    );

    // Unverified fast path.
    let value = db.get(b"account/alice").unwrap();
    println!(
        "alice (unverified): {:?}",
        String::from_utf8_lossy(&value.clone().unwrap())
    );

    // Verified read: the proof is recomputed against the pinned digest.
    let (value, proof) = db.get_verified(b"account/bob").unwrap();
    let ok = client.verify_sharded_read(b"account/bob", value.as_deref(), &proof);
    println!(
        "bob (verified): {:?} — proof {} nodes, verification {}",
        String::from_utf8_lossy(value.as_deref().unwrap()),
        proof.ledger_proof.index_proof.len(),
        if ok { "PASSED" } else { "FAILED" }
    );
    assert!(ok);

    // Verified range scan: one combined proof for the whole result.
    let (start, end) = (b"account/a", b"account/z");
    let (entries, range_proof) = db.range_verified(start, end).unwrap();
    let ok = range_proof.answers(start, end) && client.verify_sharded_range(&entries, &range_proof);
    println!(
        "range scan returned {} accounts, verification {}",
        entries.len(),
        if ok { "PASSED" } else { "FAILED" }
    );
    assert!(ok);

    // Tampering is detected: a forged value cannot pass verification.
    let forged_ok = client.verify_sharded_read(b"account/bob", Some(b"balance=999999"), &proof);
    println!("forged balance accepted? {forged_ok}");
    assert!(!forged_ok);

    // Snapshot read path: pin once, then read repeatedly against that pin
    // while writers move the live database forward.
    let snapshot = db.snapshot().unwrap();
    db.put(b"account/alice", b"balance=0").unwrap();
    let (value, proof) = snapshot.get_verified(b"account/alice");
    assert!(client.verify_sharded_read(b"account/alice", value.as_deref(), &proof));
    println!(
        "snapshot still proves alice = {:?} at epoch {} (live db moved on)",
        String::from_utf8_lossy(value.as_deref().unwrap()),
        snapshot.digest().epoch,
    );

    // The ledger's whole history can be audited.
    assert_eq!(db.shard(0).ledger().audit_chain(), None);
    println!(
        "ledger audit: chain of {} blocks is consistent",
        db.digest().epoch
    );
}
