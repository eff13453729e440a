//! Durable reopen walkthrough: a ledger database that survives restarts.
//!
//! Run with `cargo run --release --example durable_reopen`.
//!
//! Phase 1 opens a one-shard `ShardedDb` on an on-disk chunk store, commits
//! a few blocks and records the digest a verifying client would pin.
//! Phase 2 drops the database entirely (simulating a process restart),
//! reopens the same directory, and shows that the recovered database is
//! indistinguishable to that client: identical digest, identical blocks,
//! proofs that still verify against the pre-restart pin, and storage
//! statistics (including dedup counters) carried across.

use spitz::{ShardedConfig, ShardedDb, Verifier};

fn main() {
    let dir = std::env::temp_dir().join(format!("spitz-durable-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ShardedConfig::default().with_shards(1);

    // ---- Phase 1: a fresh database, some committed history ----------------
    let mut client = Verifier::new();
    let digest_before = {
        let db = ShardedDb::open(&dir, config).expect("open fresh durable db");
        let accounts: Vec<_> = (0..100u32)
            .map(|i| {
                (
                    format!("acct/{i:04}").into_bytes(),
                    format!("balance={}", 100 + i).into_bytes(),
                )
            })
            .collect();
        db.put_batch(accounts).expect("load accounts");
        db.put(b"acct/0007", b"balance=frozen")
            .expect("freeze 0007");
        db.put(b"audit/2026-07-28", b"quarterly review passed")
            .expect("audit entry");

        let digest = db.digest();
        assert!(client.observe_sharded(&digest));
        let stats = db.shard(0).storage_stats();
        println!("phase 1: committed {} blocks", digest.epoch);
        println!("  digest        root={}", digest.root.short());
        println!(
            "  storage       {} chunks, {} physical bytes, {:.1}% dedup",
            stats.chunk_count,
            stats.physical_bytes,
            stats.dedup_ratio() * 100.0
        );
        digest
    }; // <- the database (and its store) is dropped here: "process exit"

    // ---- Phase 2: reopen from disk ----------------------------------------
    let db = ShardedDb::open(&dir, config).expect("reopen from the same directory");
    let digest_after = db.digest();
    println!("phase 2: reopened from {}", dir.display());
    println!("  digest        root={}", digest_after.root.short());

    assert_eq!(digest_after, digest_before, "digest must survive restart");
    let ledger = db.shard(0).ledger();
    assert_eq!(ledger.audit_chain(), None, "chain must audit clean");

    // The client pinned its digest *before* the restart; the reopened
    // database's proofs verify against that pin unchanged.
    let (value, proof) = db.get_verified(b"acct/0007").expect("verified read");
    assert_eq!(value.as_deref(), Some(b"balance=frozen".as_slice()));
    assert!(client.verify_sharded_read(b"acct/0007", value.as_deref(), &proof));
    println!("  verified read acct/0007 = balance=frozen (proof ok against old pin)");

    let (start, end) = (b"acct/0010", b"acct/0020");
    let (entries, range_proof) = db.range_verified(start, end).expect("verified range");
    assert!(range_proof.answers(start, end));
    assert!(client.verify_sharded_range(&entries, &range_proof));
    println!(
        "  verified range acct/0010..acct/0020 -> {} entries",
        entries.len()
    );

    // History keeps extending on the recovered chain.
    let extended = db.put(b"acct/0007", b"balance=unfrozen").expect("write");
    assert!(client.observe_sharded(&db.digest()));
    assert_eq!(
        extended.block_height,
        digest_before.shards[0].block_height + 1
    );
    println!(
        "  new block {} accepted by the same client",
        extended.block_height
    );

    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    println!("durable reopen: all checks passed");
}
