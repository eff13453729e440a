//! E-commerce scenario from Section 3.3: purchases must be serializable (no
//! double spending, no shipping out-of-stock items), while stock-level
//! reports run as weakly isolated analytical reads. A verifying client (an
//! auditor or regulator) checks query results and detects tampering and
//! history rollback.
//!
//! Run with: `cargo run --example ecommerce_ledger`

use spitz::txn::{CcScheme, IsolationLevel, MvccStore, TimestampOracle, TransactionManager};
use spitz::{ColumnType, Record, Schema, ShardedDb, Value, Verifier};
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // Serializable purchases through the transaction substrate.
    // ------------------------------------------------------------------
    let tm = TransactionManager::new(
        Arc::new(MvccStore::new()),
        Arc::new(TimestampOracle::new()),
        CcScheme::Occ,
    );

    // Seed the stock of one item.
    let mut seed = tm.begin(IsolationLevel::Serializable);
    tm.write(&mut seed, b"stock/widget", b"1".to_vec()).unwrap();
    tm.commit(&mut seed).unwrap();

    // Two customers race for the last widget; exactly one purchase commits.
    let mut alice = tm.begin(IsolationLevel::Serializable);
    let mut bob = tm.begin(IsolationLevel::Serializable);
    let stock_seen_by_alice = tm.read(&mut alice, b"stock/widget");
    let stock_seen_by_bob = tm.read(&mut bob, b"stock/widget");
    assert_eq!(stock_seen_by_alice, Some(b"1".to_vec()));
    assert_eq!(stock_seen_by_bob, Some(b"1".to_vec()));
    tm.write(&mut alice, b"stock/widget", b"0".to_vec())
        .unwrap();
    tm.write(&mut bob, b"stock/widget", b"0".to_vec()).unwrap();
    let alice_result = tm.commit(&mut alice);
    let bob_result = tm.commit(&mut bob);
    println!(
        "purchase race: alice committed = {}, bob committed = {}",
        alice_result.is_ok(),
        bob_result.is_ok()
    );
    assert!(
        alice_result.is_ok() ^ bob_result.is_ok(),
        "exactly one purchase must win"
    );

    // ------------------------------------------------------------------
    // The order history lives in the verifiable database.
    // ------------------------------------------------------------------
    let db = ShardedDb::in_memory(1);
    db.create_table(Schema::new(
        "orders",
        vec![
            ("item", ColumnType::Text),
            ("quantity", ColumnType::Integer),
            ("status", ColumnType::Text),
        ],
    ))
    .unwrap();

    for i in 0..200 {
        let record = Record::new(format!("order-{i:05}"))
            .with("item", Value::Text(format!("sku-{}", i % 20)))
            .with("quantity", Value::Integer(1 + (i % 3)))
            .with(
                "status",
                Value::Text(if i % 7 == 0 { "refunded" } else { "shipped" }.into()),
            );
        db.insert_record("orders", &record).unwrap();
    }
    println!(
        "recorded 200 orders across {} ledger blocks",
        db.digest().epoch
    );

    // Weakly isolated analytics: status report straight from the status
    // column's index cells, no serializable transaction needed.
    let refunded = db
        .query_eq("orders", "status", &Value::Text("refunded".into()))
        .unwrap();
    println!("refunded orders: {}", refunded.len());
    // Every seventh of orders 0..200 is refunded.
    assert_eq!(refunded.len(), 29);

    // ------------------------------------------------------------------
    // The auditor verifies what the merchant reports.
    // ------------------------------------------------------------------
    let mut auditor = Verifier::new();
    assert!(auditor.observe_sharded(&db.digest()));

    // Verified range scan over a window of raw order cells.
    let (start, end) = ([0u8, 0, 0, 0], [0u8, 0, 0, 1]);
    let (entries, proof) = db.range_verified(&start, &end).unwrap();
    let ok = proof.answers(&start, &end) && auditor.verify_sharded_range(&entries, &proof);
    println!(
        "verified scan of the 'item' column: {} cells, verification {}",
        entries.len(),
        if ok { "PASSED" } else { "FAILED" }
    );
    assert!(ok);

    // Deferred verification: collect a batch of order cells, fetch them
    // with one multi-key proof and verify the batch against the pin.
    let mut cell_keys = Vec::new();
    let mut expected = Vec::new();
    for i in 0..50 {
        let key = format!("order-{i:05}");
        let prefix = spitz::core::cell::UniversalKey::cell_prefix(0, key.as_bytes());
        let mut end = prefix.clone();
        end.push(0xff);
        let (cells, _) = db.range_verified(&prefix, &end).unwrap();
        if let Some((cell_key, value)) = cells.into_iter().next() {
            cell_keys.push(cell_key);
            expected.push(Some(value));
        }
    }
    let (values, proof) = db.get_multi_verified(&cell_keys).unwrap();
    assert_eq!(values, expected);
    let items: Vec<_> = cell_keys.into_iter().zip(values).collect();
    let verified = if auditor.verify_sharded_multi(&items, &proof) {
        items.len()
    } else {
        0
    };
    let failed = items.len() - verified;
    println!("deferred audit: {verified} verified, {failed} failed");
    assert_eq!(failed, 0);

    // A rollback attack (re-presenting an older digest) is refused.
    let old_digest = db.digest();
    db.put(b"orders/extra", b"late write").unwrap();
    assert!(auditor.observe_sharded(&db.digest()));
    assert!(!auditor.observe_sharded(&old_digest));
    println!("rollback to an older digest correctly refused");
}
