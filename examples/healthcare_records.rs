//! Healthcare analytics scenario from the paper's introduction: patient
//! records are append-only, coding standards change over time (ICD-9 →
//! ICD-10), historical versions must stay queryable, and analytical queries
//! run over the typed table layer, whose index cells live in the ledger.
//!
//! Run with: `cargo run --example healthcare_records`

use spitz::core::UniversalKey;
use spitz::{ColumnType, Record, Schema, ShardedDb, Value};

fn main() {
    // One shard: the whole history is one ledger, so the block numbers
    // below are that ledger's heights.
    let db = ShardedDb::in_memory(1);
    let ledger = db.shard(0).ledger();
    db.create_table(Schema::new(
        "patients",
        vec![
            ("diagnosis", ColumnType::Text),
            ("lab_glucose", ColumnType::Integer),
            ("physician", ColumnType::Text),
        ],
    ))
    .unwrap();

    // Initial records coded under ICD-9.
    for i in 0..50 {
        let record = Record::new(format!("patient-{i:03}"))
            .with("diagnosis", Value::Text("icd9/250.00".to_string()))
            .with("lab_glucose", Value::Integer(90 + (i % 60)))
            .with("physician", Value::Text(format!("dr-{}", i % 5)));
        db.insert_record("patients", &record).unwrap();
    }
    let digest_icd9 = ledger.digest();
    println!(
        "loaded 50 ICD-9 coded records; ledger at block #{}",
        digest_icd9.block_height
    );

    // A recoding pass appends *new versions* under ICD-10; nothing is
    // deleted, the old versions remain in the immutable store and ledger.
    for i in 0..50 {
        let record = Record::new(format!("patient-{i:03}"))
            .with("diagnosis", Value::Text("icd10/E11.9".to_string()))
            .with("lab_glucose", Value::Integer(90 + (i % 60)))
            .with("physician", Value::Text(format!("dr-{}", i % 5)));
        db.insert_record("patients", &record).unwrap();
    }
    let digest_icd10 = ledger.digest();
    println!(
        "recoded to ICD-10; ledger grew from block #{} to #{}",
        digest_icd9.block_height, digest_icd10.block_height
    );
    assert!(digest_icd10.block_height > digest_icd9.block_height);

    // Current state reflects the new coding.
    let current = db.get_record("patients", "patient-007").unwrap().unwrap();
    println!(
        "patient-007 current diagnosis: {:?}",
        current.get("diagnosis")
    );
    assert_eq!(
        current.get("diagnosis"),
        Some(&Value::Text("icd10/E11.9".into()))
    );

    // Analytical queries: each one is a range read over index cells.
    let diabetic = db
        .query_eq("patients", "diagnosis", &Value::Text("icd10/E11.9".into()))
        .unwrap();
    println!("patients with the ICD-10 diabetes code: {}", diabetic.len());
    assert_eq!(diabetic.len(), 50);

    let elevated = db
        .query_int_range("patients", "lab_glucose", 126, 200)
        .unwrap();
    println!("patients with elevated glucose (>=126): {}", elevated.len());
    // Glucose is 90 + i % 60 for patients 0..50, so 126..=139 are elevated.
    assert_eq!(elevated.len(), 14);

    // Point-in-time provenance: the pre-recoding ledger version can still be
    // opened and shows the ICD-9 data: the cells of the table's three
    // columns, ids 0..3 (the only table, so its column range starts at 0).
    let historical = ledger.checkout(digest_icd9.block_height).unwrap();
    let historical_entries = historical.range(
        &UniversalKey::column_prefix(0),
        &UniversalKey::column_prefix(3),
    );
    println!(
        "historical ledger version at block #{} still holds {} cells",
        digest_icd9.block_height,
        historical_entries.len()
    );
    assert!(!historical_entries.is_empty());

    // And the whole history audits clean.
    assert_eq!(ledger.audit_chain(), None);
    println!("provenance audit passed");
}
