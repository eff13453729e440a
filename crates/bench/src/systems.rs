//! Helpers that load the same workload into every evaluated system.

use spitz_baseline::{ImmutableKvs, NonIntrusiveVdb, QldbBaseline};
use spitz_core::ShardedDb;

use crate::workload::KeyValueWorkload;

/// Load a one-shard Spitz instance with the workload (one block per batch
/// of 256 writes, mirroring the baseline's block capacity).
pub fn load_spitz(workload: &KeyValueWorkload) -> ShardedDb {
    let db = ShardedDb::in_memory(1);
    for batch in workload.records.chunks(256) {
        db.put_batch(batch.to_vec()).expect("load");
    }
    db
}

/// Load the immutable KVS with the workload.
pub fn load_kvs(workload: &KeyValueWorkload) -> ImmutableKvs {
    let kvs = ImmutableKvs::new();
    for (key, value) in &workload.records {
        kvs.put(key, value);
    }
    kvs
}

/// Load the QLDB-like baseline with the workload.
pub fn load_qldb(workload: &KeyValueWorkload) -> QldbBaseline {
    let db = QldbBaseline::new();
    for (key, value) in &workload.records {
        db.put(key, value);
    }
    db.seal();
    db
}

/// Load the non-intrusive composition with the workload.
pub fn load_nonintrusive(workload: &KeyValueWorkload) -> NonIntrusiveVdb {
    let db = NonIntrusiveVdb::new();
    for (key, value) in &workload.records {
        db.put(key, value);
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadConfig;

    #[test]
    fn all_systems_agree_on_the_loaded_data() {
        let workload = KeyValueWorkload::generate(WorkloadConfig::with_records(300));
        let spitz = load_spitz(&workload);
        let kvs = load_kvs(&workload);
        let qldb = load_qldb(&workload);
        let non_intrusive = load_nonintrusive(&workload);

        for (key, value) in workload.records.iter().step_by(37) {
            assert_eq!(spitz.get(key).unwrap().as_ref(), Some(value));
            assert_eq!(kvs.get(key).as_ref(), Some(value));
            assert_eq!(qldb.get(key).as_ref(), Some(value));
            assert_eq!(non_intrusive.get(key).as_ref(), Some(value));
        }
    }
}
