//! Deferred (batched) verification.
//!
//! Section 5.3: "To improve verification throughput, we use a deferred
//! scheme, which means the transactions are verified asynchronously in
//! batch." A [`DeferredVerifier`] collects the proofs returned with each
//! operation and verifies a whole batch at once, amortising the digest
//! comparison; the alternative *online* scheme verifies every proof before
//! the result is accepted. The `ablation_verification` benchmark compares
//! the two schemes.

use parking_lot::Mutex;

use crate::ledger::LedgerProof;

/// One pending verification: the claimed key/value and the proof returned by
/// the server.
struct PendingItem {
    key: Vec<u8>,
    value: Option<Vec<u8>>,
    proof: LedgerProof,
}

/// Outcome of verifying a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerificationReport {
    /// Number of proofs that verified.
    pub verified: u64,
    /// Number of proofs that failed (evidence of tampering).
    pub failed: u64,
}

impl VerificationReport {
    /// True when every proof in the batch verified.
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }
}

/// Client-side deferred verifier: queue proofs now, verify in batch later.
#[derive(Default)]
pub struct DeferredVerifier {
    pending: Mutex<Vec<PendingItem>>,
}

impl DeferredVerifier {
    /// Create an empty verifier.
    pub fn new() -> Self {
        DeferredVerifier::default()
    }

    /// Queue the result of a verified read for later batch verification.
    pub fn submit(&self, key: Vec<u8>, value: Option<Vec<u8>>, proof: LedgerProof) {
        self.pending.lock().push(PendingItem { key, value, proof });
    }

    /// Number of queued, not-yet-verified items.
    pub fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }

    /// Verify everything queued so far. Returns the report for this batch.
    pub fn verify_batch(&self) -> VerificationReport {
        let items = std::mem::take(&mut *self.pending.lock());
        let mut report = VerificationReport::default();
        for item in items {
            if item.proof.verify(&item.key, item.value.as_deref()) {
                report.verified += 1;
            } else {
                report.failed += 1;
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use spitz_storage::InMemoryChunkStore;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("k{i:04}").into_bytes(),
            format!("v{i}").into_bytes(),
        )
    }

    #[test]
    fn batch_verification_of_honest_proofs() {
        let ledger = Ledger::new(InMemoryChunkStore::shared());
        ledger
            .try_append_block((0..100).map(kv).collect(), "load")
            .unwrap();

        let verifier = DeferredVerifier::new();
        for i in 0..50u32 {
            let (k, _) = kv(i);
            let (value, proof) = ledger.get_with_proof(&k);
            verifier.submit(k, value, proof);
        }
        assert_eq!(verifier.pending_count(), 50);
        let report = verifier.verify_batch();
        assert_eq!(report.verified, 50);
        assert_eq!(report.failed, 0);
        assert!(report.all_ok());
        assert_eq!(verifier.pending_count(), 0);
    }

    #[test]
    fn tampered_results_are_caught_at_batch_time() {
        let ledger = Ledger::new(InMemoryChunkStore::shared());
        ledger
            .try_append_block((0..20).map(kv).collect(), "load")
            .unwrap();

        let verifier = DeferredVerifier::new();
        let (k, _) = kv(3);
        let (_, proof) = ledger.get_with_proof(&k);
        // A malicious server returns a forged value with a stale/otherwise
        // valid proof.
        verifier.submit(k, Some(b"forged".to_vec()), proof);
        let report = verifier.verify_batch();
        assert_eq!(report.failed, 1);
        assert!(!report.all_ok());
    }

    #[test]
    fn each_batch_reports_its_own_proofs() {
        let ledger = Ledger::new(InMemoryChunkStore::shared());
        ledger
            .try_append_block((0..10).map(kv).collect(), "load")
            .unwrap();
        let verifier = DeferredVerifier::new();
        for round in 0..3 {
            for i in 0..10u32 {
                let (k, _) = kv(i);
                let (value, proof) = ledger.get_with_proof(&k);
                verifier.submit(k, value, proof);
            }
            let report = verifier.verify_batch();
            assert_eq!(report.verified, 10, "round {round}");
            assert_eq!(report.failed, 0, "round {round}");
        }
    }
}
