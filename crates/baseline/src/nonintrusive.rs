//! The non-intrusive VDB composition (Figure 3 of the paper).
//!
//! "We set up an immutable key-value store using ForkBase as the underlying
//! system, which interacts with the ledger … the submitted data are
//! committed in both the underlying and ledger database atomically … the
//! client obtains the queried results from the underlying database and the
//! proofs from the ledger as responses." (Section 6.2.3)
//!
//! Two independent systems therefore process every request: the unmodified
//! underlying database (here the [`ImmutableKvs`]) and a separate ledger
//! database (a full [`spitz_ledger::Ledger`]). Each hop between them crosses
//! a system boundary, modelled by serializing the request and response the
//! way an RPC would — the interaction cost the paper attributes to this
//! design, plus a simulated per-hop envelope copy (64 bytes by default).

use std::sync::Arc;

use spitz_crypto::Hash;
use spitz_ledger::{Digest, Ledger, LedgerProof, VerifiedRange};
use spitz_storage::{ChunkStore, InMemoryChunkStore};

use crate::kvs::ImmutableKvs;

/// The non-intrusive verifiable database: underlying KVS + separate ledger.
pub struct NonIntrusiveVdb {
    underlying: ImmutableKvs,
    ledger: Ledger,
    /// Extra bytes copied per cross-system interaction (simulated envelope
    /// overhead; 0 = serialization of the payload only).
    envelope_bytes: usize,
}

impl Default for NonIntrusiveVdb {
    fn default() -> Self {
        Self::new()
    }
}

impl NonIntrusiveVdb {
    /// Create an instance with the default (serialization-only) interaction
    /// cost.
    pub fn new() -> Self {
        Self::with_interaction_cost(64)
    }

    /// Create an instance with `envelope_bytes` of additional per-hop
    /// envelope copying (models heavier RPC stacks).
    pub(crate) fn with_interaction_cost(envelope_bytes: usize) -> Self {
        Self::with_stores(
            InMemoryChunkStore::shared(),
            InMemoryChunkStore::shared(),
            envelope_bytes,
        )
    }

    /// Create an instance over explicit chunk stores for the two composed
    /// systems (e.g. durable stores for an on-disk deployment). The two
    /// systems are independent products in this architecture, so they do
    /// not share a store.
    pub fn with_stores(
        underlying_store: Arc<dyn ChunkStore>,
        ledger_store: Arc<dyn ChunkStore>,
        envelope_bytes: usize,
    ) -> Self {
        NonIntrusiveVdb {
            underlying: ImmutableKvs::with_store(underlying_store),
            ledger: Ledger::new(ledger_store),
            envelope_bytes,
        }
    }

    /// Simulate one cross-system interaction carrying `payload`: the request
    /// and response are serialized into fresh buffers (as an RPC marshaller
    /// would) and a digest of the envelope is computed (checksumming).
    fn cross_system_hop(&self, payload: &[u8]) -> Hash {
        let mut envelope = Vec::with_capacity(payload.len() + self.envelope_bytes + 16);
        envelope.extend_from_slice(b"rpc-envelope:");
        envelope.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        envelope.extend_from_slice(payload);
        envelope.resize(envelope.len() + self.envelope_bytes, 0xEE);
        spitz_crypto::sha256(&envelope)
    }

    /// Write a key/value pair: committed in both the underlying database and
    /// the ledger database ("atomically" — here sequentially under the
    /// caller's control, with a hop to each system).
    pub fn put(&self, key: &[u8], value: &[u8]) -> Digest {
        let mut payload = key.to_vec();
        payload.extend_from_slice(value);
        // Hop 1: underlying database.
        self.cross_system_hop(&payload);
        self.underlying.put(key, value);
        // Hop 2: ledger database.
        self.cross_system_hop(&payload);
        self.ledger
            .try_append_block(vec![(key.to_vec(), value.to_vec())], "PUT")
            .expect("the ledger database persists its block")
    }

    /// Unverified read: only the underlying database is consulted, but the
    /// request still crosses into it.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.cross_system_hop(key);
        self.underlying.get(key)
    }

    /// Verified read: fetch the value from the underlying database, then the
    /// proof from the ledger database (a second cross-system interaction).
    pub fn get_verified(&self, key: &[u8]) -> (Option<Vec<u8>>, LedgerProof) {
        self.cross_system_hop(key);
        let value = self.underlying.get(key);
        self.cross_system_hop(key);
        let (_, proof) = self.ledger.get_with_proof(key);
        (value, proof)
    }

    /// Unverified range read from the underlying database.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.cross_system_hop(start);
        self.underlying.range(start, end)
    }

    /// Verified range read: results from the underlying database, proofs
    /// from the ledger database.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> VerifiedRange {
        self.cross_system_hop(start);
        let entries = self.underlying.range(start, end);
        // The whole result set is shipped to the ledger database so it can
        // locate the proofs — the second, payload-sized hop.
        let shipped: Vec<u8> = entries
            .iter()
            .flat_map(|(k, v)| {
                let mut row = k.clone();
                row.extend_from_slice(v);
                row
            })
            .collect();
        self.cross_system_hop(&shipped);
        let (_, proof) = self
            .ledger
            .snapshot()
            .expect("a head pin reads nothing from the store")
            .range_with_proof(start, end);
        (entries, proof)
    }

    /// Number of keys in the underlying database.
    pub fn len(&self) -> usize {
        self.underlying.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.underlying.is_empty()
    }

    /// The ledger database's digest.
    pub fn digest(&self) -> Digest {
        self.ledger.digest()
    }

    /// Check that the two systems agree on a key (a consistency audit the
    /// operator of a non-intrusive deployment has to run; Spitz gets this
    /// for free by construction).
    pub fn consistent(&self, key: &[u8]) -> bool {
        self.underlying.get(key) == self.ledger.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(n: u32) -> NonIntrusiveVdb {
        let db = NonIntrusiveVdb::new();
        for i in 0..n {
            db.put(
                format!("key-{i:05}").as_bytes(),
                format!("value-{i}").as_bytes(),
            );
        }
        db
    }

    #[test]
    fn dual_commit_keeps_both_systems_consistent() {
        let db = loaded(200);
        assert_eq!(db.len(), 200);
        for i in (0..200u32).step_by(17) {
            let key = format!("key-{i:05}");
            assert!(db.consistent(key.as_bytes()), "{key}");
        }
        assert_eq!(db.get(b"key-00042"), Some(b"value-42".to_vec()));
        assert_eq!(db.get(b"missing"), None);
    }

    #[test]
    fn verified_reads_combine_value_and_ledger_proof() {
        let db = loaded(100);
        let (value, proof) = db.get_verified(b"key-00033");
        assert_eq!(value, Some(b"value-33".to_vec()));
        assert!(proof.verify(b"key-00033", value.as_deref()));
        assert!(!proof.verify(b"key-00033", Some(b"forged")));
    }

    #[test]
    fn verified_ranges_work_across_the_two_systems() {
        let db = loaded(300);
        let (entries, proof) = db.range_verified(b"key-00100", b"key-00120");
        assert_eq!(entries.len(), 20);
        assert!(proof.verify(&entries));
        let digest = db.digest();
        assert_eq!(digest.block_height, 299);
    }

    #[test]
    fn interaction_cost_is_configurable() {
        let cheap = NonIntrusiveVdb::with_interaction_cost(0);
        let pricey = NonIntrusiveVdb::with_interaction_cost(4096);
        cheap.put(b"k", b"v");
        pricey.put(b"k", b"v");
        assert_eq!(cheap.get(b"k"), pricey.get(b"k"));
    }
}
