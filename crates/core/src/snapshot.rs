//! The unified snapshot read path: pin once, verify many.
//!
//! Every verified read in Spitz is anchored at a digest. A
//! [`ShardedSnapshot`] makes that anchor first-class: it pins a
//! **consistent cut** across every shard (taken under the sharded
//! database's epoch fence, so no cross-shard transaction is ever
//! half-visible) and serves repeatable reads verified against the single
//! cross-shard root. Each shard's part of the cut is a snapshot of that
//! shard's ledger.
//!
//! This is the snapshot-isolated analytical read path over the transactional
//! write stream: writers keep committing while a snapshot holder scans. A
//! pin reads nothing from the store, for every index kind: each shard's
//! instance is checked out at its own head root, which copies that root and
//! the entry count, and later versions share every unchanged node.
//!
//! It is also the only place cross-shard proofs are assembled: the sharded
//! database's one-shot `*_verified` reads (and so the served reads) take a
//! cut and answer through it, so a one-shot read, a snapshot read and a
//! served read of one cut are byte-for-byte the same proof. The cut's
//! Merkle tree is built once, when the snapshot is taken, and every audit
//! path comes from it.

use std::sync::Arc;
use std::time::Instant;

use spitz_ledger::LedgerSnapshot;
use spitz_obs::{Histogram, TelemetryHandle};

use crate::proof::{
    multi_by_shard, ShardedMultiProof, ShardedProof, ShardedRangeProof, ShardedVerifiedRange,
};
use crate::sharded::{shard_for, Cut, ShardedDigest};
use crate::Result;

/// Build-latency and encoded-size histograms of one proof kind.
struct ProofMeter {
    build_nanos: Arc<Histogram>,
    bytes: Arc<Histogram>,
}

impl ProofMeter {
    fn new(telemetry: &TelemetryHandle, kind: &str) -> Self {
        ProofMeter {
            build_nanos: telemetry.histogram(&format!("proof.sharded_{kind}_build_nanos")),
            bytes: telemetry.histogram(&format!("proof.sharded_{kind}_bytes")),
        }
    }

    /// Start timing one proof build (`None`, no clock read, when telemetry
    /// is disabled).
    fn start(&self) -> Option<Instant> {
        self.build_nanos.start()
    }

    /// Record the build latency since [`ProofMeter::start`] and the proof's
    /// size. `encoded_len` is only evaluated when something records it.
    fn finish(&self, start: Option<Instant>, encoded_len: impl FnOnce() -> usize) {
        if start.is_some() {
            self.build_nanos.finish(start);
            self.bytes.record(encoded_len() as u64);
        }
    }
}

/// Proof-layer instruments, resolved once at construction so the verified
/// read paths never touch the registry maps:
/// `proof.sharded_{point,range,multi}_{build_nanos,bytes}`.
pub(crate) struct ProofObs {
    point: ProofMeter,
    range: ProofMeter,
    multi: ProofMeter,
}

impl ProofObs {
    pub(crate) fn new(telemetry: &TelemetryHandle) -> Self {
        ProofObs {
            point: ProofMeter::new(telemetry, "point"),
            range: ProofMeter::new(telemetry, "range"),
            multi: ProofMeter::new(telemetry, "multi"),
        }
    }
}

/// A pinned, immutable, **consistent** view of a sharded Spitz database.
///
/// Obtained from `ShardedDb::snapshot`, which pins the per-shard digests
/// under the exclusive epoch fence that every commit path holds shared — so
/// the cut can never show one half of a cross-shard transaction. Every read
/// is verified against the single pinned cross-shard root.
pub struct ShardedSnapshot {
    cut: Cut,
    shards: Vec<LedgerSnapshot>,
    obs: Arc<ProofObs>,
}

impl ShardedSnapshot {
    /// The cut over per-shard ledger snapshots taken together, in shard
    /// order, recording its proofs in `obs`.
    pub(crate) fn new(shards: Vec<LedgerSnapshot>, obs: Arc<ProofObs>) -> Self {
        let cut = Cut::over(shards.iter().map(LedgerSnapshot::digest).collect());
        ShardedSnapshot { cut, shards, obs }
    }

    /// The consistent-cut cross-shard digest this snapshot is pinned at.
    pub fn digest(&self) -> &ShardedDigest {
        &self.cut.digest
    }

    /// The pinned cross-shard root (what a verifying client compares
    /// against).
    pub fn root(&self) -> spitz_crypto::Hash {
        self.cut.digest.root
    }

    /// Number of shards in the cut.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Unverified point read against the pinned cut.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.shards[shard_for(key, self.shards.len())].get(key)
    }

    /// Verified point read: value plus a [`ShardedProof`] chaining the
    /// serving shard's pinned proof to the pinned cross-shard root.
    pub fn get_verified(&self, key: &[u8]) -> (Option<Vec<u8>>, ShardedProof) {
        let timer = self.obs.point.start();
        let shard = shard_for(key, self.shards.len());
        let (value, ledger_proof) = self.shards[shard].get_with_proof(key);
        let proof = ShardedProof::assemble(&self.cut, shard, ledger_proof);
        self.obs.point.finish(timer, || proof.encoded_len());
        (value, proof)
    }

    /// Batched verified point read against the pinned cut: keys sharing a
    /// shard share one batched ledger proof, every group chains to the
    /// pinned cross-shard root, and the `i`-th returned value answers
    /// `keys[i]`.
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> (Vec<Option<Vec<u8>>>, ShardedMultiProof) {
        let timer = self.obs.multi.start();
        let (values, proofs) = multi_by_shard(self.shards.len(), keys, |shard, keys| {
            self.shards[shard].get_multi_with_proof(keys)
        });
        let proof = ShardedMultiProof::assemble(&self.cut, proofs);
        self.obs.multi.finish(timer, || proof.encoded_len());
        (values, proof)
    }

    /// Verified cross-shard range read over `start <= key < end`.
    ///
    /// Fans out a complete SIRI range proof per shard against each shard's
    /// pinned digest, merges the per-shard results in key order, and chains
    /// everything through the shard-digest leaves to the single pinned
    /// root. [`ShardedRangeProof::verify`] re-checks all of it client-side:
    /// nothing forged, nothing omitted, no shard withheld.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> Result<ShardedVerifiedRange> {
        let timer = self.obs.range.start();
        let parts = self
            .shards
            .iter()
            .map(|shard| shard.range_with_proof(start, end))
            .collect();
        let (entries, proof) = ShardedRangeProof::assemble(&self.cut.digest, parts);
        self.obs.range.finish(timer, || proof.encoded_len());
        Ok((entries, proof))
    }
}

impl std::fmt::Debug for ShardedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSnapshot")
            .field("digest", &self.cut.digest)
            .field("shards", &self.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::proof::Verifier;
    use crate::sharded::ShardedDb;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:05}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn sharded_snapshot_reads_verify_against_one_pinned_root() {
        let db = ShardedDb::in_memory(4);
        db.put_batch((0..120).map(kv).collect()).unwrap();
        let snapshot = db.snapshot().unwrap();
        assert!(snapshot.digest().verify());

        let mut client = Verifier::new();
        assert!(client.observe_sharded(snapshot.digest()));

        // Point reads from every shard chain to the same pinned root.
        for i in [0u32, 31, 77, 119] {
            let (k, v) = kv(i);
            let (value, proof) = snapshot.get_verified(&k);
            assert_eq!(value, Some(v));
            assert_eq!(proof.root, snapshot.root());
            assert!(client.verify_sharded_read(&k, value.as_deref(), &proof));
        }
        // Absence proof.
        let (missing, proof) = snapshot.get_verified(b"no-such-key");
        assert!(missing.is_none());
        assert!(client.verify_sharded_read(b"no-such-key", None, &proof));

        // Range reads merge across shards and verify completely.
        let (entries, proof) = snapshot.range_verified(b"key-00020", b"key-00040").unwrap();
        assert_eq!(entries.len(), 20);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(client.verify_sharded_range(&entries, &proof));

        // Tampering is rejected: forged value, omission, smuggled entry.
        let mut forged = entries.clone();
        forged[3].1 = b"forged".to_vec();
        assert!(!proof.verify(&forged));
        let mut truncated = entries.clone();
        truncated.remove(11);
        assert!(!proof.verify(&truncated));
        let mut padded = entries.clone();
        padded.push(kv(999));
        padded.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(!proof.verify(&padded));
    }

    #[test]
    fn sharded_snapshot_is_stable_while_writers_advance() {
        let db = ShardedDb::in_memory(3);
        db.put_batch((0..60).map(kv).collect()).unwrap();
        let snapshot = db.snapshot().unwrap();
        let pinned_root = snapshot.root();

        db.put_batch((60..90).map(kv).collect()).unwrap();
        assert_ne!(db.digest().root, pinned_root);

        // The snapshot still serves (and proves) exactly the old cut.
        let (entries, proof) = snapshot.range_verified(&kv(0).0, &kv(90).0).unwrap();
        assert_eq!(entries.len(), 60);
        assert_eq!(proof.root, pinned_root);
        assert!(proof.verify(&entries));
        assert_eq!(snapshot.get(&kv(75).0), None);
    }
}
