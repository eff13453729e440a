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
//! write stream: writers keep committing while a snapshot holder scans, and
//! node sharing between index versions makes the pinned instance cheap (the
//! checkout reuses every unchanged node of the live index).
//!
//! Cross-shard proofs are assembled by the `assemble` constructors in
//! [`crate::proof`], the same ones the sharded database's one-shot
//! `*_verified` reads call, so a one-shot read, a snapshot read and a served
//! read of one cut are byte-for-byte the same proof.

use std::convert::Infallible;

use spitz_ledger::LedgerSnapshot;

use crate::proof::{
    multi_by_shard, ShardedMultiProof, ShardedProof, ShardedRangeProof, ShardedVerifiedRange,
};
use crate::sharded::{shard_for, ShardedDigest};
use crate::Result;

/// A pinned, immutable, **consistent** view of a sharded Spitz database.
///
/// Obtained from `ShardedDb::snapshot`, which pins the per-shard digests
/// under the exclusive epoch fence that every commit path holds shared — so
/// the cut can never show one half of a cross-shard transaction. Every read
/// is verified against the single pinned cross-shard root.
#[derive(Debug)]
pub struct ShardedSnapshot {
    digest: ShardedDigest,
    shards: Vec<LedgerSnapshot>,
}

impl ShardedSnapshot {
    pub(crate) fn new(digest: ShardedDigest, shards: Vec<LedgerSnapshot>) -> Self {
        debug_assert_eq!(digest.shards.len(), shards.len());
        ShardedSnapshot { digest, shards }
    }

    /// The consistent-cut cross-shard digest this snapshot is pinned at.
    pub fn digest(&self) -> &ShardedDigest {
        &self.digest
    }

    /// The pinned cross-shard root (what a verifying client compares
    /// against).
    pub fn root(&self) -> spitz_crypto::Hash {
        self.digest.root
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
        let shard = shard_for(key, self.shards.len());
        let (value, ledger_proof) = self.shards[shard].get_with_proof(key);
        (
            value,
            ShardedProof::assemble(&self.digest, shard, ledger_proof),
        )
    }

    /// Batched verified point read against the pinned cut: keys sharing a
    /// shard share one batched ledger proof, every group chains to the
    /// pinned cross-shard root, and the `i`-th returned value answers
    /// `keys[i]`.
    pub fn get_multi_verified(
        &self,
        keys: &[Vec<u8>],
    ) -> (Vec<Option<Vec<u8>>>, ShardedMultiProof) {
        let Ok((values, proofs)) = multi_by_shard(self.shards.len(), keys, |shard, keys| {
            Ok::<_, Infallible>(self.shards[shard].get_multi_with_proof(keys))
        });
        (values, ShardedMultiProof::assemble(&self.digest, proofs))
    }

    /// Verified cross-shard range read over `start <= key < end`.
    ///
    /// Fans out a complete SIRI range proof per shard against each shard's
    /// pinned digest, merges the per-shard results in key order, and chains
    /// everything through the shard-digest leaves to the single pinned
    /// root. [`ShardedRangeProof::verify`] re-checks all of it client-side:
    /// nothing forged, nothing omitted, no shard withheld.
    pub fn range_verified(&self, start: &[u8], end: &[u8]) -> Result<ShardedVerifiedRange> {
        let parts = self
            .shards
            .iter()
            .map(|shard| shard.range_with_proof(start, end))
            .collect();
        Ok(ShardedRangeProof::assemble(&self.digest, parts))
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
