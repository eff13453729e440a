//! The one proof layer of Spitz: every verified read — point, batched or
//! range — funnels through the types in this module and is checked by the
//! single [`Verifier`] entry point.
//!
//! Section 5.3 of the paper: "Clients can use the digest of the ledger to
//! perform verification locally. … To verify the correctness of the results,
//! clients can recalculate the digest with the received proof and compare it
//! with the previous digest saved locally." The [`Verifier`] is that client:
//! it pins the latest [`ShardedDigest`] root it has seen, verifies read and
//! range proofs against the pin, and refuses digests that rewind history.
//!
//! Proof types (each carries per-shard `spitz_ledger` proofs):
//!
//! * [`ShardedProof`] — a point proof chained through its shard-digest leaf
//!   to the single cross-shard Merkle root.
//! * [`ShardedMultiProof`] — a batched point proof: one batched ledger
//!   proof per shard read, each chained to the same root.
//! * [`ShardedRangeProof`] — a complete cross-shard range proof: one
//!   complete per-shard range proof for **every** shard, bound together by
//!   recomputing the cross-shard root from the revealed shard digests, so a
//!   server can neither forge an entry, omit an entry, nor withhold a whole
//!   shard's contribution.

use std::collections::BTreeMap;

use spitz_crypto::merkle::AuditProof;
use spitz_crypto::Hash;
use spitz_index::codec;
use spitz_ledger::{LedgerProof, LedgerRangeProof, VerifiedRange};

use crate::sharded::{shard_for, Cut, ShardedDigest};

/// Proof returned with a verified sharded point read: the serving shard's
/// ledger proof plus the audit path from that shard's digest up to the
/// cross-shard root. A client that pins only the [`ShardedDigest::root`]
/// can verify a read of any key.
#[derive(Debug, Clone)]
pub struct ShardedProof {
    /// Index of the shard that served the read.
    pub shard: usize,
    /// Total shard count (needed to recompute the routing).
    pub shard_count: usize,
    /// The shard's ledger proof; its embedded digest is the Merkle leaf.
    pub ledger_proof: LedgerProof,
    /// Audit path from the shard digest leaf to the cross-shard root.
    pub membership: AuditProof,
    /// The cross-shard root this proof verifies against (compare with the
    /// pinned [`ShardedDigest::root`]).
    pub root: Hash,
}

impl ShardedProof {
    /// Chain `shard`'s ledger proof to the root of `cut`. The proof must
    /// have been built at that shard's leaf of the cut, by the snapshot
    /// that pinned it.
    pub(crate) fn assemble(cut: &Cut, shard: usize, ledger_proof: LedgerProof) -> Self {
        debug_assert_eq!(ledger_proof.digest, cut.digest.shards[shard]);
        ShardedProof {
            shard,
            shard_count: cut.digest.shards.len(),
            ledger_proof,
            membership: cut.membership(shard),
            root: cut.digest.root,
        }
    }

    /// Bytes a canonical wire encoding of this proof would occupy: shard
    /// index ‖ shard count ‖ ledger proof ‖ audit path ‖ root. The
    /// telemetry layer reports this as the sharded point-proof size.
    pub fn encoded_len(&self) -> usize {
        4 + 4 + self.ledger_proof.encoded_len() + self.membership.encoded_len() + 32
    }

    /// Append the canonical wire encoding (exactly
    /// [`ShardedProof::encoded_len`] bytes): shard index ‖ shard count ‖
    /// ledger proof ‖ audit path ‖ cross-shard root.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.shard as u32);
        codec::put_u32(out, self.shard_count as u32);
        self.ledger_proof.encode_into(out);
        self.membership.encode_into(out);
        codec::put_hash(out, &self.root);
    }

    /// The canonical wire encoding as a fresh buffer — what a served
    /// front-end puts on the wire with a verified point read.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`ShardedProof::encode`].
    /// Returns `None` on truncated, malformed or trailing-garbage input;
    /// hostile declared lengths are bounds-checked before any allocation.
    pub fn decode(bytes: &[u8]) -> Option<ShardedProof> {
        let mut r = codec::Reader::new(bytes);
        let proof = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return None;
        }
        Some(proof)
    }

    /// Decode a proof from a reader positioned at its first byte, leaving
    /// the reader just past it.
    fn decode_from(r: &mut codec::Reader<'_>) -> Option<ShardedProof> {
        let shard = r.u32()? as usize;
        let shard_count = r.u32()? as usize;
        let ledger_proof = LedgerProof::decode(r)?;
        let (membership, consumed) = AuditProof::decode_prefix(r.rest())?;
        r.take(consumed)?;
        let root = r.hash()?;
        Some(ShardedProof {
            shard,
            shard_count,
            ledger_proof,
            membership,
            root,
        })
    }

    /// Client-side verification: the key routes to the claimed shard, the
    /// shard's ledger proof verifies the value, and the shard digest is a
    /// leaf of the cross-shard root at the claimed position.
    pub fn verify(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        self.shard_count > 0
            && self.shard == shard_for(key, self.shard_count)
            && self.membership.leaf_index == self.shard
            && self.membership.tree_size == self.shard_count
            && self.ledger_proof.verify(key, value)
            && self
                .membership
                .verify(self.root, &self.ledger_proof.digest.encode())
    }
}

/// One shard's contribution to a [`ShardedMultiProof`]: the batched ledger
/// proof covering every queried key that routes to this shard, plus the
/// audit path chaining the shard's digest to the cross-shard root.
#[derive(Debug, Clone)]
pub struct ShardMultiGroup {
    /// Index of the shard this group proves against.
    pub shard: usize,
    /// The shard's batched ledger proof; its embedded digest is the leaf.
    pub ledger_proof: LedgerProof,
    /// Audit path from the shard digest leaf to the cross-shard root.
    pub membership: AuditProof,
}

/// Proof returned with a batched verified sharded point read: one
/// [`ShardMultiGroup`] per shard that owns at least one queried key, in
/// ascending shard order. Unlike [`ShardedRangeProof`], shards owning none
/// of the keys contribute nothing — the proof only reveals the digests of
/// the shards actually read, each chained to the single cross-shard root by
/// its audit path. Keys sharing a shard share that shard's upper-tree
/// nodes through the group's batched [`LedgerProof`].
#[derive(Debug, Clone)]
pub struct ShardedMultiProof {
    /// Total shard count (needed to recompute the routing).
    pub shard_count: usize,
    /// The cross-shard root this proof verifies against (compare with the
    /// pinned [`ShardedDigest::root`]).
    pub root: Hash,
    /// Per-shard groups, strictly ascending by shard index; exactly the
    /// shards owning at least one queried key.
    pub groups: Vec<ShardMultiGroup>,
}

/// A batched read's values, in the order of the keys asked for, and what
/// proves them.
pub(crate) type MultiRead<P> = (Vec<Option<Vec<u8>>>, P);

/// The per-shard half of a batched verified read: partition `keys` onto their
/// shards, have `prove` answer each involved shard's keys with one batched
/// ledger proof, and put the values back in input order. Returns the values
/// and the `(shard, proof)` pairs in ascending shard order, ready for
/// [`ShardedMultiProof::assemble`].
pub(crate) fn multi_by_shard(
    shard_count: usize,
    keys: &[Vec<u8>],
    mut prove: impl FnMut(usize, &[Vec<u8>]) -> MultiRead<LedgerProof>,
) -> MultiRead<Vec<(usize, LedgerProof)>> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (i, key) in keys.iter().enumerate() {
        parts[shard_for(key, shard_count)].push(i);
    }
    let mut values: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
    let mut proofs = Vec::new();
    for (shard, positions) in parts.iter().enumerate() {
        if positions.is_empty() {
            continue;
        }
        let shard_keys: Vec<Vec<u8>> = positions.iter().map(|&i| keys[i].clone()).collect();
        let (shard_values, proof) = prove(shard, &shard_keys);
        for (&position, value) in positions.iter().zip(shard_values) {
            values[position] = value;
        }
        proofs.push((shard, proof));
    }
    (values, proofs)
}

impl ShardedMultiProof {
    /// Chain each involved shard's batched ledger proof to the root of
    /// `cut` (same contract as [`ShardedProof::assemble`]).
    pub(crate) fn assemble(cut: &Cut, proofs: Vec<(usize, LedgerProof)>) -> Self {
        let groups = proofs
            .into_iter()
            .map(|(shard, ledger_proof)| {
                debug_assert_eq!(ledger_proof.digest, cut.digest.shards[shard]);
                ShardMultiGroup {
                    shard,
                    ledger_proof,
                    membership: cut.membership(shard),
                }
            })
            .collect();
        ShardedMultiProof {
            shard_count: cut.digest.shards.len(),
            root: cut.digest.root,
            groups,
        }
    }

    /// Bytes a canonical wire encoding of this proof would occupy: shard
    /// count ‖ root ‖ group count ‖ per-group (shard ‖ ledger proof ‖
    /// audit path). The telemetry layer reports this as the sharded
    /// multi-proof size.
    pub fn encoded_len(&self) -> usize {
        4 + 32
            + 4
            + self
                .groups
                .iter()
                .map(|g| 4 + g.ledger_proof.encoded_len() + g.membership.encoded_len())
                .sum::<usize>()
    }

    /// Append the canonical wire encoding (exactly
    /// [`ShardedMultiProof::encoded_len`] bytes).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.shard_count as u32);
        codec::put_hash(out, &self.root);
        codec::put_u32(out, self.groups.len() as u32);
        for group in &self.groups {
            codec::put_u32(out, group.shard as u32);
            group.ledger_proof.encode_into(out);
            group.membership.encode_into(out);
        }
    }

    /// The canonical wire encoding as a fresh buffer — what a served
    /// front-end puts on the wire with a batched verified read.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`ShardedMultiProof::encode`].
    /// Returns `None` on truncated, malformed or trailing-garbage input;
    /// hostile declared counts are bounds-checked before any allocation.
    pub fn decode(bytes: &[u8]) -> Option<ShardedMultiProof> {
        let mut r = codec::Reader::new(bytes);
        let proof = Self::decode_from(&mut r)?;
        if !r.is_exhausted() {
            return None;
        }
        Some(proof)
    }

    /// Decode a proof from a reader positioned at its first byte, leaving
    /// the reader just past it.
    fn decode_from(r: &mut codec::Reader<'_>) -> Option<ShardedMultiProof> {
        let shard_count = r.u32()? as usize;
        let root = r.hash()?;
        let count = r.count(1)?;
        let mut groups = Vec::new();
        for _ in 0..count {
            let shard = r.u32()? as usize;
            let ledger_proof = LedgerProof::decode(r)?;
            let (membership, consumed) = AuditProof::decode_prefix(r.rest())?;
            r.take(consumed)?;
            groups.push(ShardMultiGroup {
                shard,
                ledger_proof,
                membership,
            });
        }
        Some(ShardedMultiProof {
            shard_count,
            root,
            groups,
        })
    }

    /// Client-side verification of the whole batch: every key routes to a
    /// revealed group, every group's batched ledger proof verifies its
    /// shard's partition of the (key, claimed value) pairs, every shard
    /// digest is a leaf of the cross-shard root at the claimed position —
    /// and no extra group is smuggled in (each revealed group must own at
    /// least one queried key, in strictly ascending shard order).
    pub fn verify(&self, items: &[(Vec<u8>, Option<Vec<u8>>)]) -> bool {
        if self.shard_count == 0 {
            return false;
        }
        // Partition the claimed items onto their shards in input order —
        // keyed by shard, so the declared shard count sizes nothing.
        type Claim = (Vec<u8>, Option<Vec<u8>>);
        let mut parts: BTreeMap<usize, Vec<Claim>> = BTreeMap::new();
        for (key, value) in items {
            parts
                .entry(shard_for(key, self.shard_count))
                .or_default()
                .push((key.clone(), value.clone()));
        }
        // The groups must be exactly the non-empty shards, ascending.
        if self.groups.len() != parts.len() {
            return false;
        }
        self.groups.iter().zip(parts).all(|(group, (shard, part))| {
            group.shard == shard
                && group.membership.leaf_index == shard
                && group.membership.tree_size == self.shard_count
                && group.ledger_proof.verify_batch(&part)
                && group
                    .membership
                    .verify(self.root, &group.ledger_proof.digest.encode())
        })
    }
}

/// Proof returned with a verified sharded **range** read. Keys are
/// hash-partitioned, so every shard may hold part of any range; the proof
/// therefore carries one complete [`LedgerRangeProof`] per shard — all of
/// them, in shard order. Because every shard's digest is revealed, the
/// verifier recomputes the cross-shard Merkle root (and commit epoch)
/// directly from the leaves, which both authenticates each per-shard proof
/// and guarantees no shard's contribution was withheld.
///
/// No entry of the answer travels twice: each shard's proof leaves out what
/// the client can compute from that shard's part of the answer (on the
/// POS-tree, the leaves inside the range and the in-range entries of the
/// two leaves astride its bounds; see [`LedgerRangeProof`]).
#[derive(Debug, Clone)]
pub struct ShardedRangeProof {
    /// Total shard count (needed to recompute the routing).
    pub shard_count: usize,
    /// Commit epoch of the pinned cut (sum of per-shard sealed blocks).
    pub epoch: u64,
    /// The cross-shard root this proof verifies against.
    pub root: Hash,
    /// One complete range proof per shard, indexed by shard.
    pub shards: Vec<LedgerRangeProof>,
}

impl ShardedRangeProof {
    /// Merge every shard's verified range (in shard order) into one result
    /// in key order, its proofs chained to the root of `cut` (same contract
    /// as [`ShardedProof::assemble`]).
    pub(crate) fn assemble(cut: &ShardedDigest, parts: Vec<VerifiedRange>) -> ShardedVerifiedRange {
        debug_assert_eq!(parts.len(), cut.shards.len());
        let mut merged = Vec::new();
        let mut shards = Vec::with_capacity(parts.len());
        for (entries, proof) in parts {
            debug_assert_eq!(proof.digest, cut.shards[shards.len()]);
            merged.extend(entries);
            shards.push(proof);
        }
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        (
            merged,
            ShardedRangeProof {
                shard_count: cut.shards.len(),
                epoch: cut.epoch,
                root: cut.root,
                shards,
            },
        )
    }

    /// Bytes a canonical wire encoding of this proof would occupy: shard
    /// count ‖ epoch ‖ root ‖ per-shard range proofs. The telemetry layer
    /// reports this as the sharded range-proof size.
    pub fn encoded_len(&self) -> usize {
        4 + 8
            + 32
            + 4
            + self
                .shards
                .iter()
                .map(|proof| proof.encoded_len())
                .sum::<usize>()
    }

    /// Append the canonical wire encoding (exactly
    /// [`ShardedRangeProof::encoded_len`] bytes): shard count ‖ epoch ‖
    /// root ‖ per-shard proof count ‖ per-shard range proofs.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.shard_count as u32);
        codec::put_u64(out, self.epoch);
        codec::put_hash(out, &self.root);
        codec::put_u32(out, self.shards.len() as u32);
        for proof in &self.shards {
            proof.encode_into(out);
        }
    }

    /// The canonical wire encoding as a fresh buffer — what a served
    /// front-end puts on the wire with a verified range read.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`ShardedRangeProof::encode`].
    /// Returns `None` on truncated, malformed or trailing-garbage input.
    /// The per-shard vector grows by pushing as bytes are actually
    /// consumed, so a hostile declared count cannot force an allocation
    /// larger than the input itself.
    pub fn decode(bytes: &[u8]) -> Option<ShardedRangeProof> {
        let mut r = codec::Reader::new(bytes);
        let shard_count = r.u32()? as usize;
        let epoch = r.u64()?;
        let root = r.hash()?;
        let count = r.count(1)?;
        let mut shards = Vec::new();
        for _ in 0..count {
            shards.push(LedgerRangeProof::decode(&mut r)?);
        }
        if !r.is_exhausted() {
            return None;
        }
        Some(ShardedRangeProof {
            shard_count,
            epoch,
            root,
            shards,
        })
    }

    /// Client-side verification of a merged cross-shard range result.
    ///
    /// Checks, in order: every shard contributed a proof over the same
    /// `[start, end)` bounds; the merged entries are strictly sorted; the
    /// revealed per-shard digests recompute exactly the claimed cross-shard
    /// root and epoch; and each shard's complete range proof verifies
    /// against its own partition of the entries (so nothing is forged *or*
    /// omitted on any shard).
    pub fn verify(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> bool {
        self.verified_cut(entries).is_some()
    }

    /// [`ShardedRangeProof::verify`], returning the cut the revealed shard
    /// digests recompute — the one a verifier pins — when it passes.
    fn verified_cut(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> Option<ShardedDigest> {
        if self.shard_count == 0 || self.shards.len() != self.shard_count {
            return None;
        }
        let start = &self.shards[0].start;
        let end = &self.shards[0].end;
        if !self
            .shards
            .iter()
            .all(|p| &p.start == start && &p.end == end)
        {
            return None;
        }
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return None;
        }
        // Recompute root and epoch from the revealed shard digests: this is
        // what binds the per-shard proofs to the single pinned root and
        // makes withholding a shard impossible.
        let combined = ShardedDigest::over(self.shards.iter().map(|p| p.digest).collect());
        if combined.root != self.root || combined.epoch != self.epoch {
            return None;
        }
        // Partition the merged entries back onto their shards, by
        // reference, and verify each shard's complete range proof against
        // its exact partition. Routing binds each entry to its shard; one
        // shard owns every key, so it needs no routing hash.
        let verified = if self.shard_count == 1 {
            self.shards[0].verify(entries)
        } else {
            let mut split: Vec<Vec<&(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); self.shard_count];
            for entry in entries {
                split[shard_for(&entry.0, self.shard_count)].push(entry);
            }
            self.shards
                .iter()
                .zip(&split)
                .all(|(proof, part)| proof.verify(part))
        };
        verified.then_some(combined)
    }

    /// True when every shard's proof is over exactly the requested
    /// `[start, end)`. [`ShardedRangeProof::verify`] proves the entries
    /// complete for the bounds the proof itself carries; a client binds
    /// those bounds to its own request with this check, or a server could
    /// answer a narrower range with a proof that verifies.
    pub fn answers(&self, start: &[u8], end: &[u8]) -> bool {
        !self.shards.is_empty() && self.shards.iter().all(|p| p.start == start && p.end == end)
    }
}

/// Result of a verified sharded range read: the merged entries in key
/// order plus the single [`ShardedRangeProof`] covering all of them.
pub(crate) type ShardedVerifiedRange = (Vec<(Vec<u8>, Vec<u8>)>, ShardedRangeProof);

/// A pin: the cross-shard root a client trusts, with the commit
/// epoch used to order successive pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardedPin {
    epoch: u64,
    root: Hash,
}

/// The single client-side verification entry point, with one pin.
///
/// A client pins the cross-shard root of a [`ShardedDigest`] with
/// [`Verifier::observe_sharded`] (a one-shard database has a one-leaf
/// digest), then verifies point reads, batched reads and complete range
/// reads against that pin. The pin only moves forward: an attempt to
/// present an older state (a rollback) or a different state at the same
/// epoch (a fork) is refused, and a proof whose root differs from the pin
/// never verifies a point or batched read.
#[derive(Default)]
pub struct Verifier {
    pinned: Option<ShardedPin>,
}

impl Verifier {
    /// Create a verifier with no pinned digest yet.
    pub fn new() -> Self {
        Verifier::default()
    }

    /// The cross-shard root currently pinned, if any.
    pub fn pinned_sharded_root(&self) -> Option<Hash> {
        self.pinned.map(|p| p.root)
    }

    /// Observe a fresh cross-shard digest. The digest must be internally
    /// consistent and must not rewind the commit epoch; a different root at
    /// the pinned epoch is a fork and is refused.
    pub fn observe_sharded(&mut self, digest: &ShardedDigest) -> bool {
        digest.verify() && self.advance(digest)
    }

    /// Move the pin to a digest already known to be self-consistent, unless
    /// that would rewind it or fork it.
    fn advance(&mut self, digest: &ShardedDigest) -> bool {
        let next = ShardedPin {
            epoch: digest.epoch,
            root: digest.root,
        };
        let accepted = match self.pinned {
            None => true,
            Some(previous) => next.epoch > previous.epoch || next == previous,
        };
        if accepted {
            self.pinned = Some(next);
        }
        accepted
    }

    /// Verification of a sharded point read against the pinned cross-shard
    /// root. Requires a pin (via [`Verifier::observe_sharded`]): a point
    /// proof reveals only one shard's digest, so it cannot establish a new
    /// trusted root by itself.
    pub fn verify_sharded_read(
        &mut self,
        key: &[u8],
        value: Option<&[u8]>,
        proof: &ShardedProof,
    ) -> bool {
        match self.pinned {
            Some(pin) => pin.root == proof.root && proof.verify(key, value),
            None => false,
        }
    }

    /// Verification of a batched sharded point read against the pinned
    /// cross-shard root. Like [`Verifier::verify_sharded_read`], a batched
    /// proof reveals only the serving shards' digests, so it requires an
    /// existing pin and can never establish or advance one.
    pub fn verify_sharded_multi(
        &mut self,
        items: &[(Vec<u8>, Option<Vec<u8>>)],
        proof: &ShardedMultiProof,
    ) -> bool {
        match self.pinned {
            Some(pin) => pin.root == proof.root && proof.verify(items),
            None => false,
        }
    }

    /// Verification of a merged sharded range read. The proof reveals every
    /// shard digest, so it can also *advance* the pin the way a digest
    /// observation does (never rewind it). The range proven is the one the
    /// proof carries: check [`ShardedRangeProof::answers`] against the
    /// request as well.
    pub fn verify_sharded_range(
        &mut self,
        entries: &[(Vec<u8>, Vec<u8>)],
        proof: &ShardedRangeProof,
    ) -> bool {
        match proof.verified_cut(entries) {
            Some(cut) => self.advance(&cut),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::ShardedDb;

    #[test]
    fn sharded_rollback_is_detected() {
        let db = ShardedDb::in_memory(3);
        db.put(b"a", b"1").unwrap();
        let old = db.digest();
        db.put(b"b", b"2").unwrap();
        let new = db.digest();

        let mut client = Verifier::new();
        assert!(client.observe_sharded(&new));
        assert!(!client.observe_sharded(&old), "rollback must be refused");
        assert_eq!(client.pinned_sharded_root(), Some(new.root));

        // A forged digest that is not self-consistent is refused outright.
        let mut forged = new.clone();
        forged.root = spitz_crypto::sha256(b"fork");
        assert!(!client.observe_sharded(&forged));
    }

    #[test]
    fn wire_roundtrip_is_byte_identical_and_accepts_identically() {
        let db = ShardedDb::in_memory(3);
        for i in 0..20u32 {
            db.put(format!("k{i:02}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        let mut client = Verifier::new();
        assert!(client.observe_sharded(&db.digest()));

        let (value, proof) = db.get_verified(b"k05").unwrap();
        let bytes = proof.encode();
        assert_eq!(bytes.len(), proof.encoded_len());
        let decoded = ShardedProof::decode(&bytes).expect("decode point proof");
        assert_eq!(decoded.encode(), bytes, "re-encode must be byte-identical");
        assert!(client.verify_sharded_read(b"k05", value.as_deref(), &decoded));
        assert!(!client.verify_sharded_read(b"k05", Some(b"forged"), &decoded));

        // Truncation and trailing garbage are both rejected outright.
        assert!(ShardedProof::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ShardedProof::decode(&extended).is_none());

        let (entries, range_proof) = db.range_verified(b"k00", b"k99").unwrap();
        assert_eq!(entries.len(), 20);
        let range_bytes = range_proof.encode();
        assert_eq!(range_bytes.len(), range_proof.encoded_len());
        let range_decoded = ShardedRangeProof::decode(&range_bytes).expect("decode range proof");
        assert_eq!(range_decoded.encode(), range_bytes);
        assert!(client.verify_sharded_range(&entries, &range_decoded));
        assert!(ShardedRangeProof::decode(&range_bytes[..range_bytes.len() - 1]).is_none());
    }

    #[test]
    fn sharded_multi_proofs_batch_across_shards() {
        let db = ShardedDb::in_memory(4);
        let writes: Vec<_> = (0..100u32)
            .map(|i| {
                (
                    format!("key-{i:05}").into_bytes(),
                    format!("value-{i}").into_bytes(),
                )
            })
            .collect();
        db.put_batch(writes).unwrap();

        let mut keys: Vec<Vec<u8>> = (0..16u32)
            .map(|i| format!("key-{:05}", i * 6).into_bytes())
            .collect();
        keys.push(b"no-such-key".to_vec());
        let (values, proof) = db.get_multi_verified(&keys).unwrap();
        assert_eq!(values.len(), keys.len());
        assert_eq!(values[16], None);
        assert_eq!(values[0], Some(b"value-0".to_vec()));
        assert_eq!(proof.root, db.digest().root);

        // A pin is required; with one the whole batch verifies.
        let items: Vec<_> = keys.iter().cloned().zip(values.clone()).collect();
        let mut client = Verifier::new();
        assert!(!client.verify_sharded_multi(&items, &proof));
        assert!(client.observe_sharded(&db.digest()));
        assert!(client.verify_sharded_multi(&items, &proof));

        // Forged value / conjured presence fail.
        let mut forged = items.clone();
        forged[3].1 = Some(b"forged".to_vec());
        assert!(!client.verify_sharded_multi(&forged, &proof));
        let mut conjured = items.clone();
        conjured[16].1 = Some(b"conjured".to_vec());
        assert!(!client.verify_sharded_multi(&conjured, &proof));

        // Dropping a group (shard withholding) fails against the full
        // batch, as does smuggling a duplicate group in.
        let mut withheld = proof.clone();
        withheld.groups.remove(0);
        assert!(!client.verify_sharded_multi(&items, &withheld));
        let mut smuggled = proof.clone();
        let extra = smuggled.groups[0].clone();
        smuggled.groups.insert(0, extra);
        assert!(!client.verify_sharded_multi(&items, &smuggled));

        // The wire encoding round-trips byte-identically; truncation and
        // trailing garbage are rejected.
        let bytes = proof.encode();
        assert_eq!(bytes.len(), proof.encoded_len());
        let decoded = ShardedMultiProof::decode(&bytes).expect("decode multi proof");
        assert_eq!(decoded.encode(), bytes);
        assert!(client.verify_sharded_multi(&items, &decoded));
        assert!(ShardedMultiProof::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(ShardedMultiProof::decode(&extended).is_none());

        // Snapshots serve the same batch pinned at their cut.
        let snapshot = db.snapshot().unwrap();
        let pinned_root = snapshot.root();
        db.put(b"key-00000", b"moved-on").unwrap();
        let (snap_values, snap_proof) = snapshot.get_multi_verified(&keys);
        assert_eq!(snap_proof.root, pinned_root);
        assert_eq!(snap_values[0], Some(b"value-0".to_vec()));
        let snap_items: Vec<_> = keys.iter().cloned().zip(snap_values).collect();
        assert!(snap_proof.verify(&snap_items));
    }

    #[test]
    fn sharded_point_reads_need_a_pin() {
        let db = ShardedDb::in_memory(2);
        db.put(b"k", b"v").unwrap();
        let (value, proof) = db.get_verified(b"k").unwrap();

        let mut client = Verifier::new();
        assert!(
            !client.verify_sharded_read(b"k", value.as_deref(), &proof),
            "a point read cannot establish trust by itself"
        );
        assert!(client.observe_sharded(&db.digest()));
        assert!(client.verify_sharded_read(b"k", value.as_deref(), &proof));
        assert!(!client.verify_sharded_read(b"k", Some(b"forged"), &proof));
    }
}
