//! The unified Spitz ledger.
//!
//! "We implement the ledger by adopting an index from the SIRI family for
//! both query and verification. Each block in the ledger stores a historical
//! index instance, naturally composing a version of the ledger, and the
//! nodes between instances can be shared." (Section 6.1)
//!
//! Concretely a [`Ledger`] owns one mutable SIRI index plus a journal of
//! blocks; every committed batch of writes is applied to the index, the new
//! index root is sealed into a [`Block`], and the block hash is appended to
//! the journal — an RFC 6962 [`MerkleTree`] over every block hash. Because
//! the index nodes are content addressed in the shared chunk store, the
//! per-block index instances share every unchanged node — the ledger grows
//! with the *change volume*, not with the database size.
//!
//! The head block hash and the journal root are computed once per sealed
//! block and carried in every [`Digest`]. Queries go straight to the index;
//! when verification is requested the same traversal emits the Merkle path,
//! which is returned together with the current digest. Clients verify
//! locally by recomputing the digest's index root from the proof (Section
//! 5.3); the block hash and journal root are fields of the digest the client
//! already pinned, so a read proof carries nothing for them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spitz_crypto::{leaf_hash, Hash, MerkleTree};
use spitz_index::codec;
use spitz_index::siri::{collect_reachable, verify_proof, verify_range_proof, SiriIndex, SiriKind};
use spitz_index::{verify_multi_proof, IndexProof, MerkleBucketTree, MerklePatriciaTrie, PosTree};
use spitz_storage::{Chunk, ChunkKind, ChunkStore, StorageError};

use crate::block::{Block, TxnRecord, WriteOp};

/// Root-pointer name under which the ledger stores the chunk address of its
/// latest block (the durable equivalent of a git `HEAD` ref).
pub const LEDGER_HEAD_ROOT: &str = "spitz/ledger/head";

/// The database digest a client pins locally: enough to verify any proof the
/// ledger hands out and to detect history rewrites between two digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Height of the latest block.
    pub block_height: u64,
    /// Hash of the latest block.
    pub block_hash: Hash,
    /// Root of the ledger index after the latest block.
    pub index_root: Hash,
    /// RFC 6962 Merkle root of the journal over all block hashes
    /// ([`Hash::ZERO`] for an empty ledger).
    pub journal_root: Hash,
    /// Which SIRI structure the ledger uses (needed to verify index proofs).
    pub index_kind: SiriKind,
}

impl Digest {
    /// Width of [`Digest::encode`]'s output.
    pub const ENCODED_LEN: usize = 8 + 32 * 3 + 1;

    /// Canonical byte encoding of a digest, used as the Merkle leaf of the
    /// cross-shard digest (`spitz_core`'s `ShardedDigest`) and for durable
    /// digest records. Fixed width: height ‖ block hash ‖ index root ‖
    /// journal root ‖ SIRI kind tag.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN);
        out.extend_from_slice(&self.block_height.to_be_bytes());
        out.extend_from_slice(self.block_hash.as_bytes());
        out.extend_from_slice(self.index_root.as_bytes());
        out.extend_from_slice(self.journal_root.as_bytes());
        out.push(self.index_kind.tag());
        out
    }

    /// Number of sealed blocks this digest stands for (0 for the digest of
    /// an empty ledger). The cross-shard digest sums these into its commit
    /// epoch.
    pub fn block_count(&self) -> u64 {
        if self.block_hash == Hash::ZERO {
            0
        } else {
            self.block_height + 1
        }
    }

    /// Inverse of [`Digest::encode`]. Returns `None` for a malformed or
    /// truncated encoding.
    pub fn decode(bytes: &[u8]) -> Option<Digest> {
        if bytes.len() != 8 + 32 * 3 + 1 {
            return None;
        }
        let hash_at = |offset: usize| -> Hash {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(&bytes[offset..offset + 32]);
            Hash::from_bytes(raw)
        };
        Some(Digest {
            block_height: u64::from_be_bytes(bytes[..8].try_into().ok()?),
            block_hash: hash_at(8),
            index_root: hash_at(40),
            journal_root: hash_at(72),
            index_kind: SiriKind::from_tag(bytes[104])?,
        })
    }
}

/// Proof returned with a verified point read, or with a batched one: one
/// [`IndexProof`] covering every queried key against a single digest.
/// Upper-tree nodes shared by a batch's Merkle paths appear once, so a
/// k-key batch is strictly cheaper on the wire than k point proofs.
#[derive(Debug, Clone)]
pub struct LedgerProof {
    /// Merkle path (or paths, for a batch) through the ledger index.
    pub index_proof: IndexProof,
    /// The digest the proof was generated against.
    pub digest: Digest,
}

/// Result of a verified range scan: the entries in key order plus the single
/// combined proof covering all of them.
pub type VerifiedRange = (Vec<(Vec<u8>, Vec<u8>)>, LedgerRangeProof);

/// One commit group sealed into a shared block by
/// [`Ledger::try_append_groups`]: a batch of key/value writes plus the
/// provenance statement recorded with each of them.
pub type CommitGroup = (Vec<(Vec<u8>, Vec<u8>)>, String);

/// What sealing one block wrote, as reported by
/// [`Ledger::try_append_groups`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCost {
    /// Key/value writes applied (over all of the block's groups).
    pub writes: usize,
    /// Index nodes the block's one apply put.
    pub index_nodes_written: u64,
    /// Their size, in the store's `physical_bytes` units.
    pub index_bytes_written: u64,
}

/// Proof returned with a verified range read: a single combined index proof
/// covering every returned entry (the "unified index" benefit of Section
/// 6.2.2). The proof carries the queried bounds, and verification is
/// **complete**: the claimed entries must be exactly the ledger's contents
/// in `start <= key < end` — a server can neither forge an entry nor
/// silently omit one.
#[derive(Debug, Clone)]
pub struct LedgerRangeProof {
    /// Inclusive lower bound of the proven range.
    pub start: Vec<u8>,
    /// Exclusive upper bound of the proven range.
    pub end: Vec<u8>,
    /// Combined Merkle paths for all returned entries.
    pub index_proof: IndexProof,
    /// The digest the proof was generated against.
    pub digest: Digest,
}

impl LedgerProof {
    /// Bytes a canonical wire encoding of this proof would occupy
    /// (index proof ‖ digest). The telemetry layer reports this per proof
    /// kind.
    pub fn encoded_len(&self) -> usize {
        self.index_proof.encoded_len() + Digest::ENCODED_LEN
    }

    /// Append the canonical wire encoding (exactly
    /// [`LedgerProof::encoded_len`] bytes): index proof ‖ digest.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.index_proof.encode_into(out);
        out.extend_from_slice(&self.digest.encode());
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by [`LedgerProof::encode_into`].
    /// Returns `None` on truncated or malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Option<LedgerProof> {
        let index_proof = IndexProof::decode(r)?;
        let digest = Digest::decode(r.take(Digest::ENCODED_LEN)?)?;
        Some(LedgerProof {
            index_proof,
            digest,
        })
    }

    /// Client-side verification: recompute the index root from the proof and
    /// compare against the digest. Whether the digest itself is trusted is
    /// the pin's business ([`Digest`] equality, or its cross-shard leaf).
    pub fn verify(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        verify_proof(
            self.digest.index_kind,
            self.digest.index_root,
            key,
            value,
            &self.index_proof,
        )
    }

    /// Client-side verification of a batched read: every (key, claimed
    /// value) pair must check out against the digest's index root, and
    /// every node the proof carries must be consumed by some key's walk.
    pub fn verify_batch(&self, items: &[(Vec<u8>, Option<Vec<u8>>)]) -> bool {
        verify_multi_proof(
            self.digest.index_kind,
            self.digest.index_root,
            items,
            &self.index_proof,
        )
    }
}

impl LedgerRangeProof {
    /// Bytes a canonical wire encoding of this proof would occupy
    /// (bounds ‖ index proof ‖ digest).
    pub fn encoded_len(&self) -> usize {
        4 + self.start.len()
            + 4
            + self.end.len()
            + self.index_proof.encoded_len()
            + Digest::ENCODED_LEN
    }

    /// Append the canonical wire encoding (exactly
    /// [`LedgerRangeProof::encoded_len`] bytes): length-prefixed bounds ‖
    /// combined index proof ‖ digest.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_bytes(out, &self.start);
        codec::put_bytes(out, &self.end);
        self.index_proof.encode_into(out);
        out.extend_from_slice(&self.digest.encode());
    }

    /// The canonical wire encoding as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Decode a proof previously written by
    /// [`LedgerRangeProof::encode_into`]. Returns `None` on truncated or
    /// malformed input.
    pub fn decode(r: &mut codec::Reader<'_>) -> Option<LedgerRangeProof> {
        let start = r.bytes()?.to_vec();
        let end = r.bytes()?.to_vec();
        let index_proof = IndexProof::decode(r)?;
        let digest = Digest::decode(r.take(Digest::ENCODED_LEN)?)?;
        Some(LedgerRangeProof {
            start,
            end,
            index_proof,
            digest,
        })
    }

    /// Client-side verification of a verified range read: the entries must
    /// be exactly the contiguous `start <= key < end` contents under the
    /// proof's digest (completeness included).
    pub fn verify(&self, entries: &[(Vec<u8>, Vec<u8>)]) -> bool {
        verify_range_proof(
            self.digest.index_kind,
            self.digest.index_root,
            &self.start,
            &self.end,
            entries,
            &self.index_proof,
        )
    }
}

struct LedgerInner {
    index: Box<dyn SiriIndex>,
    /// The journal: one RFC 6962 leaf per sealed block, its block hash.
    journal: MerkleTree,
    /// Hash of the latest block and root of `journal`, computed once per
    /// sealed block ([`Hash::ZERO`] for both while the ledger is empty).
    head_hash: Hash,
    journal_root: Hash,
    blocks: Vec<Block>,
    timestamp: u64,
    /// Chunk address of the latest persisted block ([`Hash::ZERO`] before
    /// any block is sealed). Each block chunk records its predecessor's
    /// chunk address, forming the walkable chain [`Ledger::open`] recovers.
    head_chunk: Hash,
}

/// Refcounts of index roots pinned by live [`LedgerSnapshot`]s. The GC mark
/// phase ([`Ledger::collect_live`]) treats every pinned root as reachable,
/// so a reader holding a snapshot keeps its index version's nodes alive
/// across compactions; dropping the snapshot unpins the root.
type PinRegistry = Arc<Mutex<HashMap<Hash, usize>>>;

/// Drop guard held by a [`LedgerSnapshot`]: unregisters the snapshot's
/// index root from the pin registry when the snapshot is dropped.
struct SnapshotPin {
    registry: PinRegistry,
    root: Hash,
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut pins = self.registry.lock();
        if let Some(count) = pins.get_mut(&self.root) {
            *count -= 1;
            if *count == 0 {
                pins.remove(&self.root);
            }
        }
    }
}

/// The unified, tamper-evident Spitz ledger.
pub struct Ledger {
    store: Arc<dyn ChunkStore>,
    kind: SiriKind,
    inner: RwLock<LedgerInner>,
    pins: PinRegistry,
}

impl Ledger {
    /// Create a ledger using the POS-Tree (the configuration evaluated in the
    /// paper).
    pub fn new(store: Arc<dyn ChunkStore>) -> Self {
        Self::with_kind(store, SiriKind::PosTree)
    }

    /// Create a ledger with a specific SIRI index (used by the
    /// `ablation_siri` benchmark).
    pub fn with_kind(store: Arc<dyn ChunkStore>, kind: SiriKind) -> Self {
        let index = open_index(&store, kind, Hash::ZERO).expect("the empty index always opens");
        Ledger {
            store,
            kind,
            inner: RwLock::new(LedgerInner {
                index,
                journal: MerkleTree::new(),
                head_hash: Hash::ZERO,
                journal_root: Hash::ZERO,
                blocks: Vec::new(),
                timestamp: 0,
                head_chunk: Hash::ZERO,
            }),
            pins: PinRegistry::default(),
        }
    }

    /// Reopen a ledger persisted in `store`, using the POS-Tree.
    ///
    /// Equivalent to [`Ledger::new`] when the store holds no ledger yet;
    /// otherwise the block chain is walked back from the stored head
    /// pointer, every block is re-verified (records root and `prev_hash`
    /// linkage), the journal is rebuilt, and the live index is
    /// reopened at the head block's index root — reproducing the exact
    /// digest the ledger had when the store was last written.
    pub fn open(store: Arc<dyn ChunkStore>) -> Result<Self, StorageError> {
        Self::open_with_kind(store, SiriKind::PosTree)
    }

    /// Reopen a ledger persisted in `store` with a specific SIRI index.
    /// `kind` must match the kind the ledger was created with — index nodes
    /// of one SIRI structure are not readable as another.
    pub fn open_with_kind(
        store: Arc<dyn ChunkStore>,
        kind: SiriKind,
    ) -> Result<Self, StorageError> {
        let Some(head_chunk) = store.root(LEDGER_HEAD_ROOT) else {
            return Ok(Self::with_kind(store, kind));
        };

        // Walk the chain of block chunks head → genesis.
        let mut chain = Vec::new();
        let mut address = head_chunk;
        loop {
            let chunk = store.get_kind(&address, ChunkKind::Block)?;
            let (prev_address, block) =
                decode_block_chunk(chunk.data()).ok_or(StorageError::CorruptChunk(address))?;
            let done = prev_address.is_zero();
            chain.push((address, block));
            if done {
                break;
            }
            address = prev_address;
        }
        chain.reverse();

        // Re-verify what the chain claims before trusting it.
        let mut journal = MerkleTree::new();
        let mut blocks = Vec::with_capacity(chain.len());
        let mut prev_hash = Hash::ZERO;
        for (height, (address, block)) in chain.into_iter().enumerate() {
            if block.header.height != height as u64
                || block.header.prev_hash != prev_hash
                || !block.verify_records()
            {
                return Err(StorageError::CorruptChunk(address));
            }
            prev_hash = block.hash();
            journal.push(prev_hash.as_bytes());
            blocks.push(block);
        }

        let head = blocks.last().expect("chain walk found at least the head");
        let index_root = head.header.index_root;
        let timestamp = head.header.timestamp;
        let index =
            open_index(&store, kind, index_root).ok_or(StorageError::ChunkNotFound(index_root))?;

        Ok(Ledger {
            store,
            kind,
            inner: RwLock::new(LedgerInner {
                index,
                journal_root: journal.root(),
                journal,
                head_hash: prev_hash,
                blocks,
                timestamp,
                head_chunk,
            }),
            pins: PinRegistry::default(),
        })
    }

    /// The chunk store backing this ledger.
    pub fn store(&self) -> &Arc<dyn ChunkStore> {
        &self.store
    }

    /// Which SIRI structure the ledger uses.
    pub fn kind(&self) -> SiriKind {
        self.kind
    }

    /// Number of sealed blocks.
    pub fn height(&self) -> u64 {
        self.inner.read().journal.len() as u64
    }

    /// Number of key/value entries in the current index instance.
    pub fn len(&self) -> usize {
        self.inner.read().index.len()
    }

    /// True when no entries have been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Commit a batch of writes as one block. Returns the new digest.
    ///
    /// `statement` records the query text for provenance (stored in every
    /// transaction record of the block). Panics if persisting the block
    /// fails; fallible callers use [`Ledger::try_append_block`].
    pub fn append_block(&self, writes: Vec<(Vec<u8>, Vec<u8>)>, statement: &str) -> Digest {
        self.try_append_block(writes, statement)
            .expect("persisting the ledger block failed; use try_append_block to handle it")
    }

    /// Fallible variant of [`Ledger::append_block`]: a storage failure
    /// (disk full while persisting the block chunk or publishing the head
    /// root) surfaces as an error instead of a panic.
    pub fn try_append_block(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<Digest, StorageError> {
        self.try_append_groups(vec![(writes, statement.to_string())])
            .map(|(digest, _)| digest)
    }

    /// Seal several commit groups — each a batch of writes with its own
    /// provenance statement — into **one** block. This is the group-commit
    /// entry point used by [`crate::pipeline::CommitPipeline`]: concurrent
    /// committers coalesce into a single block (one index-root update, one
    /// block chunk, one head-root publication) instead of one block each.
    ///
    /// All the groups' writes reach the index as one batch
    /// ([`SiriIndex::try_apply`]): the block's index instance is the only
    /// one written, and the returned [`BlockCost`] says what it cost.
    ///
    /// On an error the block is not sealed, no journal/chain state
    /// advances, and the failed groups' writes are not readable: a failed
    /// index apply publishes nothing, and a failed block persist rolls the
    /// live index back to the pre-append root. Retrying the same writes is
    /// safe: identical chunks deduplicate, so a successful retry
    /// reproduces the block a non-failing commit would have sealed.
    pub fn try_append_groups(
        &self,
        groups: Vec<CommitGroup>,
    ) -> Result<(Digest, BlockCost), StorageError> {
        let mut inner = self.inner.write();
        let prev_index_root = inner.index.root();
        let timestamp = inner.timestamp + 1;

        let total = groups.iter().map(|(w, _)| w.len()).sum();
        let mut records = Vec::with_capacity(total);
        let mut writes = Vec::with_capacity(total);
        for (group, statement) in groups {
            for (key, value) in group {
                records.push(TxnRecord {
                    op: WriteOp::Update,
                    key: key.clone(),
                    value_hash: spitz_crypto::sha256(&value),
                    statement: statement.clone(),
                });
                writes.push((key, value));
            }
        }
        // Index-node puts route through `try_put`: disk full while
        // persisting an index node is an error, not a panic inside the
        // committer, and the apply publishes nothing unless it completes.
        let (nodes_before, bytes_before) = inner.index.node_writes();
        let was_new = inner.index.try_apply(writes)?;
        let (nodes_after, bytes_after) = inner.index.node_writes();
        for (record, new) in records.iter_mut().zip(was_new) {
            if new {
                record.op = WriteOp::Insert;
            }
        }
        let cost = BlockCost {
            writes: total,
            index_nodes_written: nodes_after - nodes_before,
            index_bytes_written: bytes_after - bytes_before,
        };

        let height = inner.journal.len() as u64;
        let index_root = inner.index.root();
        let block = Block::new(height, inner.head_hash, index_root, timestamp, records);

        // Persist the block as a chunk and advance the durable head pointer
        // so the chain can be recovered by `Ledger::open`, *before* any
        // chain state advances — a failed append leaves the journal and
        // head untouched. On a purely in-memory store this is the same
        // dedup-priced put as any other chunk; the root pointer lives in
        // memory there too.
        let block_chunk = encode_block_chunk(inner.head_chunk, &block);
        let persisted = self
            .store
            .try_put(Chunk::new(ChunkKind::Block, block_chunk))
            .and_then(|address| {
                self.store
                    .try_set_root(LEDGER_HEAD_ROOT, address)
                    .map(|()| address)
            });
        let chunk_address = match persisted {
            Ok(address) => address,
            Err(error) => {
                // Roll the live index back to the pre-append version so
                // the failed writes are not readable (the index nodes for
                // `prev_index_root` are still in the store; this is the
                // same node-sharing checkout historical reads use).
                if let Some(previous) = inner.index.checkout(prev_index_root) {
                    inner.index = previous;
                }
                return Err(error);
            }
        };
        inner.head_chunk = chunk_address;
        inner.timestamp = timestamp;

        let hash = block.hash();
        inner.journal.push(hash.as_bytes());
        inner.journal_root = inner.journal.root();
        inner.head_hash = hash;
        inner.blocks.push(block);
        drop(inner);
        Ok((self.digest(), cost))
    }

    /// The current database digest.
    pub fn digest(&self) -> Digest {
        digest_of(&self.inner.read(), self.kind)
    }

    /// Pin the current state as a [`LedgerSnapshot`]: the digest and a
    /// checked-out index instance at that digest's root are captured under
    /// one lock, so repeated reads against the snapshot stay mutually
    /// consistent (and verifiable against the pinned digest) while writers
    /// move the live ledger forward.
    pub fn snapshot(&self) -> Result<LedgerSnapshot, StorageError> {
        let inner = self.inner.read();
        let digest = digest_of(&inner, self.kind);
        let index = inner
            .index
            .checkout(digest.index_root)
            .ok_or(StorageError::ChunkNotFound(digest.index_root))?;
        // Pin the root *before* releasing the ledger lock so a compaction
        // mark pass that starts after this snapshot exists always sees it.
        *self.pins.lock().entry(digest.index_root).or_insert(0) += 1;
        let pin = SnapshotPin {
            registry: Arc::clone(&self.pins),
            root: digest.index_root,
        };
        Ok(LedgerSnapshot {
            digest,
            index,
            _pin: pin,
        })
    }

    /// The GC mark phase for this ledger: insert into `live` the chunk
    /// address of everything a reopened ledger (or a reader holding a
    /// pinned snapshot) can still reach:
    ///
    /// * every block chunk, by walking the chain head → genesis (the chain
    ///   is what [`Ledger::open`] replays, so all of it stays live);
    /// * every index node reachable from the **head** block's index root;
    /// * every index node reachable from a root pinned by a live
    ///   [`LedgerSnapshot`].
    ///
    /// Index instances of *historical* blocks are deliberately **not**
    /// marked — reclaiming them is the point of compaction — so
    /// [`Ledger::checkout`] of an old height may return `None` after the
    /// sweep. Pin a snapshot before compacting to keep a version readable.
    ///
    /// A missing or undecodable chunk is an error: compacting with an
    /// incomplete live set would delete reachable data, so callers must
    /// abort the pass on `Err`.
    pub fn collect_live(&self, live: &mut HashSet<Hash>) -> Result<(), StorageError> {
        let (head_chunk, index_root) = {
            let inner = self.inner.read();
            (inner.head_chunk, inner.index.root())
        };

        let mut address = head_chunk;
        while !address.is_zero() && live.insert(address) {
            let chunk = self.store.get_kind(&address, ChunkKind::Block)?;
            let (prev, _) =
                decode_block_chunk(chunk.data()).ok_or(StorageError::CorruptChunk(address))?;
            address = prev;
        }

        collect_reachable(&self.store, self.kind, index_root, live)?;
        let pinned: Vec<Hash> = self.pins.lock().keys().copied().collect();
        for root in pinned {
            collect_reachable(&self.store, self.kind, root, live)?;
        }
        Ok(())
    }

    /// Unverified point read (the fast path when verification is disabled).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.inner.read().index.get(key)
    }

    /// Verified point read: value plus the proof obtained from the same
    /// index traversal.
    pub fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, LedgerProof) {
        live_view(&self.inner.read(), self.kind).get_with_proof(key)
    }

    /// Batched verified point read: all keys are resolved against one
    /// consistent index instance and covered by a single [`IndexProof`],
    /// sharing upper-tree nodes between the keys' Merkle paths. The `i`-th
    /// returned value answers `keys[i]`.
    pub fn get_multi_with_proof(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, LedgerProof) {
        live_view(&self.inner.read(), self.kind).get_multi_with_proof(keys)
    }

    /// Unverified range read over `start <= key < end`.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.inner.read().index.range(start, end)
    }

    /// Verified range read: the proofs of the resultant records are returned
    /// simultaneously with the scan, using the unified index.
    pub fn range_with_proof(&self, start: &[u8], end: &[u8]) -> VerifiedRange {
        live_view(&self.inner.read(), self.kind).range_with_proof(start, end)
    }

    /// The block at `height`, if sealed.
    pub fn block(&self, height: u64) -> Option<Block> {
        self.inner.read().blocks.get(height as usize).cloned()
    }

    /// Open a historical index instance (a previous block's version of the
    /// ledger) for point-in-time queries.
    ///
    /// Returns `None` when the version's index nodes are no longer in the
    /// store: segment compaction only keeps the head version and roots
    /// pinned by live [`LedgerSnapshot`]s (see [`Ledger::collect_live`]),
    /// so checkouts of unpinned historical heights are best-effort on a
    /// compacted store.
    pub fn checkout(&self, height: u64) -> Option<Box<dyn SiriIndex>> {
        let inner = self.inner.read();
        let root = inner.blocks.get(height as usize)?.header.index_root;
        inner.index.checkout(root)
    }

    /// Audit the whole chain: recompute every block hash, check the
    /// `prev_hash` linkage, the record roots and each block's journal leaf.
    /// Returns the height of the first inconsistent block, or `None` when
    /// the chain is sound.
    pub fn audit_chain(&self) -> Option<u64> {
        let inner = self.inner.read();
        let mut prev = Hash::ZERO;
        for (i, block) in inner.blocks.iter().enumerate() {
            let hash = block.hash();
            if block.header.prev_hash != prev
                || !block.verify_records()
                || inner.journal.leaf(i) != Some(leaf_hash(hash.as_bytes()))
            {
                return Some(i as u64);
            }
            prev = hash;
        }
        None
    }
}

/// An index of `kind` over `store` at `root` ([`Hash::ZERO`]: empty);
/// `None` when the store does not hold the root node.
fn open_index(
    store: &Arc<dyn ChunkStore>,
    kind: SiriKind,
    root: Hash,
) -> Option<Box<dyn SiriIndex>> {
    let store = Arc::clone(store);
    Some(match kind {
        SiriKind::PosTree => Box::new(PosTree::open(store, root)?),
        SiriKind::MerklePatriciaTrie => Box::new(MerklePatriciaTrie::open(store, root)?),
        SiriKind::MerkleBucketTree => Box::new(MerkleBucketTree::open(store, root)?),
    })
}

/// The digest implied by a ledger's locked inner state: no hashing, every
/// field was computed when its block was sealed.
fn digest_of(inner: &LedgerInner, kind: SiriKind) -> Digest {
    Digest {
        block_height: (inner.journal.len() as u64).saturating_sub(1),
        block_hash: inner.head_hash,
        index_root: inner.index.root(),
        journal_root: inner.journal_root,
        index_kind: kind,
    }
}

/// One ledger state to read from: a digest and the index instance at that
/// digest's root. Every verified read — against the live ledger (under its
/// read lock) or a pinned [`LedgerSnapshot`] — is built here, so a value and
/// its proof always come out of one traversal of one index against one
/// digest.
struct LedgerView<'a> {
    digest: Digest,
    index: &'a dyn SiriIndex,
}

/// The live ledger's current state. The digest and the index come from the
/// same lock scope, or a concurrent writer could move the root between the
/// two.
fn live_view(inner: &LedgerInner, kind: SiriKind) -> LedgerView<'_> {
    LedgerView {
        digest: digest_of(inner, kind),
        index: inner.index.as_ref(),
    }
}

impl LedgerView<'_> {
    fn get_with_proof(self, key: &[u8]) -> (Option<Vec<u8>>, LedgerProof) {
        let (value, index_proof) = self.index.get_with_proof(key);
        (
            value,
            LedgerProof {
                index_proof,
                digest: self.digest,
            },
        )
    }

    fn get_multi_with_proof(self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, LedgerProof) {
        let (values, index_proof) = self.index.multi_get_with_proof(keys);
        (
            values,
            LedgerProof {
                index_proof,
                digest: self.digest,
            },
        )
    }

    fn range_with_proof(self, start: &[u8], end: &[u8]) -> VerifiedRange {
        let (entries, index_proof) = self.index.range_with_proof(start, end);
        (
            entries,
            LedgerRangeProof {
                start: start.to_vec(),
                end: end.to_vec(),
                index_proof,
                digest: self.digest,
            },
        )
    }
}

/// A pinned, immutable view of a ledger at one digest: the unit of the
/// snapshot read path. All reads are served from the checked-out index
/// instance (node sharing makes the checkout cheap for the POS-Tree), and
/// every proof is anchored at the pinned digest — "pin once, verify many".
pub struct LedgerSnapshot {
    digest: Digest,
    index: Box<dyn SiriIndex>,
    /// Keeps the snapshot's index root registered as a GC root for as long
    /// as the snapshot lives (see [`Ledger::collect_live`]).
    _pin: SnapshotPin,
}

impl LedgerSnapshot {
    /// The digest this snapshot is pinned at.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Number of key/value entries visible in the snapshot.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Unverified point read against the pinned state.
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.index.get(key)
    }

    fn view(&self) -> LedgerView<'_> {
        LedgerView {
            digest: self.digest,
            index: self.index.as_ref(),
        }
    }

    /// Verified point read: the proof is anchored at the pinned digest, so
    /// a client holding that digest verifies without further round trips.
    pub fn get_with_proof(&self, key: &[u8]) -> (Option<Vec<u8>>, LedgerProof) {
        self.view().get_with_proof(key)
    }

    /// Batched verified point read against the pinned state: one
    /// [`IndexProof`] anchored at the pinned digest covers all keys.
    pub fn get_multi_with_proof(&self, keys: &[Vec<u8>]) -> (Vec<Option<Vec<u8>>>, LedgerProof) {
        self.view().get_multi_with_proof(keys)
    }

    /// Unverified range read against the pinned state.
    pub fn range(&self, start: &[u8], end: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.index.range(start, end)
    }

    /// Verified range read against the pinned state, with a complete range
    /// proof anchored at the pinned digest.
    pub fn range_with_proof(&self, start: &[u8], end: &[u8]) -> VerifiedRange {
        self.view().range_with_proof(start, end)
    }
}

impl std::fmt::Debug for LedgerSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LedgerSnapshot")
            .field("digest", &self.digest)
            .field("len", &self.index.len())
            .finish()
    }
}

/// Payload of a [`ChunkKind::Block`] chunk: the chunk address of the
/// previous block ([`Hash::ZERO`] for genesis) followed by the encoded
/// block. The pointer is a *chunk* address (not the block hash) so the
/// recovery walk can fetch each predecessor directly from the store.
fn encode_block_chunk(prev_chunk: Hash, block: &Block) -> Vec<u8> {
    let encoded = block.encode();
    let mut out = Vec::with_capacity(32 + encoded.len());
    out.extend_from_slice(prev_chunk.as_bytes());
    out.extend_from_slice(&encoded);
    out
}

/// Inverse of [`encode_block_chunk`].
fn decode_block_chunk(payload: &[u8]) -> Option<(Hash, Block)> {
    let prev: [u8; 32] = payload.get(..32)?.try_into().ok()?;
    let block = Block::decode(payload.get(32..)?)?;
    Some((Hash::from_bytes(prev), block))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    fn ledger() -> Ledger {
        Ledger::new(InMemoryChunkStore::shared())
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:06}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn empty_ledger_digest() {
        let ledger = ledger();
        assert!(ledger.is_empty());
        assert_eq!(ledger.height(), 0);
        let digest = ledger.digest();
        assert_eq!(digest.index_root, Hash::ZERO);
        assert_eq!(digest.journal_root, Hash::ZERO);
        assert_eq!(ledger.get(b"x"), None);
    }

    #[test]
    fn writes_are_readable_and_blocks_accumulate() {
        let ledger = ledger();
        for batch in 0..10u32 {
            let writes: Vec<_> = (0..20).map(|i| kv(batch * 20 + i)).collect();
            ledger.append_block(writes, "INSERT");
        }
        assert_eq!(ledger.height(), 10);
        assert_eq!(ledger.len(), 200);
        for i in 0..200u32 {
            let (k, v) = kv(i);
            assert_eq!(ledger.get(&k), Some(v));
        }
        assert_eq!(ledger.audit_chain(), None);
    }

    #[test]
    fn collect_live_marks_head_version_and_pinned_snapshots() {
        let ledger = ledger();
        ledger.append_block((0..50).map(kv).collect(), "load");
        let snapshot = ledger.snapshot().unwrap();
        let old_root = snapshot.digest().index_root;
        ledger.append_block((50..100).map(kv).collect(), "more");
        assert_ne!(old_root, ledger.digest().index_root);

        // While the snapshot is alive, its root is a GC root.
        let mut live = HashSet::new();
        ledger.collect_live(&mut live).unwrap();
        assert!(live.contains(&old_root));
        assert!(live.contains(&ledger.digest().index_root));

        // Dropping the snapshot unpins it: a fresh mark shrinks, and reads
        // through live snapshots taken before the drop were never affected.
        drop(snapshot);
        let mut after = HashSet::new();
        ledger.collect_live(&mut after).unwrap();
        assert!(after.contains(&ledger.digest().index_root));
        assert!(
            after.len() < live.len(),
            "unpinning should shrink the live set: {} vs {}",
            after.len(),
            live.len()
        );

        // Every marked address is a chunk the store actually holds.
        for address in &after {
            assert!(ledger.store().contains(address));
        }
    }

    #[test]
    fn point_proofs_verify_against_digest() {
        let ledger = ledger();
        ledger.append_block((0..100).map(kv).collect(), "load");
        let (k, v) = kv(42);
        let (value, proof) = ledger.get_with_proof(&k);
        assert_eq!(value, Some(v.clone()));
        assert!(proof.verify(&k, Some(&v)));
        assert!(!proof.verify(&k, Some(b"forged")));
        assert!(!proof.verify(&k, None));

        // Absence proof.
        let (missing, proof) = ledger.get_with_proof(b"no-such-key");
        assert!(missing.is_none());
        assert!(proof.verify(b"no-such-key", None));
        assert!(!proof.verify(b"no-such-key", Some(b"x")));
    }

    #[test]
    fn range_proofs_ride_along_the_scan() {
        let ledger = ledger();
        ledger.append_block((0..500).map(kv).collect(), "load");
        let (start, _) = kv(100);
        let (end, _) = kv(150);
        let (entries, proof) = ledger.range_with_proof(&start, &end);
        assert_eq!(entries.len(), 50);
        assert!(proof.verify(&entries));

        let mut forged = entries.clone();
        forged[0].1 = b"forged".to_vec();
        assert!(!proof.verify(&forged));
    }

    #[test]
    fn digest_changes_with_every_block_and_chain_audits_clean() {
        let ledger = ledger();
        let mut digests = Vec::new();
        for i in 0..20u32 {
            digests.push(ledger.append_block(vec![kv(i)], "put"));
        }
        for pair in digests.windows(2) {
            assert_ne!(pair[0].block_hash, pair[1].block_hash);
            assert_ne!(pair[0].index_root, pair[1].index_root);
            assert_ne!(pair[0].journal_root, pair[1].journal_root);
        }
        assert_eq!(ledger.audit_chain(), None);
        assert_eq!(ledger.block(5).unwrap().header.height, 5);
        assert!(ledger.block(99).is_none());
    }

    #[test]
    fn snapshot_pins_a_digest_while_the_ledger_moves_on() {
        let ledger = ledger();
        ledger.append_block((0..100).map(kv).collect(), "load");
        let snapshot = ledger.snapshot().unwrap();
        let pinned = snapshot.digest();
        assert_eq!(pinned, ledger.digest());

        // Writers move the live ledger; the snapshot stays put.
        ledger.append_block(vec![kv(7)], "overwrite");
        ledger.append_block(vec![kv(999)], "insert");
        assert_ne!(ledger.digest(), pinned);
        assert_eq!(snapshot.digest(), pinned);
        assert_eq!(snapshot.len(), 100);
        assert_eq!(snapshot.get(&kv(999).0), None);

        // Reads against the snapshot verify against the pinned digest.
        let (k, v) = kv(42);
        let (value, proof) = snapshot.get_with_proof(&k);
        assert_eq!(value, Some(v.clone()));
        assert_eq!(proof.digest, pinned);
        assert!(proof.verify(&k, Some(&v)));

        let (start, _) = kv(10);
        let (end, _) = kv(20);
        let (entries, proof) = snapshot.range_with_proof(&start, &end);
        assert_eq!(entries.len(), 10);
        assert_eq!(proof.digest, pinned);
        assert!(proof.verify(&entries));

        // An empty ledger snapshots too.
        let fresh = Ledger::new(InMemoryChunkStore::shared());
        let empty = fresh.snapshot().unwrap();
        assert!(empty.is_empty());
        let (missing, proof) = empty.get_with_proof(b"x");
        assert!(missing.is_none());
        assert!(proof.verify(b"x", None));
    }

    #[test]
    fn node_sharing_keeps_per_block_growth_bounded() {
        let store = InMemoryChunkStore::shared();
        let ledger = Ledger::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        // Build a sizable base version.
        ledger.append_block((0..2000).map(kv).collect(), "load");
        let base_bytes = store.stats().physical_bytes;
        // Each subsequent block changes a single record.
        for i in 0..50u32 {
            ledger.append_block(vec![kv(i)], "update");
        }
        let growth = store.stats().physical_bytes - base_bytes;
        assert!(
            growth < base_bytes,
            "50 single-record blocks must share nodes with the base version: grew {growth} over {base_bytes}"
        );
    }

    #[test]
    fn historical_checkout_reads_old_versions() {
        let ledger = ledger();
        ledger.append_block(vec![(b"acct".to_vec(), b"100".to_vec())], "open");
        ledger.append_block(vec![(b"acct".to_vec(), b"250".to_vec())], "deposit");
        assert_eq!(ledger.get(b"acct"), Some(b"250".to_vec()));

        let v0 = ledger.checkout(0).unwrap();
        assert_eq!(v0.get(b"acct"), Some(b"100".to_vec()));
        let v1 = ledger.checkout(1).unwrap();
        assert_eq!(v1.get(b"acct"), Some(b"250".to_vec()));
        assert!(ledger.checkout(2).is_none());
    }

    #[test]
    fn reopened_ledger_reproduces_digest_blocks_and_proofs() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let first = Ledger::new(Arc::clone(&store));
        for batch in 0..6u32 {
            first.append_block((batch * 30..(batch + 1) * 30).map(kv).collect(), "load");
        }
        let digest = first.digest();
        let blocks: Vec<_> = (0..6).map(|h| first.block(h).unwrap()).collect();
        drop(first);

        let reopened = Ledger::open(Arc::clone(&store)).unwrap();
        assert_eq!(reopened.digest(), digest);
        assert_eq!(reopened.height(), 6);
        assert_eq!(reopened.len(), 180);
        for (height, block) in blocks.iter().enumerate() {
            assert_eq!(&reopened.block(height as u64).unwrap(), block);
        }
        assert_eq!(reopened.audit_chain(), None);

        let (key, value) = kv(42);
        let (read, proof) = reopened.get_with_proof(&key);
        assert_eq!(read, Some(value.clone()));
        assert!(proof.verify(&key, Some(&value)));

        // The reopened ledger keeps appending on the same chain.
        let digest2 = reopened.append_block(vec![kv(999)], "post-reopen");
        assert_eq!(digest2.block_height, 6);
        assert_eq!(reopened.audit_chain(), None);
        let reread = Ledger::open(store).unwrap();
        assert_eq!(reread.digest(), digest2);
    }

    /// The journal is rebuilt from the chain, not stored: a reopened
    /// 1 000-block ledger has the live ledger's journal root — the RFC 6962
    /// root over its block hashes — and both chains audit clean.
    #[test]
    fn reopened_journal_of_a_thousand_blocks_has_the_live_root() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let live = Ledger::new(Arc::clone(&store));
        for i in 0..1000u32 {
            live.append_block(vec![kv(i % 97)], "put");
        }
        let block_hashes: Vec<Hash> = (0..1000).map(|h| live.block(h).unwrap().hash()).collect();
        let rebuilt = MerkleTree::from_leaves(block_hashes.iter().map(|h| h.as_bytes().as_slice()));
        assert_eq!(live.digest().journal_root, rebuilt.root());

        let reopened = Ledger::open(store).unwrap();
        assert_eq!(reopened.digest().journal_root, live.digest().journal_root);
        assert_eq!(reopened.digest(), live.digest());
        assert_eq!(live.audit_chain(), None);
        assert_eq!(reopened.audit_chain(), None);
    }

    /// The per-key fold `try_append_groups` ran before it applied a block
    /// as one batch — a `get` and an insert per key — kept here as the
    /// reference: the batched ledger must reproduce its digest chain block
    /// by block, so every proof byte is unchanged.
    #[test]
    fn batched_append_reproduces_the_per_key_digest_chain() {
        let statement = |s: &str| s.to_string();
        // Loads, single puts, a coalesced group of groups, cross-group and
        // in-group duplicates, updates of loaded keys, an empty group.
        let blocks: Vec<Vec<CommitGroup>> = vec![
            vec![((0..300).map(kv).collect(), statement("load"))],
            vec![(vec![kv(7)], statement("PUT"))],
            vec![(vec![(kv(7).0, b"again".to_vec())], statement("PUT"))],
            vec![
                ((290..330).map(kv).collect(), statement("batch a")),
                (
                    vec![kv(1000), (kv(1000).0, b"twice".to_vec()), kv(295)],
                    statement("batch b"),
                ),
                (Vec::new(), statement("empty")),
                (vec![(kv(1000).0, b"thrice".to_vec())], statement("batch c")),
            ],
            vec![(
                (0..64).rev().map(|i| kv(5 * i)).collect(),
                statement("mixed"),
            )],
        ];
        for kind in [
            SiriKind::PosTree,
            SiriKind::MerklePatriciaTrie,
            SiriKind::MerkleBucketTree,
        ] {
            let ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
            let reference_store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
            let mut index = open_index(&reference_store, kind, Hash::ZERO).unwrap();
            let mut journal = MerkleTree::new();
            let mut prev_hash = Hash::ZERO;
            for (height, groups) in blocks.iter().enumerate() {
                let mut records = Vec::new();
                for (writes, statement) in groups {
                    for (key, value) in writes {
                        let op = if index.get(key).is_some() {
                            WriteOp::Update
                        } else {
                            WriteOp::Insert
                        };
                        records.push(TxnRecord {
                            op,
                            key: key.clone(),
                            value_hash: spitz_crypto::sha256(value),
                            statement: statement.clone(),
                        });
                        index.try_insert(key.clone(), value.clone()).unwrap();
                    }
                }
                let writes = records.len();
                let height = height as u64;
                let block = Block::new(height, prev_hash, index.root(), height + 1, records);
                prev_hash = block.hash();
                journal.push(prev_hash.as_bytes());
                let expected = Digest {
                    block_height: height,
                    block_hash: prev_hash,
                    index_root: index.root(),
                    journal_root: journal.root(),
                    index_kind: kind,
                };
                let (digest, cost) = ledger.try_append_groups(groups.clone()).unwrap();
                assert_eq!(digest, expected, "{} block {height}", kind.name());
                assert_eq!(cost.writes, writes);
                assert_eq!(ledger.len(), index.len());
            }
            assert_eq!(ledger.audit_chain(), None);
        }
    }

    /// What `try_append_groups` reports is what the store saw: the block's
    /// index nodes, each once, plus the block chunk.
    #[test]
    fn block_cost_agrees_with_the_store() {
        for kind in [SiriKind::PosTree, SiriKind::MerkleBucketTree] {
            let store = InMemoryChunkStore::shared();
            let ledger = Ledger::with_kind(Arc::clone(&store) as Arc<dyn ChunkStore>, kind);
            ledger.append_block((0..5000).map(|i| kv(2 * i)).collect(), "load");
            let adjacent: Vec<_> = (0..64).map(|j| kv(4001 + 2 * j)).collect();
            let mixed: Vec<_> = [10, 2500, 6200, 9998]
                .into_iter()
                .map(|i| (kv(i).0, b"updated".to_vec()))
                .chain((10_000..10_004).map(kv))
                .collect();
            for batch in [adjacent, mixed] {
                let before = store.stats();
                let blocks_before = store.count_kind(ChunkKind::Block);
                let (_, cost) = ledger
                    .try_append_groups(vec![(batch, "PUT BATCH".to_string())])
                    .unwrap();
                let after = store.stats();
                assert_eq!(store.count_kind(ChunkKind::Block), blocks_before + 1);
                assert_eq!(
                    cost.index_nodes_written,
                    after.chunk_count - before.chunk_count - 1,
                    "{}",
                    kind.name()
                );
                let head = store.root(LEDGER_HEAD_ROOT).expect("head published");
                let block_bytes = store.get(&head).unwrap().storage_size() as u64;
                assert_eq!(
                    cost.index_bytes_written,
                    after.physical_bytes - before.physical_bytes - block_bytes,
                    "{}",
                    kind.name()
                );
                assert_eq!(after.dedup_hits, before.dedup_hits, "{}", kind.name());
            }
        }
    }

    #[test]
    fn open_on_empty_store_is_a_fresh_ledger() {
        let ledger = Ledger::open(InMemoryChunkStore::shared()).unwrap();
        assert!(ledger.is_empty());
        assert_eq!(ledger.height(), 0);
        ledger.append_block(vec![kv(1)], "first");
        assert_eq!(ledger.height(), 1);
    }

    #[test]
    fn open_rejects_a_tampered_block_chain() {
        let store = InMemoryChunkStore::shared();
        let ledger = Ledger::new(Arc::clone(&store) as Arc<dyn ChunkStore>);
        ledger.append_block((0..10).map(kv).collect(), "load");
        ledger.append_block((10..20).map(kv).collect(), "load");
        drop(ledger);

        // Forge the head pointer to an unrelated chunk: the walk must fail
        // rather than silently produce a different history.
        let bogus = ChunkStore::put(
            &store,
            spitz_storage::Chunk::new(ChunkKind::Block, b"not a block".to_vec()),
        );
        store.set_root(LEDGER_HEAD_ROOT, bogus);
        assert!(matches!(
            Ledger::open(Arc::clone(&store) as Arc<dyn ChunkStore>),
            Err(StorageError::CorruptChunk(_))
        ));
    }

    #[test]
    fn reopen_preserves_every_siri_kind() {
        for kind in [
            SiriKind::PosTree,
            SiriKind::MerklePatriciaTrie,
            SiriKind::MerkleBucketTree,
        ] {
            let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
            let ledger = Ledger::with_kind(Arc::clone(&store), kind);
            ledger.append_block((0..40).map(kv).collect(), "load");
            let digest = ledger.digest();
            drop(ledger);

            let reopened = Ledger::open_with_kind(store, kind).unwrap();
            assert_eq!(reopened.digest(), digest, "{}", kind.name());
            let (key, value) = kv(7);
            let (read, proof) = reopened.get_with_proof(&key);
            assert_eq!(read, Some(value.clone()), "{}", kind.name());
            assert!(proof.verify(&key, Some(&value)), "{}", kind.name());
        }
    }

    #[test]
    fn multi_proofs_cover_batches_for_every_siri_kind() {
        for kind in [
            SiriKind::PosTree,
            SiriKind::MerklePatriciaTrie,
            SiriKind::MerkleBucketTree,
        ] {
            let ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
            ledger.append_block((0..100).map(kv).collect(), "load");

            // A batch mixing present and absent keys, with duplicates.
            let mut keys: Vec<Vec<u8>> = (0..8).map(|i| kv(i * 11).0).collect();
            keys.push(b"no-such-key".to_vec());
            keys.push(kv(0).0);
            let (values, proof) = ledger.get_multi_with_proof(&keys);
            assert_eq!(values.len(), keys.len(), "{}", kind.name());
            assert_eq!(values[8], None, "{}", kind.name());
            assert_eq!(values[9], Some(kv(0).1), "{}", kind.name());

            let items: Vec<_> = keys.iter().cloned().zip(values.clone()).collect();
            assert!(proof.verify_batch(&items), "{}", kind.name());

            // Forged value, forged absence, and wrong key all fail.
            let mut forged = items.clone();
            forged[0].1 = Some(b"forged".to_vec());
            assert!(!proof.verify_batch(&forged), "{}", kind.name());
            let mut absent = items.clone();
            absent[1].1 = None;
            assert!(!proof.verify_batch(&absent), "{}", kind.name());
            let mut conjured = items.clone();
            conjured[8].1 = Some(b"conjured".to_vec());
            assert!(!proof.verify_batch(&conjured), "{}", kind.name());

            // The batch round-trips the wire encoding byte-identically.
            let encoded = proof.encode();
            assert_eq!(encoded.len(), proof.encoded_len(), "{}", kind.name());
            let mut r = codec::Reader::new(&encoded);
            let decoded = LedgerProof::decode(&mut r).unwrap();
            assert!(r.is_exhausted(), "{}", kind.name());
            assert_eq!(decoded.encode(), encoded, "{}", kind.name());
            assert!(decoded.verify_batch(&items), "{}", kind.name());

            // A batch against the empty ledger proves all-absent.
            let fresh = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
            let (values, proof) = fresh.get_multi_with_proof(&keys);
            assert!(values.iter().all(Option::is_none), "{}", kind.name());
            let items: Vec<_> = keys.iter().cloned().zip(values).collect();
            assert!(proof.verify_batch(&items), "{}", kind.name());

            // Snapshots pin batched proofs at the snapshot digest.
            let snapshot = ledger.snapshot().unwrap();
            let pinned = snapshot.digest();
            ledger.append_block(vec![kv(0)], "move on");
            let (values, proof) = snapshot.get_multi_with_proof(&keys);
            assert_eq!(proof.digest, pinned, "{}", kind.name());
            let items: Vec<_> = keys.iter().cloned().zip(values).collect();
            assert!(proof.verify_batch(&items), "{}", kind.name());
        }
    }

    #[test]
    fn all_siri_kinds_work_as_ledger_index() {
        for kind in [
            SiriKind::PosTree,
            SiriKind::MerklePatriciaTrie,
            SiriKind::MerkleBucketTree,
        ] {
            let ledger = Ledger::with_kind(InMemoryChunkStore::shared(), kind);
            ledger.append_block((0..50).map(kv).collect(), "load");
            let (k, v) = kv(7);
            let (value, proof) = ledger.get_with_proof(&k);
            assert_eq!(value, Some(v.clone()), "{}", kind.name());
            assert!(proof.verify(&k, Some(&v)), "{}", kind.name());
            assert!(!proof.verify(&k, Some(b"forged")), "{}", kind.name());
        }
    }
}
