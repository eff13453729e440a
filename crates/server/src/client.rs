//! The client side: a pipelining wire client and a proof-checking light
//! client.
//!
//! [`SpitzClient`] is the transport: it frames requests, matches responses
//! by request id (the server completes pipelined requests out of order),
//! and surfaces typed server errors. It trusts nothing it decodes beyond
//! being well-formed.
//!
//! [`LightClient`] adds the trust layer: it wraps a [`Verifier`] pinned to
//! the served database's cross-shard digest, and refuses any read whose
//! proof does not check out against that pin — byte-for-byte the same
//! acceptance rule an in-process verifier applies, just across a socket.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use spitz_core::proof::{ShardedMultiProof, ShardedProof, ShardedRangeProof, Verifier};
use spitz_core::sharded::ShardedDigest;
use spitz_index::codec::{self, Reader};
use spitz_ledger::Digest;
use spitz_storage::HealthState;

use crate::protocol::{
    self, decode_error, encode_frame, op, ErrorCode, MIN_BODY_LEN, PROTOCOL_VERSION, RESPONSE_BIT,
};

/// Responses (range proofs especially) may legitimately exceed the
/// request-side frame cap; the client still bounds what a malicious or
/// broken server can make it allocate.
const MAX_RESPONSE_LEN: usize = 64 * 1024 * 1024;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's bytes could not be framed or decoded.
    Protocol(String),
    /// The server answered with a typed error frame.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The server's human-readable message.
        message: String,
    },
    /// A proof failed light-client verification — evidence of tampering.
    Verification(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Verification(m) => write!(f, "verification failed: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Client-side result alias.
pub type Result<T> = std::result::Result<T, ClientError>;

/// Aggregated totals from a served scrub pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubTotals {
    /// Sealed segments CRC-verified across all shards.
    pub segments_scanned: u64,
    /// Segments quarantined across all shards.
    pub quarantined_segments: u64,
    /// Chunks salvaged out of corrupt segments.
    pub chunks_salvaged: u64,
    /// Chunks lost beyond salvage.
    pub chunks_lost: u64,
}

/// Aggregated totals from a served compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactTotals {
    /// Victim segments rewritten and deleted.
    pub victim_segments: u64,
    /// Live chunks copied out of victims.
    pub live_chunks_rewritten: u64,
    /// Dead chunks dropped.
    pub chunks_dropped: u64,
    /// Net bytes returned to the filesystem.
    pub bytes_reclaimed: u64,
}

/// Per-deployment health as served over the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Worst state across the shards.
    pub overall: HealthState,
    /// Per-shard `(state, reason)`; the reason is empty for healthy
    /// shards.
    pub shards: Vec<(HealthState, String)>,
}

fn health_from_byte(b: u8) -> Option<HealthState> {
    Some(match b {
        0 => HealthState::Healthy,
        1 => HealthState::Degraded,
        2 => HealthState::ReadOnly,
        _ => return None,
    })
}

fn bad(reason: &str) -> ClientError {
    ClientError::Protocol(reason.to_string())
}

/// A pipelining wire client for one connection to a [`SpitzServer`](crate::SpitzServer).
///
/// Requests may be issued ahead with [`SpitzClient::send_request`] and
/// collected in any order with [`SpitzClient::wait_response`]; responses
/// for other outstanding ids are parked internally, never dropped.
pub struct SpitzClient {
    stream: TcpStream,
    next_id: u64,
    pending: HashMap<u64, (u8, Vec<u8>)>,
    shard_count: usize,
    bytes_received: u64,
}

impl SpitzClient {
    /// Connect and run the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SpitzClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = SpitzClient {
            stream,
            next_id: 0,
            pending: HashMap::new(),
            shard_count: 0,
            bytes_received: 0,
        };
        let hello = client.call(op::HELLO, b"spitz-client")?;
        let mut r = Reader::new(&hello);
        let version = r.u8().ok_or_else(|| bad("hello: missing version"))?;
        if version != PROTOCOL_VERSION {
            return Err(bad(&format!("hello: server speaks version {version}")));
        }
        client.shard_count = r.u32().ok_or_else(|| bad("hello: missing shard count"))? as usize;
        Ok(client)
    }

    /// Shard count reported by the server's handshake.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Total response bytes read off the wire since connect, including
    /// frame length prefixes and headers. Lets benchmarks report true
    /// response-size-on-the-wire per operation.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Issue a request without waiting; returns the id to wait on. This is
    /// the pipelining primitive — any number of requests may be in flight.
    pub fn send_request(&mut self, opcode: u8, payload: &[u8]) -> Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = encode_frame(opcode, id, payload);
        self.stream.write_all(&frame)?;
        Ok(id)
    }

    /// Block until the response for `id` arrives (responses for other ids
    /// are parked). Returns `(response opcode, payload)`; error frames are
    /// surfaced as [`ClientError::Server`].
    pub fn wait_response(&mut self, id: u64) -> Result<(u8, Vec<u8>)> {
        loop {
            if let Some((opcode, payload)) = self.pending.remove(&id) {
                if opcode == op::ERROR {
                    let (code, message) =
                        decode_error(&payload).ok_or_else(|| bad("undecodable error frame"))?;
                    return Err(ClientError::Server { code, message });
                }
                return Ok((opcode, payload));
            }
            let (opcode, got_id, payload) = self.read_frame()?;
            self.pending.insert(got_id, (opcode, payload));
        }
    }

    /// One synchronous round trip; checks the response opcode matches.
    pub fn call(&mut self, opcode: u8, payload: &[u8]) -> Result<Vec<u8>> {
        let id = self.send_request(opcode, payload)?;
        let (resp_opcode, payload) = self.wait_response(id)?;
        if resp_opcode != opcode | RESPONSE_BIT {
            return Err(bad(&format!(
                "response opcode {resp_opcode:#04x} for request {opcode:#04x}"
            )));
        }
        Ok(payload)
    }

    fn read_frame(&mut self) -> Result<(u8, u64, Vec<u8>)> {
        let mut len_prefix = [0u8; 4];
        self.stream.read_exact(&mut len_prefix)?;
        let len = u32::from_be_bytes(len_prefix) as usize;
        if len > MAX_RESPONSE_LEN {
            return Err(bad(&format!("response frame of {len} bytes")));
        }
        if len < MIN_BODY_LEN {
            return Err(bad("runt response frame"));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        self.bytes_received += (4 + len) as u64;
        let frame = protocol::parse_body(&body).map_err(|e| bad(&e.message()))?;
        Ok((frame.opcode, frame.request_id, frame.payload.to_vec()))
    }

    /// Liveness probe; the server echoes the payload.
    pub fn ping(&mut self, data: &[u8]) -> Result<Vec<u8>> {
        self.call(op::PING, data)
    }

    /// Unverified point read.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let payload = self.call(op::GET, key)?;
        let (&present, value) = payload
            .split_first()
            .ok_or_else(|| bad("empty get reply"))?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value.to_vec())),
            _ => Err(bad("bad presence byte")),
        }
    }

    /// Single-key write; returns the owning shard's new digest.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Digest> {
        let mut payload = Vec::with_capacity(4 + key.len() + value.len());
        codec::put_bytes(&mut payload, key);
        payload.extend_from_slice(value);
        let reply = self.call(op::PUT, &payload)?;
        Digest::decode(&reply).ok_or_else(|| bad("undecodable digest"))
    }

    /// Atomic cross-shard batch write; returns the new cross-shard digest.
    pub fn put_batch(&mut self, writes: &[(Vec<u8>, Vec<u8>)]) -> Result<ShardedDigest> {
        let reply = self.call(op::PUT_BATCH, &protocol::encode_entries(writes))?;
        ShardedDigest::decode(&reply).ok_or_else(|| bad("undecodable sharded digest"))
    }

    /// Proof-carrying point read. The proof is returned **unchecked** —
    /// use a [`LightClient`] to actually verify.
    pub fn get_verified(&mut self, key: &[u8]) -> Result<(Option<Vec<u8>>, ShardedProof)> {
        let payload = self.call(op::GET_VERIFIED, key)?;
        let mut r = Reader::new(&payload);
        let present = r.u8().ok_or_else(|| bad("empty verified-get reply"))?;
        let value = r.bytes().ok_or_else(|| bad("missing value"))?.to_vec();
        let proof = ShardedProof::decode(r.rest()).ok_or_else(|| bad("undecodable point proof"))?;
        let value = match present {
            0 => None,
            1 => Some(value),
            _ => return Err(bad("bad presence byte")),
        };
        Ok((value, proof))
    }

    /// Proof-carrying batched point read: one round trip, one
    /// [`ShardedMultiProof`] covering every key (keys sharing a shard
    /// share one proof group). The proof is returned **unchecked** — use
    /// [`LightClient::get_batch`] to actually verify. The `i`-th returned
    /// value answers `keys[i]`.
    #[allow(clippy::type_complexity)]
    pub fn get_verified_batch(
        &mut self,
        keys: &[Vec<u8>],
    ) -> Result<(Vec<Option<Vec<u8>>>, ShardedMultiProof)> {
        let reply = self.call(op::BATCH_VERIFIED_GET, &protocol::encode_keys(keys))?;
        let mut r = Reader::new(&reply);
        let values =
            protocol::decode_optional_values(&mut r).ok_or_else(|| bad("bad value list"))?;
        if values.len() != keys.len() {
            return Err(bad("value count does not match key count"));
        }
        let proof =
            ShardedMultiProof::decode(r.rest()).ok_or_else(|| bad("undecodable multi proof"))?;
        Ok((values, proof))
    }

    /// Proof-carrying range read, unchecked (see [`LightClient::range`]).
    #[allow(clippy::type_complexity)]
    pub fn range_verified(
        &mut self,
        start: &[u8],
        end: &[u8],
    ) -> Result<(Vec<(Vec<u8>, Vec<u8>)>, ShardedRangeProof)> {
        let mut payload = Vec::with_capacity(4 + start.len() + end.len());
        codec::put_bytes(&mut payload, start);
        payload.extend_from_slice(end);
        let reply = self.call(op::RANGE_VERIFIED, &payload)?;
        let mut r = Reader::new(&reply);
        let entries = protocol::decode_entries(&mut r).ok_or_else(|| bad("bad entry list"))?;
        let proof =
            ShardedRangeProof::decode(r.rest()).ok_or_else(|| bad("undecodable range proof"))?;
        Ok((entries, proof))
    }

    /// The server's current cross-shard digest (a consistent cut).
    pub fn digest(&mut self) -> Result<ShardedDigest> {
        let reply = self.call(op::DIGEST, b"")?;
        ShardedDigest::decode(&reply).ok_or_else(|| bad("undecodable sharded digest"))
    }

    /// Long-poll: block until the cross-shard epoch reaches `min_epoch`
    /// and return that digest. Fails with
    /// [`ErrorCode::ShuttingDown`] if the server drains first.
    pub fn subscribe_digest(&mut self, min_epoch: u64) -> Result<ShardedDigest> {
        let mut payload = Vec::with_capacity(8);
        codec::put_u64(&mut payload, min_epoch);
        let reply = self.call(op::SUBSCRIBE_DIGEST, &payload)?;
        ShardedDigest::decode(&reply).ok_or_else(|| bad("undecodable sharded digest"))
    }

    /// Per-shard health states and reasons.
    pub fn health(&mut self) -> Result<HealthReport> {
        let reply = self.call(op::HEALTH, b"")?;
        let mut r = Reader::new(&reply);
        let overall = health_from_byte(r.u8().ok_or_else(|| bad("empty health reply"))?)
            .ok_or_else(|| bad("bad health byte"))?;
        // A shard takes at least its state byte and reason length prefix.
        let count = r
            .count(5)
            .ok_or_else(|| bad("missing shard count, or one past the payload"))?;
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let state = health_from_byte(r.u8().ok_or_else(|| bad("missing shard state"))?)
                .ok_or_else(|| bad("bad health byte"))?;
            let reason =
                String::from_utf8_lossy(r.bytes().ok_or_else(|| bad("missing health reason"))?)
                    .into_owned();
            shards.push((state, reason));
        }
        Ok(HealthReport { overall, shards })
    }

    /// Admin: scrub every durable shard.
    pub fn scrub(&mut self) -> Result<ScrubTotals> {
        let reply = self.call(op::SCRUB, b"")?;
        let mut r = Reader::new(&reply);
        let totals = ScrubTotals {
            segments_scanned: r.u64().ok_or_else(|| bad("short scrub reply"))?,
            quarantined_segments: r.u64().ok_or_else(|| bad("short scrub reply"))?,
            chunks_salvaged: r.u64().ok_or_else(|| bad("short scrub reply"))?,
            chunks_lost: r.u64().ok_or_else(|| bad("short scrub reply"))?,
        };
        Ok(totals)
    }

    /// Admin: compact every durable shard.
    pub fn compact(&mut self) -> Result<CompactTotals> {
        let reply = self.call(op::COMPACT, b"")?;
        let mut r = Reader::new(&reply);
        let totals = CompactTotals {
            victim_segments: r.u64().ok_or_else(|| bad("short compact reply"))?,
            live_chunks_rewritten: r.u64().ok_or_else(|| bad("short compact reply"))?,
            chunks_dropped: r.u64().ok_or_else(|| bad("short compact reply"))?,
            bytes_reclaimed: r.u64().ok_or_else(|| bad("short compact reply"))?,
        };
        Ok(totals)
    }

    /// The server's telemetry snapshot as a JSON document.
    pub fn telemetry_json(&mut self) -> Result<String> {
        let reply = self.call(op::TELEMETRY, b"")?;
        String::from_utf8(reply).map_err(|_| bad("telemetry is not utf-8"))
    }
}

/// A verifying remote client: every read is checked against a pinned
/// cross-shard root before it is returned, exactly like an in-process
/// [`Verifier`]. Tampered values, forged proofs, and rollback attempts
/// surface as [`ClientError::Verification`].
pub struct LightClient {
    client: SpitzClient,
    verifier: Verifier,
}

impl LightClient {
    /// Connect, handshake, and pin the server's current digest.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<LightClient> {
        let client = SpitzClient::connect(addr)?;
        let mut light = LightClient {
            client,
            verifier: Verifier::new(),
        };
        light.pin()?;
        Ok(light)
    }

    /// Re-pin to the server's current digest. Refuses rollbacks: a digest
    /// behind the existing pin is rejected without moving it.
    pub fn pin(&mut self) -> Result<ShardedDigest> {
        let digest = self.client.digest()?;
        if !self.verifier.observe_sharded(&digest) {
            return Err(ClientError::Verification(
                "served digest rewinds the pinned epoch".to_string(),
            ));
        }
        Ok(digest)
    }

    /// Verified point read: the value (or its absence) is proven against
    /// the pinned root or refused.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let (value, proof) = self.client.get_verified(key)?;
        if !self
            .verifier
            .verify_sharded_read(key, value.as_deref(), &proof)
        {
            return Err(ClientError::Verification(format!(
                "point proof for key {:?} rejected against pinned root",
                String::from_utf8_lossy(key)
            )));
        }
        Ok(value)
    }

    /// Verified batched point read: every value (or absence) in the batch
    /// is proven against the pinned root by one [`ShardedMultiProof`], or
    /// the whole batch is refused — the same acceptance rule as
    /// [`LightClient::get`], amortized over the shared upper-tree nodes.
    pub fn get_batch(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let (values, proof) = self.client.get_verified_batch(keys)?;
        let items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            keys.iter().cloned().zip(values.iter().cloned()).collect();
        if !self.verifier.verify_sharded_multi(&items, &proof) {
            return Err(ClientError::Verification(
                "batched point proof rejected against pinned root".to_string(),
            ));
        }
        Ok(values)
    }

    /// Verified range read over `start <= key < end`; completeness and
    /// ordering are proven for exactly the requested bounds, and the pin
    /// advances to the proof's cut.
    pub fn range(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let (entries, proof) = self.client.range_verified(start, end)?;
        if !proof.answers(start, end) || !self.verifier.verify_sharded_range(&entries, &proof) {
            return Err(ClientError::Verification(
                "range proof rejected against pinned root".to_string(),
            ));
        }
        Ok(entries)
    }

    /// Long-poll for the epoch to reach `min_epoch`, advancing the pin to
    /// the digest the server answers with.
    pub fn follow(&mut self, min_epoch: u64) -> Result<ShardedDigest> {
        let digest = self.client.subscribe_digest(min_epoch)?;
        if !self.verifier.observe_sharded(&digest) {
            return Err(ClientError::Verification(
                "subscribed digest rewinds the pinned epoch".to_string(),
            ));
        }
        Ok(digest)
    }

    /// The epoch of the currently pinned digest (what reads verify
    /// against).
    pub fn pinned_root(&self) -> Option<spitz_crypto::Hash> {
        self.verifier.pinned_sharded_root()
    }

    /// Write through the verified transport (writes need no proof; the
    /// next read re-proves them).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Digest> {
        self.client.put(key, value)
    }

    /// Cross-shard batch write; the returned digest advances the pin.
    pub fn put_batch(&mut self, writes: &[(Vec<u8>, Vec<u8>)]) -> Result<ShardedDigest> {
        let digest = self.client.put_batch(writes)?;
        if !self.verifier.observe_sharded(&digest) {
            return Err(ClientError::Verification(
                "batch digest rewinds the pinned epoch".to_string(),
            ));
        }
        Ok(digest)
    }

    /// The underlying wire client, for mixed verified/raw use.
    pub fn inner(&mut self) -> &mut SpitzClient {
        &mut self.client
    }
}
