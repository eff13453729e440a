//! The Spitz wire protocol: versioned, length-prefixed binary frames.
//!
//! Every message on the socket is one frame:
//!
//! ```text
//! u32 BE  body length (not counting these 4 bytes)
//! u8      protocol version (currently 3)
//! u8      opcode
//! u64 BE  request id (echoed verbatim in the response)
//! ...     opcode-specific payload
//! ```
//!
//! Requests and responses share the layout; a response's opcode is the
//! request's opcode with the high bit set ([`RESPONSE_BIT`]), and a typed
//! failure arrives as [`op::ERROR`] carrying an [`ErrorCode`] byte plus a
//! human-readable message. Request ids are chosen by the client and the
//! server may complete pipelined requests **out of order**, so clients
//! match responses by id, never by arrival order.
//!
//! Decoding never trusts a declared length further than the bytes actually
//! in hand: the frame header is capped at [`MAX_FRAME_LEN`] *before* the
//! body is allocated, and every count-prefixed vector inside a payload is
//! bounded by the remaining payload bytes before reservation. Malformed
//! input yields a typed [`ProtocolError`], never a panic and never an
//! attacker-sized allocation.

use spitz_index::codec::{self, Reader};

/// The one protocol version this build speaks. Version 2 changed what a
/// POS-tree range proof carries (leaves wholly inside the range travel in
/// the answer only): a version-1 peer would read such a proof as tampering,
/// so the two versions refuse each other at the frame header instead.
/// Version 3 dropped the journal proof (and its presence tag) from every
/// point and multi proof: the digest they carry already pins the journal.
pub const PROTOCOL_VERSION: u8 = 3;

/// Hard cap on a frame body. Anything larger is rejected from the header
/// alone — the body is never read or allocated.
pub const MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// Frame bodies carry at least a version, an opcode, and a request id.
pub const MIN_BODY_LEN: usize = 1 + 1 + 8;

/// A response's opcode is its request's opcode with this bit set.
pub const RESPONSE_BIT: u8 = 0x80;

/// Request opcodes (and [`op::ERROR`], the one response-only opcode).
pub mod op {
    /// Handshake: client sends an arbitrary name, server answers with its
    /// protocol version and shard count.
    pub const HELLO: u8 = 0x01;
    /// Liveness probe; the payload is echoed back.
    pub const PING: u8 = 0x02;
    /// Unverified point read.
    pub const GET: u8 = 0x10;
    /// Single-key write; responds with the shard's new [`Digest`](spitz_ledger::Digest).
    pub const PUT: u8 = 0x11;
    /// Atomic cross-shard batch write (2PC under the hood).
    pub const PUT_BATCH: u8 = 0x12;
    /// Proof-carrying point read.
    pub const GET_VERIFIED: u8 = 0x13;
    /// Proof-carrying range read.
    pub const RANGE_VERIFIED: u8 = 0x14;
    /// The current cross-shard digest (a consistent cut).
    pub const DIGEST: u8 = 0x15;
    /// Long-poll: respond with the first digest whose epoch reaches the
    /// requested minimum.
    pub const SUBSCRIBE_DIGEST: u8 = 0x16;
    /// Proof-carrying batched point read: many keys, one consistent cut,
    /// one [`ShardedMultiProof`](spitz_core::ShardedMultiProof).
    pub const BATCH_VERIFIED_GET: u8 = 0x17;
    /// Per-shard health states and reasons.
    pub const HEALTH: u8 = 0x20;
    /// Admin: run a scrub pass over every durable shard.
    pub const SCRUB: u8 = 0x21;
    /// Admin: run a compaction pass over every durable shard.
    pub const COMPACT: u8 = 0x22;
    /// The server's telemetry snapshot, rendered as JSON.
    pub const TELEMETRY: u8 = 0x23;
    /// Response-only: a typed failure ([`ErrorCode`](super::ErrorCode) +
    /// message).
    pub const ERROR: u8 = 0xFF;
}

/// Typed failure codes carried by [`op::ERROR`] responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad length, short body). Fatal:
    /// the server closes the connection after sending this.
    BadFrame = 1,
    /// The version byte is not [`PROTOCOL_VERSION`]. Fatal.
    UnsupportedVersion = 2,
    /// The opcode is not one this server understands.
    UnknownOpcode = 3,
    /// The frame was well-formed but its payload was not.
    BadPayload = 4,
    /// The connection's request queue is full; retry after draining
    /// in-flight requests.
    Busy = 5,
    /// The store is read-only; writes fail fast, reads keep serving.
    ReadOnly = 6,
    /// A transaction conflict the client should retry.
    Conflict = 7,
    /// An internal server failure.
    Internal = 8,
    /// The declared frame length exceeds [`MAX_FRAME_LEN`]. Fatal.
    TooLarge = 9,
    /// The server is draining for shutdown.
    ShuttingDown = 10,
    /// Server-side verification failed — evidence of tampering.
    Verification = 11,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::UnsupportedVersion,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::BadPayload,
            5 => ErrorCode::Busy,
            6 => ErrorCode::ReadOnly,
            7 => ErrorCode::Conflict,
            8 => ErrorCode::Internal,
            9 => ErrorCode::TooLarge,
            10 => ErrorCode::ShuttingDown,
            11 => ErrorCode::Verification,
            _ => return None,
        })
    }

    /// True when the server must close the connection after sending this
    /// error: the stream can no longer be framed reliably.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            ErrorCode::BadFrame | ErrorCode::UnsupportedVersion | ErrorCode::TooLarge
        )
    }
}

/// A decoded frame header + payload, borrowed from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Protocol version byte (already validated to [`PROTOCOL_VERSION`]).
    pub version: u8,
    /// The opcode.
    pub opcode: u8,
    /// Client-chosen request id, echoed in the response.
    pub request_id: u64,
    /// Opcode-specific payload bytes.
    pub payload: &'a [u8],
}

/// Why a frame failed to parse. The variants map onto the wire
/// [`ErrorCode`]s a server sends back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Body shorter than [`MIN_BODY_LEN`].
    BadFrame,
    /// Declared body length past [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// Version byte mismatch.
    UnsupportedVersion(u8),
}

impl ProtocolError {
    /// The wire error code a server answers this parse failure with.
    pub fn code(&self) -> ErrorCode {
        match self {
            ProtocolError::BadFrame => ErrorCode::BadFrame,
            ProtocolError::TooLarge(_) => ErrorCode::TooLarge,
            ProtocolError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        }
    }

    /// Human-readable message for the error frame.
    pub fn message(&self) -> String {
        match self {
            ProtocolError::BadFrame => "frame body shorter than header".to_string(),
            ProtocolError::TooLarge(n) => {
                format!("declared frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtocolError::UnsupportedVersion(v) => {
                format!("protocol version {v} unsupported (want {PROTOCOL_VERSION})")
            }
        }
    }
}

/// Validate a declared body length from a frame header **before** reading
/// or allocating the body.
pub fn check_body_len(len: usize) -> Result<(), ProtocolError> {
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::TooLarge(len));
    }
    if len < MIN_BODY_LEN {
        return Err(ProtocolError::BadFrame);
    }
    Ok(())
}

/// Parse a complete frame body (the bytes after the length prefix).
pub fn parse_body(body: &[u8]) -> Result<Frame<'_>, ProtocolError> {
    if body.len() < MIN_BODY_LEN {
        return Err(ProtocolError::BadFrame);
    }
    let version = body[0];
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let opcode = body[1];
    let request_id = u64::from_be_bytes(body[2..10].try_into().expect("8 bytes"));
    Ok(Frame {
        version,
        opcode,
        request_id,
        payload: &body[10..],
    })
}

/// Encode a complete frame (length prefix included) ready for the socket.
pub fn encode_frame(opcode: u8, request_id: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = MIN_BODY_LEN + payload.len();
    let mut out = Vec::with_capacity(4 + body_len);
    codec::put_u32(&mut out, body_len as u32);
    out.push(PROTOCOL_VERSION);
    out.push(opcode);
    codec::put_u64(&mut out, request_id);
    out.extend_from_slice(payload);
    out
}

/// Encode an [`op::ERROR`] frame.
pub fn encode_error(request_id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + message.len());
    payload.push(code as u8);
    payload.extend_from_slice(message.as_bytes());
    encode_frame(op::ERROR, request_id, &payload)
}

/// Decode an [`op::ERROR`] payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Option<(ErrorCode, String)> {
    let (&code, rest) = payload.split_first()?;
    Some((
        ErrorCode::from_u8(code)?,
        String::from_utf8_lossy(rest).into_owned(),
    ))
}

/// Encode a `(key, value)` list the way [`op::PUT_BATCH`] and the
/// [`op::RANGE_VERIFIED`] response carry entries: `u32` count, then
/// length-prefixed key and value per entry.
pub fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, entries.len() as u32);
    for (k, v) in entries {
        codec::put_bytes(&mut out, k);
        codec::put_bytes(&mut out, v);
    }
    out
}

/// Decode an entry list from `r`, bounding the up-front reservation by the
/// bytes actually present (each entry needs at least its two length
/// prefixes, 8 bytes).
pub fn decode_entries(r: &mut Reader<'_>) -> Option<Vec<(Vec<u8>, Vec<u8>)>> {
    let count = r.count(8)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let k = r.bytes()?.to_vec();
        let v = r.bytes()?.to_vec();
        entries.push((k, v));
    }
    Some(entries)
}

/// Encode a key list the way the [`op::BATCH_VERIFIED_GET`] request
/// carries its keys: `u32` count, then one length-prefixed key each.
pub fn encode_keys(keys: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, keys.len() as u32);
    for key in keys {
        codec::put_bytes(&mut out, key);
    }
    out
}

/// Decode a key list from `r`, bounding the up-front reservation by the
/// bytes actually present (each key needs at least its length prefix).
pub fn decode_keys(r: &mut Reader<'_>) -> Option<Vec<Vec<u8>>> {
    let count = r.count(4)?;
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        keys.push(r.bytes()?.to_vec());
    }
    Some(keys)
}

/// Encode an optional-value list the way the [`op::BATCH_VERIFIED_GET`]
/// response carries its per-key results: `u32` count, then per key a
/// presence byte (0/1) followed by the length-prefixed value when present.
pub fn encode_optional_values(values: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, values.len() as u32);
    for value in values {
        match value {
            Some(v) => {
                out.push(1);
                codec::put_bytes(&mut out, v);
            }
            None => out.push(0),
        }
    }
    out
}

/// Decode an optional-value list from `r`, bounding the up-front
/// reservation by the bytes actually present (each entry needs at least its
/// presence byte).
pub fn decode_optional_values(r: &mut Reader<'_>) -> Option<Vec<Option<Vec<u8>>>> {
    let count = r.count(1)?;
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(match r.u8()? {
            0 => None,
            1 => Some(r.bytes()?.to_vec()),
            _ => return None,
        });
    }
    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(op::GET, 7, b"some/key");
        let declared = u32::from_be_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(declared, frame.len() - 4);
        check_body_len(declared).unwrap();
        let parsed = parse_body(&frame[4..]).unwrap();
        assert_eq!(parsed.version, PROTOCOL_VERSION);
        assert_eq!(parsed.opcode, op::GET);
        assert_eq!(parsed.request_id, 7);
        assert_eq!(parsed.payload, b"some/key");
    }

    #[test]
    fn header_caps_reject_before_allocation() {
        assert_eq!(
            check_body_len(MAX_FRAME_LEN + 1),
            Err(ProtocolError::TooLarge(MAX_FRAME_LEN + 1))
        );
        assert_eq!(
            check_body_len(MIN_BODY_LEN - 1),
            Err(ProtocolError::BadFrame)
        );
        check_body_len(MIN_BODY_LEN).unwrap();
        check_body_len(MAX_FRAME_LEN).unwrap();
    }

    #[test]
    fn version_and_short_bodies_are_typed_errors() {
        assert_eq!(parse_body(&[]), Err(ProtocolError::BadFrame));
        assert_eq!(parse_body(&[1, 2, 3]), Err(ProtocolError::BadFrame));
        let mut body = encode_frame(op::PING, 1, b"")[4..].to_vec();
        body[0] = 9;
        assert_eq!(parse_body(&body), Err(ProtocolError::UnsupportedVersion(9)));
        assert!(ProtocolError::UnsupportedVersion(9).code().is_fatal());
        assert!(!ErrorCode::Busy.is_fatal());
    }

    #[test]
    fn error_frames_roundtrip() {
        let frame = encode_error(42, ErrorCode::ReadOnly, "store is read-only");
        let parsed = parse_body(&frame[4..]).unwrap();
        assert_eq!(parsed.opcode, op::ERROR);
        assert_eq!(parsed.request_id, 42);
        let (code, message) = decode_error(parsed.payload).unwrap();
        assert_eq!(code, ErrorCode::ReadOnly);
        assert_eq!(message, "store is read-only");
        assert_eq!(decode_error(&[]), None);
        assert_eq!(decode_error(&[200, b'x']), None);
    }

    #[test]
    fn key_and_optional_value_lists_roundtrip_and_bound_allocation() {
        let keys = vec![b"a".to_vec(), b"long-key".to_vec(), Vec::new()];
        let encoded = encode_keys(&keys);
        let mut r = Reader::new(&encoded);
        assert_eq!(decode_keys(&mut r).unwrap(), keys);
        assert!(r.is_exhausted());

        let values = vec![Some(b"v1".to_vec()), None, Some(Vec::new())];
        let encoded = encode_optional_values(&values);
        let mut r = Reader::new(&encoded);
        assert_eq!(decode_optional_values(&mut r).unwrap(), values);
        assert!(r.is_exhausted());

        // Hostile counts fail fast without reserving.
        let mut lie = Vec::new();
        codec::put_u32(&mut lie, u32::MAX);
        assert_eq!(decode_keys(&mut Reader::new(&lie)), None);
        assert_eq!(decode_optional_values(&mut Reader::new(&lie)), None);
        // A bad presence byte is rejected.
        let mut bad = Vec::new();
        codec::put_u32(&mut bad, 1);
        bad.push(7);
        assert_eq!(decode_optional_values(&mut Reader::new(&bad)), None);
    }

    #[test]
    fn entry_lists_bound_allocation_by_remaining_bytes() {
        let entries = vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"bb".to_vec(), b"22".to_vec()),
        ];
        let encoded = encode_entries(&entries);
        let mut r = Reader::new(&encoded);
        assert_eq!(decode_entries(&mut r).unwrap(), entries);
        assert!(r.is_exhausted());

        // A huge declared count with no bytes behind it must fail fast,
        // not reserve.
        let mut lie = Vec::new();
        codec::put_u32(&mut lie, u32::MAX);
        let mut r = Reader::new(&lie);
        assert_eq!(decode_entries(&mut r), None);
    }
}
