//! Protocol torture suite: seeded fuzzing of the frame decoders, hostile
//! and broken byte streams against a live socket, and chaos schedules
//! with a fault-injected backing store while remote clients hammer the
//! server.
//!
//! The standing rules under all of it: a typed error, never a panic;
//! bounded allocation, never attacker-sized; degraded service per
//! [`HealthState`], never a deadlock; and no proof leaves the server that
//! a light client would wrongly accept.
//!
//! The 64-client soak at the bottom is `#[ignore]`d; CI's soak step runs
//! it explicitly with `--ignored`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spitz::core::proof::{ShardedMultiProof, ShardedProof, ShardedRangeProof, Verifier};
use spitz::core::sharded::{ShardedConfig, ShardedDb, ShardedDigest};
use spitz::index::codec::Reader;
use spitz::ledger::Digest;
use spitz::server::protocol::{self, op, ErrorCode};
use spitz::server::{ClientError, ServerConfig, SpitzClient, SpitzServer};
use spitz::storage::{DurableConfig, HealthState, IoErrorKind, WriteOutcome};
use spitz_faults::{FaultInjector, SeededRng};

mod common;
use common::TempDir;

fn key(i: u64) -> Vec<u8> {
    format!("torture/{i:06}").into_bytes()
}

fn serve_in_memory(shards: usize, config: ServerConfig) -> SpitzServer {
    let db = Arc::new(ShardedDb::in_memory(shards));
    SpitzServer::start(db, config).expect("start server")
}

/// Read one whole response frame off a raw socket.
fn read_raw_frame(stream: &mut TcpStream) -> std::io::Result<(u8, u64, Vec<u8>)> {
    let mut len_prefix = [0u8; 4];
    stream.read_exact(&mut len_prefix)?;
    let len = u32::from_be_bytes(len_prefix) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let frame = protocol::parse_body(&body).expect("server frames are well-formed");
    Ok((frame.opcode, frame.request_id, frame.payload.to_vec()))
}

/// Satellite: seeded fuzz of every untrusted decoder. Arbitrary bytes
/// and mutated valid encodings must come back as typed `None`/errors —
/// never a panic, never an allocation sized by attacker-declared counts.
#[test]
fn decoder_fuzz_random_bytes_never_panic() {
    let mut rng = SeededRng::new(0xF0_2221);
    for _ in 0..4000 {
        let len = rng.below(280) as usize;
        let bytes = rng.bytes(len);
        let _ = protocol::parse_body(&bytes);
        let _ = protocol::decode_error(&bytes);
        let _ = ShardedProof::decode(&bytes);
        let _ = ShardedMultiProof::decode(&bytes);
        let _ = ShardedRangeProof::decode(&bytes);
        let _ = ShardedDigest::decode(&bytes);
        let _ = Digest::decode(&bytes);
        let mut r = Reader::new(&bytes);
        let _ = protocol::decode_entries(&mut r);
        let mut r = Reader::new(&bytes);
        let _ = protocol::decode_keys(&mut r);
        let mut r = Reader::new(&bytes);
        let _ = protocol::decode_optional_values(&mut r);
    }

    // Declared-count lies: a 4 GiB entry count backed by nothing must be
    // rejected from the remaining-bytes bound, not reserved.
    let mut lie = Vec::new();
    spitz::index::codec::put_u32(&mut lie, u32::MAX);
    lie.extend_from_slice(&rng.bytes(32));
    let mut r = Reader::new(&lie);
    assert_eq!(protocol::decode_entries(&mut r), None);
    let mut r = Reader::new(&lie);
    assert_eq!(protocol::decode_keys(&mut r), None);
    let mut r = Reader::new(&lie);
    assert_eq!(protocol::decode_optional_values(&mut r), None);
}

/// Satellite: mutated *valid* proof encodings either fail to decode or
/// decode into proofs the verifier refuses — a flipped bit can never
/// survive the acceptance rule.
#[test]
fn decoder_fuzz_mutated_proofs_never_verify() {
    let db = ShardedDb::in_memory(3);
    for i in 0..24 {
        db.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    let digest = db.digest();
    let (value, proof) = db.get_verified(&key(5)).unwrap();
    let honest = proof.encode();

    let mut rng = SeededRng::new(0x05EE_DF1B);
    let mut decoded_mutants = 0;
    for _ in 0..600 {
        let mut mutant = honest.clone();
        match rng.below(3) {
            0 => {
                let idx = rng.below(mutant.len() as u64) as usize;
                mutant[idx] ^= 1 << rng.below(8);
            }
            1 => {
                let cut = rng.below(mutant.len() as u64) as usize;
                mutant.truncate(cut);
            }
            _ => {
                let extra = rng.below(16) as usize + 1;
                let garbage = rng.bytes(extra);
                mutant.extend_from_slice(&garbage);
            }
        }
        if mutant == honest {
            continue;
        }
        if let Some(forged) = ShardedProof::decode(&mutant) {
            decoded_mutants += 1;
            let mut verifier = Verifier::new();
            assert!(verifier.observe_sharded(&digest));
            if verifier.verify_sharded_read(&key(5), value.as_deref(), &forged) {
                // A flip in advisory metadata (the shard-count hint) can
                // survive verification; soundness only requires that the
                // cryptographic binding holds — same root, and still no
                // acceptance of a different value under the same proof.
                assert_eq!(forged.root, proof.root, "root confusion must not verify");
                let mut strict = Verifier::new();
                assert!(strict.observe_sharded(&digest));
                assert!(
                    !strict.verify_sharded_read(&key(5), Some(b"not the value"), &forged),
                    "a verifying mutant must still bind the honest value"
                );
            }
        }
    }
    // Bit flips inside hash fields still decode structurally; the fuzz
    // only means something if some mutants reach the verifier.
    assert!(
        decoded_mutants > 0,
        "no mutant even decoded — fuzz is toothless"
    );
}

/// Satellite: mutated *batched* proofs, mirroring the single-proof
/// guarantees above for [`ShardedMultiProof`], for every index kind: the
/// same carrier serves point and batched reads, and holds a de-duplicated
/// union of paths (POS-tree, MBT) or one trie-shaped blob (MPT). Every
/// shared-node splice, duplication, truncation, bit flip, emptied carrier
/// and foreign node in a group's carrier is rejected; claim-level
/// forgeries (forged value, conjured presence, claimed absence) are
/// rejected; and seeded wire-level mutants either fail to decode or fail
/// verification.
#[test]
fn mutated_multi_proofs_never_verify() {
    use spitz::core::db::SpitzConfig;
    use spitz::index::SiriKind;

    for siri in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        let kind = siri.name();
        let config = ShardedConfig::default()
            .with_shards(3)
            .with_spitz(SpitzConfig {
                siri,
                ..SpitzConfig::default()
            });
        let db = ShardedDb::with_config(config);
        for i in 0..48 {
            db.put(&key(i), format!("mv{i}").as_bytes()).unwrap();
        }
        let mut keys: Vec<Vec<u8>> = (8..24).map(key).collect();
        keys.push(b"torture/absent".to_vec());
        let (values, proof) = db.get_multi_verified(&keys).unwrap();
        let items: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            keys.iter().cloned().zip(values.iter().cloned()).collect();
        assert!(proof.verify(&items), "{kind}");

        // Claim-level forgeries against the honest proof.
        let mut forged = items.clone();
        forged[3].1 = Some(b"forged".to_vec());
        assert!(
            !proof.verify(&forged),
            "{kind}: forged value must be refused"
        );
        let mut hidden = items.clone();
        hidden[3].1 = None;
        assert!(
            !proof.verify(&hidden),
            "{kind}: claimed absence must be refused"
        );
        let mut conjured = items.clone();
        conjured[16].1 = Some(b"conjured".to_vec());
        assert!(
            !proof.verify(&conjured),
            "{kind}: conjured presence must be refused"
        );

        // Structured shared-node attacks against every group's node
        // carrier: splice the root node out, duplicate a node, overwrite a
        // needed node with a copy of another, truncate a payload, flip a
        // bit inside one, empty the carrier, splice in another group's
        // first node. (A pure *reorder* of a union carrier is benign
        // malleability — the node set and the proven claims are unchanged
        // — so it is not in this list; the wire fuzz below still checks
        // reordered mutants bind.)
        assert!(proof.groups.len() >= 2, "{kind}: the batch spans shards");
        let honest = proof.encode();
        let mut rejected = 0;
        for g in 0..proof.groups.len() {
            let foreign = proof.groups[(g + 1) % proof.groups.len()]
                .ledger_proof
                .index_proof
                .nodes[0]
                .clone();
            for attack in 0..7 {
                let mut mutant = proof.clone();
                let nodes = &mut mutant.groups[g].ledger_proof.index_proof.nodes;
                assert!(!nodes.is_empty(), "{kind}: groups with keys reveal nodes");
                match attack {
                    0 => {
                        nodes.remove(0);
                    }
                    1 => {
                        let node = nodes[0].clone();
                        nodes.push(node);
                    }
                    2 => {
                        if nodes.len() >= 2 {
                            let last = nodes.len() - 1;
                            nodes[last] = nodes[0].clone();
                        } else {
                            nodes[0].reverse();
                        }
                    }
                    3 => {
                        let len = nodes[0].len();
                        nodes[0].truncate(len / 2);
                    }
                    4 => {
                        nodes[0][0] ^= 0x01;
                    }
                    5 => nodes.clear(),
                    _ => nodes.push(foreign.clone()),
                }
                if mutant.encode() == honest {
                    continue;
                }
                assert!(
                    !mutant.verify(&items),
                    "{kind}: group {g} node attack {attack} must be rejected"
                );
                rejected += 1;
            }
        }
        assert!(
            rejected >= proof.groups.len() * 6,
            "{kind}: the node attacks must actually mutate the proofs"
        );

        // Seeded wire-level mutants of the canonical encoding.
        let mut rng = SeededRng::new(0x3417_1BAD);
        let mut decoded_mutants = 0;
        for _ in 0..600 {
            let mut mutant = honest.clone();
            match rng.below(3) {
                0 => {
                    let idx = rng.below(mutant.len() as u64) as usize;
                    mutant[idx] ^= 1 << rng.below(8);
                }
                1 => {
                    let cut = rng.below(mutant.len() as u64) as usize;
                    mutant.truncate(cut);
                }
                _ => {
                    let extra = rng.below(16) as usize + 1;
                    let garbage = rng.bytes(extra);
                    mutant.extend_from_slice(&garbage);
                }
            }
            if mutant == honest {
                continue;
            }
            if let Some(decoded) = ShardedMultiProof::decode(&mutant) {
                decoded_mutants += 1;
                if decoded.verify(&items) {
                    // Only cryptographically inert bytes may survive a
                    // flip; the binding must hold: same root, and still no
                    // acceptance of altered claims under the mutant.
                    assert_eq!(
                        decoded.root, proof.root,
                        "{kind}: root confusion must not verify"
                    );
                    let mut still_forged = items.clone();
                    still_forged[5].1 = Some(b"still forged".to_vec());
                    assert!(
                        !decoded.verify(&still_forged),
                        "{kind}: a verifying mutant must still bind the honest values"
                    );
                }
            }
        }
        assert!(
            decoded_mutants > 0,
            "{kind}: no mutant even decoded — fuzz is toothless"
        );
    }
}

/// Seeded garbage streams and bit-flipped frames against the live
/// socket: connections die with typed errors or clean closes, and the
/// server keeps serving fresh clients afterwards.
#[test]
fn socket_fuzz_garbage_streams_leave_server_serving() {
    let server = serve_in_memory(
        2,
        ServerConfig::default().with_idle_timeout(Duration::from_millis(400)),
    );
    let addr = server.local_addr();
    let mut rng = SeededRng::new(0xBAD_F00D);

    for case in 0..48u64 {
        let Ok(mut sock) = TcpStream::connect(addr) else {
            panic!("server stopped accepting mid-fuzz");
        };
        let mode = case % 3;
        if mode == 0 {
            // Pure noise.
            let len = 1 + rng.below(700) as usize;
            let noise = rng.bytes(len);
            let _ = sock.write_all(&noise);
        } else if mode == 1 {
            // A valid frame with one flipped bit, anywhere.
            let mut frame = protocol::encode_frame(op::GET, case, b"torture/000001");
            let idx = rng.below(frame.len() as u64) as usize;
            frame[idx] ^= 1 << rng.below(8);
            let _ = sock.write_all(&frame);
        } else {
            // A truncated valid frame: declared length never satisfied.
            let frame = protocol::encode_frame(op::PUT, case, &rng.bytes(64));
            let cut = 5 + rng.below((frame.len() - 5) as u64) as usize;
            let _ = sock.write_all(&frame[..cut]);
        }
        // Half the connections hang up immediately (mid-frame
        // disconnects), half linger for the server to time out or answer.
        if rng.chance(512) {
            drop(sock);
        } else {
            let _ = sock.set_read_timeout(Some(Duration::from_millis(100)));
            let mut sink = [0u8; 256];
            let _ = sock.read(&mut sink);
        }
    }

    // After all of it the server still speaks the protocol.
    let mut client = SpitzClient::connect(addr).expect("fresh client after fuzz");
    client.put(b"torture/after", b"alive").unwrap();
    assert_eq!(
        client.get(b"torture/after").unwrap().as_deref(),
        Some(&b"alive"[..])
    );
    let json = client.telemetry_json().unwrap();
    assert!(json.contains("server.protocol_errors"));
}

/// An oversized declared length is refused from the header alone: typed
/// `TooLarge`, then the connection closes. The body is never read.
#[test]
fn oversized_frame_rejected_before_allocation() {
    let server = serve_in_memory(2, ServerConfig::default());
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(&(64 * 1024 * 1024u32).to_be_bytes())
        .unwrap();

    let (opcode, request_id, payload) = read_raw_frame(&mut sock).expect("error frame");
    assert_eq!(opcode, op::ERROR);
    assert_eq!(request_id, 0);
    let (code, _) = protocol::decode_error(&payload).unwrap();
    assert_eq!(code, ErrorCode::TooLarge);

    // Fatal: the connection is closed after the error frame.
    let mut rest = Vec::new();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(sock.read_to_end(&mut rest).unwrap_or(0), 0);
}

/// Runt frames and alien protocol versions get their own typed fatal
/// errors.
#[test]
fn runt_frames_and_bad_versions_are_typed_fatal() {
    let server = serve_in_memory(2, ServerConfig::default());

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(&3u32.to_be_bytes()).unwrap();
    let (opcode, _, payload) = read_raw_frame(&mut sock).expect("error frame");
    assert_eq!(opcode, op::ERROR);
    assert_eq!(
        protocol::decode_error(&payload).unwrap().0,
        ErrorCode::BadFrame
    );

    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = protocol::encode_frame(op::PING, 9, b"");
    frame[4] = 42; // version byte
    sock.write_all(&frame).unwrap();
    let (opcode, _, payload) = read_raw_frame(&mut sock).expect("error frame");
    assert_eq!(opcode, op::ERROR);
    assert_eq!(
        protocol::decode_error(&payload).unwrap().0,
        ErrorCode::UnsupportedVersion
    );
}

/// A version-1 client would read a version-2 POS-tree range proof (covered
/// leaves travel in the answer only) as tampering, and a version-2 client
/// would read a version-3 point proof (no journal proof) as truncated, so
/// an older peer's request is refused with the typed version error and the
/// connection closed — the server never answers it with a proof it cannot
/// check.
#[test]
fn version_1_range_request_is_refused_not_answered() {
    let server = serve_in_memory(2, ServerConfig::default());
    let mut payload = Vec::new();
    spitz::index::codec::put_bytes(&mut payload, b"a");
    payload.extend_from_slice(b"z");
    let range = protocol::encode_frame(op::RANGE_VERIFIED, 7, &payload);
    let point = protocol::encode_frame(op::GET_VERIFIED, 8, b"a");
    for (mut frame, old) in [(range, 1), (point, 2)] {
        assert_eq!(frame[4], 3, "this build speaks version 3");
        frame[4] = old;
        let mut sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.write_all(&frame).unwrap();

        let (opcode, _, payload) = read_raw_frame(&mut sock).expect("error frame");
        assert_eq!(opcode, op::ERROR);
        assert_eq!(
            protocol::decode_error(&payload).unwrap().0,
            ErrorCode::UnsupportedVersion
        );
        let mut rest = Vec::new();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(sock.read_to_end(&mut rest).unwrap_or(0), 0);
    }
}

/// A connection that goes quiet mid-frame is closed on the idle clock;
/// the server's other connections never notice.
#[test]
fn mid_frame_stall_is_reaped_by_idle_timeout() {
    let server = serve_in_memory(
        2,
        ServerConfig::default().with_idle_timeout(Duration::from_millis(200)),
    );
    let addr = server.local_addr();

    // Declare 100 bytes, deliver 10, then stall (but keep the socket
    // open, so only the idle clock can reap it).
    let mut stalled = TcpStream::connect(addr).unwrap();
    let frame = protocol::encode_frame(op::PUT, 1, &[0x55; 90]);
    stalled.write_all(&frame[..14]).unwrap();

    // A healthy connection keeps working while the stalled one lingers.
    let mut client = SpitzClient::connect(addr).expect("connect");
    client.put(b"torture/live", b"x").unwrap();

    // The stalled socket is closed by the server within the idle window.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    let n = stalled.read_to_end(&mut sink).unwrap_or(0);
    assert_eq!(n, 0, "stalled connection must be closed without a response");
    // The healthy connection idled past the (short) window too while we
    // waited for the reap; a fresh one shows the server still serves.
    let mut fresh = SpitzClient::connect(addr).expect("post-reap connect");
    assert_eq!(fresh.ping(b"after").unwrap(), b"after");
    assert_eq!(
        fresh.get(b"torture/live").unwrap().as_deref(),
        Some(&b"x"[..])
    );
}

/// Chaos: the backing store flips read-only under injected `ENOSPC`
/// while remote clients hammer the socket. Reads — verified ones
/// included — keep serving and verifying against the pre-fault pin,
/// every write fails with the typed `ReadOnly` code, health is served
/// truthfully, and nothing deadlocks.
#[test]
fn faulted_store_degrades_remote_service_without_deadlock() {
    let dir = TempDir::new("server-chaos");
    let injector = Arc::new(FaultInjector::new(0xC0C0A));
    let config = ShardedConfig::default()
        .with_shards(2)
        .with_durable(DurableConfig {
            segment_target_bytes: 8 * 1024,
            ..DurableConfig::default()
        });
    let db = Arc::new(
        ShardedDb::open_with_io(dir.path(), config, injector.handle()).expect("open with injector"),
    );
    let server = SpitzServer::start(db, ServerConfig::default()).expect("start server");
    let addr = server.local_addr();

    let mut client = SpitzClient::connect(addr).expect("connect");
    for i in 0..30 {
        client.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    let mut verifier = Verifier::new();
    assert!(verifier.observe_sharded(&client.digest().unwrap()));

    // The device fills: every append for the next stretch reports
    // `ENOSPC`, so each shard flips read-only at its next write.
    let (appends, _) = injector.ops();
    for k in 0..32 {
        injector.fail_append_at(appends + k, WriteOutcome::Fail(IoErrorKind::NoSpace));
    }
    let mut read_only_failures = 0;
    for i in 30..50 {
        match client.put(&key(i), b"doomed") {
            // The write that trips over the full device surfaces the
            // storage error itself (Internal); every write after that
            // shard's flip fails fast with the typed ReadOnly.
            Err(ClientError::Server {
                code: ErrorCode::ReadOnly,
                ..
            }) => read_only_failures += 1,
            Err(ClientError::Server {
                code: ErrorCode::Internal,
                ..
            }) => {}
            Ok(_) => {}
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(read_only_failures >= 2, "both shards must hit the fault");

    // Health over the wire tells the truth: deployment degraded, shards
    // read-only with a space-related reason.
    let health = client.health().unwrap();
    assert_eq!(health.overall, HealthState::Degraded);
    assert!(health
        .shards
        .iter()
        .all(|(state, reason)| *state == HealthState::ReadOnly && reason.contains("space")));

    // Concurrent hammer: verified reads keep serving and verifying, all
    // writes keep failing typed, every thread joins (no deadlock).
    let reads_ok = Arc::new(AtomicU64::new(0));
    let writes_refused = Arc::new(AtomicU64::new(0));
    let hammers: Vec<std::thread::JoinHandle<()>> = (0..4)
        .map(|w| {
            let reads_ok = Arc::clone(&reads_ok);
            let writes_refused = Arc::clone(&writes_refused);
            std::thread::spawn(move || {
                let mut client = SpitzClient::connect(addr).expect("connect");
                let mut verifier = Verifier::new();
                assert!(verifier.observe_sharded(&client.digest().unwrap()));
                let mut rng = SeededRng::stream(0xC0C0A, w);
                for _ in 0..40 {
                    let i = rng.below(30);
                    let (value, proof) = client.get_verified(&key(i)).expect("read must serve");
                    assert_eq!(value, Some(format!("v{i}").into_bytes()));
                    assert!(
                        verifier.verify_sharded_read(&key(i), value.as_deref(), &proof),
                        "served proof must verify in degraded mode"
                    );
                    reads_ok.fetch_add(1, Ordering::Relaxed);
                    match client.put(&key(1000 + i), b"nope") {
                        Err(ClientError::Server {
                            code: ErrorCode::ReadOnly,
                            ..
                        }) => {
                            writes_refused.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("write must be refused typed, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in hammers {
        handle.join().expect("hammer thread");
    }
    assert_eq!(reads_ok.load(Ordering::Relaxed), 160);
    assert_eq!(writes_refused.load(Ordering::Relaxed), 160);
}

/// Satellite: the 64-client mixed-op soak against a transiently faulted
/// store. Run by CI's soak step via `--ignored`.
#[test]
#[ignore = "long server soak; run explicitly with --ignored"]
fn server_soak_64_clients_mixed_ops() {
    const CLIENTS: u64 = 64;
    const SOAK: Duration = Duration::from_secs(60);

    let dir = TempDir::new("server-soak");
    let injector = Arc::new(FaultInjector::random(
        0x50A4_0001,
        spitz_faults::FaultRates {
            transient_per_1024: 12,
            fsync_transient_per_1024: 6,
            ..spitz_faults::FaultRates::default()
        },
    ));
    let config = ShardedConfig::default()
        .with_shards(4)
        .with_durable(DurableConfig {
            segment_target_bytes: 32 * 1024,
            ..DurableConfig::default()
        });
    let db = Arc::new(
        ShardedDb::open_with_io(dir.path(), config, injector.handle()).expect("open with injector"),
    );
    let server = SpitzServer::start(
        db,
        ServerConfig::default().with_max_connections(CLIENTS as usize + 4),
    )
    .expect("start server");
    let addr = server.local_addr();

    let total_ops = Arc::new(AtomicU64::new(0));
    let clients: Vec<std::thread::JoinHandle<()>> = (0..CLIENTS)
        .map(|c| {
            let total_ops = Arc::clone(&total_ops);
            std::thread::spawn(move || {
                let mut client = SpitzClient::connect(addr).expect("connect");
                let mut rng = SeededRng::stream(0x0050_A450, c);
                let deadline = Instant::now() + SOAK;
                let mut ops = 0u64;
                while Instant::now() < deadline {
                    let i = rng.below(4000);
                    let outcome = match rng.below(100) {
                        0..=39 => client
                            .put(&key(i), &rng.next_u64().to_be_bytes())
                            .map(|_| ()),
                        40..=69 => client.get(&key(i)).map(|_| ()),
                        70..=89 => client.get_verified(&key(i)).map(|_| ()),
                        90..=95 => client.digest().map(|_| ()),
                        96..=98 => client.ping(b"soak").map(|_| ()),
                        _ => client.health().map(|_| ()),
                    };
                    match outcome {
                        Ok(()) => {}
                        // Typed degradation is legal under injected
                        // faults; anything else is a suite failure.
                        Err(ClientError::Server { code, .. }) => {
                            assert!(
                                matches!(code, ErrorCode::ReadOnly | ErrorCode::Busy),
                                "unexpected server error code {code:?}"
                            );
                        }
                        Err(other) => panic!("soak client failed: {other}"),
                    }
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
            })
        })
        .collect();
    for handle in clients {
        handle.join().expect("soak client thread");
    }

    let ops = total_ops.load(Ordering::Relaxed);
    println!(
        "soak: {CLIENTS} clients, {ops} ops, {} faults injected",
        injector.injected_faults()
    );
    assert!(
        ops > CLIENTS * 100,
        "the soak must actually exercise the server"
    );

    // The server is still coherent after the storm.
    let mut client = SpitzClient::connect(addr).expect("post-soak connect");
    let digest = client.digest().unwrap();
    assert!(digest.verify());
    let json = client.telemetry_json().unwrap();
    assert!(json.contains("server.requests"));
}
