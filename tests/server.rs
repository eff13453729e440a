//! Wire-protocol conformance suite for the served front-end.
//!
//! The backbone claim: a remote light client is exactly as strong as an
//! in-process [`Verifier`] — the server ships byte-identical proof
//! encodings, pipelined requests complete out of order without losing
//! their ids, backpressure is a typed `Busy` (never a stall), and
//! shutdown drains rather than drops.

use std::sync::Arc;
use std::time::Duration;

use spitz::core::proof::Verifier;
use spitz::core::sharded::{ShardedConfig, ShardedDb};
use spitz::server::client::HealthReport;
use spitz::server::protocol::{self, op, ErrorCode, RESPONSE_BIT};
use spitz::server::{ClientError, LightClient, ServerConfig, SpitzClient, SpitzServer};
use spitz::storage::{DurableConfig, HealthState};
use spitz_faults::SeededRng;

mod common;
use common::TempDir;

fn serve_in_memory(shards: usize) -> SpitzServer {
    let db = Arc::new(ShardedDb::in_memory(shards));
    SpitzServer::start(db, ServerConfig::default()).expect("start server")
}

fn key(i: u64) -> Vec<u8> {
    format!("wire/{i:06}").into_bytes()
}

#[test]
fn handshake_and_point_roundtrip() {
    let server = serve_in_memory(3);
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");
    assert_eq!(client.shard_count(), 3);

    assert_eq!(client.ping(b"hello?").unwrap(), b"hello?");
    client.put(&key(1), b"one").unwrap();
    assert_eq!(client.get(&key(1)).unwrap().as_deref(), Some(&b"one"[..]));
    assert_eq!(client.get(b"wire/absent").unwrap(), None);
}

/// The acceptance property: for every key, the proof bytes served over
/// the socket are identical to the in-process ones, and a verifier fed
/// the remote decode accepts exactly when the in-process verifier does.
#[test]
fn remote_verified_reads_match_in_process_proof_for_proof() {
    let server = serve_in_memory(3);
    let db = Arc::clone(server.db());
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");

    let mut rng = SeededRng::new(0x11BE55);
    let mut keys = Vec::new();
    for i in 0..40 {
        let k = key(rng.below(100_000));
        let len = 1 + rng.below(64) as usize;
        let v = rng.bytes(len);
        client.put(&k, &v).unwrap();
        if i % 3 == 0 {
            keys.push((k, v));
        }
    }
    keys.push((b"wire/never-written".to_vec(), Vec::new()));

    let mut local = Verifier::new();
    assert!(local.observe_sharded(&db.digest()));
    let mut remote = Verifier::new();
    assert!(remote.observe_sharded(&client.digest().unwrap()));

    for (k, _) in &keys {
        let (local_value, local_proof) = db.get_verified(k).expect("in-process read");
        let (remote_value, remote_proof) = client.get_verified(k).expect("served read");
        assert_eq!(remote_value, local_value, "value mismatch for {k:?}");
        assert_eq!(
            remote_proof.encode(),
            local_proof.encode(),
            "served proof bytes differ from in-process for {k:?}"
        );
        assert!(local.verify_sharded_read(k, local_value.as_deref(), &local_proof));
        assert!(remote.verify_sharded_read(k, remote_value.as_deref(), &remote_proof));
        // Cross-feed: the remote decode satisfies the in-process pin too.
        assert!(local.verify_sharded_read(k, remote_value.as_deref(), &remote_proof));
    }

    let (local_entries, local_range) = db.range_verified(b"wire/", b"wire/~").unwrap();
    let (remote_entries, remote_range) = client.range_verified(b"wire/", b"wire/~").unwrap();
    assert_eq!(remote_entries, local_entries);
    assert_eq!(remote_range.encode(), local_range.encode());
    assert!(local.verify_sharded_range(&local_entries, &local_range));
    assert!(remote.verify_sharded_range(&remote_entries, &remote_range));
}

/// Batched acceptance property: the `BatchVerifiedGet` frame ships the
/// same `ShardedMultiProof` bytes the in-process engine produces, and the
/// remote decode satisfies the in-process pin.
#[test]
fn remote_batched_reads_match_in_process_proof_for_proof() {
    let server = serve_in_memory(3);
    let db = Arc::clone(server.db());
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");

    for i in 0..60 {
        client
            .put(&key(i), format!("batch-v{i}").as_bytes())
            .unwrap();
    }
    // Adjacent keys (shared upper tree) plus absences, spanning shards.
    let mut keys: Vec<Vec<u8>> = (10..26).map(key).collect();
    keys.push(b"wire/never-written".to_vec());
    keys.push(key(59));

    let mut local = Verifier::new();
    assert!(local.observe_sharded(&db.digest()));

    // Twice: a repeated batch at the same cut must reproduce the same
    // bytes as the in-process proof.
    for round in 0..2 {
        let (local_values, local_proof) = db.get_multi_verified(&keys).expect("in-process batch");
        let (remote_values, remote_proof) = client.get_verified_batch(&keys).expect("served batch");
        assert_eq!(
            remote_values, local_values,
            "value mismatch in round {round}"
        );
        assert_eq!(
            remote_proof.encode(),
            local_proof.encode(),
            "served batch proof bytes differ from in-process in round {round}"
        );
        let items: Vec<(Vec<u8>, Option<Vec<u8>>)> = keys
            .iter()
            .cloned()
            .zip(remote_values.iter().cloned())
            .collect();
        assert!(local.verify_sharded_multi(&items, &remote_proof));
    }

    // The next epoch advance moves served proofs to the new root.
    client.put(&key(1000), b"advance the epoch").unwrap();
    let (_, moved_proof) = client.get_verified_batch(&keys).expect("post-write batch");
    assert_ne!(moved_proof.root, local.pinned_sharded_root().unwrap());

    // A light client verifies the batch end-to-end with the strict rule.
    let mut light = LightClient::connect(server.local_addr()).expect("connect light");
    let values = light.get_batch(&keys).expect("verified batch");
    assert_eq!(values[0], Some(b"batch-v10".to_vec()));
    assert_eq!(values[16], None);
}

/// One verified-read path: at a quiesced cut, the one-shot `ShardedDb`
/// reads, a pinned `ShardedSnapshot` and the served `SpitzClient` must
/// return byte-identical proofs — for present keys, absent keys, a 16-key
/// batch and a cross-shard range, under every SIRI kind and shard count —
/// and all of them must verify against one `Verifier` pin.
#[test]
fn live_snapshot_and_served_reads_are_byte_identical() {
    use spitz::core::db::SpitzConfig;
    use spitz::index::SiriKind;

    for siri in [
        SiriKind::PosTree,
        SiriKind::MerklePatriciaTrie,
        SiriKind::MerkleBucketTree,
    ] {
        for shards in [1, 3, 4] {
            let case = format!("{} x {shards} shards", siri.name());
            let spitz = SpitzConfig {
                siri,
                ..SpitzConfig::default()
            };
            let config = ShardedConfig::default()
                .with_shards(shards)
                .with_spitz(spitz);
            let db = Arc::new(ShardedDb::with_config(config));
            db.put_batch((0..48).map(|i| (key(i), vec![i as u8; 9])).collect())
                .unwrap();
            for i in 48..60 {
                db.put(&key(i), format!("single-{i}").as_bytes()).unwrap();
            }
            let server = SpitzServer::start(Arc::clone(&db), ServerConfig::default()).unwrap();
            let mut client = SpitzClient::connect(server.local_addr()).expect("connect");
            let snapshot = db.snapshot().unwrap();
            let mut pin = Verifier::new();
            assert!(pin.observe_sharded(&db.digest()), "{case}");

            for k in [
                key(0),
                key(17),
                key(59),
                b"wire/absent".to_vec(),
                Vec::new(),
            ] {
                let (value, live) = db.get_verified(&k).unwrap();
                let (pinned_value, pinned) = snapshot.get_verified(&k);
                let (served_value, served) = client.get_verified(&k).unwrap();
                assert_eq!(pinned_value, value, "{case} {k:?}");
                assert_eq!(served_value, value, "{case} {k:?}");
                assert_eq!(pinned.encode(), live.encode(), "{case} {k:?}");
                assert_eq!(served.encode(), live.encode(), "{case} {k:?}");
                assert!(
                    pin.verify_sharded_read(&k, value.as_deref(), &served),
                    "{case} {k:?}"
                );
            }

            let mut batch: Vec<Vec<u8>> = (20..34).map(key).collect();
            batch.push(b"wire/absent".to_vec());
            batch.push(key(20));
            assert_eq!(batch.len(), 16);
            let (values, live) = db.get_multi_verified(&batch).unwrap();
            let (pinned_values, pinned) = snapshot.get_multi_verified(&batch);
            let (served_values, served) = client.get_verified_batch(&batch).unwrap();
            assert_eq!(pinned_values, values, "{case}");
            assert_eq!(served_values, values, "{case}");
            assert_eq!(pinned.encode(), live.encode(), "{case}");
            assert_eq!(served.encode(), live.encode(), "{case}");
            let items: Vec<_> = batch.iter().cloned().zip(values).collect();
            assert!(pin.verify_sharded_multi(&items, &served), "{case}");

            let (start, end) = (key(5), key(45));
            let (entries, live) = db.range_verified(&start, &end).unwrap();
            let (pinned_entries, pinned) = snapshot.range_verified(&start, &end).unwrap();
            let (served_entries, served) = client.range_verified(&start, &end).unwrap();
            assert_eq!(entries.len(), 40, "{case}");
            assert_eq!(pinned_entries, entries, "{case}");
            assert_eq!(served_entries, entries, "{case}");
            assert_eq!(pinned.encode(), live.encode(), "{case}");
            assert_eq!(served.encode(), live.encode(), "{case}");
            assert!(pin.verify_sharded_range(&entries, &served), "{case}");
        }
    }
}

#[test]
fn light_client_end_to_end_with_cross_shard_batches() {
    let server = serve_in_memory(4);
    let mut client = LightClient::connect(server.local_addr()).expect("connect");

    for i in 0..20 {
        client.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }
    client.pin().expect("pin after writes");
    for i in 0..20 {
        assert_eq!(
            client.get(&key(i)).unwrap(),
            Some(format!("v{i}").into_bytes())
        );
    }
    assert_eq!(client.get(b"wire/absent").unwrap(), None);

    // A cross-shard batch lands atomically and advances the pin.
    let writes: Vec<(Vec<u8>, Vec<u8>)> = (100..108)
        .map(|i| (key(i), format!("batch{i}").into_bytes()))
        .collect();
    client.put_batch(&writes).expect("cross-shard batch");
    for (k, v) in &writes {
        assert_eq!(client.get(k).unwrap().as_deref(), Some(v.as_slice()));
    }

    // The verified range proves completeness over everything written.
    let entries = client.range(b"wire/", b"wire/~").expect("verified range");
    assert_eq!(entries.len(), 28);
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
}

/// A tampered value must be refused by the light-client acceptance rule
/// even though the transport delivered it intact.
#[test]
fn tampered_value_is_refused() {
    let server = serve_in_memory(3);
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");
    client.put(&key(7), b"honest").unwrap();

    let mut verifier = Verifier::new();
    assert!(verifier.observe_sharded(&client.digest().unwrap()));
    let (value, proof) = client.get_verified(&key(7)).unwrap();
    assert!(verifier.verify_sharded_read(&key(7), value.as_deref(), &proof));
    assert!(!verifier.verify_sharded_read(&key(7), Some(b"forged"), &proof));
    assert!(!verifier.verify_sharded_read(&key(8), value.as_deref(), &proof));
}

/// Pipelined requests on one socket complete out of order: a parked
/// digest subscription must not block a ping issued after it, and fires
/// once a later write matures the epoch.
#[test]
fn pipelined_requests_complete_out_of_order() {
    let server = serve_in_memory(2);
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");
    client.put(&key(1), b"seed").unwrap();
    let epoch = client.digest().unwrap().epoch;

    // Subscribe to an epoch that does not exist yet, then ping behind it.
    let mut min_epoch = Vec::new();
    spitz::index::codec::put_u64(&mut min_epoch, epoch + 1);
    let sub_id = client
        .send_request(op::SUBSCRIBE_DIGEST, &min_epoch)
        .unwrap();
    let ping_id = client.send_request(op::PING, b"behind the sub").unwrap();

    // The ping answers first even though it was sent second.
    let (opcode, pong) = client.wait_response(ping_id).unwrap();
    assert_eq!(opcode, op::PING | RESPONSE_BIT);
    assert_eq!(pong, b"behind the sub");

    // A write matures the epoch; the parked subscription now completes.
    client.put(&key(2), b"advance").unwrap();
    let (opcode, payload) = client.wait_response(sub_id).unwrap();
    assert_eq!(opcode, op::SUBSCRIBE_DIGEST | RESPONSE_BIT);
    let digest = spitz::ShardedDigest::decode(&payload).expect("digest payload");
    assert!(digest.epoch > epoch);
    assert!(digest.verify());
}

/// Per-request errors are scoped to their id: an unknown opcode or a
/// garbage payload answers a typed error and the connection keeps
/// serving.
#[test]
fn per_request_errors_keep_the_connection_alive() {
    let server = serve_in_memory(2);
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");

    let id = client.send_request(0x55, b"?").unwrap();
    match client.wait_response(id) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownOpcode),
        other => panic!("want UnknownOpcode, got {other:?}"),
    }

    // PUT wants a length-prefixed key; a bare byte cannot decode.
    let id = client.send_request(op::PUT, b"x").unwrap();
    match client.wait_response(id) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadPayload),
        other => panic!("want BadPayload, got {other:?}"),
    }

    assert_eq!(client.ping(b"still here").unwrap(), b"still here");
}

/// A full request queue answers a typed `Busy` immediately — every
/// pipelined request gets exactly one response, none hang.
#[test]
fn saturated_queue_answers_typed_busy() {
    let db = Arc::new(ShardedDb::in_memory(3));
    for i in 0..800 {
        db.put(&key(i), &[0x5A; 64]).unwrap();
    }
    let server = SpitzServer::start(db, ServerConfig::default()).expect("start server");
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");

    // Range proofs over 800 keys are slow enough that the 32-deep queue
    // and its two workers cannot absorb 200 pipelined requests.
    const SENT: usize = 200;
    let mut range_payload = Vec::new();
    spitz::index::codec::put_bytes(&mut range_payload, b"wire/");
    range_payload.extend_from_slice(b"wire/~");
    let ids: Vec<u64> = (0..SENT)
        .map(|_| {
            client
                .send_request(op::RANGE_VERIFIED, &range_payload)
                .unwrap()
        })
        .collect();

    let mut served = 0;
    let mut busy = 0;
    for id in ids {
        match client.wait_response(id) {
            Ok((opcode, _)) => {
                assert_eq!(opcode, op::RANGE_VERIFIED | RESPONSE_BIT);
                served += 1;
            }
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Busy, "only Busy is acceptable here");
                busy += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert_eq!(served + busy, SENT, "every request must be answered");
    assert!(served >= 1, "the server must still make progress");
    assert!(busy >= 1, "a full queue must shed load as typed Busy");
}

/// Admin and observability endpoints over the wire, against a durable
/// deployment.
#[test]
fn admin_endpoints_serve_health_scrub_compact_telemetry() {
    let dir = TempDir::new("server-admin");
    let config = ShardedConfig::default()
        .with_shards(2)
        .with_durable(DurableConfig {
            segment_target_bytes: 4 * 1024,
            ..DurableConfig::default()
        });
    let db = Arc::new(ShardedDb::open(dir.path(), config).expect("open durable"));
    let server = SpitzServer::start(db, ServerConfig::default()).expect("start server");
    let mut client = SpitzClient::connect(server.local_addr()).expect("connect");

    // Churn to give scrub and compaction something to chew on.
    for round in 0..4 {
        for i in 0..60 {
            client
                .put(&key(i), format!("round{round}-{i}").as_bytes())
                .unwrap();
        }
    }

    let HealthReport { overall, shards } = client.health().unwrap();
    assert_eq!(overall, HealthState::Healthy);
    assert_eq!(shards.len(), 2);
    for (state, reason) in &shards {
        assert_eq!(*state, HealthState::Healthy);
        assert!(reason.is_empty());
    }

    let scrub = client.scrub().unwrap();
    assert!(scrub.segments_scanned > 0, "sealed segments must be walked");
    assert_eq!(scrub.quarantined_segments, 0);
    assert_eq!(scrub.chunks_lost, 0);

    let compact = client.compact().unwrap();
    assert!(
        compact.chunks_dropped > 0 || compact.victim_segments == 0,
        "compaction reports must be internally consistent"
    );

    let json = client.telemetry_json().unwrap();
    assert!(json.trim_start().starts_with('{'));
    // Quoted, so the `server.connections` gauge is not satisfied by the
    // `server.connections_total` counter.
    for instrument in [
        "server.requests",
        "server.connections",
        "server.connections_total",
        "server.bytes_written",
    ] {
        assert!(
            json.contains(&format!("\"{instrument}\":")),
            "telemetry missing {instrument}"
        );
    }
}

/// Concurrent writers on separate connections: every client's pin only
/// ever moves forward (epoch-monotone consistent cuts over the wire),
/// and every verified read checks out against it.
#[test]
fn concurrent_clients_observe_monotone_consistent_cuts() {
    let server = serve_in_memory(3);
    let addr = server.local_addr();
    let workers: Vec<std::thread::JoinHandle<()>> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = LightClient::connect(addr).expect("connect");
                for i in 0..25 {
                    let k = format!("cut/{w}/{i:03}").into_bytes();
                    client.put(&k, b"x").expect("put");
                    // pin() refuses rewinds; racing writers must never
                    // produce one.
                    client.pin().expect("epoch-monotone pin");
                    // Under concurrent writers a point proof can anchor at
                    // a cut newer than the pin — the strict rule refuses
                    // it, exactly like the in-process verifier. The range
                    // proof is self-anchoring: it proves its own cut and
                    // advances the pin, which again must only move
                    // forward.
                    let mut end = k.clone();
                    end.push(0);
                    let entries = client.range(&k, &end).expect("verified range read");
                    assert_eq!(entries, vec![(k, b"x".to_vec())]);
                }
            })
        })
        .collect();
    for handle in workers {
        handle.join().expect("client thread");
    }
}

/// Shutdown is a drain: parked subscriptions fail with `ShuttingDown`
/// instead of hanging, and the port stops accepting.
#[test]
fn graceful_shutdown_fails_parked_subscriptions() {
    let mut server = serve_in_memory(2);
    let addr = server.local_addr();
    let mut client = SpitzClient::connect(addr).expect("connect");
    client.put(&key(1), b"seed").unwrap();
    let epoch = client.digest().unwrap().epoch;

    let mut min_epoch = Vec::new();
    spitz::index::codec::put_u64(&mut min_epoch, epoch + 1_000);
    let sub_id = client
        .send_request(op::SUBSCRIBE_DIGEST, &min_epoch)
        .unwrap();
    // Give the worker a beat to park the subscription server-side.
    std::thread::sleep(Duration::from_millis(50));

    server.shutdown();
    match client.wait_response(sub_id) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("parked subscription must fail typed, got {other:?}"),
    }
    assert!(
        SpitzClient::connect(addr).is_err(),
        "the drained server must stop accepting"
    );
}

/// Responses carry the version byte and frame caps the protocol module
/// promises (spot checks of constants the README documents).
#[test]
fn protocol_constants_hold() {
    assert_eq!(protocol::PROTOCOL_VERSION, 3);
    assert_eq!(protocol::MIN_BODY_LEN, 10);
    assert_eq!(protocol::MAX_FRAME_LEN, 4 * 1024 * 1024);
    assert!(ErrorCode::BadFrame.is_fatal());
    assert!(ErrorCode::TooLarge.is_fatal());
    assert!(ErrorCode::UnsupportedVersion.is_fatal());
    assert!(!ErrorCode::ReadOnly.is_fatal());
    assert!(!ErrorCode::ShuttingDown.is_fatal());
}
