//! The layer replay of a traced run: after the timed phases, call each
//! lower crate's public API directly on inputs of the workload's shape
//! (its keys, its 128-byte values, its cache budget, its batch sizes) and
//! time every call from outside. One client, no contention: these are the
//! per-call floors the end-to-end numbers are built from.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::adapter::{
    self, ChunkStoreFixture, Client, IndexFixture, LedgerFixture, MerkleFixture, PointProof,
    Remote, Store, TxnFixture,
};
use crate::gen::{derive_seed, Dataset, Rng, BATCH_WRITES, MULTI_KEYS};
use crate::stats::median;
use crate::workloads::range_end;

/// `(metric name, value)` pairs; the caller attaches units.
pub type Measured = Vec<(&'static str, f64)>;

/// Scan length of every `range500` metric.
const RANGE_500: u32 = 500;

/// Nanoseconds of each of `n` calls of `f`.
fn time_each(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let began = Instant::now();
            f(i);
            began.elapsed().as_nanos() as f64
        })
        .collect()
}

fn median_us(nanos: &[f64]) -> f64 {
    median(nanos) / 1_000.0
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Keys the replays draw from: the workload's own, hot ones first.
struct Shape<'a> {
    data: &'a Dataset,
    rng: Rng,
    /// Loaded keys the lower-layer fixtures are built over.
    keys: usize,
}

impl Shape<'_> {
    fn hot(&mut self) -> u32 {
        self.data.hot_key(&mut self.rng) % self.keys as u32
    }

    fn hot_distinct(&mut self, count: usize) -> Vec<u32> {
        let mut keys = Vec::with_capacity(count);
        while keys.len() < count {
            let key = self.hot();
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    fn entry(&self, key: u32, version: u32) -> (Vec<u8>, Vec<u8>) {
        (
            self.data.keys[key as usize].clone(),
            self.data.value(u64::from(key), version),
        )
    }

    /// `count` batched reads' worth of distinct hot keys, as key bytes.
    fn hot_batches(&mut self, count: usize) -> Vec<Vec<Vec<u8>>> {
        (0..count)
            .map(|_| {
                self.hot_distinct(MULTI_KEYS)
                    .into_iter()
                    .map(|k| self.data.keys[k as usize].clone())
                    .collect()
            })
            .collect()
    }

    /// A hot key's entry at `version`.
    fn hot_entry(&mut self, version: u32) -> (Vec<u8>, Vec<u8>) {
        let key = self.hot();
        self.entry(key, version)
    }

    fn range_start(&mut self, len: u32) -> u32 {
        self.hot().min(self.keys as u32 - len)
    }
}

pub fn crypto() -> Measured {
    let short = [0x5au8; 64];
    let hash_64 = time_each(60, |_| {
        for _ in 0..1_000 {
            black_box(adapter::crypto_sha256(black_box(&short)));
        }
    });
    let page = vec![0xa5u8; 4096];
    let hash_4k = time_each(40, |_| {
        for _ in 0..100 {
            black_box(adapter::crypto_sha256(black_box(&page)));
        }
    });
    // Leaves the size of an encoded shard digest, a journal's worth of them.
    let merkle = MerkleFixture::new((0..1024u32).map(|i| [i as u8; 97].to_vec()).collect());
    let audit = time_each(40, |round| {
        for leaf in 0..256 {
            assert!(black_box(merkle.verify((round * 256 + leaf) % 1024)));
        }
    });
    vec![
        ("crypto.sha256_64b_ns", median(&hash_64) / 1_000.0),
        // bytes per nanosecond * 1000 = MB/s
        (
            "crypto.sha256_4k_mb_s",
            4096.0 * 100.0 / median(&hash_4k) * 1_000.0,
        ),
        ("crypto.merkle_audit_verify_ns", median(&audit) / 256.0),
    ]
}

pub fn storage(data: &Dataset, dir: &Path, cache_bytes: usize) -> Result<Measured, String> {
    let _ = std::fs::remove_dir_all(dir);
    let chunks = data.loaded().min(4_000);
    let payload = |i: usize| -> Vec<u8> {
        let mut bytes = data.keys[i].clone();
        bytes.extend_from_slice(&data.value(i as u64, 0));
        bytes
    };
    let store = ChunkStoreFixture::open(dir, cache_bytes)?;
    let mut addresses = Vec::with_capacity(chunks);
    let mut put_ns = Vec::with_capacity(chunks);
    let mut sync_ns = Vec::new();
    for i in 0..chunks {
        let bytes = payload(i);
        let began = Instant::now();
        addresses.push(store.put(&bytes)?);
        put_ns.push(began.elapsed().as_nanos() as f64);
        if i % 64 == 63 {
            let began = Instant::now();
            store.sync()?;
            sync_ns.push(began.elapsed().as_nanos() as f64);
        }
    }
    store.sync()?;
    drop(store);

    // Reopened, every first read misses the cache and goes to the segment
    // file; the second read of a small recent set hits (when the workload's
    // cache budget admits anything at all).
    let store = ChunkStoreFixture::open(dir, cache_bytes)?;
    let mut failed = None;
    let miss_ns = time_each(chunks, |i| {
        if let Err(e) = store.get(&addresses[i]) {
            failed = Some(e);
        }
    });
    let recent = &addresses[chunks - chunks.min(256)..];
    for address in recent {
        store.get(address)?;
    }
    let hit_ns = time_each(recent.len() * 4, |i| {
        if let Err(e) = store.get(&recent[i % recent.len()]) {
            failed = Some(e);
        }
    });
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(vec![
        ("storage.put_us", median_us(&put_ns)),
        ("storage.sync_us", median_us(&sync_ns)),
        ("storage.get_miss_us", median_us(&miss_ns)),
        ("storage.get_hit_us", median_us(&hit_ns)),
    ])
}

pub fn index(data: &Dataset, seed: u64) -> Result<Measured, String> {
    let keys = data.loaded().min(10_000);
    let mut shape = Shape {
        data,
        rng: Rng::new(derive_seed(seed, "replay/index")),
        keys,
    };
    let mut index = IndexFixture::new();
    let mut insert_ns = Vec::with_capacity(keys);
    for key in 0..keys as u32 {
        let (k, v) = shape.entry(key, 0);
        let began = Instant::now();
        index.insert(k, v)?;
        insert_ns.push(began.elapsed().as_nanos() as f64);
    }

    let hot: Vec<u32> = (0..1_000).map(|_| shape.hot()).collect();
    let get_ns = time_each(hot.len(), |i| {
        black_box(index.get(&data.keys[hot[i] as usize]));
    });
    let mut proofs = Vec::with_capacity(hot.len());
    let prove_ns = time_each(hot.len(), |i| {
        proofs.push(index.prove(&data.keys[hot[i] as usize]));
    });
    let mut accepted = true;
    let verify_ns = time_each(hot.len(), |i| {
        let (value, proof) = &proofs[i];
        accepted &= index.verify(&data.keys[hot[i] as usize], value.as_deref(), proof);
    });
    let proof_bytes: Vec<f64> = proofs.iter().map(|(_, p)| p.wire_len() as f64).collect();
    let proof_nodes: Vec<f64> = proofs.iter().map(|(_, p)| p.nodes() as f64).collect();

    let batches = shape.hot_batches(100);
    let mut multi_bytes = Vec::new();
    let multi_ns = time_each(batches.len(), |i| {
        let (values, proof) = index.prove_multi(&batches[i]);
        multi_bytes.push(proof.wire_len() as f64 / MULTI_KEYS as f64);
        let items: Vec<_> = batches[i].iter().cloned().zip(values).collect();
        accepted &= index.verify_multi(&items, &proof);
    });

    let len = RANGE_500.min(keys as u32);
    let starts: Vec<u32> = (0..60).map(|_| shape.range_start(len)).collect();
    let mut ranges = Vec::with_capacity(starts.len());
    let range_prove_ns = time_each(starts.len(), |i| {
        let start = &data.keys[starts[i] as usize];
        let end = range_end(data, starts[i], len);
        let (entries, proof) = index.prove_range(start, &end);
        ranges.push((end, entries, proof));
    });
    let range_verify_ns = time_each(starts.len(), |i| {
        let (end, entries, proof) = &ranges[i];
        accepted &= entries.len() == len as usize
            && index.verify_range(&data.keys[starts[i] as usize], end, entries, proof);
    });
    let range_bytes: Vec<f64> = ranges
        .iter()
        .map(|(_, entries, proof)| proof.wire_len() as f64 / entries.len().max(1) as f64)
        .collect();
    if !accepted {
        return Err("index replay: an honest proof was refused".to_string());
    }
    Ok(vec![
        ("index.insert_us", median_us(&insert_ns)),
        ("index.get_us", median_us(&get_ns)),
        ("index.prove_us", median_us(&prove_ns)),
        ("index.verify_us", median_us(&verify_ns)),
        ("index.proof_bytes", mean(&proof_bytes)),
        ("index.nodes_per_proof", mean(&proof_nodes)),
        // One sample covers prove + verify of a batch; prove dominates and
        // the pair is what a batched read costs the index.
        ("index.multi16_prove_us", median_us(&multi_ns)),
        ("index.multi16_proof_bytes_per_key", mean(&multi_bytes)),
        ("index.range500_prove_us", median_us(&range_prove_ns)),
        ("index.range500_verify_us", median_us(&range_verify_ns)),
        ("index.range500_proof_bytes_per_entry", mean(&range_bytes)),
    ])
}

pub fn ledger(data: &Dataset, seed: u64, dir: &Path) -> Result<Measured, String> {
    let _ = std::fs::remove_dir_all(dir);
    let keys = data.loaded().min(4_000);
    let mut shape = Shape {
        data,
        rng: Rng::new(derive_seed(seed, "replay/ledger")),
        keys,
    };
    let ledger = LedgerFixture::open(dir)?;
    for first in (0..keys as u32).step_by(250) {
        let last = (first + 250).min(keys as u32);
        ledger.append_block((first..last).map(|k| shape.entry(k, 0)).collect())?;
    }
    let mut failed: Option<String> = None;
    let mut note = |result: Result<(), String>| {
        if let Err(e) = result {
            failed.get_or_insert(e);
        }
    };
    let mut version = 0u32;
    let block1_ns = time_each(200, |_| {
        version += 1;
        let writes = vec![shape.hot_entry(version)];
        note(ledger.append_block(writes));
    });
    let block32_ns = time_each(40, |_| {
        version += 1;
        let writes = shape
            .hot_distinct(BATCH_WRITES)
            .into_iter()
            .map(|k| shape.entry(k, version))
            .collect();
        note(ledger.append_block(writes));
    });
    let hot: Vec<u32> = (0..400).map(|_| shape.hot()).collect();
    let mut proof_bytes = Vec::with_capacity(hot.len());
    let mut accepted = true;
    let prove_ns = time_each(hot.len(), |i| {
        let key = &data.keys[hot[i] as usize];
        let (value, proof) = ledger.prove(key);
        proof_bytes.push(proof.wire_len() as f64);
        accepted &= ledger.verify(key, value.as_deref(), &proof);
    });
    let snapshot_ns = time_each(100, |_| {
        note(ledger.snapshot().map(|len| {
            black_box(len);
        }));
    });
    let mut flush_ns = Vec::new();
    let commit_ns = time_each(400, |i| {
        version += 1;
        let writes = vec![shape.hot_entry(version)];
        note(ledger.commit(writes));
        if i % 40 == 39 {
            let began = Instant::now();
            note(ledger.flush());
            flush_ns.push(began.elapsed().as_nanos() as f64);
        }
    });
    // The flushes ran inside the timed commits; take them back out.
    let commit_ns: Vec<f64> = commit_ns
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 40 != 39)
        .map(|(_, &ns)| ns)
        .collect();
    drop(ledger);
    let _ = std::fs::remove_dir_all(dir);
    if let Some(e) = failed {
        return Err(e);
    }
    if !accepted {
        return Err("ledger replay: an honest proof was refused".to_string());
    }
    Ok(vec![
        ("ledger.append_block1_us", median_us(&block1_ns)),
        ("ledger.append_block32_us", median_us(&block32_ns)),
        ("ledger.prove_us", median_us(&prove_ns)),
        ("ledger.snapshot_us", median_us(&snapshot_ns)),
        ("ledger.proof_bytes", mean(&proof_bytes)),
        ("pipeline.commit_us", median_us(&commit_ns)),
        ("pipeline.flush_us", median_us(&flush_ns)),
    ])
}

pub fn txn(data: &Dataset, seed: u64) -> Result<Measured, String> {
    let mut shape = Shape {
        data,
        rng: Rng::new(derive_seed(seed, "replay/txn")),
        keys: data.loaded(),
    };
    let fixture = TxnFixture::new();
    let mut failed: Option<String> = None;
    let commit_ns = time_each(2_000, |i| {
        let (key, value) = shape.hot_entry(i as u32);
        if let Err(e) = fixture.commit_one(&key, value) {
            failed.get_or_insert(e);
        }
    });
    let execute_ns = time_each(300, |i| {
        let writes = shape
            .hot_distinct(BATCH_WRITES)
            .into_iter()
            .map(|k| shape.entry(k, i as u32))
            .collect();
        if let Err(e) = fixture.execute(writes) {
            failed.get_or_insert(e);
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(vec![
        ("txn.commit1_us", median_us(&commit_ns)),
        ("twopc.execute32_us", median_us(&execute_ns)),
    ])
}

/// Every `core.*` call class, in process, against the workload's own
/// database after its checks are done (the writes here are outside the
/// model). Classes the workload ran under trace report their span medians
/// instead; the caller decides.
pub fn core(store: &Store, data: &Dataset, seed: u64) -> Result<Measured, String> {
    let mut shape = Shape {
        data,
        rng: Rng::new(derive_seed(seed, "replay/core")),
        keys: data.loaded(),
    };
    let mut failed: Option<String> = None;
    let mut note = |e: String| {
        failed.get_or_insert(e);
    };

    let put_ns = time_each(200, |i| {
        let key = format!("replay/{i:06}").into_bytes();
        if let Err(e) = store.put(&key, &data.value(i as u64, 0)) {
            note(e);
        }
    });
    let batch_ns = time_each(20, |i| {
        let writes = (0..BATCH_WRITES)
            .map(|j| {
                let id = (i * BATCH_WRITES + j) as u64;
                (
                    format!("replay/batch/{id:06}").into_bytes(),
                    data.value(id, 0),
                )
            })
            .collect();
        if let Err(e) = store.put_batch(writes) {
            note(e);
        }
    });

    let mut client = Client::new();
    let digest_ns = time_each(100, |_| {
        black_box(store.digest());
    });
    if !client.pin(&store.digest()) {
        return Err("core replay: digest refused".to_string());
    }
    let mut accepted = true;

    let hot: Vec<u32> = (0..400).map(|_| shape.hot()).collect();
    let get_ns = time_each(hot.len(), |i| {
        match store.get(&data.keys[hot[i] as usize]) {
            Ok(value) => {
                black_box(value);
            }
            Err(e) => note(e),
        }
    });
    let mut points = Vec::with_capacity(hot.len());
    let get_verified_ns = time_each(hot.len(), |i| {
        match store.get_verified(&data.keys[hot[i] as usize]) {
            Ok(answer) => points.push((hot[i], answer)),
            Err(e) => note(e),
        }
    });
    let verify_point_ns = time_each(points.len(), |i| {
        let (key, (value, proof)) = &points[i];
        accepted &= client.verify_point(&data.keys[*key as usize], value.as_deref(), proof);
    });
    let point_bytes: Vec<f64> = points
        .iter()
        .map(|(_, (_, p))| p.wire_len() as f64)
        .collect();

    let batches = shape.hot_batches(40);
    let mut multis = Vec::with_capacity(batches.len());
    let multi_ns = time_each(batches.len(), |i| {
        match store.get_multi_verified(&batches[i]) {
            Ok((values, proof)) => {
                let items: Vec<_> = batches[i].iter().cloned().zip(values).collect();
                multis.push((items, proof));
            }
            Err(e) => note(e),
        }
    });
    let verify_multi_ns = time_each(multis.len(), |i| {
        let (items, proof) = &multis[i];
        accepted &= client.verify_multi(items, proof);
    });
    let multi_bytes: Vec<f64> = multis
        .iter()
        .map(|(_, p)| p.wire_len() as f64 / MULTI_KEYS as f64)
        .collect();

    let len = RANGE_500.min(data.loaded() as u32);
    let starts: Vec<u32> = (0..30).map(|_| shape.range_start(len)).collect();
    let mut snapshots = Vec::with_capacity(starts.len());
    let snapshot_ns = time_each(starts.len(), |_| match store.snapshot() {
        Ok(snapshot) => snapshots.push(snapshot),
        Err(e) => note(e),
    });
    let mut ranges = Vec::with_capacity(starts.len());
    let range_ns = time_each(snapshots.len(), |i| {
        let start = &data.keys[starts[i] as usize];
        match snapshots[i].range_verified(start, &range_end(data, starts[i], len)) {
            Ok(answer) => ranges.push(answer),
            Err(e) => note(e),
        }
    });
    drop(snapshots);
    let verify_range_ns = time_each(ranges.len(), |i| {
        let (entries, proof) = &ranges[i];
        accepted &= entries.len() == len as usize && client.verify_range(entries, proof);
    });
    let range_bytes: Vec<f64> = ranges
        .iter()
        .map(|(entries, p)| p.wire_len() as f64 / entries.len().max(1) as f64)
        .collect();

    if let Some(e) = failed {
        return Err(e);
    }
    if !accepted {
        return Err("core replay: an honest proof was refused".to_string());
    }
    Ok(vec![
        ("core.put_us", median_us(&put_ns)),
        ("core.put_batch32_us", median_us(&batch_ns)),
        ("core.get_us", median_us(&get_ns)),
        ("core.get_verified_us", median_us(&get_verified_ns)),
        ("core.get_multi16_us", median_us(&multi_ns)),
        ("core.snapshot_us", median_us(&snapshot_ns)),
        ("core.range500_us", median_us(&range_ns)),
        ("core.digest_us", median_us(&digest_ns)),
        ("core.verify_point_us", median_us(&verify_point_ns)),
        ("core.verify_multi16_us", median_us(&verify_multi_ns)),
        ("core.verify_range500_us", median_us(&verify_range_ns)),
        ("core.point_proof_bytes", mean(&point_bytes)),
        ("core.multi16_proof_bytes_per_key", mean(&multi_bytes)),
        ("core.range500_proof_bytes_per_entry", mean(&range_bytes)),
    ])
}

/// Round trips of every frame type over one quiet connection, and the
/// client-side cost of decoding and verifying a point proof.
pub fn server(
    remote: &mut Remote,
    store: &Store,
    data: &Dataset,
    seed: u64,
) -> Result<Measured, String> {
    let mut shape = Shape {
        data,
        rng: Rng::new(derive_seed(seed, "replay/server")),
        keys: data.loaded(),
    };
    let mut failed: Option<String> = None;
    let mut note = |result: Result<(), crate::adapter::RemoteError>| {
        if let Err(e) = result {
            failed.get_or_insert(e.to_string());
        }
    };
    let hot: Vec<u32> = (0..400).map(|_| shape.hot()).collect();
    // The first frames on a fresh connection pay for waking its threads.
    for _ in 0..200 {
        note(remote.ping());
    }
    let ping_ns = time_each(400, |_| note(remote.ping()));
    let get_ns = time_each(hot.len(), |i| {
        note(remote.raw_get(&data.keys[hot[i] as usize]).map(|v| {
            black_box(v);
        }))
    });
    let get_verified_ns = time_each(hot.len(), |i| {
        note(
            remote
                .raw_get_verified(&data.keys[hot[i] as usize])
                .map(|n| {
                    black_box(n);
                }),
        )
    });
    let batches = shape.hot_batches(40);
    let batch_ns = time_each(batches.len(), |i| {
        note(remote.raw_get_batch(&batches[i]).map(|n| {
            black_box(n);
        }))
    });
    let len = 100.min(data.loaded() as u32);
    let starts: Vec<u32> = (0..40).map(|_| shape.range_start(len)).collect();
    let range_ns = time_each(starts.len(), |i| {
        let start = &data.keys[starts[i] as usize];
        note(
            remote
                .raw_range(start, &range_end(data, starts[i], len))
                .map(|n| {
                    black_box(n);
                }),
        )
    });
    let put_ns = time_each(100, |i| {
        let key = format!("replay/served/{i:06}").into_bytes();
        note(remote.put(&key, &data.value(i as u64, 0)))
    });
    let digest_ns = time_each(200, |_| note(remote.raw_digest()));

    let mut client = Client::new();
    if !client.pin(&store.digest()) {
        return Err("server replay: digest refused".to_string());
    }
    let mut wires = Vec::with_capacity(200);
    for &key in hot.iter().take(200) {
        let (value, proof) = store.get_verified(&data.keys[key as usize])?;
        wires.push((key, value, proof.to_wire()));
    }
    let mut accepted = true;
    let decode_verify_ns = time_each(wires.len(), |i| {
        let (key, value, wire) = &wires[i];
        accepted &= PointProof::from_wire(wire).is_some_and(|proof| {
            client.verify_point(&data.keys[*key as usize], value.as_deref(), &proof)
        });
    });
    if let Some(e) = failed {
        return Err(e);
    }
    if !accepted {
        return Err("server replay: an honest proof was refused".to_string());
    }
    Ok(vec![
        ("server.ping_rtt_us", median_us(&ping_ns)),
        ("server.get_rtt_us", median_us(&get_ns)),
        ("server.get_verified_rtt_us", median_us(&get_verified_ns)),
        ("server.batch16_rtt_us", median_us(&batch_ns)),
        ("server.range100_rtt_us", median_us(&range_ns)),
        ("server.put_rtt_us", median_us(&put_ns)),
        ("server.digest_rtt_us", median_us(&digest_ns)),
        ("client.decode_verify_us", median_us(&decode_verify_ns)),
    ])
}
