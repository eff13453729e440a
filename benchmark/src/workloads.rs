//! The four workloads: set-up, client loops, the oracle that judges every
//! answer against the benchmark's own model, and the after-run checks.
//!
//! All four are closed loops of [`CLIENT_THREADS`] clients; each client sends
//! its next operation only when the previous one has been answered and
//! checked.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{
    BatchProof, Client, Entries, PointProof, RangeProof, Remote, RemoteError, Served, Store,
};
use crate::gen::{self, Dataset, Op, OpStream, BATCH_WRITES, MULTI_KEYS, VALUE_LEN};
use crate::trace::{OpSpan, Tracer};
use crate::WorkloadKind;

/// Client threads (and, on `served_mixed`, connections). The sandbox has two
/// cores; more clients than cores would measure the scheduler.
pub const CLIENT_THREADS: usize = 2;

/// Re-pin attempts before a served read counts as failed. A refusal after a
/// re-pin means yet another write landed in between, which a closed loop of
/// two clients cannot keep up for long.
const MAX_REPINS: usize = 64;

/// Keys per verified scan in the after-run check of `ingest_durable`.
const CHECK_SCAN_KEYS: usize = 1_000;

// ---------------------------------------------------------------------------
// model map
// ---------------------------------------------------------------------------

/// The benchmark's own record of what the database must contain.
///
/// Every loaded key has one writer, which bumps `issued` before it sends a
/// write and `acked` once the write is acknowledged. A read of the key must
/// return a well-formed value whose version lies between the `acked` seen
/// before the read was sent and the `issued` seen after it returned; with
/// no write in flight the two are equal and the check is exact.
pub struct Model {
    acked: Vec<AtomicU32>,
    issued: Vec<AtomicU32>,
    /// Acknowledged appends per client thread.
    appended: Vec<AtomicU64>,
}

impl Model {
    pub fn new(loaded: usize) -> Model {
        Model {
            acked: (0..loaded).map(|_| AtomicU32::new(0)).collect(),
            issued: (0..loaded).map(|_| AtomicU32::new(0)).collect(),
            appended: (0..CLIENT_THREADS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn floor(&self, key: u32) -> u32 {
        self.acked[key as usize].load(Ordering::Acquire)
    }

    fn ceiling(&self, key: u32) -> u32 {
        self.issued[key as usize].load(Ordering::Acquire)
    }

    /// Reserve the next version of a key this thread owns.
    fn issue(&self, key: u32) -> u32 {
        let version = self.issued[key as usize].load(Ordering::Relaxed) + 1;
        self.issued[key as usize].store(version, Ordering::Release);
        version
    }

    fn ack(&self, key: u32, version: u32) {
        self.acked[key as usize].store(version, Ordering::Release);
    }
}

// ---------------------------------------------------------------------------
// answers and the oracle
// ---------------------------------------------------------------------------

/// What the program answered, before anyone has judged it. In-process
/// answers carry the proof; served answers were already verified (or
/// refused) by the light client, so they carry only the data.
// One answer exists per operation and is only ever passed by reference;
// boxing the proofs would put an allocation into every timed read.
#[allow(clippy::large_enum_variant)]
pub enum Answer {
    Point {
        /// Loaded key index, or `None` for a key that must be absent.
        key: Option<u32>,
        key_bytes: Vec<u8>,
        value: Option<Vec<u8>>,
        proof: Option<PointProof>,
    },
    Multi {
        keys: Vec<u32>,
        items: Vec<(Vec<u8>, Option<Vec<u8>>)>,
        proof: Option<BatchProof>,
    },
    Range {
        start: u32,
        len: u32,
        entries: Entries,
        proof: Option<RangeProof>,
    },
}

impl Answer {
    /// Bytes a verifying client downloads for this answer: values (and keys
    /// of scanned entries) plus the encoded proof.
    pub fn wire_bytes(&self) -> u64 {
        let len = match self {
            Answer::Point { value, proof, .. } => {
                value.as_ref().map_or(0, Vec::len) + proof.as_ref().map_or(0, PointProof::wire_len)
            }
            Answer::Multi { items, proof, .. } => {
                items
                    .iter()
                    .map(|(_, v)| v.as_ref().map_or(0, Vec::len))
                    .sum::<usize>()
                    + proof.as_ref().map_or(0, BatchProof::wire_len)
            }
            Answer::Range { entries, proof, .. } => {
                entries
                    .iter()
                    .map(|(k, v)| k.len() + v.len())
                    .sum::<usize>()
                    + proof.as_ref().map_or(0, RangeProof::wire_len)
            }
        };
        len as u64
    }
}

/// Versions the model allowed before a read was sent, one per key read.
pub struct Floors(Vec<u32>);

impl Floors {
    fn of(model: &Model, keys: impl Iterator<Item = u32>) -> Floors {
        Floors(keys.map(|k| model.floor(k)).collect())
    }
}

/// The oracle: does this answer verify, and does it agree with the model?
/// `client` is `None` for served answers (the light client verified them).
pub fn judge(
    answer: &Answer,
    floors: &Floors,
    client: Option<&mut Client>,
    model: &Model,
    data: &Dataset,
    span: &mut OpSpan,
) -> bool {
    let value_ok = |key: u32, value: Option<&[u8]>, floor: u32| -> bool {
        value
            .and_then(|v| data.version_of(u64::from(key), v))
            .is_some_and(|version| floor <= version && version <= model.ceiling(key))
    };
    match answer {
        Answer::Point {
            key,
            key_bytes,
            value,
            proof,
        } => {
            let verified = match (client, proof) {
                (Some(client), Some(proof)) => span.within("core.verify_point", || {
                    client.verify_point(key_bytes, value.as_deref(), proof)
                }),
                (None, None) => true,
                _ => false,
            };
            verified
                && match key {
                    Some(key) => value_ok(*key, value.as_deref(), floors.0[0]),
                    None => value.is_none(),
                }
        }
        Answer::Multi { keys, items, proof } => {
            let verified = match (client, proof) {
                (Some(client), Some(proof)) => {
                    span.within("core.verify_multi16", || client.verify_multi(items, proof))
                }
                (None, None) => true,
                _ => false,
            };
            verified
                && items.len() == keys.len()
                && keys
                    .iter()
                    .zip(items)
                    .zip(&floors.0)
                    .all(|((key, (_, value)), floor)| value_ok(*key, value.as_deref(), *floor))
        }
        Answer::Range {
            start,
            len,
            entries,
            proof,
        } => {
            let verified = match (client, proof) {
                (Some(client), Some(proof)) => span.within("core.verify_range500", || {
                    client.verify_range(entries, proof)
                }),
                (None, None) => true,
                _ => false,
            };
            // Completeness against the model: exactly the loaded keys of the
            // range, in order, each with an allowed value.
            verified
                && entries.len() == *len as usize
                && entries.iter().zip(*start..).zip(&floors.0).all(
                    |(((key, value), index), floor)| {
                        *key == data.keys[index as usize] && value_ok(index, Some(value), *floor)
                    },
                )
        }
    }
}

// ---------------------------------------------------------------------------
// executors
// ---------------------------------------------------------------------------

/// Operation classes, for per-class latency and byte reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Put,
    PutBatch,
    Get,
    GetAbsent,
    GetMulti,
    Range,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Put,
        Class::PutBatch,
        Class::Get,
        Class::GetAbsent,
        Class::GetMulti,
        Class::Range,
    ];

    fn of(op: Op) -> Class {
        match op {
            Op::Put(_) | Op::Append => Class::Put,
            Op::PutBatch(_) => Class::PutBatch,
            Op::Get(_) => Class::Get,
            Op::GetAbsent(_) => Class::GetAbsent,
            Op::GetMulti(_) => Class::GetMulti,
            Op::Range(_) => Class::Range,
        }
    }

    pub fn span_name(self) -> &'static str {
        match self {
            Class::Put => "op.put",
            Class::PutBatch => "op.put_batch",
            Class::Get => "op.get",
            Class::GetAbsent => "op.get_absent",
            Class::GetMulti => "op.get_multi",
            Class::Range => "op.range",
        }
    }
}

/// Result of one operation as the client loop records it.
pub struct Outcome {
    pub ok: bool,
    pub wire_bytes: u64,
}

/// How a client reaches the database.
pub enum Link<'a> {
    /// Direct calls plus the client's own verifier.
    InProcess { store: &'a Store, client: Client },
    /// A light-client connection to the served database.
    Served { remote: Remote },
}

/// One client: its link, its writer state and what it has tallied.
pub struct ClientState<'a> {
    pub thread: usize,
    pub link: Link<'a>,
    pub model: &'a Model,
    pub data: &'a Dataset,
    append_seq: u64,
    /// Key + value bytes of every acknowledged write.
    pub user_bytes: u64,
    pub reads: u64,
    pub repins: u64,
    pub queue_depth_max: i64,
    pub first_error: Option<String>,
    /// Next position in the timed stream.
    pub position: usize,
}

impl<'a> ClientState<'a> {
    pub fn new(
        thread: usize,
        link: Link<'a>,
        model: &'a Model,
        data: &'a Dataset,
    ) -> ClientState<'a> {
        ClientState {
            thread,
            link,
            model,
            data,
            append_seq: 0,
            user_bytes: 0,
            reads: 0,
            repins: 0,
            queue_depth_max: 0,
            first_error: None,
            position: 0,
        }
    }

    fn fail(&mut self, what: &str, error: impl std::fmt::Display) -> Outcome {
        if self.first_error.is_none() {
            self.first_error = Some(format!("{what}: {error}"));
        }
        Outcome {
            ok: false,
            wire_bytes: 0,
        }
    }

    /// The append `ahead` places after the last acknowledged one.
    fn append_entry(&self, ahead: u64) -> (Vec<u8>, Vec<u8>) {
        let seq = self.append_seq + ahead;
        (
            self.data.append_key(self.thread, seq),
            self.data.value(Dataset::append_id(self.thread, seq), 0),
        )
    }

    fn acked_append(&mut self, count: u64) {
        self.append_seq += count;
        self.model.appended[self.thread].store(self.append_seq, Ordering::Release);
    }

    /// Run one operation: call the program, then let the oracle judge.
    pub fn run(&mut self, op: Op, stream: &OpStream, span: &mut OpSpan) -> Outcome {
        match op {
            Op::Put(_) | Op::Append | Op::PutBatch(_) => self.write(op, stream, span),
            _ => self.read(op, stream, span),
        }
    }

    fn write(&mut self, op: Op, stream: &OpStream, span: &mut OpSpan) -> Outcome {
        // Build the writes first: the next version of every loaded key the op
        // updates, then the op's appends.
        let (update_keys, appends): (&[u32], u64) = match &op {
            Op::Put(key) => (std::slice::from_ref(key), 0),
            Op::Append => (&[], 1),
            Op::PutBatch(offset) => (
                stream.keys_at(*offset, BATCH_WRITES / 2),
                (BATCH_WRITES / 2) as u64,
            ),
            _ => unreachable!("write() is only called with write ops"),
        };
        let updates: Vec<(u32, u32)> = update_keys
            .iter()
            .map(|&key| (key, self.model.issue(key)))
            .collect();
        let writes: Entries = updates
            .iter()
            .map(|&(key, version)| {
                (
                    self.data.keys[key as usize].clone(),
                    self.data.value(u64::from(key), version),
                )
            })
            .chain((0..appends).map(|ahead| self.append_entry(ahead)))
            .collect();
        let user_bytes: u64 = writes.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
        let result = match &mut self.link {
            Link::InProcess { store, .. } => {
                let result = if writes.len() == 1 {
                    let (key, value) = &writes[0];
                    span.within("core.put", || store.put(key, value))
                } else {
                    span.within("core.put_batch32", || store.put_batch(writes))
                };
                self.queue_depth_max = self.queue_depth_max.max(store.queue_depth());
                result.map(|n| n as u64)
            }
            Link::Served { remote } => {
                let (key, value) = &writes[0];
                span.within("client.put", || remote.put(key, value))
                    .map(|()| 0)
                    .map_err(|e| e.to_string())
            }
        };
        match result {
            Ok(wire_bytes) => {
                for (key, version) in updates {
                    self.model.ack(key, version);
                }
                if appends > 0 {
                    self.acked_append(appends);
                }
                self.user_bytes += user_bytes;
                Outcome {
                    ok: true,
                    wire_bytes,
                }
            }
            Err(e) => self.fail("write", e),
        }
    }

    fn read(&mut self, op: Op, stream: &OpStream, span: &mut OpSpan) -> Outcome {
        self.reads += 1;
        let model = self.model;
        let data = self.data;
        let floors = match op {
            Op::Get(key) => Floors::of(model, std::iter::once(key)),
            Op::GetMulti(offset) => {
                Floors::of(model, stream.keys_at(offset, MULTI_KEYS).iter().copied())
            }
            Op::Range(start) => Floors::of(model, start..start + stream.range_len),
            _ => Floors(Vec::new()),
        };
        let answer = match &mut self.link {
            Link::InProcess { store, .. } => Self::ask_in_process(store, op, stream, data, span),
            Link::Served { remote } => {
                let mut attempts = 0;
                loop {
                    match Self::ask_served(remote, op, stream, data, span) {
                        Err(RemoteError::Refused(_)) if attempts < MAX_REPINS => {
                            attempts += 1;
                            self.repins += 1;
                            let pinned = span.within("client.pin", || remote.pin());
                            if let Err(e) = pinned {
                                break Err(e.to_string());
                            }
                        }
                        other => break other.map_err(|e| e.to_string()),
                    }
                }
            }
        };
        let answer = match answer {
            Ok(answer) => answer,
            Err(e) => return self.fail("read", e),
        };
        let client = match &mut self.link {
            Link::InProcess { client, .. } => Some(client),
            Link::Served { .. } => None,
        };
        if judge(&answer, &floors, client, model, data, span) {
            Outcome {
                ok: true,
                wire_bytes: answer.wire_bytes(),
            }
        } else {
            self.fail(
                "oracle",
                format!("{op:?} returned a wrong or unverifiable answer"),
            )
        }
    }

    pub fn ask_in_process(
        store: &Store,
        op: Op,
        stream: &OpStream,
        data: &Dataset,
        span: &mut OpSpan,
    ) -> Result<Answer, String> {
        match op {
            Op::Get(key) => {
                let key_bytes = data.keys[key as usize].clone();
                let (value, proof) =
                    span.within("core.get_verified", || store.get_verified(&key_bytes))?;
                Ok(Answer::Point {
                    key: Some(key),
                    key_bytes,
                    value,
                    proof: Some(proof),
                })
            }
            Op::GetAbsent(near) => {
                let key_bytes = data.absent_key(near);
                let (value, proof) =
                    span.within("core.get_verified", || store.get_verified(&key_bytes))?;
                Ok(Answer::Point {
                    key: None,
                    key_bytes,
                    value,
                    proof: Some(proof),
                })
            }
            Op::GetMulti(offset) => {
                let keys = stream.keys_at(offset, MULTI_KEYS).to_vec();
                let key_bytes: Vec<Vec<u8>> = keys
                    .iter()
                    .map(|&k| data.keys[k as usize].clone())
                    .collect();
                let (values, proof) =
                    span.within("core.get_multi16", || store.get_multi_verified(&key_bytes))?;
                Ok(Answer::Multi {
                    keys,
                    items: key_bytes.into_iter().zip(values).collect(),
                    proof: Some(proof),
                })
            }
            Op::Range(start) => {
                let len = stream.range_len;
                let snapshot = span.within("core.snapshot", || store.snapshot())?;
                let (entries, proof) = span.within("core.range500", || {
                    snapshot
                        .range_verified(&data.keys[start as usize], &range_end(data, start, len))
                })?;
                Ok(Answer::Range {
                    start,
                    len,
                    entries,
                    proof: Some(proof),
                })
            }
            _ => unreachable!("ask_in_process is only called with read ops"),
        }
    }

    fn ask_served(
        remote: &mut Remote,
        op: Op,
        stream: &OpStream,
        data: &Dataset,
        span: &mut OpSpan,
    ) -> Result<Answer, RemoteError> {
        match op {
            Op::Get(key) => {
                let key_bytes = data.keys[key as usize].clone();
                let value = span.within("client.get", || remote.get(&key_bytes))?;
                Ok(Answer::Point {
                    key: Some(key),
                    key_bytes,
                    value,
                    proof: None,
                })
            }
            Op::GetMulti(offset) => {
                let keys = stream.keys_at(offset, MULTI_KEYS).to_vec();
                let key_bytes: Vec<Vec<u8>> = keys
                    .iter()
                    .map(|&k| data.keys[k as usize].clone())
                    .collect();
                let values = span.within("client.get_batch16", || remote.get_batch(&key_bytes))?;
                Ok(Answer::Multi {
                    keys,
                    items: key_bytes.into_iter().zip(values).collect(),
                    proof: None,
                })
            }
            Op::Range(start) => {
                let len = stream.range_len;
                let entries = span.within("client.range100", || {
                    remote.range(&data.keys[start as usize], &range_end(data, start, len))
                })?;
                Ok(Answer::Range {
                    start,
                    len,
                    entries,
                    proof: None,
                })
            }
            _ => unreachable!("ask_served is only called with served read ops"),
        }
    }
}

/// Exclusive end key of the scan of `len` loaded keys from `start`.
pub fn range_end(data: &Dataset, start: u32, len: u32) -> Vec<u8> {
    match data.keys.get((start + len) as usize) {
        Some(key) => key.clone(),
        // Past the last loaded key: "user0" sorts after every "user/..." key.
        None => b"user0".to_vec(),
    }
}

// ---------------------------------------------------------------------------
// phases
// ---------------------------------------------------------------------------

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time since the phase started.
    pub end_ns: u64,
    pub latency_ns: u64,
    pub class: Class,
    pub ok: bool,
    pub wire_bytes: u64,
}

/// Run every client against its stream for `duration`; returns each
/// client's samples in completion order. Clients start together on a
/// barrier and stop at the first op boundary past the deadline.
pub fn run_phase(
    clients: &mut [ClientState<'_>],
    tracers: &mut [Tracer],
    streams: &[OpStream],
    duration: Duration,
    continue_position: bool,
) -> Vec<Vec<Sample>> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers)
            .zip(streams)
            .map(|((client, tracer), stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(1 << 17);
                    let mut position = if continue_position {
                        client.position
                    } else {
                        0
                    };
                    barrier.wait();
                    let start = Instant::now();
                    loop {
                        let began = Instant::now();
                        if began.duration_since(start) >= duration {
                            break;
                        }
                        let op = stream.ops[position % stream.ops.len()];
                        let class = Class::of(op);
                        let id = (client.thread as u64) << 40 | position as u64;
                        let mut span = tracer.op(class.span_name(), id);
                        let outcome = client.run(op, stream, &mut span);
                        span.finish();
                        let ended = Instant::now();
                        samples.push(Sample {
                            end_ns: ended.duration_since(start).as_nanos() as u64,
                            latency_ns: ended.duration_since(began).as_nanos() as u64,
                            class,
                            ok: outcome.ok,
                            wire_bytes: outcome.wire_bytes,
                        });
                        position += 1;
                    }
                    if continue_position {
                        client.position = position;
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------------
// set-up and after-run checks
// ---------------------------------------------------------------------------

/// A loaded database ready for a workload, and what it cost to make.
pub struct Fixture {
    pub store: Store,
    pub served: Option<Served>,
    pub dir: Option<PathBuf>,
    pub reopen_s: f64,
    pub cache_bytes_total: usize,
}

impl Fixture {
    /// Stop the server (joining its threads), close the store and delete
    /// its files.
    pub fn teardown(mut self) {
        if let Some(served) = &mut self.served {
            served.shutdown();
        }
        drop(self.served);
        drop(self.store);
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Keys per preload batch: large enough to amortise the 2PC round, small
/// enough that the load still seals many blocks like a real ingest would.
const PRELOAD_BATCH: usize = 250;

fn preload(store: &Store, data: &Dataset) -> Result<(), String> {
    for (batch, keys) in data.keys.chunks(PRELOAD_BATCH).enumerate() {
        let writes = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let id = (batch * PRELOAD_BATCH + i) as u64;
                (key.clone(), data.value(id, 0))
            })
            .collect();
        store.put_batch(writes)?;
    }
    store.flush()
}

/// Build the workload's database from nothing: create, load every key at
/// version 0, make it durable, and (read workloads) reopen it cold with the
/// workload's cache budget.
pub fn set_up(workload: WorkloadKind, data: &Dataset, dir: &Path) -> Result<Fixture, String> {
    let default_cache = crate::adapter::default_cache_bytes_per_shard();
    match workload {
        WorkloadKind::ServedMixed => {
            let store = Store::in_memory();
            preload(&store, data)?;
            let served = Served::start(&store)?;
            Ok(Fixture {
                store,
                served: Some(served),
                dir: None,
                reopen_s: 0.0,
                cache_bytes_total: 0,
            })
        }
        WorkloadKind::IngestDurable => {
            let _ = std::fs::remove_dir_all(dir);
            let store = Store::open_durable(dir, default_cache)?;
            preload(&store, data)?;
            Ok(Fixture {
                cache_bytes_total: default_cache * store.shard_count(),
                store,
                served: None,
                dir: Some(dir.to_path_buf()),
                reopen_s: 0.0,
            })
        }
        WorkloadKind::PointVerified | WorkloadKind::ScanVerified => {
            let _ = std::fs::remove_dir_all(dir);
            let store = Store::open_durable(dir, default_cache)?;
            preload(&store, data)?;
            drop(store);
            let cache = workload.cache_bytes_per_shard().unwrap_or(default_cache);
            let began = Instant::now();
            let store = Store::open_durable(dir, cache)?;
            Ok(Fixture {
                reopen_s: began.elapsed().as_secs_f64(),
                cache_bytes_total: cache * store.shard_count(),
                store,
                served: None,
                dir: Some(dir.to_path_buf()),
            })
        }
    }
}

/// After the timed phase of `ingest_durable`: flush, close, reopen, and read
/// every acknowledged key back through verified scans pinned to the reopened
/// digest. The scans prove completeness, so a lost key, a stale version or a
/// key that was never written all fail the check. Returns the reopened
/// fixture and the number of keys read back.
pub fn reopen_and_check(
    fixture: Fixture,
    model: &Model,
    data: &Dataset,
) -> Result<(Fixture, u64), String> {
    let dir = fixture.dir.clone().ok_or("ingest store has no directory")?;
    let cache = crate::adapter::default_cache_bytes_per_shard();
    fixture.store.flush()?;
    drop(fixture.store);
    let began = Instant::now();
    let store = Store::open_durable(&dir, cache)?;
    let reopen_s = began.elapsed().as_secs_f64();

    let mut client = Client::new();
    if !client.pin(&store.digest()) {
        return Err("reopened digest refused".to_string());
    }
    let snapshot = store.snapshot()?;
    let mut keys_checked = 0u64;
    let mut scan =
        |start: &[u8], end: &[u8], expect: &mut dyn Iterator<Item = (Vec<u8>, u64, u32)>| {
            let (entries, proof) = snapshot.range_verified(start, end)?;
            if !client.verify_range(&entries, &proof) {
                return Err(format!(
                    "range proof over {:?} refused after reopen",
                    String::from_utf8_lossy(start)
                ));
            }
            let mut entries = entries.into_iter();
            for (key, id, version) in expect {
                match entries.next() {
                    Some((k, v)) if k == key && data.version_of(id, &v) == Some(version) => {}
                    _ => {
                        return Err(format!(
                            "acknowledged key {:?} (version {version}) did not read back",
                            String::from_utf8_lossy(&key)
                        ))
                    }
                }
                keys_checked += 1;
            }
            if entries.next().is_some() {
                return Err("a key nobody wrote read back after reopen".to_string());
            }
            Ok(())
        };

    let loaded = data.loaded();
    for first in (0..loaded).step_by(CHECK_SCAN_KEYS) {
        let last = (first + CHECK_SCAN_KEYS).min(loaded);
        let end = range_end(data, last as u32, 0);
        scan(
            &data.keys[first],
            &end,
            &mut (first..last).map(|i| {
                (
                    data.keys[i].clone(),
                    i as u64,
                    model.acked[i].load(Ordering::Acquire),
                )
            }),
        )?;
    }
    for thread in 0..CLIENT_THREADS {
        let appended = model.appended[thread].load(Ordering::Acquire);
        for first in (0..appended).step_by(CHECK_SCAN_KEYS) {
            let last = (first + CHECK_SCAN_KEYS as u64).min(appended);
            scan(
                &data.append_key(thread, first),
                &data.append_key(thread, last),
                &mut (first..last).map(|seq| {
                    (
                        data.append_key(thread, seq),
                        Dataset::append_id(thread, seq),
                        0,
                    )
                }),
            )?;
        }
    }
    drop(snapshot);
    Ok((
        Fixture {
            cache_bytes_total: cache * store.shard_count(),
            store,
            served: None,
            dir: Some(dir),
            reopen_s,
        },
        keys_checked,
    ))
}

/// Bytes of one loaded entry as the user wrote it.
pub fn loaded_entry_bytes(data: &Dataset) -> u64 {
    (data.keys[0].len() + VALUE_LEN) as u64
}

/// Generate the warm-up and timed streams of every client.
pub fn streams_for(
    workload: WorkloadKind,
    data: &Dataset,
    seed: u64,
    phase: &str,
    cycles: usize,
) -> Vec<OpStream> {
    (0..CLIENT_THREADS)
        .map(|thread| gen::generate(workload, data, seed, phase, thread, CLIENT_THREADS, cycles))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small in-memory database loaded with `data`, a pinned client and
    /// an empty model: the harness the tamper tests poke at.
    fn harness(data: &Dataset) -> (Store, Model) {
        let store = Store::in_memory();
        preload(&store, data).unwrap();
        (store, Model::new(data.loaded()))
    }

    struct Tally {
        attempted: u64,
        failed: u64,
    }

    /// Judge an answer the way the client loop does and tally it.
    fn tally(
        tally: &mut Tally,
        answer: &Answer,
        floors: &Floors,
        store: &Store,
        model: &Model,
        data: &Dataset,
    ) {
        let mut client = Client::new();
        assert!(client.pin(&store.digest()));
        let mut tracer = Tracer::new(false, Instant::now());
        let mut span = tracer.op("op.test", 0);
        let ok = judge(answer, floors, Some(&mut client), model, data, &mut span);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
    }

    fn ask(store: &Store, op: Op, stream: &OpStream, data: &Dataset) -> Answer {
        let mut tracer = Tracer::new(false, Instant::now());
        let mut span = tracer.op("op.test", 0);
        ClientState::ask_in_process(store, op, stream, data, &mut span).unwrap()
    }

    fn stream(side: Vec<u32>, range_len: u32) -> OpStream {
        OpStream {
            ops: Vec::new(),
            side,
            range_len,
        }
    }

    #[test]
    fn honest_answers_pass_and_a_wrong_value_fails() {
        let data = Dataset::new(11, 400);
        let (store, model) = harness(&data);
        let s = stream((0..16).collect(), 50);
        let mut t = Tally {
            attempted: 0,
            failed: 0,
        };
        for op in [
            Op::Get(7),
            Op::GetAbsent(7),
            Op::GetMulti(0),
            Op::Range(100),
        ] {
            let floors = Floors(vec![0; 50]);
            tally(
                &mut t,
                &ask(&store, op, &s, &data),
                &floors,
                &store,
                &model,
                &data,
            );
        }
        assert_eq!((t.attempted, t.failed), (4, 0), "honest answers must pass");

        // The server lies about the value: the proof no longer matches.
        let mut answer = ask(&store, Op::Get(7), &s, &data);
        if let Answer::Point { value, .. } = &mut answer {
            *value = Some(data.value(7, 1));
        }
        tally(&mut t, &answer, &Floors(vec![0]), &store, &model, &data);
        assert_eq!((t.attempted, t.failed), (5, 1), "a wrong value must fail");

        // The value verifies but is older than what the model acknowledged.
        model.issue(7);
        model.ack(7, 1);
        let answer = ask(&store, Op::Get(7), &s, &data);
        tally(&mut t, &answer, &Floors(vec![1]), &store, &model, &data);
        assert_eq!((t.attempted, t.failed), (6, 2), "a stale value must fail");

        // A key that must be absent comes back with a value.
        let mut answer = ask(&store, Op::GetAbsent(9), &s, &data);
        if let Answer::Point { value, .. } = &mut answer {
            *value = Some(data.value(9, 0));
        }
        tally(&mut t, &answer, &Floors(Vec::new()), &store, &model, &data);
        assert_eq!(
            (t.attempted, t.failed),
            (7, 3),
            "a conjured value must fail"
        );
    }

    #[test]
    fn a_tampered_proof_fails() {
        let data = Dataset::new(12, 400);
        let (store, model) = harness(&data);
        let s = stream(Vec::new(), 50);
        let Answer::Point {
            key,
            key_bytes,
            value,
            proof: Some(proof),
        } = ask(&store, Op::Get(21), &s, &data)
        else {
            panic!("point read did not return a point answer");
        };
        let wire = proof.to_wire();
        let mut t = Tally {
            attempted: 0,
            failed: 0,
        };
        let mut decoded = 0;
        // Flip one bit in the bytes that carry hashed content: the index
        // nodes in the first half of the encoding, and the membership path
        // and cross-shard root in its last 96 bytes. Every flip must either
        // fail to decode or fail to verify. (The journal proof's block
        // index and journal size, between the two, are counters the
        // verifier does not bind to the root; a flip there is accepted and
        // proves the same statement, so the sweep leaves them out.)
        let hashed = (0..wire.len() / 2)
            .step_by(7)
            .chain(wire.len() - 96..wire.len());
        for position in hashed {
            let mut bent = wire.clone();
            bent[position] ^= 0x01;
            let Some(proof) = PointProof::from_wire(&bent) else {
                continue;
            };
            decoded += 1;
            let answer = Answer::Point {
                key,
                key_bytes: key_bytes.clone(),
                value: value.clone(),
                proof: Some(proof),
            };
            tally(&mut t, &answer, &Floors(vec![0]), &store, &model, &data);
        }
        assert!(
            decoded > 10,
            "too few tampered proofs decoded to mean anything"
        );
        assert_eq!(t.failed, t.attempted, "a tampered proof was accepted");

        // A valid proof for a different key is no better.
        let Answer::Point {
            proof: Some(other), ..
        } = ask(&store, Op::Get(22), &s, &data)
        else {
            panic!("point read did not return a point answer");
        };
        let answer = Answer::Point {
            key,
            key_bytes,
            value,
            proof: Some(other),
        };
        let before = t.failed;
        tally(&mut t, &answer, &Floors(vec![0]), &store, &model, &data);
        assert_eq!(t.failed, before + 1, "a proof for another key was accepted");
    }

    #[test]
    fn a_short_range_fails() {
        let data = Dataset::new(13, 400);
        let (store, model) = harness(&data);
        let s = stream(Vec::new(), 50);
        let floors = Floors(vec![0; 50]);
        let mut t = Tally {
            attempted: 0,
            failed: 0,
        };
        // Drop the last entry: the proof no longer covers the claim.
        let mut answer = ask(&store, Op::Range(200), &s, &data);
        if let Answer::Range { entries, .. } = &mut answer {
            entries.pop();
        }
        tally(&mut t, &answer, &floors, &store, &model, &data);
        assert_eq!((t.attempted, t.failed), (1, 1), "a short range must fail");

        // An honestly proven but narrower range still fails completeness
        // against the model: the benchmark asked for 50 keys.
        let narrow = stream(Vec::new(), 49);
        let mut answer = ask(&store, Op::Range(200), &narrow, &data);
        if let Answer::Range { len, .. } = &mut answer {
            *len = 50;
        }
        tally(&mut t, &answer, &floors, &store, &model, &data);
        assert_eq!(
            (t.attempted, t.failed),
            (2, 2),
            "an incomplete range must fail"
        );

        // A hole in the middle.
        let mut answer = ask(&store, Op::Range(200), &s, &data);
        if let Answer::Range { entries, .. } = &mut answer {
            entries.remove(10);
        }
        tally(&mut t, &answer, &floors, &store, &model, &data);
        assert_eq!(
            (t.attempted, t.failed),
            (3, 3),
            "a range with a hole must fail"
        );
    }

    #[test]
    fn the_client_loop_counts_failures_and_the_reopen_check_catches_loss() {
        let data = Dataset::new(14, 200);
        let dir = crate::scratch_root().join(format!("test-{}", std::process::id()));
        let fixture = set_up(WorkloadKind::IngestDurable, &data, &dir).unwrap();
        let model = Model::new(data.loaded());
        let streams = streams_for(WorkloadKind::IngestDurable, &data, 14, "timed", 5);
        let mut clients: Vec<ClientState> = (0..CLIENT_THREADS)
            .map(|thread| {
                let link = Link::InProcess {
                    store: &fixture.store,
                    client: Client::new(),
                };
                ClientState::new(thread, link, &model, &data)
            })
            .collect();
        let mut tracers: Vec<Tracer> = (0..CLIENT_THREADS)
            .map(|_| Tracer::new(false, Instant::now()))
            .collect();
        let samples = run_phase(
            &mut clients,
            &mut tracers,
            &streams,
            Duration::from_millis(200),
            true,
        );
        assert!(samples
            .iter()
            .all(|s| !s.is_empty() && s.iter().all(|x| x.ok)));
        drop(clients);

        // Claim one more acknowledged append than was ever written: the
        // reopen check must notice the missing key.
        let honest = model.appended[0].load(Ordering::Acquire);
        model.appended[0].store(honest + 1, Ordering::Release);
        let Err(error) = reopen_and_check(fixture, &model, &data).map(|_| ()) else {
            panic!("the reopen check missed a lost key");
        };
        assert!(error.contains("did not read back"), "{error}");

        // With the honest model the same directory checks out.
        model.appended[0].store(honest, Ordering::Release);
        let fixture = Fixture {
            store: Store::open_durable(&dir, 1 << 20).unwrap(),
            served: None,
            dir: Some(dir.clone()),
            reopen_s: 0.0,
            cache_bytes_total: 0,
        };
        let (fixture, keys_checked) = reopen_and_check(fixture, &model, &data).unwrap();
        assert!(keys_checked >= data.loaded() as u64);
        fixture.teardown();
    }
}
