//! The threaded TCP front-end over a [`ShardedDb`].
//!
//! One acceptor thread hands each connection to a dedicated reader thread;
//! every connection owns a bounded work queue drained by a small pool of
//! worker threads, so pipelined requests on one socket complete **out of
//! order** while responses are serialized through a shared writer lock.
//! A full queue answers immediately with a typed
//! [`ErrorCode::Busy`] frame — the
//! server never silently stalls a client to shed load.
//!
//! Degradation mirrors the embedded engine: when the backing store flips
//! read-only, reads (verified ones included) keep serving and writes fail
//! fast with [`ErrorCode::ReadOnly`].
//! Shutdown is a drain: the acceptor stops, readers stop pulling frames at
//! their next poll tick, queued requests finish, pending digest
//! subscriptions are failed with `ShuttingDown`, and every thread is
//! joined before [`SpitzServer::shutdown`] returns.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use spitz_core::sharded::ShardedDb;
use spitz_core::DbError;
use spitz_index::codec::{self, Reader};
use spitz_obs::{Counter, Gauge, Histogram, TelemetryHandle};
use spitz_storage::HealthState;

use crate::protocol::{
    self, encode_error, encode_frame, op, ErrorCode, PROTOCOL_VERSION, RESPONSE_BIT,
};

/// Requests a connection may have queued (accepted but not yet executing);
/// past it, each further request is answered `Busy`.
const QUEUE_DEPTH: usize = 32;

/// Worker threads per connection. More than one is what makes pipelined
/// completion genuinely out of order.
const WORKERS_PER_CONNECTION: usize = 2;

/// Socket read poll tick: how often a blocked reader re-checks the
/// shutdown flag and the idle clock.
const READ_TICK: Duration = Duration::from_millis(25);

/// Tuning for a [`SpitzServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Connections past this limit are answered with a `Busy` error frame
    /// and closed without being served.
    pub max_connections: usize,
    /// A connection with no bytes received for this long is closed.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
        }
    }
}

impl ServerConfig {
    /// Cap concurrent connections.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Set the idle-connection timeout.
    pub fn with_idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }
}

/// Server-side instruments, registered in the database's shared telemetry
/// registry so one snapshot covers storage, engine, and front-end.
struct ServerObs {
    connections: Arc<Gauge>,
    connections_total: Arc<Counter>,
    connections_rejected: Arc<Counter>,
    requests: Arc<Counter>,
    request_nanos: Arc<Histogram>,
    busy_rejections: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    subscriptions_served: Arc<Counter>,
}

impl ServerObs {
    fn new(handle: &TelemetryHandle) -> ServerObs {
        ServerObs {
            connections: handle.gauge("server.connections"),
            connections_total: handle.counter("server.connections_total"),
            connections_rejected: handle.counter("server.connections_rejected"),
            requests: handle.counter("server.requests"),
            request_nanos: handle.histogram("server.request_nanos"),
            busy_rejections: handle.counter("server.busy_rejections"),
            protocol_errors: handle.counter("server.protocol_errors"),
            bytes_read: handle.counter("server.bytes_read"),
            bytes_written: handle.counter("server.bytes_written"),
            subscriptions_served: handle.counter("server.subscriptions_served"),
        }
    }
}

/// A digest subscription parked until the cross-shard epoch matures.
struct Subscription {
    writer: Arc<Mutex<TcpStream>>,
    request_id: u64,
    min_epoch: u64,
}

/// Parked [`op::SUBSCRIBE_DIGEST`] requests, swept by the watcher thread.
struct SubRegistry {
    inner: Mutex<Vec<Subscription>>,
    cond: Condvar,
}

impl SubRegistry {
    fn new() -> SubRegistry {
        SubRegistry {
            inner: Mutex::new(Vec::new()),
            cond: Condvar::new(),
        }
    }

    fn register(&self, sub: Subscription) {
        lock(&self.inner).push(sub);
        // Wake the watcher so it re-checks the epoch immediately: a write
        // may have landed between the worker's digest check and this
        // registration, and the sweep-under-lock closes that window.
        self.cond.notify_all();
    }

    fn notify(&self) {
        self.cond.notify_all();
    }
}

/// One accepted, parsed request waiting for a worker.
struct WorkItem {
    opcode: u8,
    request_id: u64,
    payload: Vec<u8>,
}

/// Bounded per-connection request queue. `push` never blocks — a full
/// queue is the caller's signal to answer `Busy`.
struct WorkQueue {
    inner: Mutex<(VecDeque<WorkItem>, bool)>,
    cond: Condvar,
}

impl WorkQueue {
    fn new() -> WorkQueue {
        WorkQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            cond: Condvar::new(),
        }
    }

    /// False when the queue is at capacity (the item is dropped).
    fn push(&self, item: WorkItem) -> bool {
        let mut guard = lock(&self.inner);
        if guard.1 || guard.0.len() >= QUEUE_DEPTH {
            return false;
        }
        guard.0.push_back(item);
        drop(guard);
        self.cond.notify_one();
        true
    }

    /// Close the queue: blocked `pop`s drain what is left, then see `None`.
    fn close(&self) {
        lock(&self.inner).1 = true;
        self.cond.notify_all();
    }

    /// Blocking pop; `None` once the queue is closed *and* empty.
    fn pop(&self) -> Option<WorkItem> {
        let mut guard = lock(&self.inner);
        loop {
            if let Some(item) = guard.0.pop_front() {
                return Some(item);
            }
            if guard.1 {
                return None;
            }
            guard = self
                .cond
                .wait(guard)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// State shared by the acceptor, every connection, and the watcher.
struct Shared {
    db: Arc<ShardedDb>,
    config: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    obs: ServerObs,
    subs: SubRegistry,
}

/// Lock a std mutex, shrugging off poisoning: a panicking worker must not
/// take the whole connection (or the telemetry path) down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write one frame under the connection's writer lock. False when the
/// peer is gone; the reader will notice on its side and wind down.
fn send_frame(writer: &Arc<Mutex<TcpStream>>, shared: &Shared, frame: &[u8]) -> bool {
    let mut stream = lock(writer);
    match stream.write_all(frame) {
        Ok(()) => {
            shared.obs.bytes_written.add(frame.len() as u64);
            true
        }
        Err(_) => false,
    }
}

/// A served Spitz database: a listening socket plus the threads behind it.
/// Dropping the server shuts it down gracefully (see
/// [`SpitzServer::shutdown`]).
pub struct SpitzServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SpitzServer {
    /// Serve `db` on an OS-assigned loopback port.
    pub fn start(db: Arc<ShardedDb>, config: ServerConfig) -> io::Result<SpitzServer> {
        SpitzServer::bind("127.0.0.1:0", db, config)
    }

    /// Serve `db` on `addr`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        db: Arc<ShardedDb>,
        config: ServerConfig,
    ) -> io::Result<SpitzServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let obs = ServerObs::new(db.telemetry_handle());
        let shared = Arc::new(Shared {
            db,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            obs,
            subs: SubRegistry::new(),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("spitz-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))?
        };
        let watcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("spitz-sub-watcher".into())
                .spawn(move || watcher_loop(shared))?
        };
        Ok(SpitzServer {
            addr: local,
            shared,
            accept: Some(accept),
            watcher: Some(watcher),
            conns,
        })
    }

    /// The bound address clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served database (for in-process inspection in tests).
    pub fn db(&self) -> &Arc<ShardedDb> {
        &self.shared.db
    }

    /// Graceful drain: stop accepting, let queued requests finish, fail
    /// parked subscriptions with `ShuttingDown`, join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // The acceptor blocks in accept(); a throwaway connection wakes it
        // to observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.shared.subs.notify();
        if let Some(handle) = self.watcher.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conns).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SpitzServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, conns: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if shared.active.load(Ordering::Acquire) >= shared.config.max_connections {
            shared.obs.connections_rejected.inc();
            let _ = stream.write_all(&encode_error(
                0,
                ErrorCode::Busy,
                "connection limit reached",
            ));
            continue;
        }
        shared.obs.connections_total.inc();
        let now_active = shared.active.fetch_add(1, Ordering::AcqRel) + 1;
        shared.obs.connections.set(now_active as i64);
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("spitz-conn".into())
            .spawn(move || serve_connection(stream, conn_shared));
        match spawned {
            Ok(handle) => {
                let mut conns = lock(&conns);
                reap_finished(&mut conns);
                conns.push(handle);
            }
            Err(_) => {
                let left = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
                shared.obs.connections.set(left as i64);
            }
        }
    }
}

/// Join the threads of connections that have already closed, so a
/// long-running server holds a handle only per live connection.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    let (finished, live) = conns
        .drain(..)
        .partition(|h: &JoinHandle<()>| h.is_finished());
    *conns = live;
    for handle in finished {
        let _ = handle.join();
    }
}

/// Outcome of trying to fill a buffer from the socket.
enum Fill {
    /// Buffer complete.
    Full,
    /// Peer closed (EOF, reset, or unrecoverable read error).
    Gone,
    /// The idle clock expired with the buffer incomplete.
    Idle,
    /// The server is draining; stop reading.
    Shutdown,
}

/// Read exactly `buf.len()` bytes, polling at [`READ_TICK`] so
/// shutdown and idleness are noticed while blocked.
fn fill(stream: &mut TcpStream, buf: &mut [u8], shared: &Shared, last: &mut Instant) -> Fill {
    let mut pos = 0;
    while pos < buf.len() {
        match stream.read(&mut buf[pos..]) {
            Ok(0) => return Fill::Gone,
            Ok(n) => {
                pos += n;
                *last = Instant::now();
                shared.obs.bytes_read.add(n as u64);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Fill::Shutdown;
                }
                if last.elapsed() >= shared.config.idle_timeout {
                    return Fill::Idle;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Gone,
        }
    }
    Fill::Full
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    if let Ok(write_half) = stream.try_clone() {
        let writer = Arc::new(Mutex::new(write_half));
        let queue = Arc::new(WorkQueue::new());
        let workers: Vec<JoinHandle<()>> = (0..WORKERS_PER_CONNECTION)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let writer = Arc::clone(&writer);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name("spitz-worker".into())
                    .spawn(move || worker_loop(queue, shared, writer))
                    .expect("spawn connection worker")
            })
            .collect();
        reader_loop(stream, &shared, &writer, &queue);
        // Drain: close the queue, let the workers finish what was
        // accepted, then release the sockets.
        queue.close();
        for worker in workers {
            let _ = worker.join();
        }
    }
    let left = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
    shared.obs.connections.set(left as i64);
}

fn reader_loop(
    mut stream: TcpStream,
    shared: &Shared,
    writer: &Arc<Mutex<TcpStream>>,
    queue: &Arc<WorkQueue>,
) {
    let mut last = Instant::now();
    loop {
        let mut len_prefix = [0u8; 4];
        match fill(&mut stream, &mut len_prefix, shared, &mut last) {
            Fill::Full => {}
            Fill::Gone | Fill::Idle | Fill::Shutdown => return,
        }
        let len = u32::from_be_bytes(len_prefix) as usize;
        // Validate the declared length before allocating a single body
        // byte; an oversized or runt header is fatal to the connection
        // because the stream can no longer be framed.
        if let Err(e) = protocol::check_body_len(len) {
            shared.obs.protocol_errors.inc();
            send_frame(writer, shared, &encode_error(0, e.code(), &e.message()));
            return;
        }
        let mut body = vec![0u8; len];
        match fill(&mut stream, &mut body, shared, &mut last) {
            Fill::Full => {}
            Fill::Gone | Fill::Idle | Fill::Shutdown => return,
        }
        let frame = match protocol::parse_body(&body) {
            Ok(frame) => frame,
            Err(e) => {
                shared.obs.protocol_errors.inc();
                send_frame(writer, shared, &encode_error(0, e.code(), &e.message()));
                if e.code().is_fatal() {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            send_frame(
                writer,
                shared,
                &encode_error(
                    frame.request_id,
                    ErrorCode::ShuttingDown,
                    "server is draining",
                ),
            );
            return;
        }
        let item = WorkItem {
            opcode: frame.opcode,
            request_id: frame.request_id,
            payload: frame.payload.to_vec(),
        };
        let request_id = item.request_id;
        if !queue.push(item) {
            shared.obs.busy_rejections.inc();
            send_frame(
                writer,
                shared,
                &encode_error(request_id, ErrorCode::Busy, "request queue full"),
            );
        }
    }
}

fn worker_loop(queue: Arc<WorkQueue>, shared: Arc<Shared>, writer: Arc<Mutex<TcpStream>>) {
    while let Some(item) = queue.pop() {
        shared.obs.requests.inc();
        let timer = shared.obs.request_nanos.start();
        if let Some(frame) = handle_request(&shared, &writer, &item) {
            send_frame(&writer, &shared, &frame);
        }
        shared.obs.request_nanos.finish(timer);
    }
}

fn health_byte(state: HealthState) -> u8 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::ReadOnly => 2,
    }
}

/// Map an engine error onto a typed wire error.
fn db_error_frame(request_id: u64, e: &DbError) -> Vec<u8> {
    let (code, message) = match e {
        DbError::ReadOnly(m) => (ErrorCode::ReadOnly, m.clone()),
        DbError::TxnConflict(m) => (ErrorCode::Conflict, m.clone()),
        DbError::VerificationFailed(m) => (ErrorCode::Verification, m.clone()),
        DbError::BadRequest(m) => (ErrorCode::BadPayload, m.clone()),
        other => (ErrorCode::Internal, other.to_string()),
    };
    encode_error(request_id, code, &message)
}

/// Execute one request. `None` means the response is deferred (a parked
/// digest subscription); otherwise the returned frame is the response.
fn handle_request(
    shared: &Shared,
    writer: &Arc<Mutex<TcpStream>>,
    item: &WorkItem,
) -> Option<Vec<u8>> {
    let ok = |payload: Vec<u8>| {
        Some(encode_frame(
            item.opcode | RESPONSE_BIT,
            item.request_id,
            &payload,
        ))
    };
    let bad = |message: &str| {
        Some(encode_error(
            item.request_id,
            ErrorCode::BadPayload,
            message,
        ))
    };
    let db = &shared.db;
    match item.opcode {
        op::HELLO => {
            let mut payload = vec![PROTOCOL_VERSION];
            codec::put_u32(&mut payload, db.shard_count() as u32);
            ok(payload)
        }
        op::PING => ok(item.payload.clone()),
        op::GET => match db.get(&item.payload) {
            Ok(value) => {
                let mut payload = vec![u8::from(value.is_some())];
                payload.extend_from_slice(value.as_deref().unwrap_or_default());
                ok(payload)
            }
            Err(e) => Some(db_error_frame(item.request_id, &e)),
        },
        op::PUT => {
            let mut r = Reader::new(&item.payload);
            let Some(key) = r.bytes() else {
                return bad("put wants length-prefixed key then value");
            };
            let key = key.to_vec();
            let value = r.rest().to_vec();
            match db.put(&key, &value) {
                Ok(digest) => {
                    let reply = ok(digest.encode());
                    shared.subs.notify();
                    reply
                }
                Err(e) => Some(db_error_frame(item.request_id, &e)),
            }
        }
        op::PUT_BATCH => {
            let mut r = Reader::new(&item.payload);
            let Some(writes) = protocol::decode_entries(&mut r) else {
                return bad("put_batch wants a length-prefixed entry list");
            };
            if !r.is_exhausted() {
                return bad("trailing bytes after entry list");
            }
            if writes.is_empty() {
                return bad("empty batch");
            }
            match db.put_batch(writes) {
                Ok(digest) => {
                    let reply = ok(digest.encode());
                    shared.subs.notify();
                    reply
                }
                Err(e) => Some(db_error_frame(item.request_id, &e)),
            }
        }
        op::GET_VERIFIED => match db.get_verified(&item.payload) {
            Ok((value, proof)) => {
                let mut payload = vec![u8::from(value.is_some())];
                codec::put_bytes(&mut payload, value.as_deref().unwrap_or_default());
                payload.extend_from_slice(&proof.encode());
                ok(payload)
            }
            Err(e) => Some(db_error_frame(item.request_id, &e)),
        },
        op::BATCH_VERIFIED_GET => {
            let mut r = Reader::new(&item.payload);
            let Some(keys) = protocol::decode_keys(&mut r) else {
                return bad("batch get wants a length-prefixed key list");
            };
            if !r.is_exhausted() {
                return bad("trailing bytes after key list");
            }
            if keys.is_empty() {
                return bad("empty batch");
            }
            match db.get_multi_verified(&keys) {
                Ok((values, proof)) => {
                    let mut payload = protocol::encode_optional_values(&values);
                    payload.extend_from_slice(&proof.encode());
                    ok(payload)
                }
                Err(e) => Some(db_error_frame(item.request_id, &e)),
            }
        }
        op::RANGE_VERIFIED => {
            let mut r = Reader::new(&item.payload);
            let Some(start) = r.bytes() else {
                return bad("range wants length-prefixed start then end");
            };
            let start = start.to_vec();
            let end = r.rest().to_vec();
            match db.range_verified(&start, &end) {
                Ok((entries, proof)) => {
                    let mut payload = protocol::encode_entries(&entries);
                    payload.extend_from_slice(&proof.encode());
                    ok(payload)
                }
                Err(e) => Some(db_error_frame(item.request_id, &e)),
            }
        }
        op::DIGEST => ok(db.digest().encode()),
        op::SUBSCRIBE_DIGEST => {
            let mut r = Reader::new(&item.payload);
            let Some(min_epoch) = r.u64() else {
                return bad("subscribe wants a u64 minimum epoch");
            };
            if !r.is_exhausted() {
                return bad("trailing bytes after minimum epoch");
            }
            let digest = db.digest();
            if digest.epoch >= min_epoch {
                shared.obs.subscriptions_served.inc();
                return ok(digest.encode());
            }
            shared.subs.register(Subscription {
                writer: Arc::clone(writer),
                request_id: item.request_id,
                min_epoch,
            });
            None
        }
        op::HEALTH => {
            let mut payload = vec![health_byte(db.health())];
            codec::put_u32(&mut payload, db.shard_count() as u32);
            for shard in 0..db.shard_count() {
                payload.push(health_byte(db.shard_health(shard)));
                let reason = db.shard_health_reason(shard).unwrap_or_default();
                codec::put_bytes(&mut payload, reason.as_bytes());
            }
            ok(payload)
        }
        op::SCRUB => {
            let mut scanned = 0u64;
            let mut quarantined = 0u64;
            let mut salvaged = 0u64;
            let mut lost = 0u64;
            for shard in 0..db.shard_count() {
                match db.shard(shard).scrub() {
                    Ok(Some(report)) => {
                        scanned += report.segments_scanned;
                        quarantined += report.quarantined_segments.len() as u64;
                        salvaged += report.chunks_salvaged;
                        lost += report.chunks_lost;
                    }
                    Ok(None) => {}
                    Err(e) => return Some(db_error_frame(item.request_id, &e)),
                }
            }
            let mut payload = Vec::with_capacity(32);
            codec::put_u64(&mut payload, scanned);
            codec::put_u64(&mut payload, quarantined);
            codec::put_u64(&mut payload, salvaged);
            codec::put_u64(&mut payload, lost);
            ok(payload)
        }
        op::COMPACT => match db.compact() {
            Ok(reports) => {
                let mut victims = 0u64;
                let mut rewritten = 0u64;
                let mut dropped = 0u64;
                let mut reclaimed = 0u64;
                for report in reports.into_iter().flatten() {
                    victims += report.victim_segments.len() as u64;
                    rewritten += report.live_chunks_rewritten;
                    dropped += report.chunks_dropped;
                    reclaimed += report.bytes_reclaimed;
                }
                let mut payload = Vec::with_capacity(32);
                codec::put_u64(&mut payload, victims);
                codec::put_u64(&mut payload, rewritten);
                codec::put_u64(&mut payload, dropped);
                codec::put_u64(&mut payload, reclaimed);
                ok(payload)
            }
            Err(e) => Some(db_error_frame(item.request_id, &e)),
        },
        op::TELEMETRY => ok(db.telemetry().render_json().into_bytes()),
        unknown => Some(encode_error(
            item.request_id,
            ErrorCode::UnknownOpcode,
            &format!("opcode {unknown:#04x}"),
        )),
    }
}

/// Sweep parked subscriptions whenever a write lands (workers notify) or
/// on a slow poll tick, answering every subscription whose minimum epoch
/// the current consistent cut has reached. On shutdown, parked
/// subscriptions fail with `ShuttingDown` so no client hangs.
fn watcher_loop(shared: Arc<Shared>) {
    let registry = &shared.subs;
    let mut guard = lock(&registry.inner);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        if guard.is_empty() {
            guard = registry
                .cond
                .wait_timeout(guard, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
            continue;
        }
        // The digest takes the epoch fence; compute it without holding the
        // registry lock so workers can keep parking subscriptions.
        drop(guard);
        let digest = shared.db.digest();
        let encoded = digest.encode();
        guard = lock(&registry.inner);
        let mut i = 0;
        while i < guard.len() {
            if digest.epoch >= guard[i].min_epoch {
                let sub = guard.swap_remove(i);
                send_frame(
                    &sub.writer,
                    &shared,
                    &encode_frame(
                        op::SUBSCRIBE_DIGEST | RESPONSE_BIT,
                        sub.request_id,
                        &encoded,
                    ),
                );
                shared.obs.subscriptions_served.inc();
            } else {
                i += 1;
            }
        }
        if guard.is_empty() {
            continue;
        }
        guard = registry
            .cond
            .wait_timeout(guard, Duration::from_millis(50))
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .0;
    }
    for sub in guard.drain(..) {
        send_frame(
            &sub.writer,
            &shared,
            &encode_error(
                sub.request_id,
                ErrorCode::ShuttingDown,
                "server is draining",
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptor joins a closed connection's thread when it accepts the
    /// next one, instead of keeping one handle per connection ever served
    /// until shutdown.
    #[test]
    fn closed_connections_are_reaped() {
        let db = Arc::new(ShardedDb::in_memory(1));
        let server = SpitzServer::start(db, ServerConfig::default()).expect("start server");
        let ping = encode_frame(op::PING, 1, b"hi");
        for _ in 0..64 {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream.write_all(&ping).unwrap();
            let mut reply = [0u8; 4];
            stream.read_exact(&mut reply).unwrap();
            drop(stream);
            // Served: the connection thread has let go of its slot.
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.shared.active.load(Ordering::Acquire) > 0 {
                assert!(Instant::now() < deadline, "connection never closed");
                thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(server.shared.obs.connections_total.get(), 64);
        let held = lock(&server.conns).len();
        assert!(held <= 2, "{held} connection handles held for 64 closed");
    }
}
