//! Group-commit pipeline: coalesce concurrent commits into shared blocks
//! and amortize `fsync` across them.
//!
//! Without the pipeline every `ShardedDb::put` seals its own ledger block and
//! pays the full durability ceremony (an `fsync` per commit in strict
//! setups). Group commit is leader/follower around one *seal role*. A
//! commit, fence or flush that finds the role free takes it and seals on its
//! own thread: a hop to another thread and back would cost two scheduler
//! wake-ups. A caller that finds it taken queues its writes (or a barrier)
//! and parks on a ticket. The role is handed on, never dropped: a holder
//! that finishes with callers queued wakes the head of the queue, which
//! takes the whole queue and seals it as **one** block (one index-root
//! update, one block chunk, one head-root record in the storage log — see
//! `spitz_storage::durable`), settles the durability policy and wakes the
//! rest of the batch with the same published [`Digest`].
//!
//! When a commit additionally waits for stable storage is governed by a
//! [`DurabilityPolicy`]:
//!
//! * [`DurabilityPolicy::Strict`] — every flush is fsynced before it is
//!   acknowledged. An acknowledged commit survives any crash. Concurrent
//!   callers still share that fsync (classic group commit).
//! * [`DurabilityPolicy::Grouped`] — commits are acknowledged at
//!   *publication* (block sealed, root record appended) and fsynced at
//!   least every `max_writes` commits or `max_delay` of wall clock. A crash
//!   loses at most that window, and recovery lands on the last fsynced
//!   root with the chain intact.
//! * [`DurabilityPolicy::Os`] — never fsync from the pipeline; the OS page
//!   cache decides (fastest, weakest).
//!
//! [`CommitPipeline::flush`] forces an fsync regardless of policy;
//! [`CommitPipeline::shutdown`] (also run on drop) takes the role and syncs
//! on the caller's thread, so a clean exit never loses acknowledged work.
//! Only `Grouped` runs a thread, and it only keeps time: it takes the role
//! to fsync when a deadline passes with no commit to carry it. Every
//! decision is a `PipelineState` method that takes no lock and does no I/O;
//! the tests check them over every interleaving of a few callers.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spitz_obs::TelemetryHandle;
use spitz_storage::{ChunkStore, StorageError};

use crate::ledger::{CommitGroup, Digest, Ledger};

/// When a commit acknowledged by the pipeline is guaranteed to be on stable
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(test, derive(Hash))]
pub enum DurabilityPolicy {
    /// `fsync` after every flush, before acknowledging: an acknowledged
    /// commit is never lost. Concurrent commits share the fsync.
    #[default]
    Strict,
    /// Acknowledge at publication and `fsync` at least every `max_writes`
    /// commits or `max_delay`, whichever comes first. A crash loses at most
    /// that window. The commit that reaches `max_writes`, or is sealed
    /// after the deadline has passed, waits for that fsync before it is
    /// acknowledged; a deadline that passes with no commit to carry it is
    /// met by the pipeline's timer thread, which takes the seal role to
    /// fsync.
    Grouped {
        /// Longest time an acknowledged commit may sit unfsynced.
        max_delay: Duration,
        /// Most commits that may accumulate before an fsync is forced.
        max_writes: usize,
    },
    /// Never `fsync` from the pipeline; durability is up to the OS page
    /// cache (and to explicit [`CommitPipeline::flush`] calls).
    Os,
}

impl DurabilityPolicy {
    /// A reasonable grouped policy: fsync at least every 2 ms or every 64
    /// commits.
    pub fn grouped_default() -> Self {
        DurabilityPolicy::Grouped {
            max_delay: Duration::from_millis(2),
            max_writes: 64,
        }
    }

    /// Short name for display in benches and logs.
    pub fn name(&self) -> &'static str {
        match self {
            DurabilityPolicy::Strict => "strict",
            DurabilityPolicy::Grouped { .. } => "grouped",
            DurabilityPolicy::Os => "os",
        }
    }
}

/// What a parked caller is woken with.
enum Wake {
    /// The seal role is handed to it: take the queue and seal it.
    Seal,
    /// Its commit or barrier was sealed with this outcome.
    Done(Result<Digest, StorageError>),
}

/// A parked caller's rendezvous: the waker fills the slot, the caller
/// sleeps on the condvar until it does.
#[derive(Default)]
struct Ticket {
    slot: Mutex<Option<Wake>>,
    ready: Condvar,
}

impl Ticket {
    fn wake(&self, wake: Wake) {
        *lock(&self.slot) = Some(wake);
        self.ready.notify_all();
    }

    fn wait(&self) -> Wake {
        let slot = self
            .ready
            .wait_while(lock(&self.slot), |slot| slot.is_none());
        let mut slot = slot.unwrap_or_else(|poison| poison.into_inner());
        slot.take().expect("woken with a value")
    }
}

/// One commit or barrier: a leader's own, or queued behind the role.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct Pending<W> {
    /// Whom to wake: a ticket (a caller id in the model check).
    waiter: W,
    /// The writes and statement; `None` for a fence or flush barrier.
    commit: Option<CommitGroup>,
    /// Forces an fsync when this entry's batch is sealed (flush barriers;
    /// fence barriers quiesce without paying for durability).
    sync: bool,
}

/// What [`PipelineState::arrive`] (or `close`) tells a caller to do.
enum Arrival<W> {
    /// Shut down (or, to a shutdown, shut down already): refuse.
    Closed,
    /// A fence on a free pipeline: nothing is half-sealed, so read the
    /// digest now, under the state lock.
    Answer,
    /// The role is the caller's: seal this batch.
    Lead(Vec<Pending<W>>),
    Follow,
}

/// What a role holder does with the role when it is done.
enum Release<W> {
    /// Wake this waiter with [`Wake::Seal`]; the role stays taken.
    Handoff(W),
    /// The role is free; wake the timer if (`true`) a deadline passed
    /// while it was held.
    Free(bool),
}

/// What the timer thread does next.
enum Tick {
    Exit,
    /// Sleep this long (until the deadline), or until woken.
    Sleep(Duration),
    /// The role is the timer's: fsync, then release.
    Sync,
}

/// Every decision the pipeline makes, over the state it guards. No method
/// locks or does I/O; callers hold the state lock around each one.
#[derive(Default)]
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct PipelineState<W> {
    policy: DurabilityPolicy,
    /// Callers parked behind the role, in arrival order.
    queue: Vec<Pending<W>>,
    /// The seal role is taken: by a caller sealing or syncing, by the queue
    /// head it was handed to, by the timer syncing or by shutdown. A free
    /// role means an empty queue.
    sealing: bool,
    shutdown: bool,
    /// A shutdown waiting for the role.
    closer: Option<W>,
    /// Commits acknowledged but not yet fsynced (Grouped only), and the
    /// wall-clock deadline by which they must be.
    unsynced: usize,
    sync_deadline: Option<Instant>,
}

impl<W: Clone> PipelineState<W> {
    fn sync_due(&self, now: Instant) -> bool {
        self.sync_deadline.is_some_and(|deadline| now >= deadline)
    }

    /// A commit, fence or flush arrives: refused after shutdown, queued
    /// behind a holder, answered at once (a free fence) or given the role.
    fn arrive(&mut self, pending: Pending<W>) -> Arrival<W> {
        if self.shutdown {
            Arrival::Closed
        } else if self.sealing {
            self.queue.push(pending);
            Arrival::Follow
        } else if pending.commit.is_none() && !pending.sync {
            Arrival::Answer
        } else {
            self.sealing = true;
            Arrival::Lead(vec![pending])
        }
    }

    /// Count `commits` just sealed against the policy. Returns whether to
    /// fsync before acknowledging (`force`: a flush demands it), and whether
    /// a deadline was armed that the timer must be woken to keep.
    fn settle(&mut self, commits: usize, force: bool, now: Instant) -> (bool, bool) {
        match self.policy {
            DurabilityPolicy::Strict => (commits > 0 || force, false),
            DurabilityPolicy::Os => (force, false),
            DurabilityPolicy::Grouped {
                max_delay,
                max_writes,
            } => {
                self.unsynced += commits;
                let arm = self.unsynced > 0 && self.sync_deadline.is_none();
                if arm {
                    self.sync_deadline = Some(now + max_delay);
                }
                let sync = force || self.unsynced >= max_writes || self.sync_due(now);
                (sync, arm)
            }
        }
    }

    /// An fsync that began with `covered` commits unsynced succeeded.
    fn synced(&mut self, covered: usize) {
        // Subtract rather than zero: a commit counted once the fsync had
        // started is not covered by it.
        self.unsynced -= covered;
        if self.unsynced == 0 {
            self.sync_deadline = None;
        }
    }

    /// The holder is done: hand the role to the head of the queue, else to
    /// a waiting shutdown, else free it.
    fn release(&mut self, now: Instant) -> Release<W> {
        if let Some(head) = self.queue.first() {
            Release::Handoff(head.waiter.clone())
        } else if let Some(closer) = self.closer.take() {
            Release::Handoff(closer)
        } else {
            self.sealing = false;
            Release::Free(self.sync_due(now))
        }
    }

    /// The timer is awake: exit after shutdown, take the free role once the
    /// deadline has passed, or sleep (until a release wakes it, if held).
    fn tick(&mut self, now: Instant) -> Tick {
        if self.shutdown {
            Tick::Exit
        } else if !self.sync_due(now) {
            Tick::Sleep(self.sync_deadline.map_or(Duration::MAX, |at| at - now))
        } else if self.sealing {
            Tick::Sleep(Duration::MAX)
        } else {
            self.sealing = true;
            Tick::Sync
        }
    }

    /// Shutdown begins: later arrivals are refused, and the role is taken
    /// now or handed over once everything accepted is sealed.
    fn close(&mut self, closer: W) -> Arrival<W> {
        if self.shutdown {
            return Arrival::Closed;
        }
        self.shutdown = true;
        if self.sealing {
            self.closer = Some(closer);
            return Arrival::Follow;
        }
        self.sealing = true;
        Arrival::Lead(Vec::new())
    }
}

/// Counters the pipeline exposes for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Commits accepted (each `commit` call counts once).
    pub commits: u64,
    /// Blocks sealed (each coalesces ≥ 1 commit).
    pub flushes: u64,
    /// `fsync` calls issued by the pipeline.
    pub syncs: u64,
}

#[derive(Default)]
struct AtomicPipelineStats {
    commits: std::sync::atomic::AtomicU64,
    flushes: std::sync::atomic::AtomicU64,
    syncs: std::sync::atomic::AtomicU64,
}

/// Pipeline instruments, resolved once at construction. All inert when the
/// pipeline was built without telemetry.
struct PipelineObs {
    commits: Arc<spitz_obs::Counter>,
    flushes: Arc<spitz_obs::Counter>,
    syncs: Arc<spitz_obs::Counter>,
    /// `pipeline.policy.<name>.flushes`: attributes flushes to the policy
    /// the pipeline runs, so mixed-policy deployments can tell them apart.
    policy_flushes: Arc<spitz_obs::Counter>,
    group_size: Arc<spitz_obs::Histogram>,
    flush_nanos: Arc<spitz_obs::Histogram>,
    /// Parked callers, summed over the pipelines sharing the handle.
    queue_depth: Arc<spitz_obs::Gauge>,
    /// What each sealed block cost ([`crate::ledger::BlockCost`]): writes
    /// applied, index nodes put and their bytes. Nodes per write well below
    /// the tree height means the block's keys shared their paths.
    block_writes: Arc<spitz_obs::Histogram>,
    index_nodes_written: Arc<spitz_obs::Histogram>,
    index_bytes_written: Arc<spitz_obs::Histogram>,
}

impl PipelineObs {
    fn new(telemetry: &TelemetryHandle, policy: DurabilityPolicy) -> PipelineObs {
        PipelineObs {
            commits: telemetry.counter("pipeline.commits"),
            flushes: telemetry.counter("pipeline.flushes"),
            syncs: telemetry.counter("pipeline.syncs"),
            policy_flushes: telemetry
                .counter(&format!("pipeline.policy.{}.flushes", policy.name())),
            group_size: telemetry.histogram("pipeline.group_size"),
            flush_nanos: telemetry.histogram("pipeline.flush_nanos"),
            queue_depth: telemetry.gauge("pipeline.queue_depth"),
            block_writes: telemetry.histogram("ledger.block_writes"),
            index_nodes_written: telemetry.histogram("ledger.index_nodes_written"),
            index_bytes_written: telemetry.histogram("ledger.index_bytes_written"),
        }
    }
}

struct Shared {
    ledger: Arc<Ledger>,
    state: Mutex<PipelineState<Arc<Ticket>>>,
    /// Wakes the timer: a deadline armed, a passed one freed, or shutdown.
    timer: Condvar,
    stats: AtomicPipelineStats,
    obs: PipelineObs,
}

impl Shared {
    /// Hold the role for `batch`: seal it as one block, settle the policy,
    /// hand the role on, then wake the batch behind its head (the caller).
    fn lead(&self, mut batch: Vec<Pending<Arc<Ticket>>>) -> Result<Digest, StorageError> {
        // The payloads are moved out of the pendings (only the tickets are
        // needed afterwards), so coalescing copies no write bytes.
        let groups: Vec<CommitGroup> = batch
            .iter_mut()
            .filter_map(|p| p.commit.take().filter(|(writes, _)| !writes.is_empty()))
            .collect();
        let force = batch.iter().any(|p| p.sync);
        let result = contain("commit", || self.flush(groups, force));
        self.release();
        for pending in batch.drain(1..) {
            pending.waiter.wake(Wake::Done(result.clone()));
        }
        result
    }

    /// Seal `groups` into one block (none: just read the digest) and apply
    /// the durability policy before anyone is acknowledged. `force` (a
    /// flush barrier) demands an fsync.
    fn flush(&self, groups: Vec<CommitGroup>, force: bool) -> Result<Digest, StorageError> {
        let commits = groups.len();
        let digest = match commits {
            0 => self.ledger.digest(),
            _ => self.seal(groups)?,
        };
        let (sync, wake_timer) = lock(&self.state).settle(commits, force, Instant::now());
        if wake_timer {
            self.timer.notify_one();
        }
        if sync {
            self.sync()?;
        }
        Ok(digest)
    }

    /// Seal `groups` into one block. Panics that escape the append (index
    /// writes route through `try_put`, but a corrupt node read or a bug in
    /// an index implementation can still unwind) are contained: a poisoned
    /// commit must surface as an error to every caller it carries.
    fn seal(&self, groups: Vec<CommitGroup>) -> Result<Digest, StorageError> {
        self.stats.flushes.fetch_add(1, Relaxed);
        self.obs.flushes.inc();
        self.obs.policy_flushes.inc();
        self.obs.group_size.record(groups.len() as u64);
        let flush_start = self.obs.flush_nanos.start();
        let result = contain("commit", || {
            self.ledger.try_append_groups(groups).map(|(digest, cost)| {
                self.obs.block_writes.record(cost.writes as u64);
                self.obs
                    .index_nodes_written
                    .record(cost.index_nodes_written);
                self.obs
                    .index_bytes_written
                    .record(cost.index_bytes_written);
                digest
            })
        });
        self.obs.flush_nanos.finish(flush_start);
        result
    }

    /// `fsync` the store and retire the commits it covers.
    fn sync(&self) -> Result<(), StorageError> {
        let covered = lock(&self.state).unsynced;
        contain("fsync", || self.ledger.store().sync())?;
        self.stats.syncs.fetch_add(1, Relaxed);
        self.obs.syncs.inc();
        lock(&self.state).synced(covered);
        Ok(())
    }

    /// Give the role up: to the next waiter, or back to the pipeline.
    fn release(&self) {
        let release = lock(&self.state).release(Instant::now());
        match release {
            Release::Handoff(ticket) => ticket.wake(Wake::Seal),
            Release::Free(true) => self.timer.notify_one(),
            Release::Free(false) => {}
        }
    }
}

/// Group-commit pipeline over a [`Ledger`].
pub struct CommitPipeline {
    shared: Arc<Shared>,
    /// The `Grouped` deadline timer; `None` under every other policy.
    timer: Mutex<Option<JoinHandle<()>>>,
}

/// Lock a mutex, transparently recovering from poisoning (a panicked
/// holder must not wedge every caller).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Run `what`, turning a panic into an error: a role holder (caller, timer
/// or shutdown) that unwinds would leave every caller parked forever.
fn contain<T>(
    what: &'static str,
    run: impl FnOnce() -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        let reason = panic.downcast_ref::<&str>().map(|s| s.to_string());
        let reason = reason.or_else(|| panic.downcast_ref::<String>().cloned());
        let reason = reason.unwrap_or_else(|| format!("{what} panicked"));
        Err(StorageError::io_synthetic(
            spitz_storage::IoErrorKind::Other,
            what,
            format!("{what} aborted: {reason}"),
        ))
    })
}

impl CommitPipeline {
    /// A pipeline over `ledger` with the given policy.
    pub fn new(ledger: Arc<Ledger>, policy: DurabilityPolicy) -> Arc<CommitPipeline> {
        Self::with_telemetry(ledger, policy, TelemetryHandle::disabled())
    }

    /// [`Self::new`], recording into `telemetry`: commit/flush/sync
    /// counters (attributed to the policy), group-size and flush-latency
    /// histograms, and a queue-depth gauge.
    pub fn with_telemetry(
        ledger: Arc<Ledger>,
        policy: DurabilityPolicy,
        telemetry: TelemetryHandle,
    ) -> Arc<CommitPipeline> {
        let shared = Arc::new(Shared {
            ledger,
            state: Mutex::new(PipelineState {
                policy,
                ..PipelineState::default()
            }),
            timer: Condvar::new(),
            stats: AtomicPipelineStats::default(),
            obs: PipelineObs::new(&telemetry, policy),
        });
        let timer = match policy {
            DurabilityPolicy::Grouped { max_delay, .. } => {
                let shared = Arc::clone(&shared);
                let spawn = std::thread::Builder::new().name("spitz-sync-timer".into());
                let timer = spawn.spawn(move || keep_time(&shared, max_delay));
                Some(timer.expect("spawn the sync timer"))
            }
            DurabilityPolicy::Strict | DurabilityPolicy::Os => None,
        };
        Arc::new(CommitPipeline {
            shared,
            timer: Mutex::new(timer),
        })
    }

    /// Counters since creation.
    pub fn stats(&self) -> PipelineStats {
        PipelineStats {
            commits: self.shared.stats.commits.load(Relaxed),
            flushes: self.shared.stats.flushes.load(Relaxed),
            syncs: self.shared.stats.syncs.load(Relaxed),
        }
    }

    /// Commit a batch of writes, blocking until it is published (and, under
    /// [`DurabilityPolicy::Strict`], durable). On a free pipeline the block
    /// is sealed on the calling thread; concurrent callers are coalesced
    /// into one sealed block, and every caller of that block receives the
    /// same digest.
    ///
    /// # Errors
    ///
    /// An error means the commit's durability guarantee was **not** met. If
    /// the append itself failed the writes were rolled back and are not
    /// readable; if only the post-append `fsync` failed (Strict) the block
    /// is published in memory but may not survive a crash. Retrying the
    /// same writes is safe in both cases — identical chunks deduplicate —
    /// though after an fsync-only failure the retry seals a second block
    /// recording the same values.
    pub fn commit(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<Digest, StorageError> {
        self.arrive(Some((writes, statement.to_string())), false)
    }

    /// Drain every queued commit and force an `fsync`, regardless of
    /// policy. On return, everything committed before this call is on
    /// stable storage.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.arrive(None, true).map(|_| ())
    }

    /// Epoch fence: drain every commit queued before this call and return
    /// the digest at that quiesced point. The returned digest is a *published
    /// prefix* of the commit order — its `(index_root, journal_root,
    /// block_height)` triple corresponds to exactly the blocks sealed so far,
    /// with no commit half-applied. Unlike [`CommitPipeline::flush`], a fence
    /// does not force an fsync: it buys a consistent cut, not durability.
    ///
    /// The sharded database fences every shard pipeline inside one epoch to
    /// snapshot a consistent cross-shard cut.
    ///
    /// A free pipeline (nothing queued, nothing being sealed) is already
    /// quiesced, so the fence reads the digest under the state lock and
    /// returns: on a read-mostly store a hop to another thread and back —
    /// not the work — would decide every snapshot's latency.
    pub fn fence(&self) -> Result<Digest, StorageError> {
        self.arrive(None, false)
    }

    /// Arrive with a commit or a barrier (`sync`: a flush); lead or follow.
    fn arrive(&self, commit: Option<CommitGroup>, sync: bool) -> Result<Digest, StorageError> {
        let (counted, ticket) = (commit.is_some(), Arc::<Ticket>::default());
        let waiter = Arc::clone(&ticket);
        let mut state = lock(&self.shared.state);
        let arrival = state.arrive(Pending {
            waiter,
            commit,
            sync,
        });
        if counted && !matches!(arrival, Arrival::Closed) {
            self.shared.stats.commits.fetch_add(1, Relaxed);
            self.shared.obs.commits.inc();
        }
        match arrival {
            Arrival::Closed => Err(StorageError::Closed),
            Arrival::Answer => Ok(self.shared.ledger.digest()),
            Arrival::Lead(batch) => {
                drop(state);
                self.shared.lead(batch)
            }
            Arrival::Follow => {
                self.shared.obs.queue_depth.add(1);
                drop(state);
                match ticket.wait() {
                    Wake::Done(result) => result,
                    Wake::Seal => {
                        // Handed the role: take the whole queue, headed by
                        // this caller's own entry.
                        let batch = std::mem::take(&mut lock(&self.shared.state).queue);
                        self.shared.obs.queue_depth.sub(batch.len() as i64);
                        self.shared.lead(batch)
                    }
                }
            }
        }
    }

    /// Wait for everything accepted to be sealed, fsync on the calling
    /// thread and stop the timer. Commits arriving meanwhile fail with
    /// [`StorageError::Closed`]. Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        let ticket: Arc<Ticket> = Arc::default();
        let close = lock(&self.shared.state).close(Arc::clone(&ticket));
        self.shared.timer.notify_one();
        match close {
            Arrival::Closed | Arrival::Answer => return,
            Arrival::Follow => drop(ticket.wait()),
            Arrival::Lead(_) => {}
        }
        // Best effort: the store's drop-time flush retries once more.
        let _ = self.shared.sync();
        self.shared.release();
        if let Some(timer) = lock(&self.timer).take() {
            let _ = timer.join();
        }
    }
}

impl Drop for CommitPipeline {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for CommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipeline")
            .field("policy", &lock(&self.shared.state).policy)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The `Grouped` timer: when a deadline passes with no commit to carry it,
/// take the role to fsync; retry a failed fsync `retry` later.
fn keep_time(shared: &Shared, retry: Duration) {
    let mut state = lock(&shared.state);
    loop {
        state = match state.tick(Instant::now()) {
            Tick::Exit => return,
            Tick::Sleep(timeout) => {
                let slept = shared.timer.wait_timeout(state, timeout);
                slept.unwrap_or_else(|poison| poison.into_inner()).0
            }
            Tick::Sync => {
                drop(state);
                if shared.sync().is_err() {
                    // Keep the unsynced count and retry after a delay:
                    // resetting it would silently void the bounded-loss
                    // guarantee. A flush (or the next batch's forced sync)
                    // surfaces the error to a caller.
                    lock(&shared.state).sync_deadline = Some(Instant::now() + retry);
                }
                shared.release();
                lock(&shared.state)
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::Hash;
    use spitz_storage::{Chunk, InMemoryChunkStore, StoreStats};
    use std::collections::HashSet;
    use std::hash::{BuildHasher, RandomState};

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i:06}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    fn pipeline(policy: DurabilityPolicy) -> (Arc<Ledger>, Arc<CommitPipeline>) {
        let ledger = Arc::new(Ledger::new(InMemoryChunkStore::shared()));
        let pipeline = CommitPipeline::new(Arc::clone(&ledger), policy);
        (ledger, pipeline)
    }

    /// An in-memory store that logs each put and sync with the thread that
    /// made it, can hold a put while `hold` is locked, and can panic in
    /// the next put or sync (`panic_in`).
    #[derive(Default)]
    struct Probe {
        inner: InMemoryChunkStore,
        log: Mutex<Vec<(&'static str, Option<String>)>>,
        hold: Mutex<()>,
        panic_in: Mutex<Option<&'static str>>,
    }

    impl Probe {
        fn record(&self, event: &'static str) {
            let thread = std::thread::current().name().map(str::to_string);
            lock(&self.log).push((event, thread));
            if lock(&self.panic_in)
                .take_if(|next| *next == event)
                .is_some()
            {
                panic!("probe {event}");
            }
        }
    }

    impl ChunkStore for Probe {
        fn put(&self, chunk: Chunk) -> Hash {
            self.record("put");
            drop(lock(&self.hold));
            self.inner.put(chunk)
        }
        fn get(&self, address: &Hash) -> Result<Arc<Chunk>, StorageError> {
            self.inner.get(address)
        }
        fn contains(&self, address: &Hash) -> bool {
            self.inner.contains(address)
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
        fn audit(&self) -> Vec<Hash> {
            self.inner.audit()
        }
        fn set_root(&self, name: &str, hash: Hash) {
            self.inner.set_root(name, hash)
        }
        fn root(&self, name: &str) -> Option<Hash> {
            self.inner.root(name)
        }
        fn sync(&self) -> Result<(), StorageError> {
            self.record("sync");
            Ok(())
        }
    }

    type Probed = (Arc<Probe>, Arc<Ledger>, Arc<CommitPipeline>);

    fn probed(policy: DurabilityPolicy) -> Probed {
        probed_with(policy, TelemetryHandle::disabled())
    }

    fn probed_with(policy: DurabilityPolicy, telemetry: TelemetryHandle) -> Probed {
        let probe = Arc::new(Probe::default());
        let ledger = Arc::new(Ledger::new(Arc::clone(&probe) as Arc<dyn ChunkStore>));
        let pipeline = CommitPipeline::with_telemetry(Arc::clone(&ledger), policy, telemetry);
        lock(&probe.log).clear();
        (probe, ledger, pipeline)
    }

    /// Poll `done` for up to ten seconds.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < give_up, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn this_thread() -> Option<String> {
        std::thread::current().name().map(str::to_string)
    }

    #[test]
    fn a_free_pipeline_commits_on_the_callers_thread() {
        let (probe, _ledger, pipeline) = probed(DurabilityPolicy::Strict);
        assert!(lock(&pipeline.timer).is_none(), "Strict runs no thread");
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        let log = lock(&probe.log).clone();
        assert!(log.iter().any(|(event, _)| *event == "sync"), "{log:?}");
        assert!(log.iter().all(|(_, t)| *t == this_thread()), "{log:?}");
        assert_eq!(pipeline.stats().syncs, 1);
    }

    #[test]
    fn a_flush_on_a_free_pipeline_syncs_on_the_callers_thread() {
        let policy = DurabilityPolicy::Grouped {
            max_delay: Duration::from_secs(3600),
            max_writes: 1000,
        };
        let (probe, _ledger, pipeline) = probed(policy);
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        lock(&probe.log).clear();
        pipeline.flush().unwrap();
        assert_eq!(*lock(&probe.log), vec![("sync", this_thread())]);
        assert_eq!(lock(&pipeline.shared.state).unsynced, 0);
    }

    #[test]
    fn a_panic_in_a_callers_seal_is_an_error_and_frees_the_pipeline() {
        let (probe, ledger, pipeline) = probed(DurabilityPolicy::Strict);
        *lock(&probe.panic_in) = Some("put");
        let failed = pipeline.commit(vec![kv(1)], "PUT");
        assert!(
            matches!(&failed, Err(e) if e.to_string().contains("probe put")),
            "{failed:?}"
        );
        assert!(!lock(&pipeline.shared.state).sealing, "the role is free");
        let digest = pipeline.commit(vec![kv(2)], "PUT").unwrap();
        assert_eq!(digest.block_height, 0);
        assert_eq!(ledger.get(&kv(1).0), None);
        assert_eq!(ledger.get(&kv(2).0), Some(kv(2).1));
        assert_eq!(ledger.audit_chain(), None);
    }

    #[test]
    fn a_panic_in_an_fsync_is_an_error_and_frees_the_pipeline() {
        // A caller's fsync: the block is published, the commit fails.
        let (probe, _ledger, pipeline) = probed(DurabilityPolicy::Strict);
        *lock(&probe.panic_in) = Some("sync");
        let failed = pipeline.commit(vec![kv(1)], "PUT");
        assert!(
            matches!(&failed, Err(e) if e.to_string().contains("probe sync")),
            "{failed:?}"
        );
        assert!(!lock(&pipeline.shared.state).sealing, "the role is free");
        assert_eq!(pipeline.commit(vec![kv(2)], "PUT").unwrap().block_height, 1);
        // Shutdown's final fsync.
        *lock(&probe.panic_in) = Some("sync");
        pipeline.shutdown();

        // The timer's fsync: the role is freed and the deadline retried.
        let policy = DurabilityPolicy::Grouped {
            max_delay: Duration::from_millis(5),
            max_writes: 1000,
        };
        let (probe, _ledger, pipeline) = probed(policy);
        *lock(&probe.panic_in) = Some("sync");
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        eventually("the retried deadline sync", || {
            pipeline.stats().syncs == 1 && lock(&pipeline.shared.state).unsynced == 0
        });
        let log = lock(&probe.log).clone();
        let syncs = log.iter().filter(|(event, _)| *event == "sync").count();
        assert_eq!(syncs, 2, "one panicked, one retried: {log:?}");
        pipeline.commit(vec![kv(2)], "PUT").unwrap();
    }

    #[test]
    fn the_timer_meets_the_deadline_of_a_lone_commit() {
        let policy = DurabilityPolicy::Grouped {
            max_delay: Duration::from_millis(5),
            max_writes: 1000,
        };
        let (probe, _ledger, pipeline) = probed(policy);
        // The second round finds the timer asleep with no deadline: only the
        // wake-up that arming one sends gets it to the sync.
        for round in 1..=2 {
            lock(&probe.log).clear();
            pipeline.commit(vec![kv(round)], "PUT").unwrap();
            eventually("the deadline sync", || {
                pipeline.stats().syncs == u64::from(round)
                    && lock(&pipeline.shared.state).unsynced == 0
            });
            let log = lock(&probe.log).clone();
            let (_, syncer) = log.iter().find(|(event, _)| *event == "sync").unwrap();
            assert_eq!(syncer.as_deref(), Some("spitz-sync-timer"), "{log:?}");
        }
    }

    #[test]
    fn shutdown_waits_for_a_seal_before_its_final_sync() {
        let (probe, ledger, pipeline) = probed(DurabilityPolicy::Os);
        let held = lock(&probe.hold);
        std::thread::scope(|scope| {
            let sealing = scope.spawn(|| pipeline.commit(vec![kv(1)], "PUT"));
            eventually("the seal", || !lock(&probe.log).is_empty());
            let closing = scope.spawn(|| pipeline.shutdown());
            eventually("shutdown", || lock(&pipeline.shared.state).shutdown);
            assert!(
                matches!(
                    pipeline.commit(vec![kv(2)], "PUT"),
                    Err(StorageError::Closed)
                ),
                "a commit after shutdown is refused"
            );
            assert_eq!(pipeline.stats().syncs, 0, "no sync while the seal is held");
            drop(held);
            assert_eq!(sealing.join().unwrap().unwrap().block_height, 0);
            closing.join().unwrap();
        });
        let log = lock(&probe.log).clone();
        assert_eq!(log.last().map(|(event, _)| *event), Some("sync"), "{log:?}");
        assert_eq!(pipeline.stats().syncs, 1);
        assert_eq!(ledger.get(&kv(1).0), Some(kv(1).1));
        assert_eq!(ledger.get(&kv(2).0), None);
    }

    #[test]
    fn queue_depth_sums_parked_followers_across_pipelines() {
        let telemetry = TelemetryHandle::new();
        let shards: Vec<Probed> = (0..2)
            .map(|_| probed_with(DurabilityPolicy::Os, telemetry.clone()))
            .collect();
        let held: Vec<_> = shards.iter().map(|(probe, ..)| lock(&probe.hold)).collect();
        std::thread::scope(|scope| {
            for (probe, _, pipeline) in &shards {
                scope.spawn(move || pipeline.commit(vec![kv(1)], "PUT").unwrap());
                eventually("the leader's seal", || !lock(&probe.log).is_empty());
                scope.spawn(move || pipeline.commit(vec![kv(2)], "PUT").unwrap());
                eventually("a parked follower", || {
                    lock(&pipeline.shared.state).queue.len() == 1
                });
            }
            let depth = telemetry.snapshot().gauge("pipeline.queue_depth");
            drop(held);
            assert_eq!(depth, Some(2), "one follower parked on each pipeline");
        });
        assert_eq!(telemetry.snapshot().gauge("pipeline.queue_depth"), Some(0));
    }

    #[test]
    fn sequential_commits_publish_in_order() {
        let (ledger, pipeline) = pipeline(DurabilityPolicy::Strict);
        let d1 = pipeline.commit(vec![kv(1)], "PUT").unwrap();
        let d2 = pipeline.commit(vec![kv(2)], "PUT").unwrap();
        assert_eq!(d1.block_height, 0);
        assert_eq!(d2.block_height, 1);
        assert_eq!(ledger.get(&kv(1).0), Some(kv(1).1));
        assert_eq!(ledger.get(&kv(2).0), Some(kv(2).1));
        assert_eq!(ledger.audit_chain(), None);
        let stats = pipeline.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.flushes, 2);
    }

    #[test]
    fn concurrent_commits_coalesce_and_all_writes_land() {
        const THREADS: u32 = 8;
        const PUTS: u32 = 40;
        let (ledger, pipeline) = pipeline(DurabilityPolicy::grouped_default());
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..PUTS {
                        pipeline.commit(vec![kv(t * PUTS + i)], "PUT").unwrap();
                    }
                });
            }
        });
        assert_eq!(ledger.len() as u32, THREADS * PUTS);
        for i in 0..THREADS * PUTS {
            assert_eq!(ledger.get(&kv(i).0), Some(kv(i).1));
        }
        assert_eq!(ledger.audit_chain(), None);
        let stats = pipeline.stats();
        assert_eq!(stats.commits, (THREADS * PUTS) as u64);
        assert!(
            stats.flushes < stats.commits,
            "commits that overlap a seal must share a block: {stats:?}"
        );
    }

    #[test]
    fn flush_forces_a_sync_and_shutdown_rejects_later_commits() {
        let (_ledger, pipeline) = pipeline(DurabilityPolicy::Os);
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        let before = pipeline.stats().syncs;
        pipeline.flush().unwrap();
        assert!(pipeline.stats().syncs > before, "flush must fsync");

        pipeline.shutdown();
        assert!(matches!(
            pipeline.commit(vec![kv(2)], "PUT"),
            Err(StorageError::Closed)
        ));
        // Idempotent.
        pipeline.shutdown();
    }

    #[test]
    fn grouped_policy_syncs_after_the_write_threshold() {
        let policy = DurabilityPolicy::Grouped {
            max_delay: Duration::from_secs(3600), // never by time in this test
            max_writes: 5,
        };
        let (_ledger, pipeline) = pipeline(policy);
        for i in 0..12 {
            pipeline.commit(vec![kv(i)], "PUT").unwrap();
        }
        let stats = pipeline.stats();
        assert!(
            stats.syncs >= 2,
            "12 commits with max_writes=5 must have synced at least twice: {stats:?}"
        );
        assert!(
            stats.syncs < stats.commits,
            "grouped syncs must be amortized: {stats:?}"
        );
    }

    /// Run each of `followers` on its own thread, queued in this order
    /// behind a commit whose seal is held, then let the seal go. Returns
    /// the followers' results (a flush's: the digest after it).
    fn behind_a_held_seal(probed: &Probed, followers: &[Op]) -> Vec<Result<Digest, StorageError>> {
        let (probe, ledger, pipeline) = probed;
        let key = ledger.len() as u32;
        let held = lock(&probe.hold);
        lock(&probe.log).clear();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| pipeline.commit(vec![kv(key)], "PUT"));
            eventually("the leader's seal", || !lock(&probe.log).is_empty());
            let parked: Vec<_> = (1..)
                .zip(followers)
                .map(|(n, &op)| {
                    let follower = scope.spawn(move || match op {
                        Op::Commit => pipeline.commit(vec![kv(key + n)], "PUT"),
                        Op::Fence => pipeline.fence(),
                        Op::Flush => pipeline.flush().map(|()| ledger.digest()),
                    });
                    eventually("a parked follower", || {
                        lock(&pipeline.shared.state).queue.len() == n as usize
                    });
                    follower
                })
                .collect();
            drop(held);
            leader.join().unwrap().unwrap();
            parked.into_iter().map(|f| f.join().unwrap()).collect()
        })
    }

    #[test]
    fn fence_returns_a_quiesced_digest_without_forcing_a_sync() {
        let probed = probed(DurabilityPolicy::Strict);
        let (_, ledger, pipeline) = &probed;
        // Queued behind a commit, a fence is sealed in the commit's batch
        // and returns that block's digest.
        let queued = behind_a_held_seal(&probed, &[Op::Commit, Op::Fence]);
        let fenced = queued[1].clone().unwrap();
        assert_eq!(fenced, ledger.digest(), "fence must quiesce the queue");
        assert_eq!(queued[0].as_ref().ok(), Some(&fenced));
        // A batch of fences alone seals nothing and pays no fsync.
        for fenced in behind_a_held_seal(&probed, &[Op::Fence, Op::Fence]) {
            assert_eq!(fenced.unwrap(), ledger.digest());
        }
        // Fences are not commits; each Strict block pays one fsync.
        let stats = pipeline.stats();
        assert_eq!((stats.commits, stats.flushes, stats.syncs), (3, 3, 3));
        // Nor are flushes, which pay one more.
        behind_a_held_seal(&probed, &[Op::Flush])[0]
            .clone()
            .unwrap();
        let stats = pipeline.stats();
        assert_eq!((stats.commits, stats.flushes, stats.syncs), (4, 4, 5));
    }

    #[test]
    fn fence_never_predates_an_acknowledged_commit() {
        let (ledger, pipeline) = pipeline(DurabilityPolicy::Os);
        assert_eq!(pipeline.fence().unwrap(), ledger.digest());
        // Each fence finds the pipeline free and reads the digest directly;
        // `fence_returns_a_quiesced_digest_without_forcing_a_sync` queues
        // fences behind a seal.
        for i in 0..50 {
            let acked = pipeline.commit(vec![kv(i)], "PUT").unwrap();
            assert_eq!(pipeline.fence().unwrap(), acked);
        }
        pipeline.shutdown();
        assert!(matches!(pipeline.fence(), Err(StorageError::Closed)));
    }

    #[test]
    fn strict_policy_syncs_every_flush() {
        let (_ledger, pipeline) = pipeline(DurabilityPolicy::Strict);
        // Concurrent commits and fences: a block sealed for a follower's
        // batch pays its fsync as a leader's does, and a fence-only batch
        // seals no block.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..10 {
                        pipeline.commit(vec![kv(t * 10 + i)], "PUT").unwrap();
                        pipeline.fence().unwrap();
                    }
                });
            }
        });
        let stats = pipeline.stats();
        assert_eq!(stats.commits, 40);
        assert_eq!(stats.syncs, stats.flushes);
    }

    // ---------------------------------------------------------------------
    // Model check: the `PipelineState` decisions over every interleaving.
    //
    // Each caller, the timer thread and a shutdown are modelled by where
    // they are in the code above. Every step between two lock acquisitions
    // is one move, and every I/O (seal, fsync) may succeed or fail within a
    // budget. A depth-first search visits every reachable state and checks
    // the invariants after each move and at each dead end.
    // ---------------------------------------------------------------------

    /// The model's `Grouped` policy: two commits force an fsync.
    const MODEL_GROUPED: DurabilityPolicy = DurabilityPolicy::Grouped {
        max_delay: Duration::from_millis(2),
        max_writes: 2,
    };

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Commit,
        Fence,
        Flush,
    }

    /// One search: a policy, each caller's operations in order, and
    /// whether a shutdown runs alongside them.
    #[derive(Debug)]
    struct Scenario {
        policy: DurabilityPolicy,
        scripts: Vec<Vec<Op>>,
        shutdown: bool,
    }

    /// An operation's result; a digest is modelled by its block height.
    type Outcome = Result<u32, ()>;

    /// What a model ticket holds ([`Wake`] without the digest).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Woken {
        Seal,
        Done(Outcome),
    }

    /// A role holder's place in `Shared::lead`: seal, settle, fsync,
    /// release, then (no longer holding) acknowledge.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Stage {
        Seal,
        Settle,
        Sync,
        Release,
        Ack,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Caller {
        Idle,
        Parked,
        Leading(Stage, Vec<Pending<usize>>, Outcome),
    }

    /// The timer's place in `keep_time`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Timer {
        Awake,
        Asleep(Option<Instant>),
        Sync,
        Release,
        Exited,
    }

    /// The shutdown's place in `CommitPipeline::shutdown`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Closer {
        Idle,
        Parked,
        Sync,
        Release,
        Join,
        Done,
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Model {
        state: PipelineState<usize>,
        now: Instant,
        /// Per caller: its next operation, its place, and the highest
        /// commit acknowledged when its current operation began.
        callers: Vec<(usize, Caller, u32)>,
        /// Each caller's ticket, then the shutdown's.
        tickets: Vec<Option<Woken>>,
        timer: Option<Timer>,
        closer: Option<Closer>,
        /// Blocks sealed, the height the last fsync covered, and the
        /// highest commit acknowledged.
        height: u32,
        durable: u32,
        acked: u32,
        /// Commits counted toward `unsynced`, and commits fsyncs retired.
        counted: usize,
        retired: usize,
        final_sync: bool,
        /// What is left to spend on deadline passes and on failed I/O (a
        /// seal that errs or panics, or an fsync that errs).
        deadlines: u8,
        faults: u8,
    }

    type Move = ((&'static str, usize), Result<Model, String>);

    impl Model {
        fn new(scenario: &Scenario, now: Instant) -> Model {
            let callers = scenario.scripts.len();
            let grouped = matches!(scenario.policy, DurabilityPolicy::Grouped { .. });
            Model {
                state: PipelineState {
                    policy: scenario.policy,
                    ..PipelineState::default()
                },
                now,
                callers: vec![(0, Caller::Idle, 0); callers],
                tickets: vec![None; callers + 1],
                // As after its first tick: it learns of a deadline only by
                // being woken, the case a missing wake-up strands.
                timer: grouped.then_some(Timer::Asleep(None)),
                closer: scenario.shutdown.then_some(Closer::Idle),
                height: 0,
                durable: 0,
                acked: 0,
                counted: 0,
                retired: 0,
                final_sync: false,
                deadlines: 2,
                faults: 1,
            }
        }

        fn closer_id(&self) -> usize {
            self.callers.len()
        }

        fn grouped(&self) -> bool {
            matches!(self.state.policy, DurabilityPolicy::Grouped { .. })
        }

        fn wake_timer(&mut self) {
            if let Some(Timer::Asleep(_)) = self.timer {
                self.timer = Some(Timer::Awake);
            }
        }

        fn release(&mut self) -> Result<(), String> {
            match self.state.release(self.now) {
                Release::Handoff(waiter) if self.tickets[waiter].is_some() => {
                    Err(format!("the role was handed to {waiter}, already woken"))
                }
                Release::Handoff(waiter) => {
                    self.tickets[waiter] = Some(Woken::Seal);
                    Ok(())
                }
                Release::Free(wake_timer) => {
                    if wake_timer {
                        self.wake_timer();
                    }
                    Ok(())
                }
            }
        }

        /// One fsync, as `Shared::sync` runs it. Only the role holder
        /// counts or retires commits, so reading `covered` and retiring it
        /// can be one move.
        fn sync(&mut self, fails: bool) -> Result<bool, String> {
            if self.final_sync {
                return Err("an fsync ran after shutdown's final sync".into());
            }
            if fails {
                self.faults -= 1;
                return Ok(false);
            }
            let covered = self.state.unsynced;
            self.state.synced(covered);
            self.retired += covered;
            self.durable = self.height;
            Ok(true)
        }

        /// Caller `i`'s current operation returns `outcome`.
        fn finish(
            &mut self,
            scenario: &Scenario,
            i: usize,
            outcome: Outcome,
        ) -> Result<(), String> {
            let (next, _, floor) = self.callers[i];
            match (scenario.scripts[i][next], outcome) {
                (Op::Commit, Ok(height)) => {
                    if self.state.policy == DurabilityPolicy::Strict && self.durable < height {
                        return Err(format!("caller {i}: Strict acknowledged before its fsync"));
                    }
                    self.acked = self.acked.max(height);
                }
                (Op::Fence, Ok(height)) if height < floor => {
                    return Err(format!(
                        "caller {i}: a fence returned height {height}, older than \
                         commit {floor} acknowledged before it began"
                    ));
                }
                (Op::Flush, Ok(_)) if self.durable < floor => {
                    return Err(format!(
                        "caller {i}: a flush returned before commit {floor} was fsynced"
                    ));
                }
                _ => {}
            }
            self.callers[i] = (next + 1, Caller::Idle, 0);
            Ok(())
        }

        fn arrive(&mut self, scenario: &Scenario, i: usize, op: Op) -> Result<(), String> {
            // A model commit carries no bytes: only `Some` makes it a commit.
            let commit = (op == Op::Commit).then(|| (Vec::new(), String::new()));
            let pending = Pending {
                waiter: i,
                commit,
                sync: op == Op::Flush,
            };
            self.callers[i].2 = self.acked;
            let closing = !matches!(self.closer, None | Some(Closer::Idle));
            match self.state.arrive(pending) {
                Arrival::Closed if closing => self.finish(scenario, i, Err(())),
                Arrival::Closed => Err(format!("caller {i}: refused before shutdown")),
                _ if closing => Err(format!("caller {i}: {op:?} accepted after shutdown")),
                Arrival::Answer => {
                    let height = self.height;
                    self.finish(scenario, i, Ok(height))
                }
                Arrival::Lead(batch) => {
                    self.callers[i].1 = Caller::Leading(Stage::Seal, batch, Ok(0));
                    Ok(())
                }
                Arrival::Follow => {
                    self.callers[i].1 = Caller::Parked;
                    Ok(())
                }
            }
        }

        fn moves(&self, scenario: &Scenario) -> Vec<Move> {
            let mut out = Vec::new();
            for i in 0..self.callers.len() {
                self.caller_moves(scenario, i, &mut out);
            }
            self.timer_moves(&mut out);
            self.closer_moves(&mut out);
            if let Some(deadline) = self.state.sync_deadline {
                if self.deadlines > 0 && deadline > self.now {
                    let mut m = self.clone();
                    m.now = deadline;
                    m.deadlines -= 1;
                    if let Some(Timer::Asleep(Some(until))) = m.timer {
                        if until <= m.now {
                            m.timer = Some(Timer::Awake);
                        }
                    }
                    out.push((("deadline passes", 0), Ok(m)));
                }
            }
            out
        }

        fn caller_moves(&self, scenario: &Scenario, i: usize, out: &mut Vec<Move>) {
            let (next, caller, _) = &self.callers[i];
            match (caller, self.tickets[i]) {
                (Caller::Idle, _) if *next == scenario.scripts[i].len() => return,
                (Caller::Parked, None) => return,
                (Caller::Leading(stage, batch, outcome), _) => {
                    return self.lead_moves(i, *stage, batch, *outcome, scenario, out);
                }
                _ => {}
            }
            let mut m = self.clone();
            let result = match (caller, self.tickets[i]) {
                (Caller::Parked, Some(Woken::Done(outcome))) => {
                    m.tickets[i] = None;
                    m.finish(scenario, i, outcome)
                }
                (Caller::Parked, Some(Woken::Seal)) => {
                    m.tickets[i] = None;
                    let batch = std::mem::take(&mut m.state.queue);
                    if batch.first().map(|head| head.waiter) == Some(i) {
                        m.callers[i].1 = Caller::Leading(Stage::Seal, batch, Ok(0));
                        Ok(())
                    } else {
                        Err(format!("caller {i} was handed the role but heads no queue"))
                    }
                }
                _ => m.arrive(scenario, i, scenario.scripts[i][*next]),
            };
            out.push((("caller", i), result.map(|()| m)));
        }

        fn lead_moves(
            &self,
            i: usize,
            stage: Stage,
            batch: &[Pending<usize>],
            outcome: Outcome,
            scenario: &Scenario,
            out: &mut Vec<Move>,
        ) {
            let commits = batch.iter().filter(|p| p.commit.is_some()).count();
            let force = batch.iter().any(|p| p.sync);
            let at = |m: &mut Model, stage, outcome| {
                m.callers[i].1 = Caller::Leading(stage, batch.to_vec(), outcome);
            };
            let can_fail = match stage {
                Stage::Seal => commits > 0 && self.faults > 0,
                Stage::Sync => self.faults > 0,
                _ => false,
            };
            for fails in [false, true] {
                if fails && !can_fail {
                    break;
                }
                let mut m = self.clone();
                let result = match stage {
                    Stage::Seal if self.final_sync => {
                        Err("a block was sealed after shutdown".into())
                    }
                    Stage::Seal if fails => {
                        m.faults -= 1;
                        at(&mut m, Stage::Release, Err(()));
                        Ok(())
                    }
                    Stage::Seal => {
                        m.height += u32::from(commits > 0);
                        let height = m.height;
                        at(&mut m, Stage::Settle, Ok(height));
                        Ok(())
                    }
                    Stage::Settle => {
                        let (sync, arm) = m.state.settle(commits, force, m.now);
                        if m.grouped() {
                            m.counted += commits;
                        }
                        if arm {
                            m.wake_timer();
                        }
                        if sync && commits == 0 && !force && !m.grouped() {
                            Err("a fence paid for an fsync".into())
                        } else {
                            at(
                                &mut m,
                                if sync { Stage::Sync } else { Stage::Release },
                                outcome,
                            );
                            Ok(())
                        }
                    }
                    Stage::Sync => m.sync(fails).map(|synced| {
                        at(
                            &mut m,
                            Stage::Release,
                            if synced { outcome } else { Err(()) },
                        );
                    }),
                    Stage::Release => m.release().map(|()| at(&mut m, Stage::Ack, outcome)),
                    Stage::Ack
                        if scenario.policy == DurabilityPolicy::Strict
                            && commits > 0
                            && outcome.is_ok_and(|height| m.durable < height) =>
                    {
                        Err("Strict acknowledged a batch before its fsync".into())
                    }
                    Stage::Ack => {
                        for pending in &batch[1..] {
                            m.tickets[pending.waiter] = Some(Woken::Done(outcome));
                        }
                        m.finish(scenario, i, outcome)
                    }
                };
                out.push((
                    (if fails { "lead, failing" } else { "lead" }, i),
                    result.map(|()| m),
                ));
            }
        }

        fn timer_moves(&self, out: &mut Vec<Move>) {
            let can_fail = match self.timer {
                Some(Timer::Sync) => self.faults > 0,
                Some(Timer::Awake | Timer::Release) => false,
                _ => return,
            };
            for fails in [false, true] {
                if fails && !can_fail {
                    break;
                }
                let mut m = self.clone();
                let result = match self.timer {
                    Some(Timer::Sync) => m.sync(fails).map(|synced| {
                        if !synced {
                            m.state.sync_deadline = Some(m.now + Duration::from_millis(2));
                        }
                        m.timer = Some(Timer::Release);
                    }),
                    Some(Timer::Awake) => {
                        m.timer = Some(match m.state.tick(m.now) {
                            Tick::Exit => Timer::Exited,
                            Tick::Sleep(timeout) => Timer::Asleep(m.now.checked_add(timeout)),
                            Tick::Sync => Timer::Sync,
                        });
                        Ok(())
                    }
                    _ => m.release().map(|()| m.timer = Some(Timer::Awake)),
                };
                out.push((("timer", 0), result.map(|()| m)));
            }
        }

        fn closer_moves(&self, out: &mut Vec<Move>) {
            let id = self.closer_id();
            let can_fail = match self.closer {
                Some(Closer::Sync) => self.faults > 0,
                Some(Closer::Parked) if self.tickets[id].is_none() => return,
                Some(Closer::Join) if !matches!(self.timer, None | Some(Timer::Exited)) => return,
                Some(Closer::Done) | None => return,
                _ => false,
            };
            for fails in [false, true] {
                if fails && !can_fail {
                    break;
                }
                let mut m = self.clone();
                let result = match self.closer {
                    Some(Closer::Sync) => m.sync(fails).map(|_| {
                        m.final_sync = true;
                        m.closer = Some(Closer::Release);
                    }),
                    Some(Closer::Idle) => {
                        let arrival = m.state.close(id);
                        m.wake_timer();
                        m.closer = match arrival {
                            Arrival::Lead(_) => Some(Closer::Sync),
                            Arrival::Follow => Some(Closer::Parked),
                            Arrival::Closed | Arrival::Answer => None,
                        };
                        match m.closer {
                            Some(_) => Ok(()),
                            None => Err("a lone shutdown was refused".into()),
                        }
                    }
                    Some(Closer::Parked) => match self.tickets[id] {
                        Some(Woken::Seal) => {
                            m.tickets[id] = None;
                            m.closer = Some(Closer::Sync);
                            Ok(())
                        }
                        _ => Err("shutdown was acknowledged, not handed the role".into()),
                    },
                    Some(Closer::Release) => match m.state.release(m.now) {
                        Release::Free(wake_timer) => {
                            if wake_timer {
                                m.wake_timer();
                            }
                            m.closer = Some(Closer::Join);
                            Ok(())
                        }
                        Release::Handoff(waiter) => Err(format!(
                            "shutdown handed the role to {waiter} after its final sync"
                        )),
                    },
                    _ => {
                        m.closer = Some(Closer::Done);
                        Ok(())
                    }
                };
                out.push((("shutdown", id), result.map(|()| m)));
            }
        }

        /// The invariants every reachable state keeps.
        fn check(&self) -> Result<(), String> {
            let handed = |id: usize| self.tickets[id] == Some(Woken::Seal);
            let mut holders = Vec::new();
            for (i, (_, caller, _)) in self.callers.iter().enumerate() {
                match caller {
                    Caller::Leading(stage, ..) if *stage != Stage::Ack => holders.push(i),
                    Caller::Parked if handed(i) => holders.push(i),
                    _ => {}
                }
            }
            if matches!(self.timer, Some(Timer::Sync | Timer::Release)) {
                holders.push(usize::MAX);
            }
            let id = self.closer_id();
            match self.closer {
                Some(Closer::Sync | Closer::Release) => holders.push(id),
                Some(Closer::Parked) if handed(id) => holders.push(id),
                _ => {}
            }
            if holders.len() > 1 {
                return Err(format!("more than one role holder: {holders:?}"));
            }
            if self.state.sealing != (holders.len() == 1) {
                return Err(format!(
                    "the role flag disagrees with its holders {holders:?}"
                ));
            }
            if !self.state.sealing && !self.state.queue.is_empty() {
                return Err("the role is free while callers are queued".into());
            }
            if self.grouped() && self.state.unsynced != self.counted - self.retired {
                return Err(format!(
                    "unsynced is {} but {} counted commits were never fsynced",
                    self.state.unsynced,
                    self.counted - self.retired
                ));
            }
            if self.state.unsynced > 0 && self.state.sync_deadline.is_none() {
                return Err("unsynced commits with no deadline".into());
            }
            Ok(())
        }

        /// What must hold once nothing can move.
        fn check_end(&self) -> Result<(), String> {
            if let Some(i) = self.callers.iter().position(|(_, c, _)| *c != Caller::Idle) {
                return Err(format!("caller {i} is stranded"));
            }
            if self.closer.is_some_and(|closer| closer != Closer::Done) {
                return Err("shutdown is stranded".into());
            }
            if !self.state.shutdown && self.state.sync_due(self.now) {
                return Err("a passed deadline was never met".into());
            }
            Ok(())
        }
    }

    struct Search<'a> {
        scenario: &'a Scenario,
        /// The 64-bit hashes of the states visited (cheaper than the states
        /// in a debug build; a collision would skip one state).
        seen: HashSet<u64>,
        hasher: RandomState,
        path: Vec<(&'static str, usize)>,
        /// The most commits one seal carried, and the hand-offs taken.
        widest_batch: usize,
        handoffs: usize,
    }

    impl Search<'_> {
        fn visit(&mut self, model: Model) {
            let moves = model.moves(self.scenario);
            if moves.is_empty() {
                if let Err(broken) = model.check_end() {
                    self.fail(&broken, &model);
                }
            }
            for (label, next) in moves {
                self.path.push(label);
                match next.and_then(|next| next.check().map(|()| next)) {
                    Err(broken) => self.fail(&broken, &model),
                    Ok(next) if self.seen.insert(self.hasher.hash_one(&next)) => {
                        for (_, caller, _) in &next.callers {
                            if let Caller::Leading(Stage::Seal, batch, _) = caller {
                                let commits = batch.iter().filter(|p| p.commit.is_some()).count();
                                self.widest_batch = self.widest_batch.max(commits);
                            }
                        }
                        if next.tickets.contains(&Some(Woken::Seal)) {
                            self.handoffs += 1;
                        }
                        self.visit(next);
                    }
                    Ok(_) => {}
                }
                self.path.pop();
            }
        }

        fn fail(&self, broken: &str, model: &Model) -> ! {
            panic!(
                "{broken}\nin {:?}\nafter {:?}\nfrom {model:#?}",
                self.scenario, self.path
            );
        }
    }

    /// Each policy runs four caller scripts, two of them also with a
    /// shutdown alongside: there it meets every kind of operation, and a
    /// caller whose second commit comes after it.
    fn scenarios() -> Vec<Scenario> {
        use Op::{Commit, Fence, Flush};
        let scripts = [
            (vec![vec![Commit], vec![Commit], vec![Commit]], false),
            (vec![vec![Commit], vec![Fence], vec![Flush]], true),
            (vec![vec![Commit, Fence], vec![Commit, Flush]], false),
            (vec![vec![Commit, Commit], vec![Fence, Commit]], true),
        ];
        let mut scenarios = Vec::new();
        for policy in [
            DurabilityPolicy::Strict,
            MODEL_GROUPED,
            DurabilityPolicy::Os,
        ] {
            for (scripts, with_shutdown) in &scripts {
                let shutdowns: &[bool] = if *with_shutdown {
                    &[false, true]
                } else {
                    &[false]
                };
                for &shutdown in shutdowns {
                    scenarios.push(Scenario {
                        policy,
                        scripts: scripts.clone(),
                        shutdown,
                    });
                }
            }
        }
        scenarios
    }

    /// Every interleaving of 2–3 callers (commits, fences, flushes), the
    /// timer, a shutdown, one failing (or panicking) seal or failing fsync
    /// and two deadline passes keeps these invariants:
    ///
    /// * at most one role holder, and the role flag names it;
    /// * no caller or shutdown is left parked (nor the queue left behind a
    ///   free role);
    /// * no `Strict` acknowledgement before its fsync, and no flush
    ///   returns before the commits acknowledged ahead of it are fsynced;
    /// * `unsynced` equals the counted commits no fsync has retired;
    /// * no commit, fence or flush is accepted after shutdown, and no seal
    ///   or fsync follows shutdown's final sync;
    /// * a fence never returns a digest older than a commit acknowledged
    ///   before the fence began, and never pays for an fsync under `Strict`
    ///   or `Os` (under `Grouped` a fence-only batch may pay for the fsync
    ///   of a deadline that has passed);
    /// * a passed deadline is always met, by a commit or by the timer.
    #[test]
    fn every_interleaving_keeps_the_pipeline_invariants() {
        let start = Instant::now();
        let (mut states, mut widest_batch, mut handoffs) = (0, 0, 0);
        let scenarios = scenarios();
        for scenario in &scenarios {
            let model = Model::new(scenario, start);
            let hasher = RandomState::new();
            let mut search = Search {
                scenario,
                seen: HashSet::from([hasher.hash_one(&model)]),
                hasher,
                path: Vec::new(),
                widest_batch: 0,
                handoffs: 0,
            };
            search.visit(model);
            states += search.seen.len();
            widest_batch = widest_batch.max(search.widest_batch);
            handoffs += search.handoffs;
        }
        println!(
            "pipeline model: {states} states over {} scenarios in {:?}",
            scenarios.len(),
            start.elapsed()
        );
        assert!(widest_batch >= 2, "no interleaving coalesced two commits");
        assert!(handoffs > 0, "no interleaving handed the role on");
    }
}
