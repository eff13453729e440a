//! Group-commit pipeline: coalesce concurrent commits into shared blocks
//! and amortize `fsync` across them.
//!
//! Without the pipeline every `ShardedDb::put` seals its own ledger block and
//! pays the full durability ceremony (an `fsync` per commit in strict
//! setups). A commit that finds the [`CommitPipeline`] idle — nothing
//! queued, no block being sealed — seals its block on the caller's own
//! thread: there is nothing to coalesce it with, and a hop to another
//! thread and back would cost two scheduler wake-ups. Commits that arrive
//! while a block is being sealed enqueue their writes and park on a ticket,
//! and a background *committer* thread drains everything queued into
//! **one** sealed block per flush (one index-root update, one block chunk,
//! one head-root record in the storage log — see `spitz_storage::durable`
//! for the log-embedded root publication that replaced the per-commit
//! manifest rewrite). Every caller of the flush wakes with the same
//! published [`Digest`]. The committer also times the `Grouped` fsync
//! deadline and runs the shutdown drain.
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
//! [`CommitPipeline::flush`] inserts a barrier that drains the queue and
//! forces an fsync regardless of policy; [`CommitPipeline::shutdown`]
//! drains, syncs and joins the committer (also run on drop), so a clean
//! process exit never loses acknowledged work under any policy.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spitz_obs::TelemetryHandle;
use spitz_storage::{ChunkStore, StorageError};

use crate::ledger::{CommitGroup, Digest, Ledger};

/// When a commit acknowledged by the pipeline is guaranteed to be on stable
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
    /// met by the committer thread.
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

/// A parked caller's rendezvous: the committer fills the slot, the caller
/// sleeps on the condvar until it does.
struct Ticket {
    slot: Mutex<Option<Result<Digest, StorageError>>>,
    ready: Condvar,
}

impl Ticket {
    fn new() -> Arc<Ticket> {
        Arc::new(Ticket {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<Digest, StorageError>) {
        let mut slot = lock(&self.slot);
        *slot = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Digest, StorageError> {
        let mut slot = lock(&self.slot);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = wait(&self.ready, slot);
        }
    }
}

/// One enqueued commit (or flush/fence barrier) awaiting the committer. A
/// barrier carries no writes and is not counted as a commit; it is
/// fulfilled with the digest at the quiesced point after everything queued
/// before it has been sealed.
struct Pending {
    writes: Vec<(Vec<u8>, Vec<u8>)>,
    statement: String,
    ticket: Arc<Ticket>,
    /// Forces an fsync when this entry's batch flushes (flush barriers;
    /// fence barriers quiesce without paying for durability).
    sync: bool,
}

#[derive(Default)]
struct PipelineState {
    queue: Vec<Pending>,
    /// A block is being sealed — by a caller on its own thread or by the
    /// committer — or the committer is syncing. Whoever set it clears it.
    in_flight: bool,
    shutdown: bool,
    /// Commits acknowledged but not yet fsynced (Grouped only), and the
    /// wall-clock deadline by which they must be.
    unsynced: usize,
    sync_deadline: Option<Instant>,
}

impl PipelineState {
    /// Nothing queued, nothing in flight, not shut down: the caller may
    /// act on its own thread.
    fn idle(&self) -> bool {
        self.queue.is_empty() && !self.in_flight && !self.shutdown
    }

    fn sync_due(&self, now: Instant) -> bool {
        self.sync_deadline.is_some_and(|deadline| now >= deadline)
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
    policy: DurabilityPolicy,
    state: Mutex<PipelineState>,
    /// Signals the committer that work, a sync deadline or shutdown is
    /// pending.
    work: Condvar,
    stats: AtomicPipelineStats,
    obs: PipelineObs,
}

impl Shared {
    fn count_commit(&self) {
        self.stats
            .commits
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.obs.commits.inc();
    }

    /// Seal `groups` into one block (none: just read the digest) and apply
    /// the durability policy before anyone is acknowledged. `force` (a
    /// flush barrier or shutdown) demands an fsync. The caller holds
    /// `in_flight`.
    fn flush(&self, groups: Vec<CommitGroup>, force: bool) -> Result<Digest, StorageError> {
        let commits = groups.len();
        let digest = if commits == 0 {
            self.ledger.digest()
        } else {
            self.seal(groups)?
        };
        self.settle(commits, force)?;
        Ok(digest)
    }

    /// Seal `groups` into one block. Panics that escape the append (index
    /// writes route through `try_put`, but a corrupt node read or a bug in
    /// an index implementation can still unwind) are contained: a poisoned
    /// commit must surface as an error to every caller it carries, never
    /// as a dead committer thread that would leave all present and future
    /// callers parked forever, nor as a caller that never releases
    /// `in_flight`.
    fn seal(&self, groups: Vec<CommitGroup>) -> Result<Digest, StorageError> {
        self.stats
            .flushes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.obs.flushes.inc();
        self.obs.policy_flushes.inc();
        self.obs.group_size.record(groups.len() as u64);
        let flush_start = self.obs.flush_nanos.start();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
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
        }))
        .unwrap_or_else(|panic| {
            let reason = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "commit panicked".to_string());
            Err(StorageError::io_synthetic(
                spitz_storage::IoErrorKind::Other,
                "commit",
                format!("commit aborted: {reason}"),
            ))
        });
        self.obs.flush_nanos.finish(flush_start);
        result
    }

    /// Count `commits` just sealed against the policy and fsync if it
    /// says so.
    fn settle(&self, commits: usize, force: bool) -> Result<(), StorageError> {
        let need_sync = match self.policy {
            DurabilityPolicy::Strict => commits > 0 || force,
            DurabilityPolicy::Os => force,
            DurabilityPolicy::Grouped {
                max_delay,
                max_writes,
            } => {
                let now = Instant::now();
                let mut state = lock(&self.state);
                state.unsynced += commits;
                if state.unsynced > 0 && state.sync_deadline.is_none() {
                    state.sync_deadline = Some(now + max_delay);
                    // The committer times the deadline in case no later
                    // commit arrives to meet it.
                    self.work.notify_one();
                }
                force || state.unsynced >= max_writes || state.sync_due(now)
            }
        };
        if need_sync {
            self.sync()?;
        }
        Ok(())
    }

    /// `fsync` the store and retire the commits it covers.
    fn sync(&self) -> Result<(), StorageError> {
        let covered = lock(&self.state).unsynced;
        self.ledger.store().sync()?;
        self.stats
            .syncs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.obs.syncs.inc();
        let mut state = lock(&self.state);
        // Subtract rather than zero: a commit counted once the fsync had
        // started is not covered by it.
        state.unsynced -= covered;
        if state.unsynced == 0 {
            state.sync_deadline = None;
        }
        Ok(())
    }

    /// Clear `in_flight` after a caller-thread commit, and hand the
    /// committer whatever arrived meanwhile: queued commits, a shutdown
    /// waiting for this seal, or a sync deadline that passed during it.
    fn release(&self) {
        let mut state = lock(&self.state);
        state.in_flight = false;
        if !state.queue.is_empty() || state.shutdown || state.sync_due(Instant::now()) {
            self.work.notify_one();
        }
    }
}

/// Releases `in_flight` when a caller-thread commit ends, however it ends.
struct InlineCommit<'a>(&'a Shared);

impl Drop for InlineCommit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Group-commit pipeline over a [`Ledger`].
pub struct CommitPipeline {
    shared: Arc<Shared>,
    committer: Mutex<Option<JoinHandle<()>>>,
}

/// Lock a mutex, transparently recovering from poisoning (a panicked
/// committer must not wedge every caller).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Condvar wait with the same poison recovery.
fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar
        .wait(guard)
        .unwrap_or_else(|poison| poison.into_inner())
}

impl CommitPipeline {
    /// Spawn the committer thread over `ledger` with the given policy.
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
            policy,
            state: Mutex::new(PipelineState::default()),
            work: Condvar::new(),
            stats: AtomicPipelineStats::default(),
            obs: PipelineObs::new(&telemetry, policy),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("spitz-committer".into())
                .spawn(move || committer_loop(shared))
                .expect("spawn committer thread")
        };
        Arc::new(CommitPipeline {
            shared,
            committer: Mutex::new(Some(committer)),
        })
    }

    /// The policy the pipeline was built with.
    pub fn policy(&self) -> DurabilityPolicy {
        self.shared.policy
    }

    /// Counters since creation.
    pub fn stats(&self) -> PipelineStats {
        use std::sync::atomic::Ordering::Relaxed;
        PipelineStats {
            commits: self.shared.stats.commits.load(Relaxed),
            flushes: self.shared.stats.flushes.load(Relaxed),
            syncs: self.shared.stats.syncs.load(Relaxed),
        }
    }

    /// Commit a batch of writes, blocking until it is published (and, under
    /// [`DurabilityPolicy::Strict`], durable). On an idle pipeline the block
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
        let mut state = lock(&self.shared.state);
        if !state.idle() {
            drop(state);
            return self.enqueue(writes, statement, false, false).wait();
        }
        state.in_flight = true;
        drop(state);
        self.shared.count_commit();
        let _release = InlineCommit(&self.shared);
        let groups = if writes.is_empty() {
            Vec::new()
        } else {
            vec![(writes, statement.to_string())]
        };
        self.shared.flush(groups, false)
    }

    /// Drain every queued commit and force an `fsync`, regardless of
    /// policy. On return, everything committed before this call is on
    /// stable storage.
    pub fn flush(&self) -> Result<(), StorageError> {
        self.enqueue(Vec::new(), "FLUSH", true, true)
            .wait()
            .map(|_| ())
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
    /// An idle pipeline (nothing queued, no batch in flight) is already
    /// quiesced, so the fence answers from the calling thread: a hop to the
    /// committer and back costs two scheduler wake-ups, and on a read-mostly
    /// store that wait — not the work — decided every snapshot's latency.
    pub fn fence(&self) -> Result<Digest, StorageError> {
        {
            // Holding the state lock keeps a commit from slipping in between
            // the idleness check and the digest read.
            let state = lock(&self.shared.state);
            if state.idle() {
                return Ok(self.shared.ledger.digest());
            }
        }
        self.enqueue(Vec::new(), "FENCE", true, false).wait()
    }

    fn enqueue(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
        barrier: bool,
        sync: bool,
    ) -> FlushWait {
        let ticket = Ticket::new();
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            ticket.fulfill(Err(StorageError::Closed));
        } else {
            if !barrier {
                self.shared.count_commit();
            }
            state.queue.push(Pending {
                writes,
                statement: statement.to_string(),
                ticket: Arc::clone(&ticket),
                sync,
            });
            self.shared.obs.queue_depth.set(state.queue.len() as i64);
            // Whoever holds `in_flight` hands the queue on when done.
            if !state.in_flight {
                self.shared.work.notify_one();
            }
        }
        drop(state);
        FlushWait(ticket)
    }

    /// Drain the queue, fsync outstanding work and stop the committer
    /// thread. A commit already being sealed on a caller's thread finishes
    /// first; further commits fail with [`StorageError::Closed`].
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_one();
        }
        if let Some(handle) = lock(&self.committer).take() {
            let _ = handle.join();
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
            .field("policy", &self.shared.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Handle returned by `enqueue`; waits for the committer to fulfill the
/// ticket.
struct FlushWait(Arc<Ticket>);

impl FlushWait {
    fn wait(self) -> Result<Digest, StorageError> {
        self.0.wait()
    }
}

/// How long to wait before retrying a failed background fsync.
fn sync_retry_delay(policy: DurabilityPolicy) -> Duration {
    match policy {
        DurabilityPolicy::Grouped { max_delay, .. } => max_delay,
        _ => Duration::from_millis(100),
    }
}

/// The committer: drain → seal one block → apply the durability policy →
/// wake the batch. It takes the queue only while no caller is sealing on
/// its own thread.
fn committer_loop(shared: Arc<Shared>) {
    loop {
        // Wait for work, a shutdown, or (Grouped) a sync deadline.
        let (mut batch, shutting_down) = {
            let mut state = lock(&shared.state);
            loop {
                let now = Instant::now();
                if !state.in_flight
                    && (!state.queue.is_empty() || state.shutdown || state.sync_due(now))
                {
                    state.in_flight = true;
                    break (std::mem::take(&mut state.queue), state.shutdown);
                }
                // Time the deadline even while a caller seals; once it has
                // passed, that caller's release wakes us.
                state = match state.sync_deadline {
                    Some(deadline) if now < deadline => {
                        shared
                            .work
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(|poison| poison.into_inner())
                            .0
                    }
                    _ => wait(&shared.work, state),
                };
            }
        };

        if batch.is_empty() {
            // Deadline-only wakeup, or shutdown (which always takes a final
            // sync, so even Os-policy work is on disk after a clean exit).
            match shared.sync() {
                Ok(()) => {}
                Err(_) if !shutting_down => {
                    // Keep the unsynced count and retry after a delay:
                    // resetting it here would silently void the
                    // bounded-loss guarantee. A flush() barrier (or the
                    // next batch's forced sync) surfaces the error to a
                    // caller.
                    lock(&shared.state).sync_deadline =
                        Some(Instant::now() + sync_retry_delay(shared.policy));
                }
                // Shutting down: best effort; the store's drop-time flush
                // retries once more.
                Err(_) => {}
            }
            lock(&shared.state).in_flight = false;
            if shutting_down {
                return;
            }
            continue;
        }
        shared.obs.queue_depth.set(0);

        // Seal every queued commit into one block. The payloads are moved
        // out of the pendings (only the tickets are needed afterwards), so
        // coalescing copies no write bytes.
        let groups: Vec<CommitGroup> = batch
            .iter_mut()
            .filter(|p| !p.writes.is_empty())
            .map(|p| {
                (
                    std::mem::take(&mut p.writes),
                    std::mem::take(&mut p.statement),
                )
            })
            .collect();
        let force = shutting_down || batch.iter().any(|p| p.sync);
        let result = shared.flush(groups, force);

        // Free the pipeline before waking the batch, so a woken caller's
        // next commit finds it idle.
        lock(&shared.state).in_flight = false;
        for pending in batch {
            pending.ticket.fulfill(result.clone());
        }
        if shutting_down {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::Hash;
    use spitz_storage::{Chunk, InMemoryChunkStore, StoreStats};
    use std::sync::atomic::{AtomicBool, Ordering};

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
    /// the next put.
    #[derive(Default)]
    struct Probe {
        inner: InMemoryChunkStore,
        log: Mutex<Vec<(&'static str, Option<String>)>>,
        hold: Mutex<()>,
        panic_next: AtomicBool,
    }

    impl Probe {
        fn record(&self, event: &'static str) {
            let thread = std::thread::current().name().map(str::to_string);
            lock(&self.log).push((event, thread));
        }
    }

    impl ChunkStore for Probe {
        fn put(&self, chunk: Chunk) -> Hash {
            self.record("put");
            drop(lock(&self.hold));
            if self.panic_next.swap(false, Ordering::SeqCst) {
                panic!("probe put");
            }
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

    fn probed(policy: DurabilityPolicy) -> (Arc<Probe>, Arc<Ledger>, Arc<CommitPipeline>) {
        let probe = Arc::new(Probe::default());
        let ledger = Arc::new(Ledger::new(Arc::clone(&probe) as Arc<dyn ChunkStore>));
        let pipeline = CommitPipeline::new(Arc::clone(&ledger), policy);
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

    #[test]
    fn an_idle_pipeline_commits_on_the_callers_thread() {
        let (probe, _ledger, pipeline) = probed(DurabilityPolicy::Strict);
        let caller = std::thread::current().name().map(str::to_string);
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        let log = lock(&probe.log).clone();
        assert!(log.iter().any(|(event, _)| *event == "sync"), "{log:?}");
        assert!(log.iter().all(|(_, thread)| *thread == caller), "{log:?}");
        assert_eq!(pipeline.stats().syncs, 1);
    }

    #[test]
    fn a_panic_in_a_callers_seal_is_an_error_and_frees_the_pipeline() {
        let (probe, ledger, pipeline) = probed(DurabilityPolicy::Strict);
        probe.panic_next.store(true, Ordering::SeqCst);
        let failed = pipeline.commit(vec![kv(1)], "PUT");
        assert!(
            matches!(&failed, Err(e) if e.to_string().contains("probe put")),
            "{failed:?}"
        );
        assert!(lock(&pipeline.shared.state).idle(), "in_flight released");
        let digest = pipeline.commit(vec![kv(2)], "PUT").unwrap();
        assert_eq!(digest.block_height, 0);
        assert_eq!(ledger.get(&kv(1).0), None);
        assert_eq!(ledger.get(&kv(2).0), Some(kv(2).1));
        assert_eq!(ledger.audit_chain(), None);
    }

    #[test]
    fn the_committer_meets_the_deadline_of_a_lone_inline_commit() {
        let policy = DurabilityPolicy::Grouped {
            max_delay: Duration::from_millis(5),
            max_writes: 1000,
        };
        let (probe, _ledger, pipeline) = probed(policy);
        // A barrier round trip first, so the committer is already waiting
        // with no deadline when the inline commit arms one.
        pipeline.flush().unwrap();
        lock(&probe.log).clear();
        let before = pipeline.stats().syncs;
        pipeline.commit(vec![kv(1)], "PUT").unwrap();
        eventually("the deadline sync", || pipeline.stats().syncs > before);
        let log = lock(&probe.log).clone();
        let (_, syncer) = log.iter().find(|(event, _)| *event == "sync").unwrap();
        assert_eq!(syncer.as_deref(), Some("spitz-committer"), "{log:?}");
        assert_eq!(lock(&pipeline.shared.state).unsynced, 0);
    }

    #[test]
    fn shutdown_waits_for_an_inline_seal_before_its_final_sync() {
        let (probe, ledger, pipeline) = probed(DurabilityPolicy::Os);
        let held = lock(&probe.hold);
        std::thread::scope(|scope| {
            let sealing = scope.spawn(|| pipeline.commit(vec![kv(1)], "PUT"));
            eventually("the inline seal", || !lock(&probe.log).is_empty());
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

    #[test]
    fn fence_returns_a_quiesced_digest_without_forcing_a_sync() {
        let (ledger, pipeline) = pipeline(DurabilityPolicy::Os);
        // Enqueue a burst of commits from several threads, then fence: the
        // returned digest must be the exact digest of the drained ledger.
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..25 {
                        pipeline.commit(vec![kv(t * 25 + i)], "PUT").unwrap();
                    }
                });
            }
        });
        let before = pipeline.stats().syncs;
        let fenced = pipeline.fence().unwrap();
        assert_eq!(fenced, ledger.digest(), "fence must quiesce the queue");
        assert_eq!(ledger.len(), 100);
        assert_eq!(
            pipeline.stats().syncs,
            before,
            "a fence must not pay for an fsync"
        );
        // Fences are not commits.
        assert_eq!(pipeline.stats().commits, 100);
    }

    #[test]
    fn fence_never_predates_an_acknowledged_commit() {
        let (ledger, pipeline) = pipeline(DurabilityPolicy::Os);
        assert_eq!(pipeline.fence().unwrap(), ledger.digest());
        // The committer may or may not have gone idle again when the fence
        // arrives, so both the direct answer and the barrier are exercised.
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
        for i in 0..5 {
            pipeline.commit(vec![kv(i)], "PUT").unwrap();
        }
        let stats = pipeline.stats();
        assert_eq!(stats.syncs, stats.flushes);
    }
}
