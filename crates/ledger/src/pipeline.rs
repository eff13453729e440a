//! Group-commit pipeline: coalesce concurrent commits into shared blocks
//! and amortize `fsync` across them.
//!
//! Without the pipeline every `SpitzDb::put` seals its own ledger block and
//! pays the full durability ceremony (an `fsync` per commit in strict
//! setups). The [`CommitPipeline`] runs a background *committer* thread:
//! callers enqueue their writes, park on a ticket, and the committer drains
//! everything queued into **one** sealed block per flush (one index-root
//! update, one block chunk, one head-root record in the storage log — see
//! `spitz_storage::durable` for the log-embedded root publication that
//! replaced the per-commit manifest rewrite). Every caller of the flush
//! wakes with the same published [`Digest`].
//!
//! When a commit additionally waits for stable storage is governed by a
//! [`DurabilityPolicy`]:
//!
//! * [`DurabilityPolicy::Strict`] — the committer fsyncs after every flush,
//!   before acknowledging. An acknowledged commit survives any crash.
//!   Concurrent callers still share that fsync (classic group commit).
//! * [`DurabilityPolicy::Grouped`] — commits are acknowledged at
//!   *publication* (block sealed, root record appended); the committer
//!   fsyncs at least every `max_writes` commits or `max_delay` of wall
//!   clock. A crash loses at most that window, and recovery lands on the
//!   last fsynced root with the chain intact.
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
    /// that window.
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
    /// The committer has drained a batch it has not finished acknowledging.
    in_flight: bool,
    shutdown: bool,
}

/// Counters the pipeline exposes for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Commits accepted (each `commit` call counts once).
    pub commits: u64,
    /// Blocks sealed (each coalesces ≥ 1 commit).
    pub flushes: u64,
    /// `fsync` calls issued by the committer.
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
    state: Mutex<PipelineState>,
    /// Signals the committer that work (or shutdown) is pending.
    work: Condvar,
    stats: AtomicPipelineStats,
    obs: PipelineObs,
}

/// Background group-commit pipeline over a [`Ledger`].
pub struct CommitPipeline {
    policy: DurabilityPolicy,
    ledger: Arc<Ledger>,
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
            state: Mutex::new(PipelineState::default()),
            work: Condvar::new(),
            stats: AtomicPipelineStats::default(),
            obs: PipelineObs::new(&telemetry, policy),
        });
        let committer = {
            let shared = Arc::clone(&shared);
            let ledger = Arc::clone(&ledger);
            std::thread::Builder::new()
                .name("spitz-committer".into())
                .spawn(move || committer_loop(ledger, shared, policy))
                .expect("spawn committer thread")
        };
        Arc::new(CommitPipeline {
            policy,
            ledger,
            shared,
            committer: Mutex::new(Some(committer)),
        })
    }

    /// The policy the pipeline was built with.
    pub fn policy(&self) -> DurabilityPolicy {
        self.policy
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
    /// [`DurabilityPolicy::Strict`], durable). Concurrent callers are
    /// coalesced into one sealed block; every caller of that block receives
    /// the same digest.
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
        self.enqueue(writes, statement, false, false).wait()
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
            if state.queue.is_empty() && !state.in_flight && !state.shutdown {
                return Ok(self.ledger.digest());
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
                self.shared
                    .stats
                    .commits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.shared.obs.commits.inc();
            }
            state.queue.push(Pending {
                writes,
                statement: statement.to_string(),
                ticket: Arc::clone(&ticket),
                sync,
            });
            self.shared.obs.queue_depth.set(state.queue.len() as i64);
            self.shared.work.notify_one();
        }
        drop(state);
        FlushWait(ticket)
    }

    /// Drain the queue, fsync outstanding work and stop the committer
    /// thread. Further commits fail with [`StorageError::Closed`].
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
            .field("policy", &self.policy)
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
/// wake the batch.
fn committer_loop(ledger: Arc<Ledger>, shared: Arc<Shared>, policy: DurabilityPolicy) {
    use std::sync::atomic::Ordering::Relaxed;

    let store = Arc::clone(ledger.store());
    // Commits acknowledged but not yet fsynced (Grouped only), and the
    // wall-clock deadline by which they must be.
    let mut unsynced: usize = 0;
    let mut sync_deadline: Option<Instant> = None;

    loop {
        // Wait for work, a shutdown, or (Grouped) a sync deadline.
        let (batch, shutting_down) = {
            let mut state = lock(&shared.state);
            // Every ticket of the previous batch has been fulfilled.
            state.in_flight = false;
            loop {
                if !state.queue.is_empty() || state.shutdown {
                    state.in_flight = !state.queue.is_empty();
                    break (std::mem::take(&mut state.queue), state.shutdown);
                }
                match sync_deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break (Vec::new(), false);
                        }
                        let (guard, _) = shared
                            .work
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(|poison| poison.into_inner());
                        state = guard;
                    }
                    None => state = wait(&shared.work, state),
                }
            }
        };

        // Deadline-only wakeup, or shutdown (which always takes a final
        // sync, so even Os-policy work is on disk after a clean exit).
        if !batch.is_empty() {
            shared.obs.queue_depth.set(0);
        }
        if batch.is_empty() {
            if unsynced > 0 || shutting_down {
                match store.sync() {
                    Ok(()) => {
                        shared.stats.syncs.fetch_add(1, Relaxed);
                        shared.obs.syncs.inc();
                        unsynced = 0;
                        sync_deadline = None;
                    }
                    Err(_) if !shutting_down => {
                        // Keep the unsynced count and retry after a delay:
                        // resetting it here would silently void the
                        // bounded-loss guarantee. A flush() barrier (or the
                        // next batch's forced sync) surfaces the error to a
                        // caller.
                        sync_deadline = Some(Instant::now() + sync_retry_delay(policy));
                    }
                    // Shutting down: best effort; the store's drop-time
                    // flush retries once more.
                    Err(_) => {}
                }
            }
            if shutting_down {
                return;
            }
            continue;
        }

        // Seal every queued commit into one block. The payloads are moved
        // out of the pendings (only the tickets are needed afterwards), so
        // coalescing copies no write bytes.
        let mut batch = batch;
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
        let commits = groups.len();
        let wants_sync = batch.iter().any(|p| p.sync);
        let result = if commits == 0 {
            Ok(ledger.digest())
        } else {
            shared.stats.flushes.fetch_add(1, Relaxed);
            shared.obs.flushes.inc();
            shared.obs.policy_flushes.inc();
            shared.obs.group_size.record(commits as u64);
            let flush_start = shared.obs.flush_nanos.start();
            // Contain panics that escape the append (index writes route
            // through `try_put` now, but a corrupt node read or a bug in an
            // index implementation can still unwind): a poisoned commit
            // must surface as an error on every ticket, never as a dead
            // committer thread that would leave all present and future
            // callers parked forever.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ledger.try_append_groups(groups).map(|(digest, cost)| {
                    shared.obs.block_writes.record(cost.writes as u64);
                    shared
                        .obs
                        .index_nodes_written
                        .record(cost.index_nodes_written);
                    shared
                        .obs
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
            shared.obs.flush_nanos.finish(flush_start);
            result
        };

        // Apply the durability policy before acknowledging.
        let result = result.and_then(|digest| {
            let force = wants_sync || shutting_down;
            let need_sync = match policy {
                DurabilityPolicy::Strict => commits > 0 || force,
                DurabilityPolicy::Os => force,
                DurabilityPolicy::Grouped {
                    max_delay,
                    max_writes,
                } => {
                    unsynced += commits;
                    if unsynced > 0 && sync_deadline.is_none() {
                        sync_deadline = Some(Instant::now() + max_delay);
                    }
                    force
                        || unsynced >= max_writes
                        || sync_deadline.map(|d| Instant::now() >= d).unwrap_or(false)
                }
            };
            if need_sync {
                store.sync()?;
                shared.stats.syncs.fetch_add(1, Relaxed);
                shared.obs.syncs.inc();
                unsynced = 0;
                sync_deadline = None;
            }
            Ok(digest)
        });

        for pending in batch {
            pending.ticket.fulfill(result.clone());
        }
        if shutting_down {
            // Reject anything that raced in after the drain.
            let stragglers = std::mem::take(&mut lock(&shared.state).queue);
            for pending in stragglers {
                pending.ticket.fulfill(Err(StorageError::Closed));
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

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
            stats.flushes <= stats.commits,
            "flushes must not exceed commits"
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
