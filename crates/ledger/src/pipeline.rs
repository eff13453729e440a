//! Group-commit pipeline: coalesce concurrent commits into shared blocks
//! and amortize `fsync` across them.
//!
//! Without the pipeline every `ShardedDb::put` seals its own ledger block and
//! pays the full durability ceremony (an `fsync` per commit in strict
//! setups). Group commit is leader/follower around one *seal role*. A
//! commit, flush or shutdown that finds the role free takes it and seals on
//! its own thread: a hop to another thread and back would cost two scheduler
//! wake-ups. A caller that finds it taken queues its writes (or a barrier)
//! and parks on a ticket. The role is handed on, never dropped: a holder
//! that finishes with callers queued wakes the head of the queue, which
//! takes the whole queue and seals it as **one** block (one index-root
//! update, one block chunk, one head-root record in the storage log — see
//! `spitz_storage::durable`), settles the durability policy and wakes the
//! rest of the batch with the same published [`Digest`].
//!
//! When a commit additionally waits for stable storage is governed by one
//! of two [`DurabilityPolicy`]s:
//!
//! * [`DurabilityPolicy::Strict`] — every flush is fsynced before it is
//!   acknowledged. An acknowledged commit survives any crash. Concurrent
//!   callers still share that fsync (classic group commit).
//! * [`DurabilityPolicy::Grouped`] — commits are acknowledged at
//!   *publication* (block sealed, root record appended) and fsynced at
//!   least every `max_writes` commits or `max_delay` of wall clock. A crash
//!   loses at most that window, and recovery lands on the last fsynced
//!   root with the chain intact.
//!
//! [`CommitPipeline::flush`] forces an fsync regardless of policy;
//! [`CommitPipeline::shutdown`] (also run on drop) is a flush that closes
//! the pipeline, so a clean exit never loses acknowledged work.
//! Only `Grouped` runs a thread, and it only keeps time: it takes the role
//! to fsync when a deadline passes with no commit to carry it.
//!
//! # Steps
//!
//! A caller (a commit, flush or shutdown), the role holder it becomes while
//! it leads a batch, and the timer are each written once, as a step
//! function: under the state lock it takes the state and what the actor's
//! last I/O returned, and decides the next I/O — seal a batch, read the
//! digest, fsync, park, sleep, wake a waiter or the timer, or return an
//! outcome. A thread performs that I/O outside the lock, with the ledger,
//! the store and the tickets. The tests' model check performs a simulated
//! one, so it searches the product's own order of steps over every
//! interleaving.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spitz_obs::TelemetryHandle;
use spitz_storage::StorageError;

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
        }
    }
}

/// What a parked caller is woken with.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
enum Wake<D, E> {
    /// The seal role is handed to it: take the queue and seal it.
    Seal,
    /// Its commit or barrier was sealed with this outcome.
    Done(Result<D, E>),
}

/// A parked caller's rendezvous: the waker fills the slot, the caller
/// sleeps on the condvar until it does.
#[derive(Default)]
struct Ticket {
    slot: Mutex<Option<Wake<Digest, StorageError>>>,
    ready: Condvar,
}

impl Ticket {
    fn wake(&self, wake: Wake<Digest, StorageError>) {
        *lock(&self.slot) = Some(wake);
        self.ready.notify_all();
    }

    fn wait(&self) -> Wake<Digest, StorageError> {
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
    /// The writes and statement; `None` for a barrier (a flush, or
    /// shutdown's), which forces an fsync when its batch is sealed.
    commit: Option<CommitGroup>,
}

/// Whom a holder wakes: the waiter it hands the role to (`Wake::Seal`),
/// and the timer (to learn of a deadline it armed or that passed while it
/// held the role, or of shutdown).
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct Release<W> {
    handoff: Option<W>,
    timer: bool,
}

/// The state every step decides over. Threads hold the state lock around
/// each step; nothing here locks or does I/O.
#[derive(Default)]
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct PipelineState<W> {
    policy: DurabilityPolicy,
    /// Callers parked behind the role, in arrival order.
    queue: Vec<Pending<W>>,
    /// The seal role is taken: by a caller sealing or syncing, by the queue
    /// head it was handed to, or by the timer syncing. A free role means an
    /// empty queue.
    sealing: bool,
    shutdown: bool,
    /// Commits acknowledged but not yet fsynced (Grouped only), and the
    /// wall-clock deadline by which they must be.
    unsynced: usize,
    sync_deadline: Option<Instant>,
}

impl<W: Clone> PipelineState<W> {
    fn sync_due(&self, now: Instant) -> bool {
        self.sync_deadline.is_some_and(|deadline| now >= deadline)
    }

    /// Count `commits` just sealed against the policy. Returns whether to
    /// fsync before acknowledging (`force`: a flush demands it; under
    /// `Strict` every batch holds a commit or a flush, so always), and
    /// whether a deadline was armed that the timer must be woken to keep.
    fn settle(&mut self, commits: usize, force: bool, now: Instant) -> (bool, bool) {
        match self.policy {
            DurabilityPolicy::Strict => (true, false),
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

    /// The holder's fsync succeeded. It covers every commit counted so
    /// far: only a role holder counts them.
    fn synced(&mut self) {
        self.unsynced = 0;
        self.sync_deadline = None;
    }

    /// The holder is done: hand the role to the head of the queue, else
    /// free it. A free role after shutdown wakes the timer to exit.
    fn release(&mut self, now: Instant) -> Release<W> {
        let handoff = self.queue.first().map(|head| head.waiter.clone());
        self.sealing = handoff.is_some();
        let timer = !self.sealing && (self.shutdown || self.sync_due(now));
        Release { handoff, timer }
    }
}

/// What an actor's last I/O returned: the input of its next step.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
enum Event<D, E> {
    /// Begin, or (the timer) wake up.
    Go,
    /// A parked caller was handed the role.
    Handed,
    Sealed(Result<D, E>),
    Synced(Result<(), E>),
}

/// The I/O a step decides on, performed outside the state lock.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
enum Io<W, D, E> {
    /// Refuse: the pipeline is shut down.
    Closed,
    /// Park on the actor's ticket. It brings the outcome, or the role.
    Park,
    /// `Seal(groups, commits)`: seal `groups` as one block (none: read the
    /// digest); the batch carries `commits` commits, for the counters.
    Seal(Vec<CommitGroup>, usize),
    Sync,
    /// Wake whom `release` names, then step on.
    Wake(Release<W>),
    /// `Ack(release, batch, outcome)`: wake whom `release` names, then the
    /// batch behind its head with `outcome`, and return it.
    Ack(Release<W>, Vec<Pending<W>>, Result<D, E>),
    /// Sleep this long, or until woken, then step on.
    Sleep(Duration),
    Exit,
}

/// A commit, flush or shutdown from arrival to outcome: refused, parked
/// behind the role, or holding it for a batch.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
enum Caller<W, D, E> {
    /// With its commit or barrier, and whether it closes the pipeline (a
    /// shutdown's final flush).
    Arriving(Pending<W>, bool),
    Parked,
    Holding(Holder<W, D, E>),
}

impl<W: Clone, D, E> Caller<W, D, E> {
    fn step(
        &mut self,
        state: &mut PipelineState<W>,
        event: Event<D, E>,
        now: Instant,
    ) -> Io<W, D, E> {
        if let Caller::Holding(holder) = self {
            return holder.step(state, event, now);
        }
        let batch = match (std::mem::replace(self, Caller::Parked), event) {
            (Caller::Arriving(pending, close), Event::Go) => {
                if state.shutdown {
                    return Io::Closed;
                }
                state.shutdown = close;
                if state.sealing {
                    state.queue.push(pending);
                    return Io::Park;
                }
                state.sealing = true;
                vec![pending]
            }
            // Handed the role: take the whole queue, headed by this
            // caller's own entry.
            (Caller::Parked, Event::Handed) => std::mem::take(&mut state.queue),
            _ => unreachable!("a caller stepped out of order"),
        };
        let (holder, io) = Holder::seal(batch);
        *self = Caller::Holding(holder);
        io
    }
}

/// The role holder for one batch: seal it as one block, settle the policy,
/// fsync if it must, release the role, then acknowledge the batch.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct Holder<W, D, E> {
    batch: Vec<Pending<W>>,
    /// Commits sealed, and whether the batch holds a flush.
    sealed: usize,
    force: bool,
    /// Settling decided to fsync.
    sync: bool,
    outcome: Option<Result<D, E>>,
}

impl<W: Clone, D, E> Holder<W, D, E> {
    fn seal(mut batch: Vec<Pending<W>>) -> (Self, Io<W, D, E>) {
        let commits = batch.iter().filter(|p| p.commit.is_some()).count();
        let force = batch.iter().any(|p| p.commit.is_none());
        // The payloads are moved out of the pendings (only the waiters are
        // needed afterwards), so coalescing copies no write bytes.
        let groups: Vec<CommitGroup> = batch
            .iter_mut()
            .filter_map(|p| p.commit.take().filter(|(writes, _)| !writes.is_empty()))
            .collect();
        let holder = Holder {
            batch,
            sealed: groups.len(),
            force,
            sync: false,
            outcome: None,
        };
        (holder, Io::Seal(groups, commits))
    }

    fn step(
        &mut self,
        state: &mut PipelineState<W>,
        event: Event<D, E>,
        now: Instant,
    ) -> Io<W, D, E> {
        match event {
            Event::Sealed(outcome) => {
                let mut armed = false;
                if outcome.is_ok() {
                    (self.sync, armed) = state.settle(self.sealed, self.force, now);
                }
                self.outcome = Some(outcome);
                // The timer learns of a deadline armed here only by being
                // woken: it sleeps without one.
                if armed {
                    let timer = Release {
                        handoff: None,
                        timer: true,
                    };
                    return Io::Wake(timer);
                }
                if self.sync {
                    return Io::Sync;
                }
            }
            Event::Go if self.sync => return Io::Sync,
            Event::Go => {}
            Event::Synced(Ok(())) => state.synced(),
            Event::Synced(Err(error)) => self.outcome = Some(Err(error)),
            _ => unreachable!("a role holder stepped out of order"),
        }
        let release = state.release(now);
        let outcome = self.outcome.take().expect("sealed before acknowledging");
        Io::Ack(release, std::mem::take(&mut self.batch), outcome)
    }
}

/// The `Grouped` timer: sleeps until a deadline passes with no commit to
/// carry it, then takes the free role to fsync. A failed fsync is retried
/// `retry` later.
#[cfg_attr(test, derive(Clone, Debug, PartialEq, Eq, Hash))]
struct Timer {
    retry: Duration,
}

impl Timer {
    fn step<W: Clone, D, E>(
        &mut self,
        state: &mut PipelineState<W>,
        event: Event<D, E>,
        now: Instant,
    ) -> Io<W, D, E> {
        match event {
            Event::Go => {}
            Event::Synced(result) => {
                match result {
                    Ok(()) => state.synced(),
                    // Keep the unsynced count and retry after a delay:
                    // resetting it would silently void the bounded-loss
                    // guarantee. A flush (or the next batch's forced sync)
                    // surfaces the error to a caller.
                    Err(_) => state.sync_deadline = Some(now + self.retry),
                }
                let release = state.release(now);
                if release.handoff.is_some() {
                    return Io::Wake(release);
                }
            }
            _ => unreachable!("the timer stepped out of order"),
        }
        if state.shutdown {
            Io::Exit
        } else if !state.sync_due(now) {
            Io::Sleep(state.sync_deadline.map_or(Duration::MAX, |at| at - now))
        } else if state.sealing {
            // The holder's release wakes the timer.
            Io::Sleep(Duration::MAX)
        } else {
            state.sealing = true;
            Io::Sync
        }
    }
}

/// Counters the pipeline exposes for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Commits accepted (each `commit` call counts once, when its batch is
    /// sealed).
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
    fn new(telemetry: &TelemetryHandle) -> PipelineObs {
        PipelineObs {
            commits: telemetry.counter("pipeline.commits"),
            flushes: telemetry.counter("pipeline.flushes"),
            syncs: telemetry.counter("pipeline.syncs"),
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
    /// Perform a role holder's seal, fsync or wake-up, and count what the
    /// step decided. A panic that escapes the ledger or the
    /// store (index writes route through `try_put`, but a corrupt node read
    /// or a bug in an index implementation can still unwind) is contained
    /// here: a holder that unwinds would leave every caller parked forever,
    /// so it surfaces as an error to every caller the holder carries.
    fn perform(&self, io: Io<Arc<Ticket>, Digest, StorageError>) -> Event<Digest, StorageError> {
        match io {
            Io::Seal(groups, commits) => {
                self.stats.commits.fetch_add(commits as u64, Relaxed);
                self.obs.commits.add(commits as u64);
                if groups.is_empty() {
                    return Event::Sealed(contain("commit", || Ok(self.ledger.digest())));
                }
                self.stats.flushes.fetch_add(1, Relaxed);
                self.obs.flushes.inc();
                self.obs.group_size.record(groups.len() as u64);
                let flush_start = self.obs.flush_nanos.start();
                let sealed = contain("commit", || {
                    let (digest, cost) = self.ledger.try_append_groups(groups)?;
                    let obs = &self.obs;
                    obs.block_writes.record(cost.writes as u64);
                    obs.index_nodes_written.record(cost.index_nodes_written);
                    obs.index_bytes_written.record(cost.index_bytes_written);
                    Ok(digest)
                });
                self.obs.flush_nanos.finish(flush_start);
                Event::Sealed(sealed)
            }
            Io::Sync => {
                let synced = contain("fsync", || self.ledger.store().sync());
                if synced.is_ok() {
                    self.stats.syncs.fetch_add(1, Relaxed);
                    self.obs.syncs.inc();
                }
                Event::Synced(synced)
            }
            Io::Wake(release) => {
                self.wake(release);
                Event::Go
            }
            _ => unreachable!("not a role holder's I/O"),
        }
    }

    fn wake(&self, release: Release<Arc<Ticket>>) {
        if let Some(ticket) = release.handoff {
            ticket.wake(Wake::Seal);
        }
        if release.timer {
            self.timer.notify_one();
        }
    }
}

/// Group-commit pipeline over a [`Ledger`].
pub struct CommitPipeline {
    shared: Arc<Shared>,
    /// The `Grouped` deadline timer; `None` under `Strict`.
    timer: Mutex<Option<JoinHandle<()>>>,
}

/// Lock a mutex, transparently recovering from poisoning (a panicked
/// holder must not wedge every caller).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Run `what`, turning a panic into an error.
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
    /// counters, group-size and flush-latency histograms, and a queue-depth
    /// gauge.
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
            obs: PipelineObs::new(&telemetry),
        });
        let timer = match policy {
            DurabilityPolicy::Grouped { max_delay, .. } => {
                let shared = Arc::clone(&shared);
                let spawn = std::thread::Builder::new().name("spitz-sync-timer".into());
                let timer = spawn.spawn(move || keep_time(&shared, max_delay));
                Some(timer.expect("spawn the sync timer"))
            }
            DurabilityPolicy::Strict => None,
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
        self.arrive(None, false).map(|_| ())
    }

    /// Run a caller with a commit or a flush barrier (`close`: shutdown's
    /// flush) to its outcome.
    fn arrive(&self, commit: Option<CommitGroup>, close: bool) -> Result<Digest, StorageError> {
        let shared = &self.shared;
        let ticket = Arc::<Ticket>::default();
        let waiter = Arc::clone(&ticket);
        let pending = Pending { waiter, commit };
        let mut caller = Caller::Arriving(pending, close);
        let mut event = Event::Go;
        loop {
            let mut state = lock(&shared.state);
            let queued = state.queue.len();
            let io = caller.step(&mut state, event, Instant::now());
            // The gauge follows the queue, under the lock that changes it.
            if state.queue.len() != queued {
                let depth = state.queue.len() as i64 - queued as i64;
                shared.obs.queue_depth.add(depth);
            }
            event = match io {
                Io::Closed => return Err(StorageError::Closed),
                Io::Park => {
                    drop(state);
                    match ticket.wait() {
                        Wake::Done(outcome) => return outcome,
                        Wake::Seal => Event::Handed,
                    }
                }
                Io::Ack(release, batch, outcome) => {
                    drop(state);
                    shared.wake(release);
                    for pending in batch.into_iter().skip(1) {
                        pending.waiter.wake(Wake::Done(outcome.clone()));
                    }
                    return outcome;
                }
                io => {
                    drop(state);
                    shared.perform(io)
                }
            };
        }
    }

    /// Wait for everything accepted to be sealed and fsync it, then stop
    /// the timer. Shutdown is a flush that closes the pipeline: commits
    /// arriving after it fail with [`StorageError::Closed`]. Idempotent;
    /// also invoked on drop.
    pub fn shutdown(&self) {
        // Best effort: the store's drop-time flush retries once more.
        let _ = self.arrive(None, true);
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

/// Run the `Grouped` timer until shutdown.
fn keep_time(shared: &Shared, retry: Duration) {
    let mut timer = Timer { retry };
    let mut event = Event::Go;
    let mut state = lock(&shared.state);
    loop {
        (state, event) = match timer.step(&mut state, event, Instant::now()) {
            Io::Exit => return,
            // Letting the lock go and sleeping are one step, so no wake-up
            // sent after this step is lost.
            Io::Sleep(timeout) => {
                let slept = shared.timer.wait_timeout(state, timeout);
                let state = slept.unwrap_or_else(|poison| poison.into_inner()).0;
                (state, Event::Go)
            }
            io => {
                drop(state);
                let event = shared.perform(io);
                (lock(&shared.state), event)
            }
        };
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use spitz_crypto::Hash;
    use spitz_storage::{Chunk, ChunkStore, InMemoryChunkStore, StoreStats};
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
        fn try_put(&self, chunk: Chunk) -> Result<Hash, StorageError> {
            self.record("put");
            drop(lock(&self.hold));
            self.inner.try_put(chunk)
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
        fn try_set_root(&self, name: &str, hash: Hash) -> Result<(), StorageError> {
            self.inner.try_set_root(name, hash)
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

    /// A `Grouped` policy that never fsyncs on its own within a test.
    const QUIET: DurabilityPolicy = DurabilityPolicy::Grouped {
        max_delay: Duration::from_secs(3600),
        max_writes: 1_000_000,
    };

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
        let (probe, _ledger, pipeline) = probed(QUIET);
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
        let (probe, ledger, pipeline) = probed(QUIET);
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
            .map(|_| probed_with(QUIET, telemetry.clone()))
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
        let (probe, ledger, pipeline) = probed(DurabilityPolicy::grouped_default());
        // Hold the first seal until every other thread has parked behind
        // it, so that commits overlap a seal on every run.
        let held = lock(&probe.hold);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..PUTS {
                        pipeline.commit(vec![kv(t * PUTS + i)], "PUT").unwrap();
                    }
                });
            }
            eventually("every other thread parked behind the seal", || {
                lock(&pipeline.shared.state).queue.len() == THREADS as usize - 1
            });
            drop(held);
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
        let (_ledger, pipeline) = pipeline(QUIET);
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
    fn strict_policy_syncs_every_flush() {
        let (_ledger, pipeline) = pipeline(DurabilityPolicy::Strict);
        // Concurrent commits: a block sealed for a follower's batch pays its
        // fsync as a leader's does.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pipeline = &pipeline;
                scope.spawn(move || {
                    for i in 0..10 {
                        pipeline.commit(vec![kv(t * 10 + i)], "PUT").unwrap();
                    }
                });
            }
        });
        let stats = pipeline.stats();
        assert_eq!(stats.commits, 40);
        assert_eq!(stats.syncs, stats.flushes);
    }

    // ---------------------------------------------------------------------
    // Model check: the step functions over every interleaving.
    //
    // Each caller (a shutdown among them) and the timer is its step machine
    // and the I/O it performs next. A move performs one actor's I/O,
    // simulated, then runs the actor's next step on the state, as its
    // thread does; a seal or an fsync may succeed or fail within a budget.
    // A depth-first search visits every reachable state and checks the
    // invariants after each move and at each dead end.
    // ---------------------------------------------------------------------

    /// The model's `Grouped` policy: three commits force an fsync, so a
    /// batch of one commit and a flush behind an acknowledged, unsynced
    /// commit reaches no threshold and is fsynced for its flush alone.
    const MODEL_GROUPED: DurabilityPolicy = DurabilityPolicy::Grouped {
        max_delay: Duration::from_millis(2),
        max_writes: 3,
    };

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Commit,
        Flush,
        /// `shutdown`.
        Close,
    }

    /// One search: a policy and each caller's operations in order.
    #[derive(Debug)]
    struct Scenario {
        policy: DurabilityPolicy,
        scripts: Vec<Vec<Op>>,
    }

    /// In the model a waiter is an actor id, a digest is a block height,
    /// and every failure is alike.
    type ModelIo = Io<usize, u32, ()>;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Actor {
        Caller(Caller<usize, u32, ()>),
        Timer(Timer),
    }

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Model {
        state: PipelineState<usize>,
        now: Instant,
        /// The callers, then the timer: each one's step machine and next
        /// I/O (`None` between a caller's operations).
        actors: Vec<Option<(Actor, ModelIo)>>,
        /// Per caller: its next operation's index, its current operation,
        /// and the highest commit acknowledged when that began.
        scripts: Vec<(usize, Op, u32)>,
        tickets: Vec<Option<Wake<u32, ()>>>,
        /// When the timer's sleep ends unless it is woken first.
        alarm: Option<Instant>,
        /// Blocks sealed, the height the last fsync covered, and the
        /// highest commit acknowledged.
        height: u32,
        durable: u32,
        acked: u32,
        /// Commits sealed under `Grouped` since the last fsync, and commits
        /// the counters counted that have not yet returned.
        unretired: usize,
        counted: usize,
        /// A shutdown has returned.
        closed: bool,
        /// What is left to spend on deadline passes and on failed I/O (a
        /// seal that errs or panics, or an fsync that errs).
        deadlines: u8,
        faults: u8,
    }

    type Move = ((&'static str, usize), Result<Model, String>);

    impl Model {
        fn new(scenario: &Scenario, now: Instant) -> Model {
            let callers = scenario.scripts.len();
            let mut actors = vec![None; callers + 1];
            if let DurabilityPolicy::Grouped { max_delay, .. } = scenario.policy {
                // As after its first step: it learns of a deadline only by
                // being woken, the case a missing wake-up strands.
                let timer = Actor::Timer(Timer { retry: max_delay });
                actors[callers] = Some((timer, Io::Sleep(Duration::MAX)));
            }
            Model {
                state: PipelineState {
                    policy: scenario.policy,
                    ..PipelineState::default()
                },
                now,
                actors,
                scripts: vec![(0, Op::Commit, 0); callers],
                tickets: vec![None; callers],
                alarm: None,
                height: 0,
                durable: 0,
                acked: 0,
                unretired: 0,
                counted: 0,
                closed: false,
                deadlines: 2,
                faults: 1,
            }
        }

        fn timer_id(&self) -> usize {
            self.scripts.len()
        }

        fn moves(&self, scenario: &Scenario) -> Vec<Move> {
            let mut out = Vec::new();
            for id in 0..self.actors.len() {
                for fails in [false, true] {
                    if let Some(next) = self.perform(scenario, id, fails) {
                        out.push(((if fails { "failing" } else { "move" }, id), next));
                    }
                }
            }
            if let Some(deadline) = self.state.sync_deadline {
                if self.deadlines > 0 && deadline > self.now {
                    let mut m = self.clone();
                    m.now = deadline;
                    m.deadlines -= 1;
                    out.push((("deadline passes", 0), Ok(m)));
                }
            }
            out
        }

        /// Actor `id`'s move, if it has one: begin its next operation, or
        /// perform its I/O (`fails`: as a failure), simulated, and step on.
        fn perform(
            &self,
            scenario: &Scenario,
            id: usize,
            fails: bool,
        ) -> Option<Result<Model, String>> {
            let Some((actor, io)) = &self.actors[id] else {
                return (!fails).then(|| self.begin(scenario, id)).flatten();
            };
            let ready = match io {
                Io::Park => self.tickets[id].is_some(),
                Io::Sleep(_) => self.alarm.is_some_and(|at| at <= self.now),
                Io::Seal(groups, _) if fails => self.faults > 0 && !groups.is_empty(),
                Io::Sync => !fails || self.faults > 0,
                Io::Exit => false,
                _ => !fails,
            };
            ready.then(|| {
                let mut m = self.clone();
                m.run(id, actor.clone(), io.clone(), fails).map(|()| m)
            })
        }

        fn begin(&self, scenario: &Scenario, id: usize) -> Option<Result<Model, String>> {
            let op = *scenario.scripts.get(id)?.get(self.scripts[id].0)?;
            let mut m = self.clone();
            let closing = m.state.shutdown;
            m.scripts[id] = (m.scripts[id].0, op, m.acked);
            // One write: a commit of none seals nothing.
            let commit = (op == Op::Commit).then(|| (vec![Default::default()], String::new()));
            let pending = Pending { waiter: id, commit };
            let mut caller = Caller::Arriving(pending, op == Op::Close);
            let begun = match caller.step(&mut m.state, Event::Go, m.now) {
                Io::Closed if op == Op::Close => Err("a lone shutdown was refused".into()),
                Io::Closed => m.finish(id, None),
                io if closing => Err(format!("caller {id}: {io:?} after shutdown began")),
                io => m.land(id, Actor::Caller(caller), io),
            };
            Some(begun.map(|()| m))
        }

        fn run(
            &mut self,
            id: usize,
            mut actor: Actor,
            io: ModelIo,
            fails: bool,
        ) -> Result<(), String> {
            let event = match io {
                Io::Seal(..) | Io::Sync if self.closed => {
                    return Err(format!("{io:?} after shutdown returned"));
                }
                Io::Park => match self.tickets[id].take() {
                    Some(Wake::Done(outcome)) => return self.finish(id, Some(outcome)),
                    _ => Event::Handed,
                },
                Io::Seal(groups, commits) => {
                    self.counted += commits;
                    if fails {
                        self.faults -= 1;
                        Event::Sealed(Err(()))
                    } else {
                        self.height += u32::from(!groups.is_empty());
                        if self.state.policy != DurabilityPolicy::Strict {
                            self.unretired += groups.len();
                        }
                        Event::Sealed(Ok(self.height))
                    }
                }
                Io::Sync => {
                    if fails {
                        self.faults -= 1;
                        Event::Synced(Err(()))
                    } else {
                        (self.durable, self.unretired) = (self.height, 0);
                        Event::Synced(Ok(()))
                    }
                }
                Io::Ack(release, batch, outcome) => {
                    self.wake(release)?;
                    for pending in &batch[1..] {
                        self.tickets[pending.waiter] = Some(Wake::Done(outcome));
                    }
                    return self.finish(id, Some(outcome));
                }
                Io::Wake(release) => self.wake(release).map(|()| Event::Go)?,
                _ => Event::Go,
            };
            let io = match &mut actor {
                Actor::Caller(caller) => caller.step(&mut self.state, event, self.now),
                Actor::Timer(timer) => timer.step(&mut self.state, event, self.now),
            };
            self.land(id, actor, io)
        }

        /// Keep the I/O a step decided on.
        fn land(&mut self, id: usize, actor: Actor, io: ModelIo) -> Result<(), String> {
            match io {
                Io::Sleep(timeout) => self.alarm = self.now.checked_add(timeout),
                _ if id == self.timer_id() => self.alarm = None,
                _ => {}
            }
            self.actors[id] = Some((actor, io));
            Ok(())
        }

        fn wake(&mut self, release: Release<usize>) -> Result<(), String> {
            let asleep = matches!(self.actors[self.timer_id()], Some((_, Io::Sleep(_))));
            if release.timer && asleep {
                self.alarm = Some(self.now);
            }
            match release
                .handoff
                .map(|waiter| (waiter, self.tickets[waiter].replace(Wake::Seal)))
            {
                Some((waiter, Some(_))) => {
                    Err(format!("the role was handed to {waiter}, already woken"))
                }
                _ => Ok(()),
            }
        }

        /// Caller `i`'s current operation returns `outcome` (`None`:
        /// refused).
        fn finish(&mut self, i: usize, outcome: Option<Result<u32, ()>>) -> Result<(), String> {
            let (_, op, floor) = self.scripts[i];
            match (op, outcome) {
                (Op::Commit, Some(Ok(height))) => {
                    if self.state.policy == DurabilityPolicy::Strict && self.durable < height {
                        return Err(format!("caller {i}: Strict acknowledged before its fsync"));
                    }
                    self.acked = self.acked.max(height);
                }
                (Op::Flush | Op::Close, Some(Ok(_))) if self.durable < floor => {
                    return Err(format!(
                        "caller {i}: {op:?} returned before commit {floor} was fsynced"
                    ));
                }
                _ => {}
            }
            if op == Op::Commit && outcome.is_some() {
                self.counted = self.counted.checked_sub(1).ok_or_else(|| {
                    format!("caller {i}: a commit returned that the counters never counted")
                })?;
            }
            self.closed |= op == Op::Close;
            self.scripts[i] = (self.scripts[i].0 + 1, op, 0);
            self.actors[i] = None;
            Ok(())
        }

        /// The invariants every reachable state keeps.
        fn check(&self) -> Result<(), String> {
            let holders: Vec<usize> = (0..self.actors.len())
                .filter(|&id| match &self.actors[id] {
                    Some((_, Io::Seal(..) | Io::Sync | Io::Wake(_))) => true,
                    // Given up, on its way to the next holder.
                    Some((_, Io::Ack(release, ..))) => release.handoff.is_some(),
                    Some((_, Io::Park)) => self.tickets[id] == Some(Wake::Seal),
                    _ => false,
                })
                .collect();
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
            if self.state.unsynced != self.unretired {
                return Err(format!(
                    "unsynced is {} but {} sealed commits were never fsynced",
                    self.state.unsynced, self.unretired
                ));
            }
            if self.state.unsynced > 0 && self.state.sync_deadline.is_none() {
                return Err("unsynced commits with no deadline".into());
            }
            Ok(())
        }

        /// What must hold once nothing can move: every caller done, and the
        /// timer asleep, or gone after shutdown.
        fn check_end(&self) -> Result<(), String> {
            for (id, actor) in self.actors.iter().enumerate() {
                let done = match actor {
                    Some((_, Io::Sleep(_))) => id == self.timer_id() && !self.state.shutdown,
                    Some((_, io)) => id == self.timer_id() && *io == Io::Exit,
                    None => true,
                };
                if !done {
                    return Err(format!("actor {id} is stranded: {actor:?}"));
                }
            }
            if !self.state.shutdown && self.state.sync_due(self.now) {
                return Err("a passed deadline was never met".into());
            }
            if self.counted > 0 {
                return Err(format!(
                    "the counters counted {} commits no caller made",
                    self.counted
                ));
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
                        for actor in next.actors.iter().flatten() {
                            if let (Actor::Caller(Caller::Holding(holder)), Io::Seal(..)) = actor {
                                self.widest_batch = self.widest_batch.max(holder.sealed);
                            }
                        }
                        if next.tickets.contains(&Some(Wake::Seal)) {
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
        use Op::{Close, Commit, Flush};
        let scripts = [
            (vec![vec![Commit], vec![Commit], vec![Commit]], false),
            (vec![vec![Commit], vec![Flush], vec![Flush]], true),
            (vec![vec![Commit, Flush], vec![Commit, Flush]], false),
            (vec![vec![Commit, Commit], vec![Flush, Commit]], true),
        ];
        let mut scenarios = Vec::new();
        for policy in [DurabilityPolicy::Strict, MODEL_GROUPED] {
            for (scripts, with_shutdown) in &scripts {
                scenarios.push(Scenario {
                    policy,
                    scripts: scripts.clone(),
                });
                if *with_shutdown {
                    let mut scripts = scripts.clone();
                    scripts.push(vec![Close]);
                    scenarios.push(Scenario { policy, scripts });
                }
            }
        }
        scenarios
    }

    /// Every interleaving of 2–3 callers (commits and flushes), the
    /// timer, a shutdown, one failing (or panicking) seal or failing fsync
    /// and two deadline passes, run through the pipeline's own step
    /// functions, keeps these invariants:
    ///
    /// * at most one role holder, and the role flag names it;
    /// * no caller or shutdown is left parked (nor the queue left behind a
    ///   free role), and the timer exits after shutdown;
    /// * no `Strict` acknowledgement before its fsync, and no flush or
    ///   shutdown returns before the commits acknowledged ahead of it are
    ///   fsynced;
    /// * `unsynced` equals the commits sealed since the last fsync, and
    ///   the commit counter counts each accepted commit once;
    /// * no commit or flush is accepted after shutdown begins, and nothing
    ///   is sealed or fsynced after it returns;
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
