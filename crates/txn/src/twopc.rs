//! Two-phase commit across processor nodes.
//!
//! "The solution is to add distributed transactions to each node, and follow
//! the two-phase commit (2PC) protocol to coordinate each transaction so
//! that transactions committed by different nodes can be made serializable."
//! (Section 5.2). The control layer here is simulated in one process: each
//! [`Participant`] owns a [`TransactionManager`] for its partition, and the
//! [`TwoPhaseCoordinator`] drives the prepare/commit/abort rounds.
//!
//! A participant can additionally be wired to a [`PreparedApply`] sink —
//! the hook a sharded database uses to make prepared writes flow into its
//! partition's *ledger* on commit (and vanish on abort) instead of living
//! only in the bare MVCC store. The sink's [`PreparedApply::stage`] runs in
//! the prepare phase, so durable staging failures (disk full) surface as a
//! `No` vote and the coordinator aborts the transaction everywhere.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::manager::{CcScheme, IsolationLevel, Transaction, TransactionManager, TxnError};
use crate::mvcc::MvccStore;
use crate::timestamp::TimestampOracle;

/// A participant's vote in the prepare phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Vote {
    /// The participant validated its part and is ready to commit.
    Yes,
    /// The participant cannot commit; carries the typed reason, so a
    /// retryable conflict stays distinguishable from a storage fault
    /// (disk full while staging).
    No(TxnError),
}

/// Where a participant's prepared writes go when the global transaction
/// commits — the hook that connects 2PC to a shard's ledger.
///
/// All methods receive the global transaction id so an implementation can
/// correlate staging, apply and discard of the same distributed transaction.
pub trait PreparedApply: Send + Sync {
    /// Phase 1: durably stage the writes before voting. An error turns the
    /// participant's vote into [`Vote::No`], so a shard that cannot persist
    /// its part (e.g. disk full) aborts the transaction everywhere. The
    /// default stages nothing and always succeeds.
    fn stage(&self, global_txn_id: u64, writes: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
        let _ = (global_txn_id, writes);
        Ok(())
    }

    /// Phase 2 (commit): apply the writes — e.g. seal them into the shard's
    /// ledger. Called after the local MVCC commit succeeded.
    fn apply(
        &self,
        global_txn_id: u64,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<(), String>;

    /// Phase 2 (abort): discard anything staged for this transaction. The
    /// default does nothing (content-addressed staging needs no undo).
    fn discard(&self, global_txn_id: u64) {
        let _ = global_txn_id;
    }
}

/// A transaction held open between prepare and commit/abort.
struct PreparedTxn {
    txn: Transaction,
    writes: Vec<(Vec<u8>, Vec<u8>)>,
    statement: String,
}

/// What a participant holds for an unfinished global transaction.
enum Held {
    /// Phase 1 done, no decision yet: locks held, writes staged. Presumed
    /// abort on recovery.
    Prepared(Box<PreparedTxn>),
    /// Commit decided and locally committed, but the [`PreparedApply`]
    /// sink failed (e.g. disk full after the vote). The writes are kept so
    /// the apply can be redone — losing them here would break all-or-
    /// nothing across shards. Redone (never aborted) on recovery.
    ApplyPending {
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: String,
    },
}

/// One processor node's participant in distributed transactions: it owns a
/// partition of the key space and a local transaction manager.
pub struct Participant {
    /// Human-readable node name (diagnostics).
    pub name: String,
    manager: Arc<TransactionManager>,
    apply: Option<Arc<dyn PreparedApply>>,
    /// Transactions prepared but not yet committed/aborted.
    prepared: Mutex<HashMap<u64, Held>>,
}

impl Participant {
    /// Create a participant with its own MVCC store, sharing the global
    /// timestamp oracle with the other participants.
    pub fn new(name: impl Into<String>, oracle: Arc<TimestampOracle>, scheme: CcScheme) -> Self {
        Self::with_apply(name, oracle, scheme, None)
    }

    /// Create a participant whose committed writes additionally flow into a
    /// [`PreparedApply`] sink (a shard's ledger). Prepared-but-unfinished
    /// transactions hold their writes in the sink's staged form and in the
    /// local MVCC write set; they become visible only through
    /// [`PreparedApply::apply`] on commit.
    pub fn with_apply(
        name: impl Into<String>,
        oracle: Arc<TimestampOracle>,
        scheme: CcScheme,
        apply: Option<Arc<dyn PreparedApply>>,
    ) -> Self {
        Participant {
            name: name.into(),
            manager: Arc::new(TransactionManager::new(
                Arc::new(MvccStore::new()),
                oracle,
                scheme,
            )),
            apply,
            prepared: Mutex::new(HashMap::new()),
        }
    }

    /// The participant's local transaction manager (for direct local reads).
    pub fn manager(&self) -> &Arc<TransactionManager> {
        &self.manager
    }

    /// Phase 1: execute the writes locally in a transaction, validate, stage
    /// them in the [`PreparedApply`] sink (when wired), and hold the
    /// transaction open (locks held under 2PL) until phase 2.
    pub fn prepare(
        &self,
        global_txn_id: u64,
        writes: &[(Vec<u8>, Vec<u8>)],
        statement: &str,
    ) -> Vote {
        let mut txn = self.manager.begin(IsolationLevel::Serializable);
        for (key, value) in writes {
            // Read first so the validator sees the read-write dependency.
            self.manager.read(&mut txn, key);
            if let Err(e) = self.manager.write(&mut txn, key, value.clone()) {
                self.manager.abort(&mut txn);
                return Vote::No(e);
            }
        }
        if let Some(apply) = &self.apply {
            if let Err(reason) = apply.stage(global_txn_id, writes) {
                self.manager.abort(&mut txn);
                return Vote::No(TxnError::Storage(format!("staging failed: {reason}")));
            }
        }
        self.prepared.lock().insert(
            global_txn_id,
            Held::Prepared(Box::new(PreparedTxn {
                txn,
                writes: writes.to_vec(),
                statement: statement.to_string(),
            })),
        );
        Vote::Yes
    }

    /// Phase 2 (commit): commit the prepared local transaction and flow its
    /// writes into the [`PreparedApply`] sink, when one is wired.
    ///
    /// If the sink apply fails (e.g. disk full after the commit decision),
    /// the writes are retained as apply-pending and the error is returned;
    /// calling `commit` again — directly or via a recovery pass — retries
    /// the apply, so the global all-or-nothing outcome is preserved.
    pub fn commit(&self, global_txn_id: u64) -> Result<(), TxnError> {
        let Some(held) = self.prepared.lock().remove(&global_txn_id) else {
            return Err(TxnError::AlreadyFinished);
        };
        let (writes, statement) = match held {
            Held::Prepared(mut prepared) => {
                self.manager.commit(&mut prepared.txn).map(|_| ())?;
                (prepared.writes, prepared.statement)
            }
            Held::ApplyPending { writes, statement } => (writes, statement),
        };
        if let Some(apply) = &self.apply {
            if let Err(reason) = apply.apply(global_txn_id, writes.clone(), &statement) {
                self.prepared
                    .lock()
                    .insert(global_txn_id, Held::ApplyPending { writes, statement });
                return Err(TxnError::Storage(reason));
            }
        }
        Ok(())
    }

    /// Phase 2 (abort): abort the prepared local transaction and discard any
    /// staged sink state. A transaction whose commit was already decided
    /// (apply-pending) cannot be aborted and is left for a commit retry.
    pub fn abort(&self, global_txn_id: u64) {
        let mut prepared = self.prepared.lock();
        match prepared.remove(&global_txn_id) {
            Some(Held::Prepared(mut held)) => {
                drop(prepared);
                self.manager.abort(&mut held.txn);
                if let Some(apply) = &self.apply {
                    apply.discard(global_txn_id);
                }
            }
            Some(decided @ Held::ApplyPending { .. }) => {
                prepared.insert(global_txn_id, decided);
            }
            None => {}
        }
    }

    /// Resolve one in-doubt transaction the way recovery does: an
    /// undecided (prepared) part is aborted, a decided (apply-pending)
    /// part gets its apply retried.
    pub fn resolve(&self, global_txn_id: u64) {
        let decided = matches!(
            self.prepared.lock().get(&global_txn_id),
            Some(Held::ApplyPending { .. })
        );
        if decided {
            let _ = self.commit(global_txn_id);
        } else {
            self.abort(global_txn_id);
        }
    }

    /// Global ids of transactions prepared on this participant but not yet
    /// committed or aborted (the in-doubt set a recovery pass resolves).
    pub fn prepared_ids(&self) -> Vec<u64> {
        self.prepared.lock().keys().copied().collect()
    }

    /// Read the latest committed value of a key on this participant.
    pub fn read_latest(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.manager.store().read_latest(key).map(|v| v.value)
    }
}

/// A globally prepared transaction: every involved participant voted `Yes`
/// and holds its part open. Consume with
/// [`TwoPhaseCoordinator::commit_prepared`] or
/// [`TwoPhaseCoordinator::abort_prepared`]; dropping it without either
/// models a coordinator crash, which [`TwoPhaseCoordinator::recover`]
/// resolves by presumed abort.
#[derive(Debug)]
pub struct PreparedGlobal {
    /// The global transaction id.
    pub global_txn_id: u64,
    /// Indexes of the participants holding a prepared part.
    pub involved: Vec<usize>,
}

/// 2PC instruments, resolved once at construction; inert when the
/// coordinator was built without telemetry.
struct TwoPcObs {
    prepares: Arc<spitz_obs::Counter>,
    commits: Arc<spitz_obs::Counter>,
    aborts: Arc<spitz_obs::Counter>,
    recovered: Arc<spitz_obs::Counter>,
    in_doubt: Arc<spitz_obs::Gauge>,
    telemetry: spitz_obs::TelemetryHandle,
}

impl TwoPcObs {
    fn new(telemetry: spitz_obs::TelemetryHandle) -> TwoPcObs {
        TwoPcObs {
            prepares: telemetry.counter("twopc.prepares"),
            commits: telemetry.counter("twopc.commits"),
            aborts: telemetry.counter("twopc.aborts"),
            recovered: telemetry.counter("twopc.recovered"),
            in_doubt: telemetry.gauge("twopc.in_doubt"),
            telemetry,
        }
    }
}

/// Coordinates distributed transactions over a fixed set of participants.
/// Keys are routed to participants by hash.
pub struct TwoPhaseCoordinator {
    participants: Vec<Arc<Participant>>,
    oracle: Arc<TimestampOracle>,
    /// Fencing between normal 2PC rounds (shared) and recovery
    /// (exclusive): a recovery pass that ran concurrently with an
    /// in-flight commit round could presume-abort a part whose sibling
    /// was just committed, partial-committing the batch.
    fence: parking_lot::RwLock<()>,
    obs: TwoPcObs,
}

impl TwoPhaseCoordinator {
    /// Create a coordinator over the given participants.
    pub fn new(participants: Vec<Arc<Participant>>, oracle: Arc<TimestampOracle>) -> Self {
        Self::with_telemetry(participants, oracle, spitz_obs::TelemetryHandle::disabled())
    }

    /// [`Self::new`], recording into `telemetry`: prepare/commit/abort/
    /// recovery counters, an in-doubt gauge, and `2pc_abort` ring events.
    pub fn with_telemetry(
        participants: Vec<Arc<Participant>>,
        oracle: Arc<TimestampOracle>,
        telemetry: spitz_obs::TelemetryHandle,
    ) -> Self {
        assert!(!participants.is_empty(), "need at least one participant");
        TwoPhaseCoordinator {
            participants,
            oracle,
            fence: parking_lot::RwLock::new(()),
            obs: TwoPcObs::new(telemetry),
        }
    }

    /// Refresh the `twopc.in_doubt` gauge from the participants' prepared
    /// sets (the set a recovery pass would have to resolve right now).
    fn refresh_in_doubt(&self) {
        if !self.obs.telemetry.is_enabled() {
            return;
        }
        let mut ids = std::collections::HashSet::new();
        for participant in &self.participants {
            ids.extend(participant.prepared_ids());
        }
        self.obs.in_doubt.set(ids.len() as i64);
    }

    /// The participants, in routing order.
    pub fn participants(&self) -> &[Arc<Participant>] {
        &self.participants
    }

    /// Which participant owns a key.
    pub fn route(&self, key: &[u8]) -> usize {
        (spitz_crypto::sha256(key).prefix_u64() % self.participants.len() as u64) as usize
    }

    /// The participant owning `key`.
    fn participant_for(&self, key: &[u8]) -> &Arc<Participant> {
        &self.participants[self.route(key)]
    }

    /// Phase 1: partition the writes by owner and prepare every involved
    /// participant. On any `No` vote the already-prepared parts are aborted
    /// and the error is returned; on success the returned handle must be
    /// finished with [`TwoPhaseCoordinator::commit_prepared`] or
    /// [`TwoPhaseCoordinator::abort_prepared`].
    pub fn prepare(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<PreparedGlobal, TxnError> {
        let _fence = self.fence.read();
        let global_txn_id = self.oracle.allocate();
        self.obs.prepares.inc();

        // Partition writes by participant.
        type Partitions = HashMap<usize, Vec<(Vec<u8>, Vec<u8>)>>;
        let mut partitions: Partitions = HashMap::new();
        for (key, value) in writes {
            partitions
                .entry(self.route(&key))
                .or_default()
                .push((key, value));
        }

        let involved: Vec<usize> = partitions.keys().copied().collect();
        let mut failure: Option<TxnError> = None;
        let mut prepared: Vec<usize> = Vec::new();
        for (&node, writes) in &partitions {
            match self.participants[node].prepare(global_txn_id, writes, statement) {
                Vote::Yes => prepared.push(node),
                Vote::No(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
        if let Some(error) = failure {
            for node in prepared {
                self.participants[node].abort(global_txn_id);
            }
            self.obs.aborts.inc();
            self.obs.telemetry.event(
                "2pc_abort",
                format!("gtid {global_txn_id} aborted at prepare: {error}"),
            );
            self.refresh_in_doubt();
            return Err(error);
        }
        self.refresh_in_doubt();
        Ok(PreparedGlobal {
            global_txn_id,
            involved,
        })
    }

    /// Phase 2 (commit): commit every prepared part. The commit decision is
    /// global — every participant is driven to commit even if an earlier one
    /// errors — and the first error (if any) is returned after the round.
    pub fn commit_prepared(&self, prepared: PreparedGlobal) -> Result<u64, TxnError> {
        let _fence = self.fence.read();
        let mut first_error = None;
        for node in &prepared.involved {
            if let Err(e) = self.participants[*node].commit(prepared.global_txn_id) {
                first_error.get_or_insert(e);
            }
        }
        self.obs.commits.inc();
        self.refresh_in_doubt();
        match first_error {
            Some(e) => Err(e),
            None => Ok(prepared.global_txn_id),
        }
    }

    /// Phase 2 (abort): abort every prepared part.
    pub fn abort_prepared(&self, prepared: PreparedGlobal) {
        let _fence = self.fence.read();
        for node in &prepared.involved {
            self.participants[*node].abort(prepared.global_txn_id);
        }
        self.obs.aborts.inc();
        self.obs.telemetry.event(
            "2pc_abort",
            format!(
                "gtid {} aborted by decision across {} participant(s)",
                prepared.global_txn_id,
                prepared.involved.len()
            ),
        );
        self.refresh_in_doubt();
    }

    /// Execute a distributed write transaction: partition the writes by
    /// owner, run 2PC, and return the global transaction id on success.
    pub fn execute(&self, writes: Vec<(Vec<u8>, Vec<u8>)>) -> Result<u64, TxnError> {
        let prepared = self.prepare(writes, "2PC")?;
        self.commit_prepared(prepared)
    }

    /// Coordinator-crash recovery: resolve every in-doubt transaction.
    /// Undecided (prepared) parts are presumed aborted — locks released,
    /// staged state discarded; decided-but-unapplied parts (a commit whose
    /// sink apply failed) get the apply retried, preserving all-or-nothing.
    /// Returns the number of transactions resolved.
    ///
    /// Recovery is fenced against in-flight 2PC rounds: it waits for any
    /// running prepare/commit/abort round to finish and blocks new ones
    /// while it resolves, so it can never presume-abort one part of a
    /// batch whose sibling part a concurrent round just committed.
    pub fn recover(&self) -> usize {
        let _fence = self.fence.write();
        let mut in_doubt = std::collections::HashSet::new();
        for participant in &self.participants {
            for global_txn_id in participant.prepared_ids() {
                in_doubt.insert(global_txn_id);
            }
        }
        for global_txn_id in &in_doubt {
            for participant in &self.participants {
                participant.resolve(*global_txn_id);
            }
        }
        self.obs.recovered.add(in_doubt.len() as u64);
        self.refresh_in_doubt();
        in_doubt.len()
    }

    /// Read the latest committed value of a key from its owning participant.
    pub fn read(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.participant_for(key).read_latest(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize, scheme: CcScheme) -> TwoPhaseCoordinator {
        let oracle = Arc::new(TimestampOracle::new());
        let participants: Vec<Arc<Participant>> = (0..nodes)
            .map(|i| {
                Arc::new(Participant::new(
                    format!("node-{i}"),
                    Arc::clone(&oracle),
                    scheme,
                ))
            })
            .collect();
        TwoPhaseCoordinator::new(participants, oracle)
    }

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (
            format!("key-{i}").into_bytes(),
            format!("value-{i}").into_bytes(),
        )
    }

    #[test]
    fn distributed_writes_commit_across_partitions() {
        let coordinator = cluster(3, CcScheme::Occ);
        let writes: Vec<_> = (0..50).map(kv).collect();
        coordinator.execute(writes.clone()).unwrap();
        for (k, v) in writes {
            assert_eq!(coordinator.read(&k), Some(v));
        }
    }

    #[test]
    fn keys_are_routed_deterministically() {
        let coordinator = cluster(4, CcScheme::Occ);
        for i in 0..100u32 {
            let (k, _) = kv(i);
            assert_eq!(coordinator.route(&k), coordinator.route(&k));
            assert!(coordinator.route(&k) < 4);
        }
    }

    #[test]
    fn conflicting_transaction_aborts_everywhere() {
        let coordinator = cluster(2, CcScheme::TwoPhaseLocking);
        // Prepare (but do not finish) a transaction holding a lock on one key
        // by going through a participant directly.
        let (key, value) = kv(1);
        let owner = coordinator.participant_for(&key);
        assert_eq!(
            owner.prepare(9999, &[(key.clone(), value.clone())], "PUT"),
            Vote::Yes
        );

        // A distributed transaction touching that key and another one must
        // abort entirely: neither write becomes visible.
        let (other_key, other_value) = kv(2);
        let result = coordinator.execute(vec![
            (key.clone(), b"conflict".to_vec()),
            (other_key.clone(), other_value),
        ]);
        assert!(result.is_err());
        assert_eq!(coordinator.read(&other_key), None);

        // Release the blocker and retry: now it commits.
        owner.commit(9999).unwrap();
        assert_eq!(coordinator.read(&key), Some(value));
        coordinator
            .execute(vec![(key.clone(), b"after".to_vec())])
            .unwrap();
        assert_eq!(coordinator.read(&key), Some(b"after".to_vec()));
    }

    #[test]
    fn sequential_transactions_on_same_key_all_commit() {
        let coordinator = cluster(3, CcScheme::Occ);
        let (key, _) = kv(7);
        for i in 0..20u32 {
            coordinator
                .execute(vec![(key.clone(), format!("v{i}").into_bytes())])
                .unwrap();
        }
        assert_eq!(coordinator.read(&key), Some(b"v19".to_vec()));
    }

    #[test]
    fn single_participant_cluster_works() {
        let coordinator = cluster(1, CcScheme::TimestampOrdering);
        coordinator.execute((0..10).map(kv).collect()).unwrap();
        assert_eq!(coordinator.read(&kv(3).0), Some(kv(3).1));
    }

    #[test]
    fn recover_aborts_in_doubt_transactions_and_releases_locks() {
        let coordinator = cluster(3, CcScheme::TwoPhaseLocking);
        let writes: Vec<_> = (0..20).map(kv).collect();

        // Prepare everywhere, then "crash" before the commit decision.
        let prepared = coordinator.prepare(writes.clone(), "PUT").unwrap();
        assert!(prepared.involved.len() > 1, "writes must span participants");
        drop(prepared);

        // Nothing is visible and the keys are still locked.
        for (k, _) in &writes {
            assert_eq!(coordinator.read(k), None);
        }
        assert!(coordinator.execute(writes.clone()).is_err());

        // Recovery decides abort; afterwards the same writes go through.
        assert_eq!(coordinator.recover(), 1);
        assert_eq!(coordinator.recover(), 0, "recovery is idempotent");
        coordinator.execute(writes.clone()).unwrap();
        for (k, v) in writes {
            assert_eq!(coordinator.read(&k), Some(v));
        }
    }

    #[test]
    fn prepared_apply_sink_sees_commits_and_not_aborts() {
        use std::sync::Mutex as StdMutex;

        /// Records every sink interaction for inspection.
        #[derive(Default)]
        struct Recorder {
            staged: StdMutex<Vec<u64>>,
            applied: StdMutex<Vec<(u64, usize, String)>>,
            discarded: StdMutex<Vec<u64>>,
            fail_stage: std::sync::atomic::AtomicBool,
        }

        impl PreparedApply for Recorder {
            fn stage(&self, id: u64, _writes: &[(Vec<u8>, Vec<u8>)]) -> Result<(), String> {
                if self.fail_stage.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err("no space".into());
                }
                self.staged.lock().unwrap().push(id);
                Ok(())
            }
            fn apply(
                &self,
                id: u64,
                writes: Vec<(Vec<u8>, Vec<u8>)>,
                statement: &str,
            ) -> Result<(), String> {
                self.applied
                    .lock()
                    .unwrap()
                    .push((id, writes.len(), statement.to_string()));
                Ok(())
            }
            fn discard(&self, id: u64) {
                self.discarded.lock().unwrap().push(id);
            }
        }

        let oracle = Arc::new(TimestampOracle::new());
        let recorder = Arc::new(Recorder::default());
        let participant = Participant::with_apply(
            "node-0",
            Arc::clone(&oracle),
            CcScheme::TwoPhaseLocking,
            Some(Arc::clone(&recorder) as Arc<dyn PreparedApply>),
        );

        // Commit path: staged then applied with the statement.
        assert_eq!(participant.prepare(1, &[kv(1)], "INSERT"), Vote::Yes);
        assert_eq!(participant.prepared_ids(), vec![1]);
        participant.commit(1).unwrap();
        assert_eq!(recorder.applied.lock().unwrap()[0], (1, 1, "INSERT".into()));

        // Abort path: staged then discarded, never applied.
        assert_eq!(participant.prepare(2, &[kv(2)], "INSERT"), Vote::Yes);
        participant.abort(2);
        assert_eq!(*recorder.discarded.lock().unwrap(), vec![2]);
        assert_eq!(recorder.applied.lock().unwrap().len(), 1);

        // A staging failure turns into a No vote and holds nothing open.
        recorder
            .fail_stage
            .store(true, std::sync::atomic::Ordering::Relaxed);
        match participant.prepare(3, &[kv(3)], "INSERT") {
            Vote::No(error) => {
                assert!(matches!(error, TxnError::Storage(_)), "{error:?}");
                assert!(error.to_string().contains("no space"));
            }
            Vote::Yes => panic!("staging failure must veto the prepare"),
        }
        assert!(participant.prepared_ids().is_empty());
    }
}
