//! The single-node transactional storage engine.
//!
//! Combines [`MvccStore`], [`LockTable`], and the WAL into a non-blocking
//! engine suitable for event-driven servers: operations that must wait for
//! a lock return [`OpResult::Blocked`] and are retried automatically when
//! the blocking transaction finishes — the engine reports *resumptions* so
//! the caller (e.g. [`crate::server::DbServer`]) can answer parked clients.
//!
//! Isolation levels (§4.2 of the paper):
//! - **Read committed**: MVCC reads of the latest committed version at
//!   statement time; writes are buffered and applied blindly at commit
//!   (last-writer-wins). Exhibits non-repeatable reads and lost updates —
//!   deliberately, since this is the level many microservice deployments
//!   run at.
//! - **Snapshot isolation**: reads at the begin-time snapshot; the first
//!   committer wins on write-write conflicts. Exhibits write skew.
//! - **Serializable**: strict two-phase locking with deadlock detection.
//!
//! Durability: every commit appends a redo record to the WAL before it is
//! acknowledged. Every [`EngineConfig::checkpoint_every`] commits the
//! engine folds the WAL records written since the previous checkpoint
//! into the durable checkpoint image *in place*, then truncates the log —
//! a checkpoint costs O(writes since the last one), not O(rows stored).
//! Only the first image is built from scratch, in one bulk pass over the
//! MVCC store. Recovery loads the image and replays the WAL tail.

use std::collections::BTreeMap;
use tca_sim::DetHashMap as HashMap;

use crate::locks::{Acquire, LockMode, LockTable};
use crate::mvcc::MvccStore;
use crate::types::{AbortReason, IsolationLevel, Key, Timestamp, TxId, Value};
use crate::wal::{Checkpoint, DurableCell, DurableLog, WalRecord};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Take a checkpoint (and truncate the WAL) every this many commits.
    pub checkpoint_every: u64,
    /// Run MVCC garbage collection alongside checkpoints.
    pub gc: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            checkpoint_every: 1024,
            gc: true,
        }
    }
}

/// Result of a read or write request.
#[derive(Debug, Clone, PartialEq)]
pub enum OpResult {
    /// Read produced this value (`None` = key absent).
    Read(Option<Value>),
    /// Write buffered successfully.
    Written,
    /// The operation must wait for a lock; the engine parked it.
    Blocked,
    /// The transaction was aborted by the engine.
    Aborted(AbortReason),
}

/// Result of a commit request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitResult {
    /// Durable at this timestamp.
    Committed(Timestamp),
    /// Validation or deadlock forced an abort.
    Aborted(AbortReason),
}

/// A parked operation resumed by someone else's commit/abort.
#[derive(Debug, Clone, PartialEq)]
pub struct Resumption {
    /// The transaction whose operation resumed.
    pub tx: TxId,
    /// Its (now completed) result.
    pub result: OpResult,
}

/// What a transaction read and wrote — input to the serializability checker.
#[derive(Debug, Clone)]
pub struct TxFootprint {
    /// Transaction id.
    pub tx: TxId,
    /// Commit timestamp.
    pub commit_ts: Timestamp,
    /// Isolation level it ran at.
    pub iso: IsolationLevel,
    /// Keys read, with the commit timestamp of the version observed
    /// (0 = observed absence).
    pub reads: Vec<(Key, Timestamp)>,
    /// Keys written.
    pub writes: Vec<Key>,
}

#[derive(Debug)]
enum PendingOp {
    Read(Key),
    Write(Key, Option<Value>),
}

#[derive(Debug)]
struct ActiveTx {
    iso: IsolationLevel,
    begin_ts: Timestamp,
    writes: BTreeMap<Key, Option<Value>>,
    reads: Vec<(Key, Timestamp)>,
    pending: Option<PendingOp>,
}

/// The transactional engine.
pub struct Engine {
    config: EngineConfig,
    mvcc: MvccStore,
    locks: LockTable,
    wal: DurableLog<WalRecord>,
    checkpoint: DurableCell<Checkpoint<BTreeMap<Key, Value>>>,
    clock: Timestamp,
    next_tx: u64,
    active: HashMap<TxId, ActiveTx>,
    commits_since_checkpoint: u64,
    footprints: Vec<TxFootprint>,
    aborts: HashMap<AbortReason, u64>,
    commit_count: u64,
}

impl Engine {
    /// Fresh engine writing to the given durable log and checkpoint cell.
    pub fn new(
        config: EngineConfig,
        wal: DurableLog<WalRecord>,
        checkpoint: DurableCell<Checkpoint<BTreeMap<Key, Value>>>,
    ) -> Self {
        Engine {
            config,
            mvcc: MvccStore::new(),
            locks: LockTable::new(),
            wal,
            checkpoint,
            clock: 0,
            next_tx: 0,
            active: HashMap::default(),
            commits_since_checkpoint: 0,
            footprints: Vec::new(),
            aborts: HashMap::default(),
            commit_count: 0,
        }
    }

    /// Rebuild an engine from its durable state: load the latest
    /// checkpoint, then replay every WAL record after it (redo-only,
    /// ARIES-lite). Transactions active at the crash never reached the WAL
    /// and are thus implicitly aborted — atomicity by construction.
    pub fn recover(
        config: EngineConfig,
        wal: DurableLog<WalRecord>,
        checkpoint: DurableCell<Checkpoint<BTreeMap<Key, Value>>>,
    ) -> Self {
        let mut engine = Engine::new(config, wal.clone(), checkpoint.clone());
        let mut replay_from = 0;
        if let Some(cp) = checkpoint.load() {
            engine.mvcc.load_snapshot(cp.state, cp.ts);
            engine.clock = cp.ts;
            replay_from = cp.covered_lsn;
        }
        wal.for_each_from(replay_from, |record| {
            for (key, value) in &record.writes {
                engine.mvcc.install(key, record.commit_ts, value.clone());
            }
            engine.clock = engine.clock.max(record.commit_ts);
            // Bulk loads use TxId::MAX as a sentinel; don't let it poison
            // the transaction counter.
            if record.tx.0 != u64::MAX {
                engine.next_tx = engine.next_tx.max(record.tx.0 + 1);
            }
        });
        engine
    }

    /// Start a transaction at the given isolation level.
    pub fn begin(&mut self, iso: IsolationLevel) -> TxId {
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        self.active.insert(
            tx,
            ActiveTx {
                iso,
                begin_ts: self.clock,
                writes: BTreeMap::new(),
                reads: Vec::new(),
                pending: None,
            },
        );
        tx
    }

    /// Read `key` in transaction `tx`.
    pub fn read(&mut self, tx: TxId, key: &Key) -> (OpResult, Vec<Resumption>) {
        if !self.active.contains_key(&tx) {
            return (OpResult::Aborted(AbortReason::Requested), Vec::new());
        }
        self.do_read(tx, key)
    }

    /// Write `value` to `key` in transaction `tx` (`None` = delete).
    pub fn write(
        &mut self,
        tx: TxId,
        key: &Key,
        value: Option<Value>,
    ) -> (OpResult, Vec<Resumption>) {
        if !self.active.contains_key(&tx) {
            return (OpResult::Aborted(AbortReason::Requested), Vec::new());
        }
        self.do_write(tx, key, value)
    }

    fn do_read(&mut self, tx: TxId, key: &Key) -> (OpResult, Vec<Resumption>) {
        let state = self.active.get(&tx).expect("active");
        // Read-your-own-writes at every level.
        if let Some(buffered) = state.writes.get(key) {
            return (OpResult::Read(buffered.clone()), Vec::new());
        }
        match state.iso {
            IsolationLevel::ReadCommitted => {
                let (value, ts) = self.observe_latest(key);
                self.active
                    .get_mut(&tx)
                    .expect("active")
                    .reads
                    .push((key.clone(), ts));
                (OpResult::Read(value), Vec::new())
            }
            IsolationLevel::SnapshotIsolation => {
                let begin_ts = state.begin_ts;
                let value = self.mvcc.read_at(key, begin_ts).cloned();
                let ts = self.version_ts_at(key, begin_ts);
                self.active
                    .get_mut(&tx)
                    .expect("active")
                    .reads
                    .push((key.clone(), ts));
                (OpResult::Read(value), Vec::new())
            }
            IsolationLevel::Serializable => match self.locks.acquire(tx, key, LockMode::Shared) {
                Acquire::Granted => {
                    let (value, ts) = self.observe_latest(key);
                    self.active
                        .get_mut(&tx)
                        .expect("active")
                        .reads
                        .push((key.clone(), ts));
                    (OpResult::Read(value), Vec::new())
                }
                Acquire::Waiting => {
                    self.active.get_mut(&tx).expect("active").pending =
                        Some(PendingOp::Read(key.clone()));
                    (OpResult::Blocked, Vec::new())
                }
                Acquire::Deadlock => {
                    let resumed = self.internal_abort(tx, AbortReason::Deadlock);
                    (OpResult::Aborted(AbortReason::Deadlock), resumed)
                }
            },
        }
    }

    fn do_write(
        &mut self,
        tx: TxId,
        key: &Key,
        value: Option<Value>,
    ) -> (OpResult, Vec<Resumption>) {
        let iso = self.active.get(&tx).expect("active").iso;
        match iso {
            IsolationLevel::ReadCommitted | IsolationLevel::SnapshotIsolation => {
                self.active
                    .get_mut(&tx)
                    .expect("active")
                    .writes
                    .insert(key.clone(), value);
                (OpResult::Written, Vec::new())
            }
            IsolationLevel::Serializable => {
                match self.locks.acquire(tx, key, LockMode::Exclusive) {
                    Acquire::Granted => {
                        self.active
                            .get_mut(&tx)
                            .expect("active")
                            .writes
                            .insert(key.clone(), value);
                        (OpResult::Written, Vec::new())
                    }
                    Acquire::Waiting => {
                        self.active.get_mut(&tx).expect("active").pending =
                            Some(PendingOp::Write(key.clone(), value));
                        (OpResult::Blocked, Vec::new())
                    }
                    Acquire::Deadlock => {
                        let resumed = self.internal_abort(tx, AbortReason::Deadlock);
                        (OpResult::Aborted(AbortReason::Deadlock), resumed)
                    }
                }
            }
        }
    }

    /// Commit `tx`. On success the writes are in the WAL (durable) and
    /// visible to subsequent reads.
    pub fn commit(&mut self, tx: TxId) -> (CommitResult, Vec<Resumption>) {
        let Some(state) = self.active.get(&tx) else {
            return (CommitResult::Aborted(AbortReason::Requested), Vec::new());
        };
        // Snapshot-isolation first-committer-wins validation.
        if state.iso == IsolationLevel::SnapshotIsolation {
            let begin_ts = state.begin_ts;
            let conflict = state
                .writes
                .keys()
                .any(|k| self.mvcc.latest_ts(k).is_some_and(|ts| ts > begin_ts));
            if conflict {
                let resumed = self.internal_abort(tx, AbortReason::WriteConflict);
                return (CommitResult::Aborted(AbortReason::WriteConflict), resumed);
            }
        }
        let state = self.active.remove(&tx).expect("active");
        self.clock += 1;
        let commit_ts = self.clock;
        let writes: Vec<(Key, Option<Value>)> = state.writes.into_iter().collect();
        let written = writes.iter().map(|(key, _)| key.clone()).collect();
        if !writes.is_empty() {
            for (key, value) in &writes {
                self.mvcc.install(key, commit_ts, value.clone());
            }
            self.wal.append(WalRecord {
                tx,
                commit_ts,
                writes,
            });
        }
        self.footprints.push(TxFootprint {
            tx,
            commit_ts,
            iso: state.iso,
            reads: state.reads,
            writes: written,
        });
        self.commit_count += 1;
        self.commits_since_checkpoint += 1;
        if self.commits_since_checkpoint >= self.config.checkpoint_every {
            self.take_checkpoint();
        }
        let granted = self.locks.release_all(tx);
        let resumed = self.resume(granted);
        (CommitResult::Committed(commit_ts), resumed)
    }

    /// Abort `tx`, dropping its buffered writes and releasing its locks.
    pub fn abort(&mut self, tx: TxId) -> Vec<Resumption> {
        if self.active.contains_key(&tx) {
            self.internal_abort(tx, AbortReason::Requested)
        } else {
            Vec::new()
        }
    }

    fn internal_abort(&mut self, tx: TxId, reason: AbortReason) -> Vec<Resumption> {
        self.active.remove(&tx);
        *self.aborts.entry(reason).or_insert(0) += 1;
        let granted = self.locks.release_all(tx);
        self.resume(granted)
    }

    /// Retry the parked operation of every newly granted transaction.
    fn resume(&mut self, granted: Vec<TxId>) -> Vec<Resumption> {
        let mut out = Vec::new();
        for tx in granted {
            let Some(state) = self.active.get_mut(&tx) else {
                continue;
            };
            let Some(op) = state.pending.take() else {
                continue;
            };
            let (result, mut nested) = match op {
                PendingOp::Read(key) => self.do_read(tx, &key),
                PendingOp::Write(key, value) => self.do_write(tx, &key, value),
            };
            out.push(Resumption { tx, result });
            out.append(&mut nested);
        }
        out
    }

    /// Take a checkpoint now and truncate the WAL up to it.
    ///
    /// The WAL records in `[covered_lsn, next_lsn)` are folded into the
    /// stored image in place. An empty image is instead built in one bulk
    /// pass over the MVCC latest state: that packs the B-tree densely,
    /// where tens of thousands of single inserts would leave its nodes
    /// half full.
    pub fn take_checkpoint(&mut self) {
        let lsn = self.wal.next_lsn();
        let ts = self.clock;
        let (wal, mvcc) = (&self.wal, &self.mvcc);
        self.checkpoint.update(|slot| match slot {
            Some(cp) if !cp.state.is_empty() => {
                wal.for_each_from(cp.covered_lsn, |record| fold_record(&mut cp.state, record));
                cp.covered_lsn = lsn;
                cp.ts = ts;
            }
            _ => {
                *slot = Some(Checkpoint {
                    state: mvcc.snapshot_latest(),
                    covered_lsn: lsn,
                    ts,
                });
            }
        });
        self.wal.truncate_to(lsn);
        self.commits_since_checkpoint = 0;
        if self.config.gc {
            let horizon = self
                .active
                .values()
                .map(|t| t.begin_ts)
                .min()
                .unwrap_or(self.clock);
            self.mvcc.gc(horizon);
        }
    }

    fn observe_latest(&self, key: &str) -> (Option<Value>, Timestamp) {
        let value = self.mvcc.read_latest(key).cloned();
        let ts = if value.is_some() {
            self.mvcc.latest_ts(key).unwrap_or(0)
        } else {
            0
        };
        (value, ts)
    }

    fn version_ts_at(&self, key: &str, at: Timestamp) -> Timestamp {
        if self.mvcc.read_at(key, at).is_some() {
            // Find the version's own ts by narrowing: latest_ts if <= at,
            // else walk via read semantics. A linear refinement suffices
            // for checker purposes: we return `at` bounded observation.
            self.mvcc.latest_ts(key).map_or(0, |latest| latest.min(at))
        } else {
            0
        }
    }

    // ----- introspection --------------------------------------------------

    /// Engine logical clock (last commit timestamp).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Latest committed value of `key` (non-transactional peek, for tests
    /// and audits).
    pub fn peek(&self, key: &str) -> Option<Value> {
        self.mvcc.read_latest(key).cloned()
    }

    /// Non-transactional scan of latest values under a prefix.
    pub fn peek_prefix(&self, prefix: &str) -> Vec<(Key, Value)> {
        self.mvcc
            .scan_latest(prefix)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Bulk-load initial data outside any transaction (setup only).
    pub fn load(&mut self, key: &Key, value: Value) {
        self.clock += 1;
        let ts = self.clock;
        self.wal.append(WalRecord {
            tx: TxId(u64::MAX),
            commit_ts: ts,
            writes: vec![(key.clone(), Some(value.clone()))],
        });
        self.mvcc.install(key, ts, Some(value));
    }

    /// Number of committed transactions.
    pub fn commit_count(&self) -> u64 {
        self.commit_count
    }

    /// Abort counts by reason.
    pub fn abort_count(&self, reason: AbortReason) -> u64 {
        self.aborts.get(&reason).copied().unwrap_or(0)
    }

    /// Number of currently active transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Drain the recorded transaction footprints (checker input).
    pub fn take_footprints(&mut self) -> Vec<TxFootprint> {
        std::mem::take(&mut self.footprints)
    }

    /// The WAL handle (e.g. to hand to a recovery test).
    pub fn wal(&self) -> &DurableLog<WalRecord> {
        &self.wal
    }
}

/// Apply one redo record to a checkpoint image. Keys already in the image
/// are overwritten in place, so the fold allocates only for new keys.
fn fold_record(image: &mut BTreeMap<Key, Value>, record: &WalRecord) {
    for (key, value) in &record.writes {
        let Some(value) = value else {
            image.remove(key);
            continue;
        };
        match image.get_mut(key) {
            Some(slot) => slot.clone_from(value),
            None => {
                image.insert(key.clone(), value.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(
            EngineConfig::default(),
            DurableLog::new(),
            DurableCell::new(),
        )
    }

    fn k(s: &str) -> Key {
        s.to_owned()
    }

    #[test]
    fn simple_commit_visible() {
        let mut e = engine();
        let tx = e.begin(IsolationLevel::Serializable);
        assert_eq!(
            e.write(tx, &k("a"), Some(Value::Int(1))).0,
            OpResult::Written
        );
        let (r, _) = e.commit(tx);
        assert!(matches!(r, CommitResult::Committed(_)));
        assert_eq!(e.peek("a"), Some(Value::Int(1)));
    }

    #[test]
    fn read_your_own_writes() {
        for iso in [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ] {
            let mut e = engine();
            let tx = e.begin(iso);
            let _ = e.write(tx, &k("a"), Some(Value::Int(7)));
            let (r, _) = e.read(tx, &k("a"));
            assert_eq!(r, OpResult::Read(Some(Value::Int(7))), "{iso}");
        }
    }

    #[test]
    fn abort_discards_writes() {
        let mut e = engine();
        let tx = e.begin(IsolationLevel::Serializable);
        e.write(tx, &k("a"), Some(Value::Int(1)));
        e.abort(tx);
        assert_eq!(e.peek("a"), None);
        assert_eq!(e.abort_count(AbortReason::Requested), 1);
    }

    #[test]
    fn snapshot_isolation_sees_begin_snapshot() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t1 = e.begin(IsolationLevel::SnapshotIsolation);
        // Another transaction commits a change after t1 began.
        let t2 = e.begin(IsolationLevel::SnapshotIsolation);
        e.write(t2, &k("a"), Some(Value::Int(2)));
        assert!(matches!(e.commit(t2).0, CommitResult::Committed(_)));
        // t1 still sees the old value.
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(1))));
    }

    #[test]
    fn read_committed_sees_latest_each_statement() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t1 = e.begin(IsolationLevel::ReadCommitted);
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(1))));
        let t2 = e.begin(IsolationLevel::ReadCommitted);
        e.write(t2, &k("a"), Some(Value::Int(2)));
        e.commit(t2);
        // Non-repeatable read at RC.
        assert_eq!(e.read(t1, &k("a")).0, OpResult::Read(Some(Value::Int(2))));
    }

    #[test]
    fn si_first_committer_wins() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::SnapshotIsolation);
        let t2 = e.begin(IsolationLevel::SnapshotIsolation);
        e.write(t1, &k("a"), Some(Value::Int(1)));
        e.write(t2, &k("a"), Some(Value::Int(2)));
        assert!(matches!(e.commit(t1).0, CommitResult::Committed(_)));
        let (r, _) = e.commit(t2);
        assert_eq!(r, CommitResult::Aborted(AbortReason::WriteConflict));
        assert_eq!(e.peek("a"), Some(Value::Int(1)));
    }

    #[test]
    fn serializable_write_blocks_and_resumes() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::Serializable);
        let t2 = e.begin(IsolationLevel::Serializable);
        assert_eq!(
            e.write(t1, &k("a"), Some(Value::Int(1))).0,
            OpResult::Written
        );
        assert_eq!(
            e.write(t2, &k("a"), Some(Value::Int(2))).0,
            OpResult::Blocked
        );
        let (r, resumed) = e.commit(t1);
        assert!(matches!(r, CommitResult::Committed(_)));
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].tx, t2);
        assert_eq!(resumed[0].result, OpResult::Written);
        assert!(matches!(e.commit(t2).0, CommitResult::Committed(_)));
        assert_eq!(e.peek("a"), Some(Value::Int(2)));
    }

    #[test]
    fn serializable_deadlock_aborts_requester() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(0));
        e.load(&k("b"), Value::Int(0));
        let t1 = e.begin(IsolationLevel::Serializable);
        let t2 = e.begin(IsolationLevel::Serializable);
        e.write(t1, &k("a"), Some(Value::Int(1)));
        e.write(t2, &k("b"), Some(Value::Int(1)));
        assert_eq!(
            e.write(t1, &k("b"), Some(Value::Int(1))).0,
            OpResult::Blocked
        );
        let (r, resumed) = e.write(t2, &k("a"), Some(Value::Int(1)));
        assert_eq!(r, OpResult::Aborted(AbortReason::Deadlock));
        // t2's abort released b, resuming t1's parked write.
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].result, OpResult::Written);
        assert!(matches!(e.commit(t1).0, CommitResult::Committed(_)));
    }

    #[test]
    fn serializable_prevents_lost_update() {
        // Two increments at Serializable always sum; at RC one is lost.
        let run = |iso: IsolationLevel| -> i64 {
            let mut e = engine();
            e.load(&k("c"), Value::Int(0));
            let t1 = e.begin(iso);
            let t2 = e.begin(iso);
            // Both read 0.
            let v1 = match e.read(t1, &k("c")).0 {
                OpResult::Read(Some(v)) => v.as_int(),
                other => panic!("{other:?}"),
            };
            // t2's read blocks at Serializable (t1 holds S... actually S+S
            // coexist; the write upgrade is where they collide).
            let v2 = match e.read(t2, &k("c")).0 {
                OpResult::Read(Some(v)) => v.as_int(),
                OpResult::Blocked => 0,
                other => panic!("{other:?}"),
            };
            e.write(t1, &k("c"), Some(Value::Int(v1 + 1)));
            let w2 = e.write(t2, &k("c"), Some(Value::Int(v2 + 1))).0;
            let c1 = e.commit(t1).0;
            if matches!(c1, CommitResult::Aborted(_)) {
                // t1 was the deadlock victim — retry serially.
                let t3 = e.begin(iso);
                let v = e.peek("c").unwrap().as_int();
                e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                e.commit(t3);
            }
            if !matches!(w2, OpResult::Aborted(_)) {
                let c2 = e.commit(t2).0;
                if matches!(c2, CommitResult::Aborted(_)) {
                    let t3 = e.begin(iso);
                    let v = e.peek("c").unwrap().as_int();
                    e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                    e.commit(t3);
                }
            } else {
                let t3 = e.begin(iso);
                let v = e.peek("c").unwrap().as_int();
                e.write(t3, &k("c"), Some(Value::Int(v + 1)));
                e.commit(t3);
            }
            e.peek("c").unwrap().as_int()
        };
        assert_eq!(run(IsolationLevel::ReadCommitted), 1, "RC loses an update");
        assert_eq!(run(IsolationLevel::Serializable), 2, "2PL keeps both");
    }

    #[test]
    fn recovery_replays_wal() {
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        {
            let mut e = Engine::new(EngineConfig::default(), wal.clone(), cp.clone());
            let t = e.begin(IsolationLevel::Serializable);
            e.write(t, &k("a"), Some(Value::Int(42)));
            e.commit(t);
            // Active (uncommitted) transaction at crash time.
            let t2 = e.begin(IsolationLevel::Serializable);
            e.write(t2, &k("b"), Some(Value::Int(99)));
            // crash: e dropped without commit
        }
        let recovered = Engine::recover(EngineConfig::default(), wal, cp);
        assert_eq!(recovered.peek("a"), Some(Value::Int(42)));
        assert_eq!(recovered.peek("b"), None, "uncommitted writes lost");
    }

    #[test]
    fn recovery_uses_checkpoint_and_tail() {
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        {
            let mut e = Engine::new(
                EngineConfig {
                    checkpoint_every: 2,
                    gc: true,
                },
                wal.clone(),
                cp.clone(),
            );
            for i in 0..5 {
                let t = e.begin(IsolationLevel::Serializable);
                e.write(t, &k(&format!("k{i}")), Some(Value::Int(i)));
                e.commit(t);
            }
        }
        assert!(cp.is_set(), "checkpoint taken");
        assert!(wal.len() < 5, "wal truncated at checkpoints");
        let recovered = Engine::recover(EngineConfig::default(), wal, cp);
        for i in 0..5 {
            assert_eq!(recovered.peek(&format!("k{i}")), Some(Value::Int(i)));
        }
    }

    #[test]
    fn footprints_capture_reads_and_writes() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t = e.begin(IsolationLevel::Serializable);
        e.read(t, &k("a"));
        e.write(t, &k("b"), Some(Value::Int(2)));
        e.commit(t);
        let fp = e.take_footprints();
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].reads.len(), 1);
        assert_eq!(fp[0].writes, vec![k("b")]);
        assert!(e.take_footprints().is_empty(), "drained");
    }

    #[test]
    fn delete_via_none() {
        let mut e = engine();
        e.load(&k("a"), Value::Int(1));
        let t = e.begin(IsolationLevel::Serializable);
        e.write(t, &k("a"), None);
        e.commit(t);
        assert_eq!(e.peek("a"), None);
    }

    #[test]
    fn commit_on_unknown_tx_rejected() {
        let mut e = engine();
        let (r, _) = e.commit(TxId(999));
        assert_eq!(r, CommitResult::Aborted(AbortReason::Requested));
    }

    /// One step of the fold-equivalence property: `(op, key, value)`.
    /// `op` picks begin / put / delete / commit / abort / bulk load /
    /// explicit checkpoint / crash-and-recover; `key` names one of 12 keys
    /// (and, modulo the open transactions, which one acts); `value` is the
    /// written value (and, modulo 3, a begin's isolation level).
    type FoldStep = (u8, u8, i64);

    /// `(covered_lsn, ts)` of the stored checkpoint, if any.
    fn checkpoint_mark(
        cp: &DurableCell<Checkpoint<BTreeMap<Key, Value>>>,
    ) -> Option<(u64, Timestamp)> {
        cp.update(|slot| slot.as_ref().map(|c| (c.covered_lsn, c.ts)))
    }

    fn fold_equivalence_prop(input: &(Vec<FoldStep>, u64)) {
        let (steps, checkpoint_every) = input;
        let config = EngineConfig {
            checkpoint_every: *checkpoint_every,
            gc: true,
        };
        let wal = DurableLog::new();
        let cp = DurableCell::new();
        let mut e = Engine::new(config.clone(), wal.clone(), cp.clone());
        let mut open: Vec<TxId> = Vec::new();
        let isolation = [
            IsolationLevel::ReadCommitted,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializable,
        ];
        for (i, &(op, key, value)) in steps.iter().enumerate() {
            let before = checkpoint_mark(&cp);
            let k = format!("k{key}");
            let pick = |open: &[TxId]| open[key as usize % open.len()];
            match op {
                0 if open.len() < 3 => open.push(e.begin(isolation[value as usize % 3])),
                1 | 2 if !open.is_empty() => {
                    let written = (op == 1).then_some(Value::Int(value));
                    let _ = e.write(pick(&open), &k, written);
                }
                3 if !open.is_empty() => {
                    let tx = pick(&open);
                    open.retain(|&t| t != tx);
                    let _ = e.commit(tx);
                }
                4 if !open.is_empty() => {
                    let tx = pick(&open);
                    open.retain(|&t| t != tx);
                    let _ = e.abort(tx);
                }
                5 => e.load(&k, Value::Int(value)),
                6 => e.take_checkpoint(),
                7 => {
                    let live = e.mvcc.snapshot_latest();
                    e = Engine::recover(config.clone(), wal.clone(), cp.clone());
                    open.clear();
                    assert_eq!(e.mvcc.snapshot_latest(), live, "step {i}: recovery");
                    for key in 0..12 {
                        let k = format!("k{key}");
                        assert_eq!(e.peek(&k), live.get(&k).cloned(), "step {i}: {k}");
                    }
                }
                _ => {}
            }
            if checkpoint_mark(&cp) != before {
                let image = cp.load().expect("checkpoint stored").state;
                assert_eq!(image, e.mvcc.snapshot_latest(), "step {i}: image");
                assert_eq!(e.wal().len(), 0, "step {i}: WAL truncated");
            }
        }
        let live = e.mvcc.snapshot_latest();
        let recovered = Engine::recover(config, wal, cp);
        assert_eq!(recovered.mvcc.snapshot_latest(), live, "final recovery");
    }

    /// Folding the WAL tail into the checkpoint image in place yields
    /// exactly the image a full rebuild would, across random mixes of
    /// transactions at every isolation level, bulk loads, deletes,
    /// explicit checkpoints and crash/recover cycles.
    #[test]
    fn checkpoint_fold_matches_full_rebuild() {
        use tca_sim::check::{check, i64_in, tuple2, tuple3, u64_in, u8_in, vec_of};
        let steps = vec_of(tuple3(u8_in(0, 8), u8_in(0, 12), i64_in(0, 100)), 1, 150);
        let input = tuple2(steps, u64_in(1, 6));
        check(
            "checkpoint_fold_matches_full_rebuild",
            &input,
            fold_equivalence_prop,
        );
    }
}
