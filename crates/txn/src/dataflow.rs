//! Epoch-batched parallel deterministic transactional dataflow — the
//! Styx-scale engine (§4.2, and the Delft dissertation "Democratizing
//! Scalable Cloud Applications" in `PAPERS.md`).
//!
//! Serializability comes from one global order that every shard executes
//! deterministically (Calvin/Styx, §3.1: "transactional serializability
//! on computations cutting across functions"). The pipeline:
//!
//! 1. **Epoch batching.** The [`DfSequencer`] buffers submitted
//!    transactions and closes an *epoch* on a timer, assigning every
//!    transaction a position in one global order. Each closed epoch is
//!    durably journaled before it is announced, then broadcast to all
//!    shards and retransmitted until acknowledged.
//! 2. **Conflict detection.** At epoch close, the sequencer layers the
//!    batch into *waves* by read/write-key analysis: a transaction's wave
//!    is one past the deepest earlier transaction it shares a key with,
//!    so transactions inside one wave are pairwise conflict-free and the
//!    wave count equals the batch's longest dependency chain.
//! 3. **Parallel apply.** Each [`DfShard`] owns a consistent-hash arc of
//!    the keyspace ([`ShardMap::ring`], the same placement discipline as
//!    the storage router). Within a wave every hosted transaction
//!    executes concurrently in virtual time (the wave costs
//!    `exec_cost × ceil(txns/workers)` instead of the serial sum); shards
//!    advance wave by wave, exchanging *read shares* for cross-shard
//!    transactions and pulling lost shares with a retry request. No
//!    locks, no aborts — serializability is the order itself.
//! 4. **Exactly-once output.** A shard buffers client outcomes while an
//!    epoch is in flight and emits them exactly when the epoch completes:
//!    the same handler atomically journals the epoch's inputs, advances
//!    the durable `applied` mark, and sends the replies. Epochs at or
//!    below `applied` are ignored on receipt and never re-emitted, and
//!    the sequencer's *watermark* — the minimum acknowledged epoch across
//!    the fleet, monotone by construction — bounds how much share/journal
//!    history anyone must retain.
//! 5. **Checkpoint/recovery.** Every `checkpoint_every` epochs a shard
//!    brings its durable state snapshot up to date *in place*: the
//!    snapshot lives in one durable cell on the shard's disk, and only
//!    the keys written since the previous snapshot are copied into it, so
//!    a checkpoint costs what changed, not the shard's whole state. The
//!    input journal is garbage-collected up to `min(watermark,
//!    snapshot)` — local replay needs every epoch after the snapshot,
//!    peers' share pulls every epoch after the watermark. A
//!    crashed shard reboots from the snapshot, locally re-executes the
//!    journaled epochs (their full read sets were persisted, so replay
//!    needs no network), re-acknowledges its durable position, and the
//!    sequencer streams it every later epoch. Peers stuck waiting on the
//!    crashed shard's shares pull them once the replayer catches up.
//!
//! Everything here is opt-in and draw-free: deploying the engine adds
//! processes but consumes no simulation randomness, so existing
//! experiment streams are unaffected.

use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_messaging::rpc::{reply_to, RpcRequest};
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, ShardMap, SimDuration};
use tca_storage::{DurableCell, ProcRegistry, Value};

// ---------------------------------------------------------------------------
// Procedures and the client protocol
// ---------------------------------------------------------------------------

/// A deterministic transaction body: `(args, full read set) → write set`.
/// Must be a pure function — every shard evaluates it identically.
pub type DetProcFn =
    Rc<dyn Fn(&[Value], &HashMap<String, Value>) -> Result<Vec<(String, Value)>, String>>;

/// Registry of deterministic procedures (shared by all shards).
#[derive(Clone, Default)]
pub struct DetRegistry {
    procs: HashMap<String, DetProcFn>,
}

impl DetRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        DetRegistry::default()
    }

    /// Register a procedure (builder style).
    pub fn with(
        mut self,
        name: &str,
        f: impl Fn(&[Value], &HashMap<String, Value>) -> Result<Vec<(String, Value)>, String> + 'static,
    ) -> Self {
        self.procs.insert(name.to_owned(), Rc::new(f));
        self
    }
}

/// Client request (inside an [`RpcRequest`]) to the sequencer.
///
/// As in Calvin, the read set is declared up front and writes may only
/// target declared keys.
#[derive(Debug, Clone)]
pub struct SubmitTxn {
    /// Registered procedure.
    pub proc: String,
    /// Arguments.
    pub args: Vec<Value>,
    /// Declared read set (writes must stay within it).
    pub read_keys: Vec<String>,
}

/// Transaction outcome (inside an `RpcReply`, sent by the owner shard).
#[derive(Debug, Clone)]
pub struct TxnOutcome {
    /// Ok = committed with these results (the write set size);
    /// Err = deterministic logic failure (all shards agree).
    pub result: Result<Vec<Value>, String>,
}

/// The standard transfer procedure for benchmarks: read two balances,
/// move `amount` if funds allow. Accounts never written read as 100.
pub fn transfer_registry() -> DetRegistry {
    DetRegistry::new().with("transfer", |args, reads| {
        let from = args[0].as_str();
        let to = args[1].as_str();
        let amount = args[2].as_int();
        let read_int = |k: &str| -> i64 {
            match reads.get(k) {
                Some(Value::Int(v)) => *v,
                _ => 100, // accounts start with 100
            }
        };
        let from_balance = read_int(from);
        if from_balance < amount {
            return Err("insufficient".into());
        }
        Ok(vec![
            (from.to_owned(), Value::Int(from_balance - amount)),
            (to.to_owned(), Value::Int(read_int(to) + amount)),
        ])
    })
}

/// The stored-procedure bank shared by the 2PC, saga and workflow
/// worlds: `debit(key, amount)` refuses to overdraw, `credit(key,
/// amount)` always applies, and a missing balance reads as 0.
pub fn bank_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("debit", |tx, args| {
            let key = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient".into());
            }
            tx.put(&key, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
        .with("credit", |tx, args| {
            let key = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(balance + amount));
            Ok(vec![Value::Int(balance + amount)])
        })
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning for the epoch-batched dataflow engine.
#[derive(Debug, Clone)]
pub struct DataflowConfig {
    /// Epoch (batch) close interval at the sequencer.
    pub epoch_interval: SimDuration,
    /// Virtual execution cost of one transaction on one worker core.
    pub exec_cost: SimDuration,
    /// Parallel workers per shard: a wave of `n` hosted transactions
    /// costs `exec_cost × ceil(n / workers)` of virtual time.
    pub workers: usize,
    /// Durable state snapshot cadence (epochs between checkpoints); the
    /// input journal is garbage-collected up to the older of the snapshot
    /// and the fleet watermark.
    pub checkpoint_every: u64,
    /// Retransmission sweep: the sequencer re-offers the next unacked
    /// epoch to each lagging shard, and a shard stuck waiting on remote
    /// read shares re-requests them, on this period.
    pub resend_interval: SimDuration,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            epoch_interval: SimDuration::from_micros(500),
            exec_cost: SimDuration::from_micros(50),
            workers: 8,
            checkpoint_every: 4,
            resend_interval: SimDuration::from_millis(20),
            vnodes: tca_sim::place::DEFAULT_VNODES,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// One globally ordered transaction inside an epoch.
#[derive(Debug, Clone)]
pub struct DfTxn {
    /// Global sequence number (dense, 1-based, across epochs).
    pub id: u64,
    /// Registered procedure name.
    pub proc: String,
    /// Procedure arguments.
    pub args: Vec<Value>,
    /// Declared read set; writes must stay within it.
    pub read_keys: Vec<String>,
    /// Submitting client (outcome receiver).
    pub client: ProcessId,
    /// Client correlation id (stable across client retries).
    pub call_id: u64,
}

/// A closed epoch: the batch, its wave layering, and the fleet watermark.
#[derive(Debug, Clone)]
struct EpochBatch {
    epoch: u64,
    /// Minimum epoch acknowledged by every shard (monotone).
    watermark: u64,
    txns: Rc<Vec<DfTxn>>,
    /// `waves[i]` is the conflict wave of `txns[i]` (0-based).
    waves: Rc<Vec<u32>>,
}

/// Shard → sequencer: "epoch `epoch` is durably applied here".
#[derive(Debug, Clone)]
struct EpochAck {
    shard: u32,
    epoch: u64,
}

/// Shard → shard: the sender's owned reads for one transaction.
#[derive(Debug, Clone)]
struct WaveShare {
    epoch: u64,
    txn_id: u64,
    pairs: Vec<(String, Value)>,
}

/// Shard → shard: "resend your shares for these transactions" (the pull
/// path that recovers shares lost to drops, partitions, or a receiver
/// that was down when they were pushed).
#[derive(Debug, Clone)]
struct ShareReq {
    epoch: u64,
    txn_ids: Vec<u64>,
}

// ---------------------------------------------------------------------------
// Sequencer
// ---------------------------------------------------------------------------

const EPOCH_TAG: u64 = 0xdf_0001;
const RESEND_TAG: u64 = 0xdf_0002;

/// Durable journal entry for one closed epoch (sequencer side).
#[derive(Debug, Clone)]
struct EpochLogEntry {
    txns: Vec<DfTxn>,
    waves: Vec<u32>,
}

/// In-memory decode of a journaled epoch: the batch and its wave layers,
/// shared by every outgoing [`EpochBatch`].
type CachedEpoch = (Rc<Vec<DfTxn>>, Rc<Vec<u32>>);

/// The epoch-batching global sequencer.
///
/// Closes an epoch when the buffer is non-empty and the epoch timer
/// fires; journals it durably (`ep/{n}` + `last_epoch` on its disk)
/// before broadcasting, so a closed epoch can always be replayed to a
/// recovering shard; tracks per-shard acknowledgements and re-offers the
/// next needed epoch to lagging shards on [`DataflowConfig::resend_interval`].
pub struct DfSequencer {
    config: DataflowConfig,
    shards: Rc<std::cell::RefCell<Vec<ProcessId>>>,
    buffer: Vec<DfTxn>,
    next_id: u64,
    last_epoch: u64,
    /// Highest epoch durably applied by each shard.
    acked: Vec<u64>,
    /// Decoded journal of closed epochs still above the watermark.
    log: HashMap<u64, CachedEpoch>,
    epoch_timer_armed: bool,
    resend_timer_armed: bool,
}

impl DfSequencer {
    fn boot(
        config: DataflowConfig,
        shards: Rc<std::cell::RefCell<Vec<ProcessId>>>,
        boot: &mut Boot,
    ) -> Self {
        let n = shards.borrow().len().max(1);
        let last_epoch = boot.disk.get::<u64>("last_epoch").unwrap_or(0);
        let next_id = boot.disk.get::<u64>("next_id").unwrap_or(0);
        let mut log = HashMap::default();
        for e in 1..=last_epoch {
            if let Some(entry) = boot.disk.get::<EpochLogEntry>(&format!("ep/{e}")) {
                log.insert(e, (Rc::new(entry.txns), Rc::new(entry.waves)));
            }
        }
        DfSequencer {
            config,
            shards,
            buffer: Vec::new(),
            next_id,
            last_epoch,
            acked: vec![0; n],
            log,
            epoch_timer_armed: false,
            resend_timer_armed: false,
        }
    }

    fn watermark(&self) -> u64 {
        self.acked.iter().copied().min().unwrap_or(0)
    }

    /// Highest epoch closed (and durably journaled) so far.
    #[must_use]
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Minimum epoch acknowledged by every shard: nothing at or below
    /// this is ever retransmitted or re-requested.
    #[must_use]
    pub fn fleet_watermark(&self) -> u64 {
        self.watermark()
    }

    /// Layer the batch into conflict-free waves: a transaction's wave is
    /// one past the deepest earlier transaction sharing any key with it,
    /// so same-wave transactions are pairwise disjoint and the number of
    /// waves equals the batch's longest key-dependency chain.
    fn layer_waves(txns: &[DfTxn]) -> Vec<u32> {
        let mut deepest: HashMap<&str, u32> = HashMap::default();
        let mut waves = Vec::with_capacity(txns.len());
        for txn in txns {
            let wave = txn
                .read_keys
                .iter()
                .filter_map(|k| deepest.get(k.as_str()).map(|w| w + 1))
                .max()
                .unwrap_or(0);
            for k in &txn.read_keys {
                deepest.insert(k.as_str(), wave);
            }
            waves.push(wave);
        }
        waves
    }

    fn batch_for(&self, epoch: u64) -> Option<EpochBatch> {
        self.log.get(&epoch).map(|(txns, waves)| EpochBatch {
            epoch,
            watermark: self.watermark(),
            txns: Rc::clone(txns),
            waves: Rc::clone(waves),
        })
    }

    /// Send `shard` the next epoch it needs, if one is closed.
    fn offer_next(&self, ctx: &mut Ctx, shard: usize) {
        let next = self.acked[shard] + 1;
        if next <= self.last_epoch {
            if let Some(batch) = self.batch_for(next) {
                ctx.send(self.shards.borrow()[shard], Payload::new(batch));
            }
        }
    }

    fn arm_resend(&mut self, ctx: &mut Ctx) {
        if !self.resend_timer_armed && self.watermark() < self.last_epoch {
            self.resend_timer_armed = true;
            ctx.set_timer(self.config.resend_interval, RESEND_TAG);
        }
    }
}

impl Process for DfSequencer {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // After a restart, closed-but-unacked epochs must flow again.
        self.arm_resend(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(request) = payload.downcast_ref::<RpcRequest>() {
            let Some(submit) = request.body.downcast_ref::<SubmitTxn>() else {
                return;
            };
            self.next_id += 1;
            ctx.disk().put("next_id", self.next_id);
            self.buffer.push(DfTxn {
                id: self.next_id,
                proc: submit.proc.clone(),
                args: submit.args.clone(),
                read_keys: submit.read_keys.clone(),
                client: from,
                call_id: request.call_id,
            });
            ctx.metrics().incr("df.submitted", 1);
            if !self.epoch_timer_armed {
                self.epoch_timer_armed = true;
                ctx.set_timer(self.config.epoch_interval, EPOCH_TAG);
            }
        } else if let Some(ack) = payload.downcast_ref::<EpochAck>() {
            let shard = ack.shard as usize;
            if shard >= self.acked.len() {
                return;
            }
            let before = self.watermark();
            if ack.epoch > self.acked[shard] {
                self.acked[shard] = ack.epoch;
            }
            let watermark = self.watermark();
            if watermark > before {
                // History at or below the fleet watermark can never be
                // requested again: every shard has durably applied it.
                for e in before + 1..=watermark {
                    self.log.remove(&e);
                    ctx.disk().remove(&format!("ep/{e}"));
                }
            }
            // Ack-driven catch-up: stream the next epoch immediately so a
            // recovering shard advances one epoch per round trip instead
            // of one per resend sweep.
            self.offer_next(ctx, shard);
            self.arm_resend(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag {
            EPOCH_TAG => {
                self.epoch_timer_armed = false;
                if self.buffer.is_empty() {
                    return;
                }
                self.last_epoch += 1;
                let txns = std::mem::take(&mut self.buffer);
                let waves = Self::layer_waves(&txns);
                // Journal before announcing: once any shard has seen the
                // epoch, the sequencer must be able to replay it forever
                // (until the watermark passes it).
                ctx.disk().put(
                    &format!("ep/{}", self.last_epoch),
                    EpochLogEntry {
                        txns: txns.clone(),
                        waves: waves.clone(),
                    },
                );
                ctx.disk().put("last_epoch", self.last_epoch);
                self.log
                    .insert(self.last_epoch, (Rc::new(txns), Rc::new(waves)));
                let batch = self.batch_for(self.last_epoch).expect("just journaled");
                ctx.metrics().incr("df.epochs", 1);
                ctx.metrics().incr(
                    "df.waves",
                    u64::from(*batch.waves.iter().max().unwrap_or(&0)) + 1,
                );
                for &shard in self.shards.borrow().iter() {
                    ctx.send(shard, Payload::new(batch.clone()));
                }
                self.arm_resend(ctx);
                if !self.buffer.is_empty() {
                    self.epoch_timer_armed = true;
                    ctx.set_timer(self.config.epoch_interval, EPOCH_TAG);
                }
            }
            RESEND_TAG => {
                self.resend_timer_armed = false;
                if self.watermark() >= self.last_epoch {
                    return; // fully acknowledged: go quiet
                }
                for shard in 0..self.acked.len() {
                    if self.acked[shard] < self.last_epoch {
                        ctx.metrics().incr("df.resends", 1);
                        self.offer_next(ctx, shard);
                    }
                }
                self.resend_timer_armed = true;
                ctx.set_timer(self.config.resend_interval, RESEND_TAG);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Shard
// ---------------------------------------------------------------------------

const WAVE_TAG: u64 = 0xdf_0003;
const STUCK_TAG: u64 = 0xdf_0004;

/// Durable journal entry for one applied epoch (shard side): the hosted
/// transactions with their *complete* read sets, so recovery re-executes
/// locally without any network exchange.
#[derive(Debug, Clone)]
struct ShardJournalEntry {
    txns: Vec<DfTxn>,
    reads: Vec<Vec<(String, Value)>>,
}

/// Durable state snapshot, brought up to date every
/// [`DataflowConfig::checkpoint_every`] epochs. Held in one
/// [`DurableCell`] on the shard's disk and updated in place.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    epoch: u64,
    state: HashMap<String, Value>,
}

/// One hosted transaction while its epoch is in flight.
struct PendingTxn {
    txn: DfTxn,
    wave: u32,
    /// Ring owners of the read set (ascending, deduped).
    participants: Vec<usize>,
    reads: HashMap<String, Value>,
}

/// The in-flight epoch on a shard.
struct EpochRun {
    epoch: u64,
    /// Hosted transactions in global order.
    pending: Vec<PendingTxn>,
    /// Waves of the *whole* epoch (cross-shard wave indices must align),
    /// processed in ascending order.
    wave: u32,
    max_wave: u32,
    /// Outcomes owed to clients, emitted all at once on completion.
    outcomes: Vec<(ProcessId, u64, TxnOutcome)>,
    /// Journal accumulation: executed txns + their full read sets.
    journal: ShardJournalEntry,
    /// Set when a wave has been executed and its cost timer is pending.
    cost_timer_pending: bool,
    stuck_timer_armed: bool,
}

/// One shard of the epoch-batched dataflow engine. See the module docs
/// for the pipeline; see [`deploy_dataflow`] for construction.
pub struct DfShard {
    registry: Rc<DetRegistry>,
    map: Rc<ShardMap>,
    shards: Rc<std::cell::RefCell<Vec<ProcessId>>>,
    sequencer: Rc<std::cell::Cell<ProcessId>>,
    index: usize,
    config: DataflowConfig,
    state: HashMap<String, Value>,
    /// Keys of `state` written since the durable snapshot was last
    /// brought up to date (repeats allowed). Volatile: after a restart,
    /// journal replay rewrites — and so re-lists — every key the snapshot
    /// lacks.
    dirty: Vec<String>,
    /// The durable snapshot, shared with the disk entry `snap`.
    snap: DurableCell<Snapshot>,
    /// Epoch the durable snapshot covers (mirrors `snap`).
    snap_epoch: u64,
    /// Highest epoch durably applied (mirrors the disk `applied` cell).
    applied: u64,
    /// Epochs received but not yet runnable (gap or one already running).
    buffered: HashMap<u64, EpochBatch>,
    run: Option<EpochRun>,
    /// Shares received ahead of their wave/epoch: (epoch, txn) → pairs.
    early_shares: HashMap<(u64, u64), Vec<(String, Value)>>,
    /// Shares *sent* per epoch/txn, kept for pull-retries until the
    /// fleet watermark passes the epoch. Volatile: pulls for epochs this
    /// shard already applied are answered from the durable journal
    /// instead (the cache of a crashed shard is gone, but a peer that
    /// still needs those shares has not acked, so the watermark — and
    /// with it journal GC — cannot have passed the epoch).
    share_cache: HashMap<u64, HashMap<u64, Vec<(String, Value)>>>,
    /// Journal-GC cursor: every `jrnl/{e}` with `e <= jrnl_gc` has been
    /// removed. Volatile; rewinds to 0 on restart (re-removing is a
    /// no-op).
    jrnl_gc: u64,
}

impl DfShard {
    fn boot(
        registry: Rc<DetRegistry>,
        map: Rc<ShardMap>,
        shards: Rc<std::cell::RefCell<Vec<ProcessId>>>,
        sequencer: Rc<std::cell::Cell<ProcessId>>,
        index: usize,
        config: DataflowConfig,
        boot: &mut Boot,
    ) -> Self {
        let snap: DurableCell<Snapshot> = boot.disk.get("snap").unwrap_or_else(|| {
            let cell = DurableCell::new();
            boot.disk.put("snap", cell.clone());
            cell
        });
        let (snap_epoch, state) = snap
            .load()
            .map_or((0, HashMap::default()), |s| (s.epoch, s.state));
        let applied = boot.disk.get::<u64>("applied").unwrap_or(0);
        let mut shard = DfShard {
            registry,
            map,
            shards,
            sequencer,
            index,
            config,
            state,
            dirty: Vec::new(),
            snap,
            snap_epoch,
            applied: snap_epoch,
            buffered: HashMap::default(),
            run: None,
            early_shares: HashMap::default(),
            share_cache: HashMap::default(),
            jrnl_gc: 0,
        };
        // Recovery: re-execute the journaled epochs between the snapshot
        // and the durable applied mark. Inputs (including remote reads)
        // were persisted with each epoch, so this is pure local compute;
        // outputs were already emitted by the pre-crash incarnation, so
        // nothing is sent.
        for epoch in snap_epoch + 1..=applied {
            if let Some(entry) = boot.disk.get::<ShardJournalEntry>(&format!("jrnl/{epoch}")) {
                shard.replay_entry(&entry);
            }
            shard.applied = epoch;
        }
        shard
    }

    fn replay_entry(&mut self, entry: &ShardJournalEntry) {
        for (txn, reads) in entry.txns.iter().zip(&entry.reads) {
            let read_map: HashMap<String, Value> = reads.iter().cloned().collect();
            let result = match self.registry.procs.get(&txn.proc) {
                Some(f) => f(&txn.args, &read_map),
                None => Err(format!("unknown procedure `{}`", txn.proc)),
            };
            if let Ok(writes) = result {
                for (key, value) in writes {
                    if self.map.owner(&key) == self.index {
                        self.dirty.push(key.clone());
                        self.state.insert(key, value);
                    }
                }
            }
        }
    }

    /// Bring the durable snapshot up to `epoch` by copying in only the
    /// keys written since it was last updated.
    fn checkpoint(&mut self, epoch: u64) {
        let (dirty, state) = (std::mem::take(&mut self.dirty), &self.state);
        self.snap.update(|slot| {
            let snap = slot.get_or_insert_with(Snapshot::default);
            for key in dirty {
                let value = state[&key].clone();
                snap.state.insert(key, value);
            }
            snap.epoch = epoch;
        });
        self.snap_epoch = epoch;
    }

    fn participants_of(&self, txn: &DfTxn) -> Vec<usize> {
        let mut p: Vec<usize> = txn.read_keys.iter().map(|k| self.map.owner(k)).collect();
        p.sort_unstable();
        p.dedup();
        p
    }

    /// The shard that replies to the client: ring owner of the first
    /// declared read key (all shards compute the same answer).
    fn reply_owner(&self, txn: &DfTxn) -> usize {
        txn.read_keys.first().map_or(0, |k| self.map.owner(k))
    }

    fn ack(&self, ctx: &mut Ctx) {
        ctx.send(
            self.sequencer.get(),
            Payload::new(EpochAck {
                shard: self.index as u32,
                epoch: self.applied,
            }),
        );
    }

    fn gc_below(&mut self, ctx: &mut Ctx, watermark: u64) {
        if watermark == 0 {
            return;
        }
        self.share_cache.retain(|&epoch, _| epoch > watermark);
        self.early_shares.retain(|&(epoch, _), _| epoch > watermark);
        // Journal entries serve two masters: local replay needs
        // everything after the snapshot, peers' share pulls need
        // everything after the watermark. Drop what neither can ask for.
        let bound = watermark.min(self.snap_epoch);
        while self.jrnl_gc < bound {
            self.jrnl_gc += 1;
            ctx.disk().remove(&format!("jrnl/{}", self.jrnl_gc));
        }
    }

    /// Start the next buffered epoch if none is running and it is the
    /// successor of the durable applied mark, then pump its first wave.
    fn try_start(&mut self, ctx: &mut Ctx) {
        while self.run.is_none() {
            let next = self.applied + 1;
            let Some(batch) = self.buffered.remove(&next) else {
                return;
            };
            let max_wave = batch.waves.iter().copied().max().unwrap_or(0);
            let mut pending = Vec::new();
            for (txn, &wave) in batch.txns.iter().zip(batch.waves.iter()) {
                if txn
                    .read_keys
                    .iter()
                    .any(|k| self.map.owner(k) == self.index)
                {
                    pending.push(PendingTxn {
                        txn: txn.clone(),
                        wave,
                        participants: self.participants_of(txn),
                        reads: HashMap::default(),
                    });
                }
            }
            self.run = Some(EpochRun {
                epoch: next,
                pending,
                wave: 0,
                max_wave,
                outcomes: Vec::new(),
                journal: ShardJournalEntry {
                    txns: Vec::new(),
                    reads: Vec::new(),
                },
                cost_timer_pending: false,
                stuck_timer_armed: false,
            });
            self.enter_wave(ctx);
            self.pump(ctx);
            // `pump` may have completed the epoch inline (no hosted
            // transactions, zero exec cost): loop to start the successor.
        }
    }

    /// Push this shard's read shares for every hosted transaction of the
    /// current wave, and fold in any shares that arrived early.
    fn enter_wave(&mut self, ctx: &mut Ctx) {
        let Some(mut run) = self.run.take() else {
            return;
        };
        let epoch = run.epoch;
        let wave = run.wave;
        let me = self.index;
        let peers = self.shards.borrow().clone();
        for pending in run.pending.iter_mut().filter(|p| p.wave == wave) {
            let my_pairs: Vec<(String, Value)> = pending
                .txn
                .read_keys
                .iter()
                .filter(|k| self.map.owner(k) == me)
                .map(|k| (k.clone(), self.state.get(k).cloned().unwrap_or(Value::Null)))
                .collect();
            for (key, value) in &my_pairs {
                pending.reads.insert(key.clone(), value.clone());
            }
            if pending.participants.len() > 1 {
                let share = WaveShare {
                    epoch,
                    txn_id: pending.txn.id,
                    pairs: my_pairs.clone(),
                };
                for &p in &pending.participants {
                    if p != me {
                        ctx.send(peers[p], Payload::new(share.clone()));
                    }
                }
                self.share_cache
                    .entry(epoch)
                    .or_default()
                    .insert(pending.txn.id, my_pairs);
            }
            if let Some(early) = self.early_shares.remove(&(epoch, pending.txn.id)) {
                for (key, value) in early {
                    pending.reads.insert(key, value);
                }
            }
        }
        self.run = Some(run);
    }

    /// Execute the current wave if every hosted transaction in it has a
    /// complete read set; otherwise arm the share pull-retry timer.
    fn pump(&mut self, ctx: &mut Ctx) {
        {
            let Some(run) = self.run.as_ref() else { return };
            if run.cost_timer_pending {
                return; // wave already executed, waiting out its cost
            }
            let wave = run.wave;
            let ready = run
                .pending
                .iter()
                .filter(|p| p.wave == wave)
                .all(|p| p.txn.read_keys.iter().all(|k| p.reads.contains_key(k)));
            if !ready {
                let interval = self.config.resend_interval;
                let run = self.run.as_mut().expect("running");
                if !run.stuck_timer_armed {
                    run.stuck_timer_armed = true;
                    ctx.set_timer(interval, STUCK_TAG);
                }
                return;
            }
        }
        // Execute every hosted transaction of the wave "at once": apply
        // owned writes now, buffer outcomes, then pay one parallel cost.
        let mut run = self.run.take().expect("running");
        let wave = run.wave;
        let mut executed = 0u64;
        for pending in run.pending.iter().filter(|p| p.wave == wave) {
            executed += 1;
            let result = match self.registry.procs.get(&pending.txn.proc) {
                Some(f) => f(&pending.txn.args, &pending.reads),
                None => Err(format!("unknown procedure `{}`", pending.txn.proc)),
            };
            match &result {
                Ok(writes) => {
                    for (key, value) in writes {
                        debug_assert!(
                            pending.txn.read_keys.contains(key),
                            "write outside declared set: {key}"
                        );
                        if self.map.owner(key) == self.index {
                            self.dirty.push(key.clone());
                            self.state.insert(key.clone(), value.clone());
                        }
                    }
                    ctx.metrics().incr("df.applied", 1);
                }
                Err(_) => ctx.metrics().incr("df.logic_failures", 1),
            }
            if self.reply_owner(&pending.txn) == self.index {
                run.outcomes.push((
                    pending.txn.client,
                    pending.txn.call_id,
                    TxnOutcome {
                        result: result.map(|writes| vec![Value::Int(writes.len() as i64)]),
                    },
                ));
            }
            run.journal.txns.push(pending.txn.clone());
            run.journal.reads.push(
                pending
                    .reads
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            );
        }
        run.stuck_timer_armed = false;
        // One wave of n transactions on w workers costs ceil(n/w) serial
        // execution slots — the parallel-apply model.
        let slots = if executed == 0 {
            0
        } else {
            executed.div_ceil(self.config.workers.max(1) as u64)
        };
        let cost = SimDuration::from_nanos(self.config.exec_cost.as_nanos() * slots);
        if cost > SimDuration::ZERO {
            run.cost_timer_pending = true;
            self.run = Some(run);
            ctx.set_timer(cost, WAVE_TAG);
        } else {
            self.run = Some(run);
            self.advance_wave(ctx);
        }
    }

    /// Move past an executed wave: next wave, or complete the epoch.
    fn advance_wave(&mut self, ctx: &mut Ctx) {
        let next_wave = {
            let Some(run) = self.run.as_mut() else { return };
            run.cost_timer_pending = false;
            if run.wave < run.max_wave {
                run.wave += 1;
                true
            } else {
                false
            }
        };
        if next_wave {
            self.enter_wave(ctx);
            self.pump(ctx);
            return;
        }
        // Epoch complete. One handler atomically journals the inputs,
        // advances the durable applied mark, checkpoints when due, emits
        // the buffered outcomes, and acknowledges — the exactly-once
        // boundary (crashes cannot land between these steps).
        let run = self.run.take().expect("completing");
        let epoch = run.epoch;
        ctx.disk().put(
            &format!("jrnl/{epoch}"),
            ShardJournalEntry {
                txns: run.journal.txns,
                reads: run.journal.reads,
            },
        );
        self.applied = epoch;
        ctx.disk().put("applied", epoch);
        if epoch.is_multiple_of(self.config.checkpoint_every) {
            self.checkpoint(epoch);
            ctx.metrics().incr("df.checkpoints", 1);
            // Journal entries at or below the snapshot are no longer
            // needed for replay, but peers may still pull shares from
            // them — gc_below removes them once the watermark agrees.
        }
        for (client, call_id, outcome) in run.outcomes {
            let verdict = match outcome.result {
                Ok(_) => "df.ok",
                Err(_) => "df.err",
            };
            reply_to(
                ctx,
                client,
                &RpcRequest {
                    call_id,
                    body: Payload::new(()),
                },
                Payload::new(outcome),
            );
            ctx.metrics().incr("df.completed", 1);
            ctx.metrics().incr(verdict, 1);
        }
        ctx.metrics().incr("df.epochs_applied", 1);
        self.ack(ctx);
        // A successor epoch may already be buffered (the sequencer
        // broadcasts each epoch as it closes): start it immediately
        // rather than waiting for the ack-driven re-offer.
        self.try_start(ctx);
    }

    // ----- inspection ------------------------------------------------------

    /// Non-transactional read of this shard's committed state, for test
    /// and audit assertions only.
    #[must_use]
    pub fn peek(&self, key: &str) -> Option<&Value> {
        self.state.get(key)
    }

    /// Highest epoch durably applied by this shard.
    #[must_use]
    pub fn applied_epoch(&self) -> u64 {
        self.applied
    }

    /// True when no epoch is in flight on this shard (all received work
    /// durably applied).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.run.is_none() && self.buffered.is_empty()
    }
}

impl Process for DfShard {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        // (Re)announce the durable position: after a crash this tells the
        // sequencer where to resume streaming; on first boot it is the
        // zero ack that opens the pipeline.
        self.ack(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        if let Some(batch) = payload.downcast_ref::<EpochBatch>() {
            self.gc_below(ctx, batch.watermark);
            if batch.epoch <= self.applied {
                // Duplicate of an applied epoch: the ack may have been
                // lost, so re-acknowledge, but never re-run or re-emit.
                self.ack(ctx);
                return;
            }
            let running = self.run.as_ref().is_some_and(|r| r.epoch == batch.epoch);
            if !running {
                self.buffered
                    .entry(batch.epoch)
                    .or_insert_with(|| batch.clone());
            }
            self.try_start(ctx);
        } else if let Some(share) = payload.downcast_ref::<WaveShare>() {
            if share.epoch <= self.applied {
                return;
            }
            let mut pumped = false;
            if let Some(run) = self.run.as_mut() {
                if run.epoch == share.epoch {
                    if let Some(pending) = run.pending.iter_mut().find(|p| p.txn.id == share.txn_id)
                    {
                        for (key, value) in &share.pairs {
                            pending.reads.insert(key.clone(), value.clone());
                        }
                        pumped = true;
                    }
                }
            }
            if pumped {
                self.pump(ctx);
            } else {
                self.early_shares
                    .entry((share.epoch, share.txn_id))
                    .or_default()
                    .extend(share.pairs.iter().cloned());
            }
        } else if let Some(req) = payload.downcast_ref::<ShareReq>() {
            // Pull path. Live runs answer from the sent-share cache
            // (entries exist iff this shard has entered the transaction's
            // wave). The cache is volatile, so for epochs already applied
            // — where a crash may have wiped it — recompute the answer
            // from the durable journal: it stores each transaction's full
            // read set, of which this shard's owned keys are its share.
            // A requester still pulling has not acked the epoch, so the
            // watermark (and journal GC) cannot have passed it.
            for txn_id in &req.txn_ids {
                let pairs = self
                    .share_cache
                    .get(&req.epoch)
                    .and_then(|cache| cache.get(txn_id))
                    .cloned()
                    .or_else(|| {
                        if req.epoch > self.applied {
                            return None;
                        }
                        let entry = ctx
                            .disk()
                            .get::<ShardJournalEntry>(&format!("jrnl/{}", req.epoch))?;
                        let at = entry.txns.iter().position(|t| t.id == *txn_id)?;
                        Some(
                            entry.reads[at]
                                .iter()
                                .filter(|(k, _)| self.map.owner(k) == self.index)
                                .cloned()
                                .collect(),
                        )
                    });
                if let Some(pairs) = pairs {
                    ctx.metrics().incr("df.share_replies", 1);
                    ctx.send(
                        from,
                        Payload::new(WaveShare {
                            epoch: req.epoch,
                            txn_id: *txn_id,
                            pairs,
                        }),
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        match tag {
            WAVE_TAG => self.advance_wave(ctx),
            STUCK_TAG => {
                let me = self.index;
                let peers = self.shards.borrow().clone();
                let Some(run) = self.run.as_mut() else { return };
                run.stuck_timer_armed = false;
                if run.cost_timer_pending {
                    return;
                }
                // Still waiting on remote shares: pull them. Group the
                // missing transactions by the participants that owe us.
                let wave = run.wave;
                let epoch = run.epoch;
                let mut per_peer: HashMap<usize, Vec<u64>> = HashMap::default();
                for pending in run.pending.iter().filter(|p| p.wave == wave) {
                    let missing = pending
                        .txn
                        .read_keys
                        .iter()
                        .any(|k| !pending.reads.contains_key(k));
                    if missing {
                        for &p in &pending.participants {
                            if p != me {
                                per_peer.entry(p).or_default().push(pending.txn.id);
                            }
                        }
                    }
                }
                if per_peer.is_empty() {
                    return;
                }
                let mut peers_sorted: Vec<usize> = per_peer.keys().copied().collect();
                peers_sorted.sort_unstable();
                for p in peers_sorted {
                    let mut txn_ids = per_peer.remove(&p).expect("present");
                    txn_ids.sort_unstable();
                    ctx.metrics().incr("df.share_reqs", 1);
                    ctx.send(peers[p], Payload::new(ShareReq { epoch, txn_ids }));
                }
                let run = self.run.as_mut().expect("still running");
                run.stuck_timer_armed = true;
                ctx.set_timer(self.config.resend_interval, STUCK_TAG);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

/// Deploy the epoch-batched dataflow engine: one durable [`DfSequencer`]
/// on `seq_node` plus `n` [`DfShard`]s round-robin over `shard_nodes`,
/// partitioned by a consistent-hash ring ([`ShardMap::ring_with`]).
/// Returns `(sequencer, shards)`.
///
/// Clients submit [`SubmitTxn`] values wrapped in
/// [`tca_messaging::rpc::RpcClient`] calls to the sequencer and receive a
/// [`TxnOutcome`] reply from the shard owning the transaction's first
/// read key.
///
/// # Panics
///
/// Panics if `n` is zero or `shard_nodes` is empty.
///
/// ```rust
/// use tca_sim::{Payload, RpcRequest, Sim, SimDuration};
/// use tca_storage::Value;
/// use tca_txn::dataflow::{
///     deploy_dataflow, transfer_registry, DataflowConfig, DfShard, SubmitTxn,
/// };
///
/// let mut sim = Sim::with_seed(9);
/// let seq_node = sim.add_node();
/// let shard_nodes = sim.add_nodes(2);
/// let (sequencer, shards) = deploy_dataflow(
///     &mut sim,
///     seq_node,
///     &shard_nodes,
///     &transfer_registry(),
///     2,
///     DataflowConfig::default(),
/// );
///
/// let transfer = SubmitTxn {
///     proc: "transfer".into(),
///     args: vec![Value::Str("a".into()), Value::Str("b".into()), Value::Int(10)],
///     read_keys: vec!["a".into(), "b".into()],
/// };
/// sim.inject(sequencer, Payload::new(RpcRequest { call_id: 1, body: Payload::new(transfer) }));
/// sim.run_for(SimDuration::from_millis(30));
///
/// // Each key is visible on its ring owner; accounts start at 100.
/// let peek = |sim: &Sim, key: &str| {
///     shards
///         .iter()
///         .find_map(|&pid| sim.inspect::<DfShard>(pid).and_then(|s| s.peek(key)).cloned())
/// };
/// assert_eq!(peek(&sim, "a"), Some(Value::Int(90)));
/// assert_eq!(peek(&sim, "b"), Some(Value::Int(110)));
/// assert_eq!(sim.metrics().counter("df.completed"), 1); // exactly-once outcome
/// ```
pub fn deploy_dataflow(
    sim: &mut tca_sim::Sim,
    seq_node: tca_sim::NodeId,
    shard_nodes: &[tca_sim::NodeId],
    registry: &DetRegistry,
    n: usize,
    config: DataflowConfig,
) -> (ProcessId, Vec<ProcessId>) {
    assert!(n >= 1, "dataflow needs at least one shard");
    assert!(!shard_nodes.is_empty(), "dataflow needs shard nodes");
    let shared: Rc<std::cell::RefCell<Vec<ProcessId>>> =
        Rc::new(std::cell::RefCell::new(Vec::new()));
    let seq_cell: Rc<std::cell::Cell<ProcessId>> =
        Rc::new(std::cell::Cell::new(ProcessId::EXTERNAL));
    let registry = Rc::new(registry.clone());
    let map = Rc::new(ShardMap::ring_with(n, config.vnodes));
    let mut shard_pids = Vec::new();
    for i in 0..n {
        let node = shard_nodes[i % shard_nodes.len()];
        let registry = Rc::clone(&registry);
        let map = Rc::clone(&map);
        let shards = Rc::clone(&shared);
        let seq = Rc::clone(&seq_cell);
        let config = config.clone();
        let pid = sim.spawn(node, format!("df-shard-{i}"), move |boot: &mut Boot| {
            Box::new(DfShard::boot(
                Rc::clone(&registry),
                Rc::clone(&map),
                Rc::clone(&shards),
                Rc::clone(&seq),
                i,
                config.clone(),
                boot,
            ))
        });
        shard_pids.push(pid);
    }
    *shared.borrow_mut() = shard_pids.clone();
    let seq_shards = Rc::clone(&shared);
    let seq_config = config;
    let sequencer = sim.spawn(seq_node, "df-sequencer", move |boot| {
        Box::new(DfSequencer::boot(
            seq_config.clone(),
            Rc::clone(&seq_shards),
            boot,
        ))
    });
    seq_cell.set(sequencer);
    (sequencer, shard_pids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
    use tca_sim::{Sim, SimTime};

    struct Client {
        sequencer: ProcessId,
        plan: Vec<SubmitTxn>,
        rpc: RpcClient,
        /// Raw reply call_ids, checked *before* the RpcClient dedups.
        seen: Vec<u64>,
    }
    impl Process for Client {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, submit) in self.plan.clone().into_iter().enumerate() {
                self.rpc.call(
                    ctx,
                    self.sequencer,
                    Payload::new(submit),
                    RetryPolicy::at_most_once(SimDuration::from_secs(30)),
                    i as u64,
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(reply) = payload.downcast_ref::<tca_sim::RpcReply>() {
                // The RpcClient swallows duplicate replies, so audit the
                // wire-level call_ids here: exactly-once means no repeats.
                if self.seen.contains(&reply.call_id) {
                    ctx.metrics().incr("client.dup", 1);
                } else {
                    self.seen.push(reply.call_id);
                }
            }
            if let Some(RpcEvent::Reply { body, .. }) = self.rpc.on_message(ctx, &payload) {
                let outcome = body.expect::<TxnOutcome>();
                let metric = match &outcome.result {
                    Ok(_) => "client.ok",
                    Err(_) => "client.err",
                };
                ctx.metrics().incr(metric, 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
            let _ = self.rpc.on_timer(ctx, tag);
        }
    }

    fn transfer(from: &str, to: &str, amount: i64) -> SubmitTxn {
        SubmitTxn {
            proc: "transfer".into(),
            args: vec![Value::from(from), Value::from(to), Value::Int(amount)],
            read_keys: vec![from.to_owned(), to.to_owned()],
        }
    }

    fn build(plan: Vec<SubmitTxn>, shards: usize, config: DataflowConfig) -> (Sim, Vec<ProcessId>) {
        let mut sim = Sim::with_seed(77);
        let seq_node = sim.add_node();
        let shard_nodes = sim.add_nodes(shards);
        let (sequencer, pids) = deploy_dataflow(
            &mut sim,
            seq_node,
            &shard_nodes,
            &transfer_registry(),
            shards,
            config,
        );
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Client {
                sequencer,
                plan: plan.clone(),
                rpc: RpcClient::new(),
                seen: Vec::new(),
            })
        });
        (sim, pids)
    }

    fn run(plan: Vec<SubmitTxn>, shards: usize) -> Sim {
        let (mut sim, _) = build(plan, shards, DataflowConfig::default());
        sim.run_for(SimDuration::from_millis(500));
        sim
    }

    #[test]
    fn single_shard_transfer_completes() {
        let sim = run(vec![transfer("a", "b", 30)], 1);
        assert_eq!(sim.metrics().counter("client.ok"), 1);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn cross_shard_transfers_complete_exactly_once() {
        let plan: Vec<SubmitTxn> = (0..40)
            .map(|i| transfer(&format!("acct{i}"), &format!("acct{}", i + 1), 1))
            .collect();
        let sim = run(plan, 4);
        assert_eq!(sim.metrics().counter("client.ok"), 40);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn contended_batch_layers_into_waves_and_conserves() {
        // 50 transfers over the same two keys: the batch is one long
        // dependency chain, so waves = chain length, yet every transfer
        // commits in order and money is conserved.
        let plan: Vec<SubmitTxn> = (0..50).map(|_| transfer("a", "b", 2)).collect();
        let sim = run(plan, 3);
        assert_eq!(sim.metrics().counter("client.ok"), 50);
        assert_eq!(sim.metrics().counter("df.logic_failures"), 0);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
    }

    #[test]
    fn disjoint_batch_is_one_wave() {
        // 16 pairwise-disjoint transfers submitted together: conflict
        // analysis must put them all in wave 0 of their epoch(s).
        let plan: Vec<SubmitTxn> = (0..16)
            .map(|i| transfer(&format!("x{i}"), &format!("y{i}"), 1))
            .collect();
        let sim = run(plan, 4);
        assert_eq!(sim.metrics().counter("client.ok"), 16);
        let epochs = sim.metrics().counter("df.epochs");
        let waves = sim.metrics().counter("df.waves");
        assert_eq!(
            waves, epochs,
            "disjoint transactions must need exactly one wave per epoch"
        );
    }

    #[test]
    fn overdraft_fails_deterministically() {
        let plan = vec![transfer("a", "b", 60), transfer("a", "b", 60)];
        let sim = run(plan, 3);
        assert_eq!(sim.metrics().counter("client.ok"), 1);
        assert_eq!(sim.metrics().counter("client.err"), 1);
    }

    #[test]
    fn wave_layering_is_longest_chain() {
        let mk = |keys: &[&str]| DfTxn {
            id: 0,
            proc: String::new(),
            args: vec![],
            read_keys: keys.iter().map(|s| s.to_string()).collect(),
            client: ProcessId::EXTERNAL,
            call_id: 0,
        };
        // a-b | b-c | x-y | a-y: the last conflicts only with the two
        // wave-0 transactions, so it lands in wave 1 alongside b-c.
        let txns = vec![
            mk(&["a", "b"]),
            mk(&["b", "c"]),
            mk(&["x", "y"]),
            mk(&["a", "y"]),
        ];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 0, 1]);
        // A write in wave w pushes later readers of the key past w: c-d
        // then b-c then a-b chains 0, 1, 2 even though a-b and c-d are
        // disjoint from each other.
        let txns = vec![mk(&["c", "d"]), mk(&["b", "c"]), mk(&["a", "b"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 2]);
        // Disjoint batch: all wave 0.
        let txns = vec![mk(&["a"]), mk(&["b"]), mk(&["c"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 0, 0]);
        // Pure chain: 0,1,2.
        let txns = vec![mk(&["a", "b"]), mk(&["b", "c"]), mk(&["c", "d"])];
        assert_eq!(DfSequencer::layer_waves(&txns), vec![0, 1, 2]);
    }

    #[test]
    fn shard_crash_mid_epoch_recovers_from_checkpoint_and_replay() {
        // Submit two batches separated in time; crash one shard after the
        // first epoch closes, restart it, and require every transfer to
        // complete exactly once with conserved balances.
        let plan: Vec<SubmitTxn> = (0..12)
            .map(|i| transfer(&format!("acct{i}"), &format!("acct{}", i + 1), 1))
            .collect();
        let (mut sim, shard_pids) = build(plan, 3, DataflowConfig::default());
        let victim_node = sim.node_of(shard_pids[1]);
        // First epoch closes at ~500µs (interval) after the first submit;
        // crash inside the execution window, restart shortly after.
        sim.schedule_crash(SimTime::from_nanos(650_000), victim_node);
        sim.schedule_restart(SimTime::from_nanos(5_000_000), victim_node);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(
            sim.metrics().counter("client.ok"),
            12,
            "every transfer must complete despite the mid-epoch crash"
        );
        assert_eq!(
            sim.metrics().counter("client.dup"),
            0,
            "exactly-once output"
        );
        // All shards converge to the same applied epoch.
        let applied: Vec<u64> = shard_pids
            .iter()
            .map(|&p| sim.inspect::<DfShard>(p).expect("shard").applied_epoch())
            .collect();
        assert!(
            applied.windows(2).all(|w| w[0] == w[1]),
            "applied diverged: {applied:?}"
        );
        // Conservation: each account started at (default) 100.
        let total: i64 = (0..13)
            .map(|i| {
                let key = format!("acct{i}");
                shard_pids
                    .iter()
                    .find_map(|&p| {
                        let shard = sim.inspect::<DfShard>(p).expect("shard");
                        shard.peek(&key).map(|v| v.as_int())
                    })
                    .unwrap_or(100)
            })
            .sum();
        assert_eq!(total, 13 * 100, "money must be conserved through recovery");
    }

    #[test]
    fn checkpoint_truncates_journal_and_still_recovers() {
        // Aggressive checkpointing (every epoch) plus a crash: recovery
        // must come from the snapshot alone.
        let config = DataflowConfig {
            checkpoint_every: 1,
            ..DataflowConfig::default()
        };
        let plan: Vec<SubmitTxn> = (0..10).map(|_| transfer("a", "b", 1)).collect();
        let (mut sim, shard_pids) = build(plan, 2, config);
        let victim = sim.node_of(shard_pids[0]);
        sim.schedule_crash(SimTime::from_nanos(700_000), victim);
        sim.schedule_restart(SimTime::from_nanos(4_000_000), victim);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.metrics().counter("client.ok"), 10);
        assert_eq!(sim.metrics().counter("client.dup"), 0);
        assert!(sim.metrics().counter("df.checkpoints") > 0);
    }

    /// Epoch `e` of the paced plan: three transfers over six keys that no
    /// other epoch touches, so every key is written exactly once.
    fn paced_epoch(e: usize) -> Vec<SubmitTxn> {
        (0..3)
            .map(|j| {
                transfer(
                    &format!("e{e}k{}", 2 * j),
                    &format!("e{e}k{}", 2 * j + 1),
                    j as i64 + 1,
                )
            })
            .collect()
    }

    const PACED_EPOCHS: usize = 16;

    /// Run the paced plan on 3 shards snapshotting every 4 epochs: epoch
    /// `e` is submitted alone, 5 ms after epoch `e - 1`, so the fleet is
    /// idle between epochs. After the victim shard has applied each epoch
    /// in `crash_after` it crashes, and restarts 3 ms later — while the
    /// next epoch is in flight.
    fn run_paced(victim: usize, crash_after: &[usize]) -> (Sim, Vec<ProcessId>) {
        let config = DataflowConfig {
            checkpoint_every: 4,
            ..DataflowConfig::default()
        };
        let mut sim = Sim::with_seed(77);
        let seq_node = sim.add_node();
        let shard_nodes = sim.add_nodes(3);
        let (sequencer, pids) = deploy_dataflow(
            &mut sim,
            seq_node,
            &shard_nodes,
            &transfer_registry(),
            3,
            config,
        );
        let client_node = sim.add_node();
        let victim_node = sim.node_of(pids[victim]);
        for e in 1..=PACED_EPOCHS {
            let plan = paced_epoch(e);
            sim.spawn(client_node, format!("client-{e}"), move |_| {
                Box::new(Client {
                    sequencer,
                    plan: plan.clone(),
                    rpc: RpcClient::new(),
                    seen: Vec::new(),
                })
            });
            sim.run_for(SimDuration::from_millis(5));
            if crash_after.contains(&e) {
                // A restarted victim catches up through share pulls, so
                // it may still be behind: crash it only once it has
                // applied epoch `e` (no later epoch exists yet).
                let applied = |sim: &Sim| {
                    sim.inspect::<DfShard>(pids[victim])
                        .map_or(0, DfShard::applied_epoch)
                };
                for _ in 0..1_000 {
                    if applied(&sim) == e as u64 {
                        break;
                    }
                    sim.run_for(SimDuration::from_millis(1));
                }
                assert_eq!(applied(&sim), e as u64, "victim applied epoch {e}");
                sim.crash_node(victim_node);
                sim.schedule_restart(sim.now() + SimDuration::from_millis(3), victim_node);
            }
        }
        sim.run_for(SimDuration::from_secs(1));
        (sim, pids)
    }

    #[test]
    fn delta_snapshots_recover_between_checkpoints() {
        let map = ShardMap::ring_with(3, DataflowConfig::default().vnodes);
        // The victim owns a key of epoch 1 (written only before the first
        // snapshot) and keys of epochs 9 and 10 (applied after the second
        // snapshot, lost in the first crash, re-applied by journal replay
        // and carried only by the restarted shard's third snapshot).
        let victim = map.owner("e1k0");
        for e in [1, 9, 10] {
            assert!(
                (0..6).any(|k| map.owner(&format!("e{e}k{k}")) == victim),
                "placement must give the victim a key of epoch {e}"
            );
        }
        let (base, base_pids) = run_paced(victim, &[]);
        // Crash after epoch 10 (between the snapshots at 8 and 12), then
        // after epoch 13 (between 12 and 16): the second boot loads the
        // snapshot the replaying incarnation brought up to date.
        let (sim, pids) = run_paced(victim, &[10, 13]);
        let transfers = 3 * PACED_EPOCHS as u64;
        for run in [&base, &sim] {
            assert_eq!(run.metrics().counter("client.ok"), transfers);
            assert_eq!(
                run.metrics().counter("client.dup"),
                0,
                "exactly-once output"
            );
        }
        assert!(
            sim.metrics().counter("df.checkpoints") >= 3 * 3,
            "every shard snapshots at least three times"
        );
        let keys: Vec<String> = (1..=PACED_EPOCHS)
            .flat_map(|e| (0..6).map(move |k| format!("e{e}k{k}")))
            .collect();
        let mut total = 0;
        for key in &keys {
            for (&pid, &base_pid) in pids.iter().zip(&base_pids) {
                let got = sim.inspect::<DfShard>(pid).expect("shard").peek(key);
                let want = base.inspect::<DfShard>(base_pid).expect("shard").peek(key);
                assert_eq!(got, want, "{key} diverged from the crash-free run");
                total += got.map_or(0, Value::as_int);
            }
        }
        assert_eq!(total, 100 * keys.len() as i64, "money is conserved");
    }

    #[test]
    fn quiesces_when_all_epochs_acknowledged() {
        // After the workload drains, no timer may keep re-arming: the
        // sequencer goes quiet once the watermark reaches the last epoch.
        let (mut sim, _) = build(vec![transfer("a", "b", 1)], 2, DataflowConfig::default());
        assert!(
            sim.try_run_to_quiescence(200_000),
            "dataflow engine must quiesce after the workload drains"
        );
        assert_eq!(sim.metrics().counter("client.ok"), 1);
    }
}
