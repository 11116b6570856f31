//! Protocol worlds, each written once and checked by two drivers.
//!
//! A world is one protocol deployment: its topology, its work, and the
//! invariants that must hold over it. Each world has one builder, one
//! step invariant and one terminal audit. The drivers differ only in how
//! the work arrives and who picks the faults:
//!
//! - the **torture driver** (`*_torture_scenario`, a
//!   `fn(seed, &FaultPlan) -> Result` for [`tca_sim::check::torture`])
//!   applies a random [`FaultPlan`], spreads the work over the plan's fault
//!   window, runs past heal + grace, then runs the audit and the step
//!   invariant on the final state;
//! - the **model-checking driver** (`*_mc_scenario`, an [`McScenario`] for
//!   [`tca_sim::mc`]) injects a tiny workload at t=0 on a draw-free
//!   network and lets the checker enumerate deliveries, drops and crashes,
//!   holding the step invariant at every explored state and the audit at
//!   every closed leaf.
//!
//! The audits check what must hold once every fault has healed:
//!
//! - **atomicity** — no transaction half-applied (both branches commit or
//!   neither);
//! - **conservation** — transfers move money, never create or destroy it;
//! - **exactly-once effects** — final balances equal the initial state
//!   plus exactly one application per committed transaction, regardless
//!   of how many times the network duplicated or the protocol retried;
//! - **no stuck locks** — with every node back up and the system
//!   quiescent, no branch is in doubt, no engine transaction is open, and
//!   the coordinator's table is empty.
//!
//! Every bug the sweeps flushed out is pinned by the seed that found it in
//! `tests/torture_2pc.rs` and `tests/chaos.rs`; the interleaving bugs the
//! checker found are pinned as minimal schedules
//! ([`twopc_txid_reuse_schedule`], [`saga_id_reuse_schedule`]).

use std::borrow::Cow;
use std::collections::VecDeque;

use tca_messaging::rpc::{RetryPolicy, RpcRequest};
use tca_models::actor::{
    ActorCompletion, ActorId, ActorRouter, ActorSilo, Directory, DirectoryConfig, SiloConfig,
};
use tca_models::microservice::Vars;
use tca_sim::mc::{McScenario, Schedule};
use tca_sim::{
    Boot, Ctx, FaultPlan, NetworkConfig, NodeId, Payload, Process, ProcessId, RpcReply, ShardMap,
    Sim, SimConfig, SimDuration, SimTime,
};
use tca_storage::{DbMsg, DbRequest, DbServer, DbServerConfig, ProcRegistry, Value};

use crate::actor_txn::{transactional_bank_registry, transfer_plan};
use crate::dataflow::{
    bank_registry, deploy_dataflow, transfer_registry, DataflowConfig, DfSequencer, DfShard,
    SubmitTxn,
};
use crate::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use crate::twopc::{
    CoordinatorConfig, DecisionAck, DecisionInquiry, DecisionReq, DtxOutcome, ExecuteReq,
    ExecuteResp, ParticipantConfig, PrepareReq, StartDtx, TwoPcCoordinator, TwoPcParticipant, Vote,
};
use crate::workflow::{
    deploy_workflow, peek_sharded, step_marker_key, transfer_chain_def, GcWatermark, StartWorkflow,
    StepOutcome, StepReq, WorkflowConfig, WorkflowOrchestrator, WorkflowOutcome, WorkflowWorker,
};

/// Settle time after the fault horizon before auditing: long enough for
/// every timeout, inquiry, and retry chain in the protocols to complete
/// (participant sweeps are 100 ms, inquiries fire after 150 ms, the
/// coordinator retries every 20 ms).
const GRACE: SimDuration = SimDuration::from_millis(800);

// ---------------------------------------------------------------------------
// The two drivers
// ---------------------------------------------------------------------------

/// How a world's work arrives, and who picks the faults.
#[derive(Clone, Copy)]
enum Inject<'a> {
    /// Torture: the plan's faults hit the world's fault domain, and the
    /// work is spread over the first 3/4 of the plan's fault window so
    /// some of it lands mid-outage. Injections bypass the network; one
    /// addressed to a crashed node is dropped by the kernel (the request
    /// was lost — a client in a full stack would retry).
    Spread(&'a FaultPlan),
    /// Model checking: no plan (the checker enumerates faults itself), all
    /// work injected at t=0, and the checker may drop any of it.
    AtZero,
}

impl Inject<'_> {
    /// Applies the plan, if any, with the world's fault domain.
    fn faults(self, sim: &mut Sim, crashable: &[NodeId], partitionable: &[NodeId]) {
        if let Inject::Spread(plan) = self {
            plan.apply(sim, crashable, partitionable);
        }
    }

    /// Sends request `i` of `n` to `to`.
    fn send(self, sim: &mut Sim, to: ProcessId, i: u64, n: u64, body: Payload) {
        let request = Payload::new(RpcRequest { call_id: i, body });
        match self {
            Inject::Spread(plan) => {
                let span = plan.horizon.as_nanos() * 3 / 4;
                sim.inject_at(SimTime::from_nanos(1_000_000 + span * i / n), to, request);
            }
            Inject::AtZero => sim.inject(to, request),
        }
    }

    /// A fault-free torture run: the audits' exact expectations apply.
    fn benign(self) -> bool {
        matches!(self, Inject::Spread(plan) if plan.is_benign())
    }
}

/// One protocol world: everything both drivers need to know about it.
trait World: Clone + 'static {
    /// The name the model checker reports.
    fn name(&self) -> &'static str;

    /// Builds the world on `config`: topology, the faults, the work.
    fn build(&self, config: SimConfig, inject: Inject) -> Sim;

    /// When a torture run stops and audits.
    fn deadline(&self, plan: &FaultPlan) -> SimTime {
        SimTime::ZERO + plan.horizon + GRACE
    }

    /// Content fingerprint of a message the world sends; `None` makes the
    /// state opaque to the checker's visited set (sound, less pruning).
    fn payload_fp(_: &Payload) -> Option<u64> {
        None
    }

    /// Fingerprint of all behaviour-relevant state; `None` is opaque.
    fn state_fp(&self, _: &Sim) -> Option<u64> {
        None
    }

    /// What must hold at every state, mid-protocol included.
    fn step_invariant(&self, _: &Sim) -> Result<(), String> {
        Ok(())
    }

    /// What must hold once every fault has healed and the world settled.
    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String>;
}

fn torture(world: impl World, seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let inject = Inject::Spread(plan);
    let mut sim = world.build(SimConfig::with_seed(seed), inject);
    sim.run_until(world.deadline(plan));
    world.audit(&sim, inject)?;
    world.step_invariant(&sim)
}

fn model_check<W: World>(world: W) -> McScenario {
    let (builder, fingerprint, invariant) = (world.clone(), world.clone(), world.clone());
    McScenario {
        name: world.name().into(),
        build: Box::new(move || builder.build(mc_config(), Inject::AtZero)),
        payload_fp: Box::new(W::payload_fp),
        state_fp: Box::new(move |sim| fingerprint.state_fp(sim)),
        step_invariant: Box::new(move |sim| invariant.step_invariant(sim)),
        audit: Box::new(move |sim| world.audit(sim, Inject::AtZero)),
    }
}

/// A fixed seed and a fixed-latency, loss-free network: the checker's
/// choice enumeration replaces every random network behaviour, so
/// model-checked worlds must not draw from the RNG when routing.
fn mc_config() -> SimConfig {
    let network = NetworkConfig {
        latency_min: SimDuration::from_micros(250),
        latency_max: SimDuration::from_micros(250),
        local_latency: SimDuration::from_micros(10),
        drop_prob: 0.0,
        dup_prob: 0.0,
    };
    SimConfig { seed: 42, network }
}

// ---------------------------------------------------------------------------
// Shared checks and fingerprints
// ---------------------------------------------------------------------------

fn counter(sim: &Sim, name: &str) -> u64 {
    sim.metrics().counter(name)
}

fn fnv_bytes(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_debug(tag: u64, v: &impl std::fmt::Debug) -> u64 {
    fnv_bytes(tag, format!("{v:?}").into_bytes())
}

/// Content fingerprint for every message a 2PC world sends. Returns
/// `None` for unknown payload types, making such states opaque.
fn twopc_payload_fp(p: &Payload) -> Option<u64> {
    if let Some(r) = p.downcast_ref::<RpcRequest>() {
        Some(fnv_bytes(1, r.call_id.to_le_bytes()) ^ twopc_payload_fp(&r.body)?)
    } else if let Some(r) = p.downcast_ref::<RpcReply>() {
        Some(fnv_bytes(2, r.call_id.to_le_bytes()) ^ twopc_payload_fp(&r.body)?)
    } else if let Some(m) = p.downcast_ref::<ExecuteReq>() {
        Some(fnv_debug(3, m))
    } else if let Some(m) = p.downcast_ref::<ExecuteResp>() {
        Some(fnv_debug(4, m))
    } else if let Some(m) = p.downcast_ref::<PrepareReq>() {
        Some(fnv_debug(5, m))
    } else if let Some(m) = p.downcast_ref::<Vote>() {
        Some(fnv_debug(6, m))
    } else if let Some(m) = p.downcast_ref::<DecisionReq>() {
        Some(fnv_debug(7, m))
    } else if let Some(m) = p.downcast_ref::<DecisionAck>() {
        Some(fnv_debug(8, m))
    } else if let Some(m) = p.downcast_ref::<DecisionInquiry>() {
        Some(fnv_debug(9, m))
    } else if let Some(m) = p.downcast_ref::<DtxOutcome>() {
        Some(fnv_debug(10, m))
    } else {
        p.downcast_ref::<StartDtx>().map(|m| fnv_debug(11, m))
    }
}

/// Hashes `words` in order, seeded with `tag`.
fn fnv_words(tag: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(fnv_bytes(tag, []), |h, w| fnv_bytes(h, w.to_le_bytes()))
}

/// A participant-held balance as a fingerprint word.
fn balance_word(sim: &Sim, pid: ProcessId, key: &str) -> u64 {
    participant_balance(sim, pid, key).map_or(u64::MAX, |v| v as u64)
}

fn participant_digest(sim: &Sim, pid: ProcessId) -> u64 {
    sim.inspect::<TwoPcParticipant>(pid)
        .map(|p| p.state_digest())
        .unwrap_or(0)
}

fn coordinator_digest(sim: &Sim, pid: ProcessId) -> u64 {
    sim.inspect::<TwoPcCoordinator>(pid)
        .map(|c| c.state_digest())
        .unwrap_or(0)
}

fn participant_balance(sim: &Sim, pid: ProcessId, key: &str) -> Option<i64> {
    sim.inspect::<TwoPcParticipant>(pid)
        .and_then(|p| p.engine().peek(key))
        .map(|v| v.as_int())
}

fn peek_balance(sim: &Sim, pid: ProcessId, key: &str) -> Result<i64, String> {
    participant_balance(sim, pid, key).ok_or_else(|| format!("cannot peek {key}"))
}

/// No 2PC residue: no branch in doubt, no open engine transaction, and
/// nothing left in the coordinator's table.
fn twopc_residue(
    sim: &Sim,
    participants: impl IntoIterator<Item = ProcessId>,
    coordinator: ProcessId,
) -> Result<(), String> {
    for pid in participants {
        let name = sim.name_of(pid);
        let p = sim
            .inspect::<TwoPcParticipant>(pid)
            .ok_or_else(|| format!("cannot inspect {name}"))?;
        if p.in_doubt() != 0 {
            return Err(format!(
                "stuck locks: {name} has {} in-doubt branches",
                p.in_doubt()
            ));
        }
        if p.engine().active_count() != 0 {
            return Err(format!(
                "stuck locks: {name} has {} open engine transactions",
                p.engine().active_count()
            ));
        }
    }
    let open = sim
        .inspect::<TwoPcCoordinator>(coordinator)
        .map(|c| c.open_dtxs())
        .ok_or("cannot inspect coordinator")?;
    if open != 0 {
        return Err(format!("coordinator still tracks {open} open transactions"));
    }
    Ok(())
}

/// Atomicity and exactly-once for the transfers of `amount` over one
/// debit/credit account pair that `uses` transfers share: the debit and
/// the credit moved the same sum, a whole number of transfers' worth.
fn check_pair(i: u64, debited: i64, credited: i64, amount: i64, uses: u64) -> Result<(), String> {
    if debited != credited {
        return Err(format!(
            "atomicity: transfer {i} debited {debited} but credited {credited}"
        ));
    }
    if debited % amount != 0 || !(0..=uses as i64 * amount).contains(&debited) {
        return Err(format!(
            "exactly-once: transfer {i} moved {debited}, not a whole number of \
             its {uses} transfer(s) of {amount}"
        ));
    }
    Ok(())
}

/// Transfer `t` debits an account on shard `t % shards` and credits one
/// on shard `(t + 1) % shards`, so every transfer is cross-shard. Keys
/// `acct0, acct1, …` are dealt in order to the shard the ring places them
/// on, and each account takes part in one transfer only, so the audits
/// can check every transfer on its own.
fn ring_transfers(shards: usize, transfers: u64) -> Vec<(String, String)> {
    let map = ShardMap::ring(shards);
    let mut owned = vec![VecDeque::new(); shards];
    let mut next = 0u64;
    let mut take = |shard: usize| -> String {
        while owned[shard].is_empty() {
            let key = format!("acct{next}");
            next += 1;
            owned[map.owner(&key)].push_back(key);
        }
        owned[shard].pop_front().expect("scanned until non-empty")
    };
    (0..transfers as usize)
        .map(|t| (take(t % shards), take((t + 1) % shards)))
        .collect()
}

// ---------------------------------------------------------------------------
// Two-phase commit, flat and sharded
// ---------------------------------------------------------------------------

/// Starting balance of every debit account in the 2PC worlds.
const DEBIT_START: i64 = 150;
/// Starting balance of every credit account in the 2PC worlds.
const CREDIT_START: i64 = 100;
/// Per-transfer amount in the 2PC worlds.
const TWOPC_AMOUNT: i64 = 10;
/// Transfers a sharded torture run launches while shard 0 is cut off.
const TAIL: u64 = 2;
/// When the torture tail cuts shard 0 off, after the plan horizon: a plan
/// Heal heals *everything*, so the window must not overlap plan events.
const TAIL_CUT: SimTime = SimTime::from_nanos(450_000_000);
/// When the torture tail heals.
const TAIL_HEAL: SimTime = SimTime::from_nanos(550_000_000);

/// 2PC: participants (pids `0..n`) and a coordinator (pid `n`) running
/// `transfers` debit/credit transfers of `amount`. Transfer `i` moves
/// money over account pair `i % pairs`, whose two accounts the layout
/// places on participants.
#[derive(Clone)]
struct TwoPc {
    transfers: u64,
    amount: i64,
    participant: ParticipantConfig,
    layout: Layout,
}

#[derive(Clone)]
enum Layout {
    /// Two banks: `pa` holds the debit accounts `a{j}` and `pb` the
    /// credit accounts `b{j}`. One pair makes every transfer contend for
    /// the same locks; one pair per transfer means distinct transactions
    /// never conflict, so any coupling between them is protocol state
    /// leaking across transactions — the class of bug lock conflicts
    /// would otherwise mask.
    Banks { pairs: u64 },
    /// One participant per shard of a consistent-hash ring and one pair
    /// per transfer from [`ring_transfers`], so every transfer spans two
    /// shards. A torture run cuts shard 0 off from everyone — the
    /// coordinator included — while the last [`TAIL`] transfers are in
    /// flight, catching prepare/decision traffic mid-protocol.
    Ring {
        shards: u32,
        keys: Vec<(String, String)>,
    },
}

impl TwoPc {
    fn banks(transfers: u64, pairs: u64) -> Self {
        TwoPc {
            transfers,
            amount: TWOPC_AMOUNT,
            participant: ParticipantConfig::default(),
            layout: Layout::Banks { pairs },
        }
    }

    fn ring(shards: u32, transfers: u64) -> Self {
        let keys = ring_transfers(shards as usize, transfers);
        TwoPc {
            layout: Layout::Ring { shards, keys },
            ..TwoPc::banks(transfers, transfers)
        }
    }

    fn width(&self) -> u32 {
        match &self.layout {
            Layout::Banks { .. } => 2,
            Layout::Ring { shards, .. } => *shards,
        }
    }

    fn participants(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.width()).map(ProcessId)
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.width())
    }

    fn pairs(&self) -> u64 {
        match &self.layout {
            Layout::Banks { pairs } => *pairs,
            Layout::Ring { keys, .. } => keys.len() as u64,
        }
    }

    /// The participant holding pair `j`'s debit (`side` 0) or credit
    /// (`side` 1) account.
    fn owner(&self, j: u64, side: u64) -> ProcessId {
        match &self.layout {
            Layout::Banks { .. } => ProcessId(side as u32),
            Layout::Ring { shards, .. } => ProcessId(((j + side) % *shards as u64) as u32),
        }
    }

    /// The key of pair `j`'s debit (`side` 0) or credit (`side` 1) account.
    fn key(&self, j: u64, side: u64) -> Cow<'_, str> {
        match &self.layout {
            Layout::Banks { .. } if side == 0 => Cow::Owned(format!("a{j}")),
            Layout::Banks { .. } => Cow::Owned(format!("b{j}")),
            Layout::Ring { keys, .. } => {
                let (debit, credit) = &keys[j as usize];
                Cow::Borrowed(if side == 0 { debit } else { credit })
            }
        }
    }

    /// Participant `p`'s process name and metric prefix.
    fn names(&self, p: u32) -> (String, String) {
        match &self.layout {
            Layout::Banks { .. } => {
                let (process, prefix) = [("bank-a", "pa"), ("bank-b", "pb")][p as usize];
                (process.into(), prefix.into())
            }
            Layout::Ring { .. } => (format!("shard{p}"), format!("s{p}")),
        }
    }

    /// Transfers launched in the torture tail.
    fn tail(&self) -> u64 {
        match &self.layout {
            Layout::Banks { .. } => 0,
            Layout::Ring { .. } => TAIL,
        }
    }
}

impl World for TwoPc {
    fn name(&self) -> &'static str {
        match &self.layout {
            Layout::Banks { .. } => "twopc",
            Layout::Ring { .. } => "sharded-twopc",
        }
    }

    fn build(&self, config: SimConfig, inject: Inject) -> Sim {
        let mut sim = Sim::new(config);
        let nodes: Vec<NodeId> = (0..=self.width()).map(|_| sim.add_node()).collect();
        let n_coord = nodes[self.width() as usize];
        for (p, &node) in self.participants().zip(&nodes) {
            let seeds = (0..self.pairs())
                .flat_map(|j| [(j, 0), (j, 1)])
                .filter(|&(j, side)| self.owner(j, side) == p)
                .map(|(j, side)| {
                    let start = [DEBIT_START, CREDIT_START][side as usize];
                    (self.key(j, side).into_owned(), Value::Int(start))
                })
                .collect();
            let (process, prefix) = self.names(p.0);
            let participant = TwoPcParticipant::factory_seeded(
                prefix,
                self.participant.clone(),
                bank_registry(),
                seeds,
            );
            assert_eq!(sim.spawn(node, process, participant), p, "2PC spawn order");
        }
        let coordinator = sim.spawn(
            n_coord,
            "coordinator",
            TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
        );
        assert_eq!(coordinator, self.coordinator(), "2PC spawn order");
        // Only the coordinator crashes (the blocking role the paper
        // focuses on); participants keep their volatile branch tables,
        // partitions and loss stress every link.
        inject.faults(&mut sim, &[n_coord], &nodes);
        let start = |i: u64| {
            let j = i % self.pairs();
            let branches = [(0, "debit"), (1, "credit")]
                .into_iter()
                .map(|(side, proc)| {
                    let key = self.key(j, side).into_owned();
                    let args = vec![Value::from(key), Value::Int(self.amount)];
                    (self.owner(j, side), proc.to_string(), args)
                })
                .collect();
            Payload::new(StartDtx { branches })
        };
        let tail = match inject {
            Inject::Spread(_) => self.tail(),
            Inject::AtZero => 0,
        };
        let spread = self.transfers - tail;
        for i in 0..spread {
            inject.send(&mut sim, coordinator, i, spread, start(i));
        }
        if tail > 0 {
            let mut others = vec![n_coord];
            others.extend(&nodes[1..self.width() as usize]);
            sim.schedule_partition(TAIL_CUT, vec![nodes[0]], others);
            for i in spread..self.transfers {
                let request = Payload::new(RpcRequest {
                    call_id: i,
                    body: start(i),
                });
                let at = SimTime::from_nanos(455_000_000 + i * 5_000_000);
                sim.inject_at(at, coordinator, request);
            }
            sim.schedule_heal(TAIL_HEAL);
        }
        sim
    }

    fn deadline(&self, plan: &FaultPlan) -> SimTime {
        match self.tail() {
            0 => SimTime::ZERO + plan.horizon + GRACE,
            _ => TAIL_HEAL + GRACE,
        }
    }

    fn payload_fp(p: &Payload) -> Option<u64> {
        twopc_payload_fp(p)
    }

    fn state_fp(&self, sim: &Sim) -> Option<u64> {
        let digests = self
            .participants()
            .map(|pid| participant_digest(sim, pid))
            .chain([coordinator_digest(sim, self.coordinator())]);
        let balances = (0..self.pairs()).flat_map(|j| {
            [0, 1].map(|side| balance_word(sim, self.owner(j, side), &self.key(j, side)))
        });
        Some(fnv_words(12, digests.chain(balances)))
    }

    /// No participant holds a branch open for a transaction its
    /// coordinator already decided: such a branch holds locks nothing
    /// will release.
    fn step_invariant(&self, sim: &Sim) -> Result<(), String> {
        for pid in self.participants() {
            let zombies = sim
                .inspect::<TwoPcParticipant>(pid)
                .map_or(0, |p| p.zombie_branches());
            if zombies > 0 {
                return Err(format!(
                    "{}: {zombies} branch(es) open for already-decided txids \
                     (locks nothing will release)",
                    self.names(pid.0).1
                ));
            }
        }
        Ok(())
    }

    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String> {
        // Each pair's debit and credit moved together, in whole transfers;
        // every transfer that moved money committed one branch on each of
        // its two participants, and no other branch committed anywhere.
        let mut committed = 0;
        let mut branches = vec![0; self.width() as usize];
        for j in 0..self.pairs() {
            let [debit, credit] = [0, 1].map(|side| (self.owner(j, side), self.key(j, side)));
            let debited = DEBIT_START - peek_balance(sim, debit.0, &debit.1)?;
            let credited = peek_balance(sim, credit.0, &credit.1)? - CREDIT_START;
            let uses = (self.transfers - j).div_ceil(self.pairs());
            check_pair(j, debited, credited, self.amount, uses)?;
            let moved = (debited / self.amount) as u64;
            committed += moved;
            branches[debit.0 .0 as usize] += moved;
            branches[credit.0 .0 as usize] += moved;
        }
        for (p, &expected) in self.participants().zip(&branches) {
            let name = self.names(p.0).1;
            let commits = counter(sim, &format!("{name}.commits"));
            if commits != expected {
                return Err(format!(
                    "atomicity: {name} committed {commits} branches for {expected} \
                     committed transfers"
                ));
            }
        }
        if inject.benign() && committed + self.tail() < self.transfers {
            return Err(format!(
                "benign plan must commit every transfer outside the tail, \
                 got {committed} of {}",
                self.transfers
            ));
        }
        twopc_residue(sim, self.participants(), self.coordinator())
    }
}

/// 2PC torture: two banks, eight transfers between the same two
/// accounts, so they contend for locks, under the plan's coordinator
/// crashes, partitions and ambient loss/duplication.
pub fn twopc_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    torture(TwoPc::banks(8, 1), seed, plan)
}

/// The 2PC checking world: two banks and `transfers` independent
/// transfers, each on its own account pair, injected at time zero.
pub fn twopc_mc_scenario(transfers: u64) -> McScenario {
    model_check(TwoPc::banks(transfers, transfers))
}

/// The seeded-mutation self-test world: one transfer whose debit branch
/// *fails* (the amount exceeds the debit balance, so the coordinator
/// aborts while an `ExecuteReq` may still be in flight), with the
/// participant's late-execute guard disabled via
/// [`ParticipantConfig::accept_late_execute`]. The checker must find the
/// decision/execute race this reintroduces (the late-`ExecuteReq` bug) as
/// a zombie-branch invariant violation.
pub fn twopc_late_execute_mutation_scenario() -> McScenario {
    model_check(TwoPc {
        amount: DEBIT_START + 1,
        participant: ParticipantConfig {
            accept_late_execute: true,
            ..ParticipantConfig::default()
        },
        ..TwoPc::banks(1, 1)
    })
}

/// Pinned minimal schedule for the **same-instant coordinator reincarnation
/// txid-reuse bug** the checker found in `TwoPcCoordinator` (fixed by the
/// durable `txid_floor`): crash + restart the coordinator between two
/// `StartDtx` deliveries without advancing virtual time, so both
/// incarnations compute the same boot epoch and the second transaction
/// re-issues the first one's txid; the participant merges both
/// transactions into one branch, and with the first transaction's
/// other-participant `ExecuteReq` dropped (`x15`) the merged commit
/// diverges — one participant commits two branches, the other one.
///
/// Emitted by [`tca_sim::mc::explore`] over [`twopc_mc_scenario`]`(2)`
/// with a 1-crash + 1-drop budget at depth 7, then minimized by the
/// checker's greedy shrinker; kept replayable as a regression pin.
///
/// # Panics
///
/// Never in practice: the schedule literal is pinned and parsing it is
/// covered by the regression test that replays it.
pub fn twopc_txid_reuse_schedule() -> Schedule {
    "d4 d10 c2 r2 d5 x15"
        .parse()
        .expect("pinned schedule parses")
}

/// Sharded 2PC torture: three shards, eight transfers. The plan's faults
/// run first, then the tail cuts shard 0 off mid-protocol.
pub fn sharded_twopc_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    torture(TwoPc::ring(3, 8), seed, plan)
}

/// The sharded 2PC checking world: two shards and `transfers` cross-shard
/// transfers injected at time zero.
pub fn sharded_twopc_mc_scenario(transfers: u64) -> McScenario {
    model_check(TwoPc::ring(2, transfers))
}

// ---------------------------------------------------------------------------
// Sagas
// ---------------------------------------------------------------------------

/// The stock and payment databases' procedures: the shared bank (stock
/// is a balance of units) plus `seed(key, value)`.
pub(crate) fn shop_registry() -> ProcRegistry {
    bank_registry().with("seed", |tx, args| {
        tx.put(args[0].as_str(), args[1].clone());
        Ok(vec![])
    })
}

/// Checkout: reserve one unit of `$0` on `stock_db` (binding the units
/// left), then charge `$2` to account `$1` on `pay_db`; each step's
/// compensation credits back what it took.
pub(crate) fn checkout_saga(stock_db: ProcessId, pay_db: ProcessId) -> SagaDef {
    let unit = |v: &Vars| vec![v.get("$0").clone(), Value::Int(1)];
    let price = |v: &Vars| vec![v.get("$1").clone(), v.get("$2").clone()];
    SagaDef {
        name: "checkout".into(),
        steps: vec![
            SagaStep::new("reserve", stock_db, "debit", unit)
                .bind("left")
                .compensate("credit", unit),
            SagaStep::new("charge", pay_db, "debit", price).compensate("credit", price),
        ],
    }
}

const SAGA_PRICE: i64 = 10;
const STOCK_DB: ProcessId = ProcessId(0);
const PAY_DB: ProcessId = ProcessId(1);
const SAGA_ORCH: ProcessId = ProcessId(2);

/// Sagas: stock + payment databases and a crashable checkout
/// orchestrator, `sagas` checkouts of one `item1` for [`SAGA_PRICE`]
/// charged to `alice`.
#[derive(Clone)]
struct Saga {
    sagas: u64,
    stock: i64,
    balance: i64,
}

impl World for Saga {
    fn name(&self) -> &'static str {
        "saga"
    }

    fn build(&self, config: SimConfig, inject: Inject) -> Sim {
        let mut sim = Sim::new(config);
        let n_stock = sim.add_node();
        let n_pay = sim.add_node();
        let n_orch = sim.add_node();
        let stock_db = sim.spawn(
            n_stock,
            "stock-db",
            DbServer::factory("stock", DbServerConfig::default(), shop_registry()),
        );
        let pay_db = sim.spawn(
            n_pay,
            "pay-db",
            DbServer::factory("pay", DbServerConfig::default(), shop_registry()),
        );
        for (db, key, value) in [
            (stock_db, "item1", self.stock),
            (pay_db, "alice", self.balance),
        ] {
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 0,
                    req: DbRequest::Call {
                        proc: "seed".into(),
                        args: vec![Value::from(key), Value::Int(value)],
                    },
                }),
            );
        }
        // A generous step-retry budget: the default 6×10 ms would exhaust
        // inside an 80 ms partition window and misreport "unreachable" as a
        // logical step failure, triggering compensation of a step that in
        // fact succeeded on the other side of the cut.
        let orchestrator = sim.spawn(
            n_orch,
            "saga",
            SagaOrchestrator::factory_with_retry(
                vec![checkout_saga(stock_db, pay_db)],
                RetryPolicy::retrying(40, SimDuration::from_millis(10)),
            ),
        );
        assert_eq!(
            (stock_db, pay_db, orchestrator),
            (STOCK_DB, PAY_DB, SAGA_ORCH),
            "saga spawn order"
        );
        inject.faults(&mut sim, &[n_orch], &[n_stock, n_pay, n_orch]);
        for i in 0..self.sagas {
            let start = Payload::new(StartSaga {
                saga: "checkout".into(),
                args: vec![
                    Value::from("item1"),
                    Value::from("alice"),
                    Value::Int(SAGA_PRICE),
                ],
            });
            inject.send(&mut sim, orchestrator, i, self.sagas, start);
        }
        sim
    }

    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String> {
        let comp_failures = counter(sim, "saga.compensation_failures");
        if comp_failures != 0 {
            return Err(format!(
                "{comp_failures} compensations failed (dropped undo = leaked effect)"
            ));
        }
        let peek = |pid: ProcessId, key: &str| -> Result<i64, String> {
            sim.inspect::<DbServer>(pid)
                .and_then(|s| s.engine().peek(key))
                .map(|v| v.as_int())
                .ok_or_else(|| format!("cannot peek {key}"))
        };
        let stock = peek(STOCK_DB, "item1")?;
        let balance = peek(PAY_DB, "alice")?;
        let committed = counter(sim, "saga.committed") as i64;
        // Conservation + exactly-once: each committed checkout moves one
        // unit of stock and the price in money; compensated ones move
        // nothing (net).
        let stock_used = self.stock - stock;
        let spent = self.balance - balance;
        if stock_used != committed || spent != committed * SAGA_PRICE {
            return Err(format!(
                "conservation: {committed} committed but stock moved {stock_used} \
                 and balance moved {spent} (price {SAGA_PRICE})"
            ));
        }
        let affordable = (self.balance / SAGA_PRICE)
            .min(self.stock)
            .min(self.sagas as i64);
        if inject.benign() && committed != affordable {
            return Err(format!(
                "benign plan must commit exactly the {affordable} affordable checkouts, \
                 got {committed}"
            ));
        }
        let open = sim
            .inspect::<SagaOrchestrator>(SAGA_ORCH)
            .map(|o| o.open_instances())
            .ok_or("cannot inspect orchestrator")?;
        if open != 0 {
            return Err(format!(
                "{open} saga instances never reached a terminal state"
            ));
        }
        for pid in [STOCK_DB, PAY_DB] {
            let active = sim
                .inspect::<DbServer>(pid)
                .map(|s| s.engine().active_count())
                .ok_or_else(|| format!("cannot inspect {}", sim.name_of(pid)))?;
            if active != 0 {
                return Err(format!(
                    "{} has {active} open engine transactions",
                    sim.name_of(pid)
                ));
            }
        }
        Ok(())
    }
}

/// Saga torture: eight checkouts against a crashable orchestrator. Only
/// six can afford the charge, so compensation paths run even on the
/// benign plan.
pub fn saga_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = Saga {
        sagas: 8,
        stock: 40,
        balance: 60,
    };
    torture(world, seed, plan)
}

/// The saga checking world: `sagas` checkouts injected at time zero
/// against five units of stock and a balance that covers three.
pub fn saga_mc_scenario(sagas: u64) -> McScenario {
    model_check(Saga {
        sagas,
        stock: 5,
        balance: 30,
    })
}

/// Pinned minimal schedule for the **same-instant orchestrator
/// reincarnation instance-id-reuse bug** the checker found in
/// `SagaOrchestrator` (fixed by the durable `saga_last_id` cell): finish
/// one checkout (erasing its journal entry), crash + restart the
/// orchestrator without advancing time, then start a second checkout —
/// the restarted incarnation recomputes the same boot epoch, reuses the
/// finished saga's instance id, and the databases dedup the new saga's
/// steps against the dead saga's cached replies instead of executing.
///
/// # Panics
///
/// Never in practice: the schedule literal is pinned and parsing it is
/// covered by the regression test that replays it.
pub fn saga_id_reuse_schedule() -> Schedule {
    // Deliver the seeds and the first checkout, drain its step/reply
    // chain lowest-seq-first (the whole saga completes at virtual t=0
    // because model-checked delivery never advances the clock), then
    // crash the orchestrator; the leaf closure's restart + grace delivers
    // the held-back second checkout into the reincarnated orchestrator.
    // The prefix was constructed with [`tca_sim::mc::pending_deliveries`]
    // (a blind DFS cannot reach depth 14 in this opaque-fingerprint
    // world), validated with [`tca_sim::mc::check_schedule`], and shrunk
    // to fixpoint by the same greedy minimizer the checker uses.
    "d3 d4 d6 d8 d10 d11 d13 c2"
        .parse()
        .expect("pinned schedule parses")
}

// ---------------------------------------------------------------------------
// Actor transactions
// ---------------------------------------------------------------------------

/// One driver step: the actor, the method, its arguments, and the kind
/// (`"txn"` or `"read"`) the driver counts the outcome under, as
/// `torture.{kind}_ok` / `torture.{kind}_err`.
pub(crate) type ActorStep = (ActorId, String, Vec<Value>, &'static str);

/// A driver process that runs `plan` one step at a time through an
/// [`ActorRouter`] on `directory`, starting each step when the previous
/// one completes; successful reads add their value to `torture.read_sum`.
pub(crate) fn actor_driver(
    directory: ProcessId,
    plan: Vec<ActorStep>,
) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
    move |_| {
        Box::new(ActorDriver {
            router: ActorRouter::new(directory),
            plan: plan.clone(),
            at: 0,
        })
    }
}

struct ActorDriver {
    router: ActorRouter,
    plan: Vec<ActorStep>,
    at: usize,
}

impl ActorDriver {
    fn next(&mut self, ctx: &mut Ctx) {
        if self.at < self.plan.len() {
            let (id, method, args, _) = self.plan[self.at].clone();
            self.at += 1;
            self.router.invoke(ctx, id, method, args, self.at as u64);
        }
    }
    fn absorb(&mut self, ctx: &mut Ctx, completions: Vec<ActorCompletion>) {
        for completion in completions {
            let tag = completion.user_tag as usize;
            let kind = self.plan[tag.saturating_sub(1)].3;
            match completion.result {
                Ok(values) => {
                    ctx.metrics().incr(&format!("torture.{kind}_ok"), 1);
                    if kind == "read" {
                        if let Some(v) = values.first() {
                            ctx.metrics().incr("torture.read_sum", v.as_int() as u64);
                        }
                    }
                }
                Err(_) => ctx.metrics().incr(&format!("torture.{kind}_err"), 1),
            }
            self.next(ctx);
        }
    }
}

impl Process for ActorDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.next(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        let completions = self.router.on_message(ctx, &payload);
        self.absorb(ctx, completions);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(completions) = self.router.on_timer(ctx, tag) {
            self.absorb(ctx, completions);
        }
    }
}

const ACTOR_AMOUNT: i64 = 20;
const ACTOR_BALANCE: i64 = 100;

/// Actor transactions: a directory, two silos, and a driver running
/// `transfers` sequential a→b transfers of [`ACTOR_AMOUNT`], then reading
/// both balances.
#[derive(Clone)]
struct Actor {
    transfers: u64,
}

impl World for Actor {
    fn name(&self) -> &'static str {
        "actor"
    }

    fn build(&self, config: SimConfig, inject: Inject) -> Sim {
        let mut sim = Sim::new(config);
        let n_dir = sim.add_node();
        let n_s1 = sim.add_node();
        let n_s2 = sim.add_node();
        let n_drv = sim.add_node();
        let directory = sim.spawn(n_dir, "dir", Directory::factory(DirectoryConfig::default()));
        for (i, node) in [n_s1, n_s2].into_iter().enumerate() {
            sim.spawn(
                node,
                format!("silo{i}"),
                ActorSilo::factory(
                    transactional_bank_registry(ACTOR_BALANCE),
                    SiloConfig::volatile(directory),
                ),
            );
        }
        let plan: Vec<_> = (0..self.transfers)
            .map(|i| {
                let txid = format!("t{i}");
                (
                    ActorId::new("txncoord", &txid),
                    "run".to_string(),
                    transfer_plan(&txid, "a", "b", ACTOR_AMOUNT),
                    "txn",
                )
            })
            .chain(["a", "b"].into_iter().map(|key| {
                (
                    ActorId::new("account", key),
                    "read".to_string(),
                    vec![],
                    "read",
                )
            }))
            .collect();
        sim.spawn(n_drv, "driver", actor_driver(directory, plan));
        // No crashes, no partitions: silo state is volatile and the silo
        // RPC retry budget (≈30 ms) is smaller than a partition window, so
        // either would exceed what the protocol claims to survive.
        inject.faults(&mut sim, &[], &[]);
        sim
    }

    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String> {
        let txn_ok = counter(sim, "torture.txn_ok");
        let txn_err = counter(sim, "torture.txn_err");
        let read_ok = counter(sim, "torture.read_ok");
        if txn_ok + txn_err != self.transfers {
            return Err(format!(
                "driver stuck: {txn_ok} ok + {txn_err} err of {} transactions",
                self.transfers
            ));
        }
        if read_ok != 2 {
            return Err(format!("final balance reads incomplete: {read_ok}/2"));
        }
        // Conservation: the two final reads sum to the initial total.
        // (Each committed transfer is a pure move; aborts must leave both
        // sides untouched.)
        let read_sum = counter(sim, "torture.read_sum") as i64;
        if read_sum != 2 * ACTOR_BALANCE {
            return Err(format!(
                "conservation: balances sum to {read_sum}, expected {}",
                2 * ACTOR_BALANCE
            ));
        }
        let affordable = ((ACTOR_BALANCE / ACTOR_AMOUNT) as u64).min(self.transfers);
        if inject.benign() && txn_ok != affordable {
            return Err(format!(
                "benign plan must commit exactly the {affordable} affordable transfers, \
                 got {txn_ok}"
            ));
        }
        Ok(())
    }
}

/// Actor-transaction torture: six transfers under ambient message loss
/// and duplication only (see [`actor_mc_scenario`] for why). The sixth
/// overdraws by design (5 × 20 drains the account), so the abort path
/// runs even on the benign plan.
pub fn actor_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    torture(Actor { transfers: 6 }, seed, plan)
}

/// The actor-transaction checking world: `transfers` transfers and the
/// two balance reads. The app-level lock/buffer protocol has no durable
/// log, so crashes or long partitions genuinely break it (the paper's
/// critique); the audit pins down what it *does* guarantee: under loss
/// within the RPC retry budget, every transaction is atomic and money is
/// conserved.
pub fn actor_mc_scenario(transfers: u64) -> McScenario {
    model_check(Actor { transfers })
}

// ---------------------------------------------------------------------------
// Epoch-batched deterministic dataflow
// ---------------------------------------------------------------------------

/// Per-account starting balance in the dataflow worlds (the
/// [`transfer_registry`] default).
const DF_START: i64 = 100;
const DF_AMOUNT: i64 = 10;

/// Epoch-batched dataflow ([`deploy_dataflow`]): shards own the keyspace
/// through the engine's consistent-hash ring (pids `0..shards`), then the
/// sequencer. Each transfer is `(from, to, amount)`.
#[derive(Clone)]
struct Dataflow {
    shards: usize,
    transfers: Vec<(String, String, i64)>,
    config: DataflowConfig,
}

impl Dataflow {
    fn sequencer(&self) -> ProcessId {
        ProcessId(self.shards as u32)
    }

    fn shard_pids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.shards as u32).map(ProcessId)
    }

    /// Every account some transfer touches, once each.
    fn accounts(&self) -> Vec<&str> {
        let mut accounts: Vec<&str> = self
            .transfers
            .iter()
            .flat_map(|(from, to, _)| [from.as_str(), to.as_str()])
            .collect();
        accounts.sort_unstable();
        accounts.dedup();
        accounts
    }
}

impl World for Dataflow {
    fn name(&self) -> &'static str {
        "dataflow"
    }

    fn build(&self, config: SimConfig, inject: Inject) -> Sim {
        let mut sim = Sim::new(config);
        let shard_nodes: Vec<_> = (0..self.shards).map(|_| sim.add_node()).collect();
        let n_seq = sim.add_node();
        let (sequencer, shard_pids) = deploy_dataflow(
            &mut sim,
            n_seq,
            &shard_nodes,
            &transfer_registry(),
            self.shards,
            self.config.clone(),
        );
        assert!(
            shard_pids.iter().copied().eq(self.shard_pids()) && sequencer == self.sequencer(),
            "dataflow spawn order"
        );
        // Shards crash and restart (checkpoint + journal replay is the
        // claim under test); partitions may cut any link, including the
        // sequencer's. The sequencer is protected: its epoch journal makes
        // it restartable, but a volatile submission buffer lost to a crash
        // would under-count the audit's "every submission terminal".
        let mut partitionable = shard_nodes.clone();
        partitionable.push(n_seq);
        inject.faults(&mut sim, &shard_nodes, &partitionable);
        let n = self.transfers.len() as u64;
        for (i, (from, to, amount)) in self.transfers.iter().enumerate() {
            let submit = Payload::new(SubmitTxn {
                proc: "transfer".into(),
                args: vec![
                    Value::from(from.clone()),
                    Value::from(to.clone()),
                    Value::Int(*amount),
                ],
                read_keys: vec![from.clone(), to.clone()],
            });
            inject.send(&mut sim, sequencer, i as u64, n, submit);
        }
        sim
    }

    fn step_invariant(&self, sim: &Sim) -> Result<(), String> {
        // Exactly-once, held at every intermediate state: outcomes are
        // emitted at most once per sequenced transaction, so the emission
        // counter can never pass the submission counter...
        let submitted = counter(sim, "df.submitted");
        let completed = counter(sim, "df.completed");
        if completed > submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        // ...and a shard can never durably apply an epoch the sequencer
        // has not durably closed (the epoch journal precedes broadcast).
        if let Some(seq) = sim.inspect::<DfSequencer>(self.sequencer()) {
            let last = seq.last_epoch();
            for (i, pid) in self.shard_pids().enumerate() {
                if let Some(shard) = sim.inspect::<DfShard>(pid) {
                    if shard.applied_epoch() > last {
                        return Err(format!(
                            "shard {i} applied epoch {} past the sequencer's last closed \
                             epoch {last}",
                            shard.applied_epoch()
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String> {
        let n = self.transfers.len() as u64;
        let submitted = counter(sim, "df.submitted");
        // Torture injections reach the sequencer, which never crashes; the
        // checker may drop one, so there audit what the sequencer admitted.
        if matches!(inject, Inject::Spread(_)) && submitted != n {
            return Err(format!(
                "sequencer saw {submitted} of {n} submissions (it never crashes — all must arrive)"
            ));
        }
        // Exactly-once output: every admitted transaction terminal, no
        // re-emission (emissions are counted at the wire).
        let completed = counter(sim, "df.completed");
        if completed != submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        // Outcomes are deterministic: a transfer larger than all the money
        // in the fleet fails, every other one commits.
        let accounts = self.accounts();
        let fleet = accounts.len() as i64 * DF_START;
        let must_fail = self.transfers.iter().filter(|t| t.2 > fleet).count() as u64;
        let (ok, err) = (counter(sim, "df.ok"), counter(sim, "df.err"));
        if ok + err != completed || err > must_fail || (submitted == n && err != must_fail) {
            return Err(format!(
                "outcomes: ok={ok} err={err} of {completed}, but exactly the {must_fail} \
                 uncoverable transfer(s) must fail"
            ));
        }
        // Only the ring owner of a key stores it: scan every shard.
        let peek = |key: &str| -> i64 {
            self.shard_pids()
                .find_map(|pid| {
                    sim.inspect::<DfShard>(pid)
                        .and_then(|s| s.peek(key))
                        .map(Value::as_int)
                })
                .unwrap_or(DF_START)
        };
        // Per-transfer atomicity, for transfers whose accounts are their
        // own (in a chain, neighbours share one).
        let shared = |key: &String| {
            let uses = self
                .transfers
                .iter()
                .filter(|(f, t, _)| f == key || t == key);
            uses.count() > 1
        };
        for (i, (from, to, amount)) in self.transfers.iter().enumerate() {
            if !shared(from) && !shared(to) {
                let (debited, credited) = (DF_START - peek(from), peek(to) - DF_START);
                check_pair(i as u64, debited, credited, *amount, 1)?;
            }
        }
        let total: i64 = accounts.iter().map(|key| peek(key)).sum();
        if total != fleet {
            return Err(format!(
                "conservation: balances sum to {total}, expected {fleet}"
            ));
        }
        // Convergence: every shard durably applied the last closed epoch
        // and holds nothing in flight; the watermark caught up.
        let seq = sim
            .inspect::<DfSequencer>(self.sequencer())
            .ok_or("cannot inspect sequencer")?;
        let last = seq.last_epoch();
        for (i, pid) in self.shard_pids().enumerate() {
            let shard = sim
                .inspect::<DfShard>(pid)
                .ok_or_else(|| format!("cannot inspect shard {i}"))?;
            if shard.applied_epoch() != last {
                return Err(format!(
                    "shard {i} applied epoch {} but the sequencer closed {last}",
                    shard.applied_epoch()
                ));
            }
            if !shard.is_idle() {
                return Err(format!("shard {i} still has an epoch in flight"));
            }
        }
        if seq.fleet_watermark() != last {
            return Err(format!(
                "watermark {} never caught up with last epoch {last}",
                seq.fleet_watermark()
            ));
        }
        Ok(())
    }
}

/// Dataflow torture: three shards under shard crash-restart cycles,
/// partitions and ambient loss/duplication. Ten transfers chain through
/// `acct0 → acct1 → …` so most epochs span shards, plus one overdraft no
/// balance can cover, so the logic-failure path runs even on the benign
/// plan.
pub fn dataflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let chain = 10;
    let mut transfers: Vec<_> = (0..chain)
        .map(|i| (format!("acct{i}"), format!("acct{}", i + 1), DF_AMOUNT))
        .collect();
    transfers.push(("acct0".into(), "acct3".into(), 10_000));
    let world = Dataflow {
        shards: 3,
        transfers,
        config: DataflowConfig::default(),
    };
    torture(world, seed, plan)
}

/// The dataflow checking world: two shards and `transfers` cross-shard
/// transfers injected at time zero. Zero virtual execution cost and a
/// one-epoch checkpoint cadence keep the schedule depth small while every
/// crash the checker injects still recovers through snapshot + journal
/// replay.
pub fn dataflow_mc_scenario(transfers: u64) -> McScenario {
    model_check(Dataflow {
        shards: 2,
        transfers: ring_transfers(2, transfers)
            .into_iter()
            .map(|(from, to)| (from, to, DF_AMOUNT))
            .collect(),
        config: DataflowConfig {
            // Inline wave advance (no cost timers) and a checkpoint every
            // epoch: fewer choices per schedule, and every crash recovers
            // through the full snapshot+replay path.
            exec_cost: SimDuration::ZERO,
            checkpoint_every: 1,
            ..DataflowConfig::default()
        },
    })
}

// ---------------------------------------------------------------------------
// Exactly-once workflows (intent log + idempotence table + tail-call retry)
// ---------------------------------------------------------------------------

/// The workflow stack needs more settle time than the flat protocols: a
/// chain is sequential steps, each a full 2PC transaction reached through
/// two RPC legs (orchestrator → worker → coordinator), the ambient loss
/// of the plan persists through the grace period, and overlapping chains
/// abort each other on lock conflicts until the re-drive sweep untangles
/// them one committed step at a time. Worst observed convergence across
/// the CI sweep width is ~3.2s of grace (seed 2, plan 2: double recrash
/// cycles plus 13% ambient drop), so 4s leaves margin without materially
/// slowing the sweep.
const WF_GRACE: SimDuration = SimDuration::from_millis(4_000);
const WF_START: i64 = 100;
const WF_AMOUNT: i64 = 10;

/// Exactly-once workflows ([`deploy_workflow`]): 2PC participants on
/// `shards` ring shards (pids `0..shards`), a coordinator, `workers` step
/// workers and the orchestrator, running `chains` transfer chains of
/// `steps` hops. Chain `i` walks its own account range, `acct{i·(steps+1)}`
/// onwards: the audit targets exactly-once under crashes, not
/// lock-conflict throughput — overlapping hot keys convoy the chains
/// behind 25 ms re-drive sweeps. Cross-chain conflict stress lives in the
/// 2PC worlds.
#[derive(Clone)]
struct Workflow {
    shards: usize,
    workers: usize,
    chains: u64,
    steps: u32,
}

impl Workflow {
    fn participants(&self) -> Vec<ProcessId> {
        (0..self.shards as u32).map(ProcessId).collect()
    }

    fn coordinator(&self) -> ProcessId {
        ProcessId(self.shards as u32)
    }

    fn workers(&self) -> impl Iterator<Item = ProcessId> {
        let first = self.shards as u32 + 1;
        (first..first + self.workers as u32).map(ProcessId)
    }

    fn orchestrator(&self) -> ProcessId {
        ProcessId((self.shards + self.workers) as u32 + 1)
    }

    fn accounts(&self) -> i64 {
        self.chains as i64 * (self.steps as i64 + 1)
    }

    /// Reads a key's value wherever the ring places it.
    fn reader<'a>(&self, sim: &'a Sim) -> impl Fn(&str) -> Option<i64> + 'a {
        let participants = self.participants();
        let map = ShardMap::ring(self.shards);
        move |key| peek_sharded(sim, &participants, &map, key)
    }

    fn markers(&self) -> impl Iterator<Item = String> + '_ {
        (1..=self.chains).flat_map(|wf| (0..self.steps).map(move |s| step_marker_key(wf, s)))
    }
}

/// Content fingerprint for the workflow world: the workflow wire messages
/// plus every 2PC protocol message they carry underneath. RPC envelopes
/// recurse into *this* fingerprint so a `StepReq` inside an `RpcRequest`
/// still hashes by content.
fn workflow_payload_fp(p: &Payload) -> Option<u64> {
    if let Some(r) = p.downcast_ref::<RpcRequest>() {
        Some(fnv_bytes(1, r.call_id.to_le_bytes()) ^ workflow_payload_fp(&r.body)?)
    } else if let Some(r) = p.downcast_ref::<RpcReply>() {
        Some(fnv_bytes(2, r.call_id.to_le_bytes()) ^ workflow_payload_fp(&r.body)?)
    } else if let Some(m) = p.downcast_ref::<StartWorkflow>() {
        Some(fnv_debug(20, m))
    } else if let Some(m) = p.downcast_ref::<WorkflowOutcome>() {
        Some(fnv_debug(21, m))
    } else if let Some(m) = p.downcast_ref::<StepReq>() {
        Some(fnv_debug(22, m))
    } else if let Some(m) = p.downcast_ref::<StepOutcome>() {
        Some(fnv_debug(23, m))
    } else if let Some(m) = p.downcast_ref::<GcWatermark>() {
        Some(fnv_debug(24, m))
    } else {
        twopc_payload_fp(p)
    }
}

impl World for Workflow {
    fn name(&self) -> &'static str {
        "workflow"
    }

    fn build(&self, config: SimConfig, inject: Inject) -> Sim {
        let mut sim = Sim::new(config);
        let shard_nodes: Vec<_> = (0..self.shards).map(|_| sim.add_node()).collect();
        let n_coord = sim.add_node();
        let worker_nodes: Vec<_> = (0..self.workers).map(|_| sim.add_node()).collect();
        let n_orch = sim.add_node();
        let seeds: Vec<(String, Value)> = (0..self.accounts())
            .map(|i| (format!("acct{i}"), Value::Int(WF_START)))
            .collect();
        let deploy = deploy_workflow(
            &mut sim,
            n_orch,
            &worker_nodes,
            n_coord,
            &shard_nodes,
            &bank_registry(),
            &seeds,
            &[transfer_chain_def("chain", self.steps)],
            WorkflowConfig::default(),
        );
        assert!(
            deploy.participants == self.participants()
                && deploy.coordinator == self.coordinator()
                && deploy.workers.iter().copied().eq(self.workers())
                && deploy.orchestrator == self.orchestrator(),
            "workflow spawn order"
        );
        // The orchestrator and every worker crash (and, under the
        // crash-during-recovery profile, crash *again* inside the recovery
        // window); partitions may cut any link. The data tier stays up —
        // its fault tolerance is 2PC's claim, checked in the 2PC worlds.
        let mut crashable = vec![n_orch];
        crashable.extend(&worker_nodes);
        let mut partitionable = crashable.clone();
        partitionable.push(n_coord);
        partitionable.extend(&shard_nodes);
        inject.faults(&mut sim, &crashable, &partitionable);
        let span = self.steps as i64 + 1;
        for i in 0..self.chains {
            let start = Payload::new(StartWorkflow {
                workflow: "chain".into(),
                args: vec![Value::Int(i as i64 * span), Value::Int(WF_AMOUNT)],
            });
            inject.send(&mut sim, deploy.orchestrator, i, self.chains, start);
        }
        sim
    }

    fn deadline(&self, plan: &FaultPlan) -> SimTime {
        SimTime::ZERO + plan.horizon + WF_GRACE
    }

    fn payload_fp(p: &Payload) -> Option<u64> {
        workflow_payload_fp(p)
    }

    fn state_fp(&self, sim: &Sim) -> Option<u64> {
        let worker = |pid| sim.inspect::<WorkflowWorker>(pid).map(|w| w.state_digest());
        let orchestrator = sim.inspect::<WorkflowOrchestrator>(self.orchestrator());
        let digests = self
            .participants()
            .into_iter()
            .map(|pid| participant_digest(sim, pid))
            .chain([coordinator_digest(sim, self.coordinator())])
            .chain(self.workers().map(|pid| worker(pid).unwrap_or(0)))
            .chain([orchestrator.map(|o| o.state_digest()).unwrap_or(0)]);
        let peek = self.reader(sim);
        let values = (0..self.accounts())
            .map(|i| format!("acct{i}"))
            .chain(self.markers())
            .map(|key| peek(&key).unwrap_or(i64::MIN) as u64);
        Some(fnv_words(14, digests.chain(values)))
    }

    fn step_invariant(&self, sim: &Sim) -> Result<(), String> {
        let peek = self.reader(sim);
        for key in self.markers() {
            if let Some(n) = peek(&key) {
                if n > 1 {
                    return Err(format!("exactly-once: step marker {key} applied {n} times"));
                }
            }
        }
        let started = counter(sim, "workflow.started");
        let completed = counter(sim, "workflow.completed");
        if completed > started {
            return Err(format!(
                "{completed} workflows completed but only {started} started"
            ));
        }
        Ok(())
    }

    fn audit(&self, sim: &Sim, inject: Inject) -> Result<(), String> {
        let started = counter(sim, "workflow.started");
        let completed = counter(sim, "workflow.completed");
        let failed = counter(sim, "workflow.failed");
        if failed != 0 {
            return Err(format!(
                "{failed} workflows failed — balances are ample, so a failure means \
                 a transient fault was misclassified as a business error"
            ));
        }
        // Audit against what the orchestrator admitted: a start can be
        // lost to a crashed orchestrator or dropped by the checker.
        if completed != started {
            let open = sim
                .inspect::<WorkflowOrchestrator>(self.orchestrator())
                .map(|o| o.open_workflow_states())
                .unwrap_or_default();
            let intents: Vec<usize> = self
                .workers()
                .map(|w| {
                    sim.inspect::<WorkflowWorker>(w)
                        .map(|w| w.pending_intents())
                        .unwrap_or(0)
                })
                .collect();
            return Err(format!(
                "stranded: {started} workflows started but only {completed} completed \
                 (open (wf, seq, in_flight): {open:?}, worker intents: {intents:?})"
            ));
        }
        let orch = sim
            .inspect::<WorkflowOrchestrator>(self.orchestrator())
            .ok_or("cannot inspect orchestrator")?;
        if orch.open_workflows() != 0 {
            return Err(format!(
                "stranded: {} workflows never reached a terminal state",
                orch.open_workflows()
            ));
        }
        if inject.benign() && completed != self.chains {
            return Err(format!(
                "benign plan must complete all {} chains, got {completed}",
                self.chains
            ));
        }
        // Exactly-once: every step of every started chain applied exactly
        // once. The guard writes marker=1 and a second application aborts,
        // so any marker != 1 (or any marker beyond the started range) is a
        // bypassed fence.
        let peek = self.reader(sim);
        let mut applied = 0u64;
        for wf in 1..=started + 2 {
            for seq in 0..self.steps {
                match peek(&step_marker_key(wf, seq)) {
                    Some(1) if wf <= started => applied += 1,
                    None if wf > started => {}
                    other => {
                        return Err(format!(
                            "exactly-once: marker {wf}:{seq} reads {other:?} with \
                             {started} chains started"
                        ));
                    }
                }
            }
        }
        if applied != started * self.steps as u64 {
            return Err(format!(
                "exactly-once: {applied} steps applied for {started} chains of {}",
                self.steps
            ));
        }
        // Conservation: chains move money along the account line, never
        // mint.
        let total: i64 = (0..self.accounts())
            .map(|i| peek(&format!("acct{i}")).unwrap_or(WF_START))
            .sum();
        if total != self.accounts() * WF_START {
            return Err(format!(
                "conservation: balances sum to {total}, expected {}",
                self.accounts() * WF_START
            ));
        }
        // No residue anywhere in the stack: no pending intents, and the
        // idempotence tables fully collected behind the completed-workflow
        // watermark.
        for (i, worker) in self.workers().enumerate() {
            let w = sim
                .inspect::<WorkflowWorker>(worker)
                .ok_or_else(|| format!("cannot inspect worker {i}"))?;
            if w.pending_intents() != 0 {
                return Err(format!(
                    "worker {i} still holds {} unresolved intents",
                    w.pending_intents()
                ));
            }
            if w.idem_entries() != 0 {
                return Err(format!(
                    "worker {i} retains {} idempotence entries past the watermark",
                    w.idem_entries()
                ));
            }
        }
        twopc_residue(sim, self.participants(), self.coordinator())
    }
}

/// Workflow torture: six 4-hop chains on three shards with the
/// orchestrator *and* both workers crashable mid-chain — where intent
/// logs, idempotence dedup and the `wf_guard` fence each earn their keep:
/// an orchestrator restart re-drives completed steps, a worker restart
/// replays intents whose transaction may have committed.
pub fn workflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let world = Workflow {
        shards: 3,
        workers: 2,
        chains: 6,
        steps: 4,
    };
    torture(world, seed, plan)
}

/// The workflow checking world: one worker, two shards and a single
/// two-step chain injected at time zero. The full Beldi-style stack is in
/// the schedule space: durable intent before the step dtx, the `wf_guard`
/// fence branch, idempotence-table dedup on re-sent steps, tail-call
/// re-drives, and watermark GC after completion.
pub fn workflow_mc_scenario() -> McScenario {
    model_check(Workflow {
        shards: 2,
        workers: 1,
        chains: 1,
        steps: 2,
    })
}
