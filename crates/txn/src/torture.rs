//! Torture scenarios: the transaction protocols under deterministic
//! fault plans (see `tca_sim::faults`).
//!
//! Each scenario builds a small world, applies a [`FaultPlan`], runs to
//! the plan's horizon plus a grace period, and then audits the invariants
//! that must hold once every fault has healed:
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
//! The scenarios are `fn(seed, &FaultPlan) -> Result<(), String>` so the
//! sweep driver (`tca_sim::check::torture`) and pinned regression tests
//! can share them. Every bug the sweep flushed out is pinned in
//! `tests/torture_2pc.rs` by the seed that found it.

use tca_messaging::rpc::{RetryPolicy, RpcRequest};
use tca_models::actor::{
    ActorCompletion, ActorId, ActorRouter, ActorSilo, Directory, DirectoryConfig, SiloConfig,
};
use tca_sim::{Boot, Ctx, FaultPlan, Payload, Process, ProcessId, Sim, SimDuration, SimTime};
use tca_storage::{DbMsg, DbRequest, DbServer, DbServerConfig, ProcRegistry, Value};

use crate::actor_txn::{transactional_bank_registry, transfer_plan};
use crate::dataflow::{
    bank_registry, deploy_dataflow, transfer_registry, DataflowConfig, DfSequencer, DfShard,
    SubmitTxn,
};
use crate::saga::{SagaDef, SagaOrchestrator, SagaStep, StartSaga};
use crate::twopc::{
    CoordinatorConfig, ParticipantConfig, StartDtx, TwoPcCoordinator, TwoPcParticipant,
};
use crate::workflow::{
    deploy_workflow, peek_sharded, step_marker_key, transfer_chain_def, StartWorkflow,
    WorkflowConfig, WorkflowOrchestrator, WorkflowWorker,
};

/// Settle time after the fault horizon before auditing: long enough for
/// every timeout, inquiry, and retry chain in the protocols to complete
/// (participant sweeps are 100 ms, inquiries fire after 150 ms, the
/// coordinator retries every 20 ms).
const GRACE: SimDuration = SimDuration::from_millis(800);

fn counter(sim: &Sim, name: &str) -> u64 {
    sim.metrics().counter(name)
}

// ---------------------------------------------------------------------------
// Two-phase commit
// ---------------------------------------------------------------------------

const TWOPC_TRANSFERS: u64 = 8;
const TWOPC_AMOUNT: i64 = 10;
const ALICE_START: i64 = 150;
const BOB_START: i64 = 100;

/// 2PC torture: two bank participants, a crashable coordinator, ambient
/// loss/duplication and partition windows from the plan. Transfers are
/// injected across the fault window; after heal + grace every injected
/// transaction must be atomically committed or aborted, balances must
/// reflect exactly the committed count, and nothing may hold a lock.
pub fn twopc_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut sim = Sim::with_seed(seed);
    let n_a = sim.add_node();
    let n_b = sim.add_node();
    let n_coord = sim.add_node();
    let pa = sim.spawn(
        n_a,
        "bank-a",
        TwoPcParticipant::factory_seeded(
            "pa",
            ParticipantConfig::default(),
            bank_registry(),
            vec![("alice".to_string(), Value::Int(ALICE_START))],
        ),
    );
    let pb = sim.spawn(
        n_b,
        "bank-b",
        TwoPcParticipant::factory_seeded(
            "pb",
            ParticipantConfig::default(),
            bank_registry(),
            vec![("bob".to_string(), Value::Int(BOB_START))],
        ),
    );
    let coordinator = sim.spawn(
        n_coord,
        "coordinator",
        TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
    );
    // Only the coordinator crashes (the blocking role the paper focuses
    // on); participants keep their volatile branch tables, partitions and
    // loss stress every link.
    plan.apply(&mut sim, &[n_coord], &[n_a, n_b, n_coord]);
    // Spread the transfers over the first 3/4 of the fault window so some
    // land mid-outage. Injections bypass the network; ones addressed to a
    // crashed coordinator are dropped by the kernel (request lost — the
    // client would retry in a full stack, here it simply never starts).
    let span = plan.horizon.as_nanos() * 3 / 4;
    for i in 0..TWOPC_TRANSFERS {
        let at = 1_000_000 + span * i / TWOPC_TRANSFERS;
        sim.inject_at(
            SimTime::from_nanos(at),
            coordinator,
            Payload::new(RpcRequest {
                call_id: i,
                body: Payload::new(StartDtx {
                    branches: vec![
                        (
                            pa,
                            "debit".into(),
                            vec![Value::from("alice"), Value::Int(TWOPC_AMOUNT)],
                        ),
                        (
                            pb,
                            "credit".into(),
                            vec![Value::from("bob"), Value::Int(TWOPC_AMOUNT)],
                        ),
                    ],
                }),
            }),
        );
    }
    sim.run_until(SimTime::ZERO + plan.horizon + GRACE);

    // --- Audits ---
    let pa_commits = counter(&sim, "pa.commits");
    let pb_commits = counter(&sim, "pb.commits");
    if pa_commits != pb_commits {
        return Err(format!(
            "atomicity: pa committed {pa_commits} branches, pb {pb_commits}"
        ));
    }
    let commits = pa_commits as i64;
    let benign = plan.events.is_empty() && plan.drop_prob == 0.0 && plan.dup_prob == 0.0;
    if benign && commits != TWOPC_TRANSFERS as i64 {
        return Err(format!(
            "benign plan must commit all {TWOPC_TRANSFERS} transfers, got {commits}"
        ));
    }
    let peek = |pid: ProcessId, key: &str| -> Result<i64, String> {
        sim.inspect::<TwoPcParticipant>(pid)
            .and_then(|p| p.engine().peek(key))
            .map(|v| v.as_int())
            .ok_or_else(|| format!("cannot peek {key}"))
    };
    let alice = peek(pa, "alice")?;
    let bob = peek(pb, "bob")?;
    let expect_alice = ALICE_START - TWOPC_AMOUNT * commits;
    let expect_bob = BOB_START + TWOPC_AMOUNT * commits;
    if alice != expect_alice || bob != expect_bob {
        return Err(format!(
            "exactly-once/conservation: {commits} commits so expected \
             alice={expect_alice} bob={expect_bob}, got alice={alice} bob={bob}"
        ));
    }
    for (pid, name) in [(pa, "pa"), (pb, "pb")] {
        let p = sim
            .inspect::<TwoPcParticipant>(pid)
            .ok_or_else(|| format!("cannot inspect {name}"))?;
        if p.in_doubt() != 0 {
            return Err(format!(
                "stuck locks: {name} has {} in-doubt branches after heal + grace",
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

// ---------------------------------------------------------------------------
// Sagas
// ---------------------------------------------------------------------------

pub(crate) fn stock_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("reserve", |tx, args| {
            let item = args[0].as_str().to_owned();
            let qty = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
            if qty <= 0 {
                return Err("out of stock".into());
            }
            tx.put(&item, Value::Int(qty - 1));
            Ok(vec![Value::Int(qty - 1)])
        })
        .with("unreserve", |tx, args| {
            let item = args[0].as_str().to_owned();
            let qty = tx.get(&item).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&item, Value::Int(qty + 1));
            Ok(vec![])
        })
        .with("seed", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
}

pub(crate) fn payment_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("charge", |tx, args| {
            let account = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&account).map(|v| v.as_int()).unwrap_or(0);
            if balance < amount {
                return Err("insufficient funds".into());
            }
            tx.put(&account, Value::Int(balance - amount));
            Ok(vec![Value::Int(balance - amount)])
        })
        .with("refund", |tx, args| {
            let account = args[0].as_str().to_owned();
            let amount = args[1].as_int();
            let balance = tx.get(&account).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&account, Value::Int(balance + amount));
            Ok(vec![])
        })
        .with("seed", |tx, args| {
            tx.put(args[0].as_str(), args[1].clone());
            Ok(vec![])
        })
}

pub(crate) fn checkout_saga(stock_db: ProcessId, pay_db: ProcessId) -> SagaDef {
    SagaDef {
        name: "checkout".into(),
        steps: vec![
            SagaStep::new("reserve", stock_db, "reserve", |v| {
                vec![v.get("$0").clone()]
            })
            .bind("left")
            .compensate("unreserve", |v| vec![v.get("$0").clone()]),
            SagaStep::new("charge", pay_db, "charge", |v| {
                vec![v.get("$1").clone(), v.get("$2").clone()]
            })
            .compensate("refund", |v| vec![v.get("$1").clone(), v.get("$2").clone()]),
        ],
    }
}

const SAGAS: u64 = 8;
const PRICE: i64 = 10;
const STOCK_START: i64 = 40;
// Only 6 of the 8 checkouts can afford the charge, so compensation paths
// run even on the benign plan.
const BALANCE_START: i64 = 60;

/// Saga torture: stock + payment databases, a crashable orchestrator.
/// After heal + grace, every started saga must be terminal (committed or
/// fully compensated), stock and money must satisfy the conservation
/// identity, and no compensation may have been dropped.
pub fn saga_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut sim = Sim::with_seed(seed);
    let n_stock = sim.add_node();
    let n_pay = sim.add_node();
    let n_orch = sim.add_node();
    let stock_db = sim.spawn(
        n_stock,
        "stock-db",
        DbServer::factory("stock", DbServerConfig::default(), stock_registry()),
    );
    let pay_db = sim.spawn(
        n_pay,
        "pay-db",
        DbServer::factory("pay", DbServerConfig::default(), payment_registry()),
    );
    sim.inject(
        stock_db,
        Payload::new(DbMsg {
            token: 0,
            req: DbRequest::Call {
                proc: "seed".into(),
                args: vec![Value::from("item1"), Value::Int(STOCK_START)],
            },
        }),
    );
    sim.inject(
        pay_db,
        Payload::new(DbMsg {
            token: 0,
            req: DbRequest::Call {
                proc: "seed".into(),
                args: vec![Value::from("alice"), Value::Int(BALANCE_START)],
            },
        }),
    );
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
    plan.apply(&mut sim, &[n_orch], &[n_stock, n_pay, n_orch]);
    let span = plan.horizon.as_nanos() * 3 / 4;
    for i in 0..SAGAS {
        let at = 1_000_000 + span * i / SAGAS;
        sim.inject_at(
            SimTime::from_nanos(at),
            orchestrator,
            Payload::new(RpcRequest {
                call_id: i,
                body: Payload::new(StartSaga {
                    saga: "checkout".into(),
                    args: vec![
                        Value::from("item1"),
                        Value::from("alice"),
                        Value::Int(PRICE),
                    ],
                }),
            }),
        );
    }
    sim.run_until(SimTime::ZERO + plan.horizon + GRACE);

    // --- Audits ---
    let peek = |pid: ProcessId, key: &str| -> Result<i64, String> {
        sim.inspect::<DbServer>(pid)
            .and_then(|s| s.engine().peek(key))
            .map(|v| v.as_int())
            .ok_or_else(|| format!("cannot peek {key}"))
    };
    let stock = peek(stock_db, "item1")?;
    let balance = peek(pay_db, "alice")?;
    let committed = counter(&sim, "saga.committed") as i64;
    let comp_failures = counter(&sim, "saga.compensation_failures");
    if comp_failures != 0 {
        return Err(format!(
            "{comp_failures} compensations failed (dropped undo = leaked effect)"
        ));
    }
    // Conservation + exactly-once: each committed checkout moves one unit
    // of stock and PRICE of money; compensated ones move nothing (net).
    let stock_used = STOCK_START - stock;
    let spent = BALANCE_START - balance;
    if stock_used != committed || spent != committed * PRICE {
        return Err(format!(
            "conservation: {committed} committed but stock moved {stock_used} \
             and balance moved {spent} (price {PRICE})"
        ));
    }
    let benign = plan.events.is_empty() && plan.drop_prob == 0.0 && plan.dup_prob == 0.0;
    if benign && committed != (BALANCE_START / PRICE).min(SAGAS as i64) {
        return Err(format!(
            "benign plan must commit exactly the affordable checkouts, got {committed}"
        ));
    }
    let open = sim
        .inspect::<SagaOrchestrator>(orchestrator)
        .map(|o| o.open_instances())
        .ok_or("cannot inspect orchestrator")?;
    if open != 0 {
        return Err(format!(
            "{open} saga instances never reached a terminal state"
        ));
    }
    for (pid, name) in [(stock_db, "stock-db"), (pay_db, "pay-db")] {
        let active = sim
            .inspect::<DbServer>(pid)
            .map(|s| s.engine().active_count())
            .ok_or_else(|| format!("cannot inspect {name}"))?;
        if active != 0 {
            return Err(format!("{name} has {active} open engine transactions"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Epoch-batched deterministic dataflow
// ---------------------------------------------------------------------------

const DF_SHARDS: usize = 3;
const DF_CHAIN: u64 = 10;
const DF_AMOUNT: i64 = 10;
const DF_START: i64 = 100;

/// Dataflow torture: the epoch-batched engine under shard crash-restart
/// cycles, partitions, and ambient loss/duplication. Three shards own the
/// keyspace through the engine's consistent-hash ring; the sequencer node
/// is protected (its epoch journal makes it restartable, but a volatile
/// submission buffer lost to a crash would under-count the audit's
/// "every submission terminal" expectation). Transfers chain through the
/// accounts so most epochs span shards, plus one deterministic overdraft
/// so the logic-failure path runs even on the benign plan.
///
/// After heal + grace: every submitted transaction produced exactly one
/// outcome (exactly-once output — emissions are counted at the wire, so
/// a re-emitted epoch would overshoot), money is conserved across the
/// fleet, every shard has durably applied the sequencer's last epoch,
/// and no shard still has an epoch in flight.
pub fn dataflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let total = DF_CHAIN + 1; // chained transfers + one overdraft
    let mut sim = Sim::with_seed(seed);
    let n_seq = sim.add_node();
    let shard_nodes: Vec<_> = (0..DF_SHARDS).map(|_| sim.add_node()).collect();
    let (sequencer, shard_pids) = deploy_dataflow(
        &mut sim,
        n_seq,
        &shard_nodes,
        &transfer_registry(),
        DF_SHARDS,
        DataflowConfig::default(),
    );
    // Shards crash and restart (checkpoint + journal replay is the claim
    // under test); partitions may cut any link, including the sequencer's.
    let mut partition_nodes = shard_nodes.clone();
    partition_nodes.push(n_seq);
    plan.apply(&mut sim, &shard_nodes, &partition_nodes);

    let submit = |from: String, to: String, amount: i64| SubmitTxn {
        proc: "transfer".into(),
        args: vec![
            Value::Str(from.clone()),
            Value::Str(to.clone()),
            Value::Int(amount),
        ],
        read_keys: vec![from, to],
    };
    // Chain acct0 → acct1 → … across the first 3/4 of the fault window
    // (injections bypass the network and the sequencer never crashes, so
    // every submission enters the global order exactly once)…
    let span = plan.horizon.as_nanos() * 3 / 4;
    for i in 0..DF_CHAIN {
        let at = 1_000_000 + span * i / total;
        sim.inject_at(
            SimTime::from_nanos(at),
            sequencer,
            Payload::new(RpcRequest {
                call_id: i,
                body: Payload::new(submit(
                    format!("acct{i}"),
                    format!("acct{}", i + 1),
                    DF_AMOUNT,
                )),
            }),
        );
    }
    // … plus one transfer no balance can cover: the deterministic Err.
    sim.inject_at(
        SimTime::from_nanos(1_000_000 + span * DF_CHAIN / total),
        sequencer,
        Payload::new(RpcRequest {
            call_id: DF_CHAIN,
            body: Payload::new(submit("acct0".into(), "acct3".into(), 10_000)),
        }),
    );
    sim.run_until(SimTime::ZERO + plan.horizon + GRACE);

    // --- Audits ---
    let submitted = counter(&sim, "df.submitted");
    if submitted != total {
        return Err(format!(
            "sequencer saw {submitted} of {total} submissions (it never crashes — all must arrive)"
        ));
    }
    // Exactly-once output: every transaction terminal, no re-emission.
    let completed = counter(&sim, "df.completed");
    if completed != total {
        return Err(format!(
            "exactly-once: {completed} outcomes emitted for {total} submissions"
        ));
    }
    let ok = counter(&sim, "df.ok");
    let err = counter(&sim, "df.err");
    let benign = plan.events.is_empty() && plan.drop_prob == 0.0 && plan.dup_prob == 0.0;
    if benign && (ok != DF_CHAIN || err != 1) {
        return Err(format!(
            "benign plan must commit all {DF_CHAIN} transfers and fail the overdraft, \
             got ok={ok} err={err}"
        ));
    }
    // Conservation across the fleet: only the ring owner of a key stores
    // it, so scan every shard and take the one copy.
    let peek = |key: &str| -> i64 {
        shard_pids
            .iter()
            .find_map(|&pid| {
                sim.inspect::<DfShard>(pid)
                    .and_then(|s| s.peek(key))
                    .map(Value::as_int)
            })
            .unwrap_or(DF_START)
    };
    let total_money: i64 = (0..=DF_CHAIN).map(|i| peek(&format!("acct{i}"))).sum();
    let expected = (DF_CHAIN + 1) as i64 * DF_START;
    if total_money != expected {
        return Err(format!(
            "conservation: balances sum to {total_money}, expected {expected}"
        ));
    }
    // Convergence: every shard durably applied the last closed epoch and
    // holds nothing in flight; the watermark caught up with the log head.
    let last = sim
        .inspect::<DfSequencer>(sequencer)
        .map(DfSequencer::last_epoch)
        .ok_or("cannot inspect sequencer")?;
    for (i, &pid) in shard_pids.iter().enumerate() {
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
    let watermark = sim
        .inspect::<DfSequencer>(sequencer)
        .map(DfSequencer::fleet_watermark)
        .ok_or("cannot inspect sequencer")?;
    if watermark != last {
        return Err(format!(
            "watermark {watermark} never caught up with last epoch {last}"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Exactly-once workflows
// ---------------------------------------------------------------------------

/// The workflow stack needs more settle time than the flat protocols: a
/// chain is 4 sequential steps, each a full 2PC transaction reached
/// through two RPC legs (orchestrator → worker → coordinator), the
/// ambient loss of the plan persists through the grace period, and
/// overlapping chains abort each other on lock conflicts until the
/// re-drive sweep untangles them one committed step at a time. Worst
/// observed convergence across the CI sweep width is ~3.2s of grace
/// (seed 2, plan 2: double recrash cycles plus 13% ambient drop), so
/// 4s leaves margin without materially slowing the sweep.
const WF_GRACE: SimDuration = SimDuration::from_millis(4_000);

const WF_CHAINS: u64 = 6;
const WF_STEPS: u32 = 4;
const WF_AMOUNT: i64 = 10;
// Each chain walks its own 5-account range (base 5i → 5i+4): the audit
// targets exactly-once under crashes, not lock-conflict throughput —
// overlapping hot keys convoy all six chains behind 25 ms re-drive
// sweeps and the sweep times out before the tail chain finishes.
// Cross-chain conflict stress lives in the 2PC and sharded-2PC sweeps.
const WF_SPAN: i64 = WF_STEPS as i64 + 1;
const WF_ACCOUNTS: i64 = WF_CHAINS as i64 * WF_SPAN;
const WF_START: i64 = 1_000;

/// Workflow torture: the exactly-once runtime with *both* the
/// orchestrator and the workers crashable mid-chain (the crash points
/// where intent logs, idempotence dedup, and the `wf_guard` fence each
/// earn their keep — an orchestrator restart re-drives completed steps,
/// a worker restart replays intents whose transaction may have
/// committed). Six 4-hop transfer chains over overlapping accounts run
/// across the fault window on a 3-shard 2PC data tier.
///
/// After heal + grace:
/// - **no stranded workflows** — every started chain is terminal, and
///   none may fail (balances are ample, so there is no business error to
///   hide behind);
/// - **exactly-once step application** — every step marker reads exactly
///   1 (the fence would have made a double-apply abort, and a marker > 1
///   is impossible unless the guard was bypassed), and the committed
///   step count equals chains × steps;
/// - **conservation** — the account fleet still sums to the seed total;
/// - **no residue** — no pending intents, no in-doubt branches, no open
///   engine transactions, no open dtxs, and the idempotence tables are
///   fully collected behind the completed-workflow watermark.
pub fn workflow_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut sim = Sim::with_seed(seed);
    let n_orch = sim.add_node();
    let n_w0 = sim.add_node();
    let n_w1 = sim.add_node();
    let n_coord = sim.add_node();
    let shard_nodes: Vec<_> = (0..3).map(|_| sim.add_node()).collect();
    let seeds: Vec<(String, Value)> = (0..WF_ACCOUNTS)
        .map(|i| (format!("acct{i}"), Value::Int(WF_START)))
        .collect();
    let deploy = deploy_workflow(
        &mut sim,
        n_orch,
        &[n_w0, n_w1],
        n_coord,
        &shard_nodes,
        &bank_registry(),
        &seeds,
        &[transfer_chain_def("chain", WF_STEPS)],
        WorkflowConfig::default(),
    );
    // Orchestrator and both workers crash (and, under the
    // crash-during-recovery profile, crash *again* inside the recovery
    // window); partitions may cut any link. The data tier stays up — its
    // fault tolerance is 2PC's claim, already tortured separately.
    let mut partition_nodes = vec![n_orch, n_w0, n_w1, n_coord];
    partition_nodes.extend(&shard_nodes);
    plan.apply(&mut sim, &[n_orch, n_w0, n_w1], &partition_nodes);
    // Starts injected across the first 3/4 of the window; one addressed
    // to a crashed orchestrator is dropped by the kernel (the client
    // never reached it — in a full stack it would retry).
    let span = plan.horizon.as_nanos() * 3 / 4;
    for i in 0..WF_CHAINS {
        let at = 1_000_000 + span * i / WF_CHAINS;
        sim.inject_at(
            SimTime::from_nanos(at),
            deploy.orchestrator,
            Payload::new(RpcRequest {
                call_id: i,
                body: Payload::new(StartWorkflow {
                    workflow: "chain".into(),
                    args: vec![Value::Int(i as i64 * WF_SPAN), Value::Int(WF_AMOUNT)],
                }),
            }),
        );
    }
    sim.run_until(SimTime::ZERO + plan.horizon + WF_GRACE);

    // --- Audits ---
    let started = counter(&sim, "workflow.started");
    let completed = counter(&sim, "workflow.completed");
    let failed = counter(&sim, "workflow.failed");
    if failed != 0 {
        return Err(format!(
            "{failed} workflows failed — balances are ample, so a failure means \
             a transient fault was misclassified as a business error"
        ));
    }
    if completed != started {
        let open = sim
            .inspect::<WorkflowOrchestrator>(deploy.orchestrator)
            .map(|o| o.open_workflow_states())
            .unwrap_or_default();
        let intents: Vec<usize> = deploy
            .workers
            .iter()
            .map(|&w| {
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
        .inspect::<WorkflowOrchestrator>(deploy.orchestrator)
        .ok_or("cannot inspect orchestrator")?;
    if orch.open_workflows() != 0 {
        return Err(format!(
            "stranded: {} workflows never reached a terminal state",
            orch.open_workflows()
        ));
    }
    let benign = plan.events.is_empty() && plan.drop_prob == 0.0 && plan.dup_prob == 0.0;
    if benign && completed != WF_CHAINS {
        return Err(format!(
            "benign plan must complete all {WF_CHAINS} chains, got {completed}"
        ));
    }
    // Exactly-once: every step of every started chain applied exactly
    // once. The guard writes marker=1 and a second application aborts, so
    // any marker != 1 (or any marker beyond the started range) is a
    // bypassed fence.
    let mut applied = 0u64;
    for wf in 1..=started + 2 {
        for seq in 0..WF_STEPS {
            let marker = peek_sharded(
                &sim,
                &deploy.participants,
                &deploy.map,
                &step_marker_key(wf, seq),
            );
            match marker {
                Some(1) if wf <= started => applied += 1,
                None if wf > started => {}
                other => {
                    return Err(format!(
                        "exactly-once: marker {wf}:{seq} reads {other:?} with {started} chains started"
                    ));
                }
            }
        }
    }
    if applied != started * WF_STEPS as u64 {
        return Err(format!(
            "exactly-once: {applied} steps applied for {started} chains of {WF_STEPS}"
        ));
    }
    // Conservation: chains move money along the account line, never mint.
    let total: i64 = (0..WF_ACCOUNTS)
        .map(|i| {
            peek_sharded(&sim, &deploy.participants, &deploy.map, &format!("acct{i}"))
                .unwrap_or(WF_START)
        })
        .sum();
    if total != WF_ACCOUNTS * WF_START {
        return Err(format!(
            "conservation: balances sum to {total}, expected {}",
            WF_ACCOUNTS * WF_START
        ));
    }
    // No residue anywhere in the stack.
    for (i, &worker) in deploy.workers.iter().enumerate() {
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
    for (i, &pid) in deploy.participants.iter().enumerate() {
        let p = sim
            .inspect::<TwoPcParticipant>(pid)
            .ok_or_else(|| format!("cannot inspect shard {i}"))?;
        if p.in_doubt() != 0 {
            return Err(format!("shard {i} has {} in-doubt branches", p.in_doubt()));
        }
        if p.engine().active_count() != 0 {
            return Err(format!(
                "shard {i} has {} open engine transactions",
                p.engine().active_count()
            ));
        }
    }
    let open = sim
        .inspect::<TwoPcCoordinator>(deploy.coordinator)
        .map(|c| c.open_dtxs())
        .ok_or("cannot inspect coordinator")?;
    if open != 0 {
        return Err(format!("coordinator still tracks {open} open transactions"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Actor transactions
// ---------------------------------------------------------------------------

struct ActorDriver {
    router: ActorRouter,
    plan: Vec<(ActorId, String, Vec<Value>, &'static str)>,
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

/// Factory for the torture/model-check driver process: runs `plan` steps
/// sequentially, advancing on each completion (shared with
/// `mc_scenarios`).
pub(crate) fn actor_driver_factory(
    directory: ProcessId,
    plan: Vec<(ActorId, String, Vec<Value>, &'static str)>,
) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
    move |_| {
        Box::new(ActorDriver {
            router: ActorRouter::new(directory),
            plan: plan.clone(),
            at: 0,
        })
    }
}

const ACTOR_TRANSFERS: u64 = 6;
const ACTOR_AMOUNT: i64 = 20;
const ACTOR_BALANCE: i64 = 100;

/// Actor-transaction torture: sequential transfers between two account
/// actors under ambient message **loss only**. The app-level lock/buffer
/// protocol has no durable log and no receive-side dedup, so duplication
/// or long partitions genuinely break it (the paper's critique) — the
/// audit here pins down what it *does* guarantee: under loss within the
/// RPC retry budget, every transaction is atomic and money is conserved.
pub fn actor_torture_scenario(seed: u64, plan: &FaultPlan) -> Result<(), String> {
    let mut sim = Sim::with_seed(seed);
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
    let mut plan_steps: Vec<(ActorId, String, Vec<Value>, &'static str)> = (0..ACTOR_TRANSFERS)
        .map(|i| {
            let txid = format!("t{i}");
            (
                ActorId::new("txncoord", &txid),
                "run".to_string(),
                transfer_plan(&txid, "a", "b", ACTOR_AMOUNT),
                "txn",
            )
        })
        .collect();
    for key in ["a", "b"] {
        plan_steps.push((
            ActorId::new("account", key),
            "read".to_string(),
            vec![],
            "read",
        ));
    }
    sim.spawn(n_drv, "driver", move |_| {
        Box::new(ActorDriver {
            router: ActorRouter::new(directory),
            plan: plan_steps.clone(),
            at: 0,
        })
    });
    // No crashes, no partitions: silo state is volatile and the silo RPC
    // retry budget (≈30 ms) is smaller than a partition window, so either
    // would exceed what the protocol claims to survive.
    plan.apply(&mut sim, &[], &[]);
    sim.run_until(SimTime::ZERO + plan.horizon + GRACE);

    // --- Audits ---
    let txn_ok = counter(&sim, "torture.txn_ok");
    let txn_err = counter(&sim, "torture.txn_err");
    let read_ok = counter(&sim, "torture.read_ok");
    if txn_ok + txn_err != ACTOR_TRANSFERS {
        return Err(format!(
            "driver stuck: {txn_ok} ok + {txn_err} err of {ACTOR_TRANSFERS} transactions"
        ));
    }
    if read_ok != 2 {
        return Err(format!("final balance reads incomplete: {read_ok}/2"));
    }
    // Conservation: the two final reads sum to the initial total. (Each
    // committed transfer is a pure move; aborts must leave both sides
    // untouched.)
    let read_sum = counter(&sim, "torture.read_sum") as i64;
    if read_sum != 2 * ACTOR_BALANCE {
        return Err(format!(
            "conservation: balances sum to {read_sum}, expected {}",
            2 * ACTOR_BALANCE
        ));
    }
    // The last transfer overdrafts by design (5 × 20 drains the account),
    // so the abort path runs even on the benign plan.
    let affordable = (ACTOR_BALANCE / ACTOR_AMOUNT) as u64;
    let benign = plan.events.is_empty() && plan.drop_prob == 0.0 && plan.dup_prob == 0.0;
    if benign && txn_ok != affordable.min(ACTOR_TRANSFERS) {
        return Err(format!(
            "benign plan must commit exactly the affordable transfers, got {txn_ok}"
        ));
    }
    Ok(())
}
