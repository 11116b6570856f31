//! Model-checking scenarios: small protocol worlds wired into
//! [`tca_sim::mc`].
//!
//! These are the exhaustive-exploration counterparts of the torture
//! scenarios in [`crate::torture`]: the same topologies and the same
//! terminal audits, but tiny workloads (one or two transactions) so the
//! bounded checker can enumerate *every* schedule instead of sampling
//! random fault plans. All scenarios use a draw-free network config
//! (fixed latency, no ambient loss or duplication) — the checker itself
//! enumerates delays, drops and crashes as explicit choices.
//!
//! The 2PC scenario carries full state fingerprints (protocol digests +
//! balances + message contents), enabling visited-set merging; the saga
//! and actor scenarios run opaque (no fingerprints), which soundly
//! degrades the checker to pure depth-bounded DFS with sleep-set POR.

use tca_messaging::rpc::{RetryPolicy, RpcRequest};
use tca_sim::mc::{McScenario, Schedule};
use tca_sim::{NetworkConfig, Payload, ProcessId, RpcReply, Sim, SimConfig, SimDuration};
use tca_storage::{DbMsg, DbRequest, DbServer, DbServerConfig, Value};

use crate::actor_txn::{transactional_bank_registry, transfer_plan};
use crate::dataflow::{
    bank_registry, deploy_dataflow, transfer_registry, DataflowConfig, DfSequencer, DfShard,
    SubmitTxn,
};
use crate::saga::{SagaOrchestrator, StartSaga};
use crate::torture::{actor_driver_factory, checkout_saga, payment_registry, stock_registry};
use crate::twopc::{
    CoordinatorConfig, DecisionAck, DecisionInquiry, DecisionReq, DtxOutcome, ExecuteReq,
    ExecuteResp, ParticipantConfig, PrepareReq, StartDtx, TwoPcCoordinator, TwoPcParticipant, Vote,
};
use crate::workflow::{
    deploy_workflow, peek_sharded, step_marker_key, transfer_chain_def, GcWatermark, StartWorkflow,
    StepOutcome, StepReq, WorkflowConfig, WorkflowOrchestrator, WorkflowOutcome, WorkflowWorker,
};
use tca_models::actor::{ActorSilo, Directory, DirectoryConfig, SiloConfig};

/// Fixed-latency, loss-free network: the checker's choice enumeration
/// replaces every random network behaviour, so scenario worlds must not
/// draw from the RNG when routing.
pub fn mc_network() -> NetworkConfig {
    NetworkConfig {
        latency_min: SimDuration::from_micros(250),
        latency_max: SimDuration::from_micros(250),
        local_latency: SimDuration::from_micros(10),
        drop_prob: 0.0,
        dup_prob: 0.0,
    }
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

// ---------------------------------------------------------------------------
// 2PC
// ---------------------------------------------------------------------------

/// Starting balance of each debit account (`a0`, `a1`, …) on participant
/// A in the 2PC worlds.
pub const MC_ALICE_START: i64 = 150;
/// Starting balance of each credit account (`b0`, `b1`, …) on participant
/// B in the 2PC worlds.
pub const MC_BOB_START: i64 = 100;
/// Per-transfer amount in [`twopc_mc_scenario`].
pub const MC_TWOPC_AMOUNT: i64 = 10;

/// Participant A's pid in the 2PC worlds (spawn order is fixed).
pub const MC_PA: ProcessId = ProcessId(0);
/// Participant B's pid in the 2PC worlds.
pub const MC_PB: ProcessId = ProcessId(1);
/// The coordinator's pid in the 2PC worlds.
pub const MC_COORD: ProcessId = ProcessId(2);

/// Content fingerprint for every message the 2PC world sends. Returns
/// `None` for unknown payload types, making such states opaque to the
/// visited set (sound, just less pruning).
pub fn twopc_payload_fp(p: &Payload) -> Option<u64> {
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

fn twopc_world(transfers: u64, amount: i64, participant_config: ParticipantConfig) -> Sim {
    let bank = bank_registry;
    let mut sim = Sim::new(SimConfig {
        seed: 42,
        network: mc_network(),
    });
    let n_a = sim.add_node();
    let n_b = sim.add_node();
    let n_coord = sim.add_node();
    // Each transfer i moves money from its own account pair (a{i} on A to
    // b{i} on B): distinct keys mean distinct transactions never conflict
    // on locks, so any coupling between them the checker observes is
    // protocol state leaking across transactions — exactly the class of
    // bug lock conflicts would otherwise mask.
    let pa = sim.spawn(
        n_a,
        "bank-a",
        TwoPcParticipant::factory_seeded(
            "pa",
            participant_config.clone(),
            bank(),
            (0..transfers)
                .map(|i| (format!("a{i}"), Value::Int(MC_ALICE_START)))
                .collect(),
        ),
    );
    let pb = sim.spawn(
        n_b,
        "bank-b",
        TwoPcParticipant::factory_seeded(
            "pb",
            participant_config,
            bank(),
            (0..transfers)
                .map(|i| (format!("b{i}"), Value::Int(MC_BOB_START)))
                .collect(),
        ),
    );
    let coordinator = sim.spawn(
        n_coord,
        "coordinator",
        TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
    );
    debug_assert_eq!((pa, pb, coordinator), (MC_PA, MC_PB, MC_COORD));
    for i in 0..transfers {
        sim.inject(
            coordinator,
            Payload::new(RpcRequest {
                call_id: i,
                body: Payload::new(StartDtx {
                    branches: vec![
                        (
                            pa,
                            "debit".to_string(),
                            vec![Value::from(format!("a{i}")), Value::Int(amount)],
                        ),
                        (
                            pb,
                            "credit".to_string(),
                            vec![Value::from(format!("b{i}")), Value::Int(amount)],
                        ),
                    ],
                }),
            }),
        );
    }
    sim
}

fn twopc_scenario(
    transfers: u64,
    amount: i64,
    participant_config: ParticipantConfig,
) -> McScenario {
    let build_config = participant_config.clone();
    let mut sc = McScenario::new("twopc", move || {
        twopc_world(transfers, amount, build_config.clone())
    });
    sc.payload_fp = Box::new(twopc_payload_fp);
    sc.state_fp = Box::new(move |sim| {
        let digest = |pid: ProcessId| -> u64 {
            sim.inspect::<TwoPcParticipant>(pid)
                .map(|p| p.state_digest())
                .unwrap_or(0)
        };
        let peek = |pid: ProcessId, key: &str| -> u64 {
            sim.inspect::<TwoPcParticipant>(pid)
                .and_then(|p| p.engine().peek(key))
                .map(|v| v.as_int() as u64)
                .unwrap_or(u64::MAX)
        };
        let coord = sim
            .inspect::<TwoPcCoordinator>(MC_COORD)
            .map(|c| c.state_digest())
            .unwrap_or(0);
        let mut h = fnv_bytes(12, []);
        for v in [digest(MC_PA), digest(MC_PB), coord] {
            h = fnv_bytes(h, v.to_le_bytes());
        }
        for i in 0..transfers {
            h = fnv_bytes(h, peek(MC_PA, &format!("a{i}")).to_le_bytes());
            h = fnv_bytes(h, peek(MC_PB, &format!("b{i}")).to_le_bytes());
        }
        Some(h)
    });
    sc.step_invariant = Box::new(|sim| {
        for (pid, name) in [(MC_PA, "pa"), (MC_PB, "pb")] {
            if let Some(p) = sim.inspect::<TwoPcParticipant>(pid) {
                let zombies = p.zombie_branches();
                if zombies > 0 {
                    return Err(format!(
                        "{name}: {zombies} branch(es) open for already-decided txids \
                         (locks nothing will release)"
                    ));
                }
            }
        }
        Ok(())
    });
    sc.audit = Box::new(move |sim| {
        let commits_a = sim.metrics().counter("pa.commits");
        let commits_b = sim.metrics().counter("pb.commits");
        if commits_a != commits_b {
            return Err(format!(
                "atomicity: pa committed {commits_a} branches, pb {commits_b}"
            ));
        }
        let peek = |pid: ProcessId, key: &str| -> Result<i64, String> {
            sim.inspect::<TwoPcParticipant>(pid)
                .and_then(|p| p.engine().peek(key))
                .map(|v| v.as_int())
                .ok_or_else(|| format!("cannot peek {key}"))
        };
        // Per-transfer atomicity + exactly-once: each pair moves either 0
        // or exactly `amount`, and both sides agree.
        for i in 0..transfers {
            let debited = MC_ALICE_START - peek(MC_PA, &format!("a{i}"))?;
            let credited = peek(MC_PB, &format!("b{i}"))? - MC_BOB_START;
            if debited != credited {
                return Err(format!(
                    "atomicity: transfer {i} debited {debited} but credited {credited}"
                ));
            }
            if debited != 0 && debited != amount {
                return Err(format!(
                    "exactly-once: transfer {i} moved {debited}, not 0 or {amount}"
                ));
            }
        }
        for (pid, name) in [(MC_PA, "pa"), (MC_PB, "pb")] {
            let p = sim
                .inspect::<TwoPcParticipant>(pid)
                .ok_or_else(|| format!("cannot inspect {name}"))?;
            if p.in_doubt() != 0 {
                return Err(format!("{name}: {} branches still in doubt", p.in_doubt()));
            }
            if p.engine().active_count() != 0 {
                return Err(format!(
                    "{name}: {} open engine transactions (stuck locks)",
                    p.engine().active_count()
                ));
            }
        }
        let open = sim
            .inspect::<TwoPcCoordinator>(MC_COORD)
            .map(|c| c.open_dtxs())
            .ok_or("cannot inspect coordinator")?;
        if open != 0 {
            return Err(format!("coordinator still tracks {open} transactions"));
        }
        Ok(())
    });
    sc
}

/// The standard 2PC checking world: two participants, one coordinator,
/// `transfers` identical alice→bob transfers injected at time zero.
/// Invariants: no zombie branches at any state; atomicity, conservation
/// and no-stuck-locks at closed leaves.
pub fn twopc_mc_scenario(transfers: u64) -> McScenario {
    twopc_scenario(transfers, MC_TWOPC_AMOUNT, ParticipantConfig::default())
}

/// The seeded-mutation self-test world: one transfer whose debit branch
/// *fails* (amount exceeds alice's balance, so the coordinator aborts
/// while an `ExecuteReq` may still be in flight), with the participant's
/// late-execute guard disabled via
/// [`ParticipantConfig::accept_late_execute`]. The checker must find the
/// decision/execute race this reintroduces (PR 2's late-ExecuteReq bug)
/// as a zombie-branch invariant violation.
pub fn twopc_late_execute_mutation_scenario() -> McScenario {
    twopc_scenario(
        1,
        MC_ALICE_START + 1,
        ParticipantConfig {
            accept_late_execute: true,
            ..ParticipantConfig::default()
        },
    )
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

// ---------------------------------------------------------------------------
// Sharded 2PC (cross-shard transfers through the placement ring)
// ---------------------------------------------------------------------------

/// For each transfer, a `(debit key, credit key)` pair chosen so the ring
/// over two shards places the debit key on shard 0 and the credit key on
/// shard 1 — every transfer is genuinely cross-shard. Deterministic and
/// draw-free: candidate keys `acct0, acct1, …` are scanned in order.
pub fn sharded_transfer_keys(transfers: u64) -> Vec<(String, String)> {
    let map = tca_sim::ShardMap::ring(2);
    let want = transfers as usize;
    let mut on0 = Vec::with_capacity(want);
    let mut on1 = Vec::with_capacity(want);
    let mut i = 0u64;
    while on0.len() < want || on1.len() < want {
        let key = format!("acct{i}");
        i += 1;
        match map.owner(&key) {
            0 if on0.len() < want => on0.push(key),
            1 if on1.len() < want => on1.push(key),
            _ => {}
        }
    }
    on0.into_iter().zip(on1).collect()
}

/// The sharded 2PC checking world: two [`TwoPcParticipant`]s fronting the
/// two shards of a consistent-hash ring, a coordinator, and `transfers`
/// cross-shard transfers whose branches are built by
/// [`crate::sharding::route_branches`] — the same addressing path the
/// sharded experiments use. Carries full state fingerprints (protocol
/// digests + both shards' balances); invariants match
/// [`twopc_mc_scenario`]: no zombie branches at any state, atomicity /
/// exactly-once / conservation *across shards* and no stuck locks or
/// in-doubt branches at closed leaves.
pub fn sharded_twopc_mc_scenario(transfers: u64) -> McScenario {
    let amount = MC_TWOPC_AMOUNT;
    let keys = sharded_transfer_keys(transfers);
    let build_keys = keys.clone();
    let mut sc = McScenario::new("sharded-twopc", move || {
        let map = tca_sim::ShardMap::ring(2);
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
        let n_s0 = sim.add_node();
        let n_s1 = sim.add_node();
        let n_coord = sim.add_node();
        let s0 = sim.spawn(
            n_s0,
            "shard0",
            TwoPcParticipant::factory_seeded(
                "s0",
                ParticipantConfig::default(),
                bank_registry(),
                build_keys
                    .iter()
                    .map(|(debit, _)| (debit.clone(), Value::Int(MC_ALICE_START)))
                    .collect(),
            ),
        );
        let s1 = sim.spawn(
            n_s1,
            "shard1",
            TwoPcParticipant::factory_seeded(
                "s1",
                ParticipantConfig::default(),
                bank_registry(),
                build_keys
                    .iter()
                    .map(|(_, credit)| (credit.clone(), Value::Int(MC_BOB_START)))
                    .collect(),
            ),
        );
        let coordinator = sim.spawn(
            n_coord,
            "coordinator",
            TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
        );
        debug_assert_eq!((s0, s1, coordinator), (MC_PA, MC_PB, MC_COORD));
        let participants = [s0, s1];
        for (i, (debit_key, credit_key)) in build_keys.iter().enumerate() {
            let ops: Vec<crate::sharding::ShardOp> = vec![
                (
                    debit_key.clone(),
                    "debit".to_string(),
                    vec![Value::from(debit_key.clone()), Value::Int(amount)],
                ),
                (
                    credit_key.clone(),
                    "credit".to_string(),
                    vec![Value::from(credit_key.clone()), Value::Int(amount)],
                ),
            ];
            let branches = crate::sharding::route_branches(&map, &participants, &ops);
            debug_assert_eq!(branches[0].0, s0, "debit key owned by shard 0");
            debug_assert_eq!(branches[1].0, s1, "credit key owned by shard 1");
            sim.inject(
                coordinator,
                Payload::new(RpcRequest {
                    call_id: i as u64,
                    body: Payload::new(StartDtx { branches }),
                }),
            );
        }
        sim
    });
    sc.payload_fp = Box::new(twopc_payload_fp);
    let fp_keys = keys.clone();
    sc.state_fp = Box::new(move |sim| {
        let digest = |pid: ProcessId| -> u64 {
            sim.inspect::<TwoPcParticipant>(pid)
                .map(|p| p.state_digest())
                .unwrap_or(0)
        };
        let peek = |pid: ProcessId, key: &str| -> u64 {
            sim.inspect::<TwoPcParticipant>(pid)
                .and_then(|p| p.engine().peek(key))
                .map(|v| v.as_int() as u64)
                .unwrap_or(u64::MAX)
        };
        let coord = sim
            .inspect::<TwoPcCoordinator>(MC_COORD)
            .map(|c| c.state_digest())
            .unwrap_or(0);
        let mut h = fnv_bytes(13, []);
        for v in [digest(MC_PA), digest(MC_PB), coord] {
            h = fnv_bytes(h, v.to_le_bytes());
        }
        for (debit_key, credit_key) in &fp_keys {
            h = fnv_bytes(h, peek(MC_PA, debit_key).to_le_bytes());
            h = fnv_bytes(h, peek(MC_PB, credit_key).to_le_bytes());
        }
        Some(h)
    });
    sc.step_invariant = Box::new(|sim| {
        for (pid, name) in [(MC_PA, "s0"), (MC_PB, "s1")] {
            if let Some(p) = sim.inspect::<TwoPcParticipant>(pid) {
                let zombies = p.zombie_branches();
                if zombies > 0 {
                    return Err(format!(
                        "{name}: {zombies} branch(es) open for already-decided txids"
                    ));
                }
            }
        }
        Ok(())
    });
    sc.audit = Box::new(move |sim| {
        let commits_a = sim.metrics().counter("s0.commits");
        let commits_b = sim.metrics().counter("s1.commits");
        if commits_a != commits_b {
            return Err(format!(
                "cross-shard atomicity: shard 0 committed {commits_a} branches, \
                 shard 1 {commits_b}"
            ));
        }
        let peek = |pid: ProcessId, key: &str| -> Result<i64, String> {
            sim.inspect::<TwoPcParticipant>(pid)
                .and_then(|p| p.engine().peek(key))
                .map(|v| v.as_int())
                .ok_or_else(|| format!("cannot peek {key}"))
        };
        for (i, (debit_key, credit_key)) in keys.iter().enumerate() {
            let debited = MC_ALICE_START - peek(MC_PA, debit_key)?;
            let credited = peek(MC_PB, credit_key)? - MC_BOB_START;
            if debited != credited {
                return Err(format!(
                    "cross-shard atomicity: transfer {i} debited {debited} on \
                     shard 0 but credited {credited} on shard 1"
                ));
            }
            if debited != 0 && debited != amount {
                return Err(format!(
                    "exactly-once: transfer {i} moved {debited}, not 0 or {amount}"
                ));
            }
        }
        for (pid, name) in [(MC_PA, "s0"), (MC_PB, "s1")] {
            let p = sim
                .inspect::<TwoPcParticipant>(pid)
                .ok_or_else(|| format!("cannot inspect {name}"))?;
            if p.in_doubt() != 0 {
                return Err(format!("{name}: {} branches still in doubt", p.in_doubt()));
            }
            if p.engine().active_count() != 0 {
                return Err(format!(
                    "{name}: {} open engine transactions (stuck locks)",
                    p.engine().active_count()
                ));
            }
        }
        let open = sim
            .inspect::<TwoPcCoordinator>(MC_COORD)
            .map(|c| c.open_dtxs())
            .ok_or("cannot inspect coordinator")?;
        if open != 0 {
            return Err(format!("coordinator still tracks {open} transactions"));
        }
        Ok(())
    });
    sc
}

// ---------------------------------------------------------------------------
// Saga
// ---------------------------------------------------------------------------

/// Initial stock units in the saga checking world.
pub const MC_STOCK_START: i64 = 5;
/// Initial buyer balance in the saga checking world.
pub const MC_SAGA_BALANCE: i64 = 30;
/// Checkout price in the saga checking world.
pub const MC_SAGA_PRICE: i64 = 10;

/// The saga checking world: stock + payment databases and a checkout
/// orchestrator, `sagas` checkouts injected at time zero. Runs opaque (no
/// state fingerprints); the terminal audit checks compensation integrity,
/// conservation and termination, mirroring the torture audits.
pub fn saga_mc_scenario(sagas: u64) -> McScenario {
    let mut sc = McScenario::new("saga", move || {
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
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
                    args: vec![Value::from("item1"), Value::Int(MC_STOCK_START)],
                },
            }),
        );
        sim.inject(
            pay_db,
            Payload::new(DbMsg {
                token: 0,
                req: DbRequest::Call {
                    proc: "seed".into(),
                    args: vec![Value::from("alice"), Value::Int(MC_SAGA_BALANCE)],
                },
            }),
        );
        let orchestrator = sim.spawn(
            n_orch,
            "saga",
            SagaOrchestrator::factory_with_retry(
                vec![checkout_saga(stock_db, pay_db)],
                RetryPolicy::retrying(40, SimDuration::from_millis(10)),
            ),
        );
        for i in 0..sagas {
            sim.inject(
                orchestrator,
                Payload::new(RpcRequest {
                    call_id: i,
                    body: Payload::new(StartSaga {
                        saga: "checkout".into(),
                        args: vec![
                            Value::from("item1"),
                            Value::from("alice"),
                            Value::Int(MC_SAGA_PRICE),
                        ],
                    }),
                }),
            );
        }
        sim
    });
    sc.audit = Box::new(|sim| {
        let stock_db = ProcessId(0);
        let pay_db = ProcessId(1);
        let orchestrator = ProcessId(2);
        let comp_failures = sim.metrics().counter("saga.compensation_failures");
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
        let stock = peek(stock_db, "item1")?;
        let balance = peek(pay_db, "alice")?;
        let committed = sim.metrics().counter("saga.committed") as i64;
        let stock_used = MC_STOCK_START - stock;
        let spent = MC_SAGA_BALANCE - balance;
        if stock_used != committed || spent != committed * MC_SAGA_PRICE {
            return Err(format!(
                "conservation: {committed} committed but stock moved {stock_used} \
                 and balance moved {spent} (price {MC_SAGA_PRICE})"
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
    });
    sc
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

/// Transfer amount in the actor checking world.
pub const MC_ACTOR_AMOUNT: i64 = 20;
/// Per-account starting balance in the actor checking world.
pub const MC_ACTOR_BALANCE: i64 = 100;

/// The actor-transaction checking world: a directory, two silos and a
/// driver running `transfers` sequential a→b transfers followed by two
/// balance reads. Runs opaque; the terminal audit checks driver progress
/// and conservation, mirroring the torture audits.
pub fn actor_mc_scenario(transfers: u64) -> McScenario {
    let mut sc = McScenario::new("actor", move || {
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
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
                    transactional_bank_registry(MC_ACTOR_BALANCE),
                    SiloConfig::volatile(directory),
                ),
            );
        }
        let plan: Vec<_> = (0..transfers)
            .map(|i| {
                let txid = format!("t{i}");
                (
                    tca_models::actor::ActorId::new("txncoord", &txid),
                    "run".to_string(),
                    transfer_plan(&txid, "a", "b", MC_ACTOR_AMOUNT),
                    "txn",
                )
            })
            .chain(["a", "b"].into_iter().map(|key| {
                (
                    tca_models::actor::ActorId::new("account", key),
                    "read".to_string(),
                    vec![],
                    "read",
                )
            }))
            .collect();
        sim.spawn(n_drv, "driver", actor_driver_factory(directory, plan));
        sim
    });
    sc.audit = Box::new(move |sim| {
        let txn_ok = sim.metrics().counter("torture.txn_ok");
        let txn_err = sim.metrics().counter("torture.txn_err");
        let read_ok = sim.metrics().counter("torture.read_ok");
        if txn_ok + txn_err != transfers {
            return Err(format!(
                "driver stuck: {txn_ok} ok + {txn_err} err of {transfers} transactions"
            ));
        }
        if read_ok != 2 {
            return Err(format!("final balance reads incomplete: {read_ok}/2"));
        }
        let read_sum = sim.metrics().counter("torture.read_sum") as i64;
        if read_sum != 2 * MC_ACTOR_BALANCE {
            return Err(format!(
                "conservation: balances sum to {read_sum}, expected {}",
                2 * MC_ACTOR_BALANCE
            ));
        }
        Ok(())
    });
    sc
}

// ---------------------------------------------------------------------------
// Deterministic dataflow (epoch-batched engine)
// ---------------------------------------------------------------------------

/// Per-account starting balance in the dataflow checking world (the
/// [`transfer_registry`] default).
pub const MC_DF_START: i64 = 100;
/// Per-transfer amount in the dataflow checking world.
pub const MC_DF_AMOUNT: i64 = 10;
/// Shard 0's pid in the dataflow world (spawn order is fixed:
/// [`deploy_dataflow`] spawns shards first, then the sequencer).
pub const MC_DF_S0: ProcessId = ProcessId(0);
/// Shard 1's pid in the dataflow world.
pub const MC_DF_S1: ProcessId = ProcessId(1);
/// The sequencer's pid in the dataflow world.
pub const MC_DF_SEQ: ProcessId = ProcessId(2);

/// The dataflow checking world: the epoch-batched deterministic engine
/// ([`deploy_dataflow`]) over two ring shards plus a sequencer,
/// `transfers` genuinely cross-shard transfers injected at time zero
/// (each on its own [`sharded_transfer_keys`] pair). Zero virtual
/// execution cost and a one-epoch checkpoint cadence keep the schedule
/// depth small while still exercising the snapshot + journal-replay
/// recovery path on every crash the checker injects.
///
/// Runs opaque (no state fingerprints), like the saga and actor worlds:
/// depth-bounded DFS with sleep-set POR. The step invariant holds the
/// engine's two monotone exactly-once bounds at *every* state; the
/// terminal audit checks exactly-once emission, per-transfer atomicity,
/// fleet-wide conservation, and convergence (every shard durably applied
/// through the sequencer's last epoch, watermark caught up, nothing in
/// flight).
pub fn dataflow_mc_scenario(transfers: u64) -> McScenario {
    let keys = sharded_transfer_keys(transfers);
    let build_keys = keys.clone();
    let mut sc = McScenario::new("dataflow", move || {
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
        let n_s0 = sim.add_node();
        let n_s1 = sim.add_node();
        let n_seq = sim.add_node();
        let (sequencer, shard_pids) = deploy_dataflow(
            &mut sim,
            n_seq,
            &[n_s0, n_s1],
            &transfer_registry(),
            2,
            DataflowConfig {
                // Inline wave advance (no cost timers) and a checkpoint
                // every epoch: fewer choices per schedule, and every
                // crash recovers through the full snapshot+replay path.
                exec_cost: SimDuration::ZERO,
                checkpoint_every: 1,
                ..DataflowConfig::default()
            },
        );
        debug_assert_eq!(
            (shard_pids[0], shard_pids[1], sequencer),
            (MC_DF_S0, MC_DF_S1, MC_DF_SEQ)
        );
        for (i, (debit_key, credit_key)) in build_keys.iter().enumerate() {
            sim.inject(
                sequencer,
                Payload::new(RpcRequest {
                    call_id: i as u64,
                    body: Payload::new(SubmitTxn {
                        proc: "transfer".into(),
                        args: vec![
                            Value::from(debit_key.clone()),
                            Value::from(credit_key.clone()),
                            Value::Int(MC_DF_AMOUNT),
                        ],
                        read_keys: vec![debit_key.clone(), credit_key.clone()],
                    }),
                }),
            );
        }
        sim
    });
    sc.step_invariant = Box::new(|sim| {
        // Exactly-once, held at every intermediate state: outcomes are
        // emitted at most once per sequenced transaction, so the emission
        // counter can never pass the submission counter...
        let submitted = sim.metrics().counter("df.submitted");
        let completed = sim.metrics().counter("df.completed");
        if completed > submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        // ...and a shard can never durably apply an epoch the sequencer
        // has not durably closed (the epoch journal precedes broadcast).
        if let Some(seq) = sim.inspect::<DfSequencer>(MC_DF_SEQ) {
            let last = seq.last_epoch();
            for (pid, name) in [(MC_DF_S0, "shard 0"), (MC_DF_S1, "shard 1")] {
                if let Some(shard) = sim.inspect::<DfShard>(pid) {
                    if shard.applied_epoch() > last {
                        return Err(format!(
                            "{name} applied epoch {} past the sequencer's last closed \
                             epoch {last}",
                            shard.applied_epoch()
                        ));
                    }
                }
            }
        }
        Ok(())
    });
    sc.audit = Box::new(move |sim| {
        // The checker may drop an injected submission, so audit against
        // what the sequencer actually admitted, not the injected count.
        let submitted = sim.metrics().counter("df.submitted");
        let completed = sim.metrics().counter("df.completed");
        if completed != submitted {
            return Err(format!(
                "exactly-once: {completed} outcomes emitted for {submitted} submissions"
            ));
        }
        let ok = sim.metrics().counter("df.ok");
        let err = sim.metrics().counter("df.err");
        if err != 0 || ok != completed {
            return Err(format!(
                "every admitted transfer is covered and must commit: \
                 ok={ok} err={err} of {completed}"
            ));
        }
        // Only the ring owner of a key stores it: scan both shards.
        let peek = |key: &str| -> i64 {
            [MC_DF_S0, MC_DF_S1]
                .iter()
                .find_map(|&pid| {
                    sim.inspect::<DfShard>(pid)
                        .and_then(|s| s.peek(key))
                        .map(Value::as_int)
                })
                .unwrap_or(MC_DF_START)
        };
        let mut total = 0i64;
        for (i, (debit_key, credit_key)) in keys.iter().enumerate() {
            let debited = MC_DF_START - peek(debit_key);
            let credited = peek(credit_key) - MC_DF_START;
            if debited != credited {
                return Err(format!(
                    "atomicity: transfer {i} debited {debited} on shard 0 but \
                     credited {credited} on shard 1"
                ));
            }
            if debited != 0 && debited != MC_DF_AMOUNT {
                return Err(format!(
                    "exactly-once: transfer {i} moved {debited}, not 0 or {MC_DF_AMOUNT}"
                ));
            }
            total += peek(debit_key) + peek(credit_key);
        }
        let expected = 2 * keys.len() as i64 * MC_DF_START;
        if total != expected {
            return Err(format!(
                "conservation: balances sum to {total}, expected {expected}"
            ));
        }
        // Convergence: every shard durably applied through the last
        // closed epoch, the fleet watermark caught up, nothing in flight.
        let seq = sim
            .inspect::<DfSequencer>(MC_DF_SEQ)
            .ok_or("cannot inspect sequencer")?;
        let last = seq.last_epoch();
        for (pid, name) in [(MC_DF_S0, "shard 0"), (MC_DF_S1, "shard 1")] {
            let shard = sim
                .inspect::<DfShard>(pid)
                .ok_or_else(|| format!("cannot inspect {name}"))?;
            if shard.applied_epoch() != last {
                return Err(format!(
                    "{name} applied through epoch {} of {last}",
                    shard.applied_epoch()
                ));
            }
            if !shard.is_idle() {
                return Err(format!("{name} still has an epoch in flight"));
            }
        }
        if seq.fleet_watermark() != last {
            return Err(format!(
                "watermark stuck at {} with last epoch {last}",
                seq.fleet_watermark()
            ));
        }
        Ok(())
    });
    sc
}

// ---------------------------------------------------------------------------
// Exactly-once workflows (intent log + idempotence table + tail-call retry)
// ---------------------------------------------------------------------------

/// Per-account starting balance in the workflow checking world.
pub const MC_WF_START: i64 = 100;
/// Per-hop transfer amount in the workflow checking world.
pub const MC_WF_AMOUNT: i64 = 10;
/// Chain length (steps per workflow) in the workflow checking world.
pub const MC_WF_STEPS: u32 = 2;
/// Shard 0's pid in the workflow world ([`deploy_workflow`] spawns the
/// shard participants first, in ring order).
pub const MC_WF_S0: ProcessId = ProcessId(0);
/// Shard 1's pid in the workflow world.
pub const MC_WF_S1: ProcessId = ProcessId(1);
/// The 2PC coordinator's pid in the workflow world.
pub const MC_WF_COORD: ProcessId = ProcessId(2);
/// The single step worker's pid in the workflow world.
pub const MC_WF_WORKER: ProcessId = ProcessId(3);
/// The orchestrator's pid in the workflow world.
pub const MC_WF_ORCH: ProcessId = ProcessId(4);

/// Content fingerprint for the workflow world: the workflow wire messages
/// plus every 2PC protocol message they carry underneath (via
/// [`twopc_payload_fp`]). RPC envelopes recurse into *this* fingerprint so
/// a `StepReq` inside an `RpcRequest` still hashes by content.
pub fn workflow_payload_fp(p: &Payload) -> Option<u64> {
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

/// The exactly-once workflow checking world: one orchestrator, one step
/// worker, a 2PC coordinator and two ring shards, with a single two-step
/// transfer chain injected at time zero. The full Beldi-style stack is in
/// the schedule space: durable intent written before the step dtx, the
/// `wf_guard` marker fence as an extra dtx branch, idempotence-table
/// dedup on re-sent steps, tail-call re-drives from the orchestrator
/// sweep, and watermark GC after completion.
///
/// Carries full state fingerprints (orchestrator / worker / coordinator /
/// participant digests + balances + step markers), so the visited set
/// merges converged interleavings. The step invariant holds the core
/// exactly-once bound at *every* state: no step marker ever exceeds one
/// application, and the orchestrator never reports more completions than
/// starts. The terminal audit checks chain completion, per-marker
/// exactly-once, conservation, idempotence-table GC, and that no intent,
/// lock, in-doubt branch or open dtx survives.
pub fn workflow_mc_scenario() -> McScenario {
    let accounts: Vec<String> = (0..=MC_WF_STEPS).map(|i| format!("acct{i}")).collect();
    let markers: Vec<String> = (0..MC_WF_STEPS).map(|s| step_marker_key(1, s)).collect();
    let mut sc = McScenario::new("workflow", move || {
        let mut sim = Sim::new(SimConfig {
            seed: 42,
            network: mc_network(),
        });
        let n_s0 = sim.add_node();
        let n_s1 = sim.add_node();
        let n_coord = sim.add_node();
        let n_worker = sim.add_node();
        let n_orch = sim.add_node();
        let seeds: Vec<(String, Value)> = (0..=MC_WF_STEPS)
            .map(|i| (format!("acct{i}"), Value::Int(MC_WF_START)))
            .collect();
        let deploy = deploy_workflow(
            &mut sim,
            n_orch,
            &[n_worker],
            n_coord,
            &[n_s0, n_s1],
            &bank_registry(),
            &seeds,
            &[transfer_chain_def("chain", MC_WF_STEPS)],
            WorkflowConfig::default(),
        );
        debug_assert_eq!(
            (
                deploy.participants[0],
                deploy.participants[1],
                deploy.coordinator,
                deploy.workers[0],
                deploy.orchestrator,
            ),
            (MC_WF_S0, MC_WF_S1, MC_WF_COORD, MC_WF_WORKER, MC_WF_ORCH)
        );
        sim.inject(
            deploy.orchestrator,
            Payload::new(RpcRequest {
                call_id: 0,
                body: Payload::new(StartWorkflow {
                    workflow: "chain".into(),
                    args: vec![Value::Int(0), Value::Int(MC_WF_AMOUNT)],
                }),
            }),
        );
        sim
    });
    sc.payload_fp = Box::new(workflow_payload_fp);
    let fp_accounts = accounts.clone();
    let fp_markers = markers.clone();
    sc.state_fp = Box::new(move |sim| {
        let map = tca_sim::ShardMap::ring(2);
        let participants = [MC_WF_S0, MC_WF_S1];
        let digest = |pid: ProcessId| -> u64 {
            sim.inspect::<TwoPcParticipant>(pid)
                .map(|p| p.state_digest())
                .unwrap_or(0)
        };
        let mut h = fnv_bytes(14, []);
        for v in [
            digest(MC_WF_S0),
            digest(MC_WF_S1),
            sim.inspect::<TwoPcCoordinator>(MC_WF_COORD)
                .map(|c| c.state_digest())
                .unwrap_or(0),
            sim.inspect::<WorkflowWorker>(MC_WF_WORKER)
                .map(|w| w.state_digest())
                .unwrap_or(0),
            sim.inspect::<WorkflowOrchestrator>(MC_WF_ORCH)
                .map(|o| o.state_digest())
                .unwrap_or(0),
        ] {
            h = fnv_bytes(h, v.to_le_bytes());
        }
        for key in fp_accounts.iter().chain(fp_markers.iter()) {
            let v = peek_sharded(sim, &participants, &map, key).unwrap_or(i64::MIN);
            h = fnv_bytes(h, v.to_le_bytes());
        }
        Some(h)
    });
    let inv_markers = markers.clone();
    sc.step_invariant = Box::new(move |sim| {
        let map = tca_sim::ShardMap::ring(2);
        let participants = [MC_WF_S0, MC_WF_S1];
        for key in &inv_markers {
            if let Some(n) = peek_sharded(sim, &participants, &map, key) {
                if n > 1 {
                    return Err(format!("exactly-once: step marker {key} applied {n} times"));
                }
            }
        }
        let started = sim.metrics().counter("workflow.started");
        let completed = sim.metrics().counter("workflow.completed");
        if completed > started {
            return Err(format!(
                "{completed} workflows completed but only {started} started"
            ));
        }
        Ok(())
    });
    sc.audit = Box::new(move |sim| {
        let map = tca_sim::ShardMap::ring(2);
        let participants = [MC_WF_S0, MC_WF_S1];
        let started = sim.metrics().counter("workflow.started");
        let completed = sim.metrics().counter("workflow.completed");
        let failed = sim.metrics().counter("workflow.failed");
        if failed != 0 {
            return Err(format!("{failed} workflows failed (all hops are funded)"));
        }
        // The checker may drop the injected StartWorkflow, so audit
        // against what the orchestrator actually admitted.
        if completed != started {
            return Err(format!(
                "stranded: {started} started, {completed} completed"
            ));
        }
        let orch = sim
            .inspect::<WorkflowOrchestrator>(MC_WF_ORCH)
            .ok_or("cannot inspect orchestrator")?;
        if orch.open_workflows() != 0 {
            return Err(format!("{} workflows still open", orch.open_workflows()));
        }
        // Exactly-once per step: every marker of an admitted chain is 1,
        // never more, and no marker exists for a never-admitted chain.
        for key in &markers {
            let marker = peek_sharded(sim, &participants, &map, key);
            let want = if started > 0 { Some(1) } else { None };
            if marker != want {
                return Err(format!("marker {key}: {marker:?}, expected {want:?}"));
            }
        }
        let total: i64 = accounts
            .iter()
            .map(|key| peek_sharded(sim, &participants, &map, key).unwrap_or(MC_WF_START))
            .sum();
        let expected = (MC_WF_STEPS as i64 + 1) * MC_WF_START;
        if total != expected {
            return Err(format!(
                "conservation: balances sum to {total}, expected {expected}"
            ));
        }
        let worker = sim
            .inspect::<WorkflowWorker>(MC_WF_WORKER)
            .ok_or("cannot inspect worker")?;
        if worker.pending_intents() != 0 {
            return Err(format!(
                "{} intents never resolved on the worker",
                worker.pending_intents()
            ));
        }
        if worker.idem_entries() != 0 {
            return Err(format!(
                "{} idempotence entries survived watermark GC",
                worker.idem_entries()
            ));
        }
        for (pid, name) in [(MC_WF_S0, "shard 0"), (MC_WF_S1, "shard 1")] {
            let p = sim
                .inspect::<TwoPcParticipant>(pid)
                .ok_or_else(|| format!("cannot inspect {name}"))?;
            if p.in_doubt() != 0 {
                return Err(format!("{name}: {} branches still in doubt", p.in_doubt()));
            }
            if p.engine().active_count() != 0 {
                return Err(format!(
                    "{name}: {} open engine transactions (stuck locks)",
                    p.engine().active_count()
                ));
            }
        }
        let open = sim
            .inspect::<TwoPcCoordinator>(MC_WF_COORD)
            .map(|c| c.open_dtxs())
            .ok_or("cannot inspect coordinator")?;
        if open != 0 {
            return Err(format!("coordinator still tracks {open} transactions"));
        }
        Ok(())
    });
    sc
}
