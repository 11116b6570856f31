//! The four workloads: how each stack is deployed from the layers'
//! public factories, what its client sends, and how its outputs are
//! audited after a run.

use std::rc::Rc;

use tca_sim::{NodeId, Payload, ProcessId, ShardMap, Sim, SimRng};
use tca_storage::{
    AbortReason, DbMsg, DbReply, DbRequest, DbResponse, DbServer, DbServerConfig, Engine,
    ProcRegistry, ShardRouter, Value,
};
use tca_txn::{
    deploy_dataflow, route_branches, CoordinatorConfig, DataflowConfig, DetRegistry, DfShard,
    DtxOutcome, ParticipantConfig, ShardOp, StartDtx, SubmitTxn, TwoPcCoordinator,
    TwoPcParticipant, TxnOutcome,
};
use tca_workloads::loadgen::{KeyChooser, PairChooser};

use crate::client::{BenchClient, Classify, ClientLog, Generator, Request};
use crate::host::{timed, Layer, SharedTrace};

/// Which stack a transaction workload deploys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    ShardedYcsb,
    TwopcTransfer,
    DataflowTransfer,
}

// sharded-ycsb
pub const YCSB_ROWS: usize = 500_000;
pub const YCSB_SHARDS: usize = 16;
pub const YCSB_NODES: usize = 8;
pub const YCSB_CLIENTS: usize = 128;
pub const YCSB_READ_SHARE: f64 = 0.95;
pub const YCSB_THETA: f64 = 0.99;
const YCSB_LOAD_CHUNK: usize = 20_000;
const YCSB_DB: &str = "ycsb";

// twopc-transfer and dataflow-transfer
pub const ACCOUNTS: usize = 4_096;
pub const TRANSFER_SHARDS: usize = 8;
pub const TRANSFER_CLIENTS: usize = 32;
pub const TRANSFER_THETA: f64 = 0.8;
/// Opening balance of every account: large enough that no debit of
/// `AMOUNT` is ever refused, so every abort is a concurrency abort.
pub const START_BALANCE: i64 = 1_000_000;
pub const AMOUNT: i64 = 1;

impl Stack {
    pub const ALL: [Stack; 3] = [
        Stack::ShardedYcsb,
        Stack::TwopcTransfer,
        Stack::DataflowTransfer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stack::ShardedYcsb => "sharded-ycsb",
            Stack::TwopcTransfer => "twopc-transfer",
            Stack::DataflowTransfer => "dataflow-transfer",
        }
    }

    /// Transactions per run: `(warm-up, measured)`. Both are fixed, so a
    /// seed fixes the whole schedule; host throughput is timed over the
    /// measured part only.
    pub fn size(self) -> (u64, u64) {
        match self {
            Stack::ShardedYcsb => (8_000, 80_000),
            Stack::TwopcTransfer => (4_000, 40_000),
            // Host cost per transaction climbs over the first ~10k
            // transactions of a dataflow run; timing starts after them.
            Stack::DataflowTransfer => (10_000, 20_000),
        }
    }
}

/// A deployed transaction workload, ready to run.
pub struct TxnWorld {
    pub stack: Stack,
    pub sim: Sim,
    pub log: Rc<ClientLog>,
    /// Server-side processes the audit reads: DbServer shards,
    /// 2PC participants or dataflow shards.
    pub servers: Vec<ProcessId>,
}

pub fn account(i: usize) -> String {
    format!("acct{i:05}")
}

fn ycsb_key(i: usize) -> String {
    format!("user{i:08}")
}

/// A deployed stack before its client is spawned: where the client
/// lives, whom it calls, what it sends and how it reads the answers.
struct Deployed {
    sim: Sim,
    load_node: NodeId,
    target: ProcessId,
    next: Generator,
    classify: Classify,
    servers: Vec<ProcessId>,
}

/// Deploy `stack` for `seed` and spawn its client. With `trace`, every
/// process the benchmark spawns is wrapped by the host timer.
pub fn deploy(stack: Stack, seed: u64, trace: Option<&SharedTrace>) -> TxnWorld {
    let (d, clients) = match stack {
        Stack::ShardedYcsb => (deploy_sharded_ycsb(seed, trace), YCSB_CLIENTS),
        Stack::TwopcTransfer => (deploy_twopc(seed, trace), TRANSFER_CLIENTS),
        Stack::DataflowTransfer => (deploy_dataflow_transfer(seed), TRANSFER_CLIENTS),
    };
    let Deployed {
        mut sim,
        load_node,
        target,
        next,
        classify,
        servers,
    } = d;
    let log = Rc::new(ClientLog::default());
    let (warm, measured) = stack.size();
    let factory = BenchClient::factory(
        target,
        next,
        classify,
        seed,
        clients,
        warm + measured,
        Rc::clone(&log),
    );
    sim.spawn(
        load_node,
        "bench-client",
        timed(Layer::Client, trace, factory),
    );
    TxnWorld {
        stack,
        sim,
        log,
        servers,
    }
}

/// 16 `DbServer` shards round-robin over 8 nodes behind a `ShardRouter`,
/// spawned from the same factories in the same order as
/// `deploy_sharded_db`, preloaded with `YCSB_ROWS` zero-valued rows.
fn deploy_sharded_ycsb(seed: u64, trace: Option<&SharedTrace>) -> Deployed {
    let mut sim = Sim::with_seed(seed);
    let nodes = sim.add_nodes(YCSB_NODES);
    let load_node = sim.add_node();
    let shards: Vec<ProcessId> = (0..YCSB_SHARDS)
        .map(|i| {
            let name = format!("{YCSB_DB}-s{i}");
            let factory = DbServer::factory(
                name.clone(),
                DbServerConfig::default(),
                tca_workloads::ycsb::registry(),
            );
            sim.spawn(
                nodes[i % nodes.len()],
                name,
                timed(Layer::StorageServer, trace, factory),
            )
        })
        .collect();
    let router = sim.spawn(
        *nodes.last().expect("nodes"),
        format!("{YCSB_DB}-router"),
        timed(
            Layer::StorageRouter,
            trace,
            ShardRouter::factory(
                format!("{YCSB_DB}-router"),
                ShardMap::ring(YCSB_SHARDS),
                shards.clone(),
            ),
        ),
    );
    for (token, start) in (0..YCSB_ROWS).step_by(YCSB_LOAD_CHUNK).enumerate() {
        let pairs = (start..(start + YCSB_LOAD_CHUNK).min(YCSB_ROWS))
            .map(|i| (ycsb_key(i), Value::Int(0)))
            .collect();
        let req = DbRequest::Load { pairs };
        sim.inject(
            router,
            Payload::new(DbMsg {
                token: token as u64,
                req,
            }),
        );
    }
    sim.run_to_quiescence(10_000_000);
    let keys = KeyChooser::zipfian(YCSB_ROWS, YCSB_THETA);
    let next: Generator = Box::new(move |rng: &mut SimRng| {
        let key = Value::Str(ycsb_key(keys.pick(rng)));
        let write = !rng.chance(YCSB_READ_SHARE);
        let proc = if write { "ycsb_rmw" } else { "ycsb_read" };
        let req = DbRequest::Call {
            proc: proc.into(),
            args: vec![key],
        };
        Request {
            body: Payload::new(DbMsg { token: 0, req }),
            write,
        }
    });
    let classify: Classify = |body: &Payload| {
        body.downcast_ref::<DbReply>()
            .is_some_and(|r| matches!(r.resp, DbResponse::CallOk { .. }))
    };
    Deployed {
        sim,
        load_node,
        target: router,
        next,
        classify,
        servers: shards,
    }
}

fn transfer_pairs() -> PairChooser {
    PairChooser::zipfian(ACCOUNTS, TRANSFER_THETA)
}

/// Debit/credit procedures for the 2PC participants.
fn bank_registry() -> ProcRegistry {
    ProcRegistry::new()
        .with("debit", |tx, args| {
            let key = args[0].as_str().to_owned();
            let balance = tx.get(&key).map_or(START_BALANCE, |v| v.as_int());
            if balance < args[1].as_int() {
                return Err("insufficient".into());
            }
            tx.put(&key, Value::Int(balance - args[1].as_int()));
            Ok(vec![])
        })
        .with("credit", |tx, args| {
            let key = args[0].as_str().to_owned();
            let balance = tx.get(&key).map_or(START_BALANCE, |v| v.as_int());
            tx.put(&key, Value::Int(balance + args[1].as_int()));
            Ok(vec![])
        })
}

/// 8 `TwoPcParticipant`s (each seeded with the accounts its ring arc
/// owns) and one `TwoPcCoordinator`; transfers are routed to branches by
/// `route_branches`.
fn deploy_twopc(seed: u64, trace: Option<&SharedTrace>) -> Deployed {
    let mut sim = Sim::with_seed(seed);
    let nodes = sim.add_nodes(TRANSFER_SHARDS);
    let coord_node = sim.add_node();
    let load_node = sim.add_node();
    let map = ShardMap::ring(TRANSFER_SHARDS);
    let mut owned: Vec<Vec<(String, Value)>> = vec![Vec::new(); TRANSFER_SHARDS];
    for i in 0..ACCOUNTS {
        owned[map.owner(&account(i))].push((account(i), Value::Int(START_BALANCE)));
    }
    let participants: Vec<ProcessId> = owned
        .into_iter()
        .enumerate()
        .map(|(i, rows)| {
            let name = format!("p{i}");
            let factory = TwoPcParticipant::factory_seeded(
                name.clone(),
                ParticipantConfig::default(),
                bank_registry(),
                rows,
            );
            sim.spawn(
                nodes[i],
                name,
                timed(Layer::TwopcParticipant, trace, factory),
            )
        })
        .collect();
    let coordinator = sim.spawn(
        coord_node,
        "coord",
        timed(
            Layer::TwopcCoordinator,
            trace,
            TwoPcCoordinator::factory_with(CoordinatorConfig::default()),
        ),
    );
    let pairs = transfer_pairs();
    let fleet = participants.clone();
    let next: Generator = Box::new(move |rng: &mut SimRng| {
        let (from, to) = pairs.pick(rng);
        let (from, to) = (account(from), account(to));
        let ops: Vec<ShardOp> = vec![
            (
                from.clone(),
                "debit".into(),
                vec![Value::Str(from), Value::Int(AMOUNT)],
            ),
            (
                to.clone(),
                "credit".into(),
                vec![Value::Str(to), Value::Int(AMOUNT)],
            ),
        ];
        Request {
            body: Payload::new(StartDtx {
                branches: route_branches(&map, &fleet, &ops),
            }),
            write: true,
        }
    });
    let classify: Classify = |body: &Payload| {
        body.downcast_ref::<DtxOutcome>()
            .is_some_and(|o| o.committed)
    };
    Deployed {
        sim,
        load_node,
        target: coordinator,
        next,
        classify,
        servers: participants,
    }
}

/// The same transfer, as a deterministic procedure over declared reads.
fn transfer_registry() -> DetRegistry {
    DetRegistry::new().with("transfer", |args, reads| {
        let balance = |key: &str| match reads.get(key) {
            Some(Value::Int(v)) => *v,
            _ => START_BALANCE,
        };
        let (from, to, amount) = (args[0].as_str(), args[1].as_str(), args[2].as_int());
        if balance(from) < amount {
            return Err("insufficient".into());
        }
        Ok(vec![
            (from.to_owned(), Value::Int(balance(from) - amount)),
            (to.to_owned(), Value::Int(balance(to) + amount)),
        ])
    })
}

/// `deploy_dataflow` with 8 shards and the default 500 µs epochs; the
/// engine's processes are spawned by the library, so only the client is
/// timed.
fn deploy_dataflow_transfer(seed: u64) -> Deployed {
    let mut sim = Sim::with_seed(seed);
    let shard_nodes = sim.add_nodes(TRANSFER_SHARDS);
    let seq_node = sim.add_node();
    let load_node = sim.add_node();
    let (sequencer, shards) = deploy_dataflow(
        &mut sim,
        seq_node,
        &shard_nodes,
        &transfer_registry(),
        TRANSFER_SHARDS,
        DataflowConfig::default(),
    );
    let pairs = transfer_pairs();
    let next: Generator = Box::new(move |rng: &mut SimRng| {
        let (from, to) = pairs.pick(rng);
        let (from, to) = (account(from), account(to));
        Request {
            body: Payload::new(SubmitTxn {
                proc: "transfer".into(),
                args: vec![
                    Value::Str(from.clone()),
                    Value::Str(to.clone()),
                    Value::Int(AMOUNT),
                ],
                read_keys: vec![from, to],
            }),
            write: true,
        }
    });
    let classify: Classify = |body: &Payload| {
        body.downcast_ref::<TxnOutcome>()
            .is_some_and(|o| o.result.is_ok())
    };
    Deployed {
        sim,
        load_node,
        target: sequencer,
        next,
        classify,
        servers: shards,
    }
}

fn engines(world: &TxnWorld) -> Vec<&Engine> {
    world
        .servers
        .iter()
        .filter_map(|&pid| match world.stack {
            Stack::ShardedYcsb => world.sim.inspect::<DbServer>(pid).map(DbServer::engine),
            Stack::TwopcTransfer => world
                .sim
                .inspect::<TwoPcParticipant>(pid)
                .map(TwoPcParticipant::engine),
            Stack::DataflowTransfer => None,
        })
        .collect()
}

/// Storage-engine counters after a run: (max live rows per shard,
/// commits, aborts). Zero on the dataflow stack, which has no engine.
pub fn engine_counts(world: &TxnWorld) -> (u64, u64, u64) {
    let reasons = [
        AbortReason::Deadlock,
        AbortReason::WriteConflict,
        AbortReason::Requested,
        AbortReason::LogicFailure,
    ];
    engines(world)
        .iter()
        .fold((0, 0, 0), |(rows, commits, aborts), e| {
            (
                rows.max(e.peek_prefix("").len() as u64),
                commits + e.commit_count(),
                aborts + reasons.iter().map(|&r| e.abort_count(r)).sum::<u64>(),
            )
        })
}

/// Audit the stack's final state against what the client saw.
pub fn audit(world: &TxnWorld) -> Result<(), String> {
    let data = world.log.data.borrow();
    let (warm, measured) = world.stack.size();
    let outcomes = data.committed + data.aborted + data.failed;
    if data.issued != warm + measured || outcomes != world.log.finished.get() {
        return Err(format!(
            "client issued {} and saw {outcomes} outcomes for {} finished transactions",
            data.issued,
            world.log.finished.get()
        ));
    }
    match world.stack {
        Stack::ShardedYcsb => {
            let map = ShardMap::ring(YCSB_SHARDS);
            let mut rows = 0usize;
            let mut sum = 0i64;
            for (shard, engine) in engines(world).iter().enumerate() {
                for (key, value) in engine.peek_prefix("user") {
                    if map.owner(&key) != shard {
                        return Err(format!(
                            "row {key} found on shard {shard}, not its ring owner"
                        ));
                    }
                    rows += 1;
                    sum += value.as_int();
                }
            }
            if engines(world).len() != YCSB_SHARDS || rows != YCSB_ROWS {
                return Err(format!("{rows} rows on the fleet, expected {YCSB_ROWS}"));
            }
            if sum != data.committed_writes as i64 {
                return Err(format!(
                    "row values sum to {sum}, but {} ycsb_rmw calls committed",
                    data.committed_writes
                ));
            }
        }
        Stack::TwopcTransfer | Stack::DataflowTransfer => {
            let map = ShardMap::ring(TRANSFER_SHARDS);
            let mut total = 0i64;
            for i in 0..ACCOUNTS {
                let key = account(i);
                let owner = world.servers[map.owner(&key)];
                let balance = if world.stack == Stack::TwopcTransfer {
                    let p = world.sim.inspect::<TwoPcParticipant>(owner);
                    p.and_then(|p| p.engine().peek(&key)).map(|v| v.as_int())
                } else {
                    let s = world.sim.inspect::<DfShard>(owner);
                    s.map(|s| s.peek(&key).map_or(START_BALANCE, Value::as_int))
                };
                total += balance.ok_or_else(|| format!("no balance readable for {key}"))?;
            }
            let expected = ACCOUNTS as i64 * START_BALANCE;
            if total != expected {
                return Err(format!("balances sum to {total}, expected {expected}"));
            }
        }
    }
    Ok(())
}

pub fn ycsb_shard_names(suffix: &'static str) -> impl Iterator<Item = String> {
    (0..YCSB_SHARDS).map(move |i| format!("{YCSB_DB}-s{i}.{suffix}"))
}

pub fn participant_names(suffix: &'static str) -> impl Iterator<Item = String> {
    (0..TRANSFER_SHARDS).map(move |i| format!("p{i}.{suffix}"))
}
