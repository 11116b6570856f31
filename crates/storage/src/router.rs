//! The shard router: one process fronting a fleet of [`DbServer`] shards.
//!
//! Clients keep speaking the single-server protocol ([`DbMsg`] bare or
//! RPC-enveloped); the router owns a [`ShardMap`] (consistent-hash ring by
//! default) and forwards each request to the shard owning its partition
//! key, then relays the shard's reply back to the original client. The
//! partition key is:
//!
//! - `Call` — the first argument, which must be a [`Value::Str`] holding
//!   the key the procedure touches (the single-partition convention);
//! - `Peek` — the peeked key;
//! - `Scan` / `Load` — fan-out: `Scan` queries every shard and merges,
//!   `Load` splits its pairs by owner and waits for every shard's ack.
//!
//! Interactive transactions (`Begin`/`Read`/`Write`/`Commit`/`Abort`) are
//! rejected: a transaction handle is shard-local state, so cross-shard
//! writes must go through a transactional protocol (2PC via
//! `tca-txn::twopc` with one participant per touched shard, or the
//! deterministic dataflow) rather than an interactive session pinned to
//! one server.
//!
//! Retried RPC calls are forwarded with a *stable* internal call id, so
//! the owning shard's dedup cache replays instead of re-executing — the
//! router adds a hop without weakening exactly-once semantics.

use std::collections::VecDeque;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{Boot, Ctx, NodeId, Payload, Process, ProcessId, ShardMap, Sim};

use crate::proc::ProcRegistry;
use crate::server::{
    take_load_rows, DbMsg, DbReply, DbRequest, DbResponse, DbServer, DbServerConfig,
};
use crate::types::{Key, Value};

/// Ask the router for its shard topology (reply: [`Topology`]).
#[derive(Debug, Clone, Copy)]
pub struct GetTopology;

/// The router's shard topology, for clients that want to talk to shards
/// directly (e.g. a 2PC coordinator enlisting participants).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Shard process ids, indexed by shard number.
    pub shards: Vec<ProcessId>,
}

/// Where a forwarded request's reply must go.
#[derive(Debug, Clone)]
enum Pending {
    /// Single-shard forward: relay the one reply.
    Single {
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
    },
    /// Fan-out (`Load`/`Scan`): collect `outstanding` shard replies, then
    /// answer the client once. `scan` accumulates merged scan results.
    Fanout {
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
        outstanding: usize,
        scan: Option<Vec<(Key, Value)>>,
    },
}

const ROUTER_DEDUP_WINDOW: usize = 65_536;

/// The shard-routing process.
pub struct ShardRouter {
    name: String,
    map: ShardMap,
    shards: Vec<ProcessId>,
    next_internal: u64,
    /// Internal correlation id → where the reply goes. Entries for
    /// RPC-enveloped singles stay until evicted so late client retries
    /// replay through the shard's dedup cache.
    pending: HashMap<u64, Pending>,
    /// (client, client call id) → internal id: keeps the internal id
    /// stable across client retries of the same logical call.
    by_call: HashMap<(ProcessId, u64), u64>,
    eviction: VecDeque<(ProcessId, u64)>,
}

impl ShardRouter {
    /// Build a process factory. `shards` must be indexed consistently
    /// with `map` (shard `i`'s data lives at `shards[i]`).
    pub fn factory(
        name: impl Into<String>,
        map: ShardMap,
        shards: Vec<ProcessId>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        assert_eq!(map.shards(), shards.len(), "map/fleet size mismatch");
        let name = name.into();
        move |_| {
            Box::new(ShardRouter {
                name: name.clone(),
                map: map.clone(),
                shards: shards.clone(),
                next_internal: 0,
                pending: HashMap::default(),
                by_call: HashMap::default(),
                eviction: VecDeque::new(),
            })
        }
    }

    /// The shard fleet (inspect support).
    pub fn shards(&self) -> &[ProcessId] {
        &self.shards
    }

    /// The placement map (inspect support).
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    fn alloc_internal(&mut self) -> u64 {
        self.next_internal += 1;
        self.next_internal
    }

    fn evict_old(&mut self) {
        while self.by_call.len() > ROUTER_DEDUP_WINDOW {
            if let Some(old) = self.eviction.pop_front() {
                if let Some(internal) = self.by_call.remove(&old) {
                    self.pending.remove(&internal);
                }
            } else {
                break;
            }
        }
    }

    /// Answer the client directly (reject / synthesized replies).
    fn respond(
        &self,
        ctx: &mut Ctx,
        client: ProcessId,
        token: u64,
        rpc_call: Option<u64>,
        resp: DbResponse,
    ) {
        let reply = DbReply { token, resp };
        match rpc_call {
            Some(call_id) => ctx.send(
                client,
                Payload::new(RpcReply {
                    call_id,
                    body: Payload::new(reply),
                }),
            ),
            None => ctx.send(client, Payload::new(reply)),
        }
    }

    /// Forward a single-shard request, recording where the reply goes.
    fn forward(
        &mut self,
        ctx: &mut Ctx,
        client: ProcessId,
        msg: &DbMsg,
        rpc_call: Option<u64>,
        shard: usize,
    ) {
        // Stable internal id across retries of the same enveloped call.
        let internal = match rpc_call {
            Some(call_id) => match self.by_call.get(&(client, call_id)) {
                Some(&internal) => internal,
                None => {
                    let internal = self.alloc_internal();
                    self.by_call.insert((client, call_id), internal);
                    self.eviction.push_back((client, call_id));
                    self.evict_old();
                    internal
                }
            },
            None => self.alloc_internal(),
        };
        self.pending.entry(internal).or_insert(Pending::Single {
            client,
            token: msg.token,
            rpc_call,
        });
        ctx.metrics().incr(&format!("{}.forwarded", self.name), 1);
        let target = self.shards[shard];
        match rpc_call {
            Some(_) => ctx.send(
                target,
                Payload::new(RpcRequest {
                    call_id: internal,
                    body: Payload::new(msg.clone()),
                }),
            ),
            None => ctx.send(
                target,
                Payload::new(DbMsg {
                    token: internal,
                    req: msg.req.clone(),
                }),
            ),
        }
    }

    /// Route one client request: a bare or RPC-enveloped [`DbMsg`].
    fn handle_request(&mut self, ctx: &mut Ctx, client: ProcessId, mut payload: Payload) {
        let (msg, rpc_call) = if let Some(req) = payload.downcast_ref::<RpcRequest>() {
            (req.body.expect::<DbMsg>(), Some(req.call_id))
        } else {
            (payload.expect::<DbMsg>(), None)
        };
        let token = msg.token;
        match &msg.req {
            DbRequest::Call { args, .. } => match args.first() {
                Some(Value::Str(key)) => {
                    let shard = self.map.owner(key);
                    self.forward(ctx, client, msg, rpc_call, shard);
                }
                _ => {
                    ctx.metrics().incr(&format!("{}.rejected", self.name), 1);
                    self.respond(
                        ctx,
                        client,
                        msg.token,
                        rpc_call,
                        DbResponse::CallFailed {
                            error: "router: first Call argument must be the \
                                    partition key (a string)"
                                .into(),
                        },
                    );
                }
            },
            DbRequest::Peek { key } => {
                let shard = self.map.owner(key);
                self.forward(ctx, client, msg, rpc_call, shard);
            }
            DbRequest::Scan { prefix } => {
                let internal = self.alloc_internal();
                self.pending.insert(
                    internal,
                    Pending::Fanout {
                        client,
                        token: msg.token,
                        rpc_call,
                        outstanding: self.shards.len(),
                        scan: Some(Vec::new()),
                    },
                );
                ctx.metrics().incr(&format!("{}.fanout", self.name), 1);
                for &shard in &self.shards {
                    ctx.send(
                        shard,
                        Payload::new(DbMsg {
                            token: internal,
                            req: DbRequest::Scan {
                                prefix: prefix.clone(),
                            },
                        }),
                    );
                }
            }
            DbRequest::Load { .. } => {
                let rows = take_load_rows(&mut payload);
                let groups = self.map.split_by_owner(rows, |(k, _)| k.as_str());
                let targets: Vec<(ProcessId, Vec<(Key, Value)>)> = groups
                    .into_iter()
                    .enumerate()
                    .filter(|(_, group)| !group.is_empty())
                    .map(|(shard, group)| (self.shards[shard], group))
                    .collect();
                if targets.is_empty() {
                    // Empty load: nothing to distribute, ack immediately.
                    self.respond(ctx, client, token, rpc_call, DbResponse::Loaded);
                    return;
                }
                let internal = self.alloc_internal();
                self.pending.insert(
                    internal,
                    Pending::Fanout {
                        client,
                        token,
                        rpc_call,
                        outstanding: targets.len(),
                        scan: None,
                    },
                );
                ctx.metrics().incr(&format!("{}.fanout", self.name), 1);
                for (target, group) in targets {
                    ctx.send(
                        target,
                        Payload::new(DbMsg {
                            token: internal,
                            req: DbRequest::Load { pairs: group },
                        }),
                    );
                }
            }
            DbRequest::Begin { .. }
            | DbRequest::Read { .. }
            | DbRequest::Write { .. }
            | DbRequest::Commit { .. }
            | DbRequest::Abort { .. } => {
                ctx.metrics().incr(&format!("{}.rejected", self.name), 1);
                self.respond(
                    ctx,
                    client,
                    msg.token,
                    rpc_call,
                    DbResponse::CallFailed {
                        error: "router: interactive transactions are shard-local; \
                                use 2PC (one participant per shard) for cross-shard \
                                writes"
                            .into(),
                    },
                );
            }
        }
    }

    fn handle_reply(&mut self, ctx: &mut Ctx, internal: u64, resp: DbResponse) {
        let (client, token, rpc_call, drop_entry, final_resp) =
            match self.pending.get_mut(&internal) {
                // Evicted entry or duplicate fan-out straggler.
                None => return,
                Some(Pending::Single {
                    client,
                    token,
                    rpc_call,
                }) => {
                    // Bare requests are never retried through us; drop the
                    // entry. Enveloped entries stay for dedup replays.
                    (*client, *token, *rpc_call, rpc_call.is_none(), resp)
                }
                Some(Pending::Fanout {
                    client,
                    token,
                    rpc_call,
                    outstanding,
                    scan,
                }) => {
                    if let (Some(merged), DbResponse::ScanOk { pairs }) = (scan.as_mut(), &resp) {
                        merged.extend(pairs.iter().cloned());
                    }
                    *outstanding -= 1;
                    if *outstanding > 0 {
                        return;
                    }
                    let final_resp = match scan.take() {
                        Some(mut merged) => {
                            merged.sort_by(|a, b| a.0.cmp(&b.0));
                            DbResponse::ScanOk { pairs: merged }
                        }
                        None => DbResponse::Loaded,
                    };
                    (*client, *token, *rpc_call, true, final_resp)
                }
            };
        if drop_entry {
            self.pending.remove(&internal);
        }
        ctx.metrics().incr(&format!("{}.replies", self.name), 1);
        self.respond(ctx, client, token, rpc_call, final_resp);
    }
}

impl Process for ShardRouter {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        // Shard replies (either shape) come back correlated by the
        // internal id the router assigned on the way out.
        if let Some(reply) = payload.downcast_ref::<RpcReply>() {
            if self.pending.contains_key(&reply.call_id) {
                let inner = reply.body.expect::<DbReply>();
                let resp = inner.resp.clone();
                self.handle_reply(ctx, reply.call_id, resp);
                return;
            }
        }
        if let Some(reply) = payload.downcast_ref::<DbReply>() {
            let (token, resp) = (reply.token, reply.resp.clone());
            self.handle_reply(ctx, token, resp);
            return;
        }
        if payload.downcast_ref::<GetTopology>().is_some() {
            ctx.send(
                from,
                Payload::new(Topology {
                    shards: self.shards.clone(),
                }),
            );
            return;
        }
        self.handle_request(ctx, from, payload);
    }
}

/// Deploy a sharded database: `n` [`DbServer`] shards named
/// `{name}-s{i}` placed round-robin over `nodes`, fronted by a
/// [`ShardRouter`] (consistent-hash ring placement) on the *last* node.
/// Returns `(router, shards)`.
///
/// ```rust
/// use tca_sim::{Payload, Sim};
/// use tca_storage::{
///     deploy_sharded_db, DbMsg, DbRequest, DbServer, DbServerConfig, ProcRegistry, Value,
/// };
///
/// let mut sim = Sim::with_seed(7);
/// let nodes = sim.add_nodes(2);
/// let registry = || {
///     ProcRegistry::new().with("bump", |tx, args| {
///         let key = args[0].as_str().to_owned();
///         let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
///         tx.put(&key, Value::Int(v + 1));
///         Ok(vec![Value::Int(v + 1)])
///     })
/// };
/// let (router, shards) =
///     deploy_sharded_db(&mut sim, &nodes, "kv", DbServerConfig::default(), registry, 4);
///
/// // The router forwards each call to the ring owner of its first argument.
/// for i in 0..16u64 {
///     let req = DbRequest::Call {
///         proc: "bump".into(),
///         args: vec![Value::Str(format!("user{i:03}"))],
///     };
///     sim.inject(router, Payload::new(DbMsg { token: i, req }));
/// }
/// sim.run_to_quiescence(100_000);
///
/// // Every key landed on exactly one shard; together they hold all 16.
/// let held: usize = shards
///     .iter()
///     .filter_map(|&pid| sim.inspect::<DbServer>(pid))
///     .map(|s| (0..16).filter(|i| s.engine().peek(&format!("user{i:03}")).is_some()).count())
///     .sum();
/// assert_eq!(held, 16);
/// ```
pub fn deploy_sharded_db(
    sim: &mut Sim,
    nodes: &[NodeId],
    name: &str,
    config: DbServerConfig,
    registry: impl Fn() -> ProcRegistry,
    n: usize,
) -> (ProcessId, Vec<ProcessId>) {
    assert!(n >= 1 && !nodes.is_empty());
    let mut shards = Vec::with_capacity(n);
    for i in 0..n {
        let node = nodes[i % nodes.len()];
        shards.push(sim.spawn(
            node,
            format!("{name}-s{i}"),
            DbServer::factory(format!("{name}-s{i}"), config.clone(), registry()),
        ));
    }
    let router = sim.spawn(
        *nodes.last().expect("nodes"),
        format!("{name}-router"),
        ShardRouter::factory(format!("{name}-router"), ShardMap::ring(n), shards.clone()),
    );
    (router, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::{ScriptedFate, SimDuration};

    fn kv_registry() -> ProcRegistry {
        ProcRegistry::new()
            .with("kv_rmw", |tx, args| {
                let key = args[0].as_str().to_owned();
                let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
                tx.put(&key, Value::Int(v + 1));
                Ok(vec![Value::Int(v + 1)])
            })
            .with("kv_get", |tx, args| {
                Ok(vec![tx.get(args[0].as_str()).unwrap_or(Value::Null)])
            })
    }

    /// Scripted client: sends requests (bare), records responses.
    struct Script {
        router: ProcessId,
        reqs: Vec<DbRequest>,
        scanned: usize,
    }
    impl Process for Script {
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            for (i, req) in self.reqs.drain(..).enumerate() {
                ctx.send(
                    self.router,
                    Payload::new(DbMsg {
                        token: i as u64,
                        req,
                    }),
                );
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<DbReply>();
            match &reply.resp {
                DbResponse::CallOk { .. } => ctx.metrics().incr("client.call_ok", 1),
                DbResponse::CallFailed { .. } => ctx.metrics().incr("client.call_failed", 1),
                DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                DbResponse::PeekOk {
                    value: Some(Value::Int(v)),
                } => ctx.metrics().incr("client.peek", *v as u64),
                DbResponse::ScanOk { pairs } => self.scanned = pairs.len(),
                _ => {}
            }
        }
    }

    fn world(n: usize) -> (Sim, ProcessId, Vec<ProcessId>) {
        let mut sim = Sim::with_seed(77);
        let nodes: Vec<NodeId> = (0..4).map(|_| sim.add_node()).collect();
        let (router, shards) = deploy_sharded_db(
            &mut sim,
            &nodes,
            "db",
            DbServerConfig::default(),
            kv_registry,
            n,
        );
        (sim, router, shards)
    }

    #[test]
    fn routes_calls_to_owning_shard_and_relays_replies() {
        let (mut sim, router, shards) = world(4);
        let nc = sim.add_node();
        let reqs: Vec<DbRequest> = (0..40)
            .map(|i| DbRequest::Call {
                proc: "kv_rmw".into(),
                args: vec![Value::Str(format!("user{i:08}"))],
            })
            .collect();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: reqs.clone(),
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("client.call_ok"), 40);
        // Every key landed on the shard the ring says owns it.
        let map = ShardMap::ring(4);
        for i in 0..40 {
            let key = format!("user{i:08}");
            let owner = map.owner(&key);
            for (s, &pid) in shards.iter().enumerate() {
                let held = sim
                    .inspect::<DbServer>(pid)
                    .and_then(|db| db.engine().peek(&key));
                if s == owner {
                    assert_eq!(held, Some(Value::Int(1)), "{key} on shard {s}");
                } else {
                    assert_eq!(held, None, "{key} duplicated on shard {s}");
                }
            }
        }
        // With 40 keys over 4 ring shards, more than one shard has data.
        let busy = shards
            .iter()
            .filter(|&&pid| {
                sim.inspect::<DbServer>(pid)
                    .is_some_and(|db| !db.engine().peek_prefix("user").is_empty())
            })
            .count();
        assert!(busy > 1, "keys spread over {busy} shards");
    }

    #[test]
    fn load_splits_by_owner_and_scan_merges() {
        let (mut sim, router, _shards) = world(4);
        let nc = sim.add_node();
        let pairs: Vec<(Key, Value)> = (0..30)
            .map(|i| (format!("user{i:08}"), Value::Int(i)))
            .collect();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: vec![
                    DbRequest::Load {
                        pairs: pairs.clone(),
                    },
                    DbRequest::Scan {
                        prefix: "user".into(),
                    },
                ],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(sim.metrics().counter("client.loaded"), 1);
        // The scan raced the load (both issued at once) so just re-scan.
        let nc2 = sim.add_node();
        let p2 = sim.spawn(nc2, "client2", move |_| {
            Box::new(Script {
                router,
                reqs: vec![DbRequest::Scan {
                    prefix: "user".into(),
                }],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        let scanned = sim.inspect::<Script>(p2).map(|s| s.scanned);
        assert_eq!(scanned, Some(30), "fan-out scan sees every shard's keys");
    }

    #[test]
    fn load_delivered_twice_still_lands_every_row() {
        // Three shards on nodes 0–2, the router on node 3: every hop
        // below crosses the network, so every scripted fate applies.
        let (mut sim, router, shards) = world(3);
        let nc = sim.add_node();
        let router_node = sim.node_of(router);
        // The client's Load reaches the router twice. The first delivery
        // shares its payload with the queued duplicate, so the router
        // must clone the rows; the second owns it and moves them. The
        // first group the router sends each shard is duplicated as well.
        sim.network_mut()
            .script_fate(nc, router_node, 0, ScriptedFate::Duplicate);
        for &shard in &shards {
            let node = sim.node_of(shard);
            sim.network_mut()
                .script_fate(router_node, node, 0, ScriptedFate::Duplicate);
        }
        let pairs: Vec<(Key, Value)> = (0..30)
            .map(|i| (format!("user{i:08}"), Value::Int(i)))
            .collect();
        let rows = pairs.clone();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: vec![DbRequest::Load {
                    pairs: rows.clone(),
                }],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(50));
        let map = ShardMap::ring(3);
        for (key, value) in &pairs {
            let held = sim
                .inspect::<DbServer>(shards[map.owner(key)])
                .and_then(|db| db.engine().peek(key));
            assert_eq!(held.as_ref(), Some(value), "{key}");
        }
        // Each shard saw its group three times (the router fanned out
        // twice, and the network doubled the first fan-out), and every
        // delivery, shared or not, applied the whole group: one
        // timestamp per row per load.
        for (s, &pid) in shards.iter().enumerate() {
            let group = pairs.iter().filter(|(k, _)| map.owner(k) == s).count();
            let clock = sim.inspect::<DbServer>(pid).map(|db| db.engine().clock());
            assert_eq!(clock, Some(3 * group as u64), "shard {s}");
        }
    }

    #[test]
    fn rejects_interactive_and_unkeyed_requests() {
        let (mut sim, router, _shards) = world(2);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| {
            Box::new(Script {
                router,
                reqs: vec![
                    DbRequest::Begin {
                        iso: crate::types::IsolationLevel::Serializable,
                    },
                    DbRequest::Call {
                        proc: "kv_rmw".into(),
                        args: vec![Value::Int(7)],
                    },
                ],
                scanned: 0,
            })
        });
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.metrics().counter("client.call_failed"), 2);
        assert_eq!(sim.metrics().counter("db-router.rejected"), 2);
    }

    /// Enveloped client that retries: the router must keep the internal
    /// call id stable so the shard's dedup replays rather than re-runs.
    struct Enveloped {
        router: ProcessId,
    }
    impl Process for Enveloped {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let msg = || {
                Payload::new(RpcRequest {
                    call_id: 9,
                    body: Payload::new(DbMsg {
                        token: 5,
                        req: DbRequest::Call {
                            proc: "kv_rmw".into(),
                            args: vec![Value::Str("hotkey".into())],
                        },
                    }),
                })
            };
            // Duplicate send at t=0 (a client retry racing the original).
            ctx.send(self.router, msg());
            ctx.send(self.router, msg());
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            if let Some(reply) = payload.downcast_ref::<RpcReply>() {
                assert_eq!(reply.call_id, 9, "reply carries the client's call id");
                let inner = reply.body.expect::<DbReply>();
                assert_eq!(inner.token, 5);
                if let DbResponse::CallOk { results } = &inner.resp {
                    ctx.metrics().incr("client.ok", 1);
                    // Both replies must see the SAME result: executed once.
                    assert_eq!(results[0].as_int(), 1, "deduped, not re-executed");
                }
            }
        }
    }

    #[test]
    fn retries_dedup_through_the_router() {
        let (mut sim, router, _) = world(3);
        let nc = sim.add_node();
        sim.spawn(nc, "client", move |_| Box::new(Enveloped { router }));
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(
            sim.metrics().counter("client.ok"),
            2,
            "both replies relayed"
        );
    }

    #[test]
    fn topology_is_exposed() {
        let (mut sim, router, shards) = world(5);
        struct Asker {
            router: ProcessId,
            expect: Vec<ProcessId>,
        }
        impl Process for Asker {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(self.router, Payload::new(GetTopology));
            }
            fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
                let topo = payload.expect::<Topology>();
                assert_eq!(topo.shards, self.expect);
                ctx.metrics().incr("client.topo", 1);
            }
        }
        let nc = sim.add_node();
        let expect = shards.clone();
        sim.spawn(nc, "asker", move |_| {
            Box::new(Asker {
                router,
                expect: expect.clone(),
            })
        });
        sim.run_for(SimDuration::from_millis(20));
        assert_eq!(sim.metrics().counter("client.topo"), 1);
        // Inspect-side topology agrees too.
        let seen = sim
            .inspect::<ShardRouter>(router)
            .map(|r| r.shards().to_vec());
        assert_eq!(seen, Some(shards));
    }
}
