//! The database server process: the "data tier" on a simulated node.
//!
//! Clients send [`DbMsg`] requests carrying a correlation token; the server
//! answers with [`DbReply`]. Interactive transactions use `Begin` / `Read`
//! / `Write` / `Commit` / `Abort`; stored procedures run in one round trip
//! via `Call`. Operations blocked on a lock park at the server and the
//! client's reply is delayed until the blocker finishes — the realistic
//! shape of a lock wait, and the mechanism behind every "blocking protocol"
//! result in the experiments.
//!
//! Durability: the WAL and checkpoint cell live in the node's durable
//! [`tca_sim::Disk`]; on restart the factory rebuilds the engine via
//! [`Engine::recover`]. Fsync and read service times are charged on the
//! reply path.

use std::collections::VecDeque;
use std::rc::Rc;
use tca_sim::DetHashMap as HashMap;

use tca_sim::wire::{RpcReply, RpcRequest};
use tca_sim::{Boot, Ctx, Payload, Process, ProcessId, SimDuration, SpanId, SpanKind};

use crate::engine::{CommitResult, Engine, EngineConfig, OpResult};
use crate::proc::{run_proc, ProcOutcome, ProcRegistry};
use crate::types::{AbortReason, IsolationLevel, Key, Timestamp, TxId, Value};
use crate::wal::{DurableCell, DurableLog};

/// A client request to the database server.
#[derive(Debug, Clone)]
pub enum DbRequest {
    /// Start a transaction.
    Begin {
        /// Isolation level for the new transaction.
        iso: IsolationLevel,
    },
    /// Transactional read.
    Read {
        /// Transaction handle from `Began`.
        tx: TxId,
        /// Key to read.
        key: Key,
    },
    /// Transactional write (`None` deletes).
    Write {
        /// Transaction handle.
        tx: TxId,
        /// Key to write.
        key: Key,
        /// New value, `None` to delete.
        value: Option<Value>,
    },
    /// Commit the transaction.
    Commit {
        /// Transaction handle.
        tx: TxId,
    },
    /// Abort the transaction.
    Abort {
        /// Transaction handle.
        tx: TxId,
    },
    /// Invoke a stored procedure in its own serializable transaction.
    Call {
        /// Registered procedure name.
        proc: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Non-transactional read of the latest committed value (audits).
    Peek {
        /// Key to peek.
        key: Key,
    },
    /// Non-transactional prefix scan of latest committed values
    /// (outbox relays, audits).
    Scan {
        /// Key prefix to scan.
        prefix: String,
    },
    /// Bulk-load initial data (setup only).
    Load {
        /// Key/value pairs to install.
        pairs: Vec<(Key, Value)>,
    },
}

/// Envelope: request plus client-chosen correlation token.
#[derive(Debug, Clone)]
pub struct DbMsg {
    /// Echoed back in the reply so clients can match responses.
    pub token: u64,
    /// The request.
    pub req: DbRequest,
}

/// Server response body.
#[derive(Debug, Clone, PartialEq)]
pub enum DbResponse {
    /// Transaction started.
    Began {
        /// The new transaction's handle.
        tx: TxId,
    },
    /// Read result (`None` = absent).
    ReadOk {
        /// The value read.
        value: Option<Value>,
    },
    /// Write buffered.
    WriteOk,
    /// Commit succeeded at this timestamp.
    Committed {
        /// Commit timestamp.
        ts: Timestamp,
    },
    /// The transaction aborted.
    Aborted {
        /// Why.
        reason: AbortReason,
    },
    /// Stored procedure committed with these results.
    CallOk {
        /// Procedure results.
        results: Vec<Value>,
    },
    /// Stored procedure failed its own logic and rolled back.
    CallFailed {
        /// The procedure's error message.
        error: String,
    },
    /// Non-transactional peek result.
    PeekOk {
        /// The latest committed value.
        value: Option<Value>,
    },
    /// Prefix scan result.
    ScanOk {
        /// Matching key/value pairs in key order.
        pairs: Vec<(Key, Value)>,
    },
    /// Bulk load complete.
    Loaded,
    /// Admission control rejected the request: the server's queue was too
    /// deep (or the request could no longer make its deadline). Sent
    /// immediately, bypassing the service queue — shedding must be cheap.
    Overloaded,
}

/// Envelope: response plus the request's correlation token.
#[derive(Debug, Clone)]
pub struct DbReply {
    /// The request's token.
    pub token: u64,
    /// The response body.
    pub resp: DbResponse,
}

/// Service-time model for the server.
#[derive(Debug, Clone)]
pub struct DbServerConfig {
    /// Latency charged on read replies.
    pub read_latency: SimDuration,
    /// Latency charged on write replies (buffering only).
    pub write_latency: SimDuration,
    /// Latency charged on commit replies (fsync of the WAL record).
    pub commit_latency: SimDuration,
    /// Delay before retrying a stored procedure that hit a lock conflict.
    pub call_retry_delay: SimDuration,
    /// How many times to retry a conflicted stored procedure before
    /// giving up with `Aborted`.
    pub call_max_retries: u32,
    /// Admission control: reject new requests whose expected queue wait
    /// (time until the server frees up) exceeds this bound, answering
    /// [`DbResponse::Overloaded`] immediately instead of queueing.
    /// `None` (the default) admits everything — the legacy behaviour.
    /// Independently of this knob, requests arriving with an already
    /// expired deadline, or a deadline the expected wait makes unmeetable,
    /// are dropped/shed: serving them is guaranteed-wasted capacity.
    pub max_queue_wait: Option<SimDuration>,
    /// Engine tuning.
    pub engine: EngineConfig,
}

impl Default for DbServerConfig {
    fn default() -> Self {
        DbServerConfig {
            read_latency: SimDuration::from_micros(20),
            write_latency: SimDuration::from_micros(20),
            commit_latency: SimDuration::from_micros(100),
            call_retry_delay: SimDuration::from_micros(200),
            call_max_retries: 32,
            max_queue_wait: None,
            engine: EngineConfig::default(),
        }
    }
}

const RETRY_TIMER_TAG: u64 = 0x00db_0001;

/// Where (and how) to send a reply: bare [`DbReply`] or wrapped in an
/// [`RpcReply`] when the request arrived through the RPC layer.
#[derive(Debug, Clone, Copy)]
struct ReturnAddr {
    client: ProcessId,
    token: u64,
    rpc_call: Option<u64>,
    /// Lock-wait span opened when the request parked; the reply path
    /// closes it and parents the response hop under it.
    span: Option<SpanId>,
}

struct ParkedCall {
    addr: ReturnAddr,
    proc: String,
    args: Vec<Value>,
    attempts: u32,
}

/// The database server process.
pub struct DbServer {
    config: DbServerConfig,
    engine: Engine,
    registry: Rc<ProcRegistry>,
    /// Who waits for each parked (lock-blocked) interactive operation.
    parked: HashMap<TxId, ReturnAddr>,
    /// Stored-procedure calls waiting to retry after a lock conflict.
    retry_queue: VecDeque<ParkedCall>,
    retry_timer_armed: bool,
    /// Dedup cache for RPC-enveloped requests: retried calls must not
    /// re-execute (`None` = executing, reply not yet produced).
    dedup: HashMap<(ProcessId, u64), Option<DbResponse>>,
    /// Single-server queueing model: the instant the server frees up.
    /// Each reply occupies the server for its service time, so offered
    /// load beyond capacity queues — making saturation observable.
    busy_until: tca_sim::SimTime,
    dedup_order: VecDeque<(ProcessId, u64)>,
    /// Metrics key prefix, e.g. `"db0"`.
    name: String,
}

const DEDUP_WINDOW: usize = 65_536;

impl DbServer {
    /// Build a process factory for spawning this server on a node.
    ///
    /// `name` prefixes the server's metrics (`"<name>.commits"` etc.).
    pub fn factory(
        name: impl Into<String>,
        config: DbServerConfig,
        registry: ProcRegistry,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let name = name.into();
        let registry = Rc::new(registry);
        move |boot| {
            let wal: DurableLog<crate::wal::WalRecord> =
                boot.disk.get("wal").unwrap_or_else(|| {
                    let log = DurableLog::new();
                    boot.disk.put("wal", log.clone());
                    log
                });
            let checkpoint: DurableCell<
                crate::wal::Checkpoint<std::collections::BTreeMap<Key, Value>>,
            > = boot.disk.get("checkpoint").unwrap_or_else(|| {
                let cell = DurableCell::new();
                boot.disk.put("checkpoint", cell.clone());
                cell
            });
            let engine = if boot.restart {
                Engine::recover(config.engine.clone(), wal, checkpoint)
            } else {
                Engine::new(config.engine.clone(), wal, checkpoint)
            };
            Box::new(DbServer {
                config: config.clone(),
                engine,
                registry: Rc::clone(&registry),
                parked: HashMap::default(),
                retry_queue: VecDeque::new(),
                retry_timer_armed: false,
                dedup: HashMap::default(),
                dedup_order: VecDeque::new(),
                busy_until: tca_sim::SimTime::ZERO,
                name: name.clone(),
            })
        }
    }

    fn reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr, resp: DbResponse, lat: SimDuration) {
        // M/D/1-style service: this request occupies the server for `lat`
        // starting when the server frees up.
        let start = self.busy_until.max(ctx.now());
        let depart = start + lat;
        self.busy_until = depart;
        let lat = depart.since(ctx.now());
        // Attribute the reply (and any queueing) to the request's lock-wait
        // span when it parked; otherwise to the current handler span.
        ctx.trace_enter(addr.span);
        if start > ctx.now() {
            ctx.trace_interval(SpanKind::QueueWait, start, || "queued".into());
        }
        if let Some(call_id) = addr.rpc_call {
            // Cache for duplicate retries of the same logical call.
            self.dedup
                .insert((addr.client, call_id), Some(resp.clone()));
            let inner = Payload::new(DbReply {
                token: addr.token,
                resp,
            });
            ctx.send_after(
                addr.client,
                Payload::new(RpcReply {
                    call_id,
                    body: inner,
                }),
                lat,
            );
        } else {
            ctx.send_after(
                addr.client,
                Payload::new(DbReply {
                    token: addr.token,
                    resp,
                }),
                lat,
            );
        }
        ctx.trace_exit(addr.span);
        ctx.trace_span_end(addr.span);
    }

    /// Answer `Overloaded` immediately, bypassing the service queue:
    /// rejections must cost ~nothing or shedding cannot relieve overload.
    fn shed_reply(&mut self, ctx: &mut Ctx, addr: ReturnAddr) {
        let resp = DbResponse::Overloaded;
        if let Some(call_id) = addr.rpc_call {
            // Overwrite the just-inserted `None` dedup entry so duplicate
            // retries replay the rejection instead of waiting forever.
            self.dedup
                .insert((addr.client, call_id), Some(resp.clone()));
            let inner = Payload::new(DbReply {
                token: addr.token,
                resp,
            });
            ctx.send(
                addr.client,
                Payload::new(RpcReply {
                    call_id,
                    body: inner,
                }),
            );
        } else {
            ctx.send(
                addr.client,
                Payload::new(DbReply {
                    token: addr.token,
                    resp,
                }),
            );
        }
    }

    /// Admission control. Returns `true` when the request was shed (or
    /// silently dropped) and must not execute.
    fn admission_shed(&mut self, ctx: &mut Ctx, addr: ReturnAddr) -> bool {
        let wait = self.busy_until.since(ctx.now());
        // Already-expired work is dropped without even a rejection: the
        // requester's deadline has passed, so any reply is wasted wire.
        if ctx.deadline_expired() {
            ctx.metrics().incr("server.expired", 1);
            ctx.metrics().incr(&format!("{}.expired", self.name), 1);
            ctx.trace_event(|| "dropped: deadline expired on arrival".into());
            // Leave no executing marker behind; a duplicate should be
            // re-evaluated (the queue may have drained by then).
            if let Some(call_id) = addr.rpc_call {
                self.dedup.remove(&(addr.client, call_id));
            }
            return true;
        }
        // Expected-wait shedding: against the configured queue bound, and
        // against the request's own deadline when it carries one.
        let over_queue = self.config.max_queue_wait.is_some_and(|max| wait > max);
        let misses_deadline = ctx
            .deadline_remaining()
            .is_some_and(|remaining| wait > remaining);
        if over_queue || misses_deadline {
            ctx.metrics().incr("server.shed", 1);
            ctx.metrics().incr(&format!("{}.shed", self.name), 1);
            ctx.trace_event(|| format!("shed: expected wait {}ns", wait.as_nanos()));
            self.shed_reply(ctx, addr);
            return true;
        }
        false
    }

    fn deliver_resumptions(&mut self, ctx: &mut Ctx, resumed: Vec<crate::engine::Resumption>) {
        for r in resumed {
            let Some(addr) = self.parked.remove(&r.tx) else {
                continue;
            };
            let resp = match r.result {
                OpResult::Read(value) => DbResponse::ReadOk { value },
                OpResult::Written => DbResponse::WriteOk,
                OpResult::Aborted(reason) => DbResponse::Aborted { reason },
                OpResult::Blocked => {
                    // Still blocked (re-parked); keep waiting.
                    self.parked.insert(r.tx, addr);
                    continue;
                }
            };
            self.reply(ctx, addr, resp, self.config.read_latency);
        }
        // Lock releases may also unblock stored-procedure retries.
        self.kick_retry_timer(ctx);
    }

    fn kick_retry_timer(&mut self, ctx: &mut Ctx) {
        if !self.retry_queue.is_empty() && !self.retry_timer_armed {
            ctx.set_timer(self.config.call_retry_delay, RETRY_TIMER_TAG);
            self.retry_timer_armed = true;
        }
    }

    fn handle_call(
        &mut self,
        ctx: &mut Ctx,
        addr: ReturnAddr,
        proc: &str,
        args: &[Value],
        attempts: u32,
    ) {
        match run_proc(&mut self.engine, &self.registry, proc, args) {
            ProcOutcome::Done(results) => {
                ctx.metrics().incr(&format!("{}.calls_ok", self.name), 1);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::CallOk { results },
                    self.config.commit_latency,
                );
            }
            ProcOutcome::Failed(error) => {
                ctx.metrics()
                    .incr(&format!("{}.calls_failed", self.name), 1);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::CallFailed { error },
                    self.config.read_latency,
                );
            }
            ProcOutcome::Retry | ProcOutcome::Aborted(AbortReason::Deadlock)
                if attempts < self.config.call_max_retries =>
            {
                ctx.metrics()
                    .incr(&format!("{}.call_retries", self.name), 1);
                // First conflict opens the lock-wait span; later retries of
                // the same call keep it until the final reply closes it.
                let span = addr
                    .span
                    .or_else(|| ctx.trace_span(SpanKind::LockWait, || format!("conflict {proc}")));
                self.retry_queue.push_back(ParkedCall {
                    addr: ReturnAddr { span, ..addr },
                    proc: proc.to_owned(),
                    args: args.to_vec(),
                    attempts: attempts + 1,
                });
                self.kick_retry_timer(ctx);
            }
            ProcOutcome::Retry => {
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Aborted {
                        reason: AbortReason::Deadlock,
                    },
                    self.config.read_latency,
                );
            }
            ProcOutcome::Aborted(reason) => {
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Aborted { reason },
                    self.config.read_latency,
                );
            }
        }
    }

    /// Direct engine access for in-process audits (test support).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Shared engine access for harness-side audits (via `Sim::inspect`).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Process for DbServer {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, mut payload: Payload) {
        // Accept both bare DbMsg and RPC-enveloped DbMsg. Enveloped
        // requests carry an idempotency key (the call id): duplicates are
        // answered from cache rather than re-executed.
        let (msg, rpc_call) = if let Some(req) = payload.downcast_ref::<RpcRequest>() {
            (req.body.expect::<DbMsg>(), Some(req.call_id))
        } else {
            (payload.expect::<DbMsg>(), None)
        };
        if let Some(call_id) = rpc_call {
            match self.dedup.get(&(from, call_id)) {
                Some(Some(cached)) => {
                    ctx.metrics().incr(&format!("{}.deduped", self.name), 1);
                    let resp = cached.clone();
                    let addr = ReturnAddr {
                        client: from,
                        token: msg.token,
                        rpc_call,
                        span: None,
                    };
                    self.reply(ctx, addr, resp, self.config.read_latency);
                    return;
                }
                Some(None) => {
                    // Original still executing (e.g. parked on a lock);
                    // drop the duplicate — the eventual reply covers it.
                    ctx.metrics().incr(&format!("{}.deduped", self.name), 1);
                    return;
                }
                None => {
                    self.dedup.insert((from, call_id), None);
                    self.dedup_order.push_back((from, call_id));
                    while self.dedup.len() > DEDUP_WINDOW {
                        if let Some(old) = self.dedup_order.pop_front() {
                            self.dedup.remove(&old);
                        }
                    }
                }
            }
        }
        let addr = ReturnAddr {
            client: from,
            token: msg.token,
            rpc_call,
            span: None,
        };
        if self.admission_shed(ctx, addr) {
            return;
        }
        match &msg.req {
            DbRequest::Begin { iso } => {
                let tx = self.engine.begin(*iso);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Began { tx },
                    self.config.read_latency,
                );
            }
            DbRequest::Read { tx, key } => {
                let (result, resumed) = self.engine.read(*tx, key);
                match result {
                    OpResult::Read(value) => {
                        self.reply(
                            ctx,
                            addr,
                            DbResponse::ReadOk { value },
                            self.config.read_latency,
                        );
                    }
                    OpResult::Blocked => {
                        ctx.metrics().incr(&format!("{}.lock_waits", self.name), 1);
                        let span = ctx.trace_span(SpanKind::LockWait, || format!("lock {key}"));
                        self.parked.insert(*tx, ReturnAddr { span, ..addr });
                    }
                    OpResult::Aborted(reason) => {
                        self.reply(
                            ctx,
                            addr,
                            DbResponse::Aborted { reason },
                            self.config.read_latency,
                        );
                    }
                    OpResult::Written => unreachable!(),
                }
                self.deliver_resumptions(ctx, resumed);
            }
            DbRequest::Write { tx, key, value } => {
                let (result, resumed) = self.engine.write(*tx, key, value.clone());
                match result {
                    OpResult::Written => {
                        self.reply(ctx, addr, DbResponse::WriteOk, self.config.write_latency);
                    }
                    OpResult::Blocked => {
                        ctx.metrics().incr(&format!("{}.lock_waits", self.name), 1);
                        let span = ctx.trace_span(SpanKind::LockWait, || format!("lock {key}"));
                        self.parked.insert(*tx, ReturnAddr { span, ..addr });
                    }
                    OpResult::Aborted(reason) => {
                        self.reply(
                            ctx,
                            addr,
                            DbResponse::Aborted { reason },
                            self.config.read_latency,
                        );
                    }
                    OpResult::Read(_) => unreachable!(),
                }
                self.deliver_resumptions(ctx, resumed);
            }
            DbRequest::Commit { tx } => {
                let (result, resumed) = self.engine.commit(*tx);
                let resp = match result {
                    CommitResult::Committed(ts) => {
                        ctx.metrics().incr(&format!("{}.commits", self.name), 1);
                        DbResponse::Committed { ts }
                    }
                    CommitResult::Aborted(reason) => {
                        ctx.metrics().incr(&format!("{}.aborts", self.name), 1);
                        DbResponse::Aborted { reason }
                    }
                };
                self.reply(ctx, addr, resp, self.config.commit_latency);
                self.deliver_resumptions(ctx, resumed);
            }
            DbRequest::Abort { tx } => {
                let resumed = self.engine.abort(*tx);
                ctx.metrics().incr(&format!("{}.aborts", self.name), 1);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::Aborted {
                        reason: AbortReason::Requested,
                    },
                    self.config.write_latency,
                );
                self.deliver_resumptions(ctx, resumed);
            }
            DbRequest::Call { proc, args } => {
                self.handle_call(ctx, addr, proc, args, 0);
            }
            DbRequest::Peek { key } => {
                let value = self.engine.peek(key);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::PeekOk { value },
                    self.config.read_latency,
                );
            }
            DbRequest::Scan { prefix } => {
                let pairs = self.engine.peek_prefix(prefix);
                self.reply(
                    ctx,
                    addr,
                    DbResponse::ScanOk { pairs },
                    self.config.read_latency,
                );
            }
            DbRequest::Load { .. } => {
                self.engine.load(take_load_rows(&mut payload));
                self.reply(ctx, addr, DbResponse::Loaded, self.config.write_latency);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if tag != RETRY_TIMER_TAG {
            return;
        }
        self.retry_timer_armed = false;
        // Retry the whole queue once; conflicts re-enqueue themselves.
        let batch: Vec<ParkedCall> = self.retry_queue.drain(..).collect();
        for call in batch {
            self.handle_call(ctx, call.addr, &call.proc, &call.args, call.attempts);
        }
    }
}

/// The rows of the `Load` request in `payload` (a bare or RPC-enveloped
/// [`DbMsg`]). They are moved out when this delivery owns the payload
/// alone, and cloned when it is shared — a duplicate delivery still
/// queued in the network holds it too.
pub(crate) fn take_load_rows(payload: &mut Payload) -> Vec<(Key, Value)> {
    let owned = if payload.is::<RpcRequest>() {
        payload
            .get_mut::<RpcRequest>()
            .and_then(|req| req.body.get_mut::<DbMsg>())
    } else {
        payload.get_mut::<DbMsg>()
    };
    if let Some(DbMsg {
        req: DbRequest::Load { pairs },
        ..
    }) = owned
    {
        return std::mem::take(pairs);
    }
    let msg = match payload.downcast_ref::<RpcRequest>() {
        Some(req) => req.body.expect::<DbMsg>(),
        None => payload.expect::<DbMsg>(),
    };
    match &msg.req {
        DbRequest::Load { pairs } => pairs.clone(),
        other => panic!("expected a Load request, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tca_sim::Sim;

    /// A scripted client driving one request and recording the reply.
    struct OneShot {
        db: ProcessId,
        req: Option<DbRequest>,
    }
    impl Process for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(req) = self.req.take() {
                ctx.send(self.db, Payload::new(DbMsg { token: 1, req }));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
            let reply = payload.expect::<DbReply>();
            match &reply.resp {
                DbResponse::CallOk { .. } => ctx.metrics().incr("client.call_ok", 1),
                DbResponse::CallFailed { .. } => ctx.metrics().incr("client.call_failed", 1),
                DbResponse::Overloaded => ctx.metrics().incr("client.overloaded", 1),
                DbResponse::Loaded => ctx.metrics().incr("client.loaded", 1),
                DbResponse::PeekOk {
                    value: Some(Value::Int(v)),
                } => ctx.metrics().incr("client.peek", *v as u64),
                _ => {}
            }
        }
    }

    fn bump_registry() -> ProcRegistry {
        ProcRegistry::new().with("bump", |tx, args| {
            let key = args[0].as_str().to_owned();
            let v = tx.get(&key).map(|v| v.as_int()).unwrap_or(0);
            tx.put(&key, Value::Int(v + 1));
            Ok(vec![Value::Int(v + 1)])
        })
    }

    #[test]
    fn call_roundtrip_over_network() {
        let mut sim = Sim::with_seed(1);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        sim.spawn(n1, "client", move |_| {
            Box::new(OneShot {
                db,
                req: Some(DbRequest::Call {
                    proc: "bump".into(),
                    args: vec![Value::from("x")],
                }),
            })
        });
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("client.call_ok"), 1);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 1);
    }

    #[test]
    fn queue_bound_sheds_excess_load_immediately() {
        let mut sim = Sim::with_seed(21);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let config = DbServerConfig {
            // Admit at most two service times of queue (100µs commits).
            max_queue_wait: Some(SimDuration::from_micros(200)),
            ..DbServerConfig::default()
        };
        let _ = n1;
        let db = sim.spawn(n0, "db", DbServer::factory("db", config, bump_registry()));
        // A burst of 10 simultaneous calls: waits 0,100,…,900µs. Only the
        // first three (wait ≤ 200µs) are admitted; the rest shed at once.
        for _ in 0..10 {
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 1,
                    req: DbRequest::Call {
                        proc: "bump".into(),
                        args: vec![Value::from("x")],
                    },
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(sim.metrics().counter("server.shed"), 7);
        assert_eq!(
            sim.metrics().counter("db.calls_ok"),
            3,
            "shed work never ran"
        );
    }

    #[test]
    fn state_survives_crash_restart() {
        let mut sim = Sim::with_seed(2);
        let n0 = sim.add_node();
        let n1 = sim.add_node();
        let db = sim.spawn(
            n0,
            "db",
            DbServer::factory("db", DbServerConfig::default(), bump_registry()),
        );
        // Bump twice.
        for _ in 0..2 {
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 0,
                    req: DbRequest::Call {
                        proc: "bump".into(),
                        args: vec![Value::from("x")],
                    },
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(5));
        sim.crash_node(n0);
        sim.run_for(SimDuration::from_millis(5));
        sim.restart_node(n0);
        sim.run_for(SimDuration::from_millis(5));
        // Peek after recovery: the two committed bumps survived.
        sim.spawn(n1, "peeker", move |_| {
            Box::new(OneShot {
                db,
                req: Some(DbRequest::Peek { key: "x".into() }),
            })
        });
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.metrics().counter("client.peek"), 2);
    }

    fn preload(n: i64) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (format!("r{i:03}"), Value::Int(i)))
            .collect()
    }

    /// A server with a 200-row bulk load applied and (below the
    /// checkpoint cadence) `bumps` committed increments of `r000`.
    fn loaded_server(bumps: usize) -> (Sim, tca_sim::NodeId, ProcessId) {
        let mut sim = Sim::with_seed(3);
        let n0 = sim.add_node();
        let config = DbServerConfig {
            engine: EngineConfig {
                checkpoint_every: 4,
                gc: true,
            },
            ..DbServerConfig::default()
        };
        let db = sim.spawn(n0, "db", DbServer::factory("db", config, bump_registry()));
        let load = DbRequest::Load {
            pairs: preload(200),
        };
        sim.inject(
            db,
            Payload::new(DbMsg {
                token: 0,
                req: load,
            }),
        );
        sim.run_for(SimDuration::from_millis(1));
        for _ in 0..bumps {
            let bump = DbRequest::Call {
                proc: "bump".into(),
                args: vec![Value::from("r000")],
            };
            sim.inject(
                db,
                Payload::new(DbMsg {
                    token: 0,
                    req: bump,
                }),
            );
        }
        sim.run_for(SimDuration::from_millis(5));
        (sim, n0, db)
    }

    fn crash_and_restart(sim: &mut Sim, node: tca_sim::NodeId) {
        sim.crash_node(node);
        sim.run_for(SimDuration::from_millis(1));
        sim.restart_node(node);
        sim.run_for(SimDuration::from_millis(1));
    }

    #[test]
    fn bulk_load_is_recovered_from_the_image_alone() {
        let (mut sim, n0, db) = loaded_server(0);
        let engine = sim.inspect::<DbServer>(db).expect("up").engine();
        assert_eq!(engine.wal().len(), 0, "a load appends nothing to the WAL");
        crash_and_restart(&mut sim, n0);
        let engine = sim.inspect::<DbServer>(db).expect("restarted").engine();
        for (key, value) in preload(200) {
            assert_eq!(engine.peek(&key), Some(value), "{key}");
        }
        assert_eq!(engine.clock(), 200, "one timestamp per loaded row");
    }

    #[test]
    fn bulk_load_then_commits_survive_a_crash() {
        // Six commits at a cadence of four: one checkpoint folds the first
        // four into the loaded image, the last two stay in the WAL tail.
        let (mut sim, n0, db) = loaded_server(6);
        assert_eq!(sim.metrics().counter("db.calls_ok"), 6);
        let engine = sim.inspect::<DbServer>(db).expect("up").engine();
        assert_eq!(engine.wal().len(), 2);
        crash_and_restart(&mut sim, n0);
        let engine = sim.inspect::<DbServer>(db).expect("restarted").engine();
        assert_eq!(engine.peek("r000"), Some(Value::Int(6)), "every bump kept");
        for (key, value) in preload(200).into_iter().skip(1) {
            assert_eq!(engine.peek(&key), Some(value), "{key}");
        }
    }
}
