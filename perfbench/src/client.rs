//! The benchmark's own closed-loop client.
//!
//! `clients` logical callers each keep one transaction outstanding
//! through [`RpcClient`] (so servers' RPC dedup paths run as they do in
//! production) and issue the next one only when the previous outcome
//! arrives. Inputs come from the benchmark's own RNG stream, seeded from
//! the run's seed; the simulation's stream only feeds the RPC layer.
//! Every answered transaction leaves an exact virtual latency sample.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use tca_messaging::rpc::{RetryPolicy, RpcClient, RpcEvent};
use tca_sim::{Boot, Ctx, DetHashMap, Payload, Process, ProcessId, SimDuration, SimRng, SimTime};

/// One request: the RPC body and whether it writes (for audits that
/// count committed writes).
pub struct Request {
    pub body: Payload,
    pub write: bool,
}

pub type Generator = Box<dyn FnMut(&mut SimRng) -> Request>;
/// Did the reply report a committed transaction?
pub type Classify = fn(&Payload) -> bool;

/// What the client observed, read by the run loop during and after a run.
#[derive(Default)]
pub struct ClientLog {
    /// Transactions finished (answered or failed); the run loop polls it.
    pub finished: Cell<u64>,
    pub data: RefCell<LogData>,
}

#[derive(Default)]
pub struct LogData {
    pub issued: u64,
    pub committed: u64,
    pub committed_writes: u64,
    /// Answered, but not committed (aborted or refused).
    pub aborted: u64,
    /// The RPC layer gave up without an answer.
    pub failed: u64,
    /// Virtual latency of every answered transaction, in completion order.
    pub latency_ns: Vec<u64>,
    pub first_issue: Option<SimTime>,
    pub last_done: SimTime,
}

impl LogData {
    /// FNV-1a digest of the latency samples in completion order.
    pub fn latency_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &ns in &self.latency_ns {
            for b in ns.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

pub struct BenchClient {
    target: ProcessId,
    next: Generator,
    classify: Classify,
    rng: SimRng,
    rpc: RpcClient,
    policy: RetryPolicy,
    clients: usize,
    limit: u64,
    inflight: DetHashMap<u64, (SimTime, bool)>,
    log: Rc<ClientLog>,
}

impl BenchClient {
    /// A factory for one client process. The client never restarts (no
    /// workload crashes nodes), so the factory runs exactly once.
    pub fn factory(
        target: ProcessId,
        next: Generator,
        classify: Classify,
        seed: u64,
        clients: usize,
        limit: u64,
        log: Rc<ClientLog>,
    ) -> impl FnMut(&mut Boot) -> Box<dyn Process> {
        let mut once = Some((next, log));
        move |_| {
            let (next, log) = once.take().expect("the bench client never restarts");
            Box::new(BenchClient {
                target,
                next,
                classify,
                // A stream of its own: the same seed never replays the
                // simulation's draws as workload inputs.
                rng: SimRng::new(seed ^ 0xbe4c_c11e_47d5_0000),
                rpc: RpcClient::new(),
                policy: RetryPolicy::retrying(8, SimDuration::from_millis(50)),
                clients,
                limit,
                inflight: DetHashMap::default(),
                log,
            })
        }
    }

    fn issue(&mut self, ctx: &mut Ctx) {
        let mut data = self.log.data.borrow_mut();
        if data.issued >= self.limit {
            return;
        }
        data.issued += 1;
        let tag = data.issued;
        data.first_issue.get_or_insert(ctx.now());
        drop(data);
        let request = (self.next)(&mut self.rng);
        self.inflight.insert(tag, (ctx.now(), request.write));
        self.rpc
            .call(ctx, self.target, request.body, self.policy, tag);
    }

    fn finish(&mut self, ctx: &mut Ctx, tag: u64, answer: Option<&Payload>) {
        let Some((issued_at, write)) = self.inflight.remove(&tag) else {
            return;
        };
        {
            let mut data = self.log.data.borrow_mut();
            match answer {
                Some(body) => {
                    data.latency_ns.push(ctx.now().since(issued_at).as_nanos());
                    if (self.classify)(body) {
                        data.committed += 1;
                        data.committed_writes += u64::from(write);
                    } else {
                        data.aborted += 1;
                    }
                }
                None => data.failed += 1,
            }
            data.last_done = ctx.now();
        }
        self.log.finished.set(self.log.finished.get() + 1);
        self.issue(ctx);
    }

    fn absorb(&mut self, ctx: &mut Ctx, event: RpcEvent) {
        match event {
            RpcEvent::Reply { user_tag, body, .. } => self.finish(ctx, user_tag, Some(&body)),
            RpcEvent::Failed { user_tag, .. } => self.finish(ctx, user_tag, None),
        }
    }
}

impl Process for BenchClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for _ in 0..self.clients {
            self.issue(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx, _from: ProcessId, payload: Payload) {
        if let Some(event) = self.rpc.on_message(ctx, &payload) {
            self.absorb(ctx, event);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        if let Some(Some(event)) = self.rpc.on_timer(ctx, tag) {
            self.absorb(ctx, event);
        }
    }
}
