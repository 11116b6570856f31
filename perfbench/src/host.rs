//! Host-side measurement: the timing wrapper around spawned processes,
//! the in-memory host span store, and the machine-noise probes.

use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use tca_sim::{Boot, Ctx, Payload, Process, ProcessId};

/// A layer whose handlers the wrapper times. The kernel is not listed:
/// its self time is what `Sim::step` spends outside wrapped handlers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    StorageServer,
    StorageRouter,
    TwopcCoordinator,
    TwopcParticipant,
    Client,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::StorageServer,
        Layer::StorageRouter,
        Layer::TwopcCoordinator,
        Layer::TwopcParticipant,
        Layer::Client,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::StorageServer => "storage.server",
            Layer::StorageRouter => "storage.router",
            Layer::TwopcCoordinator => "txn.twopc.coordinator",
            Layer::TwopcParticipant => "txn.twopc.participant",
            Layer::Client => "bench.client",
        }
    }
}

/// One timed handler call: host interval, the `Sim::step` it ran in, and
/// the kernel's virtual-time span current when it started (0 = none).
struct HostSpan {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    step: u32,
    vspan: u64,
}

/// Host spans of one traced run, kept in memory until the run ends.
pub struct HostTrace {
    origin: Instant,
    steps: Vec<(u64, u64)>,
    spans: Vec<HostSpan>,
    self_ns: [u64; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
}

pub type SharedTrace = Rc<RefCell<HostTrace>>;

impl HostTrace {
    pub fn new() -> SharedTrace {
        Rc::new(RefCell::new(HostTrace {
            origin: Instant::now(),
            steps: Vec::new(),
            spans: Vec::new(),
            self_ns: [0; Layer::ALL.len()],
            calls: [0; Layer::ALL.len()],
        }))
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Forget everything recorded so far: the measured phase starts.
    pub fn reset(&mut self) {
        self.steps.clear();
        self.spans.clear();
        self.self_ns = [0; Layer::ALL.len()];
        self.calls = [0; Layer::ALL.len()];
    }

    pub fn record_step(&mut self, start: Instant, end: Instant) {
        let span = (self.ns(start), self.ns(end));
        self.steps.push(span);
    }

    fn record_call(&mut self, layer: Layer, start: Instant, end: Instant, vspan: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let slot = layer as usize;
        self.self_ns[slot] += end_ns - start_ns;
        self.calls[slot] += 1;
        // Handlers run inside the step being timed, whose record is pushed
        // when it ends: its index is the current length.
        let step = self.steps.len() as u32;
        self.spans.push(HostSpan {
            layer,
            start_ns,
            end_ns,
            step,
            vspan,
        });
    }

    /// Σ `Sim::step` host time, in seconds.
    pub fn step_s(&self) -> f64 {
        self.steps.iter().map(|&(a, b)| b - a).sum::<u64>() as f64 / 1e9
    }

    pub fn layer_s(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e9
    }

    pub fn layer_calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// The spans as CSV: one `step` row per `Sim::step`, one row per
    /// wrapped handler call with its parent step and kernel span id.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 * (self.steps.len() + self.spans.len()) + 64);
        out.push_str("kind,id_or_parent,start_ns,end_ns,kernel_span\n");
        for (i, (a, b)) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "step,{i},{a},{b},");
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.layer.name(),
                s.step,
                s.start_ns,
                s.end_ns,
                s.vspan
            );
        }
        out
    }
}

/// Forwards every callback to the wrapped process and times it.
struct Timed {
    inner: Box<dyn Process>,
    layer: Layer,
    trace: SharedTrace,
}

impl Timed {
    fn timed(&mut self, ctx: &mut Ctx, f: impl FnOnce(&mut dyn Process, &mut Ctx)) {
        let vspan = ctx.current_span().map_or(0, |s| s.0);
        let start = Instant::now();
        f(self.inner.as_mut(), ctx);
        let end = Instant::now();
        self.trace
            .borrow_mut()
            .record_call(self.layer, start, end, vspan);
    }
}

impl Process for Timed {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.timed(ctx, |p, ctx| p.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx, from: ProcessId, payload: Payload) {
        self.timed(ctx, |p, ctx| p.on_message(ctx, from, payload));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, tag: u64) {
        self.timed(ctx, |p, ctx| p.on_timer(ctx, tag));
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.inner.as_any()
    }
}

pub type Factory = Box<dyn FnMut(&mut Boot) -> Box<dyn Process>>;

/// `factory` unchanged when `trace` is `None`, else wrapped so every
/// process it builds is timed as `layer`.
pub fn timed(
    layer: Layer,
    trace: Option<&SharedTrace>,
    mut factory: impl FnMut(&mut Boot) -> Box<dyn Process> + 'static,
) -> Factory {
    match trace {
        None => Box::new(factory),
        Some(trace) => {
            let trace = Rc::clone(trace);
            Box::new(move |boot| {
                Box::new(Timed {
                    inner: factory(boot),
                    layer,
                    trace: Rc::clone(&trace),
                })
            })
        }
    }
}

/// Host time of a fixed pure-CPU loop, in ns: the same work on every run
/// and every commit, so a change in it is the machine, not the code.
pub fn calibrate_ns() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Time this thread has spent runnable but waiting for a CPU, in
/// seconds, or `None` where `/proc/thread-self/schedstat` is absent.
pub fn runq_wait_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let wait_ns: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(wait_ns as f64 / 1e9)
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
