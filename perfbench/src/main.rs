//! `tca-perfbench`: host cost and virtual-time results of the simulator
//! on four workloads, with per-layer attribution in a separate traced run.
//!
//! ```text
//! tca-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats one fixed-size, seed-determined job until `--seconds`
//! have passed (at least three times untraced), checks every repetition's
//! outputs, checks that all repetitions agree exactly on their
//! deterministic results, prints a human-readable report and ends with
//! one JSON line: the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

mod client;
mod host;
mod mc;
mod report;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use host::{HostTrace, Layer, SharedTrace};
use report::{median, Metric, Outcome};
use tca_sim::{SimDuration, SpanKind};
use workloads::{Stack, TxnWorld};

const MC_WORKLOAD: &str = "mc-2pc";

/// Untraced repetitions a run makes at least (the medians need three).
const MIN_REPS: usize = 3;
/// Every untraced repetition times its own set-up. When set-up costs
/// less than `CHEAP_SETUP` of a repetition, `EXTRA_SETUPS` more are timed
/// right after it, so a tiny set-up time is a median of many samples
/// spread over the whole run.
const CHEAP_SETUP: f64 = 0.01;
const EXTRA_SETUPS: usize = 8;
/// Untraced repetitions a traced run makes first, to compare against.
const TRACE_BASELINE_REPS: usize = 2;
/// The kernel's span store capacity (`Tracer`); the traced run stops
/// recording kernel spans this many short of it, so none is dropped.
const SPAN_CAP: usize = 1 << 18;
const SPAN_MARGIN: usize = 8_192;
/// Virtual time run after the measured phase, untimed, so in-flight
/// epochs and decisions settle before the audit reads the stores.
const DRAIN: SimDuration = SimDuration::from_millis(500);

/// `None` is `mc-2pc`; the others deploy a transaction stack.
struct Args {
    workload: Option<Stack>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let stack = Stack::ALL.into_iter().find(|s| s.name() == value);
                if stack.is_none() && value != MC_WORKLOAD {
                    return Err(format!("unknown workload {value}"));
                }
                workload = Some(stack);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tca-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let calib_before = host::calibrate_ns();
    let runq_before = host::runq_wait_s();
    let started = Instant::now();
    let mut outcome = match args.workload {
        Some(stack) => run_txn(stack, &args),
        None => run_mc(&args),
    };
    if !args.trace {
        outcome.metrics.push(Metric::new(
            "peak_rss_mb",
            host::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ));
    }
    let calib_after = host::calibrate_ns();
    println!(
        "host.calib_ns {:.0} before, {:.0} after (fixed 2M-step xorshift loop; a shift here is the machine)",
        calib_before, calib_after
    );
    match (runq_before, host::runq_wait_s()) {
        (Some(a), Some(b)) => println!(
            "host.runq_wait_s {:.4} s waiting for a CPU over {:.1} s of run",
            b - a,
            started.elapsed().as_secs_f64()
        ),
        _ => println!("host.runq_wait_s absent (/proc/thread-self/schedstat not readable)"),
    }
    for problem in &outcome.problems {
        println!("FAILED CHECK: {problem}");
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Transaction workloads
// ---------------------------------------------------------------------------

/// What a repetition must reproduce exactly, run after run.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fingerprint {
    events: u64,
    final_vtime_ns: u64,
    committed: u64,
    aborted: u64,
    failed: u64,
    unanswered: u64,
    latency_digest: u64,
}

struct TxnRep {
    setup_s: f64,
    measured_s: f64,
    measured_events: u64,
    fp: Fingerprint,
    virt: report::Virtual,
    /// The per-layer metrics, on traced repetitions.
    layers: Option<Vec<Metric>>,
}

/// Step the simulation until the client has seen `target` outcomes (or
/// the event queue runs dry), timing every step when traced.
fn drive(world: &mut TxnWorld, target: u64, trace: Option<&SharedTrace>) {
    let finished = Rc::clone(&world.log);
    let sim = &mut world.sim;
    match trace {
        None => while finished.finished.get() < target && sim.step() {},
        Some(trace) => {
            while finished.finished.get() < target {
                let start = Instant::now();
                let more = sim.step();
                let end = Instant::now();
                trace.borrow_mut().record_step(start, end);
                if !more {
                    break;
                }
                if sim.tracer().is_enabled() && sim.tracer().spans().len() >= SPAN_CAP - SPAN_MARGIN
                {
                    sim.set_tracing(false);
                }
            }
        }
    }
}

/// One repetition. A traced one records host and kernel spans, and with
/// `write_files` writes them out.
fn txn_rep(
    stack: Stack,
    seed: u64,
    traced: bool,
    write_files: bool,
) -> (TxnRep, Result<(), String>) {
    let trace = traced.then(HostTrace::new);
    let start = Instant::now();
    let mut world = workloads::deploy(stack, seed, trace.as_ref());
    let setup_s = start.elapsed().as_secs_f64();
    let (warm, measured) = stack.size();
    drive(&mut world, warm, trace.as_ref());
    // The measured phase starts here: host spans and kernel spans
    // cover it alone.
    if let Some(trace) = &trace {
        trace.borrow_mut().reset();
        world.sim.set_tracing(true);
    }
    let at_warm = trace.is_some().then(|| Baseline::take(&world));
    let events_at_warm = world.sim.events_processed();
    let start = Instant::now();
    drive(&mut world, warm + measured, trace.as_ref());
    let measured_s = start.elapsed().as_secs_f64();
    let measured_events = world.sim.events_processed() - events_at_warm;
    world.sim.set_tracing(false);
    let fp = {
        let data = world.log.data.borrow();
        Fingerprint {
            events: world.sim.events_processed(),
            final_vtime_ns: world.sim.now().as_nanos(),
            committed: data.committed,
            aborted: data.aborted,
            failed: data.failed,
            unanswered: data.issued - world.log.finished.get(),
            latency_digest: data.latency_digest(),
        }
    };
    let virt = report::Virtual::from_log(&world.log.data.borrow());
    let layers = trace
        .as_ref()
        .zip(at_warm.as_ref())
        .map(|(trace, base)| txn_layers(&world, base, &trace.borrow(), measured));
    if let (Some(trace), true) = (&trace, write_files) {
        report::write_trace_files(stack.name(), &trace.borrow(), &world.sim);
    }
    world.sim.run_for(DRAIN);
    let audit = workloads::audit(&world);
    (
        TxnRep {
            setup_s,
            measured_s,
            measured_events,
            fp,
            virt,
            layers,
        },
        audit,
    )
}

/// Exact percentile (nearest rank) of kernel spans of `kind`, in ms.
fn span_percentile_ms(sim: &tca_sim::Sim, kind: SpanKind, q: f64) -> f64 {
    let mut d: Vec<u64> = sim
        .tracer()
        .spans_of_kind(kind)
        .filter(|s| s.end.is_some())
        .map(|s| s.duration().as_nanos())
        .collect();
    d.sort_unstable();
    report::percentile(&d, q).map_or(0.0, |ns| ns as f64 / 1e6)
}

/// Counters at the start of the measured phase, so per-layer counts
/// cover the same transactions as the host times.
struct Baseline {
    events: u64,
    counters: BTreeMap<String, u64>,
    engine_commits: u64,
    engine_aborts: u64,
}

impl Baseline {
    fn take(world: &TxnWorld) -> Self {
        let (_, engine_commits, engine_aborts) = workloads::engine_counts(world);
        Baseline {
            events: world.sim.events_processed(),
            counters: world
                .sim
                .metrics()
                .counters()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            engine_commits,
            engine_aborts,
        }
    }

    /// `name`'s growth since the baseline.
    fn delta(&self, sim: &tca_sim::Sim, name: &str) -> u64 {
        sim.metrics().counter(name) - self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Every per-layer metric for the measured phase of a traced transaction
/// repetition. Layers a workload does not run read 0.
fn txn_layers(world: &TxnWorld, base: &Baseline, trace: &HostTrace, txns: u64) -> Vec<Metric> {
    let sim = &world.sim;
    let stack = world.stack;
    let events = sim.events_processed() - base.events;
    let counter = |name: &str| base.delta(sim, name) as f64;
    let fleet = |names: &mut dyn Iterator<Item = String>| -> f64 {
        names.map(|n| base.delta(sim, &n)).sum::<u64>() as f64
    };
    let step_s = trace.step_s();
    let wrapped_s: f64 = Layer::ALL.iter().map(|&l| trace.layer_s(l)).sum();
    let per_call = |l: Layer| {
        let calls = trace.layer_calls(l);
        if calls == 0 {
            0.0
        } else {
            trace.layer_s(l) * 1e9 / calls as f64
        }
    };
    let dataflow = stack == Stack::DataflowTransfer;
    let kernel_s = if dataflow { 0.0 } else { step_s - wrapped_s };
    let mut m = report::empty_layers();
    let mut set = |name: &str, value: f64| report::set(&mut m, name, value);

    set("sim.kernel.events", events as f64);
    set("sim.kernel.events_per_txn", events as f64 / txns as f64);
    set("sim.kernel.self_s", kernel_s);
    set("sim.kernel.ns_per_event", kernel_s * 1e9 / events as f64);
    set("sim.kernel.step_s", step_s);
    set("sim.net.sent", counter("net.sent"));
    set("sim.net.delivered", counter("net.delivered"));
    set("sim.kernel.spans", sim.tracer().spans().len() as f64);
    set("sim.kernel.spans_dropped", sim.tracer().dropped() as f64);

    for layer in [Layer::StorageServer, Layer::StorageRouter, Layer::Client] {
        let name = layer.name();
        set(&format!("{name}.calls"), trace.layer_calls(layer) as f64);
        set(&format!("{name}.self_s"), trace.layer_s(layer));
        set(&format!("{name}.ns_per_call"), per_call(layer));
    }
    for layer in [Layer::TwopcCoordinator, Layer::TwopcParticipant] {
        let name = layer.name();
        set(&format!("{name}.self_s"), trace.layer_s(layer));
        set(&format!("{name}.ns_per_call"), per_call(layer));
    }

    if stack == Stack::ShardedYcsb {
        set(
            "storage.server.queue_wait_p50_ms",
            span_percentile_ms(sim, SpanKind::QueueWait, 0.5),
        );
        set(
            "storage.server.queue_wait_p99_ms",
            span_percentile_ms(sim, SpanKind::QueueWait, 0.99),
        );
        let calls: Vec<u64> = workloads::ycsb_shard_names("calls_ok")
            .map(|n| base.delta(sim, &n))
            .collect();
        let total: u64 = calls.iter().sum();
        let hot = calls.iter().max().copied().unwrap_or(0);
        let coldest = calls.iter().min().copied().unwrap_or(0);
        set("storage.server.min_shard_calls", coldest as f64);
        set(
            "storage.server.hot_shard_share",
            hot as f64 / total.max(1) as f64,
        );
        for (metric, suffix) in [
            ("storage.server.deduped", "deduped"),
            ("storage.server.lock_waits", "lock_waits"),
            ("storage.server.call_retries", "call_retries"),
        ] {
            set(metric, fleet(&mut workloads::ycsb_shard_names(suffix)));
        }
    }
    let (rows, commits, aborts) = workloads::engine_counts(world);
    set("storage.engine.rows", rows as f64);
    set(
        "storage.engine.commits",
        (commits - base.engine_commits) as f64,
    );
    set(
        "storage.engine.aborts",
        (aborts - base.engine_aborts) as f64,
    );

    set("messaging.rpc.calls", counter("rpc.calls"));
    set("messaging.rpc.retries", counter("rpc.retries"));
    set("messaging.rpc.failures", counter("rpc.failures"));

    if stack == Stack::TwopcTransfer {
        set("txn.twopc.aborted", counter("dtx.aborted"));
        set("txn.twopc.prepare_resends", counter("dtx.prepare_resends"));
        set(
            "txn.twopc.decision_resends",
            counter("dtx.decision_resends"),
        );
        set(
            "txn.twopc.rollbacks",
            fleet(&mut workloads::participant_names("rollbacks")),
        );
        set(
            "txn.twopc.execute_p50_ms",
            span_percentile_ms(sim, SpanKind::TxnExecute, 0.5),
        );
        set(
            "txn.twopc.prepare_p50_ms",
            span_percentile_ms(sim, SpanKind::TxnPrepare, 0.5),
        );
        set(
            "txn.twopc.decide_p50_ms",
            span_percentile_ms(sim, SpanKind::TxnDecide, 0.5),
        );
        set(
            "txn.twopc.lock_wait_p99_ms",
            span_percentile_ms(sim, SpanKind::LockWait, 0.99),
        );
    }
    if dataflow {
        let epochs = counter("df.epochs");
        let completed = counter("df.completed");
        set("txn.dataflow.epochs", epochs);
        set("txn.dataflow.txns_per_epoch", completed / epochs.max(1.0));
        set(
            "txn.dataflow.share_reqs_per_txn",
            counter("df.share_reqs") / completed.max(1.0),
        );
        set("txn.dataflow.checkpoints", counter("df.checkpoints"));
        set("txn.dataflow.resends", counter("df.resends"));
        let with_kernel = step_s - trace.layer_s(Layer::Client);
        set("txn.dataflow.with_kernel_s", with_kernel);
        set(
            "txn.dataflow.with_kernel_ns_per_txn",
            with_kernel * 1e9 / txns as f64,
        );
    }
    m
}

fn run_txn(stack: Stack, args: &Args) -> Outcome {
    let name = stack.name();
    let (warm, measured) = stack.size();
    println!(
        "workload {name} seed {} trace {}: {} transactions per run ({warm} warm-up, {measured} timed)",
        args.seed,
        u8::from(args.trace),
        warm + measured
    );
    let mut problems = Vec::new();
    let Reps {
        untraced: reps,
        traced,
        setups,
    } = repeat(
        args,
        |number, traced| {
            let first_traced = number == TRACE_BASELINE_REPS + 1;
            let (rep, audit) = txn_rep(stack, args.seed, traced, first_traced);
            if let Err(e) = audit {
                problems.push(format!("run {number}: {e}"));
            }
            println!(
                "  run {number:>2}{}: setup {:.6} s, timed {:.3} s = {:.0} txn/s, events {}",
                if traced { " (traced)" } else { "" },
                rep.setup_s,
                rep.measured_s,
                measured as f64 / rep.measured_s,
                rep.fp.events
            );
            let setup_s = rep.setup_s;
            (rep, setup_s)
        },
        || {
            let start = Instant::now();
            let world = workloads::deploy(stack, args.seed, None);
            let setup_s = start.elapsed().as_secs_f64();
            drop(world);
            setup_s
        },
    );
    check_agreement(reps.iter().chain(&traced).map(|r| &r.fp), &mut problems);
    let virt = &reps[0].virt;
    let attempted = (reps.len() + traced.len()) as u64 * (warm + measured);
    let failed: u64 = reps
        .iter()
        .chain(&traced)
        .map(|r| r.fp.failed + r.fp.unanswered)
        .sum();
    virt.print();
    let untraced_s = median(reps.iter().map(|r| r.measured_s).collect());
    let metrics = if args.trace {
        let overhead = median(traced.iter().map(|r| r.measured_s).collect()) / untraced_s;
        let mid = report::median_index(traced.iter().map(|r| r.measured_s).collect());
        let mut layers = traced[mid]
            .layers
            .clone()
            .expect("traced repetitions have layers");
        report::set(&mut layers, "trace.overhead", overhead);
        virt.set_layers(&mut layers);
        report::print_layers(&layers);
        if layers_value(&layers, "sim.kernel.spans_dropped") != 0.0 {
            problems.push("the kernel tracer dropped spans".into());
        }
        let checkpoint_every = tca_storage::EngineConfig::default().checkpoint_every as f64;
        if stack == Stack::ShardedYcsb
            && layers_value(&layers, "storage.server.min_shard_calls") < checkpoint_every
        {
            problems.push(format!(
                "the traced run does not reach a checkpoint ({checkpoint_every} commits) on every shard"
            ));
        }
        layers
    } else {
        let setup = median(setups.clone());
        let rate = median(
            reps.iter()
                .map(|r| measured as f64 / r.measured_s)
                .collect(),
        );
        println!(
            "  setup_s         {setup:.6} s (median of {} set-ups)",
            setups.len()
        );
        println!(
            "  host_txn_per_s  {rate:.1} txn/s (median of {} timed phases of {measured} txns; {:.0} ns of host time per kernel event)",
            reps.len(),
            untraced_s * 1e9 / reps[0].measured_events as f64
        );
        vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("host_ops_per_s", rate, "1/s"),
        ]
    };
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}

/// The repetitions of one run, and the set-up times of the untraced ones.
struct Reps<R> {
    untraced: Vec<R>,
    traced: Vec<R>,
    setups: Vec<f64>,
}

/// Repeat `rep(number, traced)`, which returns a repetition and its
/// set-up seconds, until starting another would overrun `--seconds`:
/// at least `MIN_REPS` untraced, or with `--trace 1`, first
/// `TRACE_BASELINE_REPS` untraced and then at least one traced.
fn repeat<R>(
    args: &Args,
    mut rep: impl FnMut(usize, bool) -> (R, f64),
    mut setup_once: impl FnMut() -> f64,
) -> Reps<R> {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
        setups: Vec::new(),
    };
    loop {
        let traced = args.trace && reps.untraced.len() >= TRACE_BASELINE_REPS;
        let start = Instant::now();
        let (r, setup_s) = rep(reps.untraced.len() + reps.traced.len() + 1, traced);
        let took = start.elapsed();
        if traced {
            reps.traced.push(r);
        } else {
            reps.untraced.push(r);
            reps.setups.push(setup_s);
            if setup_s < CHEAP_SETUP * took.as_secs_f64() {
                reps.setups.extend((0..EXTRA_SETUPS).map(|_| setup_once()));
            }
        }
        let enough = if args.trace {
            !reps.traced.is_empty()
        } else {
            reps.untraced.len() >= MIN_REPS
        };
        if enough && Instant::now() + took > deadline {
            return reps;
        }
    }
}

fn layers_value(layers: &[Metric], name: &str) -> f64 {
    layers
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn check_agreement<'a>(fps: impl Iterator<Item = &'a Fingerprint>, problems: &mut Vec<String>) {
    let fps: Vec<&Fingerprint> = fps.collect();
    for (i, fp) in fps.iter().enumerate().skip(1) {
        if *fp != fps[0] {
            problems.push(format!(
                "run {} is not deterministic: {fp:?} differs from run 1's {:?}",
                i + 1,
                fps[0]
            ));
        }
    }
    if problems.is_empty() {
        println!(
            "  determinism: {} runs agree exactly on {:?}",
            fps.len(),
            fps[0]
        );
    }
}

// ---------------------------------------------------------------------------
// mc-2pc
// ---------------------------------------------------------------------------

fn run_mc(args: &Args) -> Outcome {
    println!(
        "workload mc-2pc trace {}: explore twopc_mc_scenario({}) to depth {} with 1 crash of node {} and 1 drop (the seed is unused: exploration draws nothing)",
        u8::from(args.trace),
        mc::TRANSFERS,
        mc::DEPTH,
        mc::CRASH_NODE
    );
    let mut problems = Vec::new();
    let Reps {
        untraced,
        traced,
        setups,
    } = repeat(
        args,
        |number, traced| {
            let times = traced.then(|| Rc::new(mc::ClosureTimes::default()));
            let (setup_s, explore_s, report) = mc::run(times.as_ref());
            if let Err(e) = mc::audit(&report) {
                problems.push(format!("run {number}: {e}"));
            }
            println!(
                "  run {number:>2}{}: setup {setup_s:.6} s, explore {explore_s:.3} s = {:.0} states/s",
                if traced { " (traced)" } else { "" },
                report.states as f64 / explore_s
            );
            let counts = (
                report.states,
                report.leaves,
                report.pruned_visited,
                report.pruned_sleep,
                report.depth_cap_hits,
            );
            ((explore_s, counts, times), setup_s)
        },
        || mc::setup().0,
    );
    let first = untraced[0].1;
    let runs = untraced.len() + traced.len();
    let all_counts = untraced.iter().chain(&traced).map(|r| r.1);
    if all_counts.clone().any(|c| c != first) {
        problems.push(format!(
            "explorations disagree on (states, leaves, pruned_visited, pruned_sleep, depth_cap_hits): {:?}",
            all_counts.collect::<Vec<_>>()
        ));
    } else {
        println!(
            "  determinism: {runs} explorations agree exactly on (states, leaves, pruned_visited, pruned_sleep, depth_cap_hits) = {first:?}"
        );
    }
    let (states, leaves, pruned_visited, pruned_sleep, _) = first;
    let untraced_s = median(untraced.iter().map(|r| r.0).collect());
    let metrics = if args.trace {
        let mid = report::median_index(traced.iter().map(|r| r.0).collect());
        let (explore_s, _, times) = &traced[mid];
        let times = times.as_ref().expect("traced explorations are timed");
        let mut layers = report::empty_layers();
        let m = &mut layers;
        let build_s = times.build_ns.get() as f64 / 1e9;
        let fp_s = times.fp_ns.get() as f64 / 1e9;
        let check_s = times.check_ns.get() as f64 / 1e9;
        let builds = times.builds.get() as f64;
        report::set(m, "sim.mc.states", states as f64);
        report::set(m, "sim.mc.leaves", leaves as f64);
        report::set(m, "sim.mc.pruned_visited", pruned_visited as f64);
        report::set(m, "sim.mc.pruned_sleep", pruned_sleep as f64);
        report::set(m, "sim.mc.builds", builds);
        report::set(m, "sim.mc.builds_per_state", builds / states as f64);
        report::set(m, "sim.mc.build_s", build_s);
        report::set(m, "sim.mc.fp_s", fp_s);
        report::set(m, "sim.mc.check_s", check_s);
        report::set(m, "sim.mc.self_s", explore_s - build_s - fp_s - check_s);
        report::set(m, "trace.overhead", explore_s / untraced_s);
        report::print_layers(&layers);
        layers
    } else {
        let setup = median(setups.clone());
        let rate = median(untraced.iter().map(|r| states as f64 / r.0).collect());
        println!(
            "  setup_s         {setup:.6} s (median of {} set-ups)",
            setups.len()
        );
        println!(
            "  mc_states_per_s {rate:.1} states/s (median of {} explorations of {states} states)",
            untraced.len()
        );
        vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("host_ops_per_s", rate, "1/s"),
        ]
    };
    Outcome {
        attempted: states * runs as u64,
        failed: 0,
        problems,
        metrics,
    }
}
