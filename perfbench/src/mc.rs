//! The `mc-2pc` workload: exhaustive exploration of the two-transfer 2PC
//! world, with optional host timing of the scenario's closures.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use tca_sim::mc::{explore, McConfig, McReport, McScenario};
use tca_sim::NodeId;
use tca_txn::mc_scenarios::twopc_mc_scenario;

pub const TRANSFERS: u64 = 2;
pub const DEPTH: usize = 9;
pub const CRASH_NODE: u32 = 2;
/// The state count of this exploration; any other count is a changed
/// exploration, not a faster one.
pub const EXPECTED_STATES: u64 = 36_181;

pub fn config() -> McConfig {
    McConfig {
        max_depth: DEPTH,
        max_states: 5_000_000,
        max_crashes: 1,
        max_drops: 1,
        crashable: vec![NodeId(CRASH_NODE)],
        ..McConfig::default()
    }
}

/// Host time spent in each kind of scenario closure, and build calls.
#[derive(Default)]
pub struct ClosureTimes {
    pub builds: Cell<u64>,
    pub build_ns: Cell<u64>,
    pub fp_ns: Cell<u64>,
    pub check_ns: Cell<u64>,
}

fn add_since(cell: &Cell<u64>, start: Instant) {
    cell.set(cell.get() + start.elapsed().as_nanos() as u64);
}

/// `scenario` with every closure wrapped by a host timer.
pub fn timed_scenario(scenario: McScenario, times: &Rc<ClosureTimes>) -> McScenario {
    let McScenario {
        name,
        build,
        payload_fp,
        state_fp,
        step_invariant,
        audit,
    } = scenario;
    let t = Rc::clone(times);
    let build = Box::new(move || {
        let start = Instant::now();
        let sim = build();
        t.builds.set(t.builds.get() + 1);
        add_since(&t.build_ns, start);
        sim
    });
    let t = Rc::clone(times);
    let payload_fp = Box::new(move |p: &tca_sim::Payload| {
        let start = Instant::now();
        let fp = payload_fp(p);
        add_since(&t.fp_ns, start);
        fp
    });
    let t = Rc::clone(times);
    let state_fp = Box::new(move |sim: &tca_sim::Sim| {
        let start = Instant::now();
        let fp = state_fp(sim);
        add_since(&t.fp_ns, start);
        fp
    });
    let t = Rc::clone(times);
    let step_invariant = Box::new(move |sim: &tca_sim::Sim| {
        let start = Instant::now();
        let verdict = step_invariant(sim);
        add_since(&t.check_ns, start);
        verdict
    });
    let t = Rc::clone(times);
    let audit = Box::new(move |sim: &tca_sim::Sim| {
        let start = Instant::now();
        let verdict = audit(sim);
        add_since(&t.check_ns, start);
        verdict
    });
    McScenario {
        name,
        build,
        payload_fp,
        state_fp,
        step_invariant,
        audit,
    }
}

/// Set-up: build the scenario and the initial world every exploration
/// rewinds to. Returns the seconds it took and the scenario.
pub fn setup() -> (f64, McScenario) {
    let start = Instant::now();
    let scenario = twopc_mc_scenario(TRANSFERS);
    let world = (scenario.build)();
    let setup_s = start.elapsed().as_secs_f64();
    drop(world);
    (setup_s, scenario)
}

/// One exploration: set-up seconds, exploration seconds, the report.
pub fn run(times: Option<&Rc<ClosureTimes>>) -> (f64, f64, McReport) {
    let (setup_s, scenario) = setup();
    let scenario = match times {
        Some(times) => timed_scenario(scenario, times),
        None => scenario,
    };
    let config = config();
    let start = Instant::now();
    let report = explore(&scenario, &config);
    (setup_s, start.elapsed().as_secs_f64(), report)
}

/// The run fails unless the exploration completed, found nothing, and
/// explored exactly the known state count.
pub fn audit(report: &McReport) -> Result<(), String> {
    if let Some(v) = &report.violation {
        return Err(format!(
            "violation: {} (schedule {})",
            v.message, v.schedule
        ));
    }
    if report.truncated {
        return Err("exploration truncated".into());
    }
    if report.states != EXPECTED_STATES {
        return Err(format!(
            "explored {} states, expected {EXPECTED_STATES}",
            report.states
        ));
    }
    Ok(())
}
