//! Statistics, the per-layer metric table, and the output formats.

use std::fmt::Write as _;

use crate::client::LogData;
use crate::host::HostTrace;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// Every per-layer metric with its unit, in report order. A traced run
/// prints all of them on every workload; a layer the workload does not
/// run, or cannot separate from outside the program, reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.kernel.events", "count"),
    ("sim.kernel.events_per_txn", "count"),
    ("sim.kernel.self_s", "s"),
    ("sim.kernel.ns_per_event", "ns"),
    ("sim.kernel.step_s", "s"),
    ("sim.kernel.spans", "count"),
    ("sim.kernel.spans_dropped", "count"),
    ("sim.net.sent", "count"),
    ("sim.net.delivered", "count"),
    ("storage.server.calls", "count"),
    ("storage.server.self_s", "s"),
    ("storage.server.ns_per_call", "ns"),
    ("storage.server.queue_wait_p50_ms", "ms"),
    ("storage.server.queue_wait_p99_ms", "ms"),
    ("storage.server.hot_shard_share", "ratio"),
    ("storage.server.min_shard_calls", "count"),
    ("storage.server.deduped", "count"),
    ("storage.server.lock_waits", "count"),
    ("storage.server.call_retries", "count"),
    ("storage.engine.rows", "count"),
    ("storage.engine.commits", "count"),
    ("storage.engine.aborts", "count"),
    ("storage.router.calls", "count"),
    ("storage.router.self_s", "s"),
    ("storage.router.ns_per_call", "ns"),
    ("messaging.rpc.calls", "count"),
    ("messaging.rpc.retries", "count"),
    ("messaging.rpc.failures", "count"),
    ("txn.twopc.coordinator.self_s", "s"),
    ("txn.twopc.coordinator.ns_per_call", "ns"),
    ("txn.twopc.participant.self_s", "s"),
    ("txn.twopc.participant.ns_per_call", "ns"),
    ("txn.twopc.aborted", "count"),
    ("txn.twopc.prepare_resends", "count"),
    ("txn.twopc.decision_resends", "count"),
    ("txn.twopc.rollbacks", "count"),
    ("txn.twopc.execute_p50_ms", "ms"),
    ("txn.twopc.prepare_p50_ms", "ms"),
    ("txn.twopc.decide_p50_ms", "ms"),
    ("txn.twopc.lock_wait_p99_ms", "ms"),
    ("txn.dataflow.epochs", "count"),
    ("txn.dataflow.txns_per_epoch", "count"),
    ("txn.dataflow.share_reqs_per_txn", "count"),
    ("txn.dataflow.checkpoints", "count"),
    ("txn.dataflow.resends", "count"),
    ("txn.dataflow.with_kernel_s", "s"),
    ("txn.dataflow.with_kernel_ns_per_txn", "ns"),
    ("sim.mc.states", "count"),
    ("sim.mc.leaves", "count"),
    ("sim.mc.pruned_visited", "count"),
    ("sim.mc.pruned_sleep", "count"),
    ("sim.mc.builds", "count"),
    ("sim.mc.builds_per_state", "count"),
    ("sim.mc.build_s", "s"),
    ("sim.mc.fp_s", "s"),
    ("sim.mc.check_s", "s"),
    ("sim.mc.self_s", "s"),
    ("bench.client.calls", "count"),
    ("bench.client.self_s", "s"),
    ("bench.client.ns_per_call", "ns"),
    ("bench.client.v_commit_per_s", "txn/s"),
    ("bench.client.v_p50_ms", "ms"),
    ("bench.client.v_p999_ms", "ms"),
    ("bench.client.fail_frac", "ratio"),
    ("bench.client.latency_samples", "count"),
    ("trace.overhead", "ratio"),
];

/// The layer table with every value 0.
pub fn empty_layers() -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

pub fn set(layers: &mut [Metric], name: &str, value: f64) {
    let metric = layers
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in LAYER_METRICS"));
    metric.value = value;
}

/// Index of the median of `values` (the lower middle for an even count):
/// the traced repetition whose layer metrics a run reports, so that they
/// come from one repetition and still add up.
pub fn median_index(values: Vec<f64>) -> usize {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    order[(order.len() - 1) / 2]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Client-observed virtual-time results of one repetition, from exact
/// per-transaction samples.
#[derive(Clone, Debug)]
pub struct Virtual {
    pub attempted: u64,
    pub committed: u64,
    pub samples: usize,
    pub commit_per_s: f64,
    pub p50_ms: f64,
    pub p999_ms: f64,
    pub fail_frac: f64,
}

impl Virtual {
    pub fn from_log(data: &LogData) -> Self {
        let mut sorted = data.latency_ns.clone();
        sorted.sort_unstable();
        let ms = |q| percentile(&sorted, q).map_or(0.0, |ns| ns as f64 / 1e6);
        let span = data
            .first_issue
            .map_or(0.0, |first| data.last_done.since(first).as_secs_f64());
        Virtual {
            attempted: data.issued,
            committed: data.committed,
            samples: sorted.len(),
            commit_per_s: data.committed as f64 / span,
            p50_ms: ms(0.5),
            p999_ms: ms(0.999),
            fail_frac: (data.issued - data.committed) as f64 / data.issued as f64,
        }
    }

    pub fn print(&self) {
        println!(
            "  v_commit_per_s  {:.1} txn per virtual s ({} of {} committed, first request to last completion)",
            self.commit_per_s, self.committed, self.attempted
        );
        println!("  v_p50_ms        {:.4} virtual ms", self.p50_ms);
        println!(
            "  v_p999_ms       {:.4} virtual ms ({} samples, {} beyond p99.9)",
            self.p999_ms,
            self.samples,
            self.samples - (self.samples as f64 * 0.999).ceil() as usize
        );
        println!(
            "  fail_frac       {:.5} (aborted, refused or unanswered over attempted)",
            self.fail_frac
        );
    }

    pub fn set_layers(&self, layers: &mut [Metric]) {
        set(layers, "bench.client.v_commit_per_s", self.commit_per_s);
        set(layers, "bench.client.v_p50_ms", self.p50_ms);
        set(layers, "bench.client.v_p999_ms", self.p999_ms);
        set(layers, "bench.client.fail_frac", self.fail_frac);
        set(layers, "bench.client.latency_samples", self.samples as f64);
    }
}

/// Print the layer table and name the layer that took the most host time.
pub fn print_layers(layers: &[Metric]) {
    for m in layers {
        println!("  {:<40} {} {}", m.name, m.value, m.unit);
    }
    // These partition the traced host time: the kernel and the wrapped
    // layers (or, on dataflow, the engine with the kernel), or the parts
    // of an exploration.
    let parts: Vec<&Metric> = [
        "sim.kernel.self_s",
        "storage.server.self_s",
        "storage.router.self_s",
        "txn.twopc.coordinator.self_s",
        "txn.twopc.participant.self_s",
        "txn.dataflow.with_kernel_s",
        "sim.mc.build_s",
        "sim.mc.fp_s",
        "sim.mc.check_s",
        "sim.mc.self_s",
        "bench.client.self_s",
    ]
    .iter()
    .filter_map(|name| layers.iter().find(|m| m.name == *name))
    .collect();
    let total: f64 = parts.iter().map(|m| m.value).sum();
    let top = parts.iter().max_by(|a, b| a.value.total_cmp(&b.value));
    if let Some(top) = top {
        println!(
            "  top host-time layer: {} ({:.1}% of traced host time)",
            top.name,
            100.0 * top.value / total
        );
    }
}

/// A finished run: what the JSON line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn json(&self) -> String {
        // A non-finite value can only come from a broken measurement; it
        // is written as null and the run is not correct.
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty() && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Write the traced run's host spans beside the kernel's Chrome trace,
/// under `.bench_out/<workload>/` in the working directory.
pub fn write_trace_files(workload: &str, trace: &HostTrace, sim: &tca_sim::Sim) {
    let dir = std::path::Path::new(".bench_out").join(workload);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("host_spans.csv"), trace.to_csv()))
        .and_then(|()| std::fs::write(dir.join("kernel_trace.json"), sim.chrome_trace()));
    match written {
        Ok(()) => println!("  trace files written to {}", dir.display()),
        Err(e) => println!("  trace files not written: {e}"),
    }
}
