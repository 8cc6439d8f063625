//! The metric tables (mirrored in `BENCHMARK.json`) and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spans::json_str;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_ms_min", "ms"),
    ("op_best_ms_p50", "ms"),
    ("op_best_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_makespan_cycles", "cycles"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run (0
/// where the layer does no work on that workload).
pub const PER_LAYER: [(&str, &str); 46] = [
    ("workloads.build_ms", "ms"),
    ("workloads.compile_ms", "ms"),
    ("workloads.trace_ops", "count"),
    ("sharing.build_ms", "ms"),
    ("engine.simulate_ms.rs", "ms"),
    ("engine.simulate_ms.rrs", "ms"),
    ("engine.simulate_ms.ls", "ms"),
    ("engine.simulate_ms.pilot", "ms"),
    ("engine.sim_mops_per_s", "Mop/s"),
    ("lsm.ladder_ms", "ms"),
    ("lsm.candidates_simulated", "count"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "ratio"),
    ("memo.evictions", "count"),
    ("mpsoc.cache_miss_ratio", "ratio"),
    ("mpsoc.conflict_misses", "count"),
    ("mpsoc.busy_cycles", "cycles"),
    ("mpsoc.bus_wait_cycles", "cycles"),
    ("bus.matrix_ms.fcfs", "ms"),
    ("bus.matrix_ms.windowed", "ms"),
    ("arrivals.plan_ms", "ms"),
    ("arrivals.sim_sojourn_p99_cycles", "cycles"),
    ("serve.parse_us", "us"),
    ("serve.execute_ms_p50", "ms"),
    ("serve.rtt_over_execute", "ratio"),
    ("serve.shed", "count"),
    ("serve.pool_scenarios", "count"),
    ("serve.repeat_share", "ratio"),
    ("sweep.speedup_nproc", "ratio"),
    ("sweep.efficiency", "ratio"),
    ("host.nproc", "count"),
    ("host.effective_parallelism", "ratio"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
    ("e2e.operations", "count"),
    ("e2e.tail_percentile", "pct"),
    ("e2e.unit_samples", "count"),
    ("e2e.latency_samples", "count"),
    ("e2e.raw_run_ms_p50", "ms"),
    ("e2e.raw_req_per_s", "1/s"),
    ("e2e.raw_latency_ms_p50", "ms"),
    ("e2e.raw_latency_ms_tail", "ms"),
    ("e2e.raw_tail_percentile", "pct"),
    ("setup.samples", "count"),
];

/// Named metric values gathered during a run.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// Every output check passed.
    pub correct: bool,
    /// Operations issued in the measured window.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, unit, value)` in table order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Output {
    /// Selects `table`'s metrics from `values`. With `required`, a
    /// missing end-to-end metric is a bug in the workload code;
    /// otherwise a missing per-layer metric reads 0 (no work there).
    pub fn select(
        values: &Values,
        table: &[(&'static str, &'static str)],
        required: bool,
    ) -> Vec<(&'static str, &'static str, f64)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied();
                assert!(
                    v.is_some() || !required,
                    "end-to-end metric {name} was not measured"
                );
                (name, unit, v.unwrap_or(0.0))
            })
            .collect()
    }

    /// One line of JSON. Non-finite values (a timing whose operations
    /// all failed) print as the largest finite `f64`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { f64::MAX };
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_number(v),
                json_str(unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}
