//! The metric registry (name and unit) and the one-line JSON result.
//! `BENCHMARK.json` lists the same metrics with their better direction;
//! a test keeps the two in step.

/// One metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by an untraced run. `peak_rss_mb` is
/// measured by `run.py` around this process, so the binary itself does
/// not print it.
pub const END_TO_END: &[MetricDef] = &[
    def("points_per_s", "points/s"),
    def("setup_s", "s"),
    def("peak_rss_mb", "MB"),
    def("bound_ratio_gmean", "ratio"),
    def("points_ok_frac", "fraction"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("cc.compile_ms", "ms"),
    def("cc.link_ms", "ms"),
    def("workloads.oracle_ms", "ms"),
    def("sim.record_ms", "ms"),
    def("sim.record_minsn_per_s", "Minsn/s"),
    def("sim.instructions", "count"),
    def("sim.trace_events", "count"),
    def("sim.replay_ms", "ms"),
    def("sim.replay_events", "count"),
    def("sim.replay_mevents_per_s", "Mevents/s"),
    def("wcet.analyze_ms", "ms"),
    def("wcet.analyze_calls", "count"),
    def("wcet.fixpoint_ms", "ms"),
    def("wcet.summary_ms", "ms"),
    def("wcet.cost_ms", "ms"),
    def("wcet.fixpoint_iterations", "count"),
    def("wcet.fixpoint_runs", "count"),
    def("wcet.l2_hits", "count"),
    def("wcet.always_miss", "count"),
    def("alloc.calls", "count"),
    def("alloc.memo_hit_ratio", "ratio"),
    def("core.sweep_ms", "ms"),
    def("core.sweep_memo_hit_ratio", "ratio"),
    def("core.replay_points", "count"),
    def("core.replayed_frac", "fraction"),
    def("core.spm_link_memo_hit_ratio", "ratio"),
    def("core.trace_overhead", "ratio"),
    def("share.setup_pct", "%"),
    def("share.replay_pct", "%"),
    def("share.analyzer_alloc_pct", "%"),
];

/// The result line: correctness, point counts and named metric values.
#[derive(Debug)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Points attempted.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
    /// Metric values, in registry order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// `(label, sim_cycles)` digest of the points, for `run.py` to compare
    /// across repetitions (untraced runs only).
    pub digest: Option<u64>,
}

impl Report {
    /// Builds a report from `(name, value)` pairs, which must cover every
    /// metric of `expected` except `peak_rss_mb` (added by `run.py`).
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        expected: &'static [MetricDef],
        values: &[(&str, f64)],
    ) -> Report {
        let metrics = expected
            .iter()
            .filter(|d| d.name != "peak_rss_mb")
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
                    .1;
                (d, v)
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
            digest: None,
        }
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(*v),
                    d.unit
                )
            })
            .collect();
        let digest = self
            .digest
            .map_or(String::new(), |d| format!(", \"digest\": \"{d:#018x}\""));
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}{digest}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v:?}")
}

/// Median of `xs` (the mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
