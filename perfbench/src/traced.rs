//! The traced run: per-layer metrics.
//!
//! Each repetition times the set-up layers by calling them directly
//! ([T]: compile, link, the oracle, trace recording, and a replay of the
//! recorded trace on every distinct hierarchy of the axis), then builds
//! the pipeline and sweeps it with a `spmlab-obs` [`MemorySink`]
//! installed around the sweep call only, so every span and counter the
//! sink collects ([C]) belongs to the sweep. An untraced repetition runs
//! beside each traced one to measure the tracing overhead, which includes
//! the sweep executor dropping to one worker while a sink is installed.

use crate::check::{bound_ratio_gmean, Row, Verdict};
use crate::metrics::{median, Report, PER_LAYER};
use crate::run::{build_pipeline, rows_of, run_rep, sweep};
use crate::workload::{Job, Workload};
use spmlab_cc::SpmAssignment;
use spmlab_isa::mem::MemoryMap;
use spmlab_obs::collector::MemorySink;
use spmlab_sim::{simulate_with_trace, SimOptions};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Host seconds the harness's own timed calls took, and the work they did.
#[derive(Default)]
struct Timed {
    compile_s: f64,
    link_s: f64,
    oracle_s: f64,
    record_s: f64,
    instructions: u64,
    trace_events: u64,
    probe_s: f64,
    probe_events: u64,
    sweep_s: f64,
    l2_hits: u64,
    always_miss: u64,
}

impl Timed {
    fn setup_s(&self) -> f64 {
        self.compile_s + self.link_s + self.oracle_s + self.record_s
    }
}

fn secs<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Calls the set-up layers of `job` directly and replays the recorded
/// trace once on every distinct hierarchy of its axis.
fn time_layers(job: &Job, timed: &mut Timed) -> Result<(), String> {
    let name = &job.benchmark.name;
    let module = secs(&mut timed.compile_s, || job.benchmark.compile())
        .map_err(|e| format!("{name}: compile: {e}"))?;
    let linked = secs(&mut timed.link_s, || {
        job.benchmark.link_with_input(
            &module,
            &MemoryMap::no_spm(),
            &SpmAssignment::none(),
            &job.input,
        )
    })
    .map_err(|e| format!("{name}: link: {e}"))?;
    secs(&mut timed.oracle_s, || {
        job.benchmark.try_reference_checksum(&job.input)
    })
    .map_err(|e| format!("{name}: oracle: {e}"))?;
    let options = SimOptions {
        insn_stats: false,
        ..SimOptions::default()
    };
    let (res, trace) = secs(&mut timed.record_s, || {
        simulate_with_trace(&linked.exe, &options)
    })
    .map_err(|e| format!("{name}: record: {e}"))?;
    timed.instructions += res.instructions;
    timed.trace_events += trace.events() as u64;
    let mut hierarchies = BTreeMap::new();
    for spec in &job.specs {
        let h = spec.canonical().hierarchy();
        hierarchies.entry(format!("{h:?}")).or_insert(h);
    }
    for h in hierarchies.values().filter(|h| trace.supports(h)) {
        secs(&mut timed.probe_s, || trace.replay(h)).map_err(|e| format!("{name}: replay: {e}"))?;
        timed.probe_events += trace.events() as u64;
    }
    Ok(())
}

/// One traced repetition's per-layer values, rows and sweep seconds.
pub type TracedRep = (Vec<(&'static str, f64)>, Vec<Row>, f64);

/// Runs one traced repetition, printing its breakdown when `print`.
pub fn traced_rep(jobs: &[Job], print: bool) -> Result<TracedRep, String> {
    let sink = Arc::new(MemorySink::default());
    let mut timed = Timed::default();
    let mut rows = Vec::new();
    for job in jobs {
        time_layers(job, &mut timed)?;
        let pipeline = build_pipeline(job)?;
        let outcomes = {
            let _guard = spmlab_obs::add_sink(sink.clone());
            secs(&mut timed.sweep_s, || sweep(&pipeline, job))?
        };
        for c in outcomes.iter().filter_map(|o| o.outcome.result()) {
            timed.l2_hits += c.classify.l2_hits;
            timed.always_miss += c.classify.fetch_always_miss + c.classify.data_always_miss;
        }
        rows.extend(rows_of(job, &outcomes));
    }
    if let Err(e) = sink.validate() {
        return Err(format!("malformed span tree: {e}"));
    }
    if print {
        print_profile(&sink, &timed);
    }
    Ok((layer_values(&sink, &timed), rows, timed.sweep_s))
}

/// Self time (ms) and span count per span name.
fn profile(sink: &MemorySink) -> BTreeMap<&'static str, (f64, u64)> {
    sink.flat_profile()
        .into_iter()
        .map(|r| (r.name, (r.self_ns as f64 / 1e6, r.count)))
        .collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

fn layer_values(sink: &MemorySink, t: &Timed) -> Vec<(&'static str, f64)> {
    let prof = profile(sink);
    let self_ms = |name: &str| prof.get(name).map_or(0.0, |p| p.0);
    let c = |name: &str| sink.counter_total(name);
    let analyzer_ms: f64 = prof
        .iter()
        .filter(|(n, _)| **n == "analyze" || n.starts_with("wcet-"))
        .map(|(_, p)| p.0)
        .sum();
    let total_ms = (t.setup_s() + t.sweep_s) * 1e3;
    let pct = |ms: f64| 100.0 * ms / total_ms;
    vec![
        ("cc.compile_ms", t.compile_s * 1e3),
        ("cc.link_ms", t.link_s * 1e3),
        ("workloads.oracle_ms", t.oracle_s * 1e3),
        ("sim.record_ms", t.record_s * 1e3),
        (
            "sim.record_minsn_per_s",
            t.instructions as f64 / t.record_s / 1e6,
        ),
        ("sim.instructions", t.instructions as f64),
        ("sim.trace_events", t.trace_events as f64),
        ("sim.replay_ms", self_ms("replay")),
        ("sim.replay_events", c("replay_events") as f64),
        (
            "sim.replay_mevents_per_s",
            t.probe_events as f64 / t.probe_s / 1e6,
        ),
        ("wcet.analyze_ms", analyzer_ms),
        (
            "wcet.analyze_calls",
            prof.get("wcet-pass-costing").map_or(0, |p| p.1) as f64,
        ),
        ("wcet.fixpoint_ms", self_ms("wcet-fn-fixpoint")),
        ("wcet.summary_ms", self_ms("wcet-fn-summary")),
        ("wcet.cost_ms", self_ms("wcet-fn-cost")),
        ("wcet.fixpoint_iterations", c("fixpoint_iterations") as f64),
        ("wcet.fixpoint_runs", c("fixpoint_runs") as f64),
        ("wcet.l2_hits", t.l2_hits as f64),
        ("wcet.always_miss", t.always_miss as f64),
        ("alloc.calls", prof.get("alloc").map_or(0, |p| p.1) as f64),
        (
            "alloc.memo_hit_ratio",
            ratio(
                c("alloc_memo_hit"),
                c("alloc_memo_hit") + c("alloc_memo_miss"),
            ),
        ),
        ("core.sweep_ms", t.sweep_s * 1e3),
        (
            "core.sweep_memo_hit_ratio",
            ratio(
                c("sweep_memo_hit"),
                c("sweep_memo_hit") + c("sweep_memo_miss"),
            ),
        ),
        ("core.replay_points", c("sweep_replay") as f64),
        (
            "core.replayed_frac",
            ratio(c("sweep_replay"), c("sweep_replay") + c("sweep_full_sim")),
        ),
        (
            "core.spm_link_memo_hit_ratio",
            ratio(
                c("spm_link_memo_hit"),
                c("spm_link_memo_hit") + c("spm_link_memo_miss"),
            ),
        ),
        ("share.setup_pct", pct(t.setup_s() * 1e3)),
        ("share.replay_pct", pct(self_ms("replay"))),
        (
            "share.analyzer_alloc_pct",
            pct(analyzer_ms + self_ms("alloc")),
        ),
    ]
}

/// The traced repetition's breakdown on standard error: the harness's
/// own timed set-up calls, then the sweep's flat profile by self time.
fn print_profile(sink: &MemorySink, t: &Timed) {
    let total_ms = (t.setup_s() + t.sweep_s) * 1e3;
    let line = |what: &str, count: u64, ms: f64| {
        eprintln!(
            "  {what:<22} {count:>7} {ms:>10.2} ms {:>6.1} %",
            100.0 * ms / total_ms
        );
    };
    eprintln!("perfbench: traced repetition, {total_ms:.1} ms = set-up calls + sweep");
    line("[T] compile", 0, t.compile_s * 1e3);
    line("[T] link", 0, t.link_s * 1e3);
    line("[T] oracle", 0, t.oracle_s * 1e3);
    line("[T] record", 0, t.record_s * 1e3);
    for r in sink.flat_profile() {
        line(&format!("[C] {}", r.name), r.count, r.self_ns as f64 / 1e6);
    }
}

/// The per-layer run of `workload` under `seed` for at least `seconds`.
///
/// # Errors
///
/// Input generation, layer calls, pipeline set-up or sweep start-up
/// failures, or a malformed span tree.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let jobs = workload.jobs(seed)?;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut all_rows = Vec::new();
    while samples.is_empty() || Instant::now() < deadline {
        let plain = run_rep(&jobs)?;
        untraced_s.push(plain.sweep_s);
        all_rows.push(plain.rows);
        let (values, rows, sweep_s) = traced_rep(&jobs, samples.is_empty())?;
        samples.push(values);
        traced_s.push(sweep_s);
        all_rows.push(rows);
    }
    let first = &all_rows[0];
    let mut verdict = Verdict::default();
    for rows in &all_rows {
        verdict.add_rep(rows, first);
    }
    verdict.check_pinned(workload, seed, first);
    let mut values: Vec<(&str, f64)> = samples[0]
        .iter()
        .map(|(name, _)| {
            let xs: Vec<f64> = samples
                .iter()
                .map(|s| s.iter().find(|(n, _)| n == name).expect("same metrics").1)
                .collect();
            (*name, median(&xs))
        })
        .collect();
    values.push((
        "core.trace_overhead",
        median(&traced_s) / median(&untraced_s),
    ));
    eprintln!(
        "perfbench: {} seed {seed}: {} traced repetitions, bound ratio gmean {:.4}",
        workload.name(),
        samples.len(),
        bound_ratio_gmean(first)
    );
    Ok(Report::new(
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        PER_LAYER,
        &values,
    ))
}
