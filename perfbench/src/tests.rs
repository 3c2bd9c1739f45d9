//! The benchmark's own tests: the metric registry agrees with
//! `BENCHMARK.json`, the counts a traced repetition reports repeat
//! exactly under one seed, and the seed drives the generated inputs.

use crate::check::{bound_ratio_gmean, digest, pinned_digest};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::run_rep;
use crate::traced::traced_rep;
use crate::workload::{gen_jobs, Job, Workload, DEFAULT_SEED, GEN_PROGRAMS};
use crate::{parse_args, Args};
use spmlab_isa::archspec::json::{self, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[test]
fn registry_matches_benchmark_json() {
    let doc = benchmark_json();
    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = array(&doc, key);
        assert_eq!(listed.len(), registry.len(), "{key}: metric count");
        for (entry, def) in listed.iter().zip(registry) {
            let field = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(field("name"), Some(def.name), "{key}: order and names");
            assert_eq!(field("unit"), Some(def.unit), "{}: unit", def.name);
            assert!(
                matches!(field("better"), Some("lower" | "higher")),
                "{}: better direction",
                def.name
            );
        }
    }
    let bound = |m: &Value| match m.get("bound") {
        Some(Value::Num(b)) if *b > 0.0 && *b <= 0.25 => *b,
        other => panic!("bound out of (0, 0.25]: {other:?}"),
    };
    let end_to_end = array(&doc, "end_to_end");
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert!(end_to_end.iter().all(|m| bound(m) <= bound(setup)));
    let workloads = array(&doc, "workloads");
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).expect("workload why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn metric_names_and_units_are_well_formed() {
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
    for (i, d) in all.iter().enumerate() {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            d.unit,
            d.name
        );
        assert!(
            all[..i].iter().all(|e| e.name != d.name),
            "{} listed twice",
            d.name
        );
    }
}

/// Small jobs covering replay, the analyzer, the footprint memo and the
/// allocator memos: four generated programs plus G.721's scratchpad grid
/// run on insertion sort.
fn small_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = gen_jobs(seed, 4);
    let g721 = Workload::WcetAlloc.jobs(seed).expect("grid");
    jobs.push(Job {
        benchmark: spmlab_workloads::INSERTSORT.clone(),
        input: spmlab_workloads::INSERTSORT.typical_input(),
        specs: g721.into_iter().next().expect("one job").specs,
    });
    jobs
}

#[test]
fn traced_counts_repeat_exactly_under_one_seed() {
    // The sink registry is process-wide: keep other tests' sweeps out.
    let _alone = spmlab_obs::exclusive();
    let jobs = small_jobs(7);
    let (a, rows_a, _) = traced_rep(&jobs, false).expect("first traced repetition");
    let (b, rows_b, _) = traced_rep(&jobs, false).expect("second traced repetition");
    let value = |s: &[(&str, f64)], name: &str| {
        s.iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    for name in [
        "sim.replay_events",
        "sim.instructions",
        "sim.trace_events",
        "wcet.fixpoint_iterations",
        "wcet.fixpoint_runs",
        "wcet.analyze_calls",
        "wcet.l2_hits",
        "wcet.always_miss",
        "alloc.calls",
        "alloc.memo_hit_ratio",
        "core.sweep_memo_hit_ratio",
        "core.spm_link_memo_hit_ratio",
        "core.replay_points",
    ] {
        assert_eq!(value(&a, name), value(&b, name), "{name}");
    }
    assert!(
        value(&a, "alloc.memo_hit_ratio") > 0.0,
        "allocator memo exercised"
    );
    assert_eq!(rows_a, rows_b);
    assert_eq!(bound_ratio_gmean(&rows_a), bound_ratio_gmean(&rows_b));
    // The untraced (parallel) sweep produces the same points.
    assert_eq!(run_rep(&jobs).expect("untraced repetition").rows, rows_a);
    assert!(rows_a.iter().all(|r| !r.is_failed()));
}

#[test]
fn seed_changes_generated_inputs() {
    for w in Workload::ALL {
        let a = w.jobs(1).expect("jobs");
        let b = w.jobs(2).expect("jobs");
        let same = a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.input == y.input && x.benchmark.source == y.benchmark.source);
        assert!(!same, "{}: seeds 1 and 2 give the same inputs", w.name());
        let again = w.jobs(1).expect("jobs");
        assert!(
            a.iter()
                .zip(&again)
                .all(|(x, y)| x.input == y.input && x.benchmark.source == y.benchmark.source),
            "{}: one seed gives one input",
            w.name()
        );
    }
}

#[test]
fn grids_have_the_documented_sizes() {
    for (w, points) in [(Workload::DseGrid, 60), (Workload::WcetAlloc, 4)] {
        let jobs = w.jobs(DEFAULT_SEED).expect("jobs");
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].specs.len(), points, "{}", w.name());
    }
    let gen = Workload::GenCold.jobs(DEFAULT_SEED).expect("jobs");
    assert_eq!(gen.len() as u64, GEN_PROGRAMS);
    assert!(gen.iter().all(|j| j.specs.len() == 5));
}

/// `wcet-alloc` is left out for its run time (about 17 s); every run of
/// the benchmark under the default seed checks it.
#[test]
fn default_seed_reproduces_the_pinned_digests() {
    let _alone = spmlab_obs::exclusive();
    for w in [Workload::DseGrid, Workload::GenCold] {
        let rep = run_rep(&w.jobs(DEFAULT_SEED).expect("jobs")).expect("repetition");
        assert_eq!(digest(&rep.rows), pinned_digest(w), "{}", w.name());
    }
}

#[test]
fn parses_the_command_line() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    assert_eq!(
        parse_args(&argv("--workload gen-cold --seed 3 --seconds 10 --trace 1")),
        Ok(Args {
            workload: Workload::GenCold,
            seed: 3,
            seconds: 10,
            trace: true,
        })
    );
    assert!(parse_args(&argv("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload dse-grid --seed x --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload dse-grid --seed 1 --seconds 10 --trace 2")).is_err());
    assert!(parse_args(&argv("--workload dse-grid --seconds 10")).is_err());
}
