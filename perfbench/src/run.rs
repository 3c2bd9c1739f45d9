//! The untraced run: one repetition of the workload with fresh
//! pipelines, and the end-to-end metrics it gives.

use crate::check::{bound_ratio_gmean, digest, Row, Verdict};
use crate::metrics::{Report, END_TO_END};
use crate::workload::{Job, Workload};
use spmlab::pipeline::Pipeline;
use spmlab::sweep::spec_sweep_outcomes;
use spmlab::SpecOutcome;
use std::time::Instant;

/// One repetition: every job's pipeline built and its axis swept.
pub struct Rep {
    /// Host seconds spent building pipelines.
    pub setup_s: f64,
    /// Host seconds spent inside the sweep calls.
    pub sweep_s: f64,
    /// Every point swept, in job and axis order.
    pub rows: Vec<Row>,
}

/// Builds `job`'s pipeline; the error names the program.
pub fn build_pipeline(job: &Job) -> Result<Pipeline, String> {
    Pipeline::with_input(&job.benchmark, job.input.clone())
        .map_err(|e| format!("{}: pipeline set-up failed: {e}", job.benchmark.name))
}

/// Sweeps `job`'s axis on `pipeline`.
pub fn sweep(pipeline: &Pipeline, job: &Job) -> Result<Vec<SpecOutcome>, String> {
    spec_sweep_outcomes(pipeline, &job.specs)
        .map_err(|e| format!("{}: sweep failed: {e}", job.benchmark.name))
}

/// The rows the checks read from `job`'s sweep outcomes.
pub fn rows_of(job: &Job, outcomes: &[SpecOutcome]) -> Vec<Row> {
    outcomes
        .iter()
        .map(|o| Row::new(&job.benchmark.name, o.spec.label(), &o.outcome))
        .collect()
}

/// Runs one untraced repetition of `jobs`.
///
/// # Errors
///
/// A pipeline that cannot be built or a sweep that cannot start.
pub fn run_rep(jobs: &[Job]) -> Result<Rep, String> {
    let mut rep = Rep {
        setup_s: 0.0,
        sweep_s: 0.0,
        rows: Vec::new(),
    };
    for job in jobs {
        let t = Instant::now();
        let pipeline = build_pipeline(job)?;
        rep.setup_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let outcomes = sweep(&pipeline, job)?;
        rep.sweep_s += t.elapsed().as_secs_f64();
        rep.rows.extend(rows_of(job, &outcomes));
    }
    Ok(rep)
}

/// One end-to-end repetition of `workload` under `seed`. `run.py` runs
/// each repetition in a fresh process, so that the peak memory it reads
/// belongs to one repetition, and reports medians over them; the
/// repetition's digest lets it check that every repetition agrees.
///
/// # Errors
///
/// Input generation, pipeline set-up or sweep start-up failures.
pub fn run(workload: Workload, seed: u64) -> Result<Report, String> {
    let rep = run_rep(&workload.jobs(seed)?)?;
    let mut verdict = Verdict::default();
    verdict.add_rep(&rep.rows, &rep.rows);
    verdict.check_pinned(workload, seed, &rep.rows);
    let mut report = Report::new(
        verdict.correct(),
        verdict.attempted,
        verdict.failed,
        END_TO_END,
        &[
            ("points_per_s", rep.rows.len() as f64 / rep.sweep_s),
            ("setup_s", rep.setup_s),
            ("bound_ratio_gmean", bound_ratio_gmean(&rep.rows)),
            ("points_ok_frac", verdict.ok_frac()),
        ],
    );
    report.digest = Some(digest(&rep.rows));
    Ok(report)
}
