//! Output checks: every point completes, every WCET bound covers its
//! simulated cycles, every repetition reproduces the first, and the
//! default seed reproduces the pinned `(label, sim_cycles)` digest.
//!
//! The digest deliberately leaves `wcet_cycles` out: a change that
//! tightens the bound is scored by `bound_ratio_gmean`, not failed here.

use crate::workload::Workload;
use spmlab::PointOutcome;

/// How one sweep point ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Measured with the full-precision analysis.
    Ok,
    /// Measured under an exhausted analysis budget (sound, less tight).
    Degraded,
    /// The point failed; the sweep's rendered error.
    Failed(String),
}

/// One sweep point as the checks see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Program name (the benchmark the pipeline was built for).
    pub program: String,
    /// Configuration label.
    pub label: String,
    /// Simulated cycles (0 for failed points).
    pub sim_cycles: u64,
    /// Static WCET bound (0 for failed points).
    pub wcet_cycles: u64,
    /// How the point ended.
    pub status: Status,
}

impl Row {
    /// Converts a sweep outcome of `program`.
    pub fn new(program: &str, label: String, outcome: &PointOutcome) -> Row {
        let (sim_cycles, wcet_cycles) = outcome
            .result()
            .map_or((0, 0), |r| (r.sim_cycles, r.wcet_cycles));
        let status = match outcome {
            PointOutcome::Ok(_) => Status::Ok,
            PointOutcome::Degraded(_) => Status::Degraded,
            PointOutcome::Failed(f) => Status::Failed(f.error.clone()),
        };
        Row {
            program: program.to_string(),
            label,
            sim_cycles,
            wcet_cycles,
            status,
        }
    }

    /// Whether the point failed or its bound does not cover the
    /// simulation.
    pub fn is_failed(&self) -> bool {
        matches!(self.status, Status::Failed(_)) || self.sim_cycles > self.wcet_cycles
    }
}

/// FNV-1a over `program|label|sim_cycles` lines, in axis order.
pub fn digest(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for b in format!("{}|{}|{}\n", r.program, r.label, r.sim_cycles).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `(label, sim_cycles)` digest of `workload` under
/// [`crate::workload::DEFAULT_SEED`], recorded when the benchmark was
/// defined.
pub fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::DseGrid => 0x8d9a_8661_a022_49be,
        Workload::WcetAlloc => 0xa3e4_1e80_7638_4db0,
        Workload::GenCold => 0xef12_b681_dd79_2592,
    }
}

/// Geometric mean of `wcet_cycles / sim_cycles` over the completed points.
pub fn bound_ratio_gmean(rows: &[Row]) -> f64 {
    let logs: Vec<f64> = rows
        .iter()
        .filter(|r| !matches!(r.status, Status::Failed(_)) && r.sim_cycles > 0)
        .map(|r| (r.wcet_cycles as f64 / r.sim_cycles as f64).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// The checks' verdict on all repetitions of one run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Points attempted over all repetitions.
    pub attempted: u64,
    /// Points that failed a check.
    pub failed: u64,
    /// Points measured under an exhausted analysis budget.
    pub degraded: u64,
}

impl Verdict {
    /// Checks one repetition's rows; a point that differs from the same
    /// point of the first repetition counts as failed.
    pub fn add_rep(&mut self, rows: &[Row], first: &[Row]) {
        self.attempted += rows.len() as u64;
        for (i, r) in rows.iter().enumerate() {
            if r.is_failed() {
                self.fail(&format!(
                    "{} [{}] sim {} wcet {} {:?}",
                    r.program, r.label, r.sim_cycles, r.wcet_cycles, r.status
                ));
            } else if first.get(i) != Some(r) {
                self.fail(&format!(
                    "{} [{}] differs from the first repetition",
                    r.program, r.label
                ));
            } else if r.status == Status::Degraded {
                self.degraded += 1;
            }
        }
    }

    /// Under the default seed, compares the first repetition with the
    /// pinned digest; a mismatch fails every point it covers.
    pub fn check_pinned(&mut self, workload: Workload, seed: u64, first: &[Row]) {
        if seed != crate::workload::DEFAULT_SEED {
            return;
        }
        let (got, want) = (digest(first), pinned_digest(workload));
        if got != want {
            eprintln!(
                "perfbench: {} digest {got:#018x} differs from the pinned {want:#018x}",
                workload.name()
            );
            self.failed += first.len() as u64;
        }
    }

    fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: point failed: {what}");
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Share of attempted points that completed without failing or
    /// degrading.
    pub fn ok_frac(&self) -> f64 {
        self.attempted.saturating_sub(self.failed + self.degraded) as f64
            / self.attempted.max(1) as f64
    }
}
