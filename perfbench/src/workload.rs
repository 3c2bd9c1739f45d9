//! The three workloads and the inputs each one generates from the run's
//! seed. The program under test only ever sees these generated inputs:
//! G.721 speech samples and seeded MiniC programs.

use spmlab::{GridSpec, MemArchSpec};
use spmlab_bench::fuzz::{default_fuzz_specs, random_spec_for_seed};
use spmlab_workloads::gen::{generate_for_seed, reference_arch};
use spmlab_workloads::{inputs, Benchmark, G721};

/// The seed whose `(label, sim_cycles)` digests are pinned in
/// [`crate::check::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// G.721 samples per run (the shipped typical input's length).
const G721_SAMPLES: usize = 256;

/// Generated programs per `gen-cold` repetition; a multiple of four so
/// every footprint class gets the same share.
pub const GEN_PROGRAMS: u64 = 160;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The G.721 large-cache grid: replay-bound, footprint-memo heavy.
    DseGrid,
    /// G.721 WCET-aware scratchpad allocation: analyzer-bound.
    WcetAlloc,
    /// Many small generated programs, each in a fresh pipeline:
    /// set-up-bound and cold.
    GenCold,
}

/// One pipeline to build and the axis to sweep on it.
pub struct Job {
    /// The program.
    pub benchmark: Benchmark,
    /// Its input vector.
    pub input: Vec<i32>,
    /// The memory architectures to sweep.
    pub specs: Vec<MemArchSpec>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::DseGrid, Workload::WcetAlloc, Workload::GenCold];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseGrid => "dse-grid",
            Workload::WcetAlloc => "wcet-alloc",
            Workload::GenCold => "gen-cold",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The jobs of one repetition, generated from `seed`. Every
    /// repetition of a run sweeps the same jobs with fresh pipelines.
    ///
    /// # Errors
    ///
    /// A grid that fails to enumerate (a bug in the grid literal).
    pub fn jobs(self, seed: u64) -> Result<Vec<Job>, String> {
        match self {
            Workload::DseGrid => Ok(vec![g721_job(seed, DSE_GRID)?]),
            Workload::WcetAlloc => Ok(vec![g721_job(seed, WCET_ALLOC_GRID)?]),
            Workload::GenCold => Ok(gen_jobs(seed, GEN_PROGRAMS)),
        }
    }
}

/// Unified L1 of 256 B to 64 KiB (factor 4) in both write policies, behind no L2 or
/// a 64 KiB or 256 KiB L2, over main latency 0 or 10: 60 distinct points.
const DSE_GRID: &str = r#"{
  "benchmark": "g721",
  "l1_shape": ["unified"],
  "l1_size": {"from": 256, "to": 65536, "factor": 4},
  "l1_policy": ["wt", "wb"],
  "l2_size": [0, 65536, 262144],
  "main_latency": [0, 10]
}"#;

/// A 1 KiB or 4 KiB WCET-aware scratchpad beside a split 512+512 L1 and
/// a 4 KiB L2, over main latency 0 or 10: 4 points.
const WCET_ALLOC_GRID: &str = r#"{
  "benchmark": "g721",
  "spm_size": [1024, 4096],
  "spm_alloc": ["wcet"],
  "l1_shape": ["split"],
  "l1_size": [1024],
  "l2_size": [4096],
  "main_latency": [0, 10]
}"#;

fn g721_job(seed: u64, grid: &str) -> Result<Job, String> {
    let (specs, _) = GridSpec::from_json(grid)?.axis()?;
    Ok(Job {
        benchmark: G721.clone(),
        input: inputs::speech_like(G721_SAMPLES, seed),
        specs,
    })
}

/// `count` generated programs, seeded `seed << 16` onwards, each on the
/// four default fuzz machines plus its own random machine.
pub fn gen_jobs(seed: u64, count: u64) -> Vec<Job> {
    let arch = reference_arch();
    (0..count)
        .map(|i| {
            let program_seed = (seed << 16).wrapping_add(i);
            let benchmark = generate_for_seed(program_seed, &arch).benchmark();
            let mut specs: Vec<MemArchSpec> =
                default_fuzz_specs().into_iter().map(|(_, s)| s).collect();
            specs.push(random_spec_for_seed(program_seed).1);
            Job {
                input: benchmark.typical_input(),
                benchmark,
                specs,
            }
        })
        .collect()
}
