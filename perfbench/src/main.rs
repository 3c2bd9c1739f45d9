//! Benchmark of the spmlab design-space explorer: builds pipelines for
//! seeded inputs, sweeps memory architectures through the public API,
//! checks every point, and prints one JSON result line.
//!
//! ```text
//! spmlab-perfbench --workload <dse-grid|wcet-alloc|gen-cold> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs one repetition and prints its end-to-end metrics
//! (except `peak_rss_mb`, which `run.py` measures around this process,
//! repeating it for `--seconds`); `--trace 1` repeats traced repetitions
//! for `--seconds` and prints the per-layer metrics. See `README.md` in
//! this directory.

mod check;
mod metrics;
mod run;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: spmlab-perfbench --workload <dse-grid|wcet-alloc|gen-cold> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spmlab-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        run::run(args.workload, args.seed)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("spmlab-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
