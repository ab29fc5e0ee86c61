//! The NEUROPULS wall-clock benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare PARENT_RUNS CHANGE_RUNS
//! ```
//!
//! A run prints the merged `neuropuls-bench-v2` report on one line,
//! then, as the last line, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics untraced, or the per-layer
//! metrics with `--trace 1`. See `benchmark/README.md`.

mod compare;
mod json;
mod ladder;
mod metrics;
mod run;
mod stats;
mod timed;
mod workloads;

use run::{Options, DEFAULT_SECONDS, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]\n       benchmark compare PARENT_RUNS CHANGE_RUNS";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, parent, change] => match compare::run(parent, change) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => fail(&e),
            },
            _ => fail(USAGE),
        };
    }
    let (opts, child) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&format!("{e}\n{USAGE}")),
    };
    if child {
        return match run::child(&opts.workloads[0], opts.seed, opts.seconds, opts.trace) {
            Ok(report) => {
                println!("{}", report.render());
                ExitCode::SUCCESS
            }
            Err(e) => fail(&e),
        };
    }
    match run::parent(&opts) {
        Ok((report, contract)) => {
            println!("{}", report.render());
            println!("{}", contract.render());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}");
    ExitCode::from(2)
}

/// Parses the run flags; returns the options and whether this process
/// is a per-workload child.
fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut opts = Options {
        workloads: run::all_workloads(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => opts.workloads = run::all_workloads(),
            "--workload" if workloads::info(value).is_some() => {
                opts.workloads = vec![value.to_string()];
            }
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?.max(1),
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if child && opts.workloads.len() != 1 {
        return Err("a child runs exactly one workload".into());
    }
    Ok((opts, child))
}
