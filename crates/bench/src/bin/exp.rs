//! Regenerates the paper's experiments: `exp [--smoke] [ID ...]`.
//!
//! With no ID, every experiment in [`RUNNERS`] fans out on
//! `neuropuls_rt::pool` and prints in report order (the run behind
//! `experiment_results_full.txt`). Named IDs run one after another,
//! each followed by its host-timed gate if it has one: E19's tracing
//! overhead budget and E21's batched-vs-scalar wall clock. Every
//! experiment asserts its deterministic gates itself, in either mode.
//!
//! stdout carries only the deterministic tables, byte-identical at any
//! `NEUROPULS_THREADS` value (CI diffs 1 thread against 8). Named runs
//! print their host timings and gate lines to stderr. The no-ID run
//! prints only its harness wall clock there: its experiments share the
//! pool, so their host timings would measure each other's load.
//! `--smoke` selects the CI-sized configuration. An unknown flag or ID
//! prints the usage line and exits with status 2 before running
//! anything.

use neuropuls_bench::{Rendered, Scale, RUNNERS};
use neuropuls_rt::pool;
use std::process::ExitCode;
use std::time::Instant;

/// Sends `rendered`'s host-measured lines to stderr and returns its
/// deterministic part for stdout.
fn stable(rendered: &Rendered) -> String {
    for line in rendered.volatile_lines() {
        eprintln!("[host timing] {}: {line}", rendered.title);
    }
    rendered.stable_string()
}

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut selected = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            scale = Scale::Smoke;
        } else if let Some(&runner) = RUNNERS.iter().find(|(id, _)| *id == arg) {
            selected.push(runner);
        } else {
            let ids: Vec<&str> = RUNNERS.iter().map(|(id, _)| *id).collect();
            eprintln!("exp: unknown argument `{arg}`");
            eprintln!("usage: exp [--smoke] [ID ...], ID one of {}", ids.join(" "));
            return ExitCode::from(2);
        }
    }

    if selected.is_empty() {
        let threads = pool::current_threads();
        let t0 = Instant::now();
        let outputs = pool::par_map(RUNNERS.to_vec(), |(_, run)| run(scale).0.stable_string());
        let elapsed = t0.elapsed().as_secs_f64();
        for o in &outputs {
            print!("{o}");
        }
        eprintln!("harness wall clock: {elapsed:.2} s at {threads} threads");
    } else {
        for (_, run) in selected {
            let (rendered, host_gate) = run(scale);
            print!("{}", stable(&rendered));
            if let Some(gate) = host_gate {
                gate();
            }
        }
    }
    ExitCode::SUCCESS
}
