//! Regenerates every experiment, fanning the independent experiments
//! out on `neuropuls_rt::pool` and printing them in canonical order.
//!
//! stdout carries only the experiment tables — byte-identical at any
//! `NEUROPULS_THREADS` value (CI diffs 1 thread against N). Timing
//! chatter, including the harness wall clock, goes to stderr.
//!
//! Flags: `--smoke` for the CI-sized configuration.

use neuropuls_bench::{experiments, Rendered, Scale};
use neuropuls_rt::pool;
use std::time::Instant;

/// One experiment: its id and a uniform `Scale -> Rendered` entry
/// point.
type Runner = (&'static str, fn(Scale) -> Rendered);

/// Every experiment in report order.
fn runners() -> Vec<Runner> {
    vec![
        ("E1", |s| experiments::fig3::run_ro(s).0),
        ("E1b", |s| experiments::fig3::run_photonic(s).0),
        ("E2", |s| experiments::puf_quality::run(s).0),
        ("E3", |s| experiments::table1::run(s).0),
        ("E4", |s| experiments::auth::run(s).0),
        ("E5", |s| experiments::attestation::run(s).0),
        ("E6", |s| experiments::ml_attack::run(s).0),
        ("E7", |s| experiments::side_channel::run(s).0),
        ("E8", |s| experiments::remanence::run(s).0),
        ("E9", |s| experiments::system::run(s).0),
        ("E10", |s| experiments::keygen::run(s).0),
        ("E11", |s| experiments::environment::run(s).0),
        ("E12", |s| experiments::eke::run(s).0),
        ("E13", |s| experiments::tamper::run(s).0),
        ("E14", |s| experiments::analog::run(s).0),
        ("E15", |s| experiments::aging::run(s).0),
        ("E16", |s| experiments::trng::run(s).0),
        ("E17", |s| experiments::fleet::run(s).0),
        ("E18", |s| experiments::protocol_robustness::run(s).0),
        ("E19", |s| {
            let (rendered, outcome) = experiments::trace_overhead::run(s);
            // The traced fleet event log is the cross-thread-count
            // determinism artifact; CI diffs it at 1 vs 8 threads.
            match std::fs::write("TRACE_exp_fleet.jsonl", &outcome.trace_jsonl) {
                Ok(()) => eprintln!("wrote TRACE_exp_fleet.jsonl ({} events)", outcome.events),
                Err(e) => eprintln!("could not write TRACE_exp_fleet.jsonl: {e}"),
            }
            rendered
        }),
        ("E20", |s| experiments::gateway::run(s).0),
        // E21 pins the pool width internally for its 1-vs-8 identity
        // check; `with_threads` is a thread-local override, so running
        // it inside this par_map fan-out is safe.
        ("E21", |s| experiments::accel_throughput::run(s).0),
        ("E22", |s| experiments::sched_scaling::run(s).0),
        ("E23", |s| experiments::fleet_longrun::run(s).0),
        ("E24", |s| experiments::admission::run(s).0),
    ]
}

/// Runs every experiment at the pool's current width and returns the
/// deterministic rendered outputs in report order (host-measured
/// volatile lines go straight to stderr).
fn run_all(scale: Scale) -> Vec<String> {
    pool::par_map(runners(), |(_, run)| {
        let rendered = run(scale);
        for line in rendered.volatile_lines() {
            eprintln!("[host timing] {}: {line}", rendered.title);
        }
        rendered.stable_string()
    })
}

fn main() {
    let scale = Scale::from_args();
    let threads = pool::current_threads();

    let t0 = Instant::now();
    let outputs = run_all(scale);
    let elapsed = t0.elapsed().as_secs_f64();
    for o in &outputs {
        print!("{o}");
    }
    eprintln!("harness wall clock: {elapsed:.2} s at {threads} threads");
}
