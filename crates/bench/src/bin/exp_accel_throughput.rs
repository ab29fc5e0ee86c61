//! Regenerates the batched-inference throughput study (E21).
//!
//! Run standalone, this binary also *enforces* the throughput target:
//! pushing a batch of 64 through `infer_batch` on an 8-worker pool must
//! beat 64 scalar `infer` calls by >= 3x wall clock for the reference
//! model, each side timed with `Instant` as the best of `REPS` runs
//! and the measurement printed to stderr. The target is asserted here
//! rather than in the library so the noisy parallel schedule of
//! `exp_all` cannot flake it. `--table-only` skips the host-timed
//! section (CI uses it for the 1-vs-8-thread determinism diff, which
//! must not depend on the host clock).

use neuropuls_accel::engine::{AnalogModel, PhotonicEngine};
use neuropuls_bench::experiments::accel_throughput::{batch_inputs, reference_network, run};
use neuropuls_bench::Scale;
use neuropuls_rt::pool;
use std::time::Instant;

/// The acceptance batch size.
const BATCH: usize = 64;

/// Wall-clock repetitions; the minimum is reported, which is the
/// standard way to shave scheduler noise off a hot-loop measurement.
const REPS: usize = 7;

fn loaded_reference_engine(seed: u64) -> PhotonicEngine {
    let mut engine = PhotonicEngine::new(AnalogModel::reference(), seed);
    engine
        .load(reference_network())
        .expect("reference network fits the quantizer");
    engine
}

fn min_secs(mut routine: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        routine();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Host-timed section: measures the batched-vs-scalar wall clock and
/// asserts the >= 3x acceptance target.
fn measure_and_assert() {
    let inputs = batch_inputs(BATCH);

    let mut scalar_engine = loaded_reference_engine(0xE21_BEEF);
    let scalar_s = min_secs(|| {
        for input in &inputs {
            std::hint::black_box(scalar_engine.infer(input).expect("network is loaded"));
        }
    });

    let mut batch_engine = loaded_reference_engine(0xE21_BEEF);
    let batch_s = pool::with_threads(8, || {
        min_secs(|| {
            std::hint::black_box(
                batch_engine
                    .infer_batch(&inputs)
                    .expect("network is loaded"),
            );
        })
    });

    let speedup = scalar_s / batch_s;
    eprintln!(
        "batch {BATCH} on 8 workers: scalar {:.3} ms, batched {:.3} ms — {speedup:.2}x",
        scalar_s * 1e3,
        batch_s * 1e3
    );

    assert!(
        speedup >= 3.0,
        "batched inference must beat {BATCH} scalar calls by >= 3x, measured {speedup:.2}x"
    );
    eprintln!("throughput target met: {speedup:.2}x >= 3x");
}

fn main() {
    let table_only = std::env::args().any(|a| a == "--table-only");
    let (out, summary) = run(Scale::from_args());
    print!("{out}");

    for &(model, batch, _, invariant) in &summary {
        assert!(
            invariant,
            "{model} batch {batch} diverged between 1 and 8 pool workers"
        );
    }
    let modeled = summary
        .iter()
        .find(|(model, batch, _, _)| *model == "reference" && *batch == BATCH)
        .map(|&(_, _, speedup, _)| speedup)
        .expect("sweep carries the reference batch-64 cell");
    assert!(
        modeled >= 3.0,
        "modeled pipelined speedup at batch {BATCH} fell to {modeled:.2}x"
    );

    if table_only {
        return;
    }
    measure_and_assert();
}
