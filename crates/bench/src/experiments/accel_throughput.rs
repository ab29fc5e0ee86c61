//! E21 — batched photonic inference throughput: sweeps batch size and
//! analog model over the 4-layer reference MLP, comparing the wave-
//! pipelined batch latency model against the scalar one-input-per-pass
//! baseline. Every cell runs the same batch twice — pool pinned to one
//! thread, then to eight — and checks the outputs bit-for-bit, which is
//! the paper's determinism claim: the per-item noise streams are
//! re-derived from `(seed, epoch, index)`, never from worker identity.
//! `run` asserts that identity on every cell and a modeled speedup of
//! at least 3x at batch 64.
//!
//! `measure_and_assert` is the host-timed half: 64 scalar `infer`
//! calls against one `infer_batch` on an 8-worker pool, wall clock, at
//! least 3x. `exp E21` runs it after the sweep; the all-experiments run
//! does not, so its parallel schedule cannot flake it.

use crate::{Rendered, Scale};
use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::{AnalogModel, PhotonicEngine};
use neuropuls_rt::pool;
use std::time::Instant;

/// The acceptance batch size of both gates.
const BATCH: usize = 64;

/// Wall-clock repetitions of the host-timed gate; the minimum is
/// reported, which is the standard way to shave scheduler noise off a
/// hot-loop measurement.
const REPS: usize = 7;

/// Input width of the reference workload (and, symmetrically, its
/// output width).
const REFERENCE_WIDTH: usize = 16;

/// The reference workload: a four-layer dense MLP, 16-32-32-32-16,
/// 3072 MACs per inference. Weights land on a deterministic grid well
/// inside the quantizer range.
fn reference_network() -> NetworkConfig {
    NetworkConfig::mlp(&[16, 32, 32, 32, 16], |l, o, i| {
        ((l * 131 + o * 17 + i * 5) % 41) as f32 / 20.0 - 1.0
    })
}

/// Deterministic batch of activation vectors for [`reference_network`].
fn batch_inputs(batch: usize) -> Vec<Vec<f64>> {
    (0..batch)
        .map(|n| {
            (0..REFERENCE_WIDTH)
                .map(|i| ((n * REFERENCE_WIDTH + i) % 29) as f64 / 14.5 - 1.0)
                .collect()
        })
        .collect()
}

/// One sweep cell: an analog model and a batch size.
#[derive(Debug, Clone, Copy)]
struct Cell {
    model_name: &'static str,
    model: AnalogModel,
    batch: usize,
}

/// Deterministic outcome of one cell.
#[derive(Debug, Clone)]
struct CellResult {
    cell: Cell,
    macs_per_inf: u64,
    draws_per_inf: u64,
    energy_per_inf_pj: f64,
    ns_per_inf: f64,
    modeled_inf_per_s: f64,
    /// Wave-pipelined speedup over `batch` scalar passes:
    /// `layers * batch / (layers + batch - 1)`.
    modeled_speedup: f64,
    /// Outputs at 1 worker and at 8 workers are bit-identical.
    thread_invariant: bool,
    checksum: f64,
}

/// Loads a fresh engine and pushes one batch through it at the given
/// pool width. Returns the outputs and the accumulated stats.
fn run_batch_at(
    cell: Cell,
    threads: usize,
) -> (Vec<Vec<f64>>, neuropuls_accel::engine::EngineStats) {
    pool::with_threads(threads, || {
        let seed = 0xE21_0000 ^ ((cell.batch as u64) << 8) ^ cell.model_name.len() as u64;
        let mut engine = PhotonicEngine::new(cell.model, seed);
        engine
            .load(reference_network())
            .expect("reference network fits the quantizer");
        let outputs = engine
            .infer_batch(&batch_inputs(cell.batch))
            .expect("batch matches the loaded widths");
        (outputs, engine.stats())
    })
}

fn bit_identical(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn run_cell(cell: Cell) -> CellResult {
    let (out_1, stats) = run_batch_at(cell, 1);
    let (out_8, _) = run_batch_at(cell, 8);
    let n = cell.batch as f64;
    let layers = reference_network().layers.len() as f64;
    let scalar_ns = n * layers * cell.model.layer_latency_ns;
    CellResult {
        cell,
        macs_per_inf: stats.macs / cell.batch as u64,
        draws_per_inf: stats.noise_draws / cell.batch as u64,
        energy_per_inf_pj: stats.energy_pj / n,
        ns_per_inf: stats.busy_ns / n,
        modeled_inf_per_s: n / stats.busy_ns * 1e9,
        modeled_speedup: scalar_ns / stats.busy_ns,
        thread_invariant: bit_identical(&out_1, &out_8),
        checksum: out_1.iter().flatten().sum(),
    }
}

fn render_table(out: &mut Rendered, results: &[CellResult]) {
    out.push(format!(
        "{:>10} {:>6} {:>9} {:>10} {:>9} {:>9} {:>11} {:>8} {:>6} {:>13}",
        "model",
        "batch",
        "macs/inf",
        "draws/inf",
        "pJ/inf",
        "ns/inf",
        "inf/s",
        "speedup",
        "1t=8t",
        "checksum"
    ));
    for r in results {
        out.push(format!(
            "{:>10} {:>6} {:>9} {:>10} {:>9.1} {:>9.2} {:>11.0} {:>7.2}x {:>6} {:>13.6}",
            r.cell.model_name,
            r.cell.batch,
            r.macs_per_inf,
            r.draws_per_inf,
            r.energy_per_inf_pj,
            r.ns_per_inf,
            r.modeled_inf_per_s,
            r.modeled_speedup,
            if r.thread_invariant { "yes" } else { "NO" },
            r.checksum,
        ));
    }
}

/// Per-cell summary row for the smoke assertions: `(model, batch,
/// modeled speedup, thread-invariant)`.
pub type CellSummary = (&'static str, usize, f64, bool);

/// Runs the batch-size × analog-model sweep and renders one table per
/// model. Cells run serially on purpose: each cell pins the pool width
/// (1, then 8) for its thread-identity check, so the sweep itself must
/// not fan out through `par_map`.
///
/// # Panics
///
/// If any cell's outputs differ between 1 and 8 pool workers, or the
/// reference model's modeled speedup at batch 64 is below 3x.
pub fn run(scale: Scale) -> (Rendered, Vec<CellSummary>) {
    let batches: Vec<usize> = scale.pick(vec![1, BATCH], vec![1, 8, BATCH, 256]);
    let models: [(&'static str, AnalogModel); 2] = [
        ("reference", AnalogModel::reference()),
        ("ideal", AnalogModel::ideal()),
    ];

    let mut results: Vec<CellResult> = Vec::new();
    for &(model_name, model) in &models {
        for &batch in &batches {
            results.push(run_cell(Cell {
                model_name,
                model,
                batch,
            }));
        }
    }

    let mut out = Rendered::new("E21 — batched photonic inference throughput");
    let macs = results.first().map_or(0, |r| r.macs_per_inf);
    out.push(format!(
        "4-layer reference MLP, {macs} MACs/inference; latency follows the wave-pipelined \
         model (layers + batch - 1 stage times per batch):"
    ));
    render_table(&mut out, &results);
    out.push(String::new());
    out.push(
        "speedup is modeled pipelined latency vs batch-many scalar passes; the ideal \
         model draws no noise at all (draws/inf = 0) while the reference model pays one \
         draw per MAC in either path"
            .to_string(),
    );
    out.push(
        "1t=8t re-runs every batch with the pool pinned to 1 and to 8 workers and \
         compares outputs bit-for-bit: noise is re-derived per item, never per worker"
            .to_string(),
    );

    let summary: Vec<CellSummary> = results
        .iter()
        .map(|r| {
            (
                r.cell.model_name,
                r.cell.batch,
                r.modeled_speedup,
                r.thread_invariant,
            )
        })
        .collect();

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
    (out, summary)
}

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

/// Host-timed gate: measures a batch of 64 through `infer_batch` on an
/// 8-worker pool against 64 scalar `infer` calls, each side the best of
/// `REPS` wall clocks, prints both to stderr and asserts the batched
/// path is at least 3x faster.
///
/// # Panics
///
/// If the measured speedup is below 3x.
pub(crate) fn measure_and_assert() {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_accel_throughput_sweep() {
        let (rendered, summary) = run(Scale::Smoke);
        assert!(!summary.is_empty());
        for &(model, batch, speedup, invariant) in &summary {
            assert!(
                invariant,
                "{model} batch {batch} must be bit-identical at 1 and 8 threads"
            );
            if batch == 1 {
                assert!(
                    (speedup - 1.0).abs() < 1e-9,
                    "a single-item batch has nothing to pipeline"
                );
            }
        }
        let (_, _, speedup, _) = summary
            .iter()
            .find(|(model, batch, _, _)| *model == "reference" && *batch == 64)
            .copied()
            .expect("smoke sweep carries the acceptance cell");
        assert!(
            speedup >= 3.0,
            "batch 64 must pipeline at least 3x over scalar passes, got {speedup:.2}x"
        );
        // The output is deterministic: a second run renders identically.
        let (again, _) = run(Scale::Smoke);
        assert_eq!(rendered.stable_string(), again.stable_string());
    }
}
