//! E23 — persistent keep-alive fleet sessions: hundreds to thousands
//! of devices each holding a long-lived gateway slot, re-attesting on
//! jittered timers and sitting silent between epochs. The driver
//! reports both the [`Session::step`] calls it made (`session_steps`)
//! and what a dense every-resident-slot-every-tick loop would have
//! cost for the same residency (`dense_equiv_steps`); their ratio is
//! the keep-alive saving. The acceptance cell asserts the saving is at
//! least 5x at 1024 mostly-idle devices *and* that a 10% lossy control
//! link loses zero re-attestations: every fired epoch is accounted
//! for as completed (conservation), and every one in fact completes.
//! Every cell is an independent seeded run, so the sweep fans out on
//! the pool with byte-identical output at any thread count.
//!
//! [`Session::step`]: neuropuls_protocols::wire::Session::step

use crate::{Rendered, Scale};
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_system::fleet::{run_fleet_persistent, PersistentFleetConfig};

/// The acceptance cell's fleet size (ISSUE gate: >= 5x fewer step
/// calls at 1024 mostly-idle devices).
const ACCEPTANCE_DEVICES: usize = 1024;

/// The acceptance cell's frame-drop rate (ISSUE gate: zero lost
/// re-attestations at 10% loss).
const ACCEPTANCE_LOSS: f64 = 0.1;

/// Re-attestation period in gateway ticks: long enough that a slot's
/// lifetime is dominated by timer silence, short enough that the run
/// carries several epochs per device.
const REATTEST_PERIOD: u64 = 512;

/// Per-device period jitter (ticks) decorrelating the cohorts.
const JITTER: u64 = 64;

/// Re-attestation epochs each device serves before leaving.
const EPOCHS_PER_DEVICE: u32 = 4;

/// One sweep cell: a fleet size and a control-link quality.
#[derive(Debug, Clone, Copy)]
struct Cell {
    devices: usize,
    loss: f64,
}

/// Deterministic per-cell summary carried into the bench report:
/// `(devices, loss, session_steps, dense_equiv_steps, epochs_fired,
/// epochs_completed, epochs_missed, retransmits, conserved)`.
pub type CellSummary = (usize, f64, u64, u64, u64, u64, u64, u64, bool);

/// Dense-loop step calls per keep-alive step call for one summary row.
fn saving(row: &CellSummary) -> f64 {
    row.3 as f64 / row.2.max(1) as f64
}

/// The acceptance cell (1024 devices, 10% loss), if the sweep carried
/// it: `(step_saving, zero_lost_reattestations)`.
///
/// "Zero lost" is judged against the cell's lossless twin: the fleet
/// population has a handful of inherent PUF auth-rejects (a noisy CRP
/// fails the MAC check on a perfect link too), so the gate is that the
/// lossy link adds *no* failures beyond those — same epochs fired,
/// same epochs completed, nothing missed, every epoch accounted for.
fn acceptance(summary: &[CellSummary]) -> Option<(f64, bool)> {
    let cell = |target: f64| {
        summary.iter().find(move |&&(devices, loss, ..)| {
            devices == ACCEPTANCE_DEVICES && (loss - target).abs() < 1e-9
        })
    };
    let lossy = cell(ACCEPTANCE_LOSS)?;
    let lossless = cell(0.0)?;
    let &(_, _, _, _, fired, completed, missed, _, conserved) = lossy;
    let no_lost = conserved
        && lossless.8
        && missed == 0
        && fired > 0
        && fired == lossless.4
        && completed == lossless.5;
    Some((saving(lossy), no_lost))
}

fn cell_config(cell: Cell) -> PersistentFleetConfig {
    PersistentFleetConfig {
        devices: cell.devices,
        reattest_period: REATTEST_PERIOD,
        jitter: JITTER,
        epochs_per_device: EPOCHS_PER_DEVICE,
        loss_rate: cell.loss,
        seed: 0xE23_u64 ^ ((cell.devices as u64) << 20) ^ (cell.loss * 1000.0) as u64,
        // A deep ARQ budget (as in E22's mostly-idle regime): at 10%
        // loss the chance of one frame dropping 11 times in a row is
        // ~1e-11, so the link costs retransmits, never epochs.
        session_retries: 10,
        ..PersistentFleetConfig::default()
    }
}

/// Runs the fleet-size x loss sweep and renders one table per loss
/// rate. Both scales carry the 1024-device 10%-loss acceptance cell.
///
/// # Panics
///
/// If the keep-alive driver saves less than 5x of the dense loop's
/// step calls at 1024 devices, if the 10% lossy link loses a
/// re-attestation there, or if any cell fails to conserve its epochs.
pub fn run(scale: Scale) -> (Rendered, Vec<CellSummary>) {
    let device_sweep: Vec<usize> = scale.pick(
        vec![256, ACCEPTANCE_DEVICES],
        vec![256, 512, ACCEPTANCE_DEVICES, 2048],
    );
    let loss_sweep: Vec<f64> = vec![0.0, ACCEPTANCE_LOSS];

    let mut cells: Vec<Cell> = Vec::new();
    for &loss in &loss_sweep {
        for &devices in &device_sweep {
            cells.push(Cell { devices, loss });
        }
    }

    // Each cell records into its own registry; merging in input order
    // afterwards keeps the aggregate byte-identical at any thread
    // count.
    let cell_results: Vec<(CellSummary, Registry)> = neuropuls_rt::pool::par_map(cells, |cell| {
        let registry = Registry::new();
        let report = run_fleet_persistent(&cell_config(cell), &mut Tracer::disabled(), &registry);
        let summary = (
            cell.devices,
            cell.loss,
            report.session_steps,
            report.dense_equiv_steps,
            report.epochs_fired,
            report.epochs_completed,
            report.epochs_missed,
            report.retransmits,
            report.epochs_conserved(),
        );
        (summary, registry)
    });
    let metrics = Registry::new();
    let summary: Vec<CellSummary> = cell_results
        .into_iter()
        .map(|(row, registry)| {
            metrics.merge(&registry);
            row
        })
        .collect();

    let mut out = Rendered::new("E23 — persistent keep-alive fleet sessions");
    out.push(format!(
        "fleet-size sweep: period {REATTEST_PERIOD} ticks, jitter {JITTER}, \
         {EPOCHS_PER_DEVICE} re-attestation epochs per device, whole fleet resident at once:"
    ));
    for (li, &loss) in loss_sweep.iter().enumerate() {
        out.push(String::new());
        out.push(format!("frame-drop rate {:.0}%:", loss * 100.0));
        out.push(format!(
            "{:>8} {:>7} {:>10} {:>7} {:>11} {:>11} {:>12} {:>8}",
            "devices",
            "fired",
            "completed",
            "missed",
            "retransmits",
            "wake steps",
            "dense steps",
            "saving"
        ));
        for row in &summary[li * device_sweep.len()..(li + 1) * device_sweep.len()] {
            let &(devices, _, steps, dense, fired, completed, missed, retransmits, _) = row;
            out.push(format!(
                "{devices:>8} {fired:>7} {completed:>10} {missed:>7} {retransmits:>11} \
                 {steps:>11} {dense:>12} {:>7.1}x",
                saving(row),
            ));
        }
    }
    out.push(String::new());
    out.push(
        "a resident slot costs the dense loop two step calls per tick for its whole \
         lifetime; the keep-alive driver steps it only while an epoch is live, and \
         fast-forwards the clock across fleet-wide silence between cohort firings"
            .to_string(),
    );
    out.push(format!(
        "CRP store across all cells: {} checkouts hit hot shards, {} cold misses, \
         {} commits; shard hot-set occupancy p99 {:.0}",
        metrics.counter_value("crp_store.hits"),
        metrics.counter_value("crp_store.misses"),
        metrics.counter_value("crp_store.commits"),
        metrics.quantile("crp_store.shard_hot", 0.99),
    ));

    let (step_saving, no_lost) = acceptance(&summary).expect("sweep carries the 1024-device cell");
    assert!(
        step_saving >= 5.0,
        "keep-alive driver must make >= 5x fewer step calls than the dense loop at 1024 \
         mostly-idle devices, measured {step_saving:.2}x"
    );
    assert!(
        no_lost,
        "10% lossy control link must lose zero re-attestations at 1024 devices"
    );
    for row in &summary {
        assert!(
            row.8 && row.6 == 0,
            "re-attestation conservation violated in cell {row:?}"
        );
    }
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fleet_longrun_sweep() {
        let (rendered, summary) = run(Scale::Smoke);
        assert!(!summary.is_empty());
        for row in &summary {
            let &(devices, _, steps, _, fired, _, missed, _, conserved) = row;
            assert_eq!(
                fired,
                devices as u64 * u64::from(EPOCHS_PER_DEVICE),
                "{row:?}"
            );
            assert!(conserved, "epoch accounting leaked: {row:?}");
            assert_eq!(missed, 0, "{row:?}");
            assert!(steps > 0, "{row:?}");
        }
        // The lossy link never loses an epoch: each fleet size completes
        // exactly what its lossless twin completes (inherent PUF
        // auth-rejects and nothing more).
        for row in &summary {
            let twin = summary
                .iter()
                .find(|t| t.0 == row.0 && t.1 == 0.0)
                .expect("every cell has a lossless twin");
            assert_eq!(row.5, twin.5, "loss cost epochs: {row:?} vs {twin:?}");
        }
        let (saving, conserved) = acceptance(&summary).expect("sweep carries the 1024-device cell");
        assert!(conserved, "acceptance cell lost re-attestations");
        assert!(
            saving >= 5.0,
            "acceptance gate: >= 5x fewer step calls at {ACCEPTANCE_DEVICES} mostly-idle \
             devices, measured {saving:.2}x"
        );
        // The output is deterministic: a second run renders identically.
        let (again, _) = run(Scale::Smoke);
        assert_eq!(rendered.stable_string(), again.stable_string());
    }
}
