//! E22 — event-driven scheduler idle-scaling: hundreds to thousands of
//! mutual-authentication sessions multiplexed through the wake-based
//! gateway, each spending most of its lifetime silent on a long ARQ
//! timer. The gateway reports both the [`Session::step`] calls it
//! actually made (`session_steps`) and the calls the old dense
//! every-session-every-tick loop would have made for the same run
//! (`dense_equiv_steps`); their ratio is the scheduler's work saving,
//! and the acceptance cell asserts it is >= 5x at 1024 mostly-idle
//! sessions. Every cell is an independent seeded run, so the sweep
//! fans out on the pool with byte-identical output at any thread
//! count.
//!
//! [`Session::step`]: neuropuls_protocols::wire::Session::step

use crate::{Rendered, Scale};
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::{run_gateway, GatewayConfig, SessionPair};
use neuropuls_protocols::mutual_auth::{
    Device as AuthDevice, Verifier as AuthVerifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::{Registry, Tracer};

/// The mostly-idle regime: the gateway's route-step-route-step tick
/// gives a healthy session a full round trip per tick, so the only
/// silence in its lifetime is the ARQ timeout window after a dropped
/// frame — during which *both* sides sit idle while staying active.
/// A long timeout makes that window dominate the session's lifetime.
/// The dense loop pays one step per side per silent tick; the wake
/// loop pays none.
const IDLE_TIMEOUT_TICKS: u32 = 32;

/// The acceptance cell's session count (ISSUE gate: >= 5x fewer step
/// calls at 1024 mostly-idle sessions).
const ACCEPTANCE_SESSIONS: usize = 1024;

/// The acceptance cell's frame-drop rate.
const ACCEPTANCE_LOSS: f64 = 0.25;

/// One sweep cell: a concurrent-session count and a link quality.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Sessions multiplexed through the gateway, all active at once.
    sessions: usize,
    /// Frame-drop probability of the shared link.
    loss: f64,
}

/// Deterministic outcome of one cell.
#[derive(Debug, Clone, Copy)]
struct CellResult {
    cell: Cell,
    completed: usize,
    failed: usize,
    ticks: u64,
    retransmits: u64,
    /// `Session::step` calls the wake-based scheduler made.
    session_steps: u64,
    /// `Session::step` calls the dense loop would have made.
    dense_equiv_steps: u64,
}

impl CellResult {
    /// Dense-loop step calls per wake-scheduler step call.
    fn saving(&self) -> f64 {
        self.dense_equiv_steps as f64 / (self.session_steps.max(1)) as f64
    }
}

/// Runs `cell`: provisions one device+verifier pair per session, puts
/// every pair on the gateway at once (admission and concurrency caps
/// sized to the fleet) over one shared lossy link, and reads the step
/// accounting off the report.
fn run_cell(cell: Cell) -> CellResult {
    let idle_cfg = SessionConfig {
        timeout_ticks: IDLE_TIMEOUT_TICKS,
        max_retries: 10,
    };
    let mut parties: Vec<(AuthDevice<PhotonicPuf>, AuthVerifier)> = Vec::new();
    for i in 0..cell.sessions as u64 {
        let die = DieId(0xE22_0000 + i);
        let memory: Vec<u8> = (0..128).map(|b| (b * 31 % 239) as u8).collect();
        let Ok((device, provisioned)) = AuthDevice::provision(
            PhotonicPuf::reference(die, 1),
            memory,
            format!("e22-prov-{i}").as_bytes(),
        ) else {
            continue;
        };
        let verifier = AuthVerifier::new(provisioned, format!("e22-verif-{i}").as_bytes());
        parties.push((device, verifier));
    }

    let mut sessions: Vec<SessionPair<'_>> = Vec::new();
    for (i, (device, verifier)) in parties.iter_mut().enumerate() {
        let sid = i as u64 + 1;
        sessions.push(SessionPair::new(
            ProtocolId::MutualAuth,
            sid,
            Box::new(WireVerifier::new(verifier, sid, idle_cfg)),
            Box::new(WireDevice::new(device, idle_cfg)),
        ));
    }

    let seed = 0xE22_u64 ^ ((cell.sessions as u64) << 24) ^ (cell.loss * 1000.0) as u64;
    let mut link = FaultyChannel::new(FaultRates::loss(cell.loss), seed);
    // The point of the sweep is idle *concurrency*: every session is
    // admitted and active simultaneously, so the dense loop would step
    // the whole fleet every tick.
    let gateway_cfg = GatewayConfig {
        max_active: cell.sessions,
        accept_queue: cell.sessions.max(1),
        max_ticks: 16_384,
        ..GatewayConfig::default()
    };
    let report = run_gateway(
        &mut link,
        sessions,
        gateway_cfg,
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    CellResult {
        cell,
        completed: report.completed,
        failed: report.failed + report.unfinished,
        ticks: report.ticks,
        retransmits: report.retransmits,
        session_steps: report.session_steps,
        dense_equiv_steps: report.dense_equiv_steps,
    }
}

fn render_table(out: &mut Rendered, results: &[CellResult]) {
    out.push(format!(
        "{:>9} {:>6} {:>11} {:>7} {:>11} {:>11} {:>12} {:>8}",
        "sessions",
        "loss",
        "completed",
        "ticks",
        "retransmits",
        "wake steps",
        "dense steps",
        "saving"
    ));
    for r in results {
        out.push(format!(
            "{:>9} {:>5.0}% {:>5}/{:<5} {:>7} {:>11} {:>11} {:>12} {:>7.1}x",
            r.cell.sessions,
            r.cell.loss * 100.0,
            r.completed,
            r.completed + r.failed,
            r.ticks,
            r.retransmits,
            r.session_steps,
            r.dense_equiv_steps,
            r.saving(),
        ));
    }
}

/// Per-cell summary row for the smoke assertions and the bench
/// report: `(sessions, loss, session_steps, dense_equiv_steps,
/// completed, attempted)`.
pub type CellSummary = (usize, f64, u64, u64, usize, usize);

/// Step-saving ratio of the acceptance cell (1024 sessions at the
/// acceptance loss rate), if the sweep carried it.
fn acceptance_saving(summary: &[CellSummary]) -> Option<f64> {
    summary
        .iter()
        .find(|&&(sessions, loss, ..)| {
            sessions == ACCEPTANCE_SESSIONS && (loss - ACCEPTANCE_LOSS).abs() < 1e-9
        })
        .map(|&(_, _, steps, dense, _, _)| dense as f64 / steps.max(1) as f64)
}

/// Runs the session-count x loss sweep and renders one table per loss
/// rate. Both scales carry the 1024-session acceptance cell.
///
/// # Panics
///
/// If the wake scheduler saves less than 5x of the dense loop's step
/// calls at 1024 mostly-idle sessions.
pub fn run(scale: Scale) -> (Rendered, Vec<CellSummary>) {
    let session_sweep: Vec<usize> = scale.pick(
        vec![256, ACCEPTANCE_SESSIONS],
        vec![256, 512, ACCEPTANCE_SESSIONS, 2048],
    );
    let loss_sweep: Vec<f64> = vec![0.0, 0.10, ACCEPTANCE_LOSS];

    let mut cells: Vec<Cell> = Vec::new();
    for &loss in &loss_sweep {
        for &sessions in &session_sweep {
            cells.push(Cell { sessions, loss });
        }
    }

    let results: Vec<CellResult> = neuropuls_rt::pool::par_map(cells, run_cell);

    let mut out = Rendered::new("E22 — event-driven scheduler idle-scaling");
    out.push(format!(
        "session-count sweep, timeout {IDLE_TIMEOUT_TICKS} ticks (mostly-idle ARQ regime), \
         whole fleet active at once:"
    ));
    for (li, &loss) in loss_sweep.iter().enumerate() {
        out.push(String::new());
        out.push(format!("frame-drop rate {:.0}%:", loss * 100.0));
        let part = &results[li * session_sweep.len()..(li + 1) * session_sweep.len()];
        render_table(&mut out, part);
    }
    out.push(String::new());
    out.push(
        "the dense loop steps every active session every tick; the wake scheduler \
         steps only slots with a frame in the inbox or an expired retransmit timer, \
         so the saving grows with the silent fraction of each session's lifetime"
            .to_string(),
    );

    let summary: Vec<CellSummary> = results
        .iter()
        .map(|r| {
            (
                r.cell.sessions,
                r.cell.loss,
                r.session_steps,
                r.dense_equiv_steps,
                r.completed,
                r.completed + r.failed,
            )
        })
        .collect();

    let saving = acceptance_saving(&summary).expect("sweep carries the 1024-session cell");
    assert!(
        saving >= 5.0,
        "wake scheduler must make >= 5x fewer step calls than the dense loop at 1024 \
         mostly-idle sessions, measured {saving:.2}x"
    );
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sched_scaling_sweep() {
        let (rendered, summary) = run(Scale::Smoke);
        assert!(!summary.is_empty());
        for &(sessions, loss, steps, dense, completed, attempted) in &summary {
            assert_eq!(attempted, sessions, "every pair reaches the gateway");
            assert!(steps > 0, "sessions actually ran");
            if loss == 0.0 {
                // A healthy session gets a full round trip per tick, so
                // a lossless run has no silence for the wake loop to
                // skip: the two accountings must agree exactly.
                assert_eq!(steps, dense, "no silence to skip without loss");
                assert_eq!(completed, attempted, "lossless runs all complete");
            } else {
                assert!(dense > steps, "ARQ timeout windows must save work");
            }
        }
        let saving = acceptance_saving(&summary).expect("sweep carries the 1024-session cell");
        assert!(
            saving >= 5.0,
            "acceptance gate: >= 5x fewer step calls at {ACCEPTANCE_SESSIONS} mostly-idle \
             sessions, measured {saving:.2}x"
        );
        // The output is deterministic: a second run renders identically.
        let (again, _) = run(Scale::Smoke);
        assert_eq!(rendered.stable_string(), again.stable_string());
    }
}
