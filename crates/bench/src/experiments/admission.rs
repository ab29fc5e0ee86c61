//! E24 — class-aware admission under overload: hundreds to thousands
//! of mixed-class sessions submitted to a gateway whose tick budget
//! covers only a fraction of them (2–8× overload). A minority
//! inference class queued *behind* a majority control-auth burst is
//! starved outright by the [`Fifo`] policy — none of it is ever
//! admitted, so its p99 backlog wait is censored at the run length and
//! grows without bound as the budget grows — while
//! [`DeficitWeightedRoundRobin`] with equal weights admits both
//! classes in rotation and keeps every class's p99 admission wait
//! within 2× its weight-proportional fair drain. Every cell is an
//! independent deterministic run fanned out on the pool, so the sweep
//! is byte-identical at any `NEUROPULS_THREADS`.

use crate::{Rendered, Scale};
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::{
    run_gateway, AdmissionPolicy, ClassId, DeficitWeightedRoundRobin, Fifo, GatewayConfig,
    GatewayReport, SessionPair,
};
use neuropuls_protocols::mutual_auth::{
    Device as AuthDevice, Verifier as AuthVerifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::transport::Channel;
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::{Registry, Tracer};

/// Concurrency cap of every run: small against the session counts so
/// the backlog — and therefore the admission policy — dominates.
const MAX_ACTIVE: usize = 32;

/// One session in [`MINORITY_DENOM`] carries the minority inference
/// class; the rest are majority control-auth queued ahead of it.
const MINORITY_DENOM: usize = 16;

/// Additive tick slack on the DWRR fairness bound: absorbs the accept
/// queue's staging transient and nearest-rank percentile granularity.
const FAIR_SLACK: u64 = 64;

/// The acceptance cell (ISSUE gate: bounded per-class p99 admission
/// wait under DWRR at 1024+ sessions and 4× overload).
const ACCEPTANCE_SESSIONS: usize = 1024;
const ACCEPTANCE_OVERLOAD: u64 = 4;

/// One sweep cell: a session count and an overload factor (a full
/// drain needs `overload`× the tick budget the run actually gets).
#[derive(Debug, Clone, Copy)]
struct Cell {
    sessions: usize,
    overload: u64,
}

/// Per-class digest of one policy's overloaded run.
#[derive(Debug, Clone)]
struct ClassDigest {
    label: String,
    submitted: usize,
    admitted: usize,
    wait_p99: u64,
    /// `2 × weight-proportional fair drain + slack`: twice the time a
    /// fair server at this run's measured admission rate would need to
    /// drain the class's whole backlog.
    fair_bound: u64,
}

/// Deterministic outcome of one cell: the probe capacity plus the
/// FIFO and DWRR overloaded runs side by side.
#[derive(Debug, Clone)]
struct CellResult {
    cell: Cell,
    /// Ticks a FIFO run needs to drain every session (the probe).
    capacity_ticks: u64,
    /// Tick budget of the overloaded runs: `capacity / overload`.
    run_ticks: u64,
    fifo: Vec<ClassDigest>,
    dwrr: Vec<ClassDigest>,
}

impl CellResult {
    fn class(rows: &[ClassDigest], label: &str) -> Option<ClassDigest> {
        rows.iter().find(|d| d.label == label).cloned()
    }

    /// Minority-class digest under FIFO.
    fn fifo_minority(&self) -> ClassDigest {
        Self::class(&self.fifo, "inference").expect("fifo run carries the inference class")
    }

    /// Minority-class digest under DWRR.
    fn dwrr_minority(&self) -> ClassDigest {
        Self::class(&self.dwrr, "inference").expect("dwrr run carries the inference class")
    }

    /// Whether every DWRR class sits inside its fairness bound.
    fn dwrr_bounded(&self) -> bool {
        self.dwrr.iter().all(|d| d.wait_p99 <= d.fair_bound)
    }
}

fn provision(n: usize) -> Vec<(AuthDevice<PhotonicPuf>, AuthVerifier)> {
    let mut parties = Vec::new();
    for i in 0..n as u64 {
        let die = DieId(0xE24_0000 + i);
        let memory: Vec<u8> = (0..128).map(|b| (b * 29 % 241) as u8).collect();
        let Ok((device, provisioned)) = AuthDevice::provision(
            PhotonicPuf::reference(die, 1),
            memory,
            format!("e24-prov-{i}").as_bytes(),
        ) else {
            continue;
        };
        let verifier = AuthVerifier::new(provisioned, format!("e24-verif-{i}").as_bytes());
        parties.push((device, verifier));
    }
    parties
}

/// Builds the adversarial submission order: the majority control-auth
/// burst first, the minority inference sessions dead last — the worst
/// case for a FIFO backlog, a non-event for a class-aware one.
fn build_sessions<'p>(
    parties: &'p mut [(AuthDevice<PhotonicPuf>, AuthVerifier)],
) -> Vec<SessionPair<'p>> {
    let n = parties.len();
    let minority_from = n - n / MINORITY_DENOM;
    parties
        .iter_mut()
        .enumerate()
        .map(|(i, (device, verifier))| {
            let sid = i as u64 + 1;
            let class = if i >= minority_from {
                ClassId::INFERENCE
            } else {
                ClassId::CONTROL_AUTH
            };
            SessionPair::new(
                ProtocolId::MutualAuth,
                sid,
                Box::new(WireVerifier::new(verifier, sid, SessionConfig::default())),
                Box::new(WireDevice::new(device, SessionConfig::default())),
            )
            .with_class(class)
        })
        .collect()
}

/// One gateway run over a lossless shared link, with fresh
/// provisioning so the FIFO and DWRR replays of a cell see identical
/// inputs.
fn run_once(n: usize, max_ticks: u64, policy: Box<dyn AdmissionPolicy>) -> GatewayReport {
    let mut parties = provision(n);
    let sessions = build_sessions(&mut parties);
    let mut link = Channel::new();
    run_gateway(
        &mut link,
        sessions,
        GatewayConfig {
            max_active: MAX_ACTIVE,
            accept_queue: MAX_ACTIVE,
            max_ticks,
            policy,
        },
        &mut Tracer::disabled(),
        &Registry::new(),
    )
}

/// Per-class digests of one overloaded run. The fair drain of class
/// `c` under equal weights is `n_c / (s_c × r)` ticks, with `s_c =
/// 1/classes` the weight share and `r = admitted_total / run_ticks`
/// the run's measured admission throughput; the bound doubles it and
/// adds fixed slack.
fn digests(report: &GatewayReport, run_ticks: u64) -> Vec<ClassDigest> {
    let admitted_total: usize = report.per_class.iter().map(|c| c.admitted).sum();
    let classes = report.per_class.len().max(1) as u64;
    report
        .per_class
        .iter()
        .map(|c| {
            let fair_bound = if admitted_total == 0 {
                u64::MAX
            } else {
                let drain = classes
                    .saturating_mul(c.submitted as u64)
                    .saturating_mul(run_ticks)
                    / admitted_total as u64;
                drain.saturating_mul(2).saturating_add(FAIR_SLACK)
            };
            ClassDigest {
                label: c.class.label(),
                submitted: c.submitted,
                admitted: c.admitted,
                wait_p99: c.wait_p99,
                fair_bound,
            }
        })
        .collect()
}

/// Runs `cell`: probes the full-drain capacity with FIFO under a
/// generous budget, then replays the same submission under a
/// `capacity / overload` tick budget with FIFO and with equal-weight
/// DWRR.
fn run_cell(cell: Cell) -> CellResult {
    let probe = run_once(
        cell.sessions,
        cell.sessions as u64 * 64,
        Box::new(Fifo::new()),
    );
    let capacity_ticks = probe.ticks;
    let run_ticks = (capacity_ticks / cell.overload).max(1);

    let fifo = run_once(cell.sessions, run_ticks, Box::new(Fifo::new()));
    let dwrr = run_once(
        cell.sessions,
        run_ticks,
        Box::new(
            DeficitWeightedRoundRobin::new()
                .with_weight(ClassId::CONTROL_AUTH, 1)
                .with_weight(ClassId::INFERENCE, 1),
        ),
    );

    CellResult {
        cell,
        capacity_ticks,
        run_ticks,
        fifo: digests(&fifo, run_ticks),
        dwrr: digests(&dwrr, run_ticks),
    }
}

fn render_cell(out: &mut Rendered, r: &CellResult) {
    out.push(format!(
        "{} sessions at {}x overload (capacity {} ticks, budget {}):",
        r.cell.sessions, r.cell.overload, r.capacity_ticks, r.run_ticks
    ));
    out.push(format!(
        "  {:>6} {:>14} {:>9} {:>9} {:>9} {:>11}",
        "policy", "class", "submitted", "admitted", "wait p99", "fair bound"
    ));
    for (policy, rows) in [("fifo", &r.fifo), ("dwrr", &r.dwrr)] {
        for d in rows {
            out.push(format!(
                "  {:>6} {:>14} {:>9} {:>9} {:>9} {:>11}",
                policy, d.label, d.submitted, d.admitted, d.wait_p99, d.fair_bound
            ));
        }
    }
}

/// Per-cell summary row for the smoke assertions and the bench
/// report: `(sessions, overload, run_ticks, fifo_minority_p99,
/// fifo_minority_admitted, dwrr_minority_p99, dwrr_minority_admitted,
/// dwrr_bounded)`.
pub type CellSummary = (usize, u64, u64, u64, usize, u64, usize, bool);

/// The acceptance cell's row (1024 sessions at 4× overload), if the
/// sweep carried it.
fn acceptance_row(summary: &[CellSummary]) -> Option<CellSummary> {
    summary
        .iter()
        .find(|&&(sessions, overload, ..)| {
            sessions == ACCEPTANCE_SESSIONS && overload == ACCEPTANCE_OVERLOAD
        })
        .copied()
}

/// Runs the session-count × overload sweep. Both scales carry the
/// acceptance cell and an 8× cell at the same session count, so the
/// starvation-grows-with-the-budget comparison is always available.
///
/// # Panics
///
/// Unless, at the acceptance cell, FIFO admits none of the trailing
/// minority while equal-weight DWRR keeps every class's p99 wait inside
/// its fair drain and below FIFO's censored wait.
pub fn run(scale: Scale) -> (Rendered, Vec<CellSummary>) {
    let cells: Vec<Cell> = scale
        .pick(
            vec![
                (512, ACCEPTANCE_OVERLOAD),
                (ACCEPTANCE_SESSIONS, ACCEPTANCE_OVERLOAD),
                (ACCEPTANCE_SESSIONS, 8),
            ],
            vec![
                (512, 2),
                (512, ACCEPTANCE_OVERLOAD),
                (ACCEPTANCE_SESSIONS, 2),
                (ACCEPTANCE_SESSIONS, ACCEPTANCE_OVERLOAD),
                (ACCEPTANCE_SESSIONS, 8),
                (2048, ACCEPTANCE_OVERLOAD),
            ],
        )
        .into_iter()
        .map(|(sessions, overload)| Cell { sessions, overload })
        .collect();

    let results: Vec<CellResult> = neuropuls_rt::pool::par_map(cells, run_cell);

    let mut out = Rendered::new("E24 — class-aware admission under overload");
    out.push(format!(
        "mixed-class backlog: {}/{} majority control-auth queued first, minority \
         inference last; tick budget = full-drain capacity / overload:",
        MINORITY_DENOM - 1,
        MINORITY_DENOM
    ));
    for r in &results {
        out.push(String::new());
        render_cell(&mut out, r);
    }
    out.push(String::new());
    out.push(
        "fifo drains the backlog in submission order, so the trailing minority class is \
         never admitted and its p99 wait is censored at the run length (starvation that \
         grows with the budget); equal-weight dwrr alternates classes, keeping every \
         class's p99 within 2x its weight-proportional fair drain"
            .to_string(),
    );

    let summary: Vec<CellSummary> = results
        .iter()
        .map(|r| {
            let fm = r.fifo_minority();
            let dm = r.dwrr_minority();
            (
                r.cell.sessions,
                r.cell.overload,
                r.run_ticks,
                fm.wait_p99,
                fm.admitted,
                dm.wait_p99,
                dm.admitted,
                r.dwrr_bounded(),
            )
        })
        .collect();

    let (_, _, run_ticks, fifo_p99, fifo_adm, dwrr_p99, _, bounded) =
        acceptance_row(&summary).expect("sweep carries the 1024-session 4x cell");
    assert_eq!(
        fifo_adm, 0,
        "fifo must starve the trailing minority outright at 4x overload"
    );
    assert!(
        bounded && dwrr_p99 < fifo_p99,
        "dwrr must bound every class's p99 inside its fair drain (minority {dwrr_p99} vs \
         fifo's censored {fifo_p99}, budget {run_ticks})"
    );
    (out, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_admission_sweep() {
        let (rendered, summary) = run(Scale::Smoke);
        assert!(!summary.is_empty());
        for &(sessions, overload, run_ticks, fifo_p99, fifo_adm, dwrr_p99, dwrr_adm, bounded) in
            &summary
        {
            // FIFO starves the trailing minority outright: nothing is
            // admitted and the p99 backlog wait is censored at the run
            // length.
            assert_eq!(
                fifo_adm, 0,
                "{sessions}x{overload}: fifo admitted part of the trailing minority"
            );
            assert!(
                fifo_p99 as f64 >= 0.9 * run_ticks as f64,
                "{sessions}x{overload}: fifo minority p99 {fifo_p99} not censored at {run_ticks}"
            );
            // DWRR admits the minority and keeps every class inside its
            // fairness bound.
            assert!(
                dwrr_adm > 0,
                "{sessions}x{overload}: dwrr admitted none of the minority"
            );
            assert!(
                bounded,
                "{sessions}x{overload}: dwrr p99 {dwrr_p99} exceeded the fairness bound"
            );
        }
        // The acceptance gate: at 1024 sessions and 4x overload DWRR
        // admits the whole minority class with p99 wait well under the
        // FIFO censoring point.
        let at4 = acceptance_row(&summary).expect("sweep carries the acceptance cell");
        let (_, _, run4, fifo4, _, dwrr4, dwrr4_adm, _) = at4;
        let minority = ACCEPTANCE_SESSIONS / MINORITY_DENOM;
        assert_eq!(
            dwrr4_adm, minority,
            "dwrr must admit the whole minority at 4x"
        );
        assert!(
            (dwrr4 as f64) <= 0.75 * run4 as f64,
            "dwrr minority p99 {dwrr4} not well under the {run4}-tick censoring point"
        );
        assert!(
            dwrr4 < fifo4,
            "dwrr minority p99 must beat fifo's censored {fifo4}"
        );
        // Starvation is unbounded in the budget: the same 1024-session
        // mix censors the minority wait at whatever the run length is,
        // so a larger budget (lower overload) means a *larger* p99.
        let at8 = summary
            .iter()
            .find(|&&(s, o, ..)| s == ACCEPTANCE_SESSIONS && o == 8)
            .copied()
            .expect("sweep carries the 8x cell");
        assert!(
            at4.3 > at8.3,
            "fifo minority p99 must grow with the run length: {} at 4x vs {} at 8x",
            at4.3,
            at8.3
        );
        // The output is deterministic: a second run renders identically.
        let (again, _) = run(Scale::Smoke);
        assert_eq!(rendered.stable_string(), again.stable_string());
    }
}
