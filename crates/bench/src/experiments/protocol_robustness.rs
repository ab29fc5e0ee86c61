//! E18 — §III protocol robustness: every wire protocol swept against an
//! adversarial transport. Each cell runs many sessions through a seeded
//! [`FaultyChannel`] at one fault kind (frame drop or single-bit
//! corruption) and rate, and records session completion, ARQ
//! retransmission cost and — for mutual authentication — how often the
//! verifier's previous-CRP fallback repaired a desynchronization.
//!
//! Every cell is an independent simulation seeded from its own
//! coordinates, so the sweep fans out on the pool with byte-identical
//! output at any thread count.

use crate::{Rendered, Scale};
use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{
    run_wire_attestation, AttestationVerifier, AttestingDevice, TimingModel,
};
use neuropuls_protocols::eke::{run_wire_exchange, EkeParty};
use neuropuls_protocols::mutual_auth::{run_wire_session, Device, Verifier};
use neuropuls_protocols::secure_nn::{
    run_wire_batch_inference, share_accelerator, NetworkOwner, SecureAccelerator,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::SessionConfig;
use neuropuls_puf::bits::Response;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::Tracer;

/// The four §III services, in report order.
const PROTOCOLS: [&str; 4] = ["mutual-auth", "attestation", "eke", "secure-nn"];

/// Fault kinds swept per protocol.
const FAULTS: [&str; 2] = ["drop", "corrupt"];

/// One `(protocol, fault, rate)` cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellReport {
    /// Protocol name: `mutual-auth`, `attestation`, `eke` or `secure-nn`.
    pub protocol: &'static str,
    /// Fault kind: `drop` or `corrupt`.
    pub fault: &'static str,
    /// Per-frame fault probability.
    pub rate: f64,
    /// Sessions attempted.
    pub sessions: usize,
    /// Sessions that completed within the retry budget.
    pub completed: usize,
    /// Total ARQ retransmissions across the cell.
    pub retransmits: u64,
    /// Previous-CRP desync recoveries (mutual auth only, 0 elsewhere).
    pub desync_recoveries: u64,
    /// Fault rate the channel actually realized for the swept fault
    /// kind (drawn per frame, so it fluctuates around `rate`).
    pub realized_rate: f64,
    /// Frames the channel admitted across the cell's sessions.
    pub frames: usize,
}

impl CellReport {
    /// Fraction of sessions that completed.
    pub fn success_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.completed as f64 / self.sessions as f64
        }
    }
}

fn rates_for(fault: &str, rate: f64) -> FaultRates {
    match fault {
        "drop" => FaultRates::loss(rate),
        _ => FaultRates::corruption(rate),
    }
}

/// Runs all sessions of one cell. The endpoints persist across the
/// cell's sessions (a failed mutual-auth session must leave state the
/// next session can recover from — that recovery is the measurement).
fn run_cell(
    cell_idx: usize,
    protocol: &'static str,
    fault: &'static str,
    rate: f64,
    sessions: usize,
) -> CellReport {
    let seed = 0xE18_0000_0000 ^ ((cell_idx as u64) << 16) ^ 0x5D;
    let die = DieId(0xE18_000 + cell_idx as u64);
    let cfg = SessionConfig::default();
    let mut channel = FaultyChannel::new(rates_for(fault, rate), seed);
    let mut completed = 0usize;
    let mut retransmits = 0u64;
    let mut desync_recoveries = 0u64;

    match protocol {
        "mutual-auth" => {
            let puf = PhotonicPuf::reference(die, 1);
            let Ok((mut device, provisioned)) =
                Device::provision(puf, vec![0xE1; 512], b"e18-provision")
            else {
                // A reference PUF always provisions; an empty cell just
                // reports zero completions.
                return CellReport {
                    protocol,
                    fault,
                    rate,
                    sessions,
                    completed: 0,
                    retransmits: 0,
                    desync_recoveries: 0,
                    realized_rate: 0.0,
                    frames: 0,
                };
            };
            let mut verifier = Verifier::new(provisioned, b"e18-verifier");
            for s in 0..sessions {
                let report = run_wire_session(
                    &mut channel,
                    &mut device,
                    &mut verifier,
                    s as u64,
                    cfg,
                    &mut Tracer::disabled(),
                );
                retransmits += u64::from(report.retransmits);
                if report.succeeded() {
                    completed += 1;
                }
            }
            desync_recoveries = verifier.desync_recoveries();
        }
        "attestation" => {
            let memory: Vec<u8> = (0..1024).map(|i| (i * 37 % 253) as u8).collect();
            let timing = TimingModel::photonic();
            let mut device =
                AttestingDevice::new(PhotonicPuf::reference(die, 1), memory.clone(), timing);
            let mut verifier =
                AttestationVerifier::new(PhotonicPuf::reference(die, 2), memory, timing);
            for s in 0..sessions {
                let report = run_wire_attestation(
                    &mut channel,
                    &mut device,
                    &mut verifier,
                    s as u64,
                    cfg,
                    &mut Tracer::disabled(),
                );
                retransmits += u64::from(report.retransmits);
                if report.succeeded() {
                    completed += 1;
                }
            }
        }
        "eke" => {
            let crp = Response::from_u64(0xE18 ^ cell_idx as u64, 63);
            for s in 0..sessions {
                // Key exchange is one-shot: fresh parties per session,
                // each with its own derived RNG stream.
                let mut tag_a = b"e18-eke-init".to_vec();
                tag_a.extend_from_slice(&(s as u64).to_le_bytes());
                let mut tag_b = b"e18-eke-resp".to_vec();
                tag_b.extend_from_slice(&(s as u64).to_le_bytes());
                let mut initiator = EkeParty::new(&crp, &tag_a);
                let mut responder = EkeParty::new(&crp, &tag_b);
                let report = run_wire_exchange(
                    &mut channel,
                    &mut initiator,
                    &mut responder,
                    s as u64,
                    cfg,
                    &mut Tracer::disabled(),
                );
                retransmits += u64::from(report.retransmits);
                if report.succeeded() && initiator.session() == responder.session() {
                    completed += 1;
                }
            }
        }
        _ => {
            let key = [0xE1u8; 32];
            let mut owner = NetworkOwner::new(key, b"e18-owner");
            let accel =
                share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), key));
            let config = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
            let network_blob = owner.cipher_network(&config);
            let input_blob = owner.cipher_input(&[1.0, 0.5, -0.25, 0.0]);
            for s in 0..sessions {
                // A single inference is a batch of one.
                let (report, output) = run_wire_batch_inference(
                    &mut channel,
                    &accel,
                    Some(network_blob.clone()),
                    std::slice::from_ref(&input_blob),
                    s as u64,
                    cfg,
                    &mut Tracer::disabled(),
                    None,
                );
                retransmits += u64::from(report.retransmits);
                let delivered = output.is_some_and(|blobs| {
                    owner
                        .decipher_outputs(&blobs)
                        .is_ok_and(|outputs| outputs.len() == 1)
                });
                if report.succeeded() && delivered {
                    completed += 1;
                }
            }
        }
    }

    let realized = channel.realized_rates();
    CellReport {
        protocol,
        fault,
        rate,
        sessions,
        completed,
        retransmits,
        desync_recoveries,
        realized_rate: match fault {
            "drop" => realized.drop,
            _ => realized.corrupt,
        },
        frames: realized.admitted,
    }
}

/// Runs the robustness sweep.
pub fn run(scale: Scale) -> (Rendered, Vec<CellReport>) {
    let rates: Vec<f64> = scale.pick(vec![0.0, 0.2], vec![0.0, 0.05, 0.1, 0.2, 0.3]);
    let sessions = scale.pick(10, 60);

    let mut cells: Vec<(usize, &'static str, &'static str, f64)> = Vec::new();
    for protocol in PROTOCOLS {
        for fault in FAULTS {
            for &rate in &rates {
                cells.push((cells.len(), protocol, fault, rate));
            }
        }
    }
    let reports: Vec<CellReport> =
        neuropuls_rt::pool::par_map(cells, |(idx, protocol, fault, rate)| {
            run_cell(idx, protocol, fault, rate, sessions)
        });

    let mut out = Rendered::new("E18 (§III) — protocol robustness under adversarial transport");
    out.push(format!(
        "{sessions} sessions per cell, stop-and-wait ARQ (timeout 3 ticks, 4 retries):"
    ));
    out.push(format!(
        "{:>12} {:>8} {:>6} {:>9} {:>10} {:>9} {:>13} {:>10}",
        "protocol",
        "fault",
        "rate",
        "realized",
        "completed",
        "success%",
        "retx/session",
        "recoveries"
    ));
    for r in &reports {
        out.push(format!(
            "{:>12} {:>8} {:>6.2} {:>9.3} {:>6}/{:<3} {:>8.1}% {:>13.2} {:>10}",
            r.protocol,
            r.fault,
            r.rate,
            r.realized_rate,
            r.completed,
            r.sessions,
            r.success_rate() * 100.0,
            r.retransmits as f64 / r.sessions.max(1) as f64,
            r.desync_recoveries,
        ));
    }
    out.push(
        "zero-fault cells complete every session with zero retransmissions; under loss the \
         ARQ buys completion with retransmissions until the retry budget saturates, and \
         mutual auth repairs every Msg3-loss desync through the stored previous CRP"
            .to_string(),
    );
    (out, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_protocol_robustness() {
        let (_, reports) = run(Scale::Smoke);
        assert_eq!(reports.len(), 4 * 2 * 2);
        for r in &reports {
            assert!(r.completed <= r.sessions, "{r:?}");
            if r.rate == 0.0 {
                assert_eq!(r.completed, r.sessions, "zero-fault cell failed: {r:?}");
                assert_eq!(r.retransmits, 0, "zero-fault cell retransmitted: {r:?}");
            }
            if r.protocol != "mutual-auth" {
                assert_eq!(r.desync_recoveries, 0, "{r:?}");
            }
        }
        // The ARQ must do real work somewhere in the faulty cells.
        let faulty_retx: u64 = reports
            .iter()
            .filter(|r| r.rate > 0.0)
            .map(|r| r.retransmits)
            .sum();
        assert!(
            faulty_retx > 0,
            "no retransmissions across the faulty cells"
        );
        // The channel's realized fault rates must track the configured
        // rate: exactly zero at rate 0, nonzero and within a generous
        // sampling tolerance otherwise.
        for r in &reports {
            assert!(
                r.frames > 0,
                "a cell that ran sessions admitted frames: {r:?}"
            );
            if r.rate == 0.0 {
                assert_eq!(r.realized_rate, 0.0, "{r:?}");
            } else {
                assert!(r.realized_rate > 0.0, "{r:?}");
                assert!(
                    (r.realized_rate - r.rate).abs() < 0.15,
                    "realized rate far from configured: {r:?}"
                );
            }
        }
    }
}
