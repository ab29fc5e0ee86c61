//! Admission-policy regression suite (ISSUE 10 satellite): pins the
//! contracts the `gateway/` split must hold forever.
//!
//! * The default [`GatewayConfig`] and an explicitly configured
//!   [`Fifo`] policy produce **byte-identical** runs — same tracer
//!   JSONL, same outcomes — so the policy seam cannot drift from the
//!   pre-refactor backlog behavior the golden transcripts pin.
//! * A class-aware policy degenerates to FIFO when it has nothing to
//!   discriminate: a single-class [`DeficitWeightedRoundRobin`] run is
//!   byte-identical to the FIFO run.
//! * FIFO's head-of-line blocking is pinned as *behavior*, not an
//!   accident: under a tick budget shorter than the backlog's drain, a
//!   trailing class is never admitted and its backlog wait is censored
//!   at the run length, while DWRR admits it through the same budget.

use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::{
    run_gateway, AdmissionPolicy, ClassId, DeficitWeightedRoundRobin, Fifo, GatewayConfig,
    SessionPair,
};
use neuropuls_protocols::mutual_auth::{Device, Verifier, WireDevice, WireVerifier};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::{Registry, Tracer};

const PAIRS: usize = 6;
const LINK_SEED: u64 = 0x0AD1_1155_10B5;

fn provision() -> Vec<(Device<PhotonicPuf>, Verifier)> {
    (0..PAIRS as u64)
        .map(|i| {
            let memory: Vec<u8> = (0..256).map(|b| (b * 13 % 247) as u8).collect();
            let (device, provisioned) = Device::provision(
                PhotonicPuf::reference(DieId(0xAD0 + i), 1),
                memory,
                b"admission-prov",
            )
            .expect("reference PUF provisions");
            (device, Verifier::new(provisioned, b"admission-verif"))
        })
        .collect()
}

fn sessions<'p>(
    parties: &'p mut [(Device<PhotonicPuf>, Verifier)],
    class: Option<ClassId>,
) -> Vec<SessionPair<'p>> {
    parties
        .iter_mut()
        .enumerate()
        .map(|(i, (device, verifier))| {
            let sid = i as u64 + 1;
            let pair = SessionPair::new(
                ProtocolId::MutualAuth,
                sid,
                Box::new(WireVerifier::new(verifier, sid, SessionConfig::default())),
                Box::new(WireDevice::new(device, SessionConfig::default())),
            );
            match class {
                Some(c) => pair.with_class(c),
                None => pair,
            }
        })
        .collect()
}

/// One traced gateway run over a freshly seeded lossy link; returns
/// the full JSONL event log and the debug rendering of the outcomes,
/// which together pin the admission order, the frame schedule and the
/// per-session results byte for byte.
fn traced_run(config: GatewayConfig, class: Option<ClassId>) -> (String, String) {
    let mut parties = provision();
    let sessions = sessions(&mut parties, class);
    let mut link = FaultyChannel::new(FaultRates::loss(0.1), LINK_SEED);
    let mut tracer = Tracer::new();
    let report = run_gateway(&mut link, sessions, config, &mut tracer, &Registry::new());
    assert_eq!(report.completed, PAIRS, "{report:?}");
    (tracer.to_jsonl(), format!("{:?}", report.outcomes))
}

fn contended() -> GatewayConfig {
    // Two active slots against six sessions: the backlog is live for
    // most of the run, so the admission policy's pop order shapes the
    // whole trace.
    GatewayConfig {
        max_active: 2,
        accept_queue: 2,
        ..GatewayConfig::default()
    }
}

#[test]
fn explicit_fifo_is_byte_identical_to_the_default_policy() {
    let (default_jsonl, default_outcomes) = traced_run(contended(), None);
    let (fifo_jsonl, fifo_outcomes) = traced_run(
        GatewayConfig {
            policy: Box::new(Fifo::new()),
            ..contended()
        },
        None,
    );
    assert_eq!(default_jsonl, fifo_jsonl, "tracer event log diverged");
    assert_eq!(default_outcomes, fifo_outcomes);
}

#[test]
fn single_class_dwrr_is_byte_identical_to_fifo() {
    // Every session in one class: DWRR has a single ring entry, so its
    // rotation is vacuous and the pop order must be FIFO's.
    let (fifo_jsonl, fifo_outcomes) = traced_run(contended(), Some(ClassId::CONTROL_AUTH));
    let (dwrr_jsonl, dwrr_outcomes) = traced_run(
        GatewayConfig {
            policy: Box::new(DeficitWeightedRoundRobin::new()),
            ..contended()
        },
        Some(ClassId::CONTROL_AUTH),
    );
    assert_eq!(fifo_jsonl, dwrr_jsonl, "tracer event log diverged");
    assert_eq!(fifo_outcomes, dwrr_outcomes);
}

/// Head-of-line blocking, pinned: a trailing minority class behind a
/// majority burst under a tick budget too short to drain the burst.
fn hol_run(policy: Box<dyn AdmissionPolicy>) -> neuropuls_protocols::gateway::GatewayReport {
    let mut parties = provision();
    let n = parties.len();
    let sessions: Vec<SessionPair<'_>> = parties
        .iter_mut()
        .enumerate()
        .map(|(i, (device, verifier))| {
            let sid = i as u64 + 1;
            let class = if i == n - 1 {
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
        .collect();
    let mut link = FaultyChannel::new(FaultRates::loss(0.1), LINK_SEED);
    run_gateway(
        &mut link,
        sessions,
        GatewayConfig {
            max_active: 1,
            accept_queue: 1,
            // One session drains in ~2 ticks on this link, so eight
            // ticks admit only the head of the six-deep backlog.
            max_ticks: 8,
            policy,
        },
        &mut Tracer::disabled(),
        &Registry::new(),
    )
}

#[test]
fn fifo_head_of_line_blocking_starves_the_trailing_class() {
    let fifo = hol_run(Box::new(Fifo::new()));
    let minority = fifo
        .per_class
        .iter()
        .find(|c| c.class == ClassId::INFERENCE)
        .expect("minority class is reported");
    assert_eq!(minority.admitted, 0, "{fifo:?}");
    // Censoring: the starved session waited the whole run, so the
    // class's wait columns equal the run length instead of vanishing.
    assert_eq!(minority.wait_p99, fifo.ticks, "{fifo:?}");
    assert_eq!(minority.wait_max, fifo.ticks, "{fifo:?}");

    let dwrr = hol_run(Box::new(DeficitWeightedRoundRobin::new()));
    let minority = dwrr
        .per_class
        .iter()
        .find(|c| c.class == ClassId::INFERENCE)
        .expect("minority class is reported");
    assert_eq!(minority.admitted, 1, "{dwrr:?}");
    assert!(minority.wait_max < dwrr.ticks, "{dwrr:?}");
}
