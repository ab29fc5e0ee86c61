//! Wire-level session integration tests: the acceptance criteria of the
//! protocol/transport refactor.
//!
//! * every protocol completes through a zero-fault [`FaultyChannel`]
//!   with a transcript byte-identical to the perfect [`Channel`];
//! * mutual authentication survives a lost Msg3 (the verifier's stored
//!   previous CRP recovers the desync);
//! * sessions still complete under heavy loss thanks to the ARQ layer;
//! * a zero-fault [`FaultyChannel`] is byte-identical to [`Channel`]
//!   for arbitrary frame streams (property-based).

use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{
    run_wire_attestation, AttestationVerifier, AttestingDevice, TimingModel,
};
use neuropuls_protocols::eke::{run_wire_exchange, EkeParty};
use neuropuls_protocols::mutual_auth::{run_wire_session, Device, Verifier};
use neuropuls_protocols::secure_nn::{
    run_wire_batch_inference, share_accelerator, NetworkOwner, SecureAccelerator, SharedAccelerator,
};
use neuropuls_protocols::transport::{
    Channel, FaultRates, FaultyChannel, MitmVerdict, Side, Transport,
};
use neuropuls_protocols::wire::{Envelope, MutualAuthMsg, ProtocolId, SessionConfig};
use neuropuls_protocols::ProtocolError;
use neuropuls_puf::bits::Response;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::codec::FromBytes;
use neuropuls_rt::prelude::*;
use neuropuls_rt::trace::Tracer;

fn auth_pair(die: u64) -> (Device<PhotonicPuf>, Verifier) {
    let puf = PhotonicPuf::reference(DieId(die), die * 7 + 1);
    let (device, provisioned) =
        Device::provision(puf, vec![0xA5; 1024], b"provision-seed").unwrap();
    let verifier = Verifier::new(provisioned, b"verifier-rng");
    (device, verifier)
}

fn attest_pair(die: u64) -> (AttestingDevice, AttestationVerifier) {
    let memory: Vec<u8> = (0..2048).map(|i| (i * 31 % 251) as u8).collect();
    let timing = TimingModel::photonic();
    (
        AttestingDevice::new(
            PhotonicPuf::reference(DieId(die), 1),
            memory.clone(),
            timing,
        ),
        AttestationVerifier::new(PhotonicPuf::reference(DieId(die), 2), memory, timing),
    )
}

fn nn_blobs() -> (NetworkOwner, SharedAccelerator, Vec<u8>, Vec<u8>) {
    let key = [0x5A; 32];
    let mut owner = NetworkOwner::new(key, b"owner-rng");
    let accel = share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), key));
    let config = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
    let network_blob = owner.cipher_network(&config);
    let input_blob = owner.cipher_input(&[1.0, 0.5, -0.25, 0.0]);
    (owner, accel, network_blob, input_blob)
}

// ---------------------------------------------------------------------------
// Zero-fault transcript equivalence for all four protocols
// ---------------------------------------------------------------------------

#[test]
fn mutual_auth_zero_fault_transcript_matches_perfect_channel() {
    let mut perfect = Channel::new();
    let (mut d1, mut v1) = auth_pair(1);
    assert!(run_wire_session(
        &mut perfect,
        &mut d1,
        &mut v1,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());

    let mut faulty = FaultyChannel::new(FaultRates::none(), 99);
    let (mut d2, mut v2) = auth_pair(1);
    assert!(run_wire_session(
        &mut faulty,
        &mut d2,
        &mut v2,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());

    assert_eq!(perfect.transcript(), faulty.transcript());
    assert!(!perfect.transcript().is_empty());
}

#[test]
fn attestation_zero_fault_transcript_matches_perfect_channel() {
    let mut perfect = Channel::new();
    let (mut d1, mut v1) = attest_pair(2);
    assert!(run_wire_attestation(
        &mut perfect,
        &mut d1,
        &mut v1,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());

    let mut faulty = FaultyChannel::new(FaultRates::none(), 99);
    let (mut d2, mut v2) = attest_pair(2);
    assert!(run_wire_attestation(
        &mut faulty,
        &mut d2,
        &mut v2,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());

    assert_eq!(perfect.transcript(), faulty.transcript());
}

#[test]
fn eke_zero_fault_transcript_matches_perfect_channel() {
    let crp = Response::from_u64(0x1234, 63);
    let mut perfect = Channel::new();
    let mut i1 = EkeParty::new(&crp, b"rng-a");
    let mut r1 = EkeParty::new(&crp, b"rng-b");
    assert!(run_wire_exchange(
        &mut perfect,
        &mut i1,
        &mut r1,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());
    assert_eq!(i1.session(), r1.session());

    let mut faulty = FaultyChannel::new(FaultRates::none(), 99);
    let mut i2 = EkeParty::new(&crp, b"rng-a");
    let mut r2 = EkeParty::new(&crp, b"rng-b");
    assert!(run_wire_exchange(
        &mut faulty,
        &mut i2,
        &mut r2,
        7,
        SessionConfig::default(),
        &mut Tracer::disabled()
    )
    .succeeded());

    assert_eq!(perfect.transcript(), faulty.transcript());
}

#[test]
fn secure_nn_zero_fault_transcript_matches_perfect_channel() {
    let (owner, a1, net, inp) = nn_blobs();
    let mut perfect = Channel::new();
    let (report, out1) = run_wire_batch_inference(
        &mut perfect,
        &a1,
        Some(net.clone()),
        std::slice::from_ref(&inp),
        7,
        SessionConfig::default(),
        &mut Tracer::disabled(),
        None,
    );
    assert!(report.succeeded());

    let (_, a2, _, _) = nn_blobs();
    let mut faulty = FaultyChannel::new(FaultRates::none(), 99);
    let (report2, out2) = run_wire_batch_inference(
        &mut faulty,
        &a2,
        Some(net),
        &[inp],
        7,
        SessionConfig::default(),
        &mut Tracer::disabled(),
        None,
    );
    assert!(report2.succeeded());

    assert_eq!(perfect.transcript(), faulty.transcript());
    assert_eq!(out1, out2);
    let outputs = owner.decipher_outputs(&out1.unwrap()).unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(outputs[0].len(), 4);
    assert!((outputs[0][0] - 1.0).abs() < 0.05);
}

// ---------------------------------------------------------------------------
// Loss recovery
// ---------------------------------------------------------------------------

/// The headline HSC-IoT property: when every Msg3 of a session is lost,
/// the verifier has rotated but the device has not — and the *next*
/// session still authenticates through the stored previous response.
#[test]
fn mutual_auth_recovers_from_dropped_msg3_via_previous_crp() {
    let (mut device, mut verifier) = auth_pair(3);

    // An adversarial channel that swallows every VerifierConfirm.
    let mut channel = FaultyChannel::new(FaultRates::none(), 5);
    channel.set_mitm(Box::new(|_from: Side, frame: &[u8]| {
        if let Ok(env) = Envelope::from_bytes(frame) {
            if env.protocol == ProtocolId::MutualAuth
                && matches!(env.open(), Ok(MutualAuthMsg::Confirm(_)))
            {
                return MitmVerdict::Drop;
            }
        }
        MitmVerdict::Forward
    }));

    // Session 1: the device authenticates (the verifier rotates its
    // CRP) but never sees the confirmation — it exhausts its retry
    // budget and aborts, staying one CRP behind.
    let report = run_wire_session(
        &mut channel,
        &mut device,
        &mut verifier,
        1,
        SessionConfig::default(),
        &mut Tracer::disabled(),
    );
    assert!(!report.succeeded(), "session should fail without Msg3");
    assert!(
        matches!(report.result, Err(ProtocolError::Timeout { .. })),
        "expected a timeout, got {:?}",
        report.result
    );
    assert_eq!(verifier.desync_recoveries(), 0);

    // Session 2, clean channel: the verifier's stored previous response
    // must still authenticate the lagging device and re-synchronize.
    channel.clear_mitm();
    let report = run_wire_session(
        &mut channel,
        &mut device,
        &mut verifier,
        2,
        SessionConfig::default(),
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "recovery failed: {:?}", report.result);
    assert_eq!(verifier.desync_recoveries(), 1);

    // And a third, fully ordinary session works (no lingering desync).
    let report = run_wire_session(
        &mut channel,
        &mut device,
        &mut verifier,
        3,
        SessionConfig::default(),
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded());
    assert_eq!(verifier.desync_recoveries(), 1);
}

/// `Verifier::desync_recoveries` must count exactly one recovery per
/// suppressed Msg3 — no more (a recovered session must not keep
/// counting) and no less (every suppression costs exactly one fallback
/// on the next clean session). Three suppress/recover rounds pin both
/// directions.
#[test]
fn desync_recovery_counts_exactly_one_per_suppressed_msg3() {
    let (mut device, mut verifier) = auth_pair(4);
    let suppress_confirm = || {
        Box::new(|_from: Side, frame: &[u8]| {
            if let Ok(env) = Envelope::from_bytes(frame) {
                if env.protocol == ProtocolId::MutualAuth
                    && matches!(env.open(), Ok(MutualAuthMsg::Confirm(_)))
                {
                    return MitmVerdict::Drop;
                }
            }
            MitmVerdict::Forward
        })
    };

    for round in 0..3u64 {
        // Suppressed session: the device times out one CRP behind. The
        // suppression itself must not touch the counter.
        let mut channel = FaultyChannel::new(FaultRates::none(), 40 + round);
        channel.set_mitm(suppress_confirm());
        let report = run_wire_session(
            &mut channel,
            &mut device,
            &mut verifier,
            round * 2 + 1,
            SessionConfig::default(),
            &mut Tracer::disabled(),
        );
        assert!(!report.succeeded(), "round {round}: Msg3 was suppressed");
        assert_eq!(verifier.desync_recoveries(), round, "round {round}");

        // Clean session: exactly one previous-CRP fallback.
        let mut clean = FaultyChannel::new(FaultRates::none(), 140 + round);
        let report = run_wire_session(
            &mut clean,
            &mut device,
            &mut verifier,
            round * 2 + 2,
            SessionConfig::default(),
            &mut Tracer::disabled(),
        );
        assert!(report.succeeded(), "round {round}: {:?}", report.result);
        assert_eq!(verifier.desync_recoveries(), round + 1, "round {round}");
    }
}

// ---------------------------------------------------------------------------
// Heavy loss still completes
// ---------------------------------------------------------------------------

#[test]
fn all_protocols_complete_under_moderate_loss() {
    let cfg = SessionConfig::default();

    let mut channel = FaultyChannel::new(FaultRates::loss(0.2), 11);
    let (mut d, mut v) = auth_pair(5);
    let report = run_wire_session(
        &mut channel,
        &mut d,
        &mut v,
        1,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "mutual auth: {:?}", report.result);

    let mut channel = FaultyChannel::new(FaultRates::loss(0.2), 12);
    let (mut d, mut v) = attest_pair(5);
    let report = run_wire_attestation(
        &mut channel,
        &mut d,
        &mut v,
        1,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "attestation: {:?}", report.result);

    let crp = Response::from_u64(0x77, 63);
    let mut channel = FaultyChannel::new(FaultRates::loss(0.2), 13);
    let mut i = EkeParty::new(&crp, b"rng-a");
    let mut r = EkeParty::new(&crp, b"rng-b");
    let report = run_wire_exchange(
        &mut channel,
        &mut i,
        &mut r,
        1,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "eke: {:?}", report.result);
    assert_eq!(i.session(), r.session());

    let (_, accel, net, inp) = nn_blobs();
    let mut channel = FaultyChannel::new(FaultRates::loss(0.2), 14);
    let (report, out) = run_wire_batch_inference(
        &mut channel,
        &accel,
        Some(net),
        &[inp],
        1,
        cfg,
        &mut Tracer::disabled(),
        None,
    );
    assert!(report.succeeded(), "secure nn: {:?}", report.result);
    assert_eq!(out.map(|blobs| blobs.len()), Some(1));
}

#[test]
fn bit_corruption_is_recovered_by_retransmission() {
    // Corrupt roughly a third of frames: decode failures are treated as
    // silence and the ARQ retransmits clean copies.
    let mut channel = FaultyChannel::new(FaultRates::corruption(0.3), 21);
    let (mut d, mut v) = auth_pair(6);
    let before = v.current_response().clone();
    let report = run_wire_session(
        &mut channel,
        &mut d,
        &mut v,
        1,
        SessionConfig::default(),
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "{:?}", report.result);
    assert_ne!(v.current_response(), &before, "CRP did not rotate");
}

// ---------------------------------------------------------------------------
// Property: zero-fault FaultyChannel ≡ Channel for arbitrary traffic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn zero_fault_channel_is_byte_identical_to_perfect(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<u8>(), 0..48)),
            0..24,
        ),
        seed in 0u64..1024,
    ) {
        let mut perfect = Channel::new();
        let mut faulty = FaultyChannel::new(FaultRates::none(), seed);
        for (from_a, frame) in &ops {
            let side = if *from_a { Side::A } else { Side::B };
            perfect.send(side, frame.clone());
            faulty.send(side, frame.clone());
        }
        prop_assert_eq!(perfect.transcript(), faulty.transcript());
        for side in [Side::A, Side::B] {
            loop {
                let (p, f) = (perfect.recv(side), faulty.recv(side));
                prop_assert_eq!(&p, &f);
                if p.is_none() {
                    break;
                }
            }
        }
        let stats = faulty.stats();
        prop_assert_eq!(stats.sent, ops.len());
        prop_assert_eq!(stats.delivered, ops.len());
        prop_assert_eq!(stats.dropped + stats.corrupted + stats.duplicated, 0);
    }
}
