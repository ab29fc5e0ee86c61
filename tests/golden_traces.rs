//! Golden-transcript tests: the structured trace of one full wire
//! session per §III protocol — plus a 3-device fleet attestation round —
//! is pinned byte-for-byte against fixtures in `tests/golden/*.trace`.
//!
//! Each fixture is the JSONL event log (`Tracer::to_jsonl`) of a fixed
//! seed, fixed configuration run through a lossy `FaultyChannel`, so the
//! fixtures pin the frame schedule, the ARQ retransmission pattern and
//! the span structure all at once. Any behavioral change to the wire
//! layer, the protocols, the fault model or the tracer shows up here as
//! a readable diff.
//!
//! Regenerating after an intentional change:
//!
//! ```text
//! NEUROPULS_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then review the fixture diff like any other code change.

use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{
    run_wire_attestation, AttestationVerifier, AttestingDevice, TimingModel,
};
use neuropuls_protocols::attestation::{WireAttestationVerifier, WireAttestingDevice};
use neuropuls_protocols::eke::{run_wire_exchange, EkeParty, WireEkeInitiator, WireEkeResponder};
use neuropuls_protocols::gateway::{
    run_gateway, ClassId, DeficitWeightedRoundRobin, GatewayConfig, GatewayReport, SessionPair,
};
use neuropuls_protocols::mutual_auth::{
    run_wire_session, Device, Verifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::secure_nn::{
    run_wire_batch_inference, share_accelerator, NetworkOwner, SecureAccelerator,
    WireNnBatchClient, WireNnBatchServer,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_protocols::ProtocolError;
use neuropuls_puf::bits::Response;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_system::fleet::{
    run_fleet, run_fleet_persistent, FleetConfig, PersistentFleetConfig,
};
use std::path::PathBuf;

/// Compares `jsonl` against `tests/golden/{name}.trace`, or rewrites the
/// fixture when `NEUROPULS_BLESS=1` is set.
fn check_golden(name: &str, jsonl: &str) {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        &format!("{name}.trace"),
    ]
    .iter()
    .collect();
    if std::env::var("NEUROPULS_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, jsonl).unwrap_or_else(|e| panic!("blessing {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrun `NEUROPULS_BLESS=1 cargo test --test golden_traces` to create it",
            path.display()
        )
    });
    assert!(
        jsonl == expected,
        "trace diverged from {} — if the change is intentional, regenerate with \
         `NEUROPULS_BLESS=1 cargo test --test golden_traces` and review the diff.\n\
         --- expected ---\n{expected}\n--- actual ---\n{jsonl}",
        path.display()
    );
}

/// The lossy link every protocol fixture runs over: ~10% frame loss so
/// the fixture pins the retransmission schedule, not just the happy
/// path.
fn lossy(seed: u64) -> FaultyChannel {
    FaultyChannel::new(FaultRates::loss(0.1), seed)
}

#[test]
fn golden_mutual_auth_session() {
    let puf = PhotonicPuf::reference(DieId(31), 1);
    let (mut device, provisioned) =
        Device::provision(puf, vec![0xA5; 1024], b"golden-provision").expect("provisions");
    let mut verifier = Verifier::new(provisioned, b"golden-verifier");
    let mut channel = lossy(0x601D_0001);
    let mut tracer = Tracer::new();
    let report = run_wire_session(
        &mut channel,
        &mut device,
        &mut verifier,
        1,
        SessionConfig::default(),
        &mut tracer,
    );
    assert!(report.succeeded(), "{:?}", report.result);
    check_golden("mutual_auth", &tracer.to_jsonl());
}

#[test]
fn golden_attestation_session() {
    let memory: Vec<u8> = (0..2048).map(|i| (i * 31 % 251) as u8).collect();
    let timing = TimingModel::photonic();
    let mut device =
        AttestingDevice::new(PhotonicPuf::reference(DieId(32), 1), memory.clone(), timing);
    let mut verifier =
        AttestationVerifier::new(PhotonicPuf::reference(DieId(32), 2), memory, timing);
    let mut channel = lossy(0x601D_0002);
    let mut tracer = Tracer::new();
    let report = run_wire_attestation(
        &mut channel,
        &mut device,
        &mut verifier,
        1,
        SessionConfig::default(),
        &mut tracer,
    );
    assert!(report.succeeded(), "{:?}", report.result);
    check_golden("attestation", &tracer.to_jsonl());
}

#[test]
fn golden_eke_session() {
    let crp = Response::from_u64(0x601D, 63);
    let mut initiator = EkeParty::new(&crp, b"golden-eke-init");
    let mut responder = EkeParty::new(&crp, b"golden-eke-resp");
    let mut channel = lossy(0x601D_0003);
    let mut tracer = Tracer::new();
    let report = run_wire_exchange(
        &mut channel,
        &mut initiator,
        &mut responder,
        1,
        SessionConfig::default(),
        &mut tracer,
    );
    assert!(report.succeeded(), "{:?}", report.result);
    assert_eq!(initiator.session(), responder.session());
    check_golden("eke", &tracer.to_jsonl());
}

#[test]
fn golden_secure_nn_session() {
    let key = [0x5A; 32];
    let mut owner = NetworkOwner::new(key, b"golden-owner");
    let accel = share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), key));
    let config = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
    let network_blob = owner.cipher_network(&config);
    let input_blob = owner.cipher_input(&[1.0, 0.5, -0.25, 0.0]);
    let mut channel = lossy(0x601D_0004);
    let mut tracer = Tracer::new();
    let (report, output) = run_wire_batch_inference(
        &mut channel,
        &accel,
        Some(network_blob),
        &[input_blob],
        1,
        SessionConfig::default(),
        &mut tracer,
        None,
    );
    assert!(report.succeeded(), "{:?}", report.result);
    assert_eq!(output.map(|blobs| blobs.len()), Some(1));
    check_golden("secure_nn", &tracer.to_jsonl());
}

#[test]
fn golden_fleet_attestation_round() {
    let config = FleetConfig {
        devices: 3,
        verifiers: 1,
        period_us: 20.0,
        horizon_us: 60.0,
        compromised_fraction: 0.34,
        seed: 0x601D_F1EE,
        auth_sessions: 1,
        auth_loss_rate: 0.1,
        crp_shards: 2,
        crp_hot_capacity: 2,
    };
    let mut tracer = Tracer::new();
    let registry = Registry::new();
    let report = run_fleet(&config, &mut tracer, &registry);
    assert!(report.attestations > 0, "{report:?}");
    check_golden("fleet_round", &tracer.to_jsonl());
}

/// A small keep-alive fleet across two re-attestation epochs with one
/// tampered device: the fixture pins the persistent gateway's timer
/// schedule (jittered fires, idle fast-forwards), the per-epoch session
/// traces and the consecutive-failure eviction of the tampered slot.
#[test]
fn golden_persistent_fleet_sessions() {
    let config = PersistentFleetConfig {
        devices: 3,
        reattest_period: 200,
        jitter: 16,
        epochs_per_device: 2,
        epoch_budget: 64,
        max_consecutive_failures: 2,
        corrupted_devices: 1,
        loss_rate: 0.1,
        seed: 0x0006_01DF_1EE7,
        crp_shards: 2,
        crp_hot_capacity: 2,
        horizon: 2048,
        ..PersistentFleetConfig::default()
    };
    let mut tracer = Tracer::new();
    let registry = Registry::new();
    let report = run_fleet_persistent(&config, &mut tracer, &registry);
    assert_eq!(report.evicted, 1, "{report:?}");
    assert_eq!(report.left, 2, "{report:?}");
    assert!(report.epochs_completed >= 4, "{report:?}");
    check_golden("fleet_persistent", &tracer.to_jsonl());
}

/// One session of every §III protocol multiplexed over a single lossy
/// link: the fixture pins the gateway's admission order, the demux
/// schedule and each session's ARQ pattern under shared-wire contention.
#[test]
fn golden_gateway_mixed_session() {
    let cfg = SessionConfig::default();

    let (mut auth_device, provisioned) = Device::provision(
        PhotonicPuf::reference(DieId(33), 1),
        vec![0xC3; 1024],
        b"golden-gateway-provision",
    )
    .expect("provisions");
    let mut auth_verifier = Verifier::new(provisioned, b"golden-gateway-verifier");

    let memory: Vec<u8> = (0..1024).map(|i| (i * 37 % 239) as u8).collect();
    let timing = TimingModel::photonic();
    let mut att_device =
        AttestingDevice::new(PhotonicPuf::reference(DieId(34), 1), memory.clone(), timing);
    let mut att_verifier =
        AttestationVerifier::new(PhotonicPuf::reference(DieId(34), 2), memory, timing);

    let crp = Response::from_u64(0x601D_6A7E, 63);
    let mut eke_initiator = EkeParty::new(&crp, b"golden-gateway-eke-init");
    let mut eke_responder = EkeParty::new(&crp, b"golden-gateway-eke-resp");

    let key = [0x3C; 32];
    let mut owner = NetworkOwner::new(key, b"golden-gateway-owner");
    let accel = share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), key));
    let net = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
    let network_blob = owner.cipher_network(&net);
    let input_blob = owner.cipher_input(&[0.75, -0.5, 0.25, 1.0]);

    let sessions = vec![
        SessionPair::new(
            ProtocolId::MutualAuth,
            1,
            Box::new(WireVerifier::new(&mut auth_verifier, 1, cfg)),
            Box::new(WireDevice::new(&mut auth_device, cfg)),
        ),
        SessionPair::new(
            ProtocolId::Attestation,
            2,
            Box::new(WireAttestationVerifier::new(&mut att_verifier, 2, cfg)),
            Box::new(WireAttestingDevice::new(&mut att_device, cfg)),
        ),
        SessionPair::new(
            ProtocolId::Eke,
            3,
            Box::new(WireEkeInitiator::new(&mut eke_initiator, 3, cfg)),
            Box::new(WireEkeResponder::new(&mut eke_responder, cfg)),
        ),
        SessionPair::new(
            ProtocolId::SecureNn,
            4,
            Box::new(WireNnBatchClient::with_load(
                4,
                network_blob,
                &[input_blob],
                cfg,
            )),
            Box::new(WireNnBatchServer::new(accel, cfg)),
        ),
    ];

    let mut channel = lossy(0x601D_0005);
    let mut tracer = Tracer::new();
    let registry = Registry::new();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig::default(),
        &mut tracer,
        &registry,
    );
    assert!(report.all_completed(), "{report:?}");
    check_golden("gateway", &tracer.to_jsonl());
}

/// The same four-protocol mix under a *class-aware* admission policy:
/// two active slots force a live backlog, the authentication session is
/// tagged control-plane and the inference session bulk, and deficit
/// weighted round-robin interleaves the classes instead of draining the
/// backlog in submission order. The fixture pins the weighted admission
/// schedule — the policy seam's non-FIFO side — byte for byte.
#[test]
fn golden_gateway_wfq() {
    let cfg = SessionConfig::default();

    let (mut auth_device, provisioned) = Device::provision(
        PhotonicPuf::reference(DieId(35), 1),
        vec![0x96; 1024],
        b"golden-wfq-provision",
    )
    .expect("provisions");
    let mut auth_verifier = Verifier::new(provisioned, b"golden-wfq-verifier");

    let memory: Vec<u8> = (0..1024).map(|i| (i * 43 % 233) as u8).collect();
    let timing = TimingModel::photonic();
    let mut att_device =
        AttestingDevice::new(PhotonicPuf::reference(DieId(36), 1), memory.clone(), timing);
    let mut att_verifier =
        AttestationVerifier::new(PhotonicPuf::reference(DieId(36), 2), memory, timing);

    let crp = Response::from_u64(0x601D_0F6A, 63);
    let mut eke_initiator = EkeParty::new(&crp, b"golden-wfq-eke-init");
    let mut eke_responder = EkeParty::new(&crp, b"golden-wfq-eke-resp");

    let key = [0x69; 32];
    let mut owner = NetworkOwner::new(key, b"golden-wfq-owner");
    let accel = share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), key));
    let net = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
    let network_blob = owner.cipher_network(&net);
    let input_blob = owner.cipher_input(&[0.5, 1.0, -0.75, 0.25]);

    let sessions = vec![
        SessionPair::new(
            ProtocolId::MutualAuth,
            1,
            Box::new(WireVerifier::new(&mut auth_verifier, 1, cfg)),
            Box::new(WireDevice::new(&mut auth_device, cfg)),
        )
        .with_class(ClassId::CONTROL_AUTH),
        SessionPair::new(
            ProtocolId::Attestation,
            2,
            Box::new(WireAttestationVerifier::new(&mut att_verifier, 2, cfg)),
            Box::new(WireAttestingDevice::new(&mut att_device, cfg)),
        )
        .with_class(ClassId::CONTROL_AUTH),
        SessionPair::new(
            ProtocolId::Eke,
            3,
            Box::new(WireEkeInitiator::new(&mut eke_initiator, 3, cfg)),
            Box::new(WireEkeResponder::new(&mut eke_responder, cfg)),
        )
        .with_class(ClassId::INFERENCE),
        SessionPair::new(
            ProtocolId::SecureNn,
            4,
            Box::new(WireNnBatchClient::with_load(
                4,
                network_blob,
                &[input_blob],
                cfg,
            )),
            Box::new(WireNnBatchServer::new(accel, cfg)),
        )
        .with_class(ClassId::INFERENCE),
    ];

    let mut channel = lossy(0x601D_0006);
    let mut tracer = Tracer::new();
    let registry = Registry::new();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig {
            max_active: 2,
            accept_queue: 2,
            policy: Box::new(DeficitWeightedRoundRobin::new()),
            ..GatewayConfig::default()
        },
        &mut tracer,
        &registry,
    );
    assert!(report.all_completed(), "{report:?}");
    assert_eq!(report.policy, "dwrr", "{report:?}");
    check_golden("gateway_wfq", &tracer.to_jsonl());
}

/// Ten mutual-authentication sessions and one duplicate key through a
/// three-wide active set over a lossy, duplicating link, cut off by the
/// tick budget. The fixture pins five backlog situations at once: a live
/// backlog behind `max_active = 3`; a tick on which the whole active set
/// closes while sessions still wait, followed by an admission tick that
/// is not a multiple of three (so the round-robin rotation must keep
/// counting from the run's first tick, not restart with the new cohort);
/// a duplicate key failing at submission; a budget cutoff that leaves a
/// session never admitted; and late duplicates of closed sessions'
/// frames.
#[test]
fn golden_gateway_backlog() {
    let (report, jsonl) = backlog_run(BACKLOG_SEED, BACKLOG_TICKS);
    assert_eq!(report.peak_active, 3, "{report:?}");
    let dups = report
        .outcomes
        .iter()
        .filter(|o| matches!(o.result, Err(ProtocolError::OutOfOrder(_))))
        .count();
    assert_eq!(dups, 1, "{report:?}");
    assert!(report.unfinished >= 1, "{report:?}");
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.admitted_at.is_none()
                && matches!(o.result, Err(ProtocolError::Timeout { .. }))),
        "a session must be left in the backlog: {report:?}"
    );
    assert!(report.late_frames > 0, "{report:?}");
    assert!(
        full_close_before_unaligned_admission(&jsonl),
        "no tick closes the whole active set ahead of an admission off the rotation origin"
    );
    check_golden("gateway_backlog", &jsonl);
}

const BACKLOG_SEED: u64 = 0x601D_0008;
const BACKLOG_TICKS: u64 = 7;

fn backlog_run(seed: u64, max_ticks: u64) -> (GatewayReport, String) {
    let cfg = SessionConfig::default();
    let mut parties: Vec<(Device<PhotonicPuf>, Verifier)> = (0..11u64)
        .map(|i| {
            let (device, provisioned) = Device::provision(
                PhotonicPuf::reference(DieId(0x70 + i), 1),
                vec![0x5C ^ i as u8; 256],
                b"golden-backlog-provision",
            )
            .expect("provisions");
            (
                device,
                Verifier::new(provisioned, b"golden-backlog-verifier"),
            )
        })
        .collect();
    let sessions: Vec<SessionPair<'_>> = parties
        .iter_mut()
        .enumerate()
        .map(|(i, (device, verifier))| {
            // Submission 4 reuses submission 1's key.
            let sid = if i == 4 { 2 } else { i as u64 + 1 };
            SessionPair::new(
                ProtocolId::MutualAuth,
                sid,
                Box::new(WireVerifier::new(verifier, sid, cfg)),
                Box::new(WireDevice::new(device, cfg)),
            )
        })
        .collect();
    let rates = FaultRates {
        drop: 0.05,
        duplicate: 0.2,
        replay: 0.1,
        ..FaultRates::none()
    };
    let mut channel = FaultyChannel::new(rates, seed);
    let mut tracer = Tracer::new();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig {
            max_active: 3,
            accept_queue: 3,
            max_ticks,
            ..GatewayConfig::default()
        },
        &mut tracer,
        &Registry::new(),
    );
    (report, tracer.to_jsonl())
}

/// `(tick, name)` of every event in a JSONL trace.
fn trace_events(jsonl: &str) -> Vec<(u64, &str)> {
    jsonl
        .lines()
        .filter_map(|line| {
            let tick = line.strip_prefix("{\"tick\":")?;
            let tick: u64 = tick[..tick.find(',')?].parse().ok()?;
            let name = line.split("\"name\":\"").nth(1)?;
            Some((tick, &name[..name.find('"')?]))
        })
        .collect()
}

/// Whether some tick closes every active session while later sessions
/// still wait, and the next admission lands on a tick that is not a
/// multiple of the three-wide active set.
fn full_close_before_unaligned_admission(jsonl: &str) -> bool {
    let events = trace_events(jsonl);
    let count = |tick: u64, name: &str| {
        events
            .iter()
            .filter(|&&(t, n)| t == tick && n == name)
            .count()
    };
    let last = events.last().map_or(0, |&(t, _)| t);
    let mut active = 0usize;
    for tick in 0..=last {
        active += count(tick, "gateway.admit");
        let closed = count(tick, "gateway.session_closed");
        if closed >= 2 && closed == active {
            let next = events
                .iter()
                .find(|&&(t, n)| t > tick && n == "gateway.admit")
                .map(|&(t, _)| t);
            if next.is_some_and(|t| t % 3 != 0) {
                return true;
            }
        }
        active -= closed;
    }
    false
}
