use super::*;
use crate::attestation::{
    AttestationVerifier, AttestingDevice, TimingModel, WireAttestationVerifier, WireAttestingDevice,
};
use crate::eke::{EkeParty, WireEkeInitiator, WireEkeResponder};
use crate::error::ProtocolError;
use crate::mutual_auth::{Device, Verifier, WireDevice, WireVerifier};
use crate::secure_nn::{NetworkOwner, SecureAccelerator, WireNnClient, WireNnServer};
use crate::transport::{Channel, FaultRates, FaultyChannel, Side};
use crate::wire::{Envelope, ProtocolId, SessionConfig};
use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_puf::bits::Response;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::codec::FromBytes;
use neuropuls_rt::trace::{Registry, Tracer};
use std::collections::BTreeMap;

/// A bundle of endpoint state backing one four-protocol session mix.
struct Endpoints {
    auth: Vec<(Device<PhotonicPuf>, Verifier)>,
    attest: Vec<(AttestingDevice, AttestationVerifier)>,
    eke: Vec<(EkeParty, EkeParty)>,
    nn: Vec<(SecureAccelerator, Vec<u8>, Vec<u8>)>,
}

fn endpoints(n: usize, seed: u8) -> Endpoints {
    let auth = (0..n)
        .map(|i| {
            let puf = PhotonicPuf::reference(DieId(40 + i as u64), 1);
            let (device, provisioned) =
                Device::provision(puf, vec![seed; 512], format!("prov-{seed}-{i}").as_bytes())
                    .expect("provisions");
            let verifier = Verifier::new(provisioned, format!("verif-{seed}-{i}").as_bytes());
            (device, verifier)
        })
        .collect();
    let attest = (0..n)
        .map(|i| {
            let memory: Vec<u8> = (0..1024).map(|j| (j * 13 + i * 7) as u8).collect();
            let timing = TimingModel::photonic();
            let device = AttestingDevice::new(
                PhotonicPuf::reference(DieId(60 + i as u64), 1),
                memory.clone(),
                timing,
            );
            let verifier = AttestationVerifier::new(
                PhotonicPuf::reference(DieId(60 + i as u64), 2),
                memory,
                timing,
            );
            (device, verifier)
        })
        .collect();
    let eke = (0..n)
        .map(|i| {
            let crp = Response::from_u64(0x1234_5678 ^ (i as u64), 63);
            let initiator = EkeParty::new(&crp, format!("eke-i-{seed}-{i}").as_bytes());
            let responder = EkeParty::new(&crp, format!("eke-r-{seed}-{i}").as_bytes());
            (initiator, responder)
        })
        .collect();
    let nn = (0..n)
        .map(|i| {
            let key = [seed ^ i as u8; 32];
            let mut owner = NetworkOwner::new(key, format!("own-{seed}-{i}").as_bytes());
            let accel = SecureAccelerator::new(PhotonicEngine::reference(1), key);
            let config = NetworkConfig::mlp(&[4, 4], |_, o, j| if o == j { 1.0 } else { 0.0 });
            let network = owner.cipher_network(&config);
            let input = owner.cipher_input(&[1.0, 0.5, -0.25, 0.0]);
            (accel, network, input)
        })
        .collect();
    Endpoints {
        auth,
        attest,
        eke,
        nn,
    }
}

/// Builds one SessionPair per endpoint, all four protocols, with
/// distinct session ids.
fn pairs<'x>(ep: &'x mut Endpoints, cfg: SessionConfig) -> Vec<SessionPair<'x>> {
    let mut out: Vec<SessionPair<'x>> = Vec::new();
    let mut sid = 1u64;
    for (device, verifier) in &mut ep.auth {
        out.push(SessionPair::new(
            ProtocolId::MutualAuth,
            sid,
            Box::new(WireVerifier::new(verifier, sid, cfg)),
            Box::new(WireDevice::new(device, cfg)),
        ));
        sid += 1;
    }
    for (device, verifier) in &mut ep.attest {
        out.push(SessionPair::new(
            ProtocolId::Attestation,
            sid,
            Box::new(WireAttestationVerifier::new(verifier, sid, cfg)),
            Box::new(WireAttestingDevice::new(device, cfg)),
        ));
        sid += 1;
    }
    for (initiator, responder) in &mut ep.eke {
        out.push(SessionPair::new(
            ProtocolId::Eke,
            sid,
            Box::new(WireEkeInitiator::new(initiator, sid, cfg)),
            Box::new(WireEkeResponder::new(responder, cfg)),
        ));
        sid += 1;
    }
    for (accel, network, input) in &mut ep.nn {
        out.push(SessionPair::new(
            ProtocolId::SecureNn,
            sid,
            Box::new(WireNnClient::new(sid, network.clone(), input.clone(), cfg)),
            Box::new(WireNnServer::new(accel, cfg)),
        ));
        sid += 1;
    }
    out
}

/// A mutual-auth [`KeepAlive`] controller for persistent-driver
/// tests: owned endpoints move into each epoch's wire sessions and
/// come back at close, with consecutive-failure eviction and a
/// per-device epoch quota after which the slot leaves voluntarily.
struct AuthFleet {
    endpoints: Vec<Option<(Device<PhotonicPuf>, Verifier)>>,
    period: u64,
    epochs_per_device: u32,
    max_fails: u32,
    cfg: SessionConfig,
    last_fire: Vec<u64>,
    fails: Vec<u32>,
    /// Per-slot epoch log: (succeeded, active ticks, retransmits).
    records: Vec<Vec<(bool, u32, u32)>>,
}

impl AuthFleet {
    fn new(
        auth: Vec<(Device<PhotonicPuf>, Verifier)>,
        period: u64,
        epochs_per_device: u32,
        max_fails: u32,
    ) -> Self {
        let n = auth.len();
        Self {
            endpoints: auth.into_iter().map(Some).collect(),
            period,
            epochs_per_device,
            max_fails,
            cfg: SessionConfig::default(),
            last_fire: vec![0; n],
            fails: vec![0; n],
            records: vec![Vec::new(); n],
        }
    }
}

impl KeepAlive for AuthFleet {
    type Initiator = WireVerifier<Verifier>;
    type Responder = WireDevice<Device<PhotonicPuf>, PhotonicPuf>;

    fn on_fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Self::Initiator, Self::Responder>> {
        if epoch >= self.epochs_per_device {
            return None;
        }
        let (device, verifier) = self.endpoints[slot].take()?;
        self.last_fire[slot] = now;
        let sid = u64::from(epoch) * self.endpoints.len() as u64 + slot as u64 + 1;
        Some(EpochSession {
            protocol: ProtocolId::MutualAuth,
            id: sid,
            initiator: WireVerifier::new(verifier, sid, self.cfg),
            responder: WireDevice::new(device, self.cfg),
        })
    }

    fn on_close(
        &mut self,
        slot: usize,
        _epoch: u32,
        _now: u64,
        outcome: &EpochOutcome,
        initiator: Self::Initiator,
        responder: Self::Responder,
    ) -> SlotVerdict {
        let verifier = initiator.into_inner();
        let device = responder.into_inner();
        self.endpoints[slot] = Some((device, verifier));
        let ticks = match &outcome.result {
            Ok(t) => *t,
            Err(_) => 0,
        };
        self.records[slot].push((outcome.succeeded(), ticks, outcome.retransmits));
        if outcome.succeeded() {
            self.fails[slot] = 0;
        } else {
            self.fails[slot] += 1;
            if self.fails[slot] >= self.max_fails {
                return SlotVerdict::Evict;
            }
        }
        SlotVerdict::Rearm {
            at: self.last_fire[slot] + self.period,
        }
    }
}

/// Three resident devices re-attest over three widely spaced
/// epochs; the loop fast-forwards the idle gaps, so the real step
/// count stays far below the resident-polling counterfactual.
#[test]
fn persistent_slots_reattest_and_fast_forward_idle_gaps() {
    let ep = endpoints(3, 0x21);
    let mut ctl = AuthFleet::new(ep.auth, 200, 3, 3);
    let mut channel = Channel::new();
    let registry = Registry::new();
    let report = run_persistent_gateway(
        &mut channel,
        &[0, 0, 0],
        &mut ctl,
        PersistentConfig {
            horizon: 2000,
            epoch_budget: 64,
            ..PersistentConfig::default()
        },
        &mut Tracer::disabled(),
        &registry,
    );
    assert_eq!(report.joined, 3);
    assert_eq!(report.epochs_fired, 9);
    assert_eq!(report.epochs_completed, 9, "{report:?}");
    assert_eq!(report.epochs_failed, 0);
    assert_eq!(report.epochs_missed, 0);
    assert_eq!(report.left, 3);
    assert_eq!(report.evicted, 0);
    for rec in &ctl.records {
        assert_eq!(rec.len(), 3);
        assert!(rec.iter().all(|&(ok, _, _)| ok), "{rec:?}");
    }
    assert!(
        report.step_saving() > 5.0,
        "idle fast-forward should dominate: {report:?}"
    );
    assert_eq!(registry.counter_value("keepalive.epochs_completed"), 9);
    assert_eq!(
        registry.counter_value("keepalive.session_steps"),
        report.session_steps
    );
}

/// A device with tampered memory fails every re-attestation; after
/// `max_fails` consecutive failures the controller's verdict evicts
/// it while healthy slots ride out their full epoch quota.
#[test]
fn corrupted_device_is_evicted_after_consecutive_failures() {
    let mut ep = endpoints(3, 0x22);
    ep.auth[1].0.corrupt_memory(100, 0xFF);
    let mut ctl = AuthFleet::new(ep.auth, 100, 4, 2);
    let mut channel = Channel::new();
    let report = run_persistent_gateway(
        &mut channel,
        &[0, 0, 0],
        &mut ctl,
        PersistentConfig {
            horizon: 4000,
            epoch_budget: 64,
            ..PersistentConfig::default()
        },
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.evicted, 1, "{report:?}");
    assert_eq!(report.left, 2);
    assert_eq!(ctl.records[1].len(), 2, "evicted after two failures");
    assert!(ctl.records[1].iter().all(|&(ok, _, _)| !ok));
    assert_eq!(report.epochs_failed, 2);
    assert_eq!(report.epochs_completed, 8);
    // The endpoints always come back to the controller, eviction
    // included.
    assert!(ctl.endpoints.iter().all(Option::is_some));
}

/// An epoch budget of one tick can never fit a full handshake: the
/// deadline timer force-closes every epoch as missed and the
/// controller still gets its endpoints back.
#[test]
fn epoch_budget_expiry_closes_epochs_as_missed() {
    let ep = endpoints(2, 0x23);
    let mut ctl = AuthFleet::new(ep.auth, 50, 2, 10);
    let mut channel = Channel::new();
    let report = run_persistent_gateway(
        &mut channel,
        &[0, 0],
        &mut ctl,
        PersistentConfig {
            horizon: 300,
            epoch_budget: 1,
            ..PersistentConfig::default()
        },
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.epochs_fired, 4);
    assert_eq!(report.epochs_completed, 0);
    assert_eq!(report.epochs_missed, 4, "{report:?}");
    assert_eq!(report.left, 2);
    assert!(ctl.endpoints.iter().all(Option::is_some));
    assert!(ctl.records.iter().flatten().all(|&(ok, _, _)| !ok));
}

/// A horizon that cuts off a live epoch whose controller then evicts
/// the slot ends the residency through the same close path as any other
/// eviction: the slot's resident ticks count toward the dense
/// counterfactual and a `keepalive.evict` instant is traced.
#[test]
fn horizon_cutoff_eviction_is_accounted_like_any_eviction() {
    let ep = endpoints(2, 0x25);
    // One failure evicts, and a handshake needs two ticks: the horizon
    // at tick 1 cuts both first epochs off as missed.
    let mut ctl = AuthFleet::new(ep.auth, 100, 4, 1);
    let mut channel = Channel::new();
    let mut tracer = Tracer::new();
    let report = run_persistent_gateway(
        &mut channel,
        &[0, 0],
        &mut ctl,
        PersistentConfig {
            horizon: 1,
            epoch_budget: 0,
            ..PersistentConfig::default()
        },
        &mut tracer,
        &Registry::new(),
    );
    assert_eq!(report.epochs_missed, 2, "{report:?}");
    assert_eq!(report.evicted, 2, "{report:?}");
    // Both slots were resident for tick 1 alone: two polls each.
    assert_eq!(report.dense_equiv_steps, 4, "{report:?}");
    let evicts = tracer
        .to_jsonl()
        .lines()
        .filter(|line| line.contains("\"keepalive.evict\""))
        .count();
    assert_eq!(evicts, 2);
    assert!(ctl.endpoints.iter().all(Option::is_some));
}

/// Batched secure-NN sessions multiplexed by the gateway against
/// ONE shared engine: a single owner loads the network out of
/// band, every session streams its own chunked batch, and the
/// per-session inference accounting folds into the registry.
#[test]
fn batched_nn_sessions_share_one_engine_through_the_gateway() {
    use crate::secure_nn::{share_accelerator, WireNnBatchClient, WireNnBatchServer};
    let key = [0x4E; 32];
    let mut owner = NetworkOwner::new(key, b"gw-batch-owner");
    let mut accel = SecureAccelerator::new(PhotonicEngine::reference(1), key);
    let config = NetworkConfig::mlp(&[4, 4], |_, o, j| if o == j { 1.0 } else { 0.0 });
    accel.load_network(&owner.cipher_network(&config)).unwrap();
    let shared = share_accelerator(accel);
    let registry = Registry::new();
    let cfg = SessionConfig::default();
    let k = 4usize;
    let per_session = 150usize; // ~64 B sealed each: > one chunk budget
    let blobs: Vec<Vec<Vec<u8>>> = (1..=k as u64)
        .map(|sid| {
            let inputs: Vec<Vec<f64>> = (0..per_session)
                .map(|i| vec![(i as f64 + sid as f64) * 0.01; 4])
                .collect();
            owner.cipher_inputs(&inputs)
        })
        .collect();
    let mut sessions: Vec<SessionPair<'_>> = Vec::new();
    for (i, input_blobs) in blobs.iter().enumerate() {
        let sid = i as u64 + 1;
        sessions.push(SessionPair::new(
            ProtocolId::SecureNn,
            sid,
            Box::new(WireNnBatchClient::execute_only(sid, input_blobs, cfg)),
            Box::new(WireNnBatchServer::new(shared.clone(), cfg).with_metrics(&registry)),
        ));
    }
    let mut channel = FaultyChannel::new(FaultRates::loss(0.05), 0xBA7C_6A7E);
    let mut tracer = Tracer::disabled();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig::default(),
        &mut tracer,
        &registry,
    );
    assert!(report.all_completed(), "{report:?}");
    assert_eq!(registry.counter_value("secure_nn.batch.executes"), k as u64);
    assert_eq!(
        registry.counter_value("secure_nn.batch.items"),
        (k * per_session) as u64
    );
    // All batches ran on the one engine.
    assert_eq!(shared.borrow().stats().inferences, (k * per_session) as u64);
}

#[test]
fn mixed_protocols_share_one_lossless_transport() {
    let mut ep = endpoints(3, 0x11);
    let sessions = pairs(&mut ep, SessionConfig::default());
    let n = sessions.len();
    let mut channel = Channel::new();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig::default(),
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.sessions, n);
    assert!(report.all_completed(), "{report:?}");
    assert_eq!(report.retransmits, 0);
    assert_eq!(report.late_frames, 0);
    assert_eq!(report.unroutable_frames, 0);
    assert_eq!(report.undecodable_frames, 0);
    assert_eq!(report.peak_active, n);
    // Every EKE pair agreed on a key through the shared wire.
    for (initiator, responder) in &ep.eke {
        assert_eq!(initiator.session(), responder.session());
    }
}

#[test]
fn mixed_protocols_survive_a_shared_lossy_transport() {
    let mut ep = endpoints(4, 0x22);
    let sessions = pairs(&mut ep, SessionConfig::default());
    let n = sessions.len();
    let mut channel = FaultyChannel::new(FaultRates::loss(0.1), 0x6A7E_1055);
    let registry = Registry::new();
    let mut tracer = Tracer::disabled();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig::default(),
        &mut tracer,
        &registry,
    );
    assert_eq!(report.sessions, n);
    assert!(report.all_completed(), "{report:?}");
    assert!(report.retransmits > 0, "10% loss must force retransmits");
    assert_eq!(registry.counter_value("gateway.completed"), n as u64);
    assert_eq!(
        registry.counter_value("gateway.retransmits"),
        report.retransmits
    );
    // The event-driven scheduler never steps more than the dense
    // loop would, and idle ARQ waits mean it steps strictly less.
    assert!(report.session_steps > 0);
    assert!(
        report.session_steps < report.dense_equiv_steps,
        "wake scheduling saved nothing: {} vs {}",
        report.session_steps,
        report.dense_equiv_steps
    );
    // Whatever the fault pattern left in flight after close is
    // accounted as late, never lost.
    let drained = channel.drain_late();
    assert_eq!(channel.stats().late_drained, drained);
}

#[test]
fn bounded_admission_queues_sessions_without_timing_them_out() {
    let mut ep = endpoints(6, 0x33);
    let sessions = pairs(&mut ep, SessionConfig::default());
    let n = sessions.len();
    let mut channel = Channel::new();
    let config = GatewayConfig {
        max_active: 2,
        accept_queue: 3,
        max_ticks: 4096,
        ..GatewayConfig::default()
    };
    let report = run_gateway(
        &mut channel,
        sessions,
        config,
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert!(report.all_completed(), "{report:?}");
    assert!(report.peak_active <= 2);
    assert!(report.peak_staged <= 3);
    assert_eq!(report.retransmits, 0, "queued sessions must not tick ARQ");
    // Admission is staggered: not everyone got in on tick 0.
    let first = report
        .outcomes
        .iter()
        .filter(|o| o.admitted_at == Some(0))
        .count();
    assert_eq!(first, 2);
    assert!(report.outcomes.iter().all(|o| o.admitted_at.is_some()));
    assert_eq!(report.sessions, n);
}

/// The multiplexing property the whole module rests on: over a
/// lossless shared transport, a gateway run with K interleaved
/// sessions produces — per session — *byte-identical* wire
/// transcripts to K independent `drive`-based runs. The gateway
/// reproduces the single-session tick cadence exactly; only the
/// interleaving on the shared wire differs.
#[test]
fn interleaved_sessions_match_independent_transcripts() {
    let cfg = SessionConfig::default();

    // Gateway run: 12 sessions (3 of each protocol) on one wire.
    let mut ep = endpoints(3, 0x77);
    let sessions = pairs(&mut ep, cfg);
    let keys: Vec<(ProtocolId, u64)> = sessions.iter().map(|p| (p.protocol, p.id)).collect();
    let mut shared = Channel::new();
    let report = run_gateway(
        &mut shared,
        sessions,
        GatewayConfig::default(),
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert!(report.all_completed(), "{report:?}");

    // Split the shared transcript by envelope key, preserving order.
    type SessionTranscript = Vec<(Side, Vec<u8>)>;
    let mut per_session: BTreeMap<(ProtocolId, u64), SessionTranscript> = BTreeMap::new();
    for (side, frame) in shared.transcript() {
        let env = Envelope::from_bytes(frame).expect("lossless frames decode");
        per_session
            .entry((env.protocol, env.session))
            .or_default()
            .push((*side, frame.clone()));
    }

    // Independent runs: identical endpoint states (same seeds) and
    // identical session ids, one dedicated channel each.
    let mut ep2 = endpoints(3, 0x77);
    let singles = pairs(&mut ep2, cfg);
    for (pair, key) in singles.into_iter().zip(keys) {
        let mut solo = Channel::new();
        let mut a = pair.initiator;
        let mut b = pair.responder;
        crate::wire::drive(
            &mut solo,
            a.as_mut(),
            b.as_mut(),
            crate::wire::DEFAULT_MAX_TICKS,
            &mut Tracer::disabled(),
        )
        .expect("independent session completes");
        let expected = solo.transcript();
        let actual = per_session.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        assert_eq!(
            actual,
            expected,
            "session {}/{} transcript diverged between gateway and solo run",
            protocol_label(key.0),
            key.1
        );
    }
}

#[test]
fn duplicate_session_keys_fail_fast_without_corrupting_routing() {
    let mut ep = endpoints(2, 0x44);
    let cfg = SessionConfig::default();
    let mut sessions = Vec::new();
    for (device, verifier) in &mut ep.auth {
        sessions.push(SessionPair::new(
            ProtocolId::MutualAuth,
            7, // same key on purpose
            Box::new(WireVerifier::new(verifier, 7, cfg)),
            Box::new(WireDevice::new(device, cfg)),
        ));
    }
    let mut channel = Channel::new();
    let report = run_gateway(
        &mut channel,
        sessions,
        GatewayConfig::default(),
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1);
    assert!(report
        .outcomes
        .iter()
        .any(|o| matches!(o.result, Err(ProtocolError::OutOfOrder(_)))));
}

#[test]
fn tick_budget_reports_unfinished_sessions() {
    let mut ep = endpoints(2, 0x55);
    let sessions = pairs(&mut ep, SessionConfig::default());
    let mut channel = Channel::new();
    let config = GatewayConfig {
        max_active: 1,
        accept_queue: 1,
        max_ticks: 3, // far too few for eight sessions
        ..GatewayConfig::default()
    };
    let report = run_gateway(
        &mut channel,
        sessions,
        config,
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.ticks, 3);
    assert!(report.unfinished > 0);
    assert_eq!(
        report.completed + report.failed + report.unfinished,
        report.sessions
    );
}

/// A zero tick budget admits nothing: every session is unfinished,
/// except a duplicate key, which fails at submission as always.
#[test]
fn zero_tick_budget_still_fails_duplicate_keys() {
    let mut ep = endpoints(2, 0x56);
    let cfg = SessionConfig::default();
    let mut sessions = Vec::new();
    for (device, verifier) in &mut ep.auth {
        sessions.push(SessionPair::new(
            ProtocolId::MutualAuth,
            9, // same key on purpose
            Box::new(WireVerifier::new(verifier, 9, cfg)),
            Box::new(WireDevice::new(device, cfg)),
        ));
    }
    let report = run_gateway(
        &mut Channel::new(),
        sessions,
        GatewayConfig {
            max_ticks: 0,
            ..GatewayConfig::default()
        },
        &mut Tracer::disabled(),
        &Registry::new(),
    );
    assert_eq!(report.ticks, 0);
    assert_eq!(report.unfinished, 1, "{report:?}");
    assert_eq!(report.failed, 1, "{report:?}");
    assert!(matches!(
        report.outcomes[1].result,
        Err(ProtocolError::OutOfOrder(_))
    ));
    assert!(report.outcomes.iter().all(|o| o.admitted_at.is_none()));
}
