//! `gateway_mix`: the deployment shape. Each round multiplexes 64
//! one-shot sessions of all four §III protocols through `run_gateway`
//! over one lossy link, with DWRR admission ordering a real backlog.

use super::secure_inference::{network, record_outputs, NN_INPUTS};
use super::{bytes, clocked_pair, dies, mix, Info, RoundOutcome, Workload, SESSION_RETRIES};
use crate::ladder::LadderInputs;
use crate::timed::{ByRef, Instrument, Layer};
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_protocols::attestation::{
    AttestationVerifier, AttestingDevice, TimingModel, WireAttestationVerifier,
    WireAttestingDevice, CHUNK_BYTES,
};
use neuropuls_protocols::eke::{EkeParty, WireEkeInitiator, WireEkeResponder};
use neuropuls_protocols::gateway::{
    run_gateway, DeficitWeightedRoundRobin, GatewayConfig, SessionPair,
};
use neuropuls_protocols::mutual_auth::{
    Device as AuthDevice, Verifier as AuthVerifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::secure_nn::{
    share_accelerator, NetworkOwner, SecureAccelerator, SharedAccelerator, WireNnBatchClient,
    WireNnBatchServer,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_puf::Response;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_rt::{Rng, SeedableRng};
use neuropuls_system::crp_store::{CrpStore, CrpStoreConfig};

pub const INFO: Info = Info {
    name: "gateway_mix",
    why: "64 one-shot sessions of all four protocols per round over one 10%-loss link, DWRR admission with a backlog, X25519 and CRP checkouts",
    op: "session",
    rate_name: "sessions_per_s",
    rate_unit: "1/s",
    items_per_op: 1.0,
    tail: 990,
    self_check: |_| Ok(()),
    ladder_inputs,
};

/// Provisioned devices and attestation pairs, used a cohort per round.
const DEVICES: usize = 128;
const PAIRS: usize = 32;
const COHORTS: usize = 4;
/// One round: 64 sessions, half authentications, a quarter key
/// exchanges, an eighth attestations and an eighth NN batches.
const AUTH: usize = DEVICES / COHORTS;
const EKE: usize = 16;
const ATTEST: usize = PAIRS / COHORTS;
const NN: usize = 8;
const NN_BATCH: usize = 4;
const ATTEST_MEMORY: usize = 1024;
const LOSS: f64 = 0.10;
/// Extra gateway passes for authentications a noisy PUF read rejected.
const RETRIES: u32 = 8;
const CRP: CrpStoreConfig = CrpStoreConfig {
    shards: 8,
    hot_capacity: 16,
};

/// Protocol of submission slot `i`: every eight sessions carry four
/// authentications, two key exchanges, one attestation and one batch.
fn protocol_of(i: usize) -> ProtocolId {
    match i % 8 {
        0..=3 => ProtocolId::MutualAuth,
        4 | 5 => ProtocolId::Eke,
        6 => ProtocolId::Attestation,
        _ => ProtocolId::SecureNn,
    }
}

fn session_config() -> SessionConfig {
    SessionConfig {
        max_retries: SESSION_RETRIES,
        ..SessionConfig::default()
    }
}

/// A quarter of the round's sessions active at once, a small accept
/// queue, so DWRR orders a real backlog.
fn gateway_config<I: Instrument>(inst: &I) -> GatewayConfig {
    GatewayConfig {
        max_active: 16,
        accept_queue: 4,
        max_ticks: 1 << 16,
        policy: inst.policy(Box::new(DeficitWeightedRoundRobin::new())),
    }
}

pub struct Mix<I: Instrument> {
    inst: I,
    seed: u64,
    devices: Vec<AuthDevice<I::Puf>>,
    store: CrpStore<AuthVerifier>,
    attest: Vec<(AttestingDevice, AttestationVerifier)>,
    eke_crps: Vec<Response>,
    accel: SharedAccelerator,
    owner: NetworkOwner,
    /// Outputs held from `round` for the untimed checks in `verify`.
    pending_nn: Vec<WireNnBatchClient>,
    pending_eke: Vec<(EkeParty, EkeParty)>,
}

impl<I: Instrument> Workload<I> for Mix<I> {
    fn setup(seed: u64, inst: I) -> Self {
        let noise = mix(seed, 2);
        let memory = bytes(seed, 3, 256);
        let device_seed = mix(seed, 4).to_le_bytes();
        let verifier_seed = mix(seed, 5).to_le_bytes();
        let mut store = CrpStore::new(CRP);
        let mut devices = Vec::with_capacity(DEVICES);
        for (i, die) in dies(seed, 1, DEVICES).into_iter().enumerate() {
            let puf = inst.puf(PhotonicPuf::reference(die, noise));
            let (device, provisioned) = AuthDevice::provision(puf, memory.clone(), &device_seed)
                .expect("reference PUF provisions");
            store
                .enroll(i as u64, AuthVerifier::new(provisioned, &verifier_seed))
                .expect("fresh device ids");
            devices.push(device);
        }
        let attest = dies(seed, 11, PAIRS)
            .into_iter()
            .enumerate()
            .map(|(k, die)| {
                let memory = bytes(seed, 12 + k as u64 * 0x100, ATTEST_MEMORY);
                let device = AttestingDevice::new(
                    PhotonicPuf::reference(die, noise),
                    memory.clone(),
                    TimingModel::photonic(),
                );
                let verifier = AttestationVerifier::new(
                    PhotonicPuf::reference(die, noise ^ 1),
                    memory,
                    TimingModel::photonic(),
                );
                (device, verifier)
            })
            .collect();
        let eke_crps = (0..EKE as u64)
            .map(|k| Response::from_u64(mix(mix(seed, 13), k), 63))
            .collect();
        let key: [u8; 32] = bytes(seed, 20, 32).try_into().expect("32 bytes");
        let mut owner = NetworkOwner::new(key, &mix(seed, 22).to_le_bytes());
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(mix(seed, 21)), key);
        accel
            .load_network(&owner.cipher_network(&network(seed)))
            .expect("reference network loads");
        Mix {
            inst,
            seed,
            devices,
            store,
            attest,
            eke_crps,
            accel: share_accelerator(accel),
            owner,
            pending_nn: Vec::new(),
            pending_eke: Vec::new(),
        }
    }

    fn round(&mut self, round: u64) -> RoundOutcome {
        let inst = self.inst.clone();
        let cfg = session_config();
        let round_seed = mix(mix(self.seed, 30), round);
        let cohort = round as usize % COHORTS;
        let devices = &mut self.devices[cohort * AUTH..(cohort + 1) * AUTH];
        let pairs = &mut self.attest[cohort * ATTEST..(cohort + 1) * ATTEST];
        let ids = (cohort * AUTH) as u64..((cohort + 1) * AUTH) as u64;

        let store = &mut self.store;
        let mut verifiers: Vec<AuthVerifier> = ids
            .clone()
            .map(|i| {
                inst.span(Layer::CrpStore, Some(0), || store.checkout(i))
                    .expect("every record is committed back after each round")
            })
            .collect();
        let mut eke: Vec<(EkeParty, EkeParty)> = self
            .eke_crps
            .iter()
            .enumerate()
            .map(|(k, crp)| {
                let s = mix(round_seed, k as u64);
                (
                    EkeParty::new(crp, &s.to_le_bytes()),
                    EkeParty::new(crp, &(s ^ 1).to_le_bytes()),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(mix(round_seed, 0x4E4E));
        let owner = &mut self.owner;
        let mut clients: Vec<WireNnBatchClient> = (0..NN)
            .map(|k| {
                let inputs: Vec<Vec<f64>> = (0..NN_BATCH)
                    .map(|_| (0..NN_INPUTS).map(|_| rng.gen_range(-1.0..1.0)).collect())
                    .collect();
                let blobs = inst.span(Layer::NnSeal, Some(0), || owner.cipher_inputs(&inputs));
                WireNnBatchClient::execute_only(nn_sid(k), &blobs, cfg)
            })
            .collect();

        let mut auth_it = devices.iter_mut().zip(verifiers.iter_mut());
        let mut eke_it = eke.iter_mut();
        let mut att_it = pairs.iter_mut();
        let mut nn_it = clients.iter_mut();
        let mut clocks = Vec::with_capacity(AUTH + EKE + ATTEST + NN);
        let mut sessions: Vec<SessionPair<'_>> = Vec::with_capacity(clocks.capacity());
        for i in 0..AUTH + EKE + ATTEST + NN {
            let p = protocol_of(i);
            let sid = i as u64 + 1;
            let (pair, clock) = match p {
                ProtocolId::MutualAuth => {
                    let (device, verifier) = auth_it.next().expect("an auth slot per device");
                    let a = WireVerifier::new(verifier, sid, cfg);
                    let b: WireDevice<_, I::Puf> = WireDevice::new(device, cfg);
                    clocked_pair(&inst, p, sid, a, b)
                }
                ProtocolId::Eke => {
                    let (a, b) = eke_it.next().expect("an eke slot per pair");
                    let a = WireEkeInitiator::new(a, sid, cfg);
                    clocked_pair(&inst, p, sid, a, WireEkeResponder::new(b, cfg))
                }
                ProtocolId::Attestation => {
                    let (device, verifier) = att_it.next().expect("an attestation slot per pair");
                    let a = WireAttestationVerifier::new(verifier, sid, cfg);
                    clocked_pair(&inst, p, sid, a, WireAttestingDevice::new(device, cfg))
                }
                ProtocolId::SecureNn => {
                    let client = nn_it.next().expect("an nn slot per client");
                    let server = WireNnBatchServer::new(self.accel.clone(), cfg);
                    clocked_pair(&inst, p, sid, ByRef(client), server)
                }
            };
            sessions.push(pair);
            clocks.push(clock);
        }

        let mut link = inst.link(FaultyChannel::new(FaultRates::loss(LOSS), round_seed));
        let config = gateway_config(&inst);
        let report = inst.span(Layer::Gateway, None, || {
            run_gateway(
                &mut link,
                sessions,
                config,
                &mut Tracer::disabled(),
                &Registry::new(),
            )
        });

        let mut out = RoundOutcome::default();
        let mut auth_clocks = Vec::with_capacity(AUTH);
        for (i, clock) in clocks.into_iter().enumerate() {
            if protocol_of(i) == ProtocolId::MutualAuth {
                auth_clocks.push(clock);
            } else {
                out.clocked(&clock);
            }
        }
        // Authentications a noisy PUF read rejected are re-run at once,
        // in a gateway pass of their own; an op's latency sums its
        // attempts.
        let mut spent = vec![0u64; AUTH];
        let mut pending: Vec<usize> = (0..AUTH)
            .filter(|&k| auth_clocks[k].latency_ns().is_none())
            .collect();
        for pass in 1..=RETRIES {
            if pending.is_empty() {
                break;
            }
            out.count("gateway_mix.retried_auth", pending.len() as u64);
            let mut sessions = Vec::with_capacity(pending.len());
            let auth = devices.iter_mut().zip(verifiers.iter_mut()).enumerate();
            for (k, (device, verifier)) in auth.filter(|(k, _)| pending.contains(k)) {
                spent[k] += auth_clocks[k].elapsed_ns().unwrap_or(0);
                let sid = u64::from(pass) << 32 | k as u64;
                let a = WireVerifier::new(verifier, sid, cfg);
                let b: WireDevice<_, I::Puf> = WireDevice::new(device, cfg);
                let (pair, clock) = clocked_pair(&inst, ProtocolId::MutualAuth, sid, a, b);
                sessions.push(pair);
                auth_clocks[k] = clock;
            }
            let seed = mix(round_seed, u64::from(pass));
            let mut retry_link = inst.link(FaultyChannel::new(FaultRates::loss(LOSS), seed));
            let config = gateway_config(&inst);
            let retry = inst.span(Layer::Gateway, None, || {
                run_gateway(
                    &mut retry_link,
                    sessions,
                    config,
                    &mut Tracer::disabled(),
                    &Registry::new(),
                )
            });
            for o in &retry.outcomes {
                out.note(format!("retry {pass}: {o:?}"));
            }
            pending.retain(|&k| auth_clocks[k].latency_ns().is_none());
        }
        for (clock, spent) in auth_clocks.iter().zip(spent) {
            out.attempted += 1;
            match clock.latency_ns() {
                Some(ns) => out.latencies_ns.push(ns + spent),
                None => {
                    out.failed += 1;
                    out.latencies_ns.push(u64::MAX);
                }
            }
        }

        let store = &mut self.store;
        for (i, verifier) in ids.zip(verifiers) {
            inst.span(Layer::CrpStore, Some(0), || store.commit(i, verifier))
                .expect("each commit follows its checkout");
        }

        let stats = I::link_ref(&link).stats();
        out.count("gateway.session_steps", report.session_steps);
        out.count("gateway.dense_equiv_steps", report.dense_equiv_steps);
        out.count("transport.retransmits", report.retransmits);
        out.count("transport.sent", stats.sent as u64);
        out.count("crypto.x25519.calls", 4 * EKE as u64);
        out.count("accel.infer.calls", (NN * NN_BATCH) as u64);
        out.count("crypto.seal.calls", 3 * (NN * NN_BATCH) as u64);
        // One attest and one verify per session on a loss-only link.
        out.count(
            "puf.respond_deterministic.calls",
            (ATTEST * 2 * ATTEST_MEMORY.div_ceil(CHUNK_BYTES)) as u64,
        );
        let wait_p99 = report.per_class.iter().map(|c| c.wait_p99).max();
        out.peak("admission.wait_p99_ticks", wait_p99.unwrap_or(0));
        out.note(format!(
            "ticks {} completed {} failed {} unfinished {} retransmits {} late {} steps {} dense {} {:?}",
            report.ticks,
            report.completed,
            report.failed,
            report.unfinished,
            report.retransmits,
            report.late_frames,
            report.session_steps,
            report.dense_equiv_steps,
            report.per_class
        ));
        for o in &report.outcomes {
            out.note(format!("{o:?}"));
        }
        out.note(format!("{stats:?}"));
        self.pending_nn = clients;
        self.pending_eke = eke;
        out
    }

    fn verify(&mut self, out: &mut RoundOutcome) {
        let mut ok = out.failed == 0;
        for client in std::mem::take(&mut self.pending_nn) {
            ok &= record_outputs(&self.owner, &client, NN_BATCH, out);
        }
        for (a, b) in std::mem::take(&mut self.pending_eke) {
            match (a.session(), b.session()) {
                (Some(ka), Some(kb)) if ka == kb => out.record.extend_from_slice(&ka.mac),
                _ => ok = false,
            }
        }
        out.correct = ok;
        out.seal();
    }
}

/// Session id of the `k`-th secure-NN batch in a round: its slot in
/// the interleaved submission order, plus one (see [`protocol_of`]).
fn nn_sid(k: usize) -> u64 {
    (k * 8 + 7) as u64 + 1
}

fn ladder_inputs(seed: u64) -> LadderInputs {
    LadderInputs {
        dies: dies(seed, 1, DEVICES),
        noise_seed: mix(seed, 2),
        crp: CRP,
        nn_batch: NN_BATCH,
        ..LadderInputs::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{Plain, Recorder, Traced};
    use neuropuls_protocols::transport::Side;

    /// A small backlogged mix of authentication, key exchange and a
    /// secure-NN batch; returns the report and the wire transcript.
    fn small_run<I: Instrument>(inst: I) -> (String, Vec<(Side, Vec<u8>)>) {
        let cfg = session_config();
        let mut devices = Vec::new();
        let mut verifiers = Vec::new();
        for die in dies(9, 1, 2) {
            let puf = inst.puf(PhotonicPuf::reference(die, 3));
            let (device, provisioned) = AuthDevice::provision(puf, vec![7; 64], b"d").unwrap();
            devices.push(device);
            verifiers.push(AuthVerifier::new(provisioned, b"v"));
        }
        let crp = Response::from_u64(0x5EED, 63);
        let (mut ea, mut eb) = (EkeParty::new(&crp, b"a"), EkeParty::new(&crp, b"b"));
        let key = [9u8; 32];
        let mut owner = NetworkOwner::new(key, b"o");
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(5), key);
        accel
            .load_network(&owner.cipher_network(&network(9)))
            .unwrap();
        let accel = share_accelerator(accel);
        let blobs = owner.cipher_inputs(&[vec![0.5; NN_INPUTS], vec![-0.25; NN_INPUTS]]);
        let mut client = WireNnBatchClient::execute_only(4, &blobs, cfg);

        let mut sessions = Vec::new();
        for (sid, (device, verifier)) in (1..).zip(devices.iter_mut().zip(verifiers.iter_mut())) {
            let a = WireVerifier::new(verifier, sid, cfg);
            let b: WireDevice<_, I::Puf> = WireDevice::new(device, cfg);
            sessions.push(clocked_pair(&inst, ProtocolId::MutualAuth, sid, a, b).0);
        }
        let (a, b) = (
            WireEkeInitiator::new(&mut ea, 3, cfg),
            WireEkeResponder::new(&mut eb, cfg),
        );
        sessions.push(clocked_pair(&inst, ProtocolId::Eke, 3, a, b).0);
        let server = WireNnBatchServer::new(accel, cfg);
        sessions.push(clocked_pair(&inst, ProtocolId::SecureNn, 4, ByRef(&mut client), server).0);

        let mut link = inst.link(FaultyChannel::new(FaultRates::loss(0.2), 11));
        let config = GatewayConfig {
            max_active: 2,
            accept_queue: 1,
            max_ticks: 4096,
            policy: inst.policy(Box::new(DeficitWeightedRoundRobin::new())),
        };
        let report = run_gateway(
            &mut link,
            sessions,
            config,
            &mut Tracer::disabled(),
            &Registry::new(),
        );
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(client.output_blobs().map(<[_]>::len), Some(2));
        (
            format!("{report:?}"),
            I::link_ref(&link).transcript().to_vec(),
        )
    }

    /// `run_gateway` reports the same run, frame for frame, with every
    /// decorator wrapped around its traits and without.
    #[test]
    fn gateway_is_identical_with_and_without_wrappers() {
        let rec = Recorder::new();
        assert_eq!(small_run(Plain), small_run(Traced(rec.clone())));
        let times = rec.layer_times();
        for layer in [
            Layer::Session(ProtocolId::MutualAuth),
            Layer::Session(ProtocolId::Eke),
            Layer::Session(ProtocolId::SecureNn),
            Layer::PufRespond,
            Layer::Transport,
            Layer::Admission,
        ] {
            assert!(
                times.get(&layer).is_some_and(|t| t.calls > 0),
                "{layer:?} was never timed"
            );
        }
    }
}
