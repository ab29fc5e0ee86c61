//! `secure_inference`: batched Table I sessions against one shared
//! accelerator. It never touches the PUF or the mesh, so a PUF gain
//! must leave it unchanged.

use super::{bytes, clocked_pair, mix, Info, RoundOutcome, Workload, SESSION_RETRIES};
use crate::ladder::LadderInputs;
use crate::timed::{ByRef, Instrument, Layer};
use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_protocols::gateway::{run_gateway, Fifo, GatewayConfig};
use neuropuls_protocols::secure_nn::{
    share_accelerator, NetworkOwner, SecureAccelerator, SharedAccelerator, WireNnBatchClient,
    WireNnBatchServer,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_rt::{Rng, SeedableRng};

pub const INFO: Info = Info {
    name: "secure_inference",
    why: "16 batched sessions of 256 sealed inputs per round on one shared accelerator over a 5%-loss link; no PUF, so ChaCha20/HMAC, codec, gateway and accel do the work",
    op: "session",
    rate_name: "inferences_per_s",
    rate_unit: "1/s",
    items_per_op: BATCH as f64,
    tail: 950,
    self_check: |_| Ok(()),
    ladder_inputs,
};

/// Input width of the 16-32-32-32-16 reference MLP.
pub const NN_INPUTS: usize = 16;
const SESSIONS: usize = 16;
const BATCH: usize = 256;
/// Distinct input vectors per seed; rounds draw from this pool.
const POOL: usize = 1024;
const LOSS: f64 = 0.05;

/// The 16-32-32-32-16 MLP with seeded weights on a grid well inside the
/// quantizer's range.
pub fn network(seed: u64) -> NetworkConfig {
    let base = mix(seed, 40);
    NetworkConfig::mlp(&[NN_INPUTS, 32, 32, 32, 16], |l, o, i| {
        let w = mix(base, ((l as u64) << 32) | ((o as u64) << 16) | i as u64);
        (w % 41) as f32 / 20.0 - 1.0
    })
}

pub struct Inference<I: Instrument> {
    inst: I,
    seed: u64,
    accel: SharedAccelerator,
    owner: NetworkOwner,
    pool: Vec<Vec<f64>>,
    pending: Vec<WireNnBatchClient>,
}

impl<I: Instrument> Workload<I> for Inference<I> {
    fn setup(seed: u64, inst: I) -> Self {
        let key: [u8; 32] = bytes(seed, 41, 32).try_into().expect("32 bytes");
        let mut owner = NetworkOwner::new(key, &mix(seed, 42).to_le_bytes());
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(mix(seed, 43)), key);
        accel
            .load_network(&owner.cipher_network(&network(seed)))
            .expect("reference network loads");
        let mut rng = StdRng::seed_from_u64(mix(seed, 44));
        let pool = (0..POOL)
            .map(|_| (0..NN_INPUTS).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        Inference {
            inst,
            seed,
            accel: share_accelerator(accel),
            owner,
            pool,
            pending: Vec::new(),
        }
    }

    fn round(&mut self, round: u64) -> RoundOutcome {
        let inst = self.inst.clone();
        let cfg = SessionConfig {
            max_retries: SESSION_RETRIES,
            ..SessionConfig::default()
        };
        let offset = (mix(self.seed, 45) ^ round) as usize % POOL;
        let (owner, pool) = (&mut self.owner, &self.pool);
        let mut clients: Vec<WireNnBatchClient> = (0..SESSIONS)
            .map(|k| {
                let blobs: Vec<Vec<u8>> = inst.span(Layer::NnSeal, Some(0), || {
                    (0..BATCH)
                        .map(|j| owner.cipher_input(&pool[(offset + k * BATCH + j) % POOL]))
                        .collect()
                });
                WireNnBatchClient::execute_only(k as u64 + 1, &blobs, cfg)
            })
            .collect();
        let (sessions, clocks): (Vec<_>, Vec<_>) = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let server = WireNnBatchServer::new(self.accel.clone(), cfg);
                let sid = k as u64 + 1;
                clocked_pair(&inst, ProtocolId::SecureNn, sid, ByRef(client), server)
            })
            .unzip();
        let link_seed = mix(mix(self.seed, 46), round);
        let mut link = inst.link(FaultyChannel::new(FaultRates::loss(LOSS), link_seed));
        let config = GatewayConfig {
            max_active: 8,
            accept_queue: 8,
            max_ticks: 1 << 20,
            policy: inst.policy(Box::new(Fifo::new())),
        };
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
        for clock in &clocks {
            out.clocked(clock);
        }
        let stats = I::link_ref(&link).stats();
        let items = (SESSIONS * BATCH) as u64;
        out.count("gateway.session_steps", report.session_steps);
        out.count("gateway.dense_equiv_steps", report.dense_equiv_steps);
        out.count("transport.retransmits", report.retransmits);
        out.count("transport.sent", stats.sent as u64);
        out.count("accel.infer.calls", items);
        out.count("crypto.seal.calls", 3 * items);
        let wait_p99 = report.per_class.iter().map(|c| c.wait_p99).max();
        out.peak("admission.wait_p99_ticks", wait_p99.unwrap_or(0));
        out.note(format!(
            "ticks {} completed {} retransmits {} late {} steps {} dense {} {:?}",
            report.ticks,
            report.completed,
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
        self.pending = clients;
        out
    }

    fn verify(&mut self, out: &mut RoundOutcome) {
        let mut ok = out.failed == 0;
        for client in std::mem::take(&mut self.pending) {
            ok &= record_outputs(&self.owner, &client, BATCH, out);
        }
        out.correct = ok;
        out.seal();
    }
}

/// Deciphers a finished batch session's outputs into the round record.
/// False unless every output deciphers and there is one per input.
pub fn record_outputs(
    owner: &NetworkOwner,
    client: &WireNnBatchClient,
    inputs: usize,
    out: &mut RoundOutcome,
) -> bool {
    match client.output_blobs().map(|b| owner.decipher_outputs(b)) {
        Some(Ok(outputs)) if outputs.len() == inputs => {
            for v in outputs.iter().flatten() {
                out.record.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            true
        }
        _ => false,
    }
}

fn ladder_inputs(seed: u64) -> LadderInputs {
    LadderInputs {
        nn_batch: BATCH,
        ..LadderInputs::new(seed)
    }
}
