//! The layer ladder: isolated nanoseconds per operation for every layer
//! of the north-star list, measured on the workload's own inputs (its
//! dies, CRP-store geometry, memory size and batch size). Multiplied by
//! the traced pass's call counts, the ladder should rebuild the
//! untraced wall clock ([`reconstruct`]).

use crate::stats::median;
use crate::workloads::secure_inference::{network, NN_INPUTS};
use crate::workloads::{bytes, dies, mix};
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_crypto::chacha20::ChaCha20;
use neuropuls_crypto::ecc::ConcatenatedCode;
use neuropuls_crypto::fuzzy::SecureSketch;
use neuropuls_crypto::hmac::HmacSha256;
use neuropuls_crypto::prng::CsPrng;
use neuropuls_crypto::sha256::Sha256;
use neuropuls_crypto::x25519;
use neuropuls_photonic::detector::ReceiveChain;
use neuropuls_photonic::laser::Laser;
use neuropuls_photonic::modulator::MachZehnderModulator;
use neuropuls_photonic::process::{DieId, DieSampler, ProcessVariation};
use neuropuls_photonic::{Environment, MeshSpec, ScramblerMesh};
use neuropuls_protocols::attestation::CHUNK_BYTES;
use neuropuls_protocols::mutual_auth::DeviceAuth;
use neuropuls_protocols::wire::{chunk_nn_items, Envelope, MutualAuthMsg, ProtocolId, SecureNnMsg};
use neuropuls_puf::photonic::{PhotonicPuf, PhotonicPufConfig};
use neuropuls_puf::{Challenge, Puf};
use neuropuls_rt::codec::{FromBytes, ToBytes};
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::sched::TimerWheel;
use neuropuls_rt::{Rng, SeedableRng};
use neuropuls_system::crp_store::{CrpStore, CrpStoreConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Inputs the ladder measures on; workloads override what they own.
pub struct LadderInputs {
    pub seed: u64,
    pub dies: Vec<DieId>,
    pub noise_seed: u64,
    pub crp: CrpStoreConfig,
    pub memory_len: usize,
    pub nn_batch: usize,
}

impl LadderInputs {
    pub fn new(seed: u64) -> Self {
        LadderInputs {
            seed,
            dies: dies(seed, 60, 8),
            noise_seed: mix(seed, 61),
            crp: CrpStoreConfig::default(),
            memory_len: 4096,
            nn_batch: 256,
        }
    }
}

/// Ladder entries, in report order.
pub const ENTRIES: [&str; 18] = [
    "photonic.mesh",
    "photonic.modulator",
    "photonic.receiver",
    "puf.respond",
    "puf.respond_deterministic",
    "crypto.fuzzy",
    "crypto.sha256_64",
    "crypto.sha256_4k",
    "crypto.hmac",
    "crypto.chacha20",
    "crypto.x25519",
    "codec.encode_auth",
    "codec.decode_auth",
    "codec.encode_chunk",
    "codec.decode_chunk",
    "sched.timer",
    "crp_store",
    "accel.infer",
];

/// Dies the PUF and mesh entries cycle through.
const MAX_DIES: usize = 64;
/// Timed batches per entry at least.
pub const MIN_SWEEPS: usize = 8;

/// One ladder entry: an operation, called with a running index so it
/// can rotate through its inputs, the operations one call performs, the
/// calls per batch and the ns per operation of every batch so far.
struct Entry {
    name: &'static str,
    op: Box<dyn FnMut(usize)>,
    ops_per_call: f64,
    next: usize,
    calls: usize,
    samples: Vec<f64>,
}

/// The ladder: every entry calibrated to batches of a fixed length,
/// measured in sweeps (one batch of every entry) that the caller spreads
/// over a run, so host noise hits every entry alike and many moments of
/// the run are sampled.
pub struct Ladder {
    entries: Vec<Entry>,
}

impl Ladder {
    /// Builds every entry on `inputs` and calibrates it to batches of
    /// `batch` host time.
    pub fn new(inputs: &LadderInputs, batch: Duration) -> Self {
        let mut entries = entries(inputs);
        for e in &mut entries {
            let start = Instant::now();
            while e.next < 2 || start.elapsed() < batch / 2 {
                (e.op)(e.next);
                e.next += 1;
            }
            let per_call = start.elapsed().as_nanos() as f64 / e.next as f64;
            e.calls = ((batch.as_nanos() as f64 / per_call) as usize).max(1);
        }
        Ladder { entries }
    }

    /// Times one batch of every entry.
    pub fn sweep(&mut self) {
        for e in &mut self.entries {
            let start = Instant::now();
            for _ in 0..e.calls {
                (e.op)(e.next);
                e.next += 1;
            }
            let ns = start.elapsed().as_nanos() as f64;
            e.samples.push(ns / (e.calls as f64 * e.ops_per_call));
        }
    }

    pub fn sweeps(&self) -> usize {
        self.entries.first().map_or(0, |e| e.samples.len())
    }

    /// ns per operation of every entry: the median of its fastest
    /// quarter of batches, the ones host noise did not slow.
    pub fn ns(&self) -> BTreeMap<&'static str, f64> {
        self.entries
            .iter()
            .map(|e| {
                let mut fast = e.samples.clone();
                fast.sort_by(f64::total_cmp);
                fast.truncate(fast.len().div_ceil(4));
                (e.name, median(&fast))
            })
            .collect()
    }
}

fn entry(name: &'static str, ops_per_call: f64, op: impl FnMut(usize) + 'static) -> Entry {
    Entry {
        name,
        op: Box::new(op),
        ops_per_call,
        next: 0,
        calls: 1,
        samples: Vec::new(),
    }
}

/// Every entry, each owning its inputs.
fn entries(inputs: &LadderInputs) -> Vec<Entry> {
    let env = Environment::nominal();
    let cfg = PhotonicPufConfig::reference();
    let flush = cfg.flush_samples;
    let seed = inputs.seed;
    let used: Vec<DieId> = inputs.dies.iter().copied().take(MAX_DIES).collect();
    let n = used.len();
    let mut rng = StdRng::seed_from_u64(mix(seed, 62));
    let challenges: Vec<Challenge> = (0..64)
        .map(|_| Challenge::random(cfg.challenge_bits, &mut rng))
        .collect();

    // The PUF's own fabrication order: modulator, then mesh.
    let mut meshes = Vec::with_capacity(n);
    let mut modulators = Vec::with_capacity(n);
    for &die in &used {
        let mut sampler = DieSampler::new(die, ProcessVariation::typical_soi());
        modulators.push(MachZehnderModulator::sampled(&mut sampler));
        meshes.push(ScramblerMesh::build(MeshSpec::reference(), &mut sampler));
    }
    let carrier = Laser::new().carrier(&env);
    let waveforms: Vec<_> = challenges
        .iter()
        .map(|c| modulators[0].modulate(carrier, c.bits(), &env))
        .collect();
    let fields = meshes[0].propagate(&waveforms[0], flush, &env);
    let mut chains = vec![ReceiveChain::new(); fields.len()];
    let mut receiver_rng = StdRng::seed_from_u64(mix(seed, 72));
    let mut noisy: Vec<PhotonicPuf> = used
        .iter()
        .map(|&die| PhotonicPuf::reference(die, inputs.noise_seed))
        .collect();
    let mut ideal = noisy.clone();
    // Reads come in runs on one die, as in the workloads: a
    // mutual-authentication response is ten noisy reads, an attestation
    // walk one deterministic read per memory chunk.
    let walk_reads = inputs.memory_len.div_ceil(CHUNK_BYTES).max(1);

    let sketch = SecureSketch::new(ConcatenatedCode::new(3));
    let usable = sketch.usable_bits(cfg.response_bits);
    let enrolled: Vec<u8> = (0..usable).map(|_| rng.gen_range(0..2u8)).collect();
    let mut sketch_rng = CsPrng::from_seed_bytes(&mix(seed, 63).to_le_bytes());

    let small = bytes(seed, 64, 64);
    let memory = bytes(seed, 65, inputs.memory_len);
    let key: [u8; 32] = bytes(seed, 66, 32).try_into().expect("32 bytes");
    // One sealed secure-NN input: a u32 count and 16 f32 values.
    let mut sealed = bytes(seed, 67, 4 + 4 * NN_INPUTS);
    let peer = x25519::public_key(&key);

    let auth = MutualAuthMsg::Auth(DeviceAuth {
        masked_response: bytes(seed, 68, 8),
        memory_hash: Sha256::digest(&memory),
        clock_count: 1016,
        device_nonce: bytes(seed, 69, 16).try_into().expect("16 bytes"),
        mac: HmacSha256::mac(&key, &small),
    });
    let auth_frame = Envelope::pack(ProtocolId::MutualAuth, 7, 1, &auth).to_bytes();
    // A full chunk of sealed inputs: nonce, sealed tensor, tag.
    let items: Vec<Vec<u8>> = (0..128)
        .map(|k| bytes(seed, 70 + k, 12 + 4 + 4 * NN_INPUTS + 32))
        .collect();
    let chunk = SecureNnMsg::ExecuteChunk(chunk_nn_items(&items).swap_remove(0));
    let chunk_frame = Envelope::pack(ProtocolId::SecureNn, 7, 0, &chunk).to_bytes();

    // Timers armed a few to a few hundred ticks out, the gateway's ARQ
    // and re-attestation range, fired in sweeps of 256.
    let mut wheel = TimerWheel::new();
    let mut fired = Vec::new();
    let delays: Vec<u64> = (0..256).map(|_| rng.gen_range(1..600)).collect();

    let mut store: CrpStore<[u64; 32]> = CrpStore::new(inputs.crp);
    let records = inputs.dies.len().max(16) as u64;
    for id in 0..records {
        let _ = store.enroll(id, [id; 32]);
    }

    let mut engine = PhotonicEngine::reference(mix(seed, 71));
    let loaded = engine.load(network(seed)).is_ok();
    let batch: Vec<Vec<f64>> = (0..inputs.nn_batch.max(1))
        .map(|_| (0..NN_INPUTS).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let batch_len = batch.len() as f64;

    let (c1, c2, c3) = (challenges.clone(), challenges.clone(), challenges);
    let (small1, small2) = (small.clone(), small);
    vec![
        entry("photonic.mesh", 1.0, move |i| {
            black_box(meshes[i % n].propagate(&waveforms[i % 64], flush, &env));
        }),
        entry("photonic.modulator", 1.0, move |i| {
            black_box(modulators[i % n].modulate(carrier, c1[i % 64].bits(), &env));
        }),
        entry("photonic.receiver", 1.0, move |_| {
            for (chain, port) in chains.iter_mut().zip(&fields) {
                chain.reset();
                for &field in port {
                    black_box(chain.sample(field, &env, &mut receiver_rng));
                }
            }
        }),
        entry("puf.respond", 1.0, move |i| {
            black_box(noisy[(i / 10) % n].respond(&c2[i % 64]).ok());
        }),
        entry("puf.respond_deterministic", 1.0, move |i| {
            let puf = &mut ideal[(i / walk_reads) % n];
            black_box(puf.respond_deterministic(&c3[i % 64]).ok());
        }),
        entry("crypto.fuzzy", 1.0, move |i| {
            let helper = sketch.sketch(&enrolled, &mut sketch_rng).ok();
            let mut reading = enrolled.clone();
            reading[i % usable] ^= 1;
            if let Some(helper) = helper {
                black_box(sketch.recover(&reading, &helper).ok());
            }
        }),
        entry("crypto.sha256_64", 1.0, move |_| {
            black_box(Sha256::digest(black_box(&small1)));
        }),
        entry("crypto.sha256_4k", 1.0, move |_| {
            black_box(Sha256::digest(black_box(&memory)));
        }),
        entry("crypto.hmac", 1.0, move |_| {
            black_box(HmacSha256::mac(&key, black_box(&small2)));
        }),
        entry("crypto.chacha20", 1.0, move |i| {
            let mut nonce = [0u8; 12];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            ChaCha20::new(&key, &nonce).apply(&mut sealed);
            black_box(&sealed);
        }),
        entry("crypto.x25519", 1.0, move |_| {
            black_box(x25519::shared_secret(black_box(&key), &peer).ok());
        }),
        entry("codec.encode_auth", 1.0, {
            let auth = auth.clone();
            move |_| {
                let env = Envelope::pack(ProtocolId::MutualAuth, 7, 1, black_box(&auth));
                black_box(env.to_bytes());
            }
        }),
        entry("codec.decode_auth", 1.0, move |_| {
            let env = Envelope::from_bytes(black_box(&auth_frame)).ok();
            black_box(env.and_then(|e| e.open::<MutualAuthMsg>().ok()));
        }),
        entry("codec.encode_chunk", 1.0, {
            let chunk = chunk.clone();
            move |_| {
                let env = Envelope::pack(ProtocolId::SecureNn, 7, 0, black_box(&chunk));
                black_box(env.to_bytes());
            }
        }),
        entry("codec.decode_chunk", 1.0, move |_| {
            let env = Envelope::from_bytes(black_box(&chunk_frame)).ok();
            black_box(env.and_then(|e| e.open::<SecureNnMsg>().ok()));
        }),
        entry("sched.timer", 256.0, move |_| {
            let now = wheel.now();
            for (k, &d) in delays.iter().enumerate() {
                wheel.schedule_at(now + d, k as u64);
            }
            fired.clear();
            wheel.advance_to(now + 600, &mut fired);
            black_box(&fired);
        }),
        entry("crp_store", 1.0, move |i| {
            let id = i as u64 % records;
            if let Ok(record) = store.checkout(id) {
                let _ = store.commit(id, black_box(record));
            }
        }),
        entry("accel.infer", batch_len, move |_| {
            if loaded {
                black_box(engine.infer_batch(&batch).ok());
            }
        }),
    ]
}

/// Ladder cost × traced call counts, in ns. Each term pairs an entry
/// with a count the trace measured or the protocol fixes exactly:
/// a mutual-authentication response is ten noisy reads, one sketch and
/// recovery and four MACs; a sealed or opened secure-NN item is five
/// HMACs (four in the key derivation) and one ChaCha20 pass; every
/// frame sent is encoded once and decoded twice (gateway demux, then
/// the session).
pub fn reconstruct(ladder: &BTreeMap<&'static str, f64>, counts: &BTreeMap<String, u64>) -> f64 {
    let n = |key: &str| counts.get(key).copied().unwrap_or(0) as f64;
    let ns = |key: &str| ladder.get(key).copied().unwrap_or(0.0);
    let auth_responses = n("puf.respond.calls") / 10.0;
    ns("puf.respond") * n("puf.respond.calls")
        + (ns("crypto.fuzzy") + 4.0 * ns("crypto.hmac")) * auth_responses
        + ns("puf.respond_deterministic") * n("puf.respond_deterministic.calls")
        + ns("crypto.sha256_64") * n("crypto.sha256.calls")
        + ns("crypto.x25519") * n("crypto.x25519.calls")
        + ns("accel.infer") * n("accel.infer.calls")
        + (5.0 * ns("crypto.hmac") + ns("crypto.chacha20")) * n("crypto.seal.calls")
        + ns("crp_store") * n("crp_store.ops") / 2.0
        + (ns("codec.encode_auth") + 2.0 * ns("codec.decode_auth")) * n("transport.sent")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every declared entry is measured, and nothing else.
    #[test]
    fn ladder_measures_every_declared_entry() {
        let inputs = LadderInputs {
            dies: dies(3, 60, 2),
            memory_len: 256,
            nn_batch: 4,
            ..LadderInputs::new(3)
        };
        let mut ladder = Ladder::new(&inputs, Duration::from_millis(1));
        ladder.sweep();
        let ns = ladder.ns();
        let mut declared = ENTRIES.to_vec();
        declared.sort_unstable();
        assert_eq!(ns.keys().copied().collect::<Vec<_>>(), declared);
        assert!(ns.values().all(|&v| v.is_finite() && v > 0.0), "{ns:?}");
    }
}
