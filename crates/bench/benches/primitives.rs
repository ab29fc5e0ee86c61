//! Criterion benchmarks for the cryptographic and photonic primitives.

use neuropuls_crypto::chacha20::ChaCha20;
use neuropuls_crypto::hmac::HmacSha256;
use neuropuls_crypto::sha256::Sha256;
use neuropuls_crypto::x25519;
use neuropuls_photonic::laser::Laser;
use neuropuls_photonic::modulator::MachZehnderModulator;
use neuropuls_photonic::process::{DieId, DieSampler, ProcessVariation};
use neuropuls_photonic::{Environment, MeshSpec, ScramblerMesh};
use neuropuls_puf::bits::Challenge;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_puf::traits::Puf;
use neuropuls_rt::criterion::{BatchSize, Criterion, Throughput};
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::SeedableRng;
use neuropuls_rt::{criterion_group, criterion_main};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data = vec![0xA5u8; 4096];

    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("sha256_4k", |b| {
        b.iter(|| Sha256::digest(std::hint::black_box(&data)))
    });
    group.bench_function("hmac_sha256_4k", |b| {
        b.iter(|| HmacSha256::mac(b"key", std::hint::black_box(&data)))
    });
    group.bench_function("chacha20_4k", |b| {
        let key = [7u8; 32];
        let nonce = [1u8; 12];
        b.iter_batched(
            || data.clone(),
            |mut buf| ChaCha20::new(&key, &nonce).apply(&mut buf),
            BatchSize::SmallInput,
        )
    });
    group.finish();

    c.bench_function("x25519_scalar_mult", |b| {
        let scalar = [0x42u8; 32];
        b.iter(|| x25519::public_key(std::hint::black_box(&scalar)))
    });
}

fn bench_puf(c: &mut Criterion) {
    let mut group = c.benchmark_group("puf");
    let mut puf = PhotonicPuf::reference(DieId(1), 1);
    let mut rng = StdRng::seed_from_u64(1);
    let challenge = Challenge::random(64, &mut rng);

    group.bench_function("photonic_fabricate", |b| {
        let mut die = 0u64;
        b.iter(|| {
            die += 1;
            PhotonicPuf::reference(DieId(die), 1)
        })
    });
    // Response bits per evaluation: `throughput_elements / mean_ns` in
    // the report is simulated response bits per host-nanosecond.
    group.throughput(Throughput::Elements(puf.response_bits() as u64));
    group.bench_function("photonic_eval_noisy", |b| {
        b.iter(|| puf.respond(std::hint::black_box(&challenge)).unwrap())
    });
    group.bench_function("photonic_eval_deterministic", |b| {
        b.iter(|| {
            puf.respond_deterministic(std::hint::black_box(&challenge))
                .unwrap()
        })
    });
    group.finish();
}

/// One reference-mesh propagation of a modulated 64-bit challenge plus
/// its 32-sample flush, as inside every PUF evaluation.
fn bench_mesh(c: &mut Criterion) {
    let env = Environment::nominal();
    let mut die = DieSampler::new(DieId(1), ProcessVariation::typical_soi());
    let modulator = MachZehnderModulator::sampled(&mut die);
    let mesh = ScramblerMesh::build(MeshSpec::reference(), &mut die);
    let challenge = Challenge::random(64, &mut StdRng::seed_from_u64(2));
    let waveform = modulator.modulate(Laser::new().carrier(&env), challenge.bits(), &env);
    c.bench_function("photonic_mesh_propagate", |b| {
        b.iter(|| mesh.propagate(std::hint::black_box(&waveform), 32, &env))
    });
}

criterion_group!(benches, bench_crypto, bench_puf, bench_mesh);
criterion_main!(benches);
