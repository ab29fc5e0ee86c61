//! Criterion benchmarks for the security services (§III) and the
//! system-level simulator (§V) — the per-operation costs behind the
//! experiment tables.

use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{compute_attestation, AttestationRequest};
use neuropuls_protocols::eke::{run_exchange, EkeParty};
use neuropuls_protocols::mutual_auth::{run_session, Device, Verifier};
use neuropuls_protocols::secure_nn::{NetworkOwner, SecureAccelerator};
use neuropuls_puf::bits::{Challenge, Response};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::criterion::Criterion;
use neuropuls_rt::{criterion_group, criterion_main};
use neuropuls_system::soc::{firmware, Soc};

fn bench_mutual_auth(c: &mut Criterion) {
    c.bench_function("mutual_auth_session", |b| {
        let puf = PhotonicPuf::reference(DieId(1), 1);
        let (mut device, provisioned) = Device::provision(puf, vec![0xAB; 1024], b"bench").unwrap();
        let mut verifier = Verifier::new(provisioned, b"bench-verifier");
        b.iter(|| {
            if run_session(&mut device, &mut verifier).is_err() {
                device.abort_session();
            }
        })
    });
}

fn bench_attestation(c: &mut Criterion) {
    c.bench_function("attestation_walk_16k", |b| {
        let puf = PhotonicPuf::reference(DieId(2), 1);
        let memory = vec![0x5Au8; 16 * 1024];
        let request = AttestationRequest {
            timestamp_ns: 1,
            challenge: Challenge::from_u64(0xBEEF, 64),
        };
        b.iter(|| compute_attestation(&puf, &memory, &request).unwrap())
    });
}

fn bench_eke(c: &mut Criterion) {
    c.bench_function("eke_exchange", |b| {
        let crp = Response::from_u64(0xCAFE, 63);
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            let mut a = EkeParty::new(&crp, &counter.to_le_bytes());
            let mut b2 = EkeParty::new(&crp, &counter.wrapping_add(1).to_le_bytes());
            run_exchange(&mut a, &mut b2).unwrap()
        })
    });
}

fn bench_secure_nn(c: &mut Criterion) {
    let key = [0x7E; 32];
    let network = NetworkConfig::mlp(&[16, 8, 4], |l, o, i| ((l + o + i) % 5) as f32 * 0.1);

    c.bench_function("secure_nn_load", |b| {
        let mut owner = NetworkOwner::new(key, b"bench-owner");
        let blob = owner.cipher_network(&network);
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(1), key);
        b.iter(|| accel.load_network(&blob).unwrap())
    });

    c.bench_function("secure_nn_execute", |b| {
        let mut owner = NetworkOwner::new(key, b"bench-owner-2");
        let mut accel = SecureAccelerator::new(PhotonicEngine::reference(2), key);
        accel.load_network(&owner.cipher_network(&network)).unwrap();
        let input = owner.cipher_input(&[0.25; 16]);
        b.iter(|| accel.execute_network(&input).unwrap())
    });
}

fn bench_soc(c: &mut Criterion) {
    c.bench_function("soc_puf_firmware", |b| {
        b.iter(|| {
            let mut soc = Soc::new(PhotonicPuf::reference(DieId(3), 1), None);
            soc.load_firmware(firmware::PUF_READ).unwrap();
            soc.run(1_000_000)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mutual_auth, bench_attestation, bench_eke, bench_secure_nn, bench_soc
}
criterion_main!(benches);
