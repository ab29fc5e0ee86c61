//! Property-based tests over the core data structures and physical
//! invariants, using proptest.

use neuropuls::crypto::chacha20::ChaCha20;
use neuropuls::crypto::ecc::{BlockCode, ConcatenatedCode, Hamming74, RepetitionCode};
use neuropuls::crypto::hmac::HmacSha256;
use neuropuls::crypto::sha256::Sha256;
use neuropuls::metrics::bitstats::{pack_bits, unpack_bits};
use neuropuls::photonic::circuit::{MeshSpec, ScramblerMesh};
use neuropuls::photonic::complex::Complex64;
use neuropuls::photonic::process::{DieId, DieSampler, ProcessVariation};
use neuropuls::photonic::Environment;
use neuropuls::puf::bits::{Challenge, Response};
use neuropuls_rt::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chacha_roundtrip(key in prop::array::uniform32(any::<u8>()),
                        nonce in prop::array::uniform12(any::<u8>()),
                        data in prop::collection::vec(any::<u8>(), 0..512)) {
        let ct = ChaCha20::encrypt(&key, &nonce, &data);
        prop_assert_eq!(ChaCha20::decrypt(&key, &nonce, &ct), data);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..600),
                                         split in 0usize..600) {
        let split = split.min(data.len());
        let mut hasher = Sha256::new();
        hasher.update(&data[..split]);
        hasher.update(&data[split..]);
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_verifies_own_tags(key in prop::collection::vec(any::<u8>(), 0..100),
                              data in prop::collection::vec(any::<u8>(), 0..300)) {
        let tag = HmacSha256::mac(&key, &data);
        prop_assert!(HmacSha256::verify(&key, &data, &tag).is_ok());
    }

    #[test]
    fn hmac_rejects_flipped_bits(key in prop::collection::vec(any::<u8>(), 1..64),
                                 data in prop::collection::vec(any::<u8>(), 1..200),
                                 byte in 0usize..200, bit in 0u8..8) {
        let tag = HmacSha256::mac(&key, &data);
        let mut tampered = data.clone();
        let idx = byte % tampered.len();
        tampered[idx] ^= 1 << bit;
        if tampered != data {
            prop_assert!(HmacSha256::verify(&key, &tampered, &tag).is_err());
        }
    }

    #[test]
    fn repetition_corrects_within_capacity(data in prop::collection::vec(0u8..2, 1..40),
                                           flip_positions in prop::collection::vec(any::<usize>(), 0..10)) {
        let code = RepetitionCode::new(5);
        let mut coded = code.encode(&data).unwrap();
        // At most 2 flips per 5-bit block, never exceeding capacity.
        let mut flips_per_block = vec![0usize; data.len()];
        for &p in &flip_positions {
            let pos = p % coded.len();
            let block = pos / 5;
            if flips_per_block[block] < 2 {
                coded[pos] ^= 1;
                flips_per_block[block] += 1;
            }
        }
        prop_assert_eq!(code.decode(&coded).unwrap(), data);
    }

    #[test]
    fn hamming_corrects_one_flip_anywhere(nibbles in prop::collection::vec(0u8..16, 1..20),
                                          flip in any::<usize>()) {
        let data: Vec<u8> = nibbles.iter().flat_map(|n| (0..4).map(move |i| (n >> i) & 1)).collect();
        let code = Hamming74::new();
        let mut coded = code.encode(&data).unwrap();
        let pos = flip % coded.len();
        coded[pos] ^= 1;
        prop_assert_eq!(code.decode(&coded).unwrap(), data);
    }

    #[test]
    fn concatenated_roundtrip_clean(data in prop::collection::vec(0u8..2, 1..10)) {
        // Pad to a nibble multiple.
        let mut data = data;
        while data.len() % 4 != 0 { data.push(0); }
        let code = ConcatenatedCode::new(3);
        let coded = code.encode(&data).unwrap();
        prop_assert_eq!(code.decode(&coded).unwrap(), data);
    }

    #[test]
    fn bit_packing_roundtrip(bits in prop::collection::vec(0u8..2, 0..200)) {
        let packed = pack_bits(&bits);
        prop_assert_eq!(unpack_bits(&packed, bits.len()), bits);
    }

    #[test]
    fn challenge_xor_involution(a_bits in prop::collection::vec(0u8..2, 1..128)) {
        let len = a_bits.len();
        let a = Response::from_bits(a_bits);
        let b = Response::from_bits(vec![1u8; len]);
        prop_assert_eq!(a.xor(&b).xor(&b), a);
    }

    #[test]
    fn challenge_packing_roundtrip(bits in prop::collection::vec(0u8..2, 1..100)) {
        let c = Challenge::from_bits(bits.clone());
        prop_assert_eq!(Challenge::from_packed(&c.to_packed(), bits.len()), c);
    }

    #[test]
    fn mesh_is_always_passive(die in any::<u64>(),
                              channels in 2usize..10,
                              depth in 1usize..10,
                              ring_density in 0.0f64..1.0) {
        let spec = MeshSpec {
            channels,
            depth,
            ring_density,
            ..MeshSpec::reference()
        };
        let mut sampler = DieSampler::new(DieId(die), ProcessVariation::typical_soi());
        let mesh = ScramblerMesh::build(spec, &mut sampler);
        let mut waveform = vec![Complex64::ZERO; 8];
        waveform[0] = Complex64::ONE;
        let energies = mesh.port_energies(&waveform, 48, &Environment::nominal());
        let total: f64 = energies.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9, "passivity violated: {}", total);
        prop_assert!(energies.iter().all(|e| *e >= 0.0));
    }

    #[test]
    fn mesh_reproducibility(die in any::<u64>()) {
        let mut s1 = DieSampler::new(DieId(die), ProcessVariation::typical_soi());
        let mut s2 = DieSampler::new(DieId(die), ProcessVariation::typical_soi());
        let m1 = ScramblerMesh::build(MeshSpec::reference(), &mut s1);
        let m2 = ScramblerMesh::build(MeshSpec::reference(), &mut s2);
        let waveform = vec![Complex64::ONE; 4];
        let e1 = m1.port_energies(&waveform, 16, &Environment::nominal());
        let e2 = m2.port_energies(&waveform, 16, &Environment::nominal());
        prop_assert_eq!(e1, e2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn x25519_diffie_hellman_agrees(a in prop::array::uniform32(any::<u8>()),
                                    b in prop::array::uniform32(any::<u8>())) {
        use neuropuls::crypto::x25519;
        let pub_a = x25519::public_key(&a);
        let pub_b = x25519::public_key(&b);
        let s1 = x25519::shared_secret(&a, &pub_b);
        let s2 = x25519::shared_secret(&b, &pub_a);
        match (s1, s2) {
            (Ok(k1), Ok(k2)) => prop_assert_eq!(k1, k2),
            // Low-order rejection must be symmetric.
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "asymmetric outcome: {:?} vs {:?}", x.is_ok(), y.is_ok()),
        }
    }

    #[test]
    fn secure_sketch_recovers_within_capacity(bits in prop::collection::vec(0u8..2, 1..6),
                                              flips in prop::collection::vec(any::<usize>(), 0..4)) {
        use neuropuls::crypto::ecc::ConcatenatedCode;
        use neuropuls::crypto::fuzzy::SecureSketch;
        use neuropuls::crypto::prng::CsPrng;
        // Build a 63-bit string (three 21-bit blocks).
        let mut data: Vec<u8> = bits.iter().cycle().take(63).cloned().collect();
        let sketch = SecureSketch::new(ConcatenatedCode::new(3));
        let mut rng = CsPrng::from_seed_bytes(b"prop-sketch");
        let helper = sketch.sketch(&data, &mut rng).unwrap();
        let original = data.clone();
        // One flip per distinct repetition group stays within capacity.
        let mut touched_groups = std::collections::HashSet::new();
        for f in flips {
            let group = f % 21;
            if touched_groups.insert(group) {
                data[group * 3 % 63] ^= 1;
            }
        }
        let _ = touched_groups;
        prop_assert_eq!(sketch.recover(&data, &helper).unwrap(), original);
    }

    #[test]
    fn network_config_codec_roundtrip(widths in prop::collection::vec(1usize..6, 2..5),
                                      seed in any::<u64>()) {
        use neuropuls::accel::config::NetworkConfig;
        let config = NetworkConfig::mlp(&widths, |l, o, i| {
            ((l.wrapping_add(o).wrapping_add(i) as u64 ^ seed) % 97) as f32 * 0.01
        });
        let bytes = config.to_bytes();
        prop_assert_eq!(NetworkConfig::from_bytes(&bytes).unwrap(), config);
    }

    #[test]
    fn assembler_rejects_or_encodes_whole_words(imm in -2048i64..2048) {
        use neuropuls::system::asm::assemble;
        let src = format!("addi x5, x6, {imm}");
        let code = assemble(&src, 0).unwrap();
        prop_assert_eq!(code.len(), 4);
    }

    #[test]
    fn batched_inference_matches_sequential_at_any_thread_count(
        seed in any::<u64>(),
        batch in 0usize..12,
        noisy in any::<bool>(),
    ) {
        use neuropuls::accel::config::NetworkConfig;
        use neuropuls::accel::engine::{AnalogModel, PhotonicEngine};
        let model = if noisy { AnalogModel::reference() } else { AnalogModel::ideal() };
        let network = NetworkConfig::mlp(&[6, 9, 6], |l, o, i| {
            ((l * 31 + o * 7 + i * 3) % 19) as f32 / 9.0 - 1.0
        });
        let inputs: Vec<Vec<f64>> = (0..batch)
            .map(|n| {
                (0..6)
                    .map(|i| ((seed >> (i * 8)) & 0xFF) as f64 / 127.5 - 1.0 + n as f64 * 0.01)
                    .collect()
            })
            .collect();

        let mut per_thread_count: Vec<Vec<Vec<f64>>> = Vec::new();
        for threads in [1usize, 8] {
            let (batched, expected) = neuropuls_rt::pool::with_threads(threads, || {
                let mut engine = PhotonicEngine::new(model, seed);
                engine.load(network.clone()).unwrap();
                // The seeds the batch is about to consume, captured
                // before the epoch advances.
                let item_seeds: Vec<u64> =
                    (0..batch).map(|i| engine.batch_item_seed(i)).collect();
                let batched = engine.infer_batch(&inputs).unwrap();
                let mut twin = PhotonicEngine::new(model, seed);
                twin.load(network.clone()).unwrap();
                let expected: Vec<Vec<f64>> = inputs
                    .iter()
                    .zip(&item_seeds)
                    .map(|(input, &s)| twin.infer_seeded(input, s).unwrap())
                    .collect();
                (batched, expected)
            });
            prop_assert_eq!(&batched, &expected);
            per_thread_count.push(batched);
        }
        prop_assert_eq!(&per_thread_count[0], &per_thread_count[1]);
    }
}
