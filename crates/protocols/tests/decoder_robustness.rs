//! Decoder-robustness sweep: every byte string an adversary can put on
//! the wire must decode to `Ok` or a typed [`CodecError`] — never a
//! panic, however it was built. The sweep harvests the real frames of
//! one lossless session per §III protocol and then attacks the
//! decoders three ways:
//!
//! * **truncation** — every prefix of every real frame;
//! * **mutation** — every byte of every real frame flipped (including
//!   the envelope protocol tag and each message enum's leading tag,
//!   driven through all 256 values);
//! * **random bytes** — seeded arbitrary buffers fed to every
//!   [`FromBytes`] impl in the wire vocabulary.
//!
//! A session-level sweep then replays the secure-NN client frames,
//! each single-byte mutation in turn, into a fresh accelerator-side
//! session: a frame that still decodes must never make it panic or
//! allocate from a size read off the wire.
//!
//! Panic-freedom is the test: any `unwrap`/slice-index escape in a
//! decoder aborts the suite (`scripts/check_no_panics.sh` bounds the
//! panic sites that exist; this sweep demonstrates the decoding paths
//! reach none of them).

use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::PhotonicEngine;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{
    run_wire_attestation, AttestationReport, AttestationRequest, AttestationVerifier,
    AttestingDevice, TimingModel,
};
use neuropuls_protocols::eke::{run_wire_exchange, EkeConfirm, EkeHello, EkeParty, EkeReply};
use neuropuls_protocols::mutual_auth::{
    run_wire_session, AuthRequest, Device, DeviceAuth, Verifier, VerifierConfirm,
};
use neuropuls_protocols::secure_nn::{
    run_wire_batch_inference, share_accelerator, NetworkOwner, SecureAccelerator,
    SharedAccelerator, WireNnBatchServer,
};
use neuropuls_protocols::transport::{Channel, Side};
use neuropuls_protocols::wire::{
    decode_payload, AttestationMsg, EkeMsg, Envelope, MutualAuthMsg, NnChunk, ProtocolId,
    SecureNnMsg, Session, SessionConfig,
};
use neuropuls_puf::bits::Response;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::codec::FromBytes;
use neuropuls_rt::rng::{Rng, RngCore, SeedableRng};
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::trace::Tracer;

/// Runs one lossless session of every §III protocol and returns every
/// frame that crossed the wire, in admission order.
fn harvest_frames() -> Vec<Vec<u8>> {
    let cfg = SessionConfig::default();
    let mut frames: Vec<Vec<u8>> = Vec::new();

    let mut channel = Channel::new();
    let (mut device, provisioned) = Device::provision(
        PhotonicPuf::reference(DieId(0xDEC0), 1),
        vec![0x5A; 1024],
        b"robustness-provision",
    )
    .expect("provisions");
    let mut verifier = Verifier::new(provisioned, b"robustness-verifier");
    let report = run_wire_session(
        &mut channel,
        &mut device,
        &mut verifier,
        1,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "{:?}", report.result);
    frames.extend(channel.transcript().iter().map(|(_, f)| f.clone()));

    let mut channel = Channel::new();
    let memory: Vec<u8> = (0..1024).map(|i| (i * 41 % 251) as u8).collect();
    let timing = TimingModel::photonic();
    let mut att_device = AttestingDevice::new(
        PhotonicPuf::reference(DieId(0xDEC1), 1),
        memory.clone(),
        timing,
    );
    let mut att_verifier =
        AttestationVerifier::new(PhotonicPuf::reference(DieId(0xDEC1), 2), memory, timing);
    let report = run_wire_attestation(
        &mut channel,
        &mut att_device,
        &mut att_verifier,
        2,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "{:?}", report.result);
    frames.extend(channel.transcript().iter().map(|(_, f)| f.clone()));

    let mut channel = Channel::new();
    let crp = Response::from_u64(0xDEC0DE, 63);
    let mut initiator = EkeParty::new(&crp, b"robustness-eke-init");
    let mut responder = EkeParty::new(&crp, b"robustness-eke-resp");
    let report = run_wire_exchange(
        &mut channel,
        &mut initiator,
        &mut responder,
        3,
        cfg,
        &mut Tracer::disabled(),
    );
    assert!(report.succeeded(), "{:?}", report.result);
    frames.extend(channel.transcript().iter().map(|(_, f)| f.clone()));

    frames.extend(secure_nn_transcript().into_iter().map(|(_, f)| f));

    assert!(
        frames.len() >= 12,
        "harvest must cover all four protocol scripts, got {} frames",
        frames.len()
    );
    // The mutation and tag sweeps reach the chunk decoder only through
    // harvested chunk frames.
    let nn_msgs: Vec<SecureNnMsg> = frames
        .iter()
        .filter_map(|f| Envelope::from_bytes(f).ok())
        .filter(|e| e.protocol == ProtocolId::SecureNn)
        .filter_map(|e| e.open().ok())
        .collect();
    assert!(nn_msgs
        .iter()
        .any(|m| matches!(m, SecureNnMsg::ExecuteChunk(_))));
    assert!(nn_msgs
        .iter()
        .any(|m| matches!(m, SecureNnMsg::OutputChunk(_))));
    frames
}

const NN_KEY: [u8; 32] = [0xD3; 32];

fn nn_accelerator() -> SharedAccelerator {
    share_accelerator(SecureAccelerator::new(PhotonicEngine::reference(1), NN_KEY))
}

/// One lossless secure-NN session — a load and a batch of one — as the
/// channel saw it, each frame tagged with its sender.
fn secure_nn_transcript() -> Vec<(Side, Vec<u8>)> {
    let mut channel = Channel::new();
    let mut owner = NetworkOwner::new(NN_KEY, b"robustness-owner");
    let net = NetworkConfig::mlp(&[4, 4], |_, o, i| if o == i { 1.0 } else { 0.0 });
    let network_blob = owner.cipher_network(&net);
    let input_blob = owner.cipher_input(&[1.0, -0.5, 0.25, 0.0]);
    let (report, output) = run_wire_batch_inference(
        &mut channel,
        &nn_accelerator(),
        Some(network_blob),
        &[input_blob],
        4,
        SessionConfig::default(),
        &mut Tracer::disabled(),
        None,
    );
    assert!(report.succeeded(), "{:?}", report.result);
    assert_eq!(output.map(|blobs| blobs.len()), Some(1));
    channel.transcript().to_vec()
}

/// Feeds `bytes` to every `FromBytes` impl in the wire vocabulary and
/// returns how many decoders accepted it. Each call must return — a
/// panic anywhere aborts the test.
fn poke_every_decoder(bytes: &[u8]) -> usize {
    let mut accepted = 0;
    macro_rules! poke {
        ($ty:ty) => {
            if decode_payload::<$ty>(bytes).is_ok() {
                accepted += 1;
            }
        };
    }
    if Envelope::from_bytes(bytes).is_ok() {
        accepted += 1;
    }
    poke!(AuthRequest);
    poke!(DeviceAuth);
    poke!(VerifierConfirm);
    poke!(AttestationRequest);
    poke!(AttestationReport);
    poke!(EkeHello);
    poke!(EkeReply);
    poke!(EkeConfirm);
    poke!(NnChunk);
    poke!(MutualAuthMsg);
    poke!(AttestationMsg);
    poke!(EkeMsg);
    poke!(SecureNnMsg);
    accepted
}

/// Opens a decoded envelope's payload with its protocol's message-enum
/// decoder; the result (either way) must be typed, not a panic.
fn open_by_protocol(envelope: &Envelope) -> bool {
    use neuropuls_protocols::wire::ProtocolId;
    match envelope.protocol {
        ProtocolId::MutualAuth => envelope.open::<MutualAuthMsg>().is_ok(),
        ProtocolId::Attestation => envelope.open::<AttestationMsg>().is_ok(),
        ProtocolId::Eke => envelope.open::<EkeMsg>().is_ok(),
        ProtocolId::SecureNn => envelope.open::<SecureNnMsg>().is_ok(),
    }
}

#[test]
fn every_valid_frame_decodes_and_reopens() {
    for frame in harvest_frames() {
        let envelope = Envelope::from_bytes(&frame).expect("harvested frame decodes");
        assert!(
            open_by_protocol(&envelope),
            "harvested payload must open as its protocol's message"
        );
    }
}

#[test]
fn truncated_frames_decode_to_typed_errors() {
    for frame in harvest_frames() {
        for len in 0..frame.len() {
            let prefix = &frame[..len];
            // A strict prefix of a frame can never satisfy the
            // exact-consumption rule, so the envelope decoder must
            // reject every one — with an error, not a panic.
            assert!(
                Envelope::from_bytes(prefix).is_err(),
                "strict prefix of length {len} decoded as a whole envelope"
            );
            poke_every_decoder(prefix);
        }
        // Truncating inside the payload while keeping the envelope
        // framing intact must surface when the message is opened.
        if let Ok(mut envelope) = Envelope::from_bytes(&frame) {
            while envelope.payload.pop().is_some() {
                open_by_protocol(&envelope);
            }
        }
    }
}

#[test]
fn single_byte_mutations_decode_to_typed_errors() {
    for frame in harvest_frames() {
        for pos in 0..frame.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = frame.clone();
                mutated[pos] ^= mask;
                if let Ok(envelope) = Envelope::from_bytes(&mutated) {
                    // Routing metadata may survive mutation; the
                    // payload decoder must still stay typed.
                    open_by_protocol(&envelope);
                }
                poke_every_decoder(&mutated);
            }
        }
    }
}

#[test]
fn message_tag_sweep_never_panics() {
    for frame in harvest_frames() {
        let Ok(envelope) = Envelope::from_bytes(&frame) else {
            continue;
        };
        // Drive the message enums' leading tag byte through all 256
        // values; unknown tags must be rejected as typed errors.
        for tag in 0u8..=255 {
            let mut payload = envelope.payload.clone();
            if payload.is_empty() {
                break;
            }
            payload[0] = tag;
            poke_every_decoder(&payload);
        }
        // The envelope's own protocol-id byte (offset 6, after the
        // 4-byte magic and u16 version), likewise: at most four of the
        // 256 values may decode, and reopening stays typed.
        let mut tag_accepts = 0;
        for tag in 0u8..=255 {
            let mut mutated = frame.clone();
            mutated[6] = tag;
            if let Ok(envelope) = Envelope::from_bytes(&mutated) {
                tag_accepts += 1;
                open_by_protocol(&envelope);
            }
        }
        assert_eq!(tag_accepts, 4, "exactly the four known protocol ids");
    }
}

#[test]
fn cross_spliced_frames_decode_to_typed_errors() {
    // Corpus splicing: cut two *different* harvested frames at seeded
    // random points and join the head of one to the tail of the other.
    // Splices keep long runs of valid structure — plausible magic,
    // version and length prefixes followed by another message's body —
    // which is exactly the shape that slips past prefix checks and
    // into a decoder's field-by-field path. Every splice must come
    // back from every decoder as Ok or a typed error, never a panic.
    let frames = harvest_frames();
    let mut rng = StdRng::seed_from_u64(0x000D_EC0D_E517);
    let mut accepted_total = 0usize;
    for _ in 0..2048 {
        let a = &frames[rng.gen_range(0..frames.len())];
        let b = &frames[rng.gen_range(0..frames.len())];
        let cut_a = rng.gen_range(0..=a.len());
        let cut_b = rng.gen_range(0..=b.len());
        let mut spliced = Vec::with_capacity(cut_a + b.len() - cut_b);
        spliced.extend_from_slice(&a[..cut_a]);
        spliced.extend_from_slice(&b[cut_b..]);
        accepted_total += poke_every_decoder(&spliced);
        if let Ok(envelope) = Envelope::from_bytes(&spliced) {
            // A splice that survives the framing layer (e.g. head and
            // tail cut at the same offset of same-length frames) must
            // still reopen as a typed result.
            open_by_protocol(&envelope);
        }
    }
    // Some splices reassemble into whole valid frames (both cuts at a
    // frame boundary, or same-shape frames); a flood of accepts would
    // mean the decoders are not length-checking the joined halves.
    assert!(
        accepted_total < 2048,
        "{accepted_total} spliced buffers decoded as valid messages"
    );
}

#[test]
fn seeded_random_bytes_never_panic_any_decoder() {
    let mut rng = StdRng::seed_from_u64(0x000D_EC0D_EB07);
    let mut accepted_total = 0usize;
    for _ in 0..2048 {
        let len = rng.gen_range(0..512);
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        accepted_total += poke_every_decoder(&bytes);
        if let Ok(envelope) = Envelope::from_bytes(&bytes) {
            open_by_protocol(&envelope);
        }
    }
    // Random buffers essentially never satisfy a structured decoder's
    // exact-consumption rule; if many did, the decoders aren't
    // validating.
    assert!(
        accepted_total < 64,
        "{accepted_total} random buffers decoded as valid messages"
    );
}

#[test]
fn mutated_client_frames_never_abort_the_accelerator_session() {
    // Replay the client's frames into a fresh accelerator-side session,
    // one frame replaced by each single-byte mutation. Mutations that
    // survive decoding reach the server's chunk bookkeeping with a
    // corrupted index or total; every step must return.
    let client: Vec<Vec<u8>> = secure_nn_transcript()
        .into_iter()
        .filter(|(side, _)| *side == Side::A)
        .map(|(_, f)| f)
        .collect();
    let accel = nn_accelerator();
    for (victim, frame) in client.iter().enumerate() {
        for pos in 0..frame.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutated = frame.clone();
                mutated[pos] ^= mask;
                let mut server = WireNnBatchServer::new(accel.clone(), SessionConfig::default());
                for (i, original) in client.iter().enumerate() {
                    let incoming = if i == victim { &mutated } else { original };
                    let _ = server.step(Some(incoming));
                }
            }
        }
    }
}
