//! `attest_walk`: sequential §III-B walks, `AttestingDevice::attest`
//! then `AttestationVerifier::verify`, over 4 KiB memories. The same PUF
//! layer as `fleet_keepalive`, used differently: the deterministic read
//! path (no receiver chain) chained with SHA-256, and no gateway,
//! transport or codec at all.

use super::{bytes, dies, mix, Info, RoundOutcome, Workload};
use crate::ladder::LadderInputs;
use crate::timed::{Instrument, Layer};
use neuropuls_protocols::attestation::{
    AttestationVerifier, AttestingDevice, TimingModel, CHUNK_BYTES,
};
use neuropuls_protocols::error::ProtocolError;
use neuropuls_puf::photonic::PhotonicPuf;
use std::time::Instant;

pub const INFO: Info = Info {
    name: "attest_walk",
    why: "sequential 4 KiB attestation walks on 8 dies; the deterministic PUF path chained with SHA-256, with no gateway, transport or codec",
    op: "walk",
    rate_name: "attested_bytes_per_s",
    rate_unit: "bytes/s",
    items_per_op: MEMORY as f64,
    tail: 950,
    self_check,
    ladder_inputs,
};

const PAIRS: usize = 8;
const MEMORY: usize = 4096;

/// One device and its verifier, both modelling the same die.
fn pair(seed: u64, k: usize) -> (AttestingDevice, AttestationVerifier) {
    let die = dies(seed, 50, PAIRS)[k];
    let memory = bytes(seed, 51 + k as u64 * 0x100, MEMORY);
    let device = AttestingDevice::new(
        PhotonicPuf::reference(die, mix(seed, 52)),
        memory.clone(),
        TimingModel::photonic(),
    );
    let verifier = AttestationVerifier::new(
        PhotonicPuf::reference(die, mix(seed, 53)),
        memory,
        TimingModel::photonic(),
    );
    (device, verifier)
}

pub struct Walk<I: Instrument> {
    inst: I,
    pairs: Vec<(AttestingDevice, AttestationVerifier)>,
}

impl<I: Instrument> Workload<I> for Walk<I> {
    fn setup(seed: u64, inst: I) -> Self {
        Walk {
            inst,
            pairs: (0..PAIRS).map(|k| pair(seed, k)).collect(),
        }
    }

    /// One walk per die, round-robin.
    fn round(&mut self, _round: u64) -> RoundOutcome {
        let mut out = RoundOutcome::default();
        let inst = &self.inst;
        for (k, (device, verifier)) in self.pairs.iter_mut().enumerate() {
            let start = Instant::now();
            let request = verifier.begin();
            let verdict = inst
                .span(Layer::AttestationWalk, Some(k as u64), || {
                    device.attest(&request)
                })
                .and_then(|report| {
                    inst.span(Layer::AttestationWalk, Some(k as u64), || {
                        verifier.verify(&request, &report)
                    })
                    .map(|()| report)
                });
            out.attempted += 1;
            match verdict {
                Ok(report) => {
                    out.latencies_ns.push(start.elapsed().as_nanos() as u64);
                    out.record.extend_from_slice(&report.final_hash);
                    out.note(format!("{}", report.elapsed_ns));
                }
                Err(e) => {
                    out.failed += 1;
                    out.latencies_ns.push(u64::MAX);
                    out.note(format!("{e:?}"));
                }
            }
        }
        // Per side and walk: one deterministic read per chunk, and one
        // SHA-256 per chunk plus one per chained challenge.
        let chunks = MEMORY.div_ceil(CHUNK_BYTES) as u64;
        let walks = out.attempted;
        out.count("puf.respond_deterministic.calls", 2 * chunks * walks);
        out.count("crypto.sha256.calls", 2 * (2 * chunks - 1) * walks);
        out
    }

    fn verify(&mut self, out: &mut RoundOutcome) {
        out.correct = out.failed == 0;
        out.seal();
    }
}

/// A tampered memory byte and a tampered report byte must both be
/// rejected, and the untampered walk accepted.
pub fn self_check(seed: u64) -> Result<(), String> {
    let (mut device, mut verifier) = pair(seed, 0);
    let request = verifier.begin();
    let mut report = device.attest(&request).map_err(|e| format!("{e:?}"))?;
    verifier
        .verify(&request, &report)
        .map_err(|e| format!("honest walk rejected: {e:?}"))?;
    report.final_hash[7] ^= 0x01;
    if !matches!(
        verifier.verify(&request, &report),
        Err(ProtocolError::AttestationDigestMismatch)
    ) {
        return Err("a tampered report byte was accepted".into());
    }

    let offset = MEMORY / 2;
    let original = bytes(seed, 51, MEMORY)[offset];
    device.corrupt_memory(offset, original ^ 0xFF);
    let request = verifier.begin();
    let report = device.attest(&request).map_err(|e| format!("{e:?}"))?;
    match verifier.verify(&request, &report) {
        Err(ProtocolError::AttestationDigestMismatch) => Ok(()),
        other => Err(format!(
            "a tampered memory byte was not rejected: {other:?}"
        )),
    }
}

fn ladder_inputs(seed: u64) -> LadderInputs {
    LadderInputs {
        dies: dies(seed, 50, PAIRS),
        noise_seed: mix(seed, 52),
        memory_len: MEMORY,
        ..LadderInputs::new(seed)
    }
}
