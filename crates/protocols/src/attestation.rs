//! Remote software attestation — §III-B.
//!
//! The Verifier sends a timestamp `t` and a challenge `c₁`. The Device
//! computes `r₁ = pPUF(c₁)`, seeds `RNG(r₁ + t)` to generate a random
//! walk `m₁…mₙ` over its memory, and folds chunk after chunk into a hash
//! chain `h_{i+1} = HASH(m_{i+1}, r_{i+1}, h_i)` where each `r_{i+1} =
//! pPUF(r_i)` is the next link of a PUF chain. The final `hₙ` returns to
//! the Verifier, which recomputes it from its own memory copy and pPUF
//! model and enforces a temporal constraint.
//!
//! The pPUF's ≥5 Gb/s response generation means the PUF chain never
//! stalls the hash walk, so the time bound can be set tight — tight
//! enough that an adversary who must *relocate* compromised regions
//! during the walk (the classic hide-and-seek attack) cannot finish in
//! time. Experiment E5 measures exactly that margin, including the
//! ablation with a slow PUF where the bound must be loosened and the
//! attack fits inside it.

use crate::error::ProtocolError;
use neuropuls_crypto::ct::ct_eq;
use neuropuls_crypto::prng::CsPrng;
use neuropuls_crypto::sha256::Sha256;
use neuropuls_puf::bits::{Challenge, Response};
use neuropuls_puf::photonic::PhotonicPuf;

/// Size of one memory chunk in the walk, bytes.
pub const CHUNK_BYTES: usize = 64;

/// The attestation request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationRequest {
    /// Verifier timestamp (monotonic nanoseconds).
    pub timestamp_ns: u64,
    /// Initial PUF challenge.
    pub challenge: Challenge,
}

/// The device's report.
#[derive(Debug, Clone, PartialEq)]
pub struct AttestationReport {
    /// Final hash of the chain.
    pub final_hash: [u8; 32],
    /// Device-measured walk duration in nanoseconds (simulated time).
    pub elapsed_ns: f64,
}

/// Timing model of the attesting device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Hash throughput in bytes per nanosecond (≈ GB/s).
    pub hash_bytes_per_ns: f64,
    /// PUF response latency per link, nanoseconds.
    pub puf_latency_ns: f64,
    /// Whether PUF evaluation overlaps hashing (the pipelining §III-B
    /// relies on). When false (slow-PUF ablation) the latencies add.
    pub pipelined: bool,
}

impl TimingModel {
    /// The photonic platform: ~1 GB/s hashing, ~6 ns pPUF, pipelined.
    pub fn photonic() -> Self {
        TimingModel {
            hash_bytes_per_ns: 1.0,
            puf_latency_ns: 6.0,
            pipelined: true,
        }
    }

    /// A slow electronic PUF (e.g. RO-based, one counting window per
    /// link) that cannot be pipelined away.
    pub fn slow_electronic() -> Self {
        TimingModel {
            hash_bytes_per_ns: 1.0,
            puf_latency_ns: 20_000.0,
            pipelined: false,
        }
    }

    /// Nanoseconds to process one chunk.
    pub fn chunk_ns(&self) -> f64 {
        let hash_ns = CHUNK_BYTES as f64 / self.hash_bytes_per_ns;
        if self.pipelined {
            hash_ns.max(self.puf_latency_ns)
        } else {
            hash_ns + self.puf_latency_ns
        }
    }
}

/// Computes the random walk order for a memory of `chunks` chunks.
/// Every chunk is visited exactly once (a seeded permutation), so no
/// region escapes hashing.
fn walk_order(seed_response: &Response, timestamp_ns: u64, chunks: usize) -> Vec<usize> {
    let mut seed = seed_response.to_packed();
    seed.extend_from_slice(&timestamp_ns.to_le_bytes());
    let mut prng = CsPrng::from_seed_bytes(&seed);
    let mut order: Vec<usize> = (0..chunks).collect();
    // Fisher–Yates with the shared deterministic PRNG.
    for i in (1..chunks).rev() {
        let j = prng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

fn response_to_challenge(r: &Response, width: usize) -> Challenge {
    // The paper chains r_{i+1} = pPUF(r_i): widen/narrow the response to
    // the challenge width through a hash for width safety.
    let digest = Sha256::digest(&r.to_packed());
    let mut bits = Vec::with_capacity(width);
    let mut counter = 0u8;
    let mut block = digest;
    loop {
        for byte in block {
            for i in 0..8 {
                if bits.len() == width {
                    return Challenge::from_bits(bits);
                }
                bits.push((byte >> i) & 1);
            }
        }
        counter = counter.wrapping_add(1);
        let mut next = digest.to_vec();
        next.push(counter);
        block = Sha256::digest(&next);
    }
}

/// Walks `memory` producing the hash chain. Shared verbatim by the
/// Device (on its real memory) and the Verifier (on its golden copy with
/// the pPUF model) — which is the point: any divergence in memory or PUF
/// identity diverges the chain. Every read of one walk goes through one
/// [`PhotonicPuf::deterministic_reader`].
///
/// # Errors
///
/// Propagates PUF errors.
pub fn compute_attestation(
    puf: &PhotonicPuf,
    memory: &[u8],
    request: &AttestationRequest,
) -> Result<[u8; 32], ProtocolError> {
    let chunks = memory.len().div_ceil(CHUNK_BYTES).max(1);
    let mut reader = puf.deterministic_reader();
    let mut response = reader.respond(&request.challenge)?;
    let order = walk_order(&response, request.timestamp_ns, chunks);

    let mut hash = [0u8; 32];
    for (step, &chunk_idx) in order.iter().enumerate() {
        let start = chunk_idx * CHUNK_BYTES;
        let end = (start + CHUNK_BYTES).min(memory.len());
        let chunk = memory.get(start..end).unwrap_or(&[]);
        hash = Sha256::digest_parts(&[chunk, &response.to_packed(), &hash]);
        if step + 1 < order.len() {
            let next_challenge = response_to_challenge(&response, puf.config().challenge_bits);
            response = reader.respond(&next_challenge)?;
        }
    }
    Ok(hash)
}

/// The attesting device.
#[derive(Debug)]
pub struct AttestingDevice {
    puf: PhotonicPuf,
    memory: Vec<u8>,
    timing: TimingModel,
    /// Extra nanoseconds per chunk spent by a hide-and-seek adversary
    /// remapping its compromised region (0 for an honest device).
    pub adversary_overhead_ns: f64,
}

impl AttestingDevice {
    /// Creates an honest device.
    pub fn new(puf: PhotonicPuf, memory: Vec<u8>, timing: TimingModel) -> Self {
        AttestingDevice {
            puf,
            memory,
            timing,
            adversary_overhead_ns: 0.0,
        }
    }

    /// Memory size in bytes.
    pub fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// Mutates a memory byte (compromise).
    pub fn corrupt_memory(&mut self, offset: usize, value: u8) {
        if let Some(b) = self.memory.get_mut(offset) {
            *b = value;
        }
    }

    /// Runs the walk and reports.
    ///
    /// # Errors
    ///
    /// Propagates PUF errors.
    pub fn attest(
        &mut self,
        request: &AttestationRequest,
    ) -> Result<AttestationReport, ProtocolError> {
        let final_hash = compute_attestation(&self.puf, &self.memory, request)?;
        let chunks = self.memory.len().div_ceil(CHUNK_BYTES).max(1) as f64;
        let elapsed_ns = chunks * (self.timing.chunk_ns() + self.adversary_overhead_ns);
        Ok(AttestationReport {
            final_hash,
            elapsed_ns,
        })
    }
}

/// The attestation verifier: golden memory copy + pPUF model.
#[derive(Debug)]
pub struct AttestationVerifier {
    puf_model: PhotonicPuf,
    golden_memory: Vec<u8>,
    timing: TimingModel,
    /// Slack multiplier on the expected duration (e.g. 1.2 = 20 %).
    pub slack: f64,
    rng: CsPrng,
    clock_ns: u64,
}

impl AttestationVerifier {
    /// Creates the verifier. `puf_model` must model the *same die* as
    /// the device's PUF (the §III-B assumption of a PUF model held by
    /// the verifier).
    pub fn new(puf_model: PhotonicPuf, golden_memory: Vec<u8>, timing: TimingModel) -> Self {
        AttestationVerifier {
            puf_model,
            golden_memory,
            timing,
            slack: 1.2,
            rng: CsPrng::from_seed_bytes(b"attestation-verifier"),
            clock_ns: 0,
        }
    }

    /// Issues a fresh request.
    pub fn begin(&mut self) -> AttestationRequest {
        self.clock_ns += 1_000_000; // clock advances between requests
        let mut packed = vec![0u8; self.puf_model.config().challenge_bits.div_ceil(8)];
        self.rng.fill(&mut packed);
        AttestationRequest {
            timestamp_ns: self.clock_ns,
            challenge: Challenge::from_packed(&packed, self.puf_model.config().challenge_bits),
        }
    }

    /// Temporal bound for a device of `memory_len` bytes.
    pub fn allowed_ns(&self, memory_len: usize) -> f64 {
        let chunks = memory_len.div_ceil(CHUNK_BYTES).max(1) as f64;
        chunks * self.timing.chunk_ns() * self.slack
    }

    /// Checks a report against the golden state and the temporal
    /// constraint.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AttestationDigestMismatch`] on hash divergence;
    /// [`ProtocolError::AttestationTimeout`] when the walk took too
    /// long.
    pub fn verify(
        &mut self,
        request: &AttestationRequest,
        report: &AttestationReport,
    ) -> Result<(), ProtocolError> {
        let allowed_ns = self.allowed_ns(self.golden_memory.len());
        if report.elapsed_ns > allowed_ns {
            return Err(ProtocolError::AttestationTimeout {
                measured_ns: report.elapsed_ns,
                allowed_ns,
            });
        }
        let expected = compute_attestation(&self.puf_model, &self.golden_memory, request)?;
        if !ct_eq(&expected, &report.final_hash) {
            return Err(ProtocolError::AttestationDigestMismatch);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Wire sessions
// ---------------------------------------------------------------------------

use crate::transport::{Channel, Transport};
use crate::wire::{
    classify, drive_report, resend_or_wait, Arq, AttestationMsg, Envelope, Incoming, NextWake,
    ProtocolId, Session, SessionAction, SessionConfig, SessionReport, DEFAULT_MAX_TICKS,
};
use neuropuls_rt::codec::ToBytes;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireAttVerifierState {
    Start,
    AwaitReport,
    Done,
}

/// The attestation verifier as a wire session: sends the timestamped
/// challenge, awaits the report, verifies digest and temporal bound.
///
/// A rejected report burns a retry and re-elicits the device's stored
/// report frame — so a report corrupted *in transit* recovers, while a
/// genuinely diverging device fails with the protocol-level error once
/// the budget is exhausted.
pub struct WireAttestationVerifier<'a> {
    verifier: &'a mut AttestationVerifier,
    session: u64,
    arq: Arq,
    state: WireAttVerifierState,
    request: Option<AttestationRequest>,
    last_reject: Option<ProtocolError>,
}

impl<'a> WireAttestationVerifier<'a> {
    /// Wraps `verifier` for one wire session identified by `session`.
    pub fn new(verifier: &'a mut AttestationVerifier, session: u64, cfg: SessionConfig) -> Self {
        WireAttestationVerifier {
            verifier,
            session,
            arq: Arq::new(cfg),
            state: WireAttVerifierState::Start,
            request: None,
            last_reject: None,
        }
    }

    fn fail_with(&mut self, fallback: ProtocolError) -> ProtocolError {
        self.last_reject.take().unwrap_or(fallback)
    }

    fn idle(&mut self) -> Result<SessionAction, ProtocolError> {
        match self.arq.idle() {
            Ok(frame) => Ok(resend_or_wait(frame)),
            Err(e) => Err(self.fail_with(e)),
        }
    }

    fn rejected(&mut self, reason: ProtocolError) -> Result<SessionAction, ProtocolError> {
        self.last_reject = Some(reason);
        match self.arq.reject() {
            Ok(frame) => Ok(resend_or_wait(frame)),
            Err(e) => Err(self.fail_with(e)),
        }
    }
}

impl Session for WireAttestationVerifier<'_> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            WireAttVerifierState::Start => {
                let request = self.verifier.begin();
                let frame = Envelope::pack(
                    ProtocolId::Attestation,
                    self.session,
                    0,
                    &AttestationMsg::Request(request.clone()),
                )
                .to_bytes();
                self.request = Some(request);
                self.arq.sent(&frame);
                self.state = WireAttVerifierState::AwaitReport;
                Ok(SessionAction::Send(frame))
            }
            WireAttVerifierState::AwaitReport => {
                match classify::<AttestationMsg>(
                    incoming,
                    ProtocolId::Attestation,
                    Some(self.session),
                    1,
                ) {
                    Incoming::Msg(_, AttestationMsg::Report(report)) => {
                        self.arq.activity();
                        let request = self.request.clone().ok_or_else(|| {
                            ProtocolError::OutOfOrder("report before request".into())
                        })?;
                        match self.verifier.verify(&request, &report) {
                            Ok(()) => {
                                self.state = WireAttVerifierState::Done;
                                Ok(SessionAction::Done)
                            }
                            Err(e) => self.rejected(e),
                        }
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            WireAttVerifierState::Done => Ok(SessionAction::Wait),
        }
    }

    fn done(&self) -> bool {
        self.state == WireAttVerifierState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            WireAttVerifierState::Start => NextWake::In(0),
            WireAttVerifierState::AwaitReport => NextWake::In(self.arq.ticks_to_fire()),
            WireAttVerifierState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireAttDeviceState {
    AwaitRequest,
    Done,
}

/// The attesting device as a wire session: awaits the challenge, runs
/// the walk once, reports — then lingers, answering retransmitted
/// requests with the stored report frame (the walk is *not* re-run, so
/// the reported timing stays that of the single genuine execution).
pub struct WireAttestingDevice<'a> {
    device: &'a mut AttestingDevice,
    session: Option<u64>,
    arq: Arq,
    state: WireAttDeviceState,
}

impl<'a> WireAttestingDevice<'a> {
    /// Wraps `device` for one wire session; the session id is latched
    /// from the first request envelope.
    pub fn new(device: &'a mut AttestingDevice, cfg: SessionConfig) -> Self {
        WireAttestingDevice {
            device,
            session: None,
            arq: Arq::new(cfg),
            state: WireAttDeviceState::AwaitRequest,
        }
    }
}

impl Session for WireAttestingDevice<'_> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            WireAttDeviceState::AwaitRequest => {
                match classify::<AttestationMsg>(incoming, ProtocolId::Attestation, self.session, 0)
                {
                    Incoming::Msg(session, AttestationMsg::Request(request)) => {
                        self.arq.activity();
                        self.session = Some(session);
                        // A PUF failure is a device fault: fail at once.
                        let report = self.device.attest(&request)?;
                        let frame = Envelope::pack(
                            ProtocolId::Attestation,
                            session,
                            1,
                            &AttestationMsg::Report(report),
                        )
                        .to_bytes();
                        self.arq.sent(&frame);
                        self.state = WireAttDeviceState::Done;
                        Ok(SessionAction::Send(frame))
                    }
                    Incoming::Msg(..) | Incoming::Duplicate | Incoming::Noise => {
                        match self.arq.idle() {
                            Ok(frame) => Ok(resend_or_wait(frame)),
                            Err(e) => Err(e),
                        }
                    }
                }
            }
            WireAttDeviceState::Done => {
                // Linger: a retransmitted request means the verifier
                // missed the report — resend the stored frame.
                match classify::<AttestationMsg>(incoming, ProtocolId::Attestation, self.session, 1)
                {
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    _ => Ok(SessionAction::Wait),
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.state == WireAttDeviceState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            WireAttDeviceState::AwaitRequest => NextWake::In(self.arq.ticks_to_fire()),
            WireAttDeviceState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

/// Runs one attestation round over `channel` (verifier =
/// [`Side::A`](crate::transport::Side::A), device =
/// [`Side::B`](crate::transport::Side::B)), recording wire activity
/// into `tracer` (pass
/// [`Tracer::disabled`](neuropuls_rt::trace::Tracer::disabled) for an
/// untraced run).
pub fn run_wire_attestation<T: Transport>(
    channel: &mut T,
    device: &mut AttestingDevice,
    verifier: &mut AttestationVerifier,
    session_id: u64,
    cfg: SessionConfig,
    tracer: &mut neuropuls_rt::trace::Tracer,
) -> SessionReport {
    let mut v = WireAttestationVerifier::new(verifier, session_id, cfg);
    let mut d = WireAttestingDevice::new(device, cfg);
    drive_report(channel, &mut v, &mut d, DEFAULT_MAX_TICKS, tracer)
}

/// Runs one attestation round over a perfect in-memory channel.
///
/// # Errors
///
/// Propagates the first protocol failure (digest mismatch, temporal
/// violation, or PUF error).
pub fn run_attestation(
    device: &mut AttestingDevice,
    verifier: &mut AttestationVerifier,
) -> Result<(), ProtocolError> {
    let mut channel = Channel::new();
    run_wire_attestation(
        &mut channel,
        device,
        verifier,
        0,
        SessionConfig::default(),
        &mut neuropuls_rt::trace::Tracer::disabled(),
    )
    .result
    .map(|_ticks| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_photonic::process::DieId;

    const MEM_LEN: usize = 4096;

    fn setup(die: u64) -> (AttestingDevice, AttestationVerifier) {
        let memory: Vec<u8> = (0..MEM_LEN).map(|i| (i * 31 % 251) as u8).collect();
        let device_puf = PhotonicPuf::reference(DieId(die), 1);
        let model_puf = PhotonicPuf::reference(DieId(die), 2); // same die, own noise stream
        let timing = TimingModel::photonic();
        (
            AttestingDevice::new(device_puf, memory.clone(), timing),
            AttestationVerifier::new(model_puf, memory, timing),
        )
    }

    #[test]
    fn honest_device_passes() {
        let (mut device, mut verifier) = setup(1);
        let request = verifier.begin();
        let report = device.attest(&request).unwrap();
        verifier.verify(&request, &report).unwrap();
    }

    #[test]
    fn repeated_attestations_use_fresh_walks() {
        let (mut device, mut verifier) = setup(2);
        let r1 = verifier.begin();
        let rep1 = device.attest(&r1).unwrap();
        let r2 = verifier.begin();
        let rep2 = device.attest(&r2).unwrap();
        assert_ne!(
            rep1.final_hash, rep2.final_hash,
            "walks must differ per request"
        );
        verifier.verify(&r1, &rep1).unwrap();
        verifier.verify(&r2, &rep2).unwrap();
    }

    #[test]
    fn single_byte_compromise_is_detected() {
        let (mut device, mut verifier) = setup(3);
        device.corrupt_memory(1234, 0xEE);
        let request = verifier.begin();
        let report = device.attest(&request).unwrap();
        assert_eq!(
            verifier.verify(&request, &report),
            Err(ProtocolError::AttestationDigestMismatch)
        );
    }

    #[test]
    fn hide_and_seek_adversary_misses_the_deadline() {
        let (mut device, mut verifier) = setup(4);
        // The adversary relocates its payload ahead of the walk: it
        // produces the *correct* hash but pays per-chunk remap time.
        device.adversary_overhead_ns = TimingModel::photonic().chunk_ns();
        let request = verifier.begin();
        let report = device.attest(&request).unwrap();
        assert!(matches!(
            verifier.verify(&request, &report),
            Err(ProtocolError::AttestationTimeout { .. })
        ));
    }

    #[test]
    fn slow_puf_forces_loose_bound_that_admits_the_attack() {
        // Ablation: with a slow, unpipelined PUF the per-chunk time is
        // dominated by the PUF, the verifier's bound balloons, and the
        // same adversary overhead now *fits inside* the bound.
        let memory: Vec<u8> = vec![7; MEM_LEN];
        let device_puf = PhotonicPuf::reference(DieId(5), 1);
        let model_puf = PhotonicPuf::reference(DieId(5), 2);
        let timing = TimingModel::slow_electronic();
        let mut device = AttestingDevice::new(device_puf, memory.clone(), timing);
        let mut verifier = AttestationVerifier::new(model_puf, memory, timing);
        device.adversary_overhead_ns = TimingModel::photonic().chunk_ns();
        let request = verifier.begin();
        let report = device.attest(&request).unwrap();
        assert!(
            verifier.verify(&request, &report).is_ok(),
            "slow-PUF bound should fail to catch the fast adversary"
        );
    }

    #[test]
    fn wrong_die_model_rejects_genuine_device() {
        // If the verifier models the wrong die, even an honest device
        // fails — the PUF chain is die-bound.
        let memory: Vec<u8> = vec![1; MEM_LEN];
        let device_puf = PhotonicPuf::reference(DieId(6), 1);
        let wrong_model = PhotonicPuf::reference(DieId(7), 1);
        let timing = TimingModel::photonic();
        let mut device = AttestingDevice::new(device_puf, memory.clone(), timing);
        let mut verifier = AttestationVerifier::new(wrong_model, memory, timing);
        let request = verifier.begin();
        let report = device.attest(&request).unwrap();
        assert_eq!(
            verifier.verify(&request, &report),
            Err(ProtocolError::AttestationDigestMismatch)
        );
    }

    #[test]
    fn walk_covers_every_chunk_exactly_once() {
        let response = Response::from_u64(0x1234, 64);
        let order = walk_order(&response, 42, 100);
        let mut seen = [false; 100];
        for &idx in &order {
            assert!(!seen[idx], "chunk {idx} visited twice");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn walk_depends_on_timestamp_and_response() {
        let r = Response::from_u64(0x1, 64);
        let a = walk_order(&r, 1, 64);
        let b = walk_order(&r, 2, 64);
        assert_ne!(a, b, "timestamp must randomize the walk");
        let r2 = Response::from_u64(0x2, 64);
        let c = walk_order(&r2, 1, 64);
        assert_ne!(a, c, "response must randomize the walk");
    }

    #[test]
    fn photonic_timing_is_hash_bound() {
        // §III-B: the pPUF never slows the protocol down.
        let t = TimingModel::photonic();
        assert_eq!(t.chunk_ns(), CHUNK_BYTES as f64 / t.hash_bytes_per_ns);
    }
}
