//! Mutual authentication — the HSC-IoT-style protocol of §III-A and
//! Fig. 4.
//!
//! A single CRP is the shared secret; it is refreshed at every session:
//!
//! ```text
//! Verifier                                  Device
//!    |------------ AuthRequest(N_v) --------->|
//!    |                                        | c_{i+1} = RNG(r_i)
//!    |                                        | r_{i+1} = PUF(c_{i+1})
//!    |<-- m = (r_{i+1}^r_i) || H || CC || N,  |
//!    |        MAC(m, r_i) ---------------------|
//!    | verify MAC with stored r_i             |
//!    | r_{i+1} = unmask                       |
//!    |--------- MAC(c_{i+1}, r_{i+1}) ------->|
//!    |                                        | verify → commit c_{i+1}
//! ```
//!
//! Only one CRP is stored by the Verifier at any time (plus the previous
//! one for loss recovery); CRPs never travel in clear text.
//!
//! The Device canonicalizes its noisy PUF readings with an on-device
//! code-offset secure sketch, so the MAC keys match the Verifier's
//! stored copy bit-for-bit; a reading beyond the code's correction
//! capacity surfaces as an authentication failure (the FRR measured in
//! experiment E4).

use crate::error::ProtocolError;
use neuropuls_crypto::ct::ct_eq;
use neuropuls_crypto::ecc::ConcatenatedCode;
use neuropuls_crypto::fuzzy::SecureSketch;
use neuropuls_crypto::hmac::HmacSha256;
use neuropuls_crypto::prng::CsPrng;
use neuropuls_crypto::sha256::Sha256;
use neuropuls_puf::bits::{Challenge, Response};
use neuropuls_puf::traits::Puf;
use neuropuls_rt::RngCore;

/// Message 1: the Verifier's authentication request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthRequest {
    /// Verifier nonce for freshness.
    pub verifier_nonce: [u8; 16],
}

/// Message 2: the Device's authenticated update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAuth {
    /// `r_{i+1} ⊕ r_i` (packed bits).
    pub masked_response: Vec<u8>,
    /// Hash of the device memory (software-integrity evidence).
    pub memory_hash: [u8; 32],
    /// Clock count: cycles the device reports for its integrity check
    /// task.
    pub clock_count: u64,
    /// Device nonce.
    pub device_nonce: [u8; 16],
    /// HMAC over all fields plus the verifier nonce, keyed with `r_i`.
    pub mac: [u8; 32],
}

/// Message 3: the Verifier's proof of knowledge of the fresh secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifierConfirm {
    /// HMAC over the new challenge and the device nonce, keyed with
    /// `r_{i+1}`.
    pub mac: [u8; 32],
}

fn derive_challenge(response: &Response, width: usize) -> Challenge {
    let mut prng = CsPrng::from_seed_bytes(&response.to_packed());
    let mut packed = vec![0u8; width.div_ceil(8)];
    prng.fill(&mut packed);
    Challenge::from_packed(&packed, width)
}

fn device_mac_input(
    masked: &[u8],
    memory_hash: &[u8; 32],
    clock_count: u64,
    device_nonce: &[u8; 16],
    verifier_nonce: &[u8; 16],
) -> Vec<u8> {
    let mut input = Vec::with_capacity(masked.len() + 32 + 8 + 32);
    input.extend_from_slice(masked);
    input.extend_from_slice(memory_hash);
    input.extend_from_slice(&clock_count.to_le_bytes());
    input.extend_from_slice(device_nonce);
    input.extend_from_slice(verifier_nonce);
    input
}

/// The device side of the protocol.
///
/// Generic over the strong PUF; holds the current challenge and the
/// on-device helper data that canonicalizes noisy readings.
#[derive(Debug)]
pub struct Device<P: Puf> {
    puf: P,
    sketch: SecureSketch<ConcatenatedCode>,
    current_challenge: Challenge,
    current_helper: Vec<u8>,
    /// Pending update, committed only after the verifier confirms.
    pending: Option<(Challenge, Vec<u8>, Response)>,
    /// The device's firmware memory (hashed as integrity evidence).
    memory: Vec<u8>,
    /// Simulated cycles needed for the self-check task.
    clock_count: u64,
    reads_per_eval: usize,
    rng: CsPrng,
}

/// Manufacturing-time provisioning output: the verifier's initial state.
#[derive(Debug, Clone)]
pub struct ProvisionedVerifier {
    /// Canonical current response `r_0`.
    pub current_response: Response,
    /// Previous response kept for loss recovery (None initially).
    pub previous_response: Option<Response>,
    /// Expected device memory hash.
    pub expected_memory_hash: [u8; 32],
    /// Maximum plausible clock count for the self-check task.
    pub max_clock_count: u64,
}

impl<P: Puf> Device<P> {
    /// Provisions a device and its verifier state at manufacturing time:
    /// picks the initial challenge `c_0`, canonicalizes `r_0`, and hands
    /// the verifier its copy.
    ///
    /// # Errors
    ///
    /// Propagates PUF and sketch errors.
    pub fn provision(
        mut puf: P,
        memory: Vec<u8>,
        provisioning_seed: &[u8],
    ) -> Result<(Self, ProvisionedVerifier), ProtocolError> {
        let sketch = SecureSketch::new(ConcatenatedCode::new(3));
        let mut rng = CsPrng::from_seed_bytes(provisioning_seed);
        let width = puf.challenge_bits();
        let mut packed = vec![0u8; width.div_ceil(8)];
        rng.fill(&mut packed);
        let c0 = Challenge::from_packed(&packed, width);

        let usable = sketch.usable_bits(puf.response_bits());
        let golden = puf.respond_golden(&c0, 9)?;
        let canonical = Response::from_bits(golden.bits()[..usable].to_vec());
        let helper = sketch.sketch(canonical.bits(), &mut rng)?;

        let memory_hash = Sha256::digest(&memory);
        let clock_count = 1000 + memory.len() as u64 / 16;

        let device = Device {
            puf,
            sketch,
            current_challenge: c0,
            current_helper: helper,
            pending: None,
            memory,
            clock_count,
            reads_per_eval: 5,
            rng,
        };
        let verifier = ProvisionedVerifier {
            current_response: canonical,
            previous_response: None,
            expected_memory_hash: memory_hash,
            max_clock_count: clock_count + clock_count / 4,
        };
        Ok((device, verifier))
    }

    /// Recomputes the canonical current response from the physical PUF.
    fn current_response(&mut self) -> Result<Response, ProtocolError> {
        let usable = self.current_helper.len();
        let golden = self
            .puf
            .respond_golden(&self.current_challenge, self.reads_per_eval)?;
        let recovered = self
            .sketch
            .recover(&golden.bits()[..usable], &self.current_helper)?;
        Ok(Response::from_bits(recovered))
    }

    /// Tampers with the device memory (test hook for integrity-failure
    /// scenarios).
    pub fn corrupt_memory(&mut self, offset: usize, value: u8) {
        if let Some(byte) = self.memory.get_mut(offset) {
            *byte = value;
        }
    }

    /// Handles an authentication request, producing the device message.
    ///
    /// # Errors
    ///
    /// Fails when the PUF reading cannot be canonicalized (too noisy).
    pub fn respond_to_request(
        &mut self,
        request: &AuthRequest,
    ) -> Result<DeviceAuth, ProtocolError> {
        let r_i = self.current_response()?;

        // Derive the fresh CRP.
        let c_next = derive_challenge(&r_i, self.puf.challenge_bits());
        let usable = self.sketch.usable_bits(self.puf.response_bits());
        let golden = self.puf.respond_golden(&c_next, self.reads_per_eval)?;
        let canonical_next = Response::from_bits(golden.bits()[..usable].to_vec());
        let helper_next = self.sketch.sketch(canonical_next.bits(), &mut self.rng)?;

        let masked_response = canonical_next.xor(&r_i).to_packed();
        let memory_hash = Sha256::digest(&self.memory);
        let mut device_nonce = [0u8; 16];
        self.rng.fill_bytes(&mut device_nonce);

        let mac_input = device_mac_input(
            &masked_response,
            &memory_hash,
            self.clock_count,
            &device_nonce,
            &request.verifier_nonce,
        );
        let mac = HmacSha256::mac(&r_i.to_packed(), &mac_input);

        self.pending = Some((c_next, helper_next, canonical_next));
        Ok(DeviceAuth {
            masked_response,
            memory_hash,
            clock_count: self.clock_count,
            device_nonce,
            mac,
        })
    }

    /// Verifies the verifier's confirmation and commits the CRP update.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] without a pending session;
    /// [`ProtocolError::AuthenticationFailed`] on a bad confirmation
    /// (no state is committed in that case).
    pub fn process_confirmation(&mut self, confirm: &VerifierConfirm) -> Result<(), ProtocolError> {
        let Some((c_next, helper_next, r_next)) = self.pending.take() else {
            return Err(ProtocolError::OutOfOrder(
                "confirmation without session".into(),
            ));
        };
        let expected = HmacSha256::mac_parts(
            &r_next.to_packed(),
            &[&c_next.to_packed(), b"verifier-confirm"],
        );
        if !ct_eq(&expected, &confirm.mac) {
            // Restore the pending update: a forged confirmation must not
            // abort the session, a genuine one may still arrive.
            self.pending = Some((c_next, helper_next, r_next));
            return Err(ProtocolError::AuthenticationFailed(
                "verifier confirmation MAC invalid".into(),
            ));
        }
        self.current_challenge = c_next;
        self.current_helper = helper_next;
        Ok(())
    }

    /// Number of PUF reads per canonicalized evaluation.
    pub fn reads_per_eval(&self) -> usize {
        self.reads_per_eval
    }

    /// Aborts a half-open session (no confirmation arrived); the pending
    /// CRP update is discarded and the current CRP stays in force.
    pub fn abort_session(&mut self) {
        self.pending = None;
    }
}

/// The verifier side of the protocol.
#[derive(Debug)]
pub struct Verifier {
    state: ProvisionedVerifier,
    /// Device nonces accepted under the live `previous_response`, the
    /// only older key a device MAC can still verify under (see
    /// [`Self::process_device_auth`]).
    seen_device_nonces: Vec<[u8; 16]>,
    rng: CsPrng,
    desync_recoveries: u64,
}

impl Verifier {
    /// Creates the verifier from its provisioning record.
    pub fn new(state: ProvisionedVerifier, rng_seed: &[u8]) -> Self {
        Verifier {
            state,
            seen_device_nonces: Vec::new(),
            rng: CsPrng::from_seed_bytes(rng_seed),
            desync_recoveries: 0,
        }
    }

    /// Sessions authenticated via the stored *previous* response — i.e.
    /// recoveries from a lost `VerifierConfirm` that left the device one
    /// CRP behind.
    pub fn desync_recoveries(&self) -> u64 {
        self.desync_recoveries
    }

    /// Storage the verifier needs, in bytes — one CRP regardless of how
    /// many sessions run (compare experiment E4's database baseline).
    /// The replay log is bounded too: it holds only the nonces accepted
    /// under the stored previous response, so it does not grow with the
    /// number of completed sessions.
    pub fn storage_bytes(&self) -> usize {
        let r = self.state.current_response.len().div_ceil(8);
        r + self
            .state
            .previous_response
            .as_ref()
            .map_or(0, |p| p.len().div_ceil(8))
            + 32 // expected memory hash
    }

    /// Starts a session.
    pub fn begin_session(&mut self) -> AuthRequest {
        let mut verifier_nonce = [0u8; 16];
        self.rng.fill_bytes(&mut verifier_nonce);
        AuthRequest { verifier_nonce }
    }

    /// Processes the device's message: authenticates the device, checks
    /// integrity evidence, and produces the confirmation.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] without `begin_session`;
    /// [`ProtocolError::Replay`] on a reused device nonce;
    /// [`ProtocolError::AuthenticationFailed`] on MAC, memory-hash or
    /// clock-count failure.
    pub fn process_device_auth(
        &mut self,
        request: &AuthRequest,
        msg: &DeviceAuth,
    ) -> Result<VerifierConfirm, ProtocolError> {
        if self.seen_device_nonces.contains(&msg.device_nonce) {
            return Err(ProtocolError::Replay);
        }
        let mac_input = device_mac_input(
            &msg.masked_response,
            &msg.memory_hash,
            msg.clock_count,
            &msg.device_nonce,
            &request.verifier_nonce,
        );

        // Try the current response, then the previous one (recovery from
        // a lost confirmation).
        let candidates: Vec<Response> = std::iter::once(self.state.current_response.clone())
            .chain(self.state.previous_response.clone())
            .collect();
        let mut matched: Option<(Response, bool)> = None;
        for (idx, r) in candidates.into_iter().enumerate() {
            let expected = HmacSha256::mac(&r.to_packed(), &mac_input);
            if ct_eq(&expected, &msg.mac) {
                matched = Some((r, idx == 1));
                break;
            }
        }
        let (r_i, via_previous) = matched.ok_or_else(|| {
            ProtocolError::AuthenticationFailed("device MAC invalid for known secrets".into())
        })?;

        if !ct_eq(&msg.memory_hash, &self.state.expected_memory_hash) {
            return Err(ProtocolError::AuthenticationFailed(
                "device memory hash mismatch (software integrity)".into(),
            ));
        }
        if msg.clock_count > self.state.max_clock_count {
            return Err(ProtocolError::AuthenticationFailed(format!(
                "clock count {} exceeds bound {}",
                msg.clock_count, self.state.max_clock_count
            )));
        }

        let masked = Response::from_packed(&msg.masked_response, r_i.len());
        let r_next = masked.xor(&r_i);
        let c_next = derive_challenge(&r_i, CHALLENGE_WIDTH);

        // The MAC binds this session's fresh verifier nonce, and only the
        // current and previous responses can verify one. An acceptance
        // under the current response makes it the new previous, so every
        // nonce logged under the old previous can never verify again.
        if via_previous {
            self.desync_recoveries += 1;
        } else {
            self.seen_device_nonces.clear();
        }
        self.seen_device_nonces.push(msg.device_nonce);

        let mac = HmacSha256::mac_parts(
            &r_next.to_packed(),
            &[&c_next.to_packed(), b"verifier-confirm"],
        );

        // Commit: keep the matched response as "previous" for recovery.
        self.state.previous_response = Some(r_i);
        self.state.current_response = r_next;

        Ok(VerifierConfirm { mac })
    }

    /// Current verifier secret (test hook).
    pub fn current_response(&self) -> &Response {
        &self.state.current_response
    }
}

/// Challenge width used by the reference deployment (the photonic PUF's
/// 64-bit interface).
pub const CHALLENGE_WIDTH: usize = 64;

// ---------------------------------------------------------------------------
// Wire sessions
// ---------------------------------------------------------------------------

use crate::transport::{Channel, Transport};
use crate::wire::{
    classify, drive_report, resend_or_wait, Arq, Envelope, Incoming, MutualAuthMsg, NextWake,
    ProtocolId, Session, SessionAction, SessionConfig, SessionReport, DEFAULT_MAX_TICKS,
};
use neuropuls_rt::codec::ToBytes;
use std::borrow::BorrowMut;
use std::marker::PhantomData;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireVerifierState {
    Start,
    AwaitAuth,
    Done,
}

/// The verifier as a poll-style wire session (initiator: sends
/// `AuthRequest`, awaits `DeviceAuth`, answers `VerifierConfirm`).
///
/// After completing it lingers: a retransmitted `DeviceAuth` (the
/// device missed our confirmation) is answered with the stored
/// confirmation frame, which is what lets a lossy channel still finish
/// Msg3 delivery.
///
/// Generic over how the verifier is held: `V` is anything that
/// [`BorrowMut`]s a [`Verifier`] — a `&mut Verifier` for the classic
/// per-call sessions, or an owned `Verifier` (checked out of a CRP
/// store) for persistent keep-alive slots that create sessions at
/// timer-fire time and recover the rotated record with
/// [`into_inner`](Self::into_inner) when the epoch closes.
pub struct WireVerifier<V: BorrowMut<Verifier>> {
    verifier: V,
    session: u64,
    arq: Arq,
    state: WireVerifierState,
    request: Option<AuthRequest>,
    last_reject: Option<ProtocolError>,
}

impl<V: BorrowMut<Verifier>> WireVerifier<V> {
    /// Wraps `verifier` for one wire session identified by `session`.
    pub fn new(verifier: V, session: u64, cfg: SessionConfig) -> Self {
        WireVerifier {
            verifier,
            session,
            arq: Arq::new(cfg),
            state: WireVerifierState::Start,
            request: None,
            last_reject: None,
        }
    }

    /// Hands the (possibly CRP-rotated) verifier back to the caller.
    pub fn into_inner(self) -> V {
        self.verifier
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

impl<V: BorrowMut<Verifier>> Session for WireVerifier<V> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            WireVerifierState::Start => {
                let request = self.verifier.borrow_mut().begin_session();
                let frame = Envelope::pack(
                    ProtocolId::MutualAuth,
                    self.session,
                    0,
                    &MutualAuthMsg::Request(request.clone()),
                )
                .to_bytes();
                self.request = Some(request);
                self.arq.sent(&frame);
                self.state = WireVerifierState::AwaitAuth;
                Ok(SessionAction::Send(frame))
            }
            WireVerifierState::AwaitAuth => {
                match classify::<MutualAuthMsg>(
                    incoming,
                    ProtocolId::MutualAuth,
                    Some(self.session),
                    1,
                ) {
                    Incoming::Msg(_, MutualAuthMsg::Auth(auth)) => {
                        self.arq.activity();
                        let request = self.request.clone().ok_or_else(|| {
                            ProtocolError::OutOfOrder("device auth before request".into())
                        })?;
                        match self
                            .verifier
                            .borrow_mut()
                            .process_device_auth(&request, &auth)
                        {
                            Ok(confirm) => {
                                let frame = Envelope::pack(
                                    ProtocolId::MutualAuth,
                                    self.session,
                                    2,
                                    &MutualAuthMsg::Confirm(confirm),
                                )
                                .to_bytes();
                                self.arq.sent(&frame);
                                self.state = WireVerifierState::Done;
                                Ok(SessionAction::Send(frame))
                            }
                            Err(e) => self.rejected(e),
                        }
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            WireVerifierState::Done => {
                // Linger: answer a retransmitted DeviceAuth with the
                // stored confirmation; everything else is ignored.
                match classify::<MutualAuthMsg>(
                    incoming,
                    ProtocolId::MutualAuth,
                    Some(self.session),
                    3,
                ) {
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    _ => Ok(SessionAction::Wait),
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.state == WireVerifierState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            WireVerifierState::Start => NextWake::In(0),
            WireVerifierState::AwaitAuth => NextWake::In(self.arq.ticks_to_fire()),
            WireVerifierState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireDeviceState {
    AwaitRequest,
    AwaitConfirm,
    Done,
}

/// The device as a poll-style wire session (responder: awaits
/// `AuthRequest`, answers `DeviceAuth`, awaits `VerifierConfirm`).
///
/// Like [`WireVerifier`], generic over how the endpoint is held: `D`
/// is anything that [`BorrowMut`]s a [`Device<P>`] — `&mut Device<P>`
/// for per-call sessions, an owned `Device<P>` for persistent slots.
pub struct WireDevice<D: BorrowMut<Device<P>>, P: Puf> {
    device: D,
    session: Option<u64>,
    arq: Arq,
    state: WireDeviceState,
    last_reject: Option<ProtocolError>,
    _puf: PhantomData<fn() -> P>,
}

impl<D: BorrowMut<Device<P>>, P: Puf> WireDevice<D, P> {
    /// Wraps `device` for one wire session; the session id is latched
    /// from the first request envelope.
    pub fn new(device: D, cfg: SessionConfig) -> Self {
        WireDevice {
            device,
            session: None,
            arq: Arq::new(cfg),
            state: WireDeviceState::AwaitRequest,
            last_reject: None,
            _puf: PhantomData,
        }
    }

    /// Hands the (possibly CRP-rotated) device back to the caller.
    pub fn into_inner(self) -> D {
        self.device
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

impl<D: BorrowMut<Device<P>>, P: Puf> Session for WireDevice<D, P> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            WireDeviceState::AwaitRequest => {
                match classify::<MutualAuthMsg>(incoming, ProtocolId::MutualAuth, self.session, 0) {
                    Incoming::Msg(session, MutualAuthMsg::Request(request)) => {
                        self.arq.activity();
                        self.session = Some(session);
                        // A PUF that cannot canonicalize is a device
                        // fault, not a channel fault: fail immediately.
                        let auth = self.device.borrow_mut().respond_to_request(&request)?;
                        let frame = Envelope::pack(
                            ProtocolId::MutualAuth,
                            session,
                            1,
                            &MutualAuthMsg::Auth(auth),
                        )
                        .to_bytes();
                        self.arq.sent(&frame);
                        self.state = WireDeviceState::AwaitConfirm;
                        Ok(SessionAction::Send(frame))
                    }
                    Incoming::Msg(..) | Incoming::Duplicate | Incoming::Noise => self.idle(),
                }
            }
            WireDeviceState::AwaitConfirm => {
                match classify::<MutualAuthMsg>(incoming, ProtocolId::MutualAuth, self.session, 2) {
                    Incoming::Msg(_, MutualAuthMsg::Confirm(confirm)) => {
                        self.arq.activity();
                        match self.device.borrow_mut().process_confirmation(&confirm) {
                            Ok(()) => {
                                self.state = WireDeviceState::Done;
                                Ok(SessionAction::Done)
                            }
                            Err(e) => self.rejected(e),
                        }
                    }
                    Incoming::Msg(..) => self.idle(),
                    // A retransmitted request: the verifier missed our
                    // DeviceAuth — resend it.
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            WireDeviceState::Done => Ok(SessionAction::Wait),
        }
    }

    fn done(&self) -> bool {
        self.state == WireDeviceState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            WireDeviceState::AwaitRequest | WireDeviceState::AwaitConfirm => {
                NextWake::In(self.arq.ticks_to_fire())
            }
            WireDeviceState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

/// Runs one authentication session over `channel` as two wire state
/// machines (verifier = [`Side::A`](crate::transport::Side::A), device =
/// [`Side::B`](crate::transport::Side::B)). On failure the device's
/// half-open session is aborted so its CRP state stays consistent (the
/// verifier's previous-response fallback covers the desync).
///
/// Wire activity is recorded into `tracer` (pass
/// [`Tracer::disabled`](neuropuls_rt::trace::Tracer::disabled) for an
/// untraced run) — including a `desync.recovery` instant when this
/// session consumed the verifier's previous-CRP fallback.
pub fn run_wire_session<T: Transport, P: Puf>(
    channel: &mut T,
    device: &mut Device<P>,
    verifier: &mut Verifier,
    session_id: u64,
    cfg: SessionConfig,
    tracer: &mut neuropuls_rt::trace::Tracer,
) -> SessionReport {
    let recoveries_before = verifier.desync_recoveries();
    let report = {
        let mut v = WireVerifier::new(&mut *verifier, session_id, cfg);
        let mut d = WireDevice::new(&mut *device, cfg);
        drive_report(channel, &mut v, &mut d, DEFAULT_MAX_TICKS, tracer)
    };
    if report.result.is_err() {
        device.abort_session();
    }
    let recovered = verifier.desync_recoveries() - recoveries_before;
    if recovered > 0 {
        let tick = report.result.as_ref().map_or(0, |t| u64::from(*t));
        tracer.instant(
            tick,
            "desync.recovery",
            vec![("count", neuropuls_rt::trace::Value::from(recovered))],
        );
    }
    report
}

/// Runs one complete session over a perfect in-memory channel. Returns
/// `Ok(())` when both sides authenticated and rotated the CRP.
///
/// # Errors
///
/// Propagates the first protocol failure.
pub fn run_session<P: Puf>(
    device: &mut Device<P>,
    verifier: &mut Verifier,
) -> Result<(), ProtocolError> {
    let mut channel = Channel::new();
    run_wire_session(
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
    use neuropuls_puf::photonic::PhotonicPuf;

    fn pair(die: u64) -> (Device<PhotonicPuf>, Verifier) {
        let puf = PhotonicPuf::reference(DieId(die), die * 7 + 1);
        let memory = vec![0xA5; 1024];
        let (device, provisioned) = Device::provision(puf, memory, b"provision-seed").unwrap();
        let verifier = Verifier::new(provisioned, b"verifier-rng");
        (device, verifier)
    }

    #[test]
    fn session_succeeds_and_rotates_secret() {
        let (mut device, mut verifier) = pair(1);
        let before = verifier.current_response().clone();
        run_session(&mut device, &mut verifier).unwrap();
        assert_ne!(verifier.current_response(), &before, "CRP did not rotate");
    }

    #[test]
    fn many_consecutive_sessions_succeed() {
        let (mut device, mut verifier) = pair(2);
        let mut failures = 0;
        for _ in 0..20 {
            if run_session(&mut device, &mut verifier).is_err() {
                failures += 1;
            }
        }
        assert!(failures <= 1, "{failures}/20 sessions failed");
    }

    #[test]
    fn storage_is_constant_across_sessions() {
        let (mut device, mut verifier) = pair(3);
        run_session(&mut device, &mut verifier).unwrap();
        let after_one = verifier.storage_bytes();
        for _ in 0..5 {
            let _ = run_session(&mut device, &mut verifier);
        }
        assert_eq!(verifier.storage_bytes(), after_one);
    }

    #[test]
    fn corrupted_memory_is_rejected() {
        let (mut device, mut verifier) = pair(4);
        device.corrupt_memory(100, 0xFF);
        let err = run_session(&mut device, &mut verifier).unwrap_err();
        assert!(matches!(err, ProtocolError::AuthenticationFailed(msg) if msg.contains("memory")));
    }

    #[test]
    fn replayed_device_message_is_rejected() {
        let (mut device, mut verifier) = pair(5);
        let request = verifier.begin_session();
        let msg = device.respond_to_request(&request).unwrap();
        let confirm = verifier.process_device_auth(&request, &msg).unwrap();
        device.process_confirmation(&confirm).unwrap();
        // Replay the captured message in a new session.
        let request2 = verifier.begin_session();
        let err = verifier.process_device_auth(&request2, &msg).unwrap_err();
        assert_eq!(err, ProtocolError::Replay);
    }

    #[test]
    fn message_from_before_a_rotation_is_rejected() {
        let (mut device, mut verifier) = pair(12);
        let request = verifier.begin_session();
        let old = device.respond_to_request(&request).unwrap();
        let confirm = verifier.process_device_auth(&request, &old).unwrap();
        device.process_confirmation(&confirm).unwrap();
        run_session(&mut device, &mut verifier).unwrap();
        // The second session cleared `old`'s nonce from the log; its MAC
        // binds a dead verifier nonce under a retired key.
        let request3 = verifier.begin_session();
        assert!(verifier.process_device_auth(&request3, &old).is_err());
    }

    #[test]
    fn replay_log_holds_only_the_live_previous_key_nonces() {
        let (mut device, mut verifier) = pair(13);
        for _ in 0..6 {
            run_session(&mut device, &mut verifier).unwrap();
            assert_eq!(verifier.seen_device_nonces.len(), 1);
        }
        // Consecutive lost confirmations: each retry is accepted via the
        // previous response and only appends.
        for lost in 1..=3 {
            let request = verifier.begin_session();
            let msg = device.respond_to_request(&request).unwrap();
            verifier.process_device_auth(&request, &msg).unwrap();
            device.abort_session();
            assert!(verifier.seen_device_nonces.len() as u64 <= 1 + verifier.desync_recoveries());
            assert_eq!(verifier.seen_device_nonces.len(), lost);
        }
        run_session(&mut device, &mut verifier).unwrap();
        run_session(&mut device, &mut verifier).unwrap();
        assert_eq!(verifier.seen_device_nonces.len(), 1);
    }

    #[test]
    fn tampered_masked_response_is_rejected() {
        let (mut device, mut verifier) = pair(6);
        let request = verifier.begin_session();
        let mut msg = device.respond_to_request(&request).unwrap();
        msg.masked_response[0] ^= 0x01;
        assert!(matches!(
            verifier.process_device_auth(&request, &msg),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn impostor_device_fails() {
        let (_genuine, mut verifier) = pair(7);
        // The impostor has a different die but receives a genuine-looking
        // provisioning for ITS OWN puf — it still doesn't know the
        // verifier's stored r_0.
        let impostor_puf = PhotonicPuf::reference(DieId(9999), 1);
        let (mut impostor, _own_state) =
            Device::provision(impostor_puf, vec![0xA5; 1024], b"other-seed").unwrap();
        let request = verifier.begin_session();
        let msg = impostor.respond_to_request(&request).unwrap();
        assert!(matches!(
            verifier.process_device_auth(&request, &msg),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn lost_confirmation_recovers_on_next_session() {
        let (mut device, mut verifier) = pair(8);
        // Session where the confirmation never reaches the device: the
        // verifier rotated, the device did not.
        let request = verifier.begin_session();
        let msg = device.respond_to_request(&request).unwrap();
        let _lost_confirm = verifier.process_device_auth(&request, &msg).unwrap();
        device.abort_session(); // device aborts the half-finished session

        // Next session must still succeed via the verifier's previous-
        // response fallback.
        run_session(&mut device, &mut verifier).unwrap();
    }

    #[test]
    fn confirmation_without_session_is_out_of_order() {
        let (mut device, _verifier) = pair(10);
        let bogus = VerifierConfirm { mac: [0; 32] };
        assert!(matches!(
            device.process_confirmation(&bogus),
            Err(ProtocolError::OutOfOrder(_))
        ));
    }

    #[test]
    fn forged_confirmation_does_not_commit() {
        let (mut device, mut verifier) = pair(11);
        let request = verifier.begin_session();
        let msg = device.respond_to_request(&request).unwrap();
        let _ = verifier.process_device_auth(&request, &msg).unwrap();
        let forged = VerifierConfirm { mac: [0x42; 32] };
        assert!(matches!(
            device.process_confirmation(&forged),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
        // The pending update must still be there (not committed).
        assert!(device.pending.is_some());
    }

    #[test]
    fn challenge_derivation_is_deterministic() {
        let r = Response::from_u64(0xABCDEF, 63);
        assert_eq!(derive_challenge(&r, 64), derive_challenge(&r, 64));
        let r2 = Response::from_u64(0xABCDEE, 63);
        assert_ne!(derive_challenge(&r, 64), derive_challenge(&r2, 64));
    }
}
