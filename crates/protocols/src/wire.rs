//! Wire encodings and session machinery for the §III protocols.
//!
//! Every protocol message gets a versioned binary encoding through
//! [`neuropuls_rt::codec`] and travels inside a tagged [`Envelope`]
//! carrying the protocol id, a session id, and a sequence number. The
//! envelope is *routing metadata only*: an adversary can rewrite it
//! freely, so every security property still rests on the authenticated
//! payloads (MACs keyed by PUF-derived secrets).
//!
//! On top of the encodings sits a small poll-style session vocabulary:
//! a [`Session`] is stepped with at most one incoming frame per tick
//! and answers with a [`SessionAction`]. Sessions implement
//! stop-and-wait ARQ through [`Arq`]: the last frame sent is kept for
//! retransmission, silence for [`SessionConfig::timeout_ticks`] ticks
//! triggers a retransmit, and [`SessionConfig::max_retries`]
//! retransmissions without progress fail the session with
//! [`ProtocolError::Timeout`]. Frames that fail to decode are treated
//! exactly like silence (channel noise); frames that decode but are
//! rejected by the protocol (bad MAC, stale nonce) burn a retry and
//! re-elicit a fresh copy from the peer, so a single corrupted bit is
//! recoverable while a persistent forger exhausts the budget and
//! surfaces the protocol-level rejection.

use crate::error::ProtocolError;
use crate::transport::{Side, Transport};
use neuropuls_rt::codec::{CodecError, FromBytes, Reader, ToBytes, Writer};
use neuropuls_rt::trace::{Tracer, Value};

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Which §III service a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProtocolId {
    /// HSC-IoT mutual authentication (§III-A).
    MutualAuth,
    /// pPUF-chained software attestation (§III-B).
    Attestation,
    /// EKE authenticated key exchange (§IV).
    Eke,
    /// Table I secure NN load/execute (§III-C).
    SecureNn,
}

impl ProtocolId {
    fn to_u8(self) -> u8 {
        match self {
            ProtocolId::MutualAuth => 1,
            ProtocolId::Attestation => 2,
            ProtocolId::Eke => 3,
            ProtocolId::SecureNn => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, CodecError> {
        match v {
            1 => Ok(ProtocolId::MutualAuth),
            2 => Ok(ProtocolId::Attestation),
            3 => Ok(ProtocolId::Eke),
            4 => Ok(ProtocolId::SecureNn),
            _ => Err(CodecError::Invalid("unknown protocol id")),
        }
    }
}

/// The tagged carrier of every frame on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Service discriminator.
    pub protocol: ProtocolId,
    /// Session identifier chosen by the initiator.
    pub session: u64,
    /// Position of the message in the protocol script (0-based).
    pub seq: u32,
    /// Raw message encoding (no frame header of its own).
    pub payload: Vec<u8>,
}

impl Envelope {
    /// Wraps `msg` for the wire.
    pub fn pack<T: ToBytes>(protocol: ProtocolId, session: u64, seq: u32, msg: &T) -> Self {
        Envelope {
            protocol,
            session,
            seq,
            payload: encode_payload(msg),
        }
    }

    /// Decodes the payload as `T`, requiring it to be consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated, trailing, or
    /// out-of-domain payload bytes.
    pub fn open<T: FromBytes>(&self) -> Result<T, CodecError> {
        decode_payload(&self.payload)
    }
}

impl ToBytes for Envelope {
    fn write_into(&self, out: &mut Writer) {
        out.u8(self.protocol.to_u8());
        out.u64(self.session);
        out.u32(self.seq);
        out.bytes(&self.payload);
    }
}

impl FromBytes for Envelope {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let protocol = ProtocolId::from_u8(r.u8()?)?;
        let session = r.u64()?;
        let seq = r.u32()?;
        let payload = r.bytes()?.to_vec();
        Ok(Envelope {
            protocol,
            session,
            seq,
            payload,
        })
    }
}

/// Encodes a message in its raw (unframed) form — the shape that lives
/// inside [`Envelope::payload`].
pub fn encode_payload<T: ToBytes + ?Sized>(msg: &T) -> Vec<u8> {
    let mut w = Writer::new();
    msg.write_into(&mut w);
    w.into_bytes()
}

/// Decodes a raw (unframed) message, rejecting trailing bytes.
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated, trailing, or out-of-domain
/// input.
pub fn decode_payload<T: FromBytes>(payload: &[u8]) -> Result<T, CodecError> {
    let mut r = Reader::new(payload);
    let value = T::read_from(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok(value)
}

fn read_array<const N: usize>(r: &mut Reader<'_>) -> Result<[u8; N], CodecError> {
    r.take(N)?
        .try_into()
        .map_err(|_| CodecError::Invalid("fixed-size field"))
}

// ---------------------------------------------------------------------------
// Message encodings
// ---------------------------------------------------------------------------

use crate::attestation::{AttestationReport, AttestationRequest};
use crate::eke::{EkeConfirm, EkeHello, EkeReply};
use crate::mutual_auth::{AuthRequest, DeviceAuth, VerifierConfirm};

impl ToBytes for AuthRequest {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.verifier_nonce);
    }
}

impl FromBytes for AuthRequest {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AuthRequest {
            verifier_nonce: read_array(r)?,
        })
    }
}

impl ToBytes for DeviceAuth {
    fn write_into(&self, out: &mut Writer) {
        out.bytes(&self.masked_response);
        out.raw(&self.memory_hash);
        out.u64(self.clock_count);
        out.raw(&self.device_nonce);
        out.raw(&self.mac);
    }
}

impl FromBytes for DeviceAuth {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DeviceAuth {
            masked_response: r.bytes()?.to_vec(),
            memory_hash: read_array(r)?,
            clock_count: r.u64()?,
            device_nonce: read_array(r)?,
            mac: read_array(r)?,
        })
    }
}

impl ToBytes for VerifierConfirm {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.mac);
    }
}

impl FromBytes for VerifierConfirm {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VerifierConfirm {
            mac: read_array(r)?,
        })
    }
}

impl ToBytes for AttestationRequest {
    fn write_into(&self, out: &mut Writer) {
        out.u64(self.timestamp_ns);
        self.challenge.write_into(out);
    }
}

impl FromBytes for AttestationRequest {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AttestationRequest {
            timestamp_ns: r.u64()?,
            challenge: FromBytes::read_from(r)?,
        })
    }
}

impl ToBytes for AttestationReport {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.final_hash);
        // f64 travels as its IEEE-754 bit pattern; every pattern is a
        // valid f64, so decoding cannot reject it.
        out.u64(self.elapsed_ns.to_bits());
    }
}

impl FromBytes for AttestationReport {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AttestationReport {
            final_hash: read_array(r)?,
            elapsed_ns: f64::from_bits(r.u64()?),
        })
    }
}

impl ToBytes for EkeHello {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.encrypted_public);
        out.raw(&self.nonce);
    }
}

impl FromBytes for EkeHello {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EkeHello {
            encrypted_public: read_array(r)?,
            nonce: read_array(r)?,
        })
    }
}

impl ToBytes for EkeReply {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.encrypted_public);
        out.raw(&self.nonce);
        out.raw(&self.confirm);
    }
}

impl FromBytes for EkeReply {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EkeReply {
            encrypted_public: read_array(r)?,
            nonce: read_array(r)?,
            confirm: read_array(r)?,
        })
    }
}

impl ToBytes for EkeConfirm {
    fn write_into(&self, out: &mut Writer) {
        out.raw(&self.confirm);
    }
}

impl FromBytes for EkeConfirm {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EkeConfirm {
            confirm: read_array(r)?,
        })
    }
}

/// Mutual-authentication messages as they appear in an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutualAuthMsg {
    /// Msg1 — verifier's challenge nonce.
    Request(AuthRequest),
    /// Msg2 — device's masked CRP update.
    Auth(DeviceAuth),
    /// Msg3 — verifier's proof of the fresh secret.
    Confirm(VerifierConfirm),
}

impl ToBytes for MutualAuthMsg {
    fn write_into(&self, out: &mut Writer) {
        match self {
            MutualAuthMsg::Request(m) => {
                out.u8(0);
                m.write_into(out);
            }
            MutualAuthMsg::Auth(m) => {
                out.u8(1);
                m.write_into(out);
            }
            MutualAuthMsg::Confirm(m) => {
                out.u8(2);
                m.write_into(out);
            }
        }
    }
}

impl FromBytes for MutualAuthMsg {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(MutualAuthMsg::Request(FromBytes::read_from(r)?)),
            1 => Ok(MutualAuthMsg::Auth(FromBytes::read_from(r)?)),
            2 => Ok(MutualAuthMsg::Confirm(FromBytes::read_from(r)?)),
            _ => Err(CodecError::Invalid("mutual-auth message tag")),
        }
    }
}

/// Attestation messages as they appear in an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum AttestationMsg {
    /// Verifier's timestamped walk challenge.
    Request(AttestationRequest),
    /// Device's hash-chain report.
    Report(AttestationReport),
}

impl ToBytes for AttestationMsg {
    fn write_into(&self, out: &mut Writer) {
        match self {
            AttestationMsg::Request(m) => {
                out.u8(0);
                m.write_into(out);
            }
            AttestationMsg::Report(m) => {
                out.u8(1);
                m.write_into(out);
            }
        }
    }
}

impl FromBytes for AttestationMsg {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(AttestationMsg::Request(FromBytes::read_from(r)?)),
            1 => Ok(AttestationMsg::Report(FromBytes::read_from(r)?)),
            _ => Err(CodecError::Invalid("attestation message tag")),
        }
    }
}

/// EKE messages as they appear in an envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EkeMsg {
    /// Initiator's masked ephemeral key.
    Hello(EkeHello),
    /// Responder's masked key plus key confirmation.
    Reply(EkeReply),
    /// Initiator's final key confirmation.
    Confirm(EkeConfirm),
}

impl ToBytes for EkeMsg {
    fn write_into(&self, out: &mut Writer) {
        match self {
            EkeMsg::Hello(m) => {
                out.u8(0);
                m.write_into(out);
            }
            EkeMsg::Reply(m) => {
                out.u8(1);
                m.write_into(out);
            }
            EkeMsg::Confirm(m) => {
                out.u8(2);
                m.write_into(out);
            }
        }
    }
}

impl FromBytes for EkeMsg {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(EkeMsg::Hello(FromBytes::read_from(r)?)),
            1 => Ok(EkeMsg::Reply(FromBytes::read_from(r)?)),
            2 => Ok(EkeMsg::Confirm(FromBytes::read_from(r)?)),
            _ => Err(CodecError::Invalid("eke message tag")),
        }
    }
}

/// Secure-NN messages (Table I over the wire): every body is already a
/// sealed blob, so the wire layer adds only the call discriminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecureNnMsg {
    /// `load_network(ciphered_network)`.
    Load(Vec<u8>),
    /// Accelerator acknowledges a successful load.
    LoadAck,
    /// `execute_network(ciphered_input)`.
    Execute(Vec<u8>),
    /// The ciphered output tensor.
    Output(Vec<u8>),
    /// The accelerator rejected the call (blob failed authentication or
    /// the engine refused it).
    Fault(String),
    /// One chunk of a batched `execute_network` request (tag 5,
    /// versioned — see [`NN_BATCH_VERSION`]).
    ExecuteChunk(NnChunk),
    /// Accelerator acknowledges request chunk `index` (tag 6). The ack
    /// for the final chunk is replaced by the first [`OutputChunk`].
    ChunkAck {
        /// Index of the request chunk being acknowledged.
        index: u32,
    },
    /// One chunk of the batched sealed outputs (tag 7).
    OutputChunk(NnChunk),
    /// Client acknowledges output chunk `index` (tag 8).
    OutputAck {
        /// Index of the output chunk being acknowledged.
        index: u32,
    },
}

/// Version byte prefixed to every batched-inference chunk. Bumping it
/// lets future encodings coexist with deployed accelerators: an
/// unknown version is a decode error, while the unversioned scalar
/// messages (tags 0–4) keep their original byte layout.
pub const NN_BATCH_VERSION: u8 = 1;

/// Soft budget in sealed-item bytes for one batched-inference chunk.
/// Chunks carry whole items only; a single oversized item still
/// travels alone, so this bounds frames without bounding items.
pub const NN_CHUNK_BUDGET: usize = 8192;

/// One chunk of a batched secure-NN exchange: chunk `index` of
/// `total`, carrying whole sealed items (inputs on the request path,
/// outputs on the response path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NnChunk {
    /// Zero-based chunk index.
    pub index: u32,
    /// Total chunks in this direction of the exchange.
    pub total: u32,
    /// Sealed items carried by this chunk.
    pub items: Vec<Vec<u8>>,
}

impl ToBytes for NnChunk {
    fn write_into(&self, out: &mut Writer) {
        out.u8(NN_BATCH_VERSION);
        out.u32(self.index);
        out.u32(self.total);
        out.u32(self.items.len() as u32);
        for item in &self.items {
            out.bytes(item);
        }
    }
}

impl FromBytes for NnChunk {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let version = r.u8()?;
        if version != NN_BATCH_VERSION {
            return Err(CodecError::Invalid("nn batch version"));
        }
        let index = r.u32()?;
        let total = r.u32()?;
        let count = r.u32()? as usize;
        let mut items = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            items.push(r.bytes()?.to_vec());
        }
        Ok(NnChunk {
            index,
            total,
            items,
        })
    }
}

/// Packs sealed items into chunks of at most [`NN_CHUNK_BUDGET`]
/// payload bytes each (whole items only, at least one item per chunk),
/// numbering them `0..total`.
pub fn chunk_nn_items(items: &[Vec<u8>]) -> Vec<NnChunk> {
    let mut groups: Vec<Vec<Vec<u8>>> = Vec::new();
    let mut current: Vec<Vec<u8>> = Vec::new();
    let mut current_bytes = 0usize;
    for item in items {
        if !current.is_empty() && current_bytes + item.len() > NN_CHUNK_BUDGET {
            groups.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current_bytes += item.len();
        current.push(item.clone());
    }
    if !current.is_empty() {
        groups.push(current);
    }
    let total = groups.len() as u32;
    groups
        .into_iter()
        .enumerate()
        .map(|(index, items)| NnChunk {
            index: index as u32,
            total,
            items,
        })
        .collect()
}

impl ToBytes for SecureNnMsg {
    fn write_into(&self, out: &mut Writer) {
        match self {
            SecureNnMsg::Load(blob) => {
                out.u8(0);
                out.bytes(blob);
            }
            SecureNnMsg::LoadAck => out.u8(1),
            SecureNnMsg::Execute(blob) => {
                out.u8(2);
                out.bytes(blob);
            }
            SecureNnMsg::Output(blob) => {
                out.u8(3);
                out.bytes(blob);
            }
            SecureNnMsg::Fault(what) => {
                out.u8(4);
                out.bytes(what.as_bytes());
            }
            SecureNnMsg::ExecuteChunk(chunk) => {
                out.u8(5);
                chunk.write_into(out);
            }
            SecureNnMsg::ChunkAck { index } => {
                out.u8(6);
                out.u32(*index);
            }
            SecureNnMsg::OutputChunk(chunk) => {
                out.u8(7);
                chunk.write_into(out);
            }
            SecureNnMsg::OutputAck { index } => {
                out.u8(8);
                out.u32(*index);
            }
        }
    }
}

impl FromBytes for SecureNnMsg {
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(SecureNnMsg::Load(r.bytes()?.to_vec())),
            1 => Ok(SecureNnMsg::LoadAck),
            2 => Ok(SecureNnMsg::Execute(r.bytes()?.to_vec())),
            3 => Ok(SecureNnMsg::Output(r.bytes()?.to_vec())),
            4 => Ok(SecureNnMsg::Fault(
                String::from_utf8(r.bytes()?.to_vec())
                    .map_err(|_| CodecError::Invalid("fault message utf-8"))?,
            )),
            5 => Ok(SecureNnMsg::ExecuteChunk(NnChunk::read_from(r)?)),
            6 => Ok(SecureNnMsg::ChunkAck { index: r.u32()? }),
            7 => Ok(SecureNnMsg::OutputChunk(NnChunk::read_from(r)?)),
            8 => Ok(SecureNnMsg::OutputAck { index: r.u32()? }),
            _ => Err(CodecError::Invalid("secure-nn message tag")),
        }
    }
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// What a session wants the driver to do after one step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionAction {
    /// Transmit this frame to the peer.
    Send(Vec<u8>),
    /// Nothing to transmit; keep polling.
    Wait,
    /// The session finished successfully on this side.
    Done,
}

/// Timeout and retry budget of one session side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Consecutive silent ticks before a retransmission.
    pub timeout_ticks: u32,
    /// Retransmissions of one message before the session fails.
    pub max_retries: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            timeout_ticks: 3,
            max_retries: 4,
        }
    }
}

/// When a session next needs a [`step`](Session::step) call, assuming
/// no frame arrives for it in the meantime.
///
/// This is the contract that lets an event-driven driver (the
/// wake-based gateway loop) skip the silent steps a dense tick loop
/// would have burned CPU on: a session reporting `In(n)` promises that
/// its next `n - 1` frameless steps are pure idle-clock bookkeeping
/// with no observable action, so the driver may replace them with one
/// O(1) [`skip_silence`](Session::skip_silence) call and step the
/// session only when the timer actually fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextWake {
    /// Step this session every tick. The conservative default for
    /// implementations that have not been audited for silent-step
    /// equivalence; an event-driven driver degrades to the dense
    /// schedule for such sessions.
    EveryTick,
    /// The `n`-th future frameless step performs an observable action
    /// (ARQ retransmission or timeout failure); the `n - 1` before it
    /// are guaranteed silent. `In(0)` means "runnable right now" —
    /// e.g. an initiator in its start state that transmits on the
    /// first poll.
    In(u32),
    /// Only an incoming frame can change this side's state: the side
    /// has finished its script (possibly lingering to re-answer peer
    /// retransmissions) and its timeout clock is stopped.
    OnFrame,
}

impl NextWake {
    /// Absolute deadline for a side first stepped at `tick` (admission
    /// into a driver, or a keep-alive slot arming a fresh epoch
    /// session). A dense loop steps a fresh side at the admission tick
    /// itself, so `In(n)` fires at `tick + n - 1`; `In(0)`/`In(1)` and
    /// `EveryTick` mean "runnable at `tick`". `None` = frame-driven
    /// only (the idle wake between attestation epochs — the timer
    /// clock is stopped until a frame or the slot's next epoch fire).
    pub fn admission_deadline(self, tick: u64) -> Option<u64> {
        match self {
            NextWake::EveryTick => Some(tick),
            NextWake::In(n) => Some(tick + u64::from(n.saturating_sub(1))),
            NextWake::OnFrame => None,
        }
    }

    /// Absolute deadline after a real step at `tick`: `In(n)` promises
    /// the next `n - 1` frameless steps are silent, so the next real
    /// step lands at `tick + n` (clamped forward — a session reporting
    /// `In(0)` after a step still cannot be stepped twice in one tick).
    pub fn rearm_deadline(self, tick: u64) -> Option<u64> {
        match self {
            NextWake::EveryTick => Some(tick + 1),
            NextWake::In(n) => Some(tick + u64::from(n.max(1))),
            NextWake::OnFrame => None,
        }
    }
}

/// A poll-style protocol endpoint.
///
/// The driver calls [`step`](Session::step) once per tick with at most
/// one incoming frame; the session answers with what to transmit. After
/// [`done`](Session::done) turns true the driver keeps delivering stray
/// frames (so a finished responder can re-serve a retransmitted
/// request) but no longer ticks the session's timeout.
///
/// Event-driven drivers additionally consult
/// [`next_wake`](Session::next_wake) to know when the next frameless
/// step is due and use [`skip_silence`](Session::skip_silence) to
/// fast-forward over steps that are provably unobservable; the defaults
/// (`EveryTick` / no-op) keep every existing implementation correct
/// under both driver styles.
pub trait Session {
    /// Advances the state machine by one tick.
    ///
    /// # Errors
    ///
    /// Returns the first unrecoverable protocol failure — retry budget
    /// exhausted ([`ProtocolError::Timeout`]) or a persistent
    /// protocol-level rejection.
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError>;

    /// Whether this side completed its script.
    fn done(&self) -> bool;

    /// Frames this side retransmitted (ARQ effort metric).
    fn retransmits(&self) -> u32;

    /// When this side next needs a frameless step. See [`NextWake`] for
    /// the exact contract. The default claims a wake on every tick,
    /// which is always safe.
    fn next_wake(&self) -> NextWake {
        NextWake::EveryTick
    }

    /// Credits `ticks` frameless steps in O(1). The driver may only
    /// call this with `ticks` strictly below the `n` most recently
    /// reported by [`next_wake`](Session::next_wake) (all provably
    /// silent), and must not call it at all after `OnFrame`. The
    /// default is a no-op, matching the `EveryTick` default above
    /// (under which the driver never skips).
    fn skip_silence(&mut self, ticks: u32) {
        let _ = ticks;
    }
}

impl<S: Session + ?Sized> Session for Box<S> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        (**self).step(incoming)
    }

    fn done(&self) -> bool {
        (**self).done()
    }

    fn retransmits(&self) -> u32 {
        (**self).retransmits()
    }

    fn next_wake(&self) -> NextWake {
        (**self).next_wake()
    }

    fn skip_silence(&mut self, ticks: u32) {
        (**self).skip_silence(ticks);
    }
}

/// Stop-and-wait ARQ bookkeeping shared by every wire session.
#[derive(Debug)]
pub(crate) struct Arq {
    cfg: SessionConfig,
    last_frame: Option<Vec<u8>>,
    idle_ticks: u32,
    retries_used: u32,
    retransmits: u32,
}

impl Arq {
    pub(crate) fn new(cfg: SessionConfig) -> Self {
        Arq {
            cfg,
            last_frame: None,
            idle_ticks: 0,
            retries_used: 0,
            retransmits: 0,
        }
    }

    /// Records a fresh outgoing frame; the retry budget restarts.
    pub(crate) fn sent(&mut self, frame: &[u8]) {
        self.last_frame = Some(frame.to_vec());
        self.idle_ticks = 0;
        self.retries_used = 0;
    }

    /// A valid, in-order frame arrived: the link is alive.
    pub(crate) fn activity(&mut self) {
        self.idle_ticks = 0;
    }

    fn bump(&mut self) -> Result<(), ProtocolError> {
        if self.retries_used >= self.cfg.max_retries {
            return Err(ProtocolError::Timeout {
                retries: self.retries_used,
            });
        }
        self.retries_used += 1;
        if self.last_frame.is_some() {
            self.retransmits += 1;
        }
        Ok(())
    }

    /// One tick of silence (or undecodable noise). Returns the frame to
    /// retransmit when the timeout fires.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] once the retry budget is exhausted.
    pub(crate) fn idle(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        self.idle_ticks += 1;
        if self.idle_ticks < self.cfg.timeout_ticks {
            return Ok(None);
        }
        self.idle_ticks = 0;
        self.bump()?;
        Ok(self.last_frame.clone())
    }

    /// A parse-valid frame was rejected at the protocol layer: burn a
    /// retry and retransmit to re-elicit a clean copy from the peer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Timeout`] once the retry budget is exhausted.
    pub(crate) fn reject(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        self.idle_ticks = 0;
        self.bump()?;
        Ok(self.last_frame.clone())
    }

    /// The peer re-sent an already-processed message (it missed our
    /// reply): hand back our last frame verbatim.
    pub(crate) fn duplicate(&mut self) -> Option<Vec<u8>> {
        self.idle_ticks = 0;
        if self.last_frame.is_some() {
            self.retransmits += 1;
        }
        self.last_frame.clone()
    }

    pub(crate) fn retransmits(&self) -> u32 {
        self.retransmits
    }

    /// Frameless [`idle`](Arq::idle) calls until the retransmit timer
    /// next fires (always ≥ 1). This is the `n` a waiting session
    /// reports as [`NextWake::In`].
    pub(crate) fn ticks_to_fire(&self) -> u32 {
        self.cfg
            .timeout_ticks
            .saturating_sub(self.idle_ticks)
            .max(1)
    }

    /// Credits `ticks` frameless steps at once: exactly equivalent to
    /// `ticks` consecutive [`idle`](Arq::idle) calls that are known not
    /// to fire (the caller keeps `ticks < ticks_to_fire()`).
    pub(crate) fn skip(&mut self, ticks: u32) {
        debug_assert!(ticks < self.ticks_to_fire());
        self.idle_ticks += ticks;
    }
}

/// Turns an optional retransmission into a [`SessionAction`].
pub(crate) fn resend_or_wait(frame: Option<Vec<u8>>) -> SessionAction {
    match frame {
        Some(f) => SessionAction::Send(f),
        None => SessionAction::Wait,
    }
}

/// How one incoming frame relates to a session's script position.
pub(crate) enum Incoming<M> {
    /// Nothing usable arrived: silence, an undecodable frame, or a frame
    /// for a different protocol/session. Ticks the timeout clock.
    Noise,
    /// A frame from earlier in the script — the peer missed our reply
    /// and retransmitted. Answer with our own last frame.
    Duplicate,
    /// The message expected at this script position, with the session id
    /// its envelope carried.
    Msg(u64, M),
}

/// Serial-number ordering on sequence numbers (RFC 1982 with
/// `SERIAL_BITS = 32`): `a` precedes `b` when the wrapping distance
/// from `a` forward to `b` is shorter than half the sequence space.
///
/// The raw `<` comparison this replaces broke at the wrap boundary: a
/// long-lived gateway session whose script position rolled past
/// `u32::MAX` would see the peer's retransmission of the *previous*
/// message (`seq = u32::MAX`, expected `0`) as "future junk" instead of
/// a duplicate, so the duplicate-answering path — which is what carries
/// lossy links through Msg3 delivery — went dead exactly once every
/// 2³² messages. Equal values are neither before nor after each other.
pub fn seq_before(a: u32, b: u32) -> bool {
    a != b && b.wrapping_sub(a) < 1 << 31
}

/// Classifies `incoming` against the script position `expected_seq`.
/// `session` filters on the session id (`None` = not yet latched, accept
/// any). Sequence positions compare in serial-number arithmetic
/// ([`seq_before`]), so the classification survives `u32` wraparound.
/// Frames from the future of the script are treated as noise: an honest
/// peer cannot produce them, so they can only be junk.
pub(crate) fn classify<M: FromBytes>(
    incoming: Option<&[u8]>,
    protocol: ProtocolId,
    session: Option<u64>,
    expected_seq: u32,
) -> Incoming<M> {
    let Some(frame) = incoming else {
        return Incoming::Noise;
    };
    let Ok(env) = Envelope::from_bytes(frame) else {
        return Incoming::Noise;
    };
    if env.protocol != protocol || session.is_some_and(|s| s != env.session) {
        return Incoming::Noise;
    }
    if seq_before(env.seq, expected_seq) {
        return Incoming::Duplicate;
    }
    if env.seq != expected_seq {
        return Incoming::Noise;
    }
    match env.open::<M>() {
        Ok(msg) => Incoming::Msg(env.session, msg),
        Err(_) => Incoming::Noise,
    }
}

/// Outcome of driving one wire session to completion (or failure).
#[derive(Debug)]
pub struct SessionReport {
    /// Ticks to completion, or the failure that ended the session.
    pub result: Result<u32, ProtocolError>,
    /// Frames retransmitted across both sides (ARQ effort).
    pub retransmits: u32,
}

impl SessionReport {
    /// Whether the session completed.
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// [`drive`] plus retransmission accounting from both endpoints. Pass
/// [`Tracer::disabled`] when no instrumentation is wanted.
pub fn drive_report<T: Transport>(
    channel: &mut T,
    a: &mut dyn Session,
    b: &mut dyn Session,
    max_ticks: u32,
    tracer: &mut Tracer,
) -> SessionReport {
    let result = drive(channel, a, b, max_ticks, tracer);
    SessionReport {
        result,
        retransmits: a.retransmits() + b.retransmits(),
    }
}

/// Default tick budget for [`drive`]-based helpers: generous enough for
/// a full retry budget on every message of the longest script.
pub const DEFAULT_MAX_TICKS: u32 = 256;

fn side_label(side: Side) -> &'static str {
    match side {
        Side::A => "A",
        Side::B => "B",
    }
}

/// Fields describing one raw frame: side, wire length, and — when the
/// frame decodes as an [`Envelope`] — its sequence number and payload
/// length (bytes on the wire per envelope).
fn frame_fields(side: Side, frame: &[u8]) -> Vec<(&'static str, Value)> {
    let mut fields = vec![
        ("side", Value::from(side_label(side))),
        ("len", Value::from(frame.len())),
    ];
    if let Ok(env) = Envelope::from_bytes(frame) {
        fields.push(("seq", Value::from(env.seq)));
        fields.push(("payload_len", Value::from(env.payload.len())));
    }
    fields
}

/// Drives two sessions against each other over `channel` until both
/// complete. Each tick delivers at most one queued frame to each side
/// and steps it. Returns the tick count on success.
///
/// Wire activity is recorded into `tracer` (pass [`Tracer::disabled`]
/// for an untraced run at zero cost): one `session.side` span per
/// endpoint (closed when that side completes, carrying its retransmit
/// count), `frame.recv`/`frame.send` instants with per-envelope byte
/// counts, `arq.retransmit` instants, and a final `session.result`
/// instant. Timestamps are driver ticks, so the trace is deterministic
/// for a deterministic channel.
///
/// # Errors
///
/// Propagates the first session failure; returns
/// [`ProtocolError::Timeout`] if `max_ticks` elapse first. The trace is
/// complete (all spans closed) on every path.
pub fn drive<T: Transport>(
    channel: &mut T,
    a: &mut dyn Session,
    b: &mut dyn Session,
    max_ticks: u32,
    tracer: &mut Tracer,
) -> Result<u32, ProtocolError> {
    fn tick_side<T: Transport>(
        channel: &mut T,
        side: Side,
        sess: &mut dyn Session,
        tick: u64,
        tracer: &mut Tracer,
    ) -> Result<(), ProtocolError> {
        let frame = channel.recv(side);
        if tracer.is_enabled() {
            if let Some(f) = frame.as_deref() {
                tracer.instant(tick, "frame.recv", frame_fields(side, f));
            }
        }
        if frame.is_none() && sess.done() {
            return Ok(());
        }
        let before = sess.retransmits();
        let action = sess.step(frame.as_deref())?;
        if tracer.is_enabled() && sess.retransmits() > before {
            tracer.instant(
                tick,
                "arq.retransmit",
                vec![
                    ("side", Value::from(side_label(side))),
                    ("count", Value::from(sess.retransmits() - before)),
                ],
            );
        }
        match action {
            SessionAction::Send(f) => {
                if tracer.is_enabled() {
                    tracer.instant(tick, "frame.send", frame_fields(side, &f));
                }
                channel.send(side, f);
            }
            SessionAction::Wait | SessionAction::Done => {}
        }
        Ok(())
    }

    let mut span_a = Some(tracer.span_start(0, "session.side", vec![("side", Value::from("A"))]));
    let mut span_b = Some(tracer.span_start(0, "session.side", vec![("side", Value::from("B"))]));

    let mut outcome = Err(ProtocolError::Timeout { retries: 0 });
    let mut last_tick = 0u64;
    for tick in 0..max_ticks {
        last_tick = u64::from(tick);
        if let Err(e) = tick_side(channel, Side::A, a, last_tick, tracer) {
            outcome = Err(e);
            break;
        }
        if a.done() {
            if let Some(span) = span_a.take() {
                tracer.span_end(
                    last_tick,
                    span,
                    vec![("retransmits", Value::from(a.retransmits()))],
                );
            }
        }
        if let Err(e) = tick_side(channel, Side::B, b, last_tick, tracer) {
            outcome = Err(e);
            break;
        }
        if b.done() {
            if let Some(span) = span_b.take() {
                tracer.span_end(
                    last_tick,
                    span,
                    vec![("retransmits", Value::from(b.retransmits()))],
                );
            }
        }
        if a.done() && b.done() {
            outcome = Ok(tick + 1);
            break;
        }
    }

    if let Some(span) = span_a.take() {
        tracer.span_end(
            last_tick,
            span,
            vec![("retransmits", Value::from(a.retransmits()))],
        );
    }
    if let Some(span) = span_b.take() {
        tracer.span_end(
            last_tick,
            span,
            vec![("retransmits", Value::from(b.retransmits()))],
        );
    }
    tracer.instant(
        last_tick,
        "session.result",
        vec![
            ("ok", Value::from(outcome.is_ok())),
            ("ticks", Value::from(*outcome.as_ref().unwrap_or(&0))),
            (
                "retransmits",
                Value::from(a.retransmits() + b.retransmits()),
            ),
        ],
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_puf::bits::Challenge;

    fn roundtrip_envelope(env: &Envelope) {
        let bytes = env.to_bytes();
        assert_eq!(&Envelope::from_bytes(&bytes).unwrap(), env);
        // Truncation at every boundary must error, never panic.
        for cut in 0..bytes.len() {
            assert!(Envelope::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn envelope_roundtrip_and_truncation() {
        roundtrip_envelope(&Envelope {
            protocol: ProtocolId::MutualAuth,
            session: 0xDEAD_BEEF,
            seq: 7,
            payload: vec![1, 2, 3, 4, 5],
        });
        roundtrip_envelope(&Envelope {
            protocol: ProtocolId::SecureNn,
            session: 0,
            seq: 0,
            payload: Vec::new(),
        });
    }

    #[test]
    fn unknown_protocol_id_rejected() {
        let env = Envelope {
            protocol: ProtocolId::Eke,
            session: 1,
            seq: 1,
            payload: vec![9],
        };
        let mut bytes = env.to_bytes();
        bytes[6] = 0xAA; // protocol id byte (after 4-byte magic + u16 version)
        assert!(matches!(
            Envelope::from_bytes(&bytes),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn payload_trailing_bytes_rejected() {
        let msg = MutualAuthMsg::Confirm(VerifierConfirm { mac: [7; 32] });
        let mut payload = encode_payload(&msg);
        payload.push(0);
        assert!(matches!(
            decode_payload::<MutualAuthMsg>(&payload),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn mutual_auth_messages_roundtrip() {
        let msgs = vec![
            MutualAuthMsg::Request(AuthRequest {
                verifier_nonce: [3; 16],
            }),
            MutualAuthMsg::Auth(DeviceAuth {
                masked_response: vec![1, 2, 3, 4, 5, 6, 7],
                memory_hash: [9; 32],
                clock_count: 1234,
                device_nonce: [4; 16],
                mac: [5; 32],
            }),
            MutualAuthMsg::Confirm(VerifierConfirm { mac: [6; 32] }),
        ];
        for msg in msgs {
            let payload = encode_payload(&msg);
            assert_eq!(decode_payload::<MutualAuthMsg>(&payload).unwrap(), msg);
            for cut in 0..payload.len() {
                assert!(decode_payload::<MutualAuthMsg>(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn attestation_messages_roundtrip() {
        let msgs = vec![
            AttestationMsg::Request(AttestationRequest {
                timestamp_ns: 55,
                challenge: Challenge::from_u64(0xF0F0, 64),
            }),
            AttestationMsg::Report(AttestationReport {
                final_hash: [0xAB; 32],
                elapsed_ns: 1234.5,
            }),
        ];
        for msg in msgs {
            let payload = encode_payload(&msg);
            assert_eq!(decode_payload::<AttestationMsg>(&payload).unwrap(), msg);
            for cut in 0..payload.len() {
                assert!(decode_payload::<AttestationMsg>(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn eke_messages_roundtrip() {
        let msgs = vec![
            EkeMsg::Hello(EkeHello {
                encrypted_public: [1; 32],
                nonce: [2; 16],
            }),
            EkeMsg::Reply(EkeReply {
                encrypted_public: [3; 32],
                nonce: [4; 16],
                confirm: [5; 32],
            }),
            EkeMsg::Confirm(EkeConfirm { confirm: [6; 32] }),
        ];
        for msg in msgs {
            let payload = encode_payload(&msg);
            assert_eq!(decode_payload::<EkeMsg>(&payload).unwrap(), msg);
            for cut in 0..payload.len() {
                assert!(decode_payload::<EkeMsg>(&payload[..cut]).is_err());
            }
        }
    }

    #[test]
    fn secure_nn_messages_roundtrip() {
        let msgs = vec![
            SecureNnMsg::Load(vec![1, 2, 3]),
            SecureNnMsg::LoadAck,
            SecureNnMsg::Execute(vec![4; 60]),
            SecureNnMsg::Output(Vec::new()),
            SecureNnMsg::Fault("engine refused".into()),
            SecureNnMsg::ExecuteChunk(NnChunk {
                index: 0,
                total: 2,
                items: vec![vec![9; 40], vec![8; 17]],
            }),
            SecureNnMsg::ChunkAck { index: 0 },
            SecureNnMsg::OutputChunk(NnChunk {
                index: 1,
                total: 2,
                items: vec![Vec::new()],
            }),
            SecureNnMsg::OutputAck { index: 1 },
        ];
        for msg in msgs {
            let payload = encode_payload(&msg);
            assert_eq!(decode_payload::<SecureNnMsg>(&payload).unwrap(), msg);
            for cut in 0..payload.len() {
                assert!(decode_payload::<SecureNnMsg>(&payload[..cut]).is_err());
            }
        }
    }

    /// The scalar tags 0–4 predate batching; their byte layout is what
    /// deployed peers speak and must never move.
    #[test]
    fn secure_nn_scalar_encoding_is_pinned() {
        // Lengths are little-endian u64 on the wire.
        assert_eq!(
            encode_payload(&SecureNnMsg::Load(vec![0xAA, 0xBB])),
            vec![0, 2, 0, 0, 0, 0, 0, 0, 0, 0xAA, 0xBB]
        );
        assert_eq!(encode_payload(&SecureNnMsg::LoadAck), vec![1]);
        assert_eq!(
            encode_payload(&SecureNnMsg::Execute(vec![0xCC])),
            vec![2, 1, 0, 0, 0, 0, 0, 0, 0, 0xCC]
        );
        assert_eq!(
            encode_payload(&SecureNnMsg::Output(vec![0xDD])),
            vec![3, 1, 0, 0, 0, 0, 0, 0, 0, 0xDD]
        );
        assert_eq!(
            encode_payload(&SecureNnMsg::Fault("x".into())),
            vec![4, 1, 0, 0, 0, 0, 0, 0, 0, b'x']
        );
    }

    #[test]
    fn nn_chunk_rejects_unknown_version() {
        let chunk = NnChunk {
            index: 0,
            total: 1,
            items: vec![vec![1, 2]],
        };
        let mut payload = encode_payload(&SecureNnMsg::ExecuteChunk(chunk));
        // Byte 0 is the message tag, byte 1 the chunk version.
        payload[1] = NN_BATCH_VERSION + 1;
        assert!(matches!(
            decode_payload::<SecureNnMsg>(&payload),
            Err(CodecError::Invalid("nn batch version"))
        ));
    }

    #[test]
    fn chunker_respects_budget_and_order() {
        // 5 items of 3000 bytes: budget 8192 fits two per chunk.
        let items: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 3000]).collect();
        let chunks = chunk_nn_items(&items);
        assert_eq!(chunks.len(), 3);
        for (i, chunk) in chunks.iter().enumerate() {
            assert_eq!(chunk.index, i as u32);
            assert_eq!(chunk.total, 3);
            let bytes: usize = chunk.items.iter().map(Vec::len).sum();
            assert!(bytes <= NN_CHUNK_BUDGET, "chunk {i} over budget: {bytes}");
        }
        let reassembled: Vec<Vec<u8>> = chunks.into_iter().flat_map(|c| c.items).collect();
        assert_eq!(reassembled, items);
        // An oversized single item still travels (alone).
        let big = vec![vec![7u8; NN_CHUNK_BUDGET * 2]];
        let chunks = chunk_nn_items(&big);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].items, big);
        assert!(chunk_nn_items(&[]).is_empty());
    }

    #[test]
    fn bad_message_tags_rejected() {
        assert!(decode_payload::<MutualAuthMsg>(&[9]).is_err());
        assert!(decode_payload::<AttestationMsg>(&[9]).is_err());
        assert!(decode_payload::<EkeMsg>(&[9]).is_err());
        assert!(decode_payload::<SecureNnMsg>(&[9]).is_err());
    }

    #[test]
    fn seq_before_is_a_strict_serial_order() {
        assert!(seq_before(0, 1));
        assert!(!seq_before(1, 0));
        assert!(!seq_before(5, 5));
        // The wrap boundary: u32::MAX precedes 0 by distance 1.
        assert!(seq_before(u32::MAX, 0));
        assert!(!seq_before(0, u32::MAX));
        assert!(seq_before(u32::MAX - 3, 2));
        // Half the space away in either direction stays ordered.
        assert!(seq_before(0, (1 << 31) - 1));
        assert!(!seq_before(0, 1 << 31));
    }

    /// Regression: with raw `<` comparison, a session whose script
    /// position wrapped past `u32::MAX` classified the peer's
    /// retransmission of the previous message as Noise (a "future"
    /// frame), so the duplicate-answering recovery path went dead at
    /// the boundary.
    #[test]
    fn classify_survives_seq_wraparound() {
        let msg = MutualAuthMsg::Confirm(VerifierConfirm { mac: [7; 32] });
        let frame_at = |seq: u32| Envelope::pack(ProtocolId::MutualAuth, 9, seq, &msg).to_bytes();

        // Expecting seq 0 just after rollover: the previous message
        // (seq u32::MAX) is a duplicate, not noise.
        let prev = frame_at(u32::MAX);
        assert!(matches!(
            classify::<MutualAuthMsg>(Some(&prev), ProtocolId::MutualAuth, Some(9), 0),
            Incoming::Duplicate
        ));

        // Expecting the last pre-wrap position: the first post-wrap
        // message (seq 0) is from the future, hence noise.
        let next = frame_at(0);
        assert!(matches!(
            classify::<MutualAuthMsg>(Some(&next), ProtocolId::MutualAuth, Some(9), u32::MAX),
            Incoming::Noise
        ));

        // The expected position itself still decodes at the boundary.
        assert!(matches!(
            classify::<MutualAuthMsg>(Some(&prev), ProtocolId::MutualAuth, Some(9), u32::MAX),
            Incoming::Msg(9, MutualAuthMsg::Confirm(_))
        ));

        // Far away from the expected position in either direction
        // stays rejected exactly as before the fix.
        let stale = frame_at(100);
        assert!(matches!(
            classify::<MutualAuthMsg>(Some(&stale), ProtocolId::MutualAuth, Some(9), 103),
            Incoming::Duplicate
        ));
        assert!(matches!(
            classify::<MutualAuthMsg>(Some(&stale), ProtocolId::MutualAuth, Some(9), 90),
            Incoming::Noise
        ));
    }

    #[test]
    fn arq_retransmits_after_timeout_then_gives_up() {
        let mut arq = Arq::new(SessionConfig {
            timeout_ticks: 2,
            max_retries: 2,
        });
        arq.sent(&[1, 2, 3]);
        assert_eq!(arq.idle().unwrap(), None); // tick 1: below timeout
        assert_eq!(arq.idle().unwrap(), Some(vec![1, 2, 3])); // retry 1
        assert_eq!(arq.idle().unwrap(), None);
        assert_eq!(arq.idle().unwrap(), Some(vec![1, 2, 3])); // retry 2
        assert_eq!(arq.idle().unwrap(), None);
        assert!(matches!(
            arq.idle(),
            Err(ProtocolError::Timeout { retries: 2 })
        ));
        assert_eq!(arq.retransmits(), 2);
    }

    #[test]
    fn arq_activity_resets_the_clock() {
        let mut arq = Arq::new(SessionConfig {
            timeout_ticks: 2,
            max_retries: 1,
        });
        arq.sent(&[7]);
        assert_eq!(arq.idle().unwrap(), None);
        arq.activity();
        assert_eq!(arq.idle().unwrap(), None); // clock restarted
        assert_eq!(arq.idle().unwrap(), Some(vec![7]));
    }

    #[test]
    fn arq_fresh_send_restarts_retry_budget() {
        let mut arq = Arq::new(SessionConfig {
            timeout_ticks: 1,
            max_retries: 1,
        });
        arq.sent(&[1]);
        assert_eq!(arq.idle().unwrap(), Some(vec![1]));
        arq.sent(&[2]);
        assert_eq!(arq.idle().unwrap(), Some(vec![2]));
        assert!(arq.idle().is_err());
    }
}
