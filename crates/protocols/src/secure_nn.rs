//! Secure neural-network configuration and data encryption — Table I of
//! the paper (§III-C).
//!
//! Two hardware functions are exposed to software:
//!
//! | function          | parameters         | results           |
//! |-------------------|--------------------|-------------------|
//! | `load_network`    | `ciphered_network` |                   |
//! | `execute_network` | `ciphered_input`   | `ciphered_output` |
//!
//! "Data are never exposed in plaintext to the software": decryption
//! happens inside [`SecureAccelerator`] (the hardware boundary), plaintext
//! lives only in its private fields for the duration of the call, and
//! every value crossing the API is a ciphertext. The device key comes
//! from the weak PUF (see [`crate::keys`]) and is likewise never visible
//! to software.
//!
//! Wire format of every encrypted blob (encrypt-then-MAC):
//! `nonce (12 B) ‖ ciphertext ‖ HMAC-SHA-256 tag (32 B)`, with the MAC
//! keyed by a key derived from the device key and a direction label.

use crate::error::ProtocolError;
use neuropuls_accel::config::NetworkConfig;
use neuropuls_accel::engine::{EngineStats, PhotonicEngine};
use neuropuls_crypto::chacha20::{ChaCha20, NONCE_LEN};
use neuropuls_crypto::hkdf;
use neuropuls_crypto::hmac::{HmacSha256, TAG_LEN};
use neuropuls_crypto::prng::CsPrng;
use neuropuls_rt::RngCore;

fn subkeys(device_key: &[u8; 32], label: &[u8]) -> ([u8; 32], [u8; 32]) {
    let mut enc = [0u8; 32];
    let mut mac = [0u8; 32];
    // invariant: hkdf::derive only errors past 255 output blocks; a
    // 32-byte request is one block.
    hkdf::derive(
        b"neuropuls/secure-nn",
        device_key,
        &[label, b"/enc"].concat(),
        &mut enc,
    )
    .expect("32-byte HKDF output is valid");
    // invariant: same single-block 32-byte request as above.
    hkdf::derive(
        b"neuropuls/secure-nn",
        device_key,
        &[label, b"/mac"].concat(),
        &mut mac,
    )
    .expect("32-byte HKDF output is valid");
    (enc, mac)
}

/// Seals `plaintext` under `device_key` with a direction `label`.
fn seal(device_key: &[u8; 32], label: &[u8], plaintext: &[u8], rng: &mut CsPrng) -> Vec<u8> {
    let (enc_key, mac_key) = subkeys(device_key, label);
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);
    let mut body = plaintext.to_vec();
    ChaCha20::new(&enc_key, &nonce).apply(&mut body);
    let mut out = Vec::with_capacity(NONCE_LEN + body.len() + TAG_LEN);
    out.extend_from_slice(&nonce);
    out.extend_from_slice(&body);
    let tag = HmacSha256::mac(&mac_key, &out);
    out.extend_from_slice(&tag);
    out
}

/// Opens a sealed blob.
fn open(device_key: &[u8; 32], label: &[u8], blob: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if blob.len() < NONCE_LEN + TAG_LEN {
        return Err(ProtocolError::MalformedCiphertext(format!(
            "blob of {} bytes is shorter than nonce+tag",
            blob.len()
        )));
    }
    let (enc_key, mac_key) = subkeys(device_key, label);
    let (body, tag) = blob.split_at(blob.len() - TAG_LEN);
    HmacSha256::verify(&mac_key, body, tag)
        .map_err(|_| ProtocolError::AuthenticationFailed("ciphertext tag invalid".into()))?;
    // invariant: the length guard above rejected blobs shorter than
    // NONCE_LEN + TAG_LEN, so this slice is exactly NONCE_LEN bytes.
    let nonce: [u8; NONCE_LEN] = body[..NONCE_LEN].try_into().expect("length checked");
    let mut plaintext = body[NONCE_LEN..].to_vec();
    ChaCha20::new(&enc_key, &nonce).apply(&mut plaintext);
    Ok(plaintext)
}

fn encode_values(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + values.len() * 4);
    out.extend_from_slice(&(values.len() as u32).to_le_bytes());
    for &v in values {
        out.extend_from_slice(&(v as f32).to_le_bytes());
    }
    out
}

fn decode_values(bytes: &[u8]) -> Result<Vec<f64>, ProtocolError> {
    if bytes.len() < 4 {
        return Err(ProtocolError::MalformedCiphertext(
            "tensor header missing".into(),
        ));
    }
    let count = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    if bytes.len() != 4 + count * 4 {
        return Err(ProtocolError::MalformedCiphertext(format!(
            "tensor of {count} values does not match {} payload bytes",
            bytes.len() - 4
        )));
    }
    Ok(bytes[4..]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64)
        .collect())
}

const LABEL_NETWORK: &[u8] = b"network";
const LABEL_INPUT: &[u8] = b"input";
const LABEL_OUTPUT: &[u8] = b"output";

/// The external party (NN owner) that prepares ciphered payloads and
/// reads ciphered outputs. Shares the device key through the enrollment
/// channel.
#[derive(Debug)]
pub struct NetworkOwner {
    key: [u8; 32],
    rng: CsPrng,
}

impl NetworkOwner {
    /// Creates the owner-side endpoint.
    pub fn new(device_key: [u8; 32], rng_seed: &[u8]) -> Self {
        NetworkOwner {
            key: device_key,
            rng: CsPrng::from_seed_bytes(rng_seed),
        }
    }

    /// Encrypts a network configuration for `load_network`.
    pub fn cipher_network(&mut self, config: &NetworkConfig) -> Vec<u8> {
        seal(&self.key, LABEL_NETWORK, &config.to_bytes(), &mut self.rng)
    }

    /// Encrypts an input tensor for `execute_network`.
    pub fn cipher_input(&mut self, input: &[f64]) -> Vec<u8> {
        seal(&self.key, LABEL_INPUT, &encode_values(input), &mut self.rng)
    }

    /// Decrypts a ciphered output.
    ///
    /// # Errors
    ///
    /// Fails on tampered or malformed blobs.
    pub fn decipher_output(&self, ciphered: &[u8]) -> Result<Vec<f64>, ProtocolError> {
        decode_values(&open(&self.key, LABEL_OUTPUT, ciphered)?)
    }

    /// Encrypts a batch of input tensors for `execute_network_batch`.
    pub fn cipher_inputs(&mut self, inputs: &[Vec<f64>]) -> Vec<Vec<u8>> {
        inputs
            .iter()
            .map(|input| self.cipher_input(input))
            .collect()
    }

    /// Decrypts a batch of ciphered outputs.
    ///
    /// # Errors
    ///
    /// Fails on the first tampered or malformed blob.
    pub fn decipher_outputs(&self, ciphered: &[Vec<u8>]) -> Result<Vec<Vec<f64>>, ProtocolError> {
        ciphered
            .iter()
            .map(|blob| self.decipher_output(blob))
            .collect()
    }
}

/// The hardware boundary: accelerator plus the PUF-derived key. The two
/// public methods are exactly Table I.
#[derive(Debug)]
pub struct SecureAccelerator {
    engine: PhotonicEngine,
    key: [u8; 32],
    rng: CsPrng,
}

impl SecureAccelerator {
    /// Builds the secure accelerator around an engine and the device key
    /// reproduced from the weak PUF.
    pub fn new(engine: PhotonicEngine, device_key: [u8; 32]) -> Self {
        let rng = CsPrng::from_seed_bytes(&device_key);
        SecureAccelerator {
            engine,
            key: device_key,
            rng,
        }
    }

    /// `load_network(ciphered_network)` — decrypts in hardware and
    /// programs the accelerator. No plaintext result is returned.
    ///
    /// # Errors
    ///
    /// Authentication/parse failures, or engine load errors.
    pub fn load_network(&mut self, ciphered_network: &[u8]) -> Result<(), ProtocolError> {
        let plaintext = open(&self.key, LABEL_NETWORK, ciphered_network)?;
        let config = NetworkConfig::from_bytes(&plaintext)
            .map_err(|e| ProtocolError::MalformedCiphertext(e.to_string()))?;
        self.engine
            .load(config)
            .map_err(|e| ProtocolError::MalformedCiphertext(e.to_string()))
        // `plaintext` drops here: the decrypted configuration never
        // leaves the hardware boundary.
    }

    /// `execute_network(ciphered_input) -> ciphered_output` — decrypts
    /// the input, runs inference, re-encrypts the result.
    ///
    /// # Errors
    ///
    /// Authentication/parse failures, or engine inference errors.
    pub fn execute_network(&mut self, ciphered_input: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let plaintext = open(&self.key, LABEL_INPUT, ciphered_input)?;
        let input = decode_values(&plaintext)?;
        let output = self
            .engine
            .infer(&input)
            .map_err(|e| ProtocolError::MalformedCiphertext(e.to_string()))?;
        Ok(seal(
            &self.key,
            LABEL_OUTPUT,
            &encode_values(&output),
            &mut self.rng,
        ))
    }

    /// Batched `execute_network`: decrypts every input, runs one
    /// [`PhotonicEngine::infer_batch`] call, re-encrypts every output.
    ///
    /// All blobs are authenticated and decoded *before* any inference
    /// runs, so a tampered item rejects the whole batch without
    /// consuming a noise epoch (a faulted-and-retried batch replays the
    /// same analog noise).
    ///
    /// # Errors
    ///
    /// The first authentication/parse failure, or the engine error.
    pub fn execute_network_batch(
        &mut self,
        ciphered_inputs: &[Vec<u8>],
    ) -> Result<Vec<Vec<u8>>, ProtocolError> {
        let mut inputs = Vec::with_capacity(ciphered_inputs.len());
        for blob in ciphered_inputs {
            let plaintext = open(&self.key, LABEL_INPUT, blob)?;
            inputs.push(decode_values(&plaintext)?);
        }
        let outputs = self
            .engine
            .infer_batch(&inputs)
            .map_err(|e| ProtocolError::MalformedCiphertext(e.to_string()))?;
        Ok(outputs
            .iter()
            .map(|o| seal(&self.key, LABEL_OUTPUT, &encode_values(o), &mut self.rng))
            .collect())
    }

    /// Engine statistics (performance accounting; not confidential).
    pub fn stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Whether a network is loaded.
    pub fn is_loaded(&self) -> bool {
        self.engine.is_loaded()
    }
}

// ---------------------------------------------------------------------------
// Wire sessions
// ---------------------------------------------------------------------------

use crate::transport::Transport;
use crate::wire::{
    chunk_nn_items, classify, drive_report, resend_or_wait, Arq, Envelope, Incoming, NextWake,
    NnChunk, ProtocolId, SecureNnMsg, Session, SessionAction, SessionConfig, SessionReport,
    DEFAULT_MAX_TICKS,
};
use neuropuls_rt::codec::ToBytes;
use neuropuls_rt::trace::Registry;
use std::cell::RefCell;
use std::rc::Rc;

/// A [`SecureAccelerator`] shared by several concurrently multiplexed
/// wire sessions. The gateway drives every session from one
/// single-threaded poll loop, so interior mutability is all that is
/// needed; batches from different sessions serialize at the hardware
/// boundary exactly like calls into a real accelerator would.
pub type SharedAccelerator = Rc<RefCell<SecureAccelerator>>;

/// Wraps `accel` for sharing across sessions.
pub fn share_accelerator(accel: SecureAccelerator) -> SharedAccelerator {
    Rc::new(RefCell::new(accel))
}

/// Chunks `items`, always producing at least one (possibly empty)
/// chunk so the wire exchange stays well-formed for empty batches.
fn chunks_or_empty(items: &[Vec<u8>]) -> Vec<NnChunk> {
    let chunks = chunk_nn_items(items);
    if chunks.is_empty() {
        vec![NnChunk {
            index: 0,
            total: 1,
            items: Vec::new(),
        }]
    } else {
        chunks
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NnBatchClientState {
    Start,
    AwaitLoadAck,
    AwaitChunkAck,
    AwaitOutput,
    Done,
}

/// The software side of Table I as a wire session: optionally ships the
/// ciphered network, streams the sealed inputs as versioned chunks
/// (stop-and-wait, one chunk per ack), then drains the sealed output
/// chunks. A single inference is a batch of one. Frames alternate
/// strictly — client frames carry even sequence numbers, accelerator
/// frames odd ones — so the shared stop-and-wait ARQ and its
/// duplicate recovery apply as in every other wire session. Blobs are
/// prepared and deciphered by the [`NetworkOwner`] outside the session:
/// the wire layer only ever sees ciphertext.
pub struct WireNnBatchClient {
    session: u64,
    arq: Arq,
    state: NnBatchClientState,
    network_blob: Option<Vec<u8>>,
    request_chunks: Vec<NnChunk>,
    next_request: usize,
    received_output: usize,
    output_items: Vec<Vec<u8>>,
    seq: u32,
    last_reject: Option<ProtocolError>,
}

impl WireNnBatchClient {
    /// A session that loads `network_blob` before executing the batch.
    pub fn with_load(
        session: u64,
        network_blob: Vec<u8>,
        input_blobs: &[Vec<u8>],
        cfg: SessionConfig,
    ) -> Self {
        Self::build(session, Some(network_blob), input_blobs, cfg)
    }

    /// A session that executes against the accelerator's already-loaded
    /// network (the shared-engine path: one owner loads, many sessions
    /// execute).
    pub fn execute_only(session: u64, input_blobs: &[Vec<u8>], cfg: SessionConfig) -> Self {
        Self::build(session, None, input_blobs, cfg)
    }

    fn build(
        session: u64,
        network_blob: Option<Vec<u8>>,
        input_blobs: &[Vec<u8>],
        cfg: SessionConfig,
    ) -> Self {
        WireNnBatchClient {
            session,
            arq: Arq::new(cfg),
            state: NnBatchClientState::Start,
            network_blob,
            request_chunks: chunks_or_empty(input_blobs),
            next_request: 0,
            received_output: 0,
            output_items: Vec::new(),
            seq: 0,
            last_reject: None,
        }
    }

    /// The sealed output blobs, once the session completed.
    pub fn output_blobs(&self) -> Option<&[Vec<u8>]> {
        if self.state == NnBatchClientState::Done {
            Some(&self.output_items)
        } else {
            None
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

    fn send(&mut self, msg: &SecureNnMsg) -> SessionAction {
        let frame = Envelope::pack(ProtocolId::SecureNn, self.session, self.seq, msg).to_bytes();
        self.arq.sent(&frame);
        self.seq += 1;
        SessionAction::Send(frame)
    }

    fn send_next_chunk(&mut self) -> Result<SessionAction, ProtocolError> {
        let chunk = self.request_chunks[self.next_request].clone();
        self.next_request += 1;
        self.state = if self.next_request == self.request_chunks.len() {
            NnBatchClientState::AwaitOutput
        } else {
            NnBatchClientState::AwaitChunkAck
        };
        Ok(self.send(&SecureNnMsg::ExecuteChunk(chunk)))
    }
}

impl Session for WireNnBatchClient {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            NnBatchClientState::Start => match self.network_blob.clone() {
                Some(blob) => {
                    self.state = NnBatchClientState::AwaitLoadAck;
                    Ok(self.send(&SecureNnMsg::Load(blob)))
                }
                None => self.send_next_chunk(),
            },
            NnBatchClientState::AwaitLoadAck => {
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    Some(self.session),
                    self.seq,
                ) {
                    Incoming::Msg(_, SecureNnMsg::LoadAck) => {
                        self.arq.activity();
                        self.seq += 1;
                        self.send_next_chunk()
                    }
                    Incoming::Msg(_, SecureNnMsg::Fault(what)) => {
                        self.arq.activity();
                        self.rejected(ProtocolError::PeerFault(what))
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            NnBatchClientState::AwaitChunkAck => {
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    Some(self.session),
                    self.seq,
                ) {
                    Incoming::Msg(_, SecureNnMsg::ChunkAck { index }) => {
                        self.arq.activity();
                        if index as usize + 1 != self.next_request {
                            return Err(ProtocolError::OutOfOrder(format!(
                                "chunk ack {index} does not match chunk {}",
                                self.next_request - 1
                            )));
                        }
                        self.seq += 1;
                        self.send_next_chunk()
                    }
                    Incoming::Msg(_, SecureNnMsg::Fault(what)) => {
                        self.arq.activity();
                        self.rejected(ProtocolError::PeerFault(what))
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            NnBatchClientState::AwaitOutput => {
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    Some(self.session),
                    self.seq,
                ) {
                    Incoming::Msg(_, SecureNnMsg::OutputChunk(chunk)) => {
                        self.arq.activity();
                        if chunk.index as usize != self.received_output {
                            return Err(ProtocolError::OutOfOrder(format!(
                                "output chunk {} while expecting {}",
                                chunk.index, self.received_output
                            )));
                        }
                        self.seq += 1;
                        self.received_output += 1;
                        let last = chunk.index + 1 == chunk.total;
                        self.output_items.extend(chunk.items);
                        if last {
                            self.state = NnBatchClientState::Done;
                            Ok(SessionAction::Done)
                        } else {
                            Ok(self.send(&SecureNnMsg::OutputAck { index: chunk.index }))
                        }
                    }
                    Incoming::Msg(_, SecureNnMsg::Fault(what)) => {
                        self.arq.activity();
                        self.rejected(ProtocolError::PeerFault(what))
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            NnBatchClientState::Done => Ok(SessionAction::Wait),
        }
    }

    fn done(&self) -> bool {
        self.state == NnBatchClientState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            NnBatchClientState::Start => NextWake::In(0),
            NnBatchClientState::AwaitLoadAck
            | NnBatchClientState::AwaitChunkAck
            | NnBatchClientState::AwaitOutput => NextWake::In(self.arq.ticks_to_fire()),
            NnBatchClientState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NnBatchServerState {
    AwaitRequest,
    Responding,
    Done,
}

/// The hardware boundary serving one batched session against a (possibly
/// shared) accelerator. Request chunks are stored in arrival order —
/// stop-and-wait delivers them in index order, a chunk ahead of the
/// ones received is answered with a fault, and a re-delivered chunk
/// overwrites its own copy — so memory grows with the chunks received,
/// never with the `total` a frame claims. The batch executes when the
/// final chunk arrives; a faulted execute keeps the chunks so the
/// client's retransmission retries the batch. Per-session inference
/// accounting folds into the trace [`Registry`] at execute time.
pub struct WireNnBatchServer<'r> {
    accel: SharedAccelerator,
    metrics: Option<&'r Registry>,
    session: Option<u64>,
    arq: Arq,
    state: NnBatchServerState,
    seq: u32,
    request_chunks: Vec<Vec<Vec<u8>>>,
    request_total: Option<u32>,
    response_chunks: Vec<NnChunk>,
    next_response: usize,
}

impl<'r> WireNnBatchServer<'r> {
    /// Serves one batched session against `accel`; the session id is
    /// latched from the first envelope.
    pub fn new(accel: SharedAccelerator, cfg: SessionConfig) -> Self {
        WireNnBatchServer {
            accel,
            metrics: None,
            session: None,
            arq: Arq::new(cfg),
            state: NnBatchServerState::AwaitRequest,
            seq: 0,
            request_chunks: Vec::new(),
            request_total: None,
            response_chunks: Vec::new(),
            next_response: 0,
        }
    }

    /// Folds per-session batch accounting into `metrics`.
    pub fn with_metrics(mut self, metrics: &'r Registry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    fn fault(&self, session: u64, e: &ProtocolError) -> SessionAction {
        // Fault frames are transient notices, not ARQ-tracked progress:
        // the sequence does not advance, so the client burns a retry
        // and retransmits its request.
        SessionAction::Send(
            Envelope::pack(
                ProtocolId::SecureNn,
                session,
                self.seq + 1,
                &SecureNnMsg::Fault(e.to_string()),
            )
            .to_bytes(),
        )
    }

    fn idle(&mut self) -> Result<SessionAction, ProtocolError> {
        match self.arq.idle() {
            Ok(frame) => Ok(resend_or_wait(frame)),
            Err(e) => Err(e),
        }
    }

    /// Sends the ARQ-tracked reply to the frame just accepted at
    /// `self.seq`, advancing past both.
    fn reply(&mut self, session: u64, msg: &SecureNnMsg) -> SessionAction {
        let frame = Envelope::pack(ProtocolId::SecureNn, session, self.seq + 1, msg).to_bytes();
        self.arq.sent(&frame);
        self.seq += 2;
        SessionAction::Send(frame)
    }

    fn send_response_chunk(&mut self, session: u64) -> SessionAction {
        let chunk = self.response_chunks[self.next_response].clone();
        self.next_response += 1;
        let action = self.reply(session, &SecureNnMsg::OutputChunk(chunk));
        self.state = if self.next_response == self.response_chunks.len() {
            NnBatchServerState::Done
        } else {
            NnBatchServerState::Responding
        };
        action
    }

    fn execute(&mut self, session: u64) -> SessionAction {
        let items = self.request_chunks.concat();
        let executed = self.accel.borrow_mut().execute_network_batch(&items);
        match executed {
            Ok(outputs) => {
                if let Some(metrics) = self.metrics {
                    metrics.counter("secure_nn.batch.executes", 1);
                    metrics.counter("secure_nn.batch.items", items.len() as u64);
                    metrics.observe("secure_nn.batch.items_per_session", items.len() as f64);
                }
                self.response_chunks = chunks_or_empty(&outputs);
                self.next_response = 0;
                self.send_response_chunk(session)
            }
            Err(e) => self.fault(session, &e),
        }
    }
}

impl Session for WireNnBatchServer<'_> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        match self.state {
            NnBatchServerState::AwaitRequest => {
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    self.session,
                    self.seq,
                ) {
                    Incoming::Msg(session, SecureNnMsg::Load(blob)) => {
                        self.arq.activity();
                        self.session = Some(session);
                        let loaded = self.accel.borrow_mut().load_network(&blob);
                        match loaded {
                            Ok(()) => Ok(self.reply(session, &SecureNnMsg::LoadAck)),
                            Err(e) => Ok(self.fault(session, &e)),
                        }
                    }
                    Incoming::Msg(session, SecureNnMsg::ExecuteChunk(chunk)) => {
                        self.arq.activity();
                        self.session = Some(session);
                        let (index, total) = (chunk.index, chunk.total);
                        let received = self.request_chunks.len();
                        let refused = match self.request_total {
                            _ if index >= total => {
                                Some(format!("chunk {index}/{total} out of range"))
                            }
                            Some(latched) if latched != total => {
                                Some(format!("chunk total changed from {latched} to {total}"))
                            }
                            _ if index as usize > received => {
                                Some(format!("chunk {index} ahead of the {received} received"))
                            }
                            _ => None,
                        };
                        if let Some(what) = refused {
                            return Ok(self.fault(session, &ProtocolError::OutOfOrder(what)));
                        }
                        self.request_total = Some(total);
                        if let Some(stored) = self.request_chunks.get_mut(index as usize) {
                            *stored = chunk.items;
                        } else {
                            self.request_chunks.push(chunk.items);
                        }
                        if index + 1 < total {
                            return Ok(self.reply(session, &SecureNnMsg::ChunkAck { index }));
                        }
                        Ok(self.execute(session))
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            NnBatchServerState::Responding => {
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    self.session,
                    self.seq,
                ) {
                    Incoming::Msg(session, SecureNnMsg::OutputAck { index }) => {
                        self.arq.activity();
                        if index as usize + 1 != self.next_response {
                            return Err(ProtocolError::OutOfOrder(format!(
                                "output ack {index} does not match chunk {}",
                                self.next_response - 1
                            )));
                        }
                        Ok(self.send_response_chunk(session))
                    }
                    Incoming::Msg(..) => self.idle(),
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    Incoming::Noise => self.idle(),
                }
            }
            NnBatchServerState::Done => {
                // Linger: a retransmitted ack or final chunk means the
                // client missed an output chunk — resend it.
                match classify::<SecureNnMsg>(
                    incoming,
                    ProtocolId::SecureNn,
                    self.session,
                    self.seq,
                ) {
                    Incoming::Duplicate => Ok(resend_or_wait(self.arq.duplicate())),
                    _ => Ok(SessionAction::Wait),
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.state == NnBatchServerState::Done
    }

    fn retransmits(&self) -> u32 {
        self.arq.retransmits()
    }

    fn next_wake(&self) -> NextWake {
        match self.state {
            NnBatchServerState::AwaitRequest | NnBatchServerState::Responding => {
                NextWake::In(self.arq.ticks_to_fire())
            }
            NnBatchServerState::Done => NextWake::OnFrame,
        }
    }

    fn skip_silence(&mut self, ticks: u32) {
        self.arq.skip(ticks);
    }
}

/// Runs one batched inference round over `channel` (client =
/// [`Side::A`](crate::transport::Side::A), accelerator =
/// [`Side::B`](crate::transport::Side::B)). Pass a `network_blob` to
/// load before executing, or `None` to execute against the
/// accelerator's already-loaded network. Returns the sealed output
/// blobs alongside the session report. Wire activity is recorded into
/// `tracer` (pass
/// [`Tracer::disabled`](neuropuls_rt::trace::Tracer::disabled) for an
/// untraced run) and per-session batch accounting into `metrics`.
#[allow(clippy::too_many_arguments)]
pub fn run_wire_batch_inference<T: Transport>(
    channel: &mut T,
    accel: &SharedAccelerator,
    network_blob: Option<Vec<u8>>,
    input_blobs: &[Vec<u8>],
    session_id: u64,
    cfg: SessionConfig,
    tracer: &mut neuropuls_rt::trace::Tracer,
    metrics: Option<&Registry>,
) -> (SessionReport, Option<Vec<Vec<u8>>>) {
    let mut client = match network_blob {
        Some(blob) => WireNnBatchClient::with_load(session_id, blob, input_blobs, cfg),
        None => WireNnBatchClient::execute_only(session_id, input_blobs, cfg),
    };
    let mut server = WireNnBatchServer::new(accel.clone(), cfg);
    if let Some(metrics) = metrics {
        server = server.with_metrics(metrics);
    }
    // Every chunk needs its ack round-trip plus retry headroom.
    let chunks = client.request_chunks.len() as u32 + input_blobs.len() as u32 + 2;
    let max_ticks = DEFAULT_MAX_TICKS.max(chunks * 32);
    let report = drive_report(channel, &mut client, &mut server, max_ticks, tracer);
    let output = client.output_blobs().map(<[Vec<u8>]>::to_vec);
    (report, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Channel;
    use neuropuls_accel::config::NetworkConfig;
    use neuropuls_rt::codec::FromBytes;

    fn identity(width: usize) -> NetworkConfig {
        NetworkConfig::mlp(&[width, width], |_, o, i| if o == i { 1.0 } else { 0.0 })
    }

    fn setup() -> (NetworkOwner, SecureAccelerator) {
        let key = [0x5A; 32];
        (
            NetworkOwner::new(key, b"owner-rng"),
            SecureAccelerator::new(PhotonicEngine::reference(1), key),
        )
    }

    #[test]
    fn end_to_end_inference() {
        let (mut owner, mut accel) = setup();
        accel
            .load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        let ciphered_out = accel
            .execute_network(&owner.cipher_input(&[1.0, 0.5, -0.25, 0.0]))
            .unwrap();
        let output = owner.decipher_output(&ciphered_out).unwrap();
        assert_eq!(output.len(), 4);
        assert!((output[0] - 1.0).abs() < 0.05);
    }

    #[test]
    fn no_plaintext_on_the_wire() {
        // The network weights and inputs must not appear in any API-level
        // byte string.
        let (mut owner, mut accel) = setup();
        let config = identity(4);
        let config_bytes = config.to_bytes();
        let ciphered = owner.cipher_network(&config);
        // Look for any 16-byte window of the plaintext in the ciphertext.
        for window in config_bytes.windows(16) {
            assert!(
                !ciphered.windows(16).any(|w| w == window),
                "plaintext fragment leaked into ciphertext"
            );
        }
        accel.load_network(&ciphered).unwrap();
        let input = [0.125f64, 0.25, 0.5, 1.0];
        let ciphered_in = owner.cipher_input(&input);
        let encoded = encode_values(&input);
        for window in encoded.windows(8) {
            assert!(!ciphered_in.windows(8).any(|w| w == window));
        }
    }

    #[test]
    fn tampered_network_is_rejected() {
        let (mut owner, mut accel) = setup();
        let mut blob = owner.cipher_network(&identity(4));
        let mid = blob.len() / 2;
        blob[mid] ^= 0x80;
        assert!(matches!(
            accel.load_network(&blob),
            Err(ProtocolError::AuthenticationFailed(_))
        ));
        assert!(!accel.is_loaded());
    }

    #[test]
    fn wrong_key_cannot_load() {
        let (mut owner, _) = setup();
        let blob = owner.cipher_network(&identity(4));
        let mut wrong = SecureAccelerator::new(PhotonicEngine::reference(2), [0x00; 32]);
        assert!(wrong.load_network(&blob).is_err());
    }

    #[test]
    fn labels_are_domain_separated() {
        // An input blob must not be accepted as a network and vice
        // versa, even under the right key.
        let (mut owner, mut accel) = setup();
        let input_blob = owner.cipher_input(&[1.0, 2.0]);
        assert!(accel.load_network(&input_blob).is_err());
        let net_blob = owner.cipher_network(&identity(2));
        accel.load_network(&net_blob).unwrap();
        assert!(accel.execute_network(&net_blob).is_err());
    }

    #[test]
    fn short_blobs_are_rejected_cleanly() {
        let (_, mut accel) = setup();
        assert!(matches!(
            accel.load_network(&[0u8; 10]),
            Err(ProtocolError::MalformedCiphertext(_))
        ));
    }

    #[test]
    fn execute_requires_loaded_network() {
        let (mut owner, mut accel) = setup();
        let blob = owner.cipher_input(&[1.0]);
        assert!(accel.execute_network(&blob).is_err());
    }

    #[test]
    fn output_tampering_is_detected_by_owner() {
        let (mut owner, mut accel) = setup();
        accel
            .load_network(&owner.cipher_network(&identity(2)))
            .unwrap();
        let mut out = accel
            .execute_network(&owner.cipher_input(&[1.0, 2.0]))
            .unwrap();
        let mid = out.len() / 2;
        out[mid] ^= 1;
        assert!(owner.decipher_output(&out).is_err());
    }

    fn batch_inputs(n: usize, width: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..width)
                    .map(|j| ((i * width + j) % 17) as f64 / 8.0 - 1.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_execute_matches_direct_engine() {
        let (mut owner, accel) = setup();
        let (_, mut twin) = setup();
        let inputs = batch_inputs(150, 4);
        let shared = share_accelerator(accel);
        let mut channel = Channel::new();
        let (report, outputs) = run_wire_batch_inference(
            &mut channel,
            &shared,
            Some(owner.cipher_network(&identity(4))),
            &owner.cipher_inputs(&inputs),
            7,
            SessionConfig::default(),
            &mut neuropuls_rt::trace::Tracer::disabled(),
            None,
        );
        report.result.unwrap();
        let got = owner.decipher_outputs(&outputs.unwrap()).unwrap();

        twin.load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        let sealed = twin
            .execute_network_batch(&owner.cipher_inputs(&inputs))
            .unwrap();
        let direct = owner.decipher_outputs(&sealed).unwrap();
        assert_eq!(got.len(), 150);
        assert_eq!(got, direct, "wire batch diverged from direct batch");
        // 150 × ~64-byte sealed items exceeds one chunk budget, so the
        // exchange really was chunked.
        assert!(
            owner
                .cipher_inputs(&inputs)
                .iter()
                .map(Vec::len)
                .sum::<usize>()
                > crate::wire::NN_CHUNK_BUDGET
        );
    }

    #[test]
    fn batch_survives_lossy_link() {
        use crate::transport::{FaultRates, FaultyChannel};
        let (mut owner, accel) = setup();
        let (_, mut twin) = setup();
        let inputs = batch_inputs(140, 4);
        let shared = share_accelerator(accel);
        let mut channel = FaultyChannel::new(FaultRates::loss(0.10), 0xBA7C);
        let (report, outputs) = run_wire_batch_inference(
            &mut channel,
            &shared,
            Some(owner.cipher_network(&identity(4))),
            &owner.cipher_inputs(&inputs),
            8,
            SessionConfig::default(),
            &mut neuropuls_rt::trace::Tracer::disabled(),
            None,
        );
        report.result.unwrap();
        twin.load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        let sealed = twin
            .execute_network_batch(&owner.cipher_inputs(&inputs))
            .unwrap();
        let direct = owner.decipher_outputs(&sealed).unwrap();
        let got = owner.decipher_outputs(&outputs.unwrap()).unwrap();
        assert_eq!(got, direct, "loss recovery changed the batch result");
        assert!(report.retransmits > 0, "10% loss should retransmit");
    }

    #[test]
    fn execute_only_sessions_share_one_engine() {
        let (mut owner, mut accel) = setup();
        let (_, mut twin) = setup();
        accel
            .load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        twin.load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        let shared = share_accelerator(accel);
        let inputs = batch_inputs(9, 4);
        let mut got = Vec::new();
        for sid in 0..2u64 {
            let mut channel = Channel::new();
            let (report, outputs) = run_wire_batch_inference(
                &mut channel,
                &shared,
                None,
                &owner.cipher_inputs(&inputs),
                sid + 1,
                SessionConfig::default(),
                &mut neuropuls_rt::trace::Tracer::disabled(),
                None,
            );
            report.result.unwrap();
            got.push(owner.decipher_outputs(&outputs.unwrap()).unwrap());
        }
        let direct: Vec<_> = (0..2)
            .map(|_| {
                let sealed = twin
                    .execute_network_batch(&owner.cipher_inputs(&inputs))
                    .unwrap();
                owner.decipher_outputs(&sealed).unwrap()
            })
            .collect();
        assert_eq!(got, direct);
        assert_ne!(
            got[0], got[1],
            "successive batches must draw fresh noise epochs"
        );
        assert_eq!(shared.borrow().stats().inferences, 18);
    }

    #[test]
    fn batch_fault_reaches_client() {
        // Execute-only against an empty accelerator: the engine refuses,
        // the server faults, the client reports PeerFault after its
        // retry budget.
        let (mut owner, accel) = setup();
        let shared = share_accelerator(accel);
        let mut channel = Channel::new();
        let (report, outputs) = run_wire_batch_inference(
            &mut channel,
            &shared,
            None,
            &owner.cipher_inputs(&batch_inputs(3, 4)),
            9,
            SessionConfig::default(),
            &mut neuropuls_rt::trace::Tracer::disabled(),
            None,
        );
        assert!(outputs.is_none());
        assert!(
            matches!(report.result, Err(ProtocolError::PeerFault(_))),
            "want PeerFault, got {:?}",
            report.result
        );
    }

    /// Steps `server` with one request chunk at `seq` and decodes its
    /// reply.
    fn chunk_reply(server: &mut WireNnBatchServer<'_>, seq: u32, chunk: NnChunk) -> SecureNnMsg {
        let frame = Envelope::pack(
            ProtocolId::SecureNn,
            11,
            seq,
            &SecureNnMsg::ExecuteChunk(chunk),
        )
        .to_bytes();
        match server.step(Some(&frame)).unwrap() {
            SessionAction::Send(reply) => Envelope::from_bytes(&reply).unwrap().open().unwrap(),
            other => panic!("server did not answer: {other:?}"),
        }
    }

    /// Regression: the server used to size its chunk slots from the
    /// wire-supplied `total`, so one flipped high bit asked for tens of
    /// gigabytes and aborted the process. A chunk ahead of the chunks
    /// received is now refused with a fault, whatever `total` it claims.
    #[test]
    fn batch_server_refuses_chunks_ahead_of_those_received() {
        let (_, accel) = setup();
        let shared = share_accelerator(accel);
        let item = || vec![vec![0xAB; 64]];
        for total in [u32::MAX, 0x8000_0001] {
            let mut server = WireNnBatchServer::new(shared.clone(), SessionConfig::default());
            let claimed_final = NnChunk {
                index: total - 1,
                total,
                items: item(),
            };
            let reply = chunk_reply(&mut server, 0, claimed_final);
            assert!(matches!(reply, SecureNnMsg::Fault(_)), "{reply:?}");
            assert!(!server.done());
        }

        // A first chunk claiming a huge batch is stored on its own; the
        // next one skipping an index is refused.
        let mut server = WireNnBatchServer::new(shared, SessionConfig::default());
        let first = NnChunk {
            index: 0,
            total: u32::MAX,
            items: item(),
        };
        let reply = chunk_reply(&mut server, 0, first);
        assert_eq!(reply, SecureNnMsg::ChunkAck { index: 0 });
        let skipping = NnChunk {
            index: 2,
            total: u32::MAX,
            items: item(),
        };
        let reply = chunk_reply(&mut server, 2, skipping);
        assert!(matches!(reply, SecureNnMsg::Fault(_)), "{reply:?}");
        assert!(!server.done());
        assert_eq!(server.request_chunks.len(), 1);
    }

    #[test]
    fn batch_metrics_fold_into_registry() {
        let (mut owner, mut accel) = setup();
        accel
            .load_network(&owner.cipher_network(&identity(4)))
            .unwrap();
        let shared = share_accelerator(accel);
        let registry = Registry::new();
        let mut channel = Channel::new();
        let (report, _) = run_wire_batch_inference(
            &mut channel,
            &shared,
            None,
            &owner.cipher_inputs(&batch_inputs(5, 4)),
            10,
            SessionConfig::default(),
            &mut neuropuls_rt::trace::Tracer::disabled(),
            Some(&registry),
        );
        report.result.unwrap();
        assert_eq!(registry.counter_value("secure_nn.batch.executes"), 1);
        assert_eq!(registry.counter_value("secure_nn.batch.items"), 5);
    }

    #[test]
    fn tensor_codec_roundtrip() {
        let values = vec![1.5, -2.25, 0.0, 1e-3];
        let decoded = decode_values(&encode_values(&values)).unwrap();
        for (a, b) in values.iter().zip(&decoded) {
            assert!((a - b).abs() < 1e-6);
        }
        assert!(decode_values(&[1, 2]).is_err());
        assert!(decode_values(&[9, 0, 0, 0, 1, 2, 3]).is_err());
    }
}
