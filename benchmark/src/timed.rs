//! Host-time instrumentation that lives entirely on the benchmark side.
//!
//! The program itself always runs with `Tracer::disabled()`. Workloads
//! are written once, generic over an [`Instrument`]: [`Plain`] builds
//! them from the library's own types (the untraced pass that measures
//! the end-to-end metrics), [`Traced`] wraps every public trait the
//! workload hands to the library — [`Puf`], [`Session`], [`Transport`],
//! [`AdmissionPolicy`] — in a decorator that records a host-time span
//! per call into a [`Recorder`]. Spans nest (gateway call → session step
//! → PUF read), so a layer's self time is its spans' duration minus
//! their children's.

use neuropuls_photonic::Environment;
use neuropuls_protocols::error::ProtocolError;
use neuropuls_protocols::gateway::{AdmissionPolicy, AdmissionRequest};
use neuropuls_protocols::transport::{Side, Transport};
use neuropuls_protocols::wire::{NextWake, ProtocolId, Session, SessionAction};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_puf::{Challenge, Puf, PufError, PufKind, Response};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// A layer boundary the benchmark records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One workload round; its self time is the benchmark's own loop.
    Round,
    /// A `run_gateway` / `run_persistent_gateway` call; its self time is
    /// routing, demux, timer wheel and admission bookkeeping.
    Gateway,
    /// `Session::step` of one §III protocol.
    Session(ProtocolId),
    /// One noisy `Puf::respond` read.
    PufRespond,
    /// `Transport::send` / `Transport::recv`.
    Transport,
    /// `AdmissionPolicy::push` / `pop`.
    Admission,
    /// CRP-store checkout / commit.
    CrpStore,
    /// The keep-alive controller's `on_fire` / `on_close`.
    FleetController,
    /// `AttestingDevice::attest` / `AttestationVerifier::verify`.
    AttestationWalk,
    /// Owner-side sealing of secure-NN inputs.
    NnSeal,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 13] = [
        Layer::Round,
        Layer::Gateway,
        Layer::Session(ProtocolId::MutualAuth),
        Layer::Session(ProtocolId::Attestation),
        Layer::Session(ProtocolId::Eke),
        Layer::Session(ProtocolId::SecureNn),
        Layer::PufRespond,
        Layer::Transport,
        Layer::Admission,
        Layer::CrpStore,
        Layer::FleetController,
        Layer::AttestationWalk,
        Layer::NnSeal,
    ];

    /// Module-style name used in metrics and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "harness",
            Layer::Gateway => "gateway",
            Layer::Session(p) => match p {
                ProtocolId::MutualAuth => "session.mutual_auth",
                ProtocolId::Attestation => "session.attestation",
                ProtocolId::Eke => "session.eke",
                ProtocolId::SecureNn => "session.secure_nn",
            },
            Layer::PufRespond => "puf.respond",
            Layer::Transport => "transport",
            Layer::Admission => "admission",
            Layer::CrpStore => "crp_store",
            Layer::FleetController => "fleet.controller",
            Layer::AttestationWalk => "attestation.walk",
            Layer::NnSeal => "secure_nn.seal",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span: layer, session id (0 outside any session), host
/// start/end in ns since the recorder was created, and its parent.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    session: u64,
    start: u64,
    end: u64,
    parent: u32,
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// In-memory span log plus named event counters. Single-threaded: the
/// gateway drives every session from one loop, and the only pool work
/// (`infer_batch`) happens below the session boundary.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    counters: RefCell<BTreeMap<&'static str, u64>>,
}

impl Recorder {
    pub fn new() -> Rc<Self> {
        Rc::new(Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span. `session: None` inherits the enclosing
    /// span's session id.
    pub fn span<R>(&self, layer: Layer, session: Option<u64>, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            let parent = open.last().copied().unwrap_or(NO_PARENT);
            let session = session
                .unwrap_or_else(|| spans.get(parent as usize).map_or(0, |p: &Span| p.session));
            let idx = spans.len() as u32;
            open.push(idx);
            spans.push(Span {
                layer,
                session,
                start: self.now(),
                end: 0,
                parent,
            });
            idx
        };
        let out = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx as usize].end = end;
        out
    }

    /// Forgets everything recorded so far (set-up and warm-up).
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
        self.open.borrow_mut().clear();
        self.counters.borrow_mut().clear();
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.counters.borrow_mut().entry(name).or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.borrow().get(name).copied().unwrap_or(0)
    }

    /// Self time and calls per layer: a span's duration minus the
    /// durations of its direct children.
    pub fn layer_times(&self) -> BTreeMap<Layer, LayerTime> {
        let spans = self.spans.borrow();
        let mut self_ns: BTreeMap<Layer, i128> = BTreeMap::new();
        let mut calls: BTreeMap<Layer, u64> = BTreeMap::new();
        for s in spans.iter() {
            let dur = i128::from(s.end.saturating_sub(s.start));
            *self_ns.entry(s.layer).or_insert(0) += dur;
            *calls.entry(s.layer).or_insert(0) += 1;
            if let Some(p) = spans.get(s.parent as usize) {
                *self_ns.entry(p.layer).or_insert(0) -= dur;
            }
        }
        self_ns
            .into_iter()
            .map(|(layer, ns)| {
                let time = LayerTime {
                    self_ns: ns.max(0) as u64,
                    calls: calls.get(&layer).copied().unwrap_or(0),
                };
                (layer, time)
            })
            .collect()
    }

    /// Total duration of the top-level round spans.
    pub fn round_wall_ns(&self) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.layer == Layer::Round)
            .map(|s| s.end.saturating_sub(s.start))
            .sum()
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"session\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.layer.name(),
                s.session,
                s.start,
                s.end,
                parent
            )?;
        }
        out.flush()
    }
}

/// How a workload's public-trait objects are built: plainly, or wrapped
/// in timing decorators. Workloads are generic over this, so the traced
/// pass runs the identical code with only the wrappers added.
pub trait Instrument: Clone {
    type Puf: Puf;
    type Session<S: Session>: Session;
    type Link<T: Transport>: Transport;

    fn puf(&self, puf: PhotonicPuf) -> Self::Puf;
    fn session<S: Session>(&self, session: S, protocol: ProtocolId, id: u64) -> Self::Session<S>;
    fn unwrap_session<S: Session>(session: Self::Session<S>) -> S;
    /// A boxed session for `run_gateway`'s borrowed session pairs.
    fn boxed<'a, S: Session + 'a>(
        &self,
        session: S,
        protocol: ProtocolId,
        id: u64,
    ) -> Box<dyn Session + 'a>;
    fn link<T: Transport>(&self, link: T) -> Self::Link<T>;
    fn link_ref<T: Transport>(link: &Self::Link<T>) -> &T;
    fn policy(&self, policy: Box<dyn AdmissionPolicy>) -> Box<dyn AdmissionPolicy>;
    fn span<R>(&self, layer: Layer, session: Option<u64>, f: impl FnOnce() -> R) -> R;
}

/// The program exactly as users run it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain;

impl Instrument for Plain {
    type Puf = PhotonicPuf;
    type Session<S: Session> = S;
    type Link<T: Transport> = T;

    fn puf(&self, puf: PhotonicPuf) -> PhotonicPuf {
        puf
    }
    fn session<S: Session>(&self, session: S, _: ProtocolId, _: u64) -> S {
        session
    }
    fn unwrap_session<S: Session>(session: S) -> S {
        session
    }
    fn boxed<'a, S: Session + 'a>(
        &self,
        session: S,
        _: ProtocolId,
        _: u64,
    ) -> Box<dyn Session + 'a> {
        Box::new(session)
    }
    fn link<T: Transport>(&self, link: T) -> T {
        link
    }
    fn link_ref<T: Transport>(link: &T) -> &T {
        link
    }
    fn policy(&self, policy: Box<dyn AdmissionPolicy>) -> Box<dyn AdmissionPolicy> {
        policy
    }
    fn span<R>(&self, _: Layer, _: Option<u64>, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Every public trait wrapped in a timing decorator.
#[derive(Clone)]
pub struct Traced(pub Rc<Recorder>);

impl Instrument for Traced {
    type Puf = TimedPuf<PhotonicPuf>;
    type Session<S: Session> = TimedSession<S>;
    type Link<T: Transport> = TimedTransport<T>;

    fn puf(&self, puf: PhotonicPuf) -> TimedPuf<PhotonicPuf> {
        TimedPuf {
            inner: puf,
            rec: self.0.clone(),
        }
    }
    fn session<S: Session>(&self, session: S, protocol: ProtocolId, id: u64) -> TimedSession<S> {
        TimedSession {
            inner: session,
            rec: self.0.clone(),
            layer: Layer::Session(protocol),
            id,
        }
    }
    fn unwrap_session<S: Session>(session: TimedSession<S>) -> S {
        session.inner
    }
    fn boxed<'a, S: Session + 'a>(
        &self,
        session: S,
        protocol: ProtocolId,
        id: u64,
    ) -> Box<dyn Session + 'a> {
        Box::new(self.session(session, protocol, id))
    }
    fn link<T: Transport>(&self, link: T) -> TimedTransport<T> {
        TimedTransport {
            inner: link,
            rec: self.0.clone(),
        }
    }
    fn link_ref<T: Transport>(link: &TimedTransport<T>) -> &T {
        &link.inner
    }
    fn policy(&self, policy: Box<dyn AdmissionPolicy>) -> Box<dyn AdmissionPolicy> {
        Box::new(TimedPolicy {
            inner: policy,
            rec: self.0.clone(),
        })
    }
    fn span<R>(&self, layer: Layer, session: Option<u64>, f: impl FnOnce() -> R) -> R {
        self.0.span(layer, session, f)
    }
}

/// Times every noisy read. `respond_golden` is left to the trait's
/// default, which calls [`Puf::respond`] once per read, so each read of
/// a majority vote is its own span and the noise stream is unchanged.
pub struct TimedPuf<P: Puf> {
    inner: P,
    rec: Rc<Recorder>,
}

impl<P: Puf> Puf for TimedPuf<P> {
    fn challenge_bits(&self) -> usize {
        self.inner.challenge_bits()
    }
    fn response_bits(&self) -> usize {
        self.inner.response_bits()
    }
    fn kind(&self) -> PufKind {
        self.inner.kind()
    }
    fn respond(&mut self, challenge: &Challenge) -> Result<Response, PufError> {
        let inner = &mut self.inner;
        self.rec
            .span(Layer::PufRespond, None, || inner.respond(challenge))
    }
    fn set_environment(&mut self, env: Environment) {
        self.inner.set_environment(env);
    }
    fn environment(&self) -> Environment {
        self.inner.environment()
    }
    fn latency_ns(&self) -> f64 {
        self.inner.latency_ns()
    }
    fn throughput_gbps(&self) -> f64 {
        self.inner.throughput_gbps()
    }
}

/// Times every `step`; forwards the wake contract untouched so the
/// event-driven gateway schedules the wrapped session identically.
pub struct TimedSession<S: Session> {
    inner: S,
    rec: Rc<Recorder>,
    layer: Layer,
    id: u64,
}

impl<S: Session> Session for TimedSession<S> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        let inner = &mut self.inner;
        self.rec
            .span(self.layer, Some(self.id), || inner.step(incoming))
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn retransmits(&self) -> u32 {
        self.inner.retransmits()
    }
    fn next_wake(&self) -> NextWake {
        self.inner.next_wake()
    }
    fn skip_silence(&mut self, ticks: u32) {
        self.inner.skip_silence(ticks);
    }
}

/// Envelope session id of a framed wire message (`NPRT` magic, u16
/// version, u8 protocol, u64 session); 0 for anything shorter.
fn frame_session(frame: &[u8]) -> u64 {
    frame
        .get(7..15)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Times every `send` / `recv` and counts frames each way.
pub struct TimedTransport<T: Transport> {
    inner: T,
    rec: Rc<Recorder>,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, from: Side, frame: Vec<u8>) {
        self.rec.count("transport.sends", 1);
        let inner = &mut self.inner;
        let sid = frame_session(&frame);
        self.rec
            .span(Layer::Transport, Some(sid), || inner.send(from, frame));
    }
    fn recv(&mut self, to: Side) -> Option<Vec<u8>> {
        let inner = &mut self.inner;
        let frame = self.rec.span(Layer::Transport, Some(0), || inner.recv(to));
        if frame.is_some() {
            self.rec.count("transport.recvs", 1);
        }
        frame
    }
}

/// Times every backlog `push` / `pop`. `fresh` wraps the fresh inner
/// policy, so configs cloned between runs stay timed.
pub struct TimedPolicy {
    inner: Box<dyn AdmissionPolicy>,
    rec: Rc<Recorder>,
}

impl std::fmt::Debug for TimedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedPolicy")
            .field("inner", &self.inner)
            .finish()
    }
}

impl AdmissionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn push(&mut self, request: AdmissionRequest) {
        let inner = &mut self.inner;
        self.rec
            .span(Layer::Admission, Some(0), || inner.push(request));
    }
    fn pop(&mut self) -> Option<usize> {
        let inner = &mut self.inner;
        self.rec.span(Layer::Admission, Some(0), || inner.pop())
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn fresh(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(TimedPolicy {
            inner: self.inner.fresh(),
            rec: self.rec.clone(),
        })
    }
}

/// Lends a session to a gateway run that consumes its boxed sessions,
/// so the caller can read the endpoint (e.g. output blobs) afterwards.
pub struct ByRef<'a, S: Session>(pub &'a mut S);

impl<S: Session> Session for ByRef<'_, S> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        self.0.step(incoming)
    }
    fn done(&self) -> bool {
        self.0.done()
    }
    fn retransmits(&self) -> u32 {
        self.0.retransmits()
    }
    fn next_wake(&self) -> NextWake {
        self.0.next_wake()
    }
    fn skip_silence(&mut self, ticks: u32) {
        self.0.skip_silence(ticks);
    }
}

/// Host-time latency of one session pair: from the first step of either
/// side to the step that finished the second side (or failed one).
#[derive(Debug, Default)]
pub struct PairClock {
    start: Cell<Option<Instant>>,
    end: Cell<Option<Instant>>,
    sides_done: Cell<u8>,
    failed: Cell<bool>,
}

impl PairClock {
    /// Host ns from the first step to the close, completed or failed.
    pub fn elapsed_ns(&self) -> Option<u64> {
        match (self.start.get(), self.end.get()) {
            (Some(s), Some(e)) => Some(e.duration_since(s).as_nanos() as u64),
            _ => None,
        }
    }

    /// Latency in ns of a pair that completed; `None` for a failed or
    /// unfinished one (which misses any latency limit).
    pub fn latency_ns(&self) -> Option<u64> {
        self.elapsed_ns().filter(|_| !self.failed.get())
    }
}

/// Stamps a [`PairClock`] around one side of a session. Used in both
/// passes: it is how the untraced pass measures per-session latency.
pub struct Clocked<S: Session> {
    inner: S,
    clock: Rc<PairClock>,
    done: bool,
}

impl<S: Session> Clocked<S> {
    pub fn new(inner: S, clock: Rc<PairClock>) -> Self {
        Clocked {
            inner,
            clock,
            done: false,
        }
    }
}

impl<S: Session> Session for Clocked<S> {
    fn step(&mut self, incoming: Option<&[u8]>) -> Result<SessionAction, ProtocolError> {
        if self.clock.start.get().is_none() {
            self.clock.start.set(Some(Instant::now()));
        }
        let out = self.inner.step(incoming);
        if out.is_err() {
            self.clock.failed.set(true);
            self.clock.end.set(Some(Instant::now()));
        } else if !self.done && self.inner.done() {
            self.done = true;
            self.clock.sides_done.set(self.clock.sides_done.get() + 1);
            if self.clock.sides_done.get() == 2 {
                self.clock.end.set(Some(Instant::now()));
            }
        }
        out
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn retransmits(&self) -> u32 {
        self.inner.retransmits()
    }
    fn next_wake(&self) -> NextWake {
        self.inner.next_wake()
    }
    fn skip_silence(&mut self, ticks: u32) {
        self.inner.skip_silence(ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        (0..n).fold(0u64, |a, i| a.wrapping_add(std::hint::black_box(i)))
    }

    #[test]
    fn self_times_partition_the_round_and_sessions_inherit() {
        let rec = Recorder::new();
        rec.span(Layer::Round, Some(0), || {
            spin(1000);
            rec.span(Layer::Gateway, None, || {
                spin(1000);
                for _ in 0..3 {
                    rec.span(Layer::PufRespond, None, || spin(1000));
                }
                rec.span(Layer::Session(ProtocolId::Eke), Some(9), || {
                    rec.span(Layer::PufRespond, None, || spin(1000))
                });
            });
        });
        let times = rec.layer_times();
        let total: u64 = times.values().map(|t| t.self_ns).sum();
        assert_eq!(total, rec.round_wall_ns());
        assert_eq!(times[&Layer::PufRespond].calls, 4);
        assert_eq!(times[&Layer::Gateway].calls, 1);
        let spans = rec.spans.borrow();
        assert_eq!(
            spans.last().map(|s| (s.layer, s.session)),
            Some((Layer::PufRespond, 9))
        );
        assert_eq!(spans[2].session, 0);
        drop(spans);
        rec.clear();
        assert!(rec.layer_times().is_empty());
    }
}
