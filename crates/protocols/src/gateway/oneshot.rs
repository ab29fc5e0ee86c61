//! The batch driver: a fixed set of sessions run to completion over
//! one shared transport, with policy-ordered admission. It is the
//! shared tick loop plus a one-shot controller: every session is a slot
//! that fires once, on the first tick, and is evicted when it closes.

use super::admission::{AdmissionPolicy, ClassId, Fifo};
use super::engine::{self, duplicate_key, EngineConfig, Flavor};
use super::persistent::{EpochOutcome, EpochSession, KeepAlive, SlotVerdict};
use super::report::{build_class_reports, ClassAcc, GatewayOutcome, GatewayReport};
use crate::error::ProtocolError;
use crate::transport::Transport;
use crate::wire::{ProtocolId, Session};
use neuropuls_rt::trace::{Registry, Tracer, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Capacity, budget and policy knobs of one gateway run.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Sessions running concurrently (ARQ clocks ticking).
    pub max_active: usize,
    /// Sessions staged for admission; overflow waits in the backlog.
    pub accept_queue: usize,
    /// Total tick budget for the whole run.
    pub max_ticks: u64,
    /// Backlog ordering discipline. The default [`Fifo`] reproduces
    /// the pre-policy gateway byte for byte; cloning a config clones
    /// the policy's *configuration* (weights), never queued state.
    pub policy: Box<dyn AdmissionPolicy>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            max_active: 64,
            accept_queue: 16,
            max_ticks: 4096,
            policy: Box::new(Fifo::new()),
        }
    }
}

/// One session to multiplex: the two endpoints plus the envelope key
/// (`protocol`, `id`) its frames carry on the shared wire.
pub struct SessionPair<'x> {
    /// Service discriminator routed on.
    pub protocol: ProtocolId,
    /// Session identifier routed on (chosen unique by the caller).
    pub id: u64,
    /// Traffic class admission policies schedule on. Host-side only —
    /// never encoded on the wire. Defaults to the protocol-derived
    /// class ([`ClassId::from_protocol`]).
    pub class: ClassId,
    /// The [`Side::A`](crate::transport::Side::A) endpoint (verifier /
    /// client / initiator).
    pub initiator: Box<dyn Session + 'x>,
    /// The [`Side::B`](crate::transport::Side::B) endpoint (device /
    /// accelerator / responder).
    pub responder: Box<dyn Session + 'x>,
}

impl<'x> SessionPair<'x> {
    /// Builds a pair with the protocol-derived default traffic class.
    pub fn new(
        protocol: ProtocolId,
        id: u64,
        initiator: Box<dyn Session + 'x>,
        responder: Box<dyn Session + 'x>,
    ) -> Self {
        SessionPair {
            protocol,
            id,
            class: ClassId::from_protocol(protocol),
            initiator,
            responder,
        }
    }

    /// Overrides the traffic class (builder style).
    pub fn with_class(mut self, class: ClassId) -> Self {
        self.class = class;
        self
    }
}

/// One submitted session as the one-shot controller tracks it.
struct Shot<'x> {
    protocol: ProtocolId,
    id: u64,
    class: ClassId,
    /// The endpoints, until the session fires.
    endpoints: Option<(Box<dyn Session + 'x>, Box<dyn Session + 'x>)>,
    /// Result and retransmit tally, once the session closed.
    closed: Option<(Result<u32, ProtocolError>, u32)>,
}

/// The [`KeepAlive`] controller behind [`run_gateway`]: slot `i` is
/// submission `i`; it fires once and is evicted at its close.
struct OneShot<'x> {
    shots: Vec<Shot<'x>>,
}

impl<'x> KeepAlive for OneShot<'x> {
    type Initiator = Box<dyn Session + 'x>;
    type Responder = Box<dyn Session + 'x>;

    fn on_fire(
        &mut self,
        slot: usize,
        _epoch: u32,
        _now: u64,
    ) -> Option<EpochSession<Self::Initiator, Self::Responder>> {
        let shot = self.shots.get_mut(slot)?;
        let (initiator, responder) = shot.endpoints.take()?;
        Some(EpochSession {
            protocol: shot.protocol,
            id: shot.id,
            initiator,
            responder,
        })
    }

    fn on_close(
        &mut self,
        slot: usize,
        _epoch: u32,
        _now: u64,
        outcome: &EpochOutcome,
        _initiator: Self::Initiator,
        _responder: Self::Responder,
    ) -> SlotVerdict {
        if let Some(shot) = self.shots.get_mut(slot) {
            shot.closed = Some((outcome.result.clone(), outcome.retransmits));
        }
        SlotVerdict::Evict
    }

    fn class(&self, slot: usize) -> ClassId {
        self.shots
            .get(slot)
            .map_or_else(ClassId::default, |s| s.class)
    }
}

/// Runs every session in `sessions` to completion (or failure) over the
/// shared `transport`, multiplexing frames by their envelope key.
///
/// Instrumentation: a `gateway.admit` instant when a session enters the
/// active set, a `gateway.session_closed` instant when it finishes or
/// fails (carrying protocol, active ticks and retransmits), instants
/// for late / unroutable frames, a closing `gateway.result` instant,
/// and `gateway.*` counters plus a `gateway.session_ticks` histogram
/// and per-class `gateway.class.<label>.*` admission accounting folded
/// into `registry`. Pass [`Tracer::disabled`] and a throwaway
/// [`Registry`] for an uninstrumented run.
///
/// The report is total: every submitted session appears in
/// [`GatewayReport::outcomes`] exactly once, on every path. Duplicate
/// `(protocol, id)` keys fail the later session immediately with
/// [`ProtocolError::OutOfOrder`] rather than corrupting the demux.
pub fn run_gateway<T: Transport>(
    transport: &mut T,
    sessions: Vec<SessionPair<'_>>,
    config: GatewayConfig,
    tracer: &mut Tracer,
    registry: &Registry,
) -> GatewayReport {
    let GatewayConfig {
        max_active,
        accept_queue,
        max_ticks,
        policy,
    } = config;
    let policy_name = policy.name();
    let mut controller = OneShot {
        shots: sessions
            .into_iter()
            .map(|pair| Shot {
                protocol: pair.protocol,
                id: pair.id,
                class: pair.class,
                endpoints: Some((pair.initiator, pair.responder)),
                closed: None,
            })
            .collect(),
    };
    let n = controller.shots.len();
    let run = engine::run(
        transport,
        &vec![1; n],
        &mut controller,
        EngineConfig {
            flavor: Flavor::OneShot,
            horizon: max_ticks,
            epoch_budget: 0,
            max_active,
            accept_queue,
            policy,
        },
        tracer,
        registry,
    );
    let ticks = run.ticks;

    // Everything the budget cut off is unfinished: still queued or in
    // flight when it ran out.
    let mut unfinished = run.epochs_missed as usize;
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut retransmits = 0u64;
    let mut class_stats: BTreeMap<ClassId, ClassAcc> = BTreeMap::new();
    let mut keys: BTreeSet<(ProtocolId, u64)> = BTreeSet::new();
    let outcomes: Vec<GatewayOutcome> = controller
        .shots
        .into_iter()
        .zip(run.admitted_at)
        .map(|(shot, admitted_at)| {
            // A duplicate key never enters the backlog.
            let duplicate = !keys.insert((shot.protocol, shot.id));
            let (result, r) = shot.closed.unwrap_or_else(|| {
                // Never fired: the tick budget was zero.
                let r = shot
                    .endpoints
                    .as_ref()
                    .map_or(0, |(a, b)| a.retransmits() + b.retransmits());
                let error = if duplicate {
                    duplicate_key(Flavor::OneShot, shot.protocol, shot.id)
                } else {
                    unfinished += 1;
                    ProtocolError::Timeout { retries: r }
                };
                (Err(error), r)
            });
            let acc = class_stats.entry(shot.class).or_default();
            acc.submitted += 1;
            if result.is_ok() {
                completed += 1;
                acc.completed += 1;
            } else {
                failed += 1;
            }
            match admitted_at {
                Some(at) => {
                    acc.admitted += 1;
                    acc.waits.push(at);
                }
                // Submitted but never admitted: the wait is censored at
                // the run length so starvation shows up in the p99
                // instead of vanishing.
                None if !duplicate => acc.waits.push(ticks),
                None => {}
            }
            retransmits += u64::from(r);
            GatewayOutcome {
                protocol: shot.protocol,
                id: shot.id,
                class: shot.class,
                result,
                retransmits: r,
                admitted_at,
            }
        })
        .collect();
    // `failed` counted every Err outcome; unfinished sessions are their
    // own column, not protocol failures.
    failed = failed.saturating_sub(unfinished);

    registry.counter("gateway.sessions", n as u64);
    registry.counter("gateway.completed", completed as u64);
    registry.counter("gateway.failed", failed as u64);
    registry.counter("gateway.unfinished", unfinished as u64);
    registry.counter("gateway.retransmits", retransmits);
    registry.counter("gateway.late_frames", run.late_frames);
    registry.counter("gateway.unroutable_frames", run.unroutable_frames);
    registry.counter("gateway.undecodable_frames", run.undecodable_frames);
    registry.counter("gateway.session_steps", run.session_steps);
    registry.counter("gateway.dense_equiv_steps", run.epoch_dense_steps);
    let per_class = build_class_reports(class_stats, registry);

    let report = GatewayReport {
        sessions: outcomes.len(),
        completed,
        failed,
        unfinished,
        ticks,
        retransmits,
        late_frames: run.late_frames,
        unroutable_frames: run.unroutable_frames,
        undecodable_frames: run.undecodable_frames,
        peak_active: run.peak_live,
        peak_staged: run.peak_staged,
        session_steps: run.session_steps,
        dense_equiv_steps: run.epoch_dense_steps,
        policy: policy_name,
        per_class,
        outcomes,
    };
    if tracer.is_enabled() {
        tracer.instant(
            ticks.saturating_sub(1),
            "gateway.result",
            vec![
                ("sessions", Value::from(report.sessions)),
                ("completed", Value::from(report.completed)),
                ("failed", Value::from(report.failed)),
                ("unfinished", Value::from(report.unfinished)),
                ("ticks", Value::from(report.ticks)),
                ("retransmits", Value::from(report.retransmits)),
                ("late_frames", Value::from(report.late_frames)),
                ("peak_active", Value::from(report.peak_active)),
            ],
        );
    }
    report
}
