//! The persistent driver: long-lived resident slots firing periodic
//! re-attestation epochs, with idle fast-forward between them.

use super::admission::{AdmissionPolicy, ClassId, Fifo};
use super::engine::{self, EngineConfig, Flavor};
use super::report::PersistentReport;
use crate::error::ProtocolError;
use crate::transport::Transport;
use crate::wire::{ProtocolId, Session};
use neuropuls_rt::trace::{Registry, Tracer, Value};

/// One epoch's session pair, built by a [`KeepAlive`] controller when a
/// slot's re-attestation timer fires.
pub struct EpochSession<I, R> {
    /// Service discriminator the epoch's envelopes are routed on.
    pub protocol: ProtocolId,
    /// Envelope session id. Must be unique across the whole run: a
    /// stale frame from an earlier epoch must never key-match a live
    /// session, only ever land in the late-frame bin.
    pub id: u64,
    /// The [`Side::A`](crate::transport::Side::A) endpoint.
    pub initiator: I,
    /// The [`Side::B`](crate::transport::Side::B) endpoint.
    pub responder: R,
}

/// Terminal state of one keep-alive epoch, handed back to the
/// controller together with its endpoints.
#[derive(Debug)]
pub struct EpochOutcome {
    /// Active ticks to completion, or the failure that ended the epoch.
    pub result: Result<u32, ProtocolError>,
    /// Frames retransmitted across both endpoints this epoch.
    pub retransmits: u32,
    /// Whether the epoch-budget deadline (or the run horizon) forced
    /// this close before the protocol finished.
    pub missed_deadline: bool,
}

impl EpochOutcome {
    /// Whether the epoch's protocol run completed successfully.
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// The controller's verdict on a slot after one of its epochs closed.
pub enum SlotVerdict {
    /// Keep the slot resident and fire its next epoch at tick `at`
    /// (clamped into the future by the timer wheel).
    Rearm {
        /// Absolute tick of the next epoch fire.
        at: u64,
    },
    /// Evict the device: the slot never fires again and its residency
    /// ends at the closing tick.
    Evict,
}

/// Lifecycle policy for the resident slots of one persistent gateway
/// run. The controller owns everything long-lived (device identities,
/// CRP checkouts, eviction counters); the gateway owns everything
/// per-epoch (timers, inboxes, wire scheduling). Associated endpoint
/// types let the controller recover its concrete session objects at
/// epoch close — e.g. a `WireVerifier<Verifier>` checked out of a CRP
/// store at fire time and committed back at close.
pub trait KeepAlive {
    /// The [`Side::A`](crate::transport::Side::A) endpoint type for this controller's epochs.
    type Initiator: Session;
    /// The [`Side::B`](crate::transport::Side::B) endpoint type for this controller's epochs.
    type Responder: Session;

    /// A slot's re-attestation timer fired at `now`: build the epoch's
    /// session pair, or return `None` to leave the fleet voluntarily
    /// (the slot departs and never fires again).
    fn on_fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Self::Initiator, Self::Responder>>;

    /// An epoch closed at `now` (protocol finished, a side failed, the
    /// epoch budget expired, or the run horizon cut it off). The
    /// endpoints are handed back; decide whether the slot re-arms or is
    /// evicted. A `Rearm` verdict after the horizon cutoff is ignored.
    fn on_close(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
        outcome: &EpochOutcome,
        initiator: Self::Initiator,
        responder: Self::Responder,
    ) -> SlotVerdict;

    /// Traffic class of `slot`'s epochs. The admission policy orders
    /// *same-tick* epoch fires by class before they are admitted; the
    /// default leaves every slot in [`ClassId::default`], under which
    /// the stock [`Fifo`] policy admits in slot order exactly like the
    /// pre-policy gateway.
    fn class(&self, slot: usize) -> ClassId {
        let _ = slot;
        ClassId::default()
    }
}

/// Knobs for [`run_persistent_gateway`].
#[derive(Debug, Clone)]
pub struct PersistentConfig {
    /// Last tick processed (the run covers ticks `1..=horizon`). Any
    /// epoch still live at the horizon closes as missed.
    pub horizon: u64,
    /// Ticks an epoch may stay live before its deadline timer
    /// force-closes it as missed (`0` = unbounded).
    pub epoch_budget: u64,
    /// Ordering discipline for same-tick epoch fires. The default
    /// [`Fifo`] admits in ascending slot order, reproducing the
    /// pre-policy gateway byte for byte.
    pub policy: Box<dyn AdmissionPolicy>,
}

impl Default for PersistentConfig {
    fn default() -> Self {
        Self {
            horizon: 4096,
            epoch_budget: 0,
            policy: Box::new(Fifo::new()),
        }
    }
}

/// Drives a fleet of long-lived keep-alive slots over one shared
/// transport. Each slot stays resident across its whole lifetime;
/// periodic re-attestation epochs are armed as timers on the runtime
/// timer wheel and the loop fast-forwards over the idle gaps between
/// epochs (nothing open and no carried frames ⇒ jump straight to the
/// next armed deadline). Within an epoch the per-tick cadence is
/// exactly [`run_gateway`]'s — the two drivers share one tick loop —
/// with unbounded admission: every fired epoch goes live on its fire
/// tick. Rotation restarts whenever a fire finds the gateway fully
/// idle, so a lone cohort of epochs replays a fresh [`run_gateway`]
/// run's rotation from zero.
///
/// `first_fire[i]` arms slot `i`'s first epoch; ticks start at 1 (a
/// `first_fire` of 0 fires at tick 1). Same-tick fires are ordered by
/// the configured admission policy over the controller's slot classes;
/// the default [`Fifo`] over default classes admits in slot order, so
/// a zero-jitter cohort builds its sessions in exactly the device
/// order a round-by-round sweep would.
///
/// Instrumentation: `keepalive.fire` / `keepalive.close` /
/// `keepalive.evict` / `keepalive.leave` instants per slot event,
/// `keepalive.late_frame` / `keepalive.unroutable` instants for
/// stragglers, a closing `keepalive.result` instant, and `keepalive.*`
/// counters plus a `keepalive.epoch_ticks` histogram in `registry`.
///
/// [`run_gateway`]: super::run_gateway
pub fn run_persistent_gateway<T: Transport, K: KeepAlive>(
    transport: &mut T,
    first_fire: &[u64],
    controller: &mut K,
    config: PersistentConfig,
    tracer: &mut Tracer,
    registry: &Registry,
) -> PersistentReport {
    let PersistentConfig {
        horizon,
        epoch_budget,
        policy,
    } = config;
    registry.counter("keepalive.slots", first_fire.len() as u64);
    let run = engine::run(
        transport,
        first_fire,
        controller,
        EngineConfig {
            flavor: Flavor::KeepAlive,
            horizon,
            epoch_budget,
            max_active: usize::MAX,
            accept_queue: usize::MAX,
            policy,
        },
        tracer,
        registry,
    );

    registry.counter("keepalive.epochs_fired", run.epochs_fired);
    registry.counter("keepalive.epochs_completed", run.epochs_completed);
    registry.counter("keepalive.epochs_failed", run.epochs_failed);
    registry.counter("keepalive.epochs_missed", run.epochs_missed);
    registry.counter("keepalive.left", run.left as u64);
    registry.counter("keepalive.evicted", run.evicted as u64);
    registry.counter("keepalive.retransmits", run.retransmits);
    registry.counter("keepalive.late_frames", run.late_frames);
    registry.counter("keepalive.unroutable_frames", run.unroutable_frames);
    registry.counter("keepalive.undecodable_frames", run.undecodable_frames);
    registry.counter("keepalive.session_steps", run.session_steps);
    registry.counter("keepalive.dense_equiv_steps", run.resident_dense_steps);

    let report = PersistentReport {
        slots: first_fire.len(),
        joined: run.joined,
        left: run.left,
        evicted: run.evicted,
        ticks: run.ticks,
        epochs_fired: run.epochs_fired,
        epochs_completed: run.epochs_completed,
        epochs_failed: run.epochs_failed,
        epochs_missed: run.epochs_missed,
        retransmits: run.retransmits,
        late_frames: run.late_frames,
        unroutable_frames: run.unroutable_frames,
        undecodable_frames: run.undecodable_frames,
        peak_live: run.peak_live,
        session_steps: run.session_steps,
        dense_equiv_steps: run.resident_dense_steps,
    };
    if tracer.is_enabled() {
        tracer.instant(
            report.ticks,
            "keepalive.result",
            vec![
                ("slots", Value::from(report.slots)),
                ("joined", Value::from(report.joined)),
                ("left", Value::from(report.left)),
                ("evicted", Value::from(report.evicted)),
                ("epochs_fired", Value::from(report.epochs_fired)),
                ("epochs_completed", Value::from(report.epochs_completed)),
                ("epochs_missed", Value::from(report.epochs_missed)),
                ("session_steps", Value::from(report.session_steps)),
            ],
        );
    }
    report
}
