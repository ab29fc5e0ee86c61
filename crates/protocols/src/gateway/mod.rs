//! Concurrent session gateway: many wire sessions, one transport.
//!
//! The §III drivers in [`crate::wire`] run exactly one session per
//! channel. A production verifier terminates *fleets*: hundreds of
//! devices authenticate, attest, key-exchange and stream inference
//! blobs over one physical link. This module multiplexes any number of
//! concurrent [`Session`] pairs — all four protocols mixed freely —
//! over a single shared [`Transport`] by demultiplexing on the
//! [`Envelope`] tags (`protocol`, `session`) that every frame already
//! carries.
//!
//! # Module tree
//!
//! | module | owns |
//! |---|---|
//! | [`mod@admission`] | [`ClassId`] traffic classes, [`AdmissionRequest`], the [`AdmissionPolicy`] trait and its [`Fifo`] / [`DeficitWeightedRoundRobin`] implementations |
//! | `engine` | the one tick loop: routes, inboxes, the timer wheel, bounded admission, rotation, carry, the single close path and both step accountings |
//! | `oneshot` | [`GatewayConfig`], [`SessionPair`] and [`run_gateway`] — the batch driver: the engine plus a private controller whose slots fire once |
//! | `persistent` | [`KeepAlive`], [`PersistentConfig`] and [`run_persistent_gateway`] — the resident keep-alive driver: the engine plus the caller's controller |
//! | `report` | [`GatewayReport`], [`PersistentReport`], [`ClassReport`] and the per-class registry accounting |
//!
//! # Scheduling model
//!
//! Both drivers run one deterministic *event-driven* tick loop over
//! *slots*. A slot fires epochs — [`run_gateway`] submits each session
//! as a slot that fires once on the first tick and is evicted when it
//! closes; [`run_persistent_gateway`] lets a [`KeepAlive`] controller
//! re-arm resident slots. The loop wakes a session side only when
//! something can actually happen to it — a frame arrived for it, or its
//! ARQ timer (announced via [`Session::next_wake`]) expires — and
//! fast-forwards the skipped silent steps in O(1) with
//! [`Session::skip_silence`]. Timers live in a
//! [`neuropuls_rt::sched::TimerWheel`], so per-tick work is
//! proportional to the number of *runnable* sides, not the number of
//! open sessions, and with nothing open the loop jumps straight to the
//! next armed timer.
//!
//! Each tick:
//!
//! 1. **Timers** — the wheel yields the sides whose ARQ deadline is
//!    now, the slots due to fire, and the epochs whose budget ran out
//!    (those close as missed before anything steps).
//! 2. **Fire** — each due slot gets its epoch from the controller; the
//!    epoch's key is routed and it enters the backlog.
//! 3. **Admit** — epochs move backlog → accept queue → live set. The
//!    backlog drains in the order chosen by the configured
//!    [`AdmissionPolicy`] ([`Fifo`] by default — submission order,
//!    byte-identical to the pre-policy gateway); [`run_gateway`] bounds
//!    the accept queue ([`GatewayConfig::accept_queue`]) and the live
//!    set ([`GatewayConfig::max_active`]), the keep-alive driver admits
//!    every fire at once. A session's ARQ clock only runs while it is
//!    live, so queued sessions cannot time out waiting for admission.
//!    Newly admitted sides arm their first wake.
//! 4. **Route A** — every frame pending on [`Side::A`] is decoded and
//!    appended to the owning epoch's initiator inbox; a live owner
//!    becomes runnable.
//! 5. **Step runnable initiators** — each runnable initiator is
//!    stepped with at most one inbox frame, in a tick-rotated
//!    round-robin over the live set, so no session systematically
//!    transmits first and the shared-wire send order is identical to a
//!    dense every-session-every-tick schedule.
//! 6. **Route B / step runnable responders** — the mirror image for
//!    [`Side::B`].
//! 7. **Close** — epochs stepped this tick whose two sides both
//!    finished (or either side failed) leave the live set, in rotation
//!    order, freeing capacity for the queue.
//!
//! The rotation counts from the last tick that admitted into a fully
//! idle gateway (nothing live, staged, backlogged or carried). A batch
//! run therefore rotates by `tick % live` from its first tick even when
//! the whole live set closes while a backlog waits, and an isolated
//! keep-alive cohort rotates like a batch run started at its fire tick.
//!
//! The wake contract makes this observationally identical to a dense
//! loop: a session reporting [`NextWake::In`]`(n)` guarantees its next
//! `n - 1` frameless steps are silent idle-clock ticks, which
//! `skip_silence` replays in one call right before the next real step.
//! The per-session cadence of [`crate::wire::drive`] is
//! preserved exactly: an initiator frame sent on tick *t* reaches the
//! responder on tick *t*, and the reply reaches the initiator on tick
//! *t + 1*. Over a lossless transport the gateway therefore produces,
//! per session, byte-identical wire transcripts to running each
//! session alone (`tests/` pins this property). Both reports carry the
//! dense counterfactual's step count next to the real one:
//! [`GatewayReport::dense_equiv_steps`] reconstructs each session's
//! dense steps at close, [`PersistentReport::dense_equiv_steps`]
//! charges every resident slot two polls per tick of residency.
//!
//! # Admission policies and traffic classes
//!
//! Every [`SessionPair`] carries a host-side [`ClassId`] (derived from
//! the protocol tag by default, overridable with
//! [`SessionPair::with_class`]; never encoded on the wire). The
//! backlog is owned by a boxed [`AdmissionPolicy`]:
//!
//! * [`Fifo`] — submission order. The default, and byte-identical to
//!   the pre-policy gateway on every golden transcript.
//! * [`DeficitWeightedRoundRobin`] — per-class deficit round-robin
//!   with configurable weights: every backlogged class is visited in
//!   rotation and admits sessions in proportion to its weight, so an
//!   overload burst in one class cannot head-of-line-block the others.
//!
//! [`GatewayReport::per_class`] breaks admissions and backlog waits
//! out per class (mirrored into the trace [`Registry`] as
//! `gateway.class.<label>.*`), which is what E24 (`exp E24`)
//! uses to show FIFO starving a minority class under overload while
//! DWRR bounds every class's p99 admission wait.
//!
//! # Demux rules
//!
//! * Frames that do not decode as an [`Envelope`] are dropped and
//!   counted (`undecodable_frames`); a session treats a missing frame
//!   exactly like decoded noise, so this cannot change behavior.
//! * Frames for an epoch still queued for admission wait in its inbox
//!   and make it runnable on admission.
//! * Frames whose `(protocol, session)` key matches a *closed* epoch
//!   are late arrivals — duplicates or reordered stragglers from a
//!   session that already completed. They are dropped and counted
//!   (`late_frames`), never silently lost.
//! * Frames with an unknown key are counted as `unroutable_frames`.
//!
//! The gateway itself is single-threaded and allocation-light;
//! fleet-scale runs fan out *independent* gateways (one per shared
//! link) on `neuropuls_rt::pool`, whose ordered-merge contract keeps
//! the aggregate deterministic under any thread count.
//!
//! [`Session`]: crate::wire::Session
//! [`Session::next_wake`]: crate::wire::Session::next_wake
//! [`Session::skip_silence`]: crate::wire::Session::skip_silence
//! [`Transport`]: crate::transport::Transport
//! [`Envelope`]: crate::wire::Envelope
//! [`Side::A`]: crate::transport::Side::A
//! [`Side::B`]: crate::transport::Side::B
//! [`NextWake::In`]: crate::wire::NextWake::In
//! [`Registry`]: neuropuls_rt::trace::Registry

pub mod admission;
mod engine;
mod oneshot;
mod persistent;
mod report;

pub use admission::{AdmissionPolicy, AdmissionRequest, ClassId, DeficitWeightedRoundRobin, Fifo};
pub use oneshot::{run_gateway, GatewayConfig, SessionPair};
pub use persistent::{
    run_persistent_gateway, EpochOutcome, EpochSession, KeepAlive, PersistentConfig, SlotVerdict,
};
pub use report::{ClassReport, GatewayOutcome, GatewayReport, PersistentReport};

use crate::wire::ProtocolId;

/// Human-readable protocol label for traces and reports.
pub fn protocol_label(protocol: ProtocolId) -> &'static str {
    match protocol {
        ProtocolId::MutualAuth => "mutual_auth",
        ProtocolId::Attestation => "attestation",
        ProtocolId::Eke => "eke",
        ProtocolId::SecureNn => "secure_nn",
    }
}

#[cfg(test)]
mod tests;
