//! The gateway's one tick loop. [`run_gateway`] and
//! [`run_persistent_gateway`] are both this engine plus a [`KeepAlive`]
//! controller: the engine owns routes, inboxes, the timer wheel,
//! admission, rotation, carry and close; the controller owns what a
//! slot's sessions are and whether the slot stays resident.
//!
//! [`run_gateway`]: super::run_gateway
//! [`run_persistent_gateway`]: super::run_persistent_gateway

use super::admission::{AdmissionPolicy, AdmissionRequest};
use super::persistent::{EpochOutcome, KeepAlive, SlotVerdict};
use super::protocol_label;
use crate::error::ProtocolError;
use crate::transport::{Side, Transport};
use crate::wire::{Envelope, ProtocolId, Session, SessionAction};
use neuropuls_rt::codec::FromBytes;
use neuropuls_rt::sched::{TimerId, TimerWheel};
use neuropuls_rt::trace::{Registry, Tracer, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Which public driver the engine runs as. It fixes trace names, the
/// tick origin the caller sees and when the run ends — never a knob.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Flavor {
    /// [`run_gateway`](super::run_gateway): each slot is one session.
    /// Events are `gateway.*` on 0-based ticks, and the run ends when
    /// the last session closes.
    OneShot,
    /// [`run_persistent_gateway`](super::run_persistent_gateway):
    /// resident slots firing epochs. Events are `keepalive.*`, and the
    /// run ends when no timer is armed and nothing is left to route.
    KeepAlive,
}

/// Per-flavor names of the events and metrics the engine records.
struct Names {
    label: &'static str,
    late_frame: &'static str,
    unroutable: &'static str,
    ticks_histogram: &'static str,
}

impl Flavor {
    fn names(self) -> &'static Names {
        match self {
            Flavor::OneShot => &Names {
                label: "gateway",
                late_frame: "gateway.late_frame",
                unroutable: "gateway.unroutable",
                ticks_histogram: "gateway.session_ticks",
            },
            Flavor::KeepAlive => &Names {
                label: "keepalive",
                late_frame: "keepalive.late_frame",
                unroutable: "keepalive.unroutable",
                ticks_histogram: "keepalive.epoch_ticks",
            },
        }
    }

    /// Engine ticks start at 1; a one-shot run reports them 0-based.
    fn tick_base(self) -> u64 {
        match self {
            Flavor::OneShot => 1,
            Flavor::KeepAlive => 0,
        }
    }
}

/// The failure of a session whose envelope key is already taken.
pub(super) fn duplicate_key(flavor: Flavor, protocol: ProtocolId, id: u64) -> ProtocolError {
    ProtocolError::OutOfOrder(format!(
        "duplicate {} session key {}/{id}",
        flavor.names().label,
        protocol_label(protocol)
    ))
}

/// Knobs of one engine run, filled in by the public drivers.
pub(super) struct EngineConfig {
    pub(super) flavor: Flavor,
    /// Last engine tick processed; epochs still open then are cut off.
    pub(super) horizon: u64,
    /// Ticks an admitted epoch may stay live (`0` = unbounded).
    pub(super) epoch_budget: u64,
    /// Bound on the live set.
    pub(super) max_active: usize,
    /// Bound on the accept queue between the backlog and the live set.
    pub(super) accept_queue: usize,
    /// Orders fired epochs out of the backlog.
    pub(super) policy: Box<dyn AdmissionPolicy>,
}

/// What one engine run did. The drivers fold it into their reports.
#[derive(Default)]
pub(super) struct EngineStats {
    /// Last engine tick processed.
    pub(super) ticks: u64,
    pub(super) joined: usize,
    pub(super) left: usize,
    pub(super) evicted: usize,
    pub(super) epochs_fired: u64,
    pub(super) epochs_completed: u64,
    pub(super) epochs_failed: u64,
    pub(super) epochs_missed: u64,
    pub(super) retransmits: u64,
    pub(super) late_frames: u64,
    pub(super) unroutable_frames: u64,
    pub(super) undecodable_frames: u64,
    pub(super) peak_live: usize,
    pub(super) peak_staged: usize,
    pub(super) session_steps: u64,
    /// Steps a dense every-live-session-every-tick loop would have made,
    /// reconstructed per epoch at close.
    pub(super) epoch_dense_steps: u64,
    /// Steps a dense loop polling every resident slot on every tick of
    /// its residency would have made.
    pub(super) resident_dense_steps: u64,
    /// Per slot, the reported tick its latest epoch was admitted at.
    pub(super) admitted_at: Vec<Option<u64>>,
}

/// Event-scheduling bookkeeping for one side of one epoch.
#[derive(Clone, Copy, Default)]
struct WakeState {
    /// Tick of the next dense-loop step not yet replayed: every dense
    /// step before it has been applied, either directly or folded into
    /// a [`Session::skip_silence`] fast-forward.
    next_dense_step: u64,
    /// Armed timer for the side's announced wake deadline.
    timer: Option<TimerId>,
    /// Tick this side first reported done (`None` while in flight).
    done_tick: Option<u64>,
    /// Steps taken after done — frame-driven duplicate re-serves.
    post_done_steps: u64,
}

/// One fired epoch: backlogged or staged until admitted, then live.
struct Epoch<I, R> {
    protocol: ProtocolId,
    id: u64,
    epoch: u32,
    initiator: I,
    responder: R,
    inbox_a: VecDeque<Vec<u8>>,
    inbox_b: VecDeque<Vec<u8>>,
    wake_a: WakeState,
    wake_b: WakeState,
    admitted_at: Option<u64>,
    deadline: Option<TimerId>,
    /// Set by a failing `Session::step`; success is computed at close.
    result: Option<Result<u32, ProtocolError>>,
    /// Which side's step failure closed the epoch (the dense step
    /// reconstruction needs it).
    failed_side: Option<Side>,
}

/// One slot: resident from its first fire until it leaves or is
/// evicted, holding at most one epoch at a time.
struct Slot<I, R> {
    epoch: Option<Epoch<I, R>>,
    next_epoch: u32,
    joined_at: Option<u64>,
    departed: bool,
}

/// Why an epoch closes. Every cause goes through [`Engine::close`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cause {
    /// Both sides finished, or one failed, during this tick's steps.
    Stepped,
    /// The epoch budget ran out.
    Expired,
    /// The epoch's key belongs to another open epoch.
    Duplicate,
    /// The run horizon cut it off.
    Horizon,
}

/// Timer-token kinds: `token = slot * 4 + kind`.
const KIND_WAKE_A: u64 = 0;
const KIND_WAKE_B: u64 = 1;
const KIND_FIRE: u64 = 2;
const KIND_DEADLINE: u64 = 3;

fn token(idx: usize, kind: u64) -> u64 {
    ((idx as u64) << 2) | kind
}

fn wake_kind(side: Side) -> u64 {
    match side {
        Side::A => KIND_WAKE_A,
        Side::B => KIND_WAKE_B,
    }
}

/// Runs one gateway: `first_fire[i]` arms slot `i`'s first epoch (engine
/// ticks start at 1, so `0` fires at tick 1) and the loop runs until
/// the flavor's end condition or past `config.horizon`.
///
/// Each processed tick:
///
/// 1. **Timers** — due wakes make sides runnable; due budget deadlines
///    close their epochs as missed.
/// 2. **Fire** — due slots get their epoch from the controller, which
///    enters the backlog (a duplicate key fails instead).
/// 3. **Admit** — the policy drains the backlog into the bounded accept
///    queue, which fills free live capacity in FIFO order; admitted
///    sides arm their first wake.
/// 4. **Route A / step A / route B / step B** — frames land in inboxes
///    and each runnable side steps once, in tick-rotated order.
/// 5. **Close** — epochs that finished or failed close in that order.
pub(super) fn run<T: Transport, K: KeepAlive>(
    transport: &mut T,
    first_fire: &[u64],
    controller: &mut K,
    config: EngineConfig,
    tracer: &mut Tracer,
    registry: &Registry,
) -> EngineStats {
    let n = first_fire.len();
    let mut wheel = TimerWheel::new();
    for (i, &at) in first_fire.iter().enumerate() {
        wheel.schedule_at(at, token(i, KIND_FIRE));
    }
    let mut engine = Engine {
        transport,
        controller,
        tracer,
        registry,
        flavor: config.flavor,
        base: config.flavor.tick_base(),
        epoch_budget: config.epoch_budget,
        max_active: config.max_active,
        accept_queue: config.accept_queue,
        policy: config.policy,
        slots: (0..n)
            .map(|_| Slot {
                epoch: None,
                next_epoch: 0,
                joined_at: None,
                departed: false,
            })
            .collect(),
        wheel,
        routes: BTreeMap::new(),
        closed_keys: BTreeSet::new(),
        staged: VecDeque::new(),
        live: Vec::new(),
        position: vec![usize::MAX; n],
        busy_base: 0,
        carry_a: Vec::new(),
        carry_b: Vec::new(),
        touched: Vec::new(),
        resident: n,
        stats: EngineStats {
            admitted_at: vec![None; n],
            ..EngineStats::default()
        },
    };

    let mut tick = 0u64;
    loop {
        if engine.flavor == Flavor::OneShot && engine.resident == 0 {
            break;
        }
        // Pick the next tick anything can happen on. With nothing open
        // and no carried frames, jump straight to the next armed timer
        // — the idle fast-forward between attestation epochs.
        let next = if engine.is_idle() {
            match engine.wheel.next_deadline() {
                Some(d) => d,
                None => break,
            }
        } else {
            tick + 1
        };
        if next > config.horizon {
            break;
        }
        tick = next;
        engine.tick(tick);
    }
    engine.stats.ticks = tick;

    // Horizon cutoff: epochs still open close as missed so the
    // controller always gets its endpoints back (e.g. to commit CRP
    // checkouts). Rearm verdicts are moot — the run is over.
    for i in 0..engine.slots.len() {
        if let Some(epoch) = engine.retire(i) {
            engine.close(i, epoch, Cause::Horizon, tick);
        }
    }
    for i in 0..engine.slots.len() {
        if !engine.slots[i].departed {
            engine.stats.resident_dense_steps += engine.residency(i, tick);
        }
    }
    engine.stats
}

struct Engine<'r, T, K: KeepAlive> {
    transport: &'r mut T,
    controller: &'r mut K,
    tracer: &'r mut Tracer,
    registry: &'r Registry,
    flavor: Flavor,
    base: u64,
    epoch_budget: u64,
    max_active: usize,
    accept_queue: usize,
    policy: Box<dyn AdmissionPolicy>,
    slots: Vec<Slot<K::Initiator, K::Responder>>,
    wheel: TimerWheel,
    /// Envelope key -> slot of every fired, still-open epoch.
    routes: BTreeMap<(ProtocolId, u64), usize>,
    /// Keys of closed epochs: their stragglers count as late frames.
    closed_keys: BTreeSet<(ProtocolId, u64)>,
    staged: VecDeque<usize>,
    /// Live slots in admission order; `position[i]` is slot `i`'s index
    /// here (`usize::MAX` when not live).
    live: Vec<usize>,
    position: Vec<usize>,
    /// Tick the rotation counts from. Reset only when a tick admits into
    /// a fully idle gateway, so a lone cohort rotates exactly like a
    /// run started at its admission tick, while a backlog refilling an
    /// emptied live set keeps the run's rotation.
    busy_base: u64,
    /// Sides whose inbox still holds frames after this tick's step:
    /// runnable again next tick (one frame per side per tick).
    carry_a: Vec<usize>,
    carry_b: Vec<usize>,
    touched: Vec<usize>,
    /// Slots that have not departed.
    resident: usize,
    stats: EngineStats,
}

impl<T: Transport, K: KeepAlive> Engine<'_, T, K> {
    /// No epoch live, staged or backlogged, and no frame carried.
    fn is_idle(&self) -> bool {
        self.live.is_empty()
            && self.staged.is_empty()
            && self.policy.is_empty()
            && self.carry_a.is_empty()
            && self.carry_b.is_empty()
    }

    fn tick(&mut self, tick: u64) {
        let mut now_a: Vec<usize> = std::mem::take(&mut self.carry_a);
        let mut now_b: Vec<usize> = std::mem::take(&mut self.carry_b);

        let mut fired: Vec<(u64, u64)> = Vec::new();
        self.wheel.advance_to(tick, &mut fired);
        let mut fires: Vec<usize> = Vec::new();
        let mut expired: Vec<usize> = Vec::new();
        for &(_, token) in &fired {
            let idx = (token >> 2) as usize;
            match token & 3 {
                KIND_WAKE_A => now_a.push(idx),
                KIND_WAKE_B => now_b.push(idx),
                KIND_FIRE => fires.push(idx),
                _ => expired.push(idx),
            }
        }
        // The wheel yields same-deadline timers in schedule order, i.e.
        // the close order of earlier epochs; slot order is canonical.
        fires.sort_unstable();
        expired.sort_unstable();

        // Phase 1 — budget expiries close before anything steps.
        for &i in &expired {
            if let Some(epoch) = self.retire(i) {
                self.close(i, epoch, Cause::Expired, tick);
            }
        }
        if !expired.is_empty() {
            self.reindex_live();
        }

        // Phases 2/3 — fire, then admit through the bounded queues.
        let was_idle = self.live.is_empty() && self.staged.is_empty() && self.policy.is_empty();
        for &i in &fires {
            self.fire(i, tick);
        }
        while self.staged.len() < self.accept_queue {
            match self.policy.pop() {
                Some(i) => self.staged.push_back(i),
                None => break,
            }
        }
        self.stats.peak_staged = self.stats.peak_staged.max(self.staged.len());
        while self.live.len() < self.max_active {
            match self.staged.pop_front() {
                Some(i) => self.admit(i, tick, was_idle, &mut now_a, &mut now_b),
                None => break,
            }
        }
        self.stats.peak_live = self.stats.peak_live.max(self.live.len());

        // Phase 4 — fair rotation: which live epoch transmits first
        // cycles with the tick, so early slots get no standing head
        // start on the shared wire.
        let len = self.live.len();
        let rotation = if len == 0 {
            0
        } else {
            ((tick - self.busy_base) as usize) % len
        };
        for (side, now) in [(Side::A, &mut now_a), (Side::B, &mut now_b)] {
            self.route(side, tick, now);
            for idx in self.runnable_order(now, len, rotation) {
                self.step(idx, side, tick);
            }
        }

        // Phase 5 — close finished and failed epochs. Only epochs
        // stepped this tick can newly satisfy a close condition; visit
        // them in rotation order.
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable_by_key(|&idx| (self.position[idx] + len - rotation) % len);
        touched.dedup();
        let mut any_closed = false;
        for &i in &touched {
            let closing = self.slots[i].epoch.as_ref().is_some_and(|ep| {
                ep.result.is_some() || (ep.initiator.done() && ep.responder.done())
            });
            if closing {
                if let Some(epoch) = self.retire(i) {
                    self.close(i, epoch, Cause::Stepped, tick);
                    any_closed = true;
                }
            }
        }
        touched.clear();
        self.touched = touched;
        if any_closed {
            self.reindex_live();
        }
    }

    /// A slot's fire timer expired: the controller builds its next
    /// epoch, which enters the backlog, or the slot leaves.
    fn fire(&mut self, i: usize, tick: u64) {
        let slot = &mut self.slots[i];
        if slot.epoch.is_some() || slot.departed {
            // Re-arms clamp into the future, so a slot cannot fire while
            // its previous epoch is open; be safe anyway.
            return;
        }
        let epoch = slot.next_epoch;
        slot.next_epoch += 1;
        if slot.joined_at.is_none() {
            slot.joined_at = Some(tick);
            self.stats.joined += 1;
        }
        let now = tick - self.base;
        let Some(es) = self.controller.on_fire(i, epoch, now) else {
            self.stats.left += 1;
            self.depart(i, tick);
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    tick,
                    "keepalive.leave",
                    vec![("slot", Value::from(i as u64))],
                );
            }
            return;
        };
        self.stats.epochs_fired += 1;
        if self.flavor == Flavor::KeepAlive && self.tracer.is_enabled() {
            self.tracer.instant(
                tick,
                "keepalive.fire",
                vec![
                    ("slot", Value::from(i as u64)),
                    ("epoch", Value::from(u64::from(epoch))),
                    ("protocol", Value::from(protocol_label(es.protocol))),
                    ("session", Value::from(es.id)),
                ],
            );
        }
        let key = (es.protocol, es.id);
        let fresh = Epoch {
            protocol: es.protocol,
            id: es.id,
            epoch,
            initiator: es.initiator,
            responder: es.responder,
            inbox_a: VecDeque::new(),
            inbox_b: VecDeque::new(),
            wake_a: WakeState::default(),
            wake_b: WakeState::default(),
            admitted_at: None,
            deadline: None,
            result: None,
            failed_side: None,
        };
        if self.routes.contains_key(&key) {
            // The key is taken by another open epoch: fail this one
            // instantly instead of hijacking the route.
            self.close(i, fresh, Cause::Duplicate, tick);
            return;
        }
        self.routes.insert(key, i);
        self.closed_keys.remove(&key);
        self.slots[i].epoch = Some(fresh);
        self.policy.push(AdmissionRequest {
            idx: i,
            class: self.controller.class(i),
            submitted: now,
        });
    }

    /// Moves a staged epoch into the live set and arms its sides' first
    /// wakes. A dense loop steps a fresh side at the admission tick
    /// itself, so a side announcing `In(n)` fires at `tick + n - 1`;
    /// frames queued before admission make it runnable immediately.
    fn admit(
        &mut self,
        i: usize,
        tick: u64,
        was_idle: bool,
        now_a: &mut Vec<usize>,
        now_b: &mut Vec<usize>,
    ) {
        let Some(ep) = self.slots[i].epoch.as_mut() else {
            return;
        };
        ep.admitted_at = Some(tick);
        self.stats.admitted_at[i] = Some(tick - self.base);
        if self.flavor == Flavor::OneShot && self.tracer.is_enabled() {
            self.tracer.instant(
                tick - self.base,
                "gateway.admit",
                vec![
                    ("protocol", Value::from(protocol_label(ep.protocol))),
                    ("session", Value::from(ep.id)),
                ],
            );
        }
        if self.epoch_budget > 0 {
            ep.deadline = Some(
                self.wheel
                    .schedule_at(tick + self.epoch_budget, token(i, KIND_DEADLINE)),
            );
        }
        for side in [Side::A, Side::B] {
            let (session, inbox, wake, now): (&dyn Session, _, _, &mut Vec<usize>) = match side {
                Side::A => (&ep.initiator, &ep.inbox_a, &mut ep.wake_a, &mut *now_a),
                Side::B => (&ep.responder, &ep.inbox_b, &mut ep.wake_b, &mut *now_b),
            };
            wake.next_dense_step = tick;
            let deadline = session.next_wake().admission_deadline(tick);
            if !inbox.is_empty() || deadline == Some(tick) {
                now.push(i);
            } else if let Some(d) = deadline {
                wake.timer = Some(self.wheel.schedule_at(d, token(i, wake_kind(side))));
            }
        }
        if was_idle && self.live.is_empty() {
            self.busy_base = tick;
        }
        self.position[i] = self.live.len();
        self.live.push(i);
    }

    /// Drains one transport direction into open epochs' inboxes, making
    /// live receivers runnable. Closed-epoch keys are late, never-seen
    /// keys unroutable, undecodable bytes are counted and dropped.
    fn route(&mut self, side: Side, tick: u64, pending: &mut Vec<usize>) {
        let names = self.flavor.names();
        while let Some(frame) = self.transport.recv(side) {
            let Ok(env) = Envelope::from_bytes(&frame) else {
                self.stats.undecodable_frames += 1;
                continue;
            };
            let key = (env.protocol, env.session);
            let name = if let Some(&idx) = self.routes.get(&key) {
                let Some(ep) = self.slots.get_mut(idx).and_then(|s| s.epoch.as_mut()) else {
                    self.stats.unroutable_frames += 1;
                    continue;
                };
                match side {
                    Side::A => ep.inbox_a.push_back(frame),
                    Side::B => ep.inbox_b.push_back(frame),
                }
                // Epochs still queued for admission keep the frame and
                // become runnable when admitted.
                if ep.admitted_at.is_some() {
                    pending.push(idx);
                }
                continue;
            } else if self.closed_keys.contains(&key) {
                self.stats.late_frames += 1;
                names.late_frame
            } else {
                self.stats.unroutable_frames += 1;
                names.unroutable
            };
            if self.tracer.is_enabled() {
                self.tracer.instant(
                    tick - self.base,
                    name,
                    vec![
                        ("protocol", Value::from(protocol_label(env.protocol))),
                        ("session", Value::from(env.session)),
                    ],
                );
            }
        }
    }

    /// Dedups one tick's candidate runnable sides and orders them by the
    /// tick-rotated round-robin over the live set. Stale candidates
    /// (epochs no longer live) are dropped.
    fn runnable_order(&self, cand: &mut Vec<usize>, len: usize, rotation: usize) -> Vec<usize> {
        if len == 0 {
            cand.clear();
            return Vec::new();
        }
        let mut keyed: Vec<(usize, usize)> = cand
            .drain(..)
            .filter_map(|idx| {
                let p = *self.position.get(idx)?;
                (p != usize::MAX).then(|| ((p + len - rotation) % len, idx))
            })
            .collect();
        keyed.sort_unstable();
        keyed.dedup();
        keyed.into_iter().map(|(_, idx)| idx).collect()
    }

    /// Steps one runnable side of one live epoch with at most one inbox
    /// frame, after replaying the silent steps a dense loop would have
    /// taken since the side's last real step. Mirrors the per-tick
    /// cadence of [`crate::wire::drive`]: a finished side with an empty
    /// inbox is left alone (its clock stops), a finished side *with* a
    /// frame still steps so it can re-serve duplicates, and a step
    /// failure closes the epoch. Re-arms the side's wake timer from
    /// [`Session::next_wake`] and carries the side to the next tick when
    /// its inbox still holds frames.
    fn step(&mut self, idx: usize, side: Side, tick: u64) {
        let Some(ep) = self.slots.get_mut(idx).and_then(|s| s.epoch.as_mut()) else {
            return;
        };
        if ep.result.is_some() {
            return;
        }
        let (session, inbox, wake): (&mut dyn Session, _, _) = match side {
            Side::A => (&mut ep.initiator, &mut ep.inbox_a, &mut ep.wake_a),
            Side::B => (&mut ep.responder, &mut ep.inbox_b, &mut ep.wake_b),
        };
        let frame = inbox.pop_front();
        let queued_after = !inbox.is_empty();
        let was_done = session.done();
        if frame.is_none() && was_done {
            return;
        }
        if !was_done {
            // The `NextWake` contract guarantees the frameless steps
            // since the last real one were all silent idle-clock ticks.
            let gap = tick.saturating_sub(wake.next_dense_step);
            if gap > 0 {
                session.skip_silence(gap as u32);
            }
        }
        self.stats.session_steps += 1;
        let step_result = session.step(frame.as_deref());
        let now_done = session.done();
        let wants = if step_result.is_ok() && !now_done {
            Some(session.next_wake())
        } else {
            None
        };
        wake.next_dense_step = tick + 1;
        if was_done {
            wake.post_done_steps += 1;
        } else if now_done && wake.done_tick.is_none() {
            wake.done_tick = Some(tick);
        }
        if let Some(id) = wake.timer.take() {
            self.wheel.cancel(id);
        }
        if let Some(d) = wants.and_then(|w| w.rearm_deadline(tick)) {
            wake.timer = Some(self.wheel.schedule_at(d, token(idx, wake_kind(side))));
        }
        self.touched.push(idx);
        match step_result {
            Ok(SessionAction::Send(f)) => self.transport.send(side, f),
            Ok(SessionAction::Wait | SessionAction::Done) => {}
            Err(e) => {
                ep.result = Some(Err(e));
                ep.failed_side = Some(side);
            }
        }
        if ep.result.is_none() && queued_after {
            match side {
                Side::A => self.carry_a.push(idx),
                Side::B => self.carry_b.push(idx),
            }
        }
    }

    /// Takes slot `i`'s open epoch, cancelling its timers and retiring
    /// its route so stragglers count as late.
    fn retire(&mut self, i: usize) -> Option<Epoch<K::Initiator, K::Responder>> {
        let mut ep = self.slots.get_mut(i)?.epoch.take()?;
        for timer in [
            ep.wake_a.timer.take(),
            ep.wake_b.timer.take(),
            ep.deadline.take(),
        ]
        .into_iter()
        .flatten()
        {
            self.wheel.cancel(timer);
        }
        self.routes.remove(&(ep.protocol, ep.id));
        self.closed_keys.insert((ep.protocol, ep.id));
        Some(ep)
    }

    /// The one close path: tallies the epoch, traces it, hands the
    /// endpoints back to the controller and applies its verdict.
    fn close(
        &mut self,
        i: usize,
        mut ep: Epoch<K::Initiator, K::Responder>,
        cause: Cause,
        tick: u64,
    ) {
        let r = ep.initiator.retransmits() + ep.responder.retransmits();
        self.stats.retransmits += u64::from(r);
        let ta = ep.admitted_at.unwrap_or(tick);
        let result = match cause {
            Cause::Stepped => ep.result.take().unwrap_or(Ok((tick - ta + 1) as u32)),
            Cause::Duplicate => Err(duplicate_key(self.flavor, ep.protocol, ep.id)),
            Cause::Expired | Cause::Horizon => Err(ProtocolError::Timeout { retries: r }),
        };
        let missed = matches!(cause, Cause::Expired | Cause::Horizon);
        match &result {
            Ok(t) => {
                self.stats.epochs_completed += 1;
                self.registry
                    .observe(self.flavor.names().ticks_histogram, f64::from(*t));
            }
            Err(_) if missed => self.stats.epochs_missed += 1,
            Err(_) => self.stats.epochs_failed += 1,
        }
        self.stats.epoch_dense_steps += dense_steps_at_close(&ep, tick);
        if self.tracer.is_enabled() {
            let ok = result.is_ok();
            match self.flavor {
                Flavor::OneShot if cause == Cause::Stepped => {
                    // A failing tick does not count as an active tick.
                    let ticks = (tick - ta + u64::from(ok)) as u32;
                    self.tracer.instant(
                        tick - self.base,
                        "gateway.session_closed",
                        vec![
                            ("protocol", Value::from(protocol_label(ep.protocol))),
                            ("session", Value::from(ep.id)),
                            ("ok", Value::from(ok)),
                            ("ticks", Value::from(ticks)),
                            ("retransmits", Value::from(r)),
                        ],
                    );
                }
                Flavor::KeepAlive if cause != Cause::Duplicate => {
                    self.tracer.instant(
                        tick,
                        "keepalive.close",
                        vec![
                            ("slot", Value::from(i as u64)),
                            ("epoch", Value::from(u64::from(ep.epoch))),
                            ("ok", Value::from(ok)),
                            ("missed", Value::from(missed)),
                            ("retransmits", Value::from(r)),
                        ],
                    );
                }
                _ => {}
            }
        }
        let outcome = EpochOutcome {
            result,
            retransmits: r,
            missed_deadline: missed,
        };
        let verdict = self.controller.on_close(
            i,
            ep.epoch,
            tick - self.base,
            &outcome,
            ep.initiator,
            ep.responder,
        );
        match verdict {
            SlotVerdict::Rearm { at } => {
                self.wheel.schedule_at(at + self.base, token(i, KIND_FIRE));
            }
            SlotVerdict::Evict => {
                self.stats.evicted += 1;
                self.depart(i, tick);
                if self.flavor == Flavor::KeepAlive && self.tracer.is_enabled() {
                    self.tracer.instant(
                        tick,
                        "keepalive.evict",
                        vec![("slot", Value::from(i as u64))],
                    );
                }
            }
        }
    }

    /// Ends slot `i`'s residency at `tick`.
    fn depart(&mut self, i: usize, tick: u64) {
        self.slots[i].departed = true;
        self.resident -= 1;
        self.stats.resident_dense_steps += self.residency(i, tick);
    }

    /// Steps a dense no-timer loop would have spent keeping slot `i`
    /// resident: two polls (one per side) on every tick from its join
    /// to `end`, inclusive.
    fn residency(&self, i: usize, end: u64) -> u64 {
        match self.slots[i].joined_at {
            Some(j) => 2 * (end.saturating_sub(j) + 1),
            None => 0,
        }
    }

    /// Rebuilds the live order and position index after closes.
    fn reindex_live(&mut self) {
        let (slots, position) = (&self.slots, &mut self.position);
        self.live.retain(|&idx| {
            let keep = slots[idx]
                .epoch
                .as_ref()
                .is_some_and(|ep| ep.admitted_at.is_some());
            if !keep {
                position[idx] = usize::MAX;
            }
            keep
        });
        for (pos, &idx) in self.live.iter().enumerate() {
            self.position[idx] = pos;
        }
    }
}

/// `Session::step` calls a dense loop stepping every live session on
/// every tick would have made for this epoch, reconstructed when it
/// closes at `tick`. Per side: one step per live tick until the side
/// finished (or the epoch closed), plus the frame-driven steps a
/// finished side took to re-serve duplicates. Never-admitted epochs
/// cost nothing.
fn dense_steps_at_close<I, R>(ep: &Epoch<I, R>, tick: u64) -> u64 {
    let Some(ta) = ep.admitted_at else {
        return 0;
    };
    [(Side::A, &ep.wake_a), (Side::B, &ep.wake_b)]
        .into_iter()
        .map(|(side, wake)| {
            // The last tick a dense loop steps this side: the close
            // tick, except the responder of an epoch whose initiator
            // failed earlier in the same tick (its phase never runs).
            let last = if matches!((ep.failed_side, side), (Some(Side::A), Side::B)) {
                tick.saturating_sub(1)
            } else {
                tick
            };
            match wake.done_tick {
                Some(td) => (td - ta + 1) + wake.post_done_steps,
                None => (last + 1).saturating_sub(ta),
            }
        })
        .sum()
}
