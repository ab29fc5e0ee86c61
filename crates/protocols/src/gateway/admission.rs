//! Admission policies: who leaves the backlog next.
//!
//! The gateway funnels every would-be session through one question —
//! *which queued request is admitted next?* — and delegates the answer
//! to an [`AdmissionPolicy`]. The policy sees an opaque
//! [`AdmissionRequest`] (slot index, traffic [`ClassId`], submission
//! tick) and hands back slot indices one at a time; everything else
//! about scheduling (accept-queue bounds, live-set capacity, tick
//! cadence) stays in the gateway's tick loop.
//!
//! Two policies ship:
//!
//! * [`Fifo`] — the default. Strict submission order, reproducing the
//!   pre-policy gateway byte for byte (the golden transcripts pin
//!   this).
//! * [`DeficitWeightedRoundRobin`] — per-class FIFO queues served by a
//!   deficit round-robin ring with weight-proportional quanta. Every
//!   backlogged class is served each ring cycle, so no class can be
//!   head-of-line-blocked into starvation by another class's burst.
//!
//! Both are deterministic: identical push/pop sequences yield
//! identical admission orders on any host at any thread count.

use crate::wire::ProtocolId;
use std::collections::{BTreeMap, VecDeque};

/// Traffic class of one session: the unit of admission fairness.
///
/// Classes are a *host-side* scheduling tag — they never appear on the
/// wire, so tagging sessions changes no frame encoding. The default
/// derivation maps each protocol to its own class (same numbering as
/// the envelope protocol tag); fleets can override per session, e.g.
/// [`ClassId::CONTROL_AUTH`] vs [`ClassId::INFERENCE`] devices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u8);

impl ClassId {
    /// Control-plane authentication traffic (fleet auth/attestation
    /// keep-alives).
    pub const CONTROL_AUTH: ClassId = ClassId(16);
    /// Accelerator inference traffic (secure NN batches).
    pub const INFERENCE: ClassId = ClassId(17);

    /// The default class of a session: one class per protocol, numbered
    /// like the envelope protocol tag.
    pub fn from_protocol(protocol: ProtocolId) -> Self {
        match protocol {
            ProtocolId::MutualAuth => ClassId(1),
            ProtocolId::Attestation => ClassId(2),
            ProtocolId::Eke => ClassId(3),
            ProtocolId::SecureNn => ClassId(4),
        }
    }

    /// Human-readable label for traces, registry keys and reports.
    pub fn label(self) -> String {
        match self.0 {
            1 => "mutual_auth".to_string(),
            2 => "attestation".to_string(),
            3 => "eke".to_string(),
            4 => "secure_nn".to_string(),
            16 => "control_auth".to_string(),
            17 => "inference".to_string(),
            n => format!("class{n}"),
        }
    }
}

/// One queued admission candidate, as the gateway describes it to a
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRequest {
    /// Driver slot index; returned verbatim by [`AdmissionPolicy::pop`].
    pub idx: usize,
    /// Traffic class the request is queued under.
    pub class: ClassId,
    /// Tick the request entered the backlog.
    pub submitted: u64,
}

/// Backlog ordering discipline of one gateway run.
///
/// The gateway pushes every submitted session once and pops whenever
/// accept-queue space frees up; the policy owns the queued set in
/// between. Implementations must be deterministic — `pop` order is a
/// pure function of the push history — because the golden transcripts
/// and the 1-vs-N-thread CI diffs pin the resulting schedules byte for
/// byte.
pub trait AdmissionPolicy: std::fmt::Debug {
    /// Short policy name for reports and registry keys.
    fn name(&self) -> &'static str;

    /// Queues one admission candidate.
    fn push(&mut self, request: AdmissionRequest);

    /// Dequeues the next slot index to admit, or `None` when empty.
    fn pop(&mut self) -> Option<usize>;

    /// Requests currently queued.
    fn len(&self) -> usize;

    /// Whether no request is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh instance with the same configuration (weights) and an
    /// *empty* queue — how `Box<dyn AdmissionPolicy>`
    /// clones. Configs are cloned between runs, never mid-run, so the
    /// queued state is deliberately not carried over.
    fn fresh(&self) -> Box<dyn AdmissionPolicy>;
}

impl Clone for Box<dyn AdmissionPolicy> {
    fn clone(&self) -> Self {
        self.fresh()
    }
}

/// Strict submission order — the default policy, byte-identical to the
/// pre-policy gateway (all golden transcripts pin it).
#[derive(Debug, Clone, Default)]
pub struct Fifo {
    queue: VecDeque<usize>,
}

impl Fifo {
    /// An empty FIFO backlog.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AdmissionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn push(&mut self, request: AdmissionRequest) {
        self.queue.push_back(request.idx);
    }

    fn pop(&mut self) -> Option<usize> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn fresh(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(Fifo::new())
    }
}

/// Deficit weighted round robin over traffic classes.
///
/// Each class keeps a FIFO queue; backlogged classes sit on a service
/// ring. The class at the ring head is granted a quantum of admissions
/// proportional to its weight (unit cost per session), then the ring
/// rotates. A class's deficit is reset when its queue drains, so idle
/// classes bank no credit. Within a class, order is strict FIFO —
/// which makes a single-class run byte-identical to [`Fifo`].
///
/// Starvation-freedom: every ring cycle serves every backlogged class
/// at least `weight` admissions, so under any overload a class's wait
/// for its next admission is bounded by one ring cycle — no class can
/// postpone another indefinitely.
#[derive(Debug, Clone)]
pub struct DeficitWeightedRoundRobin {
    weights: BTreeMap<ClassId, u64>,
    default_weight: u64,
    queues: BTreeMap<ClassId, VecDeque<usize>>,
    deficit: BTreeMap<ClassId, u64>,
    /// Backlogged classes in service order. Invariant: a class is on
    /// the ring iff its queue is non-empty.
    ring: VecDeque<ClassId>,
    queued: usize,
}

impl Default for DeficitWeightedRoundRobin {
    fn default() -> Self {
        Self::new()
    }
}

impl DeficitWeightedRoundRobin {
    /// An empty scheduler where every class weighs 1 (plain round
    /// robin).
    pub fn new() -> Self {
        Self {
            weights: BTreeMap::new(),
            default_weight: 1,
            queues: BTreeMap::new(),
            deficit: BTreeMap::new(),
            ring: VecDeque::new(),
            queued: 0,
        }
    }

    /// Sets `class`'s quantum to `weight` admissions per ring cycle
    /// (clamped to at least 1).
    pub fn with_weight(mut self, class: ClassId, weight: u64) -> Self {
        self.weights.insert(class, weight.max(1));
        self
    }

    /// Sets the quantum of every class not named by
    /// [`with_weight`](Self::with_weight) (clamped to at least 1).
    pub fn with_default_weight(mut self, weight: u64) -> Self {
        self.default_weight = weight.max(1);
        self
    }

    /// The quantum `class` is granted per ring cycle.
    pub fn weight(&self, class: ClassId) -> u64 {
        self.weights
            .get(&class)
            .copied()
            .unwrap_or(self.default_weight)
    }
}

impl AdmissionPolicy for DeficitWeightedRoundRobin {
    fn name(&self) -> &'static str {
        "dwrr"
    }

    fn push(&mut self, request: AdmissionRequest) {
        let queue = self.queues.entry(request.class).or_default();
        if queue.is_empty() {
            // Re-entering the ring: no banked credit from an idle spell.
            self.deficit.insert(request.class, 0);
            self.ring.push_back(request.class);
        }
        queue.push_back(request.idx);
        self.queued += 1;
    }

    fn pop(&mut self) -> Option<usize> {
        let &class = self.ring.front()?;
        // invariant: a class on the ring always has a non-empty queue,
        // so the entry lookups below cannot miss.
        let quantum = self.weight(class);
        let deficit = self.deficit.entry(class).or_insert(0);
        if *deficit == 0 {
            // The class reached the ring head: replenish its quantum.
            *deficit = quantum;
        }
        *deficit -= 1;
        let spent = *deficit == 0;
        let queue = self.queues.entry(class).or_default();
        let idx = queue.pop_front()?;
        self.queued -= 1;
        if queue.is_empty() {
            self.ring.pop_front();
            self.deficit.insert(class, 0);
        } else if spent {
            self.ring.pop_front();
            self.ring.push_back(class);
        }
        Some(idx)
    }

    fn len(&self) -> usize {
        self.queued
    }

    fn fresh(&self) -> Box<dyn AdmissionPolicy> {
        Box::new(Self {
            weights: self.weights.clone(),
            default_weight: self.default_weight,
            queues: BTreeMap::new(),
            deficit: BTreeMap::new(),
            ring: VecDeque::new(),
            queued: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(idx: usize, class: u8) -> AdmissionRequest {
        AdmissionRequest {
            idx,
            class: ClassId(class),
            submitted: 0,
        }
    }

    fn drain(policy: &mut dyn AdmissionPolicy) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(idx) = policy.pop() {
            order.push(idx);
        }
        order
    }

    #[test]
    fn fifo_preserves_submission_order() {
        let mut p = Fifo::new();
        for i in 0..8 {
            p.push(req(i, (i % 3) as u8));
        }
        assert_eq!(drain(&mut p), (0..8).collect::<Vec<_>>());
        assert!(p.is_empty());
    }

    #[test]
    fn dwrr_single_class_is_fifo() {
        let mut p = DeficitWeightedRoundRobin::new();
        for i in 0..16 {
            p.push(req(i, 1));
        }
        assert_eq!(drain(&mut p), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn dwrr_equal_weights_alternate_classes() {
        let mut p = DeficitWeightedRoundRobin::new();
        // Class 1 floods first; class 2 arrives behind it.
        for i in 0..4 {
            p.push(req(i, 1));
        }
        for i in 4..8 {
            p.push(req(i, 2));
        }
        assert_eq!(drain(&mut p), vec![0, 4, 1, 5, 2, 6, 3, 7]);
    }

    #[test]
    fn dwrr_weights_set_the_interleave_ratio() {
        let mut p = DeficitWeightedRoundRobin::new()
            .with_weight(ClassId(1), 3)
            .with_weight(ClassId(2), 1);
        for i in 0..6 {
            p.push(req(i, 1));
        }
        for i in 6..8 {
            p.push(req(i, 2));
        }
        // Three of class 1 per one of class 2.
        assert_eq!(drain(&mut p), vec![0, 1, 2, 6, 3, 4, 5, 7]);
    }

    #[test]
    fn dwrr_is_starvation_free_under_flood() {
        let mut p = DeficitWeightedRoundRobin::new();
        for i in 0..1000 {
            p.push(req(i, 1)); // the flood
        }
        p.push(req(1000, 2)); // the victim, dead last
        let order = drain(&mut p);
        let victim_at = order.iter().position(|&i| i == 1000).unwrap();
        assert!(
            victim_at <= 1,
            "victim class must be served within one ring cycle, got position {victim_at}"
        );
    }

    #[test]
    fn dwrr_interleaves_late_arrivals() {
        let mut p = DeficitWeightedRoundRobin::new();
        for i in 0..3 {
            p.push(req(i, 1));
        }
        assert_eq!(p.pop(), Some(0));
        // Class 2 arrives mid-service: it joins the ring and is served
        // on the next rotation.
        p.push(req(10, 2));
        assert_eq!(drain(&mut p), vec![1, 10, 2]);
    }

    #[test]
    fn boxed_clone_keeps_configuration_but_not_queue() {
        let mut p: Box<dyn AdmissionPolicy> =
            Box::new(DeficitWeightedRoundRobin::new().with_weight(ClassId(7), 5));
        p.push(req(0, 7));
        let clone = p.clone();
        assert_eq!(clone.len(), 0, "clone starts empty");
        assert_eq!(clone.name(), "dwrr");
        assert_eq!(p.len(), 1, "original keeps its queue");
    }

    #[test]
    fn class_labels_are_stable() {
        assert_eq!(
            ClassId::from_protocol(ProtocolId::MutualAuth).label(),
            "mutual_auth"
        );
        assert_eq!(ClassId::CONTROL_AUTH.label(), "control_auth");
        assert_eq!(ClassId::INFERENCE.label(), "inference");
        assert_eq!(ClassId(200).label(), "class200");
    }
}
