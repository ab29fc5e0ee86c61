//! The four workloads. Every input is derived here from `--seed`; the
//! library receives only the generated inputs.

pub mod attest_walk;
pub mod fleet;
pub mod gateway_mix;
pub mod secure_inference;

use crate::ladder::LadderInputs;
use crate::timed::{Clocked, Instrument, PairClock, Plain, Traced};
use neuropuls_crypto::sha256::Sha256;
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::SessionPair;
use neuropuls_protocols::wire::{ProtocolId, Session};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Session configuration shared by every workload: a deep ARQ budget,
/// so a 10%-loss link costs retransmits, never sessions (one frame
/// dropped eleven times in a row is ~1e-11).
pub const SESSION_RETRIES: u32 = 10;

/// What one round did. `ops` counts completed units of work; the
/// deterministic fields feed the digest that traced and untraced passes
/// must agree on.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Host latency of every attempted op; failures read `u64::MAX`, so
    /// they miss any latency limit.
    pub latencies_ns: Vec<u64>,
    /// Deterministic per-round counters (retransmits, scheduler steps,
    /// exact call counts the protocol fixes), summed across rounds.
    pub counters: BTreeMap<&'static str, u64>,
    /// Deterministic per-round maxima, kept as maxima across rounds.
    pub peaks: BTreeMap<&'static str, u64>,
    /// Deterministic transcript of outcomes, hashed into `digest`.
    pub record: Vec<u8>,
    pub digest: [u8; 32],
    /// Output checks passed.
    pub correct: bool,
}

impl RoundOutcome {
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    pub fn peak(&mut self, name: &'static str, v: u64) {
        let slot = self.peaks.entry(name).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Appends `text` (a `Debug` rendering of an outcome) to the record.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.record.extend_from_slice(text.as_ref().as_bytes());
        self.record.push(b'\n');
    }

    /// Seals the record: digest over the outcomes and the counters.
    pub fn seal(&mut self) {
        let counters = format!("{:?} {:?}", self.counters, self.peaks);
        self.digest = Sha256::digest_parts(&[&self.record, counters.as_bytes()]);
    }

    /// Records one op's latency from its pair clock.
    pub fn clocked(&mut self, clock: &PairClock) {
        self.attempted += 1;
        match clock.latency_ns() {
            Some(ns) => self.latencies_ns.push(ns),
            None => {
                self.failed += 1;
                self.latencies_ns.push(u64::MAX);
            }
        }
    }
}

/// A gateway session pair whose sides stamp one shared [`PairClock`],
/// each side then instrumented by `inst`.
pub fn clocked_pair<'a, I: Instrument>(
    inst: &I,
    protocol: ProtocolId,
    sid: u64,
    initiator: impl Session + 'a,
    responder: impl Session + 'a,
) -> (SessionPair<'a>, Rc<PairClock>) {
    let clock = Rc::new(PairClock::default());
    let pair = SessionPair::new(
        protocol,
        sid,
        inst.boxed(Clocked::new(initiator, clock.clone()), protocol, sid),
        inst.boxed(Clocked::new(responder, clock.clone()), protocol, sid),
    );
    (pair, clock)
}

/// One workload, generic over how it is instrumented.
pub trait Workload<I: Instrument>: Sized {
    /// Builds every input and device from `seed` (timed as set-up).
    fn setup(seed: u64, inst: I) -> Self;
    /// Runs round `round` (timed).
    fn round(&mut self, round: u64) -> RoundOutcome;
    /// Checks the round's outputs and seals its digest (untimed).
    fn verify(&mut self, outcome: &mut RoundOutcome);
}

/// Static description of a workload.
pub struct Info {
    pub name: &'static str,
    pub why: &'static str,
    /// The unit of work `ops_per_s` and the latency metrics count.
    pub op: &'static str,
    /// Name and items-per-op of the throughput in the workload's own
    /// unit (e.g. inferences per batched session).
    pub rate_name: &'static str,
    pub rate_unit: &'static str,
    pub items_per_op: f64,
    /// The tail percentile reported (tenths of a percent). A run keeps
    /// measuring until at least ten latency samples lie beyond it.
    pub tail: u32,
    /// Output checks made once per run (untimed).
    pub self_check: fn(u64) -> Result<(), String>,
    pub ladder_inputs: fn(u64) -> LadderInputs,
}

pub const ALL: [&Info; 4] = [
    &fleet::INFO,
    &gateway_mix::INFO,
    &secure_inference::INFO,
    &attest_walk::INFO,
];

pub fn info(name: &str) -> Option<&'static Info> {
    ALL.into_iter().find(|w| w.name == name)
}

/// Dispatches `f` on the plain and traced builds of workload `name`.
pub trait Visit {
    type Out;
    fn visit<P: Workload<Plain>, T: Workload<Traced>>(self, info: &'static Info) -> Self::Out;
}

pub fn dispatch<V: Visit>(name: &str, v: V) -> Option<V::Out> {
    let info = info(name)?;
    Some(match name {
        "fleet_keepalive" => v.visit::<fleet::Fleet<Plain>, fleet::Fleet<Traced>>(info),
        "gateway_mix" => v.visit::<gateway_mix::Mix<Plain>, gateway_mix::Mix<Traced>>(info),
        "secure_inference" => {
            v.visit::<secure_inference::Inference<Plain>, secure_inference::Inference<Traced>>(info)
        }
        _ => v.visit::<attest_walk::Walk<Plain>, attest_walk::Walk<Traced>>(info),
    })
}

/// SplitMix64 of `seed` and a stream label: independent, reproducible
/// sub-seeds for every input a workload derives.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Die identities of a seeded population.
pub fn dies(seed: u64, stream: u64, n: usize) -> Vec<DieId> {
    (0..n as u64)
        .map(|i| DieId(mix(mix(seed, stream), i)))
        .collect()
}

/// `n` seeded bytes.
pub fn bytes(seed: u64, stream: u64, n: usize) -> Vec<u8> {
    (0..n as u64)
        .map(|i| mix(mix(seed, stream), i / 8).to_le_bytes()[(i % 8) as usize])
        .collect()
}
