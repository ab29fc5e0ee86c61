//! `fleet_keepalive`: resident devices re-attesting on jittered timers
//! through `run_persistent_gateway`, driven by a benchmark-side
//! [`KeepAlive`] controller that mirrors `run_fleet_persistent`'s (the
//! oracle in [`self_check`] pins the two to identical epoch records)
//! and stamps host time at `on_fire` / `on_close`.

use super::{dies, mix, Info, RoundOutcome, Workload, SESSION_RETRIES};
use crate::ladder::LadderInputs;
use crate::timed::{Instrument, Layer, Plain};
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::{
    run_persistent_gateway, ClassId, EpochOutcome, EpochSession, Fifo, KeepAlive, PersistentConfig,
    PersistentReport, SlotVerdict,
};
use neuropuls_protocols::mutual_auth::{
    Device as AuthDevice, Verifier as AuthVerifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_rt::{Rng, SeedableRng};
use neuropuls_system::crp_store::{CrpStore, CrpStoreConfig};
use neuropuls_system::fleet::{run_fleet_persistent, EpochRecord, PersistentFleetConfig};
use std::time::Instant;

pub const INFO: Info = Info {
    name: "fleet_keepalive",
    why: "resident devices re-attest on jittered timers over one 10%-loss link; noisy PUF reads, the keep-alive gateway, timer wheel and CRP store dominate",
    op: "epoch",
    rate_name: "epochs_per_s",
    rate_unit: "1/s",
    items_per_op: 1.0,
    tail: 990,
    self_check,
    ladder_inputs,
};

/// Resident devices, in cohorts: each round runs one cohort's
/// keep-alive gateway for two epochs per device, with a re-arm and an
/// idle fast-forward in between. Short rounds give each run many
/// samples of the host's speed.
const DEVICES: usize = 256;
const COHORT: usize = 32;
const EPOCHS_PER_ROUND: u32 = 2;
const PERIOD: u64 = 512;
const JITTER: u64 = 64;
const LOSS: f64 = 0.10;
const EPOCH_BUDGET: u64 = 128;
const MAX_CONSECUTIVE_FAILURES: u32 = 2;
/// Immediate re-attempts of a failed re-attestation. A noisy PUF read
/// beyond the code's correction capacity rejects an epoch on a perfect
/// link too (about one epoch in 10^4); a deployment retries it, and so
/// does the workload, so no operation fails.
const RETRIES: u32 = 8;
const HORIZON: u64 = 1 << 16;
const CRP: CrpStoreConfig = CrpStoreConfig {
    shards: 4,
    hot_capacity: 4,
};

/// Everything that defines one provisioned fleet.
struct Params {
    dies: Vec<DieId>,
    noise_seed: u64,
    memory: Vec<u8>,
    device_seed: Vec<u8>,
    verifier_seed: Vec<u8>,
    crp: CrpStoreConfig,
    jitter_seed: u64,
    period: u64,
    jitter: u64,
    epochs_per_device: u32,
    max_consecutive_failures: u32,
    epoch_budget: u64,
    retries: u32,
    session: SessionConfig,
}

impl Params {
    fn workload(seed: u64) -> Self {
        Params {
            dies: dies(seed, 1, DEVICES),
            noise_seed: mix(seed, 2),
            memory: super::bytes(seed, 3, 256),
            device_seed: mix(seed, 4).to_le_bytes().to_vec(),
            verifier_seed: mix(seed, 5).to_le_bytes().to_vec(),
            crp: CRP,
            jitter_seed: mix(seed, 6),
            period: PERIOD,
            jitter: JITTER,
            epochs_per_device: EPOCHS_PER_ROUND,
            max_consecutive_failures: MAX_CONSECUTIVE_FAILURES,
            epoch_budget: EPOCH_BUDGET,
            retries: RETRIES,
            session: SessionConfig {
                max_retries: SESSION_RETRIES,
                ..SessionConfig::default()
            },
        }
    }

    /// The provisioning `run_fleet_persistent` performs for `cfg`.
    fn library(cfg: &PersistentFleetConfig) -> Self {
        Params {
            dies: (0..cfg.devices as u64)
                .map(|i| DieId(0xF1_A000 + i))
                .collect(),
            noise_seed: 1,
            memory: (0..256).map(|b| (b * 17 % 249) as u8).collect(),
            device_seed: b"fleet-auth".to_vec(),
            verifier_seed: b"fleet-auth-verifier".to_vec(),
            crp: CrpStoreConfig {
                shards: cfg.crp_shards,
                hot_capacity: cfg.crp_hot_capacity,
            },
            jitter_seed: cfg.seed ^ 0x17E2_0000_0000_0000,
            period: cfg.reattest_period,
            jitter: cfg.jitter,
            epochs_per_device: cfg.epochs_per_device,
            max_consecutive_failures: cfg.max_consecutive_failures,
            epoch_budget: cfg.epoch_budget,
            retries: 0,
            session: SessionConfig {
                max_retries: cfg.session_retries,
                ..SessionConfig::default()
            },
        }
    }
}

/// The keep-alive controller: owns the devices, fronts the verifier
/// records with the CRP store (checkout at fire, commit at close),
/// re-arms on the jittered period and evicts after consecutive
/// failures — `run_fleet_persistent`'s policy — plus host-time stamps
/// and, when `retries > 0`, immediate re-attempts of failed epochs.
/// Gateway slot `s` of a run is device `base + s`.
struct Controller<I: Instrument> {
    inst: I,
    devices: Vec<Option<AuthDevice<I::Puf>>>,
    store: CrpStore<AuthVerifier>,
    jitter_rngs: Vec<StdRng>,
    period: u64,
    jitter: u64,
    epochs_per_device: u32,
    max_consecutive_failures: u32,
    retries: u32,
    cfg: SessionConfig,
    epoch_budget: u64,
    /// Per-run state, indexed by slot.
    base: usize,
    slots: usize,
    last_fire: Vec<u64>,
    fails: Vec<u32>,
    /// Re-attempts of the slot's current re-attestation, and of the
    /// whole run (which do not count against the epoch quota).
    op_retries: Vec<u32>,
    run_retries: Vec<u32>,
    fired_at: Vec<Option<Instant>>,
    records: Vec<EpochRecord>,
    /// One entry per re-attestation: host ns from its first fire to the
    /// close that ended it; `u64::MAX` when every attempt failed.
    latencies_ns: Vec<u64>,
}

impl<I: Instrument> Controller<I> {
    fn provision(inst: I, p: &Params) -> Self {
        let mut store = CrpStore::new(p.crp);
        let devices = p
            .dies
            .iter()
            .enumerate()
            .map(|(i, &die)| {
                let puf = inst.puf(PhotonicPuf::reference(die, p.noise_seed));
                let (device, provisioned) =
                    AuthDevice::provision(puf, p.memory.clone(), &p.device_seed).ok()?;
                let verifier = AuthVerifier::new(provisioned, &p.verifier_seed);
                store.enroll(i as u64, verifier).ok()?;
                Some(device)
            })
            .collect();
        Controller {
            inst,
            devices,
            store,
            jitter_rngs: (0..p.dies.len() as u64)
                .map(|i| StdRng::seed_from_u64(p.jitter_seed ^ i))
                .collect(),
            period: p.period,
            jitter: p.jitter,
            epochs_per_device: p.epochs_per_device,
            max_consecutive_failures: p.max_consecutive_failures,
            retries: p.retries,
            cfg: p.session,
            epoch_budget: p.epoch_budget,
            base: 0,
            slots: 0,
            last_fire: Vec::new(),
            fails: Vec::new(),
            op_retries: Vec::new(),
            run_retries: Vec::new(),
            fired_at: Vec::new(),
            records: Vec::new(),
            latencies_ns: Vec::new(),
        }
    }

    fn draw_jitter(&mut self, slot: usize) -> u64 {
        if self.jitter == 0 {
            0
        } else {
            self.jitter_rngs[self.base + slot].gen_range(0..self.jitter + 1)
        }
    }

    /// One `run_persistent_gateway` call over devices `base..base + slots`.
    fn run(&mut self, link_seed: u64, base: usize, slots: usize) -> PersistentReport {
        self.base = base;
        self.slots = slots;
        self.last_fire = vec![0; slots];
        self.fails = vec![0; slots];
        self.op_retries = vec![0; slots];
        self.run_retries = vec![0; slots];
        self.fired_at = vec![None; slots];
        self.records.clear();
        self.latencies_ns.clear();
        let first_fire: Vec<u64> = (0..slots).map(|s| 1 + self.draw_jitter(s)).collect();
        let inst = self.inst.clone();
        let mut link = inst.link(FaultyChannel::new(FaultRates::loss(LOSS), link_seed));
        let config = PersistentConfig {
            horizon: HORIZON,
            epoch_budget: self.epoch_budget,
            policy: inst.policy(Box::new(Fifo::new())),
        };
        let report = inst.span(Layer::Gateway, None, || {
            run_persistent_gateway(
                &mut link,
                &first_fire,
                self,
                config,
                &mut Tracer::disabled(),
                &Registry::new(),
            )
        });
        self.records.sort_unstable_by_key(|r| (r.device, r.epoch));
        report
    }
}

impl<I: Instrument> KeepAlive for Controller<I> {
    type Initiator = I::Session<WireVerifier<AuthVerifier>>;
    type Responder = I::Session<WireDevice<AuthDevice<I::Puf>, I::Puf>>;

    fn on_fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Self::Initiator, Self::Responder>> {
        let stamp = Instant::now();
        let inst = self.inst.clone();
        inst.span(Layer::FleetController, Some(0), || {
            if epoch - self.run_retries[slot] >= self.epochs_per_device {
                return None;
            }
            let d = self.base + slot;
            let device = self.devices[d].take()?;
            let Ok(verifier) = inst.span(Layer::CrpStore, None, || self.store.checkout(d as u64))
            else {
                self.devices[d] = Some(device);
                return None;
            };
            self.last_fire[slot] = now;
            self.fired_at[slot].get_or_insert(stamp);
            let sid = u64::from(epoch) * self.slots as u64 + slot as u64 + 1;
            let p = ProtocolId::MutualAuth;
            Some(EpochSession {
                protocol: p,
                id: sid,
                initiator: inst.session(WireVerifier::new(verifier, sid, self.cfg), p, sid),
                responder: inst.session(WireDevice::new(device, self.cfg), p, sid),
            })
        })
    }

    fn on_close(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
        outcome: &EpochOutcome,
        initiator: Self::Initiator,
        responder: Self::Responder,
    ) -> SlotVerdict {
        let stamp = Instant::now();
        let inst = self.inst.clone();
        inst.span(Layer::FleetController, Some(0), || {
            let d = self.base + slot;
            let verifier = I::unwrap_session(initiator).into_inner();
            let device = I::unwrap_session(responder).into_inner();
            // Every commit follows its own checkout, so it cannot fail.
            let _ = inst.span(Layer::CrpStore, None, || {
                self.store.commit(d as u64, verifier)
            });
            self.devices[d] = Some(device);
            let (ok, ticks, error) = match &outcome.result {
                Ok(t) => (true, *t, None),
                Err(e) => (false, 0, Some(format!("{e:?}"))),
            };
            self.records.push(EpochRecord {
                device: slot,
                epoch,
                ok,
                ticks,
                retransmits: outcome.retransmits,
                missed: outcome.missed_deadline,
                error,
            });
            if !ok && self.op_retries[slot] < self.retries {
                self.op_retries[slot] += 1;
                self.run_retries[slot] += 1;
                return SlotVerdict::Rearm { at: now + 1 };
            }
            self.op_retries[slot] = 0;
            let latency = match self.fired_at[slot].take() {
                Some(fired) if ok => stamp.duration_since(fired).as_nanos() as u64,
                _ => u64::MAX,
            };
            self.latencies_ns.push(latency);
            if ok {
                self.fails[slot] = 0;
            } else {
                self.fails[slot] += 1;
                if self.max_consecutive_failures > 0
                    && self.fails[slot] >= self.max_consecutive_failures
                {
                    return SlotVerdict::Evict;
                }
            }
            let j = self.draw_jitter(slot);
            SlotVerdict::Rearm {
                at: self.last_fire[slot] + self.period + j,
            }
        })
    }

    fn class(&self, _slot: usize) -> ClassId {
        ClassId::CONTROL_AUTH
    }
}

pub struct Fleet<I: Instrument> {
    ctl: Controller<I>,
    seed: u64,
}

impl<I: Instrument> Workload<I> for Fleet<I> {
    fn setup(seed: u64, inst: I) -> Self {
        Fleet {
            ctl: Controller::provision(inst, &Params::workload(seed)),
            seed,
        }
    }

    fn round(&mut self, round: u64) -> RoundOutcome {
        let crp_before = self.ctl.store.stats();
        let base = (round as usize % (DEVICES / COHORT)) * COHORT;
        let report = self.ctl.run(mix(mix(self.seed, 7), round), base, COHORT);
        let crp = self.ctl.store.stats();
        let latencies_ns = std::mem::take(&mut self.ctl.latencies_ns);
        let retries: u32 = self.ctl.run_retries.iter().sum();
        // An evicted device's remaining re-attestations never ran: they
        // count as failed too.
        let expected = COHORT as u64 * u64::from(EPOCHS_PER_ROUND);
        let ended = latencies_ns.len() as u64;
        let mut out = RoundOutcome {
            attempted: expected,
            failed: latencies_ns.iter().filter(|&&ns| ns == u64::MAX).count() as u64
                + expected.saturating_sub(ended),
            latencies_ns,
            ..RoundOutcome::default()
        };
        out.count("gateway.session_steps", report.session_steps);
        out.count("gateway.dense_equiv_steps", report.dense_equiv_steps);
        out.count("transport.retransmits", report.retransmits);
        out.count("crp_store.hits", crp.hits - crp_before.hits);
        out.count("crp_store.misses", crp.misses - crp_before.misses);
        out.count("fleet.retried_epochs", u64::from(retries));
        out.note(format!("{report:?}"));
        for r in &self.ctl.records {
            out.note(format!("{r:?}"));
        }
        out
    }

    fn verify(&mut self, out: &mut RoundOutcome) {
        for r in self.ctl.records.iter().filter(|r| !r.ok) {
            eprintln!("fleet_keepalive: epoch attempt failed: {r:?}");
        }
        // Conservation: every fired epoch closed exactly once, every
        // re-attestation ended once, and every device came back.
        let retried = out
            .counters
            .get("fleet.retried_epochs")
            .copied()
            .unwrap_or(0);
        out.correct = self.ctl.records.len() as u64 == out.latencies_ns.len() as u64 + retried
            && self.ctl.devices.iter().all(Option::is_some);
        out.seal();
    }
}

/// Oracle: on a 16-device config the benchmark's controller produces
/// exactly `run_fleet_persistent`'s epoch records and aggregates.
pub fn self_check(_seed: u64) -> Result<(), String> {
    let cfg = PersistentFleetConfig {
        devices: 16,
        ..PersistentFleetConfig::default()
    };
    let library = run_fleet_persistent(&cfg, &mut Tracer::disabled(), &Registry::new());
    let mut ctl = Controller::provision(Plain, &Params::library(&cfg));
    let ours = ctl.run(cfg.seed ^ 0xA117_0000_0000_0000, 0, cfg.devices);
    let same = ctl.records == library.records
        && ours.epochs_fired == library.epochs_fired
        && ours.epochs_completed == library.epochs_completed
        && ours.epochs_missed == library.epochs_missed
        && ours.retransmits == library.retransmits
        && ours.ticks == library.ticks
        && ours.session_steps == library.session_steps
        && ctl.store.stats() == library.crp;
    if same && library.epochs_fired > 0 {
        Ok(())
    } else {
        Err(format!(
            "fleet controller diverges from run_fleet_persistent: {ours:?} vs {library:?}"
        ))
    }
}

fn ladder_inputs(seed: u64) -> LadderInputs {
    let p = Params::workload(seed);
    LadderInputs {
        dies: p.dies,
        noise_seed: p.noise_seed,
        crp: p.crp,
        ..LadderInputs::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{Recorder, Traced};

    /// The persistent gateway reports the same run, record for record,
    /// with every decorator wrapped around its traits and without.
    #[test]
    fn persistent_gateway_is_identical_with_and_without_wrappers() {
        let cfg = PersistentFleetConfig {
            devices: 3,
            epochs_per_device: 2,
            // One cohort: same-tick fires go through the admission policy.
            jitter: 0,
            ..PersistentFleetConfig::default()
        };
        let params = Params::library(&cfg);
        let rec = Recorder::new();
        let mut plain = Controller::provision(Plain, &params);
        let mut traced = Controller::provision(Traced(rec.clone()), &params);
        let a = plain.run(7, 0, cfg.devices);
        let b = traced.run(7, 0, cfg.devices);
        assert!(a.epochs_completed > 0, "{a:?}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(plain.records, traced.records);
        let times = rec.layer_times();
        for layer in [
            Layer::Gateway,
            Layer::Session(ProtocolId::MutualAuth),
            Layer::PufRespond,
            Layer::Transport,
            Layer::Admission,
            Layer::CrpStore,
            Layer::FleetController,
        ] {
            assert!(
                times.get(&layer).is_some_and(|t| t.calls > 0),
                "{layer:?} was never timed"
            );
        }
    }
}
