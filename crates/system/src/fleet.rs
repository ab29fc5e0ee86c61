//! Fleet-scale attestation scheduling on the runtime timer wheel.
//!
//! §V's "holistic approach to modeling and simulating a heterogeneous
//! system" includes the verifier side: an edge deployment has one or
//! more verifiers attesting many devices on a period. [`run_fleet`]
//! schedules a device fleet on a [`TimerWheel`] and measures verifier
//! utilization, queue depth and per-device turnaround — the
//! capacity-planning numbers a deployment needs.
//!
//! Accounting contract (the E17 regression tests pin these):
//!
//! * `verifier_utilization` is busy time **clamped to the horizon**
//!   divided by `horizon × verifiers`, so it can never exceed 1.0 even
//!   when the farm is saturated and checks spill past the horizon;
//! * `attestations` counts exactly the requests whose verdict landed
//!   within the horizon (`requests − in_flight_at_horizon`);
//! * `mean_turnaround_us` averages over those same completed requests
//!   (the numerator and denominator describe the same population);
//! * `max_backlog` counts requests *waiting* for a verifier — a request
//!   being served is not backlog, and only requests that actually
//!   queued decrement the backlog when they finish.
//!
//! Control-link authentication lives in one driver,
//! [`run_fleet_persistent`]: every device stays resident in the
//! keep-alive gateway over **one shared lossy link**, re-authenticating
//! (§III-A) on timer-armed epochs, with its enrollment record checked
//! out of a sharded, cache-fronted [`CrpStore`] per epoch and the
//! rotated CRP committed back. After its campaign, [`run_fleet`] runs
//! its `auth_sessions` rounds as one zero-jitter keep-alive run and
//! reports completions, retransmissions, previous-CRP desync
//! recoveries, late frames and CRP-cache effectiveness across the
//! fleet.

use crate::crp_store::{CrpStore, CrpStoreConfig, CrpStoreStats};
use neuropuls_photonic::process::DieId;
use neuropuls_protocols::attestation::{AttestationVerifier, AttestingDevice, TimingModel};
use neuropuls_protocols::gateway::{
    run_persistent_gateway, ClassId, EpochOutcome, EpochSession, KeepAlive, PersistentConfig,
    SlotVerdict,
};
use neuropuls_protocols::mutual_auth::{
    Device as AuthDevice, Verifier as AuthVerifier, WireDevice, WireVerifier,
};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::sched::TimerWheel;
use neuropuls_rt::trace::{Registry, SpanId, Tracer};
use neuropuls_rt::{Rng, SeedableRng};

/// One device of the fleet.
struct FleetDevice {
    device: AttestingDevice,
    verifier: AttestationVerifier,
    memory_bytes: usize,
    compromised: bool,
}

/// An attestation check dispatched to a verifier, awaiting its verdict.
struct Check {
    /// Device index.
    idx: usize,
    /// Verdict of the attestation.
    ok: bool,
    /// Nanosecond at which the request was issued.
    requested_at: u64,
    /// Whether the request waited for a busy verifier farm.
    queued: bool,
    /// Trace span opened when the check was dispatched (id 0 when
    /// tracing is disabled).
    span: SpanId,
}

/// Wheel ticks between the control link's authentication rounds: long
/// enough that a round over a lossy link closes before the next fires.
const AUTH_ROUND_PERIOD: u64 = 512;

/// Aggregate results of a fleet campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetReport {
    /// Devices attested.
    pub devices: usize,
    /// Verifiers in the farm.
    pub verifiers: usize,
    /// Attestation requests issued within the horizon.
    pub requests: usize,
    /// Attestations completed within the horizon.
    pub attestations: usize,
    /// Requests still being checked (or queued) when the horizon hit.
    pub in_flight_at_horizon: usize,
    /// Attestations that passed.
    pub passed: usize,
    /// Compromised devices that were caught (all of them must be).
    pub compromised_caught: usize,
    /// Compromised devices planted.
    pub compromised_planted: usize,
    /// Farm busy fraction over the campaign: horizon-clamped busy time
    /// divided by `horizon × verifiers`. Always in `[0, 1]`.
    pub verifier_utilization: f64,
    /// Maximum number of requests simultaneously waiting for a free
    /// verifier.
    pub max_backlog: usize,
    /// Mean turnaround (request → verdict) in µs over the requests that
    /// completed within the horizon.
    pub mean_turnaround_us: f64,
    /// Mutual-authentication wire sessions attempted over the lossy
    /// control link (`devices × auth_sessions`).
    pub auth_attempted: usize,
    /// Control-link sessions that completed despite frame loss.
    pub auth_completed: usize,
    /// ARQ retransmissions spent across all control-link sessions.
    pub auth_retransmits: u64,
    /// Previous-CRP desynchronization recoveries across the fleet.
    pub auth_desync_recoveries: u64,
    /// Frames that arrived for already-closed sessions on the shared
    /// link (counted by the keep-alive gateway — never silently
    /// dropped).
    pub auth_late_frames: u64,
    /// CRP-store cache counters across the control-link phase.
    pub crp: CrpStoreStats,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of devices.
    pub devices: usize,
    /// Number of verifiers sharing the request queue (a verifier farm).
    pub verifiers: usize,
    /// Attestation period per device, µs of simulated time.
    pub period_us: f64,
    /// Campaign length, µs.
    pub horizon_us: f64,
    /// Fraction of devices planted with corrupted memory.
    pub compromised_fraction: f64,
    /// RNG seed (device sizes, stagger, compromise selection).
    pub seed: u64,
    /// Mutual-authentication sessions each device runs over the lossy
    /// control link after the attestation campaign (0 disables).
    pub auth_sessions: usize,
    /// Frame-loss probability of the control link carrying those
    /// sessions.
    pub auth_loss_rate: f64,
    /// Shards of the CRP/enrollment store backing the control link.
    pub crp_shards: usize,
    /// Hot-set capacity per CRP-store shard.
    pub crp_hot_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 8,
            verifiers: 1,
            period_us: 20.0,
            horizon_us: 100.0,
            compromised_fraction: 0.25,
            seed: 0xF1EE7,
            auth_sessions: 2,
            auth_loss_rate: 0.1,
            crp_shards: 4,
            crp_hot_capacity: 4,
        }
    }
}

/// Runs the fleet campaign.
///
/// Each verifier is a serial resource; a request takes the earliest
/// available verifier (ties broken by verifier index, so the schedule is
/// deterministic) and queues when all are busy. Device walk time and
/// verifier check time both follow the photonic timing model (the
/// verifier must recompute the same walk).
///
/// Observability is threaded, not forked: the scheduling loop emits
/// `attest.due` instants and `attest.check` spans into `tracer` (check
/// spans opened at dispatch, closed at verdict; checks still in flight
/// at the horizon stay open, mirroring `in_flight_at_horizon`), and the
/// control-link phase emits one compact `auth.session` instant per wire
/// session, ordered by round, then device. `registry` accumulates
/// `fleet.*` counters plus turnaround and queue-depth histograms, and
/// the control link's `keepalive.*` and `crp_store.*` entries. Callers
/// that don't care pass `Tracer::disabled()` and a throwaway `Registry`
/// — observability never perturbs the simulation.
///
/// # Panics
///
/// Panics when `devices` or `verifiers` is zero, or when `period_us`
/// is shorter than 1 ns (simulated time is in whole nanoseconds).
pub fn run_fleet(config: &FleetConfig, tracer: &mut Tracer, registry: &Registry) -> FleetReport {
    assert!(config.devices > 0, "fleet needs at least one device");
    assert!(config.verifiers > 0, "fleet needs at least one verifier");
    let period = (config.period_us * 1000.0) as u64;
    assert!(
        period >= 1,
        "fleet period must be at least 1 ns, got {} µs",
        config.period_us
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let timing = TimingModel::photonic();

    // Small secure-boot-sized regions: E17 studies *scheduling*, not
    // walk length (E5 covers the latter), so keep per-attestation work
    // light while the timing math stays exact.
    let mut fleet: Vec<FleetDevice> = (0..config.devices)
        .map(|i| {
            let bytes = match rng.gen_range(0..3) {
                0 => 256usize,
                1 => 512,
                _ => 1024,
            };
            let memory: Vec<u8> = (0..bytes).map(|b| (b * 31 % 251) as u8).collect();
            let die = DieId(0xF1_0000 + i as u64);
            let mut device =
                AttestingDevice::new(PhotonicPuf::reference(die, 1), memory.clone(), timing);
            let compromised = rng.gen::<f64>() < config.compromised_fraction;
            if compromised {
                device.corrupt_memory(bytes / 2, 0xEE);
            }
            FleetDevice {
                device,
                verifier: AttestationVerifier::new(PhotonicPuf::reference(die, 2), memory, timing),
                memory_bytes: bytes,
                compromised,
            }
        })
        .collect();

    // Simulated time is in nanoseconds. Wheel ticks run one ahead of
    // it: the wheel clamps a deadline to `now + 1`, yet a stagger of 0
    // must fire at 0 ns, so events are scheduled at `t + 1` and handled
    // at `fire - 1`. Tokens below `devices` are due attestations; token
    // `devices + k` is the verdict of `checks[k]`.
    let mut wheel = TimerWheel::new();
    for i in 0..config.devices {
        let stagger = rng.gen_range(0..period);
        wheel.schedule_at(stagger + 1, i as u64);
    }

    let horizon = (config.horizon_us * 1000.0) as u64;
    let devices = config.devices as u64;
    let mut checks: Vec<Check> = Vec::new();
    let mut fired: Vec<(u64, u64)> = Vec::new();
    let mut free_at: Vec<u64> = vec![0; config.verifiers];
    let mut busy_ns: u64 = 0;
    let mut backlog: usize = 0;
    let mut max_backlog = 0usize;
    let mut requests = 0usize;
    let mut attestations = 0usize;
    let mut passed = 0usize;
    let mut caught = vec![false; config.devices];
    let mut turnaround_sum_ns = 0u64;

    while let Some(deadline) = wheel.next_deadline() {
        if deadline - 1 > horizon {
            break;
        }
        fired.clear();
        wheel.advance_to(deadline, &mut fired);
        for &(fire, token) in &fired {
            let now = fire - 1;
            if token < devices {
                let idx = token as usize;
                tracer.instant(now, "attest.due", vec![("device", idx.into())]);
                let entry = &mut fleet[idx];
                let request = entry.verifier.begin();
                // A device that cannot even produce a report (bad
                // challenge width) counts as a failed attestation, not
                // a sim crash.
                let ok = match entry.device.attest(&request) {
                    Ok(report) => entry.verifier.verify(&request, &report).is_ok(),
                    Err(_) => false,
                };
                // The chosen verifier recomputes the walk serially:
                // busy for the honest walk duration of this device.
                let chunks = entry.memory_bytes.div_ceil(64) as f64;
                let check_ns = (chunks * timing.chunk_ns()) as u64;
                // Earliest-available verifier, ties to the lowest index.
                // `free_at` is non-empty (verifiers is asserted
                // non-zero), so the fallback index never fires; it
                // exists to keep the scheduling loop panic-free.
                let v = (0..free_at.len())
                    .min_by_key(|&v| (free_at[v], v))
                    .unwrap_or(0);
                let start = free_at[v].max(now);
                let queued = start > now;
                if queued {
                    backlog += 1;
                    max_backlog = max_backlog.max(backlog);
                }
                free_at[v] = start + check_ns;
                // Busy time clamped to the horizon: work scheduled past
                // the campaign end must not count toward utilization.
                busy_ns += free_at[v].min(horizon).saturating_sub(start.min(horizon));
                requests += 1;
                registry.counter("fleet.requests", 1);
                registry.observe("fleet.queue_depth", backlog as f64);
                let span = tracer.span_start(
                    start,
                    "attest.check",
                    vec![
                        ("device", idx.into()),
                        ("verifier", v.into()),
                        ("queued", queued.into()),
                    ],
                );
                wheel.schedule_at(free_at[v] + 1, devices + checks.len() as u64);
                checks.push(Check {
                    idx,
                    ok,
                    requested_at: now,
                    queued,
                    span,
                });
                // Next periodic attestation.
                if now + period <= horizon {
                    wheel.schedule_at(now + period + 1, token);
                }
            } else {
                let check = &checks[(token - devices) as usize];
                tracer.span_end(now, check.span, vec![("ok", check.ok.into())]);
                registry.counter("fleet.attestations", 1);
                registry.observe("fleet.turnaround_ns", (now - check.requested_at) as f64);
                // Only requests that actually waited ever entered the
                // backlog, so only they leave it.
                if check.queued {
                    // invariant: every queued check had a matching
                    // backlog increment at request time; underflow means
                    // the accounting itself broke, which must stay loud.
                    backlog = backlog.checked_sub(1).expect("backlog underflow");
                }
                attestations += 1;
                // Turnaround accumulates at completion time, so the sum
                // and the `attestations` divisor cover the same requests.
                turnaround_sum_ns += now - check.requested_at;
                if check.ok {
                    passed += 1;
                    registry.counter("fleet.passed", 1);
                } else if fleet[check.idx].compromised {
                    caught[check.idx] = true;
                }
            }
        }
    }

    // Everything still armed is a verdict past the horizon: requests
    // issued but not resolved in time.
    let in_flight = wheel.len();
    debug_assert_eq!(attestations + in_flight, requests, "request conservation");
    let mut report = FleetReport {
        devices: config.devices,
        verifiers: config.verifiers,
        requests,
        attestations,
        in_flight_at_horizon: in_flight,
        passed,
        compromised_caught: caught.iter().filter(|&&c| c).count(),
        compromised_planted: fleet.iter().filter(|d| d.compromised).count(),
        verifier_utilization: busy_ns as f64 / (horizon.max(1) as f64 * config.verifiers as f64),
        max_backlog,
        mean_turnaround_us: if attestations == 0 {
            0.0
        } else {
            turnaround_sum_ns as f64 / attestations as f64 / 1000.0
        },
        ..FleetReport::default()
    };
    if config.auth_sessions == 0 {
        return report;
    }

    // Control-link phase: every device re-authenticates (§III-A)
    // `auth_sessions` times over *one* shared lossy wire, as a
    // zero-jitter keep-alive fleet whose epochs are the rounds. The
    // verifier records live in the sharded CRP store, checked out per
    // epoch and committed back. The link seed is derived independently
    // of the scheduling RNG, so the campaign above is unchanged by this
    // phase.
    let epochs = u32::try_from(config.auth_sessions).unwrap_or(u32::MAX);
    let keepalive = run_fleet_persistent(
        &PersistentFleetConfig {
            devices: config.devices,
            reattest_period: AUTH_ROUND_PERIOD,
            jitter: 0,
            epochs_per_device: epochs,
            epoch_budget: 0,
            max_consecutive_failures: 0,
            corrupted_devices: 0,
            loss_rate: config.auth_loss_rate,
            seed: config.seed,
            crp_shards: config.crp_shards,
            crp_hot_capacity: config.crp_hot_capacity,
            horizon: AUTH_ROUND_PERIOD * (u64::from(epochs) + 2) + 4096.max(devices * 64),
            ..PersistentFleetConfig::default()
        },
        &mut Tracer::disabled(),
        registry,
    );
    let mut records = keepalive.records;
    records.sort_unstable_by_key(|r| (r.epoch, r.device));
    for r in &records {
        report.auth_attempted += 1;
        report.auth_completed += usize::from(r.ok);
        report.auth_retransmits += u64::from(r.retransmits);
        // One compact instant per control-link session (the frame-level
        // story lives in the protocol tracer); the tick is the horizon
        // so the event log stays monotone past the campaign.
        tracer.instant(
            horizon,
            "auth.session",
            vec![
                ("device", r.device.into()),
                ("session", u64::from(r.epoch).into()),
                ("ok", r.ok.into()),
                ("retransmits", r.retransmits.into()),
            ],
        );
        registry.counter("fleet.auth_retransmits", u64::from(r.retransmits));
        registry.observe("fleet.auth_session_ticks", f64::from(r.ticks));
    }
    report.auth_desync_recoveries = keepalive.desync_recoveries;
    report.auth_late_frames = keepalive.late_frames;
    report.crp = keepalive.crp;
    report
}

// ---------------------------------------------------------------------------
// Persistent fleet sessions
// ---------------------------------------------------------------------------

/// Parameters of a persistent keep-alive fleet run.
///
/// Each device stays resident in the gateway across its whole lifetime:
/// re-attestation epochs are armed as per-device jittered timers on the
/// runtime timer wheel, CRP records are checked out of the sharded
/// store at fire time and committed back at epoch close, and devices
/// churn through voluntary
/// leaves (epoch quota) and evictions (consecutive failures).
#[derive(Debug, Clone, Copy)]
pub struct PersistentFleetConfig {
    /// Devices holding keep-alive slots.
    pub devices: usize,
    /// Ticks between a device's epoch fires (measured fire-to-fire, so
    /// slow epochs don't drift the schedule).
    pub reattest_period: u64,
    /// Maximum per-fire jitter added on top of the period, drawn from
    /// a per-device stream (0 = perfectly aligned cohort).
    pub jitter: u64,
    /// Re-attestation epochs each device runs before leaving
    /// voluntarily.
    pub epochs_per_device: u32,
    /// Ticks an epoch may stay live before the gateway force-closes it
    /// as missed (0 = unbounded).
    pub epoch_budget: u64,
    /// Consecutive failed/missed epochs before a device is evicted
    /// (0 = never evict).
    pub max_consecutive_failures: u32,
    /// The first N devices get their provisioned memory tampered, so
    /// every one of their re-attestations fails deterministically.
    pub corrupted_devices: usize,
    /// Frame-loss probability of the shared control link.
    pub loss_rate: f64,
    /// Seed for the link faults and the per-device jitter streams.
    pub seed: u64,
    /// Shards of the CRP/enrollment store.
    pub crp_shards: usize,
    /// Hot-set capacity per CRP-store shard.
    pub crp_hot_capacity: usize,
    /// Last tick of the run; epochs still live at the horizon close as
    /// missed.
    pub horizon: u64,
    /// ARQ retransmissions of one frame before an epoch's session fails
    /// (`SessionConfig::max_retries`). Long-run sweeps raise this so a
    /// lossy link costs retransmits, never epochs; the default matches
    /// the round-by-round driver for the differential oracle.
    pub session_retries: u32,
}

impl Default for PersistentFleetConfig {
    fn default() -> Self {
        PersistentFleetConfig {
            devices: 8,
            reattest_period: 256,
            jitter: 32,
            epochs_per_device: 3,
            epoch_budget: 128,
            max_consecutive_failures: 2,
            corrupted_devices: 0,
            loss_rate: 0.1,
            seed: 0xF1EE7,
            crp_shards: 4,
            crp_hot_capacity: 4,
            horizon: 1 << 16,
            session_retries: SessionConfig::default().max_retries,
        }
    }
}

/// One re-attestation epoch's terminal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochRecord {
    /// Device (slot) index.
    pub device: usize,
    /// Epoch ordinal for this device, starting at 0.
    pub epoch: u32,
    /// Whether the mutual-authentication run completed.
    pub ok: bool,
    /// Active ticks the epoch took (0 on failure).
    pub ticks: u32,
    /// Frames retransmitted across both endpoints.
    pub retransmits: u32,
    /// Whether the epoch budget or the horizon force-closed it.
    pub missed: bool,
    /// Debug rendering of the failure, when there was one.
    pub error: Option<String>,
}

/// Aggregate results of one persistent fleet run.
#[derive(Debug, Clone)]
pub struct PersistentFleetReport {
    /// Devices configured.
    pub devices: usize,
    /// Devices whose first epoch fired inside the horizon.
    pub joined: usize,
    /// Devices that left voluntarily after their epoch quota.
    pub left: usize,
    /// Devices evicted for consecutive failures.
    pub evicted: usize,
    /// Last tick the gateway processed.
    pub ticks: u64,
    /// Re-attestation epochs admitted.
    pub epochs_fired: u64,
    /// Epochs whose authentication completed.
    pub epochs_completed: u64,
    /// Epochs closed by a protocol failure.
    pub epochs_failed: u64,
    /// Epochs force-closed by the budget or the horizon.
    pub epochs_missed: u64,
    /// ARQ retransmissions across all epochs.
    pub retransmits: u64,
    /// Previous-CRP desynchronization recoveries across the fleet.
    pub desync_recoveries: u64,
    /// Frames that arrived for already-closed epochs on the shared
    /// link.
    pub late_frames: u64,
    /// Most epochs live at once.
    pub peak_live: usize,
    /// Real `Session::step` calls the event-driven gateway made.
    pub session_steps: u64,
    /// Steps a dense keep-alive poll loop (no timer wheel) would have
    /// made over the same residencies.
    pub dense_equiv_steps: u64,
    /// CRP-store cache counters across all checkouts/commits.
    pub crp: CrpStoreStats,
    /// Per-epoch terminal records, sorted by `(device, epoch)`.
    pub records: Vec<EpochRecord>,
}

impl PersistentFleetReport {
    /// `dense_equiv_steps / session_steps`: the step saving of waking
    /// only on timer fires instead of polling every resident device
    /// every tick.
    pub fn step_saving(&self) -> f64 {
        if self.session_steps == 0 {
            return 0.0;
        }
        self.dense_equiv_steps as f64 / self.session_steps as f64
    }

    /// Re-attestation conservation: every fired epoch reached exactly
    /// one terminal record (completed, failed, or missed) — nothing
    /// was silently dropped.
    pub fn epochs_conserved(&self) -> bool {
        self.epochs_completed + self.epochs_failed + self.epochs_missed == self.epochs_fired
            && self.records.len() as u64 == self.epochs_fired
    }
}

/// [`KeepAlive`] controller backing [`run_fleet_persistent`]: owns the
/// fleet's auth devices, fronts the verifier records with the sharded
/// CRP store (checkout at fire, commit at close), applies the
/// jittered re-arm schedule and the consecutive-failure eviction
/// policy, and logs one [`EpochRecord`] per closed epoch.
struct PersistentFleetController {
    devices: Vec<Option<AuthDevice<PhotonicPuf>>>,
    store: CrpStore<AuthVerifier>,
    jitter_rngs: Vec<StdRng>,
    period: u64,
    jitter: u64,
    epochs_per_device: u32,
    max_consecutive_failures: u32,
    cfg: SessionConfig,
    last_fire: Vec<u64>,
    fails: Vec<u32>,
    records: Vec<EpochRecord>,
}

impl KeepAlive for PersistentFleetController {
    type Initiator = WireVerifier<AuthVerifier>;
    type Responder = WireDevice<AuthDevice<PhotonicPuf>, PhotonicPuf>;

    fn on_fire(
        &mut self,
        slot: usize,
        epoch: u32,
        now: u64,
    ) -> Option<EpochSession<Self::Initiator, Self::Responder>> {
        if epoch >= self.epochs_per_device {
            // Epoch quota exhausted: the device leaves the fleet.
            return None;
        }
        let device = self.devices[slot].take()?;
        let Ok(verifier) = self.store.checkout(slot as u64) else {
            // No enrollment record, no re-attestation: the device can
            // only leave. (Unreachable when enrollment succeeded — the
            // commit at every close returns the record.)
            self.devices[slot] = Some(device);
            return None;
        };
        self.last_fire[slot] = now;
        // Same id schedule as the round-by-round sweep: globally unique
        // so stale frames from earlier epochs can never key-match.
        let sid = u64::from(epoch) * self.devices.len() as u64 + slot as u64 + 1;
        Some(EpochSession {
            protocol: ProtocolId::MutualAuth,
            id: sid,
            initiator: WireVerifier::new(verifier, sid, self.cfg),
            responder: WireDevice::new(device, self.cfg),
        })
    }

    fn on_close(
        &mut self,
        slot: usize,
        epoch: u32,
        _now: u64,
        outcome: &EpochOutcome,
        initiator: Self::Initiator,
        responder: Self::Responder,
    ) -> SlotVerdict {
        let verifier = initiator.into_inner();
        let device = responder.into_inner();
        // Unreachable error by construction (every commit follows its
        // own checkout); ignoring it keeps the controller panic-free.
        let _ = self.store.commit(slot as u64, verifier);
        self.devices[slot] = Some(device);
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
        let j = if self.jitter == 0 {
            0
        } else {
            self.jitter_rngs[slot].gen_range(0..self.jitter + 1)
        };
        SlotVerdict::Rearm {
            at: self.last_fire[slot] + self.period + j,
        }
    }

    fn class(&self, _slot: usize) -> ClassId {
        // Persistent re-attestation epochs are control-plane traffic:
        // under a class-aware policy they rank alongside the dense
        // driver's auth rounds, ahead of bulk inference.
        ClassId::CONTROL_AUTH
    }
}

/// Runs the fleet on long-lived persistent sessions.
///
/// This is the fleet's one control-link driver: [`run_fleet`] runs its
/// authentication rounds through it as a zero-jitter run. A zero-jitter
/// run is step-for-step comparable with a round-by-round sweep of
/// one-shot gateway runs over the same provisioning, session ids and
/// seeded link, up to the sweep's accept-queue depth — the
/// differential property the `fleet_round_equivalence` tests pin.
///
/// # Panics
///
/// Panics when `devices` is zero.
pub fn run_fleet_persistent(
    config: &PersistentFleetConfig,
    tracer: &mut Tracer,
    registry: &Registry,
) -> PersistentFleetReport {
    assert!(config.devices > 0, "fleet needs at least one device");
    let mut store: CrpStore<AuthVerifier> = CrpStore::new(CrpStoreConfig {
        shards: config.crp_shards,
        hot_capacity: config.crp_hot_capacity,
    });
    let devices: Vec<Option<AuthDevice<PhotonicPuf>>> = (0..config.devices)
        .map(|i| {
            let die = DieId(0xF1_A000 + i as u64);
            let memory: Vec<u8> = (0..256).map(|b| (b * 17 % 249) as u8).collect();
            let Ok((mut device, provisioned)) =
                AuthDevice::provision(PhotonicPuf::reference(die, 1), memory, b"fleet-auth")
            else {
                // A device whose PUF cannot provision never joins the
                // fleet; its slot leaves at first fire.
                return None;
            };
            if i < config.corrupted_devices {
                device.corrupt_memory(100, 0xFF);
            }
            let verifier = AuthVerifier::new(provisioned, b"fleet-auth-verifier");
            if store.enroll(i as u64, verifier).is_err() {
                return None;
            }
            Some(device)
        })
        .collect();

    // Per-device jitter streams: draws are taken per slot, so the
    // schedule is independent of epoch close ordering.
    let mut jitter_rngs: Vec<StdRng> = (0..config.devices)
        .map(|i| StdRng::seed_from_u64(config.seed ^ 0x17E2_0000_0000_0000 ^ i as u64))
        .collect();
    let first_fire: Vec<u64> = jitter_rngs
        .iter_mut()
        .map(|rng| {
            if config.jitter == 0 {
                1
            } else {
                1 + rng.gen_range(0..config.jitter + 1)
            }
        })
        .collect();

    let mut controller = PersistentFleetController {
        devices,
        store,
        jitter_rngs,
        period: config.reattest_period,
        jitter: config.jitter,
        epochs_per_device: config.epochs_per_device,
        max_consecutive_failures: config.max_consecutive_failures,
        cfg: SessionConfig {
            max_retries: config.session_retries,
            ..SessionConfig::default()
        },
        last_fire: vec![0; config.devices],
        fails: vec![0; config.devices],
        records: Vec::new(),
    };

    let link_seed = config.seed ^ 0xA117_0000_0000_0000;
    let mut link = FaultyChannel::new(FaultRates::loss(config.loss_rate), link_seed);
    let gw = run_persistent_gateway(
        &mut link,
        &first_fire,
        &mut controller,
        PersistentConfig {
            horizon: config.horizon,
            epoch_budget: config.epoch_budget,
            ..PersistentConfig::default()
        },
        tracer,
        registry,
    );

    let mut desync_recoveries = 0u64;
    for i in 0..config.devices {
        if let Some(verifier) = controller.store.peek(i as u64) {
            desync_recoveries += verifier.desync_recoveries();
        }
    }
    let crp = controller.store.stats();
    controller.store.fold_into(registry);
    registry.counter("fleet.persistent_desync_recoveries", desync_recoveries);

    let mut records = controller.records;
    records.sort_unstable_by_key(|r| (r.device, r.epoch));
    PersistentFleetReport {
        devices: config.devices,
        joined: gw.joined,
        left: gw.left,
        evicted: gw.evicted,
        ticks: gw.ticks,
        epochs_fired: gw.epochs_fired,
        epochs_completed: gw.epochs_completed,
        epochs_failed: gw.epochs_failed,
        epochs_missed: gw.epochs_missed,
        retransmits: gw.retransmits,
        desync_recoveries,
        late_frames: gw.late_frames,
        peak_live: gw.peak_live,
        session_steps: gw.session_steps,
        dense_equiv_steps: gw.dense_equiv_steps,
        crp,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_rt::trace::EventKind;

    /// [`run_fleet`] with observability switched off.
    fn quiet(config: &FleetConfig) -> FleetReport {
        run_fleet(config, &mut Tracer::disabled(), &Registry::new())
    }

    #[test]
    fn fleet_catches_every_compromised_device() {
        let report = quiet(&FleetConfig::default());
        assert!(report.attestations > 0);
        assert_eq!(
            report.compromised_caught, report.compromised_planted,
            "{report:?}"
        );
        // Honest devices pass: passes + compromised failures = total.
        assert!(report.passed > 0, "{report:?}");
    }

    #[test]
    fn utilization_grows_with_fleet_size() {
        let small = quiet(&FleetConfig {
            devices: 2,
            ..FleetConfig::default()
        });
        let large = quiet(&FleetConfig {
            devices: 12,
            ..FleetConfig::default()
        });
        assert!(
            large.verifier_utilization > small.verifier_utilization,
            "small {small:?} large {large:?}"
        );
    }

    #[test]
    fn oversubscribed_verifier_builds_backlog() {
        let report = quiet(&FleetConfig {
            devices: 24,
            period_us: 2.0,
            horizon_us: 20.0,
            ..FleetConfig::default()
        });
        assert!(report.max_backlog > 0, "{report:?}");
        assert!(report.verifier_utilization > 0.5, "{report:?}");
    }

    #[test]
    fn empty_compromise_fraction_passes_everything() {
        let report = quiet(&FleetConfig {
            compromised_fraction: 0.0,
            ..FleetConfig::default()
        });
        assert_eq!(report.compromised_planted, 0);
        assert_eq!(report.passed, report.attestations, "{report:?}");
    }

    /// Regression for the saturation accounting bugs: utilization used
    /// to exceed 1.0 (busy time counted past the horizon), turnaround
    /// mixed populations (sum at request time ÷ completions), and
    /// `max_backlog` undercounted (every completion decremented the
    /// backlog even when the request never queued).
    #[test]
    fn saturated_fleet_accounting_is_consistent() {
        for devices in [8, 32] {
            let report = quiet(&FleetConfig {
                devices,
                period_us: 1.0,
                horizon_us: 8.0,
                ..FleetConfig::default()
            });
            assert!(
                report.verifier_utilization <= 1.0,
                "utilization must be a fraction: {report:?}"
            );
            assert!(report.verifier_utilization > 0.0, "{report:?}");
            assert_eq!(
                report.attestations + report.in_flight_at_horizon,
                report.requests,
                "every issued request completes or is in flight: {report:?}"
            );
            assert!(report.max_backlog <= report.requests, "{report:?}");
        }
    }

    #[test]
    fn saturated_fleet_reports_nonzero_backlog_and_full_utilization() {
        let report = quiet(&FleetConfig {
            devices: 32,
            period_us: 1.0,
            horizon_us: 8.0,
            ..FleetConfig::default()
        });
        assert!(report.max_backlog > 0, "{report:?}");
        assert!(report.verifier_utilization > 0.95, "{report:?}");
        assert!(report.in_flight_at_horizon > 0, "{report:?}");
    }

    #[test]
    fn more_verifiers_relieve_the_backlog() {
        let saturated = FleetConfig {
            devices: 16,
            period_us: 2.0,
            horizon_us: 20.0,
            ..FleetConfig::default()
        };
        let one = quiet(&saturated);
        let four = quiet(&FleetConfig {
            verifiers: 4,
            ..saturated
        });
        assert!(four.verifier_utilization <= 1.0, "{four:?}");
        assert!(
            four.max_backlog <= one.max_backlog,
            "a farm should not queue more than one verifier: {one:?} vs {four:?}"
        );
        assert!(
            four.mean_turnaround_us <= one.mean_turnaround_us,
            "a farm should not be slower: {one:?} vs {four:?}"
        );
        assert!(
            four.attestations >= one.attestations,
            "a farm completes at least as many checks: {one:?} vs {four:?}"
        );
    }

    #[test]
    fn lossy_control_link_still_authenticates_the_fleet() {
        let report = quiet(&FleetConfig {
            auth_sessions: 3,
            auth_loss_rate: 0.2,
            ..FleetConfig::default()
        });
        assert_eq!(report.auth_attempted, 8 * 3);
        assert_eq!(
            report.auth_completed, report.auth_attempted,
            "ARQ should carry every session through 20% loss: {report:?}"
        );
        assert!(
            report.auth_retransmits > 0,
            "20% loss must cost retransmissions: {report:?}"
        );
    }

    #[test]
    fn disabling_auth_sessions_skips_the_control_link_phase() {
        let report = quiet(&FleetConfig {
            auth_sessions: 0,
            ..FleetConfig::default()
        });
        assert_eq!(report.auth_attempted, 0);
        assert_eq!(report.auth_completed, 0);
        assert_eq!(report.auth_retransmits, 0);
        assert_eq!(report.crp, crate::crp_store::CrpStoreStats::default());
    }

    /// The control link is one shared wire: every round multiplexes all
    /// devices' sessions through the keep-alive gateway, and the CRP
    /// store fronts the verifier records — first round all cold misses,
    /// later rounds hot hits (capacity permitting).
    #[test]
    fn shared_control_link_reports_gateway_and_cache_effort() {
        let config = FleetConfig {
            devices: 12,
            auth_sessions: 3,
            crp_shards: 3,
            crp_hot_capacity: 8, // 24 hot slots ≥ 12 devices: all hot after round 1
            ..FleetConfig::default()
        };
        let registry = Registry::new();
        let report = run_fleet(&config, &mut Tracer::disabled(), &registry);
        assert_eq!(report.auth_attempted, 12 * 3);
        assert_eq!(report.auth_completed, report.auth_attempted, "{report:?}");
        assert_eq!(report.crp.misses, 12, "first touch of each record is cold");
        assert_eq!(report.crp.hits, 24, "rounds 2 and 3 are hot");
        assert_eq!(report.crp.commits, 36);
        assert!((report.crp.hit_rate() - 24.0 / 36.0).abs() < 1e-12);
        assert_eq!(registry.counter_value("crp_store.hits"), report.crp.hits);
        assert_eq!(
            registry.counter_value("keepalive.epochs_completed") as usize,
            report.auth_completed
        );
    }

    /// A hot set smaller than the fleet thrashes: only the records
    /// committed last in a round are still hot when the next round's
    /// batched checkout sweeps through, so hits per round cap at the
    /// hot capacity.
    #[test]
    fn undersized_crp_cache_thrashes() {
        let report = quiet(&FleetConfig {
            devices: 12,
            auth_sessions: 2,
            crp_shards: 1,
            crp_hot_capacity: 2,
            ..FleetConfig::default()
        });
        assert_eq!(
            report.crp.hits, 2,
            "one round of re-touches, 2 hot: {report:?}"
        );
        assert_eq!(report.crp.misses, 22, "{report:?}");
        assert!(report.crp.evictions > 0, "{report:?}");
        assert!(report.crp.hit_rate() < 0.1, "{report:?}");
    }

    #[test]
    fn traced_fleet_matches_untraced_and_records_metrics() {
        let config = FleetConfig::default();
        let untraced = quiet(&config);
        let mut tracer = Tracer::new();
        let registry = Registry::new();
        let traced = run_fleet(&config, &mut tracer, &registry);
        assert_eq!(traced, untraced, "tracing must not perturb the sim");
        assert_eq!(
            registry.counter_value("fleet.requests") as usize,
            traced.requests
        );
        assert_eq!(
            registry.counter_value("fleet.attestations") as usize,
            traced.attestations
        );
        let turnaround = registry
            .histogram("fleet.turnaround_ns")
            .expect("turnaround histogram recorded");
        assert_eq!(turnaround.count() as usize, traced.attestations);
        let due = tracer
            .events()
            .iter()
            .filter(|e| e.name == "attest.due")
            .count();
        assert_eq!(due, traced.requests);
        let open = tracer
            .events()
            .iter()
            .filter(|e| e.name == "attest.check" && e.kind == EventKind::SpanStart)
            .count();
        let closed = tracer
            .events()
            .iter()
            .filter(|e| e.name == "attest.check" && e.kind == EventKind::SpanEnd)
            .count();
        assert_eq!(open, traced.requests);
        assert_eq!(closed, traced.attestations, "in-flight checks stay open");
        let auth = tracer
            .events()
            .iter()
            .filter(|e| e.name == "auth.session")
            .count();
        assert_eq!(auth, traced.auth_attempted);
    }

    /// A 1 ns period staggers every device at 0 ns. The timer wheel
    /// clamps deadlines to `now + 1`, so the loop keeps its ticks one
    /// ahead of simulated time; without that offset the first requests
    /// would land at 1 ns and each device would lose one request.
    #[test]
    fn zero_stagger_fires_at_tick_zero() {
        let config = FleetConfig {
            devices: 3,
            period_us: 0.001,
            horizon_us: 0.005,
            auth_sessions: 0,
            ..FleetConfig::default()
        };
        let mut tracer = Tracer::new();
        let report = run_fleet(&config, &mut tracer, &Registry::new());
        // Requests at 0, 1, …, 5 ns for each device.
        assert_eq!(report.requests, 3 * 6, "{report:?}");
        for device in 0..3usize {
            let first = tracer
                .events()
                .iter()
                .find(|e| {
                    e.name == "attest.due" && e.fields.first() == Some(&("device", device.into()))
                })
                .map(|e| e.tick);
            assert_eq!(first, Some(0), "device {device}");
        }
    }

    #[test]
    #[should_panic(expected = "fleet period must be at least 1 ns")]
    fn sub_nanosecond_period_is_refused() {
        quiet(&FleetConfig {
            devices: 2,
            period_us: 0.0004,
            horizon_us: 0.005,
            auth_sessions: 0,
            ..FleetConfig::default()
        });
    }

    #[test]
    fn idle_fleet_has_no_backlog_and_low_utilization() {
        let report = quiet(&FleetConfig {
            devices: 1,
            period_us: 50.0,
            horizon_us: 100.0,
            ..FleetConfig::default()
        });
        assert_eq!(report.max_backlog, 0, "{report:?}");
        assert!(report.verifier_utilization < 0.1, "{report:?}");
    }

    /// [`run_fleet_persistent`] with observability switched off.
    fn quiet_persistent(config: &PersistentFleetConfig) -> PersistentFleetReport {
        run_fleet_persistent(config, &mut Tracer::disabled(), &Registry::new())
    }

    #[test]
    fn persistent_fleet_completes_every_epoch_over_lossy_link() {
        let config = PersistentFleetConfig::default();
        let report = quiet_persistent(&config);
        let expected = (config.devices as u64) * u64::from(config.epochs_per_device);
        assert_eq!(report.joined, config.devices);
        assert_eq!(report.epochs_fired, expected);
        assert_eq!(
            report.epochs_completed, expected,
            "ARQ should carry every re-attestation through 10% loss: {report:?}"
        );
        assert!(report.epochs_conserved(), "{report:?}");
        assert_eq!(report.left, config.devices, "epoch quota ends residency");
        assert_eq!(report.evicted, 0);
        assert!(
            report.step_saving() > 5.0,
            "mostly-idle slots must not be polled: {report:?}"
        );
    }

    #[test]
    fn persistent_fleet_evicts_tampered_device_and_keeps_the_rest() {
        let config = PersistentFleetConfig {
            corrupted_devices: 1,
            ..PersistentFleetConfig::default()
        };
        let report = quiet_persistent(&config);
        assert_eq!(report.evicted, 1, "{report:?}");
        assert_eq!(report.left, config.devices - 1);
        let bad: Vec<&EpochRecord> = report.records.iter().filter(|r| r.device == 0).collect();
        assert_eq!(
            bad.len(),
            config.max_consecutive_failures as usize,
            "evicted after exactly max consecutive failures: {bad:?}"
        );
        assert!(bad.iter().all(|r| !r.ok));
        let healthy_completed = report
            .records
            .iter()
            .filter(|r| r.device != 0 && r.ok)
            .count() as u64;
        assert_eq!(
            healthy_completed,
            (config.devices as u64 - 1) * u64::from(config.epochs_per_device),
            "{report:?}"
        );
        assert!(report.epochs_conserved(), "{report:?}");
    }

    /// The persistent driver books CRP traffic through the same sharded
    /// store discipline as the round-by-round sweep: one exclusive
    /// checkout and one commit per fired epoch.
    #[test]
    fn persistent_fleet_checks_crp_records_out_per_epoch() {
        let config = PersistentFleetConfig {
            devices: 6,
            jitter: 0,
            ..PersistentFleetConfig::default()
        };
        let report = quiet_persistent(&config);
        assert_eq!(report.crp.commits, report.epochs_fired);
        assert_eq!(
            report.crp.hits + report.crp.misses,
            report.epochs_fired,
            "{report:?}"
        );
        assert_eq!(report.crp.misses, 6, "first touch of each record is cold");
    }
}
