//! Differential oracle for the persistent fleet: a zero-jitter
//! persistent run's per-epoch attestation outcomes must be
//! **byte-identical** to an equivalent sequence of round-by-round
//! gateway sweeps over the same seeded lossy link — at any
//! `NEUROPULS_THREADS` — for fleets of up to 16 devices.
//!
//! The reference sweep provisions the fleet exactly like
//! [`run_fleet_persistent`] (die ids, memory pattern, provision seeds,
//! session-id schedule, link-seed derivation) and runs the plain
//! one-shot [`run_gateway`] driver once per round, draining stragglers
//! between rounds. Both drivers share the gateway's tick loop, so the
//! oracle pins what differs: one resident run with timer fires,
//! re-arms, idle fast-forwards and rotation restarts must arrive at the
//! same frames, the same retransmit spend, and the same per-epoch
//! verdicts as separate runs.
//!
//! Why 16: the sweep admits sessions through a 16-deep accept queue,
//! while the keep-alive gateway admits every resident device at once.
//! Up to 16 devices a round's sessions all enter the sweep's gateway
//! on its first tick, so both see the same frame order. Beyond that the
//! sweep staggers admissions, the two interleave frames differently
//! over the lossy link, and only the aggregates agree in kind (every
//! session completes, at a different retransmit spend). The checks
//! below therefore stop at 16 devices.

use neuropuls_photonic::process::DieId;
use neuropuls_protocols::gateway::{run_gateway, GatewayConfig, SessionPair};
use neuropuls_protocols::mutual_auth::{Device, Verifier, WireDevice, WireVerifier};
use neuropuls_protocols::transport::{FaultRates, FaultyChannel};
use neuropuls_protocols::wire::{ProtocolId, SessionConfig};
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::pool::with_threads;
use neuropuls_rt::prelude::*;
use neuropuls_rt::trace::{Registry, Tracer, Value};
use neuropuls_system::fleet::{
    run_fleet, run_fleet_persistent, EpochRecord, FleetConfig, PersistentFleetConfig,
    PersistentFleetReport,
};

/// The persistent-fleet configuration the oracle compares: zero jitter
/// (aligned cohorts), unbounded epoch budget, no eviction — the shape
/// in which "persistent sessions" and "a sweep per round" describe the
/// same protocol work.
fn oracle_config(devices: usize, epochs: u32, loss: f64, seed: u64) -> PersistentFleetConfig {
    let period = 512u64;
    PersistentFleetConfig {
        devices,
        reattest_period: period,
        jitter: 0,
        epochs_per_device: epochs,
        epoch_budget: 0,
        max_consecutive_failures: 0,
        corrupted_devices: 0,
        loss_rate: loss,
        seed,
        crp_shards: 4,
        crp_hot_capacity: 4,
        horizon: period * (u64::from(epochs) + 2) + 4096,
        // max_retries must match the round-by-round sweep's
        // SessionConfig::default() for byte-identity.
        ..PersistentFleetConfig::default()
    }
}

/// Round-by-round reference: provisions the fleet exactly like
/// [`run_fleet_persistent`] and runs one one-shot [`run_gateway`] sweep
/// per epoch over one shared link, draining stragglers between rounds.
/// Returns per-epoch records shaped like
/// [`PersistentFleetReport::records`], plus the fleet's previous-CRP
/// desync recoveries.
///
/// [`PersistentFleetReport::records`]: neuropuls_system::fleet::PersistentFleetReport::records
fn round_by_round(devices: usize, epochs: u32, loss: f64, seed: u64) -> (Vec<EpochRecord>, u64) {
    let cfg = SessionConfig::default();
    let mut devs: Vec<Device<PhotonicPuf>> = Vec::new();
    let mut vers: Vec<Verifier> = Vec::new();
    for i in 0..devices {
        let die = DieId(0xF1_A000 + i as u64);
        let memory: Vec<u8> = (0..256).map(|b| (b * 17 % 249) as u8).collect();
        let (device, provisioned) =
            Device::provision(PhotonicPuf::reference(die, 1), memory, b"fleet-auth")
                .expect("reference PUF provisions");
        devs.push(device);
        vers.push(Verifier::new(provisioned, b"fleet-auth-verifier"));
    }
    let mut link = FaultyChannel::new(FaultRates::loss(loss), seed ^ 0xA117_0000_0000_0000);
    let gateway_cfg = GatewayConfig {
        max_active: 64,
        accept_queue: 16,
        max_ticks: 4096.max(devices as u64 * 64),
        ..GatewayConfig::default()
    };
    let mut records = Vec::new();
    for round in 0..epochs {
        let mut sessions: Vec<SessionPair<'_>> = Vec::new();
        for (i, (device, verifier)) in devs.iter_mut().zip(vers.iter_mut()).enumerate() {
            let sid = u64::from(round) * devices as u64 + i as u64 + 1;
            sessions.push(SessionPair::new(
                ProtocolId::MutualAuth,
                sid,
                Box::new(WireVerifier::new(&mut *verifier, sid, cfg)),
                Box::new(WireDevice::new(&mut *device, cfg)),
            ));
        }
        let gw = run_gateway(
            &mut link,
            sessions,
            gateway_cfg.clone(),
            &mut Tracer::disabled(),
            &Registry::new(),
        );
        link.drain_late();
        for (i, out) in gw.outcomes.iter().enumerate() {
            records.push(EpochRecord {
                device: i,
                epoch: round,
                ok: out.result.is_ok(),
                ticks: *out.result.as_ref().unwrap_or(&0),
                retransmits: out.retransmits,
                missed: false,
                error: out.result.as_ref().err().map(|e| format!("{e:?}")),
            });
        }
    }
    records.sort_unstable_by_key(|r| (r.device, r.epoch));
    let desync_recoveries = vers.iter().map(Verifier::desync_recoveries).sum();
    (records, desync_recoveries)
}

/// [`round_by_round`]'s per-epoch records alone.
fn round_by_round_records(devices: usize, epochs: u32, loss: f64, seed: u64) -> Vec<EpochRecord> {
    round_by_round(devices, epochs, loss, seed).0
}

/// Runs the persistent driver on the oracle configuration at `threads`
/// worker threads.
fn persistent_at(
    threads: usize,
    devices: usize,
    epochs: u32,
    loss: f64,
    seed: u64,
) -> PersistentFleetReport {
    with_threads(threads, || {
        run_fleet_persistent(
            &oracle_config(devices, epochs, loss, seed),
            &mut Tracer::disabled(),
            &Registry::new(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    /// The tentpole property: persistent per-epoch outcomes ==
    /// round-by-round sweep outcomes, byte for byte, at 1 and at 8
    /// worker threads.
    #[test]
    fn persistent_epochs_match_round_by_round_sweeps_at_any_thread_count(
        devices in 1usize..10,
        epochs in 1u32..4,
        loss_step in 0u32..3,
        seed in 0u64..0x0010_0000_0000,
    ) {
        let loss = f64::from(loss_step) * 0.1;
        let expected = round_by_round_records(devices, epochs, loss, seed);
        for threads in [1usize, 8] {
            let report = persistent_at(threads, devices, epochs, loss, seed);
            prop_assert_eq!(report.epochs_fired, devices as u64 * u64::from(epochs));
            prop_assert!(report.epochs_conserved(), "lost epochs: {report:?}");
            prop_assert!(
                report.records == expected,
                "threads={threads}: {:?} != {:?}",
                report.records,
                expected
            );
        }
    }
}

/// A pinned non-property instance of the oracle, kept cheap enough for
/// every CI run even if the property above is ever scaled down.
#[test]
fn pinned_oracle_case_is_byte_identical_at_1_and_8_threads() {
    let (devices, epochs, loss, seed) = (7usize, 3u32, 0.1, 0x0E0C_AB1E_u64);
    let expected = round_by_round_records(devices, epochs, loss, seed);
    assert!(
        expected.iter().filter(|r| r.ok).count() > 0,
        "oracle case must exercise successful epochs"
    );
    let one = persistent_at(1, devices, epochs, loss, seed);
    let eight = persistent_at(8, devices, epochs, loss, seed);
    assert_eq!(one.records, expected);
    assert_eq!(eight.records, expected);
    assert_eq!(one.retransmits, eight.retransmits);
    assert_eq!(one.session_steps, eight.session_steps);
}

/// The oracle at its bound: 16 devices fill the reference sweep's
/// accept queue exactly, which is as far as byte-identity holds (see
/// the module doc).
#[test]
fn pinned_oracle_case_at_the_accept_queue_depth() {
    let (devices, epochs, loss, seed) = (16usize, 2u32, 0.1, 0x16DE_u64);
    let expected = round_by_round_records(devices, epochs, loss, seed);
    assert!(
        expected.iter().any(|r| r.retransmits > 0),
        "oracle case must exercise the lossy link"
    );
    for threads in [1usize, 8] {
        let report = persistent_at(threads, devices, epochs, loss, seed);
        assert_eq!(report.records, expected, "threads={threads}");
    }
}

/// `run_fleet` runs its control link on the persistent driver; its
/// `auth_*` aggregates and `auth.session` instants must still match the
/// independent round-by-round sweep, guarding the mapping from
/// per-epoch records to the report and the trace.
#[test]
fn persistent_aggregates_match_real_run_fleet_at_both_thread_counts() {
    let seed = 0x005E_ED0F_1EE7_u64;
    let fleet_config = FleetConfig {
        devices: 6,
        auth_sessions: 2,
        auth_loss_rate: 0.1,
        seed,
        ..FleetConfig::default()
    };
    let (mut expected, desync_recoveries) = round_by_round(6, 2, 0.1, seed);
    // `run_fleet` reports its sessions round by round.
    expected.sort_unstable_by_key(|r| (r.epoch, r.device));
    for threads in [1usize, 8] {
        let mut tracer = Tracer::new();
        let rounds = with_threads(threads, || {
            run_fleet(&fleet_config, &mut tracer, &Registry::new())
        });
        assert_eq!(rounds.auth_attempted, expected.len());
        assert_eq!(
            rounds.auth_completed,
            expected.iter().filter(|r| r.ok).count()
        );
        assert_eq!(
            rounds.auth_retransmits,
            expected
                .iter()
                .map(|r| u64::from(r.retransmits))
                .sum::<u64>()
        );
        assert_eq!(rounds.auth_desync_recoveries, desync_recoveries);
        let sessions: Vec<Vec<(&str, Value)>> = tracer
            .events()
            .iter()
            .filter(|e| e.name == "auth.session")
            .map(|e| e.fields.clone())
            .collect();
        let want: Vec<Vec<(&str, Value)>> = expected
            .iter()
            .map(|r| {
                vec![
                    ("device", r.device.into()),
                    ("session", u64::from(r.epoch).into()),
                    ("ok", r.ok.into()),
                    ("retransmits", r.retransmits.into()),
                ]
            })
            .collect();
        assert_eq!(sessions, want, "threads={threads}");
    }
}
