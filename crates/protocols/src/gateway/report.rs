//! Run reports: per-session outcomes, aggregate counters and the
//! per-class admission accounting shared by the drivers.

use super::admission::ClassId;
use crate::error::ProtocolError;
use crate::wire::ProtocolId;
use neuropuls_rt::trace::Registry;
use std::collections::BTreeMap;

/// Terminal state of one multiplexed session.
#[derive(Debug)]
pub struct GatewayOutcome {
    /// Service the session ran.
    pub protocol: ProtocolId,
    /// Envelope session id.
    pub id: u64,
    /// Traffic class the session was admitted under.
    pub class: ClassId,
    /// Active ticks to completion, or the failure that ended it.
    /// Sessions still queued or in flight when the tick budget ran out
    /// report [`ProtocolError::Timeout`] carrying the retransmit tally
    /// the session had actually accumulated when the budget cut it off.
    pub result: Result<u32, ProtocolError>,
    /// Frames retransmitted across both endpoints.
    pub retransmits: u32,
    /// Tick the session entered the active set (`None` = never admitted).
    pub admitted_at: Option<u64>,
}

/// Admission accounting for one traffic class of one gateway run.
///
/// The wait columns summarize *backlog waits*: for an admitted session
/// the ticks between submission and admission; for a session the run
/// ended without admitting, the wait is censored at the run length
/// (the session waited the whole run), so a starved class's p99 grows
/// with the tick budget instead of silently vanishing from the
/// histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Traffic class the row describes.
    pub class: ClassId,
    /// Sessions submitted under this class.
    pub submitted: usize,
    /// Sessions actually admitted to the active set.
    pub admitted: usize,
    /// Sessions that completed their protocol.
    pub completed: usize,
    /// Median backlog wait in ticks (admission-censored, see above).
    pub wait_p50: u64,
    /// 99th-percentile backlog wait in ticks.
    pub wait_p99: u64,
    /// Worst backlog wait in ticks.
    pub wait_max: u64,
}

/// Aggregate outcome of one gateway run.
#[derive(Debug)]
pub struct GatewayReport {
    /// Sessions submitted.
    pub sessions: usize,
    /// Sessions that completed both sides.
    pub completed: usize,
    /// Sessions that failed with a protocol error.
    pub failed: usize,
    /// Sessions still queued or in flight at the tick budget.
    pub unfinished: usize,
    /// Ticks consumed (≤ [`GatewayConfig::max_ticks`]).
    ///
    /// [`GatewayConfig::max_ticks`]: super::GatewayConfig::max_ticks
    pub ticks: u64,
    /// Total frames retransmitted across all sessions.
    pub retransmits: u64,
    /// Frames routed to an already-closed session (counted, dropped).
    pub late_frames: u64,
    /// Decoded frames whose key matched no known session.
    pub unroutable_frames: u64,
    /// Frames that did not decode as an [`Envelope`].
    ///
    /// [`Envelope`]: crate::wire::Envelope
    pub undecodable_frames: u64,
    /// Most sessions simultaneously active.
    pub peak_active: usize,
    /// Most sessions simultaneously staged in the accept queue.
    pub peak_staged: usize,
    /// [`Session::step`] calls the event-driven scheduler actually made.
    ///
    /// [`Session::step`]: crate::wire::Session::step
    pub session_steps: u64,
    /// `Session::step` calls the dense every-session-every-tick loop
    /// would have made for the same run; the ratio to `session_steps`
    /// is the scheduler's work saving on mostly-idle session mixes.
    pub dense_equiv_steps: u64,
    /// Name of the admission policy that ordered the backlog.
    pub policy: &'static str,
    /// Per-class admission accounting, ordered by [`ClassId`].
    pub per_class: Vec<ClassReport>,
    /// Per-session outcomes, in submission order.
    pub outcomes: Vec<GatewayOutcome>,
}

impl GatewayReport {
    /// Whether every submitted session completed.
    pub fn all_completed(&self) -> bool {
        self.completed == self.sessions
    }
}

/// What one persistent keep-alive run did, in aggregate.
#[derive(Debug, Clone)]
pub struct PersistentReport {
    /// Slots the run was started with.
    pub slots: usize,
    /// Slots whose first epoch actually fired inside the horizon.
    pub joined: usize,
    /// Slots that left voluntarily (`on_fire` returned `None`).
    pub left: usize,
    /// Slots evicted by the controller's verdict.
    pub evicted: usize,
    /// Last tick processed.
    pub ticks: u64,
    /// Epochs whose session pair was admitted.
    pub epochs_fired: u64,
    /// Epochs that finished their protocol successfully.
    pub epochs_completed: u64,
    /// Epochs closed by a protocol failure before any deadline.
    pub epochs_failed: u64,
    /// Epochs force-closed by the epoch budget or the horizon.
    pub epochs_missed: u64,
    /// Frames retransmitted across all epochs.
    pub retransmits: u64,
    /// Frames that arrived for an already-closed epoch.
    pub late_frames: u64,
    /// Frames whose envelope key matched no epoch ever admitted.
    pub unroutable_frames: u64,
    /// Frames that did not decode as envelopes at all.
    pub undecodable_frames: u64,
    /// Most epochs live at once.
    pub peak_live: usize,
    /// Real `Session::step` calls made.
    pub session_steps: u64,
    /// Steps the dense no-timer counterfactual would have made: a
    /// keep-alive loop without a timer wheel must poll both sides of
    /// every *resident* device on every tick of its residency, idle
    /// epochs-gaps included — `2 × resident_ticks` per slot.
    pub dense_equiv_steps: u64,
}

impl PersistentReport {
    /// `dense_equiv_steps / session_steps`: how many dense-counterfactual
    /// steps each real step replaced.
    pub fn step_saving(&self) -> f64 {
        if self.session_steps == 0 {
            return 0.0;
        }
        self.dense_equiv_steps as f64 / self.session_steps as f64
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`pct` in
/// 0..=100); 0 for an empty slice. Deterministic integer arithmetic —
/// no float rounding to drift across hosts.
pub(super) fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * pct / 100;
    sorted[rank as usize]
}

/// Per-class accumulator the batch driver fills while finalizing.
#[derive(Default)]
pub(super) struct ClassAcc {
    pub(super) submitted: usize,
    pub(super) admitted: usize,
    pub(super) completed: usize,
    pub(super) waits: Vec<u64>,
}

/// Folds per-class accumulators into [`ClassReport`] rows (ordered by
/// class) and mirrors them into `registry` as
/// `gateway.class.<label>.{submitted,admitted,completed}` counters and
/// a `gateway.class.<label>.backlog_wait` histogram.
pub(super) fn build_class_reports(
    stats: BTreeMap<ClassId, ClassAcc>,
    registry: &Registry,
) -> Vec<ClassReport> {
    stats
        .into_iter()
        .map(|(class, mut acc)| {
            acc.waits.sort_unstable();
            let label = class.label();
            registry.counter(
                &format!("gateway.class.{label}.submitted"),
                acc.submitted as u64,
            );
            registry.counter(
                &format!("gateway.class.{label}.admitted"),
                acc.admitted as u64,
            );
            registry.counter(
                &format!("gateway.class.{label}.completed"),
                acc.completed as u64,
            );
            for &w in &acc.waits {
                registry.observe(&format!("gateway.class.{label}.backlog_wait"), w as f64);
            }
            ClassReport {
                class,
                submitted: acc.submitted,
                admitted: acc.admitted,
                completed: acc.completed,
                wait_p50: percentile(&acc.waits, 50),
                wait_p99: percentile(&acc.waits, 99),
                wait_max: acc.waits.last().copied().unwrap_or(0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 0), 7);
        assert_eq!(percentile(&[7], 100), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }
}
