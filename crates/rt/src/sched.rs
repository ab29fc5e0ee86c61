//! Deterministic discrete-event scheduling: a hierarchical timer wheel.
//!
//! The session gateway (`protocols::gateway`) historically stepped every
//! active session on every tick, so an idle session waiting out a 3-tick
//! ARQ timeout cost as much as one doing work. This module provides the
//! timer for an event-driven loop whose per-tick work is proportional
//! to the number of *runnable* sessions: [`TimerWheel`], a hierarchical
//! timing wheel (four levels of 64 slots, entries beyond the horizon
//! parked in an overflow list) with O(1) schedule/cancel and amortised
//! O(1) per-tick advance. Timers that expire on the same tick fire in
//! schedule order (global sequence numbers, not slot order, so
//! cascading never perturbs FIFO stability).
//!
//! Everything here is driven by an explicit simulated tick counter and
//! contains no clocks, no hashing of addresses, and no randomness, so a
//! schedule of events replays byte-identically at any
//! `NEUROPULS_THREADS` setting.

/// Number of slots per wheel level. 64 keeps slot indexing to a shift
/// and mask (`deadline >> (6 * level) & 63`).
const SLOTS: usize = 64;
/// Bits of tick covered by one level.
const SLOT_BITS: u32 = 6;
/// Number of hierarchical levels. Four levels cover `64^4` ≈ 16.7 M
/// ticks ahead of `now`; anything farther sits in the overflow list.
const LEVELS: usize = 4;
/// Horizon (in ticks ahead of `now`) covered by the wheel proper.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

/// Handle to a scheduled timer, returned by [`TimerWheel::schedule_at`].
///
/// Handles are generation-stamped: cancelling an already-cancelled or
/// already-fired timer is a detectable no-op, and a handle can never
/// accidentally cancel a later timer that reused the same slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    index: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Entry {
    deadline: u64,
    token: u64,
    seq: u64,
    generation: u32,
    armed: bool,
}

/// A hierarchical timer wheel over an explicit simulated tick counter.
///
/// Deadlines are absolute ticks. Scheduling a deadline at or before
/// `now` clamps it to `now + 1` (the earliest tick a discrete-event
/// loop can still observe). Expired timers are delivered by
/// [`advance_to`](Self::advance_to) in `(deadline, schedule order)`
/// order.
#[derive(Debug)]
pub struct TimerWheel {
    now: u64,
    /// `LEVELS * SLOTS` buckets of slab indices, flattened row-major.
    slots: Vec<Vec<u32>>,
    /// Entries with `deadline - now >= HORIZON` at schedule time.
    overflow: Vec<u32>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    next_seq: u64,
    armed: usize,
}

impl TimerWheel {
    /// New wheel with `now == 0`.
    pub fn new() -> Self {
        Self::with_start(0)
    }

    /// New wheel whose clock starts at `start` ticks.
    pub fn with_start(start: u64) -> Self {
        TimerWheel {
            now: start,
            slots: vec![Vec::new(); LEVELS * SLOTS],
            overflow: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            armed: 0,
        }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of armed (scheduled, not yet fired or cancelled) timers.
    pub fn len(&self) -> usize {
        self.armed
    }

    /// True when no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.armed == 0
    }

    /// Schedule `token` to fire at absolute tick `deadline` (clamped to
    /// `now + 1` if already due) and return a cancellation handle.
    pub fn schedule_at(&mut self, deadline: u64, token: u64) -> TimerId {
        let deadline = deadline.max(self.now + 1);
        let seq = self.next_seq;
        self.next_seq += 1;
        let index = match self.free.pop() {
            Some(index) => {
                let entry = &mut self.entries[index as usize];
                entry.deadline = deadline;
                entry.token = token;
                entry.seq = seq;
                entry.armed = true;
                index
            }
            None => {
                let index = self.entries.len() as u32;
                self.entries.push(Entry {
                    deadline,
                    token,
                    seq,
                    generation: 0,
                    armed: true,
                });
                index
            }
        };
        self.armed += 1;
        let generation = self.entries[index as usize].generation;
        self.place(index);
        TimerId { index, generation }
    }

    /// Cancel a scheduled timer. Returns `true` if the timer was still
    /// armed; cancelling twice (or after the timer fired) returns
    /// `false` and changes nothing.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.entries.get_mut(id.index as usize) {
            Some(entry) if entry.armed && entry.generation == id.generation => {
                entry.armed = false;
                self.armed -= 1;
                true
            }
            _ => false,
        }
    }

    /// Earliest armed deadline, if any. Linear in the slab size; meant
    /// for idle-detection and tests, not the per-tick hot path.
    pub fn next_deadline(&self) -> Option<u64> {
        self.entries
            .iter()
            .filter(|e| e.armed)
            .map(|e| e.deadline)
            .min()
    }

    /// Advance the clock to `target`, appending every timer that fires
    /// in `(now, target]` to `out` as `(fire_tick, token)` pairs, in
    /// `(deadline, schedule order)` order.
    pub fn advance_to(&mut self, target: u64, out: &mut Vec<(u64, u64)>) {
        let mut due: Vec<u32> = Vec::new();
        while self.now < target {
            let tick = self.now + 1;
            self.now = tick;
            if tick.is_multiple_of(SLOTS as u64) {
                self.cascade_boundaries(tick);
            }
            let slot_index = (tick % SLOTS as u64) as usize;
            if !self.slots[slot_index].is_empty() {
                let bucket = std::mem::take(&mut self.slots[slot_index]);
                due.clear();
                for index in bucket {
                    let entry = &self.entries[index as usize];
                    if entry.armed {
                        debug_assert_eq!(entry.deadline, tick);
                        due.push(index);
                    } else {
                        self.recycle_if_cancelled(index);
                    }
                }
                due.sort_unstable_by_key(|&index| self.entries[index as usize].seq);
                for &index in &due {
                    let entry = &mut self.entries[index as usize];
                    entry.armed = false;
                    self.armed -= 1;
                    out.push((tick, entry.token));
                    entry.generation = entry.generation.wrapping_add(1);
                    self.free.push(index);
                }
            }
        }
    }

    /// Re-bucket entries whose covering level changes at this tick
    /// boundary. Called only when `tick % 64 == 0`.
    fn cascade_boundaries(&mut self, tick: u64) {
        let per_l3 = (SLOTS as u64).pow(3);
        if tick.is_multiple_of(per_l3) {
            // Pull overflow entries that are now within the horizon.
            let parked = std::mem::take(&mut self.overflow);
            for index in parked {
                let entry = &self.entries[index as usize];
                if !entry.armed {
                    self.recycle_if_cancelled(index);
                } else if entry.deadline - tick < HORIZON {
                    self.place(index);
                } else {
                    self.overflow.push(index);
                }
            }
            self.cascade_level(3, tick);
        }
        if tick.is_multiple_of((SLOTS as u64).pow(2)) {
            self.cascade_level(2, tick);
        }
        self.cascade_level(1, tick);
    }

    fn cascade_level(&mut self, level: usize, tick: u64) {
        let slot_index = ((tick >> (SLOT_BITS * level as u32)) % SLOTS as u64) as usize;
        let bucket = std::mem::take(&mut self.slots[level * SLOTS + slot_index]);
        for index in bucket {
            if self.entries[index as usize].armed {
                self.place(index);
            } else {
                self.recycle_if_cancelled(index);
            }
        }
    }

    /// Put an armed entry in the bucket for its deadline, relative to
    /// the current `now`. A cascaded entry whose deadline *is* the
    /// current tick (delta 0) lands in the level-0 slot that
    /// [`advance_to`](Self::advance_to) drains immediately after the
    /// cascade, so it still fires on time.
    fn place(&mut self, index: u32) {
        let entry = &self.entries[index as usize];
        let deadline = entry.deadline;
        debug_assert!(deadline >= self.now);
        let delta = deadline - self.now;
        if delta >= HORIZON {
            self.overflow.push(index);
            return;
        }
        let mut level = 0;
        while delta >= (SLOTS as u64).pow(level as u32 + 1) {
            level += 1;
        }
        let slot = ((deadline >> (SLOT_BITS * level as u32)) % SLOTS as u64) as usize;
        self.slots[level * SLOTS + slot].push(index);
    }

    fn recycle_if_cancelled(&mut self, index: u32) {
        let entry = &mut self.entries[index as usize];
        if !entry.armed {
            entry.generation = entry.generation.wrapping_add(1);
            self.free.push(index);
        }
    }
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn fire_all(wheel: &mut TimerWheel, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        wheel.advance_to(horizon, &mut out);
        out
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        wheel.schedule_at(10, 1);
        wheel.schedule_at(3, 2);
        wheel.schedule_at(7, 3);
        let fired = fire_all(&mut wheel, 16);
        assert_eq!(fired, vec![(3, 2), (7, 3), (10, 1)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadline_clamps_to_next_tick() {
        let mut wheel = TimerWheel::with_start(100);
        wheel.schedule_at(5, 9);
        assert_eq!(wheel.next_deadline(), Some(101));
        let fired = fire_all(&mut wheel, 101);
        assert_eq!(fired, vec![(101, 9)]);
    }

    #[test]
    fn cancel_is_idempotent_and_rearm_fires_once() {
        let mut wheel = TimerWheel::new();
        let id = wheel.schedule_at(5, 7);
        assert!(wheel.cancel(id));
        assert!(!wheel.cancel(id), "second cancel must be a no-op");
        let rearmed = wheel.schedule_at(9, 7);
        let fired = fire_all(&mut wheel, 64);
        assert_eq!(fired, vec![(9, 7)]);
        assert!(!wheel.cancel(rearmed), "fired timer cannot be cancelled");
    }

    #[test]
    fn stale_handle_cannot_cancel_reused_slot() {
        let mut wheel = TimerWheel::new();
        let id = wheel.schedule_at(2, 1);
        assert_eq!(fire_all(&mut wheel, 4), vec![(2, 1)]);
        // The slab slot is recycled for a new timer; the old handle
        // must not be able to cancel it.
        let _fresh = wheel.schedule_at(8, 2);
        assert!(!wheel.cancel(id));
        assert_eq!(fire_all(&mut wheel, 8), vec![(8, 2)]);
    }

    #[test]
    fn overflow_entries_fire_at_their_deadline() {
        let mut wheel = TimerWheel::new();
        let deadline = HORIZON + 12_345;
        wheel.schedule_at(deadline, 42);
        assert_eq!(wheel.next_deadline(), Some(deadline));
        let mut out = Vec::new();
        wheel.advance_to(deadline - 1, &mut out);
        assert!(out.is_empty());
        wheel.advance_to(deadline, &mut out);
        assert_eq!(out, vec![(deadline, 42)]);
    }

    #[test]
    fn rearm_across_overflow_boundary_fires_once_at_each_deadline() {
        let mut wheel = TimerWheel::new();
        // Parked beyond the horizon, cancelled while still in the
        // overflow list, re-armed inside the wheel proper: only the
        // re-armed deadline may fire.
        let parked = wheel.schedule_at(HORIZON + 99, 7);
        assert!(wheel.cancel(parked));
        wheel.schedule_at(50, 7);
        assert_eq!(fire_all(&mut wheel, 60), vec![(50, 7)]);
        // And the other direction: an in-horizon timer re-armed out to
        // the overflow list must survive the level-3 boundary cascade
        // that pulls overflow entries back in, firing exactly once at
        // its deadline.
        let near = wheel.schedule_at(100, 8);
        assert!(wheel.cancel(near));
        let far = HORIZON + 2 * (SLOTS as u64).pow(3) + 5;
        wheel.schedule_at(far, 8);
        let mut out = Vec::new();
        wheel.advance_to(far - 1, &mut out);
        assert!(out.is_empty(), "{out:?}");
        wheel.advance_to(far + SLOTS as u64, &mut out);
        assert_eq!(out, vec![(far, 8)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn stale_cancel_of_fired_generation_cannot_touch_rearmed_slot() {
        let mut wheel = TimerWheel::new();
        let fired = wheel.schedule_at(3, 11);
        assert_eq!(fire_all(&mut wheel, 4), vec![(3, 11)]);
        // The re-arm reuses the freed slab slot under a new generation;
        // the fired handle must be inert against it.
        let rearmed = wheel.schedule_at(10, 11);
        assert_eq!(fired.index, rearmed.index, "slab slot is recycled");
        assert!(!wheel.cancel(fired), "fired generation must be dead");
        assert_eq!(wheel.len(), 1);
        assert!(wheel.cancel(rearmed), "live generation still cancels");
        assert_eq!(fire_all(&mut wheel, 64), vec![]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn idle_jump_lands_exactly_on_wake_ticks() {
        // The event-driven drivers fast-forward across fleet-wide
        // silence with `advance_to(next_deadline())`: a jump whose
        // target *is* the deadline must deliver the wake on the landing
        // tick, including when that tick is also a cascade boundary.
        let level2 = (SLOTS as u64).pow(2);
        let level3 = (SLOTS as u64).pow(3);
        let deadlines = [
            SLOTS as u64,    // level-1 cascade tick
            3 * level2,      // level-2 cascade tick
            level3,          // level-3 cascade tick (overflow rescan)
            level3 + 12_345, // plain mid-slot tick after the big jump
        ];
        let mut wheel = TimerWheel::new();
        for (token, &deadline) in deadlines.iter().enumerate() {
            wheel.schedule_at(deadline, token as u64);
        }
        let mut fired = Vec::new();
        while let Some(next) = wheel.next_deadline() {
            let before = fired.len();
            wheel.advance_to(next, &mut fired);
            assert_eq!(fired.len(), before + 1, "jump to {next} missed its wake");
            assert_eq!(fired.last().copied(), Some((next, before as u64)));
            assert_eq!(wheel.now(), next);
        }
        let schedule: Vec<(u64, u64)> = deadlines
            .iter()
            .enumerate()
            .map(|(token, &deadline)| (deadline, token as u64))
            .collect();
        assert_eq!(fired, schedule);
        assert!(wheel.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn expiry_order_matches_deadline_then_schedule_order(
            deadlines in prop::collection::vec(1u64..5000, 1..64),
        ) {
            let mut wheel = TimerWheel::new();
            for (token, &deadline) in deadlines.iter().enumerate() {
                wheel.schedule_at(deadline, token as u64);
            }
            let fired = {
                let mut out = Vec::new();
                wheel.advance_to(5000, &mut out);
                out
            };
            prop_assert_eq!(fired.len(), deadlines.len());
            // Expected order: stable sort by deadline keeps equal
            // deadlines in schedule (= token) order.
            let mut expected: Vec<(u64, u64)> = deadlines
                .iter()
                .enumerate()
                .map(|(token, &deadline)| (deadline, token as u64))
                .collect();
            expected.sort_by_key(|&(deadline, _)| deadline);
            prop_assert_eq!(fired, expected);
        }

        #[test]
        fn same_tick_firing_is_fifo_stable(
            count in 2usize..48,
            deadline in 1u64..4096,
        ) {
            let mut wheel = TimerWheel::new();
            for token in 0..count as u64 {
                wheel.schedule_at(deadline, token);
            }
            let mut out = Vec::new();
            wheel.advance_to(deadline, &mut out);
            let tokens: Vec<u64> = out.iter().map(|&(_, token)| token).collect();
            prop_assert_eq!(tokens, (0..count as u64).collect::<Vec<u64>>());
        }

        #[test]
        fn cascade_is_transparent_to_expiry(
            // Deadlines straddling level-0 (64), level-1 (4096) and
            // level-2 (262144) boundaries so entries must cascade
            // down at least one level before firing.
            offsets in prop::collection::vec(1u64..600_000, 1..24),
            chunks in prop::collection::vec(1u64..100_000, 1..8),
        ) {
            let mut incremental = TimerWheel::new();
            let mut oneshot = TimerWheel::new();
            for (token, &offset) in offsets.iter().enumerate() {
                incremental.schedule_at(offset, token as u64);
                oneshot.schedule_at(offset, token as u64);
            }
            let horizon = offsets.iter().copied().max().unwrap_or(1);
            // Advance one wheel in arbitrary chunk sizes and the other
            // in a single jump: the fired sequences must be identical.
            let mut chunked = Vec::new();
            let mut target = 0u64;
            for &chunk in &chunks {
                target = (target + chunk).min(horizon);
                incremental.advance_to(target, &mut chunked);
            }
            incremental.advance_to(horizon, &mut chunked);
            let mut single = Vec::new();
            oneshot.advance_to(horizon, &mut single);
            prop_assert_eq!(chunked, single);
            prop_assert!(incremental.is_empty());
        }

        #[test]
        fn cancelled_timers_never_fire_and_rearm_is_exact(
            deadlines in prop::collection::vec(1u64..2000, 1..32),
            cancel_mask in prop::collection::vec(any::<bool>(), 32..33),
        ) {
            let mut wheel = TimerWheel::new();
            let ids: Vec<TimerId> = deadlines
                .iter()
                .enumerate()
                .map(|(token, &deadline)| wheel.schedule_at(deadline, token as u64))
                .collect();
            let mut expected: Vec<(u64, u64)> = Vec::new();
            for (token, (&deadline, &id)) in deadlines.iter().zip(&ids).enumerate() {
                if cancel_mask[token % cancel_mask.len()] {
                    prop_assert!(wheel.cancel(id));
                    prop_assert!(!wheel.cancel(id));
                    // Re-arm at a shifted deadline; it must fire there.
                    wheel.schedule_at(deadline + 2000, token as u64);
                    expected.push((deadline + 2000, token as u64));
                } else {
                    expected.push((deadline, token as u64));
                }
            }
            expected.sort_by_key(|&(deadline, _)| deadline);
            let mut fired = Vec::new();
            wheel.advance_to(4096, &mut fired);
            prop_assert_eq!(fired, expected);
            prop_assert!(wheel.is_empty());
        }
    }
}
