//! Sharded, cache-fronted CRP/enrollment store for verifier farms.
//!
//! A single verifier keeps one device's enrollment state (rotating CRP,
//! previous CRP, memory digest) inline. A *farm* terminating hundreds
//! of concurrent gateway sessions cannot: enrollment state lives in a
//! store that must stay cheap on the hot path so the CRP lookups
//! co-exist with inference traffic on the same accelerator (the
//! NEUROPULS co-design argument). This module provides that store as a
//! deterministic in-memory model:
//!
//! * **Sharding** — records are distributed over N shards by a
//!   SplitMix64 finalizer of the device id, so a farm can partition
//!   ownership without coordination. Shard choice is pure arithmetic
//!   and reproducible everywhere.
//! * **Hot set** — each shard fronts its archive with a bounded LRU
//!   cache (`hot_capacity` records). A checkout served from the hot
//!   set is a *hit*; falling through to the archive is a *miss* and
//!   promotes the record; commits land hot and evict the
//!   least-recently-used record back to the archive when full. LRU
//!   age is a logical clock (accesses, not wall time), so eviction
//!   order is deterministic.
//! * **Exclusive checkout** — a record is checked out, mutated by a
//!   session (the CRP rotates on every §III-A authentication), and
//!   committed back. A second checkout of the same device while one is
//!   outstanding is a typed error, which is exactly the invariant a
//!   gateway needs: one live auth session per device.
//!
//! Hit / miss / eviction counters fold into a trace
//! [`Registry`] under `crp_store.*` via [`CrpStore::fold_into`].

use neuropuls_rt::rng::SplitMix64;
use neuropuls_rt::trace::Registry;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Shard count and per-shard cache size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrpStoreConfig {
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
    /// Hot-set capacity per shard (clamped to at least 1).
    pub hot_capacity: usize,
}

impl Default for CrpStoreConfig {
    fn default() -> Self {
        CrpStoreConfig {
            shards: 8,
            hot_capacity: 16,
        }
    }
}

/// Typed failures of the store's checkout discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrpStoreError {
    /// The device id has no enrollment record.
    NotEnrolled(u64),
    /// The record is checked out by a live session.
    CheckedOut(u64),
    /// The device id is already enrolled (enrollment is once).
    AlreadyEnrolled(u64),
    /// A commit arrived for a record that was never checked out.
    NotCheckedOut(u64),
}

impl fmt::Display for CrpStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrpStoreError::NotEnrolled(id) => write!(f, "device {id} is not enrolled"),
            CrpStoreError::CheckedOut(id) => {
                write!(f, "device {id} is checked out by a live session")
            }
            CrpStoreError::AlreadyEnrolled(id) => write!(f, "device {id} is already enrolled"),
            CrpStoreError::NotCheckedOut(id) => {
                write!(f, "device {id} was committed without a checkout")
            }
        }
    }
}

impl Error for CrpStoreError {}

/// Cache-effectiveness counters of one store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrpStoreStats {
    /// Checkouts served from a shard's hot set.
    pub hits: u64,
    /// Checkouts that fell through to the shard archive.
    pub misses: u64,
    /// Hot-set records displaced to the archive.
    pub evictions: u64,
    /// Records enrolled.
    pub enrollments: u64,
    /// Records committed back after mutation.
    pub commits: u64,
}

impl CrpStoreStats {
    /// Fraction of checkouts served hot; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct HotEntry<R> {
    record: R,
    last_use: u64,
}

struct Shard<R> {
    hot: BTreeMap<u64, HotEntry<R>>,
    cold: BTreeMap<u64, R>,
}

impl<R> Default for Shard<R> {
    fn default() -> Self {
        Shard {
            hot: BTreeMap::new(),
            cold: BTreeMap::new(),
        }
    }
}

/// Sharded LRU-fronted enrollment store; `R` is the per-device record
/// (e.g. a provisioned mutual-auth verifier).
pub struct CrpStore<R> {
    shards: Vec<Shard<R>>,
    hot_capacity: usize,
    clock: u64,
    checked_out: BTreeMap<u64, usize>,
    stats: CrpStoreStats,
}

impl<R> CrpStore<R> {
    /// Creates an empty store; zero shard / capacity values clamp to 1.
    pub fn new(config: CrpStoreConfig) -> Self {
        let shards = config.shards.max(1);
        CrpStore {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            hot_capacity: config.hot_capacity.max(1),
            clock: 0,
            checked_out: BTreeMap::new(),
            stats: CrpStoreStats::default(),
        }
    }

    /// Which shard owns `device_id`.
    pub fn shard_of(&self, device_id: u64) -> usize {
        // SplitMix64's full-avalanche output spreads consecutive device
        // ids evenly over shards.
        // invariant: `new` clamps the shard count to at least 1, so the
        // modulus is never zero.
        (SplitMix64::new(device_id).next() % self.shards.len() as u64) as usize
    }

    /// Enrolled records (hot + cold + checked out).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.hot.len() + s.cold.len())
            .sum::<usize>()
            + self.checked_out.len()
    }

    /// Whether nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache counters so far.
    pub fn stats(&self) -> CrpStoreStats {
        self.stats
    }

    /// `(hot, cold)` occupancy per shard, in shard order.
    pub fn shard_occupancy(&self) -> Vec<(usize, usize)> {
        self.shards
            .iter()
            .map(|s| (s.hot.len(), s.cold.len()))
            .collect()
    }

    /// Enrolls a new device record (lands in the shard archive: a fresh
    /// enrollment is not hot until a session touches it).
    ///
    /// # Errors
    ///
    /// [`CrpStoreError::AlreadyEnrolled`] when the id exists (enrolled
    /// or checked out).
    pub fn enroll(&mut self, device_id: u64, record: R) -> Result<(), CrpStoreError> {
        if self.contains(device_id) {
            return Err(CrpStoreError::AlreadyEnrolled(device_id));
        }
        let shard = self.shard_of(device_id);
        if let Some(s) = self.shards.get_mut(shard) {
            s.cold.insert(device_id, record);
        }
        self.stats.enrollments += 1;
        Ok(())
    }

    /// Whether `device_id` is enrolled (including checked out).
    pub fn contains(&self, device_id: u64) -> bool {
        if self.checked_out.contains_key(&device_id) {
            return true;
        }
        let shard = self.shard_of(device_id);
        self.shards
            .get(shard)
            .is_some_and(|s| s.hot.contains_key(&device_id) || s.cold.contains_key(&device_id))
    }

    /// Takes exclusive ownership of a record for one session. Hot-set
    /// hits and archive misses are counted; a miss is the cache telling
    /// the farm this device has not authenticated recently.
    ///
    /// # Errors
    ///
    /// [`CrpStoreError::NotEnrolled`] for unknown ids,
    /// [`CrpStoreError::CheckedOut`] when a session already owns it.
    pub fn checkout(&mut self, device_id: u64) -> Result<R, CrpStoreError> {
        if self.checked_out.contains_key(&device_id) {
            return Err(CrpStoreError::CheckedOut(device_id));
        }
        let shard_idx = self.shard_of(device_id);
        let Some(shard) = self.shards.get_mut(shard_idx) else {
            return Err(CrpStoreError::NotEnrolled(device_id));
        };
        let record = if let Some(entry) = shard.hot.remove(&device_id) {
            self.stats.hits += 1;
            entry.record
        } else if let Some(record) = shard.cold.remove(&device_id) {
            self.stats.misses += 1;
            record
        } else {
            return Err(CrpStoreError::NotEnrolled(device_id));
        };
        self.checked_out.insert(device_id, shard_idx);
        Ok(record)
    }

    /// Returns a (possibly rotated) record after a session. The record
    /// lands in the hot set — it was just used — evicting the shard's
    /// least-recently-used entry to the archive when the set is full.
    ///
    /// # Errors
    ///
    /// [`CrpStoreError::NotCheckedOut`] when no checkout is open for
    /// the id; the record is handed back inside the error-free path
    /// only, so the caller keeps it on failure and state stays
    /// consistent.
    pub fn commit(&mut self, device_id: u64, record: R) -> Result<(), CrpStoreError> {
        let Some(shard_idx) = self.checked_out.remove(&device_id) else {
            return Err(CrpStoreError::NotCheckedOut(device_id));
        };
        self.clock += 1;
        let clock = self.clock;
        let hot_capacity = self.hot_capacity;
        let mut evicted = 0u64;
        if let Some(shard) = self.shards.get_mut(shard_idx) {
            shard.hot.insert(
                device_id,
                HotEntry {
                    record,
                    last_use: clock,
                },
            );
            while shard.hot.len() > hot_capacity {
                // Deterministic LRU victim: smallest (last_use, id).
                let victim = shard
                    .hot
                    .iter()
                    .min_by_key(|(id, e)| (e.last_use, **id))
                    .map(|(id, _)| *id);
                let Some(victim) = victim else { break };
                if let Some(entry) = shard.hot.remove(&victim) {
                    shard.cold.insert(victim, entry.record);
                    evicted += 1;
                }
            }
        }
        self.stats.evictions += evicted;
        self.stats.commits += 1;
        Ok(())
    }

    /// Reads a record in place without affecting LRU order or counters
    /// (diagnostics; sessions use [`checkout`](CrpStore::checkout)).
    pub fn peek(&self, device_id: u64) -> Option<&R> {
        let shard = self.shards.get(self.shard_of(device_id))?;
        shard
            .hot
            .get(&device_id)
            .map(|e| &e.record)
            .or_else(|| shard.cold.get(&device_id))
    }

    /// Folds the counters into `registry` under `crp_store.*`, plus a
    /// `crp_store.shard_hot` histogram of per-shard hot occupancy.
    pub fn fold_into(&self, registry: &Registry) {
        registry.counter("crp_store.hits", self.stats.hits);
        registry.counter("crp_store.misses", self.stats.misses);
        registry.counter("crp_store.evictions", self.stats.evictions);
        registry.counter("crp_store.enrollments", self.stats.enrollments);
        registry.counter("crp_store.commits", self.stats.commits);
        for &(hot, _) in &self.shard_occupancy() {
            registry.observe("crp_store.shard_hot", hot as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(shards: usize, hot: usize) -> CrpStore<u64> {
        CrpStore::new(CrpStoreConfig {
            shards,
            hot_capacity: hot,
        })
    }

    #[test]
    fn enroll_checkout_commit_roundtrip() {
        let mut s = store(4, 2);
        s.enroll(10, 100).unwrap();
        assert!(s.contains(10));
        assert_eq!(s.len(), 1);
        let r = s.checkout(10).unwrap();
        assert_eq!(r, 100);
        assert!(s.contains(10), "checked-out records are still enrolled");
        s.commit(10, r + 1).unwrap();
        assert_eq!(s.peek(10), Some(&101));
        // First touch came from the archive.
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.stats().hits, 0);
        // Second touch is hot.
        let r = s.checkout(10).unwrap();
        s.commit(10, r).unwrap();
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn checkout_is_exclusive() {
        let mut s = store(2, 2);
        s.enroll(7, 70).unwrap();
        let r = s.checkout(7).unwrap();
        assert_eq!(s.checkout(7), Err(CrpStoreError::CheckedOut(7)));
        s.commit(7, r).unwrap();
        assert!(s.checkout(7).is_ok());
    }

    #[test]
    fn typed_errors_cover_the_discipline() {
        let mut s = store(2, 2);
        assert_eq!(s.checkout(1), Err(CrpStoreError::NotEnrolled(1)));
        assert_eq!(s.commit(1, 0), Err(CrpStoreError::NotCheckedOut(1)));
        s.enroll(1, 10).unwrap();
        assert_eq!(s.enroll(1, 11), Err(CrpStoreError::AlreadyEnrolled(1)));
        let r = s.checkout(1).unwrap();
        assert_eq!(
            s.enroll(1, 12),
            Err(CrpStoreError::AlreadyEnrolled(1)),
            "checked-out ids stay enrolled"
        );
        s.commit(1, r).unwrap();
        for e in [
            CrpStoreError::NotEnrolled(1),
            CrpStoreError::CheckedOut(2),
            CrpStoreError::AlreadyEnrolled(3),
            CrpStoreError::NotCheckedOut(4),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        // One shard so every id collides; capacity 2.
        let mut s = store(1, 2);
        for id in 0..3u64 {
            s.enroll(id, id * 10).unwrap();
        }
        // Touch 0 then 1 then 2: committing 2 overflows the hot set and
        // evicts 0, the least recently used.
        for id in 0..3u64 {
            let r = s.checkout(id).unwrap();
            s.commit(id, r).unwrap();
        }
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.shard_occupancy(), vec![(2, 1)]);
        // Re-touching 0 misses (it was evicted) and its commit evicts
        // 1, now the oldest hot entry; 2 stays hot throughout.
        let r = s.checkout(0).unwrap();
        s.commit(0, r).unwrap();
        assert_eq!(s.stats().misses, 4, "3 first touches + re-touch of 0");
        assert_eq!(s.stats().evictions, 2);
        let r = s.checkout(2).unwrap();
        s.commit(2, r).unwrap();
        assert_eq!(s.stats().hits, 1);
        let r = s.checkout(1).unwrap();
        s.commit(1, r).unwrap();
        assert_eq!(s.stats().misses, 5, "1 was displaced by 0's return");
    }

    #[test]
    fn records_spread_over_shards() {
        let mut s = store(8, 4);
        for id in 0..64u64 {
            s.enroll(id, id).unwrap();
        }
        let occupied = s
            .shard_occupancy()
            .iter()
            .filter(|&&(h, c)| h + c > 0)
            .count();
        assert!(
            occupied >= 6,
            "SplitMix64 should hit most of 8 shards: {occupied}"
        );
        // Shard choice is stable.
        for id in 0..64u64 {
            assert_eq!(s.shard_of(id), s.shard_of(id));
        }
    }

    #[test]
    fn zero_config_clamps_instead_of_panicking() {
        let mut s = store(0, 0);
        s.enroll(1, 1).unwrap();
        let r = s.checkout(1).unwrap();
        s.commit(1, r).unwrap();
        assert_eq!(s.shard_occupancy().len(), 1);
    }

    #[test]
    fn hit_rate_and_registry_fold() {
        let mut s = store(2, 4);
        for id in 0..4u64 {
            s.enroll(id, id).unwrap();
        }
        for _ in 0..3 {
            for id in 0..4u64 {
                let r = s.checkout(id).unwrap();
                s.commit(id, r).unwrap();
            }
        }
        let stats = s.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 8);
        assert!((stats.hit_rate() - 8.0 / 12.0).abs() < 1e-12);
        let registry = Registry::new();
        s.fold_into(&registry);
        assert_eq!(registry.counter_value("crp_store.hits"), 8);
        assert_eq!(registry.counter_value("crp_store.misses"), 4);
        assert_eq!(registry.counter_value("crp_store.enrollments"), 4);
    }

    #[test]
    fn empty_store_reports_cleanly() {
        let s: CrpStore<u64> = CrpStore::new(CrpStoreConfig::default());
        assert!(s.is_empty());
        assert_eq!(s.stats().hit_rate(), 0.0);
        assert_eq!(s.peek(9), None);
    }
}
