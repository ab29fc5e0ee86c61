//! Deterministic parallel experiment harness — a std-only thread pool.
//!
//! The workspace is hermetic (no rayon, no crossbeam), but the paper's
//! evaluation sweeps are embarrassingly parallel device populations:
//! 100 dies × 50 reads in E1, 50 dies × 100 re-reads in E2, independent
//! fleet sizes in E17. This module gives those loops a `par_map`
//! built on [`std::thread::scope`] with nothing but `std`.
//!
//! # Determinism contract
//!
//! Parallel output is **byte-identical** to serial output. The pool
//! guarantees its half of the contract — results come back in input
//! order regardless of which worker computed them, and the worker count
//! never influences *what* is computed, only *where*. Callers must hold
//! up the other half: every item derives its randomness from its own
//! seed (die id, experiment id, item index), never from RNG state
//! shared across items. CI enforces the end-to-end property by diffing
//! `exp --smoke` at 1 and N threads.
//!
//! # Sizing
//!
//! The worker count comes from, in priority order:
//!
//! 1. a scoped [`with_threads`] override (used by tests and by E21's
//!    fixed-width passes);
//! 2. the `NEUROPULS_THREADS` environment variable (read once per
//!    process; invalid or zero values are ignored);
//! 3. [`std::thread::available_parallelism`].
//!
//! At 1 thread every entry point degrades to a plain serial loop on the
//! calling thread — no threads are spawned, so thread-local state and
//! panic backtraces behave exactly like hand-written serial code.
//!
//! # Panics
//!
//! A panic in any item closure is propagated to the caller after all
//! workers have been joined (the scope never leaks detached threads),
//! mirroring the serial behavior as closely as possible: the first
//! panicking worker's payload is re-raised via
//! [`std::panic::resume_unwind`].

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Cached process-wide worker count (override excluded).
static CONFIGURED: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Scoped override installed by [`with_threads`]; inherited by
    /// pool workers so nested `par_map` calls see the same width.
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default worker count: `NEUROPULS_THREADS` if set to
/// a positive integer, otherwise [`std::thread::available_parallelism`]
/// (1 if unavailable). Computed once and cached.
pub fn configured_threads() -> usize {
    *CONFIGURED.get_or_init(|| {
        if let Ok(v) = std::env::var("NEUROPULS_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
            eprintln!("NEUROPULS_THREADS={v:?} is not a positive integer; ignoring");
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// The worker count the next `par_map` call on this thread
/// will use: the innermost [`with_threads`] override, else
/// [`configured_threads`].
pub fn current_threads() -> usize {
    OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(configured_threads)
}

/// Runs `f` with the pool width forced to `n` on this thread (and on
/// any workers transitively spawned by pool calls inside `f`). Restores
/// the previous width on exit, including on unwind.
///
/// `with_threads(1, ...)` is the supported way to force a fully serial
/// execution for baselines and determinism diffs.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Maps `f` over `items` on the pool, preserving input order.
///
/// Items are claimed by workers through an atomic cursor (dynamic load
/// balancing — a slow die does not stall the rest of the population),
/// and each result is returned at its item's input index, so the output
/// is independent of scheduling. With 1 effective thread, or 0/1 items,
/// this is exactly `items.into_iter().map(f).collect()` on the calling
/// thread.
///
/// # Panics
///
/// Re-raises the first observed panic from `f` after all workers have
/// finished.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = current_threads().min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    let len = items.len();
    // Each worker takes ownership of the items it claims; a per-slot
    // mutex is the std-only way to hand out `T` by value from a shared
    // slice (uncontended by construction: every index is claimed once).
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let inherited = OVERRIDE.with(|o| o.get());

    let slots_ref = &slots;
    let cursor_ref = &cursor;
    let f_ref = &f;

    let collected = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    OVERRIDE.with(|o| o.set(inherited));
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor_ref.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        let item = slots_ref[i]
                            .lock()
                            .expect("slot mutex poisoned")
                            .take()
                            .expect("every index is claimed exactly once");
                        out.push((i, f_ref(item)));
                    }
                    out
                })
            })
            .collect();

        let mut merged: Vec<(usize, R)> = Vec::with_capacity(len);
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(part) => merged.extend(part),
                Err(payload) => panicked = panicked.or(Some(payload)),
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        merged
    });

    let mut results: Vec<Option<R>> = (0..len).map(|_| None).collect();
    for (i, r) in collected {
        results[i] = Some(r);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn par_map_preserves_order() {
        let out = with_threads(4, || par_map((0..100).collect(), |i: usize| i * i));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<usize> = with_threads(4, || par_map(Vec::<usize>::new(), |i| i));
        assert!(out.is_empty());
    }

    #[test]
    fn one_thread_runs_on_calling_thread() {
        let caller = std::thread::current().id();
        let spawned = AtomicBool::new(false);
        with_threads(1, || {
            par_map(vec![1, 2, 3], |i: i32| {
                if std::thread::current().id() != caller {
                    spawned.store(true, Ordering::Relaxed);
                }
                i
            })
        });
        assert!(
            !spawned.load(Ordering::Relaxed),
            "1-thread fallback must not spawn workers"
        );
    }

    #[test]
    fn panic_propagates_and_workers_join() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map((0..32).collect(), |i: usize| {
                    if i == 7 {
                        panic!("die 7 exploded");
                    }
                    i
                })
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "die 7 exploded");
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = current_threads();
        let _ = std::panic::catch_unwind(|| {
            with_threads(3, || panic!("boom"));
        });
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn with_threads_nests() {
        with_threads(4, || {
            assert_eq!(current_threads(), 4);
            with_threads(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 4);
        });
    }

    #[test]
    fn workers_inherit_override() {
        // A nested par_map inside a worker must see the scoped width.
        let widths = with_threads(2, || par_map(vec![(), ()], |()| current_threads()));
        assert_eq!(widths, vec![2, 2]);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // The pool half of the determinism contract: identical results
        // at every width.
        let serial = with_threads(1, || {
            par_map((0..64).collect(), |i: u64| i.wrapping_mul(0x9E37))
        });
        let wide = with_threads(8, || {
            par_map((0..64).collect(), |i: u64| i.wrapping_mul(0x9E37))
        });
        assert_eq!(serial, wide);
    }
}
