//! `DeterministicReader::respond` works in the reader's own buffers: the
//! only allocation a read makes is the returned `Response`. Building the
//! reader (one impulse propagation and its tables) allocates up front.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads do not disturb the count.

use neuropuls_photonic::DieId;
use neuropuls_puf::bits::Challenge;
use neuropuls_puf::photonic::PhotonicPuf;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the wrapper only
// bumps a const-initialized thread-local counter, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_read_allocates_only_its_response() {
    let puf = PhotonicPuf::reference(DieId(5), 1);
    let mut reader = puf.deterministic_reader();
    let mut rng = StdRng::seed_from_u64(9);
    let challenges: Vec<Challenge> = (0..16).map(|_| Challenge::random(64, &mut rng)).collect();
    // All-zeros and all-ones bursts bound the number of set bits.
    let extremes = [
        Challenge::from_u64(0, 64),
        Challenge::from_u64(u64::MAX, 64),
    ];
    for challenge in challenges.iter().chain(&extremes) {
        let allocations = allocations_during(|| {
            let response = reader.respond(challenge).unwrap();
            assert_eq!(response.len(), 64);
        });
        assert_eq!(allocations, 1, "a read allocated {allocations} times");
    }
}
