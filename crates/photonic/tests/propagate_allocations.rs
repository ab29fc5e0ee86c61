//! `ScramblerMesh::propagate` allocates its returned per-port buffers
//! and the compiled mesh's tables, and nothing per sample: a call's
//! allocation count does not depend on the waveform length.
//!
//! A counting global allocator tallies allocations per thread, so the
//! test harness's own threads do not disturb the count.

use neuropuls_photonic::{
    Complex64, DieId, DieSampler, Environment, MeshSpec, ProcessVariation, ScramblerMesh,
};
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
fn propagation_allocations_do_not_grow_with_the_waveform() {
    let mut die = DieSampler::new(DieId(1), ProcessVariation::typical_soi());
    let mesh = ScramblerMesh::build(MeshSpec::reference(), &mut die);
    let env = Environment::at_temperature(40.0);
    let short = vec![Complex64::ONE; 8];
    let long = vec![Complex64::new(0.0, -1.0); 1024];

    // One outer vector and one buffer per port for the result, plus the
    // compiled mesh's five tables (coupler entries, pairing offsets,
    // sites, ring memory, channel fields).
    let expected = mesh.ports() + 1 + 5;
    for (waveform, flush) in [(&short, 4), (&long, 256), (&short, 0)] {
        let allocations = allocations_during(|| {
            let outputs = mesh.propagate(waveform, flush, &env);
            assert_eq!(outputs[0].len(), waveform.len() + flush);
        });
        assert_eq!(
            allocations,
            expected,
            "{} samples allocated {allocations} times",
            waveform.len() + flush
        );
    }
}
