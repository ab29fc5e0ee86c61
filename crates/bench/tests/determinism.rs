//! The harness half of the determinism contract: every parallelized
//! experiment must render byte-identical output at 1 thread and at N
//! threads. CI additionally diffs `exp --smoke` stdout at the process
//! level; these tests localize a violation to the experiment that
//! introduced shared RNG state.

use neuropuls_bench::{experiments, Scale};
use neuropuls_rt::pool;

fn assert_thread_invariant(name: &str, render: impl Fn() -> String + Sync) {
    let serial = pool::with_threads(1, &render);
    let wide = pool::with_threads(4, &render);
    assert_eq!(serial, wide, "{name} output depends on the thread count");
}

#[test]
fn fig3_is_thread_invariant() {
    assert_thread_invariant("E1/E1b", || {
        let (ro, _) = experiments::fig3::run_ro(Scale::Smoke);
        let (ph, _) = experiments::fig3::run_photonic(Scale::Smoke);
        ro.stable_string() + &ph.stable_string()
    });
}

#[test]
fn puf_quality_is_thread_invariant() {
    assert_thread_invariant("E2", || {
        experiments::puf_quality::run(Scale::Smoke)
            .0
            .stable_string()
    });
}

#[test]
fn environment_is_thread_invariant() {
    assert_thread_invariant("E11", || {
        experiments::environment::run(Scale::Smoke)
            .0
            .stable_string()
    });
}

#[test]
fn aging_is_thread_invariant() {
    assert_thread_invariant("E15", || {
        experiments::aging::run(Scale::Smoke).0.stable_string()
    });
}

#[test]
fn fleet_is_thread_invariant() {
    assert_thread_invariant("E17", || {
        experiments::fleet::run(Scale::Smoke).0.stable_string()
    });
}
