//! Regenerates the event-driven scheduler idle-scaling study (E22).
//!
//! Run standalone, this binary also *enforces* the scheduler target:
//! at 1024 mostly-idle sessions the wake-based gateway must make >= 5x
//! fewer `Session::step` calls than the dense every-session-every-tick
//! loop it replaced. stdout carries only the deterministic tables (CI
//! diffs 1 thread against 8), including the per-cell step counts.

use neuropuls_bench::experiments::sched_scaling::{acceptance_saving, run};
use neuropuls_bench::Scale;

fn main() {
    let (out, summary) = run(Scale::from_args());
    print!("{out}");

    let saving = acceptance_saving(&summary).expect("sweep carries the 1024-session cell");
    assert!(
        saving >= 5.0,
        "wake scheduler must make >= 5x fewer step calls than the dense loop at 1024 \
         mostly-idle sessions, measured {saving:.2}x"
    );
    eprintln!("scheduler target met: {saving:.2}x fewer step calls at 1024 sessions");
}
