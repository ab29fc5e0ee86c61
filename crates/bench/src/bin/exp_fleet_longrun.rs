//! Regenerates the persistent keep-alive fleet study (E23).
//!
//! Run standalone, this binary also *enforces* the persistent-session
//! targets: at 1024 mostly-idle devices the keep-alive driver must
//! make >= 5x fewer `Session::step` calls than a dense
//! every-resident-slot-every-tick loop, and a 10% lossy control link
//! must lose zero re-attestations (every fired epoch completes).
//! stdout carries only the deterministic tables (CI diffs 1 thread
//! against 8), including the per-cell step and epoch counts.

use neuropuls_bench::experiments::fleet_longrun::{acceptance, run, saving};
use neuropuls_bench::Scale;

fn main() {
    let (out, summary) = run(Scale::from_args());
    print!("{out}");

    let (step_saving, no_lost) = acceptance(&summary).expect("sweep carries the 1024-device cell");
    assert!(
        step_saving >= 5.0,
        "keep-alive driver must make >= 5x fewer step calls than the dense loop at 1024 \
         mostly-idle devices, measured {step_saving:.2}x"
    );
    assert!(
        no_lost,
        "10% lossy control link must lose zero re-attestations at 1024 devices"
    );
    for row in &summary {
        assert!(
            row.8 && row.6 == 0,
            "re-attestation conservation violated in cell {row:?}"
        );
    }
    eprintln!(
        "persistent-session targets met: {step_saving:.2}x fewer step calls and zero lost \
         re-attestations at 1024 devices"
    );
    eprintln!(
        "(every sweep cell conserved its epochs; best saving {:.2}x)",
        summary.iter().map(saving).fold(0.0, f64::max)
    );
}
