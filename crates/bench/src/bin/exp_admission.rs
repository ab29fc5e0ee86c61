//! Regenerates the class-aware admission overload study (E24).
//!
//! Run standalone, this binary also *enforces* the fairness target: at
//! 1024 mixed-class sessions and 4x overload the FIFO policy starves
//! the trailing minority class outright (p99 backlog wait censored at
//! the run length) while equal-weight DWRR admits the whole minority
//! with every class's p99 inside 2x its weight-proportional fair
//! drain. stdout carries only the deterministic tables (CI diffs 1
//! thread against 8), including the per-cell p99 waits.

use neuropuls_bench::experiments::admission::{acceptance_row, run};
use neuropuls_bench::Scale;

fn main() {
    let (out, summary) = run(Scale::from_args());
    print!("{out}");

    let (_, _, run_ticks, fifo_p99, fifo_adm, dwrr_p99, _, bounded) =
        acceptance_row(&summary).expect("sweep carries the 1024-session 4x cell");
    assert_eq!(
        fifo_adm, 0,
        "fifo must starve the trailing minority outright at 4x overload"
    );
    assert!(
        bounded && dwrr_p99 < fifo_p99,
        "dwrr must bound every class's p99 inside its fair drain (minority {dwrr_p99} vs \
         fifo's censored {fifo_p99}, budget {run_ticks})"
    );
    eprintln!(
        "fairness target met: dwrr minority p99 {dwrr_p99} ticks vs fifo {fifo_p99} \
         (run length {run_ticks})"
    );
}
