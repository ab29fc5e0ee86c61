//! E19 — instrumentation overhead: the E17 fleet workload run untraced
//! and fully traced (event tracer + metrics registry), comparing wall
//! clocks and asserting the reports are identical. The traced run's
//! event log is the `TRACE_exp_fleet.jsonl` artifact the determinism
//! gate diffs across thread counts: the fleet simulation is a single
//! serial discrete-event run, so its trace is byte-identical at any
//! `NEUROPULS_THREADS` value.
//!
//! Wall clocks are host measurements and therefore volatile; the <5%
//! overhead budget (`assert_overhead_budget`) is asserted only by
//! `exp E19`, not by the all-experiments run, so its noisy parallel
//! schedule cannot flake the suite.

use crate::{Rendered, Scale};
use neuropuls_rt::trace::{Registry, Tracer};
use neuropuls_system::fleet::{run_fleet, FleetConfig};
use std::time::Instant;

/// Measured outcome of the overhead comparison.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Relative wall-clock overhead of the traced run (min-of-reps
    /// traced / min-of-reps untraced − 1). Host-measured: volatile.
    pub overhead_frac: f64,
    /// Trace events recorded by the traced run (deterministic).
    pub events: usize,
    /// The traced run's event log, one JSON object per line.
    pub trace_jsonl: String,
    /// The traced run's metrics registry, one JSON object per line.
    pub metrics_jsonl: String,
}

/// The fleet workload both runs execute.
fn workload(scale: Scale) -> FleetConfig {
    FleetConfig {
        devices: scale.pick(8, 24),
        period_us: 4.0,
        horizon_us: scale.pick(40.0, 160.0),
        ..FleetConfig::default()
    }
}

/// Runs the overhead comparison: `reps` untraced and `reps` traced
/// passes over the same workload, alternating untraced and traced so a
/// burst of host load lands on both sides, keeping the minimum wall
/// clock of each (the minimum is the least noise-contaminated estimate
/// of the true cost).
pub fn run(scale: Scale) -> (Rendered, Outcome) {
    let config = workload(scale);
    let reps = 5;

    let mut untraced_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut untraced_report = None;
    let mut traced_artifacts = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let report = run_fleet(&config, &mut Tracer::disabled(), &Registry::new());
        untraced_ns = untraced_ns.min(t0.elapsed().as_nanos() as f64);
        untraced_report = Some(report);

        let mut tracer = Tracer::new();
        let registry = Registry::new();
        let t0 = Instant::now();
        let report = run_fleet(&config, &mut tracer, &registry);
        traced_ns = traced_ns.min(t0.elapsed().as_nanos() as f64);
        traced_artifacts = Some((report, tracer, registry));
    }
    // invariant: reps > 0, so both Options were written.
    let untraced_report = untraced_report.expect("at least one untraced rep");
    let (traced_report, tracer, registry) = traced_artifacts.expect("at least one traced rep");
    assert_eq!(
        traced_report, untraced_report,
        "tracing must not perturb the simulation"
    );

    let outcome = Outcome {
        overhead_frac: traced_ns / untraced_ns - 1.0,
        events: tracer.len(),
        trace_jsonl: tracer.to_jsonl(),
        metrics_jsonl: registry.to_jsonl(),
    };

    let mut out = Rendered::new("E19 — instrumentation overhead on the fleet workload");
    out.push(format!(
        "workload: {} devices, {} verifiers, horizon {} µs — {} requests, {} attestations",
        config.devices,
        config.verifiers,
        config.horizon_us,
        traced_report.requests,
        traced_report.attestations
    ));
    out.push(format!(
        "traced run recorded {} events, {} metric series; \
         reports byte-identical traced vs untraced",
        outcome.events,
        outcome.metrics_jsonl.lines().count(),
    ));
    out.push(format!(
        "turnaround p99 from the traced registry: {:.1} µs (histogram upper edge)",
        registry.quantile("fleet.turnaround_ns", 0.99) / 1000.0
    ));
    out.push_volatile(format!(
        "wall clock (min of {reps}): untraced {:.2} ms, traced {:.2} ms — overhead {:+.2}%",
        untraced_ns / 1e6,
        traced_ns / 1e6,
        outcome.overhead_frac * 100.0
    ));
    (out, outcome)
}

/// Host-timed gate: tracing the fleet workload must cost < 5% wall
/// clock. Prints the measured overhead to stderr.
///
/// # Panics
///
/// If `overhead_frac` (an [`Outcome::overhead_frac`]) is 5% or more.
pub(crate) fn assert_overhead_budget(overhead_frac: f64) {
    assert!(
        overhead_frac < 0.05,
        "instrumentation overhead {:.2}% exceeds the 5% budget",
        overhead_frac * 100.0
    );
    eprintln!(
        "overhead {:+.2}% — within the 5% budget",
        overhead_frac * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_trace_overhead() {
        let (rendered, o) = run(Scale::Smoke);
        assert!(o.events > 0, "traced run must record events");
        assert!(o.trace_jsonl.lines().count() == o.events);
        assert!(o.metrics_jsonl.contains("fleet.turnaround_ns"));
        assert!(rendered.stable_string().contains("attestations"));
        // Rerunning at the same scale reproduces the trace byte for
        // byte — the artifact the CI determinism gate diffs.
        let (_, again) = run(Scale::Smoke);
        assert_eq!(again.trace_jsonl, o.trace_jsonl);
        assert_eq!(again.metrics_jsonl, o.metrics_jsonl);
    }
}
