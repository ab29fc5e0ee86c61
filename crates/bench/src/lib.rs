//! Experiment harness: one module per table/figure of the paper's
//! evaluation plan (see `DESIGN.md` and `EXPERIMENTS.md` at the
//! workspace root).
//!
//! Each experiment exposes `run(scale)` returning the formatted
//! rows/series the paper's figure or table would show and asserting its
//! deterministic acceptance gates. [`RUNNERS`] lists them by report id;
//! the `exp` binary runs that table, and the unit tests assert the
//! qualitative shape at [`Scale::Smoke`].

pub mod experiments;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: used by tests and CI.
    Smoke,
    /// The full configuration reported in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Picks between the smoke and full values.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Full => full,
        }
    }
}

/// One line of a rendered experiment.
#[derive(Debug, Clone)]
enum Line {
    /// Simulation output: deterministic, part of the byte-diffable
    /// experiment record.
    Stable(String),
    /// Host measurement (wall-clock costs, throughput): varies run to
    /// run, excluded from [`Rendered::stable_string`] so the parallel
    /// determinism gate can diff experiment output byte for byte.
    Volatile(String),
}

/// A rendered experiment result: a title plus pre-formatted lines.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// Experiment identifier, e.g. "E1 (Fig. 3)".
    pub title: String,
    /// Table lines.
    lines: Vec<Line>,
}

impl Rendered {
    /// Creates a result.
    pub fn new(title: impl Into<String>) -> Self {
        Rendered {
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Appends a deterministic simulation-output line.
    pub fn push(&mut self, line: impl Into<String>) {
        self.lines.push(Line::Stable(line.into()));
    }

    /// Appends a host-measured line (wall-clock timings and rates),
    /// excluded from [`Self::stable_string`].
    pub fn push_volatile(&mut self, line: impl Into<String>) {
        self.lines.push(Line::Volatile(line.into()));
    }

    /// The deterministic portion of the report: a `==== title ====`
    /// header and every stable line. The `exp` binary prints only this
    /// on stdout, so its output is byte-identical at any thread count.
    pub fn stable_string(&self) -> String {
        let mut out = format!("==== {} ====\n", self.title);
        for line in &self.lines {
            if let Line::Stable(text) = line {
                out.push_str(text);
                out.push('\n');
            }
        }
        out
    }

    /// The host-measured lines, for routing to stderr.
    pub fn volatile_lines(&self) -> Vec<&str> {
        self.lines
            .iter()
            .filter_map(|l| match l {
                Line::Volatile(text) => Some(text.as_str()),
                Line::Stable(_) => None,
            })
            .collect()
    }
}

/// A host-timed acceptance gate. It asserts only when its experiment is
/// named on the `exp` command line: wall clocks taken while every other
/// experiment shares the pool measure the host, not the code.
pub type HostGate = Box<dyn FnOnce()>;

/// One experiment: its report id and a uniform entry point returning
/// the rendered report and its host-timed gate, if it has one.
pub type Runner = (&'static str, fn(Scale) -> (Rendered, Option<HostGate>));

/// Every experiment in report order. E19's entry also writes its traced
/// fleet event log to `TRACE_exp_fleet.jsonl` in the working directory.
pub const RUNNERS: &[Runner] = &[
    ("E1", |s| (experiments::fig3::run_ro(s).0, None)),
    ("E1b", |s| (experiments::fig3::run_photonic(s).0, None)),
    ("E2", |s| (experiments::puf_quality::run(s).0, None)),
    ("E3", |s| (experiments::table1::run(s).0, None)),
    ("E4", |s| (experiments::auth::run(s).0, None)),
    ("E5", |s| (experiments::attestation::run(s).0, None)),
    ("E6", |s| (experiments::ml_attack::run(s).0, None)),
    ("E7", |s| (experiments::side_channel::run(s).0, None)),
    ("E8", |s| (experiments::remanence::run(s).0, None)),
    ("E9", |s| (experiments::system::run(s).0, None)),
    ("E10", |s| (experiments::keygen::run(s).0, None)),
    ("E11", |s| (experiments::environment::run(s).0, None)),
    ("E12", |s| (experiments::eke::run(s).0, None)),
    ("E13", |s| (experiments::tamper::run(s).0, None)),
    ("E14", |s| (experiments::analog::run(s).0, None)),
    ("E15", |s| (experiments::aging::run(s).0, None)),
    ("E16", |s| (experiments::trng::run(s).0, None)),
    ("E17", |s| (experiments::fleet::run(s).0, None)),
    ("E18", |s| {
        (experiments::protocol_robustness::run(s).0, None)
    }),
    ("E19", |s| {
        let (rendered, outcome) = experiments::trace_overhead::run(s);
        // The traced fleet event log is the cross-thread-count
        // determinism artifact; CI diffs it at 1 vs 8 threads.
        match std::fs::write("TRACE_exp_fleet.jsonl", &outcome.trace_jsonl) {
            Ok(()) => eprintln!("wrote TRACE_exp_fleet.jsonl ({} events)", outcome.events),
            Err(e) => eprintln!("could not write TRACE_exp_fleet.jsonl: {e}"),
        }
        let frac = outcome.overhead_frac;
        let gate: HostGate =
            Box::new(move || experiments::trace_overhead::assert_overhead_budget(frac));
        (rendered, Some(gate))
    }),
    ("E20", |s| (experiments::gateway::run(s).0, None)),
    // E21 pins the pool width internally for its 1-vs-8 identity
    // check; `with_threads` is a thread-local override, so running it
    // inside a `par_map` fan-out is safe.
    ("E21", |s| {
        let gate: HostGate = Box::new(experiments::accel_throughput::measure_and_assert);
        (experiments::accel_throughput::run(s).0, Some(gate))
    }),
    ("E22", |s| (experiments::sched_scaling::run(s).0, None)),
    ("E23", |s| (experiments::fleet_longrun::run(s).0, None)),
    ("E24", |s| (experiments::admission::run(s).0, None)),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_ids_are_unique_and_in_report_order() {
        // `E1b` sorts as (1, "b"): right after `E1`, before `E2`.
        let keys: Vec<(u32, &str)> = RUNNERS
            .iter()
            .map(|(id, _)| {
                let digits = id.trim_start_matches('E');
                let split = digits
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(digits.len());
                let number = digits[..split].parse().expect("id is E<number>[suffix]");
                (number, &digits[split..])
            })
            .collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "ids must be unique and in report order: {keys:?}"
        );
        assert_eq!(keys.len(), 25);
    }
}
