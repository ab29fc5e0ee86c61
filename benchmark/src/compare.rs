//! `benchmark compare <parent-runs> <change-runs>`: the small-sandbox
//! rule for judging a change against its parent, applied to every
//! (workload, end-to-end metric) pair.
//!
//! * Runs are paired in file order; the sides should have been run
//!   alternately. Medians and quartiles are reported for each side.
//! * A gain needs at least ten pairs, a win in at least nine tenths of
//!   them (ties count for neither side), and a median gap larger than
//!   the parent's interquartile range.
//! * Otherwise the change is `regressed` when its median is worse than
//!   the parent's by more than the metric's bound, `unresolved` when the
//!   spread between runs is wider than the bound (unless every change
//!   run beats every parent run), and `unchanged` otherwise.
//! * A digest or `failed_ratio` that differs between runs of the same
//!   seed is flagged: the change altered what the program computes.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::run::SCHEMA;
use crate::stats::{median, quartiles, relative_iqr};
use std::collections::BTreeMap;

/// Fewest runs per side `compare` accepts.
pub const MIN_RUNS: usize = 5;
/// Fewest pairs a gain can rest on.
pub const MIN_PAIRS_FOR_GAIN: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regressed,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// One side's summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

fn side(values: &[f64]) -> Side {
    let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    Side {
        median: median(values),
        q1,
        q3,
    }
}

/// The comparison of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    pub parent: Side,
    pub change: Side,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule to paired runs of one metric.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let sign = match better {
        Better::Higher => 1.0,
        Better::Lower => -1.0,
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(p, c)| (c - p) * sign > 0.0)
        .count();
    let (p, c) = (side(parent), side(change));
    // Improvement of the change's median over the parent's, in the
    // metric's own direction.
    let gap = (c.median - p.median) * sign;
    let verdict = if pairs >= MIN_PAIRS_FOR_GAIN && wins * 10 >= pairs * 9 && gap > p.q3 - p.q1 {
        Verdict::Gain
    } else if -gap > bound * p.median.abs() {
        Verdict::Regressed
    } else {
        let spread = relative_iqr(parent).max(relative_iqr(change));
        let worst_change = change
            .iter()
            .map(|v| v * sign)
            .fold(f64::INFINITY, f64::min);
        let best_parent = parent
            .iter()
            .map(|v| v * sign)
            .fold(f64::NEG_INFINITY, f64::max);
        if spread > bound && worst_change <= best_parent {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    };
    Comparison {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// One untraced workload run read back from a report.
#[derive(Debug, Clone)]
struct Run {
    seed: u64,
    digest: String,
    failed_ratio: f64,
    metrics: BTreeMap<String, f64>,
}

/// Reads every `neuropuls-bench-v2` report line of `text`, grouping its
/// untraced workload runs by workload (other lines are ignored).
fn load(text: &str) -> BTreeMap<String, Vec<Run>> {
    let mut runs: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(report) = Json::parse(line.trim()) else {
            continue;
        };
        if report.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            continue;
        }
        for w in report
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or(&[])
        {
            if w.get("trace").and_then(Json::as_bool) != Some(false) {
                continue;
            }
            let metrics = w
                .get("metrics")
                .map(Json::fields)
                .unwrap_or(&[])
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            runs.entry(
                w.get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .into(),
            )
            .or_default()
            .push(Run {
                seed: w.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                digest: w.get("digest").and_then(Json::as_str).unwrap_or("").into(),
                failed_ratio: w.get("failed_ratio").and_then(Json::as_f64).unwrap_or(0.0),
                metrics,
            });
        }
    }
    runs
}

/// Same-seed runs whose digest or failed ratio differ.
fn flags(parent: &[Run], change: &[Run]) -> Vec<String> {
    let mut out = Vec::new();
    for c in change {
        for p in parent.iter().filter(|p| p.seed == c.seed) {
            if p.digest != c.digest {
                out.push(format!(
                    "seed {}: digest {} -> {}",
                    c.seed, p.digest, c.digest
                ));
            }
            if p.failed_ratio != c.failed_ratio {
                out.push(format!(
                    "seed {}: failed_ratio {} -> {}",
                    c.seed, p.failed_ratio, c.failed_ratio
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Compares two files of runs and prints one row per (workload,
/// metric). Returns whether the change is clean: nothing regressed and
/// nothing flagged.
///
/// # Errors
///
/// Unreadable files, or a workload with fewer than [`MIN_RUNS`] runs on
/// either side.
pub fn run(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let parent = load(&read(parent_path)?);
    let change = load(&read(change_path)?);
    let mut clean = true;
    let mut compared = 0;
    println!(
        "{:<17} {:<16} {:>38} {:>38} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        if p_runs.len() < MIN_RUNS || c_runs.len() < MIN_RUNS {
            return Err(format!(
                "{workload}: {} parent and {} change runs; at least {MIN_RUNS} each are needed",
                p_runs.len(),
                c_runs.len()
            ));
        }
        compared += 1;
        for def in &END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(def.name).copied())
                    .collect()
            };
            let cmp = compare(&values(p_runs), &values(c_runs), def.better, def.bound);
            clean &= cmp.verdict != Verdict::Regressed;
            let fmt = |s: Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{:<17} {:<16} {:>38} {:>38} {:>3}/{:<2}  {} ({} is better, bound {:.0}%)",
                workload,
                def.name,
                fmt(cmp.parent),
                fmt(cmp.change),
                cmp.wins,
                cmp.pairs,
                cmp.verdict.name(),
                def.better.name(),
                def.bound * 100.0
            );
        }
        for flag in flags(p_runs, c_runs) {
            clean = false;
            println!("{workload:<17} FLAG {flag}");
        }
        if p_runs.len().min(c_runs.len()) < MIN_PAIRS_FOR_GAIN {
            println!("{workload:<17} note: fewer than {MIN_PAIRS_FOR_GAIN} pairs, so no gain can be claimed");
        }
    }
    if compared == 0 {
        return Err("no workload has untraced runs on both sides".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_needs_nine_of_ten_and_a_gap_beyond_the_iqr() {
        let parent = ten(100.0, 1.0);
        let change = ten(120.0, 1.0);
        let c = compare(&parent, &change, Better::Higher, 0.1);
        assert_eq!((c.wins, c.pairs, c.verdict), (10, 10, Verdict::Gain));
        assert_eq!(c.parent.median, 104.5);
        assert_eq!((c.parent.q1, c.parent.q3), (101.75, 107.25));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = ten(100.0, 1.0);
        // Nine wins and one tie: 9/10 is enough.
        let mut change = ten(120.0, 1.0);
        change[0] = parent[0];
        let c = compare(&parent, &change, Better::Higher, 0.1);
        assert_eq!((c.wins, c.verdict), (9, Verdict::Gain));
        // Eight wins and two ties: 8/10 is not.
        change[1] = parent[1];
        let c = compare(&parent, &change, Better::Higher, 0.1);
        assert_eq!(c.wins, 8);
        assert_ne!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn a_gap_inside_the_parent_spread_is_no_gain() {
        let parent = ten(100.0, 4.0); // IQR 22
        let change: Vec<f64> = parent.iter().map(|v| v + 10.0).collect();
        let c = compare(&parent, &change, Better::Higher, 0.5);
        assert_eq!(c.wins, 10);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let parent = vec![100.0, 101.0, 102.0, 103.0, 104.0];
        let change = vec![150.0, 151.0, 152.0, 153.0, 154.0];
        let c = compare(&parent, &change, Better::Higher, 0.1);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn lower_is_better_metrics_regress_past_the_bound() {
        let parent = ten(10.0, 0.01);
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let c = compare(&parent, &slower, Better::Lower, 0.1);
        assert_eq!((c.wins, c.verdict), (0, Verdict::Regressed));
        let within: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(
            compare(&parent, &within, Better::Lower, 0.1).verdict,
            Verdict::Unchanged
        );
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.5).collect();
        assert_eq!(
            compare(&parent, &faster, Better::Lower, 0.1).verdict,
            Verdict::Gain
        );
    }

    #[test]
    fn noisy_metrics_are_unresolved_unless_every_run_is_better() {
        let parent = vec![
            80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|v| v * 0.97).collect();
        let c = compare(&parent, &change, Better::Higher, 0.1);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Spread 30% against a 20% bound, but every change run above
        // every parent run: unchanged (and no gain: only 5 pairs).
        let parent = vec![80.0, 120.0, 90.0, 110.0, 100.0];
        let change = vec![121.0, 125.0, 122.0, 170.0, 130.0];
        let c = compare(&parent, &change, Better::Higher, 0.2);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn same_seed_digest_or_failure_changes_are_flagged() {
        let run = |seed: u64, digest: &str, failed_ratio: f64| Run {
            seed,
            digest: digest.into(),
            failed_ratio,
            metrics: BTreeMap::new(),
        };
        let parent = vec![run(1, "aa", 0.0), run(2, "bb", 0.0)];
        assert!(flags(&parent, &[run(1, "aa", 0.0), run(3, "zz", 0.5)]).is_empty());
        let f = flags(&parent, &[run(1, "ab", 0.0), run(2, "bb", 0.01)]);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn reports_are_read_back_per_workload() {
        let line = Json::obj()
            .with("schema", SCHEMA)
            .with(
                "workloads",
                vec![Json::obj()
                    .with("workload", "attest_walk")
                    .with("trace", false)
                    .with("seed", 3u64)
                    .with("digest", "d")
                    .with("failed_ratio", 0.0)
                    .with(
                        "metrics",
                        Json::obj().with("ops_per_s", Json::metric(21.5, "1/s")),
                    )],
            )
            .render();
        let text = format!("noise\n{line}\n{{\"correct\":true}}\n");
        let runs = load(&text);
        let walk = &runs["attest_walk"];
        assert_eq!(walk.len(), 1);
        assert_eq!(walk[0].seed, 3);
        assert_eq!(walk[0].metrics["ops_per_s"], 21.5);
    }
}
