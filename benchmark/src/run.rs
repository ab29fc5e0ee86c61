//! Running workloads: the parent process re-runs itself once per
//! workload as a child (so peak RSS is per workload) and merges the
//! children's reports. A child either measures the end-to-end metrics
//! untraced, or (`--trace 1`) runs the same rounds untraced and then
//! traced, checks the two agree, and reports the per-layer metrics.

use crate::json::Json;
use crate::ladder::{self, Ladder, MIN_SWEEPS};
use crate::metrics::{per_layer, END_TO_END, RECONSTRUCTION, TRACED};
use crate::stats::{median, percentile, tail_percentile};
use crate::timed::{Instrument, Layer, Plain, Recorder, Traced};
use crate::workloads::{self, dispatch, Info, RoundOutcome, Visit, Workload};
use neuropuls_crypto::sha256::Sha256;
use neuropuls_rt::pool;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub const SCHEMA: &str = "neuropuls-bench-v2";
/// The pool width every run pins; only `infer_batch` uses the pool. One
/// worker: on a 2-vCPU host whose second core other tenants share, a
/// second worker doubled the run-to-run spread of `secure_inference`.
pub const THREADS: usize = 1;
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u64 = 15;
/// Set-up runs at least this often, and until this much time was spent
/// on it, so a cheap set-up still gets a stable median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(500);
const SETUP_MAX_REPEATS: usize = 2000;
/// Host time of one ladder batch.
const LADDER_BATCH: Duration = Duration::from_millis(12);
/// A ladder sweep follows every this many round pairs of the traced pass.
const LADDER_EVERY: u64 = 3;
/// Rounds a measured run takes at least, so its fastest quarter holds
/// more than one.
const MIN_ROUNDS: u64 = 8;
/// Paired rounds the traced pass runs at least.
const MIN_TRACED_ROUNDS: u64 = 2;

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Parent: one child process per workload, reports merged. Returns the
/// merged report and the contract line, or why a child failed.
pub fn parent(opts: &Options) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut children = Vec::new();
    for name in &opts.workloads {
        let output = Command::new(&exe)
            .args(["--child", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting the {name} child: {e}"))?;
        if !output.status.success() {
            return Err(format!("the {name} child failed: {}", output.status));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        children.push(Json::parse(line).map_err(|e| format!("{name} child report: {e}"))?);
    }
    let first = children.first().cloned().unwrap_or(Json::Null);
    let report = Json::obj()
        .with("schema", SCHEMA)
        .with("rev", first.get("rev").cloned().unwrap_or(Json::Null))
        .with("nproc", first.get("nproc").cloned().unwrap_or(Json::Null))
        .with("workloads", children.clone());
    Ok((report, contract(&children)))
}

/// The last line a run prints: correctness, op counts and the metrics.
/// With several workloads, metric names are prefixed by the workload.
fn contract(children: &[Json]) -> Json {
    let num = |c: &Json, k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let mut metrics = Json::obj();
    for c in children {
        let prefix = match children.len() {
            1 => String::new(),
            _ => format!(
                "{}.",
                c.get("workload").and_then(Json::as_str).unwrap_or("")
            ),
        };
        for (k, v) in c.get("metrics").map(Json::fields).unwrap_or(&[]) {
            metrics.push(&format!("{prefix}{k}"), v.clone());
        }
    }
    Json::obj()
        .with(
            "correct",
            children
                .iter()
                .all(|c| c.get("correct").and_then(Json::as_bool) == Some(true)),
        )
        .with(
            "attempted",
            children.iter().map(|c| num(c, "attempted")).sum::<f64>(),
        )
        .with(
            "failed",
            children.iter().map(|c| num(c, "failed")).sum::<f64>(),
        )
        .with("metrics", metrics)
}

/// Child: runs one workload in this process and returns its report.
pub fn child(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Json, String> {
    let visit = Child {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    };
    pool::with_threads(THREADS, || dispatch(name, visit))
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

struct Child {
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl Visit for Child {
    type Out = Json;
    fn visit<P: Workload<Plain>, T: Workload<Traced>>(self, info: &'static Info) -> Json {
        let mut report = header(info, self.seed, self.seconds, self.trace);
        let check = (info.self_check)(self.seed);
        if let Err(e) = &check {
            eprintln!("{}: output check failed: {e}", info.name);
        }
        if self.trace {
            traced::<P, T>(info, self.seed, self.seconds, check.is_ok(), &mut report);
        } else {
            measured::<P>(info, self.seed, self.seconds, check.is_ok(), &mut report);
        }
        report
    }
}

fn header(info: &Info, seed: u64, seconds: Duration, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj()
        .with("schema", SCHEMA)
        .with("workload", info.name)
        .with("why", info.why)
        .with("seed", seed)
        .with("seconds", seconds.as_secs())
        .with("trace", trace)
        .with("threads", THREADS as u64)
        .with("nproc", nproc as u64)
        .with("rev", git_rev())
        .with("op", info.op)
}

/// `git rev-parse HEAD` of the working directory's own repository, or
/// "unknown" outside one (git is not allowed to search parent dirs).
fn git_rev() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Digest of a run: the warm-up round and the first measured round,
/// which every run of a seed executes whatever its length.
fn run_digest(first_two: &[[u8; 32]]) -> String {
    let parts: Vec<&[u8]> = first_two.iter().map(|d| d.as_slice()).collect();
    hex(&Sha256::digest_parts(&parts))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Sums of the measured rounds.
#[derive(Default)]
struct Totals {
    rounds: u64,
    wall: Duration,
    attempted: u64,
    failed: u64,
    correct: bool,
    latencies: Vec<u64>,
    /// Completed ops per second, median op latency (ms) and wall time
    /// (s) of each round.
    rounds_seen: Vec<(f64, f64, f64)>,
    counters: BTreeMap<String, u64>,
    digests: Vec<[u8; 32]>,
}

impl Totals {
    fn new() -> Self {
        Totals {
            correct: true,
            ..Totals::default()
        }
    }

    fn add(&mut self, out: RoundOutcome, wall: Duration) {
        self.rounds += 1;
        self.wall += wall;
        self.attempted += out.attempted;
        self.failed += out.failed;
        self.correct &= out.correct;
        let rate = (out.attempted - out.failed) as f64 / wall.as_secs_f64();
        let mut lat = out.latencies_ns;
        lat.sort_unstable();
        let p50_ms = percentile(&lat, 500).map_or(f64::NAN, |ns| ns as f64 / 1e6);
        self.rounds_seen.push((rate, p50_ms, wall.as_secs_f64()));
        self.latencies.extend(lat);
        for (k, v) in out.counters {
            *self.counters.entry(k.to_string()).or_insert(0) += v;
        }
        for (k, v) in out.peaks {
            let slot = self.counters.entry(k.to_string()).or_insert(0);
            *slot = (*slot).max(v);
        }
        self.digests.push(out.digest);
    }
}

/// Runs one round, timing only the round itself; its output checks
/// run after the clock stops.
fn timed_round<W: Workload<I>, I: Instrument>(
    w: &mut W,
    round: impl FnOnce(&mut W) -> RoundOutcome,
) -> (RoundOutcome, Duration) {
    let start = Instant::now();
    let mut out = round(w);
    let wall = start.elapsed();
    w.verify(&mut out);
    (out, wall)
}

/// Untraced pass: set-up repeated for a median, one warm-up round, then
/// rounds until `seconds` elapsed and the tail has ten samples beyond.
fn measured<P: Workload<Plain>>(
    info: &Info,
    seed: u64,
    seconds: Duration,
    checked: bool,
    report: &mut Json,
) {
    let mut setups = Vec::new();
    let mut state = None;
    while setups.len() < SETUP_REPEATS
        || (setups.iter().sum::<f64>() < SETUP_MIN_TOTAL.as_secs_f64()
            && setups.len() < SETUP_MAX_REPEATS)
    {
        drop(state.take());
        let start = Instant::now();
        state = Some(P::setup(seed, Plain));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut w = state.expect("set up at least once");

    let (warm, _) = timed_round(&mut w, |w| w.round(0));
    let mut totals = Totals::new();
    totals.correct = checked && warm.correct;
    let warm_digest = warm.digest;
    let mut r = 1;
    while totals.wall < seconds
        || totals.rounds < MIN_ROUNDS
        || tail_percentile(totals.latencies.len()) < Some(info.tail)
    {
        let (out, wall) = timed_round(&mut w, |w| w.round(r));
        totals.add(out, wall);
        r += 1;
    }

    let mut lat = totals.latencies.clone();
    lat.sort_unstable();
    let ms = |p: u32| percentile(&lat, p).map_or(f64::NAN, |ns| ns as f64 / 1e6);
    // Host noise on a shared machine only ever slows a round down, in
    // bursts of a fraction of a second to several seconds. The fastest
    // quarter of many short rounds are the clean ones: throughput and
    // latency are their medians, which a burst moves only once it
    // spoils three rounds in four. Set-up time follows the same rule.
    let clean = fastest_quarter(&totals.rounds_seen, |r| -r.0);
    let clean_rates: Vec<f64> = clean.iter().map(|r| r.0).collect();
    let clean_p50s: Vec<f64> = clean.iter().map(|r| r.1).collect();
    let ops_per_s = median(&clean_rates);
    let values = [
        median(&fastest_quarter(&setups, |&s| s)),
        ops_per_s,
        median(&clean_p50s),
        peak_rss_mb(),
    ];
    let mut metrics = Json::obj();
    for (def, v) in END_TO_END.iter().zip(values) {
        metrics.push(def.name, Json::metric(v, def.unit));
    }
    let all_rates: Vec<f64> = totals.rounds_seen.iter().map(|r| r.0).collect();
    let tail_name = format!("{}_p{}_ms", info.op, f64::from(info.tail) / 10.0);
    let diagnostics = Json::obj()
        .with(
            info.rate_name,
            Json::metric(ops_per_s * info.items_per_op, info.rate_unit),
        )
        .with(
            "all_rounds_ops_per_s",
            Json::metric(median(&all_rates), "1/s"),
        )
        .with(&format!("{}_p50_ms", info.op), Json::metric(ms(500), "ms"))
        .with(&tail_name, Json::metric(ms(info.tail), "ms"))
        .with("setup_repeats", Json::metric(setups.len() as f64, "count"))
        .with("all_setups_s", Json::metric(median(&setups), "s"))
        .with(
            "clean_rounds",
            Json::metric(clean_rates.len() as f64, "count"),
        )
        .with("rounds", Json::metric(totals.rounds as f64, "count"))
        .with("samples", Json::metric(lat.len() as f64, "count"))
        .with("measured_s", Json::metric(totals.wall.as_secs_f64(), "s"));
    finish(
        report,
        &totals,
        run_digest(&[warm_digest, totals.digests[0]]),
        metrics,
        diagnostics,
    );
}

/// The quarter of `items` (at least one) with the smallest `cost`.
fn fastest_quarter<T: Clone>(items: &[T], cost: impl Fn(&T) -> f64) -> Vec<T> {
    let mut ranked = items.to_vec();
    ranked.sort_by(|a, b| cost(a).total_cmp(&cost(b)));
    ranked.truncate(items.len().div_ceil(4));
    ranked
}

fn finish(report: &mut Json, totals: &Totals, digest: String, metrics: Json, diagnostics: Json) {
    let failed_ratio = totals.failed as f64 / totals.attempted.max(1) as f64;
    report.push("correct", totals.correct);
    report.push("attempted", totals.attempted);
    report.push("failed", totals.failed);
    report.push("failed_ratio", failed_ratio);
    report.push("digest", digest);
    report.push("metrics", metrics);
    report.push("diagnostics", diagnostics);
}

/// Traced pass: two states set up from the same seed, one plain and one
/// traced, run the same rounds alternately (which goes first alternates
/// too, so host noise and ordering hit both alike) until the untraced
/// side has run for half of `seconds`, with a sweep of the layer ladder
/// every few pairs. Digests and counters must agree; the per-layer
/// metrics are reported.
fn traced<P: Workload<Plain>, T: Workload<Traced>>(
    info: &Info,
    seed: u64,
    seconds: Duration,
    checked: bool,
    report: &mut Json,
) {
    let rec = Recorder::new();
    let mut ladder = Ladder::new(&(info.ladder_inputs)(seed), LADDER_BATCH);
    let mut a = P::setup(seed, Plain);
    let mut b = T::setup(seed, Traced(rec.clone()));
    let (warm_a, _) = timed_round(&mut a, |w| w.round(0));
    let (warm_b, _) = timed_round(&mut b, |w| rec.span(Layer::Round, Some(0), || w.round(0)));
    rec.clear();
    let (mut plain, mut traced) = (Totals::new(), Totals::new());
    let mut r = 1;
    while plain.rounds < MIN_TRACED_ROUNDS || plain.wall < seconds / 2 {
        let mut run_plain = |a: &mut P| {
            let (out, wall) = timed_round(a, |w| w.round(r));
            plain.add(out, wall);
        };
        let mut run_traced = |b: &mut T| {
            let (out, wall) = timed_round(b, |w| rec.span(Layer::Round, Some(0), || w.round(r)));
            traced.add(out, wall);
        };
        if r % 2 == 1 {
            run_plain(&mut a);
            run_traced(&mut b);
        } else {
            run_traced(&mut b);
            run_plain(&mut a);
        }
        if r % LADDER_EVERY == 0 {
            ladder.sweep();
        }
        r += 1;
    }
    drop((a, b));
    while ladder.sweeps() < MIN_SWEEPS {
        ladder.sweep();
    }
    let rounds = plain.rounds;

    let reproduced = warm_a.digest == warm_b.digest
        && plain.digests == traced.digests
        && plain.counters == traced.counters;
    if !reproduced {
        eprintln!(
            "{}: the traced pass diverged from the untraced one",
            info.name
        );
    }
    traced.correct &= checked && plain.correct && warm_a.correct && warm_b.correct && reproduced;

    let ladder_ns = ladder.ns();
    let times = rec.layer_times();
    // Self times of the spans inside the rounds add up to exactly this.
    let wall_ns = rec.round_wall_ns() as f64;
    let share = |layer: Layer| {
        times
            .get(&layer)
            .map_or(0.0, |t| t.self_ns as f64 / wall_ns)
    };
    let calls = |layer: Layer| times.get(&layer).map_or(0, |t| t.calls);
    let mut counts = traced.counters.clone();
    counts.insert("puf.respond.calls".into(), calls(Layer::PufRespond));
    counts.insert("crp_store.ops".into(), calls(Layer::CrpStore));
    counts.insert("admission.ops".into(), calls(Layer::Admission));
    counts.insert("transport.sends".into(), rec.counter("transport.sends"));
    counts.insert("transport.recvs".into(), rec.counter("transport.recvs"));
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for &(name, _, _) in TRACED.iter() {
        let v = match name {
            "gateway.step_saving" => ratio(
                count("gateway.dense_equiv_steps"),
                count("gateway.session_steps"),
            ),
            "crp_store.hit_ratio" => ratio(
                count("crp_store.hits"),
                count("crp_store.hits") + count("crp_store.misses"),
            ),
            // The two rounds of a pair ran back to back: the median of
            // their ratios sees through host noise, a sum would not.
            "trace.overhead_ratio" => median(
                &plain
                    .rounds_seen
                    .iter()
                    .zip(&traced.rounds_seen)
                    .map(|(p, t)| t.2 / p.2)
                    .collect::<Vec<_>>(),
            ),
            _ => match name.strip_suffix(".share") {
                Some(layer) => Layer::ALL
                    .iter()
                    .find(|l| l.name() == layer)
                    .map_or(0.0, |&l| share(l)),
                None => count(name),
            },
        };
        values.insert(name.to_string(), v);
    }
    let rebuilt_ns = ladder::reconstruct(&ladder_ns, &counts);
    // The untraced wall time a noise-free pass would take: the median of
    // its fastest quarter of rounds, once per round.
    let walls: Vec<f64> = plain.rounds_seen.iter().map(|r| r.2).collect();
    let clean_s = median(&fastest_quarter(&walls, |&w| w)) * rounds as f64;
    values.insert(RECONSTRUCTION.to_string(), ratio(rebuilt_ns, clean_s * 1e9));
    for (entry, ns) in &ladder_ns {
        values.insert(format!("ladder.{entry}.ns"), *ns);
    }
    let mut metrics = Json::obj();
    for (name, unit, _) in per_layer() {
        metrics.push(&name, Json::metric(values[&name], unit));
    }

    let mut diagnostics = Json::obj()
        .with("rounds", Json::metric(rounds as f64, "count"))
        .with("untraced_s", Json::metric(plain.wall.as_secs_f64(), "s"))
        .with("traced_s", Json::metric(traced.wall.as_secs_f64(), "s"))
        .with("reconstructed_s", Json::metric(rebuilt_ns / 1e9, "s"));
    for (layer, t) in &times {
        diagnostics.push(
            &format!("{}.busy_s", layer.name()),
            Json::metric(t.self_ns as f64 / 1e9, "s"),
        );
        diagnostics.push(
            &format!("{}.ns", layer.name()),
            Json::metric(ratio(t.self_ns as f64, t.calls as f64), "ns"),
        );
    }
    let path = format!("TRACE_benchmark_{}.jsonl", info.name);
    match rec.write_jsonl(&path) {
        Ok(()) => diagnostics.push("trace_file", path.as_str()),
        Err(e) => eprintln!("{}: writing {path}: {e}", info.name),
    }
    let digest = run_digest(&[warm_b.digest, traced.digests[0]]);
    finish(report, &traced, digest, metrics, diagnostics);
}

/// Workload names for `--workload all`.
pub fn all_workloads() -> Vec<String> {
    workloads::ALL.iter().map(|w| w.name.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_four_keys() {
        let child = |correct: bool| {
            Json::obj()
                .with("workload", "attest_walk")
                .with("correct", correct)
                .with("attempted", 5u64)
                .with("failed", 0u64)
                .with(
                    "metrics",
                    Json::obj().with("setup_s", Json::metric(0.5, "s")),
                )
        };
        assert_eq!(
            contract(&[child(true)]).render(),
            r#"{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
        let two = contract(&[child(true), child(false)]);
        assert_eq!(two.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(two.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert!(two
            .get("metrics")
            .and_then(|m| m.get("attest_walk.setup_s"))
            .is_some());
    }
}
