//! Structured tracing and metrics with deterministic output.
//!
//! The paper's §V simulator is defined by its observability — a
//! gem5-like model logging throughput, latency, power and PUF-quality
//! statistics. This module is the workspace-wide implementation of that
//! contract: spans and instants stamped with *simulated* ticks (never
//! host time), monotonic counters, fixed-boundary histograms, and a
//! thread-safe [`Registry`] whose merged output is byte-identical
//! regardless of thread count.
//!
//! Three vocabularies live here:
//!
//! * [`Tracer`] — an ordered event log ([`TraceEvent`]: span start/end
//!   and instants with typed fields) exported as JSONL. Tracers are
//!   *per-unit-of-work*: each item of a [`crate::pool::par_map`] records
//!   into its own tracer and the caller merges them in input order, so
//!   the merged log is independent of scheduling.
//! * [`Histogram`] — fixed bucket boundaries, commutative
//!   [`Histogram::merge`], and quantile estimates accurate to one
//!   bucket width.
//! * [`Registry`] — named scalars, distributions (the gem5
//!   `name value # description` dump of the original system-crate
//!   `StatRegistry`, folded in here), counters and histograms behind a
//!   mutex, so shared aggregation needs only `&self`.
//!
//! Determinism contract under threads: every Registry operation is
//! commutative (counter adds, histogram/distribution records, scalar
//! adds), so any interleaving of worker threads yields the same final
//! state; ordered *event* logs must instead go through per-item tracers
//! merged in input order. Both export deterministically (BTreeMap key
//! order for the registry, insertion order for tracers).

use crate::rng::{Error, RngCore};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// JSON rendering helpers (no external serializer: hermetic workspace)
// ---------------------------------------------------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_f64_into(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's shortest-roundtrip Display is platform-independent, so
        // the rendering is deterministic.
        let _ = write!(out, "{v}");
    } else {
        // JSON has no NaN/inf.
        out.push_str("null");
    }
}

// ---------------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------------

/// A typed field value attached to a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (rendered as `null` when non-finite).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl Value {
    fn render_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => json_f64_into(out, *v),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => {
                out.push('"');
                json_escape_into(out, s);
                out.push('"');
            }
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v as $conv)
            }
        }
    )*};
}

value_from! {
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i32 => I64 as i64, i64 => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

// ---------------------------------------------------------------------------
// Trace events and the Tracer
// ---------------------------------------------------------------------------

/// What kind of event a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened at this tick.
    SpanStart,
    /// A span closed at this tick.
    SpanEnd,
    /// A point event.
    Instant,
}

impl EventKind {
    fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
        }
    }
}

/// One recorded event: a deterministic simulated-tick timestamp, the
/// event kind, the span it belongs to (0 for instants), a static name
/// and typed fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated tick (cycle, nanosecond, protocol tick — whatever the
    /// instrumented layer counts in). Never host time.
    pub tick: u64,
    /// Start, end, or instant.
    pub kind: EventKind,
    /// Span identifier (`0` for instants).
    pub span: u64,
    /// Event name (static: names are part of the schema).
    pub name: &'static str,
    /// Typed fields, in recording order.
    pub fields: Vec<(&'static str, Value)>,
}

impl TraceEvent {
    fn render_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"tick\":{},\"kind\":\"{}\"",
            self.tick,
            self.kind.as_str()
        );
        if self.span != 0 {
            let _ = write!(out, ",\"span\":{}", self.span);
        }
        out.push_str(",\"name\":\"");
        json_escape_into(out, self.name);
        out.push('"');
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                json_escape_into(out, k);
                out.push_str("\":");
                v.render_into(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// Handle returned by [`Tracer::span_start`]; pass it to
/// [`Tracer::span_end`] to close the span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId {
    id: u64,
    name: &'static str,
}

/// An ordered, deterministic event log.
///
/// A disabled tracer ([`Tracer::disabled`]) accepts every call and
/// records nothing, so instrumented code paths need no `if traced`
/// branches and the untraced baseline pays only a branch per event.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    events: Vec<TraceEvent>,
    next_span: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            events: Vec::new(),
            next_span: 1,
        }
    }

    /// A no-op tracer: every call is accepted, nothing is recorded.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            events: Vec::new(),
            next_span: 1,
        }
    }

    /// Whether this tracer records events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a point event.
    pub fn instant(&mut self, tick: u64, name: &'static str, fields: Vec<(&'static str, Value)>) {
        if !self.enabled {
            return;
        }
        self.events.push(TraceEvent {
            tick,
            kind: EventKind::Instant,
            span: 0,
            name,
            fields,
        });
    }

    /// Opens a span and returns its handle.
    pub fn span_start(
        &mut self,
        tick: u64,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId { id: 0, name };
        }
        let id = self.next_span;
        self.next_span += 1;
        self.events.push(TraceEvent {
            tick,
            kind: EventKind::SpanStart,
            span: id,
            name,
            fields,
        });
        SpanId { id, name }
    }

    /// Closes a span opened by [`Tracer::span_start`], attaching
    /// `fields` to the end event.
    pub fn span_end(&mut self, tick: u64, span: SpanId, fields: Vec<(&'static str, Value)>) {
        if !self.enabled || span.id == 0 {
            return;
        }
        self.events.push(TraceEvent {
            tick,
            kind: EventKind::SpanEnd,
            span: span.id,
            name: span.name,
            fields,
        });
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends `other`'s log to this one, rebasing its span ids past
    /// ours. Merging per-item tracers **in input order** is how a
    /// parallel run reproduces the serial event log byte for byte.
    pub fn merge(&mut self, other: Tracer) {
        if !self.enabled {
            return;
        }
        let offset = self.next_span - 1;
        for mut ev in other.events {
            if ev.span != 0 {
                ev.span += offset;
            }
            self.events.push(ev);
        }
        self.next_span += other.next_span - 1;
    }

    /// Renders the log as JSON Lines: one event object per line, in
    /// recording order. Deterministic for deterministic inputs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            ev.render_into(&mut out);
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A fixed-boundary histogram.
///
/// `bounds` are the strictly increasing bucket upper edges; bucket `i`
/// covers `(bounds[i-1], bounds[i]]` and one extra overflow bucket
/// catches everything above the last edge. Fixed boundaries make
/// [`Histogram::merge`] exact and commutative, which is what lets
/// parallel shards aggregate deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over explicit bucket upper edges.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Exponential edges `start, start·factor, …` (`buckets` edges).
    ///
    /// # Panics
    ///
    /// Panics when `start <= 0`, `factor <= 1`, or `buckets == 0`.
    pub fn exponential(start: f64, factor: f64, buckets: usize) -> Self {
        assert!(
            start > 0.0 && factor > 1.0 && buckets > 0,
            "bad exponential spec"
        );
        let mut bounds = Vec::with_capacity(buckets);
        let mut edge = start;
        for _ in 0..buckets {
            bounds.push(edge);
            edge *= factor;
        }
        Self::with_bounds(bounds)
    }

    /// The default edges used by [`Registry::observe`]: 24 exponential
    /// buckets from 1.0 with factor 2 (covers 1 … 8.4M with ≤2× error).
    pub fn default_bounds() -> Self {
        Self::exponential(1.0, 2.0, 24)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Exactly commutative: bucket counts
    /// add, and two-operand f64 sums are themselves commutative.
    ///
    /// # Panics
    ///
    /// Panics when the bucket boundaries differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "merging histograms with different bounds"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Per-bucket counts (`bounds().len() + 1` entries; the last is the
    /// overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Quantile estimate: the upper edge of the bucket holding the
    /// `q`-th sample, clamped to the observed max — within one bucket
    /// width of the exact order statistic for in-range samples. NaN
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based, at least 1.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let edge = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                return edge.min(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One scalar statistic.
#[derive(Debug, Clone, Default)]
struct Scalar {
    value: f64,
    description: String,
}

/// One distribution statistic (running moments + min/max).
#[derive(Debug, Clone, Default)]
struct Distribution {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
    description: String,
}

#[derive(Debug, Clone, Default)]
struct Inner {
    scalars: BTreeMap<String, Scalar>,
    distributions: BTreeMap<String, Distribution>,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The thread-safe metrics registry.
///
/// Subsumes the old system-crate `StatRegistry` (same scalar /
/// distribution API and the same gem5 `name value # description` dump
/// format) and adds integer counters and fixed-boundary histograms.
/// Every method takes `&self` — worker threads record into one shared
/// registry — and every mutation commutes, so the final state is
/// independent of interleaving. Exports walk `BTreeMap`s, so rendering
/// order is deterministic too.
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Clone for Registry {
    fn clone(&self) -> Self {
        Registry {
            inner: Mutex::new(self.snapshot()),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.snapshot();
        f.debug_struct("Registry")
            .field("scalars", &inner.scalars.len())
            .field("distributions", &inner.distributions.len())
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock means a recording thread panicked; the panic
        // is already propagating, so unwrapping here cannot hide it.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn snapshot(&self) -> Inner {
        self.lock().clone()
    }

    // ---- gem5-style scalars and distributions (old StatRegistry) ----

    /// Increments a scalar counter, creating it on first use.
    pub fn add(&self, name: &str, amount: f64, description: &str) {
        let mut inner = self.lock();
        let entry = inner.scalars.entry(name.to_string()).or_default();
        entry.value += amount;
        if entry.description.is_empty() {
            entry.description = description.to_string();
        }
    }

    /// Sets a scalar to an absolute value.
    pub fn set(&self, name: &str, value: f64, description: &str) {
        let mut inner = self.lock();
        let entry = inner.scalars.entry(name.to_string()).or_default();
        entry.value = value;
        if entry.description.is_empty() {
            entry.description = description.to_string();
        }
    }

    /// Records a sample into a distribution.
    pub fn sample(&self, name: &str, value: f64, description: &str) {
        let mut inner = self.lock();
        let entry = inner
            .distributions
            .entry(name.to_string())
            .or_insert_with(|| Distribution {
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                description: description.to_string(),
                ..Default::default()
            });
        entry.count += 1;
        entry.sum += value;
        entry.sum_sq += value * value;
        entry.min = entry.min.min(value);
        entry.max = entry.max.max(value);
    }

    /// Reads a scalar (0.0 when absent).
    pub fn scalar(&self, name: &str) -> f64 {
        self.lock().scalars.get(name).map_or(0.0, |s| s.value)
    }

    /// Mean of a distribution (NaN when empty/absent).
    pub fn mean(&self, name: &str) -> f64 {
        self.lock()
            .distributions
            .get(name)
            .filter(|d| d.count > 0)
            .map_or(f64::NAN, |d| d.sum / d.count as f64)
    }

    /// Sample count of a distribution.
    pub fn count(&self, name: &str) -> u64 {
        self.lock().distributions.get(name).map_or(0, |d| d.count)
    }

    // ---- counters and histograms ----

    /// Adds `amount` to an integer counter, creating it at zero.
    pub fn counter(&self, name: &str, amount: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += amount;
    }

    /// Reads a counter (0 when absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Records `value` into the named histogram, creating it with
    /// [`Histogram::default_bounds`] on first use.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, value, Histogram::default_bounds);
    }

    /// Records `value` into the named histogram, creating it with
    /// `make()` on first use. All shards of one metric must use the
    /// same boundaries or a later [`Registry::merge`] panics.
    pub fn observe_with(&self, name: &str, value: f64, make: impl FnOnce() -> Histogram) {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(make)
            .record(value);
    }

    /// A copy of the named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Quantile of the named histogram (NaN when absent/empty).
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.lock()
            .histograms
            .get(name)
            .map_or(f64::NAN, |h| h.quantile(q))
    }

    // ---- aggregation and export ----

    /// Folds `other` into `self`: scalars and counters add,
    /// distributions and histograms merge. Commutative and
    /// associative, so shards merged in any grouping agree. Scalars
    /// written with [`Registry::set`] are summed like any other scalar;
    /// set absolute values after merging, not before.
    ///
    /// # Panics
    ///
    /// Panics when a shared histogram name has different boundaries.
    pub fn merge(&self, other: &Registry) {
        let theirs = other.snapshot();
        let mut inner = self.lock();
        for (name, s) in theirs.scalars {
            let entry = inner.scalars.entry(name).or_default();
            entry.value += s.value;
            if entry.description.is_empty() {
                entry.description = s.description;
            }
        }
        for (name, d) in theirs.distributions {
            let entry = inner
                .distributions
                .entry(name)
                .or_insert_with(|| Distribution {
                    min: f64::INFINITY,
                    max: f64::NEG_INFINITY,
                    description: d.description.clone(),
                    ..Default::default()
                });
            entry.count += d.count;
            entry.sum += d.sum;
            entry.sum_sq += d.sum_sq;
            entry.min = entry.min.min(d.min);
            entry.max = entry.max.max(d.max);
        }
        for (name, v) in theirs.counters {
            *inner.counters.entry(name).or_insert(0) += v;
        }
        for (name, h) in theirs.histograms {
            match inner.histograms.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&h),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(h);
                }
            }
        }
    }

    /// Renders the gem5-style dump: scalars, then distributions, then
    /// counters and histogram summaries, each section in name order.
    pub fn dump(&self) -> String {
        let inner = self.snapshot();
        let mut out = String::from("---------- Begin Simulation Statistics ----------\n");
        for (name, s) in &inner.scalars {
            let _ = writeln!(out, "{name:<42} {:>14.4} # {}", s.value, s.description);
        }
        for (name, d) in &inner.distributions {
            if d.count == 0 {
                continue;
            }
            let mean = d.sum / d.count as f64;
            let var = (d.sum_sq / d.count as f64 - mean * mean).max(0.0);
            let _ = writeln!(
                out,
                "{:<42} {:>14.4} # {} (n={}, sd={:.4}, min={:.4}, max={:.4})",
                format!("{name}::mean"),
                mean,
                d.description,
                d.count,
                var.sqrt(),
                d.min,
                d.max
            );
        }
        for (name, v) in &inner.counters {
            let _ = writeln!(out, "{name:<42} {v:>14} # (counter)");
        }
        for (name, h) in &inner.histograms {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<42} {:>14.4} # (histogram: n={}, mean={:.4}, p99={:.4})",
                format!("{name}::p50"),
                h.quantile(0.5),
                h.count(),
                h.mean(),
                h.quantile(0.99)
            );
        }
        out.push_str("---------- End Simulation Statistics   ----------\n");
        out
    }

    /// Renders every metric as JSON Lines, one object per line, in
    /// section order (scalars, distributions, counters, histograms)
    /// and name order within a section. Deterministic.
    pub fn to_jsonl(&self) -> String {
        let inner = self.snapshot();
        let mut out = String::new();
        for (name, s) in &inner.scalars {
            out.push_str("{\"type\":\"scalar\",\"name\":\"");
            json_escape_into(&mut out, name);
            out.push_str("\",\"value\":");
            json_f64_into(&mut out, s.value);
            out.push_str("}\n");
        }
        for (name, d) in &inner.distributions {
            out.push_str("{\"type\":\"dist\",\"name\":\"");
            json_escape_into(&mut out, name);
            let _ = write!(out, "\",\"count\":{},\"sum\":", d.count);
            json_f64_into(&mut out, d.sum);
            out.push_str(",\"min\":");
            json_f64_into(&mut out, if d.count == 0 { f64::NAN } else { d.min });
            out.push_str(",\"max\":");
            json_f64_into(&mut out, if d.count == 0 { f64::NAN } else { d.max });
            out.push_str("}\n");
        }
        for (name, v) in &inner.counters {
            out.push_str("{\"type\":\"counter\",\"name\":\"");
            json_escape_into(&mut out, name);
            let _ = write!(out, "\",\"value\":{v}}}");
            out.push('\n');
        }
        for (name, h) in &inner.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":\"");
            json_escape_into(&mut out, name);
            let _ = write!(out, "\",\"count\":{},\"sum\":", h.count());
            json_f64_into(&mut out, h.sum());
            out.push_str(",\"min\":");
            json_f64_into(&mut out, if h.count() == 0 { f64::NAN } else { h.min() });
            out.push_str(",\"max\":");
            json_f64_into(&mut out, if h.count() == 0 { f64::NAN } else { h.max() });
            out.push_str(",\"counts\":[");
            for (i, c) in h.bucket_counts().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Clears all statistics.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }
}

// ---------------------------------------------------------------------------
// Noise-draw accounting
// ---------------------------------------------------------------------------

/// A pass-through [`RngCore`] wrapper that counts draws without
/// perturbing the stream — each `next_u32`/`next_u64`/`fill_bytes`
/// call is one draw. Wraps a model's RNG so "noise draws per
/// evaluation" becomes a measurable metric.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R> CountingRng<R> {
    /// Wraps `inner` with a zeroed draw counter.
    pub fn new(inner: R) -> Self {
        CountingRng { inner, draws: 0 }
    }

    /// Draws observed so far.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The wrapped generator.
    pub fn inner(&self) -> &R {
        &self.inner
    }
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.draws += 1;
        self.inner.fill_bytes(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.draws += 1;
        self.inner.try_fill_bytes(dest)
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Adds to a [`Registry`](crate::trace::Registry) counter:
/// `counter!(reg, "name")` adds 1, `counter!(reg, "name", n)` adds `n`.
#[macro_export]
macro_rules! counter {
    ($reg:expr, $name:expr) => {
        $reg.counter($name, 1)
    };
    ($reg:expr, $name:expr, $amount:expr) => {
        $reg.counter($name, $amount)
    };
}

/// Records a sample into a [`Registry`](crate::trace::Registry)
/// histogram (default boundaries on first use).
#[macro_export]
macro_rules! histogram {
    ($reg:expr, $name:expr, $value:expr) => {
        $reg.observe($name, $value as f64)
    };
}

/// Records a complete span on a [`Tracer`](crate::trace::Tracer):
/// `trace_span!(tracer, start_tick, end_tick, "name", "key" => value, ...)`.
/// Fields attach to the start event.
#[macro_export]
macro_rules! trace_span {
    ($tracer:expr, $start:expr, $end:expr, $name:expr $(, $k:expr => $v:expr)* $(,)?) => {{
        let __span = $tracer.span_start(
            $start,
            $name,
            vec![$(($k, $crate::trace::Value::from($v))),*],
        );
        $tracer.span_end($end, __span, vec![]);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, SeedableRng};
    use crate::rngs::StdRng;

    #[test]
    fn tracer_records_in_order_and_renders_jsonl() {
        let mut t = Tracer::new();
        let s = t.span_start(0, "session", vec![("side", Value::from("A"))]);
        t.instant(3, "frame.send", vec![("len", Value::from(42u64))]);
        t.span_end(7, s, vec![("ok", Value::from(true))]);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            r#"{"tick":0,"kind":"span_start","span":1,"name":"session","fields":{"side":"A"}}"#
        );
        assert_eq!(
            lines[1],
            r#"{"tick":3,"kind":"instant","name":"frame.send","fields":{"len":42}}"#
        );
        assert_eq!(
            lines[2],
            r#"{"tick":7,"kind":"span_end","span":1,"name":"session","fields":{"ok":true}}"#
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.span_start(0, "x", vec![]);
        t.instant(1, "y", vec![]);
        t.span_end(2, s, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.to_jsonl(), "");
    }

    #[test]
    fn merge_rebases_span_ids() {
        let mut a = Tracer::new();
        let sa = a.span_start(0, "a", vec![]);
        a.span_end(1, sa, vec![]);
        let mut b = Tracer::new();
        let sb = b.span_start(0, "b", vec![]);
        b.span_end(2, sb, vec![]);
        a.merge(b);
        let spans: Vec<u64> = a.events().iter().map(|e| e.span).collect();
        assert_eq!(spans, vec![1, 1, 2, 2]);
        // A further span continues past the merged ids.
        let sc = a.span_start(5, "c", vec![]);
        assert_eq!(a.events().last().unwrap().span, 3);
        a.span_end(6, sc, vec![]);
    }

    #[test]
    fn merged_tracers_reproduce_serial_log() {
        // Serial: one tracer records items 0..4 in order. Parallel:
        // per-item tracers merged in input order. Same JSONL.
        let mut serial = Tracer::new();
        for i in 0..4u64 {
            let s = serial.span_start(i * 10, "item", vec![("i", Value::from(i))]);
            serial.span_end(i * 10 + 5, s, vec![]);
        }
        let shards: Vec<Tracer> = (0..4u64)
            .map(|i| {
                let mut t = Tracer::new();
                let s = t.span_start(i * 10, "item", vec![("i", Value::from(i))]);
                t.span_end(i * 10 + 5, s, vec![]);
                t
            })
            .collect();
        let mut merged = Tracer::new();
        for t in shards {
            merged.merge(t);
        }
        assert_eq!(merged.to_jsonl(), serial.to_jsonl());
    }

    #[test]
    fn json_escaping_and_nonfinite_floats() {
        let mut t = Tracer::new();
        t.instant(
            0,
            "odd",
            vec![
                ("s", Value::from("a\"b\\c\nd")),
                ("nan", Value::from(f64::NAN)),
                ("inf", Value::from(f64::INFINITY)),
            ],
        );
        let line = t.to_jsonl();
        assert!(line.contains(r#""s":"a\"b\\c\nd""#), "{line}");
        assert!(line.contains(r#""nan":null"#), "{line}");
        assert!(line.contains(r#""inf":null"#), "{line}");
    }

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        // (-inf,1]: 0.5, 1.0; (1,2]: 1.5; (2,4]: 3.0; overflow: 100.
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 106.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = Histogram::default_bounds();
        let mut b = Histogram::default_bounds();
        for _ in 0..200 {
            a.record(rng.gen_range(0.0..1e6));
            b.record(rng.gen_range(0.0..10.0));
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn quantile_within_one_bucket_of_exact() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = Histogram::with_bounds((1..=100).map(f64::from).collect());
        let mut values: Vec<f64> = (0..500).map(|_| rng.gen_range(0.0..100.0)).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = values[((q * 500.0_f64).ceil() as usize - 1).min(499)];
            let est = h.quantile(q);
            assert!(
                (est - exact).abs() <= 1.0 + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_histogram_quantile_is_nan() {
        let h = Histogram::default_bounds();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
    }

    #[test]
    fn registry_counters_and_histograms() {
        let reg = Registry::new();
        crate::counter!(reg, "wire.frames");
        crate::counter!(reg, "wire.frames", 4);
        crate::histogram!(reg, "lat", 3.0);
        crate::histogram!(reg, "lat", 5.0);
        assert_eq!(reg.counter_value("wire.frames"), 5);
        assert_eq!(reg.histogram("lat").unwrap().count(), 2);
        assert!((reg.histogram("lat").unwrap().mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn registry_preserves_gem5_dump_shape() {
        let reg = Registry::new();
        reg.add("sim.ticks", 100.0, "simulated ticks");
        reg.sample("puf.latency", 6.0, "per-eval latency");
        reg.counter("bus.reads", 3);
        let dump = reg.dump();
        assert!(dump.contains("sim.ticks"));
        assert!(dump.contains("puf.latency::mean"));
        assert!(dump.contains("bus.reads"));
        assert!(dump.contains("Begin Simulation Statistics"));
    }

    #[test]
    fn registry_scalars_and_distributions_keep_gem5_semantics() {
        let reg = Registry::new();
        reg.add("cpu.instructions", 10.0, "retired instructions");
        reg.add("cpu.instructions", 5.0, "retired instructions");
        assert_eq!(reg.scalar("cpu.instructions"), 15.0);
        reg.add("x", 3.0, "");
        reg.set("x", 1.0, "");
        assert_eq!(reg.scalar("x"), 1.0);
        for v in [1.0, 2.0, 3.0] {
            reg.sample("lat", v, "latency");
        }
        assert_eq!(reg.count("lat"), 3);
        assert!((reg.mean("lat") - 2.0).abs() < 1e-12);
        assert_eq!(reg.scalar("nothing"), 0.0);
        assert!(reg.mean("nothing").is_nan());
        assert_eq!(reg.count("nothing"), 0);
        reg.reset();
        assert_eq!(reg.scalar("cpu.instructions"), 0.0);
        assert_eq!(reg.count("lat"), 0);
    }

    #[test]
    fn registry_merge_accumulates_everything() {
        let a = Registry::new();
        let b = Registry::new();
        a.add("x", 1.0, "d");
        b.add("x", 2.0, "d");
        a.counter("c", 5);
        b.counter("c", 7);
        a.observe("h", 2.0);
        b.observe("h", 1000.0);
        a.sample("d", 1.0, "");
        b.sample("d", 3.0, "");
        a.merge(&b);
        assert_eq!(a.scalar("x"), 3.0);
        assert_eq!(a.counter_value("c"), 12);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.count("d"), 2);
        assert!((a.mean("d") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn registry_jsonl_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("z.last", 1);
        reg.counter("a.first", 2);
        reg.observe("h", 3.0);
        let a = reg.to_jsonl();
        let b = reg.clone().to_jsonl();
        assert_eq!(a, b);
        let first_counter = a.lines().position(|l| l.contains("a.first")).unwrap();
        let last_counter = a.lines().position(|l| l.contains("z.last")).unwrap();
        assert!(first_counter < last_counter, "{a}");
    }

    #[test]
    fn counting_rng_preserves_the_stream() {
        let mut plain = StdRng::seed_from_u64(5);
        let mut counted = CountingRng::new(StdRng::seed_from_u64(5));
        let a: Vec<u64> = (0..10).map(|_| plain.next_u64()).collect();
        let b: Vec<u64> = (0..10).map(|_| counted.next_u64()).collect();
        assert_eq!(a, b);
        assert_eq!(counted.draws(), 10);
        let mut buf = [0u8; 16];
        counted.fill_bytes(&mut buf);
        assert_eq!(counted.draws(), 11);
    }

    #[test]
    fn trace_span_macro_records_start_and_end() {
        let mut t = Tracer::new();
        crate::trace_span!(t, 10, 20, "work", "device" => 3usize, "ok" => true);
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].kind, EventKind::SpanStart);
        assert_eq!(t.events()[1].kind, EventKind::SpanEnd);
        assert_eq!(t.events()[0].tick, 10);
        assert_eq!(t.events()[1].tick, 20);
    }
}
