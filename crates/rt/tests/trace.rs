//! Property tests for the `neuropuls_rt::trace` histogram and registry.
//!
//! Pinned by CI as `cargo test -q -p neuropuls-rt --test trace`. The
//! properties the observability layer's determinism contract rests on:
//!
//! 1. histogram merge is commutative: merge(a, b) == merge(b, a);
//! 2. bucket counts are conserved when shards are aggregated under
//!    `pool::par_map`, regardless of thread count;
//! 3. quantile estimates are within one bucket width of the exact
//!    order statistic for seeded in-range inputs;
//! 4. per-shard registries merged in input order export the same
//!    bytes, f64 sums included, at any thread count.

use neuropuls_rt::pool;
use neuropuls_rt::prelude::*;
use neuropuls_rt::trace::{Histogram, Registry, Tracer, Value};
use neuropuls_rt::{Rng, SeedableRng};

fn fill(h: &mut Histogram, seed: u64, n: usize, hi: f64) {
    let mut rng = neuropuls_rt::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..n {
        h.record(rng.gen_range(0.0..hi));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn histogram_merge_commutes(
        seed_a in 0u64..4096,
        seed_b in 0u64..4096,
        n_a in 0usize..300,
        n_b in 0usize..300,
    ) {
        let mut a = Histogram::default_bounds();
        let mut b = Histogram::default_bounds();
        fill(&mut a, seed_a, n_a, 1.0e7);
        fill(&mut b, seed_b, n_b, 1.0e7);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (n_a + n_b) as u64);
    }

    #[test]
    fn bucket_counts_conserved_under_par_map(
        seed in 0u64..4096,
        shards in 1usize..12,
        per_shard in 0usize..200,
    ) {
        // Serial reference: everything recorded into one histogram.
        let mut serial = Histogram::default_bounds();
        for s in 0..shards {
            fill(&mut serial, seed ^ s as u64, per_shard, 1.0e6);
        }

        // Parallel: one histogram per shard via par_map (the pool may
        // run these on any number of worker threads), merged in input
        // order afterwards.
        let items: Vec<u64> = (0..shards).map(|s| seed ^ s as u64).collect();
        let parts = pool::par_map(items, |shard_seed| {
            let mut h = Histogram::default_bounds();
            fill(&mut h, shard_seed, per_shard, 1.0e6);
            h
        });
        let mut merged = Histogram::default_bounds();
        for p in &parts {
            merged.merge(p);
        }

        // Bucket counts, totals and extrema are exactly conserved; the
        // f64 sum only to rounding (shard-sum association differs).
        prop_assert_eq!(merged.bucket_counts(), serial.bucket_counts());
        prop_assert_eq!(merged.count(), serial.count());
        if merged.count() > 0 {
            prop_assert_eq!(merged.min(), serial.min());
            prop_assert_eq!(merged.max(), serial.max());
            prop_assert!((merged.sum() - serial.sum()).abs() <= serial.sum().abs() * 1e-12);
        }
        let total: u64 = merged.bucket_counts().iter().sum();
        prop_assert_eq!(total, (shards * per_shard) as u64);
        prop_assert_eq!(total, merged.count());
    }

    #[test]
    fn quantile_within_one_bucket_width_of_exact(
        seed in 0u64..4096,
        n in 1usize..400,
        q in 0.0f64..1.0,
    ) {
        // Uniform bucket width 2.0 over [0, 100); samples in range.
        let bounds: Vec<f64> = (1..=50).map(|i| f64::from(i) * 2.0).collect();
        let mut h = Histogram::with_bounds(bounds);
        let mut rng = neuropuls_rt::rngs::StdRng::seed_from_u64(seed);
        let mut values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
        let exact = values[rank.min(n - 1)];
        let est = h.quantile(q);
        prop_assert!(
            (est - exact).abs() <= 2.0 + 1e-9,
            "q={} est={} exact={}", q, est, exact
        );
    }

    #[test]
    fn registry_merge_matches_serial_recording(
        seed in 0u64..4096,
        shards in 1usize..8,
        per_shard in 1usize..100,
    ) {
        // Shared registry written from par_map workers must agree with
        // a serial recording on every count; the f64 histogram sum
        // depends on the interleaving, so it is not compared.
        let shared = Registry::new();
        let items: Vec<u64> = (0..shards as u64).collect();
        pool::par_map(items.clone(), |s| {
            let mut rng = neuropuls_rt::rngs::StdRng::seed_from_u64(seed ^ s);
            for _ in 0..per_shard {
                shared.counter("events", 1);
                shared.observe("lat", rng.gen_range(0.0..1.0e4));
            }
        });
        let serial = Registry::new();
        for s in 0..shards as u64 {
            let mut rng = neuropuls_rt::rngs::StdRng::seed_from_u64(seed ^ s);
            for _ in 0..per_shard {
                serial.counter("events", 1);
                serial.observe("lat", rng.gen_range(0.0..1.0e4));
            }
        }
        prop_assert_eq!(shared.counter_value("events"), (shards * per_shard) as u64);
        let a = shared.histogram("lat").unwrap();
        let b = serial.histogram("lat").unwrap();
        prop_assert_eq!(a.bucket_counts(), b.bucket_counts());
        prop_assert_eq!(a.count(), b.count());
    }
}

#[test]
fn registry_merge_in_input_order_is_thread_count_independent() {
    // Each shard records into its own registry; merging them in input
    // order fixes the order of every f64 addition, so the export,
    // scalar and histogram sums included, is byte-identical.
    let export = |threads| {
        pool::with_threads(threads, || {
            let shards = pool::par_map((0..32u64).collect(), |s| {
                let reg = Registry::new();
                let mut rng = neuropuls_rt::rngs::StdRng::seed_from_u64(s);
                for _ in 0..50 {
                    let v = rng.gen_range(0.0..1.0e4);
                    reg.counter("events", 1);
                    reg.add("energy", v * 1.0e-3, "energy");
                    reg.observe("lat", v);
                }
                reg
            });
            let merged = Registry::new();
            for reg in &shards {
                merged.merge(reg);
            }
            merged.to_jsonl()
        })
    };
    assert_eq!(export(1), export(8));
}

#[test]
fn tracer_merge_in_input_order_is_thread_count_independent() {
    let items: Vec<u64> = (0..16).collect();
    let shards = pool::par_map(items, |i| {
        let mut t = Tracer::new();
        let s = t.span_start(i, "work", vec![("item", Value::from(i))]);
        t.span_end(i + 3, s, vec![]);
        t
    });
    let mut merged = Tracer::new();
    for t in shards {
        merged.merge(t);
    }
    // Input-order merge: event n belongs to item n/2, so the log is
    // identical no matter how the pool scheduled the shards.
    let ticks: Vec<u64> = merged.events().iter().map(|e| e.tick).collect();
    let expect: Vec<u64> = (0..16).flat_map(|i| [i, i + 3]).collect();
    assert_eq!(ticks, expect);
}
