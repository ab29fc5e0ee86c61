//! gem5-style statistics semantics the SoC relies on.
//!
//! §V: "The gem5-provided log facility allows data collection to assess
//! entropy, uniqueness, and response uniformity … throughput, latency,
//! and power consumption measurements are essential". [`crate::soc`]
//! records its statistics in a [`neuropuls_rt::trace::Registry`]; these
//! tests pin the scalar, distribution and dump behaviour the SoC's
//! `name value # description` report depends on.

#[cfg(test)]
mod tests {
    use neuropuls_rt::trace::Registry;

    #[test]
    fn counters_accumulate() {
        let stats = Registry::new();
        stats.add("cpu.instructions", 10.0, "retired instructions");
        stats.add("cpu.instructions", 5.0, "retired instructions");
        assert_eq!(stats.scalar("cpu.instructions"), 15.0);
    }

    #[test]
    fn set_overrides() {
        let stats = Registry::new();
        stats.add("x", 3.0, "");
        stats.set("x", 1.0, "");
        assert_eq!(stats.scalar("x"), 1.0);
    }

    #[test]
    fn distribution_moments() {
        let stats = Registry::new();
        for v in [1.0, 2.0, 3.0] {
            stats.sample("lat", v, "latency");
        }
        assert_eq!(stats.count("lat"), 3);
        assert!((stats.mean("lat") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_stats_have_neutral_values() {
        let stats = Registry::new();
        assert_eq!(stats.scalar("nothing"), 0.0);
        assert!(stats.mean("nothing").is_nan());
        assert_eq!(stats.count("nothing"), 0);
    }

    #[test]
    fn dump_contains_entries() {
        let stats = Registry::new();
        stats.add("sim.ticks", 100.0, "simulated ticks");
        stats.sample("puf.latency", 6.0, "per-eval latency");
        let dump = stats.dump();
        assert!(dump.contains("sim.ticks"));
        assert!(dump.contains("puf.latency::mean"));
        assert!(dump.contains("Begin Simulation Statistics"));
    }

    #[test]
    fn reset_clears() {
        let stats = Registry::new();
        stats.add("a", 1.0, "");
        stats.reset();
        assert_eq!(stats.scalar("a"), 0.0);
    }

    #[test]
    fn registry_gains_counters_and_histograms() {
        let stats = Registry::new();
        stats.counter("bus.reads", 2);
        stats.observe("queue.depth", 3.0);
        assert_eq!(stats.counter_value("bus.reads"), 2);
        assert_eq!(stats.histogram("queue.depth").unwrap().count(), 1);
    }
}
