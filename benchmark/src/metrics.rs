//! The benchmark's metric table: names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root mirrors it (a test pins the
//! two together).

use crate::ladder::ENTRIES;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric with its regression bound: the share of the
/// parent's median by which it may worsen before a change regresses.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Measured untraced on every workload. `op` is the workload's unit of
/// work (epoch, session, batched session, walk).
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// Traced per-layer metrics other than the ladder: `(name, unit,
/// better)`. Layers a workload never enters read 0.
pub const TRACED: [(&str, &str, Better); 23] = [
    ("puf.respond.calls", "count", Better::Lower),
    ("puf.respond.share", "ratio", Better::Lower),
    ("puf.respond_deterministic.calls", "count", Better::Lower),
    ("session.mutual_auth.share", "ratio", Better::Lower),
    ("session.attestation.share", "ratio", Better::Lower),
    ("session.eke.share", "ratio", Better::Lower),
    ("session.secure_nn.share", "ratio", Better::Lower),
    ("attestation.walk.share", "ratio", Better::Lower),
    ("secure_nn.seal.share", "ratio", Better::Lower),
    ("transport.sends", "count", Better::Lower),
    ("transport.recvs", "count", Better::Lower),
    ("transport.retransmits", "count", Better::Lower),
    ("transport.share", "ratio", Better::Lower),
    ("gateway.share", "ratio", Better::Lower),
    ("gateway.session_steps", "count", Better::Lower),
    ("gateway.step_saving", "ratio", Better::Higher),
    ("admission.ops", "count", Better::Lower),
    ("admission.share", "ratio", Better::Lower),
    ("admission.wait_p99_ticks", "ticks", Better::Lower),
    ("crp_store.ops", "count", Better::Lower),
    ("crp_store.share", "ratio", Better::Lower),
    ("crp_store.hit_ratio", "ratio", Better::Higher),
    ("trace.overhead_ratio", "ratio", Better::Lower),
];

/// The reconstruction check rides with the traced metrics.
pub const RECONSTRUCTION: &str = "ladder.reconstruction_ratio";

/// Every per-layer metric, `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = TRACED
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u, b))
        .collect();
    all.push((RECONSTRUCTION.to_string(), "ratio", Better::Higher));
    all.extend(
        ENTRIES
            .iter()
            .map(|e| (format!("ladder.{e}.ns"), "ns", Better::Lower)),
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` declares exactly the metrics this table reports.
    #[test]
    fn benchmark_json_mirrors_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e = spec
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (declared, ours) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(declared.get("name").and_then(Json::as_str), Some(ours.name));
            assert_eq!(declared.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(
                declared.get("better").and_then(Json::as_str),
                Some(ours.better.name())
            );
            assert_eq!(
                declared.get("bound").and_then(Json::as_f64),
                Some(ours.bound)
            );
        }
        let layers = spec
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer");
        let ours = per_layer();
        assert_eq!(layers.len(), ours.len());
        for (declared, (name, unit, better)) in layers.iter().zip(&ours) {
            assert_eq!(
                declared.get("name").and_then(Json::as_str),
                Some(name.as_str())
            );
            assert_eq!(declared.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(
                declared.get("better").and_then(Json::as_str),
                Some(better.name())
            );
        }
        let workloads = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads");
        let declared: Vec<(&str, &str)> = workloads
            .iter()
            .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("why")?.as_str()?)))
            .collect();
        let ours: Vec<(&str, &str)> = crate::workloads::ALL
            .iter()
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(declared, ours);
    }
}
