//! The canonical PUF quality metrics of §II: uniqueness, reliability,
//! uniformity and bit-aliasing.
//!
//! Conventions follow the standard PUF literature (Maiti et al.):
//!
//! * **Uniqueness** — mean inter-device fractional Hamming distance;
//!   ideal 0.5 ("fractional Hamming distance close to 50 % … inter-device",
//!   §II-A).
//! * **Reliability** — `1 − mean intra-device FHD` between a golden
//!   response and noisy re-readings; ideal 1.0.
//! * **Uniformity** — fraction of ones in a response; ideal 0.5.
//! * **Bit-aliasing** — per-bit-position Shannon entropy across devices
//!   (the y-axis of Fig. 3); 1.0 means the bit is unbiased across the
//!   population, 0.0 means every device agrees (fully aliased).

use crate::bitstats::{fractional_hamming_distance, hamming_weight, mean_std, pairwise_fhd};

/// Summary of a metric: mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Number of observations.
    pub count: usize,
}

impl MetricSummary {
    fn from_values(values: &[f64]) -> Self {
        let (mean, std) = mean_std(values);
        MetricSummary {
            mean,
            std,
            count: values.len(),
        }
    }
}

/// Uniqueness: mean pairwise inter-device FHD over one response per
/// device.
///
/// # Panics
///
/// Panics if fewer than two devices are given or lengths differ.
pub fn uniqueness(device_responses: &[Vec<u8>]) -> MetricSummary {
    assert!(
        device_responses.len() >= 2,
        "uniqueness needs at least two devices"
    );
    MetricSummary::from_values(&pairwise_fhd(device_responses))
}

/// Reliability of one device: `1 − mean FHD(golden, reread)`.
///
/// # Panics
///
/// Panics if no re-readings are given.
pub fn reliability(golden: &[u8], rereads: &[Vec<u8>]) -> MetricSummary {
    assert!(!rereads.is_empty(), "reliability needs re-readings");
    let distances: Vec<f64> = rereads
        .iter()
        .map(|r| 1.0 - fractional_hamming_distance(golden, r))
        .collect();
    MetricSummary::from_values(&distances)
}

/// Uniformity: fraction of ones per response, summarized over devices.
pub fn uniformity(device_responses: &[Vec<u8>]) -> MetricSummary {
    let values: Vec<f64> = device_responses
        .iter()
        .map(|r| hamming_weight(r) as f64 / r.len() as f64)
        .collect();
    MetricSummary::from_values(&values)
}

/// Bit-aliasing as per-bit Shannon entropy across the device population
/// (Fig. 3's y-axis). Returns one entropy value per bit position.
///
/// # Panics
///
/// Panics if fewer than two devices are given or lengths differ.
pub fn bit_aliasing_entropy(device_responses: &[Vec<u8>]) -> Vec<f64> {
    assert!(
        device_responses.len() >= 2,
        "bit aliasing needs at least two devices"
    );
    let bits = device_responses[0].len();
    let devices = device_responses.len() as f64;
    (0..bits)
        .map(|pos| {
            let ones = device_responses
                .iter()
                .map(|r| {
                    assert_eq!(r.len(), bits, "response lengths differ");
                    (r[pos] & 1) as usize
                })
                .sum::<usize>() as f64;
            binary_entropy(ones / devices)
        })
        .collect()
}

/// The binary (Shannon) entropy function H(p) in bits.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

/// Full quality report for a population of devices with re-readings.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Inter-device uniqueness (ideal mean 0.5).
    pub uniqueness: MetricSummary,
    /// Intra-device reliability (ideal mean 1.0).
    pub reliability: MetricSummary,
    /// Response uniformity (ideal mean 0.5).
    pub uniformity: MetricSummary,
    /// Mean per-bit aliasing entropy (ideal 1.0).
    pub mean_bit_aliasing: f64,
    /// Minimum per-bit aliasing entropy (worst aliased bit).
    pub min_bit_aliasing: f64,
}

/// Computes the complete §II metric set.
///
/// `device_rereads[d]` holds the noisy re-readings of device `d`, whose
/// golden response is `device_golden[d]`.
///
/// # Panics
///
/// Panics if inputs are inconsistent (see the individual metrics).
pub fn quality_report(device_golden: &[Vec<u8>], device_rereads: &[Vec<Vec<u8>>]) -> QualityReport {
    assert_eq!(
        device_golden.len(),
        device_rereads.len(),
        "golden/reread device counts differ"
    );
    let reliabilities: Vec<f64> = device_golden
        .iter()
        .zip(device_rereads.iter())
        .map(|(golden, rereads)| reliability(golden, rereads).mean)
        .collect();
    let (rel_mean, rel_std) = mean_std(&reliabilities);
    let aliasing = bit_aliasing_entropy(device_golden);
    let mean_alias = aliasing.iter().sum::<f64>() / aliasing.len() as f64;
    let min_alias = aliasing.iter().cloned().fold(f64::INFINITY, f64::min);
    QualityReport {
        uniqueness: uniqueness(device_golden),
        reliability: MetricSummary {
            mean: rel_mean,
            std: rel_std,
            count: reliabilities.len(),
        },
        uniformity: uniformity(device_golden),
        mean_bit_aliasing: mean_alias,
        min_bit_aliasing: min_alias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniqueness_of_complementary_devices_is_one() {
        let summary = uniqueness(&[vec![0; 8], vec![1; 8]]);
        assert_eq!(summary.mean, 1.0);
        assert_eq!(summary.count, 1);
    }

    #[test]
    fn uniqueness_of_identical_devices_is_zero() {
        let summary = uniqueness(&[vec![1, 0, 1], vec![1, 0, 1], vec![1, 0, 1]]);
        assert_eq!(summary.mean, 0.0);
        assert_eq!(summary.count, 3);
    }

    #[test]
    fn reliability_perfect_rereads() {
        let golden = vec![1, 0, 1, 1];
        let summary = reliability(&golden, &[golden.clone(), golden.clone()]);
        assert_eq!(summary.mean, 1.0);
    }

    #[test]
    fn reliability_counts_flips() {
        let golden = vec![1, 0, 1, 1];
        let noisy = vec![0, 0, 1, 1]; // 1 of 4 flipped
        let summary = reliability(&golden, &[noisy]);
        assert!((summary.mean - 0.75).abs() < 1e-12);
    }

    #[test]
    fn uniformity_balanced() {
        let summary = uniformity(&[vec![0, 1, 0, 1], vec![1, 1, 0, 0]]);
        assert_eq!(summary.mean, 0.5);
    }

    #[test]
    fn aliasing_entropy_extremes() {
        // Bit 0: all devices agree (entropy 0). Bit 1: half/half
        // (entropy 1).
        let devices = vec![vec![1, 0], vec![1, 1], vec![1, 0], vec![1, 1]];
        let entropy = bit_aliasing_entropy(&devices);
        assert_eq!(entropy[0], 0.0);
        assert_eq!(entropy[1], 1.0);
    }

    #[test]
    fn binary_entropy_properties() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert_eq!(binary_entropy(0.5), 1.0);
        assert!((binary_entropy(0.25) - binary_entropy(0.75)).abs() < 1e-12);
    }

    #[test]
    fn full_report_on_ideal_population() {
        // Four devices with balanced, independent-looking responses.
        let golden = vec![
            vec![0, 1, 0, 1, 1, 0, 0, 1],
            vec![1, 0, 1, 0, 1, 0, 1, 0],
            vec![1, 1, 0, 0, 0, 1, 1, 0],
            vec![0, 0, 1, 1, 0, 1, 0, 1],
        ];
        let rereads: Vec<Vec<Vec<u8>>> = golden.iter().map(|g| vec![g.clone(); 3]).collect();
        let report = quality_report(&golden, &rereads);
        assert_eq!(report.reliability.mean, 1.0);
        assert!((report.uniformity.mean - 0.5).abs() < 1e-12);
        assert!(report.uniqueness.mean > 0.4);
        assert_eq!(report.mean_bit_aliasing, 1.0);
    }
}
