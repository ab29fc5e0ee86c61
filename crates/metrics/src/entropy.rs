//! Min-entropy of PUF response populations.
//!
//! §II-A argues that photonic PUFs "can carry a much higher entropy than
//! digital PUFs"; §V asks the simulator to "assess entropy, uniqueness,
//! and response uniformity". This estimator quantifies that claim in E2.

/// Min-entropy per bit estimated from the most frequent value of each bit
/// position across a device population (the NIST SP 800-90B "most common
/// value" idea applied position-wise).
///
/// # Panics
///
/// Panics if the population is empty or lengths differ.
pub fn min_entropy_per_bit(device_responses: &[Vec<u8>]) -> f64 {
    assert!(!device_responses.is_empty(), "population is empty");
    let bits = device_responses[0].len();
    let n = device_responses.len() as f64;
    let mut total = 0.0;
    for pos in 0..bits {
        let ones = device_responses
            .iter()
            .map(|r| {
                assert_eq!(r.len(), bits, "response lengths differ");
                (r[pos] & 1) as usize
            })
            .sum::<usize>() as f64;
        let p_max = (ones / n).max(1.0 - ones / n);
        total += -p_max.log2();
    }
    total / bits as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_entropy_ideal_population() {
        let devices = vec![vec![0, 1], vec![1, 0], vec![0, 0], vec![1, 1]];
        assert!((min_entropy_per_bit(&devices) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_entropy_aliased_population() {
        // Every device answers 1 on bit 0: zero min-entropy there.
        let devices = vec![vec![1, 0], vec![1, 1], vec![1, 0], vec![1, 1]];
        assert!((min_entropy_per_bit(&devices) - 0.5).abs() < 1e-12);
    }
}
