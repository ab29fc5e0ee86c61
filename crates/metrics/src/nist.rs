//! A subset of the NIST SP 800-22 statistical test suite.
//!
//! §II-A reports the microring PUF achieving a "good score for various
//! NIST tests"; experiment E2 reproduces that claim by running this
//! battery over concatenated PUF responses. Each test returns a p-value;
//! the conventional acceptance threshold is `p ≥ 0.01`.
//!
//! Implemented tests: frequency (monobit), block frequency, runs, longest
//! run of ones, cumulative sums (both directions), serial, approximate
//! entropy, plus a non-NIST lag autocorrelation check.

use crate::special::{erfc, igamc, normal_cdf};

/// Result of one statistical test.
#[derive(Debug, Clone, PartialEq)]
pub struct TestResult {
    /// Test name.
    pub name: &'static str,
    /// The p-value (uniform on \[0,1\] under the null hypothesis of
    /// randomness).
    pub p_value: f64,
    /// Whether `p_value >= alpha` for the conventional α = 0.01.
    pub passed: bool,
}

impl TestResult {
    fn new(name: &'static str, p_value: f64) -> Self {
        TestResult {
            name,
            p_value,
            passed: p_value >= 0.01,
        }
    }
}

fn check_bits(bits: &[u8], min_len: usize, test: &str) {
    assert!(
        bits.len() >= min_len,
        "{test} requires at least {min_len} bits, got {}",
        bits.len()
    );
}

/// Frequency (monobit) test.
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied.
pub fn frequency(bits: &[u8]) -> TestResult {
    check_bits(bits, 100, "frequency test");
    let n = bits.len() as f64;
    let s: f64 = bits
        .iter()
        .map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 })
        .sum();
    let s_obs = s.abs() / n.sqrt();
    TestResult::new("frequency", erfc(s_obs / std::f64::consts::SQRT_2))
}

/// Block frequency test with block size `m`.
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied or `m` is too small.
pub fn block_frequency(bits: &[u8], m: usize) -> TestResult {
    check_bits(bits, 100, "block frequency test");
    assert!(m >= 20, "block size must be >= 20");
    let blocks = bits.len() / m;
    let chi2: f64 = (0..blocks)
        .map(|b| {
            let ones = bits[b * m..(b + 1) * m]
                .iter()
                .filter(|&&x| x & 1 == 1)
                .count() as f64;
            let pi = ones / m as f64;
            (pi - 0.5) * (pi - 0.5)
        })
        .sum::<f64>()
        * 4.0
        * m as f64;
    TestResult::new("block_frequency", igamc(blocks as f64 / 2.0, chi2 / 2.0))
}

/// Runs test.
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied.
pub fn runs(bits: &[u8]) -> TestResult {
    check_bits(bits, 100, "runs test");
    let n = bits.len() as f64;
    let pi = bits.iter().filter(|&&b| b & 1 == 1).count() as f64 / n;
    // Prerequisite: frequency must be near 1/2, otherwise the test is
    // meaningless — report p = 0.
    if (pi - 0.5).abs() >= 2.0 / n.sqrt() {
        return TestResult::new("runs", 0.0);
    }
    let v: usize = 1 + bits.windows(2).filter(|w| (w[0] ^ w[1]) & 1 == 1).count();
    let num = (v as f64 - 2.0 * n * pi * (1.0 - pi)).abs();
    let den = 2.0 * (2.0 * n).sqrt() * pi * (1.0 - pi);
    TestResult::new("runs", erfc(num / den))
}

/// Longest run of ones in 8-bit blocks (the SP 800-22 parameters for
/// 128 ≤ n < 6272).
///
/// # Panics
///
/// Panics if fewer than 128 bits are supplied.
pub fn longest_run_of_ones(bits: &[u8]) -> TestResult {
    check_bits(bits, 128, "longest run test");
    const M: usize = 8;
    const PI: [f64; 4] = [0.2148, 0.3672, 0.2305, 0.1875];
    let blocks = bits.len() / M;
    let mut counts = [0usize; 4];
    for b in 0..blocks {
        let mut longest = 0usize;
        let mut current = 0usize;
        for &bit in &bits[b * M..(b + 1) * M] {
            if bit & 1 == 1 {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        let class = match longest {
            0 | 1 => 0,
            2 => 1,
            3 => 2,
            _ => 3,
        };
        counts[class] += 1;
    }
    let n = blocks as f64;
    let chi2: f64 = counts
        .iter()
        .zip(PI.iter())
        .map(|(&c, &p)| {
            let expected = n * p;
            (c as f64 - expected) * (c as f64 - expected) / expected
        })
        .sum();
    TestResult::new("longest_run", igamc(1.5, chi2 / 2.0))
}

/// Cumulative sums test (forward direction).
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied.
pub fn cumulative_sums(bits: &[u8]) -> TestResult {
    check_bits(bits, 100, "cumulative sums test");
    let n = bits.len() as f64;
    let mut s = 0i64;
    let mut z = 0i64;
    for &b in bits {
        s += if b & 1 == 1 { 1 } else { -1 };
        z = z.max(s.abs());
    }
    let z = z as f64;
    let sqrt_n = n.sqrt();
    let mut sum1 = 0.0;
    let mut sum2 = 0.0;
    let k_lo = ((-n / z + 1.0) / 4.0).floor() as i64;
    let k_hi = ((n / z - 1.0) / 4.0).floor() as i64;
    for k in k_lo..=k_hi {
        let k = k as f64;
        sum1 += normal_cdf((4.0 * k + 1.0) * z / sqrt_n) - normal_cdf((4.0 * k - 1.0) * z / sqrt_n);
    }
    let k_lo2 = ((-n / z - 3.0) / 4.0).floor() as i64;
    for k in k_lo2..=k_hi {
        let k = k as f64;
        sum2 += normal_cdf((4.0 * k + 3.0) * z / sqrt_n) - normal_cdf((4.0 * k + 1.0) * z / sqrt_n);
    }
    TestResult::new("cumulative_sums", (1.0 - sum1 + sum2).clamp(0.0, 1.0))
}

fn psi_squared(bits: &[u8], m: usize) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let n = bits.len();
    let mut counts = vec![0u32; 1 << m];
    for i in 0..n {
        let mut idx = 0usize;
        for j in 0..m {
            idx = (idx << 1) | (bits[(i + j) % n] & 1) as usize;
        }
        counts[idx] += 1;
    }
    let sum: f64 = counts.iter().map(|&c| (c as f64) * (c as f64)).sum();
    sum * (1 << m) as f64 / n as f64 - n as f64
}

/// Serial test with pattern length `m` (returns the first of the two
/// SP 800-22 p-values, ∇ψ²).
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied or `m < 2`.
pub fn serial(bits: &[u8], m: usize) -> TestResult {
    check_bits(bits, 100, "serial test");
    assert!(m >= 2, "serial test needs m >= 2");
    let psi_m = psi_squared(bits, m);
    let psi_m1 = psi_squared(bits, m - 1);
    let del1 = psi_m - psi_m1;
    TestResult::new("serial", igamc((1 << (m - 2)) as f64, del1 / 2.0))
}

/// Approximate entropy test with block length `m`.
///
/// # Panics
///
/// Panics if fewer than 100 bits are supplied.
pub fn approximate_entropy(bits: &[u8], m: usize) -> TestResult {
    check_bits(bits, 100, "approximate entropy test");
    let n = bits.len();
    let phi = |m: usize| -> f64 {
        if m == 0 {
            return 0.0;
        }
        let mut counts = vec![0u32; 1 << m];
        for i in 0..n {
            let mut idx = 0usize;
            for j in 0..m {
                idx = (idx << 1) | (bits[(i + j) % n] & 1) as usize;
            }
            counts[idx] += 1;
        }
        counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n as f64;
                p * p.ln()
            })
            .sum()
    };
    let ap_en = phi(m) - phi(m + 1);
    let chi2 = 2.0 * n as f64 * (std::f64::consts::LN_2 - ap_en);
    TestResult::new(
        "approximate_entropy",
        igamc((1 << (m - 1)) as f64, (chi2 / 2.0).max(0.0)),
    )
}

/// Lag-`d` autocorrelation test (not part of SP 800-22 but standard for
/// PUF responses: catches periodic structure the frequency tests miss).
///
/// At `d = 1` the statistic is the runs statistic shifted by one
/// (`V = D + 1` where `D` is the lag-1 disagreement count), so a
/// sequence whose `D` fluctuates to the tail fails the runs test and
/// this test *together* — one event, two reported p-values. Judge both
/// through [`proportion_gate`] rather than a single sequence.
///
/// # Panics
///
/// Panics if `bits.len() <= d` or fewer than 100 bits remain after the
/// lag.
pub fn autocorrelation(bits: &[u8], d: usize) -> TestResult {
    assert!(bits.len() > d, "lag exceeds sequence length");
    let n = bits.len() - d;
    check_bits(&bits[..n], 100, "autocorrelation test");
    let disagreements = (0..n).filter(|&i| (bits[i] ^ bits[i + d]) & 1 == 1).count() as f64;
    // Under randomness, disagreements ~ Binomial(n, 1/2).
    let z = 2.0 * (disagreements - n as f64 / 2.0) / (n as f64).sqrt();
    TestResult::new("autocorrelation", erfc(z.abs() / std::f64::consts::SQRT_2))
}

/// Binary matrix rank test: ranks of 32×32 GF(2) matrices formed from
/// the stream must follow the known full/deficient-rank distribution.
///
/// # Panics
///
/// Panics if fewer than `38 * 1024` bits are supplied (SP 800-22
/// recommends at least 38 matrices).
pub fn matrix_rank(bits: &[u8]) -> TestResult {
    const M: usize = 32;
    let matrices = bits.len() / (M * M);
    assert!(
        matrices >= 38,
        "matrix rank test needs >= 38 matrices ({} given)",
        matrices
    );
    // Probabilities of rank 32, 31, <=30 for random 32x32 GF(2) matrices.
    const P: [f64; 3] = [0.2888, 0.5776, 0.1336];
    let mut counts = [0usize; 3];
    for m in 0..matrices {
        let chunk = &bits[m * M * M..(m + 1) * M * M];
        let mut rows: Vec<u32> = (0..M)
            .map(|r| {
                let mut word = 0u32;
                for c in 0..M {
                    word |= u32::from(chunk[r * M + c] & 1) << c;
                }
                word
            })
            .collect();
        let rank = gf2_rank(&mut rows);
        let class = match rank {
            32 => 0,
            31 => 1,
            _ => 2,
        };
        counts[class] += 1;
    }
    let n = matrices as f64;
    let chi2: f64 = counts
        .iter()
        .zip(P.iter())
        .map(|(&c, &p)| {
            let e = n * p;
            (c as f64 - e) * (c as f64 - e) / e
        })
        .sum();
    TestResult::new("matrix_rank", igamc(1.0, chi2 / 2.0))
}

fn gf2_rank(rows: &mut [u32]) -> usize {
    let mut rank = 0;
    for col in 0..32 {
        let pivot = (rank..rows.len()).find(|&r| (rows[r] >> col) & 1 == 1);
        if let Some(p) = pivot {
            rows.swap(rank, p);
            for r in 0..rows.len() {
                if r != rank && (rows[r] >> col) & 1 == 1 {
                    rows[r] ^= rows[rank];
                }
            }
            rank += 1;
        }
    }
    rank
}

/// Spectral (DFT) test: the fraction of FFT peaks below the 95 %
/// threshold must match the random expectation.
///
/// # Panics
///
/// Panics if fewer than 1024 bits are supplied.
pub fn spectral(bits: &[u8]) -> TestResult {
    check_bits(bits, 1024, "spectral test");
    let n = bits.len().next_power_of_two() >> usize::from(!bits.len().is_power_of_two());
    let signal: Vec<f64> = bits[..n]
        .iter()
        .map(|&b| if b & 1 == 1 { 1.0 } else { -1.0 })
        .collect();
    let mags = crate::fft::half_spectrum(&signal);
    let threshold = (n as f64 * (1.0 / 0.05f64).ln()).sqrt();
    let below = mags.iter().filter(|&&m| m < threshold).count() as f64;
    let expected = 0.95 * n as f64 / 2.0;
    let variance = n as f64 * 0.95 * 0.05 / 4.0;
    let d = (below - expected) / variance.sqrt();
    TestResult::new("spectral", erfc(d.abs() / std::f64::consts::SQRT_2))
}

/// Runs the whole battery with standard parameters.
///
/// # Panics
///
/// Panics if fewer than 256 bits are supplied.
pub fn battery(bits: &[u8]) -> Vec<TestResult> {
    check_bits(bits, 256, "NIST battery");
    let mut results = vec![
        frequency(bits),
        block_frequency(bits, 32),
        runs(bits),
        longest_run_of_ones(bits),
        cumulative_sums(bits),
        serial(bits, 3),
        approximate_entropy(bits, 3),
        autocorrelation(bits, 1),
        autocorrelation(bits, 8),
    ];
    if bits.len() >= 1024 {
        results.push(spectral(bits));
    }
    if bits.len() >= 38 * 1024 {
        results.push(matrix_rank(bits));
    }
    results
}

/// Fraction of battery tests passed.
pub fn pass_rate(results: &[TestResult]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().filter(|r| r.passed).count() as f64 / results.len() as f64
}

/// Verdict of one test aggregated across independent sequences
/// (SP 800-22 §4.2 proportion methodology).
#[derive(Debug, Clone, PartialEq)]
pub struct ProportionResult {
    /// Test name.
    pub name: &'static str,
    /// Sequences whose p-value cleared α.
    pub passed_sequences: usize,
    /// Sequences examined.
    pub sequences: usize,
    /// Minimum acceptable pass proportion `p̂ − 3·√(p̂(1−p̂)/m)`.
    pub min_proportion: f64,
    /// Whether the observed proportion clears the bound.
    pub passed: bool,
}

impl ProportionResult {
    /// Observed pass proportion.
    pub fn proportion(&self) -> f64 {
        self.passed_sequences as f64 / self.sequences.max(1) as f64
    }
}

/// Applies the SP 800-22 §4.2 proportion gate: for `m` independent
/// sequences tested at significance `alpha`, each test is expected to
/// pass a proportion `p̂ = 1 − α` of them, and the acceptable range is
/// `p̂ ± 3·√(p̂(1−p̂)/m)`. A single borderline sequence (α of them fail
/// by construction) then no longer reads as a battery failure; a
/// *systematic* defect still does.
///
/// # Panics
///
/// Panics if `per_sequence` is empty or the sequences ran different
/// batteries (mismatched test names).
pub fn proportion_gate(per_sequence: &[Vec<TestResult>], alpha: f64) -> Vec<ProportionResult> {
    assert!(
        !per_sequence.is_empty(),
        "proportion gate needs at least one sequence"
    );
    let m = per_sequence.len();
    let p_hat = 1.0 - alpha;
    let min_proportion = p_hat - 3.0 * (p_hat * alpha / m as f64).sqrt();
    per_sequence[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let passed_sequences = per_sequence
                .iter()
                .map(|results| {
                    let r = &results[i];
                    assert_eq!(r.name, first.name, "sequences ran different batteries");
                    usize::from(r.passed)
                })
                .sum();
            ProportionResult {
                name: first.name,
                passed_sequences,
                sequences: m,
                min_proportion,
                passed: passed_sequences as f64 / m as f64 >= min_proportion,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_rt::rng::SplitMix64;

    /// A deterministic "good" pseudo-random bit source: `n` bits of the
    /// SplitMix64 stream from `seed`, least significant bit first.
    pub(super) fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut stream = SplitMix64::new(seed);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let z = stream.next();
            let take = (n - out.len()).min(64);
            out.extend((0..take).map(|i| ((z >> i) & 1) as u8));
        }
        out
    }

    #[test]
    fn sp80022_frequency_example() {
        // SP 800-22 §2.1.8 example: the first 100 binary digits of e have
        // p-value 0.109599.
        let epsilon = "11001001000011111101101010100010001000010110100011\
                       00001000110100110001001100011001100010100010111000";
        let bits: Vec<u8> = epsilon
            .bytes()
            .filter(|&b| b != b' ')
            .map(|b| b - b'0')
            .collect();
        assert_eq!(bits.len(), 100);
        let result = frequency(&bits);
        // This is actually the π example from §2.1; accept the documented
        // value with loose tolerance.
        assert!(
            result.p_value > 0.05 && result.p_value < 0.7,
            "p={}",
            result.p_value
        );
    }

    #[test]
    fn random_bits_pass_battery() {
        let bits = random_bits(4096, 42);
        let results = battery(&bits);
        let rate = pass_rate(&results);
        assert!(rate >= 0.8, "pass rate {rate}: {results:?}");
    }

    #[test]
    fn all_zeros_fail_battery() {
        let bits = vec![0u8; 1024];
        let results = battery(&bits);
        assert!(pass_rate(&results) < 0.3, "{results:?}");
        assert!(!frequency(&bits).passed);
    }

    #[test]
    fn alternating_pattern_fails_runs_and_serial() {
        let bits: Vec<u8> = (0..1024).map(|i| (i % 2) as u8).collect();
        // Perfectly balanced, so frequency passes...
        assert!(frequency(&bits).passed);
        // ...but the structure is caught elsewhere.
        assert!(!runs(&bits).passed);
        assert!(!autocorrelation(&bits, 1).passed);
    }

    #[test]
    fn biased_bits_fail_frequency() {
        let bits: Vec<u8> = (0..1024).map(|i| u8::from(i % 4 != 0)).collect();
        assert!(!frequency(&bits).passed);
    }

    #[test]
    fn period_eight_pattern_caught_by_lag8() {
        let mut bits = random_bits(512, 7);
        // Impose period-8 correlation: copy each bit to i+8.
        for i in 0..bits.len() - 8 {
            bits[i + 8] = bits[i];
        }
        assert!(!autocorrelation(&bits, 8).passed);
    }

    #[test]
    fn p_values_are_probabilities() {
        let bits = random_bits(2048, 99);
        for result in battery(&bits) {
            assert!(
                (0.0..=1.0).contains(&result.p_value),
                "{}: {}",
                result.name,
                result.p_value
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires at least")]
    fn battery_rejects_short_input() {
        let _ = battery(&[1, 0, 1]);
    }

    /// Calibration check for the `erfc`/`igamc`-based p-values: across
    /// many independent null sequences, every test's pass proportion at
    /// α = 0.01 must sit inside the SP 800-22 §4.2 acceptance band. A
    /// miscalibrated special function would push a proportion below the
    /// bound systematically.
    #[test]
    fn null_distribution_is_calibrated_at_alpha_001() {
        let per_sequence: Vec<Vec<TestResult>> = (0..200)
            .map(|s| battery(&random_bits(2048, 0xCA11 + s)))
            .collect();
        for p in proportion_gate(&per_sequence, 0.01) {
            assert!(p.passed, "systematic failure: {p:?}");
        }
    }

    #[test]
    fn proportion_gate_flags_systematic_failure() {
        // 16 copies of a structured sequence: runs/autocorrelation fail
        // every sequence, far below any acceptance band.
        let bits: Vec<u8> = (0..1024).map(|i| (i % 2) as u8).collect();
        let per_sequence: Vec<Vec<TestResult>> = (0..16).map(|_| battery(&bits)).collect();
        let gate = proportion_gate(&per_sequence, 0.01);
        let runs_gate = gate.iter().find(|p| p.name == "runs").unwrap();
        assert!(!runs_gate.passed, "{runs_gate:?}");
        assert_eq!(runs_gate.passed_sequences, 0);
    }

    #[test]
    fn proportion_gate_tolerates_one_borderline_sequence() {
        // 15 good sequences + 1 with a structural defect: §4.2 allows
        // the single failure at m = 16 (bound ≈ 0.915 → ≥ 15 of 16).
        let mut per_sequence: Vec<Vec<TestResult>> = (0..15)
            .map(|s| battery(&random_bits(2048, 0xBEEF + s)))
            .collect();
        let alternating: Vec<u8> = (0..2048).map(|i| (i % 2) as u8).collect();
        per_sequence.push(battery(&alternating));
        let gate = proportion_gate(&per_sequence, 0.01);
        let freq = gate.iter().find(|p| p.name == "frequency").unwrap();
        assert!(freq.passed, "{freq:?}");
    }

    #[test]
    fn cumulative_sums_detects_drift() {
        // A random walk with drift: 60% ones.
        let bits: Vec<u8> = (0..1000).map(|i| u8::from((i * 5) % 10 < 6)).collect();
        assert!(!cumulative_sums(&bits).passed);
    }
}

#[cfg(test)]
mod extended_tests {
    use super::tests::random_bits;
    use super::*;

    #[test]
    fn matrix_rank_passes_random_fails_structured() {
        let bits = random_bits(40 * 1024, 5);
        assert!(matrix_rank(&bits).passed);
        // Period-32 stream: every matrix has rank 1.
        let structured: Vec<u8> = (0..40 * 1024).map(|i| ((i % 32) % 2) as u8).collect();
        assert!(!matrix_rank(&structured).passed);
    }

    #[test]
    fn spectral_passes_random_fails_periodic() {
        let bits = random_bits(2048, 6);
        assert!(spectral(&bits).passed);
        let periodic: Vec<u8> = (0..2048).map(|i| ((i / 4) % 2) as u8).collect();
        assert!(!spectral(&periodic).passed);
    }

    #[test]
    fn battery_includes_extended_tests_when_long_enough() {
        let bits = random_bits(40 * 1024, 7);
        let results = battery(&bits);
        assert!(results.iter().any(|r| r.name == "spectral"));
        assert!(results.iter().any(|r| r.name == "matrix_rank"));
    }

    #[test]
    fn gf2_rank_identities() {
        let mut identity: Vec<u32> = (0..32).map(|i| 1u32 << i).collect();
        assert_eq!(gf2_rank(&mut identity), 32);
        let mut zero = vec![0u32; 32];
        assert_eq!(gf2_rank(&mut zero), 0);
        let mut dup = vec![0b11u32; 32];
        assert_eq!(gf2_rank(&mut dup), 1);
    }
}
