//! Receive chain: photodiode → transimpedance amplifier → ADC (Fig. 2).
//!
//! The photodiode is the *nonlinearity* of the PUF: it detects the
//! intensity |E|² of the coherent field, so amplitude and phase
//! information mix irreversibly ("sensitive not only to the amplitude but
//! also to the phase of the light field due to the coherence of the
//! approach", §II-A). The ASIC then amplifies the photocurrent (TIA) and
//! quantizes it (ADC), with realistic shot/thermal noise.

use crate::complex::Complex64;
use crate::environment::Environment;
use crate::laser::gaussian;
use neuropuls_rt::Rng;

/// A p-i-n photodiode (square-law detector).
#[derive(Debug, Clone, Copy)]
pub struct Photodiode {
    /// Responsivity in A/W.
    pub responsivity: f64,
    /// Dark current in µA.
    pub dark_current_ua: f64,
    /// Shot-noise scale relative to the Schottky value √(2qIB) at the
    /// detection bandwidth (1 = physical, 0 = shot noise off).
    pub shot_noise: f64,
    /// Absolute thermal (Johnson) noise floor in µA.
    pub thermal_noise_ua: f64,
}

/// Schottky shot-noise coefficient at the 25 GHz detection bandwidth:
/// σ = √(2·q·I·B); with the photocurrent in µA, σ = √(2q·B)·√I ≈
/// 0.0895·√I µA.
const SHOT_SIGMA_UA_PER_SQRT_UA: f64 = 0.0895;

impl Photodiode {
    /// A typical 25G germanium photodiode. The thermal floor is the
    /// Johnson noise of the 5 kΩ transimpedance over 25 GHz,
    /// √(4kT·B/R) ≈ 0.29 µA.
    pub fn new() -> Self {
        Photodiode {
            responsivity: 0.9,
            dark_current_ua: 0.01,
            shot_noise: 1.0,
            thermal_noise_ua: 0.29,
        }
    }

    /// Detects a field sample, returning the photocurrent in µA for a
    /// field normalized to 1 mW = unit intensity.
    pub fn detect<R: Rng>(&self, field: Complex64, rng: &mut R) -> f64 {
        // |E|² in mW × responsivity (A/W) → mA; convert to µA.
        let signal_ua = field.norm_sqr() * self.responsivity * 1000.0;
        // Shot and thermal noise are independent zero-mean Gaussians
        // both added before the clamp, so their sum is one Gaussian of
        // variance σ_shot² + σ_thermal².
        let shot_var = SHOT_SIGMA_UA_PER_SQRT_UA
            * SHOT_SIGMA_UA_PER_SQRT_UA
            * signal_ua.max(0.0)
            * self.shot_noise
            * self.shot_noise;
        let sigma = (shot_var + self.thermal_noise_ua * self.thermal_noise_ua).sqrt();
        (signal_ua + self.dark_current_ua + sigma * gaussian(rng)).max(0.0)
    }

    /// Noise-free detection (for analytic comparisons and enrollment
    /// golden references).
    pub fn detect_ideal(&self, field: Complex64) -> f64 {
        field.norm_sqr() * self.responsivity * 1000.0 + self.dark_current_ua
    }
}

impl Default for Photodiode {
    fn default() -> Self {
        Self::new()
    }
}

/// Transimpedance amplifier converting photocurrent to voltage.
#[derive(Debug, Clone, Copy)]
pub struct Tia {
    /// Gain in kΩ (µA → mV).
    pub gain_kohm: f64,
    /// Input-referred noise in µA RMS.
    pub input_noise_ua: f64,
    /// Single-pole bandwidth as a fraction of the sample rate (1.0 =
    /// tracks every sample, <1.0 = inter-symbol smoothing).
    pub bandwidth_fraction: f64,
    state_mv: f64,
}

impl Tia {
    /// A 25G TIA with 5 kΩ transimpedance.
    pub fn new() -> Self {
        Tia {
            gain_kohm: 5.0,
            input_noise_ua: 0.3,
            bandwidth_fraction: 0.8,
            state_mv: 0.0,
        }
    }

    /// Resets the filter state between interrogations.
    pub fn reset(&mut self) {
        self.state_mv = 0.0;
    }

    /// Amplifies one photocurrent sample (µA) to millivolts, applying
    /// supply-dependent gain and the one-pole response.
    pub fn amplify<R: Rng>(&mut self, current_ua: f64, env: &Environment, rng: &mut R) -> f64 {
        let gain = self.gain_kohm * (1.0 + 0.1 * env.supply_deviation);
        let noisy = current_ua + self.input_noise_ua * gaussian(rng);
        let target = noisy * gain;
        let alpha = self.bandwidth_fraction.clamp(0.0, 1.0);
        self.state_mv += alpha * (target - self.state_mv);
        self.state_mv
    }
}

impl Default for Tia {
    fn default() -> Self {
        Self::new()
    }
}

/// An n-bit analog-to-digital converter.
#[derive(Debug, Clone, Copy)]
pub struct Adc {
    /// Resolution in bits.
    pub bits: u8,
    /// Full-scale input in mV.
    pub full_scale_mv: f64,
}

impl Adc {
    /// An 8-bit ADC with a sensible full scale for the nominal chain
    /// (1 mW × 0.9 A/W × 5 kΩ = 4.5 V ≫ typical PUF outputs which sit
    /// well below the launched power after splitting losses).
    pub fn new(bits: u8) -> Self {
        Adc {
            bits,
            full_scale_mv: 1000.0,
        }
    }

    /// Number of output codes.
    pub fn codes(&self) -> u32 {
        1u32 << self.bits
    }

    /// Quantizes a voltage sample to a code (clipping at the rails).
    pub fn quantize(&self, voltage_mv: f64) -> u32 {
        let max_code = self.codes() - 1;
        let normalized = voltage_mv / self.full_scale_mv;
        if normalized <= 0.0 {
            0
        } else if normalized >= 1.0 {
            max_code
        } else {
            (normalized * self.codes() as f64) as u32
        }
    }

    /// Mid-rise reconstruction of a code back to millivolts (used when
    /// thresholding in the response extractor).
    pub fn to_voltage(&self, code: u32) -> f64 {
        (code as f64 + 0.5) / self.codes() as f64 * self.full_scale_mv
    }
}

/// The complete receive chain for one output port.
#[derive(Debug, Clone)]
pub struct ReceiveChain {
    /// The photodiode.
    pub pd: Photodiode,
    /// The transimpedance amplifier.
    pub tia: Tia,
    /// The converter.
    pub adc: Adc,
}

impl ReceiveChain {
    /// Builds the nominal 25G chain with an 8-bit ADC.
    pub fn new() -> Self {
        ReceiveChain {
            pd: Photodiode::new(),
            tia: Tia::new(),
            adc: Adc::new(8),
        }
    }

    /// Resets inter-symbol state.
    pub fn reset(&mut self) {
        self.tia.reset();
    }

    /// Converts one field sample into an ADC code.
    pub fn sample<R: Rng>(&mut self, field: Complex64, env: &Environment, rng: &mut R) -> u32 {
        let current = self.pd.detect(field, rng);
        let voltage = self.tia.amplify(current, env, rng);
        self.adc.quantize(voltage)
    }
}

impl Default for ReceiveChain {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laser::oracles::box_muller;
    use neuropuls_rt::rngs::StdRng;
    use neuropuls_rt::SeedableRng;

    #[test]
    fn photodiode_is_square_law() {
        let pd = Photodiode::new();
        let weak = pd.detect_ideal(Complex64::new(0.1, 0.0));
        let strong = pd.detect_ideal(Complex64::new(0.2, 0.0));
        // Doubling the field quadruples the current (minus dark current).
        let ratio = (strong - pd.dark_current_ua) / (weak - pd.dark_current_ua);
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn photodiode_ignores_absolute_phase() {
        let pd = Photodiode::new();
        let a = pd.detect_ideal(Complex64::from_polar(0.5, 0.0));
        let b = pd.detect_ideal(Complex64::from_polar(0.5, 2.1));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn photocurrent_is_nonnegative() {
        let pd = Photodiode::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(pd.detect(Complex64::ZERO, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn adc_quantization_covers_range() {
        let adc = Adc::new(8);
        assert_eq!(adc.quantize(-5.0), 0);
        assert_eq!(adc.quantize(0.0), 0);
        assert_eq!(adc.quantize(2000.0), 255);
        let mid = adc.quantize(500.0);
        assert!(mid > 120 && mid < 136, "mid code {mid}");
    }

    #[test]
    fn adc_monotone() {
        let adc = Adc::new(6);
        let mut last = 0;
        for step in 0..100 {
            let code = adc.quantize(step as f64 * 12.0);
            assert!(code >= last);
            last = code;
        }
    }

    #[test]
    fn adc_roundtrip_error_bounded() {
        let adc = Adc::new(8);
        let lsb = adc.full_scale_mv / adc.codes() as f64;
        for v in [3.0, 127.0, 480.0, 999.0] {
            let back = adc.to_voltage(adc.quantize(v));
            assert!((back - v).abs() <= lsb, "v={v} back={back}");
        }
    }

    #[test]
    fn tia_lowpass_smooths_transitions() {
        let mut tia = Tia {
            input_noise_ua: 0.0,
            bandwidth_fraction: 0.5,
            ..Tia::new()
        };
        let env = Environment::nominal();
        let mut rng = StdRng::seed_from_u64(4);
        let first = tia.amplify(100.0, &env, &mut rng);
        let second = tia.amplify(100.0, &env, &mut rng);
        assert!(first < second, "one-pole response must approach target");
        assert!(second < 100.0 * 5.0 + 1.0);
    }

    /// The chain's code before the shot and thermal draws merged and
    /// the ziggurat replaced Box–Muller: three draws per sample.
    fn sample_box_muller<R: Rng>(
        chain: &mut ReceiveChain,
        field: Complex64,
        env: &Environment,
        rng: &mut R,
    ) -> u32 {
        let pd = chain.pd;
        let signal_ua = field.norm_sqr() * pd.responsivity * 1000.0;
        let shot = SHOT_SIGMA_UA_PER_SQRT_UA * signal_ua.max(0.0).sqrt() * pd.shot_noise;
        let current = (signal_ua
            + pd.dark_current_ua
            + shot * box_muller(rng)
            + pd.thermal_noise_ua * box_muller(rng))
        .max(0.0);
        let tia = &mut chain.tia;
        let gain = tia.gain_kohm * (1.0 + 0.1 * env.supply_deviation);
        let target = (current + tia.input_noise_ua * box_muller(rng)) * gain;
        tia.state_mv += tia.bandwidth_fraction.clamp(0.0, 1.0) * (target - tia.state_mv);
        chain.adc.quantize(tia.state_mv)
    }

    /// Per-code frequencies of `n` samples of a constant field, after a
    /// burn-in that lets the TIA settle.
    fn code_histogram(
        n: usize,
        mut sample: impl FnMut(&mut ReceiveChain) -> u32,
    ) -> (Vec<f64>, f64) {
        let mut chain = ReceiveChain::new();
        for _ in 0..32 {
            sample(&mut chain);
        }
        let mut counts = vec![0.0; chain.adc.codes() as usize];
        let mut sum = 0.0;
        for _ in 0..n {
            let code = sample(&mut chain);
            counts[code as usize] += 1.0;
            sum += f64::from(code);
        }
        (
            counts.iter().map(|c| c / n as f64).collect(),
            sum / n as f64,
        )
    }

    #[test]
    fn merged_noise_matches_the_three_draw_chain() {
        const N: usize = 100_000;
        let env = Environment::nominal();
        // Near dark (0.37 µA mean against σ ≈ 0.3 µA: the clamp binds on
        // ~10% of samples, codes 0 and 1 both common), mid-scale, bright.
        for (level, amplitude) in [0.02, 0.1, 0.3].into_iter().enumerate() {
            let field = Complex64::new(amplitude, 0.0);
            let mut old_rng = StdRng::seed_from_u64(40 + level as u64);
            let mut new_rng = StdRng::seed_from_u64(50 + level as u64);
            let (old, old_mean) = code_histogram(N, |chain| {
                sample_box_muller(chain, field, &env, &mut old_rng)
            });
            let (new, new_mean) =
                code_histogram(N, |chain| chain.sample(field, &env, &mut new_rng));
            let tv: f64 = old
                .iter()
                .zip(&new)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            assert!(tv < 0.015, "field {amplitude}: total variation {tv}");
            assert!(
                (old_mean - new_mean).abs() < 0.02,
                "field {amplitude}: mean code {old_mean} vs {new_mean}"
            );
            if level == 0 {
                assert!(
                    new[0] > 0.05 && new[1] > 0.05,
                    "codes 0/1: {} {}",
                    new[0],
                    new[1]
                );
            }
        }
    }

    #[test]
    fn chain_produces_higher_codes_for_brighter_fields() {
        let mut chain = ReceiveChain::new();
        let env = Environment::nominal();
        let mut rng = StdRng::seed_from_u64(5);
        chain.reset();
        let mut bright_sum = 0u64;
        let mut dark_sum = 0u64;
        for _ in 0..50 {
            bright_sum += u64::from(chain.sample(Complex64::new(0.3, 0.0), &env, &mut rng));
        }
        chain.reset();
        for _ in 0..50 {
            dark_sum += u64::from(chain.sample(Complex64::new(0.05, 0.0), &env, &mut rng));
        }
        assert!(
            bright_sum > dark_sum * 2,
            "bright {bright_sum} dark {dark_sum}"
        );
    }
}
