//! Manufacturing process variation.
//!
//! A PUF's secret *is* its process variation: nominally identical devices
//! differ in waveguide widths, coupling gaps and ring radii, which shift
//! effective indices, coupling ratios and resonance phases. This module
//! models a fabricated *die* as a deterministic stream of Gaussian
//! perturbations derived from a die seed, so that
//!
//! * the same die always re-materializes identically (needed for
//!   enrollment / in-field comparisons), and
//! * different dies are statistically independent.

use neuropuls_rt::rng::SplitMix64;
use neuropuls_rt::{Rng, RngCore, SeedableRng};

/// Identifies one fabricated die (chip instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieId(pub u64);

impl std::fmt::Display for DieId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "die-{:016x}", self.0)
    }
}

/// Strength of the fabrication variability, expressed as the standard
/// deviations of the per-component perturbations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    /// σ of random phase offsets accumulated along a waveguide segment
    /// (radians). Dominated by width/thickness variation of the guide.
    pub phase_sigma: f64,
    /// σ of the power-coupling-ratio deviation of directional couplers
    /// (dimensionless, applied to the coupling angle).
    pub coupling_sigma: f64,
    /// σ of ring-resonator round-trip phase detuning (radians) — the most
    /// sensitive parameter (resonance shifts of nm-scale geometry).
    pub ring_detune_sigma: f64,
    /// σ of the relative amplitude-loss deviation per element.
    pub loss_sigma: f64,
}

impl ProcessVariation {
    /// Typical SOI foundry corner used throughout the experiments.
    pub fn typical_soi() -> Self {
        ProcessVariation {
            phase_sigma: std::f64::consts::PI, // phases fully randomized die-to-die
            coupling_sigma: 0.05,
            ring_detune_sigma: 0.8,
            loss_sigma: 0.02,
        }
    }

    /// A tight (well-controlled) process — used in ablations to show PUF
    /// uniqueness degrading when variability shrinks.
    pub fn tight(scale: f64) -> Self {
        let typical = Self::typical_soi();
        ProcessVariation {
            phase_sigma: typical.phase_sigma * scale,
            coupling_sigma: typical.coupling_sigma * scale,
            ring_detune_sigma: typical.ring_detune_sigma * scale,
            loss_sigma: typical.loss_sigma * scale,
        }
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        Self::typical_soi()
    }
}

/// Deterministic per-die sampler of fabrication perturbations.
///
/// Internally a seeded PRNG: component constructors draw their
/// perturbations in a fixed order, so a die rebuilt from the same
/// [`DieId`] and [`ProcessVariation`] is bit-identical.
///
/// # Example
///
/// ```
/// use neuropuls_photonic::process::{DieId, DieSampler, ProcessVariation};
///
/// let mut a = DieSampler::new(DieId(7), ProcessVariation::typical_soi());
/// let mut b = DieSampler::new(DieId(7), ProcessVariation::typical_soi());
/// assert_eq!(a.phase_offset(), b.phase_offset());
/// ```
#[derive(Debug, Clone)]
pub struct DieSampler {
    rng: neuropuls_rt::rngs::StdRng,
    variation: ProcessVariation,
}

impl DieSampler {
    /// Creates the sampler for `die` under the given process corner.
    pub fn new(die: DieId, variation: ProcessVariation) -> Self {
        // Mix the die id through SplitMix64 so consecutive ids give
        // decorrelated streams.
        let z = SplitMix64::new(die.0).next();
        let mut seed = [0u8; 32];
        for (i, chunk) in seed.chunks_exact_mut(8).enumerate() {
            let v = z.wrapping_add((i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            chunk.copy_from_slice(&v.to_le_bytes());
        }
        DieSampler {
            rng: neuropuls_rt::rngs::StdRng::from_seed(seed),
            variation,
        }
    }

    /// The process corner this sampler draws from.
    pub fn variation(&self) -> ProcessVariation {
        self.variation
    }

    /// Draws a waveguide phase offset (radians).
    pub fn phase_offset(&mut self) -> f64 {
        self.gaussian() * self.variation.phase_sigma
    }

    /// Draws a coupling-angle perturbation (radians).
    pub fn coupling_offset(&mut self) -> f64 {
        self.gaussian() * self.variation.coupling_sigma
    }

    /// Draws a ring round-trip detuning (radians).
    pub fn ring_detune(&mut self) -> f64 {
        self.gaussian() * self.variation.ring_detune_sigma
    }

    /// Draws a relative loss deviation (multiplier around 1.0, clamped to
    /// stay physical, i.e. never providing gain above 1).
    pub fn loss_factor(&mut self, nominal: f64) -> f64 {
        let factor = nominal * (1.0 + self.gaussian() * self.variation.loss_sigma);
        factor.clamp(0.0, 1.0)
    }

    /// Draws a standard Gaussian ([`crate::laser::gaussian`]).
    pub fn gaussian(&mut self) -> f64 {
        crate::laser::gaussian(&mut self.rng)
    }

    /// Raw 64-bit draw (for structural choices such as routing
    /// permutations).
    pub fn raw_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform draw in `[lo, hi)` — used for layout-level diversity such
    /// as per-component path lengths and ring circumferences.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.gen::<f64>() * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_die_same_stream() {
        let mut a = DieSampler::new(DieId(42), ProcessVariation::typical_soi());
        let mut b = DieSampler::new(DieId(42), ProcessVariation::typical_soi());
        for _ in 0..100 {
            assert_eq!(a.phase_offset().to_bits(), b.phase_offset().to_bits());
            assert_eq!(a.ring_detune().to_bits(), b.ring_detune().to_bits());
        }
    }

    #[test]
    fn different_dies_diverge() {
        let mut a = DieSampler::new(DieId(1), ProcessVariation::typical_soi());
        let mut b = DieSampler::new(DieId(2), ProcessVariation::typical_soi());
        let va: Vec<u64> = (0..8).map(|_| a.raw_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.raw_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn adjacent_die_ids_are_decorrelated() {
        // SplitMix mixing: consecutive ids must not give near-identical
        // Gaussian draws.
        let mut a = DieSampler::new(DieId(100), ProcessVariation::typical_soi());
        let mut b = DieSampler::new(DieId(101), ProcessVariation::typical_soi());
        let da: Vec<f64> = (0..32).map(|_| a.gaussian()).collect();
        let db: Vec<f64> = (0..32).map(|_| b.gaussian()).collect();
        let corr: f64 = da.iter().zip(&db).map(|(x, y)| x * y).sum::<f64>() / 32.0;
        assert!(corr.abs() < 0.5, "correlation {corr}");
    }

    #[test]
    fn gaussian_moments() {
        let mut sampler = DieSampler::new(DieId(7), ProcessVariation::typical_soi());
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| sampler.gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn loss_factor_stays_physical() {
        let mut sampler = DieSampler::new(DieId(9), ProcessVariation::tight(10.0));
        for _ in 0..1000 {
            let f = sampler.loss_factor(0.98);
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn die_42_stream_is_pinned() {
        // Pins the die-id mix and the Gaussian draw: a change to either
        // moves every fabricated die, and with it every golden output.
        let mut raw = DieSampler::new(DieId(42), ProcessVariation::typical_soi());
        let words: Vec<u64> = (0..4).map(|_| raw.raw_u64()).collect();
        assert_eq!(
            words,
            [
                0xd5c3_f30b_f783_8c82,
                0x9728_05a9_c4a3_37b3,
                0x3a6c_1cda_d8fe_76a1,
                0x1334_908c_454e_e927,
            ]
        );
        // Each of these ziggurat draws lands inside its layer's inner
        // box, so it consumes exactly the raw word above it: layers 2,
        // 51, 33 and 39 (low 7 bits), sign from bit 7, abscissa from the
        // top 53 bits.
        let mut gauss = DieSampler::new(DieId(42), ProcessVariation::typical_soi());
        let draws: Vec<u64> = (0..4).map(|_| gauss.gaussian().to_bits()).collect();
        assert_eq!(
            draws,
            [
                0xc005_87df_8453_8aaf,
                0xbff0_34aa_4ad1_3920,
                0xbfdd_4cfd_b6c0_4f35,
                0x3fc2_4269_22d3_5b5c,
            ]
        );
    }
}
