//! Passive photonic building blocks: waveguides, phase shifters and
//! directional couplers.
//!
//! These act on the complex field sample-by-sample. Each element is
//! constructed *with* its process perturbation already baked in (drawn
//! from a [`crate::process::DieSampler`]), so a circuit built twice from
//! the same die is identical while two dies differ randomly — exactly the
//! PUF premise.

use crate::complex::Complex64;
use crate::environment::Environment;
use crate::process::DieSampler;

/// A waveguide segment: amplitude loss plus (process-random) phase, with a
/// thermo-optic temperature dependence proportional to its length.
#[derive(Debug, Clone, Copy)]
pub struct Waveguide {
    /// Amplitude transmission (0..=1).
    pub amplitude: f64,
    /// Static phase at the 25 °C reference, including the process offset.
    pub phase: f64,
    /// Effective length in µm (sets temperature sensitivity).
    pub length_um: f64,
}

impl Waveguide {
    /// Builds a segment of `length_um` with nominal loss `loss_db_per_cm`,
    /// drawing its phase perturbation from the die sampler.
    pub fn sampled(length_um: f64, loss_db_per_cm: f64, die: &mut DieSampler) -> Self {
        let loss_db = loss_db_per_cm * length_um / 10_000.0;
        let nominal_amplitude = 10f64.powf(-loss_db / 20.0);
        Waveguide {
            amplitude: die.loss_factor(nominal_amplitude),
            phase: die.phase_offset(),
            length_um,
        }
    }

    /// The unit phasor `e^{iφ(T)}` the segment applies at `env` — the
    /// only trig in [`Self::transfer`], constant for a fixed environment.
    pub(crate) fn phasor(&self, env: &Environment) -> Complex64 {
        Complex64::from_polar(1.0, self.phase + env.thermo_optic_phase(self.length_um))
    }

    /// Propagates one field sample at the given environment.
    pub fn transfer(&self, input: Complex64, env: &Environment) -> Complex64 {
        input.scale(self.amplitude) * self.phasor(env)
    }
}

/// A (possibly thermally tuned) phase shifter.
#[derive(Debug, Clone, Copy)]
pub struct PhaseShifter {
    /// Static process-random phase.
    pub phase: f64,
    /// Equivalent optical length for temperature sensitivity, µm.
    pub length_um: f64,
}

impl PhaseShifter {
    /// Draws a process-random phase shifter.
    pub fn sampled(length_um: f64, die: &mut DieSampler) -> Self {
        PhaseShifter {
            phase: die.phase_offset(),
            length_um,
        }
    }

    /// The unit phasor `e^{iφ(T)}` the shifter applies at `env` — the
    /// only trig in [`Self::transfer`], constant for a fixed environment.
    pub(crate) fn phasor(&self, env: &Environment) -> Complex64 {
        Complex64::from_polar(1.0, self.phase + env.thermo_optic_phase(self.length_um))
    }

    /// Applies the phase shift.
    pub fn transfer(&self, input: Complex64, env: &Environment) -> Complex64 {
        input * self.phasor(env)
    }
}

/// A 2×2 directional coupler with field coupling angle θ:
///
/// ```text
/// [out0]   [ cosθ   i·sinθ ] [in0]
/// [out1] = [ i·sinθ  cosθ  ] [in1]
/// ```
///
/// Power coupling ratio is sin²θ; θ = π/4 is a 50:50 splitter. The matrix
/// is unitary, so the coupler conserves energy (checked by tests and by a
/// property test on the whole mesh).
#[derive(Debug, Clone, Copy)]
pub struct Coupler {
    /// Field coupling angle in radians, including process perturbation.
    pub theta: f64,
}

impl Coupler {
    /// A nominal 50:50 coupler perturbed by the die's process variation.
    pub fn sampled_50_50(die: &mut DieSampler) -> Self {
        Coupler {
            theta: std::f64::consts::FRAC_PI_4 + die.coupling_offset(),
        }
    }

    /// The matrix entries `(cos θ, sin θ)` — the only trig in
    /// [`Self::transfer`].
    pub(crate) fn cos_sin(&self) -> (f64, f64) {
        (self.theta.cos(), self.theta.sin())
    }

    /// Applies the 2×2 unitary to a pair of field samples.
    pub fn transfer(&self, in0: Complex64, in1: Complex64) -> (Complex64, Complex64) {
        let (c, s) = self.cos_sin();
        Self::apply(c, s, in0, in1)
    }

    /// Applies the coupler matrix with entries `c = cos θ`, `s = sin θ`
    /// already evaluated (see [`Self::cos_sin`]).
    pub(crate) fn apply(c: f64, s: f64, in0: Complex64, in1: Complex64) -> (Complex64, Complex64) {
        let is = Complex64::new(0.0, s);
        (in0.scale(c) + in1 * is, in0 * is + in1.scale(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{DieId, ProcessVariation};

    fn die() -> DieSampler {
        DieSampler::new(DieId(3), ProcessVariation::typical_soi())
    }

    #[test]
    fn waveguide_loss_is_passive() {
        let mut sampler = die();
        for _ in 0..100 {
            let wg = Waveguide::sampled(200.0, 2.0, &mut sampler);
            assert!(wg.amplitude <= 1.0 && wg.amplitude > 0.9);
            let out = wg.transfer(Complex64::ONE, &Environment::nominal());
            assert!(out.norm_sqr() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn waveguide_temperature_changes_phase_not_power() {
        let mut sampler = die();
        let wg = Waveguide::sampled(500.0, 2.0, &mut sampler);
        let cold = wg.transfer(Complex64::ONE, &Environment::at_temperature(0.0));
        let hot = wg.transfer(Complex64::ONE, &Environment::at_temperature(80.0));
        assert!((cold.norm_sqr() - hot.norm_sqr()).abs() < 1e-12);
        assert!((cold.arg() - hot.arg()).abs() > 0.1);
    }

    #[test]
    fn coupler_is_unitary() {
        let mut sampler = die();
        for _ in 0..50 {
            let coupler = Coupler::sampled_50_50(&mut sampler);
            let in0 = Complex64::from_polar(0.8, 1.1);
            let in1 = Complex64::from_polar(0.6, -2.3);
            let (o0, o1) = coupler.transfer(in0, in1);
            let pin = in0.norm_sqr() + in1.norm_sqr();
            let pout = o0.norm_sqr() + o1.norm_sqr();
            assert!((pin - pout).abs() < 1e-12, "energy not conserved");
        }
    }

    #[test]
    fn fifty_fifty_splits_single_input_evenly() {
        let coupler = Coupler {
            theta: std::f64::consts::FRAC_PI_4,
        };
        let (o0, o1) = coupler.transfer(Complex64::ONE, Complex64::ZERO);
        assert!((o0.norm_sqr() - 0.5).abs() < 1e-12);
        assert!((o1.norm_sqr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn phase_shifter_preserves_power() {
        let mut sampler = die();
        let ps = PhaseShifter::sampled(100.0, &mut sampler);
        let input = Complex64::from_polar(0.9, 0.4);
        let out = ps.transfer(input, &Environment::nominal());
        assert!((out.norm_sqr() - input.norm_sqr()).abs() < 1e-12);
    }
}
