//! Microring resonators — the memory elements of the PUF architecture.
//!
//! §II-A of the paper: "Memory effects, e.g., for resonant devices, will
//! also be used to mix up incoming signals in time with previous ones,
//! therefore having past bits interacting with present ones, similarly to
//! what happens in reservoir computing", and the authors' demonstrated
//! architecture \[12\] is "based on microring resonator arrays".
//!
//! The ring is simulated in the time domain with its round-trip treated as
//! one sample delay (the sample period being the bit period of the
//! modulator), which is the discrete all-pass filter
//!
//! ```text
//! E_circ[n] = i·k·E_in[n] + r·a·e^{iφ}·E_circ[n-1]
//! E_out [n] = r·E_in[n] + i·k·a·e^{iφ}·E_circ[n-1]
//! ```
//!
//! with through-coupling `r`, cross-coupling `k` (r² + k² = 1), round-trip
//! amplitude `a` and round-trip phase `φ` (process-random and temperature
//! dependent). The recursion gives every output bit a dependence on *all*
//! previous bits — the reservoir-like mixing the paper exploits against
//! machine-learning attacks.

use crate::complex::Complex64;
use crate::environment::Environment;
use crate::process::DieSampler;

/// Residual thermo-optic sensitivity of the rings after the platform's
/// athermal overcladding. Bare-silicon rings shift ≈ 70–80 pm/K and
/// would detune by a full linewidth within ~10 K — useless without
/// active tuning. The fabricated arrays instead use a negative-dn/dT
/// cladding (TiO₂/polymer) that cancels ≈ 90 % of the silicon
/// coefficient, the standard passive compensation for untuned resonator
/// banks. The residual keeps rings temperature-*sensitive* (drift grows
/// with excursion) without the resonance racing through several FSRs.
const ATHERMAL_RESIDUAL: f64 = 0.1;

/// An all-pass microring resonator with one-sample round-trip delay.
#[derive(Debug, Clone)]
pub struct Microring {
    /// Through (self) coupling coefficient `r`.
    pub r: f64,
    /// Cross coupling coefficient `k` (√(1-r²)).
    pub k: f64,
    /// Round-trip amplitude transmission `a`.
    pub a: f64,
    /// Round-trip phase at the reference temperature (process-random).
    pub phi: f64,
    /// Ring circumference in µm (temperature sensitivity).
    pub circumference_um: f64,
    circulating: Complex64,
}

impl Microring {
    /// Builds a ring with nominal power cross-coupling `kappa2` and
    /// round-trip loss `loss_db`, drawing its detuning from the die.
    ///
    /// # Panics
    ///
    /// Panics if `kappa2` is outside `(0, 1)`.
    pub fn sampled(kappa2: f64, loss_db: f64, circumference_um: f64, die: &mut DieSampler) -> Self {
        assert!(
            kappa2 > 0.0 && kappa2 < 1.0,
            "cross coupling must be in (0,1)"
        );
        let k = (kappa2.sqrt() + die.coupling_offset()).clamp(0.05, 0.999);
        let r = (1.0 - k * k).sqrt();
        let nominal_a = 10f64.powf(-loss_db / 20.0);
        Microring {
            r,
            k,
            a: die.loss_factor(nominal_a),
            phi: die.ring_detune(),
            circumference_um,
            circulating: Complex64::ZERO,
        }
    }

    /// Clears the stored circulating field (start of a fresh
    /// interrogation).
    pub fn reset(&mut self) {
        self.circulating = Complex64::ZERO;
    }

    /// The round-trip feedback `a·e^{iφ(T)}` at `env` — the only trig in
    /// [`Self::step`], constant for a fixed environment.
    pub(crate) fn feedback(&self, env: &Environment) -> Complex64 {
        let phi = self.phi + ATHERMAL_RESIDUAL * env.thermo_optic_phase(self.circumference_um);
        Complex64::from_polar(self.a, phi)
    }

    /// Advances the ring by one sample.
    pub fn step(&mut self, input: Complex64, env: &Environment) -> Complex64 {
        let feedback = self.feedback(env);
        Self::recur(self.r, self.k, feedback, &mut self.circulating, input)
    }

    /// One sample of the all-pass recursion (module docs) for a ring with
    /// through/cross coupling `r`/`k` and round-trip `feedback`
    /// ([`Self::feedback`]), updating the stored `circulating` field.
    pub(crate) fn recur(
        r: f64,
        k: f64,
        feedback: Complex64,
        circulating: &mut Complex64,
        input: Complex64,
    ) -> Complex64 {
        let delayed = *circulating * feedback;
        let ik = Complex64::new(0.0, k);
        let output = input.scale(r) + delayed * ik;
        *circulating = input * ik + delayed.scale(r);
        output
    }

    /// Steady-state (CW) complex transmission at the reference
    /// environment — the analytic all-pass response used to cross-check
    /// the time-domain recursion.
    pub fn cw_response(&self, env: &Environment) -> Complex64 {
        let ae = self.feedback(env);
        // H = (r - a·e^{iφ}) / (1 - r·a·e^{iφ}) for the all-pass ring with
        // the i·k coupling convention: derive from the recursion at z=1.
        let ik = Complex64::new(0.0, self.k);
        // E_circ = i·k·E_in / (1 - r·a·e^{iφ})
        let circ = ik / (Complex64::ONE - ae.scale(self.r));
        // E_out = r·E_in + i·k·a·e^{iφ}·E_circ
        Complex64::from(self.r) + ik * ae * circ
    }

    /// Energy decay rate: fraction of circulating power lost per round
    /// trip.
    pub fn round_trip_loss(&self) -> f64 {
        1.0 - self.a * self.a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{DieId, ProcessVariation};

    fn ring(seed: u64) -> Microring {
        let mut die = DieSampler::new(DieId(seed), ProcessVariation::typical_soi());
        Microring::sampled(0.3, 0.5, 60.0, &mut die)
    }

    #[test]
    fn lossless_ring_conserves_energy_in_steady_state() {
        let mut die = DieSampler::new(DieId(1), ProcessVariation::tight(0.0));
        let mut r = Microring::sampled(0.3, 0.0, 60.0, &mut die);
        // Drive with CW for many samples; with a=1 the all-pass transmits
        // |H|=1 in steady state.
        let env = Environment::nominal();
        let mut out = Complex64::ZERO;
        for _ in 0..5000 {
            out = r.step(Complex64::ONE, &env);
        }
        assert!(
            (out.norm_sqr() - 1.0).abs() < 1e-6,
            "|out|² = {}",
            out.norm_sqr()
        );
    }

    #[test]
    fn time_domain_converges_to_cw_response() {
        let mut r = ring(5);
        let env = Environment::nominal();
        let analytic = r.cw_response(&env);
        let mut out = Complex64::ZERO;
        for _ in 0..2000 {
            out = r.step(Complex64::ONE, &env);
        }
        assert!(
            (out - analytic).abs() < 1e-9,
            "time-domain {out} vs analytic {analytic}"
        );
    }

    #[test]
    fn ring_has_memory() {
        // A single impulse must produce a decaying tail, not a single
        // output sample.
        let mut r = ring(6);
        let env = Environment::nominal();
        let first = r.step(Complex64::ONE, &env);
        let tail1 = r.step(Complex64::ZERO, &env);
        let tail2 = r.step(Complex64::ZERO, &env);
        assert!(first.abs() > 0.0);
        assert!(tail1.abs() > 1e-6, "no memory tail");
        assert!(tail2.abs() < tail1.abs(), "tail must decay");
    }

    #[test]
    fn reset_clears_state() {
        let mut r = ring(7);
        let env = Environment::nominal();
        let fresh = r.step(Complex64::ONE, &env);
        r.step(Complex64::ZERO, &env);
        r.reset();
        let again = r.step(Complex64::ONE, &env);
        assert!((fresh - again).abs() < 1e-15);
    }

    #[test]
    fn output_power_never_exceeds_cumulative_input() {
        let mut r = ring(8);
        let env = Environment::nominal();
        let mut in_energy = 0.0;
        let mut out_energy = 0.0;
        for n in 0..200 {
            let input = if n % 3 == 0 {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            in_energy += input.norm_sqr();
            out_energy += r.step(input, &env).norm_sqr();
            assert!(
                out_energy <= in_energy + 1e-9,
                "passivity violated at sample {n}"
            );
        }
    }

    #[test]
    fn temperature_shifts_response() {
        let r = ring(9);
        let cold = r.cw_response(&Environment::at_temperature(20.0));
        let hot = r.cw_response(&Environment::at_temperature(30.0));
        assert!((cold - hot).abs() > 1e-3);
    }

    #[test]
    fn different_dies_have_different_detunings() {
        let a = ring(10);
        let b = ring(11);
        assert!((a.phi - b.phi).abs() > 1e-6);
    }
}
