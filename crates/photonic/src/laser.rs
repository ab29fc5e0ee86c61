//! Telecom laser source (Fig. 2: "telecom laser source").
//!
//! Emits a CW carrier at 1550 nm whose amplitude follows the environment's
//! laser power setting, with relative intensity noise (RIN) and slow phase
//! drift applied per interrogation.

use crate::complex::Complex64;
use crate::environment::Environment;
use neuropuls_rt::Rng;
use std::sync::OnceLock;

/// A CW telecom laser.
#[derive(Debug, Clone, Copy)]
pub struct Laser {
    /// Emission wavelength in nm (informational; the simulation is
    /// single-wavelength).
    pub wavelength_nm: f64,
}

impl Laser {
    /// A standard C-band laser at 1550 nm.
    pub fn new() -> Self {
        Laser {
            wavelength_nm: 1550.0,
        }
    }

    /// Carrier amplitude for the environment's power setting. Power in mW
    /// maps to |E|² in normalized units (1 mW → |E|² = 1).
    pub fn carrier(&self, env: &Environment) -> Complex64 {
        Complex64::new(env.laser_power_mw.max(0.0).sqrt(), 0.0)
    }

    /// Carrier with per-interrogation RIN and random optical phase drawn
    /// from `rng` (the optical phase is not locked between
    /// interrogations; only *relative* phases inside the PIC matter).
    pub fn noisy_carrier<R: Rng>(&self, env: &Environment, rng: &mut R) -> Complex64 {
        let rin: f64 = 1.0 + env.rin * gaussian(rng);
        let power = (env.laser_power_mw * rin.max(0.0)).max(0.0);
        let phase = rng.gen::<f64>() * std::f64::consts::TAU;
        Complex64::from_polar(power.sqrt(), phase)
    }
}

impl Default for Laser {
    fn default() -> Self {
        Self::new()
    }
}

/// Layers of the ziggurat behind [`gaussian`].
const ZIG_LAYERS: usize = 128;
/// Right edge of the base layer: the tail starts here (Marsaglia and
/// Tsang, "The Ziggurat Method for Generating Random Variables", 2000).
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of every layer under the unnormalized density `exp(−x²/2)`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// Layer edges of the 128-layer ziggurat. Layer `i` is the box
/// `[0, x[i]] × [f[i], f[i + 1]]`; `x` falls from the base layer's
/// effective width `ZIG_V / f(ZIG_R)` through `x[1] = ZIG_R` to
/// `x[128] = 0`, and `f[i] = exp(−x[i]²/2)`.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    f: [f64; ZIG_LAYERS + 1],
}

impl Ziggurat {
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / density(ZIG_R);
        x[1] = ZIG_R;
        for i in 1..ZIG_LAYERS - 1 {
            x[i + 1] = (-2.0 * (ZIG_V / x[i] + density(x[i])).ln()).sqrt();
        }
        Ziggurat {
            x,
            f: x.map(density),
        }
    }

    fn get() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }
}

/// Standard Gaussian, usable with any [`Rng`]: the 128-layer
/// Marsaglia–Tsang ziggurat. A draw takes one `next_u64` (7 bits pick
/// the layer, one the sign, 53 the abscissa) and returns at once when
/// the point falls inside its layer's inner box, ~97% of draws; the
/// wedges and the tail beyond `ZIG_R` take extra uniforms. Every noise
/// source in the workspace draws through this one sampler.
#[inline]
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let zig = Ziggurat::get();
    loop {
        let bits = rng.next_u64();
        let layer = (bits & 0x7F) as usize;
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let x = unit * zig.x[layer];
        let accepted = if x < zig.x[layer + 1] {
            Some(x)
        } else {
            outside_box(zig, layer, x, rng)
        };
        if let Some(x) = accepted {
            return if bits & 0x80 == 0 { x } else { -x };
        }
    }
}

/// The slow path of [`gaussian`]: a draw from the tail for the base
/// layer, otherwise the wedge test. `None` rejects the point.
#[cold]
fn outside_box<R: Rng>(zig: &Ziggurat, layer: usize, x: f64, rng: &mut R) -> Option<f64> {
    if layer == 0 {
        // Marsaglia's tail method: exact for x > ZIG_R.
        loop {
            let dx = -(1.0 - rng.gen::<f64>()).ln() / ZIG_R;
            let dy = -(1.0 - rng.gen::<f64>()).ln();
            if 2.0 * dy > dx * dx {
                return Some(ZIG_R + dx);
            }
        }
    }
    let y = zig.f[layer] + rng.gen::<f64>() * (zig.f[layer + 1] - zig.f[layer]);
    (y < (-0.5 * x * x).exp()).then_some(x)
}

/// The samplers the ziggurat replaced, kept as test oracles.
#[cfg(test)]
pub(crate) mod oracles {
    use neuropuls_rt::Rng;

    /// The Box–Muller sampler the ziggurat replaced (cosine half only).
    pub(crate) fn box_muller<R: Rng>(rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.gen();
            let u2: f64 = rng.gen();
            if u1 > f64::MIN_POSITIVE {
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }

    /// The Marsaglia polar sampler the batched accel path used (first
    /// of each pair).
    pub(crate) fn polar<R: Rng>(rng: &mut R) -> f64 {
        loop {
            let u = 2.0 * rng.gen::<f64>() - 1.0;
            let v = 2.0 * rng.gen::<f64>() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracles::{box_muller, polar};
    use super::*;
    use neuropuls_rt::rngs::{SmallRng, StdRng};
    use neuropuls_rt::SeedableRng;

    #[test]
    fn carrier_power_tracks_environment() {
        let laser = Laser::new();
        let env = Environment::nominal().with_laser_scale(4.0);
        assert!((laser.carrier(&env).norm_sqr() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_power_is_dark() {
        let laser = Laser::new();
        let env = Environment::nominal().with_laser_scale(0.0);
        assert_eq!(laser.carrier(&env).norm_sqr(), 0.0);
    }

    #[test]
    fn noisy_carrier_fluctuates_around_nominal() {
        let laser = Laser::new();
        let env = Environment::nominal();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 10_000;
        let mean_power: f64 = (0..n)
            .map(|_| laser.noisy_carrier(&env, &mut rng).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((mean_power - 1.0).abs() < 0.01, "mean power {mean_power}");
    }

    #[test]
    fn gaussian_helper_has_unit_variance() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 1.0).abs() < 0.05);
    }

    /// Mean, variance, skewness and kurtosis.
    fn moments(draws: &[f64]) -> [f64; 4] {
        let n = draws.len() as f64;
        let mean = draws.iter().sum::<f64>() / n;
        let central = |k: i32| draws.iter().map(|x| (x - mean).powi(k)).sum::<f64>() / n;
        let var = central(2);
        [
            mean,
            var,
            central(3) / var.powf(1.5),
            central(4) / (var * var),
        ]
    }

    /// Two-sample Kolmogorov–Smirnov statistic.
    fn ks_statistic(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    type Sampler<R> = fn(&mut R) -> f64;

    fn draw<R: Rng>(n: usize, rng: &mut R, sampler: Sampler<R>) -> Vec<f64> {
        (0..n).map(|_| sampler(rng)).collect()
    }

    /// Moments within five standard errors of N(0, 1)'s.
    fn assert_standard_normal(draws: &[f64], what: &str) {
        let n = draws.len() as f64;
        let [mean, var, skew, kurt] = moments(draws);
        assert!(mean.abs() < 5.0 / n.sqrt(), "{what}: mean {mean}");
        assert!(
            (var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(),
            "{what}: var {var}"
        );
        assert!(skew.abs() < 5.0 * (6.0 / n).sqrt(), "{what}: skew {skew}");
        assert!(
            (kurt - 3.0).abs() < 5.0 * (24.0 / n).sqrt(),
            "{what}: kurtosis {kurt}"
        );
    }

    fn compare_with_oracles<R: Rng + SeedableRng>(what: &str) {
        const N: usize = 200_000;
        // Critical two-sample KS value at α = 0.001 for N against N.
        let critical = 1.949 * (2.0 / N as f64).sqrt();
        let zig = draw(N, &mut R::seed_from_u64(11), gaussian);
        assert_standard_normal(&zig, &format!("ziggurat on {what}"));
        let oracles: [(&str, Sampler<R>); 2] = [("Box–Muller", box_muller), ("polar", polar)];
        for (name, oracle) in oracles {
            let reference = draw(N, &mut R::seed_from_u64(12), oracle);
            assert_standard_normal(&reference, &format!("{name} on {what}"));
            let d = ks_statistic(zig.clone(), reference);
            assert!(
                d < critical,
                "ziggurat vs {name} on {what}: KS {d} ≥ {critical}"
            );
        }
    }

    #[test]
    fn ziggurat_matches_box_muller_and_polar_on_std_rng() {
        compare_with_oracles::<StdRng>("StdRng");
    }

    #[test]
    fn ziggurat_matches_box_muller_and_polar_on_small_rng() {
        compare_with_oracles::<SmallRng>("SmallRng");
    }

    #[test]
    fn tail_mass_beyond_the_base_layer_matches_the_normal() {
        // P(|Z| > 3.442619855899) = erfc(r/√2) = 5.761085e-4.
        const N: usize = 2_000_000;
        let expected = 5.761_085e-4 * N as f64;
        let mut rng = SmallRng::seed_from_u64(13);
        let beyond = (0..N).filter(|_| gaussian(&mut rng).abs() > ZIG_R).count() as f64;
        assert!(
            (beyond - expected).abs() < 5.0 * expected.sqrt(),
            "{beyond} draws beyond r, expected {expected}"
        );
    }

    #[test]
    fn ziggurat_layers_have_equal_area() {
        let zig = Ziggurat::get();
        let density = |x: f64| (-0.5 * x * x).exp();
        assert!((zig.x[0] * density(ZIG_R) - ZIG_V).abs() < 1e-15);
        // The published r and v carry 13 digits, so the top layer
        // closes to ~1e-9 relative.
        for i in 1..ZIG_LAYERS {
            let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
            assert!(
                (area - ZIG_V).abs() < 1e-8 * ZIG_V,
                "layer {i}: area {area}"
            );
            assert!(zig.x[i + 1] < zig.x[i], "layer {i}: edges must fall");
        }
        assert_eq!((zig.x[ZIG_LAYERS], zig.f[ZIG_LAYERS]), (0.0, 1.0));
    }
}
