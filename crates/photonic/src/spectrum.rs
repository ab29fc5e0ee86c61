//! Spectral characterization: wavelength scans of rings and meshes.
//!
//! Real microring-array PUFs (the \[12\] demonstrator) are characterized
//! by sweeping the laser wavelength and recording per-port transmission
//! spectra — the resonance comb is the die's optical fingerprint. The
//! simulation is single-carrier, but a wavelength offset Δλ maps to an
//! extra round-trip phase per ring, Δφ = 2π·n_g·L·Δλ/λ², so a scan is a
//! sweep of that added phase.

use crate::circuit::ScramblerMesh;
use crate::complex::Complex64;
use crate::environment::Environment;
use crate::ring::Microring;

/// Group index used for the Δλ → Δφ mapping (silicon wire waveguide).
pub const GROUP_INDEX: f64 = 4.2;
/// Carrier wavelength in nm.
pub const LAMBDA_NM: f64 = 1550.0;

/// Extra round-trip phase of a ring of `circumference_um` at wavelength
/// offset `delta_lambda_nm` from the carrier.
pub fn detuning_phase(circumference_um: f64, delta_lambda_nm: f64) -> f64 {
    // Δφ = -2π n_g L Δλ / λ²  (sign: longer λ → smaller phase).
    -2.0 * std::f64::consts::PI * GROUP_INDEX * (circumference_um * 1000.0) * delta_lambda_nm
        / (LAMBDA_NM * LAMBDA_NM)
}

/// Free spectral range of a ring in nm.
pub fn free_spectral_range_nm(circumference_um: f64) -> f64 {
    LAMBDA_NM * LAMBDA_NM / (GROUP_INDEX * circumference_um * 1000.0)
}

/// One point of a transmission spectrum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectrumPoint {
    /// Wavelength offset from the carrier, nm.
    pub delta_lambda_nm: f64,
    /// Power transmission (linear).
    pub transmission: f64,
}

/// Scans a single all-pass ring over `[-span/2, span/2]` nm with `steps`
/// points, at CW steady state.
pub fn ring_spectrum(
    ring: &Microring,
    span_nm: f64,
    steps: usize,
    env: &Environment,
) -> Vec<SpectrumPoint> {
    (0..steps)
        .map(|i| {
            let delta = -span_nm / 2.0 + span_nm * i as f64 / (steps - 1).max(1) as f64;
            let mut shifted = ring.clone();
            shifted.phi += detuning_phase(ring.circumference_um, delta);
            SpectrumPoint {
                delta_lambda_nm: delta,
                transmission: shifted.cw_response(env).norm_sqr(),
            }
        })
        .collect()
}

/// Per-port CW spectra of a whole mesh: for each wavelength offset the
/// mesh is driven with a long CW burst and per-port steady-state power
/// is recorded. Ring detunings scale with their individual
/// circumferences (larger rings shift faster), which is what decorrelates
/// the ports' combs.
pub fn mesh_spectra(
    mesh: &ScramblerMesh,
    span_nm: f64,
    steps: usize,
    env: &Environment,
) -> Vec<Vec<SpectrumPoint>> {
    let ports = mesh.ports();
    let mut spectra = vec![Vec::with_capacity(steps); ports];
    // Long enough for every ring to settle to steady state.
    let cw = [Complex64::ONE; 256];
    for i in 0..steps {
        let delta = -span_nm / 2.0 + span_nm * i as f64 / (steps - 1).max(1) as f64;
        let outputs = mesh.clone_detuned(delta).propagate(&cw, 0, env);
        // Read the instantaneous port powers at the end of the burst.
        for (spectrum, port) in spectra.iter_mut().zip(&outputs) {
            let last = port.last().copied().unwrap_or(Complex64::ZERO);
            spectrum.push(SpectrumPoint {
                delta_lambda_nm: delta,
                transmission: last.norm_sqr(),
            });
        }
    }
    spectra
}

/// Fingerprint distance between two port spectra: normalized RMS
/// difference of transmission (0 = identical combs).
pub fn spectrum_distance(a: &[SpectrumPoint], b: &[SpectrumPoint]) -> f64 {
    assert_eq!(a.len(), b.len(), "spectrum lengths differ");
    let n = a.len().max(1) as f64;
    (a.iter()
        .zip(b)
        .map(|(x, y)| (x.transmission - y.transmission).powi(2))
        .sum::<f64>()
        / n)
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::MeshSpec;
    use crate::process::{DieId, DieSampler, ProcessVariation};

    fn test_ring() -> Microring {
        let mut die = DieSampler::new(DieId(5), ProcessVariation::typical_soi());
        Microring::sampled(0.1, 0.8, 60.0, &mut die)
    }

    #[test]
    fn ring_spectrum_shows_a_resonance_dip() {
        let ring = test_ring();
        let fsr = free_spectral_range_nm(60.0);
        let spectrum = ring_spectrum(&ring, fsr, 400, &Environment::nominal());
        let min = spectrum
            .iter()
            .map(|p| p.transmission)
            .fold(f64::INFINITY, f64::min);
        let max = spectrum
            .iter()
            .map(|p| p.transmission)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max > 0.9, "off-resonance transmission {max}");
        assert!(min < 0.6, "no resonance dip found (min {min})");
    }

    #[test]
    fn spectrum_repeats_at_the_fsr() {
        let ring = test_ring();
        let fsr = free_spectral_range_nm(60.0);
        let env = Environment::nominal();
        let a = ring_spectrum(&ring, 0.01, 3, &env);
        // Shift the whole scan by one FSR: same transmission.
        let mut shifted = ring.clone();
        shifted.phi += detuning_phase(60.0, fsr);
        let b = ring_spectrum(&shifted, 0.01, 3, &env);
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (x.transmission - y.transmission).abs() < 1e-6,
                "FSR periodicity violated"
            );
        }
    }

    #[test]
    fn fsr_magnitude_is_realistic() {
        // 60 µm ring, n_g 4.2 → FSR ≈ 9.5 nm.
        let fsr = free_spectral_range_nm(60.0);
        assert!((8.0..11.0).contains(&fsr), "FSR {fsr} nm");
    }

    #[test]
    fn mesh_spectra_fingerprint_distinguishes_dies() {
        let build = |die: u64| {
            let mut sampler = DieSampler::new(DieId(die), ProcessVariation::typical_soi());
            ScramblerMesh::build(MeshSpec::reference(), &mut sampler)
        };
        let env = Environment::nominal();
        let a = mesh_spectra(&build(1), 2.0, 16, &env);
        let b = mesh_spectra(&build(1), 2.0, 16, &env);
        let c = mesh_spectra(&build(2), 2.0, 16, &env);
        let same = spectrum_distance(&a[0], &b[0]);
        let different = spectrum_distance(&a[0], &c[0]);
        assert!(same < 1e-12, "same die spectra differ: {same}");
        assert!(different > 1e-3, "dies indistinguishable: {different}");
    }
}
