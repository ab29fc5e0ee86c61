//! The passive PUF architecture of Fig. 2: a mesh that "separates the
//! initial light beam in several different paths and scrambles them
//! before the output. No active devices are present."
//!
//! [`ScramblerMesh`] is a layered network of 2×2 directional couplers,
//! process-random phase shifters and (optionally) microring resonators on
//! `channels` parallel waveguides. Light enters on channel 0, is fanned
//! out by the coupler layers, accumulates die-unique relative phases, and
//! is mixed in time by the rings. Every element's parameters are drawn
//! from the die's process variation, so the mesh *is* the physical
//! secret.
//!
//! The simulation is sample-synchronous: each sample advances the whole
//! mesh by one bit period. Every element factor that depends only on the
//! die and the environment (coupler `cos θ`/`sin θ`, phase-shifter and
//! segment phasors, ring feedback `a·e^{iφ}`) is evaluated once at the
//! start of [`ScramblerMesh::propagate`], so the per-sample loop does no
//! trig and no allocation. The elements stay the only source of truth:
//! aging edits them, and the next propagation recompiles.
//!
//! Between resets the mesh is linear and time-invariant: couplers,
//! phase shifters and segments multiply by constants, and a ring
//! (`Microring::recur`) is a linear recursion on its circulating field.
//! A propagation is therefore the convolution of the input with each
//! port's response to a unit impulse, `y_p[t] = Σ_k x[k]·h_p[t − k]`.
//! `neuropuls_puf::photonic::DeterministicReader` uses that: it
//! propagates one impulse per (die, environment) and answers noise-free
//! PUF reads from `h_p`. Stepping and convolving add the same terms in a
//! different order, so their outputs agree to floating-point rounding,
//! not bit for bit. The table stays per call here, and the impulse
//! response lives only as long as a reader, rather than being cached in
//! the mesh: a resident table per die would grow every fleet's memory
//! and would have to be invalidated on every aging step and
//! environment change.

use crate::complex::Complex64;
use crate::components::{Coupler, PhaseShifter, Waveguide};
use crate::environment::Environment;
use crate::process::DieSampler;
use crate::ring::Microring;

/// Construction parameters of a scrambler mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshSpec {
    /// Number of parallel waveguides (output ports). Must be ≥ 2.
    pub channels: usize,
    /// Number of coupler/phase layers.
    pub depth: usize,
    /// Fraction of channel-layer sites that carry a microring (0 = pure
    /// feed-forward interferometer, 1 = ring on every site).
    pub ring_density: f64,
    /// Nominal power cross-coupling of the rings.
    pub ring_kappa2: f64,
    /// Ring round-trip loss in dB.
    pub ring_loss_db: f64,
    /// Inter-layer waveguide length in µm (sets temperature
    /// sensitivity).
    pub segment_length_um: f64,
    /// Waveguide propagation loss in dB/cm.
    pub waveguide_loss_db_cm: f64,
}

impl MeshSpec {
    /// The reference NEUROPULS-like mesh: 8 ports, 8 layers, rings on
    /// three quarters of the sites — a microring-array PUF in the spirit
    /// of \[12\].
    pub fn reference() -> Self {
        MeshSpec {
            channels: 8,
            depth: 8,
            ring_density: 0.75,
            ring_kappa2: 0.45,
            ring_loss_db: 0.3,
            segment_length_um: 150.0,
            waveguide_loss_db_cm: 2.0,
        }
    }

    /// A shallow mesh without rings — the memory-less ablation used in
    /// the ML-attack experiment (E6).
    pub fn shallow_no_rings() -> Self {
        MeshSpec {
            channels: 4,
            depth: 2,
            ring_density: 0.0,
            ..Self::reference()
        }
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels < 2 {
            return Err(format!("channels must be >= 2, got {}", self.channels));
        }
        if self.depth == 0 {
            return Err("depth must be >= 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.ring_density) {
            return Err(format!(
                "ring_density must be in [0,1], got {}",
                self.ring_density
            ));
        }
        if !(self.ring_kappa2 > 0.0 && self.ring_kappa2 < 1.0) {
            return Err(format!(
                "ring_kappa2 must be in (0,1), got {}",
                self.ring_kappa2
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
struct Layer {
    /// Couplers pair channels (offset alternates per layer for full
    /// mixing).
    couplers: Vec<Coupler>,
    offset: usize,
    phases: Vec<PhaseShifter>,
    segments: Vec<Waveguide>,
    rings: Vec<Option<Microring>>,
}

/// The passive scrambling mesh (see module docs).
#[derive(Debug, Clone)]
pub struct ScramblerMesh {
    spec: MeshSpec,
    layers: Vec<Layer>,
}

/// One channel site of a layer with its environment-dependent factors
/// evaluated: phase-shifter phasor, segment amplitude and phasor, and the
/// ring's couplings and round-trip feedback.
#[derive(Debug, Clone, Copy)]
struct CompiledSite {
    phase: Complex64,
    amplitude: f64,
    segment: Complex64,
    ring: Option<CompiledRing>,
}

#[derive(Debug, Clone, Copy)]
struct CompiledRing {
    r: f64,
    k: f64,
    feedback: Complex64,
}

/// The mesh's coefficient table at one environment plus the stepping
/// state of one propagation. Each sample applies exactly the arithmetic
/// of the per-element `transfer`/`step` calls, in the same order, so the
/// output is bit-identical to stepping the elements directly.
struct CompiledMesh {
    /// `(cos θ, sin θ)` per coupler, layer by layer.
    couplers: Vec<(f64, f64)>,
    /// Coupler pairing offset per layer.
    offsets: Vec<usize>,
    /// `depth × channels` sites, layer-major.
    sites: Vec<CompiledSite>,
    /// Circulating field of each site's ring (unused where there is none).
    circulating: Vec<Complex64>,
    /// Field on every channel, updated in place layer by layer.
    fields: Vec<Complex64>,
}

impl CompiledMesh {
    /// Evaluates every element factor of `layers` at `env`, with the ring
    /// memory cleared (start of an interrogation).
    fn compile(layers: &[Layer], channels: usize, env: &Environment) -> Self {
        let mut couplers = Vec::with_capacity(layers.iter().map(|l| l.couplers.len()).sum());
        let mut sites = Vec::with_capacity(layers.len() * channels);
        for layer in layers {
            couplers.extend(layer.couplers.iter().map(Coupler::cos_sin));
            let channel_sites = layer.phases.iter().zip(&layer.segments).zip(&layer.rings);
            sites.extend(
                channel_sites.map(|((shifter, segment), ring)| CompiledSite {
                    phase: shifter.phasor(env),
                    amplitude: segment.amplitude,
                    segment: segment.phasor(env),
                    ring: ring.as_ref().map(|ring| CompiledRing {
                        r: ring.r,
                        k: ring.k,
                        feedback: ring.feedback(env),
                    }),
                }),
            );
        }
        CompiledMesh {
            couplers,
            offsets: layers.iter().map(|layer| layer.offset).collect(),
            circulating: vec![Complex64::ZERO; sites.len()],
            sites,
            fields: vec![Complex64::ZERO; channels],
        }
    }

    /// Advances the mesh one sample with `input` on channel 0 and every
    /// other input port dark; returns the field at every output port.
    fn step(&mut self, input: Complex64) -> &[Complex64] {
        let n = self.fields.len();
        self.fields.fill(Complex64::ZERO);
        self.fields[0] = input;
        let mut couplers = self.couplers.iter();
        let layers = self
            .offsets
            .iter()
            .zip(self.sites.chunks_exact(n))
            .zip(self.circulating.chunks_exact_mut(n));
        for ((&offset, sites), circulating) in layers {
            for (pair, &(c, s)) in couplers.by_ref().take((n - offset) / 2).enumerate() {
                let a = offset + 2 * pair;
                let (oa, ob) = Coupler::apply(c, s, self.fields[a], self.fields[a + 1]);
                self.fields[a] = oa;
                self.fields[a + 1] = ob;
            }
            let channels = self.fields.iter_mut().zip(sites).zip(circulating);
            for ((field, site), circ) in channels {
                let mut f = *field * site.phase;
                f = f.scale(site.amplitude) * site.segment;
                if let Some(ring) = site.ring {
                    f = Microring::recur(ring.r, ring.k, ring.feedback, circ, f);
                }
                *field = f;
            }
        }
        &self.fields
    }
}

impl ScramblerMesh {
    /// Builds the mesh for one die.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`MeshSpec::validate`].
    pub fn build(spec: MeshSpec, die: &mut DieSampler) -> Self {
        if let Err(msg) = spec.validate() {
            panic!("invalid mesh spec: {msg}");
        }
        let n = spec.channels;
        let mut layers = Vec::with_capacity(spec.depth);
        for layer_idx in 0..spec.depth {
            let offset = layer_idx % 2;
            let pairs = (n - offset) / 2;
            let couplers = (0..pairs).map(|_| Coupler::sampled_50_50(die)).collect();
            // Layout lengths differ component-to-component (routing is
            // never perfectly balanced), which is what makes temperature
            // act *differentially* on the interference pattern instead of
            // as a cancelling common-mode phase. The mismatch is small —
            // parallel routes in a layer are length-matched by the layout
            // tool to a few µm — so the common-mode phase (which factors
            // out of the interference) dwarfs the differential part, and
            // the ambient excursion degrades the pattern gradually instead
            // of scrambling it within a couple of kelvin.
            let phases = (0..n)
                .map(|_| {
                    let length = die.uniform(20.0, 40.0);
                    PhaseShifter::sampled(length, die)
                })
                .collect();
            let segments = (0..n)
                .map(|_| {
                    let length = spec.segment_length_um * die.uniform(0.97, 1.03);
                    Waveguide::sampled(length, spec.waveguide_loss_db_cm, die)
                })
                .collect();
            let rings = (0..n)
                .map(|_| {
                    // Deterministic per-site choice from the die stream.
                    let u = (die.raw_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    if u < spec.ring_density {
                        let circumference = die.uniform(40.0, 80.0);
                        Some(Microring::sampled(
                            spec.ring_kappa2,
                            spec.ring_loss_db,
                            circumference,
                            die,
                        ))
                    } else {
                        None
                    }
                })
                .collect();
            layers.push(Layer {
                couplers,
                offset,
                phases,
                segments,
                rings,
            });
        }
        ScramblerMesh { spec, layers }
    }

    /// The construction spec.
    pub fn spec(&self) -> &MeshSpec {
        &self.spec
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.spec.channels
    }

    /// Total number of microrings actually instantiated.
    pub fn ring_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.rings.iter().filter(|r| r.is_some()).count())
            .sum()
    }

    /// Propagates a full modulated waveform entering channel 0 (every
    /// other input port dark), returning per-port output waveforms
    /// (`ports × samples`). Resonator memory starts cleared, and `flush`
    /// extra dark samples are appended so resonator tails are captured.
    ///
    /// The mesh is compiled for `env` once per call (module docs), so the
    /// number of allocations does not grow with the waveform length.
    pub fn propagate(
        &self,
        waveform: &[Complex64],
        flush: usize,
        env: &Environment,
    ) -> Vec<Vec<Complex64>> {
        let total = waveform.len() + flush;
        let mut outputs: Vec<Vec<Complex64>> = (0..self.spec.channels)
            .map(|_| Vec::with_capacity(total))
            .collect();
        let mut compiled = CompiledMesh::compile(&self.layers, self.spec.channels, env);
        let dark = std::iter::repeat_n(Complex64::ZERO, flush);
        for sample in waveform.iter().copied().chain(dark) {
            for (port, &field) in outputs.iter_mut().zip(compiled.step(sample)) {
                port.push(field);
            }
        }
        outputs
    }

    /// Ages the mesh by `years`: every phase-carrying element picks up
    /// a random-walk drift with σ = `sigma_rad_per_sqrt_year`·√years
    /// (oxide charge trapping and slow stress relaxation — §V asks the
    /// simulator to cover "the effects of aging"). Couplers and losses
    /// age much more slowly and are left untouched.
    pub fn apply_aging<R: neuropuls_rt::Rng>(
        &mut self,
        years: f64,
        sigma_rad_per_sqrt_year: f64,
        rng: &mut R,
    ) {
        use crate::laser::gaussian;
        let sigma = sigma_rad_per_sqrt_year * years.max(0.0).sqrt();
        for layer in &mut self.layers {
            for ps in &mut layer.phases {
                ps.phase += sigma * gaussian(rng);
            }
            for wg in &mut layer.segments {
                wg.phase += sigma * gaussian(rng);
            }
            for ring in layer.rings.iter_mut().flatten() {
                ring.phi += sigma * gaussian(rng);
            }
        }
    }

    /// Per-port total output energy for a waveform (convenience for
    /// tests and enrollment).
    pub fn port_energies(
        &self,
        waveform: &[Complex64],
        flush: usize,
        env: &Environment,
    ) -> Vec<f64> {
        self.propagate(waveform, flush, env)
            .into_iter()
            .map(|w| w.iter().map(|s| s.norm_sqr()).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{DieId, ProcessVariation};
    use neuropuls_rt::rngs::StdRng;
    use neuropuls_rt::{Rng, SeedableRng};

    /// The per-element stepper the compiled path replaced, kept as its
    /// oracle: every sample re-evaluates each element's trig through
    /// `transfer`/`step` and allocates a fresh field vector.
    fn reference_step(
        mesh: &mut ScramblerMesh,
        input: Complex64,
        env: &Environment,
    ) -> Vec<Complex64> {
        let n = mesh.spec.channels;
        let mut fields = vec![Complex64::ZERO; n];
        let mut scratch = vec![Complex64::ZERO; n];
        fields[0] = input;
        for layer in &mut mesh.layers {
            for (pair_idx, coupler) in layer.couplers.iter().enumerate() {
                let a = layer.offset + 2 * pair_idx;
                let b = a + 1;
                let (oa, ob) = coupler.transfer(fields[a], fields[b]);
                fields[a] = oa;
                fields[b] = ob;
            }
            for ch in 0..n {
                let mut f = layer.phases[ch].transfer(fields[ch], env);
                f = layer.segments[ch].transfer(f, env);
                if let Some(ring) = layer.rings[ch].as_mut() {
                    f = ring.step(f, env);
                }
                scratch[ch] = f;
            }
            fields.copy_from_slice(&scratch);
        }
        fields
    }

    /// [`ScramblerMesh::propagate`] on the reference stepper.
    fn reference_propagate(
        mesh: &mut ScramblerMesh,
        waveform: &[Complex64],
        flush: usize,
        env: &Environment,
    ) -> Vec<Vec<Complex64>> {
        for ring in mesh
            .layers
            .iter_mut()
            .flat_map(|l| l.rings.iter_mut().flatten())
        {
            ring.reset();
        }
        let mut outputs = vec![Vec::new(); mesh.spec.channels];
        for idx in 0..waveform.len() + flush {
            let sample = waveform.get(idx).copied().unwrap_or(Complex64::ZERO);
            for (port, field) in reference_step(mesh, sample, env).into_iter().enumerate() {
                outputs[port].push(field);
            }
        }
        outputs
    }

    /// Bitwise equality of two port × time field sets (distinguishes
    /// `-0.0` from `0.0`, unlike `==`).
    fn assert_bit_identical(compiled: &[Vec<Complex64>], reference: &[Vec<Complex64>], what: &str) {
        assert_eq!(compiled.len(), reference.len(), "{what}: port count");
        for (port, (c, r)) in compiled.iter().zip(reference).enumerate() {
            assert_eq!(c.len(), r.len(), "{what}: port {port} length");
            for (t, (x, y)) in c.iter().zip(r).enumerate() {
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "{what}: port {port} sample {t}: compiled {x} vs reference {y}"
                );
            }
        }
    }

    /// A BPSK burst as the PUF's modulator emits it: `carrier·(±1)`.
    fn bpsk_burst(bits: usize, rng: &mut StdRng) -> Vec<Complex64> {
        let carrier = Complex64::from_polar(
            rng.gen_range(0.5..1.5),
            rng.gen_range(0.0..std::f64::consts::TAU),
        );
        (0..bits)
            .map(|_| carrier.scale(if rng.gen::<bool>() { 1.0 } else { -1.0 }))
            .collect()
    }

    fn mesh(die_id: u64) -> ScramblerMesh {
        let mut die = DieSampler::new(DieId(die_id), ProcessVariation::typical_soi());
        ScramblerMesh::build(MeshSpec::reference(), &mut die)
    }

    fn impulse() -> Vec<Complex64> {
        let mut w = vec![Complex64::ZERO; 16];
        w[0] = Complex64::ONE;
        w
    }

    #[test]
    fn mesh_is_passive() {
        let m = mesh(1);
        let energies = m.port_energies(&impulse(), 64, &Environment::nominal());
        let total: f64 = energies.iter().sum();
        assert!(total <= 1.0 + 1e-9, "output energy {total} exceeds input");
        assert!(total > 0.3, "output energy {total} suspiciously low");
    }

    #[test]
    fn light_reaches_every_port() {
        let m = mesh(2);
        let energies = m.port_energies(&impulse(), 64, &Environment::nominal());
        for (port, e) in energies.iter().enumerate() {
            assert!(*e > 1e-6, "port {port} is dark ({e})");
        }
    }

    #[test]
    fn same_die_is_reproducible() {
        let a = mesh(3);
        let b = mesh(3);
        let ea = a.port_energies(&impulse(), 32, &Environment::nominal());
        let eb = b.port_energies(&impulse(), 32, &Environment::nominal());
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_dies_scramble_differently() {
        let a = mesh(4);
        let b = mesh(5);
        let ea = a.port_energies(&impulse(), 32, &Environment::nominal());
        let eb = b.port_energies(&impulse(), 32, &Environment::nominal());
        let diff: f64 = ea.iter().zip(&eb).map(|(x, y)| (x - y).abs()).sum::<f64>();
        assert!(diff > 1e-3, "dies too similar: {diff}");
    }

    #[test]
    fn rings_create_temporal_memory() {
        // Two waveforms that agree on the *last* bit but differ earlier
        // must give different output tails — past bits interact with
        // present ones (§II-A).
        let m = mesh(6);
        let env = Environment::nominal();
        let w1: Vec<Complex64> = [1.0, 0.0, 1.0, 1.0]
            .iter()
            .map(|&v| Complex64::new(v, 0.0))
            .collect();
        let w2: Vec<Complex64> = [0.0, 1.0, 0.0, 1.0]
            .iter()
            .map(|&v| Complex64::new(v, 0.0))
            .collect();
        let o1 = m.propagate(&w1, 4, &env);
        let o2 = m.propagate(&w2, 4, &env);
        // Compare the final sample (bit 3 plus tail) on port 0.
        let last1 = o1[0].last().unwrap().norm_sqr();
        let last2 = o2[0].last().unwrap().norm_sqr();
        assert!(
            (last1 - last2).abs() > 1e-12,
            "mesh output shows no memory of earlier bits"
        );
    }

    #[test]
    fn no_ring_mesh_has_no_memory_tail() {
        let mut die = DieSampler::new(DieId(7), ProcessVariation::typical_soi());
        let m = ScramblerMesh::build(MeshSpec::shallow_no_rings(), &mut die);
        assert_eq!(m.ring_count(), 0);
        let outputs = m.propagate(&impulse(), 8, &Environment::nominal());
        // After the impulse has passed, all ports must be dark.
        for port in &outputs {
            for sample in &port[1..] {
                assert!(
                    sample.norm_sqr() < 1e-20,
                    "feed-forward mesh leaked energy in time"
                );
            }
        }
    }

    #[test]
    fn temperature_changes_the_output_pattern() {
        let m = mesh(8);
        let cold = m.port_energies(&impulse(), 32, &Environment::at_temperature(25.0));
        let hot = m.port_energies(&impulse(), 32, &Environment::at_temperature(45.0));
        let diff: f64 = cold.iter().zip(&hot).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "temperature had no effect");
    }

    #[test]
    fn compiled_propagation_is_bit_identical_to_the_reference_stepper() {
        // 10⁴ (die, challenge) pairs on the reference PUF mesh at the
        // PUF's burst shape: 64 challenge bits plus a 32-sample flush.
        let env = Environment::nominal();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for die in 0..100 {
            let compiled = mesh(1000 + die);
            let mut reference = compiled.clone();
            for challenge in 0..100 {
                let burst = bpsk_burst(64, &mut rng);
                assert_bit_identical(
                    &compiled.propagate(&burst, 32, &env),
                    &reference_propagate(&mut reference, &burst, 32, &env),
                    &format!("die {die} challenge {challenge}"),
                );
            }
        }
    }

    #[test]
    fn compiled_propagation_tracks_environment_aging_and_detuning() {
        // Ring-free, odd-width and all-ring meshes, fresh, aged and
        // detuned, each at three temperatures.
        let mut rng = StdRng::seed_from_u64(7);
        let odd = MeshSpec {
            channels: 5,
            depth: 3,
            ring_density: 1.0,
            ..MeshSpec::reference()
        };
        let specs = [MeshSpec::reference(), MeshSpec::shallow_no_rings(), odd];
        let envs = [
            Environment::nominal(),
            Environment::at_temperature(-20.0),
            Environment::at_temperature(85.0),
        ];
        for (i, spec) in specs.into_iter().enumerate() {
            let mut die = DieSampler::new(DieId(40 + i as u64), ProcessVariation::typical_soi());
            let mut compiled = ScramblerMesh::build(spec, &mut die);
            for step in 0..6 {
                match step {
                    2 => compiled.apply_aging(4.0, 0.05, &mut rng),
                    4 => {
                        // A wavelength offset: each ring's round-trip
                        // phase shifts in proportion to its length.
                        for layer in &mut compiled.layers {
                            for ring in layer.rings.iter_mut().flatten() {
                                ring.phi -= 0.01 * ring.circumference_um;
                            }
                        }
                    }
                    _ => {}
                }
                let mut reference = compiled.clone();
                for env in &envs {
                    let burst = bpsk_burst(1 + step * 7, &mut rng);
                    assert_bit_identical(
                        &compiled.propagate(&burst, step, env),
                        &reference_propagate(&mut reference, &burst, step, env),
                        &format!("spec {i} step {step} at {} °C", env.temperature_c),
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid mesh spec")]
    fn build_rejects_invalid_spec() {
        let mut die = DieSampler::new(DieId(9), ProcessVariation::typical_soi());
        let spec = MeshSpec {
            channels: 1,
            ..MeshSpec::reference()
        };
        let _ = ScramblerMesh::build(spec, &mut die);
    }

    #[test]
    fn ring_density_controls_ring_count() {
        let mut die_a = DieSampler::new(DieId(10), ProcessVariation::typical_soi());
        let dense = ScramblerMesh::build(
            MeshSpec {
                ring_density: 1.0,
                ..MeshSpec::reference()
            },
            &mut die_a,
        );
        assert_eq!(dense.ring_count(), 8 * 8);
        let mut die_b = DieSampler::new(DieId(10), ProcessVariation::typical_soi());
        let sparse = ScramblerMesh::build(
            MeshSpec {
                ring_density: 0.0,
                ..MeshSpec::reference()
            },
            &mut die_b,
        );
        assert_eq!(sparse.ring_count(), 0);
    }
}
