//! The photonic strong PUF (pPUF) of Fig. 2.
//!
//! Evaluation pipeline, mirroring the paper's schematic end to end:
//!
//! 1. a telecom laser emits a CW carrier (with RIN and a random optical
//!    phase per interrogation);
//! 2. the ASIC drives a 25 Gb/s Mach–Zehnder modulator with the challenge
//!    bit string;
//! 3. the modulated burst traverses the passive scrambler mesh (couplers,
//!    process-random phases, microrings with temporal memory);
//! 4. a photodiode array detects the per-port intensity (square-law — the
//!    nonlinearity), TIAs amplify and ADCs quantize;
//! 5. the ASIC derives response bits by *comparing* photocurrent samples
//!    at a public, fixed set of (port, time) pairs, which cancels
//!    common-mode laser power and leaves only the die-unique interference
//!    pattern.
//!
//! The comparison margins are also exposed ([`PhotonicPuf::respond_with_margins`]):
//! they are the "threshold dependent on the amplitude of the photocurrent
//! read at the PD" that §II-B adapts the Vinagrero filtering method to.
//!
//! # Noisy reads
//!
//! The modulator multiplies the carrier by a fixed symbol per bit and
//! the mesh is linear, so a read's fields are the unit-carrier fields
//! times that read's noisy carrier (RIN and a random optical phase).
//! A read propagates the burst on a unit carrier, then scales each
//! field by its carrier on the way into the receive chain. The
//! [`Puf::respond_golden`] majority vote propagates once and runs its
//! reads over the same fields; each read draws the same noise and does
//! the same arithmetic as a single [`Puf::respond`], so the vote is bit
//! for bit the majority of that many separate reads.
//!
//! # Noise-free reads
//!
//! The §III-B attestation walk chains one noise-free read per memory
//! chunk ([`PhotonicPuf::respond_deterministic`]). Such a read has a
//! fixed carrier, and up to the photodiode everything is linear and
//! time-invariant: the mesh (`neuropuls_photonic::circuit`) and the
//! modulator, whose two output levels `x₀`/`x₁` (bit 0/1) are the carrier
//! times a fixed symbol. So port `p` sees
//!
//! ```text
//! y_p[t] = x₀·A_p[t] + (x₁ − x₀)·Σ_{k: b_k = 1} h_p[t − k]
//! ```
//!
//! where `h_p` is the port's response to a unit impulse and `A_p[t]` the
//! sum of `h_p` over the window of lags the challenge covers at `t`.
//! [`DeterministicReader`] propagates the impulse once, keeps
//! `x₀·A_p` and `(x₁ − x₀)·h_p`, and answers each read with plain adds
//! over the set challenge bits; detection, AC coupling and the XOR fold
//! are the ones a stepped read uses. The sums run in another order than
//! stepping the mesh sample by sample, so photocurrents agree to
//! rounding (≲1e-12 relative), not bit for bit. A response bit could
//! only differ where a comparison margin is within that rounding of
//! zero; the tests compare response bits against the stepped read on
//! 10⁴ (die, challenge) pairs and find none.
//!
//! The reader borrows the PUF and lives for one walk. It is not cached
//! inside the PUF: a resident table per die costs ~12 KiB × every PUF a
//! fleet holds, and a cache would need invalidating on
//! [`PhotonicPuf::age`] and every environment change. While a reader is
//! alive the borrow forbids both, so it can never be stale.

use crate::bits::{Challenge, Response};
use crate::traits::{Puf, PufError, PufKind};
use neuropuls_photonic::circuit::{MeshSpec, ScramblerMesh};
use neuropuls_photonic::complex::Complex64;
use neuropuls_photonic::detector::ReceiveChain;
use neuropuls_photonic::laser::Laser;
use neuropuls_photonic::modulator::MachZehnderModulator;
use neuropuls_photonic::process::{DieId, DieSampler, ProcessVariation};
use neuropuls_photonic::Environment;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::SeedableRng;
use std::sync::{Arc, Mutex, PoisonError};

/// Construction parameters of a photonic PUF instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhotonicPufConfig {
    /// The passive architecture.
    pub mesh: MeshSpec,
    /// Challenge length in bits (the modulated burst).
    pub challenge_bits: usize,
    /// Response length in bits.
    pub response_bits: usize,
    /// Dark samples appended after the burst so ring tails are captured.
    pub flush_samples: usize,
    /// Fixed electronics overhead added to the optical latency (ns).
    pub electronics_latency_ns: f64,
}

impl PhotonicPufConfig {
    /// The reference 64-in/64-out configuration used across the
    /// experiments.
    pub fn reference() -> Self {
        PhotonicPufConfig {
            mesh: MeshSpec::reference(),
            challenge_bits: 64,
            response_bits: 64,
            flush_samples: 32,
            electronics_latency_ns: 2.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.mesh.validate()?;
        if self.challenge_bits == 0 || self.response_bits == 0 {
            return Err("challenge/response widths must be positive".into());
        }
        Ok(())
    }
}

/// One comparison site: response bit k is `1` when the ADC code at `a`
/// exceeds the code at `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ComparePair {
    a: (usize, usize), // (port, time)
    b: (usize, usize),
}

/// The photonic strong PUF.
#[derive(Debug, Clone)]
pub struct PhotonicPuf {
    die: DieId,
    config: PhotonicPufConfig,
    laser: Laser,
    modulator: MachZehnderModulator,
    mesh: ScramblerMesh,
    chains: Vec<ReceiveChain>,
    /// Shared by every PUF of the same configuration ([`Self::shared_plan`]).
    pairs: Arc<[ComparePair]>,
    env: Environment,
    rng: StdRng,
    /// Noisy interrogations performed ([`Self::respond_with_margins`]
    /// completions).
    evaluations: u64,
    /// Mixed into the aging RNG seed and advanced on every [`Self::age_with_rate`]
    /// call, so successive aging steps draw *independent* random-walk
    /// increments (reusing one seed would replay the same drift vector
    /// each step, turning the walk into a directional ramp).
    aging_epoch: u64,
}

impl PhotonicPuf {
    /// "Fabricates" the PUF for `die` under the given process corner.
    /// `noise_seed` seeds the measurement-noise stream (reseed to model
    /// independent interrogation campaigns on the same physical chip).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn fabricate(
        die: DieId,
        config: PhotonicPufConfig,
        variation: ProcessVariation,
        noise_seed: u64,
    ) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid photonic PUF config: {msg}");
        }
        let mut sampler = DieSampler::new(die, variation);
        let modulator = MachZehnderModulator::sampled(&mut sampler);
        let mesh = ScramblerMesh::build(config.mesh, &mut sampler);
        let chains = vec![ReceiveChain::new(); config.mesh.channels];
        let pairs = Self::shared_plan(&config);
        PhotonicPuf {
            die,
            config,
            laser: Laser::new(),
            modulator,
            mesh,
            chains,
            pairs,
            env: Environment::nominal(),
            rng: StdRng::seed_from_u64(noise_seed ^ die.0.rotate_left(17)),
            evaluations: 0,
            aging_epoch: 0,
        }
    }

    /// Reference-configuration constructor.
    pub fn reference(die: DieId, noise_seed: u64) -> Self {
        Self::fabricate(
            die,
            PhotonicPufConfig::reference(),
            ProcessVariation::typical_soi(),
            noise_seed,
        )
    }

    /// The die this instance was fabricated as.
    pub fn die(&self) -> DieId {
        self.die
    }

    /// The configuration.
    pub fn config(&self) -> &PhotonicPufConfig {
        &self.config
    }

    /// The comparison plan of `config`, built on first use and shared by
    /// every PUF fabricated with that configuration: a fleet would
    /// otherwise hold one identical ~4 KiB copy per die.
    fn shared_plan(config: &PhotonicPufConfig) -> Arc<[ComparePair]> {
        type Key = (usize, usize, usize, usize);
        static PLANS: Mutex<Vec<(Key, Arc<[ComparePair]>)>> = Mutex::new(Vec::new());
        let key = (
            config.mesh.channels,
            config.challenge_bits,
            config.flush_samples,
            config.response_bits,
        );
        // Each update is one push of a finished entry, so the list is
        // valid even if a panic poisoned the lock.
        let mut plans = PLANS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, plan)) = plans.iter().find(|(k, _)| *k == key) {
            return Arc::clone(plan);
        }
        let plan: Arc<[ComparePair]> = Self::comparison_plan(config).into();
        plans.push((key, Arc::clone(&plan)));
        plan
    }

    /// The comparison plan is *public* (part of the device datasheet):
    /// deterministic from the configuration only, identical for every
    /// die. Security rests in the physical mesh, not in the plan.
    fn comparison_plan(config: &PhotonicPufConfig) -> Vec<ComparePair> {
        let ports = config.mesh.channels;
        let samples = config.challenge_bits + config.flush_samples;
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = state
                .wrapping_mul(0xD129_0298_5E2F_8735)
                .wrapping_add(0x91E1_0DA5_C79E_7B1D);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            z
        };
        // Two comparison sites per response bit: the bit is the XOR of
        // the two comparisons. XOR-folding squares away the per-site,
        // per-die bias (each site's bias ε becomes ε² after folding),
        // which is what lets concatenated responses pass the NIST
        // frequency tests (experiment E2).
        let mut pairs = Vec::with_capacity(config.response_bits * 2);
        while pairs.len() < config.response_bits * 2 {
            // Compare two *ports at the same instant*: the differential
            // port pattern is set by the die's interference (common-mode
            // modulation amplitude cancels), which is what carries the
            // physical secret. Cross-time comparisons would instead be
            // dominated by the challenge's own 1/0 energy pattern — the
            // same on every die. Skip sample 0 (light not yet through)
            // and cap times shortly after the burst: deep into the flush
            // the resonator tails decay below one ADC LSB and every
            // comparison would tie at dark level — a dead, die-
            // independent bit.
            let lit = (config.challenge_bits + 8).min(samples);
            let t = 1 + (next() % (lit as u64 - 1)) as usize;
            let pa = (next() % ports as u64) as usize;
            let pb = (next() % ports as u64) as usize;
            if pa != pb {
                pairs.push(ComparePair {
                    a: (pa, t),
                    b: (pb, t),
                });
            }
        }
        pairs
    }

    /// Rejects a challenge whose width is not the configured one.
    fn check_width(&self, challenge: &Challenge) -> Result<(), PufError> {
        if challenge.len() == self.config.challenge_bits {
            Ok(())
        } else {
            Err(PufError::ChallengeLength {
                expected: self.config.challenge_bits,
                actual: challenge.len(),
            })
        }
    }

    /// Full interrogation returning response bits *and* the analog
    /// comparison margins in ADC codes (positive = confident 1, negative
    /// = confident 0). The margins feed the photocurrent-threshold
    /// filtering of §II-B.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::ChallengeLength`] on challenge width mismatch.
    pub fn respond_with_margins(
        &mut self,
        challenge: &Challenge,
    ) -> Result<(Response, Vec<f64>), PufError> {
        self.check_width(challenge)?;
        let fields = self.unit_carrier_fields(challenge);
        Ok(self.noisy_read(&fields))
    }

    /// The mesh output of `challenge`'s burst on a unit carrier. The
    /// modulator and the mesh are linear in the carrier, so a read's
    /// fields are these times its noisy carrier (module docs, "Noisy
    /// reads").
    fn unit_carrier_fields(&self, challenge: &Challenge) -> Vec<Vec<Complex64>> {
        let waveform = self
            .modulator
            .modulate(Complex64::ONE, challenge.bits(), &self.env);
        self.mesh
            .propagate(&waveform, self.config.flush_samples, &self.env)
    }

    /// One noisy interrogation of the unit-carrier `fields`: a noisy
    /// carrier, then every port's receive chain in port order, AC
    /// coupling and the XOR fold. Returns the bits and the margins.
    fn noisy_read(&mut self, fields: &[Vec<Complex64>]) -> (Response, Vec<f64>) {
        let carrier = self.laser.noisy_carrier(&self.env, &mut self.rng);
        let codes: Vec<Vec<u32>> = fields
            .iter()
            .zip(&mut self.chains)
            .map(|(port, chain)| {
                chain.reset();
                port.iter()
                    .map(|&f| chain.sample(carrier * f, &self.env, &mut self.rng))
                    .collect()
            })
            .collect();
        self.evaluations += 1;
        // AC-couple each port (subtract its burst mean) before the
        // differential comparison. DC blocking is standard in high-speed
        // receivers, and it is security-critical here: without it the
        // comparison is dominated by the die-fixed splitting pedestal,
        // making response bits nearly challenge-independent (and thus
        // trivially predictable by a modeling attacker).
        let means: Vec<f64> = codes
            .iter()
            .map(|port| port.iter().map(|&c| c as f64).sum::<f64>() / port.len() as f64)
            .collect();
        let mut bits = Vec::with_capacity(self.config.response_bits);
        let mut margins = Vec::with_capacity(self.config.response_bits);
        for (d0, d1) in site_diffs(&self.pairs, |(p, t)| codes[p][t] as f64 - means[p]) {
            let bit = fold(d0, d1);
            bits.push(bit);
            // The folded bit flips when the *weaker* comparison flips:
            // report the min magnitude, signed by the bit value, so
            // "positive margin ⟺ bit 1" still holds for the filtering
            // layer.
            let magnitude = d0.abs().min(d1.abs());
            margins.push(if bit == 1 { magnitude } else { -magnitude });
        }
        (Response::from_bits(bits), margins)
    }

    /// Noisy interrogations performed so far (successful
    /// [`Self::respond_with_margins`] calls; noise-free evaluations are
    /// not counted).
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Noise-free deterministic evaluation — the "ideally reliable
    /// strong PUF" abstraction the attestation protocol of §III-B
    /// assumes on both the Device and (as a model) the Verifier. Uses
    /// the ideal photodiode response and a fixed carrier, so the same
    /// die always returns the identical response. A reader of one read
    /// ([`Self::deterministic_reader`]); chained reads should share one
    /// reader.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::ChallengeLength`] on challenge width
    /// mismatch.
    pub fn respond_deterministic(&self, challenge: &Challenge) -> Result<Response, PufError> {
        self.deterministic_reader().respond(challenge)
    }

    /// A noise-free reader at the current environment and mesh state: one
    /// impulse propagation up front, then each
    /// [`DeterministicReader::respond`] is adds over the set challenge
    /// bits (module docs, "Noise-free reads").
    pub fn deterministic_reader(&self) -> DeterministicReader<'_> {
        let challenge_bits = self.config.challenge_bits;
        let samples = challenge_bits + self.config.flush_samples;
        let carrier = self.laser.carrier(&self.env);
        let levels = self.modulator.modulate(carrier, &[0, 1], &self.env);
        let (x0, dx) = (levels[0], levels[1] - levels[0]);
        let mut lag = self
            .mesh
            .propagate(&[Complex64::ONE], samples - 1, &self.env);
        let mut base = Vec::with_capacity(lag.len());
        for h in &mut lag {
            // A_p[t] = Σ h_p[j] over the lags t−k of challenge bits k:
            // j ∈ (t − challenge_bits, t], kept as a running sum.
            let mut window = Complex64::ZERO;
            let mut port = Vec::with_capacity(samples);
            for (t, &tap) in h.iter().enumerate() {
                window += tap;
                if t >= challenge_bits {
                    window = window - h[t - challenge_bits];
                }
                port.push(x0 * window);
            }
            base.push(port);
            for tap in h.iter_mut() {
                *tap = dx * *tap;
            }
        }
        DeterministicReader {
            puf: self,
            currents: vec![0.0; base.len() * samples],
            means: vec![0.0; base.len()],
            base,
            lag,
            field: vec![Complex64::ZERO; samples],
        }
    }

    /// Ages the device by `years` of field deployment: phase elements
    /// drift as a random walk. The default drift rate (0.005 rad/√year)
    /// models a well-passivated SOI process — slow enough that a yearly
    /// re-enrollment keeps single-read reliability high, while the
    /// against-day-0 reliability decays visibly over a deployment
    /// lifetime; experiment E15 sweeps it.
    pub fn age(&mut self, years: f64) {
        self.age_with_rate(years, 0.005);
    }

    /// Ages with an explicit drift rate (rad per √year).
    ///
    /// Each call draws a fresh, independent set of drift increments:
    /// deterministic for a given die and call sequence, but never
    /// repeating across calls. Aging in N one-year steps therefore
    /// accumulates as a true random walk (σ·√N), matching a single
    /// N-year call in distribution.
    pub fn age_with_rate(&mut self, years: f64, sigma_rad_per_sqrt_year: f64) {
        self.aging_epoch = self.aging_epoch.wrapping_add(1);
        let mut aging_rng = StdRng::seed_from_u64(
            self.die.0
                ^ self.aging_epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ years.to_bits().rotate_left(13),
        );
        self.mesh
            .apply_aging(years, sigma_rad_per_sqrt_year, &mut aging_rng);
    }

    /// Duration for which the response physically exists inside the PIC
    /// (§IV: "below 100 ns").
    pub fn response_window_ns(&self) -> f64 {
        self.modulator
            .burst_duration_ns(self.config.challenge_bits + self.config.flush_samples)
    }
}

impl Puf for PhotonicPuf {
    fn challenge_bits(&self) -> usize {
        self.config.challenge_bits
    }

    fn response_bits(&self) -> usize {
        self.config.response_bits
    }

    fn kind(&self) -> PufKind {
        PufKind::Strong
    }

    fn respond(&mut self, challenge: &Challenge) -> Result<Response, PufError> {
        self.respond_with_margins(challenge).map(|(r, _)| r)
    }

    /// One mesh propagation for all `reads` noisy reads: bit for bit the
    /// majority of `reads` [`Puf::respond`] calls, since each read draws
    /// the same noise and does the same arithmetic over the same
    /// unit-carrier fields.
    fn respond_golden(
        &mut self,
        challenge: &Challenge,
        reads: usize,
    ) -> Result<Response, PufError> {
        assert!(reads > 0, "golden response needs at least one read");
        self.check_width(challenge)?;
        let fields = self.unit_carrier_fields(challenge);
        let readings: Vec<Response> = (0..reads).map(|_| self.noisy_read(&fields).0).collect();
        Ok(Response::majority(&readings))
    }

    fn set_environment(&mut self, env: Environment) {
        self.env = env;
    }

    fn environment(&self) -> Environment {
        self.env
    }

    fn latency_ns(&self) -> f64 {
        self.response_window_ns() + self.config.electronics_latency_ns
    }
}

/// Pairs of AC-coupled comparison differences, one pair per response
/// bit: `value((port, t))` is the sample at `(port, t)` minus its port's
/// burst mean, and each difference is `value(a) − value(b)`.
fn site_diffs<'s>(
    pairs: &'s [ComparePair],
    value: impl Fn((usize, usize)) -> f64 + 's,
) -> impl Iterator<Item = (f64, f64)> + 's {
    pairs.chunks_exact(2).map(move |site| {
        let diff = |pair: &ComparePair| value(pair.a) - value(pair.b);
        (diff(&site[0]), diff(&site[1]))
    })
}

/// The XOR fold of a bit's two comparisons.
fn fold(d0: f64, d1: f64) -> u8 {
    u8::from(d0 > 0.0) ^ u8::from(d1 > 0.0)
}

/// Noise-free reads of one [`PhotonicPuf`] from its impulse response
/// (module docs, "Noise-free reads"). Built by
/// [`PhotonicPuf::deterministic_reader`]; holds two per-port tables
/// (~12 KiB each on the reference configuration) and scratch buffers,
/// so [`Self::respond`] allocates only the returned response.
#[derive(Debug)]
pub struct DeterministicReader<'a> {
    puf: &'a PhotonicPuf,
    /// `x₀·A_p[t]` per port: the field of the all-zeros challenge.
    base: Vec<Vec<Complex64>>,
    /// `(x₁ − x₀)·h_p[t]` per port: what one set bit adds at lag `t`.
    lag: Vec<Vec<Complex64>>,
    /// Scratch: one port's field during a read.
    field: Vec<Complex64>,
    /// Scratch: the read's ideal photocurrents, port-major.
    currents: Vec<f64>,
    /// Scratch: each port's burst-mean photocurrent.
    means: Vec<f64>,
}

impl DeterministicReader<'_> {
    /// The PUF's noise-free response to `challenge`; the same bits as a
    /// [`PhotonicPuf::respond_deterministic`] call.
    ///
    /// # Errors
    ///
    /// Returns [`PufError::ChallengeLength`] on challenge width
    /// mismatch.
    pub fn respond(&mut self, challenge: &Challenge) -> Result<Response, PufError> {
        let puf = self.puf;
        puf.check_width(challenge)?;
        let n = self.field.len();
        let set_bits = || {
            let bits = challenge.bits().iter().enumerate();
            bits.filter(|&(_, &b)| b & 1 == 1).map(|(k, _)| k)
        };
        for (p, chain) in puf.chains.iter().enumerate() {
            self.field.copy_from_slice(&self.base[p]);
            for k in set_bits() {
                for (field, &tap) in self.field[k..].iter_mut().zip(&self.lag[p]) {
                    *field += tap;
                }
            }
            let currents = &mut self.currents[p * n..(p + 1) * n];
            for (current, &field) in currents.iter_mut().zip(&self.field) {
                *current = chain.pd.detect_ideal(field);
            }
            self.means[p] = currents.iter().sum::<f64>() / n as f64;
        }
        let (currents, means) = (&self.currents, &self.means);
        let value = |(p, t): (usize, usize)| currents[p * n + t] - means[p];
        Ok(Response::from_bits(
            site_diffs(&puf.pairs, value).map(|(d0, d1)| fold(d0, d1)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuropuls_rt::{Rng, RngCore};

    fn puf(die: u64) -> PhotonicPuf {
        PhotonicPuf::reference(DieId(die), 1000 + die)
    }

    fn challenge(seed: u64) -> Challenge {
        let mut rng = StdRng::seed_from_u64(seed);
        Challenge::random(64, &mut rng)
    }

    #[test]
    fn instrumentation_counts_evaluations() {
        let mut p = puf(70);
        assert_eq!(p.evaluations(), 0);
        p.respond_with_margins(&challenge(1)).unwrap();
        assert_eq!(p.evaluations(), 1);
        p.respond_with_margins(&challenge(2)).unwrap();
        assert_eq!(p.evaluations(), 2);
        // A golden read counts each of its reads.
        p.respond_golden(&challenge(3), 5).unwrap();
        assert_eq!(p.evaluations(), 7);
        // A rejected challenge is not counted.
        let narrow = Challenge::random(8, &mut StdRng::seed_from_u64(3));
        assert!(p.respond_with_margins(&narrow).is_err());
        assert!(p.respond_golden(&narrow, 5).is_err());
        assert_eq!(p.evaluations(), 7);
    }

    #[test]
    fn golden_read_is_the_majority_of_single_reads() {
        // One propagation per golden read must not change a bit: the
        // same draws and arithmetic as `reads` separate responds.
        let mut rng = StdRng::seed_from_u64(0x601D);
        let mut checked = 0;
        for die in 0..8 {
            let mut golden = PhotonicPuf::reference(DieId(5000 + die), die);
            for i in 0..125 {
                if i == 60 {
                    golden.set_environment(Environment::at_temperature(40.0));
                }
                let c = Challenge::random(64, &mut rng);
                let mut single = golden.clone();
                let reads: Vec<Response> = (0..5).map(|_| single.respond(&c).unwrap()).collect();
                assert_eq!(
                    golden.respond_golden(&c, 5).unwrap(),
                    Response::majority(&reads),
                    "die {die} challenge {i}"
                );
                assert_eq!(
                    golden.rng.next_u64(),
                    single.rng.next_u64(),
                    "die {die} challenge {i}: noise stream"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 1000);
    }

    #[test]
    fn response_has_configured_width() {
        let mut p = puf(1);
        let r = p.respond(&challenge(1)).unwrap();
        assert_eq!(r.len(), 64);
    }

    #[test]
    fn rejects_wrong_challenge_width() {
        let mut p = puf(2);
        let bad = Challenge::from_u64(1, 32);
        assert!(matches!(
            p.respond(&bad),
            Err(PufError::ChallengeLength {
                expected: 64,
                actual: 32
            })
        ));
    }

    #[test]
    fn same_die_same_challenge_is_mostly_stable() {
        let mut p = puf(3);
        let c = challenge(3);
        let golden = p.respond_golden(&c, 9).unwrap();
        let mut total_fhd = 0.0;
        for _ in 0..10 {
            total_fhd += golden.fhd(&p.respond(&c).unwrap());
        }
        let mean = total_fhd / 10.0;
        assert!(mean < 0.12, "intra-die FHD too high: {mean}");
    }

    #[test]
    fn different_dies_disagree_heavily() {
        let c = challenge(4);
        let mut a = puf(4);
        let mut b = puf(5);
        let ra = a.respond_golden(&c, 5).unwrap();
        let rb = b.respond_golden(&c, 5).unwrap();
        let fhd = ra.fhd(&rb);
        assert!(fhd > 0.25, "inter-die FHD too low: {fhd}");
    }

    #[test]
    fn different_challenges_give_different_responses() {
        let mut p = puf(6);
        let r1 = p.respond_golden(&challenge(10), 5).unwrap();
        let r2 = p.respond_golden(&challenge(11), 5).unwrap();
        assert!(r1.fhd(&r2) > 0.1, "challenge sensitivity too low");
    }

    #[test]
    fn margins_align_with_bits() {
        let mut p = puf(7);
        let (r, margins) = p.respond_with_margins(&challenge(7)).unwrap();
        assert_eq!(margins.len(), r.len());
        for (bit, margin) in r.bits().iter().zip(&margins) {
            if *margin > 0.0 {
                assert_eq!(*bit, 1);
            } else {
                assert_eq!(*bit, 0);
            }
        }
    }

    #[test]
    fn response_window_is_under_100ns() {
        let p = puf(8);
        assert!(
            p.response_window_ns() < 100.0,
            "window {}",
            p.response_window_ns()
        );
    }

    #[test]
    fn throughput_exceeds_5gbps() {
        let p = puf(9);
        assert!(
            p.throughput_gbps() >= 5.0,
            "throughput {} Gb/s",
            p.throughput_gbps()
        );
    }

    #[test]
    fn responses_are_roughly_uniform() {
        let mut p = puf(11);
        let mut rng = StdRng::seed_from_u64(99);
        let mut ones = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let c = Challenge::random(64, &mut rng);
            let r = p.respond(&c).unwrap();
            ones += r.weight();
            total += r.len();
        }
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.12, "uniformity {frac}");
    }

    #[test]
    fn temperature_degrades_reliability_against_nominal_enrollment() {
        // Silicon's thermo-optic coefficient is large: a modest +10 K
        // already flips a measurable fraction of bits, and extreme
        // excursions fully decorrelate the response (which is why §II-B
        // pairs the PUF with a temperature sensor and controller —
        // experiment E11 shows the compensation restoring reliability).
        let mut p = puf(12);
        let c = challenge(12);
        let golden = p.respond_golden(&c, 9).unwrap();
        p.set_environment(Environment::at_temperature(35.0));
        let warm = p.respond_golden(&c, 9).unwrap();
        let drift = golden.fhd(&warm);
        assert!(drift > 0.01, "temperature drift invisible: {drift}");
        assert!(drift < 0.45, "10 K should not fully decorrelate: {drift}");
        p.set_environment(Environment::at_temperature(85.0));
        let hot = p.respond_golden(&c, 9).unwrap();
        assert!(
            golden.fhd(&hot) > drift,
            "larger excursion must drift further"
        );
    }

    #[test]
    fn comparison_plan_is_deterministic_and_public() {
        let a = PhotonicPuf::comparison_plan(&PhotonicPufConfig::reference());
        let b = PhotonicPuf::comparison_plan(&PhotonicPufConfig::reference());
        assert_eq!(a, b);
    }

    #[test]
    fn noise_seed_changes_noise_not_identity() {
        let c = challenge(13);
        let mut a = PhotonicPuf::reference(DieId(77), 1);
        let mut b = PhotonicPuf::reference(DieId(77), 2);
        let ra = a.respond_golden(&c, 9).unwrap();
        let rb = b.respond_golden(&c, 9).unwrap();
        assert!(ra.fhd(&rb) < 0.12, "same die diverged: {}", ra.fhd(&rb));
    }

    #[test]
    fn respond_is_somewhat_noisy() {
        // The PUF must be *noisy* (otherwise ECC and filtering would be
        // pointless): across many single reads, at least a few bits flip.
        let mut p = puf(14);
        let c = challenge(14);
        let first = p.respond(&c).unwrap();
        let mut any_flip = false;
        for _ in 0..20 {
            if p.respond(&c).unwrap() != first {
                any_flip = true;
                break;
            }
        }
        assert!(
            any_flip,
            "responses are perfectly deterministic — noise model inactive"
        );
    }

    #[test]
    fn challenge_sensitivity_is_time_local() {
        // Flipping one challenge bit perturbs the comparisons within the
        // resonator memory horizon after that bit — a handful of response
        // bits, not zero (the mesh has memory) and not half (the
        // perturbation decays). Both extremes would indicate a modeling
        // bug.
        let mut p = puf(15);
        let c1 = challenge(15);
        let mut bits = c1.bits().to_vec();
        bits[0] ^= 1;
        let c2 = Challenge::from_bits(bits);
        let r1 = p.respond_golden(&c1, 7).unwrap();
        let r2 = p.respond_golden(&c2, 7).unwrap();
        let fhd = r1.fhd(&r2);
        assert!(fhd > 0.015, "single-bit sensitivity too weak: {fhd}");
        assert!(
            fhd < 0.5,
            "single-bit flip should not rewrite the response: {fhd}"
        );
    }

    #[test]
    fn random_challenges_never_panic() {
        let mut p = puf(16);
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..10 {
            let c = Challenge::from_bits((0..64).map(|_| rng.gen::<u8>() & 1));
            let _ = p.respond(&c).unwrap();
        }
    }
}

#[cfg(test)]
mod reader_tests {
    use super::*;
    use neuropuls_photonic::modulator::ModulationFormat;
    use neuropuls_photonic::process::DieSampler;

    impl PhotonicPuf {
        /// The stepped noise-free read the reader replaced, kept as its
        /// oracle: the modulated burst stepped through the mesh, ideal
        /// detection, AC coupling and the XOR fold. Also returns the
        /// photocurrents, port-major.
        fn respond_deterministic_stepped(&self, challenge: &Challenge) -> (Response, Vec<f64>) {
            let carrier = self.laser.carrier(&self.env);
            let waveform = self
                .modulator
                .modulate(carrier, challenge.bits(), &self.env);
            let outputs = self
                .mesh
                .propagate(&waveform, self.config.flush_samples, &self.env);
            let currents: Vec<Vec<f64>> = outputs
                .iter()
                .zip(&self.chains)
                .map(|(fields, chain)| fields.iter().map(|&f| chain.pd.detect_ideal(f)).collect())
                .collect();
            let means: Vec<f64> = currents
                .iter()
                .map(|port| port.iter().sum::<f64>() / port.len() as f64)
                .collect();
            let value = |(p, t): (usize, usize)| currents[p][t] - means[p];
            let bits = site_diffs(&self.pairs, value).map(|(d0, d1)| fold(d0, d1));
            (Response::from_bits(bits), currents.concat())
        }
    }

    /// Reads `challenges` random challenges through one reader and
    /// through the stepped oracle: identical bits, photocurrents within
    /// 1e-9 relative. Returns the number of reads compared.
    fn assert_reader_matches_stepper(
        puf: &PhotonicPuf,
        challenges: usize,
        rng: &mut StdRng,
        what: &str,
    ) -> usize {
        let mut reader = puf.deterministic_reader();
        for i in 0..challenges {
            let c = Challenge::random(puf.config.challenge_bits, rng);
            let fast = reader.respond(&c).unwrap();
            let (stepped, currents) = puf.respond_deterministic_stepped(&c);
            assert_eq!(fast, stepped, "{what}: challenge {i}: response bits");
            for (j, (&a, &b)) in reader.currents.iter().zip(&currents).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-9 * b.abs(),
                    "{what}: challenge {i} sample {j}: reader {a} vs stepped {b}"
                );
            }
        }
        challenges
    }

    #[test]
    fn reader_matches_the_stepped_read_on_ten_thousand_pairs() {
        let mut rng = StdRng::seed_from_u64(0xEAD);
        let mut pairs = 0;
        for die in 0..100 {
            let puf = PhotonicPuf::reference(DieId(3000 + die), die);
            pairs += assert_reader_matches_stepper(&puf, 100, &mut rng, &format!("die {die}"));
        }
        assert_eq!(pairs, 10_000);
    }

    #[test]
    fn reader_matches_the_stepped_read_off_nominal() {
        let mut rng = StdRng::seed_from_u64(0xEAE);
        let shallow = PhotonicPufConfig {
            mesh: MeshSpec::shallow_no_rings(),
            ..PhotonicPufConfig::reference()
        };
        // Short bursts: the running window drops taps from the first
        // flush sample on.
        let short = PhotonicPufConfig {
            challenge_bits: 12,
            response_bits: 16,
            flush_samples: 40,
            ..PhotonicPufConfig::reference()
        };
        for die in 0..8 {
            let variation = ProcessVariation::typical_soi();
            let mut puf = PhotonicPuf::reference(DieId(4000 + die), die);
            assert_reader_matches_stepper(&puf, 20, &mut rng, "nominal");
            puf.set_environment(Environment::at_temperature(61.5).with_laser_scale(0.35));
            assert_reader_matches_stepper(&puf, 20, &mut rng, "hot, dim laser");
            puf.set_environment(Environment::at_temperature(-12.0).with_laser_scale(2.5));
            assert_reader_matches_stepper(&puf, 20, &mut rng, "cold, bright laser");
            puf.age_with_rate(10.0, 0.05);
            assert_reader_matches_stepper(&puf, 20, &mut rng, "aged");

            let mut ook = PhotonicPuf::reference(DieId(4100 + die), die);
            let mut sampler = DieSampler::new(DieId(4100 + die), variation);
            ook.modulator = MachZehnderModulator::sampled_with_format(
                ModulationFormat::Ook {
                    extinction_db: 12.0,
                },
                &mut sampler,
            );
            assert_reader_matches_stepper(&ook, 20, &mut rng, "OOK");

            let no_rings = PhotonicPuf::fabricate(DieId(4200 + die), shallow, variation, die);
            assert_reader_matches_stepper(&no_rings, 20, &mut rng, "shallow, no rings");
            let short_burst = PhotonicPuf::fabricate(DieId(4300 + die), short, variation, die);
            assert_reader_matches_stepper(&short_burst, 20, &mut rng, "short burst");
        }
    }

    #[test]
    fn one_shot_reads_match_a_shared_reader() {
        let puf = PhotonicPuf::reference(DieId(4400), 1);
        let mut reader = puf.deterministic_reader();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let c = Challenge::random(64, &mut rng);
            assert_eq!(
                reader.respond(&c).unwrap(),
                puf.respond_deterministic(&c).unwrap()
            );
        }
        assert!(matches!(
            reader.respond(&Challenge::from_u64(1, 32)),
            Err(PufError::ChallengeLength {
                expected: 64,
                actual: 32
            })
        ));
    }
}

#[cfg(test)]
mod aging_tests {
    use super::*;
    use crate::traits::Puf;

    #[test]
    fn aging_drifts_responses_gradually() {
        let c = {
            let mut rng = StdRng::seed_from_u64(700);
            Challenge::random(64, &mut rng)
        };
        let mut p = PhotonicPuf::reference(DieId(70), 1);
        let golden = p.respond_golden(&c, 9).unwrap();

        p.age(1.0);
        let after_one_year = p.respond_golden(&c, 9).unwrap();
        let drift_1y = golden.fhd(&after_one_year);

        p.age_with_rate(25.0, 0.1); // brutal accelerated aging
        let after_decades = p.respond_golden(&c, 9).unwrap();
        let drift_heavy = golden.fhd(&after_decades);

        assert!(drift_1y < 0.15, "1-year drift too large: {drift_1y}");
        assert!(
            drift_heavy > drift_1y,
            "heavy aging must drift further: {drift_1y} vs {drift_heavy}"
        );
    }

    #[test]
    fn zero_years_is_a_noop() {
        let c = Challenge::from_u64(0xFACE, 64);
        let mut a = PhotonicPuf::reference(DieId(71), 5);
        let before = a.respond_deterministic(&c).unwrap();
        a.age(0.0);
        let after = a.respond_deterministic(&c).unwrap();
        assert_eq!(before, after);
    }
}
