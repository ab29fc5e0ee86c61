//! The analog photonic inference engine.
//!
//! Weights live in phase-change-material (PCM) cells on MZI crossbars
//! (the NEUROPULS platform of \[11\]): programming quantizes each weight to
//! a finite number of transmission levels, every multiply-accumulate
//! picks up multiplicative analog noise, and the PCM levels drift slowly
//! after programming. The engine models those three effects and accounts
//! latency and energy per inference for the system-level experiments.

use crate::config::{ConfigCodecError, NetworkConfig};
use neuropuls_photonic::laser::gaussian;
use neuropuls_rt::rng::SplitMix64;
use neuropuls_rt::rngs::{SmallRng, StdRng};
use neuropuls_rt::SeedableRng;

/// Analog non-idealities of the crossbar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogModel {
    /// Bits of weight quantization (PCM programming levels = 2^bits).
    pub weight_bits: u8,
    /// Relative multiplicative noise σ per MAC.
    pub mac_noise: f64,
    /// Relative PCM drift per programmed hour (applied via
    /// [`PhotonicEngine::age`]).
    pub drift_per_hour: f64,
    /// Energy per MAC in picojoules.
    pub energy_per_mac_pj: f64,
    /// Latency per layer in nanoseconds (optical transit + conversion).
    pub layer_latency_ns: f64,
}

impl AnalogModel {
    /// The reference platform model.
    pub fn reference() -> Self {
        AnalogModel {
            weight_bits: 6,
            mac_noise: 5e-3,
            drift_per_hour: 2e-3,
            energy_per_mac_pj: 0.05,
            layer_latency_ns: 4.0,
        }
    }

    /// An ideal digital engine (for accuracy-loss ablations).
    pub fn ideal() -> Self {
        AnalogModel {
            weight_bits: 32,
            mac_noise: 0.0,
            drift_per_hour: 0.0,
            energy_per_mac_pj: 1.0,
            layer_latency_ns: 100.0,
        }
    }
}

/// Minimum usable weight bit-width.
///
/// The quantizer maps weights onto a symmetric grid with
/// `2^bits / 2 - 1` positive levels; below two bits that expression is
/// zero (grid collapses, division by zero) or negative, so
/// [`PhotonicEngine::load`] rejects such models instead of programming
/// NaN/garbage into the PCM cells.
pub const MIN_WEIGHT_BITS: u8 = 2;

/// Errors from loading or running the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// No network has been loaded.
    NotLoaded,
    /// The input width disagrees with the loaded network.
    InputWidth {
        /// Expected width.
        expected: usize,
        /// Supplied width.
        actual: usize,
    },
    /// The configuration failed validation.
    BadConfig(ConfigCodecError),
    /// The analog model's weight bit-width is below
    /// [`MIN_WEIGHT_BITS`], which would degenerate the quantizer grid.
    BadBitWidth(u8),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NotLoaded => write!(f, "no network loaded"),
            EngineError::InputWidth { expected, actual } => {
                write!(f, "input width mismatch: expected {expected}, got {actual}")
            }
            EngineError::BadConfig(e) => write!(f, "bad network config: {e}"),
            EngineError::BadBitWidth(bits) => {
                write!(
                    f,
                    "weight_bits {bits} below the {MIN_WEIGHT_BITS}-bit quantizer minimum"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigCodecError> for EngineError {
    fn from(e: ConfigCodecError) -> Self {
        EngineError::BadConfig(e)
    }
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Inferences executed since load.
    pub inferences: u64,
    /// Total MAC operations.
    pub macs: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total busy time in nanoseconds.
    pub busy_ns: f64,
    /// Gaussian noise samples consumed by MACs.
    pub noise_draws: u64,
}

/// The photonic inference engine.
#[derive(Debug, Clone)]
pub struct PhotonicEngine {
    model: AnalogModel,
    /// Programmed (quantized) weights, one row-major matrix per layer.
    programmed: Vec<Vec<f64>>,
    config: Option<NetworkConfig>,
    drift_factor: f64,
    stats: EngineStats,
    rng: StdRng,
    noise_seed: u64,
    /// Batched calls served since construction; folded into the
    /// per-item noise seeds so successive batches draw fresh streams.
    batch_epoch: u64,
}

impl PhotonicEngine {
    /// Creates an engine with the given analog model.
    pub fn new(model: AnalogModel, noise_seed: u64) -> Self {
        PhotonicEngine {
            model,
            programmed: Vec::new(),
            config: None,
            drift_factor: 1.0,
            stats: EngineStats::default(),
            rng: StdRng::seed_from_u64(noise_seed),
            noise_seed,
            batch_epoch: 0,
        }
    }

    /// Reference-model engine.
    pub fn reference(noise_seed: u64) -> Self {
        Self::new(AnalogModel::reference(), noise_seed)
    }

    /// The analog model.
    pub fn model(&self) -> &AnalogModel {
        &self.model
    }

    /// Whether a network is loaded.
    pub fn is_loaded(&self) -> bool {
        self.config.is_some()
    }

    /// Execution statistics since the last load.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current multiplicative PCM drift factor (1.0 when fresh).
    pub fn drift_factor(&self) -> f64 {
        self.drift_factor
    }

    /// Number of batched-inference calls served so far.
    pub fn batch_epoch(&self) -> u64 {
        self.batch_epoch
    }

    /// Programs a validated network into the PCM cells (quantizing
    /// weights).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::BadConfig`] if the configuration fails
    /// validation, or [`EngineError::BadBitWidth`] if the analog model
    /// quantizes below [`MIN_WEIGHT_BITS`] (the symmetric level grid
    /// degenerates: `2^1 / 2 - 1 = 0` divides by zero and
    /// `2^0 / 2 - 1 < 0` flips every weight's sign).
    pub fn load(&mut self, config: NetworkConfig) -> Result<(), EngineError> {
        if self.model.weight_bits < MIN_WEIGHT_BITS {
            return Err(EngineError::BadBitWidth(self.model.weight_bits));
        }
        config.validate()?;
        let levels = (1u64 << self.model.weight_bits.min(63)) as f64;
        self.programmed = config
            .layers
            .iter()
            .map(|layer| {
                let max_abs = layer
                    .weights
                    .iter()
                    .fold(0f32, |m, w| m.max(w.abs()))
                    .max(f32::MIN_POSITIVE) as f64;
                layer
                    .weights
                    .iter()
                    .map(|&w| {
                        // Quantize to the PCM level grid over [-max, max].
                        let normalized = w as f64 / max_abs;
                        let level = (normalized * (levels / 2.0 - 1.0)).round();
                        level / (levels / 2.0 - 1.0) * max_abs
                    })
                    .collect()
            })
            .collect();
        self.config = Some(config);
        self.drift_factor = 1.0;
        self.stats = EngineStats::default();
        Ok(())
    }

    /// Unloads the network and clears the PCM cells (the hardware
    /// equivalent of zeroizing key material): programmed weights, the
    /// configuration, the accumulated drift factor and the execution
    /// statistics are all reset so nothing about the evicted workload
    /// is observable afterwards.
    pub fn unload(&mut self) {
        self.programmed.clear();
        self.config = None;
        self.drift_factor = 1.0;
        self.stats = EngineStats::default();
    }

    /// Ages the PCM cells by `hours` of drift.
    pub fn age(&mut self, hours: f64) {
        self.drift_factor *= (1.0 - self.model.drift_per_hour).powf(hours.max(0.0));
    }

    /// Runs one inference.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NotLoaded`] or
    /// [`EngineError::InputWidth`].
    pub fn infer(&mut self, input: &[f64]) -> Result<Vec<f64>, EngineError> {
        let config = self.config.as_ref().ok_or(EngineError::NotLoaded)?;
        if input.len() != config.input_width() {
            return Err(EngineError::InputWidth {
                expected: config.input_width(),
                actual: input.len(),
            });
        }
        let noisy = self.model.mac_noise != 0.0;
        let mut activations: Vec<f64> = input.to_vec();
        let mut macs = 0u64;
        for (layer, weights) in config.layers.iter().zip(self.programmed.iter()) {
            let mut next = Vec::with_capacity(layer.outputs);
            for o in 0..layer.outputs {
                let mut acc = layer.biases[o] as f64;
                for (i, &a) in activations.iter().enumerate() {
                    let w = weights[o * layer.inputs + i] * self.drift_factor;
                    if noisy {
                        // `w * a * noise` keeps the historical
                        // evaluation order so the noisy output stream
                        // is unchanged by the noiseless fast path.
                        let noise = 1.0 + self.model.mac_noise * gaussian(&mut self.rng);
                        acc += w * a * noise;
                    } else {
                        acc += w * a;
                    }
                    macs += 1;
                }
                next.push(layer.activation.apply(acc));
            }
            activations = next;
        }
        self.stats.inferences += 1;
        self.stats.macs += macs;
        if noisy {
            self.stats.noise_draws += macs;
        }
        self.stats.energy_pj += macs as f64 * self.model.energy_per_mac_pj;
        self.stats.busy_ns += config.layers.len() as f64 * self.model.layer_latency_ns;
        Ok(activations)
    }

    /// The noise seed for item `index` of the **next** batch call.
    ///
    /// Batched noise is re-derived per item rather than drawn from the
    /// engine's sequential stream: item `i` of batch call `e` (the
    /// engine's [`batch_epoch`](Self::batch_epoch) at call time) seeds
    /// its own generator from `(noise_seed, e, i)` via two SplitMix64
    /// stretches. Re-derivation makes the fan-out order irrelevant, so
    /// batched output is byte-identical at any `NEUROPULS_THREADS`.
    pub fn batch_item_seed(&self, index: usize) -> u64 {
        derive_item_seed(self.noise_seed, self.batch_epoch, index as u64)
    }

    /// Runs one inference with an explicit noise seed, using the
    /// batched noise rule (a fast per-item generator).
    ///
    /// This is the sequential reference for [`Self::infer_batch`]:
    /// `infer_batch(&inputs)[i]` equals
    /// `infer_seeded(&inputs[i], seed_i)` where `seed_i` was read from
    /// [`Self::batch_item_seed`] before the batch call. Does not
    /// advance the batch epoch or the engine's sequential noise
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NotLoaded`] or
    /// [`EngineError::InputWidth`].
    pub fn infer_seeded(
        &mut self,
        input: &[f64],
        noise_seed: u64,
    ) -> Result<Vec<f64>, EngineError> {
        let config = self.config.as_ref().ok_or(EngineError::NotLoaded)?;
        if input.len() != config.input_width() {
            return Err(EngineError::InputWidth {
                expected: config.input_width(),
                actual: input.len(),
            });
        }
        let layers = config.layers.len();
        let scaled = self.scaled_weights();
        let noisy = self.model.mac_noise != 0.0;
        let (out, macs) = forward_fast(config, &scaled, self.model.mac_noise, input, noise_seed);
        self.stats.inferences += 1;
        self.stats.macs += macs;
        if noisy {
            self.stats.noise_draws += macs;
        }
        self.stats.energy_pj += macs as f64 * self.model.energy_per_mac_pj;
        self.stats.busy_ns += layers as f64 * self.model.layer_latency_ns;
        Ok(out)
    }

    /// Runs a batch of inferences, amortizing per-layer work.
    ///
    /// The drift-scaled weight matrices are hoisted once per layer
    /// (instead of one multiply per MAC), noise sampling is skipped
    /// entirely when `mac_noise == 0`, and the items fan out over
    /// [`neuropuls_rt::pool`] with per-item noise re-derivation (see
    /// [`Self::batch_item_seed`]) so the output is byte-identical at
    /// any `NEUROPULS_THREADS` setting.
    ///
    /// Latency is accounted with the wave-pipelined mesh model: a
    /// batch of `n` through `L` layers occupies the engine for
    /// `(L + n - 1)` layer slots, not `L * n`.
    ///
    /// An empty batch returns `Ok(vec![])` without consuming an epoch.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NotLoaded`], or
    /// [`EngineError::InputWidth`] for the first item whose width
    /// disagrees with the loaded network (no inference runs and no
    /// noise stream is consumed in that case).
    pub fn infer_batch(&mut self, inputs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, EngineError> {
        let config = self.config.as_ref().ok_or(EngineError::NotLoaded)?;
        for input in inputs {
            if input.len() != config.input_width() {
                return Err(EngineError::InputWidth {
                    expected: config.input_width(),
                    actual: input.len(),
                });
            }
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let layers = config.layers.len() as u64;
        let scaled = self.scaled_weights();
        let mac_noise = self.model.mac_noise;
        let seeds: Vec<u64> = (0..inputs.len()).map(|i| self.batch_item_seed(i)).collect();
        let outputs: Vec<(Vec<f64>, u64)> =
            neuropuls_rt::pool::par_map((0..inputs.len()).collect::<Vec<usize>>(), |i| {
                forward_fast(config, &scaled, mac_noise, &inputs[i], seeds[i])
            });
        self.batch_epoch += 1;
        let n = outputs.len() as u64;
        let macs: u64 = outputs.iter().map(|(_, m)| m).sum();
        self.stats.inferences += n;
        self.stats.macs += macs;
        if mac_noise != 0.0 {
            self.stats.noise_draws += macs;
        }
        self.stats.energy_pj += macs as f64 * self.model.energy_per_mac_pj;
        self.stats.busy_ns += (layers + n - 1) as f64 * self.model.layer_latency_ns;
        Ok(outputs.into_iter().map(|(out, _)| out).collect())
    }

    /// Drift-scaled weight matrices, hoisted once per layer.
    fn scaled_weights(&self) -> Vec<Vec<f64>> {
        self.programmed
            .iter()
            .map(|weights| weights.iter().map(|&w| w * self.drift_factor).collect())
            .collect()
    }
}

/// Stretches `(noise_seed, epoch, index)` into one per-item seed.
fn derive_item_seed(noise_seed: u64, epoch: u64, index: u64) -> u64 {
    let mut outer = SplitMix64::new(noise_seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let stream = outer.next();
    let mut inner = SplitMix64::new(stream ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    inner.next()
}

/// Forward pass over pre-scaled weights with the batched noise rule.
/// Returns the output activations and the MAC count.
fn forward_fast(
    config: &NetworkConfig,
    scaled: &[Vec<f64>],
    mac_noise: f64,
    input: &[f64],
    noise_seed: u64,
) -> (Vec<f64>, u64) {
    let noisy = mac_noise != 0.0;
    let mut rng = SmallRng::seed_from_u64(noise_seed);
    let mut activations: Vec<f64> = input.to_vec();
    let mut macs = 0u64;
    for (layer, weights) in config.layers.iter().zip(scaled.iter()) {
        let mut next = Vec::with_capacity(layer.outputs);
        for o in 0..layer.outputs {
            let mut acc = layer.biases[o] as f64;
            let row = &weights[o * layer.inputs..(o + 1) * layer.inputs];
            if noisy {
                for (&w, &a) in row.iter().zip(activations.iter()) {
                    acc += w * a * (1.0 + mac_noise * gaussian(&mut rng));
                }
            } else {
                for (&w, &a) in row.iter().zip(activations.iter()) {
                    acc += w * a;
                }
            }
            macs += layer.inputs as u64;
            next.push(layer.activation.apply(acc));
        }
        activations = next;
    }
    (activations, macs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;

    fn identity_config(width: usize) -> NetworkConfig {
        NetworkConfig::mlp(&[width, width], |_, o, i| if o == i { 1.0 } else { 0.0 })
    }

    #[test]
    fn infer_requires_load() {
        let mut engine = PhotonicEngine::reference(1);
        assert_eq!(engine.infer(&[1.0]), Err(EngineError::NotLoaded));
    }

    #[test]
    fn identity_network_roughly_passes_through() {
        let mut engine = PhotonicEngine::reference(2);
        engine.load(identity_config(4)).unwrap();
        let out = engine.infer(&[0.5, -0.25, 1.0, 0.0]).unwrap();
        assert_eq!(out.len(), 4);
        for (o, e) in out.iter().zip([0.5, -0.25, 1.0, 0.0]) {
            assert!((o - e).abs() < 0.05, "out {o} expected {e}");
        }
    }

    #[test]
    fn input_width_is_checked() {
        let mut engine = PhotonicEngine::reference(3);
        engine.load(identity_config(4)).unwrap();
        assert_eq!(
            engine.infer(&[1.0]),
            Err(EngineError::InputWidth {
                expected: 4,
                actual: 1
            })
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let mut engine = PhotonicEngine::reference(4);
        let mut config = identity_config(3);
        config.layers[0].biases.pop();
        assert!(matches!(
            engine.load(config),
            Err(EngineError::BadConfig(_))
        ));
    }

    #[test]
    fn analog_noise_perturbs_output() {
        let mut engine = PhotonicEngine::reference(5);
        engine.load(identity_config(4)).unwrap();
        let a = engine.infer(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let b = engine.infer(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_ne!(a, b, "analog engine should be noisy");
    }

    #[test]
    fn ideal_engine_is_exact_and_deterministic() {
        let mut engine = PhotonicEngine::new(AnalogModel::ideal(), 6);
        engine.load(identity_config(4)).unwrap();
        let a = engine.infer(&[1.0, 2.0, -1.0, 0.5]).unwrap();
        // Single-layer MLPs end in a linear output layer.
        assert_eq!(a, vec![1.0, 2.0, -1.0, 0.5]);
    }

    #[test]
    fn quantization_limits_precision() {
        // A 1-bit engine collapses weights to ±max.
        let mut coarse = PhotonicEngine::new(
            AnalogModel {
                weight_bits: 2,
                mac_noise: 0.0,
                ..AnalogModel::reference()
            },
            7,
        );
        let config = NetworkConfig::mlp(&[2, 1], |_, _, i| if i == 0 { 1.0 } else { 0.3 });
        coarse.load(config.clone()).unwrap();
        let mut fine = PhotonicEngine::new(AnalogModel::ideal(), 7);
        fine.load(config).unwrap();
        let x = [1.0, 1.0];
        let c = coarse.infer(&x).unwrap()[0];
        let f = fine.infer(&x).unwrap()[0];
        assert!(
            (c - f).abs() > 0.05,
            "quantization had no effect: {c} vs {f}"
        );
    }

    #[test]
    fn drift_attenuates_weights() {
        let mut engine = PhotonicEngine::new(
            AnalogModel {
                mac_noise: 0.0,
                ..AnalogModel::reference()
            },
            8,
        );
        engine.load(identity_config(2)).unwrap();
        let fresh = engine.infer(&[1.0, 1.0]).unwrap();
        engine.age(100.0);
        let aged = engine.infer(&[1.0, 1.0]).unwrap();
        assert!(aged[0] < fresh[0], "drift did not attenuate: {aged:?}");
    }

    #[test]
    fn stats_accumulate() {
        let mut engine = PhotonicEngine::reference(9);
        engine.load(identity_config(4)).unwrap();
        engine.infer(&[0.0; 4]).unwrap();
        engine.infer(&[0.0; 4]).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.inferences, 2);
        assert_eq!(stats.macs, 32);
        assert!(stats.energy_pj > 0.0);
        assert!(stats.busy_ns > 0.0);
    }

    #[test]
    fn unload_clears_state() {
        let mut engine = PhotonicEngine::reference(10);
        engine.load(identity_config(2)).unwrap();
        assert!(engine.is_loaded());
        engine.unload();
        assert!(!engine.is_loaded());
        assert_eq!(engine.infer(&[1.0, 1.0]), Err(EngineError::NotLoaded));
    }

    #[test]
    fn unload_zeroizes_drift_and_stats() {
        let mut engine = PhotonicEngine::reference(11);
        engine.load(identity_config(2)).unwrap();
        engine.age(50.0);
        engine.infer(&[1.0, -1.0]).unwrap();
        assert!(engine.drift_factor() < 1.0);
        assert_ne!(engine.stats(), EngineStats::default());
        engine.unload();
        assert_eq!(engine.drift_factor(), 1.0, "drift must not survive unload");
        assert_eq!(
            engine.stats(),
            EngineStats::default(),
            "stats must not survive unload"
        );
    }

    #[test]
    fn low_bit_widths_rejected() {
        for bits in [0u8, 1] {
            let mut engine = PhotonicEngine::new(
                AnalogModel {
                    weight_bits: bits,
                    ..AnalogModel::reference()
                },
                12,
            );
            assert_eq!(
                engine.load(identity_config(2)),
                Err(EngineError::BadBitWidth(bits)),
                "weight_bits {bits} must be rejected"
            );
            assert!(!engine.is_loaded());
        }
        // The 2-bit boundary is the first usable grid and must program
        // finite weights.
        let mut engine = PhotonicEngine::new(
            AnalogModel {
                weight_bits: MIN_WEIGHT_BITS,
                mac_noise: 0.0,
                ..AnalogModel::reference()
            },
            12,
        );
        engine.load(identity_config(2)).unwrap();
        let out = engine.infer(&[0.5, -0.5]).unwrap();
        assert!(
            out.iter().all(|v| v.is_finite()),
            "2-bit weights must be finite: {out:?}"
        );
    }

    #[test]
    fn ideal_model_skips_noise_draws() {
        let mut engine = PhotonicEngine::new(AnalogModel::ideal(), 13);
        engine.load(identity_config(4)).unwrap();
        let a = engine.infer(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = engine.infer(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a, b, "noiseless inference must be bit-identical");
        assert_eq!(
            engine.stats().noise_draws,
            0,
            "mac_noise == 0 must not sample"
        );
        assert_eq!(engine.stats().macs, 32);
    }

    #[test]
    fn noisy_model_rng_stream_is_pinned() {
        // The scalar path's noise stream is part of the golden wire
        // transcripts: one `laser::gaussian` draw from the engine's ChaCha20
        // stream per MAC, applied as `acc += w * a * (1 + σ·g)`.
        // Recompute that definition independently and require an exact
        // match, so refactors cannot silently shift the stream.
        let mut engine = PhotonicEngine::reference(14);
        engine.load(identity_config(2)).unwrap();
        let input = [0.75, -0.25];
        let got = engine.infer(&input).unwrap();

        let config = identity_config(2);
        let model = AnalogModel::reference();
        let mut rng = StdRng::seed_from_u64(14);
        let mut expected = Vec::new();
        let layer = &config.layers[0];
        // Quantized identity weights: re-quantize exactly as load does.
        let levels = (1u64 << model.weight_bits) as f64;
        let grid = levels / 2.0 - 1.0;
        for o in 0..layer.outputs {
            let mut acc = layer.biases[o] as f64;
            for (i, &a) in input.iter().enumerate() {
                let w_raw = layer.weights[o * layer.inputs + i] as f64;
                let w = (w_raw * grid).round() / grid;
                let noise = 1.0 + model.mac_noise * gaussian(&mut rng);
                acc += w * a * noise;
            }
            expected.push(layer.activation.apply(acc));
        }
        assert_eq!(got, expected, "scalar noise stream moved");
        assert_eq!(engine.stats().noise_draws, engine.stats().macs);
    }

    #[test]
    fn batch_matches_seeded_sequential() {
        let mut batch_engine = PhotonicEngine::reference(15);
        batch_engine.load(identity_config(4)).unwrap();
        let inputs: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..4).map(|j| (i * 4 + j) as f64 / 10.0 - 1.0).collect())
            .collect();
        let seeds: Vec<u64> = (0..inputs.len())
            .map(|i| batch_engine.batch_item_seed(i))
            .collect();
        let batched = batch_engine.infer_batch(&inputs).unwrap();

        let mut seq_engine = PhotonicEngine::reference(15);
        seq_engine.load(identity_config(4)).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            let single = seq_engine.infer_seeded(input, seeds[i]).unwrap();
            assert_eq!(batched[i], single, "item {i} diverged");
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let run_at = |threads: usize| {
            neuropuls_rt::pool::with_threads(threads, || {
                let mut engine = PhotonicEngine::reference(16);
                engine.load(identity_config(4)).unwrap();
                let inputs: Vec<Vec<f64>> = (0..17).map(|i| vec![i as f64 * 0.1; 4]).collect();
                engine.infer_batch(&inputs).unwrap()
            })
        };
        assert_eq!(run_at(1), run_at(4), "batch output depends on thread count");
    }

    #[test]
    fn batch_epochs_draw_fresh_noise_deterministically() {
        let mut engine = PhotonicEngine::reference(17);
        engine.load(identity_config(2)).unwrap();
        let inputs = vec![vec![1.0, 1.0]; 3];
        let first = engine.infer_batch(&inputs).unwrap();
        let second = engine.infer_batch(&inputs).unwrap();
        assert_ne!(first, second, "epochs must not replay the same noise");
        let mut replay = PhotonicEngine::reference(17);
        replay.load(identity_config(2)).unwrap();
        assert_eq!(replay.infer_batch(&inputs).unwrap(), first);
        assert_eq!(replay.infer_batch(&inputs).unwrap(), second);
    }

    #[test]
    fn batch_accounting_is_pipelined() {
        let mut engine = PhotonicEngine::new(AnalogModel::ideal(), 18);
        engine.load(identity_config(4)).unwrap();
        assert_eq!(engine.infer_batch(&[]).unwrap(), Vec::<Vec<f64>>::new());
        assert_eq!(
            engine.batch_epoch(),
            0,
            "empty batch must not burn an epoch"
        );
        let inputs = vec![vec![0.5; 4]; 8];
        engine.infer_batch(&inputs).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.inferences, 8);
        assert_eq!(stats.macs, 8 * 16);
        assert_eq!(stats.noise_draws, 0);
        // 1 layer, 8 items, wave-pipelined: (1 + 8 - 1) slots.
        let expected_ns = 8.0 * AnalogModel::ideal().layer_latency_ns;
        assert!(
            (stats.busy_ns - expected_ns).abs() < 1e-9,
            "busy_ns {}",
            stats.busy_ns
        );
        // Width errors reject the whole batch up front.
        assert_eq!(
            engine.infer_batch(&[vec![1.0; 4], vec![1.0; 3]]),
            Err(EngineError::InputWidth {
                expected: 4,
                actual: 3
            })
        );
    }
}
