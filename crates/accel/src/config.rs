//! Neural-network configuration — the confidential payload of
//! `load_network` (Table I).
//!
//! The configuration carries layer dimensions and weights. It travels
//! encrypted end-to-end, so it needs a stable binary wire format; the
//! codec here is self-contained (magic, version, length-prefixed layers,
//! little-endian `f32` weights) and rejects malformed input instead of
//! panicking — it parses attacker-visible bytes.

use std::error::Error;
use std::fmt;

/// Nonlinearity applied after a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit (electro-optic rectification).
    Relu,
    /// Identity (output layer).
    Linear,
    /// Saturating absorber: tanh-like optical nonlinearity.
    Saturating,
}

impl Activation {
    /// Applies the activation to one value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Linear => x,
            Activation::Saturating => x.tanh(),
        }
    }

    fn code(self) -> u8 {
        match self {
            Activation::Relu => 0,
            Activation::Linear => 1,
            Activation::Saturating => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, ConfigCodecError> {
        match code {
            0 => Ok(Activation::Relu),
            1 => Ok(Activation::Linear),
            2 => Ok(Activation::Saturating),
            other => Err(ConfigCodecError::BadActivation(other)),
        }
    }
}

/// One dense layer: `outputs × inputs` weights plus a bias per output.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerConfig {
    /// Input width.
    pub inputs: usize,
    /// Output width.
    pub outputs: usize,
    /// Row-major weights, `outputs × inputs`.
    pub weights: Vec<f32>,
    /// Per-output bias.
    pub biases: Vec<f32>,
    /// Activation after the layer.
    pub activation: Activation,
}

impl LayerConfig {
    /// Validates dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigCodecError::DimensionMismatch`] when weight or
    /// bias lengths disagree with the declared shape.
    pub fn validate(&self) -> Result<(), ConfigCodecError> {
        if self.weights.len() != self.inputs * self.outputs || self.biases.len() != self.outputs {
            return Err(ConfigCodecError::DimensionMismatch {
                inputs: self.inputs,
                outputs: self.outputs,
                weights: self.weights.len(),
                biases: self.biases.len(),
            });
        }
        Ok(())
    }
}

/// A full network configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkConfig {
    /// Layers in order.
    pub layers: Vec<LayerConfig>,
}

/// Errors from the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigCodecError {
    /// The magic/version header is wrong (e.g. a wrong decryption key
    /// produced garbage).
    BadHeader,
    /// Truncated input.
    Truncated,
    /// Unknown activation code.
    BadActivation(u8),
    /// Declared shapes disagree with payload lengths.
    DimensionMismatch {
        /// Declared input width.
        inputs: usize,
        /// Declared output width.
        outputs: usize,
        /// Supplied weight count.
        weights: usize,
        /// Supplied bias count.
        biases: usize,
    },
    /// A declared length is implausibly large (corrupt or hostile
    /// input).
    LengthOverflow(u64),
    /// Consecutive layers have incompatible widths.
    LayerChainMismatch {
        /// Index of the offending layer.
        layer: usize,
    },
}

impl fmt::Display for ConfigCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigCodecError::BadHeader => write!(f, "bad network config header"),
            ConfigCodecError::Truncated => write!(f, "truncated network config"),
            ConfigCodecError::BadActivation(code) => {
                write!(f, "unknown activation code {code}")
            }
            ConfigCodecError::DimensionMismatch {
                inputs,
                outputs,
                weights,
                biases,
            } => write!(
                f,
                "dimension mismatch: {inputs}x{outputs} layer with {weights} weights, {biases} biases"
            ),
            ConfigCodecError::LengthOverflow(len) => {
                write!(f, "declared length {len} exceeds sanity bound")
            }
            ConfigCodecError::LayerChainMismatch { layer } => {
                write!(f, "layer {layer} input width disagrees with previous output width")
            }
        }
    }
}

impl Error for ConfigCodecError {}

const MAGIC: &[u8; 4] = b"NPNC"; // NeuroPuls Network Config
const VERSION: u8 = 1;
const MAX_DIM: u64 = 1 << 20;

impl NetworkConfig {
    /// Builds a dense MLP with the given layer widths, e.g.
    /// `[16, 8, 4]`, with ReLU activations and a linear output.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn mlp(widths: &[usize], weights: impl Fn(usize, usize, usize) -> f32) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(l, w)| {
                let (inputs, outputs) = (w[0], w[1]);
                LayerConfig {
                    inputs,
                    outputs,
                    weights: (0..outputs)
                        .flat_map(|o| (0..inputs).map(move |i| (o, i)))
                        .map(|(o, i)| weights(l, o, i))
                        .collect(),
                    biases: vec![0.0; outputs],
                    activation: if l + 2 == widths.len() {
                        Activation::Linear
                    } else {
                        Activation::Relu
                    },
                }
            })
            .collect();
        NetworkConfig { layers }
    }

    /// Validates the whole configuration, including inter-layer width
    /// chaining.
    ///
    /// # Errors
    ///
    /// See [`ConfigCodecError`].
    pub fn validate(&self) -> Result<(), ConfigCodecError> {
        for (idx, layer) in self.layers.iter().enumerate() {
            layer.validate()?;
            if idx > 0 && self.layers[idx - 1].outputs != layer.inputs {
                return Err(ConfigCodecError::LayerChainMismatch { layer: idx });
            }
        }
        Ok(())
    }

    /// Input width of the network (0 for an empty config).
    pub fn input_width(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Serializes to the wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.extend_from_slice(&(self.layers.len() as u32).to_le_bytes());
        for layer in &self.layers {
            out.extend_from_slice(&(layer.inputs as u32).to_le_bytes());
            out.extend_from_slice(&(layer.outputs as u32).to_le_bytes());
            out.push(layer.activation.code());
            for w in &layer.weights {
                out.extend_from_slice(&w.to_le_bytes());
            }
            for b in &layer.biases {
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out
    }

    /// Parses the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigCodecError`] on any malformed input; never
    /// panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ConfigCodecError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let magic = cursor.take(4)?;
        if magic != MAGIC || cursor.take(1)?[0] != VERSION {
            return Err(ConfigCodecError::BadHeader);
        }
        let layer_count = cursor.u32()? as u64;
        if layer_count > 1024 {
            return Err(ConfigCodecError::LengthOverflow(layer_count));
        }
        let mut layers = Vec::with_capacity(layer_count as usize);
        for _ in 0..layer_count {
            let inputs = cursor.u32()? as u64;
            let outputs = cursor.u32()? as u64;
            if inputs > MAX_DIM || outputs > MAX_DIM || inputs * outputs > MAX_DIM {
                return Err(ConfigCodecError::LengthOverflow(inputs * outputs));
            }
            let activation = Activation::from_code(cursor.take(1)?[0])?;
            let weights = cursor.f32_vec((inputs * outputs) as usize)?;
            let biases = cursor.f32_vec(outputs as usize)?;
            layers.push(LayerConfig {
                inputs: inputs as usize,
                outputs: outputs as usize,
                weights,
                biases,
                activation,
            });
        }
        let config = NetworkConfig { layers };
        config.validate()?;
        Ok(config)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ConfigCodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(ConfigCodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, ConfigCodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, ConfigCodecError> {
        let raw = self.take(4 * n)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NetworkConfig {
        NetworkConfig::mlp(&[4, 3, 2], |l, o, i| (l * 31 + o * 7 + i) as f32 * 0.01)
    }

    #[test]
    fn roundtrip() {
        let config = sample();
        let bytes = config.to_bytes();
        assert_eq!(NetworkConfig::from_bytes(&bytes).unwrap(), config);
    }

    #[test]
    fn validates_shapes() {
        let mut config = sample();
        config.layers[0].weights.pop();
        assert!(matches!(
            config.validate(),
            Err(ConfigCodecError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validates_layer_chaining() {
        let mut config = sample();
        config.layers[1].inputs = 5;
        config.layers[1].weights = vec![0.0; 10];
        assert_eq!(
            config.validate(),
            Err(ConfigCodecError::LayerChainMismatch { layer: 1 })
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            NetworkConfig::from_bytes(b"not a config"),
            Err(ConfigCodecError::BadHeader)
        );
        assert_eq!(
            NetworkConfig::from_bytes(b""),
            Err(ConfigCodecError::Truncated)
        );
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = sample().to_bytes();
        for cut in [5, 9, 14, bytes.len() - 1] {
            assert!(
                NetworkConfig::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_hostile_lengths() {
        // Header declaring 2^30 × 2^30 weights must not allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"NPNC");
        bytes.push(1);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 30).to_le_bytes());
        bytes.push(0);
        assert!(matches!(
            NetworkConfig::from_bytes(&bytes),
            Err(ConfigCodecError::LengthOverflow(_))
        ));
    }

    #[test]
    fn widths() {
        let config = sample();
        assert_eq!(config.input_width(), 4);
        assert_eq!(NetworkConfig::default().input_width(), 0);
    }

    #[test]
    fn activations() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert_eq!(Activation::Linear.apply(-3.5), -3.5);
        assert!((Activation::Saturating.apply(100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mlp_activation_layout() {
        let config = sample();
        assert_eq!(config.layers[0].activation, Activation::Relu);
        assert_eq!(config.layers[1].activation, Activation::Linear);
    }
}
