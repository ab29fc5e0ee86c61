// Indexed loops over parallel arrays are the clearest form for the
// numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]

//! Neuromorphic photonic accelerator model — the asset the NEUROPULS
//! security layers protect.
//!
//! Two pieces:
//!
//! * [`config::NetworkConfig`] — the confidential network description
//!   with its binary wire codec (the payload of `load_network` in
//!   Table I of the paper);
//! * [`engine::PhotonicEngine`] — an MZI-crossbar inference engine with
//!   PCM weight quantization, analog MAC noise, drift, and
//!   energy/latency accounting.
//!
//! # Example
//!
//! ```
//! use neuropuls_accel::config::NetworkConfig;
//! use neuropuls_accel::engine::PhotonicEngine;
//!
//! # fn main() -> Result<(), neuropuls_accel::engine::EngineError> {
//! let network = NetworkConfig::mlp(&[4, 2], |_, o, i| if o == i { 1.0 } else { 0.0 });
//! let mut engine = PhotonicEngine::reference(7);
//! engine.load(network)?;
//! let output = engine.infer(&[1.0, 0.0, 0.0, 0.0])?;
//! assert_eq!(output.len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod engine;

pub use config::{Activation, LayerConfig, NetworkConfig};
pub use engine::{AnalogModel, EngineError, EngineStats, PhotonicEngine};
