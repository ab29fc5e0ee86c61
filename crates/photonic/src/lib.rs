// Indexed loops over parallel arrays are the clearest form for the
// numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]

//! Coherent photonic-integrated-circuit simulator — the substituted
//! hardware root of the NEUROPULS reproduction.
//!
//! The paper's security primitives live on a silicon-photonic chip that
//! this workspace cannot fabricate, so this crate simulates it at the
//! transfer-function level (see `DESIGN.md` for the substitution
//! rationale): complex optical fields, directional couplers, phase
//! shifters, microring resonators with time-domain memory, a Mach–Zehnder
//! modulator, square-law photodiodes, TIA and ADC, all perturbed by
//! per-die manufacturing variation and environmental conditions.
//!
//! The crate is intentionally PUF-agnostic: it knows about light, not
//! about challenges and responses. The `neuropuls-puf` crate composes
//! these parts into weak and strong PUFs.
//!
//! # Example — interrogating a die-unique mesh
//!
//! ```
//! use neuropuls_photonic::circuit::{MeshSpec, ScramblerMesh};
//! use neuropuls_photonic::complex::Complex64;
//! use neuropuls_photonic::environment::Environment;
//! use neuropuls_photonic::process::{DieId, DieSampler, ProcessVariation};
//!
//! let mut die = DieSampler::new(DieId(1), ProcessVariation::typical_soi());
//! let mesh = ScramblerMesh::build(MeshSpec::reference(), &mut die);
//! let waveform = vec![Complex64::ONE; 8];
//! let energies = mesh.port_energies(&waveform, 16, &Environment::nominal());
//! assert_eq!(energies.len(), 8);
//! ```

pub mod circuit;
pub mod complex;
pub mod components;
pub mod detector;
pub mod environment;
pub mod laser;
pub mod modulator;
pub mod process;
pub mod ring;

pub use circuit::{MeshSpec, ScramblerMesh};
pub use complex::Complex64;
pub use environment::Environment;
pub use process::{DieId, DieSampler, ProcessVariation};
