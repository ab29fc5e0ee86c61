// Indexed loops over parallel arrays are the clearest form for the
// numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]

//! From-scratch lightweight cryptographic substrate for the NEUROPULS
//! security layers.
//!
//! The protocols of the paper (mutual authentication, software attestation,
//! encrypted neural-network load/execute, EKE-based authentication and key
//! agreement) only require a small set of primitives: a hash, a MAC, a key
//! derivation function, a stream cipher, a Diffie–Hellman group, an error
//! correcting code and a fuzzy extractor to turn noisy PUF responses into
//! stable keys. All of them are implemented here with no external
//! dependencies so that the whole workspace stays within the allowed crate
//! set.
//!
//! **These implementations are for simulation and research reproduction
//! only; they are not hardened against real-world side channels and must
//! not be used in production.**
//!
//! # Example
//!
//! ```
//! use neuropuls_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"neuropuls");
//! assert_eq!(digest.len(), 32);
//! ```

pub mod chacha20;
pub mod ct;
pub mod ecc;
pub mod error;
pub mod fuzzy;
pub mod hkdf;
pub mod hmac;
pub mod prng;
pub mod sha256;
pub mod x25519;

pub use error::CryptoError;
