// Indexed loops over parallel arrays are the clearest form for the
// numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]

//! PUF quality metrics and statistical tests.
//!
//! Implements the full metric set the paper's §II and §V call for:
//! fractional Hamming distance statistics (uniqueness, reliability),
//! uniformity, bit-aliasing entropy (the y-axis of Fig. 3), a
//! min-entropy estimator, a NIST SP 800-22 test battery subset, and
//! FAR/FRR analysis.
//!
//! Bit strings are represented one bit per byte (`0`/`1`), which keeps
//! every estimator trivially auditable.
//!
//! # Example
//!
//! ```
//! use neuropuls_metrics::quality::uniqueness;
//!
//! let devices = vec![vec![0, 1, 1, 0], vec![1, 1, 0, 0], vec![0, 0, 1, 1]];
//! let u = uniqueness(&devices);
//! assert!(u.mean > 0.0 && u.mean < 1.0);
//! ```

pub mod bitstats;
pub mod entropy;
pub mod far_frr;
pub mod fft;
pub mod nist;
pub mod quality;
pub mod special;

pub use quality::{quality_report, MetricSummary, QualityReport};
