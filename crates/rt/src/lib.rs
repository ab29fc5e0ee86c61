//! # neuropuls-rt — the in-repo runtime that keeps the workspace hermetic
//!
//! Every other crate in the workspace depends only on `std` and this
//! crate, so `cargo build --release --offline` succeeds from an empty
//! registry cache. Deterministic, seedable randomness is not just a
//! build convenience: the PUF reliability/uniqueness methodology the
//! repository reproduces (Vinagrero et al.'s CRP filtering, the HSC-IoT
//! mutual-authentication protocol) requires that every experiment be
//! replayable bit-for-bit from a recorded seed.
//!
//! It provides:
//!
//! * [`mod@rng`] — a `rand`-compatible surface ([`Rng`], [`RngCore`],
//!   [`SeedableRng`], [`rngs::StdRng`], [`rngs::SmallRng`]) backed by an
//!   in-tree ChaCha20 keystream and a splitmix64/xoshiro256++ fast path;
//! * [`mod@chacha`] — the ChaCha20 block function behind that keystream
//!   and the crypto crate's cipher;
//! * [`mod@prop`] — a miniature property-testing harness with the
//!   [`proptest!`] macro, strategy combinators and seeded shrinking;
//! * [`mod@codec`] — a no-derive serialization helper
//!   ([`codec::ToBytes`] / [`codec::FromBytes`]) with a versioned header;
//! * [`mod@pool`] — a std-only scoped thread pool (`par_map`,
//!   `NEUROPULS_THREADS` sizing) whose parallel output is byte-identical
//!   to serial execution;
//! * [`mod@sched`] — deterministic discrete-event scheduling (the
//!   [`sched::TimerWheel`] hierarchical timer wheel) driven by an
//!   explicit simulated tick counter;
//! * [`mod@trace`] — structured tracing and metrics ([`trace::Tracer`]
//!   spans/instants with simulated-tick timestamps, [`trace::Registry`]
//!   counters/histograms, JSONL export) whose merged output is
//!   deterministic under the pool.

#![warn(missing_docs)]

pub mod chacha;
pub mod codec;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod sched;
pub mod trace;

pub use rng::{Error, Rng, RngCore, SeedableRng};

/// Named RNG implementations, mirroring `rand::rngs`.
pub mod rngs {
    pub use crate::rng::{SmallRng, StdRng};
}

/// Everything the property tests need: strategies, config, and the
/// assertion/`proptest!` macros.
pub mod prelude {
    pub use crate::prop::{self, any, ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}
