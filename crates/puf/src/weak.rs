//! Weak photonic PUF for key generation (Fig. 1, left branch).
//!
//! A weak PUF is simply a strong primitive restricted to a small, fixed,
//! public challenge set: the device always interrogates the same
//! challenges and concatenates the responses into a long *key response*,
//! which the fuzzy extractor (in `neuropuls-crypto`) turns into a stable
//! secret key for the encryption services of §III-C.

use crate::bits::{Challenge, Response};
use crate::traits::{Puf, PufError, PufKind};
use neuropuls_photonic::Environment;
use neuropuls_rt::rngs::StdRng;
use neuropuls_rt::SeedableRng;

/// A weak PUF view over any strong PUF: a fixed challenge set whose
/// concatenated responses form the key material.
#[derive(Debug)]
pub struct WeakPuf<P: Puf> {
    inner: P,
    challenges: Vec<Challenge>,
}

impl<P: Puf> WeakPuf<P> {
    /// Restricts `inner` to a deterministic public challenge set of
    /// `count` challenges derived from `derivation_seed` (the same seed
    /// must be used at enrollment and in the field).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn with_derived_challenges(inner: P, count: usize, derivation_seed: u64) -> Self {
        assert!(count > 0, "weak PUF needs at least one challenge");
        let mut rng = StdRng::seed_from_u64(derivation_seed);
        let challenges = (0..count)
            .map(|_| Challenge::random(inner.challenge_bits(), &mut rng))
            .collect();
        WeakPuf { inner, challenges }
    }

    /// The fixed challenge set (public).
    pub fn challenges(&self) -> &[Challenge] {
        &self.challenges
    }

    /// Total key-response width in bits.
    pub fn key_bits(&self) -> usize {
        self.challenges.len() * self.inner.response_bits()
    }

    /// Reads the full key response (one noisy evaluation per fixed
    /// challenge, concatenated).
    ///
    /// # Errors
    ///
    /// Propagates inner PUF errors.
    pub fn read_key_response(&mut self) -> Result<Response, PufError> {
        let mut bits = Vec::with_capacity(self.key_bits());
        for c in &self.challenges {
            bits.extend_from_slice(self.inner.respond(c)?.bits());
        }
        Ok(Response::from_bits(bits))
    }

    /// Majority-voted golden key response over `reads` full readings.
    ///
    /// # Errors
    ///
    /// Propagates inner PUF errors.
    pub fn golden_key_response(&mut self, reads: usize) -> Result<Response, PufError> {
        let readings: Result<Vec<Response>, PufError> =
            (0..reads).map(|_| self.read_key_response()).collect();
        Ok(Response::majority(&readings?))
    }
}

impl<P: Puf> Puf for WeakPuf<P> {
    /// Challenge = index into the fixed set.
    fn challenge_bits(&self) -> usize {
        usize::BITS as usize - (self.challenges.len() - 1).leading_zeros() as usize
    }

    fn response_bits(&self) -> usize {
        self.inner.response_bits()
    }

    fn kind(&self) -> PufKind {
        PufKind::Weak
    }

    fn respond(&mut self, challenge: &Challenge) -> Result<Response, PufError> {
        let mut idx = 0usize;
        for (i, &bit) in challenge.bits().iter().enumerate() {
            if i >= usize::BITS as usize {
                break;
            }
            idx |= (bit as usize) << i;
        }
        let fixed = self
            .challenges
            .get(idx)
            .ok_or_else(|| {
                PufError::ChallengeOutOfRange(format!("index {idx} of {}", self.challenges.len()))
            })?
            .clone();
        self.inner.respond(&fixed)
    }

    fn set_environment(&mut self, env: Environment) {
        self.inner.set_environment(env);
    }

    fn environment(&self) -> Environment {
        self.inner.environment()
    }

    fn latency_ns(&self) -> f64 {
        self.inner.latency_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::photonic::PhotonicPuf;
    use neuropuls_photonic::process::DieId;

    fn weak(die: u64) -> WeakPuf<PhotonicPuf> {
        WeakPuf::with_derived_challenges(PhotonicPuf::reference(DieId(die), die + 50), 4, 0xABCD)
    }

    #[test]
    fn key_width() {
        let w = weak(1);
        assert_eq!(w.key_bits(), 4 * 64);
        assert_eq!(w.kind(), PufKind::Weak);
    }

    #[test]
    fn key_response_is_mostly_stable() {
        let mut w = weak(2);
        let golden = w.golden_key_response(7).unwrap();
        let reread = w.read_key_response().unwrap();
        assert!(
            golden.fhd(&reread) < 0.12,
            "key FHD {}",
            golden.fhd(&reread)
        );
    }

    #[test]
    fn different_dies_give_different_keys() {
        let mut a = weak(3);
        let mut b = weak(4);
        let fhd = a
            .golden_key_response(5)
            .unwrap()
            .fhd(&b.golden_key_response(5).unwrap());
        assert!(fhd > 0.25, "inter-die key FHD {fhd}");
    }

    #[test]
    fn same_derivation_seed_same_challenge_set() {
        let a = weak(5);
        let b = weak(6);
        assert_eq!(a.challenges(), b.challenges());
    }

    #[test]
    fn respond_indexes_fixed_set() {
        // Five challenges → 3 index bits → indices 5..=7 are invalid.
        let mut w =
            WeakPuf::with_derived_challenges(PhotonicPuf::reference(DieId(7), 57), 5, 0xABCD);
        let r = w
            .respond(&Challenge::from_u64(2, w.challenge_bits()))
            .unwrap();
        assert_eq!(r.len(), 64);
        let beyond = Challenge::from_u64(6, w.challenge_bits());
        assert!(w.respond(&beyond).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one challenge")]
    fn empty_set_rejected() {
        let _ = WeakPuf::with_derived_challenges(PhotonicPuf::reference(DieId(8), 1), 0, 1);
    }
}
