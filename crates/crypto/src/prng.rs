//! Deterministic cryptographic pseudo-random generator.
//!
//! The mutual authentication protocol of the paper derives the next
//! challenge from the current response, `c_{i+1} = RNG(r_i)`, with an RNG
//! "known to both participants". [`CsPrng`] is that function: a ChaCha20
//! keystream generator seeded from arbitrary bytes through HKDF, so both
//! the Device and the Verifier derive identical challenge streams from the
//! shared response.

use crate::chacha20::ChaCha20;
use crate::hkdf;
use neuropuls_rt::RngCore;

/// ChaCha20-based deterministic CSPRNG.
///
/// # Example
///
/// ```
/// use neuropuls_crypto::prng::CsPrng;
///
/// let mut device = CsPrng::from_seed_bytes(b"response-i");
/// let mut verifier = CsPrng::from_seed_bytes(b"response-i");
/// assert_eq!(device.next_bytes(16), verifier.next_bytes(16));
/// ```
#[derive(Debug, Clone)]
pub struct CsPrng {
    cipher: ChaCha20,
}

impl CsPrng {
    /// Seeds the generator from arbitrary bytes (e.g. a PUF response).
    ///
    /// The seed is stretched through HKDF so that short or biased seeds
    /// still key the full ChaCha20 state; two different seeds of any length
    /// produce independent streams.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        let mut key = [0u8; 32];
        // HKDF with a fixed domain-separation label; cannot fail for 32 B.
        hkdf::derive(b"neuropuls/prng", seed, b"seed-expansion", &mut key)
            .expect("32-byte HKDF output is always valid");
        CsPrng {
            cipher: ChaCha20::new(&key, &[0u8; 12]),
        }
    }

    /// Returns the next `n` pseudo-random bytes.
    pub fn next_bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = vec![0u8; n];
        self.cipher.apply(&mut out);
        out
    }

    /// Fills `buf` with pseudo-random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        buf.iter_mut().for_each(|b| *b = 0);
        self.cipher.apply(buf);
    }

    /// Returns a uniformly distributed `u64` below `bound` (rejection
    /// sampling, so the distribution is exactly uniform).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

impl RngCore for CsPrng {
    fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.fill(&mut buf);
        u32::from_le_bytes(buf)
    }

    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill(&mut buf);
        u64::from_le_bytes(buf)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.fill(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), neuropuls_rt::Error> {
        self.fill(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = CsPrng::from_seed_bytes(b"seed");
        let mut b = CsPrng::from_seed_bytes(b"seed");
        assert_eq!(a.next_bytes(100), b.next_bytes(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = CsPrng::from_seed_bytes(b"seed-a");
        let mut b = CsPrng::from_seed_bytes(b"seed-b");
        assert_ne!(a.next_bytes(32), b.next_bytes(32));
    }

    #[test]
    fn stream_is_stateful() {
        let mut prng = CsPrng::from_seed_bytes(b"s");
        let first = prng.next_bytes(16);
        let second = prng.next_bytes(16);
        assert_ne!(first, second);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut prng = CsPrng::from_seed_bytes(b"bound");
        for _ in 0..1000 {
            assert!(prng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_below_covers_range() {
        let mut prng = CsPrng::from_seed_bytes(b"coverage");
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[prng.next_below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rngcore_interface_works() {
        let mut prng = CsPrng::from_seed_bytes(b"rngcore");
        let a = prng.next_u32();
        let b = prng.next_u32();
        assert_ne!((a, b), (0, 0));
        let mut buf = [0u8; 33];
        prng.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 33]);
    }

    #[test]
    fn rough_uniformity_of_bytes() {
        let mut prng = CsPrng::from_seed_bytes(b"uniform");
        let bytes = prng.next_bytes(100_000);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let total = bytes.len() as f64 * 8.0;
        let fraction = f64::from(ones) / total;
        assert!((fraction - 0.5).abs() < 0.01, "bit bias {fraction}");
    }
}
