//! Code-offset fuzzy extractor (Dodis et al. construction).
//!
//! Weak-PUF responses are noisy: re-reading the same device yields the
//! enrolled response with a few bits flipped. The fuzzy extractor turns
//! such a noisy source into a *stable* cryptographic key:
//!
//! * **Generate** (at enrollment): pick a random codeword `c`, publish the
//!   helper data `w = response ⊕ c`, and output the key
//!   `K = HKDF(response)`.
//! * **Reproduce** (in the field): given a noisy reading `response'`,
//!   compute `c' = response' ⊕ w`, decode it back to `c`, recover
//!   `response = w ⊕ c`, and re-derive the same `K`.
//!
//! The helper data `w` is public: it reveals at most the code's redundancy
//! about the response, which the entropy analysis in experiment E10
//! accounts for.

use crate::ecc::BlockCode;
use crate::hkdf;
use crate::prng::CsPrng;
use crate::CryptoError;
use neuropuls_rt::RngCore;

/// Length of derived keys in bytes.
pub const KEY_LEN: usize = 32;

/// Public helper data produced at enrollment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelperData {
    /// `response ⊕ codeword`, safe to store publicly.
    pub offset: Vec<u8>,
    /// Salt for the key-derivation step.
    pub salt: [u8; 16],
}

/// A stable key plus the helper data needed to reproduce it.
#[derive(Debug, Clone)]
pub struct Enrollment {
    /// The extracted key.
    pub key: [u8; KEY_LEN],
    /// Helper data to publish alongside the device.
    pub helper: HelperData,
}

/// Code-offset fuzzy extractor over a [`BlockCode`].
///
/// # Example
///
/// ```
/// use neuropuls_crypto::ecc::ConcatenatedCode;
/// use neuropuls_crypto::fuzzy::FuzzyExtractor;
/// use neuropuls_crypto::prng::CsPrng;
///
/// # fn main() -> Result<(), neuropuls_crypto::CryptoError> {
/// let extractor = FuzzyExtractor::new(ConcatenatedCode::new(3));
/// let response: Vec<u8> = (0..84).map(|i| (i % 3 == 0) as u8).collect();
/// let mut rng = CsPrng::from_seed_bytes(b"enroll");
/// let enrolled = extractor.generate(&response, &mut rng)?;
///
/// // Later, a noisy re-reading with one flipped bit still gives the key.
/// let mut noisy = response.clone();
/// noisy[10] ^= 1;
/// let key = extractor.reproduce(&noisy, &enrolled.helper)?;
/// assert_eq!(key, enrolled.key);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FuzzyExtractor<C: BlockCode> {
    code: C,
}

impl<C: BlockCode> FuzzyExtractor<C> {
    /// Wraps a block code into a fuzzy extractor.
    pub fn new(code: C) -> Self {
        FuzzyExtractor { code }
    }

    /// Returns the underlying code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Enrolls a response (bits stored one per byte).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `response.len()` is not a
    /// multiple of the code's block length.
    pub fn generate(&self, response: &[u8], rng: &mut CsPrng) -> Result<Enrollment, CryptoError> {
        if response.is_empty() || !response.len().is_multiple_of(self.code.code_bits()) {
            return Err(CryptoError::InvalidLength {
                expected: self.code.code_bits(),
                actual: response.len() % self.code.code_bits().max(1),
            });
        }
        let blocks = response.len() / self.code.code_bits();
        let data_len = blocks * self.code.data_bits();
        let mut secret = vec![0u8; data_len];
        for bit in secret.iter_mut() {
            *bit = (rng.next_u32() & 1) as u8;
        }
        let codeword = self.code.encode(&secret)?;
        let offset: Vec<u8> = response
            .iter()
            .zip(codeword.iter())
            .map(|(&r, &c)| (r ^ c) & 1)
            .collect();

        let mut salt = [0u8; 16];
        rng.fill(&mut salt);

        let key = derive_key(response, &salt)?;
        Ok(Enrollment {
            key,
            helper: HelperData { offset, salt },
        })
    }

    /// Reproduces the enrolled key from a noisy re-reading.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if the reading length does
    /// not match the helper data, or [`CryptoError::ReproductionFailed`]
    /// if decoding cannot recover a consistent codeword.
    pub fn reproduce(
        &self,
        noisy_response: &[u8],
        helper: &HelperData,
    ) -> Result<[u8; KEY_LEN], CryptoError> {
        if noisy_response.len() != helper.offset.len() {
            return Err(CryptoError::InvalidLength {
                expected: helper.offset.len(),
                actual: noisy_response.len(),
            });
        }
        let noisy_codeword: Vec<u8> = noisy_response
            .iter()
            .zip(helper.offset.iter())
            .map(|(&r, &w)| (r ^ w) & 1)
            .collect();
        let secret = self
            .code
            .decode(&noisy_codeword)
            .map_err(|_| CryptoError::ReproductionFailed)?;
        let codeword = self
            .code
            .encode(&secret)
            .map_err(|_| CryptoError::ReproductionFailed)?;
        let recovered: Vec<u8> = codeword
            .iter()
            .zip(helper.offset.iter())
            .map(|(&c, &w)| (c ^ w) & 1)
            .collect();
        derive_key(&recovered, &helper.salt)
    }
}

/// Code-offset *secure sketch*: recovers the exact enrolled bit string
/// from a noisy re-reading (the fuzzy extractor without the key
/// derivation step). The mutual-authentication protocol uses it to
/// canonicalize fresh PUF responses on-device, so the MAC keys match the
/// verifier's stored copy bit-for-bit.
#[derive(Debug, Clone)]
pub struct SecureSketch<C: BlockCode> {
    code: C,
}

impl<C: BlockCode> SecureSketch<C> {
    /// Wraps a block code.
    pub fn new(code: C) -> Self {
        SecureSketch { code }
    }

    /// The underlying code.
    pub fn code(&self) -> &C {
        &self.code
    }

    /// Largest multiple of the code block length not exceeding `bits`.
    pub fn usable_bits(&self, bits: usize) -> usize {
        bits / self.code.code_bits() * self.code.code_bits()
    }

    /// Produces public helper data for `bits` (length must be a block
    /// multiple).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] on a bad length.
    pub fn sketch(&self, bits: &[u8], rng: &mut CsPrng) -> Result<Vec<u8>, CryptoError> {
        if bits.is_empty() || !bits.len().is_multiple_of(self.code.code_bits()) {
            return Err(CryptoError::InvalidLength {
                expected: self.code.code_bits(),
                actual: bits.len() % self.code.code_bits().max(1),
            });
        }
        let blocks = bits.len() / self.code.code_bits();
        let mut secret = vec![0u8; blocks * self.code.data_bits()];
        for bit in secret.iter_mut() {
            *bit = (rng.next_u32() & 1) as u8;
        }
        let codeword = self.code.encode(&secret)?;
        Ok(bits
            .iter()
            .zip(codeword.iter())
            .map(|(&r, &c)| (r ^ c) & 1)
            .collect())
    }

    /// Recovers the enrolled bits from a noisy re-reading and helper
    /// data.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] on length mismatch or
    /// [`CryptoError::ReproductionFailed`] when decoding fails.
    pub fn recover(&self, noisy: &[u8], helper: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if noisy.len() != helper.len() {
            return Err(CryptoError::InvalidLength {
                expected: helper.len(),
                actual: noisy.len(),
            });
        }
        let noisy_codeword: Vec<u8> = noisy
            .iter()
            .zip(helper.iter())
            .map(|(&r, &w)| (r ^ w) & 1)
            .collect();
        let secret = self
            .code
            .decode(&noisy_codeword)
            .map_err(|_| CryptoError::ReproductionFailed)?;
        let codeword = self
            .code
            .encode(&secret)
            .map_err(|_| CryptoError::ReproductionFailed)?;
        Ok(codeword
            .iter()
            .zip(helper.iter())
            .map(|(&c, &w)| (c ^ w) & 1)
            .collect())
    }
}

fn derive_key(response_bits: &[u8], salt: &[u8]) -> Result<[u8; KEY_LEN], CryptoError> {
    // Pack the bits so the KDF input does not depend on the in-memory
    // representation.
    let mut packed = vec![0u8; response_bits.len().div_ceil(8)];
    for (i, &bit) in response_bits.iter().enumerate() {
        packed[i / 8] |= (bit & 1) << (i % 8);
    }
    let mut key = [0u8; KEY_LEN];
    hkdf::derive(salt, &packed, b"neuropuls/fuzzy-extractor", &mut key)?;
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::{ConcatenatedCode, RepetitionCode};

    fn response(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 7 + 3) % 5 < 2) as u8).collect()
    }

    #[test]
    fn exact_rereading_reproduces_key() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(5));
        let resp = response(100);
        let mut rng = CsPrng::from_seed_bytes(b"t1");
        let enrolled = fx.generate(&resp, &mut rng).unwrap();
        let key = fx.reproduce(&resp, &enrolled.helper).unwrap();
        assert_eq!(key, enrolled.key);
    }

    #[test]
    fn noisy_rereading_within_capacity_reproduces_key() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(5));
        let resp = response(100);
        let mut rng = CsPrng::from_seed_bytes(b"t2");
        let enrolled = fx.generate(&resp, &mut rng).unwrap();
        let mut noisy = resp.clone();
        // Two flips in each 5-bit block are correctable.
        noisy[0] ^= 1;
        noisy[1] ^= 1;
        noisy[97] ^= 1;
        let key = fx.reproduce(&noisy, &enrolled.helper).unwrap();
        assert_eq!(key, enrolled.key);
    }

    #[test]
    fn excessive_noise_changes_key() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(3));
        let resp = response(30);
        let mut rng = CsPrng::from_seed_bytes(b"t3");
        let enrolled = fx.generate(&resp, &mut rng).unwrap();
        let mut noisy = resp.clone();
        noisy[0] ^= 1;
        noisy[1] ^= 1; // majority in block 0 flips
        let key = fx.reproduce(&noisy, &enrolled.helper).unwrap();
        assert_ne!(key, enrolled.key);
    }

    #[test]
    fn helper_data_mismatch_is_rejected() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(3));
        let resp = response(30);
        let mut rng = CsPrng::from_seed_bytes(b"t4");
        let enrolled = fx.generate(&resp, &mut rng).unwrap();
        let short = &resp[..27];
        assert!(fx.reproduce(short, &enrolled.helper).is_err());
    }

    #[test]
    fn generate_validates_length() {
        let fx = FuzzyExtractor::new(RepetitionCode::new(3));
        let mut rng = CsPrng::from_seed_bytes(b"t5");
        assert!(fx.generate(&response(31), &mut rng).is_err());
        assert!(fx.generate(&[], &mut rng).is_err());
    }

    #[test]
    fn different_devices_get_different_keys() {
        let fx = FuzzyExtractor::new(ConcatenatedCode::new(3));
        let mut rng = CsPrng::from_seed_bytes(b"t6");
        let a = fx.generate(&response(84), &mut rng).unwrap();
        let other: Vec<u8> = response(84).iter().map(|b| b ^ 1).collect();
        let b = fx.generate(&other, &mut rng).unwrap();
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn sketch_recovers_exact_bits() {
        let sketch = SecureSketch::new(RepetitionCode::new(5));
        let bits = response(100);
        let mut rng = CsPrng::from_seed_bytes(b"sketch");
        let helper = sketch.sketch(&bits, &mut rng).unwrap();
        let mut noisy = bits.clone();
        noisy[3] ^= 1;
        noisy[44] ^= 1;
        assert_eq!(sketch.recover(&noisy, &helper).unwrap(), bits);
    }

    #[test]
    fn sketch_usable_bits_rounds_down() {
        let sketch = SecureSketch::new(ConcatenatedCode::new(3));
        assert_eq!(sketch.usable_bits(64), 63);
        assert_eq!(sketch.usable_bits(21), 21);
        assert_eq!(sketch.usable_bits(20), 0);
    }

    #[test]
    fn sketch_rejects_bad_lengths() {
        let sketch = SecureSketch::new(RepetitionCode::new(3));
        let mut rng = CsPrng::from_seed_bytes(b"bad");
        assert!(sketch.sketch(&[1, 0], &mut rng).is_err());
        let helper = sketch.sketch(&response(30), &mut rng).unwrap();
        assert!(sketch.recover(&response(27), &helper).is_err());
    }

    #[test]
    fn concatenated_code_handles_burst_of_flips() {
        let fx = FuzzyExtractor::new(ConcatenatedCode::new(5));
        let resp = response(35 * 4);
        let mut rng = CsPrng::from_seed_bytes(b"t7");
        let enrolled = fx.generate(&resp, &mut rng).unwrap();
        let mut noisy = resp.clone();
        // Flip two bits in every 5-bit repetition group of the first block.
        for g in 0..7 {
            noisy[g * 5] ^= 1;
            noisy[g * 5 + 1] ^= 1;
        }
        let key = fx.reproduce(&noisy, &enrolled.helper).unwrap();
        assert_eq!(key, enrolled.key);
    }
}
