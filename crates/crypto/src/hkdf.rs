//! HKDF-SHA-256 (RFC 5869).
//!
//! Key derivation for session keys: the EKE-based AKA of §IV derives
//! encryption and MAC keys from the agreed Diffie–Hellman secret, and the
//! fuzzy extractor uses HKDF as its strong randomness extractor.

use crate::hmac::{HmacSha256, TAG_LEN};
use crate::CryptoError;

/// Extracts a pseudorandom key from input keying material `ikm` using
/// `salt` (may be empty).
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; TAG_LEN] {
    HmacSha256::mac(salt, ikm)
}

/// Expands `prk` into `out.len()` bytes of output keying material bound to
/// `info`.
///
/// # Errors
///
/// Returns [`CryptoError::InvalidLength`] if more than `255 * 32` bytes are
/// requested (the RFC 5869 limit).
pub fn expand(prk: &[u8; TAG_LEN], info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
    const MAX: usize = 255 * TAG_LEN;
    if out.len() > MAX {
        return Err(CryptoError::InvalidLength {
            expected: MAX,
            actual: out.len(),
        });
    }
    // T(i) = HMAC(prk, T(i-1) ‖ info ‖ i), with T(0) empty.
    let keyed = HmacSha256::new(prk);
    let mut block = [0u8; TAG_LEN];
    for (counter, chunk) in (1..=u8::MAX).zip(out.chunks_mut(TAG_LEN)) {
        let mut mac = keyed.clone();
        if counter > 1 {
            mac.update(&block);
        }
        mac.update(info);
        mac.update(&[counter]);
        block = mac.finalize();
        chunk.copy_from_slice(&block[..chunk.len()]);
    }
    Ok(())
}

/// One-call extract-then-expand.
///
/// # Errors
///
/// See [`expand`].
///
/// # Example
///
/// ```
/// use neuropuls_crypto::hkdf;
///
/// # fn main() -> Result<(), neuropuls_crypto::CryptoError> {
/// let mut session_key = [0u8; 32];
/// hkdf::derive(b"salt", b"shared-secret", b"neuropuls/session", &mut session_key)?;
/// # Ok(())
/// # }
/// ```
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) -> Result<(), CryptoError> {
    let prk = extract(salt, ikm);
    expand(&prk, info, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::for_each_compression;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case1() {
        for_each_compression(|build| {
            let ikm = [0x0b; 22];
            let salt: Vec<u8> = (0x00..=0x0c).collect();
            let info: Vec<u8> = (0xf0..=0xf9).collect();
            let prk = extract(&salt, &ikm);
            assert_eq!(
                hex(&prk),
                "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
                "{build}"
            );
            let mut okm = [0u8; 42];
            expand(&prk, &info, &mut okm).unwrap();
            assert_eq!(
                hex(&okm),
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865",
                "{build}"
            );
        });
    }

    // RFC 5869 test case 2: 80-byte salt, ikm and info, three blocks.
    #[test]
    fn rfc5869_case2_long_inputs() {
        for_each_compression(|build| {
            let ikm: Vec<u8> = (0x00..=0x4f).collect();
            let salt: Vec<u8> = (0x60..=0xaf).collect();
            let info: Vec<u8> = (0xb0..=0xff).collect();
            let mut okm = [0u8; 82];
            derive(&salt, &ikm, &info, &mut okm).unwrap();
            assert_eq!(
                hex(&okm),
                "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
                 59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
                 cc30c58179ec3e87c14c01d5c1f3434f1d87",
                "{build}"
            );
        });
    }

    // RFC 5869 test case 3: zero-length salt and info.
    #[test]
    fn rfc5869_case3() {
        for_each_compression(|build| {
            let ikm = [0x0b; 22];
            let mut okm = [0u8; 42];
            derive(&[], &ikm, &[], &mut okm).unwrap();
            assert_eq!(
                hex(&okm),
                "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8",
                "{build}"
            );
        });
    }

    #[test]
    fn longest_output_counts_to_255() {
        let prk = [0x33; 32];
        let mut okm = vec![0u8; 255 * TAG_LEN];
        expand(&prk, b"info", &mut okm).unwrap();
        // Block 255 is HMAC(prk, T(254) ‖ info ‖ 0xff).
        let last = HmacSha256::mac_parts(
            &prk,
            &[&okm[253 * TAG_LEN..254 * TAG_LEN], b"info", &[0xff]],
        );
        assert_eq!(okm[254 * TAG_LEN..], last);
    }

    #[test]
    fn rejects_oversized_request() {
        let prk = [0u8; 32];
        let mut okm = vec![0u8; 255 * 32 + 1];
        assert!(expand(&prk, b"", &mut okm).is_err());
    }

    #[test]
    fn different_info_different_keys() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"s", b"ikm", b"enc", &mut a).unwrap();
        derive(b"s", b"ikm", b"mac", &mut b).unwrap();
        assert_ne!(a, b);
    }
}
