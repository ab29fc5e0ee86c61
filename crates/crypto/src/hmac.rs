//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! This is the `MAC(data, key)` function of the paper's mutual
//! authentication protocol (Fig. 4): the Device signs its message with the
//! current PUF response `r_i` as the key, and the Verifier signs the fresh
//! challenge with `r_{i+1}`.

use crate::ct::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};
use crate::CryptoError;

/// Length of an HMAC-SHA-256 tag in bytes.
pub const TAG_LEN: usize = DIGEST_LEN;

/// Incremental HMAC-SHA-256 computation.
///
/// [`new`](Self::new) absorbs the padded key into both the inner and the
/// outer hash, so a keyed instance, cloned, authenticates a message
/// without hashing the key blocks again.
///
/// # Example
///
/// ```
/// use neuropuls_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"response-i", b"message");
/// assert!(HmacSha256::verify(b"response-i", b"message", &tag).is_ok());
///
/// let keyed = HmacSha256::new(b"response-i");
/// let mut mac = keyed.clone();
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), tag);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    /// Shows no hash state: both midstates are as secret as the key.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Creates a MAC instance keyed with `key` (any length; keys longer than
    /// the block size are hashed first, per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = block_key[i] ^ 0x36;
            opad_key[i] = block_key[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the authentication tag.
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// Finishes and checks `tag` against the authentication tag in
    /// constant time.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MacMismatch`] when the tag does not
    /// authenticate the absorbed message.
    pub fn verify_tag(self, tag: &[u8]) -> Result<(), CryptoError> {
        if ct_eq(&self.finalize(), tag) {
            Ok(())
        } else {
            Err(CryptoError::MacMismatch)
        }
    }

    /// One-shot MAC of `data` under `key`.
    pub fn mac(key: &[u8], data: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        mac.finalize()
    }

    /// One-shot MAC over the concatenation of `parts`.
    pub fn mac_parts(key: &[u8], parts: &[&[u8]]) -> [u8; TAG_LEN] {
        let mut mac = HmacSha256::new(key);
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    /// Verifies `tag` against the MAC of `data` under `key` in constant
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MacMismatch`] when the tag does not
    /// authenticate the data.
    pub fn verify(key: &[u8], data: &[u8], tag: &[u8]) -> Result<(), CryptoError> {
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        mac.verify_tag(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::for_each_compression;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks one RFC 4231 vector on every compression build, one-shot
    /// and through a cloned keyed instance.
    fn check_vector(key: &[u8], data: &[u8], want: &str) {
        for_each_compression(|build| {
            assert_eq!(hex(&HmacSha256::mac(key, data)), want, "{build}");
            let mut mac = HmacSha256::new(key).clone();
            mac.update(data);
            assert_eq!(hex(&mac.finalize()), want, "{build}, cloned");
        });
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        check_vector(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    // RFC 4231 test case 2: short ascii key "Jefe".
    #[test]
    fn rfc4231_case2() {
        check_vector(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        check_vector(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // RFC 4231 test case 7: long key and a message longer than a block.
    #[test]
    fn rfc4231_case7_long_key_and_message() {
        check_vector(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn cloned_keyed_state_matches_one_shot_mac() {
        let messages: [&[u8]; 4] = [b"", b"x", &[0x5a; 64], &[0xa5; 200]];
        for key_len in [0, 1, 32, 63, 64, 65, 100, 131] {
            let key: Vec<u8> = (0..key_len as u8).map(|b| b.wrapping_mul(37)).collect();
            let keyed = HmacSha256::new(&key);
            for data in messages {
                let mut mac = keyed.clone();
                mac.update(data);
                assert_eq!(
                    mac.finalize(),
                    HmacSha256::mac(&key, data),
                    "key of {key_len} bytes, message of {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn debug_shows_no_key_state() {
        let rendered = format!("{:?}", HmacSha256::new(&[0x42; 32]));
        assert_eq!(rendered, "HmacSha256 { .. }");
    }

    #[test]
    fn verify_roundtrip_and_reject() {
        let tag = HmacSha256::mac(b"key", b"data");
        assert!(HmacSha256::verify(b"key", b"data", &tag).is_ok());
        assert_eq!(
            HmacSha256::verify(b"key", b"datb", &tag),
            Err(CryptoError::MacMismatch)
        );
        assert_eq!(
            HmacSha256::verify(b"kez", b"data", &tag),
            Err(CryptoError::MacMismatch)
        );
        assert_eq!(
            HmacSha256::verify(b"key", b"data", &tag[..31]),
            Err(CryptoError::MacMismatch)
        );
    }

    #[test]
    fn mac_parts_matches_concat() {
        let concat = HmacSha256::mac(b"k", b"part1part2");
        let parts = HmacSha256::mac_parts(b"k", &[b"part1", b"part2"]);
        assert_eq!(concat, parts);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"da");
        mac.update(b"ta");
        assert_eq!(mac.finalize(), HmacSha256::mac(b"key", b"data"));
    }
}
