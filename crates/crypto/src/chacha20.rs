//! ChaCha20 stream cipher (RFC 7539 / RFC 8439).
//!
//! Used by the secure NN service (Table I of the paper) to keep the network
//! configuration and the input/output tensors confidential between the
//! external party and the accelerator hardware, so plaintext never reaches
//! the software layer.

use neuropuls_rt::chacha;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// One keystream block: the block function shared with the workspace
/// RNG ([`neuropuls_rt::chacha::block`]), with the RFC 8439 32-bit block
/// counter and 96-bit nonce as the last four state words.
fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let word = |bytes: &[u8]| u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let key: [u32; 8] = core::array::from_fn(|i| word(&key[4 * i..]));
    let tail = [
        counter,
        word(&nonce[..4]),
        word(&nonce[4..8]),
        word(&nonce[8..]),
    ];
    let mut out = [0u8; 64];
    for (bytes, w) in out.chunks_exact_mut(4).zip(chacha::block(&key, tail)) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    out
}

/// ChaCha20 keystream cipher.
///
/// Encryption and decryption are the same XOR operation.
///
/// # Example
///
/// ```
/// use neuropuls_crypto::chacha20::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut data = b"network weights".to_vec();
/// ChaCha20::new(&key, &nonce).apply(&mut data);
/// assert_ne!(&data, b"network weights");
/// ChaCha20::new(&key, &nonce).apply(&mut data);
/// assert_eq!(&data, b"network weights");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    counter: u32,
    keystream: [u8; 64],
    offset: usize,
}

impl ChaCha20 {
    /// Creates a cipher with block counter 1 (the RFC 8439 AEAD convention,
    /// reserving block 0 for a one-time MAC key if needed).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        Self::with_counter(key, nonce, 1)
    }

    /// Creates a cipher starting at an explicit block counter.
    pub fn with_counter(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        ChaCha20 {
            key: *key,
            nonce: *nonce,
            counter,
            keystream: [0; 64],
            offset: 64,
        }
    }

    /// XORs the keystream into `data` in place (encrypts or decrypts).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.offset == 64 {
                self.keystream = block(&self.key, self.counter, &self.nonce);
                self.counter = self.counter.wrapping_add(1);
                self.offset = 0;
            }
            *byte ^= self.keystream[self.offset];
            self.offset += 1;
        }
    }

    /// Convenience: encrypts `plaintext` into a fresh buffer.
    #[must_use]
    pub fn encrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
        let mut out = plaintext.to_vec();
        ChaCha20::new(key, nonce).apply(&mut out);
        out
    }

    /// Convenience: decrypts `ciphertext` into a fresh buffer.
    #[must_use]
    pub fn decrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], ciphertext: &[u8]) -> Vec<u8> {
        Self::encrypt(key, nonce, ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                          only one tip for the future, sunscreen would be it.";
        // The RFC plaintext has no double spaces; normalize ours.
        let plaintext: Vec<u8> = String::from_utf8_lossy(plaintext)
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ")
            .into_bytes();
        let ciphertext = ChaCha20::encrypt(&key, &nonce, &plaintext);
        assert_eq!(
            hex(&ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn roundtrip_across_block_boundaries() {
        let key = [0xAB; 32];
        let nonce = [0x01; 12];
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let ct = ChaCha20::encrypt(&key, &nonce, &data);
        assert_eq!(ChaCha20::decrypt(&key, &nonce, &ct), data);
        assert_ne!(ct, data);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x42; 32];
        let nonce = [0x24; 12];
        let mut a: Vec<u8> = (0..200u8).collect();
        let b = a.clone();
        let mut cipher = ChaCha20::new(&key, &nonce);
        cipher.apply(&mut a[..77]);
        cipher.apply(&mut a[77..]);
        let oneshot = ChaCha20::encrypt(&key, &nonce, &b);
        assert_eq!(a, oneshot);
    }

    #[test]
    fn different_nonce_different_keystream() {
        let key = [9u8; 32];
        let pt = [0u8; 64];
        let a = ChaCha20::encrypt(&key, &[0; 12], &pt);
        let b = ChaCha20::encrypt(&key, &[1; 12], &pt);
        assert_ne!(a, b);
    }
}
