//! SHA-256 (FIPS 180-4).
//!
//! Used as the hash of the attestation walk (`HASH(m_i, r_i, h_{i-1})` in
//! §III-B of the paper), inside [`crate::hmac`] for the protocol MACs, and
//! as the strong extractor of the fuzzy extractor.

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use neuropuls_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; BLOCK_LEN],
            buffered: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// One-shot digest over the concatenation of several parts, avoiding an
    /// intermediate allocation. The result is the digest of
    /// `parts\[0\] || parts\[1\] || ...`.
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut hasher = Sha256::new();
        for part in parts {
            hasher.update(part);
        }
        hasher.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = (BLOCK_LEN - self.buffered).min(rest.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == BLOCK_LEN {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let whole = rest.len() - rest.len() % BLOCK_LEN;
        let (blocks, tail) = rest.split_at(whole);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffered = tail.len();
        }
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 64-bit big-endian length; a buffer with
        // no room for the length spills into one more block.
        let length_at = BLOCK_LEN - 8;
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= length_at {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[length_at..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses every whole 64-byte block of `blocks` into `state`, with
/// the SHA-NI build when the CPU has it and the scalar one otherwise.
/// Both are bit-identical; the scalar build is the test oracle.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED.with(std::cell::Cell::get) {
        return forced(state, blocks);
    }
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        // SAFETY: `compress_sha_ni` only requires the CPU to support the
        // SHA, SSE2, SSSE3 and SSE4.1 extensions, all just detected.
        return unsafe { compress_sha_ni(state, blocks) };
    }
    compress_scalar(state, blocks);
}

/// Whether the CPU runs [`compress_sha_ni`].
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    use std::arch::is_x86_feature_detected;
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The FIPS 180-4 compression function, one block at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The compression function on the x86 SHA extensions: each
/// `sha256rnds2` runs two rounds on the state held as the `ABEF` and
/// `CDGH` register pair, and `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time.
///
/// # Safety
///
/// Callers outside a context with these target features must first
/// check that the CPU supports SHA, SSE2, SSSE3 and SSE4.1
/// ([`has_sha_ni`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let words: *mut __m128i = state.as_mut_ptr().cast();
    // SAFETY: `state` is 32 bytes, exactly two unaligned 16-byte loads.
    let (dcba, hgfe) = unsafe { (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1))) };
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let bytes: *const __m128i = block.as_ptr().cast();
        // SAFETY: `block` is 64 bytes, exactly four unaligned 16-byte
        // loads.
        let mut w = unsafe {
            [
                _mm_loadu_si128(bytes),
                _mm_loadu_si128(bytes.add(1)),
                _mm_loadu_si128(bytes.add(2)),
                _mm_loadu_si128(bytes.add(3)),
            ]
        };
        for word in &mut w {
            *word = _mm_shuffle_epi8(*word, be_words);
        }
        for i in 0..16 {
            if i >= 4 {
                // W[4i..4i+4] from the sixteen words before them, held
                // oldest-first from slot i % 4.
                let t = _mm_sha256msg1_epu32(w[i % 4], w[(i + 1) % 4]);
                let t = _mm_add_epi32(t, _mm_alignr_epi8(w[(i + 3) % 4], w[(i + 2) % 4], 4));
                w[i % 4] = _mm_sha256msg2_epu32(t, w[(i + 3) % 4]);
            }
            // SAFETY: i < 16, so K[4i..4i + 4] is in bounds.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * i).cast()) };
            let wk = _mm_add_epi32(w[i % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: as for the loads above: two 16-byte stores into 32 bytes.
    unsafe {
        _mm_storeu_si128(words, dcba);
        _mm_storeu_si128(words.add(1), hgef);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use neuropuls_rt::rngs::SmallRng;
    use neuropuls_rt::{Rng, RngCore, SeedableRng};
    use std::cell::Cell;

    type Compress = fn(&mut [u32; 8], &[u8]);

    thread_local! {
        /// A compression build every `Sha256` on this thread uses instead
        /// of the dispatcher, so the vectors of the modules built on top
        /// reach each build.
        pub(super) static FORCED: Cell<Option<Compress>> = const { Cell::new(None) };
    }

    #[cfg(target_arch = "x86_64")]
    fn sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(has_sha_ni());
        // SAFETY: the CPU features were asserted on the line above.
        unsafe { compress_sha_ni(state, blocks) }
    }

    /// The SHA-NI build, when this host can run it.
    fn sha_ni_build() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if has_sha_ni() {
            return Some(sha_ni);
        }
        None
    }

    /// Runs `check` once per compression build this host can run: the
    /// dispatcher, the scalar oracle called directly, and SHA-NI when
    /// the CPU has it.
    pub(crate) fn for_each_compression(check: impl Fn(&str)) {
        let mut builds: Vec<(&str, Option<Compress>)> =
            vec![("dispatch", None), ("scalar", Some(compress_scalar))];
        if let Some(f) = sha_ni_build() {
            builds.push(("sha-ni", Some(f)));
        }
        for (name, build) in builds {
            FORCED.with(|forced| forced.set(build));
            check(name);
            FORCED.with(|forced| forced.set(None));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn check_vector(data: &[u8], want: &str) {
        for_each_compression(|build| {
            assert_eq!(hex(&Sha256::digest(data)), want, "{build}");
            let mut hasher = Sha256::new();
            for byte in data.iter().take(130) {
                hasher.update(std::slice::from_ref(byte));
            }
            hasher.update(&data[data.len().min(130)..]);
            assert_eq!(hex(&hasher.finalize()), want, "{build}, bytewise");
        });
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 17, 63, 64, 65, 999, 1000] {
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    #[test]
    fn digest_parts_matches_concat() {
        let a = b"attestation".as_slice();
        let b = b"walk".as_slice();
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        assert_eq!(Sha256::digest_parts(&[a, b]), Sha256::digest(&concat));
    }

    /// FIPS 180-4 padding, spelled out, over `compress` called directly.
    fn padded_digest(compress: Compress, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &padded);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn padding_matches_spelled_out_padding_at_every_length() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3 * BLOCK_LEN).collect();
        for len in 0..=data.len() {
            let want = padded_digest(compress_scalar, &data[..len]);
            assert_eq!(Sha256::digest(&data[..len]), want, "length {len}");
        }
    }

    /// Scalar against SHA-NI on random states and multi-block inputs,
    /// and on whole digests of random lengths fed in random pieces, so
    /// every offset of a block boundary is crossed.
    #[test]
    fn sha_ni_matches_scalar_on_random_inputs() {
        let Some(sha_ni) = sha_ni_build() else {
            println!("note: this CPU lacks the SHA extensions; the SHA-NI half is skipped");
            return;
        };
        let cases = if cfg!(debug_assertions) {
            20_000
        } else {
            1_000_000
        };
        let mut rng = SmallRng::seed_from_u64(0x5EED_5A25);
        let mut data = vec![0u8; 4 * BLOCK_LEN];
        for case in 0..cases {
            let len = rng.gen_range(0..=data.len());
            rng.fill_bytes(&mut data[..len]);
            if case % 2 == 0 {
                let mut state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
                let mut twin = state;
                let whole = len - len % BLOCK_LEN;
                compress_scalar(&mut state, &data[..whole]);
                sha_ni(&mut twin, &data[..whole]);
                assert_eq!(state, twin, "case {case}: {whole} bytes");
            } else {
                let split = rng.gen_range(0..=len);
                let mut hasher = Sha256::new();
                FORCED.with(|forced| forced.set(Some(sha_ni)));
                hasher.update(&data[..split]);
                hasher.update(&data[split..len]);
                let got = hasher.finalize();
                FORCED.with(|forced| forced.set(None));
                let want = padded_digest(compress_scalar, &data[..len]);
                assert_eq!(got, want, "case {case}: {len} bytes split at {split}");
            }
        }
    }
}
