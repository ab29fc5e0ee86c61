//! The ChaCha20 block function (RFC 8439), shared by [`crate::rngs::StdRng`]
//! and the `neuropuls-crypto` stream cipher.
//!
//! Two cores compute the same function:
//!
//! * [`block`] — one block, scalar. The cipher calls it with the RFC 8439
//!   layout (32-bit counter and 96-bit nonce in the last four state
//!   words), so the RFC vectors in the crypto crate test it.
//! * `blocks8` — eight consecutive blocks of a zero-nonce, 64-bit
//!   counter stream, the layout [`crate::rngs::StdRng`] uses. The eight
//!   blocks are computed lane-wise: state word `i` of all eight blocks is
//!   one `[u32; 8]`, and every quarter-round step is a plain loop over the
//!   lanes, which LLVM turns into vector instructions. On x86-64 the same
//!   function is also compiled with AVX2 enabled and picked at run time
//!   when the CPU has it; no intrinsics are used, so both builds are the
//!   same source and compute the same words.

/// "expand 32-byte k".
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

/// Blocks per [`blocks8`] call.
pub(crate) const LANES: usize = 8;

/// Words produced by one [`blocks8`] call.
pub(crate) const WORDS8: usize = 16 * LANES;

/// One ChaCha20 block: the 16 output words for key words `key` and the
/// last four state words `tail` (RFC 8439: block counter then nonce;
/// [`crate::rngs::StdRng`]: 64-bit counter low/high then zero).
#[inline]
pub fn block(key: &[u32; 8], tail: [u32; 4]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12..].copy_from_slice(&tail);
    let mut w = state;

    #[inline(always)]
    fn quarter(w: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        w[a] = w[a].wrapping_add(w[b]);
        w[d] = (w[d] ^ w[a]).rotate_left(16);
        w[c] = w[c].wrapping_add(w[d]);
        w[b] = (w[b] ^ w[c]).rotate_left(12);
        w[a] = w[a].wrapping_add(w[b]);
        w[d] = (w[d] ^ w[a]).rotate_left(8);
        w[c] = w[c].wrapping_add(w[d]);
        w[b] = (w[b] ^ w[c]).rotate_left(7);
    }

    for _ in 0..10 {
        quarter(&mut w, 0, 4, 8, 12);
        quarter(&mut w, 1, 5, 9, 13);
        quarter(&mut w, 2, 6, 10, 14);
        quarter(&mut w, 3, 7, 11, 15);
        quarter(&mut w, 0, 5, 10, 15);
        quarter(&mut w, 1, 6, 11, 12);
        quarter(&mut w, 2, 7, 8, 13);
        quarter(&mut w, 3, 4, 9, 14);
    }
    for (out, input) in w.iter_mut().zip(state) {
        *out = out.wrapping_add(input);
    }
    w
}

/// Blocks `counter .. counter + 8` of the zero-nonce stream keyed by
/// `key`, block after block: word `i` of block `j` lands at `16·j + i`.
pub(crate) fn blocks8(key: &[u32; 8], counter: u64) -> [u32; WORDS8] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `blocks8_avx2` only requires the CPU to support AVX2,
        // which was just detected; the body is safe code.
        return unsafe { blocks8_avx2(key, counter) };
    }
    blocks8_portable(key, counter)
}

/// [`blocks8_lanes`] built for the baseline target.
pub(crate) fn blocks8_portable(key: &[u32; 8], counter: u64) -> [u32; WORDS8] {
    blocks8_lanes(key, counter)
}

/// [`blocks8_lanes`] built with AVX2 enabled, so each `[u32; 8]` lane
/// loop is one 256-bit instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn blocks8_avx2(key: &[u32; 8], counter: u64) -> [u32; WORDS8] {
    blocks8_lanes(key, counter)
}

type Lanes = [u32; LANES];

#[inline(always)]
fn add(x: &mut Lanes, y: &Lanes) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = x.wrapping_add(*y);
    }
}

#[inline(always)]
fn xor_rotate(x: &mut Lanes, y: &Lanes, bits: u32) {
    for (x, y) in x.iter_mut().zip(y) {
        *x = (*x ^ *y).rotate_left(bits);
    }
}

#[inline(always)]
fn quarter8(w: &mut [Lanes; 16], a: usize, b: usize, c: usize, d: usize) {
    let (mut wa, mut wb, mut wc, mut wd) = (w[a], w[b], w[c], w[d]);
    add(&mut wa, &wb);
    xor_rotate(&mut wd, &wa, 16);
    add(&mut wc, &wd);
    xor_rotate(&mut wb, &wc, 12);
    add(&mut wa, &wb);
    xor_rotate(&mut wd, &wa, 8);
    add(&mut wc, &wd);
    xor_rotate(&mut wb, &wc, 7);
    (w[a], w[b], w[c], w[d]) = (wa, wb, wc, wd);
}

/// The eight-block core; inlined into both builds above.
#[inline(always)]
fn blocks8_lanes(key: &[u32; 8], counter: u64) -> [u32; WORDS8] {
    let mut state = [[0u32; LANES]; 16];
    for (word, &value) in state.iter_mut().zip(SIGMA.iter().chain(key)) {
        *word = [value; LANES];
    }
    let counters = std::array::from_fn::<u64, LANES, _>(|lane| counter.wrapping_add(lane as u64));
    state[12] = counters.map(|n| n as u32);
    state[13] = counters.map(|n| (n >> 32) as u32);
    let mut w = state;
    for _ in 0..10 {
        quarter8(&mut w, 0, 4, 8, 12);
        quarter8(&mut w, 1, 5, 9, 13);
        quarter8(&mut w, 2, 6, 10, 14);
        quarter8(&mut w, 3, 7, 11, 15);
        quarter8(&mut w, 0, 5, 10, 15);
        quarter8(&mut w, 1, 6, 11, 12);
        quarter8(&mut w, 2, 7, 8, 13);
        quarter8(&mut w, 3, 4, 9, 14);
    }
    let mut out = [0u32; WORDS8];
    for (i, (word, input)) in w.iter_mut().zip(&state).enumerate() {
        add(word, input);
        for (lane, &value) in word.iter().enumerate() {
            out[16 * lane + i] = value;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected(key: &[u32; 8], counter: u64) -> [u32; WORDS8] {
        let mut out = [0u32; WORDS8];
        for (lane, chunk) in out.chunks_exact_mut(16).enumerate() {
            let n = counter.wrapping_add(lane as u64);
            chunk.copy_from_slice(&block(key, [n as u32, (n >> 32) as u32, 0, 0]));
        }
        out
    }

    #[test]
    fn both_eight_block_builds_match_the_scalar_block() {
        let key = [
            0x0302_0100,
            0x0706_0504,
            0x0B0A_0908,
            0x0F0E_0D0C,
            0x1312_1110,
            0x1716_1514,
            0x1B1A_1918,
            0x1F1E_1D1C,
        ];
        // Includes a counter whose lanes carry into the high word, and
        // one whose lanes wrap past 2⁶⁴.
        for counter in [0, 1, 8, 0xFFFF_FFFC, u64::MAX - 3] {
            let want = expected(&key, counter);
            assert_eq!(
                blocks8_portable(&key, counter),
                want,
                "portable at {counter}"
            );
            assert_eq!(blocks8(&key, counter), want, "dispatch at {counter}");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just detected.
                assert_eq!(
                    unsafe { blocks8_avx2(&key, counter) },
                    want,
                    "avx2 at {counter}"
                );
            }
        }
    }
}
