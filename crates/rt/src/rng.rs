//! Deterministic, seedable random number generation with a
//! `rand`-compatible surface.
//!
//! The traits ([`RngCore`], [`SeedableRng`], [`Rng`]) and the two named
//! generators ([`StdRng`], [`SmallRng`]) cover exactly the API the rest
//! of the workspace uses, so migrating a call site from the external
//! `rand` crate is a path rename. [`StdRng`] runs a ChaCha20 keystream
//! on the block function of [`crate::chacha`], which the in-tree
//! `neuropuls-crypto` cipher shares. [`SmallRng`] is the
//! non-cryptographic fast path: xoshiro256++ seeded through splitmix64.
//!
//! Nothing here reads OS entropy. Every generator must be constructed
//! from an explicit seed — reproducibility is part of the experimental
//! methodology, not an option.

use crate::chacha;
use std::fmt;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error type for the fallible [`RngCore::try_fill_bytes`].
///
/// The in-repo generators are infallible, so this is only ever
/// constructed by downstream implementations that wrap fallible entropy
/// sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: &'static str,
}

impl Error {
    /// Creates an error with a static description.
    pub fn new(msg: &'static str) -> Self {
        Error { msg }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rng error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

/// The raw generator interface: a source of `u32`/`u64` words and byte
/// fills. Mirrors `rand::RngCore`.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Fallible variant of [`RngCore::fill_bytes`]; the in-repo
    /// generators never fail.
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        (**self).try_fill_bytes(dest)
    }
}

/// Construction from explicit seeds. Mirrors `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The fixed-size seed accepted by [`SeedableRng::from_seed`].
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a full-width seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, stretched through splitmix64
    /// so that nearby seeds still yield independent streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut sm = SplitMix64::new(state);
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// High-level convenience methods, implemented for every [`RngCore`].
/// Mirrors the subset of `rand::Rng` the workspace uses.
pub trait Rng: RngCore {
    /// Draws a value whose type implements [`Random`] (the analogue of
    /// sampling `rand`'s `Standard` distribution): uniform integers,
    /// `f64`/`f32` in `[0, 1)`, `bool`, and fixed-size byte arrays.
    fn gen<T: Random>(&mut self) -> T {
        T::random(self)
    }

    /// Draws a value uniformly from `range` (half-open or inclusive).
    /// Integer ranges use rejection sampling, so the result is exactly
    /// uniform.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        f64::random(self) < p
    }

    /// Fills a byte slice with random data (alias for
    /// [`RngCore::fill_bytes`], kept for `rand` surface parity).
    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest);
    }

    /// Draws one value from an explicit [`Distribution`].
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

// ---------------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------------

/// A source of typed values driven by an RNG. Mirrors
/// `rand::distributions::Distribution`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The "natural" uniform distribution for a type — full integer range,
/// `[0, 1)` for floats. Mirrors `rand::distributions::Standard`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

impl<T: Random> Distribution<T> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        T::random(rng)
    }
}

/// Uniform distribution over a half-open range, reusable across draws.
#[derive(Debug, Clone)]
pub struct Uniform<T> {
    range: Range<T>,
}

impl<T: Clone> Uniform<T>
where
    Range<T>: SampleRange<T>,
{
    /// Uniform over `[low, high)`.
    pub fn new(low: T, high: T) -> Self {
        Uniform { range: low..high }
    }
}

impl<T: Clone> Distribution<T> for Uniform<T>
where
    Range<T>: SampleRange<T>,
{
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        self.range.clone().sample_single(rng)
    }
}

/// Types drawable uniformly from their full domain (or `[0, 1)` for
/// floats) — the target of [`Rng::gen`].
pub trait Random: Sized {
    /// Draws one uniformly distributed value from `rng`.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! random_via_u64 {
    ($($t:ty),*) => {$(
        impl Random for $t {
            fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

random_via_u64!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Random for u128 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Random for i128 {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::random(rng) as i128
    }
}

impl Random for bool {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Random for f64 {
    /// 53 uniform mantissa bits mapped to `[0, 1)`.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// 24 uniform mantissa bits mapped to `[0, 1)`.
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<T: Random, const N: usize> Random for [T; N] {
    fn random<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        std::array::from_fn(|_| T::random(rng))
    }
}

/// Ranges that can be sampled uniformly — the argument type of
/// [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Element types drawable from a range. The blanket [`SampleRange`]
/// impls below hang off this trait so type inference flows from the
/// range's element type exactly as it does with the `rand` crate.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;

    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range called with empty range");
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (start, end) = self.into_inner();
        assert!(start <= end, "gen_range called with empty range");
        T::sample_inclusive(start, end, rng)
    }
}

/// Uniform `u64` below `bound` via rejection sampling (exactly uniform).
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Largest multiple of `bound` that fits in a u64; values at or above
    // it would bias the modulo and are redrawn.
    let zone = u64::MAX - (u64::MAX % bound);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % bound;
        }
    }
}

macro_rules! sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = (high as i128 - low as i128) as u64;
                let off = uniform_below(rng, span);
                (low as i128 + off as i128) as $t
            }

            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let span = (high as i128 - low as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    // Only reachable for the full 64-bit domain, where a
                    // raw draw is already uniform.
                    return rng.next_u64() as $t;
                }
                let off = uniform_below(rng, span as u64);
                (low as i128 + off as i128) as $t
            }
        }
    )*};
}

sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                let u = <$t as Random>::random(rng);
                low + u * (high - low)
            }

            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                // The measure-zero endpoint makes inclusive and
                // half-open draws indistinguishable for floats.
                Self::sample_half_open(low, high, rng)
            }
        }
    )*};
}

sample_uniform_float!(f32, f64);

// ---------------------------------------------------------------------------
// splitmix64 — seed stretcher and the simplest deterministic stream
// ---------------------------------------------------------------------------

/// splitmix64 (Steele, Lea & Flood): one 64-bit multiply-xorshift step
/// per output. Used to stretch `u64` seeds into full generator states.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

// ---------------------------------------------------------------------------
// SmallRng — xoshiro256++
// ---------------------------------------------------------------------------

/// Fast non-cryptographic generator: xoshiro256++ (Blackman & Vigna).
///
/// Use for simulation workloads where throughput matters and the stream
/// is not security-relevant (process variation, noise injection, attack
/// Monte Carlo). Period 2^256 − 1.
#[derive(Debug, Clone)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    fn next_word(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for SmallRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        // The all-zero state is a fixed point of xoshiro; nudge it.
        if s == [0; 4] {
            let mut sm = SplitMix64::new(0xDEAD_BEEF);
            s = [sm.next(), sm.next(), sm.next(), sm.next()];
        }
        SmallRng { s }
    }
}

impl RngCore for SmallRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_word() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.next_word()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_word().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
    }
}

// ---------------------------------------------------------------------------
// StdRng — ChaCha20 keystream
// ---------------------------------------------------------------------------

/// The default workspace generator: a ChaCha20 keystream keyed by the
/// 32-byte seed (zero nonce, 64-bit block counter).
///
/// Deterministic and high-quality; every experiment in the repository
/// seeds one of these with a recorded constant so runs replay exactly.
///
/// The keystream is a byte stream: `next_u32` and `next_u64` read the
/// next 4 and 8 bytes little-endian, wherever the previous draw left
/// off. It is computed eight blocks at a time (`crate::chacha::blocks8`)
/// into a word buffer, so a draw at a word boundary is a plain word read.
#[derive(Debug, Clone)]
pub struct StdRng {
    key: [u32; 8],
    /// Counter of the first block not yet in `buf`.
    counter: u64,
    /// Keystream words of eight consecutive blocks.
    buf: [u32; chacha::WORDS8],
    /// Next unread keystream byte of `buf`; `BUF_BYTES` when drained.
    pos: usize,
    /// The eight-block core: the run-time dispatcher, unless a test pins
    /// one build.
    core: fn(&[u32; 8], u64) -> [u32; chacha::WORDS8],
}

const BUF_BYTES: usize = 4 * chacha::WORDS8;

impl StdRng {
    fn refill(&mut self) {
        self.buf = (self.core)(&self.key, self.counter);
        self.counter = self.counter.wrapping_add(chacha::LANES as u64);
        self.pos = 0;
    }

    fn take(&mut self, dest: &mut [u8]) {
        for byte in dest {
            if self.pos == BUF_BYTES {
                self.refill();
            }
            *byte = (self.buf[self.pos / 4] >> (8 * (self.pos % 4))) as u8;
            self.pos += 1;
        }
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, chunk) in seed.chunks_exact(4).enumerate() {
            key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        StdRng {
            key,
            counter: 0,
            buf: [0; chacha::WORDS8],
            pos: BUF_BYTES,
            core: chacha::blocks8,
        }
    }
}

impl RngCore for StdRng {
    fn next_u32(&mut self) -> u32 {
        if !self.pos.is_multiple_of(4) {
            let mut b = [0u8; 4];
            self.take(&mut b);
            return u32::from_le_bytes(b);
        }
        if self.pos == BUF_BYTES {
            self.refill();
        }
        let word = self.buf[self.pos / 4];
        self.pos += 4;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let i = self.pos / 4;
        if self.pos.is_multiple_of(4) && i + 1 < chacha::WORDS8 {
            self.pos += 8;
            return u64::from(self.buf[i]) | u64::from(self.buf[i + 1]) << 32;
        }
        let low = self.next_u32();
        u64::from(low) | u64::from(self.next_u32()) << 32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.take(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-block scalar ChaCha20 the eight-block keystream
    /// replaced, kept as its oracle: key words `key`, zero nonce and
    /// 64-bit block counter `counter`.
    fn chacha20_block(key: &[u32; 8], counter: u64) -> [u8; 64] {
        let words = chacha::block(key, [counter as u32, (counter >> 32) as u32, 0, 0]);
        let mut out = [0u8; 64];
        for (bytes, word) in out.chunks_exact_mut(4).zip(words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// The byte-buffered generator the word buffer replaced, kept as the
    /// stream oracle: one block per refill, every draw copied out byte
    /// by byte.
    struct OracleStdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u8; 64],
        pos: usize,
    }

    impl OracleStdRng {
        fn new(seed: u64) -> Self {
            let key = StdRng::seed_from_u64(seed).key;
            OracleStdRng {
                key,
                counter: 0,
                buf: [0; 64],
                pos: 64,
            }
        }

        fn take(&mut self, dest: &mut [u8]) {
            let mut written = 0;
            while written < dest.len() {
                if self.pos == 64 {
                    self.buf = chacha20_block(&self.key, self.counter);
                    self.counter = self.counter.wrapping_add(1);
                    self.pos = 0;
                }
                let n = (dest.len() - written).min(64 - self.pos);
                dest[written..written + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
                self.pos += n;
                written += n;
            }
        }
    }

    /// An AVX2-pinned core for [`StdRng::core`]; only installed after
    /// the CPU reported AVX2.
    #[cfg(target_arch = "x86_64")]
    fn avx2_core(key: &[u32; 8], counter: u64) -> [u32; chacha::WORDS8] {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 support was asserted on the line above.
        unsafe { chacha::blocks8_avx2(key, counter) }
    }

    /// Mixed `next_u32` / `next_u64` / odd-length `fill_bytes` draws
    /// against the byte-buffered oracle, across many refills.
    fn assert_stream_matches_oracle(core: fn(&[u32; 8], u64) -> [u32; chacha::WORDS8]) {
        let mut draws = 0usize;
        for seed in 0..4u64 {
            let mut fast = StdRng::seed_from_u64(seed);
            fast.core = core;
            let mut oracle = OracleStdRng::new(seed);
            // The draw pattern comes from an independent stream.
            let mut pattern = SmallRng::seed_from_u64(seed);
            while draws < (seed as usize + 1) * 250_000 {
                match pattern.next_u32() % 8 {
                    0..=2 => {
                        let mut b = [0u8; 4];
                        oracle.take(&mut b);
                        assert_eq!(fast.next_u32(), u32::from_le_bytes(b), "draw {draws}");
                    }
                    3..=6 => {
                        let mut b = [0u8; 8];
                        oracle.take(&mut b);
                        assert_eq!(fast.next_u64(), u64::from_le_bytes(b), "draw {draws}");
                    }
                    _ => {
                        let len = [1, 3, 5, 7, 12, 33, 67][pattern.next_u32() as usize % 7];
                        let (mut got, mut want) = ([0u8; 67], [0u8; 67]);
                        fast.fill_bytes(&mut got[..len]);
                        oracle.take(&mut want[..len]);
                        assert_eq!(got, want, "draw {draws}: fill of {len}");
                    }
                }
                draws += 1;
            }
            assert!(oracle.counter > 64, "seed {seed} crossed too few refills");
        }
    }

    #[test]
    fn stdrng_stream_matches_the_scalar_oracle_on_every_core() {
        assert_stream_matches_oracle(chacha::blocks8);
        assert_stream_matches_oracle(chacha::blocks8_portable);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_stream_matches_oracle(avx2_core);
        }
    }

    #[test]
    fn chacha_block_matches_rfc8439_shape() {
        // Keystream must be deterministic and block-position dependent.
        let key = [1u32; 8];
        assert_eq!(chacha20_block(&key, 0), chacha20_block(&key, 0));
        assert_ne!(chacha20_block(&key, 0), chacha20_block(&key, 1));
    }

    #[test]
    fn stdrng_streams_are_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let mut c = StdRng::seed_from_u64(43);
        let (mut xa, mut xb, mut xc) = ([0u8; 128], [0u8; 128], [0u8; 128]);
        a.fill_bytes(&mut xa);
        b.fill_bytes(&mut xb);
        c.fill_bytes(&mut xc);
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn smallrng_streams_are_seed_deterministic() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        assert_eq!(
            (0..16).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..16).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn splitmix64_first_output_known_answers() {
        // The first output places every die identity (the photonic die
        // sampler) and every CRP-store shard, so these pin both.
        for (seed, expected) in [
            (0, 0xe220_a839_7b1d_cdaf),
            (1, 0x910a_2dec_8902_5cc1),
            (42, 0xbdd7_3226_2feb_6e95),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
        ] {
            assert_eq!(SplitMix64::new(seed).next(), expected, "seed {seed}");
        }
    }

    #[test]
    fn smallrng_survives_zero_seed() {
        let mut rng = SmallRng::from_seed([0; 32]);
        assert_ne!(rng.next_u64(), 0u64.wrapping_add(rng.next_u64()));
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(3usize..17);
            assert!((3..17).contains(&v));
            let w = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(2);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn float_random_stays_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
            let g: f32 = rng.gen();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn array_random_fills_every_lane() {
        let mut rng = StdRng::seed_from_u64(4);
        let a: [u8; 32] = rng.gen();
        let b: [u8; 32] = rng.gen();
        assert_ne!(a, b);
    }

    /// Chi-square goodness-of-fit for `gen_range` over a bucket count
    /// that does not divide 2⁶⁴ — exactly the case where a naive modulo
    /// sampler shows bias and rejection sampling must not.
    #[test]
    fn gen_range_is_uniform_by_chi_square() {
        const BUCKETS: usize = 13;
        const DRAWS: usize = 130_000;
        for seed in [5u64, 6, 7] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = [0usize; BUCKETS];
            for _ in 0..DRAWS {
                counts[rng.gen_range(0..BUCKETS)] += 1;
            }
            let expected = DRAWS as f64 / BUCKETS as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| {
                    let d = c as f64 - expected;
                    d * d / expected
                })
                .sum();
            // 12 degrees of freedom: the 99.9th percentile is ~32.9.
            assert!(chi2 < 32.9, "seed {seed}: chi-square {chi2:.2}");
        }
    }

    /// Same check for the xoshiro-backed [`SmallRng`] on an inclusive
    /// signed range.
    #[test]
    fn smallrng_gen_range_is_uniform_by_chi_square() {
        const BUCKETS: i32 = 11;
        const DRAWS: usize = 110_000;
        let mut rng = SmallRng::seed_from_u64(8);
        let mut counts = [0usize; BUCKETS as usize];
        for _ in 0..DRAWS {
            let v = rng.gen_range(-5i32..=5);
            counts[(v + 5) as usize] += 1;
        }
        let expected = DRAWS as f64 / BUCKETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 10 degrees of freedom: the 99.9th percentile is ~29.6.
        assert!(chi2 < 29.6, "chi-square {chi2:.2}");
    }
}
