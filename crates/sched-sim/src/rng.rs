//! A small, dependency-free pseudo-random number generator, and the
//! keyed fingerprint hasher built from the same mixing primitives.
//!
//! The simulator needs randomness for exactly one purpose: *seeded,
//! reproducible* schedule exploration (the [`crate::decision::SeededRandom`]
//! decider and the adversaries of the lower-bound experiments). That calls
//! for a tiny deterministic generator with a fixed, documented algorithm —
//! not a cryptographic or platform-dependent one — so the workspace carries
//! its own instead of an external dependency.
//!
//! The algorithm is SplitMix64 (Steele, Lea & Flood, *Fast Splittable
//! Pseudorandom Number Generators*, OOPSLA 2014): a 64-bit counter stepped
//! by the golden-ratio increment and scrambled by two xor-shift-multiply
//! rounds. It is statistically strong for simulation purposes, passes
//! BigCrush in its output mixing, and — crucially for replayable schedules —
//! its output sequence is a pure function of the seed, identical on every
//! platform and build.
//!
//! [`FoldHasher`] is the explorer's state-fingerprint hasher: one folded
//! 64×64→128-bit multiply per input word and the SplitMix64 output
//! function ([`mix64`]) as finaliser. See its docs for why it replaces
//! SipHash there.

use std::hash::Hasher;

/// The SplitMix64 output function (a variant of the MurmurHash3 `fmix64`
/// finaliser): a bijection on `u64` in which every input bit affects every
/// output bit with probability close to one half.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use sched_sim::rng::SplitMix64;
///
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.index(10) < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`. Equal seeds yield equal sequences.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// A uniform index in `0..n` via the multiply-shift range reduction
    /// (Lemire). The bias is at most `n / 2^64` — immaterial for schedule
    /// sampling, and the mapping stays a pure function of the seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as usize
    }

    /// A uniform value in `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range");
        lo + self.index((hi - lo) as usize) as u32
    }

    /// A uniform `bool`.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// The low and high halves of the full 128-bit product, XORed together:
/// the "folded multiply" of wyhash and foldhash. Every input bit reaches
/// the middle of the product, and the fold brings the high half back down.
#[inline]
const fn folded_mul(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// A keyed, non-cryptographic 64-bit [`Hasher`] for state fingerprints.
///
/// The explorer hashes every state it reaches, several times over:
/// process and window components, the symmetric fold, the memory. With
/// SipHash (`DefaultHasher`) those passes dominated a step. This hasher
/// does one folded 64×64→128-bit multiply per input word (wyhash style),
/// and finishes with [`mix64`], so every output bit depends on every input
/// bit. It is not meant to resist inputs chosen to collide; simulator
/// states are not adversarial.
///
/// * **Keyed.** [`FoldHasher::new`] mixes the key into both the starting
///   accumulator and the per-word multiplier, so two keys give two
///   unrelated hash functions, not one function with a shifted start.
///   The explorer's 128-bit keys ([`crate::kernel::Kernel::state_hash_wide`])
///   are two lanes under two keys, which is what makes their collisions
///   independent events.
/// * **Word-oriented.** Integer writes feed one word each; [`Hasher::write`]
///   feeds the byte length and then the bytes in 8-byte little-endian
///   words, so slices of different lengths hash differently.
/// * **Deterministic.** The output is a pure function of the key and the
///   written words, identical on every platform and build.
///
/// # Examples
///
/// ```
/// use std::hash::{Hash, Hasher};
/// use sched_sim::rng::FoldHasher;
///
/// let fp = |key: u64, v: &(u32, Option<u64>)| {
///     let mut h = FoldHasher::new(key);
///     v.hash(&mut h);
///     h.finish()
/// };
/// assert_eq!(fp(1, &(3, Some(4))), fp(1, &(3, Some(4))));
/// assert_ne!(fp(1, &(3, Some(4))), fp(1, &(3, None)));
/// assert_ne!(fp(1, &(3, Some(4))), fp(2, &(3, Some(4))));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FoldHasher {
    acc: u64,
    mul: u64,
}

impl FoldHasher {
    /// A hasher keyed by `key`.
    #[inline]
    pub const fn new(key: u64) -> Self {
        let k = mix64(key ^ 0x243F_6A88_85A3_08D3);
        // Odd, so the multiplier never zeroes low product bits wholesale.
        FoldHasher { acc: k, mul: (k ^ 0xA409_3822_299F_31D0) | 1 }
    }

    #[inline]
    fn word(&mut self, w: u64) {
        self.acc = folded_mul(self.acc ^ w, self.mul);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.acc)
    }

    fn write(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vector() {
        // Reference outputs for seed 1234567 from the published SplitMix64
        // algorithm; pins the implementation against silent drift (replay
        // artifacts depend on the exact sequence).
        let mut g = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        assert_eq!(got, vec![6457827717110365317, 3203168211198807973, 9817491932198370423]);
    }

    #[test]
    fn reproducible_and_seed_sensitive() {
        let seq = |seed: u64| {
            let mut g = SplitMix64::new(seed);
            (0..100).map(|_| g.index(7)).collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42));
        assert_ne!(seq(42), seq(43));
    }

    #[test]
    fn index_is_in_range_and_covers() {
        let mut g = SplitMix64::new(9);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let i = g.index(5);
            assert!(i < 5);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn range_u32_respects_bounds() {
        let mut g = SplitMix64::new(77);
        for _ in 0..200 {
            let v = g.range_u32(3, 9);
            assert!((3..9).contains(&v));
        }
    }

    fn bytes_fp(key: u64, b: &[u8]) -> u64 {
        let mut h = FoldHasher::new(key);
        h.write(b);
        h.finish()
    }

    #[test]
    fn fold_hasher_separates_byte_slices_of_different_lengths() {
        // Zero padding alone would make these collide; the length word
        // keeps them apart.
        let slices: [&[u8]; 6] = [&[], &[0], &[0, 0], &[0; 8], &[0; 9], &[0; 16]];
        let fps: Vec<u64> = slices.iter().map(|b| bytes_fp(7, b)).collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{:?} vs {:?}", slices[i], slices[j]);
            }
        }
        assert_eq!(bytes_fp(7, b"state"), bytes_fp(7, b"state"));
        assert_ne!(bytes_fp(7, b"state"), bytes_fp(7, b"statf"));
    }

    #[test]
    fn fold_hasher_lanes_differ_under_different_keys() {
        // The two seeds the kernel uses for its 128-bit keys.
        let (lo, hi) = (0u64, 0x9E37_79B9_7F4A_7C15u64);
        let words = |key: u64, ws: &[u64]| {
            let mut h = FoldHasher::new(key);
            for &w in ws {
                h.write_u64(w);
            }
            h.finish()
        };
        let mut same = 0;
        for n in 0..64u64 {
            let ws = [n, n * 3, 0, n ^ 0xFF];
            assert_ne!(words(lo, &ws), words(hi, &ws), "lanes agree on {ws:?}");
            // A one-word change moves each lane by an unrelated amount.
            let ws2 = [n, n * 3, 1, n ^ 0xFF];
            let d_lo = words(lo, &ws) ^ words(lo, &ws2);
            let d_hi = words(hi, &ws) ^ words(hi, &ws2);
            same += u32::from(d_lo == d_hi);
        }
        assert_eq!(same, 0, "lane differences must not track each other");
        assert_ne!(FoldHasher::new(lo).finish(), FoldHasher::new(hi).finish());
    }

    #[test]
    fn fold_hasher_avalanches_single_bit_flips() {
        // Every single-bit flip of one input word changes about half the
        // output bits on average.
        let fp = |w: u64| {
            let mut h = FoldHasher::new(3);
            h.write_u64(5);
            h.write_u64(w);
            h.finish()
        };
        let base = fp(0x0123_4567_89AB_CDEF);
        let flipped: u32 =
            (0..64).map(|b| (fp(0x0123_4567_89AB_CDEF ^ (1 << b)) ^ base).count_ones()).sum();
        let mean = f64::from(flipped) / 64.0;
        assert!((24.0..40.0).contains(&mean), "mean flipped bits {mean}");
    }
}
