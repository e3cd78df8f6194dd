//! # disp-rng
//!
//! A small, dependency-free, deterministic PRNG for the dispersion
//! workspace. The generator is **xoshiro256++** seeded through SplitMix64 —
//! fast, well distributed, and (crucially for the experiment harness)
//! *stable*: the stream produced for a given seed is part of this crate's
//! API contract and must never change, because campaign results are
//! reproduced byte-for-byte from recorded seeds.
//!
//! The sampling surface intentionally mirrors the subset of the `rand`
//! crate's API the workspace uses ([`StdRng::seed_from_u64`],
//! [`StdRng::random_range`], [`StdRng::random_bool`],
//! [`SliceRandom::shuffle`]), so algorithm code reads identically to the
//! wider ecosystem's idiom.
//!
//! ```
//! use disp_rng::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die = rng.random_range(1..7u64);
//! assert!((1..7).contains(&die));
//! let mut v = vec![1, 2, 3, 4];
//! v.shuffle(&mut rng);
//! assert_eq!(StdRng::seed_from_u64(7).next_u64(), StdRng::seed_from_u64(7).next_u64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// SplitMix64 step — used for seeding and for stateless seed derivation.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix an arbitrary list of 64-bit words into one well-distributed word.
///
/// This is the workspace's canonical *seed derivation* function: the
/// campaign engine derives every per-trial seed as
/// `mix(&[campaign_seed, point_hash, repetition])`, which makes trial seeds
/// independent of thread count, execution order and grid sharding.
pub fn mix(words: &[u64]) -> u64 {
    Mixer::EMPTY.mix(words)
}

/// [`mix`] with a fixed word prefix absorbed once:
/// `Mixer::new(&[a, b]).mix(&[c, d])` equals `mix(&[a, b, c, d])`. A stream
/// keyed by a constant `(seed, TAG)` prefix — one word per draw after it —
/// pays the prefix's rounds once instead of on every draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mixer {
    state: u64,
    acc: u64,
}

impl Mixer {
    /// The mixer of the empty prefix.
    const EMPTY: Mixer = Mixer {
        state: 0x6A09_E667_F3BC_C909, // fractional bits of sqrt(2)
        acc: 0,
    };

    /// A mixer that has absorbed `prefix`.
    pub fn new(prefix: &[u64]) -> Mixer {
        Mixer::EMPTY.absorb(prefix)
    }

    #[inline]
    fn absorb(mut self, words: &[u64]) -> Mixer {
        for &w in words {
            self.state ^= w;
            self.acc = self.acc.rotate_left(23) ^ splitmix64(&mut self.state);
        }
        self
    }

    /// `mix` of the prefix followed by `words`.
    #[inline]
    pub fn mix(&self, words: &[u64]) -> u64 {
        let m = self.absorb(words);
        // One extra scramble so `mix(&[x])` differs from `x` even for tiny
        // inputs.
        let mut fin = m.acc ^ m.state;
        splitmix64(&mut fin)
    }
}

/// FNV-1a hash of a byte string — stable across platforms and releases, used
/// to fold string identities (experiment-point ids) into seed material.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A seedable deterministic generator (xoshiro256++).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Create a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        StdRng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform sample from a half-open integer range. Panics if the range is
    /// empty.
    #[inline]
    pub fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let lo = range.start.to_u64();
        let hi = range.end.to_u64();
        assert!(lo < hi, "random_range called with an empty range");
        let span = hi - lo;
        // Lemire multiply-shift reduction; the tiny modulo bias is irrelevant
        // for simulation workloads and keeps the stream consumption at one
        // word per sample (important for stream stability).
        let v = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        T::from_u64(lo + v)
    }

    /// Uniform `f64` in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli sample with success probability `p`: one word, the same
    /// outcome as `random_f64() < p` (see [`Bernoulli`]).
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }
}

/// A Bernoulli(`p`) draw compiled to an integer threshold, for loops that
/// draw many times with one `p`.
///
/// `random_f64() < p` compares `m · 2⁻⁵³` with `p`, where `m = next_u64() >>
/// 11 < 2⁵³`. Both sides scale exactly by `2⁵³`, so the test is `m < p·2⁵³`,
/// and for an integer `m` that is `m < ⌈p·2⁵³⌉`: the same word decides the
/// same outcome without a float conversion per draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    threshold: u64,
}

impl Bernoulli {
    /// A draw that succeeds with probability `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Bernoulli {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        Bernoulli {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// One draw from `rng` (one word).
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> bool {
        (rng.next_u64() >> 11) < self.threshold
    }
}

/// Integer types [`StdRng::random_range`] can sample.
pub trait UniformInt: Copy {
    /// Widen to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrow back (the value is guaranteed to fit).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

/// In-place shuffling of slices, mirroring `rand::seq::SliceRandom`.
pub trait SliceRandom {
    /// Fisher–Yates shuffle driven by `rng`.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> SliceRandom for [T] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        for i in (1..self.len()).rev() {
            let j = rng.random_range(0..i + 1);
            self.swap(i, j);
        }
    }
}

/// Convenient glob import.
pub mod prelude {
    pub use crate::{fnv1a, mix, Bernoulli, Mixer, SliceRandom, StdRng};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(123);
        let mut b = StdRng::seed_from_u64(123);
        let mut c = StdRng::seed_from_u64(124);
        let (va, vb): (Vec<u64>, Vec<u64>) = (0..64)
            .map(|_| (a.next_u64(), b.next_u64()))
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        assert_eq!(va, vb);
        assert!((0..64).any(|_| c.next_u64() != a.next_u64()));
    }

    #[test]
    fn range_sampling_is_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.random_range(0..10usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
        for _ in 0..100 {
            let v = rng.random_range(17..18u64);
            assert_eq!(v, 17);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = StdRng::seed_from_u64(0).random_range(3..3usize);
    }

    #[test]
    fn bool_probabilities_are_sane() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
        assert!((0..100).all(|_| rng.random_bool(1.0)));
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle should move something");
    }

    #[test]
    fn mix_separates_nearby_inputs_and_is_order_sensitive() {
        assert_ne!(mix(&[0, 0, 0]), mix(&[0, 0, 1]));
        assert_ne!(mix(&[1, 2]), mix(&[2, 1]));
        assert_eq!(mix(&[7, 8, 9]), mix(&[7, 8, 9]));
        assert_ne!(mix(&[5]), 5);
    }

    #[test]
    fn mixer_prefixes_split_anywhere() {
        let words = [3u64, 0xAD5E_0004, u64::MAX, 0, 42];
        for cut in 0..=words.len() {
            let (prefix, rest) = words.split_at(cut);
            assert_eq!(Mixer::new(prefix).mix(rest), mix(&words), "cut {cut}");
        }
        assert_eq!(Mixer::new(&[]).mix(&[]), mix(&[]));
    }

    #[test]
    fn bernoulli_threshold_matches_the_float_compare() {
        // Probabilities at and around every awkward spot: 0, 1, halves,
        // values one ulp off an exact threshold, tiny and subnormal ones.
        let mut ps = vec![0.0, 1.0, 0.5, 0.3, 1e-17, f64::MIN_POSITIVE, 5e-324];
        for i in 1..64 {
            let p = i as f64 / 64.0;
            ps.extend([
                p,
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            ]);
        }
        let mut probe = StdRng::seed_from_u64(17);
        ps.extend((0..200).map(|_| probe.random_f64()));
        for &p in ps.iter().filter(|p| (0.0..=1.0).contains(*p)) {
            let b = Bernoulli::new(p);
            let t = b.threshold;
            // Exactly at the threshold boundary, then on a random stream.
            for m in [t.saturating_sub(1), t, t + 1]
                .into_iter()
                .filter(|&m| m < 1 << 53)
            {
                let float = (m as f64) * (1.0 / (1u64 << 53) as f64) < p;
                assert_eq!(m < t, float, "p = {p:e}, m = {m}");
            }
            let (mut x, mut y) = (
                StdRng::seed_from_u64(p.to_bits()),
                StdRng::seed_from_u64(p.to_bits()),
            );
            for _ in 0..64 {
                assert_eq!(b.sample(&mut x), y.random_f64() < p, "p = {p:e}");
            }
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
