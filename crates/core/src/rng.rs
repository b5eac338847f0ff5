//! Seeded random streams: every generator an output is pinned to.
//!
//! Three generators, one [`Rng`] trait:
//!
//! - [`Splitmix64`] — the greedy partitioners' tie-breaks (one stream per
//!   edge, keyed by stream index), `PowerLawStream`'s per-vertex targets and
//!   the asynchronous engine's schedule.
//! - [`Xoshiro256`] — xoshiro256++, the analogue-graph generators of gp-gen.
//! - [`ChaCha12`] — a ChaCha12 keystream, the fault, elastic and serving
//!   traffic plans. Counter mode needs no warm-up, and nearby seeds give
//!   unrelated keys.
//!
//! Every stream is a pure function of its `u64` seed, so a generated graph,
//! plan or tie-break is bit-reproducible across platforms and runs.
//!
//! ```
//! use gp_core::{Rng, Splitmix64};
//! let mut a = Splitmix64::new(7);
//! let mut b = Splitmix64::new(7);
//! assert_eq!(a.next_u64(), b.next_u64()); // deterministic
//! ```

use crate::hash::splitmix64;

/// A source of uniform 64-bit words, with the two samplers drawn from it.
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`; `bound` must be non-zero. Rejection
    /// over the top zone keeps it unbiased.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % bound;
            }
        }
    }
}

/// SplitMix64 stream: the state steps by the golden-ratio increment and each
/// output is the [`splitmix64`] finalizer of the state.
#[derive(Debug, Clone)]
pub struct Splitmix64 {
    state: u64,
}

impl Splitmix64 {
    /// Create a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Splitmix64 { state: seed }
    }
}

impl Rng for Splitmix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Multiply-shift map, free of rejection; its bias is negligible for the
    /// small bounds (partition counts) it breaks ties over.
    #[inline]
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// xoshiro256++, its state expanded from the seed by [`Splitmix64`] as its
/// authors recommend.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = Splitmix64::new(seed);
        Xoshiro256 {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }
}

impl Rng for Xoshiro256 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// ChaCha12 keystream read as `u64`s: 256-bit key from four [`Splitmix64`]
/// words of the seed, zero nonce, 64-bit block counter.
#[derive(Debug, Clone)]
pub struct ChaCha12 {
    /// Cipher state template: constants, key, counter, nonce.
    state: [u32; 16],
    /// Current 16-word output block.
    block: [u32; 16],
    /// Next word to serve from `block` (16 = exhausted).
    cursor: usize,
}

#[inline]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl ChaCha12 {
    /// Keystream for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = Splitmix64::new(seed);
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        for i in 0..4 {
            let k = sm.next_u64();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // Words 12..13 are the block counter, 14..15 the nonce (zero).
        ChaCha12 {
            state,
            block: [0; 16],
            cursor: 16,
        }
    }

    fn refill(&mut self) {
        let mut working = self.state;
        // Twelve rounds: six column + diagonal double rounds.
        for _ in 0..6 {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (&w, &s)) in self.block.iter_mut().zip(working.iter().zip(&self.state)) {
            *out = w.wrapping_add(s);
        }
        // 64-bit counter across words 12/13.
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)) + 1;
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.cursor = 0;
    }

    /// Next keystream word.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.cursor >= 16 {
            self.refill();
        }
        let w = self.block[self.cursor];
        self.cursor += 1;
        w
    }
}

impl Rng for ChaCha12 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First four words, then one `next_f64` and one `next_below(7)`, at
    /// seed 42. Every generated graph, plan and tie-break rests on these.
    fn head<R: Rng>(mut rng: R) -> ([u64; 4], u64, u64) {
        let words = [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ];
        (words, rng.next_f64().to_bits(), rng.next_below(7))
    }

    #[test]
    fn streams_are_pinned_at_seed_42() {
        assert_eq!(
            head(Splitmix64::new(42)),
            (
                [
                    0xbdd7_3226_2feb_6e95,
                    0x28ef_e333_b266_f103,
                    0x4752_6757_130f_9f52,
                    0x581c_e1ff_0e4a_e394
                ],
                0x3fa3_78b0_b448_9040,
                6
            )
        );
        assert_eq!(
            head(Xoshiro256::new(42)),
            (
                [
                    0xd076_4d4f_4476_689f,
                    0x519e_4174_576f_3791,
                    0xfbe0_7cfb_0c24_ed8c,
                    0xb37d_9f60_0cd8_35b8
                ],
                0x3fe9_6463_870e_908d,
                0
            )
        );
        assert_eq!(
            head(ChaCha12::new(42)),
            (
                [
                    0x280b_7b79_f392_fa12,
                    0x4dad_ef83_bc93_1d07,
                    0xc195_c99b_a537_5e5f,
                    0x7e65_7f1b_6bdc_3bfd
                ],
                0x3fef_c814_4897_8297,
                1
            )
        );
    }

    fn same_seed_same_stream<R: Rng>(new: impl Fn(u64) -> R) {
        let (mut a, mut b) = (new(7), new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn same_seed_same_stream_for_every_generator() {
        same_seed_same_stream(Splitmix64::new);
        same_seed_same_stream(Xoshiro256::new);
        same_seed_same_stream(ChaCha12::new);
    }

    #[test]
    fn adjacent_seeds_diverge() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
        let mut a = ChaCha12::new(77);
        let mut b = ChaCha12::new(78);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0, "adjacent seeds must produce unrelated keystreams");
    }

    fn f64_in_unit_interval<R: Rng>(mut rng: R) {
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&rng.next_f64()));
        }
    }

    #[test]
    fn f64_in_unit_interval_for_every_generator() {
        f64_in_unit_interval(Splitmix64::new(9));
        f64_in_unit_interval(Xoshiro256::new(3));
        f64_in_unit_interval(ChaCha12::new(5));
    }

    fn below_is_bounded_and_covers<R: Rng>(mut rng: R, bound: usize, draws: usize) {
        let mut seen = vec![false; bound];
        for _ in 0..draws {
            let x = rng.next_below(bound as u64) as usize;
            assert!(x < bound);
            seen[x] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every value below {bound} is drawn"
        );
    }

    #[test]
    fn below_is_bounded_and_covers_for_every_generator() {
        below_is_bounded_and_covers(Splitmix64::new(3), 5, 1000);
        below_is_bounded_and_covers(Xoshiro256::new(4), 5, 200);
        below_is_bounded_and_covers(ChaCha12::new(9), 7, 500);
    }

    #[test]
    fn chacha_stream_crosses_block_boundaries() {
        // 16 words per block; make sure refill keeps producing fresh output.
        let mut rng = ChaCha12::new(1);
        let first_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        let second_block: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
        assert_ne!(first_block, second_block);
    }
}
