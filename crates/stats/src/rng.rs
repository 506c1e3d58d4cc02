//! A small, dependency-free deterministic PRNG for the whole workspace.
//!
//! [`Rng`] is a PCG32 generator (Melissa O'Neill's `pcg32_xsh_rr`)
//! seeded through SplitMix64, which whitens weak user seeds (0, 1, 2…)
//! into well-distributed internal state. It replaces the external `rand`
//! crate so the workspace builds with no registry access, and its output
//! is stable across platforms and Rust versions — simulation results
//! keyed by a seed are reproducible bit-for-bit forever.
//!
//! The API mirrors the handful of `rand` calls the simulator actually
//! uses: raw words, unit-interval doubles, Bernoulli draws, and
//! half-open integer ranges.
//!
//! # Examples
//!
//! ```
//! use nistats::rng::Rng;
//!
//! let mut rng = Rng::new(42);
//! let a = rng.next_u64();
//! let p = rng.f64();
//! assert!((0.0..1.0).contains(&p));
//! let node = rng.gen_range_u16(0, 64);
//! assert!(node < 64);
//!
//! // Identical seeds give identical streams.
//! let mut again = Rng::new(42);
//! assert_eq!(again.next_u64(), a);
//! ```

const PCG_MULT: u64 = 6364136223846793005;

/// Deterministic PCG32 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    state: u64,
    inc: u64,
}

/// SplitMix64 step: the standard seed-whitening finalizer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Any seed (including 0)
    /// yields a full-quality stream.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let init_state = splitmix64(&mut sm);
        let init_inc = splitmix64(&mut sm) | 1; // stream selector must be odd
        let mut rng = Rng {
            state: 0,
            inc: init_inc,
        };
        rng.state = rng.state.wrapping_mul(PCG_MULT).wrapping_add(rng.inc);
        rng.state = rng.state.wrapping_add(init_state);
        rng.next_u32();
        rng
    }

    /// The raw generator state `(state, inc)`, for architectural-state
    /// digests: two generators with equal words produce identical
    /// streams. Opaque — only meaningful for equality/hashing.
    pub fn state_words(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// The next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// A uniform double in `[0, 1)` with 53 bits of precision.
    #[allow(clippy::cast_precision_loss)]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Keep the stream position independent of p's sign so
            // plans differing only in one rate stay comparable.
            self.next_u64();
            return false;
        }
        if p >= 1.0 {
            self.next_u64();
            return true;
        }
        self.f64() < p
    }

    /// A uniform integer in `[0, bound)` via Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Lemire's multiply-shift rejection sampler (unbiased).
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `u64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn gen_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.gen_range_u64(lo as u64, hi as u64) as u32
    }

    /// A uniform `u16` in `[lo, hi)`.
    pub fn gen_range_u16(&mut self, lo: u16, hi: u16) -> u16 {
        self.gen_range_u64(lo as u64, hi as u64) as u16
    }

    /// A uniform `u8` in `[lo, hi)`.
    pub fn gen_range_u8(&mut self, lo: u8, hi: u8) -> u8 {
        self.gen_range_u64(lo as u64, hi as u64) as u8
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn gen_range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_range_u64(lo as u64, hi as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn weak_seeds_are_whitened() {
        // Consecutive small seeds must not give correlated first outputs.
        let firsts: Vec<u64> = (0..16u64).map(|s| Rng::new(s).next_u64()).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), firsts.len());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::new(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::new(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-1.0));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::new(17);
        for _ in 0..10_000 {
            let v = rng.gen_range_u16(3, 64);
            assert!((3..64).contains(&v));
        }
        for _ in 0..1000 {
            assert_eq!(rng.gen_range_u64(9, 10), 9);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::new(23);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 600, "counts = {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::new(1);
        let _ = rng.below(0);
    }
}
