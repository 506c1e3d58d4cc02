//! Host-speed calibration: every timed interval is divided by the time
//! of a fixed reference loop run right beside it.
//!
//! On a shared machine the host's speed drifts by tens of percent over
//! seconds to minutes, and an episode can cover a whole run, so neither
//! the fastest nor the median repetition of raw host time holds still
//! between runs. The slowdown comes from other tenants' use of the
//! caches and cores, and the guest cannot see it (its CPU time equals
//! its wall time). A loop that chases pointers through a 1 MiB table
//! slows down with the simulator: over 200 s of unchanged samples on a
//! 2-vCPU Xeon host, 25 s medians of raw sample time spread 28–41%,
//! while medians of sample time ÷ adjacent pass time spread 5–8%. Pure
//! arithmetic, a 16 MiB chase and random read-modify-write over 256 KiB
//! tracked two to three times worse.
//!
//! The loop is the benchmark's own code, so a change to the simulator
//! moves the ratio exactly as it moves the simulator's time. Ratios are
//! reported in *reference seconds*: multiplied by [`REFERENCE_PASS_S`].

use std::hint::black_box;
use std::time::Instant;

/// Entries of the chased table: 2^18 `u32`s, 1 MiB.
const TABLE_LEN: usize = 1 << 18;
/// Table reads per pass.
const STEPS: u64 = 1_100_000;
/// A pass's time on an uncontended core of a 2-vCPU Xeon host. It only
/// scales the reported values; their ratios between runs do not
/// depend on it.
pub const REFERENCE_PASS_S: f64 = 0.010;

/// The reference loop.
#[derive(Debug)]
pub struct Calibration {
    /// A permutation of `0..TABLE_LEN` forming a single cycle, so a
    /// chase from any entry visits the whole table.
    next: Vec<u32>,
}

impl Calibration {
    /// Builds the table; the same on every run.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        // Sattolo's shuffle: swapping only with earlier entries yields
        // one cycle through every entry.
        for i in (1..TABLE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibration { next }
    }

    /// Host seconds of one pass.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut i = 0usize;
        let mut acc = 0u64;
        for k in 0..STEPS {
            i = self.next[i] as usize;
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(k ^ i as u64);
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

/// `secs` of host time measured between two passes taking `before` and
/// `after` seconds, in reference seconds.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_PASS_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let c = Calibration::new();
        let mut i = 0usize;
        for step in 1..=TABLE_LEN {
            i = c.next[i] as usize;
            if i == 0 {
                assert_eq!(step, TABLE_LEN);
                return;
            }
        }
        panic!("the chase from 0 never returned");
    }
}
