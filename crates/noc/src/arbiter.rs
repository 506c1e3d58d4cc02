//! Arbiters for virtual-channel and switch allocation.
//!
//! The routers use separable allocation: a per-input round-robin stage picks
//! one candidate VC per input port, then a per-output round-robin stage
//! picks one input per output port. [`RoundRobin`] provides the rotating
//! priority.

/// A rotating-priority arbiter over `n` requesters.
///
/// # Examples
///
/// ```
/// use noc::arbiter::RoundRobin;
///
/// let mut rr = RoundRobin::new(3);
/// assert_eq!(rr.grant(&[true, true, true]), Some(0));
/// assert_eq!(rr.grant(&[true, true, true]), Some(1));
/// assert_eq!(rr.grant(&[true, true, true]), Some(2));
/// assert_eq!(rr.grant(&[true, true, true]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobin {
    n: usize,
    /// Index with the highest priority next arbitration.
    next: usize,
}

impl RoundRobin {
    /// Creates an arbiter over `n` requesters with priority starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter needs at least one requester");
        RoundRobin { n, next: 0 }
    }

    /// Number of requesters.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the arbiter has no requesters (never true; see [`RoundRobin::new`]).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grants the highest-priority requester among those with
    /// `requests[i] == true`, rotating priority past the winner.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        for off in 0..self.n {
            let i = (self.next + off) % self.n;
            if requests[i] {
                self.next = (i + 1) % self.n;
                return Some(i);
            }
        }
        None
    }

    /// [`RoundRobin::grant`] over a request bit vector, the form a
    /// hardware arbiter reads: requester `i` asks iff bit `i` of `mask`
    /// is set. Picks exactly `grant`'s winner and leaves exactly its
    /// rotation. Rotating `mask` right by `next` puts the requesters at
    /// or after `next` in the low bits, ahead of the wrapped-around
    /// ones, so the lowest set bit is the winner's offset.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc::arbiter::RoundRobin;
    ///
    /// let mut rr = RoundRobin::new(4);
    /// assert_eq!(rr.grant_mask(0b0101), Some(0));
    /// assert_eq!(rr.grant_mask(0b0101), Some(2));
    /// assert_eq!(rr.grant_mask(0b0101), Some(0));
    /// assert_eq!(rr.grant_mask(0), None);
    /// ```
    ///
    /// # Panics
    ///
    /// Debug builds panic if the arbiter has more than 32 requesters or
    /// `mask` has a bit at or above `self.len()`.
    // hot
    #[inline]
    pub fn grant_mask(&mut self, mask: u32) -> Option<usize> {
        debug_assert!(
            self.n <= 32 && (self.n == 32 || mask >> self.n == 0),
            "request mask wider than the arbiter"
        );
        if mask == 0 {
            return None;
        }
        // `next < n <= 32`, so the shift is in range and the offset of
        // a wrapped requester is at least `32 - next`, past every
        // unwrapped one.
        let offset = mask.rotate_right(self.next as u32).trailing_zeros() as usize;
        let i = (self.next + offset) % 32;
        self.next = if i + 1 == self.n { 0 } else { i + 1 };
        Some(i)
    }

    /// Like [`RoundRobin::grant`] but without rotating the priority.
    /// Useful for speculative queries.
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n, "request vector size mismatch");
        (0..self.n)
            .map(|off| (self.next + off) % self.n)
            .find(|&i| requests[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_under_full_load() {
        let mut rr = RoundRobin::new(4);
        let mut counts = [0usize; 4];
        for _ in 0..400 {
            let g = rr.grant(&[true; 4]).unwrap();
            counts[g] += 1;
        }
        assert_eq!(counts, [100; 4]);
    }

    #[test]
    fn round_robin_skips_idle_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant(&[false, false, true, false]), Some(2));
        assert_eq!(rr.grant(&[true, false, true, false]), Some(0));
        assert_eq!(rr.grant(&[true, false, true, false]), Some(2));
    }

    #[test]
    fn round_robin_none_when_no_requests() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.grant(&[false; 3]), None);
        // Priority unchanged by a no-grant round.
        assert_eq!(rr.grant(&[true, false, false]), Some(0));
    }

    /// `grant_mask` against `grant` for every arbiter size up to 8,
    /// every starting priority and every request mask: same winner,
    /// same rotation.
    #[test]
    fn grant_mask_matches_grant_exhaustively() {
        for n in 1..=8usize {
            for next in 0..n {
                for mask in 0u32..(1 << n) {
                    let requests: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                    let mut by_vec = RoundRobin { n, next };
                    let mut by_mask = RoundRobin { n, next };
                    assert_eq!(
                        by_mask.grant_mask(mask),
                        by_vec.grant(&requests),
                        "n {n}, next {next}, mask {mask:#b}"
                    );
                    assert_eq!(
                        by_mask.next, by_vec.next,
                        "n {n}, next {next}, mask {mask:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn grant_mask_covers_a_full_width_arbiter() {
        let mut rr = RoundRobin::new(32);
        assert_eq!(rr.grant_mask(1 << 31), Some(31));
        assert_eq!(rr.next, 0);
        assert_eq!(rr.grant_mask(u32::MAX), Some(0));
        assert_eq!(rr.grant_mask(1), Some(0));
    }

    #[test]
    fn peek_does_not_rotate() {
        let rr = RoundRobin::new(3);
        assert_eq!(rr.peek(&[true; 3]), Some(0));
        assert_eq!(rr.peek(&[true; 3]), Some(0));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_request_size_panics() {
        let mut rr = RoundRobin::new(3);
        let _ = rr.grant(&[true; 4]);
    }
}

mod digest_impls {
    use super::RoundRobin;
    use crate::digest::{StateDigest, StateHasher};

    impl StateDigest for RoundRobin {
        fn digest_state(&self, h: &mut StateHasher) {
            h.write_usize(self.n);
            h.write_usize(self.next);
        }
    }
}
