//! PRA control-plane statistics — the raw material for Figure 7 and the
//! Section V.B analysis of the paper.

/// Where a control packet originated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlOrigin {
    /// Injected by the LLC network interface at tag-hit time.
    Llc,
    /// Injected by a Long Stall Detection unit for a blocked packet.
    Lsd,
}

/// Why a control packet was dropped (every control packet is eventually
/// dropped — that is how the protocol ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DropReason {
    /// The whole remaining path (or the destination) was allocated —
    /// the ideal outcome; recorded as lag 0.
    Completed,
    /// The lag reached zero: the data packet caught up with the control
    /// packet and no further pre-allocation is possible.
    LagExhausted,
    /// A resource on the segment could not be granted (timeslot, buffer,
    /// latch, or owner conflict).
    AllocationFailed,
    /// Lost a static-priority conflict for a control-network latch.
    Conflict,
    /// The NI latch was busy (or the source had backlog) at injection.
    NiBusy,
    /// A fault hit the control network (corrupted/forced-drop segment, or
    /// a dead router/link on the remaining path). The data packet falls
    /// back to baseline mesh routing — correctness is unaffected.
    Fault,
}

/// Accumulated control-plane statistics.
#[derive(Debug, Clone, Default)]
pub struct PraStats {
    /// Control packets injected by the LLC path.
    pub injected_llc: u64,
    /// Control packets injected by LSD units.
    pub injected_lsd: u64,
    /// Launch attempts refused at the NI (backlog or latch busy).
    pub refused_at_ni: u64,
    /// Histogram of the lag value when dropped, index = lag (0..=max);
    /// the paper's maximum lag is 4.
    pub lag_at_drop: [u64; 8],
    /// Drop counts by reason, indexed by [`DropReason`] order.
    pub drops_by_reason: [u64; 6],
    /// Total router output-port hops successfully pre-allocated.
    pub hops_preallocated: u64,
    /// Control-network segment processing steps executed.
    pub segments_processed: u64,
    /// Allocation failures by install-error kind:
    /// `[slot_taken, port_committed, no_downstream_buffer, latch_busy,
    /// latch_conversion, caught_up]`.
    pub alloc_fail_kinds: [u64; 6],
}

impl PraStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        PraStats::default()
    }

    /// Adds `other` into `self`, as when summing independent samples.
    /// The destructure is exhaustive, so a new field does not compile
    /// until it is merged here.
    pub fn merge(&mut self, other: &PraStats) {
        let PraStats {
            injected_llc,
            injected_lsd,
            refused_at_ni,
            lag_at_drop,
            drops_by_reason,
            hops_preallocated,
            segments_processed,
            alloc_fail_kinds,
        } = other;
        self.injected_llc += injected_llc;
        self.injected_lsd += injected_lsd;
        self.refused_at_ni += refused_at_ni;
        add_each(&mut self.lag_at_drop, lag_at_drop);
        add_each(&mut self.drops_by_reason, drops_by_reason);
        self.hops_preallocated += hops_preallocated;
        self.segments_processed += segments_processed;
        add_each(&mut self.alloc_fail_kinds, alloc_fail_kinds);
    }

    /// Records an injection.
    pub fn record_injected(&mut self, origin: ControlOrigin) {
        match origin {
            ControlOrigin::Llc => self.injected_llc += 1,
            ControlOrigin::Lsd => self.injected_lsd += 1,
        }
    }

    /// Records a drop with the given remaining `lag`.
    pub fn record_drop(&mut self, reason: DropReason, lag: u8) {
        let lag = if reason == DropReason::Completed {
            0
        } else {
            lag
        };
        self.lag_at_drop[(lag as usize).min(self.lag_at_drop.len() - 1)] += 1;
        self.drops_by_reason[reason as usize] += 1;
    }

    /// Total control packets injected.
    pub fn injected(&self) -> u64 {
        self.injected_llc + self.injected_lsd
    }

    /// Total control packets dropped (equals injected once drained).
    pub fn dropped(&self) -> u64 {
        self.lag_at_drop.iter().sum()
    }

    /// Fraction of drops at each lag value `0..=max_lag`
    /// (the paper's Figure 7 series).
    pub fn lag_distribution(&self, max_lag: u8) -> Vec<f64> {
        let total = self.dropped() as f64;
        (0..=max_lag as usize)
            .map(|l| {
                if total == 0.0 {
                    0.0
                } else {
                    self.lag_at_drop[l] as f64 / total
                }
            })
            .collect()
    }

    /// Control packets per data packet, given the number of data packets
    /// (the paper reports 1.60–1.89).
    pub fn controls_per_data_packet(&self, data_packets: u64) -> f64 {
        if data_packets == 0 {
            0.0
        } else {
            self.injected() as f64 / data_packets as f64
        }
    }
}

fn add_each(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_accounting() {
        let mut s = PraStats::new();
        s.record_injected(ControlOrigin::Llc);
        s.record_injected(ControlOrigin::Llc);
        s.record_injected(ControlOrigin::Lsd);
        assert_eq!(s.injected(), 3);
        assert_eq!(s.controls_per_data_packet(2), 1.5);
    }

    #[test]
    fn completed_drops_count_as_lag_zero() {
        let mut s = PraStats::new();
        s.record_drop(DropReason::Completed, 3);
        s.record_drop(DropReason::LagExhausted, 0);
        s.record_drop(DropReason::AllocationFailed, 2);
        assert_eq!(s.lag_at_drop[0], 2);
        assert_eq!(s.lag_at_drop[2], 1);
        assert_eq!(s.dropped(), 3);
        let dist = s.lag_distribution(4);
        assert!((dist[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((dist[2] - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(dist.len(), 5);
    }

    /// Stats with every field nonzero, scaled by `n`.
    fn busy(n: u64) -> PraStats {
        let mut s = PraStats::new();
        for _ in 0..n {
            s.record_injected(ControlOrigin::Llc);
            s.record_injected(ControlOrigin::Lsd);
            s.record_drop(DropReason::AllocationFailed, 2);
            s.record_drop(DropReason::Completed, 0);
        }
        s.refused_at_ni = 3 * n;
        s.hops_preallocated = 4 * n;
        s.segments_processed = 5 * n;
        s.alloc_fail_kinds = [n, 2 * n, 3 * n, 4 * n, 5 * n, 6 * n];
        s
    }

    #[test]
    fn merge_into_default_reproduces_every_field() {
        let mut acc = PraStats::new();
        acc.merge(&busy(3));
        assert_eq!(format!("{acc:?}"), format!("{:?}", busy(3)));
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut sum = busy(2);
        sum.merge(&busy(5));
        assert_eq!(format!("{sum:?}"), format!("{:?}", busy(7)));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = PraStats::new();
        assert_eq!(s.controls_per_data_packet(0), 0.0);
        assert!(s.lag_distribution(4).iter().all(|x| *x == 0.0));
    }
}
