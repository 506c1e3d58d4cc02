//! Network statistics.
//!
//! [`NetStats`] is shared by every organisation: per-class packet/flit
//! counters, end-to-end latency accounting, and resource-utilisation
//! counters used by the paper's Section V.B analysis.

use crate::types::{Cycle, MessageClass};

/// Accumulated statistics for one network instance.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Packets handed to the network, per message class (indexed by VC).
    pub packets_injected: [u64; 3],
    /// Packets fully delivered, per message class.
    pub packets_delivered: [u64; 3],
    /// Flits delivered, per message class.
    pub flits_delivered: [u64; 3],
    /// Sum over delivered packets of `delivered - created` cycles.
    pub total_latency: u64,
    /// Per-class latency sums (indexed by VC).
    pub total_latency_by_class: [u64; 3],
    /// Sum over delivered packets of `injected - created` (source queueing).
    pub total_queue_latency: u64,
    /// Sum of hop counts of delivered packets.
    pub total_hops: u64,
    /// Worst observed end-to-end packet latency.
    pub max_latency: u64,
    /// Worst observed end-to-end latency per message class (indexed by
    /// VC) — the quantity the QoS bound gate compares against the
    /// analytical worst case.
    pub max_latency_by_class: [u64; 3],
    /// Total link traversals (each flit × each link, bypassed or not).
    pub link_traversals: u64,
    /// Switch-allocation grants issued by reactive (local) arbiters.
    pub local_grants: u64,
    /// Traversals executed from reserved timeslots (PRA forced moves).
    pub reserved_moves: u64,
    /// Reserved timeslots that expired unused (the data flit was absent).
    pub wasted_reservations: u64,
    /// Cycles in which a flit requested an output port that was idle but
    /// blocked by a reservation or multi-flit guard for another packet
    /// (the paper's "resource underutilisation" measure).
    pub blocked_by_reservation_cycles: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// End-to-end latency histogram: bucket `i` counts packets with
    /// latency `i` cycles; the last bucket absorbs the overflow. Sized
    /// for server-scale round trips.
    pub latency_histogram: Vec<u64>,
    /// Per-class latency histograms (indexed by VC), same bucketing as
    /// [`NetStats::latency_histogram`]; lazily allocated on first
    /// delivery of the class.
    pub latency_histogram_by_class: [Vec<u64>; 3],
}

impl NetStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Zeroes every counter and the latency histogram, opening a fresh
    /// measurement window. Called at the warm-up/measurement boundary so
    /// reported statistics cover only the measured interval (the paper's
    /// SimFlex-style methodology); in-flight packets delivered after the
    /// reset count toward the new window.
    pub fn reset(&mut self) {
        *self = NetStats::default();
    }

    /// Adds `other` into `self`, as when summing independent samples:
    /// counters and histogram buckets are summed, maxima take the larger
    /// value. The destructure is exhaustive, so a new field does not
    /// compile until it is merged here.
    pub fn merge(&mut self, other: &NetStats) {
        let NetStats {
            packets_injected,
            packets_delivered,
            flits_delivered,
            total_latency,
            total_latency_by_class,
            total_queue_latency,
            total_hops,
            max_latency,
            max_latency_by_class,
            link_traversals,
            local_grants,
            reserved_moves,
            wasted_reservations,
            blocked_by_reservation_cycles,
            cycles,
            latency_histogram,
            latency_histogram_by_class,
        } = other;
        add_each(&mut self.packets_injected, packets_injected);
        add_each(&mut self.packets_delivered, packets_delivered);
        add_each(&mut self.flits_delivered, flits_delivered);
        self.total_latency += total_latency;
        add_each(&mut self.total_latency_by_class, total_latency_by_class);
        self.total_queue_latency += total_queue_latency;
        self.total_hops += total_hops;
        self.max_latency = self.max_latency.max(*max_latency);
        for (acc, max) in self
            .max_latency_by_class
            .iter_mut()
            .zip(max_latency_by_class)
        {
            *acc = (*acc).max(*max);
        }
        self.link_traversals += link_traversals;
        self.local_grants += local_grants;
        self.reserved_moves += reserved_moves;
        self.wasted_reservations += wasted_reservations;
        self.blocked_by_reservation_cycles += blocked_by_reservation_cycles;
        self.cycles += cycles;
        add_histogram(&mut self.latency_histogram, latency_histogram);
        for (acc, hist) in self
            .latency_histogram_by_class
            .iter_mut()
            .zip(latency_histogram_by_class)
        {
            add_histogram(acc, hist);
        }
    }

    /// Records an injection of a packet of class `class`.
    pub fn record_injected(&mut self, class: MessageClass) {
        self.packets_injected[class.vc()] += 1;
    }

    /// Records a delivery.
    pub fn record_delivered(
        &mut self,
        class: MessageClass,
        len_flits: u8,
        created: Cycle,
        injected: Cycle,
        delivered: Cycle,
        hops: u32,
    ) {
        self.packets_delivered[class.vc()] += 1;
        self.flits_delivered[class.vc()] += len_flits as u64;
        let lat = delivered.saturating_sub(created);
        self.total_latency += lat;
        self.total_latency_by_class[class.vc()] += lat;
        if self.latency_histogram.is_empty() {
            self.latency_histogram = vec![0; 513];
        }
        let bucket = (lat as usize).min(self.latency_histogram.len() - 1);
        self.latency_histogram[bucket] += 1;
        let class_hist = &mut self.latency_histogram_by_class[class.vc()];
        if class_hist.is_empty() {
            *class_hist = vec![0; 513];
        }
        let class_bucket = (lat as usize).min(class_hist.len() - 1);
        class_hist[class_bucket] += 1;
        self.total_queue_latency += injected.saturating_sub(created);
        self.total_hops += hops as u64;
        self.max_latency = self.max_latency.max(lat);
        self.max_latency_by_class[class.vc()] = self.max_latency_by_class[class.vc()].max(lat);
    }

    /// Total packets delivered across classes.
    pub fn delivered(&self) -> u64 {
        self.packets_delivered.iter().sum()
    }

    /// Total packets injected across classes.
    pub fn injected(&self) -> u64 {
        self.packets_injected.iter().sum()
    }

    /// Mean latency of `class` packets in cycles (0 when none delivered).
    pub fn avg_latency_of(&self, class: MessageClass) -> f64 {
        let n = self.packets_delivered[class.vc()];
        if n == 0 {
            0.0
        } else {
            self.total_latency_by_class[class.vc()] as f64 / n as f64
        }
    }

    /// Mean end-to-end packet latency in cycles (0 when nothing delivered).
    pub fn avg_latency(&self) -> f64 {
        let n = self.delivered();
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }

    /// Mean source-queueing latency in cycles.
    pub fn avg_queue_latency(&self) -> f64 {
        let n = self.delivered();
        if n == 0 {
            0.0
        } else {
            self.total_queue_latency as f64 / n as f64
        }
    }

    /// Mean hop count of delivered packets.
    pub fn avg_hops(&self) -> f64 {
        let n = self.delivered();
        if n == 0 {
            0.0
        } else {
            self.total_hops as f64 / n as f64
        }
    }

    /// The latency at or below which `quantile` (0..=1) of delivered
    /// packets completed; `None` when nothing was delivered. The last
    /// histogram bucket is open-ended, so a result equal to the bucket
    /// count is a lower bound.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn latency_percentile(&self, quantile: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&quantile), "quantile within [0, 1]");
        let total = self.delivered();
        if total == 0 {
            return None;
        }
        let target = (quantile * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (lat, n) in self.latency_histogram.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(lat as u64);
            }
        }
        Some(self.latency_histogram.len() as u64)
    }

    /// Like [`NetStats::latency_percentile`], restricted to packets of
    /// `class`; `None` when the class delivered nothing.
    ///
    /// # Panics
    ///
    /// Panics if `quantile` is outside `[0, 1]`.
    pub fn latency_percentile_of(&self, class: MessageClass, quantile: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&quantile), "quantile within [0, 1]");
        let total = self.packets_delivered[class.vc()];
        if total == 0 {
            return None;
        }
        let hist = &self.latency_histogram_by_class[class.vc()];
        let target = (quantile * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (lat, n) in hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(lat as u64);
            }
        }
        Some(hist.len() as u64)
    }

    /// Fraction of in-network time spent blocked behind proactively
    /// reserved resources (Section V.B's ≈0.01% figure).
    pub fn reservation_blocking_fraction(&self) -> f64 {
        if self.total_latency == 0 {
            0.0
        } else {
            self.blocked_by_reservation_cycles as f64 / self.total_latency as f64
        }
    }
}

fn add_each(acc: &mut [u64], other: &[u64]) {
    for (a, b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

/// Bucket-wise sum; an empty (never allocated) histogram takes the
/// other's length.
fn add_histogram(acc: &mut Vec<u64>, other: &[u64]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), 0);
    }
    add_each(acc, other);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_accounting() {
        let mut s = NetStats::new();
        s.record_injected(MessageClass::Request);
        s.record_delivered(MessageClass::Request, 1, 10, 12, 30, 4);
        s.record_injected(MessageClass::Response);
        s.record_delivered(MessageClass::Response, 5, 0, 0, 10, 2);
        assert_eq!(s.delivered(), 2);
        assert_eq!(s.injected(), 2);
        assert_eq!(s.total_latency, 30);
        assert_eq!(s.avg_latency(), 15.0);
        assert_eq!(s.avg_queue_latency(), 1.0);
        assert_eq!(s.avg_hops(), 3.0);
        assert_eq!(s.max_latency, 20);
        assert_eq!(s.flits_delivered[MessageClass::Response.vc()], 5);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = NetStats::new();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_queue_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
        assert_eq!(s.reservation_blocking_fraction(), 0.0);
    }

    #[test]
    fn percentiles_from_histogram() {
        let mut s = NetStats::new();
        for lat in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 100] {
            s.record_delivered(MessageClass::Request, 1, 0, 0, lat, 1);
        }
        assert_eq!(s.latency_percentile(0.5), Some(10));
        assert_eq!(s.latency_percentile(0.9), Some(10));
        assert_eq!(s.latency_percentile(0.95), Some(100));
        assert_eq!(s.latency_percentile(1.0), Some(100));
        assert_eq!(NetStats::new().latency_percentile(0.5), None);
    }

    #[test]
    fn overflow_latencies_land_in_last_bucket() {
        let mut s = NetStats::new();
        s.record_delivered(MessageClass::Request, 1, 0, 0, 10_000, 1);
        assert_eq!(s.latency_percentile(1.0), Some(512));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let s = NetStats::new();
        let _ = s.latency_percentile(1.5);
    }

    #[test]
    fn per_class_percentiles_and_max() {
        let mut s = NetStats::new();
        for lat in [5u64, 5, 5, 50] {
            s.record_delivered(MessageClass::Request, 1, 0, 0, lat, 1);
        }
        s.record_delivered(MessageClass::Response, 5, 0, 0, 200, 3);
        assert_eq!(s.latency_percentile_of(MessageClass::Request, 0.5), Some(5));
        assert_eq!(
            s.latency_percentile_of(MessageClass::Request, 1.0),
            Some(50)
        );
        assert_eq!(
            s.latency_percentile_of(MessageClass::Response, 0.99),
            Some(200)
        );
        assert_eq!(s.latency_percentile_of(MessageClass::Coherence, 0.5), None);
        assert_eq!(s.max_latency_by_class[MessageClass::Request.vc()], 50);
        assert_eq!(s.max_latency_by_class[MessageClass::Response.vc()], 200);
        assert_eq!(s.max_latency, 200);
    }

    #[test]
    fn reset_zeroes_per_class_and_response_counters() {
        // Regression: the warm-up window must not leak into per-class
        // tails after the measurement-boundary reset (the
        // `TrafficGen::response_fraction` × `NetStats::reset`
        // interaction).
        let mut s = NetStats::new();
        for _ in 0..100 {
            s.record_injected(MessageClass::Response);
            s.record_delivered(MessageClass::Response, 5, 0, 0, 400, 6);
        }
        s.record_injected(MessageClass::Request);
        s.record_delivered(MessageClass::Request, 1, 0, 0, 9, 1);
        s.reset();
        assert_eq!(s.injected(), 0);
        assert_eq!(s.delivered(), 0);
        assert_eq!(s.packets_injected, [0; 3]);
        assert_eq!(s.packets_delivered, [0; 3]);
        assert_eq!(s.flits_delivered, [0; 3]);
        assert_eq!(s.total_latency_by_class, [0; 3]);
        assert_eq!(s.max_latency_by_class, [0; 3]);
        assert_eq!(s.latency_percentile_of(MessageClass::Response, 0.99), None);
        assert!(s
            .latency_histogram_by_class
            .iter()
            .all(|h| h.iter().all(|&n| n == 0)));
        // Post-reset deliveries open a clean window.
        s.record_delivered(MessageClass::Response, 5, 0, 0, 12, 2);
        assert_eq!(
            s.latency_percentile_of(MessageClass::Response, 0.99),
            Some(12)
        );
        assert_eq!(s.max_latency_by_class[MessageClass::Response.vc()], 12);
    }

    /// Stats with every field nonzero: `n` deliveries per class at
    /// latencies `lat`, `lat + 1` and `2 * lat`, and resource counters
    /// proportional to `n`.
    fn busy(n: u64, lat: u64) -> NetStats {
        let mut s = NetStats::new();
        for _ in 0..n {
            for (class, len, at) in [
                (MessageClass::Request, 1, lat),
                (MessageClass::Coherence, 1, lat + 1),
                (MessageClass::Response, 5, 2 * lat),
            ] {
                s.record_injected(class);
                s.record_delivered(class, len, 0, 2, at, 3);
            }
        }
        s.link_traversals = 10 * n;
        s.local_grants = 11 * n;
        s.reserved_moves = 12 * n;
        s.wasted_reservations = 13 * n;
        s.blocked_by_reservation_cycles = 14 * n;
        s.cycles = 1_000 * n;
        s
    }

    #[test]
    fn merge_into_default_reproduces_every_field() {
        let mut acc = NetStats::new();
        acc.merge(&busy(3, 40));
        assert_eq!(format!("{acc:?}"), format!("{:?}", busy(3, 40)));
    }

    #[test]
    fn merge_sums_counters_and_keeps_the_larger_maxima() {
        let mut sum = busy(2, 30);
        sum.merge(&busy(5, 30));
        assert_eq!(format!("{sum:?}"), format!("{:?}", busy(7, 30)));
        let mut m = busy(1, 30);
        m.merge(&busy(1, 20));
        assert_eq!(m.max_latency, 60);
        assert_eq!(m.max_latency_by_class, [30, 31, 60]);
        assert_eq!(
            m.latency_percentile_of(MessageClass::Response, 0.5),
            Some(40)
        );
    }

    #[test]
    fn blocking_fraction() {
        let mut s = NetStats::new();
        s.record_delivered(MessageClass::Request, 1, 0, 0, 100, 4);
        s.blocked_by_reservation_cycles = 1;
        assert!((s.reservation_blocking_fraction() - 0.01).abs() < 1e-12);
    }
}
