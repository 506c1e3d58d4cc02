//! Named counters and exact histograms.
//!
//! Unlike a fixed-bucket histogram with an overflow bucket (where large
//! percentiles are lower bounds), the histograms here are sparse maps
//! keyed by exact value: percentiles are exact at any scale, at the cost
//! of one `BTreeMap` node per distinct value — fine for sink-side use,
//! where updates are already off the simulator's zero-cost path.

use std::collections::BTreeMap;

/// An exact value-distribution: every observed value keeps its own
/// count, so quantiles are precise.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseHistogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u64,
}

impl SparseHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        SparseHistogram::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest observed value, if any.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest observed value, if any.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean of the observations, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        Some(self.sum as f64 / self.total as f64)
    }

    /// Exact `q`-quantile (`0.0 ..= 1.0`): the smallest observed value
    /// `v` such that at least `ceil(q * count)` observations are ≤ `v`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&value, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }
}

/// A registry of named counters and histograms.
///
/// Keys are free-form dotted names (`"noc.link_traversals"`). The
/// registry is `Clone`, so callers can keep a mid-run copy and diff it
/// later without disturbing the live registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, SparseHistogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `by` to the named counter (creating it at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records `value` into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if any values were observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&SparseHistogram> {
        self.histograms.get(name)
    }

    /// Clears every counter and histogram. Benchmarks call this at the
    /// warm-up/measurement boundary so the registry covers only the
    /// measured window; clone the registry first if the warm-up numbers
    /// are worth keeping.
    pub fn begin_epoch(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentiles_small() {
        let mut h = SparseHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), Some(50));
        assert_eq!(h.percentile(0.95), Some(95));
        assert_eq!(h.percentile(0.99), Some(99));
        assert_eq!(h.percentile(1.0), Some(100));
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        let mean = h.mean().expect("non-empty histogram has a mean");
        assert!((mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn exact_beyond_bounded_histogram_range() {
        // A fixed-bucket histogram would clamp values past its overflow
        // bucket; the sparse histogram must stay exact at any scale.
        let mut h = SparseHistogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        assert_eq!(h.percentile(0.99), Some(10));
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }

    #[test]
    fn empty_histogram_yields_none() {
        let h = SparseHistogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.inc("a.count", 2);
        m.inc("a.count", 3);
        m.observe("c.lat", 4);
        let copy = m.clone();
        m.inc("a.count", 10);
        assert_eq!(copy.counter("a.count"), 5);
        assert_eq!(m.counter("a.count"), 15);
        assert_eq!(copy.histogram("c.lat").map(SparseHistogram::count), Some(1));
        assert_eq!(copy.counter("missing"), 0);
    }

    #[test]
    fn begin_epoch_clears() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 5);
        m.observe("h", 7);
        let warmup = m.clone();
        m.begin_epoch();
        assert_eq!(m.counter("a"), 0);
        assert!(m.histogram("h").is_none());
        // The pre-epoch copy keeps the warm-up numbers.
        assert_eq!(warmup.counter("a"), 5);
        m.inc("a", 1);
        assert_eq!(m.counter("a"), 1);
    }
}
