//! Named counters, gauges, and exact histograms, snapshotable mid-run.
//!
//! Unlike a fixed-bucket histogram with an overflow bucket (where large
//! percentiles are lower bounds), the histograms here are sparse maps
//! keyed by exact value: percentiles are exact at any scale, at the cost
//! of one `BTreeMap` node per distinct value — fine for sink-side use,
//! where updates are already off the simulator's zero-cost path.

use std::collections::BTreeMap;

use nistats::Json;

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

    /// Serialises count/mean/min/max and the standard latency quantiles.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let quantile = |q: f64| match self.percentile(q) {
            Some(v) => Json::UInt(v),
            None => Json::Null,
        };
        Json::object(vec![
            ("count".to_string(), Json::UInt(self.total)),
            (
                "mean".to_string(),
                self.mean().map_or(Json::Null, Json::Float),
            ),
            ("min".to_string(), self.min().map_or(Json::Null, Json::UInt)),
            ("p50".to_string(), quantile(0.50)),
            ("p95".to_string(), quantile(0.95)),
            ("p99".to_string(), quantile(0.99)),
            ("max".to_string(), self.max().map_or(Json::Null, Json::UInt)),
        ])
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Keys are free-form dotted names (`"noc.link_traversals"`). The
/// registry is `Clone`, and [`MetricsRegistry::snapshot`] is just that
/// clone — callers can snapshot mid-run and diff later without
/// disturbing the live registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, SparseHistogram>,
    epoch: u32,
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

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
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

    /// Current value of a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any values were observed.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&SparseHistogram> {
        self.histograms.get(name)
    }

    /// Names and values of all counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// A point-in-time copy of the whole registry.
    #[must_use]
    pub fn snapshot(&self) -> MetricsRegistry {
        self.clone()
    }

    /// Clears every counter, gauge, and histogram and advances the epoch
    /// number. Benchmarks call this at the warm-up/measurement boundary
    /// so the registry covers only the measured window; snapshot the
    /// registry first if the warm-up numbers are worth keeping.
    pub fn begin_epoch(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
        self.epoch += 1;
    }

    /// Which measurement epoch the registry is in (0 until the first
    /// [`MetricsRegistry::begin_epoch`] call).
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Serialises the registry: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::UInt(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(k, &v)| {
                let value = if v >= 0 {
                    #[allow(clippy::cast_sign_loss)]
                    Json::UInt(v as u64)
                } else {
                    Json::Int(v)
                };
                (k.clone(), value)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        Json::object(vec![
            ("counters".to_string(), Json::Object(counters)),
            ("gauges".to_string(), Json::Object(gauges)),
            ("histograms".to_string(), Json::Object(histograms)),
        ])
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
    fn registry_counters_gauges_snapshot() {
        let mut m = MetricsRegistry::new();
        m.inc("a.count", 2);
        m.inc("a.count", 3);
        m.set_gauge("b.level", -7);
        m.observe("c.lat", 4);
        let snap = m.snapshot();
        m.inc("a.count", 10);
        assert_eq!(snap.counter("a.count"), 5);
        assert_eq!(m.counter("a.count"), 15);
        assert_eq!(snap.gauge("b.level"), Some(-7));
        assert_eq!(snap.histogram("c.lat").map(SparseHistogram::count), Some(1));
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn begin_epoch_clears_and_advances() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 5);
        m.set_gauge("g", 2);
        m.observe("h", 7);
        assert_eq!(m.epoch(), 0);
        let warmup = m.snapshot();
        m.begin_epoch();
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.counter("a"), 0);
        assert_eq!(m.gauge("g"), None);
        assert!(m.histogram("h").is_none());
        // The pre-epoch snapshot keeps the warm-up numbers.
        assert_eq!(warmup.counter("a"), 5);
        assert_eq!(warmup.epoch(), 0);
        m.inc("a", 1);
        assert_eq!(m.counter("a"), 1);
    }

    #[test]
    fn registry_json_shape() {
        let mut m = MetricsRegistry::new();
        m.inc("x", 1);
        m.set_gauge("g", 3);
        m.observe("h", 9);
        let json = m.to_json();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("x"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("g"))
                .and_then(Json::as_u64),
            Some(3)
        );
        let h = json.get("histograms").and_then(|h| h.get("h"));
        assert_eq!(h.and_then(|h| h.get("p50")).and_then(Json::as_u64), Some(9));
    }
}
