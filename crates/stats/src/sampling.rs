//! Warm-up / measurement-window sampling, after the SimFlex methodology
//! the paper uses: detailed simulation warms for a fixed window to reach
//! steady state, measurements are taken over the following window, and
//! independent samples (different seeds / checkpoints) are aggregated
//! with 95% confidence intervals.

use crate::summary::Summary;

/// A sampling plan.
///
/// The paper's setup: 100 K cycles of detailed warming, then 50 K cycles
/// of measurement per sample, with enough samples for < 4% error at 95%
/// confidence. [`SampleSpec::paper`] mirrors those windows; tests and
/// quick runs build smaller ones as struct literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSpec {
    /// Cycles simulated before measurement starts.
    pub warmup_cycles: u64,
    /// Cycles measured per sample.
    pub measure_cycles: u64,
    /// Number of independent samples (seeds).
    pub samples: u32,
}

impl SampleSpec {
    /// The paper's measurement windows: 100 K warm cycles, 50 K measured
    /// cycles per sample.
    pub fn paper() -> Self {
        SampleSpec {
            warmup_cycles: 100_000,
            measure_cycles: 50_000,
            samples: 3,
        }
    }

    /// Runs `sample(seed)` for each sample and summarises the results.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn run<F: FnMut(u64) -> f64>(&self, mut sample: F) -> Summary {
        assert!(self.samples > 0, "at least one sample required");
        let values: Vec<f64> = (0..self.samples).map(|i| sample(i as u64 + 1)).collect();
        Summary::of(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_matches_methodology() {
        let s = SampleSpec::paper();
        assert_eq!(s.warmup_cycles, 100_000);
        assert_eq!(s.measure_cycles, 50_000);
        assert!(s.samples >= 2);
    }

    #[test]
    fn run_aggregates_samples() {
        let spec = SampleSpec {
            warmup_cycles: 0,
            measure_cycles: 0,
            samples: 4,
        };
        let summary = spec.run(|seed| seed as f64);
        assert_eq!(summary.n, 4);
        assert!((summary.mean - 2.5).abs() < 1e-12);
    }

    #[test]
    fn seeds_start_at_one() {
        let spec = SampleSpec {
            warmup_cycles: 0,
            measure_cycles: 0,
            samples: 1,
        };
        let mut seen = Vec::new();
        spec.run(|seed| {
            seen.push(seed);
            0.0
        });
        assert_eq!(seen, vec![1]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let spec = SampleSpec {
            warmup_cycles: 0,
            measure_cycles: 0,
            samples: 0,
        };
        let _ = spec.run(|_| 0.0);
    }
}
