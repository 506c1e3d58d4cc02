//! Warm-up / measurement-window sampling, after the SimFlex methodology
//! the paper uses: detailed simulation warms for a fixed window to reach
//! steady state, measurements are taken over the following window, and
//! independent samples (different seeds / checkpoints) are aggregated
//! with 95% confidence intervals.

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

    /// The samples' seeds, `1..=samples`.
    pub fn seeds(&self) -> std::ops::RangeInclusive<u64> {
        1..=u64::from(self.samples)
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
    fn seeds_start_at_one() {
        let spec = SampleSpec {
            warmup_cycles: 0,
            measure_cycles: 0,
            samples: 3,
        };
        assert_eq!(spec.seeds().collect::<Vec<_>>(), [1, 2, 3]);
        let none = SampleSpec { samples: 0, ..spec };
        assert_eq!(none.seeds().count(), 0);
    }
}
