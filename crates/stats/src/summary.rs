//! Summary statistics: mean, standard deviation, confidence intervals,
//! geometric mean.

/// Summary of a set of sample values.
///
/// # Examples
///
/// ```
/// use nistats::Summary;
///
/// let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.n, 4);
/// assert!(s.ci95 > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub stddev: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95: f64,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarise zero samples");
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let stddev = if n < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
            var.sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            t_critical_95(n - 1) * stddev / (n as f64).sqrt()
        };
        Summary {
            n,
            mean,
            stddev,
            ci95,
        }
    }
}

/// Two-sided 95% critical value of Student's t for `dof` degrees of
/// freedom (tabulated for small `dof`, 1.96 asymptotically).
fn t_critical_95(dof: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if dof == 0 {
        f64::INFINITY
    } else if dof <= TABLE.len() {
        TABLE[dof - 1]
    } else if dof <= 60 {
        2.0 + (60 - dof) as f64 * 0.00047 + 0.0
    } else {
        1.96
    }
}

/// Geometric mean of strictly positive values (the figures' `GMean` bars).
///
/// # Examples
///
/// ```
/// use nistats::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if `values` is empty or any value is not strictly positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of zero values");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean requires strictly positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.stddev - 2.138).abs() < 1e-3);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        let many: Vec<f64> = (0..30).map(|i| 1.0 + (i % 3) as f64).collect();
        let many = Summary::of(&many);
        assert!(many.ci95 < few.ci95);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_summary_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[5.0]) - 5.0).abs() < 1e-12);
        // GMean of ratios is the paper's aggregation: it is never above
        // the arithmetic mean.
        let vals = [0.9, 1.1, 1.3];
        let am = vals.iter().sum::<f64>() / 3.0;
        assert!(geometric_mean(&vals) <= am);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn geometric_mean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn t_table_is_monotonic() {
        let mut last = f64::INFINITY;
        for dof in 1..100 {
            let t = t_critical_95(dof);
            assert!(t <= last + 1e-9, "dof {dof}");
            last = t;
        }
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-9);
    }
}
