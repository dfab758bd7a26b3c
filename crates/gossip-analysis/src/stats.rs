//! Descriptive statistics: means, variances, quantiles, confidence intervals.

use crate::{AnalysisError, Result};

/// Arithmetic mean of a sample.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty slice.
pub fn mean(sample: &[f64]) -> Result<f64> {
    if sample.is_empty() {
        return Err(AnalysisError::EmptySample);
    }
    Ok(sample.iter().sum::<f64>() / sample.len() as f64)
}

/// Unbiased sample variance (divides by `n − 1`); `0.0` for a single point.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty slice.
pub fn sample_variance(sample: &[f64]) -> Result<f64> {
    let m = mean(sample)?;
    if sample.len() == 1 {
        return Ok(0.0);
    }
    Ok(sample.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (sample.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty slice.
pub fn sample_std(sample: &[f64]) -> Result<f64> {
    Ok(sample_variance(sample)?.sqrt())
}

/// A sample validated and sorted **once**, for repeated order-statistic
/// queries without the per-call clone-and-sort of [`quantile`].
///
/// Construction costs one `O(n log n)` sort; every subsequent
/// [`Self::quantile`] is `O(1)` and bit-identical to the free function on
/// the same data.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedSample {
    sorted: Vec<f64>,
}

impl SortedSample {
    /// Validates and sorts a sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptySample`] for an empty slice and
    /// [`AnalysisError::InvalidParameter`] if the data contain NaN.
    pub fn new(sample: &[f64]) -> Result<Self> {
        if sample.is_empty() {
            return Err(AnalysisError::EmptySample);
        }
        if sample.iter().any(|x| x.is_nan()) {
            return Err(AnalysisError::InvalidParameter {
                reason: "sample contains NaN".into(),
            });
        }
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after the check above"));
        Ok(SortedSample { sorted })
    }

    /// Number of data points (never zero).
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false` — construction rejects empty samples; provided for
    /// clippy's `len_without_is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The data in ascending order.
    pub fn as_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// Empirical quantile by linear interpolation between order statistics
    /// (`q = 0` is the minimum, `q = 1` the maximum), without re-sorting.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] if `q ∉ [0, 1]`.
    pub fn quantile(&self, q: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&q) {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("quantile must lie in [0, 1], got {q}"),
            });
        }
        let position = q * (self.sorted.len() - 1) as f64;
        let lower = position.floor() as usize;
        let upper = position.ceil() as usize;
        if lower == upper {
            Ok(self.sorted[lower])
        } else {
            let fraction = position - lower as f64;
            Ok(self.sorted[lower] * (1.0 - fraction) + self.sorted[upper] * fraction)
        }
    }

    /// The median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5).expect("0.5 is a valid quantile")
    }
}

/// Empirical quantile by linear interpolation between order statistics.
///
/// `q = 0` returns the minimum, `q = 1` the maximum.  Clones and sorts the
/// sample on every call — when querying several quantiles of one sample,
/// build a [`SortedSample`] (or call [`quantiles`]) to sort once.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty slice and
/// [`AnalysisError::InvalidParameter`] if `q ∉ [0, 1]` or the data contain
/// NaN.
pub fn quantile(sample: &[f64], q: f64) -> Result<f64> {
    if sample.is_empty() {
        return Err(AnalysisError::EmptySample);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("quantile must lie in [0, 1], got {q}"),
        });
    }
    SortedSample::new(sample)?.quantile(q)
}

/// Several quantiles of one sample with a single sort, each value
/// bit-identical to a standalone [`quantile`] call.
///
/// # Errors
///
/// See [`quantile`]; an invalid entry anywhere in `qs` fails the whole call.
pub fn quantiles(sample: &[f64], qs: &[f64]) -> Result<Vec<f64>> {
    let sorted = SortedSample::new(sample)?;
    qs.iter().map(|&q| sorted.quantile(q)).collect()
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// See [`quantile`].
pub fn median(sample: &[f64]) -> Result<f64> {
    quantile(sample, 0.5)
}

/// A normal-approximation confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (the sample mean).
    pub estimate: f64,
    /// Lower endpoint.
    pub lower: f64,
    /// Upper endpoint.
    pub upper: f64,
}

impl ConfidenceInterval {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Returns `true` if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// 95% normal-approximation confidence interval for the mean of a sample.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty slice.
pub fn mean_confidence_interval95(sample: &[f64]) -> Result<ConfidenceInterval> {
    let m = mean(sample)?;
    let s = sample_std(sample)?;
    let half = 1.96 * s / (sample.len() as f64).sqrt();
    Ok(ConfidenceInterval {
        estimate: m,
        lower: m - half,
        upper: m + half,
    })
}

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Lower quartile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile.
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptySample`] for an empty slice and
    /// [`AnalysisError::InvalidParameter`] for NaN data.
    pub fn of(sample: &[f64]) -> Result<Self> {
        let sorted = SortedSample::new(sample)?;
        Ok(Summary {
            count: sample.len(),
            mean: mean(sample)?,
            std: sample_std(sample)?,
            min: sorted.quantile(0.0)?,
            q25: sorted.quantile(0.25)?,
            median: sorted.quantile(0.5)?,
            q75: sorted.quantile(0.75)?,
            max: sorted.quantile(1.0)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs).unwrap() - 5.0).abs() < 1e-12);
        assert!((sample_variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((sample_std(&xs).unwrap() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert!(mean(&[]).is_err());
        assert_eq!(sample_variance(&[3.0]).unwrap(), 0.0);
    }

    #[test]
    fn quantiles_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
        assert!((median(&xs).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!(quantile(&xs, 1.5).is_err());
        assert!(quantile(&[], 0.5).is_err());
        assert!(quantile(&[1.0, f64::NAN], 0.5).is_err());
        // Order does not matter.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), median(&xs).unwrap());
    }

    #[test]
    fn sorted_sample_matches_per_call_quantiles_bitwise() {
        // Values whose interpolated quantiles are not exactly representable,
        // so any arithmetic difference between the sort-once path and the
        // per-call path would show up in the bits.
        let xs = [0.3, 0.1, 0.7, 0.2, 0.9, 0.4, 0.65];
        let sorted = SortedSample::new(&xs).unwrap();
        assert_eq!(sorted.len(), 7);
        assert!(!sorted.is_empty());
        let qs = [0.0, 0.1, 0.25, 0.5, 0.61, 0.75, 0.9, 1.0];
        let multi = quantiles(&xs, &qs).unwrap();
        for (&q, &got) in qs.iter().zip(multi.iter()) {
            let reference = quantile(&xs, q).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "q = {q}");
            assert_eq!(
                sorted.quantile(q).unwrap().to_bits(),
                reference.to_bits(),
                "q = {q}"
            );
        }
        assert_eq!(sorted.median().to_bits(), median(&xs).unwrap().to_bits());
        // The sorted view is ascending.
        assert!(sorted.as_slice().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sorted_sample_and_quantiles_validate_like_quantile() {
        assert!(SortedSample::new(&[]).is_err());
        assert!(SortedSample::new(&[1.0, f64::NAN]).is_err());
        assert!(SortedSample::new(&[1.0]).unwrap().quantile(1.5).is_err());
        assert!(quantiles(&[], &[0.5]).is_err());
        assert!(quantiles(&[1.0, 2.0], &[0.5, -0.1]).is_err());
        assert_eq!(quantiles(&[1.0, 2.0], &[]).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn confidence_interval_behaviour() {
        let xs = [10.0, 12.0, 11.0, 9.0, 13.0, 10.0, 11.0, 12.0];
        let ci = mean_confidence_interval95(&xs).unwrap();
        assert!(ci.contains(ci.estimate));
        assert!(ci.lower < ci.estimate && ci.estimate < ci.upper);
        assert!(ci.half_width() > 0.0);
        assert!(!ci.contains(100.0));
        // Constant sample: zero-width interval.
        let ci = mean_confidence_interval95(&[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(ci.half_width(), 0.0);
        assert!(ci.contains(5.0));
    }

    #[test]
    fn summary_fields() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!(s.q25 <= s.median && s.median <= s.q75);
        assert!(Summary::of(&[]).is_err());
    }

    proptest! {
        #[test]
        fn prop_mean_between_min_and_max(xs in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
            let m = mean(&xs).unwrap();
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
        }

        #[test]
        fn prop_quantiles_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
            let q1 = quantile(&xs, 0.2).unwrap();
            let q2 = quantile(&xs, 0.5).unwrap();
            let q3 = quantile(&xs, 0.8).unwrap();
            prop_assert!(q1 <= q2 + 1e-9);
            prop_assert!(q2 <= q3 + 1e-9);
        }

        #[test]
        fn prop_variance_nonnegative(xs in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
            prop_assert!(sample_variance(&xs).unwrap() >= 0.0);
        }
    }
}
