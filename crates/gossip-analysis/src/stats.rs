//! Order statistics: quantiles and the median.

use crate::{AnalysisError, Result};

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
}

/// Empirical quantile by linear interpolation between order statistics.
///
/// `q = 0` returns the minimum, `q = 1` the maximum.  Clones and sorts the
/// sample on every call — when querying several quantiles of one sample,
/// build a [`SortedSample`] to sort once.
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

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// See [`quantile`].
pub fn median(sample: &[f64]) -> Result<f64> {
    quantile(sample, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        for q in [0.0, 0.1, 0.25, 0.5, 0.61, 0.75, 0.9, 1.0] {
            assert_eq!(
                sorted.quantile(q).unwrap().to_bits(),
                quantile(&xs, q).unwrap().to_bits(),
                "q = {q}"
            );
        }
    }

    #[test]
    fn sorted_sample_validates_like_quantile() {
        assert!(SortedSample::new(&[]).is_err());
        assert!(SortedSample::new(&[1.0, f64::NAN]).is_err());
        assert!(SortedSample::new(&[1.0]).unwrap().quantile(1.5).is_err());
    }

    proptest! {
        #[test]
        fn prop_quantiles_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..40)) {
            let q1 = quantile(&xs, 0.2).unwrap();
            let q2 = quantile(&xs, 0.5).unwrap();
            let q3 = quantile(&xs, 0.8).unwrap();
            prop_assert!(q1 <= q2 + 1e-9);
            prop_assert!(q2 <= q3 + 1e-9);
        }
    }
}
