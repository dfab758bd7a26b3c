//! Fixed-width histograms and empirical distribution functions.
//!
//! Used by the experiment harness to summarize settling-time distributions
//! and to compare empirical tail frequencies against the closed-form bounds
//! in [`crate::concentration`].

use crate::{AnalysisError, Result};

/// A fixed-width histogram over `[lo, hi)` with values outside the range
/// clamped into the first/last bin.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram with `bins` equal-width bins over
    /// `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] if `bins == 0`,
    /// `lo >= hi`, or the bounds are not finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(AnalysisError::InvalidParameter {
                reason: "histogram requires at least one bin".into(),
            });
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("invalid histogram range [{lo}, {hi})"),
            });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        })
    }

    /// Creates a histogram spanning the sample's range and fills it.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptySample`] for an empty sample and
    /// [`AnalysisError::InvalidParameter`] for NaN data or `bins == 0`.
    pub fn of(sample: &[f64], bins: usize) -> Result<Self> {
        if sample.is_empty() {
            return Err(AnalysisError::EmptySample);
        }
        if sample.iter().any(|x| !x.is_finite()) {
            return Err(AnalysisError::InvalidParameter {
                reason: "sample contains non-finite values".into(),
            });
        }
        let lo = sample.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Widen a degenerate range so all mass falls in one bin.
        let hi = if hi > lo { hi } else { lo + 1.0 };
        let mut histogram = Histogram::new(lo, hi + (hi - lo) * 1e-9, bins)?;
        for &x in sample {
            histogram.add(x);
        }
        Ok(histogram)
    }

    /// Adds one observation (clamped into the outermost bins if outside the
    /// range).
    pub fn add(&mut self, value: f64) {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let index = if value < self.lo {
            0
        } else {
            (((value - self.lo) / width) as usize).min(bins - 1)
        };
        self.counts[index] += 1;
        self.total += 1;
    }

    /// Number of observations added.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// `(bin_center, count)` pairs, the series a plot wants.
    pub fn centers_and_counts(&self) -> Vec<(f64, u64)> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * width, c))
            .collect()
    }

    /// Fraction of observations at or above `value` (the empirical survival
    /// function, computed at bin granularity by attributing each bin to its
    /// lower edge).
    pub fn survival(&self, value: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let mut above = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let lower_edge = self.lo + i as f64 * width;
            if lower_edge >= value {
                above += count;
            }
        }
        above as f64 / self.total as f64
    }
}

/// Empirical cumulative distribution function `P[X ≤ x]` of a sample.
///
/// # Errors
///
/// Returns [`AnalysisError::EmptySample`] for an empty sample.
pub fn empirical_cdf(sample: &[f64], x: f64) -> Result<f64> {
    if sample.is_empty() {
        return Err(AnalysisError::EmptySample);
    }
    let count = sample.iter().filter(|&&v| v <= x).count();
    Ok(count as f64 / sample.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validation() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 4).is_ok());
        assert!(Histogram::of(&[], 4).is_err());
        assert!(Histogram::of(&[1.0, f64::NAN], 4).is_err());
    }

    #[test]
    fn counts_and_centers() {
        let mut h = Histogram::new(0.0, 10.0, 5).unwrap();
        for v in [0.5, 1.5, 2.5, 2.6, 9.9, -3.0, 42.0] {
            h.add(v);
        }
        assert_eq!(h.total(), 7);
        // Bins: [0,2): 0.5, 1.5, -3 (clamped) => 3; [2,4): 2.5, 2.6 => 2;
        // [8,10): 9.9, 42 (clamped) => 2.
        assert_eq!(h.counts(), &[3, 2, 0, 0, 2]);
        let centers: Vec<f64> = h.centers_and_counts().iter().map(|(c, _)| *c).collect();
        assert_eq!(centers, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn of_sample_and_survival() {
        let sample = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let h = Histogram::of(&sample, 4).unwrap();
        assert_eq!(h.total(), 8);
        assert_eq!(h.counts().iter().sum::<u64>(), 8);
        // Half of the observations lie in bins whose lower edge is ≥ median.
        let surv = h.survival(4.5);
        assert!((surv - 0.5).abs() < 0.26);
        assert_eq!(h.survival(f64::NEG_INFINITY), 1.0);
        assert_eq!(h.survival(f64::INFINITY), 0.0);
        // Degenerate (constant) sample still works.
        let constant = Histogram::of(&[2.0, 2.0, 2.0], 3).unwrap();
        assert_eq!(constant.total(), 3);
    }

    #[test]
    fn empirical_cdf_basic() {
        let sample = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(empirical_cdf(&sample, 0.0).unwrap(), 0.0);
        assert_eq!(empirical_cdf(&sample, 2.0).unwrap(), 0.5);
        assert_eq!(empirical_cdf(&sample, 10.0).unwrap(), 1.0);
        assert!(empirical_cdf(&[], 1.0).is_err());
    }

    proptest! {
        #[test]
        fn prop_total_matches_sample_size(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
            bins in 1usize..20,
        ) {
            let h = Histogram::of(&xs, bins).unwrap();
            prop_assert_eq!(h.total(), xs.len() as u64);
            prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
        }

        #[test]
        fn prop_cdf_monotone(xs in proptest::collection::vec(-1e2f64..1e2, 1..100)) {
            let a = empirical_cdf(&xs, -50.0).unwrap();
            let b = empirical_cdf(&xs, 0.0).unwrap();
            let c = empirical_cdf(&xs, 50.0).unwrap();
            prop_assert!(a <= b + 1e-12);
            prop_assert!(b <= c + 1e-12);
        }
    }
}
