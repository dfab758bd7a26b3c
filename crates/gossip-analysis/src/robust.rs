//! Adversary drift oracles.
//!
//! The oracles bound how far an adversary can drag the **honest-subset
//! mean** of a gossip run:
//!
//! * [`honest_drift_bound`] is exact for *mass-conserving* pairwise rules
//!   (vanilla, trimmed-mean): an honest–honest contact conserves the honest
//!   sum exactly, and a falsified contact moves the contacted honest value by
//!   at most `|report − honest value|` (any convex combination of the two
//!   stays that close), so the honest mean moves at most
//!   `Σ|report − partner| / honest_count` over the whole run.  The simulator
//!   accumulates that sum exactly as `AdversaryStats::falsification_l1`.
//! * [`hull_drift_bound`] covers *non-conserving* rules (median-of-neighbors,
//!   whose median step is not antisymmetric between honest pairs): every
//!   update writes a convex combination of values already in the state and
//!   reports injected into it, so all values — and hence the honest mean —
//!   stay inside the convex hull of the initial values and all injected
//!   reports.  The bound is the largest excursion that hull permits from the
//!   clean consensus.

use crate::{AnalysisError, Result};

/// Drift bound for **mass-conserving** pairwise rules: the honest-subset
/// mean moves at most `falsification_l1 / honest_count` from the clean run's
/// honest mean, where `falsification_l1` is the run's accumulated
/// `Σ|report − honest partner value|` (`AdversaryStats::falsification_l1`).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `honest_count` is zero or
/// `falsification_l1` is negative or non-finite.
pub fn honest_drift_bound(falsification_l1: f64, honest_count: usize) -> Result<f64> {
    if honest_count == 0 {
        return Err(AnalysisError::InvalidParameter {
            reason: "honest-subset drift needs at least one honest node".into(),
        });
    }
    if !falsification_l1.is_finite() || falsification_l1 < 0.0 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!(
                "falsification mass must be finite and non-negative, got {falsification_l1}"
            ),
        });
    }
    Ok(falsification_l1 / honest_count as f64)
}

/// Drift bound for **hull-preserving** rules (every update writes a convex
/// combination of current values and injected reports): the honest mean
/// stays inside `[lo, hi]` where `lo = min(initial_min, report_min)` and
/// `hi = max(initial_max, report_max)`, so its distance from
/// `reference_mean` (the clean consensus) is at most the larger one-sided
/// excursion that interval allows.
///
/// Runs with no injected reports pass `report_min = +∞` /
/// `report_max = −∞` (the `AdversaryStats` defaults); the hull then
/// degenerates to the initial range.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if the initial range is
/// inverted or non-finite, if a report bound is NaN, or if `reference_mean`
/// is non-finite or outside the hull (a reference the rule could never have
/// produced).
pub fn hull_drift_bound(
    initial_min: f64,
    initial_max: f64,
    report_min: f64,
    report_max: f64,
    reference_mean: f64,
) -> Result<f64> {
    if !initial_min.is_finite() || !initial_max.is_finite() || initial_min > initial_max {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("invalid initial range [{initial_min}, {initial_max}]"),
        });
    }
    if report_min.is_nan() || report_max.is_nan() {
        return Err(AnalysisError::InvalidParameter {
            reason: "report range contains NaN".into(),
        });
    }
    if !reference_mean.is_finite() {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("reference mean must be finite, got {reference_mean}"),
        });
    }
    let lo = initial_min.min(report_min);
    let hi = initial_max.max(report_max);
    if reference_mean < lo || reference_mean > hi {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("reference mean {reference_mean} lies outside the hull [{lo}, {hi}]"),
        });
    }
    Ok((hi - reference_mean).max(reference_mean - lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_drift_bound_is_the_per_capita_falsification_mass() {
        assert_eq!(honest_drift_bound(12.0, 4).unwrap(), 3.0);
        assert_eq!(honest_drift_bound(0.0, 7).unwrap(), 0.0);
        assert!(honest_drift_bound(1.0, 0).is_err());
        assert!(honest_drift_bound(-1.0, 3).is_err());
        assert!(honest_drift_bound(f64::INFINITY, 3).is_err());
        assert!(honest_drift_bound(f64::NAN, 3).is_err());
    }

    #[test]
    fn hull_drift_bound_covers_initial_and_report_ranges() {
        // Initial values in [0, 1], reports up to 5, consensus at 0.5: the
        // worst one-sided excursion is toward the report ceiling.
        assert_eq!(hull_drift_bound(0.0, 1.0, -0.5, 5.0, 0.5).unwrap(), 4.5);
        // No reports (AdversaryStats defaults): the hull is the initial
        // range.
        assert_eq!(
            hull_drift_bound(0.0, 1.0, f64::INFINITY, f64::NEG_INFINITY, 0.25).unwrap(),
            0.75
        );
        assert!(hull_drift_bound(1.0, 0.0, 0.0, 0.0, 0.5).is_err());
        assert!(hull_drift_bound(0.0, 1.0, f64::NAN, 1.0, 0.5).is_err());
        assert!(hull_drift_bound(0.0, 1.0, 0.0, 1.0, f64::NAN).is_err());
        assert!(
            hull_drift_bound(0.0, 1.0, 0.0, 1.0, 2.0).is_err(),
            "reference outside the hull"
        );
    }
}
