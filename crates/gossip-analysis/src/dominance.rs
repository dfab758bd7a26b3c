//! The stochastic-dominance argument of the paper's Section 3.
//!
//! Algorithm A's analysis tracks `W_k = Σ_{i≤k} log‖A_i‖`, the accumulated
//! log-contraction of the epoch operators, and shows (Lemma 1 and Eq. 12)
//! that each increment satisfies
//!
//! * `log‖A_k‖ ≤ −(3/2)·log n` with probability at least ½, and
//! * `log‖A_k‖ ≤ log n` always.
//!
//! Consequently `W_k` is stochastically dominated by the lazy walk `W̃_k`
//! whose increments are `+log n` w.p. ½ and `−(3/2)·log n` w.p. ½
//! (Eqs. 13–14), and since `log(var X(T_k⁺)) − log(var X(0)) ≤ W̃_k`
//! (Eq. 15), the negative drift of `W̃` forces the variance down.
//!
//! This module provides:
//!
//! * [`couple_observed`] — the explicit monotone coupling that maps a
//!   sequence of *observed* increments (each `≤ log n`) to a valid `W̃`
//!   trajectory lying above the observed partial sums whenever the observed
//!   increments satisfy the Lemma 1 marginal;
//! * [`DominanceReport`] — the empirical check used by experiment E5: does
//!   the observed `log var` path stay below the coupled dominating walk, and
//!   how often does the per-epoch contraction event occur?

use crate::{AnalysisError, Result};

/// Couples a sequence of observed per-epoch increments to a dominating `W̃`
/// trajectory: whenever the observed increment achieves the Lemma 1
/// contraction (`≤ −(3/2)·log n`), the dominating increment is
/// `−(3/2)·log n`; otherwise it is `+log n`.
///
/// Returns the partial sums of the dominating increments.  Provided every
/// observed increment is at most `log n` (Eq. 12), each coupled increment is
/// ≥ the observed one, so the returned path dominates the observed partial
/// sums pointwise.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `n < 2`.
pub fn couple_observed(observed_increments: &[f64], n: usize) -> Result<Vec<f64>> {
    if n < 2 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("coupling requires n >= 2, got {n}"),
        });
    }
    let log_n = (n as f64).ln();
    let mut path = Vec::with_capacity(observed_increments.len());
    let mut sum = 0.0;
    for &increment in observed_increments {
        let coupled = if increment <= -1.5 * log_n {
            -1.5 * log_n
        } else {
            log_n
        };
        sum += coupled;
        path.push(sum);
    }
    Ok(path)
}

/// Outcome of the empirical dominance check (experiment E5).
#[derive(Debug, Clone, PartialEq)]
pub struct DominanceReport {
    /// Number of epochs examined.
    pub epochs: usize,
    /// Fraction of epochs whose observed increment achieved the Lemma 1
    /// contraction `≤ −(3/2)·log n`.  The lemma asserts this is ≥ ½ in
    /// distribution.
    pub contraction_fraction: f64,
    /// Fraction of epochs whose observed increment exceeded `log n`
    /// (Eq. 12 asserts this never happens; numerical noise aside it should be
    /// zero).
    pub ceiling_violation_fraction: f64,
    /// `true` if the observed partial sums stay at or below the coupled
    /// dominating path at every epoch.
    pub dominated_pointwise: bool,
    /// Final observed partial sum.
    pub final_observed: f64,
    /// Final value of the coupled dominating path.
    pub final_dominating: f64,
}

impl DominanceReport {
    /// Checks a sequence of observed per-epoch increments of
    /// `log(var X(T_k⁺))` (or of `log‖A_k‖`) against the paper's dominance
    /// structure for a graph on `n` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::EmptySample`] for an empty sequence and
    /// [`AnalysisError::InvalidParameter`] if `n < 2`.
    pub fn from_increments(observed_increments: &[f64], n: usize) -> Result<Self> {
        if observed_increments.is_empty() {
            return Err(AnalysisError::EmptySample);
        }
        let log_n = (n as f64).ln();
        if n < 2 {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("dominance check requires n >= 2, got {n}"),
            });
        }
        let coupled = couple_observed(observed_increments, n)?;
        let mut observed_sum = 0.0;
        let mut dominated = true;
        let mut contractions = 0usize;
        let mut violations = 0usize;
        for (i, &increment) in observed_increments.iter().enumerate() {
            observed_sum += increment;
            if observed_sum > coupled[i] + 1e-9 {
                dominated = false;
            }
            if increment <= -1.5 * log_n {
                contractions += 1;
            }
            if increment > log_n + 1e-9 {
                violations += 1;
            }
        }
        Ok(DominanceReport {
            epochs: observed_increments.len(),
            contraction_fraction: contractions as f64 / observed_increments.len() as f64,
            ceiling_violation_fraction: violations as f64 / observed_increments.len() as f64,
            dominated_pointwise: dominated,
            final_observed: observed_sum,
            final_dominating: *coupled.last().expect("non-empty by the check above"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coupling_dominates_valid_observations() {
        let n = 16;
        let log_n = (n as f64).ln();
        // Observed increments that satisfy the Lemma 1 structure.
        let observed = vec![
            -2.0 * log_n,
            0.3 * log_n,
            -1.6 * log_n,
            -3.0 * log_n,
            0.9 * log_n,
        ];
        let coupled = couple_observed(&observed, n).unwrap();
        let mut sum = 0.0;
        for (i, &inc) in observed.iter().enumerate() {
            sum += inc;
            assert!(sum <= coupled[i] + 1e-12, "violated at epoch {i}");
        }
        assert!(couple_observed(&observed, 1).is_err());
    }

    #[test]
    fn report_on_well_behaved_increments() {
        let n = 16;
        let log_n = (n as f64).ln();
        let observed = vec![-2.0 * log_n, -1.5 * log_n, 0.5 * log_n, -1.7 * log_n];
        let report = DominanceReport::from_increments(&observed, n).unwrap();
        assert_eq!(report.epochs, 4);
        assert!((report.contraction_fraction - 0.75).abs() < 1e-12);
        assert_eq!(report.ceiling_violation_fraction, 0.0);
        assert!(report.dominated_pointwise);
        assert!(report.final_observed <= report.final_dominating);
    }

    #[test]
    fn report_detects_ceiling_violations() {
        let n = 8;
        let log_n = (n as f64).ln();
        // One increment exceeds log n, breaking Eq. 12 (and possibly the
        // pointwise dominance).
        let observed = vec![2.0 * log_n, -1.6 * log_n];
        let report = DominanceReport::from_increments(&observed, n).unwrap();
        assert!((report.ceiling_violation_fraction - 0.5).abs() < 1e-12);
        assert!(!report.dominated_pointwise);
        assert!(DominanceReport::from_increments(&[], n).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_coupling_dominates_whenever_increments_below_ceiling(
            raw in proptest::collection::vec(-4.0f64..1.0, 1..40),
            n in 2usize..200,
        ) {
            // Scale raw multipliers by log n so every increment is ≤ log n.
            let log_n = (n as f64).ln();
            let observed: Vec<f64> = raw.iter().map(|m| m * log_n).collect();
            let coupled = couple_observed(&observed, n).unwrap();
            let mut sum = 0.0;
            for (i, &inc) in observed.iter().enumerate() {
                sum += inc;
                prop_assert!(sum <= coupled[i] + 1e-9);
            }
            let report = DominanceReport::from_increments(&observed, n).unwrap();
            prop_assert!(report.dominated_pointwise);
            prop_assert_eq!(report.ceiling_violation_fraction, 0.0);
        }
    }
}
