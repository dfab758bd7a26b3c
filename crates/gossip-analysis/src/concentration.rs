//! Concentration bounds.
//!
//! Two bounds appear in the paper:
//!
//! * **Theorem 3**: for the simple unbiased walk on ℤ,
//!   `P[S_k ≥ s√k] ≤ c·e^{−βs²}`.  The standard Hoeffding constants are
//!   `c = 1`, `β = ½`, which [`simple_walk_tail_bound`] uses.
//! * the Poisson tail used in Section 2 to control the number of cut-edge
//!   ticks by time `t` (a Poisson variable with mean `t·|E₁₂|`).
//!
//! The experiment harness compares these closed forms against empirical tail
//! frequencies (see [`crate::random_walk::simple_walk_tail_frequency`]).

use crate::{AnalysisError, Result};

/// Hoeffding bound for a sum of `k` independent values in `[lo, hi]`:
/// `P[Σ − E[Σ] ≥ t] ≤ exp(−2t²/(k(hi−lo)²))`.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `k == 0`, `hi <= lo`, or
/// `t < 0`.
pub fn hoeffding_upper_tail(k: usize, lo: f64, hi: f64, t: f64) -> Result<f64> {
    if k == 0 {
        return Err(AnalysisError::InvalidParameter {
            reason: "Hoeffding bound requires at least one summand".into(),
        });
    }
    if hi <= lo || !hi.is_finite() || !lo.is_finite() {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("invalid range [{lo}, {hi}]"),
        });
    }
    if t < 0.0 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("deviation must be non-negative, got {t}"),
        });
    }
    let range = hi - lo;
    Ok((-2.0 * t * t / (k as f64 * range * range)).exp().min(1.0))
}

/// The paper's Theorem 3 specialization: `P[S_k ≥ s√k] ≤ e^{−s²/2}` for the
/// simple ±1 walk.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] if `k == 0` or `s < 0`.
pub fn simple_walk_tail_bound(k: usize, s: f64) -> Result<f64> {
    if s < 0.0 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("s must be non-negative, got {s}"),
        });
    }
    // S_k is a sum of k terms in [−1, 1] with mean 0; deviation t = s√k.
    hoeffding_upper_tail(k, -1.0, 1.0, s * (k as f64).sqrt())
}

/// Chernoff upper-tail bound for a Poisson variable with mean `lambda`:
/// `P[X ≥ x] ≤ exp(−lambda)·(e·lambda/x)^x` for `x > lambda` (and 1
/// otherwise).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidParameter`] for non-positive `lambda` or
/// negative `x`.
pub fn poisson_upper_tail(lambda: f64, x: f64) -> Result<f64> {
    if lambda <= 0.0 || !lambda.is_finite() {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("lambda must be positive and finite, got {lambda}"),
        });
    }
    if x < 0.0 {
        return Err(AnalysisError::InvalidParameter {
            reason: format!("x must be non-negative, got {x}"),
        });
    }
    if x <= lambda {
        return Ok(1.0);
    }
    // exp(−λ + x − x·ln(x/λ)) in log-space for numerical stability.
    let log_bound = -lambda + x - x * (x / lambda).ln();
    Ok(log_bound.exp().min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_walk::simple_walk_tail_frequency;
    use proptest::prelude::*;

    #[test]
    fn hoeffding_validation_and_basic_values() {
        assert!(hoeffding_upper_tail(0, 0.0, 1.0, 1.0).is_err());
        assert!(hoeffding_upper_tail(5, 1.0, 1.0, 1.0).is_err());
        assert!(hoeffding_upper_tail(5, 0.0, 1.0, -1.0).is_err());
        // Zero deviation: trivial bound of 1.
        assert_eq!(hoeffding_upper_tail(10, 0.0, 1.0, 0.0).unwrap(), 1.0);
        // Monotone decreasing in t.
        let a = hoeffding_upper_tail(10, -1.0, 1.0, 2.0).unwrap();
        let b = hoeffding_upper_tail(10, -1.0, 1.0, 4.0).unwrap();
        assert!(b < a);
        assert!(a <= 1.0);
    }

    #[test]
    fn simple_walk_bound_matches_hoeffding_form() {
        let k = 100;
        let s = 1.5;
        let bound = simple_walk_tail_bound(k, s).unwrap();
        assert!((bound - (-s * s / 2.0).exp()).abs() < 1e-12);
        assert!(simple_walk_tail_bound(0, 1.0).is_err());
        assert!(simple_walk_tail_bound(10, -1.0).is_err());
        assert_eq!(simple_walk_tail_bound(10, 0.0).unwrap(), 1.0);
    }

    #[test]
    fn empirical_simple_walk_tails_below_bound() {
        // The Theorem 3 shape check used by experiment E9.
        let k = 64;
        for &s in &[0.5, 1.0, 1.5, 2.0] {
            let empirical = simple_walk_tail_frequency(k, s, 2000, 31);
            let bound = simple_walk_tail_bound(k, s).unwrap();
            // Allow a small slack for Monte-Carlo noise at the loosest point.
            assert!(
                empirical <= bound + 0.05,
                "s = {s}: empirical {empirical} exceeds bound {bound}"
            );
        }
    }

    #[test]
    fn poisson_tail_validation_and_monotonicity() {
        assert!(poisson_upper_tail(0.0, 1.0).is_err());
        assert!(poisson_upper_tail(1.0, -1.0).is_err());
        // Below the mean the upper-tail bound is trivial.
        assert_eq!(poisson_upper_tail(5.0, 3.0).unwrap(), 1.0);
        // Far above the mean the bound is tiny and decreasing.
        let a = poisson_upper_tail(5.0, 10.0).unwrap();
        let b = poisson_upper_tail(5.0, 20.0).unwrap();
        assert!(b < a && a < 1.0);
    }

    #[test]
    fn poisson_bound_controls_cut_edge_ticks_scenario() {
        // Section 2 scenario: by time t the number of cut-edge ticks is
        // Poisson(t·|E12|).  For t = 1, |E12| = 1, the probability of seeing
        // ≥ n1/4 = 8 ticks should be minuscule.
        let bound = poisson_upper_tail(1.0, 8.0).unwrap();
        assert!(bound < 1e-3);
    }

    proptest! {
        #[test]
        fn prop_bounds_are_probabilities(
            k in 1usize..500,
            s in 0.0f64..5.0,
            lambda in 0.1f64..50.0,
            x in 0.0f64..100.0,
        ) {
            let b1 = simple_walk_tail_bound(k, s).unwrap();
            prop_assert!((0.0..=1.0).contains(&b1));
            let b2 = poisson_upper_tail(lambda, x).unwrap();
            prop_assert!((0.0..=1.0).contains(&b2));
        }
    }
}
