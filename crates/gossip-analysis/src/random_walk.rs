//! Random walks on the real line.
//!
//! Two walks matter for the paper's analysis:
//!
//! * the **simple ±1 walk** `S_k`, whose Gaussian-type tail bound
//!   (Theorem 3, `P[S_k ≥ s√k] ≤ c·e^{−βs²}`) closes the proof of Theorem 2;
//! * the **dominating lazy walk** `W̃_k` with increments `+log n` (probability
//!   ½) and `−(3/2)·log n` (probability ½), which stochastically dominates the
//!   sum of epoch log-contractions `W_k = Σ log‖A_i‖` (see
//!   [`crate::dominance`]).
//!
//! This module provides an exact sampler for two-valued walks, plus the
//! empirical tail frequency experiment E9 compares against Theorem 3.

use crate::{AnalysisError, Result};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A two-valued random-increment walk: step `up` with probability `p_up`,
/// otherwise step `down`.
#[derive(Debug, Clone)]
pub struct TwoPointWalk {
    up: f64,
    down: f64,
    p_up: f64,
    rng: ChaCha8Rng,
    position: f64,
}

impl TwoPointWalk {
    /// Creates the walk starting at 0.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidParameter`] if `p_up ∉ [0, 1]` or the
    /// increments are not finite.
    pub fn new(up: f64, down: f64, p_up: f64, seed: u64) -> Result<Self> {
        if !(0.0..=1.0).contains(&p_up) {
            return Err(AnalysisError::InvalidParameter {
                reason: format!("p_up must lie in [0, 1], got {p_up}"),
            });
        }
        if !up.is_finite() || !down.is_finite() {
            return Err(AnalysisError::InvalidParameter {
                reason: "increments must be finite".into(),
            });
        }
        Ok(TwoPointWalk {
            up,
            down,
            p_up,
            rng: ChaCha8Rng::seed_from_u64(seed),
            position: 0.0,
        })
    }

    /// The simple ±1 walk with fair steps.
    ///
    /// # Errors
    ///
    /// Never fails in practice (parameters are fixed and valid).
    pub fn simple(seed: u64) -> Result<Self> {
        Self::new(1.0, -1.0, 0.5, seed)
    }

    /// Advances one step and returns the new position.
    pub fn step(&mut self) -> f64 {
        let increment = if self.rng.gen::<f64>() < self.p_up {
            self.up
        } else {
            self.down
        };
        self.position += increment;
        self.position
    }
}

/// Fraction of `trials` independent simple-walk paths of length `k` whose
/// endpoint is at least `s·√k` — the empirical quantity Theorem 3 bounds.
pub fn simple_walk_tail_frequency(k: usize, s: f64, trials: usize, seed: u64) -> f64 {
    if trials == 0 || k == 0 {
        return 0.0;
    }
    let threshold = s * (k as f64).sqrt();
    let mut hits = 0usize;
    for t in 0..trials {
        let mut walk = TwoPointWalk::simple(seed.wrapping_add(t as u64)).expect("valid parameters");
        let mut position = 0.0;
        for _ in 0..k {
            position = walk.step();
        }
        if position >= threshold {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The positions after steps `1..=k` (not including the start).
    fn sample_path(walk: &mut TwoPointWalk, k: usize) -> Vec<f64> {
        (0..k).map(|_| walk.step()).collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(TwoPointWalk::new(1.0, -1.0, 1.5, 1).is_err());
        assert!(TwoPointWalk::new(f64::NAN, -1.0, 0.5, 1).is_err());
        assert!(TwoPointWalk::new(1.0, f64::INFINITY, 0.5, 1).is_err());
        assert!(TwoPointWalk::simple(1).is_ok());
    }

    #[test]
    fn steps_and_positions_consistent() {
        let mut walk = TwoPointWalk::simple(42).unwrap();
        let path = sample_path(&mut walk, 100);
        // Simple walk positions have the same parity as the step count.
        for (i, &x) in path.iter().enumerate() {
            assert!((x.abs() as usize) <= i + 1);
            assert_eq!(((i + 1) as i64 - x as i64) % 2, 0);
        }
    }

    #[test]
    fn reproducibility() {
        let a = sample_path(&mut TwoPointWalk::simple(7).unwrap(), 50);
        let b = sample_path(&mut TwoPointWalk::simple(7).unwrap(), 50);
        assert_eq!(a, b);
        let c = sample_path(&mut TwoPointWalk::simple(8).unwrap(), 50);
        assert_ne!(a, c);
    }

    #[test]
    fn negative_drift_walk_goes_down_on_average() {
        // The dominating walk's shape: +x w.p. 1/2, −1.5x w.p. 1/2.
        let mut walk = TwoPointWalk::new(1.0, -1.5, 0.5, 3).unwrap();
        let k = 4000;
        let final_pos = *sample_path(&mut walk, k).last().unwrap();
        let expected = k as f64 * (-0.25);
        let sd = (k as f64 * 1.5625).sqrt();
        assert!(
            (final_pos - expected).abs() < 5.0 * sd,
            "final position {final_pos} too far from drift prediction {expected}"
        );
        assert!(final_pos < 0.0);
    }

    #[test]
    fn tail_frequency_decreases_in_s_and_is_bounded() {
        let f1 = simple_walk_tail_frequency(100, 0.5, 400, 9);
        let f2 = simple_walk_tail_frequency(100, 1.5, 400, 9);
        let f3 = simple_walk_tail_frequency(100, 3.0, 400, 9);
        assert!((0.0..=1.0).contains(&f1));
        assert!(f1 >= f2);
        assert!(f2 >= f3);
        assert!(f3 <= 0.05);
        assert_eq!(simple_walk_tail_frequency(0, 1.0, 10, 1), 0.0);
        assert_eq!(simple_walk_tail_frequency(10, 1.0, 0, 1), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_path_increments_are_valid(seed in 0u64..200, up in 0.1f64..3.0, down in -3.0f64..-0.1) {
            let mut walk = TwoPointWalk::new(up, down, 0.5, seed).unwrap();
            let path = sample_path(&mut walk, 50);
            let mut previous = 0.0;
            for &x in &path {
                let inc = x - previous;
                prop_assert!((inc - up).abs() < 1e-12 || (inc - down).abs() < 1e-12);
                previous = x;
            }
        }
    }
}
