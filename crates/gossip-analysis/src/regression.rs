//! Least-squares fits used to summarize scaling behaviour.
//!
//! The experiments repeatedly ask questions of the form "does the measured
//! averaging time grow like `n` (Theorem 1) or like a polylogarithm
//! (Theorem 2)?".  The standard tool is a fit of `log y` against `log x`
//! (power laws appear as straight lines with slope = exponent);
//! [`LinearFit`] provides the underlying simple linear regression with `R²`,
//! and [`log_log_fit`] transforms the data first.

use crate::{AnalysisError, Result};

/// Result of a simple linear regression `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R² ∈ [0, 1]`.
    pub r_squared: f64,
    /// Number of points used.
    pub points: usize,
}

impl LinearFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares fit of `y` on `x`.
///
/// # Errors
///
/// Returns [`AnalysisError::LengthMismatch`] for mismatched inputs,
/// [`AnalysisError::EmptySample`] if fewer than two points are supplied, and
/// [`AnalysisError::DegenerateFit`] if all `x` values coincide.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    if x.len() != y.len() {
        return Err(AnalysisError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(AnalysisError::EmptySample);
    }
    let n = x.len() as f64;
    let mean_x = x.iter().sum::<f64>() / n;
    let mean_y = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y.iter()) {
        let dx = xi - mean_x;
        let dy = yi - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx <= 0.0 {
        return Err(AnalysisError::DegenerateFit);
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy <= 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        points: x.len(),
    })
}

/// Fits `log y ≈ slope·log x + intercept`: the slope is the empirical
/// power-law exponent of `y` in `x`.
///
/// # Errors
///
/// In addition to the [`linear_fit`] errors, returns
/// [`AnalysisError::InvalidParameter`] if any `x` or `y` is not strictly
/// positive.
pub fn log_log_fit(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    let lx = logs(x)?;
    let ly = logs(y)?;
    linear_fit(&lx, &ly)
}

fn logs(values: &[f64]) -> Result<Vec<f64>> {
    values
        .iter()
        .map(|&v| {
            if v > 0.0 && v.is_finite() {
                Ok(v.ln())
            } else {
                Err(AnalysisError::InvalidParameter {
                    reason: format!("logarithmic fit requires positive finite values, got {v}"),
                })
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_line_is_recovered() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 1.0).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.points, 4);
        assert!((fit.predict(10.0) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            linear_fit(&[1.0], &[1.0, 2.0]),
            Err(AnalysisError::LengthMismatch { .. })
        ));
        assert!(matches!(
            linear_fit(&[1.0], &[1.0]),
            Err(AnalysisError::EmptySample)
        ));
        assert!(matches!(
            linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]),
            Err(AnalysisError::DegenerateFit)
        ));
        assert!(log_log_fit(&[1.0, -2.0], &[1.0, 1.0]).is_err());
        assert!(log_log_fit(&[1.0, 2.0], &[0.0, 1.0]).is_err());
    }

    #[test]
    fn constant_y_has_r_squared_one_and_zero_slope() {
        let fit = linear_fit(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn power_law_exponent_recovered_by_log_log_fit() {
        // y = 2 x^1.7
        let x: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v.powf(1.7)).collect();
        let fit = log_log_fit(&x, &y).unwrap();
        assert!((fit.slope - 1.7).abs() < 1e-9);
        assert!((fit.intercept - 2.0f64.ln()).abs() < 1e-9);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn linear_data_has_log_log_slope_near_one() {
        let x: Vec<f64> = (4..=64).step_by(4).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.5 * v + 3.0).collect();
        let fit = log_log_fit(&x, &y).unwrap();
        assert!(fit.slope > 0.7 && fit.slope < 1.1, "slope {}", fit.slope);
    }

    #[test]
    fn polylog_data_has_small_log_log_slope() {
        let x: Vec<f64> = (2..=10).map(|i| (1usize << i) as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| v.ln().powi(2)).collect();
        let fit = log_log_fit(&x, &y).unwrap();
        assert!(fit.slope < 0.6, "slope {}", fit.slope);
    }

    proptest! {
        #[test]
        fn prop_fit_residual_orthogonal_to_x(
            slope in -5.0f64..5.0,
            intercept in -5.0f64..5.0,
            noise_seed in 0u64..500,
        ) {
            let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
            let y: Vec<f64> = x
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let noise = (((i as u64 * 2654435761 + noise_seed) % 1000) as f64 / 1000.0) - 0.5;
                    slope * v + intercept + noise
                })
                .collect();
            let fit = linear_fit(&x, &y).unwrap();
            // Normal equations: residuals are orthogonal to x and sum to ~0.
            let residual_dot_x: f64 = x
                .iter()
                .zip(y.iter())
                .map(|(&xi, &yi)| (yi - fit.predict(xi)) * xi)
                .sum();
            let residual_sum: f64 = x
                .iter()
                .zip(y.iter())
                .map(|(&xi, &yi)| yi - fit.predict(xi))
                .sum();
            prop_assert!(residual_dot_x.abs() < 1e-6);
            prop_assert!(residual_sum.abs() < 1e-6);
            prop_assert!(fit.r_squared >= 0.0 && fit.r_squared <= 1.0 + 1e-12);
        }
    }
}
