//! Statistical analysis utilities for the sparse-cut gossip experiments.
//!
//! The crate is deliberately self-contained (no dependency on the graph or
//! simulation crates) so that it can be tested in isolation and reused by the
//! benchmark harness:
//!
//! * [`stats`] — quantiles and the median.
//! * [`regression`] — least-squares fits, including the log–log slope fits
//!   used to estimate empirical scaling exponents (is the averaging time
//!   growing like `n` or like `log² n`?).
//! * [`random_walk`] — two-valued random walks on the line, used to
//!   reproduce the Theorem 3 tail behaviour.
//! * [`dominance`] — the stochastic-dominance coupling at the heart of the
//!   paper's Section 3: the observed per-epoch log-contractions `log‖A_k‖`
//!   are dominated by a lazy `±log n` walk with negative drift.
//! * [`concentration`] — Hoeffding/Chernoff-style tail bounds (the paper's
//!   Theorem 3) and empirical tail frequencies to compare against them.
//! * [`robust`] — the honest-subset drift oracles used by the adversary
//!   benchmark tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concentration;
pub mod dominance;
pub mod random_walk;
pub mod regression;
pub mod robust;
pub mod stats;

pub use regression::LinearFit;
pub use robust::{honest_drift_bound, hull_drift_bound};
pub use stats::SortedSample;

use std::error::Error;
use std::fmt;

/// Errors produced by the analysis routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// An empty sample was supplied where data is required.
    EmptySample,
    /// Samples of mismatched lengths were supplied to a paired routine.
    LengthMismatch {
        /// Length of the first sample.
        left: usize,
        /// Length of the second sample.
        right: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter {
        /// Human-readable description.
        reason: String,
    },
    /// The data are degenerate for the requested fit (e.g. zero variance in
    /// the predictor).
    DegenerateFit,
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::EmptySample => write!(f, "empty sample"),
            AnalysisError::LengthMismatch { left, right } => {
                write!(f, "sample length mismatch: {left} vs {right}")
            }
            AnalysisError::InvalidParameter { reason } => {
                write!(f, "invalid parameter: {reason}")
            }
            AnalysisError::DegenerateFit => write!(f, "degenerate data for the requested fit"),
        }
    }
}

impl Error for AnalysisError {}

/// Convenient result alias for analysis routines.
pub type Result<T> = std::result::Result<T, AnalysisError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            AnalysisError::EmptySample,
            AnalysisError::LengthMismatch { left: 1, right: 2 },
            AnalysisError::InvalidParameter {
                reason: "bad".into(),
            },
            AnalysisError::DegenerateFit,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AnalysisError>();
    }
}
