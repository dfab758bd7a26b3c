//! Linear algebra for the sparse-cut gossip reproduction.
//!
//! Two tiers share one vocabulary of types:
//!
//! * **Dense** — a [`Vector`] newtype, a row-major [`Matrix`] and a
//!   symmetric Jacobi eigensolver in [`eigen`].  The graphs studied
//!   directly in *Distributed averaging in the presence of a sparse cut*
//!   (Narayanan, PODC 2008) are modest (hundreds of vertices), where
//!   O(n²) storage and O(n³) kernels are perfectly adequate — and trivially
//!   trustworthy, which makes the dense tier the *reference oracle*.
//! * **Sparse** — a compressed-sparse-row [`CsrMatrix`], the matrix-free
//!   [`LinearOperator`] abstraction, and a [`Lanczos`] solver for the extreme
//!   eigenvalues (with deflation, so the Fiedler value of a Laplacian is one
//!   of them).  Everything is O(nnz) per product, which is what lets the
//!   workspace's spectral pipeline scale to tens of thousands of nodes.
//!
//! The two tiers are held together by a differential test oracle
//! (`tests/sparse_dense_differential.rs` at the workspace root) asserting
//! that every sparse kernel agrees with its dense counterpart.  The crate
//! deliberately has no external linear-algebra dependencies.
//!
//! # Examples
//!
//! Compute the two smallest eigenvalues of a path-graph Laplacian:
//!
//! ```
//! use gossip_linalg::{Matrix, SymmetricEigen};
//!
//! // Laplacian of the path graph on 3 vertices: 0 - 1 - 2
//! let lap = Matrix::from_rows(&[
//!     vec![1.0, -1.0, 0.0],
//!     vec![-1.0, 2.0, -1.0],
//!     vec![0.0, -1.0, 1.0],
//! ])?;
//! let eig = SymmetricEigen::compute(&lap)?;
//! assert!(eig.eigenvalues()[0].abs() < 1e-9);          // lambda_1 = 0
//! assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-9);  // lambda_2 = 1
//! # Ok::<(), gossip_linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eigen;
pub mod lanczos;
pub mod matrix;
pub mod operator;
pub mod sparse;
pub mod vector;

pub use eigen::SymmetricEigen;
pub use lanczos::{Lanczos, LanczosResult};
pub use matrix::Matrix;
pub use operator::LinearOperator;
pub use sparse::CsrMatrix;
pub use vector::Vector;

use std::error::Error;
use std::fmt;

/// Errors produced by the linear-algebra routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible dimensions.
    DimensionMismatch {
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually supplied.
        actual: usize,
    },
    /// A matrix that must be square was not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// A matrix that must be symmetric was not (within tolerance).
    NotSymmetric,
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations that were performed before giving up.
        iterations: usize,
    },
    /// An empty matrix or vector was supplied where a non-empty one is required.
    Empty,
    /// Rows of differing lengths were supplied to a matrix constructor.
    RaggedRows,
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square: {rows}x{cols}")
            }
            LinalgError::NotSymmetric => write!(f, "matrix is not symmetric"),
            LinalgError::NoConvergence { iterations } => {
                write!(
                    f,
                    "iteration did not converge after {iterations} iterations"
                )
            }
            LinalgError::Empty => write!(f, "empty operand"),
            LinalgError::RaggedRows => write!(f, "rows have differing lengths"),
        }
    }
}

impl Error for LinalgError {}

/// Convenient result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Tolerance used for symmetry and convergence checks throughout the crate.
pub const DEFAULT_TOLERANCE: f64 = 1e-10;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            LinalgError::DimensionMismatch {
                expected: 3,
                actual: 4,
            },
            LinalgError::NotSquare { rows: 2, cols: 3 },
            LinalgError::NotSymmetric,
            LinalgError::NoConvergence { iterations: 100 },
            LinalgError::Empty,
            LinalgError::RaggedRows,
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
