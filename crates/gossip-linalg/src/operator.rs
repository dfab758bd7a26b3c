//! Matrix-free linear operators.
//!
//! The iterative eigensolver in this crate ([`crate::Lanczos`]) only ever
//! touches a matrix through products `A·x`.  [`LinearOperator`] captures
//! exactly that interface, so the same solver runs against a dense
//! [`crate::Matrix`], a sparse [`crate::CsrMatrix`], or any caller-supplied
//! operator that never materializes a matrix at all — which is what makes
//! the large-`n` spectral pipeline O(nnz) instead of O(n²).

use crate::{Result, Vector};

/// A square linear operator `x ↦ A·x` of a fixed dimension.
///
/// Implementations must be deterministic: the iterative solvers in this
/// workspace are part of a bit-reproducible experiment harness.
///
/// # Examples
///
/// ```
/// use gossip_linalg::{LinearOperator, Matrix, Vector};
///
/// let a = Matrix::identity(3);
/// let x = Vector::ones(3);
/// assert_eq!(a.apply(&x)?.as_slice(), &[1.0, 1.0, 1.0]);
/// assert_eq!(LinearOperator::dim(&a), 3);
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
pub trait LinearOperator {
    /// Dimension `n` of the operator's domain and codomain.
    fn dim(&self) -> usize;

    /// Computes `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LinalgError::DimensionMismatch`] if `x.len()` differs
    /// from [`LinearOperator::dim`].
    fn apply(&self, x: &Vector) -> Result<Vector>;
}

impl LinearOperator for crate::Matrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &Vector) -> Result<Vector> {
        self.matvec(x)
    }
}

impl LinearOperator for crate::CsrMatrix {
    fn dim(&self) -> usize {
        self.rows()
    }

    fn apply(&self, x: &Vector) -> Result<Vector> {
        self.matvec(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, Matrix};

    #[test]
    fn dense_and_sparse_operators_agree() {
        let dense = Matrix::from_rows(&[vec![2.0, -1.0], vec![-1.0, 2.0]]).unwrap();
        let sparse = CsrMatrix::from_dense(&dense);
        let x = Vector::from(vec![1.0, 3.0]);
        let yd = dense.apply(&x).unwrap();
        let ys = sparse.apply(&x).unwrap();
        assert_eq!(yd, ys);
        assert_eq!(LinearOperator::dim(&dense), LinearOperator::dim(&sparse));
    }

    #[test]
    fn operator_dimension_mismatch_propagates() {
        let dense = Matrix::identity(3);
        assert!(dense.apply(&Vector::zeros(2)).is_err());
        let sparse = CsrMatrix::identity(3);
        assert!(sparse.apply(&Vector::zeros(2)).is_err());
    }
}
