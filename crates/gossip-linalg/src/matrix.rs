//! Dense, row-major matrices.
//!
//! The matrices manipulated in this workspace are graph Laplacians, gossip
//! expectation matrices `W`, and the epoch operators `A_k` from the paper's
//! Section 3.  The spectral code keeps them dense only up to
//! `gossip_graph::spectral::SPARSE_DISPATCH_THRESHOLD` (512) nodes and hands
//! larger graphs to the sparse tier ([`crate::CsrMatrix`]).
//!
//! The kernels here are plain loops over rows.  The Jacobi eigensolver in
//! [`crate::eigen`], `O(n³)` per sweep, does not run on
//! [`Matrix::get`]/[`Matrix::set`]: it copies the matrix once into a
//! working buffer whose row stride is padded to an odd number of 64-byte
//! lines, so its column walks spread over every L1 set, and rotates rows
//! in contiguous passes.  Its module documentation says why that gives the
//! same bits as the textbook update.

use crate::{LinalgError, Result, Vector, DEFAULT_TOLERANCE};
use std::fmt;
use std::ops::{Add, Mul, Sub};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest `max(rows, cols)` ever passed to a dense [`Matrix`] constructor in
/// this process.  The scale-tier tests use this to prove that large-graph
/// code paths never materialize an O(n²) dense matrix.
static LARGEST_DENSE_DIMENSION: AtomicUsize = AtomicUsize::new(0);

fn note_dense_alloc(rows: usize, cols: usize) {
    LARGEST_DENSE_DIMENSION.fetch_max(rows.max(cols), Ordering::Relaxed);
}

/// The largest `max(rows, cols)` any dense [`Matrix`] constructor has seen
/// since the process started (or since [`reset_largest_dense_dimension`]).
///
/// This is a process-global, monotone diagnostic: the workspace's scale-tier
/// tests assert that running the sparse spectral pipeline on a large graph
/// leaves it below the dense/sparse dispatch threshold.
pub fn largest_dense_dimension() -> usize {
    LARGEST_DENSE_DIMENSION.load(Ordering::Relaxed)
}

/// Resets the [`largest_dense_dimension`] tracker to zero.  Intended for
/// tests that want a clean baseline; note the counter is process-global, so
/// concurrently running tests in the same binary also feed it.
pub fn reset_largest_dense_dimension() {
    LARGEST_DENSE_DIMENSION.store(0, Ordering::Relaxed);
}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use gossip_linalg::{Matrix, Vector};
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let x = Vector::from(vec![1.0, 1.0]);
/// let y = a.matvec(&x)?;
/// assert_eq!(y.as_slice(), &[3.0, 7.0]);
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        note_dense_alloc(rows, cols);
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if no rows are given and
    /// [`LinalgError::RaggedRows`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::RaggedRows);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        note_dense_alloc(rows.len(), cols);
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, f(i, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Reads the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        self.data[i * self.cols + j]
    }

    /// Writes the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        self.data[i * self.cols + j] = value;
    }

    /// Adds `value` to the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.rows && j < self.cols, "matrix index out of range");
        self.data[i * self.cols + j] += value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        let mut out = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let acc: f64 = self.row(i).iter().zip(xs).map(|(a, b)| a * b).sum();
            out.push(acc);
        }
        Ok(Vector::from(out))
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.add_to(i, j, aik * other.get(k, j));
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Returns `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.get(i, j) - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns `true` if every row sums to `target` within `tol`.
    ///
    /// Gossip expectation matrices are doubly stochastic (row sums 1) and
    /// Laplacians have zero row sums; this helper checks both.
    pub fn rows_sum_to(&self, target: f64, tol: f64) -> bool {
        (0..self.rows).all(|i| (self.row(i).iter().sum::<f64>() - target).abs() <= tol)
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Quadratic form `xᵀ·A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if dimensions disagree.
    pub fn quadratic_form(&self, x: &Vector) -> Result<f64> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        let mut total = 0.0;
        for i in 0..self.rows {
            let row_dot: f64 = self.row(i).iter().zip(xs).map(|(a, b)| a * b).sum();
            total += xs[i] * row_dot;
        }
        Ok(total)
    }

    /// Checks symmetry with the crate default tolerance and returns an error
    /// when the check fails.  Used by routines that require symmetric input.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::NotSymmetric`].
    pub fn require_symmetric(&self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if !self.is_symmetric(DEFAULT_TOLERANCE.max(1e-9 * self.frobenius_norm())) {
            return Err(LinalgError::NotSymmetric);
        }
        Ok(())
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(!z.is_square());
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert!(close(i.trace().unwrap(), 3.0));
    }

    #[test]
    fn from_rows_validation() {
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
        assert!(matches!(
            Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]),
            Err(LinalgError::RaggedRows)
        ));
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert!(close(m.get(1, 0), 3.0));
    }

    #[test]
    fn from_diagonal_and_from_fn() {
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert!(close(d.trace().unwrap(), 6.0));
        assert!(close(d.get(0, 1), 0.0));
        let f = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        assert!(close(f.get(1, 1), 2.0));
    }

    #[test]
    fn matvec_and_matmul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let x = Vector::from(vec![1.0, -1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[-1.0, -1.0]);

        let b = Matrix::identity(2);
        assert_eq!(a.matmul(&b).unwrap(), a);

        let c = a.matmul(&a).unwrap();
        assert!(close(c.get(0, 0), 7.0));
        assert!(close(c.get(0, 1), 10.0));
        assert!(close(c.get(1, 0), 15.0));
        assert!(close(c.get(1, 1), 22.0));
    }

    #[test]
    fn matvec_dimension_mismatch() {
        let a = Matrix::zeros(2, 2);
        assert!(a.matvec(&Vector::zeros(3)).is_err());
        let b = Matrix::zeros(3, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
        assert!(close(t.get(2, 1), 6.0));
    }

    #[test]
    fn trace_requires_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.trace(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn symmetry_checks() {
        let s = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        assert!(s.require_symmetric().is_ok());
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        assert!(matches!(
            a.require_symmetric(),
            Err(LinalgError::NotSymmetric)
        ));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn row_sums() {
        let w = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.25, 0.75]]).unwrap();
        assert!(w.rows_sum_to(1.0, 1e-12));
        assert!(!w.rows_sum_to(0.0, 1e-12));
    }

    #[test]
    fn quadratic_form_laplacian() {
        // Path Laplacian quadratic form equals sum of squared edge differences.
        let lap = Matrix::from_rows(&[
            vec![1.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 1.0],
        ])
        .unwrap();
        let x = Vector::from(vec![1.0, 3.0, 0.0]);
        let expected = (1.0_f64 - 3.0).powi(2) + (3.0_f64 - 0.0).powi(2);
        assert!(close(lap.quadratic_form(&x).unwrap(), expected));
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let sum = &a + &b;
        assert!(close(sum.get(0, 1), 1.0));
        assert!(close(sum.get(0, 0), 1.0));
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 3.0;
        assert!(close(scaled.trace().unwrap(), 6.0));
    }

    #[test]
    fn display_nonempty() {
        let a = Matrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }

    proptest! {
        #[test]
        fn prop_transpose_preserves_frobenius(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000
        ) {
            let m = Matrix::from_fn(rows, cols, |i, j| {
                ((i * 31 + j * 17 + seed as usize) % 13) as f64 - 6.0
            });
            prop_assert!((m.frobenius_norm() - m.transpose().frobenius_norm()).abs() < 1e-9);
        }

        #[test]
        fn prop_identity_is_matmul_neutral(n in 1usize..6, seed in 0u64..1000) {
            let m = Matrix::from_fn(n, n, |i, j| {
                ((i * 7 + j * 13 + seed as usize) % 11) as f64 - 5.0
            });
            let id = Matrix::identity(n);
            prop_assert_eq!(m.matmul(&id).unwrap(), m.clone());
            prop_assert_eq!(id.matmul(&m).unwrap(), m);
        }

        #[test]
        fn prop_matvec_linear(n in 1usize..6, a in -3.0f64..3.0, seed in 0u64..1000) {
            let m = Matrix::from_fn(n, n, |i, j| ((i + 2 * j + seed as usize) % 7) as f64);
            let x = Vector::from((0..n).map(|i| i as f64 + 1.0).collect::<Vec<_>>());
            let lhs = m.matvec(&x.scaled(a)).unwrap();
            let rhs = m.matvec(&x).unwrap().scaled(a);
            prop_assert!(lhs.distance(&rhs).unwrap() < 1e-8);
        }
    }
}
