//! Sparse matrices in compressed-sparse-row (CSR) form.
//!
//! Graph Laplacians and expected gossip matrices have O(|E|) non-zeros, so
//! above a few hundred nodes the dense [`crate::Matrix`] representation
//! wastes both memory (O(n²)) and time (O(n²) per matvec).  [`CsrMatrix`]
//! stores only the non-zeros and is the substrate of the workspace's
//! large-`n` spectral path: `matvec` is O(nnz), which combined with the
//! matrix-free [`crate::Lanczos`] solver keeps the whole pipeline linear in
//! the graph size.
//!
//! The dense and sparse representations are kept interchangeable
//! ([`CsrMatrix::from_dense`] / [`CsrMatrix::to_dense`]): the workspace's
//! differential test oracle (`tests/sparse_dense_differential.rs` at the
//! workspace root) asserts that every sparse kernel agrees with its dense
//! counterpart on every generator family.

use crate::{LinalgError, Matrix, Result, Vector};
use std::fmt;

/// A sparse `f64` matrix in compressed-sparse-row form.
///
/// Within each row the stored entries are sorted by column and contain no
/// duplicates; explicitly stored zeros are allowed (they arise from exact
/// cancellation in [`CsrMatrix::from_triplets`]) but never created by
/// [`CsrMatrix::from_dense`].
///
/// # Examples
///
/// ```
/// use gossip_linalg::{CsrMatrix, Vector};
///
/// // The 2×2 Laplacian of a single edge.
/// let lap = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, -1.0),
///                                            (1, 0, -1.0), (1, 1, 1.0)])?;
/// let x = Vector::from(vec![3.0, 1.0]);
/// assert_eq!(lap.matvec(&x)?.as_slice(), &[2.0, -2.0]);
/// assert_eq!(lap.nnz(), 4);
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i` in `col_idx`/`values`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Builds a matrix from `(row, col, value)` triplets.
    ///
    /// Triplets may arrive in any order; duplicates targeting the same entry
    /// are summed (the usual assembly convention for Laplacians).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if any triplet indexes out
    /// of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(LinalgError::DimensionMismatch {
                    expected: rows,
                    actual: r,
                });
            }
            if c >= cols {
                return Err(LinalgError::DimensionMismatch {
                    expected: cols,
                    actual: c,
                });
            }
        }
        // Counting sort by row, then sort each row by column and merge
        // duplicates; O(nnz log nnz) overall and allocation-light.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            counts[r + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut scatter: Vec<(usize, f64)> = vec![(0, 0.0); triplets.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in triplets {
            scatter[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for i in 0..rows {
            let row = &mut scatter[counts[i]..counts[i + 1]];
            row.sort_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                if col_idx.len() > row_ptr[i] && col_idx.last() == Some(&c) {
                    *values.last_mut().expect("values tracks col_idx") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Materializes the dense representation.  Only sensible for small
    /// matrices — the whole point of CSR is to avoid this at scale.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                out.set(i, j, v);
            }
        }
        out
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Iterates over the stored `(column, value)` pairs of row `i`, in
    /// increasing column order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row index out of range");
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Number of stored entries in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        assert!(i < self.rows, "row index out of range");
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Matrix–vector product `A·x` in O(nnz).
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
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            let acc: f64 = self.col_idx[span.clone()]
                .iter()
                .zip(self.values[span].iter())
                .map(|(&j, &v)| v * xs[j])
                .sum();
            out.push(acc);
        }
        Ok(Vector::from(out))
    }

    /// Quadratic form `xᵀ·A·x` in O(nnz) without allocating `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if dimensions disagree.
    pub fn quadratic_form(&self, x: &Vector) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        let xs = x.as_slice();
        let mut total = 0.0;
        for i in 0..self.rows {
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            let row_dot: f64 = self.col_idx[span.clone()]
                .iter()
                .zip(self.values[span].iter())
                .map(|(&j, &v)| v * xs[j])
                .sum();
            total += xs[i] * row_dot;
        }
        Ok(total)
    }

    /// Returns the transpose, in O(nnz).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = row_ptr.clone();
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                col_idx[cursor[j]] = i;
                values[cursor[j]] = v;
                cursor[j] += 1;
            }
        }
        // Rows of the transpose are automatically sorted because the outer
        // loop visits source rows (= target columns) in increasing order.
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Returns `true` if the matrix is symmetric within `tol`, comparing
    /// against the transpose entry-by-entry (missing entries count as zero).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        for i in 0..self.rows {
            let mut a = self.row_iter(i).peekable();
            let mut b = t.row_iter(i).peekable();
            loop {
                match (a.peek().copied(), b.peek().copied()) {
                    (None, None) => break,
                    (Some((_, va)), None) => {
                        if va.abs() > tol {
                            return false;
                        }
                        a.next();
                    }
                    (None, Some((_, vb))) => {
                        if vb.abs() > tol {
                            return false;
                        }
                        b.next();
                    }
                    (Some((ca, va)), Some((cb, vb))) => {
                        if ca == cb {
                            if (va - vb).abs() > tol {
                                return false;
                            }
                            a.next();
                            b.next();
                        } else if ca < cb {
                            if va.abs() > tol {
                                return false;
                            }
                            a.next();
                        } else {
                            if vb.abs() > tol {
                                return false;
                            }
                            b.next();
                        }
                    }
                }
            }
        }
        true
    }

    /// Frobenius norm over the stored entries.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Returns `true` if every row sums to `target` within `tol` (missing
    /// entries count as zero), mirroring [`Matrix::rows_sum_to`].
    pub fn rows_sum_to(&self, target: f64, tol: f64) -> bool {
        (0..self.rows).all(|i| {
            let sum: f64 = self.row_iter(i).map(|(_, v)| v).sum();
            (sum - target).abs() <= tol
        })
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz = {})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    /// A deterministic pseudo-random sparse pattern for the property tests.
    fn seeded_sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..rows {
            for j in 0..cols {
                let h = (i * 31 + j * 17 + seed as usize * 7) % 11;
                if h < 4 {
                    triplets.push((i, j, h as f64 - 1.5));
                }
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets).unwrap()
    }

    fn seeded_vector(len: usize, seed: u64) -> Vector {
        (0..len)
            .map(|i| ((i * 13 + seed as usize * 5) % 9) as f64 - 4.0)
            .collect()
    }

    #[test]
    fn zeros_and_identity() {
        let z = CsrMatrix::from_triplets(3, 4, &[]).unwrap();
        assert_eq!(z.nnz(), 0);
        assert!(!z.is_square());
        assert_eq!(z.matvec(&Vector::ones(4)).unwrap(), Vector::zeros(3));
        let id = CsrMatrix::identity(3);
        assert_eq!(id.nnz(), 3);
        let x = Vector::from(vec![1.0, -2.0, 3.0]);
        assert_eq!(id.matvec(&x).unwrap(), x);
        assert!(id.is_symmetric(0.0));
    }

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(1, 2, 1.0), (0, 1, 2.0), (1, 2, 0.5), (1, 0, -1.0)])
                .unwrap();
        assert_eq!(m.nnz(), 3);
        let d = m.to_dense();
        assert!(close(d.get(1, 2), 1.5));
        assert!(close(d.get(0, 1), 2.0));
        assert!(close(d.get(1, 0), -1.0));
        assert!(close(d.get(0, 0), 0.0));
        let row: Vec<usize> = m.row_iter(1).map(|(c, _)| c).collect();
        assert_eq!(row, vec![0, 2]);
        assert_eq!(m.row_nnz(1), 2);
    }

    #[test]
    fn from_triplets_rejects_out_of_range() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn dense_round_trip_is_exact() {
        let dense = Matrix::from_rows(&[
            vec![1.0, 0.0, -2.0],
            vec![0.0, 0.0, 0.0],
            vec![3.5, 0.0, 4.0],
        ])
        .unwrap();
        let sparse = CsrMatrix::from_dense(&dense);
        assert_eq!(sparse.nnz(), 4);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn matvec_matches_dense() {
        let sparse = seeded_sparse(5, 7, 3);
        let dense = sparse.to_dense();
        let x = seeded_vector(7, 1);
        let ys = sparse.matvec(&x).unwrap();
        let yd = dense.matvec(&x).unwrap();
        assert!(ys.distance(&yd).unwrap() < 1e-12);
        assert!(sparse.matvec(&Vector::zeros(6)).is_err());
    }

    #[test]
    fn quadratic_form_matches_dense() {
        let sparse = seeded_sparse(6, 6, 9);
        let dense = sparse.to_dense();
        let x = seeded_vector(6, 2);
        assert!(close(
            sparse.quadratic_form(&x).unwrap(),
            dense.quadratic_form(&x).unwrap()
        ));
        assert!(seeded_sparse(2, 3, 0)
            .quadratic_form(&Vector::zeros(3))
            .is_err());
        assert!(sparse.quadratic_form(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let sparse = seeded_sparse(4, 6, 5);
        assert_eq!(sparse.transpose().to_dense(), sparse.to_dense().transpose());
    }

    #[test]
    fn symmetry_checks() {
        let sym = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        )
        .unwrap();
        assert!(sym.is_symmetric(0.0));
        // Structurally asymmetric: entry present on one side only.
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        assert!(!asym.is_symmetric(1e-12));
        assert!(asym.is_symmetric(2.0));
        let rectangular = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        assert!(!rectangular.is_symmetric(1.0));
    }

    #[test]
    fn row_sums() {
        let half =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 1.0)]).unwrap();
        assert!(half.rows_sum_to(1.0, 1e-12));
        assert!(!half.rows_sum_to(2.0, 1e-12));
    }

    #[test]
    fn display_mentions_shape() {
        let m = CsrMatrix::identity(4);
        let s = format!("{m}");
        assert!(s.contains("4x4"));
        assert!(s.contains("nnz = 4"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matvec_linear(n in 1usize..8, a in -3.0f64..3.0, seed in 0u64..200) {
            let m = seeded_sparse(n, n, seed);
            let x = seeded_vector(n, seed + 1);
            let lhs = m.matvec(&x.scaled(a)).unwrap();
            let rhs = m.matvec(&x).unwrap().scaled(a);
            prop_assert!(lhs.distance(&rhs).unwrap() < 1e-9);
        }

        #[test]
        fn prop_transpose_involution(rows in 1usize..8, cols in 1usize..8, seed in 0u64..200) {
            let m = seeded_sparse(rows, cols, seed);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_dense_csr_dense_round_trip(rows in 1usize..8, cols in 1usize..8, seed in 0u64..200) {
            let dense = seeded_sparse(rows, cols, seed).to_dense();
            prop_assert_eq!(CsrMatrix::from_dense(&dense).to_dense(), dense);
        }

        #[test]
        fn prop_frobenius_matches_dense(rows in 1usize..8, cols in 1usize..8, seed in 0u64..200) {
            let m = seeded_sparse(rows, cols, seed);
            prop_assert!((m.frobenius_norm() - m.to_dense().frobenius_norm()).abs() < 1e-9);
        }
    }
}
