//! Eigenvalue computations for symmetric matrices.
//!
//! [`SymmetricEigen`] is the cyclic Jacobi rotation algorithm (Golub & Van
//! Loan, *Matrix Computations*, §8.5), which computes the full spectrum and,
//! when asked, the eigenvectors of a symmetric matrix.  It is the workspace's
//! dense spectral oracle: the sparse tier is tested against it, and
//! Algorithm A's epoch length comes from its eigenvalues.
//!
//! The second-smallest Laplacian eigenvalue (the algebraic connectivity) and
//! its eigenvector (the Fiedler vector) drive both spectral bisection in
//! `gossip-graph` and the spectral estimate of the vanilla averaging time in
//! `gossip-core`.
//!
//! # The rotation loop
//!
//! [`SymmetricEigen::compute`] and the values-only
//! [`SymmetricEigen::compute_eigenvalues`] run one private loop, `O(n³)` per
//! sweep.  It works on a row-major copy of `A` whose row stride is `n`
//! rounded up to an *odd* number of 64-byte lines (264 doubles at
//! `n = 256`).  At the unpadded 2 KiB stride of a 256-node block, every
//! walk down a column lands in the same 2 of the L1 cache's 64 sets; an odd
//! number of lines spreads it over all of them.  Each rotation `(p, q)`:
//!
//! 1. updates rows `p` and `q` in one contiguous pass;
//! 2. updates columns `p` and `q` in one strided pass;
//! 3. recomputes the `(p, q)` 2×2 block from its four entries saved before
//!    the rotation, columns first and then rows.
//!
//! Eigenvectors accumulate into a row-major `Vᵀ`, so their update is a
//! contiguous pass too, and the values-only entry keeps no `Vᵀ` at all.
//!
//! The result is bit-identical to the textbook update, which rotates all of
//! columns `p`, `q` of `A`, then all of rows `p`, `q`, then columns `p`, `q`
//! of `V` (`tests/dense_spectrum_pins.rs` pins the bits):
//!
//! * `V` never feeds back into `A`.
//! * Off the 2×2 block, the row pass and the column pass touch disjoint
//!   entries and read only values from before the rotation, so their order
//!   is free.
//! * Only the 2×2 block meets both passes, and step 3 keeps the textbook's
//!   order there.
//! * Rust never contracts `c·x − s·y` into a fused multiply-add, so every
//!   entry is rounded as before; the loop uses no `mul_add`.
//! * `A` is not assumed to stay symmetric: `a[p][q]` and `a[q][p]` drift
//!   apart by ulps, and later rotations read both.

use std::cmp::Ordering;

use crate::{LinalgError, Matrix, Result, Vector};

/// Full eigendecomposition of a symmetric matrix via cyclic Jacobi rotations.
///
/// # Examples
///
/// ```
/// use gossip_linalg::{Matrix, SymmetricEigen};
///
/// let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]])?;
/// let eig = SymmetricEigen::compute(&m)?;
/// assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-9);
/// assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-9);
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vec<f64>,
    eigenvectors: Vec<Vector>,
}

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// Eigenvalues are returned in ascending order, with eigenvectors in the
    /// corresponding order; each eigenvector has unit Euclidean norm.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] / [`LinalgError::NotSymmetric`] for
    /// invalid input, [`LinalgError::Empty`] for a 0×0 matrix, and
    /// [`LinalgError::NoConvergence`] if the off-diagonal mass does not vanish
    /// within the sweep budget (which does not happen for well-formed
    /// symmetric matrices).
    pub fn compute(matrix: &Matrix) -> Result<Self> {
        let n = order(matrix)?;
        // Vᵀ = I, row-major: row `i` becomes the eigenvector of `a[i][i]`.
        let mut vt = vec![0.0; n * n];
        vt.iter_mut().step_by(n + 1).for_each(|x| *x = 1.0);
        let diagonal = jacobi(matrix, |p, q, c, s| {
            let (row_p, row_q) = row_pair(&mut vt, n, n, p, q);
            rotate(row_p, row_q, c, s);
        })?;
        let mut pairs: Vec<(f64, Vector)> = diagonal
            .into_iter()
            .zip(vt.chunks_exact(n).map(|row| Vector::from(row.to_vec())))
            .collect();
        pairs.sort_by(|x, y| ascending(&x.0, &y.0));
        let (eigenvalues, eigenvectors) = pairs.into_iter().unzip();
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Computes the eigenvalues alone, in ascending order: the rotations of
    /// [`Self::compute`], with the same bits, without accumulating
    /// eigenvectors.
    ///
    /// # Errors
    ///
    /// As [`Self::compute`], and checked before any rotation.
    pub fn compute_eigenvalues(matrix: &Matrix) -> Result<Vec<f64>> {
        order(matrix)?;
        let mut eigenvalues = jacobi(matrix, |_, _, _, _| {})?;
        eigenvalues.sort_by(ascending);
        Ok(eigenvalues)
    }

    /// Eigenvalues in ascending order.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Unit-norm eigenvectors, ordered to match [`Self::eigenvalues`].
    pub fn eigenvectors(&self) -> &[Vector] {
        &self.eigenvectors
    }

    /// The smallest eigenvalue.
    pub fn smallest(&self) -> f64 {
        self.eigenvalues[0]
    }

    /// The largest eigenvalue.
    pub fn largest(&self) -> f64 {
        *self
            .eigenvalues
            .last()
            .expect("decomposition is never empty")
    }

    /// The second-smallest eigenvalue.
    ///
    /// For a graph Laplacian this is the algebraic connectivity `λ₂`, which
    /// governs the vanilla gossip averaging time.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the matrix was 1×1.
    pub fn second_smallest(&self) -> Result<f64> {
        self.eigenvalues.get(1).copied().ok_or(LinalgError::Empty)
    }

    /// The eigenvector associated with the second-smallest eigenvalue (the
    /// Fiedler vector for a Laplacian).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the matrix was 1×1.
    pub fn second_smallest_eigenvector(&self) -> Result<&Vector> {
        self.eigenvectors.get(1).ok_or(LinalgError::Empty)
    }
}

/// Maximum number of Jacobi sweeps before giving up.
const MAX_SWEEPS: usize = 100;

/// The order of a non-empty symmetric matrix, or why it has none.
fn order(matrix: &Matrix) -> Result<usize> {
    matrix.require_symmetric()?;
    match matrix.rows() {
        0 => Err(LinalgError::Empty),
        n => Ok(n),
    }
}

/// Row stride of the working copy of an `n × n` matrix: `n` rounded up to
/// an odd number of 64-byte lines of eight doubles.
fn padded_stride(n: usize) -> usize {
    8 * (n.div_ceil(8) | 1)
}

/// The first `len` entries of rows `p < q` of a row-major buffer with row
/// stride `stride`.
fn row_pair(
    data: &mut [f64],
    stride: usize,
    len: usize,
    p: usize,
    q: usize,
) -> (&mut [f64], &mut [f64]) {
    let (head, tail) = data.split_at_mut(q * stride);
    (&mut head[p * stride..p * stride + len], &mut tail[..len])
}

/// The plane rotation `(x, y) ← (c·x − s·y, s·x + c·y)`, entry by entry.
fn rotate(xs: &mut [f64], ys: &mut [f64], c: f64, s: f64) {
    for (x, y) in xs.iter_mut().zip(ys) {
        let (xk, yk) = (*x, *y);
        *x = c * xk - s * yk;
        *y = s * xk + c * yk;
    }
}

/// `Σ |a[i][j]|` over `i ≠ j`, summed row by row: the convergence measure.
fn off_diagonal_abs_sum(a: &[f64], ld: usize, n: usize) -> f64 {
    a.chunks_exact(ld)
        .enumerate()
        .map(|(i, row)| {
            row[..n]
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum::<f64>()
        })
        .sum()
}

/// Cyclic Jacobi on a padded copy of `matrix`, which [`order`] accepted:
/// sweeps until the off-diagonal mass vanishes, calls
/// `rotate_vectors(p, q, c, s)` after each rotation of `A`, and returns the
/// diagonal in index order.
fn jacobi(
    matrix: &Matrix,
    mut rotate_vectors: impl FnMut(usize, usize, f64, f64),
) -> Result<Vec<f64>> {
    let n = matrix.rows();
    let ld = padded_stride(n);
    let mut a = vec![0.0; n * ld];
    for (i, row) in a.chunks_exact_mut(ld).enumerate() {
        row[..n].copy_from_slice(matrix.row(i));
    }
    let diagonal = |a: &[f64]| (0..n).map(|i| a[i * ld + i]).collect();
    let tol = 1e-12 * matrix.frobenius_norm().max(1.0);
    for _sweep in 0..MAX_SWEEPS {
        if off_diagonal_abs_sum(&a, ld, n) <= tol {
            return Ok(diagonal(&a));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let (pp, pq, qp, qq) = (p * ld + p, p * ld + q, q * ld + p, q * ld + q);
                let (app, apq, aqp, aqq) = (a[pp], a[pq], a[qp], a[qq]);
                if apq.abs() <= tol / (n * n) as f64 {
                    continue;
                }
                let theta = (aqq - app) / (2.0 * apq);
                // Stable computation of tan of the rotation angle.
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // A ← Jᵀ A J: rows p and q, then columns p and q.  Both
                // passes also overwrite the 2×2 block, which is redone below.
                let (row_p, row_q) = row_pair(&mut a, ld, n, p, q);
                rotate(row_p, row_q, c, s);
                for row in a.chunks_exact_mut(ld) {
                    let (akp, akq) = (row[p], row[q]);
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                // The 2×2 block from its saved entries: columns, then rows.
                let (pp_col, pq_col) = (c * app - s * apq, s * app + c * apq);
                let (qp_col, qq_col) = (c * aqp - s * aqq, s * aqp + c * aqq);
                a[pp] = c * pp_col - s * qp_col;
                a[qp] = s * pp_col + c * qp_col;
                a[pq] = c * pq_col - s * qq_col;
                a[qq] = s * pq_col + c * qq_col;

                rotate_vectors(p, q, c, s);
            }
        }
    }
    if off_diagonal_abs_sum(&a, ld, n) > tol {
        return Err(LinalgError::NoConvergence {
            iterations: MAX_SWEEPS,
        });
    }
    Ok(diagonal(&a))
}

/// Ascending order of eigenvalues, which are finite.
fn ascending(x: &f64, y: &f64) -> Ordering {
    x.partial_cmp(y).expect("eigenvalues are finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn path_laplacian(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                let mut d = 0.0;
                if i > 0 {
                    d += 1.0;
                }
                if i + 1 < n {
                    d += 1.0;
                }
                d
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        })
    }

    fn complete_laplacian(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| if i == j { (n - 1) as f64 } else { -1.0 })
    }

    #[test]
    fn jacobi_two_by_two() {
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::compute(&m).unwrap();
        assert!(close(eig.eigenvalues()[0], 1.0, 1e-9));
        assert!(close(eig.eigenvalues()[1], 3.0, 1e-9));
        assert!(close(eig.smallest(), 1.0, 1e-9));
        assert!(close(eig.largest(), 3.0, 1e-9));
    }

    #[test]
    fn jacobi_rejects_nonsymmetric() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]).unwrap();
        assert!(SymmetricEigen::compute(&m).is_err());
    }

    #[test]
    fn jacobi_rejects_nonsquare() {
        let m = Matrix::zeros(2, 3);
        assert!(SymmetricEigen::compute(&m).is_err());
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let m = Matrix::from_diagonal(&[3.0, -1.0, 2.0]);
        let eig = SymmetricEigen::compute(&m).unwrap();
        assert!(close(eig.eigenvalues()[0], -1.0, 1e-10));
        assert!(close(eig.eigenvalues()[1], 2.0, 1e-10));
        assert!(close(eig.eigenvalues()[2], 3.0, 1e-10));
    }

    #[test]
    fn complete_graph_laplacian_spectrum() {
        // K_n Laplacian has eigenvalues 0 and n (with multiplicity n-1).
        let n = 6;
        let eig = SymmetricEigen::compute(&complete_laplacian(n)).unwrap();
        assert!(close(eig.smallest(), 0.0, 1e-8));
        assert!(close(eig.second_smallest().unwrap(), n as f64, 1e-8));
        assert!(close(eig.largest(), n as f64, 1e-8));
    }

    #[test]
    fn path_laplacian_second_eigenvalue_matches_formula() {
        // λ₂ of the path P_n Laplacian is 2(1 − cos(π/n)).
        let n = 8;
        let eig = SymmetricEigen::compute(&path_laplacian(n)).unwrap();
        let expected = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!(close(eig.second_smallest().unwrap(), expected, 1e-8));
        assert!(close(eig.smallest(), 0.0, 1e-8));
    }

    #[test]
    fn eigenvectors_satisfy_definition() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.0],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 1.0, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::compute(&m).unwrap();
        for (lambda, vec) in eig.eigenvalues().iter().zip(eig.eigenvectors()) {
            let mv = m.matvec(vec).unwrap();
            let lv = vec.scaled(*lambda);
            assert!(mv.distance(&lv).unwrap() < 1e-8);
            assert!(close(vec.norm(), 1.0, 1e-9));
        }
    }

    #[test]
    fn second_smallest_errors_on_one_by_one() {
        let m = Matrix::from_rows(&[vec![5.0]]).unwrap();
        let eig = SymmetricEigen::compute(&m).unwrap();
        assert!(eig.second_smallest().is_err());
        assert!(eig.second_smallest_eigenvector().is_err());
    }

    #[test]
    fn padded_stride_is_an_odd_number_of_lines() {
        for (n, stride) in [
            (1, 8),
            (7, 8),
            (8, 8),
            (9, 24),
            (16, 24),
            (17, 24),
            (63, 72),
            (64, 72),
            (65, 72),
            (256, 264),
        ] {
            assert_eq!(padded_stride(n), stride, "n = {n}");
        }
        for n in 1..=600 {
            let stride = padded_stride(n);
            assert!(stride >= n && stride < n + 16, "n = {n}");
            assert_eq!(stride % 16, 8, "n = {n}: an odd number of lines");
        }
    }

    /// A symmetric matrix with entries uniform in `[-1, 1)` from a
    /// splitmix64 stream.
    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut upper = vec![0.0; n * n];
        for i in 0..n {
            for j in i..n {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                upper[i * n + j] = ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            }
        }
        Matrix::from_fn(n, n, |i, j| upper[i.min(j) * n + i.max(j)])
    }

    /// The textbook cyclic Jacobi update through `Matrix::get`/`set`: all of
    /// columns `p` and `q` of `A`, then all of rows `p` and `q`, then
    /// columns `p` and `q` of `V`.  The padded loop must give its bits.
    fn textbook(matrix: &Matrix) -> (Vec<f64>, Vec<Vec<f64>>) {
        let n = matrix.rows();
        let mut a = matrix.clone();
        let mut v = Matrix::identity(n);
        let tol = 1e-12 * matrix.frobenius_norm().max(1.0);
        let off = |a: &Matrix| -> f64 {
            (0..n)
                .map(|i| {
                    let row = a.row(i).iter().enumerate();
                    row.filter(|&(j, _)| j != i)
                        .map(|(_, x)| x.abs())
                        .sum::<f64>()
                })
                .sum()
        };
        for _sweep in 0..MAX_SWEEPS {
            if off(&a) <= tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() <= tol / (n * n) as f64 {
                        continue;
                    }
                    let theta = (a.get(q, q) - a.get(p, p)) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let (akp, akq) = (a.get(k, p), a.get(k, q));
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let (apk, aqk) = (a.get(p, k), a.get(q, k));
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    for k in 0..n {
                        let (vkp, vkq) = (v.get(k, p), v.get(k, q));
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
            .map(|i| (a.get(i, i), (0..n).map(|k| v.get(k, i)).collect()))
            .collect();
        pairs.sort_by(|x, y| ascending(&x.0, &y.0));
        pairs.into_iter().unzip()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn eigenvalues_alone_match_the_full_decomposition_on_laplacians() {
        for n in 1..=33 {
            for m in [path_laplacian(n), complete_laplacian(n)] {
                let full = SymmetricEigen::compute(&m).unwrap();
                let alone = SymmetricEigen::compute_eigenvalues(&m).unwrap();
                assert_eq!(bits(&alone), bits(full.eigenvalues()), "n = {n}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_padded_loop_matches_the_textbook_update_bit_for_bit(
            n in 1usize..26, seed in 0u64..1_000, skew in 0u64..4
        ) {
            // Skew one off-diagonal pair by a few ulps, within the symmetry
            // tolerance: the loop must not assume a[p][q] == a[q][p].
            let mut m = random_symmetric(n, seed);
            if n >= 2 {
                m.set(1, 0, f64::from_bits(m.get(0, 1).to_bits() + skew));
            }
            let (values, vectors) = textbook(&m);
            let eig = SymmetricEigen::compute(&m).unwrap();
            prop_assert_eq!(bits(eig.eigenvalues()), bits(&values));
            for (actual, expected) in eig.eigenvectors().iter().zip(&vectors) {
                prop_assert_eq!(bits(actual.as_slice()), bits(expected));
            }
            let alone = SymmetricEigen::compute_eigenvalues(&m).unwrap();
            prop_assert_eq!(bits(&alone), bits(&values));
        }
        #[test]
        fn prop_eigenvalue_sum_equals_trace(n in 1usize..7, seed in 0u64..500) {
            // Build a random symmetric matrix from a deterministic seed.
            let m = Matrix::from_fn(n, n, |i, j| {
                let (a, b) = if i <= j { (i, j) } else { (j, i) };
                (((a * 31 + b * 17 + seed as usize * 7) % 19) as f64 - 9.0) / 3.0
            });
            let eig = SymmetricEigen::compute(&m).unwrap();
            let sum: f64 = eig.eigenvalues().iter().sum();
            prop_assert!((sum - m.trace().unwrap()).abs() < 1e-7);
        }

        #[test]
        fn prop_eigenvalues_sorted(n in 2usize..7, seed in 0u64..500) {
            let m = Matrix::from_fn(n, n, |i, j| {
                let (a, b) = if i <= j { (i, j) } else { (j, i) };
                (((a * 13 + b * 29 + seed as usize * 3) % 23) as f64 - 11.0) / 4.0
            });
            let eig = SymmetricEigen::compute(&m).unwrap();
            for w in eig.eigenvalues().windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
        }

        #[test]
        fn prop_laplacian_smallest_eigenvalue_zero(n in 2usize..8) {
            let eig = SymmetricEigen::compute(&complete_laplacian(n)).unwrap();
            prop_assert!(eig.smallest().abs() < 1e-7);
        }
    }
}
