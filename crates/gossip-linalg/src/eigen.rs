//! Eigenvalue computations for symmetric matrices.
//!
//! [`SymmetricEigen`] is the cyclic Jacobi rotation algorithm, which
//! computes the full spectrum and eigenvectors of a symmetric matrix.
//! Laplacians of the graphs in this workspace are small enough that the
//! `O(n³)` sweep cost is irrelevant, and Jacobi is simple, robust, and
//! accurate.
//!
//! The second-smallest Laplacian eigenvalue (the algebraic connectivity) and
//! its eigenvector (the Fiedler vector) drive both spectral bisection in
//! `gossip-graph` and the spectral estimate of the vanilla averaging time in
//! `gossip-core`.

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
    /// Maximum number of Jacobi sweeps before giving up.
    const MAX_SWEEPS: usize = 100;

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
        matrix.require_symmetric()?;
        let n = matrix.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }

        let mut a = matrix.clone();
        let mut v = Matrix::identity(n);
        let scale = matrix.frobenius_norm().max(1.0);
        let tol = 1e-12 * scale;

        let mut converged = false;
        for _sweep in 0..Self::MAX_SWEEPS {
            if a.off_diagonal_abs_sum() <= tol {
                converged = true;
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a.get(p, q);
                    if apq.abs() <= tol / (n * n) as f64 {
                        continue;
                    }
                    let app = a.get(p, p);
                    let aqq = a.get(q, q);
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable computation of tan of the rotation angle.
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply the rotation A <- Jᵀ A J on rows/cols p and q.
                    for k in 0..n {
                        let akp = a.get(k, p);
                        let akq = a.get(k, q);
                        a.set(k, p, c * akp - s * akq);
                        a.set(k, q, s * akp + c * akq);
                    }
                    for k in 0..n {
                        let apk = a.get(p, k);
                        let aqk = a.get(q, k);
                        a.set(p, k, c * apk - s * aqk);
                        a.set(q, k, s * apk + c * aqk);
                    }
                    // Accumulate eigenvectors: V <- V J.
                    for k in 0..n {
                        let vkp = v.get(k, p);
                        let vkq = v.get(k, q);
                        v.set(k, p, c * vkp - s * vkq);
                        v.set(k, q, s * vkp + c * vkq);
                    }
                }
            }
        }
        if !converged && a.off_diagonal_abs_sum() > tol {
            return Err(LinalgError::NoConvergence {
                iterations: Self::MAX_SWEEPS,
            });
        }

        let mut pairs: Vec<(f64, Vector)> = (0..n).map(|i| (a.get(i, i), v.column(i))).collect();
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("eigenvalues are finite"));
        let (eigenvalues, eigenvectors): (Vec<f64>, Vec<Vector>) = pairs.into_iter().unzip();
        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
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

    proptest! {
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
