//! Matrix-free Lanczos iteration for the extreme eigenvalues of a symmetric
//! operator.
//!
//! The dense Jacobi solver ([`crate::SymmetricEigen`]) computes the whole
//! spectrum in O(n³); the spectral quantities the gossip reproduction needs
//! are only the *extremes* — `λ_max` of a Laplacian and, after deflating the
//! all-ones null direction, the Fiedler value `λ₂`.  [`Lanczos`] computes
//! exactly those from nothing but matrix–vector products, so combined with
//! [`crate::CsrMatrix`] (or any [`LinearOperator`]) the cost is
//! O(k·nnz + k²·n) for `k` iterations instead of O(n³) time and O(n²)
//! memory.
//!
//! Implementation notes:
//!
//! * full reorthogonalization against the stored basis (with the classic
//!   "twice is enough" second pass) keeps the Ritz values trustworthy even
//!   for the near-degenerate spectra of clique-pair graphs;
//! * deflation directions (for Laplacians: the all-ones vector) are
//!   orthonormalized once and projected out of every iterate;
//! * the tridiagonal eigenproblem is solved by Sturm-sequence bisection —
//!   O(k) per extreme eigenvalue evaluation — and eigenvectors of the
//!   tridiagonal matrix by shifted inverse iteration, so no dense matrix of
//!   the operator's dimension is ever formed;
//! * everything is deterministic: the starting vector is a fixed function of
//!   the dimension, as required by the workspace's bit-reproducibility
//!   contract.

use crate::{LinalgError, LinearOperator, Result, Vector};

/// Relative stabilization tolerance on the extreme Ritz values.
const TOLERANCE: f64 = 1e-10;

/// How often (in steps) the extreme Ritz values are re-evaluated for the
/// stabilization check.
const CHECK_EVERY: usize = 5;

/// Configuration/builder for a Lanczos run.
///
/// # Examples
///
/// Fiedler value of a path Laplacian, without touching a dense matrix:
///
/// ```
/// use gossip_linalg::{CsrMatrix, Lanczos, Vector};
///
/// // Laplacian of the path 0 - 1 - 2.
/// let lap = CsrMatrix::from_triplets(3, 3, &[
///     (0, 0, 1.0), (0, 1, -1.0),
///     (1, 0, -1.0), (1, 1, 2.0), (1, 2, -1.0),
///     (2, 1, -1.0), (2, 2, 1.0),
/// ])?;
/// let eig = Lanczos::new().with_deflation(Vector::ones(3)).run(&lap)?;
/// assert!((eig.smallest - 1.0).abs() < 1e-9); // λ₂ = 1
/// assert!((eig.largest - 3.0).abs() < 1e-9);  // λ_max = 3
/// # Ok::<(), gossip_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Lanczos {
    max_iterations: usize,
    deflate: Vec<Vector>,
}

/// Outcome of a [`Lanczos`] run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// The smallest eigenvalue of the operator restricted to the orthogonal
    /// complement of the deflation space.
    pub smallest: f64,
    /// The largest eigenvalue on the same subspace.
    pub largest: f64,
    /// Unit-norm Ritz vector associated with [`LanczosResult::smallest`].
    pub smallest_vector: Vector,
    /// Unit-norm Ritz vector associated with [`LanczosResult::largest`].
    pub largest_vector: Vector,
    /// Number of Lanczos steps performed.
    pub iterations: usize,
    /// `true` when the Krylov space became exactly invariant (breakdown or
    /// dimension exhaustion), in which case the Ritz values are exact up to
    /// round-off rather than iteratively converged.
    pub exhausted: bool,
}

impl Default for Lanczos {
    fn default() -> Self {
        Self::new()
    }
}

impl Lanczos {
    /// Creates a solver with default settings (250 iterations, relative
    /// tolerance `1e-10`, convergence checked every 5 steps).
    pub fn new() -> Self {
        Lanczos {
            max_iterations: 250,
            deflate: Vec::new(),
        }
    }

    /// Sets the maximum number of Lanczos steps.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Adds a direction to project out of every iterate.  For a graph
    /// Laplacian, deflating the all-ones vector exposes the Fiedler value as
    /// the smallest remaining eigenvalue.
    pub fn with_deflation(mut self, direction: Vector) -> Self {
        self.deflate.push(direction);
        self
    }

    /// Runs the iteration on a symmetric operator.
    ///
    /// The operator is trusted to be symmetric; feeding a non-symmetric
    /// operator yields meaningless Ritz values (the solver cannot check
    /// symmetry without O(n²) work, which is exactly what it exists to
    /// avoid).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if the operator has dimension 0 or the
    /// deflation space covers the entire space, and
    /// [`LinalgError::NoConvergence`] if the extreme Ritz values have not
    /// stabilized within the iteration budget.
    pub fn run<O: LinearOperator + ?Sized>(&self, op: &O) -> Result<LanczosResult> {
        let n = op.dim();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        // Orthonormalize the deflation directions once.
        let mut deflate: Vec<Vector> = Vec::with_capacity(self.deflate.len());
        for d in &self.deflate {
            if d.len() != n {
                return Err(LinalgError::DimensionMismatch {
                    expected: n,
                    actual: d.len(),
                });
            }
            let mut v = d.clone();
            for u in &deflate {
                let c = u.dot(&v)?;
                axpy(&mut v, -c, u);
            }
            let norm = v.norm();
            if norm > 1e-12 {
                deflate.push(v.scaled(1.0 / norm));
            }
        }
        if deflate.len() >= n {
            return Err(LinalgError::Empty);
        }
        let effective = n - deflate.len();

        // Deterministic, well-spread starting vector, projected into the
        // deflated subspace.
        let mut v0: Vector = (0..n).map(|i| 1.0 + ((i as f64) * 0.7511).sin()).collect();
        project_out(&mut v0, &deflate)?;
        let mut basis_index = 0;
        while v0.norm() <= 1e-12 && basis_index < n {
            v0 = Vector::basis(n, basis_index);
            project_out(&mut v0, &deflate)?;
            basis_index += 1;
        }
        let norm = v0.norm();
        if norm <= 1e-12 {
            return Err(LinalgError::Empty);
        }
        let v0 = v0.scaled(1.0 / norm);

        let budget = self.max_iterations.min(effective);
        let mut basis: Vec<Vector> = Vec::with_capacity(budget);
        basis.push(v0);
        let mut alphas: Vec<f64> = Vec::with_capacity(budget);
        let mut betas: Vec<f64> = Vec::with_capacity(budget);
        let mut previous: Option<(f64, f64)> = None;
        // Stabilization must hold over two consecutive check windows: a
        // single small change can be a plateau (tiny overlap with a
        // not-yet-found extreme direction), not convergence.
        let mut stable_checks = 0usize;
        let mut exhausted = false;
        let mut converged = false;

        for step in 1..=budget {
            let vk = &basis[step - 1];
            let mut w = op.apply(vk)?;
            let alpha = vk.dot(&w)?;
            axpy(&mut w, -alpha, vk);
            if step >= 2 {
                let beta_prev = betas[step - 2];
                axpy(&mut w, -beta_prev, &basis[step - 2]);
            }
            alphas.push(alpha);

            // Full reorthogonalization with a conditional second pass
            // (Kahan–Parlett "twice is enough").
            let before = w.norm();
            reorthogonalize(&mut w, &deflate, &basis)?;
            if w.norm() < 0.5 * before {
                reorthogonalize(&mut w, &deflate, &basis)?;
            }

            let scale = tridiagonal_scale(&alphas, &betas).max(1.0);
            let beta = w.norm();
            if beta <= 1e-13 * scale {
                // Invariant subspace: the Ritz values are exact.
                exhausted = true;
                converged = true;
                break;
            }
            if step == budget {
                if step == effective {
                    exhausted = true;
                    converged = true;
                } else if stable_checks >= 1 {
                    // Last-chance stabilization check at the budget edge.
                    let extremes = tridiagonal_extremes(&alphas, &betas[..step - 1]);
                    let (ps, pl) = previous.expect("stable check implies a previous evaluation");
                    let tol = TOLERANCE * scale;
                    converged = (extremes.0 - ps).abs() <= tol && (extremes.1 - pl).abs() <= tol;
                }
                break;
            }
            betas.push(beta);
            basis.push(w.scaled(1.0 / beta));

            if step >= 2 && step % CHECK_EVERY == 0 {
                let extremes = tridiagonal_extremes(&alphas, &betas[..step - 1]);
                if let Some((ps, pl)) = previous {
                    let tol = TOLERANCE * scale;
                    if (extremes.0 - ps).abs() <= tol && (extremes.1 - pl).abs() <= tol {
                        stable_checks += 1;
                        if stable_checks >= 2 {
                            converged = true;
                            break;
                        }
                    } else {
                        stable_checks = 0;
                    }
                }
                previous = Some(extremes);
            }
        }

        if !converged {
            return Err(LinalgError::NoConvergence {
                iterations: self.max_iterations,
            });
        }

        let k = alphas.len();
        let inner_betas = &betas[..k - 1];
        let (smallest, largest) = tridiagonal_extremes(&alphas, inner_betas);
        let small_t = tridiagonal_eigenvector(&alphas, inner_betas, smallest);
        let large_t = tridiagonal_eigenvector(&alphas, inner_betas, largest);
        let smallest_vector = ritz_vector(&basis[..k], &small_t, &deflate)?;
        let largest_vector = ritz_vector(&basis[..k], &large_t, &deflate)?;
        Ok(LanczosResult {
            smallest,
            largest,
            smallest_vector,
            largest_vector,
            iterations: k,
            exhausted,
        })
    }
}

/// `y += a·x`, in place.
fn axpy(y: &mut Vector, a: f64, x: &Vector) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += a * xi;
    }
}

/// Projects every direction in `space` out of `v`, in place.
fn project_out(v: &mut Vector, space: &[Vector]) -> Result<()> {
    for u in space {
        let c = u.dot(v)?;
        axpy(v, -c, u);
    }
    Ok(())
}

/// One classical Gram–Schmidt sweep of `w` against the deflation space and
/// the Lanczos basis.
fn reorthogonalize(w: &mut Vector, deflate: &[Vector], basis: &[Vector]) -> Result<()> {
    project_out(w, deflate)?;
    project_out(w, basis)?;
    Ok(())
}

/// A magnitude scale for the tridiagonal matrix (largest Gershgorin radius).
fn tridiagonal_scale(alphas: &[f64], betas: &[f64]) -> f64 {
    alphas
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let left = if i > 0 {
                betas.get(i - 1).map_or(0.0, |b| b.abs())
            } else {
                0.0
            };
            let right = betas.get(i).map_or(0.0, |b| b.abs());
            a.abs() + left + right
        })
        .fold(0.0, f64::max)
}

/// Number of eigenvalues of the symmetric tridiagonal matrix `(alphas,
/// betas)` strictly below `x`, via the Sturm sequence of the LDLᵀ pivots.
fn sturm_count_below(alphas: &[f64], betas: &[f64], x: f64) -> usize {
    let tiny = f64::MIN_POSITIVE;
    let mut count = 0;
    let mut d = 1.0_f64;
    for (i, &a) in alphas.iter().enumerate() {
        let off = if i > 0 {
            betas[i - 1] * betas[i - 1]
        } else {
            0.0
        };
        d = (a - x) - off / d;
        if d == 0.0 {
            d = -tiny;
        }
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// The `index`-th smallest eigenvalue (0-based) of the symmetric tridiagonal
/// matrix, by bisection on the Sturm count.
fn tridiagonal_eigenvalue(alphas: &[f64], betas: &[f64], index: usize) -> f64 {
    let n = alphas.len();
    debug_assert!(index < n);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (i, &a) in alphas.iter().enumerate() {
        let left = if i > 0 { betas[i - 1].abs() } else { 0.0 };
        let right = betas.get(i).map_or(0.0, |b| b.abs());
        lo = lo.min(a - left - right);
        hi = hi.max(a + left + right);
    }
    // Widen slightly so both bounds are strict.
    let width = (hi - lo).max(1.0);
    lo -= 1e-12 * width;
    hi += 1e-12 * width;
    for _ in 0..120 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if sturm_count_below(alphas, betas, mid) > index {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Smallest and largest eigenvalues of the symmetric tridiagonal matrix.
fn tridiagonal_extremes(alphas: &[f64], betas: &[f64]) -> (f64, f64) {
    let n = alphas.len();
    (
        tridiagonal_eigenvalue(alphas, betas, 0),
        tridiagonal_eigenvalue(alphas, betas, n - 1),
    )
}

/// Solves `(T − shift·I)·y = b` for a symmetric tridiagonal `T` by the Thomas
/// algorithm with a tiny-pivot safeguard; returns the (unnormalized) `y`.
fn solve_tridiagonal_shifted(alphas: &[f64], betas: &[f64], shift: f64, b: &[f64]) -> Vec<f64> {
    let n = alphas.len();
    let mut diag: Vec<f64> = alphas.iter().map(|&a| a - shift).collect();
    let mut rhs = b.to_vec();
    let floor = 1e-300;
    // Forward elimination.
    for i in 1..n {
        if diag[i - 1].abs() < floor {
            diag[i - 1] = if diag[i - 1] < 0.0 { -floor } else { floor };
        }
        let m = betas[i - 1] / diag[i - 1];
        diag[i] -= m * betas[i - 1];
        rhs[i] -= m * rhs[i - 1];
    }
    if diag[n - 1].abs() < floor {
        diag[n - 1] = if diag[n - 1] < 0.0 { -floor } else { floor };
    }
    // Back substitution.
    let mut y = vec![0.0; n];
    y[n - 1] = rhs[n - 1] / diag[n - 1];
    for i in (0..n - 1).rev() {
        y[i] = (rhs[i] - betas[i] * y[i + 1]) / diag[i];
    }
    y
}

/// Unit-norm eigenvector of the symmetric tridiagonal matrix for the (already
/// converged) eigenvalue `theta`, by shifted inverse iteration.
fn tridiagonal_eigenvector(alphas: &[f64], betas: &[f64], theta: f64) -> Vec<f64> {
    let n = alphas.len();
    if n == 1 {
        return vec![1.0];
    }
    let scale = tridiagonal_scale(alphas, betas).max(1.0);
    let mut y: Vec<f64> = (0..n).map(|i| 1.0 + ((i as f64) * 0.9321).cos()).collect();
    let mut shift_pad = 1e-14 * scale;
    for _attempt in 0..6 {
        let mut ok = true;
        for _ in 0..3 {
            let z = solve_tridiagonal_shifted(alphas, betas, theta + shift_pad, &y);
            let norm = z.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !norm.is_finite() || norm == 0.0 {
                ok = false;
                break;
            }
            y = z.iter().map(|v| v / norm).collect();
        }
        if ok {
            return y;
        }
        shift_pad *= 100.0;
        y = (0..n).map(|i| 1.0 + ((i as f64) * 0.9321).cos()).collect();
    }
    // Last resort: a basis vector (only reachable for pathological input).
    let mut fallback = vec![0.0; n];
    fallback[0] = 1.0;
    fallback
}

/// Maps a tridiagonal eigenvector back through the Lanczos basis and
/// renormalizes inside the deflated subspace.
fn ritz_vector(basis: &[Vector], coeffs: &[f64], deflate: &[Vector]) -> Result<Vector> {
    let n = basis[0].len();
    let mut out = Vector::zeros(n);
    for (v, &c) in basis.iter().zip(coeffs.iter()) {
        axpy(&mut out, c, v);
    }
    project_out(&mut out, deflate)?;
    let norm = out.norm();
    if norm > 0.0 {
        out = out.scaled(1.0 / norm);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, Matrix, SymmetricEigen};

    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for i in 0..n - 1 {
            triplets.push((i, i, 1.0));
            triplets.push((i + 1, i + 1, 1.0));
            triplets.push((i, i + 1, -1.0));
            triplets.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    #[test]
    fn diagonal_matrix_extremes() {
        let m = CsrMatrix::from_dense(&Matrix::from_diagonal(&[3.0, -1.0, 2.0, 7.0]));
        let eig = Lanczos::new().run(&m).unwrap();
        assert!((eig.smallest - -1.0).abs() < 1e-9);
        assert!((eig.largest - 7.0).abs() < 1e-9);
        assert!(eig.exhausted);
    }

    #[test]
    fn path_laplacian_matches_closed_form() {
        let n = 12;
        let eig = Lanczos::new()
            .with_deflation(Vector::ones(n))
            .run(&path_laplacian(n))
            .unwrap();
        let lambda2 = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        let lambda_max = 2.0 * (1.0 - (std::f64::consts::PI * (n as f64 - 1.0) / n as f64).cos());
        assert!((eig.smallest - lambda2).abs() < 1e-8, "{}", eig.smallest);
        assert!((eig.largest - lambda_max).abs() < 1e-8, "{}", eig.largest);
    }

    #[test]
    fn ritz_vectors_satisfy_definition() {
        let n = 10;
        let lap = path_laplacian(n);
        let eig = Lanczos::new()
            .with_deflation(Vector::ones(n))
            .run(&lap)
            .unwrap();
        for (theta, vec) in [
            (eig.smallest, &eig.smallest_vector),
            (eig.largest, &eig.largest_vector),
        ] {
            assert!((vec.norm() - 1.0).abs() < 1e-9);
            let lv = lap.matvec(vec).unwrap();
            let residual = lv.distance(&vec.scaled(theta)).unwrap();
            assert!(residual < 1e-6, "residual {residual} at theta {theta}");
        }
    }

    #[test]
    fn agrees_with_jacobi_on_dense_symmetric() {
        let dense = Matrix::from_fn(9, 9, |i, j| {
            let (a, b) = if i <= j { (i, j) } else { (j, i) };
            (((a * 31 + b * 17) % 13) as f64 - 6.0) / 3.0
        });
        let jac = SymmetricEigen::compute(&dense).unwrap();
        let lan = Lanczos::new().run(&CsrMatrix::from_dense(&dense)).unwrap();
        assert!((lan.smallest - jac.smallest()).abs() < 1e-8);
        assert!((lan.largest - jac.largest()).abs() < 1e-8);
    }

    #[test]
    fn one_dimensional_deflated_space() {
        // Single-edge Laplacian: after deflating ones, the space is 1-D.
        let lap = path_laplacian(2);
        let eig = Lanczos::new()
            .with_deflation(Vector::ones(2))
            .run(&lap)
            .unwrap();
        assert!((eig.smallest - 2.0).abs() < 1e-10);
        assert!((eig.largest - 2.0).abs() < 1e-10);
        assert_eq!(eig.iterations, 1);
        assert!(eig.exhausted);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        struct Zero;
        impl LinearOperator for Zero {
            fn dim(&self) -> usize {
                0
            }
            fn apply(&self, x: &Vector) -> Result<Vector> {
                Ok(x.clone())
            }
        }
        assert!(matches!(Lanczos::new().run(&Zero), Err(LinalgError::Empty)));
        // Deflating the whole space leaves nothing to iterate on.
        let id = CsrMatrix::identity(1);
        assert!(matches!(
            Lanczos::new().with_deflation(Vector::ones(1)).run(&id),
            Err(LinalgError::Empty)
        ));
        // Mismatched deflation vector.
        assert!(Lanczos::new()
            .with_deflation(Vector::ones(3))
            .run(&CsrMatrix::identity(2))
            .is_err());
    }

    #[test]
    fn repeated_deflation_directions_are_collapsed() {
        let n = 6;
        let eig = Lanczos::new()
            .with_deflation(Vector::ones(n))
            .with_deflation(Vector::ones(n).scaled(3.0))
            .run(&path_laplacian(n))
            .unwrap();
        let lambda2 = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!((eig.smallest - lambda2).abs() < 1e-8);
    }

    #[test]
    fn builder_setters_apply() {
        let solver = Lanczos::new().with_max_iterations(7);
        assert_eq!(solver.max_iterations, 7);
        // Budget ≥ dimension: the Krylov space is exhausted and exact.
        let eig = solver.run(&path_laplacian(6)).unwrap();
        assert!(eig.iterations <= 7);
        assert!(eig.exhausted);
        // Budget far below what a hard spectrum needs: explicit failure.
        assert!(matches!(
            Lanczos::new()
                .with_max_iterations(4)
                .run(&path_laplacian(40)),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn sturm_bisection_is_exact_on_known_tridiagonal() {
        // T = tridiag(-1, 2, -1) of size 5: eigenvalues 2 - 2 cos(kπ/6).
        let alphas = vec![2.0; 5];
        let betas = vec![-1.0; 4];
        for k in 1..=5usize {
            let expected = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 6.0).cos();
            let got = tridiagonal_eigenvalue(&alphas, &betas, k - 1);
            assert!(
                (got - expected).abs() < 1e-9,
                "k = {k}: {got} vs {expected}"
            );
        }
    }
}
