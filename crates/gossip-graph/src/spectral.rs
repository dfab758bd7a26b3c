//! Spectral quantities of a graph: algebraic connectivity, spectral gap of the
//! expected gossip matrix, and the Fiedler vector.
//!
//! These feed two consumers:
//!
//! * `gossip-core` uses `1/λ₂`-style quantities to estimate the vanilla
//!   averaging times `T_van(G₁)`, `T_van(G₂)` that parametrize Algorithm A's
//!   epoch length;
//! * [`crate::cut`] uses the Fiedler vector for spectral bisection when a
//!   sparse cut is not known in advance.

use crate::{laplacian, Graph, GraphError, Result};
use gossip_linalg::{Lanczos, LinalgError, SymmetricEigen, Vector};

/// Node count above which [`SpectralProfile::compute`] (and the other
/// dispatching helpers in this module) switch from the dense Jacobi path to
/// the sparse matrix-free Lanczos path.
///
/// Below the threshold the dense path is both fast and bit-reproducibly the
/// *reference*: the differential oracle suite pins the sparse path against
/// it.  Above the threshold dense costs O(n²) memory and O(n³) time, which
/// is exactly what the sparse tier exists to avoid.  The value is far below
/// the Lanczos iteration cap, so the small dense tridiagonal systems the
/// sparse path solves internally never come close to it.
pub const SPARSE_DISPATCH_THRESHOLD: usize = 512;

/// Summary of the spectral quantities relevant to gossip averaging.
#[derive(Debug, Clone, PartialEq)]
pub struct SpectralProfile {
    /// Algebraic connectivity: second-smallest eigenvalue of the Laplacian.
    pub algebraic_connectivity: f64,
    /// Largest Laplacian eigenvalue.
    pub laplacian_lambda_max: f64,
    /// Spectral gap `1 − λ₂(W̄)` of the expected gossip matrix
    /// `W̄ = I − L/(2|E|)`.
    pub gossip_spectral_gap: f64,
    /// Relaxation time `1 / gap`, the natural time-scale (in *global* clock
    /// ticks) on which vanilla gossip mixes.
    pub relaxation_ticks: f64,
    /// Number of edges of the graph (so callers can convert between tick
    /// counts and the absolute time of rate-1 Poisson clocks).
    pub edge_count: usize,
    /// Number of nodes.
    pub node_count: usize,
}

impl SpectralProfile {
    /// Computes the profile of a connected graph with at least one edge,
    /// dispatching on size: graphs with at most [`SPARSE_DISPATCH_THRESHOLD`]
    /// nodes go through the dense reference path
    /// ([`SpectralProfile::compute_dense`]), larger graphs through the sparse
    /// matrix-free path ([`SpectralProfile::compute_sparse`]).
    ///
    /// Below the threshold the result is byte-identical to calling the dense
    /// path directly — dispatch never perturbs small-graph results.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for graphs with fewer than two
    /// nodes or no edges, [`GraphError::Disconnected`] if `λ₂ ≈ 0`, and
    /// propagates eigensolver failures.
    pub fn compute(graph: &Graph) -> Result<Self> {
        if graph.node_count() > SPARSE_DISPATCH_THRESHOLD {
            Self::compute_sparse(graph)
        } else {
            Self::compute_dense(graph)
        }
    }

    /// Computes the profile with the dense Jacobi eigensolver: O(n²) memory,
    /// O(n³) time, the full spectrum.  This is the trusted reference path of
    /// the differential test oracle.
    ///
    /// # Errors
    ///
    /// See [`SpectralProfile::compute`].
    pub fn compute_dense(graph: &Graph) -> Result<Self> {
        Self::check_shape(graph)?;
        let (lambda2, lambda_max) = dense_laplacian_extremes(graph)?;
        Self::from_extremes(graph, lambda2, lambda_max)
    }

    /// Computes the profile with the sparse CSR Laplacian and matrix-free
    /// Lanczos iteration (deflating the all-ones null direction): O(|E| +
    /// k·n) memory and O(k·|E| + k²·n) time for `k` Lanczos steps (the k·n
    /// term is the reorthogonalization basis), never materializing an n×n
    /// matrix.
    ///
    /// # Errors
    ///
    /// See [`SpectralProfile::compute`].
    pub fn compute_sparse(graph: &Graph) -> Result<Self> {
        Self::check_shape(graph)?;
        let eig = sparse_laplacian_extremes(graph)?;
        Self::from_extremes(graph, eig.smallest, eig.largest)
    }

    fn check_shape(graph: &Graph) -> Result<()> {
        if graph.node_count() < 2 {
            return Err(GraphError::InvalidParameter {
                reason: "spectral profile requires at least two nodes".into(),
            });
        }
        if graph.edge_count() == 0 {
            return Err(GraphError::InvalidParameter {
                reason: "spectral profile requires at least one edge".into(),
            });
        }
        Ok(())
    }

    fn from_extremes(graph: &Graph, lambda2: f64, lambda_max: f64) -> Result<Self> {
        if lambda2 < 1e-9 {
            return Err(GraphError::Disconnected);
        }
        let gap = lambda2 / (2.0 * graph.edge_count() as f64);
        Ok(SpectralProfile {
            algebraic_connectivity: lambda2,
            laplacian_lambda_max: lambda_max,
            gossip_spectral_gap: gap,
            relaxation_ticks: 1.0 / gap,
            edge_count: graph.edge_count(),
            node_count: graph.node_count(),
        })
    }

    /// Relaxation time expressed in absolute (Poisson-clock) time rather than
    /// ticks: with `|E|` rate-1 clocks, ticks arrive at rate `|E|`, so the
    /// absolute relaxation time is `relaxation_ticks / |E|`.
    pub fn relaxation_time(&self) -> f64 {
        self.relaxation_ticks / self.edge_count as f64
    }

    /// Spectral estimate of the ε-averaging time in absolute time, the
    /// standard `Θ(log(1/ε) / (gap · |E|))` formula specialized to the
    /// `ε = e⁻²`-style threshold of Definition 1 (`log(1/ε) = 2` plus a
    /// `log n` term accounting for the worst-case initial vector).
    pub fn vanilla_averaging_time_estimate(&self) -> f64 {
        let log_term = 2.0 + (self.node_count as f64).ln();
        log_term * self.relaxation_time()
    }
}

/// The sparse tier's one Laplacian eigensolve, shared by every dispatching
/// helper in this module: build the CSR Laplacian and run Lanczos with the
/// all-ones null direction deflated, so the smallest Ritz pair is the
/// Fiedler value/vector and the largest is `λ_max` (eigenvectors of non-zero
/// Laplacian eigenvalues are automatically orthogonal to the ones vector).
///
/// The iteration budget: up to 2 500 nodes the full Krylov space is allowed
/// (exhaustion makes the extremes exact for *any* spectrum, including the
/// Θ(n)-step 1-D chains where eigenvalue spacing is ~1/n²), and beyond that
/// a `max(2 500, 8·√n)` cap — enough for the expander/grid/clique families
/// of the scale tier, whose smallest non-trivial eigenvalue resolves in
/// O(√n)-ish steps.  Extremely chain-like graphs above ~6 000 nodes may
/// exhaust the cap and report [`gossip_linalg::LinalgError::NoConvergence`]
/// (an explicit error, never a silently wrong eigenvalue); such graphs were
/// equally out of reach for the O(n³) dense path.
///
/// Callers needing both the Fiedler value *and* vector of a large graph
/// should call this once rather than paying two solves through the
/// individual helpers.
pub fn sparse_laplacian_extremes(graph: &Graph) -> Result<gossip_linalg::LanczosResult> {
    let n = graph.node_count();
    let budget = n.min(2_500).max((8.0 * (n as f64).sqrt()) as usize);
    let lap = laplacian::laplacian_sparse(graph);
    Lanczos::new()
        .with_deflation(Vector::ones(n))
        .with_max_iterations(budget)
        .run(&lap)
        .map_err(GraphError::Linalg)
}

/// The dense tier's eigenvalue-only Laplacian solve: `(λ₂, λ_max)` from
/// [`SymmetricEigen::compute_eigenvalues`], which skips the eigenvector
/// accumulation only [`fiedler_vector`] needs.
///
/// # Errors
///
/// [`gossip_linalg::LinalgError::Empty`] for a graph without nodes or with
/// one node (no `λ₂`), and whatever else the eigensolver reports.
fn dense_laplacian_extremes(graph: &Graph) -> Result<(f64, f64)> {
    let eigenvalues = SymmetricEigen::compute_eigenvalues(&laplacian::laplacian(graph))?;
    let lambda2 = *eigenvalues.get(1).ok_or(LinalgError::Empty)?;
    Ok((lambda2, eigenvalues[eigenvalues.len() - 1]))
}

/// Second-smallest eigenvalue of the combinatorial Laplacian (the Fiedler
/// value), dispatching dense/sparse on [`SPARSE_DISPATCH_THRESHOLD`] like
/// [`SpectralProfile::compute`].
///
/// Unlike [`SpectralProfile::compute`] this does *not* reject disconnected
/// graphs: for those it simply reports `λ₂ ≈ 0`.
///
/// # Errors
///
/// See [`SpectralProfile::compute`]; additionally this returns whatever the
/// eigensolver reports for degenerate inputs.
pub fn algebraic_connectivity(graph: &Graph) -> Result<f64> {
    if graph.node_count() > SPARSE_DISPATCH_THRESHOLD {
        Ok(sparse_laplacian_extremes(graph)?.smallest)
    } else {
        Ok(dense_laplacian_extremes(graph)?.0)
    }
}

/// Alias for [`algebraic_connectivity`] under its common name in the
/// sparse-cut literature.
///
/// # Errors
///
/// See [`algebraic_connectivity`].
pub fn fiedler_value(graph: &Graph) -> Result<f64> {
    algebraic_connectivity(graph)
}

/// The Fiedler vector: the unit-norm eigenvector of the Laplacian associated
/// with the second-smallest eigenvalue, dispatching dense/sparse on
/// [`SPARSE_DISPATCH_THRESHOLD`].
///
/// The sign is solver-dependent (both signs are valid eigenvectors); the
/// spectral bisection in [`crate::cut`] is sign-invariant.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for graphs with fewer than two
/// nodes and propagates eigensolver failures.
pub fn fiedler_vector(graph: &Graph) -> Result<Vector> {
    if graph.node_count() < 2 {
        return Err(GraphError::InvalidParameter {
            reason: "Fiedler vector requires at least two nodes".into(),
        });
    }
    if graph.node_count() > SPARSE_DISPATCH_THRESHOLD {
        Ok(sparse_laplacian_extremes(graph)?.smallest_vector)
    } else {
        let lap = laplacian::laplacian(graph);
        let eig = SymmetricEigen::compute(&lap)?;
        Ok(eig.second_smallest_eigenvector()?.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn complete(n: usize) -> Graph {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                edges.push((i, j));
            }
        }
        Graph::from_edges(n, &edges).unwrap()
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn complete_graph_connectivity_is_n() {
        let n = 6;
        let g = complete(n);
        assert!((algebraic_connectivity(&g).unwrap() - n as f64).abs() < 1e-7);
    }

    #[test]
    fn path_graph_connectivity_matches_formula() {
        let n = 7;
        let g = path(n);
        let expected = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
        assert!((algebraic_connectivity(&g).unwrap() - expected).abs() < 1e-8);
    }

    #[test]
    fn profile_of_complete_graph() {
        let n = 8;
        let g = complete(n);
        let p = SpectralProfile::compute(&g).unwrap();
        assert!((p.algebraic_connectivity - n as f64).abs() < 1e-6);
        assert!((p.laplacian_lambda_max - n as f64).abs() < 1e-6);
        let m = g.edge_count() as f64;
        assert!((p.gossip_spectral_gap - n as f64 / (2.0 * m)).abs() < 1e-9);
        assert!((p.relaxation_ticks - 2.0 * m / n as f64).abs() < 1e-6);
        assert!((p.relaxation_time() - p.relaxation_ticks / m).abs() < 1e-12);
        assert!(p.vanilla_averaging_time_estimate() > 0.0);
        assert_eq!(p.node_count, n);
        assert_eq!(p.edge_count, g.edge_count());
    }

    #[test]
    fn profile_rejects_degenerate_graphs() {
        assert!(SpectralProfile::compute(&Graph::from_edges(1, &[]).unwrap()).is_err());
        assert!(SpectralProfile::compute(&Graph::from_edges(3, &[]).unwrap()).is_err());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            SpectralProfile::compute(&disconnected),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn eigenvalue_only_readers_keep_their_errors_on_tiny_graphs() {
        // No node: a 0×0 Laplacian.  One node: one eigenvalue and no λ₂,
        // an error rather than an index panic.
        for n in [0, 1] {
            let g = Graph::from_edges(n, &[]).unwrap();
            assert!(matches!(
                SpectralProfile::compute_dense(&g),
                Err(GraphError::InvalidParameter { .. })
            ));
            assert!(matches!(
                algebraic_connectivity(&g),
                Err(GraphError::Linalg(LinalgError::Empty))
            ));
        }
    }

    #[test]
    fn fiedler_vector_is_orthogonal_to_ones_and_separates_path() {
        let g = path(6);
        let f = fiedler_vector(&g).unwrap();
        assert!((f.norm() - 1.0).abs() < 1e-9);
        assert!(f.sum().abs() < 1e-8);
        // On a path the Fiedler vector is monotone, so the two halves have
        // opposite signs.
        let first = f[0];
        let last = f[5];
        assert!(first * last < 0.0);
        assert!(fiedler_vector(&Graph::from_edges(1, &[]).unwrap()).is_err());
    }

    #[test]
    fn dense_and_sparse_profiles_agree_on_small_graphs() {
        for graph in [complete(9), path(11)] {
            let dense = SpectralProfile::compute_dense(&graph).unwrap();
            let sparse = SpectralProfile::compute_sparse(&graph).unwrap();
            let scale = dense.laplacian_lambda_max.max(1.0);
            assert!(
                (dense.algebraic_connectivity - sparse.algebraic_connectivity).abs() < 1e-7 * scale
            );
            assert!(
                (dense.laplacian_lambda_max - sparse.laplacian_lambda_max).abs() < 1e-7 * scale
            );
            assert_eq!(dense.edge_count, sparse.edge_count);
            assert_eq!(dense.node_count, sparse.node_count);
        }
    }

    #[test]
    fn dispatch_is_bitwise_dense_below_threshold() {
        let g = path(10);
        assert!(g.node_count() <= SPARSE_DISPATCH_THRESHOLD);
        let dispatched = SpectralProfile::compute(&g).unwrap();
        let dense = SpectralProfile::compute_dense(&g).unwrap();
        assert_eq!(
            dispatched.algebraic_connectivity.to_bits(),
            dense.algebraic_connectivity.to_bits()
        );
        assert_eq!(
            dispatched.vanilla_averaging_time_estimate().to_bits(),
            dense.vanilla_averaging_time_estimate().to_bits()
        );
        assert_eq!(dispatched, dense);
    }

    #[test]
    fn sparse_path_rejects_degenerate_graphs_like_dense() {
        assert!(SpectralProfile::compute_sparse(&Graph::from_edges(1, &[]).unwrap()).is_err());
        assert!(SpectralProfile::compute_sparse(&Graph::from_edges(3, &[]).unwrap()).is_err());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            SpectralProfile::compute_sparse(&disconnected),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn fiedler_value_matches_connectivity() {
        let g = path(9);
        assert_eq!(
            fiedler_value(&g).unwrap().to_bits(),
            algebraic_connectivity(&g).unwrap().to_bits()
        );
    }

    #[test]
    fn denser_graphs_relax_faster() {
        let sparse = path(8);
        let dense = complete(8);
        let ps = SpectralProfile::compute(&sparse).unwrap();
        let pd = SpectralProfile::compute(&dense).unwrap();
        assert!(pd.relaxation_time() < ps.relaxation_time());
        assert!(pd.vanilla_averaging_time_estimate() < ps.vanilla_averaging_time_estimate());
    }
}
