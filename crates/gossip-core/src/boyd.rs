//! Expected-matrix analysis of gossip algorithms in the style of Boyd, Ghosh,
//! Prabhakar and Shah ("Gossip algorithms: design, analysis and
//! applications"), the reference `[2]` the paper compares against.
//!
//! For a randomized pairwise-averaging algorithm, let `W(t)` be the (random)
//! matrix applied at the `t`-th tick and `W̄ = E[W(t)]`.  Boyd et al. show the
//! ε-averaging time (in ticks) is governed by the second-largest eigenvalue
//! of `W̄` (for symmetric `W̄`):
//!
//! `T_ave(ε) ≈ 3·log ε⁻¹ / log(1/λ₂(W̄))`.
//!
//! This module computes `W̄`, its spectral quantities, and the resulting
//! estimate for the vanilla edge-clock algorithm, and exposes the connection
//! to Theorem 1: on a graph with a sparse cut the spectral gap of `W̄` is at
//! most `O(|E₁₂|·|E| / (n₁·n₂))`-ish small, so the Boyd-style tick count is
//! `Ω(min(n₁,n₂)·|E|/|E₁₂|)` — the matrix-analytic face of the same
//! bottleneck.

use crate::{CoreError, Result};
use gossip_graph::{laplacian, Graph, Partition};
use gossip_linalg::{Matrix, SymmetricEigen, Vector};

/// Spectral analysis of the expected single-tick gossip matrix `W̄`.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipMatrixAnalysis {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of edges (ticks arrive at aggregate rate `|E|`).
    pub edge_count: usize,
    /// Second-largest eigenvalue of `W̄` (the largest is always 1).
    pub lambda2: f64,
    /// Smallest eigenvalue of `W̄`.
    pub lambda_min: f64,
    /// Spectral gap `1 − λ₂(W̄)`.
    pub spectral_gap: f64,
}

impl GossipMatrixAnalysis {
    /// Analyses the vanilla edge-clock algorithm on `graph`
    /// (`W̄ = I − L/(2|E|)`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for graphs with no edges and
    /// propagates eigensolver failures.
    pub fn vanilla(graph: &Graph) -> Result<Self> {
        if graph.edge_count() == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "expected-matrix analysis requires at least one edge".into(),
            });
        }
        let expected = laplacian::expected_gossip_matrix(graph)?;
        Self::from_expected_matrix(graph, &expected)
    }

    /// Analyses an arbitrary symmetric doubly-stochastic expected matrix.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the matrix is not square of
    /// the right size, not symmetric, or does not fix the all-ones vector,
    /// and propagates eigensolver failures.
    pub fn from_expected_matrix(graph: &Graph, expected: &Matrix) -> Result<Self> {
        let n = graph.node_count();
        if expected.rows() != n || expected.cols() != n {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "expected matrix is {}x{} but the graph has {n} nodes",
                    expected.rows(),
                    expected.cols()
                ),
            });
        }
        if !expected.is_symmetric(1e-9) {
            return Err(CoreError::InvalidConfig {
                reason: "expected matrix must be symmetric".into(),
            });
        }
        let ones = Vector::ones(n);
        let fixed = expected
            .matvec(&ones)
            .map_err(gossip_graph::GraphError::from)?;
        if fixed
            .distance(&ones)
            .map_err(gossip_graph::GraphError::from)?
            > 1e-6
        {
            return Err(CoreError::InvalidConfig {
                reason: "expected matrix must fix the all-ones vector (conserve mass)".into(),
            });
        }
        let eigen = SymmetricEigen::compute(expected).map_err(gossip_graph::GraphError::from)?;
        let eigenvalues = eigen.eigenvalues();
        let lambda_min = eigenvalues[0];
        // The largest eigenvalue is 1 (all-ones); λ₂ is the largest of the rest.
        let lambda2 = eigenvalues[..eigenvalues.len() - 1]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(GossipMatrixAnalysis {
            node_count: n,
            edge_count: graph.edge_count(),
            lambda2,
            lambda_min,
            spectral_gap: 1.0 - lambda2,
        })
    }

    /// Boyd-style ε-averaging time in *ticks*:
    /// `3·log ε⁻¹ / log(1/λ₂(W̄))`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `ε ∉ (0, 1)`.
    pub fn epsilon_averaging_ticks(&self, epsilon: f64) -> Result<f64> {
        if !(0.0 < epsilon && epsilon < 1.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("epsilon must lie in (0, 1), got {epsilon}"),
            });
        }
        if self.lambda2 >= 1.0 {
            return Ok(f64::INFINITY);
        }
        Ok(3.0 * (1.0 / epsilon).ln() / (1.0 / self.lambda2.max(f64::MIN_POSITIVE)).ln())
    }

    /// The same quantity converted to the paper's absolute time (ticks arrive
    /// at aggregate rate `|E|`).
    ///
    /// # Errors
    ///
    /// See [`Self::epsilon_averaging_ticks`].
    pub fn epsilon_averaging_time(&self, epsilon: f64) -> Result<f64> {
        Ok(self.epsilon_averaging_ticks(epsilon)? / self.edge_count as f64)
    }

    /// Upper bound on the spectral gap of `W̄` implied by a two-block
    /// partition, via the Rayleigh quotient of the cut indicator vector:
    /// `gap ≤ |E₁₂|·n / (2·|E|·n₁·n₂)`.
    ///
    /// Small cut ⇒ small gap ⇒ large Boyd-style averaging time: the
    /// matrix-analytic version of Theorem 1.
    pub fn gap_upper_bound_from_cut(&self, partition: &Partition) -> f64 {
        let n1 = partition.block_one_size() as f64;
        let n2 = partition.block_two_size() as f64;
        let n = self.node_count as f64;
        partition.cut_edge_count() as f64 * n / (2.0 * self.edge_count as f64 * n1 * n2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, dumbbell, path};

    #[test]
    fn vanilla_analysis_on_complete_graph() {
        let n = 8;
        let g = complete(n).unwrap();
        let analysis = GossipMatrixAnalysis::vanilla(&g).unwrap();
        assert_eq!(analysis.node_count, n);
        assert_eq!(analysis.edge_count, n * (n - 1) / 2);
        // W̄ = I − L/(2|E|); for K_n the non-trivial eigenvalues are
        // 1 − n/(2|E|) = 1 − 1/(n−1).
        let expected_lambda2 = 1.0 - 1.0 / (n as f64 - 1.0);
        assert!((analysis.lambda2 - expected_lambda2).abs() < 1e-9);
        assert!((analysis.spectral_gap - 1.0 / (n as f64 - 1.0)).abs() < 1e-9);
        assert!(analysis.lambda_min > -1.0);
    }

    #[test]
    fn rejects_edgeless_and_bad_matrices() {
        let edgeless = gossip_graph::Graph::from_edges(3, &[]).unwrap();
        assert!(GossipMatrixAnalysis::vanilla(&edgeless).is_err());

        let g = path(3).unwrap();
        let wrong_size = Matrix::identity(2);
        assert!(GossipMatrixAnalysis::from_expected_matrix(&g, &wrong_size).is_err());
        let asymmetric = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert!(GossipMatrixAnalysis::from_expected_matrix(&g, &asymmetric).is_err());
        // Symmetric but does not fix the ones vector.
        let not_stochastic = Matrix::from_diagonal(&[0.5, 0.5, 0.5]);
        assert!(GossipMatrixAnalysis::from_expected_matrix(&g, &not_stochastic).is_err());
    }

    #[test]
    fn epsilon_averaging_time_validation_and_monotonicity() {
        let g = complete(6).unwrap();
        let analysis = GossipMatrixAnalysis::vanilla(&g).unwrap();
        assert!(analysis.epsilon_averaging_ticks(0.0).is_err());
        assert!(analysis.epsilon_averaging_ticks(1.0).is_err());
        let loose = analysis.epsilon_averaging_ticks(0.1).unwrap();
        let tight = analysis.epsilon_averaging_ticks(0.001).unwrap();
        assert!(tight > loose);
        assert!(loose > 0.0);
        let absolute = analysis.epsilon_averaging_time(0.1).unwrap();
        assert!((absolute - loose / g.edge_count() as f64).abs() < 1e-12);
    }

    #[test]
    fn dumbbell_has_tiny_gap_and_huge_boyd_time() {
        let (small_g, small_p) = dumbbell(8).unwrap();
        let (large_g, large_p) = dumbbell(32).unwrap();
        let small = GossipMatrixAnalysis::vanilla(&small_g).unwrap();
        let large = GossipMatrixAnalysis::vanilla(&large_g).unwrap();
        // The spectral gap shrinks as the dumbbell grows…
        assert!(large.spectral_gap < small.spectral_gap);
        // …and the cut-based upper bound on the gap is respected.
        assert!(small.spectral_gap <= small.gap_upper_bound_from_cut(&small_p) + 1e-9);
        assert!(large.spectral_gap <= large.gap_upper_bound_from_cut(&large_p) + 1e-9);
        // The Boyd-style absolute averaging time therefore grows with n,
        // consistent with Theorem 1.
        let t_small = small.epsilon_averaging_time(0.135).unwrap();
        let t_large = large.epsilon_averaging_time(0.135).unwrap();
        assert!(t_large > t_small);
        assert!(t_large > 0.5 * large_p.theorem1_ratio());
    }

    #[test]
    fn boyd_estimate_tracks_empirical_vanilla_time_on_dumbbell() {
        use crate::averaging_time::{AveragingTimeEstimator, EstimatorConfig};
        use crate::convex::VanillaGossip;

        let (graph, partition) = dumbbell(8).unwrap();
        let analysis = GossipMatrixAnalysis::vanilla(&graph).unwrap();
        let predicted = analysis.epsilon_averaging_time(0.135).unwrap();
        let estimator = AveragingTimeEstimator::new(
            EstimatorConfig::new(3).with_runs(4).with_max_time(5_000.0),
        );
        let measured = estimator
            .estimate(&graph, &partition, VanillaGossip::new)
            .unwrap()
            .averaging_time;
        // The closed form and the measurement agree within an order of
        // magnitude (the formula has a factor-3 style constant in it).
        assert!(
            measured < 10.0 * predicted && predicted < 10.0 * measured,
            "Boyd estimate {predicted} vs measured {measured}"
        );
    }
}
