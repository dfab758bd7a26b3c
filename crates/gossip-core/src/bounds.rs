//! Closed-form quantities from the paper: the Theorem 1 lower bound for
//! convex algorithms, the Theorem 2 upper bound for Algorithm A, spectral
//! estimates of the vanilla averaging time `T_van`, and Algorithm A's epoch
//! length.
//!
//! All times are expressed in the paper's absolute time (every edge carries a
//! rate-1 Poisson clock), so they are directly comparable with the
//! `elapsed_time` reported by the asynchronous simulator.

use crate::Result;
use gossip_graph::partition::Block;
use gossip_graph::spectral::SpectralProfile;
use gossip_graph::{Graph, Partition};

/// Theorem 1: every convex algorithm needs at least (a constant times)
/// `min(n₁, n₂) / |E₁₂|` absolute time to average.
///
/// Returns `f64::INFINITY` when the cut is empty.
pub fn theorem1_lower_bound(partition: &Partition) -> f64 {
    partition.theorem1_ratio()
}

/// Theorem 1 from raw parameters.
///
/// Returns `f64::INFINITY` when `cut_edges == 0`.
pub fn theorem1_lower_bound_raw(n1: usize, n2: usize, cut_edges: usize) -> f64 {
    if cut_edges == 0 {
        f64::INFINITY
    } else {
        n1.min(n2) as f64 / cut_edges as f64
    }
}

/// Theorem 2: Algorithm A's averaging time is
/// `O(log n · (T_van(G₁) + T_van(G₂)))`.  This helper returns
/// `epoch_constant · ln n · t_van_sum`, the same quantity Algorithm A uses for
/// its epoch length, which is the natural per-epoch time unit of the bound.
pub fn theorem2_upper_bound(epoch_constant: f64, t_van_sum: f64, n: usize) -> f64 {
    epoch_constant * t_van_sum * (n.max(2) as f64).ln()
}

/// Spectral estimate of the vanilla averaging time of a standalone connected
/// graph, in absolute time:
/// `T_van ≈ (2 + ln n) / (gap · |E|)` where `gap = λ₂(L)/(2|E|)` is the
/// spectral gap of the expected single-tick matrix `W̄ = I − L/(2|E|)`.
///
/// # Errors
///
/// Propagates [`gossip_graph::GraphError`] for degenerate or disconnected
/// graphs.
pub fn t_van_spectral(graph: &Graph) -> Result<f64> {
    let profile = SpectralProfile::compute(graph)?;
    Ok(profile.vanilla_averaging_time_estimate())
}

/// Spectral estimate of `T_van` for one block of a partition, computed on the
/// induced subgraph.
///
/// A single-node block trivially has `T_van = 0`.
///
/// # Errors
///
/// Propagates [`gossip_graph::GraphError`], notably
/// [`gossip_graph::GraphError::Disconnected`] when the block does not induce
/// a connected subgraph (the paper's Notation 1 requires it to).
pub fn t_van_spectral_block(graph: &Graph, partition: &Partition, block: Block) -> Result<f64> {
    let nodes = partition.block(block);
    if nodes.len() <= 1 {
        return Ok(0.0);
    }
    let (subgraph, _) = graph.induced_subgraph(nodes)?;
    t_van_spectral(&subgraph)
}

/// Algorithm A's epoch length in ticks of the designated edge:
/// `max(1, ⌈C · t_van_sum · ln n⌉)`.
pub fn epoch_length_ticks(epoch_constant: f64, t_van_sum: f64, n: f64) -> u64 {
    let raw = epoch_constant * t_van_sum * n.max(2.0).ln();
    raw.ceil().max(1.0) as u64
}

/// Everything the experiment harness reports about an instance's theoretical
/// quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsSummary {
    /// Number of nodes `n`.
    pub n: usize,
    /// Smaller block size `n₁`.
    pub n1: usize,
    /// Larger block size `n₂`.
    pub n2: usize,
    /// Cut size `|E₁₂|`.
    pub cut_edges: usize,
    /// Theorem 1 lower-bound quantity `min(n₁,n₂)/|E₁₂|`.
    pub convex_lower_bound: f64,
    /// Spectral `T_van(G₁)` estimate.
    pub t_van_block_one: f64,
    /// Spectral `T_van(G₂)` estimate.
    pub t_van_block_two: f64,
    /// Theorem 2 quantity `C·ln n·(T_van(G₁)+T_van(G₂))` with `C` as given.
    pub theorem2_upper_bound: f64,
    /// The epoch constant used for the Theorem 2 quantity.
    pub epoch_constant: f64,
}

impl BoundsSummary {
    /// Computes the summary for a partitioned graph.
    ///
    /// # Errors
    ///
    /// Propagates spectral-estimation failures (e.g. disconnected blocks).
    pub fn compute(graph: &Graph, partition: &Partition, epoch_constant: f64) -> Result<Self> {
        let t1 = t_van_spectral_block(graph, partition, Block::One)?;
        let t2 = t_van_spectral_block(graph, partition, Block::Two)?;
        Ok(BoundsSummary {
            n: graph.node_count(),
            n1: partition.smaller_block_size(),
            n2: partition.larger_block_size(),
            cut_edges: partition.cut_edge_count(),
            convex_lower_bound: theorem1_lower_bound(partition),
            t_van_block_one: t1,
            t_van_block_two: t2,
            theorem2_upper_bound: theorem2_upper_bound(epoch_constant, t1 + t2, graph.node_count()),
            epoch_constant,
        })
    }

    /// Ratio of the Theorem 1 lower bound to the Theorem 2 upper bound — the
    /// predicted speed-up of Algorithm A over any convex algorithm on this
    /// instance.
    pub fn predicted_speedup(&self) -> f64 {
        if self.theorem2_upper_bound <= 0.0 {
            f64::INFINITY
        } else {
            self.convex_lower_bound / self.theorem2_upper_bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{bridged_clusters, complete, dumbbell, path};
    use proptest::prelude::*;

    #[test]
    fn theorem1_values() {
        let (_, p) = dumbbell(16).unwrap();
        assert!((theorem1_lower_bound(&p) - 16.0).abs() < 1e-12);
        assert!((theorem1_lower_bound_raw(10, 20, 5) - 2.0).abs() < 1e-12);
        assert!(theorem1_lower_bound_raw(10, 20, 0).is_infinite());
    }

    #[test]
    fn theorem1_scales_inversely_with_cut_size() {
        let a = theorem1_lower_bound_raw(32, 32, 1);
        let b = theorem1_lower_bound_raw(32, 32, 4);
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn t_van_spectral_complete_graph_shrinks_with_n() {
        // For K_m, T_van ≈ (2 + ln m)·2/m decreases with m.
        let t8 = t_van_spectral(&complete(8).unwrap()).unwrap();
        let t32 = t_van_spectral(&complete(32).unwrap()).unwrap();
        assert!(t8 > 0.0);
        assert!(t32 < t8);
        // And the closed form matches within a small factor.
        let expected = (2.0 + 8.0f64.ln()) * 2.0 / 8.0;
        assert!((t8 - expected).abs() < 1e-9);
    }

    #[test]
    fn t_van_spectral_path_grows_with_n() {
        let t8 = t_van_spectral(&path(8).unwrap()).unwrap();
        let t32 = t_van_spectral(&path(32).unwrap()).unwrap();
        assert!(t32 > t8);
    }

    #[test]
    fn t_van_block_estimates() {
        let (g, p) = dumbbell(8).unwrap();
        let t1 = t_van_spectral_block(&g, &p, Block::One).unwrap();
        let t2 = t_van_spectral_block(&g, &p, Block::Two).unwrap();
        // Both blocks are K_8, so the estimates agree.
        assert!((t1 - t2).abs() < 1e-9);
        assert!(t1 > 0.0);
        // A single-node block has T_van = 0.
        let (g2, p2) = bridged_clusters(1, 5, 1, 0.9, 3).unwrap();
        assert_eq!(t_van_spectral_block(&g2, &p2, Block::One).unwrap(), 0.0);
        let t_big = t_van_spectral_block(&g2, &p2, Block::Two).unwrap();
        assert!(t_big > 0.0);
    }

    #[test]
    fn t_van_block_rejects_disconnected_block() {
        // Path 0-1-2-3 with blocks {0, 2} / {1, 3}: both blocks disconnected.
        let g = gossip_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let p = Partition::from_block_one(&g, &[gossip_graph::NodeId(0), gossip_graph::NodeId(2)])
            .unwrap();
        assert!(t_van_spectral_block(&g, &p, Block::One).is_err());
    }

    #[test]
    fn epoch_length_is_at_least_one_tick() {
        assert_eq!(epoch_length_ticks(4.0, 0.0001, 16.0), 1);
        assert_eq!(
            epoch_length_ticks(4.0, 1.0, 16.0),
            (4.0f64 * 16.0f64.ln()).ceil() as u64
        );
        assert!(epoch_length_ticks(1.0, 10.0, 1024.0) > 1);
    }

    #[test]
    fn theorem2_upper_bound_monotone_in_inputs() {
        let a = theorem2_upper_bound(4.0, 1.0, 64);
        let b = theorem2_upper_bound(4.0, 2.0, 64);
        let c = theorem2_upper_bound(4.0, 1.0, 4096);
        assert!(b > a);
        assert!(c > a);
    }

    #[test]
    fn bounds_summary_on_dumbbell() {
        let (g, p) = dumbbell(16).unwrap();
        let s = BoundsSummary::compute(&g, &p, 4.0).unwrap();
        assert_eq!(s.n, 32);
        assert_eq!(s.n1, 16);
        assert_eq!(s.n2, 16);
        assert_eq!(s.cut_edges, 1);
        assert!((s.convex_lower_bound - 16.0).abs() < 1e-12);
        assert!(s.t_van_block_one > 0.0);
        assert!(s.theorem2_upper_bound > 0.0);
        // At n = 32 with the conservative C = 4 the predicted speed-up is
        // around one (the crossover point); it grows quickly with n, which
        // the next test checks.
        assert!(s.predicted_speedup() > 0.5);
        let large = BoundsSummary::compute(&dumbbell(64).unwrap().0, &dumbbell(64).unwrap().1, 4.0)
            .unwrap();
        assert!(large.predicted_speedup() > 2.0);
    }

    #[test]
    fn predicted_speedup_grows_with_n_on_dumbbell() {
        let small =
            BoundsSummary::compute(&dumbbell(8).unwrap().0, &dumbbell(8).unwrap().1, 4.0).unwrap();
        let large = BoundsSummary::compute(&dumbbell(64).unwrap().0, &dumbbell(64).unwrap().1, 4.0)
            .unwrap();
        assert!(large.predicted_speedup() > small.predicted_speedup());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_theorem1_matches_partition_ratio(half in 2usize..20) {
            let (_, p) = dumbbell(half).unwrap();
            prop_assert!((theorem1_lower_bound(&p)
                - theorem1_lower_bound_raw(half, half, 1)).abs() < 1e-12);
        }

        #[test]
        fn prop_epoch_length_monotone_in_constant(c in 1.0f64..20.0, t in 0.01f64..5.0) {
            let small = epoch_length_ticks(c, t, 64.0);
            let large = epoch_length_ticks(2.0 * c, t, 64.0);
            prop_assert!(large >= small);
        }
    }
}
