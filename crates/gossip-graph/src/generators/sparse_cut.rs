//! Graphs with a designated sparse cut — the setting of the paper.
//!
//! Every generator here returns the graph *and* its canonical
//! [`Partition`], so downstream code knows `V₁`, `V₂`, and `E₁₂` exactly as
//! Notation 1 of the paper assumes.  Node labelling follows the paper's
//! convention: the vertices of `G₁` are `0..n₁` and those of `G₂` are
//! `n₁..n`, so for the single-bridge families the designated cut edge `e_c`
//! joins node `n₁ − 1` to node `n₁`.

use super::block_one_partition;
use crate::{Graph, GraphBuilder, GraphError, Partition, Result};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The paper's motivating example: two complete graphs `K_half` joined by a
/// single bridge edge between node `half − 1` and node `half`.
///
/// The convex lower bound on this graph is `Ω(n)` while Algorithm A achieves
/// `O(log² n)`, so this is the canonical separation instance.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `half < 2` (each side must be a
/// connected clique on at least two nodes for the construction to be
/// meaningful).
pub fn dumbbell(half: usize) -> Result<(Graph, Partition)> {
    barbell(half, half)
}

/// Generalized dumbbell: a clique on `left` nodes and a clique on `right`
/// nodes joined by a single bridge edge `(left − 1, left)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side has fewer than two
/// nodes.
pub fn barbell(left: usize, right: usize) -> Result<(Graph, Partition)> {
    if left < 2 || right < 2 {
        return Err(GraphError::InvalidParameter {
            reason: format!("barbell requires both sides >= 2, got {left} and {right}"),
        });
    }
    let n = left + right;
    let mut builder = GraphBuilder::new(n);
    for i in 0..left {
        for j in (i + 1)..left {
            builder.add_edge(i, j)?;
        }
    }
    for i in left..n {
        for j in (i + 1)..n {
            builder.add_edge(i, j)?;
        }
    }
    builder.add_edge(left - 1, left)?;
    let graph = builder.build()?;
    let partition = block_one_partition(&graph, left)?;
    Ok((graph, partition))
}

/// Two connected Erdős–Rényi clusters `G(n1, p)` and `G(n2, p)` joined by
/// `bridges` edges.
///
/// The bridge endpoints are chosen uniformly at random without repeating an
/// edge.  The clusters are resampled until connected, so the result always
/// satisfies the paper's Notation 1.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for empty clusters, out-of-range
/// `p`, zero bridges, or more bridges than distinct cross pairs, and
/// [`GraphError::Disconnected`] if connected cluster samples cannot be found.
pub fn bridged_clusters(
    n1: usize,
    n2: usize,
    bridges: usize,
    p: f64,
    seed: u64,
) -> Result<(Graph, Partition)> {
    if n1 == 0 || n2 == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "bridged clusters require non-empty sides".into(),
        });
    }
    if bridges == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "at least one bridge edge is required".into(),
        });
    }
    if bridges > n1 * n2 {
        return Err(GraphError::InvalidParameter {
            reason: format!("cannot place {bridges} distinct bridges between {n1} and {n2} nodes"),
        });
    }
    let g1 = super::random::erdos_renyi_connected(n1, p, seed, 200)?;
    let g2 = super::random::erdos_renyi_connected(n2, p, seed.wrapping_add(0x9E37_79B9), 200)?;

    let n = n1 + n2;
    let mut builder = GraphBuilder::new(n);
    for e in g1.edges() {
        builder.add_edge(e.u().index(), e.v().index())?;
    }
    for e in g2.edges() {
        builder.add_edge(n1 + e.u().index(), n1 + e.v().index())?;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0xB55A_4BE5));
    // Bridges cross the cut, so only an earlier bridge can repeat one.
    let mut placed = BTreeSet::new();
    while placed.len() < bridges {
        let a = rng.gen_range(0..n1);
        let b = n1 + rng.gen_range(0..n2);
        if placed.insert((a, b)) {
            builder.add_edge(a, b)?;
        }
    }
    let graph = builder.build()?;
    let partition = block_one_partition(&graph, n1)?;
    Ok((graph, partition))
}

/// Two-block stochastic block model: within-block edges appear with
/// probability `p_in`, cross-block edges with probability `p_out`.
///
/// The sample is conditioned (by resampling with shifted seeds) on both
/// blocks being internally connected and at least one cross edge existing.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for empty blocks or out-of-range
/// probabilities and [`GraphError::Disconnected`] if no valid sample is found
/// within the retry budget.
pub fn two_block_sbm(
    n1: usize,
    n2: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<(Graph, Partition)> {
    if n1 == 0 || n2 == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "SBM requires non-empty blocks".into(),
        });
    }
    for (name, p) in [("p_in", p_in), ("p_out", p_out)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(GraphError::InvalidParameter {
                reason: format!("{name} must lie in [0, 1], got {p}"),
            });
        }
    }
    const MAX_ATTEMPTS: usize = 200;
    let n = n1 + n2;
    for attempt in 0..MAX_ATTEMPTS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(attempt as u64));
        let mut builder = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let same_block = (i < n1) == (j < n1);
                let p = if same_block { p_in } else { p_out };
                if rng.gen::<f64>() < p {
                    builder.add_edge(i, j)?;
                }
            }
        }
        let graph = builder.build()?;
        let partition = match block_one_partition(&graph, n1) {
            Ok(p) => p,
            Err(_) => continue,
        };
        if partition.cut_edge_count() == 0 {
            continue;
        }
        if (n1 > 1 || n2 > 1) && partition.require_blocks_connected(&graph).is_err() {
            continue;
        }
        return Ok((graph, partition));
    }
    Err(GraphError::Disconnected)
}

/// Two `rows × cols` grids joined by `corridor_width` horizontal edges between
/// their facing columns.
///
/// This models the "sensor field with a narrow corridor" workload: both sides
/// are well connected internally (2-D grids) while only `corridor_width ≤
/// rows` edges cross between them.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if any dimension is zero or
/// `corridor_width` is zero or exceeds `rows`.
pub fn grid_corridor(
    rows: usize,
    cols: usize,
    corridor_width: usize,
) -> Result<(Graph, Partition)> {
    if rows == 0 || cols == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "grid corridor requires positive dimensions".into(),
        });
    }
    if corridor_width == 0 || corridor_width > rows {
        return Err(GraphError::InvalidParameter {
            reason: format!("corridor width must lie in 1..={rows}, got {corridor_width}"),
        });
    }
    let side = rows * cols;
    let n = 2 * side;
    let mut builder = GraphBuilder::new(n);
    // Internal grid edges for both sides; right side indices offset by `side`.
    for offset in [0, side] {
        for r in 0..rows {
            for c in 0..cols {
                let idx = offset + r * cols + c;
                if c + 1 < cols {
                    builder.add_edge(idx, idx + 1)?;
                }
                if r + 1 < rows {
                    builder.add_edge(idx, idx + cols)?;
                }
            }
        }
    }
    // Corridor: connect the last column of the left grid to the first column
    // of the right grid on the first `corridor_width` rows.
    for r in 0..corridor_width {
        let left_node = r * cols + (cols - 1);
        let right_node = side + r * cols;
        builder.add_edge(left_node, right_node)?;
    }
    let graph = builder.build()?;
    let partition = block_one_partition(&graph, side)?;
    Ok((graph, partition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use crate::NodeId;
    use proptest::prelude::*;

    #[test]
    fn dumbbell_structure() {
        let (g, p) = dumbbell(8).unwrap();
        assert_eq!(g.node_count(), 16);
        // Two K_8 (28 edges each) plus one bridge.
        assert_eq!(g.edge_count(), 2 * 28 + 1);
        assert!(is_connected(&g));
        assert_eq!(p.cut_edge_count(), 1);
        assert_eq!(p.smaller_block_size(), 8);
        assert_eq!(p.larger_block_size(), 8);
        let bridge = g.edge(p.cut_edges()[0]).unwrap();
        assert_eq!(bridge.endpoints(), (NodeId(7), NodeId(8)));
        assert!(p.require_blocks_connected(&g).is_ok());
        assert!((p.theorem1_ratio() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn dumbbell_rejects_tiny_sides() {
        assert!(dumbbell(1).is_err());
        assert!(barbell(2, 1).is_err());
        assert!(barbell(1, 2).is_err());
    }

    #[test]
    fn barbell_asymmetric() {
        let (g, p) = barbell(3, 10).unwrap();
        assert_eq!(g.node_count(), 13);
        assert_eq!(g.edge_count(), 3 + 45 + 1);
        assert_eq!(p.smaller_block_size(), 3);
        assert_eq!(p.larger_block_size(), 10);
        assert_eq!(p.cut_edge_count(), 1);
        // Normalized convention: the paper's n1 is the smaller side.
        assert!((p.theorem1_ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn bridged_clusters_structure() {
        let (g, p) = bridged_clusters(12, 15, 4, 0.5, 7).unwrap();
        assert_eq!(g.node_count(), 27);
        assert!(is_connected(&g));
        assert_eq!(p.cut_edge_count(), 4);
        assert_eq!(p.block_one_size(), 12);
        assert_eq!(p.block_two_size(), 15);
        assert!(p.require_blocks_connected(&g).is_ok());
        // Cut edges really cross.
        for &e in p.cut_edges() {
            let edge = g.edge(e).unwrap();
            assert!(p.is_cut_edge(&edge));
        }
    }

    #[test]
    fn bridged_clusters_reproducible_and_validated() {
        let a = bridged_clusters(8, 8, 2, 0.6, 42).unwrap();
        let b = bridged_clusters(8, 8, 2, 0.6, 42).unwrap();
        assert_eq!(a.0, b.0);
        assert!(bridged_clusters(0, 5, 1, 0.5, 1).is_err());
        assert!(bridged_clusters(5, 5, 0, 0.5, 1).is_err());
        assert!(bridged_clusters(2, 2, 5, 0.5, 1).is_err());
    }

    #[test]
    fn sbm_structure() {
        let (g, p) = two_block_sbm(10, 14, 0.7, 0.05, 123).unwrap();
        assert_eq!(g.node_count(), 24);
        assert!(p.cut_edge_count() >= 1);
        assert!(p.require_blocks_connected(&g).is_ok());
        assert_eq!(p.block_one_size(), 10);
        // The cut should be much sparser than the blocks are dense.
        assert!(p.conductance() < 0.5);
    }

    #[test]
    fn sbm_rejects_bad_parameters() {
        assert!(two_block_sbm(0, 5, 0.5, 0.1, 1).is_err());
        assert!(two_block_sbm(5, 5, 1.5, 0.1, 1).is_err());
        assert!(two_block_sbm(5, 5, 0.5, -0.1, 1).is_err());
        // p_out = 0 can never produce a cut edge.
        assert!(matches!(
            two_block_sbm(4, 4, 1.0, 0.0, 1),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn grid_corridor_structure() {
        let (g, p) = grid_corridor(4, 3, 2).unwrap();
        assert_eq!(g.node_count(), 24);
        assert!(is_connected(&g));
        assert_eq!(p.cut_edge_count(), 2);
        assert_eq!(p.block_one_size(), 12);
        assert!(p.require_blocks_connected(&g).is_ok());
        // Internal edges per side: rows*(cols-1) + cols*(rows-1) = 4*2+3*3 = 17.
        assert_eq!(g.edge_count(), 2 * 17 + 2);
    }

    #[test]
    fn grid_corridor_rejects_bad_widths() {
        assert!(grid_corridor(0, 3, 1).is_err());
        assert!(grid_corridor(3, 0, 1).is_err());
        assert!(grid_corridor(3, 3, 0).is_err());
        assert!(grid_corridor(3, 3, 4).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_dumbbell_cut_is_single_edge(half in 2usize..20) {
            let (g, p) = dumbbell(half).unwrap();
            prop_assert_eq!(p.cut_edge_count(), 1);
            prop_assert_eq!(g.node_count(), 2 * half);
            prop_assert_eq!(p.smaller_block_size(), half);
            prop_assert!(is_connected(&g));
        }

        #[test]
        fn prop_bridged_clusters_cut_size(bridges in 1usize..6, seed in 0u64..20) {
            let (g, p) = bridged_clusters(8, 9, bridges, 0.6, seed).unwrap();
            prop_assert_eq!(p.cut_edge_count(), bridges);
            prop_assert!(is_connected(&g));
        }

        #[test]
        fn prop_grid_corridor_cut_width(width in 1usize..5) {
            let (_, p) = grid_corridor(5, 4, width).unwrap();
            prop_assert_eq!(p.cut_edge_count(), width);
        }
    }
}
