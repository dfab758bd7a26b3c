//! Bounded-degree sparse-cut families for the large-`n` scaling tier.
//!
//! The paper's motivating dumbbell joins two *cliques*, which is fine at a
//! few hundred nodes but inherently O(n²) edges — a 10 000-node clique
//! dumbbell has 25 million edges, defeating the whole point of a sparse
//! representation.  The scaling tier therefore swaps each clique for a
//! **chordal ring**: a cycle plus chords at every power-of-two offset, a
//! deterministic bounded-degree (≈ 2·log₂ n) construction with O(log n)
//! diameter, so each block remains "internally well connected" in the
//! paper's sense while the whole graph keeps O(n log n) edges.
//!
//! Like the families in [`super::sparse_cut`], every generator returns the
//! graph *and* its canonical [`Partition`], with block one on the nodes
//! `0..n₁`.

use super::block_one_partition;
use crate::{Graph, GraphBuilder, GraphError, Partition, Result};

/// Adds a chordal ring on the node range `offset..offset + n` to `builder`:
/// the cycle through the range plus, for every node, chords at offsets
/// `2, 4, 8, …` (each at most `n/2`).
///
/// Each pair is added once.  Offsets below `n/2` give chords of distinct
/// lengths, none repeated; a chord at offset exactly `n/2` joins antipodes,
/// which node `i` and node `i + n/2` would both add, so only the first half
/// of the nodes adds it.
fn add_chordal_ring(builder: &mut GraphBuilder, offset: usize, n: usize) -> Result<()> {
    for i in 0..n {
        builder.add_edge(offset + i, offset + (i + 1) % n)?;
    }
    let mut jump = 2usize;
    while jump <= n / 2 {
        let sources = if 2 * jump == n { n / 2 } else { n };
        for i in 0..sources {
            builder.add_edge(offset + i, offset + (i + jump) % n)?;
        }
        jump *= 2;
    }
    Ok(())
}

/// A chordal ring on `n` nodes: the cycle `0 − 1 − … − (n−1) − 0` plus a
/// chord from every node `i` to `i + 2^j (mod n)` for every power of two
/// `2^j ≤ n/2`.
///
/// Degree is ≈ `2·log₂ n`, the diameter is O(log n), and the construction is
/// deterministic — no seeds, no rejection sampling — which makes it the
/// scaling tier's stand-in for a clique.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn chordal_ring(n: usize) -> Result<Graph> {
    if n < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("chordal ring requires n >= 3, got {n}"),
        });
    }
    let mut builder = GraphBuilder::new(n);
    add_chordal_ring(&mut builder, 0, n)?;
    builder.build()
}

/// The scaling tier's dumbbell: two chordal rings of `half` nodes joined by
/// a single bridge edge `(half − 1, half)`, mirroring the labelling of the
/// clique dumbbell ([`super::sparse_cut::dumbbell`]).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `half < 3`.
pub fn expander_dumbbell(half: usize) -> Result<(Graph, Partition)> {
    expander_barbell(half, half)
}

/// Asymmetric variant of [`expander_dumbbell`]: chordal rings on `left` and
/// `right` nodes joined by the bridge `(left − 1, left)`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side has fewer than
/// three nodes.
pub fn expander_barbell(left: usize, right: usize) -> Result<(Graph, Partition)> {
    if left < 3 || right < 3 {
        return Err(GraphError::InvalidParameter {
            reason: format!("expander barbell requires both sides >= 3, got {left} and {right}"),
        });
    }
    let mut builder = GraphBuilder::new(left + right);
    add_chordal_ring(&mut builder, 0, left)?;
    add_chordal_ring(&mut builder, left, right)?;
    builder.add_edge(left - 1, left)?;
    let graph = builder.build()?;
    let partition = block_one_partition(&graph, left)?;
    Ok((graph, partition))
}

/// A ring of `cliques` cliques of `clique_size` nodes each: consecutive
/// cliques are joined by a single link edge, and the ring is closed by one
/// more link from the last clique back to the first.
///
/// The canonical partition splits the ring into two contiguous arcs of
/// cliques, so the cut always has exactly two edges while both blocks are
/// internally connected chains of cliques.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `cliques < 2` or
/// `clique_size < 2`.
pub fn ring_of_cliques(cliques: usize, clique_size: usize) -> Result<(Graph, Partition)> {
    if cliques < 2 || clique_size < 2 {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "ring of cliques requires >= 2 cliques of >= 2 nodes, got {cliques} x {clique_size}"
            ),
        });
    }
    let n = cliques * clique_size;
    let mut builder = GraphBuilder::new(n);
    for c in 0..cliques {
        let base = c * clique_size;
        for i in 0..clique_size {
            for j in (i + 1)..clique_size {
                builder.add_edge(base + i, base + j)?;
            }
        }
    }
    // Link edges: last node of clique c to first node of clique c + 1, plus
    // the closing link from the last clique back to node 0.
    for c in 0..cliques - 1 {
        builder.add_edge(c * clique_size + clique_size - 1, (c + 1) * clique_size)?;
    }
    builder.add_edge(n - 1, 0)?;
    let graph = builder.build()?;
    let block_one_cliques = cliques.div_ceil(2);
    let partition = block_one_partition(&graph, block_one_cliques * clique_size)?;
    Ok((graph, partition))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use crate::NodeId;
    use proptest::prelude::*;

    #[test]
    fn chordal_ring_structure() {
        let g = chordal_ring(16).unwrap();
        assert_eq!(g.node_count(), 16);
        assert!(is_connected(&g));
        // Ring (16 edges) + chords at offsets 2, 4, 8.  Offset 8 pairs nodes
        // antipodally, so those chords are counted once each.
        assert_eq!(g.edge_count(), 16 + 16 + 16 + 8);
        // Every node sees offsets ±1, ±2, ±4 and 8: degree 7.
        for v in g.nodes() {
            assert_eq!(g.degree(v), 7);
        }
        assert!(chordal_ring(2).is_err());
    }

    #[test]
    fn chordal_ring_diameter_is_logarithmic() {
        let g = chordal_ring(256).unwrap();
        let ecc = crate::traversal::eccentricity(&g, NodeId(0)).unwrap();
        assert!(ecc <= 16, "eccentricity {ecc} too large for a chordal ring");
    }

    #[test]
    fn expander_dumbbell_structure() {
        let (g, p) = expander_dumbbell(32).unwrap();
        assert_eq!(g.node_count(), 64);
        assert!(is_connected(&g));
        assert_eq!(p.cut_edge_count(), 1);
        assert_eq!(p.smaller_block_size(), 32);
        let bridge = g.edge(p.cut_edges()[0]).unwrap();
        assert_eq!(bridge.endpoints(), (NodeId(31), NodeId(32)));
        assert!(p.require_blocks_connected(&g).is_ok());
        assert!(expander_dumbbell(2).is_err());
    }

    #[test]
    fn expander_barbell_asymmetric() {
        let (g, p) = expander_barbell(8, 20).unwrap();
        assert_eq!(g.node_count(), 28);
        assert_eq!(p.smaller_block_size(), 8);
        assert_eq!(p.larger_block_size(), 20);
        assert_eq!(p.cut_edge_count(), 1);
        assert!(p.require_blocks_connected(&g).is_ok());
        assert!(expander_barbell(2, 20).is_err());
        assert!(expander_barbell(20, 2).is_err());
    }

    #[test]
    fn ring_of_cliques_structure() {
        let (g, p) = ring_of_cliques(6, 5).unwrap();
        assert_eq!(g.node_count(), 30);
        assert!(is_connected(&g));
        // 6 cliques of C(5,2) = 10 edges plus 6 link edges.
        assert_eq!(g.edge_count(), 6 * 10 + 6);
        assert_eq!(p.cut_edge_count(), 2);
        assert_eq!(p.block_one_size(), 15);
        assert!(p.require_blocks_connected(&g).is_ok());
        assert!(ring_of_cliques(1, 5).is_err());
        assert!(ring_of_cliques(5, 1).is_err());
    }

    #[test]
    fn ring_of_cliques_two_clique_degenerate_ring() {
        let (g, p) = ring_of_cliques(2, 4).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(p.cut_edge_count(), 2);
        assert!(p.require_blocks_connected(&g).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_expander_dumbbell_single_cut(half in 3usize..40) {
            let (g, p) = expander_dumbbell(half).unwrap();
            prop_assert_eq!(p.cut_edge_count(), 1);
            prop_assert_eq!(g.node_count(), 2 * half);
            prop_assert!(is_connected(&g));
        }

        #[test]
        fn prop_ring_of_cliques_cut_is_two(cliques in 2usize..8, size in 2usize..6) {
            let (g, p) = ring_of_cliques(cliques, size).unwrap();
            prop_assert_eq!(p.cut_edge_count(), 2);
            prop_assert!(is_connected(&g));
            prop_assert!(p.require_blocks_connected(&g).is_ok());
        }

        #[test]
        fn prop_chordal_ring_degree_is_logarithmic(n in 3usize..200) {
            let g = chordal_ring(n).unwrap();
            let bound = 2 * (usize::BITS - n.leading_zeros()) as usize + 2;
            prop_assert!(g.max_degree() <= bound,
                "degree {} exceeds 2·log bound {bound} at n = {n}", g.max_degree());
        }
    }
}
