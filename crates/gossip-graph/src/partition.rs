//! Two-block vertex partitions and their cuts.
//!
//! The paper's setting (Notation 1) is a connected graph `G` partitioned into
//! connected subgraphs `G₁ = (V₁, E₁)` and `G₂ = (V₂, E₂)` with cut edges
//! `E₁₂`.  [`Partition`] captures exactly that decomposition for a concrete
//! [`Graph`], exposes `n₁ = |V₁| ≤ n₂ = |V₂|`, the cut size `|E₁₂|`, the
//! conductance of the cut, and the `min(n₁, n₂)/|E₁₂|` quantity that lower
//! bounds every convex algorithm (Theorem 1).

use crate::{Graph, GraphError, NodeId, Result};
use std::fmt;

/// Which side of a two-block partition a node belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Block {
    /// The first block, `V₁` (by convention the smaller or equal one once the
    /// partition is normalized).
    One,
    /// The second block, `V₂`.
    Two,
}

impl Block {
    /// The opposite block.
    pub fn other(self) -> Block {
        match self {
            Block::One => Block::Two,
            Block::Two => Block::One,
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Block::One => write!(f, "V1"),
            Block::Two => write!(f, "V2"),
        }
    }
}

/// A two-block partition of a graph's vertex set, with the induced cut.
///
/// # Examples
///
/// ```
/// use gossip_graph::{Graph, Partition, NodeId};
///
/// // A path 0 - 1 - 2 - 3 cut between nodes 1 and 2.
/// let graph = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// let partition = Partition::from_block_one(&graph, &[NodeId(0), NodeId(1)])?;
/// assert_eq!(partition.cut_edge_count(), 1);
/// assert_eq!(partition.smaller_block_size(), 2);
/// assert!((partition.theorem1_ratio() - 2.0).abs() < 1e-12);
/// # Ok::<(), gossip_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `membership[i]` is the block of node `i`.
    membership: Vec<Block>,
    block_one: Vec<NodeId>,
    block_two: Vec<NodeId>,
    /// Edge ids of the cut `E₁₂`, in increasing order.
    cut_edges: Vec<crate::EdgeId>,
    /// Sum of degrees of block-one vertices (the "volume" of `V₁`).
    volume_one: usize,
    /// Sum of degrees of block-two vertices.
    volume_two: usize,
}

impl Partition {
    /// Builds a partition from the set of nodes forming block one; every other
    /// node goes to block two.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] for invalid nodes and
    /// [`GraphError::InvalidPartition`] if block one is empty, contains
    /// duplicates, or covers the whole vertex set.
    pub fn from_block_one(graph: &Graph, block_one: &[NodeId]) -> Result<Self> {
        let n = graph.node_count();
        let mut membership = vec![Block::Two; n];
        let mut count = 0usize;
        for &node in block_one {
            graph.check_node(node)?;
            if membership[node.index()] == Block::One {
                return Err(GraphError::InvalidPartition {
                    reason: format!("node {node} listed twice in block one"),
                });
            }
            membership[node.index()] = Block::One;
            count += 1;
        }
        if count == 0 {
            return Err(GraphError::InvalidPartition {
                reason: "block one is empty".into(),
            });
        }
        if count == n {
            return Err(GraphError::InvalidPartition {
                reason: "block one covers the whole vertex set".into(),
            });
        }
        Self::from_membership(graph, membership)
    }

    /// Builds a partition from a full membership vector (one entry per node).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidPartition`] if the vector length does not
    /// match the node count or either block is empty.
    pub fn from_membership(graph: &Graph, membership: Vec<Block>) -> Result<Self> {
        if membership.len() != graph.node_count() {
            return Err(GraphError::InvalidPartition {
                reason: format!(
                    "membership length {} does not match node count {}",
                    membership.len(),
                    graph.node_count()
                ),
            });
        }
        let block_one: Vec<NodeId> = graph
            .nodes()
            .filter(|v| membership[v.index()] == Block::One)
            .collect();
        let block_two: Vec<NodeId> = graph
            .nodes()
            .filter(|v| membership[v.index()] == Block::Two)
            .collect();
        if block_one.is_empty() || block_two.is_empty() {
            return Err(GraphError::InvalidPartition {
                reason: "both blocks must be non-empty".into(),
            });
        }

        let mut cut_edges = Vec::new();
        for (id, edge) in graph.edges().iter().enumerate() {
            if membership[edge.u().index()] != membership[edge.v().index()] {
                cut_edges.push(crate::EdgeId(id));
            }
        }
        let volume_one = block_one.iter().map(|&v| graph.degree(v)).sum();
        let volume_two = block_two.iter().map(|&v| graph.degree(v)).sum();

        Ok(Partition {
            membership,
            block_one,
            block_two,
            cut_edges,
            volume_one,
            volume_two,
        })
    }

    /// The block containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the partitioned graph.
    pub fn block_of(&self, node: NodeId) -> Block {
        self.membership[node.index()]
    }

    /// Nodes of block one, in increasing order.
    pub fn block_one(&self) -> &[NodeId] {
        &self.block_one
    }

    /// Nodes of block two, in increasing order.
    pub fn block_two(&self) -> &[NodeId] {
        &self.block_two
    }

    /// Nodes of the requested block.
    pub fn block(&self, block: Block) -> &[NodeId] {
        match block {
            Block::One => &self.block_one,
            Block::Two => &self.block_two,
        }
    }

    /// `|V₁|`.
    pub fn block_one_size(&self) -> usize {
        self.block_one.len()
    }

    /// `|V₂|`.
    pub fn block_two_size(&self) -> usize {
        self.block_two.len()
    }

    /// `min(|V₁|, |V₂|)` — the paper's `n₁` after the w.l.o.g. normalization.
    pub fn smaller_block_size(&self) -> usize {
        self.block_one_size().min(self.block_two_size())
    }

    /// `max(|V₁|, |V₂|)` — the paper's `n₂`.
    pub fn larger_block_size(&self) -> usize {
        self.block_one_size().max(self.block_two_size())
    }

    /// Total number of nodes `n = n₁ + n₂`.
    pub fn node_count(&self) -> usize {
        self.membership.len()
    }

    /// Identifiers of the cut edges `E₁₂`, in increasing order.
    pub fn cut_edges(&self) -> &[crate::EdgeId] {
        &self.cut_edges
    }

    /// `|E₁₂|`.
    pub fn cut_edge_count(&self) -> usize {
        self.cut_edges.len()
    }

    /// Conductance of the cut: `|E₁₂| / min(vol(V₁), vol(V₂))`.
    ///
    /// Returns `f64::INFINITY` when the smaller volume is zero (isolated
    /// block), which by convention means "no usable cut".
    pub fn conductance(&self) -> f64 {
        let denom = self.volume_one.min(self.volume_two);
        if denom == 0 {
            f64::INFINITY
        } else {
            self.cut_edge_count() as f64 / denom as f64
        }
    }

    /// The Theorem 1 quantity `min(|V₁|, |V₂|) / |E₁₂|`: every convex
    /// algorithm has averaging time at least a constant times this value.
    ///
    /// Returns `f64::INFINITY` if the cut is empty (the blocks are
    /// disconnected from each other and no convex algorithm can average at
    /// all).
    pub fn theorem1_ratio(&self) -> f64 {
        if self.cut_edges.is_empty() {
            f64::INFINITY
        } else {
            self.smaller_block_size() as f64 / self.cut_edge_count() as f64
        }
    }

    /// Returns `true` if the given edge crosses the cut.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint of `edge` is out of range for this partition.
    pub fn is_cut_edge(&self, edge: &crate::Edge) -> bool {
        self.block_of(edge.u()) != self.block_of(edge.v())
    }

    /// Returns a partition with the two blocks swapped.
    pub fn swapped(&self) -> Partition {
        Partition {
            membership: self.membership.iter().map(|b| b.other()).collect(),
            block_one: self.block_two.clone(),
            block_two: self.block_one.clone(),
            cut_edges: self.cut_edges.clone(),
            volume_one: self.volume_two,
            volume_two: self.volume_one,
        }
    }

    /// Returns the partition normalized so block one is the smaller (or equal)
    /// block, matching the paper's `n₁ ≤ n₂` convention.
    pub fn normalized(&self) -> Partition {
        if self.block_one_size() <= self.block_two_size() {
            self.clone()
        } else {
            self.swapped()
        }
    }

    /// Checks that both blocks induce connected subgraphs of `graph`, as
    /// required by the paper's Notation 1.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if either induced subgraph is
    /// disconnected, and propagates [`GraphError::NodeOutOfRange`] if the
    /// partition does not belong to `graph`.
    pub fn require_blocks_connected(&self, graph: &Graph) -> Result<()> {
        for block in [&self.block_one, &self.block_two] {
            let (sub, _) = graph.induced_subgraph(block)?;
            if !crate::traversal::is_connected(&sub) {
                return Err(GraphError::Disconnected);
            }
        }
        Ok(())
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Partition(n1 = {}, n2 = {}, |E12| = {})",
            self.block_one_size(),
            self.block_two_size(),
            self.cut_edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn block_other_and_display() {
        assert_eq!(Block::One.other(), Block::Two);
        assert_eq!(Block::Two.other(), Block::One);
        assert_eq!(Block::One.to_string(), "V1");
        assert_eq!(Block::Two.to_string(), "V2");
    }

    #[test]
    fn from_block_one_splits_path() {
        let g = path4();
        let p = Partition::from_block_one(&g, &[NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(p.block_one_size(), 2);
        assert_eq!(p.block_two_size(), 2);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.cut_edge_count(), 1);
        assert_eq!(p.block_of(NodeId(0)), Block::One);
        assert_eq!(p.block_of(NodeId(3)), Block::Two);
        assert_eq!(p.block(Block::One), &[NodeId(0), NodeId(1)]);
        assert_eq!(p.block(Block::Two), &[NodeId(2), NodeId(3)]);
        assert!(!p.to_string().is_empty());
    }

    #[test]
    fn cut_edge_identification() {
        let g = path4();
        let p = Partition::from_block_one(&g, &[NodeId(0), NodeId(1)]).unwrap();
        let cut = p.cut_edges();
        assert_eq!(cut.len(), 1);
        let edge = g.edge(cut[0]).unwrap();
        assert_eq!(edge.endpoints(), (NodeId(1), NodeId(2)));
        assert!(p.is_cut_edge(&edge));
        let internal = g.edge(g.find_edge(NodeId(0), NodeId(1)).unwrap()).unwrap();
        assert!(!p.is_cut_edge(&internal));
    }

    #[test]
    fn conductance_and_theorem1_ratio() {
        let g = path4();
        let p = Partition::from_block_one(&g, &[NodeId(0), NodeId(1)]).unwrap();
        // Volumes: deg(0)+deg(1) = 1+2 = 3; deg(2)+deg(3) = 2+1 = 3.
        assert!((p.conductance() - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.theorem1_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_partitions() {
        let g = path4();
        assert!(Partition::from_block_one(&g, &[]).is_err());
        assert!(
            Partition::from_block_one(&g, &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]).is_err()
        );
        assert!(Partition::from_block_one(&g, &[NodeId(0), NodeId(0)]).is_err());
        assert!(Partition::from_block_one(&g, &[NodeId(9)]).is_err());
        assert!(Partition::from_membership(&g, vec![Block::One; 3]).is_err());
        assert!(Partition::from_membership(&g, vec![Block::One; 4]).is_err());
    }

    #[test]
    fn swapped_and_normalized() {
        let g = path4();
        let p = Partition::from_block_one(&g, &[NodeId(0)]).unwrap();
        assert_eq!(p.block_one_size(), 1);
        assert_eq!(p.block_two_size(), 3);
        let s = p.swapped();
        assert_eq!(s.block_one_size(), 3);
        assert_eq!(s.block_two_size(), 1);
        assert_eq!(s.cut_edge_count(), p.cut_edge_count());
        assert_eq!(s.block_of(NodeId(0)), Block::Two);
        // Normalizing an already-normalized partition is the identity.
        assert_eq!(p.normalized(), p);
        // Normalizing the swapped one returns to block-one-smaller form.
        assert_eq!(s.normalized().block_one_size(), 1);
        assert_eq!(p.smaller_block_size(), 1);
        assert_eq!(p.larger_block_size(), 3);
    }

    #[test]
    fn theorem1_ratio_infinite_without_cut_edges() {
        // Two disconnected edges: 0-1 and 2-3.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let p = Partition::from_block_one(&g, &[NodeId(0), NodeId(1)]).unwrap();
        assert_eq!(p.cut_edge_count(), 0);
        assert!(p.theorem1_ratio().is_infinite());
    }

    #[test]
    fn conductance_infinite_for_isolated_block() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let p = Partition::from_block_one(&g, &[NodeId(2)]).unwrap();
        assert!(p.conductance().is_infinite());
    }

    #[test]
    fn require_blocks_connected_detects_disconnection() {
        // Path 0-1-2-3: blocks {0, 2} and {1, 3} are both disconnected.
        let g = path4();
        let bad = Partition::from_block_one(&g, &[NodeId(0), NodeId(2)]).unwrap();
        assert!(bad.require_blocks_connected(&g).is_err());
        let good = Partition::from_block_one(&g, &[NodeId(0), NodeId(1)]).unwrap();
        assert!(good.require_blocks_connected(&g).is_ok());
    }

    #[test]
    fn block_sizes_always_sum_to_n() {
        let g = path4();
        for split in 1..4 {
            let block: Vec<NodeId> = (0..split).map(NodeId).collect();
            let p = Partition::from_block_one(&g, &block).unwrap();
            assert_eq!(p.block_one_size() + p.block_two_size(), g.node_count());
        }
    }
}
