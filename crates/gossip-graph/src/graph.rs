//! The core undirected graph type.
//!
//! Graphs here are *simple* (no self-loops, no parallel edges), *undirected*,
//! and *immutable once built*.  Edges are first-class because the paper's
//! asynchronous model attaches an independent rate-1 Poisson clock to every
//! edge: the simulator iterates over [`EdgeId`]s, not node pairs.

use crate::{GraphError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifier of a node, an index in `0..graph.node_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Identifier of an edge, an index in `0..graph.edge_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(value: usize) -> Self {
        EdgeId(value)
    }
}

/// An undirected edge between two distinct nodes.
///
/// The endpoints are stored in normalized order (`u < v`), so two `Edge`
/// values compare equal exactly when they join the same pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    u: NodeId,
    v: NodeId,
}

impl Edge {
    /// Creates a normalized edge between two distinct nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `a == b`.
    pub fn new(a: NodeId, b: NodeId) -> Result<Self> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a.index() });
        }
        let (u, v) = if a.index() < b.index() {
            (a, b)
        } else {
            (b, a)
        };
        Ok(Edge { u, v })
    }

    /// The endpoint with the smaller index.
    pub fn u(&self) -> NodeId {
        self.u
    }

    /// The endpoint with the larger index.
    pub fn v(&self) -> NodeId {
        self.v
    }

    /// Both endpoints as a pair `(u, v)` with `u < v`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }

    /// Returns `true` if `node` is one of the endpoints.
    pub fn is_incident_to(&self, node: NodeId) -> bool {
        self.u == node || self.v == node
    }

    /// Given one endpoint, returns the other; `None` if `node` is not an
    /// endpoint.
    pub fn other_endpoint(&self, node: NodeId) -> Option<NodeId> {
        if node == self.u {
            Some(self.v)
        } else if node == self.v {
            Some(self.u)
        } else {
            None
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// An immutable, simple, undirected graph.
///
/// # Examples
///
/// ```
/// use gossip_graph::{Graph, GraphBuilder, NodeId};
///
/// let mut builder = GraphBuilder::new(3);
/// builder.add_edge(0, 1)?;
/// builder.add_edge(1, 2)?;
/// let graph: Graph = builder.build();
/// assert_eq!(graph.node_count(), 3);
/// assert_eq!(graph.edge_count(), 2);
/// assert_eq!(graph.degree(NodeId(1)), 2);
/// # Ok::<(), gossip_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    node_count: usize,
    edges: Vec<Edge>,
    /// CSR offsets into `adjacency`: neighbours of node `i` live at
    /// `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Flattened adjacency: `(neighbour, connecting edge)` pairs.
    adjacency: Vec<(NodeId, EdgeId)>,
}

impl Graph {
    /// Builds a graph from a node count and an edge list.
    ///
    /// This is a convenience wrapper around [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns an error if any endpoint is out of range, any edge is a
    /// self-loop, or the same edge appears twice.
    pub fn from_edges(node_count: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut builder = GraphBuilder::new(node_count);
        for &(a, b) in edges {
            builder.add_edge(a, b)?;
        }
        Ok(builder.build())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node identifiers in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId)
    }

    /// Iterates over all edge identifiers in increasing order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Borrows the edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up an edge by identifier.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeOutOfRange`] for an invalid identifier.
    pub fn edge(&self, id: EdgeId) -> Result<Edge> {
        self.edges
            .get(id.index())
            .copied()
            .ok_or(GraphError::EdgeOutOfRange {
                edge: id.index(),
                edge_count: self.edges.len(),
            })
    }

    /// Finds the identifier of the edge joining `a` and `b`, if present.
    pub fn find_edge(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        if a.index() >= self.node_count || b.index() >= self.node_count || a == b {
            return None;
        }
        self.neighbors(a).find(|(n, _)| *n == b).map(|(_, e)| e)
    }

    /// Returns `true` if nodes `a` and `b` are adjacent.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.find_edge(a, b).is_some()
    }

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        assert!(i < self.node_count, "node {i} out of range");
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Iterates over `(neighbour, connecting edge)` pairs of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let i = node.index();
        assert!(i < self.node_count, "node {i} out of range");
        self.adjacency[self.offsets[i]..self.offsets[i + 1]]
            .iter()
            .copied()
    }

    /// Iterates over the neighbouring nodes of `node` (without edge ids).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbor_nodes(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors(node).map(|(n, _)| n)
    }

    /// Maximum degree over all nodes; `0` for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes; `0` for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Average degree (`2|E| / |V|`); `0.0` for the empty graph.
    pub fn average_degree(&self) -> f64 {
        if self.node_count == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count as f64
        }
    }

    /// Validates that a node identifier is in range.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, node: NodeId) -> Result<()> {
        if node.index() < self.node_count {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: node.index(),
                node_count: self.node_count,
            })
        }
    }

    /// Returns the induced subgraph on `nodes`, together with the mapping from
    /// new node indices back to the original [`NodeId`]s.
    ///
    /// Nodes are relabelled `0..nodes.len()` in the sorted order of the
    /// originals.  Edges with exactly both endpoints inside `nodes` are kept.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if any listed node is invalid.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>)> {
        for &n in nodes {
            self.check_node(n)?;
        }
        let sorted: Vec<NodeId> = {
            let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
            set.into_iter().collect()
        };
        let mut index_of = vec![usize::MAX; self.node_count];
        for (new, old) in sorted.iter().enumerate() {
            index_of[old.index()] = new;
        }
        let mut builder = GraphBuilder::new(sorted.len());
        for edge in &self.edges {
            let iu = index_of[edge.u().index()];
            let iv = index_of[edge.v().index()];
            if iu != usize::MAX && iv != usize::MAX {
                builder.add_edge(iu, iv)?;
            }
        }
        Ok((builder.build(), sorted))
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(|V| = {}, |E| = {})",
            self.node_count,
            self.edges.len()
        )
    }
}

/// Incremental builder for [`Graph`].
///
/// The builder checks simple-graph invariants (no self-loops, no duplicate
/// edges, endpoints in range) as edges are added, and assembles the CSR
/// adjacency structure in [`GraphBuilder::build`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<Edge>,
    seen: BTreeSet<(usize, usize)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge between nodes `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`], or
    /// [`GraphError::DuplicateEdge`] when the corresponding invariant is
    /// violated.
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<EdgeId> {
        if a >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: a,
                node_count: self.node_count,
            });
        }
        if b >= self.node_count {
            return Err(GraphError::NodeOutOfRange {
                node: b,
                node_count: self.node_count,
            });
        }
        let edge = Edge::new(NodeId(a), NodeId(b))?;
        let key = (edge.u().index(), edge.v().index());
        if !self.seen.insert(key) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(edge);
        Ok(id)
    }

    /// Adds an edge only if it is not already present; returns whether an edge
    /// was added.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`] for
    /// invalid endpoints.
    pub fn add_edge_if_absent(&mut self, a: usize, b: usize) -> Result<bool> {
        match self.add_edge(a, b) {
            Ok(_) => Ok(true),
            Err(GraphError::DuplicateEdge { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Returns `true` if the edge `{a, b}` has already been added.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.seen.contains(&key)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let mut degrees = vec![0usize; self.node_count];
        for edge in &self.edges {
            degrees[edge.u().index()] += 1;
            degrees[edge.v().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(self.node_count + 1);
        offsets.push(0);
        for d in &degrees {
            offsets.push(offsets.last().copied().unwrap_or(0) + d);
        }
        let mut cursor = offsets.clone();
        let mut adjacency = vec![(NodeId(0), EdgeId(0)); 2 * self.edges.len()];
        for (i, edge) in self.edges.iter().enumerate() {
            let (u, v) = (edge.u().index(), edge.v().index());
            adjacency[cursor[u]] = (NodeId(v), EdgeId(i));
            cursor[u] += 1;
            adjacency[cursor[v]] = (NodeId(u), EdgeId(i));
            cursor[v] += 1;
        }
        Graph {
            node_count: self.node_count,
            edges: self.edges,
            offsets,
            adjacency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_and_edge_id_basics() {
        let n = NodeId(3);
        assert_eq!(n.index(), 3);
        assert_eq!(n.to_string(), "v3");
        assert_eq!(NodeId::from(3), n);
        let e = EdgeId(7);
        assert_eq!(e.index(), 7);
        assert_eq!(e.to_string(), "e7");
        assert_eq!(EdgeId::from(7), e);
    }

    #[test]
    fn edge_normalizes_endpoints() {
        let e = Edge::new(NodeId(5), NodeId(2)).unwrap();
        assert_eq!(e.u(), NodeId(2));
        assert_eq!(e.v(), NodeId(5));
        assert_eq!(e.endpoints(), (NodeId(2), NodeId(5)));
        assert_eq!(e, Edge::new(NodeId(2), NodeId(5)).unwrap());
        assert_eq!(e.to_string(), "(v2, v5)");
    }

    #[test]
    fn edge_rejects_self_loop() {
        assert!(matches!(
            Edge::new(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { node: 1 })
        ));
    }

    #[test]
    fn edge_incidence_helpers() {
        let e = Edge::new(NodeId(0), NodeId(3)).unwrap();
        assert!(e.is_incident_to(NodeId(0)));
        assert!(e.is_incident_to(NodeId(3)));
        assert!(!e.is_incident_to(NodeId(1)));
        assert_eq!(e.other_endpoint(NodeId(0)), Some(NodeId(3)));
        assert_eq!(e.other_endpoint(NodeId(3)), Some(NodeId(0)));
        assert_eq!(e.other_endpoint(NodeId(2)), None);
    }

    #[test]
    fn builder_validates_input() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_edge(4, 0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(b.add_edge(1, 1), Err(GraphError::SelfLoop { .. })));
        b.add_edge(0, 1).unwrap();
        assert!(matches!(
            b.add_edge(1, 0),
            Err(GraphError::DuplicateEdge { .. })
        ));
        assert!(b.has_edge(0, 1));
        assert!(b.has_edge(1, 0));
        assert!(!b.has_edge(0, 2));
        assert!(!b.add_edge_if_absent(0, 1).unwrap());
        assert!(b.add_edge_if_absent(0, 2).unwrap());
        assert_eq!(b.edge_count(), 2);
        assert_eq!(b.node_count(), 3);
    }

    #[test]
    fn triangle_adjacency() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        let neighbors: Vec<NodeId> = g.neighbor_nodes(NodeId(0)).collect();
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.contains(&NodeId(1)));
        assert!(neighbors.contains(&NodeId(2)));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.to_string(), "Graph(|V| = 3, |E| = 3)");
    }

    #[test]
    fn neighbors_carry_correct_edge_ids() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for v in g.nodes() {
            for (n, e) in g.neighbors(v) {
                let edge = g.edge(e).unwrap();
                assert!(edge.is_incident_to(v));
                assert_eq!(edge.other_endpoint(v), Some(n));
            }
        }
    }

    #[test]
    fn find_edge_and_edge_lookup() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.find_edge(NodeId(1), NodeId(0)), Some(EdgeId(0)));
        assert_eq!(g.find_edge(NodeId(0), NodeId(2)), None);
        assert_eq!(g.find_edge(NodeId(0), NodeId(0)), None);
        assert_eq!(g.find_edge(NodeId(0), NodeId(9)), None);
        assert!(g.edge(EdgeId(1)).is_ok());
        assert!(matches!(
            g.edge(EdgeId(2)),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
    }

    #[test]
    fn check_node_bounds() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(g.check_node(NodeId(1)).is_ok());
        assert!(g.check_node(NodeId(2)).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert!((g.average_degree() - 0.0).abs() < 1e-12);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edge_ids().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_degree_zero() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId(4)), 0);
        assert_eq!(g.neighbor_nodes(NodeId(4)).count(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        // Square 0-1-2-3-0 plus a diagonal 0-2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let (sub, mapping) = g
            .induced_subgraph(&[NodeId(0), NodeId(1), NodeId(2)])
            .unwrap();
        assert_eq!(sub.node_count(), 3);
        // Edges kept: (0,1), (1,2), (0,2) — the triangle on {0,1,2}.
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(mapping, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn induced_subgraph_relabels_and_validates() {
        let g = Graph::from_edges(5, &[(0, 4), (4, 2)]).unwrap();
        let (sub, mapping) = g.induced_subgraph(&[NodeId(4), NodeId(2)]).unwrap();
        assert_eq!(mapping, vec![NodeId(2), NodeId(4)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(g.induced_subgraph(&[NodeId(9)]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degree_panics_out_of_range() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = g.degree(NodeId(5));
    }

    proptest! {
        #[test]
        fn prop_handshake_lemma(n in 1usize..30, edge_seed in 0u64..1000) {
            // Build a pseudo-random simple graph deterministically from the seed.
            let mut builder = GraphBuilder::new(n);
            let mut state = edge_seed.wrapping_add(1);
            for _ in 0..(2 * n) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = (state >> 33) as usize % n;
                if a != b {
                    let _ = builder.add_edge_if_absent(a, b).unwrap();
                }
            }
            let g = builder.build();
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }

        #[test]
        fn prop_adjacency_is_symmetric(n in 2usize..20, edge_seed in 0u64..1000) {
            let mut builder = GraphBuilder::new(n);
            let mut state = edge_seed.wrapping_add(7);
            for _ in 0..(3 * n) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = (state >> 33) as usize % n;
                if a != b {
                    let _ = builder.add_edge_if_absent(a, b).unwrap();
                }
            }
            let g = builder.build();
            for u in g.nodes() {
                for (v, _) in g.neighbors(u) {
                    prop_assert!(g.has_edge(v, u));
                    prop_assert!(g.neighbor_nodes(v).any(|w| w == u));
                }
            }
        }
    }
}
