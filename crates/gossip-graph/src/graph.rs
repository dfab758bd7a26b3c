//! The core undirected graph type.
//!
//! Graphs here are *simple* (no self-loops, no parallel edges), *undirected*,
//! and *immutable once built*.  Edges are first-class because the paper's
//! asynchronous model attaches an independent rate-1 Poisson clock to every
//! edge: the simulator iterates over [`EdgeId`]s, not node pairs.
//!
//! # Storage
//!
//! Ids are `usize` everywhere in the API ([`NodeId`], [`EdgeId`] and every
//! accessor), but a [`Graph`] stores them as `u32` and widens what it reads:
//! an [`Edge`] is two `u32` endpoints (8 bytes), the CSR adjacency holds one
//! `(neighbour, edge)` pair of `u32` per half-edge (8 bytes), and the CSR
//! offsets are `u32`.  The 10⁶-node expander dumbbell (18 000 001 edges)
//! takes 416 MiB this way, against 832 MiB with `usize` ids.  The price is
//! a size limit: [`GraphBuilder::build`] accepts fewer than `u32::MAX` nodes
//! and at most `u32::MAX / 2` edges, so that every half-edge offset fits in
//! a `u32`, and returns [`GraphError::TooLarge`] past either.

use crate::{GraphError, Result};
use std::fmt;

/// The most nodes a [`Graph`] holds: node ids are stored as `u32`, so every
/// id and the node count itself stay below `u32::MAX`.
pub(crate) const MAX_NODE_COUNT: usize = u32::MAX as usize - 1;

/// The most edges a [`Graph`] holds: its `2·|E|` half-edge offsets are
/// stored as `u32`.
pub(crate) const MAX_EDGE_COUNT: usize = u32::MAX as usize / 2;

/// Identifier of a node, an index in `0..graph.node_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
/// Each endpoint is stored as a `u32` (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: u32,
    v: u32,
}

impl Edge {
    /// Creates a normalized edge between two distinct nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `a == b`, and
    /// [`GraphError::NodeOutOfRange`] if an endpoint is out of range for
    /// every graph (the largest holds `u32::MAX - 1` nodes).
    pub fn new(a: NodeId, b: NodeId) -> Result<Self> {
        if a == b {
            return Err(GraphError::SelfLoop { node: a.index() });
        }
        let (u, v) = if a.index() < b.index() {
            (a, b)
        } else {
            (b, a)
        };
        if v.index() >= MAX_NODE_COUNT {
            return Err(GraphError::NodeOutOfRange {
                node: v.index(),
                node_count: MAX_NODE_COUNT,
            });
        }
        // `u < v < MAX_NODE_COUNT`, so both fit.
        Ok(Edge {
            u: u.index() as u32,
            v: v.index() as u32,
        })
    }

    /// The endpoint with the smaller index.
    pub fn u(&self) -> NodeId {
        NodeId(self.u as usize)
    }

    /// The endpoint with the larger index.
    pub fn v(&self) -> NodeId {
        NodeId(self.v as usize)
    }

    /// Both endpoints as a pair `(u, v)` with `u < v`.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.u(), self.v())
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u(), self.v())
    }
}

/// An immutable, simple, undirected graph.
///
/// The edge list is in id order, and a CSR adjacency lists each node's
/// `(neighbour, edge)` pairs in the order their edges were added.  Both
/// store ids as `u32`, so a graph holds at most `u32::MAX - 1` nodes and
/// `u32::MAX / 2` edges (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use gossip_graph::{Graph, GraphBuilder, NodeId};
///
/// let mut builder = GraphBuilder::new(3);
/// builder.add_edge(0, 1)?;
/// builder.add_edge(1, 2)?;
/// let graph: Graph = builder.build()?;
/// assert_eq!(graph.node_count(), 3);
/// assert_eq!(graph.edge_count(), 2);
/// assert_eq!(graph.degree(NodeId(1)), 2);
/// # Ok::<(), gossip_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    node_count: usize,
    edges: Vec<Edge>,
    /// CSR offsets into `adjacency`: neighbours of node `i` live at
    /// `adjacency[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Flattened adjacency: `(neighbour, connecting edge)` pairs.
    adjacency: Vec<(u32, u32)>,
}

impl Graph {
    /// Builds a graph from a node count and an edge list.
    ///
    /// This is a convenience wrapper around [`GraphBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// for the first such pair, and otherwise [`GraphError::TooLarge`] or
    /// [`GraphError::DuplicateEdge`] (see [`GraphBuilder::build`]).
    pub fn from_edges(node_count: usize, edges: &[(usize, usize)]) -> Result<Self> {
        let mut builder = GraphBuilder::new(node_count);
        for &(a, b) in edges {
            builder.add_edge(a, b)?;
        }
        builder.build()
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

    /// Degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        let i = node.index();
        assert!(i < self.node_count, "node {i} out of range");
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates over `(neighbour, connecting edge)` pairs of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let i = node.index();
        assert!(i < self.node_count, "node {i} out of range");
        self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
            .iter()
            .map(|&(n, e)| (NodeId(n as usize), EdgeId(e as usize)))
    }

    /// Maximum degree over all nodes; `0` for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Minimum degree over all nodes; `0` for the empty graph.
    pub fn min_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).min().unwrap_or(0)
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
        let mut sorted = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
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
        Ok((builder.build()?, sorted))
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
/// [`GraphBuilder::add_edge`] rejects out-of-range endpoints and self-loops
/// at once and appends the edge; [`GraphBuilder::build`] assembles the CSR
/// adjacency structure and rejects parallel edges in one linear pass over
/// it.  The builder holds only the node count and the edge list.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    node_count: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        GraphBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Adds an undirected edge between nodes `a` and `b`; its id is the
    /// number of edges added before it.
    ///
    /// A repeated pair is accepted here and rejected by
    /// [`GraphBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`]
    /// when the corresponding invariant is violated.
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
        let id = EdgeId(self.edges.len());
        self.edges.push(edge);
        Ok(id)
    }

    /// Finalizes the builder into an immutable [`Graph`].
    ///
    /// Each node's neighbours appear in the order their edges were added.
    /// A graph of at least 2²² half-edges is filled on two threads when two
    /// cores are available, with the same result.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`], before allocating anything, if the
    /// graph has `u32::MAX` nodes or more, or more than `u32::MAX / 2`
    /// edges: the graph stores its ids and half-edge offsets as `u32`.
    /// Otherwise returns [`GraphError::DuplicateEdge`] `{ a, b }`, with
    /// `a < b`, if that pair was added more than once (of several repeated
    /// pairs, one with the smallest `a`).
    pub fn build(self) -> Result<Graph> {
        check_size(self.node_count, self.edges.len())?;
        let mut offsets = slice_ends(self.node_count, &self.edges);
        let mut adjacency = vec![(0, 0); 2 * self.edges.len()];
        let ranges = if adjacency.len() >= TWO_RANGE_HALF_EDGES
            && std::thread::available_parallelism().is_ok_and(|cores| cores.get() >= 2)
        {
            2
        } else {
            1
        };
        scatter(&self.edges, &mut offsets, &mut adjacency, ranges);
        check_no_duplicate(self.node_count, &offsets, &adjacency)?;
        Ok(Graph {
            node_count: self.node_count,
            edges: self.edges,
            offsets,
            adjacency,
        })
    }
}

/// Counts each node's degree into its own slot and sums the slots in place,
/// so `ends[x]` is the end of node `x`'s CSR slice and `ends[n]` the
/// half-edge count; [`scatter`] moves each end down to its slice's start.
fn slice_ends(node_count: usize, edges: &[Edge]) -> Vec<u32> {
    let mut ends = vec![0u32; node_count + 1];
    for edge in edges {
        ends[edge.u as usize] += 1;
        ends[edge.v as usize] += 1;
    }
    let mut sum = 0;
    for slot in &mut ends {
        sum += *slot;
        *slot = sum;
    }
    ends
}

/// The half-edge count from which [`GraphBuilder::build`] fills the
/// adjacency in two node ranges on two threads, given two cores.
const TWO_RANGE_HALF_EDGES: usize = 1 << 22;

/// Fills `adjacency` from `edges` in `ranges` (1 or 2) node ranges.  On
/// entry `offsets[x]` is the end of node `x`'s slice and `offsets[n]` the
/// half-edge count; on return `offsets[x]` is the slice's start.
///
/// The upper range starts at the node whose slice crosses the half-edge
/// midpoint (with one range, it is empty) and is filled on a scoped thread,
/// or on the calling thread after the lower range if the thread cannot
/// start.  Each range walks every edge and writes only its own nodes'
/// slices, so every slice is written by one thread, in the same order, and
/// the bytes do not depend on `ranges`.
fn scatter(edges: &[Edge], offsets: &mut [u32], adjacency: &mut [(u32, u32)], ranges: usize) {
    let nodes = offsets.len() - 1;
    let split = if ranges < 2 {
        nodes
    } else {
        offsets[..nodes].partition_point(|&end| end as usize <= adjacency.len() / 2)
    };
    let (lower_ends, upper_ends) = offsets[..nodes].split_at_mut(split);
    let base = lower_ends.last().copied().unwrap_or(0);
    let (lower, upper) = adjacency.split_at_mut(base as usize);
    let mut fill_upper = || fill(edges, split, base, upper_ends, upper);
    let spawned = std::thread::scope(|scope| {
        let spawned = split < nodes
            && std::thread::Builder::new()
                .spawn_scoped(scope, &mut fill_upper)
                .is_ok();
        fill(edges, 0, 0, lower_ends, lower);
        spawned
    });
    if !spawned {
        fill_upper();
    }
}

/// Fills the slices of the nodes `first..first + ends.len()`, which make up
/// `adjacency` from half-edge `base` on.  It walks the edges by descending
/// id and puts each of its nodes' half-edges just below the node's end,
/// moving the end down, so each slice fills from its end in id order.
fn fill(edges: &[Edge], first: usize, base: u32, ends: &mut [u32], adjacency: &mut [(u32, u32)]) {
    if ends.is_empty() {
        return;
    }
    let count =
        u32::try_from(edges.len()).expect("`check_size` admits at most `u32::MAX / 2` edges");
    for (id, edge) in (0..count).zip(edges).rev() {
        for (node, neighbour) in [(edge.u, edge.v), (edge.v, edge.u)] {
            // A node below `first` wraps past every index of `ends`.
            if let Some(end) = ends.get_mut((node as usize).wrapping_sub(first)) {
                *end -= 1;
                adjacency[(*end - base) as usize] = (neighbour, id);
            }
        }
    }
}

/// Returns [`GraphError::DuplicateEdge`] for the first node `u`, in id
/// order, whose slice holds a neighbour `v > u` twice, naming the `v` whose
/// second copy comes first in the slice.  Every pair `{u, v}` with `u < v`
/// appears in `u`'s slice once per copy, so this finds every repeated pair.
/// One bit per node marks the larger neighbours of the current `u`; a second
/// walk of the slice zeroes the words that hold them.
fn check_no_duplicate(node_count: usize, offsets: &[u32], adjacency: &[(u32, u32)]) -> Result<()> {
    let mut seen = vec![0u64; node_count.div_ceil(64)];
    for (u, slice) in (0u32..).zip(offsets.windows(2)) {
        let slice = &adjacency[slice[0] as usize..slice[1] as usize];
        for &(v, _) in slice {
            if v > u {
                let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
                if seen[word] & bit != 0 {
                    return Err(GraphError::DuplicateEdge {
                        a: u as usize,
                        b: v as usize,
                    });
                }
                seen[word] |= bit;
            }
        }
        for &(v, _) in slice {
            seen[v as usize / 64] = 0;
        }
    }
    Ok(())
}

/// Checks that `node_count` nodes and `edge_count` edges fit a [`Graph`]'s
/// `u32` ids and offsets: fewer than `u32::MAX` nodes and `2·|E| ≤
/// u32::MAX`.
fn check_size(node_count: usize, edge_count: usize) -> Result<()> {
    if node_count <= MAX_NODE_COUNT && edge_count <= MAX_EDGE_COUNT {
        Ok(())
    } else {
        Err(GraphError::TooLarge {
            node_count,
            edge_count,
        })
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
    fn edge_is_two_u32() {
        assert_eq!(std::mem::size_of::<Edge>(), 8);
    }

    #[test]
    fn edge_rejects_an_endpoint_no_graph_can_hold() {
        for far in [u32::MAX as usize, u32::MAX as usize + 1, usize::MAX] {
            assert_eq!(
                Edge::new(NodeId(far), NodeId(0)),
                Err(GraphError::NodeOutOfRange {
                    node: far,
                    node_count: MAX_NODE_COUNT,
                })
            );
        }
        // A builder larger than any graph rejects the id too instead of
        // truncating it to a small one.
        let mut b = GraphBuilder::new(usize::MAX);
        assert!(matches!(
            b.add_edge(0, u32::MAX as usize + 5),
            Err(GraphError::NodeOutOfRange { node, .. }) if node == u32::MAX as usize + 5
        ));
        let top = NodeId(MAX_NODE_COUNT - 1);
        let e = Edge::new(top, NodeId(0)).unwrap();
        assert_eq!(e.endpoints(), (NodeId(0), top));
    }

    #[test]
    fn build_rejects_counts_past_u32_ids_before_allocating() {
        // Counting degrees first would allocate 16 GiB here.
        let nodes = u32::MAX as usize + 1;
        assert_eq!(
            GraphBuilder::new(nodes).build(),
            Err(GraphError::TooLarge {
                node_count: nodes,
                edge_count: 0,
            })
        );
        assert!(matches!(
            GraphBuilder::new(u32::MAX as usize).build(),
            Err(GraphError::TooLarge { .. })
        ));
    }

    #[test]
    fn size_check_admits_exactly_the_counts_u32_offsets_can_index() {
        assert_eq!(MAX_NODE_COUNT, u32::MAX as usize - 1);
        assert!(2 * MAX_EDGE_COUNT <= u32::MAX as usize);
        assert!(2 * (MAX_EDGE_COUNT + 1) > u32::MAX as usize);
        assert_eq!(check_size(MAX_NODE_COUNT, MAX_EDGE_COUNT), Ok(()));
        for (node_count, edge_count) in [
            (MAX_NODE_COUNT + 1, 0),
            (0, MAX_EDGE_COUNT + 1),
            (usize::MAX, usize::MAX),
        ] {
            assert_eq!(
                check_size(node_count, edge_count),
                Err(GraphError::TooLarge {
                    node_count,
                    edge_count
                })
            );
        }
    }

    #[test]
    fn edge_rejects_self_loop() {
        assert!(matches!(
            Edge::new(NodeId(1), NodeId(1)),
            Err(GraphError::SelfLoop { node: 1 })
        ));
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
        // Rejected edges take no id.
        assert_eq!(b.add_edge(0, 1).unwrap(), EdgeId(0));
        assert_eq!(b.add_edge(0, 2).unwrap(), EdgeId(1));
        assert_eq!(b.add_edge(1, 0).unwrap(), EdgeId(2));
        assert!(matches!(
            b.build(),
            Err(GraphError::DuplicateEdge { a: 0, b: 1 })
        ));
    }

    #[test]
    fn from_edges_rejects_a_repeated_pair() {
        assert!(matches!(
            Graph::from_edges(4, &[(2, 3), (0, 1), (3, 2)]),
            Err(GraphError::DuplicateEdge { a: 2, b: 3 })
        ));
        // Range and self-loop errors still stop `from_edges` at the pair.
        assert!(matches!(
            Graph::from_edges(4, &[(0, 1), (0, 1), (1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        ));
        assert!(matches!(
            Graph::from_edges(4, &[(0, 1), (0, 1), (0, 4)]),
            Err(GraphError::NodeOutOfRange { node: 4, .. })
        ));
    }

    /// The CSR offsets and adjacency [`scatter`] fills from `edges` in
    /// `ranges` node ranges.
    fn scattered(node_count: usize, edges: &[Edge], ranges: usize) -> (Vec<u32>, Vec<(u32, u32)>) {
        let mut offsets = slice_ends(node_count, edges);
        let mut adjacency = vec![(0, 0); 2 * edges.len()];
        scatter(edges, &mut offsets, &mut adjacency, ranges);
        (offsets, adjacency)
    }

    /// The duplicate check the one-bit mark replaced: a node-indexed `u32`
    /// mark, with `mark[v] == u` once `v` has been seen from `u`.
    fn mark_array_check(offsets: &[u32], adjacency: &[(u32, u32)]) -> Result<()> {
        let mut mark = vec![u32::MAX; offsets.len() - 1];
        for (u, slice) in (0u32..).zip(offsets.windows(2)) {
            for &(v, _) in &adjacency[slice[0] as usize..slice[1] as usize] {
                if v > u {
                    if mark[v as usize] == u {
                        return Err(GraphError::DuplicateEdge {
                            a: u as usize,
                            b: v as usize,
                        });
                    }
                    mark[v as usize] = u;
                }
            }
        }
        Ok(())
    }

    #[test]
    fn one_and_two_ranges_scatter_the_same_offsets_and_adjacency() {
        use crate::generators::{chordal_ring, dumbbell, expander_barbell, star};
        // A star's hub holds half of all half-edges: as node 0 its slice
        // ends at the midpoint, as node 4 it crosses it, and as the last
        // node it is the whole upper range.
        let hub_star = |hub: usize| {
            let leaves: Vec<(usize, usize)> = (0..9)
                .filter(|&leaf| leaf != hub)
                .map(|leaf| (hub, leaf))
                .collect();
            Graph::from_edges(9, &leaves).unwrap()
        };
        let graphs = [
            chordal_ring(1000).unwrap(),
            expander_barbell(100, 300).unwrap().0,
            dumbbell(20).unwrap().0,
            star(50).unwrap(),
            hub_star(4),
            hub_star(8),
            // Nodes 0, 1, 3, 4, 6 and 8 are isolated.
            Graph::from_edges(10, &[(7, 2), (2, 5), (9, 5)]).unwrap(),
            Graph::from_edges(4, &[]).unwrap(),
            Graph::from_edges(0, &[]).unwrap(),
        ];
        for graph in &graphs {
            let built = (graph.offsets.clone(), graph.adjacency.clone());
            for ranges in [1, 2] {
                let filled = scattered(graph.node_count, &graph.edges, ranges);
                assert!(filled == built, "{graph} in {ranges} ranges");
            }
        }
    }

    #[test]
    fn triangle_adjacency() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert!(g.find_edge(NodeId(0), NodeId(2)).is_some());
        assert!(g.find_edge(NodeId(0), NodeId(0)).is_none());
        let neighbors: Vec<NodeId> = g.neighbors(NodeId(0)).map(|(n, _)| n).collect();
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.contains(&NodeId(1)));
        assert!(neighbors.contains(&NodeId(2)));
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.to_string(), "Graph(|V| = 3, |E| = 3)");
    }

    #[test]
    fn neighbors_carry_correct_edge_ids() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        for v in g.nodes() {
            for (n, e) in g.neighbors(v) {
                let edge = g.edge(e).unwrap();
                assert_eq!(edge.endpoints(), (v.min(n), v.max(n)));
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
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edge_ids().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_degree_zero() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(NodeId(4)), 0);
        assert_eq!(g.neighbors(NodeId(4)).count(), 0);
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
            let mut seen = std::collections::BTreeSet::new();
            let mut state = edge_seed.wrapping_add(1);
            for _ in 0..(2 * n) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = (state >> 33) as usize % n;
                if a != b && seen.insert((a.min(b), a.max(b))) {
                    builder.add_edge(a, b).unwrap();
                }
            }
            let g = builder.build().unwrap();
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }

        #[test]
        fn prop_adjacency_is_symmetric(n in 2usize..20, edge_seed in 0u64..1000) {
            let mut builder = GraphBuilder::new(n);
            let mut seen = std::collections::BTreeSet::new();
            let mut state = edge_seed.wrapping_add(7);
            for _ in 0..(3 * n) {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let b = (state >> 33) as usize % n;
                if a != b && seen.insert((a.min(b), a.max(b))) {
                    builder.add_edge(a, b).unwrap();
                }
            }
            let g = builder.build().unwrap();
            for u in g.nodes() {
                for (v, _) in g.neighbors(u) {
                    prop_assert!(g.find_edge(v, u).is_some());
                    prop_assert!(g.neighbors(v).any(|(w, _)| w == u));
                }
            }
        }

        #[test]
        fn prop_two_ranges_and_the_bit_mark_match_one_range_and_the_mark_array(
            n in 2usize..150,
            codes in proptest::collection::vec(0usize..1200, 0..60),
        ) {
            // Eight candidate neighbours per node make repeated pairs common;
            // up to 150 nodes spans three mark words.
            let mut edges = Vec::new();
            for code in codes {
                let a = code / 8 % n;
                let b = (a + 1 + code % 8) % n;
                if a != b {
                    edges.push(Edge::new(NodeId(a), NodeId(b)).unwrap());
                }
            }
            let (offsets, adjacency) = scattered(n, &edges, 1);
            prop_assert!(scattered(n, &edges, 2) == (offsets.clone(), adjacency.clone()));
            prop_assert_eq!(
                check_no_duplicate(n, &offsets, &adjacency),
                mark_array_check(&offsets, &adjacency)
            );
        }

        #[test]
        fn prop_build_accepts_exactly_the_lists_without_a_repeated_pair(
            n in 2usize..12,
            codes in proptest::collection::vec(0usize..144, 0..40),
        ) {
            let mut builder = GraphBuilder::new(n);
            let mut distinct = std::collections::BTreeSet::new();
            let mut repeated = std::collections::BTreeSet::new();
            for code in codes {
                let (a, b) = (code / 12 % n, code % 12 % n);
                if a == b {
                    continue;
                }
                builder.add_edge(a, b).unwrap();
                let pair = (a.min(b), a.max(b));
                if !distinct.insert(pair) {
                    repeated.insert(pair);
                }
            }
            match builder.build() {
                Ok(g) => {
                    prop_assert!(repeated.is_empty());
                    prop_assert_eq!(g.edge_count(), distinct.len());
                }
                Err(GraphError::DuplicateEdge { a, b }) => {
                    prop_assert!(repeated.contains(&(a, b)));
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }
}
