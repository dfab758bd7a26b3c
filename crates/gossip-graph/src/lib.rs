//! Graph substrate for the sparse-cut gossip reproduction.
//!
//! *Distributed averaging in the presence of a sparse cut* (Narayanan, PODC
//! 2008) studies gossip on a connected graph `G = (V, E)` that decomposes into
//! two internally well-connected subgraphs `G₁`, `G₂` joined by a small set of
//! cut edges `E₁₂`.  This crate provides everything needed to *instantiate*
//! that setting:
//!
//! * [`Graph`] — an immutable undirected simple graph with a CSR-style
//!   adjacency structure and an explicit edge list (edges are the objects that
//!   carry Poisson clocks in the paper's model).
//! * [`generators`] — deterministic families (complete, path, cycle, star,
//!   grid, torus, hypercube, …), random families (Erdős–Rényi, random
//!   regular, random geometric), and sparse-cut constructions (the dumbbell
//!   graph from the paper's motivating example, bridged clusters, two-block
//!   stochastic block models, grid corridors).
//! * [`Partition`] — a two-block vertex partition together with its cut
//!   `E₁₂`, block sizes `n₁ ≤ n₂`, conductance and the `min(n₁,n₂)/|E₁₂|`
//!   quantity from Theorem 1.
//! * [`cut`] — spectral bisection (Fiedler vector + sweep cut) for finding a
//!   sparse cut when one is not known a priori.
//! * [`laplacian`] / [`spectral`] — dense Laplacians and their spectra, used
//!   for the spectral estimate of the vanilla averaging time.
//! * [`traversal`] — BFS, connectivity, components, distances, diameter.
//! * [`dynamic`] — a live/dead edge mask over an immutable graph
//!   ([`DynamicGraphView`]) with connectivity and worst-surviving-subgraph
//!   spectral probes, the graph-layer counterpart of the simulator's
//!   fault-injection tier.
//!
//! # Examples
//!
//! Build the paper's dumbbell graph and inspect its canonical sparse cut:
//!
//! ```
//! use gossip_graph::generators::dumbbell;
//!
//! let (graph, partition) = dumbbell(16)?;
//! assert_eq!(graph.node_count(), 32);
//! assert_eq!(partition.cut_edge_count(), 1);
//! assert_eq!(partition.smaller_block_size(), 16);
//! # Ok::<(), gossip_graph::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cut;
pub mod dynamic;
pub mod generators;
pub mod graph;
pub mod laplacian;
pub mod partition;
pub mod spectral;
pub mod traversal;

pub use dynamic::DynamicGraphView;
pub use graph::{Edge, EdgeId, Graph, GraphBuilder, NodeId};
pub use partition::Partition;

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or analysing graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// A node index was out of range for the graph.
    NodeOutOfRange {
        /// The offending node index.
        node: usize,
        /// The number of nodes in the graph.
        node_count: usize,
    },
    /// An edge index was out of range for the graph.
    EdgeOutOfRange {
        /// The offending edge index.
        edge: usize,
        /// The number of edges in the graph.
        edge_count: usize,
    },
    /// A self-loop was supplied where simple graphs are required.
    SelfLoop {
        /// The node with the attempted self-loop.
        node: usize,
    },
    /// The same node pair was supplied twice where simple graphs are
    /// required ([`GraphBuilder::build`] checks this).
    DuplicateEdge {
        /// The smaller endpoint.
        a: usize,
        /// The larger endpoint.
        b: usize,
    },
    /// The graph has more nodes or edges than [`Graph`] can store (see
    /// [`GraphBuilder::build`]).
    TooLarge {
        /// The number of nodes asked for.
        node_count: usize,
        /// The number of edges asked for.
        edge_count: usize,
    },
    /// A generator was asked for an impossible configuration
    /// (e.g. a 0-node complete graph or a degree larger than `n − 1`).
    InvalidParameter {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// The graph (or a required subgraph) is not connected.
    Disconnected,
    /// A partition did not cover the vertex set exactly once.
    InvalidPartition {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An underlying linear-algebra computation failed.
    Linalg(gossip_linalg::LinalgError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(
                    f,
                    "node {node} out of range for graph with {node_count} nodes"
                )
            }
            GraphError::EdgeOutOfRange { edge, edge_count } => {
                write!(
                    f,
                    "edge {edge} out of range for graph with {edge_count} edges"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node} not allowed"),
            GraphError::DuplicateEdge { a, b } => {
                write!(f, "duplicate edge between nodes {a} and {b}")
            }
            GraphError::TooLarge {
                node_count,
                edge_count,
            } => write!(
                f,
                "graph with {node_count} nodes and {edge_count} edges is too large \
                 (at most {} nodes and {} edges)",
                graph::MAX_NODE_COUNT,
                graph::MAX_EDGE_COUNT
            ),
            GraphError::InvalidParameter { reason } => write!(f, "invalid parameter: {reason}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::InvalidPartition { reason } => write!(f, "invalid partition: {reason}"),
            GraphError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gossip_linalg::LinalgError> for GraphError {
    fn from(e: gossip_linalg::LinalgError) -> Self {
        GraphError::Linalg(e)
    }
}

/// Convenient result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            GraphError::NodeOutOfRange {
                node: 5,
                node_count: 3,
            },
            GraphError::EdgeOutOfRange {
                edge: 9,
                edge_count: 2,
            },
            GraphError::SelfLoop { node: 1 },
            GraphError::DuplicateEdge { a: 0, b: 1 },
            GraphError::TooLarge {
                node_count: 1 << 32,
                edge_count: 0,
            },
            GraphError::InvalidParameter {
                reason: "n must be positive".into(),
            },
            GraphError::Disconnected,
            GraphError::InvalidPartition {
                reason: "block overlap".into(),
            },
            GraphError::Linalg(gossip_linalg::LinalgError::Empty),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }

    #[test]
    fn linalg_error_source_chain() {
        let e = GraphError::Linalg(gossip_linalg::LinalgError::Empty);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&GraphError::Disconnected).is_none());
    }
}
