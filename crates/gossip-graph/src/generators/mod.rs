//! Graph generators.
//!
//! Three families:
//!
//! * [`deterministic`] — classical graphs (complete, path, cycle, star, grid,
//!   torus, hypercube, complete bipartite) used as building blocks and as
//!   analytically tractable test cases.
//! * [`random`] — Erdős–Rényi, random-regular, and random-geometric graphs,
//!   all seeded for reproducibility.
//! * [`sparse_cut`] — the constructions the paper actually studies: the
//!   dumbbell graph from the motivating example (two cliques joined by a
//!   single edge), bridged random clusters, two-block stochastic block
//!   models, and a grid with a narrow corridor.  These return the graph
//!   *together with* its canonical [`crate::Partition`] so experiments know
//!   `V₁`, `V₂`, and `E₁₂` exactly as the paper assumes.
//! * [`scale`] — bounded-degree analogues of the sparse-cut families
//!   (chordal-ring expander dumbbells/barbells, rings of cliques) whose edge
//!   counts stay O(n log n), used by the large-`n` scaling tier.

use crate::partition::Block;
use crate::{Graph, Partition, Result};

pub mod deterministic;
pub mod random;
pub mod scale;
pub mod sparse_cut;

pub use deterministic::{
    complete, complete_bipartite, cycle, grid2d, hypercube, path, star, torus2d,
};
pub use random::{erdos_renyi, erdos_renyi_connected, random_geometric, random_regular};
pub use scale::{chordal_ring, expander_barbell, expander_dumbbell, ring_of_cliques};
pub use sparse_cut::{barbell, bridged_clusters, dumbbell, grid_corridor, two_block_sbm};

/// The canonical partition of the sparse-cut families: block one is the
/// nodes `0..n1`, block two the rest.
fn block_one_partition(graph: &Graph, n1: usize) -> Result<Partition> {
    let membership = (0..graph.node_count())
        .map(|node| if node < n1 { Block::One } else { Block::Two })
        .collect();
    Partition::from_membership(graph, membership)
}
