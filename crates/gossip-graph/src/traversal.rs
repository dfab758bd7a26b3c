//! Breadth-first traversal, connectivity, components, distances, and diameter.
//!
//! Connectivity checks matter throughout the reproduction: the paper's
//! Notation 1 requires `G`, `G₁`, and `G₂` to be connected, and the random
//! graph generators use these routines to validate (or retry) their output.

use crate::{Graph, NodeId, Result};
use std::collections::VecDeque;

/// Breadth-first distances (in hops) from `source` to every node.
///
/// Unreachable nodes get `usize::MAX`.
///
/// # Errors
///
/// Returns [`crate::GraphError::NodeOutOfRange`] if `source` is invalid.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Result<Vec<usize>> {
    graph.check_node(source)?;
    let mut dist = vec![usize::MAX; graph.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for (v, _) in graph.neighbors(u) {
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    Ok(dist)
}

/// Returns the connected component labels: `labels[i]` is the component index
/// of node `i`, with components numbered `0, 1, …` in order of discovery.
pub fn connected_components(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    let mut labels = vec![usize::MAX; n];
    let mut next = 0usize;
    for start in graph.nodes() {
        if labels[start.index()] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        labels[start.index()] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for (v, _) in graph.neighbors(u) {
                if labels[v.index()] == usize::MAX {
                    labels[v.index()] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    labels
}

/// Number of connected components; `0` for the empty graph.
pub fn component_count(graph: &Graph) -> usize {
    connected_components(graph)
        .into_iter()
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

/// Returns `true` if the graph is connected.  The empty graph and the
/// single-node graph are considered connected.
pub fn is_connected(graph: &Graph) -> bool {
    graph.node_count() <= 1 || component_count(graph) == 1
}

/// Eccentricity of `source`: the largest BFS distance to any reachable node.
///
/// # Errors
///
/// Returns [`crate::GraphError::NodeOutOfRange`] if `source` is invalid, and
/// [`crate::GraphError::Disconnected`] if some node is unreachable.
pub fn eccentricity(graph: &Graph, source: NodeId) -> Result<usize> {
    let dist = bfs_distances(graph, source)?;
    if dist.contains(&usize::MAX) {
        return Err(crate::GraphError::Disconnected);
    }
    Ok(dist.into_iter().max().unwrap_or(0))
}

/// Diameter: the maximum eccentricity over all nodes (exact, all-pairs BFS).
///
/// # Errors
///
/// Returns [`crate::GraphError::Disconnected`] if the graph is disconnected
/// (and non-trivial).  The empty and single-node graphs have diameter 0.
pub fn diameter(graph: &Graph) -> Result<usize> {
    if graph.node_count() <= 1 {
        return Ok(0);
    }
    let mut best = 0usize;
    for v in graph.nodes() {
        best = best.max(eccentricity(graph, v)?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use proptest::prelude::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId(0)).unwrap();
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, NodeId(2)).unwrap();
        assert_eq!(d2, vec![2, 1, 0, 1, 2]);
        assert!(bfs_distances(&g, NodeId(99)).is_err());
    }

    #[test]
    fn components_and_connectivity() {
        let g = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert_eq!(component_count(&g), 3);
        assert!(!is_connected(&g));
        assert!(is_connected(&path(4)));
        assert!(is_connected(&Graph::from_edges(1, &[]).unwrap()));
        assert!(is_connected(&Graph::from_edges(0, &[]).unwrap()));
        assert_eq!(component_count(&Graph::from_edges(0, &[]).unwrap()), 0);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path(5);
        assert_eq!(eccentricity(&g, NodeId(0)).unwrap(), 4);
        assert_eq!(eccentricity(&g, NodeId(2)).unwrap(), 2);
        assert_eq!(diameter(&g).unwrap(), 4);
        // A triangle has diameter 1.
        let t = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert_eq!(diameter(&t).unwrap(), 1);
        // Disconnected graphs report an error.
        let d = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(diameter(&d).is_err());
        assert!(eccentricity(&d, NodeId(0)).is_err());
        // Trivial graphs have diameter 0.
        assert_eq!(diameter(&Graph::from_edges(1, &[]).unwrap()).unwrap(), 0);
        assert_eq!(diameter(&Graph::from_edges(0, &[]).unwrap()).unwrap(), 0);
    }

    proptest! {
        #[test]
        fn prop_path_graph_distances_match_index_difference(n in 2usize..40, s in 0usize..40) {
            let s = s % n;
            let g = path(n);
            let d = bfs_distances(&g, NodeId(s)).unwrap();
            for (i, &di) in d.iter().enumerate() {
                prop_assert_eq!(di, i.abs_diff(s));
            }
        }

        #[test]
        fn prop_diameter_at_most_n_minus_one(n in 1usize..30) {
            let g = path(n.max(1));
            prop_assert!(diameter(&g).unwrap() <= n.saturating_sub(1));
        }

        #[test]
        fn prop_component_labels_partition_nodes(n in 1usize..25, seed in 0u64..300) {
            let mut builder = crate::GraphBuilder::new(n);
            let mut seen = std::collections::BTreeSet::new();
            let mut state = seed.wrapping_add(3);
            for _ in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = (state >> 33) as usize % n;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = (state >> 33) as usize % n;
                if a != b && seen.insert((a.min(b), a.max(b))) {
                    builder.add_edge(a, b).unwrap();
                }
            }
            let g = builder.build().unwrap();
            let labels = connected_components(&g);
            prop_assert_eq!(labels.len(), n);
            // Adjacent nodes always share a component label.
            for e in g.edges() {
                prop_assert_eq!(labels[e.u().index()], labels[e.v().index()]);
            }
        }
    }
}
