//! Summary statistics of a graph: degree distribution, density, and a
//! combined structural report used by the experiment harness when printing
//! workload descriptions.

use crate::{traversal, Graph, Result};

/// Structural summary of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetrics {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of edges.
    pub edge_count: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Average degree `2|E|/|V|`.
    pub average_degree: f64,
    /// Edge density `|E| / (|V| choose 2)`.
    pub density: f64,
    /// Number of connected components.
    pub component_count: usize,
    /// Diameter, if the graph is connected.
    pub diameter: Option<usize>,
}

impl GraphMetrics {
    /// Computes the summary.  The diameter is computed only for connected
    /// graphs with at most `max_diameter_nodes` nodes (all-pairs BFS is
    /// quadratic); pass `usize::MAX` to always compute it.
    ///
    /// # Errors
    ///
    /// Propagates traversal errors (none are expected for valid graphs).
    pub fn compute(graph: &Graph, max_diameter_nodes: usize) -> Result<Self> {
        let component_count = traversal::component_count(graph);
        let connected = graph.node_count() <= 1 || component_count == 1;
        let diameter = if connected && graph.node_count() <= max_diameter_nodes {
            Some(traversal::diameter(graph)?)
        } else {
            None
        };
        Ok(GraphMetrics {
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            min_degree: graph.min_degree(),
            max_degree: graph.max_degree(),
            average_degree: graph.average_degree(),
            density: density(graph),
            component_count,
            diameter,
        })
    }
}

/// Edge density `|E| / (|V| choose 2)`; `0.0` for graphs with fewer than two
/// nodes.
pub fn density(graph: &Graph) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        0.0
    } else {
        graph.edge_count() as f64 / (n * (n - 1) / 2) as f64
    }
}

/// Degree histogram: `histogram[d]` is the number of nodes with degree `d`.
pub fn degree_histogram(graph: &Graph) -> Vec<usize> {
    let mut histogram = vec![0usize; graph.max_degree() + 1];
    for v in graph.nodes() {
        histogram[graph.degree(v)] += 1;
    }
    if graph.node_count() == 0 {
        histogram.clear();
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn density_of_complete_graph_is_one() {
        let g = generators::complete(7).unwrap();
        assert!((density(&g) - 1.0).abs() < 1e-12);
        let p = generators::path(7).unwrap();
        assert!(density(&p) < 1.0);
        assert_eq!(density(&crate::Graph::from_edges(1, &[]).unwrap()), 0.0);
    }

    #[test]
    fn degree_histogram_star() {
        let g = generators::star(5).unwrap();
        let h = degree_histogram(&g);
        // Four leaves of degree 1, one hub of degree 4.
        assert_eq!(h, vec![0, 4, 0, 0, 1]);
        assert!(degree_histogram(&crate::Graph::from_edges(0, &[]).unwrap()).is_empty());
    }

    #[test]
    fn metrics_of_dumbbell() {
        let (g, _) = generators::dumbbell(4).unwrap();
        let m = GraphMetrics::compute(&g, usize::MAX).unwrap();
        assert_eq!(m.node_count, 8);
        assert_eq!(m.edge_count, 13);
        assert_eq!(m.component_count, 1);
        assert_eq!(m.min_degree, 3);
        assert_eq!(m.max_degree, 4);
        assert_eq!(m.diameter, Some(3));
        assert!(m.density > 0.0 && m.density < 1.0);
        assert!((m.average_degree - 2.0 * 13.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn metrics_skip_diameter_when_too_large_or_disconnected() {
        let (g, _) = generators::dumbbell(4).unwrap();
        let m = GraphMetrics::compute(&g, 4).unwrap();
        assert_eq!(m.diameter, None);
        let disconnected = crate::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let m = GraphMetrics::compute(&disconnected, usize::MAX).unwrap();
        assert_eq!(m.diameter, None);
        assert_eq!(m.component_count, 2);
    }
}
