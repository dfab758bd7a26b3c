//! Matrix representations of a graph: adjacency, Laplacian, normalized
//! Laplacian, and the expected single-tick gossip matrix.
//!
//! The spectral gap of these matrices is what makes "internally well
//! connected" quantitative: the vanilla averaging time of a subgraph scales
//! like `1/λ₂` of its gossip Laplacian (up to logarithmic factors), which is
//! exactly the quantity Algorithm A's epoch length is built from.
//!
//! Every builder comes in two flavours: dense ([`gossip_linalg::Matrix`],
//! O(n²) storage, the reference representation) and sparse
//! ([`gossip_linalg::CsrMatrix`], O(|V| + |E|) storage, the scaling-tier
//! representation).  The sparse builders produce exactly the same entries as
//! their dense counterparts — the workspace's differential oracle suite
//! asserts elementwise agreement on every generator family.

use crate::{Graph, Result};
use gossip_linalg::{CsrMatrix, Matrix};

/// Dense adjacency matrix `A` with `A[i][j] = 1` iff `{i, j} ∈ E`.
pub fn adjacency_matrix(graph: &Graph) -> Matrix {
    let n = graph.node_count();
    let mut m = Matrix::zeros(n, n);
    for edge in graph.edges() {
        m.set(edge.u().index(), edge.v().index(), 1.0);
        m.set(edge.v().index(), edge.u().index(), 1.0);
    }
    m
}

/// Combinatorial Laplacian `L = D − A`.
///
/// `L` is symmetric positive semi-definite with row sums zero; its smallest
/// eigenvalue is 0 (eigenvector: all-ones) and its second-smallest eigenvalue
/// `λ₂` is the algebraic connectivity.
pub fn laplacian(graph: &Graph) -> Matrix {
    let n = graph.node_count();
    let mut m = Matrix::zeros(n, n);
    for edge in graph.edges() {
        let (u, v) = (edge.u().index(), edge.v().index());
        m.add_to(u, u, 1.0);
        m.add_to(v, v, 1.0);
        m.add_to(u, v, -1.0);
        m.add_to(v, u, -1.0);
    }
    m
}

/// Symmetric normalized Laplacian `𝓛 = D^{-1/2} L D^{-1/2}`.
///
/// Rows/columns of isolated (degree-0) nodes are left as zero.
pub fn normalized_laplacian(graph: &Graph) -> Matrix {
    let n = graph.node_count();
    let lap = laplacian(graph);
    let inv_sqrt: Vec<f64> = graph
        .nodes()
        .map(|v| {
            let d = graph.degree(v) as f64;
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    Matrix::from_fn(n, n, |i, j| lap.get(i, j) * inv_sqrt[i] * inv_sqrt[j])
}

/// Expected one-tick update matrix of vanilla edge-clock gossip.
///
/// When the clock of edge `{i, j}` ticks, the state is multiplied by
/// `W_{ij} = I − (e_i − e_j)(e_i − e_j)ᵀ / 2`.  With every edge equally likely
/// to be the next to tick, the expected update matrix is
///
/// `W̄ = I − L / (2 |E|)`.
///
/// Its second-largest eigenvalue controls the per-tick contraction of the
/// expected disagreement, and hence the vanilla averaging time.
///
/// # Errors
///
/// Returns [`crate::GraphError::InvalidParameter`] if the graph has no edges.
pub fn expected_gossip_matrix(graph: &Graph) -> Result<Matrix> {
    if graph.edge_count() == 0 {
        return Err(crate::GraphError::InvalidParameter {
            reason: "expected gossip matrix requires at least one edge".into(),
        });
    }
    let n = graph.node_count();
    let lap = laplacian(graph);
    let scale = 1.0 / (2.0 * graph.edge_count() as f64);
    let mut m = Matrix::identity(n);
    for i in 0..n {
        for j in 0..n {
            m.add_to(i, j, -scale * lap.get(i, j));
        }
    }
    Ok(m)
}

/// Sparse CSR adjacency matrix, entrywise identical to [`adjacency_matrix`]
/// but with O(|E|) storage.
pub fn adjacency_matrix_sparse(graph: &Graph) -> CsrMatrix {
    let n = graph.node_count();
    let mut triplets = Vec::with_capacity(2 * graph.edge_count());
    for edge in graph.edges() {
        let (u, v) = (edge.u().index(), edge.v().index());
        triplets.push((u, v, 1.0));
        triplets.push((v, u, 1.0));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("edge endpoints are in range")
}

/// Sparse CSR combinatorial Laplacian `L = D − A`, entrywise identical to
/// [`laplacian`] but with O(|V| + |E|) storage.
pub fn laplacian_sparse(graph: &Graph) -> CsrMatrix {
    let n = graph.node_count();
    let mut triplets = Vec::with_capacity(n + 2 * graph.edge_count());
    for v in graph.nodes() {
        let d = graph.degree(v) as f64;
        if d > 0.0 {
            triplets.push((v.index(), v.index(), d));
        }
    }
    for edge in graph.edges() {
        let (u, v) = (edge.u().index(), edge.v().index());
        triplets.push((u, v, -1.0));
        triplets.push((v, u, -1.0));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("edge endpoints are in range")
}

/// Sparse CSR symmetric normalized Laplacian `𝓛 = D^{-1/2} L D^{-1/2}`,
/// entrywise identical to [`normalized_laplacian`]; rows/columns of isolated
/// nodes stay empty.
pub fn normalized_laplacian_sparse(graph: &Graph) -> CsrMatrix {
    let n = graph.node_count();
    let inv_sqrt: Vec<f64> = graph
        .nodes()
        .map(|v| {
            let d = graph.degree(v) as f64;
            if d > 0.0 {
                1.0 / d.sqrt()
            } else {
                0.0
            }
        })
        .collect();
    let mut triplets = Vec::with_capacity(n + 2 * graph.edge_count());
    for v in graph.nodes() {
        let i = v.index();
        let d = graph.degree(v) as f64;
        if d > 0.0 {
            // Diagonal of L is the degree, so 𝓛_{ii} = d · (1/√d)² = 1.
            triplets.push((i, i, d * inv_sqrt[i] * inv_sqrt[i]));
        }
    }
    for edge in graph.edges() {
        let (u, v) = (edge.u().index(), edge.v().index());
        let w = -inv_sqrt[u] * inv_sqrt[v];
        triplets.push((u, v, w));
        triplets.push((v, u, w));
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("edge endpoints are in range")
}

/// Sparse CSR expected one-tick gossip matrix `W̄ = I − L/(2|E|)`, entrywise
/// identical to [`expected_gossip_matrix`].
///
/// # Errors
///
/// Returns [`crate::GraphError::InvalidParameter`] if the graph has no edges.
pub fn expected_gossip_matrix_sparse(graph: &Graph) -> Result<CsrMatrix> {
    if graph.edge_count() == 0 {
        return Err(crate::GraphError::InvalidParameter {
            reason: "expected gossip matrix requires at least one edge".into(),
        });
    }
    let n = graph.node_count();
    let scale = 1.0 / (2.0 * graph.edge_count() as f64);
    let mut triplets = Vec::with_capacity(n + 2 * graph.edge_count());
    for v in graph.nodes() {
        let d = graph.degree(v) as f64;
        triplets.push((v.index(), v.index(), 1.0 - scale * d));
    }
    for edge in graph.edges() {
        let (u, v) = (edge.u().index(), edge.v().index());
        triplets.push((u, v, scale));
        triplets.push((v, u, scale));
    }
    Ok(CsrMatrix::from_triplets(n, n, &triplets).expect("edge endpoints are in range"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use gossip_linalg::{SymmetricEigen, Vector};

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    fn path(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn adjacency_symmetric_and_correct() {
        let a = adjacency_matrix(&triangle());
        assert!(a.is_symmetric(1e-12));
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert!((a.frobenius_norm().powi(2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_row_sums_zero_and_psd() {
        let l = laplacian(&triangle());
        assert!(l.rows_sum_to(0.0, 1e-12));
        assert!(l.is_symmetric(1e-12));
        let eig = SymmetricEigen::compute(&l).unwrap();
        assert!(eig.smallest() > -1e-9);
        assert!(eig.smallest().abs() < 1e-9);
        // Triangle = K3: non-zero eigenvalues are all 3.
        assert!((eig.second_smallest().unwrap() - 3.0).abs() < 1e-8);
    }

    #[test]
    fn laplacian_quadratic_form_counts_edge_differences() {
        let g = path(3);
        let l = laplacian(&g);
        let x = Vector::from(vec![0.0, 2.0, 5.0]);
        let expected = (0.0f64 - 2.0).powi(2) + (2.0f64 - 5.0).powi(2);
        assert!((l.quadratic_form(&x).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn normalized_laplacian_spectrum_bounded_by_two() {
        let g = path(5);
        let nl = normalized_laplacian(&g);
        assert!(nl.is_symmetric(1e-12));
        let eig = SymmetricEigen::compute(&nl).unwrap();
        assert!(eig.smallest().abs() < 1e-9);
        assert!(eig.largest() <= 2.0 + 1e-9);
        // Diagonal entries are 1 for non-isolated nodes.
        for i in 0..5 {
            assert!((nl.get(i, i) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_laplacian_handles_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let nl = normalized_laplacian(&g);
        assert_eq!(nl.get(2, 2), 0.0);
        assert_eq!(nl.get(2, 0), 0.0);
    }

    #[test]
    fn expected_gossip_matrix_is_doubly_stochastic() {
        let g = triangle();
        let w = expected_gossip_matrix(&g).unwrap();
        assert!(w.rows_sum_to(1.0, 1e-12));
        assert!(w.is_symmetric(1e-12));
        // Preserves the all-ones vector exactly.
        let ones = Vector::ones(3);
        let wo = w.matvec(&ones).unwrap();
        assert!(wo.distance(&ones).unwrap() < 1e-12);
        // Its eigenvalues lie in [0, 1] with the top one equal to 1.
        let eig = SymmetricEigen::compute(&w).unwrap();
        assert!((eig.largest() - 1.0).abs() < 1e-9);
        assert!(eig.smallest() > -1e-9);
    }

    #[test]
    fn expected_gossip_matrix_requires_edges() {
        let g = Graph::from_edges(3, &[]).unwrap();
        assert!(expected_gossip_matrix(&g).is_err());
    }

    #[test]
    fn gossip_matrix_relation_to_laplacian() {
        // W̄ = I − L/(2|E|): verify entrywise.
        let g = path(4);
        let w = expected_gossip_matrix(&g).unwrap();
        let l = laplacian(&g);
        let m = graph_identity(4);
        for i in 0..4 {
            for j in 0..4 {
                let expected = m.get(i, j) - l.get(i, j) / (2.0 * g.edge_count() as f64);
                assert!((w.get(i, j) - expected).abs() < 1e-12);
            }
        }
    }

    fn graph_identity(n: usize) -> Matrix {
        Matrix::identity(n)
    }

    #[test]
    fn sparse_builders_match_dense_entrywise() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]).unwrap();
        assert_eq!(adjacency_matrix_sparse(&g).to_dense(), adjacency_matrix(&g));
        assert_eq!(laplacian_sparse(&g).to_dense(), laplacian(&g));
        assert_eq!(
            normalized_laplacian_sparse(&g).to_dense(),
            normalized_laplacian(&g)
        );
        assert_eq!(
            expected_gossip_matrix_sparse(&g).unwrap().to_dense(),
            expected_gossip_matrix(&g).unwrap()
        );
    }

    #[test]
    fn sparse_laplacian_storage_is_linear_in_edges() {
        let g = path(6);
        let lap = laplacian_sparse(&g);
        // 6 diagonal entries + 2 per edge.
        assert_eq!(lap.nnz(), 6 + 2 * g.edge_count());
        assert!(lap.is_symmetric(0.0));
        assert!(lap.rows_sum_to(0.0, 1e-12));
    }

    #[test]
    fn sparse_builders_handle_isolated_nodes() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let lap = laplacian_sparse(&g);
        assert_eq!(lap.row_nnz(2), 0);
        let norm = normalized_laplacian_sparse(&g);
        assert_eq!(norm.row_nnz(2), 0);
        assert_eq!(norm.to_dense(), normalized_laplacian(&g));
    }

    #[test]
    fn sparse_gossip_matrix_requires_edges() {
        let g = Graph::from_edges(3, &[]).unwrap();
        assert!(expected_gossip_matrix_sparse(&g).is_err());
        let connected = triangle();
        let w = expected_gossip_matrix_sparse(&connected).unwrap();
        assert!(w.rows_sum_to(1.0, 1e-12));
        assert!(w.is_symmetric(1e-15));
    }
}
