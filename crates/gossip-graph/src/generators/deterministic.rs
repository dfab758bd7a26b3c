//! Deterministic graph families.
//!
//! Each generator validates its parameters and returns a simple, connected
//! graph (except where the family is inherently disconnected for degenerate
//! parameters, which is rejected instead).

use crate::{Graph, GraphBuilder, GraphError, Result};

fn require(condition: bool, reason: &str) -> Result<()> {
    if condition {
        Ok(())
    } else {
        Err(GraphError::InvalidParameter {
            reason: reason.to_string(),
        })
    }
}

/// Complete graph `K_n` on `n ≥ 1` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
pub fn complete(n: usize) -> Result<Graph> {
    require(n >= 1, "complete graph requires n >= 1")?;
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            builder.add_edge(i, j)?;
        }
    }
    builder.build()
}

/// Path graph `P_n` on `n ≥ 1` nodes (`0 − 1 − … − n−1`).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
pub fn path(n: usize) -> Result<Graph> {
    require(n >= 1, "path graph requires n >= 1")?;
    let mut builder = GraphBuilder::new(n);
    for i in 0..n.saturating_sub(1) {
        builder.add_edge(i, i + 1)?;
    }
    builder.build()
}

/// Cycle graph `C_n` on `n ≥ 3` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn cycle(n: usize) -> Result<Graph> {
    require(n >= 3, "cycle graph requires n >= 3")?;
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        builder.add_edge(i, (i + 1) % n)?;
    }
    builder.build()
}

/// Star graph on `n ≥ 2` nodes: node 0 is the hub.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph> {
    require(n >= 2, "star graph requires n >= 2")?;
    let mut builder = GraphBuilder::new(n);
    for i in 1..n {
        builder.add_edge(0, i)?;
    }
    builder.build()
}

/// 2-D grid graph with `rows × cols` nodes, 4-neighbour connectivity.
///
/// Node `(r, c)` has index `r * cols + c`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either dimension is zero.
pub fn grid2d(rows: usize, cols: usize) -> Result<Graph> {
    require(rows >= 1 && cols >= 1, "grid requires positive dimensions")?;
    let mut builder = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if c + 1 < cols {
                builder.add_edge(idx, idx + 1)?;
            }
            if r + 1 < rows {
                builder.add_edge(idx, idx + cols)?;
            }
        }
    }
    builder.build()
}

/// 2-D torus (grid with wraparound), `rows × cols` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either dimension is < 3 (the
/// wraparound would create parallel edges otherwise).
pub fn torus2d(rows: usize, cols: usize) -> Result<Graph> {
    require(rows >= 3 && cols >= 3, "torus requires dimensions >= 3")?;
    let mut builder = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            builder.add_edge(idx, right)?;
            builder.add_edge(idx, down)?;
        }
    }
    builder.build()
}

/// Hypercube graph `Q_d` on `2^d` nodes, `d ≥ 1`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `d == 0` or `d > 20`.
pub fn hypercube(dimension: usize) -> Result<Graph> {
    require(dimension >= 1, "hypercube requires dimension >= 1")?;
    require(dimension <= 20, "hypercube limited to dimension <= 20")?;
    let n = 1usize << dimension;
    let mut builder = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..dimension {
            let u = v ^ (1 << bit);
            if v < u {
                builder.add_edge(v, u)?;
            }
        }
    }
    builder.build()
}

/// Complete bipartite graph `K_{a,b}`: nodes `0..a` on one side, `a..a+b` on
/// the other.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if either side is empty.
pub fn complete_bipartite(a: usize, b: usize) -> Result<Graph> {
    require(
        a >= 1 && b >= 1,
        "complete bipartite requires both sides non-empty",
    )?;
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(i, a + j)?;
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_connected};
    use proptest::prelude::*;

    #[test]
    fn complete_graph_edge_count() {
        for n in 1..=8 {
            let g = complete(n).unwrap();
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n * (n - 1) / 2);
            assert!(is_connected(&g));
            if n > 1 {
                assert_eq!(g.min_degree(), n - 1);
                assert_eq!(g.max_degree(), n - 1);
            }
        }
        assert!(complete(0).is_err());
    }

    #[test]
    fn path_and_cycle() {
        let p = path(6).unwrap();
        assert_eq!(p.edge_count(), 5);
        assert_eq!(diameter(&p).unwrap(), 5);
        assert!(path(0).is_err());
        assert_eq!(path(1).unwrap().edge_count(), 0);

        let c = cycle(6).unwrap();
        assert_eq!(c.edge_count(), 6);
        assert_eq!(c.min_degree(), 2);
        assert_eq!(c.max_degree(), 2);
        assert_eq!(diameter(&c).unwrap(), 3);
        assert!(cycle(2).is_err());
    }

    #[test]
    fn star_graph() {
        let s = star(7).unwrap();
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.degree(crate::NodeId(0)), 6);
        assert_eq!(s.degree(crate::NodeId(3)), 1);
        assert_eq!(diameter(&s).unwrap(), 2);
        assert!(star(1).is_err());
    }

    #[test]
    fn grid_and_torus() {
        let g = grid2d(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        // Edge count: rows*(cols-1) + cols*(rows-1) = 3*3 + 4*2 = 17.
        assert_eq!(g.edge_count(), 17);
        assert!(is_connected(&g));
        assert_eq!(diameter(&g).unwrap(), 5);
        assert!(grid2d(0, 3).is_err());

        let t = torus2d(3, 3).unwrap();
        assert_eq!(t.node_count(), 9);
        assert_eq!(t.edge_count(), 18);
        assert_eq!(t.min_degree(), 4);
        assert_eq!(t.max_degree(), 4);
        assert!(torus2d(2, 3).is_err());
    }

    #[test]
    fn hypercube_graph() {
        let q3 = hypercube(3).unwrap();
        assert_eq!(q3.node_count(), 8);
        assert_eq!(q3.edge_count(), 12);
        assert_eq!(q3.min_degree(), 3);
        assert_eq!(q3.max_degree(), 3);
        assert_eq!(diameter(&q3).unwrap(), 3);
        assert!(hypercube(0).is_err());
        assert!(hypercube(21).is_err());
    }

    #[test]
    fn complete_bipartite_graph() {
        let g = complete_bipartite(2, 3).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(crate::NodeId(0)), 3);
        assert_eq!(g.degree(crate::NodeId(4)), 2);
        assert!(complete_bipartite(0, 3).is_err());
    }

    proptest! {
        #[test]
        fn prop_deterministic_families_connected(n in 3usize..30) {
            prop_assert!(is_connected(&complete(n).unwrap()));
            prop_assert!(is_connected(&path(n).unwrap()));
            prop_assert!(is_connected(&cycle(n).unwrap()));
            prop_assert!(is_connected(&star(n).unwrap()));
        }

        #[test]
        fn prop_grid_edge_count(rows in 1usize..8, cols in 1usize..8) {
            let g = grid2d(rows, cols).unwrap();
            prop_assert_eq!(g.edge_count(), rows * (cols - 1) + cols * (rows - 1));
        }

        #[test]
        fn prop_hypercube_regular(d in 1usize..7) {
            let g = hypercube(d).unwrap();
            prop_assert_eq!(g.node_count(), 1 << d);
            prop_assert_eq!(g.edge_count(), d * (1 << d) / 2);
            prop_assert_eq!(g.min_degree(), d);
            prop_assert_eq!(g.max_degree(), d);
        }
    }
}
