//! Seeded random graph families.
//!
//! All generators take an explicit `u64` seed and use ChaCha8 so that every
//! experiment in the workspace is reproducible bit-for-bit.

use crate::{Graph, GraphBuilder, GraphError, Result};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Erdős–Rényi graph `G(n, p)`: each of the `n(n−1)/2` possible edges is
/// present independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0` or `p ∉ [0, 1]`.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<Graph> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "Erdős–Rényi graph requires n >= 1".into(),
        });
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability must lie in [0, 1], got {p}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                builder.add_edge(i, j)?;
            }
        }
    }
    builder.build()
}

/// Erdős–Rényi graph conditioned on being connected: resamples (with seeds
/// `seed`, `seed + 1`, …) until a connected sample is drawn.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] for invalid `n`/`p` and
/// [`GraphError::Disconnected`] if no connected sample is found within
/// `max_attempts` tries.
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64, max_attempts: usize) -> Result<Graph> {
    for attempt in 0..max_attempts {
        let g = erdos_renyi(n, p, seed.wrapping_add(attempt as u64))?;
        if crate::traversal::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::Disconnected)
}

/// Random `d`-regular graph via the configuration model with rejection of
/// self-loops and parallel edges (retrying whole samples as needed).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n·d` is odd, `d ≥ n`, or
/// `d == 0`, and [`GraphError::Disconnected`] if no simple connected sample
/// is found within a generous retry budget.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph> {
    if d == 0 || d >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!("random regular graph requires 0 < d < n, got d = {d}, n = {n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("n·d must be even, got n = {n}, d = {d}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    const MAX_ATTEMPTS: usize = 1000;
    'attempt: for _ in 0..MAX_ATTEMPTS {
        // Stubs: d copies of every node, shuffled and paired off.
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(&mut rng);
        let mut builder = GraphBuilder::new(n);
        for pair in stubs.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b {
                continue 'attempt;
            }
            builder.add_edge(a, b)?;
        }
        let g = match builder.build() {
            Ok(g) => g,
            Err(GraphError::DuplicateEdge { .. }) => continue 'attempt,
            Err(e) => return Err(e),
        };
        if crate::traversal::is_connected(&g) {
            return Ok(g);
        }
    }
    Err(GraphError::Disconnected)
}

/// Random geometric graph: `n` points uniform in the unit square, an edge
/// between every pair at Euclidean distance at most `radius`.
///
/// Returns the graph and the sampled positions (useful for plotting and for
/// geographic-style workloads).
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0` or `radius <= 0`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Result<(Graph, Vec<(f64, f64)>)> {
    if n == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "random geometric graph requires n >= 1".into(),
        });
    }
    if radius <= 0.0 || !radius.is_finite() {
        return Err(GraphError::InvalidParameter {
            reason: format!("radius must be positive and finite, got {radius}"),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let mut builder = GraphBuilder::new(n);
    let r2 = radius * radius;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = positions[i].0 - positions[j].0;
            let dy = positions[i].1 - positions[j].1;
            if dx * dx + dy * dy <= r2 {
                builder.add_edge(i, j)?;
            }
        }
    }
    Ok((builder.build()?, positions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use proptest::prelude::*;

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let empty = erdos_renyi(10, 0.0, 1).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, 1).unwrap();
        assert_eq!(full.edge_count(), 45);
        assert!(erdos_renyi(0, 0.5, 1).is_err());
        assert!(erdos_renyi(5, 1.5, 1).is_err());
        assert!(erdos_renyi(5, -0.1, 1).is_err());
    }

    #[test]
    fn erdos_renyi_is_reproducible() {
        let a = erdos_renyi(20, 0.3, 42).unwrap();
        let b = erdos_renyi(20, 0.3, 42).unwrap();
        assert_eq!(a, b);
        let c = erdos_renyi(20, 0.3, 43).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let n = 60;
        let p = 0.25;
        let g = erdos_renyi(n, p, 7).unwrap();
        let expected = p * (n * (n - 1) / 2) as f64;
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            ((g.edge_count() as f64) - expected).abs() < 5.0 * sd,
            "edge count {} too far from expectation {expected}",
            g.edge_count()
        );
    }

    #[test]
    fn erdos_renyi_connected_retries() {
        // p well above the connectivity threshold: succeeds quickly.
        let g = erdos_renyi_connected(30, 0.3, 5, 50).unwrap();
        assert!(is_connected(&g));
        // p = 0 can never be connected for n >= 2.
        assert!(matches!(
            erdos_renyi_connected(5, 0.0, 5, 10),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn random_regular_degrees() {
        let g = random_regular(16, 4, 11).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 32);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        assert!(random_regular(5, 0, 1).is_err());
        assert!(random_regular(5, 5, 1).is_err());
        assert!(random_regular(5, 3, 1).is_err()); // odd n*d
    }

    #[test]
    fn random_regular_reproducible() {
        let a = random_regular(12, 3, 99).unwrap();
        let b = random_regular(12, 3, 99).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn random_geometric_radius_extremes() {
        let (g, pos) = random_geometric(15, 2.0, 3).unwrap();
        // Radius √2 covers the whole unit square, so the graph is complete.
        assert_eq!(g.edge_count(), 15 * 14 / 2);
        assert_eq!(pos.len(), 15);
        for (x, y) in pos {
            assert!((0.0..=1.0).contains(&x));
            assert!((0.0..=1.0).contains(&y));
        }
        let (tiny, _) = random_geometric(15, 1e-9, 3).unwrap();
        assert_eq!(tiny.edge_count(), 0);
        assert!(random_geometric(0, 0.1, 3).is_err());
        assert!(random_geometric(5, 0.0, 3).is_err());
        assert!(random_geometric(5, f64::NAN, 3).is_err());
    }

    #[test]
    fn random_geometric_respects_radius() {
        let (g, pos) = random_geometric(40, 0.3, 17).unwrap();
        for e in g.edges() {
            let (ax, ay) = pos[e.u().index()];
            let (bx, by) = pos[e.v().index()];
            let dist = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
            assert!(dist <= 0.3 + 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_er_edge_count_bounded(n in 1usize..40, seed in 0u64..50) {
            let g = erdos_renyi(n, 0.5, seed).unwrap();
            prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        }

        #[test]
        fn prop_random_regular_handshake(k in 2usize..6, seed in 0u64..20) {
            let n = 2 * k + 4;
            let d = 3;
            if (n * d) % 2 == 0 {
                let g = random_regular(n, d, seed).unwrap();
                let total: usize = g.nodes().map(|v| g.degree(v)).sum();
                prop_assert_eq!(total, n * d);
            }
        }
    }
}
