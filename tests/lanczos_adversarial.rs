//! Lanczos on adversarial spectra, seed-pinned via the `tests/common`
//! registry.
//!
//! Three spectra that break naive iterative eigensolvers:
//!
//! * **near-degenerate leading eigenvalues** — a clique-pair barbell has an
//!   exactly degenerate cluster of ~`2·(half − 1)` eigenvalues at the clique
//!   value immediately below the isolated `λ_max`, the classic regime where
//!   Lanczos without reorthogonalization fabricates ghost eigenvalues;
//! * **disconnected graphs** — a second zero eigenvalue survives the
//!   all-ones deflation, and the solver must report a Fiedler value of
//!   (numerically) zero rather than silently skipping it;
//! * **a single-edge graph** — after deflation the Krylov space is
//!   one-dimensional, exercising the happy-breakdown path on the smallest
//!   possible instance.

mod common;

use common::seeds;
use sparse_cut_gossip::graph::laplacian::{laplacian, laplacian_sparse};
use sparse_cut_gossip::graph::spectral;
use sparse_cut_gossip::linalg::SymmetricEigen;
use sparse_cut_gossip::prelude::*;

#[test]
fn near_degenerate_barbell_spectrum_matches_dense() {
    // K_16–K_16 with one bridge: λ_max ≈ 16 with an almost exactly
    // degenerate partner, and a tight cluster of 30 eigenvalues at ≈ 16.
    let (graph, partition) = barbell(16, 16).expect("valid barbell");
    assert_eq!(partition.cut_edge_count(), 1);
    let dense = SymmetricEigen::compute(&laplacian(&graph)).expect("dense reference");
    let lanczos = Lanczos::new()
        .with_deflation(Vector::ones(graph.node_count()))
        .run(&laplacian_sparse(&graph))
        .expect("lanczos on barbell");
    let scale = dense.largest().max(1.0);
    assert!(
        (lanczos.largest - dense.largest()).abs() <= 1e-7 * scale,
        "λ_max: lanczos {} vs jacobi {}",
        lanczos.largest,
        dense.largest()
    );
    assert!(
        (lanczos.smallest - dense.second_smallest().unwrap()).abs() <= 1e-7 * scale,
        "λ₂: lanczos {} vs jacobi {}",
        lanczos.smallest,
        dense.second_smallest().unwrap()
    );
    // The spectrum really is adversarial: right below the isolated λ_max
    // sits an (exactly) degenerate cluster of ~2·(half − 1) eigenvalues at
    // the clique value `half` — the regime where Lanczos without
    // reorthogonalization produces spurious ghost eigenvalues.
    let n = dense.eigenvalues().len();
    assert!((dense.eigenvalues()[n - 2] - 16.0).abs() < 1e-9);
    assert!((dense.eigenvalues()[n - 8] - 16.0).abs() < 1e-9);
    assert!(dense.largest() > 16.5);
}

#[test]
fn asymmetric_barbell_cluster_is_resolved_too() {
    let (graph, _) = barbell(12, 20).expect("valid barbell");
    let dense = SymmetricEigen::compute(&laplacian(&graph)).expect("dense reference");
    let lanczos = Lanczos::new()
        .with_deflation(Vector::ones(graph.node_count()))
        .run(&laplacian_sparse(&graph))
        .expect("lanczos on asymmetric barbell");
    let scale = dense.largest().max(1.0);
    assert!((lanczos.largest - dense.largest()).abs() <= 1e-7 * scale);
    assert!((lanczos.smallest - dense.second_smallest().unwrap()).abs() <= 1e-7 * scale);
}

#[test]
fn disconnected_graph_has_zero_fiedler_value() {
    // Two healthy ER clusters with no bridge between them: build the two
    // halves of a bridged-clusters instance without its bridges.
    let g1 = sparse_cut_gossip::graph::generators::erdos_renyi_connected(
        9,
        0.6,
        seeds::LANCZOS_DISCONNECTED,
        100,
    )
    .expect("connected cluster");
    let g2 = sparse_cut_gossip::graph::generators::erdos_renyi_connected(
        8,
        0.6,
        seeds::LANCZOS_DISCONNECTED.wrapping_add(1),
        100,
    )
    .expect("connected cluster");
    let n = g1.node_count() + g2.node_count();
    let mut builder = GraphBuilder::new(n);
    for e in g1.edges() {
        builder.add_edge(e.u().index(), e.v().index()).unwrap();
    }
    for e in g2.edges() {
        builder
            .add_edge(
                g1.node_count() + e.u().index(),
                g1.node_count() + e.v().index(),
            )
            .unwrap();
    }
    let graph = builder.build().expect("disjoint clusters repeat no pair");
    assert!(!sparse_cut_gossip::graph::traversal::is_connected(&graph));

    // The deflated Lanczos run sees the surviving zero eigenvalue (the
    // component-indicator direction) as its smallest Ritz value.
    let lanczos = Lanczos::new()
        .with_deflation(Vector::ones(n))
        .run(&laplacian_sparse(&graph))
        .expect("lanczos on disconnected graph");
    assert!(
        lanczos.smallest.abs() < 1e-9,
        "disconnected graph must have Fiedler value ≈ 0, got {}",
        lanczos.smallest
    );
    // And the spectral profile rejects it exactly like the dense path.
    assert!(matches!(
        SpectralProfile::compute_sparse(&graph),
        Err(sparse_cut_gossip::graph::GraphError::Disconnected)
    ));
    assert!(matches!(
        SpectralProfile::compute_dense(&graph),
        Err(sparse_cut_gossip::graph::GraphError::Disconnected)
    ));
}

#[test]
fn single_edge_graph_happy_breakdown() {
    // K_2: Laplacian [[1, -1], [-1, 1]], spectrum {0, 2}.  After deflating
    // the ones vector the Krylov space is 1-D, so Lanczos must stop on the
    // breakdown path with the exact answer.
    let graph = Graph::from_edges(2, &[(0, 1)]).expect("single edge");
    let lanczos = Lanczos::new()
        .with_deflation(Vector::ones(2))
        .run(&laplacian_sparse(&graph))
        .expect("lanczos on K2");
    assert!((lanczos.smallest - 2.0).abs() < 1e-12);
    assert!((lanczos.largest - 2.0).abs() < 1e-12);
    assert_eq!(lanczos.iterations, 1);
    assert!(lanczos.exhausted);

    let profile = SpectralProfile::compute_sparse(&graph).expect("profile of K2");
    assert!((profile.algebraic_connectivity - 2.0).abs() < 1e-12);
    assert!((profile.laplacian_lambda_max - 2.0).abs() < 1e-12);
    // Byte-identical quantities with the dense path on this exact instance.
    let dense = SpectralProfile::compute_dense(&graph).expect("dense profile of K2");
    assert!((dense.algebraic_connectivity - profile.algebraic_connectivity).abs() < 1e-12);
}

#[test]
fn sparse_fiedler_helpers_expose_adversarial_values() {
    // The spectral helpers built on the Lanczos path agree with the dense
    // helpers on the (deterministic) barbell family.
    let (graph, _) = barbell(10, 10).expect("valid barbell");
    let dense_value = {
        let eig = SymmetricEigen::compute(&laplacian(&graph)).unwrap();
        eig.second_smallest().unwrap()
    };
    let helper_value = spectral::fiedler_value(&graph).unwrap();
    assert!((helper_value - dense_value).abs() < 1e-9);
    let vector = spectral::fiedler_vector(&graph).unwrap();
    // On a balanced barbell the Fiedler vector separates the blocks.
    assert!(vector[0] * vector[19] < 0.0);
}
