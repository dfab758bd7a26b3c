//! Cross-crate invariant tests: every bundled algorithm conserves the mean,
//! converges to the true average on well-connected graphs, and behaves
//! sensibly under the full simulator stack.

mod common;

use common::{dumbbell_fixture, VarianceSeries};
use proptest::prelude::*;
use sparse_cut_gossip::prelude::*;

fn all_async_algorithms(graph: &Graph, partition: &Partition) -> Vec<Box<dyn EdgeTickHandler>> {
    vec![
        Box::new(VanillaGossip::new()),
        Box::new(WeightedConvexGossip::new(0.6).expect("valid alpha")),
        Box::new(RandomNeighborGossip::new(5)),
        Box::new(TwoTimeScaleGossip::for_graph(graph, 0.5).expect("valid momentum")),
        Box::new(
            SparseCutAlgorithm::from_partition(graph, partition, SparseCutConfig::default())
                .expect("valid partition"),
        ),
    ]
}

#[test]
fn every_algorithm_conserves_the_mean_and_converges_on_the_dumbbell() {
    let (graph, partition) = dumbbell_fixture(10);
    let initial = InitialCondition::Uniform { lo: -3.0, hi: 5.0 }
        .generate(graph.node_count(), Some(&partition), 99)
        .expect("valid initial condition");
    let target = initial.mean();
    for handler in all_async_algorithms(&graph, &partition) {
        let name = handler.name().to_string();
        let config = SimulationConfig::new(17)
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-6).or_max_time(100_000.0));
        let mut simulator =
            AsyncSimulator::new(&graph, initial.clone(), handler, config).expect("valid setup");
        let outcome = simulator.run().expect("run succeeds");
        assert!(outcome.converged(), "{name} did not converge");
        assert!(
            (outcome.final_values.mean() - target).abs() < 1e-6,
            "{name} drifted from the true average"
        );
        // Every node agrees with the average at convergence.
        for &value in outcome.final_values.as_slice() {
            assert!(
                (value - target).abs() < 1e-2,
                "{name} left node value {value} far from {target}"
            );
        }
    }
}

#[test]
fn synchronous_baselines_converge_and_conserve_mass() {
    let (graph, partition) = dumbbell_fixture(10);
    let initial = InitialCondition::AdversarialCut
        .generate(graph.node_count(), Some(&partition), 0)
        .expect("valid initial condition");
    for (name, handler) in [
        (
            "first-order diffusion",
            Box::new(FirstOrderDiffusion::new()) as Box<dyn RoundHandler>,
        ),
        (
            "second-order diffusion",
            Box::new(SecondOrderDiffusion::new(1.7).expect("valid beta")),
        ),
    ] {
        let config = SyncConfig::new()
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000));
        let mut simulator =
            SyncSimulator::new(&graph, initial.clone(), handler, config).expect("valid setup");
        let outcome = simulator.run().expect("run succeeds");
        assert!(outcome.converged(), "{name} did not converge");
        assert!(
            outcome.final_values.mean().abs() < 1e-8,
            "{name} did not conserve the zero mean"
        );
    }
}

#[test]
fn spectral_and_empirical_vanilla_times_agree_within_an_order_of_magnitude() {
    let graph = complete(16).expect("valid graph");
    let partition = Partition::from_block_one(&graph, &(0..8).map(NodeId).collect::<Vec<_>>())
        .expect("valid partition");
    let spectral = sparse_cut_gossip::core::bounds::t_van_spectral(&graph).expect("connected");
    let estimator =
        AveragingTimeEstimator::new(EstimatorConfig::new(5).with_runs(5).with_max_time(2_000.0));
    let empirical = estimator
        .estimate(&graph, &partition, VanillaGossip::new)
        .expect("estimation succeeds")
        .averaging_time;
    assert!(
        empirical < 10.0 * spectral && spectral < 10.0 * empirical.max(1e-3),
        "spectral {spectral} and empirical {empirical} estimates diverge"
    );
}

#[test]
fn algorithm_a_trace_shows_nonmonotone_variance_but_final_convergence() {
    // The hallmark of the non-convex update: the variance spikes at
    // transfers yet the run still converges — unlike any convex algorithm,
    // whose variance is monotone.
    let (graph, partition) = dumbbell_fixture(12);
    // The cut-aligned adversarial vector forces the non-convex transfer to do
    // real work (and hence to visibly spike the variance before mixing).
    let initial = InitialCondition::AdversarialCut
        .generate(graph.node_count(), Some(&partition), 4)
        .expect("valid initial condition");
    let algorithm = SparseCutAlgorithm::from_partition(
        &graph,
        &partition,
        SparseCutConfig::new().with_epoch_constant(1.0),
    )
    .expect("valid partition");
    let config = SimulationConfig::new(23)
        .with_stopping_rule(StoppingRule::definition1().or_max_time(50_000.0));
    let mut simulator =
        AsyncSimulator::new(&graph, initial, VarianceSeries::new(algorithm, 1), config)
            .expect("valid setup");
    let outcome = simulator.run().expect("run succeeds");
    assert!(outcome.converged());
    let variances: Vec<f64> = simulator.handler().points.iter().map(|&(_, v)| v).collect();
    let increased_somewhere = variances.windows(2).any(|w| w[1] > w[0] + 1e-12);
    assert!(
        increased_somewhere,
        "expected at least one variance increase from a non-convex transfer"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_simulations_preserve_mass_for_every_seed(seed in 0u64..1000) {
        let (graph, partition) = dumbbell_fixture(6);
        let initial = InitialCondition::Gaussian { mean: 2.0, std: 1.0 }
            .generate(graph.node_count(), Some(&partition), seed)
            .expect("valid initial condition");
        let target = initial.mean();
        let algorithm = SparseCutAlgorithm::from_partition(
            &graph,
            &partition,
            SparseCutConfig::default(),
        )
        .expect("valid partition");
        let config = SimulationConfig::new(seed)
            .with_stopping_rule(StoppingRule::definition1().or_max_time(20_000.0));
        let mut simulator =
            AsyncSimulator::new(&graph, initial, algorithm, config).expect("valid setup");
        let outcome = simulator.run().expect("run succeeds");
        prop_assert!((outcome.final_values.mean() - target).abs() < 1e-7);
    }

    #[test]
    fn prop_convex_runs_have_monotone_variance_traces(seed in 0u64..500) {
        let (graph, partition) = dumbbell_fixture(5);
        let initial = InitialCondition::Uniform { lo: 0.0, hi: 1.0 }
            .generate(graph.node_count(), Some(&partition), seed)
            .expect("valid initial condition");
        let config = SimulationConfig::new(seed)
            .with_stopping_rule(StoppingRule::max_ticks(2_000));
        let mut simulator = AsyncSimulator::new(
            &graph,
            initial,
            VarianceSeries::new(VanillaGossip::new(), 1),
            config,
        )
        .expect("valid setup");
        simulator.run().expect("run succeeds");
        let variances: Vec<f64> = simulator.handler().points.iter().map(|&(_, v)| v).collect();
        for w in variances.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
