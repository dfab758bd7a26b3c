//! The simulation scaling-tier acceptance tests.
//!
//! The headline guarantee of this tier: an asynchronous run on a
//! multi-thousand-node bounded-degree graph reaches the Definition 1 stop
//! with **per-tick** checking — the engine evaluates the stopping rule after
//! every tick — and the only O(n) variance passes on the hot path are the
//! scheduled exact moment refreshes (plus the one-off passes at
//! construction and in `finish`).  The full 50k grid is exercised by
//! `experiments --only SIM_SCALE` (see `BENCH_sim_scale.json`); this suite
//! pins a debug-friendly mid-size instance of the same machinery.

mod common;

use common::seeds;
use sparse_cut_gossip::prelude::*;
use sparse_cut_gossip::workloads::scenarios::sim_scale_suite;

#[test]
fn expander_dumbbell_relaxes_with_per_tick_checking_and_scheduled_refreshes_only() {
    let scenario = Scenario::ExpanderDumbbell { half: 2_500 };
    let instance = scenario
        .instantiate(seeds::SIM_SCALE_DUMBBELL)
        .expect("valid scenario");
    assert_eq!(instance.graph.node_count(), 5_000);
    instance.validate_notation1().expect("notation 1 holds");

    let initial = InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
        .generate(
            instance.graph.node_count(),
            Some(&instance.partition),
            seeds::SIM_SCALE_DUMBBELL,
        )
        .expect("valid initial condition");
    let refresh = 2_048u64;
    let config = SimulationConfig::new(seeds::SIM_SCALE_DUMBBELL)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::definition1().or_max_ticks(50_000_000))
        .with_moment_refresh_every_ticks(refresh);
    assert_eq!(config.variance_mode, VarianceMode::Incremental);

    let mut simulator = AsyncSimulator::new(&instance.graph, initial, VanillaGossip::new(), config)
        .expect("valid simulation");
    let outcome = simulator.run().expect("run completes");

    assert!(outcome.converged(), "Definition 1 stop not reached");
    assert!(outcome.variance_ratio() < 0.14);
    // With per-tick checks a run stops at the exact crossing tick — never on
    // a coarser grid (the old |E|/10 workaround made stop ticks multiples of
    // the interval on long runs).
    assert!(outcome.total_ticks > 0);
    // The only O(n) variance work on the hot path was the deterministic
    // refresh schedule: one exact pass per full window, nothing else (the
    // values stay finite throughout, so no salvage refresh can occur).
    assert_eq!(outcome.moment_refreshes, outcome.total_ticks / refresh);
    // The run is long enough for the schedule to have fired repeatedly.
    assert!(
        outcome.moment_refreshes >= 3,
        "run unexpectedly short: {} ticks",
        outcome.total_ticks
    );
    // And the incremental moments the stopping decision was based on agree
    // with an exact recompute of the final state.
    assert!((outcome.final_values.incremental_variance() - outcome.final_variance).abs() < 1e-9);
}

#[test]
fn quick_sim_scale_suite_converges_at_one_thousand_nodes() {
    for scenario in sim_scale_suite(1_000) {
        let instance = scenario
            .instantiate(seeds::SIM_SCALE_SUITE)
            .expect("valid scenario");
        instance.validate_notation1().expect("notation 1 holds");
        let initial = match scenario {
            Scenario::ChordalRing { .. } => {
                AveragingTimeEstimator::adversarial_initial(&instance.partition)
            }
            _ => InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
                .generate(
                    instance.graph.node_count(),
                    Some(&instance.partition),
                    seeds::SIM_SCALE_SUITE,
                )
                .expect("valid initial condition"),
        };
        let config = SimulationConfig::new(seeds::SIM_SCALE_SUITE)
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(20_000_000));
        let mut simulator =
            AsyncSimulator::new(&instance.graph, initial, VanillaGossip::new(), config)
                .expect("valid simulation");
        let outcome = simulator.run().expect("run completes");
        assert!(
            outcome.converged(),
            "{} did not reach the Definition 1 stop",
            instance.name
        );
        assert!(
            outcome.variance_ratio() < 0.14,
            "{}: ratio {}",
            instance.name,
            outcome.variance_ratio()
        );
    }
}
