//! The adversary-path differential oracle.
//!
//! The Byzantine adversary layer threads through the same hot path as the
//! fault layer, so its zero-cost contract is pinned the same way
//! (`tests/fault_differential.rs`): a run configured with the no-op
//! [`AdversaryPlan::none`] must be **byte-identical** — stop tick, stop
//! time, stop reason, moment refresh count, and bitwise final state — to a
//! run with no plan at all, on every scale generator family, under both
//! clock models, at pinned seeds.
//!
//! On top of the identity oracle: a mixed adversary + crash-fault run must
//! keep the honest-subset mean within the per-capita falsification bound
//! (`gossip_analysis::robust::honest_drift_bound`); the robust aggregation
//! rules must converge under an extreme-value attack that pins vanilla
//! gossip away from the Definition 1 stop.

mod common;

use common::seeds;
use sparse_cut_gossip::analysis::robust::{honest_drift_bound, hull_drift_bound};
use sparse_cut_gossip::prelude::*;

/// Small instances of every scale generator family (mirrors the fault
/// differential oracle at reduced sizes — the attacked runs below burn
/// their full tick caps, so debug-profile speed matters here).
fn oracle_families() -> Vec<(&'static str, Scenario)> {
    vec![
        ("chordal-ring", Scenario::ChordalRing { n: 64 }),
        ("expander-dumbbell", Scenario::ExpanderDumbbell { half: 32 }),
        (
            "expander-barbell",
            Scenario::ExpanderBarbell {
                left: 21,
                right: 43,
            },
        ),
        (
            "ring-of-cliques",
            Scenario::RingOfCliques {
                cliques: 4,
                clique_size: 16,
            },
        ),
    ]
}

/// Runs vanilla gossip on `scenario` from the adversarial initial condition
/// with the given (optional) adversary plan and returns the outcome.
fn run_with_plan(
    scenario: &Scenario,
    sim_seed: u64,
    clock_model: ClockModel,
    plan: Option<AdversaryPlan>,
) -> SimulationOutcome {
    let instance = scenario
        .instantiate(seeds::ADVERSARY_SCENARIO)
        .expect("valid scenario");
    let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
    let mut config = SimulationConfig::new(sim_seed)
        .with_clock_model(clock_model)
        .with_stopping_rule(StoppingRule::definition1().or_max_ticks(20_000_000))
        .with_moment_refresh_every_ticks(128);
    config.adversary_plan = plan;
    let mut simulator = AsyncSimulator::new(&instance.graph, initial, VanillaGossip::new(), config)
        .expect("valid simulation");
    simulator.run().expect("run completes")
}

/// Mean of the values at the nodes not listed in `excluded`.
fn honest_mean(values: &NodeValues, excluded: &[NodeId]) -> f64 {
    let excluded: std::collections::BTreeSet<usize> = excluded.iter().map(|n| n.0).collect();
    let (sum, count) = values
        .as_slice()
        .iter()
        .enumerate()
        .filter(|(i, _)| !excluded.contains(i))
        .fold((0.0, 0usize), |(s, c), (_, v)| (s + v, c + 1));
    sum / count as f64
}

#[test]
fn noop_adversary_plan_is_bit_identical_to_the_unmodified_engine_on_every_family() {
    for (index, (name, scenario)) in oracle_families().into_iter().enumerate() {
        for clock_model in [ClockModel::GlobalUniform, ClockModel::PerEdgeQueue] {
            let sim_seed = seeds::ADVERSARY_DIFFERENTIAL + index as u64;
            let baseline = run_with_plan(&scenario, sim_seed, clock_model, None);
            let noop = run_with_plan(
                &scenario,
                sim_seed,
                clock_model,
                Some(AdversaryPlan::none()),
            );

            assert!(baseline.converged(), "{name}/{clock_model:?}: baseline");
            assert_eq!(
                baseline.total_ticks, noop.total_ticks,
                "{name}/{clock_model:?}: stop ticks diverged"
            );
            assert_eq!(
                baseline.elapsed_time.to_bits(),
                noop.elapsed_time.to_bits(),
                "{name}/{clock_model:?}: stop times diverged"
            );
            assert_eq!(
                baseline.stop_reason, noop.stop_reason,
                "{name}/{clock_model:?}: stop reasons diverged"
            );
            assert_eq!(
                baseline.moment_refreshes, noop.moment_refreshes,
                "{name}/{clock_model:?}: moment refresh counts diverged"
            );
            for (node, (a, b)) in baseline
                .final_values
                .as_slice()
                .iter()
                .zip(noop.final_values.as_slice())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name}/{clock_model:?}: node {node} diverged ({a} vs {b})"
                );
            }
            // The empty plan classifies every contact as honest and touches
            // nothing else; no plan at all leaves the stats at their default.
            assert_eq!(
                noop.adversary_stats,
                AdversaryStats {
                    honest_contacts: noop.total_ticks,
                    ..AdversaryStats::default()
                },
                "{name}/{clock_model:?}"
            );
            assert_eq!(
                baseline.adversary_stats,
                AdversaryStats::default(),
                "{name}/{clock_model:?}"
            );
        }
    }
}

#[test]
fn mixed_adversary_and_crash_faults_keep_the_honest_subset_within_the_oracle_bound() {
    // All four behaviors plus crash-style faults on the asymmetric barbell:
    // a biased injector, an extreme-value node, a stale replayer, a censored
    // cut, 20% message loss, and an early node pause.  The honest-subset
    // mean may move only through falsified contacts, so it must stay within
    // the per-capita falsification budget the injector accounts exactly.
    let scenario = Scenario::ExpanderBarbell {
        left: 21,
        right: 43,
    };
    let instance = scenario
        .instantiate(seeds::ADVERSARY_SCENARIO)
        .expect("valid scenario");
    let cut_edge = instance.partition.cut_edges()[0];
    let adversary = AdversaryPlan::new(seeds::ADVERSARY_PLAN)
        .with_biased_injector(NodeId(2), 3.0)
        .with_extreme_value_node(NodeId(11), 25.0)
        .with_stale_replay_node(NodeId(5), 500)
        .with_censoring_bridge(vec![cut_edge], 0.5)
        .with_detection_threshold(5.0);
    let faults = FaultPlan::new(seeds::ADVERSARY_FAULT)
        .with_drop_probability(0.2)
        .with_node_pause(NodeId(0), 0, 1_000);
    let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
    let adversarial_nodes = adversary.adversarial_nodes();
    let honest_initial = honest_mean(&initial, &adversarial_nodes);

    let config = SimulationConfig::new(seeds::ADVERSARY_DIFFERENTIAL)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000))
        .with_fault_plan(faults)
        .with_adversary_plan(adversary);
    let mut simulator = AsyncSimulator::new(&instance.graph, initial, VanillaGossip::new(), config)
        .expect("valid simulation");
    let outcome = simulator.run().expect("run completes");
    let stats = outcome.adversary_stats;

    // Every layer engaged.
    assert!(outcome.fault_stats.dropped > 0, "loss never engaged");
    assert!(
        outcome.fault_stats.node_pause_skips > 0,
        "pause never engaged"
    );
    assert!(stats.falsified_contacts > 0, "no contact was falsified");
    assert!(stats.censored_contacts > 0, "nothing was censored");
    assert!(stats.flagged_reports > 0, "detection never fired");
    // Only delivered contacts are classified, exactly once each.
    assert_eq!(stats.total_classified(), outcome.fault_stats.delivered);

    let drift = (honest_mean(&outcome.final_values, &adversarial_nodes) - honest_initial).abs();
    let bound = honest_drift_bound(
        stats.falsification_l1,
        instance.graph.node_count() - adversarial_nodes.len(),
    )
    .expect("valid oracle inputs");
    assert!(
        drift <= bound + 1e-9,
        "honest-subset drift {drift} exceeds the falsification budget {bound}"
    );
    assert!(drift > 0.0, "the adversary never moved the honest subset");
}

#[test]
fn robust_aggregation_converges_where_extreme_outliers_pin_vanilla_gossip() {
    // Two extreme-value nodes (one per block) shouting ±50 on the expander
    // dumbbell: their frozen state pins the global variance above the
    // Definition 1 threshold for vanilla averaging, while the clamped
    // trimmed-mean rule rejects almost all of each outlier and converges.
    // Every run must respect its drift oracle (per-capita falsification
    // budget for the conserving rules, convex hull for median).
    let scenario = Scenario::ExpanderDumbbell { half: 16 };
    let instance = scenario
        .instantiate(seeds::ADVERSARY_SCENARIO)
        .expect("valid scenario");
    let n = instance.graph.node_count();
    let plan = AdversaryPlan::new(seeds::ADVERSARY_PLAN)
        .with_extreme_value_node(NodeId(3), 50.0)
        .with_extreme_value_node(NodeId(20), 50.0)
        .with_detection_threshold(25.0);
    let adversarial_nodes = plan.adversarial_nodes();
    let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
    let honest_initial = honest_mean(&initial, &adversarial_nodes);
    let (initial_min, initial_max) = initial
        .as_slice()
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });

    let config = SimulationConfig::new(seeds::ADVERSARY_ROBUST)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::definition1().or_max_ticks(1_000_000))
        .with_adversary_plan(plan);

    let run = |handler: Box<dyn EdgeTickHandler>| -> SimulationOutcome {
        let mut simulator =
            AsyncSimulator::new(&instance.graph, initial.clone(), handler, config.clone())
                .expect("valid simulation");
        simulator.run().expect("run completes")
    };
    let drift_of = |outcome: &SimulationOutcome| -> f64 {
        (honest_mean(&outcome.final_values, &adversarial_nodes) - honest_initial).abs()
    };

    let vanilla = run(Box::new(VanillaGossip::new()));
    let trimmed = run(Box::new(TrimmedMeanGossip::default_radius()));
    let median = run(Box::new(MedianNeighborGossip::new(n)));

    // Vanilla is pinned by the ±50 reports; the robust rules converge.
    assert!(
        !vanilla.converged(),
        "vanilla unexpectedly converged under the extreme attack"
    );
    assert!(trimmed.converged(), "trimmed-mean did not converge");
    assert!(median.converged(), "median-of-neighbors did not converge");

    // The robust rules are dragged strictly less than vanilla.
    let vanilla_drift = drift_of(&vanilla);
    assert!(
        drift_of(&trimmed) < vanilla_drift && drift_of(&median) < vanilla_drift,
        "robust rules must out-resist vanilla (vanilla {vanilla_drift}, trimmed {}, median {})",
        drift_of(&trimmed),
        drift_of(&median)
    );

    // Each run satisfies its drift oracle.
    for (name, outcome) in [("vanilla", &vanilla), ("trimmed", &trimmed)] {
        let bound = honest_drift_bound(
            outcome.adversary_stats.falsification_l1,
            n - adversarial_nodes.len(),
        )
        .expect("valid oracle inputs");
        assert!(
            drift_of(outcome) <= bound + 1e-9,
            "{name}: drift oracle violated"
        );
    }
    let hull = hull_drift_bound(
        initial_min,
        initial_max,
        median.adversary_stats.report_min,
        median.adversary_stats.report_max,
        honest_initial,
    )
    .expect("valid oracle inputs");
    assert!(
        drift_of(&median) <= hull + 1e-9,
        "median: hull oracle violated"
    );

    // Detection fired on every arm (|±50 − honest| far exceeds 25).
    for outcome in [&vanilla, &trimmed, &median] {
        assert!(outcome.adversary_stats.flagged_reports > 0);
    }
}
