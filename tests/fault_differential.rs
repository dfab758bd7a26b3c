//! The fault-path differential oracle.
//!
//! The fault-injection layer threads through the engine's hot path, so its
//! zero-cost contract is pinned the same way the incremental-moment and
//! sparse/dense paths are (`tests/moment_differential.rs`,
//! `tests/sparse_dense_differential.rs`): a run configured with the no-op
//! [`FaultPlan::none`] must be **byte-identical** — stop tick, stop time,
//! stop reason, moment refresh count, and bitwise final state — to a run
//! with no plan at all, on every scale generator family, under both clock
//! models, at pinned seeds.
//!
//! On top of the identity oracle, deterministic mixed-fault runs assert the
//! conservation contract: suppressed contacts skip the pairwise update
//! atomically, so total mass is conserved exactly and the class-C variance
//! stays monotonically non-increasing no matter what the schedule does.
//!
//! A golden run pins Algorithm A under message loss bit for bit: its epoch
//! counts every tick of the designated edge, dropped ones included.

mod common;

use common::{seeds, VarianceSeries};
use sparse_cut_gossip::prelude::*;

/// Small instances of every scale generator family (mirrors the
/// moment-differential oracle): chordal ring, expander dumbbell, expander
/// barbell, ring of cliques.
fn oracle_families() -> Vec<(&'static str, Scenario)> {
    vec![
        ("chordal-ring", Scenario::ChordalRing { n: 128 }),
        ("expander-dumbbell", Scenario::ExpanderDumbbell { half: 64 }),
        (
            "expander-barbell",
            Scenario::ExpanderBarbell {
                left: 43,
                right: 85,
            },
        ),
        (
            "ring-of-cliques",
            Scenario::RingOfCliques {
                cliques: 8,
                clique_size: 16,
            },
        ),
    ]
}

/// Runs vanilla gossip on `scenario` from the adversarial initial condition
/// with the given (optional) fault plan and returns the outcome.
fn run_with_plan(
    scenario: &Scenario,
    sim_seed: u64,
    clock_model: ClockModel,
    plan: Option<FaultPlan>,
) -> SimulationOutcome {
    let instance = scenario
        .instantiate(seeds::FAULT_SCENARIO)
        .expect("valid scenario");
    let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
    let mut config = SimulationConfig::new(sim_seed)
        .with_clock_model(clock_model)
        .with_stopping_rule(StoppingRule::definition1().or_max_ticks(20_000_000))
        // A short refresh period so the refresh-count component of the
        // identity oracle is exercised even by the fastest family (the
        // chordal ring stops after a few hundred ticks).
        .with_moment_refresh_every_ticks(128);
    config.fault_plan = plan;
    let mut simulator = AsyncSimulator::new(&instance.graph, initial, VanillaGossip::new(), config)
        .expect("valid simulation");
    simulator.run().expect("run completes")
}

#[test]
fn noop_fault_plan_is_bit_identical_to_the_fault_free_engine_on_every_family() {
    for (index, (name, scenario)) in oracle_families().into_iter().enumerate() {
        for clock_model in [ClockModel::GlobalUniform, ClockModel::PerEdgeQueue] {
            let sim_seed = seeds::FAULT_DIFFERENTIAL + index as u64;
            let baseline = run_with_plan(&scenario, sim_seed, clock_model, None);
            let noop = run_with_plan(&scenario, sim_seed, clock_model, Some(FaultPlan::none()));

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
            assert!(
                baseline.moment_refreshes >= 2,
                "{name}/{clock_model:?}: refresh schedule not exercised"
            );
            // Bitwise, not approximate: the no-op plan must not perturb a
            // single float operation.
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
            // The injector ran (classifying every tick) yet suppressed
            // nothing and drew nothing.
            assert_eq!(noop.fault_stats.total_suppressed(), 0, "{name}");
            assert_eq!(noop.fault_stats.delivered, noop.total_ticks, "{name}");
            assert_eq!(baseline.fault_stats, FaultStats::default(), "{name}");
        }
    }
}

#[test]
fn mixed_fault_schedules_conserve_mass_and_never_raise_variance() {
    // A deterministic plan mixing all three fault kinds on every family:
    // 10% message loss, the first cut edge down for an early window, and
    // two nodes paused across overlapping windows starting at tick 0 (the
    // fastest family, the chordal ring, stops after a few hundred ticks, so
    // later windows would never engage there).
    for (index, (name, scenario)) in oracle_families().into_iter().enumerate() {
        let instance = scenario
            .instantiate(seeds::FAULT_SCENARIO)
            .expect("valid scenario");
        let cut_edge = instance.partition.cut_edges()[0];
        let plan = FaultPlan::new(seeds::FAULT_PLAN + index as u64)
            .with_drop_probability(0.1)
            .with_edge_outage(cut_edge, 0, 2_000)
            .with_node_pause(NodeId(0), 0, 1_000)
            .with_node_pause(NodeId(instance.graph.node_count() - 1), 100, 1_500);
        let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
        let initial_mean = initial.mean();
        let initial_variance = initial.variance();
        let config = SimulationConfig::new(seeds::FAULT_CONSERVATION + index as u64)
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(20_000_000))
            .with_fault_plan(plan);
        let mut simulator = AsyncSimulator::new(
            &instance.graph,
            initial,
            VarianceSeries::new(VanillaGossip::new(), 64),
            config,
        )
        .expect("valid simulation");
        let outcome = simulator.run().expect("run completes");

        assert!(outcome.converged(), "{name}: did not converge under faults");
        assert!(
            outcome.fault_stats.dropped > 0
                && outcome.fault_stats.edge_down_skips + outcome.fault_stats.node_pause_skips > 0,
            "{name}: the mixed plan never engaged ({:?})",
            outcome.fault_stats
        );
        // Conservation oracle: atomically skipped contacts cannot leak or
        // duplicate mass.
        assert!(
            (outcome.final_values.mean() - initial_mean).abs() < 1e-9,
            "{name}: mean drifted"
        );
        // Class-C monotonicity along the sampled variance series.
        let mut last = initial_variance + 1e-12;
        for &(time, variance) in &simulator.handler().points {
            assert!(
                variance <= last + 1e-9,
                "{name}: variance rose from {last} to {variance} at t = {time}"
            );
            last = variance;
        }
        // Every tick was classified exactly once.
        assert_eq!(
            outcome.fault_stats.total_contacts(),
            outcome.total_ticks,
            "{name}"
        );
    }
}

#[test]
fn killing_the_scheduled_outages_matches_the_plans_dynamic_view() {
    // The worst-surviving-subgraph probe consumes exactly what the plan
    // reports: killing `edges_ever_down` and the edges of
    // `nodes_ever_paused` on a DynamicGraphView reproduces the intended
    // degraded topology.  On the expander dumbbell, taking the single
    // bridge down must split the live view into two components whose worst
    // λ₂ is the (much larger) within-block connectivity.
    let scenario = Scenario::ExpanderDumbbell { half: 64 };
    let instance = scenario
        .instantiate(seeds::FAULT_SCENARIO)
        .expect("valid scenario");
    let bridge = instance.partition.cut_edges()[0];
    let plan = FaultPlan::new(1).with_edge_outage(bridge, 0, 100);
    let mut view = DynamicGraphView::new(&instance.graph);
    let intact = view
        .worst_surviving_connectivity()
        .expect("probe computes")
        .expect("live edges exist");
    for edge in plan.edges_ever_down() {
        view.kill_edge(edge).expect("edge in range");
    }
    assert!(!view.is_live_connected());
    assert_eq!(view.live_components().len(), 2);
    let degraded = view
        .worst_surviving_connectivity()
        .expect("probe computes")
        .expect("live edges exist");
    assert!(
        degraded > intact,
        "each block alone mixes faster than the bridged whole \
         (block λ₂ = {degraded}, whole λ₂ = {intact})"
    );
}

#[test]
fn algorithm_a_under_message_loss_is_pinned_bit_for_bit() {
    // Pinned at the commit where the samplers still counted every edge's
    // ticks and Algorithm A read its epoch from that count.  The handler
    // now counts e_c's ticks itself, hearing of dropped ones through
    // `on_suppressed_tick`; with a fifth of all contacts dropped, skipping
    // those ticks would shift every epoch and change all of these bits.
    let instance = Scenario::Dumbbell { half: 8 }
        .instantiate(0)
        .expect("valid scenario");
    let plan = FaultProfile::MessageLoss { p: 0.2 }.compile(&instance, seeds::FAULT_ALGO_A_PLAN);
    let algorithm = SparseCutAlgorithm::from_partition(
        &instance.graph,
        &instance.partition,
        SparseCutConfig::new()
            .with_t_van_sum(2.0)
            .with_epoch_constant(1.0),
    )
    .expect("valid partition");
    assert_eq!(algorithm.epoch_ticks(), 6);
    let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
    let config = SimulationConfig::new(seeds::FAULT_ALGO_A_CLOCK)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::max_time(100.0))
        .with_fault_plan(plan);
    let mut simulator =
        AsyncSimulator::new(&instance.graph, initial, algorithm, config).expect("valid simulation");
    let outcome = simulator.run().expect("run completes");

    assert_eq!(
        outcome.stop_reason,
        sparse_cut_gossip::sim::stopping::StopReason::TimeLimit
    );
    assert_eq!(outcome.total_ticks, 5674);
    assert_eq!(outcome.fault_stats.dropped, 1107);
    assert_eq!(outcome.elapsed_time.to_bits(), 0x4059001340c2e507);
    assert_eq!(simulator.handler().transfers(), 15);
    let expected: [u64; 16] = [
        0xbb222f0d7cd436ce,
        0xbb222f0d7d6086c2,
        0xbb222f0d7d1204cc,
        0xbb222f0d7da14124,
        0xbb222f0d7d2710ae,
        0xbb222f0d7bfb82a4,
        0xbb222f0d7d6086c2,
        0xbb222f0d7d2710ae,
        0xbb222f0d7e491182,
        0xbb222f0d7d1ec8f2,
        0xbb222f0d7d19a1d5,
        0xbb222f0d7cf7c256,
        0xbb222f0d7d1b3472,
        0xbb222f0d7dafa2ae,
        0xbb222f0d7dafa2ae,
        0xbb222f0d7cf7c256,
    ];
    let bits: Vec<u64> = outcome
        .final_values
        .as_slice()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(bits, expected);
}
