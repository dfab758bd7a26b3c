//! Property-style checkpoint/restore suite over the scale families.
//!
//! For every scale-tier graph family, both clock models, and both a
//! fault-free and a mixed fault + adversary environment, a run restored
//! from an arbitrary committed mid-run checkpoint — round-tripped through
//! its serialized JSON document, exactly as the run store would hold it —
//! must reproduce the uninterrupted run on every observable bit: stop
//! tick, stop reason, elapsed-time bits, refresh count, fault/adversary
//! counters, settling time, and every final value.
//!
//! This is the cross-crate, cross-topology version of the in-crate smoke
//! test in `engine.rs`; the engine's own tests pin the mechanism, this one
//! pins it across the graphs the bench tiers actually sweep.  A second set
//! of rows restores every bundled stateful handler (Algorithm A, median,
//! two-time-scale, random-neighbour), whose own state travels in the
//! checkpoint; a stateful handler that cannot save its state is refused at
//! capture and at restore, and a version 1 blob is refused outright.

use gossip_core::convex::RandomNeighborGossip;
use gossip_core::robust::MedianNeighborGossip;
use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
use gossip_core::two_time_scale::TwoTimeScaleGossip;
use gossip_graph::generators::dumbbell;
use gossip_graph::generators::scale::{
    chordal_ring, expander_barbell, expander_dumbbell, ring_of_cliques,
};
use gossip_graph::{Graph, NodeId, Partition};
use gossip_sim::engine::ClockModel;
use gossip_sim::handler::{EdgeTickContext, HandlerState};
use gossip_sim::{
    AdversaryPlan, AsyncSimulator, EdgeTickHandler, EngineCheckpoint, FaultPlan, NodeValues,
    SimError, SimulationConfig, SimulationOutcome, StoppingRule,
};
use serde::json::Value;

struct Vanilla;

impl EdgeTickHandler for Vanilla {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        values.average_pair(u, v);
    }

    fn name(&self) -> &str {
        "vanilla"
    }

    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState::default())
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 0, 0)
    }
}

fn spike(n: usize) -> NodeValues {
    let mut v = vec![0.0; n];
    v[0] = n as f64;
    NodeValues::from_values(v).expect("non-empty finite values")
}

fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("chordal_ring(24)", chordal_ring(24).unwrap()),
        ("expander_dumbbell(12)", expander_dumbbell(12).unwrap().0),
        (
            "expander_barbell(10,14)",
            expander_barbell(10, 14).unwrap().0,
        ),
        ("ring_of_cliques(4,6)", ring_of_cliques(4, 6).unwrap().0),
    ]
}

/// A mixed hostile environment seeded per family: probabilistic drops, a
/// paused node, a biased injector, an extreme-value node, and a stale
/// replayer — every checkpointed RNG stream and injector cursor is live.
fn hostile(config: SimulationConfig, seed_offset: u64) -> SimulationConfig {
    config
        .with_fault_plan(
            FaultPlan::new(7 + seed_offset)
                .with_drop_probability(0.1)
                .with_node_pause(NodeId(0), 100, 400),
        )
        .with_adversary_plan(
            AdversaryPlan::new(13 + seed_offset)
                .with_biased_injector(NodeId(1), 0.4)
                .with_extreme_value_node(NodeId(3), 50.0)
                .with_stale_replay_node(NodeId(5), 64),
        )
}

fn assert_outcomes_bit_identical(a: &SimulationOutcome, b: &SimulationOutcome, ctx: &str) {
    assert_eq!(a.total_ticks, b.total_ticks, "{ctx}");
    assert_eq!(a.stop_reason, b.stop_reason, "{ctx}");
    assert_eq!(a.moment_refreshes, b.moment_refreshes, "{ctx}");
    assert_eq!(a.fault_stats, b.fault_stats, "{ctx}");
    assert_eq!(a.adversary_stats, b.adversary_stats, "{ctx}");
    assert_eq!(a.elapsed_time.to_bits(), b.elapsed_time.to_bits(), "{ctx}");
    assert_eq!(
        a.final_variance.to_bits(),
        b.final_variance.to_bits(),
        "{ctx}"
    );
    assert_eq!(
        a.settling_time.map(f64::to_bits),
        b.settling_time.map(f64::to_bits),
        "{ctx}"
    );
    for (x, y) in a
        .final_values
        .as_slice()
        .iter()
        .zip(b.final_values.as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
    }
}

#[test]
fn restore_is_bit_identical_across_families_clocks_and_environments() {
    for (family_index, (family, graph)) in families().into_iter().enumerate() {
        let n = graph.node_count();
        for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
            for hostile_env in [false, true] {
                let ctx = format!("{family} {model:?} hostile={hostile_env}");
                // A stopping rule that can never fire plus a tick cap makes
                // every run exactly 8192 ticks long — long enough for many
                // refreshes (every 128 ticks) and checkpoints (every 512)
                // regardless of how fast the family converges.
                let mut config = SimulationConfig::new(29 + family_index as u64)
                    .with_clock_model(model)
                    .with_stopping_rule(StoppingRule::variance_ratio_below(0.0).or_max_ticks(8192))
                    .with_moment_refresh_every_ticks(128)
                    .with_settling_threshold(0.5)
                    .with_checkpoint_every_ticks(512);
                if hostile_env {
                    config = hostile(config, family_index as u64);
                }

                let mut checkpoints: Vec<EngineCheckpoint> = Vec::new();
                let mut sim =
                    AsyncSimulator::new(&graph, spike(n), Vanilla, config.clone()).unwrap();
                let baseline = sim
                    .run_with_checkpoints(&mut |cp| {
                        checkpoints.push(cp);
                        Ok(())
                    })
                    .unwrap();
                assert!(
                    checkpoints.len() >= 3,
                    "{ctx}: run too short to exercise restore"
                );
                if hostile_env {
                    // The injectors must actually have fired, otherwise the
                    // restored RNG/cursor state is vacuously exercised.
                    assert!(baseline.fault_stats.total_suppressed() > 0, "{ctx}");
                    assert!(baseline.adversary_stats.falsified_contacts > 0, "{ctx}");
                } else {
                    assert_eq!(baseline.fault_stats.total_suppressed(), 0, "{ctx}");
                    assert_eq!(baseline.adversary_stats.falsified_contacts, 0, "{ctx}");
                }

                // Restore from the first, an arbitrary interior, and the
                // last committed checkpoint, each after a JSON round trip.
                for index in [0, checkpoints.len() / 2, checkpoints.len() - 1] {
                    let blob = checkpoints[index].to_value();
                    let reloaded = EngineCheckpoint::from_value(&blob).unwrap();
                    assert_eq!(reloaded, checkpoints[index], "{ctx} checkpoint {index}");
                    let mut resumed =
                        AsyncSimulator::restore(&graph, Vanilla, config.clone(), &reloaded)
                            .unwrap();
                    let outcome = resumed.run().unwrap();
                    assert_outcomes_bit_identical(
                        &baseline,
                        &outcome,
                        &format!("{ctx} from checkpoint {index}"),
                    );
                }
            }
        }
    }
}

/// Runs `make()`'s handler with checkpoints every 512 ticks for exactly
/// 8192 ticks, restores a fresh handler from every checkpoint (after a JSON
/// round trip), and for each restored run that `keep` selects — given the
/// checkpoint's index and the handler as restored — checks the resumed run
/// against the uninterrupted one.  Returns the uninterrupted run's finished
/// handler and the finished restored ones.
fn restore_stateful<H, F>(
    graph: &Graph,
    config: SimulationConfig,
    initial: &NodeValues,
    make: F,
    keep: impl Fn(usize, &H) -> bool,
    ctx: &str,
) -> (H, Vec<H>)
where
    H: EdgeTickHandler,
    F: Fn() -> H,
{
    let mut checkpoints: Vec<EngineCheckpoint> = Vec::new();
    let mut sim = AsyncSimulator::new(graph, initial.clone(), make(), config.clone()).unwrap();
    let baseline = sim
        .run_with_checkpoints(&mut |cp| {
            checkpoints.push(cp);
            Ok(())
        })
        .unwrap();
    assert_eq!(baseline.total_ticks, 8192, "{ctx}");
    assert_eq!(checkpoints.len(), 15, "{ctx}");
    let mut restored = Vec::new();
    for (index, checkpoint) in checkpoints.iter().enumerate() {
        let reloaded = EngineCheckpoint::from_value(&checkpoint.to_value()).unwrap();
        assert_eq!(&reloaded, checkpoint, "{ctx} checkpoint {index}");
        let mut resumed =
            AsyncSimulator::restore(graph, make(), config.clone(), &reloaded).unwrap();
        if !keep(index, resumed.handler()) {
            continue;
        }
        let outcome = resumed.run().unwrap();
        assert_outcomes_bit_identical(
            &baseline,
            &outcome,
            &format!("{ctx} from checkpoint {index}"),
        );
        restored.push(resumed.into_parts().0);
    }
    assert!(!restored.is_empty(), "{ctx}: no checkpoint was restored");
    (sim.into_parts().0, restored)
}

/// A 12-node dumbbell run of exactly 8192 ticks, plain or hostile.
fn stateful_config(model: ClockModel, hostile_env: bool, seed: u64) -> SimulationConfig {
    let config = SimulationConfig::new(seed)
        .with_clock_model(model)
        .with_stopping_rule(StoppingRule::variance_ratio_below(0.0).or_max_ticks(8192))
        .with_moment_refresh_every_ticks(128)
        .with_settling_threshold(0.5)
        .with_checkpoint_every_ticks(512);
    if hostile_env {
        hostile(config, seed)
    } else {
        config
    }
}

fn algorithm_a(graph: &Graph, partition: &Partition) -> SparseCutAlgorithm {
    // m = ⌈2·ln 12⌉ = 5 ticks of e_c per epoch: ~50 transfers in a run.
    SparseCutAlgorithm::from_partition(
        graph,
        partition,
        SparseCutConfig::new()
            .with_t_van_sum(2.0)
            .with_epoch_constant(1.0),
    )
    .unwrap()
}

#[test]
fn algorithm_a_restores_between_two_transfers() {
    let (graph, partition) = dumbbell(6).unwrap();
    let epoch = algorithm_a(&graph, &partition).epoch_ticks();
    for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
        for hostile_env in [false, true] {
            let ctx = format!("algorithm-a {model:?} hostile={hostile_env}");
            // Resume from every checkpoint strictly inside an epoch after
            // the first transfer: the restored handler must carry both the
            // transfer count and the partial count of e_c's ticks.
            let between = |_: usize, restored: &SparseCutAlgorithm| {
                restored.transfers() >= 1 && !restored.designated_ticks().is_multiple_of(epoch)
            };
            let (original, restored) = restore_stateful(
                &graph,
                stateful_config(model, hostile_env, 61),
                &spike(graph.node_count()),
                || algorithm_a(&graph, &partition),
                between,
                &ctx,
            );
            assert!(original.transfers() >= 3, "{ctx}: too few transfers");
            for handler in restored {
                assert_eq!(handler.transfers(), original.transfers(), "{ctx}");
                assert_eq!(
                    handler.designated_ticks(),
                    original.designated_ticks(),
                    "{ctx}"
                );
            }
        }
    }
}

/// Selects the first, a middle, and the last of the 15 checkpoints.
fn first_middle_last<H>(index: usize, _: &H) -> bool {
    index.is_multiple_of(7)
}

#[test]
fn stateful_handlers_restore_bit_identically() {
    let (graph, _) = dumbbell(6).unwrap();
    let n = graph.node_count();
    for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
        for hostile_env in [false, true] {
            let config = stateful_config(model, hostile_env, 67);
            let env = format!("{model:?} hostile={hostile_env}");
            restore_stateful(
                &graph,
                config.clone(),
                &spike(n),
                || MedianNeighborGossip::new(n),
                first_middle_last,
                &format!("median {env}"),
            );
            restore_stateful(
                &graph,
                config.clone(),
                &spike(n),
                || TwoTimeScaleGossip::for_graph(&graph, 0.6).unwrap(),
                first_middle_last,
                &format!("two-time-scale {env}"),
            );
            restore_stateful(
                &graph,
                config,
                &spike(n),
                || RandomNeighborGossip::new(71),
                first_middle_last,
                &format!("random-neighbor {env}"),
            );
        }
    }
}

/// A stateful handler that does not implement the state hook.
struct Forgetful {
    ticks: u64,
}

impl EdgeTickHandler for Forgetful {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        self.ticks += 1;
        let (u, v) = ctx.edge.endpoints();
        values.average_pair(u, v);
    }

    fn name(&self) -> &str {
        "forgetful"
    }
}

#[test]
fn handlers_without_the_state_hook_are_refused_at_capture_and_restore() {
    let (graph, _) = dumbbell(6).unwrap();
    let n = graph.node_count();
    let config = stateful_config(ClockModel::GlobalUniform, false, 73);
    let refused = SimError::HandlerStateUnsupported {
        handler: "forgetful".into(),
    };

    // Capture: refused before the first tick, with nothing handed out.
    let mut sink_calls = 0;
    let mut sim =
        AsyncSimulator::new(&graph, spike(n), Forgetful { ticks: 0 }, config.clone()).unwrap();
    let result = sim.run_with_checkpoints(&mut |_| {
        sink_calls += 1;
        Ok(())
    });
    assert_eq!(result.unwrap_err(), refused);
    assert_eq!(sink_calls, 0);
    assert_eq!(sim.handler().ticks, 0, "no tick ran");
    assert_eq!(sim.values(), &spike(n));

    // Without a cadence the same handler runs as before.
    let mut plain = AsyncSimulator::new(
        &graph,
        spike(n),
        Forgetful { ticks: 0 },
        config.clone().with_checkpoint_every_ticks(0),
    )
    .unwrap();
    assert_eq!(plain.run().unwrap().total_ticks, 8192);

    // Restore: a valid checkpoint is refused for this handler.
    let mut checkpoints = Vec::new();
    AsyncSimulator::new(&graph, spike(n), Vanilla, config.clone())
        .unwrap()
        .run_with_checkpoints(&mut |cp| {
            checkpoints.push(cp);
            Ok(())
        })
        .unwrap();
    let restored = AsyncSimulator::restore(&graph, Forgetful { ticks: 0 }, config, &checkpoints[0]);
    assert_eq!(restored.err(), Some(refused));
}

#[test]
fn handler_state_of_the_wrong_shape_is_refused_at_restore() {
    // A checkpoint of a stateless run offered to Algorithm A: the handler
    // finds no tick or transfer count and refuses, rather than starting
    // from zero.
    let (graph, partition) = dumbbell(6).unwrap();
    let config = stateful_config(ClockModel::PerEdgeQueue, false, 79);
    let mut checkpoints = Vec::new();
    AsyncSimulator::new(&graph, spike(12), Vanilla, config.clone())
        .unwrap()
        .run_with_checkpoints(&mut |cp| {
            checkpoints.push(cp);
            Ok(())
        })
        .unwrap();
    let restored = AsyncSimulator::restore(
        &graph,
        algorithm_a(&graph, &partition),
        config,
        &checkpoints[0],
    );
    assert!(matches!(restored, Err(SimError::CheckpointInvalid { .. })));
}

#[test]
fn version_one_blobs_are_rejected() {
    // Rebuild the shape of a version 1 document from a current one: the
    // samplers' per-edge tick counters in, the handler state out.
    let graph = chordal_ring(24).unwrap();
    for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
        let config = SimulationConfig::new(83)
            .with_clock_model(model)
            .with_stopping_rule(StoppingRule::max_ticks(1024))
            .with_checkpoint_every_ticks(512);
        let mut checkpoints = Vec::new();
        AsyncSimulator::new(&graph, spike(24), Vanilla, config)
            .unwrap()
            .run_with_checkpoints(&mut |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .unwrap();
        let Value::Object(mut fields) = checkpoints[0].to_value() else {
            panic!("a checkpoint renders as an object");
        };
        fields.retain(|(key, _)| key != "handler");
        for (key, field) in fields.iter_mut() {
            match (key.as_str(), field) {
                ("version", field) => *field = Value::Number(1.0),
                ("sampler", Value::Object(sampler)) => sampler.push((
                    "edge_tick_counts".into(),
                    Value::Array(vec![Value::String("0".into()); graph.edge_count()]),
                )),
                _ => {}
            }
        }
        let v1 = Value::Object(fields);
        assert!(
            matches!(
                EngineCheckpoint::from_value(&v1),
                Err(SimError::CheckpointInvalid { .. })
            ),
            "{model:?}: a version 1 blob was accepted"
        );
    }
}
