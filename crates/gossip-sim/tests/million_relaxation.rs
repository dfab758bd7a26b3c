//! One Definition 1 relaxation of the 10⁶-node expander dumbbell
//! (`ExpanderDumbbell { half: 500_000 }`: 18 000 001 edges, above
//! `SECOND_CORE_HALF_EDGES`) through both global-clock paths.
//!
//! Given two cores, `AsyncSimulator::run` draws the clock's batches on a
//! second thread for this graph.  The same relaxation driven through a loop
//! of the simulator's public parts draws them inline; the two must agree on
//! the stop tick, the time bits, the refresh count and every value bit.
//! The test fails on a machine with one core, where both runs would draw
//! inline and compare that path with itself.
//! Building the graph and running both relaxations takes a few seconds and
//! ~450 MiB in a release build, so the test is ignored by default:
//!
//! ```text
//! cargo test --release -q -p gossip-sim --test million_relaxation -- --ignored
//! ```
//!
//! It lives in a file of its own so that no other test shares its process.

use gossip_core::convex::VanillaGossip;
use gossip_graph::generators::expander_dumbbell;
use gossip_graph::graph::second_core_pays;
use gossip_graph::Graph;
use gossip_sim::clock::{GlobalTickProcess, TickProcess};
use gossip_sim::engine::{ClockModel, DEFAULT_MOMENT_REFRESH_TICKS};
use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler};
use gossip_sim::stopping::SimulationStatus;
use gossip_sim::{AsyncSimulator, NodeValues, SimulationConfig, StoppingRule};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 31;

/// The engine's loop for a fault-free relaxation under the default
/// incremental variance, built from public parts with the clock drawing
/// inline: the handler's update, the scheduled refresh, the re-centre guard
/// and the Definition 1 check.  Returns the stop tick, the stop time, the
/// refresh count and the final values.
fn relax_inline(graph: &Graph, mut values: NodeValues) -> (u64, f64, u64, NodeValues) {
    let initial_variance = values.variance();
    let rule = StoppingRule::definition1();
    let mut handler = VanillaGossip::new();
    let mut clock = GlobalTickProcess::new(graph, SEED).expect("the graph has edges");
    let mut refreshes = 0;
    loop {
        let event = clock.next_tick();
        let ctx = EdgeTickContext {
            graph,
            edge: event.endpoints,
            edge_id: event.edge,
            time: event.time,
            global_tick_count: event.global_tick_count,
        };
        handler.on_edge_tick(&mut values, &ctx);
        if event
            .global_tick_count
            .is_multiple_of(DEFAULT_MOMENT_REFRESH_TICKS)
        {
            values.refresh_moments();
            refreshes += 1;
        }
        assert!(
            values.moments_finite(),
            "averages of uniform values stay finite"
        );
        if values.moments_need_recenter() {
            values.refresh_moments();
            refreshes += 1;
        }
        let status = SimulationStatus {
            time: event.time,
            ticks: event.global_tick_count,
            variance: values.incremental_variance(),
            initial_variance,
        };
        if rule.evaluate(&status).is_some() {
            return (event.global_tick_count, event.time, refreshes, values);
        }
    }
}

#[test]
#[ignore = "builds a 10⁶-node graph; run in release (see the module docs)"]
fn a_million_node_relaxation_draws_ahead_bit_for_bit() {
    let (graph, _) = expander_dumbbell(500_000).unwrap();
    assert!(
        second_core_pays(2 * graph.edge_count()),
        "the run must draw ahead: this test needs a graph above the size rule and two cores"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let uniform = (0..graph.node_count()).map(|_| rng.gen::<f64>()).collect();
    let initial = NodeValues::from_values(uniform).unwrap();
    let config = SimulationConfig::new(SEED)
        .with_clock_model(ClockModel::GlobalUniform)
        .with_stopping_rule(StoppingRule::definition1());
    let outcome = AsyncSimulator::new(&graph, initial.clone(), VanillaGossip::new(), config)
        .unwrap()
        .run()
        .unwrap();
    let (ticks, time, refreshes, values) = relax_inline(&graph, initial);
    assert!(outcome.converged());
    assert_eq!(outcome.total_ticks, ticks);
    assert_eq!(outcome.elapsed_time.to_bits(), time.to_bits());
    assert_eq!(outcome.moment_refreshes, refreshes);
    let bits = |values: &NodeValues| -> Vec<u64> {
        values.as_slice().iter().map(|x| x.to_bits()).collect()
    };
    assert!(
        bits(&outcome.final_values) == bits(&values),
        "value bits differ"
    );
}
