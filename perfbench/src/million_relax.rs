//! `million-relax`: repeated Definition 1 relaxations of one 10⁶-node
//! expander dumbbell.
//!
//! * Set-up: `Scenario::instantiate` of `ExpanderDumbbell { half: 500_000 }`
//!   (10⁶ nodes, 18 000 001 edges).
//! * Operation: one relaxation of vanilla gossip from a uniform start under
//!   the global uniform clock, each with its own clock seed and its own
//!   `AsyncSimulator::new`, run until the variance ratio falls below 1/e².
//! * Unit of work (`wall_s`): [`BATCH`] relaxations, `new` plus `run`; one
//!   relaxation takes about half a second, so a unit rests on seconds.
//! * Checks: every relaxation stops `Converged` at a ratio of at most 1/e²
//!   with the mean conserved.

use std::time::Instant;

use gossip_core::convex::VanillaGossip;
use gossip_sim::engine::ClockModel;
use gossip_sim::stopping::DEFINITION1_THRESHOLD;
use gossip_sim::{AsyncSimulator, SimulationConfig, SimulationOutcome, StoppingRule};
use gossip_workloads::{InitialCondition, Scenario};

use crate::report::{set_sim_layers, Outcome};
use crate::tick_profile::TickProfile;
use crate::{hostile_checkpoint, sys, Context, SETUP_REPS};

pub const WHY: &str = "ROADMAP items 2-3 target 10^6-node throughput and RSS; the 16-byte edge \
                       table plus per-edge tick counters (~430 MB) exceed the L3, so layout, \
                       counter and batching changes show here.";

const SCENARIO: Scenario = Scenario::ExpanderDumbbell { half: 500_000 };
/// Relaxations per unit of work.
const BATCH: u64 = 6;
const PROFILE_TICKS: u64 = 2_000_000;

/// Seed streams (see [`Context::derive`]).
const INPUT: u64 = 1;
const CLOCK: u64 = 2;
const PROFILE: u64 = 3;

pub fn run(ctx: &Context, out: &mut Outcome) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut instance = None;
    let mut build_mib = 0.0;
    for rep in 0..SETUP_REPS {
        // Free the previous graph first, so the peak holds one graph.
        drop(instance.take());
        let start = Instant::now();
        let (built, mib) =
            sys::rss_growth(|| tracer.span("graph.build", || SCENARIO.instantiate(ctx.seed)));
        let built = built.map_err(|e| e.to_string())?;
        out.setup.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            build_mib = mib;
        }
        instance = Some(built);
    }
    let instance = instance.expect("at least one set-up repetition");
    sys::working_set(out, &instance);

    let graph = &instance.graph;
    let initial = InitialCondition::Uniform { lo: 0.0, hi: 1.0 }
        .generate(graph.node_count(), None, ctx.derive(INPUT, 0))
        .map_err(|e| e.to_string())?;
    let initial_mean = initial.mean();
    let (mut ticks, mut refreshes, mut new_mib) = (Vec::new(), Vec::new(), Vec::new());
    ctx.repeat(|batch| {
        let mut seconds = 0.0;
        let mut passed = true;
        for index in batch * BATCH..(batch + 1) * BATCH {
            let values = initial.clone();
            let config = SimulationConfig::new(ctx.derive(CLOCK, index))
                .with_clock_model(ClockModel::GlobalUniform)
                .with_stopping_rule(StoppingRule::definition1());
            let start = Instant::now();
            let (sim, mib) = sys::heap_growth(|| {
                tracer.span("sim.new", || {
                    AsyncSimulator::new(graph, values, VanillaGossip::new(), config)
                })
            });
            new_mib.push(mib);
            let outcome = sim
                .and_then(|mut sim| tracer.span("sim.run", || sim.run()))
                .map_err(|e| e.to_string());
            seconds += start.elapsed().as_secs_f64();
            let checked = outcome.and_then(|o| relaxed(&o, initial_mean).map(|()| o));
            if let Ok(o) = &checked {
                ticks.push(o.total_ticks as f64);
                refreshes.push(o.moment_refreshes as f64);
            }
            passed &= checked.is_ok();
            out.record("relaxation", checked.map(|_| ()));
        }
        if passed {
            out.wall.push(seconds);
        }
        Ok(())
    })?;

    if !tracer.enabled() {
        return Ok(());
    }
    out.set("graph.build_mib", build_mib);
    out.set_median("graph.build_s", &tracer.self_times_s("graph.build"));
    set_sim_layers(out, tracer, &ticks, &refreshes, &new_mib);
    let (faults, adversary) = hostile_checkpoint::plans(&instance, ctx.derive(PROFILE, 0));
    TickProfile {
        graph,
        clock: ClockModel::GlobalUniform,
        seed: ctx.derive(PROFILE, 1),
        ticks: PROFILE_TICKS,
        initial: &initial,
        faults: &faults,
        adversary: &adversary,
        engine_classifies: false,
    }
    .measure(out)
}

/// `Ok` when the relaxation converged to a ratio of at most 1/e² and kept
/// the mean.
fn relaxed(outcome: &SimulationOutcome, initial_mean: f64) -> Result<(), String> {
    let ratio = outcome.variance_ratio();
    if !outcome.converged() || ratio > DEFINITION1_THRESHOLD {
        return Err(format!(
            "stopped {:?} at variance ratio {ratio} after {} ticks",
            outcome.stop_reason, outcome.total_ticks
        ));
    }
    let drift = (outcome.final_values.mean() - initial_mean).abs();
    if drift > 1e-9 * initial_mean.abs().max(1.0) {
        return Err(format!("mean drifted by {drift}"));
    }
    Ok(())
}
