//! `paper-estimate`: Definition 1 estimates of Algorithm A and of vanilla
//! gossip on the paper's sparse-cut instance.
//!
//! * Set-up: build `ExpanderDumbbell { half: 256 }` (512 nodes, 3 841
//!   edges) and `SparseCutAlgorithm::from_partition`, whose dense `T_van`
//!   eigen-solve of the two 256-node blocks dominates.
//! * Unit of work (`wall_s`): one estimate of each algorithm through
//!   `AveragingTimeEstimator::estimate` from the adversarial cut start,
//!   per-edge Poisson clocks, two jobs; Algorithm A's handler is a clone of
//!   the one built in set-up.  Each estimate is one operation.
//! * Checks: both estimates fully confirmed, and Algorithm A's averaging
//!   time below vanilla's (the paper's claim).

use std::time::Instant;

use gossip_core::convex::VanillaGossip;
use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
use gossip_core::{AveragingTimeEstimate, AveragingTimeEstimator, EstimatorConfig};
use gossip_sim::engine::ClockModel;
use gossip_workloads::{InitialCondition, Scenario, ScenarioInstance};

use crate::report::Outcome;
use crate::tick_profile::TickProfile;
use crate::{hostile_checkpoint, sys, Context, SETUP_REPS};

pub const WHY: &str = "The paper's experiment; its ~5 MiB working set fits in L2, so handler, \
                       queue-sampler, estimator and executor changes show here and memory-layout \
                       changes must show nothing.";

const SCENARIO: Scenario = Scenario::ExpanderDumbbell { half: 256 };
const JOBS: usize = 2;
const PROFILE_TICKS: u64 = 2_000_000;

/// Seed streams (see [`Context::derive`]).
const ESTIMATOR: u64 = 1;
const PROFILE: u64 = 2;

pub fn run(ctx: &Context, out: &mut Outcome) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut built = None;
    let mut build_mib = 0.0;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (instance, mib) =
            sys::rss_growth(|| tracer.span("graph.build", || SCENARIO.instantiate(ctx.seed)));
        let instance = instance.map_err(|e| e.to_string())?;
        let algorithm = tracer
            .span("spectral.tvan", || {
                SparseCutAlgorithm::from_partition(
                    &instance.graph,
                    &instance.partition,
                    SparseCutConfig::new(),
                )
            })
            .map_err(|e| e.to_string())?;
        out.setup.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            build_mib = mib;
        }
        built = Some((instance, algorithm));
    }
    let (instance, algorithm) = built.expect("at least one set-up repetition");

    let graph = &instance.graph;
    let partition = &instance.partition;
    let estimator = |op: u64, jobs: usize| {
        AveragingTimeEstimator::new(
            EstimatorConfig::new(ctx.derive(ESTIMATOR, op)).with_jobs(Some(jobs)),
        )
    };
    ctx.repeat(|op| {
        let estimator = estimator(op, JOBS);
        let start = Instant::now();
        let alg_a = tracer.span("estimator.alg_a", || {
            estimator.estimate(graph, partition, || algorithm.clone())
        });
        let vanilla = tracer.span("estimator.vanilla", || {
            estimator.estimate(graph, partition, VanillaGossip::new)
        });
        let seconds = start.elapsed().as_secs_f64();
        let vanilla = vanilla.map_err(|e| e.to_string()).and_then(confirmed);
        let alg_a = alg_a
            .map_err(|e| e.to_string())
            .and_then(confirmed)
            .and_then(|a| match &vanilla {
                Ok(v) if a.averaging_time < v.averaging_time => Ok(a),
                Ok(v) => Err(format!(
                    "Algorithm A's T_av {} is not below vanilla's {}",
                    a.averaging_time, v.averaging_time
                )),
                Err(_) => Err("no vanilla estimate to compare against".into()),
            });
        if let (Ok(a), Ok(v)) = (&alg_a, &vanilla) {
            eprintln!(
                "perfbench: paper-estimate op {op}: T_av Algorithm A {:.1}, vanilla {:.1}, {seconds:.2} s",
                a.averaging_time, v.averaging_time
            );
            out.wall.push(seconds);
        }
        out.record("Algorithm A estimate", alg_a.map(|_| ()));
        out.record("vanilla estimate", vanilla.map(|_| ()));
        Ok(())
    })?;

    if !tracer.enabled() {
        return Ok(());
    }
    out.set("graph.build_mib", build_mib);
    out.set_median("graph.build_s", &tracer.self_times_s("graph.build"));
    out.set_median("spectral.tvan_s", &tracer.self_times_s("spectral.tvan"));
    out.set_median("estimator.alg_a_s", &tracer.self_times_s("estimator.alg_a"));
    let two_jobs = tracer.self_times_s("estimator.vanilla");
    out.set_median("estimator.vanilla_s", &two_jobs);
    // The executor's gain: the first vanilla estimate again on one job.
    let start = Instant::now();
    estimator(0, 1)
        .estimate(graph, partition, VanillaGossip::new)
        .map_err(|e| e.to_string())?;
    let one_job = start.elapsed().as_secs_f64();
    if let Some(&first) = two_jobs.first() {
        out.set("exec.speedup", one_job / first);
    }
    sys::working_set(out, &instance);
    profile(ctx, &instance, out)
}

fn confirmed(estimate: AveragingTimeEstimate) -> Result<AveragingTimeEstimate, String> {
    if estimate.fully_confirmed() {
        Ok(estimate)
    } else {
        Err(format!(
            "{} of {} runs censored",
            estimate.censored_runs,
            estimate.settling_times.len()
        ))
    }
}

fn profile(ctx: &Context, instance: &ScenarioInstance, out: &mut Outcome) -> Result<(), String> {
    let n = instance.graph.node_count();
    let initial = InitialCondition::AdversarialCut
        .generate(n, Some(&instance.partition), 0)
        .map_err(|e| e.to_string())?;
    let (faults, adversary) = hostile_checkpoint::plans(instance, ctx.derive(PROFILE, 0));
    TickProfile {
        graph: &instance.graph,
        clock: ClockModel::PerEdgeQueue,
        seed: ctx.derive(PROFILE, 1),
        ticks: PROFILE_TICKS,
        initial: &initial,
        faults: &faults,
        adversary: &adversary,
        engine_classifies: false,
    }
    .measure(out)
}
