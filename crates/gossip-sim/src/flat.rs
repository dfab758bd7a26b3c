//! The **opt-in reduced-precision f32 value tier** of the million-node tier
//! ([`run_f32`]): node values stored as `f32`, every kernel application
//! performed in `f64` on the widened operands and rounded back to `f32`,
//! pinned by the a-priori error-bound oracle [`F32Oracle`].  This is the
//! same policy the dense-vs-sparse and drift oracles established: a fast
//! path is never trusted on faith — it either meets a bound stated *before*
//! the run or the run is an error ([`SimError::PrecisionOracle`]), which the
//! bench trial plumbing guarantees never reaches a journal.
//!
//! # The f32 error bound
//!
//! For a sum-conserving convex pairwise kernel (every kernel in the paper's
//! class `C`, vanilla averaging included) applied to `f32`-stored values:
//!
//! * Widening `f32 → f64` is exact, and the vanilla kernel's
//!   `0.5 * (xu + xv)` is exact in `f64` on widened `f32` operands (24-bit
//!   significands sum without rounding), so the *only* error per tick is
//!   rounding the two outputs back to `f32`: at most `ε₃₂/2 · M` each,
//!   where `M = max |value|` and `ε₃₂ = f32::EPSILON`.
//! * Convexity keeps every value inside the initial `[min, max]` — both
//!   endpoints exactly representable, and round-to-nearest cannot escape an
//!   interval with representable endpoints — so `M` is pinned by the
//!   *initial* state for the whole run.
//! * The exact kernel conserves the sum, so after `T` ticks on `n` nodes
//!   the mean has moved by at most `ε₃₂ · M · T / n` plus `ε₃₂ · M / 2`
//!   from rounding the initial state.
//!
//! [`F32Oracle::mean_drift_bound`] is that bound with a safety factor
//! (default 8×) on top; [`F32Oracle::variance_error_bound`] bounds the
//! incremental tracker's drift against an exact centered pass at stop time,
//! with the same `1e-9`-per-unit-variance margin the f64 drift oracles use.

use crate::engine::{Sampler, SimulationConfig, VarianceMode};
use crate::handler::PairwiseKernel;
use crate::moments::MomentTracker;
use crate::stopping::{SimulationStatus, StopReason};
use crate::values::NodeValues;
use crate::{Result, SimError};
use gossip_graph::Graph;

/// The a-priori error bounds the f32 tier must meet (see the module docs
/// for the derivation).  A violated bound is [`SimError::PrecisionOracle`],
/// never a silently-degraded result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32Oracle {
    /// Safety factor multiplying the analytic mean-drift bound
    /// `ε₃₂ · M · (T/n + 1)`; the default of 8 absorbs the slack between
    /// the worst-case and typical rounding without masking a real defect
    /// (a genuine f32 accumulation bug overshoots by orders of magnitude).
    pub mean_drift_safety: f64,
    /// Margin per unit of initial variance for the tracked-vs-exact final
    /// variance comparison — the same `1e-9` policy as the f64 engine's
    /// incremental-vs-exact drift oracle.
    pub variance_margin: f64,
}

impl Default for F32Oracle {
    fn default() -> Self {
        F32Oracle {
            mean_drift_safety: 8.0,
            variance_margin: 1e-9,
        }
    }
}

impl F32Oracle {
    /// The documented bound on `|mean(final) − mean(initial)|` after
    /// `ticks` ticks on `nodes` nodes with values of magnitude at most
    /// `magnitude`.
    pub fn mean_drift_bound(&self, magnitude: f64, ticks: u64, nodes: usize) -> f64 {
        if nodes == 0 {
            return 0.0;
        }
        self.mean_drift_safety
            * f64::from(f32::EPSILON)
            * magnitude
            * (ticks as f64 / nodes as f64 + 1.0)
    }

    /// The documented bound on `|tracked − exact|` for the final variance.
    pub fn variance_error_bound(&self, initial_variance: f64) -> f64 {
        self.variance_margin * initial_variance.max(1.0)
    }
}

/// Result of an f32-tier run: the `f32` analogue of
/// [`crate::engine::SimulationOutcome`], extended with the measured errors
/// and the bounds they were held to.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Outcome {
    /// The node values when the run stopped.
    pub final_values: Vec<f32>,
    /// Exact variance of the (f32-rounded) initial values.
    pub initial_variance: f64,
    /// Exact (centered O(n) pass) variance of the final values.
    pub final_variance: f64,
    /// Simulated time at which the run stopped.
    pub elapsed_time: f64,
    /// Number of edge ticks processed.
    pub total_ticks: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of exact moment refreshes performed.
    pub moment_refreshes: u64,
    /// Measured `|mean(final) − mean(initial)|`.
    pub mean_drift: f64,
    /// The a-priori bound the drift was held to.
    pub mean_drift_bound: f64,
    /// Measured `|tracked − exact|` final-variance error.
    pub variance_error: f64,
    /// The bound the variance error was held to.
    pub variance_error_bound: f64,
}

impl F32Outcome {
    /// The normalized final variance `var X(T) / var X(0)`.
    pub fn variance_ratio(&self) -> f64 {
        if self.initial_variance <= 0.0 {
            0.0
        } else {
            self.final_variance / self.initial_variance
        }
    }

    /// `true` if the run stopped because it converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

fn invalid(reason: &str) -> SimError {
    SimError::InvalidConfig {
        reason: reason.to_string(),
    }
}

fn widen_into(xs: &[f32], widened: &mut [f64]) {
    for (wide, &narrow) in widened.iter_mut().zip(xs) {
        *wide = f64::from(narrow);
    }
}

fn exact_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The centered O(n) pass of `Vector::variance`, over a raw slice.
fn exact_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mean = exact_mean(xs);
    xs.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
}

/// Runs `kernel` on `graph` with `f32`-stored values until
/// `config.stopping_rule` fires, then checks the run against `oracle`.
///
/// The configuration is interpreted exactly as the f64 engine would: same
/// seed → same tick sequence (the clock streams never touch the values),
/// same stopping rule, same check and refresh cadence.  Only a serial,
/// trace-free, fault-free, honest, incremental-variance configuration is
/// supported; anything else is [`SimError::InvalidConfig`] — the tier is an
/// explicit opt-in, not a silent fallback.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for unsupported configurations,
/// [`SimError::StateSizeMismatch`] / [`SimError::NoEdges`] /
/// [`SimError::NonFiniteValue`] as in the f64 engine (values that overflow
/// `f32` on the initial rounding are non-finite), and
/// [`SimError::PrecisionOracle`] when the finished run violates `oracle` —
/// so a violating run can never be mistaken for (or journaled as) a good
/// one.
pub fn run_f32(
    graph: &Graph,
    initial: &NodeValues,
    kernel: PairwiseKernel,
    config: &SimulationConfig,
    oracle: &F32Oracle,
) -> Result<F32Outcome> {
    if config.trace.is_some() {
        return Err(invalid("the f32 tier does not record traces"));
    }
    if config.fault_plan.is_some() {
        return Err(invalid("the f32 tier does not support fault plans"));
    }
    if config.adversary_plan.is_some() {
        return Err(invalid("the f32 tier does not support adversary plans"));
    }
    if config.shards.is_some() {
        return Err(invalid("the f32 tier is serial; shards are unsupported"));
    }
    if config.variance_mode != VarianceMode::Incremental {
        return Err(invalid(
            "the f32 tier requires the incremental variance mode",
        ));
    }
    if config.settling_threshold.is_some() {
        return Err(invalid("the f32 tier does not track settling times"));
    }
    if initial.len() != graph.node_count() {
        return Err(SimError::StateSizeMismatch {
            nodes: graph.node_count(),
            values: initial.len(),
        });
    }
    let mut xs: Vec<f32> = initial.as_slice().iter().map(|&x| x as f32).collect();
    if let Some(node) = xs.iter().position(|v| !v.is_finite()) {
        return Err(SimError::NonFiniteValue { node });
    }
    let mut widened: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
    let mut tracker = MomentTracker::from_slice(&widened);
    let initial_mean = exact_mean(&widened);
    let initial_variance = exact_variance(&widened);
    // Convexity pins every value inside the initial range, so the rounded
    // initial magnitude bounds |value| for the whole run.
    let magnitude = f64::from(xs.iter().fold(0.0_f32, |acc, &x| acc.max(x.abs())));

    let mut sampler = Sampler::from_model(config.clock_model, graph, config.seed)?;
    let mut refreshes = 0u64;
    let mut time = 0.0_f64;
    let mut ticks = 0u64;
    let initial_status = SimulationStatus {
        time: 0.0,
        ticks: 0,
        variance: initial_variance,
        initial_variance,
    };
    let stop_reason = match config.stopping_rule.evaluate(&initial_status) {
        Some(reason) => reason,
        None => loop {
            if ticks >= config.max_events {
                return Err(SimError::EventBudgetExhausted { events: ticks });
            }
            let event = sampler.next_tick();
            ticks = event.global_tick_count;
            time = event.time;
            let (u, v) = (event.endpoints.u().index(), event.endpoints.v().index());
            let xu = f64::from(xs[u]);
            let xv = f64::from(xs[v]);
            let (new_u, new_v) = kernel(xu, xv);
            let rounded_u = new_u as f32;
            let rounded_v = new_v as f32;
            xs[u] = rounded_u;
            tracker.record_update(xu, f64::from(rounded_u));
            xs[v] = rounded_v;
            tracker.record_update(xv, f64::from(rounded_v));

            if ticks.is_multiple_of(config.moment_refresh_every_ticks) {
                widen_into(&xs, &mut widened);
                tracker.refresh(&widened);
                refreshes += 1;
            }

            if ticks.is_multiple_of(config.check_every_ticks) {
                if !tracker.is_finite() {
                    if let Some(node) = xs.iter().position(|x| !x.is_finite()) {
                        return Err(SimError::NonFiniteValue { node });
                    }
                    // A transient poisoned the sticky running sums while the
                    // values recovered; rebuild exactly (finite f32 squares
                    // cannot overflow the f64 sums, so the refresh always
                    // restores finiteness).
                    widen_into(&xs, &mut widened);
                    tracker.refresh(&widened);
                    refreshes += 1;
                } else if tracker.needs_recenter() {
                    widen_into(&xs, &mut widened);
                    tracker.refresh(&widened);
                    refreshes += 1;
                }
                let status = SimulationStatus {
                    time,
                    ticks,
                    variance: tracker.variance(),
                    initial_variance,
                };
                if let Some(reason) = config.stopping_rule.evaluate(&status) {
                    break reason;
                }
            }
        },
    };

    widen_into(&xs, &mut widened);
    if let Some(node) = xs.iter().position(|x| !x.is_finite()) {
        return Err(SimError::NonFiniteValue { node });
    }
    let tracked_variance = tracker.variance();
    let final_variance = exact_variance(&widened);
    let mean_drift = (exact_mean(&widened) - initial_mean).abs();
    let mean_drift_bound = oracle.mean_drift_bound(magnitude, ticks, xs.len());
    if mean_drift > mean_drift_bound {
        return Err(SimError::PrecisionOracle {
            reason: format!(
                "f32 mean drift {mean_drift:e} exceeds the a-priori bound {mean_drift_bound:e} \
                 after {ticks} ticks on {} nodes",
                xs.len()
            ),
        });
    }
    let variance_error = (tracked_variance - final_variance).abs();
    let variance_error_bound = oracle.variance_error_bound(initial_variance);
    if variance_error > variance_error_bound {
        return Err(SimError::PrecisionOracle {
            reason: format!(
                "f32 tracked final variance is off by {variance_error:e} from the exact pass, \
                 beyond the documented margin {variance_error_bound:e}"
            ),
        });
    }
    Ok(F32Outcome {
        final_values: xs,
        initial_variance,
        final_variance,
        elapsed_time: time,
        total_ticks: ticks,
        stop_reason,
        moment_refreshes: refreshes,
        mean_drift,
        mean_drift_bound,
        variance_error,
        variance_error_bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AsyncSimulator, ClockModel};
    use crate::handler::{EdgeTickContext, EdgeTickHandler};
    use crate::stopping::StoppingRule;
    use crate::trace::TraceConfig;
    use crate::values::NodeValues;
    use gossip_graph::generators::{complete, cycle};

    fn vanilla_kernel(xu: f64, xv: f64) -> (f64, f64) {
        let avg = 0.5 * (xu + xv);
        (avg, avg)
    }

    fn spread(n: usize) -> NodeValues {
        NodeValues::from_values((0..n).map(|i| (i as f64) / (n as f64) - 0.5).collect()).unwrap()
    }

    #[test]
    fn f32_tier_converges_within_its_oracle() {
        for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
            let graph = complete(24).unwrap();
            let config = SimulationConfig::new(97)
                .with_clock_model(model)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000));
            let outcome = run_f32(
                &graph,
                &spread(24),
                vanilla_kernel,
                &config,
                &F32Oracle::default(),
            )
            .unwrap();
            assert!(outcome.converged());
            assert!(outcome.total_ticks > 0);
            assert!(outcome.mean_drift <= outcome.mean_drift_bound);
            assert!(outcome.variance_error <= outcome.variance_error_bound);
            assert!(outcome.variance_ratio() < (-2.0_f64).exp());
        }
    }

    #[test]
    fn f32_tier_matches_f64_tick_schedule() {
        // The clock streams never read the values, so the f32 tier stops at
        // the same *kind* of schedule as f64; with a tick-based rule the
        // stopping tick is identical.
        let graph = cycle(32).unwrap();
        let config = SimulationConfig::new(11)
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::max_ticks(5_000));
        let f32_out = run_f32(
            &graph,
            &spread(32),
            vanilla_kernel,
            &config,
            &F32Oracle::default(),
        )
        .unwrap();
        struct Vanilla;
        impl EdgeTickHandler for Vanilla {
            fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
                let (u, v) = ctx.edge.endpoints();
                values.average_pair(u, v);
            }
        }
        let mut sim = AsyncSimulator::new(&graph, spread(32), Vanilla, config).unwrap();
        let f64_out = sim.run().unwrap();
        assert_eq!(f32_out.total_ticks, f64_out.total_ticks);
        assert_eq!(
            f32_out.elapsed_time.to_bits(),
            f64_out.elapsed_time.to_bits()
        );
        // And the states agree to f32 rounding.
        for (narrow, wide) in f32_out
            .final_values
            .iter()
            .zip(f64_out.final_values.as_slice())
        {
            assert!((f64::from(*narrow) - wide).abs() <= 1e-5);
        }
    }

    #[test]
    fn f32_tier_rejects_unsupported_configurations() {
        let graph = complete(4).unwrap();
        let initial = spread(4);
        let reject = |config: SimulationConfig| {
            matches!(
                run_f32(
                    &graph,
                    &initial,
                    vanilla_kernel,
                    &config,
                    &F32Oracle::default()
                ),
                Err(SimError::InvalidConfig { .. })
            )
        };
        assert!(reject(
            SimulationConfig::new(1).with_trace(TraceConfig::default())
        ));
        assert!(reject(
            SimulationConfig::new(1).with_fault_plan(crate::fault::FaultPlan::new(2))
        ));
        assert!(reject(
            SimulationConfig::new(1).with_adversary_plan(crate::adversary::AdversaryPlan::new(3))
        ));
        assert!(reject(SimulationConfig::new(1).with_shards(2)));
        assert!(reject(
            SimulationConfig::new(1).with_variance_mode(VarianceMode::ExactEveryCheck)
        ));
        assert!(reject(
            SimulationConfig::new(1).with_settling_threshold(0.5)
        ));
        assert!(matches!(
            run_f32(
                &graph,
                &spread(5),
                vanilla_kernel,
                &SimulationConfig::new(1),
                &F32Oracle::default()
            ),
            Err(SimError::StateSizeMismatch { .. })
        ));
    }

    #[test]
    fn f32_tier_zero_variance_stops_immediately() {
        let graph = complete(3).unwrap();
        let outcome = run_f32(
            &graph,
            &NodeValues::constant(3, 2.5),
            vanilla_kernel,
            &SimulationConfig::new(9),
            &F32Oracle::default(),
        )
        .unwrap();
        assert_eq!(outcome.total_ticks, 0);
        assert!(outcome.converged());
        assert_eq!(outcome.mean_drift, 0.0);
        assert_eq!(outcome.variance_error, 0.0);
    }

    #[test]
    fn f32_oracle_violation_is_a_precision_error() {
        // A zero safety factor makes any nonzero drift a violation.  The
        // initial values are deliberately non-dyadic (thirds), so pairwise
        // averages round in f32 from the very first tick and this seed's
        // accumulated drift is nonzero — dyadic initials like `spread`'s
        // would stay exactly representable through a Definition 1 stop and
        // never drift at all.
        let graph = complete(16).unwrap();
        let initial =
            NodeValues::from_values((0..16).map(|i| ((i as f64) + 0.1) / 3.0).collect()).unwrap();
        let strict = F32Oracle {
            mean_drift_safety: 0.0,
            variance_margin: 1e-9,
        };
        let config = SimulationConfig::new(41)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(1_000_000));
        let result = run_f32(&graph, &initial, vanilla_kernel, &config, &strict);
        assert!(matches!(result, Err(SimError::PrecisionOracle { .. })));
    }

    #[test]
    fn f32_initial_overflow_is_non_finite() {
        let graph = complete(2).unwrap();
        let initial = NodeValues::from_values(vec![1e300, 0.0]).unwrap();
        assert!(matches!(
            run_f32(
                &graph,
                &initial,
                vanilla_kernel,
                &SimulationConfig::new(1),
                &F32Oracle::default()
            ),
            Err(SimError::NonFiniteValue { node: 0 })
        ));
    }

    #[test]
    fn oracle_bounds_are_monotone_and_degenerate_safely() {
        let oracle = F32Oracle::default();
        assert_eq!(oracle.mean_drift_bound(1.0, 0, 0), 0.0);
        assert!(oracle.mean_drift_bound(1.0, 1_000, 10) > oracle.mean_drift_bound(1.0, 100, 10));
        assert!(oracle.variance_error_bound(0.0) > 0.0);
        assert!(oracle.variance_error_bound(4.0) > oracle.variance_error_bound(1.0));
    }
}
