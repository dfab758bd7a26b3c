//! Synchronous round-based driver.
//!
//! The related-work baselines the paper cites — first- and second-order
//! diffusive load balancing (Muthukrishnan–Ghosh–Schultz) and two-time-scale
//! averaging — are naturally described in *synchronous rounds*: in every round
//! all nodes update simultaneously from their neighbours' previous values.
//! [`SyncSimulator`] drives such algorithms and reports results in a form
//! comparable with the asynchronous engine: one synchronous round on a graph
//! with `|E|` edges is charged `|E|` edge activations, i.e. one unit of the
//! asynchronous model's absolute time.

use crate::stopping::{SimulationStatus, StopReason, StoppingRule};
use crate::values::NodeValues;
use crate::{Result, SimError};
use gossip_graph::Graph;

/// A synchronous update rule: computes the next state from the current one.
pub trait RoundHandler {
    /// Applies one synchronous round, mutating `values` in place.
    fn on_round(&mut self, values: &mut NodeValues, round: u64, graph: &Graph);

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &str {
        "unnamed"
    }
}

impl<T: RoundHandler + ?Sized> RoundHandler for &mut T {
    fn on_round(&mut self, values: &mut NodeValues, round: u64, graph: &Graph) {
        (**self).on_round(values, round, graph);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<T: RoundHandler + ?Sized> RoundHandler for Box<T> {
    fn on_round(&mut self, values: &mut NodeValues, round: u64, graph: &Graph) {
        (**self).on_round(values, round, graph);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Configuration of a synchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncConfig {
    /// When to stop.  Time is measured in *equivalent asynchronous absolute
    /// time*: round `r` maps to time `r` (each round activates every edge
    /// once, and the asynchronous model activates edges at aggregate rate
    /// `|E|`).
    pub stopping_rule: StoppingRule,
    /// Hard cap on the number of rounds.
    pub max_rounds: u64,
}

impl SyncConfig {
    /// Default configuration: Definition 1 threshold with a round guard.
    pub fn new() -> Self {
        SyncConfig {
            stopping_rule: StoppingRule::default(),
            max_rounds: 10_000_000,
        }
    }

    /// Sets the stopping rule.
    pub fn with_stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.stopping_rule = rule;
        self
    }

    /// Sets the hard round cap.
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }
}

impl Default for SyncConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a synchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncOutcome {
    /// The node values when the run stopped.
    pub final_values: NodeValues,
    /// Variance of the initial values.
    pub initial_variance: f64,
    /// Variance of the final values.
    pub final_variance: f64,
    /// Number of rounds executed.
    pub rounds: u64,
    /// Equivalent asynchronous absolute time (`rounds` by the convention
    /// described on [`SyncConfig`]).
    pub equivalent_time: f64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

impl SyncOutcome {
    /// `true` if the run stopped because it converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

/// Synchronous round-based simulator.
pub struct SyncSimulator<'g, H> {
    graph: &'g Graph,
    values: NodeValues,
    handler: H,
    config: SyncConfig,
    initial_variance: f64,
}

impl<'g, H: RoundHandler> SyncSimulator<'g, H> {
    /// Creates a synchronous simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateSizeMismatch`] or [`SimError::NonFiniteValue`]
    /// for invalid initial states.
    pub fn new(
        graph: &'g Graph,
        initial: NodeValues,
        handler: H,
        config: SyncConfig,
    ) -> Result<Self> {
        if initial.len() != graph.node_count() {
            return Err(SimError::StateSizeMismatch {
                nodes: graph.node_count(),
                values: initial.len(),
            });
        }
        initial.check_finite()?;
        let initial_variance = initial.variance();
        Ok(SyncSimulator {
            graph,
            values: initial,
            handler,
            config,
            initial_variance,
        })
    }

    /// Runs until the stopping rule fires or the round cap is reached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] when the round cap is
    /// reached without a stopping rule firing, and
    /// [`SimError::NonFiniteValue`] if the handler produces non-finite values.
    /// Returns [`SimError::StateSizeMismatch`] when called again after a run
    /// that returned `Ok`, whose outcome took the node values.
    pub fn run(&mut self) -> Result<SyncOutcome> {
        if self.values.len() != self.graph.node_count() {
            return Err(SimError::StateSizeMismatch {
                nodes: self.graph.node_count(),
                values: self.values.len(),
            });
        }
        let initial_status = SimulationStatus {
            time: 0.0,
            ticks: 0,
            variance: self.initial_variance,
            initial_variance: self.initial_variance,
        };
        if let Some(reason) = self.config.stopping_rule.evaluate(&initial_status) {
            return Ok(self.finish(0, reason));
        }

        let mut round = 0u64;
        loop {
            if round >= self.config.max_rounds {
                return Err(SimError::EventBudgetExhausted { events: round });
            }
            round += 1;
            self.handler.on_round(&mut self.values, round, self.graph);
            self.values.check_finite()?;
            let status = SimulationStatus {
                time: round as f64,
                ticks: round,
                variance: self.values.variance(),
                initial_variance: self.initial_variance,
            };
            if let Some(reason) = self.config.stopping_rule.evaluate(&status) {
                return Ok(self.finish(round, reason));
            }
        }
    }

    fn finish(&mut self, rounds: u64, reason: StopReason) -> SyncOutcome {
        SyncOutcome {
            final_variance: self.values.variance(),
            final_values: std::mem::replace(&mut self.values, NodeValues::constant(0, 0.0)),
            initial_variance: self.initial_variance,
            rounds,
            equivalent_time: rounds as f64,
            stop_reason: reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, path};
    use gossip_graph::NodeId;
    use gossip_linalg::Vector;

    /// Simple synchronous diffusion used only to exercise the driver:
    /// `x ← x − 0.4·L·x` (stable for graphs with max degree ≤ 2 here).
    struct Diffusion {
        step: f64,
    }

    impl RoundHandler for Diffusion {
        fn on_round(&mut self, values: &mut NodeValues, _round: u64, graph: &Graph) {
            let x = values.as_vector().clone();
            let mut next = x.clone();
            for v in graph.nodes() {
                let mut acc = 0.0;
                for (u, _) in graph.neighbors(v) {
                    acc += x[u.index()] - x[v.index()];
                }
                next[v.index()] += self.step * acc;
            }
            *values = NodeValues::from_vector(Vector::from(next.as_slice().to_vec())).unwrap();
        }

        fn name(&self) -> &str {
            "diffusion"
        }
    }

    struct Explode;

    impl RoundHandler for Explode {
        fn on_round(&mut self, values: &mut NodeValues, _round: u64, _graph: &Graph) {
            values.set(NodeId(0), f64::INFINITY);
        }
    }

    #[test]
    fn diffusion_converges_on_path() {
        let g = path(6).unwrap();
        let initial = NodeValues::from_values(vec![6.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let mean = initial.mean();
        let config = SyncConfig::new()
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-6).or_max_ticks(100_000));
        let mut sim = SyncSimulator::new(&g, initial, Diffusion { step: 0.3 }, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!((outcome.final_values.mean() - mean).abs() < 1e-9);
        assert!(outcome.rounds > 0);
        assert!((outcome.equivalent_time - outcome.rounds as f64).abs() < 1e-12);
    }

    #[test]
    fn validates_state_and_handles_zero_variance() {
        let g = complete(3).unwrap();
        assert!(SyncSimulator::new(
            &g,
            NodeValues::constant(2, 0.0),
            Diffusion { step: 0.1 },
            SyncConfig::new()
        )
        .is_err());
        let mut sim = SyncSimulator::new(
            &g,
            NodeValues::constant(3, 1.0),
            Diffusion { step: 0.1 },
            SyncConfig::new(),
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.rounds, 0);
        assert!(outcome.converged());
        assert_eq!(outcome.final_variance, 0.0);
    }

    #[test]
    fn round_cap_guard() {
        let g = path(3).unwrap();
        let config = SyncConfig::new()
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.0))
            .with_max_rounds(5);
        let mut sim = SyncSimulator::new(
            &g,
            NodeValues::from_values(vec![1.0, 0.0, 0.0]).unwrap(),
            Diffusion { step: 0.0 },
            config,
        )
        .unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn non_finite_detection() {
        let g = path(3).unwrap();
        let mut sim = SyncSimulator::new(
            &g,
            NodeValues::from_values(vec![1.0, 0.0, 0.0]).unwrap(),
            Explode,
            SyncConfig::new(),
        )
        .unwrap();
        assert!(matches!(sim.run(), Err(SimError::NonFiniteValue { .. })));
    }

    #[test]
    fn a_completed_run_moves_its_values_into_the_outcome() {
        let g = path(3).unwrap();
        let mut sim = SyncSimulator::new(
            &g,
            NodeValues::from_values(vec![1.0, 0.0, 0.0]).unwrap(),
            Diffusion { step: 0.3 },
            SyncConfig::new(),
        )
        .unwrap();
        assert_eq!(sim.run().unwrap().final_values.len(), 3);
        assert_eq!(
            sim.run().unwrap_err(),
            SimError::StateSizeMismatch {
                nodes: 3,
                values: 0
            }
        );
    }

    #[test]
    fn config_builder() {
        let c = SyncConfig::default().with_max_rounds(42);
        assert_eq!(c.max_rounds, 42);
    }
}
