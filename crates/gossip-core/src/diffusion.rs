//! Synchronous first- and second-order diffusive load balancing
//! (Muthukrishnan, Ghosh and Schultz), the non-convex prior work cited by the
//! paper's introduction.
//!
//! * **First-order diffusion (FOS)**: `x^{t+1} = x^t − δ·L·x^t = M·x^t` with
//!   `M = I − δL`.  For `δ < 1/d_max` the scheme is a convex combination of
//!   neighbour values and converges at rate `ρ = max(|λ₂(M)|, |λ_n(M)|)`.
//! * **Second-order diffusion (SOS)**: `x^{t+1} = β·M·x^t + (1−β)·x^{t−1}`
//!   with `β ∈ [1, 2)`.  This uses the values of the *previous two* rounds —
//!   the non-convex "memory" idea the paper points to — and with the optimal
//!   `β* = 2 / (1 + √(1 − ρ²))` converges roughly quadratically faster than
//!   FOS on poorly connected graphs.
//!
//! Both conserve the sum exactly (their iteration matrices fix the all-ones
//! vector and are symmetric), so the asynchronous experiments can compare
//! them with gossip algorithms on equal footing; a synchronous round is
//! charged `|E|` edge activations, i.e. one unit of the asynchronous model's
//! absolute time (see `gossip-sim::sync`).

use crate::{CoreError, Result};
use gossip_graph::Graph;
use gossip_linalg::Vector;
use gossip_sim::sync::RoundHandler;
use gossip_sim::values::NodeValues;

fn default_step(graph: &Graph) -> f64 {
    // δ = 1/(d_max + 1) is always stable and keeps M's entries non-negative.
    1.0 / (graph.max_degree() as f64 + 1.0)
}

fn diffusion_round(values: &NodeValues, graph: &Graph, step: f64) -> Vector {
    let current = values.as_vector();
    let mut next = current.clone();
    for v in graph.nodes() {
        let mut flux = 0.0;
        for (u, _) in graph.neighbors(v) {
            flux += current[u.index()] - current[v.index()];
        }
        next[v.index()] += step * flux;
    }
    next
}

/// First-order synchronous diffusion `x ← (I − δL)·x` with the stable step
/// `δ = 1/(d_max + 1)`.
#[derive(Debug, Clone, Default)]
pub struct FirstOrderDiffusion;

impl FirstOrderDiffusion {
    /// Uses the automatic stable step `δ = 1/(d_max + 1)`.
    pub fn new() -> Self {
        FirstOrderDiffusion
    }
}

impl RoundHandler for FirstOrderDiffusion {
    fn on_round(&mut self, values: &mut NodeValues, _round: u64, graph: &Graph) {
        let next = diffusion_round(values, graph, default_step(graph));
        *values = NodeValues::from_vector(next).expect("diffusion of finite values is finite");
    }

    fn name(&self) -> &str {
        "first-order-diffusion"
    }
}

/// Second-order synchronous diffusion with memory of the previous round.
#[derive(Debug, Clone)]
pub struct SecondOrderDiffusion {
    beta: f64,
    previous: Option<Vector>,
}

impl SecondOrderDiffusion {
    /// Creates the scheme with mixing parameter `beta ∈ [1, 2)` and the
    /// automatic stable diffusion step.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `beta ∉ [1, 2)`.
    pub fn new(beta: f64) -> Result<Self> {
        if !(1.0..2.0).contains(&beta) {
            return Err(CoreError::InvalidConfig {
                reason: format!("second-order beta must lie in [1, 2), got {beta}"),
            });
        }
        Ok(SecondOrderDiffusion {
            beta,
            previous: None,
        })
    }
}

impl RoundHandler for SecondOrderDiffusion {
    fn on_round(&mut self, values: &mut NodeValues, _round: u64, graph: &Graph) {
        let current = values.as_vector().clone();
        let diffused = diffusion_round(values, graph, default_step(graph));
        let next = match &self.previous {
            // First round: plain first-order step (the standard SOS start-up).
            None => diffused,
            Some(previous) => {
                let mut combined = diffused.scaled(self.beta);
                combined
                    .axpy(1.0 - self.beta, previous)
                    .expect("dimensions agree by construction");
                combined
            }
        };
        self.previous = Some(current);
        *values = NodeValues::from_vector(next).expect("diffusion of finite values is finite");
    }

    fn name(&self) -> &str {
        "second-order-diffusion"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{dumbbell, path};
    use gossip_sim::stopping::StoppingRule;
    use gossip_sim::sync::{SyncConfig, SyncSimulator};

    fn spike(n: usize) -> NodeValues {
        let mut v = vec![0.0; n];
        v[0] = n as f64;
        NodeValues::from_values(v).unwrap()
    }

    #[test]
    fn constructors_validate() {
        assert!(SecondOrderDiffusion::new(0.9).is_err());
        assert!(SecondOrderDiffusion::new(2.0).is_err());
        assert!(SecondOrderDiffusion::new(1.5).is_ok());
        assert_eq!(FirstOrderDiffusion::new().name(), "first-order-diffusion");
        assert_eq!(
            SecondOrderDiffusion::new(1.2).unwrap().name(),
            "second-order-diffusion"
        );
    }

    #[test]
    fn first_order_conserves_sum_and_converges() {
        let g = path(8).unwrap();
        let initial = spike(8);
        let sum = initial.sum();
        let config = SyncConfig::new()
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-6).or_max_ticks(100_000));
        let mut sim = SyncSimulator::new(&g, initial, FirstOrderDiffusion::new(), config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!((outcome.final_values.sum() - sum).abs() < 1e-8);
    }

    #[test]
    fn second_order_conserves_sum_and_converges_faster_on_path() {
        let g = path(24).unwrap();
        let rounds_of = |handler: Box<dyn RoundHandler>| {
            let config = SyncConfig::new().with_stopping_rule(
                StoppingRule::variance_ratio_below(1e-4).or_max_ticks(2_000_000),
            );
            let mut sim = SyncSimulator::new(&g, spike(24), handler, config).unwrap();
            let outcome = sim.run().unwrap();
            assert!(outcome.converged());
            assert!((outcome.final_values.sum() - 24.0).abs() < 1e-6);
            outcome.rounds
        };
        let fos = rounds_of(Box::<FirstOrderDiffusion>::default());
        // On a long path the first-order factor rho is close to 1; use a
        // strong beta.
        let sos = rounds_of(Box::new(SecondOrderDiffusion::new(1.8).unwrap()));
        assert!(
            sos < fos,
            "second-order ({sos} rounds) should beat first-order ({fos} rounds)"
        );
    }

    #[test]
    fn diffusion_is_still_cut_limited_on_dumbbell() {
        // Even the accelerated scheme must push mass through the single
        // bridge, so the round count grows with the clique size.
        let rounds_for = |half: usize| {
            let (g, _) = dumbbell(half).unwrap();
            let config = SyncConfig::new()
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000));
            let initial = {
                let mut v = vec![1.0; half];
                v.extend(std::iter::repeat_n(-1.0, half));
                NodeValues::from_values(v).unwrap()
            };
            let mut sim =
                SyncSimulator::new(&g, initial, SecondOrderDiffusion::new(1.6).unwrap(), config)
                    .unwrap();
            sim.run().unwrap().rounds
        };
        let small = rounds_for(8);
        let large = rounds_for(24);
        assert!(
            large > small,
            "dumbbell rounds should grow with size: {small} vs {large}"
        );
    }

    #[test]
    fn default_step_is_used() {
        let g = path(4).unwrap();
        let mut values = NodeValues::from_values(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let mut fos = FirstOrderDiffusion::new();
        fos.on_round(&mut values, 1, &g);
        // d_max = 2, so node 0 sends δ = 1/3 of the difference to node 1.
        assert!((values.get(gossip_graph::NodeId(0)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((values.get(gossip_graph::NodeId(1)) - 1.0 / 3.0).abs() < 1e-12);
    }
}
