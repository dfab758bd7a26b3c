//! An asynchronous two-time-scale / momentum gossip baseline.
//!
//! The paper's introduction points to two related lines of prior work: the
//! second-order diffusive methods of Muthukrishnan–Ghosh–Schultz (values from
//! the previous *two* rounds are combined) and two-time-scale stochastic
//! approximation (Borkar; Konda–Tsitsiklis), where a fast iterate equilibrates
//! between updates of a slow one.  [`TwoTimeScaleGossip`] is the natural
//! asynchronous representative of both ideas in the edge-clock model:
//!
//! * the **fast** time scale is the ordinary pairwise average applied at
//!   every edge tick;
//! * the **slow** time scale is a per-edge memory of the amount transferred
//!   the last time that edge ticked; a fraction `momentum` of that remembered
//!   flow is re-applied on top of the fresh average (heavy-ball style).
//!
//! Because the momentum correction is *antisymmetric* (whatever is added to
//! one endpoint is subtracted from the other), the update conserves the sum
//! exactly — unlike a per-node shift register — so its averaging time is
//! directly comparable with the other algorithms.  The update is **not** a
//! convex combination of current values (for `momentum > 0` it can overshoot
//! the current range), so it sits outside the paper's class `C`; experiment
//! E7 shows that this kind of non-convexity alone still does not escape the
//! sparse-cut bottleneck the way Algorithm A does.

use crate::{CoreError, Result};
use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler, HandlerState};
use gossip_sim::values::NodeValues;

/// Asynchronous momentum ("two-time-scale") gossip.
#[derive(Debug, Clone)]
pub struct TwoTimeScaleGossip {
    momentum: f64,
    /// Last signed flow applied on each edge, oriented from the edge's
    /// smaller endpoint `u` to its larger endpoint `v`.
    last_flow: Vec<f64>,
}

impl TwoTimeScaleGossip {
    /// Creates the rule for a graph with `edge_count` edges.
    ///
    /// `momentum = 0` reduces exactly to vanilla gossip; values up to about
    /// `0.9` accelerate mixing on poorly connected graphs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `momentum ∉ [0, 1)`.
    pub fn new(edge_count: usize, momentum: f64) -> Result<Self> {
        if !(0.0..1.0).contains(&momentum) {
            return Err(CoreError::InvalidConfig {
                reason: format!("momentum must lie in [0, 1), got {momentum}"),
            });
        }
        Ok(TwoTimeScaleGossip {
            momentum,
            last_flow: vec![0.0; edge_count],
        })
    }

    /// Convenience constructor taking the graph directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `momentum ∉ [0, 1)`.
    pub fn for_graph(graph: &gossip_graph::Graph, momentum: f64) -> Result<Self> {
        Self::new(graph.edge_count(), momentum)
    }
}

impl EdgeTickHandler for TwoTimeScaleGossip {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        let xu = values.get(u);
        let xv = values.get(v);
        // Fresh averaging flow from v to u (vanilla average moves half the
        // difference), plus a momentum fraction of the previous flow on this
        // edge.
        let fresh = 0.5 * (xv - xu);
        let flow = fresh + self.momentum * self.last_flow[ctx.edge_id.index()];
        values.set(u, xu + flow);
        values.set(v, xv - flow);
        self.last_flow[ctx.edge_id.index()] = flow;
    }

    fn name(&self) -> &str {
        "two-time-scale"
    }

    /// `last_flow`, one real per edge.
    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState {
            integers: Vec::new(),
            reals: self.last_flow.iter().copied().map(Some).collect(),
        })
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 0, self.last_flow.len())?;
        let flows: Option<Vec<f64>> = state.reals.iter().copied().collect();
        self.last_flow = flows.ok_or_else(|| gossip_sim::SimError::CheckpointInvalid {
            reason: "two-time-scale state has an empty flow slot".into(),
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::VanillaGossip;
    use gossip_graph::generators::{complete, dumbbell, path};
    use gossip_graph::EdgeId;
    use gossip_sim::engine::{AsyncSimulator, SimulationConfig};
    use gossip_sim::stopping::StoppingRule;

    #[test]
    fn constructor_validation() {
        let g = complete(4).unwrap();
        assert!(TwoTimeScaleGossip::for_graph(&g, -0.1).is_err());
        assert!(TwoTimeScaleGossip::for_graph(&g, 1.0).is_err());
        let ok = TwoTimeScaleGossip::for_graph(&g, 0.5).unwrap();
        assert_eq!(ok.name(), "two-time-scale");
    }

    #[test]
    fn zero_momentum_equals_vanilla() {
        let g = path(5).unwrap();
        let initial = NodeValues::from_values(vec![5.0, 0.0, 1.0, -2.0, 0.0]).unwrap();
        let mut a = initial.clone();
        let mut b = initial;
        let mut ttsg = TwoTimeScaleGossip::for_graph(&g, 0.0).unwrap();
        let mut vanilla = VanillaGossip::new();
        for t in 0..200u64 {
            let edge = EdgeId((t as usize * 3 + 1) % g.edge_count());
            let ctx = EdgeTickContext {
                graph: &g,
                edge: g.edge(edge).unwrap(),
                edge_id: edge,
                time: t as f64,
                global_tick_count: t + 1,
            };
            ttsg.on_edge_tick(&mut a, &ctx);
            vanilla.on_edge_tick(&mut b, &ctx);
        }
        for i in 0..5 {
            assert!(
                (a.get(gossip_graph::NodeId(i)) - b.get(gossip_graph::NodeId(i))).abs() < 1e-12
            );
        }
    }

    #[test]
    fn momentum_updates_conserve_sum_exactly() {
        let g = complete(6).unwrap();
        let mut values = NodeValues::from_values(vec![3.0, -1.0, 4.0, -1.0, 5.0, -9.0]).unwrap();
        let sum = values.sum();
        let mut algo = TwoTimeScaleGossip::for_graph(&g, 0.8).unwrap();
        for t in 0..500u64 {
            let edge = EdgeId((t as usize * 7 + 2) % g.edge_count());
            let ctx = EdgeTickContext {
                graph: &g,
                edge: g.edge(edge).unwrap(),
                edge_id: edge,
                time: t as f64,
                global_tick_count: t + 1,
            };
            algo.on_edge_tick(&mut values, &ctx);
        }
        assert!((values.sum() - sum).abs() < 1e-8);
    }

    #[test]
    fn momentum_update_is_not_convex() {
        // After two ticks of the same edge in the same direction, the value
        // can overshoot the initial range — demonstrating that the rule sits
        // outside class C.
        let g = path(2).unwrap();
        let mut values = NodeValues::from_values(vec![0.0, 1.0]).unwrap();
        let mut algo = TwoTimeScaleGossip::for_graph(&g, 0.9).unwrap();
        let ctx = |k: u64| EdgeTickContext {
            graph: &g,
            edge: g.edge(EdgeId(0)).unwrap(),
            edge_id: EdgeId(0),
            time: k as f64,
            global_tick_count: k,
        };
        algo.on_edge_tick(&mut values, &ctx(1));
        // Both endpoints now hold 0.5; the remembered flow is +0.5 toward u.
        algo.on_edge_tick(&mut values, &ctx(2));
        // Second tick re-applies 0.9·0.5 even though the difference is zero.
        assert!(values.get(gossip_graph::NodeId(0)) > 0.5 + 0.4);
        assert!(values.get(gossip_graph::NodeId(1)) < 0.5 - 0.4);
        assert!(values.max().unwrap() > 0.9);
    }

    #[test]
    fn converges_on_complete_graph() {
        let g = complete(8).unwrap();
        let initial: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let config = SimulationConfig::new(3)
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-4).or_max_ticks(1_000_000));
        let mut sim = AsyncSimulator::new(
            &g,
            NodeValues::from_values(initial).unwrap(),
            TwoTimeScaleGossip::for_graph(&g, 0.5).unwrap(),
            config,
        )
        .unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!((outcome.final_values.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn still_cut_limited_on_dumbbell() {
        // Momentum gossip helps, but it still has to push mass through the
        // single bridge edge one tick at a time, so its averaging time on the
        // dumbbell grows with n (unlike Algorithm A).
        let time_for = |half: usize, seed: u64| {
            let (g, p) = dumbbell(half).unwrap();
            let initial = crate::averaging_time::AveragingTimeEstimator::adversarial_initial(&p);
            let config = SimulationConfig::new(seed)
                .with_stopping_rule(StoppingRule::definition1().or_max_time(200_000.0));
            let mut sim = AsyncSimulator::new(
                &g,
                initial,
                TwoTimeScaleGossip::for_graph(&g, 0.7).unwrap(),
                config,
            )
            .unwrap();
            sim.run().unwrap().elapsed_time
        };
        let small: f64 = (0..3).map(|s| time_for(6, s)).sum::<f64>() / 3.0;
        let large: f64 = (0..3).map(|s| time_for(20, s)).sum::<f64>() / 3.0;
        assert!(
            large > 1.5 * small,
            "momentum gossip should still scale with the cut: {small} vs {large}"
        );
    }
}
