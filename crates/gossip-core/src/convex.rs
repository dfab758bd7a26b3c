//! The class `C` of convex pairwise updates (Definition 2 of the paper).
//!
//! Every algorithm here updates the two endpoints of the ticking edge by a
//! convex combination `x_i ← αx_i + (1−α)x_j`, `x_j ← αx_j + (1−α)x_i` with
//! `α ∈ [0,1]`.  Such updates keep every value inside
//! `[min_i x_i(0), max_i x_i(0)]` and never increase the variance — which is
//! precisely why Theorem 1 applies to all of them: on a graph with a sparse
//! cut, mass can only leak across the cut at rate `O(|E₁₂|/min(n₁,n₂))` per
//! unit time, so averaging needs `Ω(min(n₁,n₂)/|E₁₂|)` time.

use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler, HandlerState};
use gossip_sim::values::NodeValues;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// The "vanilla" algorithm: replace both endpoint values by their arithmetic
/// mean (`α = ½`).
///
/// This is the algorithm whose per-block averaging times `T_van(G₁)`,
/// `T_van(G₂)` parametrize Algorithm A.
#[derive(Debug, Clone, Copy, Default)]
pub struct VanillaGossip;

impl VanillaGossip {
    /// Creates the vanilla algorithm.
    pub fn new() -> Self {
        VanillaGossip
    }
}

impl EdgeTickHandler for VanillaGossip {
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

/// A convex pairwise update with a fixed mixing parameter `α`.
///
/// `α = ½` recovers [`VanillaGossip`]; `α` close to 1 mixes slowly; `α = 1`
/// never changes anything.  All values of `α ∈ [0, 1]` are members of the
/// paper's class `C` and therefore subject to the Theorem 1 lower bound.
#[derive(Debug, Clone, Copy)]
pub struct WeightedConvexGossip {
    alpha: f64,
}

impl WeightedConvexGossip {
    /// Creates a convex gossip rule with mixing parameter `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] if `alpha ∉ [0, 1]`.
    pub fn new(alpha: f64) -> crate::Result<Self> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(crate::CoreError::InvalidConfig {
                reason: format!("convex mixing parameter must lie in [0, 1], got {alpha}"),
            });
        }
        Ok(WeightedConvexGossip { alpha })
    }

    /// The mixing parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl EdgeTickHandler for WeightedConvexGossip {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        values.convex_pair_update(u, v, self.alpha);
    }

    fn name(&self) -> &str {
        "weighted-convex"
    }

    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState::default())
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 0, 0)
    }
}

/// Natural random-walk gossip in the style of Boyd, Ghosh, Prabhakar and
/// Shah, expressed in the edge-clock model.
///
/// In the node-clock formulation, when node `i`'s clock ticks it contacts a
/// uniformly random neighbour `j` and both replace their values by the
/// average.  To express this in the paper's edge-clock model (footnote 1 of
/// the paper notes the two models simulate each other), this handler treats
/// every edge tick as a node activation: one endpoint of the ticking edge is
/// chosen uniformly at random as the "caller", which then contacts a
/// uniformly random neighbour (not necessarily the other endpoint of the
/// ticking edge) and averages with it.  The resulting update is still a
/// convex pairwise average, so the algorithm belongs to class `C`.
#[derive(Debug, Clone)]
pub struct RandomNeighborGossip {
    rng: ChaCha8Rng,
}

impl RandomNeighborGossip {
    /// Creates the rule with its own deterministic random stream.
    pub fn new(seed: u64) -> Self {
        RandomNeighborGossip {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }
}

impl EdgeTickHandler for RandomNeighborGossip {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        let caller = if self.rng.gen::<bool>() { u } else { v };
        let degree = ctx.graph.degree(caller);
        if degree == 0 {
            return;
        }
        let pick = self.rng.gen_range(0..degree);
        let (callee, _) = ctx
            .graph
            .neighbors(caller)
            .nth(pick)
            .expect("degree counted above");
        values.average_pair(caller, callee);
    }

    fn name(&self) -> &str {
        "random-neighbor"
    }

    /// The caller/callee stream's keystream position, high word first.
    fn save_state(&self) -> Option<HandlerState> {
        let position = self.rng.get_word_pos();
        Some(HandlerState {
            integers: vec![(position >> 64) as u64, position as u64],
            reals: Vec::new(),
        })
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 2, 0)?;
        let position = (u128::from(state.integers[0]) << 64) | u128::from(state.integers[1]);
        self.rng.set_word_pos(position);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, dumbbell, path};
    use gossip_graph::{EdgeId, NodeId};
    use gossip_sim::engine::{AsyncSimulator, SimulationConfig};
    use gossip_sim::stopping::StoppingRule;
    use proptest::prelude::*;

    fn ctx_for<'a>(graph: &'a gossip_graph::Graph, edge: EdgeId) -> EdgeTickContext<'a> {
        EdgeTickContext {
            graph,
            edge: graph.edge(edge).unwrap(),
            edge_id: edge,
            time: 1.0,
            global_tick_count: 1,
        }
    }

    #[test]
    fn vanilla_averages_endpoints() {
        let g = path(3).unwrap();
        let mut v = NodeValues::from_values(vec![2.0, 0.0, 8.0]).unwrap();
        let mut algo = VanillaGossip::new();
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(0)));
        assert_eq!(v.as_slice(), &[1.0, 1.0, 8.0]);
        assert_eq!(algo.name(), "vanilla");
    }

    #[test]
    fn weighted_convex_validates_alpha() {
        assert!(WeightedConvexGossip::new(-0.1).is_err());
        assert!(WeightedConvexGossip::new(1.1).is_err());
        assert!(WeightedConvexGossip::new(f64::NAN).is_err());
        let w = WeightedConvexGossip::new(0.75).unwrap();
        assert!((w.alpha() - 0.75).abs() < 1e-15);
        assert_eq!(w.name(), "weighted-convex");
    }

    #[test]
    fn weighted_convex_applies_update() {
        let g = path(2).unwrap();
        let mut v = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        let mut algo = WeightedConvexGossip::new(0.75).unwrap();
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(0)));
        assert!((v.get(NodeId(0)) - 0.5).abs() < 1e-12);
        assert!((v.get(NodeId(1)) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn random_neighbor_conserves_mass_and_is_reproducible() {
        let g = complete(6).unwrap();
        let mut v1 = NodeValues::from_values(vec![6.0, 0.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        let mut v2 = v1.clone();
        let mut a = RandomNeighborGossip::new(9);
        let mut b = RandomNeighborGossip::new(9);
        for tick in 0..50u64 {
            let edge = EdgeId((tick as usize) % g.edge_count());
            let mut ctx = ctx_for(&g, edge);
            ctx.global_tick_count = tick + 1;
            a.on_edge_tick(&mut v1, &ctx);
            b.on_edge_tick(&mut v2, &ctx);
        }
        assert_eq!(v1, v2);
        assert!((v1.sum() - 6.0).abs() < 1e-9);
        assert_eq!(RandomNeighborGossip::new(1).name(), "random-neighbor");
    }

    #[test]
    fn all_convex_rules_converge_on_complete_graph() {
        let g = complete(8).unwrap();
        let initial: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let rule = StoppingRule::variance_ratio_below(1e-4).or_max_ticks(2_000_000);
        let run = |handler: Box<dyn EdgeTickHandler>| {
            let config = SimulationConfig::new(5).with_stopping_rule(rule.clone());
            let mut sim = AsyncSimulator::new(
                &g,
                NodeValues::from_values(initial.clone()).unwrap(),
                handler,
                config,
            )
            .unwrap();
            sim.run().unwrap()
        };
        for handler in [
            Box::new(VanillaGossip::new()) as Box<dyn EdgeTickHandler>,
            Box::new(WeightedConvexGossip::new(0.7).unwrap()),
            Box::new(RandomNeighborGossip::new(3)),
        ] {
            let outcome = run(handler);
            assert!(outcome.converged());
            assert!((outcome.final_values.mean() - 3.5).abs() < 1e-9);
        }
    }

    #[test]
    fn convex_rules_keep_values_in_initial_range() {
        // The range-preservation property used in Section 2 of the paper.
        let (g, _) = dumbbell(4).unwrap();
        let initial =
            NodeValues::from_values(vec![1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]).unwrap();
        let config = SimulationConfig::new(8).with_stopping_rule(StoppingRule::max_ticks(20_000));
        let mut sim = AsyncSimulator::new(&g, initial, VanillaGossip::new(), config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.final_values.min().unwrap() >= -1.0 - 1e-12);
        assert!(outcome.final_values.max().unwrap() <= 1.0 + 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_convex_updates_never_increase_variance(
            alpha in 0.0f64..1.0,
            seed in 0u64..100,
        ) {
            let g = complete(5).unwrap();
            let mut values = NodeValues::from_values(
                (0..5).map(|i| ((i * 7 + seed as usize) % 11) as f64).collect(),
            )
            .unwrap();
            let mut algo = WeightedConvexGossip::new(alpha).unwrap();
            let mut last_var = values.variance();
            for t in 0..100u64 {
                let edge = EdgeId(((t + seed) as usize) % g.edge_count());
                let mut ctx = ctx_for(&g, edge);
                ctx.global_tick_count = t + 1;
                algo.on_edge_tick(&mut values, &ctx);
                let var = values.variance();
                prop_assert!(var <= last_var + 1e-9);
                last_var = var;
            }
        }
    }
}
