//! Outlier-resistant gossip rules for Byzantine environments.
//!
//! Vanilla gossip trusts whatever a contact reports: a single node
//! injecting `±M` outliers (see `gossip_sim::adversary`) drags every honest
//! neighbour `M/2` per contact.  The two rules here bound that influence:
//!
//! * [`TrimmedMeanGossip`] clamps the per-contact innovation to a fixed
//!   radius `τ` — the pairwise analogue of a trimmed mean.  The update
//!   `x_u ← x_u + ½·clamp(x_v − x_u, −τ, τ)` is exactly antisymmetric
//!   (`Δ_u = −Δ_v`), so it conserves mass like the convex class and stays
//!   subject to the honest-subset drift oracle
//!   (`gossip_analysis::robust::honest_drift_bound`), while an extreme
//!   report moves an honest node by at most `τ/2` no matter how large the
//!   outlier.
//! * [`MedianNeighborGossip`] averages each endpoint toward the **median**
//!   of {own value, partner's report, previous report seen by this node}.
//!   A single outlier report is outvoted by the node's own value and its
//!   one-contact memory, so isolated extreme injections are rejected
//!   outright.  The median step is not antisymmetric (mass is not exactly
//!   conserved between honest pairs), so the applicable oracle is the
//!   convex-hull bound (`gossip_analysis::robust::hull_drift_bound`), and
//!   the per-node memory makes the rule stateful.

use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler, HandlerState};
use gossip_sim::values::NodeValues;

/// The canonical trim radius of [`TrimmedMeanGossip::default_radius`].
pub const DEFAULT_TRIM_RADIUS: f64 = 1.0;

/// Pairwise trimmed-mean gossip: each endpoint moves half-way toward the
/// other's report, but the innovation is clamped to `±radius`.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMeanGossip {
    radius: f64,
}

impl TrimmedMeanGossip {
    /// The rule at the canonical [`DEFAULT_TRIM_RADIUS`].
    pub fn default_radius() -> Self {
        TrimmedMeanGossip {
            radius: DEFAULT_TRIM_RADIUS,
        }
    }
}

impl EdgeTickHandler for TrimmedMeanGossip {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        let xu = values.get(u);
        let xv = values.get(v);
        values.set(u, xu + 0.5 * (xv - xu).clamp(-self.radius, self.radius));
        values.set(v, xv + 0.5 * (xu - xv).clamp(-self.radius, self.radius));
    }

    fn name(&self) -> &str {
        "trimmed"
    }

    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState::default())
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 0, 0)
    }
}

/// The middle value of three.
fn median3(a: f64, b: f64, c: f64) -> f64 {
    a.max(b).min(a.max(c)).min(b.max(c))
}

/// Median-of-neighbors gossip: each endpoint averages toward the median of
/// its own value, the partner's report, and the previous report it saw.
#[derive(Debug, Clone)]
pub struct MedianNeighborGossip {
    /// Last report each node received (`None` before its first contact).
    last_seen: Vec<Option<f64>>,
}

impl MedianNeighborGossip {
    /// Creates the rule for a graph with `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        MedianNeighborGossip {
            last_seen: vec![None; nodes],
        }
    }
}

impl EdgeTickHandler for MedianNeighborGossip {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        let xu = values.get(u);
        let xv = values.get(v);
        // Both endpoints decide from the pre-update values, so the rule is
        // order-symmetric.  A node with no memory yet treats the incoming
        // report as its own second vote (first contact behaves like vanilla).
        let m_u = median3(xu, xv, self.last_seen[u.index()].unwrap_or(xv));
        let m_v = median3(xv, xu, self.last_seen[v.index()].unwrap_or(xu));
        values.set(u, 0.5 * (xu + m_u));
        values.set(v, 0.5 * (xv + m_v));
        self.last_seen[u.index()] = Some(xv);
        self.last_seen[v.index()] = Some(xu);
    }

    fn name(&self) -> &str {
        "median"
    }

    /// `last_seen`, one real per node.
    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState {
            integers: Vec::new(),
            reals: self.last_seen.clone(),
        })
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 0, self.last_seen.len())?;
        self.last_seen.clone_from(&state.reals);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, path};
    use gossip_graph::{EdgeId, NodeId};
    use gossip_sim::engine::{AsyncSimulator, SimulationConfig};
    use gossip_sim::stopping::StoppingRule;

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
    fn trimmed_mean_clamps_the_innovation_and_conserves_mass() {
        let g = path(2).unwrap();
        // Gap of 100 ≫ radius 1: each endpoint moves only radius/2.
        let mut v = NodeValues::from_values(vec![0.0, 100.0]).unwrap();
        let mut algo = TrimmedMeanGossip::default_radius();
        assert_eq!(algo.name(), "trimmed");
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(0)));
        assert_eq!(v.as_slice(), &[0.5, 99.5]);
        assert!((v.sum() - 100.0).abs() < 1e-12);
        // Gap within the radius: identical effect to vanilla averaging.
        let mut v = NodeValues::from_values(vec![0.3, 0.7]).unwrap();
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(0)));
        assert!((v.get(NodeId(0)) - 0.5).abs() < 1e-12);
        assert!((v.get(NodeId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median3_picks_the_middle_value() {
        for (a, b, c, want) in [
            (1.0, 2.0, 3.0, 2.0),
            (3.0, 1.0, 2.0, 2.0),
            (2.0, 3.0, 1.0, 2.0),
            (5.0, 5.0, 1.0, 5.0),
            (-1.0, -1.0, -1.0, -1.0),
            (0.0, -100.0, 100.0, 0.0),
        ] {
            assert_eq!(median3(a, b, c), want, "median3({a}, {b}, {c})");
        }
    }

    #[test]
    fn median_gossip_rejects_an_isolated_outlier_report() {
        // Node 1 of a path of 3 first hears a sane report from node 0, then
        // an extreme one from node 2: the median of {own, extreme, sane
        // memory} is its own value, so the outlier moves it at most half-way
        // toward itself — i.e. not at all.
        let g = path(3).unwrap();
        let mut v = NodeValues::from_values(vec![1.0, 1.0, 1000.0]).unwrap();
        let mut algo = MedianNeighborGossip::new(3);
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(0))); // 0–1: both at 1.0
        assert_eq!(v.get(NodeId(1)), 1.0);
        algo.on_edge_tick(&mut v, &ctx_for(&g, EdgeId(1))); // 1–2: 2 reports 1000
                                                            // median3(1.0, 1000.0, 1.0) = 1.0 → node 1 does not move.
        assert_eq!(v.get(NodeId(1)), 1.0);
        // Node 2 hears 1.0 for the first time (vanilla-like first contact).
        assert_eq!(v.get(NodeId(2)), 500.5);
        assert_eq!(algo.name(), "median");
    }

    #[test]
    fn robust_rules_converge_on_honest_complete_graphs() {
        let g = complete(8).unwrap();
        let initial: Vec<f64> = (0..8).map(|i| (i as f64) / 8.0).collect();
        let rule = StoppingRule::variance_ratio_below(1e-6).or_max_ticks(2_000_000);
        for handler in [
            Box::new(TrimmedMeanGossip::default_radius()) as Box<dyn EdgeTickHandler>,
            Box::new(MedianNeighborGossip::new(8)),
        ] {
            let name = handler.name().to_string();
            let config = SimulationConfig::new(5).with_stopping_rule(rule.clone());
            let mut sim = AsyncSimulator::new(
                &g,
                NodeValues::from_values(initial.clone()).unwrap(),
                handler,
                config,
            )
            .unwrap();
            let outcome = sim.run().unwrap();
            assert!(outcome.converged(), "{name} did not converge");
            // Both rules keep values inside the initial hull.
            assert!(outcome.final_values.min().unwrap() >= 0.0 - 1e-12, "{name}");
            assert!(
                outcome.final_values.max().unwrap() <= 7.0 / 8.0 + 1e-12,
                "{name}"
            );
        }
    }
}
