//! **Algorithm A** — the paper's non-convex sparse-cut averaging algorithm.
//!
//! Given a partition `(V₁, V₂)` with cut edges `E₁₂` and a designated cut
//! edge `e_c`, the algorithm behaves as follows at each edge tick:
//!
//! * ticks of edges internal to `V₁` or `V₂` perform the vanilla pairwise
//!   average;
//! * ticks of cut edges other than `e_c` do nothing (the cut is "frozen");
//! * every `⌈C·(T_van(G₁)+T_van(G₂))·ln n⌉`-th tick of `e_c` performs the
//!   **non-convex transfer**
//!   `x_u ← x_u + γ·(x_v − x_u)`, `x_v ← x_v − γ·(x_v − x_u)`,
//!   where `u ∈ V₁`, `v ∈ V₂`; all other ticks of `e_c` do nothing.
//!
//! The handler counts the ticks of `e_c` itself.  A tick whose contact a
//! fault or an adversary suppressed still counts (the engine reports it
//! through [`EdgeTickHandler::on_suppressed_tick`]): the schedule follows
//! `e_c`'s clock, not its delivered messages, so a suppressed `m`-th tick
//! skips that epoch's transfer rather than delaying it.
//!
//! # The transfer coefficient γ
//!
//! The paper states `γ = n₁`.  A direct calculation (reproduced in this
//! module's tests) shows that with that literal value the post-transfer block
//! means are `µ₁' ≈ µ₂` and `µ₂' ≈ −(n₁/n₂)·µ₂`: the imbalance *contracts by
//! `n₁/n₂`* per transfer — which is no contraction at all in the balanced
//! case `n₁ = n₂` (the block means merely swap sign), and the variance then
//! never falls below `µ²`.  The value that actually cancels the between-block
//! imbalance (and yields the paper's inequality (7),
//! `|µ(T⁺_{k+1})| ≤ n^{3/2}·σ(T⁻_{k+1})`) is
//!
//! `γ* = n₁·n₂ / n`,
//!
//! i.e. the harmonic combination of the block sizes (equal to `n₁/2` when the
//! blocks are balanced, and asymptotically `n₁` when `n₂ ≫ n₁`, so the
//! paper's `Θ(n₁)` scaling is unchanged).  [`TransferCoefficient::ExactBalance`]
//! (the default) uses `γ*`; [`TransferCoefficient::PaperLiteral`] uses the
//! paper's `n₁` so the deviation can be measured (experiment E10 of
//! `gossip_workloads::experiments`).

use crate::{CoreError, Result};
use gossip_graph::partition::Block;
use gossip_graph::{EdgeId, Graph, NodeId, Partition};
use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler, HandlerState};
use gossip_sim::values::NodeValues;

/// Choice of the non-convex transfer coefficient `γ`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransferCoefficient {
    /// `γ = n₁·n₂/n` — cancels the between-block imbalance exactly (up to the
    /// within-block deviations); the default.
    #[default]
    ExactBalance,
    /// `γ = n₁` — the coefficient as literally stated in the paper.
    PaperLiteral,
    /// An arbitrary fixed coefficient (used by ablation experiments).
    Custom(f64),
}

impl TransferCoefficient {
    /// Resolves the coefficient for block sizes `n1`, `n2`.
    pub fn resolve(&self, n1: usize, n2: usize) -> f64 {
        match self {
            TransferCoefficient::ExactBalance => (n1 as f64) * (n2 as f64) / ((n1 + n2) as f64),
            TransferCoefficient::PaperLiteral => n1 as f64,
            TransferCoefficient::Custom(gamma) => *gamma,
        }
    }
}

/// Configuration of [`SparseCutAlgorithm`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCutConfig {
    /// The paper's universal constant `C` multiplying the epoch length.
    pub epoch_constant: f64,
    /// How the transfer coefficient `γ` is chosen.
    pub transfer_coefficient: TransferCoefficient,
    /// Override for `T_van(G₁) + T_van(G₂)` (absolute time).  When `None`,
    /// the spectral estimate from
    /// [`crate::bounds::t_van_spectral`] is computed for both blocks.
    pub t_van_sum_override: Option<f64>,
}

impl Default for SparseCutConfig {
    fn default() -> Self {
        SparseCutConfig {
            epoch_constant: 4.0,
            transfer_coefficient: TransferCoefficient::default(),
            t_van_sum_override: None,
        }
    }
}

impl SparseCutConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the universal constant `C`.
    pub fn with_epoch_constant(mut self, c: f64) -> Self {
        self.epoch_constant = c;
        self
    }

    /// Sets the transfer-coefficient policy.
    pub fn with_transfer_coefficient(mut self, coefficient: TransferCoefficient) -> Self {
        self.transfer_coefficient = coefficient;
        self
    }

    /// Supplies `T_van(G₁) + T_van(G₂)` directly instead of estimating it
    /// spectrally.
    pub fn with_t_van_sum(mut self, t_van_sum: f64) -> Self {
        self.t_van_sum_override = Some(t_van_sum);
        self
    }
}

/// The paper's Algorithm A as an [`EdgeTickHandler`].
#[derive(Debug, Clone)]
pub struct SparseCutAlgorithm {
    /// Block membership of every node (`true` = block one).
    in_block_one: Vec<bool>,
    /// Cut edges that are frozen (every cut edge except `e_c`).
    frozen: Vec<bool>,
    designated_edge: EdgeId,
    /// Endpoint of `e_c` inside `V₁`.
    endpoint_one: NodeId,
    /// Endpoint of `e_c` inside `V₂`.
    endpoint_two: NodeId,
    /// Non-convex update fires on every `epoch_ticks`-th tick of `e_c`.
    epoch_ticks: u64,
    /// Transfer coefficient `γ`.
    gamma: f64,
    /// Ticks of `e_c` so far, suppressed ones included (the paper's `k`).
    designated_ticks: u64,
    /// Number of transfers performed so far.
    transfers: u64,
}

impl SparseCutAlgorithm {
    /// Builds Algorithm A for `graph` with the given two-block `partition`.
    ///
    /// The designated edge `e_c` is the partition's first cut edge (for the
    /// paper's dumbbell this is exactly the edge `(v_{n₁}, v_{n₁+1})`); the
    /// epoch length is `⌈C·(T_van(G₁)+T_van(G₂))·ln n⌉` ticks of `e_c`, where
    /// the `T_van` values come from the spectral estimate unless overridden.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidCut`] if the partition has no cut edges,
    /// describes a different node count, or its first cut edge does not
    /// cross the cut in `graph` (a partition of another graph), and
    /// [`CoreError::InvalidConfig`] for a non-positive epoch constant or
    /// non-finite transfer coefficient.  Spectral estimation failures (e.g. a
    /// disconnected block) surface as [`CoreError::Graph`].
    pub fn from_partition(
        graph: &Graph,
        partition: &Partition,
        config: SparseCutConfig,
    ) -> Result<Self> {
        if config.epoch_constant <= 0.0 || !config.epoch_constant.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "epoch constant must be positive and finite, got {}",
                    config.epoch_constant
                ),
            });
        }
        if partition.cut_edge_count() == 0 {
            return Err(CoreError::InvalidCut {
                reason: "partition has no cut edges".into(),
            });
        }
        if partition.node_count() != graph.node_count() {
            return Err(CoreError::InvalidCut {
                reason: format!(
                    "partition describes {} nodes but the graph has {}",
                    partition.node_count(),
                    graph.node_count()
                ),
            });
        }

        let designated_edge = partition.cut_edges()[0];
        let edge = graph.edge(designated_edge)?;
        if !partition.is_cut_edge(&edge) {
            return Err(CoreError::InvalidCut {
                reason: format!("designated edge {designated_edge} does not cross the cut"),
            });
        }
        let (endpoint_one, endpoint_two) = if partition.block_of(edge.u()) == Block::One {
            (edge.u(), edge.v())
        } else {
            (edge.v(), edge.u())
        };

        let in_block_one: Vec<bool> = graph
            .nodes()
            .map(|v| partition.block_of(v) == Block::One)
            .collect();
        let mut frozen = vec![false; graph.edge_count()];
        for &cut_edge in partition.cut_edges() {
            frozen[cut_edge.index()] = cut_edge != designated_edge;
        }

        let t_van_sum = match config.t_van_sum_override {
            Some(t) => {
                if t <= 0.0 || !t.is_finite() {
                    return Err(CoreError::InvalidConfig {
                        reason: format!("T_van sum override must be positive and finite, got {t}"),
                    });
                }
                t
            }
            None => {
                let t1 = crate::bounds::t_van_spectral_block(graph, partition, Block::One)?;
                let t2 = crate::bounds::t_van_spectral_block(graph, partition, Block::Two)?;
                t1 + t2
            }
        };
        let n = graph.node_count() as f64;
        let epoch_ticks = crate::bounds::epoch_length_ticks(config.epoch_constant, t_van_sum, n);

        let n1 = partition.block_one_size();
        let n2 = partition.block_two_size();
        let gamma = config.transfer_coefficient.resolve(n1, n2);
        if !gamma.is_finite() {
            return Err(CoreError::InvalidConfig {
                reason: format!("transfer coefficient resolved to a non-finite value {gamma}"),
            });
        }

        Ok(SparseCutAlgorithm {
            in_block_one,
            frozen,
            designated_edge,
            endpoint_one,
            endpoint_two,
            epoch_ticks,
            gamma,
            designated_ticks: 0,
            transfers: 0,
        })
    }

    /// The designated cut edge `e_c`.
    pub fn designated_edge(&self) -> EdgeId {
        self.designated_edge
    }

    /// The epoch length: the non-convex transfer fires on every
    /// `epoch_ticks()`-th tick of `e_c`.
    pub fn epoch_ticks(&self) -> u64 {
        self.epoch_ticks
    }

    /// The transfer coefficient `γ` in use.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of non-convex transfers performed so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Number of ticks of `e_c` so far, suppressed ones included.
    pub fn designated_ticks(&self) -> u64 {
        self.designated_ticks
    }

    fn is_internal(&self, u: NodeId, v: NodeId) -> bool {
        self.in_block_one[u.index()] == self.in_block_one[v.index()]
    }
}

impl EdgeTickHandler for SparseCutAlgorithm {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let (u, v) = ctx.edge.endpoints();
        if ctx.edge_id == self.designated_edge {
            // Fire on every `epoch_ticks`-th tick of e_c (the paper's
            // "k ≡ −1 (mod m)" schedule up to a fixed offset of one tick).
            self.designated_ticks += 1;
            if self.designated_ticks.is_multiple_of(self.epoch_ticks) {
                values.transfer_pair_update(self.endpoint_one, self.endpoint_two, self.gamma);
                self.transfers += 1;
            }
        } else if self.frozen[ctx.edge_id.index()] {
            // Frozen cut edge: no update.
        } else if self.is_internal(u, v) {
            values.average_pair(u, v);
        } else {
            // A cut edge that is neither e_c nor marked frozen cannot occur:
            // every cut edge other than e_c is frozen at construction time.
            debug_assert!(false, "unexpected unfrozen cut edge {}", ctx.edge_id);
        }
    }

    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        if ctx.edge_id == self.designated_edge {
            self.designated_ticks += 1;
        }
    }

    fn name(&self) -> &str {
        "algorithm-a"
    }

    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState {
            integers: vec![self.designated_ticks, self.transfers],
            reals: Vec::new(),
        })
    }

    fn load_state(&mut self, state: &HandlerState) -> gossip_sim::Result<()> {
        state.expect_shape(self.name(), 2, 0)?;
        self.designated_ticks = state.integers[0];
        self.transfers = state.integers[1];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{barbell, bridged_clusters, dumbbell};
    use gossip_sim::engine::{AsyncSimulator, SimulationConfig};
    use gossip_sim::stopping::StoppingRule;

    fn adversarial(partition: &Partition) -> NodeValues {
        // +1 on V1 and −n1/n2 on V2 (the Section 2 initial condition), which
        // has mean zero.
        let n1 = partition.block_one_size() as f64;
        let n2 = partition.block_two_size() as f64;
        let mut v = vec![0.0; partition.node_count()];
        for &node in partition.block_one() {
            v[node.index()] = 1.0;
        }
        for &node in partition.block_two() {
            v[node.index()] = -n1 / n2;
        }
        NodeValues::from_values(v).unwrap()
    }

    #[test]
    fn transfer_coefficient_resolution() {
        assert!((TransferCoefficient::ExactBalance.resolve(8, 8) - 4.0).abs() < 1e-12);
        assert!((TransferCoefficient::ExactBalance.resolve(2, 6) - 1.5).abs() < 1e-12);
        assert!((TransferCoefficient::PaperLiteral.resolve(8, 8) - 8.0).abs() < 1e-12);
        assert!((TransferCoefficient::Custom(2.5).resolve(8, 8) - 2.5).abs() < 1e-12);
        assert_eq!(
            TransferCoefficient::default(),
            TransferCoefficient::ExactBalance
        );
    }

    #[test]
    fn config_builder() {
        let c = SparseCutConfig::new()
            .with_epoch_constant(8.0)
            .with_transfer_coefficient(TransferCoefficient::PaperLiteral)
            .with_t_van_sum(2.0);
        assert!((c.epoch_constant - 8.0).abs() < 1e-12);
        assert_eq!(c.transfer_coefficient, TransferCoefficient::PaperLiteral);
        assert_eq!(c.t_van_sum_override, Some(2.0));
    }

    #[test]
    fn construction_validates_input() {
        let (g, p) = dumbbell(4).unwrap();
        assert!(SparseCutAlgorithm::from_partition(
            &g,
            &p,
            SparseCutConfig::new().with_epoch_constant(0.0)
        )
        .is_err());
        assert!(SparseCutAlgorithm::from_partition(
            &g,
            &p,
            SparseCutConfig::new().with_t_van_sum(-1.0)
        )
        .is_err());
        // Partition of a different graph with the same node count: its
        // first cut edge is internal to a clique of `g`.
        let other = gossip_graph::generators::path(8).unwrap();
        let other_cut = Partition::from_block_one(&other, p.block_one()).unwrap();
        assert!(!p.is_cut_edge(&g.edge(other_cut.cut_edges()[0]).unwrap()));
        assert!(matches!(
            SparseCutAlgorithm::from_partition(&g, &other_cut, SparseCutConfig::new()),
            Err(CoreError::InvalidCut { .. })
        ));
        // Partition of a different graph.
        let (_, other_partition) = dumbbell(5).unwrap();
        assert!(
            SparseCutAlgorithm::from_partition(&g, &other_partition, SparseCutConfig::new())
                .is_err()
        );
    }

    #[test]
    fn default_designated_edge_is_the_bridge() {
        let (g, p) = dumbbell(6).unwrap();
        let algo = SparseCutAlgorithm::from_partition(&g, &p, SparseCutConfig::default()).unwrap();
        let bridge = g.edge(algo.designated_edge()).unwrap();
        assert_eq!(
            bridge.endpoints(),
            (gossip_graph::NodeId(5), gossip_graph::NodeId(6))
        );
        assert!(algo.epoch_ticks() >= 1);
        // Balanced dumbbell: gamma* = n1/2 = 3.
        assert!((algo.gamma() - 3.0).abs() < 1e-12);
        assert_eq!(algo.name(), "algorithm-a");
        assert_eq!(algo.transfers(), 0);
    }

    #[test]
    fn internal_edges_average_cut_edges_frozen() {
        let (g, p) = bridged_clusters(4, 4, 2, 0.9, 3).unwrap();
        let mut algo =
            SparseCutAlgorithm::from_partition(&g, &p, SparseCutConfig::default()).unwrap();
        let mut values = adversarial(&p);

        // A frozen cut edge (the one that is not designated) does nothing.
        let frozen_edge = p
            .cut_edges()
            .iter()
            .copied()
            .find(|&e| e != algo.designated_edge())
            .expect("two cut edges exist");
        let before = values.clone();
        let ctx = EdgeTickContext {
            graph: &g,
            edge: g.edge(frozen_edge).unwrap(),
            edge_id: frozen_edge,
            time: 0.1,
            global_tick_count: 1,
        };
        algo.on_edge_tick(&mut values, &ctx);
        assert_eq!(values, before);

        // An internal edge performs the vanilla average.
        let internal = g
            .edge_ids()
            .find(|&e| {
                let edge = g.edge(e).unwrap();
                !p.is_cut_edge(&edge)
            })
            .unwrap();
        let edge = g.edge(internal).unwrap();
        let ctx = EdgeTickContext {
            graph: &g,
            edge,
            edge_id: internal,
            time: 0.2,
            global_tick_count: 2,
        };
        algo.on_edge_tick(&mut values, &ctx);
        let (u, v) = edge.endpoints();
        assert!((values.get(u) - values.get(v)).abs() < 1e-12);
    }

    #[test]
    fn transfer_fires_only_on_epoch_boundary_and_conserves_mass() {
        let (g, p) = dumbbell(4).unwrap();
        let config = SparseCutConfig::new()
            .with_t_van_sum(3.0)
            .with_epoch_constant(1.0);
        let mut algo = SparseCutAlgorithm::from_partition(&g, &p, config).unwrap();
        let m = algo.epoch_ticks();
        assert!(m >= 1);
        let mut values = adversarial(&p);
        let sum = values.sum();
        let ec = algo.designated_edge();
        let edge = g.edge(ec).unwrap();
        for k in 1..=(2 * m) {
            let before = values.clone();
            let ctx = EdgeTickContext {
                graph: &g,
                edge,
                edge_id: ec,
                time: k as f64,
                global_tick_count: k,
            };
            algo.on_edge_tick(&mut values, &ctx);
            if k % m == 0 {
                assert_ne!(values, before, "transfer expected at tick {k}");
            } else {
                assert_eq!(values, before, "no update expected at tick {k}");
            }
        }
        assert_eq!(algo.transfers(), 2);
        assert_eq!(algo.designated_ticks(), 2 * m);
        assert!((values.sum() - sum).abs() < 1e-9);
    }

    #[test]
    fn suppressed_designated_ticks_advance_the_epoch() {
        // A suppressed m-th tick of e_c skips that epoch's transfer; the
        // next transfer still lands on tick 2m, not one tick later.
        let (g, p) = dumbbell(4).unwrap();
        let config = SparseCutConfig::new()
            .with_t_van_sum(3.0)
            .with_epoch_constant(1.0);
        let mut algo = SparseCutAlgorithm::from_partition(&g, &p, config).unwrap();
        let m = algo.epoch_ticks();
        assert!(m >= 2);
        let ec = algo.designated_edge();
        let ctx = |k: u64| EdgeTickContext {
            graph: &g,
            edge: g.edge(ec).unwrap(),
            edge_id: ec,
            time: k as f64,
            global_tick_count: k,
        };
        let mut values = adversarial(&p);
        for k in 1..=(2 * m) {
            if k == m {
                algo.on_suppressed_tick(&ctx(k));
            } else {
                algo.on_edge_tick(&mut values, &ctx(k));
            }
        }
        assert_eq!(algo.transfers(), 1, "only the tick-2m transfer fires");
        // Suppressed ticks of other edges leave the count alone.
        let other = g.edge_ids().find(|&e| e != ec).unwrap();
        algo.on_suppressed_tick(&EdgeTickContext {
            graph: &g,
            edge: g.edge(other).unwrap(),
            edge_id: other,
            time: 0.0,
            global_tick_count: 0,
        });
        assert_eq!(algo.designated_ticks(), 2 * m);
    }

    #[test]
    fn state_round_trips_through_a_fresh_instance() {
        let (g, p) = dumbbell(4).unwrap();
        let config = SparseCutConfig::new()
            .with_t_van_sum(3.0)
            .with_epoch_constant(1.0);
        let mut algo = SparseCutAlgorithm::from_partition(&g, &p, config.clone()).unwrap();
        let ec = algo.designated_edge();
        let mut values = adversarial(&p);
        for k in 1..=(algo.epoch_ticks() + 1) {
            let ctx = EdgeTickContext {
                graph: &g,
                edge: g.edge(ec).unwrap(),
                edge_id: ec,
                time: k as f64,
                global_tick_count: k,
            };
            algo.on_edge_tick(&mut values, &ctx);
        }
        let state = algo.save_state().unwrap();
        let mut fresh = SparseCutAlgorithm::from_partition(&g, &p, config).unwrap();
        fresh.load_state(&state).unwrap();
        assert_eq!(fresh.designated_ticks(), algo.designated_ticks());
        assert_eq!(fresh.transfers(), 1);
        assert!(fresh.load_state(&HandlerState::default()).is_err());
    }

    #[test]
    fn exact_balance_transfer_cancels_block_imbalance_when_blocks_are_mixed() {
        // When each block is internally uniform (sigma = 0), a single
        // exact-balance transfer zeroes both block means.
        let (g, p) = dumbbell(8).unwrap();
        let mut algo = SparseCutAlgorithm::from_partition(
            &g,
            &p,
            SparseCutConfig::new()
                .with_t_van_sum(1.0)
                .with_epoch_constant(1e-9),
        )
        .unwrap();
        assert_eq!(algo.epoch_ticks(), 1);
        let mut values = adversarial(&p);
        let ec = algo.designated_edge();
        let ctx = EdgeTickContext {
            graph: &g,
            edge: g.edge(ec).unwrap(),
            edge_id: ec,
            time: 1.0,
            global_tick_count: 1,
        };
        algo.on_edge_tick(&mut values, &ctx);
        // Block sums are now zero: all the imbalance sits on the two endpoint
        // nodes, which subsequent internal averaging spreads out.
        let sum_one: f64 = p.block_one().iter().map(|&v| values.get(v)).sum();
        let sum_two: f64 = p.block_two().iter().map(|&v| values.get(v)).sum();
        assert!(sum_one.abs() < 1e-9);
        assert!(sum_two.abs() < 1e-9);
    }

    #[test]
    fn paper_literal_transfer_swaps_block_means_on_balanced_dumbbell() {
        // The deviation documented in the module docs: with gamma = n1 and
        // n1 = n2, the block means swap instead of cancelling.
        let (g, p) = dumbbell(8).unwrap();
        let mut algo = SparseCutAlgorithm::from_partition(
            &g,
            &p,
            SparseCutConfig::new()
                .with_t_van_sum(1.0)
                .with_epoch_constant(1e-9)
                .with_transfer_coefficient(TransferCoefficient::PaperLiteral),
        )
        .unwrap();
        let mut values = adversarial(&p);
        let ec = algo.designated_edge();
        let ctx = EdgeTickContext {
            graph: &g,
            edge: g.edge(ec).unwrap(),
            edge_id: ec,
            time: 1.0,
            global_tick_count: 1,
        };
        algo.on_edge_tick(&mut values, &ctx);
        let mean_one = values.block_mean(&p, Block::One);
        let mean_two = values.block_mean(&p, Block::Two);
        // Before: (+1, −1).  After the literal-n1 transfer: (−1, +1).
        assert!((mean_one + 1.0).abs() < 1e-9);
        assert!((mean_two - 1.0).abs() < 1e-9);
    }

    #[test]
    fn algorithm_a_converges_fast_on_dumbbell() {
        let (g, p) = dumbbell(8).unwrap();
        let algo = SparseCutAlgorithm::from_partition(&g, &p, SparseCutConfig::default()).unwrap();
        let config = SimulationConfig::new(17)
            .with_stopping_rule(StoppingRule::definition1().or_max_time(5_000.0));
        let mut sim = AsyncSimulator::new(&g, adversarial(&p), algo, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged(), "Algorithm A should converge quickly");
        // Mass conservation throughout.
        assert!(outcome.final_values.mean().abs() < 1e-9);
        // It should beat the convex lower bound scale (n1/|E12| = 8) by a
        // comfortable margin on this instance; allow slack for randomness.
        assert!(outcome.elapsed_time < 100.0);
    }

    #[test]
    fn algorithm_a_converges_on_asymmetric_barbell() {
        let (g, p) = barbell(4, 12).unwrap();
        let algo = SparseCutAlgorithm::from_partition(&g, &p, SparseCutConfig::default()).unwrap();
        let config = SimulationConfig::new(23)
            .with_stopping_rule(StoppingRule::definition1().or_max_time(5_000.0));
        let mut sim = AsyncSimulator::new(&g, adversarial(&p), algo, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!(outcome.final_values.mean().abs() < 1e-9);
    }
}
