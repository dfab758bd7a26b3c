//! Deterministic fault injection: dynamic topology and message loss.
//!
//! The paper's guarantees are stated for a fixed graph, but gossip's appeal
//! is robustness under churn: links fail and recover, nodes pause and
//! resume, messages are lost.  A [`FaultPlan`] describes such a fault
//! environment **deterministically** — edge outages and node pauses are
//! half-open windows in *global tick* coordinates, and per-contact message
//! drops are sampled from a dedicated ChaCha8 stream seeded by the plan —
//! so a faulted run remains a pure function of `(config seed, plan)` and
//! stays bit-reproducible.
//!
//! The engine consumes the plan through the crate-internal
//! [`FaultInjector`], which classifies every edge tick *before* the handler
//! runs: a suppressed contact skips the pairwise update **atomically** (the
//! handler is never invoked, so no half-applied update can violate mass
//! conservation and the O(1) moment tracker is simply not touched).  The
//! clock still ticks and time still advances — a down link loses messages,
//! it does not slow the rest of the network.
//!
//! An empty plan ([`FaultPlan::none`]) draws nothing from its RNG and
//! suppresses nothing, so a run configured with it is **byte-identical** to
//! a run with no plan at all; `tests/fault_differential.rs` pins that
//! contract on every scale family.

use crate::{Result, SimError};
use gossip_graph::{Edge, EdgeId, Graph, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// A half-open window `[from, until)` in global-tick coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickWindow {
    /// First tick (inclusive) at which the fault is active.
    pub from: u64,
    /// First tick at which the fault is no longer active.
    pub until: u64,
}

impl TickWindow {
    /// Creates a window; `until ≤ from` yields an empty window.
    pub fn new(from: u64, until: u64) -> Self {
        TickWindow { from, until }
    }

    /// Returns `true` if `tick` falls inside the window.
    pub fn contains(&self, tick: u64) -> bool {
        tick >= self.from && tick < self.until
    }

    /// Returns `true` if the window covers no tick at all.
    pub fn is_empty(&self) -> bool {
        self.until <= self.from
    }
}

/// One scheduled link outage: `edge` delivers nothing during `window`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeOutage {
    /// The edge that goes down.
    pub edge: EdgeId,
    /// When it is down.
    pub window: TickWindow,
}

/// One scheduled node pause: every contact incident to `node` is suppressed
/// during `window` (a crashed or sleeping node neither sends nor receives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePause {
    /// The paused node.
    pub node: NodeId,
    /// When it is paused.
    pub window: TickWindow,
}

/// A deterministic description of the fault environment of one run.
///
/// # Examples
///
/// ```
/// use gossip_sim::fault::FaultPlan;
/// use gossip_graph::{EdgeId, NodeId};
///
/// let plan = FaultPlan::new(7)
///     .with_drop_probability(0.1)
///     .with_edge_outage(EdgeId(0), 100, 200)
///     .with_node_pause(NodeId(3), 50, 80);
/// assert!(!plan.is_empty());
/// assert!(FaultPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the dedicated drop-sampling ChaCha8 stream (independent of
    /// the clock sampler's stream, so adding drops never perturbs the tick
    /// sequence itself).
    pub seed: u64,
    /// Probability that a topologically live contact is dropped, in `[0, 1]`.
    /// At `0.0` the drop stream is never drawn from.
    pub drop_probability: f64,
    /// Scheduled link outages.
    pub edge_outages: Vec<EdgeOutage>,
    /// Scheduled node pauses.
    pub node_pauses: Vec<NodePause>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// Creates an empty plan with the given drop-stream seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_probability: 0.0,
            edge_outages: Vec::new(),
            node_pauses: Vec::new(),
        }
    }

    /// The canonical no-op plan: nothing is ever suppressed, and a run
    /// configured with it is byte-identical to a fault-free run.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Sets the per-contact drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    /// Schedules a link outage for `edge` over the ticks `[from, until)`.
    pub fn with_edge_outage(mut self, edge: EdgeId, from: u64, until: u64) -> Self {
        self.edge_outages.push(EdgeOutage {
            edge,
            window: TickWindow::new(from, until),
        });
        self
    }

    /// Schedules a pause for `node` over the ticks `[from, until)`.
    pub fn with_node_pause(mut self, node: NodeId, from: u64, until: u64) -> Self {
        self.node_pauses.push(NodePause {
            node,
            window: TickWindow::new(from, until),
        });
        self
    }

    /// Returns `true` if the plan can never suppress a contact.
    pub fn is_empty(&self) -> bool {
        self.drop_probability <= 0.0
            && self.edge_outages.iter().all(|o| o.window.is_empty())
            && self.node_pauses.iter().all(|p| p.window.is_empty())
    }

    /// Every edge that is down at some point of the plan, deduplicated and
    /// sorted — the input to worst-surviving-subgraph probes
    /// (`gossip_graph::dynamic::DynamicGraphView`).
    pub fn edges_ever_down(&self) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self
            .edge_outages
            .iter()
            .filter(|o| !o.window.is_empty())
            .map(|o| o.edge)
            .collect();
        edges.sort();
        edges.dedup();
        edges
    }

    /// Every node that is paused at some point of the plan, deduplicated and
    /// sorted.
    pub fn nodes_ever_paused(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .node_pauses
            .iter()
            .filter(|p| !p.window.is_empty())
            .map(|p| p.node)
            .collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Validates the plan against a graph: the drop probability must be a
    /// finite value in `[0, 1]`, and every referenced edge and node must
    /// exist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a bad drop probability and
    /// [`SimError::Graph`] for out-of-range identifiers.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        // `RangeInclusive::contains` is already false for NaN and ±∞, so a
        // separate finiteness check would be unreachable.
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "drop probability must be in [0, 1], got {}",
                    self.drop_probability
                ),
            });
        }
        for outage in &self.edge_outages {
            graph.edge(outage.edge)?;
        }
        for pause in &self.node_pauses {
            graph.check_node(pause.node)?;
        }
        Ok(())
    }
}

/// Why a contact was suppressed (or that it was delivered).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContactFate {
    /// The handler ran.
    Delivered,
    /// The edge was down.
    EdgeDown,
    /// An endpoint was paused.
    NodePaused,
    /// The message was dropped by the loss process.
    Dropped,
}

/// Counters of what the injector did during a run.  All zeros when the run
/// had no fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Contacts whose handler ran.
    pub delivered: u64,
    /// Contacts suppressed because the edge was down.
    pub edge_down_skips: u64,
    /// Contacts suppressed because an endpoint was paused.
    pub node_pause_skips: u64,
    /// Contacts suppressed by the message-loss process.
    pub dropped: u64,
}

impl FaultStats {
    /// Total suppressed contacts of any kind.
    pub fn total_suppressed(&self) -> u64 {
        self.edge_down_skips + self.node_pause_skips + self.dropped
    }

    /// Total contacts classified (delivered plus suppressed).
    pub fn total_contacts(&self) -> u64 {
        self.delivered + self.total_suppressed()
    }
}

/// Runtime state compiled from a [`FaultPlan`]: per-edge / per-node window
/// indexes plus the dedicated drop-sampling stream.  Owned by the engine.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    drop_probability: f64,
    rng: ChaCha8Rng,
    edge_windows: BTreeMap<usize, Vec<TickWindow>>,
    node_windows: BTreeMap<usize, Vec<TickWindow>>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Compiles a plan for a graph.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::validate`] failures.
    pub fn new(plan: &FaultPlan, graph: &Graph) -> Result<Self> {
        plan.validate(graph)?;
        let mut edge_windows: BTreeMap<usize, Vec<TickWindow>> = BTreeMap::new();
        for outage in &plan.edge_outages {
            if !outage.window.is_empty() {
                edge_windows
                    .entry(outage.edge.index())
                    .or_default()
                    .push(outage.window);
            }
        }
        let mut node_windows: BTreeMap<usize, Vec<TickWindow>> = BTreeMap::new();
        for pause in &plan.node_pauses {
            if !pause.window.is_empty() {
                node_windows
                    .entry(pause.node.index())
                    .or_default()
                    .push(pause.window);
            }
        }
        Ok(FaultInjector {
            drop_probability: plan.drop_probability,
            rng: ChaCha8Rng::seed_from_u64(plan.seed),
            edge_windows,
            node_windows,
            stats: FaultStats::default(),
        })
    }

    /// Classifies the contact at `tick` on `edge`, updating the counters.
    /// The drop stream is drawn from only for topologically live contacts
    /// and only when the drop probability is positive, so an empty plan
    /// consumes no randomness at all.
    pub fn classify(&mut self, edge_id: EdgeId, edge: Edge, tick: u64) -> ContactFate {
        if Self::in_window(&self.edge_windows, edge_id.index(), tick) {
            self.stats.edge_down_skips += 1;
            return ContactFate::EdgeDown;
        }
        let (u, v) = edge.endpoints();
        if Self::in_window(&self.node_windows, u.index(), tick)
            || Self::in_window(&self.node_windows, v.index(), tick)
        {
            self.stats.node_pause_skips += 1;
            return ContactFate::NodePaused;
        }
        if self.drop_probability > 0.0 && self.rng.gen::<f64>() < self.drop_probability {
            self.stats.dropped += 1;
            return ContactFate::Dropped;
        }
        self.stats.delivered += 1;
        ContactFate::Delivered
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Crate-internal: captures the mutable state for a checkpoint.  The
    /// window indexes are pure functions of the plan and are recompiled on
    /// restore; only the drop-stream position and counters evolve.
    pub(crate) fn checkpoint_state(&self) -> FaultInjectorState {
        FaultInjectorState {
            rng_word_pos: self.rng.get_word_pos(),
            stats: self.stats,
        }
    }

    /// Crate-internal: reinstalls checkpointed mutable state into a freshly
    /// compiled injector (same plan, same graph).
    pub(crate) fn restore_state(&mut self, state: &FaultInjectorState) {
        self.rng.set_word_pos(state.rng_word_pos);
        self.stats = state.stats;
    }

    fn in_window(windows: &BTreeMap<usize, Vec<TickWindow>>, index: usize, tick: u64) -> bool {
        windows
            .get(&index)
            .is_some_and(|ws| ws.iter().any(|w| w.contains(tick)))
    }
}

/// Checkpointed mutable state of a [`FaultInjector`] (crate-internal;
/// serialized by `crate::checkpoint`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultInjectorState {
    /// Keystream position of the drop-sampling RNG.
    pub(crate) rng_word_pos: u128,
    /// Counters accumulated up to the checkpoint.
    pub(crate) stats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, path};

    #[test]
    fn tick_window_containment() {
        let w = TickWindow::new(10, 20);
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!w.is_empty());
        assert!(TickWindow::new(5, 5).is_empty());
        assert!(TickWindow::new(7, 3).is_empty());
    }

    #[test]
    fn plan_builders_and_emptiness() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        // Empty windows do not make a plan non-empty.
        let degenerate = FaultPlan::new(1)
            .with_edge_outage(EdgeId(0), 5, 5)
            .with_node_pause(NodeId(0), 9, 3);
        assert!(degenerate.is_empty());
        assert!(degenerate.edges_ever_down().is_empty());
        assert!(degenerate.nodes_ever_paused().is_empty());
        let plan = FaultPlan::new(1).with_drop_probability(0.5);
        assert!(!plan.is_empty());
        let plan = FaultPlan::new(1)
            .with_edge_outage(EdgeId(2), 0, 10)
            .with_edge_outage(EdgeId(2), 20, 30)
            .with_edge_outage(EdgeId(1), 0, 1)
            .with_node_pause(NodeId(4), 0, 100);
        assert!(!plan.is_empty());
        assert_eq!(plan.edges_ever_down(), vec![EdgeId(1), EdgeId(2)]);
        assert_eq!(plan.nodes_ever_paused(), vec![NodeId(4)]);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let g = path(3).unwrap(); // 2 edges, 3 nodes
        assert!(FaultPlan::new(0)
            .with_drop_probability(1.5)
            .validate(&g)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_drop_probability(-0.1)
            .validate(&g)
            .is_err());
        // The range check alone must reject every non-finite probability:
        // `contains` is false for NaN, and ±∞ fall outside [0, 1].
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                FaultPlan::new(0)
                    .with_drop_probability(bad)
                    .validate(&g)
                    .is_err(),
                "drop probability {bad} must be rejected"
            );
        }
        assert!(FaultPlan::new(0)
            .with_edge_outage(EdgeId(2), 0, 1)
            .validate(&g)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_node_pause(NodeId(3), 0, 1)
            .validate(&g)
            .is_err());
        assert!(FaultPlan::new(0)
            .with_drop_probability(1.0)
            .with_edge_outage(EdgeId(1), 0, 1)
            .with_node_pause(NodeId(2), 0, 1)
            .validate(&g)
            .is_ok());
    }

    #[test]
    fn injector_classifies_in_priority_order() {
        let g = complete(3).unwrap(); // edges (0,1)=e0, (0,2)=e1, (1,2)=e2
        let plan = FaultPlan::new(3)
            .with_edge_outage(EdgeId(0), 0, 10)
            .with_node_pause(NodeId(2), 5, 15);
        let mut injector = FaultInjector::new(&plan, &g).unwrap();
        let edge = |i: usize| g.edge(EdgeId(i)).unwrap();
        // Edge 0 down at tick 1.
        assert_eq!(
            injector.classify(EdgeId(0), edge(0), 1),
            ContactFate::EdgeDown
        );
        // Edge 1 touches node 2, paused at tick 6.
        assert_eq!(
            injector.classify(EdgeId(1), edge(1), 6),
            ContactFate::NodePaused
        );
        // Edge 2 touches node 2 as well.
        assert_eq!(
            injector.classify(EdgeId(2), edge(2), 14),
            ContactFate::NodePaused
        );
        // Outside every window, no drops configured: delivered.
        assert_eq!(
            injector.classify(EdgeId(0), edge(0), 20),
            ContactFate::Delivered
        );
        let stats = injector.stats();
        assert_eq!(stats.edge_down_skips, 1);
        assert_eq!(stats.node_pause_skips, 2);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.total_suppressed(), 3);
        assert_eq!(stats.total_contacts(), 4);
    }

    #[test]
    fn drop_sampling_is_seeded_and_roughly_calibrated() {
        let g = complete(3).unwrap();
        let edge = g.edge(EdgeId(0)).unwrap();
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed).with_drop_probability(0.3);
            let mut injector = FaultInjector::new(&plan, &g).unwrap();
            let fates: Vec<ContactFate> = (0..2000)
                .map(|t| injector.classify(EdgeId(0), edge, t))
                .collect();
            (fates, injector.stats())
        };
        let (fates_a, stats_a) = run(7);
        let (fates_b, _) = run(7);
        assert_eq!(fates_a, fates_b, "drop stream must be seed-deterministic");
        let (fates_c, _) = run(8);
        assert_ne!(fates_a, fates_c, "different seeds must differ");
        // Binomial(2000, 0.3): 5σ ≈ 102.
        let expected = 600.0;
        assert!(
            (stats_a.dropped as f64 - expected).abs() < 110.0,
            "dropped {} far from {expected}",
            stats_a.dropped
        );
    }

    #[test]
    fn empty_plan_never_draws_and_never_suppresses_contacts() {
        let g = complete(4).unwrap();
        let mut injector = FaultInjector::new(&FaultPlan::none(), &g).unwrap();
        for t in 0..1000 {
            let id = EdgeId(t as usize % g.edge_count());
            assert_eq!(
                injector.classify(id, g.edge(id).unwrap(), t),
                ContactFate::Delivered
            );
        }
        assert_eq!(injector.stats().total_suppressed(), 0);
        assert_eq!(injector.stats().delivered, 1000);
    }

    mod conservation {
        //! Conservation oracles under arbitrary generated fault schedules:
        //! because a suppressed contact skips the pairwise update
        //! *atomically* (never half-applies it), the total mass is conserved
        //! exactly and the class-C variance stays monotonically
        //! non-increasing no matter what the schedule does.

        use super::*;
        use crate::engine::{AsyncSimulator, SimulationConfig};
        use crate::handler::{EdgeTickContext, EdgeTickHandler};
        use crate::stopping::StoppingRule;
        use crate::values::NodeValues;
        use gossip_graph::generators::dumbbell;
        use proptest::prelude::*;

        /// Vanilla averaging that records the exact variance after every
        /// delivered update (suppressed contacts change nothing).
        #[derive(Default)]
        struct Vanilla {
            variances: Vec<(f64, f64)>,
        }

        impl EdgeTickHandler for Vanilla {
            fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
                let (u, v) = ctx.edge.endpoints();
                values.average_pair(u, v);
                self.variances.push((ctx.time, values.variance()));
            }
        }

        /// Builds a pseudo-random fault schedule from a seed (the vendored
        /// proptest has no tuple strategies, so the schedule itself is
        /// derived from a drawn seed via the same ChaCha8 discipline).
        fn random_plan(
            plan_seed: u64,
            drop_p: f64,
            outage_count: usize,
            pause_count: usize,
            edge_count: usize,
            node_count: usize,
        ) -> FaultPlan {
            let mut rng = ChaCha8Rng::seed_from_u64(plan_seed ^ 0xFA17);
            let mut plan = FaultPlan::new(plan_seed).with_drop_probability(drop_p);
            for _ in 0..outage_count {
                let e = rng.gen_range(0..edge_count);
                let from = rng.gen_range(0..2000u64);
                let len = rng.gen_range(0..1000u64);
                plan = plan.with_edge_outage(EdgeId(e), from, from + len);
            }
            for _ in 0..pause_count {
                let v = rng.gen_range(0..node_count);
                let from = rng.gen_range(0..2000u64);
                let len = rng.gen_range(0..1000u64);
                plan = plan.with_node_pause(NodeId(v), from, from + len);
            }
            plan
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn prop_mass_and_class_c_variance_conserved_under_faults(
                plan_seed in 0u64..10_000,
                clock_seed in 0u64..10_000,
                drop_p in 0.0f64..0.9,
                outage_count in 0usize..6,
                pause_count in 0usize..6,
            ) {
                let (g, _) = dumbbell(4).unwrap(); // 8 nodes, 13 edges
                let plan = random_plan(
                    plan_seed, drop_p, outage_count, pause_count,
                    g.edge_count(), g.node_count(),
                );
                let initial =
                    NodeValues::from_values(vec![4.0, -1.0, 2.5, 0.0, -3.0, 1.0, 0.5, -4.0])
                        .unwrap();
                let mean = initial.mean();
                let config = SimulationConfig::new(clock_seed)
                    .with_stopping_rule(StoppingRule::max_ticks(3_000))
                    .with_fault_plan(plan);
                let mut sim =
                    AsyncSimulator::new(&g, initial, Vanilla::default(), config).unwrap();
                let outcome = sim.run().unwrap();
                // Total mass conserved: drops skip the update atomically,
                // so no half-applied pair can leak or duplicate mass.
                prop_assert!((outcome.final_values.mean() - mean).abs() < 1e-9);
                // Class-C variance monotonicity: every delivered vanilla
                // average is convex, every suppressed contact is a no-op.
                let mut last = f64::INFINITY;
                for &(time, variance) in &sim.handler().variances {
                    prop_assert!(
                        variance <= last + 1e-9,
                        "variance rose from {last} to {variance} at t = {time}"
                    );
                    last = variance;
                }
                // Every tick was classified exactly once.
                prop_assert_eq!(
                    outcome.fault_stats.total_contacts(),
                    outcome.total_ticks
                );
            }
        }
    }
}
