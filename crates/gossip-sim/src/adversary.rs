//! Deterministic Byzantine adversaries: biased, extreme, stale, censoring.
//!
//! The fault layer ([`crate::fault`]) models *crash-style* failures — every
//! participant is honest, messages are merely lost.  This module models
//! *misbehaving* participants: an [`AdversaryPlan`] assigns per-node
//! behaviors (a [`BiasedInjector`] that reports its value offset by a fixed
//! bias, an [`ExtremeValueNode`] that reports `±M` outliers with a seeded
//! sign, a [`StaleReplayNode`] that replays its value from `k` ticks ago)
//! and per-edge [`CensoringBridge`]s that selectively suppress contacts
//! crossing a designated cut.  All randomness (censor coins, outlier signs)
//! comes from a dedicated ChaCha8 stream seeded by the plan — independent of
//! both the clock stream and the fault-drop stream — so an adversarial run
//! stays a pure function of `(config seed, fault plan, adversary plan)`.
//!
//! The engine consumes the plan through the crate-internal
//! [`AdversaryInjector`], which classifies every *delivered* contact
//! **before** the pairwise update runs: a censored contact skips the handler
//! atomically (exactly like a fault suppression), and a falsified contact
//! substitutes the adversary's report into the state for the duration of the
//! handler call, restoring fixed-state behaviors afterwards.  Because the
//! classification happens first, the injector can account the exact
//! falsification magnitude `|report − honest partner value|` per contact,
//! which is what makes the honest-subset mass-drift oracle
//! (`gossip_analysis::robust::honest_drift_bound`) exact: every convex
//! pairwise update moves the contacted honest value by at most that much.
//!
//! An empty plan ([`AdversaryPlan::none`]) draws nothing from its RNG,
//! censors nothing, and falsifies nothing, so a run configured with it is
//! **byte-identical** to a run with no plan at all — mirroring the
//! [`crate::fault::FaultPlan::none`] oracle pinned since PR 4;
//! `tests/adversary_differential.rs` pins the same contract for this layer.
//!
//! [`BiasedInjector`]: AdversaryBehavior::BiasedInjector
//! [`ExtremeValueNode`]: AdversaryBehavior::ExtremeValueNode
//! [`StaleReplayNode`]: AdversaryBehavior::StaleReplayNode

use crate::{Result, SimError};
use gossip_graph::{Edge, EdgeId, Graph, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, VecDeque};

/// What a misbehaving node does when one of its edges ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryBehavior {
    /// Reports its stored value offset by `bias`.  The node's stored value
    /// is frozen (it lies but never listens), so against vanilla gossip the
    /// network is dragged toward `initial + bias`.
    BiasedInjector {
        /// Additive report offset (finite, may be negative).
        bias: f64,
    },
    /// Reports `±magnitude`, the sign drawn per contact from the dedicated
    /// adversary stream.  The node's stored value is frozen.
    ExtremeValueNode {
        /// Absolute value of the reported outlier (finite, non-negative).
        magnitude: f64,
    },
    /// Reports the value it held `delay` global ticks ago (or its current
    /// value while the run is younger than the delay).  Unlike the two
    /// liars above, a stale node's stored value keeps evolving through the
    /// handler — it is honest-but-delayed, not frozen.
    StaleReplayNode {
        /// Replay age in global ticks.
        delay: u64,
    },
}

/// One misbehaving node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryNode {
    /// The misbehaving node.
    pub node: NodeId,
    /// How it misbehaves.
    pub behavior: AdversaryBehavior,
}

/// A censoring attack on a designated cut: every contact on one of `edges`
/// is suppressed with probability `probability` (coin drawn from the
/// adversary stream), so cross-cut information flow is selectively starved
/// while intra-block gossip proceeds untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct CensoringBridge {
    /// The attacked (cut) edges.
    pub edges: Vec<EdgeId>,
    /// Per-contact suppression probability in `[0, 1]`.
    pub probability: f64,
}

/// A deterministic description of the adversarial environment of one run.
///
/// # Examples
///
/// ```
/// use gossip_sim::adversary::AdversaryPlan;
/// use gossip_graph::{EdgeId, NodeId};
///
/// let plan = AdversaryPlan::new(7)
///     .with_biased_injector(NodeId(0), 2.5)
///     .with_extreme_value_node(NodeId(3), 100.0)
///     .with_stale_replay_node(NodeId(5), 500)
///     .with_censoring_bridge(vec![EdgeId(0), EdgeId(9)], 0.8);
/// assert!(!plan.is_empty());
/// assert!(AdversaryPlan::none().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    /// Seed of the dedicated adversary ChaCha8 stream (independent of the
    /// clock sampler's stream and the fault layer's drop stream, so adding
    /// an adversary never perturbs the tick sequence or the drop pattern).
    pub seed: u64,
    /// The misbehaving nodes (at most one behavior per node).
    pub nodes: Vec<AdversaryNode>,
    /// The censoring attacks.
    pub censors: Vec<CensoringBridge>,
    /// When set, a falsified report whose distance from the honest
    /// partner's value exceeds this threshold increments
    /// [`AdversaryStats::flagged_reports`] — the detection counter robust
    /// aggregation variants key their outlier rejection to.
    pub detection_threshold: Option<f64>,
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl AdversaryPlan {
    /// Creates an empty plan with the given adversary-stream seed.
    pub fn new(seed: u64) -> Self {
        AdversaryPlan {
            seed,
            nodes: Vec::new(),
            censors: Vec::new(),
            detection_threshold: None,
        }
    }

    /// The canonical no-op plan: no node misbehaves, nothing is censored,
    /// and a run configured with it is byte-identical to an adversary-free
    /// run.
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Makes `node` a [`AdversaryBehavior::BiasedInjector`] with the given
    /// bias.
    pub fn with_biased_injector(mut self, node: NodeId, bias: f64) -> Self {
        self.nodes.push(AdversaryNode {
            node,
            behavior: AdversaryBehavior::BiasedInjector { bias },
        });
        self
    }

    /// Makes `node` an [`AdversaryBehavior::ExtremeValueNode`] reporting
    /// `±magnitude`.
    pub fn with_extreme_value_node(mut self, node: NodeId, magnitude: f64) -> Self {
        self.nodes.push(AdversaryNode {
            node,
            behavior: AdversaryBehavior::ExtremeValueNode { magnitude },
        });
        self
    }

    /// Makes `node` a [`AdversaryBehavior::StaleReplayNode`] replaying its
    /// value from `delay` ticks ago.
    pub fn with_stale_replay_node(mut self, node: NodeId, delay: u64) -> Self {
        self.nodes.push(AdversaryNode {
            node,
            behavior: AdversaryBehavior::StaleReplayNode { delay },
        });
        self
    }

    /// Adds a [`CensoringBridge`] suppressing contacts on `edges` with the
    /// given probability.
    pub fn with_censoring_bridge(mut self, edges: Vec<EdgeId>, probability: f64) -> Self {
        self.censors.push(CensoringBridge { edges, probability });
        self
    }

    /// Sets the detection threshold (see [`Self::detection_threshold`]).
    pub fn with_detection_threshold(mut self, threshold: f64) -> Self {
        self.detection_threshold = Some(threshold);
        self
    }

    /// Returns `true` if the plan can never falsify, censor, or draw from
    /// its stream — the byte-identity precondition.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
            && self
                .censors
                .iter()
                .all(|c| c.edges.is_empty() || c.probability <= 0.0)
    }

    /// The misbehaving nodes, deduplicated and sorted — the honest-subset
    /// complement used by drift oracles.
    pub fn adversarial_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.nodes.iter().map(|a| a.node).collect();
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Validates the plan against a graph: biases and magnitudes must be
    /// finite (magnitudes and probabilities non-negative, probabilities at
    /// most 1, the detection threshold finite and positive), every
    /// referenced node and edge must exist, and no node may carry two
    /// behaviors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for bad parameters and
    /// [`SimError::Graph`] for out-of-range identifiers.
    pub fn validate(&self, graph: &Graph) -> Result<()> {
        let mut seen: Vec<NodeId> = Vec::new();
        for adversary in &self.nodes {
            graph.check_node(adversary.node)?;
            if seen.contains(&adversary.node) {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "node {} carries more than one adversary behavior",
                        adversary.node.index()
                    ),
                });
            }
            seen.push(adversary.node);
            match adversary.behavior {
                AdversaryBehavior::BiasedInjector { bias } => {
                    if !bias.is_finite() {
                        return Err(SimError::InvalidConfig {
                            reason: format!("biased injector bias must be finite, got {bias}"),
                        });
                    }
                }
                AdversaryBehavior::ExtremeValueNode { magnitude } => {
                    if !magnitude.is_finite() || magnitude < 0.0 {
                        return Err(SimError::InvalidConfig {
                            reason: format!(
                                "extreme-value magnitude must be finite and non-negative, \
                                 got {magnitude}"
                            ),
                        });
                    }
                }
                AdversaryBehavior::StaleReplayNode { .. } => {}
            }
        }
        for censor in &self.censors {
            if !(0.0..=1.0).contains(&censor.probability) {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "censoring probability must be in [0, 1], got {}",
                        censor.probability
                    ),
                });
            }
            for &edge in &censor.edges {
                graph.edge(edge)?;
            }
        }
        if let Some(threshold) = self.detection_threshold {
            if !threshold.is_finite() || threshold <= 0.0 {
                return Err(SimError::InvalidConfig {
                    reason: format!(
                        "detection threshold must be finite and positive, got {threshold}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Counters of what the adversary did during a run.  All zeros (with empty
/// report range) when the run had no adversary plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryStats {
    /// Delivered contacts with no adversarial involvement.
    pub honest_contacts: u64,
    /// Delivered contacts in which at least one endpoint's report was
    /// falsified.
    pub falsified_contacts: u64,
    /// Contacts suppressed by a censoring bridge.
    pub censored_contacts: u64,
    /// Falsified reports produced by biased injectors.
    pub biased_reports: u64,
    /// Falsified reports produced by extreme-value nodes.
    pub extreme_reports: u64,
    /// Falsified reports produced by stale-replay nodes.
    pub stale_reports: u64,
    /// Falsified reports (facing an honest partner) whose offset exceeded
    /// the plan's detection threshold.
    pub flagged_reports: u64,
    /// `Σ |report − honest partner value|` over all falsified reports that
    /// faced an honest partner — the exact per-contact budget of the
    /// honest-subset mass-drift oracle for conserving pairwise updates.
    pub falsification_l1: f64,
    /// Largest single `|report − honest partner value|`.
    pub max_falsification: f64,
    /// Smallest report ever injected (`+∞` when none).
    pub report_min: f64,
    /// Largest report ever injected (`−∞` when none).
    pub report_max: f64,
}

impl Default for AdversaryStats {
    fn default() -> Self {
        AdversaryStats {
            honest_contacts: 0,
            falsified_contacts: 0,
            censored_contacts: 0,
            biased_reports: 0,
            extreme_reports: 0,
            stale_reports: 0,
            flagged_reports: 0,
            falsification_l1: 0.0,
            max_falsification: 0.0,
            report_min: f64::INFINITY,
            report_max: f64::NEG_INFINITY,
        }
    }
}

impl AdversaryStats {
    /// Total delivered-or-censored contacts classified by the injector.
    /// When an adversary plan is configured this equals the fault layer's
    /// delivered count: every contact that survives crash-style faults is
    /// classified exactly once here.
    pub fn total_classified(&self) -> u64 {
        self.honest_contacts + self.falsified_contacts + self.censored_contacts
    }

    /// Total falsified reports of any behavior (one contact can contribute
    /// two when both endpoints misbehave).
    pub fn total_reports(&self) -> u64 {
        self.biased_reports + self.extreme_reports + self.stale_reports
    }
}

/// One falsified endpoint of a contact: the value the handler must see, and
/// whether the endpoint's stored value is restored after the update
/// (frozen-state liars restore; stale-replay nodes keep evolving).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FalsifiedReport {
    /// The reported (substituted) value.
    pub value: f64,
    /// Restore the endpoint's pre-contact stored value after the handler.
    pub restore: bool,
}

/// The falsified endpoints of one delivered contact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FalsifiedContact {
    /// Report of the edge's `u` endpoint, if adversarial.
    pub u: Option<FalsifiedReport>,
    /// Report of the edge's `v` endpoint, if adversarial.
    pub v: Option<FalsifiedReport>,
}

/// What the adversary decided about one delivered contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryAction {
    /// No adversarial involvement: run the handler as usual.
    Honest,
    /// A censoring bridge suppressed the contact: skip the handler
    /// atomically.
    Censored,
    /// At least one endpoint reports a falsified value: substitute, run the
    /// handler, then restore the frozen-state endpoints.
    Falsified(FalsifiedContact),
}

/// Per-node compiled behavior state.
#[derive(Debug, Clone)]
enum Compiled {
    Biased {
        bias: f64,
    },
    Extreme {
        magnitude: f64,
    },
    Stale {
        delay: u64,
        /// `(tick, stored value)` at each of this node's past contacts,
        /// oldest first; pruned to the newest entry at least `delay` old.
        history: VecDeque<(u64, f64)>,
    },
}

/// Runtime state compiled from an [`AdversaryPlan`]: per-node behaviors, the
/// censored-edge index, and the dedicated adversary stream.  Owned by the
/// engine.
#[derive(Debug, Clone)]
pub struct AdversaryInjector {
    rng: ChaCha8Rng,
    /// Behavior per node index (`None` for honest nodes).
    behaviors: Vec<Option<Compiled>>,
    /// Suppression probability per censored edge index (max over bridges).
    censored_edges: BTreeMap<usize, f64>,
    detection_threshold: Option<f64>,
    stats: AdversaryStats,
}

impl AdversaryInjector {
    /// Compiles a plan for a graph.
    ///
    /// # Errors
    ///
    /// Propagates [`AdversaryPlan::validate`] failures.
    pub fn new(plan: &AdversaryPlan, graph: &Graph) -> Result<Self> {
        plan.validate(graph)?;
        let mut behaviors: Vec<Option<Compiled>> = vec![None; graph.node_count()];
        for adversary in &plan.nodes {
            behaviors[adversary.node.index()] = Some(match adversary.behavior {
                AdversaryBehavior::BiasedInjector { bias } => Compiled::Biased { bias },
                AdversaryBehavior::ExtremeValueNode { magnitude } => {
                    Compiled::Extreme { magnitude }
                }
                AdversaryBehavior::StaleReplayNode { delay } => Compiled::Stale {
                    delay,
                    history: VecDeque::new(),
                },
            });
        }
        let mut censored_edges: BTreeMap<usize, f64> = BTreeMap::new();
        for censor in &plan.censors {
            if censor.probability <= 0.0 {
                continue;
            }
            for &edge in &censor.edges {
                let entry = censored_edges.entry(edge.index()).or_insert(0.0);
                *entry = entry.max(censor.probability);
            }
        }
        Ok(AdversaryInjector {
            rng: ChaCha8Rng::seed_from_u64(plan.seed),
            behaviors,
            censored_edges,
            detection_threshold: plan.detection_threshold,
            stats: AdversaryStats::default(),
        })
    }

    /// Classifies the delivered contact at `tick` on `edge`, given the
    /// endpoints' current stored values, updating the counters.  The
    /// adversary stream is drawn from only for censor coins and extreme
    /// signs, so an empty plan consumes no randomness at all.  Draw order is
    /// fixed (censor coin, then `u`'s report, then `v`'s), keeping the
    /// stream deterministic.
    pub fn classify(
        &mut self,
        edge_id: EdgeId,
        edge: Edge,
        tick: u64,
        value_u: f64,
        value_v: f64,
    ) -> AdversaryAction {
        if let Some(&probability) = self.censored_edges.get(&edge_id.index()) {
            if self.rng.gen::<f64>() < probability {
                self.stats.censored_contacts += 1;
                return AdversaryAction::Censored;
            }
        }
        let (u, v) = edge.endpoints();
        let report_u = self.report_for(u.index(), tick, value_u);
        let report_v = self.report_for(v.index(), tick, value_v);
        if report_u.is_none() && report_v.is_none() {
            self.stats.honest_contacts += 1;
            return AdversaryAction::Honest;
        }
        self.stats.falsified_contacts += 1;
        if let Some(report) = report_u {
            self.note_report(report.value, report_v.is_none().then_some(value_v));
        }
        if let Some(report) = report_v {
            self.note_report(report.value, report_u.is_none().then_some(value_u));
        }
        AdversaryAction::Falsified(FalsifiedContact {
            u: report_u,
            v: report_v,
        })
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> AdversaryStats {
        self.stats
    }

    /// Crate-internal: captures the mutable state for a checkpoint.  The
    /// compiled behaviors and censor index are pure functions of the plan
    /// and are recompiled on restore; what evolves is the stream position,
    /// the counters, and the stale-replay histories.
    pub(crate) fn checkpoint_state(&self) -> AdversaryInjectorState {
        let mut stale_histories = Vec::new();
        for (node, behavior) in self.behaviors.iter().enumerate() {
            if let Some(Compiled::Stale { history, .. }) = behavior {
                stale_histories.push((node, history.iter().copied().collect()));
            }
        }
        AdversaryInjectorState {
            rng_word_pos: self.rng.get_word_pos(),
            stats: self.stats,
            stale_histories,
        }
    }

    /// Crate-internal: reinstalls checkpointed mutable state into a freshly
    /// compiled injector (same plan, same graph).
    pub(crate) fn restore_state(&mut self, state: &AdversaryInjectorState) {
        self.rng.set_word_pos(state.rng_word_pos);
        self.stats = state.stats;
        for (node, history) in &state.stale_histories {
            if let Some(Some(Compiled::Stale { history: live, .. })) = self.behaviors.get_mut(*node)
            {
                *live = history.iter().copied().collect();
            }
        }
    }

    fn report_for(&mut self, node: usize, tick: u64, current: f64) -> Option<FalsifiedReport> {
        match self.behaviors[node].as_mut()? {
            Compiled::Biased { bias } => {
                self.stats.biased_reports += 1;
                Some(FalsifiedReport {
                    value: current + *bias,
                    restore: true,
                })
            }
            Compiled::Extreme { magnitude } => {
                let magnitude = *magnitude;
                self.stats.extreme_reports += 1;
                let sign = if self.rng.gen::<f64>() < 0.5 {
                    -1.0
                } else {
                    1.0
                };
                Some(FalsifiedReport {
                    value: sign * magnitude,
                    restore: true,
                })
            }
            Compiled::Stale { delay, history } => {
                self.stats.stale_reports += 1;
                history.push_back((tick, current));
                // Keep the front at the newest entry that is at least
                // `delay` old; report it if one exists, else behave honestly
                // (the run is younger than the replay age).
                while history.len() >= 2 && history[1].0.saturating_add(*delay) <= tick {
                    history.pop_front();
                }
                let front = history[0];
                let value = if front.0.saturating_add(*delay) <= tick {
                    front.1
                } else {
                    current
                };
                Some(FalsifiedReport {
                    value,
                    restore: false,
                })
            }
        }
    }

    fn note_report(&mut self, report: f64, honest_partner: Option<f64>) {
        self.stats.report_min = self.stats.report_min.min(report);
        self.stats.report_max = self.stats.report_max.max(report);
        if let Some(partner) = honest_partner {
            let offset = (report - partner).abs();
            self.stats.falsification_l1 += offset;
            self.stats.max_falsification = self.stats.max_falsification.max(offset);
            if let Some(threshold) = self.detection_threshold {
                if offset > threshold {
                    self.stats.flagged_reports += 1;
                }
            }
        }
    }
}

/// Checkpointed mutable state of an [`AdversaryInjector`] (crate-internal;
/// serialized by `crate::checkpoint`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdversaryInjectorState {
    /// Keystream position of the adversary RNG.
    pub(crate) rng_word_pos: u128,
    /// Counters accumulated up to the checkpoint.
    pub(crate) stats: AdversaryStats,
    /// `(node index, (tick, stored value) history)` per stale-replay node.
    pub(crate) stale_histories: Vec<(usize, Vec<(u64, f64)>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::{complete, path};

    #[test]
    fn plan_builders_and_emptiness() {
        assert!(AdversaryPlan::none().is_empty());
        assert!(AdversaryPlan::default().is_empty());
        // Zero-probability or edgeless censors do not make a plan non-empty.
        let degenerate = AdversaryPlan::new(1)
            .with_censoring_bridge(vec![], 1.0)
            .with_censoring_bridge(vec![EdgeId(0)], 0.0);
        assert!(degenerate.is_empty());
        let plan = AdversaryPlan::new(1)
            .with_biased_injector(NodeId(2), 1.0)
            .with_extreme_value_node(NodeId(0), 9.0)
            .with_stale_replay_node(NodeId(2), 10);
        assert!(!plan.is_empty());
        assert_eq!(plan.adversarial_nodes(), vec![NodeId(0), NodeId(2)]);
        assert!(!AdversaryPlan::new(0)
            .with_censoring_bridge(vec![EdgeId(1)], 0.5)
            .is_empty());
    }

    #[test]
    fn validate_rejects_non_finite_and_out_of_range_parameters() {
        let g = path(4).unwrap(); // 3 edges, 4 nodes
        for bad_bias in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                AdversaryPlan::new(0)
                    .with_biased_injector(NodeId(0), bad_bias)
                    .validate(&g)
                    .is_err(),
                "bias {bad_bias} must be rejected"
            );
        }
        for bad_magnitude in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(
                AdversaryPlan::new(0)
                    .with_extreme_value_node(NodeId(0), bad_magnitude)
                    .validate(&g)
                    .is_err(),
                "magnitude {bad_magnitude} must be rejected"
            );
        }
        for bad_probability in [f64::NAN, f64::INFINITY, -0.1, 1.5] {
            assert!(
                AdversaryPlan::new(0)
                    .with_censoring_bridge(vec![EdgeId(0)], bad_probability)
                    .validate(&g)
                    .is_err(),
                "probability {bad_probability} must be rejected"
            );
        }
        for bad_threshold in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
            assert!(
                AdversaryPlan::new(0)
                    .with_detection_threshold(bad_threshold)
                    .validate(&g)
                    .is_err(),
                "threshold {bad_threshold} must be rejected"
            );
        }
        // Out-of-range identifiers and duplicate behaviors.
        assert!(AdversaryPlan::new(0)
            .with_biased_injector(NodeId(4), 1.0)
            .validate(&g)
            .is_err());
        assert!(AdversaryPlan::new(0)
            .with_censoring_bridge(vec![EdgeId(3)], 0.5)
            .validate(&g)
            .is_err());
        assert!(AdversaryPlan::new(0)
            .with_biased_injector(NodeId(1), 1.0)
            .with_stale_replay_node(NodeId(1), 5)
            .validate(&g)
            .is_err());
        // A fully-specified valid plan passes.
        assert!(AdversaryPlan::new(0)
            .with_biased_injector(NodeId(0), -3.0)
            .with_extreme_value_node(NodeId(1), 50.0)
            .with_stale_replay_node(NodeId(2), 100)
            .with_censoring_bridge(vec![EdgeId(0), EdgeId(2)], 1.0)
            .with_detection_threshold(10.0)
            .validate(&g)
            .is_ok());
    }

    #[test]
    fn empty_plan_never_draws_and_never_interferes() {
        let g = complete(4).unwrap();
        let mut injector = AdversaryInjector::new(&AdversaryPlan::none(), &g).unwrap();
        for t in 0..1000u64 {
            let id = EdgeId(t as usize % g.edge_count());
            let edge = g.edge(id).unwrap();
            assert_eq!(
                injector.classify(id, edge, t, 1.0, 2.0),
                AdversaryAction::Honest
            );
        }
        let stats = injector.stats();
        assert_eq!(stats.honest_contacts, 1000);
        assert_eq!(stats.falsified_contacts, 0);
        assert_eq!(stats.censored_contacts, 0);
        assert_eq!(stats.total_reports(), 0);
        assert_eq!(stats.falsification_l1, 0.0);
        // The stream was never drawn from: a fresh injector's RNG is
        // bit-identical after the 1000 classifications.
        let fresh = AdversaryInjector::new(&AdversaryPlan::none(), &g).unwrap();
        assert_eq!(format!("{:?}", injector.rng), format!("{:?}", fresh.rng));
    }

    #[test]
    fn biased_injector_reports_offset_and_restores() {
        let g = path(2).unwrap();
        let plan = AdversaryPlan::new(3).with_biased_injector(NodeId(0), 2.5);
        let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
        let edge = g.edge(EdgeId(0)).unwrap();
        match injector.classify(EdgeId(0), edge, 1, 1.0, 5.0) {
            AdversaryAction::Falsified(contact) => {
                let report = contact.u.expect("node 0 is adversarial");
                assert_eq!(report.value, 3.5);
                assert!(report.restore);
                assert!(contact.v.is_none());
            }
            other => panic!("expected falsified contact, got {other:?}"),
        }
        let stats = injector.stats();
        assert_eq!(stats.biased_reports, 1);
        assert_eq!(stats.falsified_contacts, 1);
        // |3.5 − 5.0| against the honest partner.
        assert!((stats.falsification_l1 - 1.5).abs() < 1e-12);
        assert_eq!(stats.report_min, 3.5);
        assert_eq!(stats.report_max, 3.5);
    }

    #[test]
    fn extreme_node_draws_seeded_signs_and_flags_detections() {
        let g = path(2).unwrap();
        let run = |seed: u64| {
            let plan = AdversaryPlan::new(seed)
                .with_extreme_value_node(NodeId(1), 100.0)
                .with_detection_threshold(10.0);
            let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
            let edge = g.edge(EdgeId(0)).unwrap();
            let signs: Vec<f64> = (0..200u64)
                .map(|t| match injector.classify(EdgeId(0), edge, t, 0.0, 0.0) {
                    AdversaryAction::Falsified(c) => c.v.unwrap().value.signum(),
                    other => panic!("expected falsified, got {other:?}"),
                })
                .collect();
            (signs, injector.stats())
        };
        let (signs_a, stats_a) = run(7);
        let (signs_b, _) = run(7);
        assert_eq!(signs_a, signs_b, "signs must be seed-deterministic");
        let (signs_c, _) = run(8);
        assert_ne!(signs_a, signs_c, "different seeds must differ");
        assert!(signs_a.contains(&1.0) && signs_a.contains(&-1.0));
        // Every ±100 report against an honest 0.0 partner exceeds the
        // detection threshold.
        assert_eq!(stats_a.flagged_reports, 200);
        assert_eq!(stats_a.extreme_reports, 200);
        assert_eq!(stats_a.report_min, -100.0);
        assert_eq!(stats_a.report_max, 100.0);
        assert_eq!(stats_a.max_falsification, 100.0);
    }

    #[test]
    fn stale_replay_reports_the_value_from_delay_ticks_ago() {
        let g = path(2).unwrap();
        let plan = AdversaryPlan::new(0).with_stale_replay_node(NodeId(0), 10);
        let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
        let edge = g.edge(EdgeId(0)).unwrap();
        let report_at = |injector: &mut AdversaryInjector, tick: u64, current: f64| match injector
            .classify(EdgeId(0), edge, tick, current, 0.0)
        {
            AdversaryAction::Falsified(c) => {
                let r = c.u.unwrap();
                assert!(!r.restore, "stale nodes keep evolving");
                r.value
            }
            other => panic!("expected falsified, got {other:?}"),
        };
        // Too young: reports the current value.
        assert_eq!(report_at(&mut injector, 2, 5.0), 5.0);
        // At tick 13 the newest entry at least 10 old is (2, 5.0).
        assert_eq!(report_at(&mut injector, 13, 8.0), 5.0);
        // At tick 24 it is (13, 8.0) — (2, 5.0) has been pruned.
        assert_eq!(report_at(&mut injector, 24, 9.0), 8.0);
        assert_eq!(injector.stats().stale_reports, 3);
    }

    #[test]
    fn censoring_bridge_suppresses_only_its_edges() {
        let g = complete(3).unwrap(); // edges e0=(0,1), e1=(0,2), e2=(1,2)
        let plan = AdversaryPlan::new(11).with_censoring_bridge(vec![EdgeId(1)], 1.0);
        let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
        for t in 0..50u64 {
            for id in [EdgeId(0), EdgeId(1), EdgeId(2)] {
                let edge = g.edge(id).unwrap();
                let action = injector.classify(id, edge, t, 0.0, 0.0);
                if id == EdgeId(1) {
                    assert_eq!(action, AdversaryAction::Censored);
                } else {
                    assert_eq!(action, AdversaryAction::Honest);
                }
            }
        }
        let stats = injector.stats();
        assert_eq!(stats.censored_contacts, 50);
        assert_eq!(stats.honest_contacts, 100);
        assert_eq!(stats.total_classified(), 150);
        // Probabilistic censoring is seeded and roughly calibrated.
        let plan = AdversaryPlan::new(5).with_censoring_bridge(vec![EdgeId(0)], 0.3);
        let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
        let edge = g.edge(EdgeId(0)).unwrap();
        for t in 0..2000u64 {
            injector.classify(EdgeId(0), edge, t, 0.0, 0.0);
        }
        let censored = injector.stats().censored_contacts as f64;
        // Binomial(2000, 0.3): 5σ ≈ 102.
        assert!(
            (censored - 600.0).abs() < 110.0,
            "censored {censored} far from 600"
        );
    }

    #[test]
    fn both_endpoints_adversarial_contributes_no_honest_falsification() {
        let g = path(2).unwrap();
        let plan = AdversaryPlan::new(0)
            .with_biased_injector(NodeId(0), 4.0)
            .with_biased_injector(NodeId(1), -4.0);
        let mut injector = AdversaryInjector::new(&plan, &g).unwrap();
        let edge = g.edge(EdgeId(0)).unwrap();
        match injector.classify(EdgeId(0), edge, 1, 1.0, 2.0) {
            AdversaryAction::Falsified(contact) => {
                assert_eq!(contact.u.unwrap().value, 5.0);
                assert_eq!(contact.v.unwrap().value, -2.0);
            }
            other => panic!("expected falsified, got {other:?}"),
        }
        let stats = injector.stats();
        assert_eq!(stats.falsified_contacts, 1);
        assert_eq!(stats.biased_reports, 2);
        // No honest partner on either side: the drift budget is untouched,
        // but the report range still covers both injected values.
        assert_eq!(stats.falsification_l1, 0.0);
        assert_eq!(stats.report_min, -2.0);
        assert_eq!(stats.report_max, 5.0);
    }
}
