//! Churn workloads: scenarios paired with deterministic fault environments.
//!
//! The static [`Scenario`] families describe *which* graph is averaged over;
//! a [`FaultProfile`] describes *what goes wrong while it happens* — message
//! loss, the sparse cut flapping, nodes pausing and resuming.  A
//! [`ChurnCase`] pairs the two, and [`FaultProfile::compile`] lowers the
//! declarative profile onto a concrete [`ScenarioInstance`] (whose cut edges
//! and node count it needs) into the engine-level
//! [`gossip_sim::fault::FaultPlan`], using the same ChaCha8 seed discipline
//! as everything else in the workspace so every churn run stays
//! bit-reproducible.

use crate::scenarios::{Scenario, ScenarioInstance};
use gossip_sim::fault::FaultPlan;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A declarative fault environment, lowered to a [`FaultPlan`] per instance.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultProfile {
    /// No faults: the control arm (compiles to [`FaultPlan::none`], which is
    /// byte-identical to running without a plan at all).
    None,
    /// Every topologically live contact is dropped with probability `p`.
    MessageLoss {
        /// Per-contact drop probability in `[0, 1)`.
        p: f64,
    },
    /// Every cut edge of the instance's canonical partition is down during
    /// `[from_tick, until_tick)` — the sparse cut disappears entirely for a
    /// while, then heals.
    BridgeOutage {
        /// First tick of the outage.
        from_tick: u64,
        /// First tick after the outage.
        until_tick: u64,
    },
    /// Rolling node churn: in each of `cycles` consecutive windows of
    /// `window_ticks` ticks, `concurrent` seeded-randomly chosen nodes are
    /// paused for that window.
    NodeChurn {
        /// How many nodes are down at once.
        concurrent: usize,
        /// Length of each churn window in ticks.
        window_ticks: u64,
        /// Number of consecutive windows.
        cycles: usize,
    },
    /// The cut flaps: in each of `cycles` periods of `period_ticks` ticks,
    /// every cut edge is down for the first `down_ticks` of the period.
    CutFlap {
        /// Length of one up/down period in ticks.
        period_ticks: u64,
        /// How long the cut is down at the start of each period.
        down_ticks: u64,
        /// Number of periods.
        cycles: usize,
    },
}

impl FaultProfile {
    /// A short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            FaultProfile::None => "none".to_string(),
            FaultProfile::MessageLoss { p } => format!("loss-p{p:.2}"),
            FaultProfile::BridgeOutage {
                from_tick,
                until_tick,
            } => format!("bridge-outage-{from_tick}-{until_tick}"),
            FaultProfile::NodeChurn {
                concurrent,
                window_ticks,
                cycles,
            } => format!("node-churn-{concurrent}x{window_ticks}t-{cycles}c"),
            FaultProfile::CutFlap {
                period_ticks,
                down_ticks,
                cycles,
            } => format!("cut-flap-{down_ticks}of{period_ticks}t-{cycles}c"),
        }
    }

    /// The run store's stable identity of this profile: every parameter at
    /// full precision (the display [`FaultProfile::name`] rounds `p` to two
    /// decimals, which would alias distinct loss rates in the journal).
    pub fn fingerprint(&self) -> String {
        match self {
            FaultProfile::None => "none".to_string(),
            FaultProfile::MessageLoss { p } => format!("loss(p={p})"),
            FaultProfile::BridgeOutage {
                from_tick,
                until_tick,
            } => format!("bridge-outage(from={from_tick},until={until_tick})"),
            FaultProfile::NodeChurn {
                concurrent,
                window_ticks,
                cycles,
            } => {
                format!("node-churn(concurrent={concurrent},window={window_ticks},cycles={cycles})")
            }
            FaultProfile::CutFlap {
                period_ticks,
                down_ticks,
                cycles,
            } => format!("cut-flap(period={period_ticks},down={down_ticks},cycles={cycles})"),
        }
    }

    /// The profile's drop probability (`0.0` for topological profiles) —
    /// convenient for report columns.
    pub fn drop_probability(&self) -> f64 {
        match self {
            FaultProfile::MessageLoss { p } => *p,
            _ => 0.0,
        }
    }

    /// Lowers the profile onto a concrete instance.  `seed` drives the
    /// random choices (which nodes churn) and the engine-level drop stream;
    /// the same `(profile, instance, seed)` triple always yields the same
    /// plan.
    pub fn compile(&self, instance: &ScenarioInstance, seed: u64) -> FaultPlan {
        match self {
            FaultProfile::None => FaultPlan::none(),
            FaultProfile::MessageLoss { p } => FaultPlan::new(seed).with_drop_probability(*p),
            FaultProfile::BridgeOutage {
                from_tick,
                until_tick,
            } => {
                let mut plan = FaultPlan::new(seed);
                for &edge in instance.partition.cut_edges() {
                    plan = plan.with_edge_outage(edge, *from_tick, *until_tick);
                }
                plan
            }
            FaultProfile::NodeChurn {
                concurrent,
                window_ticks,
                cycles,
            } => {
                let n = instance.graph.node_count();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0DE_C4A2);
                let mut plan = FaultPlan::new(seed);
                for cycle in 0..*cycles {
                    let from = cycle as u64 * window_ticks;
                    let until = from + window_ticks;
                    // Sample `concurrent` distinct nodes for this window.
                    let mut chosen = std::collections::BTreeSet::new();
                    while chosen.len() < (*concurrent).min(n) {
                        chosen.insert(rng.gen_range(0..n));
                    }
                    for node in chosen {
                        plan = plan.with_node_pause(gossip_graph::NodeId(node), from, until);
                    }
                }
                plan
            }
            FaultProfile::CutFlap {
                period_ticks,
                down_ticks,
                cycles,
            } => {
                let mut plan = FaultPlan::new(seed);
                for cycle in 0..*cycles {
                    let from = cycle as u64 * period_ticks;
                    let until = from + down_ticks.min(period_ticks);
                    for &edge in instance.partition.cut_edges() {
                        plan = plan.with_edge_outage(edge, from, until);
                    }
                }
                plan
            }
        }
    }
}

/// A scenario paired with a fault profile: one row of the robustness tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnCase {
    /// The (static) graph family.
    pub scenario: Scenario,
    /// What goes wrong during the run.
    pub fault: FaultProfile,
}

impl ChurnCase {
    /// Creates a case.
    pub fn new(scenario: Scenario, fault: FaultProfile) -> Self {
        ChurnCase { scenario, fault }
    }

    /// A short name used in experiment tables: `scenario+fault`.
    pub fn name(&self) -> String {
        format!("{}+{}", self.scenario.name(), self.fault.name())
    }

    /// The run store's stable identity: `scenario+fault` at full parameter
    /// fidelity (see [`Scenario::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!(
            "{}+{}",
            self.scenario.fingerprint(),
            self.fault.fingerprint()
        )
    }
}

/// The churn robustness suite at a total size close to `total_nodes`: the
/// four bounded-degree simulation-tier families, each paired with the fault
/// mode that stresses it most directly — message loss on the well-mixed
/// chordal ring, a full bridge outage on the expander dumbbell (its cut has
/// a single edge), rolling node churn on the expander barbell, and a
/// flapping cut on the ring of cliques (cut width 2).
///
/// Windows scale **quadratically** with `total_nodes`: under the
/// cut-aligned adversarial start these families converge in
/// Θ(n₁/|E₁₂|) simulated time, i.e. Θ(n·|E|) ≈ Θ(n²·polylog) global ticks,
/// so linear-in-`n` windows would be over before the fault mattered.  A
/// `n²`-scaled window keeps each fault active during a comparable fraction
/// of the run at every suite size.
pub fn churn_suite(total_nodes: usize) -> Vec<ChurnCase> {
    let half = (total_nodes / 2).max(3);
    let left = (total_nodes / 3).max(3);
    let right = (total_nodes - left).max(3);
    let clique_size = 16;
    let cliques = (total_nodes / clique_size).max(2);
    let quad = ((total_nodes * total_nodes) as u64).max(256);
    vec![
        ChurnCase::new(
            Scenario::ChordalRing {
                n: total_nodes.max(3),
            },
            FaultProfile::MessageLoss { p: 0.25 },
        ),
        ChurnCase::new(
            Scenario::ExpanderDumbbell { half },
            FaultProfile::BridgeOutage {
                from_tick: 0,
                until_tick: quad / 2,
            },
        ),
        ChurnCase::new(
            Scenario::ExpanderBarbell { left, right },
            FaultProfile::NodeChurn {
                concurrent: (total_nodes / 16).max(1),
                window_ticks: quad / 4,
                cycles: 4,
            },
        ),
        ChurnCase::new(
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            },
            FaultProfile::CutFlap {
                period_ticks: quad / 2,
                down_ticks: quad / 4,
                cycles: 4,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_are_distinct_and_parameterized() {
        let names: Vec<String> = [
            FaultProfile::None,
            FaultProfile::MessageLoss { p: 0.25 },
            FaultProfile::BridgeOutage {
                from_tick: 0,
                until_tick: 100,
            },
            FaultProfile::NodeChurn {
                concurrent: 4,
                window_ticks: 50,
                cycles: 3,
            },
            FaultProfile::CutFlap {
                period_ticks: 100,
                down_ticks: 40,
                cycles: 2,
            },
        ]
        .iter()
        .map(FaultProfile::name)
        .collect();
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names[1], "loss-p0.25");
        assert_eq!(
            FaultProfile::MessageLoss { p: 0.25 }.drop_probability(),
            0.25
        );
        assert_eq!(FaultProfile::None.drop_probability(), 0.0);
    }

    #[test]
    fn fingerprints_keep_full_precision_where_names_round() {
        let a = FaultProfile::MessageLoss { p: 0.251 };
        let b = FaultProfile::MessageLoss { p: 0.252 };
        assert_eq!(a.name(), b.name(), "display names round to 2 decimals");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "loss(p=0.251)");
        let case = ChurnCase::new(Scenario::ExpanderDumbbell { half: 48 }, a);
        assert_eq!(case.fingerprint(), "xdumbbell(half=48)+loss(p=0.251)");
    }

    #[test]
    fn none_profile_compiles_to_the_empty_plan() {
        let instance = Scenario::Dumbbell { half: 4 }.instantiate(1).unwrap();
        let plan = FaultProfile::None.compile(&instance, 9);
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn bridge_outage_covers_exactly_the_cut_edges() {
        let instance = Scenario::RingOfCliques {
            cliques: 4,
            clique_size: 4,
        }
        .instantiate(1)
        .unwrap();
        let profile = FaultProfile::BridgeOutage {
            from_tick: 10,
            until_tick: 50,
        };
        let plan = profile.compile(&instance, 3);
        let mut expected: Vec<_> = instance.partition.cut_edges().to_vec();
        expected.sort();
        assert_eq!(plan.edges_ever_down(), expected);
        assert!(plan.nodes_ever_paused().is_empty());
        assert!(plan.validate(&instance.graph).is_ok());
    }

    #[test]
    fn node_churn_is_seed_deterministic_and_in_range() {
        let instance = Scenario::ExpanderBarbell {
            left: 10,
            right: 22,
        }
        .instantiate(5)
        .unwrap();
        let profile = FaultProfile::NodeChurn {
            concurrent: 3,
            window_ticks: 100,
            cycles: 4,
        };
        let a = profile.compile(&instance, 17);
        let b = profile.compile(&instance, 17);
        assert_eq!(a, b);
        let c = profile.compile(&instance, 18);
        assert_ne!(a, c);
        assert_eq!(a.node_pauses.len(), 3 * 4);
        assert!(a.validate(&instance.graph).is_ok());
        // Every window lies inside its cycle.
        for (i, pause) in a.node_pauses.iter().enumerate() {
            let cycle = (i / 3) as u64;
            assert_eq!(pause.window.from, cycle * 100);
            assert_eq!(pause.window.until, (cycle + 1) * 100);
        }
    }

    #[test]
    fn cut_flap_alternates_down_windows() {
        let instance = Scenario::Dumbbell { half: 4 }.instantiate(1).unwrap();
        let profile = FaultProfile::CutFlap {
            period_ticks: 100,
            down_ticks: 30,
            cycles: 3,
        };
        let plan = profile.compile(&instance, 2);
        // One cut edge on the dumbbell, three cycles.
        assert_eq!(plan.edge_outages.len(), 3);
        for (cycle, outage) in plan.edge_outages.iter().enumerate() {
            assert_eq!(outage.window.from, cycle as u64 * 100);
            assert_eq!(outage.window.until, cycle as u64 * 100 + 30);
        }
        assert!(plan.validate(&instance.graph).is_ok());
    }

    #[test]
    fn churn_suite_cases_instantiate_and_compile() {
        let suite = churn_suite(96);
        assert_eq!(suite.len(), 4);
        let mut names = std::collections::BTreeSet::new();
        for case in &suite {
            let instance = case.scenario.instantiate(7).unwrap();
            instance.validate_notation1().unwrap();
            let plan = case.fault.compile(&instance, 11);
            plan.validate(&instance.graph).unwrap();
            assert!(!plan.is_empty(), "{} compiled to a no-op plan", case.name());
            assert!(names.insert(case.name()), "duplicate case name");
        }
    }
}
