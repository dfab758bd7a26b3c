//! Adversary workloads: scenarios paired with Byzantine attack profiles and
//! aggregation variants.
//!
//! Mirrors the churn layer one level up the stack: a declarative
//! [`AdversaryProfile`] describes *who misbehaves and how* — a biased
//! minority, extreme-value outliers, stale replayers, a censored cut — and
//! [`AdversaryProfile::compile`] lowers it onto a concrete
//! [`ScenarioInstance`] into the engine-level
//! [`gossip_sim::adversary::AdversaryPlan`], with the same ChaCha8 seed
//! discipline as [`crate::churn::FaultProfile::compile`] so every adversary
//! run stays bit-reproducible.  [`AggregationKind`] selects the update rule
//! the honest nodes defend with (vanilla vs the robust variants from
//! `gossip_core::robust`), and [`AdversaryCase`] pairs scenario, attack and
//! defense into one row of the adversary tier.

use crate::scenarios::{Scenario, ScenarioInstance};
use gossip_core::{MedianNeighborGossip, TrimmedMeanGossip, VanillaGossip};
use gossip_graph::NodeId;
use gossip_sim::adversary::AdversaryPlan;
use gossip_sim::EdgeTickHandler;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Salt for the node-selection stream, so picking *which* nodes misbehave
/// never correlates with the engine-level adversary stream seeded from the
/// same `seed`.
const SELECTION_SALT: u64 = 0xAD5E_C7ED;

/// A declarative attack, lowered to an [`AdversaryPlan`] per instance.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryProfile {
    /// No adversary: the control arm (compiles to [`AdversaryPlan::none`],
    /// which is byte-identical to running without a plan at all).
    None,
    /// A seeded-randomly chosen minority of `⌊n·fraction⌋` nodes (at least
    /// one, at most `n − 1`) reports values offset by `bias`.
    BiasedMinority {
        /// Fraction of nodes that misbehave, in `[0, 1)`.
        fraction: f64,
        /// Additive report offset.
        bias: f64,
    },
    /// `count` seeded-randomly chosen nodes report `±magnitude` outliers
    /// with seeded random signs.
    ExtremeOutliers {
        /// Number of misbehaving nodes (clamped to `n − 1`).
        count: usize,
        /// Absolute value of every falsified report.
        magnitude: f64,
    },
    /// `count` seeded-randomly chosen nodes replay their own value from
    /// `delay_ticks` global ticks ago.
    StaleReplay {
        /// Number of misbehaving nodes (clamped to `n − 1`).
        count: usize,
        /// Replay delay in global ticks.
        delay_ticks: u64,
    },
    /// Every cut edge of the instance's canonical partition is censored:
    /// each cross-cut contact is suppressed with probability `probability`,
    /// starving exactly the sparse cut the paper's analysis hinges on.
    CensoredCut {
        /// Per-contact suppression probability in `[0, 1]`.
        probability: f64,
    },
}

impl AdversaryProfile {
    /// A short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            AdversaryProfile::None => "none".to_string(),
            AdversaryProfile::BiasedMinority { fraction, bias } => {
                format!("biased-f{fraction:.2}-b{bias}")
            }
            AdversaryProfile::ExtremeOutliers { count, magnitude } => {
                format!("extreme-{count}x{magnitude}")
            }
            AdversaryProfile::StaleReplay { count, delay_ticks } => {
                format!("stale-{count}x{delay_ticks}t")
            }
            AdversaryProfile::CensoredCut { probability } => {
                format!("censored-cut-p{probability:.2}")
            }
        }
    }

    /// The run store's stable identity of this attack: every parameter at
    /// full precision (the display [`AdversaryProfile::name`] rounds
    /// fractions and probabilities to two decimals, which would alias
    /// distinct attacks in the journal).
    pub fn fingerprint(&self) -> String {
        match self {
            AdversaryProfile::None => "none".to_string(),
            AdversaryProfile::BiasedMinority { fraction, bias } => {
                format!("biased(fraction={fraction},bias={bias})")
            }
            AdversaryProfile::ExtremeOutliers { count, magnitude } => {
                format!("extreme(count={count},magnitude={magnitude})")
            }
            AdversaryProfile::StaleReplay { count, delay_ticks } => {
                format!("stale(count={count},delay={delay_ticks})")
            }
            AdversaryProfile::CensoredCut { probability } => {
                format!("censored-cut(p={probability})")
            }
        }
    }

    /// How many nodes misbehave on an `n`-node instance (`0` for profiles
    /// that only censor edges).  Always leaves at least one honest node, so
    /// the honest-subset drift oracle is well defined.
    pub fn adversary_count(&self, n: usize) -> usize {
        let cap = n.saturating_sub(1);
        match self {
            AdversaryProfile::None | AdversaryProfile::CensoredCut { .. } => 0,
            AdversaryProfile::BiasedMinority { fraction, .. } => {
                (((n as f64) * fraction).floor() as usize).clamp(1, cap.max(1))
            }
            AdversaryProfile::ExtremeOutliers { count, .. }
            | AdversaryProfile::StaleReplay { count, .. } => (*count).min(cap),
        }
    }

    /// The detection threshold the compiled plan flags falsified reports
    /// against: half the attack's static offset, where one exists.
    pub fn detection_threshold(&self) -> Option<f64> {
        match self {
            AdversaryProfile::BiasedMinority { bias, .. } => Some(bias.abs() / 2.0),
            AdversaryProfile::ExtremeOutliers { magnitude, .. } => Some(magnitude / 2.0),
            _ => None,
        }
    }

    /// Lowers the profile onto a concrete instance.  `seed` drives both the
    /// choice of misbehaving nodes (via a salted selection stream) and the
    /// engine-level adversary stream; the same `(profile, instance, seed)`
    /// triple always yields the same plan.
    pub fn compile(&self, instance: &ScenarioInstance, seed: u64) -> AdversaryPlan {
        let n = instance.graph.node_count();
        let chosen = |count: usize| -> Vec<NodeId> {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ SELECTION_SALT);
            let mut picked = BTreeSet::new();
            while picked.len() < count.min(n) {
                picked.insert(rng.gen_range(0..n));
            }
            picked.into_iter().map(NodeId).collect()
        };
        let plan = match self {
            AdversaryProfile::None => return AdversaryPlan::none(),
            AdversaryProfile::BiasedMinority { bias, .. } => chosen(self.adversary_count(n))
                .into_iter()
                .fold(AdversaryPlan::new(seed), |plan, node| {
                    plan.with_biased_injector(node, *bias)
                }),
            AdversaryProfile::ExtremeOutliers { magnitude, .. } => chosen(self.adversary_count(n))
                .into_iter()
                .fold(AdversaryPlan::new(seed), |plan, node| {
                    plan.with_extreme_value_node(node, *magnitude)
                }),
            AdversaryProfile::StaleReplay { delay_ticks, .. } => chosen(self.adversary_count(n))
                .into_iter()
                .fold(AdversaryPlan::new(seed), |plan, node| {
                    plan.with_stale_replay_node(node, *delay_ticks)
                }),
            AdversaryProfile::CensoredCut { probability } => AdversaryPlan::new(seed)
                .with_censoring_bridge(instance.partition.cut_edges().to_vec(), *probability),
        };
        match self.detection_threshold() {
            Some(threshold) => plan.with_detection_threshold(threshold),
            None => plan,
        }
    }
}

/// Which update rule the honest nodes run: the aggregation arm of an
/// adversary-tier row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationKind {
    /// Plain pairwise averaging (`gossip_core::convex::VanillaGossip`).
    Vanilla,
    /// Clamped-innovation trimmed-mean gossip
    /// (`gossip_core::robust::TrimmedMeanGossip` at the default radius).
    TrimmedMean,
    /// Median-of-neighbors gossip
    /// (`gossip_core::robust::MedianNeighborGossip`).
    MedianOfNeighbors,
}

impl AggregationKind {
    /// All variants, in table order.
    pub fn all() -> [AggregationKind; 3] {
        [
            AggregationKind::Vanilla,
            AggregationKind::TrimmedMean,
            AggregationKind::MedianOfNeighbors,
        ]
    }

    /// A short name used in experiment tables (matches the handlers' own
    /// [`EdgeTickHandler::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            AggregationKind::Vanilla => "vanilla",
            AggregationKind::TrimmedMean => "trimmed",
            AggregationKind::MedianOfNeighbors => "median",
        }
    }

    /// Whether the rule conserves total mass exactly — selects which drift
    /// oracle (`gossip_analysis::robust`) bounds the honest-subset mean:
    /// the per-capita falsification bound for conserving rules, the convex
    /// hull bound otherwise.
    pub fn is_mass_conserving(&self) -> bool {
        !matches!(self, AggregationKind::MedianOfNeighbors)
    }

    /// Builds the handler for an `n`-node instance.
    pub fn build(&self, nodes: usize) -> Box<dyn EdgeTickHandler + Send> {
        match self {
            AggregationKind::Vanilla => Box::new(VanillaGossip::new()),
            AggregationKind::TrimmedMean => Box::new(TrimmedMeanGossip::default_radius()),
            AggregationKind::MedianOfNeighbors => Box::new(MedianNeighborGossip::new(nodes)),
        }
    }
}

/// A scenario paired with an attack and a defense: one row of the adversary
/// tier.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryCase {
    /// The (static) graph family.
    pub scenario: Scenario,
    /// Who misbehaves and how.
    pub attack: AdversaryProfile,
    /// The update rule the honest nodes run.
    pub aggregation: AggregationKind,
}

impl AdversaryCase {
    /// Creates a case.
    pub fn new(scenario: Scenario, attack: AdversaryProfile, aggregation: AggregationKind) -> Self {
        AdversaryCase {
            scenario,
            attack,
            aggregation,
        }
    }

    /// A short name used in experiment tables: `scenario+attack+aggregation`.
    pub fn name(&self) -> String {
        format!(
            "{}+{}+{}",
            self.scenario.name(),
            self.attack.name(),
            self.aggregation.name()
        )
    }

    /// The run store's stable identity: `scenario+attack+aggregation` at
    /// full parameter fidelity (see [`Scenario::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!(
            "{}+{}+{}",
            self.scenario.fingerprint(),
            self.attack.fingerprint(),
            self.aggregation.name()
        )
    }
}

/// The adversary suite at a total size close to `total_nodes`: each of the
/// four attacks on the bounded-degree family it stresses most directly —
/// a biased minority on the well-mixed chordal ring, extreme outliers on the
/// expander dumbbell, stale replay on the expander barbell, and censorship
/// of the ring-of-cliques cut — crossed with **every** aggregation variant,
/// so each attack yields a vanilla-vs-robust comparison.
///
/// The stale-replay delay scales quadratically with `total_nodes` for the
/// same reason the churn windows do (`crate::churn::churn_suite`): these
/// families converge in Θ(n²·polylog) global ticks, so a linear delay would
/// be indistinguishable from honesty.
pub fn adversary_suite(total_nodes: usize) -> Vec<AdversaryCase> {
    let half = (total_nodes / 2).max(3);
    let left = (total_nodes / 3).max(3);
    let right = (total_nodes - left).max(3);
    let clique_size = 16;
    let cliques = (total_nodes / clique_size).max(2);
    let quad = ((total_nodes * total_nodes) as u64).max(256);
    let attacks = [
        (
            Scenario::ChordalRing {
                n: total_nodes.max(3),
            },
            AdversaryProfile::BiasedMinority {
                fraction: 0.1,
                bias: 10.0,
            },
        ),
        (
            Scenario::ExpanderDumbbell { half },
            AdversaryProfile::ExtremeOutliers {
                count: (total_nodes / 32).max(1),
                magnitude: 100.0,
            },
        ),
        (
            Scenario::ExpanderBarbell { left, right },
            AdversaryProfile::StaleReplay {
                count: (total_nodes / 32).max(1),
                delay_ticks: quad / 4,
            },
        ),
        (
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            },
            AdversaryProfile::CensoredCut { probability: 0.9 },
        ),
    ];
    attacks
        .into_iter()
        .flat_map(|(scenario, attack)| {
            AggregationKind::all().into_iter().map(move |aggregation| {
                AdversaryCase::new(scenario.clone(), attack.clone(), aggregation)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_are_distinct_and_parameterized() {
        let profiles = [
            AdversaryProfile::None,
            AdversaryProfile::BiasedMinority {
                fraction: 0.1,
                bias: 10.0,
            },
            AdversaryProfile::ExtremeOutliers {
                count: 2,
                magnitude: 100.0,
            },
            AdversaryProfile::StaleReplay {
                count: 2,
                delay_ticks: 500,
            },
            AdversaryProfile::CensoredCut { probability: 0.9 },
        ];
        let names: Vec<String> = profiles.iter().map(AdversaryProfile::name).collect();
        let unique: BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert_eq!(names[1], "biased-f0.10-b10");
        assert_eq!(names[4], "censored-cut-p0.90");
    }

    #[test]
    fn fingerprints_keep_full_precision_where_names_round() {
        let a = AdversaryProfile::BiasedMinority {
            fraction: 0.101,
            bias: 10.0,
        };
        let b = AdversaryProfile::BiasedMinority {
            fraction: 0.102,
            bias: 10.0,
        };
        assert_eq!(a.name(), b.name(), "display names round to 2 decimals");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), "biased(fraction=0.101,bias=10)");
        let case = AdversaryCase::new(
            Scenario::ChordalRing { n: 96 },
            a,
            AggregationKind::TrimmedMean,
        );
        assert_eq!(
            case.fingerprint(),
            "chordring(n=96)+biased(fraction=0.101,bias=10)+trimmed"
        );
    }

    #[test]
    fn none_profile_compiles_to_the_empty_plan() {
        let instance = Scenario::Dumbbell { half: 4 }.instantiate(1).unwrap();
        let plan = AdversaryProfile::None.compile(&instance, 9);
        assert!(plan.is_empty());
        assert_eq!(plan, AdversaryPlan::none());
        assert_eq!(AdversaryProfile::None.adversary_count(8), 0);
    }

    #[test]
    fn biased_minority_selects_a_seeded_fraction() {
        let instance = Scenario::ChordalRing { n: 40 }.instantiate(3).unwrap();
        let profile = AdversaryProfile::BiasedMinority {
            fraction: 0.1,
            bias: 5.0,
        };
        let a = profile.compile(&instance, 21);
        let b = profile.compile(&instance, 21);
        assert_eq!(a, b);
        assert_ne!(a, profile.compile(&instance, 22));
        assert_eq!(a.adversarial_nodes().len(), 4);
        assert_eq!(profile.adversary_count(40), 4);
        assert_eq!(a.detection_threshold, Some(2.5));
        assert!(a.validate(&instance.graph).is_ok());
        // Even a tiny graph keeps one honest node and one adversary.
        assert_eq!(profile.adversary_count(2), 1);
    }

    #[test]
    fn censored_cut_covers_exactly_the_cut_edges() {
        let instance = Scenario::RingOfCliques {
            cliques: 4,
            clique_size: 4,
        }
        .instantiate(1)
        .unwrap();
        let profile = AdversaryProfile::CensoredCut { probability: 0.9 };
        let plan = profile.compile(&instance, 3);
        assert_eq!(plan.censors.len(), 1);
        assert_eq!(plan.censors[0].edges, instance.partition.cut_edges());
        assert_eq!(plan.censors[0].probability, 0.9);
        assert!(plan.adversarial_nodes().is_empty());
        assert!(plan.validate(&instance.graph).is_ok());
    }

    #[test]
    fn aggregation_kinds_build_matching_handlers() {
        for kind in AggregationKind::all() {
            let handler = kind.build(8);
            assert_eq!(handler.name(), kind.name());
        }
        assert!(AggregationKind::Vanilla.is_mass_conserving());
        assert!(AggregationKind::TrimmedMean.is_mass_conserving());
        assert!(!AggregationKind::MedianOfNeighbors.is_mass_conserving());
    }

    #[test]
    fn adversary_suite_cases_instantiate_and_compile() {
        let suite = adversary_suite(96);
        assert_eq!(suite.len(), 12);
        let mut names = BTreeSet::new();
        let mut attacks = BTreeSet::new();
        for case in &suite {
            let instance = case.scenario.instantiate(7).unwrap();
            instance.validate_notation1().unwrap();
            let plan = case.attack.compile(&instance, 11);
            plan.validate(&instance.graph).unwrap();
            assert!(!plan.is_empty(), "{} compiled to a no-op plan", case.name());
            assert!(
                case.attack.adversary_count(instance.graph.node_count())
                    < instance.graph.node_count(),
                "at least one honest node must remain"
            );
            assert!(names.insert(case.name()), "duplicate case name");
            attacks.insert(case.attack.name());
        }
        // Every attack appears with every aggregation variant.
        assert_eq!(attacks.len(), 4);
    }
}
