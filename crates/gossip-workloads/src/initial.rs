//! Initial value distributions.
//!
//! The paper's lower bound is proved for a specific adversarial vector (`+1`
//! on `V₁`, `−n₁/n₂` on `V₂`); the experiments also exercise benign inputs
//! (spikes, uniform noise, smooth fields) to show that the sparse-cut effect
//! is about worst-case inputs aligned with the cut, not an artefact of one
//! vector.

use crate::{Result, WorkloadError};
use gossip_core::AveragingTimeEstimator;
use gossip_graph::Partition;
use gossip_sim::values::NodeValues;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A recipe for the initial node values.
#[derive(Debug, Clone, PartialEq)]
pub enum InitialCondition {
    /// The Section 2 adversarial vector: `+1` on block one, `−n₁/n₂` on block
    /// two (zero mean).  Requires a partition.
    AdversarialCut,
    /// All mass on a single node: `n` at node `spike_at`, zero elsewhere.
    Spike {
        /// Index of the node holding the mass.
        spike_at: usize,
    },
    /// Independent uniform values in `[lo, hi]`.
    Uniform {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// Independent Gaussian values (Box–Muller from the seeded stream).
    Gaussian {
        /// Mean of each value.
        mean: f64,
        /// Standard deviation of each value.
        std: f64,
    },
    /// A smooth linear field: node `i` holds `i / (n − 1)` (or 0 when n = 1).
    LinearField,
    /// An explicit vector (must match the node count).
    Explicit(Vec<f64>),
}

impl InitialCondition {
    /// Generates the initial values for a graph on `n` nodes.
    ///
    /// `partition` is required for [`InitialCondition::AdversarialCut`] and
    /// ignored otherwise.  `seed` drives the random variants.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for inconsistent
    /// parameters (missing partition, spike index out of range, invalid
    /// ranges, explicit vector of the wrong length).
    pub fn generate(
        &self,
        n: usize,
        partition: Option<&Partition>,
        seed: u64,
    ) -> Result<NodeValues> {
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: "initial condition requires at least one node".into(),
            });
        }
        let values: Vec<f64> = match self {
            InitialCondition::AdversarialCut => {
                let partition = partition.ok_or_else(|| WorkloadError::InvalidParameter {
                    reason: "adversarial initial condition requires a partition".into(),
                })?;
                if partition.node_count() != n {
                    return Err(WorkloadError::InvalidParameter {
                        reason: format!(
                            "partition covers {} nodes but the graph has {n}",
                            partition.node_count()
                        ),
                    });
                }
                return Ok(AveragingTimeEstimator::adversarial_initial(partition));
            }
            InitialCondition::Spike { spike_at } => {
                if *spike_at >= n {
                    return Err(WorkloadError::InvalidParameter {
                        reason: format!("spike node {spike_at} out of range for {n} nodes"),
                    });
                }
                let mut v = vec![0.0; n];
                v[*spike_at] = n as f64;
                v
            }
            InitialCondition::Uniform { lo, hi } => {
                if !lo.is_finite() || !hi.is_finite() || *lo >= *hi {
                    return Err(WorkloadError::InvalidParameter {
                        reason: format!("invalid uniform range [{lo}, {hi}]"),
                    });
                }
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..n).map(|_| rng.gen_range(*lo..*hi)).collect()
            }
            InitialCondition::Gaussian { mean, std } => {
                if !(std.is_finite() && *std >= 0.0 && mean.is_finite()) {
                    return Err(WorkloadError::InvalidParameter {
                        reason: format!("invalid gaussian parameters mean = {mean}, std = {std}"),
                    });
                }
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                (0..n)
                    .map(|_| {
                        // Box–Muller transform.
                        let u1: f64 = rng.gen::<f64>().max(1e-300);
                        let u2: f64 = rng.gen();
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        mean + std * z
                    })
                    .collect()
            }
            InitialCondition::LinearField => {
                if n == 1 {
                    vec![0.0]
                } else {
                    (0..n).map(|i| i as f64 / (n - 1) as f64).collect()
                }
            }
            InitialCondition::Explicit(values) => {
                if values.len() != n {
                    return Err(WorkloadError::InvalidParameter {
                        reason: format!(
                            "explicit initial condition has {} entries for {n} nodes",
                            values.len()
                        ),
                    });
                }
                values.clone()
            }
        };
        Ok(NodeValues::from_values(values)?)
    }

    /// A short name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            InitialCondition::AdversarialCut => "adversarial-cut",
            InitialCondition::Spike { .. } => "spike",
            InitialCondition::Uniform { .. } => "uniform",
            InitialCondition::Gaussian { .. } => "gaussian",
            InitialCondition::LinearField => "linear-field",
            InitialCondition::Explicit(_) => "explicit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::dumbbell;

    #[test]
    fn adversarial_requires_matching_partition() {
        let (_, p) = dumbbell(4).unwrap();
        let v = InitialCondition::AdversarialCut
            .generate(8, Some(&p), 0)
            .unwrap();
        assert!(v.mean().abs() < 1e-12);
        assert_eq!(v.get(gossip_graph::NodeId(0)), 1.0);
        assert_eq!(v.get(gossip_graph::NodeId(7)), -1.0);
        assert!(InitialCondition::AdversarialCut
            .generate(8, None, 0)
            .is_err());
        assert!(InitialCondition::AdversarialCut
            .generate(9, Some(&p), 0)
            .is_err());
    }

    #[test]
    fn spike_and_linear_field() {
        let v = InitialCondition::Spike { spike_at: 2 }
            .generate(5, None, 0)
            .unwrap();
        assert_eq!(v.get(gossip_graph::NodeId(2)), 5.0);
        assert!((v.sum() - 5.0).abs() < 1e-12);
        assert!(InitialCondition::Spike { spike_at: 5 }
            .generate(5, None, 0)
            .is_err());

        let f = InitialCondition::LinearField.generate(5, None, 0).unwrap();
        assert_eq!(f.get(gossip_graph::NodeId(0)), 0.0);
        assert_eq!(f.get(gossip_graph::NodeId(4)), 1.0);
        assert_eq!(
            InitialCondition::LinearField
                .generate(1, None, 0)
                .unwrap()
                .as_slice(),
            &[0.0]
        );
    }

    #[test]
    fn uniform_and_gaussian_are_seeded_and_validated() {
        let a = InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
            .generate(50, None, 7)
            .unwrap();
        let b = InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
            .generate(50, None, 7)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.min().unwrap() >= -1.0 && a.max().unwrap() <= 1.0);
        let c = InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
            .generate(50, None, 8)
            .unwrap();
        assert_ne!(a, c);
        assert!(InitialCondition::Uniform { lo: 1.0, hi: 1.0 }
            .generate(5, None, 0)
            .is_err());

        let g = InitialCondition::Gaussian {
            mean: 2.0,
            std: 0.5,
        }
        .generate(2000, None, 3)
        .unwrap();
        assert!((g.mean() - 2.0).abs() < 0.1);
        assert!((g.variance().sqrt() - 0.5).abs() < 0.05);
        assert!(InitialCondition::Gaussian {
            mean: 0.0,
            std: -1.0
        }
        .generate(5, None, 0)
        .is_err());
    }

    #[test]
    fn explicit_validated() {
        let v = InitialCondition::Explicit(vec![1.0, 2.0])
            .generate(2, None, 0)
            .unwrap();
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
        assert!(InitialCondition::Explicit(vec![1.0])
            .generate(2, None, 0)
            .is_err());
        assert!(InitialCondition::LinearField.generate(0, None, 0).is_err());
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let conditions = [
            InitialCondition::AdversarialCut,
            InitialCondition::Spike { spike_at: 0 },
            InitialCondition::Uniform { lo: 0.0, hi: 1.0 },
            InitialCondition::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            InitialCondition::LinearField,
            InitialCondition::Explicit(vec![]),
        ];
        let names: std::collections::BTreeSet<&str> = conditions.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), conditions.len());
    }
}
