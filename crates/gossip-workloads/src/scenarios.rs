//! Named sparse-cut scenarios.
//!
//! A [`Scenario`] is a declarative description of a graph family with a
//! sparse cut; [`Scenario::instantiate`] materializes it reproducibly (the
//! random families from a seed) into a [`ScenarioInstance`] carrying the
//! graph, its canonical partition, and a human-readable name for experiment
//! tables.

use crate::{Result, WorkloadError};
use gossip_graph::generators;
use gossip_graph::{Graph, Partition};

/// A declarative description of a sparse-cut workload graph.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Two cliques `K_half` joined by one bridge edge (the paper's example).
    Dumbbell {
        /// Nodes per clique.
        half: usize,
    },
    /// Two cliques of different sizes joined by one bridge edge.
    Barbell {
        /// Nodes in the left clique.
        left: usize,
        /// Nodes in the right clique.
        right: usize,
    },
    /// Two connected Erdős–Rényi clusters joined by `bridges` edges.
    BridgedClusters {
        /// Nodes in the first cluster.
        n1: usize,
        /// Nodes in the second cluster.
        n2: usize,
        /// Number of bridge edges.
        bridges: usize,
        /// Within-cluster edge probability.
        p: f64,
    },
    /// A two-block stochastic block model.
    TwoBlockSbm {
        /// Nodes in the first block.
        n1: usize,
        /// Nodes in the second block.
        n2: usize,
        /// Within-block edge probability.
        p_in: f64,
        /// Cross-block edge probability.
        p_out: f64,
    },
    /// Two grids connected by a narrow corridor.
    GridCorridor {
        /// Rows per grid.
        rows: usize,
        /// Columns per grid.
        cols: usize,
        /// Number of corridor edges (≤ rows).
        corridor_width: usize,
    },
    /// Scaling-tier dumbbell: two bounded-degree chordal-ring expanders
    /// joined by one bridge edge (O(n log n) edges instead of the clique
    /// dumbbell's O(n²)).
    ExpanderDumbbell {
        /// Nodes per block.
        half: usize,
    },
    /// Asymmetric scaling-tier dumbbell.
    ExpanderBarbell {
        /// Nodes in the left block.
        left: usize,
        /// Nodes in the right block.
        right: usize,
    },
    /// A ring of cliques, cut into two contiguous arcs (cut width exactly 2).
    RingOfCliques {
        /// Number of cliques on the ring.
        cliques: usize,
        /// Nodes per clique.
        clique_size: usize,
    },
    /// A single chordal ring (cycle plus power-of-two chords) — the scaling
    /// tier's bounded-degree expander building block, *without* a sparse
    /// cut.  The canonical partition splits it into two contiguous arcs,
    /// which gives the simulation tier a well-mixed adversarial initial
    /// condition that still stops in O(T_van) time.
    ChordalRing {
        /// Number of nodes.
        n: usize,
    },
}

impl Scenario {
    /// Builds the graph and its canonical partition.
    ///
    /// Only [`Scenario::BridgedClusters`] and [`Scenario::TwoBlockSbm`] read
    /// `seed`: they draw their random edges from it.  Every other family is
    /// a fixed construction and builds the same graph at every seed, so a
    /// caller's seed reaches only what the caller seeds itself (initial
    /// values, clocks).  The instance records `seed` either way.
    ///
    /// # Errors
    ///
    /// Propagates generator parameter errors.
    pub fn instantiate(&self, seed: u64) -> Result<ScenarioInstance> {
        let (graph, partition) = match self {
            Scenario::Dumbbell { half } => generators::dumbbell(*half)?,
            Scenario::Barbell { left, right } => generators::barbell(*left, *right)?,
            Scenario::BridgedClusters { n1, n2, bridges, p } => {
                generators::bridged_clusters(*n1, *n2, *bridges, *p, seed)?
            }
            Scenario::TwoBlockSbm {
                n1,
                n2,
                p_in,
                p_out,
            } => generators::two_block_sbm(*n1, *n2, *p_in, *p_out, seed)?,
            Scenario::GridCorridor {
                rows,
                cols,
                corridor_width,
            } => generators::grid_corridor(*rows, *cols, *corridor_width)?,
            Scenario::ExpanderDumbbell { half } => generators::expander_dumbbell(*half)?,
            Scenario::ExpanderBarbell { left, right } => {
                generators::expander_barbell(*left, *right)?
            }
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            } => generators::ring_of_cliques(*cliques, *clique_size)?,
            Scenario::ChordalRing { n } => {
                let graph = generators::chordal_ring(*n)?;
                let arc: Vec<gossip_graph::NodeId> = (0..n / 2).map(gossip_graph::NodeId).collect();
                let partition = Partition::from_block_one(&graph, &arc)?;
                (graph, partition)
            }
        };
        Ok(ScenarioInstance {
            name: self.name(),
            seed,
            graph,
            partition,
        })
    }

    /// A short name used in experiment tables.
    pub fn name(&self) -> String {
        match self {
            Scenario::Dumbbell { half } => format!("dumbbell-{half}"),
            Scenario::Barbell { left, right } => format!("barbell-{left}-{right}"),
            Scenario::BridgedClusters {
                n1, n2, bridges, ..
            } => {
                format!("bridged-{n1}-{n2}-b{bridges}")
            }
            Scenario::TwoBlockSbm { n1, n2, .. } => format!("sbm-{n1}-{n2}"),
            Scenario::GridCorridor {
                rows,
                cols,
                corridor_width,
            } => format!("grid-corridor-{rows}x{cols}-w{corridor_width}"),
            Scenario::ExpanderDumbbell { half } => format!("xdumbbell-{half}"),
            Scenario::ExpanderBarbell { left, right } => format!("xbarbell-{left}-{right}"),
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            } => format!("cliquering-{cliques}x{clique_size}"),
            Scenario::ChordalRing { n } => format!("chordring-{n}"),
        }
    }

    /// The run store's stable identity of this scenario: the family name
    /// followed by **every** generator parameter as `key=value`, floats
    /// rendered with Rust's shortest-round-trip `{}` formatting.
    ///
    /// Unlike [`Scenario::name`] — a display label that drops the float
    /// parameters (`sbm-500-500` says nothing about `p_in`/`p_out`) — the
    /// fingerprint distinguishes any two scenarios that could instantiate
    /// different graphs, because it feeds the journal's trial key: two
    /// scenarios with equal fingerprints *must* be interchangeable.  The
    /// text before the first `(` is the family grouping key of the store's
    /// `--store-summary` listing.
    pub fn fingerprint(&self) -> String {
        match self {
            Scenario::Dumbbell { half } => format!("dumbbell(half={half})"),
            Scenario::Barbell { left, right } => format!("barbell(left={left},right={right})"),
            Scenario::BridgedClusters { n1, n2, bridges, p } => {
                format!("bridged(n1={n1},n2={n2},bridges={bridges},p={p})")
            }
            Scenario::TwoBlockSbm {
                n1,
                n2,
                p_in,
                p_out,
            } => format!("sbm(n1={n1},n2={n2},p_in={p_in},p_out={p_out})"),
            Scenario::GridCorridor {
                rows,
                cols,
                corridor_width,
            } => format!("grid-corridor(rows={rows},cols={cols},width={corridor_width})"),
            Scenario::ExpanderDumbbell { half } => format!("xdumbbell(half={half})"),
            Scenario::ExpanderBarbell { left, right } => {
                format!("xbarbell(left={left},right={right})")
            }
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            } => format!("cliquering(cliques={cliques},size={clique_size})"),
            Scenario::ChordalRing { n } => format!("chordring(n={n})"),
        }
    }

    /// Total number of nodes the instantiated graph will have.
    pub fn node_count(&self) -> usize {
        match self {
            Scenario::Dumbbell { half } => 2 * half,
            Scenario::Barbell { left, right } => left + right,
            Scenario::BridgedClusters { n1, n2, .. } => n1 + n2,
            Scenario::TwoBlockSbm { n1, n2, .. } => n1 + n2,
            Scenario::GridCorridor { rows, cols, .. } => 2 * rows * cols,
            Scenario::ExpanderDumbbell { half } => 2 * half,
            Scenario::ExpanderBarbell { left, right } => left + right,
            Scenario::RingOfCliques {
                cliques,
                clique_size,
            } => cliques * clique_size,
            Scenario::ChordalRing { n } => *n,
        }
    }
}

/// A materialized scenario.
#[derive(Debug, Clone)]
pub struct ScenarioInstance {
    /// Scenario name (from [`Scenario::name`]).
    pub name: String,
    /// Seed used to instantiate the scenario.
    pub seed: u64,
    /// The graph.
    pub graph: Graph,
    /// The canonical sparse-cut partition.
    pub partition: Partition,
}

impl ScenarioInstance {
    /// Validates that the instance satisfies the paper's Notation 1
    /// (connected graph, both blocks internally connected, non-empty cut).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] describing the violated
    /// requirement.
    pub fn validate_notation1(&self) -> Result<()> {
        if !gossip_graph::traversal::is_connected(&self.graph) {
            return Err(WorkloadError::InvalidParameter {
                reason: format!("scenario {} is not connected", self.name),
            });
        }
        if self.partition.cut_edge_count() == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!("scenario {} has an empty cut", self.name),
            });
        }
        self.partition
            .require_blocks_connected(&self.graph)
            .map_err(|_| WorkloadError::InvalidParameter {
                reason: format!("scenario {} has a disconnected block", self.name),
            })
    }
}

/// The standard collection of scenarios used by experiment E8 (robustness
/// beyond the clean dumbbell), at a size comparable to `total_nodes`.
pub fn robustness_suite(total_nodes: usize) -> Vec<Scenario> {
    let half = (total_nodes / 2).max(4);
    let other = total_nodes - half;
    // Aim for roughly three cross-block edges in the SBM so the cut stays
    // sparse at every suite size.
    let p_out = (3.0 / (half * other) as f64).min(0.5);
    vec![
        Scenario::Dumbbell { half },
        Scenario::BridgedClusters {
            n1: half,
            n2: other,
            bridges: 2,
            p: 0.4,
        },
        Scenario::TwoBlockSbm {
            n1: half,
            n2: other,
            p_in: 0.5,
            p_out,
        },
        Scenario::GridCorridor {
            rows: 4,
            cols: (half / 4).max(2),
            corridor_width: 1,
        },
    ]
}

/// The scaling-tier scenario suite at a total size close to `total_nodes`:
/// one bounded-degree representative per family (expander dumbbell, expander
/// barbell, ring of cliques, sensor-grid corridor), so every member has
/// O(n log n) edges and can be pushed to tens of thousands of nodes.
pub fn scale_suite(total_nodes: usize) -> Vec<Scenario> {
    let half = (total_nodes / 2).max(3);
    let left = (total_nodes / 3).max(3);
    let right = (total_nodes - left).max(3);
    let clique_size = 16;
    let cliques = (total_nodes / clique_size).max(2);
    // Sensor grid: two rows×cols grids with rows·cols ≈ total/2, rows ≈ cols.
    let side = (total_nodes / 2).max(4);
    let rows = (side as f64).sqrt().round().max(2.0) as usize;
    let cols = (side / rows).max(2);
    vec![
        Scenario::ExpanderDumbbell { half },
        Scenario::ExpanderBarbell { left, right },
        Scenario::RingOfCliques {
            cliques,
            clique_size,
        },
        Scenario::GridCorridor {
            rows,
            cols,
            corridor_width: 1,
        },
    ]
}

/// The **simulation** scaling-tier suite at a total size close to
/// `total_nodes`: the bounded-degree families whose asynchronous relaxation
/// is feasible at tens of thousands of nodes — a plain chordal ring (no
/// sparse cut, so the arc-adversarial initial condition relaxes in O(T_van)
/// time) plus the three sparse-cut families (expander dumbbell, expander
/// barbell, ring of cliques).  Grid corridors are deliberately excluded:
/// their diffusive O(side²) mixing would dominate the tier's wall clock
/// without exercising anything new.
pub fn sim_scale_suite(total_nodes: usize) -> Vec<Scenario> {
    let half = (total_nodes / 2).max(3);
    let left = (total_nodes / 3).max(3);
    let right = (total_nodes - left).max(3);
    let clique_size = 16;
    let cliques = (total_nodes / clique_size).max(2);
    vec![
        Scenario::ChordalRing {
            n: total_nodes.max(3),
        },
        Scenario::ExpanderDumbbell { half },
        Scenario::ExpanderBarbell { left, right },
        Scenario::RingOfCliques {
            cliques,
            clique_size,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_instantiate_and_satisfy_notation1() {
        let scenarios = vec![
            Scenario::Dumbbell { half: 6 },
            Scenario::Barbell { left: 4, right: 9 },
            Scenario::BridgedClusters {
                n1: 8,
                n2: 10,
                bridges: 3,
                p: 0.5,
            },
            Scenario::TwoBlockSbm {
                n1: 8,
                n2: 10,
                p_in: 0.7,
                p_out: 0.05,
            },
            Scenario::GridCorridor {
                rows: 3,
                cols: 4,
                corridor_width: 2,
            },
            Scenario::ExpanderDumbbell { half: 12 },
            Scenario::ExpanderBarbell { left: 8, right: 15 },
            Scenario::RingOfCliques {
                cliques: 4,
                clique_size: 5,
            },
            Scenario::ChordalRing { n: 24 },
        ];
        for scenario in scenarios {
            let instance = scenario.instantiate(42).unwrap();
            assert_eq!(instance.graph.node_count(), scenario.node_count());
            assert!(!instance.name.is_empty());
            assert_eq!(instance.seed, 42);
            instance.validate_notation1().unwrap();
        }
    }

    #[test]
    fn invalid_scenarios_propagate_errors() {
        assert!(Scenario::Dumbbell { half: 1 }.instantiate(0).is_err());
        assert!(Scenario::BridgedClusters {
            n1: 0,
            n2: 5,
            bridges: 1,
            p: 0.5
        }
        .instantiate(0)
        .is_err());
        assert!(Scenario::GridCorridor {
            rows: 3,
            cols: 3,
            corridor_width: 9
        }
        .instantiate(0)
        .is_err());
    }

    #[test]
    fn names_include_parameters() {
        assert_eq!(Scenario::Dumbbell { half: 16 }.name(), "dumbbell-16");
        assert_eq!(
            Scenario::GridCorridor {
                rows: 4,
                cols: 5,
                corridor_width: 2
            }
            .name(),
            "grid-corridor-4x5-w2"
        );
        assert!(Scenario::TwoBlockSbm {
            n1: 3,
            n2: 4,
            p_in: 0.5,
            p_out: 0.1
        }
        .name()
        .contains("sbm"));
    }

    #[test]
    fn fingerprints_carry_every_parameter() {
        // The float parameters name() drops must appear in the fingerprint,
        // at full (round-trip) precision.
        assert_eq!(
            Scenario::TwoBlockSbm {
                n1: 8,
                n2: 10,
                p_in: 0.7,
                p_out: 0.0512345678901
            }
            .fingerprint(),
            "sbm(n1=8,n2=10,p_in=0.7,p_out=0.0512345678901)"
        );
        assert_eq!(
            Scenario::BridgedClusters {
                n1: 8,
                n2: 10,
                bridges: 3,
                p: 0.5
            }
            .fingerprint(),
            "bridged(n1=8,n2=10,bridges=3,p=0.5)"
        );
        assert_eq!(
            Scenario::ChordalRing { n: 1000 }.fingerprint(),
            "chordring(n=1000)"
        );
        // Scenarios equal in name() but different in parameters must differ
        // in fingerprint.
        let a = Scenario::TwoBlockSbm {
            n1: 8,
            n2: 10,
            p_in: 0.7,
            p_out: 0.05,
        };
        let b = Scenario::TwoBlockSbm {
            n1: 8,
            n2: 10,
            p_in: 0.7,
            p_out: 0.06,
        };
        assert_eq!(a.name(), b.name());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn seeded_random_scenarios_are_reproducible() {
        let s = Scenario::BridgedClusters {
            n1: 10,
            n2: 12,
            bridges: 2,
            p: 0.4,
        };
        let a = s.instantiate(7).unwrap();
        let b = s.instantiate(7).unwrap();
        assert_eq!(a.graph, b.graph);
        let c = s.instantiate(8).unwrap();
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn scale_suite_members_are_sparse_and_valid() {
        let suite = scale_suite(480);
        assert_eq!(suite.len(), 4);
        for scenario in suite {
            let instance = scenario.instantiate(13).unwrap();
            instance.validate_notation1().unwrap();
            // Bounded-degree families: far fewer edges than a clique pair.
            let n = instance.graph.node_count() as f64;
            assert!(
                (instance.graph.edge_count() as f64) < n * n.log2(),
                "{} is too dense for the scale tier",
                instance.name
            );
            // Sizes land near the requested total.
            assert!(instance.graph.node_count() >= 240);
            assert!(instance.graph.node_count() <= 520);
        }
    }

    #[test]
    fn scale_scenario_names_are_distinct() {
        assert_eq!(
            Scenario::ExpanderDumbbell { half: 500 }.name(),
            "xdumbbell-500"
        );
        assert_eq!(
            Scenario::ExpanderBarbell {
                left: 300,
                right: 700
            }
            .name(),
            "xbarbell-300-700"
        );
        assert_eq!(
            Scenario::RingOfCliques {
                cliques: 62,
                clique_size: 16
            }
            .name(),
            "cliquering-62x16"
        );
    }

    #[test]
    fn chordal_ring_scenario_has_arc_partition() {
        let scenario = Scenario::ChordalRing { n: 40 };
        assert_eq!(scenario.name(), "chordring-40");
        assert_eq!(scenario.node_count(), 40);
        let instance = scenario.instantiate(3).unwrap();
        instance.validate_notation1().unwrap();
        assert_eq!(instance.partition.block_one_size(), 20);
        // The arcs are NOT a sparse cut: the chords cross freely.
        assert!(instance.partition.cut_edge_count() >= 2);
    }

    #[test]
    fn sim_scale_suite_members_are_sparse_and_valid() {
        let suite = sim_scale_suite(480);
        assert_eq!(suite.len(), 4);
        assert!(matches!(suite[0], Scenario::ChordalRing { .. }));
        for scenario in suite {
            let instance = scenario.instantiate(19).unwrap();
            instance.validate_notation1().unwrap();
            let n = instance.graph.node_count() as f64;
            assert!(
                (instance.graph.edge_count() as f64) < n * n.log2(),
                "{} is too dense for the sim scale tier",
                instance.name
            );
            assert!(instance.graph.node_count() >= 240);
            assert!(instance.graph.node_count() <= 520);
        }
    }

    #[test]
    fn robustness_suite_is_valid() {
        let suite = robustness_suite(24);
        assert_eq!(suite.len(), 4);
        for scenario in suite {
            let instance = scenario.instantiate(11).unwrap();
            instance.validate_notation1().unwrap();
            assert!(instance.partition.cut_edge_count() >= 1);
        }
    }
}
