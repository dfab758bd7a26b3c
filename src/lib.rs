//! # sparse-cut-gossip
//!
//! A reproduction of **“Distributed averaging in the presence of a sparse
//! cut”** (Hariharan Narayanan, PODC 2008) as a Rust workspace: an
//! asynchronous edge-clock gossip simulator, the paper's convex class `C` and
//! non-convex **Algorithm A**, the related-work baselines, an empirical
//! averaging-time estimator implementing Definition 1, and an experiment
//! harness that regenerates every quantitative claim of the paper.
//!
//! This crate is a façade: it re-exports the member crates under stable
//! module names so that downstream users can depend on a single package.
//!
//! ```
//! use sparse_cut_gossip::prelude::*;
//!
//! // Build the paper's dumbbell graph and run Algorithm A on it.
//! let (graph, partition) = dumbbell(16)?;
//! let algorithm =
//!     SparseCutAlgorithm::from_partition(&graph, &partition, SparseCutConfig::default())?;
//! let initial = AveragingTimeEstimator::adversarial_initial(&partition);
//! let config = SimulationConfig::new(1)
//!     .with_stopping_rule(StoppingRule::definition1().or_max_time(10_000.0));
//! let mut simulator = AsyncSimulator::new(&graph, initial, algorithm, config)?;
//! let outcome = simulator.run()?;
//! assert!(outcome.converged());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Statistical analysis utilities (re-export of `gossip-analysis`).
pub use gossip_analysis as analysis;
/// The paper's algorithms, estimator, and bounds (re-export of `gossip-core`).
pub use gossip_core as core;
/// Deterministic parallel run executor (re-export of `gossip-exec`).
pub use gossip_exec as exec;
/// Graph substrate (re-export of `gossip-graph`).
pub use gossip_graph as graph;
/// Dense linear algebra (re-export of `gossip-linalg`).
pub use gossip_linalg as linalg;
/// Asynchronous simulator (re-export of `gossip-sim`).
pub use gossip_sim as sim;
/// Workload definitions (re-export of `gossip-workloads`).
pub use gossip_workloads as workloads;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use gossip_core::averaging_time::{
        AveragingTimeEstimate, AveragingTimeEstimator, EstimatorConfig,
    };
    pub use gossip_core::bounds::{theorem1_lower_bound, theorem2_upper_bound, BoundsSummary};
    pub use gossip_core::convex::{RandomNeighborGossip, VanillaGossip, WeightedConvexGossip};
    pub use gossip_core::diffusion::{FirstOrderDiffusion, SecondOrderDiffusion};
    pub use gossip_core::robust::{MedianNeighborGossip, TrimmedMeanGossip};
    pub use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig, TransferCoefficient};
    pub use gossip_core::two_time_scale::TwoTimeScaleGossip;
    pub use gossip_exec::Executor;
    pub use gossip_graph::dynamic::DynamicGraphView;
    pub use gossip_graph::generators::{
        barbell, bridged_clusters, chordal_ring, complete, dumbbell, expander_barbell,
        expander_dumbbell, grid_corridor, ring_of_cliques, two_block_sbm,
    };
    pub use gossip_graph::spectral::{SpectralProfile, SPARSE_DISPATCH_THRESHOLD};
    pub use gossip_graph::{Edge, EdgeId, Graph, GraphBuilder, NodeId, Partition};
    pub use gossip_linalg::{CsrMatrix, Lanczos, LinearOperator, Matrix, Vector};
    pub use gossip_sim::adversary::{AdversaryPlan, AdversaryStats};
    pub use gossip_sim::engine::{
        AsyncSimulator, ClockModel, SimulationConfig, SimulationOutcome, VarianceMode,
        DEFAULT_MOMENT_REFRESH_TICKS,
    };
    pub use gossip_sim::fault::{FaultPlan, FaultStats};
    pub use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler};
    pub use gossip_sim::moments::MomentTracker;
    pub use gossip_sim::stopping::StoppingRule;
    pub use gossip_sim::sync::{RoundHandler, SyncConfig, SyncSimulator};
    pub use gossip_sim::trace::{Trace, TraceConfig};
    pub use gossip_sim::values::NodeValues;
    pub use gossip_workloads::adversary::{
        adversary_suite, AdversaryCase, AdversaryProfile, AggregationKind,
    };
    pub use gossip_workloads::churn::{churn_suite, ChurnCase, FaultProfile};
    pub use gossip_workloads::{ExperimentId, InitialCondition, Scenario};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let (graph, partition) = dumbbell(4).unwrap();
        let initial = InitialCondition::AdversarialCut
            .generate(graph.node_count(), Some(&partition), 0)
            .unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_time(5_000.0));
        let mut sim = AsyncSimulator::new(&graph, initial, VanillaGossip::new(), config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!(theorem1_lower_bound(&partition) > 0.0);
    }
}
