//! Gossip averaging algorithms from *Distributed averaging in the presence of
//! a sparse cut* (Narayanan, PODC 2008), together with the baselines it is
//! compared against, an empirical averaging-time estimator implementing the
//! paper's Definition 1, and the theoretical bounds of Theorems 1 and 2.
//!
//! # The algorithm families
//!
//! * [`convex`] — the class `C` of convex pairwise updates
//!   (`x_i ← αx_i + (1−α)x_j` with `α ∈ [0,1]`): [`convex::VanillaGossip`]
//!   (α = ½), [`convex::WeightedConvexGossip`], and
//!   [`convex::RandomNeighborGossip`] (the node-clock natural-random-walk
//!   gossip of Boyd et al., expressed in the edge-clock model).  Theorem 1
//!   lower-bounds every member of this class by `Ω(min(n₁,n₂)/|E₁₂|)` on a
//!   graph with a sparse cut.
//! * [`sparse_cut`] — the paper's non-convex **Algorithm A**
//!   ([`sparse_cut::SparseCutAlgorithm`]): vanilla averaging inside each
//!   block, all cut edges frozen except one designated edge `e_c`, and every
//!   `⌈C(T_van(G₁)+T_van(G₂))·ln n⌉`-th tick of `e_c` performs a large
//!   non-convex mass transfer across the cut.  Theorem 2 upper-bounds its
//!   averaging time by `O(log n · (T_van(G₁)+T_van(G₂)))`.
//! * [`robust`] — outlier-resistant aggregation for Byzantine environments:
//!   [`robust::TrimmedMeanGossip`] (clamped innovations, mass-conserving)
//!   and
//!   [`robust::MedianNeighborGossip`] (median-of-three with one-contact
//!   memory), benchmarked against the adversaries of `gossip_sim::adversary`.
//! * [`diffusion`] — synchronous first- and second-order diffusive load
//!   balancing (Muthukrishnan–Ghosh–Schultz), the non-convex prior art cited
//!   by the introduction.
//! * [`two_time_scale`] — a two-time-scale averaging baseline in the spirit
//!   of Borkar / Konda–Tsitsiklis.
//!
//! # Measuring averaging time
//!
//! [`averaging_time::AveragingTimeEstimator`] implements Definition 1
//! empirically: it runs many independent simulations, records for each the
//! last time the normalized variance exceeded `1/e²`, and reports the
//! `(1 − 1/e)`-quantile of those settling times.  [`bounds`] provides the
//! closed-form quantities (`Θ(min(n₁,n₂)/|E₁₂|)`, spectral `T_van` estimates,
//! Algorithm A's epoch length) the experiments compare against.
//!
//! # Example
//!
//! Compare vanilla gossip and Algorithm A on the paper's dumbbell graph:
//!
//! ```
//! use gossip_core::averaging_time::{AveragingTimeEstimator, EstimatorConfig};
//! use gossip_core::convex::VanillaGossip;
//! use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
//! use gossip_graph::generators::dumbbell;
//!
//! let (graph, partition) = dumbbell(20)?;
//! let estimator = AveragingTimeEstimator::new(
//!     EstimatorConfig::new(3).with_runs(5).with_max_time(20_000.0),
//! );
//! let vanilla = estimator.estimate(&graph, &partition, || VanillaGossip::new())?;
//! let algo_a = estimator.estimate(&graph, &partition, || {
//!     SparseCutAlgorithm::from_partition(
//!         &graph,
//!         &partition,
//!         SparseCutConfig::new().with_epoch_constant(2.0),
//!     )
//!     .expect("valid partition")
//! })?;
//! assert!(algo_a.averaging_time < vanilla.averaging_time);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod averaging_time;
pub mod bounds;
pub mod convex;
pub mod diffusion;
pub mod robust;
pub mod sparse_cut;
pub mod two_time_scale;

pub use averaging_time::{AveragingTimeEstimate, AveragingTimeEstimator, EstimatorConfig};
pub use convex::{RandomNeighborGossip, VanillaGossip, WeightedConvexGossip};
pub use robust::{MedianNeighborGossip, TrimmedMeanGossip};
pub use sparse_cut::{SparseCutAlgorithm, SparseCutConfig, TransferCoefficient};

use std::error::Error;
use std::fmt;

/// Errors produced by the algorithm and estimator layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The supplied partition does not describe a usable sparse cut
    /// (e.g. no cut edges).
    InvalidCut {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// An underlying graph operation failed.
    Graph(gossip_graph::GraphError),
    /// An underlying simulation failed.
    Sim(gossip_sim::SimError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            CoreError::InvalidCut { reason } => write!(f, "invalid sparse cut: {reason}"),
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gossip_graph::GraphError> for CoreError {
    fn from(e: gossip_graph::GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<gossip_sim::SimError> for CoreError {
    fn from(e: gossip_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errors = [
            CoreError::InvalidConfig {
                reason: "bad".into(),
            },
            CoreError::InvalidCut {
                reason: "no cut edges".into(),
            },
            CoreError::Graph(gossip_graph::GraphError::Disconnected),
            CoreError::Sim(gossip_sim::SimError::NoEdges),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_source_chain() {
        assert!(std::error::Error::source(&CoreError::Graph(
            gossip_graph::GraphError::Disconnected
        ))
        .is_some());
        assert!(
            std::error::Error::source(&CoreError::Sim(gossip_sim::SimError::NoEdges)).is_some()
        );
        assert!(
            std::error::Error::source(&CoreError::InvalidConfig { reason: "x".into() }).is_none()
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
