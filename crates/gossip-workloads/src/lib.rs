//! Workload definitions for the sparse-cut gossip experiments.
//!
//! A *workload* is everything an experiment needs besides the algorithm:
//! a graph with a known sparse cut ([`scenarios`]), an initial value vector
//! ([`initial`]), optionally a fault environment for the robustness tier
//! ([`churn`]) or a Byzantine attack paired with a defending aggregation
//! rule for the adversary tier ([`adversary`]), and the parameter grid to
//! sweep over ([`sweep`]).
//! [`experiments`] ties these together into the experiment index (E1–E10
//! plus the SCALE, SIM_SCALE, MEM_SCALE, ROBUSTNESS, ADVERSARY and PERF
//! tiers) that the `gossip-bench` harness regenerates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod churn;
pub mod experiments;
pub mod initial;
pub mod scenarios;
pub mod sweep;

pub use adversary::{AdversaryCase, AdversaryProfile, AggregationKind};
pub use churn::{ChurnCase, FaultProfile};
pub use experiments::{ExperimentDescriptor, ExperimentId};
pub use initial::InitialCondition;
pub use scenarios::{Scenario, ScenarioInstance};

use std::error::Error;
use std::fmt;

/// Errors produced while constructing workloads.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// A workload parameter was invalid.
    InvalidParameter {
        /// Human-readable description.
        reason: String,
    },
    /// An underlying graph construction failed.
    Graph(gossip_graph::GraphError),
    /// An underlying simulation-state construction failed.
    Sim(gossip_sim::SimError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InvalidParameter { reason } => {
                write!(f, "invalid workload parameter: {reason}")
            }
            WorkloadError::Graph(e) => write!(f, "graph error: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Graph(e) => Some(e),
            WorkloadError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gossip_graph::GraphError> for WorkloadError {
    fn from(e: gossip_graph::GraphError) -> Self {
        WorkloadError::Graph(e)
    }
}

impl From<gossip_sim::SimError> for WorkloadError {
    fn from(e: gossip_sim::SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// Convenient result alias for workload construction.
pub type Result<T> = std::result::Result<T, WorkloadError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = WorkloadError::InvalidParameter { reason: "x".into() };
        assert!(!e.to_string().is_empty());
        assert!(std::error::Error::source(&e).is_none());
        let g = WorkloadError::Graph(gossip_graph::GraphError::Disconnected);
        assert!(!g.to_string().is_empty());
        assert!(std::error::Error::source(&g).is_some());
        let s = WorkloadError::Sim(gossip_sim::SimError::NoEdges);
        assert!(std::error::Error::source(&s).is_some());
    }
}
