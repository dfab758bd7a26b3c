//! Event-driven asynchronous gossip simulator.
//!
//! The model simulated here is exactly the one in *Distributed averaging in
//! the presence of a sparse cut* (Narayanan, PODC 2008): a graph `G = (V, E)`
//! where every edge carries an independent rate-1 Poisson clock; whenever the
//! clock of edge `e = (v, w)` ticks, an algorithm updates the values held by
//! the endpoints (and possibly consults bounded local state).  "True" time
//! `T` is continuous; the number of ticks of any edge by time `T` is Poisson
//! with mean `T`.
//!
//! The crate separates six concerns:
//!
//! * [`values::NodeValues`] — the state vector `x(t)` with the variance /
//!   mean / per-block accounting the paper's Definition 1 is phrased in,
//!   backed by an O(1) incremental [`moments::MomentTracker`] so per-tick
//!   Definition 1 stopping costs constant work per event.
//! * [`clock`] — two equivalent samplers of the edge-tick point process: a
//!   per-edge exponential clock queue and a global rate-`|E|` process with
//!   uniform edge selection.
//! * [`handler::EdgeTickHandler`] — the algorithm interface; concrete
//!   algorithms (vanilla gossip, the convex class `C`, the paper's
//!   non-convex Algorithm A, …) live in the `gossip-core` crate.
//! * [`fault::FaultPlan`] — deterministic fault environments (seeded edge
//!   up/down schedules, node pauses, per-contact message drops) injected
//!   ahead of the handler, so churn and loss scenarios stay bit-exactly
//!   reproducible.
//! * [`adversary::AdversaryPlan`] — deterministic Byzantine environments
//!   (biased/extreme/stale reporters, censoring bridges) classified before
//!   each pairwise update on their own RNG stream, with exact
//!   honest-subset falsification accounting for the drift oracles.
//! * [`engine::AsyncSimulator`] and [`sync::SyncSimulator`] — drivers that
//!   advance the clocks, invoke the handler, record [`trace::Trace`]s and
//!   evaluate [`stopping::StoppingRule`]s.
//!
//! # Examples
//!
//! Run vanilla-style pairwise averaging (implemented inline here as a
//! closure-free handler) on a triangle until the variance collapses:
//!
//! ```
//! use gossip_graph::generators::complete;
//! use gossip_sim::engine::{AsyncSimulator, SimulationConfig};
//! use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler};
//! use gossip_sim::stopping::StoppingRule;
//! use gossip_sim::values::NodeValues;
//!
//! struct Vanilla;
//! impl EdgeTickHandler for Vanilla {
//!     fn on_edge_tick(
//!         &mut self,
//!         values: &mut NodeValues,
//!         ctx: &EdgeTickContext<'_>,
//!     ) {
//!         let (u, v) = ctx.edge.endpoints();
//!         values.average_pair(u, v);
//!     }
//! }
//!
//! let graph = complete(4)?;
//! let initial = NodeValues::from_values(vec![1.0, 0.0, 0.0, 0.0])?;
//! let config = SimulationConfig::new(7)
//!     .with_stopping_rule(StoppingRule::variance_ratio_below(1e-6).or_max_time(1_000.0));
//! let mut simulator = AsyncSimulator::new(&graph, initial, Vanilla, config)?;
//! let outcome = simulator.run()?;
//! assert!(outcome.final_values.variance() < 1e-6 * outcome.initial_variance);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod clock;
pub mod engine;
pub mod fault;
pub mod handler;
pub mod moments;
pub mod stopping;
pub mod sync;
pub mod trace;
pub mod values;

pub use adversary::{AdversaryBehavior, AdversaryPlan, AdversaryStats, CensoringBridge};
pub use checkpoint::EngineCheckpoint;
pub use clock::ClockScratch;
pub use engine::{AsyncSimulator, SimulationConfig, SimulationOutcome, VarianceMode};
pub use fault::{FaultPlan, FaultStats};
pub use handler::{EdgeTickContext, EdgeTickHandler, HandlerState};
pub use moments::MomentTracker;
pub use stopping::StoppingRule;
pub use trace::{Trace, TraceConfig, TracePoint};
pub use values::NodeValues;

use std::error::Error;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The state vector length does not match the graph's node count.
    StateSizeMismatch {
        /// Number of nodes in the graph.
        nodes: usize,
        /// Length of the supplied state vector.
        values: usize,
    },
    /// The graph has no edges, so the Poisson edge-clock process is empty.
    NoEdges,
    /// A non-finite value (NaN or ±∞) was supplied or produced.
    NonFiniteValue {
        /// Index of the offending node.
        node: usize,
    },
    /// The simulation hit its safety cap on the number of events without any
    /// stopping rule firing.
    EventBudgetExhausted {
        /// The number of events processed before giving up.
        events: u64,
    },
    /// An invalid configuration parameter was supplied.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
    /// The run exceeded its configured wall-clock deadline
    /// ([`engine::SimulationConfig::wall_clock_deadline`]) and was cut off.
    /// The partial state stays observable on the simulator, so supervisors
    /// can journal the run as censored instead of discarding it.
    DeadlineExceeded {
        /// The number of ticks processed when the deadline fired.
        ticks: u64,
    },
    /// A checkpoint blob failed structural validation, or did not match the
    /// run it was offered to (wrong seed, graph shape, clock model, or
    /// fault/adversary plan shape) — see [`checkpoint::EngineCheckpoint`].
    CheckpointInvalid {
        /// Human-readable description of the mismatch.
        reason: String,
    },
    /// A run was asked to capture or restore a checkpoint, but its handler
    /// cannot save or load its own state (see
    /// [`handler::EdgeTickHandler::save_state`]), so the resumed run could
    /// not match the uninterrupted one.
    HandlerStateUnsupported {
        /// The handler's [`handler::EdgeTickHandler::name`].
        handler: String,
    },
    /// An underlying graph operation failed.
    Graph(gossip_graph::GraphError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StateSizeMismatch { nodes, values } => write!(
                f,
                "state vector has {values} entries but the graph has {nodes} nodes"
            ),
            SimError::NoEdges => write!(f, "graph has no edges to attach Poisson clocks to"),
            SimError::NonFiniteValue { node } => {
                write!(f, "non-finite value at node {node}")
            }
            SimError::EventBudgetExhausted { events } => {
                write!(f, "event budget exhausted after {events} events")
            }
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::DeadlineExceeded { ticks } => {
                write!(f, "wall-clock deadline exceeded after {ticks} ticks")
            }
            SimError::CheckpointInvalid { reason } => {
                write!(f, "invalid checkpoint: {reason}")
            }
            SimError::HandlerStateUnsupported { handler } => write!(
                f,
                "handler {handler:?} cannot save or load its state, so its runs cannot be \
                 checkpointed or restored"
            ),
            SimError::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gossip_graph::GraphError> for SimError {
    fn from(e: gossip_graph::GraphError) -> Self {
        SimError::Graph(e)
    }
}

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty_and_pairwise_distinct() {
        // One representative of every variant: each must render a non-empty
        // message, and no two variants may render identically (a supervisor
        // journaling by message must be able to tell them apart).
        let errors = [
            SimError::StateSizeMismatch {
                nodes: 3,
                values: 4,
            },
            SimError::NoEdges,
            SimError::NonFiniteValue { node: 2 },
            SimError::EventBudgetExhausted { events: 10 },
            SimError::InvalidConfig {
                reason: "bad".into(),
            },
            SimError::DeadlineExceeded { ticks: 12 },
            SimError::CheckpointInvalid {
                reason: "bad".into(),
            },
            SimError::HandlerStateUnsupported {
                handler: "bad".into(),
            },
            SimError::Graph(gossip_graph::GraphError::Disconnected),
        ];
        let rendered: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
        for (i, a) in rendered.iter().enumerate() {
            assert!(!a.is_empty(), "{:?} renders empty", errors[i]);
            for (j, b) in rendered.iter().enumerate() {
                if i != j {
                    assert_ne!(
                        a, b,
                        "{:?} and {:?} render identically",
                        errors[i], errors[j]
                    );
                }
            }
        }
    }

    #[test]
    fn error_source_chain() {
        let e = SimError::Graph(gossip_graph::GraphError::Disconnected);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&SimError::NoEdges).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
