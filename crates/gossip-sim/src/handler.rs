//! The algorithm interface: what happens when an edge clock ticks.
//!
//! A gossip algorithm, in the paper's sense, is a rule that — at the tick of
//! edge `e = (v, w)` — updates the values of the incident vertices based on
//! present (and possibly past) values of `v`, `w`, and their neighbours.
//! [`EdgeTickHandler::on_edge_tick`] receives the mutable state plus an
//! [`EdgeTickContext`] carrying everything the rule is allowed to look at:
//! the edge, the time, the global tick count, and the graph for
//! neighbourhood queries.
//!
//! Any memory a rule keeps across ticks is the handler's own.  Algorithm A
//! counts the ticks of its designated edge itself (its schedule is phrased
//! in terms of "the `k`-th tick of `e_c`"), and it counts ticks whose
//! contact a fault or an adversary suppressed too: the engine reports those
//! through [`EdgeTickHandler::on_suppressed_tick`].  A handler that keeps
//! memory exposes it through [`EdgeTickHandler::save_state`] and
//! [`EdgeTickHandler::load_state`], which is what lets a checkpointed run
//! resume bit-identically; the engine refuses to checkpoint or restore a
//! handler that does not implement them.

use crate::values::NodeValues;
use crate::{Result, SimError};
use gossip_graph::{Edge, EdgeId, Graph};

/// Everything an update rule may consult when an edge ticks.
#[derive(Debug, Clone, Copy)]
pub struct EdgeTickContext<'a> {
    /// The graph being averaged over.
    pub graph: &'a Graph,
    /// The edge whose clock ticked.
    pub edge: Edge,
    /// Identifier of the ticking edge.
    pub edge_id: EdgeId,
    /// Absolute (continuous) time of the tick.
    pub time: f64,
    /// How many edge ticks have occurred in total, including this one.
    pub global_tick_count: u64,
}

/// A handler's evolving state, as an [`EngineCheckpoint`] carries it.
///
/// Two bit-exact columns cover every bundled handler: integers (counters,
/// random-stream positions) and reals, where `None` marks a slot that holds
/// no value yet.  What each entry means is the handler's business; a
/// handler reads back only what its own [`EdgeTickHandler::save_state`]
/// wrote, on an instance constructed from the same inputs.
///
/// [`EngineCheckpoint`]: crate::checkpoint::EngineCheckpoint
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HandlerState {
    /// Integer state.
    pub integers: Vec<u64>,
    /// Real-valued state.
    pub reals: Vec<Option<f64>>,
}

impl HandlerState {
    /// Checks that the state has exactly `integers` integer and `reals`
    /// real entries, the shape `handler` saves.
    ///
    /// # Errors
    ///
    /// [`SimError::CheckpointInvalid`] naming `handler` on any other shape.
    pub fn expect_shape(&self, handler: &str, integers: usize, reals: usize) -> Result<()> {
        if self.integers.len() == integers && self.reals.len() == reals {
            return Ok(());
        }
        Err(SimError::CheckpointInvalid {
            reason: format!(
                "{handler} state has {} integers and {} reals, expected {integers} and {reals}",
                self.integers.len(),
                self.reals.len()
            ),
        })
    }
}

/// An asynchronous gossip update rule.
///
/// Implementations mutate `values` in place.  Linear, mass-conserving rules
/// (everything studied in the paper) keep `values.sum()` exactly constant;
/// the simulator's tests verify this for all bundled algorithms.
pub trait EdgeTickHandler {
    /// Applies the update for one tick of `ctx.edge`.
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>);

    /// Notes a tick of `ctx.edge` whose contact the fault or adversary layer
    /// suppressed, so [`Self::on_edge_tick`] does not run for it.  The
    /// clock still ticked: a rule whose schedule counts an edge's ticks
    /// (Algorithm A) counts this one too.  The default does nothing.
    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        let _ = ctx;
    }

    /// A short human-readable name used in traces and experiment tables.
    fn name(&self) -> &str {
        "unnamed"
    }

    /// The handler's evolving state, for a checkpoint; `None` (the default)
    /// when the handler cannot save it.  A stateless handler returns an
    /// empty [`HandlerState`].
    ///
    /// A handler whose state this misses resumes from the wrong state, so
    /// the engine refuses to checkpoint a handler returning `None` (see
    /// `AsyncSimulator::run_with_checkpoints`).
    fn save_state(&self) -> Option<HandlerState> {
        None
    }

    /// Reinstalls a state captured by [`Self::save_state`] on a handler
    /// constructed from the same inputs as the captured one.
    ///
    /// # Errors
    ///
    /// The default returns [`SimError::HandlerStateUnsupported`];
    /// implementations return [`SimError::CheckpointInvalid`] for a state of
    /// the wrong shape.
    fn load_state(&mut self, state: &HandlerState) -> Result<()> {
        let _ = state;
        Err(SimError::HandlerStateUnsupported {
            handler: self.name().to_string(),
        })
    }
}

impl<T: EdgeTickHandler + ?Sized> EdgeTickHandler for &mut T {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        (**self).on_edge_tick(values, ctx);
    }

    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        (**self).on_suppressed_tick(ctx);
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn save_state(&self) -> Option<HandlerState> {
        (**self).save_state()
    }

    fn load_state(&mut self, state: &HandlerState) -> Result<()> {
        (**self).load_state(state)
    }
}

impl<T: EdgeTickHandler + ?Sized> EdgeTickHandler for Box<T> {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        (**self).on_edge_tick(values, ctx);
    }

    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        (**self).on_suppressed_tick(ctx);
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn save_state(&self) -> Option<HandlerState> {
        (**self).save_state()
    }

    fn load_state(&mut self, state: &HandlerState) -> Result<()> {
        (**self).load_state(state)
    }
}

/// A handler that does nothing.  Useful as a baseline and in tests of the
/// driver machinery itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOpHandler;

impl EdgeTickHandler for NoOpHandler {
    fn on_edge_tick(&mut self, _values: &mut NodeValues, _ctx: &EdgeTickContext<'_>) {}

    fn name(&self) -> &str {
        "no-op"
    }

    fn save_state(&self) -> Option<HandlerState> {
        Some(HandlerState::default())
    }

    fn load_state(&mut self, state: &HandlerState) -> Result<()> {
        state.expect_shape(self.name(), 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::path;
    use gossip_graph::NodeId;

    /// Records every tick it sees, delivered or suppressed.
    struct Recorder {
        seen: Vec<(EdgeId, u64)>,
        suppressed: Vec<EdgeId>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                seen: Vec::new(),
                suppressed: Vec::new(),
            }
        }
    }

    impl EdgeTickHandler for Recorder {
        fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
            self.seen.push((ctx.edge_id, ctx.global_tick_count));
            let (u, v) = ctx.edge.endpoints();
            values.average_pair(u, v);
        }

        fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
            self.suppressed.push(ctx.edge_id);
        }

        fn name(&self) -> &str {
            "recorder"
        }

        fn save_state(&self) -> Option<HandlerState> {
            Some(HandlerState {
                integers: vec![self.seen.len() as u64],
                reals: Vec::new(),
            })
        }

        fn load_state(&mut self, state: &HandlerState) -> Result<()> {
            state.expect_shape(self.name(), 1, 0)
        }
    }

    #[test]
    fn context_fields_are_passed_through() {
        let graph = path(3).unwrap();
        let mut values = NodeValues::from_values(vec![2.0, 0.0, 0.0]).unwrap();
        let edge_id = EdgeId(0);
        let edge = graph.edge(edge_id).unwrap();
        let ctx = EdgeTickContext {
            graph: &graph,
            edge,
            edge_id,
            time: 1.5,
            global_tick_count: 10,
        };
        let mut recorder = Recorder::new();
        recorder.on_edge_tick(&mut values, &ctx);
        assert_eq!(recorder.seen, vec![(edge_id, 10)]);
        assert_eq!(values.get(NodeId(0)), 1.0);
        assert_eq!(values.get(NodeId(1)), 1.0);
        assert_eq!(recorder.name(), "recorder");
    }

    #[test]
    fn noop_handler_leaves_state_unchanged() {
        let graph = path(2).unwrap();
        let mut values = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        let ctx = EdgeTickContext {
            graph: &graph,
            edge: graph.edge(EdgeId(0)).unwrap(),
            edge_id: EdgeId(0),
            time: 0.1,
            global_tick_count: 1,
        };
        let mut handler = NoOpHandler;
        handler.on_edge_tick(&mut values, &ctx);
        handler.on_suppressed_tick(&ctx);
        assert_eq!(values.as_slice(), &[1.0, -1.0]);
        assert_eq!(handler.name(), "no-op");
        assert_eq!(handler.save_state(), Some(HandlerState::default()));
        assert!(handler.load_state(&HandlerState::default()).is_ok());
    }

    #[test]
    fn blanket_impls_delegate() {
        let graph = path(2).unwrap();
        let mut values = NodeValues::from_values(vec![3.0, 1.0]).unwrap();
        let ctx = EdgeTickContext {
            graph: &graph,
            edge: graph.edge(EdgeId(0)).unwrap(),
            edge_id: EdgeId(0),
            time: 0.2,
            global_tick_count: 1,
        };
        let mut inner = Recorder::new();
        {
            let mut by_ref: &mut Recorder = &mut inner;
            <&mut Recorder as EdgeTickHandler>::on_edge_tick(&mut by_ref, &mut values, &ctx);
            <&mut Recorder as EdgeTickHandler>::on_suppressed_tick(&mut by_ref, &ctx);
            assert_eq!(
                <&mut Recorder as EdgeTickHandler>::name(&by_ref),
                "recorder"
            );
            let state = <&mut Recorder as EdgeTickHandler>::save_state(&by_ref).unwrap();
            assert_eq!(state.integers, vec![1]);
            assert!(<&mut Recorder as EdgeTickHandler>::load_state(&mut by_ref, &state).is_ok());
        }
        assert_eq!(inner.seen.len(), 1);
        assert_eq!(inner.suppressed, vec![EdgeId(0)]);

        let mut boxed: Box<dyn EdgeTickHandler> = Box::new(Recorder::new());
        boxed.on_edge_tick(&mut values, &ctx);
        boxed.on_suppressed_tick(&ctx);
        assert_eq!(boxed.name(), "recorder");
        assert_eq!(boxed.save_state().unwrap().integers, vec![1]);
        assert!(matches!(
            boxed.load_state(&HandlerState::default()),
            Err(SimError::CheckpointInvalid { .. })
        ));
        assert_eq!(values.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn handlers_without_the_hook_cannot_save_or_load() {
        struct Stateful;
        impl EdgeTickHandler for Stateful {
            fn on_edge_tick(&mut self, _values: &mut NodeValues, _ctx: &EdgeTickContext<'_>) {}
            fn name(&self) -> &str {
                "stateful"
            }
        }
        let mut handler = Stateful;
        assert_eq!(handler.save_state(), None);
        assert_eq!(
            handler.load_state(&HandlerState::default()),
            Err(SimError::HandlerStateUnsupported {
                handler: "stateful".into()
            })
        );
    }
}
