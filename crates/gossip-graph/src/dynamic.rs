//! A dynamic-topology view over an immutable [`Graph`].
//!
//! The fault-injection tier (see `gossip-sim::fault`) models churn as edges
//! going down and coming back while the underlying graph object — which owns
//! the edge identifiers the Poisson clocks are attached to — stays fixed.
//! [`DynamicGraphView`] is the graph-layer counterpart: a live/dead mask
//! over the edge set plus probes of what survives, most importantly the
//! **worst-surviving-subgraph spectral probe**: the smallest algebraic
//! connectivity over the connected components of the live subgraph, i.e. the
//! mixing bottleneck of the worst-connected island the faults leave behind.
//!
//! The view never mutates the base graph.

use crate::spectral::SpectralProfile;
use crate::traversal;
use crate::{EdgeId, Graph, GraphBuilder, NodeId, Result};

/// A live/dead edge mask over a borrowed [`Graph`], with connectivity and
/// spectral probes of the surviving subgraph.
///
/// # Examples
///
/// ```
/// use gossip_graph::dynamic::DynamicGraphView;
/// use gossip_graph::generators::dumbbell;
///
/// let (graph, partition) = dumbbell(4)?;
/// let mut view = DynamicGraphView::new(&graph);
/// assert!(view.is_live_connected());
/// // Kill the single bridge edge: the dumbbell splits into its two cliques.
/// view.kill_edge(partition.cut_edges()[0])?;
/// assert!(!view.is_live_connected());
/// assert_eq!(view.live_components().len(), 2);
/// # Ok::<(), gossip_graph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraphView<'g> {
    graph: &'g Graph,
    alive: Vec<bool>,
}

impl<'g> DynamicGraphView<'g> {
    /// Creates a view with every edge alive.
    pub fn new(graph: &'g Graph) -> Self {
        DynamicGraphView {
            graph,
            alive: vec![true; graph.edge_count()],
        }
    }

    /// Marks `edge` dead; returns whether it was previously alive.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::EdgeOutOfRange`] for an invalid id.
    pub fn kill_edge(&mut self, edge: EdgeId) -> Result<bool> {
        self.graph.edge(edge)?;
        Ok(std::mem::replace(&mut self.alive[edge.index()], false))
    }

    /// Marks every edge incident to `node` dead (the topological shadow of a
    /// node pause: a down node neither sends nor receives).  Returns how
    /// many edges changed state.
    ///
    /// # Errors
    ///
    /// Returns [`crate::GraphError::NodeOutOfRange`] for an invalid id.
    pub fn kill_node(&mut self, node: NodeId) -> Result<usize> {
        self.graph.check_node(node)?;
        let incident: Vec<EdgeId> = self.graph.neighbors(node).map(|(_, e)| e).collect();
        let mut changed = 0;
        for edge in incident {
            if self.kill_edge(edge)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Iterates over the identifiers of the live edges in increasing order.
    pub fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| EdgeId(i))
    }

    /// Materializes the live subgraph on the full node set.
    pub fn live_graph(&self) -> Graph {
        let mut builder = GraphBuilder::new(self.graph.node_count());
        for id in self.live_edges() {
            let edge = self.graph.edge(id).expect("live edge ids are in range");
            builder
                .add_edge(edge.u().index(), edge.v().index())
                .expect("live edges join in-range, distinct endpoints");
        }
        builder
            .build()
            .expect("the live subgraph of a simple graph is simple")
    }

    /// Returns `true` if the live subgraph is connected (isolated nodes make
    /// it disconnected, matching [`traversal::is_connected`]).
    pub fn is_live_connected(&self) -> bool {
        self.live_components().len() <= 1
    }

    /// The connected components of the live subgraph, each sorted by node
    /// id, ordered by their smallest member.
    pub fn live_components(&self) -> Vec<Vec<NodeId>> {
        Self::components_of(&self.live_graph())
    }

    fn components_of(live: &Graph) -> Vec<Vec<NodeId>> {
        let labels = traversal::connected_components(live);
        let component_count = labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut components = vec![Vec::new(); component_count];
        for (node, &label) in labels.iter().enumerate() {
            components[label].push(NodeId(node));
        }
        components
    }

    /// The worst-surviving-subgraph spectral probe: the minimum algebraic
    /// connectivity `λ₂` over the connected components of the live subgraph
    /// that still contain an edge — i.e. the mixing bottleneck of the
    /// worst-connected island the faults leave behind.  Isolated nodes are
    /// skipped (they hold no edge to average over); `None` when no live
    /// edge remains anywhere.
    ///
    /// Each component goes through [`SpectralProfile::compute`], so large
    /// surviving islands take the sparse Lanczos path automatically.
    ///
    /// # Errors
    ///
    /// Propagates eigensolver failures.
    pub fn worst_surviving_connectivity(&self) -> Result<Option<f64>> {
        let live = self.live_graph();
        let mut worst: Option<f64> = None;
        for component in Self::components_of(&live) {
            if component.len() < 2 {
                continue;
            }
            let (sub, _) = live.induced_subgraph(&component)?;
            let lambda2 = SpectralProfile::compute(&sub)?.algebraic_connectivity;
            worst = Some(match worst {
                Some(w) => w.min(lambda2),
                None => lambda2,
            });
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, dumbbell, path};

    #[test]
    fn fresh_view_matches_the_base_graph() {
        let g = complete(5).unwrap();
        let view = DynamicGraphView::new(&g);
        assert_eq!(view.live_edges().count(), g.edge_count());
        assert!(view.is_live_connected());
        assert_eq!(view.live_components(), vec![g.nodes().collect::<Vec<_>>()]);
        assert_eq!(view.live_graph(), g.clone());
    }

    #[test]
    fn kill_edges() {
        let g = path(4).unwrap(); // 0-1-2-3
        let mut view = DynamicGraphView::new(&g);
        assert!(view.kill_edge(EdgeId(1)).unwrap());
        assert!(!view.kill_edge(EdgeId(1)).unwrap(), "already dead");
        assert_eq!(
            view.live_edges().collect::<Vec<_>>(),
            vec![EdgeId(0), EdgeId(2)]
        );
        assert!(!view.is_live_connected());
        assert_eq!(view.live_components().len(), 2);
        assert!(view.kill_edge(EdgeId(9)).is_err());
    }

    #[test]
    fn kill_node_removes_incident_edges() {
        let g = complete(4).unwrap(); // every node has degree 3
        let mut view = DynamicGraphView::new(&g);
        assert_eq!(view.kill_node(NodeId(0)).unwrap(), 3);
        assert_eq!(view.live_graph().degree(NodeId(0)), 0);
        // A second kill changes nothing.
        assert_eq!(view.kill_node(NodeId(0)).unwrap(), 0);
        // Node 0 is now isolated; the remaining triangle survives.
        let components = view.live_components();
        assert_eq!(components.len(), 2);
        assert!(components.iter().any(|c| c == &vec![NodeId(0)]));
        assert!(view.kill_node(NodeId(7)).is_err());
    }

    #[test]
    fn worst_surviving_connectivity_tracks_the_weakest_island() {
        // Dumbbell of two K4s: killing the bridge leaves two cliques whose
        // λ₂ is 4 (complete graph on 4 nodes); the intact dumbbell's λ₂ is
        // far smaller because of the bottleneck.
        let (g, partition) = dumbbell(4).unwrap();
        let mut view = DynamicGraphView::new(&g);
        let intact = view.worst_surviving_connectivity().unwrap().unwrap();
        assert!(intact > 0.0);
        assert!(
            intact < 1.0,
            "bottlenecked λ₂ should be small, got {intact}"
        );
        view.kill_edge(partition.cut_edges()[0]).unwrap();
        let split = view.worst_surviving_connectivity().unwrap().unwrap();
        assert!(
            (split - 4.0).abs() < 1e-6,
            "each surviving K4 has λ₂ = 4, got {split}"
        );
        // Additionally isolating a node inside one clique leaves a K3
        // (λ₂ = 3) as the new worst island; the isolated node is skipped.
        view.kill_node(NodeId(0)).unwrap();
        let worst = view.worst_surviving_connectivity().unwrap().unwrap();
        assert!((worst - 3.0).abs() < 1e-6, "K3 has λ₂ = 3, got {worst}");
    }

    #[test]
    fn worst_surviving_connectivity_is_none_without_live_edges() {
        let g = path(3).unwrap();
        let mut view = DynamicGraphView::new(&g);
        view.kill_edge(EdgeId(0)).unwrap();
        view.kill_edge(EdgeId(1)).unwrap();
        assert_eq!(view.worst_surviving_connectivity().unwrap(), None);
        assert_eq!(view.live_components().len(), 3);
    }
}
