//! Instrumented handler wrappers used by the proof-mechanics experiments.
//!
//! * [`CutTickProbe`] wraps a convex algorithm and keeps the largest move
//!   of the block-one mean `y(t)` at a cut-edge tick — the quantity
//!   Section 2 bounds by `2/n₁` per tick — and the number of those ticks.
//! * [`EpochProbe`] wraps Algorithm A (or any handler) and records the
//!   variance right after every non-convex transfer of the designated edge,
//!   then rescales the state to unit variance, yielding the per-epoch
//!   increments of `log var X(T_k⁺)` that Section 3 stochastically dominates
//!   with the lazy `±log n` walk.  It counts the designated edge's ticks the
//!   way Algorithm A does, suppressed ones included.
//!
//! Both forward suppressed ticks to the wrapped handler.

use gossip_graph::partition::Block;
use gossip_graph::{EdgeId, Partition};
use gossip_sim::handler::{EdgeTickContext, EdgeTickHandler};
use gossip_sim::values::NodeValues;

/// Records the movement of the block-one mean at every cut-edge tick: its
/// running maximum and the number of cut-edge ticks, in O(1) state.
#[derive(Debug, Clone)]
pub struct CutTickProbe<H> {
    inner: H,
    partition: Partition,
    max_delta: f64,
    cut_ticks: usize,
}

impl<H> CutTickProbe<H> {
    /// Wraps `inner`, probing cut edges of `partition`.
    pub fn new(inner: H, partition: Partition) -> Self {
        CutTickProbe {
            inner,
            partition,
            max_delta: 0.0,
            cut_ticks: 0,
        }
    }

    /// The largest observed per-tick movement of the block-one mean (`0`
    /// before the first cut-edge tick).
    pub fn max_delta(&self) -> f64 {
        self.max_delta
    }

    /// Number of cut-edge ticks observed.
    pub fn cut_tick_count(&self) -> usize {
        self.cut_ticks
    }
}

impl<H: EdgeTickHandler> EdgeTickHandler for CutTickProbe<H> {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let crosses = self.partition.is_cut_edge(&ctx.edge);
        let before = if crosses {
            Some(values.block_mean(&self.partition, Block::One))
        } else {
            None
        };
        self.inner.on_edge_tick(values, ctx);
        if let Some(before) = before {
            let after = values.block_mean(&self.partition, Block::One);
            self.max_delta = self.max_delta.max((after - before).abs());
            self.cut_ticks += 1;
        }
    }

    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        self.inner.on_suppressed_tick(ctx);
    }

    fn name(&self) -> &str {
        "cut-tick-probe"
    }
}

/// Records the variance right after every firing of a designated edge's
/// scheduled update (Algorithm A's epoch boundaries `T_k⁺`), then rescales
/// the centered state to unit variance.
///
/// Every algorithm studied here is linear, so the rescaling does not change
/// the distribution of later per-epoch contraction factors, but it keeps the
/// variance away from the floating-point floor, so one run can observe
/// arbitrarily many epochs.
#[derive(Debug, Clone)]
pub struct EpochProbe<H> {
    inner: H,
    designated_edge: EdgeId,
    epoch_ticks: u64,
    /// Ticks of the designated edge so far, suppressed ones included.
    designated_ticks: u64,
    /// Variance immediately after each transfer (`var X(T_k⁺)`), relative to
    /// the unit variance the state was rescaled to at the previous epoch
    /// boundary.
    pub post_transfer_variance: Vec<f64>,
}

impl<H> EpochProbe<H> {
    /// Wraps `inner`; `designated_edge` and `epoch_ticks` must match the
    /// wrapped algorithm's schedule (take them from
    /// [`gossip_core::sparse_cut::SparseCutAlgorithm::designated_edge`] and
    /// [`gossip_core::sparse_cut::SparseCutAlgorithm::epoch_ticks`]).
    pub fn new(inner: H, designated_edge: EdgeId, epoch_ticks: u64) -> Self {
        EpochProbe {
            inner,
            designated_edge,
            epoch_ticks: epoch_ticks.max(1),
            designated_ticks: 0,
            post_transfer_variance: Vec::new(),
        }
    }

    /// Per-epoch increments of `log var X(T_k⁺)`: the log of each
    /// post-transfer variance after the first (the state had unit variance
    /// at the start of the epoch).  Empty if fewer than two transfers were
    /// observed.
    pub fn log_variance_increments(&self) -> Vec<f64> {
        self.post_transfer_variance
            .iter()
            .skip(1)
            .map(|v| v.max(f64::MIN_POSITIVE).ln())
            .collect()
    }
}

impl<H: EdgeTickHandler> EdgeTickHandler for EpochProbe<H> {
    fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
        let is_transfer = if ctx.edge_id == self.designated_edge {
            self.designated_ticks += 1;
            self.designated_ticks.is_multiple_of(self.epoch_ticks)
        } else {
            false
        };
        self.inner.on_edge_tick(values, ctx);
        if is_transfer {
            let variance = values.variance();
            self.post_transfer_variance.push(variance);
            if variance > 0.0 {
                let mean = values.mean();
                let scale = 1.0 / variance.sqrt();
                for i in 0..values.len() {
                    let node = gossip_graph::NodeId(i);
                    let centered = values.get(node) - mean;
                    values.set(node, mean + centered * scale);
                }
            }
        }
    }

    fn on_suppressed_tick(&mut self, ctx: &EdgeTickContext<'_>) {
        if ctx.edge_id == self.designated_edge {
            self.designated_ticks += 1;
        }
        self.inner.on_suppressed_tick(ctx);
    }

    fn name(&self) -> &str {
        "epoch-probe"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::convex::VanillaGossip;
    use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
    use gossip_graph::generators::dumbbell;

    fn adversarial(partition: &Partition) -> NodeValues {
        gossip_core::averaging_time::AveragingTimeEstimator::adversarial_initial(partition)
    }

    #[test]
    fn cut_tick_probe_bounds_block_mean_movement() {
        let (graph, partition) = dumbbell(8).unwrap();
        let mut probe = CutTickProbe::new(VanillaGossip::new(), partition.clone());
        let mut values = adversarial(&partition);
        let cut_edge = partition.cut_edges()[0];
        let internal_edge = graph
            .edge_ids()
            .find(|&e| !partition.is_cut_edge(&graph.edge(e).unwrap()))
            .unwrap();
        for k in 1..=50u64 {
            let edge_id = if k % 5 == 0 { cut_edge } else { internal_edge };
            let ctx = EdgeTickContext {
                graph: &graph,
                edge: graph.edge(edge_id).unwrap(),
                edge_id,
                time: k as f64 * 0.1,
                global_tick_count: k,
            };
            probe.on_edge_tick(&mut values, &ctx);
        }
        assert_eq!(probe.cut_tick_count(), 10);
        // The adversarial start moves y(t) at the first cut tick, and
        // Section 2 bounds every move by 2/n1 = 0.25.
        assert!(probe.max_delta() > 0.0);
        assert!(probe.max_delta() <= 2.0 / 8.0 + 1e-12);
        assert_eq!(probe.name(), "cut-tick-probe");
    }

    #[test]
    fn epoch_probe_records_transfers() {
        let (graph, partition) = dumbbell(8).unwrap();
        let algo = SparseCutAlgorithm::from_partition(
            &graph,
            &partition,
            SparseCutConfig::new()
                .with_t_van_sum(1.0)
                .with_epoch_constant(1.0),
        )
        .unwrap();
        let designated = algo.designated_edge();
        let epoch_ticks = algo.epoch_ticks();
        let mut probe = EpochProbe::new(algo, designated, epoch_ticks);
        let mut values = adversarial(&partition);
        // Tick the designated edge through several epochs, with internal
        // mixing in between left out deliberately (the probe only cares about
        // the bookkeeping).
        for k in 1..=(4 * epoch_ticks) {
            let ctx = EdgeTickContext {
                graph: &graph,
                edge: graph.edge(designated).unwrap(),
                edge_id: designated,
                time: k as f64,
                global_tick_count: k,
            };
            probe.on_edge_tick(&mut values, &ctx);
        }
        assert_eq!(probe.post_transfer_variance.len(), 4);
        assert_eq!(probe.log_variance_increments().len(), 3);
        assert_eq!(probe.name(), "epoch-probe");
    }
}
