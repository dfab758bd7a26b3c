//! The state vector `x(t)` held by the nodes, with the accounting used by the
//! paper: overall mean and variance (Definition 1), per-block means `y(t)` and
//! `z(t)` (Section 2), and the decomposition `var X = µ² + σ²` used in the
//! analysis of Algorithm A (Section 3).
//!
//! Alongside the values themselves the state carries a [`MomentTracker`]: the
//! running `Σ xᵢ` and `Σ xᵢ²`, updated in O(1) by every mutation ([`set`],
//! and hence [`average_pair`], [`convex_pair_update`] and
//! [`transfer_pair_update`], which each touch exactly two entries).  That is
//! what makes per-tick Definition 1 stopping affordable at any `n`; see
//! [`crate::moments`] for the drift/refresh contract.
//!
//! [`set`]: NodeValues::set
//! [`average_pair`]: NodeValues::average_pair
//! [`convex_pair_update`]: NodeValues::convex_pair_update
//! [`transfer_pair_update`]: NodeValues::transfer_pair_update

use crate::moments::MomentTracker;
use crate::{Result, SimError};
use gossip_graph::{NodeId, Partition};
use gossip_linalg::Vector;

/// The values held by the nodes at a moment in (simulated) time.
///
/// # Examples
///
/// ```
/// use gossip_sim::values::NodeValues;
/// use gossip_graph::NodeId;
///
/// let mut values = NodeValues::from_values(vec![4.0, 0.0, 2.0])?;
/// assert!((values.mean() - 2.0).abs() < 1e-12);
/// values.average_pair(NodeId(0), NodeId(1));
/// assert_eq!(values.get(NodeId(0)), 2.0);
/// assert_eq!(values.get(NodeId(1)), 2.0);
/// // The sum (and hence the mean) is conserved by pairwise averaging.
/// assert!((values.mean() - 2.0).abs() < 1e-12);
/// # Ok::<(), gossip_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NodeValues {
    values: Vector,
    moments: MomentTracker,
}

/// Two states are equal when they hold the same node values; the moment
/// tracker is **intentionally excluded**: it is derived state (identical
/// update histories produce identical trackers, but a freshly constructed
/// copy of an evolved state is still the *same* state, even though the
/// evolved tracker carries float drift the fresh one does not).
///
/// In debug builds, equality additionally asserts the contract that makes
/// the exclusion sound: rebuilding both trackers from the (equal) values
/// must produce bit-identical moments — i.e. the only way two equal states
/// can disagree is through pre-refresh drift, which [`refresh_moments`]
/// reconciles.
///
/// [`refresh_moments`]: NodeValues::refresh_moments
impl PartialEq for NodeValues {
    fn eq(&self, other: &Self) -> bool {
        let equal = self.values == other.values;
        #[cfg(debug_assertions)]
        if equal {
            let a = MomentTracker::from_slice(self.values.as_slice());
            let b = MomentTracker::from_slice(other.values.as_slice());
            debug_assert!(
                a.sum().to_bits() == b.sum().to_bits()
                    && a.variance().to_bits() == b.variance().to_bits(),
                "equal values must rebuild bit-identical moment trackers"
            );
        }
        equal
    }
}

impl NodeValues {
    fn from_vector_unchecked(values: Vector) -> Self {
        let moments = MomentTracker::from_slice(values.as_slice());
        NodeValues { values, moments }
    }

    /// Creates a state where every one of the `n` nodes holds `value`.
    pub fn constant(n: usize, value: f64) -> Self {
        Self::from_vector_unchecked(Vector::constant(n, value))
    }

    /// Creates a state from explicit per-node values.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonFiniteValue`] if any entry is NaN or infinite.
    pub fn from_values(values: Vec<f64>) -> Result<Self> {
        if let Some(node) = values.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFiniteValue { node });
        }
        Ok(Self::from_vector_unchecked(Vector::from(values)))
    }

    /// Creates a state from a [`Vector`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonFiniteValue`] if any entry is NaN or infinite.
    pub fn from_vector(values: Vector) -> Result<Self> {
        if let Some(node) = values.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFiniteValue { node });
        }
        Ok(Self::from_vector_unchecked(values))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value held by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn get(&self, node: NodeId) -> f64 {
        self.values[node.index()]
    }

    /// Overwrites the value held by `node`, maintaining the running moments
    /// in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set(&mut self, node: NodeId, value: f64) {
        let old = self.values[node.index()];
        self.values[node.index()] = value;
        self.moments.record_update(old, value);
    }

    /// Borrows the underlying values as a slice (node `i` at position `i`).
    pub fn as_slice(&self) -> &[f64] {
        self.values.as_slice()
    }

    /// Borrows the underlying [`Vector`].
    pub fn as_vector(&self) -> &Vector {
        &self.values
    }

    /// Sum of all values (the conserved "mass" of linear averaging).
    pub fn sum(&self) -> f64 {
        self.values.sum()
    }

    /// The average `x_av` of all values.
    pub fn mean(&self) -> f64 {
        self.values.mean()
    }

    /// The paper's `var X(t) = Σᵢ (xᵢ − x_av)² / |V|`, computed exactly with
    /// a centered O(n) pass.  Hot loops should use
    /// [`Self::incremental_variance`] instead.
    pub fn variance(&self) -> f64 {
        self.values.variance()
    }

    /// The running moment tracker.
    pub fn moments(&self) -> &MomentTracker {
        &self.moments
    }

    /// O(1) mean from the running moments.
    pub fn incremental_mean(&self) -> f64 {
        self.moments.mean()
    }

    /// O(1) variance from the running moments (clamped at zero; see
    /// [`MomentTracker::variance`] for the drift and NaN contract).
    pub fn incremental_variance(&self) -> f64 {
        self.moments.variance()
    }

    /// `true` if the running moments are finite — the O(1) stand-in for
    /// [`Self::check_finite`] on the hot path (a NaN or infinite node value
    /// poisons at least one running sum).
    pub fn moments_finite(&self) -> bool {
        self.moments.is_finite()
    }

    /// `true` when the state's mean has drifted far enough from the moment
    /// tracker's shift that [`Self::incremental_variance`] is losing digits
    /// to cancellation and an exact [`Self::refresh_moments`] is due (see
    /// [`MomentTracker::needs_recenter`]; never fires for sum-conserving
    /// pairwise updates).
    pub fn moments_need_recenter(&self) -> bool {
        self.moments.needs_recenter()
    }

    /// Rebuilds the running moments with an exact O(n) pass, bounding the
    /// float drift accumulated by the O(1) deltas.  The simulation engine
    /// calls this on the deterministic schedule
    /// `SimulationConfig::moment_refresh_every_ticks`.
    pub fn refresh_moments(&mut self) {
        self.moments.refresh(self.values.as_slice());
    }

    /// Minimum value held by any node.
    pub fn min(&self) -> Option<f64> {
        self.values.min()
    }

    /// Maximum value held by any node.
    pub fn max(&self) -> Option<f64> {
        self.values.max()
    }

    /// Mean of the values held by the nodes in `block` of `partition`
    /// (the paper's `y(t)` and `z(t)` in Section 2, `µ₁(t)`/`µ₂(t)` in
    /// Section 3).
    ///
    /// # Panics
    ///
    /// Panics if the partition refers to nodes outside this state.
    pub fn block_mean(&self, partition: &Partition, block: gossip_graph::partition::Block) -> f64 {
        let nodes = partition.block(block);
        if nodes.is_empty() {
            return 0.0;
        }
        nodes.iter().map(|&v| self.get(v)).sum::<f64>() / nodes.len() as f64
    }

    /// Replaces the values at `u` and `v` by their arithmetic mean — the
    /// "vanilla" update.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn average_pair(&mut self, u: NodeId, v: NodeId) {
        let avg = 0.5 * (self.get(u) + self.get(v));
        self.set(u, avg);
        self.set(v, avg);
    }

    /// Applies the general convex pairwise update of the paper's class `C`:
    ///
    /// * `x_u ← α·x_u + (1−α)·x_v`
    /// * `x_v ← α·x_v + (1−α)·x_u(old)`
    ///
    /// with `α ∈ [0, 1]`.  `α = 1/2` recovers [`Self::average_pair`]; note the
    /// update uses the *old* values on both lines, as in the paper.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `α ∉ [0, 1]`.
    pub fn convex_pair_update(&mut self, u: NodeId, v: NodeId, alpha: f64) {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "convex update requires alpha in [0, 1], got {alpha}"
        );
        let xu = self.get(u);
        let xv = self.get(v);
        self.set(u, alpha * xu + (1.0 - alpha) * xv);
        self.set(v, alpha * xv + (1.0 - alpha) * xu);
    }

    /// Applies the paper's non-convex mass-transfer update at the designated
    /// cut edge `(u, v)` with coefficient `gamma` (the paper uses
    /// `gamma = n₁`):
    ///
    /// * `x_u ← x_u + gamma·(x_v − x_u)`
    /// * `x_v ← x_v − gamma·(x_v − x_u)`
    ///
    /// The sum `x_u + x_v` is conserved for every `gamma`; convexity holds
    /// only for `gamma ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn transfer_pair_update(&mut self, u: NodeId, v: NodeId, gamma: f64) {
        let xu = self.get(u);
        let xv = self.get(v);
        let delta = gamma * (xv - xu);
        self.set(u, xu + delta);
        self.set(v, xv - delta);
    }

    /// Crate-internal: reassembles a state from checkpointed parts — the
    /// value vector plus the *exact* (possibly drifted) moment tracker it
    /// carried when captured.  No finiteness check and no tracker rebuild:
    /// a restored run must continue with bit-identical sums, drift and all.
    pub(crate) fn from_parts(values: Vector, moments: MomentTracker) -> Self {
        NodeValues { values, moments }
    }

    /// Checks that every entry is finite.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NonFiniteValue`] identifying the first bad node.
    pub fn check_finite(&self) -> Result<()> {
        if let Some(node) = self.values.iter().position(|v| !v.is_finite()) {
            return Err(SimError::NonFiniteValue { node });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::generators::dumbbell;
    use gossip_graph::partition::Block;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-10
    }

    #[test]
    fn constructors_and_accessors() {
        let v = NodeValues::constant(3, 2.5);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.get(NodeId(1)), 2.5);
        assert_eq!(v.as_slice(), &[2.5, 2.5, 2.5]);
        assert!(close(v.sum(), 7.5));
        assert!(close(v.variance(), 0.0));

        let w = NodeValues::from_values(vec![1.0, 2.0]).unwrap();
        assert_eq!(w.as_vector().len(), 2);
        assert_eq!(w.min(), Some(1.0));
        assert_eq!(w.max(), Some(2.0));

        assert!(NodeValues::from_values(vec![1.0, f64::NAN]).is_err());
        assert!(NodeValues::from_vector(Vector::from(vec![f64::INFINITY])).is_err());
    }

    #[test]
    fn set_and_check_finite() {
        let mut v = NodeValues::constant(2, 0.0);
        v.set(NodeId(0), 5.0);
        assert_eq!(v.get(NodeId(0)), 5.0);
        assert!(v.check_finite().is_ok());
        v.set(NodeId(1), f64::NAN);
        assert!(matches!(
            v.check_finite(),
            Err(SimError::NonFiniteValue { node: 1 })
        ));
    }

    #[test]
    fn average_pair_conserves_sum_and_reduces_variance() {
        let mut v = NodeValues::from_values(vec![4.0, 0.0, 10.0]).unwrap();
        let sum = v.sum();
        let var = v.variance();
        v.average_pair(NodeId(0), NodeId(1));
        assert!(close(v.sum(), sum));
        assert!(v.variance() <= var + 1e-12);
        assert_eq!(v.get(NodeId(0)), 2.0);
        assert_eq!(v.get(NodeId(1)), 2.0);
    }

    #[test]
    fn convex_update_matches_definition() {
        let mut v = NodeValues::from_values(vec![1.0, -1.0]).unwrap();
        v.convex_pair_update(NodeId(0), NodeId(1), 0.75);
        assert!(close(v.get(NodeId(0)), 0.75 - 0.25));
        assert!(close(v.get(NodeId(1)), -0.75 + 0.25));
        // α = 1 is the identity.
        let mut w = NodeValues::from_values(vec![3.0, 7.0]).unwrap();
        w.convex_pair_update(NodeId(0), NodeId(1), 1.0);
        assert_eq!(w.as_slice(), &[3.0, 7.0]);
        // α = 1/2 is the vanilla average.
        let mut z = NodeValues::from_values(vec![3.0, 7.0]).unwrap();
        z.convex_pair_update(NodeId(0), NodeId(1), 0.5);
        assert_eq!(z.as_slice(), &[5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "alpha in [0, 1]")]
    fn convex_update_rejects_bad_alpha() {
        let mut v = NodeValues::constant(2, 0.0);
        v.convex_pair_update(NodeId(0), NodeId(1), 1.5);
    }

    #[test]
    fn transfer_update_conserves_sum_but_may_increase_variance() {
        let mut v = NodeValues::from_values(vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let sum = v.sum();
        let var = v.variance();
        // gamma = 3 (non-convex) moves three units of mass.
        v.transfer_pair_update(NodeId(0), NodeId(1), 3.0);
        assert!(close(v.sum(), sum));
        assert!(close(v.get(NodeId(0)), 1.0 + 3.0 * (0.0 - 1.0)));
        assert!(close(v.get(NodeId(1)), 0.0 - 3.0 * (0.0 - 1.0)));
        // Short-term skew: the variance increased.
        assert!(v.variance() > var);
        // gamma = 1 swaps the two values.
        let mut w = NodeValues::from_values(vec![2.0, 5.0]).unwrap();
        w.transfer_pair_update(NodeId(0), NodeId(1), 1.0);
        assert_eq!(w.as_slice(), &[5.0, 2.0]);
    }

    #[test]
    fn block_means_on_dumbbell() {
        let (_, partition) = dumbbell(3).unwrap();
        // V1 = {0,1,2}, V2 = {3,4,5}.
        let v = NodeValues::from_values(vec![1.0, 1.0, 1.0, -2.0, -2.0, -2.0]).unwrap();
        assert!(close(v.block_mean(&partition, Block::One), 1.0));
        assert!(close(v.block_mean(&partition, Block::Two), -2.0));
        // Within-block disagreement leaves the block means unchanged.
        let w = NodeValues::from_values(vec![2.0, 0.0, 1.0, -2.0, -2.0, -2.0]).unwrap();
        assert!(close(w.block_mean(&partition, Block::One), 1.0));
    }

    #[test]
    fn moments_stay_in_sync_with_every_update_kind() {
        let mut v = NodeValues::from_values(vec![4.0, 0.0, 10.0, -2.0]).unwrap();
        assert!(close(v.incremental_mean(), v.mean()));
        assert!(close(v.incremental_variance(), v.variance()));
        v.average_pair(NodeId(0), NodeId(1));
        v.convex_pair_update(NodeId(1), NodeId(2), 0.7);
        v.transfer_pair_update(NodeId(2), NodeId(3), 3.0);
        v.set(NodeId(0), -5.5);
        assert!((v.incremental_mean() - v.mean()).abs() < 1e-12);
        assert!((v.incremental_variance() - v.variance()).abs() < 1e-10);
        assert!(v.moments_finite());
        // An exact refresh pins the moments back to the full-pass values.
        v.refresh_moments();
        assert_eq!(v.moments().refreshes(), 1);
        assert!((v.incremental_variance() - v.variance()).abs() < 1e-12);
    }

    #[test]
    fn moments_detect_non_finite_values_in_o1() {
        let mut v = NodeValues::constant(3, 1.0);
        assert!(v.moments_finite());
        v.set(NodeId(2), f64::NAN);
        assert!(!v.moments_finite());
        assert!(v.check_finite().is_err());
    }

    #[test]
    fn equality_ignores_tracker_history() {
        // Same values reached through different histories compare equal.
        let mut a = NodeValues::from_values(vec![1.0, 3.0]).unwrap();
        a.average_pair(NodeId(0), NodeId(1));
        let b = NodeValues::from_values(vec![2.0, 2.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn equality_excludes_drifted_trackers_and_refresh_reconciles_them() {
        // Regression test for the PartialEq contract: trackers are
        // *intentionally* excluded from equality.  Drive one state through
        // many O(1) updates so its tracker accumulates drift, then compare
        // against a freshly constructed copy of the same values.
        let mut evolved = NodeValues::from_values(vec![4.0, 0.0, 10.0, -2.0, 1.5]).unwrap();
        for step in 0..2000usize {
            let i = NodeId(step % 5);
            let j = NodeId((step + 1 + step % 3) % 5);
            if i != j {
                evolved.convex_pair_update(i, j, 0.25 + 0.5 * ((step % 7) as f64 / 7.0));
            }
        }
        let fresh = NodeValues::from_values(evolved.as_slice().to_vec()).unwrap();
        // Equal as states, even though the evolved tracker carries drift the
        // fresh one does not.
        assert_eq!(evolved, fresh);
        // After an exact refresh the trackers agree bitwise: both are now
        // the pure function of the (equal) values.
        let mut reconciled = evolved.clone();
        reconciled.refresh_moments();
        assert_eq!(
            reconciled.incremental_variance().to_bits(),
            fresh.incremental_variance().to_bits()
        );
        assert_eq!(
            reconciled.incremental_mean().to_bits(),
            fresh.incremental_mean().to_bits()
        );
    }

    proptest! {
        #[test]
        fn prop_pairwise_updates_conserve_sum(
            xs in proptest::collection::vec(-100.0f64..100.0, 2..20),
            alpha in 0.0f64..1.0,
            gamma in -5.0f64..5.0,
            i in 0usize..20,
            j in 0usize..20,
        ) {
            let n = xs.len();
            let (i, j) = (i % n, j % n);
            prop_assume!(i != j);
            let mut v = NodeValues::from_values(xs).unwrap();
            let sum = v.sum();
            v.convex_pair_update(NodeId(i), NodeId(j), alpha);
            prop_assert!((v.sum() - sum).abs() < 1e-7);
            v.transfer_pair_update(NodeId(i), NodeId(j), gamma);
            prop_assert!((v.sum() - sum).abs() < 1e-6);
            v.average_pair(NodeId(i), NodeId(j));
            prop_assert!((v.sum() - sum).abs() < 1e-6);
        }

        #[test]
        fn prop_convex_update_never_increases_variance(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..16),
            alpha in 0.0f64..1.0,
            i in 0usize..16,
            j in 0usize..16,
        ) {
            let n = xs.len();
            let (i, j) = (i % n, j % n);
            prop_assume!(i != j);
            let mut v = NodeValues::from_values(xs).unwrap();
            let var = v.variance();
            v.convex_pair_update(NodeId(i), NodeId(j), alpha);
            prop_assert!(v.variance() <= var + 1e-9);
        }

        #[test]
        fn prop_incremental_moments_track_exact_recompute(
            xs in proptest::collection::vec(-50.0f64..50.0, 2..16),
            alpha in 0.0f64..1.0,
            gamma in -3.0f64..3.0,
            i in 0usize..16,
            j in 0usize..16,
        ) {
            let n = xs.len();
            let (i, j) = (i % n, j % n);
            prop_assume!(i != j);
            let mut v = NodeValues::from_values(xs).unwrap();
            v.convex_pair_update(NodeId(i), NodeId(j), alpha);
            v.transfer_pair_update(NodeId(i), NodeId(j), gamma);
            v.average_pair(NodeId(i), NodeId(j));
            prop_assert!((v.incremental_mean() - v.mean()).abs() < 1e-9);
            prop_assert!((v.incremental_variance() - v.variance()).abs() < 1e-7);
        }

        #[test]
        fn prop_convex_update_stays_in_range(
            xs in proptest::collection::vec(-10.0f64..10.0, 2..12),
            alpha in 0.0f64..1.0,
            i in 0usize..12,
            j in 0usize..12,
        ) {
            let n = xs.len();
            let (i, j) = (i % n, j % n);
            prop_assume!(i != j);
            let mut v = NodeValues::from_values(xs.clone()).unwrap();
            let lo = v.min().unwrap();
            let hi = v.max().unwrap();
            v.convex_pair_update(NodeId(i), NodeId(j), alpha);
            prop_assert!(v.min().unwrap() >= lo - 1e-9);
            prop_assert!(v.max().unwrap() <= hi + 1e-9);
        }
    }
}
