//! Incremental first and second moments of the node state.
//!
//! Definition 1 stops a run when `var X(t) / var X(0)` crosses `1/e²`, but a
//! fresh variance pass is O(n) — which is why earlier revisions of the bench
//! harness only evaluated the stopping rule every `|E|/10` ticks and thereby
//! overshot every measured averaging time by up to the check interval.
//! [`MomentTracker`] removes that trade-off: it carries the running sum
//! `Σ xᵢ` and sum of squares `Σ xᵢ²`, each updated in O(1) whenever a node
//! value changes (pairwise averages, convex updates, and the non-convex
//! transfer all mutate exactly two entries), so the mean and variance are
//! available in O(1) at every tick.
//!
//! Floating-point deltas drift, so the tracker is paired with a
//! **deterministic periodic exact recompute**: the simulation engine calls
//! [`MomentTracker::refresh`] on a fixed tick schedule
//! (`SimulationConfig::moment_refresh_every_ticks`, default
//! `2¹⁶ = 65 536` ticks), which rebuilds both sums with a full O(n) pass and
//! thereby bounds the accumulated error between refreshes.  On unit-scale
//! states the drift over one window is far below `1e-9`, the margin the
//! differential-oracle suite pins (`tests/moment_differential.rs`).
//!
//! The sums are kept **shifted by the state's mean** (re-centred at every
//! exact pass): the naive uncentred `Σ xᵢ²/n − (Σ xᵢ/n)²` loses all digits
//! to cancellation when the values share a large common offset — an error
//! the clamp would then silently turn into false convergence — whereas
//! around the shift the residual sum stays near zero and the formula is
//! numerically benign.  Pairwise gossip updates conserve the sum, so the
//! shift chosen at construction remains valid between refreshes.

use serde::{Deserialize, Serialize};

/// Running (shifted) sum and sum-of-squares of a state vector, maintained in
/// O(1) per single-entry update.
///
/// # Examples
///
/// ```
/// use gossip_sim::moments::MomentTracker;
///
/// let mut tracker = MomentTracker::from_slice(&[4.0, 0.0, 2.0]);
/// assert!((tracker.mean() - 2.0).abs() < 1e-12);
/// // Replace the 4.0 entry by 1.0 in O(1).
/// tracker.record_update(4.0, 1.0);
/// assert!((tracker.mean() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MomentTracker {
    len: usize,
    /// The common offset subtracted from every value before summing; the
    /// state's mean as of the last exact pass.
    shift: f64,
    /// `Σ (xᵢ − shift)`.
    sum: f64,
    /// `Σ (xᵢ − shift)²`.
    sum_sq: f64,
    refreshes: u64,
}

impl MomentTracker {
    /// Builds the tracker with one exact O(n) pass over `values` (two
    /// sweeps: the mean for the shift, then the shifted sums).
    pub fn from_slice(values: &[f64]) -> Self {
        let (shift, sum, sum_sq) = exact_shifted_sums(values);
        MomentTracker {
            len: values.len(),
            shift,
            sum,
            sum_sq,
            refreshes: 0,
        }
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tracked vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The running sum `Σ xᵢ`, reconstructed from the shifted sum.
    pub fn sum(&self) -> f64 {
        self.shift * self.len as f64 + self.sum
    }

    /// The running sum of squares `Σ xᵢ²`, reconstructed from the shifted
    /// sums.  Beware: for large-offset states this reconstruction has the
    /// very cancellation the shifted representation exists to avoid — use
    /// [`Self::variance`] for anything convergence-related.
    pub fn sum_of_squares(&self) -> f64 {
        // Σ x² = Σ (d + s)² = Σ d² + 2·s·Σ d + n·s², with d = x − s.
        self.sum_sq + 2.0 * self.shift * self.sum + self.len as f64 * self.shift * self.shift
    }

    /// The mean `Σ xᵢ / n` in O(1); `0.0` for the empty vector.
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.shift + self.sum / self.len as f64
        }
    }

    /// The population variance in O(1), computed around the shift:
    /// `Σ dᵢ²/n − (Σ dᵢ/n)²` with `dᵢ = xᵢ − shift` (shift-invariant, and
    /// numerically benign because the shift tracks the mean).
    ///
    /// Tiny *negative* results (possible through float drift between
    /// refreshes, or residual cancellation) are clamped to `0.0` so no
    /// stopping rule ever sees a negative variance or forms a NaN ratio from
    /// one.  Non-finite results are returned as-is — a NaN or ±∞ here means
    /// the state itself is poisoned or out of range, which the caller must
    /// surface rather than mask (`NaN.max(0.0)` would silently report `0.0`,
    /// i.e. false convergence).
    pub fn variance(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let centered_mean = self.sum / self.len as f64;
        let raw = self.sum_sq / self.len as f64 - centered_mean * centered_mean;
        if raw.is_finite() {
            raw.max(0.0)
        } else {
            raw
        }
    }

    /// Returns `true` if both running sums are finite.  A NaN or infinite
    /// node value makes at least one sum non-finite (NaN is sticky under the
    /// delta updates), so this is an O(1) stand-in for the O(n)
    /// `check_finite` pass on the hot path.  Finite values can also land
    /// here when their squared deviations overflow `f64` — callers decide
    /// (see the engine) whether that is an error or merely "not converged".
    pub fn is_finite(&self) -> bool {
        self.sum.is_finite() && self.sum_sq.is_finite()
    }

    /// Returns `true` when the state's mean has drifted so far from the
    /// shift that [`Self::variance`] is about to lose its digits to
    /// cancellation, and the caller should re-centre with an exact
    /// [`Self::refresh`].
    ///
    /// Pairwise gossip updates conserve the sum, so for every algorithm in
    /// this workspace the drifted-mean term stays at rounding-noise level
    /// and this never fires.  It exists for custom [`EdgeTickHandler`]s that
    /// re-baseline the state through the public `set` API: without the
    /// guard, a large post-construction offset would make `Σ dᵢ²/n − d̄²` a
    /// difference of two huge nearly-equal numbers whose clamped result
    /// could read as instant false convergence until the next scheduled
    /// refresh.  The `1e8` factor trips while the subtraction still has ~8
    /// good digits.
    ///
    /// [`EdgeTickHandler`]: ../handler/trait.EdgeTickHandler.html
    pub fn needs_recenter(&self) -> bool {
        if self.len == 0 {
            return false;
        }
        let drifted_mean = self.sum / self.len as f64;
        let raw = self.sum_sq / self.len as f64 - drifted_mean * drifted_mean;
        drifted_mean * drifted_mean > 1e8 * raw.abs().max(f64::MIN_POSITIVE)
    }

    /// Applies the O(1) delta for one entry changing from `old` to `new`.
    pub fn record_update(&mut self, old: f64, new: f64) {
        let d_old = old - self.shift;
        let d_new = new - self.shift;
        self.sum += d_new - d_old;
        self.sum_sq += d_new * d_new - d_old * d_old;
    }

    /// Rebuilds both sums with an exact O(n) pass, re-centring the shift on
    /// the current mean (the scheduled drift bound), and counts the refresh.
    pub fn refresh(&mut self, values: &[f64]) {
        debug_assert_eq!(values.len(), self.len, "tracker length must match");
        let (shift, sum, sum_sq) = exact_shifted_sums(values);
        self.shift = shift;
        self.sum = sum;
        self.sum_sq = sum_sq;
        self.refreshes += 1;
    }

    /// Number of exact refreshes performed since construction.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Crate-internal: the full raw state `(len, shift, sum, sum_sq,
    /// refreshes)` for checkpointing.  Paired with
    /// [`Self::from_raw_parts`], which reinstalls the *exact* drifted sums
    /// — a checkpointed tracker must resume bit-identically, which a
    /// rebuild-from-values pass would not (it loses the accumulated drift).
    pub(crate) fn to_raw_parts(self) -> (usize, f64, f64, f64, u64) {
        (self.len, self.shift, self.sum, self.sum_sq, self.refreshes)
    }

    /// Crate-internal: rebuilds a tracker from checkpointed raw state.  See
    /// [`Self::to_raw_parts`].
    pub(crate) fn from_raw_parts(
        len: usize,
        shift: f64,
        sum: f64,
        sum_sq: f64,
        refreshes: u64,
    ) -> Self {
        MomentTracker {
            len,
            shift,
            sum,
            sum_sq,
            refreshes,
        }
    }
}

fn exact_shifted_sums(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let shift = values.iter().sum::<f64>() / values.len() as f64;
    let sum = values.iter().map(|x| x - shift).sum();
    let sum_sq = values.iter().map(|x| (x - shift) * (x - shift)).sum();
    (shift, sum, sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_matches_direct_formulas() {
        let xs = [4.0, 0.0, 2.0];
        let t = MomentTracker::from_slice(&xs);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.sum() - 6.0).abs() < 1e-12);
        assert!((t.sum_of_squares() - 20.0).abs() < 1e-12);
        assert!((t.mean() - 2.0).abs() < 1e-12);
        // var = 20/3 - 4 = 8/3.
        assert!((t.variance() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_degenerate_but_safe() {
        let t = MomentTracker::from_slice(&[]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert!(t.is_finite());
    }

    #[test]
    fn record_update_tracks_a_mirror_vector() {
        let mut xs = vec![1.0, -2.0, 0.5, 3.0, -0.25];
        let mut t = MomentTracker::from_slice(&xs);
        // A deterministic mutation sequence touching every index.
        for step in 0..1000usize {
            let i = (step * 7) % xs.len();
            let new = (step as f64 * 0.37).sin();
            t.record_update(xs[i], new);
            xs[i] = new;
        }
        let exact = MomentTracker::from_slice(&xs);
        assert!((t.sum() - exact.sum()).abs() < 1e-9);
        assert!((t.variance() - exact.variance()).abs() < 1e-9);
    }

    #[test]
    fn refresh_resets_drift_and_counts() {
        let xs = vec![0.1, 0.2, 0.3];
        let mut t = MomentTracker::from_slice(&xs);
        // Poison the running sums with artificial drift, then refresh.
        t.record_update(0.0, 1e-7);
        assert_eq!(t.refreshes(), 0);
        t.refresh(&xs);
        assert_eq!(t.refreshes(), 1);
        let exact = MomentTracker::from_slice(&xs);
        assert_eq!(t.sum().to_bits(), exact.sum().to_bits());
        assert_eq!(
            t.sum_of_squares().to_bits(),
            exact.sum_of_squares().to_bits()
        );
    }

    #[test]
    fn tiny_negative_variance_is_clamped_to_zero() {
        // Drive the running second moment slightly below n·mean² by hand:
        // constant vector, then a delta pair that cancels in `sum` but leaves
        // `sum_sq` a few ulps short.
        let mut t = MomentTracker::from_slice(&[1.0, 1.0, 1.0]);
        t.record_update(1.0, 1.0 + 1e-16);
        t.record_update(1.0 + 1e-16, 1.0);
        // Whatever the exact rounding, the result must never be negative.
        assert!(t.variance() >= 0.0);
        assert!(t.variance() < 1e-12);
    }

    #[test]
    fn large_offset_states_keep_full_relative_precision() {
        // 1e8 offset with a ~1e-4 spread: the uncentred Σx²/n − mean²
        // formula loses every digit here (absolute error ~ mean²·ε ≈ 2), and
        // its clamp would report variance 0 — false convergence.  The
        // shifted representation must stay within full relative precision.
        let xs: Vec<f64> = (0..100).map(|i| 1e8 + i as f64 * 1e-4).collect();
        let t = MomentTracker::from_slice(&xs);
        let exact = {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
        };
        assert!(exact > 1e-7, "test vector must have genuine spread");
        assert!((t.variance() - exact).abs() < 1e-6 * exact);
        // And O(1) updates on the offset state stay precise too.
        let mut t = t;
        let mut xs = xs;
        for step in 0..1000usize {
            let i = (step * 13) % xs.len();
            let new = 1e8 + (step as f64 * 0.29).sin() * 1e-4;
            t.record_update(xs[i], new);
            xs[i] = new;
        }
        let exact = {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64
        };
        assert!((t.variance() - exact).abs() < 1e-6 * exact.max(1e-12));
        assert!((t.mean() - 1e8).abs() < 1.0);
    }

    #[test]
    fn post_construction_rebaseline_is_flagged_for_recentring() {
        // Shift chosen at construction (mean 0); a handler-style rebaseline
        // moves every entry to 1e8 + noise.  The stale shift makes the O(1)
        // variance cancellation-prone, which needs_recenter must flag — and
        // a refresh must clear.
        let n = 100usize;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) - 0.5).collect();
        let mut t = MomentTracker::from_slice(&xs);
        assert!(!t.needs_recenter());
        let moved: Vec<f64> = xs.iter().map(|x| 1e8 + x).collect();
        for (&old, &new) in xs.iter().zip(moved.iter()) {
            t.record_update(old, new);
        }
        assert!(t.needs_recenter(), "1e8 rebaseline must trip the guard");
        t.refresh(&moved);
        assert!(!t.needs_recenter());
        let exact_var = {
            let mean = moved.iter().sum::<f64>() / n as f64;
            moved.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64
        };
        assert!((t.variance() - exact_var).abs() < 1e-6 * exact_var);
    }

    #[test]
    fn refresh_recentres_the_shift() {
        // Construct around mean 0, then move the whole state far away; the
        // refresh must adopt the new mean as its shift.
        let mut t = MomentTracker::from_slice(&[1.0, -1.0]);
        t.record_update(1.0, 1e9 + 1.0);
        t.record_update(-1.0, 1e9 - 1.0);
        t.refresh(&[1e9 + 1.0, 1e9 - 1.0]);
        assert!((t.mean() - 1e9).abs() < 1e-3);
        assert!((t.variance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_values_are_detected_and_not_masked() {
        let mut t = MomentTracker::from_slice(&[1.0, 2.0]);
        assert!(t.is_finite());
        t.record_update(1.0, f64::NAN);
        assert!(!t.is_finite());
        // The clamp must not turn a NaN variance into 0.0 (false
        // convergence); it propagates instead.
        assert!(t.variance().is_nan());
        // NaN is sticky: removing the entry again does not repair the sums…
        t.record_update(f64::NAN, 1.0);
        assert!(!t.is_finite());
        // …only an exact refresh does.
        t.refresh(&[1.0, 2.0]);
        assert!(t.is_finite());
    }

    #[test]
    fn infinities_poison_the_sums() {
        let mut t = MomentTracker::from_slice(&[0.0, 0.0]);
        t.record_update(0.0, f64::INFINITY);
        assert!(!t.is_finite());
    }
}
