//! Stopping rules for simulations.
//!
//! Definition 1 of the paper measures convergence through the normalized
//! variance `var X(T) / var X(0)`; the canonical stopping rule is therefore
//! "the variance ratio dropped below a threshold" (the paper uses `1/e²`),
//! combined with safety limits on simulated time and tick count so that runs
//! of slow algorithms (the whole point of Theorem 1) still terminate.

/// The threshold `1/e²` from Definition 1.
pub const DEFINITION1_THRESHOLD: f64 = 0.135_335_283_236_612_7;

/// A snapshot of the quantities stopping rules may look at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationStatus {
    /// Current simulated time.
    pub time: f64,
    /// Number of edge ticks processed so far.
    pub ticks: u64,
    /// Current variance of the node values.
    pub variance: f64,
    /// Variance of the initial node values.
    pub initial_variance: f64,
}

impl SimulationStatus {
    /// The normalized variance `var X(t) / var X(0)`; `0.0` if the initial
    /// variance was zero (already averaged).
    ///
    /// The ratio is clamped at zero so a tiny negative `variance` (possible
    /// float drift of the incremental moment tracker between its exact
    /// refreshes) can never be reported, and a NaN ratio is mapped to `+∞`
    /// ("not converged") so a poisoned variance can never satisfy a
    /// below-threshold rule.
    pub fn variance_ratio(&self) -> f64 {
        if self.initial_variance <= 0.0 {
            return 0.0;
        }
        let ratio = self.variance / self.initial_variance;
        if ratio.is_nan() {
            f64::INFINITY
        } else {
            ratio.max(0.0)
        }
    }
}

/// Why a simulation stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The variance-ratio threshold was reached.
    Converged,
    /// The maximum simulated time was reached.
    TimeLimit,
    /// The maximum number of ticks was reached.
    TickLimit,
}

/// A composable stopping rule.
#[derive(Debug, Clone, PartialEq)]
pub enum StoppingRule {
    /// Stop (as [`StopReason::Converged`]) once
    /// `var X(t) / var X(0) < threshold`.
    VarianceRatioBelow {
        /// Threshold on the normalized variance.
        threshold: f64,
    },
    /// Stop (as [`StopReason::TimeLimit`]) once simulated time reaches the
    /// limit.
    MaxTime {
        /// Time limit.
        limit: f64,
    },
    /// Stop (as [`StopReason::TickLimit`]) once this many ticks have been
    /// processed.
    MaxTicks {
        /// Tick limit.
        limit: u64,
    },
    /// Stop as soon as any of the sub-rules fires (reporting the first
    /// matching reason in order).
    Any(Vec<StoppingRule>),
}

impl StoppingRule {
    /// Rule: stop when the variance ratio drops below `threshold`.
    pub fn variance_ratio_below(threshold: f64) -> Self {
        StoppingRule::VarianceRatioBelow { threshold }
    }

    /// Rule: stop when the variance ratio drops below the paper's `1/e²`.
    pub fn definition1() -> Self {
        Self::variance_ratio_below(DEFINITION1_THRESHOLD)
    }

    /// Rule: stop when simulated time reaches `limit`.
    pub fn max_time(limit: f64) -> Self {
        StoppingRule::MaxTime { limit }
    }

    /// Rule: stop after `limit` ticks.
    pub fn max_ticks(limit: u64) -> Self {
        StoppingRule::MaxTicks { limit }
    }

    /// Combines this rule with a time limit (whichever fires first).
    pub fn or_max_time(self, limit: f64) -> Self {
        self.or(StoppingRule::max_time(limit))
    }

    /// Combines this rule with a tick limit (whichever fires first).
    pub fn or_max_ticks(self, limit: u64) -> Self {
        self.or(StoppingRule::max_ticks(limit))
    }

    /// Combines two rules: stop when either fires.
    pub fn or(self, other: StoppingRule) -> Self {
        match self {
            StoppingRule::Any(mut rules) => {
                rules.push(other);
                StoppingRule::Any(rules)
            }
            rule => StoppingRule::Any(vec![rule, other]),
        }
    }

    /// Evaluates the rule; returns the reason to stop, or `None` to continue.
    pub fn evaluate(&self, status: &SimulationStatus) -> Option<StopReason> {
        match self {
            StoppingRule::VarianceRatioBelow { threshold } => {
                if status.variance_ratio() < *threshold {
                    Some(StopReason::Converged)
                } else {
                    None
                }
            }
            StoppingRule::MaxTime { limit } => {
                if status.time >= *limit {
                    Some(StopReason::TimeLimit)
                } else {
                    None
                }
            }
            StoppingRule::MaxTicks { limit } => {
                if status.ticks >= *limit {
                    Some(StopReason::TickLimit)
                } else {
                    None
                }
            }
            StoppingRule::Any(rules) => rules.iter().find_map(|r| r.evaluate(status)),
        }
    }
}

impl Default for StoppingRule {
    /// The default rule is Definition 1's threshold guarded by a generous
    /// tick limit.
    fn default() -> Self {
        StoppingRule::definition1().or_max_ticks(50_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(time: f64, ticks: u64, variance: f64, initial: f64) -> SimulationStatus {
        SimulationStatus {
            time,
            ticks,
            variance,
            initial_variance: initial,
        }
    }

    #[test]
    fn variance_ratio_handles_zero_initial_variance() {
        let s = status(0.0, 0, 0.0, 0.0);
        assert_eq!(s.variance_ratio(), 0.0);
        let rule = StoppingRule::definition1();
        assert_eq!(rule.evaluate(&s), Some(StopReason::Converged));
    }

    #[test]
    fn variance_ratio_clamps_drift_and_rejects_nan() {
        // Tiny negative variance (incremental drift): clamped, converged.
        let s = status(1.0, 5, -1e-15, 1.0);
        assert_eq!(s.variance_ratio(), 0.0);
        assert_eq!(
            StoppingRule::definition1().evaluate(&s),
            Some(StopReason::Converged)
        );
        // NaN variance: mapped to +∞, never "converged".
        let s = status(1.0, 5, f64::NAN, 1.0);
        assert_eq!(s.variance_ratio(), f64::INFINITY);
        assert_eq!(StoppingRule::definition1().evaluate(&s), None);
    }

    #[test]
    fn variance_ratio_maps_infinities_and_degenerate_initials() {
        // +∞ variance (finite values whose squared deviations overflow f64,
        // the engine's "overflowed" episode): never converged.
        let s = status(1.0, 5, f64::INFINITY, 1.0);
        assert_eq!(s.variance_ratio(), f64::INFINITY);
        assert_eq!(StoppingRule::definition1().evaluate(&s), None);
        // ∞/∞ forms a NaN ratio, which must also map to +∞, not converge.
        let s = status(1.0, 5, f64::INFINITY, f64::INFINITY);
        assert_eq!(s.variance_ratio(), f64::INFINITY);
        assert_eq!(StoppingRule::definition1().evaluate(&s), None);
        // A (nonsensical) negative initial variance is treated like zero:
        // already averaged.
        let s = status(1.0, 5, 1.0, -1.0);
        assert_eq!(s.variance_ratio(), 0.0);
        // NaN initial variance: `initial <= 0.0` is false for NaN, so the
        // ratio path runs and the NaN maps to +∞ — a poisoned baseline can
        // never read as converged.
        let s = status(1.0, 5, 1.0, f64::NAN);
        assert_eq!(s.variance_ratio(), f64::INFINITY);
        assert_eq!(StoppingRule::definition1().evaluate(&s), None);
    }

    #[test]
    fn variance_rule_fires_only_below_threshold() {
        let rule = StoppingRule::variance_ratio_below(0.1);
        assert_eq!(rule.evaluate(&status(1.0, 5, 0.5, 1.0)), None);
        assert_eq!(
            rule.evaluate(&status(1.0, 5, 0.05, 1.0)),
            Some(StopReason::Converged)
        );
        // Exactly at threshold: not yet below.
        assert_eq!(rule.evaluate(&status(1.0, 5, 0.1, 1.0)), None);
    }

    #[test]
    fn time_and_tick_limits() {
        assert_eq!(
            StoppingRule::max_time(10.0).evaluate(&status(10.0, 0, 1.0, 1.0)),
            Some(StopReason::TimeLimit)
        );
        assert_eq!(
            StoppingRule::max_time(10.0).evaluate(&status(9.9, 0, 1.0, 1.0)),
            None
        );
        assert_eq!(
            StoppingRule::max_ticks(100).evaluate(&status(0.0, 100, 1.0, 1.0)),
            Some(StopReason::TickLimit)
        );
        assert_eq!(
            StoppingRule::max_ticks(100).evaluate(&status(0.0, 99, 1.0, 1.0)),
            None
        );
    }

    #[test]
    fn combined_rules_report_first_matching_reason() {
        let rule = StoppingRule::definition1()
            .or_max_time(50.0)
            .or_max_ticks(1000);
        // Nothing fires.
        assert_eq!(rule.evaluate(&status(1.0, 1, 1.0, 1.0)), None);
        // Convergence wins when it applies, regardless of later rules.
        assert_eq!(
            rule.evaluate(&status(100.0, 5000, 0.0, 1.0)),
            Some(StopReason::Converged)
        );
        // Otherwise the time limit is checked next.
        assert_eq!(
            rule.evaluate(&status(100.0, 5000, 1.0, 1.0)),
            Some(StopReason::TimeLimit)
        );
        // And finally the tick limit.
        assert_eq!(
            rule.evaluate(&status(1.0, 5000, 1.0, 1.0)),
            Some(StopReason::TickLimit)
        );
    }

    #[test]
    fn or_flattens_any() {
        let rule = StoppingRule::definition1()
            .or(StoppingRule::max_time(1.0))
            .or(StoppingRule::max_ticks(10));
        if let StoppingRule::Any(rules) = &rule {
            assert_eq!(rules.len(), 3);
        } else {
            panic!("expected Any");
        }
    }

    #[test]
    fn default_rule_contains_definition1() {
        let rule = StoppingRule::default();
        assert_eq!(
            rule.evaluate(&status(0.0, 0, 0.1, 1.0)),
            Some(StopReason::Converged)
        );
        // The guard tick limit also fires eventually.
        assert_eq!(
            rule.evaluate(&status(0.0, 100_000_000, 1.0, 1.0)),
            Some(StopReason::TickLimit)
        );
    }

    #[test]
    fn definition1_threshold_value() {
        assert!((DEFINITION1_THRESHOLD - (-2.0f64).exp()).abs() < 1e-15);
    }
}
