//! Empirical estimation of the averaging time of Definition 1.
//!
//! The paper defines `T_av` as (essentially) the earliest time `t` such that,
//! for the worst initial vector, the probability that the normalized variance
//! `var X(T)/var X(0)` ever exceeds `1/e²` again after `t` is below `1/e`.
//! The estimator here makes that operational:
//!
//! 1. run `R` independent simulations from a given initial condition (by
//!    default the adversarial cut-aligned vector from Section 2: `+1` on `V₁`
//!    and `−n₁/n₂` on `V₂`, which is the vector the lower-bound proof uses
//!    and empirically the worst case for sparse-cut instances);
//! 2. for each run record the **settling time** — the last checked time at
//!    which the normalized variance was still `≥ 1/e²` (runs continue until
//!    the variance has fallen well below the threshold, so later excursions
//!    by non-monotone algorithms such as Algorithm A are captured).  The
//!    engine tracks this in O(1) per tick against the incremental moment
//!    tracker, so the per-tick check resolution costs neither time nor
//!    memory;
//! 3. report the `(1 − 1/e)`-quantile of the settling times, the empirical
//!    analogue of Definition 1, along with the mean and the raw samples.
//!
//! Runs that hit the per-run time cap **or** the hard event budget are
//! *censored* observations: their settling time is recorded as the last time
//! the variance was still above the threshold when the run was cut off, and
//! they are counted in [`AveragingTimeEstimate::censored_runs`] rather than
//! aborting the whole estimate.
//!
//! The runs are i.i.d. sample paths — each a pure function of its derived
//! per-run seed — so the estimator fans them out over the scoped threads of
//! a [`gossip_exec::Executor`].  Results are collected **in run order**,
//! which makes the estimate byte-identical to the serial one at any job
//! count; [`EstimatorConfig::jobs`] (default: the available parallelism)
//! sets the fan-out width.

use crate::{CoreError, Result};
use gossip_exec::Executor;
use gossip_graph::{Graph, Partition};
use gossip_sim::engine::{AsyncSimulator, ClockModel, SimulationConfig};
use gossip_sim::handler::EdgeTickHandler;
use gossip_sim::stopping::{StoppingRule, DEFINITION1_THRESHOLD};
use gossip_sim::values::NodeValues;
use gossip_sim::SimError;

/// Each run continues until the variance ratio falls below
/// `DEFINITION1_THRESHOLD × CONFIRMATION_FACTOR` (or the time cap), so that
/// late excursions above the threshold are observed.
const CONFIRMATION_FACTOR: f64 = 0.05;

/// Configuration of the estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Base RNG seed; run `r` uses `seed + r`.
    pub seed: u64,
    /// Number of independent runs.
    pub runs: usize,
    /// Hard cap on simulated time per run.
    pub max_time: f64,
    /// Hard cap on processed events per run; a run exhausting it is recorded
    /// as a censored observation.
    pub max_events: u64,
    /// Which clock sampler to use.
    pub clock_model: ClockModel,
    /// Worker threads the independent runs fan out over.  `None` (the
    /// default) means the machine's available parallelism; `Some(1)`
    /// forces the serial path.  Every setting produces byte-identical
    /// estimates — runs are collected in run order — so this knob only
    /// changes wall-clock time.
    pub jobs: Option<usize>,
}

impl EstimatorConfig {
    /// Creates a configuration with the given seed and defaults (15 runs,
    /// per-edge clocks).
    pub fn new(seed: u64) -> Self {
        EstimatorConfig {
            seed,
            runs: 15,
            max_time: 1e6,
            max_events: 200_000_000,
            clock_model: ClockModel::PerEdgeQueue,
            jobs: None,
        }
    }

    /// Sets the number of runs.
    pub fn with_runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the per-run time cap.
    pub fn with_max_time(mut self, max_time: f64) -> Self {
        self.max_time = max_time;
        self
    }

    /// Selects the clock sampler.
    pub fn with_clock_model(mut self, model: ClockModel) -> Self {
        self.clock_model = model;
        self
    }

    /// Sets the worker-thread override for the run fan-out (see
    /// [`Self::jobs`]).
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.runs == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "estimator requires at least one run".into(),
            });
        }
        if !(self.max_time > 0.0 && self.max_time.is_finite()) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "max_time must be positive and finite, got {}",
                    self.max_time
                ),
            });
        }
        if self.max_events == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_events must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// The estimator's result.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragingTimeEstimate {
    /// The reported averaging time: the `(1 − 1/e)`-quantile of the per-run
    /// settling times (Definition 1).
    pub averaging_time: f64,
    /// Mean of the per-run settling times.
    pub mean_settling_time: f64,
    /// Maximum per-run settling time observed.
    pub max_settling_time: f64,
    /// The raw settling time of every run, in run order.
    pub settling_times: Vec<f64>,
    /// Number of runs whose variance ratio actually dropped below the
    /// confirmation level before the time cap.
    pub confirmed_runs: usize,
    /// Number of runs that hit the time cap or exhausted the event budget
    /// instead (their settling time is censored at the point the run was cut
    /// off and the estimate is a lower bound).
    pub censored_runs: usize,
}

impl AveragingTimeEstimate {
    /// `true` if every run converged below the confirmation level (no
    /// censoring).
    pub fn fully_confirmed(&self) -> bool {
        self.censored_runs == 0
    }
}

/// Derives the simulation seed of run `run` from the estimator's base seed.
///
/// A plain `base + run` would make estimators with nearby base seeds share
/// most of their sample paths (runs {s, s+1, …} and {s+1, s+2, …} overlap),
/// which silently correlates experiments that pick adjacent seeds and can
/// even make their reported quantiles collide bit-for-bit.  Mixing with
/// splitmix64 gives every `(base, run)` pair an effectively independent
/// stream while staying a pure function of the pinned seed.
fn derive_run_seed(base: u64, run: u64) -> u64 {
    let mut z = base ^ run.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Monte-Carlo estimator of Definition 1's averaging time.
#[derive(Debug, Clone)]
pub struct AveragingTimeEstimator {
    config: EstimatorConfig,
}

impl AveragingTimeEstimator {
    /// Creates an estimator.
    pub fn new(config: EstimatorConfig) -> Self {
        AveragingTimeEstimator { config }
    }

    /// The adversarial initial condition of Section 2: `+1` on `V₁`,
    /// `−n₁/n₂` on `V₂` (mean exactly zero).
    pub fn adversarial_initial(partition: &Partition) -> NodeValues {
        let n1 = partition.block_one_size() as f64;
        let n2 = partition.block_two_size() as f64;
        let mut values = vec![0.0; partition.node_count()];
        for &node in partition.block_one() {
            values[node.index()] = 1.0;
        }
        for &node in partition.block_two() {
            values[node.index()] = -n1 / n2;
        }
        NodeValues::from_values(values).expect("finite by construction")
    }

    /// Estimates the averaging time of the algorithm produced by `factory`
    /// starting from the adversarial cut-aligned initial condition.
    ///
    /// `factory` is called once per run so that algorithms with internal
    /// state (counters, RNGs, memory) start fresh each time.  It must be
    /// `Sync`: runs fan out over worker threads, each calling the factory
    /// for its own fresh handler (the handler itself never crosses
    /// threads).
    ///
    /// # Errors
    ///
    /// Returns configuration errors and propagates simulation failures.
    pub fn estimate<H, F>(
        &self,
        graph: &Graph,
        partition: &Partition,
        factory: F,
    ) -> Result<AveragingTimeEstimate>
    where
        H: EdgeTickHandler,
        F: Fn() -> H + Sync,
    {
        let initial = Self::adversarial_initial(partition);
        self.estimate_with_initial(graph, &initial, factory)
    }

    /// Estimates the averaging time from an explicit initial condition.
    ///
    /// The independent runs are distributed over an [`Executor`] whose
    /// width is [`EstimatorConfig::jobs`] (default: the available
    /// parallelism).  Results are collected in run order, so the
    /// estimate — every settling time, the quantile, the censoring counts,
    /// and any propagated error — is byte-identical to the serial one.
    ///
    /// # Errors
    ///
    /// Returns configuration errors and propagates simulation failures (for
    /// parallel runs, the failure of the lowest-numbered failing run, which
    /// is exactly what the serial loop reported).
    pub fn estimate_with_initial<H, F>(
        &self,
        graph: &Graph,
        initial: &NodeValues,
        factory: F,
    ) -> Result<AveragingTimeEstimate>
    where
        H: EdgeTickHandler,
        F: Fn() -> H + Sync,
    {
        self.config.validate()?;
        let initial_variance = initial.variance();

        // One task per run: a pure function of the derived per-run seed,
        // returning (confirmed?, settling time).
        let run_one = |run: usize| -> gossip_sim::Result<(bool, f64)> {
            let seed = derive_run_seed(self.config.seed, run as u64);
            let stop =
                StoppingRule::variance_ratio_below(DEFINITION1_THRESHOLD * CONFIRMATION_FACTOR)
                    .or_max_time(self.config.max_time);
            let sim_config = SimulationConfig::new(seed)
                .with_stopping_rule(stop)
                .with_clock_model(self.config.clock_model)
                .with_max_events(self.config.max_events)
                .with_settling_threshold(DEFINITION1_THRESHOLD);
            let mut simulator = AsyncSimulator::new(graph, initial.clone(), factory(), sim_config)?;
            let confirmed = match simulator.run() {
                Ok(outcome) => outcome.converged(),
                // A run that exhausts its hard event budget is censored,
                // exactly like one that hits the time cap: the algorithm had
                // not confirmed convergence when the budget ran out, but the
                // settling observation up to that point is still valid.
                Err(SimError::EventBudgetExhausted { .. }) => false,
                Err(other) => return Err(other),
            };
            // The engine tracked the last checked time with the normalized
            // variance still at or above the threshold — valid even when the
            // run ended in budget exhaustion.
            let settle = if initial_variance <= 0.0 {
                0.0
            } else {
                simulator.settling_time()
            };
            Ok((confirmed, settle))
        };
        let executor = Executor::with_override(self.config.jobs);
        let observations = executor.try_map_indexed(self.config.runs, run_one)?;

        let mut settling_times = Vec::with_capacity(self.config.runs);
        let mut confirmed_runs = 0usize;
        let mut censored_runs = 0usize;
        for (confirmed, settle) in observations {
            if confirmed {
                confirmed_runs += 1;
            } else {
                censored_runs += 1;
            }
            settling_times.push(settle);
        }

        let mut sorted = settling_times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("settling times are finite"));
        // Definition 1 reports the (1 − 1/e)-quantile of the settling times.
        let quantile = 1.0 - (-1.0f64).exp();
        let index = ((quantile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        let averaging_time = sorted[index];
        let mean_settling_time = settling_times.iter().sum::<f64>() / settling_times.len() as f64;
        let max_settling_time = sorted.last().copied().unwrap_or(0.0);

        Ok(AveragingTimeEstimate {
            averaging_time,
            mean_settling_time,
            max_settling_time,
            settling_times,
            confirmed_runs,
            censored_runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convex::VanillaGossip;
    use crate::sparse_cut::{SparseCutAlgorithm, SparseCutConfig};
    use gossip_graph::generators::{complete, dumbbell};
    use gossip_graph::Partition;

    #[test]
    fn config_validation() {
        let bad_runs = EstimatorConfig::new(1).with_runs(0);
        let bad_time = EstimatorConfig::new(1).with_max_time(0.0);
        let (g, p) = dumbbell(3).unwrap();
        for config in [bad_runs, bad_time] {
            let est = AveragingTimeEstimator::new(config);
            assert!(est.estimate(&g, &p, VanillaGossip::new).is_err());
        }
    }

    #[test]
    fn adversarial_initial_has_zero_mean_and_unit_block_values() {
        let (_, p) = dumbbell(5).unwrap();
        let v = AveragingTimeEstimator::adversarial_initial(&p);
        assert!(v.mean().abs() < 1e-12);
        assert_eq!(v.get(gossip_graph::NodeId(0)), 1.0);
        assert_eq!(v.get(gossip_graph::NodeId(9)), -1.0);
        // Asymmetric case: block two holds −n1/n2.
        let (g2, _) = dumbbell(2).unwrap();
        let p2 = Partition::from_block_one(&g2, &[gossip_graph::NodeId(0)]).unwrap();
        let v2 = AveragingTimeEstimator::adversarial_initial(&p2);
        assert!((v2.get(gossip_graph::NodeId(3)) + 1.0 / 3.0).abs() < 1e-12);
        assert!(v2.mean().abs() < 1e-12);
    }

    #[test]
    fn vanilla_on_complete_graph_settles_quickly() {
        let g = complete(10).unwrap();
        let p =
            Partition::from_block_one(&g, &(0..5).map(gossip_graph::NodeId).collect::<Vec<_>>())
                .unwrap();
        let est =
            AveragingTimeEstimator::new(EstimatorConfig::new(7).with_runs(5).with_max_time(500.0));
        let result = est.estimate(&g, &p, VanillaGossip::new).unwrap();
        assert!(result.fully_confirmed());
        assert_eq!(result.settling_times.len(), 5);
        assert!(result.averaging_time > 0.0);
        assert!(result.averaging_time <= result.max_settling_time + 1e-12);
        assert!(result.mean_settling_time <= result.max_settling_time + 1e-12);
        // A complete graph on 10 nodes averages in a handful of time units.
        assert!(result.averaging_time < 20.0);
    }

    #[test]
    fn zero_variance_initial_settles_immediately() {
        let g = complete(4).unwrap();
        let est = AveragingTimeEstimator::new(EstimatorConfig::new(3).with_runs(3));
        let initial = NodeValues::constant(4, 1.0);
        let result = est
            .estimate_with_initial(&g, &initial, VanillaGossip::new)
            .unwrap();
        assert_eq!(result.averaging_time, 0.0);
        assert!(result.fully_confirmed());
    }

    #[test]
    fn censoring_reported_when_time_cap_too_small() {
        // Vanilla gossip on the dumbbell needs Ω(n1) time; cap far below it.
        let (g, p) = dumbbell(16).unwrap();
        let est =
            AveragingTimeEstimator::new(EstimatorConfig::new(5).with_runs(3).with_max_time(0.5));
        let result = est.estimate(&g, &p, VanillaGossip::new).unwrap();
        assert_eq!(result.censored_runs, 3);
        assert!(!result.fully_confirmed());
    }

    #[test]
    fn event_budget_exhaustion_is_censored_not_fatal() {
        // 500 events on a 241-edge dumbbell is ~2 time units of simulated
        // time — nowhere near the Ω(n1) the convex class needs, so every run
        // exhausts the budget.  That must censor, not abort.
        let (g, p) = dumbbell(16).unwrap();
        let mut config = EstimatorConfig::new(5).with_runs(3).with_max_time(50.0);
        config.max_events = 500;
        let est = AveragingTimeEstimator::new(config);
        let result = est.estimate(&g, &p, VanillaGossip::new).unwrap();
        assert_eq!(result.censored_runs, 3);
        assert_eq!(result.confirmed_runs, 0);
        assert!(!result.fully_confirmed());
        // The censored settling observation is the last time the variance
        // was still above threshold, i.e. roughly where the budget ran out.
        assert!(result.averaging_time > 0.0);
        assert!(result.averaging_time < 50.0);
    }

    #[test]
    fn zero_event_budget_is_rejected() {
        let (g, p) = dumbbell(3).unwrap();
        let mut config = EstimatorConfig::new(1);
        config.max_events = 0;
        let est = AveragingTimeEstimator::new(config);
        assert!(est.estimate(&g, &p, VanillaGossip::new).is_err());
    }

    #[test]
    fn algorithm_a_beats_vanilla_on_dumbbell_estimates() {
        // At small n Algorithm A's epoch overhead C·ln n·T_van can exceed the
        // convex Θ(n₁) cost, so use a moderately sized instance and the
        // moderate epoch constant C = 2 to test the asymptotic relationship.
        let (g, p) = dumbbell(20).unwrap();
        let est = AveragingTimeEstimator::new(
            EstimatorConfig::new(11)
                .with_runs(5)
                .with_max_time(20_000.0),
        );
        let vanilla = est.estimate(&g, &p, VanillaGossip::new).unwrap();
        let algo_a = est
            .estimate(&g, &p, || {
                SparseCutAlgorithm::from_partition(
                    &g,
                    &p,
                    SparseCutConfig::new().with_epoch_constant(2.0),
                )
                .expect("valid partition")
            })
            .unwrap();
        assert!(vanilla.fully_confirmed());
        assert!(algo_a.fully_confirmed());
        assert!(
            algo_a.averaging_time < vanilla.averaging_time,
            "Algorithm A ({}) should beat vanilla ({}) on the dumbbell",
            algo_a.averaging_time,
            vanilla.averaging_time
        );
    }

    #[test]
    fn parallel_estimates_are_byte_identical_to_serial() {
        let (g, p) = dumbbell(6).unwrap();
        let estimate_at = |jobs: usize| {
            AveragingTimeEstimator::new(
                EstimatorConfig::new(13)
                    .with_runs(6)
                    .with_max_time(2_000.0)
                    .with_jobs(Some(jobs)),
            )
            .estimate(&g, &p, VanillaGossip::new)
            .unwrap()
        };
        let serial = estimate_at(1);
        for jobs in [2, 4, 16] {
            let parallel = estimate_at(jobs);
            assert_eq!(serial, parallel, "jobs = {jobs}");
            for (a, b) in serial
                .settling_times
                .iter()
                .zip(parallel.settling_times.iter())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn parallel_error_matches_serial_first_failing_run() {
        // A handler that poisons the state makes every run fail; serial and
        // parallel estimators must report the same error (the lowest run's).
        struct Poison;
        impl gossip_sim::handler::EdgeTickHandler for Poison {
            fn on_edge_tick(
                &mut self,
                values: &mut gossip_sim::values::NodeValues,
                _ctx: &gossip_sim::handler::EdgeTickContext<'_>,
            ) {
                values.set(gossip_graph::NodeId(0), f64::NAN);
            }
        }
        let (g, p) = dumbbell(4).unwrap();
        let run = |jobs: usize| {
            AveragingTimeEstimator::new(EstimatorConfig::new(3).with_runs(4).with_jobs(Some(jobs)))
                .estimate(&g, &p, || Poison)
                .unwrap_err()
        };
        assert_eq!(run(1).to_string(), run(4).to_string());
    }

    #[test]
    fn quantile_selection_is_order_statistic() {
        // With quantile ~0.63 and 5 runs, the 4th smallest settling time is
        // reported (ceil(0.632 * 5) = 4).
        let (g, p) = dumbbell(4).unwrap();
        let est = AveragingTimeEstimator::new(
            EstimatorConfig::new(2).with_runs(5).with_max_time(5_000.0),
        );
        let result = est.estimate(&g, &p, VanillaGossip::new).unwrap();
        let mut sorted = result.settling_times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((result.averaging_time - sorted[3]).abs() < 1e-12);
    }
}
