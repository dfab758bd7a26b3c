//! Experiment runners E1–E10 plus the Scale, SimScale, MemScale,
//! Robustness, Perf and Adversary tiers.
//!
//! Every function is deterministic given the [`HarnessConfig`] (all
//! randomness is seeded), returns structured data plus a rendered
//! [`Table`], and is sized so that the full harness finishes in minutes on a
//! laptop in `--release`.
//!
//! Scenario rows are independent seeded computations, so every tier fans
//! them out over a [`gossip_exec::Executor`] ([`HarnessConfig::jobs`] wide,
//! default: the available parallelism) with **ordered
//! collection**: rows land in their input positions, so every table and
//! JSON report is byte-identical to the serial order at any job count (only
//! wall-clock columns, where present, vary).  `--jobs 1` reproduces the
//! historical serial execution exactly.

use crate::probes::{CutTickProbe, EpochProbe};
use crate::table::Table;
use crate::trial::{lock, run_trials, schema, Cells};
use gossip_analysis::dominance::DominanceReport;
use gossip_analysis::random_walk::simple_walk_tail_frequency;
use gossip_analysis::{concentration, regression, robust, stats};
use gossip_core::averaging_time::{AveragingTimeEstimate, AveragingTimeEstimator, EstimatorConfig};
use gossip_core::bounds;
use gossip_core::convex::{RandomNeighborGossip, VanillaGossip, WeightedConvexGossip};
use gossip_core::diffusion::{FirstOrderDiffusion, SecondOrderDiffusion};
use gossip_core::sparse_cut::{SparseCutAlgorithm, SparseCutConfig, TransferCoefficient};
use gossip_core::two_time_scale::TwoTimeScaleGossip;
use gossip_exec::Executor;
use gossip_graph::{Graph, NodeId};
use gossip_sim::checkpoint::EngineCheckpoint;
use gossip_sim::engine::{AsyncSimulator, ClockModel, SimulationConfig};
use gossip_sim::stopping::StoppingRule;
use gossip_sim::sync::{RoundHandler, SyncConfig, SyncSimulator};
use gossip_sim::values::NodeValues;
use gossip_sim::SimError;
use gossip_store::{CheckpointRecord, RunStore, TrialKey};
use gossip_workloads::adversary::AdversaryCase;
use gossip_workloads::churn::ChurnCase;
use gossip_workloads::scenarios::robustness_suite;
use gossip_workloads::sweep;
use gossip_workloads::{ExperimentId, InitialCondition, Scenario};
use std::sync::Mutex;

/// Convenience error type of the harness (it aggregates errors from every
/// workspace crate, so a boxed error keeps the signatures readable).
pub type BenchError = Box<dyn std::error::Error + Send + Sync>;

/// Result alias for harness functions.
pub type BenchResult<T> = Result<T, BenchError>;

/// Global configuration of the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessConfig {
    /// Quick mode: fewer runs and smaller maximum sizes (used by tests and
    /// CI); full mode runs the sizes the README's tier sections quote.
    pub quick: bool,
    /// Base seed; every experiment derives its own sub-seeds from it.
    pub seed: u64,
    /// Worker threads the tiers fan their scenario rows out over.  `None`
    /// means the available parallelism; `Some(1)` forces the serial path.  Every setting produces byte-identical tables
    /// and reports (wall-clock columns aside) — rows are collected in input
    /// order.
    pub jobs: Option<usize>,
    /// Mid-run checkpoint cadence in ticks, threaded into the tiers whose
    /// long relaxations support checkpoint capture (currently MEM_SCALE's
    /// timed runs).  `0` (the default) disables capture; in a store-backed
    /// run, captured checkpoints are committed to the tier's `.ckpt.jsonl`
    /// log and a resumed run restores from the newest one.
    pub checkpoint_every_ticks: u64,
    /// Per-trial wall-clock budget threaded into the simulation configs the
    /// tiers build themselves: E4, E5, SIM_SCALE, MEM_SCALE, ROBUSTNESS,
    /// ADVERSARY and the PERF throughput rows.  Estimator-backed trials
    /// (DUMBBELL, E6, E7, E8, E10 and the PERF estimator rows) and E7's
    /// synchronous baselines never receive it.  A trial whose engine run
    /// exceeds it is *censored*: journaled with an explicit
    /// `deadline_censored` reason and skipped, never hanging or failing the
    /// sweep.  `None` (the default) means no deadline.
    pub trial_deadline: Option<std::time::Duration>,
}

impl HarnessConfig {
    /// Quick configuration (small sweeps, few runs).
    pub fn quick() -> Self {
        HarnessConfig {
            quick: true,
            seed: 0xC0FFEE,
            jobs: None,
            checkpoint_every_ticks: 0,
            trial_deadline: None,
        }
    }

    /// Full configuration (the sizes the README's tier sections quote).
    pub fn full() -> Self {
        HarnessConfig {
            quick: false,
            seed: 0xC0FFEE,
            jobs: None,
            checkpoint_every_ticks: 0,
            trial_deadline: None,
        }
    }

    fn runs(&self) -> usize {
        if self.quick {
            3
        } else {
            7
        }
    }

    fn max_dumbbell_n(&self) -> usize {
        if self.quick {
            64
        } else {
            256
        }
    }

    /// The row-level executor of this harness run.
    pub(crate) fn executor(&self) -> Executor {
        Executor::with_override(self.jobs)
    }

    /// Applies the per-trial wall-clock deadline to a simulation config.
    /// The deadline is what makes a wedged run surface as
    /// `SimError::DeadlineExceeded`, which the trial supervision in
    /// [`run_trials`] turns into a journaled `deadline_censored` record
    /// instead of a hung sweep.
    fn apply_deadline(&self, sim_config: SimulationConfig) -> SimulationConfig {
        match self.trial_deadline {
            Some(deadline) => sim_config.with_wall_clock_deadline(deadline),
            None => sim_config,
        }
    }

    fn estimator(&self, seed_offset: u64, max_time: f64) -> AveragingTimeEstimator {
        // Estimators built here run inside a tier's row-level fan-out, so
        // their own run fan-out is pinned to one job: the rows already keep
        // every worker busy, and a nested fan-out per row would start
        // threads of its own and oversubscribe the machine without changing
        // any output (the PERF tier, which times estimator-level
        // parallelism deliberately, builds its own estimators).
        AveragingTimeEstimator::new(
            EstimatorConfig::new(self.seed.wrapping_add(seed_offset))
                .with_runs(self.runs())
                .with_max_time(max_time)
                .with_jobs(Some(1)),
        )
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self::quick()
    }
}

fn fmt(v: f64) -> String {
    Table::fmt_f64(v)
}

/// A tier table's title: `<id>: <descriptor title>`.
fn title(id: ExperimentId) -> String {
    format!("{id}: {}", id.descriptor().title)
}

// ---------------------------------------------------------------------------
// E1–E3: the dumbbell sweep.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of the dumbbell sweep (experiments E1–E3).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DumbbellSweepRow {
        /// Total number of nodes.
        pub n: usize,
        /// Theorem 1 quantity `min(n1,n2)/|E12|`.
        pub lower_bound: f64,
        /// Theorem 2 quantity `C·ln n·(T_van(G1)+T_van(G2))` with the default C.
        pub upper_bound: f64,
        /// Measured averaging time of vanilla gossip.
        pub vanilla: f64,
        /// Measured averaging time of weighted convex gossip (α = 0.7).
        pub weighted: f64,
        /// Measured averaging time of random-neighbour gossip.
        pub random_neighbor: f64,
        /// Measured averaging time of Algorithm A.
        pub algorithm_a: f64,
    }
}

/// Runs the dumbbell sweep shared by experiments E1, E2 and E3 (journaled
/// under the single `DUMBBELL` token, since the three tables render the
/// same trials): measured averaging times of the class-`C` algorithms and
/// Algorithm A, one row per doubling graph size.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_dumbbell_sweep(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<Vec<DumbbellSweepRow>> {
    let sizes = sweep::dumbbell_size_sweep(16, config.max_dumbbell_n());
    run_trials(
        config,
        store,
        "DUMBBELL",
        &sizes,
        Scenario::fingerprint,
        |index, scenario, _| -> BenchResult<DumbbellSweepRow> {
            let instance = scenario.instantiate(config.seed)?;
            let graph = &instance.graph;
            let partition = &instance.partition;
            let summary = bounds::BoundsSummary::compute(graph, partition, 4.0)?;
            // Convex algorithms need Θ(n1) time; give them ample head-room.
            let max_time = 60.0 * summary.convex_lower_bound + 500.0;
            let estimator = config.estimator(index as u64 * 101, max_time);

            let vanilla = estimator.estimate(graph, partition, VanillaGossip::new)?;
            let weighted = estimator.estimate(graph, partition, || {
                WeightedConvexGossip::new(0.7).expect("valid alpha")
            })?;
            let random_neighbor = {
                let seed = config.seed.wrapping_add(7 + index as u64);
                estimator.estimate(graph, partition, || RandomNeighborGossip::new(seed))?
            };
            let algorithm =
                SparseCutAlgorithm::from_partition(graph, partition, SparseCutConfig::default())?;
            let algorithm_a = estimator.estimate(graph, partition, || algorithm.clone())?;

            Ok(DumbbellSweepRow {
                n: graph.node_count(),
                lower_bound: summary.convex_lower_bound,
                upper_bound: summary.theorem2_upper_bound,
                vanilla: vanilla.averaging_time,
                weighted: weighted.averaging_time,
                random_neighbor: random_neighbor.averaging_time,
                algorithm_a: algorithm_a.averaging_time,
            })
        },
    )
}

/// Table E1: convex averaging times versus the Theorem 1 lower bound.
pub fn table_e1(rows: &[DumbbellSweepRow]) -> Table {
    Table::from_rows(
        title(ExperimentId::E1),
        rows,
        &[
            ("n", |r| r.n.to_string()),
            ("Thm1 bound n1/|E12|", |r| fmt(r.lower_bound)),
            ("vanilla T_av", |r| fmt(r.vanilla)),
            ("weighted(0.7) T_av", |r| fmt(r.weighted)),
            ("random-neighbor T_av", |r| fmt(r.random_neighbor)),
            ("vanilla / bound", |r| fmt(r.vanilla / r.lower_bound)),
        ],
    )
}

/// Table E2: Algorithm A's averaging time versus the Theorem 2 quantity.
pub fn table_e2(rows: &[DumbbellSweepRow]) -> Table {
    Table::from_rows(
        title(ExperimentId::E2),
        rows,
        &[
            ("n", |r| r.n.to_string()),
            ("Thm2 C·ln n·(Tvan1+Tvan2)", |r| fmt(r.upper_bound)),
            ("Algorithm A T_av", |r| fmt(r.algorithm_a)),
            ("A / Thm2", |r| fmt(r.algorithm_a / r.upper_bound)),
        ],
    )
}

/// Table E3: the separation (speed-up) and the fitted scaling exponents.
pub fn table_e3(rows: &[DumbbellSweepRow]) -> Table {
    let ns: Vec<f64> = rows.iter().map(|r| r.n as f64).collect();
    let slope = |time: fn(&DumbbellSweepRow) -> f64| {
        let times: Vec<f64> = rows.iter().map(|r| time(r).max(1e-9)).collect();
        regression::log_log_fit(&ns, &times)
            .ok()
            .map(|fit| fit.slope)
    };
    // The fitted exponents form a trailing summary row.
    let slopes = slope(|r| r.vanilla)
        .zip(slope(|r| r.algorithm_a))
        .map(|(v, a)| ["log-log slope".to_string(), fmt(v), fmt(a), fmt(v - a)]);
    Table::new(
        title(ExperimentId::E3),
        ["n", "vanilla T_av", "Algorithm A T_av", "speed-up"],
        rows.iter()
            .map(|r| {
                [
                    r.n.to_string(),
                    fmt(r.vanilla),
                    fmt(r.algorithm_a),
                    fmt(r.vanilla / r.algorithm_a),
                ]
            })
            .chain(slopes),
    )
}

// ---------------------------------------------------------------------------
// E4: Section 2 proof mechanics.
// ---------------------------------------------------------------------------

schema! { row
    /// Result of experiment E4.
    #[derive(Debug, Clone, PartialEq)]
    pub struct E4Result {
        /// Number of nodes of the instance.
        pub n: usize,
        /// The Section 2 per-tick bound `2/n1`.
        pub per_tick_bound: f64,
        /// Largest observed per-cut-tick movement of `y(t)`.
        pub max_observed_delta: f64,
        /// Number of cut-edge ticks observed by the horizon.
        pub observed_cut_ticks: usize,
        /// Expected number of cut-edge ticks (`horizon · |E12|`).
        pub expected_cut_ticks: f64,
        /// Simulated horizon.
        pub horizon: f64,
        /// Final `var X` and the Section 2 lower bound `n1·y²/n` at the horizon.
        pub final_variance: f64,
        /// The `n1·y²/n` lower bound at the horizon.
        pub variance_lower_bound: f64,
    }
}

/// Runs experiment E4 and renders its table.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e4(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(E4Result, Table)> {
    let half = if config.quick { 32 } else { 64 };
    let horizon = if config.quick { 20.0 } else { 40.0 };
    let mut rows = run_trials(
        config,
        store,
        "E4",
        &[(half, horizon)],
        |(half, horizon)| format!("dumbbell(half={half})+horizon={horizon}"),
        |_, _, _| -> BenchResult<E4Result> {
            let (graph, partition) = gossip_graph::generators::dumbbell(half)?;
            let n1 = partition.smaller_block_size() as f64;
            let initial = AveragingTimeEstimator::adversarial_initial(&partition);
            let probe = CutTickProbe::new(VanillaGossip::new(), partition.clone());
            let sim_config = config.apply_deadline(
                SimulationConfig::new(config.seed.wrapping_add(4))
                    .with_stopping_rule(StoppingRule::max_time(horizon)),
            );
            let mut simulator = AsyncSimulator::new(&graph, initial, probe, sim_config)?;
            let outcome = simulator.run()?;
            let probe = simulator.handler();

            let y = outcome
                .final_values
                .block_mean(&partition, gossip_graph::partition::Block::One);
            Ok(E4Result {
                n: graph.node_count(),
                per_tick_bound: 2.0 / n1,
                max_observed_delta: probe.max_delta(),
                observed_cut_ticks: probe.cut_tick_count(),
                expected_cut_ticks: horizon * partition.cut_edge_count() as f64,
                horizon,
                final_variance: outcome.final_variance,
                variance_lower_bound: n1 * y * y / graph.node_count() as f64,
            })
        },
    )?;
    let result = rows.pop().expect("E4 runs exactly one trial");

    let table = Table::new(
        title(ExperimentId::E4),
        ["quantity", "bound / expectation", "observed"],
        [
            [
                "per-cut-tick |Δy|".to_string(),
                fmt(result.per_tick_bound),
                fmt(result.max_observed_delta),
            ],
            [
                format!("cut ticks by t = {horizon}"),
                fmt(result.expected_cut_ticks),
                result.observed_cut_ticks.to_string(),
            ],
            [
                "var X(t) ≥ n1·y(t)²/n".to_string(),
                fmt(result.variance_lower_bound),
                fmt(result.final_variance),
            ],
        ],
    );
    Ok((result, table))
}

// ---------------------------------------------------------------------------
// E5: Section 3 proof mechanics.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of experiment E5.
    #[derive(Debug, Clone, PartialEq)]
    pub struct E5Row {
        /// Number of nodes.
        pub n: usize,
        /// Number of epochs (transfers) observed.
        pub epochs: usize,
        /// Fraction of epochs achieving the `≤ −(3/2)·log n` contraction.
        pub contraction_fraction: f64,
        /// Fraction of epochs exceeding the `+log n` ceiling.
        pub ceiling_violation_fraction: f64,
        /// Whether the observed log-variance path is dominated pointwise by the
        /// coupled lazy walk.
        pub dominated: bool,
        /// Final observed `log var` drop.
        pub final_observed_drop: f64,
        /// Final value of the coupled dominating walk.
        pub final_dominating: f64,
    }
}

/// Runs experiment E5 and renders its table.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e5(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(Vec<E5Row>, Table)> {
    let halves: Vec<usize> = if config.quick {
        vec![16, 32]
    } else {
        vec![16, 32, 64]
    };
    let maybe_rows = run_trials(
        config,
        store,
        "E5",
        &halves,
        |half| format!("dumbbell(half={half})"),
        |index, &half, _| -> BenchResult<Option<E5Row>> {
            let (graph, partition) = gossip_graph::generators::dumbbell(half)?;
            // Start from a within-block-noisy vector so that several epochs are
            // needed (the clean adversarial vector converges after one transfer).
            let initial = gossip_workloads::InitialCondition::Uniform { lo: -1.0, hi: 1.0 }
                .generate(graph.node_count(), Some(&partition), config.seed ^ 0x55)?;
            let algorithm = SparseCutAlgorithm::from_partition(
                &graph,
                &partition,
                SparseCutConfig::new().with_epoch_constant(2.0),
            )?;
            let designated = algorithm.designated_edge();
            let epoch_ticks = algorithm.epoch_ticks();
            // The probe renormalizes at every epoch boundary, so an arbitrary
            // number of per-epoch contraction factors can be observed without
            // the variance hitting the floating-point floor; stop after a
            // fixed horizon of epochs rather than on convergence.
            let target_epochs: f64 = if config.quick { 12.0 } else { 25.0 };
            let probe = EpochProbe::new(algorithm, designated, epoch_ticks);
            let sim_config = config.apply_deadline(
                SimulationConfig::new(config.seed.wrapping_add(50 + index as u64))
                    .with_stopping_rule(StoppingRule::max_time(
                        (target_epochs + 2.0) * epoch_ticks as f64,
                    )),
            );
            let mut simulator = AsyncSimulator::new(&graph, initial, probe, sim_config)?;
            let _ = simulator.run()?;
            let probe = simulator.handler();
            let increments = probe.log_variance_increments();
            if increments.is_empty() {
                return Ok(None);
            }
            let report = DominanceReport::from_increments(&increments, graph.node_count())?;
            Ok(Some(E5Row {
                n: graph.node_count(),
                epochs: report.epochs,
                contraction_fraction: report.contraction_fraction,
                ceiling_violation_fraction: report.ceiling_violation_fraction,
                dominated: report.dominated_pointwise,
                final_observed_drop: report.final_observed,
                final_dominating: report.final_dominating,
            }))
        },
    )?;
    let rows: Vec<E5Row> = maybe_rows.into_iter().flatten().collect();

    let table = Table::from_rows(
        title(ExperimentId::E5),
        &rows,
        &[
            ("n", |r| r.n.to_string()),
            ("epochs", |r| r.epochs.to_string()),
            ("contraction fraction (≥ 1/2 expected)", |r| {
                fmt(r.contraction_fraction)
            }),
            ("ceiling violations", |r| fmt(r.ceiling_violation_fraction)),
            ("dominated by W~", |r| r.dominated.to_string()),
            ("final log-var drop", |r| fmt(r.final_observed_drop)),
            ("final W~", |r| fmt(r.final_dominating)),
        ],
    );
    Ok((rows, table))
}

// ---------------------------------------------------------------------------
// E6: sensitivity to |E12| and C.
// ---------------------------------------------------------------------------

/// Runs experiment E6 (cut-width and epoch-constant sensitivity) and renders
/// its two tables.  Both sweeps journal under the `E6` token; the cut rows
/// carry a `+part=cut` fingerprint suffix and the epoch-constant rows a
/// `+C=<c>` suffix, so the two groups never collide.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e6(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(Table, Table)> {
    let heading = title(ExperimentId::E6);
    // Part 1: cut width.
    let cluster = if config.quick { 16 } else { 24 };
    let cut_sweep = sweep::cut_width_sweep(cluster, 0.5, if config.quick { 4 } else { 16 });
    let cut_rows = run_trials(
        config,
        store,
        "E6",
        &cut_sweep,
        |scenario| format!("{}+part=cut", scenario.fingerprint()),
        |index, scenario, _| -> BenchResult<Cells<4>> {
            let instance = scenario.instantiate(config.seed.wrapping_add(600 + index as u64))?;
            let graph = &instance.graph;
            let partition = &instance.partition;
            let lower = bounds::theorem1_lower_bound(partition);
            let max_time = 60.0 * lower + 300.0;
            let estimator = config.estimator(700 + index as u64, max_time);
            let vanilla = estimator.estimate(graph, partition, VanillaGossip::new)?;
            let algorithm =
                SparseCutAlgorithm::from_partition(graph, partition, SparseCutConfig::default())?;
            let algo = estimator.estimate(graph, partition, || algorithm.clone())?;
            Ok(Cells([
                partition.cut_edge_count().to_string(),
                fmt(lower),
                fmt(vanilla.averaging_time),
                fmt(algo.averaging_time),
            ]))
        },
    )?;
    let cut_table = Table::new(
        format!("{heading} — cut width"),
        ["|E12|", "Thm1 bound", "vanilla T_av", "Algorithm A T_av"],
        cut_rows.into_iter().map(|Cells(cells)| cells),
    );

    // Part 2: the epoch constant C.
    let half = if config.quick { 16 } else { 32 };
    let (graph, partition) = gossip_graph::generators::dumbbell(half)?;
    let constants = sweep::epoch_constant_sweep(&[]);
    let c_rows = run_trials(
        config,
        store,
        "E6",
        &constants,
        |c| format!("dumbbell(half={half})+C={c}"),
        |index, &c, _| -> BenchResult<Cells<3>> {
            let estimator = config.estimator(800 + index as u64, 4000.0);
            let algorithm = SparseCutAlgorithm::from_partition(
                &graph,
                &partition,
                SparseCutConfig::new().with_epoch_constant(c),
            )?;
            let estimate = estimator.estimate(&graph, &partition, || algorithm.clone())?;
            Ok(Cells([
                fmt(c),
                algorithm.epoch_ticks().to_string(),
                fmt(estimate.averaging_time),
            ]))
        },
    )?;
    let c_table = Table::new(
        format!("{heading} — epoch constant C"),
        ["C", "epoch ticks", "Algorithm A T_av"],
        c_rows.into_iter().map(|Cells(cells)| cells),
    );
    Ok((cut_table, c_table))
}

// ---------------------------------------------------------------------------
// E7: related-work baselines.
// ---------------------------------------------------------------------------

fn sync_settling_time<H: RoundHandler>(
    graph: &Graph,
    initial: NodeValues,
    handler: H,
) -> BenchResult<f64> {
    let config =
        SyncConfig::new().with_stopping_rule(StoppingRule::definition1().or_max_ticks(5_000_000));
    let mut simulator = SyncSimulator::new(graph, initial, handler, config)?;
    let outcome = simulator.run()?;
    Ok(outcome.equivalent_time)
}

/// Runs experiment E7 (baselines on the dumbbell) and renders its table.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e7(config: &HarnessConfig, store: Option<&Mutex<RunStore>>) -> BenchResult<Table> {
    let sizes: Vec<usize> = if config.quick {
        vec![16, 32, 64]
    } else {
        vec![16, 32, 64, 128]
    };
    let rows = run_trials(
        config,
        store,
        "E7",
        &sizes,
        |n| format!("dumbbell(half={})", n / 2),
        |index, &n, _| -> BenchResult<Cells<5>> {
            let (graph, partition) = gossip_graph::generators::dumbbell(n / 2)?;
            let initial = AveragingTimeEstimator::adversarial_initial(&partition);

            let fos = sync_settling_time(&graph, initial.clone(), FirstOrderDiffusion::new())?;
            let sos = sync_settling_time(&graph, initial.clone(), SecondOrderDiffusion::new(1.8)?)?;

            let lower = bounds::theorem1_lower_bound(&partition);
            let estimator = config.estimator(900 + index as u64, 80.0 * lower + 400.0);
            let momentum = estimator.estimate(&graph, &partition, || {
                TwoTimeScaleGossip::for_graph(&graph, 0.7).expect("valid momentum")
            })?;
            let algorithm =
                SparseCutAlgorithm::from_partition(&graph, &partition, SparseCutConfig::default())?;
            let algo = estimator.estimate(&graph, &partition, || algorithm.clone())?;

            Ok(Cells([
                n.to_string(),
                fmt(fos),
                fmt(sos),
                fmt(momentum.averaging_time),
                fmt(algo.averaging_time),
            ]))
        },
    )?;
    Ok(Table::new(
        title(ExperimentId::E7),
        [
            "n",
            "1st-order diffusion",
            "2nd-order diffusion",
            "momentum gossip",
            "Algorithm A",
        ],
        rows.into_iter().map(|Cells(cells)| cells),
    ))
}

// ---------------------------------------------------------------------------
// E8: robustness suite.
// ---------------------------------------------------------------------------

/// Runs experiment E8 (robustness beyond the dumbbell) and renders its table.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e8(config: &HarnessConfig, store: Option<&Mutex<RunStore>>) -> BenchResult<Table> {
    let total = if config.quick { 32 } else { 96 };
    let rows = run_trials(
        config,
        store,
        "E8",
        &robustness_suite(total),
        Scenario::fingerprint,
        |index, scenario, _| -> BenchResult<Cells<7>> {
            let instance = scenario.instantiate(config.seed.wrapping_add(100 + index as u64))?;
            instance.validate_notation1()?;
            let graph = &instance.graph;
            let partition = &instance.partition;
            let lower = bounds::theorem1_lower_bound(partition);
            let estimator = config.estimator(1000 + index as u64, 80.0 * lower + 400.0);
            let vanilla = estimator.estimate(graph, partition, VanillaGossip::new)?;
            let algorithm =
                SparseCutAlgorithm::from_partition(graph, partition, SparseCutConfig::default())?;
            let algo = estimator.estimate(graph, partition, || algorithm.clone())?;
            Ok(Cells([
                instance.name.clone(),
                graph.node_count().to_string(),
                partition.cut_edge_count().to_string(),
                fmt(lower),
                fmt(vanilla.averaging_time),
                fmt(algo.averaging_time),
                fmt(vanilla.averaging_time / algo.averaging_time.max(1e-9)),
            ]))
        },
    )?;
    Ok(Table::new(
        title(ExperimentId::E8),
        [
            "scenario",
            "n",
            "|E12|",
            "Thm1 bound",
            "vanilla T_av",
            "Algorithm A T_av",
            "speed-up",
        ],
        rows.into_iter().map(|Cells(cells)| cells),
    ))
}

// ---------------------------------------------------------------------------
// E9: Theorem 3 tails.
// ---------------------------------------------------------------------------

/// Runs experiment E9 (random-walk tail bound) and renders its table.
///
/// # Errors
///
/// Propagates analysis and journal errors.
pub fn run_e9(config: &HarnessConfig, store: Option<&Mutex<RunStore>>) -> BenchResult<Table> {
    let k = 64;
    let trials = if config.quick { 4_000 } else { 20_000 };
    let thresholds = [0.5, 1.0, 1.5, 2.0, 2.5];
    let rows = run_trials(
        config,
        store,
        "E9",
        &thresholds,
        |s| format!("walk(k={k},s={s},trials={trials})"),
        |_, &s, _| -> BenchResult<Cells<3>> {
            let empirical = simple_walk_tail_frequency(k, s, trials, config.seed.wrapping_add(9));
            let bound = concentration::simple_walk_tail_bound(k, s)?;
            Ok(Cells([fmt(s), fmt(empirical), fmt(bound)]))
        },
    )?;
    Ok(Table::new(
        title(ExperimentId::E9),
        ["s", "empirical P[S_k ≥ s√k]", "Theorem 3 bound e^{−s²/2}"],
        rows.into_iter().map(|Cells(cells)| cells),
    ))
}

// ---------------------------------------------------------------------------
// E10: transfer-coefficient ablation.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of the transfer-coefficient ablation.
    #[derive(Debug, Clone, PartialEq)]
    pub struct E10Row {
        /// Human-readable name of the coefficient choice.
        pub coefficient: String,
        /// Resolved numeric value of γ.
        pub gamma: f64,
        /// Measured averaging time (censored at the cap when not converged).
        pub averaging_time: f64,
        /// Number of runs that failed to reach the confirmation level.
        pub censored_runs: usize,
    }
}

/// Runs experiment E10 (transfer-coefficient ablation) and renders its table.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_e10(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(Vec<E10Row>, Table)> {
    let half = if config.quick { 16 } else { 32 };
    let (graph, partition) = gossip_graph::generators::dumbbell(half)?;
    let n1 = partition.smaller_block_size();
    let n2 = partition.larger_block_size();
    let max_time = 40.0 * bounds::theorem1_lower_bound(&partition) + 200.0;
    let estimator = config.estimator(1100, max_time);

    let choices: Vec<(String, TransferCoefficient)> = vec![
        (
            "exact balance n1·n2/n".to_string(),
            TransferCoefficient::ExactBalance,
        ),
        (
            "paper literal n1".to_string(),
            TransferCoefficient::PaperLiteral,
        ),
        (
            "convex 1.0 (swap)".to_string(),
            TransferCoefficient::Custom(1.0),
        ),
        (
            "convex 0.5 (average)".to_string(),
            TransferCoefficient::Custom(0.5),
        ),
    ];
    let rows = run_trials(
        config,
        store,
        "E10",
        &choices,
        |(_, coefficient)| format!("dumbbell(half={half})+coeff={coefficient:?}"),
        |_, (name, coefficient), _| -> BenchResult<E10Row> {
            let coefficient = *coefficient;
            let algorithm = SparseCutAlgorithm::from_partition(
                &graph,
                &partition,
                SparseCutConfig::new().with_transfer_coefficient(coefficient),
            )?;
            let estimate: AveragingTimeEstimate =
                estimator.estimate(&graph, &partition, || algorithm.clone())?;
            Ok(E10Row {
                coefficient: name.clone(),
                gamma: coefficient.resolve(n1, n2),
                averaging_time: estimate.averaging_time,
                censored_runs: estimate.censored_runs,
            })
        },
    )?;

    let table = Table::from_rows(
        title(ExperimentId::E10),
        &rows,
        &[
            ("transfer coefficient", |r| r.coefficient.clone()),
            ("γ", |r| fmt(r.gamma)),
            ("T_av (capped)", |r| fmt(r.averaging_time)),
            ("censored runs", |r| r.censored_runs.to_string()),
        ],
    );
    Ok((rows, table))
}

// ---------------------------------------------------------------------------
// Scale: the sparse spectral pipeline at large n.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of the scaling-tier experiment: the sparse-path spectral profile
    /// of a bounded-degree sparse-cut family, with wall-clock build/solve times.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScaleRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges (the sparse path is O(|E|) per matvec).
        pub edges: usize,
        /// Cut width `|E12|` of the canonical partition.
        pub cut_edges: usize,
        /// Fiedler value `λ₂` of the Laplacian.
        pub algebraic_connectivity: f64,
        /// Largest Laplacian eigenvalue.
        pub laplacian_lambda_max: f64,
        /// Spectral gap of the expected gossip matrix `W̄`.
        pub gossip_spectral_gap: f64,
        /// Spectral `T_van` estimate in absolute time.
        pub t_van_estimate: f64,
        /// Wall-clock milliseconds to build the graph.  Rows fan out over the
        /// harness executor, so at `jobs > 1` this includes contention from
        /// sibling rows; for timings comparable across machines run with
        /// `--jobs 1`, or use the PERF tier, whose throughput rows are always
        /// timed serially.
        pub build_ms: f64,
        /// Wall-clock milliseconds for the sparse spectral profile
        /// (contention-dependent at `jobs > 1`, like [`Self::build_ms`]).
        pub spectral_ms: f64,
    }
}

schema! { report
    /// The scaling-tier report serialized to `BENCH_scale.json`: the perf
    /// trajectory's seed artifact.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScaleReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed (scenario instantiation only — the spectral pipeline
        /// itself is deterministic).
        pub seed: u64,
        /// The dense/sparse dispatch threshold in effect.
        pub sparse_dispatch_threshold: usize,
        /// Largest dense matrix dimension allocated while the experiment ran —
        /// must stay below the threshold, proving the large-n path is sparse.
        pub largest_dense_dimension: usize,
        /// One row per (size, family) pair.
        pub rows: Vec<ScaleRow>,
    }
    volatile: [build_ms, spectral_ms]
}

/// Runs the scaling-tier experiment: for every size in the scale grid and
/// every bounded-degree family, pushes a `SpectralProfile` + `T_van`
/// estimate through the sparse CSR/Lanczos path and records timings.
///
/// On a resumed run, `largest_dense_dimension` only reflects the trials
/// computed *this* process: fully replayed rows allocate nothing, so the
/// tracker legitimately reads 0 — the sparse-path claim was already proven
/// when the rows were first committed.
///
/// # Errors
///
/// Propagates graph-construction, eigensolver and journal errors.
pub fn run_scale(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(ScaleReport, Table)> {
    gossip_linalg::matrix::reset_largest_dense_dimension();
    // The dense-dimension tracker is a process-global atomic (fetch_max), so
    // concurrent rows feed it exactly like serial rows do.
    let rows = run_trials(
        config,
        store,
        "SCALE",
        &sweep::scale_sweep(config.quick),
        Scenario::fingerprint,
        |index, scenario, _| -> BenchResult<ScaleRow> {
            let build_start = std::time::Instant::now();
            let instance = scenario.instantiate(config.seed.wrapping_add(1200 + index as u64))?;
            let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
            let spectral_start = std::time::Instant::now();
            let profile = gossip_graph::spectral::SpectralProfile::compute(&instance.graph)?;
            let t_van = profile.vanilla_averaging_time_estimate();
            let spectral_ms = spectral_start.elapsed().as_secs_f64() * 1e3;
            Ok(ScaleRow {
                family: instance.name.clone(),
                n: instance.graph.node_count(),
                edges: instance.graph.edge_count(),
                cut_edges: instance.partition.cut_edge_count(),
                algebraic_connectivity: profile.algebraic_connectivity,
                laplacian_lambda_max: profile.laplacian_lambda_max,
                gossip_spectral_gap: profile.gossip_spectral_gap,
                t_van_estimate: t_van,
                build_ms,
                spectral_ms,
            })
        },
    )?;
    let report = ScaleReport {
        quick: config.quick,
        seed: config.seed,
        sparse_dispatch_threshold: gossip_graph::spectral::SPARSE_DISPATCH_THRESHOLD,
        largest_dense_dimension: gossip_linalg::matrix::largest_dense_dimension(),
        rows,
    };

    let table = Table::from_rows(
        title(ExperimentId::Scale),
        &report.rows,
        &[
            ("family", |r| r.family.clone()),
            ("n", |r| r.n.to_string()),
            ("|E|", |r| r.edges.to_string()),
            ("|E12|", |r| r.cut_edges.to_string()),
            ("λ₂", |r| fmt(r.algebraic_connectivity)),
            ("λ_max", |r| fmt(r.laplacian_lambda_max)),
            ("gossip gap", |r| fmt(r.gossip_spectral_gap)),
            ("T_van est", |r| fmt(r.t_van_estimate)),
            ("build ms", |r| fmt(r.build_ms)),
            ("spectral ms", |r| fmt(r.spectral_ms)),
        ],
    );
    Ok((report, table))
}

// ---------------------------------------------------------------------------
// SimScale: the asynchronous simulation at large n.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of the simulation scaling-tier experiment: a complete
    /// asynchronous run to the Definition 1 stop with per-tick O(1) checking.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimScaleRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges.
        pub edges: usize,
        /// Which initial condition was used (`arc-adversarial` or `uniform`).
        pub initial: String,
        /// Edge ticks processed until the run stopped.
        pub ticks: u64,
        /// Simulated time at which the run stopped.
        pub stop_time: f64,
        /// Why the run stopped (expected: `Converged`).
        pub stop_reason: String,
        /// Final normalized variance `var X(T)/var X(0)` (exact recompute).
        pub variance_ratio: f64,
        /// Scheduled exact moment refreshes performed during the run — the only
        /// O(n) variance passes on the hot path.
        pub moment_refreshes: u64,
        /// Wall-clock milliseconds for the run.  Rows fan out over the harness
        /// executor, so at `jobs > 1` this includes contention from sibling
        /// rows; for clean throughput numbers run with `--jobs 1`, or use the
        /// PERF tier, whose throughput rows are always timed serially.
        pub wall_ms: f64,
        /// Event throughput (ticks per wall-clock second; contention-dependent
        /// at `jobs > 1`, like [`Self::wall_ms`]).
        pub ticks_per_sec: f64,
    }
}

schema! { report
    /// The simulation scaling-tier report serialized to `BENCH_sim_scale.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SimScaleReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed.
        pub seed: u64,
        /// Exact-refresh period of the incremental moments, in ticks.
        pub moment_refresh_every_ticks: u64,
        /// One row per (size, family) pair.
        pub rows: Vec<SimScaleRow>,
    }
    volatile: [wall_ms, ticks_per_sec]
}

/// How a tier runs its timed vanilla relaxations: SIM_SCALE, MEM_SCALE and
/// PERF's throughput section differ only in these.
#[derive(Debug, Clone, Copy)]
struct Relaxation {
    /// The journal token the trial and its checkpoints are filed under.
    experiment: &'static str,
    /// The instance, initial-vector and clock seeds are the harness seed
    /// plus this offset, +100 and +200, each plus the trial index.
    seed_offset: u64,
    /// Whether the chordal ring starts from the arc-adversarial vector;
    /// every other start is uniform on `[-1, 1]`.
    adversarial_ring: bool,
    /// Mid-run checkpoint cadence in ticks; `0` captures nothing.
    checkpoint_every_ticks: u64,
}

impl Relaxation {
    /// Runs trial `index` on `scenario`: a vanilla relaxation under the
    /// global uniform clock to the Definition 1 stop (capped at 2·10⁹ ticks
    /// and 4·10⁹ events) within the trial deadline, timed from simulator
    /// construction to the stop.  It reports a [`SimScaleRow`], which
    /// MEM_SCALE and PERF copy their fields from.
    ///
    /// With a non-zero checkpoint cadence and a `store`, the run resumes
    /// from the newest checkpoint committed under `key`, if any, and commits
    /// each new one to `store` as it goes; the engine guarantees restored
    /// and checkpointing runs are bit-identical to an uninterrupted one.
    fn run(
        self,
        config: &HarnessConfig,
        store: Option<&Mutex<RunStore>>,
        index: usize,
        scenario: &Scenario,
        key: TrialKey,
    ) -> BenchResult<SimScaleRow> {
        let seed = config.seed.wrapping_add(self.seed_offset + index as u64);
        let instance = scenario.instantiate(seed)?;
        let graph = &instance.graph;
        let n = graph.node_count();
        let (initial, initial_label) = match scenario {
            Scenario::ChordalRing { .. } if self.adversarial_ring => (
                AveragingTimeEstimator::adversarial_initial(&instance.partition),
                "arc-adversarial",
            ),
            _ => (
                InitialCondition::Uniform { lo: -1.0, hi: 1.0 }.generate(
                    n,
                    Some(&instance.partition),
                    seed.wrapping_add(100),
                )?,
                "uniform",
            ),
        };
        let sim_config = config.apply_deadline(
            SimulationConfig::new(seed.wrapping_add(200))
                // The committed SIM_SCALE report holds the global sampler's
                // stream; the per-edge queue samples the same process
                // through a different stream, so switching would change
                // every output.
                .with_clock_model(ClockModel::GlobalUniform)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000_000))
                .with_max_events(4_000_000_000)
                .with_checkpoint_every_ticks(self.checkpoint_every_ticks),
        );
        // A store-less run captures checkpoints at the cadence and drops them.
        let checkpoints = store.filter(|_| self.checkpoint_every_ticks > 0);

        let start = std::time::Instant::now();
        let latest = checkpoints.and_then(|store| {
            let store = lock(store);
            let record = store.latest_checkpoint(key)?;
            Some((record.tick, record.blob.clone()))
        });
        let mut simulator = match latest {
            Some((tick, blob)) => {
                let checkpoint = EngineCheckpoint::from_value(&blob)?;
                eprintln!(
                    "run store[{}]: restoring {} from checkpoint at tick {tick}",
                    self.experiment,
                    scenario.fingerprint()
                );
                AsyncSimulator::restore(graph, VanillaGossip::new(), sim_config, &checkpoint)?
            }
            None => AsyncSimulator::new(graph, initial, VanillaGossip::new(), sim_config)?,
        };
        let outcome = if let Some(store) = checkpoints {
            // The engine's sink signature speaks `SimError`; carry any store
            // failure across it in a slot and rethrow it as-is.
            let mut store_failure = None;
            let outcome = simulator.run_with_checkpoints(&mut |checkpoint| {
                let record = CheckpointRecord {
                    key,
                    experiment: self.experiment.to_string(),
                    tick: checkpoint.tick(),
                    blob: checkpoint.to_value(),
                };
                lock(store).commit_checkpoint(record).map_err(|error| {
                    let reason = format!("checkpoint commit failed: {error}");
                    store_failure = Some(error);
                    SimError::InvalidConfig { reason }
                })
            });
            match (outcome, store_failure) {
                (Ok(outcome), _) => outcome,
                (Err(_), Some(store_error)) => return Err(store_error.into()),
                (Err(sim_error), None) => return Err(sim_error.into()),
            }
        } else {
            simulator.run()?
        };
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        Ok(SimScaleRow {
            family: instance.name.clone(),
            n,
            edges: graph.edge_count(),
            initial: initial_label.to_string(),
            ticks: outcome.total_ticks,
            stop_time: outcome.elapsed_time,
            stop_reason: format!("{:?}", outcome.stop_reason),
            variance_ratio: outcome.variance_ratio(),
            moment_refreshes: outcome.moment_refreshes,
            wall_ms,
            ticks_per_sec: outcome.total_ticks as f64 / (wall_ms / 1e3).max(1e-9),
        })
    }
}

/// Runs one sim-scale row per scenario — an asynchronous vanilla run to the
/// Definition 1 stop with per-tick O(1) checking, timed — fanning the rows
/// out over the harness executor with ordered collection.
///
/// This is the row machinery of [`run_sim_scale`], exposed separately so the
/// parallel-determinism suite can drive the real code path on a small
/// scenario list.  All deterministic fields (everything except `wall_ms` and
/// `ticks_per_sec`) are byte-identical at any job count.  Replayed rows
/// return their wall-clock fields *as committed* — the timing of the run
/// that originally paid for the trial.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn sim_scale_rows(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
    scenarios: &[Scenario],
) -> BenchResult<Vec<SimScaleRow>> {
    let relaxation = Relaxation {
        experiment: "SIM_SCALE",
        seed_offset: 1300,
        adversarial_ring: true,
        checkpoint_every_ticks: 0,
    };
    run_trials(
        config,
        store,
        relaxation.experiment,
        scenarios,
        Scenario::fingerprint,
        |index, scenario, key| relaxation.run(config, store, index, scenario, key),
    )
}

/// Runs the simulation scaling-tier experiment: for every size in the scale
/// grid and every family of `sim_scale_suite`, one asynchronous vanilla run
/// to the Definition 1 stop with per-tick O(1) incremental checking, timed.
///
/// The chordal ring (no sparse cut) starts from the arc-adversarial vector,
/// so the run measures a genuine worst-case relaxation; the sparse-cut
/// families start from a uniform vector (their cut-aligned worst case needs
/// Ω(n₁/|E₁₂|) time by Theorem 1 — the very bound the small-n tiers
/// measure — which would be wall-clock prohibitive at 50k nodes).
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_sim_scale(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(SimScaleReport, Table)> {
    let refresh = gossip_sim::engine::DEFAULT_MOMENT_REFRESH_TICKS;
    let rows = sim_scale_rows(config, store, &sweep::sim_scale_sweep(config.quick))?;
    let report = SimScaleReport {
        quick: config.quick,
        seed: config.seed,
        moment_refresh_every_ticks: refresh,
        rows,
    };

    let table = Table::from_rows(
        title(ExperimentId::SimScale),
        &report.rows,
        &[
            ("family", |r| r.family.clone()),
            ("n", |r| r.n.to_string()),
            ("|E|", |r| r.edges.to_string()),
            ("initial", |r| r.initial.clone()),
            ("ticks", |r| r.ticks.to_string()),
            ("T_stop", |r| fmt(r.stop_time)),
            ("var ratio", |r| fmt(r.variance_ratio)),
            ("refreshes", |r| r.moment_refreshes.to_string()),
            ("wall ms", |r| fmt(r.wall_ms)),
            ("ticks/s", |r| fmt(r.ticks_per_sec)),
        ],
    );
    Ok((report, table))
}

// ---------------------------------------------------------------------------
// MemScale: the serial engine up to 10^6 nodes.
// ---------------------------------------------------------------------------

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` off Linux or when unreadable.
///
/// `VmHWM` is the kernel's high-water mark for the whole process and only
/// ever grows, so a row's reading includes every earlier allocation in the
/// same process — it is an honest *upper* bound on the row's footprint, and
/// like wall-clock it is a volatile field: the CI determinism gate strips
/// it before diffing reports.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

schema! { row
    /// One row of the memory-scaling tier: a timed asynchronous run to the
    /// Definition 1 stop, with its throughput and the process's peak RSS.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MemScaleRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges.
        pub edges: usize,
        /// Which initial condition was used (always `uniform` in this tier).
        pub initial: String,
        /// Edge ticks processed until the run stopped.
        pub ticks: u64,
        /// Simulated time at which the run stopped.
        pub stop_time: f64,
        /// Why the run stopped (expected: `Converged`).
        pub stop_reason: String,
        /// Final normalized variance `var X(T)/var X(0)` (exact recompute).
        pub variance_ratio: f64,
        /// Scheduled exact moment refreshes performed during the run.
        pub moment_refreshes: u64,
        /// Wall-clock milliseconds of the run (volatile; see
        /// [`SimScaleRow::wall_ms`] for the contention caveat).
        pub wall_ms: f64,
        /// Event throughput of the run (volatile).
        pub ticks_per_sec: f64,
        /// Process peak RSS in bytes after the row's runs ([`peak_rss_bytes`]).
        /// `None` — journaled and reported as `null` — when the probe is
        /// unavailable (off Linux, or `/proc/self/status` unreadable); an absent
        /// reading is not an error and not a `0`-byte footprint.  Volatile and
        /// monotone across rows in the same process.
        pub peak_rss_bytes: Option<u64>,
    }
}

schema! { report
    /// The memory-scaling report serialized to `BENCH_mem_scale.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MemScaleReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed.
        pub seed: u64,
        /// Exact-refresh period of the incremental moments, in ticks.
        pub moment_refresh_every_ticks: u64,
        /// One row per (size, family) pair.
        pub rows: Vec<MemScaleRow>,
    }
    volatile: [wall_ms, ticks_per_sec, peak_rss_bytes]
}

/// Runs one mem-scale row per scenario: a timed vanilla run to the
/// Definition 1 stop from the uniform vector, checkpointed at the harness's
/// cadence.  Row machinery of [`run_mem_scale`], split out so the unit
/// tests can run it on a small suite.
fn mem_scale_rows(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
    scenarios: &[Scenario],
) -> BenchResult<Vec<MemScaleRow>> {
    let relaxation = Relaxation {
        experiment: "MEM_SCALE",
        seed_offset: 3000,
        adversarial_ring: false,
        checkpoint_every_ticks: config.checkpoint_every_ticks,
    };
    run_trials(
        config,
        store,
        relaxation.experiment,
        scenarios,
        Scenario::fingerprint,
        |index, scenario, key| -> BenchResult<MemScaleRow> {
            let row = relaxation.run(config, store, index, scenario, key)?;
            Ok(MemScaleRow {
                family: row.family,
                n: row.n,
                edges: row.edges,
                initial: row.initial,
                ticks: row.ticks,
                stop_time: row.stop_time,
                stop_reason: row.stop_reason,
                variance_ratio: row.variance_ratio,
                moment_refreshes: row.moment_refreshes,
                wall_ms: row.wall_ms,
                ticks_per_sec: row.ticks_per_sec,
                peak_rss_bytes: peak_rss_bytes(),
            })
        },
    )
}

/// Runs the memory-scaling tier: for every size in `mem_scale_sizes` and
/// every family of `sim_scale_suite`, one vanilla relaxation to the
/// Definition 1 stop, timed, with peak-RSS accounting.
///
/// Every family starts from the **uniform** vector — including the chordal
/// ring, which the SIM_SCALE tier starts arc-adversarially.  The deviation
/// is deliberate: the arc-adversarial relaxation needs Ω(n²)-ish ticks on
/// the ring and would make the 10⁶-node row wall-clock prohibitive, and
/// worst-case *averaging time* is SIM_SCALE's claim — this tier's claims
/// are bounded RSS and throughput at scale.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors.
pub fn run_mem_scale(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(MemScaleReport, Table)> {
    let rows = mem_scale_rows(config, store, &sweep::mem_scale_sweep(config.quick))?;
    let report = MemScaleReport {
        quick: config.quick,
        seed: config.seed,
        moment_refresh_every_ticks: gossip_sim::engine::DEFAULT_MOMENT_REFRESH_TICKS,
        rows,
    };

    let table = Table::from_rows(
        title(ExperimentId::MemScale),
        &report.rows,
        &[
            ("family", |r| r.family.clone()),
            ("n", |r| r.n.to_string()),
            ("|E|", |r| r.edges.to_string()),
            ("ticks", |r| r.ticks.to_string()),
            ("T_stop", |r| fmt(r.stop_time)),
            ("var ratio", |r| fmt(r.variance_ratio)),
            ("wall ms", |r| fmt(r.wall_ms)),
            ("ticks/s", |r| fmt(r.ticks_per_sec)),
            ("RSS MiB", |r| match r.peak_rss_bytes {
                Some(bytes) => fmt(bytes as f64 / (1024.0 * 1024.0)),
                None => "-".to_string(),
            }),
        ],
    );
    Ok((report, table))
}

// ---------------------------------------------------------------------------
// Robustness: fault injection and dynamic topology.
// ---------------------------------------------------------------------------

schema! { row
    /// One row of the robustness tier: a faulted asynchronous run against its
    /// fault-free baseline, with conservation-oracle and surviving-topology
    /// columns.  Deliberately contains no wall-clock fields: the report is part
    /// of the CI determinism gate and must be byte-identical across runs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RobustnessRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Fault profile name (from `FaultProfile::name`).
        pub fault: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges.
        pub edges: usize,
        /// Per-contact drop probability of the profile (0 for topological
        /// faults).
        pub drop_probability: f64,
        /// Ticks to the stop of the fault-free baseline run (same clock seed).
        pub baseline_ticks: u64,
        /// Ticks to the stop of the faulted run.
        pub ticks: u64,
        /// Why the faulted run stopped (expected: `Converged`).
        pub stop_reason: String,
        /// Final normalized variance of the faulted run (exact recompute).
        pub variance_ratio: f64,
        /// Conservation oracle: `|mean X(T) − mean X(0)|` of the faulted run.
        /// Suppressed contacts skip the pairwise update atomically, so this must
        /// stay at rounding-noise level no matter the schedule.
        pub mean_drift: f64,
        /// Contacts whose handler ran.
        pub delivered: u64,
        /// Contacts dropped by the message-loss process.
        pub dropped: u64,
        /// Contacts suppressed by link outages.
        pub edge_down_skips: u64,
        /// Contacts suppressed by node pauses.
        pub node_pause_skips: u64,
        /// Worst-surviving-subgraph spectral probe: the minimum algebraic
        /// connectivity over the components that remain when every edge the
        /// plan ever takes down (and every edge incident to an ever-paused
        /// node) is removed; `0.0` if nothing with an edge survives.
        pub worst_surviving_lambda2: f64,
    }
}

schema! { report
    /// The robustness-tier report serialized to `BENCH_robustness.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RobustnessReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed.
        pub seed: u64,
        /// One row per (size, churn case) pair.
        pub rows: Vec<RobustnessRow>,
    }
    volatile: []
}

/// Runs one robustness row per churn case.  Row machinery of
/// [`run_robustness`], split out so the unit tests can run it on a small
/// suite.
fn robustness_rows(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
    cases: &[ChurnCase],
) -> BenchResult<Vec<RobustnessRow>> {
    run_trials(
        config,
        store,
        "ROBUSTNESS",
        cases,
        ChurnCase::fingerprint,
        |index, case, _| -> BenchResult<RobustnessRow> {
            let instance = case
                .scenario
                .instantiate(config.seed.wrapping_add(1600 + index as u64))?;
            instance.validate_notation1()?;
            let graph = &instance.graph;
            let plan = case
                .fault
                .compile(&instance, config.seed.wrapping_add(1700 + index as u64));
            let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
            let base_config = config.apply_deadline(
                SimulationConfig::new(config.seed.wrapping_add(1800 + index as u64))
                    .with_clock_model(ClockModel::GlobalUniform)
                    .with_stopping_rule(StoppingRule::definition1().or_max_ticks(200_000_000)),
            );

            let mut baseline_sim = AsyncSimulator::new(
                graph,
                initial.clone(),
                VanillaGossip::new(),
                base_config.clone(),
            )?;
            let baseline = baseline_sim.run()?;

            let initial_mean = initial.mean();
            let mut faulted_sim = AsyncSimulator::new(
                graph,
                initial,
                VanillaGossip::new(),
                base_config.with_fault_plan(plan.clone()),
            )?;
            let faulted = faulted_sim.run()?;

            // Worst surviving subgraph: remove everything the plan ever takes
            // down and probe the weakest remaining island.
            let mut view = gossip_graph::dynamic::DynamicGraphView::new(graph);
            for edge in plan.edges_ever_down() {
                view.kill_edge(edge)?;
            }
            for node in plan.nodes_ever_paused() {
                view.kill_node(node)?;
            }
            let worst_lambda2 = view.worst_surviving_connectivity()?.unwrap_or(0.0);

            Ok(RobustnessRow {
                family: instance.name.clone(),
                fault: case.fault.name(),
                n: graph.node_count(),
                edges: graph.edge_count(),
                drop_probability: case.fault.drop_probability(),
                baseline_ticks: baseline.total_ticks,
                ticks: faulted.total_ticks,
                stop_reason: format!("{:?}", faulted.stop_reason),
                variance_ratio: faulted.variance_ratio(),
                mean_drift: (faulted.final_values.mean() - initial_mean).abs(),
                delivered: faulted.fault_stats.delivered,
                dropped: faulted.fault_stats.dropped,
                edge_down_skips: faulted.fault_stats.edge_down_skips,
                node_pause_skips: faulted.fault_stats.node_pause_skips,
                worst_surviving_lambda2: worst_lambda2,
            })
        },
    )
}

/// Runs the robustness tier: for every size in the robustness grid and every
/// churn case, one fault-free baseline run and one faulted run (same clock
/// seed, adversarial cut-aligned start, global uniform clock, Definition 1
/// stop), plus the worst-surviving-subgraph spectral probe of the plan's
/// dynamic topology.  The report carries no wall-clock fields, so two runs
/// at the same seed are byte-identical — CI diffs the JSON.
///
/// # Errors
///
/// Propagates graph-construction, fault-plan, simulation and journal errors.
pub fn run_robustness(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(RobustnessReport, Table)> {
    let rows = robustness_rows(config, store, &sweep::robustness_sweep(config.quick))?;
    let report = RobustnessReport {
        quick: config.quick,
        seed: config.seed,
        rows,
    };

    let table = Table::from_rows(
        title(ExperimentId::Robustness),
        &report.rows,
        &[
            ("family", |r| r.family.clone()),
            ("fault", |r| r.fault.clone()),
            ("n", |r| r.n.to_string()),
            ("|E|", |r| r.edges.to_string()),
            ("base ticks", |r| r.baseline_ticks.to_string()),
            ("fault ticks", |r| r.ticks.to_string()),
            ("slowdown", |r| {
                fmt(r.ticks as f64 / r.baseline_ticks.max(1) as f64)
            }),
            ("stop", |r| r.stop_reason.clone()),
            ("var ratio", |r| fmt(r.variance_ratio)),
            ("suppressed", |r| {
                (r.dropped + r.edge_down_skips + r.node_pause_skips).to_string()
            }),
            ("worst λ₂", |r| fmt(r.worst_surviving_lambda2)),
            ("mean drift", |r| fmt(r.mean_drift)),
        ],
    );
    Ok((report, table))
}

// ---------------------------------------------------------------------------
// Adversary: Byzantine attacks against vanilla and robust aggregation.
// ---------------------------------------------------------------------------

/// Tick cap of the adversary tier: persistent attackers can hold the global
/// variance above the Definition 1 threshold forever (frozen biased
/// injectors never join the consensus), so `MaxTicks` is an expected stop
/// reason, not a failure, and the cap bounds the tier's runtime.
const ADVERSARY_MAX_TICKS: u64 = 20_000_000;

schema! { row
    /// One row of the adversary tier: an attacked asynchronous run against its
    /// attack-free baseline under the same aggregation rule, with the
    /// honest-subset drift oracle and the detection counters.  Deliberately
    /// contains no wall-clock fields: the report is part of the CI determinism
    /// gate and must be byte-identical across runs.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AdversaryRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Attack profile name (from `AdversaryProfile::name`).
        pub attack: String,
        /// Aggregation rule name (from `AggregationKind::name`).
        pub aggregation: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges.
        pub edges: usize,
        /// Number of misbehaving nodes (0 for censor-only attacks).
        pub adversaries: usize,
        /// Ticks to the stop of the attack-free baseline run (same clock seed,
        /// same aggregation rule).
        pub clean_ticks: u64,
        /// Ticks to the stop of the attacked run.
        pub ticks: u64,
        /// Why the attacked run stopped (`Converged` or — under persistent
        /// attacks that pin the variance — `MaxTicks`).
        pub stop_reason: String,
        /// Final normalized variance of the attacked run (exact recompute).
        pub variance_ratio: f64,
        /// `|mean of honest final values − mean of honest initial values|` of
        /// the attacked run: how far the adversary dragged the honest subset.
        pub honest_drift: f64,
        /// The oracle bound on `honest_drift`: the per-capita falsification
        /// bound (`gossip_analysis::robust::honest_drift_bound`) for
        /// mass-conserving rules, the convex-hull bound
        /// (`gossip_analysis::robust::hull_drift_bound`) for median gossip.
        pub drift_bound: f64,
        /// Whether `honest_drift ≤ drift_bound + 1e-9` — must be `true` on
        /// every row.
        pub drift_oracle_ok: bool,
        /// Contacts suppressed by censoring bridges.
        pub censored_contacts: u64,
        /// Delivered contacts with at least one falsified report.
        pub falsified_contacts: u64,
        /// Falsified reports (facing an honest partner) beyond the plan's
        /// detection threshold.
        pub flagged_reports: u64,
    }
}

schema! { report
    /// The adversary-tier report serialized to `BENCH_adversary.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AdversaryReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed.
        pub seed: u64,
        /// One row per (size, attack × aggregation) case.
        pub rows: Vec<AdversaryRow>,
    }
    volatile: []
}

/// Mean of the values at the nodes **not** listed in `excluded` (the honest
/// subset).  `excluded` must leave at least one node.
fn honest_mean(values: &NodeValues, excluded: &[NodeId]) -> f64 {
    let excluded: std::collections::BTreeSet<usize> = excluded.iter().map(|n| n.0).collect();
    let mut sum = 0.0;
    let mut count = 0usize;
    for (i, v) in values.as_slice().iter().enumerate() {
        if !excluded.contains(&i) {
            sum += v;
            count += 1;
        }
    }
    sum / count as f64
}

/// Runs the adversary tier: for every size in the robustness grid and every
/// attack × aggregation case, one attack-free baseline run and one attacked
/// run (same clock seed, adversarial cut-aligned start, global uniform
/// clock, Definition 1 stop with the `ADVERSARY_MAX_TICKS` cap), checking
/// the honest-subset drift oracle on every attacked run.  The report
/// carries no wall-clock fields, so two runs at the same seed are
/// byte-identical — CI diffs the JSON.
///
/// # Errors
///
/// Propagates graph-construction, adversary-plan, simulation and journal
/// errors, and fails outright if any row violates its drift oracle (a
/// violated oracle is an `Err`, so the row never reaches the journal).
pub fn run_adversary(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(AdversaryReport, Table)> {
    let rows = run_trials(
        config,
        store,
        "ADVERSARY",
        &sweep::adversary_sweep(config.quick),
        AdversaryCase::fingerprint,
        |index, case, _| -> BenchResult<AdversaryRow> {
            let instance = case
                .scenario
                .instantiate(config.seed.wrapping_add(2700 + index as u64))?;
            instance.validate_notation1()?;
            let graph = &instance.graph;
            let n = graph.node_count();
            let plan = case
                .attack
                .compile(&instance, config.seed.wrapping_add(2800 + index as u64));
            let initial = AveragingTimeEstimator::adversarial_initial(&instance.partition);
            let base_config = config.apply_deadline(
                SimulationConfig::new(config.seed.wrapping_add(2900 + index as u64))
                    .with_clock_model(ClockModel::GlobalUniform)
                    .with_stopping_rule(
                        StoppingRule::definition1().or_max_ticks(ADVERSARY_MAX_TICKS),
                    ),
            );

            let mut clean_sim = AsyncSimulator::new(
                graph,
                initial.clone(),
                case.aggregation.build(n),
                base_config.clone(),
            )?;
            let clean = clean_sim.run()?;

            let adversarial_nodes = plan.adversarial_nodes();
            let honest_initial_mean = honest_mean(&initial, &adversarial_nodes);
            let (initial_min, initial_max) = initial
                .as_slice()
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });

            let mut attacked_sim = AsyncSimulator::new(
                graph,
                initial,
                case.aggregation.build(n),
                base_config.with_adversary_plan(plan.clone()),
            )?;
            let attacked = attacked_sim.run()?;
            let stats = attacked.adversary_stats;

            let honest_drift = (honest_mean(&attacked.final_values, &adversarial_nodes)
                - honest_initial_mean)
                .abs();
            let drift_bound = if case.aggregation.is_mass_conserving() {
                robust::honest_drift_bound(stats.falsification_l1, n - adversarial_nodes.len())?
            } else {
                robust::hull_drift_bound(
                    initial_min,
                    initial_max,
                    stats.report_min,
                    stats.report_max,
                    honest_initial_mean,
                )?
            };
            let drift_oracle_ok = honest_drift <= drift_bound + 1e-9;
            if !drift_oracle_ok {
                return Err(format!(
                    "honest-subset drift oracle violated on {}: drift {honest_drift} > bound \
                     {drift_bound}",
                    case.name()
                )
                .into());
            }

            Ok(AdversaryRow {
                family: instance.name.clone(),
                attack: case.attack.name(),
                aggregation: case.aggregation.name().to_string(),
                n,
                edges: graph.edge_count(),
                adversaries: adversarial_nodes.len(),
                clean_ticks: clean.total_ticks,
                ticks: attacked.total_ticks,
                stop_reason: format!("{:?}", attacked.stop_reason),
                variance_ratio: attacked.variance_ratio(),
                honest_drift,
                drift_bound,
                drift_oracle_ok,
                censored_contacts: stats.censored_contacts,
                falsified_contacts: stats.falsified_contacts,
                flagged_reports: stats.flagged_reports,
            })
        },
    )?;
    let report = AdversaryReport {
        quick: config.quick,
        seed: config.seed,
        rows,
    };

    let table = Table::from_rows(
        title(ExperimentId::Adversary),
        &report.rows,
        &[
            ("family", |r| r.family.clone()),
            ("attack", |r| r.attack.clone()),
            ("aggregation", |r| r.aggregation.clone()),
            ("n", |r| r.n.to_string()),
            ("adv", |r| r.adversaries.to_string()),
            ("clean ticks", |r| r.clean_ticks.to_string()),
            ("ticks", |r| r.ticks.to_string()),
            ("stop", |r| r.stop_reason.clone()),
            ("drift", |r| fmt(r.honest_drift)),
            ("bound", |r| fmt(r.drift_bound)),
            ("oracle", |r| {
                if r.drift_oracle_ok { "ok" } else { "FAIL" }.to_string()
            }),
            ("censored", |r| r.censored_contacts.to_string()),
            ("flagged", |r| r.flagged_reports.to_string()),
        ],
    );
    Ok((report, table))
}

// ---------------------------------------------------------------------------
// Perf: hot-loop throughput and parallel-estimator speedup.
// ---------------------------------------------------------------------------

schema! { row
    /// One throughput row of the performance tier: a timed fault-free vanilla
    /// relaxation through the devirtualized hot loop.
    ///
    /// `wall_ms` and `ticks_per_sec` are **wall-clock fields** and vary run to
    /// run; everything else is a pure function of the seed.  The CI determinism
    /// gate diffs the report with the wall-clock fields (and `jobs`) stripped.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfThroughputRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Number of nodes.
        pub n: usize,
        /// Number of edges.
        pub edges: usize,
        /// Edge ticks processed until the run stopped (deterministic).
        pub ticks: u64,
        /// Why the run stopped (expected: `Converged`; deterministic).
        pub stop_reason: String,
        /// Final normalized variance (deterministic).
        pub variance_ratio: f64,
        /// Wall-clock milliseconds for the run (volatile).
        pub wall_ms: f64,
        /// Event throughput in ticks per wall-clock second (volatile).
        pub ticks_per_sec: f64,
    }
}

schema! { row
    /// An estimator comparison's timing at one job count: the median of
    /// five passes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfJobTiming {
        /// Worker count of these passes (volatile: the top of the grid depends
        /// on `--jobs` / the machine).
        pub jobs: usize,
        /// Median wall-clock milliseconds of the full estimate over five
        /// passes (volatile).
        pub wall_ms: f64,
        /// Median one-job wall clock divided by this median (volatile).
        pub speedup: f64,
    }
}

schema! { row
    /// One estimator row of the performance tier: the Definition 1 estimator
    /// timed end-to-end at every job count of the grid (1, 2, 4 and the
    /// resolved width, deduplicated), five passes each, with a bitwise
    /// comparison of every estimate against the first one-job estimate built
    /// in — a perf measurement that doubles as a determinism oracle.
    ///
    /// Each family's instance is sized so one run costs milliseconds (about
    /// 2–19 ms per run at quick sizes): the timed workload has to dwarf the
    /// fan-out's thread start-up, or the "speedup" would measure dispatch
    /// instead of the estimator.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfEstimatorRow {
        /// Scenario name (from `Scenario::name`).
        pub family: String,
        /// Number of nodes.
        pub n: usize,
        /// Independent runs per estimate.
        pub runs: usize,
        /// The estimated averaging time — identical (bitwise) at every job
        /// count, or `run_perf` errors out.
        pub averaging_time: f64,
        /// Mean per-run settling time (deterministic).
        pub mean_settling_time: f64,
        /// Runs that confirmed convergence (deterministic).
        pub confirmed_runs: usize,
        /// Median wall-clock milliseconds of the 1-job estimate (volatile).
        pub wall_ms_serial: f64,
        /// Median wall-clock milliseconds at the top of the job grid
        /// (volatile).
        pub wall_ms_parallel: f64,
        /// `wall_ms_serial / wall_ms_parallel` (volatile).
        pub speedup: f64,
        /// One timing per job count of the grid, ascending (the first entry
        /// is the one-job timing the others are compared against).
        pub timings: Vec<PerfJobTiming>,
    }
}

schema! { report
    /// The performance-tier report serialized to `BENCH_perf.json`.
    ///
    /// Its volatile fields are the only ones that may differ between two
    /// runs at the same seed (or at different `--jobs`); CI strips exactly
    /// those lines before diffing the report.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PerfReport {
        /// Whether the quick size grid was used.
        pub quick: bool,
        /// Harness seed.
        pub seed: u64,
        /// Resolved worker count of the parallel measurements (volatile: depends
        /// on `--jobs` / the machine).
        pub jobs: usize,
        /// One timed relaxation per scale family.
        pub throughput: Vec<PerfThroughputRow>,
        /// One timed estimator job-grid comparison per scale family.
        pub estimator: Vec<PerfEstimatorRow>,
    }
    volatile: [jobs, wall_ms, wall_ms_serial, wall_ms_parallel, ticks_per_sec, speedup]
}

/// How many times the PERF estimator section runs its job grid; each timing
/// is the median of these passes.
const PERF_PASSES: usize = 5;

/// The estimator scenarios of the performance tier, sized per family so a
/// single run costs enough wall clock to dwarf per-fan-out dispatch.
///
/// The naive choice — one size for all families, as the throughput section
/// uses — made the chordal ring's runs finish in ~0.1 ms while the ring of
/// cliques took ~150 ms: the fast family timed dispatch, the slow one blew
/// the tier's budget.  The sparse-cut families are therefore sized *down*
/// (their averaging time is Ω(n₁/|E₁₂|), so even small instances run for
/// milliseconds: a quick run takes ~2–3 ms on the ring of cliques and
/// ~11–19 ms on the expander dumbbell and barbell) and the cut-free chordal
/// ring *up* (it relaxes in O(log n) time).
fn perf_estimator_suite(est_n: usize) -> Vec<Scenario> {
    vec![
        Scenario::ChordalRing {
            n: (est_n * 8).max(64),
        },
        Scenario::ExpanderDumbbell {
            half: (est_n / 4).max(16),
        },
        Scenario::ExpanderBarbell {
            left: (est_n / 6).max(8),
            right: (est_n / 3).max(16),
        },
        Scenario::RingOfCliques {
            cliques: (est_n / 64).max(3),
            clique_size: 16,
        },
    ]
}

/// Runs the performance tier at explicit sizes — the test hook behind
/// [`run_perf`], which supplies the standard quick/full grid.
///
/// * **Throughput**: one fault-free vanilla relaxation per scale family at
///   `sim_n` nodes (global uniform clock, Definition 1 stop), timed
///   strictly serially.
/// * **Estimator**: per scale family (sizes from `perf_estimator_suite`),
///   the Definition 1 estimator (`est_runs` runs, adversarial start) timed
///   end-to-end at every job count of the grid `{1, 2, 4, resolved}`
///   (deduplicated), after one untimed warmup pass that faults the instance
///   in.  The grid runs five times, interleaved (1, 2, 4, 1, 2, 4, …), and
///   each timing is the median of its five passes.  Every estimate is
///   compared **bitwise** against the first one-job estimate; any
///   divergence is an error, so the PERF tier is itself a
///   serial-vs-parallel determinism oracle.
///
/// # Errors
///
/// Propagates graph-construction, simulation and journal errors, and
/// reports any parallel estimate that diverges from its serial twin as an
/// error.
pub fn run_perf_sized(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
    sim_n: usize,
    est_n: usize,
    est_runs: usize,
) -> BenchResult<(PerfReport, Vec<Table>)> {
    let jobs = config.executor().jobs();
    // ticks/s is this tier's headline metric, so every timed section runs
    // strictly one trial at a time (a single-job executor) no matter what
    // the harness job count is: concurrent siblings would contend for cache
    // and memory bandwidth and deflate every row.  A handful of serial rows
    // cost seconds; polluted throughput numbers poison the perf trajectory.
    // Replayed trials return their wall-clock fields as committed.  The
    // estimator's job grid still comes from the harness's `jobs`.
    let serial = &HarnessConfig {
        jobs: Some(1),
        ..*config
    };

    let relaxation = Relaxation {
        experiment: "PERF",
        seed_offset: 1900,
        adversarial_ring: true,
        checkpoint_every_ticks: 0,
    };
    let throughput = run_trials(
        serial,
        store,
        relaxation.experiment,
        &gossip_workloads::scenarios::sim_scale_suite(sim_n),
        |scenario| format!("{}+section=throughput", scenario.fingerprint()),
        |index, scenario, key| -> BenchResult<PerfThroughputRow> {
            let row = relaxation.run(serial, store, index, scenario, key)?;
            Ok(PerfThroughputRow {
                family: row.family,
                n: row.n,
                edges: row.edges,
                ticks: row.ticks,
                stop_reason: row.stop_reason,
                variance_ratio: row.variance_ratio,
                wall_ms: row.wall_ms,
                ticks_per_sec: row.ticks_per_sec,
            })
        },
    )?;

    let mut job_grid = vec![1, 2, 4, jobs];
    job_grid.sort_unstable();
    job_grid.dedup();
    let max_jobs = *job_grid.last().expect("grid is non-empty");

    let estimator_rows = run_trials(
        serial,
        store,
        "PERF",
        &perf_estimator_suite(est_n),
        |scenario| {
            format!(
                "{}+section=estimator,runs={est_runs}",
                scenario.fingerprint()
            )
        },
        |index, scenario, _| -> BenchResult<PerfEstimatorRow> {
            let instance = scenario.instantiate(config.seed.wrapping_add(2200 + index as u64))?;
            let lower = bounds::theorem1_lower_bound(&instance.partition);
            let base = EstimatorConfig::new(config.seed.wrapping_add(2300 + index as u64))
                .with_runs(est_runs)
                .with_max_time(60.0 * lower + 500.0);

            // Untimed warmup: faults the instance's pages in, so the first
            // timed pass doesn't pay one-time setup costs.
            AveragingTimeEstimator::new(
                base.clone()
                    .with_runs(est_runs.min(2))
                    .with_jobs(Some(max_jobs)),
            )
            .estimate(&instance.graph, &instance.partition, VanillaGossip::new)?;

            // The grid runs PERF_PASSES times, interleaved, so a slow phase
            // of the machine lands on every job count rather than on one.
            let mut baseline: Option<AveragingTimeEstimate> = None;
            let mut walls_ms = vec![Vec::with_capacity(PERF_PASSES); job_grid.len()];
            for _ in 0..PERF_PASSES {
                for (walls, &grid_jobs) in walls_ms.iter_mut().zip(&job_grid) {
                    let start = std::time::Instant::now();
                    let estimate =
                        AveragingTimeEstimator::new(base.clone().with_jobs(Some(grid_jobs)))
                            .estimate(&instance.graph, &instance.partition, VanillaGossip::new)?;
                    walls.push(start.elapsed().as_secs_f64() * 1e3);
                    match &baseline {
                        None => baseline = Some(estimate),
                        Some(serial) => {
                            let bitwise_equal = *serial == estimate
                                && serial
                                    .settling_times
                                    .iter()
                                    .zip(estimate.settling_times.iter())
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if !bitwise_equal {
                                return Err(format!(
                                    "estimate diverged from the first serial one on {} at {} \
                                     jobs: {:?} vs {:?}",
                                    instance.name, grid_jobs, estimate, serial
                                )
                                .into());
                            }
                        }
                    }
                }
            }
            let medians_ms = walls_ms
                .iter()
                .map(|walls| stats::median(walls))
                .collect::<Result<Vec<f64>, _>>()?;
            let timings: Vec<PerfJobTiming> = job_grid
                .iter()
                .zip(&medians_ms)
                .map(|(&jobs, &wall_ms)| PerfJobTiming {
                    jobs,
                    wall_ms,
                    speedup: medians_ms[0] / wall_ms.max(1e-9),
                })
                .collect();

            let serial_estimate = baseline.expect("the grid starts at one job");
            let top = timings.last().expect("the grid is non-empty").clone();
            Ok(PerfEstimatorRow {
                family: instance.name.clone(),
                n: instance.graph.node_count(),
                runs: est_runs,
                averaging_time: serial_estimate.averaging_time,
                mean_settling_time: serial_estimate.mean_settling_time,
                confirmed_runs: serial_estimate.confirmed_runs,
                wall_ms_serial: timings[0].wall_ms,
                wall_ms_parallel: top.wall_ms,
                speedup: top.speedup,
                timings,
            })
        },
    )?;

    let report = PerfReport {
        quick: config.quick,
        seed: config.seed,
        jobs,
        throughput,
        estimator: estimator_rows,
    };

    let heading = title(ExperimentId::Perf);
    let throughput_table = Table::from_rows(
        format!("{heading} — hot-loop throughput"),
        &report.throughput,
        &[
            ("family", |r| r.family.clone()),
            ("n", |r| r.n.to_string()),
            ("|E|", |r| r.edges.to_string()),
            ("ticks", |r| r.ticks.to_string()),
            ("stop", |r| r.stop_reason.clone()),
            ("var ratio", |r| fmt(r.variance_ratio)),
            ("wall ms", |r| fmt(r.wall_ms)),
            ("ticks/s", |r| fmt(r.ticks_per_sec)),
        ],
    );
    let estimator_table = Table::from_rows(
        format!("{heading} — estimator across the job grid (max {max_jobs} jobs)"),
        &report.estimator,
        &[
            ("family", |r| r.family.clone()),
            ("n", |r| r.n.to_string()),
            ("runs", |r| r.runs.to_string()),
            ("T_av", |r| fmt(r.averaging_time)),
            ("confirmed", |r| r.confirmed_runs.to_string()),
            ("wall ms (1 job)", |r| fmt(r.wall_ms_serial)),
            ("wall ms (max)", |r| fmt(r.wall_ms_parallel)),
            ("speedup by jobs", |r| {
                let speedups: Vec<String> = r
                    .timings
                    .iter()
                    .skip(1)
                    .map(|t| format!("{}:{}", t.jobs, fmt(t.speedup)))
                    .collect();
                if speedups.is_empty() {
                    "-".to_string()
                } else {
                    speedups.join(" ")
                }
            }),
        ],
    );
    Ok((report, vec![throughput_table, estimator_table]))
}

/// Runs the performance tier on the standard grid: throughput relaxations at
/// 2 048 (quick) / 16 384 (full) nodes and estimator grids derived from
/// 256 / 512 with 6 / 12 runs.  See [`run_perf_sized`].
///
/// # Errors
///
/// See [`run_perf_sized`].
pub fn run_perf(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
) -> BenchResult<(PerfReport, Vec<Table>)> {
    if config.quick {
        run_perf_sized(config, store, 2048, 256, 6)
    } else {
        run_perf_sized(config, store, 16384, 512, 12)
    }
}

// ---------------------------------------------------------------------------
// Claim checks.
// ---------------------------------------------------------------------------

/// Verification of experiment E4's claim, used by this module's unit test
/// `e4_runs_and_claim_holds_on_tiny_instance`.
pub fn e4_claim_holds(result: &E4Result) -> bool {
    result.max_observed_delta <= result.per_tick_bound + 1e-9
        && result.final_variance + 1e-9 >= result.variance_lower_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::FromValue;
    use gossip_sim::stopping::DEFINITION1_THRESHOLD;

    #[test]
    fn harness_config_modes() {
        let quick = HarnessConfig::quick();
        let full = HarnessConfig::full();
        assert!(quick.quick);
        assert!(!full.quick);
        assert!(quick.runs() < full.runs());
        assert!(quick.max_dumbbell_n() < full.max_dumbbell_n());
        assert_eq!(HarnessConfig::default(), quick);
    }

    #[test]
    fn e9_table_has_expected_shape() {
        let table = run_e9(&HarnessConfig::quick(), None).unwrap();
        assert_eq!(table.row_count(), 5);
        assert!(table.to_string().contains("Theorem 3"));
    }

    #[test]
    fn e4_runs_and_claim_holds_on_tiny_instance() {
        let mut config = HarnessConfig::quick();
        config.seed = 42;
        let (result, table) = run_e4(&config, None).unwrap();
        assert!(e4_claim_holds(&result), "E4 claim failed: {result:?}");
        assert_eq!(table.row_count(), 3);
        assert!(result.observed_cut_ticks > 0);
    }

    #[test]
    fn sim_scale_rows_converge_with_per_tick_checking() {
        // Drive the real row machinery of `run_sim_scale` on the smallest
        // suite size (the full quick grid would slow the unit suite), at a
        // seed of its own so the test is independent of the CI artifact.
        let mut config = HarnessConfig::quick();
        config.seed = 7;
        let scenarios = gossip_workloads::scenarios::sim_scale_suite(128);
        let rows = sim_scale_rows(&config, None, &scenarios).unwrap();
        assert_eq!(rows.len(), scenarios.len());
        for row in &rows {
            assert_eq!(
                row.stop_reason, "Converged",
                "{} did not converge",
                row.family
            );
            assert!(row.variance_ratio < DEFINITION1_THRESHOLD);
        }
    }

    #[test]
    fn mem_scale_rows_converge_on_a_mini_suite() {
        // Drive the real row machinery of `run_mem_scale` on the smallest
        // suite size so the unit suite stays fast.
        let mut config = HarnessConfig::quick();
        config.seed = 7;
        let scenarios = gossip_workloads::scenarios::sim_scale_suite(128);
        let rows = mem_scale_rows(&config, None, &scenarios).unwrap();
        assert_eq!(rows.len(), scenarios.len());
        for row in &rows {
            assert_eq!(
                row.stop_reason, "Converged",
                "{} did not converge",
                row.family
            );
            assert!(row.variance_ratio < DEFINITION1_THRESHOLD);
            assert!(row.ticks > 0);
            // Round-trip through the journal encoding.
            let value = serde::Serialize::to_json_value(row);
            assert_eq!(MemScaleRow::from_value(&value).unwrap(), *row);
        }
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        // VmHWM is always present in /proc/self/status on Linux, and a test
        // process has certainly touched more than a page of memory.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 4096);
        }
    }

    #[test]
    fn robustness_runs_converge_and_conserve_mass_on_a_mini_suite() {
        // Drive the real row machinery of `run_robustness` on the smallest
        // suite size so the unit suite stays fast: every churn case must
        // converge under its faults, conserve the mean exactly, and keep a
        // connected-enough surviving subgraph probe-able.
        let mut config = HarnessConfig::quick();
        config.seed = 7;
        let cases = gossip_workloads::churn::churn_suite(48);
        let rows = robustness_rows(&config, None, &cases).unwrap();
        assert_eq!(rows.len(), cases.len());
        for (case, row) in cases.iter().zip(&rows) {
            assert_eq!(
                row.stop_reason,
                "Converged",
                "{} did not converge under faults",
                case.name()
            );
            assert!(row.variance_ratio < DEFINITION1_THRESHOLD);
            assert!(row.mean_drift < 1e-9, "{} leaked mass", case.name());
            assert!(
                row.dropped + row.edge_down_skips + row.node_pause_skips > 0,
                "{} suppressed nothing — the fault never engaged",
                case.name()
            );
            // The worst-surviving probe is computable for every plan.
            assert!(row.worst_surviving_lambda2 >= 0.0);
        }
    }

    #[test]
    fn e10_ablation_shows_exact_balance_best() {
        let (rows, table) = run_e10(&HarnessConfig::quick(), None).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(table.row_count(), 4);
        let exact = &rows[0];
        let literal = &rows[1];
        assert_eq!(exact.censored_runs, 0, "exact-balance runs must converge");
        // The paper-literal coefficient on a balanced dumbbell keeps swapping
        // the block means: it either fails to settle or takes far longer.
        assert!(
            literal.censored_runs > 0 || literal.averaging_time > 3.0 * exact.averaging_time,
            "literal coefficient unexpectedly competitive: {literal:?} vs {exact:?}"
        );
    }
}
