//! The asynchronous discrete-event driver.
//!
//! [`AsyncSimulator`] owns the state vector, a tick sampler, and a handler;
//! [`AsyncSimulator::run`] repeatedly draws the next edge tick, invokes the
//! handler, and evaluates the stopping rule.

use crate::adversary::{AdversaryAction, AdversaryInjector, AdversaryPlan, AdversaryStats};
use crate::checkpoint::{EngineCheckpoint, SamplerState};
use crate::clock::{EdgeClockQueue, GlobalTickProcess, TickProcess};
use crate::fault::{ContactFate, FaultInjector, FaultPlan, FaultStats};
use crate::handler::{EdgeTickContext, EdgeTickHandler};
use crate::stopping::{SimulationStatus, StopReason, StoppingRule};
use crate::values::NodeValues;
use crate::{Result, SimError};
use gossip_graph::Graph;
use gossip_linalg::Vector;
use std::time::{Duration, Instant};

/// Which tick sampler the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockModel {
    /// Explicit per-edge exponential clocks ([`EdgeClockQueue`]).
    PerEdgeQueue,
    /// Global rate-`|E|` process with uniform edge choice
    /// ([`GlobalTickProcess`]).
    GlobalUniform,
}

/// How the variance fed to the stopping rule is obtained at each check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarianceMode {
    /// O(1) running moments (see [`crate::moments::MomentTracker`]) with the
    /// deterministic exact-refresh schedule
    /// [`SimulationConfig::moment_refresh_every_ticks`].  The default: makes
    /// per-tick Definition 1 checks affordable at any `n`.
    Incremental,
    /// Exact O(n) recompute (and O(n) finiteness scan) at every check — the
    /// legacy reference path, kept for the incremental-vs-full differential
    /// oracle and for callers that insist on exact per-check variances.
    ExactEveryCheck,
}

/// Default exact-refresh period of the incremental moments, in ticks.
///
/// `2¹⁶` updates of unit-scale values accumulate drift far below the `1e-9`
/// oracle margin while amortizing the O(n) pass to `n/65 536` work per tick.
pub const DEFAULT_MOMENT_REFRESH_TICKS: u64 = 65_536;

/// Configuration of an asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// RNG seed; every run is a deterministic function of the seed.
    pub seed: u64,
    /// When to stop.
    pub stopping_rule: StoppingRule,
    /// Which tick sampler to use.
    pub clock_model: ClockModel,
    /// Hard safety cap on the number of processed events, independent of the
    /// stopping rule.
    pub max_events: u64,
    /// How the variance fed to the stopping rule is obtained.  The rule is
    /// evaluated after every tick; with the default
    /// [`VarianceMode::Incremental`] that check is O(1) at any graph size.
    pub variance_mode: VarianceMode,
    /// Period (in ticks) of the deterministic exact recompute of the running
    /// moments under [`VarianceMode::Incremental`]; bounds float drift.
    pub moment_refresh_every_ticks: u64,
    /// When set, the engine tracks the **settling time**: the last checked
    /// time at which `var X(t)/var X(0)` was still at or above this
    /// threshold.  O(1) per check, reported in
    /// [`SimulationOutcome::settling_time`] and via
    /// [`AsyncSimulator::settling_time`] (the latter remains readable even
    /// when `run` fails, e.g. on budget exhaustion, so callers can censor).
    pub settling_threshold: Option<f64>,
    /// Optional deterministic fault environment (edge outages, node pauses,
    /// message drops — see [`crate::fault`]).  `None`, and a `Some` plan for
    /// which [`FaultPlan::is_empty`] holds, are byte-identical to the
    /// fault-free engine.
    pub fault_plan: Option<FaultPlan>,
    /// Optional deterministic Byzantine environment (biased/extreme/stale
    /// reporters, censoring bridges — see [`crate::adversary`]), classified
    /// after fault delivery and before the pairwise update.  `None`, and a
    /// `Some` plan for which [`AdversaryPlan::is_empty`] holds, are
    /// byte-identical to the adversary-free engine.
    pub adversary_plan: Option<AdversaryPlan>,
    /// Cadence (in ticks) at which [`AsyncSimulator::run_with_checkpoints`]
    /// hands an [`EngineCheckpoint`] to its sink; `0` (the default)
    /// disables capture.  A non-zero cadence requires a handler that saves
    /// its state ([`EdgeTickHandler::save_state`]).  Captures land at the
    /// same deterministic tick-boundary style as
    /// [`Self::moment_refresh_every_ticks`] (after the tick's update,
    /// refresh, and stopping check), and capture itself
    /// never touches any RNG stream, so a checkpointing run is bit-identical
    /// to a non-checkpointing one.
    pub checkpoint_every_ticks: u64,
    /// Optional wall-clock budget for a single [`AsyncSimulator::run`]
    /// call.  Checked every [`DEADLINE_CHECK_TICKS`] ticks; when it fires,
    /// `run` returns [`SimError::DeadlineExceeded`] with the partial state
    /// left observable on the simulator, so supervisors can censor the trial
    /// instead of hanging a sweep.  Does not affect determinism: the tick
    /// stream up to the cut-off is the same as in an unbudgeted run.
    pub wall_clock_deadline: Option<Duration>,
}

impl SimulationConfig {
    /// Creates a configuration with the given seed and defaults: Definition 1
    /// stopping with a generous tick guard, per-edge clocks.
    pub fn new(seed: u64) -> Self {
        SimulationConfig {
            seed,
            stopping_rule: StoppingRule::default(),
            clock_model: ClockModel::PerEdgeQueue,
            max_events: 200_000_000,
            variance_mode: VarianceMode::Incremental,
            moment_refresh_every_ticks: DEFAULT_MOMENT_REFRESH_TICKS,
            settling_threshold: None,
            fault_plan: None,
            adversary_plan: None,
            checkpoint_every_ticks: 0,
            wall_clock_deadline: None,
        }
    }

    /// Sets the stopping rule.
    pub fn with_stopping_rule(mut self, rule: StoppingRule) -> Self {
        self.stopping_rule = rule;
        self
    }

    /// Selects the tick sampler.
    pub fn with_clock_model(mut self, model: ClockModel) -> Self {
        self.clock_model = model;
        self
    }

    /// Sets the hard event cap.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Selects how the per-check variance is obtained.
    pub fn with_variance_mode(mut self, mode: VarianceMode) -> Self {
        self.variance_mode = mode;
        self
    }

    /// Sets the exact-refresh period of the running moments (clamped to at
    /// least 1).
    pub fn with_moment_refresh_every_ticks(mut self, ticks: u64) -> Self {
        self.moment_refresh_every_ticks = ticks.max(1);
        self
    }

    /// Enables settling-time tracking against `threshold` (see
    /// [`Self::settling_threshold`]).
    pub fn with_settling_threshold(mut self, threshold: f64) -> Self {
        self.settling_threshold = Some(threshold);
        self
    }

    /// Attaches a deterministic fault plan (see [`crate::fault`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches a deterministic adversary plan (see [`crate::adversary`]).
    pub fn with_adversary_plan(mut self, plan: AdversaryPlan) -> Self {
        self.adversary_plan = Some(plan);
        self
    }

    /// Sets the checkpoint-capture cadence in ticks (see
    /// [`Self::checkpoint_every_ticks`]; `0` disables capture).
    pub fn with_checkpoint_every_ticks(mut self, ticks: u64) -> Self {
        self.checkpoint_every_ticks = ticks;
        self
    }

    /// Sets a wall-clock budget for each `run` call (see
    /// [`Self::wall_clock_deadline`]).
    pub fn with_wall_clock_deadline(mut self, deadline: Duration) -> Self {
        self.wall_clock_deadline = Some(deadline);
        self
    }
}

/// How often (in ticks) the engine loop compares elapsed wall-clock time
/// against [`SimulationConfig::wall_clock_deadline`].  Coarse enough that
/// the `Instant::now` call never shows up in profiles, fine enough that an
/// overrunning trial is cut within a fraction of a second.
pub const DEADLINE_CHECK_TICKS: u64 = 65_536;

/// Result of an asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// The node values when the run stopped.
    pub final_values: NodeValues,
    /// Variance of the initial values.
    pub initial_variance: f64,
    /// Variance of the final values.
    pub final_variance: f64,
    /// Simulated time at which the run stopped.
    pub elapsed_time: f64,
    /// Number of edge ticks processed.
    pub total_ticks: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// The last checked time at which the variance ratio was still at or
    /// above [`SimulationConfig::settling_threshold`]; `None` when no
    /// settling threshold was configured.
    pub settling_time: Option<f64>,
    /// Number of exact O(n) moment refreshes performed during the run (the
    /// scheduled drift bound; zero under [`VarianceMode::ExactEveryCheck`]).
    pub moment_refreshes: u64,
    /// What the fault injector did during the run; all zeros when no fault
    /// plan was configured.
    pub fault_stats: FaultStats,
    /// What the adversary did during the run; all zeros (with an empty
    /// report range) when no adversary plan was configured.
    pub adversary_stats: AdversaryStats,
}

impl SimulationOutcome {
    /// The normalized final variance `var X(T) / var X(0)`.
    pub fn variance_ratio(&self) -> f64 {
        if self.initial_variance <= 0.0 {
            0.0
        } else {
            self.final_variance / self.initial_variance
        }
    }

    /// `true` if the run stopped because it converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

enum Sampler<'g> {
    Queue(EdgeClockQueue<'g>),
    Global(GlobalTickProcess<'g>),
}

impl<'g> Sampler<'g> {
    #[inline]
    fn next_tick(&mut self) -> crate::clock::TickEvent {
        match self {
            Sampler::Queue(q) => q.next_tick(),
            Sampler::Global(g) => g.next_tick(),
        }
    }
}

/// Asynchronous gossip simulator.
///
/// See the crate-level documentation for an end-to-end example.
pub struct AsyncSimulator<'g, H> {
    graph: &'g Graph,
    values: NodeValues,
    handler: H,
    config: SimulationConfig,
    sampler: Sampler<'g>,
    initial_variance: f64,
    last_settle: f64,
    moment_refreshes: u64,
    /// Set when an exact refresh left the tracker non-finite even though
    /// every node value is finite (squared deviations beyond f64 range);
    /// suppresses repeated O(n) salvage attempts until the tracker recovers.
    moments_overflowed: bool,
    /// Compiled fault plan, if one was configured.
    faults: Option<FaultInjector>,
    /// Compiled adversary plan, if one was configured.
    adversary: Option<AdversaryInjector>,
    /// Set by [`Self::restore`]: the next `run` call continues a checkpointed
    /// run, so the pre-event stopping check (and its settling note, both
    /// already performed by the original run at tick 0) must be skipped to
    /// keep the resumed run bit-identical to the uninterrupted one.
    resumed: bool,
}

impl<'g, H: EdgeTickHandler> AsyncSimulator<'g, H> {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StateSizeMismatch`] if `initial` does not have one
    /// value per node, [`SimError::NoEdges`] for an edgeless graph, and
    /// [`SimError::NonFiniteValue`] for non-finite initial values.
    pub fn new(
        graph: &'g Graph,
        initial: NodeValues,
        handler: H,
        config: SimulationConfig,
    ) -> Result<Self> {
        if initial.len() != graph.node_count() {
            return Err(SimError::StateSizeMismatch {
                nodes: graph.node_count(),
                values: initial.len(),
            });
        }
        initial.check_finite()?;
        let faults = match &config.fault_plan {
            Some(plan) => Some(FaultInjector::new(plan, graph)?),
            None => None,
        };
        let adversary = match &config.adversary_plan {
            Some(plan) => Some(AdversaryInjector::new(plan, graph)?),
            None => None,
        };
        let sampler = match config.clock_model {
            ClockModel::PerEdgeQueue => Sampler::Queue(EdgeClockQueue::new(graph, config.seed)?),
            ClockModel::GlobalUniform => {
                Sampler::Global(GlobalTickProcess::new(graph, config.seed)?)
            }
        };
        let initial_variance = initial.variance();
        Ok(AsyncSimulator {
            graph,
            values: initial,
            handler,
            config,
            sampler,
            initial_variance,
            last_settle: 0.0,
            moment_refreshes: 0,
            moments_overflowed: false,
            faults,
            adversary,
            resumed: false,
        })
    }

    /// Rebuilds a simulator mid-run from a checkpoint captured by
    /// [`Self::run_with_checkpoints`], so that a subsequent [`Self::run`]
    /// continues the original run **bit-identically**: same stop tick, stop
    /// time, stop reason, refresh count, fault/adversary counters, and final
    /// state bits as the uninterrupted run, for both [`ClockModel`]s.
    ///
    /// `graph`, `handler`, and `config` must be the ones the original run
    /// was constructed with (the same pure inputs a cold start would use);
    /// the checkpoint carries the evolved state, the handler's included,
    /// which is reinstalled through [`EdgeTickHandler::load_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointInvalid`] when the checkpoint does not
    /// match `config`/`graph` (seed, clock model, node/edge counts, sampler
    /// contents, or fault/adversary plan presence) or the handler's saved
    /// state, and [`SimError::HandlerStateUnsupported`] for a handler that
    /// cannot load its state.
    pub fn restore(
        graph: &'g Graph,
        mut handler: H,
        config: SimulationConfig,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self> {
        if checkpoint.seed != config.seed {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "checkpoint was captured with seed {} but the run is configured with seed {}",
                    checkpoint.seed, config.seed
                ),
            });
        }
        if checkpoint.clock_model != config.clock_model {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "checkpoint clock model {:?} does not match configured {:?}",
                    checkpoint.clock_model, config.clock_model
                ),
            });
        }
        if checkpoint.node_count != graph.node_count()
            || checkpoint.edge_count != graph.edge_count()
        {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "checkpoint graph shape ({} nodes, {} edges) does not match ({} nodes, {} edges)",
                    checkpoint.node_count,
                    checkpoint.edge_count,
                    graph.node_count(),
                    graph.edge_count()
                ),
            });
        }
        if checkpoint.values.len() != graph.node_count() {
            return Err(SimError::CheckpointInvalid {
                reason: format!(
                    "checkpoint holds {} values for a {}-node graph",
                    checkpoint.values.len(),
                    graph.node_count()
                ),
            });
        }
        if checkpoint.faults.is_some() != config.fault_plan.is_some() {
            return Err(SimError::CheckpointInvalid {
                reason: "checkpoint and configuration disagree on whether a fault plan is active"
                    .into(),
            });
        }
        if checkpoint.adversary.is_some() != config.adversary_plan.is_some() {
            return Err(SimError::CheckpointInvalid {
                reason:
                    "checkpoint and configuration disagree on whether an adversary plan is active"
                        .into(),
            });
        }
        // Recompile the pure parts (window indexes, behavior tables) from
        // the plans, then reinstall the evolved stream positions, counters,
        // and histories on top.
        let mut faults = match &config.fault_plan {
            Some(plan) => Some(FaultInjector::new(plan, graph)?),
            None => None,
        };
        if let (Some(injector), Some(state)) = (faults.as_mut(), checkpoint.faults.as_ref()) {
            injector.restore_state(state);
        }
        let mut adversary = match &config.adversary_plan {
            Some(plan) => Some(AdversaryInjector::new(plan, graph)?),
            None => None,
        };
        if let (Some(injector), Some(state)) = (adversary.as_mut(), checkpoint.adversary.as_ref()) {
            injector.restore_state(state);
        }
        let sampler = match &checkpoint.sampler {
            SamplerState::Queue(state) => {
                Sampler::Queue(EdgeClockQueue::restore_state(graph, config.seed, state)?)
            }
            SamplerState::Global(state) => {
                Sampler::Global(GlobalTickProcess::restore_state(graph, config.seed, state)?)
            }
        };
        handler.load_state(&checkpoint.handler)?;
        let values =
            NodeValues::from_parts(Vector::from(checkpoint.values.clone()), checkpoint.moments);
        Ok(AsyncSimulator {
            graph,
            values,
            handler,
            config,
            sampler,
            initial_variance: checkpoint.initial_variance,
            last_settle: checkpoint.last_settle,
            moment_refreshes: checkpoint.moment_refreshes,
            moments_overflowed: checkpoint.moments_overflowed,
            faults,
            adversary,
            resumed: true,
        })
    }

    /// The current node values.
    pub fn values(&self) -> &NodeValues {
        &self.values
    }

    /// Borrows the handler (useful for instrumented handlers that accumulate
    /// measurements during the run).
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Consumes the simulator and returns the handler together with the final
    /// node values.
    pub fn into_parts(self) -> (H, NodeValues) {
        (self.handler, self.values)
    }

    /// The last checked time at which the variance ratio was still at or
    /// above the configured [`SimulationConfig::settling_threshold`] (`0.0`
    /// before any such check, or when no threshold is configured).
    ///
    /// Unlike [`SimulationOutcome::settling_time`] this stays readable after
    /// [`Self::run`] returns an error, so estimators can censor runs that
    /// exhaust the event budget instead of discarding them.
    pub fn settling_time(&self) -> f64 {
        self.last_settle
    }

    fn note_settling(&mut self, status: &SimulationStatus) {
        if let Some(threshold) = self.config.settling_threshold {
            if status.variance_ratio() >= threshold {
                self.last_settle = status.time;
            }
        }
    }

    /// Runs until the stopping rule fires.
    ///
    /// The stopping rule is evaluated after every tick.  The per-tick loop
    /// is monomorphized over whether faults and adversaries are configured:
    /// the common fault-free, honest path carries no `Option` branches for
    /// either concern, and each variant is compiled separately (see
    /// `run_loop`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if the hard event cap is hit
    /// before any stopping rule fires, and [`SimError::NonFiniteValue`] if the
    /// handler produces NaN or infinite values.
    pub fn run(&mut self) -> Result<SimulationOutcome> {
        self.run_with_checkpoints(&mut |_| Ok(()))
    }

    /// Like [`Self::run`], additionally handing an [`EngineCheckpoint`] to
    /// `sink` every [`SimulationConfig::checkpoint_every_ticks`] ticks (when
    /// that cadence is non-zero).  Capture reads the engine state without
    /// touching any RNG stream, so the run itself is bit-identical to
    /// [`Self::run`]'s; a `sink` error aborts the run and is returned as-is.
    ///
    /// A non-zero cadence on a handler that cannot save its state is
    /// rejected with [`SimError::HandlerStateUnsupported`] before the first
    /// tick.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`], plus any error returned by `sink`.
    pub fn run_with_checkpoints(
        &mut self,
        sink: &mut dyn FnMut(EngineCheckpoint) -> Result<()>,
    ) -> Result<SimulationOutcome> {
        if self.config.checkpoint_every_ticks > 0 && self.handler.save_state().is_none() {
            return Err(self.handler_state_unsupported());
        }

        // A run may be asked to stop before any event (e.g. zero initial
        // variance).  A restored run skips this: the original run performed
        // the tick-0 check before the first checkpoint was ever captured.
        if !self.resumed {
            let initial_status = SimulationStatus {
                time: 0.0,
                ticks: 0,
                variance: self.initial_variance,
                initial_variance: self.initial_variance,
            };
            self.note_settling(&initial_status);
            if let Some(reason) = self.config.stopping_rule.evaluate(&initial_status) {
                return Ok(self.finish(0.0, 0, reason));
            }
        }

        let (time, ticks, reason) = match (self.faults.is_some(), self.adversary.is_some()) {
            (false, false) => self.run_loop::<false, false>(sink),
            (false, true) => self.run_loop::<false, true>(sink),
            (true, false) => self.run_loop::<true, false>(sink),
            (true, true) => self.run_loop::<true, true>(sink),
        }?;
        Ok(self.finish(time, ticks, reason))
    }

    /// The per-tick loop, compiled once per `(FAULTS, ADVERSARY)`
    /// combination so the fault-free path has no injector branch and the
    /// honest path no adversary classification.  The const parameters
    /// mirror `self.faults.is_some()` and `self.adversary.is_some()` —
    /// [`Self::run_with_checkpoints`] is the only caller and keeps them in
    /// sync.
    fn run_loop<const FAULTS: bool, const ADVERSARY: bool>(
        &mut self,
        sink: &mut dyn FnMut(EngineCheckpoint) -> Result<()>,
    ) -> Result<(f64, u64, StopReason)> {
        let deadline = self.config.wall_clock_deadline.map(|d| (Instant::now(), d));
        let cadence = self.config.checkpoint_every_ticks;
        let mut ticks = 0u64;
        let mut time;
        loop {
            if ticks >= self.config.max_events {
                return Err(SimError::EventBudgetExhausted { events: ticks });
            }
            let event = self.sampler.next_tick();
            ticks = event.global_tick_count;
            time = event.time;
            let edge = event.endpoints;
            let ctx = EdgeTickContext {
                graph: self.graph,
                edge,
                edge_id: event.edge,
                time,
                global_tick_count: event.global_tick_count,
            };
            // Fault classification happens before the handler runs: a
            // suppressed contact skips the pairwise update atomically (never
            // half-applied), leaving the moment tracker untouched, while the
            // clock and time still advance — a down link loses messages, it
            // does not slow the network.  The handler still hears of the
            // tick, so schedules that count an edge's ticks stay on time.
            let delivered = if FAULTS {
                let injector = self
                    .faults
                    .as_mut()
                    .expect("FAULTS is only instantiated with an injector present");
                injector.classify(event.edge, edge, event.global_tick_count)
                    == ContactFate::Delivered
            } else {
                true
            };
            if !delivered {
                self.handler.on_suppressed_tick(&ctx);
            } else if ADVERSARY {
                // Adversary classification runs only on fault-delivered
                // contacts (a dropped message cannot be falsified), and
                // before the pairwise update, so honest-subset mass
                // accounting is exact: a censored contact skips the handler
                // update atomically, and a falsified contact substitutes the
                // adversary's report into the state for the duration of the
                // handler call, restoring frozen-state behaviors afterwards.
                let (u, v) = edge.endpoints();
                let injector = self
                    .adversary
                    .as_mut()
                    .expect("ADVERSARY is only instantiated with an injector present");
                let action = injector.classify(
                    event.edge,
                    edge,
                    event.global_tick_count,
                    self.values.get(u),
                    self.values.get(v),
                );
                match action {
                    AdversaryAction::Honest => {
                        self.handler.on_edge_tick(&mut self.values, &ctx);
                    }
                    AdversaryAction::Censored => self.handler.on_suppressed_tick(&ctx),
                    AdversaryAction::Falsified(contact) => {
                        let before_u = self.values.get(u);
                        let before_v = self.values.get(v);
                        if let Some(report) = contact.u {
                            self.values.set(u, report.value);
                        }
                        if let Some(report) = contact.v {
                            self.values.set(v, report.value);
                        }
                        self.handler.on_edge_tick(&mut self.values, &ctx);
                        if contact.u.is_some_and(|r| r.restore) {
                            self.values.set(u, before_u);
                        }
                        if contact.v.is_some_and(|r| r.restore) {
                            self.values.set(v, before_v);
                        }
                    }
                }
            } else {
                self.handler.on_edge_tick(&mut self.values, &ctx);
            }

            if self.config.variance_mode == VarianceMode::Incremental
                && ticks.is_multiple_of(self.config.moment_refresh_every_ticks)
            {
                self.values.refresh_moments();
                self.moment_refreshes += 1;
                if !self.values.moments_finite() {
                    // A freshly rebuilt tracker is still non-finite: either a
                    // node value is genuinely NaN/∞ (error out with the node
                    // index) or finite values have squared deviations beyond
                    // f64 range; the latter keeps running with an infinite
                    // variance, which can never read as "converged".
                    self.values.check_finite()?;
                    self.moments_overflowed = true;
                }
            }

            let variance = match self.config.variance_mode {
                VarianceMode::Incremental => {
                    if self.values.moments_finite() {
                        self.moments_overflowed = false;
                        if self.values.moments_need_recenter() {
                            // A handler re-baselined the state through
                            // `set` (pairwise updates conserve the sum,
                            // so this never fires for the paper's
                            // algorithms): re-centre immediately rather
                            // than letting cancellation around the stale
                            // shift masquerade as convergence until the
                            // next scheduled refresh.
                            self.values.refresh_moments();
                            self.moment_refreshes += 1;
                        }
                    } else if !self.moments_overflowed {
                        // A poisoned running sum means a genuinely
                        // non-finite node value (surface it with the node
                        // index), a transient that has since been
                        // overwritten (NaN is sticky in the tracker), or
                        // finite values whose squared deviations overflow
                        // f64; the exact refresh tells them apart.  The
                        // overflow flag makes the salvage run once per
                        // episode, keeping the hot path O(1) instead of
                        // retrying two O(n) passes at every check.
                        self.values.check_finite()?;
                        self.values.refresh_moments();
                        self.moment_refreshes += 1;
                        if !self.values.moments_finite() {
                            self.moments_overflowed = true;
                        }
                    }
                    self.values.incremental_variance()
                }
                VarianceMode::ExactEveryCheck => {
                    self.values.check_finite()?;
                    self.values.variance()
                }
            };
            let status = SimulationStatus {
                time,
                ticks,
                variance,
                initial_variance: self.initial_variance,
            };
            self.note_settling(&status);
            if let Some(reason) = self.config.stopping_rule.evaluate(&status) {
                if self.moments_overflowed {
                    // The overflow flag suppressed per-check finiteness
                    // scans; make the terminal state honor `run`'s error
                    // contract (a NaN/∞ introduced after the overflow
                    // must still surface, not leak into the outcome).
                    self.values.check_finite()?;
                }
                return Ok((time, ticks, reason));
            }

            if let Some((started, budget)) = deadline {
                if ticks.is_multiple_of(DEADLINE_CHECK_TICKS) && started.elapsed() >= budget {
                    return Err(SimError::DeadlineExceeded { ticks });
                }
            }

            // Capture after the tick's update, refresh, and stopping check
            // so a restored run re-enters the loop exactly at the next
            // event; capture reads state only (no RNG draws), keeping the
            // run bit-identical to a non-checkpointing one.
            if cadence != 0 && ticks.is_multiple_of(cadence) {
                sink(self.capture_checkpoint(time, ticks)?)?;
            }
        }
    }

    /// Snapshots the full resumable state at a checkpoint boundary.  Pure
    /// read: no RNG stream advances, so capture never perturbs the run.
    fn capture_checkpoint(&self, time: f64, ticks: u64) -> Result<EngineCheckpoint> {
        let handler = self
            .handler
            .save_state()
            .ok_or_else(|| self.handler_state_unsupported())?;
        Ok(EngineCheckpoint {
            ticks,
            time,
            seed: self.config.seed,
            clock_model: self.config.clock_model,
            node_count: self.graph.node_count(),
            edge_count: self.graph.edge_count(),
            values: self.values.as_slice().to_vec(),
            moments: *self.values.moments(),
            initial_variance: self.initial_variance,
            last_settle: self.last_settle,
            moment_refreshes: self.moment_refreshes,
            moments_overflowed: self.moments_overflowed,
            sampler: match &self.sampler {
                Sampler::Queue(queue) => SamplerState::Queue(queue.checkpoint_state()),
                Sampler::Global(global) => SamplerState::Global(global.checkpoint_state()),
            },
            faults: self.faults.as_ref().map(|i| i.checkpoint_state()),
            adversary: self.adversary.as_ref().map(|i| i.checkpoint_state()),
            handler,
        })
    }

    fn handler_state_unsupported(&self) -> SimError {
        SimError::HandlerStateUnsupported {
            handler: self.handler.name().to_string(),
        }
    }

    fn finish(&self, time: f64, ticks: u64, reason: StopReason) -> SimulationOutcome {
        SimulationOutcome {
            final_variance: self.values.variance(),
            final_values: self.values.clone(),
            initial_variance: self.initial_variance,
            elapsed_time: time,
            total_ticks: ticks,
            stop_reason: reason,
            settling_time: self.config.settling_threshold.map(|_| self.last_settle),
            moment_refreshes: self.moment_refreshes,
            fault_stats: self.fault_stats(),
            adversary_stats: self.adversary_stats(),
        }
    }

    /// The fault-injection counters accumulated so far (all zeros when no
    /// fault plan is configured).  Like [`Self::settling_time`] this stays
    /// readable after [`Self::run`] returns an error, so callers can report
    /// how much of a censored run was suppressed.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|i| i.stats()).unwrap_or_default()
    }

    /// The adversary counters accumulated so far (all zeros when no
    /// adversary plan is configured); readable after errors like
    /// [`Self::fault_stats`].
    pub fn adversary_stats(&self) -> AdversaryStats {
        self.adversary
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::{HandlerState, NoOpHandler};
    use gossip_graph::generators::{complete, dumbbell};
    use gossip_graph::NodeId;

    struct Vanilla;

    impl EdgeTickHandler for Vanilla {
        fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
            let (u, v) = ctx.edge.endpoints();
            values.average_pair(u, v);
        }

        fn name(&self) -> &str {
            "vanilla"
        }

        fn save_state(&self) -> Option<HandlerState> {
            Some(HandlerState::default())
        }

        fn load_state(&mut self, state: &HandlerState) -> Result<()> {
            state.expect_shape(self.name(), 0, 0)
        }
    }

    struct Poison;

    impl EdgeTickHandler for Poison {
        fn on_edge_tick(&mut self, values: &mut NodeValues, _ctx: &EdgeTickContext<'_>) {
            values.set(NodeId(0), f64::NAN);
        }
    }

    fn spike(n: usize) -> NodeValues {
        let mut v = vec![0.0; n];
        v[0] = n as f64;
        NodeValues::from_values(v).unwrap()
    }

    #[test]
    fn validates_state_size_and_edges() {
        let g = complete(3).unwrap();
        let bad = NodeValues::constant(4, 0.0);
        assert!(matches!(
            AsyncSimulator::new(&g, bad, NoOpHandler, SimulationConfig::new(1)),
            Err(SimError::StateSizeMismatch { .. })
        ));
        let edgeless = gossip_graph::Graph::from_edges(3, &[]).unwrap();
        assert!(matches!(
            AsyncSimulator::new(
                &edgeless,
                NodeValues::constant(3, 0.0),
                NoOpHandler,
                SimulationConfig::new(1)
            ),
            Err(SimError::NoEdges)
        ));
    }

    #[test]
    fn zero_initial_variance_stops_immediately() {
        let g = complete(3).unwrap();
        let values = NodeValues::constant(3, 5.0);
        let mut sim = AsyncSimulator::new(&g, values, Vanilla, SimulationConfig::new(1)).unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.total_ticks, 0);
        assert!(outcome.converged());
        assert_eq!(outcome.variance_ratio(), 0.0);
    }

    #[test]
    fn vanilla_gossip_converges_on_complete_graph() {
        let g = complete(8).unwrap();
        let initial = spike(8);
        let mean = initial.mean();
        let config = SimulationConfig::new(3)
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-8).or_max_ticks(1_000_000));
        let mut sim = AsyncSimulator::new(&g, initial, Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!(outcome.variance_ratio() < 1e-8);
        // Mass conservation: mean preserved to numerical precision.
        assert!((outcome.final_values.mean() - mean).abs() < 1e-9);
        assert!(outcome.elapsed_time > 0.0);
        assert!(outcome.total_ticks > 0);
    }

    #[test]
    fn noop_handler_hits_time_limit() {
        let g = complete(4).unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_time(3.0));
        let mut sim = AsyncSimulator::new(&g, spike(4), NoOpHandler, config).unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.stop_reason, StopReason::TimeLimit);
        assert!(outcome.elapsed_time >= 3.0);
        assert!((outcome.variance_ratio() - 1.0).abs() < 1e-12);
        assert!(!outcome.converged());
    }

    #[test]
    fn event_budget_guard_fires() {
        let g = complete(4).unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.0))
            .with_max_events(100);
        let mut sim = AsyncSimulator::new(&g, spike(4), NoOpHandler, config).unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn non_finite_values_detected() {
        let g = complete(3).unwrap();
        let config = SimulationConfig::new(5);
        let mut sim = AsyncSimulator::new(&g, spike(3), Poison, config).unwrap();
        assert!(matches!(sim.run(), Err(SimError::NonFiniteValue { .. })));
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let g = dumbbell(4).unwrap().0;
        let run = |seed: u64| {
            let config = SimulationConfig::new(seed)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(100_000));
            let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
            sim.run().unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.total_ticks, b.total_ticks);
        assert_eq!(a.final_values, b.final_values);
        let c = run(12);
        assert!(a.total_ticks != c.total_ticks || a.final_values != c.final_values);
    }

    #[test]
    fn both_clock_models_converge() {
        let g = complete(6).unwrap();
        for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
            let config = SimulationConfig::new(9)
                .with_clock_model(model)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500_000));
            let mut sim = AsyncSimulator::new(&g, spike(6), Vanilla, config).unwrap();
            let outcome = sim.run().unwrap();
            assert!(outcome.converged(), "model {model:?} did not converge");
        }
    }

    #[test]
    fn config_builder_round_trip() {
        let c = SimulationConfig::new(7)
            .with_stopping_rule(StoppingRule::max_ticks(10))
            .with_clock_model(ClockModel::GlobalUniform)
            .with_max_events(123)
            .with_variance_mode(VarianceMode::ExactEveryCheck)
            .with_moment_refresh_every_ticks(0)
            .with_settling_threshold(0.25)
            .with_fault_plan(FaultPlan::new(3).with_drop_probability(0.1))
            .with_adversary_plan(AdversaryPlan::new(4).with_biased_injector(NodeId(0), 1.0))
            .with_checkpoint_every_ticks(4096)
            .with_wall_clock_deadline(Duration::from_secs(5));
        assert_eq!(c.seed, 7);
        assert_eq!(c.checkpoint_every_ticks, 4096);
        assert_eq!(c.wall_clock_deadline, Some(Duration::from_secs(5)));
        assert_eq!(
            c.fault_plan,
            Some(FaultPlan::new(3).with_drop_probability(0.1))
        );
        assert_eq!(
            c.adversary_plan,
            Some(AdversaryPlan::new(4).with_biased_injector(NodeId(0), 1.0))
        );
        assert_eq!(c.clock_model, ClockModel::GlobalUniform);
        assert_eq!(c.max_events, 123);
        assert_eq!(c.variance_mode, VarianceMode::ExactEveryCheck);
        assert_eq!(c.moment_refresh_every_ticks, 1);
        assert_eq!(c.settling_threshold, Some(0.25));
        let d = SimulationConfig::new(1);
        assert_eq!(d.variance_mode, VarianceMode::Incremental);
        assert_eq!(d.moment_refresh_every_ticks, DEFAULT_MOMENT_REFRESH_TICKS);
        assert_eq!(d.settling_threshold, None);
        assert_eq!(d.fault_plan, None);
        assert_eq!(d.adversary_plan, None);
        assert_eq!(d.checkpoint_every_ticks, 0);
        assert_eq!(d.wall_clock_deadline, None);
    }

    #[test]
    fn incremental_and_exact_modes_stop_at_the_same_tick() {
        let g = dumbbell(6).unwrap().0;
        let run = |mode: VarianceMode| {
            let config = SimulationConfig::new(17)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500_000))
                .with_variance_mode(mode)
                .with_moment_refresh_every_ticks(64);
            let mut sim = AsyncSimulator::new(&g, spike(12), Vanilla, config).unwrap();
            sim.run().unwrap()
        };
        let incremental = run(VarianceMode::Incremental);
        let exact = run(VarianceMode::ExactEveryCheck);
        assert!(incremental.converged());
        assert_eq!(incremental.total_ticks, exact.total_ticks);
        assert_eq!(incremental.stop_reason, exact.stop_reason);
        assert_eq!(incremental.final_values, exact.final_values);
        assert_eq!(exact.moment_refreshes, 0);
        assert!(incremental.moment_refreshes >= incremental.total_ticks / 64);
    }

    #[test]
    fn moment_refreshes_follow_the_deterministic_schedule() {
        let g = complete(8).unwrap();
        let config = SimulationConfig::new(3)
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-6).or_max_ticks(1_000_000))
            .with_moment_refresh_every_ticks(32);
        let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        // One scheduled refresh per full 32-tick window, and no unscheduled
        // O(n) passes (the values stay finite throughout).
        assert_eq!(outcome.moment_refreshes, outcome.total_ticks / 32);
    }

    #[test]
    fn large_offset_states_converge_and_never_false_stop() {
        // A spike riding on a 1e8 common offset: the uncentred moment
        // formula would lose every digit to cancellation, clamp to zero, and
        // "converge" at the first check.  The shifted tracker must make the
        // run behave exactly like the offset-free one.
        let g = complete(8).unwrap();
        let offset: Vec<f64> = spike(8).as_slice().iter().map(|x| 1e8 + x).collect();
        let config = SimulationConfig::new(3)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(1_000_000));
        let mut sim = AsyncSimulator::new(
            &g,
            NodeValues::from_values(offset).unwrap(),
            Vanilla,
            config.clone(),
        )
        .unwrap();
        let with_offset = sim.run().unwrap();
        let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
        let without_offset = sim.run().unwrap();
        assert!(with_offset.converged());
        assert_eq!(with_offset.total_ticks, without_offset.total_ticks);
        assert!(with_offset.total_ticks > 1, "stopped suspiciously early");
    }

    #[test]
    fn mid_run_rebaseline_recenters_instead_of_false_converging() {
        // A handler that re-baselines the whole state by +1e8 on its first
        // tick (legal through the public `set` API, but sum-violating): the
        // stale shift would make the O(1) variance cancel to ~0 and stop the
        // run instantly; the re-centre guard must instead refresh and let
        // the run converge at the genuine mixing time.
        struct Rebaseline;
        impl EdgeTickHandler for Rebaseline {
            fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
                if ctx.global_tick_count == 1 {
                    for i in 0..values.len() {
                        let v = values.get(NodeId(i));
                        values.set(NodeId(i), v + 1e8);
                    }
                }
                let (u, v) = ctx.edge.endpoints();
                values.average_pair(u, v);
            }
        }
        let g = complete(8).unwrap();
        let config = SimulationConfig::new(3)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(1_000_000));
        let mut sim = AsyncSimulator::new(&g, spike(8), Rebaseline, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!(outcome.total_ticks > 5, "false convergence on stale shift");
        // The exact final variance confirms the stop was genuine.
        assert!(outcome.variance_ratio() < crate::stopping::DEFINITION1_THRESHOLD);
        // The rebaseline triggered at least one unscheduled re-centre.
        assert!(outcome.moment_refreshes >= 1);
    }

    #[test]
    fn out_of_range_finite_values_run_to_the_guard_without_error() {
        // |x| ≈ 1e200 is finite but its squared deviation overflows f64: the
        // variance is genuinely unrepresentable.  The run must neither error
        // (no value is NaN/∞) nor converge (∞ ratio), and the one-shot
        // salvage must not degrade every check to O(n) — it runs to the tick
        // guard like the exact reference mode would.
        struct Blowup;
        impl EdgeTickHandler for Blowup {
            fn on_edge_tick(&mut self, values: &mut NodeValues, _ctx: &EdgeTickContext<'_>) {
                values.set(NodeId(0), 1e200);
            }
        }
        let g = complete(4).unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(200));
        let mut sim = AsyncSimulator::new(&g, spike(4), Blowup, config).unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.stop_reason, StopReason::TickLimit);
        assert!(!outcome.converged());
        // One salvage refresh for the whole episode, not one per check.
        assert_eq!(outcome.moment_refreshes, 1);
    }

    #[test]
    fn nan_after_overflow_still_surfaces_as_an_error() {
        // First drive a value out of f64 square range (sets the overflow
        // flag, which suppresses per-check finiteness scans), then poison
        // the state with a genuine NaN: the terminal scan must still honor
        // `run`'s error contract instead of returning Ok with a NaN outcome.
        struct BlowupThenNan;
        impl EdgeTickHandler for BlowupThenNan {
            fn on_edge_tick(&mut self, values: &mut NodeValues, ctx: &EdgeTickContext<'_>) {
                if ctx.global_tick_count == 1 {
                    values.set(NodeId(0), 1e200);
                }
                if ctx.global_tick_count == 50 {
                    values.set(NodeId(1), f64::NAN);
                }
            }
        }
        let g = complete(4).unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(200));
        let mut sim = AsyncSimulator::new(&g, spike(4), BlowupThenNan, config).unwrap();
        assert!(matches!(sim.run(), Err(SimError::NonFiniteValue { .. })));
    }

    #[test]
    fn noop_fault_plan_is_byte_identical_to_no_plan() {
        let g = dumbbell(5).unwrap().0;
        let run = |plan: Option<FaultPlan>| {
            let mut config = SimulationConfig::new(21)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500_000));
            config.fault_plan = plan;
            let mut sim = AsyncSimulator::new(&g, spike(10), Vanilla, config).unwrap();
            sim.run().unwrap()
        };
        let baseline = run(None);
        let noop = run(Some(FaultPlan::none()));
        assert_eq!(baseline.total_ticks, noop.total_ticks);
        assert_eq!(baseline.stop_reason, noop.stop_reason);
        assert_eq!(baseline.moment_refreshes, noop.moment_refreshes);
        for (a, b) in baseline
            .final_values
            .as_slice()
            .iter()
            .zip(noop.final_values.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(noop.fault_stats.total_suppressed(), 0);
        assert_eq!(noop.fault_stats.delivered, noop.total_ticks);
        assert_eq!(baseline.fault_stats, FaultStats::default());
    }

    #[test]
    fn message_drops_conserve_mass_and_delay_convergence() {
        let g = complete(8).unwrap();
        let initial = spike(8);
        let mean = initial.mean();
        let run = |p: f64| {
            let config = SimulationConfig::new(13)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000))
                .with_fault_plan(FaultPlan::new(99).with_drop_probability(p));
            let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
            sim.run().unwrap()
        };
        let clean = run(0.0);
        let lossy = run(0.5);
        assert!(clean.converged());
        assert!(lossy.converged());
        // Dropped contacts are skipped atomically, so the sum is conserved
        // exactly as in the clean run.
        assert!((lossy.final_values.mean() - mean).abs() < 1e-9);
        // Half the contacts do nothing, so more ticks are needed.
        assert!(lossy.total_ticks > clean.total_ticks);
        assert!(lossy.fault_stats.dropped > 0);
        assert_eq!(
            lossy.fault_stats.total_contacts(),
            lossy.total_ticks,
            "every tick is classified exactly once"
        );
    }

    #[test]
    fn edge_outage_suppresses_only_the_window() {
        // A complete graph with one edge down for the first 1000 ticks: the
        // run still converges (the other 14 edges keep mixing), and only the
        // in-window ticks of that edge are suppressed.
        let g = complete(6).unwrap();
        let config = SimulationConfig::new(17)
            .with_stopping_rule(StoppingRule::variance_ratio_below(1e-9).or_max_ticks(1_000_000))
            .with_fault_plan(FaultPlan::new(1).with_edge_outage(gossip_graph::EdgeId(0), 0, 1000));
        let mut sim = AsyncSimulator::new(&g, spike(6), Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        assert!(outcome.converged());
        assert!(outcome.fault_stats.edge_down_skips > 0);
        assert_eq!(outcome.fault_stats.dropped, 0);
        assert_eq!(outcome.fault_stats.node_pause_skips, 0);
    }

    #[test]
    fn pausing_every_node_censors_at_the_guard_instead_of_spinning() {
        // With every node paused forever, no contact is ever delivered: the
        // variance never moves, Definition 1 can never fire, and the engine
        // must run to its tick guard (censoring) rather than spin or error.
        let g = complete(4).unwrap();
        let mut plan = FaultPlan::new(5);
        for i in 0..4 {
            plan = plan.with_node_pause(NodeId(i), 0, u64::MAX);
        }
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500))
            .with_fault_plan(plan);
        let mut sim = AsyncSimulator::new(&g, spike(4), Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.stop_reason, StopReason::TickLimit);
        assert!(!outcome.converged());
        assert!((outcome.variance_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(outcome.fault_stats.delivered, 0);
        assert_eq!(outcome.fault_stats.node_pause_skips, outcome.total_ticks);
        // The counters stay readable on the simulator itself.
        assert_eq!(sim.fault_stats(), outcome.fault_stats);
    }

    #[test]
    fn invalid_fault_plans_are_rejected_at_construction() {
        let g = complete(3).unwrap();
        let config =
            SimulationConfig::new(1).with_fault_plan(FaultPlan::new(0).with_drop_probability(2.0));
        assert!(matches!(
            AsyncSimulator::new(&g, spike(3), Vanilla, config),
            Err(SimError::InvalidConfig { .. })
        ));
        let config = SimulationConfig::new(1).with_fault_plan(FaultPlan::new(0).with_node_pause(
            NodeId(9),
            0,
            1,
        ));
        assert!(matches!(
            AsyncSimulator::new(&g, spike(3), Vanilla, config),
            Err(SimError::Graph(_))
        ));
    }

    #[test]
    fn noop_adversary_plan_is_byte_identical_to_no_plan() {
        let g = dumbbell(5).unwrap().0;
        let run = |plan: Option<AdversaryPlan>| {
            let mut config = SimulationConfig::new(21)
                .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500_000));
            config.adversary_plan = plan;
            let mut sim = AsyncSimulator::new(&g, spike(10), Vanilla, config).unwrap();
            sim.run().unwrap()
        };
        let baseline = run(None);
        let noop = run(Some(AdversaryPlan::none()));
        assert_eq!(baseline.total_ticks, noop.total_ticks);
        assert_eq!(baseline.stop_reason, noop.stop_reason);
        assert_eq!(baseline.moment_refreshes, noop.moment_refreshes);
        for (a, b) in baseline
            .final_values
            .as_slice()
            .iter()
            .zip(noop.final_values.as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(noop.adversary_stats.honest_contacts, noop.total_ticks);
        assert_eq!(noop.adversary_stats.falsified_contacts, 0);
        assert_eq!(noop.adversary_stats.censored_contacts, 0);
        assert_eq!(baseline.adversary_stats, AdversaryStats::default());
    }

    #[test]
    fn biased_injector_drags_vanilla_toward_its_target() {
        // One frozen biased node reporting `initial + bias`: vanilla gossip
        // pulls every honest node toward that target, so the honest mean
        // drifts away from the clean consensus while staying within the
        // exact falsification budget `l1 / honest_count`.
        let g = complete(8).unwrap();
        let initial = spike(8);
        let clean_mean = initial.mean();
        let bias = 4.0;
        let config = SimulationConfig::new(13)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(2_000_000))
            .with_adversary_plan(AdversaryPlan::new(3).with_biased_injector(NodeId(1), bias));
        let mut sim = AsyncSimulator::new(&g, initial, Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        let stats = outcome.adversary_stats;
        assert!(stats.falsified_contacts > 0);
        assert_eq!(stats.biased_reports, stats.total_reports());
        assert_eq!(
            stats.total_classified(),
            outcome.total_ticks,
            "every delivered tick is classified exactly once"
        );
        // Honest mean (all nodes but node 1) moved measurably off the clean
        // consensus, but never past the accumulated falsification budget.
        let honest: Vec<f64> = outcome
            .final_values
            .as_slice()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, v)| *v)
            .collect();
        let honest_mean = honest.iter().sum::<f64>() / honest.len() as f64;
        let drift = (honest_mean - clean_mean).abs();
        assert!(drift > 1e-3, "bias had no effect (drift {drift})");
        assert!(
            drift <= stats.falsification_l1 / honest.len() as f64 + 1e-9,
            "drift {drift} exceeds the l1 oracle bound"
        );
        // The frozen liar's own value never changed.
        assert_eq!(outcome.final_values.get(NodeId(1)), 0.0);
    }

    #[test]
    fn censoring_every_edge_censors_at_the_guard_like_full_pauses() {
        let g = complete(4).unwrap();
        let all_edges: Vec<gossip_graph::EdgeId> =
            (0..g.edge_count()).map(gossip_graph::EdgeId).collect();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(500))
            .with_adversary_plan(AdversaryPlan::new(2).with_censoring_bridge(all_edges, 1.0));
        let mut sim = AsyncSimulator::new(&g, spike(4), Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        assert_eq!(outcome.stop_reason, StopReason::TickLimit);
        assert!((outcome.variance_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(
            outcome.adversary_stats.censored_contacts,
            outcome.total_ticks
        );
        assert_eq!(sim.adversary_stats(), outcome.adversary_stats);
    }

    #[test]
    fn invalid_adversary_plans_are_rejected_at_construction() {
        let g = complete(3).unwrap();
        let config = SimulationConfig::new(1)
            .with_adversary_plan(AdversaryPlan::new(0).with_biased_injector(NodeId(0), f64::NAN));
        assert!(matches!(
            AsyncSimulator::new(&g, spike(3), Vanilla, config),
            Err(SimError::InvalidConfig { .. })
        ));
        let config = SimulationConfig::new(1)
            .with_adversary_plan(AdversaryPlan::new(0).with_stale_replay_node(NodeId(9), 5));
        assert!(matches!(
            AsyncSimulator::new(&g, spike(3), Vanilla, config),
            Err(SimError::Graph(_))
        ));
    }

    #[test]
    fn settling_time_is_tracked_when_requested() {
        let g = complete(8).unwrap();
        let config = SimulationConfig::new(9)
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.01).or_max_ticks(1_000_000))
            .with_settling_threshold(crate::stopping::DEFINITION1_THRESHOLD);
        let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
        let outcome = sim.run().unwrap();
        let settle = outcome.settling_time.expect("threshold was configured");
        assert!(settle > 0.0);
        assert!(settle <= outcome.elapsed_time);
        assert_eq!(settle, sim.settling_time());
        // Without a threshold the field stays empty.
        let config = SimulationConfig::new(9).with_stopping_rule(StoppingRule::max_ticks(10));
        let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config).unwrap();
        assert_eq!(sim.run().unwrap().settling_time, None);
    }

    /// Shared oracle for the checkpoint tests: everything observable must
    /// agree bit-for-bit between two outcomes.
    fn assert_outcomes_bit_identical(a: &SimulationOutcome, b: &SimulationOutcome, ctx: &str) {
        assert_eq!(a.total_ticks, b.total_ticks, "{ctx}");
        assert_eq!(a.stop_reason, b.stop_reason, "{ctx}");
        assert_eq!(a.moment_refreshes, b.moment_refreshes, "{ctx}");
        assert_eq!(a.fault_stats, b.fault_stats, "{ctx}");
        assert_eq!(a.adversary_stats, b.adversary_stats, "{ctx}");
        assert_eq!(a.elapsed_time.to_bits(), b.elapsed_time.to_bits(), "{ctx}");
        assert_eq!(
            a.final_variance.to_bits(),
            b.final_variance.to_bits(),
            "{ctx}"
        );
        assert_eq!(
            a.settling_time.map(f64::to_bits),
            b.settling_time.map(f64::to_bits),
            "{ctx}"
        );
        for (x, y) in a
            .final_values
            .as_slice()
            .iter()
            .zip(b.final_values.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn checkpoint_restore_is_bit_identical_to_uninterrupted() {
        // The in-crate smoke version of `tests/checkpoint_restore.rs`: for
        // both clock models and a hostile fault + adversary environment, a
        // run resumed from any committed mid-run checkpoint (round-tripped
        // through its JSON document, as the blob store would) must match the
        // uninterrupted run on every observable bit.
        let g = dumbbell(8).unwrap().0;
        for model in [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform] {
            // `variance_ratio_below(0.0)` can never fire, so every run goes
            // the full 20 000 ticks: plenty of refreshes (every 128) and
            // checkpoints (every 128) before the stop.
            let config = SimulationConfig::new(29)
                .with_clock_model(model)
                .with_stopping_rule(StoppingRule::variance_ratio_below(0.0).or_max_ticks(20_000))
                .with_moment_refresh_every_ticks(128)
                .with_settling_threshold(0.5)
                .with_fault_plan(
                    FaultPlan::new(7)
                        .with_drop_probability(0.1)
                        .with_node_pause(NodeId(0), 100, 400),
                )
                .with_adversary_plan(
                    crate::adversary::AdversaryPlan::new(13)
                        .with_biased_injector(NodeId(1), 0.4)
                        .with_extreme_value_node(NodeId(9), 50.0)
                        .with_stale_replay_node(NodeId(5), 64),
                )
                .with_checkpoint_every_ticks(128);
            let mut checkpoints: Vec<EngineCheckpoint> = Vec::new();
            let mut sim = AsyncSimulator::new(&g, spike(16), Vanilla, config.clone()).unwrap();
            let baseline = sim
                .run_with_checkpoints(&mut |cp| {
                    checkpoints.push(cp);
                    Ok(())
                })
                .unwrap();
            assert!(
                checkpoints.len() >= 2,
                "{model:?}: run too short to exercise restore"
            );
            assert!(baseline.fault_stats.total_suppressed() > 0);
            assert!(baseline.adversary_stats.falsified_contacts > 0);
            // Resume from the first and from a middle checkpoint; round trip
            // each through its serialized document first, exactly like a
            // store-loaded blob.
            for index in [0, checkpoints.len() / 2] {
                let blob = checkpoints[index].to_value();
                let reloaded = EngineCheckpoint::from_value(&blob).unwrap();
                assert_eq!(reloaded, checkpoints[index]);
                let mut resumed =
                    AsyncSimulator::restore(&g, Vanilla, config.clone(), &reloaded).unwrap();
                let outcome = resumed.run().unwrap();
                assert_outcomes_bit_identical(
                    &baseline,
                    &outcome,
                    &format!("{model:?} from checkpoint {index}"),
                );
            }
        }
    }

    #[test]
    fn resumed_runs_emit_the_remaining_checkpoints() {
        let g = dumbbell(6).unwrap().0;
        let config = SimulationConfig::new(11)
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.0).or_max_ticks(4096))
            .with_moment_refresh_every_ticks(256)
            .with_checkpoint_every_ticks(256);
        let mut checkpoints: Vec<EngineCheckpoint> = Vec::new();
        let mut sim = AsyncSimulator::new(&g, spike(12), Vanilla, config.clone()).unwrap();
        sim.run_with_checkpoints(&mut |cp| {
            checkpoints.push(cp);
            Ok(())
        })
        .unwrap();
        assert!(checkpoints.len() >= 2);
        let mut resumed = AsyncSimulator::restore(&g, Vanilla, config, &checkpoints[0]).unwrap();
        let mut tail: Vec<u64> = Vec::new();
        resumed
            .run_with_checkpoints(&mut |cp| {
                tail.push(cp.tick());
                Ok(())
            })
            .unwrap();
        let expected: Vec<u64> = checkpoints[1..].iter().map(|cp| cp.tick()).collect();
        assert_eq!(tail, expected, "resume recomputes only the remaining ticks");
    }

    #[test]
    fn restore_rejects_mismatched_identities() {
        let g = dumbbell(4).unwrap().0;
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.0).or_max_ticks(1024))
            .with_checkpoint_every_ticks(64)
            .with_moment_refresh_every_ticks(64);
        let mut checkpoints: Vec<EngineCheckpoint> = Vec::new();
        let mut sim = AsyncSimulator::new(&g, spike(8), Vanilla, config.clone()).unwrap();
        sim.run_with_checkpoints(&mut |cp| {
            checkpoints.push(cp);
            Ok(())
        })
        .unwrap();
        let checkpoint = checkpoints.first().expect("at least one checkpoint");

        // Wrong seed.
        let mut wrong = config.clone();
        wrong.seed = 6;
        assert!(matches!(
            AsyncSimulator::restore(&g, Vanilla, wrong, checkpoint),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // Wrong clock model.
        let wrong = config.clone().with_clock_model(ClockModel::GlobalUniform);
        assert!(matches!(
            AsyncSimulator::restore(&g, Vanilla, wrong, checkpoint),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // Wrong graph shape.
        let other = complete(5).unwrap();
        assert!(matches!(
            AsyncSimulator::restore(&other, Vanilla, config.clone(), checkpoint),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // A plan the checkpoint does not carry.
        let wrong = config
            .clone()
            .with_fault_plan(FaultPlan::new(1).with_drop_probability(0.5));
        assert!(matches!(
            AsyncSimulator::restore(&g, Vanilla, wrong, checkpoint),
            Err(SimError::CheckpointInvalid { .. })
        ));
    }

    #[test]
    fn wall_clock_deadline_censors_instead_of_hanging() {
        // A rule that can never fire plus a zero deadline: the serial loop
        // must cut the run at its first deadline check (tick 65 536) and
        // leave the partial state observable.
        let g = complete(4).unwrap();
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::variance_ratio_below(0.0))
            .with_wall_clock_deadline(Duration::ZERO);
        let mut sim = AsyncSimulator::new(&g, spike(4), NoOpHandler, config).unwrap();
        assert!(matches!(
            sim.run(),
            Err(SimError::DeadlineExceeded {
                ticks: DEADLINE_CHECK_TICKS
            })
        ));
        assert_eq!(sim.values().len(), 4);

        // A generous deadline never interferes.
        let config = SimulationConfig::new(5)
            .with_stopping_rule(StoppingRule::definition1().or_max_ticks(1_000_000))
            .with_wall_clock_deadline(Duration::from_secs(3600));
        let mut sim = AsyncSimulator::new(&g, spike(4), Vanilla, config).unwrap();
        assert!(sim.run().is_ok());
    }
}
