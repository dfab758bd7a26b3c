//! The per-tick profile: one seeded event stream driven through
//! progressively fuller loops built from the simulator's public parts, then
//! through `AsyncSimulator::run` itself.  Differences between consecutive
//! loops give the nanoseconds per tick each part adds:
//!
//! | loop | adds | metric |
//! |---|---|---|
//! | 0 | `TickProcess::next_tick` | `tick.sampler_ns` |
//! | 1 | endpoint lookup in the edge table | `tick.edge_ns` |
//! | 2 | `NodeValues::average_pair` and its moment tracker | `tick.kernel_ns` |
//! | 3 | `FaultInjector::classify` | `tick.fault_ns` |
//! | 4 | `AdversaryInjector::classify` | `tick.adversary_ns` |
//! | engine | refresh, stop check, settling: `AsyncSimulator::run` | `tick.tail_ns` |
//!
//! Loops 3 and 4 run the hostile plans compiled onto the workload's own
//! graph; `tick.tail_ns` is measured against the fullest loop the
//! workload's engine actually runs (2 without plans, 4 with them), so it
//! can read below zero when the engine's loop beats the hand-built one.

use std::hint::black_box;
use std::time::Instant;

use gossip_core::convex::VanillaGossip;
use gossip_graph::Graph;
use gossip_sim::adversary::{AdversaryAction, AdversaryInjector};
use gossip_sim::clock::{EdgeClockQueue, GlobalTickProcess, TickProcess};
use gossip_sim::engine::ClockModel;
use gossip_sim::fault::{ContactFate, FaultInjector};
use gossip_sim::{AdversaryPlan, AsyncSimulator, FaultPlan, NodeValues, SimulationConfig};
use gossip_sim::{SimulationOutcome, StoppingRule};

use crate::report::{median, Outcome};

/// Repetitions of every loop; the loops interleave, so a slow phase of the
/// machine hits each of them alike, and each metric is a median.
const REPS: usize = 5;

/// One workload's profile inputs.
pub struct TickProfile<'a> {
    pub graph: &'a Graph,
    pub clock: ClockModel,
    pub seed: u64,
    pub ticks: u64,
    pub initial: &'a NodeValues,
    pub faults: &'a FaultPlan,
    pub adversary: &'a AdversaryPlan,
    /// Whether the workload's own engine runs classify contacts.
    pub engine_classifies: bool,
}

impl TickProfile<'_> {
    /// Runs every loop `REPS` times and sets the `tick.*` metrics.
    pub fn measure(&self, out: &mut Outcome) -> Result<(), String> {
        let mut seconds = vec![Vec::new(); 6];
        for _ in 0..REPS {
            seconds[0].push(self.time_loop::<0>()?);
            seconds[1].push(self.time_loop::<1>()?);
            seconds[2].push(self.time_loop::<2>()?);
            seconds[3].push(self.time_loop::<3>()?);
            seconds[4].push(self.time_loop::<4>()?);
            seconds[5].push(self.time_engine()?);
        }
        let ns: Vec<f64> = seconds
            .iter()
            .map(|s| median(s).unwrap_or(0.0) * 1e9 / self.ticks as f64)
            .collect();
        out.set("tick.sampler_ns", ns[0]);
        out.set("tick.edge_ns", ns[1] - ns[0]);
        out.set("tick.kernel_ns", ns[2] - ns[1]);
        out.set("tick.fault_ns", ns[3] - ns[2]);
        out.set("tick.adversary_ns", ns[4] - ns[3]);
        let engine_parts = if self.engine_classifies { ns[4] } else { ns[2] };
        out.set("tick.tail_ns", ns[5] - engine_parts);
        Ok(())
    }

    fn time_loop<const LEVEL: u8>(&self) -> Result<f64, String> {
        let mut values = self.initial.clone();
        let mut faults = FaultInjector::new(self.faults, self.graph).map_err(|e| e.to_string())?;
        let mut adversary =
            AdversaryInjector::new(self.adversary, self.graph).map_err(|e| e.to_string())?;
        let mut parts = Parts {
            graph: self.graph,
            values: &mut values,
            faults: &mut faults,
            adversary: &mut adversary,
        };
        let seconds = match self.clock {
            ClockModel::PerEdgeQueue => {
                let clock =
                    EdgeClockQueue::new(self.graph, self.seed).map_err(|e| e.to_string())?;
                parts.drive::<_, LEVEL>(clock, self.ticks)
            }
            ClockModel::GlobalUniform => {
                let clock =
                    GlobalTickProcess::new(self.graph, self.seed).map_err(|e| e.to_string())?;
                parts.drive::<_, LEVEL>(clock, self.ticks)
            }
        };
        black_box(values.sum());
        Ok(seconds)
    }

    fn time_engine(&self) -> Result<f64, String> {
        let mut config = SimulationConfig::new(self.seed)
            .with_clock_model(self.clock)
            .with_stopping_rule(StoppingRule::max_ticks(self.ticks));
        if self.engine_classifies {
            config = config
                .with_fault_plan(self.faults.clone())
                .with_adversary_plan(self.adversary.clone());
        }
        let mut sim = AsyncSimulator::new(
            self.graph,
            self.initial.clone(),
            VanillaGossip::new(),
            config,
        )
        .map_err(|e| e.to_string())?;
        let start = Instant::now();
        let outcome: SimulationOutcome = sim.run().map_err(|e| e.to_string())?;
        let seconds = start.elapsed().as_secs_f64();
        if outcome.total_ticks != self.ticks {
            return Err(format!(
                "profile engine run stopped at {} of {} ticks",
                outcome.total_ticks, self.ticks
            ));
        }
        Ok(seconds)
    }
}

struct Parts<'a> {
    graph: &'a Graph,
    values: &'a mut NodeValues,
    faults: &'a mut FaultInjector,
    adversary: &'a mut AdversaryInjector,
}

impl Parts<'_> {
    /// Times `ticks` events through loop `LEVEL` (see the module table).
    fn drive<P: TickProcess, const LEVEL: u8>(&mut self, mut clock: P, ticks: u64) -> f64 {
        let edges = self.graph.edges();
        let start = Instant::now();
        for _ in 0..ticks {
            let event = clock.next_tick();
            if LEVEL == 0 {
                black_box(&event);
                continue;
            }
            let edge = edges[event.edge.index()];
            let (u, v) = edge.endpoints();
            if LEVEL == 1 {
                black_box((u, v));
                continue;
            }
            if LEVEL >= 3
                && self
                    .faults
                    .classify(event.edge, edge, event.global_tick_count)
                    != ContactFate::Delivered
            {
                continue;
            }
            if LEVEL < 4 {
                self.values.average_pair(u, v);
                continue;
            }
            let (xu, xv) = (self.values.get(u), self.values.get(v));
            match self
                .adversary
                .classify(event.edge, edge, event.global_tick_count, xu, xv)
            {
                AdversaryAction::Honest => self.values.average_pair(u, v),
                AdversaryAction::Censored => {}
                AdversaryAction::Falsified(contact) => {
                    // Substitute the reports, update, then restore the
                    // frozen-state endpoints, as the engine does.
                    if let Some(report) = contact.u {
                        self.values.set(u, report.value);
                    }
                    if let Some(report) = contact.v {
                        self.values.set(v, report.value);
                    }
                    self.values.average_pair(u, v);
                    if contact.u.is_some_and(|r| r.restore) {
                        self.values.set(u, xu);
                    }
                    if contact.v.is_some_and(|r| r.restore) {
                        self.values.set(v, xv);
                    }
                }
            }
        }
        start.elapsed().as_secs_f64()
    }
}
