//! `hostile-checkpoint`: a fixed-tick-budget vanilla run on a 3 000-node
//! expander barbell under message loss and a biased minority, checkpointed
//! into the run store and resumed from it.
//!
//! * Set-up: build the instance, compile both plans onto it, and run the
//!   uninterrupted reference (no checkpoints) that every check compares
//!   against; the repetitions must agree bit for bit.
//! * Unit of work (`wall_s`), one operation: a checkpointing run that
//!   commits every checkpoint through `RunStore::commit_checkpoint` into a
//!   fresh directory, then one resume cycle: `RunStore::open` in resume
//!   mode, `latest_checkpoint`, `EngineCheckpoint::from_value`,
//!   `AsyncSimulator::restore`, and the run to the stop.  The trial row is
//!   never committed, because loading drops the checkpoints of committed
//!   trials.
//! * Checks: the checkpointing run and the restored run both match the
//!   reference bit for bit (stop tick, time bits, value bits, fault and
//!   adversary counters), the store load drops no tail, the newest
//!   checkpoint is the last one written, and both injectors did work.
//!
//! Sizing: loading the store today parses each checkpoint line in time
//! quadratic in its length, so lines stay near 0.2 MiB; the last checkpoint
//! leaves about a second of ticks for the resumed run.

use std::path::Path;
use std::time::Instant;

use gossip_core::convex::VanillaGossip;
use gossip_sim::engine::ClockModel;
use gossip_sim::{
    AdversaryPlan, AsyncSimulator, EngineCheckpoint, FaultPlan, NodeValues, SimError,
    SimulationConfig, SimulationOutcome, StoppingRule,
};
use gossip_store::{trial_key, CheckpointRecord, RunStore, TrialKey};
use gossip_workloads::{
    AdversaryProfile, FaultProfile, InitialCondition, Scenario, ScenarioInstance,
};

use crate::report::{median, set_sim_layers, Outcome};
use crate::sys::{self, ScratchDir};
use crate::tick_profile::TickProfile;
use crate::trace::Tracer;
use crate::{derive_seed, Context, SETUP_REPS};

pub const WHY: &str = "The only workload with fault and adversary classification, checkpoint \
                       writes and store reads; it runs million-relax's per-tick loop on the \
                       classified path.";

/// Instance and run shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub left: usize,
    pub right: usize,
    /// Tick budget of every run.
    pub ticks: u64,
    /// Checkpoint cadence in ticks.
    pub cadence: u64,
}

/// Two checkpoints per run, at a third and two thirds of the budget; the
/// last third (about a second) is what a resumed run replays.
pub const SPEC: Spec = Spec {
    left: 1_000,
    right: 2_000,
    ticks: 36_000_000,
    cadence: 12_000_000,
};

const FAULTS: FaultProfile = FaultProfile::MessageLoss { p: 0.2 };
const ADVERSARY: AdversaryProfile = AdversaryProfile::BiasedMinority {
    fraction: 0.05,
    bias: 1.0,
};
/// The store's tier token for this workload's checkpoint log.
const EXPERIMENT: &str = "PERFBENCH";
const PROFILE_TICKS: u64 = 2_000_000;

/// Seed streams (see [`Context::derive`]).
const PLANS: u64 = 1;
const CLOCK: u64 = 2;
const INPUT: u64 = 3;
const PROFILE: u64 = 4;

/// The hostile plans compiled onto `instance`; the other workloads' tick
/// profiles use them too.
pub fn plans(instance: &ScenarioInstance, seed: u64) -> (FaultPlan, AdversaryPlan) {
    (
        FAULTS.compile(instance, derive_seed(seed, PLANS, 0)),
        ADVERSARY.compile(instance, derive_seed(seed, PLANS, 1)),
    )
}

/// One built instance with its engine configuration.
pub struct Hostile {
    pub spec: Spec,
    pub instance: ScenarioInstance,
    initial: NodeValues,
    config: SimulationConfig,
    key: TrialKey,
}

/// What a checkpointing run left behind.
pub struct Written {
    pub seconds: f64,
    pub outcome: SimulationOutcome,
    pub checkpoints: u64,
    pub log_bytes: u64,
}

impl Hostile {
    pub fn build(spec: Spec, seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let scenario = Scenario::ExpanderBarbell {
            left: spec.left,
            right: spec.right,
        };
        let instance = tracer
            .span("graph.build", || scenario.instantiate(seed))
            .map_err(|e| e.to_string())?;
        let (faults, adversary) = plans(&instance, seed);
        let initial = InitialCondition::Uniform { lo: 0.0, hi: 1.0 }
            .generate(
                instance.graph.node_count(),
                None,
                derive_seed(seed, INPUT, 0),
            )
            .map_err(|e| e.to_string())?;
        let config = SimulationConfig::new(derive_seed(seed, CLOCK, 0))
            .with_clock_model(ClockModel::GlobalUniform)
            .with_stopping_rule(StoppingRule::max_ticks(spec.ticks))
            .with_fault_plan(faults)
            .with_adversary_plan(adversary);
        let fingerprint = format!(
            "{};{};{}",
            scenario.fingerprint(),
            FAULTS.fingerprint(),
            ADVERSARY.fingerprint()
        );
        Ok(Hostile {
            spec,
            instance,
            initial,
            config,
            key: trial_key(EXPERIMENT, &fingerprint, seed, "perfbench"),
        })
    }

    /// `AsyncSimulator::new` on the instance; pushes the heap it took onto
    /// `new_mib`.
    fn simulator(
        &self,
        config: SimulationConfig,
        tracer: &Tracer,
        new_mib: &mut Vec<f64>,
    ) -> Result<AsyncSimulator<'_, VanillaGossip>, String> {
        let values = self.initial.clone();
        let (sim, mib) = sys::heap_growth(|| {
            tracer.span("sim.new", || {
                AsyncSimulator::new(&self.instance.graph, values, VanillaGossip::new(), config)
            })
        });
        new_mib.push(mib);
        sim.map_err(|e| e.to_string())
    }

    /// The uninterrupted run, without checkpoints.
    pub fn reference(
        &self,
        tracer: &Tracer,
        new_mib: &mut Vec<f64>,
    ) -> Result<SimulationOutcome, String> {
        let mut sim = self.simulator(self.config.clone(), tracer, new_mib)?;
        tracer
            .span("sim.run", || sim.run())
            .map_err(|e| e.to_string())
    }

    /// The checkpointing run: every checkpoint it captures is committed to
    /// a fresh store in `dir`.  The benchmark's only use of checkpoint
    /// capture.
    pub fn write_checkpoints(
        &self,
        dir: &Path,
        tracer: &Tracer,
        new_mib: &mut Vec<f64>,
    ) -> Result<Written, String> {
        let start = Instant::now();
        let mut store = RunStore::open(dir, false).map_err(|e| e.to_string())?;
        let config = self
            .config
            .clone()
            .with_checkpoint_every_ticks(self.spec.cadence);
        let mut sim = self.simulator(config, tracer, new_mib)?;
        let mut checkpoints = 0;
        // The sink speaks `SimError`; carry a store failure across it.
        let mut store_failure = None;
        let outcome = tracer.span("sim.run", || {
            sim.run_with_checkpoints(&mut |checkpoint| {
                let blob = tracer.span("ckpt.encode", || checkpoint.to_value());
                let record = CheckpointRecord {
                    key: self.key,
                    experiment: EXPERIMENT.to_string(),
                    tick: checkpoint.tick(),
                    blob,
                };
                tracer
                    .span("store.commit", || store.commit_checkpoint(record))
                    .map_err(|error| {
                        let reason = format!("checkpoint commit failed: {error}");
                        store_failure = Some(reason.clone());
                        SimError::InvalidConfig { reason }
                    })?;
                checkpoints += 1;
                Ok(())
            })
        });
        let outcome = match (outcome, store_failure) {
            (Ok(outcome), _) => outcome,
            (Err(_), Some(reason)) => return Err(reason),
            (Err(error), None) => return Err(error.to_string()),
        };
        let seconds = start.elapsed().as_secs_f64();
        let log_bytes = std::fs::metadata(store.checkpoint_path(EXPERIMENT))
            .map_err(|e| e.to_string())?
            .len();
        Ok(Written {
            seconds,
            outcome,
            checkpoints,
            log_bytes,
        })
    }

    /// One resume cycle from the store in `dir`: load, pick the newest
    /// checkpoint, decode, restore and run to the stop.  Fails when the
    /// load dropped a torn tail or the newest checkpoint is not the last
    /// one a full run writes.
    pub fn resume(&self, dir: &Path, tracer: &Tracer) -> Result<(f64, SimulationOutcome), String> {
        let start = Instant::now();
        let outcome = tracer.span("resume.cycle", || {
            let store = tracer
                .span("store.load", || RunStore::open(dir, true))
                .map_err(|e| e.to_string())?;
            if let Some(note) = store.notes().first() {
                return Err(format!("store load dropped a tail: {note}"));
            }
            let record = store
                .latest_checkpoint(self.key)
                .ok_or("the store holds no checkpoint of this trial")?;
            let last = (self.spec.ticks - 1) / self.spec.cadence * self.spec.cadence;
            if record.tick != last {
                return Err(format!(
                    "newest checkpoint is at tick {}, the run wrote one at {last}",
                    record.tick
                ));
            }
            let checkpoint = tracer
                .span("ckpt.decode", || EngineCheckpoint::from_value(&record.blob))
                .map_err(|e| e.to_string())?;
            let config = self.config.clone();
            let mut sim = tracer
                .span("ckpt.restore", || {
                    AsyncSimulator::restore(
                        &self.instance.graph,
                        VanillaGossip::new(),
                        config,
                        &checkpoint,
                    )
                })
                .map_err(|e| e.to_string())?;
            tracer
                .span("resume.run", || sim.run())
                .map_err(|e| e.to_string())
        })?;
        Ok((start.elapsed().as_secs_f64(), outcome))
    }
}

/// `Ok` when `got` is bit-identical to `expected`: stop tick and reason,
/// time bits, refresh count, fault and adversary counters, value bits.
pub fn same_run(expected: &SimulationOutcome, got: &SimulationOutcome) -> Result<(), String> {
    let fields = [
        ("stop tick", expected.total_ticks, got.total_ticks),
        (
            "stop time bits",
            expected.elapsed_time.to_bits(),
            got.elapsed_time.to_bits(),
        ),
        (
            "moment refreshes",
            expected.moment_refreshes,
            got.moment_refreshes,
        ),
    ];
    for (what, want, have) in fields {
        if want != have {
            return Err(format!(
                "{what} {have} differs from the uninterrupted {want}"
            ));
        }
    }
    if expected.stop_reason != got.stop_reason {
        return Err(format!(
            "stopped {:?}, not {:?}",
            got.stop_reason, expected.stop_reason
        ));
    }
    if expected.fault_stats != got.fault_stats {
        return Err(format!("fault counters {:?} differ", got.fault_stats));
    }
    if expected.adversary_stats != got.adversary_stats {
        return Err(format!(
            "adversary counters {:?} differ",
            got.adversary_stats
        ));
    }
    let want = expected.final_values.as_slice();
    let have = got.final_values.as_slice();
    if want.len() != have.len() {
        return Err("value vectors differ in length".into());
    }
    match want
        .iter()
        .zip(have)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(node) => Err(format!(
            "value of node {node} is {}, uninterrupted {}",
            have[node], want[node]
        )),
        None => Ok(()),
    }
}

/// `Ok` when the run suppressed and falsified contacts, so both layers
/// were exercised.
fn injectors_worked(outcome: &SimulationOutcome) -> Result<(), String> {
    if outcome.fault_stats.total_suppressed() == 0 {
        return Err("the fault injector suppressed no contact".into());
    }
    if outcome.adversary_stats.falsified_contacts == 0 {
        return Err("the adversary falsified no contact".into());
    }
    Ok(())
}

/// One operation: checkpointing run into a fresh directory, then a resume
/// cycle; returns its time when every check passed.
pub fn checkpoint_cycle(
    hostile: &Hostile,
    reference: &SimulationOutcome,
    written: Result<Written, String>,
    dir: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Option<Written> {
    let result = written.and_then(|written| {
        same_run(reference, &written.outcome).map_err(|e| format!("checkpointing run: {e}"))?;
        let (resume_s, resumed) = hostile.resume(dir, tracer)?;
        same_run(reference, &resumed).map_err(|e| format!("restored run: {e}"))?;
        injectors_worked(&resumed)?;
        Ok((written, resume_s))
    });
    match result {
        Ok((written, resume_s)) => {
            out.wall.push(written.seconds + resume_s);
            out.record("resume cycle", Ok(()));
            Some(written)
        }
        Err(reason) => {
            out.record("resume cycle", Err(reason));
            None
        }
    }
}

pub fn run(ctx: &Context, out: &mut Outcome) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let mut new_mib = Vec::new();
    let mut built: Option<(Hostile, SimulationOutcome)> = None;
    let mut build_mib = 0.0;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let (hostile, mib) = sys::rss_growth(|| Hostile::build(SPEC, ctx.seed, tracer));
        let hostile = hostile?;
        let reference = hostile.reference(tracer, &mut new_mib)?;
        out.setup.push(start.elapsed().as_secs_f64());
        if rep == 0 {
            build_mib = mib;
        }
        if let Some((_, first)) = &built {
            if let Err(e) = same_run(first, &reference) {
                out.broken = Some(format!("set-up repetitions disagree: {e}"));
            }
        }
        built = Some((hostile, reference));
    }
    let (hostile, reference) = built.expect("at least one set-up repetition");

    let mut written_runs = Vec::new();
    ctx.repeat(|op| {
        let dir = ScratchDir::new(&format!("hostile-{op}")).map_err(|e| e.to_string())?;
        let written = hostile.write_checkpoints(dir.path(), tracer, &mut new_mib);
        if let Some(w) = checkpoint_cycle(&hostile, &reference, written, dir.path(), tracer, out) {
            written_runs.push(w);
        }
        Ok(())
    })?;

    if !tracer.enabled() {
        return Ok(());
    }
    out.set("graph.build_mib", build_mib);
    out.set_median("graph.build_s", &tracer.self_times_s("graph.build"));
    let runs = tracer.self_times_s("sim.run").len();
    let ticks = vec![reference.total_ticks as f64; runs];
    let refreshes = vec![reference.moment_refreshes as f64; runs];
    set_sim_layers(out, tracer, &ticks, &refreshes, &new_mib);
    out.set(
        "fault.suppressed",
        reference.fault_stats.total_suppressed() as f64,
    );
    out.set(
        "adversary.falsified",
        reference.adversary_stats.falsified_contacts as f64,
    );
    if let Some(w) = written_runs.first() {
        out.set("ckpt.count", w.checkpoints as f64);
        out.set("ckpt.log_mib", sys::mib(w.log_bytes));
        out.set(
            "ckpt.line_mib",
            sys::mib(w.log_bytes) / w.checkpoints.max(1) as f64,
        );
    }
    for (metric, span) in [
        ("ckpt.encode_s", "ckpt.encode"),
        ("ckpt.decode_s", "ckpt.decode"),
        ("ckpt.restore_s", "ckpt.restore"),
        ("store.commit_s", "store.commit"),
        ("store.load_s", "store.load"),
        ("resume.run_s", "resume.run"),
    ] {
        out.set_median(metric, &tracer.self_times_s(span));
    }
    if let Some(total) = median(&tracer.durations_s("resume.cycle")) {
        out.set("resume.total_s", total);
    }
    sys::working_set(out, &hostile.instance);
    let (faults, adversary) = plans(&hostile.instance, ctx.seed);
    TickProfile {
        graph: &hostile.instance.graph,
        clock: ClockModel::GlobalUniform,
        seed: ctx.derive(PROFILE, 0),
        ticks: PROFILE_TICKS,
        initial: &hostile.initial,
        faults: &faults,
        adversary: &adversary,
        engine_classifies: true,
    }
    .measure(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;

    /// Small enough for a unit test, with two checkpoints per run.
    const TINY: Spec = Spec {
        left: 60,
        right: 90,
        ticks: 60_000,
        cadence: 20_000,
    };

    fn setup(tag: &str) -> (Hostile, SimulationOutcome, ScratchDir, Tracer) {
        let tracer = Tracer::new(false);
        let hostile = Hostile::build(TINY, 11, &tracer).unwrap();
        let reference = hostile.reference(&tracer, &mut Vec::new()).unwrap();
        let dir = ScratchDir::new(tag).unwrap();
        (hostile, reference, dir, tracer)
    }

    fn log_path(dir: &Path) -> std::path::PathBuf {
        dir.join(format!("{}.ckpt.jsonl", EXPERIMENT.to_lowercase()))
    }

    #[test]
    fn an_intact_cycle_passes_and_reports_its_time() {
        let (hostile, reference, dir, tracer) = setup("test-intact");
        let mut out = Outcome::default();
        let written = hostile.write_checkpoints(dir.path(), &tracer, &mut Vec::new());
        let written =
            checkpoint_cycle(&hostile, &reference, written, dir.path(), &tracer, &mut out)
                .expect("intact cycle passes");
        assert_eq!(written.checkpoints, 2);
        assert_eq!((out.attempted, out.failed, out.wall.len()), (1, 0, 1));
        injectors_worked(&reference).unwrap();
    }

    /// Corrupts the newest checkpoint line of the log in `dir` with `edit`,
    /// runs the cycle's checks and returns the accounting.
    fn corrupted(tag: &str, edit: impl Fn(&mut Vec<u8>)) -> Outcome {
        let (hostile, reference, dir, tracer) = setup(tag);
        let written = hostile.write_checkpoints(dir.path(), &tracer, &mut Vec::new());
        let mut bytes = std::fs::read(log_path(dir.path())).unwrap();
        edit(&mut bytes);
        std::fs::write(log_path(dir.path()), bytes).unwrap();
        let mut out = Outcome::default();
        assert!(
            checkpoint_cycle(&hostile, &reference, written, dir.path(), &tracer, &mut out)
                .is_none()
        );
        out.finish();
        out
    }

    fn assert_failed_without_time(out: &Outcome) {
        assert_eq!((out.attempted, out.failed), (1, 1));
        assert!(out.wall.is_empty());
        let line = out.to_json(END_TO_END, false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        assert!(
            !line.contains("wall_s"),
            "a failed cycle reported a time: {line}"
        );
    }

    #[test]
    fn a_torn_final_checkpoint_line_fails_the_cycle_and_reports_no_time() {
        // The load drops the torn line and would restore from the older
        // checkpoint, bit-identically; the tail check still fails it.
        let out = corrupted("test-torn", |bytes| {
            let cut = bytes.len() - 100;
            bytes.truncate(cut);
        });
        assert_failed_without_time(&out);
    }

    #[test]
    fn a_flipped_value_in_the_newest_checkpoint_fails_the_cycle_and_reports_no_time() {
        let out = corrupted("test-flipped", |bytes| {
            // The first value of the last line, stored as the hex of its
            // bits: change one digit so the line still parses.
            let last_line = bytes[..bytes.len() - 1]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let values = last_line
                + bytes[last_line..]
                    .windows(10)
                    .position(|w| w == b"\"values\":[")
                    .expect("values field");
            let digit = values + 12;
            bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
        });
        assert_failed_without_time(&out);
    }
}
