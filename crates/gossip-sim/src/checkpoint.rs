//! Crash-consistent mid-run checkpoints of the asynchronous engine.
//!
//! An [`EngineCheckpoint`] captures, at a deterministic tick boundary, every
//! piece of state a resumed run needs to be **bit-identical** to the
//! uninterrupted one: the value vector, the moment tracker's shifted running
//! sums (drift and all), the keystream positions of the clock / fault /
//! adversary ChaCha8 streams together with their unconsumed batch buffers,
//! the edge-clock queue, the injector counters and stale-replay histories,
//! the handler's own state ([`HandlerState`]), and the engine-side
//! stop/settling bookkeeping.  Apart from the per-edge clock queue (one
//! entry per edge by construction) and whatever a handler keeps per edge,
//! nothing in it grows with the edge count.  The stopping rule itself is
//! pure (see [`crate::stopping`]) and is reconstructed from the
//! [`SimulationConfig`] on restore.
//!
//! Capture is driven by [`SimulationConfig::checkpoint_every_ticks`] through
//! [`AsyncSimulator::run_with_checkpoints`]; restore goes through
//! [`AsyncSimulator::restore`], which validates that the checkpoint matches
//! the graph and configuration before installing any state.
//!
//! Serialization is explicit and lossless.  [`EngineCheckpoint::to_value`]
//! renders a JSON document through one codec per field type: an `f64` is
//! the hex of its bit pattern, a `u64`/`u128` a decimal string (a JSON
//! number carries neither exactly), a count a number, `None` is `null` and
//! a pair a 2-element array.  One macro builds each state struct's codec
//! from its field list; only the `"version"` stamp and the sampler's
//! `"kind"` tag are written by hand.  [`EngineCheckpoint::from_value`]
//! accepts a string only if it re-encodes to itself and rejects anything
//! malformed with [`SimError::CheckpointInvalid`] — a torn or corrupt blob
//! is detected, never silently half-applied.
//!
//! [`AsyncSimulator`]: crate::engine::AsyncSimulator
//! [`AsyncSimulator::run_with_checkpoints`]: crate::engine::AsyncSimulator::run_with_checkpoints
//! [`AsyncSimulator::restore`]: crate::engine::AsyncSimulator::restore
//! [`SimulationConfig`]: crate::engine::SimulationConfig
//! [`SimulationConfig::checkpoint_every_ticks`]: crate::engine::SimulationConfig::checkpoint_every_ticks

use crate::adversary::{AdversaryInjectorState, AdversaryStats};
use crate::clock::{EdgeClockQueueState, GlobalTickProcessState};
use crate::engine::ClockModel;
use crate::fault::{FaultInjectorState, FaultStats};
use crate::handler::HandlerState;
use crate::moments::MomentTracker;
use crate::SimError;
use serde::json::Value;

/// Version stamp of the checkpoint document layout.  Bumped on any change to
/// the field set or encodings; a blob with a different version is rejected
/// (a checkpoint is a bit-exact machine state, not a migratable record).
///
/// Version 2 dropped the samplers' per-edge tick counters and added the
/// handler's state; version 1 blobs are rejected.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Checkpointed state of one tick sampler (mirrors
/// [`crate::engine`]'s internal sampler dispatch).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SamplerState {
    /// Per-edge exponential clock queue.
    Queue(EdgeClockQueueState),
    /// Global rate-`|E|` process.
    Global(GlobalTickProcessState),
}

/// A crash-consistent snapshot of a mid-flight [`AsyncSimulator`] run.
///
/// Opaque outside the crate: consumers treat it as a blob keyed by
/// [`Self::tick`], moving it to and from storage via [`Self::to_value`] /
/// [`Self::from_value`] and handing it back to
/// [`AsyncSimulator::restore`].
///
/// The handler's evolving state is captured through
/// [`EdgeTickHandler::save_state`] and reinstalled through
/// [`EdgeTickHandler::load_state`], so a resumed run matches the
/// uninterrupted one for every handler that implements the pair; capture
/// and restore both refuse a handler that does not.
///
/// [`EdgeTickHandler::save_state`]: crate::handler::EdgeTickHandler::save_state
/// [`EdgeTickHandler::load_state`]: crate::handler::EdgeTickHandler::load_state
///
/// [`AsyncSimulator`]: crate::engine::AsyncSimulator
/// [`AsyncSimulator::restore`]: crate::engine::AsyncSimulator::restore
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Global tick count at capture (the checkpoint boundary).
    pub(crate) ticks: u64,
    /// Simulated time of the last delivered tick.
    pub(crate) time: f64,
    /// Seed the run was configured with (identity check on restore).
    pub(crate) seed: u64,
    /// Clock model of the run (identity check on restore); always the one
    /// `sampler` belongs to.
    pub(crate) clock_model: ClockModel,
    /// Node count of the graph (identity check on restore).
    pub(crate) node_count: usize,
    /// Edge count of the graph (identity check on restore).
    pub(crate) edge_count: usize,
    /// The value vector, bit-exact.
    pub(crate) values: Vec<f64>,
    /// The moment tracker as it stood — the *drifted* running sums, not a
    /// rebuild; it counts exactly `values.len()` entries.
    pub(crate) moments: MomentTracker,
    /// Variance of the initial state (denominator of every ratio check).
    pub(crate) initial_variance: f64,
    /// Engine-side settling bookkeeping.
    pub(crate) last_settle: f64,
    /// Exact O(n) refreshes performed so far.
    pub(crate) moment_refreshes: u64,
    /// Whether the tracker was in the squared-deviation-overflow regime.
    pub(crate) moments_overflowed: bool,
    /// The tick sampler's full resumable state.
    pub(crate) sampler: SamplerState,
    /// Fault injector stream position and counters, when a plan is active.
    pub(crate) faults: Option<FaultInjectorState>,
    /// Adversary stream position, counters and replay histories, when a
    /// plan is active.
    pub(crate) adversary: Option<AdversaryInjectorState>,
    /// The handler's own state.
    pub(crate) handler: HandlerState,
}

impl EngineCheckpoint {
    /// The global tick count at which this checkpoint was captured.
    pub fn tick(&self) -> u64 {
        self.ticks
    }

    /// Renders the checkpoint as a JSON document (see the module docs for
    /// the encoding rules).
    pub fn to_value(&self) -> Value {
        let version = Value::Number(f64::from(CHECKPOINT_SCHEMA_VERSION));
        tagged("version", version, self.encode())
    }

    /// Parses a checkpoint back out of a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointInvalid`] for any structural problem:
    /// wrong schema version, missing or mistyped fields, encodings the
    /// encoder would not have written, moments counting a different number
    /// of entries than `values` holds, or a clock model other than the
    /// sampler's.  Inconsistencies with the *target run* (seed, graph
    /// shape, clock model, plans) are caught later by
    /// [`AsyncSimulator::restore`](crate::engine::AsyncSimulator::restore).
    pub fn from_value(value: &Value) -> crate::Result<Self> {
        let version: usize = as_object(value)
            .and_then(|obj| field(obj, "version"))
            .map_err(invalid)?;
        if version != CHECKPOINT_SCHEMA_VERSION as usize {
            return Err(invalid(format!(
                "unsupported checkpoint schema version {version} (expected {CHECKPOINT_SCHEMA_VERSION})"
            )));
        }
        let checkpoint = Self::decode(value).map_err(invalid)?;
        if checkpoint.moments.len() != checkpoint.values.len() {
            // A tracker of the wrong length reports a wrong variance, so a
            // run resumed from it could stop as converged while the values
            // are still far apart.
            return Err(invalid(format!(
                "moments count {} entries but the checkpoint holds {} values",
                checkpoint.moments.len(),
                checkpoint.values.len()
            )));
        }
        let sampler_model = match checkpoint.sampler {
            SamplerState::Queue(_) => ClockModel::PerEdgeQueue,
            SamplerState::Global(_) => ClockModel::GlobalUniform,
        };
        if checkpoint.clock_model != sampler_model {
            // `restore` checks only the clock model against its
            // configuration, so a mismatched sampler would resume the run
            // on the other clock's stream.
            return Err(invalid(format!(
                "clock model {:?} does not match the {sampler_model:?} sampler",
                checkpoint.clock_model
            )));
        }
        Ok(checkpoint)
    }
}

/// How one Rust type is written into the checkpoint document and read back
/// out of it.  Decoding fails with a reason naming the offending field.
trait Codec: Sized {
    fn encode(&self) -> Value;
    fn decode(value: &Value) -> Result<Self, String>;
}

/// The exact bit pattern as 16 lower-case hex digits.
impl Codec for f64 {
    fn encode(&self) -> Value {
        Value::String(format!("{:016x}", self.to_bits()))
    }

    fn decode(value: &Value) -> Result<Self, String> {
        canonical(value, |s| {
            u64::from_str_radix(s, 16).ok().map(f64::from_bits)
        })
    }
}

/// A decimal string: JSON numbers are f64 in the vendored parser and would
/// silently round anything above 2^53.
impl Codec for u64 {
    fn encode(&self) -> Value {
        Value::String(self.to_string())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        canonical(value, |s| s.parse().ok())
    }
}

/// A decimal string, like `u64`.
impl Codec for u128 {
    fn encode(&self) -> Value {
        Value::String(self.to_string())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        canonical(value, |s| s.parse().ok())
    }
}

/// A JSON number: counts and indexes stay far below 2^53.
impl Codec for usize {
    fn encode(&self) -> Value {
        Value::Number(*self as f64)
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Ok(*n as usize)
            }
            _ => Err("not a non-negative integer".into()),
        }
    }
}

impl Codec for bool {
    fn encode(&self) -> Value {
        Value::Bool(*self)
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Bool(b) => Ok(*b),
            _ => Err("not a bool".into()),
        }
    }
}

impl Codec for ClockModel {
    fn encode(&self) -> Value {
        let name = match self {
            ClockModel::PerEdgeQueue => "per_edge_queue",
            ClockModel::GlobalUniform => "global_uniform",
        };
        Value::String(name.into())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        [ClockModel::PerEdgeQueue, ClockModel::GlobalUniform]
            .into_iter()
            .find(|model| model.encode() == *value)
            .ok_or_else(|| "not a known clock model".into())
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(T::encode).collect())
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Array(items) => items.iter().map(T::decode).collect(),
            _ => Err("not an array".into()),
        }
    }
}

/// `None` is `null`.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::encode)
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

/// A 2-element array.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self) -> Value {
        Value::Array(vec![self.0.encode(), self.1.encode()])
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match value {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::decode(&items[0])?, B::decode(&items[1])?))
            }
            _ => Err("not a 2-element array".into()),
        }
    }
}

/// The state's fields behind a leading `"kind"` tag naming the sampler.
impl Codec for SamplerState {
    fn encode(&self) -> Value {
        let (kind, state) = match self {
            SamplerState::Queue(state) => ("queue", state.encode()),
            SamplerState::Global(state) => ("global", state.encode()),
        };
        tagged("kind", Value::String(kind.into()), state)
    }

    fn decode(value: &Value) -> Result<Self, String> {
        match get(as_object(value)?, "kind")? {
            Value::String(kind) if kind == "queue" => {
                EdgeClockQueueState::decode(value).map(SamplerState::Queue)
            }
            Value::String(kind) if kind == "global" => {
                GlobalTickProcessState::decode(value).map(SamplerState::Global)
            }
            _ => Err("kind: not a known sampler kind".into()),
        }
    }
}

/// Builds each listed struct's codec from its field list: an object with
/// one entry per field, named after it and in list order, every one of
/// which must be present to decode.
macro_rules! codec {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Codec for $ty {
            fn encode(&self) -> Value {
                Value::Object(vec![$((stringify!($field).into(), self.$field.encode())),*])
            }

            fn decode(value: &Value) -> Result<Self, String> {
                let obj = as_object(value)?;
                Ok($ty { $($field: field(obj, stringify!($field))?),* })
            }
        }
    )*};
}

codec! {
    EngineCheckpoint {
        ticks, time, seed, clock_model, node_count, edge_count, values, moments,
        initial_variance, last_settle, moment_refreshes, moments_overflowed, sampler,
        faults, adversary, handler,
    }
    MomentTracker { len, shift, sum, sum_sq, refreshes }
    EdgeClockQueueState { entries, rng_word_pos, global_tick_count, now, rate }
    GlobalTickProcessState { rng_word_pos, global_tick_count, now, batch_tail, batch_capacity }
    HandlerState { integers, reals }
    FaultInjectorState { rng_word_pos, stats }
    FaultStats { delivered, edge_down_skips, node_pause_skips, dropped }
    AdversaryInjectorState { rng_word_pos, stats, stale_histories }
    AdversaryStats {
        honest_contacts, falsified_contacts, censored_contacts, biased_reports,
        extreme_reports, stale_reports, flagged_reports, falsification_l1,
        max_falsification, report_min, report_max,
    }
}

fn invalid(reason: String) -> SimError {
    SimError::CheckpointInvalid { reason }
}

fn as_object(value: &Value) -> Result<&[(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err("not an object".into()),
    }
}

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Decodes field `key` of `obj`, naming it in the reason on failure.
fn field<T: Codec>(obj: &[(String, Value)], key: &str) -> Result<T, String> {
    T::decode(get(obj, key)?).map_err(|reason| format!("{key}: {reason}"))
}

/// Decodes a string-encoded scalar, accepting only the exact string its
/// encoder writes for the parsed value (no sign, leading zero or
/// upper-case hex digit), so a decoded document re-renders byte for byte.
fn canonical<T: Codec>(value: &Value, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
    match value {
        Value::String(s) => parse(s)
            .filter(|parsed| parsed.encode() == *value)
            .ok_or_else(|| format!("{s:?} is not a {}", std::any::type_name::<T>())),
        _ => Err("not a string".into()),
    }
}

/// `body`'s fields behind a leading `key: tag` entry.
fn tagged(key: &str, tag: Value, body: Value) -> Value {
    let Value::Object(fields) = body else {
        unreachable!("a struct codec encodes an object")
    };
    Value::Object(std::iter::once((key.into(), tag)).chain(fields).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(value: Value) -> String {
        serde_json::to_string(&value).expect("vendored serialization is infallible")
    }

    fn sample_checkpoint(sampler: SamplerState) -> EngineCheckpoint {
        EngineCheckpoint {
            ticks: 1 << 40,
            time: 1234.5678e-3,
            seed: u64::MAX - 7,
            clock_model: match sampler {
                SamplerState::Queue(_) => ClockModel::PerEdgeQueue,
                SamplerState::Global(_) => ClockModel::GlobalUniform,
            },
            node_count: 5,
            edge_count: 4,
            values: vec![0.1, -0.2, f64::MIN_POSITIVE, 3.0e300, -0.0],
            moments: MomentTracker {
                len: 5,
                shift: 0.58,
                sum: 2.9000000000000004,
                sum_sq: 9.04e300,
                refreshes: 3,
            },
            initial_variance: 1.64,
            last_settle: 0.25,
            moment_refreshes: 3,
            moments_overflowed: true,
            sampler,
            faults: Some(FaultInjectorState {
                rng_word_pos: (1u128 << 70) + 17,
                stats: FaultStats {
                    delivered: u64::MAX / 3,
                    edge_down_skips: 2,
                    node_pause_skips: 3,
                    dropped: 4,
                },
            }),
            adversary: Some(AdversaryInjectorState {
                rng_word_pos: 99,
                stats: AdversaryStats {
                    honest_contacts: 10,
                    falsified_contacts: 11,
                    censored_contacts: 12,
                    biased_reports: 13,
                    extreme_reports: 14,
                    stale_reports: 15,
                    flagged_reports: 16,
                    falsification_l1: 17.5,
                    max_falsification: 18.25,
                    report_min: f64::INFINITY,
                    report_max: f64::NEG_INFINITY,
                },
                stale_histories: vec![(2, vec![(7, 0.5), (9, -1.5)]), (4, vec![])],
            }),
            handler: HandlerState {
                integers: vec![0, 17, u64::MAX],
                reals: vec![None, Some(-0.0), Some(2.5e-300), None],
            },
        }
    }

    fn queue_sampler() -> SamplerState {
        SamplerState::Queue(EdgeClockQueueState {
            entries: vec![(0.125, 3), (0.25, 0), (0.25, 1), (9.75, 2)],
            rng_word_pos: (3u128 << 80) + 5,
            global_tick_count: 1 << 40,
            now: 0.0625,
            rate: 1.0,
        })
    }

    fn global_sampler() -> SamplerState {
        SamplerState::Global(GlobalTickProcessState {
            rng_word_pos: 12345,
            global_tick_count: 26,
            now: 3.5,
            batch_tail: vec![(0.001, 2), (0.002, 0)],
            batch_capacity: 1024,
        })
    }

    #[test]
    fn json_round_trip_is_lossless_for_both_samplers() {
        for sampler in [queue_sampler(), global_sampler()] {
            let original = sample_checkpoint(sampler);
            let rendered = render(original.to_value());
            let parsed = serde_json::from_str(&rendered).unwrap();
            let restored = EngineCheckpoint::from_value(&parsed).unwrap();
            assert_eq!(original, restored);
            // Bit-level spot checks PartialEq on f64 can't distinguish.
            assert_eq!(
                original.values[4].to_bits(),
                restored.values[4].to_bits(),
                "-0.0 must survive the round trip"
            );
            assert!(restored.adversary.as_ref().unwrap().stats.report_min == f64::INFINITY);
            assert_eq!(
                restored.handler.reals[1].map(f64::to_bits),
                Some((-0.0f64).to_bits()),
                "handler reals keep their bits"
            );
        }
    }

    #[test]
    fn version_one_blobs_are_rejected() {
        // A v1 document carried per-edge tick counters and no handler state;
        // its machine state cannot be reinstalled, so it is refused outright.
        let mut value = sample_checkpoint(global_sampler()).to_value();
        if let Value::Object(fields) = &mut value {
            assert_eq!(fields[0].0, "version");
            fields[0].1 = Value::Number(1.0);
        }
        let rejected = EngineCheckpoint::from_value(&value);
        assert!(
            matches!(&rejected, Err(SimError::CheckpointInvalid { reason }) if reason.contains("version 1")),
            "{rejected:?}"
        );
    }

    #[test]
    fn malformed_handler_state_is_rejected() {
        for bad in [
            Value::Null,
            Value::Object(vec![("integers".into(), Value::Array(vec![]))]),
            Value::Object(vec![
                ("integers".into(), Value::Array(vec![Value::Number(3.0)])),
                ("reals".into(), Value::Array(vec![])),
            ]),
            Value::Object(vec![
                ("integers".into(), Value::Array(vec![])),
                ("reals".into(), Value::Array(vec![Value::Bool(true)])),
            ]),
        ] {
            let mut value = sample_checkpoint(queue_sampler()).to_value();
            if let Value::Object(fields) = &mut value {
                let slot = fields.iter_mut().find(|(k, _)| k == "handler").unwrap();
                slot.1 = bad.clone();
            }
            assert!(
                matches!(
                    EngineCheckpoint::from_value(&value),
                    Err(SimError::CheckpointInvalid { .. })
                ),
                "accepted handler state {bad:?}"
            );
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let a = render(sample_checkpoint(queue_sampler()).to_value());
        let b = render(sample_checkpoint(queue_sampler()).to_value());
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_documents_are_rejected_not_half_applied() {
        let value = sample_checkpoint(queue_sampler()).to_value();
        // Wrong version.
        let mut wrong_version = value.clone();
        if let Value::Object(fields) = &mut wrong_version {
            fields[0].1 = Value::Number(99.0);
        }
        assert!(matches!(
            EngineCheckpoint::from_value(&wrong_version),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // A truncated ("torn") document: drop the trailing fields.
        let mut torn = value.clone();
        if let Value::Object(fields) = &mut torn {
            fields.truncate(5);
        }
        assert!(matches!(
            EngineCheckpoint::from_value(&torn),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // A moment tracker whose length disagrees with the values: resumed,
        // it would read a wrong variance and could stop as converged.
        for len in [0.0, 1e12] {
            let mut miscounted = value.clone();
            if let Value::Object(fields) = &mut miscounted {
                let (_, moments) = fields.iter_mut().find(|(k, _)| k == "moments").unwrap();
                if let Value::Object(entries) = moments {
                    entries[0] = ("len".into(), Value::Number(len));
                }
            }
            assert!(
                matches!(
                    EngineCheckpoint::from_value(&miscounted),
                    Err(SimError::CheckpointInvalid { .. })
                ),
                "accepted moments.len = {len}"
            );
        }
        // A mistyped float encoding.
        let mut mistyped = value;
        if let Value::Object(fields) = &mut mistyped {
            for (key, field) in fields.iter_mut() {
                if key == "time" {
                    *field = Value::Number(1.5);
                }
            }
        }
        assert!(matches!(
            EngineCheckpoint::from_value(&mistyped),
            Err(SimError::CheckpointInvalid { .. })
        ));
        // Not an object at all.
        assert!(EngineCheckpoint::from_value(&Value::Null).is_err());
    }
}
