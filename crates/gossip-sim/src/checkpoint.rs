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
//! Serialization is explicit and lossless: [`EngineCheckpoint::to_value`]
//! renders a JSON document in which every `f64` is stored as the hex of its
//! bit pattern and every 64/128-bit integer as a decimal string (the JSON
//! number type cannot carry either exactly), and
//! [`EngineCheckpoint::from_value`] parses it back, rejecting anything
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
use crate::{Result, SimError};
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
    /// Clock model of the run (identity check on restore).
    pub(crate) clock_model: ClockModel,
    /// Node count of the graph (identity check on restore).
    pub(crate) node_count: usize,
    /// Edge count of the graph (identity check on restore).
    pub(crate) edge_count: usize,
    /// The value vector, bit-exact.
    pub(crate) values: Vec<f64>,
    /// Moment tracker raw parts `(len, shift, sum, sum_sq, refreshes)` —
    /// the *drifted* running sums, not a rebuild.
    pub(crate) moments: (usize, f64, f64, f64, u64),
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

    /// The simulated time at which this checkpoint was captured.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The seed of the run this checkpoint belongs to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Renders the checkpoint as a JSON document (see the module docs for
    /// the encoding rules).
    pub fn to_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            (
                "version".into(),
                Value::Number(CHECKPOINT_SCHEMA_VERSION as f64),
            ),
            ("ticks".into(), u64_value(self.ticks)),
            ("time".into(), f64_value(self.time)),
            ("seed".into(), u64_value(self.seed)),
            (
                "clock_model".into(),
                Value::String(
                    match self.clock_model {
                        ClockModel::PerEdgeQueue => "per_edge_queue",
                        ClockModel::GlobalUniform => "global_uniform",
                    }
                    .into(),
                ),
            ),
            ("node_count".into(), Value::Number(self.node_count as f64)),
            ("edge_count".into(), Value::Number(self.edge_count as f64)),
            (
                "values".into(),
                Value::Array(self.values.iter().map(|&v| f64_value(v)).collect()),
            ),
            (
                "moments".into(),
                Value::Object(vec![
                    ("len".into(), Value::Number(self.moments.0 as f64)),
                    ("shift".into(), f64_value(self.moments.1)),
                    ("sum".into(), f64_value(self.moments.2)),
                    ("sum_sq".into(), f64_value(self.moments.3)),
                    ("refreshes".into(), u64_value(self.moments.4)),
                ]),
            ),
            ("initial_variance".into(), f64_value(self.initial_variance)),
            ("last_settle".into(), f64_value(self.last_settle)),
            ("moment_refreshes".into(), u64_value(self.moment_refreshes)),
            (
                "moments_overflowed".into(),
                Value::Bool(self.moments_overflowed),
            ),
            ("sampler".into(), sampler_value(&self.sampler)),
        ];
        fields.push((
            "faults".into(),
            match &self.faults {
                Some(state) => fault_state_value(state),
                None => Value::Null,
            },
        ));
        fields.push((
            "adversary".into(),
            match &self.adversary {
                Some(state) => adversary_state_value(state),
                None => Value::Null,
            },
        ));
        fields.push(("handler".into(), handler_state_value(&self.handler)));
        Value::Object(fields)
    }

    /// Parses a checkpoint back out of a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointInvalid`] for any structural problem:
    /// wrong schema version, missing or mistyped fields, unparseable
    /// encodings, or moments counting a different number of entries than
    /// `values` holds.  Inconsistencies with the *target run* (seed, graph
    /// shape, clock model, plans) are caught later by
    /// [`AsyncSimulator::restore`](crate::engine::AsyncSimulator::restore).
    pub fn from_value(value: &Value) -> Result<Self> {
        let obj = as_object(value, "checkpoint")?;
        let version = get_usize(obj, "version")?;
        if version != CHECKPOINT_SCHEMA_VERSION as usize {
            return Err(invalid(format!(
                "unsupported checkpoint schema version {version} (expected {CHECKPOINT_SCHEMA_VERSION})"
            )));
        }
        let clock_model = match get_str(obj, "clock_model")? {
            "per_edge_queue" => ClockModel::PerEdgeQueue,
            "global_uniform" => ClockModel::GlobalUniform,
            other => return Err(invalid(format!("unknown clock model {other:?}"))),
        };
        let values = as_array(get(obj, "values")?, "values")?
            .iter()
            .map(|v| value_f64(v, "values entry"))
            .collect::<Result<Vec<f64>>>()?;
        let moments_obj = as_object(get(obj, "moments")?, "moments")?;
        let moments = (
            get_usize(moments_obj, "len")?,
            get_f64(moments_obj, "shift")?,
            get_f64(moments_obj, "sum")?,
            get_f64(moments_obj, "sum_sq")?,
            get_u64(moments_obj, "refreshes")?,
        );
        if moments.0 != values.len() {
            // A tracker of the wrong length reports a wrong variance, so a
            // run resumed from it could stop as converged while the values
            // are still far apart.
            return Err(invalid(format!(
                "moments count {} entries but the checkpoint holds {} values",
                moments.0,
                values.len()
            )));
        }
        let sampler = parse_sampler(get(obj, "sampler")?)?;
        let faults = match get(obj, "faults")? {
            Value::Null => None,
            other => Some(parse_fault_state(other)?),
        };
        let adversary = match get(obj, "adversary")? {
            Value::Null => None,
            other => Some(parse_adversary_state(other)?),
        };
        let handler = parse_handler_state(get(obj, "handler")?)?;
        Ok(EngineCheckpoint {
            ticks: get_u64(obj, "ticks")?,
            time: get_f64(obj, "time")?,
            seed: get_u64(obj, "seed")?,
            clock_model,
            node_count: get_usize(obj, "node_count")?,
            edge_count: get_usize(obj, "edge_count")?,
            values,
            moments,
            initial_variance: get_f64(obj, "initial_variance")?,
            last_settle: get_f64(obj, "last_settle")?,
            moment_refreshes: get_u64(obj, "moment_refreshes")?,
            moments_overflowed: get_bool(obj, "moments_overflowed")?,
            sampler,
            faults,
            adversary,
            handler,
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers.  f64s carry their exact bit pattern as 16 hex digits;
// u64/u128 are decimal strings (JSON numbers are f64 in the vendored parser
// and would silently round anything above 2^53).

fn f64_value(v: f64) -> Value {
    Value::String(format!("{:016x}", v.to_bits()))
}

fn u64_value(v: u64) -> Value {
    Value::String(v.to_string())
}

fn u128_value(v: u128) -> Value {
    Value::String(v.to_string())
}

fn invalid(reason: String) -> SimError {
    SimError::CheckpointInvalid { reason }
}

fn as_object<'v>(value: &'v Value, ctx: &str) -> Result<&'v [(String, Value)]> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(invalid(format!("{ctx} is not an object"))),
    }
}

fn as_array<'v>(value: &'v Value, ctx: &str) -> Result<&'v [Value]> {
    match value {
        Value::Array(items) => Ok(items),
        _ => Err(invalid(format!("{ctx} is not an array"))),
    }
}

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| invalid(format!("missing field {key:?}")))
}

fn get_str<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v str> {
    match get(obj, key)? {
        Value::String(s) => Ok(s),
        _ => Err(invalid(format!("field {key:?} is not a string"))),
    }
}

fn value_f64(value: &Value, ctx: &str) -> Result<f64> {
    match value {
        Value::String(s) => u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| invalid(format!("{ctx} is not a 16-hex f64 bit pattern"))),
        _ => Err(invalid(format!("{ctx} is not a string"))),
    }
}

fn value_u64(value: &Value, ctx: &str) -> Result<u64> {
    match value {
        Value::String(s) => s
            .parse::<u64>()
            .map_err(|_| invalid(format!("{ctx} is not a decimal u64"))),
        _ => Err(invalid(format!("{ctx} is not a string"))),
    }
}

fn value_usize(value: &Value, ctx: &str) -> Result<usize> {
    match value {
        Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Ok(*n as usize),
        _ => Err(invalid(format!("{ctx} is not a non-negative integer"))),
    }
}

fn get_f64(obj: &[(String, Value)], key: &str) -> Result<f64> {
    value_f64(get(obj, key)?, key)
}

fn get_u64(obj: &[(String, Value)], key: &str) -> Result<u64> {
    value_u64(get(obj, key)?, key)
}

fn get_u128(obj: &[(String, Value)], key: &str) -> Result<u128> {
    match get(obj, key)? {
        Value::String(s) => s
            .parse::<u128>()
            .map_err(|_| invalid(format!("field {key:?} is not a decimal u128"))),
        _ => Err(invalid(format!("field {key:?} is not a string"))),
    }
}

fn get_usize(obj: &[(String, Value)], key: &str) -> Result<usize> {
    value_usize(get(obj, key)?, key)
}

fn get_bool(obj: &[(String, Value)], key: &str) -> Result<bool> {
    match get(obj, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(invalid(format!("field {key:?} is not a bool"))),
    }
}

/// `(f64, usize)` pairs — queue entries and global-batch draws share the
/// shape.
fn pairs_value(pairs: &[(f64, usize)]) -> Value {
    Value::Array(
        pairs
            .iter()
            .map(|&(x, i)| Value::Array(vec![f64_value(x), Value::Number(i as f64)]))
            .collect(),
    )
}

fn parse_pairs(value: &Value, ctx: &str) -> Result<Vec<(f64, usize)>> {
    as_array(value, ctx)?
        .iter()
        .map(|entry| {
            let pair = as_array(entry, ctx)?;
            if pair.len() != 2 {
                return Err(invalid(format!("{ctx} entry is not a 2-element array")));
            }
            Ok((value_f64(&pair[0], ctx)?, value_usize(&pair[1], ctx)?))
        })
        .collect()
}

fn sampler_value(state: &SamplerState) -> Value {
    match state {
        SamplerState::Queue(q) => Value::Object(vec![
            ("kind".into(), Value::String("queue".into())),
            ("entries".into(), pairs_value(&q.entries)),
            ("rng_word_pos".into(), u128_value(q.rng_word_pos)),
            ("global_tick_count".into(), u64_value(q.global_tick_count)),
            ("now".into(), f64_value(q.now)),
            ("rate".into(), f64_value(q.rate)),
        ]),
        SamplerState::Global(g) => Value::Object(vec![
            ("kind".into(), Value::String("global".into())),
            ("rng_word_pos".into(), u128_value(g.rng_word_pos)),
            ("global_tick_count".into(), u64_value(g.global_tick_count)),
            ("now".into(), f64_value(g.now)),
            ("batch_tail".into(), pairs_value(&g.batch_tail)),
            (
                "batch_capacity".into(),
                Value::Number(g.batch_capacity as f64),
            ),
        ]),
    }
}

fn parse_sampler(value: &Value) -> Result<SamplerState> {
    let obj = as_object(value, "sampler")?;
    match get_str(obj, "kind")? {
        "queue" => Ok(SamplerState::Queue(EdgeClockQueueState {
            entries: parse_pairs(get(obj, "entries")?, "sampler entries")?,
            rng_word_pos: get_u128(obj, "rng_word_pos")?,
            global_tick_count: get_u64(obj, "global_tick_count")?,
            now: get_f64(obj, "now")?,
            rate: get_f64(obj, "rate")?,
        })),
        "global" => Ok(SamplerState::Global(GlobalTickProcessState {
            rng_word_pos: get_u128(obj, "rng_word_pos")?,
            global_tick_count: get_u64(obj, "global_tick_count")?,
            now: get_f64(obj, "now")?,
            batch_tail: parse_pairs(get(obj, "batch_tail")?, "batch_tail")?,
            batch_capacity: get_usize(obj, "batch_capacity")?,
        })),
        other => Err(invalid(format!("unknown sampler kind {other:?}"))),
    }
}

/// Integers as decimal strings, reals as bit-pattern hex with `null` for an
/// empty slot.
fn handler_state_value(state: &HandlerState) -> Value {
    Value::Object(vec![
        (
            "integers".into(),
            Value::Array(state.integers.iter().map(|&i| u64_value(i)).collect()),
        ),
        (
            "reals".into(),
            Value::Array(
                state
                    .reals
                    .iter()
                    .map(|r| r.map_or(Value::Null, f64_value))
                    .collect(),
            ),
        ),
    ])
}

fn parse_handler_state(value: &Value) -> Result<HandlerState> {
    let obj = as_object(value, "handler")?;
    Ok(HandlerState {
        integers: as_array(get(obj, "integers")?, "handler integers")?
            .iter()
            .map(|v| value_u64(v, "handler integer"))
            .collect::<Result<Vec<u64>>>()?,
        reals: as_array(get(obj, "reals")?, "handler reals")?
            .iter()
            .map(|v| match v {
                Value::Null => Ok(None),
                other => value_f64(other, "handler real").map(Some),
            })
            .collect::<Result<Vec<Option<f64>>>>()?,
    })
}

fn fault_state_value(state: &FaultInjectorState) -> Value {
    Value::Object(vec![
        ("rng_word_pos".into(), u128_value(state.rng_word_pos)),
        (
            "stats".into(),
            Value::Object(vec![
                ("delivered".into(), u64_value(state.stats.delivered)),
                (
                    "edge_down_skips".into(),
                    u64_value(state.stats.edge_down_skips),
                ),
                (
                    "node_pause_skips".into(),
                    u64_value(state.stats.node_pause_skips),
                ),
                ("dropped".into(), u64_value(state.stats.dropped)),
            ]),
        ),
    ])
}

fn parse_fault_state(value: &Value) -> Result<FaultInjectorState> {
    let obj = as_object(value, "faults")?;
    let stats_obj = as_object(get(obj, "stats")?, "fault stats")?;
    Ok(FaultInjectorState {
        rng_word_pos: get_u128(obj, "rng_word_pos")?,
        stats: FaultStats {
            delivered: get_u64(stats_obj, "delivered")?,
            edge_down_skips: get_u64(stats_obj, "edge_down_skips")?,
            node_pause_skips: get_u64(stats_obj, "node_pause_skips")?,
            dropped: get_u64(stats_obj, "dropped")?,
        },
    })
}

fn adversary_state_value(state: &AdversaryInjectorState) -> Value {
    let stats = &state.stats;
    Value::Object(vec![
        ("rng_word_pos".into(), u128_value(state.rng_word_pos)),
        (
            "stats".into(),
            Value::Object(vec![
                ("honest_contacts".into(), u64_value(stats.honest_contacts)),
                (
                    "falsified_contacts".into(),
                    u64_value(stats.falsified_contacts),
                ),
                (
                    "censored_contacts".into(),
                    u64_value(stats.censored_contacts),
                ),
                ("biased_reports".into(), u64_value(stats.biased_reports)),
                ("extreme_reports".into(), u64_value(stats.extreme_reports)),
                ("stale_reports".into(), u64_value(stats.stale_reports)),
                ("flagged_reports".into(), u64_value(stats.flagged_reports)),
                ("falsification_l1".into(), f64_value(stats.falsification_l1)),
                (
                    "max_falsification".into(),
                    f64_value(stats.max_falsification),
                ),
                ("report_min".into(), f64_value(stats.report_min)),
                ("report_max".into(), f64_value(stats.report_max)),
            ]),
        ),
        (
            "stale_histories".into(),
            Value::Array(
                state
                    .stale_histories
                    .iter()
                    .map(|(node, history)| {
                        Value::Array(vec![
                            Value::Number(*node as f64),
                            Value::Array(
                                history
                                    .iter()
                                    .map(|&(tick, value)| {
                                        Value::Array(vec![u64_value(tick), f64_value(value)])
                                    })
                                    .collect(),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parse_adversary_state(value: &Value) -> Result<AdversaryInjectorState> {
    let obj = as_object(value, "adversary")?;
    let stats_obj = as_object(get(obj, "stats")?, "adversary stats")?;
    let stale_histories = as_array(get(obj, "stale_histories")?, "stale_histories")?
        .iter()
        .map(|entry| {
            let pair = as_array(entry, "stale_histories entry")?;
            if pair.len() != 2 {
                return Err(invalid(
                    "stale_histories entry is not a 2-element array".into(),
                ));
            }
            let node = value_usize(&pair[0], "stale history node")?;
            let history = as_array(&pair[1], "stale history")?
                .iter()
                .map(|point| {
                    let point = as_array(point, "stale history point")?;
                    if point.len() != 2 {
                        return Err(invalid(
                            "stale history point is not a 2-element array".into(),
                        ));
                    }
                    Ok((
                        value_u64(&point[0], "stale history tick")?,
                        value_f64(&point[1], "stale history value")?,
                    ))
                })
                .collect::<Result<Vec<(u64, f64)>>>()?;
            Ok((node, history))
        })
        .collect::<Result<Vec<(usize, Vec<(u64, f64)>)>>>()?;
    Ok(AdversaryInjectorState {
        rng_word_pos: get_u128(obj, "rng_word_pos")?,
        stats: AdversaryStats {
            honest_contacts: get_u64(stats_obj, "honest_contacts")?,
            falsified_contacts: get_u64(stats_obj, "falsified_contacts")?,
            censored_contacts: get_u64(stats_obj, "censored_contacts")?,
            biased_reports: get_u64(stats_obj, "biased_reports")?,
            extreme_reports: get_u64(stats_obj, "extreme_reports")?,
            stale_reports: get_u64(stats_obj, "stale_reports")?,
            flagged_reports: get_u64(stats_obj, "flagged_reports")?,
            falsification_l1: get_f64(stats_obj, "falsification_l1")?,
            max_falsification: get_f64(stats_obj, "max_falsification")?,
            report_min: get_f64(stats_obj, "report_min")?,
            report_max: get_f64(stats_obj, "report_max")?,
        },
        stale_histories,
    })
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
            moments: (5, 0.58, 2.9000000000000004, 9.04e300, 3),
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
