//! Per-trial plumbing between the tier runners and the run store.
//!
//! Every bench tier decomposes into *trials*: independent seeded
//! computations, one per scenario fingerprint, whose results are the rows
//! the tier's tables and `BENCH_*.json` reports render.  [`run_trials`] is
//! the one fan-out path they all share:
//!
//! 1. derive each trial's journal key from `(experiment token, fingerprint,
//!    base seed, engine fingerprint)`;
//! 2. replay every trial the [`TrialSink`] has already committed (decoding
//!    the journaled row back into the tier's row struct — a row that fails
//!    to decode is recomputed, never trusted);
//! 3. fan the harness executor out over the *missing* trials only, passing
//!    each compute closure its original index (tier seed offsets are
//!    index-derived, so replayed and computed rows mix bit-identically);
//! 4. commit each freshly computed row from inside the worker, after the
//!    tier's oracles passed (oracle failures are `Err`s, so they never
//!    reach the journal);
//! 5. merge replayed and computed rows back in input order.
//!
//! The engine fingerprint folds in everything that changes trial *outputs*:
//! quick/full mode.  Job counts are deliberately excluded — outputs are
//! byte-identical across them, so a journal written at `--jobs 8` replays
//! under `--jobs 1` and vice versa.
//!
//! # Supervision
//!
//! The fan-out supervises each compute so one bad trial never takes the
//! sweep down with it:
//!
//! * **Panic isolation with bounded deterministic retry.**  A panicking
//!   compute is caught on its worker and retried up to
//!   [`HarnessConfig::trial_retries`] times — same index, same derived
//!   seeds, fresh scratch (the compute rebuilds all of its state).  A trial
//!   that recovers journals normally, with the retry count recorded on the
//!   row as `supervision_retries`; a trial that keeps panicking surfaces
//!   its panic message as an ordinary error.
//! * **Deadline censoring.**  When a compute fails with the engine's
//!   [`SimError::DeadlineExceeded`] (threaded into simulation configs from
//!   [`HarnessConfig::trial_deadline`]), the trial is *censored*: a record
//!   with an explicit `deadline_censored` reason is journaled in its place
//!   and the row is dropped from the sweep's output.  The marker fails row
//!   decoding by construction, so a later resume retries the trial instead
//!   of trusting the censored stub.

use crate::runner::{BenchResult, HarnessConfig};
use gossip_exec::{describe_panic, Executor};
use gossip_sim::SimError;
use gossip_store::{trial_key, TrialRecord, TrialSink};
use serde::json::Value;
use std::panic::{self, AssertUnwindSafe};

/// The engine part of a trial key: every configuration axis that changes
/// trial outputs (and nothing that doesn't).  `engine=legacy` names the one
/// serial engine loop; the suffix stays so journals and checkpoints written
/// when the harness could select other engines keep replaying.
#[must_use]
pub fn engine_fingerprint(config: &HarnessConfig) -> String {
    let mode = if config.quick { "quick" } else { "full" };
    format!("{mode};engine=legacy")
}

/// A tier row that can round-trip through a journaled JSON value.
///
/// `from_value` is the *decoder*: it must accept exactly what `to_value`
/// produced and return `None` on anything else (missing field, wrong type,
/// non-integral count).  [`run_trials`] treats a `None` as "recompute this
/// trial" — recomputing is always safe, misdecoding never is.
pub trait TrialRow: Sized + Send {
    /// Encodes the row as the journal's JSON value.
    fn to_value(&self) -> Value;
    /// Decodes a journaled value back into the row; `None` on any mismatch.
    fn from_value(value: &Value) -> Option<Self>;
}

/// Optional rows journal as `null` / the inner row's value (E5 skips
/// configurations whose estimator cannot certify a bound).
impl<T: TrialRow> TrialRow for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(row) => row.to_value(),
            None => Value::Null,
        }
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Null => Some(None),
            other => T::from_value(other).map(Some),
        }
    }
}

/// Plain string-list rows (the E6 sweeps journal their rendered cells).
impl TrialRow for Vec<String> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().cloned().map(Value::String).collect())
    }

    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Array(items) => items
                .iter()
                .map(|item| match item {
                    Value::String(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => None,
        }
    }
}

/// Walks an error's source chain looking for the engine's deadline signal;
/// returns the tick count the simulation had reached when it was cut off.
fn deadline_exceeded(error: &crate::runner::BenchError) -> Option<u64> {
    let mut current: Option<&(dyn std::error::Error + 'static)> = Some(&**error);
    while let Some(err) = current {
        if let Some(SimError::DeadlineExceeded { ticks }) = err.downcast_ref::<SimError>() {
            return Some(*ticks);
        }
        current = err.source();
    }
    None
}

/// The journal row written in place of a deadline-censored trial.  Shaped
/// so no tier's [`TrialRow::from_value`] decoder accepts it: a resume sees
/// the trial as "committed but undecodable" and recomputes it.
fn censored_marker(reason: &str) -> Value {
    Value::Object(vec![
        ("deadline_censored".to_string(), Value::Bool(true)),
        ("reason".to_string(), Value::String(reason.to_string())),
    ])
}

/// Stamps the retry count onto a journaled row so a recovered-after-panic
/// trial is auditable from the journal alone.  Only object rows can carry
/// the extra field; decoders look fields up by name, so it never disturbs
/// replay.
fn stamp_retries(mut value: Value, retries: u32) -> Value {
    if let Value::Object(fields) = &mut value {
        fields.push((
            "supervision_retries".to_string(),
            Value::Number(f64::from(retries)),
        ));
    }
    value
}

/// Replays committed trials, computes and commits the missing ones over
/// `executor`, and returns all surviving rows in input order.
///
/// `compute` receives the trial's *original* index into `fingerprints`, so
/// index-derived seed offsets are preserved regardless of which subset is
/// being computed.
///
/// Each compute runs under supervision (see the module docs): panics are
/// retried up to [`HarnessConfig::trial_retries`] times with fresh scratch
/// and the same seeds, and a [`SimError::DeadlineExceeded`] failure
/// journals an explicit `deadline_censored` marker and drops the trial
/// from the returned rows instead of failing the sweep.
pub fn run_trials<T: TrialRow>(
    config: &HarnessConfig,
    executor: &Executor,
    sink: &dyn TrialSink,
    experiment: &str,
    fingerprints: &[String],
    compute: impl Fn(usize) -> BenchResult<T> + Sync,
) -> BenchResult<Vec<T>> {
    let engine = engine_fingerprint(config);
    let keys: Vec<_> = fingerprints
        .iter()
        .map(|fp| trial_key(experiment, fp, config.seed, &engine))
        .collect();

    let mut slots: Vec<Option<T>> = Vec::with_capacity(fingerprints.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let replayed = sink
            .replay(experiment, *key)
            .and_then(|value| T::from_value(&value));
        match replayed {
            Some(row) => slots.push(Some(row)),
            None => {
                slots.push(None);
                missing.push(i);
            }
        }
    }

    if !missing.is_empty() {
        let computed = executor.try_map_indexed(missing.len(), |slot| {
            let i = missing[slot];

            // Panic isolation: a panicking compute is retried with fresh
            // scratch (the closure rebuilds all state from the index) and
            // identical derived seeds, up to the configured bound.
            let mut retries = 0u32;
            let outcome = loop {
                match panic::catch_unwind(AssertUnwindSafe(|| compute(i))) {
                    Ok(outcome) => break outcome,
                    Err(payload) => {
                        let message = describe_panic(&*payload);
                        if retries >= config.trial_retries {
                            return Err(format!(
                                "trial {} panicked after {retries} retries: {message}",
                                fingerprints[i]
                            )
                            .into());
                        }
                        retries += 1;
                        eprintln!(
                            "run store[{experiment}]: trial {} panicked ({message}); \
                             retry {retries}/{} with fresh scratch",
                            fingerprints[i], config.trial_retries
                        );
                    }
                }
            };

            let row = match outcome {
                Ok(row) => row,
                Err(error) => {
                    // Deadline censoring: journal an explicit marker in the
                    // trial's slot so the sweep completes and a later
                    // resume recomputes (and may re-censor) this trial.
                    let Some(ticks) = deadline_exceeded(&error) else {
                        return Err(error);
                    };
                    let reason = format!("wall-clock deadline exceeded after {ticks} ticks");
                    sink.commit(TrialRecord {
                        key: keys[i],
                        experiment: experiment.to_string(),
                        fingerprint: fingerprints[i].clone(),
                        seed: config.seed,
                        row: censored_marker(&reason),
                    })?;
                    eprintln!(
                        "run store[{experiment}]: trial {} deadline_censored ({reason})",
                        fingerprints[i]
                    );
                    return Ok(None);
                }
            };

            let mut value = row.to_value();
            if retries > 0 {
                value = stamp_retries(value, retries);
            }
            sink.commit(TrialRecord {
                key: keys[i],
                experiment: experiment.to_string(),
                fingerprint: fingerprints[i].clone(),
                seed: config.seed,
                row: value,
            })?;
            Ok::<Option<T>, crate::runner::BenchError>(Some(row))
        })?;
        for (slot, row) in missing.into_iter().zip(computed) {
            slots[slot] = row;
        }
    }

    // Censored slots are `None` here and fall out of the sweep's rows.
    Ok(slots.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_store::{NullSink, RunStore, StoreSink};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, PartialEq)]
    struct Row {
        index: usize,
    }

    impl TrialRow for Row {
        fn to_value(&self) -> Value {
            Value::Object(vec![(
                "index".to_string(),
                Value::Number(self.index as f64),
            )])
        }

        fn from_value(value: &Value) -> Option<Self> {
            use gossip_store::ValueExt;
            Some(Row {
                index: value.field_usize("index")?,
            })
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gossip-trial-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn fingerprints(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("probe(i={i})")).collect()
    }

    #[test]
    fn engine_fingerprint_tracks_mode() {
        let mut config = HarnessConfig::quick();
        assert_eq!(engine_fingerprint(&config), "quick;engine=legacy");
        config.quick = false;
        assert_eq!(engine_fingerprint(&config), "full;engine=legacy");
        // Job counts never change outputs, so they never change the
        // fingerprint.
        let narrower = HarnessConfig {
            jobs: Some(1),
            ..config
        };
        assert_eq!(engine_fingerprint(&narrower), engine_fingerprint(&config));
    }

    #[test]
    fn null_sink_computes_every_trial() {
        let config = HarnessConfig::quick();
        let executor = Executor::new(1);
        let calls = AtomicUsize::new(0);
        let rows = run_trials(&config, &executor, &NullSink, "E8", &fingerprints(4), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(Row { index: i })
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(rows, (0..4).map(|index| Row { index }).collect::<Vec<_>>());
    }

    #[test]
    fn store_sink_replays_committed_trials_at_original_indexes() {
        let dir = temp_dir("replay");
        let config = HarnessConfig::quick();
        let executor = Executor::new(1);

        let sink = StoreSink::new(RunStore::open(&dir, false).unwrap());
        run_trials(&config, &executor, &sink, "E8", &fingerprints(4), |i| {
            Ok(Row { index: i })
        })
        .unwrap();
        let store = sink.into_store();

        // Resume: drop two committed trials by asking for a superset, and
        // check only the genuinely missing indexes are recomputed.
        drop(store);
        let sink = StoreSink::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(&config, &executor, &sink, "E8", &fingerprints(6), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(Row { index: i })
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(rows, (0..6).map(|index| Row { index }).collect::<Vec<_>>());
        let stats = sink.stats();
        assert_eq!(stats["E8"].replayed, 4);
        assert_eq!(stats["E8"].computed, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oracle_failures_never_commit() {
        let dir = temp_dir("oracle");
        let config = HarnessConfig::quick();
        let executor = Executor::new(1);
        let sink = StoreSink::new(RunStore::open(&dir, false).unwrap());
        let result = run_trials(&config, &executor, &sink, "E8", &fingerprints(3), |i| {
            if i == 1 {
                Err("oracle violated".into())
            } else {
                Ok(Row { index: i })
            }
        });
        assert!(result.is_err());
        let store = sink.into_store();
        // The failing trial reached no journal; trial 0 may have committed
        // before the failure, trial 2's fate depends on executor order, but
        // index 1 must be absent.
        let engine = engine_fingerprint(&config);
        let bad_key = trial_key("E8", "probe(i=1)", config.seed, &engine);
        assert!(store.replay(bad_key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn panicking_trial_is_retried_and_the_retry_count_journaled() {
        let dir = temp_dir("retry");
        let config = HarnessConfig::quick();
        assert_eq!(config.trial_retries, 1);
        let executor = Executor::new(1);
        let sink = StoreSink::new(RunStore::open(&dir, false).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(&config, &executor, &sink, "E8", &fingerprints(2), |i| {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            // Trial 1 panics on its first attempt only; the retry runs the
            // same index with fresh scratch and succeeds.
            if i == 1 && call == 1 {
                panic!("scratch corrupted");
            }
            Ok(Row { index: i })
        })
        .unwrap();
        assert_eq!(rows, (0..2).map(|index| Row { index }).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 3);

        // The recovered trial's journal row carries the retry count; the
        // clean trial's row does not.
        let store = sink.into_store();
        let engine = engine_fingerprint(&config);
        let retried = store
            .replay(trial_key("E8", "probe(i=1)", config.seed, &engine))
            .unwrap();
        match &retried {
            Value::Object(fields) => assert!(
                fields
                    .iter()
                    .any(|(name, value)| name == "supervision_retries"
                        && matches!(value, Value::Number(n) if *n == 1.0)),
                "expected supervision_retries=1 on {retried:?}"
            ),
            other => panic!("expected object row, got {other:?}"),
        }
        // The stamped row still decodes (decoders ignore extra fields).
        assert_eq!(Row::from_value(retried), Some(Row { index: 1 }));
        let clean = store
            .replay(trial_key("E8", "probe(i=0)", config.seed, &engine))
            .unwrap();
        match &clean {
            Value::Object(fields) => {
                assert!(fields.iter().all(|(name, _)| name != "supervision_retries"));
            }
            other => panic!("expected object row, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistently_panicking_trial_surfaces_as_an_error() {
        let config = HarnessConfig {
            trial_retries: 2,
            ..HarnessConfig::quick()
        };
        let executor = Executor::new(1);
        let calls = AtomicUsize::new(0);
        let result = run_trials(
            &config,
            &executor,
            &NullSink,
            "E8",
            &fingerprints(1),
            |_| -> BenchResult<Row> {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("always broken");
            },
        );
        // One initial attempt plus two retries, then a plain error carrying
        // the panic message — never a hung or aborted sweep.
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let message = result.unwrap_err().to_string();
        assert!(
            message.contains("panicked after 2 retries") && message.contains("always broken"),
            "unexpected error: {message}"
        );
    }

    #[test]
    fn deadline_exceeded_trials_are_censored_then_recomputed_on_resume() {
        let dir = temp_dir("censor");
        let config = HarnessConfig::quick();
        let executor = Executor::new(1);
        let engine = engine_fingerprint(&config);

        let sink = StoreSink::new(RunStore::open(&dir, false).unwrap());
        let rows = run_trials(&config, &executor, &sink, "E8", &fingerprints(3), |i| {
            if i == 1 {
                Err(Box::new(gossip_sim::SimError::DeadlineExceeded {
                    ticks: 65_536,
                }))
            } else {
                Ok(Row { index: i })
            }
        })
        .unwrap();
        // The censored trial is dropped from the output; the sweep itself
        // succeeds.
        assert_eq!(rows, vec![Row { index: 0 }, Row { index: 2 }]);

        // Its journal slot holds the explicit marker, which no decoder
        // accepts.
        let store = sink.into_store();
        let marker = store
            .replay(trial_key("E8", "probe(i=1)", config.seed, &engine))
            .unwrap();
        match &marker {
            Value::Object(fields) => {
                assert!(fields
                    .iter()
                    .any(|(name, value)| name == "deadline_censored"
                        && matches!(value, Value::Bool(true))));
                assert!(fields.iter().any(|(name, value)| name == "reason"
                    && matches!(value, Value::String(s) if s.contains("65536 ticks"))));
            }
            other => panic!("expected censored marker, got {other:?}"),
        }
        assert_eq!(Row::from_value(marker), None);
        drop(store);

        // A resume replays the two real rows and recomputes only the
        // censored trial — this time without a deadline in the way.
        let sink = StoreSink::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(&config, &executor, &sink, "E8", &fingerprints(3), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(Row { index: i })
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(rows, (0..3).map(|index| Row { index }).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_rows_are_recomputed() {
        let dir = temp_dir("undecodable");
        let config = HarnessConfig::quick();
        let executor = Executor::new(1);
        let engine = engine_fingerprint(&config);

        // Commit a row whose shape the decoder rejects.
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(TrialRecord {
                key: trial_key("E8", "probe(i=0)", config.seed, &engine),
                experiment: "E8".to_string(),
                fingerprint: "probe(i=0)".to_string(),
                seed: config.seed,
                row: Value::Object(vec![("wrong".to_string(), Value::Bool(true))]),
            })
            .unwrap();
        drop(store);

        let sink = StoreSink::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(&config, &executor, &sink, "E8", &fingerprints(1), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(Row { index: i })
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(rows, vec![Row { index: 0 }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
