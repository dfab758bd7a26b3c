//! Per-trial plumbing between the tier runners and the run store.
//!
//! Every bench tier decomposes into *trials*: independent seeded
//! computations, one per scenario fingerprint, whose results are the rows
//! the tier's tables and `BENCH_*.json` reports render.  [`run_trials`] is
//! the one fan-out path they all share:
//!
//! 1. derive each trial's journal key from `(experiment token, fingerprint,
//!    base seed, engine fingerprint)`;
//! 2. replay every trial the [`RunStore`] has already committed (decoding
//!    the journaled row back into the tier's row struct — a row that fails
//!    to decode is recomputed, never trusted);
//! 3. fan the harness executor out over the *missing* trials only, passing
//!    each compute closure its original index, its case and its key (tier
//!    seed offsets are index-derived, so replayed and computed rows mix
//!    bit-identically);
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
//! * **Panic isolation.**  A panicking compute is caught on its worker and
//!   surfaces its panic message as an ordinary error; nothing is journaled
//!   for it.  A trial is a pure function of its index, its derived seeds
//!   and the store, so running it again would only repeat the panic.
//! * **Deadline censoring.**  When a compute fails with the engine's
//!   [`SimError::DeadlineExceeded`] (threaded into simulation configs from
//!   [`HarnessConfig::trial_deadline`]), the trial is *censored*: a record
//!   with an explicit `deadline_censored` reason is journaled in its place
//!   and the row is dropped from the sweep's output.  The marker fails row
//!   decoding by construction, so a later resume retries the trial instead
//!   of trusting the censored stub.

use crate::runner::{BenchResult, HarnessConfig};
use gossip_exec::describe_panic;
use gossip_sim::SimError;
use gossip_store::{trial_key, RunStore, TrialKey, TrialRecord, ValueExt};
use serde::json::Value;
use serde::Serialize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};

/// The engine part of a trial key: every configuration axis that changes
/// trial outputs (and nothing that doesn't).  `engine=legacy` names the one
/// serial engine loop; the suffix stays so journals and checkpoints written
/// when the harness could select other engines keep replaying.
#[must_use]
pub fn engine_fingerprint(config: &HarnessConfig) -> String {
    let mode = if config.quick { "quick" } else { "full" };
    format!("{mode};engine=legacy")
}

/// The replay half of a journaled row: decodes a JSON value back into a
/// row or one of its fields.  [`serde::Serialize`] is the encode half, and
/// the crate-private `schema!` macro writes both from one struct declaration.
///
/// A decoder returns `None` on anything its encoder could not have
/// produced: a missing field, a wrong type, a fractional, negative or
/// out-of-range count, `null` where a number is expected.  [`run_trials`]
/// treats `None` as "recompute this trial" — recomputing is always safe,
/// misdecoding never is.
pub trait FromValue: Sized {
    /// Decodes a journaled value; `None` on any mismatch.
    fn from_value(value: &Value) -> Option<Self>;
}

// Counts go through `as_u64`, which rejects fractional, negative and
// out-of-range numbers.
macro_rules! impl_from_value {
    ($($ty:ty => $decode:expr),* $(,)?) => {$(
        impl FromValue for $ty {
            fn from_value(value: &Value) -> Option<Self> {
                $decode(value)
            }
        }
    )*};
}
impl_from_value!(
    f64 => Value::as_f64,
    u64 => Value::as_u64,
    usize => |value: &Value| value.as_u64().and_then(|n| usize::try_from(n).ok()),
    bool => Value::as_bool,
    String => |value: &Value| value.as_str().map(str::to_string),
);

/// `null` decodes to `None` (E5 journals a configuration that observed no
/// epoch as `null`, MEM_SCALE an unavailable RSS probe).  A *missing*
/// `Option` field still fails the row's decode.
impl<T: FromValue> FromValue for Option<T> {
    fn from_value(value: &Value) -> Option<Self> {
        match value {
            Value::Null => Some(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(value: &Value) -> Option<Self> {
        value.as_array()?.iter().map(T::from_value).collect()
    }
}

/// A journaled row of `N` rendered table cells, for tiers whose trials
/// render their own cells.  It is written as a JSON array of strings, and
/// only an array of exactly `N` strings decodes, so a row of another width
/// is recomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cells<const N: usize>(pub [String; N]);

impl<const N: usize> Serialize for Cells<N> {
    fn to_json_value(&self) -> Value {
        self.0.as_slice().to_json_value()
    }
}

impl<const N: usize> FromValue for Cells<N> {
    fn from_value(value: &Value) -> Option<Self> {
        Vec::from_value(value)?.try_into().ok().map(Cells)
    }
}

/// Declares a journaled row or a `BENCH_*.json` report once.
///
/// Takes a struct as written (docs, derives, `pub` fields) and emits the
/// struct plus its [`serde::Serialize`] encoder, fields in declaration
/// order.  A `row` also gets its [`FromValue`] decoder, which looks every
/// field up by name: extra fields (such as the `supervision_retries` that
/// older builds stamped on retried rows) are ignored, a missing one fails
/// the decode.  A `report` encodes `schema_version` first and ends with
/// `volatile: [..]`, which becomes `VOLATILE`: the fields of the report and
/// its rows that vary between runs of the same seed.  `runner.rs` declares
/// every tier's rows and reports this way.
macro_rules! schema {
    (row
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $crate::trial::schema! { @encode []
            $(#[$meta])*
            pub struct $name {
                $($(#[$field_meta])* pub $field: $ty,)*
            }
        }

        impl $crate::trial::FromValue for $name {
            fn from_value(value: &::serde::json::Value) -> Option<Self> {
                Some($name {
                    $($field: $crate::trial::FromValue::from_value(
                        ::gossip_store::ValueExt::get(value, stringify!($field))?,
                    )?,)*
                })
            }
        }
    };
    (report
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
        volatile: [$($volatile:ident),*]
    ) => {
        $crate::trial::schema! {
            @encode [(
                "schema_version".to_string(),
                ::serde::Serialize::to_json_value(&::gossip_store::SCHEMA_VERSION),
            )]
            $(#[$meta])*
            pub struct $name {
                $($(#[$field_meta])* pub $field: $ty,)*
            }
        }

        impl $name {
            /// The fields of this report and its rows that vary between
            /// runs of the same seed; the determinism gates strip exactly
            /// these before diffing.
            pub const VOLATILE: &'static [&'static str] = &[$(stringify!($volatile)),*];
        }
    };
    (@encode [$($head:expr),*]
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl ::serde::Serialize for $name {
            fn to_json_value(&self) -> ::serde::json::Value {
                ::serde::json::Value::Object(vec![
                    $($head,)*
                    $((
                        stringify!($field).to_string(),
                        ::serde::Serialize::to_json_value(&self.$field),
                    ),)*
                ])
            }
        }
    };
}
pub(crate) use schema;

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
/// so no tier's [`FromValue`] decoder accepts it: a resume sees the trial
/// as "committed but undecodable" and recomputes it.
fn censored_marker(reason: &str) -> Value {
    Value::Object(vec![
        ("deadline_censored".to_string(), Value::Bool(true)),
        ("reason".to_string(), Value::String(reason.to_string())),
    ])
}

/// Locks the run store the harness's executor workers share.
pub(crate) fn lock(store: &Mutex<RunStore>) -> MutexGuard<'_, RunStore> {
    store.lock().expect("run store mutex poisoned")
}

/// Replays the trials `store` has committed, computes and commits the
/// missing ones over the harness executor ([`HarnessConfig::jobs`] wide),
/// and returns all surviving rows in input order.  A store-less run
/// (`store` is `None`) computes every trial and commits nothing.
///
/// `fingerprint` names each case in the journal; the trial key is derived
/// from it once, here.  `compute` receives the case's *original* index into
/// `cases`, the case and its key, so index-derived seed offsets are
/// preserved regardless of which subset is being computed, and a trial that
/// keeps more than its row in the store (MEM_SCALE's checkpoints) files it
/// under the same key.
///
/// Each compute runs under supervision (see the module docs): a panic
/// becomes an error carrying its message, and a
/// [`SimError::DeadlineExceeded`] failure journals an explicit
/// `deadline_censored` marker and drops the trial from the returned rows
/// instead of failing the sweep.
pub fn run_trials<C: Sync, T: Serialize + FromValue + Send>(
    config: &HarnessConfig,
    store: Option<&Mutex<RunStore>>,
    experiment: &str,
    cases: &[C],
    fingerprint: impl Fn(&C) -> String,
    compute: impl Fn(usize, &C, TrialKey) -> BenchResult<T> + Sync,
) -> BenchResult<Vec<T>> {
    let engine = engine_fingerprint(config);
    let fingerprints: Vec<String> = cases.iter().map(fingerprint).collect();
    let keys: Vec<TrialKey> = fingerprints
        .iter()
        .map(|fp| trial_key(experiment, fp, config.seed, &engine))
        .collect();

    let mut slots: Vec<Option<T>> = Vec::with_capacity(cases.len());
    let mut missing: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let replayed = store.and_then(|store| lock(store).replay(*key, T::from_value));
        if replayed.is_none() {
            missing.push(i);
        }
        slots.push(replayed);
    }

    if !missing.is_empty() {
        let commit = |i: usize, row: Value| match store {
            Some(store) => lock(store).commit(TrialRecord {
                key: keys[i],
                experiment: experiment.to_string(),
                fingerprint: fingerprints[i].clone(),
                seed: config.seed,
                row,
            }),
            None => Ok(()),
        };
        let computed = config.executor().try_map_indexed(missing.len(), |slot| {
            let i = missing[slot];
            let (case, key) = (&cases[i], keys[i]);

            // Panic isolation: a panicking compute becomes this trial's
            // error instead of unwinding through the fan-out.
            let outcome = match panic::catch_unwind(AssertUnwindSafe(|| compute(i, case, key))) {
                Ok(outcome) => outcome,
                Err(payload) => {
                    let message = describe_panic(&*payload);
                    return Err(format!("trial {} panicked: {message}", fingerprints[i]).into());
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
                    commit(i, censored_marker(&reason))?;
                    eprintln!(
                        "run store[{experiment}]: trial {} deadline_censored ({reason})",
                        fingerprints[i]
                    );
                    return Ok(None);
                }
            };

            commit(i, row.to_json_value())?;
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
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    schema! { row
        #[derive(Debug, Clone, PartialEq)]
        pub struct Row {
            pub index: usize,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gossip-trial-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    /// The cases of a probe sweep: `n` indexes, each journaled as
    /// `probe(i=<index>)`.
    fn cases(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn fingerprint(case: &usize) -> String {
        format!("probe(i={case})")
    }

    /// The quick configuration on one worker, so trials run in index order.
    fn serial() -> HarnessConfig {
        HarnessConfig {
            jobs: Some(1),
            ..HarnessConfig::quick()
        }
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
    fn a_store_less_run_computes_every_trial() {
        let config = serial();
        let engine = engine_fingerprint(&config);
        let calls = AtomicUsize::new(0);
        let rows = run_trials(
            &config,
            None,
            "E8",
            &cases(4),
            fingerprint,
            |i, &case, key| {
                // Each compute sees its own case and the key its row is
                // journaled under.
                assert_eq!(case, i);
                assert_eq!(
                    key,
                    trial_key("E8", &fingerprint(&case), config.seed, &engine)
                );
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(Row { index: i })
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(rows, (0..4).map(|index| Row { index }).collect::<Vec<_>>());
    }

    #[test]
    fn a_store_replays_committed_trials_at_original_indexes() {
        let dir = temp_dir("replay");
        let config = serial();

        let store = Mutex::new(RunStore::open(&dir, false).unwrap());
        run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(4),
            fingerprint,
            |i, _, _| Ok(Row { index: i }),
        )
        .unwrap();
        drop(store);

        // Resume: ask for a superset of the committed trials, and check
        // only the genuinely missing indexes are recomputed.
        let store = Mutex::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(6),
            fingerprint,
            |i, _, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(Row { index: i })
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(rows, (0..6).map(|index| Row { index }).collect::<Vec<_>>());
        assert_eq!(
            lock(&store).count_lines(),
            ["run store[E8]: replayed 4, computed 2"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oracle_failures_never_commit() {
        let dir = temp_dir("oracle");
        let config = serial();
        let store = Mutex::new(RunStore::open(&dir, false).unwrap());
        let result = run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(3),
            fingerprint,
            |i, _, _| {
                if i == 1 {
                    Err("oracle violated".into())
                } else {
                    Ok(Row { index: i })
                }
            },
        );
        assert!(result.is_err());
        // The failing trial reached no journal; trial 0 may have committed
        // before the failure, trial 2's fate depends on executor order, but
        // index 1 must be absent.
        let engine = engine_fingerprint(&config);
        let bad_key = trial_key("E8", "probe(i=1)", config.seed, &engine);
        assert_eq!(lock(&store).replay(bad_key, |_| Some(())), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistently_panicking_trial_surfaces_as_an_error() {
        let config = serial();
        let calls = AtomicUsize::new(0);
        let result = run_trials(
            &config,
            None,
            "E8",
            &cases(1),
            fingerprint,
            |_, _, _| -> BenchResult<Row> {
                calls.fetch_add(1, Ordering::Relaxed);
                panic!("always broken");
            },
        );
        // One attempt, then a plain error carrying the panic message —
        // never a hung or aborted sweep.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let message = result.unwrap_err().to_string();
        assert!(
            message.contains("trial probe(i=0) panicked") && message.contains("always broken"),
            "unexpected error: {message}"
        );
    }

    #[test]
    fn deadline_exceeded_trials_are_censored_then_recomputed_on_resume() {
        let dir = temp_dir("censor");
        let config = serial();
        let engine = engine_fingerprint(&config);

        let store = Mutex::new(RunStore::open(&dir, false).unwrap());
        let rows = run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(3),
            fingerprint,
            |i, _, _| {
                if i == 1 {
                    Err(Box::new(gossip_sim::SimError::DeadlineExceeded {
                        ticks: 65_536,
                    }))
                } else {
                    Ok(Row { index: i })
                }
            },
        )
        .unwrap();
        // The censored trial is dropped from the output; the sweep itself
        // succeeds.
        assert_eq!(rows, vec![Row { index: 0 }, Row { index: 2 }]);

        // Its journal slot holds the explicit marker, which no decoder
        // accepts.
        let marker = lock(&store)
            .replay(trial_key("E8", "probe(i=1)", config.seed, &engine), |row| {
                Some(row.clone())
            })
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
        assert_eq!(Row::from_value(&marker), None);
        drop(store);

        // A resume replays the two real rows and recomputes only the
        // censored trial — this time without a deadline in the way.
        let store = Mutex::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(3),
            fingerprint,
            |i, _, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(Row { index: i })
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(rows, (0..3).map(|index| Row { index }).collect::<Vec<_>>());
        assert_eq!(
            lock(&store).count_lines(),
            ["run store[E8]: replayed 2, computed 1"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_rows_are_recomputed() {
        let dir = temp_dir("undecodable");
        let config = serial();
        let engine = engine_fingerprint(&config);

        // Commit rows whose shape the decoder rejects: a missing field, a
        // fractional, negative or out-of-range count, and `null`.
        let bad_rows = [
            r#"{"wrong":true}"#,
            r#"{"index":0.5}"#,
            r#"{"index":-1}"#,
            r#"{"index":18446744073709551616}"#,
            r#"{"index":null}"#,
        ];
        let mut store = RunStore::open(&dir, false).unwrap();
        for (i, row) in bad_rows.iter().enumerate() {
            let fingerprint = format!("probe(i={i})");
            store
                .commit(TrialRecord {
                    key: trial_key("E8", &fingerprint, config.seed, &engine),
                    experiment: "E8".to_string(),
                    fingerprint,
                    seed: config.seed,
                    row: serde_json::from_str(row).unwrap(),
                })
                .unwrap();
        }
        drop(store);

        let store = Mutex::new(RunStore::open(&dir, true).unwrap());
        let calls = AtomicUsize::new(0);
        let rows = run_trials(
            &config,
            Some(&store),
            "E8",
            &cases(bad_rows.len()),
            fingerprint,
            |i, _, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(Row { index: i })
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), bad_rows.len());
        assert_eq!(
            rows,
            (0..bad_rows.len())
                .map(|index| Row { index })
                .collect::<Vec<_>>()
        );
        assert_eq!(
            lock(&store).count_lines(),
            ["run store[E8]: replayed 0, computed 5"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    schema! { row
        #[derive(Debug, Clone, PartialEq)]
        pub struct Probe {
            pub ratio: f64,
            pub rss: Option<u64>,
            pub cells: Vec<String>,
        }
    }

    #[test]
    fn field_decoders_follow_the_replay_rules() {
        let decode = |text: &str| Probe::from_value(&serde_json::from_str(text).unwrap());
        let probe = |rss| {
            Some(Probe {
                ratio: 0.5,
                rss,
                cells: vec!["a".to_string()],
            })
        };
        // A `null` `Option` field decodes to `None`; a missing one fails.
        assert_eq!(
            decode(r#"{"ratio":0.5,"rss":null,"cells":["a"]}"#),
            probe(None)
        );
        assert_eq!(decode(r#"{"ratio":0.5,"cells":["a"]}"#), None);
        // Extra fields, such as the retry count older journals carry, are
        // ignored.
        assert_eq!(
            decode(r#"{"ratio":0.5,"rss":7,"cells":["a"],"supervision_retries":1}"#),
            probe(Some(7))
        );
        for bad in [
            r#"{"ratio":null,"rss":7,"cells":["a"]}"#,
            r#"{"ratio":0.5,"rss":7.5,"cells":["a"]}"#,
            r#"{"ratio":0.5,"rss":7,"cells":[1]}"#,
            r#"{"ratio":0.5,"rss":7,"cells":null}"#,
        ] {
            assert_eq!(decode(bad), None, "{bad}");
        }
        assert_eq!(Probe::from_value(&censored_marker("deadline")), None);
        // A whole optional row journaled as `null` replays as `None`.
        assert_eq!(Option::<Probe>::from_value(&Value::Null), Some(None));
    }

    #[test]
    fn cells_decode_only_at_their_width() {
        let decode = |text: &str| Cells::<3>::from_value(&serde_json::from_str(text).unwrap());
        let row = Cells([
            "0.5000".to_string(),
            "0.3515".to_string(),
            "0.8825".to_string(),
        ]);
        // The encoder writes the plain array of strings, and it decodes back.
        assert_eq!(
            serde_json::to_string(&row).unwrap(),
            r#"["0.5000","0.3515","0.8825"]"#
        );
        assert_eq!(decode(r#"["0.5000","0.3515","0.8825"]"#), Some(row));
        for bad in [
            r#"["0.5000","0.3515"]"#,
            r#"["0.5000","0.3515","0.8825","1"]"#,
            r#"["0.5000",0.3515,"0.8825"]"#,
            r#"{"cells":["0.5000","0.3515","0.8825"]}"#,
            "null",
        ] {
            assert_eq!(decode(bad), None, "{bad}");
        }
        assert_eq!(Cells::<3>::from_value(&censored_marker("deadline")), None);
    }
}
