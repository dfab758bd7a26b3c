//! The append-only mid-run checkpoint log.
//!
//! Mid-run engine checkpoints live *next to* each tier's trial journal, in
//! `<dir>/<token lowercase>.ckpt.jsonl`, one compact JSON object per line:
//!
//! ```json
//! {"schema_version":1,"key":"4a311fffdc1e6939","experiment":"MEM_SCALE",
//!  "tick":"131072","blob":{...}}
//! ```
//!
//! `key` is the owning trial's key (see [`crate::hash::trial_key`]) and
//! `tick` is the checkpoint's global tick count as a decimal string (a
//! 64-bit value that must not squeeze through the JSON number's `f64`).
//! `blob` is the engine's own checkpoint document, stored verbatim — the
//! store does not interpret it.
//!
//! **Crash-tail semantics.**  Appends are `line + '\n'` in a single write,
//! flushed per commit, exactly like the trial journal — so the log shares
//! the journal's load policy (see [`crate::journal`]): a torn *final* line
//! is detected, dropped, and reported, and the caller truncates to the
//! valid prefix (durably — the repair fsyncs file and directory) before
//! appending again.  Losing the newest checkpoint is always safe: a resume
//! simply restores from the previous checkpoint of the same trial, or cold
//! starts if none survived.  For one trial key, a *later line always
//! supersedes an earlier one* — the log is append-only, so re-runs shadow
//! instead of edit.

use std::fs::File;
use std::path::{Path, PathBuf};

use serde::json::Value;

use crate::hash::{format_key, parse_key, TrialKey};
use crate::journal::{append_line, scan_lines};
use crate::value::ValueExt;
use crate::{Result, SCHEMA_VERSION};

/// One committed mid-run checkpoint, as stored on one log line.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointRecord {
    /// The owning trial's identity hash.
    pub key: TrialKey,
    /// The tier's CLI token, e.g. `"MEM_SCALE"`.
    pub experiment: String,
    /// The checkpoint's global tick count.
    pub tick: u64,
    /// The engine checkpoint document, stored verbatim.
    pub blob: Value,
}

impl CheckpointRecord {
    /// Renders the record as its single compact log line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let doc = Value::Object(vec![
            (
                "schema_version".to_string(),
                Value::Number(SCHEMA_VERSION as f64),
            ),
            ("key".to_string(), Value::String(format_key(self.key))),
            (
                "experiment".to_string(),
                Value::String(self.experiment.clone()),
            ),
            ("tick".to_string(), Value::String(self.tick.to_string())),
            ("blob".to_string(), self.blob.clone()),
        ]);
        serde_json::to_string(&doc).expect("vendored serialization is infallible")
    }

    /// Decodes one log line; the error shape matches the journal decoder
    /// (`Err(Ok(found))` for schema skew, `Err(Err(reason))` otherwise).
    fn from_line(
        line: &str,
    ) -> std::result::Result<CheckpointRecord, std::result::Result<u64, String>> {
        let doc = serde_json::from_str(line).map_err(|e| Err(e.to_string()))?;
        let version = doc
            .field_u64("schema_version")
            .ok_or_else(|| Err("missing schema_version".to_string()))?;
        if version != SCHEMA_VERSION {
            return Err(Ok(version));
        }
        let key = doc
            .field_str("key")
            .and_then(parse_key)
            .ok_or_else(|| Err("missing or malformed key".to_string()))?;
        let experiment = doc
            .field_str("experiment")
            .ok_or_else(|| Err("missing experiment".to_string()))?
            .to_string();
        let tick = doc
            .field_str("tick")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| Err("missing or malformed tick".to_string()))?;
        let blob = doc
            .get("blob")
            .ok_or_else(|| Err("missing blob".to_string()))?
            .clone();
        Ok(CheckpointRecord {
            key,
            experiment,
            tick,
            blob,
        })
    }
}

/// Result of loading a checkpoint log file.
#[derive(Debug)]
pub struct CheckpointLoad {
    /// Every fully-valid record, in file order.
    pub records: Vec<CheckpointRecord>,
    /// Byte length of the valid prefix (truncate here before appending).
    pub valid_len: u64,
    /// Why the tail was dropped, if it was.
    pub dropped_tail: Option<String>,
}

/// An append handle on one checkpoint log file (lazily opened, like
/// [`crate::journal::Journal`]).
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    file: Option<File>,
}

impl CheckpointLog {
    /// Creates an append handle (no file is touched until the first
    /// append).
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        CheckpointLog { path, file: None }
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<()> {
        append_line(&self.path, &mut self.file, &record.to_line())
    }

    /// Loads a checkpoint log with the journal's crash-safe tail policy.
    /// A missing file loads as empty.
    pub fn load(path: &Path) -> Result<CheckpointLoad> {
        let (records, valid_len, dropped_tail) = scan_lines(path, CheckpointRecord::from_line)?;
        Ok(CheckpointLoad {
            records,
            valid_len,
            dropped_tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::trial_key;
    use crate::journal::Journal;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gossip-store-ckptlog-{tag}-{}.ckpt.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn record(tick: u64) -> CheckpointRecord {
        CheckpointRecord {
            key: trial_key("MEM_SCALE", "chordring(n=1000)", 42, "quick;engine=flat"),
            experiment: "MEM_SCALE".to_string(),
            tick,
            blob: Value::Object(vec![
                ("ticks".to_string(), Value::String(tick.to_string())),
                (
                    "values".to_string(),
                    Value::Array(vec![Value::String("3ff0000000000000".to_string())]),
                ),
            ]),
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let mut log = CheckpointLog::new(path.clone());
        for tick in [512, 1024, 1536] {
            log.append(&record(tick)).unwrap();
        }
        let load = CheckpointLog::load(&path).unwrap();
        assert_eq!(load.records, vec![record(512), record(1024), record(1536)]);
        assert_eq!(load.dropped_tail, None);
        assert_eq!(load.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_checkpoint_is_dropped_and_the_previous_one_survives() {
        let path = temp_path("torn");
        let mut log = CheckpointLog::new(path.clone());
        log.append(&record(512)).unwrap();
        log.append(&record(1024)).unwrap();
        drop(log);
        // Chop the newest checkpoint mid-line: a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        let load = CheckpointLog::load(&path).unwrap();
        assert_eq!(load.records, vec![record(512)]);
        assert!(load.dropped_tail.is_some());
        // The resume protocol truncates durably, then appends cleanly.
        Journal::truncate_to(&path, load.valid_len).unwrap();
        let mut log = CheckpointLog::new(path.clone());
        log.append(&record(1536)).unwrap();
        let load = CheckpointLog::load(&path).unwrap();
        assert_eq!(load.records, vec![record(512), record(1536)]);
        assert_eq!(load.dropped_tail, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_dropped_or_retyped_field_is_a_typed_error() {
        // A retyped blob loads: the store keeps it verbatim, and it is the
        // engine's checkpoint decoder that rejects it on restore.
        crate::journal::assert_field_damage_is_typed(
            "ckptlog-fields",
            &record(512).to_line(),
            "blob",
            |path| CheckpointLog::load(path).map(|load| (load.records.len(), load.dropped_tail)),
        );
    }

    #[test]
    fn blob_replays_bit_identically() {
        let path = temp_path("bitident");
        let mut rec = record(512);
        rec.blob = Value::Object(vec![(
            "time".to_string(),
            Value::String(format!("{:016x}", std::f64::consts::PI.to_bits())),
        )]);
        let mut log = CheckpointLog::new(path.clone());
        log.append(&rec).unwrap();
        let load = CheckpointLog::load(&path).unwrap();
        assert_eq!(load.records[0].to_line(), rec.to_line());
        std::fs::remove_file(&path).unwrap();
    }
}
