//! The append-only JSONL trial journal.
//!
//! One journal file holds one bench tier's committed trials, one compact
//! JSON object per line:
//!
//! ```json
//! {"schema_version":1,"key":"4a311fffdc1e6939","experiment":"SIM_SCALE",
//!  "fingerprint":"chordring(n=1000)","seed":"42","row":{...}}
//! ```
//!
//! `key` is the trial's splitmix64 hash as 16 hex digits and `seed` is a
//! decimal string — both are 64-bit values that must not squeeze through
//! the JSON number type's `f64` (bits above 2^53 would be lost).  `row` is
//! the tier's own row value, replayed verbatim on resume.
//!
//! **Crash safety.**  Records are written `line + '\n'` in a single write
//! and flushed per commit, so after a crash at most the *final* line can be
//! damaged.  [`Journal::load`] therefore accepts a journal whose last line
//! is truncated, unparseable, or missing its terminating newline — that
//! tail is dropped and reported, and [`JournalLoad::valid_len`] is the byte
//! offset of the clean prefix so a resume can truncate the file before
//! appending.  Damage *before* the final line cannot be explained by a
//! crash and is a hard [`StoreError::CorruptRecord`]; a record written at a
//! different schema version is a hard [`StoreError::SchemaVersion`] even at
//! the tail (version skew is not truncation).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::json::Value;

use crate::hash::{format_key, parse_key, TrialKey};
use crate::value::ValueExt;
use crate::{Result, StoreError, SCHEMA_VERSION};

/// One committed trial, as stored on one journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// The trial's identity hash (see [`crate::hash::trial_key`]).
    pub key: TrialKey,
    /// The tier's CLI token, e.g. `"SIM_SCALE"`.
    pub experiment: String,
    /// The stable scenario fingerprint the key was derived from.
    pub fingerprint: String,
    /// The harness base seed the trial ran at.
    pub seed: u64,
    /// The tier's row payload, replayed verbatim on resume.
    pub row: Value,
}

impl TrialRecord {
    /// Renders the record as its single compact journal line (no newline).
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
            (
                "fingerprint".to_string(),
                Value::String(self.fingerprint.clone()),
            ),
            ("seed".to_string(), Value::String(self.seed.to_string())),
            ("row".to_string(), self.row.clone()),
        ]);
        serde_json::to_string(&doc).expect("vendored serialization is infallible")
    }

    /// Decodes one journal line.  The error distinguishes a schema-version
    /// mismatch (`Err(Ok(found))`) from any other damage (`Err(Err(reason))`)
    /// because the two are handled differently at the journal tail.
    fn from_line(line: &str) -> std::result::Result<TrialRecord, std::result::Result<u64, String>> {
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
        let fingerprint = doc
            .field_str("fingerprint")
            .ok_or_else(|| Err("missing fingerprint".to_string()))?
            .to_string();
        let seed = doc
            .field_str("seed")
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or_else(|| Err("missing or malformed seed".to_string()))?;
        let row = doc
            .get("row")
            .ok_or_else(|| Err("missing row".to_string()))?
            .clone();
        Ok(TrialRecord {
            key,
            experiment,
            fingerprint,
            seed,
            row,
        })
    }
}

/// Result of loading a journal file.
#[derive(Debug)]
pub struct JournalLoad {
    /// Every fully-valid record, in file order.
    pub records: Vec<TrialRecord>,
    /// Byte length of the valid prefix — everything past this offset is
    /// the dropped tail (if any).  A resume must truncate the file here
    /// before appending.
    pub valid_len: u64,
    /// Why the tail was dropped, if it was.
    pub dropped_tail: Option<String>,
}

/// An append handle on one journal file.
///
/// The file is opened lazily on first [`Journal::append`]; each append
/// writes one full line and flushes, so a crash can damage at most the
/// final line (which [`Journal::load`] then drops).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Option<File>,
}

impl Journal {
    /// Creates an append handle (no file is touched until the first
    /// append).
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        Journal { path, file: None }
    }

    /// Appends one record and flushes it to the OS.
    pub fn append(&mut self, record: &TrialRecord) -> Result<()> {
        append_line(&self.path, &mut self.file, &record.to_line())
    }

    /// Truncates the journal file to `valid_len` bytes, discarding a
    /// damaged tail before a resume starts appending.
    pub fn truncate_to(path: &Path, valid_len: u64) -> Result<()> {
        let current = match std::fs::metadata(path) {
            Ok(meta) => meta.len(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(source) => {
                return Err(StoreError::Io {
                    path: path.display().to_string(),
                    source,
                })
            }
        };
        if current == valid_len {
            return Ok(());
        }
        let io_err = |source| StoreError::Io {
            path: path.display().to_string(),
            source,
        };
        let file = OpenOptions::new().write(true).open(path).map_err(io_err)?;
        file.set_len(valid_len).map_err(io_err)?;
        // The repair must be as durable as the appends it protects: fsync
        // the truncated file *and* its directory, so a crash right after
        // this load can't resurrect the dropped tail (and corrupt the
        // recomputed records appended past it) when the metadata replays.
        file.sync_all().map_err(io_err)?;
        if let Some(parent) = path.parent() {
            let dir = File::open(parent).map_err(|source| StoreError::Io {
                path: parent.display().to_string(),
                source,
            })?;
            dir.sync_all().map_err(|source| StoreError::Io {
                path: parent.display().to_string(),
                source,
            })?;
        }
        Ok(())
    }

    /// Loads a journal file with the crash-safe tail policy described in
    /// the module docs.  A missing file loads as empty.
    pub fn load(path: &Path) -> Result<JournalLoad> {
        let (records, valid_len, dropped_tail) = scan_lines(path, TrialRecord::from_line)?;
        Ok(JournalLoad {
            records,
            valid_len,
            dropped_tail,
        })
    }
}

/// Appends one rendered line (plus the terminating newline, as a single
/// write) to the lazily opened append handle shared by the trial journal
/// and the checkpoint log.
pub(crate) fn append_line(path: &Path, file: &mut Option<File>, line: &str) -> Result<()> {
    let io_err = |source| StoreError::Io {
        path: path.display().to_string(),
        source,
    };
    if file.is_none() {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(io_err)?;
        }
        let opened = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        *file = Some(opened);
    }
    let file = file.as_mut().expect("opened above");
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    file.write_all(buf.as_bytes())
        .and_then(|()| file.flush())
        .map_err(io_err)
}

/// The shared crash-safe line scan: decodes every newline-terminated line
/// of `path`, dropping a damaged *final* line (the only damage a crash
/// mid-append can produce) and hard-erroring on anything earlier.  The
/// decoder reports schema-version skew as `Err(Ok(found))` — a hard error
/// even at the tail — and any other damage as `Err(Err(reason))`.
pub(crate) fn scan_lines<T>(
    path: &Path,
    decode: impl Fn(&str) -> std::result::Result<T, std::result::Result<u64, String>>,
) -> Result<(Vec<T>, u64, Option<String>)> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), 0, None));
        }
        Err(source) => {
            return Err(StoreError::Io {
                path: path.display().to_string(),
                source,
            })
        }
    };

    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut dropped_tail = None;
    let mut pos = 0usize;
    let mut line_no = 0usize;
    while pos < bytes.len() {
        line_no += 1;
        let newline = bytes[pos..].iter().position(|&b| b == b'\n');
        let Some(rel) = newline else {
            // Unterminated final line: the `line + '\n'` write did not
            // complete, so this is the crash tail by definition.
            dropped_tail = Some(format!(
                "line {line_no} has no terminating newline (interrupted write)"
            ));
            break;
        };
        let end = pos + rel;
        let is_last = end + 1 == bytes.len();
        let decoded = std::str::from_utf8(&bytes[pos..end])
            .map_err(|e| Err(format!("invalid UTF-8: {e}")))
            .and_then(&decode);
        match decoded {
            Ok(record) => {
                records.push(record);
                valid_len = (end + 1) as u64;
                pos = end + 1;
            }
            Err(Ok(found)) => {
                // Version skew is never truncation damage: hard error
                // even on the final line.
                return Err(StoreError::SchemaVersion {
                    path: path.display().to_string(),
                    line: line_no,
                    found,
                });
            }
            Err(Err(reason)) if is_last => {
                dropped_tail = Some(format!("line {line_no}: {reason}"));
                break;
            }
            Err(Err(reason)) => {
                return Err(StoreError::CorruptRecord {
                    path: path.display().to_string(),
                    line: line_no,
                    reason,
                });
            }
        }
    }
    Ok((records, valid_len, dropped_tail))
}

/// Test support shared with the checkpoint log: damages the valid record
/// line `valid` one field at a time — each field dropped, and each value
/// retyped (string ↔ number, object → string) or set to `null` — and loads
/// every damaged line through `load`, which returns the number of records
/// kept and the dropped-tail reason.  Damage before a valid line must be
/// [`StoreError::CorruptRecord`] at line 2; the same damage as the final
/// line must be dropped as a crash tail.  The store stores the `payload`
/// field verbatim without interpreting it, so a retyped payload loads.
#[cfg(test)]
pub(crate) fn assert_field_damage_is_typed(
    tag: &str,
    valid: &str,
    payload: &str,
    load: impl Fn(&Path) -> Result<(usize, Option<String>)>,
) {
    let Ok(Value::Object(fields)) = serde_json::from_str(valid) else {
        panic!("a record line is a JSON object: {valid}");
    };
    let mut damaged = Vec::new();
    for (i, (name, value)) in fields.iter().enumerate() {
        let mut dropped = fields.clone();
        dropped.remove(i);
        damaged.push((format!("{name} dropped"), dropped, false));
        let retyped = match value {
            Value::String(_) => Value::Number(1.0),
            Value::Number(n) => Value::String(n.to_string()),
            _ => Value::String("{}".to_string()),
        };
        for replacement in [retyped, Value::Null] {
            let what = format!("{name} = {}", serde_json::to_string(&replacement).unwrap());
            let mut doc = fields.clone();
            doc[i].1 = replacement;
            damaged.push((what, doc, name == payload));
        }
    }
    let path =
        std::env::temp_dir().join(format!("gossip-store-{tag}-{}.jsonl", std::process::id()));
    for (what, doc, loads) in damaged {
        let line = serde_json::to_string(&Value::Object(doc)).unwrap();
        std::fs::write(&path, format!("{valid}\n{line}\n{valid}\n")).unwrap();
        match load(&path) {
            Ok((3, None)) if loads => {}
            Err(StoreError::CorruptRecord { line: 2, .. }) if !loads => {}
            other => panic!("{what} before a valid line: {other:?}"),
        }
        std::fs::write(&path, format!("{valid}\n{line}\n")).unwrap();
        match load(&path) {
            Ok((2, None)) if loads => {}
            Ok((1, Some(_))) if !loads => {}
            other => panic!("{what} on the final line: {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::trial_key;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gossip-store-journal-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn record(i: u64) -> TrialRecord {
        let fingerprint = format!("chordring(n={})", 1000 * (i + 1));
        TrialRecord {
            key: trial_key("SIM_SCALE", &fingerprint, 42, "quick;engine=legacy"),
            experiment: "SIM_SCALE".to_string(),
            fingerprint,
            seed: 42,
            row: Value::Object(vec![
                ("rounds".to_string(), Value::Number(17.0 + i as f64)),
                ("ratio".to_string(), Value::Number(0.1 + i as f64)),
            ]),
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let mut journal = Journal::new(path.clone());
        for i in 0..3 {
            journal.append(&record(i)).unwrap();
        }
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.records, vec![record(0), record(1), record(2)]);
        assert_eq!(load.dropped_tail, None);
        assert_eq!(load.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_loads_empty() {
        let load = Journal::load(Path::new("/nonexistent/never/journal.jsonl")).unwrap();
        assert!(load.records.is_empty());
        assert_eq!(load.valid_len, 0);
        assert_eq!(load.dropped_tail, None);
    }

    #[test]
    fn truncated_final_record_is_dropped() {
        let path = temp_path("truncated");
        let mut journal = Journal::new(path.clone());
        for i in 0..3 {
            journal.append(&record(i)).unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let clean_len = full
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(i, _)| i + 1)
            .unwrap();
        // Chop the third record mid-line: simulates a crash mid-write.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.records, vec![record(0), record(1)]);
        assert_eq!(load.valid_len, clean_len as u64);
        assert!(load.dropped_tail.is_some());

        // Resume protocol: truncate to the valid prefix, append, reload.
        Journal::truncate_to(&path, load.valid_len).unwrap();
        let mut journal = Journal::new(path.clone());
        journal.append(&record(2)).unwrap();
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.records, vec![record(0), record(1), record(2)]);
        assert_eq!(load.dropped_tail, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_final_record_is_dropped_but_earlier_corruption_errors() {
        let path = temp_path("corrupt");
        let mut journal = Journal::new(path.clone());
        for i in 0..2 {
            journal.append(&record(i)).unwrap();
        }
        drop(journal);
        // Garbage final line (newline-terminated, still droppable).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"schema_version\":1,garbage}\n");
        std::fs::write(&path, &bytes).unwrap();
        let load = Journal::load(&path).unwrap();
        assert_eq!(load.records.len(), 2);
        assert!(load.dropped_tail.is_some());

        // The same garbage *before* a valid record is a hard error.
        let mut journal = Journal::new(path.clone());
        journal.append(&record(2)).unwrap();
        match Journal::load(&path) {
            Err(StoreError::CorruptRecord { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_dropped_or_retyped_field_is_a_typed_error() {
        assert_field_damage_is_typed("journal-fields", &record(0).to_line(), "row", |path| {
            Journal::load(path).map(|load| (load.records.len(), load.dropped_tail))
        });
    }

    #[test]
    fn schema_version_skew_is_a_hard_error_even_at_the_tail() {
        let path = temp_path("schema");
        let mut journal = Journal::new(path.clone());
        journal.append(&record(0)).unwrap();
        drop(journal);
        let line = record(1)
            .to_line()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        std::fs::write(&path, &bytes).unwrap();
        match Journal::load(&path) {
            Err(StoreError::SchemaVersion { line, found, .. }) => {
                assert_eq!(line, 2);
                assert_eq!(found, 999);
            }
            other => panic!("expected SchemaVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn journal_rows_replay_bit_identically() {
        // The property resume rests on: a row that went through the journal
        // (render -> parse) renders the same bytes as the original.
        let path = temp_path("bitident");
        let row = Value::Object(vec![
            ("pi".to_string(), Value::Number(std::f64::consts::PI)),
            ("tiny".to_string(), Value::Number(5e-324)),
            (
                "big".to_string(),
                Value::Number(1.234_567_890_123_456_7e300),
            ),
            ("count".to_string(), Value::Number(1_000_000.0)),
        ]);
        let mut rec = record(0);
        rec.row = row.clone();
        let mut journal = Journal::new(path.clone());
        journal.append(&rec).unwrap();
        drop(journal);
        let load = Journal::load(&path).unwrap();
        let direct = serde_json::to_string(&row).unwrap();
        let replayed = serde_json::to_string(&load.records[0].row).unwrap();
        assert_eq!(direct, replayed);
        std::fs::remove_file(&path).unwrap();
    }
}
