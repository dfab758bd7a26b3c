//! The run store's append-only JSONL logs: the trial journal and the
//! mid-run checkpoint log.
//!
//! Each tier keeps its committed trials in `<dir>/<token lowercase>.jsonl`
//! and, next to them, its mid-run engine checkpoints in
//! `<dir>/<token lowercase>.ckpt.jsonl`, one compact JSON object per line:
//!
//! ```json
//! {"schema_version":1,"key":"4a311fffdc1e6939","experiment":"SIM_SCALE",
//!  "fingerprint":"chordring(n=1000)","seed":"42","row":{...}}
//! {"schema_version":1,"key":"4a311fffdc1e6939","experiment":"MEM_SCALE",
//!  "tick":"131072","blob":{...}}
//! ```
//!
//! One field list declares both records ([`TrialRecord`] and
//! [`CheckpointRecord`]): a line is `schema_version`, then every field by
//! name in list order, each through its codec.  `key` is the trial's
//! splitmix64 hash as 16 lower-case hex digits, and `seed` and `tick` are
//! decimal strings — 64-bit values that must not squeeze through the JSON
//! number type's `f64` (bits above 2^53 would be lost).  `row` (the tier's
//! own row) and `blob` (the engine's checkpoint document) are stored
//! verbatim and replayed as they were; the store never interprets them.
//! The hex and decimal decoders accept only the exact text the encoder
//! writes.
//!
//! **Crash safety.**  Records are written `line + '\n'` in a single write
//! and flushed per commit, so after a crash at most the *final* line can be
//! damaged.  The load therefore accepts a log whose last line is truncated,
//! unparseable, or missing its terminating newline: that tail is dropped,
//! reported, and durably truncated away before a resume appends again.
//! Damage *before* the final line cannot be explained by a crash and is a
//! hard [`StoreError::CorruptRecord`]; a record written at a different
//! schema version is a hard [`StoreError::SchemaVersion`] even at the tail
//! (version skew is not truncation).  Losing the newest checkpoint is
//! always safe: a resume restores from the previous checkpoint of the same
//! trial, or cold starts if none survived.  For one trial key, a *later
//! line always supersedes an earlier one* — the logs are append-only, so
//! re-runs shadow instead of edit.

use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use serde::json::Value;

use crate::hash::TrialKey;
use crate::value::ValueExt;
use crate::{Result, StoreError, SCHEMA_VERSION};

/// How one record field is written into its line and read back out.
trait Codec {
    /// The field's type.
    type Field;
    fn encode(field: &Self::Field) -> Value;
    /// `None` for anything the encoder would not have written.
    fn decode(value: &Value) -> Option<Self::Field>;
}

/// A trial key as 16 lower-case hex digits.
struct Hex;
/// A `u64` as a decimal string.
struct Decimal;
/// A string.
struct Text;
/// Any JSON value, stored as is.
struct Verbatim;

impl Codec for Hex {
    type Field = TrialKey;
    fn encode(key: &TrialKey) -> Value {
        Value::String(format!("{key:016x}"))
    }
    fn decode(value: &Value) -> Option<TrialKey> {
        canonical::<Self>(value, |text| u64::from_str_radix(text, 16).ok())
    }
}

impl Codec for Decimal {
    type Field = u64;
    fn encode(number: &u64) -> Value {
        Value::String(number.to_string())
    }
    fn decode(value: &Value) -> Option<u64> {
        canonical::<Self>(value, |text| text.parse().ok())
    }
}

impl Codec for Text {
    type Field = String;
    fn encode(text: &String) -> Value {
        Value::String(text.clone())
    }
    fn decode(value: &Value) -> Option<String> {
        value.as_str().map(str::to_string)
    }
}

impl Codec for Verbatim {
    type Field = Value;
    fn encode(value: &Value) -> Value {
        value.clone()
    }
    fn decode(value: &Value) -> Option<Value> {
        Some(value.clone())
    }
}

/// Parses a string-encoded `u64`, accepting only the text its encoder
/// writes for the parsed value (no sign, leading zero or upper-case digit).
fn canonical<C: Codec<Field = u64>>(
    value: &Value,
    parse: impl FnOnce(&str) -> Option<u64>,
) -> Option<u64> {
    let parsed = parse(value.as_str()?)?;
    (C::encode(&parsed) == *value).then_some(parsed)
}

/// One kind of log line, implemented by `records!` from its field list.
pub(crate) trait Record: Sized {
    /// The line's object: `schema_version`, then every field in list order.
    fn encode(&self) -> Value;
    /// Decodes every listed field of a line's object, naming the first
    /// missing or malformed one.
    fn decode(doc: &Value) -> std::result::Result<Self, String>;
}

/// Declares each record from its field list, every field with its codec,
/// and implements the record's line codec from the same list.
macro_rules! records {
    ($(
        $(#[$meta:meta])*
        $name:ident { $($(#[$field_meta:meta])* $field:ident: $ty:ty as $codec:ident,)* }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl Record for $name {
            fn encode(&self) -> Value {
                Value::Object(vec![
                    ("schema_version".to_string(), Value::Number(SCHEMA_VERSION as f64)),
                    $((stringify!($field).to_string(), $codec::encode(&self.$field)),)*
                ])
            }

            fn decode(doc: &Value) -> std::result::Result<Self, String> {
                Ok($name {$(
                    $field: doc
                        .get(stringify!($field))
                        .and_then($codec::decode)
                        .ok_or(concat!("missing or malformed ", stringify!($field)))?,
                )*})
            }
        }
    )*};
}

records! {
    /// One committed trial, as stored on one journal line.
    TrialRecord {
        /// The trial's identity hash (see [`crate::hash::trial_key`]).
        key: TrialKey as Hex,
        /// The tier's CLI token, e.g. `"SIM_SCALE"`.
        experiment: String as Text,
        /// The stable scenario fingerprint the key was derived from.
        fingerprint: String as Text,
        /// The harness base seed the trial ran at.
        seed: u64 as Decimal,
        /// The tier's row payload, replayed verbatim on resume.
        row: Value as Verbatim,
    }

    /// One committed mid-run checkpoint, as stored on one checkpoint-log
    /// line.
    CheckpointRecord {
        /// The owning trial's identity hash.
        key: TrialKey as Hex,
        /// The tier's CLI token, e.g. `"MEM_SCALE"`.
        experiment: String as Text,
        /// The checkpoint's global tick count.
        tick: u64 as Decimal,
        /// The engine checkpoint document, stored verbatim.
        blob: Value as Verbatim,
    }
}

/// Renders one record as its compact line, without the newline.
fn render<R: Record>(record: &R) -> String {
    serde_json::to_string(&record.encode()).expect("vendored serialization is infallible")
}

/// Why a line did not decode.
enum LineError {
    /// Written at this other schema version: a hard error even on the
    /// final line.
    Skew(u64),
    /// Any other damage, dropped as the crash tail on the final line.
    Corrupt(String),
}

/// Decodes one line, its newline stripped.
fn decode_line<R: Record>(line: &[u8]) -> std::result::Result<R, LineError> {
    let text =
        std::str::from_utf8(line).map_err(|e| LineError::Corrupt(format!("invalid UTF-8: {e}")))?;
    let doc = serde_json::from_str(text).map_err(|e| LineError::Corrupt(e.to_string()))?;
    match doc.field_u64("schema_version") {
        None => Err(LineError::Corrupt("missing schema_version".to_string())),
        Some(SCHEMA_VERSION) => R::decode(&doc).map_err(LineError::Corrupt),
        Some(found) => Err(LineError::Skew(found)),
    }
}

/// An append handle on one log file of `R` records.
///
/// The file is opened lazily on the first append; each append writes one
/// full line and flushes it, so a crash can damage at most the final line
/// (which [`load`] then drops).
#[derive(Debug)]
pub(crate) struct Log<R> {
    path: PathBuf,
    file: Option<File>,
    records: PhantomData<fn(&R)>,
}

impl<R: Record> Log<R> {
    /// Creates an append handle; no file is touched until the first append.
    pub(crate) fn new(path: PathBuf) -> Self {
        Log {
            path,
            file: None,
            records: PhantomData,
        }
    }

    /// Appends one record and flushes it to the OS.
    pub(crate) fn append(&mut self, record: &R) -> Result<()> {
        let io_err = StoreError::io(&self.path);
        let file = match &mut self.file {
            Some(file) => file,
            empty => {
                if let Some(parent) = self.path.parent() {
                    std::fs::create_dir_all(parent).map_err(&io_err)?;
                }
                let opened = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .map_err(&io_err)?;
                empty.insert(opened)
            }
        };
        let mut text = render(record);
        text.push('\n');
        file.write_all(text.as_bytes())
            .and_then(|()| file.flush())
            .map_err(io_err)
    }
}

/// Loads the log at `path` with the crash-safe tail policy of the module
/// docs, handing each record to `each` in file order, so a load holds only
/// what `each` keeps.  A dropped tail is truncated away (durably) and its
/// reason returned.  A missing file loads as empty.
pub(crate) fn load<R: Record>(path: &Path, mut each: impl FnMut(R)) -> Result<Option<String>> {
    let io_err = StoreError::io(path);
    let mut reader = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(source) => return Err(io_err(source)),
    };
    let mut line = Vec::new();
    let mut valid_len = 0u64;
    let mut line_no = 0usize;
    let tail = loop {
        line.clear();
        let read = reader.read_until(b'\n', &mut line).map_err(&io_err)?;
        if read == 0 {
            return Ok(None);
        }
        line_no += 1;
        if line.pop() != Some(b'\n') {
            // The `line + '\n'` write did not complete, so this is the
            // crash tail by definition.
            break format!("line {line_no} has no terminating newline (interrupted write)");
        }
        let is_last = reader.fill_buf().map_err(&io_err)?.is_empty();
        match decode_line(&line) {
            Ok(record) => {
                each(record);
                valid_len += read as u64;
            }
            Err(LineError::Skew(found)) => {
                return Err(StoreError::SchemaVersion {
                    path: path.display().to_string(),
                    line: line_no,
                    found,
                })
            }
            Err(LineError::Corrupt(reason)) if is_last => {
                break format!("line {line_no}: {reason}")
            }
            Err(LineError::Corrupt(reason)) => {
                return Err(StoreError::CorruptRecord {
                    path: path.display().to_string(),
                    line: line_no,
                    reason,
                })
            }
        }
    };
    // The repair must be as durable as the appends it protects: fsync the
    // truncated file *and* its directory, so a crash right after this load
    // can't resurrect the dropped tail (and corrupt the recomputed records
    // appended past it) when the metadata replays.
    let file = OpenOptions::new().write(true).open(path).map_err(&io_err)?;
    file.set_len(valid_len).map_err(&io_err)?;
    file.sync_all().map_err(&io_err)?;
    if let Some(parent) = path.parent() {
        let io_err = StoreError::io(parent);
        File::open(parent)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err)?;
    }
    Ok(Some(tail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::trial_key;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "gossip-store-log-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Appends `records` to the log at `path`.
    fn write<R: Record>(path: &Path, records: &[R]) {
        let mut log = Log::new(path.to_path_buf());
        for record in records {
            log.append(record).unwrap();
        }
    }

    /// Every record the load keeps, and the dropped tail's reason.
    fn load_all<R: Record>(path: &Path) -> Result<(Vec<R>, Option<String>)> {
        let mut records = Vec::new();
        let tail = load(path, |record| records.push(record))?;
        Ok((records, tail))
    }

    fn trial(i: u64) -> TrialRecord {
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

    fn checkpoint(tick: u64) -> CheckpointRecord {
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

    /// Damages the line of `record` one field at a time — each field
    /// dropped, and each value retyped (string ↔ number, object → string)
    /// or set to `null` — and loads every damaged line.  Damage before a
    /// valid line must be [`StoreError::CorruptRecord`] at line 2; the same
    /// damage as the final line must be dropped as a crash tail.  The store
    /// keeps the `payload` field verbatim without interpreting it, so a
    /// retyped payload loads.
    fn assert_field_damage_is_typed<R: Record>(tag: &str, record: &R, payload: &str) {
        let valid = render(record);
        let Value::Object(fields) = record.encode() else {
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
        let path = temp_path(tag);
        let count = |path: &Path| load_all::<R>(path).map(|(records, tail)| (records.len(), tail));
        for (what, doc, loads) in damaged {
            let line = serde_json::to_string(&Value::Object(doc)).unwrap();
            std::fs::write(&path, format!("{valid}\n{line}\n{valid}\n")).unwrap();
            match count(&path) {
                Ok((3, None)) if loads => {}
                Err(StoreError::CorruptRecord { line: 2, .. }) if !loads => {}
                other => panic!("{what} before a valid line: {other:?}"),
            }
            std::fs::write(&path, format!("{valid}\n{line}\n")).unwrap();
            match count(&path) {
                Ok((2, None)) if loads => {}
                Ok((1, Some(_))) if !loads => {}
                other => panic!("{what} on the final line: {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_lines_are_pinned_byte_for_byte() {
        // Stores written by earlier builds must keep loading, so the line
        // layout is frozen: field order, the key as hex and the 64-bit
        // counters as decimal strings (u64::MAX does not survive an f64).
        let trial = TrialRecord {
            key: 0x4a31_1fff_dc1e_6939,
            experiment: "SIM_SCALE".to_string(),
            fingerprint: "chordring(n=1000)".to_string(),
            seed: u64::MAX,
            row: Value::Object(vec![("rounds".to_string(), Value::Number(17.0))]),
        };
        let checkpoint = CheckpointRecord {
            key: 0x4a31_1fff_dc1e_6939,
            experiment: "MEM_SCALE".to_string(),
            tick: u64::MAX,
            blob: Value::Object(vec![(
                "values".to_string(),
                Value::Array(vec![Value::String("3ff0000000000000".to_string())]),
            )]),
        };
        assert_eq!(
            render(&trial),
            r#"{"schema_version":1,"key":"4a311fffdc1e6939","experiment":"SIM_SCALE","fingerprint":"chordring(n=1000)","seed":"18446744073709551615","row":{"rounds":17}}"#
        );
        assert_eq!(
            render(&checkpoint),
            r#"{"schema_version":1,"key":"4a311fffdc1e6939","experiment":"MEM_SCALE","tick":"18446744073709551615","blob":{"values":["3ff0000000000000"]}}"#
        );
    }

    #[test]
    fn hex_and_decimal_fields_accept_only_the_text_they_write() {
        for number in [0u64, 1, u64::MAX, 0x4a31_1fff_dc1e_6939] {
            assert_eq!(Hex::decode(&Hex::encode(&number)), Some(number));
            assert_eq!(Decimal::decode(&Decimal::encode(&number)), Some(number));
        }
        let text = |s: &str| Value::String(s.to_string());
        for key in ["xyz", "00", "4A311FFFDC1E6939", "+a311fffdc1e6939"] {
            assert_eq!(Hex::decode(&text(key)), None, "{key}");
        }
        for seed in ["+42", "042", "-1", " 42", "18446744073709551616"] {
            assert_eq!(Decimal::decode(&text(seed)), None, "{seed}");
        }
        assert_eq!(Decimal::decode(&Value::Number(42.0)), None);
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let trials = vec![trial(0), trial(1), trial(2)];
        write(&path, &trials);
        assert_eq!(load_all(&path).unwrap(), (trials, None));
        std::fs::remove_file(&path).unwrap();

        let path = temp_path("ckpt-roundtrip");
        let checkpoints = vec![checkpoint(512), checkpoint(1024), checkpoint(1536)];
        write(&path, &checkpoints);
        assert_eq!(load_all(&path).unwrap(), (checkpoints, None));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_loads_empty() {
        let load = load_all::<TrialRecord>(Path::new("/nonexistent/never/journal.jsonl"));
        assert_eq!(load.unwrap(), (Vec::new(), None));
    }

    #[test]
    fn truncated_final_record_is_dropped() {
        let path = temp_path("truncated");
        write(&path, &[trial(0), trial(1), trial(2)]);
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
        let (records, tail) = load_all::<TrialRecord>(&path).unwrap();
        assert_eq!(records, vec![trial(0), trial(1)]);
        assert!(tail.is_some());

        // Resume protocol: the load truncated the file to its valid
        // prefix, so appending continues cleanly.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len as u64);
        write(&path, &[trial(2)]);
        let load = load_all(&path).unwrap();
        assert_eq!(load, (vec![trial(0), trial(1), trial(2)], None));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_checkpoint_is_dropped_and_the_previous_one_survives() {
        let path = temp_path("torn");
        write(&path, &[checkpoint(512), checkpoint(1024)]);
        // Chop the newest checkpoint mid-line: a crash mid-append.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        let (records, tail) = load_all::<CheckpointRecord>(&path).unwrap();
        assert_eq!(records, vec![checkpoint(512)]);
        assert!(tail.is_some());
        // The load truncated durably, so the next append lands cleanly.
        write(&path, &[checkpoint(1536)]);
        let load = load_all(&path).unwrap();
        assert_eq!(load, (vec![checkpoint(512), checkpoint(1536)], None));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_final_record_is_dropped_but_earlier_corruption_errors() {
        let path = temp_path("corrupt");
        write(&path, &[trial(0), trial(1)]);
        let clean = std::fs::read(&path).unwrap();
        // Garbage final line (newline-terminated, still droppable).
        let garbage = b"{\"schema_version\":1,garbage}\n";
        std::fs::write(&path, [&clean[..], garbage].concat()).unwrap();
        let (records, tail) = load_all::<TrialRecord>(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert!(tail.is_some());

        // The same garbage *before* a valid record is a hard error.
        let valid = format!("{}\n", render(&trial(2)));
        std::fs::write(&path, [&clean[..], garbage, valid.as_bytes()].concat()).unwrap();
        match load_all::<TrialRecord>(&path) {
            Err(StoreError::CorruptRecord { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_dropped_or_retyped_field_is_a_typed_error() {
        assert_field_damage_is_typed("journal-fields", &trial(0), "row");
        // A retyped blob loads: the store keeps it verbatim, and it is the
        // engine's checkpoint decoder that rejects it on restore.
        assert_field_damage_is_typed("ckptlog-fields", &checkpoint(512), "blob");
    }

    #[test]
    fn schema_version_skew_is_a_hard_error_even_at_the_tail() {
        let path = temp_path("schema");
        write(&path, &[trial(0)]);
        let skewed =
            render(&trial(1)).replace("\"schema_version\":1", "\"schema_version\":999") + "\n";
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(skewed.as_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match load_all::<TrialRecord>(&path) {
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
        let mut rec = trial(0);
        rec.row = row.clone();
        write(&path, &[rec]);
        let (records, _) = load_all::<TrialRecord>(&path).unwrap();
        let direct = serde_json::to_string(&row).unwrap();
        let replayed = serde_json::to_string(&records[0].row).unwrap();
        assert_eq!(direct, replayed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blob_replays_bit_identically() {
        let path = temp_path("ckpt-bitident");
        let mut rec = checkpoint(512);
        rec.blob = Value::Object(vec![(
            "time".to_string(),
            Value::String(format!("{:016x}", std::f64::consts::PI.to_bits())),
        )]);
        write(&path, &[rec.clone()]);
        let (records, _) = load_all::<CheckpointRecord>(&path).unwrap();
        assert_eq!(render(&records[0]), render(&rec));
        std::fs::remove_file(&path).unwrap();
    }
}
