//! The run store: per-tier journals and checkpoint logs plus the live
//! committed trials, and the [`TrialSink`] abstraction every bench tier
//! writes through.
//!
//! A tier never touches files itself.  It asks its sink to
//! [`TrialSink::replay`] a trial key — getting the journaled row back if
//! that exact trial (same tier, scenario fingerprint, seed, and engine
//! config) already committed — and calls [`TrialSink::commit`] with each
//! freshly computed row *after its oracles passed*.  [`NullSink`] makes
//! both a no-op so store-less runs take the identical code path;
//! [`StoreSink`] backs them with a [`RunStore`] and counts
//! replayed/computed trials per tier for the run summary.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::json::Value;

use crate::hash::TrialKey;
use crate::log::{self, CheckpointRecord, Log, TrialRecord};
use crate::{Result, StoreError};

/// Where bench tiers send computed trials and ask for replays.
///
/// `Sync` because commits happen inside the parallel executor's worker
/// closures, as trials complete — durability is incremental, not batched
/// at the end of a sweep.
pub trait TrialSink: Sync {
    /// Returns the committed row of `key`, if this exact trial already
    /// committed.  `experiment` is the tier's CLI token (used for
    /// accounting; the key alone identifies the trial).
    fn replay(&self, experiment: &str, key: TrialKey) -> Option<Value>;

    /// Durably commits one freshly computed trial.  Callers only invoke
    /// this after the trial's oracles passed — a failed oracle is an error
    /// on the compute path, so nothing reaches the journal.
    fn commit(&self, record: TrialRecord) -> Result<()>;

    /// Returns the newest committed mid-run checkpoint of `key`, as
    /// `(tick, blob)`, if one survived.  Store-less sinks have none.
    fn latest_checkpoint(&self, _key: TrialKey) -> Option<(u64, Value)> {
        None
    }

    /// Durably commits one mid-run checkpoint.  Store-less sinks discard
    /// it — checkpoints are an optimization, never load-bearing state.
    fn commit_checkpoint(&self, _record: CheckpointRecord) -> Result<()> {
        Ok(())
    }
}

/// Sink for store-less runs: replays nothing, commits nowhere.
#[derive(Debug, Default)]
pub struct NullSink;

impl TrialSink for NullSink {
    fn replay(&self, _experiment: &str, _key: TrialKey) -> Option<Value> {
        None
    }

    fn commit(&self, _record: TrialRecord) -> Result<()> {
        Ok(())
    }
}

/// The journal-backed run store: one JSONL journal per tier under the
/// store directory (`<dir>/<token lowercase>.jsonl`), plus an in-memory
/// map of every live committed trial.
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
    resume: bool,
    /// The live record of every committed trial (loaded + fresh); a later
    /// commit of the same key shadows the earlier one (journals are
    /// append-only, so re-runs shadow instead of edit).
    records: BTreeMap<TrialKey, TrialRecord>,
    /// Per-tier journal append handles, keyed by CLI token.
    journals: BTreeMap<String, Log<TrialRecord>>,
    /// Newest surviving mid-run checkpoint per trial key (pruned when the
    /// trial itself commits — a finished trial replays, never restores).
    checkpoints: BTreeMap<TrialKey, CheckpointRecord>,
    /// Per-tier checkpoint-log append handles, keyed by CLI token.
    checkpoint_logs: BTreeMap<String, Log<CheckpointRecord>>,
    /// Tiers whose journal + checkpoint files have been reset this run
    /// (fresh mode only).
    reset: BTreeSet<String>,
    /// Human-readable notes from loading (dropped crash tails).
    notes: Vec<String>,
}

impl RunStore {
    /// Opens a store rooted at `dir`.
    ///
    /// With `resume` set, every `*.jsonl` log under `dir` is loaded record
    /// by record with the crash-safe tail policy and truncated to its
    /// valid prefix — subsequent [`RunStore::replay`] calls serve those
    /// trials from memory.  Without `resume`, nothing is loaded and each
    /// tier's journal is reset the first time that tier commits, so a
    /// fresh run never mixes old and new trials in one file.
    pub fn open(dir: &Path, resume: bool) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(StoreError::io(dir))?;
        let mut store = RunStore {
            dir: dir.to_path_buf(),
            resume,
            records: BTreeMap::new(),
            journals: BTreeMap::new(),
            checkpoints: BTreeMap::new(),
            checkpoint_logs: BTreeMap::new(),
            reset: BTreeSet::new(),
            notes: Vec::new(),
        };
        if resume {
            store.load_existing()?;
        }
        Ok(store)
    }

    fn load_existing(&mut self) -> Result<()> {
        let entries = std::fs::read_dir(&self.dir).map_err(StoreError::io(&self.dir))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        paths.sort();
        for path in paths {
            // A `<token>.ckpt.jsonl` checkpoint log shares the directory
            // and extension with the trial journals; the `.ckpt` stem
            // suffix keeps it off the journal path.
            let is_checkpoint_log = path
                .file_stem()
                .is_some_and(|stem| stem.to_string_lossy().ends_with(".ckpt"));
            let dropped = if is_checkpoint_log {
                log::load(&path, |record| self.insert_checkpoint(record))?
                    .map(|reason| format!("torn checkpoint ({reason})"))
            } else {
                log::load(&path, |record: TrialRecord| {
                    self.records.insert(record.key, record);
                })?
                .map(|reason| format!("crash tail ({reason})"))
            };
            if let Some(dropped) = dropped {
                self.notes
                    .push(format!("{}: dropped {dropped}", path.display()));
            }
        }
        // Checkpoints of trials that committed are dead weight: the trial
        // replays from its journal row, never from a restore.
        let records = &self.records;
        self.checkpoints.retain(|key, _| !records.contains_key(key));
        Ok(())
    }

    fn insert_checkpoint(&mut self, record: CheckpointRecord) {
        // Later lines supersede earlier ones, and within one run later
        // lines carry later ticks; keeping the max tick also survives a
        // log holding a superseded re-run's tail.
        let kept = self.checkpoints.get(&record.key);
        if kept.is_none_or(|kept| record.tick >= kept.tick) {
            self.checkpoints.insert(record.key, record);
        }
    }

    /// The journal path of one tier.
    #[must_use]
    pub fn journal_path(&self, experiment: &str) -> PathBuf {
        self.dir
            .join(format!("{}.jsonl", experiment.to_lowercase()))
    }

    /// The checkpoint-log path of one tier, next to its journal.
    #[must_use]
    pub fn checkpoint_path(&self, experiment: &str) -> PathBuf {
        self.dir
            .join(format!("{}.ckpt.jsonl", experiment.to_lowercase()))
    }

    /// Returns the committed row of `key`, if present.
    #[must_use]
    pub fn replay(&self, key: TrialKey) -> Option<&Value> {
        self.records.get(&key).map(|record| &record.row)
    }

    /// In fresh (non-resume) mode, the first write of a tier — trial or
    /// checkpoint — resets both of that tier's files, so a fresh run never
    /// mixes old and new state in either.
    fn reset_tier_files(&mut self, token: &str) -> Result<()> {
        if self.resume || !self.reset.insert(token.to_string()) {
            return Ok(());
        }
        for path in [self.journal_path(token), self.checkpoint_path(token)] {
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(StoreError::io(&path)(e))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Commits one trial: appends it to the tier's journal (resetting the
    /// tier's files first in fresh mode) and makes it the key's live
    /// record.  Any surviving mid-run checkpoint of the trial is dropped —
    /// a committed trial replays, never restores.
    pub fn commit(&mut self, record: TrialRecord) -> Result<()> {
        let token = record.experiment.clone();
        self.reset_tier_files(&token)?;
        let path = self.journal_path(&token);
        self.journals
            .entry(token)
            .or_insert_with(|| Log::new(path))
            .append(&record)?;
        self.checkpoints.remove(&record.key);
        self.records.insert(record.key, record);
        Ok(())
    }

    /// Commits one mid-run checkpoint: appends it to the tier's checkpoint
    /// log (resetting the tier's files first in fresh mode) and makes it
    /// the trial's newest checkpoint.
    pub fn commit_checkpoint(&mut self, record: CheckpointRecord) -> Result<()> {
        let token = record.experiment.clone();
        self.reset_tier_files(&token)?;
        let path = self.checkpoint_path(&token);
        self.checkpoint_logs
            .entry(token)
            .or_insert_with(|| Log::new(path))
            .append(&record)?;
        self.insert_checkpoint(record);
        Ok(())
    }

    /// The newest surviving mid-run checkpoint of `key`, if any (and only
    /// if the trial itself has not committed).
    #[must_use]
    pub fn latest_checkpoint(&self, key: TrialKey) -> Option<&CheckpointRecord> {
        self.checkpoints.get(&key)
    }

    /// Every *live* committed record — one per trial key, later commits
    /// shadowing earlier ones — in key order.
    pub fn live_records(&self) -> impl Iterator<Item = &TrialRecord> {
        self.records.values()
    }

    /// Number of live committed trials of one tier.
    #[must_use]
    pub fn committed_count(&self, experiment: &str) -> usize {
        self.live_records()
            .filter(|r| r.experiment == experiment)
            .count()
    }

    /// Load-time notes (dropped crash tails), for the run summary.
    #[must_use]
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Per-tier replay/compute accounting of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Trials served from the journal without recomputation.
    pub replayed: usize,
    /// Trials computed and freshly committed this run.
    pub computed: usize,
}

/// A [`TrialSink`] backed by a [`RunStore`].
///
/// Interior mutability (a mutex around the store and one around the stats)
/// lets executor worker closures share one sink by reference; contention is
/// negligible because trials spend their time simulating, not committing.
#[derive(Debug)]
pub struct StoreSink {
    store: Mutex<RunStore>,
    stats: Mutex<BTreeMap<String, SinkStats>>,
}

impl StoreSink {
    /// Wraps a store.
    #[must_use]
    pub fn new(store: RunStore) -> Self {
        StoreSink {
            store: Mutex::new(store),
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// Unwraps the store (e.g. to build analysis views after the run).
    #[must_use]
    pub fn into_store(self) -> RunStore {
        self.store.into_inner().expect("store mutex poisoned")
    }

    /// Snapshot of the per-tier accounting.
    #[must_use]
    pub fn stats(&self) -> BTreeMap<String, SinkStats> {
        self.stats.lock().expect("stats mutex poisoned").clone()
    }

    /// One summary line per tier that replayed or computed anything, e.g.
    /// `run store[SIM_SCALE]: replayed 3, computed 5` — the line the CI
    /// interrupt-and-resume gate greps for.
    #[must_use]
    pub fn summary_lines(&self) -> Vec<String> {
        self.stats()
            .iter()
            .map(|(token, s)| {
                format!(
                    "run store[{token}]: replayed {}, computed {}",
                    s.replayed, s.computed
                )
            })
            .collect()
    }
}

impl TrialSink for StoreSink {
    fn replay(&self, experiment: &str, key: TrialKey) -> Option<Value> {
        let row = {
            let store = self.store.lock().expect("store mutex poisoned");
            store.replay(key).cloned()
        }?;
        self.stats
            .lock()
            .expect("stats mutex poisoned")
            .entry(experiment.to_string())
            .or_default()
            .replayed += 1;
        Some(row)
    }

    fn commit(&self, record: TrialRecord) -> Result<()> {
        let token = record.experiment.clone();
        self.store
            .lock()
            .expect("store mutex poisoned")
            .commit(record)?;
        self.stats
            .lock()
            .expect("stats mutex poisoned")
            .entry(token)
            .or_default()
            .computed += 1;
        Ok(())
    }

    fn latest_checkpoint(&self, key: TrialKey) -> Option<(u64, Value)> {
        let store = self.store.lock().expect("store mutex poisoned");
        store
            .latest_checkpoint(key)
            .map(|record| (record.tick, record.blob.clone()))
    }

    fn commit_checkpoint(&self, record: CheckpointRecord) -> Result<()> {
        self.store
            .lock()
            .expect("store mutex poisoned")
            .commit_checkpoint(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::trial_key;

    fn temp_dir(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("gossip-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    fn record(experiment: &str, fingerprint: &str, seed: u64, rounds: f64) -> TrialRecord {
        TrialRecord {
            key: trial_key(experiment, fingerprint, seed, "quick;engine=legacy"),
            experiment: experiment.to_string(),
            fingerprint: fingerprint.to_string(),
            seed,
            row: Value::Object(vec![("rounds".to_string(), Value::Number(rounds))]),
        }
    }

    #[test]
    fn commit_then_reopen_with_resume_replays() {
        let dir = temp_dir("resume");
        let mut store = RunStore::open(&dir, false).unwrap();
        let rec = record("SIM_SCALE", "chordring(n=1000)", 42, 17.0);
        store.commit(rec.clone()).unwrap();
        store
            .commit(record("SCALE", "dumbbell(half=500)", 42, 9.0))
            .unwrap();
        drop(store);

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.replay(rec.key), Some(&rec.row));
        assert_eq!(store.committed_count("SIM_SCALE"), 1);
        assert_eq!(store.committed_count("SCALE"), 1);
        assert_eq!(
            store.replay(trial_key(
                "SIM_SCALE",
                "chordring(n=1000)",
                43,
                "quick;engine=legacy"
            )),
            None,
            "a different seed is a different trial"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_resets_a_tier_journal_at_first_commit() {
        let dir = temp_dir("fresh");
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=1000)", 1, 11.0))
            .unwrap();
        store
            .commit(record("SCALE", "dumbbell(half=500)", 1, 5.0))
            .unwrap();
        drop(store);

        // A fresh (non-resume) run that only touches SIM_SCALE must reset
        // that journal but leave the SCALE journal alone.
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("SIM_SCALE", "chordring(n=2000)", 2, 13.0))
            .unwrap();
        drop(store);

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.committed_count("SIM_SCALE"), 1);
        assert_eq!(
            store.replay(trial_key(
                "SIM_SCALE",
                "chordring(n=1000)",
                1,
                "quick;engine=legacy"
            )),
            None,
            "the old SIM_SCALE trial was reset away"
        );
        assert_eq!(store.committed_count("SCALE"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn later_commits_shadow_earlier_ones() {
        let dir = temp_dir("shadow");
        let mut store = RunStore::open(&dir, false).unwrap();
        let first = record("SIM_SCALE", "chordring(n=1000)", 7, 10.0);
        let second = record("SIM_SCALE", "chordring(n=1000)", 7, 12.0);
        store.commit(first).unwrap();
        store.commit(second.clone()).unwrap();
        assert_eq!(store.replay(second.key), Some(&second.row));
        assert_eq!(store.live_records().count(), 1);
        drop(store);
        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.replay(second.key), Some(&second.row));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_sink_counts_replays_and_commits() {
        let dir = temp_dir("sink");
        let store = RunStore::open(&dir, false).unwrap();
        let sink = StoreSink::new(store);
        let rec = record("SIM_SCALE", "chordring(n=1000)", 3, 8.0);
        assert_eq!(sink.replay("SIM_SCALE", rec.key), None);
        sink.commit(rec.clone()).unwrap();
        assert_eq!(sink.replay("SIM_SCALE", rec.key), Some(rec.row.clone()));
        let stats = sink.stats();
        assert_eq!(
            stats.get("SIM_SCALE"),
            Some(&SinkStats {
                replayed: 1,
                computed: 1
            })
        );
        assert_eq!(
            sink.summary_lines(),
            vec!["run store[SIM_SCALE]: replayed 1, computed 1".to_string()]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn null_sink_is_inert() {
        let sink = NullSink;
        let rec = record("SIM_SCALE", "chordring(n=1000)", 3, 8.0);
        assert_eq!(sink.replay("SIM_SCALE", rec.key), None);
        sink.commit(rec.clone()).unwrap();
        assert_eq!(sink.replay("SIM_SCALE", rec.key), None);
        assert_eq!(sink.latest_checkpoint(rec.key), None);
        sink.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        assert_eq!(sink.latest_checkpoint(rec.key), None);
    }

    fn checkpoint(key: TrialKey, tick: u64) -> CheckpointRecord {
        CheckpointRecord {
            key,
            experiment: "MEM_SCALE".to_string(),
            tick,
            blob: Value::Object(vec![("ticks".to_string(), Value::String(tick.to_string()))]),
        }
    }

    #[test]
    fn checkpoints_survive_reopen_until_the_trial_commits() {
        let dir = temp_dir("ckpt-resume");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 1024)).unwrap();
        drop(store);

        // A resumed store serves the newest checkpoint of the unfinished
        // trial, and its `.ckpt.jsonl` file never pollutes the trial index.
        let mut store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.replay(rec.key), None);
        assert_eq!(store.latest_checkpoint(rec.key).map(|c| c.tick), Some(1024));
        assert_eq!(store.committed_count("MEM_SCALE"), 0);

        // Committing the trial retires its checkpoints.
        store.commit(rec.clone()).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        drop(store);
        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        assert_eq!(store.replay(rec.key), Some(&rec.row));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_checkpoint_tail_falls_back_to_the_previous_checkpoint() {
        let dir = temp_dir("ckpt-torn");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 1024)).unwrap();
        let path = store.checkpoint_path("MEM_SCALE");
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key).map(|c| c.tick), Some(512));
        assert!(store.notes().iter().any(|n| n.contains("torn checkpoint")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_only_checkpoint_falls_back_to_a_cold_start() {
        let dir = temp_dir("ckpt-cold");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        let path = store.checkpoint_path("MEM_SCALE");
        drop(store);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_open_resets_checkpoints_alongside_the_journal() {
        let dir = temp_dir("ckpt-fresh");
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        let mut store = RunStore::open(&dir, false).unwrap();
        store.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        drop(store);

        // A fresh run's first commit of the tier wipes the stale
        // checkpoint log along with the journal.
        let mut store = RunStore::open(&dir, false).unwrap();
        store
            .commit(record("MEM_SCALE", "chordring(n=2000)", 2, 13.0))
            .unwrap();
        drop(store);
        let store = RunStore::open(&dir, true).unwrap();
        assert_eq!(store.latest_checkpoint(rec.key), None);
        assert_eq!(store.committed_count("MEM_SCALE"), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_sink_round_trips_checkpoints() {
        let dir = temp_dir("ckpt-sink");
        let sink = StoreSink::new(RunStore::open(&dir, false).unwrap());
        let rec = record("MEM_SCALE", "chordring(n=1000)", 42, 17.0);
        assert_eq!(sink.latest_checkpoint(rec.key), None);
        sink.commit_checkpoint(checkpoint(rec.key, 512)).unwrap();
        let (tick, blob) = sink.latest_checkpoint(rec.key).unwrap();
        assert_eq!(tick, 512);
        assert_eq!(blob, checkpoint(rec.key, 512).blob);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
